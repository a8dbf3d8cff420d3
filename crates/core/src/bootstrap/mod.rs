//! The §4.4 bootstrap, in one place: the pause-free chunk copier
//! ([`SynapseNode::bootstrap_from`](crate::SynapseNode::bootstrap_from)),
//! the subscriber-side reconciliation window it opens around each chunk
//! ([`WatermarkGate`]), and the wire format of the markers and copies it
//! sends through the subscriber's own queue ([`watermark_payload`],
//! [`WATERMARK_EXCHANGE`], [`BOOTSTRAP_EXCHANGE`]). The broker carries that
//! traffic as ordinary direct-to-queue deliveries and knows nothing of the
//! protocol; the subscriber's message path tells a marker or a copy from a
//! live write by the exchange name and reports to the gate.

mod copier;
mod gate;
pub(crate) mod marker;

pub(crate) use gate::WatermarkGate;

use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64};

/// Coarse phase of the bootstrap state machine — `Copy`-cheap so it can
/// ride in [`NodeStats`](crate::NodeStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BootstrapPhase {
    /// No bootstrap running (and none has completed since the last reset).
    #[default]
    Idle,
    /// Step 1: bulk version-snapshot transfer.
    Snapshot,
    /// Step 2a: selecting a chunk between its lo/hi watermarks.
    Copying,
    /// Step 2b: reconciling a selected chunk against the live writes
    /// observed inside its watermark window, then merging the survivors
    /// into the delivery queue.
    Reconciling,
    /// All chunks merged; waiting (without pausing delivery) for the
    /// subscriber to account for them, then clearing resume watermarks.
    Finalizing,
    /// Bootstrap completed; the node serves live traffic.
    Live,
}

/// The bootstrap state machine: Idle → Snapshot → (Copying{model, chunk} →
/// Reconciling{model, chunk})* → Finalizing → Live, falling back to Idle
/// when an attempt fails. The rich variants carry which model/chunk the
/// copier is on; tests hook
/// [`SynapseNode::set_bootstrap_probe`](crate::SynapseNode::set_bootstrap_probe) on
/// transitions to inject faults at exact phases. There is no drain state:
/// chunk copies merge into the partitioned delivery queue behind the live
/// stream, so delivery never pauses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BootstrapState {
    /// No bootstrap running.
    #[default]
    Idle,
    /// Step 1: bulk version-snapshot transfer.
    Snapshot,
    /// Step 2a: selecting chunk `chunk` (0-based) of `model` between its
    /// lo and hi watermark markers.
    Copying {
        /// Model being copied.
        model: String,
        /// 0-based chunk index within this attempt.
        chunk: u64,
    },
    /// Step 2b: reconciling chunk `chunk` of `model` against the live
    /// writes its watermark window observed, then merging the survivors.
    Reconciling {
        /// Model being reconciled.
        model: String,
        /// 0-based chunk index within this attempt.
        chunk: u64,
    },
    /// All chunks merged; settling the merged copies and clearing resume
    /// watermarks. Live delivery continues throughout.
    Finalizing,
    /// Bootstrap completed.
    Live,
}

impl BootstrapState {
    /// The coarse phase of this state.
    pub fn phase(&self) -> BootstrapPhase {
        match self {
            BootstrapState::Idle => BootstrapPhase::Idle,
            BootstrapState::Snapshot => BootstrapPhase::Snapshot,
            BootstrapState::Copying { .. } => BootstrapPhase::Copying,
            BootstrapState::Reconciling { .. } => BootstrapPhase::Reconciling,
            BootstrapState::Finalizing => BootstrapPhase::Finalizing,
            BootstrapState::Live => BootstrapPhase::Live,
        }
    }
}

/// Bootstrap attempt/retry/resume accounting, surfaced through
/// [`NodeStats`](crate::NodeStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BootstrapStats {
    /// Current coarse phase.
    pub phase: BootstrapPhase,
    /// `bootstrap_from` invocations (completed or not).
    pub attempts: u64,
    /// Completed bootstraps — the recovery counter of §4.4.
    pub completions: u64,
    /// Transient step failures absorbed by the retry budget (chunk copies,
    /// snapshot transfers) rather than failing the attempt.
    pub retries: u64,
    /// Models whose copy resumed from a surviving watermark instead of
    /// starting over.
    pub resumes: u64,
    /// Chunks committed (watermark advanced) across all attempts.
    pub chunks_copied: u64,
    /// Records persisted by the copier.
    pub records_copied: u64,
    /// Copied records discarded because the live stream had already
    /// delivered an equal-or-newer version — either dropped by the
    /// watermark-window pre-filter or refused by version-store admission.
    pub records_reconciled: u64,
    /// Chunk copies merged into the partitioned delivery queue (the
    /// pause-free path; a node without workers hands its copies to the
    /// subscriber directly and leaves this at zero).
    pub copies_merged: u64,
    /// Watermark windows that timed out before both markers were observed
    /// (the copy proceeded on version-store admission alone).
    pub windows_timed_out: u64,
    /// Post-convergence watermark cleanups that failed and were deferred
    /// to the next attempt instead of failing an otherwise-complete
    /// bootstrap.
    pub cleanup_deferred: u64,
}

/// Observer of bootstrap state transitions (fault-injection hook).
type BootstrapProbe = Box<dyn Fn(&BootstrapState) + Send + Sync>;

/// Shared bootstrap bookkeeping: the state machine, its transition probe,
/// and the attempt/retry/resume counters.
#[derive(Default)]
pub(crate) struct BootstrapTracker {
    state: RwLock<BootstrapState>,
    probe: RwLock<Option<BootstrapProbe>>,
    attempts: AtomicU64,
    /// Completed (re-)bootstraps — the recovery counter of §4.4.
    completions: AtomicU64,
    retries: AtomicU64,
    resumes: AtomicU64,
    chunks_copied: AtomicU64,
    records_copied: AtomicU64,
    records_reconciled: AtomicU64,
    copies_merged: AtomicU64,
    cleanup_deferred: AtomicU64,
    /// Set when a post-convergence watermark cleanup failed: the next
    /// attempt must clear the stale watermarks *before* trusting any
    /// resume state.
    watermarks_dirty: AtomicBool,
    /// Lineage floor: the queue's cumulative `(discarded, dropped)` pair
    /// as of the last bootstrap attempt. Movement between attempts means
    /// the live stream lost coverage, so committed copy watermarks can no
    /// longer be resumed from. (Queue-refused publishes are deliberately
    /// not part of the signal: a refused message stays in the publisher's
    /// journal and is republished, so coverage is delayed, not broken.)
    lineage: Mutex<Option<(u64, u64)>>,
    /// Armed chunk-copy failures (fault hook): the next N `copy_chunk`
    /// invocations fail transiently before doing any work.
    copy_fail_next: AtomicU64,
}

impl BootstrapTracker {
    /// Moves the state machine and notifies the probe (outside the state
    /// lock, so a probe may read the state or inject faults freely).
    fn transition(&self, next: BootstrapState) {
        *self.state.write() = next.clone();
        if let Some(probe) = self.probe.read().as_ref() {
            probe(&next);
        }
    }
}

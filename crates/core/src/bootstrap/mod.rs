//! The §4.4 bootstrap, in one place: the pause-free chunk copier
//! ([`SynapseNode::bootstrap_from`](crate::SynapseNode::bootstrap_from)),
//! its state machine and its counters. The copier applies each chunk
//! itself, through the subscriber's own message path
//! ([`Subscriber::process`](crate::subscriber::Subscriber::process)), while
//! the workers keep applying the live stream. Version admission is the one
//! reconciliation between the two: a copy lands only over an unversioned
//! object or one strictly older than the copy
//! ([`synapse_versionstore::AdmitRule::Copy`]), and a destroy's tombstone
//! refuses any later copy of its row. It is also what makes a retry cheap
//! to reason about: every attempt copies from the first row, and admission
//! refuses each row an earlier attempt already copied.

mod copier;

use parking_lot::RwLock;
use std::sync::atomic::AtomicU64;

/// Reserved exchange name carried by chunk-copy deliveries. Not a real
/// exchange: nothing binds to it, and the subscriber's message path tells
/// a copy (strict version admission, no dependency wait) from a live write
/// by this name on the delivery envelope.
pub const BOOTSTRAP_EXCHANGE: &str = "__synapse.bootstrap__";

/// Coarse phase of the bootstrap state machine — `Copy`-cheap so it can
/// ride in [`NodeStats`](crate::NodeStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BootstrapPhase {
    /// No bootstrap running (and none has completed since the last reset).
    #[default]
    Idle,
    /// Step 1: bulk version-snapshot transfer.
    Snapshot,
    /// Step 2a: selecting and encoding a chunk.
    Copying,
    /// Step 2b: applying a chunk's copies under version admission.
    Reconciling,
    /// Bootstrap completed; the node serves live traffic.
    Live,
}

/// The bootstrap state machine: Idle → Snapshot → (Copying{model, chunk} →
/// Reconciling{model, chunk})* → Live, falling back to Idle
/// when an attempt fails. The rich variants carry which model/chunk the
/// copier is on; tests hook
/// [`SynapseNode::set_bootstrap_probe`](crate::SynapseNode::set_bootstrap_probe) on
/// transitions to inject faults at exact phases. There is no drain state:
/// the copier applies its chunks beside the workers, so delivery never
/// pauses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BootstrapState {
    /// No bootstrap running.
    #[default]
    Idle,
    /// Step 1: bulk version-snapshot transfer.
    Snapshot,
    /// Step 2a: selecting chunk `chunk` (0-based) of `model`, pinning each
    /// row's version floor and encoding the rows as copies.
    Copying {
        /// Model being copied.
        model: String,
        /// 0-based chunk index within this attempt.
        chunk: u64,
    },
    /// Step 2b: applying chunk `chunk` of `model` under version admission.
    Reconciling {
        /// Model being reconciled.
        model: String,
        /// 0-based chunk index within this attempt.
        chunk: u64,
    },
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
            BootstrapState::Live => BootstrapPhase::Live,
        }
    }
}

/// Bootstrap attempt/retry/copy accounting, surfaced through
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
    /// Chunks applied across all attempts.
    pub chunks_copied: u64,
    /// Copies admitted and written by the copier.
    pub records_copied: u64,
    /// Copies refused by version admission because an equal-or-newer
    /// version was already admitted: by the live stream, or by an earlier
    /// attempt that copied the row before it failed.
    pub records_reconciled: u64,
    /// Always 0: the copier applies its copies itself and merges none into
    /// the delivery queue. Kept so readers of these stats still build.
    pub copies_merged: u64,
}

/// Observer of bootstrap state transitions (fault-injection hook).
type BootstrapProbe = Box<dyn Fn(&BootstrapState) + Send + Sync>;

/// Shared bootstrap bookkeeping: the state machine, its transition probe,
/// and the attempt/retry/copy counters.
#[derive(Default)]
pub(crate) struct BootstrapTracker {
    state: RwLock<BootstrapState>,
    probe: RwLock<Option<BootstrapProbe>>,
    attempts: AtomicU64,
    /// Completed (re-)bootstraps — the recovery counter of §4.4.
    completions: AtomicU64,
    retries: AtomicU64,
    chunks_copied: AtomicU64,
    records_copied: AtomicU64,
    /// Armed chunk-copy failures (fault hook): the next N `copy_chunk`
    /// invocations fail transiently before doing any work.
    #[cfg(any(test, feature = "testing"))]
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

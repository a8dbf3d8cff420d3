//! The pipeline telemetry plane.
//!
//! The paper's evaluation hinges on observability: §6 reports *message
//! delivery delay* — the time from a publisher's committed write to
//! subscriber visibility (Fig. 10, Fig. 11) — and per-stage overhead
//! breakdowns (Fig. 12). This crate is the measurement substrate the rest
//! of the workspace emits into:
//!
//! * [`clock`] — a process-wide monotonic nanosecond clock whose stamps are
//!   comparable across threads (the publish timestamp that rides the broker
//!   envelope).
//! * [`counters`] — a registry of named atomic counters; bumps through a
//!   held handle are lock-free.
//! * [`histogram`] — fixed-bucket, power-of-two latency histograms:
//!   allocation-free, bump-only recording, nearest-rank percentile
//!   extraction from the bucket counts.
//! * [`pipeline`] — the staged visibility-latency breakdown: one histogram
//!   per (delivery mode, stage) pair from ORM intercept to subscriber
//!   apply, plus the end-to-end histogram.
//! * [`ring`] — a bounded structured event ring for span-style stage
//!   traces, gated by the node's `telemetry_enabled` flag (a single relaxed
//!   load when off).
//! * [`controller`] — the per-controller overhead instrumentation behind
//!   Fig. 12, relocated from `synapse-core`.
//! * [`snapshot`] — [`TelemetrySnapshot`], the exported view, with its
//!   own consistency check.
//!
//! Hot-path cost: every recording is a monotonic clock read plus a handful
//! of relaxed atomic bumps; nothing allocates after construction.

pub mod clock;
pub mod controller;
pub mod counters;
pub mod histogram;
pub mod pipeline;
pub mod ring;
pub mod snapshot;

pub use clock::mono_nanos;
pub use controller::{percentile_u64, ControllerRow, ControllerStats, Sample, ScopeSample};
pub use counters::{Counter, CounterRegistry};
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use pipeline::{ModeSlice, PipelineTelemetry, Stage, MODES, STAGES};
pub use ring::{EventRing, TelemetryEvent};
pub use snapshot::{StageSummary, TelemetrySnapshot};

use std::sync::atomic::{AtomicU64, Ordering};

/// One node's telemetry plane: the shared handle every pipeline layer
/// (publisher, broker consumer, subscriber) records into.
pub struct Telemetry {
    counters: CounterRegistry,
    pipeline: PipelineTelemetry,
    ring: EventRing,
    /// Messages whose end-to-end visibility latency was recorded, per
    /// delivery-mode slice — the "counts match delivered messages" anchor.
    delivered: [AtomicU64; MODES],
    /// Durations of crash-recovery passes (WAL replay + snapshot load),
    /// in nanoseconds — one recording per restart that had state to
    /// recover, so the histogram doubles as a restart counter.
    recovery: Histogram,
}

impl Telemetry {
    /// Creates a telemetry plane. `enabled` gates the structured event
    /// ring; counters and histograms are always live (they are the
    /// substrate the tier-1 assertions rely on).
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            counters: CounterRegistry::new(),
            pipeline: PipelineTelemetry::new(),
            ring: EventRing::new(ring::DEFAULT_CAPACITY, enabled),
            delivered: Default::default(),
            recovery: Histogram::new(),
        }
    }

    /// The named-counter registry.
    pub fn counters(&self) -> &CounterRegistry {
        &self.counters
    }

    /// The staged latency histograms.
    pub fn pipeline(&self) -> &PipelineTelemetry {
        &self.pipeline
    }

    /// The bounded structured event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// The recovery-duration histogram: one recording per restart that
    /// replayed a WAL tail or loaded a snapshot.
    pub fn recovery_histogram(&self) -> &Histogram {
        &self.recovery
    }

    /// Records one crash-recovery pass's duration.
    pub fn record_recovery(&self, nanos: u64) {
        self.recovery.record(nanos);
    }

    /// Records one stage duration.
    pub fn record_stage(&self, mode: ModeSlice, stage: Stage, nanos: u64) {
        self.pipeline.record(mode, stage, nanos);
    }

    /// Records a message becoming visible at the subscriber: the four
    /// subscriber-side stage marks and the end-to-end visibility latency
    /// are committed together, so per mode the stage counts always equal
    /// the end-to-end count and the stage sums stay within the end-to-end
    /// sum (each mark is a disjoint sub-interval of the publish→visible
    /// window).
    pub fn record_visible(
        &self,
        mode: ModeSlice,
        residency_nanos: u64,
        pop_nanos: u64,
        dep_wait_nanos: u64,
        apply_nanos: u64,
        end_to_end_nanos: u64,
    ) {
        self.pipeline
            .record(mode, Stage::QueueResidency, residency_nanos);
        self.pipeline.record(mode, Stage::PopBatch, pop_nanos);
        self.pipeline.record(mode, Stage::DepWait, dep_wait_nanos);
        self.pipeline.record(mode, Stage::Apply, apply_nanos);
        self.pipeline
            .record(mode, Stage::EndToEnd, end_to_end_nanos);
        self.delivered[mode.index()].fetch_add(1, Ordering::Relaxed);
        self.ring.push(mode, Stage::EndToEnd, end_to_end_nanos);
    }

    /// Messages delivered (end-to-end recorded) for one mode slice.
    pub fn delivered(&self, mode: ModeSlice) -> u64 {
        self.delivered[mode.index()].load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot of the whole plane.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::from_parts(
            self.pipeline.snapshot(),
            self.counters.snapshot(),
            [
                self.delivered(ModeSlice::Weak),
                self.delivered(ModeSlice::Causal),
                self.delivered(ModeSlice::Global),
            ],
        );
        snap.events = self.ring.len() as u64;
        snap.events_dropped = self.ring.dropped();
        let recovery = self.recovery.snapshot();
        if recovery.count > 0 {
            snap.counters
                .push(("recovery.passes".into(), recovery.count));
            snap.counters
                .push(("recovery.duration_p50_nanos".into(), recovery.p50()));
            snap.counters
                .push(("recovery.duration_p99_nanos".into(), recovery.p99()));
            snap.counters
                .push(("recovery.duration_total_nanos".into(), recovery.sum));
            snap.counters.sort();
        }
        snap
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("delivered_weak", &self.delivered(ModeSlice::Weak))
            .field("delivered_causal", &self.delivered(ModeSlice::Causal))
            .field("delivered_global", &self.delivered(ModeSlice::Global))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_visible_keeps_counts_aligned() {
        let t = Telemetry::new(true);
        t.record_visible(ModeSlice::Causal, 10, 5, 0, 20, 100);
        t.record_visible(ModeSlice::Causal, 12, 6, 1, 25, 120);
        t.record_visible(ModeSlice::Weak, 1, 1, 0, 1, 10);
        let snap = t.snapshot();
        assert_eq!(snap.stage(ModeSlice::Causal, Stage::EndToEnd).count, 2);
        assert_eq!(snap.stage(ModeSlice::Causal, Stage::Apply).count, 2);
        assert_eq!(snap.delivered[ModeSlice::Causal.index()], 2);
        assert_eq!(snap.delivered[ModeSlice::Weak.index()], 1);
        assert_eq!(snap.delivered[ModeSlice::Global.index()], 0);
        snap.check_consistency()
            .expect("visible records are consistent");
        assert_eq!(snap.events, 3);
    }

    #[test]
    fn recovery_histogram_folds_into_counters() {
        let t = Telemetry::new(true);
        let clean = t.snapshot();
        assert!(
            clean
                .counters
                .iter()
                .all(|(k, _)| !k.starts_with("recovery.")),
            "no recovery counters before any recovery pass"
        );
        t.record_recovery(1_000);
        t.record_recovery(2_000);
        let snap = t.snapshot();
        let get = |k: &str| snap.counters.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("recovery.passes"), Some(2));
        assert_eq!(get("recovery.duration_total_nanos"), Some(3_000));
        assert!(get("recovery.duration_p50_nanos").unwrap() >= 1_000);
        assert_eq!(t.recovery_histogram().count(), 2);
    }

    #[test]
    fn disabled_ring_stays_empty_but_histograms_record() {
        let t = Telemetry::new(false);
        t.record_visible(ModeSlice::Weak, 1, 1, 0, 1, 10);
        let snap = t.snapshot();
        assert_eq!(snap.events, 0);
        assert_eq!(snap.stage(ModeSlice::Weak, Stage::EndToEnd).count, 1);
    }
}

//! Exported telemetry views.
//!
//! [`TelemetrySnapshot`] is the point-in-time summary a node surfaces on
//! its API and the bench/soak harnesses assert against: per-(mode, stage)
//! count/sum/p50/p99, the named counters, per-mode delivered counts, and
//! the event-ring occupancy.

use crate::histogram::HistogramSnapshot;
use crate::pipeline::{ModeSlice, Stage, MODES, STAGES};

/// Summary of one (mode, stage) histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSummary {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded nanoseconds.
    pub sum_nanos: u64,
    /// Median latency (bucket upper bound, nearest rank).
    pub p50_nanos: u64,
    /// 99th percentile latency (bucket upper bound, nearest rank).
    pub p99_nanos: u64,
}

impl StageSummary {
    fn from_histogram(h: &HistogramSnapshot) -> StageSummary {
        StageSummary {
            count: h.count,
            sum_nanos: h.sum,
            p50_nanos: h.p50(),
            p99_nanos: h.p99(),
        }
    }
}

/// A point-in-time export of one node's telemetry plane.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Per-(mode, stage) summaries, indexed `[mode.index()][stage.index()]`.
    pub stages: [[StageSummary; STAGES]; MODES],
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Messages whose end-to-end latency was recorded, per mode slice.
    pub delivered: [u64; MODES],
    /// Events currently held in the ring.
    pub events: u64,
    /// Events overwritten in the ring.
    pub events_dropped: u64,
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot {
            stages: [[StageSummary::default(); STAGES]; MODES],
            counters: Vec::new(),
            delivered: [0; MODES],
            events: 0,
            events_dropped: 0,
        }
    }
}

impl TelemetrySnapshot {
    /// Builds a snapshot from the live plane's pieces.
    pub fn from_parts(
        pipeline: [[HistogramSnapshot; STAGES]; MODES],
        counters: Vec<(String, u64)>,
        delivered: [u64; MODES],
    ) -> TelemetrySnapshot {
        TelemetrySnapshot {
            stages: std::array::from_fn(|m| {
                std::array::from_fn(|s| StageSummary::from_histogram(&pipeline[m][s]))
            }),
            counters,
            delivered,
            events: 0,
            events_dropped: 0,
        }
    }

    /// The summary for one (mode, stage) pair.
    pub fn stage(&self, mode: ModeSlice, stage: Stage) -> &StageSummary {
        &self.stages[mode.index()][stage.index()]
    }

    /// The end-to-end summary for one mode.
    pub fn end_to_end(&self, mode: ModeSlice) -> &StageSummary {
        self.stage(mode, Stage::EndToEnd)
    }

    /// Value of a named counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Total end-to-end records across all modes.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.iter().sum()
    }

    /// True when at least one message's end-to-end latency was recorded.
    pub fn has_deliveries(&self) -> bool {
        self.total_delivered() > 0
    }

    /// Checks the invariants the subscriber commit discipline guarantees:
    /// per mode, every subscriber-side stage has exactly as many records
    /// as the end-to-end histogram (they are committed together), the
    /// subscriber stage sums add up to at most the end-to-end sum (each is
    /// a disjoint sub-interval of publish→visible), and the delivered
    /// counter matches the end-to-end count.
    pub fn check_consistency(&self) -> Result<(), String> {
        for mode in ModeSlice::all() {
            let e2e = self.end_to_end(mode);
            if self.delivered[mode.index()] != e2e.count {
                return Err(format!(
                    "{}: delivered counter {} != end-to-end count {}",
                    mode.name(),
                    self.delivered[mode.index()],
                    e2e.count
                ));
            }
            let mut stage_sum = 0u64;
            for stage in Stage::all() {
                if !stage.is_subscriber_stage() {
                    continue;
                }
                let s = self.stage(mode, stage);
                if s.count != e2e.count {
                    return Err(format!(
                        "{}/{}: stage count {} != end-to-end count {}",
                        mode.name(),
                        stage.name(),
                        s.count,
                        e2e.count
                    ));
                }
                stage_sum = stage_sum.saturating_add(s.sum_nanos);
            }
            if stage_sum > e2e.sum_nanos {
                return Err(format!(
                    "{}: subscriber stage sums {}ns exceed end-to-end {}ns",
                    mode.name(),
                    stage_sum,
                    e2e.sum_nanos
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModeSlice, Stage, Telemetry};

    fn populated() -> TelemetrySnapshot {
        let t = Telemetry::new(true);
        t.record_stage(ModeSlice::Causal, Stage::Intercept, 300);
        t.record_stage(ModeSlice::Causal, Stage::DepCompute, 400);
        t.record_visible(ModeSlice::Causal, 1_000, 200, 5_000, 900, 10_000);
        t.record_visible(ModeSlice::Weak, 500, 100, 0, 700, 4_000);
        t.counters().add("publisher.messages", 2);
        t.counters().add("subscriber.acks", 2);
        t.snapshot()
    }

    #[test]
    fn consistency_holds_for_visible_commits() {
        let snap = populated();
        snap.check_consistency()
            .expect("committed records consistent");
        assert_eq!(snap.total_delivered(), 2);
        assert!(snap.has_deliveries());
        assert_eq!(snap.counter("publisher.messages"), 2);
        assert_eq!(snap.counter("absent"), 0);
    }

    #[test]
    fn consistency_flags_count_mismatch_and_sum_overflow() {
        let mut snap = populated();
        snap.delivered[ModeSlice::Causal.index()] += 1;
        assert!(snap.check_consistency().is_err());

        let mut snap = populated();
        snap.stages[ModeSlice::Causal.index()][Stage::Apply.index()].sum_nanos = u64::MAX;
        assert!(snap.check_consistency().is_err());
    }
}

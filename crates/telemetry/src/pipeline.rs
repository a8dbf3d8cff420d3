//! The staged visibility-latency breakdown.
//!
//! One histogram per (delivery-mode slice, pipeline stage) pair. The
//! stages mirror a message's path from the publisher's ORM intercept to
//! the subscriber's version-store apply, plus the end-to-end
//! publish→visible latency (the paper's "message delivery delay",
//! Fig. 10/11).

use crate::histogram::{Histogram, HistogramSnapshot};

/// One stage of the replication pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// ORM write intercept: from the application's write call to the start
    /// of dependency computation (publisher thread).
    Intercept = 0,
    /// Dependency-set computation in the publisher.
    DepCompute = 1,
    /// Wire encoding of the `WriteMessage`.
    WireEncode = 2,
    /// Broker publish: route resolution and queue admission.
    BrokerEnqueue = 3,
    /// Time the delivery sat in the subscriber queue before a worker
    /// popped it.
    QueueResidency = 4,
    /// Head-of-batch delay: from the batch pop to this message's handling.
    PopBatch = 5,
    /// Causal/global dependency wait at the subscriber.
    DepWait = 6,
    /// Version-store apply (decode through commit).
    Apply = 7,
    /// End-to-end: publisher commit to subscriber visibility.
    EndToEnd = 8,
}

/// Number of pipeline stages (including end-to-end).
pub const STAGES: usize = 9;

impl Stage {
    /// All stages in pipeline order.
    pub fn all() -> [Stage; STAGES] {
        [
            Stage::Intercept,
            Stage::DepCompute,
            Stage::WireEncode,
            Stage::BrokerEnqueue,
            Stage::QueueResidency,
            Stage::PopBatch,
            Stage::DepWait,
            Stage::Apply,
            Stage::EndToEnd,
        ]
    }

    /// Dense index, `0..STAGES`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Intercept => "intercept",
            Stage::DepCompute => "dep_compute",
            Stage::WireEncode => "wire_encode",
            Stage::BrokerEnqueue => "broker_enqueue",
            Stage::QueueResidency => "queue_residency",
            Stage::PopBatch => "pop_batch",
            Stage::DepWait => "dep_wait",
            Stage::Apply => "apply",
            Stage::EndToEnd => "end_to_end",
        }
    }

    /// True for the stages recorded on the subscriber side as disjoint
    /// sub-intervals of the publish→visible window; their per-mode counts
    /// equal the end-to-end count and their sums stay within it.
    pub fn is_subscriber_stage(self) -> bool {
        matches!(
            self,
            Stage::QueueResidency | Stage::PopBatch | Stage::DepWait | Stage::Apply
        )
    }
}

/// Delivery-mode slice of the staged histograms. Mirrors
/// `synapse_core::DeliveryMode` (weak < causal < global) without the
/// dependency edge — core maps into this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum ModeSlice {
    /// Weak / eventual delivery.
    Weak = 0,
    /// Causal delivery.
    Causal = 1,
    /// Global (totally ordered) delivery.
    Global = 2,
}

/// Number of delivery-mode slices.
pub const MODES: usize = 3;

impl ModeSlice {
    /// All slices.
    pub fn all() -> [ModeSlice; MODES] {
        [ModeSlice::Weak, ModeSlice::Causal, ModeSlice::Global]
    }

    /// Dense index, `0..MODES`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable name used in snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            ModeSlice::Weak => "weak",
            ModeSlice::Causal => "causal",
            ModeSlice::Global => "global",
        }
    }
}

/// The full (mode × stage) histogram matrix.
#[derive(Debug)]
pub struct PipelineTelemetry {
    slices: [[Histogram; STAGES]; MODES],
}

impl Default for PipelineTelemetry {
    fn default() -> Self {
        PipelineTelemetry {
            slices: std::array::from_fn(|_| std::array::from_fn(|_| Histogram::new())),
        }
    }
}

impl PipelineTelemetry {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `nanos` into the (mode, stage) histogram.
    #[inline]
    pub fn record(&self, mode: ModeSlice, stage: Stage, nanos: u64) {
        self.slices[mode.index()][stage.index()].record(nanos);
    }

    /// The live histogram for one (mode, stage) pair.
    pub fn histogram(&self, mode: ModeSlice, stage: Stage) -> &Histogram {
        &self.slices[mode.index()][stage.index()]
    }

    /// Snapshot of every (mode, stage) histogram.
    pub fn snapshot(&self) -> [[HistogramSnapshot; STAGES]; MODES] {
        std::array::from_fn(|m| std::array::from_fn(|s| self.slices[m][s].snapshot()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_their_slice() {
        let p = PipelineTelemetry::new();
        p.record(ModeSlice::Causal, Stage::DepWait, 500);
        p.record(ModeSlice::Causal, Stage::DepWait, 700);
        p.record(ModeSlice::Global, Stage::DepWait, 900);
        assert_eq!(p.histogram(ModeSlice::Causal, Stage::DepWait).count(), 2);
        assert_eq!(p.histogram(ModeSlice::Global, Stage::DepWait).count(), 1);
        assert_eq!(p.histogram(ModeSlice::Weak, Stage::DepWait).count(), 0);
        let snap = p.snapshot();
        assert_eq!(
            snap[ModeSlice::Causal.index()][Stage::DepWait.index()].count,
            2
        );
    }
}

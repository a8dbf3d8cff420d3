//! Publisher-overhead instrumentation (Fig. 12).
//!
//! The paper instruments Crowdtap's controllers to report, per controller:
//! call share, messages published, dependencies per message, controller
//! execution time, and Synapse's execution time within the controller
//! (mean and 99th percentile). [`ControllerStats`] collects those samples;
//! the MVC layer records one sample per dispatched request.
//!
//! Relocated from `synapse-core`'s `stats` module; core re-exports these
//! types and converts its request-scope measurements into [`ScopeSample`].

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Duration;

/// The per-request Synapse-side measurements a caller feeds into
/// [`ControllerStats::record`]. `synapse-core` converts its request-scope
/// stats into this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeSample {
    /// Nanoseconds spent inside Synapse during the request.
    pub synapse_nanos: u64,
    /// Messages published during the request.
    pub messages: u64,
    /// Dependencies across those messages.
    pub deps_published: u64,
}

/// One controller-execution sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Total controller wall time.
    pub total: Duration,
    /// Synapse time within the controller.
    pub synapse: Duration,
    /// Messages published.
    pub messages: u64,
    /// Dependencies across those messages.
    pub deps: u64,
}

/// Aggregated per-controller statistics.
#[derive(Debug, Default)]
pub struct ControllerStats {
    samples: Mutex<BTreeMap<String, Vec<Sample>>>,
}

/// Summary row for one controller (a row of Fig. 12(a)).
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerRow {
    /// Controller name.
    pub controller: String,
    /// Number of calls recorded.
    pub calls: u64,
    /// Mean messages per call.
    pub mean_messages: f64,
    /// 99th percentile messages per call.
    pub p99_messages: u64,
    /// Mean dependencies per message.
    pub mean_deps_per_message: f64,
    /// 99th percentile dependencies per message (per call).
    pub p99_deps: u64,
    /// Mean controller time.
    pub mean_total: Duration,
    /// 99th percentile controller time.
    pub p99_total: Duration,
    /// Mean Synapse time.
    pub mean_synapse: Duration,
    /// 99th percentile Synapse time.
    pub p99_synapse: Duration,
    /// Mean overhead fraction (synapse / total).
    pub overhead: f64,
}

impl ControllerStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one controller execution.
    pub fn record(&self, controller: &str, total: Duration, scope: impl Into<ScopeSample>) {
        let scope = scope.into();
        self.samples
            .lock()
            .entry(controller.to_owned())
            .or_default()
            .push(Sample {
                total,
                synapse: Duration::from_nanos(scope.synapse_nanos),
                messages: scope.messages,
                deps: scope.deps_published,
            });
    }

    /// Summarizes one controller, or `None` if never recorded.
    pub fn row(&self, controller: &str) -> Option<ControllerRow> {
        let samples = self.samples.lock();
        let v = samples.get(controller)?;
        if v.is_empty() {
            return None;
        }
        let calls = v.len() as u64;
        let mean_messages = v.iter().map(|s| s.messages).sum::<u64>() as f64 / calls as f64;
        let total_messages: u64 = v.iter().map(|s| s.messages).sum();
        let total_deps: u64 = v.iter().map(|s| s.deps).sum();
        let mean_deps_per_message = if total_messages == 0 {
            0.0
        } else {
            total_deps as f64 / total_messages as f64
        };
        let mean_total = Duration::from_nanos(
            (v.iter().map(|s| s.total.as_nanos()).sum::<u128>() / calls as u128) as u64,
        );
        let mean_synapse = Duration::from_nanos(
            (v.iter().map(|s| s.synapse.as_nanos()).sum::<u128>() / calls as u128) as u64,
        );
        let total_sum: u128 = v.iter().map(|s| s.total.as_nanos()).sum();
        let synapse_sum: u128 = v.iter().map(|s| s.synapse.as_nanos()).sum();
        let overhead = if total_sum == 0 {
            0.0
        } else {
            synapse_sum as f64 / total_sum as f64
        };
        Some(ControllerRow {
            controller: controller.to_owned(),
            calls,
            mean_messages,
            p99_messages: percentile_u64(v.iter().map(|s| s.messages), 0.99),
            mean_deps_per_message,
            p99_deps: percentile_u64(v.iter().map(|s| s.deps), 0.99),
            mean_total,
            p99_total: Duration::from_nanos(percentile_u64(
                v.iter().map(|s| s.total.as_nanos() as u64),
                0.99,
            )),
            mean_synapse,
            p99_synapse: Duration::from_nanos(percentile_u64(
                v.iter().map(|s| s.synapse.as_nanos() as u64),
                0.99,
            )),
            overhead,
        })
    }

    /// All controllers recorded, in name order.
    pub fn controllers(&self) -> Vec<String> {
        self.samples.lock().keys().cloned().collect()
    }

    /// Total calls across all controllers.
    pub fn total_calls(&self) -> u64 {
        self.samples.lock().values().map(|v| v.len() as u64).sum()
    }
}

/// Nearest-rank percentile of a sample stream.
pub fn percentile_u64(values: impl Iterator<Item = u64>, p: f64) -> u64 {
    let mut v: Vec<u64> = values.collect();
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile_u64(1..=100u64, 0.99), 99);
        assert_eq!(percentile_u64([5].into_iter(), 0.99), 5);
        assert_eq!(percentile_u64(std::iter::empty(), 0.99), 0);
    }

    #[test]
    fn rows_aggregate_samples() {
        let stats = ControllerStats::new();
        for i in 0..10 {
            stats.record(
                "actions/update",
                Duration::from_millis(100 + i),
                ScopeSample {
                    synapse_nanos: 10_000_000,
                    messages: 2,
                    deps_published: 6,
                },
            );
        }
        let row = stats.row("actions/update").unwrap();
        assert_eq!(row.calls, 10);
        assert!((row.mean_messages - 2.0).abs() < 1e-9);
        assert!((row.mean_deps_per_message - 3.0).abs() < 1e-9);
        assert!(row.overhead > 0.05 && row.overhead < 0.15);
        assert!(stats.row("missing").is_none());
    }
}

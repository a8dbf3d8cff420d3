//! Fault switch for database engines: transient write errors and latency
//! spikes.
//!
//! A [`DbFaults`] handle is a cloneable arming panel. The write path calls
//! [`DbFaults::gate_write`] before touching the engine; while faults are
//! armed the gate either fails the write with [`DbError::Unavailable`] (a
//! *transient* error — the engine recovers by itself, unlike a kill) or
//! charges an extra latency spike the same way the calibrated
//! [`LatencyModel`](crate::LatencyModel) charges its per-operation cost.
//!
//! Arming is explicit and countdown-based (the next `n` writes), never
//! probabilistic, so a fault schedule driven by a seeded plan yields
//! identical injection counts on every run.
//!
//! These two are the only db-level fault classes: they are what a seeded
//! fault plan schedules and what the ORM's write gate consumes. The
//! engines themselves hold no fault state, so no read or write of theirs
//! pays for a gate.

use crate::error::DbError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counters of faults actually injected through one [`DbFaults`] handle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DbFaultStats {
    /// Writes failed with [`DbError::Unavailable`].
    pub write_errors_injected: u64,
    /// Writes delayed by an injected latency spike.
    pub latency_spikes_charged: u64,
}

#[derive(Default)]
struct FaultsInner {
    /// Fail the next `n` writes with a transient error.
    write_fail_next: AtomicU64,
    /// Delay the next `n` writes by `spike_micros` each.
    spike_next: AtomicU64,
    spike_micros: AtomicU64,
    write_errors_injected: AtomicU64,
    latency_spikes_charged: AtomicU64,
}

/// Cloneable handle arming deterministic db-level faults; clones share
/// state.
#[derive(Clone, Default)]
pub struct DbFaults {
    inner: Arc<FaultsInner>,
}

impl DbFaults {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms transient failures for the next `n` writes.
    pub fn inject_write_errors(&self, n: u64) {
        self.inner.write_fail_next.fetch_add(n, Ordering::SeqCst);
    }

    /// Arms latency spikes: the next `ops` writes each take an extra
    /// `each`. Re-arming replaces the spike duration.
    pub fn inject_latency_spikes(&self, ops: u64, each: Duration) {
        self.inner
            .spike_micros
            .store(each.as_micros() as u64, Ordering::SeqCst);
        self.inner.spike_next.fetch_add(ops, Ordering::SeqCst);
    }

    /// Disarms all pending faults (armed-but-unfired countdowns are
    /// cleared; injection counters are kept).
    pub fn disarm(&self) {
        self.inner.write_fail_next.store(0, Ordering::SeqCst);
        self.inner.spike_next.store(0, Ordering::SeqCst);
    }

    /// Whether any fault countdown is still armed.
    pub fn is_armed(&self) -> bool {
        self.inner.write_fail_next.load(Ordering::SeqCst) > 0
            || self.inner.spike_next.load(Ordering::SeqCst) > 0
    }

    /// Consumes one armed fault, if any: returns the transient error or
    /// charges the latency spike. Called by the ORM write path before the
    /// engine executes.
    pub fn gate_write(&self) -> Result<(), DbError> {
        if consume_one(&self.inner.write_fail_next) {
            self.inner
                .write_errors_injected
                .fetch_add(1, Ordering::SeqCst);
            return Err(DbError::Unavailable);
        }
        if consume_one(&self.inner.spike_next) {
            self.inner
                .latency_spikes_charged
                .fetch_add(1, Ordering::SeqCst);
            let micros = self.inner.spike_micros.load(Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(micros));
        }
        Ok(())
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> DbFaultStats {
        DbFaultStats {
            write_errors_injected: self.inner.write_errors_injected.load(Ordering::SeqCst),
            latency_spikes_charged: self.inner.latency_spikes_charged.load(Ordering::SeqCst),
        }
    }
}

impl std::fmt::Debug for DbFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbFaults")
            .field("write_fail_next", &self.inner.write_fail_next)
            .field("spike_next", &self.inner.spike_next)
            .finish()
    }
}

/// Atomically decrements `counter` if non-zero; returns whether it did.
fn consume_one(counter: &AtomicU64) -> bool {
    let mut current = counter.load(Ordering::SeqCst);
    while current > 0 {
        match counter.compare_exchange(current, current - 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return true,
            Err(actual) => current = actual,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn write_errors_count_down_exactly() {
        let faults = DbFaults::new();
        faults.inject_write_errors(2);
        assert_eq!(faults.gate_write(), Err(DbError::Unavailable));
        assert_eq!(faults.gate_write(), Err(DbError::Unavailable));
        assert_eq!(faults.gate_write(), Ok(()));
        assert_eq!(faults.stats().write_errors_injected, 2);
    }

    #[test]
    fn latency_spikes_charge_and_expire() {
        let faults = DbFaults::new();
        faults.inject_latency_spikes(3, Duration::from_micros(500));
        let start = Instant::now();
        for _ in 0..5 {
            faults.gate_write().unwrap();
        }
        assert!(start.elapsed() >= Duration::from_micros(1_500));
        assert_eq!(faults.stats().latency_spikes_charged, 3);
        assert!(!faults.is_armed());
    }

    #[test]
    fn clones_share_arming_state() {
        let faults = DbFaults::new();
        let clone = faults.clone();
        faults.inject_write_errors(1);
        assert!(clone.gate_write().is_err());
        assert!(faults.gate_write().is_ok());
    }

    #[test]
    fn disarm_clears_pending_faults() {
        let faults = DbFaults::new();
        faults.inject_write_errors(10);
        faults.inject_latency_spikes(10, Duration::from_millis(1));
        faults.disarm();
        assert!(!faults.is_armed());
        assert_eq!(faults.gate_write(), Ok(()));
        assert_eq!(faults.stats(), DbFaultStats::default());
    }
}

//! Synthetic per-operation latency model.
//!
//! The paper's Fig. 13(b) shows each publisher/subscriber pair saturating at
//! the throughput of its *slower* database (PostgreSQL ≈ 12 k writes/s,
//! Elasticsearch ≈ 20 k writes/s, …). In-process engines would all be far
//! faster than the real systems and — worse — in the *wrong order*, so each
//! vendor profile carries a latency model calibrated to the paper's
//! saturation points.
//!
//! A charge sleeps: the thread blocks like a client waiting on a
//! network-attached database, so worker counts matter even on a machine
//! with few cores, where busy-waiting workers would only take turns.
//! Engines are built with the model disabled ([`LatencyModel::off`])
//! unless a measurement asks for the calibration.

use std::time::Duration;

/// Per-operation synthetic costs for one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Cost charged to each read query.
    pub read: Duration,
    /// Cost charged to each write query.
    pub write: Duration,
    /// Master switch; `false` makes both charges free.
    pub enabled: bool,
}

impl LatencyModel {
    /// A disabled model (no artificial cost).
    pub fn off() -> Self {
        LatencyModel {
            read: Duration::ZERO,
            write: Duration::ZERO,
            enabled: false,
        }
    }

    /// A model with the given per-operation costs, enabled.
    pub fn new(read: Duration, write: Duration) -> Self {
        LatencyModel {
            read,
            write,
            enabled: true,
        }
    }

    fn charge(&self, d: Duration) {
        if self.enabled && !d.is_zero() {
            std::thread::sleep(d);
        }
    }

    /// Charges one read.
    pub fn charge_read(&self) {
        self.charge(self.read);
    }

    /// Charges one write.
    pub fn charge_write(&self) {
        self.charge(self.write);
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn disabled_model_is_free() {
        let m = LatencyModel::off();
        let t = Instant::now();
        for _ in 0..10_000 {
            m.charge_write();
        }
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn enabled_model_charges_at_least_the_cost() {
        let m = LatencyModel::new(Duration::ZERO, Duration::from_micros(200));
        let t = Instant::now();
        for _ in 0..20 {
            m.charge_write();
        }
        assert!(t.elapsed() >= Duration::from_micros(20 * 200));
    }
}

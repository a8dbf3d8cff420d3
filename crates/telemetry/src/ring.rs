//! A bounded structured event ring for span-style stage traces.
//!
//! The ring keeps the last `capacity` telemetry events (newest overwrite
//! oldest) for post-hoc inspection — a poor man's distributed-tracing
//! span buffer. Pushing claims a slot with one atomic fetch-add and takes
//! only that slot's mutex, so writers on different slots never contend.
//! When the plane is constructed with `telemetry_enabled = false`, a push
//! is a single relaxed load and an immediate return.

use crate::pipeline::{ModeSlice, Stage};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Default ring capacity.
pub const DEFAULT_CAPACITY: usize = 1024;

/// One recorded stage event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Monotonically increasing event sequence number.
    pub seq: u64,
    /// Delivery-mode slice the event belongs to.
    pub mode: ModeSlice,
    /// Pipeline stage.
    pub stage: Stage,
    /// Recorded duration in nanoseconds.
    pub nanos: u64,
}

/// Fixed-capacity overwrite-oldest event buffer.
#[derive(Debug)]
pub struct EventRing {
    slots: Vec<Mutex<Option<TelemetryEvent>>>,
    next: AtomicU64,
    enabled: AtomicBool,
}

impl EventRing {
    /// Creates a ring with `capacity` slots. `enabled = false` turns every
    /// push into a no-op (one relaxed load).
    pub fn new(capacity: usize, enabled: bool) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
            enabled: AtomicBool::new(enabled),
        }
    }

    /// Records one event (overwriting the oldest once full). No-op when
    /// disabled.
    #[inline]
    pub fn push(&self, mode: ModeSlice, stage: Stage, nanos: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock() = Some(TelemetryEvent {
            seq,
            mode,
            stage,
            nanos,
        });
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        (self.next.load(Ordering::Relaxed) as usize).min(self.slots.len())
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events that have been overwritten (pushed beyond capacity).
    pub fn dropped(&self) -> u64 {
        self.next
            .load(Ordering::Relaxed)
            .saturating_sub(self.slots.len() as u64)
    }

    /// The held events in sequence order (oldest first). Events pushed
    /// concurrently with the scan may be missed or partially reordered —
    /// the ring is a debugging aid, not a ledger.
    pub fn snapshot(&self) -> Vec<TelemetryEvent> {
        let mut out: Vec<TelemetryEvent> = self.slots.iter().filter_map(|s| *s.lock()).collect();
        out.sort_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest() {
        let ring = EventRing::new(4, true);
        for i in 0..6 {
            ring.push(ModeSlice::Weak, Stage::EndToEnd, i * 10);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 2);
        let events = ring.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(events.first().unwrap().seq, 2, "oldest two overwritten");
        assert_eq!(events.last().unwrap().nanos, 50);
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let ring = EventRing::new(4, false);
        ring.push(ModeSlice::Global, Stage::Apply, 123);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = EventRing::new(0, true);
        ring.push(ModeSlice::Weak, Stage::Apply, 1);
        ring.push(ModeSlice::Weak, Stage::Apply, 2);
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.snapshot()[0].nanos, 2);
    }
}

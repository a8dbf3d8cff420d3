//! The visibility probe: decides, from outside the system, when an
//! operation has become visible on every replica that subscribes to it.
//!
//! The generator registers, per operation, one *expectation* for every
//! (replica, row) pair the operation must reach, each with a monotone
//! per-row *stamp*. After-commit ORM callbacks on the replicas report the
//! stamp they just made readable; an expectation is met by any report on
//! its row whose stamp is at least its own — so a weak-mode write that a
//! replica discards as superseded counts as visible the moment the newer
//! write lands (or, if that already happened, the moment it is registered).
//! A met expectation is one *delivery*. An operation is visible when all
//! of its expectations are met.

use crate::stats::now_ns;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Stamp reported when a row is destroyed: meets every expectation on it.
pub const GONE: u64 = u64::MAX;

const CHUNK: usize = 1 << 16;
const MAX_CHUNKS: usize = 256;
const SHARDS: usize = 32;

/// Packs a model index and a row id into one probe row key.
pub fn row_key(model: u8, id: u64) -> u64 {
    (u64::from(model) << 56) | id
}

struct Slot {
    due_ns: AtomicU64,
    visible_ns: AtomicU64,
    /// Unmet expectations, plus one held by the generator until it has
    /// registered them all.
    remaining: AtomicU32,
    fanout: AtomicU32,
}

#[derive(Default)]
struct Row {
    seen: u64,
    /// `(stamp, op)` in registration order, which is stamp order.
    pending: Vec<(u64, u64)>,
}

struct Replica {
    shards: Vec<Mutex<HashMap<u64, Row>>>,
}

impl Replica {
    fn shard(&self, row: u64) -> &Mutex<HashMap<u64, Row>> {
        let h = row.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59;
        &self.shards[h as usize % SHARDS]
    }
}

/// What the probe knows about one finished operation.
#[derive(Debug, Clone, Copy)]
pub struct OpTimes {
    pub due_ns: u64,
    pub visible_ns: u64,
    /// Expectations the operation registered (0 = it published nothing
    /// anybody subscribes to).
    pub fanout: u32,
}

/// See the module docs.
pub struct Probe {
    replicas: Vec<Replica>,
    chunks: Vec<OnceLock<Box<[Slot]>>>,
    issued: AtomicU64,
    outstanding: Mutex<usize>,
    changed: Condvar,
    deliveries: AtomicU64,
    order_violations: AtomicU64,
    last_visible_ns: AtomicU64,
    max_gap_ns: AtomicU64,
    /// Rows are written exactly once (create-only workloads): forget a row
    /// as soon as nothing is pending on it, so the maps stay small.
    write_once: bool,
}

impl Probe {
    pub fn new(replicas: usize, write_once: bool) -> Arc<Probe> {
        Arc::new(Probe {
            replicas: (0..replicas)
                .map(|_| Replica {
                    shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
                })
                .collect(),
            chunks: (0..MAX_CHUNKS).map(|_| OnceLock::new()).collect(),
            issued: AtomicU64::new(0),
            outstanding: Mutex::new(0),
            changed: Condvar::new(),
            deliveries: AtomicU64::new(0),
            order_violations: AtomicU64::new(0),
            last_visible_ns: AtomicU64::new(0),
            max_gap_ns: AtomicU64::new(0),
            write_once,
        })
    }

    fn slot(&self, op: u64) -> &Slot {
        let chunk = self.chunks[op as usize / CHUNK].get_or_init(|| {
            (0..CHUNK)
                .map(|_| Slot {
                    due_ns: AtomicU64::new(0),
                    visible_ns: AtomicU64::new(0),
                    remaining: AtomicU32::new(0),
                    fanout: AtomicU32::new(0),
                })
                .collect()
        });
        &chunk[op as usize % CHUNK]
    }

    /// Opens the next operation, due at `due_ns`. With a `window`, parks
    /// (on the condvar the probe signals) until fewer than `window`
    /// operations are un-visible. Called by the one generator thread.
    pub fn begin_op(&self, due_ns: u64, window: Option<usize>) -> u64 {
        {
            let mut outstanding = self.outstanding.lock().expect("probe lock");
            if let Some(window) = window {
                while *outstanding >= window {
                    outstanding = self.changed.wait(outstanding).expect("probe lock");
                }
            }
            *outstanding += 1;
        }
        let op = self.issued.fetch_add(1, Ordering::Relaxed);
        assert!((op as usize) < CHUNK * MAX_CHUNKS, "op table exhausted");
        let slot = self.slot(op);
        slot.due_ns.store(due_ns, Ordering::Relaxed);
        slot.fanout.store(0, Ordering::Relaxed);
        // Release: publishes the slot's fields to the threads that will
        // meet this operation's expectations.
        slot.remaining.store(1, Ordering::Release);
        op
    }

    /// Registers that `op` must reach `row` on `replica` at `stamp`.
    pub fn expect(&self, op: u64, replica: usize, row: u64, stamp: u64) {
        let slot = self.slot(op);
        slot.fanout.fetch_add(1, Ordering::Relaxed);
        slot.remaining.fetch_add(1, Ordering::AcqRel);
        let mut shard = self.replicas[replica]
            .shard(row)
            .lock()
            .expect("probe lock");
        let entry = shard.entry(row).or_default();
        if entry.seen >= stamp {
            drop(shard);
            self.deliver(op);
        } else {
            entry.pending.push((stamp, op));
        }
    }

    /// The generator has registered every expectation of `op`.
    pub fn end_op(&self, op: u64) {
        self.met(op);
    }

    /// A replica made `stamp` of `row` readable (after-commit callback).
    pub fn observe(&self, replica: usize, row: u64, stamp: u64) {
        let mut shard = self.replicas[replica]
            .shard(row)
            .lock()
            .expect("probe lock");
        let entry = shard.entry(row).or_default();
        if stamp < entry.seen {
            self.order_violations.fetch_add(1, Ordering::Relaxed);
        } else {
            entry.seen = stamp;
        }
        let met = entry
            .pending
            .iter()
            .take_while(|(s, _)| *s <= stamp)
            .count();
        // Deliver under the shard lock: a later report on this row must
        // not overtake the ones it supersedes.
        for (_, op) in entry.pending.drain(..met) {
            self.deliver(op);
        }
        let forget = entry.pending.is_empty() && (self.write_once || entry.seen == GONE);
        if forget {
            shard.remove(&row);
        }
    }

    fn deliver(&self, op: u64) {
        self.deliveries.fetch_add(1, Ordering::Relaxed);
        self.met(op);
    }

    fn met(&self, op: u64) {
        let slot = self.slot(op);
        if slot.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let now = now_ns();
        slot.visible_ns.store(now, Ordering::Release);
        let prev = self.last_visible_ns.swap(now, Ordering::Relaxed);
        if prev != 0 && now > prev {
            self.max_gap_ns.fetch_max(now - prev, Ordering::Relaxed);
        }
        let mut outstanding = self.outstanding.lock().expect("probe lock");
        *outstanding -= 1;
        drop(outstanding);
        self.changed.notify_all();
    }

    /// Parks until every operation opened so far is visible.
    pub fn wait_idle(&self) {
        let mut outstanding = self.outstanding.lock().expect("probe lock");
        while *outstanding > 0 {
            outstanding = self.changed.wait(outstanding).expect("probe lock");
        }
    }

    /// Operations opened and not yet visible.
    pub fn outstanding(&self) -> usize {
        *self.outstanding.lock().expect("probe lock")
    }

    /// Operations opened so far (the next operation's number).
    pub fn issued(&self) -> u64 {
        self.issued.load(Ordering::Relaxed)
    }

    /// Expectations met so far.
    pub fn deliveries(&self) -> u64 {
        self.deliveries.load(Ordering::Relaxed)
    }

    /// Reports whose stamp was older than one already seen on their row.
    pub fn order_violations(&self) -> u64 {
        self.order_violations.load(Ordering::Relaxed)
    }

    /// Resets the longest-gap tracker (start of a phase).
    pub fn reset_gap(&self) {
        self.last_visible_ns.store(0, Ordering::Relaxed);
        self.max_gap_ns.store(0, Ordering::Relaxed);
    }

    /// Longest time between two consecutive operations becoming visible
    /// since the last [`Probe::reset_gap`].
    pub fn max_gap_ns(&self) -> u64 {
        self.max_gap_ns.load(Ordering::Relaxed)
    }

    /// Times of a visible operation.
    pub fn times(&self, op: u64) -> OpTimes {
        let slot = self.slot(op);
        OpTimes {
            visible_ns: slot.visible_ns.load(Ordering::Acquire),
            due_ns: slot.due_ns.load(Ordering::Relaxed),
            fanout: slot.fanout.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newer_stamp_meets_older_expectations() {
        let p = Probe::new(2, false);
        let a = p.begin_op(0, None);
        p.expect(a, 0, 7, 1);
        p.expect(a, 1, 7, 1);
        p.end_op(a);
        assert_eq!(p.outstanding(), 1);
        p.observe(0, 7, 2); // superseded on replica 0
        assert_eq!(p.outstanding(), 1);
        p.observe(1, 7, 1);
        assert_eq!(p.outstanding(), 0);
        assert_eq!(p.deliveries(), 2);
        assert_eq!(p.times(a).fanout, 2);
    }

    #[test]
    fn late_registration_is_met_at_once_and_silent_ops_complete() {
        let p = Probe::new(1, false);
        p.observe(0, 9, 5);
        let a = p.begin_op(0, None);
        p.expect(a, 0, 9, 4);
        p.end_op(a);
        let b = p.begin_op(0, None);
        p.end_op(b);
        assert_eq!(p.outstanding(), 0);
        assert_eq!(p.times(b).fanout, 0);
        p.observe(0, 9, 3);
        assert_eq!(p.order_violations(), 1);
    }

    #[test]
    fn destroyed_rows_are_forgotten() {
        let p = Probe::new(1, false);
        let a = p.begin_op(0, None);
        p.expect(a, 0, 3, GONE);
        p.end_op(a);
        p.observe(0, 3, 10);
        assert_eq!(p.outstanding(), 1);
        p.observe(0, 3, GONE);
        assert_eq!(p.outstanding(), 0);
        assert!(p.replicas[0].shard(3).lock().unwrap().is_empty());
    }
}

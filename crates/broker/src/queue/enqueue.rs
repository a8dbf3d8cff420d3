//! Admission: policy, tag allocation, WAL staging and the commit-before-push
//! contract for a publisher's copy off the wire.

use super::{hint_of_key, Partition, PartitionInner, Queue, STATE_DECOMMISSIONED};
use crate::message::{Delivery, SharedStr};
use crate::wal::{frame_enqueue_into, frame_record_into, WalRecord};
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use synapse_telemetry::mono_nanos;

thread_local! {
    /// Per-thread staging buffer for WAL frames built under partition
    /// locks — record encoding happens here, outside every WAL lock.
    static STAGE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl Queue {
    /// Consumes one armed silent-drop fault, if any.
    #[cfg(any(test, feature = "testing"))]
    fn consume_armed_drop(&self) -> bool {
        let armed = &self.drop_next;
        let mut current = armed.load(Ordering::Acquire);
        while current > 0 {
            match armed.compare_exchange_weak(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
        false
    }

    /// Admission policy for a copy off the wire, under the held partition
    /// lock: decommission, armed drop (test builds), cap kill. `false`
    /// means refused, dropped, or cap-killed with nothing of the copy
    /// staged. A cap kill sets the decommissioned state, stages the kill
    /// record, and refuses the triggering copy; the caller sweeps the
    /// surviving backlog once its own lock is released.
    fn admit_live_locked(&self, wal_buf: &mut Vec<u8>, frames: &mut u32) -> bool {
        if self.is_decommissioned() {
            self.counters.refused.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        #[cfg(any(test, feature = "testing"))]
        if self.consume_armed_drop() {
            // Injected silent drop: the copy vanishes before reaching the
            // log, exactly as a lost network frame would.
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let max = self.max_len.load(Ordering::Relaxed);
        if max != usize::MAX && self.ready_total.load(Ordering::SeqCst) >= max {
            // Kill the queue: stop accepting and refuse the triggering
            // copy.
            self.counters.refused.fetch_add(1, Ordering::Relaxed);
            self.state.store(STATE_DECOMMISSIONED, Ordering::SeqCst);
            if let Some(binding) = &self.wal {
                frame_record_into(
                    wal_buf,
                    &WalRecord::QueueKilled {
                        queue: binding.queue.clone(),
                    },
                );
                *frames += 1;
            }
            return false;
        }
        true
    }

    /// First half of admission for a copy that passed policy, under the
    /// held partition lock: tag allocation and — when durable — framing
    /// the enqueue record straight into `wal_buf` (outside every WAL
    /// lock). Returns the delivery to push once the staged frames commit.
    fn stage_locked(
        &self,
        exchange: &SharedStr,
        payload: &SharedStr,
        origin_nanos: u64,
        hint: u8,
        wal_buf: &mut Vec<u8>,
        frames: &mut u32,
    ) -> Delivery {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let tag = (seq << 8) | u64::from(hint);
        if let Some(binding) = &self.wal {
            frame_enqueue_into(
                wal_buf,
                &binding.queue,
                tag,
                exchange.as_str(),
                payload.as_str(),
                origin_nanos,
            );
            *frames += 1;
        }
        Delivery {
            tag,
            exchange: exchange.clone(),
            payload: payload.clone(),
            redelivered: false,
            origin_nanos,
            enqueued_nanos: mono_nanos(),
        }
    }

    /// Second half of admission, taken while the partition lock is still
    /// held. Commit-before-push is the durability contract (an enqueue is
    /// on the log before it is visible), and holding the lock across the
    /// commit keeps same-partition FIFO: a later tag can never commit and
    /// push ahead of an earlier one. One group-commit wait covers the
    /// staged frames; after a failed commit nothing becomes visible and
    /// the staged delivery is refused. Returns how many deliveries were
    /// enqueued.
    fn commit_and_push_locked(
        &self,
        part: &Partition,
        inner: &mut PartitionInner,
        staged: Option<Delivery>,
        wal_buf: &[u8],
        frames: u32,
    ) -> usize {
        let committed = match &self.wal {
            Some(binding) if frames > 0 => binding.wal.commit_frames(wal_buf, frames).is_ok(),
            _ => true,
        };
        let Some(delivery) = staged else {
            return 0;
        };
        if !committed {
            self.counters.refused.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        inner.ready.push_back(delivery);
        part.len.fetch_add(1, Ordering::Relaxed);
        self.ready_total.fetch_add(1, Ordering::SeqCst);
        self.counters.enqueued.fetch_add(1, Ordering::Relaxed);
        1
    }

    /// Post-enqueue epilogue: completes a cap kill (sweep + wake everyone
    /// so parked consumers observe the decommission) or issues counted
    /// wakeups sized to the number of messages actually added.
    fn finish_enqueue(&self, parts: &[Partition], added: usize) {
        if self.is_decommissioned() {
            self.sweep_discard(parts);
            self.wake_all();
        } else {
            self.wake_ready(added);
        }
    }

    /// Enqueues a payload routed by `key`; enforces the decommission
    /// policy. The payload is shared, not copied.
    pub(crate) fn enqueue_routed(
        &self,
        exchange: &SharedStr,
        payload: &SharedStr,
        origin_nanos: u64,
        key: u64,
    ) {
        let parts = self.partitions.read();
        let hint = hint_of_key(key);
        let p = &parts[hint as usize % parts.len()];
        let added = STAGE_BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.clear();
            let mut frames = 0u32;
            let mut inner = p.inner.lock();
            let staged = self.admit_live_locked(&mut buf, &mut frames).then(|| {
                self.stage_locked(exchange, payload, origin_nanos, hint, &mut buf, &mut frames)
            });
            self.commit_and_push_locked(p, &mut inner, staged, &buf, frames)
        });
        self.finish_enqueue(&parts, added);
    }
}

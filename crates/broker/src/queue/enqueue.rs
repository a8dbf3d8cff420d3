//! Admission: policy, tag allocation, WAL staging and the commit-before-push
//! contract, for a publisher on the wire and for the queue owner's own
//! direct-to-queue batches.

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

    /// Refuses — and counts — a copy bound for a decommissioned queue.
    fn refuse_decommissioned(&self) -> bool {
        let dead = self.is_decommissioned();
        if dead {
            self.counters.refused.fetch_add(1, Ordering::Relaxed);
        }
        dead
    }

    /// Admission policy for a copy off the wire, under the held partition
    /// lock: decommission, armed drop, cap kill. `false` means refused,
    /// dropped, or cap-killed with nothing of the copy staged. A cap kill
    /// sets the decommissioned state, stages the kill record, and refuses
    /// the triggering copy; the caller sweeps the surviving backlog once
    /// its own lock is released.
    ///
    /// Direct-to-queue traffic — the node's own, not on the wire — takes
    /// [`Queue::refuse_decommissioned`] alone: it skips the armed drop (a
    /// fault of the wire) and the cap kill. The backlog cap is
    /// slow-consumer protection against unbounded *live* backlog (§4.4);
    /// direct-to-queue traffic is flow-controlled by its sender, and
    /// letting it trip the kill would sweep the live backlog its sender
    /// relies on.
    fn admit_live_locked(&self, wal_buf: &mut Vec<u8>, frames: &mut u32) -> bool {
        if self.refuse_decommissioned() {
            return false;
        }
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

    /// Second half of admission, in two steps taken while the run's
    /// partition locks are still held. Commit-before-push is the
    /// durability contract (an enqueue is on the log before it is
    /// visible), and holding the locks across the commit keeps
    /// same-partition FIFO: a later tag can never commit and push ahead
    /// of an earlier one. First, one group-commit wait for the whole
    /// run's staged frames; `false` means nothing reached the log.
    fn commit_staged(&self, wal_buf: &[u8], frames: u32) -> bool {
        match &self.wal {
            Some(binding) if frames > 0 => binding.wal.commit_frames(wal_buf, frames).is_ok(),
            _ => true,
        }
    }

    /// Then each partition's admitted deliveries are pushed — or, after
    /// a failed commit, refused: nothing becomes visible. Returns how
    /// many deliveries were enqueued.
    fn push_staged_locked(
        &self,
        part: &Partition,
        inner: &mut PartitionInner,
        staged: Vec<Delivery>,
        committed: bool,
    ) -> usize {
        let n = staged.len();
        if !committed {
            self.counters.refused.fetch_add(n as u64, Ordering::Relaxed);
            return 0;
        }
        if n == 0 {
            return 0;
        }
        for d in staged {
            inner.ready.push_back(d);
        }
        part.len.fetch_add(n, Ordering::Relaxed);
        self.ready_total.fetch_add(n, Ordering::SeqCst);
        self.counters
            .enqueued
            .fetch_add(n as u64, Ordering::Relaxed);
        n
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
    /// policy. The payload is shared, not copied. Key 0 (unkeyed/legacy
    /// publishes) routes to partition 0, preserving global FIFO order for
    /// key-less traffic.
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
            let mut staged = Vec::new();
            if self.admit_live_locked(&mut buf, &mut frames) {
                staged.push(self.stage_locked(
                    exchange,
                    payload,
                    origin_nanos,
                    hint,
                    &mut buf,
                    &mut frames,
                ));
            }
            let committed = self.commit_staged(&buf, frames);
            self.push_staged_locked(p, &mut inner, staged, committed)
        });
        self.finish_enqueue(&parts, added);
    }

    /// Enqueues the queue owner's own keyed batch (direct-to-queue
    /// traffic, see [`Queue::admit_live_locked`]), grouping payloads by
    /// destination partition so each touched partition's lock is taken
    /// exactly once. Within each partition the batch's relative payload
    /// order is preserved. Returns how many copies were admitted (refused
    /// copies are counted but not enqueued).
    pub(crate) fn enqueue_direct(
        &self,
        exchange: &SharedStr,
        payloads: &[(SharedStr, u64, u64)],
    ) -> usize {
        if payloads.is_empty() {
            return 0;
        }
        let parts = self.partitions.read();
        let count = parts.len();
        // (partition, original index), stable-sorted by partition: one
        // contiguous locked run per touched partition, original relative
        // order intact within each.
        let mut order: Vec<(u32, u32)> = payloads
            .iter()
            .enumerate()
            .map(|(i, (_, _, key))| ((hint_of_key(*key) as usize % count) as u32, i as u32))
            .collect();
        order.sort_by_key(|(p, _)| *p);
        let added = STAGE_BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.clear();
            let mut frames = 0u32;
            // Stage every partition run while *holding* its lock —
            // ascending partition order, the checkpoint's lock
            // discipline, so multi-lock holders can never deadlock each
            // other — then commit the entire batch's frames with ONE
            // group-commit wait. Committing per run would pay one
            // strict commit latency per touched partition, serially;
            // one wait per publish call is the point of the staged
            // batch. Holding the locks across the commit keeps
            // commit-before-push and same-partition FIFO.
            let mut locked: Vec<(u32, _, Vec<Delivery>)> = Vec::new();
            let mut i = 0usize;
            while i < order.len() {
                let pi = order[i].0;
                let p = &parts[pi as usize];
                let mut staged: Vec<Delivery> = Vec::new();
                let inner = p.inner.lock();
                while i < order.len() && order[i].0 == pi {
                    let (payload, origin, key) = &payloads[order[i].1 as usize];
                    if !self.refuse_decommissioned() {
                        staged.push(self.stage_locked(
                            exchange,
                            payload,
                            *origin,
                            hint_of_key(*key),
                            &mut buf,
                            &mut frames,
                        ));
                    }
                    i += 1;
                }
                locked.push((pi, inner, staged));
            }
            let committed = self.commit_staged(&buf, frames);
            locked
                .into_iter()
                .map(|(pi, mut inner, staged)| {
                    self.push_staged_locked(&parts[pi as usize], &mut inner, staged, committed)
                })
                .sum()
        });
        self.finish_enqueue(&parts, added);
        added
    }
}

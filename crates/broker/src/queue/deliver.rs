//! Delivery: batch pops, work stealing, and the settle operations — ack,
//! nack, dead-letter — plus the broker-restart requeue.

use super::{partition_of, Partition, PartitionInner, Queue};
use crate::message::Delivery;
use crate::wal::WalRecord;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

impl Queue {
    /// Takes up to `max` deliveries off one locked partition, moving them
    /// to its unacked set and maintaining the gauges.
    fn take_locked(
        &self,
        part: &Partition,
        inner: &mut PartitionInner,
        max: usize,
        out: &mut Vec<Delivery>,
    ) {
        let n = inner.ready.len().min(max);
        if n == 0 {
            return;
        }
        for _ in 0..n {
            let delivery = inner.ready.pop_front().expect("len checked");
            inner.unacked.insert(delivery.tag, delivery.clone());
            out.push(delivery);
        }
        part.len.fetch_sub(n, Ordering::Relaxed);
        self.ready_total.fetch_sub(n, Ordering::SeqCst);
        self.unacked_total.fetch_add(n, Ordering::SeqCst);
    }

    /// Blocking batch pop: parks until at least one delivery is ready,
    /// then drains up to `max` across partitions in index order (each
    /// partition's run stays FIFO, so one key's order is preserved).
    /// Returns empty on timeout, decommission, or a [`Queue::wake_all`]
    /// issued after the call began (shutdown).
    pub(crate) fn pop_batch(&self, max: usize, timeout: Duration) -> Vec<Delivery> {
        if max == 0 {
            return Vec::new();
        }
        let deadline = Instant::now() + timeout;
        let entry_epoch = self.wake_epoch();
        loop {
            {
                let parts = self.partitions.read();
                let mut out = Vec::new();
                for p in parts.iter() {
                    if out.len() >= max {
                        break;
                    }
                    if p.len.load(Ordering::Relaxed) == 0 {
                        continue;
                    }
                    let mut inner = p.inner.lock();
                    self.take_locked(p, &mut inner, max - out.len(), &mut out);
                }
                if !out.is_empty() {
                    return out;
                }
            }
            // A decommission moves the epoch, so it ends a park too.
            if self.is_decommissioned() || self.wake_epoch() != entry_epoch {
                return Vec::new();
            }
            if !self.park_until(deadline, entry_epoch, true) {
                return Vec::new();
            }
        }
    }

    /// Drains up to `max` deliveries from one partition without blocking
    /// (the work-stealing workers' home-partition scan).
    pub(crate) fn pop_batch_from(&self, partition: usize, max: usize) -> Vec<Delivery> {
        let mut out = Vec::new();
        let parts = self.partitions.read();
        let p = &parts[partition % parts.len()];
        if max > 0 && p.len.load(Ordering::Relaxed) > 0 {
            let mut inner = p.inner.lock();
            self.take_locked(p, &mut inner, max, &mut out);
        }
        out
    }

    /// Steals up to `min(max, ceil(ready/2))` deliveries from the *front*
    /// of one partition's ready run (so a lone message can always be
    /// stolen and the oldest work migrates first). Stolen deliveries move
    /// to the victim partition's unacked set — their tags still name that
    /// partition, so acks route correctly no matter which worker applies
    /// them. Non-blocking.
    pub(crate) fn steal_batch(&self, partition: usize, max: usize) -> Vec<Delivery> {
        if max == 0 {
            return Vec::new();
        }
        let parts = self.partitions.read();
        let p = &parts[partition % parts.len()];
        if p.len.load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        let mut inner = p.inner.lock();
        let half = inner.ready.len().div_ceil(2);
        let mut out = Vec::new();
        self.take_locked(p, &mut inner, max.min(half), &mut out);
        if !out.is_empty() {
            self.counters.steals.fetch_add(1, Ordering::Relaxed);
            self.counters
                .stolen
                .fetch_add(out.len() as u64, Ordering::Relaxed);
        }
        out
    }

    /// Parks until the queue has ready deliveries or the wake epoch moves
    /// past `seen` (woken, reinstated, shut down) — or until `timeout`
    /// passes. A decommissioned queue parks like an empty one. Returns
    /// `true` unless it timed out, i.e. `true` means "rescan now".
    pub(crate) fn wait_ready(&self, seen: u64, timeout: Duration) -> bool {
        if self.ready_total.load(Ordering::SeqCst) > 0 {
            return true;
        }
        self.park_until(Instant::now() + timeout, seen, true)
    }

    pub(crate) fn ack(&self, tag: u64) -> bool {
        let parts = self.partitions.read();
        let p = &parts[partition_of(tag, parts.len())];
        let hit = p.inner.lock().unacked.remove(&tag).is_some();
        drop(parts);
        if hit {
            self.unacked_total.fetch_sub(1, Ordering::SeqCst);
            self.counters.acked.fetch_add(1, Ordering::Relaxed);
            self.maybe_notify_quiet();
            if let Some(binding) = &self.wal {
                binding.append_best_effort(&WalRecord::Ack {
                    queue: binding.queue.clone(),
                    tags: vec![tag],
                });
            }
        } else {
            self.counters.spurious_acks.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Acks a batch of tags, grouped so each touched partition's lock is
    /// taken once. Returns how many were live (spurious acks are counted,
    /// exactly as [`Queue::ack`]). Live tags land in one WAL record.
    pub(crate) fn ack_batch(&self, tags: &[u64]) -> u64 {
        if tags.is_empty() {
            return 0;
        }
        let parts = self.partitions.read();
        let count = parts.len();
        let mut order: Vec<(u32, u64)> = tags
            .iter()
            .map(|&tag| (partition_of(tag, count) as u32, tag))
            .collect();
        order.sort_by_key(|(p, _)| *p);
        let mut hits = 0u64;
        let mut live: Vec<u64> = Vec::new();
        let mut i = 0usize;
        while i < order.len() {
            let pi = order[i].0;
            let mut inner = parts[pi as usize].inner.lock();
            let mut removed = 0usize;
            while i < order.len() && order[i].0 == pi {
                let tag = order[i].1;
                if inner.unacked.remove(&tag).is_some() {
                    hits += 1;
                    removed += 1;
                    if self.wal.is_some() {
                        live.push(tag);
                    }
                } else {
                    self.counters.spurious_acks.fetch_add(1, Ordering::Relaxed);
                }
                i += 1;
            }
            drop(inner);
            if removed > 0 {
                self.counters
                    .acked
                    .fetch_add(removed as u64, Ordering::Relaxed);
                self.unacked_total.fetch_sub(removed, Ordering::SeqCst);
            }
        }
        drop(parts);
        self.maybe_notify_quiet();
        if let (Some(binding), false) = (&self.wal, live.is_empty()) {
            binding.append_best_effort(&WalRecord::Ack {
                queue: binding.queue.clone(),
                tags: live,
            });
        }
        hits
    }

    /// Returns the delivery to its partition, marked redelivered, at its
    /// tag-ordered position (usually the front). A blind `push_front`
    /// here is not enough: two workers reverse-nacking their batch tails
    /// into the *same* partition can interleave, scrambling the
    /// partition's FIFO order — and once an older message sits behind a
    /// newer one, causally-chained traffic (all of one user's writes
    /// share a partition) can deadlock in a circular dependency wait.
    /// Inserting by tag keeps the ready run sorted under any
    /// interleaving, so the oldest outstanding message is always the
    /// next one popped.
    pub(crate) fn nack(&self, tag: u64) -> bool {
        let parts = self.partitions.read();
        let p = &parts[partition_of(tag, parts.len())];
        let mut inner = p.inner.lock();
        if let Some(mut delivery) = inner.unacked.remove(&tag) {
            delivery.redelivered = true;
            let pos = inner.ready.partition_point(|d| d.tag < tag);
            inner.ready.insert(pos, delivery);
            p.len.fetch_add(1, Ordering::Relaxed);
            drop(inner);
            drop(parts);
            self.unacked_total.fetch_sub(1, Ordering::SeqCst);
            self.ready_total.fetch_add(1, Ordering::SeqCst);
            self.counters.redelivered.fetch_add(1, Ordering::Relaxed);
            self.wake_ready(1);
            true
        } else {
            self.counters.spurious_nacks.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Moves an unacked delivery to the dead-letter store. The message
    /// leaves the delivery path but stays inspectable; the caller is
    /// expected to account for it (it is consumed, like an ack).
    pub(crate) fn dead_letter(&self, tag: u64) -> bool {
        let parts = self.partitions.read();
        let p = &parts[partition_of(tag, parts.len())];
        let removed = p.inner.lock().unacked.remove(&tag);
        drop(parts);
        if let Some(delivery) = removed {
            self.unacked_total.fetch_sub(1, Ordering::SeqCst);
            self.maybe_notify_quiet();
            self.dead.lock().push(delivery);
            self.dead_len.fetch_add(1, Ordering::Relaxed);
            self.counters.dead_lettered.fetch_add(1, Ordering::Relaxed);
            if let Some(binding) = &self.wal {
                binding.append_best_effort(&WalRecord::DeadLetter {
                    queue: binding.queue.clone(),
                    tag,
                });
            }
            true
        } else {
            false
        }
    }

    /// Snapshot of the dead-letter store.
    pub(crate) fn dead_letters(&self) -> Vec<Delivery> {
        self.dead.lock().clone()
    }

    /// Requeues all unacked deliveries (broker restart semantics), each
    /// to the front of its own partition in tag order.
    pub(crate) fn recover(&self) {
        let parts = self.partitions.read();
        for p in parts.iter() {
            let mut inner = p.inner.lock();
            if inner.unacked.is_empty() {
                continue;
            }
            let mut unacked: Vec<Delivery> = inner.unacked.drain().map(|(_, d)| d).collect();
            unacked.sort_by_key(|d| d.tag);
            let n = unacked.len();
            for mut d in unacked {
                d.redelivered = true;
                // Tag-ordered insert, same as `nack`: a previously nacked
                // delivery may already sit in `ready` with an older tag
                // than some of these.
                let pos = inner.ready.partition_point(|r| r.tag < d.tag);
                inner.ready.insert(pos, d);
            }
            p.len.fetch_add(n, Ordering::Relaxed);
            self.ready_total.fetch_add(n, Ordering::SeqCst);
            self.unacked_total.fetch_sub(n, Ordering::SeqCst);
            self.counters
                .redelivered
                .fetch_add(n as u64, Ordering::Relaxed);
        }
        drop(parts);
        let _guard = self.idle.lock();
        self.idle_cv.notify_all();
    }
}

//! Partitioned durable FIFO queues with acks, dead-lettering, and the
//! decommission policy.
//!
//! # The delivery plane
//!
//! A queue is split into `partitions` independently-locked sub-queues.
//! Publishes carry a routing key (the message's first write dependency
//! key); the key's low byte becomes the delivery-tag *hint* and
//! `hint % partitions` picks the sub-queue, so one key's messages always
//! land in one partition in publish order, and concurrent publishers to
//! different partitions never contend. A publish holds its partition's
//! lock across its WAL commit (`enqueue`; pops, steals and settles are in
//! `deliver`).
//!
//! # Tag encoding
//!
//! `tag = (seq << 8) | hint` where `seq` is a queue-global monotonically
//! increasing sequence (allocated under the destination partition's lock,
//! so per-partition tag order equals push order) and `hint` is the key's
//! low byte. The partition owning a tag is derivable anywhere — ack,
//! nack, dead-letter, and WAL replay all recompute
//! `(tag & 0xFF) % partitions` — which makes recovery and repartitioning
//! deterministic: replayed backlogs and redeclared partition counts
//! re-route every delivery to the same sub-queue any other replay would.
//!
//! # Wakeups
//!
//! Consumers park on one queue-level condvar. Enqueues issue *counted*
//! `notify_one` wakeups — `min(messages added, sleepers)` — instead of
//! `notify_all`, so a 1-message publish into a 64-worker pool wakes one
//! worker, not a thundering herd. The sleeper count is mirrored in a
//! `SeqCst` atomic and re-checked against the ready gauge after
//! registration (store/load ordering in both directions), so a wakeup can
//! never be missed: either the enqueuer sees the sleeper, or the sleeper
//! sees the message.
//!
//! Everything else that should end a park moves the queue's *wake epoch*:
//! shutdown, decommission, reinstatement, and a consumer announcing that
//! what parked waiters wait for may have changed. A consumer samples the
//! epoch before its last look for work and parks against that sample, so
//! a wake issued between the look and the park is never lost. Waiters that
//! only care about the epoch (not about ready deliveries) park on a
//! condvar of their own, so the counted `notify_one`s of an enqueue always
//! reach a consumer that will take the work.

mod deliver;
mod enqueue;

use crate::message::{Delivery, SharedStr};
use crate::wal::{frame_record_into, Wal, WalRecord};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_telemetry::mono_nanos;

/// Span of the per-tag partition hint: the low byte of every delivery tag.
pub const PARTITION_HINT_SPAN: u64 = 256;

/// Default partition count for queues declared without an explicit one.
pub(crate) const DEFAULT_PARTITIONS: usize = 8;

/// The queue-global sequence number encoded in a delivery tag.
#[inline]
pub fn tag_seq(tag: u64) -> u64 {
    tag >> 8
}

/// The partition hint encoded in a delivery tag (the routing key's low
/// byte at publish time).
#[inline]
pub fn tag_hint(tag: u64) -> u8 {
    (tag & (PARTITION_HINT_SPAN - 1)) as u8
}

#[inline]
pub(crate) fn hint_of_key(key: u64) -> u8 {
    (key % PARTITION_HINT_SPAN) as u8
}

#[inline]
fn partition_of(tag: u64, count: usize) -> usize {
    tag_hint(tag) as usize % count
}

/// A queue's handle on the broker WAL: the shared log plus the queue's
/// own name for record attribution.
///
/// Logging discipline: an enqueue is logged *before* the in-memory push
/// (admission implies the record is on the log, so a confirmed publish
/// survives a crash under `FsyncPolicy::EveryWrite`); acks, dead-letters,
/// and lifecycle transitions are logged after the in-memory change,
/// best-effort (losing an ack record merely redelivers after restart —
/// at-least-once is preserved, exactly-once was never promised).
#[derive(Debug)]
pub(crate) struct WalBinding {
    pub(crate) wal: Arc<Wal>,
    pub(crate) queue: String,
}

impl WalBinding {
    /// Best-effort append for post-change records; errors are swallowed
    /// (the in-memory state is already authoritative for this process,
    /// and replay-side conservatism covers the loss). Rides the relaxed
    /// lane: the record stages into the next group commit instead of
    /// stalling the hot path.
    fn append_best_effort(&self, record: &WalRecord) {
        let _ = self.wal.append_relaxed(record);
    }
}

/// Queue configuration.
#[derive(Debug, Clone, Default)]
pub struct QueueConfig {
    /// Maximum backlog before the queue is killed and its subscriber
    /// decommissioned (§4.4). `None` means unbounded.
    pub max_len: Option<usize>,
    /// Number of independently-locked partitions. `0` picks the default
    /// (8); values are clamped to `1..=256` (the tag hint span).
    pub partitions: usize,
}

impl QueueConfig {
    fn effective_partitions(&self) -> usize {
        match self.partitions {
            0 => DEFAULT_PARTITIONS,
            n => n.min(PARTITION_HINT_SPAN as usize),
        }
    }

    fn encoded_max_len(&self) -> usize {
        self.max_len.unwrap_or(usize::MAX)
    }
}

/// Lifecycle state of a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueState {
    /// Accepting and delivering messages.
    Active,
    /// Killed after exceeding its backlog cap; contents were discarded and
    /// the subscriber must recover its data to rejoin (§4.4).
    Decommissioned,
}

const STATE_ACTIVE: u8 = 0;
const STATE_DECOMMISSIONED: u8 = 1;

/// Hot state of one partition: its ready run and in-flight deliveries.
#[derive(Debug, Default)]
struct PartitionInner {
    ready: VecDeque<Delivery>,
    unacked: HashMap<u64, Delivery>,
}

/// One independently-locked sub-queue. `len` mirrors `ready.len()` so
/// scans and depth gauges skip empty partitions without taking the lock.
#[derive(Debug, Default)]
struct Partition {
    inner: Mutex<PartitionInner>,
    len: AtomicUsize,
}

/// Lifetime counters, all maintained with relaxed atomics off the
/// partition locks.
#[derive(Debug, Default)]
struct QueueCounters {
    enqueued: AtomicU64,
    acked: AtomicU64,
    #[cfg(any(test, feature = "testing"))]
    dropped: AtomicU64,
    refused: AtomicU64,
    discarded: AtomicU64,
    redelivered: AtomicU64,
    dead_lettered: AtomicU64,
    spurious_acks: AtomicU64,
    spurious_nacks: AtomicU64,
    reinstated: AtomicU64,
    /// Counted condvar wakeups issued by enqueues (the thundering-herd
    /// fix: at most `min(added, sleepers)` per enqueue).
    wakeups: AtomicU64,
    /// Successful `steal_batch` calls (at least one delivery taken).
    steals: AtomicU64,
    /// Deliveries migrated by stealing.
    stolen: AtomicU64,
}

/// A relaxed snapshot of one queue's counters.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct QueueCountersSnapshot {
    pub(crate) enqueued: u64,
    pub(crate) acked: u64,
    #[cfg(any(test, feature = "testing"))]
    pub(crate) dropped: u64,
    pub(crate) refused: u64,
    pub(crate) discarded: u64,
    pub(crate) redelivered: u64,
    pub(crate) dead_lettered: u64,
    pub(crate) spurious_acks: u64,
    pub(crate) spurious_nacks: u64,
    pub(crate) reinstated: u64,
    pub(crate) wakeups: u64,
    pub(crate) steals: u64,
    pub(crate) stolen: u64,
}

/// A single named queue. Created through
/// [`Broker::declare_queue`](crate::Broker::declare_queue).
#[derive(Debug)]
pub(crate) struct Queue {
    /// The sub-queues. Read-locked by every data-path operation (each of
    /// which then takes at most one partition mutex at a time, except the
    /// rare checkpoint which takes all of them in index order);
    /// write-locked only by a repartitioning redeclare.
    partitions: RwLock<Box<[Partition]>>,
    /// Consumer parking lot: one queue-level condvar. The mutex guards
    /// only the condvar handshake — no queue state lives under it.
    idle: Mutex<()>,
    idle_cv: Condvar,
    /// Signalled (under `idle`) whenever the queue transitions to
    /// quiescent — no ready and no unacked deliveries. Backs the
    /// event-driven [`Queue::wait_quiescent`] that replaced the
    /// subscriber's drain busy-poll.
    quiet_cv: Condvar,
    /// `SeqCst` mirror of how many consumers are parked (or committing to
    /// park) on `idle_cv`; pairs with `ready_total` for lost-wakeup-free
    /// counted notification.
    sleepers: AtomicUsize,
    /// Consumers parked on the wake epoch alone ([`Queue::wait_wake`]),
    /// and how many there are (the `sleepers` of that condvar).
    watch_cv: Condvar,
    watchers: AtomicUsize,
    /// Bumped by [`Queue::wake_all`]; every park ends when it observes a
    /// new epoch, so shutdown never waits out a timeout.
    wake_epoch: AtomicU64,
    state: AtomicU8,
    /// Next tag sequence number (the high 56 bits of the next tag).
    next_seq: AtomicU64,
    /// Backlog cap; `usize::MAX` means unbounded.
    max_len: AtomicUsize,
    /// Fault injection: number of upcoming messages to silently drop.
    /// Consumed with a CAS loop so concurrent publishers burn exactly one
    /// armed drop each.
    #[cfg(any(test, feature = "testing"))]
    drop_next: AtomicU64,
    /// Ready deliveries across all partitions (the lock-free depth gauge
    /// and the enqueue/park handshake word).
    ready_total: AtomicUsize,
    /// In-flight (popped, unacked) deliveries across all partitions.
    unacked_total: AtomicUsize,
    /// Dead-letter store: deliveries a consumer gave up on. Out of the
    /// delivery path but retained for inspection and accounting, so a
    /// poisoned message is never *silently* lost. Cold; one mutex.
    dead: Mutex<Vec<Delivery>>,
    dead_len: AtomicUsize,
    counters: QueueCounters,
    /// `Some` when the owning broker is durable; immutable after creation.
    pub(crate) wal: Option<WalBinding>,
}

fn build_partitions(count: usize) -> Box<[Partition]> {
    (0..count).map(|_| Partition::default()).collect()
}

impl Queue {
    pub(crate) fn new(config: QueueConfig, wal: Option<WalBinding>) -> Self {
        Queue {
            partitions: RwLock::new(build_partitions(config.effective_partitions())),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
            quiet_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            watch_cv: Condvar::new(),
            watchers: AtomicUsize::new(0),
            wake_epoch: AtomicU64::new(0),
            state: AtomicU8::new(STATE_ACTIVE),
            next_seq: AtomicU64::new(1),
            max_len: AtomicUsize::new(config.encoded_max_len()),
            #[cfg(any(test, feature = "testing"))]
            drop_next: AtomicU64::new(0),
            ready_total: AtomicUsize::new(0),
            unacked_total: AtomicUsize::new(0),
            dead: Mutex::new(Vec::new()),
            dead_len: AtomicUsize::new(0),
            counters: QueueCounters::default(),
            wal,
        }
    }

    /// Rebuilds a queue from recovered WAL state. Recovered pending
    /// deliveries are conservatively flagged `redelivered` (after a crash
    /// there is no record of whether a delivery was ever seen), routed to
    /// the partition their tag hint names — the same formula every other
    /// replay would use — and their `enqueued_nanos` restamped at
    /// recovery time. `pending` must be in tag order, which is also seq
    /// (publish) order, so each partition's deque is rebuilt FIFO.
    pub(crate) fn restore(
        config: QueueConfig,
        wal: Option<WalBinding>,
        decommissioned: bool,
        next_seq: u64,
        pending: Vec<(u64, SharedStr, SharedStr, u64)>,
        dead: Vec<(u64, SharedStr, SharedStr, u64)>,
    ) -> Self {
        let queue = Queue::new(config, wal);
        let now = mono_nanos();
        {
            let parts = queue.partitions.read();
            let count = parts.len();
            for (tag, exchange, payload, origin_nanos) in pending {
                let p = &parts[partition_of(tag, count)];
                let mut inner = p.inner.lock();
                let delivery = Delivery {
                    tag,
                    exchange,
                    payload,
                    redelivered: true,
                    origin_nanos,
                    enqueued_nanos: now,
                };
                inner.ready.push_back(delivery);
                p.len.fetch_add(1, Ordering::Relaxed);
                queue.ready_total.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let mut dl = queue.dead.lock();
            for (tag, exchange, payload, origin_nanos) in dead {
                dl.push(Delivery {
                    tag,
                    exchange,
                    payload,
                    redelivered: true,
                    origin_nanos,
                    enqueued_nanos: now,
                });
            }
            queue.dead_len.store(dl.len(), Ordering::Relaxed);
        }
        queue.next_seq.store(next_seq.max(1), Ordering::SeqCst);
        if decommissioned {
            queue.state.store(STATE_DECOMMISSIONED, Ordering::SeqCst);
        }
        queue
    }

    /// Re-applies config to a live queue (idempotent redeclare). A changed
    /// partition count re-routes the entire backlog by the tag-hint
    /// formula in tag order — the same deterministic placement a fresh
    /// replay would produce — under the partitions write lock.
    pub(crate) fn reconfigure(&self, config: QueueConfig) {
        self.max_len
            .store(config.encoded_max_len(), Ordering::SeqCst);
        let target = config.effective_partitions();
        let mut parts = self.partitions.write();
        if parts.len() == target {
            return;
        }
        let mut ready: Vec<Delivery> = Vec::new();
        let mut unacked: Vec<(u64, Delivery)> = Vec::new();
        for p in parts.iter() {
            let mut inner = p.inner.lock();
            ready.extend(inner.ready.drain(..));
            unacked.extend(inner.unacked.drain());
            p.len.store(0, Ordering::Relaxed);
        }
        ready.sort_by_key(|d| d.tag);
        let fresh = build_partitions(target);
        for d in ready {
            let p = &fresh[partition_of(d.tag, target)];
            p.len.fetch_add(1, Ordering::Relaxed);
            p.inner.lock().ready.push_back(d);
        }
        for (tag, d) in unacked {
            fresh[partition_of(tag, target)]
                .inner
                .lock()
                .unacked
                .insert(tag, d);
        }
        *parts = fresh;
    }

    #[inline]
    pub(crate) fn is_decommissioned(&self) -> bool {
        self.state.load(Ordering::SeqCst) == STATE_DECOMMISSIONED
    }

    pub(crate) fn state_snapshot(&self) -> QueueState {
        if self.is_decommissioned() {
            QueueState::Decommissioned
        } else {
            QueueState::Active
        }
    }

    /// Lock-free backlog depth (the telemetry gauge).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.ready_total.load(Ordering::Relaxed)
    }

    /// Lock-free in-flight (popped, unacked) depth.
    #[inline]
    pub(crate) fn unacked_len(&self) -> usize {
        self.unacked_total.load(Ordering::Relaxed)
    }

    /// Lock-free dead-letter count.
    #[inline]
    pub(crate) fn dead_len(&self) -> usize {
        self.dead_len.load(Ordering::Relaxed)
    }

    pub(crate) fn partition_count(&self) -> usize {
        self.partitions.read().len()
    }

    /// Whether `tag` is still popped and unsettled — a decommission sweep
    /// or a broker restart has not taken it back.
    pub(crate) fn holds(&self, tag: u64) -> bool {
        let parts = self.partitions.read();
        let p = &parts[partition_of(tag, parts.len())];
        let held = p.inner.lock().unacked.contains_key(&tag);
        drop(parts);
        held
    }

    /// Lock-free per-partition ready depths.
    pub(crate) fn partition_depths(&self) -> Vec<usize> {
        self.partitions
            .read()
            .iter()
            .map(|p| p.len.load(Ordering::Relaxed))
            .collect()
    }

    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn inject_drop_next(&self, n: u64) {
        self.drop_next.fetch_add(n, Ordering::Release);
    }

    /// Consumers currently parked (or committing to park) on the queue
    /// condvar.
    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn sleepers(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
    }

    pub(crate) fn counters(&self) -> QueueCountersSnapshot {
        let c = &self.counters;
        QueueCountersSnapshot {
            enqueued: c.enqueued.load(Ordering::Relaxed),
            acked: c.acked.load(Ordering::Relaxed),
            #[cfg(any(test, feature = "testing"))]
            dropped: c.dropped.load(Ordering::Relaxed),
            refused: c.refused.load(Ordering::Relaxed),
            discarded: c.discarded.load(Ordering::Relaxed),
            redelivered: c.redelivered.load(Ordering::Relaxed),
            dead_lettered: c.dead_lettered.load(Ordering::Relaxed),
            spurious_acks: c.spurious_acks.load(Ordering::Relaxed),
            spurious_nacks: c.spurious_nacks.load(Ordering::Relaxed),
            reinstated: c.reinstated.load(Ordering::Relaxed),
            wakeups: c.wakeups.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            stolen: c.stolen.load(Ordering::Relaxed),
        }
    }

    /// Discards ready + unacked backlog from every partition, counting it.
    /// Called with no partition lock held (takes each in turn).
    fn sweep_discard(&self, parts: &[Partition]) {
        for p in parts {
            let mut inner = p.inner.lock();
            let n = inner.ready.len() + inner.unacked.len();
            if n == 0 {
                continue;
            }
            self.counters
                .discarded
                .fetch_add(n as u64, Ordering::Relaxed);
            self.ready_total
                .fetch_sub(inner.ready.len(), Ordering::SeqCst);
            self.unacked_total
                .fetch_sub(inner.unacked.len(), Ordering::SeqCst);
            p.len.store(0, Ordering::Relaxed);
            inner.ready.clear();
            inner.unacked.clear();
        }
        self.maybe_notify_quiet();
    }

    /// Counted wakeups: wake `min(added, sleepers)` parked consumers with
    /// individual `notify_one` calls — never a thundering `notify_all`.
    ///
    /// Ordering argument (Dekker-style): the enqueuer's `ready_total`
    /// increment (SeqCst) happens before this `sleepers` load (SeqCst); a
    /// parking consumer increments `sleepers` (SeqCst) *before* its final
    /// `ready_total` check (SeqCst). In every interleaving either the
    /// consumer observes the new message and never sleeps, or this load
    /// observes the sleeper and notifies it. The notify itself is issued
    /// under the idle mutex, which the consumer holds from registration
    /// until `wait` atomically releases it — so the notification cannot
    /// fall into the registration gap.
    fn wake_ready(&self, added: usize) {
        if added == 0 {
            return;
        }
        let sleepers = self.sleepers.load(Ordering::SeqCst);
        if sleepers == 0 {
            return;
        }
        let target = added.min(sleepers);
        let _guard = self.idle.lock();
        let mut woken = 0u64;
        for _ in 0..target {
            if self.idle_cv.notify_one() {
                woken += 1;
            } else {
                break;
            }
        }
        if woken > 0 {
            self.counters.wakeups.fetch_add(woken, Ordering::Relaxed);
        }
    }

    /// Parks until a message is ready (when `on_ready`), the wake epoch
    /// moves past `seen`, or the deadline passes. Returns `false` only on
    /// timeout (caller gives up), `true` when a rescan is warranted.
    ///
    /// A decommissioned queue is no reason to return: it stays quiet until
    /// it is reinstated, and reinstatement moves the epoch.
    fn park_until(&self, deadline: Instant, seen: u64, on_ready: bool) -> bool {
        let (cv, count) = if on_ready {
            (&self.idle_cv, &self.sleepers)
        } else {
            (&self.watch_cv, &self.watchers)
        };
        let mut guard = self.idle.lock();
        count.fetch_add(1, Ordering::SeqCst);
        let rescan = loop {
            if (on_ready && self.ready_total.load(Ordering::SeqCst) > 0)
                || self.wake_epoch.load(Ordering::SeqCst) != seen
            {
                break true;
            }
            if cv.wait_until(&mut guard, deadline).timed_out() {
                break false;
            }
        };
        count.fetch_sub(1, Ordering::SeqCst);
        rescan
    }

    /// The current wake epoch: sample it before looking for work, then
    /// park against the sample ([`Queue::wait_ready`], [`Queue::wait_wake`]).
    pub(crate) fn wake_epoch(&self) -> u64 {
        self.wake_epoch.load(Ordering::SeqCst)
    }

    /// Parks until the wake epoch moves past `seen` or `timeout` passes;
    /// ready deliveries do not end this wait. Returns `false` on timeout.
    pub(crate) fn wait_wake(&self, seen: u64, timeout: Duration) -> bool {
        self.park_until(Instant::now() + timeout, seen, false)
    }

    /// Moves the wake epoch and wakes every parked consumer; batch pops in
    /// progress return empty. Shutdown uses it so workers notice their stop
    /// flag without waiting out a park timeout.
    ///
    /// Free when nobody is parked. Ordering argument: the epoch increment
    /// (SeqCst) comes before the sleeper loads (SeqCst); a parking
    /// consumer registers (SeqCst) before its epoch check. Either this
    /// call sees the consumer and notifies it under the idle mutex — which
    /// the consumer holds from registration until `wait` releases it — or
    /// the consumer sees the new epoch and does not park.
    pub(crate) fn wake_all(&self) {
        self.wake_epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) == 0 && self.watchers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _guard = self.idle.lock();
        self.idle_cv.notify_all();
        self.watch_cv.notify_all();
    }

    /// Whether the queue holds no ready and no in-flight deliveries.
    #[inline]
    fn is_quiescent(&self) -> bool {
        self.ready_total.load(Ordering::SeqCst) == 0
            && self.unacked_total.load(Ordering::SeqCst) == 0
    }

    /// Wakes quiescence waiters if the queue just emptied. Called after
    /// every operation that can retire the last in-flight delivery (ack,
    /// dead-letter, sweep). The notify runs under the idle mutex, which a
    /// `wait_quiescent` caller holds from its check to its park — so the
    /// waiter either observes the empty counters or is parked when the
    /// notify lands; the wakeup cannot be lost.
    fn maybe_notify_quiet(&self) {
        if self.is_quiescent() {
            let _guard = self.idle.lock();
            self.quiet_cv.notify_all();
        }
    }

    /// Blocks until the queue is quiescent (no ready, no unacked) or the
    /// deadline passes; returns whether it is quiescent. Event-driven:
    /// parks on `quiet_cv` between transitions instead of polling.
    pub(crate) fn wait_quiescent(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.idle.lock();
        loop {
            if self.is_quiescent() {
                return true;
            }
            if self.quiet_cv.wait_until(&mut guard, deadline).timed_out() {
                return self.is_quiescent();
            }
        }
    }

    /// Resets a decommissioned queue to empty active state (the subscriber
    /// rejoining after its §4.4 recovery). The dead-letter store survives:
    /// it is an audit log, not backlog. Idempotent: an already-active queue
    /// is left untouched (its backlog is live traffic, not stale state) and
    /// `false` is returned. Armed `drop_next` faults (test builds) belong
    /// to the decommissioned incarnation and are disarmed, so a reinstated
    /// queue cannot silently eat its first live messages.
    pub(crate) fn reinstate(&self) -> bool {
        let parts = self.partitions.read();
        if !self.is_decommissioned() {
            return false;
        }
        self.sweep_discard(&parts);
        #[cfg(any(test, feature = "testing"))]
        self.drop_next.store(0, Ordering::SeqCst);
        self.counters.reinstated.fetch_add(1, Ordering::Relaxed);
        self.state.store(STATE_ACTIVE, Ordering::SeqCst);
        if let Some(binding) = &self.wal {
            binding.append_best_effort(&WalRecord::QueueReinstated {
                queue: binding.queue.clone(),
            });
        }
        drop(parts);
        // Consumers parked on the quiet queue go back to work now.
        self.wake_all();
        true
    }

    /// Appends this queue's checkpoint record to the WAL. Built *and*
    /// appended while holding every partition lock (acquired in index
    /// order; all other paths hold at most one partition lock, so this
    /// cannot deadlock), so no enqueue/ack can slip between the captured
    /// state and its log position — replay may safely treat the
    /// checkpoint as a full replacement of everything before it.
    /// The record's `next_tag` field carries the next *sequence* number
    /// (tags are reconstructed from it by the same `(seq << 8) | hint`
    /// encoding at publish time). No-op for non-durable queues.
    pub(crate) fn append_checkpoint(&self) -> std::io::Result<()> {
        let Some(binding) = &self.wal else {
            return Ok(());
        };
        let parts = self.partitions.read();
        let guards: Vec<_> = parts.iter().map(|p| p.inner.lock()).collect();
        let mut pending: Vec<(u64, String, String, u64, bool)> = Vec::new();
        for inner in &guards {
            pending.extend(inner.ready.iter().map(|d| {
                (
                    d.tag,
                    d.exchange.as_str().to_owned(),
                    d.payload.as_str().to_owned(),
                    d.origin_nanos,
                    d.redelivered,
                )
            }));
            // Unacked deliveries have been seen once: a post-crash replay
            // of the checkpoint must hand them out flagged redelivered.
            pending.extend(inner.unacked.values().map(|d| {
                (
                    d.tag,
                    d.exchange.as_str().to_owned(),
                    d.payload.as_str().to_owned(),
                    d.origin_nanos,
                    true,
                )
            }));
        }
        pending.sort_unstable_by_key(|(tag, ..)| *tag);
        let dead = self
            .dead
            .lock()
            .iter()
            .map(|d| {
                (
                    d.tag,
                    d.exchange.as_str().to_owned(),
                    d.payload.as_str().to_owned(),
                    d.origin_nanos,
                )
            })
            .collect();
        let record = WalRecord::Checkpoint {
            queue: binding.queue.clone(),
            decommissioned: self.is_decommissioned(),
            next_tag: self.next_seq.load(Ordering::SeqCst),
            pending,
            dead,
        };
        // Frame locally (outside every WAL lock), then join the group
        // commit. Blocking here while holding all partition locks is
        // deadlock-free: the commit protocol takes only the WAL's own
        // staging and IO locks, never a partition lock, and the leader
        // finishes every epoch in bounded time — so this thread's epoch
        // is always drained. Parallel enqueues blocked on *this*
        // queue's partitions simply wait their turn; enqueues to other
        // queues share the group commit with the checkpoint itself.
        let mut buf = Vec::with_capacity(256);
        frame_record_into(&mut buf, &record);
        binding.wal.commit_frames(&buf, 1)
    }
}

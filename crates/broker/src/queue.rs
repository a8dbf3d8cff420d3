//! Partitioned durable FIFO queues with acks, dead-lettering, and the
//! decommission policy.
//!
//! # The delivery plane
//!
//! A queue is split into `partitions` independently-locked sub-queues.
//! Publishes carry a routing key (the written object's dependency key);
//! the key's low byte becomes the delivery-tag *hint* and
//! `hint % partitions` picks the sub-queue, so one object's messages
//! always land in one partition in publish order. A batch publish groups
//! its payloads by partition and takes exactly one lock per *touched*
//! partition — concurrent publishers to different partitions never
//! contend. Unkeyed (legacy) publishes use key 0 and therefore all share
//! partition 0, which preserves the strict global FIFO order the
//! pre-partitioned queue promised.
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

use crate::message::{Delivery, SharedStr};
use crate::wal::{frame_enqueue_into, frame_record_into, Wal, WalRecord};
use parking_lot::{Condvar, Mutex, RwLock};
use std::cell::RefCell;
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

thread_local! {
    /// Per-thread staging buffer for WAL frames built under partition
    /// locks — record encoding happens here, outside every WAL lock.
    static STAGE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
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
    /// Bumped by [`Queue::wake_all`]; a parked `pop_batch` returns empty
    /// when it observes a new epoch, so shutdown never waits out a timeout.
    wake_epoch: AtomicU64,
    state: AtomicU8,
    /// Next tag sequence number (the high 56 bits of the next tag).
    next_seq: AtomicU64,
    /// Backlog cap; `usize::MAX` means unbounded.
    max_len: AtomicUsize,
    /// Fault injection: number of upcoming messages to silently drop.
    /// Consumed with a CAS loop so concurrent publishers burn exactly one
    /// armed drop each.
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
            wake_epoch: AtomicU64::new(0),
            state: AtomicU8::new(STATE_ACTIVE),
            next_seq: AtomicU64::new(1),
            max_len: AtomicUsize::new(config.encoded_max_len()),
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

    /// Whether any partition *other than* `tag`'s own holds ready
    /// deliveries (lock-free). The subscriber's batched dependency wait
    /// uses this to decide between yielding the delivery back (the message
    /// satisfying the dependency may be sitting ready elsewhere) and
    /// blocking (everything else is drained, so the dependency can only
    /// arrive from another worker's in-flight batch or a future publish).
    pub(crate) fn ready_elsewhere(&self, tag: u64) -> bool {
        let parts = self.partitions.read();
        let own = partition_of(tag, parts.len());
        parts
            .iter()
            .enumerate()
            .any(|(i, p)| i != own && p.len.load(Ordering::Relaxed) > 0)
    }

    /// Lock-free per-partition ready depths.
    pub(crate) fn partition_depths(&self) -> Vec<usize> {
        self.partitions
            .read()
            .iter()
            .map(|p| p.len.load(Ordering::Relaxed))
            .collect()
    }

    pub(crate) fn inject_drop_next(&self, n: u64) {
        self.drop_next.fetch_add(n, Ordering::Release);
    }

    /// Consumers currently parked (or committing to park) on the queue
    /// condvar. Test/telemetry gauge.
    pub(crate) fn sleepers(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
    }

    pub(crate) fn counters(&self) -> QueueCountersSnapshot {
        let c = &self.counters;
        QueueCountersSnapshot {
            enqueued: c.enqueued.load(Ordering::Relaxed),
            acked: c.acked.load(Ordering::Relaxed),
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

    /// First half of admission, under the held partition lock: policy
    /// checks (decommission, armed drop, cap kill), tag allocation, and
    /// — when durable — framing the enqueue record straight into
    /// `wal_buf` (outside every WAL lock). Returns the delivery to push
    /// once the staged frames commit; `None` means refused, dropped, or
    /// cap-killed with nothing of this copy staged. A cap kill sets the
    /// decommissioned state, stages the kill record behind the already
    /// staged enqueues, and refuses the triggering copy; the caller
    /// sweeps the surviving backlog once its own lock is released.
    ///
    /// `direct` marks direct-to-queue traffic — the node's own, not on
    /// the wire — and is the one rule for it: it skips the armed drop (a
    /// fault of the wire) and the cap kill, not the decommission check.
    /// The backlog cap is slow-consumer protection against unbounded
    /// *live* backlog (§4.4); direct-to-queue traffic is flow-controlled
    /// by its sender, and letting it trip the kill would sweep the live
    /// backlog its sender relies on.
    #[allow(clippy::too_many_arguments)]
    fn stage_locked(
        &self,
        exchange: &SharedStr,
        payload: &SharedStr,
        origin_nanos: u64,
        hint: u8,
        staged_so_far: usize,
        direct: bool,
        wal_buf: &mut Vec<u8>,
        frames: &mut u32,
    ) -> Option<Delivery> {
        if self.is_decommissioned() {
            self.counters.refused.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if !direct && self.consume_armed_drop() {
            // Injected silent drop: the copy vanishes before reaching the
            // log, exactly as a lost network frame would.
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let max = self.max_len.load(Ordering::Relaxed);
        // `staged_so_far` counts this run's admitted-but-uncommitted
        // copies, which `ready_total` doesn't yet include — the cap
        // trips at exactly the copy N individual publishes would.
        let backlog = self.ready_total.load(Ordering::SeqCst);
        if !direct && max != usize::MAX && backlog + staged_so_far >= max {
            // Kill the queue: stop accepting and refuse the triggering
            // copy. The kill record rides the same staged batch, after
            // the enqueues admitted before it.
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
            return None;
        }
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
        Some(Delivery {
            tag,
            exchange: exchange.clone(),
            payload: payload.clone(),
            redelivered: false,
            origin_nanos,
            enqueued_nanos: mono_nanos(),
        })
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

    /// Post-enqueue epilogue: completes a cap kill (sweep + wake everyone
    /// so parked consumers observe the decommission) or issues counted
    /// wakeups sized to the number of messages actually added.
    fn finish_enqueue(&self, parts: &[Partition], added: usize) {
        if self.is_decommissioned() {
            self.sweep_discard(parts);
            let _guard = self.idle.lock();
            self.idle_cv.notify_all();
        } else {
            self.wake_ready(added);
        }
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

    /// Parks until a message is ready, the queue is decommissioned, the
    /// wake epoch moves past `entry_epoch`, or the deadline passes.
    /// Returns `false` only on timeout (caller gives up), `true` when a
    /// rescan is warranted.
    fn park_until(&self, deadline: Instant, entry_epoch: u64) -> bool {
        let mut guard = self.idle.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let rescan = loop {
            if self.ready_total.load(Ordering::SeqCst) > 0
                || self.is_decommissioned()
                || self.wake_epoch.load(Ordering::SeqCst) != entry_epoch
            {
                break true;
            }
            if self.idle_cv.wait_until(&mut guard, deadline).timed_out() {
                break false;
            }
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        rescan
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
            let staged = self
                .stage_locked(
                    exchange,
                    payload,
                    origin_nanos,
                    hint,
                    0,
                    false,
                    &mut buf,
                    &mut frames,
                )
                .map_or_else(Vec::new, |d| vec![d]);
            let committed = self.commit_staged(&buf, frames);
            self.push_staged_locked(p, &mut inner, staged, committed)
        });
        self.finish_enqueue(&parts, added);
    }

    /// Enqueues a keyed batch, grouping payloads by destination partition
    /// so each touched partition's lock is taken exactly once, and
    /// applying the same per-copy admission policy as
    /// [`Queue::enqueue_routed`] (a mid-batch cap kill refuses the
    /// remainder, exactly as N individual publishes would). Within each
    /// partition the batch's relative payload order is preserved.
    /// Returns how many copies were admitted (refused/dropped copies are
    /// counted but not enqueued). `direct` marks direct-to-queue traffic
    /// (see [`Queue::stage_locked`]).
    pub(crate) fn enqueue_batch_routed(
        &self,
        exchange: &SharedStr,
        payloads: &[(SharedStr, u64, u64)],
        direct: bool,
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
            // commit-before-push and same-partition FIFO, exactly as
            // the per-run path did.
            let mut locked: Vec<(u32, _, Vec<Delivery>)> = Vec::new();
            let mut total_staged = 0usize;
            let mut i = 0usize;
            while i < order.len() {
                let pi = order[i].0;
                let p = &parts[pi as usize];
                let mut staged: Vec<Delivery> = Vec::new();
                let inner = p.inner.lock();
                while i < order.len() && order[i].0 == pi {
                    let (payload, origin, key) = &payloads[order[i].1 as usize];
                    if let Some(d) = self.stage_locked(
                        exchange,
                        payload,
                        *origin,
                        hint_of_key(*key),
                        total_staged,
                        direct,
                        &mut buf,
                        &mut frames,
                    ) {
                        staged.push(d);
                        total_staged += 1;
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
    /// partition's run stays FIFO; unkeyed traffic lives wholly in
    /// partition 0, so its global order is preserved). Returns empty on
    /// timeout, decommission, or a [`Queue::wake_all`] issued after the
    /// call began (shutdown).
    pub(crate) fn pop_batch(&self, max: usize, timeout: Duration) -> Vec<Delivery> {
        if max == 0 {
            return Vec::new();
        }
        let deadline = Instant::now() + timeout;
        let entry_epoch = self.wake_epoch.load(Ordering::SeqCst);
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
            if self.is_decommissioned() || self.wake_epoch.load(Ordering::SeqCst) != entry_epoch {
                return Vec::new();
            }
            if !self.park_until(deadline, entry_epoch) {
                return Vec::new();
            }
        }
    }

    /// Drains up to `max` deliveries from one partition. With a zero
    /// timeout this is a non-blocking poll (the work-stealing workers'
    /// home-partition scan); otherwise it parks on the queue condvar and
    /// re-polls its partition on every wake until the deadline.
    pub(crate) fn pop_batch_from(
        &self,
        partition: usize,
        max: usize,
        timeout: Duration,
    ) -> Vec<Delivery> {
        if max == 0 {
            return Vec::new();
        }
        let deadline = Instant::now() + timeout;
        let entry_epoch = self.wake_epoch.load(Ordering::SeqCst);
        loop {
            {
                let parts = self.partitions.read();
                let p = &parts[partition % parts.len()];
                if p.len.load(Ordering::Relaxed) > 0 {
                    let mut out = Vec::new();
                    let mut inner = p.inner.lock();
                    self.take_locked(p, &mut inner, max, &mut out);
                    if !out.is_empty() {
                        return out;
                    }
                }
            }
            if timeout.is_zero()
                || self.is_decommissioned()
                || self.wake_epoch.load(Ordering::SeqCst) != entry_epoch
                || !self.park_until(deadline, entry_epoch)
            {
                return Vec::new();
            }
        }
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

    /// Parks until the queue has ready deliveries, is decommissioned, or
    /// is woken/shut down — or until `timeout` passes. Returns `true`
    /// unless it timed out, i.e. `true` means "rescan now".
    pub(crate) fn wait_ready(&self, timeout: Duration) -> bool {
        if self.ready_total.load(Ordering::SeqCst) > 0 || self.is_decommissioned() {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let entry_epoch = self.wake_epoch.load(Ordering::SeqCst);
        self.park_until(deadline, entry_epoch)
    }

    /// Wakes every parked consumer; batch pops in progress return empty.
    /// Used by subscriber shutdown so workers notice the stop flag without
    /// waiting out their park timeout.
    pub(crate) fn wake_all(&self) {
        let _guard = self.idle.lock();
        self.wake_epoch.fetch_add(1, Ordering::SeqCst);
        self.idle_cv.notify_all();
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

    /// Resets a decommissioned queue to empty active state (the subscriber
    /// rejoining after its §4.4 recovery). The dead-letter store survives:
    /// it is an audit log, not backlog. Idempotent: an already-active queue
    /// is left untouched (its backlog is live traffic, not stale state) and
    /// `false` is returned. Armed `drop_next` faults belong to the
    /// decommissioned incarnation and are disarmed, so a reinstated queue
    /// cannot silently eat its first live messages.
    pub(crate) fn reinstate(&self) -> bool {
        let parts = self.partitions.read();
        if !self.is_decommissioned() {
            return false;
        }
        self.sweep_discard(&parts);
        self.drop_next.store(0, Ordering::SeqCst);
        self.counters.reinstated.fetch_add(1, Ordering::Relaxed);
        self.state.store(STATE_ACTIVE, Ordering::SeqCst);
        if let Some(binding) = &self.wal {
            binding.append_best_effort(&WalRecord::QueueReinstated {
                queue: binding.queue.clone(),
            });
        }
        true
    }

    /// Force-decommissions the queue, discarding its backlog, as if it had
    /// exceeded its cap (failure injection / operator action).
    pub(crate) fn force_decommission(&self) {
        let parts = self.partitions.read();
        self.state.store(STATE_DECOMMISSIONED, Ordering::SeqCst);
        self.sweep_discard(&parts);
        if let Some(binding) = &self.wal {
            binding.append_best_effort(&WalRecord::QueueKilled {
                queue: binding.queue.clone(),
            });
        }
        drop(parts);
        let _guard = self.idle.lock();
        self.idle_cv.notify_all();
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
        // is always drained. Concurrent enqueues blocked on *this*
        // queue's partitions simply wait their turn; enqueues to other
        // queues share the group commit with the checkpoint itself.
        let mut buf = Vec::with_capacity(256);
        frame_record_into(&mut buf, &record);
        binding.wal.commit_frames(&buf, 1)
    }
}

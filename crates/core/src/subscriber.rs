//! The subscriber: worker pools, delivery-semantics enforcement, and
//! replicated persistence.
//!
//! Each subscriber app owns one broker queue; its messages are "processed
//! in parallel by multiple subscriber workers" (§4). The queue is
//! partitioned (see the broker crate), and the workers form a
//! work-stealing pool over it: worker `i` of `N` owns the home partitions
//! `{p : p % N == i}` and drains them round-robin with non-blocking
//! `pop_batch_from` polls; when every home partition is empty it steals
//! half a victim partition's ready run (`steal_batch`, scan origin rotated
//! by worker index so concurrent thieves fan out), and only when the whole
//! queue is dry does it park on the queue's wake signal. Version-store
//! dependency updates and acks for each batch are grouped and flushed
//! together, so each touched version-store shard is locked once per batch
//! instead of once per key and only touched shards are notified. Stealing
//! never weakens delivery semantics: it is the same concurrency the pool
//! always had (two workers holding messages of one partition in flight),
//! and per-object ordering is enforced at apply time by the dependency
//! waits (causal/global) and the striped freshness check (weak). Per
//! message, a worker:
//!
//! 1. checks the publisher generation, running the global barrier of §4.4
//!    when it increases (drain in-flight messages, flush the version store);
//! 2. enforces the *effective* delivery mode — the weaker of the
//!    publisher's and the subscriber's (§3.2): causal/global wait on the
//!    version store until every dependency is satisfied; weak skips waiting
//!    and instead discards stale per-object versions;
//! 3. unmarshals each operation and persists it through the local ORM
//!    (running active-model callbacks), honouring renames, virtual-attribute
//!    setters, and observer (non-persisted) models;
//! 4. increments the version store for every dependency in the message and
//!    acks.
//!
//! The dependency wait honours `dep_wait_timeout`: `None` reproduces the
//! paper's strict causal mode (wait forever — the behaviour that deadlocked
//! Crowdtap's subscribers when messages were lost, §6.5); a finite value
//! implements the paper's recommended middle ground ("a mechanism to give
//! up on waiting for late (or lost) messages, with a configurable
//! timeout"). Weak mode behaves as timeout 0.

use crate::api::{Subscription, SubscriptionRegistry};
use crate::bootstrap::{parse_watermark, WatermarkGate, BOOTSTRAP_EXCHANGE, WATERMARK_EXCHANGE};
use crate::config::{RetryPolicy, SynapseConfig};
use crate::context;
use crate::deps::{writer_id, DepName, DepSpace};
use crate::message::{Operation, WriteMessage};
use crate::resolve::{ConflictCtx, Resolution, ResolverRegistry};
use crate::semantics::DeliveryMode;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use synapse_broker::{tag_hint, Broker, Consumer, Delivery};
use synapse_db::DbError;
use synapse_model::{Id, Record, Value};
use synapse_orm::{CallbackPoint, Orm, OrmError};
use synapse_telemetry::{mono_nanos, Counter, Telemetry};
use synapse_versionstore::{
    AdmitRule, DepKey, DepWaitSet, StoreError, VectorAdmit, VersionStore, VersionVector,
    WaitOutcome, LEGACY_WRITER,
};

/// Why one processing attempt failed — the classification that decides
/// between redelivery and the dead-letter store.
///
/// *Transient* failures (dead version store, db briefly unavailable,
/// worker stopping) are expected to succeed on a later attempt, so the
/// delivery is nacked back to the queue with backoff. *Poison* failures
/// (undecodable payload, schema violation, panicking callback) will fail
/// identically forever; redelivering them is the §6.5 wedge, so they go
/// to the dead-letter store after releasing their version-store deps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessError {
    /// Retryable: nack with backoff, bounded by the retry policy.
    Transient(String),
    /// Deterministic: dead-letter immediately.
    Poison(String),
}

impl std::fmt::Display for ProcessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessError::Transient(m) => write!(f, "transient: {m}"),
            ProcessError::Poison(m) => write!(f, "poison: {m}"),
        }
    }
}

/// Subscriber counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SubscriberStats {
    /// Messages fully processed and acked.
    pub messages_processed: u64,
    /// Operations applied to the local DB.
    pub ops_applied: u64,
    /// Operations discarded as stale (weak mode).
    pub ops_stale: u64,
    /// Dependency waits that timed out (processing proceeded anyway).
    pub dep_timeouts: u64,
    /// Messages that failed to decode or apply (transient or poison).
    pub errors: u64,
    /// Generation barriers executed.
    pub generation_flushes: u64,
    /// Transient failures that led to a backoff + nack.
    pub retries: u64,
    /// Deliveries popped with the broker's redelivered flag set.
    pub redeliveries: u64,
    /// Deliveries routed to the dead-letter store (poison + exhausted).
    pub dead_lettered: u64,
    /// Poison failures (undecodable, deterministic apply error, panic).
    pub poison_messages: u64,
    /// Transient failures that exhausted the retry policy.
    pub retries_exhausted: u64,
    /// Successful steals (an idle worker took a victim partition's run).
    pub steals: u64,
    /// Messages acquired through stealing.
    pub messages_stolen: u64,
    /// Bootstrap chunk-copy records admitted and persisted.
    pub copies_applied: u64,
    /// Bootstrap chunk-copy records discarded by version admission (the
    /// live stream had already applied an equal-or-newer write).
    pub copies_reconciled: u64,
    /// Watermark markers consumed and reported to the gate.
    pub watermarks_noted: u64,
    /// Concurrent (conflicting) incoming writes detected on bidirectional
    /// models.
    pub conflicts_detected: u64,
    /// Conflicts resolved by the default last-writer-wins policy.
    pub conflicts_resolved_lww: u64,
    /// Conflicts resolved by a registered merge resolver.
    pub conflicts_resolved_merge: u64,
    /// Incoming writes discarded because the local history dominated them.
    pub conflicts_discarded_dominated: u64,
}

/// Max deliveries a worker drains per condvar wakeup. Bounds the latency
/// cost of deferring acks while amortizing per-batch lock traffic.
const BATCH_MAX: usize = 32;

/// How long an idle worker parks on the queue condvar before re-checking
/// its stop flag. Shutdown does not wait this out: [`Subscriber::stop`]
/// wakes the queue explicitly.
const IDLE_PARK: Duration = Duration::from_millis(250);

/// What a delivery is, read from its exchange: bootstrap control traffic
/// rides the live queue on two reserved exchanges, everything else is a
/// publisher's live write. This is the only thing the message sequence
/// ([`Subscriber::handle_delivery`]) is parameterised by, besides the
/// caller's [`Lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A publisher's write message.
    Live,
    /// A bootstrap chunk-copy row, merged into the queue behind the live
    /// traffic for its object.
    Copy,
    /// A lo/hi watermark marker of the bootstrap copier (not a
    /// [`WriteMessage`]).
    Marker,
}

impl Kind {
    fn of(delivery: &Delivery) -> Kind {
        if delivery.exchange == WATERMARK_EXCHANGE {
            Kind::Marker
        } else if delivery.exchange == BOOTSTRAP_EXCHANGE {
            Kind::Copy
        } else {
            Kind::Live
        }
    }
}

/// Outcome of running one decoded delivery up to its ORM apply.
enum Processed {
    /// Applied; stage marks ready for the telemetry commit.
    Applied(DeliveryMode, StageMarks),
    /// Dependency wait stalled while other partitions hold ready work —
    /// the worker should hand the delivery back and drain them instead
    /// (the liveness the single-FIFO queue used to provide by ordering:
    /// an intra-app dependency was always popped before its dependent).
    Yielded,
}

/// Subscriber-side stage durations for one successfully applied message,
/// committed to the telemetry plane together with the end-to-end latency
/// only once the apply succeeded (failed attempts record nothing, so per
/// mode the stage counts always equal the delivered count).
#[derive(Debug, Default, Clone, Copy)]
struct StageMarks {
    dep_wait_nanos: u64,
    apply_nanos: u64,
}

/// What the caller of [`Subscriber::handle_delivery`] supplies: where
/// applied deliveries settle, and what a blocking point does first.
///
/// A worker's lane stages deliveries whose ORM apply succeeded and defers
/// their version-store apply and ack to the flush point, so each touched
/// shard is locked (and notified) once per batch instead of once per
/// message; before blocking it lands that batch and steps outside the
/// generation barrier, and it yields a stalled dependency wait to ready
/// work elsewhere. [`Subscriber::process`] runs a lane with no consumer: a
/// batch of one, flushed as soon as it is staged, that is never acked,
/// nacked or yielded.
struct Lane<'a> {
    /// The worker's queue handle (`None` under [`Subscriber::process`]).
    consumer: Option<&'a Consumer>,
    /// Partition count of the app's queue (maps a tag to its partition).
    partitions: usize,
    /// Staged deliveries and the dependency keys their flush applies.
    tags: Vec<u64>,
    dep_keys: Vec<DepKey>,
    /// In-flight marker: the generation barrier (and drain) must never
    /// observe the gap between a message's ORM apply and its deferred
    /// version-store apply + ack, so the read guard spans processing
    /// *and* the flush.
    in_flight: Option<RwLockReadGuard<'a, ()>>,
}

impl<'a> Lane<'a> {
    fn new(consumer: Option<&'a Consumer>, partitions: usize) -> Self {
        Lane {
            consumer,
            partitions: partitions.max(1),
            tags: Vec::new(),
            dep_keys: Vec::new(),
            in_flight: None,
        }
    }

    fn partition_of(&self, tag: u64) -> usize {
        tag_hint(tag) as usize % self.partitions
    }
}

#[derive(Default)]
struct Counters {
    messages_processed: AtomicU64,
    ops_applied: AtomicU64,
    ops_stale: AtomicU64,
    dep_timeouts: AtomicU64,
    errors: AtomicU64,
    generation_flushes: AtomicU64,
    retries: AtomicU64,
    redeliveries: AtomicU64,
    dead_lettered: AtomicU64,
    poison_messages: AtomicU64,
    retries_exhausted: AtomicU64,
    steals: AtomicU64,
    messages_stolen: AtomicU64,
    copies_applied: AtomicU64,
    copies_reconciled: AtomicU64,
    watermarks_noted: AtomicU64,
}

/// Conflict counters of the multi-writer plane. These live in the node's
/// telemetry [`CounterRegistry`](synapse_telemetry::CounterRegistry) (so
/// they fold into `telemetry_snapshot()` like every other named counter);
/// the handles here are the subscriber's lock-free bump path.
struct ConflictCounters {
    detected: Counter,
    resolved_lww: Counter,
    resolved_merge: Counter,
    discarded_dominated: Counter,
}

impl ConflictCounters {
    fn new(telemetry: &Telemetry) -> Self {
        let counters = telemetry.counters();
        ConflictCounters {
            detected: counters.counter("conflicts.detected"),
            resolved_lww: counters.counter("conflicts.resolved_lww"),
            resolved_merge: counters.counter("conflicts.resolved_merge"),
            discarded_dominated: counters.counter("conflicts.discarded_dominated"),
        }
    }
}

/// `w<i>-` and the tail of the app's name, within the 15 bytes Linux keeps
/// of a thread name — so `/proc/<pid>/task/*/comm` beside `schedstat`,
/// `top -H` and a panic message say which subscriber a thread serves.
fn worker_thread_name(app: &str, i: usize) -> String {
    let mut name = format!("w{i}-");
    let mut tail = app.len().saturating_sub(15usize.saturating_sub(name.len()));
    while !app.is_char_boundary(tail) {
        tail += 1;
    }
    name.push_str(&app[tail..]);
    name
}

/// The subscriber runtime for one service. See the module docs.
pub struct Subscriber {
    app: String,
    orm: Arc<Orm>,
    store: Arc<VersionStore>,
    dep_space: DepSpace,
    subscriber_mode: DeliveryMode,
    dep_wait_timeout: Option<Duration>,
    subscriptions: SubscriptionRegistry,
    /// Publisher app → the delivery mode that publisher supports.
    publisher_modes: Arc<RwLock<HashMap<String, DeliveryMode>>>,
    broker: Broker,
    /// Last seen generation per publisher app.
    generations: Mutex<HashMap<String, u64>>,
    /// Readers = in-flight messages; the generation barrier takes the
    /// write side to drain them (§4.4).
    gen_barrier: RwLock<()>,
    stop: Arc<AtomicBool>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    counters: Counters,
    /// Conflict counters (handles into the telemetry registry).
    conflicts: ConflictCounters,
    /// Per-model conflict resolvers for bidirectional subscriptions.
    resolvers: ResolverRegistry,
    retry: RetryPolicy,
    /// Transient-failure attempts per in-flight delivery tag; cleared on
    /// ack or dead-letter. Redeliveries keep their tag, so this survives
    /// nack round-trips.
    attempts: Mutex<HashMap<u64, u32>>,
    /// The node's telemetry plane; subscriber-side stages and end-to-end
    /// visibility latency are committed here on successful applies.
    telemetry: Arc<Telemetry>,
    /// The DBLog-style reconciliation window shared with the bootstrap
    /// copier: workers report consumed watermark markers and in-window
    /// applies here; the copier pre-filters chunk rows against the keys
    /// collected. Inactive (one relaxed load per delivery) outside
    /// bootstrap sessions.
    gate: Arc<WatermarkGate>,
}

impl Subscriber {
    /// Creates a subscriber runtime (workers start separately).
    pub fn new(
        config: &SynapseConfig,
        orm: Arc<Orm>,
        store: Arc<VersionStore>,
        subscriptions: SubscriptionRegistry,
        publisher_modes: Arc<RwLock<HashMap<String, DeliveryMode>>>,
        broker: Broker,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        Subscriber {
            app: config.app.clone(),
            orm,
            store,
            dep_space: config.dep_space,
            subscriber_mode: config.subscriber_mode,
            dep_wait_timeout: config.dep_wait_timeout,
            subscriptions,
            publisher_modes,
            broker,
            generations: Mutex::new(HashMap::new()),
            gen_barrier: RwLock::new(()),
            stop: Arc::new(AtomicBool::new(false)),
            workers: Mutex::new(Vec::new()),
            counters: Counters::default(),
            conflicts: ConflictCounters::new(&telemetry),
            resolvers: config.resolvers.clone(),
            retry: config.retry,
            attempts: Mutex::new(HashMap::new()),
            telemetry,
            gate: Arc::new(WatermarkGate::new()),
        }
    }

    /// The watermark gate shared with the node's bootstrap copier.
    pub fn watermark_gate(&self) -> &Arc<WatermarkGate> {
        &self.gate
    }

    /// Whether any worker threads are currently running. The bootstrap
    /// copier checks this to decide between merging markers and copies
    /// into the queue (workers consume them) and handing each copy to
    /// [`Subscriber::process`] itself (no one would ever drain the queue).
    pub fn workers_running(&self) -> bool {
        !self.workers.lock().is_empty()
    }

    /// Current counters.
    pub fn stats(&self) -> SubscriberStats {
        SubscriberStats {
            messages_processed: self.counters.messages_processed.load(Ordering::Relaxed),
            ops_applied: self.counters.ops_applied.load(Ordering::Relaxed),
            ops_stale: self.counters.ops_stale.load(Ordering::Relaxed),
            dep_timeouts: self.counters.dep_timeouts.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            generation_flushes: self.counters.generation_flushes.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
            redeliveries: self.counters.redeliveries.load(Ordering::Relaxed),
            dead_lettered: self.counters.dead_lettered.load(Ordering::Relaxed),
            poison_messages: self.counters.poison_messages.load(Ordering::Relaxed),
            retries_exhausted: self.counters.retries_exhausted.load(Ordering::Relaxed),
            steals: self.counters.steals.load(Ordering::Relaxed),
            messages_stolen: self.counters.messages_stolen.load(Ordering::Relaxed),
            copies_applied: self.counters.copies_applied.load(Ordering::Relaxed),
            copies_reconciled: self.counters.copies_reconciled.load(Ordering::Relaxed),
            watermarks_noted: self.counters.watermarks_noted.load(Ordering::Relaxed),
            conflicts_detected: self.conflicts.detected.get(),
            conflicts_resolved_lww: self.conflicts.resolved_lww.get(),
            conflicts_resolved_merge: self.conflicts.resolved_merge.get(),
            conflicts_discarded_dominated: self.conflicts.discarded_dominated.get(),
        }
    }

    /// Spawns `n` worker threads consuming the app's queue.
    pub fn start(self: &Arc<Self>, n: usize) {
        let consumer = match self.broker.consumer(&self.app) {
            Some(c) => c,
            None => return,
        };
        let mut workers = self.workers.lock();
        for i in 0..n {
            let sub = Arc::clone(self);
            let consumer = consumer.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(worker_thread_name(&self.app, i))
                    .spawn(move || sub.worker_loop(consumer, i, n))
                    .expect("spawn subscriber worker"),
            );
        }
    }

    /// Signals workers to stop and joins them.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unpark workers waiting in `pop_batch` so they observe the flag
        // immediately instead of waiting out their park timeout.
        self.broker.wake_queue(&self.app);
        let mut workers = self.workers.lock();
        for w in workers.drain(..) {
            let _ = w.join();
        }
        self.stop.store(false, Ordering::SeqCst);
    }

    /// Blocks until the queue is fully settled (a test/ops helper, *not* a
    /// bootstrap phase — the watermark-interleaved bootstrap never stops
    /// live delivery): no ready backlog, no popped-but-unacked deliveries,
    /// and no in-flight batch (the write side of the barrier is free only
    /// when every popped delivery has been flushed). Event-driven: parks
    /// on the queue's quiescence condvar, which acks and dead-letters
    /// notify, instead of polling.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let Some(consumer) = self.broker.consumer(&self.app) else {
            return false;
        };
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if !consumer.wait_quiescent(remaining) {
                return false;
            }
            // Quiescent queue + free write barrier = every popped delivery
            // is flushed. Re-check quiescence under the barrier: a worker
            // may have popped new work between the wait and the lock.
            let _barrier = self.gen_barrier.write();
            if self.queue_quiescent() {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
        }
    }

    /// No backlog and nothing popped-but-unresolved.
    fn queue_quiescent(&self) -> bool {
        self.broker.queue_len(&self.app) == Some(0)
            && self.broker.queue_unacked_len(&self.app) == Some(0)
    }

    /// Acquires the next batch for worker `worker` of `total`: drain home
    /// partitions round-robin (non-blocking), then steal from a victim
    /// partition, then park on the queue's wake signal. `cursor` rotates
    /// the home scan origin across calls so one hot home partition cannot
    /// starve its siblings between wakeups.
    fn next_batch(
        &self,
        consumer: &Consumer,
        worker: usize,
        total: usize,
        cursor: &mut usize,
    ) -> Vec<Delivery> {
        let parts = consumer.partition_count();
        // Home scan: partitions {p : p % total == worker}.
        let home: Vec<usize> = (0..parts).filter(|p| p % total == worker).collect();
        if !home.is_empty() {
            for i in 0..home.len() {
                let p = home[(*cursor + i) % home.len()];
                let batch = consumer.pop_batch_from(p, BATCH_MAX, Duration::ZERO);
                if !batch.is_empty() {
                    *cursor = (*cursor + i + 1) % home.len();
                    return batch;
                }
            }
        }
        // Steal scan: every other partition, origin rotated by worker
        // index so concurrent thieves start on different victims.
        for i in 0..parts {
            let p = (worker + 1 + i) % parts;
            if p % total == worker {
                continue;
            }
            let batch = consumer.steal_batch(p, BATCH_MAX);
            if !batch.is_empty() {
                self.counters.steals.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .messages_stolen
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                return batch;
            }
        }
        // Queue-wide dry: park until a publish (or shutdown wake) arrives,
        // then let the caller re-scan.
        consumer.wait_ready(IDLE_PARK);
        Vec::new()
    }

    fn worker_loop(&self, consumer: Consumer, worker: usize, total: usize) {
        let mut lane = Lane::new(Some(&consumer), consumer.partition_count());
        let mut cursor = 0usize;
        while !self.stop.load(Ordering::SeqCst) {
            let batch = self.next_batch(&consumer, worker, total.max(1), &mut cursor);
            let popped_nanos = mono_nanos();
            if batch.is_empty() {
                // Timed out, woken for shutdown, or decommissioned. A
                // decommissioned queue stays quiet until the node performs
                // a partial bootstrap and reinstates it.
                if consumer.is_decommissioned() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                continue;
            }
            lane.in_flight = Some(self.gen_barrier.read());
            for (i, delivery) in batch.iter().enumerate() {
                // A failed delivery is already settled when it comes back,
                // so the only outcome that interrupts the batch is a
                // yielded wait.
                let interrupted = self.stop.load(Ordering::SeqCst)
                    || matches!(
                        self.handle_delivery(delivery, popped_nanos, &mut lane),
                        Ok(false)
                    );
                if interrupted {
                    // Shutting down, or the dependency wait yielded: land
                    // finished work and hand the unprocessed tail back
                    // without charging attempts (reverse nack restores the
                    // partition's original front order). After a yield the
                    // rescan matters — ready work elsewhere may be the very
                    // messages this tail is waiting on.
                    self.flush_pending(&mut lane);
                    for rest in batch[i..].iter().rev() {
                        consumer.nack(rest.tag);
                    }
                    break;
                }
            }
            self.flush_pending(&mut lane);
            lane.in_flight = None;
        }
    }

    /// Processes one delivery outside the worker pool — a batch of one
    /// through the workers' own sequence ([`Subscriber::handle_delivery`]),
    /// on a lane with no consumer: the dependency wait never yields, the
    /// version-store apply happens immediately, and nothing is acked —
    /// a failure is handed back for the caller to retry or drop.
    pub fn process(&self, delivery: &Delivery) -> Result<(), String> {
        self.process_one(delivery).map_err(|e| e.to_string())
    }

    /// [`Subscriber::process`] with the failure still classified, for the
    /// bootstrap copier on a node without workers.
    pub(crate) fn process_one(&self, delivery: &Delivery) -> Result<(), ProcessError> {
        let partitions = self.broker.queue_partitions(&self.app).unwrap_or(1);
        let mut lane = Lane::new(None, partitions);
        lane.in_flight = Some(self.gen_barrier.read());
        self.handle_delivery(delivery, mono_nanos(), &mut lane)?;
        if self.flush_pending(&mut lane) {
            Ok(())
        } else {
            Err(ProcessError::Transient(StoreError::Dead.to_string()))
        }
    }

    /// The one message sequence — decode, generation gate, dependency
    /// wait, admission + ORM apply, settle — that every delivery takes,
    /// whatever its [`Kind`] and whoever's [`Lane`] it runs on. Success
    /// stages the delivery on the lane. A failure is returned classified;
    /// on a worker lane it has by then been settled against the queue
    /// ([`Subscriber::fail`]), on a consumer-less lane the caller owns it.
    /// `Ok(false)` means the dependency wait yielded — the caller must
    /// hand the rest of the batch back and rescan.
    fn handle_delivery<'a>(
        &'a self,
        delivery: &Delivery,
        popped_nanos: u64,
        lane: &mut Lane<'a>,
    ) -> Result<bool, ProcessError> {
        if delivery.redelivered {
            self.counters.redeliveries.fetch_add(1, Ordering::Relaxed);
        }
        let kind = Kind::of(delivery);
        if kind == Kind::Marker {
            // Ack, then report the marker to the gate (which ignores
            // markers of stale sessions/chunks, e.g. crash redeliveries of
            // an abandoned attempt) — in that order, so a window the
            // copier sees closed has no marker of its own still in flight.
            // Markers carry no dependencies and no origin stamp, so they
            // bypass the staged batch and the latency histograms entirely.
            if let Some(consumer) = lane.consumer {
                consumer.ack(delivery.tag);
            }
            if let Some((session, chunk, high)) = parse_watermark(&delivery.payload) {
                self.gate
                    .note_marker(session, chunk, lane.partition_of(delivery.tag), high);
                self.counters
                    .watermarks_noted
                    .fetch_add(1, Ordering::Relaxed);
            }
            return Ok(true);
        }
        let handle_nanos = mono_nanos();
        let decoded = WriteMessage::decode(&delivery.payload)
            .map_err(|e| ProcessError::Poison(format!("undecodable payload: {e}")));
        let outcome = decoded.as_ref().map_err(Clone::clone).and_then(|msg| {
            self.process_decoded(msg, kind, delivery.tag, lane)
                .map(|processed| (processed, msg))
        });
        match outcome {
            Ok((Processed::Yielded, _)) => Ok(false),
            Ok((Processed::Applied(mode, marks), msg)) => {
                lane.tags.push(delivery.tag);
                if kind == Kind::Live {
                    // Copies settle with *no* dependency keys: they do not
                    // correspond to publisher bump operations (step 1's
                    // version snapshot already carried their `ops`), so
                    // landing them must not advance the subscriber's
                    // dependency counters — nor are they live writes for
                    // the copier's window to defer to.
                    lane.dep_keys.extend(msg.dep_keys());
                    self.note_live_apply(lane.partition_of(delivery.tag), msg);
                }
                self.record_visible(delivery, mode, popped_nanos, handle_nanos, marks);
                Ok(true)
            }
            Err(e) => {
                if let Some(consumer) = lane.consumer {
                    self.fail(consumer, delivery, kind, &e, decoded.as_ref().ok(), lane);
                }
                Err(e)
            }
        }
    }

    /// One decoded delivery up to its ORM apply. Blocking points
    /// (generation barrier, dependency wait) first land the lane's staged
    /// batch — messages earlier in the batch may be exactly what a
    /// dependency wait needs, and the barrier must see them fully applied.
    fn process_decoded<'a>(
        &'a self,
        msg: &WriteMessage,
        kind: Kind,
        tag: u64,
        lane: &mut Lane<'a>,
    ) -> Result<Processed, ProcessError> {
        let mut marks = StageMarks::default();
        // (A copy carries generation 1 and so never trips the gate.)
        if self.generation_pending(msg) {
            // The gate write-waits on in-flight readers: land our own
            // staged work and step outside the barrier before taking it.
            self.flush_pending(lane);
            lane.in_flight = None;
            let gate = self.generation_gate(msg);
            lane.in_flight = Some(self.gen_barrier.read());
            gate.map_err(ProcessError::Transient)?;
        }
        let mode = match kind {
            // A copy's dependency map holds its admission marker, not
            // publisher bumps to wait for: it runs as a weak delivery.
            Kind::Copy => DeliveryMode::Weak,
            _ => self.effective_mode(&msg.app),
        };
        if matches!(mode, DeliveryMode::Causal | DeliveryMode::Global) {
            let deps = self.filtered_wait_set(msg, mode);
            if !lane.tags.is_empty() && !matches!(self.store.satisfied_prepared(&deps), Ok(true)) {
                self.flush_pending(lane);
            }
            let wait_start = mono_nanos();
            let ready = self.wait_deps(&deps, tag, lane);
            if !ready.map_err(ProcessError::Transient)? {
                return Ok(Processed::Yielded);
            }
            marks.dep_wait_nanos = mono_nanos().saturating_sub(wait_start);
        }
        let apply_start = mono_nanos();
        self.apply_message(msg, kind, mode)?;
        marks.apply_nanos = mono_nanos().saturating_sub(apply_start);
        Ok(Processed::Applied(mode, marks))
    }

    /// Waits for a prepared dependency set on the version store, in short
    /// slices so the stop flag stays responsive; an overall deadline
    /// implements the configurable give-up of §6.5 (`None` = the paper's
    /// strict causal mode: wait forever).
    ///
    /// On a worker lane the wait yields whenever a slice times out while
    /// *other partitions* hold ready deliveries: with a partitioned queue,
    /// the message that satisfies this dependency may be sitting ready in
    /// a partition nobody has reached yet, and blocking every worker on
    /// such inversions is a livelock (the pre-partitioning queue never had
    /// this case — its single FIFO popped intra-app dependencies before
    /// their dependents). When nothing is ready elsewhere — and always on
    /// a consumer-less lane — the wait is the classic blocking loop,
    /// preserving wait-forever semantics for genuinely lost dependencies
    /// (`dep_wait_timeout: None`, §6.5). `Ok(true)`: satisfied, or given up
    /// per the timeout policy; `Ok(false)`: yielded.
    fn wait_deps(&self, deps: &DepWaitSet, tag: u64, lane: &Lane<'_>) -> Result<bool, String> {
        let deadline = self.dep_wait_timeout.map(|t| std::time::Instant::now() + t);
        // The first slice is short: if the dependency is mid-apply on
        // another worker the store wakes us in microseconds either way,
        // but if it is sitting unpopped in another partition, every
        // millisecond spent here is pure added visibility latency before
        // the yield below lets a worker go find it.
        let mut slice = Duration::from_millis(1);
        loop {
            match self.store.wait_prepared(deps, slice) {
                Ok(WaitOutcome::Ready) => return Ok(true),
                Ok(WaitOutcome::TimedOut) => {
                    if self.stop.load(Ordering::SeqCst) {
                        return Err("stopped while waiting for dependencies".into());
                    }
                    if let Some(d) = deadline {
                        if std::time::Instant::now() >= d {
                            self.counters.dep_timeouts.fetch_add(1, Ordering::Relaxed);
                            return Ok(true); // give up and process (§6.5)
                        }
                    }
                    if lane.consumer.is_some_and(|c| c.ready_elsewhere(tag)) {
                        return Ok(false);
                    }
                    // Nothing ready anywhere else: settle into the classic
                    // blocking cadence (wait-forever semantics, §6.5).
                    slice = Duration::from_millis(10);
                }
                Err(StoreError::Dead) => {
                    return Err("subscriber version store died".into());
                }
            }
        }
    }

    /// Commits the staged breakdown and end-to-end visibility latency for
    /// one successfully applied delivery. Unstamped deliveries (payload
    /// emulation, bootstrap copies) carry `origin_nanos == 0` and are
    /// skipped, so the histograms only ever hold real publish→visible
    /// windows.
    fn record_visible(
        &self,
        delivery: &Delivery,
        mode: DeliveryMode,
        popped_nanos: u64,
        handle_nanos: u64,
        marks: StageMarks,
    ) {
        if delivery.origin_nanos == 0 {
            return;
        }
        let visible = mono_nanos();
        self.telemetry.record_visible(
            mode.slice(),
            popped_nanos.saturating_sub(delivery.enqueued_nanos),
            handle_nanos.saturating_sub(popped_nanos),
            marks.dep_wait_nanos,
            marks.apply_nanos,
            visible.saturating_sub(delivery.origin_nanos),
        );
    }

    /// Lands the lane's staged batch: one grouped version-store apply
    /// (each touched shard locked and notified once for the whole batch),
    /// then one batched ack. Returns whether the apply landed. The version
    /// store advances only here, after successful application: a transient
    /// failure must leave versions untouched so the redelivery reprocesses
    /// from scratch (applies are idempotent upserts); dep release for
    /// dead-lettered messages happens exactly once, in
    /// [`Subscriber::dead_letter`]. `messages_processed` counts only live
    /// acks — a broker restart between pop and flush requeues the tag and
    /// voids the ack, and that copy is counted when its redelivery's ack
    /// lands — so the counter never double-counts a delivery.
    fn flush_pending(&self, lane: &mut Lane<'_>) -> bool {
        if lane.tags.is_empty() {
            return true;
        }
        let landed = self.store.apply(&lane.dep_keys).is_ok();
        if let Some(consumer) = lane.consumer {
            if landed {
                let acked = consumer.ack_batch(&lane.tags);
                self.counters
                    .messages_processed
                    .fetch_add(acked, Ordering::Relaxed);
                let mut attempts = self.attempts.lock();
                for tag in &lane.tags {
                    attempts.remove(tag);
                }
            } else {
                // Transient store failure: requeue the whole batch without
                // charging attempts — ORM applies are idempotent upserts,
                // so redelivery reprocesses safely once the store heals.
                for tag in &lane.tags {
                    consumer.nack(*tag);
                }
            }
        }
        lane.tags.clear();
        lane.dep_keys.clear();
        landed
    }

    /// The one failure exit. *Poison* failures dead-letter at once:
    /// redelivering them would wedge the queue (§6.5). *Transient*
    /// failures charge an attempt, back off and nack; a live message that
    /// exhausts the retry policy is dead-lettered with its dependencies
    /// released, while a chunk copy never is — see the branch. (A lane with
    /// no consumer has no queue to settle against and never gets here: its
    /// error goes back to the caller of [`Subscriber::process`] untouched.)
    fn fail<'a>(
        &'a self,
        consumer: &Consumer,
        delivery: &Delivery,
        kind: Kind,
        error: &ProcessError,
        msg: Option<&WriteMessage>,
        lane: &mut Lane<'a>,
    ) {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        // Only a live message's dependency keys are publisher bumps to
        // release; a copy's hold its admission marker.
        let release = msg.filter(|_| kind == Kind::Live);
        if matches!(error, ProcessError::Poison(_)) {
            self.counters
                .poison_messages
                .fetch_add(1, Ordering::Relaxed);
            self.dead_letter(consumer, delivery.tag, release);
            return;
        }
        if self.stop.load(Ordering::SeqCst) {
            // Shutting down: requeue without charging an attempt, so
            // restarts never push an innocent message toward the
            // dead-letter store.
            consumer.nack(delivery.tag);
            return;
        }
        let attempts = {
            let mut map = self.attempts.lock();
            let entry = map.entry(delivery.tag).or_insert(0);
            *entry += 1;
            *entry
        };
        if !self.retry.exhausted(attempts) {
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters
                .retries_exhausted
                .fetch_add(1, Ordering::Relaxed);
            if kind == Kind::Live {
                self.dead_letter(consumer, delivery.tag, release);
                return;
            }
            // A transiently-failing chunk copy never dead-letters: it is
            // an idempotent, admission-guarded upsert whose silent loss
            // would break the coverage contract of the copy watermark it
            // rode behind (resume assumes every merged copy eventually
            // lands or is refused). Reset the budget and keep redelivering
            // — the loop ends when the store or engine heals, typically at
            // the next bootstrap attempt's revive; admission re-checks on
            // every redelivery, so a copy that lost to the live stream in
            // the meantime is discarded, not re-applied. Undecodable
            // copies still dead-letter through the poison arm above.
            self.attempts.lock().remove(&delivery.tag);
        }
        // Land finished work and release the in-flight marker before
        // sleeping: a backoff must not hold up a generation barrier or
        // drain.
        self.flush_pending(lane);
        lane.in_flight = None;
        std::thread::sleep(self.retry.backoff(attempts));
        consumer.nack(delivery.tag);
        lane.in_flight = Some(self.gen_barrier.read());
    }

    /// Routes one delivery to the dead-letter store, releasing its
    /// version-store dependencies first so downstream messages don't
    /// deadlock on a message that will never be applied. Undecodable
    /// payloads cannot release anything — under strict causal mode that
    /// residue is exactly the paper's §6.5 wedge, and the way out remains
    /// decommission + partial bootstrap.
    fn dead_letter(&self, consumer: &Consumer, tag: u64, msg: Option<&WriteMessage>) {
        // A broker restart between pop and this call requeues the tag; the
        // dead-letter is then void and the redelivery takes the full path
        // again, so only a live dead-letter releases deps and counts.
        if !consumer.dead_letter(tag) {
            return;
        }
        if let Some(msg) = msg {
            let _ = self.store.apply(&msg.dep_keys());
        }
        self.attempts.lock().remove(&tag);
        self.counters.dead_lettered.fetch_add(1, Ordering::Relaxed);
    }

    /// Reports a live message's written-object keys to the watermark gate
    /// when a reconciliation window is open on this delivery's partition.
    /// Only *written* objects count: the copier drops chunk rows for
    /// touched keys in favor of the live write's payload, so a key that
    /// was merely read must not suppress its copy.
    fn note_live_apply(&self, partition: usize, msg: &WriteMessage) {
        if !self.gate.is_active() {
            return;
        }
        let keys: Vec<DepKey> = msg
            .operations
            .iter()
            .map(|op| {
                self.dep_space
                    .key(&DepName::object(&msg.app, op.model(), op.id))
            })
            .collect();
        self.gate.note_applied(partition, &keys);
    }

    /// Applies a decoded message's operations through the local ORM.
    ///
    /// Application runs inside its own causal scope (like a background
    /// job, §4.2) so that reads made by decorator callbacks become
    /// external dependencies of anything those callbacks publish. A
    /// panicking subscription callback is caught and treated as poison:
    /// it would panic identically on every redelivery.
    fn apply_message(
        &self,
        msg: &WriteMessage,
        kind: Kind,
        mode: DeliveryMode,
    ) -> Result<(), ProcessError> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            context::with_scope(|| {
                context::with_replication_flag(|| {
                    for op in &msg.operations {
                        self.apply_op(msg, op, kind, mode)?;
                    }
                    Ok::<(), OrmError>(())
                })
            })
            .0
        }));
        match outcome {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(classify_apply_error(e)),
            Err(panic) => Err(ProcessError::Poison(format!(
                "subscription callback panicked: {}",
                panic_message(panic.as_ref())
            ))),
        }
    }

    /// The effective delivery mode for messages from `pub_app` (§3.2).
    pub fn effective_mode(&self, pub_app: &str) -> DeliveryMode {
        let publisher = self
            .publisher_modes
            .read()
            .get(pub_app)
            .copied()
            .unwrap_or(DeliveryMode::Causal);
        DeliveryMode::effective(publisher, self.subscriber_mode)
    }

    /// Whether `msg` carries a generation newer than the last one seen
    /// from its app (the caller's check before it steps outside the barrier
    /// for [`Subscriber::generation_gate`]).
    fn generation_pending(&self, msg: &WriteMessage) -> bool {
        let gens = self.generations.lock();
        msg.generation > gens.get(&msg.app).copied().unwrap_or(1)
    }

    /// §4.4's generation barrier: when a message carries a newer generation,
    /// wait for in-flight messages, flush the version store, advance.
    fn generation_gate(&self, msg: &WriteMessage) -> Result<(), String> {
        let _drain = self.gen_barrier.write();
        let mut gens = self.generations.lock();
        let current = gens.entry(msg.app.clone()).or_insert(1);
        if msg.generation > *current {
            *current = msg.generation;
            self.store.flush().map_err(|e| e.to_string())?;
            self.counters
                .generation_flushes
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The message's dependencies, filtered per the effective mode (a
    /// causal subscriber of a global publisher ignores the global
    /// dependency, §4.2) and routed once into a shard-grouped wait set —
    /// every re-check during the wait loop reuses the routing.
    fn filtered_wait_set(&self, msg: &WriteMessage, mode: DeliveryMode) -> DepWaitSet {
        let mut deps = msg.dep_list();
        if mode == DeliveryMode::Causal {
            let global_key = self.dep_space.key(&DepName::global(&msg.app));
            deps.retain(|(k, _)| *k != global_key);
        }
        let mut set = DepWaitSet::default();
        self.store.prepare_wait(&deps, &mut set);
        set
    }

    /// Applies one operation through the local ORM, unless version
    /// admission discards it: a live write that is stale (counted in
    /// `ops_stale`), or a chunk copy the live stream already matched or
    /// beat (`copies_reconciled`).
    fn apply_op(
        &self,
        msg: &WriteMessage,
        op: &Operation,
        kind: Kind,
        mode: DeliveryMode,
    ) -> Result<(), OrmError> {
        let matching: Vec<Arc<Subscription>> = {
            let subs = self.subscriptions.read();
            subs.iter()
                .filter(|s| s.from == msg.app && op.types.iter().any(|t| t == &s.model))
                .cloned()
                .collect()
        };
        if matching.is_empty() {
            return Ok(());
        }
        // Freshness: update objects only to their latest version (§4.2),
        // discarding out-of-order intermediate updates. Weak mode depends
        // on this for correctness; causal and global modes record versions
        // too so that bootstrap's chunked copy — which reconciles against
        // the live stream by version comparison — can never regress a row
        // a live message already moved past the chunk's snapshot. In the
        // ordered modes the dependency wait already serializes live
        // applies, so the check only ever discards a copy/redelivery that
        // lost the race.
        let key = self
            .dep_space
            .key(&DepName::object(&msg.app, op.model(), op.id));
        // Multi-writer models track their version vectors under the
        // writer-independent mesh key, so every writer's history of the
        // object lands on one entry.
        let mesh_key = matching.iter().any(|s| s.bidirectional).then(|| {
            self.dep_space
                .key(&crate::deps::mesh_object(op.model(), op.id))
        });
        // The version this operation carries and the store entry it is
        // judged against. A multi-writer write (or copy — it carries the
        // publisher's full vector, since a scalar marker on the legacy
        // floor could wrongly dominate a remote writer's component) is
        // classified by version-vector dominance under the mesh key. In
        // weak mode this runs at raw apply time; in causal/global mode the
        // dep wait has already completed, so the local row is causally
        // complete when the resolver sees the pair. Everything else — a
        // bidirectional subscription fed by a pre-vector publisher (no
        // vector on the wire) included — carries the scalar of its object
        // dependency, which rides the vector's legacy component.
        let writer = writer_id(&msg.app);
        let mesh_vector = mesh_key.and_then(|mesh| Some((mesh, msg.vector_for(mesh, writer)?)));
        let multi_writer = mesh_vector.is_some();
        let (at, carried) = match mesh_vector {
            Some((mesh, vector)) => (mesh, Some((vector, writer))),
            None => (
                key,
                match mode {
                    DeliveryMode::Weak => Some(msg.dependencies.get(&key).copied().unwrap_or(0)),
                    // Ordered modes only check when the message actually
                    // carries the object's dependency (a mismatched dep
                    // space on the publisher must not silently drop writes).
                    DeliveryMode::Causal | DeliveryMode::Global => {
                        msg.dependencies.get(&key).copied()
                    }
                }
                .map(|version| (VersionVector::scalar(version), LEGACY_WRITER)),
            ),
        };
        let (rule, applied, discarded) = match kind {
            Kind::Copy => (
                AdmitRule::Copy,
                &self.counters.copies_applied,
                &self.counters.copies_reconciled,
            ),
            _ => (
                AdmitRule::Live,
                &self.counters.ops_applied,
                &self.counters.ops_stale,
            ),
        };
        let write = || {
            matching
                .iter()
                .try_for_each(|sub| self.apply_subscription(sub, op))?;
            applied.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        // A dead store is transient (revival or bootstrap heals it);
        // surface it as the transient db error class.
        let dead = |_| OrmError::Db(DbError::Unavailable);
        // Reserve the object for the verdict *and* the ORM writes. Without
        // it, a copier thread and a worker (or a thief and the home worker)
        // can interleave check/apply so that the thread carrying the
        // *older* version writes the row last: both pass the check before
        // either applies. The reservation serializes exactly the racing
        // pair; the version counts as stored only at `commit`, so a write
        // that fails below leaves nothing behind and its redelivery is
        // judged afresh.
        let admission = self.store.reserve(at);
        let Some((vector, writer)) = &carried else {
            return write();
        };
        match admission.classify(vector, *writer, rule).map_err(dead)? {
            VectorAdmit::Fresh => write()?,
            VectorAdmit::Concurrent { lww_wins } if multi_writer => {
                self.resolve_conflict(op, &matching, vector, *writer, lww_wins)?
            }
            _ => {
                discarded.fetch_add(1, Ordering::Relaxed);
                if multi_writer && kind == Kind::Live {
                    self.conflicts.discarded_dominated.bump();
                }
                return Ok(());
            }
        }
        admission.commit(vector, *writer).map_err(dead)
    }

    /// Resolves one concurrent incoming write (still under the object's
    /// reservation, so the read-modify-write of a merge cannot interleave
    /// with another apply of the same object). Each matching subscription
    /// consults its model's registered resolver; the operation counts as
    /// applied when any resolution wrote the row, and the conflict counts
    /// once, when every resolution has landed — a failed attempt's
    /// redelivery is the same conflict, not a second one.
    fn resolve_conflict(
        &self,
        op: &Operation,
        matching: &[Arc<Subscription>],
        vector: &VersionVector,
        writer: u64,
        lww_wins: bool,
    ) -> Result<(), OrmError> {
        let start = mono_nanos();
        let mut applied = false;
        let (mut used_lww, mut used_merge) = (false, false);
        for sub in matching {
            let resolver = Arc::clone(self.resolvers.get(&sub.model));
            // Project the incoming attributes to local names — the map the
            // apply path would upsert if the incoming side wins.
            let incoming: BTreeMap<String, Value> = sub
                .fields
                .iter()
                .filter_map(|f| {
                    op.attributes
                        .get(f)
                        .map(|v| (sub.local_field(f).to_owned(), v.clone()))
                })
                .collect();
            let local = self.orm.find(&sub.model, op.id)?;
            let ctx = ConflictCtx {
                model: &sub.model,
                id: op.id,
                operation: &op.operation,
                incoming: &incoming,
                local: local.as_ref().map(|r| &r.attrs),
                incoming_vector: vector,
                incoming_writer: writer,
                lww_wins,
            };
            let resolution = resolver.resolve(&ctx);
            if resolver.name() == "lww" {
                used_lww = true;
            } else {
                used_merge = true;
            }
            match resolution {
                Resolution::KeepLocal => {}
                Resolution::TakeIncoming => {
                    self.apply_subscription(sub, op)?;
                    applied = true;
                }
                Resolution::Merge(attrs) => {
                    self.upsert_resolved(sub, op, attrs)?;
                    applied = true;
                }
            }
        }
        self.telemetry
            .record_resolution(mono_nanos().saturating_sub(start));
        self.conflicts.detected.bump();
        if used_lww {
            self.conflicts.resolved_lww.bump();
        }
        if used_merge {
            self.conflicts.resolved_merge.bump();
        }
        if applied {
            self.counters.ops_applied.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Upserts a resolver's merged attributes as the conflicted row's new
    /// content (a replicated write: nothing republishes).
    fn upsert_resolved(
        &self,
        sub: &Subscription,
        op: &Operation,
        attrs: BTreeMap<String, Value>,
    ) -> Result<(), OrmError> {
        if sub.observer {
            return Ok(());
        }
        let existing = self.orm.find(&sub.model, op.id)?;
        self.upsert(sub, op.id, existing, attrs).map(|_| ())
    }

    /// Writes `attrs` over the object `existing` is the stored image of, or
    /// creates it when the read found nothing. Create and update share
    /// upsert semantics: redeliveries and weak-mode reordering make either
    /// arrive first.
    fn upsert(
        &self,
        sub: &Subscription,
        id: Id,
        existing: Option<Record>,
        attrs: BTreeMap<String, Value>,
    ) -> Result<Record, OrmError> {
        let Some(current) = existing else {
            return match self
                .orm
                .create_with_id(&sub.model, id, Value::Map(attrs.clone()))
            {
                // Lost a create/create race between the find and the
                // insert — a live worker and the bootstrap copier can apply
                // the same row concurrently. The row exists now, so finish
                // as the update path would have instead of poisoning the
                // delivery (or failing the bootstrap attempt).
                Err(OrmError::Db(DbError::DuplicateKey { .. })) => {
                    self.orm.update(&sub.model, id, Value::Map(attrs))
                }
                other => other,
            };
        };
        self.orm.update_record(current, Value::Map(attrs))
    }

    fn apply_subscription(&self, sub: &Subscription, op: &Operation) -> Result<(), OrmError> {
        // Project the incoming attributes to this subscription, splitting
        // plain fields from virtual-attribute setters.
        let virtuals = self.orm.virtuals().model(&sub.model);
        let mut plain: BTreeMap<String, Value> = BTreeMap::new();
        let mut set_after = Vec::new();
        for field in &sub.fields {
            if let Some(value) = op.attributes.get(field) {
                let local = sub.local_field(field);
                match virtuals.as_ref().and_then(|v| v.setter(local)) {
                    Some(setter) => set_after.push((setter, value.clone())),
                    None => {
                        plain.insert(local.to_owned(), value.clone());
                    }
                }
            }
        }

        if sub.observer {
            // Observers run callbacks without persisting (§3.1).
            let mut record = Record::with_attrs(sub.model.clone(), op.id, plain);
            let (before, after) = callback_points(&op.operation);
            self.orm
                .run_model_callbacks(&sub.model, before, &mut record)?;
            self.orm
                .run_model_callbacks(&sub.model, after, &mut record)?;
            return Ok(());
        }

        let existing = self.orm.find(&sub.model, op.id)?;
        if op.operation == "destroy" {
            if let Some(pre) = existing {
                self.orm.destroy_record(pre)?;
            }
            return Ok(());
        }
        let mut record = self.upsert(sub, op.id, existing, plain)?;
        for (setter, value) in set_after {
            setter(&self.orm, &mut record, value)?;
        }
        Ok(())
    }
}

/// Classifies an application-layer failure: a briefly unavailable engine
/// (injected fault, dead store) is transient; everything else — schema
/// violations, callback aborts, ownership restrictions — is deterministic
/// and poisons the delivery.
fn classify_apply_error(e: OrmError) -> ProcessError {
    match e {
        OrmError::Db(DbError::Unavailable) => ProcessError::Transient(e.to_string()),
        other => ProcessError::Poison(other.to_string()),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

fn callback_points(operation: &str) -> (CallbackPoint, CallbackPoint) {
    match operation {
        "create" => (CallbackPoint::BeforeCreate, CallbackPoint::AfterCreate),
        "destroy" => (CallbackPoint::BeforeDestroy, CallbackPoint::AfterDestroy),
        _ => (CallbackPoint::BeforeUpdate, CallbackPoint::AfterUpdate),
    }
}

#[cfg(test)]
mod tests {
    use super::worker_thread_name;

    #[test]
    fn worker_thread_names_fit_the_kernels_fifteen_bytes() {
        assert_eq!(worker_thread_name("sub", 0), "w0-sub");
        assert_eq!(
            worker_thread_name("elasticsearch_sub", 3),
            "w3-icsearch_sub"
        );
        assert_eq!(
            worker_thread_name("elasticsearch_sub", 12),
            "w12-csearch_sub"
        );
        // A cut never lands inside a character.
        assert_eq!(worker_thread_name("ééééééé", 0), "w0-éééééé");
        assert_eq!(worker_thread_name("aééééééé", 0), "w0-éééééé");
        for name in ["", "x", "a-very-long-application-name", "ééééééééééé"] {
            assert!(worker_thread_name(name, 7).len() <= 15);
        }
    }
}

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
//! 1. notes the publisher generation it carries (§4.4); nothing waits on
//!    it, as every dependency value and version carries its generation;
//! 2. enforces the *effective* delivery mode — the weaker of the
//!    publisher's and the subscriber's (§3.2): causal/global apply only
//!    once every dependency is satisfied in the version store; weak skips
//!    the check and instead discards stale per-object versions;
//! 3. persists each operation that version admission lets through the
//!    local ORM (running active-model callbacks), parsing its attributes
//!    only then, straight into each subscription's row, honouring renames,
//!    virtual-attribute setters, and observer (non-persisted) models;
//! 4. increments the version store for every dependency in the message and
//!    acks.
//!
//! A causal or global delivery whose dependencies are not yet satisfied
//! costs a waiter, not the worker (§4.2's wait, without a thread per
//! waiter): it steps aside into the worker's lane, the worker goes on with
//! its batch and later batches, and it retries what it holds after every
//! flush (see `lane`). A worker holding deliveries on a dry queue parks on
//! the queue's own wait, and a flush that advances the version store wakes
//! it. [`Subscriber::process`] keeps the blocking wait.
//!
//! The wait honours `dep_wait_timeout`: `None` reproduces the paper's
//! strict causal mode (wait forever — the behaviour that deadlocked
//! Crowdtap's subscribers when messages were lost, §6.5; here it stalls
//! only the lost message's causal descendants); a finite value implements
//! the paper's recommended middle ground ("a mechanism to give up on
//! waiting for late (or lost) messages, with a configurable timeout"),
//! counted from the moment a delivery first steps aside. Weak mode behaves
//! as timeout 0.

mod apply;
mod lane;
mod path;
#[cfg(test)]
mod tests;

use lane::{Held, Lane, HELD_MAX};

use crate::api::SubscriptionRegistry;
use crate::config::SynapseConfig;
use crate::deps::DepSpace;
use crate::semantics::DeliveryMode;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use synapse_broker::{Broker, Consumer, Delivery};
use synapse_orm::Orm;
use synapse_telemetry::{mono_nanos, Telemetry};
use synapse_versionstore::{StoreError, VersionStore};

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
    /// Retryable: nack with backoff, bounded by
    /// [`RETRY_ATTEMPTS`](crate::RETRY_ATTEMPTS).
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
    /// Operations discarded as stale: a version below the stored one (weak
    /// mode, and a multi-writer write whose LWW stamp loses).
    pub ops_stale: u64,
    /// Dependency waits that timed out (processing proceeded anyway).
    pub dep_timeouts: u64,
    /// Deliveries that stepped aside at least once: their causal or
    /// global dependencies were not yet satisfied, so a worker held them
    /// and went on with other work instead of waiting.
    pub set_aside: u64,
    /// Messages that failed to decode or apply (transient or poison).
    pub errors: u64,
    /// Per-app generation advances seen: live messages that carried a
    /// newer generation of their app than any before them (§4.4).
    pub generation_advances: u64,
    /// Transient failures that led to a backoff + nack.
    pub retries: u64,
    /// Deliveries popped with the broker's redelivered flag set.
    pub redeliveries: u64,
    /// Deliveries routed to the dead-letter store (poison + exhausted).
    pub dead_lettered: u64,
    /// Poison failures (undecodable, deterministic apply error, panic).
    pub poison_messages: u64,
    /// Transient failures that exhausted
    /// [`RETRY_ATTEMPTS`](crate::RETRY_ATTEMPTS).
    pub retries_exhausted: u64,
    /// Successful steals (an idle worker took a victim partition's run).
    pub steals: u64,
    /// Messages acquired through stealing.
    pub messages_stolen: u64,
    /// Bootstrap chunk-copy records admitted and persisted.
    pub copies_applied: u64,
    /// Bootstrap chunk-copy records discarded by version admission: the
    /// live stream, or an earlier bootstrap attempt that copied the row
    /// before it failed, had already admitted an equal-or-newer version.
    pub copies_reconciled: u64,
}

/// Max deliveries a worker drains per condvar wakeup. Bounds the latency
/// cost of deferring acks while amortizing per-batch lock traffic.
const BATCH_MAX: usize = 32;

/// The longest any park of a worker lasts before it looks again: at the
/// queue (idle, or holding deliveries set aside) and in the consumer-less
/// lane's blocking dependency wait. Shutdown does not wait this out:
/// [`Subscriber::stop`] wakes the queue explicitly, and a worker holding
/// deliveries parks no longer than their nearest §6.5 deadline.
const IDLE_PARK: Duration = Duration::from_millis(250);

#[derive(Default)]
struct Counters {
    messages_processed: AtomicU64,
    ops_applied: AtomicU64,
    ops_stale: AtomicU64,
    dep_timeouts: AtomicU64,
    set_aside: AtomicU64,
    errors: AtomicU64,
    generation_advances: AtomicU64,
    retries: AtomicU64,
    redeliveries: AtomicU64,
    dead_lettered: AtomicU64,
    poison_messages: AtomicU64,
    retries_exhausted: AtomicU64,
    steals: AtomicU64,
    messages_stolen: AtomicU64,
    copies_applied: AtomicU64,
    copies_reconciled: AtomicU64,
}

/// Parks a worker on its queue until ready work or a wake ends the park —
/// on a wake alone when the lane is `stuck` — or `timeout` passes;
/// `false` on timeout. It first yields the core once: a publisher sharing
/// it may fill the queue meanwhile, and then neither the park nor the
/// publish's wakeup of it is paid for, one delivery at a time.
fn park(consumer: &Consumer, seen: u64, timeout: Duration, stuck: bool) -> bool {
    std::thread::yield_now();
    if stuck {
        consumer.wait_wake(seen, timeout)
    } else {
        consumer.wait_ready(seen, timeout)
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
    upstreams: Upstreams,
    broker: Broker,
    stop: Arc<AtomicBool>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Workers parked (or about to park) while holding deliveries set
    /// aside: a flush that advances the store wakes the queue for them.
    parked_holders: AtomicUsize,
    counters: Counters,
    /// Transient-failure attempts per in-flight delivery tag; cleared on
    /// ack or dead-letter. Redeliveries keep their tag, so this survives
    /// nack round-trips.
    attempts: Mutex<HashMap<u64, u32>>,
    /// The node's telemetry plane; subscriber-side stages and end-to-end
    /// visibility latency are committed here on successful applies.
    telemetry: Arc<Telemetry>,
}

impl Subscriber {
    /// Creates a subscriber runtime (workers start separately).
    pub(crate) fn new(
        config: &SynapseConfig,
        orm: Arc<Orm>,
        store: Arc<VersionStore>,
        subscriptions: SubscriptionRegistry,
        upstreams: Upstreams,
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
            upstreams,
            broker,
            stop: Arc::new(AtomicBool::new(false)),
            workers: Mutex::new(Vec::new()),
            parked_holders: AtomicUsize::new(0),
            counters: Counters::default(),
            attempts: Mutex::new(HashMap::new()),
            telemetry,
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> SubscriberStats {
        SubscriberStats {
            messages_processed: self.counters.messages_processed.load(Ordering::Relaxed),
            ops_applied: self.counters.ops_applied.load(Ordering::Relaxed),
            ops_stale: self.counters.ops_stale.load(Ordering::Relaxed),
            dep_timeouts: self.counters.dep_timeouts.load(Ordering::Relaxed),
            set_aside: self.counters.set_aside.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            generation_advances: self.counters.generation_advances.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
            redeliveries: self.counters.redeliveries.load(Ordering::Relaxed),
            dead_lettered: self.counters.dead_lettered.load(Ordering::Relaxed),
            poison_messages: self.counters.poison_messages.load(Ordering::Relaxed),
            retries_exhausted: self.counters.retries_exhausted.load(Ordering::Relaxed),
            steals: self.counters.steals.load(Ordering::Relaxed),
            messages_stolen: self.counters.messages_stolen.load(Ordering::Relaxed),
            copies_applied: self.counters.copies_applied.load(Ordering::Relaxed),
            copies_reconciled: self.counters.copies_reconciled.load(Ordering::Relaxed),
        }
    }

    /// Spawns `n` worker threads consuming the app's queue.
    pub(crate) fn start(self: &Arc<Self>, n: usize) {
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
    pub(crate) fn stop(&self) {
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
    /// bootstrap phase — the bootstrap copier never stops live delivery):
    /// no ready backlog and no popped-but-unacked deliveries. A delivery
    /// is acked only once its flush has applied it to the version store
    /// and counted it, so a settled queue has nothing in flight.
    /// Event-driven: parks on the queue's quiescence condvar, which acks
    /// and dead-letters notify, instead of polling.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.broker
            .consumer(&self.app)
            .is_some_and(|consumer| consumer.wait_quiescent(timeout))
    }

    /// Acquires the next batch for worker `worker` of `total` without
    /// blocking: drain home partitions round-robin, then steal from a
    /// victim partition; empty when the whole queue is dry. `cursor`
    /// rotates the home scan origin across calls so one hot home partition
    /// cannot starve its siblings between wakeups.
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
                let batch = consumer.pop_batch_from(p, BATCH_MAX);
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
        Vec::new()
    }

    /// One worker: take a batch into the lane and run it with what the
    /// lane holds, while the queue has ready work; on a dry queue, park.
    ///
    /// No worker sleeps while a delivery it holds, or one ready in the
    /// queue, could apply. Tags are issued in enqueue order and a
    /// dependency is enqueued before its dependent, so the oldest
    /// unapplied delivery in the pool waits on nothing a lane holds: it is
    /// either ready at the front of its partition, which some worker's
    /// scan reaches, or held by a lane whose last look came before the
    /// flush that satisfied it — and that flush wakes the lane.
    ///
    /// A full lane ([`HELD_MAX`]) keeps taking batches and handing its
    /// newest deliveries back, which reaches every partition front; once a
    /// full sweep of runs settles nothing (a lost dependency under strict
    /// mode), it parks until the store advances instead of popping what it
    /// just handed back.
    fn worker_loop(&self, consumer: Consumer, worker: usize, total: usize) {
        let mut lane = Lane::new(Some(&consumer));
        let partitions = consumer.partition_count().max(1);
        let mut cursor = 0usize;
        // Consecutive runs in which a full lane settled nothing.
        let mut stalled = 0usize;
        while !self.stop.load(Ordering::SeqCst) {
            if consumer.is_decommissioned() {
                // The decommission swept everything popped, so what the
                // lane holds is void; the queue parks its consumers until
                // a partial bootstrap reinstates it.
                lane.held.clear();
                stalled = 0;
            }
            let stuck = stalled >= partitions && lane.held.len() >= HELD_MAX;
            let seen = consumer.wake_epoch();
            if !stuck {
                let batch = self.next_batch(&consumer, worker, total.max(1), &mut cursor);
                if !batch.is_empty() {
                    let progressed = self.run_lane(&mut lane, batch);
                    stalled = if progressed || lane.held.len() < HELD_MAX {
                        0
                    } else {
                        stalled + 1
                    };
                    continue;
                }
            }
            if lane.held.is_empty() {
                park(&consumer, seen, IDLE_PARK, false);
                continue;
            }
            // Announce the park before the last look at what the lane
            // holds: a flush landing after the look then wakes the queue.
            self.parked_holders.fetch_add(1, Ordering::SeqCst);
            let seen = consumer.wake_epoch();
            if self.run_lane(&mut lane, Vec::new()) {
                stalled = 0;
            } else if !park(&consumer, seen, lane.park_timeout(IDLE_PARK), stuck) {
                // A deadline or the park cap passed: look again, and let a
                // stuck lane sweep the partitions once more.
                stalled = 0;
            }
            self.parked_holders.fetch_sub(1, Ordering::SeqCst);
        }
        // Shutting down: what the lane still holds goes back to the queue
        // without charging an attempt.
        let held = lane.held.len();
        self.hand_back(&mut lane, held);
    }

    /// Processes one delivery outside the worker pool — a batch of one
    /// through the workers' own sequence (`Subscriber::handle_delivery`),
    /// on a lane with no consumer: the dependency wait blocks, the
    /// version-store apply happens immediately, and nothing is acked —
    /// a failure is handed back, classified, for the caller to retry or
    /// drop.
    pub fn process(&self, delivery: &Delivery) -> Result<(), ProcessError> {
        let mut lane = Lane::new(None);
        self.handle_delivery(Held::popped(delivery.clone(), mono_nanos()), &mut lane)?;
        if self.flush_pending(&mut lane) {
            Ok(())
        } else {
            Err(ProcessError::Transient(StoreError::Dead.to_string()))
        }
    }

    /// The effective delivery mode for messages from `pub_app` (§3.2).
    pub fn effective_mode(&self, pub_app: &str) -> DeliveryMode {
        let upstreams = self.upstreams.read();
        let publisher = upstreams.get(pub_app).map_or(DeliveryMode::Causal, |u| u.0);
        DeliveryMode::effective(publisher, self.subscriber_mode)
    }

    /// The effective delivery mode of a live message from `app` (§3.2),
    /// noting a generation advance of its app (§4.4).
    fn live_mode(&self, app: &str, generation: u64) -> DeliveryMode {
        let newer = |u: &(_, AtomicU64)| u.1.fetch_max(generation, Ordering::Relaxed) < generation;
        if self.upstreams.read().get(app).is_some_and(newer) {
            let advances = &self.counters.generation_advances;
            advances.fetch_add(1, Ordering::Relaxed);
        }
        self.effective_mode(app)
    }
}

/// Upstream app → the mode it publishes in (§3.2) and the newest generation
/// seen from it (§4.4), for each app the node subscribes to.
pub(crate) type Upstreams = Arc<RwLock<HashMap<String, (DeliveryMode, AtomicU64)>>>;

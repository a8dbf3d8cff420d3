//! The broker facade: exchanges, bindings, consumers, the queue lifecycle.

use crate::message::{Delivery, SharedStr};
use crate::queue::{tag_seq, Queue, QueueConfig, QueueState, WalBinding};
use crate::wal::{LogPos, Wal, WalConfig, WalRecord, WalStats};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Aggregate broker counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BrokerStats {
    /// Messages accepted from publishers (before fanout).
    pub published: u64,
    /// Message copies enqueued across all queues.
    pub enqueued: u64,
    /// Message copies acked by consumers.
    pub acked: u64,
    /// Message copies dropped by failure injection.
    #[cfg(any(test, feature = "testing"))]
    pub dropped: u64,
    /// Message copies refused by decommissioned queues.
    pub refused: u64,
    /// Backlog copies discarded when a queue was decommissioned.
    pub discarded: u64,
    /// Deliveries returned to a queue by nack or broker restart.
    pub redelivered: u64,
    /// Deliveries routed to dead-letter stores.
    pub dead_lettered: u64,
    /// Acks naming an unknown or already-acked tag.
    pub spurious_acks: u64,
    /// Nacks naming an unknown or already-acked tag.
    pub spurious_nacks: u64,
    /// Publish attempts rejected by injected transient faults.
    #[cfg(any(test, feature = "testing"))]
    pub publish_faults: u64,
    /// Queues reinstated after a decommission.
    pub reinstated: u64,
    /// Counted condvar wakeups issued by enqueues (the thundering-herd
    /// fix: at most `min(added, sleepers)` per enqueue batch).
    pub wakeups: u64,
    /// Successful work-steal operations across all queues.
    pub steals: u64,
    /// Deliveries migrated between workers by stealing.
    pub stolen: u64,
}

/// Transient error returned by [`Broker::publish_routed`] when the message
/// was not accepted: the durable log is poisoned, or (in a test build) a
/// publish fault was armed.
///
/// Models the broker connection blips of the paper's §6.5 incident: the
/// publisher is expected to retry, and journals the payload if every
/// retry fails (§4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishError {
    /// Exchange the publish was addressed to.
    pub exchange: String,
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transient broker failure publishing to exchange {:?}",
            self.exchange
        )
    }
}

impl std::error::Error for PublishError {}

/// Topology: declared queues, exchange bindings, and the routing table
/// resolved from them. Mutated only by declare/bind (rare); the publish hot
/// path takes a read lock and walks `resolved`.
#[derive(Default)]
struct Routes {
    /// exchange (publisher app) → bound queue names.
    bindings: HashMap<String, Vec<String>>,
    queues: HashMap<String, Arc<Queue>>,
    /// exchange → (shared exchange name, bound queues), precomputed so a
    /// publish does one hash lookup and clones zero strings.
    resolved: HashMap<String, (SharedStr, Vec<Arc<Queue>>)>,
}

impl Routes {
    /// Recomputes `resolved` after a topology change. Bindings to
    /// not-yet-declared queues are kept in `bindings` but omitted here
    /// (publishes to them route nowhere, as before).
    fn rebuild(&mut self) {
        self.resolved = self
            .bindings
            .iter()
            .map(|(exchange, names)| {
                let targets = names
                    .iter()
                    .filter_map(|name| self.queues.get(name).cloned())
                    .collect();
                (
                    exchange.clone(),
                    (SharedStr::from(exchange.as_str()), targets),
                )
            })
            .collect();
    }
}

struct BrokerShared {
    routes: RwLock<Routes>,
    /// Messages accepted from publishers. Atomic: publish never takes the
    /// topology write lock.
    published: AtomicU64,
    /// Fault injection: fail the next `n` publish attempts. Consumed with a
    /// CAS loop so concurrent publishers each burn exactly one armed fault.
    #[cfg(any(test, feature = "testing"))]
    publish_fail_next: AtomicU64,
    #[cfg(any(test, feature = "testing"))]
    publish_faults: AtomicU64,
    /// The durability plane; `None` for a memory-only broker (the default,
    /// whose hot path pays exactly one `Option` branch for it).
    wal: Option<Arc<Wal>>,
    /// What recovery rebuilt at open time; `None` for memory-only brokers.
    recovery: Option<RecoveryReport>,
}

/// What [`Broker::open_durable`] recovered from the log.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL entries replayed.
    pub replayed_entries: u64,
    /// Torn/corrupt frames dropped (and truncated away) during replay.
    pub torn_entries_dropped: u64,
    /// Segment files scanned.
    pub segments_scanned: u64,
    /// Queues rebuilt from the log.
    pub queues_recovered: u64,
    /// Pending (never-acked) deliveries restored to queue backlogs.
    pub messages_recovered: u64,
    /// Dead-lettered deliveries restored.
    pub dead_recovered: u64,
    /// Enqueue records skipped because a logged ack consumed them — the
    /// acked work that did NOT come back, which is the zero-acked-loss
    /// half of the recovery invariant.
    pub acked_skipped: u64,
}

/// Per-queue state accumulated while folding replayed WAL records.
#[derive(Default)]
struct RecoveredQueue {
    decommissioned: bool,
    /// Next tag *sequence* number (tags encode `(seq << 8) | hint`; the
    /// hint re-derives partition membership deterministically on replay).
    next_seq: u64,
    /// tag → (exchange, payload, origin_nanos); `BTreeMap` keeps FIFO
    /// (tag, i.e. seq) order for free when rebuilding the backlog.
    pending: BTreeMap<u64, (String, String, u64)>,
    dead: Vec<(u64, String, String, u64)>,
}

impl RecoveredQueue {
    fn apply(&mut self, record: WalRecord, report: &mut RecoveryReport) {
        match record {
            WalRecord::Enqueue {
                tag,
                exchange,
                payload,
                origin_nanos,
                ..
            } => {
                self.pending.insert(tag, (exchange, payload, origin_nanos));
                self.next_seq = self.next_seq.max(tag_seq(tag) + 1);
            }
            WalRecord::Ack { tags, .. } => {
                for tag in tags {
                    if self.pending.remove(&tag).is_some() {
                        report.acked_skipped += 1;
                    }
                }
            }
            WalRecord::DeadLetter { tag, .. } => {
                if let Some((exchange, payload, origin)) = self.pending.remove(&tag) {
                    self.dead.push((tag, exchange, payload, origin));
                }
            }
            WalRecord::QueueKilled { .. } => {
                self.pending.clear();
                self.decommissioned = true;
            }
            WalRecord::QueueReinstated { .. } => {
                self.pending.clear();
                self.decommissioned = false;
            }
            WalRecord::Checkpoint {
                decommissioned,
                next_tag,
                pending,
                dead,
                ..
            } => {
                // A checkpoint *replaces* this queue's state: everything
                // before it in the log is already folded into it. Its
                // `next_tag` field carries the next sequence number.
                self.decommissioned = decommissioned;
                self.next_seq = next_tag;
                self.pending = pending
                    .into_iter()
                    .map(|(tag, exchange, payload, origin, _redelivered)| {
                        (tag, (exchange, payload, origin))
                    })
                    .collect();
                self.dead = dead;
            }
        }
    }
}

/// An in-process message broker with RabbitMQ semantics. Cloneable handle;
/// clones share state.
///
/// Payloads are stored as [`SharedStr`]: fanout to N queues shares one
/// allocation, and `publish` itself is lock-free except for the read-mostly
/// routing lock and each bound queue's own mutex.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use synapse_broker::{Broker, QueueConfig};
///
/// let broker = Broker::new();
/// broker.declare_queue("mailer", QueueConfig::default());
/// broker.bind("main_app", "mailer");
/// broker.publish_routed("main_app", "{\"op\":\"create\"}", 0, 0).unwrap();
///
/// let consumer = broker.consumer("mailer").unwrap();
/// let d = consumer.pop(Duration::from_millis(100)).unwrap();
/// assert_eq!(d.payload, "{\"op\":\"create\"}");
/// consumer.ack(d.tag);
/// ```
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerShared>,
}

impl Broker {
    /// Creates an empty memory-only broker (no durability plane).
    pub fn new() -> Self {
        Broker {
            inner: Arc::new(BrokerShared {
                routes: RwLock::new(Routes::default()),
                published: AtomicU64::new(0),
                #[cfg(any(test, feature = "testing"))]
                publish_fail_next: AtomicU64::new(0),
                #[cfg(any(test, feature = "testing"))]
                publish_faults: AtomicU64::new(0),
                wal: None,
                recovery: None,
            }),
        }
    }

    /// Opens a durable broker backed by a segmented WAL at `cfg.dir`,
    /// replaying any existing log and rebuilding the queues it describes
    /// *before* the broker is returned — no traffic is accepted against
    /// half-recovered state.
    ///
    /// Recovered state covers queue backlogs (never-acked deliveries, in
    /// tag order, flagged `redelivered`), dead-letter stores, lifecycle
    /// (decommissioned queues stay decommissioned), and tag counters.
    /// Logged acks are honored: an acked delivery never reappears.
    /// Bindings and per-queue caps are topology, not log state — callers
    /// re-declare and re-bind exactly as on first boot, and
    /// [`Broker::declare_queue`] re-applies the cap to the recovered
    /// queue. Counters restart at zero; the [`RecoveryReport`] carries
    /// what was rebuilt.
    pub fn open_durable(cfg: WalConfig) -> io::Result<(Broker, RecoveryReport)> {
        let (wal, records, summary) = Wal::open(cfg)?;
        let wal = Arc::new(wal);
        let mut report = RecoveryReport {
            replayed_entries: summary.entries_replayed,
            torn_entries_dropped: summary.torn_entries_dropped,
            segments_scanned: summary.segments_scanned,
            ..RecoveryReport::default()
        };

        let mut recovered: BTreeMap<String, RecoveredQueue> = BTreeMap::new();
        for record in records {
            let queue = match &record {
                WalRecord::Enqueue { queue, .. }
                | WalRecord::Ack { queue, .. }
                | WalRecord::DeadLetter { queue, .. }
                | WalRecord::QueueKilled { queue }
                | WalRecord::QueueReinstated { queue }
                | WalRecord::Checkpoint { queue, .. } => queue.clone(),
            };
            recovered
                .entry(queue)
                .or_default()
                .apply(record, &mut report);
        }

        let mut routes = Routes::default();
        for (name, state) in recovered {
            report.queues_recovered += 1;
            report.messages_recovered += state.pending.len() as u64;
            report.dead_recovered += state.dead.len() as u64;
            let pending = state
                .pending
                .into_iter()
                .map(|(tag, (exchange, payload, origin))| {
                    (
                        tag,
                        SharedStr::from(exchange.as_str()),
                        SharedStr::from(payload.as_str()),
                        origin,
                    )
                })
                .collect();
            let dead = state
                .dead
                .into_iter()
                .map(|(tag, exchange, payload, origin)| {
                    (
                        tag,
                        SharedStr::from(exchange.as_str()),
                        SharedStr::from(payload.as_str()),
                        origin,
                    )
                })
                .collect();
            let queue = Queue::restore(
                QueueConfig::default(),
                Some(WalBinding {
                    wal: wal.clone(),
                    queue: name.clone(),
                }),
                state.decommissioned,
                state.next_seq,
                pending,
                dead,
            );
            routes.queues.insert(name, Arc::new(queue));
        }
        routes.rebuild();

        let broker = Broker {
            inner: Arc::new(BrokerShared {
                routes: RwLock::new(routes),
                published: AtomicU64::new(0),
                #[cfg(any(test, feature = "testing"))]
                publish_fail_next: AtomicU64::new(0),
                #[cfg(any(test, feature = "testing"))]
                publish_faults: AtomicU64::new(0),
                wal: Some(wal),
                recovery: Some(report),
            }),
        };
        Ok((broker, report))
    }

    /// Declares (or re-declares, idempotently) a queue. Re-declaring an
    /// existing queue — including one rebuilt by [`Broker::open_durable`]
    /// — updates its config in place, so recovered queues pick up their
    /// backlog caps and partition counts on the first post-restart
    /// declare (a changed partition count deterministically re-routes the
    /// recovered backlog by each delivery's tag hint).
    pub fn declare_queue(&self, name: &str, config: QueueConfig) {
        let mut routes = self.inner.routes.write();
        if let Some(queue) = routes.queues.get(name) {
            queue.reconfigure(config);
        } else {
            let wal = self.inner.wal.as_ref().map(|wal| WalBinding {
                wal: wal.clone(),
                queue: name.to_owned(),
            });
            routes
                .queues
                .insert(name.to_owned(), Arc::new(Queue::new(config, wal)));
        }
        routes.rebuild();
    }

    /// Binds `queue` to the fanout exchange of publisher app `exchange`.
    pub fn bind(&self, exchange: &str, queue: &str) {
        let mut routes = self.inner.routes.write();
        let bindings = routes.bindings.entry(exchange.to_owned()).or_default();
        if !bindings.iter().any(|q| q == queue) {
            bindings.push(queue.to_owned());
        }
        routes.rebuild();
    }

    /// Consumes one armed publish fault, if any. CAS loop: under concurrent
    /// publishers each armed fault fails exactly one attempt.
    #[cfg(any(test, feature = "testing"))]
    fn consume_armed_fault(&self) -> bool {
        let armed = &self.inner.publish_fail_next;
        let mut current = armed.load(Ordering::Acquire);
        while current > 0 {
            match armed.compare_exchange_weak(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.inner.publish_faults.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(observed) => current = observed,
            }
        }
        false
    }

    /// Publishes a payload on `exchange`, fanning out to all bound queues;
    /// each queue shares the payload allocation. The payload carries the
    /// publisher's monotonic origin stamp (nanoseconds since the process
    /// telemetry epoch; rides the delivery envelope so subscribers can
    /// compute end-to-end visibility latency; 0 means unstamped) and a
    /// partition routing key (typically the written object's dependency
    /// key). The key's low byte is folded into the delivery tag and picks
    /// the destination partition in every bound queue, so one key's
    /// messages stay in one partition in publish order.
    ///
    /// Fails with a transient [`PublishError`] when the message was not
    /// accepted; a failed publish enqueues nothing and should be retried by
    /// the caller.
    pub fn publish_routed(
        &self,
        exchange: &str,
        payload: impl Into<SharedStr>,
        origin_nanos: u64,
        key: u64,
    ) -> Result<(), PublishError> {
        #[cfg(any(test, feature = "testing"))]
        if self.consume_armed_fault() {
            return Err(PublishError {
                exchange: exchange.to_owned(),
            });
        }
        if self.wal_is_poisoned() {
            return Err(PublishError {
                exchange: exchange.to_owned(),
            });
        }
        let payload = payload.into();
        let routes = self.inner.routes.read();
        if let Some((shared_exchange, targets)) = routes.resolved.get(exchange) {
            for queue in targets {
                queue.enqueue_routed(shared_exchange, &payload, origin_nanos, key);
            }
        }
        drop(routes);
        // A WAL append that died mid-publish poisoned the log: the message
        // was not durably accepted, so the publish itself must fail (a
        // durable publish-Ok implies the record is on the log).
        if self.wal_is_poisoned() {
            return Err(PublishError {
                exchange: exchange.to_owned(),
            });
        }
        self.inner.published.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Returns a consumer handle for `queue`, or `None` if undeclared.
    pub fn consumer(&self, queue: &str) -> Option<Consumer> {
        let routes = self.inner.routes.read();
        routes
            .queues
            .get(queue)
            .map(|q| Consumer { queue: q.clone() })
    }

    /// Current state of a queue.
    pub fn queue_state(&self, queue: &str) -> Option<QueueState> {
        let routes = self.inner.routes.read();
        routes.queues.get(queue).map(|q| q.state_snapshot())
    }

    /// Current backlog length of a queue. Lock-free: reads the relaxed
    /// gauge the partitions maintain, so telemetry polling never contends
    /// with the delivery hot path.
    pub fn queue_len(&self, queue: &str) -> Option<usize> {
        let routes = self.inner.routes.read();
        routes.queues.get(queue).map(|q| q.len())
    }

    /// Number of deliveries popped but not yet acked, nacked, or
    /// dead-lettered. A queue is fully drained only when both this and
    /// [`Broker::queue_len`] are zero. Lock-free gauge read.
    pub fn queue_unacked_len(&self, queue: &str) -> Option<usize> {
        let routes = self.inner.routes.read();
        routes.queues.get(queue).map(|q| q.unacked_len())
    }

    /// Number of partitions a queue was declared with.
    pub fn queue_partitions(&self, queue: &str) -> Option<usize> {
        let routes = self.inner.routes.read();
        routes.queues.get(queue).map(|q| q.partition_count())
    }

    /// Per-partition ready depths of a queue (lock-free gauge reads); the
    /// telemetry plane's partition-depth gauges.
    pub fn partition_depths(&self, queue: &str) -> Option<Vec<usize>> {
        let routes = self.inner.routes.read();
        routes.queues.get(queue).map(|q| q.partition_depths())
    }

    /// Number of consumers currently parked on a queue's condvar.
    #[cfg(any(test, feature = "testing"))]
    pub fn queue_sleepers(&self, queue: &str) -> Option<usize> {
        let routes = self.inner.routes.read();
        routes.queues.get(queue).map(|q| q.sleepers())
    }

    /// Wakes every consumer parked on `queue` (their in-flight batch pops
    /// return empty) by moving its wake epoch; free when none is parked.
    /// Subscriber shutdown uses this so workers re-check their stop flag
    /// immediately instead of waiting out the park timeout, and a
    /// subscriber whose version store advanced uses it to wake workers
    /// parked on deliveries they hold set aside.
    pub fn wake_queue(&self, queue: &str) {
        let routes = self.inner.routes.read();
        if let Some(q) = routes.queues.get(queue) {
            q.wake_all();
        }
    }

    /// Resets a decommissioned queue to active/empty (the subscriber is
    /// rejoining after its §4.4 recovery). Idempotent: returns `true`
    /// only when the queue actually transitioned from decommissioned to
    /// active; an already-active queue (e.g. a reinstate racing a broker
    /// restart that already happened) is left untouched.
    pub fn reinstate_queue(&self, queue: &str) -> bool {
        let routes = self.inner.routes.read();
        routes
            .queues
            .get(queue)
            .map(|q| q.reinstate())
            .unwrap_or(false)
    }

    /// Failure injection: silently drop the next `n` messages bound for
    /// `queue` (the §6.5 RabbitMQ-upgrade incident).
    #[cfg(any(test, feature = "testing"))]
    pub fn inject_drop_next(&self, queue: &str, n: u64) {
        let routes = self.inner.routes.read();
        if let Some(q) = routes.queues.get(queue) {
            q.inject_drop_next(n);
        }
    }

    /// Failure injection: fail the next `n` publish attempts (on any
    /// exchange) with a transient [`PublishError`].
    #[cfg(any(test, feature = "testing"))]
    pub fn inject_publish_failures(&self, n: u64) {
        self.inner.publish_fail_next.fetch_add(n, Ordering::Release);
    }

    /// Snapshot of a queue's dead-letter store.
    pub fn dead_letters(&self, queue: &str) -> Option<Vec<Delivery>> {
        let routes = self.inner.routes.read();
        routes.queues.get(queue).map(|q| q.dead_letters())
    }

    /// Number of dead-lettered deliveries held for `queue` (lock-free
    /// gauge read).
    pub fn dead_letter_len(&self, queue: &str) -> Option<usize> {
        let routes = self.inner.routes.read();
        routes.queues.get(queue).map(|q| q.dead_len())
    }

    /// Failure injection: broker restart. All unacked deliveries return to
    /// the front of their queues flagged `redelivered`.
    pub fn recover(&self) {
        let routes = self.inner.routes.read();
        for q in routes.queues.values() {
            q.recover();
        }
    }

    fn wal_is_poisoned(&self) -> bool {
        self.inner.wal.as_ref().is_some_and(|wal| wal.is_poisoned())
    }

    /// The underlying WAL handle (fault injection and tests). `None` for
    /// memory-only brokers.
    pub fn wal(&self) -> Option<Arc<Wal>> {
        self.inner.wal.clone()
    }

    /// Current WAL append position; `None` for memory-only brokers.
    pub fn wal_position(&self) -> Option<LogPos> {
        self.inner.wal.as_ref().map(|wal| wal.position())
    }

    /// WAL lifetime counters; `None` for memory-only brokers.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.inner.wal.as_ref().map(|wal| wal.stats())
    }

    /// Frames-per-group-commit histogram; `None` for memory-only brokers.
    pub fn wal_group_size(&self) -> Option<synapse_telemetry::HistogramSnapshot> {
        self.inner.wal.as_ref().map(|wal| wal.group_size_snapshot())
    }

    /// Group-commit follower wait histogram (nanoseconds); `None` for
    /// memory-only brokers.
    pub fn wal_commit_wait(&self) -> Option<synapse_telemetry::HistogramSnapshot> {
        self.inner
            .wal
            .as_ref()
            .map(|wal| wal.commit_wait_snapshot())
    }

    /// What [`Broker::open_durable`] rebuilt; `None` for memory-only
    /// brokers (a fresh durable broker reports an all-zero recovery).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.inner.recovery
    }

    /// Forces an fsync of the WAL tail. No-op for memory-only brokers.
    pub fn sync_wal(&self) -> io::Result<()> {
        match &self.inner.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Checkpoints every queue into a fresh WAL segment and garbage-
    /// collects the segments the checkpoint supersedes. Returns the
    /// checkpoint segment index (0 for memory-only brokers, a no-op).
    ///
    /// Crash-safe at every step: old segments are deleted only after all
    /// checkpoint records are written *and synced*, so a crash
    /// mid-checkpoint recovers from the old segments plus whatever
    /// checkpoint prefix survived (a torn checkpoint record is truncated
    /// away like any torn frame).
    pub fn checkpoint(&self) -> io::Result<u64> {
        let Some(wal) = &self.inner.wal else {
            return Ok(0);
        };
        let boundary = wal.begin_checkpoint()?;
        let queues: Vec<Arc<Queue>> = {
            let routes = self.inner.routes.read();
            let mut named: Vec<(&String, &Arc<Queue>)> = routes.queues.iter().collect();
            named.sort_unstable_by_key(|(name, _)| *name);
            named.into_iter().map(|(_, q)| q.clone()).collect()
        };
        for queue in queues {
            queue.append_checkpoint()?;
        }
        wal.sync()?;
        wal.gc_before(boundary)?;
        Ok(boundary)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> BrokerStats {
        let routes = self.inner.routes.read();
        let mut stats = BrokerStats {
            published: self.inner.published.load(Ordering::Relaxed),
            #[cfg(any(test, feature = "testing"))]
            publish_faults: self.inner.publish_faults.load(Ordering::Relaxed),
            ..BrokerStats::default()
        };
        for q in routes.queues.values() {
            let qi = q.counters();
            stats.enqueued += qi.enqueued;
            stats.acked += qi.acked;
            #[cfg(any(test, feature = "testing"))]
            {
                stats.dropped += qi.dropped;
            }
            stats.refused += qi.refused;
            stats.discarded += qi.discarded;
            stats.redelivered += qi.redelivered;
            stats.dead_lettered += qi.dead_lettered;
            stats.spurious_acks += qi.spurious_acks;
            stats.spurious_nacks += qi.spurious_nacks;
            stats.reinstated += qi.reinstated;
            stats.wakeups += qi.wakeups;
            stats.steals += qi.steals;
            stats.stolen += qi.stolen;
        }
        stats
    }
}

impl Default for Broker {
    fn default() -> Self {
        Self::new()
    }
}

/// A consumer bound to one queue. Cloneable; multiple workers may consume
/// the same queue concurrently (the paper's parallel subscriber workers).
#[derive(Clone)]
pub struct Consumer {
    queue: Arc<Queue>,
}

impl Consumer {
    /// Blocking pop: waits up to `timeout` for a delivery. Returns `None`
    /// on timeout, decommission, or [`Broker::wake_queue`] — a
    /// [`Consumer::pop_batch`] of one.
    pub fn pop(&self, timeout: Duration) -> Option<Delivery> {
        self.queue.pop_batch(1, timeout).pop()
    }

    /// Blocking batch pop: parks on the queue's condvar until a delivery
    /// arrives, then drains up to `max` ready deliveries in FIFO order
    /// under one lock acquisition. Returns empty on timeout, decommission,
    /// or [`Broker::wake_queue`].
    pub fn pop_batch(&self, max: usize, timeout: Duration) -> Vec<Delivery> {
        self.queue.pop_batch(max, timeout)
    }

    /// Number of partitions in this consumer's queue.
    pub fn partition_count(&self) -> usize {
        self.queue.partition_count()
    }

    /// Drains up to `max` deliveries from one partition without blocking
    /// (the work-stealing workers' home-partition scan).
    pub fn pop_batch_from(&self, partition: usize, max: usize) -> Vec<Delivery> {
        self.queue.pop_batch_from(partition, max)
    }

    /// Steals up to `min(max, ceil(ready/2))` deliveries from the front
    /// of a victim partition's ready run (non-blocking). The stolen
    /// deliveries' tags still name the victim partition, so
    /// [`Consumer::ack`] routes them correctly from any worker.
    pub fn steal_batch(&self, partition: usize, max: usize) -> Vec<Delivery> {
        self.queue.steal_batch(partition, max)
    }

    /// The queue's wake epoch. Sample it *before* the last look for work
    /// and hand the sample to [`Consumer::wait_ready`] or
    /// [`Consumer::wait_wake`]: a wake issued after the sample ends the
    /// park at once, so none falls between the look and the park.
    pub fn wake_epoch(&self) -> u64 {
        self.queue.wake_epoch()
    }

    /// Parks until the queue has ready deliveries or its wake epoch moves
    /// past `seen` ([`Broker::wake_queue`], a reinstatement, a
    /// decommission) — or until `timeout` passes. A decommissioned queue
    /// parks its consumers until it is reinstated. Returns `false` only on
    /// timeout; `true` means "rescan now".
    pub fn wait_ready(&self, seen: u64, timeout: Duration) -> bool {
        self.queue.wait_ready(seen, timeout)
    }

    /// Parks until the wake epoch moves past `seen` or `timeout` passes;
    /// unlike [`Consumer::wait_ready`], ready deliveries do not end the
    /// wait. Returns `false` only on timeout.
    pub fn wait_wake(&self, seen: u64, timeout: Duration) -> bool {
        self.queue.wait_wake(seen, timeout)
    }

    /// Whether `tag` is still popped and unsettled: `false` once a
    /// decommission sweep or a broker restart has taken it back, so
    /// settling it would act on a delivery the queue no longer owes.
    pub fn holds(&self, tag: u64) -> bool {
        self.queue.holds(tag)
    }

    /// Acknowledges a delivery; returns `false` for unknown tags.
    pub fn ack(&self, tag: u64) -> bool {
        self.queue.ack(tag)
    }

    /// Acknowledges a batch of tags under one queue lock acquisition.
    /// Returns how many were live; unknown tags count as spurious, exactly
    /// as individual [`Consumer::ack`] calls would.
    pub fn ack_batch(&self, tags: &[u64]) -> u64 {
        self.queue.ack_batch(tags)
    }

    /// Returns a delivery to the queue front for redelivery.
    pub fn nack(&self, tag: u64) -> bool {
        self.queue.nack(tag)
    }

    /// Routes an unacked delivery to the queue's dead-letter store: the
    /// message is consumed (like an ack) but retained and counted instead of
    /// silently discarded. Returns `false` for unknown tags.
    pub fn dead_letter(&self, tag: u64) -> bool {
        self.queue.dead_letter(tag)
    }

    /// Whether the queue has been decommissioned.
    pub fn is_decommissioned(&self) -> bool {
        self.queue.is_decommissioned()
    }

    /// Blocks until the queue is quiescent — zero ready deliveries AND
    /// zero unacked in-flight — or `timeout` passes. Event-driven: parks
    /// on a condvar that acks/dead-letters/sweeps notify, so there is no
    /// busy-poll. Returns whether the queue was quiescent on return.
    /// Subscribers ack only after the version-store apply commits, so
    /// quiescent implies every accepted delivery is applied.
    pub fn wait_quiescent(&self, timeout: Duration) -> bool {
        self.queue.wait_quiescent(timeout)
    }
}

#[cfg(test)]
mod tests;

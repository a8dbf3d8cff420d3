//! The broker facade: exchanges, bindings, consumers, failure injection.

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

/// Transient error returned by [`Broker::publish`] under injected faults.
///
/// Models the broker connection blips of the paper's §6.5 incident: the
/// message was *not* accepted and the publisher is expected to retry (its
/// journal still holds the payload, §4.2).
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
    publish_fail_next: AtomicU64,
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
/// broker.publish("main_app", "{\"op\":\"create\"}").unwrap();
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
                publish_fail_next: AtomicU64::new(0),
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
                publish_fail_next: AtomicU64::new(0),
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

    /// Publishes a payload on `exchange`, fanning out to all bound queues.
    /// Each queue shares the payload allocation.
    ///
    /// Fails with a transient [`PublishError`] while injected publish faults
    /// are armed ([`Broker::inject_publish_failures`]); a failed publish
    /// enqueues nothing and should be retried by the caller.
    pub fn publish(
        &self,
        exchange: &str,
        payload: impl Into<SharedStr>,
    ) -> Result<(), PublishError> {
        self.publish_routed(exchange, payload, 0, 0)
    }

    /// [`Broker::publish`] carrying the publisher's monotonic origin stamp
    /// (nanoseconds since the process telemetry epoch; rides the delivery
    /// envelope so subscribers can compute end-to-end visibility latency;
    /// 0 means unstamped) and a partition routing key
    /// (typically the written object's dependency key). The key's low
    /// byte is folded into the delivery tag and picks the destination
    /// partition in every bound queue, so one object's messages stay in
    /// one partition in publish order. Key 0 is the unkeyed/legacy route
    /// (partition 0, strict global FIFO).
    pub fn publish_routed(
        &self,
        exchange: &str,
        payload: impl Into<SharedStr>,
        origin_nanos: u64,
        key: u64,
    ) -> Result<(), PublishError> {
        if self.consume_armed_fault() || self.wal_is_poisoned() {
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

    /// Publishes a batch of payloads on `exchange` in order (unstamped,
    /// unkeyed: everything routes to partition 0), resolving the routing
    /// once and taking each bound queue's lock once for the whole batch.
    /// Returns the number of messages accepted.
    ///
    /// An armed publish fault rejects the entire batch (the connection blip
    /// happened before anything was written) and consumes one injected
    /// failure, matching one failed `publish` call.
    pub fn publish_batch<I>(&self, exchange: &str, payloads: I) -> Result<u64, PublishError>
    where
        I: IntoIterator,
        I::Item: Into<SharedStr>,
    {
        self.publish_batch_routed(
            exchange,
            payloads.into_iter().map(|p| (p.into(), 0, 0)).collect(),
        )
    }

    /// [`Broker::publish_batch`] with a per-payload origin stamp and
    /// partition routing key: `(payload, origin_nanos, key)` (see
    /// [`Broker::publish_routed`]). Each bound queue
    /// groups the batch by destination partition and takes one lock per
    /// *touched* partition, so concurrent batches to disjoint partitions
    /// never contend. Relative payload order is preserved within each
    /// partition (and therefore per routing key).
    pub fn publish_batch_routed(
        &self,
        exchange: &str,
        payloads: Vec<(SharedStr, u64, u64)>,
    ) -> Result<u64, PublishError> {
        if payloads.is_empty() {
            return Ok(0);
        }
        if self.consume_armed_fault() || self.wal_is_poisoned() {
            return Err(PublishError {
                exchange: exchange.to_owned(),
            });
        }
        let routes = self.inner.routes.read();
        if let Some((shared_exchange, targets)) = routes.resolved.get(exchange) {
            for queue in targets {
                queue.enqueue_batch_routed(shared_exchange, &payloads, false);
            }
        }
        drop(routes);
        // See publish_routed: a mid-batch WAL death fails the batch.
        if self.wal_is_poisoned() {
            return Err(PublishError {
                exchange: exchange.to_owned(),
            });
        }
        let accepted = payloads.len() as u64;
        self.inner.published.fetch_add(accepted, Ordering::Relaxed);
        Ok(accepted)
    }

    /// Enqueues payloads directly into one named queue under a caller-
    /// chosen `exchange` label, bypassing exchange bindings — the second
    /// way in, for the queue owner's own traffic rather than a publisher
    /// on the wire. Direct-to-queue traffic is exempt from the wire's
    /// faults and limits: armed publish faults, armed drops and the
    /// backlog-cap kill (it is flow-controlled by its sender, and a kill
    /// would sweep the live backlog behind it). It does count toward the
    /// backlog a later *live* publish is capped against. Payloads are
    /// `(payload, origin_nanos, route_key)` exactly as in
    /// [`Broker::publish_batch_routed`]: each lands behind the live
    /// traffic already queued for its key, every touched partition is
    /// locked (ascending) across one WAL commit, and route key `p` below
    /// the partition count names partition `p`.
    ///
    /// Returns the number accepted; short counts (queue unknown,
    /// decommissioned, or WAL commit failure) mean the remainder was NOT
    /// enqueued.
    pub fn publish_to_queue(
        &self,
        queue: &str,
        exchange: &str,
        payloads: Vec<(SharedStr, u64, u64)>,
    ) -> usize {
        if payloads.is_empty() {
            return 0;
        }
        if self.wal_is_poisoned() {
            return 0;
        }
        let routes = self.inner.routes.read();
        let Some(q) = routes.queues.get(queue) else {
            return 0;
        };
        let shared_exchange = SharedStr::from(exchange);
        let added = q.enqueue_batch_routed(&shared_exchange, &payloads, true);
        drop(routes);
        if self.wal_is_poisoned() {
            return 0;
        }
        self.inner
            .published
            .fetch_add(added as u64, Ordering::Relaxed);
        added
    }

    /// Loss signals for a sender of direct-to-queue traffic that resumes
    /// across attempts: cumulative `(discarded, refused, dropped)` counts
    /// for `queue`. Movement in the loss counters (discarded — backlog
    /// swept by a decommission — or dropped) between two reads means the
    /// live stream lost coverage in between. Refused publishes are
    /// reported too but are not a loss signal: the publisher journal
    /// republishes them.
    pub fn queue_discard_stats(&self, queue: &str) -> Option<(u64, u64, u64)> {
        let routes = self.inner.routes.read();
        routes.queues.get(queue).map(|q| {
            let c = q.counters();
            (c.discarded, c.refused, c.dropped)
        })
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
    pub fn queue_sleepers(&self, queue: &str) -> Option<usize> {
        let routes = self.inner.routes.read();
        routes.queues.get(queue).map(|q| q.sleepers())
    }

    /// Wakes every consumer parked on `queue` (their in-flight batch pops
    /// return empty). Subscriber shutdown uses this so workers re-check
    /// their stop flag immediately instead of waiting out the park timeout.
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
    pub fn inject_drop_next(&self, queue: &str, n: u64) {
        let routes = self.inner.routes.read();
        if let Some(q) = routes.queues.get(queue) {
            q.inject_drop_next(n);
        }
    }

    /// Failure injection: fail the next `n` publish attempts (on any
    /// exchange) with a transient [`PublishError`].
    pub fn inject_publish_failures(&self, n: u64) {
        self.inner.publish_fail_next.fetch_add(n, Ordering::Release);
    }

    /// Failure injection: force-decommission a queue, discarding its
    /// backlog, as if it had exceeded its cap.
    pub fn decommission_queue(&self, queue: &str) {
        let routes = self.inner.routes.read();
        if let Some(q) = routes.queues.get(queue) {
            q.force_decommission();
        }
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
            publish_faults: self.inner.publish_faults.load(Ordering::Relaxed),
            ..BrokerStats::default()
        };
        for q in routes.queues.values() {
            let qi = q.counters();
            stats.enqueued += qi.enqueued;
            stats.acked += qi.acked;
            stats.dropped += qi.dropped;
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

    /// Drains up to `max` deliveries from one partition. A zero timeout
    /// is a non-blocking poll (the work-stealing workers' home-partition
    /// scan); otherwise parks on the queue condvar until the deadline.
    pub fn pop_batch_from(&self, partition: usize, max: usize, timeout: Duration) -> Vec<Delivery> {
        self.queue.pop_batch_from(partition, max, timeout)
    }

    /// Steals up to `min(max, ceil(ready/2))` deliveries from the front
    /// of a victim partition's ready run (non-blocking). The stolen
    /// deliveries' tags still name the victim partition, so
    /// [`Consumer::ack`] routes them correctly from any worker.
    pub fn steal_batch(&self, partition: usize, max: usize) -> Vec<Delivery> {
        self.queue.steal_batch(partition, max)
    }

    /// Parks until the queue has ready deliveries, is decommissioned, or
    /// is woken by [`Broker::wake_queue`] — or until `timeout` passes.
    /// Returns `false` only on timeout; `true` means "rescan now".
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        self.queue.wait_ready(timeout)
    }

    /// Whether ready deliveries exist outside `tag`'s own partition
    /// (lock-free). See the subscriber's dependency-wait yield protocol.
    pub fn ready_elsewhere(&self, tag: u64) -> bool {
        self.queue.ready_elsewhere(tag)
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
mod tests {
    use super::*;
    use std::thread;

    fn broker_with(queue: &str) -> Broker {
        let b = Broker::new();
        b.declare_queue(queue, QueueConfig::default());
        b.bind("pub", queue);
        b
    }

    #[test]
    fn fanout_reaches_all_bound_queues() {
        let b = Broker::new();
        b.declare_queue("q1", QueueConfig::default());
        b.declare_queue("q2", QueueConfig::default());
        b.bind("pub", "q1");
        b.bind("pub", "q2");
        b.publish("pub", "m").unwrap();
        for q in ["q1", "q2"] {
            let c = b.consumer(q).unwrap();
            assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "m");
        }
    }

    #[test]
    fn fanout_shares_one_payload_allocation() {
        let b = Broker::new();
        b.declare_queue("q1", QueueConfig::default());
        b.declare_queue("q2", QueueConfig::default());
        b.bind("pub", "q1");
        b.bind("pub", "q2");
        b.publish("pub", "shared-body").unwrap();
        let d1 = b
            .consumer("q1")
            .unwrap()
            .pop(Duration::from_millis(50))
            .unwrap();
        let d2 = b
            .consumer("q2")
            .unwrap()
            .pop(Duration::from_millis(50))
            .unwrap();
        assert!(
            std::ptr::eq(d1.payload.as_str(), d2.payload.as_str()),
            "both queues must share the published allocation"
        );
        assert!(std::ptr::eq(d1.exchange.as_str(), d2.exchange.as_str()));
    }

    #[test]
    fn bind_before_declare_still_routes() {
        let b = Broker::new();
        b.bind("pub", "q");
        b.declare_queue("q", QueueConfig::default());
        b.publish("pub", "m").unwrap();
        let c = b.consumer("q").unwrap();
        assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "m");
    }

    #[test]
    fn unbound_queue_receives_nothing() {
        let b = Broker::new();
        b.declare_queue("q", QueueConfig::default());
        b.publish("pub", "m").unwrap();
        assert!(b
            .consumer("q")
            .unwrap()
            .pop(Duration::from_millis(20))
            .is_none());
    }

    #[test]
    fn fifo_order_is_preserved() {
        let b = broker_with("q");
        for i in 0..10 {
            b.publish("pub", i.to_string()).unwrap();
        }
        let c = b.consumer("q").unwrap();
        for i in 0..10 {
            let d = c.pop(Duration::from_millis(50)).unwrap();
            assert_eq!(d.payload, i.to_string());
            c.ack(d.tag);
        }
    }

    #[test]
    fn publish_batch_preserves_fifo_and_counts() {
        let b = broker_with("q");
        let accepted = b.publish_batch("pub", ["a", "b", "c"]).unwrap();
        assert_eq!(accepted, 3);
        let c = b.consumer("q").unwrap();
        for expected in ["a", "b", "c"] {
            let d = c.pop(Duration::from_millis(50)).unwrap();
            assert_eq!(d.payload, expected);
            c.ack(d.tag);
        }
        let s = b.stats();
        assert_eq!(s.published, 3);
        assert_eq!(s.enqueued, 3);
    }

    #[test]
    fn empty_batch_is_a_noop_even_under_faults() {
        let b = broker_with("q");
        b.inject_publish_failures(1);
        assert_eq!(b.publish_batch("pub", Vec::<String>::new()).unwrap(), 0);
        // The armed fault was not consumed by the empty batch.
        assert!(b.publish("pub", "x").is_err());
    }

    #[test]
    fn faulted_batch_rejects_everything_and_consumes_one_fault() {
        let b = broker_with("q");
        b.inject_publish_failures(1);
        assert!(b.publish_batch("pub", ["a", "b"]).is_err());
        assert_eq!(b.queue_len("q"), Some(0), "nothing enqueued");
        assert_eq!(b.publish_batch("pub", ["a", "b"]).unwrap(), 2);
        let s = b.stats();
        assert_eq!(s.publish_faults, 1);
        assert_eq!(s.published, 2);
    }

    #[test]
    fn pop_batch_drains_up_to_max_in_order() {
        let b = broker_with("q");
        b.publish_batch("pub", ["a", "b", "c", "d", "e"]).unwrap();
        let c = b.consumer("q").unwrap();
        let first = c.pop_batch(3, Duration::from_millis(50));
        assert_eq!(
            first.iter().map(|d| d.payload.as_str()).collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
        let rest = c.pop_batch(10, Duration::from_millis(50));
        assert_eq!(
            rest.iter().map(|d| d.payload.as_str()).collect::<Vec<_>>(),
            ["d", "e"]
        );
        let tags: Vec<u64> = first.iter().chain(&rest).map(|d| d.tag).collect();
        assert_eq!(c.ack_batch(&tags), 5);
        assert_eq!(b.stats().acked, 5);
        assert_eq!(b.queue_unacked_len("q"), Some(0));
    }

    #[test]
    fn pop_batch_wakes_on_publish() {
        let b = broker_with("q");
        let c = b.consumer("q").unwrap();
        let h = thread::spawn(move || c.pop_batch(8, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(30));
        b.publish("pub", "late").unwrap();
        let got = h.join().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, "late");
    }

    #[test]
    fn wake_queue_unparks_an_empty_pop_batch() {
        let b = broker_with("q");
        let c = b.consumer("q").unwrap();
        let start = std::time::Instant::now();
        let h = thread::spawn(move || c.pop_batch(8, Duration::from_secs(30)));
        thread::sleep(Duration::from_millis(30));
        b.wake_queue("q");
        assert!(h.join().unwrap().is_empty());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "wake must beat the park timeout"
        );
    }

    #[test]
    fn ack_batch_counts_spurious_tags() {
        let b = broker_with("q");
        b.publish("pub", "m").unwrap();
        let c = b.consumer("q").unwrap();
        let d = c.pop(Duration::from_millis(50)).unwrap();
        assert_eq!(c.ack_batch(&[d.tag, 999]), 1);
        let s = b.stats();
        assert_eq!(s.acked, 1);
        assert_eq!(s.spurious_acks, 1);
    }

    #[test]
    fn batch_into_capped_queue_kills_once_and_refuses_rest() {
        let b = Broker::new();
        b.declare_queue(
            "q",
            QueueConfig {
                max_len: Some(3),
                ..QueueConfig::default()
            },
        );
        b.bind("pub", "q");
        b.publish_batch("pub", ["0", "1", "2", "3", "4"]).unwrap();
        assert_eq!(b.queue_state("q"), Some(QueueState::Decommissioned));
        let s = b.stats();
        // Same accounting as five individual publishes: 3 accepted, the
        // cap-triggering copy and the next refused, backlog discarded.
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.discarded, 3);
        assert_eq!(s.refused, 2);
    }

    #[test]
    fn nack_requeues_at_front_flagged_redelivered() {
        let b = broker_with("q");
        b.publish("pub", "a").unwrap();
        b.publish("pub", "b").unwrap();
        let c = b.consumer("q").unwrap();
        let d = c.pop(Duration::from_millis(50)).unwrap();
        assert!(!d.redelivered);
        assert!(c.nack(d.tag));
        let d2 = c.pop(Duration::from_millis(50)).unwrap();
        assert_eq!(d2.payload, "a");
        assert!(d2.redelivered);
        assert_eq!(b.stats().redelivered, 1);
    }

    #[test]
    fn ack_of_unknown_tag_is_rejected_and_counted() {
        let b = broker_with("q");
        let c = b.consumer("q").unwrap();
        assert!(!c.ack(999));
        assert_eq!(b.stats().spurious_acks, 1);
        assert!(!c.nack(999));
        assert_eq!(b.stats().spurious_nacks, 1);
    }

    #[test]
    fn double_ack_is_spurious() {
        let b = broker_with("q");
        b.publish("pub", "m").unwrap();
        let c = b.consumer("q").unwrap();
        let d = c.pop(Duration::from_millis(50)).unwrap();
        assert!(c.ack(d.tag));
        assert!(!c.ack(d.tag), "second ack of the same tag must fail");
        assert!(!c.nack(d.tag), "nack after ack must fail");
        let s = b.stats();
        assert_eq!(s.acked, 1);
        assert_eq!(s.spurious_acks, 1);
        assert_eq!(s.spurious_nacks, 1);
    }

    #[test]
    fn injected_publish_failures_are_transient_and_counted() {
        let b = broker_with("q");
        b.inject_publish_failures(2);
        assert!(b.publish("pub", "x").is_err());
        assert!(b.publish("pub", "y").is_err());
        b.publish("pub", "z").unwrap();
        let s = b.stats();
        assert_eq!(s.publish_faults, 2);
        assert_eq!(s.published, 1, "failed publishes are not accepted");
        assert_eq!(s.enqueued, 1);
        let c = b.consumer("q").unwrap();
        assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "z");
    }

    #[test]
    fn dead_letter_consumes_without_losing_the_payload() {
        let b = broker_with("q");
        b.publish("pub", "poison").unwrap();
        b.publish("pub", "good").unwrap();
        let c = b.consumer("q").unwrap();
        let d = c.pop(Duration::from_millis(50)).unwrap();
        assert!(c.dead_letter(d.tag));
        assert!(!c.dead_letter(d.tag), "tag is consumed by dead-lettering");
        // The poisoned message is out of the delivery path…
        let d2 = c.pop(Duration::from_millis(50)).unwrap();
        assert_eq!(d2.payload, "good");
        // …but retained and counted.
        let dead = b.dead_letters("q").unwrap();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].payload, "poison");
        assert_eq!(b.dead_letter_len("q"), Some(1));
        assert_eq!(b.stats().dead_lettered, 1);
        // Dead letters survive broker restarts and reinstatement.
        b.recover();
        b.reinstate_queue("q");
        assert_eq!(b.dead_letter_len("q"), Some(1));
    }

    #[test]
    fn decommission_accounts_for_discarded_backlog() {
        let b = Broker::new();
        b.declare_queue(
            "q",
            QueueConfig {
                max_len: Some(3),
                ..QueueConfig::default()
            },
        );
        b.bind("pub", "q");
        for i in 0..5 {
            b.publish("pub", i.to_string()).unwrap();
        }
        assert_eq!(b.queue_state("q"), Some(QueueState::Decommissioned));
        let s = b.stats();
        // 3 accepted, then the cap-triggering copy and the one after it
        // were refused; the 3-message backlog was discarded.
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.discarded, 3);
        assert_eq!(s.refused, 2);
    }

    #[test]
    fn force_decommission_discards_and_refuses() {
        let b = broker_with("q");
        b.publish("pub", "a").unwrap();
        b.decommission_queue("q");
        assert_eq!(b.queue_state("q"), Some(QueueState::Decommissioned));
        b.publish("pub", "late").unwrap();
        let s = b.stats();
        assert_eq!(s.discarded, 1);
        assert_eq!(s.refused, 1);
        assert!(b
            .consumer("q")
            .unwrap()
            .pop(Duration::from_millis(20))
            .is_none());
    }

    #[test]
    fn blocking_pop_wakes_on_publish() {
        let b = broker_with("q");
        let c = b.consumer("q").unwrap();
        let h = thread::spawn(move || c.pop(Duration::from_secs(5)).unwrap().payload);
        thread::sleep(Duration::from_millis(30));
        b.publish("pub", "late").unwrap();
        assert_eq!(h.join().unwrap(), "late");
    }

    #[test]
    fn concurrent_workers_partition_the_queue() {
        let b = broker_with("q");
        for i in 0..100 {
            b.publish("pub", i.to_string()).unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = b.consumer("q").unwrap();
            handles.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(d) = c.pop(Duration::from_millis(50)) {
                    got.push(d.payload.clone());
                    c.ack(d.tag);
                }
                got
            }));
        }
        let mut all: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(all.len(), 100, "each message delivered exactly once");
        all.sort_by_key(|s| s.parse::<u64>().unwrap());
        for (i, payload) in all.iter().enumerate() {
            assert_eq!(payload, &i.to_string());
        }
    }

    #[test]
    fn queue_cap_triggers_decommission() {
        let b = Broker::new();
        b.declare_queue(
            "q",
            QueueConfig {
                max_len: Some(5),
                ..QueueConfig::default()
            },
        );
        b.bind("pub", "q");
        for i in 0..10 {
            b.publish("pub", i.to_string()).unwrap();
        }
        assert_eq!(b.queue_state("q"), Some(QueueState::Decommissioned));
        assert_eq!(b.queue_len("q"), Some(0), "backlog was discarded");
        let c = b.consumer("q").unwrap();
        assert!(c.is_decommissioned());
        assert!(c.pop(Duration::from_millis(20)).is_none());
        // Reinstating restores delivery.
        b.reinstate_queue("q");
        b.publish("pub", "fresh").unwrap();
        assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "fresh");
    }

    #[test]
    fn injected_drops_lose_messages_silently() {
        let b = broker_with("q");
        b.inject_drop_next("q", 2);
        for i in 0..4 {
            b.publish("pub", i.to_string()).unwrap();
        }
        let c = b.consumer("q").unwrap();
        assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "2");
        assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "3");
        assert_eq!(b.stats().dropped, 2);
    }

    #[test]
    fn recover_requeues_unacked_in_order() {
        let b = broker_with("q");
        for p in ["a", "b", "c"] {
            b.publish("pub", p).unwrap();
        }
        let c = b.consumer("q").unwrap();
        let d1 = c.pop(Duration::from_millis(50)).unwrap();
        let d2 = c.pop(Duration::from_millis(50)).unwrap();
        c.ack(d1.tag);
        assert_eq!(d2.payload, "b");
        // Restart: "b" (unacked) returns before "c".
        b.recover();
        let r1 = c.pop(Duration::from_millis(50)).unwrap();
        assert_eq!(r1.payload, "b");
        assert!(r1.redelivered);
        let r2 = c.pop(Duration::from_millis(50)).unwrap();
        assert_eq!(r2.payload, "c");
    }

    /// Publish, settle part of the backlog, crash (drop every handle, no
    /// checkpoint), reopen: exactly the unsettled deliveries come back,
    /// once each, in order. Two inputs: six unrouted publishes under
    /// `EveryWrite`, and one routed 400-message batch spread over 97 keys
    /// under `Interval(64)`, where the crash leaves the acks on the
    /// relaxed lane's staged tail for `Drop` to flush and replay to fold.
    #[test]
    fn durable_broker_recovers_unacked_and_skips_acked() {
        use crate::wal::FsyncPolicy;
        for (label, fsync, routed, msgs, acks) in [
            ("broker-recover", FsyncPolicy::EveryWrite, false, 6, 2),
            ("broker-routed", FsyncPolicy::Interval(64), true, 400, 200),
        ] {
            let dir = crate::wal::tests::temp_dir(label);
            let cfg = WalConfig::new(&dir).fsync(fsync);
            let (b, report) = Broker::open_durable(cfg.clone()).unwrap();
            assert_eq!(
                report,
                RecoveryReport::default(),
                "fresh log, empty recovery"
            );
            b.declare_queue("q", QueueConfig::default());
            b.bind("pub", "q");
            if routed {
                let batch = (0..msgs).map(|i| (format!("m{i}").into(), 0, 1 + i % 97));
                b.publish_batch_routed("pub", batch.collect()).unwrap();
            } else {
                for i in 0..msgs {
                    b.publish("pub", format!("m{i}")).unwrap();
                }
            }
            let c = b.consumer("q").unwrap();
            // Ack the first `acks`, dead-letter the next, leave one more
            // unacked-in-flight and the rest ready.
            let mut settled = std::collections::BTreeSet::new();
            for _ in 0..acks {
                let d = c.pop(Duration::from_millis(50)).unwrap();
                assert!(c.ack(d.tag));
                settled.insert(d.payload.as_str().to_owned());
            }
            let dead = c.pop(Duration::from_millis(50)).unwrap();
            c.dead_letter(dead.tag);
            settled.insert(dead.payload.as_str().to_owned());
            let _in_flight = c.pop(Duration::from_millis(50)).unwrap();

            // Crash: drop every handle; only the log survives.
            drop((c, b));
            let (b2, report) = Broker::open_durable(cfg).unwrap();
            assert!(report.replayed_entries > 0, "the log had traffic to replay");
            assert_eq!(report.queues_recovered, 1);
            assert_eq!(report.acked_skipped, acks, "acked deliveries stay consumed");
            assert_eq!(
                report.messages_recovered,
                msgs - acks - 1,
                "the in-flight delivery and everything still ready"
            );
            assert_eq!(report.dead_recovered, 1);
            b2.declare_queue("q", QueueConfig::default());
            b2.bind("pub", "q");
            let c2 = b2.consumer("q").unwrap();
            let (mut recovered, mut highest) = (Vec::new(), 0);
            while let Some(d) = c2.pop(Duration::ZERO) {
                assert!(d.redelivered, "recovered deliveries are flagged");
                assert!(c2.ack(d.tag));
                recovered.push(d.payload.as_str().to_owned());
                highest = highest.max(d.tag);
            }
            let mut expected: Vec<String> = (0..msgs)
                .map(|i| format!("m{i}"))
                .filter(|m| !settled.contains(m))
                .collect();
            if routed {
                // Pop order interleaves partitions; FIFO holds per key.
                expected.sort();
                recovered.sort();
            }
            assert_eq!(
                recovered, expected,
                "published minus settled, no duplicate, no resurrected ack"
            );
            assert_eq!(b2.dead_letters("q").unwrap()[0].payload, dead.payload);
            // Tags keep advancing past the recovered counter.
            b2.publish("pub", "fresh").unwrap();
            let d = c2.pop(Duration::from_millis(50)).unwrap();
            assert!(
                d.tag > highest,
                "tag counter survives recovery, got {}",
                d.tag
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn checkpoint_gc_preserves_recovery_and_shrinks_log() {
        let dir = crate::wal::tests::temp_dir("broker-ckpt");
        let cfg = WalConfig::new(&dir)
            .segment_max_bytes(512)
            .fsync(crate::wal::FsyncPolicy::Off);
        let (b, _) = Broker::open_durable(cfg.clone()).unwrap();
        b.declare_queue("q", QueueConfig::default());
        b.bind("pub", "q");
        for i in 0..80 {
            b.publish("pub", format!("payload-{i}")).unwrap();
        }
        let c = b.consumer("q").unwrap();
        for _ in 0..30 {
            let d = c.pop(Duration::from_millis(50)).unwrap();
            c.ack(d.tag);
        }
        let before = b.wal_stats().unwrap();
        assert!(before.segments_rolled >= 2, "workload spans segments");
        b.checkpoint().unwrap();
        let after = b.wal_stats().unwrap();
        assert!(after.segments_removed >= 2, "checkpoint GCs old segments");
        drop((c, b));
        let (b2, report) = Broker::open_durable(cfg).unwrap();
        assert_eq!(
            report.messages_recovered, 50,
            "checkpoint state is complete"
        );
        b2.bind("pub", "q");
        let c2 = b2.consumer("q").unwrap();
        let mut got = Vec::new();
        while let Some(d) = c2.pop(Duration::from_millis(20)) {
            got.push(d.payload.as_str().to_owned());
            c2.ack(d.tag);
        }
        let expected: Vec<String> = (30..80).map(|i| format!("payload-{i}")).collect();
        assert_eq!(
            got, expected,
            "recovered backlog is the unacked suffix, in order"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decommission_and_reinstate_survive_restart() {
        let dir = crate::wal::tests::temp_dir("broker-decomm");
        let cfg = WalConfig::new(&dir).fsync(crate::wal::FsyncPolicy::EveryWrite);
        let (b, _) = Broker::open_durable(cfg.clone()).unwrap();
        b.declare_queue("q", QueueConfig::default());
        b.bind("pub", "q");
        b.publish("pub", "doomed").unwrap();
        b.decommission_queue("q");
        drop(b);
        let (b2, report) = Broker::open_durable(cfg.clone()).unwrap();
        assert_eq!(b2.queue_state("q"), Some(QueueState::Decommissioned));
        assert_eq!(report.messages_recovered, 0, "killed backlog stays dead");
        b2.reinstate_queue("q");
        drop(b2);
        let (b3, _) = Broker::open_durable(cfg).unwrap();
        assert_eq!(b3.queue_state("q"), Some(QueueState::Active));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_wal_fails_publishes_transiently() {
        let dir = crate::wal::tests::temp_dir("broker-poison");
        let cfg = WalConfig::new(&dir).fsync(crate::wal::FsyncPolicy::EveryWrite);
        let (b, _) = Broker::open_durable(cfg.clone()).unwrap();
        b.declare_queue("q", QueueConfig::default());
        b.bind("pub", "q");
        b.publish("pub", "before").unwrap();
        b.wal().unwrap().inject_partial_append(4);
        assert!(b.publish("pub", "torn").is_err(), "mid-append kill refuses");
        assert!(
            b.publish("pub", "after").is_err(),
            "poisoned log stays down"
        );
        assert_eq!(
            b.queue_len("q"),
            Some(1),
            "refused publishes enqueue nothing"
        );
        drop(b);
        let (b2, report) = Broker::open_durable(cfg).unwrap();
        assert_eq!(report.messages_recovered, 1, "only the confirmed publish");
        assert_eq!(report.torn_entries_dropped, 1);
        b2.bind("pub", "q");
        let c = b2.consumer("q").unwrap();
        assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "before");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn redeclare_updates_the_cap_in_place() {
        let b = broker_with("q");
        // Re-declare with a cap: the fourth publish trips it.
        b.declare_queue(
            "q",
            QueueConfig {
                max_len: Some(3),
                ..QueueConfig::default()
            },
        );
        for i in 0..5 {
            b.publish("pub", i.to_string()).unwrap();
        }
        assert_eq!(b.queue_state("q"), Some(QueueState::Decommissioned));
    }

    /// Satellite: counted wakeups. Two workers park on the queue; a
    /// single publish must wake exactly one of them (no thundering herd),
    /// and the wakeup counter must record exactly one notify.
    #[test]
    fn single_publish_wakes_exactly_one_parked_worker() {
        let b = broker_with("q");
        let mut handles = Vec::new();
        for _ in 0..2 {
            let c = b.consumer("q").unwrap();
            handles.push(thread::spawn(move || {
                c.pop_batch(8, Duration::from_millis(600))
            }));
        }
        // Wait until both workers are actually parked before publishing.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while b.queue_sleepers("q") != Some(2) {
            assert!(std::time::Instant::now() < deadline, "workers never parked");
            thread::sleep(Duration::from_millis(2));
        }
        b.publish("pub", "solo").unwrap();
        let results: Vec<Vec<Delivery>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let nonempty = results.iter().filter(|r| !r.is_empty()).count();
        assert_eq!(nonempty, 1, "exactly one worker received the message");
        assert_eq!(b.stats().wakeups, 1, "one message, one counted notify_one");
    }

    /// A batch of N messages into a pool of M sleepers issues at most
    /// min(N, M) wakeups, never a notify_all storm.
    #[test]
    fn batch_wakeups_are_counted_not_broadcast() {
        let b = broker_with("q");
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = b.consumer("q").unwrap();
            handles.push(thread::spawn(move || {
                c.pop_batch(1, Duration::from_millis(600)).len()
            }));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while b.queue_sleepers("q") != Some(4) {
            assert!(std::time::Instant::now() < deadline, "workers never parked");
            thread::sleep(Duration::from_millis(2));
        }
        b.publish_batch("pub", ["a", "b"]).unwrap();
        let got: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(got, 2, "both messages delivered");
        assert_eq!(
            b.stats().wakeups,
            2,
            "two messages into four sleepers: two wakeups"
        );
    }

    /// Keyed publishes spread across partitions but keep per-key FIFO:
    /// each key's messages live in one partition in publish order.
    #[test]
    fn routed_publishes_keep_per_key_fifo_across_partitions() {
        let b = broker_with("q");
        for round in 0..5u64 {
            for key in 1..=3u64 {
                b.publish_routed("pub", format!("k{key}-{round}"), 0, key)
                    .unwrap();
            }
        }
        let depths = b.partition_depths("q").unwrap();
        assert_eq!(depths.iter().sum::<usize>(), 15);
        assert_eq!(depths[1], 5, "key 1 lives wholly in partition 1");
        assert_eq!(depths[2], 5);
        assert_eq!(depths[3], 5);
        let c = b.consumer("q").unwrap();
        let mut per_key: HashMap<char, Vec<String>> = HashMap::new();
        for d in c.pop_batch(64, Duration::from_millis(50)) {
            let p = d.payload.as_str();
            per_key
                .entry(p.chars().nth(1).unwrap())
                .or_default()
                .push(p.to_owned());
            c.ack(d.tag);
        }
        for key in ['1', '2', '3'] {
            let expected: Vec<String> = (0..5).map(|r| format!("k{key}-{r}")).collect();
            assert_eq!(per_key[&key], expected, "per-key FIFO for key {key}");
        }
    }

    /// Work stealing takes ceil(half) of the victim's ready run from the
    /// FRONT (oldest first), moves it in flight, and acks route back to
    /// the victim partition via the tag hint.
    #[test]
    fn steal_takes_half_the_victims_front_run() {
        let b = broker_with("q");
        for i in 0..4 {
            b.publish_routed("pub", format!("m{i}"), 0, 1).unwrap();
        }
        let c = b.consumer("q").unwrap();
        let stolen = c.steal_batch(1, 16);
        assert_eq!(
            stolen
                .iter()
                .map(|d| d.payload.as_str())
                .collect::<Vec<_>>(),
            ["m0", "m1"],
            "steal takes the oldest half"
        );
        let rest = c.pop_batch_from(1, 16, Duration::ZERO);
        assert_eq!(
            rest.iter().map(|d| d.payload.as_str()).collect::<Vec<_>>(),
            ["m2", "m3"]
        );
        let tags: Vec<u64> = stolen.iter().chain(&rest).map(|d| d.tag).collect();
        assert_eq!(
            c.ack_batch(&tags),
            4,
            "stolen tags ack through the hint route"
        );
        assert_eq!(b.queue_unacked_len("q"), Some(0));
        let s = b.stats();
        assert_eq!(s.steals, 1);
        assert_eq!(s.stolen, 2);
        // A lone message can still be stolen (ceil(1/2) == 1).
        b.publish_routed("pub", "lone", 0, 1).unwrap();
        assert_eq!(c.steal_batch(1, 16).len(), 1);
    }

    /// Re-declaring with a different partition count deterministically
    /// re-routes the backlog by each tag's hint — per-key order intact.
    #[test]
    fn redeclare_with_new_partition_count_reroutes_backlog() {
        let b = Broker::new();
        b.declare_queue(
            "q",
            QueueConfig {
                max_len: None,
                partitions: 4,
            },
        );
        b.bind("pub", "q");
        for round in 0..3u64 {
            for key in 0..8u64 {
                b.publish_routed("pub", format!("k{key}-{round}"), 0, key)
                    .unwrap();
            }
        }
        assert_eq!(b.queue_partitions("q"), Some(4));
        b.declare_queue(
            "q",
            QueueConfig {
                max_len: None,
                partitions: 2,
            },
        );
        assert_eq!(b.queue_partitions("q"), Some(2));
        let depths = b.partition_depths("q").unwrap();
        assert_eq!(
            depths,
            vec![12, 12],
            "even/odd keys split across 2 partitions"
        );
        let c = b.consumer("q").unwrap();
        let mut per_key: HashMap<String, Vec<String>> = HashMap::new();
        for d in c.pop_batch(64, Duration::from_millis(50)) {
            let p = d.payload.as_str();
            let key = p[1..p.find('-').unwrap()].to_owned();
            per_key.entry(key).or_default().push(p.to_owned());
            c.ack(d.tag);
        }
        for key in 0..8 {
            let expected: Vec<String> = (0..3).map(|r| format!("k{key}-{r}")).collect();
            assert_eq!(per_key[&key.to_string()], expected, "key {key} stays FIFO");
        }
    }

    /// The partitioned layout survives a durable restart: replay re-routes
    /// every pending delivery to the partition its tag hint names, so two
    /// reopens of the same log build identical layouts.
    #[test]
    fn partitioned_backlog_recovers_deterministically() {
        let dir = crate::wal::tests::temp_dir("broker-partitioned");
        let cfg = WalConfig::new(&dir).fsync(crate::wal::FsyncPolicy::EveryWrite);
        let (b, _) = Broker::open_durable(cfg.clone()).unwrap();
        b.declare_queue("q", QueueConfig::default());
        b.bind("pub", "q");
        for round in 0..4u64 {
            for key in 1..=3u64 {
                b.publish_routed("pub", format!("k{key}-{round}"), 0, key)
                    .unwrap();
            }
        }
        // Consume and ack key 2's first two messages so replay must skip
        // them inside one partition while preserving the others.
        let c = b.consumer("q").unwrap();
        let from2 = c.pop_batch_from(2, 2, Duration::ZERO);
        assert_eq!(from2.len(), 2);
        for d in &from2 {
            assert!(c.ack(d.tag));
        }
        drop((c, b));

        let depths_of = |cfg: WalConfig| {
            let (b2, _) = Broker::open_durable(cfg).unwrap();
            b2.declare_queue("q", QueueConfig::default());
            b2.bind("pub", "q");
            let depths = b2.partition_depths("q").unwrap();
            let c2 = b2.consumer("q").unwrap();
            let mut per_key: HashMap<String, Vec<String>> = HashMap::new();
            for d in c2.pop_batch(64, Duration::from_millis(50)) {
                assert!(d.redelivered, "recovered deliveries are flagged");
                let p = d.payload.as_str();
                let key = p[1..p.find('-').unwrap()].to_owned();
                per_key.entry(key).or_default().push(p.to_owned());
            }
            (depths, per_key)
        };
        let (depths_a, keys_a) = depths_of(cfg.clone());
        let (depths_b, keys_b) = depths_of(cfg);
        assert_eq!(depths_a, depths_b, "replay is deterministic");
        assert_eq!(keys_a, keys_b);
        assert_eq!(depths_a[1], 4);
        assert_eq!(depths_a[2], 2, "key 2's acked pair stays consumed");
        assert_eq!(depths_a[3], 4);
        assert_eq!(
            keys_a["2"],
            vec!["k2-2".to_owned(), "k2-3".to_owned()],
            "the unacked suffix of key 2, in order"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The second way in, [`Broker::publish_to_queue`]: a batch with one
    /// payload per route key `0..partitions` lands exactly one delivery
    /// in each partition, behind what was already queued there, tags
    /// rising in partition order, under a single WAL commit — and, being
    /// plain `Enqueue` frames, every one comes back in its partition at
    /// its position after a crash, before and after a checkpoint.
    #[test]
    fn direct_batch_lands_one_per_partition_and_survives_reopen() {
        const PARTS: usize = 4;
        let dir = crate::wal::tests::temp_dir("broker-direct");
        let cfg = WalConfig::new(&dir).fsync(crate::wal::FsyncPolicy::EveryWrite);
        let config = QueueConfig {
            max_len: None,
            partitions: PARTS,
        };
        let (b, _) = Broker::open_durable(cfg.clone()).unwrap();
        b.declare_queue("q", config.clone());
        b.bind("pub", "q");
        b.publish_routed("pub", "live-1", 0, 1).unwrap();
        b.publish_routed("pub", "live-3", 0, 3).unwrap();
        let commits = b.wal_stats().unwrap().group_commits;
        let own = (0..PARTS as u64).map(|p| (format!("own-{p}").into(), 0, p));
        assert_eq!(b.publish_to_queue("q", "own", own.collect()), PARTS);
        assert_eq!(
            b.wal_stats().unwrap().group_commits,
            commits + 1,
            "the whole batch is one WAL commit"
        );
        assert_eq!(b.stats().published, 2 + PARTS as u64);

        // Pops every partition; nothing is acked, so a reopen redelivers.
        let layout = |b: &Broker, recovered: bool| {
            let c = b.consumer("q").unwrap();
            let mut own_tags = Vec::new();
            for p in 0..PARTS {
                let got = c.pop_batch_from(p, 8, Duration::ZERO);
                let payloads: Vec<&str> = got.iter().map(|d| d.payload.as_str()).collect();
                let own = format!("own-{p}");
                let live = format!("live-{p}");
                if p % 2 == 1 {
                    assert_eq!(
                        payloads,
                        [live.as_str(), own.as_str()],
                        "behind live traffic"
                    );
                } else {
                    assert_eq!(payloads, [own.as_str()]);
                }
                let last = got.last().unwrap();
                assert_eq!(last.exchange, "own");
                assert_eq!(last.redelivered, recovered);
                own_tags.push(last.tag);
            }
            assert!(
                own_tags.windows(2).all(|w| w[0] < w[1]),
                "tags rise in partition order: {own_tags:?}"
            );
            own_tags
        };
        let tags = layout(&b, false);
        drop(b);

        let (b2, report) = Broker::open_durable(cfg.clone()).unwrap();
        assert_eq!(report.messages_recovered, 2 + PARTS as u64);
        b2.declare_queue("q", config.clone());
        assert_eq!(
            layout(&b2, true),
            tags,
            "replayed from plain enqueue frames"
        );
        b2.checkpoint().unwrap();
        drop(b2);

        let (b3, _) = Broker::open_durable(cfg).unwrap();
        b3.declare_queue("q", config);
        assert_eq!(
            layout(&b3, true),
            tags,
            "and from the checkpoint's pending list"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Direct-to-queue traffic is the queue owner's own, not on the wire:
    /// a queue already at its cap admits it without being killed, and an
    /// armed drop is not spent on it. What it adds still counts toward
    /// the backlog the next *live* publish is capped against.
    #[test]
    fn direct_to_queue_is_exempt_from_the_cap_and_armed_drops() {
        let b = Broker::new();
        b.declare_queue(
            "q",
            QueueConfig {
                max_len: Some(2),
                ..QueueConfig::default()
            },
        );
        b.bind("pub", "q");
        b.publish("pub", "live-0").unwrap();
        b.publish("pub", "live-1").unwrap();
        b.inject_drop_next("q", 1);
        let own = (0..3u64).map(|p| (format!("own-{p}").into(), 0, p));
        assert_eq!(b.publish_to_queue("q", "own", own.collect()), 3);
        assert_eq!(b.queue_state("q"), Some(QueueState::Active));
        assert_eq!(b.queue_len("q"), Some(5));
        assert_eq!(b.stats().dropped, 0, "the armed drop is still armed");

        let c = b.consumer("q").unwrap();
        for d in c.pop_batch(8, Duration::ZERO) {
            c.ack(d.tag);
        }
        b.publish("pub", "lost").unwrap();
        assert_eq!(b.stats().dropped, 1, "spent on the next live publish");
        assert_eq!(b.queue_len("q"), Some(0));

        // Two of its own at the cap, then a live publish: killed.
        let own = (0..2u64).map(|p| (format!("own-{p}").into(), 0, p));
        assert_eq!(b.publish_to_queue("q", "own", own.collect()), 2);
        b.publish("pub", "one too many").unwrap();
        assert_eq!(b.queue_state("q"), Some(QueueState::Decommissioned));
        assert_eq!(
            b.publish_to_queue("q", "own", vec![("late".into(), 0, 0)]),
            0
        );
    }

    #[test]
    fn wait_ready_unparks_on_publish_and_counts_one_wakeup() {
        let b = broker_with("q");
        let c = b.consumer("q").unwrap();
        let h = thread::spawn(move || {
            let woke = c.wait_ready(Duration::from_secs(5));
            (woke, c.pop_batch_from(0, 8, Duration::ZERO).len())
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while b.queue_sleepers("q") != Some(1) {
            assert!(std::time::Instant::now() < deadline, "worker never parked");
            thread::sleep(Duration::from_millis(2));
        }
        b.publish("pub", "late").unwrap();
        let (woke, got) = h.join().unwrap();
        assert!(woke, "wait_ready returned before its timeout");
        assert_eq!(got, 1, "the unkeyed publish landed in partition 0");
        assert_eq!(b.stats().wakeups, 1);
    }

    #[test]
    fn stats_track_lifecycle() {
        let b = broker_with("q");
        b.publish("pub", "x").unwrap();
        let c = b.consumer("q").unwrap();
        let d = c.pop(Duration::from_millis(50)).unwrap();
        c.ack(d.tag);
        let s = b.stats();
        assert_eq!(s.published, 1);
        assert_eq!(s.enqueued, 1);
        assert_eq!(s.acked, 1);
    }
}

//! One service's Synapse runtime and the ecosystem wiring harness.

use crate::api::{Publication, PublicationRegistry, Subscription, SubscriptionRegistry};
use crate::bootstrap::{BootstrapStats, BootstrapTracker};
use crate::config::{SynapseConfig, VERSION_STORE_SHARDS};
use crate::context::{self, TxBuffer};
use crate::durability::{NodeSnapshot, SnapshotStore};
use crate::publisher::{Publisher, PublisherStats};
use crate::semantics::DeliveryMode;
use crate::subscriber::{Subscriber, SubscriberStats, Upstreams};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use synapse_broker::{Broker, Delivery, QueueConfig, QueueState, RecoveryReport, WalConfig};
use synapse_orm::{Adapter, Orm, OrmError};
use synapse_telemetry::{mono_nanos, Telemetry, TelemetrySnapshot};
use synapse_versionstore::{GenerationStore, VersionStore};

/// One application's Synapse runtime: its ORM, publisher, subscriber, and
/// version stores, bound to the shared broker.
pub struct SynapseNode {
    pub(crate) config: SynapseConfig,
    pub(crate) orm: Arc<Orm>,
    pub(crate) broker: Broker,
    pub(crate) pub_store: Arc<VersionStore>,
    pub(crate) sub_store: Arc<VersionStore>,
    generations: GenerationStore,
    pub(crate) publications: PublicationRegistry,
    pub(crate) subscriptions: SubscriptionRegistry,
    pub(crate) publisher: Arc<Publisher>,
    pub(crate) subscriber: Arc<Subscriber>,
    upstreams: Upstreams,
    /// The node's telemetry plane: staged latency histograms, counters,
    /// and the structured event ring, shared by publisher and subscriber.
    pub(crate) telemetry: Arc<Telemetry>,
    /// Bootstrap state machine, probe, and counters (the copier's, see
    /// [`crate::bootstrap`]).
    pub(crate) bootstrap: BootstrapTracker,
    /// Version-store snapshot store, when the durability plane is on.
    snapshots: Option<SnapshotStore>,
    /// Held across a persist's capture and write, so sequence order is
    /// capture order: the latest snapshot is never an older capture.
    persist_lock: Mutex<()>,
    /// Subscriber-processed count at the last persisted snapshot — the
    /// reference point of the driver-clocked snapshot cadence.
    snapshot_marker: AtomicU64,
}

/// One node's counters across the whole pipeline, aggregated for fault
/// accounting: everything a soak test needs to prove zero silent loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStats {
    /// Publisher-side counters (publishes, retries, journal exhaustions,
    /// generation bumps).
    pub publisher: PublisherStats,
    /// Subscriber-side counters (processed, retries, redeliveries,
    /// dead-lettered, poison).
    pub subscriber: SubscriberStats,
    /// Payloads the broker refused, journaled awaiting
    /// [`Publisher::recover`](crate::Publisher::recover).
    pub journaled: usize,
    /// Deliveries in this node's dead-letter store.
    pub dead_lettered: usize,
    /// Bootstrap state-machine phase, completions and attempt/retry/resume
    /// counters.
    pub bootstrap: BootstrapStats,
}

impl SynapseNode {
    /// Creates a node for `config.app` over `adapter`, attached to
    /// `broker`. Declares the app's queue and installs the publisher as a
    /// query observer on the ORM.
    pub fn new(config: SynapseConfig, adapter: Arc<dyn Adapter>, broker: Broker) -> Arc<Self> {
        let orm = Arc::new(Orm::new(config.app.clone(), adapter));
        let pub_store = Arc::new(VersionStore::new(VERSION_STORE_SHARDS));
        let sub_store = Arc::new(VersionStore::new(VERSION_STORE_SHARDS));
        let publications = Arc::new(RwLock::new(BTreeMap::new()));
        let subscriptions = Arc::new(RwLock::new(Vec::new()));
        let upstreams: Upstreams = Arc::default();
        let telemetry = Arc::new(Telemetry::new(config.telemetry_enabled));

        // Recover version state *before* any traffic: with the durability
        // plane on, load the latest snapshot into both stores so causal
        // waits and version admission see pre-crash state. The broker
        // has already replayed its WAL by this point (Broker::open_durable
        // runs before nodes are built), so this pass completes the node's
        // half of recovery. Store errors degrade to a memory-only node
        // with a counter raised, never a panic.
        let snapshots = config.durability.dir.as_ref().and_then(|root| {
            let t0 = mono_nanos();
            let counters = telemetry.counters();
            let store = match SnapshotStore::open(root.join("snapshots")) {
                Ok(store) => store,
                Err(_) => {
                    counters.counter("recovery.snapshot_open_errors").bump();
                    return None;
                }
            };
            match store.load_latest() {
                Ok(Some(snapshot)) => {
                    let entries = snapshot.entries() as u64;
                    let _ = pub_store.load_dump(&snapshot.pub_store);
                    let _ = sub_store.load_dump(&snapshot.sub_store);
                    counters.counter("recovery.snapshots_loaded").bump();
                    counters.counter("recovery.snapshot_entries").add(entries);
                }
                Ok(None) => {}
                Err(_) => counters.counter("recovery.snapshot_load_errors").bump(),
            }
            let skipped = store.stats().skipped_corrupt;
            if skipped > 0 {
                counters
                    .counter("recovery.snapshots_skipped_corrupt")
                    .add(skipped);
            }
            telemetry.record_recovery(mono_nanos().saturating_sub(t0));
            Some(store)
        });
        // Every start of a durable node bumps the generation in
        // `<dir>/generation` (§4.4), fsynced before the publisher exists:
        // what a restore loaded may lag what subscribers saw.
        let generations = match &config.durability.dir {
            Some(dir) => GenerationStore::open(dir.join("generation")).unwrap_or_else(|_| {
                let counters = telemetry.counters();
                counters.counter("recovery.generation_open_errors").bump();
                GenerationStore::new()
            }),
            None => GenerationStore::new(),
        };
        if let Some(report) = broker.recovery_report() {
            let counters = telemetry.counters();
            counters
                .counter("recovery.wal_replayed_entries")
                .add(report.replayed_entries);
            counters
                .counter("recovery.wal_torn_entries_dropped")
                .add(report.torn_entries_dropped);
            counters
                .counter("recovery.queues_recovered")
                .add(report.queues_recovered);
            counters
                .counter("recovery.messages_recovered")
                .add(report.messages_recovered);
        }

        broker.declare_queue(
            &config.app,
            QueueConfig {
                max_len: config.queue_max_len,
                partitions: config.queue_partitions,
            },
        );

        let publisher = Arc::new(Publisher::new(
            config.app.clone(),
            config.publisher_mode,
            config.dep_space,
            pub_store.clone(),
            sub_store.clone(),
            broker.clone(),
            generations.clone(),
            publications.clone(),
            subscriptions.clone(),
            telemetry.clone(),
        ));
        orm.observe(publisher.clone());

        let subscriber = Arc::new(Subscriber::new(
            &config,
            orm.clone(),
            sub_store.clone(),
            subscriptions.clone(),
            upstreams.clone(),
            broker.clone(),
            telemetry.clone(),
        ));

        Arc::new(SynapseNode {
            config,
            orm,
            broker,
            pub_store,
            sub_store,
            generations,
            publications,
            subscriptions,
            publisher,
            subscriber,
            upstreams,
            telemetry,
            bootstrap: BootstrapTracker::default(),
            snapshots,
            persist_lock: Mutex::new(()),
            snapshot_marker: AtomicU64::new(0),
        })
    }

    /// The application name.
    pub fn app(&self) -> &str {
        &self.config.app
    }

    /// The node's configuration.
    pub fn config(&self) -> &SynapseConfig {
        &self.config
    }

    /// The node's ORM (models, CRUD, callbacks, virtual attributes).
    pub fn orm(&self) -> &Arc<Orm> {
        &self.orm
    }

    /// The publisher runtime (stats, failure injection, recovery).
    pub fn publisher(&self) -> &Arc<Publisher> {
        &self.publisher
    }

    /// The subscriber runtime (stats, manual processing).
    pub fn subscriber(&self) -> &Arc<Subscriber> {
        &self.subscriber
    }

    /// The publisher-side version store.
    pub fn pub_store(&self) -> &Arc<VersionStore> {
        &self.pub_store
    }

    /// The subscriber-side version store.
    pub fn sub_store(&self) -> &Arc<VersionStore> {
        &self.sub_store
    }

    /// The publisher's generation store.
    pub fn generations(&self) -> &GenerationStore {
        &self.generations
    }

    /// Declares a publication (the `publish do … end` block).
    ///
    /// Enforces the decorator rule of §3.1: a service cannot publish
    /// attributes it subscribes to. Bidirectional models are exempt — a
    /// multi-writer mesh publishes and subscribes the *same* attributes by
    /// design, with concurrent writes settled last-writer-wins.
    /// Its fields are registered in wire order: sorted, each once.
    pub fn publish(&self, mut publication: Publication) -> Result<(), OrmError> {
        let subs = self.subscriptions.read();
        if let Some(sub) = subs.iter().find(|s| {
            s.model == publication.model && !(s.bidirectional && publication.bidirectional)
        }) {
            for f in &publication.fields {
                if sub.local_fields().contains(&f.as_str()) {
                    return Err(OrmError::Restriction(format!(
                        "decorator {} cannot publish subscribed attribute {}.{}",
                        self.app(),
                        publication.model,
                        f
                    )));
                }
            }
        }
        drop(subs);
        publication.fields.sort_unstable();
        publication.fields.dedup();
        self.publications
            .write()
            .insert(publication.model.clone(), Arc::new(publication));
        Ok(())
    }

    /// Declares a subscription (the `subscribe from: … do … end` block) and
    /// binds this app's queue to the publisher's exchange.
    pub fn subscribe(&self, subscription: Subscription) -> Result<(), OrmError> {
        // Decorator rule, checked from the other side (bidirectional
        // models are exempt, as in [`SynapseNode::publish`]).
        let pubs = self.publications.read();
        if let Some(publication) = pubs
            .get(&subscription.model)
            .filter(|p| !(p.bidirectional && subscription.bidirectional))
        {
            for f in subscription.local_fields() {
                if publication.fields.iter().any(|pf| pf == f) {
                    return Err(OrmError::Restriction(format!(
                        "decorator {} cannot subscribe to attribute {}.{} it publishes",
                        self.app(),
                        subscription.model,
                        f
                    )));
                }
            }
        }
        drop(pubs);
        self.broker.bind(&subscription.from, self.app());
        self.upstreams
            .write()
            .entry(subscription.from.clone())
            .or_insert_with(|| (DeliveryMode::Causal, AtomicU64::new(1)));
        self.subscriptions.write().push(Arc::new(subscription));
        Ok(())
    }

    /// Records the delivery mode `pub_app` supports (done automatically by
    /// [`Ecosystem::connect`]).
    pub fn set_publisher_mode(&self, pub_app: &str, mode: DeliveryMode) {
        self.upstreams
            .write()
            .entry(pub_app.to_owned())
            .or_insert_with(|| (mode, AtomicU64::new(1)))
            .0 = mode;
    }

    /// All declared publications.
    pub fn publications(&self) -> Vec<Publication> {
        let pubs = self.publications.read();
        pubs.values().map(|p| Publication::clone(p)).collect()
    }

    /// All declared subscriptions.
    pub fn subscriptions(&self) -> Vec<Subscription> {
        let subs = self.subscriptions.read();
        subs.iter().map(|s| Subscription::clone(s)).collect()
    }

    /// Starts the subscriber worker pool.
    pub fn start(&self) {
        self.subscriber.start(self.config.subscriber_workers);
    }

    /// Stops the subscriber workers.
    pub fn stop(&self) {
        self.subscriber.stop();
    }

    /// Runs `f` with all its writes combined into a single message (§4.2:
    /// "all writes within a single transaction are combined into a single
    /// message").
    pub fn transaction<R>(&self, f: impl FnOnce() -> R) -> R {
        let opened_scope = !context::in_scope();
        let run = || {
            context::scope_mut(|s| s.tx_buffer = Some(TxBuffer::default()));
            let out = f();
            let buffer = context::scope_mut(|s| s.tx_buffer.take()).flatten();
            if let Some(buffer) = buffer {
                self.publisher.flush_transaction(buffer);
            }
            out
        };
        if opened_scope {
            context::with_scope(run).0
        } else {
            run()
        }
    }

    /// Publisher counters.
    pub fn publisher_stats(&self) -> PublisherStats {
        self.publisher.stats()
    }

    /// Subscriber counters.
    pub fn subscriber_stats(&self) -> SubscriberStats {
        self.subscriber.stats()
    }

    /// The node's telemetry plane (staged latency histograms, counters,
    /// event ring, controller-overhead table).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// One coherent export of the telemetry plane: the staged
    /// visibility-latency histograms and delivered counts per mode, plus
    /// every layer's counters folded into the counter list — publisher and
    /// subscriber pipeline counters, ORM intercept counts, and the version
    /// stores' apply/wait timing — so a single snapshot answers both "how
    /// late" and "how much" for this node.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        let stats = self.stats();
        let (p, s) = (&stats.publisher, &stats.subscriber);
        let mut extra: Vec<(String, u64)> = [
            ("publisher.messages_published", p.messages_published),
            ("publisher.operations", p.operations),
            ("publisher.publish_retries", p.publish_retries),
            ("publisher.publish_failures", p.publish_failures),
            ("publisher.generation_bumps", p.generation_bumps),
            ("publisher.journaled", stats.journaled as u64),
            ("subscriber.messages_processed", s.messages_processed),
            ("subscriber.ops_applied", s.ops_applied),
            ("subscriber.ops_stale", s.ops_stale),
            ("subscriber.dep_timeouts", s.dep_timeouts),
            ("subscriber.set_aside", s.set_aside),
            ("subscriber.retries", s.retries),
            ("subscriber.dead_lettered", s.dead_lettered),
            ("subscriber.steals", s.steals),
            ("subscriber.messages_stolen", s.messages_stolen),
            ("subscriber.generation_advances", s.generation_advances),
            ("orm.writes_intercepted", self.orm.writes_intercepted()),
            ("orm.reads_observed", self.orm.reads_observed()),
        ]
        .map(|(name, value)| (name.to_owned(), value))
        .into();
        // Delivery-plane gauges and counters: the queue-depth reads are
        // lock-free (relaxed atomics maintained by the partitions), so this
        // poll never contends with the publish/pop hot path.
        let app = &self.config.app;
        if let Some(depth) = self.broker.queue_len(app) {
            extra.push(("broker.queue_depth".into(), depth as u64));
        }
        if let Some(unacked) = self.broker.queue_unacked_len(app) {
            extra.push(("broker.queue_unacked".into(), unacked as u64));
        }
        if let Some(depths) = self.broker.partition_depths(app) {
            for (i, d) in depths.iter().enumerate() {
                extra.push((format!("broker.partition_depth.{i}"), *d as u64));
            }
        }
        let broker_stats = self.broker.stats();
        extra.push(("broker.wakeups".into(), broker_stats.wakeups));
        extra.push(("broker.steals".into(), broker_stats.steals));
        extra.push(("broker.stolen".into(), broker_stats.stolen));
        for (store, name) in [
            (&self.pub_store, "pub_store"),
            (&self.sub_store, "sub_store"),
        ] {
            let timing = store.timing();
            extra.push((format!("{name}.applies"), timing.applies));
            extra.push((format!("{name}.apply_nanos"), timing.apply_nanos));
            extra.push((format!("{name}.waits"), timing.waits));
            extra.push((format!("{name}.wait_nanos"), timing.wait_nanos));
        }
        // Durability-plane counters: live WAL accounting from the broker
        // and the snapshot store's lifetime counters. (The `recovery.*`
        // counters were bumped into the registry at construction, so they
        // ride in through the registry snapshot.)
        if let Some(ws) = self.broker.wal_stats() {
            extra.push(("wal.appends".into(), ws.appends));
            extra.push(("wal.bytes_appended".into(), ws.bytes_appended));
            extra.push(("wal.fsyncs".into(), ws.fsyncs));
            extra.push(("wal.segments_rolled".into(), ws.segments_rolled));
            extra.push(("wal.segments_removed".into(), ws.segments_removed));
            extra.push(("wal.group_commits".into(), ws.group_commits));
        }
        if let Some(gs) = self.broker.wal_group_size() {
            extra.push(("wal.group_size_p50".into(), gs.p50()));
            extra.push(("wal.group_size_p99".into(), gs.p99()));
        }
        if let Some(cw) = self.broker.wal_commit_wait() {
            extra.push(("wal.commit_wait_p50_nanos".into(), cw.p50()));
            extra.push(("wal.commit_wait_p99_nanos".into(), cw.p99()));
        }
        if let Some(store) = &self.snapshots {
            let s = store.stats();
            extra.push(("durability.snapshots_persisted".into(), s.persisted));
            extra.push(("durability.snapshot_bytes".into(), s.bytes_persisted));
            #[cfg(any(test, feature = "testing"))]
            extra.push(("durability.snapshots_interrupted".into(), s.interrupted));
        }
        snap.counters.extend(extra);
        snap.counters.sort();
        snap
    }

    /// The version-store snapshot store, when the durability plane is on
    /// (fault hooks and lifetime counters live there).
    pub fn snapshot_store(&self) -> Option<&SnapshotStore> {
        self.snapshots.as_ref()
    }

    /// Persists a [`NodeSnapshot`] of both version stores — including the
    /// object admission state kept in the subscriber store — plus the
    /// broker's current WAL position. Returns the assigned sequence, or
    /// `Ok(0)` as a no-op when durability is off (mirroring
    /// [`Broker::checkpoint`]). Calls that overlap run one at a time, so
    /// the newest snapshot holds the newest capture.
    pub fn persist_snapshot(&self) -> io::Result<u64> {
        let _persisting = self.persist_lock.lock();
        self.persist_locked()
    }

    /// Captures and persists a snapshot; the caller holds `persist_lock`.
    /// Each success adds its wall time, capture included, to the
    /// `durability.snapshot_nanos` counter.
    fn persist_locked(&self) -> io::Result<u64> {
        let Some(store) = &self.snapshots else {
            return Ok(0);
        };
        let t0 = mono_nanos();
        let pub_store = self
            .pub_store
            .dump()
            .map_err(|e| io::Error::other(format!("pub store dump failed: {e:?}")))?;
        let sub_store = self
            .sub_store
            .dump()
            .map_err(|e| io::Error::other(format!("sub store dump failed: {e:?}")))?;
        let snapshot = NodeSnapshot {
            seq: 0, // assigned by the store
            wal_pos: self.broker.wal_position().unwrap_or_default(),
            pub_store,
            sub_store,
        };
        let seq = store.persist(&snapshot)?;
        self.telemetry
            .counters()
            .add("durability.snapshot_nanos", mono_nanos().saturating_sub(t0));
        Ok(seq)
    }

    /// Driver-clocked snapshot cadence: persists a snapshot once the
    /// subscriber has processed `durability.snapshot_every` more messages
    /// since the last one. Message-count-based rather than wall-clock, so
    /// seeded runs snapshot at identical points (see DESIGN.md). Returns
    /// the persisted sequence, if one was taken; persist errors raise a
    /// counter and leave the marker unmoved, so the next call retries.
    /// A call that finds a persist already running skips.
    pub fn maybe_snapshot(&self) -> Option<u64> {
        let every = self.config.durability.snapshot_every?;
        self.snapshots.as_ref()?;
        let _persisting = self.persist_lock.try_lock()?;
        let processed = self.subscriber.stats().messages_processed;
        let marker = self.snapshot_marker.load(Ordering::Relaxed);
        if processed.saturating_sub(marker) < every.max(1) {
            return None;
        }
        match self.persist_locked() {
            Ok(seq) => {
                self.snapshot_marker.store(processed, Ordering::Relaxed);
                Some(seq)
            }
            Err(_) => {
                self.telemetry
                    .counters()
                    .counter("durability.snapshot_errors")
                    .bump();
                None
            }
        }
    }

    /// Aggregated pipeline counters for fault accounting.
    pub fn stats(&self) -> NodeStats {
        NodeStats {
            publisher: self.publisher.stats(),
            subscriber: self.subscriber.stats(),
            journaled: self.publisher.journal_len(),
            dead_lettered: self.broker.dead_letter_len(self.app()).unwrap_or(0),
            bootstrap: self.bootstrap_stats(),
        }
    }

    /// Snapshot of this node's dead-letter store (consumed-but-unapplied
    /// deliveries, §6.5 hardening).
    pub fn dead_letters(&self) -> Vec<Delivery> {
        self.broker.dead_letters(self.app()).unwrap_or_default()
    }

    /// Whether this node's queue has been decommissioned (§4.4).
    pub fn is_decommissioned(&self) -> bool {
        self.broker.queue_state(self.app()) == Some(QueueState::Decommissioned)
    }
}

/// The deployment harness: a shared broker and a set of nodes, with static
/// cross-service checks (§4.5).
#[derive(Default)]
pub struct Ecosystem {
    broker: Broker,
    nodes: RwLock<BTreeMap<String, Arc<SynapseNode>>>,
}

impl Ecosystem {
    /// Creates an empty ecosystem with its own broker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an ecosystem whose broker logs to a durable WAL rooted at
    /// `cfg.dir`, replaying any existing log first — the restart entry
    /// point of the durability plane. Returns the recovery report so
    /// callers can assert exactly what the restart recovered.
    pub fn new_durable(cfg: WalConfig) -> io::Result<(Ecosystem, RecoveryReport)> {
        let (broker, report) = Broker::open_durable(cfg)?;
        Ok((Ecosystem::with_broker(broker), report))
    }

    /// Creates an ecosystem around an existing broker (one opened durable
    /// by the caller, or shared with another harness).
    fn with_broker(broker: Broker) -> Ecosystem {
        Ecosystem {
            broker,
            nodes: RwLock::new(BTreeMap::new()),
        }
    }

    /// The shared broker.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// Creates and registers a node.
    pub fn add_node(&self, config: SynapseConfig, adapter: Arc<dyn Adapter>) -> Arc<SynapseNode> {
        let node = SynapseNode::new(config, adapter, self.broker.clone());
        self.nodes
            .write()
            .insert(node.app().to_owned(), node.clone());
        node
    }

    /// Looks up a node by app name.
    pub fn node(&self, app: &str) -> Option<Arc<SynapseNode>> {
        self.nodes.read().get(app).cloned()
    }

    /// Propagates publisher delivery modes to subscribers and runs the
    /// static checks; returns the list of violations (empty = ok).
    ///
    /// This is the paper's static checking: "Synapse statically checks that
    /// subscribers don't attempt to subscribe to models and attributes that
    /// are unpublished, providing warnings immediately" (§4.5).
    pub fn connect(&self) -> Vec<String> {
        let nodes = self.nodes.read();
        let mut violations = Vec::new();
        for node in nodes.values() {
            for sub in node.subscriptions() {
                match nodes.get(&sub.from) {
                    None => violations.push(format!(
                        "{}: subscribes to {} from unknown app {}",
                        node.app(),
                        sub.model,
                        sub.from
                    )),
                    Some(publisher) => {
                        node.set_publisher_mode(
                            sub.from.clone().as_str(),
                            publisher.config().publisher_mode,
                        );
                        let pubs = publisher.publications();
                        match pubs.iter().find(|p| p.model == sub.model) {
                            None => violations.push(format!(
                                "{}: subscribes to unpublished model {}/{}",
                                node.app(),
                                sub.from,
                                sub.model
                            )),
                            Some(publication) => {
                                for f in &sub.fields {
                                    if !publication.fields.contains(f) {
                                        violations.push(format!(
                                            "{}: subscribes to unpublished attribute {}/{}.{}",
                                            node.app(),
                                            sub.from,
                                            sub.model,
                                            f
                                        ));
                                    }
                                }
                                // Multi-writer mesh consistency: a
                                // bidirectional subscription only works
                                // against a publication that stamps its
                                // writes with LWW stamps, and vice
                                // versa — a mismatch silently degrades to
                                // last-apply-wins on one side.
                                if sub.bidirectional && !publication.bidirectional {
                                    violations.push(format!(
                                        "{}: bidirectional subscription to {}/{} but the publication is not bidirectional",
                                        node.app(),
                                        sub.from,
                                        sub.model
                                    ));
                                }
                                if publication.bidirectional && !sub.bidirectional {
                                    violations.push(format!(
                                        "{}: subscription to bidirectional {}/{} must itself be bidirectional",
                                        node.app(),
                                        sub.from,
                                        sub.model
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        violations
    }

    /// Starts every node's subscriber workers.
    pub fn start_all(&self) {
        for node in self.nodes.read().values() {
            node.start();
        }
    }

    /// Stops every node's subscriber workers.
    pub fn stop_all(&self) {
        for node in self.nodes.read().values() {
            node.stop();
        }
    }
}

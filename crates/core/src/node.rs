//! One service's Synapse runtime and the ecosystem wiring harness.

use crate::api::{Publication, PublicationRegistry, Subscription, SubscriptionRegistry};
use crate::config::{SynapseConfig, VERSION_STORE_SHARDS};
use crate::context::{self, TxBuffer};
use crate::deps::DepName;
use crate::durability::{NodeSnapshot, SnapshotStore};
use crate::message::{Operation, WriteMessage};
use crate::publisher::{Publisher, PublisherStats};
use crate::semantics::DeliveryMode;
use crate::subscriber::{ProcessError, Subscriber, SubscriberStats};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_broker::{
    Broker, Delivery, QueueConfig, QueueState, RecoveryReport, SharedStr, WalConfig,
    BOOTSTRAP_EXCHANGE,
};
use synapse_db::DbError;
use synapse_model::{Id, Record};
use synapse_orm::{Adapter, Orm, OrmError};
use synapse_telemetry::{mono_nanos, Telemetry, TelemetrySnapshot};
use synapse_versionstore::{DepKey, GenerationStore, VersionStore, VersionVector};

/// How long [`SynapseNode::bootstrap_from`]'s finalize step waits for the
/// subscriber to account for the merged chunk copies before going Live
/// anyway. This bounds only the *caller's* blocking time — workers keep
/// draining live traffic throughout — and on expiry the node still goes
/// Live safely: the copies are durably enqueued and version-store
/// admission makes their late application a no-op or an upsert, never a
/// regression.
const FINALIZE_SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the bootstrap copier waits for every queue partition to
/// consume a chunk's high watermark before proceeding without the
/// reconciliation pre-filter. Correctness never depends on the wait
/// (per-row version admission discards the same stale copies), so this
/// bounds latency, not safety.
const BOOTSTRAP_WINDOW_TIMEOUT: Duration = Duration::from_millis(500);

/// Outcome of one committed chunk copy.
struct ChunkCopy {
    /// Last id selected (the new watermark, already committed).
    last: u64,
    /// Copies merged into the delivery queue (zero on the sync path).
    merged: u64,
}

/// Coarse phase of the bootstrap state machine — `Copy`-cheap so it can
/// ride in [`NodeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BootstrapPhase {
    /// No bootstrap running (and none has completed since the last reset).
    #[default]
    Idle,
    /// Step 1: bulk version-snapshot transfer.
    Snapshot,
    /// Step 2a: selecting a chunk between its lo/hi watermarks.
    Copying,
    /// Step 2b: reconciling a selected chunk against the live writes
    /// observed inside its watermark window, then merging the survivors
    /// into the delivery queue.
    Reconciling,
    /// All chunks merged; waiting (without pausing delivery) for the
    /// subscriber to account for them, then clearing resume watermarks.
    Finalizing,
    /// Bootstrap completed; the node serves live traffic.
    Live,
}

/// The bootstrap state machine: Idle → Snapshot → (Copying{model, chunk} →
/// Reconciling{model, chunk})* → Finalizing → Live, falling back to Idle
/// when an attempt fails. The rich variants carry which model/chunk the
/// copier is on; tests hook [`SynapseNode::set_bootstrap_probe`] on
/// transitions to inject faults at exact phases. There is no drain state:
/// chunk copies merge into the partitioned delivery queue behind the live
/// stream, so delivery never pauses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BootstrapState {
    /// No bootstrap running.
    #[default]
    Idle,
    /// Step 1: bulk version-snapshot transfer.
    Snapshot,
    /// Step 2a: selecting chunk `chunk` (0-based) of `model` between its
    /// lo and hi watermark markers.
    Copying {
        /// Model being copied.
        model: String,
        /// 0-based chunk index within this attempt.
        chunk: u64,
    },
    /// Step 2b: reconciling chunk `chunk` of `model` against the live
    /// writes its watermark window observed, then merging the survivors.
    Reconciling {
        /// Model being reconciled.
        model: String,
        /// 0-based chunk index within this attempt.
        chunk: u64,
    },
    /// All chunks merged; settling the merged copies and clearing resume
    /// watermarks. Live delivery continues throughout.
    Finalizing,
    /// Bootstrap completed.
    Live,
}

impl BootstrapState {
    /// The coarse phase of this state.
    pub fn phase(&self) -> BootstrapPhase {
        match self {
            BootstrapState::Idle => BootstrapPhase::Idle,
            BootstrapState::Snapshot => BootstrapPhase::Snapshot,
            BootstrapState::Copying { .. } => BootstrapPhase::Copying,
            BootstrapState::Reconciling { .. } => BootstrapPhase::Reconciling,
            BootstrapState::Finalizing => BootstrapPhase::Finalizing,
            BootstrapState::Live => BootstrapPhase::Live,
        }
    }
}

/// Bootstrap attempt/retry/resume accounting, surfaced through
/// [`NodeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BootstrapStats {
    /// Current coarse phase.
    pub phase: BootstrapPhase,
    /// `bootstrap_from` invocations (completed or not).
    pub attempts: u64,
    /// Completed bootstraps (same counter as [`NodeStats::bootstraps`]).
    pub completions: u64,
    /// Transient step failures absorbed by the retry policy (chunk copies,
    /// snapshot transfers) rather than failing the attempt.
    pub retries: u64,
    /// Models whose copy resumed from a surviving watermark instead of
    /// starting over.
    pub resumes: u64,
    /// Chunks committed (watermark advanced) across all attempts.
    pub chunks_copied: u64,
    /// Records persisted by the copier.
    pub records_copied: u64,
    /// Copied records discarded because the live stream had already
    /// delivered an equal-or-newer version — either dropped by the
    /// watermark-window pre-filter or refused by version-store admission.
    pub records_reconciled: u64,
    /// Chunk copies merged into the partitioned delivery queue (the
    /// pause-free path; a node without workers hands its copies to the
    /// subscriber directly and leaves this at zero).
    pub copies_merged: u64,
    /// Watermark windows that timed out before both markers were observed
    /// (the copy proceeded on version-store admission alone).
    pub windows_timed_out: u64,
    /// Post-convergence watermark cleanups that failed and were deferred
    /// to the next attempt instead of failing an otherwise-complete
    /// bootstrap.
    pub cleanup_deferred: u64,
}

/// Observer of bootstrap state transitions (fault-injection hook).
type BootstrapProbe = Box<dyn Fn(&BootstrapState) + Send + Sync>;

/// Shared bootstrap bookkeeping: the state machine, its transition probe,
/// and the attempt/retry/resume counters.
#[derive(Default)]
struct BootstrapTracker {
    state: RwLock<BootstrapState>,
    probe: RwLock<Option<BootstrapProbe>>,
    attempts: AtomicU64,
    retries: AtomicU64,
    resumes: AtomicU64,
    chunks_copied: AtomicU64,
    records_copied: AtomicU64,
    records_reconciled: AtomicU64,
    copies_merged: AtomicU64,
    cleanup_deferred: AtomicU64,
    /// Set when a post-convergence watermark cleanup failed: the next
    /// attempt must clear the stale watermarks *before* trusting any
    /// resume state.
    watermarks_dirty: AtomicBool,
    /// Lineage floor: the queue's cumulative `(discarded, dropped)` pair
    /// as of the last bootstrap attempt. Movement between attempts means
    /// the live stream lost coverage, so committed copy watermarks can no
    /// longer be resumed from. (Queue-refused publishes are deliberately
    /// not part of the signal: a refused message stays in the publisher's
    /// journal and is republished, so coverage is delayed, not broken.)
    lineage: Mutex<Option<(u64, u64)>>,
    /// Armed chunk-copy failures (fault hook): the next N `copy_chunk`
    /// invocations fail transiently before doing any work.
    copy_fail_next: AtomicU64,
}

impl BootstrapTracker {
    /// Moves the state machine and notifies the probe (outside the state
    /// lock, so a probe may read the state or inject faults freely).
    fn transition(&self, next: BootstrapState) {
        *self.state.write() = next.clone();
        if let Some(probe) = self.probe.read().as_ref() {
            probe(&next);
        }
    }
}

/// RAII guard around one bootstrap attempt: sets the ORM bootstrap flag on
/// entry and clears it on *every* exit path — the `?` early-returns in
/// steps 1–2 used to leak the flag and permanently wedge the node in
/// bootstrap mode. A drop without [`BootstrapGuard::complete`] also walks
/// the state machine back to Idle, so a failed attempt leaves the node
/// writable and re-enterable.
struct BootstrapGuard<'a> {
    node: &'a SynapseNode,
    completed: bool,
}

impl<'a> BootstrapGuard<'a> {
    fn new(node: &'a SynapseNode) -> Self {
        node.orm.set_bootstrap(true);
        BootstrapGuard {
            node,
            completed: false,
        }
    }

    /// Marks the attempt successful: the flag still clears on drop, but
    /// the state machine is left to the caller (which moves it to Live).
    fn complete(mut self) {
        self.completed = true;
    }
}

impl Drop for BootstrapGuard<'_> {
    fn drop(&mut self) {
        self.node.orm.set_bootstrap(false);
        if !self.completed {
            self.node.bootstrap.transition(BootstrapState::Idle);
        }
    }
}

/// One application's Synapse runtime: its ORM, publisher, subscriber, and
/// version stores, bound to the shared broker.
pub struct SynapseNode {
    config: SynapseConfig,
    orm: Arc<Orm>,
    broker: Broker,
    pub_store: Arc<VersionStore>,
    sub_store: Arc<VersionStore>,
    generations: GenerationStore,
    publications: PublicationRegistry,
    subscriptions: SubscriptionRegistry,
    publisher: Arc<Publisher>,
    subscriber: Arc<Subscriber>,
    publisher_modes: Arc<RwLock<HashMap<String, DeliveryMode>>>,
    /// The node's telemetry plane: staged latency histograms, counters,
    /// and the structured event ring, shared by publisher and subscriber.
    telemetry: Arc<Telemetry>,
    /// Completed (re-)bootstraps — the recovery counter of §4.4.
    bootstraps: AtomicU64,
    /// Bootstrap state machine, probe, and counters.
    bootstrap: BootstrapTracker,
    /// Version-store snapshot store, when the durability plane is on.
    snapshots: Option<SnapshotStore>,
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
    /// Payloads journaled but not yet confirmed at the broker.
    pub journaled: usize,
    /// Deliveries in this node's dead-letter store.
    pub dead_lettered: usize,
    /// Completed (re-)bootstraps.
    pub bootstraps: u64,
    /// Bootstrap state-machine phase and attempt/retry/resume counters.
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
        let generations = GenerationStore::new();
        let publications = Arc::new(RwLock::new(BTreeMap::new()));
        let subscriptions = Arc::new(RwLock::new(Vec::new()));
        let publisher_modes = Arc::new(RwLock::new(HashMap::new()));
        let telemetry = Arc::new(Telemetry::new(config.telemetry_enabled));

        // Recover version state *before* any traffic: with the durability
        // plane on, load the latest snapshot into both stores so causal
        // waits and bootstrap watermarks see pre-crash state. The broker
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
                    let entries = (snapshot.pub_entries.len() + snapshot.sub_entries.len()) as u64;
                    let _ = pub_store.load_dump(&snapshot.pub_entries);
                    let _ = sub_store.load_dump(&snapshot.sub_entries);
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
            config.retry,
            telemetry.clone(),
        ));
        orm.observe(publisher.clone());

        let subscriber = Arc::new(Subscriber::new(
            &config,
            orm.clone(),
            sub_store.clone(),
            subscriptions.clone(),
            publisher_modes.clone(),
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
            publisher_modes,
            telemetry,
            bootstraps: AtomicU64::new(0),
            bootstrap: BootstrapTracker::default(),
            snapshots,
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
    /// design, with concurrent writes handled by conflict resolution.
    pub fn publish(&self, publication: Publication) -> Result<(), OrmError> {
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
        self.publisher_modes
            .write()
            .entry(subscription.from.clone())
            .or_insert(DeliveryMode::Causal);
        self.subscriptions.write().push(Arc::new(subscription));
        Ok(())
    }

    /// Records the delivery mode `pub_app` supports (done automatically by
    /// [`Ecosystem::connect`]).
    pub fn set_publisher_mode(&self, pub_app: &str, mode: DeliveryMode) {
        self.publisher_modes
            .write()
            .insert(pub_app.to_owned(), mode);
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
        let mut extra: Vec<(String, u64)> = vec![
            (
                "publisher.messages_published".into(),
                stats.publisher.messages_published,
            ),
            ("publisher.operations".into(), stats.publisher.operations),
            (
                "publisher.publish_retries".into(),
                stats.publisher.publish_retries,
            ),
            (
                "publisher.publish_failures".into(),
                stats.publisher.publish_failures,
            ),
            ("publisher.journaled".into(), stats.journaled as u64),
            (
                "subscriber.messages_processed".into(),
                stats.subscriber.messages_processed,
            ),
            (
                "subscriber.ops_applied".into(),
                stats.subscriber.ops_applied,
            ),
            ("subscriber.ops_stale".into(), stats.subscriber.ops_stale),
            (
                "subscriber.dep_timeouts".into(),
                stats.subscriber.dep_timeouts,
            ),
            ("subscriber.retries".into(), stats.subscriber.retries),
            (
                "subscriber.dead_lettered".into(),
                stats.subscriber.dead_lettered,
            ),
            ("subscriber.steals".into(), stats.subscriber.steals),
            (
                "subscriber.messages_stolen".into(),
                stats.subscriber.messages_stolen,
            ),
            (
                "orm.writes_intercepted".into(),
                self.orm.writes_intercepted(),
            ),
            ("orm.reads_observed".into(), self.orm.reads_observed()),
        ];
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
    /// bootstrap watermarks riding in the subscriber store — plus the
    /// broker's current WAL position. Returns the assigned sequence, or
    /// `Ok(0)` as a no-op when durability is off (mirroring
    /// [`Broker::checkpoint`]).
    pub fn persist_snapshot(&self) -> io::Result<u64> {
        let Some(store) = &self.snapshots else {
            return Ok(0);
        };
        let pub_entries = self
            .pub_store
            .dump()
            .map_err(|e| io::Error::other(format!("pub store dump failed: {e:?}")))?;
        let sub_entries = self
            .sub_store
            .dump()
            .map_err(|e| io::Error::other(format!("sub store dump failed: {e:?}")))?;
        let snapshot = NodeSnapshot {
            seq: 0, // assigned by the store
            wal_pos: self.broker.wal_position().unwrap_or_default(),
            pub_entries,
            sub_entries,
        };
        store.persist(&snapshot)
    }

    /// Driver-clocked snapshot cadence: persists a snapshot once the
    /// subscriber has processed `durability.snapshot_every` more messages
    /// since the last one. Message-count-based rather than wall-clock, so
    /// seeded runs snapshot at identical points (see DESIGN.md). Returns
    /// the persisted sequence, if one was taken; persist errors raise a
    /// counter and leave the marker unmoved, so the next call retries.
    pub fn maybe_snapshot(&self) -> Option<u64> {
        let every = self.config.durability.snapshot_every?;
        self.snapshots.as_ref()?;
        let processed = self.subscriber.stats().messages_processed;
        let marker = self.snapshot_marker.load(Ordering::Relaxed);
        if processed.saturating_sub(marker) < every.max(1) {
            return None;
        }
        match self.persist_snapshot() {
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
            bootstraps: self.bootstraps.load(Ordering::Relaxed),
            bootstrap: self.bootstrap_stats(),
        }
    }

    /// Bootstrap state-machine phase and counters.
    pub fn bootstrap_stats(&self) -> BootstrapStats {
        BootstrapStats {
            phase: self.bootstrap.state.read().phase(),
            attempts: self.bootstrap.attempts.load(Ordering::Relaxed),
            completions: self.bootstraps.load(Ordering::Relaxed),
            retries: self.bootstrap.retries.load(Ordering::Relaxed),
            resumes: self.bootstrap.resumes.load(Ordering::Relaxed),
            chunks_copied: self.bootstrap.chunks_copied.load(Ordering::Relaxed),
            records_copied: self.bootstrap.records_copied.load(Ordering::Relaxed),
            // Reconciliation happens in two places: the copier's
            // watermark-window pre-filter (tallied here) and version-store
            // admission in the subscriber's copy path (tallied there);
            // fold both in so the stat means "copies the live stream won".
            records_reconciled: self
                .bootstrap
                .records_reconciled
                .load(Ordering::Relaxed)
                .saturating_add(self.subscriber.stats().copies_reconciled),
            copies_merged: self.bootstrap.copies_merged.load(Ordering::Relaxed),
            windows_timed_out: self.subscriber.watermark_gate().windows_timed_out(),
            cleanup_deferred: self.bootstrap.cleanup_deferred.load(Ordering::Relaxed),
        }
    }

    /// Installs a probe called on every bootstrap state transition — the
    /// fault plane's bootstrap-phase hook: a test can kill a shard or
    /// restart the broker exactly when the copier enters a given chunk.
    pub fn set_bootstrap_probe(&self, probe: impl Fn(&BootstrapState) + Send + Sync + 'static) {
        *self.bootstrap.probe.write() = Some(Box::new(probe));
    }

    /// Removes the bootstrap transition probe.
    pub fn clear_bootstrap_probe(&self) {
        *self.bootstrap.probe.write() = None;
    }

    /// Arms the copy-failure fault hook: the next `n` chunk copies fail
    /// with a transient error before doing any work, exercising the
    /// copier's retry/resume path exactly as a flaky engine or store
    /// would (the chunk-level analogue of
    /// `Broker::inject_publish_failures`).
    pub fn inject_copy_failures(&self, n: u64) {
        self.bootstrap.copy_fail_next.fetch_add(n, Ordering::SeqCst);
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

    /// Sets the bootstrap flag *before* starting the workers, then runs the
    /// three-step bootstrap — the ordering a fresh subscriber needs so that
    /// no backlog message is processed outside bootstrap mode (Fig. 2's
    /// `Synapse.bootstrap?` contract).
    pub fn start_and_bootstrap_from(&self, publisher: &SynapseNode) -> Result<(), OrmError> {
        self.orm.set_bootstrap(true);
        self.start();
        self.bootstrap_from(publisher)
    }

    /// Pause-free bootstrap from a publisher node (§4.4), rebuilt as
    /// DBLog-style watermark interleaving: each chunk is selected between
    /// a lo and a hi watermark marker injected into the live stream, rows
    /// the live stream touched inside that window are discarded in favor
    /// of the live messages, and the surviving copies are merged into the
    /// partitioned delivery queue behind the live traffic. There is no
    /// drain phase — delivery never pauses. Also used for *partial*
    /// bootstrap after a decommission or subscriber version-store loss —
    /// the queue is reinstated and the store revived first.
    ///
    /// Workers should already be running (or use
    /// [`SynapseNode::start_and_bootstrap_from`]). On a node without
    /// workers nothing would consume the queue, so the copier publishes no
    /// markers, opens no reconciliation window and merges nothing
    /// (`copies_merged` stays 0): it hands each copy message to
    /// [`Subscriber::process`](crate::subscriber::Subscriber::process)
    /// itself, under the same version-store admission and chunk
    /// watermarks; live messages queued meanwhile apply once workers start.
    ///
    /// Fault posture:
    /// - The ORM bootstrap flag is held by an RAII guard, so every exit
    ///   path — including transient-fault exhaustion mid-copy — leaves the
    ///   node writable.
    /// - Step 2 copies in chunks of `config.bootstrap_chunk_size` records,
    ///   committing a per-model watermark (last copied id) to the
    ///   subscriber version store after each chunk. A transient engine or
    ///   store fault retries the *chunk* under `config.retry` instead of
    ///   aborting the bootstrap; if the attempt still fails, the
    ///   watermarks survive and the next `bootstrap_from` resumes after
    ///   the last committed chunk — but only while the queue's discard
    ///   lineage shows the live stream stayed gap-free in between.
    /// - Concurrent writes are reconciled twice: the watermark window
    ///   pre-filters rows the live stream touched mid-chunk, and
    ///   version-store admission ([`synapse_versionstore::AdmitRule::Copy`]) refuses any copy
    ///   whose marker does not strictly beat the locally committed
    ///   version — including destroy tombstones, so a row deleted
    ///   mid-chunk cannot be resurrected by its in-flight copy.
    pub fn bootstrap_from(&self, publisher: &SynapseNode) -> Result<(), OrmError> {
        let guard = BootstrapGuard::new(self);
        // The attempt counter doubles as the watermark session id: markers
        // from an abandoned attempt carry a stale session and are ignored
        // by the gate.
        let session = self.bootstrap.attempts.fetch_add(1, Ordering::Relaxed) + 1;
        let reinstated = if self.is_decommissioned() {
            self.broker.reinstate_queue(self.app())
        } else {
            false
        };
        if self.sub_store.is_dead() {
            self.sub_store.revive();
        }
        // Committed copy watermarks are resume state, but only while the
        // live stream stayed gap-free since they were written: every
        // copied chunk relies on later live messages to carry the writes
        // it raced with. Any movement in the queue's cumulative loss
        // counters since the last attempt — a decommission sweeping the
        // backlog, injected drops — breaks that marker lineage and forces
        // the copy to restart. Refused publishes do NOT break lineage:
        // they stay in the publisher's journal and are republished. A
        // reinstate with no recorded floor (fresh process) is
        // conservatively treated as broken; a reinstate whose
        // decommission swept nothing keeps its watermarks.
        let lineage_now = self.lineage_signal();
        let lineage_broken = {
            let mut floor = self.bootstrap.lineage.lock();
            let broken = match (floor.as_ref(), lineage_now.as_ref()) {
                (Some(prev), Some(now)) => prev != now,
                _ => reinstated,
            };
            *floor = lineage_now;
            broken
        };
        if lineage_broken || self.bootstrap.watermarks_dirty.load(Ordering::SeqCst) {
            self.clear_bootstrap_watermarks(publisher)?;
            self.bootstrap
                .watermarks_dirty
                .store(false, Ordering::SeqCst);
        }

        // Step 1: bulk-load the publisher's current versions.
        self.bootstrap.transition(BootstrapState::Snapshot);
        let snapshot = self.retry_transient(|| {
            publisher
                .pub_store
                .snapshot()
                .map_err(|_| OrmError::Db(DbError::Unavailable))
        })?;
        self.retry_transient(|| {
            self.subscriber
                .load_version_snapshot(&snapshot)
                .map_err(|_| OrmError::Db(DbError::Unavailable))
        })?;

        // Step 2: watermark-interleaved chunked copy of all currently
        // published objects. The subscription/publication locks are held
        // only long enough to collect the matching pairs — not across the
        // paged reads and marshalling.
        let pairs: Vec<(String, Arc<Publication>)> = {
            let subs = self.subscriptions.read();
            let pubs = publisher.publications.read();
            subs.iter()
                .filter(|s| s.from == publisher.app())
                .filter_map(|s| pubs.get(&s.model).map(|p| (s.model.clone(), p.clone())))
                .collect()
        };
        let workers_live = self.subscriber.workers_running();
        let gate = self.subscriber.watermark_gate().clone();
        let sub_baseline = self.subscriber.stats();
        if workers_live {
            gate.activate();
        }
        let copied = self.copy_models(publisher, &pairs, session, workers_live);
        if workers_live {
            gate.deactivate();
        }
        let merged = copied?;

        // Finalize: there is no drain pause. The merged copies ride the
        // partitioned queue behind live traffic; wait (bounded, without
        // stopping the workers) until the subscriber has accounted for
        // them, so a caller returning from bootstrap sees the copied rows.
        self.bootstrap.transition(BootstrapState::Finalizing);
        if merged > 0 {
            self.await_copy_convergence(merged, &sub_baseline);
        }
        // Watermarks are resume state for *failed* attempts only: a future
        // bootstrap must re-copy from the start (rows copied this time may
        // change again before then). A cleanup failure here must not fail
        // an otherwise-complete bootstrap — defer it: mark the watermarks
        // dirty so the next attempt clears them before trusting any
        // resume state, and go Live.
        if self.clear_bootstrap_watermarks(publisher).is_err() {
            self.bootstrap
                .cleanup_deferred
                .fetch_add(1, Ordering::Relaxed);
            self.bootstrap
                .watermarks_dirty
                .store(true, Ordering::SeqCst);
            self.telemetry
                .counters()
                .counter("bootstrap.cleanup_deferred")
                .bump();
        }
        *self.bootstrap.lineage.lock() = self.lineage_signal();
        guard.complete();
        self.bootstrap.transition(BootstrapState::Live);
        self.bootstraps.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Step 2 driver: copies every non-ephemeral pair in
    /// watermark-interleaved chunks, resuming each model from any
    /// surviving watermark. Returns how many copies were merged into the
    /// delivery queue (zero on a node without workers).
    fn copy_models(
        &self,
        publisher: &SynapseNode,
        pairs: &[(String, Arc<Publication>)],
        session: u64,
        workers_live: bool,
    ) -> Result<u64, OrmError> {
        let mut merged = 0u64;
        // Gate windows are numbered across models so every (session,
        // window) pair in this attempt is unique.
        let mut window = 0u64;
        for (model, publication) in pairs {
            if publication.ephemeral {
                continue;
            }
            let wm_key = self
                .config
                .dep_space
                .key(&DepName::bootstrap_watermark(publisher.app(), model));
            let mut after = self.retry_transient(|| {
                self.sub_store
                    .latest_version(wm_key)
                    .map_err(|_| OrmError::Db(DbError::Unavailable))
            })?;
            if after > 0 {
                self.bootstrap.resumes.fetch_add(1, Ordering::Relaxed);
            }
            let mut chunk = 0u64;
            loop {
                self.bootstrap.transition(BootstrapState::Copying {
                    model: model.clone(),
                    chunk,
                });
                let copied = self.retry_transient(|| {
                    self.copy_chunk(
                        publisher,
                        model,
                        publication,
                        wm_key,
                        after,
                        session,
                        window,
                        chunk,
                        workers_live,
                    )
                })?;
                window += 1;
                match copied {
                    Some(outcome) => {
                        after = outcome.last;
                        merged += outcome.merged;
                        chunk += 1;
                        self.bootstrap.chunks_copied.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        Ok(merged)
    }

    /// Bounded, delivery-neutral wait for the subscriber to account for
    /// `merged` chunk copies enqueued this attempt — applied, reconciled
    /// away, or dead-lettered — measured as counter deltas against
    /// `baseline`. Only the bootstrap caller blocks; the workers keep
    /// draining live traffic the whole time. On deadline the node still
    /// goes Live: the copies are durably enqueued and version-store
    /// admission makes late application safe at any point.
    fn await_copy_convergence(&self, merged: u64, baseline: &SubscriberStats) {
        let deadline = Instant::now() + FINALIZE_SETTLE_TIMEOUT;
        let mut pause = Duration::from_micros(50);
        loop {
            let now = self.subscriber.stats();
            let accounted = now
                .copies_applied
                .saturating_sub(baseline.copies_applied)
                .saturating_add(
                    now.copies_reconciled
                        .saturating_sub(baseline.copies_reconciled),
                )
                .saturating_add(now.dead_lettered.saturating_sub(baseline.dead_lettered));
            if accounted >= merged {
                return;
            }
            if Instant::now() >= deadline {
                self.telemetry
                    .counters()
                    .counter("bootstrap.finalize_timeouts")
                    .bump();
                return;
            }
            std::thread::sleep(pause);
            pause = (pause * 2).min(Duration::from_millis(5));
        }
    }

    /// Copies the next chunk of `model` after id `after`, interleaved with
    /// the live stream under a DBLog-style watermark window. Returns the
    /// committed [`ChunkCopy`], or `None` when the table is exhausted.
    ///
    /// The sequence per chunk: open a gate window and inject the lo
    /// marker into every partition of the live queue, select the chunk,
    /// inject the hi marker, wait (bounded) for the window, then drop
    /// every selected row the live stream wrote to inside the window —
    /// those rows' current state is already in flight as live messages.
    /// Survivors are encoded as real [`WriteMessage`]s and merged into the
    /// partitioned queue, key-routed so each copy lands in the same
    /// partition (and therefore behind) the live traffic for its object.
    ///
    /// Each record's publisher-side ops count is captured *before* the row
    /// is re-read for marshalling, and the carried marker is `ops - 1` —
    /// the same write-dependency convention live messages use. The marker
    /// is therefore never newer than the copied data: a concurrent write
    /// lands with a strictly higher version and overwrites the copy, while
    /// a copy racing behind the live stream loses version-store admission
    /// (ties included — see [`synapse_versionstore::AdmitRule::Copy`]) and is
    /// discarded. Capturing the marker after reading the row would allow
    /// the fatal inverse: stale data carrying a marker that beats a newer
    /// live write, regressing the replica permanently.
    #[allow(clippy::too_many_arguments)]
    fn copy_chunk(
        &self,
        publisher: &SynapseNode,
        model: &str,
        publication: &Publication,
        wm_key: DepKey,
        after: u64,
        session: u64,
        window: u64,
        chunk: u64,
        workers_live: bool,
    ) -> Result<Option<ChunkCopy>, OrmError> {
        // Armed copy-failure hook: fail before any work, as a flaky
        // engine mid-chunk would.
        if self
            .bootstrap
            .copy_fail_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(OrmError::Db(DbError::Unavailable));
        }
        // A partially-dead subscriber store can neither admit this chunk's
        // copies nor keep a trustworthy resume watermark (§4.2: a partial
        // store has no complete dependency picture), so fail the chunk
        // transiently — the retry policy absorbs a racing revive, and a
        // failed attempt's re-entry revives the store itself.
        if self.sub_store.is_dead() {
            return Err(OrmError::Db(DbError::Unavailable));
        }
        let chunk_size = self.config.bootstrap_chunk_size.max(1);
        let gate = self.subscriber.watermark_gate();
        // Interleave only while workers consume the queue: markers and
        // merged copies ride the delivery plane, and with no workers
        // nothing would ever drain them. The gate window must exist
        // *before* the lo marker is published, or a fast worker would
        // observe the marker against a stale window and drop it.
        let mut interleave = false;
        if workers_live {
            let partitions = self.broker.queue_partitions(self.app()).unwrap_or(1);
            gate.begin_chunk(session, window, partitions);
            interleave = self
                .broker
                .publish_watermark(self.app(), session, window, false)
                > 0;
        }
        let page = publisher.orm.all_after(model, Id(after), chunk_size)?;
        let last = match page.last() {
            Some(record) => record.id.raw(),
            None => {
                if interleave {
                    // Close the empty window so its lo markers don't
                    // dangle unmatched in the stream.
                    self.broker
                        .publish_watermark(self.app(), session, window, true);
                }
                return Ok(None);
            }
        };
        let mut batch: Vec<(DepKey, u64, Option<VersionVector>, Record)> =
            Vec::with_capacity(page.len());
        for record in &page {
            let key =
                publisher
                    .config
                    .dep_space
                    .key(&DepName::object(publisher.app(), model, record.id));
            let ops = publisher
                .pub_store
                .ops(key)
                .map_err(|_| OrmError::Db(DbError::Unavailable))?;
            let marker = ops.saturating_sub(1);
            // Bidirectional copies carry the publisher's full version
            // vector (captured before the re-read, like the marker):
            // scalar markers on the legacy floor could wrongly dominate a
            // remote writer's component, so admission must compare the
            // real vector instead. The vector lives under the
            // writer-independent mesh key in the publisher's sub store —
            // the entry its own stamps and every remote writer's applied
            // writes fold into.
            let vector = if publication.bidirectional {
                let mesh = publisher
                    .config
                    .dep_space
                    .key(&crate::deps::mesh_object(model, record.id));
                Some(
                    publisher
                        .sub_store
                        .latest_vector(mesh)
                        .map_err(|_| OrmError::Db(DbError::Unavailable))?,
                )
            } else {
                None
            };
            // Re-read the row now that its marker floor is pinned; a row
            // deleted meanwhile is skipped (its destroy message is in the
            // live stream, and the tombstone it leaves in the version
            // store refuses any copy of this row from a *later* chunk).
            let Some(fresh) = publisher.orm.find(model, record.id)? else {
                continue;
            };
            // Marshal through the publisher so only published (and
            // virtual) attributes cross, exactly as live updates do.
            let marshalled =
                publisher
                    .publisher
                    .marshal_for_bootstrap(&publisher.orm, publication, &fresh);
            batch.push((key, marker, vector, marshalled));
        }
        if interleave {
            self.broker
                .publish_watermark(self.app(), session, window, true);
            self.bootstrap.transition(BootstrapState::Reconciling {
                model: model.to_owned(),
                chunk,
            });
            // The window wait is an optimization, not a correctness gate:
            // on timeout the un-filtered copies still face version-store
            // admission, which refuses anything the live stream beat.
            let _ = gate.await_window(session, window, BOOTSTRAP_WINDOW_TIMEOUT);
            let touched = gate.take_touched();
            if !touched.is_empty() {
                let before = batch.len();
                batch.retain(|(key, _, _, _)| !touched.contains(key));
                self.bootstrap
                    .records_reconciled
                    .fetch_add((before - batch.len()) as u64, Ordering::Relaxed);
            }
        }
        // Every survivor becomes a real write message: its object
        // dependency carries the marker, and a bidirectional model's
        // vector rides under the mesh key. Only queue-merged copies are
        // stamped for the visibility histograms.
        let origin = if interleave { mono_nanos() } else { 0 };
        let payloads: Vec<(SharedStr, u64, DepKey)> = batch
            .iter()
            .map(|(key, marker, vector, record)| {
                let mut vectors = BTreeMap::new();
                if let Some(v) = vector {
                    let mesh = publisher
                        .config
                        .dep_space
                        .key(&crate::deps::mesh_object(model, record.id));
                    vectors.insert(mesh, v.clone());
                }
                let msg = WriteMessage {
                    app: publisher.app().to_owned(),
                    operations: vec![Operation::from_record("create", record)],
                    dependencies: BTreeMap::from([(*key, *marker)]),
                    published_at: 0,
                    generation: 1,
                    vectors,
                };
                (SharedStr::from(msg.encode().as_str()), origin, *key)
            })
            .collect();
        let mut merged = 0u64;
        if interleave {
            if !payloads.is_empty() {
                let want = payloads.len();
                let sent = self
                    .broker
                    .publish_to_queue(self.app(), BOOTSTRAP_EXCHANGE, payloads);
                if sent != want {
                    // Short count: the WAL refused the frame or the queue
                    // vanished. The watermark was not committed, so the
                    // retry re-selects and re-reconciles this chunk;
                    // duplicates of the copies that did land are refused
                    // by admission.
                    return Err(OrmError::Db(DbError::Unavailable));
                }
                merged = want as u64;
                self.bootstrap
                    .copies_merged
                    .fetch_add(merged, Ordering::Relaxed);
                self.bootstrap
                    .records_copied
                    .fetch_add(merged, Ordering::Relaxed);
            }
        } else {
            // No workers: nothing would drain the queue, so hand each copy
            // straight to the subscriber's message path. A refusal is
            // counted by the subscriber's `copies_reconciled`
            // (bootstrap_stats folds it in), so only admissions — even
            // those before a copy that fails the chunk — are tallied here.
            let applied_before = self.subscriber.stats().copies_applied;
            let result = payloads
                .into_iter()
                .try_for_each(|(payload, origin_nanos, _)| {
                    let delivery = Delivery {
                        tag: 0,
                        exchange: BOOTSTRAP_EXCHANGE.into(),
                        payload,
                        redelivered: false,
                        origin_nanos,
                        enqueued_nanos: 0,
                    };
                    self.subscriber.process_one(&delivery).map_err(|e| match e {
                        ProcessError::Transient(_) => OrmError::Db(DbError::Unavailable),
                        ProcessError::Poison(msg) => OrmError::Restriction(msg),
                    })
                });
            self.bootstrap.records_copied.fetch_add(
                self.subscriber.stats().copies_applied - applied_before,
                Ordering::Relaxed,
            );
            result?;
        }
        self.sub_store
            .load_watermark(wm_key, last)
            .map_err(|_| OrmError::Db(DbError::Unavailable))?;
        Ok(Some(ChunkCopy { last, merged }))
    }

    /// Drops the per-model bootstrap watermarks for `publisher`'s models.
    fn clear_bootstrap_watermarks(&self, publisher: &SynapseNode) -> Result<(), OrmError> {
        let models: Vec<String> = self
            .subscriptions
            .read()
            .iter()
            .filter(|s| s.from == publisher.app())
            .map(|s| s.model.clone())
            .collect();
        for model in models {
            let key = self
                .config
                .dep_space
                .key(&DepName::bootstrap_watermark(publisher.app(), &model));
            self.retry_transient(|| {
                self.sub_store
                    .clear_watermark(key)
                    .map_err(|_| OrmError::Db(DbError::Unavailable))
            })?;
        }
        Ok(())
    }

    /// The subset of the queue's cumulative counters whose movement means
    /// real live-stream loss: `(discarded, dropped)`. Refused publishes
    /// are excluded — the publisher journal republishes them.
    fn lineage_signal(&self) -> Option<(u64, u64)> {
        self.broker
            .queue_discard_stats(self.app())
            .map(|(discarded, _refused, dropped)| (discarded, dropped))
    }

    /// Runs one bootstrap step, retrying transient failures (dead store,
    /// unavailable engine) under the node's [`RetryPolicy`] with its
    /// deterministic backoff; deterministic errors fail immediately.
    ///
    /// [`RetryPolicy`]: crate::config::RetryPolicy
    fn retry_transient<T>(
        &self,
        mut step: impl FnMut() -> Result<T, OrmError>,
    ) -> Result<T, OrmError> {
        let mut failures = 0u32;
        loop {
            match step() {
                Ok(v) => return Ok(v),
                Err(e @ OrmError::Db(DbError::Unavailable)) => {
                    failures += 1;
                    if self.config.retry.exhausted(failures) {
                        return Err(e);
                    }
                    self.bootstrap.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.config.retry.backoff(failures));
                }
                Err(e) => return Err(e),
            }
        }
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
    pub fn with_broker(broker: Broker) -> Ecosystem {
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
                                // writes with version vectors, and vice
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

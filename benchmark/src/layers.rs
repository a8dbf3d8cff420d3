//! The traced run's per-layer measurements.
//!
//! Three sources, all public: counters and `telemetry_snapshot()` of the
//! measured system; a *twin* — a second, fresh instance of the workload
//! with one extra subscriber whose worker is stopped (the tap), so that its
//! queue captures the workload's messages; and standalone instances of
//! single layers (a version store, a broker, a WAL, an engine) through
//! which the captured messages are replayed. Nothing here runs while a
//! gated metric is taken.

use crate::phases::{mean_us, pct_us, Phase, Runner, Watchdog};
use crate::stats::{mean, now_ns, peak_rss_mb, ratio};
use crate::trace::Tracer;
use crate::workloads::{self, Sys, Workload, WINDOW};
use crate::{Measured, Metrics};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use synapse_broker::{Broker, Delivery, FsyncPolicy, QueueConfig, SharedStr, WalConfig};
use synapse_core::{
    DepName, ModeSlice, Stage, Subscription, SynapseConfig, SynapseNode, WriteMessage,
};
use synapse_db::LatencyModel;
use synapse_model::{Id, Value};
use synapse_orm::{adapters, Orm};
use synapse_versionstore::{BumpScratch, DepWaitSet, VersionStore};

/// Operations run on the twin to capture messages.
const CAPTURE_OPS: u64 = 4_000;
/// Seconds of each load-curve point and of the telemetry-off sat run.
const SIDE_RUN_SECS: f64 = 2.0;
const TAP: &str = "bench_tap";

/// `(count, sum_ns)` per pipeline stage, summed over a system's nodes and
/// delivery modes, plus the event ring's occupancy.
#[derive(Default, Clone)]
pub struct StageTotals {
    stages: Vec<(u64, u64)>,
    events: u64,
    events_dropped: u64,
}

pub fn stage_totals(sys: &Sys) -> StageTotals {
    let mut totals = StageTotals {
        stages: vec![(0, 0); Stage::all().len()],
        ..StageTotals::default()
    };
    for node in std::iter::once(&sys.publisher).chain(&sys.replicas) {
        let snap = node.telemetry_snapshot();
        for mode in ModeSlice::all() {
            for stage in Stage::all() {
                let s = snap.stage(mode, stage);
                totals.stages[stage.index()].0 += s.count;
                totals.stages[stage.index()].1 += s.sum_nanos;
            }
        }
        totals.events += snap.events;
        totals.events_dropped += snap.events_dropped;
    }
    totals
}

impl StageTotals {
    pub fn since(&self, before: &StageTotals) -> StageTotals {
        StageTotals {
            stages: self
                .stages
                .iter()
                .zip(&before.stages)
                .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
                .collect(),
            events: self.events,
            events_dropped: self.events_dropped,
        }
    }

    fn mean_us(&self, stage: Stage) -> f64 {
        let (count, sum) = self.stages[stage.index()];
        ratio(sum as f64, count as f64) / 1e3
    }
}

/// Samples the replicas' queue depths while a phase runs.
pub struct DepthSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(Vec<u64>, Vec<u64>)>,
}

impl DepthSampler {
    pub fn start(sys: &Sys) -> DepthSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let broker = sys.eco.broker().clone();
        let apps: Vec<String> = sys.replicas.iter().map(|n| n.app().to_owned()).collect();
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut depths = Vec::new();
            let mut per_partition: Vec<u64> = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                let mut total = 0u64;
                for app in &apps {
                    total += broker.queue_len(app).unwrap_or(0) as u64;
                    for (i, d) in broker
                        .partition_depths(app)
                        .unwrap_or_default()
                        .iter()
                        .enumerate()
                    {
                        if per_partition.len() <= i {
                            per_partition.resize(i + 1, 0);
                        }
                        per_partition[i] += *d as u64;
                    }
                }
                depths.push(total);
                std::thread::sleep(Duration::from_millis(2));
            }
            (depths, per_partition)
        });
        DepthSampler { stop, handle }
    }

    /// `(p50, max, skew)`: skew is the busiest partition's summed depth
    /// over the mean partition's.
    pub fn finish(self) -> (f64, f64, f64) {
        self.stop.store(true, Ordering::SeqCst);
        let (mut depths, per_partition) = self.handle.join().expect("depth sampler");
        depths.sort_unstable();
        let p50 = crate::stats::percentile(&depths, 0.5) as f64;
        let max = depths.last().copied().unwrap_or(0) as f64;
        let busiest = per_partition.iter().copied().max().unwrap_or(0) as f64;
        let mean_depth = ratio(
            per_partition.iter().sum::<u64>() as f64,
            per_partition.len() as f64,
        );
        (p50, max, ratio(busiest, mean_depth))
    }
}

/// Mean nanoseconds per item of `f` run over `items`, repeated until the
/// measurement has lasted ~30 ms so one timer read is not the result.
fn per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = now_ns();
    let mut done = 0u64;
    while done == 0 || now_ns() - t0 < 30_000_000 {
        for item in items {
            f(item);
        }
        done += items.len() as u64;
    }
    (now_ns() - t0) as f64 / done as f64
}

/// The twin: a fresh instance of the workload plus the tap.
struct Twin {
    runner: Runner,
    tap: Arc<SynapseNode>,
}

fn build_twin(name: &str, seed: u64, out: &Path, dog: Arc<Watchdog>, telemetry: bool) -> Runner {
    let workload =
        workloads::make(name, seed ^ 0x7717, &out.join("twin"), telemetry).expect("known workload");
    let mut runner = Runner::new(workload, Tracer::new(0), dog);
    runner.workload.setup();
    runner
}

/// Adds the tap — a subscriber to everything the publisher publishes, on
/// one partition so its queue keeps publish order — brings it level with
/// the publisher through a normal bootstrap, then stops its worker so that
/// whatever is published next stays in its queue.
fn attach_tap(runner: Runner) -> Twin {
    let sys = runner.workload.sys();
    let publisher = &sys.publisher;
    let config = SynapseConfig::new(TAP)
        .mode(publisher.config().publisher_mode)
        .dep_space(publisher.config().dep_space)
        .queue_partitions(1)
        .workers(1);
    let tap = sys.eco.add_node(
        config,
        adapters::for_vendor(runner.workload.tap_vendor(), LatencyModel::off()),
    );
    for publication in publisher.publications() {
        let schema = publisher
            .orm()
            .schema(&publication.model)
            .expect("published model");
        tap.orm().define_model(schema).expect("define");
        let fields: Vec<&str> = publication.fields.iter().map(String::as_str).collect();
        tap.subscribe(Subscription::model(&publication.model, publisher.app()).fields(&fields))
            .expect("subscribe");
    }
    assert!(sys.eco.connect().is_empty(), "static pub/sub checks");
    tap.start_and_bootstrap_from(publisher)
        .expect("bootstrap the tap");
    tap.stop();
    Twin { runner, tap }
}

impl Twin {
    /// Runs the capture operations and takes what they published off the
    /// tap's queue, in publish order.
    fn capture(&mut self) -> Vec<Delivery> {
        self.runner.closed_count(CAPTURE_OPS, Some(WINDOW));
        self.runner.drain();
        let consumer = self
            .runner
            .workload
            .sys()
            .eco
            .broker()
            .consumer(TAP)
            .expect("tap queue");
        let mut deliveries = Vec::new();
        loop {
            let batch = consumer.pop_batch(1024, Duration::ZERO);
            if batch.is_empty() {
                break;
            }
            deliveries.extend(batch);
        }
        deliveries
    }
}

/// Runs after the sat phase of a traced run, before the restart drills.
pub fn measure(
    name: &str,
    seed: u64,
    out: &Path,
    runner: &mut Runner,
    m: &Measured,
    stages: &StageTotals,
    metrics: &mut Metrics,
) {
    let spec = runner.workload.spec().clone();
    let started = std::time::Instant::now();
    let mut lap = started;
    let mut laps: Vec<String> = Vec::new();
    let mut mark = |what: &str| {
        laps.push(format!("{what} {:.1} s", lap.elapsed().as_secs_f64()));
        lap = std::time::Instant::now();
    };

    // --- load curve, on the measured system ---------------------------
    let mut half = runner.open_phase(spec.open_rate * 0.5, SIDE_RUN_SECS);
    runner.drain();
    runner.harvest(&mut half);
    let mut x2 = runner.open_phase(spec.open_rate * 2.0, SIDE_RUN_SECS);
    runner.drain();
    runner.harvest(&mut x2);
    metrics.set_n(
        "load.half.visibility_p50_us",
        pct_us(&half.visibility(), 0.5),
        half.visibility().len() as u64,
    );
    metrics.set_n(
        "load.x2.visibility_p50_us",
        pct_us(&x2.visibility(), 0.5),
        x2.visibility().len() as u64,
    );
    metrics.set("load.x2.backlog_end", x2.backlog_end as f64);

    mark("load curve");

    // --- counters of the measured system -------------------------------
    system_counters(runner, m, stages, metrics);

    // --- the twin: capture the workload's messages ------------------------
    // (The tap must bootstrap while the twin is still small: the copy is
    // quadratic in the publisher's rows.)
    let twin_runner = build_twin(name, seed, out, runner.dog.clone(), false);
    mark("twin set-up");
    let mut twin = attach_tap(twin_runner);
    mark("tap bootstrap");
    let deliveries = twin.capture();
    mark("capture");
    let messages: Vec<WriteMessage> = deliveries
        .iter()
        .filter_map(|d| WriteMessage::decode(&d.payload).ok())
        .collect();
    assert!(!messages.is_empty(), "the tap captured nothing");
    let probe_model = twin.runner.workload.probe_model();

    // core.message
    metrics.set_n(
        "core.message.decode_ns",
        per_item(&deliveries, |d| {
            std::hint::black_box(WriteMessage::decode(std::hint::black_box(&d.payload)).ok());
        }),
        deliveries.len() as u64,
    );
    let mut buffer = String::new();
    metrics.set_n(
        "core.message.encode_ns",
        per_item(&messages, |msg| {
            buffer.clear();
            std::hint::black_box(msg).encode_into(&mut buffer);
            std::hint::black_box(buffer.len());
        }),
        messages.len() as u64,
    );
    metrics.set(
        "core.message.bytes",
        mean(
            &deliveries
                .iter()
                .map(|d| d.payload.len() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    metrics.set(
        "core.publisher.deps_per_msg",
        mean(
            &messages
                .iter()
                .map(|m| m.dependencies.len() as f64)
                .collect::<Vec<_>>(),
        ),
    );

    version_store_replay(&twin, &messages, metrics);
    let replicas = runner.workload.sys().replicas.len();
    let memory_publish = broker_replay(Broker::new(), &deliveries, replicas, metrics);
    wal_replay(name, out, &deliveries, replicas, memory_publish, metrics);

    // core.subscriber.process_ns: the tap applies what it captured.
    let consumer = twin
        .runner
        .workload
        .sys()
        .eco
        .broker()
        .consumer(TAP)
        .expect("tap queue");
    let t0 = now_ns();
    let mut processed = 0u64;
    for delivery in &deliveries {
        if twin.tap.subscriber().process(delivery).is_ok() {
            processed += 1;
        }
        consumer.ack(delivery.tag);
    }
    metrics.set_n(
        "core.subscriber.process_ns",
        ratio((now_ns() - t0) as f64, processed as f64),
        processed,
    );

    mark("replays");
    orm_and_publisher(&twin, &messages, probe_model, runner, m, metrics);
    mvc(&twin, runner, metrics);
    mark("orm, publisher, mvc");
    engines(runner.workload.as_ref(), &messages, probe_model, metrics);
    mark("engines");

    // --- telemetry A/B ---------------------------------------------------
    // A fresh twin (no tap) with the event ring off; its sat rate against
    // the measured system's is the ring's cost. (Crowdtap's wiring takes
    // no configuration, so its twin has the ring on and the share reads
    // ~0.)
    twin.runner.workload.setup();
    let off = twin.runner.sat_phase(SIDE_RUN_SECS, |_| false);
    twin.runner.drain();
    metrics.set(
        "telemetry.overhead_share",
        1.0 - ratio(
            m.sat.deliveries_per_s_where(|w| !w.traced),
            off.deliveries_per_s(),
        ),
    );
    mark("telemetry-off twin");

    twin.runner.workload.teardown();
    println!("# layer measurements: {}", laps.join(", "));

    budget(m, stages, metrics);
}

fn system_counters(runner: &Runner, m: &Measured, stages: &StageTotals, metrics: &mut Metrics) {
    let sys = runner.workload.sys();
    for (name, stage) in [
        ("telemetry.stage.intercept_mean_us", Stage::Intercept),
        ("telemetry.stage.dep_compute_mean_us", Stage::DepCompute),
        ("telemetry.stage.wire_encode_mean_us", Stage::WireEncode),
        (
            "telemetry.stage.broker_enqueue_mean_us",
            Stage::BrokerEnqueue,
        ),
        (
            "telemetry.stage.queue_residency_mean_us",
            Stage::QueueResidency,
        ),
        ("telemetry.stage.pop_batch_mean_us", Stage::PopBatch),
        ("telemetry.stage.dep_wait_mean_us", Stage::DepWait),
        ("telemetry.stage.apply_mean_us", Stage::Apply),
    ] {
        metrics.set_n(name, stages.mean_us(stage), stages.stages[stage.index()].0);
    }
    metrics.set(
        "telemetry.ring_dropped_share",
        ratio(
            stages.events_dropped as f64,
            (stages.events + stages.events_dropped) as f64,
        ),
    );

    let broker = sys.eco.broker().stats();
    let enqueued = broker.enqueued as f64;
    metrics.set(
        "broker.queue.wakeups_per_msg",
        ratio(broker.wakeups as f64, enqueued),
    );
    metrics.set(
        "broker.queue.redelivered_per_msg",
        ratio(broker.redelivered as f64, enqueued),
    );
    metrics.set(
        "broker.queue.steals_per_msg",
        ratio(broker.steals as f64, enqueued),
    );

    let published = broker.published as f64;
    let wal = sys.eco.broker().wal_stats().unwrap_or_default();
    metrics.set(
        "broker.wal.bytes_per_msg",
        ratio(wal.bytes_appended as f64, published),
    );
    metrics.set(
        "broker.wal.fsyncs_per_kmsg",
        1e3 * ratio(wal.fsyncs as f64, published),
    );
    metrics.set(
        "broker.wal.group_size_mean",
        sys.eco
            .broker()
            .wal_group_size()
            .map(|h| h.mean())
            .unwrap_or(0.0),
    );
    metrics.set(
        "broker.wal.commit_wait_mean_us",
        sys.eco
            .broker()
            .wal_commit_wait()
            .map(|h| h.mean() / 1e3)
            .unwrap_or(0.0),
    );

    let mut subs = synapse_core::subscriber::SubscriberStats::default();
    let (mut wait_ns, mut entries, mut rows) = (0u64, 0usize, 0u64);
    let (mut chunks, mut merged, mut reconciled, mut copied) = (0u64, 0u64, 0u64, 0u64);
    for node in std::iter::once(&sys.publisher).chain(&sys.replicas) {
        entries = entries
            .max(node.sub_store().len())
            .max(node.pub_store().len());
        rows = rows.max(node.orm().engine_stats().rows);
    }
    for node in &sys.replicas {
        let s = node.subscriber_stats();
        subs.messages_processed += s.messages_processed;
        subs.ops_applied += s.ops_applied;
        subs.ops_stale += s.ops_stale;
        subs.redeliveries += s.redeliveries;
        subs.messages_stolen += s.messages_stolen;
        subs.dep_timeouts += s.dep_timeouts;
        wait_ns += node.sub_store().timing().wait_nanos;
        let b = node.bootstrap_stats();
        chunks += b.chunks_copied;
        merged += b.copies_merged;
        reconciled += b.records_reconciled;
        copied += b.records_copied;
    }
    let processed = subs.messages_processed as f64;
    metrics.set(
        "core.subscriber.redelivery_ratio",
        ratio(subs.redeliveries as f64, processed),
    );
    metrics.set(
        "core.subscriber.steal_ratio",
        ratio(subs.messages_stolen as f64, processed),
    );
    metrics.set(
        "core.subscriber.stale_ratio",
        ratio(
            subs.ops_stale as f64,
            (subs.ops_stale + subs.ops_applied) as f64,
        ),
    );
    metrics.set(
        "core.subscriber.unsubscribed_ratio",
        (1.0 - ratio(sys.probe.deliveries() as f64, processed)).max(0.0),
    );
    metrics.set("core.subscriber.dep_timeouts", subs.dep_timeouts as f64);
    metrics.set(
        "versionstore.wait_ns_per_msg",
        ratio(wait_ns as f64, processed),
    );
    metrics.set("versionstore.entries", entries as f64);
    metrics.set("versionstore.watermark_window_ms", m.parts.window_ms);
    metrics.set("db.rows_max", rows as f64);

    metrics.set("core.node.bootstrap_ms", m.parts.bootstrap_ms);
    metrics.set(
        "core.node.bootstrap_us_per_row",
        ratio(m.parts.bootstrap_ms * 1e3, (copied + reconciled) as f64),
    );
    metrics.set("core.node.bootstrap_chunks", chunks as f64);
    metrics.set("core.node.copies_merged", merged as f64);
    metrics.set("core.node.copies_reconciled", reconciled as f64);
    metrics.set("orm.seed_ms", m.parts.seed_ms);
    metrics.set("generator.warmup_ms", m.warmup_ms);
}

/// Replays the captured dependency sets through a standalone store.
fn version_store_replay(twin: &Twin, messages: &[WriteMessage], metrics: &mut Metrics) {
    let space = twin.runner.workload.sys().publisher.config().dep_space;
    let scripts: Vec<Vec<(u64, bool)>> = messages
        .iter()
        .map(|msg| {
            let written: Vec<u64> = msg
                .operations
                .iter()
                .map(|op| space.key(&DepName::object(&msg.app, op.model(), op.id)))
                .collect();
            msg.dependencies
                .keys()
                .map(|k| (*k, written.contains(k)))
                .collect()
        })
        .collect();
    let store = VersionStore::new(4);
    let (mut scratch, mut out) = (BumpScratch::default(), Vec::new());
    metrics.set_n(
        "versionstore.bump_ns",
        per_item(&scripts, |script| {
            let _ = store.publish_bump_into(script, &mut scratch, &mut out);
        }),
        scripts.len() as u64,
    );
    let lists: Vec<Vec<(u64, u64)>> = messages.iter().map(|m| m.dep_list()).collect();
    let mut set = DepWaitSet::default();
    metrics.set_n(
        "versionstore.prepare_wait_ns",
        per_item(&lists, |deps| {
            store.prepare_wait(deps, &mut set);
            std::hint::black_box(store.satisfied_prepared(&set).ok());
        }),
        lists.len() as u64,
    );
    let keys: Vec<Vec<u64>> = messages.iter().map(|m| m.dep_keys()).collect();
    metrics.set_n(
        "versionstore.apply_ns",
        per_item(&keys, |k| {
            let _ = store.apply(k);
        }),
        keys.len() as u64,
    );
}

/// Publishes the captured payloads to `queues` bound queues of a
/// standalone broker, then pops and acks them. Returns ns per publish.
fn broker_replay(
    broker: Broker,
    deliveries: &[Delivery],
    queues: usize,
    metrics: &mut Metrics,
) -> f64 {
    let publish_ns = publish_all(&broker, deliveries, queues);
    let consumers: Vec<_> = (0..queues)
        .map(|q| broker.consumer(&format!("replay_{q}")).expect("declared"))
        .collect();
    let (mut pop_ns, mut ack_ns, mut copies) = (0u64, 0u64, 0u64);
    for consumer in &consumers {
        loop {
            let t0 = now_ns();
            let batch = consumer.pop_batch(32, Duration::ZERO);
            let t1 = now_ns();
            if batch.is_empty() {
                break;
            }
            let tags: Vec<u64> = batch.iter().map(|d| d.tag).collect();
            let t2 = now_ns();
            consumer.ack_batch(&tags);
            ack_ns += now_ns() - t2;
            pop_ns += t1 - t0;
            copies += batch.len() as u64;
        }
    }
    metrics.set_n(
        "broker.queue.publish_ns",
        publish_ns,
        deliveries.len() as u64,
    );
    metrics.set_n(
        "broker.queue.pop_ns",
        ratio(pop_ns as f64, copies as f64),
        copies,
    );
    metrics.set_n(
        "broker.queue.ack_ns",
        ratio(ack_ns as f64, copies as f64),
        copies,
    );
    publish_ns
}

fn publish_all(broker: &Broker, deliveries: &[Delivery], queues: usize) -> f64 {
    for q in 0..queues {
        let name = format!("replay_{q}");
        broker.declare_queue(
            &name,
            QueueConfig {
                max_len: None,
                partitions: 0,
            },
        );
        broker.bind("replay", &name);
    }
    // Route as the publisher does: by a key that differs per message.
    let payloads: Vec<(SharedStr, u64)> = deliveries
        .iter()
        .enumerate()
        .map(|(i, d)| (d.payload.clone(), i as u64 + 1))
        .collect();
    let t0 = now_ns();
    for (payload, key) in &payloads {
        let _ = broker.publish_routed("replay", payload, 1, *key);
    }
    ratio((now_ns() - t0) as f64, payloads.len() as f64)
}

/// The same publishes through a durable broker configured like the
/// durable workload's; the difference is the WAL append. Then the log is
/// reopened to time replay. Zero on the workloads that have no WAL.
fn wal_replay(
    name: &str,
    out: &Path,
    deliveries: &[Delivery],
    queues: usize,
    memory_publish_ns: f64,
    metrics: &mut Metrics,
) {
    if name != workloads::stress::WEAK_DURABLE.name {
        metrics.set("broker.wal.append_ns", 0.0);
        metrics.set("broker.wal.replay_ns_per_entry", 0.0);
        return;
    }
    let dir = out.join("replay-wal");
    let config = || WalConfig::new(&dir).fsync(FsyncPolicy::Interval(64));
    let (broker, _) = Broker::open_durable(config()).expect("open the replay WAL");
    let durable_publish_ns = publish_all(&broker, deliveries, queues);
    let _ = broker.sync_wal();
    drop(broker);
    let t0 = now_ns();
    let (reopened, report) = Broker::open_durable(config()).expect("reopen the replay WAL");
    let replay_ns = now_ns() - t0;
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    metrics.set_n(
        "broker.wal.append_ns",
        (durable_publish_ns - memory_publish_ns).max(0.0),
        deliveries.len() as u64,
    );
    metrics.set_n(
        "broker.wal.replay_ns_per_entry",
        ratio(replay_ns as f64, report.replayed_entries as f64),
        report.replayed_entries,
    );
}

/// Attributes of the first captured operation on `model`.
fn sample_attrs(messages: &[WriteMessage], model: &str) -> Option<Value> {
    messages
        .iter()
        .flat_map(|m| &m.operations)
        .find(|op| op.model() == model)
        .map(|op| Value::Map(op.attributes.clone()))
}

fn orm_and_publisher(
    twin: &Twin,
    messages: &[WriteMessage],
    probe_model: &str,
    runner: &Runner,
    m: &Measured,
    metrics: &mut Metrics,
) {
    // An unpublished twin of the probe op's model on the same ORM and
    // engine: what the write costs when the publisher has nothing to do.
    let orm = twin.runner.workload.sys().publisher.orm();
    let mut schema = orm.schema(probe_model).expect("probe model");
    schema.name = "BenchBare".into();
    orm.define_model(schema).expect("define");
    let attrs = sample_attrs(messages, probe_model).expect("the probe model was written");
    let ids: Vec<u64> = (1..=2_000).collect();
    let t0 = now_ns();
    for id in &ids {
        let _ = orm.create_with_id("BenchBare", Id(*id), attrs.clone());
    }
    let bare_ns = (now_ns() - t0) as f64 / ids.len() as f64;
    metrics.set_n("orm.write_bare_ns", bare_ns, ids.len() as u64);

    let found: Vec<u64> = messages
        .iter()
        .flat_map(|m| &m.operations)
        .filter(|op| op.model() == probe_model && op.operation != "destroy")
        .map(|op| op.id.raw())
        .take(2_000)
        .collect();
    metrics.set_n(
        "orm.find_ns",
        per_item(&found, |id| {
            std::hint::black_box(orm.find(probe_model, Id(*id)).ok());
        }),
        found.len() as u64,
    );

    let write_ns = 1e3 * mean_us(&m.open.writes());
    match runner
        .workload
        .app()
        .and_then(|app| app.stats().row("actions/index"))
    {
        // The probe op is a whole controller call here; the app's own
        // Fig. 12 instrumentation separates Synapse's share of it.
        Some(row) => {
            metrics.set(
                "core.publisher.overhead_ns",
                row.mean_synapse.as_nanos() as f64,
            );
            metrics.set("core.publisher.overhead_share", row.overhead);
        }
        None => {
            metrics.set("core.publisher.overhead_ns", write_ns - bare_ns);
            metrics.set(
                "core.publisher.overhead_share",
                ratio(write_ns - bare_ns, write_ns),
            );
        }
    }
}

fn mvc(twin: &Twin, runner: &Runner, metrics: &mut Metrics) {
    let (Some(app), Some(twin_app)) = (runner.workload.app(), twin.runner.workload.app()) else {
        metrics.set("mvc.readonly_dispatch_ns", 0.0);
        metrics.set("mvc.msgs_per_call", 0.0);
        metrics.set("mvc.deps_per_msg", 0.0);
        return;
    };
    let users: Vec<u64> = (1..=100).collect();
    metrics.set(
        "mvc.readonly_dispatch_ns",
        per_item(&users, |u| {
            let request = synapse_mvc::Request::as_user(Id(*u)).param("app_work_us", 0i64);
            let _ = twin_app.dispatch("me/show", &request);
        }),
    );
    let (mut calls, mut msgs, mut deps) = (0.0, 0.0, 0.0);
    for controller in app.stats().controllers() {
        if let Some(row) = app.stats().row(&controller) {
            calls += row.calls as f64;
            msgs += row.calls as f64 * row.mean_messages;
            deps += row.calls as f64 * row.mean_messages * row.mean_deps_per_message;
        }
    }
    metrics.set_n("mvc.msgs_per_call", ratio(msgs, calls), calls as u64);
    metrics.set("mvc.deps_per_msg", ratio(deps, msgs));
}

/// Bare engine cost per vendor the workload uses: an ORM with no observer
/// over a fresh engine holding as many rows as the workload's hot set.
fn engines(
    workload: &dyn Workload,
    messages: &[WriteMessage],
    probe_model: &str,
    metrics: &mut Metrics,
) {
    const ROWS: u64 = 5_000;
    let attrs = sample_attrs(messages, probe_model).expect("the probe model was written");
    let used = workload.vendors();
    for (vendor, write_metric, find_metric) in [
        ("postgresql", "db.postgresql.write_ns", None),
        ("mysql", "db.mysql.write_ns", None),
        ("mongodb", "db.mongodb.write_ns", Some("db.mongodb.find_ns")),
        ("cassandra", "db.cassandra.write_ns", None),
        (
            "elasticsearch",
            "db.elasticsearch.write_ns",
            Some("db.elasticsearch.find_ns"),
        ),
    ] {
        if !used.contains(&vendor) {
            metrics.set(write_metric, 0.0);
            if let Some(find_metric) = find_metric {
                metrics.set(find_metric, 0.0);
            }
            continue;
        }
        let orm = Orm::new("bench", adapters::for_vendor(vendor, LatencyModel::off()));
        let mut schema = workload
            .sys()
            .publisher
            .orm()
            .schema(probe_model)
            .expect("probe model");
        schema.name = "BenchRow".into();
        orm.define_model(schema).expect("define");
        for id in 1..=ROWS {
            let _ = orm.create_with_id("BenchRow", Id(id), attrs.clone());
        }
        let ids: Vec<u64> = (1..=ROWS).step_by(5).collect();
        let changes = attrs.clone();
        metrics.set_n(
            write_metric,
            per_item(&ids, |id| {
                let _ = orm.update("BenchRow", Id(*id), changes.clone());
            }),
            ids.len() as u64,
        );
        if let Some(find_metric) = find_metric {
            metrics.set_n(
                find_metric,
                per_item(&ids, |id| {
                    std::hint::black_box(orm.find("BenchRow", Id(*id)).ok());
                }),
                ids.len() as u64,
            );
        }
    }
}

/// The budget lines: how much of the measured mean visibility the stage
/// means explain, and how much of the CPU per message the replayed layer
/// costs explain. The remainder is printed, not hidden.
fn budget(m: &Measured, stages: &StageTotals, metrics: &mut Metrics) {
    let parts = [
        ("generator behind its reference", mean_us(&m.open.behind)),
        ("probe-op write", mean_us(&m.open.writes())),
        ("queue residency", stages.mean_us(Stage::QueueResidency)),
        ("pop/batch", stages.mean_us(Stage::PopBatch)),
        ("dep wait", stages.mean_us(Stage::DepWait)),
        ("apply", stages.mean_us(Stage::Apply)),
    ];
    let visibility_us = mean_us(&m.open.visibility());
    let explained: f64 = parts.iter().map(|p| p.1).sum();
    let listed: Vec<String> = parts.iter().map(|(n, v)| format!("{n} {v:.1}")).collect();
    println!(
        "# budget, visibility: measured mean {visibility_us:.1} us = {} ; unexplained {:.1} us",
        listed.join(" + "),
        visibility_us - explained
    );
    metrics.set(
        "budget.visibility_explained",
        ratio(explained, visibility_us),
    );

    // Sat phase, everything as the clock measured it. The generator
    // thread's share is measured (its own CPU clock); the workers' share is
    // compared with the replayed per-delivery costs.
    let cpu_us = ratio(
        m.sat.windows.iter().map(|w| w.cpu_us).sum::<u64>() as f64,
        m.sat.deliveries() as f64,
    );
    let generator_us = ratio(m.sat.generator_cpu_us as f64, m.sat.deliveries() as f64);
    let layer_us = (metrics.get("core.subscriber.process_ns")
        + metrics.get("broker.queue.pop_ns")
        + metrics.get("broker.queue.ack_ns"))
        / 1e3;
    println!(
        "# budget, cpu (sat phase): measured {cpu_us:.1} us/msg = generator thread {generator_us:.1} (operations, probe registration, window parks) + subscriber process {:.1} + pop {:.2} + ack {:.2} ; unexplained {:.1} us on the workers (park/wake, redelivery, dep-wait slices, messages for models the service does not subscribe to, probe callbacks)",
        metrics.get("core.subscriber.process_ns") / 1e3,
        metrics.get("broker.queue.pop_ns") / 1e3,
        metrics.get("broker.queue.ack_ns") / 1e3,
        cpu_us - generator_us - layer_us
    );
    metrics.set(
        "budget.cpu_explained",
        ratio(generator_us + layer_us, cpu_us),
    );
}

/// The metrics that need the restart drills (they run last).
pub fn after_drills(m: &Measured, metrics: &mut Metrics) {
    metrics.set("broker.wal.checkpoint_ms", m.drill.checkpoint_ms);
    metrics.set("core.durability.snapshot_ms", m.drill.snapshot_ms);
    metrics.set("core.durability.snapshot_bytes", m.drill.snapshot_bytes);
    metrics.set("core.durability.restore_ms", m.drill.restore_ms);
}

/// The metrics that come straight from the phases every run has.
pub fn from_phases(m: &Measured, depth: (f64, f64, f64), metrics: &mut Metrics) {
    let open: &Phase = &m.open;
    let (writes, visibility) = (open.writes(), open.visibility());
    metrics.set("broker.queue.depth_p50", depth.0);
    metrics.set("broker.queue.depth_max", depth.1);
    metrics.set("broker.queue.partition_skew", depth.2);
    metrics.set_n(
        "tail.open_write_p50_us",
        open.write_p50_us(),
        writes.len() as u64,
    );
    metrics.set_n(
        "tail.open_write_p99_us",
        pct_us(&writes, 0.99),
        writes.len() as u64,
    );
    let n = visibility.len() as u64;
    metrics.set_n("tail.visibility_p50_us", open.visibility_p50_us(), n);
    metrics.set_n("tail.visibility_p90_us", pct_us(&visibility, 0.90), n);
    metrics.set_n("tail.visibility_p99_us", pct_us(&visibility, 0.99), n);
    metrics.set_n("tail.visibility_p999_us", pct_us(&visibility, 0.999), n);
    metrics.set_n("tail.visibility_max_us", pct_us(&visibility, 1.0), n);
    metrics.set("tail.apply_gap_max_ms", open.max_gap_ns as f64 / 1e6);
    metrics.set("samples.write", writes.len() as f64);
    metrics.set("samples.visibility", n as f64);
    metrics.set("generator.late_p99_us", pct_us(&open.late, 0.99));
    metrics.set("generator.late_max_us", pct_us(&open.late, 1.0));
    metrics.set("generator.sat_drift_ratio", m.sat.drift_ratio());
    metrics.set("generator.open_load_share", m.open_load_share());
    metrics.set("process.open_cpu_us_per_msg", open.cpu_us_per_delivery());
    metrics.set("process.cpu_utilisation", m.sat.cpu_utilisation());
    metrics.set("process.peak_rss_mb", peak_rss_mb());
    metrics.set("process.yardstick_us", crate::stats::median(&m.flanks));
    metrics.set(
        "trace.overhead_share",
        1.0 - ratio(
            m.sat.deliveries_per_s_where(|w| w.traced),
            m.sat.deliveries_per_s_where(|w| !w.traced),
        ),
    );
}

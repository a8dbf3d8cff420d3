//! `stress_causal` and `stress_weak_durable`: the §6.3 stress mix — 25 %
//! Post creates, 75 % Comment creates on a random existing Post, 1 000
//! users, every operation inside its user's causal scope — from a
//! postgresql publisher to a postgresql subscriber with two workers.
//!
//! The two differ in what the same trace exercises: in causal mode over
//! the memory broker, dependency tracking and version-store waits do most
//! of the work and the WAL does none; in weak mode over the durable broker
//! there is nothing to wait for, so WAL append, relaxed acks, the flusher
//! hand-off and snapshots are what is left.

use super::{
    attach_stamp_probe, dep_space, ms_since, watch_windows, window_ms, DrillParts, OpOut,
    SetupParts, Spec, Sys, Workload,
};
use crate::probe::{row_key, Probe};
use crate::stats::{now_ns, Rng};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use synapse_broker::{FsyncPolicy, WalConfig};
use synapse_core::{
    with_user_scope, DeliveryMode, DepName, Ecosystem, Publication, Subscription, SynapseConfig,
    SynapseNode,
};
use synapse_db::LatencyModel;
use synapse_model::{vmap, Id, ModelSchema};
use synapse_orm::{adapters, Adapter};

pub const USERS: u64 = 1_000;
pub const SEED_POSTS: u64 = 10_000;
pub const WORKERS: usize = 2;
/// Version-store snapshot cadence of the durable workload, in messages the
/// subscriber has processed. The cadence is driver-clocked (DESIGN.md): a
/// clock thread asks `maybe_snapshot` every `SNAPSHOT_POLL`, so that the
/// dump of a store that grows with every object (one key each in the
/// `1 << 62` space) stalls neither the generator nor a worker.
pub const SNAPSHOT_EVERY: u64 = 50_000;
const SNAPSHOT_POLL: Duration = Duration::from_millis(20);

const PUB: &str = "stress_pub";
const SUB: &str = "stress_sub";
const USER: u8 = 0;
const POST: u8 = 1;
const COMMENT: u8 = 2;
const MODELS: [(u8, &str); 3] = [(USER, "User"), (POST, "Post"), (COMMENT, "Comment")];

pub const CAUSAL: Spec = Spec {
    name: "stress_causal",
    why: "dependency tracking, version-store waits, nack/redelivery churn and worker park/wake do the work; WAL and fan-out do none",
    topology: "postgresql -> postgresql, causal, memory broker, 2 workers",
    open_rate: 8_000.0,
    warmup_ops: 20_000,
    backlog_ops: 20_000,
    probe_op: "Comment create",
    seed_rows: USERS + SEED_POSTS,
};

pub const WEAK_DURABLE: Spec = Spec {
    name: "stress_weak_durable",
    why: "same trace with no dependency waits over the durable broker: WAL append, relaxed acks, flusher hand-off and snapshots are what is left",
    topology: "postgresql -> postgresql, weak, durable broker (fsync every 64, group commit), 2 workers",
    open_rate: 9_000.0,
    warmup_ops: 20_000,
    backlog_ops: 20_000,
    probe_op: "Comment create",
    seed_rows: USERS + SEED_POSTS,
};

pub struct Stress {
    spec: &'static Spec,
    durable: bool,
    mode: DeliveryMode,
    telemetry: bool,
    out: PathBuf,
    instance: u32,
    rng: Rng,
    sys: Option<Sys>,
    /// The engines play the disks that survive a restart.
    engines: Option<(Arc<dyn Adapter>, Arc<dyn Adapter>)>,
    user_deps: Vec<DepName>,
    next_post: u64,
    next_comment: u64,
    stamp: u64,
    snapshot_clock: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

fn schema(model: &str) -> ModelSchema {
    match model {
        "User" => ModelSchema::new("User").field("name"),
        "Post" => ModelSchema::new("Post")
            .field("author_id")
            .field("body")
            .field("stamp"),
        _ => ModelSchema::new("Comment")
            .field("post_id")
            .field("author_id")
            .field("body")
            .field("stamp"),
    }
}

fn fields(model: &str) -> &'static [&'static str] {
    match model {
        "User" => &["name"],
        "Post" => &["author_id", "body", "stamp"],
        _ => &["post_id", "author_id", "body", "stamp"],
    }
}

impl Stress {
    pub fn new(spec: &'static Spec, seed: u64, out: &Path, telemetry: bool) -> Stress {
        let durable = spec.name == WEAK_DURABLE.name;
        Stress {
            spec,
            durable,
            mode: if durable {
                DeliveryMode::Weak
            } else {
                DeliveryMode::Causal
            },
            telemetry,
            out: out.to_path_buf(),
            instance: 0,
            rng: Rng::new(seed),
            sys: None,
            engines: None,
            user_deps: (1..=USERS)
                .map(|u| DepName::object(PUB, "User", Id(u)))
                .collect(),
            next_post: 1,
            next_comment: 1,
            stamp: 0,
            snapshot_clock: None,
        }
    }

    fn start_snapshot_clock(&mut self) {
        if !self.durable {
            return;
        }
        let node = self.sys().replicas[0].clone();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::SeqCst) {
                node.maybe_snapshot();
                std::thread::park_timeout(SNAPSHOT_POLL);
            }
        });
        self.snapshot_clock = Some((stop, handle));
    }

    fn stop_snapshot_clock(&mut self) {
        if let Some((stop, handle)) = self.snapshot_clock.take() {
            stop.store(true, Ordering::SeqCst);
            handle.thread().unpark();
            let _ = handle.join();
        }
    }

    fn dir(&self) -> PathBuf {
        self.out.join(format!("instance-{}", self.instance))
    }

    fn wal_config(&self) -> WalConfig {
        WalConfig::new(self.dir().join("wal")).fsync(FsyncPolicy::Interval(64))
    }

    fn config(&self, app: &str) -> SynapseConfig {
        let config = SynapseConfig::new(app)
            .mode(self.mode)
            .workers(WORKERS)
            .dep_space(dep_space())
            .telemetry(self.telemetry);
        if self.durable {
            config
                .durable(self.dir().join(app))
                .fsync(FsyncPolicy::Interval(64))
                .snapshot_every(Some(SNAPSHOT_EVERY))
        } else {
            config
        }
    }

    fn ecosystem(&self) -> Ecosystem {
        if !self.durable {
            return Ecosystem::new();
        }
        let (eco, _) = Ecosystem::new_durable(self.wal_config()).expect("open the durable broker");
        eco
    }

    fn wire_publisher(&self, eco: &Ecosystem, engine: &Arc<dyn Adapter>) -> Arc<SynapseNode> {
        let publisher = eco.add_node(self.config(PUB), engine.clone());
        for (_, model) in MODELS {
            publisher.orm().define_model(schema(model)).expect("define");
            publisher
                .publish(Publication::model(model).fields(fields(model)))
                .expect("publish");
        }
        publisher
    }

    /// Declares the subscriber on `eco`; its callbacks feed `probe`.
    fn wire_subscriber(
        &self,
        eco: &Ecosystem,
        engine: &Arc<dyn Adapter>,
        probe: &Arc<Probe>,
    ) -> Arc<SynapseNode> {
        let subscriber = eco.add_node(self.config(SUB), engine.clone());
        for (_, model) in MODELS {
            subscriber
                .orm()
                .define_model(schema(model))
                .expect("define");
            subscriber
                .subscribe(Subscription::model(model, PUB).fields(fields(model)))
                .expect("subscribe");
        }
        attach_stamp_probe(&subscriber, 0, &MODELS, probe);
        assert!(eco.connect().is_empty(), "static pub/sub checks");
        subscriber
    }
}

impl Workload for Stress {
    fn spec(&self) -> &Spec {
        self.spec
    }

    fn setup(&mut self) -> SetupParts {
        self.teardown();
        self.instance += 1;
        self.next_post = 1;
        self.next_comment = 1;
        self.stamp = 0;
        let mut parts = SetupParts::default();

        let t0 = Instant::now();
        let engines = (
            adapters::for_vendor("postgresql", LatencyModel::off()),
            adapters::for_vendor("postgresql", LatencyModel::off()),
        );
        let probe = Probe::new(1, true);
        let eco = self.ecosystem();
        // The subscriber joins an application that already has data: wire
        // the publisher alone first, so the seed rows reach the subscriber
        // through bootstrap's object copy and not through its queue.
        let publisher = self.wire_publisher(&eco, &engines.0);
        parts.wire_ms = ms_since(t0);

        let t0 = Instant::now();
        for u in 1..=USERS {
            publisher
                .orm()
                .create_with_id("User", Id(u), vmap! { "name" => format!("user-{u}") })
                .expect("seed user");
        }
        for _ in 0..SEED_POSTS {
            let author = self.rng.below(USERS) + 1;
            publisher
                .orm()
                .create_with_id(
                    "Post",
                    Id(self.next_post),
                    vmap! { "author_id" => author, "body" => "helo", "stamp" => 0u64 },
                )
                .expect("seed post");
            self.next_post += 1;
        }
        parts.seed_ms = ms_since(t0);

        let t0 = Instant::now();
        let subscriber = self.wire_subscriber(&eco, &engines.1, &probe);
        parts.wire_ms += ms_since(t0);

        let t0 = Instant::now();
        let watch = watch_windows(&subscriber);
        subscriber
            .start_and_bootstrap_from(&publisher)
            .expect("bootstrap the subscriber");
        subscriber.clear_bootstrap_probe();
        parts.bootstrap_ms = ms_since(t0);
        parts.window_ms = window_ms(&[watch]);

        self.engines = Some(engines);
        self.sys = Some(Sys {
            eco,
            publisher,
            replicas: vec![subscriber],
            probe,
        });
        self.start_snapshot_clock();
        parts
    }

    fn sys(&self) -> &Sys {
        self.sys.as_ref().expect("set up")
    }

    fn op(&mut self, op: u64, parent: u32, tr: &mut Tracer) -> OpOut {
        let user = self.rng.below(USERS) + 1;
        let make_post = self.rng.below(100) < 25;
        let target = self.rng.below(self.next_post - 1) + 1;
        self.stamp += 1;
        let stamp = self.stamp;
        let sys = self.sys.as_ref().expect("set up");
        let orm = sys.publisher.orm();
        let user_dep = self.user_deps[user as usize - 1].clone();
        let (next_post, next_comment) = (self.next_post, self.next_comment);
        let (out, _) = with_user_scope(user_dep, || {
            if make_post {
                sys.probe.expect(op, 0, row_key(POST, next_post), stamp);
                let t0 = now_ns();
                let res = orm.create_with_id(
                    "Post",
                    Id(next_post),
                    vmap! { "author_id" => user, "body" => "helo", "stamp" => stamp },
                );
                tr.span("orm.write", t0, now_ns(), parent, op);
                OpOut {
                    write_ns: None,
                    failed: res.is_err(),
                }
            } else {
                // Reading the post makes it a read dependency of the
                // comment: the cross-user dependency of §6.3.
                let t0 = now_ns();
                let found = orm.find("Post", Id(target));
                tr.span("orm.find", t0, now_ns(), parent, op);
                if !matches!(found, Ok(Some(_))) {
                    return OpOut {
                        write_ns: None,
                        failed: true,
                    };
                }
                sys.probe
                    .expect(op, 0, row_key(COMMENT, next_comment), stamp);
                let t0 = now_ns();
                let res = orm.create_with_id(
                    "Comment",
                    Id(next_comment),
                    vmap! {
                        "post_id" => target,
                        "author_id" => user,
                        "body" => "you have a typo",
                        "stamp" => stamp,
                    },
                );
                let t1 = now_ns();
                tr.span("orm.write", t0, t1, parent, op);
                OpOut {
                    write_ns: Some(t1 - t0),
                    failed: res.is_err(),
                }
            }
        });
        if make_post {
            self.next_post += 1;
        } else if !out.failed || out.write_ns.is_some() {
            self.next_comment += 1;
        }
        out
    }

    fn stop_subscribers(&mut self) -> DrillParts {
        let sys = self.sys.as_ref().expect("set up");
        sys.eco.stop_all();
        let mut parts = DrillParts::default();
        if self.durable {
            let t0 = Instant::now();
            sys.eco.broker().checkpoint().expect("checkpoint");
            parts.checkpoint_ms = ms_since(t0);
        }
        parts
    }

    fn restart_subscribers(&mut self, parts: &mut DrillParts) {
        if !self.durable {
            self.sys().eco.start_all();
            return;
        }
        // The process "dies" with the backlog on disk: persist both nodes'
        // version stores, drop every node and the broker, and come back
        // from the WAL and the snapshots.
        self.stop_snapshot_clock();
        let old = self.sys.take().expect("set up");
        let t0 = Instant::now();
        old.publisher
            .persist_snapshot()
            .expect("publisher snapshot");
        old.replicas[0]
            .persist_snapshot()
            .expect("subscriber snapshot");
        parts.snapshot_ms = ms_since(t0);
        parts.snapshot_bytes = dir_bytes(&self.dir().join(SUB).join("snapshots")) as f64;
        let probe = old.probe.clone();
        drop(old);
        let eco = self.ecosystem();
        let engines = self.engines.as_ref().expect("set up");
        let publisher = self.wire_publisher(&eco, &engines.0);
        let subscriber = self.wire_subscriber(&eco, &engines.1, &probe);
        parts.restore_ms = subscriber
            .telemetry()
            .recovery_histogram()
            .snapshot()
            .mean()
            / 1e6;
        subscriber.start();
        self.sys = Some(Sys {
            eco,
            publisher,
            replicas: vec![subscriber],
            probe,
        });
        self.start_snapshot_clock();
    }

    fn probe_model(&self) -> &'static str {
        "Comment"
    }

    fn vendors(&self) -> &'static [&'static str] {
        &["postgresql"]
    }

    fn tap_vendor(&self) -> &'static str {
        "postgresql"
    }

    fn teardown(&mut self) {
        self.stop_snapshot_clock();
        if let Some(sys) = self.sys.take() {
            sys.eco.stop_all();
        }
        self.engines = None;
        if self.durable && self.instance > 0 {
            let _ = std::fs::remove_dir_all(self.dir());
        }
    }
}

/// Bytes of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

//! Multi-writer convergence: two writers of one bidirectional model
//! diverge under partitions and concurrent writes, then converge to an
//! identical final state once the mesh heals, each concurrent pair settled
//! by last-writer-wins on its `(clock, writer)` stamp.
//!
//! The deterministic tests force the interesting interleavings directly
//! (publish-failure windows as partitions; hand-built stamps through the
//! delivery emulator; a bootstrap copy racing a live write); the seeded property tests drive random
//! interleaved publish/partition/heal schedules through the full stack;
//! the free-running test lets two writer threads race with no schedule.

use proptest::prelude::*;
use proptest::test_runner::{Config, TestRunner};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;
use synapse_faults::{DbFaults, SeededRng};
use synapse_repro::core::subscriber::ProcessError;
use synapse_repro::core::testing::emulate_delivery;
use synapse_repro::core::{
    mesh_object, writer_id, DeliveryMode, DepName, Ecosystem, Publication, Subscription,
    SynapseConfig, SynapseNode, WriteMessage,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, Id, ModelSchema, Value};
use synapse_repro::orm::adapters::MongoidAdapter;
use synapse_repro::versionstore::{ObjectVersion, Stamp, VersionStore};

mod common;
use common::{eventually, field_of, mesh, quiesce, ranked, stamp_msg};

/// Partition both writers, apply one concurrent update on each side, heal,
/// and require convergence to the deterministic LWW winner: the stamps
/// fork at an equal clock, so the higher writer id wins on both nodes.
#[test]
fn partitioned_writers_converge_under_lww() {
    let eco = Ecosystem::new();
    let (a, b) = mesh(&eco, "mesh_a", "mesh_b", &["name"]);

    let user = a.orm().create("User", vmap! { "name" => "seed" }).unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        field_of(&b, user.id, "name").as_str() == Some("seed")
    }));

    // Partition: both writers journal instead of reaching the broker.
    a.publisher().inject_publish_failure(true);
    b.publisher().inject_publish_failure(true);
    a.orm()
        .update("User", user.id, vmap! { "name" => "from_a" })
        .unwrap();
    b.orm()
        .update("User", user.id, vmap! { "name" => "from_b" })
        .unwrap();

    // Heal: journals drain, each side receives the other's concurrent
    // write.
    a.publisher().inject_publish_failure(false);
    b.publisher().inject_publish_failure(false);
    a.publisher().recover();
    b.publisher().recover();
    quiesce(&a, &b);

    // Fork stamps: A's update carries (2, A), B's (2, B) — equal clocks,
    // so the greater writer id wins identically everywhere.
    let winner = if writer_id("mesh_a") > writer_id("mesh_b") {
        "from_a"
    } else {
        "from_b"
    };
    for node in [&a, &b] {
        assert_eq!(
            field_of(node, user.id, "name").as_str(),
            Some(winner),
            "{} did not converge to the LWW winner",
            node.app()
        );
    }
    eco.stop_all();
}

/// A weak-mode node subscribed bidirectionally to two remote writers, `wa`
/// and `wb`, that exist only as hand-built messages.
fn observer_of_two_writers(eco: &Ecosystem) -> (Arc<SynapseNode>, DbFaults) {
    let faults = DbFaults::new();
    let node = eco.add_node(
        SynapseConfig::new("observer").mode(DeliveryMode::Weak),
        faults.wrap(Arc::new(MongoidAdapter::new(
            "mongodb",
            LatencyModel::off(),
        ))),
    );
    node.orm()
        .define_model(ModelSchema::new("User").field("name"))
        .unwrap();
    for from in ["wa", "wb"] {
        node.subscribe(
            Subscription::model("User", from)
                .field("name")
                .bidirectional(),
        )
        .unwrap();
        node.set_publisher_mode(from, DeliveryMode::Weak);
    }
    (node, faults)
}

/// Deterministic classification through hand-built stamps: one node
/// subscribed bidirectionally to two remote writers receives a fresh
/// write, a tying fork (LWW tiebreak by writer id), a stale straggler
/// (→ discarded), and a newer follow-up.
#[test]
fn forced_concurrent_vectors_classify_and_resolve() {
    const OBJECT: Id = Id(11);
    let eco = Ecosystem::new();
    let (node, _) = observer_of_two_writers(&eco);
    let deliver = |app: &str, operation: &str, name: &str, stamp: Stamp| {
        let msg = stamp_msg(&node, OBJECT, app, operation, name, stamp);
        node.subscriber().process(&emulate_delivery(&msg)).unwrap();
    };
    let counts = || {
        let stats = node.subscriber_stats();
        (stats.ops_applied, stats.ops_stale)
    };
    let (wa, wb) = (writer_id("wa"), writer_id("wb"));

    // ① Fresh create from writer A.
    deliver("wa", "create", "from_a", (1, wa));
    assert_eq!(field_of(&node, OBJECT, "name").as_str(), Some("from_a"));
    assert_eq!(counts(), (1, 0));

    // ② A fork from writer B at the same clock: LWW breaks the tie by
    // writer id, identically on every replica.
    deliver("wb", "update", "from_b", (1, wb));
    let (winner, loser) = if wb > wa {
        ("from_b", ("wa", wa))
    } else {
        ("from_a", ("wb", wb))
    };
    assert_eq!(field_of(&node, OBJECT, "name").as_str(), Some(winner));
    assert_eq!(counts(), if wb > wa { (2, 0) } else { (1, 1) });

    // ③ Stale straggler: the tie's loser, redelivered, is below the
    // stored winner.
    let before = counts();
    deliver(loser.0, "update", "stale", (1, loser.1));
    assert_eq!(field_of(&node, OBJECT, "name").as_str(), Some(winner));
    assert_eq!(counts(), (before.0, before.1 + 1));

    // ④ A newer follow-up applies.
    deliver("wa", "update", "settled", (2, wa));
    assert_eq!(field_of(&node, OBJECT, "name").as_str(), Some("settled"));
    assert_eq!(counts(), (before.0 + 1, before.1 + 1));
}

/// A version counts as stored only once its write has landed: an incoming
/// write whose ORM write fails transiently leaves the version store
/// untouched, so its redelivery is judged exactly as the first attempt was
/// — a fresh create applies, and a fork that wins LWW still wins.
#[test]
fn concurrent_write_survives_transient_apply_failure() {
    let eco = Ecosystem::new();
    let (node, faults) = observer_of_two_writers(&eco);
    let (wa, wb) = (writer_id("wa"), writer_id("wb"));
    let twice = |msg: WriteMessage| {
        let delivery = emulate_delivery(&msg);
        faults.inject_write_errors(1);
        let failed = node.subscriber().process(&delivery).unwrap_err();
        assert!(matches!(failed, ProcessError::Transient(_)), "{failed}");
        node.subscriber().process(&delivery).unwrap();
    };

    // Fresh: a single create, failed once, applies on the second attempt.
    let lone = Id(12);
    twice(stamp_msg(&node, lone, "wa", "create", "from_a", (1, wa)));
    assert_eq!(field_of(&node, lone, "name").as_str(), Some("from_a"));
    assert_eq!(node.subscriber_stats().ops_applied, 1);

    // A fork: B's clock 2 never saw A's clock 1 and out-stamps it,
    // whichever writer id is greater.
    let forked = Id(11);
    node.subscriber()
        .process(&emulate_delivery(&stamp_msg(
            &node,
            forked,
            "wa",
            "create",
            "from_a",
            (1, wa),
        )))
        .unwrap();
    twice(stamp_msg(&node, forked, "wb", "update", "from_b", (2, wb)));
    assert_eq!(field_of(&node, forked, "name").as_str(), Some("from_b"));
    let stats = node.subscriber_stats();
    assert_eq!((stats.ops_applied, stats.ops_stale), (3, 0));
}

/// A bidirectional local write whose sub-store shard is dead still lands:
/// the row commits, the message goes out with no `stamps`, and the peer
/// judges it like a single-writer write, by the scalar of its object
/// dependency under the writer's per-app name (DESIGN.md *Wire
/// compatibility*) — leaving the object's mesh stamp where it was.
#[test]
fn dead_sub_store_write_goes_out_unstamped() {
    let eco = Ecosystem::new();
    let (a, b) = mesh(&eco, "mesh_a", "mesh_b", &["name"]);
    let user = a.orm().create("User", vmap! { "name" => "seed" }).unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        field_of(&b, user.id, "name").as_str() == Some("seed")
    }));

    let mesh = mesh_object("User", user.id).identity();
    a.sub_store().kill_shard(a.sub_store().shard_for(mesh));
    a.orm()
        .update("User", user.id, vmap! { "name" => "unstamped" })
        .unwrap();
    assert_eq!(field_of(&a, user.id, "name").as_str(), Some("unstamped"));
    assert!(eventually(Duration::from_secs(5), || {
        field_of(&b, user.id, "name").as_str() == Some("unstamped")
    }));

    let scalar = DepName::object("mesh_a", "User", user.id).identity();
    let objects = b.sub_store().dump().unwrap().objects;
    assert!(
        matches!(
            objects.iter().find(|(object, _)| *object == scalar),
            Some((_, ObjectVersion::Scalar(_)))
        ),
        "judged by its scalar: {objects:?}"
    );
    assert_eq!(
        b.sub_store().latest_stamp(mesh).unwrap(),
        (1, writer_id("mesh_a"))
    );
    eco.stop_all();
}

/// A weak-mode writer of `User.name` on MongoDB: it publishes the model
/// bidirectionally and subscribes to it, bidirectionally, from `from`.
fn mesh_writer(eco: &Ecosystem, app: &str, from: &[&str]) -> Arc<SynapseNode> {
    let node = eco.add_node(
        SynapseConfig::new(app).mode(DeliveryMode::Weak),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    node.orm()
        .define_model(ModelSchema::new("User").field("name"))
        .unwrap();
    node.publish(Publication::model("User").field("name").bidirectional())
        .unwrap();
    for peer in from {
        node.subscribe(
            Subscription::model("User", *peer)
                .field("name")
                .bidirectional(),
        )
        .unwrap();
    }
    node
}

/// A bootstrap copy carries the stamp of the content it copies. Writers
/// `wa` and `wb` create one row concurrently and settle it; `wc`, which
/// hears only `wa`, then updates it. An observer bootstrapped from `wa`
/// between the two must let `wc`'s later write through, as every writer
/// does. A copy stamped from everything `wa` had folded in — two writes'
/// worth of history under `wa`'s id — outranked `wc`'s stamp at the
/// observer, which kept the copied value for good.
#[test]
fn bootstrap_copy_carries_the_copied_content_stamp() {
    const ROW: Id = Id(42);
    let (wa, wc) = ranked("stamp_wa", "stamp_wc");
    let eco = Ecosystem::new();
    let a = mesh_writer(&eco, wa, &["stamp_wb", wc]);
    let b = mesh_writer(&eco, "stamp_wb", &[wa, wc]);
    let c = mesh_writer(&eco, wc, &[wa]);
    let violations = eco.connect();
    assert!(violations.is_empty(), "{violations:?}");
    eco.start_all();

    // Two creates of one row, each unseen by the other writer.
    for node in [&a, &b] {
        node.publisher().inject_publish_failure(true);
        let name = format!("from_{}", node.app());
        node.orm()
            .create_with_id("User", ROW, vmap! { "name" => name })
            .unwrap();
    }
    for node in [&a, &b] {
        node.publisher().inject_publish_failure(false);
        node.publisher().recover();
    }
    let settled = format!("from_{wa}");
    assert!(
        eventually(Duration::from_secs(10), || {
            let held = field_of(&a, ROW, "name");
            !held.is_null()
                && held == field_of(&b, ROW, "name")
                && field_of(&c, ROW, "name").as_str() == Some(settled.as_str())
        }),
        "the concurrent creates never settled"
    );

    let observer = eco.add_node(
        SynapseConfig::new("stamp_observer").mode(DeliveryMode::Weak),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    observer
        .orm()
        .define_model(ModelSchema::new("User").field("name"))
        .unwrap();
    for from in [wa, wc] {
        observer
            .subscribe(
                Subscription::model("User", from)
                    .field("name")
                    .bidirectional(),
            )
            .unwrap();
    }
    let violations = eco.connect();
    assert!(violations.is_empty(), "{violations:?}");
    observer.start_and_bootstrap_from(&a).unwrap();
    assert_eq!(field_of(&observer, ROW, "name"), field_of(&a, ROW, "name"));

    c.orm()
        .update("User", ROW, vmap! { "name" => "from_c" })
        .unwrap();
    let nodes = [&a, &b, &c, &observer];
    let converged = eventually(Duration::from_secs(10), || {
        nodes
            .iter()
            .all(|node| field_of(node, ROW, "name").as_str() == Some("from_c"))
    });
    let held: Vec<_> = nodes
        .iter()
        .map(|node| (node.app().to_owned(), field_of(node, ROW, "name")))
        .collect();
    assert!(converged, "not every replica took wc's write: {held:?}");
    eco.stop_all();
}

/// A mesh writer that loses the sub-store shard holding an object's stamp
/// — or the whole sub store — and gets it back empty keeps its clock, which
/// lives outside the shards: its next local write is stamped past every
/// stamp it saw, so its peer takes it rather than discarding it as stale.
#[test]
fn mesh_write_after_a_sub_store_shard_loss_converges() {
    let lose_shard = |store: &VersionStore, mesh: u64| store.kill_shard(store.shard_for(mesh));
    let lose_store = |store: &VersionStore, _: u64| store.kill();
    for (case, lose) in [
        ("shard", &lose_shard as &dyn Fn(&VersionStore, u64)),
        ("store", &lose_store),
    ] {
        let eco = Ecosystem::new();
        let (a, b) = mesh(&eco, "mesh_a", "mesh_b", &["name"]);
        let user = a.orm().create("User", vmap! { "name" => "seed" }).unwrap();
        for i in 0..3 {
            a.orm()
                .update("User", user.id, vmap! { "name" => format!("a{i}") })
                .unwrap();
        }
        assert!(eventually(Duration::from_secs(5), || {
            field_of(&b, user.id, "name").as_str() == Some("a2")
        }));

        let mesh = mesh_object("User", user.id).identity();
        lose(a.sub_store(), mesh);
        a.sub_store().revive();
        a.orm()
            .update("User", user.id, vmap! { "name" => "after_loss" })
            .unwrap();
        quiesce(&a, &b);
        assert_eq!(
            field_of(&a, user.id, "name").as_str(),
            Some("after_loss"),
            "{case} loss"
        );
        assert_eq!(
            field_of(&a, user.id, "name"),
            field_of(&b, user.id, "name"),
            "replicas diverged after a {case} loss"
        );
        eco.stop_all();
    }
}

/// One step of a seeded schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Writer 0/1 updates the row with a value derived from the step index.
    Write(usize),
    /// Writer 0/1 loses its broker link (writes journal locally).
    Partition(usize),
    /// Writer 0/1 regains the broker and drains its journal.
    Heal(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Writes listed twice: half the schedule mutates, the other half
    // toggles partitions.
    prop_oneof![
        (0usize..2).prop_map(Step::Write),
        (0usize..2).prop_map(Step::Write),
        (0usize..2).prop_map(Step::Partition),
        (0usize..2).prop_map(Step::Heal),
    ]
}

/// Drives one random schedule through a live mesh and asserts both
/// replicas converge to the identical row once healed and quiescent.
fn run_schedule(schedule: &[Step]) {
    let eco = Ecosystem::new();
    let (a, b) = mesh(&eco, "mesh_a", "mesh_b", &["name"]);
    let nodes = [&a, &b];

    let user = a.orm().create("User", vmap! { "name" => "seed" }).unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        b.orm().find("User", user.id).unwrap().is_some()
    }));

    for (i, step) in schedule.iter().enumerate() {
        match step {
            Step::Write(w) => {
                // A partitioned or racing writer can fail transiently; the
                // schedule just moves on, like a retrying controller.
                let _ = nodes[*w].orm().update(
                    "User",
                    user.id,
                    vmap! { "name" => format!("w{w}-{i}") },
                );
            }
            Step::Partition(w) => nodes[*w].publisher().inject_publish_failure(true),
            Step::Heal(w) => {
                nodes[*w].publisher().inject_publish_failure(false);
                nodes[*w].publisher().recover();
            }
        }
    }
    // Final heal: every journaled write reaches the mesh.
    for node in nodes {
        node.publisher().inject_publish_failure(false);
        node.publisher().recover();
    }
    quiesce(&a, &b);

    let final_a = field_of(&a, user.id, "name");
    let final_b = field_of(&b, user.id, "name");
    assert_eq!(final_a, final_b, "replicas diverged after {schedule:?}");
    eco.stop_all();
}

/// Random interleaved publish/partition/heal schedules converge to an
/// identical final state. Each case spins an ecosystem with worker
/// threads, so the count stays small.
#[test]
fn seeded_schedules_converge_under_lww() {
    let mut runner = TestRunner::new(Config {
        cases: 12,
        ..Config::default()
    });
    let strategy = prop::collection::vec(step_strategy(), 1..14);
    runner
        .run(&strategy, |schedule| {
            run_schedule(&schedule);
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{e}"));
}

/// What a diverged mesh looks like: each node's counters and, for every
/// row the replicas disagree on, each side's `name` and stored LWW stamp
/// (the state that decides who should have won).
fn divergence_report(nodes: [&SynapseNode; 2], ids: &[Id]) -> String {
    let mut out = String::new();
    for node in nodes {
        let stats = node.subscriber_stats();
        let _ = write!(
            out,
            "\n  {}: journal={} processed={} applied={} stale={}",
            node.app(),
            node.publisher().journal_len(),
            stats.messages_processed,
            stats.ops_applied,
            stats.ops_stale,
        );
    }
    let dumps = nodes.map(|node| node.sub_store().dump().unwrap_or_default());
    let differing = ids
        .iter()
        .filter(|&&id| field_of(nodes[0], id, "name") != field_of(nodes[1], id, "name"));
    for &id in differing {
        let mesh = mesh_object("User", id).identity();
        for (node, dump) in nodes.iter().zip(&dumps) {
            let name = field_of(node, id, "name");
            let _ = write!(out, "\n  User {id} @ {}: name={name:?}", node.app());
            match dump.objects.iter().find(|(object, _)| *object == mesh) {
                Some((_, ObjectVersion::Mesh(stamp))) => {
                    let _ = write!(out, " stamp={stamp:?}");
                }
                _ => out.push_str(" (no stored stamp)"),
            }
        }
    }
    out
}

/// Two writer threads, one per node, update rows drawn from a shared pool
/// with nothing ordering them; once the mesh is quiescent every row must
/// be identical on both sides.
fn free_running_arm(pool: u64) {
    const OPS: u64 = 150;
    let eco = Ecosystem::new();
    let (a, b) = mesh(&eco, "mesh_a", "mesh_b", &["name"]);

    // The pool originates on one writer and replicates before the storm,
    // so both sides race over the same logical rows. This is also the
    // single-writer drain of a bidirectional pair, under a deadline.
    let ids: Vec<Id> = (0..pool)
        .map(|i| {
            let row = a
                .orm()
                .create("User", vmap! { "name" => format!("seed-{i}") });
            row.unwrap().id
        })
        .collect();
    assert!(
        eventually(Duration::from_secs(60), || ids.iter().all(|&id| b
            .orm()
            .find("User", id)
            .unwrap()
            .is_some())),
        "pool never replicated"
    );

    std::thread::scope(|scope| {
        for (region, node) in [&a, &b].into_iter().enumerate() {
            let ids = &ids;
            scope.spawn(move || {
                let mut rng = SeededRng::new(0x9E37 + region as u64);
                for i in 0..OPS {
                    let id = ids[rng.gen_below(pool) as usize];
                    node.orm()
                        .update("User", id, vmap! { "name" => format!("r{region}-{i}") })
                        .unwrap();
                    std::thread::yield_now();
                }
            });
        }
    });

    quiesce(&a, &b);
    let names = |node: &SynapseNode| -> Vec<Value> {
        ids.iter().map(|&id| field_of(node, id, "name")).collect()
    };
    assert_eq!(
        names(&a),
        names(&b),
        "mesh diverged (pool={pool}):{}",
        divergence_report([&a, &b], &ids)
    );
    eco.stop_all();
}

/// A hot pool of 4 rows and a cooler one of 64.
#[test]
fn free_running_writers_converge() {
    free_running_arm(4);
    free_running_arm(64);
}

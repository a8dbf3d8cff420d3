//! Forced interleavings of the version store's admission script
//! (`VersionStore::reserve` → `Admission::classify` → the ORM write →
//! `Admission::commit`), which every write of a versioned object runs.
//!
//! - The copier-vs-worker apply race: two threads carrying different
//!   versions of one object used to both pass the freshness check before
//!   either applied, and the *older* one could write the row last. The
//!   reservation spans verdict and write, so the fresh value survives the
//!   stale apply parked between the two.
//! - The publish-vs-apply race: a local write of a bidirectional model
//!   once stamped its object with a second, unreserved script, so it could
//!   land between an incoming apply's verdict and its row write — each
//!   replica then held the other writer's value under the same stamp. The local write now reserves its object too; the forced
//!   schedule must leave both replicas equal.
//! - The rules that make one script safe for both: a callback writing
//!   under an apply re-enters the stripe its thread holds (the applied
//!   object or another on its stripe) and its stamp follows the applied
//!   one; and a local write reserves before it takes dependency locks,
//!   so a global-mode callback under an apply cannot deadlock with it. Each
//!   must finish within a deadline.
//!
//! There is no way to run without the reservation, so the stale value
//! landing last is no longer reproducible, by construction.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use synapse_repro::core::testing::emulate_delivery;
use synapse_repro::core::{
    mesh_object, writer_id, DeliveryMode, DepName, Ecosystem, Operation, Publication, Subscription,
    SynapseConfig, SynapseNode, WriteMessage,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, Id, ModelSchema, Record, Value};
use synapse_repro::orm::adapters::{ActiveRecordAdapter, MongoidAdapter};
use synapse_repro::orm::CallbackPoint;

mod common;
use common::{eventually, field_of, mesh, quiesce, ranked, stamp_msg};

const OBJECT: Id = Id(7);

/// A one-shot rendezvous between two threads.
#[derive(Default)]
struct Signal {
    raised: Mutex<bool>,
    cvar: Condvar,
}

impl Signal {
    fn raise(&self) {
        *self.raised.lock().unwrap() = true;
        self.cvar.notify_all();
    }

    /// Waits up to `timeout` for the signal; returns whether it came.
    fn wait(&self, timeout: Duration) -> bool {
        let raised = self.raised.lock().unwrap();
        let (raised, _) = self
            .cvar
            .wait_timeout_while(raised, timeout, |raised| !*raised)
            .unwrap();
        *raised
    }
}

/// Builds a weak-mode message for the shared object carrying `version`
/// in its dependency map.
fn object_msg(operation: &str, key: u64, version: u64, name: &str) -> WriteMessage {
    let mut attrs = BTreeMap::new();
    attrs.insert("name".to_owned(), Value::from(name));
    let record = Record::with_attrs("User", OBJECT, attrs);
    WriteMessage {
        app: "pub1".to_owned(),
        operations: vec![Operation::from_record(operation, record)],
        dependencies: [(key, version)].into_iter().collect(),
        published_at: 0,
        generation: 1,
        stamps: BTreeMap::new(),
    }
}

/// Runs the forced interleaving once and returns the final row value.
///
/// Thread B processes the *stale* update (version 1). A `BeforeUpdate`
/// callback recognizes B's payload, signals the main thread, and parks —
/// B is now past the freshness check but before its ORM write. The main
/// thread then processes the *fresh* update (version 2) end to end and
/// releases B. Without per-object exclusion B's stale write would land
/// last; with it, the main thread blocks on the object's reservation until
/// B finishes, so the fresh write always wins.
fn race_once() -> String {
    let eco = Ecosystem::new();
    let pub1 = eco.add_node(
        SynapseConfig::new("pub1").mode(DeliveryMode::Weak),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    pub1.orm().define_model(ModelSchema::open("User")).unwrap();
    pub1.publish(Publication::model("User").field("name"))
        .unwrap();

    let sub = eco.add_node(
        SynapseConfig::new("sub1").mode(DeliveryMode::Weak),
        Arc::new(ActiveRecordAdapter::new("postgresql", LatencyModel::off())),
    );
    sub.orm()
        .define_model(ModelSchema::new("User").field("name"))
        .unwrap();
    sub.subscribe(Subscription::model("User", "pub1").field("name"))
        .unwrap();
    sub.set_publisher_mode("pub1", DeliveryMode::Weak);

    let key = sub
        .config()
        .dep_space
        .key(&DepName::object("pub1", "User", OBJECT));

    // Seed the row through the replication path (subscribed models are
    // owner-write-only) so both racing operations are plain updates.
    sub.subscriber()
        .process(&emulate_delivery(&object_msg("create", key, 0, "v0")))
        .unwrap();

    // Rendezvous: B announces it is inside the race window, then waits
    // (bounded) for the fresh apply to finish.
    let (b_inside, fresh_done) = (Arc::new(Signal::default()), Arc::new(Signal::default()));
    {
        let (b_inside, fresh_done) = (b_inside.clone(), fresh_done.clone());
        sub.orm()
            .on("User", CallbackPoint::BeforeUpdate, move |_, rec| {
                if rec.get("name").as_str() == Some("v1") {
                    b_inside.raise();
                    // Bounded wait: the fresh apply *cannot* proceed while we
                    // hold the reservation, so this times out and B simply
                    // applies first.
                    fresh_done.wait(Duration::from_millis(400));
                }
                Ok(())
            });
    }

    let stale = emulate_delivery(&object_msg("update", key, 1, "v1"));
    let fresh = emulate_delivery(&object_msg("update", key, 2, "v2"));

    let subscriber = sub.subscriber().clone();
    let b = std::thread::spawn(move || subscriber.process(&stale));

    assert!(
        b_inside.wait(Duration::from_secs(2)),
        "B never reached the race window"
    );
    sub.subscriber().process(&fresh).unwrap();
    fresh_done.raise();
    b.join().unwrap().unwrap();

    sub.orm()
        .find("User", OBJECT)
        .unwrap()
        .expect("row exists")
        .get("name")
        .as_str()
        .expect("name is a string")
        .to_owned()
}

/// The reservation spans the freshness check and the ORM write: the fresh
/// value survives the forced schedule.
#[test]
fn reservation_serializes_the_racing_pair() {
    assert_eq!(race_once(), "v2");
}

/// Creates a `User` row on `owner` and waits until `other` holds it too.
fn replicated_row(owner: &SynapseNode, other: &SynapseNode, id: Option<Id>) -> Id {
    let attrs = vmap! { "name" => "seed" };
    let row = match id {
        Some(id) => owner.orm().create_with_id("User", id, attrs),
        None => owner.orm().create("User", attrs),
    };
    let id = row.unwrap().id;
    assert!(eventually(Duration::from_secs(5), || {
        field_of(other, id, "name").as_str() == Some("seed")
    }));
    id
}

/// The publish-vs-apply schedule: the peer's write of a row is classified
/// on the local node and parks before its row write; the local node
/// updates the row; the incoming write lands and commits; the local
/// write's message reaches the peer. The names make the local stamp win
/// LWW at the peer whenever it misses the incoming version — as a stamp
/// taken without the reservation did — so each replica would keep the
/// other writer's value. Reserving, the local write waits out the apply,
/// follows its version, and both replicas end on the local value.
#[test]
fn local_write_waits_out_an_incoming_apply() {
    let (local_app, peer_app) = ranked("race_l", "race_p");
    let eco = Ecosystem::new();
    let (local, peer) = mesh(&eco, local_app, peer_app, &["name"]);
    let row = replicated_row(&local, &peer, None);

    let (classified, written) = (Arc::new(Signal::default()), Arc::new(Signal::default()));
    {
        let (classified, written) = (classified.clone(), written.clone());
        local
            .orm()
            .on("User", CallbackPoint::BeforeUpdate, move |_, rec| {
                if rec.get("name").as_str() == Some("from_peer") {
                    classified.raise();
                    // Bounded: a local write that reserves the row cannot
                    // finish while this apply holds it.
                    written.wait(Duration::from_millis(400));
                }
                Ok(())
            });
    }
    peer.orm()
        .update("User", row, vmap! { "name" => "from_peer" })
        .unwrap();
    assert!(
        classified.wait(Duration::from_secs(5)),
        "the incoming write never reached its row write"
    );
    local
        .orm()
        .update("User", row, vmap! { "name" => "from_local" })
        .unwrap();
    written.raise();

    quiesce(&local, &peer);
    assert_eq!(
        field_of(&local, row, "name"),
        field_of(&peer, row, "name"),
        "replicas diverged"
    );
    assert_eq!(field_of(&local, row, "name").as_str(), Some("from_local"));
    eco.stop_all();
}

/// A mesh whose reacting node answers the peer's write of a row with a
/// callback at `point` that writes `target(row)` — while the apply still
/// holds the row's reservation. Waits, within a deadline, until the
/// callback's write reached the peer, then for the mesh to go quiet, and
/// returns the nodes (reactor first), the row and the target. The peer's
/// writer id is the greater, so a callback stamp that missed the applied
/// version would lose LWW at the peer.
fn callback_under_an_apply(
    eco: &Ecosystem,
    point: CallbackPoint,
    target: impl Fn(Id) -> Id,
) -> (Arc<SynapseNode>, Arc<SynapseNode>, Id, Id) {
    let (peer_app, reactor_app) = ranked("reentry_p", "reentry_r");
    let (reactor, peer) = mesh(eco, reactor_app, peer_app, &["name"]);
    let row = replicated_row(&reactor, &peer, None);
    let written = target(row);
    if written != row {
        replicated_row(&reactor, &peer, Some(written));
    }
    reactor.orm().on("User", point, move |ctx, rec| {
        if rec.get("name").as_str() == Some("from_peer") {
            ctx.orm
                .update("User", written, vmap! { "name" => "reacted" })?;
        }
        Ok(())
    });
    peer.orm()
        .update("User", row, vmap! { "name" => "from_peer" })
        .unwrap();
    assert!(
        eventually(Duration::from_secs(10), || {
            field_of(&peer, written, "name").as_str() == Some("reacted")
        }),
        "the callback's write never reached the peer"
    );
    quiesce(&reactor, &peer);
    (reactor, peer, row, written)
}

/// Re-entry, same object: the callback rewrites the applied row under the
/// apply's reservation. Its stamp follows the applied one — the reactor's
/// create is clock 1, the peer's update clock 2, the callback's write
/// clock 3 — so the peer takes it, and both replicas end on the
/// callback's value under the same stamp, with nothing discarded.
#[test]
fn callback_rewriting_the_applied_row_reenters_and_follows_it() {
    let eco = Ecosystem::new();
    let (reactor, peer, row, _) =
        callback_under_an_apply(&eco, CallbackPoint::AfterUpdate, |row| row);
    let mesh = mesh_object("User", row).identity();
    let followed = (3, writer_id(reactor.app()));
    // The reactor applies the peer's update; the peer, the reactor's
    // create and the callback's write.
    for (node, applied) in [(&reactor, 1), (&peer, 2)] {
        assert_eq!(field_of(node, row, "name").as_str(), Some("reacted"));
        assert_eq!(node.sub_store().latest_stamp(mesh).unwrap(), followed);
        let stats = node.subscriber_stats();
        assert_eq!((stats.ops_applied, stats.ops_stale), (applied, 0));
    }
    eco.stop_all();
}

/// The same re-entry from a before-callback: the callback's write commits
/// and publishes a stamp above the applied one before the apply's own row
/// write runs. The apply still holds the object's stripe, sees that its
/// stamp has lost under LWW and skips its row write, so both replicas keep
/// the callback's value under the callback's stamp.
#[test]
fn before_callback_rewriting_the_applied_row_converges() {
    let eco = Ecosystem::new();
    let (reactor, peer, row, _) =
        callback_under_an_apply(&eco, CallbackPoint::BeforeUpdate, |row| row);
    let mesh = mesh_object("User", row).identity();
    assert_eq!(
        field_of(&reactor, row, "name"),
        field_of(&peer, row, "name"),
        "replicas diverged"
    );
    assert_eq!(field_of(&reactor, row, "name").as_str(), Some("reacted"));
    assert_eq!(
        reactor.sub_store().latest_stamp(mesh).unwrap(),
        peer.sub_store().latest_stamp(mesh).unwrap()
    );
    eco.stop_all();
}

/// Re-entry, another object on the same one of the 256 stripes: the
/// callback's write enters the stripe its thread holds instead of
/// deadlocking on it, and both rows converge.
#[test]
fn callback_writing_a_row_on_the_applied_stripe_reenters() {
    const STRIPES: u64 = 256;
    let stripe = |id: Id| mesh_object("User", id).identity() % STRIPES;
    let eco = Ecosystem::new();
    let (reactor, peer, row, neighbour) =
        callback_under_an_apply(&eco, CallbackPoint::AfterUpdate, |row| {
            (row.0 + 1..)
                .map(Id)
                .find(|&id| stripe(id) == stripe(row))
                .unwrap()
        });
    assert_ne!(row, neighbour);
    for node in [&reactor, &peer] {
        assert_eq!(field_of(node, row, "name").as_str(), Some("from_peer"));
        assert_eq!(field_of(node, neighbour, "name").as_str(), Some("reacted"));
    }
    eco.stop_all();
}

/// Lock order: a global-mode node locks its global dependency for every
/// local write. An apply of a mesh row parks in a callback until a second
/// thread has begun a local write of that row, then writes a published
/// model itself. Were the dependency locks taken before the reservation,
/// the local write would hold the global lock while it waits for the row,
/// and the callback would wait for the global lock: a deadlock. Both must
/// finish within a deadline.
#[test]
fn global_mode_callback_and_local_write_do_not_deadlock() {
    let eco = Ecosystem::new();
    let node = eco.add_node(
        SynapseConfig::new("ordered").mode(DeliveryMode::Global),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    node.orm()
        .define_model(ModelSchema::new("User").field("name"))
        .unwrap();
    node.orm().define_model(ModelSchema::open("Audit")).unwrap();
    node.publish(Publication::model("User").field("name").bidirectional())
        .unwrap();
    node.publish(Publication::model("Audit").field("note"))
        .unwrap();
    node.subscribe(
        Subscription::model("User", "remote")
            .field("name")
            .bidirectional(),
    )
    .unwrap();
    node.set_publisher_mode("remote", DeliveryMode::Weak);
    let remote = |operation: &str, name: &str, clock: u64| {
        let stamp = (clock, writer_id("remote"));
        emulate_delivery(&stamp_msg(&node, OBJECT, "remote", operation, name, stamp))
    };
    node.subscriber()
        .process(&remote("create", "seed", 1))
        .unwrap();

    let (applying, writing) = (Arc::new(Signal::default()), Arc::new(Signal::default()));
    {
        let (applying, writing) = (applying.clone(), writing.clone());
        node.orm()
            .on("User", CallbackPoint::AfterUpdate, move |ctx, rec| {
                if rec.get("name").as_str() == Some("from_remote") {
                    applying.raise();
                    writing.wait(Duration::from_secs(5));
                    // Let the local write reach its first lock.
                    std::thread::sleep(Duration::from_millis(50));
                    ctx.orm.create("Audit", vmap! { "note" => "seen" })?;
                }
                Ok(())
            });
    }
    let (done, finished) = mpsc::channel();
    let update = remote("update", "from_remote", 2);
    let apply = {
        let (node, done) = (node.clone(), done.clone());
        std::thread::spawn(move || {
            node.subscriber().process(&update).unwrap();
            done.send(()).unwrap();
        })
    };
    assert!(applying.wait(Duration::from_secs(5)), "the apply never ran");
    let local = {
        let node = node.clone();
        std::thread::spawn(move || {
            writing.raise();
            node.orm()
                .update("User", OBJECT, vmap! { "name" => "local" })
                .unwrap();
            done.send(()).unwrap();
        })
    };
    for _ in 0..2 {
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the apply and the local write deadlocked");
    }
    apply.join().unwrap();
    local.join().unwrap();
    assert_eq!(field_of(&node, OBJECT, "name").as_str(), Some("local"));
}

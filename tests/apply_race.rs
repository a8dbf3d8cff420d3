//! Regression test for the copier-vs-worker apply race (ROADMAP's
//! subscriber gap): the version-store freshness check and the ORM apply
//! used to be two separate steps, so two threads carrying different versions of the same
//! object could *both* pass the freshness check before either applied —
//! and the thread carrying the **older** version could write the row last,
//! leaving the database stale while the version store says fresh.
//!
//! The exclusion is the version store's admission script: `apply_op`
//! reserves the object (`VersionStore::reserve`, one of 256 stripes) before
//! it classifies the carried version and holds the reservation across the
//! ORM writes until `commit`. This test forces the original interleaving —
//! the stale apply parked between its verdict and its write — and requires
//! the fresh value to survive it. There is no way to run without the
//! reservation, so the schedule's other half (stale value lands last) is
//! no longer reproducible, by construction.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use synapse_repro::core::testing::emulate_delivery;
use synapse_repro::core::{
    DeliveryMode, DepName, Ecosystem, Operation, Publication, Subscription, SynapseConfig,
    WriteMessage,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{Id, ModelSchema, Record, Value};
use synapse_repro::orm::adapters::{ActiveRecordAdapter, MongoidAdapter};
use synapse_repro::orm::CallbackPoint;

const OBJECT: Id = Id(7);

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
        vectors: BTreeMap::new(),
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
    let b_inside = Arc::new((Mutex::new(false), Condvar::new()));
    let fresh_done = Arc::new(AtomicBool::new(false));
    {
        let b_inside = b_inside.clone();
        let fresh_done = fresh_done.clone();
        sub.orm()
            .on("User", CallbackPoint::BeforeUpdate, move |_, rec| {
                if rec.get("name").as_str() == Some("v1") {
                    let (lock, cvar) = &*b_inside;
                    *lock.lock().unwrap() = true;
                    cvar.notify_all();
                    // Bounded wait: the fresh apply *cannot* proceed while we
                    // hold the reservation, so this times out and B simply
                    // applies first.
                    let deadline = std::time::Instant::now() + Duration::from_millis(400);
                    while !fresh_done.load(Ordering::SeqCst) && std::time::Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                Ok(())
            });
    }

    let stale = emulate_delivery(&object_msg("update", key, 1, "v1"));
    let fresh = emulate_delivery(&object_msg("update", key, 2, "v2"));

    let subscriber = sub.subscriber().clone();
    let b = std::thread::spawn(move || subscriber.process(&stale));

    // Wait until B is parked inside the race window.
    {
        let (lock, cvar) = &*b_inside;
        let mut inside = lock.lock().unwrap();
        while !*inside {
            let (guard, timeout) = cvar.wait_timeout(inside, Duration::from_secs(2)).unwrap();
            inside = guard;
            assert!(!timeout.timed_out(), "B never reached the race window");
        }
    }

    sub.subscriber().process(&fresh).unwrap();
    fresh_done.store(true, Ordering::SeqCst);
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

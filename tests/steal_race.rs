//! Forced-interleaving test for work stealing (the ISSUE 7 delivery
//! plane): a thief that steals a later message for an object while the
//! home worker is mid-apply on an earlier one must not let the later
//! write land first and be overwritten by the stale resume.
//!
//! Companion to `apply_race.rs`: same rendezvous technique (a
//! `BeforeUpdate` callback parks the home worker inside the race
//! window), but the two deliveries here traverse a *real* partitioned
//! broker queue — keyed `publish_routed` puts both messages for the
//! object in one partition in order, the home worker takes the first
//! via `pop_batch_from`, and the thief takes the second via
//! `steal_batch` from the same partition, exactly the pool's steal
//! path. What makes the steal safe is the version store's per-object
//! reservation (`VersionStore::reserve`), held from the verdict through
//! the ORM write to `commit`; nothing can switch it off, so only the safe
//! outcome of the schedule is left to assert.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use synapse_repro::broker::{Broker, QueueConfig};
use synapse_repro::core::{
    DeliveryMode, DepName, Ecosystem, Operation, Publication, Subscription, SynapseConfig,
    WriteMessage,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{Id, ModelSchema, Record, Value};
use synapse_repro::orm::adapters::{ActiveRecordAdapter, MongoidAdapter};
use synapse_repro::orm::CallbackPoint;

const OBJECT: Id = Id(7);

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

/// Runs the forced steal schedule once and returns the final row value.
///
/// The home worker pops the *earlier* update (v1) from the object's
/// partition and parks mid-apply; the thief then steals the *later*
/// update (v2) from the same partition and applies it on this thread.
/// Without per-object exclusion the thief's fresh write would land first
/// and the resuming home worker overwrite it with the stale value;
/// with the reservation held across the freshness check and the ORM
/// write, the thief blocks until the home worker finishes, so the
/// fresh value always survives.
fn steal_race_once() -> String {
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

    // A standalone partitioned queue carrying the racing pair; the node's
    // own pool must not drain it, so it lives on its own broker.
    let broker = Broker::new();
    broker.declare_queue(
        "race",
        QueueConfig {
            max_len: None,
            partitions: 4,
        },
    );
    broker.bind("pub1", "race");
    let consumer = broker.consumer("race").unwrap();

    // Seed the row through the replication path (subscribed models are
    // owner-write-only) so both racing operations are plain updates.
    broker
        .publish_routed("pub1", object_msg("create", key, 0, "v0").encode(), 0, key)
        .unwrap();
    broker
        .publish_routed("pub1", object_msg("update", key, 1, "v1").encode(), 0, key)
        .unwrap();
    broker
        .publish_routed("pub1", object_msg("update", key, 2, "v2").encode(), 0, key)
        .unwrap();

    // Keyed routing put all three in one partition, in publish order.
    let depths = broker.partition_depths("race").unwrap();
    let partition = depths
        .iter()
        .position(|d| *d == 3)
        .expect("one partition holds the key");

    let seed = consumer.pop_batch_from(partition, 1).pop().unwrap();
    sub.subscriber().process(&seed).unwrap();
    consumer.ack(seed.tag);

    // Rendezvous: the home worker announces it is inside the race window
    // (past the freshness check, before the ORM write), then waits
    // (bounded) for the thief's apply to finish.
    let home_inside = Arc::new((Mutex::new(false), Condvar::new()));
    let thief_done = Arc::new(AtomicBool::new(false));
    {
        let home_inside = home_inside.clone();
        let thief_done = thief_done.clone();
        sub.orm()
            .on("User", CallbackPoint::BeforeUpdate, move |_, rec| {
                if rec.get("name").as_str() == Some("v1") {
                    let (lock, cvar) = &*home_inside;
                    *lock.lock().unwrap() = true;
                    cvar.notify_all();
                    // Bounded wait: the thief *cannot* apply while we hold the
                    // reservation, so this times out and the home worker
                    // simply applies first.
                    let deadline = std::time::Instant::now() + Duration::from_millis(400);
                    while !thief_done.load(Ordering::SeqCst) && std::time::Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                Ok(())
            });
    }

    // Home worker: pop the earlier update from its partition and apply.
    let stale = consumer.pop_batch_from(partition, 1).pop().unwrap();
    let stale_tag = stale.tag;
    let subscriber = sub.subscriber().clone();
    let home = std::thread::spawn(move || subscriber.process(&stale));

    // Wait until the home worker is parked inside the race window.
    {
        let (lock, cvar) = &*home_inside;
        let mut inside = lock.lock().unwrap();
        while !*inside {
            let (guard, timeout) = cvar.wait_timeout(inside, Duration::from_secs(2)).unwrap();
            inside = guard;
            assert!(
                !timeout.timed_out(),
                "home worker never reached the race window"
            );
        }
    }

    // Thief: steal the later update from the same partition and apply it
    // on this thread while the home worker is still mid-apply.
    let stolen = consumer.steal_batch(partition, 1).pop().unwrap();
    assert_eq!(
        stolen.payload.as_str(),
        object_msg("update", key, 2, "v2").encode(),
        "the thief took the partition's next ready message"
    );
    sub.subscriber().process(&stolen).unwrap();
    thief_done.store(true, Ordering::SeqCst);
    home.join().unwrap().unwrap();

    // Steal bookkeeping: both tags ack back to the queue they live on,
    // and nothing is left ready or un-acked.
    assert!(consumer.ack(stale_tag), "home worker's tag stayed live");
    assert!(consumer.ack(stolen.tag), "stolen delivery acks by its tag");
    assert_eq!(broker.queue_len("race"), Some(0));
    assert_eq!(broker.queue_unacked_len("race"), Some(0));

    sub.orm()
        .find("User", OBJECT)
        .unwrap()
        .expect("row exists")
        .get("name")
        .as_str()
        .expect("name is a string")
        .to_owned()
}

/// The per-object reservation spans the freshness check and the ORM
/// write: the stolen (later) update survives the forced schedule.
#[test]
fn reservation_makes_stealing_order_safe() {
    assert_eq!(steal_race_once(), "v2");
}

//! Durable recovery: crash a durable ecosystem and bring it back.
//!
//! The durability plane (DESIGN.md "The durability plane") makes a node
//! restart a local operation: the broker replays its segmented WAL, the
//! subscriber loads its latest version-store snapshot, and an interrupted
//! workload picks up where it stopped — acked messages never come back,
//! unacked messages always do.
//!
//! Three acts:
//!   1. A durable publisher/subscriber pair replicates live writes; the
//!      subscriber persists a version-store snapshot.
//!   2. The whole process "dies" — every node and the broker are dropped
//!      with messages still in flight.
//!   3. A new incarnation opens the same directory: the WAL replay and
//!      snapshot load are visible in the recovery report and telemetry,
//!      the in-flight messages are redelivered, and replication carries on.
//!
//! Run with: `cargo run --example durable_recovery`

use std::sync::Arc;
use std::time::Duration;
use synapse_repro::broker::{FsyncPolicy, WalConfig};
use synapse_repro::core::{Ecosystem, Publication, Subscription, SynapseConfig, SynapseNode};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, Id, ModelSchema};
use synapse_repro::orm::adapters::MongoidAdapter;

fn build(
    eco: &Ecosystem,
    pub_db: &Arc<MongoidAdapter>,
    sub_db: &Arc<MongoidAdapter>,
    state_dir: &std::path::Path,
) -> (Arc<SynapseNode>, Arc<SynapseNode>) {
    let publisher = eco.add_node(SynapseConfig::new("pub"), pub_db.clone());
    publisher
        .orm()
        .define_model(ModelSchema::open("Order"))
        .unwrap();
    publisher
        .publish(Publication::model("Order").fields(&["item", "qty"]))
        .unwrap();
    let subscriber = eco.add_node(
        SynapseConfig::new("sub")
            .wait_timeout(Some(Duration::from_millis(50)))
            .durable(state_dir)
            .snapshot_every(Some(8)),
        sub_db.clone(),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("Order"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("Order", "pub").fields(&["item", "qty"]))
        .unwrap();
    (publisher, subscriber)
}

fn counter(node: &SynapseNode, name: &str) -> u64 {
    node.telemetry_snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn main() {
    let root =
        std::env::temp_dir().join(format!("synapse-durable-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let wal_cfg = || WalConfig::new(root.join("wal")).fsync(FsyncPolicy::EveryWrite);

    // The databases play the surviving disks across the "crash".
    let pub_db = Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off()));
    let sub_db = Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off()));

    // --- Act 1: a durable ecosystem replicates live writes. ---
    let (eco, report) = Ecosystem::new_durable(wal_cfg()).unwrap();
    assert_eq!(report.replayed_entries, 0, "fresh log");
    let (publisher, subscriber) = build(&eco, &pub_db, &sub_db, &root.join("state"));
    assert!(eco.connect().is_empty());
    subscriber.start();

    for i in 0..12i64 {
        publisher
            .orm()
            .create("Order", vmap! { "item" => format!("sku-{i}"), "qty" => i })
            .unwrap();
    }
    while subscriber.orm().count("Order").unwrap() < 12 {
        std::thread::sleep(Duration::from_millis(2));
    }
    let snapshot_seq = subscriber.persist_snapshot().unwrap();
    println!(
        "act 1: replicated 12 orders, persisted version snapshot #{snapshot_seq} \
         ({} wal appends so far)",
        counter(&subscriber, "wal.appends")
    );

    // --- Act 2: the process dies with messages in flight. ---
    // Stop the subscriber first so the last publishes stay queued (and
    // unacked) on the durable broker when everything is dropped.
    eco.stop_all();
    for i in 12..16i64 {
        publisher
            .orm()
            .create("Order", vmap! { "item" => format!("sku-{i}"), "qty" => i })
            .unwrap();
    }
    println!("act 2: crash with 4 published-but-unprocessed orders in flight");
    drop(subscriber);
    drop(publisher);
    drop(eco);

    // --- Act 3: a new incarnation recovers from disk. ---
    let (eco, report) = Ecosystem::new_durable(wal_cfg()).unwrap();
    println!(
        "act 3: wal replayed {} entries across {} segment(s); {} queue(s), \
         {} pending message(s) restored, {} acked skipped",
        report.replayed_entries,
        report.segments_scanned,
        report.queues_recovered,
        report.messages_recovered,
        report.acked_skipped
    );
    assert!(report.replayed_entries > 0);
    assert_eq!(
        report.messages_recovered, 4,
        "the in-flight orders survived"
    );
    assert!(
        report.acked_skipped >= 12,
        "processed orders do not come back"
    );

    let (publisher, subscriber) = build(&eco, &pub_db, &sub_db, &root.join("state"));
    assert_eq!(
        counter(&subscriber, "recovery.snapshots_loaded"),
        1,
        "the version snapshot loaded before any traffic"
    );
    println!(
        "        subscriber recovered {} version entries from snapshot #{snapshot_seq}",
        counter(&subscriber, "recovery.snapshot_entries")
    );
    assert!(eco.connect().is_empty());
    subscriber.start();

    // The four in-flight orders drain from the recovered backlog...
    while subscriber.orm().count("Order").unwrap() < 16 {
        std::thread::sleep(Duration::from_millis(2));
    }
    // ...and live replication keeps working in the new incarnation.
    let fresh = publisher
        .orm()
        .create_with_id(
            "Order",
            Id(17),
            vmap! { "item" => "sku-post-crash", "qty" => 99 },
        )
        .unwrap();
    loop {
        if let Some(r) = subscriber.orm().find("Order", fresh.id).unwrap() {
            assert_eq!(r.get("qty").as_int(), Some(99));
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    println!(
        "        all 16 in-flight orders drained and live replication resumed \
         (order #{} visible)",
        fresh.id
    );
    eco.stop_all();
    let _ = std::fs::remove_dir_all(&root);
    println!("durable recovery: OK");
}

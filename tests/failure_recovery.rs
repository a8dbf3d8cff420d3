//! Failure injection and recovery (§4.4 and the §6.5 production notes):
//! lost messages, queue decommission + partial bootstrap, publisher
//! version-store death + generation bump, subscriber store death, broker
//! restarts, and publish-crash journal recovery.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use synapse_faults::{FaultKind, Injector};
use synapse_repro::broker::Delivery;
use synapse_repro::core::subscriber::ProcessError;
use synapse_repro::core::testing::emulate_delivery;
use synapse_repro::core::{
    DeliveryMode, DepName, Ecosystem, Operation, Publication, Subscription, SynapseConfig,
    SynapseNode, WriteMessage, BOOTSTRAP_EXCHANGE, RETRY_ATTEMPTS,
};
use synapse_repro::model::{vmap, Id, Record, Value};

mod common;
use common::{eventually, faulty_mongo_node, mongo_node};

fn publishing_node(eco: &Ecosystem, app: &str) -> Arc<SynapseNode> {
    let node = mongo_node(eco, SynapseConfig::new(app));
    node.publish(Publication::model("Post").fields(&["body", "version"]))
        .unwrap();
    node
}

fn subscribing_node(eco: &Ecosystem, config: SynapseConfig, from: &str) -> Arc<SynapseNode> {
    subscribes(mongo_node(eco, config), from)
}

fn subscribes(node: Arc<SynapseNode>, from: &str) -> Arc<SynapseNode> {
    node.subscribe(Subscription::model("Post", from).fields(&["body", "version"]))
        .unwrap();
    node
}

/// §6.5: under strict causal mode, a lost message deadlocks the subscriber
/// on the missing dependency; a finite timeout lets it give up and proceed.
#[test]
fn lost_message_stalls_strict_causal_until_timeout() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco, "pub");
    let subscriber = subscribing_node(
        &eco,
        SynapseConfig::new("sub").wait_timeout(Some(Duration::from_millis(200))),
        "pub",
    );
    eco.connect();
    eco.start_all();

    let post = publisher
        .orm()
        .create("Post", vmap! { "body" => "v1", "version" => 1 })
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().find("Post", post.id).unwrap().is_some()
    }));

    // Lose the next update, then publish one more.
    Injector::new(eco.broker().clone(), "sub").apply(&FaultKind::DropMessages { n: 1 });
    publisher
        .orm()
        .update("Post", post.id, vmap! { "version" => 2 })
        .unwrap();
    publisher
        .orm()
        .update("Post", post.id, vmap! { "version" => 3 })
        .unwrap();

    // The subscriber eventually gives up on the missing dependency and
    // applies v3 (skipping the lost v2 — an overwritten history).
    assert!(eventually(Duration::from_secs(5), || {
        subscriber
            .orm()
            .find("Post", post.id)
            .unwrap()
            .map(|p| p.get("version").as_int() == Some(3))
            .unwrap_or(false)
    }));
    assert!(subscriber.subscriber_stats().dep_timeouts >= 1);
    eco.stop_all();
}

/// Weak mode tolerates the same loss without any stall (§3.2: "its most
/// important benefit is high availability due to its tolerance of message
/// loss").
#[test]
fn weak_mode_tolerates_message_loss_without_stalling() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco, "pub");
    let subscriber = subscribing_node(
        &eco,
        SynapseConfig::new("sub").subscriber_mode(DeliveryMode::Weak),
        "pub",
    );
    eco.connect();
    eco.start_all();

    let post = publisher
        .orm()
        .create("Post", vmap! { "body" => "v1", "version" => 1 })
        .unwrap();
    Injector::new(eco.broker().clone(), "sub").apply(&FaultKind::DropMessages { n: 1 });
    publisher
        .orm()
        .update("Post", post.id, vmap! { "version" => 2 })
        .unwrap();
    publisher
        .orm()
        .update("Post", post.id, vmap! { "version" => 3 })
        .unwrap();

    assert!(eventually(Duration::from_secs(5), || {
        subscriber
            .orm()
            .find("Post", post.id)
            .unwrap()
            .map(|p| p.get("version").as_int() == Some(3))
            .unwrap_or(false)
    }));
    assert_eq!(subscriber.subscriber_stats().dep_timeouts, 0);
    eco.stop_all();
}

/// Weak mode discards out-of-order (stale) redeliveries: objects only move
/// to their latest version.
#[test]
fn weak_mode_discards_stale_redeliveries() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco, "pub");
    let subscriber = subscribing_node(
        &eco,
        SynapseConfig::new("sub").subscriber_mode(DeliveryMode::Weak),
        "pub",
    );
    eco.connect();

    let post = publisher
        .orm()
        .create("Post", vmap! { "body" => "v1", "version" => 1 })
        .unwrap();
    publisher
        .orm()
        .update("Post", post.id, vmap! { "version" => 2 })
        .unwrap();

    // Process manually, replaying the *create* again after the update
    // (a redelivery arriving out of order).
    let consumer = eco.broker().consumer("sub").unwrap();
    let d1 = consumer.pop(Duration::from_millis(100)).unwrap();
    let d2 = consumer.pop(Duration::from_millis(100)).unwrap();
    subscriber.subscriber().process(&d2).unwrap();
    subscriber.subscriber().process(&d1).unwrap();

    let replica = subscriber.orm().find("Post", post.id).unwrap().unwrap();
    assert_eq!(
        replica.get("version").as_int(),
        Some(2),
        "stale create must not overwrite the newer update"
    );
    assert_eq!(subscriber.subscriber_stats().ops_stale, 1);
}

/// §4.4: a slow subscriber's queue hits its cap, the queue is killed and
/// the subscriber decommissioned; a partial bootstrap brings it back.
#[test]
fn queue_cap_decommissions_and_partial_bootstrap_recovers() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco, "pub");
    let subscriber = subscribing_node(&eco, SynapseConfig::new("sub").queue_cap(10), "pub");
    eco.connect();
    // Subscriber is down (workers not started); flood past the cap.
    for i in 0..50 {
        publisher
            .orm()
            .create("Post", vmap! { "body" => format!("p{i}"), "version" => i })
            .unwrap();
    }
    assert!(subscriber.is_decommissioned());

    // Partial bootstrap: reinstate, copy state, drain.
    subscriber.start();
    subscriber.bootstrap_from(&publisher).unwrap();
    assert_eq!(subscriber.orm().count("Post").unwrap(), 50);

    // Live replication works again afterwards.
    let fresh = publisher
        .orm()
        .create("Post", vmap! { "body" => "after", "version" => 100 })
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().find("Post", fresh.id).unwrap().is_some()
    }));
    eco.stop_all();
}

/// §4.4: when the *publisher's* version store dies, the generation number
/// is incremented and subscribers flush their stores at the barrier.
#[test]
fn publisher_store_death_bumps_generation_and_subscribers_flush() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco, "pub");
    let subscriber = subscribing_node(&eco, SynapseConfig::new("sub"), "pub");
    eco.connect();
    eco.start_all();

    let a = publisher
        .orm()
        .create("Post", vmap! { "body" => "before", "version" => 1 })
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().find("Post", a.id).unwrap().is_some()
    }));

    // Kill the publisher-side version store: all counters lost.
    publisher.pub_store().kill();
    let b = publisher
        .orm()
        .create("Post", vmap! { "body" => "after", "version" => 2 })
        .unwrap();
    assert_eq!(publisher.generations().current(), 2, "generation bumped");
    assert_eq!(publisher.publisher_stats().generation_bumps, 1);

    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().find("Post", b.id).unwrap().is_some()
    }));
    assert!(subscriber.subscriber_stats().generation_advances >= 1);
    eco.stop_all();
}

/// A crash window between local commit and broker publish leaves payloads
/// in the journal; recovery republishes them (the 2PC of §4.2).
#[test]
fn publish_crash_journal_recovers_messages() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco, "pub");
    let subscriber = subscribing_node(&eco, SynapseConfig::new("sub"), "pub");
    eco.connect();
    eco.start_all();

    publisher.publisher().inject_publish_failure(true);
    let post = publisher
        .orm()
        .create("Post", vmap! { "body" => "lost?", "version" => 1 })
        .unwrap();
    // Local write landed, nothing reached the broker.
    assert!(publisher.orm().find("Post", post.id).unwrap().is_some());
    assert_eq!(publisher.publisher_stats().messages_published, 0);
    assert_eq!(publisher.publisher().journal_len(), 1);

    // Crash over; recovery drains the journal.
    publisher.publisher().inject_publish_failure(false);
    publisher.publisher().recover();
    assert_eq!(publisher.publisher().journal_len(), 0);
    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().find("Post", post.id).unwrap().is_some()
    }));
    eco.stop_all();
}

/// Broker restart redelivers unacked in-flight messages; the subscriber's
/// upsert semantics make redelivery idempotent.
#[test]
fn broker_restart_redelivery_is_idempotent() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco, "pub");
    let subscriber = subscribing_node(&eco, SynapseConfig::new("sub"), "pub");
    eco.connect();

    let post = publisher
        .orm()
        .create("Post", vmap! { "body" => "x", "version" => 1 })
        .unwrap();
    // Process without acking (worker crash mid-flight)...
    let consumer = eco.broker().consumer("sub").unwrap();
    let d = consumer.pop(Duration::from_millis(100)).unwrap();
    subscriber.subscriber().process(&d).unwrap();
    // ...then the broker restarts and redelivers.
    eco.broker().recover();
    let redelivered = consumer.pop(Duration::from_millis(100)).unwrap();
    assert!(redelivered.redelivered);
    subscriber.subscriber().process(&redelivered).unwrap();
    consumer.ack(redelivered.tag);

    assert_eq!(subscriber.orm().count("Post").unwrap(), 1);
    let replica = subscriber.orm().find("Post", post.id).unwrap().unwrap();
    assert_eq!(replica.get("version").as_int(), Some(1));
}

/// `Subscriber::drain` must not report an empty queue while a message is
/// still in flight: `queue_len == 0` happens the moment a worker pops the
/// last message, *before* it is applied. The double-check around the
/// generation barrier (drain takes the write side, in-flight processing
/// holds the read side) closes that window.
#[test]
fn drain_waits_for_in_flight_messages() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco, "pub");
    let subscriber = subscribing_node(&eco, SynapseConfig::new("sub").workers(1), "pub");
    eco.connect();

    // Slow down application so the in-flight window is wide open.
    subscriber.orm().on(
        "Post",
        synapse_repro::orm::CallbackPoint::AfterCreate,
        |ctx, _| {
            if !ctx.bootstrap {
                std::thread::sleep(Duration::from_millis(150));
            }
            Ok(())
        },
    );
    eco.start_all();

    let post = publisher
        .orm()
        .create("Post", vmap! { "body" => "slow", "version" => 1 })
        .unwrap();
    // Wait for the worker to pop the message (queue empty, apply pending).
    assert!(eventually(Duration::from_secs(5), || {
        eco.broker().queue_len("sub") == Some(0)
    }));

    assert!(subscriber.subscriber().drain(Duration::from_secs(5)));
    // If drain honoured the barrier, the slow apply finished before it
    // returned true; the replica must be visible *now*, not eventually.
    assert!(subscriber.orm().find("Post", post.id).unwrap().is_some());
    eco.stop_all();
}

/// `Subscriber::drain` racing a concurrent publish storm: every true
/// verdict must coincide with a fully-applied backlog, and the storm must
/// still converge afterwards.
#[test]
fn drain_races_concurrent_publishes_without_lying() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco, "pub");
    let subscriber = subscribing_node(&eco, SynapseConfig::new("sub"), "pub");
    eco.connect();
    eco.start_all();

    let pub_orm = publisher.orm().clone();
    let storm = std::thread::spawn(move || {
        for i in 0u64..40 {
            pub_orm
                .create("Post", vmap! { "body" => format!("s{i}"), "version" => i })
                .unwrap();
            if i.is_multiple_of(8) {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    });
    // Interleave drain calls with the storm; true verdicts mid-storm are
    // legitimate (the queue really was empty at that instant) — the test
    // is that drain never deadlocks against the in-flight read barrier
    // and never reports true with the backlog provably unapplied.
    for _ in 0..10 {
        let _ = subscriber.subscriber().drain(Duration::from_millis(20));
    }
    storm.join().unwrap();

    assert!(subscriber.subscriber().drain(Duration::from_secs(10)));
    assert_eq!(subscriber.orm().count("Post").unwrap(), 40);
    assert_eq!(
        subscriber.subscriber_stats().messages_processed,
        publisher.publisher_stats().messages_published
    );
    eco.stop_all();
}

/// Subscriber version-store death: revive empty and partially bootstrap.
#[test]
fn subscriber_store_death_recovers_via_bootstrap() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco, "pub");
    let subscriber = subscribing_node(
        &eco,
        SynapseConfig::new("sub").wait_timeout(Some(Duration::from_millis(100))),
        "pub",
    );
    eco.connect();
    eco.start_all();

    for i in 0..10 {
        publisher
            .orm()
            .create("Post", vmap! { "body" => format!("{i}"), "version" => i })
            .unwrap();
    }
    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().count("Post").unwrap() == 10
    }));

    subscriber.sub_store().kill();
    subscriber.bootstrap_from(&publisher).unwrap();
    assert!(!subscriber.sub_store().is_dead());
    assert_eq!(subscriber.orm().count("Post").unwrap(), 10);

    let fresh = publisher
        .orm()
        .create("Post", vmap! { "body" => "fresh", "version" => 11 })
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().find("Post", fresh.id).unwrap().is_some()
    }));
    let _ = Id(0);
    eco.stop_all();
}

/// One `pub` Post operation carrying `version` as its object dependency —
/// what a publisher stamps on a live write and the copier on a chunk copy.
fn post_message(node: &SynapseNode, operation: &str, id: Id, version: u64) -> WriteMessage {
    let key = node
        .config()
        .dep_space
        .key(&DepName::object("pub", "Post", id));
    let attrs = BTreeMap::from([("body".to_owned(), Value::from("copied"))]);
    let record = Record::with_attrs("Post", id, attrs);
    WriteMessage {
        app: "pub".to_owned(),
        operations: vec![Operation::from_record(operation, record)],
        dependencies: BTreeMap::from([(key, version)]),
        published_at: 0,
        generation: 1,
        stamps: BTreeMap::new(),
    }
}

/// The retry budget's exhaustion exit: a live message whose apply keeps
/// failing transiently is dead-lettered exactly once, with its
/// dependencies released — under strict causal mode (no wait timeout) the
/// dependent update applies only because of that release.
#[test]
fn exhausted_live_message_dead_letters_and_releases_its_dependencies() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco, "pub");
    let (subscriber, faults) =
        faulty_mongo_node(&eco, SynapseConfig::new("sub").wait_timeout(None));
    let subscriber = subscribes(subscriber, "pub");
    eco.connect();
    eco.start_all();

    // Live exit: every write fails until disarmed.
    faults.inject_write_errors(u64::MAX / 2);
    let post = publisher
        .orm()
        .create("Post", vmap! { "body" => "lost", "version" => 1 })
        .unwrap();
    assert!(eventually(Duration::from_secs(10), || {
        subscriber.subscriber_stats().dead_lettered == 1
    }));
    faults.disarm();
    let stats = subscriber.subscriber_stats();
    assert_eq!(stats.retries_exhausted, 1);
    assert_eq!(stats.retries, u64::from(RETRY_ATTEMPTS) - 1);
    assert_eq!(stats.poison_messages, 0);
    assert_eq!(eco.broker().dead_letter_len("sub"), Some(1));
    assert!(subscriber.orm().find("Post", post.id).unwrap().is_none());
    // The update depends on the dead-lettered create's version.
    publisher
        .orm()
        .update("Post", post.id, vmap! { "version" => 2 })
        .unwrap();
    assert!(eventually(Duration::from_secs(10), || {
        subscriber
            .orm()
            .find("Post", post.id)
            .unwrap()
            .is_some_and(|p| p.get("version").as_int() == Some(2))
    }));
    assert_eq!(subscriber.subscriber_stats().dead_lettered, 1);

    eco.stop_all();
}

/// A chunk copy whose ORM write failed is owed its row only until the
/// live stream is admitted on the same object: a live destroy that ties
/// with the copy's version in between wins, and the retried copy must not
/// resurrect the row.
#[test]
fn live_write_between_copy_attempts_supersedes_the_failed_copy() {
    let eco = Ecosystem::new();
    let (subscriber, faults) = faulty_mongo_node(
        &eco,
        SynapseConfig::new("sub").subscriber_mode(DeliveryMode::Weak),
    );
    let subscriber = subscribes(subscriber, "pub");
    let post = Id(5);
    let delivery = |exchange: &str, operation: &str| Delivery {
        exchange: exchange.into(),
        ..emulate_delivery(&post_message(&subscriber, operation, post, 3))
    };
    let sub = subscriber.subscriber();
    faults.inject_write_errors(1);
    let failed = sub.process(&delivery(BOOTSTRAP_EXCHANGE, "create"));
    assert!(matches!(failed, Err(ProcessError::Transient(_))));
    sub.process(&delivery("pub", "destroy")).unwrap();
    sub.process(&delivery(BOOTSTRAP_EXCHANGE, "create"))
        .unwrap();
    let stats = subscriber.subscriber_stats();
    assert_eq!((stats.copies_applied, stats.copies_reconciled), (0, 1));
    assert!(subscriber.orm().find("Post", post).unwrap().is_none());
}

/// Overlapping persists must leave the newest capture as the latest
/// snapshot. Each persisting thread reads a counter that a writer keeps
/// bumping just before its call; whatever `load_latest` returns after a
/// round must hold at least the largest of those readings, or a restart
/// would lose bumps that an earlier persist had already captured.
#[test]
fn concurrent_persists_leave_the_newest_capture_latest() {
    const KEY: u64 = 7;
    const ROUNDS: usize = 24;
    const PERSISTS: usize = 3;
    let dir = common::temp_dir("persist-race");
    let eco = Ecosystem::new();
    let node = mongo_node(
        &eco,
        SynapseConfig::new("snap")
            .durable(&dir)
            .snapshot_every(None),
    );
    // A large subscriber store widens the gap between capturing the
    // publisher store and taking a sequence number.
    let filler: Vec<u64> = (1_000..31_000).collect();
    node.sub_store().apply(&filler).unwrap();
    let store = node.snapshot_store().expect("durable node");
    for round in 0..ROUNDS {
        let stop = AtomicBool::new(false);
        let newest_reading = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    node.pub_store().apply(&[KEY]).unwrap();
                }
            });
            let persisters: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut newest = 0;
                        for _ in 0..PERSISTS {
                            newest = node.pub_store().ops(KEY).unwrap();
                            node.persist_snapshot().unwrap();
                        }
                        newest
                    })
                })
                .collect();
            let joined: Vec<_> = persisters.into_iter().map(|h| h.join()).collect();
            // Stop the writer before a persister's panic can propagate,
            // or the scope would wait on it forever.
            stop.store(true, Ordering::Relaxed);
            joined.into_iter().map(|r| r.unwrap()).max().unwrap()
        });
        let latest = store.load_latest().unwrap().expect("a snapshot");
        let captured = latest
            .pub_store
            .counters
            .iter()
            .find(|c| c.0 == KEY)
            .map_or(0, |c| c.1);
        assert!(
            captured >= newest_reading,
            "round {round}: snapshot {} holds ops {captured}, but a persist \
             began after ops reached {newest_reading}",
            latest.seq
        );
    }
    let counters = node.telemetry_snapshot().counters;
    let get = |name: &str| counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(
        get("durability.snapshots_persisted"),
        Some((ROUNDS * 2 * PERSISTS) as u64)
    );
    assert!(get("durability.snapshot_bytes").unwrap() > 30_000 * 24);
    assert!(get("durability.snapshot_nanos").unwrap() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

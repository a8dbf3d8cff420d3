//! The §4.5 testing framework: factories exported by publishers, payload
//! emulation on subscribers, and bootstrap-aware callbacks (Fig. 2).

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_repro::broker::Delivery;
use synapse_repro::core::subscriber::SubscriberStats;
use synapse_repro::core::testing::{emulate_delivery, emulate_message, FactorySet};
use synapse_repro::core::{
    DeliveryMode, DepName, Ecosystem, Operation, Publication, Subscription, SynapseConfig,
    SynapseNode, WriteMessage, BOOTSTRAP_EXCHANGE,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, Id, ModelSchema, Record, Value};
use synapse_repro::orm::adapters::MongoidAdapter;
use synapse_repro::orm::CallbackPoint;

/// A subscriber's integration test never needs a live publisher: the
/// publisher's factory builds sample objects and Synapse emulates the
/// production payloads.
#[test]
fn subscriber_tests_run_against_emulated_payloads() {
    // The publisher's exported artifacts: its publication and factory file.
    let publication = Publication::model("User").fields(&["name", "email"]);
    let factories = FactorySet::new();
    factories.define("User", |i| {
        vmap! { "name" => format!("user-{i}"), "email" => format!("u{i}@x.com"), "secret" => "x" }
    });

    // The subscriber under test, alone in its own ecosystem.
    let eco = Ecosystem::new();
    let sub = eco.add_node(
        SynapseConfig::new("mailer"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    sub.orm().define_model(ModelSchema::open("User")).unwrap();
    sub.subscribe(Subscription::model("User", "main_app").fields(&["name", "email"]))
        .unwrap();

    let outbox: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sent = outbox.clone();
    sub.orm()
        .on("User", CallbackPoint::AfterCreate, move |ctx, u| {
            if !ctx.bootstrap {
                sent.lock()
                    .push(u.get("email").as_str().unwrap_or("?").to_owned());
            }
            Ok(())
        });

    // Replay three factory-built users as production payloads.
    for i in 1..=3 {
        let record = factories.build("User", i).unwrap();
        let msg = emulate_message("main_app", &publication, "create", &record);
        let delivery = emulate_delivery(&msg);
        sub.subscriber().process(&delivery).unwrap();
    }

    assert_eq!(sub.orm().count("User").unwrap(), 3);
    assert_eq!(outbox.lock().len(), 3, "welcome mails for each user");
    // The emulation projected away unpublished attributes, like production.
    let u = sub
        .orm()
        .find("User", synapse_repro::model::Id(1))
        .unwrap()
        .unwrap();
    assert!(u.get("secret").is_null());
}

/// Fig. 2: `Synapse.bootstrap?` suppresses side effects during catch-up.
#[test]
fn bootstrap_flag_suppresses_side_effects() {
    let eco = Ecosystem::new();
    let publisher = eco.add_node(
        SynapseConfig::new("main_app"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    publisher
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    publisher
        .publish(Publication::model("User").fields(&["name", "email"]))
        .unwrap();

    let sub = eco.add_node(
        SynapseConfig::new("mailer"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    sub.orm().define_model(ModelSchema::open("User")).unwrap();
    sub.subscribe(Subscription::model("User", "main_app").fields(&["name", "email"]))
        .unwrap();
    eco.connect();

    let outbox: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sent = outbox.clone();
    sub.orm()
        .on("User", CallbackPoint::AfterCreate, move |ctx, u| {
            if !ctx.bootstrap {
                sent.lock()
                    .push(u.get("name").as_str().unwrap_or("?").to_owned());
            }
            Ok(())
        });

    // 100 pre-existing users arrive via bootstrap: no emails.
    for i in 0..100 {
        publisher
            .orm()
            .create(
                "User",
                vmap! { "name" => format!("old-{i}"), "email" => "e" },
            )
            .unwrap();
    }
    sub.start_and_bootstrap_from(&publisher).unwrap();
    assert_eq!(sub.orm().count("User").unwrap(), 100);
    assert!(outbox.lock().is_empty(), "no mail during bootstrap");

    // A live signup after bootstrap does get its welcome mail.
    publisher
        .orm()
        .create("User", vmap! { "name" => "fresh", "email" => "f" })
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while outbox.lock().is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(*outbox.lock(), vec!["fresh".to_string()]);
    eco.stop_all();
}

/// Publisher factories are reusable across subscriber suites and produce
/// distinct sequenced data.
#[test]
fn factories_generate_distinct_sequenced_samples() {
    let factories = FactorySet::new();
    factories.define("Post", |i| vmap! { "body" => format!("post body {i}") });
    let a = factories.build("Post", 1).unwrap();
    let b = factories.build("Post", 2).unwrap();
    assert_ne!(a.id, b.id);
    assert_ne!(a.get("body"), b.get("body"));
    assert!(factories.build("Unknown", 1).is_none());
}

/// A weak-mode replica of `pub`'s `Post`, with one worker over a
/// one-partition queue so a pool drains emulated traffic in publish order.
fn post_replica(eco: &Ecosystem) -> Arc<SynapseNode> {
    let node = eco.add_node(
        SynapseConfig::new("sub")
            .subscriber_mode(DeliveryMode::Weak)
            .workers(1)
            .queue_partitions(1),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    node.orm().define_model(ModelSchema::open("Post")).unwrap();
    node.subscribe(Subscription::model("Post", "pub").fields(&["body"]))
        .unwrap();
    node
}

/// `Subscriber::process` is the worker pool's own message sequence on a
/// batch of one: the same emulated traffic — live writes and bootstrap
/// copies on the bootstrap exchange — leaves the same rows and the same
/// counters whichever way it is driven.
#[test]
fn process_and_worker_pool_agree_on_every_delivery_kind() {
    const POST: Id = Id(7);
    let (eco_single, eco_pool) = (Ecosystem::new(), Ecosystem::new());
    let single = post_replica(&eco_single);
    let pool = post_replica(&eco_pool);
    let key = single
        .config()
        .dep_space
        .key(&DepName::object("pub", "Post", POST));
    // (exchange, payload): one object's history, version carried as the
    // object dependency exactly as a publisher (or the copier) stamps it.
    let write = |operation: &str, version: u64, body: &str| {
        let attrs = BTreeMap::from([("body".to_owned(), Value::from(body))]);
        WriteMessage {
            app: "pub".to_owned(),
            operations: vec![Operation::from_record(
                operation,
                Record::with_attrs("Post", POST, attrs),
            )],
            dependencies: BTreeMap::from([(key, version)]),
            published_at: 0,
            generation: 1,
            stamps: BTreeMap::new(),
        }
        .encode()
    };
    let sequence: Vec<(&str, String)> = vec![
        ("pub", write("create", 1, "v1")),
        ("pub", write("update", 0, "stale")),
        ("pub", write("update", 2, "v2")),
        ("pub", write("destroy", 3, "v2")),
        // Ties with the applied destroy: must not resurrect the row.
        (BOOTSTRAP_EXCHANGE, write("create", 3, "copy-tie")),
        (BOOTSTRAP_EXCHANGE, write("create", 4, "copy-win")),
    ];

    for (exchange, payload) in &sequence {
        let delivery = Delivery {
            tag: 0,
            exchange: (*exchange).into(),
            payload: payload.as_str().into(),
            redelivered: false,
            origin_nanos: 0,
            enqueued_nanos: 0,
        };
        single.subscriber().process(&delivery).unwrap();
    }

    pool.start();
    // Nothing publishes on the bootstrap exchange in a running system; the
    // test binds it so copies reach the pool's queue in sequence order.
    let broker = eco_pool.broker();
    broker.bind(BOOTSTRAP_EXCHANGE, "sub");
    for (exchange, payload) in &sequence {
        broker
            .publish_routed(exchange, payload.as_str(), 0, 0)
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.subscriber_stats().messages_processed < 6 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    pool.stop();

    let body = |node: &SynapseNode| {
        let row = node.orm().find("Post", POST).unwrap();
        row.map(|r| r.get("body").as_str().map(str::to_owned))
    };
    assert_eq!(body(&single), Some(Some("copy-win".to_owned())));
    assert_eq!(body(&pool), body(&single));
    let (s, p) = (single.subscriber_stats(), pool.subscriber_stats());
    let counts = |s: SubscriberStats| {
        (
            s.ops_applied,
            s.ops_stale,
            s.copies_applied,
            s.copies_reconciled,
        )
    };
    assert_eq!(counts(s), (3, 1, 1, 1));
    assert_eq!(counts(p), counts(s));
    assert_eq!(p.messages_processed, 6);
    assert_eq!((p.errors, s.errors), (0, 0));
}

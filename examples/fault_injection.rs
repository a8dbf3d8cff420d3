//! The deterministic fault plane in action (§6.5 hardening): a causal
//! pub/sub pair survives a seeded schedule of broker restarts, publish
//! failures, version-store shard kills, db write errors, and poison
//! messages — and prints the full accounting at the end.
//!
//! Run with: `cargo run --example fault_injection`
//! Reproduce a schedule: `SYNAPSE_SEED=1337 cargo run --example fault_injection`

use std::sync::Arc;
use std::time::Duration;
use synapse_faults::{
    DbFaults, FaultClock, FaultEvent, FaultKind, FaultPlan, FaultSpec, Injector, Side,
};
use synapse_repro::core::{
    Ecosystem, Publication, Subscription, SynapseConfig, RETRY_ATTEMPTS, VERSION_STORE_SHARDS,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, ModelSchema};
use synapse_repro::orm::adapters::MongoidAdapter;
use synapse_repro::orm::CallbackPoint;

fn main() {
    let seed: u64 = std::env::var("SYNAPSE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA_17);
    println!("fault injection demo — SYNAPSE_SEED={seed}");

    // Intentional poison-pill panics are part of the demo; keep them quiet.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let poison = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.contains("poison pill"))
            .unwrap_or(false);
        if !poison {
            default_hook(info);
        }
    }));

    // Each side's adapter sits behind a db fault panel: the seam where
    // refused and slowed writes are injected.
    let eco = Ecosystem::new();
    let (pub_db, sub_db) = (DbFaults::new(), DbFaults::new());
    let publisher = eco.add_node(
        SynapseConfig::new("pub"),
        pub_db.wrap(Arc::new(MongoidAdapter::new(
            "mongodb",
            LatencyModel::off(),
        ))),
    );
    publisher
        .orm()
        .define_model(ModelSchema::open("Post"))
        .unwrap();
    publisher
        .publish(Publication::model("Post").fields(&["body", "version"]))
        .unwrap();

    let subscriber = eco.add_node(
        SynapseConfig::new("sub")
            .wait_timeout(Some(Duration::from_millis(50)))
            .workers(1),
        sub_db.wrap(Arc::new(MongoidAdapter::new(
            "mongodb",
            LatencyModel::off(),
        ))),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("Post"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("Post", "pub").fields(&["body", "version"]))
        .unwrap();
    subscriber
        .orm()
        .on("Post", CallbackPoint::BeforeCreate, |ctx, record| {
            if !ctx.bootstrap {
                if let Some(body) = record.get("body").as_str() {
                    if body.starts_with("poison") {
                        panic!("poison pill: {body}");
                    }
                }
            }
            Ok(())
        });
    eco.connect();
    eco.start_all();

    const OPS: u64 = 120;
    let spec = FaultSpec {
        horizon: OPS,
        events: 10,
        shards: VERSION_STORE_SHARDS,
        max_burst: 2,
        spike_micros: 100,
    };
    // Shape the generated plan so that only poison dead-letters:
    // - broker drops are re-aimed at the publish path, so nothing is lost
    //   (drops are the wedge demo's subject — see `delivery_semantics`);
    // - subscriber store kills (and their revives) are dropped: a dead
    //   subscriber store costs each delivery that meets it one attempt per
    //   look for as long as it stays dead, while a dead publisher store
    //   costs a generation bump and no attempt;
    // - subscriber write errors stop short of the retry budget in total,
    //   so even stacked on one delivery they cannot exhaust it.
    let mut write_errors_left = u64::from(RETRY_ATTEMPTS) - 1;
    let events: Vec<FaultEvent> = FaultPlan::generate(seed, &spec)
        .events()
        .iter()
        .copied()
        .filter_map(|mut e| {
            match &mut e.kind {
                FaultKind::DropMessages { n } => e.kind = FaultKind::PublishFailures { n: *n },
                FaultKind::KillShard {
                    side: Side::Subscriber,
                    ..
                }
                | FaultKind::ReviveShards {
                    side: Side::Subscriber,
                } => return None,
                FaultKind::DbWriteErrors {
                    side: Side::Subscriber,
                    n,
                } => {
                    *n = (*n).min(write_errors_left);
                    write_errors_left -= *n;
                    if *n == 0 {
                        return None;
                    }
                }
                _ => {}
            }
            Some(e)
        })
        .collect();
    println!(
        "plan: {} scheduled fault events over {OPS} ops",
        events.len()
    );
    for e in &events {
        println!("  tick {:>4}  {:?}", e.at_tick, e.kind);
    }
    let mut plan = FaultPlan::from_events(events);
    let mut injector = Injector::new(eco.broker().clone(), "sub")
        .with_store(Side::Publisher, publisher.pub_store().clone())
        .with_store(Side::Subscriber, subscriber.sub_store().clone())
        .with_db(Side::Publisher, pub_db.clone())
        .with_db(Side::Subscriber, sub_db.clone());
    let clock = FaultClock::new();

    let mut refused = 0u64;
    for i in 0..OPS {
        injector.apply_due(&mut plan, clock.tick());
        let body = if i % 17 == 13 {
            format!("poison-{i}")
        } else {
            format!("post-{i}")
        };
        if publisher
            .orm()
            .create("Post", vmap! { "body" => body, "version" => i as i64 })
            .is_err()
        {
            refused += 1;
        }
    }

    // Heal and drain.
    injector.apply_due(&mut plan, u64::MAX);
    pub_db.disarm();
    sub_db.disarm();
    publisher.pub_store().revive();
    subscriber.sub_store().revive();
    publisher.publisher().recover();
    let drained = subscriber.subscriber().drain(Duration::from_secs(30));
    eco.stop_all();

    let pub_stats = publisher.publisher_stats();
    let sub_stats = subscriber.subscriber_stats();
    let broker = eco.broker().stats();
    let pub_rows = publisher.orm().all("Post").unwrap().len();
    let sub_rows = subscriber.orm().all("Post").unwrap().len();
    println!("\ninjected:   {:?}", injector.stats());
    println!(
        "publisher:  published={} retries={} journaled={} refused_writes={refused} rows={pub_rows}",
        pub_stats.messages_published,
        pub_stats.publish_retries,
        publisher.publisher().journal_len(),
    );
    println!(
        "subscriber: processed={} retries={} redeliveries={} poison={} dead_lettered={} rows={sub_rows}",
        sub_stats.messages_processed,
        sub_stats.retries,
        sub_stats.redeliveries,
        sub_stats.poison_messages,
        sub_stats.dead_lettered,
    );
    println!(
        "broker:     enqueued={} acked={} dead_lettered={} dropped={} (drained={drained})",
        broker.enqueued, broker.acked, broker.dead_lettered, broker.dropped,
    );

    assert!(drained, "subscriber backlog must drain after healing");
    assert_eq!(
        broker.enqueued,
        broker.acked + broker.dead_lettered,
        "zero silent loss: every delivery ends acked or dead-lettered"
    );
    assert_eq!(sub_rows as u64, pub_rows as u64 - sub_stats.dead_lettered);
    println!(
        "\nconverged: subscriber == publisher modulo {} dead-lettered poison rows",
        sub_stats.dead_lettered
    );
}

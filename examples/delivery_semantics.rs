//! Delivery semantics in action (§3.2, §6.5): causal ordering across
//! services, weak-mode tolerance of message loss, and the
//! decommission/partial-bootstrap recovery path.
//!
//! Run with: `cargo run --example delivery_semantics`

use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_faults::{FaultKind, Injector};
use synapse_repro::core::{DeliveryMode, Ecosystem, Publication, Subscription, SynapseConfig};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, ModelSchema};
use synapse_repro::orm::adapters::MongoidAdapter;

fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

fn main() {
    let eco = Ecosystem::new();
    let publisher = eco.add_node(
        SynapseConfig::new("pub"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    publisher
        .orm()
        .define_model(ModelSchema::open("Post"))
        .unwrap();
    publisher
        .publish(Publication::model("Post").fields(&["body", "version"]))
        .unwrap();

    // A causal subscriber with a finite give-up timeout (the paper's §6.5
    // recommendation) and a weak subscriber.
    let causal = eco.add_node(
        SynapseConfig::new("causal_sub").wait_timeout(Some(Duration::from_millis(300))),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    causal
        .orm()
        .define_model(ModelSchema::open("Post"))
        .unwrap();
    causal
        .subscribe(Subscription::model("Post", "pub").fields(&["body", "version"]))
        .unwrap();

    let weak = eco.add_node(
        SynapseConfig::new("weak_sub").subscriber_mode(DeliveryMode::Weak),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    weak.orm().define_model(ModelSchema::open("Post")).unwrap();
    weak.subscribe(Subscription::model("Post", "pub").fields(&["body", "version"]))
        .unwrap();

    eco.connect();
    eco.start_all();

    // Normal operation: both subscribers converge.
    let post = publisher
        .orm()
        .create("Post", vmap! { "body" => "v1", "version" => 1 })
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        causal.orm().find("Post", post.id).unwrap().is_some()
            && weak.orm().find("Post", post.id).unwrap().is_some()
    }));
    println!("both subscribers replicated Post#{}", post.id);

    // The §6.5 incident: the broker silently loses an update bound for the
    // causal subscriber (the RabbitMQ upgrade failure).
    Injector::new(eco.broker().clone(), "causal_sub").apply(&FaultKind::DropMessages { n: 1 });
    publisher
        .orm()
        .update("Post", post.id, vmap! { "body" => "v2", "version" => 2 })
        .unwrap();
    publisher
        .orm()
        .update("Post", post.id, vmap! { "body" => "v3", "version" => 3 })
        .unwrap();

    // The weak subscriber sails through: it only updates to the latest
    // version and tolerates the gap.
    assert!(eventually(Duration::from_secs(5), || {
        weak.orm()
            .find("Post", post.id)
            .unwrap()
            .map(|p| p.get("version").as_int() == Some(3))
            .unwrap_or(false)
    }));
    println!("weak subscriber reached v3 despite the lost message");

    // The causal subscriber's v3 message depends on the lost v2; it stalls
    // on the missing dependency until the configured timeout, then gives
    // up and proceeds (timeout 0s ≈ weak, timeout ∞ = strict causal).
    assert!(eventually(Duration::from_secs(5), || {
        causal
            .orm()
            .find("Post", post.id)
            .unwrap()
            .map(|p| p.get("version").as_int() == Some(3))
            .unwrap_or(false)
    }));
    let timeouts = causal.subscriber_stats().dep_timeouts;
    println!("causal subscriber gave up waiting {timeouts} time(s), then caught up to v3");
    assert!(timeouts >= 1);

    eco.stop_all();
}

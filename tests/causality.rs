//! Causal-ordering semantics across the full stack (§3.2, §4.2, Fig. 8):
//! same-object serialization, controller chains, user-session
//! serialization, cross-controller read snapshots, and the
//! global-vs-causal-vs-weak relationships.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use synapse_faults::{FaultKind, Injector};
use synapse_repro::core::{
    with_user_scope, DeliveryMode, DepName, Ecosystem, Publication, Subscription, SynapseConfig,
    SynapseNode,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, Id, ModelSchema};
use synapse_repro::orm::adapters::MongoidAdapter;
use synapse_repro::orm::CallbackPoint;

mod common;
use common::eventually;

fn wired_pair(
    mode: DeliveryMode,
    workers: usize,
) -> (Ecosystem, Arc<SynapseNode>, Arc<SynapseNode>) {
    let eco = Ecosystem::new();
    let publisher = eco.add_node(
        SynapseConfig::new("pub").mode(mode),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    for m in ["Post", "Comment"] {
        publisher.orm().define_model(ModelSchema::open(m)).unwrap();
    }
    publisher
        .publish(Publication::model("Post").fields(&["body", "author_id"]))
        .unwrap();
    publisher
        .publish(Publication::model("Comment").fields(&["post_id", "body"]))
        .unwrap();
    let subscriber = eco.add_node(
        SynapseConfig::new("sub").mode(mode).workers(workers),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    for m in ["Post", "Comment"] {
        subscriber.orm().define_model(ModelSchema::open(m)).unwrap();
    }
    subscriber
        .subscribe(Subscription::model("Post", "pub").fields(&["body", "author_id"]))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("Comment", "pub").fields(&["post_id", "body"]))
        .unwrap();
    assert!(eco.connect().is_empty());
    (eco, publisher, subscriber)
}

/// The paper's motivating guarantee: a comment referencing a post is never
/// applied before the post itself, even with many parallel workers racing.
#[test]
fn comments_never_arrive_before_their_posts() {
    let (eco, publisher, subscriber) = wired_pair(DeliveryMode::Causal, 4);
    // Detect violations at apply time via a callback.
    let violations: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let v = violations.clone();
    subscriber
        .orm()
        .on("Comment", CallbackPoint::AfterCreate, move |ctx, c| {
            let post_id = Id(c.get("post_id").as_int().unwrap_or(0) as u64);
            if ctx.orm.find("Post", post_id)?.is_none() {
                v.lock().push(post_id.raw());
            }
            Ok(())
        });
    eco.start_all();

    for round in 0..50u64 {
        let user = DepName::object("pub", "User", Id(round % 5 + 1));
        with_user_scope(user, || {
            let post = publisher
                .orm()
                .create("Post", vmap! { "body" => "p", "author_id" => round })
                .unwrap();
            // Same controller: read-your-write, then comment.
            let read_back = publisher.orm().find("Post", post.id).unwrap().unwrap();
            publisher
                .orm()
                .create(
                    "Comment",
                    vmap! { "post_id" => read_back.id.raw(), "body" => "c" },
                )
                .unwrap();
        });
    }
    assert!(eventually(Duration::from_secs(10), || {
        subscriber.orm().count("Comment").unwrap() == 50
    }));
    assert!(
        violations.lock().is_empty(),
        "comments applied before their posts: {:?}",
        violations.lock()
    );
    eco.stop_all();
}

/// Same-user updates are serialized (rule 3 of causal ordering): with many
/// workers, a user's posts apply in creation order.
#[test]
fn per_user_session_updates_apply_in_order() {
    let (eco, publisher, subscriber) = wired_pair(DeliveryMode::Causal, 4);
    let applied: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let a = applied.clone();
    subscriber
        .orm()
        .on("Post", CallbackPoint::AfterCreate, move |_, p| {
            a.lock().push(p.get("author_id").as_int().unwrap_or(-1));
            // Slow the apply down so misordering would actually show.
            std::thread::sleep(Duration::from_millis(2));
            Ok(())
        });
    eco.start_all();

    let user = DepName::object("pub", "User", Id(7));
    for i in 0..20u64 {
        with_user_scope(user, || {
            publisher
                .orm()
                .create("Post", vmap! { "body" => "p", "author_id" => i })
                .unwrap();
        });
    }
    assert!(eventually(Duration::from_secs(10), || {
        applied.lock().len() == 20
    }));
    let seen = applied.lock();
    let mut sorted = seen.clone();
    sorted.sort_unstable();
    assert_eq!(*seen, sorted, "same-session posts must apply in order");
    eco.stop_all();
}

/// Global ordering serializes *everything*: even unrelated objects from
/// unrelated sessions apply in publication order.
#[test]
fn global_mode_serializes_unrelated_objects() {
    let (eco, publisher, subscriber) = wired_pair(DeliveryMode::Global, 4);
    let applied: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let a = applied.clone();
    subscriber
        .orm()
        .on("Post", CallbackPoint::AfterCreate, move |_, p| {
            a.lock().push(p.get("author_id").as_int().unwrap_or(-1));
            Ok(())
        });
    eco.start_all();

    for i in 0..30u64 {
        // Different users, no shared objects, no scopes.
        publisher
            .orm()
            .create("Post", vmap! { "body" => "p", "author_id" => i })
            .unwrap();
    }
    assert!(eventually(Duration::from_secs(10), || {
        applied.lock().len() == 30
    }));
    let seen = applied.lock();
    let mut sorted = seen.clone();
    sorted.sort_unstable();
    assert_eq!(*seen, sorted, "global order must match publication order");
    eco.stop_all();
}

/// A weak subscriber of a causal publisher ignores the causal dependency
/// information (mode degradation, §3.2).
#[test]
fn weak_subscriber_of_causal_publisher_ignores_dependencies() {
    let eco = Ecosystem::new();
    let publisher = eco.add_node(
        SynapseConfig::new("pub").publisher_mode(DeliveryMode::Causal),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    publisher
        .orm()
        .define_model(ModelSchema::open("Post"))
        .unwrap();
    publisher
        .publish(Publication::model("Post").fields(&["body"]))
        .unwrap();
    let subscriber = eco.add_node(
        SynapseConfig::new("sub").subscriber_mode(DeliveryMode::Weak),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("Post"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("Post", "pub").fields(&["body"]))
        .unwrap();
    assert!(eco.connect().is_empty());
    assert_eq!(
        subscriber.subscriber().effective_mode("pub"),
        DeliveryMode::Weak
    );

    // Drop a message, publish more; the weak subscriber never stalls.
    let p = publisher
        .orm()
        .create("Post", vmap! { "body" => "a" })
        .unwrap();
    Injector::new(eco.broker().clone(), "sub").apply(&FaultKind::DropMessages { n: 1 });
    publisher
        .orm()
        .update("Post", p.id, vmap! { "body" => "b" })
        .unwrap();
    publisher
        .orm()
        .update("Post", p.id, vmap! { "body" => "c" })
        .unwrap();
    eco.start_all();
    assert!(eventually(Duration::from_secs(5), || {
        subscriber
            .orm()
            .find("Post", p.id)
            .unwrap()
            .map(|r| r.get("body").as_str() == Some("c"))
            .unwrap_or(false)
    }));
    assert_eq!(subscriber.subscriber_stats().dep_timeouts, 0);
    eco.stop_all();
}

/// A causal subscriber cannot exceed a weak publisher: the effective mode
/// is weak (§3.2: "subscribers can only select delivery semantics that are
/// at most as strong as the publishers support").
#[test]
fn subscriber_mode_degrades_to_publisher_mode() {
    let eco = Ecosystem::new();
    let publisher = eco.add_node(
        SynapseConfig::new("pub").publisher_mode(DeliveryMode::Weak),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    publisher
        .orm()
        .define_model(ModelSchema::open("Post"))
        .unwrap();
    publisher
        .publish(Publication::model("Post").fields(&["body"]))
        .unwrap();
    let subscriber = eco.add_node(
        SynapseConfig::new("sub").subscriber_mode(DeliveryMode::Causal),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("Post"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("Post", "pub").fields(&["body"]))
        .unwrap();
    assert!(eco.connect().is_empty());
    assert_eq!(
        subscriber.subscriber().effective_mode("pub"),
        DeliveryMode::Weak
    );
}

/// Transactions combine all their writes into one message applied together
/// (§4.2: "all writes within a single transaction are combined into a
/// single message").
#[test]
fn transactions_combine_writes_into_one_message() {
    let (eco, publisher, subscriber) = wired_pair(DeliveryMode::Causal, 2);
    eco.start_all();

    let before = publisher.publisher_stats().messages_published;
    publisher.transaction(|| {
        let post = publisher
            .orm()
            .create("Post", vmap! { "body" => "p", "author_id" => 1 })
            .unwrap();
        publisher
            .orm()
            .create(
                "Comment",
                vmap! { "post_id" => post.id.raw(), "body" => "c1" },
            )
            .unwrap();
        publisher
            .orm()
            .create(
                "Comment",
                vmap! { "post_id" => post.id.raw(), "body" => "c2" },
            )
            .unwrap();
    });
    let after = publisher.publisher_stats().messages_published;
    assert_eq!(after - before, 1, "three writes, one message");

    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().count("Comment").unwrap() == 2
            && subscriber.orm().count("Post").unwrap() == 1
    }));
    eco.stop_all();
}

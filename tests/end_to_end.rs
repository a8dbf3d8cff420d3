//! End-to-end replication tests across the whole stack: MVC controllers →
//! ORM interception → publisher → broker → subscriber workers →
//! heterogeneous subscriber databases.

use std::sync::{Arc, Mutex};
use std::time::Duration;
use synapse_repro::core::{
    DeliveryMode, Ecosystem, ModeSlice, Publication, Stage, Subscription, SynapseConfig,
    SynapseNode,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, Id, ModelSchema, Value};
use synapse_repro::orm::adapters::{
    ActiveRecordAdapter, MongoidAdapter, Neo4jAdapter, StretcherAdapter,
};
use synapse_repro::orm::CallbackPoint;

mod common;
use common::eventually;

fn wait_replicated(node: &SynapseNode, model: &str, id: Id) -> bool {
    eventually(Duration::from_secs(5), || {
        node.orm()
            .find(model, id)
            .map(|r| r.is_some())
            .unwrap_or(false)
    })
}

/// Fig. 1 / Fig. 4: a MongoDB publisher replicating `User.name` to SQL,
/// Elasticsearch, and MongoDB subscribers simultaneously.
#[test]
fn fig4_basic_integration_across_three_engine_families() {
    let eco = Ecosystem::new();

    let pub1 = eco.add_node(
        SynapseConfig::new("pub1"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    pub1.orm().define_model(ModelSchema::open("User")).unwrap();
    pub1.publish(Publication::model("User").field("name"))
        .unwrap();

    let sub_sql = eco.add_node(
        SynapseConfig::new("sub1a"),
        Arc::new(ActiveRecordAdapter::new("postgresql", LatencyModel::off())),
    );
    sub_sql
        .orm()
        .define_model(ModelSchema::new("User").field("name"))
        .unwrap();
    sub_sql
        .subscribe(Subscription::model("User", "pub1").field("name"))
        .unwrap();

    let sub_es = eco.add_node(
        SynapseConfig::new("sub1b"),
        Arc::new(StretcherAdapter::new(LatencyModel::off())),
    );
    sub_es
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    sub_es
        .subscribe(Subscription::model("User", "pub1").field("name"))
        .unwrap();

    let sub_mongo = eco.add_node(
        SynapseConfig::new("sub1c"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    sub_mongo
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    sub_mongo
        .subscribe(Subscription::model("User", "pub1").field("name"))
        .unwrap();

    assert!(eco.connect().is_empty());
    eco.start_all();

    let user = pub1
        .orm()
        .create("User", vmap! { "name" => "alice", "private" => "hidden" })
        .unwrap();

    for sub in [&sub_sql, &sub_es, &sub_mongo] {
        assert!(wait_replicated(sub, "User", user.id), "{}", sub.app());
        let replica = sub.orm().find("User", user.id).unwrap().unwrap();
        assert_eq!(replica.get("name").as_str(), Some("alice"));
        assert!(
            replica.get("private").is_null(),
            "unpublished attributes must not replicate"
        );
    }

    // Updates propagate too.
    pub1.orm()
        .update("User", user.id, vmap! { "name" => "alicia" })
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        sub_sql
            .orm()
            .find("User", user.id)
            .ok()
            .flatten()
            .map(|r| r.get("name").as_str() == Some("alicia"))
            .unwrap_or(false)
    }));

    // Deletions propagate.
    pub1.orm().destroy("User", user.id).unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        sub_es
            .orm()
            .find("User", user.id)
            .map(|r| r.is_none())
            .unwrap_or(false)
    }));

    // The telemetry plane observed the whole trip. Each subscriber saw the
    // three publishes (create, update, destroy), every staged histogram is
    // internally consistent with the end-to-end one, and the publisher's
    // side recorded its intercept/encode stages. The destroy was only
    // confirmed on sub1b above, so give the other replicas their own
    // bounded settle window before asserting exact counts.
    for sub in [&sub_sql, &sub_es, &sub_mongo] {
        assert!(
            eventually(Duration::from_secs(5), || {
                sub.telemetry_snapshot().total_delivered() == 3
            }),
            "{} never delivered all three messages",
            sub.app()
        );
        let snap = sub.telemetry_snapshot();
        snap.check_consistency()
            .unwrap_or_else(|e| panic!("{}: {e}", sub.app()));
        assert_eq!(snap.total_delivered(), 3, "{}", sub.app());
        let e2e = snap.end_to_end(ModeSlice::Causal);
        assert_eq!(e2e.count, 3, "{}", sub.app());
        assert!(e2e.sum_nanos > 0, "{}", sub.app());
        assert_eq!(snap.counter("subscriber.messages_processed"), 3);
    }
    let pub_snap = pub1.telemetry_snapshot();
    assert_eq!(
        pub_snap.stage(ModeSlice::Causal, Stage::Intercept).count,
        3,
        "publisher records one intercept per write"
    );
    assert_eq!(pub_snap.counter("orm.writes_intercepted"), 3);
    assert_eq!(pub_snap.counter("publisher.messages_published"), 3);

    eco.stop_all();
}

/// §3.1's read-only subscription rule: subscribers cannot create, delete,
/// or update imported attributes — but can decorate.
#[test]
fn subscribers_are_read_only_for_imported_data() {
    let eco = Ecosystem::new();
    let publisher = eco.add_node(
        SynapseConfig::new("owner"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    publisher
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    publisher
        .publish(Publication::model("User").field("name"))
        .unwrap();

    let subscriber = eco.add_node(
        SynapseConfig::new("follower"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("User", "owner").field("name"))
        .unwrap();
    eco.connect();
    eco.start_all();

    let user = publisher
        .orm()
        .create("User", vmap! { "name" => "a" })
        .unwrap();
    assert!(wait_replicated(&subscriber, "User", user.id));

    // Create and delete are forbidden on the subscriber.
    assert!(subscriber
        .orm()
        .create("User", vmap! { "name" => "x" })
        .is_err());
    assert!(subscriber.orm().destroy("User", user.id).is_err());
    // Updating the imported attribute is forbidden...
    assert!(subscriber
        .orm()
        .update("User", user.id, vmap! { "name" => "hacked" })
        .is_err());
    // ...but decorating with a new attribute is allowed.
    let decorated = subscriber
        .orm()
        .update("User", user.id, vmap! { "vip" => true })
        .unwrap();
    assert_eq!(decorated.get("vip").as_bool(), Some(true));

    eco.stop_all();
}

/// Fig. 3's decorator chain: Pub1 → Dec2 (adds `interests`) → Sub2, which
/// subscribes to both and sees merged data.
#[test]
fn decorator_chain_merges_attributes_downstream() {
    let eco = Ecosystem::new();
    let pub1 = eco.add_node(
        SynapseConfig::new("pub1"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    pub1.orm().define_model(ModelSchema::open("User")).unwrap();
    pub1.publish(Publication::model("User").field("name"))
        .unwrap();

    let dec2 = eco.add_node(
        SynapseConfig::new("dec2"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    dec2.orm().define_model(ModelSchema::open("User")).unwrap();
    dec2.subscribe(Subscription::model("User", "pub1").field("name"))
        .unwrap();
    dec2.publish(Publication::model("User").field("interests"))
        .unwrap();

    let sub2 = eco.add_node(
        SynapseConfig::new("sub2"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    sub2.orm().define_model(ModelSchema::open("User")).unwrap();
    sub2.subscribe(Subscription::model("User", "pub1").field("name"))
        .unwrap();
    sub2.subscribe(Subscription::model("User", "dec2").field("interests"))
        .unwrap();

    assert!(eco.connect().is_empty());
    eco.start_all();

    let user = pub1
        .orm()
        .create("User", vmap! { "name" => "carol" })
        .unwrap();
    assert!(wait_replicated(&dec2, "User", user.id));

    // The decorator computes and publishes interests.
    dec2.orm()
        .update(
            "User",
            user.id,
            vmap! { "interests" => synapse_repro::model::varray!["cats"] },
        )
        .unwrap();

    assert!(eventually(Duration::from_secs(5), || {
        sub2.orm()
            .find("User", user.id)
            .ok()
            .flatten()
            .map(|r| {
                r.get("name").as_str() == Some("carol")
                    && r.get("interests").as_array().map(|a| a.len()) == Some(1)
            })
            .unwrap_or(false)
    }));

    // Decorator restriction: dec2 cannot publish what it subscribes to.
    assert!(dec2
        .publish(Publication::model("User").field("name"))
        .is_err());

    eco.stop_all();
}

/// Fig. 5 / Example 2: a SQL publisher's `Friendship` join table becomes
/// Neo4j edges through an observer model, enabling graph traversals.
#[test]
fn sql_friendships_become_graph_edges_via_observer() {
    let eco = Ecosystem::new();
    let pub2 = eco.add_node(
        SynapseConfig::new("pub2"),
        Arc::new(ActiveRecordAdapter::new("postgresql", LatencyModel::off())),
    );
    pub2.orm()
        .define_model(
            ModelSchema::new("User")
                .field("name")
                .field("likes")
                .has_many("friendships", "Friendship"),
        )
        .unwrap();
    pub2.orm()
        .define_model(
            ModelSchema::new("Friendship")
                .belongs_to("user1", "User")
                .belongs_to("user2", "User"),
        )
        .unwrap();
    pub2.publish(Publication::model("User").fields(&["name", "likes"]))
        .unwrap();
    pub2.publish(Publication::model("Friendship").fields(&["user1_id", "user2_id"]))
        .unwrap();

    let neo4j_adapter = Arc::new(Neo4jAdapter::new(LatencyModel::off()));
    let sub2 = eco.add_node(SynapseConfig::new("recommender"), neo4j_adapter.clone());
    sub2.orm().define_model(ModelSchema::open("User")).unwrap();
    sub2.subscribe(Subscription::model("User", "pub2").fields(&["name", "likes"]))
        .unwrap();
    // The Friendship observer: not persisted; edges added in callbacks.
    sub2.subscribe(
        Subscription::model("Friendship", "pub2")
            .fields(&["user1_id", "user2_id"])
            .observer(),
    )
    .unwrap();
    let adapter_for_add = neo4j_adapter.clone();
    sub2.orm()
        .on("Friendship", CallbackPoint::AfterCreate, move |_, r| {
            let u1 = Id(r.get("user1_id").as_int().unwrap_or(0) as u64);
            let u2 = Id(r.get("user2_id").as_int().unwrap_or(0) as u64);
            adapter_for_add.add_edge("friends", u1, u2)?;
            Ok(())
        });
    let adapter_for_remove = neo4j_adapter.clone();
    sub2.orm()
        .on("Friendship", CallbackPoint::AfterDestroy, move |_, r| {
            let u1 = Id(r.get("user1_id").as_int().unwrap_or(0) as u64);
            let u2 = Id(r.get("user2_id").as_int().unwrap_or(0) as u64);
            adapter_for_remove.remove_edge("friends", u1, u2)?;
            Ok(())
        });

    assert!(eco.connect().is_empty());
    eco.start_all();

    let alice = pub2
        .orm()
        .create("User", vmap! { "name" => "alice" })
        .unwrap();
    let bob = pub2
        .orm()
        .create("User", vmap! { "name" => "bob" })
        .unwrap();
    let carol = pub2
        .orm()
        .create("User", vmap! { "name" => "carol" })
        .unwrap();
    pub2.orm()
        .create(
            "Friendship",
            vmap! { "user1_id" => alice.id.raw(), "user2_id" => bob.id.raw() },
        )
        .unwrap();
    let f2 = pub2
        .orm()
        .create(
            "Friendship",
            vmap! { "user1_id" => bob.id.raw(), "user2_id" => carol.id.raw() },
        )
        .unwrap();

    // Friends-of-friends traversal works on the subscriber.
    assert!(eventually(Duration::from_secs(5), || {
        neo4j_adapter
            .traverse("friends", alice.id, 2)
            .map(|ids| ids == vec![bob.id, carol.id])
            .unwrap_or(false)
    }));

    // Unfriending removes the edge.
    pub2.orm().destroy("Friendship", f2.id).unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        neo4j_adapter
            .traverse("friends", alice.id, 2)
            .map(|ids| ids == vec![bob.id])
            .unwrap_or(false)
    }));

    eco.stop_all();
}

/// Example 3 (Fig. 7): MongoDB array attribute into SQL through a virtual
/// attribute setter that explodes it into an `interests` table.
#[test]
fn mongodb_arrays_into_sql_via_virtual_attribute() {
    let eco = Ecosystem::new();
    let pub3 = eco.add_node(
        SynapseConfig::new("pub3"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    pub3.orm().define_model(ModelSchema::open("User")).unwrap();
    pub3.publish(Publication::model("User").field("interests"))
        .unwrap();

    let sub3b = eco.add_node(
        SynapseConfig::new("sub3b"),
        Arc::new(ActiveRecordAdapter::new("postgresql", LatencyModel::off())),
    );
    sub3b
        .orm()
        .define_model(ModelSchema::new("User").field("name"))
        .unwrap();
    sub3b
        .orm()
        .define_model(
            ModelSchema::new("Interest")
                .field("tag")
                .belongs_to("user", "User"),
        )
        .unwrap();
    sub3b
        .subscribe(Subscription::model("User", "pub3").field_as("interests", "interests_virt"))
        .unwrap();
    // The virtual setter: replace the user's Interest rows.
    sub3b
        .orm()
        .virtual_setter("User", "interests_virt", |orm, record, value| {
            let existing = orm.where_eq("Interest", "user_id", record.id.raw())?;
            for e in existing {
                orm.destroy("Interest", e.id)?;
            }
            if let Some(tags) = value.as_array() {
                for tag in tags {
                    orm.create(
                        "Interest",
                        vmap! { "tag" => tag.clone(), "user_id" => record.id.raw() },
                    )?;
                }
            }
            Ok(())
        });

    assert!(eco.connect().is_empty());
    eco.start_all();

    let user = pub3
        .orm()
        .create(
            "User",
            vmap! { "interests" => synapse_repro::model::varray!["cats", "dogs"] },
        )
        .unwrap();

    assert!(eventually(Duration::from_secs(5), || {
        sub3b
            .orm()
            .where_eq("Interest", "user_id", user.id.raw())
            .map(|v| v.len() == 2)
            .unwrap_or(false)
    }));

    // Updating interests replaces the rows.
    pub3.orm()
        .update(
            "User",
            user.id,
            vmap! { "interests" => synapse_repro::model::varray!["fish"] },
        )
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        sub3b
            .orm()
            .where_eq("Interest", "user_id", user.id.raw())
            .map(|v| v.len() == 1 && v[0].get("tag").as_str() == Some("fish"))
            .unwrap_or(false)
    }));

    eco.stop_all();
}

fn mongo_user_node(eco: &Ecosystem, app: &str) -> Arc<SynapseNode> {
    let node = eco.add_node(
        SynapseConfig::new(app),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    node.orm().define_model(ModelSchema::open("User")).unwrap();
    node
}

/// §3.1's publisher side of a virtual attribute: what subscribers receive
/// is the getter's computed value, through a bootstrap chunk copy and
/// through a live write alike — the two places a record is marshalled.
#[test]
fn virtual_getter_values_reach_subscribers_by_copy_and_live() {
    let eco = Ecosystem::new();
    let publisher = mongo_user_node(&eco, "pub");
    publisher.orm().virtual_getter("User", "shout", |_, r| {
        Value::from(r.get("name").as_str().unwrap_or("").to_uppercase())
    });
    publisher
        .publish(Publication::model("User").fields(&["name", "shout"]))
        .unwrap();
    // Written before the subscriber exists: only a chunk copy carries it.
    let early = publisher
        .orm()
        .create("User", vmap! { "name" => "early" })
        .unwrap();

    let subscriber = mongo_user_node(&eco, "sub");
    subscriber
        .subscribe(Subscription::model("User", "pub").fields(&["name", "shout"]))
        .unwrap();
    assert!(eco.connect().is_empty());
    subscriber.start_and_bootstrap_from(&publisher).unwrap();
    let copied = subscriber.orm().find("User", early.id).unwrap().unwrap();
    assert_eq!(copied.get("shout").as_str(), Some("EARLY"), "chunk copy");

    let live = publisher
        .orm()
        .create("User", vmap! { "name" => "live" })
        .unwrap();
    assert!(
        eventually(Duration::from_secs(5), || {
            subscriber
                .orm()
                .find("User", live.id)
                .map(|r| r.is_some_and(|r| r.get("shout").as_str() == Some("LIVE")))
                .unwrap_or(false)
        }),
        "live write"
    );
    eco.stop_all();
}

/// An observer model (§3.1) stores nothing, yet its virtual setters still
/// consume their values: on the in-memory record, after its callbacks, as
/// the persisted path runs them after the write.
#[test]
fn observer_subscriptions_feed_virtual_setters() {
    let eco = Ecosystem::new();
    let publisher = mongo_user_node(&eco, "pub");
    publisher
        .publish(Publication::model("User").fields(&["name", "tag"]))
        .unwrap();

    let observer = mongo_user_node(&eco, "tagger");
    observer
        .subscribe(
            Subscription::model("User", "pub")
                .field("name")
                .field_as("tag", "tag_virt")
                .observer(),
        )
        .unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let seen = log.clone();
    observer
        .orm()
        .virtual_setter("User", "tag_virt", move |_, r, value| {
            let name = r.get("name").as_str().unwrap_or("?");
            let tag = value.as_str().unwrap_or("?");
            seen.lock().unwrap().push(format!("set {tag} on {name}"));
            Ok(())
        });
    let seen = log.clone();
    observer
        .orm()
        .on("User", CallbackPoint::AfterCreate, move |_, r| {
            let name = r.get("name").as_str().unwrap_or("?");
            seen.lock().unwrap().push(format!("after_create {name}"));
            Ok(())
        });

    assert!(eco.connect().is_empty());
    eco.start_all();
    publisher
        .orm()
        .create("User", vmap! { "name" => "alice", "tag" => "cats" })
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        log.lock().unwrap().len() >= 2
    }));
    assert_eq!(
        *log.lock().unwrap(),
        ["after_create alice", "set cats on alice"]
    );
    assert_eq!(observer.orm().count("User").unwrap(), 0, "nothing stored");
    eco.stop_all();
}

/// §3.2: an ephemeral publisher (no DB) feeding an analytics subscriber.
#[test]
fn ephemeral_clicks_reach_analytics_without_local_storage() {
    let eco = Ecosystem::new();
    let frontend = eco.add_node(
        SynapseConfig::new("frontend"),
        Arc::new(synapse_repro::orm::adapters::EphemeralAdapter::new()),
    );
    frontend
        .orm()
        .define_model(ModelSchema::open("Click"))
        .unwrap();
    frontend
        .publish(
            Publication::model("Click")
                .fields(&["target", "user_id"])
                .ephemeral(),
        )
        .unwrap();

    let analytics = eco.add_node(
        SynapseConfig::new("analytics").mode(DeliveryMode::Weak),
        Arc::new(StretcherAdapter::new(LatencyModel::off())),
    );
    analytics
        .orm()
        .define_model(ModelSchema::open("Click"))
        .unwrap();
    analytics
        .subscribe(Subscription::model("Click", "frontend").fields(&["target", "user_id"]))
        .unwrap();

    assert!(eco.connect().is_empty());
    eco.start_all();

    for i in 0..20 {
        frontend
            .orm()
            .create("Click", vmap! { "target" => "buy", "user_id" => i })
            .unwrap();
    }
    // The frontend stored nothing...
    assert_eq!(frontend.orm().count("Click").unwrap(), 0);
    // ...but analytics got every event.
    assert!(eventually(Duration::from_secs(5), || {
        analytics
            .orm()
            .count("Click")
            .map(|n| n == 20)
            .unwrap_or(false)
    }));

    eco.stop_all();
}

/// Static checking (§4.5): subscribing to unpublished models or attributes
/// is reported at connect time.
#[test]
fn static_checks_catch_unpublished_subscriptions() {
    let eco = Ecosystem::new();
    let publisher = eco.add_node(
        SynapseConfig::new("pub"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    publisher
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    publisher
        .publish(Publication::model("User").field("name"))
        .unwrap();

    let subscriber = eco.add_node(
        SynapseConfig::new("sub"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    subscriber
        .orm()
        .define_model(ModelSchema::open("Ghost"))
        .unwrap();
    subscriber
        .subscribe(
            Subscription::model("User", "pub")
                .field("name")
                .field("email"),
        )
        .unwrap();
    subscriber
        .subscribe(Subscription::model("Ghost", "pub").field("x"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("User", "nowhere").field("name"))
        .unwrap();

    let violations = eco.connect();
    assert_eq!(violations.len(), 3, "{violations:?}");
    assert!(violations.iter().any(|v| v.contains("email")));
    assert!(violations.iter().any(|v| v.contains("Ghost")));
    assert!(violations.iter().any(|v| v.contains("nowhere")));
}

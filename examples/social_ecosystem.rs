//! The social product recommender of §5.2 (Fig. 11), end to end:
//! Diaspora + Discourse → semantic analyzer (decorator) → Spree, with a
//! mailer observing posts — followed by a second act: two regional
//! Diaspora deployments forming a two-writer mesh over the same User and
//! Post rows, diverging under a seeded fault schedule and converging by
//! last-writer-wins on `(clock, writer)` stamps.
//!
//! Run with: `cargo run --example social_ecosystem`

use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_faults::SeededRng;
use synapse_repro::apps::social;
use synapse_repro::core::{
    DeliveryMode, Ecosystem, Publication, Subscription, SynapseConfig, SynapseNode,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, Id, ModelSchema, Value};
use synapse_repro::mvc::Request;
use synapse_repro::orm::adapters::{ActiveRecordAdapter, MongoidAdapter};

fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn main() {
    let eco = Ecosystem::new();
    let apps = social::build(&eco, LatencyModel::off());
    let violations = eco.connect();
    assert!(violations.is_empty(), "{violations:?}");
    eco.start_all();

    // Two friends join Diaspora.
    let ids = social::seed_users(
        &apps.diaspora,
        &[("alice", "alice@example.com"), ("bob", "bob@example.com")],
    );
    let (alice, bob) = (ids[0], ids[1]);
    apps.diaspora
        .dispatch(
            "friends/create",
            &Request::as_user(alice).param("user_id", bob.raw()),
        )
        .unwrap();

    // Spree stocks some products.
    for (name, description) in [
        ("Trail Boots", "rugged boots for hiking and camping"),
        ("Espresso Maker", "brews rich espresso coffee at home"),
        ("Cat Tree", "a playground your cats will adore"),
    ] {
        apps.spree
            .dispatch(
                "products/create",
                &Request::anonymous()
                    .param("name", name)
                    .param("description", description)
                    .param("price", 49),
            )
            .unwrap();
    }

    // Alice posts about her hobby on Diaspora (Fig. 9(a)'s step ①).
    apps.diaspora
        .dispatch(
            "posts/create",
            &Request::as_user(alice).param("body", "went hiking again, hiking trails all weekend"),
        )
        .unwrap();

    // ② the mailer notifies Alice's friends.
    assert!(eventually(Duration::from_secs(10), || {
        !apps.outbox.lock().is_empty()
    }));
    println!("mailer sent: {:?}", apps.outbox.lock().first().unwrap());

    // ③ the analyzer decorates Alice with interests, and ④⑤ the decorated
    // model reaches Spree.
    assert!(eventually(Duration::from_secs(10), || {
        apps.spree
            .orm()
            .find("User", alice)
            .ok()
            .flatten()
            .map(|u| !u.get("interests").is_null())
            .unwrap_or(false)
    }));
    let spree_alice = apps.spree.orm().find("User", alice).unwrap().unwrap();
    println!(
        "spree sees alice's interests: {}",
        spree_alice.get("interests")
    );

    // The recommender matches products to her replicated interests.
    let recs = apps
        .spree
        .dispatch(
            "products/recommended",
            &Request::anonymous().param("user_id", alice.raw()),
        )
        .unwrap();
    let rec_ids: Vec<u64> = recs
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|v| v.as_int().map(|i| i as u64))
        .collect();
    println!("recommended product ids for alice: {rec_ids:?}");
    assert!(!rec_ids.is_empty(), "hiking boots should match");
    for id in &rec_ids {
        let p = apps.spree.orm().find("Product", Id(*id)).unwrap().unwrap();
        println!("  → {}", p.get("name").as_str().unwrap());
    }

    eco.stop_all();

    two_writer_mesh();
}

/// Act two: `diaspora_us` and `diaspora_eu` both accept writes to the same
/// User profiles and Posts. A seeded fault schedule partitions the
/// regions mid-write storm; once healed, every replica pair converges,
/// each concurrent pair settled by last-writer-wins.
fn two_writer_mesh() {
    println!("\n-- two-writer mesh: diaspora_us <-> diaspora_eu --");
    let eco = Ecosystem::new();
    let us = eco.add_node(
        SynapseConfig::new("diaspora_us").mode(DeliveryMode::Weak),
        Arc::new(ActiveRecordAdapter::new("postgresql", LatencyModel::off())),
    );
    let eu = eco.add_node(
        SynapseConfig::new("diaspora_eu").mode(DeliveryMode::Weak),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    for node in [&us, &eu] {
        node.orm()
            .define_model(ModelSchema::new("User").field("name").field("bio"))
            .unwrap();
        node.orm()
            .define_model(ModelSchema::new("Post").field("body"))
            .unwrap();
        node.publish(
            Publication::model("User")
                .fields(&["name", "bio"])
                .bidirectional(),
        )
        .unwrap();
        node.publish(Publication::model("Post").field("body").bidirectional())
            .unwrap();
    }
    for (node, peer) in [(&us, "diaspora_eu"), (&eu, "diaspora_us")] {
        node.subscribe(
            Subscription::model("User", peer)
                .fields(&["name", "bio"])
                .bidirectional(),
        )
        .unwrap();
        node.subscribe(
            Subscription::model("Post", peer)
                .field("body")
                .bidirectional(),
        )
        .unwrap();
    }
    let violations = eco.connect();
    assert!(violations.is_empty(), "{violations:?}");
    eco.start_all();

    // Shared rows originate in one region and replicate to the other.
    let carol = us
        .orm()
        .create("User", vmap! { "name" => "carol", "bio" => "hi" })
        .unwrap();
    let post = us
        .orm()
        .create("Post", vmap! { "body" => "first" })
        .unwrap();
    assert!(eventually(Duration::from_secs(10), || {
        eu.orm().find("User", carol.id).unwrap().is_some()
            && eu.orm().find("Post", post.id).unwrap().is_some()
    }));

    // A seeded fault plane: partition/heal windows interleaved with
    // overlapping writes from both regions. Deterministic for a seed, so
    // the divergence the mesh must repair is reproducible.
    let mut rng = SeededRng::new(42);
    let nodes: [&SynapseNode; 2] = [&us, &eu];
    let mut partitioned = [false; 2];
    for step in 0..24u64 {
        let region = rng.gen_below(2) as usize;
        match rng.gen_below(4) {
            0 => {
                partitioned[region] = true;
                nodes[region].publisher().inject_publish_failure(true);
            }
            1 => {
                partitioned[region] = false;
                nodes[region].publisher().inject_publish_failure(false);
                nodes[region].publisher().recover();
            }
            2 => {
                let _ = nodes[region].orm().update(
                    "Post",
                    post.id,
                    vmap! { "body" => format!("r{region}-s{step}") },
                );
            }
            _ => {
                let _ = nodes[region].orm().update(
                    "User",
                    carol.id,
                    vmap! { "bio" => format!("bio from region {region} at step {step}") },
                );
            }
        }
    }
    // Heal both regions and drain the journals.
    for node in nodes {
        node.publisher().inject_publish_failure(false);
        node.publisher().recover();
    }

    // Convergence: both regions hold equal rows for every User and Post
    // once the journals have drained.
    let rows = |node: &SynapseNode, model: &str, fields: &[&str]| -> Vec<(Id, Vec<Value>)> {
        let records = node.orm().all(model).unwrap();
        records
            .iter()
            .map(|r| (r.id, fields.iter().map(|f| r.get(f).clone()).collect()))
            .collect()
    };
    let tables = |node: &SynapseNode| {
        (
            rows(node, "User", &["name", "bio"]),
            rows(node, "Post", &["body"]),
        )
    };
    assert!(
        eventually(Duration::from_secs(20), || {
            tables(&us) == tables(&eu)
                && us.publisher().journal_len() == 0
                && eu.publisher().journal_len() == 0
        }),
        "regions never converged:\n  us: {:?}\n  eu: {:?}",
        tables(&us),
        tables(&eu)
    );
    let (users, posts) = tables(&us);
    println!(
        "converged: {} users, {} posts, equal in both regions",
        users.len(),
        posts.len()
    );
    let body = us.orm().find("Post", post.id).unwrap().unwrap();
    let bio = us.orm().find("User", carol.id).unwrap().unwrap();
    println!("converged post body: {}", body.get("body"));
    println!("converged user bio: {}", bio.get("bio"));
    for node in nodes {
        let stats = node.subscriber_stats();
        println!(
            "{}: applied={} stale={}",
            node.app(),
            stats.ops_applied,
            stats.ops_stale,
        );
    }
    eco.stop_all();
}

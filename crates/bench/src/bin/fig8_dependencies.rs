//! Fig. 8: dependency tracking and message generation, replayed exactly.
//!
//! Four controller executions — User1 posts, User2 comments, User1
//! comments back, User1 edits the post — and the version-store state plus
//! message dependencies after each write, printed next to the figure's
//! expected values.
//!
//! Run with: `cargo run -p synapse-bench --bin fig8_dependencies`

use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;
use synapse_bench::{eventually, render_table};
use synapse_core::{
    with_user_scope, DepName, DepSpace, Ecosystem, Publication, Subscription, SynapseConfig,
    WriteMessage,
};
use synapse_db::LatencyModel;
use synapse_model::{vmap, Id, ModelSchema};
use synapse_orm::adapters::MongoidAdapter;

fn main() {
    let eco = Ecosystem::new();
    let publisher = eco.add_node(
        SynapseConfig::new("pub"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    let orm = publisher.orm();
    for m in ["User", "Post", "Comment"] {
        orm.define_model(ModelSchema::open(m)).unwrap();
    }
    // `User` is deliberately not published: the figure's walk-through
    // tracks users only as session dependencies, with fresh counters.
    publisher
        .publish(Publication::model("Post").fields(&["author_id", "body"]))
        .unwrap();
    publisher
        .publish(Publication::model("Comment").fields(&["post_id", "author_id", "body"]))
        .unwrap();

    // A tap subscriber records raw messages as they arrive.
    let tap = eco.add_node(
        SynapseConfig::new("tap"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    tap.orm().define_model(ModelSchema::open("Post")).unwrap();
    tap.subscribe(Subscription::model("Post", "pub").fields(&["author_id", "body"]))
        .unwrap();
    eco.connect();

    // Pre-create the two users (the figure's walk-through starts with
    // users existing; their finds create the read context).
    let u1 = orm.create("User", vmap! { "name" => "User1" }).unwrap();
    let u2 = orm.create("User", vmap! { "name" => "User2" }).unwrap();

    let space = DepSpace::new(1 << 20);
    let key = |name: &DepName| space.key(name);
    let dep = |model: &str, id: Id| DepName::object("pub", model, id);

    let messages: Arc<Mutex<Vec<WriteMessage>>> = Arc::new(Mutex::new(Vec::new()));
    // A second raw queue captures payloads without stealing them from the
    // tap node's own queue — one partition, so they pop in publish order.
    let raw = synapse_broker::QueueConfig {
        partitions: 1,
        ..Default::default()
    };
    eco.broker().declare_queue("fig8_raw", raw);
    eco.broker().bind("pub", "fig8_raw");
    let consumer = eco.broker().consumer("fig8_raw").unwrap();

    // W1: User1 creates a post.
    let post = with_user_scope(dep("User", u1.id), || {
        orm.create(
            "Post",
            vmap! { "author_id" => u1.id.raw(), "body" => "helo" },
        )
        .unwrap()
    })
    .0;

    // W2: User2 comments on it (reads the post first → read dependency).
    with_user_scope(dep("User", u2.id), || {
        let p = orm.find("Post", post.id).unwrap().unwrap();
        orm.create(
            "Comment",
            vmap! { "post_id" => p.id.raw(), "author_id" => u2.id.raw(), "body" => "you have a typo" },
        )
        .unwrap();
    });

    // W3: User1 comments back.
    with_user_scope(dep("User", u1.id), || {
        let p = orm.find("Post", post.id).unwrap().unwrap();
        orm.create(
            "Comment",
            vmap! { "post_id" => p.id.raw(), "author_id" => u1.id.raw(), "body" => "thanks for noticing" },
        )
        .unwrap();
    });

    // W4: User1 fixes the post.
    with_user_scope(dep("User", u1.id), || {
        orm.update("Post", post.id, vmap! { "body" => "hello" })
            .unwrap();
    });

    // Collect the four messages (skip the two user creations).
    while let Some(d) = consumer.pop(Duration::from_millis(200)) {
        let msg = WriteMessage::decode(&d.payload).unwrap();
        if msg.operations[0].model() != "User" {
            messages.lock().unwrap().push(msg);
        }
        consumer.ack(d.tag);
    }
    let messages = messages.lock().unwrap();
    assert_eq!(messages.len(), 4, "four writes → four messages");

    // Pretty-print each message's dependencies with symbolic names.
    let symbol = |k: u64| -> String {
        let candidates = [
            ("u1", key(&dep("User", u1.id))),
            ("u2", key(&dep("User", u2.id))),
            ("p1", key(&dep("Post", post.id))),
            ("c1", key(&dep("Comment", Id(1)))),
            ("c2", key(&dep("Comment", Id(2)))),
        ];
        candidates
            .iter()
            .find(|(_, ck)| *ck == k)
            .map(|(n, _)| (*n).to_string())
            .unwrap_or_else(|| k.to_string())
    };
    println!("Fig. 8 — messages and dependencies (expected values from the figure)\n");
    let expected = ["u1:0 p1:0", "u2:0 c1:0 p1:1", "u1:1 c2:0 p1:1", "u1:2 p1:3"];
    let mut rows = Vec::new();
    for (i, msg) in messages.iter().enumerate() {
        let mut deps: Vec<String> = msg
            .dependencies
            .iter()
            .map(|(k, v)| format!("{}:{}", symbol(*k), v))
            .collect();
        deps.sort();
        let mut want: Vec<String> = expected[i].split(' ').map(str::to_owned).collect();
        want.sort();
        assert_eq!(deps, want, "M{} dependencies", i + 1);
        rows.push(vec![
            format!("M{}", i + 1),
            format!(
                "{} {}",
                msg.operations[0].operation,
                msg.operations[0].model()
            ),
            deps.join(" "),
            expected[i].to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "msg",
                "operation",
                "dependencies (measured)",
                "expected (paper)"
            ],
            &rows
        )
    );

    // And the subscriber processes them respecting the dependency graph
    // (M2/M3 after M1, M4 last).
    tap.start();
    assert!(eventually(Duration::from_secs(5), || {
        tap.subscriber_stats().messages_processed >= 4
    }));
    println!("subscriber replayed the graph: M1 → {{M2, M3}} → M4 ✓");
    eco.stop_all();
}

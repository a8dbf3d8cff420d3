use super::worker_thread_name;
use crate::api::Subscription;
use crate::config::SynapseConfig;
use crate::deps::DepName;
use crate::message::{Operation, WriteMessage};
use crate::node::SynapseNode;
use crate::testing::emulate_delivery;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_broker::{Broker, QueueConfig};
use synapse_db::LatencyModel;
use synapse_model::{Id, ModelSchema, Record, Value};
use synapse_orm::adapters::MongoidAdapter;
use synapse_orm::CallbackPoint;

#[test]
fn worker_thread_names_fit_the_kernels_fifteen_bytes() {
    assert_eq!(worker_thread_name("sub", 0), "w0-sub");
    assert_eq!(
        worker_thread_name("elasticsearch_sub", 3),
        "w3-icsearch_sub"
    );
    assert_eq!(
        worker_thread_name("elasticsearch_sub", 12),
        "w12-csearch_sub"
    );
    // A cut never lands inside a character.
    assert_eq!(worker_thread_name("ééééééé", 0), "w0-éééééé");
    assert_eq!(worker_thread_name("aééééééé", 0), "w0-éééééé");
    for name in ["", "x", "a-very-long-application-name", "ééééééééééé"] {
        assert!(worker_thread_name(name, 7).len() <= 15);
    }
}

/// Polls `cond` every 2 ms until it holds or `timeout` passes.
fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A subscriber `sub` of `pub`'s `Post` (field `body`), workers not
/// started, on its own broker — nothing publishes to it but the test.
fn subscriber(config: SynapseConfig) -> (Broker, Arc<SynapseNode>) {
    let broker = Broker::new();
    let node = SynapseNode::new(
        config,
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
        broker.clone(),
    );
    node.orm().define_model(ModelSchema::open("Post")).unwrap();
    node.subscribe(Subscription::model("Post", "pub").fields(&["body"]))
        .unwrap();
    (broker, node)
}

/// One `pub` Post write whose dependency map is `deps`, given as
/// `(post id, required ops)`.
fn post(node: &SynapseNode, operation: &str, id: u64, deps: &[(u64, u64)]) -> WriteMessage {
    let key = |id: u64| {
        node.config()
            .dep_space
            .key(&DepName::object("pub", "Post", Id(id)))
    };
    let attrs = BTreeMap::from([("body".to_owned(), Value::from(format!("{operation} {id}")))]);
    WriteMessage {
        app: "pub".to_owned(),
        operations: vec![Operation::from_record(
            operation,
            Record::with_attrs("Post", Id(id), attrs),
        )],
        dependencies: deps.iter().map(|&(id, ops)| (key(id), ops)).collect(),
        published_at: 0,
        generation: 1,
        stamps: BTreeMap::new(),
    }
}

/// Publishes `messages` on `pub`'s exchange with route key `partition`,
/// so they land in `sub`'s queue partition `partition`, in order.
fn enqueue(broker: &Broker, partition: u64, messages: &[WriteMessage]) {
    for message in messages {
        broker
            .publish_routed("pub", message.encode(), 0, partition)
            .unwrap();
    }
}

fn body(node: &SynapseNode, id: u64) -> Option<String> {
    let row = node.orm().find("Post", Id(id)).unwrap()?;
    row.get("body").as_str().map(str::to_owned)
}

/// A worker pops `[M1, M2]`; M1 depends on M0, which a second consumer
/// holds unacked. M2 applies without waiting for it; M1 applies once M0's
/// keys are, with no redelivery.
#[test]
fn a_blocked_delivery_steps_aside_for_the_rest_of_its_batch() {
    let (broker, node) = subscriber(SynapseConfig::new("sub").workers(1));
    let m0 = post(&node, "create", 1, &[(1, 0)]);
    let m1 = post(&node, "update", 1, &[(1, 1)]);
    let m2 = post(&node, "create", 2, &[(2, 0)]);
    enqueue(&broker, 0, &[m0.clone(), m1, m2]);
    let other = broker.consumer("sub").unwrap();
    let held = other.pop_batch_from(0, 1);
    assert_eq!(held.len(), 1, "the second consumer holds M0");

    node.start();
    assert!(
        eventually(Duration::from_secs(2), || body(&node, 2).is_some()),
        "M2 applies while M1 waits"
    );
    assert_eq!(body(&node, 1), None, "M1 waits for M0");

    node.subscriber().process(&emulate_delivery(&m0)).unwrap();
    other.ack(held[0].tag);
    assert!(eventually(Duration::from_secs(2), || {
        body(&node, 1).as_deref() == Some("update 1")
    }));
    assert!(node.subscriber().drain(Duration::from_secs(2)));
    let stats = node.subscriber_stats();
    assert_eq!(stats.set_aside, 1);
    assert_eq!(stats.redeliveries, 0);
    assert_eq!(broker.stats().redelivered, 0);
    assert_eq!(stats.dep_timeouts, 0);
    node.stop();
}

/// One local model subscribed from two publishers, which `connect()`
/// accepts: their object identities differ, so the admission reservation
/// does not serialize their applies, and both can find no row and then
/// insert it. Here `pub2`'s create of Post 1 lands between `pub`'s find and
/// its insert. `pub`'s create fails on the duplicate key after its
/// attributes went to the engine; the failure is transient, and the
/// redelivery decodes them again and lands them as an update.
#[test]
fn a_create_that_loses_the_race_for_its_row_lands_on_redelivery() {
    let (broker, node) = subscriber(SynapseConfig::new("sub").workers(1));
    node.subscribe(Subscription::model("Post", "pub2").fields(&["body"]))
        .unwrap();
    let mut theirs = post(&node, "create", 1, &[]);
    theirs.app = "pub2".to_owned();
    let attrs = &mut theirs.operations[0].attributes;
    attrs.insert("body".to_owned(), Value::from("pub2's create"));
    let subscriber = Arc::downgrade(node.subscriber());
    let raced = AtomicBool::new(false);
    node.orm()
        .on("Post", CallbackPoint::BeforeCreate, move |_, _| {
            if !raced.swap(true, Ordering::SeqCst) {
                let subscriber = subscriber.upgrade().expect("the node is alive");
                subscriber.process(&emulate_delivery(&theirs)).unwrap();
            }
            Ok(())
        });
    enqueue(&broker, 0, &[post(&node, "create", 1, &[(1, 0)])]);
    node.start();
    assert!(eventually(Duration::from_secs(5), || {
        body(&node, 1).as_deref() == Some("create 1")
    }));
    assert!(node.subscriber().drain(Duration::from_secs(2)));
    let stats = node.subscriber_stats();
    assert_eq!((stats.retries, stats.redeliveries), (1, 1));
    assert_eq!((stats.dead_lettered, stats.poison_messages), (0, 0));
    assert_eq!(node.orm().count("Post").unwrap(), 1);
    node.stop();
}

/// A replicated update asks whether its row exists and then writes it.
/// Here `pub2`'s destroy of Post 1 takes the row in between: it lands from
/// a `BeforeUpdate` callback, after the update's read and before its
/// write. The write finds no row and fails transiently; the redelivery
/// finds none either and creates the row with the update's attributes.
#[test]
fn an_update_that_loses_its_row_to_a_destroy_lands_on_redelivery() {
    let (broker, node) = subscriber(SynapseConfig::new("sub").workers(1));
    node.subscribe(Subscription::model("Post", "pub2").fields(&["body"]))
        .unwrap();
    let create = post(&node, "create", 1, &[(1, 0)]);
    node.subscriber()
        .process(&emulate_delivery(&create))
        .unwrap();
    let mut theirs = post(&node, "destroy", 1, &[]);
    theirs.app = "pub2".to_owned();
    let subscriber = Arc::downgrade(node.subscriber());
    let raced = AtomicBool::new(false);
    node.orm()
        .on("Post", CallbackPoint::BeforeUpdate, move |_, _| {
            if !raced.swap(true, Ordering::SeqCst) {
                let subscriber = subscriber.upgrade().expect("the node is alive");
                subscriber.process(&emulate_delivery(&theirs)).unwrap();
            }
            Ok(())
        });
    enqueue(&broker, 0, &[post(&node, "update", 1, &[(1, 1)])]);
    node.start();
    assert!(eventually(Duration::from_secs(5), || {
        body(&node, 1).as_deref() == Some("update 1")
    }));
    assert!(node.subscriber().drain(Duration::from_secs(2)));
    let stats = node.subscriber_stats();
    assert_eq!((stats.retries, stats.redeliveries), (1, 1));
    assert_eq!((stats.dead_lettered, stats.poison_messages), (0, 0));
    assert_eq!(node.orm().count("Post").unwrap(), 1);
    node.stop();
}

/// Strict mode (`wait_timeout(None)`): a lost dependency stalls its causal
/// descendants and nothing else — a later write of an unrelated object,
/// behind them in the same partition, applies.
#[test]
fn a_lost_dependency_stalls_only_its_descendants_in_strict_mode() {
    let (broker, node) = subscriber(SynapseConfig::new("sub").workers(1).wait_timeout(None));
    // Post 1's create (ops 0 → 1) was lost on the way.
    let child = post(&node, "update", 1, &[(1, 1)]);
    let grandchild = post(&node, "update", 1, &[(1, 2)]);
    let unrelated = post(&node, "create", 9, &[(9, 0)]);
    enqueue(&broker, 0, &[child, grandchild, unrelated]);
    node.start();
    assert!(
        eventually(Duration::from_secs(2), || body(&node, 9).is_some()),
        "the unrelated write applies"
    );
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(body(&node, 1), None);
    let stats = node.subscriber_stats();
    assert_eq!(stats.set_aside, 2, "both descendants stepped aside");
    assert_eq!(stats.dep_timeouts, 0, "strict mode never gives up");
    assert_eq!(broker.queue_unacked_len("sub"), Some(2));
    node.stop();
    assert_eq!(broker.queue_len("sub"), Some(2), "stop hands them back");
}

/// Workers of a decommissioned queue park on it instead of polling, and
/// reinstating it puts them straight back to work.
#[test]
fn workers_park_on_a_decommissioned_queue_until_it_is_reinstated() {
    let (broker, node) = subscriber(SynapseConfig::new("sub").workers(2));
    node.start();
    // The cap kill: a cap of 0 trips on one publish, then the queue gets
    // the node's own config back.
    let own = QueueConfig {
        max_len: node.config().queue_max_len,
        partitions: node.config().queue_partitions,
    };
    let killing = QueueConfig {
        max_len: Some(0),
        ..own.clone()
    };
    broker.declare_queue("sub", killing);
    broker.bind("cap-kill", "sub");
    broker.publish_routed("cap-kill", "", 0, 0).unwrap();
    broker.declare_queue("sub", own);
    assert!(node.is_decommissioned());
    assert!(
        eventually(Duration::from_secs(2), || broker.queue_sleepers("sub")
            == Some(2)),
        "both workers park"
    );
    assert!(broker.reinstate_queue("sub"));
    let started = Instant::now();
    enqueue(&broker, 0, &[post(&node, "create", 5, &[(5, 0)])]);
    assert!(eventually(Duration::from_millis(100), || body(&node, 5).is_some()));
    assert!(started.elapsed() < Duration::from_millis(100));
    node.stop();
}

/// A lane holds at most `HELD_MAX` deliveries: past that it hands its
/// newest back, and once a full lane's runs settle nothing it parks until
/// the store advances instead of re-popping what it handed back. Other
/// partitions keep flowing meanwhile.
#[test]
fn a_full_lane_hands_back_its_newest_and_parks_instead_of_spinning() {
    let (broker, node) = subscriber(SynapseConfig::new("sub").workers(1).wait_timeout(None));
    // Post 1's create was lost: a hundred descendants can never apply.
    let descendants: Vec<WriteMessage> = (1..=100)
        .map(|n| post(&node, "update", 1, &[(1, n)]))
        .collect();
    enqueue(&broker, 0, &descendants);
    enqueue(&broker, 1, &[post(&node, "create", 9, &[(9, 0)])]);

    node.start();
    assert!(
        eventually(Duration::from_secs(2), || body(&node, 9).is_some()),
        "another partition keeps flowing"
    );
    assert!(eventually(Duration::from_secs(2), || {
        broker.queue_unacked_len("sub") == Some(super::HELD_MAX)
    }));
    let before = broker.stats().redelivered;
    std::thread::sleep(Duration::from_millis(300));
    let handed_back = broker.stats().redelivered - before;
    assert!(
        handed_back < 2_000,
        "a stuck lane parks: {handed_back} hand-backs in 300 ms"
    );
    assert_eq!(broker.queue_unacked_len("sub"), Some(super::HELD_MAX));
    node.stop();
    assert_eq!(broker.queue_len("sub"), Some(100));
}

/// A message whose second operation's attributes are malformed deep down
/// applies nothing, its well-formed first operation included: reading the
/// envelope checks every attribute span before any operation applies, so
/// the delivery is dead-lettered as poison.
#[test]
fn a_malformed_second_operation_poisons_the_whole_message() {
    let (broker, node) = subscriber(SynapseConfig::new("sub").workers(1));
    let op = |id: u64, attributes: &str| {
        format!(r#"{{"attributes":{attributes},"id":{id},"operation":"create","types":["Post"]}}"#)
    };
    let text = format!(
        r#"{{"app":"pub","dependencies":{{}},"generation":1,"operations":[{},{}],"published_at":0}}"#,
        op(1, r#"{"body":"fine"}"#),
        op(2, r#"{"body":"x","tags":[1,{"deep":[tru]}]}"#)
    );
    broker.publish_routed("pub", text, 0, 0).unwrap();
    node.start();
    assert!(eventually(Duration::from_secs(2), || {
        node.subscriber_stats().dead_lettered == 1
    }));
    let stats = node.subscriber_stats();
    assert_eq!((stats.poison_messages, stats.ops_applied), (1, 0));
    assert_eq!((body(&node, 1), body(&node, 2)), (None, None));
    node.stop();
}

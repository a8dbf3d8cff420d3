//! Helpers shared by the integration tests (`mod common;` in each file
//! that wants them; every test binary uses its own subset).
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_faults::{DbFaults, FaultEvent, FaultKind, Side};
use synapse_repro::broker::{Broker, QueueConfig};
use synapse_repro::core::{
    mesh_object, writer_id, DeliveryMode, Ecosystem, Operation, Publication, Subscription,
    SynapseConfig, SynapseNode, WriteMessage, RETRY_ATTEMPTS,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{Id, ModelSchema, Record, Value};
use synapse_repro::orm::adapters::{ActiveRecordAdapter, MongoidAdapter};
use synapse_repro::orm::Adapter;
use synapse_repro::versionstore::Stamp;

/// Polls `cond` every 5 ms until it holds or `timeout` passes; returns
/// whether it held.
pub fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A MongoDB-backed node with an open `Post` model.
pub fn mongo_node(eco: &Ecosystem, config: SynapseConfig) -> Arc<SynapseNode> {
    post_node(
        eco,
        config,
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    )
}

/// [`mongo_node`] with its adapter behind a fresh db fault panel, which is
/// returned beside it.
pub fn faulty_mongo_node(eco: &Ecosystem, config: SynapseConfig) -> (Arc<SynapseNode>, DbFaults) {
    let faults = DbFaults::new();
    let adapter = faults.wrap(Arc::new(MongoidAdapter::new(
        "mongodb",
        LatencyModel::off(),
    )));
    (post_node(eco, config, adapter), faults)
}

fn post_node(
    eco: &Ecosystem,
    config: SynapseConfig,
    adapter: Arc<dyn Adapter>,
) -> Arc<SynapseNode> {
    let node = eco.add_node(config, adapter);
    node.orm().define_model(ModelSchema::open("Post")).unwrap();
    node
}

/// Kills `node`'s queue the way its backlog cap does, the one way a queue
/// dies: redeclared with a cap of 0, it trips on one publish through an
/// exchange bound to it alone (that copy is refused), and then gets the
/// node's own queue config back. Its backlog is discarded and, on a
/// durable broker, the kill is logged.
pub fn cap_kill(broker: &Broker, node: &SynapseNode) {
    let config = node.config();
    let own = QueueConfig {
        max_len: config.queue_max_len,
        partitions: config.queue_partitions,
    };
    let killing = QueueConfig {
        max_len: Some(0),
        ..own.clone()
    };
    broker.declare_queue(&config.app, killing);
    broker.bind("cap-kill", &config.app);
    broker.publish_routed("cap-kill", "", 0, 0).unwrap();
    broker.declare_queue(&config.app, own);
    assert!(node.is_decommissioned(), "the cap kill decommissions");
}

/// Two app names, the first with the greater writer id: at an equal clock
/// its LWW stamp beats the second's.
pub fn ranked(x: &'static str, y: &'static str) -> (&'static str, &'static str) {
    if writer_id(x) > writer_id(y) {
        (x, y)
    } else {
        (y, x)
    }
}

/// Builds a started two-writer mesh: both weak-mode nodes publish *and*
/// subscribe the same `User` fields bidirectionally.
pub fn mesh(
    eco: &Ecosystem,
    app_a: &str,
    app_b: &str,
    fields: &[&str],
) -> (Arc<SynapseNode>, Arc<SynapseNode>) {
    let a = eco.add_node(
        SynapseConfig::new(app_a).mode(DeliveryMode::Weak),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    let b = eco.add_node(
        SynapseConfig::new(app_b).mode(DeliveryMode::Weak),
        Arc::new(ActiveRecordAdapter::new("postgresql", LatencyModel::off())),
    );
    for node in [&a, &b] {
        let mut schema = ModelSchema::new("User");
        for f in fields {
            schema = schema.field(*f);
        }
        node.orm().define_model(schema).unwrap();
        node.publish(Publication::model("User").fields(fields).bidirectional())
            .unwrap();
    }
    a.subscribe(
        Subscription::model("User", app_b)
            .fields(fields)
            .bidirectional(),
    )
    .unwrap();
    b.subscribe(
        Subscription::model("User", app_a)
            .fields(fields)
            .bidirectional(),
    )
    .unwrap();
    let violations = eco.connect();
    assert!(violations.is_empty(), "{violations:?}");
    eco.start_all();
    (a, b)
}

/// Waits until both nodes stop processing messages (their publisher
/// journals are empty and subscriber counters stop moving), then returns.
/// Convergence assertions only make sense on a quiescent mesh.
pub fn quiesce(a: &SynapseNode, b: &SynapseNode) {
    let snapshot = |n: &SynapseNode| {
        let s = n.subscriber_stats();
        (
            s.messages_processed,
            s.ops_applied,
            n.publisher().journal_len(),
        )
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut last = (snapshot(a), snapshot(b));
    let mut calm = 0;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(30));
        let now = (snapshot(a), snapshot(b));
        let journals_empty = now.0 .2 == 0 && now.1 .2 == 0;
        if now == last && journals_empty {
            calm += 1;
            if calm >= 5 {
                return;
            }
        } else {
            calm = 0;
        }
        last = now;
    }
    panic!("mesh never quiesced");
}

/// A `User` row's `field` on `node`, `Null` when the row is absent.
pub fn field_of(node: &SynapseNode, id: Id, field: &str) -> Value {
    node.orm()
        .find("User", id)
        .unwrap()
        .map(|r| r.get(field).clone())
        .unwrap_or(Value::Null)
}

/// One write of `User` `id` from `app`, carrying `stamp` under the
/// object's mesh key and no scalar dependencies.
pub fn stamp_msg(
    node: &SynapseNode,
    id: Id,
    app: &str,
    operation: &str,
    name: &str,
    stamp: Stamp,
) -> WriteMessage {
    let mesh_key = node.config().dep_space.key(&mesh_object("User", id));
    let mut attrs = BTreeMap::new();
    attrs.insert("name".to_owned(), Value::from(name));
    let record = Record::with_attrs("User", id, attrs);
    WriteMessage {
        app: app.to_owned(),
        operations: vec![Operation::from_record(operation, record)],
        dependencies: BTreeMap::new(),
        published_at: 0,
        generation: 1,
        stamps: [(mesh_key, stamp)].into_iter().collect(),
    }
}

/// Trims a plan's subscriber-side write-error bursts, in firing order, so
/// that their total stays below [`RETRY_ATTEMPTS`]. The total bounds what
/// can stack on one delivery, so no live delivery exhausts its budget on
/// injected write errors alone and only poison is ever dead-lettered.
pub fn cap_subscriber_write_errors(events: Vec<FaultEvent>) -> Vec<FaultEvent> {
    let mut left = u64::from(RETRY_ATTEMPTS) - 1;
    events
        .into_iter()
        .filter_map(|mut e| {
            if let FaultKind::DbWriteErrors {
                side: Side::Subscriber,
                n,
            } = &mut e.kind
            {
                *n = (*n).min(left);
                left -= *n;
                if *n == 0 {
                    return None;
                }
            }
            Some(e)
        })
        .collect()
}

/// Fresh unique directory under the system temp dir (not created).
pub fn temp_dir(label: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("synapse-test-{label}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

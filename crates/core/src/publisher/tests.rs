use super::Publisher;
use crate::api::Publication;
use crate::config::SynapseConfig;
use crate::context::{add_read_deps, with_scope, with_user_scope};
use crate::deps::{DepName, DepSpace};
use crate::message::{Operation, WriteMessage};
use crate::node::{Ecosystem, SynapseNode};
use crate::semantics::DeliveryMode;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use synapse_broker::{Consumer, QueueConfig};
use synapse_db::LatencyModel;
use synapse_model::{Id, ModelSchema, Record, Value};
use synapse_orm::adapters::MongoidAdapter;
use synapse_telemetry::{ModeSlice, Stage};

/// Attribute names a case draws from: plain, one that needs escaping on
/// the wire, a multi-byte one, and the two virtual attributes.
const NAMES: [&str; 6] = ["a", "b", "c\"\\q", "é", "v_null", "v_val"];

/// One case's publisher node `pub`, publishing `model` through
/// `publication` as given, with every message it publishes bound to a
/// raw queue the case reads.
struct Rig {
    _eco: Ecosystem,
    node: Arc<SynapseNode>,
    raw: Consumer,
    publication: Publication,
}

fn rig(config: SynapseConfig, schema: ModelSchema, publication: Publication) -> Rig {
    let eco = Ecosystem::new();
    let node = eco.add_node(
        config,
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    let model = schema.name.clone();
    node.orm().define_model(schema).unwrap();
    // `v_null` is a getter that answers null; `v_val` one that never does.
    node.orm()
        .virtual_getter(&model, "v_null", |_, _| Value::Null);
    node.orm().virtual_getter(&model, "v_val", |_, r| {
        Value::Array(vec![Value::Int(r.id.raw() as i64), r.get("a").clone()])
    });
    node.publish(publication.clone()).unwrap();
    eco.broker().declare_queue("raw", QueueConfig::default());
    eco.broker().bind("pub", "raw");
    let raw = eco.broker().consumer("raw").unwrap();
    Rig {
        _eco: eco,
        node,
        raw,
        publication,
    }
}

impl Rig {
    /// The next published payload, checked against the message the
    /// marshalled-record path builds for `written` (each operation's kind
    /// and record): same bytes, with the envelope's dependencies, stamps,
    /// generation and timestamp taken from the payload itself.
    fn expect(&self, written: &[(&str, Record)]) {
        let payload = self.raw.pop(Duration::from_secs(1)).expect("published");
        let sent = WriteMessage::decode(&payload.payload).expect("decodes");
        let oracle = WriteMessage {
            app: "pub".to_owned(),
            operations: written
                .iter()
                .map(|(kind, record)| {
                    let marshalled = Publisher::marshal(self.node.orm(), &self.publication, record);
                    Operation::from_record(kind, marshalled)
                })
                .collect(),
            dependencies: sent.dependencies,
            published_at: sent.published_at,
            generation: sent.generation,
            stamps: sent.stamps,
        };
        assert_eq!(*payload.payload, oracle.encode());
    }
}

fn arb_text() -> impl Strategy<Value = String> {
    "[a-z ä❤\\\\\"\n\t\u{1}]{0,8}"
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        arb_text().prop_map(Value::from),
    ];
    leaf.prop_recursive(2, 12, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Array),
            prop::collection::btree_map(arb_text(), inner, 0..3).prop_map(Value::Map),
        ]
    })
}

/// A row's stored attributes: some published, some not, explicit nulls
/// among them.
fn arb_attrs() -> impl Strategy<Value = Value> {
    let name = prop_oneof![
        Just("a".to_owned()),
        Just("b".to_owned()),
        Just("c\"\\q".to_owned()),
        Just("é".to_owned()),
        Just("unpublished".to_owned()),
    ];
    prop::collection::btree_map(name, arb_value(), 0..5).prop_map(Value::Map)
}

/// One case's node and publication: delivery mode, dependency-space size
/// (small spaces give keys of few digits, and collisions), a flat or a
/// three-level model, a bidirectional flag, and a field list with
/// repeats, in any order, naming fields no row has.
fn arb_setup() -> impl Strategy<Value = (SynapseConfig, ModelSchema, Publication)> {
    let field = prop_oneof![(0..NAMES.len()).prop_map(|i| NAMES[i]), Just("absent")];
    (
        any::<bool>(),
        prop_oneof![Just(7u64), Just(1_000), Just(1 << 40)],
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(field, 0..8),
    )
        .prop_map(|(causal, space, derived, bidirectional, fields)| {
            let mode = if causal {
                DeliveryMode::Causal
            } else {
                DeliveryMode::Weak
            };
            let config = SynapseConfig::new("pub")
                .mode(mode)
                .dep_space(DepSpace::new(space));
            let schema = if derived {
                ModelSchema::open("Leaf").inherits(&["Mid", "Root"])
            } else {
                ModelSchema::open("Flat")
            };
            let mut publication = Publication::model(schema.name.clone()).fields(&fields);
            if bidirectional {
                publication = publication.bidirectional();
            }
            (config, schema, publication)
        })
}

/// Read dependencies named inside a causal scope, so a message carries
/// several keys of different decimal lengths.
fn read_deps(n: usize) {
    let names: Vec<String> = (0..n).map(|i| format!("read-{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    add_read_deps(&names);
}

proptest! {
    /// A live create, update and destroy publish the bytes the marshalled
    /// record path built.
    #[test]
    fn a_live_write_encodes_like_the_marshalled_record(
        (config, schema, publication) in arb_setup(),
        attrs in arb_attrs(),
        changes in arb_attrs(),
        id in 1u64..1_000_000,
        reads in 0usize..5,
    ) {
        let model = schema.name.clone();
        let rig = rig(config, schema, publication);
        let orm = rig.node.orm().clone();
        with_scope(|| {
            read_deps(reads);
            let created = orm.create_with_id(&model, Id(id), attrs).unwrap();
            rig.expect(&[("create", created)]);
            let updated = orm.update(&model, Id(id), changes).unwrap();
            rig.expect(&[("update", updated)]);
            let destroyed = orm.destroy(&model, Id(id)).unwrap();
            rig.expect(&[("destroy", destroyed)]);
        });
    }

    /// A two- or three-write transaction publishes one combined message
    /// with the bytes the marshalled records built.
    #[test]
    fn a_transaction_encodes_like_the_marshalled_records(
        (config, schema, publication) in arb_setup(),
        rows in prop::collection::vec(arb_attrs(), 2..4),
        reads in 0usize..5,
    ) {
        let model = schema.name.clone();
        let rig = rig(config, schema, publication);
        let orm = rig.node.orm().clone();
        let written = with_scope(|| {
            read_deps(reads);
            rig.node.transaction(|| {
                let mut written = Vec::new();
                for (i, attrs) in rows.into_iter().enumerate() {
                    // The last write updates the first row again.
                    let record = if i == 2 {
                        ("update", orm.update(&model, Id(1), attrs).unwrap())
                    } else {
                        ("create", orm.create_with_id(&model, Id(i as u64 + 1), attrs).unwrap())
                    };
                    written.push(record);
                }
                written
            })
        })
        .0;
        rig.expect(&written);
    }
}

/// Names that share a key leave one entry for it: the bump's last value,
/// ahead of an external stamp — what the map the bump once filled kept.
#[test]
fn colliding_dependencies_keep_the_last_bump() {
    let config = SynapseConfig::new("pub")
        .mode(DeliveryMode::Causal)
        .dep_space(DepSpace::new(1));
    let publication = Publication::model("Post").fields(&["body"]);
    let rig = rig(config, ModelSchema::open("Post"), publication);
    with_user_scope(DepName::object("pub", "User", Id(1)), || {
        add_read_deps(&["elsewhere"]);
        let attrs = Value::Map(BTreeMap::new());
        rig.node.orm().create_with_id("Post", Id(1), attrs).unwrap();
    });
    let sent = rig.raw.pop(Duration::from_secs(1)).expect("published");
    let sent = WriteMessage::decode(&sent.payload).unwrap();
    // Post#1 and User#1 both bump key 0 (ops 0 → 1 → 2, reported as 0
    // and then 1); the external read of it would stamp 0.
    assert_eq!(sent.dep_list(), vec![(0, 1)]);
}

/// An update reads no row first, so a missing row is the engine's empty
/// result inside `around_write`: the update returns `RecordNotFound`, and
/// the failed write bumps no version and enqueues nothing.
#[test]
fn an_update_of_a_missing_row_bumps_and_publishes_nothing() {
    let config = SynapseConfig::new("pub").mode(DeliveryMode::Causal);
    let publication = Publication::model("Post").fields(&["body"]);
    let rig = rig(config, ModelSchema::open("Post"), publication);
    let orm = rig.node.orm();
    let body = |text: &str| Value::Map(BTreeMap::from([("body".to_owned(), Value::from(text))]));
    orm.create_with_id("Post", Id(1), body("x")).unwrap();
    rig.raw
        .pop(Duration::from_secs(1))
        .expect("the create is published");
    let key = |id| {
        let name = DepName::object("pub", "Post", Id(id));
        rig.node.config().dep_space.key(&name)
    };
    let state = || {
        let store = rig.node.pub_store();
        (
            store.latest_version(key(1)).unwrap(),
            store.latest_version(key(404)).unwrap(),
            rig.node.publisher_stats().messages_published,
        )
    };
    let before = state();
    let err = orm.update("Post", Id(404), body("y")).unwrap_err();
    assert!(
        matches!(err, synapse_orm::OrmError::RecordNotFound { .. }),
        "{err:?}"
    );
    assert_eq!(state(), before, "no version moved, no message went out");
    assert!(rig.raw.pop(Duration::from_millis(100)).is_none());
    assert_eq!(orm.count("Post").unwrap(), 1, "and no row was made");
}

/// A virtual getter that itself publishes runs inside the outer publish's
/// encode: both messages arrive whole, the getter's first.
#[test]
fn a_getter_that_publishes_during_the_outer_publish() {
    let schema = ModelSchema::open("Post");
    let publication = Publication::model("Post").fields(&["body", "echo"]);
    let rig = rig(SynapseConfig::new("pub"), schema, publication);
    let orm = rig.node.orm().clone();
    orm.define_model(ModelSchema::open("Log")).unwrap();
    rig.node
        .publish(Publication::model("Log").fields(&["of"]))
        .unwrap();
    orm.virtual_getter("Post", "echo", |orm, post| {
        let attrs = BTreeMap::from([("of".to_owned(), Value::Int(post.id.raw() as i64))]);
        let log = orm
            .create_with_id("Log", post.id, Value::Map(attrs))
            .unwrap();
        Value::Int(log.id.raw() as i64)
    });
    let attrs = BTreeMap::from([("body".to_owned(), Value::from("x"))]);
    orm.create_with_id("Post", Id(7), Value::Map(attrs))
        .unwrap();

    let mut sent = Vec::new();
    while let Some(d) = rig.raw.pop(Duration::from_millis(200)) {
        sent.push(WriteMessage::decode(&d.payload).expect("a whole message"));
    }
    let ops: Vec<(String, Id, BTreeMap<String, Value>)> = sent
        .into_iter()
        .flat_map(|m| m.operations)
        .map(|op| (op.model().to_owned(), op.id, op.attributes))
        .collect();
    let log = BTreeMap::from([("of".to_owned(), Value::Int(7))]);
    let post = BTreeMap::from([
        ("body".to_owned(), Value::from("x")),
        ("echo".to_owned(), Value::Int(7)),
    ]);
    assert_eq!(
        ops,
        vec![
            ("Log".to_owned(), Id(7), log),
            ("Post".to_owned(), Id(7), post)
        ]
    );
}

/// Outside a transaction the four publisher stages tile the publisher's
/// time: their sums equal the scopes' `synapse_nanos`.
#[test]
fn publisher_stages_sum_to_the_scope_time() {
    for mode in [DeliveryMode::Weak, DeliveryMode::Causal] {
        let schema = ModelSchema::open("Post");
        let publication = Publication::model("Post").fields(&["body"]);
        let rig = rig(SynapseConfig::new("pub").mode(mode), schema, publication);
        let orm = rig.node.orm().clone();
        let mut scoped = 0;
        for i in 1..=300 {
            let attrs = BTreeMap::from([("body".to_owned(), Value::from("x"))]);
            let ((), stats) = with_scope(|| {
                read_deps(2);
                orm.create_with_id("Post", Id(i), Value::Map(attrs))
                    .unwrap();
            });
            assert_eq!(stats.messages, 1);
            scoped += stats.synapse_nanos;
        }
        let pipeline = rig.node.telemetry().pipeline();
        let stages = [
            Stage::Intercept,
            Stage::DepCompute,
            Stage::WireEncode,
            Stage::BrokerEnqueue,
        ];
        let slice: ModeSlice = mode.slice();
        for stage in stages {
            assert_eq!(pipeline.histogram(slice, stage).count(), 300, "{stage:?}");
        }
        let staged: u64 = stages
            .iter()
            .map(|s| pipeline.histogram(slice, *s).sum())
            .sum();
        assert_eq!(staged, scoped, "{mode:?}");
    }
}

use crate::api::{Publication, Subscription};
use crate::bootstrap::marker::BOOTSTRAP_EXCHANGE;
use crate::config::SynapseConfig;
use crate::deps::DepName;
use crate::message::{Operation, WriteMessage};
use crate::node::Ecosystem;
use crate::publisher::Publisher;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use synapse_db::LatencyModel;
use synapse_model::{Id, ModelSchema, Value};
use synapse_orm::adapters::MongoidAdapter;

/// A chunk's copy messages carry the bytes the marshalled-record path
/// built: published fields only, a getter's value, explicit nulls, the
/// type chain, the marker dependency and, for a bidirectional model, the
/// vector.
#[test]
fn a_chunk_copy_encodes_like_the_marshalled_record() {
    for bidirectional in [false, true] {
        let eco = Ecosystem::new();
        let adapter = || Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off()));
        let publisher = eco.add_node(SynapseConfig::new("pub"), adapter());
        let subscriber = eco.add_node(SynapseConfig::new("sub"), adapter());
        let schema = ModelSchema::open("Leaf").inherits(&["Root"]);
        publisher.orm().define_model(schema.clone()).unwrap();
        subscriber.orm().define_model(schema).unwrap();
        publisher
            .orm()
            .virtual_getter("Leaf", "shout", |_, r| match r.get("name") {
                Value::Str(s) => Value::from(s.to_uppercase()),
                _ => Value::Null,
            });
        let mut publication = Publication::model("Leaf").fields(&["tags", "shout", "name", "name"]);
        if bidirectional {
            publication = publication.bidirectional();
        }
        let raw_publication = publication.clone();
        publisher.publish(publication).unwrap();
        subscriber
            .subscribe(Subscription::model("Leaf", "pub").fields(&["name", "tags", "shout"]))
            .unwrap();
        let rows = [
            (
                7,
                BTreeMap::from([
                    ("name", Value::from("a \"q\"\n")),
                    ("secret", Value::Int(1)),
                ]),
            ),
            (
                42,
                BTreeMap::from([("tags", Value::Array(vec![Value::Null, Value::from("é")]))]),
            ),
            (1234, BTreeMap::from([("name", Value::Null)])),
        ];
        for (id, attrs) in rows {
            let attrs = attrs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
            publisher
                .orm()
                .create_with_id("Leaf", Id(id), Value::Map(attrs))
                .unwrap();
        }

        let registered = publisher.publications.read()["Leaf"].clone();
        let watermark = DepName::bootstrap_watermark("pub", "Leaf").identity();
        subscriber
            .copy_chunk(&publisher, "Leaf", &registered, watermark, 0, 1, 0, 0, true)
            .unwrap()
            .expect("a chunk was copied");

        let queue = subscriber.broker.consumer("sub").unwrap();
        let mut copies = 0;
        while let Some(d) = queue.pop(Duration::from_millis(100)) {
            if &*d.exchange != BOOTSTRAP_EXCHANGE {
                continue;
            }
            copies += 1;
            let sent = WriteMessage::decode(&d.payload).unwrap();
            let id = sent.operations[0].id;
            let row = publisher.orm().find("Leaf", id).unwrap().unwrap();
            let marshalled = Publisher::marshal(publisher.orm(), &raw_publication, &row);
            let oracle = WriteMessage {
                app: "pub".to_owned(),
                operations: vec![Operation::from_record("create", marshalled)],
                dependencies: sent.dependencies,
                published_at: 0,
                generation: 1,
                vectors: sent.vectors,
            };
            assert_eq!(oracle.vectors.is_empty(), !bidirectional);
            assert_eq!(*d.payload, oracle.encode());
        }
        assert_eq!(copies, 3);
    }
}

use crate::api::Publication;
use crate::config::SynapseConfig;
use crate::message::{Operation, WriteMessage};
use crate::node::Ecosystem;
use crate::publisher::Publisher;
use std::collections::BTreeMap;
use std::sync::Arc;
use synapse_db::LatencyModel;
use synapse_model::{Id, ModelSchema, Value};
use synapse_orm::adapters::MongoidAdapter;

/// A chunk's copy messages carry the bytes the marshalled-record path
/// built: published fields only, a getter's value, explicit nulls, the
/// type chain, the marker dependency and, for a bidirectional model, the
/// LWW stamp.
#[test]
fn a_chunk_copy_encodes_like_the_marshalled_record() {
    for bidirectional in [false, true] {
        let eco = Ecosystem::new();
        let adapter = Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off()));
        let publisher = eco.add_node(SynapseConfig::new("pub"), adapter);
        let schema = ModelSchema::open("Leaf").inherits(&["Root"]);
        publisher.orm().define_model(schema).unwrap();
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
        let chunk = publisher
            .chunk_copies("Leaf", &registered, 0)
            .unwrap()
            .expect("a chunk was selected");
        assert_eq!(chunk.last, 1234);
        assert_eq!(chunk.copies.len(), 3);
        for copy in &chunk.copies {
            let sent = WriteMessage::decode(copy).unwrap();
            let id = sent.operations[0].id;
            let row = publisher.orm().find("Leaf", id).unwrap().unwrap();
            let marshalled = Publisher::marshal(publisher.orm(), &raw_publication, &row);
            let oracle = WriteMessage {
                app: "pub".to_owned(),
                operations: vec![Operation::from_record("create", marshalled)],
                dependencies: sent.dependencies,
                published_at: 0,
                generation: 1,
                stamps: sent.stamps,
            };
            assert_eq!(oracle.stamps.is_empty(), !bidirectional);
            assert_eq!(**copy, oracle.encode());
        }
    }
}

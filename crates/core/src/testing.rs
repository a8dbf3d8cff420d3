//! The testing framework (§4.5).
//!
//! Synapse "simplifies integration testing by reusing model factories from
//! publishers on subscribers": a publisher exports factories (sample-data
//! builders) for its published models, and subscriber test suites replay
//! factory-built objects as if they had arrived from production — Synapse
//! "will emulate the payloads that would be received by the subscriber in a
//! production environment." The static publish/subscribe checks live in
//! [`crate::Ecosystem::connect`].

use crate::api::Publication;
use crate::message::{now_micros, Operation, WriteMessage};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use synapse_broker::Delivery;
use synapse_model::{Id, Record, Value};

/// A sample-data builder for one model: given a sequence number, returns
/// the attribute map of a plausible object (the paper's factory files,
/// in the style of `factory_girl`).
pub type FactoryFn = Arc<dyn Fn(u64) -> Value + Send + Sync>;

/// The factory file a publisher exports alongside its publisher file.
#[derive(Default)]
pub struct FactorySet {
    factories: RwLock<HashMap<String, FactoryFn>>,
}

impl FactorySet {
    /// Creates an empty factory set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a factory for `model`.
    pub fn define<F>(&self, model: &str, f: F)
    where
        F: Fn(u64) -> Value + Send + Sync + 'static,
    {
        self.factories.write().insert(model.to_owned(), Arc::new(f));
    }

    /// Builds the `seq`-th sample record for `model`.
    pub fn build(&self, model: &str, seq: u64) -> Option<Record> {
        let f = self.factories.read().get(model)?.clone();
        let attrs = match f(seq) {
            Value::Map(m) => m,
            _ => BTreeMap::new(),
        };
        Some(Record::with_attrs(model.to_owned(), Id(seq), attrs))
    }
}

/// Builds the write message a production publisher would emit for
/// `record` (projection through `publication`, no dependencies, generation 1).
pub fn emulate_message(
    app: &str,
    publication: &Publication,
    operation: &str,
    record: &Record,
) -> WriteMessage {
    let projected: Vec<&str> = publication.fields.iter().map(String::as_str).collect();
    WriteMessage {
        app: app.to_owned(),
        operations: vec![Operation::from_record(
            operation,
            record.project(&projected),
        )],
        dependencies: BTreeMap::new(),
        published_at: now_micros(),
        generation: 1,
        stamps: BTreeMap::new(),
    }
}

/// Wraps a message as a broker delivery, for feeding directly into
/// [`crate::subscriber::Subscriber::process`] from a test.
pub fn emulate_delivery(msg: &WriteMessage) -> Delivery {
    Delivery {
        tag: 0,
        exchange: msg.app.as_str().into(),
        payload: msg.encode().into(),
        redelivered: false,
        // Emulated deliveries never traversed the broker, so they carry no
        // stamps and are excluded from visibility-latency telemetry.
        origin_nanos: 0,
        enqueued_nanos: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synapse_model::vmap;

    #[test]
    fn factories_build_sequenced_records() {
        let factories = FactorySet::new();
        factories.define("User", |i| vmap! { "name" => format!("user-{i}") });
        let u = factories.build("User", 3).unwrap();
        assert_eq!(u.id, Id(3));
        assert_eq!(u.get("name").as_str(), Some("user-3"));
        assert!(factories.build("Ghost", 1).is_none());
    }

    #[test]
    fn emulated_messages_project_published_fields_only() {
        let publication = Publication::model("User").field("name");
        let record = Record::new("User", Id(9))
            .with("name", "alice")
            .with("secret", "hunter2");
        let msg = emulate_message("pub1", &publication, "create", &record);
        assert_eq!(msg.operations.len(), 1);
        let op = &msg.operations[0];
        assert_eq!(op.attributes.get("name"), Some(&Value::from("alice")));
        assert!(!op.attributes.contains_key("secret"));
        let delivery = emulate_delivery(&msg);
        assert_eq!(delivery.exchange, "pub1");
        assert!(WriteMessage::decode(&delivery.payload).is_ok());
    }
}

//! ActiveRecord adapter: the SQL family (PostgreSQL, MySQL, Oracle).
//!
//! Vendor differences handled here:
//!
//! * **Strict schemas** — `define_model` installs the column list and
//!   secondary indexes on the relational engine, so writes of undeclared
//!   columns fail as they would in SQL.
//! * **No array/document types** — array and map attributes are flattened
//!   to their JSON text on write (the paper's Example 3, Sub3a: "flatten
//!   the array and store it as text"). A field declared with
//!   [`ActiveRecordAdapter::serialize_field`] (Rails's `serialize
//!   :interests`) stores every value as its JSON text, scalars too, and
//!   reads it back as the value that was written.
//! * **`RETURNING *`** comes from the engine profile: PostgreSQL and Oracle
//!   echo written rows; MySQL takes the inherited read-back path.

use crate::adapter::Adapter;
use crate::error::OrmError;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use synapse_db::relational::RelationalDb;
use synapse_db::{profiles, Engine, LatencyModel, Row};
use synapse_model::{wire, Id, ModelSchema, Record, Value};

/// The SQL adapter. See the module docs.
pub struct ActiveRecordAdapter {
    engine: Arc<RelationalDb>,
    /// Serialized fields by model: stored as JSON text, decoded on read.
    serialized: RwLock<HashMap<String, HashSet<String>>>,
}

impl ActiveRecordAdapter {
    /// Creates the adapter over a fresh engine for `vendor`
    /// (`postgresql`, `mysql`, or `oracle`).
    ///
    /// # Panics
    ///
    /// Panics on a non-SQL vendor name.
    pub fn new(vendor: &str, latency: LatencyModel) -> Self {
        let engine = match vendor {
            "postgresql" => profiles::postgresql(latency),
            "mysql" => profiles::mysql(latency),
            "oracle" => profiles::oracle(latency),
            other => panic!("{other} is not a SQL vendor"),
        };
        Self::over(Arc::new(engine))
    }

    /// Creates the adapter over an existing engine (shared with tests).
    pub fn over(engine: Arc<RelationalDb>) -> Self {
        ActiveRecordAdapter {
            engine,
            serialized: RwLock::new(HashMap::new()),
        }
    }

    /// Declares `model.field` as serialized: its values round-trip through
    /// their JSON text (Rails's `serialize`).
    pub fn serialize_field(&self, model: &str, field: &str) {
        self.serialized
            .write()
            .entry(model.to_owned())
            .or_default()
            .insert(field.to_owned());
    }

    /// Access to the concrete engine (tests, stats).
    pub fn relational(&self) -> &RelationalDb {
        &self.engine
    }
}

impl Adapter for ActiveRecordAdapter {
    fn orm_name(&self) -> &'static str {
        "ActiveRecord"
    }

    fn engine(&self) -> &dyn Engine {
        &*self.engine
    }

    fn define_model(&self, schema: &ModelSchema) -> Result<(), OrmError> {
        let table = self.table_for(&schema.name);
        let columns: Vec<&str> = schema.fields.keys().map(String::as_str).collect();
        self.engine.define_columns(&table, &columns);
        for field in schema.fields.values() {
            if field.indexed {
                self.engine.create_index(&table, &field.name);
            }
        }
        Ok(())
    }

    fn encode_attrs(&self, schema: &ModelSchema, mut row: Row) -> Row {
        let serialized = self.serialized.read();
        let serialized = serialized.get(&schema.name);
        for (k, v) in row.iter_mut() {
            // SQL has no array/document columns: a structured value, and
            // every value of a serialized field, is stored as JSON text.
            if matches!(v, Value::Array(_) | Value::Map(_))
                || serialized.is_some_and(|fields| fields.contains(k))
            {
                *v = Value::Str(wire::encode(v));
            }
        }
        row
    }

    fn decode_row(&self, schema: &ModelSchema, id: Id, mut row: Row) -> Record {
        if let Some(fields) = self.serialized.read().get(&schema.name) {
            for (_, v) in row.iter_mut().filter(|(k, _)| fields.contains(*k)) {
                let decoded = match &*v {
                    Value::Str(text) => wire::decode(text).ok(),
                    _ => None,
                };
                if let Some(decoded) = decoded {
                    *v = decoded;
                }
            }
        }
        let mut record = Record::with_attrs(schema.name.clone(), id, row);
        record.types.extend(schema.ancestors.iter().cloned());
        record
    }
}

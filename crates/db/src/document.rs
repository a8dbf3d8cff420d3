//! Document engine: schemaless collections of nested documents.
//!
//! Stands in for MongoDB, TokuMX, and RethinkDB. Unlike the relational
//! engine it accepts any attribute on any document (including arrays and
//! embedded maps — the MongoDB features Example 3 of the paper leans on),
//! offers only single-document atomicity, and echoes written documents back
//! (the findAndModify-style behaviour §4.1 relies upon).

use crate::engine::{Capabilities, Engine, EngineStats};
use crate::error::DbError;
use crate::latency::LatencyModel;
use crate::query::{Query, QueryResult};
use crate::table::{namespace, OpMeter, RowTable};
use parking_lot::Mutex;
use std::collections::HashMap;

/// The document engine. See the module docs.
pub struct DocumentDb {
    caps: Capabilities,
    meter: OpMeter,
    collections: Mutex<HashMap<String, RowTable>>,
}

impl DocumentDb {
    /// Creates an engine with the given vendor capabilities and latency.
    pub fn new(caps: Capabilities, latency: LatencyModel) -> Self {
        DocumentDb {
            caps,
            meter: OpMeter::new(latency),
            collections: Mutex::new(HashMap::new()),
        }
    }
}

impl Engine for DocumentDb {
    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn execute(&self, q: Query) -> Result<QueryResult, DbError> {
        self.meter.charge(&q);
        let mut colls = self.collections.lock();
        match q {
            Query::CreateTable { table } => {
                namespace(&mut colls, &table);
                Ok(QueryResult::Unit)
            }
            Query::DropTable { table } => {
                colls.remove(&table);
                Ok(QueryResult::Unit)
            }
            Query::Insert { table, id, row } => {
                // Document stores auto-create collections on first write.
                let echo = namespace(&mut colls, &table)
                    .insert(&table, id, row)?
                    .clone();
                Ok(QueryResult::Rows(vec![(id, echo)]))
            }
            Query::Update {
                table,
                filter,
                set,
                unset,
            } => {
                let coll = namespace(&mut colls, &table);
                let mut written = Vec::new();
                coll.update(&coll.ids(&filter), set, &unset, false, |id, _, new| {
                    written.push((id, new.clone()))
                });
                Ok(QueryResult::Rows(written))
            }
            Query::Delete { table, filter } => {
                let coll = namespace(&mut colls, &table);
                Ok(QueryResult::Rows(coll.delete(&coll.ids(&filter))))
            }
            // Reading a collection that never existed returns empty, as
            // MongoDB does.
            Query::Select {
                table,
                filter,
                order,
                limit,
            } => Ok(QueryResult::Rows(
                colls
                    .get(&table)
                    .map_or_else(Vec::new, |coll| coll.select(&filter, &order, limit)),
            )),
            Query::Count { table, filter } => Ok(QueryResult::Count(
                colls.get(&table).map_or(0, |coll| coll.count(&filter)),
            )),
            Query::Search { .. } | Query::Aggregate { .. } => {
                Err(DbError::Unsupported("full-text search on document engine"))
            }
            Query::AddEdge { .. } | Query::RemoveEdge { .. } | Query::Traverse { .. } => {
                Err(DbError::Unsupported("graph queries on document engine"))
            }
        }
    }

    fn stats(&self) -> EngineStats {
        let colls = self.collections.lock();
        self.meter.stats(colls.values().flat_map(RowTable::rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use crate::query::{Filter, Row};
    use synapse_model::{varray, Id, Value};

    fn db() -> DocumentDb {
        profiles::mongodb(LatencyModel::off())
    }

    fn doc(pairs: &[(&str, Value)]) -> Row {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect()
    }

    #[test]
    fn collections_auto_create_on_insert() {
        let db = db();
        let res = db
            .execute(Query::Insert {
                table: "users".into(),
                id: Id(1),
                row: doc(&[("name", "alice".into())]),
            })
            .unwrap();
        assert!(matches!(res, QueryResult::Rows(_)));
    }

    #[test]
    fn schemaless_documents_accept_heterogeneous_shapes() {
        let db = db();
        db.execute(Query::Insert {
            table: "u".into(),
            id: Id(1),
            row: doc(&[("interests", varray!["cats", "dogs"])]),
        })
        .unwrap();
        db.execute(Query::Insert {
            table: "u".into(),
            id: Id(2),
            row: doc(&[("totally_different", 1.into())]),
        })
        .unwrap();
        let n = db
            .execute(Query::Count {
                table: "u".into(),
                filter: Filter::All,
            })
            .unwrap()
            .into_count()
            .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn update_sets_and_unsets_fields() {
        let db = db();
        db.execute(Query::Insert {
            table: "u".into(),
            id: Id(1),
            row: doc(&[("a", 1.into()), ("b", 2.into())]),
        })
        .unwrap();
        let res = db
            .execute(Query::Update {
                table: "u".into(),
                filter: Filter::ById(Id(1)),
                set: doc(&[("a", 10.into())]),
                unset: vec!["b".into()],
            })
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(res[0].1.get("a"), Some(&Value::Int(10)));
        assert!(!res[0].1.contains_key("b"));
    }

    #[test]
    fn select_on_unknown_collection_is_empty() {
        let db = db();
        let rows = db
            .execute(Query::Select {
                table: "nope".into(),
                filter: Filter::All,
                order: None,
                limit: None,
            })
            .unwrap()
            .into_rows()
            .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn delete_returns_removed_documents() {
        let db = db();
        for i in 1..=3u64 {
            db.execute(Query::Insert {
                table: "u".into(),
                id: Id(i),
                row: doc(&[("g", Value::Int((i % 2) as i64))]),
            })
            .unwrap();
        }
        let removed = db
            .execute(Query::Delete {
                table: "u".into(),
                filter: Filter::Eq("g".into(), Value::Int(1)),
            })
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(removed.len(), 2);
        assert_eq!(db.stats().rows, 1);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let db = db();
        db.execute(Query::Insert {
            table: "u".into(),
            id: Id(1),
            row: Row::new(),
        })
        .unwrap();
        assert!(matches!(
            db.execute(Query::Insert {
                table: "u".into(),
                id: Id(1),
                row: Row::new(),
            }),
            Err(DbError::DuplicateKey { .. })
        ));
    }
}

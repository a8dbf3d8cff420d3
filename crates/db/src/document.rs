//! Document engine: schemaless collections of nested documents.
//!
//! Stands in for MongoDB, TokuMX, and RethinkDB. Unlike the relational
//! engine it accepts any attribute on any document (including arrays and
//! embedded maps — the MongoDB features Example 3 of the paper leans on),
//! offers only single-document atomicity, and echoes written documents back
//! (the findAndModify-style behaviour §4.1 relies upon).

use crate::engine::{Capabilities, Engine, EngineStats};
use crate::error::DbError;
use crate::faults::DbFaults;
use crate::latency::LatencyModel;
use crate::query::{Query, QueryResult};
use crate::table::{apply_changes, namespace, OpMeter, RowTable};
use parking_lot::Mutex;
use std::collections::HashMap;

/// The document engine. See the module docs.
pub struct DocumentDb {
    caps: Capabilities,
    meter: OpMeter,
    collections: Mutex<HashMap<String, RowTable>>,
    /// Fault panel: a write-concern downgrade acks inserts/updates
    /// without applying them (the MongoDB w=0 fire-and-forget posture,
    /// where a success reply only means "the server took the message").
    faults: DbFaults,
}

impl DocumentDb {
    /// Creates an engine with the given vendor capabilities and latency.
    pub fn new(caps: Capabilities, latency: LatencyModel) -> Self {
        DocumentDb {
            caps,
            meter: OpMeter::new(latency),
            collections: Mutex::new(HashMap::new()),
            faults: DbFaults::new(),
        }
    }

    /// The engine's fault panel (shared state with every clone).
    pub fn faults(&self) -> DbFaults {
        self.faults.clone()
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
                // Write-concern downgrade: ack the insert without
                // applying it — with w=0 the reply carries no duplicate
                // check either, the client just hears "ok".
                let echo = if self.faults.gate_write_concern() {
                    row
                } else {
                    // Document stores auto-create collections on first write.
                    namespace(&mut colls, &table)
                        .insert(&table, id, row)?
                        .clone()
                };
                Ok(QueryResult::Rows(vec![(id, echo)]))
            }
            Query::Update {
                table,
                filter,
                set,
                unset,
            } => {
                let coll = namespace(&mut colls, &table);
                // Write-concern downgrade: echo what the update *would*
                // have written without persisting any of it.
                let written = if self.faults.gate_write_concern() {
                    let would_write = coll.matching(&filter).map(|(id, doc)| {
                        let mut image = doc.clone();
                        apply_changes(&mut image, set.clone(), &unset);
                        (id, image)
                    });
                    would_write.collect()
                } else {
                    let mut written = Vec::new();
                    coll.update(&coll.ids(&filter), set, &unset, false, |id, _, new| {
                        written.push((id, new.clone()))
                    });
                    written
                };
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
    fn write_concern_downgrade_acks_without_applying() {
        let db = db();
        db.execute(Query::Insert {
            table: "u".into(),
            id: Id(1),
            row: doc(&[("a", 1.into())]),
        })
        .unwrap();
        db.faults().inject_write_concern_downgrade(2);
        // Downgraded insert: success reply, nothing stored.
        let res = db
            .execute(Query::Insert {
                table: "u".into(),
                id: Id(2),
                row: doc(&[("a", 2.into())]),
            })
            .unwrap();
        assert!(matches!(res, QueryResult::Rows(ref rows) if rows.len() == 1));
        // Downgraded update: echoes the would-be image, persists nothing.
        let res = db
            .execute(Query::Update {
                table: "u".into(),
                filter: Filter::ById(Id(1)),
                set: doc(&[("a", 99.into())]),
                unset: vec![],
            })
            .unwrap();
        match res {
            QueryResult::Rows(rows) => assert_eq!(rows[0].1["a"], Value::Int(99)),
            other => panic!("unexpected {other:?}"),
        }
        // The window expired: reads see only the pre-downgrade state.
        let n = db
            .execute(Query::Count {
                table: "u".into(),
                filter: Filter::All,
            })
            .unwrap()
            .into_count()
            .unwrap();
        assert_eq!(n, 1, "downgraded insert was never applied");
        let rows = db
            .execute(Query::Select {
                table: "u".into(),
                filter: Filter::ById(Id(1)),
                order: None,
                limit: None,
            })
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows[0].1["a"], Value::Int(1), "downgraded update was lost");
        assert_eq!(db.faults().stats().writes_ack_downgraded, 2);
        assert!(!db.faults().is_armed());
    }

    #[test]
    fn write_concern_downgrade_schedule_is_deterministic() {
        // Same write schedule twice: identical surviving documents.
        let observed: Vec<u64> = (0..2)
            .map(|_| {
                let db = db();
                db.faults().inject_write_concern_downgrade(2);
                for i in 0..5u64 {
                    db.execute(Query::Insert {
                        table: "u".into(),
                        id: Id(i + 1),
                        row: doc(&[("v", Value::Int(i as i64))]),
                    })
                    .unwrap();
                }
                db.execute(Query::Count {
                    table: "u".into(),
                    filter: Filter::All,
                })
                .unwrap()
                .into_count()
                .unwrap()
            })
            .collect();
        assert_eq!(observed[0], observed[1]);
        assert_eq!(observed[0], 3, "exactly the first two inserts were dropped");
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

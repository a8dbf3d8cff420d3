//! The DB-less engine behind ephemerals and observers.
//!
//! The paper's *ephemeral* models are published but never persisted, and
//! *observer* models are subscribed but never persisted (§3.1) — e.g. a
//! front-end publishing raw click events straight to analytics subscribers,
//! or a mailer that only reacts to updates. This engine accepts every CRUD
//! query, stores nothing, and echoes written rows back so the publishing
//! pipeline sees the same shapes as with a real store.

use crate::engine::{Capabilities, Engine, EngineStats};
use crate::error::DbError;
use crate::profiles;
use crate::query::{Query, QueryResult, Row};
use crate::table::OpMeter;

/// The no-op engine. See the module docs.
pub struct EphemeralDb {
    caps: Capabilities,
    meter: OpMeter,
}

impl EphemeralDb {
    /// Creates the engine (there is nothing to configure).
    pub fn new() -> Self {
        let (caps, latency) = profiles::profile("ephemeral");
        EphemeralDb {
            caps,
            meter: OpMeter::new(latency),
        }
    }
}

impl Default for EphemeralDb {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine for EphemeralDb {
    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn execute(&self, q: Query) -> Result<QueryResult, DbError> {
        self.meter.charge(&q);
        match q {
            Query::Insert { id, row, .. } => Ok(QueryResult::Rows(vec![(id, row)])),
            // Nothing is stored, so updates/deletes affect nothing and all
            // reads are empty.
            Query::Update { .. } | Query::Delete { .. } => Ok(QueryResult::Rows(Vec::new())),
            Query::Select { .. } => Ok(QueryResult::Rows(Vec::new())),
            Query::Count { .. } => Ok(QueryResult::Count(0)),
            Query::CreateTable { .. } | Query::DropTable { .. } => Ok(QueryResult::Unit),
            _ => Err(DbError::Unsupported("query kind on ephemeral engine")),
        }
    }

    fn stats(&self) -> EngineStats {
        self.meter.stats(None::<&Row>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Filter;
    use synapse_model::{Id, Value};

    #[test]
    fn inserts_echo_but_store_nothing() {
        let db = EphemeralDb::new();
        let mut row = Row::new();
        row.insert("event".to_owned(), Value::from("click"));
        let res = db
            .execute(Query::Insert {
                table: "events".into(),
                id: Id(1),
                row: row.clone(),
            })
            .unwrap();
        assert_eq!(res, QueryResult::Rows(vec![(Id(1), row)]));
        let rows = db
            .execute(Query::Select {
                table: "events".into(),
                filter: Filter::All,
                order: None,
                limit: None,
            })
            .unwrap()
            .into_rows()
            .unwrap();
        assert!(rows.is_empty());
        assert_eq!(db.stats().rows, 0);
        assert_eq!(db.stats().writes, 1);
    }

    #[test]
    fn repeated_ids_never_conflict() {
        let db = EphemeralDb::new();
        for _ in 0..3 {
            db.execute(Query::Insert {
                table: "events".into(),
                id: Id(1),
                row: Row::new(),
            })
            .unwrap();
        }
    }
}

//! The query AST spoken by every engine.
//!
//! The original Synapse intercepts vendor wire protocols (SQL text, MongoDB
//! commands, CQL). The reproduction replaces all of those with one typed AST
//! so that the interception point — and the per-vendor differences around
//! `RETURNING *` — stay visible while parsing details stay out of the way.

use crate::error::DbError;
use std::collections::BTreeMap;
use synapse_model::{Id, Value};

/// A row/document payload: attribute values by name (the primary key is
/// carried separately).
pub type Row = BTreeMap<String, Value>;

/// Row-selection predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    /// Every row.
    All,
    /// The row with this primary key.
    ById(Id),
    /// Rows whose primary key is in the set.
    IdIn(Vec<Id>),
    /// Rows whose primary key is strictly greater than this one. Paired
    /// with an ascending-id order and a limit this pages a table in
    /// primary-key chunks (bootstrap's chunked object copy).
    IdAfter(Id),
    /// Rows where `field == value`.
    Eq(String, Value),
    /// Conjunction.
    And(Vec<Filter>),
}

impl Filter {
    /// Evaluates the filter against one row.
    pub fn matches(&self, id: Id, row: &Row) -> bool {
        match self {
            Filter::All => true,
            Filter::ById(want) => id == *want,
            Filter::IdIn(ids) => ids.contains(&id),
            Filter::IdAfter(after) => id > *after,
            Filter::Eq(field, want) => row.get(field).map(|v| v == want).unwrap_or(want.is_null()),
            Filter::And(fs) => fs.iter().all(|f| f.matches(id, row)),
        }
    }
}

/// Sort order for `Select`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderBy {
    /// Field to sort on (`"id"` sorts on the primary key).
    pub field: String,
    /// Sort direction.
    pub ascending: bool,
}

/// One database query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Creates a table/collection/label namespace.
    CreateTable {
        /// Table name.
        table: String,
    },
    /// Drops a table and all its contents.
    DropTable {
        /// Table name.
        table: String,
    },
    /// Inserts a new row with an explicit primary key.
    Insert {
        /// Table name.
        table: String,
        /// Primary key (allocated by the ORM layer).
        id: Id,
        /// Row payload.
        row: Row,
    },
    /// Updates all rows matched by `filter`.
    Update {
        /// Table name.
        table: String,
        /// Which rows to update.
        filter: Filter,
        /// Fields to set.
        set: Row,
        /// Fields to remove (document stores).
        unset: Vec<String>,
    },
    /// Deletes all rows matched by `filter`.
    Delete {
        /// Table name.
        table: String,
        /// Which rows to delete.
        filter: Filter,
    },
    /// Reads rows.
    Select {
        /// Table name.
        table: String,
        /// Which rows to read.
        filter: Filter,
        /// Optional ordering.
        order: Option<OrderBy>,
        /// Optional row limit.
        limit: Option<usize>,
    },
    /// Counts rows (an aggregation — *not* a true dependency, §4.2).
    Count {
        /// Table name.
        table: String,
        /// Which rows to count.
        filter: Filter,
    },
    /// Full-text search over an analyzed field (search engines).
    Search {
        /// Table (index) name.
        table: String,
        /// Analyzed field to match against.
        field: String,
        /// Query text.
        text: String,
        /// Maximum hits.
        limit: usize,
    },
    /// Terms aggregation: bucket counts per distinct value (search engines).
    Aggregate {
        /// Table (index) name.
        table: String,
        /// Field to bucket on.
        field: String,
    },
    /// Adds an edge between two nodes (graph engines).
    AddEdge {
        /// Edge label, e.g. `friends`.
        label: String,
        /// Source node id (also the row table is implied by label config).
        from: Id,
        /// Target node id.
        to: Id,
    },
    /// Removes an edge (graph engines).
    RemoveEdge {
        /// Edge label.
        label: String,
        /// Source node id.
        from: Id,
        /// Target node id.
        to: Id,
    },
    /// Breadth-first traversal from a node (graph engines). Returns node ids
    /// reachable within `depth` hops, excluding the start node.
    Traverse {
        /// Edge label to follow.
        label: String,
        /// Start node id.
        from: Id,
        /// Maximum number of hops (≥ 1).
        depth: usize,
    },
}

impl Query {
    /// Returns the table this query touches, when it names one.
    pub fn table(&self) -> Option<&str> {
        match self {
            Query::CreateTable { table }
            | Query::DropTable { table }
            | Query::Insert { table, .. }
            | Query::Update { table, .. }
            | Query::Delete { table, .. }
            | Query::Select { table, .. }
            | Query::Count { table, .. }
            | Query::Search { table, .. }
            | Query::Aggregate { table, .. } => Some(table),
            _ => None,
        }
    }

    /// Returns `true` for queries that read data (DDL is neither a read
    /// nor a write for accounting purposes).
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Query::Select { .. }
                | Query::Count { .. }
                | Query::Search { .. }
                | Query::Aggregate { .. }
                | Query::Traverse { .. }
        )
    }

    /// Returns `true` for queries that modify data.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Query::Insert { .. }
                | Query::Update { .. }
                | Query::Delete { .. }
                | Query::AddEdge { .. }
                | Query::RemoveEdge { .. }
        )
    }
}

/// Result of executing a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// No payload (DDL, graph edge ops).
    Unit,
    /// Rows read by a `Select`, or written rows echoed back by engines with
    /// the `RETURNING *` capability.
    Rows(Vec<(Id, Row)>),
    /// Primary keys affected by a write on engines *without* `RETURNING *`
    /// (MySQL, Cassandra) — the interceptor must read the rows back itself.
    AffectedIds(Vec<Id>),
    /// Scalar count.
    Count(u64),
    /// Scored search hits, best first.
    SearchHits(Vec<(Id, f64)>),
    /// Terms-aggregation buckets: `(value, doc_count)`, largest first.
    Buckets(Vec<(Value, u64)>),
    /// Node ids reached by a traversal, in breadth-first order.
    Ids(Vec<Id>),
}

impl QueryResult {
    /// Extracts rows, failing if the result has a different shape.
    pub fn into_rows(self) -> Result<Vec<(Id, Row)>, DbError> {
        match self {
            QueryResult::Rows(rows) => Ok(rows),
            _ => Err(DbError::Unsupported("result is not rows")),
        }
    }

    /// Extracts the ids a write affected, regardless of `RETURNING` support.
    pub fn affected_ids(&self) -> Vec<Id> {
        match self {
            QueryResult::Rows(rows) => rows.iter().map(|(id, _)| *id).collect(),
            QueryResult::AffectedIds(ids) => ids.clone(),
            _ => Vec::new(),
        }
    }

    /// Extracts a count, failing if the result has a different shape.
    pub fn into_count(self) -> Result<u64, DbError> {
        match self {
            QueryResult::Count(n) => Ok(n),
            _ => Err(DbError::Unsupported("result is not a count")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synapse_model::vmap;

    fn row(name: &str) -> Row {
        match vmap! { "name" => name } {
            Value::Map(m) => m,
            _ => unreachable!(),
        }
    }

    use synapse_model::Value;

    #[test]
    fn filter_by_id_and_eq() {
        let r = row("alice");
        assert!(Filter::All.matches(Id(1), &r));
        assert!(Filter::ById(Id(1)).matches(Id(1), &r));
        assert!(!Filter::ById(Id(2)).matches(Id(1), &r));
        assert!(Filter::Eq("name".into(), "alice".into()).matches(Id(1), &r));
        assert!(!Filter::Eq("name".into(), "bob".into()).matches(Id(1), &r));
    }

    #[test]
    fn eq_on_missing_field_matches_only_null() {
        let r = row("alice");
        assert!(Filter::Eq("ghost".into(), Value::Null).matches(Id(1), &r));
        assert!(!Filter::Eq("ghost".into(), "x".into()).matches(Id(1), &r));
    }

    #[test]
    fn id_after_is_a_strict_lower_bound_and_never_well_identified() {
        let r = row("alice");
        assert!(!Filter::IdAfter(Id(5)).matches(Id(4), &r));
        assert!(!Filter::IdAfter(Id(5)).matches(Id(5), &r), "strict bound");
        assert!(Filter::IdAfter(Id(5)).matches(Id(6), &r));
        let keys = crate::table::Keys::of(&Filter::IdAfter(Id(5)));
        assert_eq!(
            keys,
            crate::table::Keys::After(Id(5)),
            "a range, no pinned id"
        );
    }

    #[test]
    fn and_filter_requires_all() {
        let r = row("alice");
        let f = Filter::And(vec![
            Filter::ById(Id(1)),
            Filter::Eq("name".into(), "alice".into()),
        ]);
        assert!(f.matches(Id(1), &r));
        assert!(!f.matches(Id(2), &r));
    }

    #[test]
    fn query_classification() {
        let q = Query::Insert {
            table: "users".into(),
            id: Id(1),
            row: row("x"),
        };
        assert!(q.is_write());
        assert_eq!(q.table(), Some("users"));
        let s = Query::Select {
            table: "users".into(),
            filter: Filter::All,
            order: None,
            limit: None,
        };
        assert!(!s.is_write());
    }

    #[test]
    fn affected_ids_from_both_result_shapes() {
        let rows = QueryResult::Rows(vec![(Id(1), row("a")), (Id(2), row("b"))]);
        assert_eq!(rows.affected_ids(), vec![Id(1), Id(2)]);
        let ids = QueryResult::AffectedIds(vec![Id(3)]);
        assert_eq!(ids.affected_ids(), vec![Id(3)]);
    }
}

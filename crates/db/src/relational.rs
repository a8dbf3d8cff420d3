//! Relational engine: strict schemas and B-tree primary and secondary
//! indexes, every query auto-committed.
//!
//! This engine stands in for PostgreSQL, MySQL, and Oracle. The three
//! vendor profiles (see [`crate::profiles`]) differ where the paper says
//! they differ:
//!
//! * PostgreSQL and Oracle support `RETURNING *`, so write queries echo the
//!   written rows back ([`QueryResult::Rows`]);
//! * MySQL does not, so writes return only [`QueryResult::AffectedIds`] and
//!   Synapse's interceptor issues an additional read (§4.1: "for DBs without
//!   this feature we develop a protocol that involves performing an
//!   additional query").
//!
//! Each query runs to completion under the engine's one mutex. The ORM's
//! `transaction{}` groups writes into one message (DESIGN.md deviation 4);
//! it opens no engine transaction, so the engine offers none.

use crate::engine::{Capabilities, Engine, EngineStats};
use crate::error::DbError;
use crate::latency::LatencyModel;
use crate::query::{Filter, Query, QueryResult, Row};
use crate::table::{select, Keys, OpMeter, RowTable};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use synapse_model::{Id, Value};

#[derive(Debug, Default)]
struct Table {
    /// Primary B-tree: id → row.
    rows: RowTable,
    /// Declared columns; `None` until a schema is installed, in which case
    /// anything goes (tests and schemaless callers).
    columns: Option<BTreeSet<String>>,
    /// Secondary indexes: field → value → ids.
    indexes: HashMap<String, Index>,
}

impl Table {
    fn check_row(&self, table: &str, row: &Row) -> Result<(), DbError> {
        if let Some(cols) = &self.columns {
            for field in row.keys() {
                if !cols.contains(field) {
                    return Err(DbError::SchemaViolation(format!(
                        "column {table}.{field} does not exist"
                    )));
                }
            }
        }
        Ok(())
    }

    fn index_remove(&mut self, id: Id, row: &Row) {
        for (field, index) in &mut self.indexes {
            unpost(index, id, row.get(field));
        }
    }

    /// Where to look for a filter's rows: the keys it pins when it pins
    /// any, else a secondary index covering one of its equality terms, else
    /// whatever range the key rule leaves.
    fn candidates(&self, filter: &Filter) -> Keys {
        let keys = Keys::of(filter);
        if matches!(keys, Keys::One(_) | Keys::Ids(_)) {
            return keys;
        }
        let terms = match filter {
            Filter::And(terms) => terms.as_slice(),
            term => std::slice::from_ref(term),
        };
        let indexed = terms.iter().find_map(|term| match term {
            Filter::Eq(field, value) => self
                .indexes
                .get(field)
                .map(|index| Keys::ids(index.get(value).into_iter().flatten().copied())),
            _ => None,
        });
        indexed.unwrap_or(keys)
    }

    /// Rows `filter` matches, in key order.
    fn matching<'a>(
        &'a self,
        filter: &'a Filter,
    ) -> impl DoubleEndedIterator<Item = (Id, &'a Row)> + 'a {
        self.rows.among(self.candidates(filter), filter)
    }
}

/// A secondary index: value → ids; a row without the column is under `Null`.
type Index = BTreeMap<Value, BTreeSet<Id>>;

fn post(index: &mut Index, id: Id, value: Option<&Value>) {
    let v = value.cloned().unwrap_or(Value::Null);
    index.entry(v).or_default().insert(id);
}

/// Re-keys `id` in the indexes whose column an update moved.
fn rekey(indexes: &mut HashMap<String, Index>, id: Id, old: &Row, new: &Row) {
    for (field, index) in indexes {
        let (was, is) = (old.get(field), new.get(field));
        if was != is {
            unpost(index, id, was);
            post(index, id, is);
        }
    }
}

fn unpost(index: &mut Index, id: Id, value: Option<&Value>) {
    let v = value.unwrap_or(&Value::Null);
    if let Some(ids) = index.get_mut(v) {
        ids.remove(&id);
        if ids.is_empty() {
            index.remove(v);
        }
    }
}

#[derive(Default)]
struct Inner {
    tables: HashMap<String, Table>,
}

impl Inner {
    fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }
}

/// The relational engine. See the module docs.
pub struct RelationalDb {
    caps: Capabilities,
    meter: OpMeter,
    inner: Mutex<Inner>,
}

impl RelationalDb {
    /// Creates an engine with the given vendor capabilities and latency.
    pub fn new(caps: Capabilities, latency: LatencyModel) -> Self {
        RelationalDb {
            caps,
            meter: OpMeter::new(latency),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Installs a strict column list for `table`, creating it if needed.
    /// Inserts/updates naming other columns then fail, as in real SQL.
    pub fn define_columns(&self, table: &str, columns: &[&str]) {
        let mut inner = self.inner.lock();
        let t = inner.tables.entry(table.to_owned()).or_default();
        t.columns = Some(columns.iter().map(|c| (*c).to_owned()).collect());
    }

    /// Creates a secondary index on `table.field`, backfilling existing rows.
    pub fn create_index(&self, table: &str, field: &str) {
        let mut inner = self.inner.lock();
        let t = inner.tables.entry(table.to_owned()).or_default();
        let mut index = Index::new();
        for (id, row) in t.rows.matching(&Filter::All) {
            post(&mut index, id, row.get(field));
        }
        t.indexes.insert(field.to_owned(), index);
    }

    fn returning_or_ids(&self, rows: Vec<(Id, Row)>) -> Result<QueryResult, DbError> {
        if self.caps.returning {
            Ok(QueryResult::Rows(rows))
        } else {
            Ok(QueryResult::AffectedIds(
                rows.into_iter().map(|(id, _)| id).collect(),
            ))
        }
    }

    /// A written row as its result echoes it: none without `RETURNING *`.
    fn echo(&self, row: &Row) -> Row {
        if self.caps.returning {
            row.clone()
        } else {
            Row::new()
        }
    }
}

impl Engine for RelationalDb {
    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn execute(&self, q: Query) -> Result<QueryResult, DbError> {
        self.meter.charge(&q);
        let mut inner = self.inner.lock();
        match q {
            Query::CreateTable { table } => {
                inner.tables.entry(table).or_default();
                Ok(QueryResult::Unit)
            }
            Query::DropTable { table } => {
                inner.tables.remove(&table);
                Ok(QueryResult::Unit)
            }
            Query::Insert { table, id, row } => {
                let t = inner.table_mut(&table)?;
                t.check_row(&table, &row)?;
                let stored = t.rows.insert(&table, id, row)?;
                for (field, index) in &mut t.indexes {
                    post(index, id, stored.get(field));
                }
                self.returning_or_ids(vec![(id, self.echo(stored))])
            }
            Query::Update {
                table,
                filter,
                set,
                unset,
            } => {
                let t = inner.table_mut(&table)?;
                t.check_row(&table, &set)?;
                let ids: Vec<Id> = t.matching(&filter).map(|(id, _)| id).collect();
                let indexed = !t.indexes.is_empty();
                let mut written = Vec::new();
                t.rows.update(&ids, set, &unset, indexed, |id, old, row| {
                    if let Some(old) = old {
                        rekey(&mut t.indexes, id, &old, row);
                    }
                    written.push((id, self.echo(row)));
                });
                self.returning_or_ids(written)
            }
            Query::Delete { table, filter } => {
                let t = inner.table_mut(&table)?;
                let ids: Vec<Id> = t.matching(&filter).map(|(id, _)| id).collect();
                let removed = t.rows.delete(&ids);
                for (id, row) in &removed {
                    t.index_remove(*id, row);
                }
                self.returning_or_ids(removed)
            }
            Query::Select {
                table,
                filter,
                order,
                limit,
            } => {
                let t = inner.table(&table)?;
                Ok(QueryResult::Rows(select(
                    t.matching(&filter),
                    &order,
                    limit,
                )))
            }
            Query::Count { table, filter } => {
                let n = inner.table(&table)?.matching(&filter).count();
                Ok(QueryResult::Count(n as u64))
            }
            Query::Search { .. } | Query::Aggregate { .. } => Err(DbError::Unsupported(
                "full-text search on relational engine",
            )),
            Query::AddEdge { .. } | Query::RemoveEdge { .. } | Query::Traverse { .. } => {
                Err(DbError::Unsupported("graph queries on relational engine"))
            }
        }
    }

    fn stats(&self) -> EngineStats {
        let inner = self.inner.lock();
        self.meter
            .stats(inner.tables.values().flat_map(|t| t.rows.rows()))
    }
}

#[cfg(test)]
mod tests;

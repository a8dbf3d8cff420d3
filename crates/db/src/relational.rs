//! Relational engine: strict schemas, B-tree indexes, row locks, and
//! two-phase-commit transactions.
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
//! Transactions buffer writes in a private overlay, take per-row write
//! locks, and expose `prepare`/`commit` so Synapse can run its 2PC across
//! the database, the version store, and the message broker (§4.2).

use crate::engine::{Capabilities, Engine, EngineStats, TxnId, TxnIdGen};
use crate::error::DbError;
use crate::latency::LatencyModel;
use crate::query::{Filter, Query, QueryResult, Row};
use crate::table::{apply_changes, select, sort_rows, Keys, OpMeter, RowTable};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};
use synapse_model::{Id, Value};

/// Default time a writer waits for a row lock before erroring.
const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Default)]
struct Table {
    /// Primary B-tree: id → row.
    rows: RowTable,
    /// Declared columns; `None` until a schema is installed, in which case
    /// anything goes (tests and schemaless callers).
    columns: Option<BTreeSet<String>>,
    /// Secondary indexes: field → value → ids.
    indexes: HashMap<String, Index>,
    /// Row write locks: id → owning transaction.
    locks: HashMap<Id, TxnId>,
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

    fn index_insert(&mut self, id: Id, row: &Row) {
        for (field, index) in &mut self.indexes {
            post(index, id, row.get(field));
        }
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

    /// Committed rows `filter` matches, in key order.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    Active,
    Prepared,
}

impl TxnState {
    fn name(self) -> &'static str {
        match self {
            TxnState::Active => "active",
            TxnState::Prepared => "prepared",
        }
    }
}

#[derive(Debug)]
struct Txn {
    state: TxnState,
    /// Staged row images: `(table, id)` → `Some(row)` (upsert) or `None`
    /// (delete).
    overlay: HashMap<(String, Id), Option<Row>>,
    /// Locks held, for release on finish.
    locked: Vec<(String, Id)>,
}

#[derive(Default)]
struct Inner {
    tables: HashMap<String, Table>,
    txns: HashMap<TxnId, Txn>,
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
    lock_released: Condvar,
    txn_gen: TxnIdGen,
    lock_timeout: Duration,
}

impl RelationalDb {
    /// Creates an engine with the given vendor capabilities and latency.
    pub fn new(caps: Capabilities, latency: LatencyModel) -> Self {
        RelationalDb {
            caps,
            meter: OpMeter::new(latency),
            inner: Mutex::new(Inner::default()),
            lock_released: Condvar::new(),
            txn_gen: TxnIdGen::default(),
            lock_timeout: DEFAULT_LOCK_TIMEOUT,
        }
    }

    /// Overrides the row-lock wait deadline (tests use short values).
    pub fn set_lock_timeout(&mut self, timeout: Duration) {
        self.lock_timeout = timeout;
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

    /// Acquires row locks for `txn`, blocking until free or timing out.
    fn lock_rows(
        &self,
        guard: &mut parking_lot::MutexGuard<'_, Inner>,
        txn: TxnId,
        table: &str,
        ids: &[Id],
    ) -> Result<(), DbError> {
        let deadline = Instant::now() + self.lock_timeout;
        for id in ids {
            loop {
                let inner = &mut **guard;
                let t = inner.table_mut(table)?;
                match t.locks.get(id) {
                    None => {
                        t.locks.insert(*id, txn);
                        if let Some(tx) = inner.txns.get_mut(&txn) {
                            tx.locked.push((table.to_owned(), *id));
                        }
                        break;
                    }
                    Some(owner) if *owner == txn => break,
                    Some(_) => {
                        let waited = self.lock_released.wait_until(guard, deadline);
                        if waited.timed_out() {
                            return Err(DbError::LockTimeout {
                                table: table.to_owned(),
                                key: id.to_string(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Merged view of a row: transaction overlay over committed state.
    fn visible_row(inner: &Inner, txn: Option<TxnId>, table: &str, id: Id) -> Option<Row> {
        if let Some(txn) = txn {
            if let Some(tx) = inner.txns.get(&txn) {
                if let Some(staged) = tx.overlay.get(&(table.to_owned(), id)) {
                    return staged.clone();
                }
            }
        }
        inner.tables.get(table)?.rows.get(id).cloned()
    }

    /// Ids of the rows `filter` matches as `txn` sees them, ascending. With
    /// no transaction open there is no overlay to merge: the table answers.
    fn visible_ids(inner: &Inner, txn: Option<TxnId>, table: &str, filter: &Filter) -> Vec<Id> {
        let Some(t) = inner.tables.get(table) else {
            return Vec::new();
        };
        let committed = t.matching(filter).map(|(id, _)| id);
        let Some(tx) = txn.and_then(|txn| inner.txns.get(&txn)) else {
            return committed.collect();
        };
        // Rows created (or deleted) inside the transaction override the
        // committed candidates.
        let mut ids: BTreeSet<Id> = committed.collect();
        for ((t, id), staged) in &tx.overlay {
            if t == table {
                match staged {
                    Some(_) => {
                        ids.insert(*id);
                    }
                    None => {
                        ids.remove(id);
                    }
                }
            }
        }
        ids.into_iter()
            .filter(|id| {
                Self::visible_row(inner, txn, table, *id)
                    .is_some_and(|row| filter.matches(*id, &row))
            })
            .collect()
    }

    fn run(&self, txn: Option<TxnId>, q: &Query) -> Result<QueryResult, DbError> {
        self.meter.charge(q);
        let mut inner = self.inner.lock();
        if let Some(t) = txn {
            let tx = inner.txns.get(&t).ok_or(DbError::NoSuchTxn(t.0))?;
            if tx.state != TxnState::Active {
                return Err(DbError::BadTxnState {
                    txn: t.0,
                    expected: "active",
                    actual: tx.state.name(),
                });
            }
        }
        match q {
            Query::CreateTable { table } => {
                inner.tables.entry(table.clone()).or_default();
                Ok(QueryResult::Unit)
            }
            Query::DropTable { table } => {
                inner.tables.remove(table);
                Ok(QueryResult::Unit)
            }
            Query::Insert { table, id, row } => {
                inner.table(table)?.check_row(table, row)?;
                match txn {
                    Some(t) => {
                        if Self::visible_row(&inner, txn, table, *id).is_some() {
                            return Err(DbError::DuplicateKey {
                                table: table.clone(),
                                key: id.to_string(),
                            });
                        }
                        self.lock_rows(&mut inner, t, table, &[*id])?;
                        let tx = inner.txns.get_mut(&t).expect("txn checked above");
                        tx.overlay.insert((table.clone(), *id), Some(row.clone()));
                    }
                    None => {
                        // The duplicate check comes after the wait: the
                        // lock's owner may have committed this very key.
                        self.resolve_unlocked(&mut inner, table, |_| [*id])?;
                        let t = inner.table_mut(table)?;
                        t.rows.insert(table, *id, row.clone())?;
                        t.index_insert(*id, row);
                    }
                }
                self.returning_or_ids(vec![(*id, self.echo(row))])
            }
            Query::Update {
                table,
                filter,
                set,
                unset,
            } => {
                inner.table(table)?.check_row(table, set)?;
                let mut written = Vec::new();
                match txn {
                    Some(t) => {
                        let ids = Self::visible_ids(&inner, txn, table, filter);
                        self.lock_rows(&mut inner, t, table, &ids)?;
                        for id in ids {
                            // A lock wait releases the engine mutex too: act
                            // on the row as the lock's last owner left it.
                            let Some(mut row) = Self::visible_row(&inner, txn, table, id)
                                .filter(|row| filter.matches(id, row))
                            else {
                                continue;
                            };
                            apply_changes(&mut row, set, unset);
                            written.push((id, self.echo(&row)));
                            let tx = inner.txns.get_mut(&t).expect("txn checked above");
                            tx.overlay.insert((table.clone(), id), Some(row));
                        }
                    }
                    None => {
                        let ids = self.resolve_unlocked(&mut inner, table, |inner| {
                            Self::visible_ids(inner, None, table, filter)
                        })?;
                        let t = inner.table_mut(table)?;
                        let indexed = !t.indexes.is_empty();
                        t.rows.update(&ids, set, unset, indexed, |id, old, row| {
                            if let Some(old) = old {
                                rekey(&mut t.indexes, id, &old, row);
                            }
                            written.push((id, self.echo(row)));
                        });
                    }
                }
                self.returning_or_ids(written)
            }
            Query::Delete { table, filter } => {
                inner.table(table)?;
                let mut removed = Vec::new();
                match txn {
                    Some(t) => {
                        let ids = Self::visible_ids(&inner, txn, table, filter);
                        self.lock_rows(&mut inner, t, table, &ids)?;
                        for id in ids {
                            let Some(row) = Self::visible_row(&inner, txn, table, id)
                                .filter(|row| filter.matches(id, row))
                            else {
                                continue;
                            };
                            removed.push((id, row));
                            let tx = inner.txns.get_mut(&t).expect("txn checked above");
                            tx.overlay.insert((table.clone(), id), None);
                        }
                    }
                    None => {
                        let ids = self.resolve_unlocked(&mut inner, table, |inner| {
                            Self::visible_ids(inner, None, table, filter)
                        })?;
                        let t = inner.table_mut(table)?;
                        removed = t.rows.delete(&ids);
                        for (id, row) in &removed {
                            t.index_remove(*id, row);
                        }
                    }
                }
                self.returning_or_ids(removed)
            }
            Query::Select {
                table,
                filter,
                order,
                limit,
            } => {
                let t = inner.table(table)?;
                let rows = match txn {
                    // No overlay to merge: the table reads in key order
                    // and a limit stops the read.
                    None => select(t.matching(filter), order, *limit),
                    Some(_) => {
                        let mut rows: Vec<(Id, Row)> =
                            Self::visible_ids(&inner, txn, table, filter)
                                .into_iter()
                                .map(|id| {
                                    let row = Self::visible_row(&inner, txn, table, id)
                                        .expect("visible row");
                                    (id, row)
                                })
                                .collect();
                        sort_rows(&mut rows, order, *limit);
                        rows
                    }
                };
                Ok(QueryResult::Rows(rows))
            }
            Query::Count { table, filter } => {
                inner.table(table)?;
                let n = Self::visible_ids(&inner, txn, table, filter).len();
                Ok(QueryResult::Count(n as u64))
            }
            Query::Batch(_) => Err(DbError::Unsupported("batches (use a transaction)")),
            Query::Search { .. } | Query::Aggregate { .. } => Err(DbError::Unsupported(
                "full-text search on relational engine",
            )),
            Query::AddEdge { .. } | Query::RemoveEdge { .. } | Query::Traverse { .. } => {
                Err(DbError::Unsupported("graph queries on relational engine"))
            }
        }
    }

    /// In auto-commit mode, resolves the ids a write acts on and waits for
    /// any transaction locks on them. A wait releases the engine mutex, so
    /// what was resolved before it is stale — the lock's owner may have
    /// deleted, changed or inserted those very rows — and `resolve` runs
    /// again until one pass finds every id free.
    fn resolve_unlocked<I: AsRef<[Id]>>(
        &self,
        guard: &mut parking_lot::MutexGuard<'_, Inner>,
        table: &str,
        resolve: impl Fn(&Inner) -> I,
    ) -> Result<I, DbError> {
        let deadline = Instant::now() + self.lock_timeout;
        loop {
            let ids = resolve(guard);
            let locks = guard.tables.get(table).map(|t| &t.locks);
            let Some(locked) = ids
                .as_ref()
                .iter()
                .find(|id| locks.is_some_and(|locks| locks.contains_key(id)))
            else {
                return Ok(ids);
            };
            let key = locked.to_string();
            if self.lock_released.wait_until(guard, deadline).timed_out() {
                return Err(DbError::LockTimeout {
                    table: table.to_owned(),
                    key,
                });
            }
        }
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

    fn finish_txn(&self, txn: TxnId, apply: bool) -> Result<(), DbError> {
        let mut inner = self.inner.lock();
        let tx = inner.txns.remove(&txn).ok_or(DbError::NoSuchTxn(txn.0))?;
        if apply {
            for ((table, id), staged) in tx.overlay {
                if let Some(t) = inner.tables.get_mut(&table) {
                    for (id, old) in t.rows.delete(&[id]) {
                        t.index_remove(id, &old);
                    }
                    if let Some(row) = staged {
                        t.index_insert(id, &row);
                        t.rows
                            .insert(&table, id, row)
                            .expect("the key was vacated just above");
                    }
                }
            }
        }
        for (table, id) in tx.locked {
            if let Some(t) = inner.tables.get_mut(&table) {
                t.locks.remove(&id);
            }
        }
        drop(inner);
        self.lock_released.notify_all();
        Ok(())
    }
}

impl Engine for RelationalDb {
    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn execute(&self, q: &Query) -> Result<QueryResult, DbError> {
        self.run(None, q)
    }

    fn begin(&self) -> Result<TxnId, DbError> {
        let txn = self.txn_gen.next();
        self.inner.lock().txns.insert(
            txn,
            Txn {
                state: TxnState::Active,
                overlay: HashMap::new(),
                locked: Vec::new(),
            },
        );
        Ok(txn)
    }

    fn execute_in(&self, txn: TxnId, q: &Query) -> Result<QueryResult, DbError> {
        self.run(Some(txn), q)
    }

    fn prepare(&self, txn: TxnId) -> Result<(), DbError> {
        let mut inner = self.inner.lock();
        let tx = inner.txns.get_mut(&txn).ok_or(DbError::NoSuchTxn(txn.0))?;
        match tx.state {
            TxnState::Active => {
                tx.state = TxnState::Prepared;
                Ok(())
            }
            other => Err(DbError::BadTxnState {
                txn: txn.0,
                expected: "active",
                actual: other.name(),
            }),
        }
    }

    fn commit(&self, txn: TxnId) -> Result<(), DbError> {
        self.finish_txn(txn, true)
    }

    fn rollback(&self, txn: TxnId) -> Result<(), DbError> {
        self.finish_txn(txn, false)
    }

    fn stats(&self) -> EngineStats {
        let inner = self.inner.lock();
        self.meter
            .stats(inner.tables.values().flat_map(|t| t.rows.rows()))
    }
}

#[cfg(test)]
mod tests;

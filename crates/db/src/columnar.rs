//! Columnar engine: a write-optimized LSM store in the style of Cassandra.
//!
//! Storage layout is genuinely log-structured: writes land in a memtable of
//! timestamped cells; when the memtable exceeds a threshold it is flushed to
//! an immutable SSTable run; reads merge the memtable and all runs taking
//! the newest timestamp per cell; deletes write tombstones; compaction
//! folds runs together when they accumulate. This gives the engine the two
//! properties the paper uses Cassandra for: cheap writes (Table 1:
//! "write-intensive workloads") and *logged batches* — the atomic
//! multi-write primitive Synapse maps transactions onto for subscribers
//! (§4.2: "logged batched updates with Cassandra").
//!
//! There is no `RETURNING` support: writes report affected ids only, forcing
//! Synapse's interceptor down its read-back path, exactly as with the real
//! Cassandra.

use crate::engine::{Capabilities, Engine, EngineStats};
use crate::error::DbError;
use crate::faults::DbFaults;
use crate::latency::LatencyModel;
use crate::query::{Filter, Query, QueryResult, Row};
use crate::table::{sort_rows, Keys, OpMeter};
use parking_lot::Mutex;
use std::collections::btree_map::{self, BTreeMap};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use synapse_model::{Id, Value};

/// Memtable cell count that triggers a flush to an SSTable run.
const MEMTABLE_FLUSH_CELLS: usize = 4096;
/// Number of SSTable runs that triggers a compaction.
const COMPACTION_FANIN: usize = 4;

/// One cell: a column value (or tombstone) with its write timestamp.
/// Timestamps start at 1, so 0 reads as "never written".
#[derive(Debug, Clone)]
struct Cell {
    ts: u64,
    /// `None` is a tombstone (deleted cell).
    value: Option<Value>,
}

/// One run's cells for one partition: column → cell.
type Cols = BTreeMap<String, Cell>;

/// A sorted immutable run, or the mutable memtable: partition id → column →
/// cell.
type Run = BTreeMap<Id, Cols>;

/// A whole-row tombstone marker column. Row deletes write this with the
/// deletion timestamp; reads drop any cell older than it.
const ROW_TOMBSTONE: &str = "\u{0}row_tombstone";

/// A row-liveness marker written by every insert (as CQL INSERTs do), so a
/// row with no regular columns is still visible until deleted.
const ROW_MARKER: &str = "\u{1}row_marker";

/// Decides from timestamps alone whether the row these per-run column maps
/// describe is live: its newest insert marker must be newer than its newest
/// row tombstone (updates only ever reach live rows, so no other cell can
/// say otherwise). A live row answers the tombstone's timestamp, at or
/// below which its cells are dead (0 when it was never deleted).
fn live_floor<'a>(versions: impl IntoIterator<Item = &'a Cols>) -> Option<u64> {
    let (mut tombstone, mut marker) = (0, 0);
    for cols in versions {
        tombstone = tombstone.max(cols.get(ROW_TOMBSTONE).map_or(0, |c| c.ts));
        marker = marker.max(cols.get(ROW_MARKER).map_or(0, |c| c.ts));
    }
    (marker > tombstone).then_some(tombstone)
}

/// Merges one partition's column maps into its live row image: the newest
/// cell per column is chosen by reference and only the winners are copied.
fn merge_row(versions: &[&Cols]) -> Option<Row> {
    #[cfg(test)]
    tests::ROWS_MERGED.with(|n| n.set(n.get() + 1));
    let floor = live_floor(versions.iter().copied())?;
    let mut cells: Vec<(&String, &Cell)> = versions
        .iter()
        .flat_map(|cols| cols.iter())
        .filter(|(col, cell)| cell.ts > floor && col.as_str() != ROW_MARKER)
        .collect();
    cells.sort_unstable_by(|(a, x), (b, y)| a.cmp(b).then(y.ts.cmp(&x.ts)));
    cells.dedup_by_key(|(col, _)| *col);
    Some(
        cells
            .into_iter()
            .filter_map(|(col, cell)| Some((col.clone(), cell.value.clone()?)))
            .collect(),
    )
}

/// One run's part of a key-ordered scan: the entry the merge looks at next
/// and the rest of the run's key range behind it.
struct Cursor<'a> {
    head: Option<(&'a Id, &'a Cols)>,
    rest: btree_map::Range<'a, Id, Cols>,
}

impl Cursor<'_> {
    fn advance(&mut self, descending: bool) {
        self.head = if descending {
            self.rest.next_back()
        } else {
            self.rest.next()
        };
    }
}

/// The ids a scan has still to look at, in scan order.
enum Candidates<'a> {
    /// The ids the filter pins (CQL requires the partition key on writes,
    /// so a point lookup is also what the real engine would do).
    Exact(std::vec::IntoIter<Id>),
    /// A key range: one cursor per run, merged k ways as the scan goes, so
    /// a scan that stops early never visits the keys behind its last row.
    Merged(Vec<Cursor<'a>>),
}

#[derive(Debug, Default)]
struct ColumnFamily {
    memtable: Run,
    memtable_cells: usize,
    sstables: Vec<Run>,
    flushes: u64,
    compactions: u64,
}

impl ColumnFamily {
    fn write_cells(
        &mut self,
        id: Id,
        ts: u64,
        cells: impl IntoIterator<Item = (String, Option<Value>)>,
    ) {
        let row = self.memtable.entry(id).or_default();
        for (col, value) in cells {
            row.insert(col, Cell { ts, value });
            self.memtable_cells += 1;
        }
    }

    fn maybe_flush(&mut self, (flush_cells, fanin): (usize, usize)) {
        if self.memtable_cells >= flush_cells {
            let run = std::mem::take(&mut self.memtable);
            self.memtable_cells = 0;
            self.sstables.push(run);
            self.flushes += 1;
            if self.sstables.len() >= fanin {
                self.compact();
            }
        }
    }

    /// Merges all runs into one, newest timestamp winning per cell. Every
    /// run goes into the merge and the memtable only holds newer cells, so
    /// a row tombstone has nothing older left to shadow: a dead row goes
    /// whole, and a live one sheds its tombstone with the cells it killed.
    fn compact(&mut self) {
        let mut merged: Run = BTreeMap::new();
        for run in self.sstables.drain(..) {
            for (id, cols) in run {
                let target = merged.entry(id).or_default();
                for (col, cell) in cols {
                    match target.get(&col) {
                        Some(existing) if existing.ts >= cell.ts => {}
                        _ => {
                            target.insert(col, cell);
                        }
                    }
                }
            }
        }
        merged.retain(|_, cols| match live_floor([&*cols]) {
            Some(floor) => {
                cols.retain(|_, cell| cell.ts > floor);
                true
            }
            None => false,
        });
        self.sstables.push(merged);
        self.compactions += 1;
    }

    /// Every run, oldest first, the memtable last.
    fn runs(&self) -> impl Iterator<Item = &Run> {
        self.sstables.iter().chain([&self.memtable])
    }

    /// The column maps the runs hold for `id`.
    fn versions(&self, id: Id) -> impl Iterator<Item = &Cols> {
        self.runs().filter_map(move |run| run.get(&id))
    }

    fn is_live(&self, id: Id) -> bool {
        live_floor(self.versions(id)).is_some()
    }

    /// The live rows `filter` matches, in key order (from the far end when
    /// `descending`), built one at a time as the caller pulls them.
    fn scan<'a>(
        &'a self,
        filter: &'a Filter,
        descending: bool,
    ) -> impl Iterator<Item = (Id, Row)> + 'a {
        let mut candidates = match Keys::of(filter) {
            Keys::Ids(mut ids) => {
                if descending {
                    ids.reverse();
                }
                Candidates::Exact(ids.into_iter())
            }
            keys => {
                let from = match keys {
                    Keys::After(after) => Bound::Excluded(after),
                    _ => Bound::Unbounded,
                };
                let cursor = |run: &'a Run| {
                    let mut cursor = Cursor {
                        head: None,
                        rest: run.range((from, Bound::Unbounded)),
                    };
                    cursor.advance(descending);
                    cursor
                };
                Candidates::Merged(self.runs().map(cursor).collect())
            }
        };
        let mut versions: Vec<&Cols> = Vec::new();
        std::iter::from_fn(move || loop {
            versions.clear();
            let id = match &mut candidates {
                Candidates::Exact(ids) => {
                    let id = ids.next()?;
                    versions.extend(self.versions(id));
                    id
                }
                Candidates::Merged(cursors) => {
                    let heads = cursors.iter().filter_map(|c| c.head.map(|(id, _)| *id));
                    let id = if descending { heads.max() } else { heads.min() }?;
                    for cursor in cursors.iter_mut() {
                        if let Some((_, cols)) = cursor.head.filter(|(head, _)| **head == id) {
                            versions.push(cols);
                            cursor.advance(descending);
                        }
                    }
                    id
                }
            };
            if let Some(row) = merge_row(&versions).filter(|row| filter.matches(id, row)) {
                return Some((id, row));
            }
        })
    }

    /// Ids of the live rows `filter` matches, ascending. A write by primary
    /// key needs the row's liveness, not its image.
    fn matching_ids(&self, filter: &Filter) -> Vec<Id> {
        match filter {
            Filter::ById(id) => Vec::from_iter(self.is_live(*id).then_some(*id)),
            _ => self.scan(filter, false).map(|(id, _)| id).collect(),
        }
    }
}

/// The columnar/LSM engine. See the module docs.
pub struct ColumnarDb {
    caps: Capabilities,
    meter: OpMeter,
    families: Mutex<HashMap<String, ColumnFamily>>,
    clock: AtomicU64,
    /// `(MEMTABLE_FLUSH_CELLS, COMPACTION_FANIN)` everywhere but in tests
    /// that need an LSM with many runs out of few writes.
    thresholds: (usize, usize),
    /// Fault panel: compaction stalls queue the write path behind a
    /// simulated background compaction (the LSM failure class where
    /// compaction saturates the disk and foreground writes back up).
    faults: DbFaults,
}

/// The family behind `table`, created on first use.
fn family<'a>(fams: &'a mut HashMap<String, ColumnFamily>, table: &str) -> &'a mut ColumnFamily {
    if !fams.contains_key(table) {
        fams.insert(table.to_owned(), ColumnFamily::default());
    }
    fams.get_mut(table).expect("present or just inserted")
}

impl ColumnarDb {
    /// Creates an engine with the given vendor capabilities and latency.
    pub fn new(caps: Capabilities, latency: LatencyModel) -> Self {
        ColumnarDb {
            caps,
            meter: OpMeter::new(latency),
            families: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(1),
            thresholds: (MEMTABLE_FLUSH_CELLS, COMPACTION_FANIN),
            faults: DbFaults::new(),
        }
    }

    /// The engine's fault panel (shared state with every clone).
    pub fn faults(&self) -> DbFaults {
        self.faults.clone()
    }

    /// Number of flushes and compactions performed so far (for tests and
    /// the LSM ablation bench).
    pub fn lsm_counters(&self) -> (u64, u64) {
        let fams = self.families.lock();
        let mut flushes = 0;
        let mut compactions = 0;
        for f in fams.values() {
            flushes += f.flushes;
            compactions += f.compactions;
        }
        (flushes, compactions)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn run_locked(
        &self,
        fams: &mut HashMap<String, ColumnFamily>,
        q: &Query,
    ) -> Result<QueryResult, DbError> {
        match q {
            Query::CreateTable { table } => {
                family(fams, table);
                Ok(QueryResult::Unit)
            }
            Query::DropTable { table } => {
                fams.remove(table);
                Ok(QueryResult::Unit)
            }
            Query::Insert { table, id, row } => {
                let fam = family(fams, table);
                if fam.is_live(*id) {
                    return Err(DbError::DuplicateKey {
                        table: table.clone(),
                        key: id.to_string(),
                    });
                }
                let ts = self.tick();
                fam.write_cells(
                    *id,
                    ts,
                    row.iter()
                        .map(|(k, v)| (k.clone(), Some(v.clone())))
                        .chain([(ROW_MARKER.to_owned(), None)]),
                );
                fam.maybe_flush(self.thresholds);
                Ok(QueryResult::AffectedIds(vec![*id]))
            }
            Query::Update {
                table,
                filter,
                set,
                unset,
            } => {
                let fam = family(fams, table);
                let ids = fam.matching_ids(filter);
                let ts = self.tick();
                for id in &ids {
                    fam.write_cells(
                        *id,
                        ts,
                        set.iter()
                            .map(|(k, v)| (k.clone(), Some(v.clone())))
                            .chain(unset.iter().map(|k| (k.clone(), None))),
                    );
                }
                fam.maybe_flush(self.thresholds);
                Ok(QueryResult::AffectedIds(ids))
            }
            Query::Delete { table, filter } => {
                let fam = family(fams, table);
                let ids = fam.matching_ids(filter);
                let ts = self.tick();
                for id in &ids {
                    fam.write_cells(*id, ts, [(ROW_TOMBSTONE.to_owned(), None)]);
                }
                fam.maybe_flush(self.thresholds);
                Ok(QueryResult::AffectedIds(ids))
            }
            Query::Select {
                table,
                filter,
                order,
                limit,
            } => {
                let Some(fam) = fams.get(table) else {
                    return Ok(QueryResult::Rows(Vec::new()));
                };
                // The default and `id` orders are the scan's own, so a limit
                // stops it; any other field needs every row.
                let n = limit.unwrap_or(usize::MAX);
                let rows = match order {
                    Some(o) if o.field != "id" => {
                        let mut rows: Vec<(Id, Row)> = fam.scan(filter, false).collect();
                        sort_rows(&mut rows, order, *limit);
                        rows
                    }
                    Some(o) => fam.scan(filter, !o.ascending).take(n).collect(),
                    None => fam.scan(filter, false).take(n).collect(),
                };
                Ok(QueryResult::Rows(rows))
            }
            Query::Count { table, filter } => Ok(QueryResult::Count(
                fams.get(table)
                    .map_or(0, |fam| fam.scan(filter, false).count() as u64),
            )),
            Query::Batch(queries) => {
                // Logged batch: applied atomically under the engine lock;
                // nested batches are rejected as in CQL.
                let mut results = Vec::with_capacity(queries.len());
                for sub in queries {
                    if matches!(sub, Query::Batch(_)) {
                        return Err(DbError::Unsupported("nested batches"));
                    }
                    if !sub.is_write() {
                        return Err(DbError::Unsupported("reads inside a logged batch"));
                    }
                    results.push(self.run_locked(fams, sub)?);
                }
                Ok(QueryResult::Batch(results))
            }
            Query::Search { .. } | Query::Aggregate { .. } => {
                Err(DbError::Unsupported("full-text search on columnar engine"))
            }
            Query::AddEdge { .. } | Query::RemoveEdge { .. } | Query::Traverse { .. } => {
                Err(DbError::Unsupported("graph queries on columnar engine"))
            }
        }
    }
}

impl Engine for ColumnarDb {
    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn execute(&self, q: &Query) -> Result<QueryResult, DbError> {
        self.meter.charge(q);
        if q.is_write() {
            // Stall behind the simulated compaction *before* taking the
            // engine lock, as a real write queues behind compaction I/O,
            // not behind other clients.
            self.faults.gate_compaction();
        }
        let mut fams = self.families.lock();
        self.run_locked(&mut fams, q)
    }

    fn stats(&self) -> EngineStats {
        let fams = self.families.lock();
        let live = fams.values().flat_map(|fam| fam.scan(&Filter::All, false));
        self.meter.stats(live.map(|(_, row)| row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use crate::query::Filter;
    use proptest::prelude::*;

    thread_local! {
        /// Rows `merge_row` was asked to build on this thread, for the test
        /// that pins what a page costs.
        pub(super) static ROWS_MERGED: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn db() -> ColumnarDb {
        profiles::cassandra(LatencyModel::off())
    }

    /// An engine that flushes and compacts after few writes.
    fn db_with_thresholds(flush_cells: usize, fanin: usize) -> ColumnarDb {
        ColumnarDb {
            thresholds: (flush_cells, fanin),
            ..db()
        }
    }

    fn insert(db: &ColumnarDb, id: u64, pairs: &[(&str, Value)]) {
        db.execute(&Query::Insert {
            table: "t".into(),
            id: Id(id),
            row: row(pairs),
        })
        .unwrap();
    }

    fn delete(db: &ColumnarDb, id: u64) {
        db.execute(&Query::Delete {
            table: "t".into(),
            filter: Filter::ById(Id(id)),
        })
        .unwrap();
    }

    /// Flushes the memtable and compacts, whatever the thresholds say.
    fn force_compaction(db: &ColumnarDb) {
        let mut fams = db.families.lock();
        let fam = fams.get_mut("t").unwrap();
        let run = std::mem::take(&mut fam.memtable);
        fam.memtable_cells = 0;
        fam.sstables.push(run);
        fam.compact();
    }

    fn row(pairs: &[(&str, Value)]) -> Row {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect()
    }

    fn select_all(db: &ColumnarDb, table: &str) -> Vec<(Id, Row)> {
        db.execute(&Query::Select {
            table: table.into(),
            filter: Filter::All,
            order: None,
            limit: None,
        })
        .unwrap()
        .into_rows()
        .unwrap()
    }

    #[test]
    fn writes_report_ids_only_no_returning() {
        let db = db();
        let res = db
            .execute(&Query::Insert {
                table: "t".into(),
                id: Id(1),
                row: row(&[("a", 1.into())]),
            })
            .unwrap();
        assert_eq!(res, QueryResult::AffectedIds(vec![Id(1)]));
    }

    #[test]
    fn newest_timestamp_wins_per_cell() {
        let db = db();
        db.execute(&Query::Insert {
            table: "t".into(),
            id: Id(1),
            row: row(&[("a", 1.into()), ("b", 1.into())]),
        })
        .unwrap();
        db.execute(&Query::Update {
            table: "t".into(),
            filter: Filter::ById(Id(1)),
            set: row(&[("a", 2.into())]),
            unset: vec![],
        })
        .unwrap();
        let rows = select_all(&db, "t");
        assert_eq!(rows[0].1["a"], Value::Int(2));
        assert_eq!(rows[0].1["b"], Value::Int(1), "untouched column survives");
    }

    #[test]
    fn row_tombstones_hide_older_cells() {
        let db = db();
        db.execute(&Query::Insert {
            table: "t".into(),
            id: Id(1),
            row: row(&[("a", 1.into())]),
        })
        .unwrap();
        db.execute(&Query::Delete {
            table: "t".into(),
            filter: Filter::ById(Id(1)),
        })
        .unwrap();
        assert!(select_all(&db, "t").is_empty());
        // Re-insert after deletion resurrects the row with only new cells.
        db.execute(&Query::Insert {
            table: "t".into(),
            id: Id(1),
            row: row(&[("b", 2.into())]),
        })
        .unwrap();
        let rows = select_all(&db, "t");
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].1.contains_key("a"), "old cell stays dead");
        assert_eq!(rows[0].1["b"], Value::Int(2));
    }

    #[test]
    fn flush_and_compaction_preserve_reads() {
        let db = db();
        // Enough cells to force several flushes and at least one compaction.
        let n = (MEMTABLE_FLUSH_CELLS * COMPACTION_FANIN + 10) as u64;
        for i in 0..n {
            db.execute(&Query::Insert {
                table: "t".into(),
                id: Id(i + 1),
                row: row(&[("v", Value::Int(i as i64))]),
            })
            .unwrap();
        }
        let (flushes, compactions) = db.lsm_counters();
        assert!(flushes >= COMPACTION_FANIN as u64, "flushes: {flushes}");
        assert!(compactions >= 1, "compactions: {compactions}");
        assert_eq!(db.stats().rows, n);
        // Spot-check values across runs.
        let rows = db
            .execute(&Query::Select {
                table: "t".into(),
                filter: Filter::ById(Id(1)),
                order: None,
                limit: None,
            })
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows[0].1["v"], Value::Int(0));
    }

    #[test]
    fn compaction_gc_drops_tombstoned_cells() {
        let db = db();
        insert(&db, 1, &[("a", 1.into())]);
        delete(&db, 1);
        insert(&db, 2, &[("a", 1.into())]);
        delete(&db, 2);
        insert(&db, 2, &[("b", 2.into())]);
        force_compaction(&db);
        {
            let fams = db.families.lock();
            let compacted = fams["t"].sstables.last().unwrap();
            assert!(
                !compacted.contains_key(&Id(1)),
                "a row whose newest cell is its tombstone goes whole"
            );
            let cols = &compacted[&Id(2)];
            assert!(!cols.contains_key("a"), "shadowed cell must be GC'd");
            assert!(
                !cols.contains_key(ROW_TOMBSTONE),
                "with every run merged the tombstone shadows nothing"
            );
            assert!(cols.contains_key("b") && cols.contains_key(ROW_MARKER));
        }
        let rows = select_all(&db, "t");
        assert_eq!(rows, vec![(Id(2), row(&[("b", 2.into())]))]);
    }

    #[test]
    fn a_compacted_delete_leaves_nothing_for_a_reinsert_to_inherit() {
        let db = db();
        for id in 1..=20 {
            insert(&db, id, &[("a", 1.into()), ("b", 1.into())]);
        }
        for id in 1..=15 {
            delete(&db, id);
        }
        force_compaction(&db);
        assert_eq!(
            db.families.lock()["t"].sstables.last().unwrap().len(),
            5,
            "the merged run holds the live rows and nothing else"
        );
        assert_eq!(db.stats().rows, 5);
        insert(&db, 7, &[("b", 2.into())]);
        let rows = db
            .execute(&Query::Select {
                table: "t".into(),
                filter: Filter::ById(Id(7)),
                order: None,
                limit: None,
            })
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows, vec![(Id(7), row(&[("b", 2.into())]))]);
        force_compaction(&db);
        assert_eq!(db.families.lock()["t"].sstables.last().unwrap().len(), 6);
    }

    #[test]
    fn a_page_in_key_order_builds_its_own_rows_only() {
        // 10 000 rows, neighbouring ids in different runs: three flushed
        // runs of 2 600 rows (two cells each) and 2 200 in the memtable.
        let db = db_with_thresholds(5_200, 8);
        for lane in 0..4 {
            for id in (1..=10_000u64).filter(|id| id % 4 == lane) {
                insert(&db, id, &[("v", Value::Int(id as i64))]);
            }
        }
        assert_eq!(db.lsm_counters(), (3, 0));
        let dead = [5_003, 5_010, 5_011, 5_040, 9_990];
        for id in dead {
            delete(&db, id);
        }
        let page = |filter: Filter, ascending: bool| {
            ROWS_MERGED.with(|n| n.set(0));
            let rows = db
                .execute(&Query::Select {
                    table: "t".into(),
                    filter,
                    order: Some(crate::query::OrderBy {
                        field: "id".into(),
                        ascending,
                    }),
                    limit: Some(64),
                })
                .unwrap()
                .into_rows()
                .unwrap();
            let ids: Vec<u64> = rows.iter().map(|(id, _)| id.raw()).collect();
            (ids, ROWS_MERGED.with(|n| n.get()))
        };
        let (ids, merged) = page(Filter::IdAfter(Id(5_000)), true);
        let expected: Vec<u64> = (5_001..).filter(|id| !dead.contains(id)).take(64).collect();
        assert_eq!(ids, expected);
        assert_eq!(
            merged,
            64 + 4,
            "the page's rows and the tombstoned ids passed"
        );
        let (ids, merged) = page(Filter::All, false);
        let expected: Vec<u64> = (1..=10_000)
            .rev()
            .filter(|id| !dead.contains(id))
            .take(64)
            .collect();
        assert_eq!(ids, expected);
        assert_eq!(merged, 64 + 1);
    }

    #[derive(Debug, Clone)]
    enum Step {
        Insert(u64, Row),
        Update(Filter, Row, Vec<String>),
        Delete(Filter),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let field = || prop_oneof![Just("a"), Just("b"), Just("n")];
        let value = || {
            prop_oneof![
                (0i64..4).prop_map(Value::Int),
                Just(Value::from("x")),
                Just(Value::Null)
            ]
        };
        let row = move || {
            prop::collection::vec((field(), value()), 0..3).prop_map(|fields| {
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), v))
                    .collect::<Row>()
            })
        };
        let id = || (0u64..8).prop_map(Id);
        let filter = move || {
            prop_oneof![
                id().prop_map(Filter::ById),
                id().prop_map(Filter::ById),
                prop::collection::vec(id(), 0..4).prop_map(Filter::IdIn),
                id().prop_map(Filter::IdAfter),
                (0i64..4).prop_map(|n| Filter::Eq("n".into(), Value::Int(n))),
                (id(), 0i64..4).prop_map(|(after, n)| Filter::And(vec![
                    Filter::Eq("n".into(), Value::Int(n)),
                    Filter::IdAfter(after)
                ])),
                Just(Filter::All),
            ]
        };
        let unset = prop::collection::vec(field().prop_map(str::to_owned), 0..2);
        prop_oneof![
            ((0u64..8), row()).prop_map(|(id, row)| Step::Insert(id, row)),
            ((0u64..8), row()).prop_map(|(id, row)| Step::Insert(id, row)),
            (filter(), row(), unset).prop_map(|(f, set, unset)| Step::Update(f, set, unset)),
            (filter(), row(), Just(Vec::new()))
                .prop_map(|(f, set, unset)| Step::Update(f, set, unset)),
            filter().prop_map(Step::Delete),
        ]
    }

    proptest! {
        /// The LSM answers every query as a plain row table would, after
        /// every step of a history that crosses flushes and compactions.
        #[test]
        fn the_lsm_agrees_with_a_row_table_after_every_step(
            steps in prop::collection::vec(arb_step(), 120..160),
        ) {
            let lsm = db_with_thresholds(6, 3);
            let reference = profiles::mongodb(LatencyModel::off());
            let both = |q: Query| {
                let (ours, theirs) = (lsm.execute(&q), reference.execute(&q));
                match (&ours, &theirs) {
                    (Ok(ours), Ok(theirs)) if q.is_write() => {
                        assert_eq!(ours.affected_ids(), theirs.affected_ids(), "{q:?}");
                    }
                    (Ok(ours), Ok(theirs)) => assert_eq!(ours, theirs, "{q:?}"),
                    (Err(DbError::DuplicateKey { .. }), Err(DbError::DuplicateKey { .. })) => {}
                    _ => panic!("{q:?}: {ours:?} against {theirs:?}"),
                }
            };
            let table = || "t".to_owned();
            for step in steps {
                both(match step {
                    Step::Insert(id, row) => Query::Insert { table: table(), id: Id(id), row },
                    Step::Update(filter, set, unset) => {
                        Query::Update { table: table(), filter, set, unset }
                    }
                    Step::Delete(filter) => Query::Delete { table: table(), filter },
                });
                let by_id = (0..8).map(|id| Filter::ById(Id(id)));
                let reads = by_id.chain([
                    Filter::All,
                    Filter::IdIn(vec![Id(6), Id(1), Id(6), Id(3)]),
                    Filter::IdAfter(Id(2)),
                    Filter::Eq("n".into(), Value::Int(1)),
                ]);
                for filter in reads {
                    both(Query::Count { table: table(), filter: filter.clone() });
                    both(Query::Select {
                        table: table(),
                        filter: filter.clone(),
                        order: None,
                        limit: None,
                    });
                    for ascending in [true, false] {
                        let order = Some(crate::query::OrderBy { field: "id".into(), ascending });
                        both(Query::Select {
                            table: table(),
                            filter: filter.clone(),
                            order,
                            limit: Some(3),
                        });
                    }
                }
            }
            let (flushes, compactions) = lsm.lsm_counters();
            assert!(flushes >= 6 && compactions >= 2, "{flushes} flushes, {compactions} compactions");
        }
    }

    #[test]
    fn logged_batch_is_atomic_and_returns_per_query_results() {
        let db = db();
        let res = db
            .execute(&Query::Batch(vec![
                Query::Insert {
                    table: "t".into(),
                    id: Id(1),
                    row: row(&[("a", 1.into())]),
                },
                Query::Insert {
                    table: "t".into(),
                    id: Id(2),
                    row: row(&[("a", 2.into())]),
                },
            ]))
            .unwrap();
        assert_eq!(res.affected_ids(), vec![Id(1), Id(2)]);
        assert_eq!(db.stats().rows, 2);
    }

    #[test]
    fn batch_rejects_reads_and_nesting() {
        let db = db();
        assert!(db
            .execute(&Query::Batch(vec![Query::Count {
                table: "t".into(),
                filter: Filter::All,
            }]))
            .is_err());
        assert!(db
            .execute(&Query::Batch(vec![Query::Batch(vec![])]))
            .is_err());
    }

    #[test]
    fn compaction_stalls_charge_writes_then_expire() {
        let db = db();
        db.faults()
            .inject_compaction_stalls(2, std::time::Duration::from_micros(400));
        let start = std::time::Instant::now();
        for i in 0..4u64 {
            db.execute(&Query::Insert {
                table: "t".into(),
                id: Id(i + 1),
                row: row(&[("v", Value::Int(i as i64))]),
            })
            .unwrap();
        }
        assert!(start.elapsed() >= std::time::Duration::from_micros(800));
        assert_eq!(db.faults().stats().compaction_stalls_charged, 2);
        assert!(!db.faults().is_armed(), "stall window expired");
        // Reads never stall and all writes landed despite the stalls.
        assert_eq!(select_all(&db, "t").len(), 4);
    }

    #[test]
    fn compaction_stall_schedule_is_deterministic() {
        // Same write schedule twice: identical charge counts both runs.
        let observed: Vec<u64> = (0..2)
            .map(|_| {
                let db = db();
                db.faults()
                    .inject_compaction_stalls(3, std::time::Duration::from_micros(50));
                for i in 0..5u64 {
                    db.execute(&Query::Insert {
                        table: "t".into(),
                        id: Id(i + 1),
                        row: row(&[("v", Value::Int(i as i64))]),
                    })
                    .unwrap();
                }
                db.faults().stats().compaction_stalls_charged
            })
            .collect();
        assert_eq!(observed[0], observed[1]);
        assert_eq!(
            observed[0], 3,
            "countdown fires exactly, never probabilistically"
        );
    }

    #[test]
    fn duplicate_insert_rejected() {
        let db = db();
        db.execute(&Query::Insert {
            table: "t".into(),
            id: Id(1),
            row: Row::new(),
        })
        .unwrap();
        assert!(matches!(
            db.execute(&Query::Insert {
                table: "t".into(),
                id: Id(1),
                row: Row::new(),
            }),
            Err(DbError::DuplicateKey { .. })
        ));
    }
}

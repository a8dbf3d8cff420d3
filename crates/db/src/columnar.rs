//! Columnar engine: a write-optimized LSM store in the style of Cassandra.
//!
//! Storage layout is genuinely log-structured: writes land in a memtable of
//! timestamped cells; when the memtable exceeds a threshold it is flushed to
//! an immutable SSTable run; reads merge the memtable and all runs taking
//! the newest timestamp per cell; deletes write tombstones; compaction
//! folds runs together when they accumulate. This gives the engine the
//! property the paper uses Cassandra for: cheap writes (Table 1:
//! "write-intensive workloads"). The paper's subscribers also map a
//! multi-operation message onto a logged batch (§4.2: "logged batched
//! updates with Cassandra"); this reproduction applies such a message one
//! operation at a time on every engine (DESIGN.md *Deviations*), so the
//! engine has no batch query.
//!
//! There is no `RETURNING` support: writes report affected ids only, forcing
//! Synapse's interceptor down its read-back path, exactly as with the real
//! Cassandra.

use crate::engine::{Capabilities, Engine, EngineStats};
use crate::error::DbError;
use crate::latency::LatencyModel;
use crate::query::{Filter, Query, QueryResult, Row};
use crate::table::{namespace, sort_rows, Keys, OpMeter};
use parking_lot::Mutex;
use std::collections::btree_map::{self, BTreeMap};
use std::collections::HashMap;
use std::iter::Chain;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::{option, vec};
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
/// A partition that one run holds whole — any row not written since its
/// last flush — has nothing to merge: its cells are the winners.
fn merge_row<'a>(versions: impl Iterator<Item = &'a Cols> + Clone) -> Option<Row> {
    #[cfg(test)]
    tests::ROWS_MERGED.with(|n| n.set(n.get() + 1));
    let floor = live_floor(versions.clone())?;
    let live = |(col, cell): &(&String, &Cell)| cell.ts > floor && col.as_str() != ROW_MARKER;
    let mut row = Row::new();
    let mut copy = |(col, cell): (&String, &Cell)| {
        if let Some(value) = &cell.value {
            row.insert(col.clone(), value.clone());
        }
    };
    let mut rest = versions.clone();
    match (rest.next(), rest.next()) {
        (Some(cols), None) => cols.iter().filter(live).for_each(&mut copy),
        _ => {
            let mut cells: Vec<(&String, &Cell)> =
                versions.flat_map(|cols| cols.iter()).filter(live).collect();
            cells.sort_unstable_by(|(a, x), (b, y)| a.cmp(b).then(y.ts.cmp(&x.ts)));
            cells.dedup_by_key(|(col, _)| *col);
            cells.into_iter().for_each(&mut copy);
        }
    }
    Some(row)
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
    /// The ids the filter pins, taken from the far end when descending
    /// (CQL requires the partition key on writes, so a point lookup is
    /// also what the real engine would do).
    Exact(Chain<option::IntoIter<Id>, vec::IntoIter<Id>>),
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
    fn runs(&self) -> impl Iterator<Item = &Run> + Clone {
        self.sstables.iter().chain([&self.memtable])
    }

    /// The column maps the runs hold for `id`.
    fn versions(&self, id: Id) -> impl Iterator<Item = &Cols> + Clone {
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
            Keys::One(id) => Candidates::Exact(Some(id).into_iter().chain(Vec::new())),
            Keys::Ids(ids) => Candidates::Exact(None.into_iter().chain(ids)),
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
            let (id, row) = match &mut candidates {
                Candidates::Exact(ids) => {
                    let id = if descending {
                        ids.next_back()
                    } else {
                        ids.next()
                    }?;
                    (id, merge_row(self.versions(id)))
                }
                Candidates::Merged(cursors) => {
                    let heads = cursors.iter().filter_map(|c| c.head.map(|(id, _)| *id));
                    let id = if descending { heads.max() } else { heads.min() }?;
                    versions.clear();
                    for cursor in cursors.iter_mut() {
                        if let Some((_, cols)) = cursor.head.filter(|(head, _)| **head == id) {
                            versions.push(cols);
                            cursor.advance(descending);
                        }
                    }
                    (id, merge_row(versions.iter().copied()))
                }
            };
            if let Some(row) = row.filter(|row| filter.matches(id, row)) {
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
        }
    }

    /// Number of flushes and compactions performed so far.
    #[cfg(test)]
    pub(crate) fn lsm_counters(&self) -> (u64, u64) {
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
        q: Query,
    ) -> Result<QueryResult, DbError> {
        match q {
            Query::CreateTable { table } => {
                namespace(fams, &table);
                Ok(QueryResult::Unit)
            }
            Query::DropTable { table } => {
                fams.remove(&table);
                Ok(QueryResult::Unit)
            }
            Query::Insert { table, id, row } => {
                let fam = namespace(fams, &table);
                if fam.is_live(id) {
                    return Err(DbError::DuplicateKey {
                        table,
                        key: id.to_string(),
                    });
                }
                let ts = self.tick();
                let cells = row.into_iter().map(|(k, v)| (k, Some(v)));
                fam.write_cells(id, ts, cells.chain([(ROW_MARKER.to_owned(), None)]));
                fam.maybe_flush(self.thresholds);
                Ok(QueryResult::AffectedIds(vec![id]))
            }
            Query::Update {
                table,
                filter,
                set,
                unset,
            } => {
                let fam = namespace(fams, &table);
                let ids = fam.matching_ids(&filter);
                let ts = self.tick();
                let cells = |set: Row, unset: Vec<String>| {
                    let set = set.into_iter().map(|(k, v)| (k, Some(v)));
                    set.chain(unset.into_iter().map(|k| (k, None)))
                };
                if let Some((last, rest)) = ids.split_last() {
                    for id in rest {
                        fam.write_cells(*id, ts, cells(set.clone(), unset.clone()));
                    }
                    fam.write_cells(*last, ts, cells(set, unset));
                }
                fam.maybe_flush(self.thresholds);
                Ok(QueryResult::AffectedIds(ids))
            }
            Query::Delete { table, filter } => {
                let fam = namespace(fams, &table);
                let ids = fam.matching_ids(&filter);
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
                let Some(fam) = fams.get(&table) else {
                    return Ok(QueryResult::Rows(Vec::new()));
                };
                // The default and `id` orders are the scan's own, so a limit
                // stops it; any other field needs every row.
                let n = limit.unwrap_or(usize::MAX);
                let rows = match &order {
                    Some(o) if o.field != "id" => {
                        let mut rows: Vec<(Id, Row)> = fam.scan(&filter, false).collect();
                        sort_rows(&mut rows, &order, limit);
                        rows
                    }
                    Some(o) => fam.scan(&filter, !o.ascending).take(n).collect(),
                    None => fam.scan(&filter, false).take(n).collect(),
                };
                Ok(QueryResult::Rows(rows))
            }
            Query::Count { table, filter } => {
                let n = match (fams.get(&table), &filter) {
                    (None, _) => 0,
                    // A by-id count is the row's liveness: no row is built.
                    (Some(fam), Filter::ById(id)) => u64::from(fam.is_live(*id)),
                    (Some(fam), _) => fam.scan(&filter, false).count() as u64,
                };
                Ok(QueryResult::Count(n))
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

    fn execute(&self, q: Query) -> Result<QueryResult, DbError> {
        self.meter.charge(&q);
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
mod tests;

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
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use synapse_model::{Id, Value};

/// Memtable cell count that triggers a flush to an SSTable run.
const MEMTABLE_FLUSH_CELLS: usize = 4096;
/// Number of SSTable runs that triggers a compaction.
const COMPACTION_FANIN: usize = 4;

/// One cell: a column value (or tombstone) with its write timestamp.
#[derive(Debug, Clone)]
struct Cell {
    ts: u64,
    /// `None` is a tombstone (deleted cell).
    value: Option<Value>,
}

/// A sorted immutable run, or the mutable memtable: partition id → column →
/// cell.
type Run = BTreeMap<Id, BTreeMap<String, Cell>>;

/// A whole-row tombstone marker column. Row deletes write this with the
/// deletion timestamp; reads drop any cell older than it.
const ROW_TOMBSTONE: &str = "\u{0}row_tombstone";

/// A row-liveness marker written by every insert (as CQL INSERTs do), so a
/// row with no regular columns is still visible until deleted.
const ROW_MARKER: &str = "\u{1}row_marker";

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

    fn maybe_flush(&mut self) {
        if self.memtable_cells >= MEMTABLE_FLUSH_CELLS {
            let run = std::mem::take(&mut self.memtable);
            self.memtable_cells = 0;
            self.sstables.push(run);
            self.flushes += 1;
            if self.sstables.len() >= COMPACTION_FANIN {
                self.compact();
            }
        }
    }

    /// Merges all runs into one, newest timestamp winning per cell, and
    /// drops data shadowed by row tombstones.
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
        // Garbage-collect cells older than their row tombstone.
        for cols in merged.values_mut() {
            if let Some(tomb) = cols.get(ROW_TOMBSTONE).map(|c| c.ts) {
                cols.retain(|name, cell| name == ROW_TOMBSTONE || cell.ts > tomb);
            }
        }
        self.sstables.push(merged);
        self.compactions += 1;
    }

    /// Reconstructs the live row image for `id` across memtable + runs.
    fn read_row(&self, id: Id) -> Option<Row> {
        let mut cells: BTreeMap<String, Cell> = BTreeMap::new();
        for run in self.sstables.iter().chain(std::iter::once(&self.memtable)) {
            if let Some(cols) = run.get(&id) {
                for (col, cell) in cols {
                    match cells.get(col) {
                        Some(existing) if existing.ts >= cell.ts => {}
                        _ => {
                            cells.insert(col.clone(), cell.clone());
                        }
                    }
                }
            }
        }
        if cells.is_empty() {
            return None;
        }
        let tombstone_ts = cells.get(ROW_TOMBSTONE).map(|c| c.ts);
        let mut row = Row::new();
        let mut live = false;
        for (col, cell) in cells {
            if col == ROW_TOMBSTONE {
                continue;
            }
            if let Some(tomb) = tombstone_ts {
                if cell.ts <= tomb {
                    continue;
                }
            }
            live = true;
            if col == ROW_MARKER {
                continue;
            }
            if let Some(v) = cell.value {
                row.insert(col, v);
            }
        }
        if live {
            Some(row)
        } else {
            None
        }
    }

    /// The live rows `filter` matches, in key order. The shared key rule
    /// narrows each run (CQL requires the partition key on writes, so a
    /// point lookup is also what the real engine would do); the merged
    /// image of every candidate is then checked against the filter.
    fn matching(&self, filter: &Filter) -> Vec<(Id, Row)> {
        let mut ids: BTreeSet<Id> = BTreeSet::new();
        for run in self.sstables.iter().chain(std::iter::once(&self.memtable)) {
            ids.extend(Keys::of(filter).over(run).map(|(id, _)| id));
        }
        ids.into_iter()
            .filter_map(|id| self.read_row(id).map(|row| (id, row)))
            .filter(|(id, row)| filter.matches(*id, row))
            .collect()
    }
}

/// The columnar/LSM engine. See the module docs.
pub struct ColumnarDb {
    caps: Capabilities,
    meter: OpMeter,
    families: Mutex<HashMap<String, ColumnFamily>>,
    clock: AtomicU64,
    /// Fault panel: compaction stalls queue the write path behind a
    /// simulated background compaction (the LSM failure class where
    /// compaction saturates the disk and foreground writes back up).
    faults: DbFaults,
}

impl ColumnarDb {
    /// Creates an engine with the given vendor capabilities and latency.
    pub fn new(caps: Capabilities, latency: LatencyModel) -> Self {
        ColumnarDb {
            caps,
            meter: OpMeter::new(latency),
            families: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(1),
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
                fams.entry(table.clone()).or_default();
                Ok(QueryResult::Unit)
            }
            Query::DropTable { table } => {
                fams.remove(table);
                Ok(QueryResult::Unit)
            }
            Query::Insert { table, id, row } => {
                let fam = fams.entry(table.clone()).or_default();
                if fam.read_row(*id).is_some() {
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
                fam.maybe_flush();
                Ok(QueryResult::AffectedIds(vec![*id]))
            }
            Query::Update {
                table,
                filter,
                set,
                unset,
            } => {
                let fam = fams.entry(table.clone()).or_default();
                let ids: Vec<Id> = fam.matching(filter).into_iter().map(|(id, _)| id).collect();
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
                fam.maybe_flush();
                Ok(QueryResult::AffectedIds(ids))
            }
            Query::Delete { table, filter } => {
                let fam = fams.entry(table.clone()).or_default();
                let ids: Vec<Id> = fam.matching(filter).into_iter().map(|(id, _)| id).collect();
                let ts = self.tick();
                for id in &ids {
                    fam.write_cells(*id, ts, [(ROW_TOMBSTONE.to_owned(), None)]);
                }
                fam.maybe_flush();
                Ok(QueryResult::AffectedIds(ids))
            }
            Query::Select {
                table,
                filter,
                order,
                limit,
            } => {
                let mut rows = fams
                    .get(table)
                    .map_or_else(Vec::new, |fam| fam.matching(filter));
                sort_rows(&mut rows, order, *limit);
                Ok(QueryResult::Rows(rows))
            }
            Query::Count { table, filter } => Ok(QueryResult::Count(
                fams.get(table)
                    .map_or(0, |fam| fam.matching(filter).len() as u64),
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
        let live = fams.values().flat_map(|fam| fam.matching(&Filter::All));
        self.meter.stats(live.map(|(_, row)| row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use crate::query::Filter;

    fn db() -> ColumnarDb {
        profiles::cassandra(LatencyModel::off())
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
        {
            let mut fams = db.families.lock();
            let fam = fams.get_mut("t").unwrap();
            // Force flush + compaction regardless of thresholds.
            let run = std::mem::take(&mut fam.memtable);
            fam.sstables.push(run);
            fam.compact();
            let compacted = fam.sstables.last().unwrap();
            let cols = compacted.get(&Id(1)).unwrap();
            assert!(cols.contains_key(ROW_TOMBSTONE));
            assert!(!cols.contains_key("a"), "shadowed cell must be GC'd");
        }
        assert!(select_all(&db, "t").is_empty());
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

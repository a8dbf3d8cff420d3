//! What every engine family shares: one key-ordered row table, one rule
//! for which filters are answered from the primary key, one order/limit
//! step and one op meter.
//!
//! The paper keeps per-database support small because every store offers
//! the same create/update/delete minimum (§4.1). The families differ in
//! what they build *around* that minimum — secondary indexes, row locks and
//! the 2PC overlay (relational), postings and refresh lag (search),
//! adjacency lists (graph), write concern (document) — and the LSM engine
//! keeps its own storage, using only the key rule, the ordering and the
//! meter from here.

use crate::engine::EngineStats;
use crate::error::DbError;
use crate::latency::LatencyModel;
use crate::query::{Filter, OrderBy, Query, Row};
use std::borrow::Borrow;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use synapse_model::{Id, Value};

/// The primary keys a filter can possibly match. A narrowing, not an
/// answer: callers still apply `filter.matches` to every candidate.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Keys {
    /// Exactly this key (a by-id filter: no list to allocate).
    One(Id),
    /// Exactly these keys, ascending, each once.
    Ids(Vec<Id>),
    /// Every key strictly greater than this one.
    After(Id),
    /// The full key range.
    All,
}

impl Keys {
    /// The key-narrowing rule. A conjunction takes the first term that pins
    /// ids, else the first that bounds the range from below.
    pub(crate) fn of(filter: &Filter) -> Keys {
        match filter {
            Filter::ById(id) => Keys::One(*id),
            Filter::IdIn(ids) => Keys::ids(ids.iter().copied()),
            Filter::IdAfter(after) => Keys::After(*after),
            Filter::And(terms) => {
                let mut bound = Keys::All;
                for term in terms {
                    match Keys::of(term) {
                        after @ Keys::After(_) if bound == Keys::All => bound = after,
                        Keys::After(_) | Keys::All => {}
                        pinned => return pinned,
                    }
                }
                bound
            }
            Filter::Eq(..) | Filter::All => Keys::All,
        }
    }

    /// Exact keys from any source (an `IdIn` list, a secondary index).
    pub(crate) fn ids(ids: impl IntoIterator<Item = Id>) -> Keys {
        let mut ids: Vec<Id> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        Keys::Ids(ids)
    }

    /// The entries of `map` under these keys, in ascending key order.
    pub(crate) fn over<'a, V>(
        self,
        map: &'a BTreeMap<Id, V>,
    ) -> impl DoubleEndedIterator<Item = (Id, &'a V)> + 'a {
        let (one, ids, from) = match self {
            Keys::One(id) => (Some(id), Vec::new(), None),
            Keys::Ids(ids) => (None, ids, None),
            Keys::After(after) => (None, Vec::new(), Some(Bound::Excluded(after))),
            Keys::All => (None, Vec::new(), Some(Bound::Unbounded)),
        };
        let exact = one.into_iter().chain(ids);
        let range = from
            .into_iter()
            .flat_map(|from| map.range((from, Bound::Unbounded)));
        exact
            .filter_map(|id| Some((id, map.get(&id)?)))
            .chain(range.map(|(id, v)| (*id, v)))
    }
}

/// Rows by primary key, in key order.
#[derive(Debug, Default, Clone)]
pub(crate) struct RowTable {
    rows: BTreeMap<Id, Row>,
}

impl RowTable {
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn get(&self, id: Id) -> Option<&Row> {
        self.rows.get(&id)
    }

    /// Every stored row, in key order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &Row> {
        self.rows.values()
    }

    /// The rows under `keys` that `filter` matches, in key order. For
    /// callers with a narrowing of their own (a secondary index).
    pub(crate) fn among<'a>(
        &'a self,
        keys: Keys,
        filter: &'a Filter,
    ) -> impl DoubleEndedIterator<Item = (Id, &'a Row)> + 'a {
        keys.over(&self.rows)
            .filter(move |(id, row)| filter.matches(*id, row))
    }

    /// The rows `filter` matches, in key order.
    pub(crate) fn matching<'a>(
        &'a self,
        filter: &'a Filter,
    ) -> impl DoubleEndedIterator<Item = (Id, &'a Row)> + 'a {
        self.among(Keys::of(filter), filter)
    }

    /// Keys of the rows `filter` matches, ascending.
    pub(crate) fn ids(&self, filter: &Filter) -> Vec<Id> {
        self.matching(filter).map(|(id, _)| id).collect()
    }

    pub(crate) fn count(&self, filter: &Filter) -> u64 {
        self.matching(filter).count() as u64
    }

    pub(crate) fn select(
        &self,
        filter: &Filter,
        order: &Option<OrderBy>,
        limit: Option<usize>,
    ) -> Vec<(Id, Row)> {
        select(self.matching(filter), order, limit)
    }

    /// Stores a new row and returns it as stored; a key already present is
    /// a duplicate on `table`.
    pub(crate) fn insert(&mut self, table: &str, id: Id, row: Row) -> Result<&Row, DbError> {
        match self.rows.entry(id) {
            Entry::Occupied(_) => Err(DbError::DuplicateKey {
                table: table.to_owned(),
                key: id.to_string(),
            }),
            Entry::Vacant(slot) => Ok(slot.insert(row)),
        }
    }

    /// Applies `set`/`unset` to each row of `ids` still present, in order,
    /// handing `each` its id, old image (a copy, when `keep_old`) and new.
    /// The last id's row takes `set` itself; any before it take a copy.
    pub(crate) fn update(
        &mut self,
        ids: &[Id],
        mut set: Row,
        unset: &[String],
        keep_old: bool,
        mut each: impl FnMut(Id, Option<Row>, &Row),
    ) {
        for (n, id) in ids.iter().enumerate() {
            if let Some(row) = self.rows.get_mut(id) {
                let old = keep_old.then(|| row.clone());
                let set = if n + 1 == ids.len() {
                    std::mem::take(&mut set)
                } else {
                    set.clone()
                };
                apply_changes(row, set, unset);
                each(*id, old, row);
            }
        }
    }

    /// Removes each row of `ids` still present. Returns the old images in
    /// the order of `ids`.
    pub(crate) fn delete(&mut self, ids: &[Id]) -> Vec<(Id, Row)> {
        ids.iter()
            .filter_map(|id| self.rows.remove(id).map(|row| (*id, row)))
            .collect()
    }
}

/// The namespace `name` (table, index, family…), created on first use.
pub(crate) fn namespace<'a, T: Default>(
    spaces: &'a mut HashMap<String, T>,
    name: &str,
) -> &'a mut T {
    if !spaces.contains_key(name) {
        spaces.insert(name.to_owned(), T::default());
    }
    spaces.get_mut(name).expect("present or just inserted")
}

/// Applies an update's `set`/`unset` to a row image, moving `set` into it.
pub(crate) fn apply_changes(row: &mut Row, set: Row, unset: &[String]) {
    row.extend(set);
    for k in unset {
        row.remove(k);
    }
}

/// Orders and limits rows that arrive in ascending key order. The default
/// and `id` orders read the keys as they come (or from the far end), so a
/// limit stops the scan at the limit; any other field needs every row.
pub(crate) fn select<'a>(
    rows: impl DoubleEndedIterator<Item = (Id, &'a Row)>,
    order: &Option<OrderBy>,
    limit: Option<usize>,
) -> Vec<(Id, Row)> {
    let owned = |(id, row): (Id, &Row)| (id, row.clone());
    let n = limit.unwrap_or(usize::MAX);
    match order {
        Some(o) if o.field != "id" => {
            let mut rows: Vec<(Id, Row)> = rows.map(owned).collect();
            sort_rows(&mut rows, order, limit);
            rows
        }
        Some(o) if !o.ascending => rows.rev().take(n).map(owned).collect(),
        _ => rows.take(n).map(owned).collect(),
    }
}

/// Sorts rows per `order` (default: primary-key order), then keeps the
/// first `limit`.
pub(crate) fn sort_rows(rows: &mut Vec<(Id, Row)>, order: &Option<OrderBy>, limit: Option<usize>) {
    if let Some(o) = order {
        if o.field == "id" {
            rows.sort_by_key(|(id, _)| *id);
        } else {
            rows.sort_by(|(_, a), (_, b)| {
                let av = a.get(&o.field).cloned().unwrap_or(Value::Null);
                let bv = b.get(&o.field).cloned().unwrap_or(Value::Null);
                av.cmp(&bv)
            });
        }
        if !o.ascending {
            rows.reverse();
        }
    } else {
        rows.sort_by_key(|(id, _)| *id);
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }
}

/// Per-engine operation accounting: read/write counters, the synthetic
/// latency charge, and the rows/bytes fold behind [`EngineStats`].
pub(crate) struct OpMeter {
    latency: LatencyModel,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl OpMeter {
    pub(crate) fn new(latency: LatencyModel) -> Self {
        OpMeter {
            latency,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// Counts `q` as a read or a write and charges its latency (DDL is
    /// neither).
    pub(crate) fn charge(&self, q: &Query) {
        if q.is_write() {
            self.writes.fetch_add(1, Ordering::Relaxed);
            self.latency.charge_write();
        } else if q.is_read() {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.latency.charge_read();
        }
    }

    /// The counters so far, over the rows the engine currently stores.
    pub(crate) fn stats<R: Borrow<Row>>(&self, stored: impl IntoIterator<Item = R>) -> EngineStats {
        let mut stats = EngineStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            rows: 0,
            bytes: 0,
        };
        for row in stored {
            stats.rows += 1;
            stats.bytes += row
                .borrow()
                .iter()
                .map(|(k, v)| k.len() + v.approx_size())
                .sum::<usize>() as u64;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_conjunction_prefers_ids_then_a_bound() {
        let eq = Filter::Eq("n".into(), Value::Int(1));
        let after = |n| Filter::IdAfter(Id(n));
        let and = |terms: &[Filter]| Keys::of(&Filter::And(terms.to_vec()));
        assert_eq!(and(&[eq.clone(), Filter::All]), Keys::All);
        assert_eq!(and(&[eq.clone(), after(4), after(9)]), Keys::After(Id(4)));
        assert_eq!(
            and(&[
                after(4),
                eq.clone(),
                Filter::IdIn(vec![Id(7), Id(2), Id(7)])
            ]),
            Keys::Ids(vec![Id(2), Id(7)]),
            "ids win over an earlier bound, sorted, each once"
        );
        assert_eq!(
            and(&[eq, Filter::And(vec![after(4), Filter::ById(Id(3))])]),
            Keys::One(Id(3)),
            "a nested conjunction narrows like any other term"
        );
    }

    #[test]
    fn a_limit_in_key_order_stops_the_scan_at_the_limit() {
        let mut table = RowTable::default();
        for id in 1..=1000 {
            table.insert("t", Id(id), Row::new()).unwrap();
        }
        let read = |filter: &Filter, ascending: bool| {
            let mut consulted = Vec::new();
            let order = Some(OrderBy {
                field: "id".into(),
                ascending,
            });
            let rows = select(
                table
                    .matching(filter)
                    .inspect(|(id, _)| consulted.push(*id)),
                &order,
                Some(3),
            );
            assert_eq!(rows.len(), 3);
            consulted
        };
        assert_eq!(
            read(&Filter::IdAfter(Id(500)), true),
            vec![Id(501), Id(502), Id(503)],
            "nothing at or below the bound, nothing past the limit"
        );
        assert_eq!(
            read(&Filter::All, false),
            vec![Id(1000), Id(999), Id(998)],
            "descending key order reads from the far end"
        );
    }
}

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
    db.execute(Query::Insert {
        table: "t".into(),
        id: Id(id),
        row: row(pairs),
    })
    .unwrap();
}

fn delete(db: &ColumnarDb, id: u64) {
    db.execute(Query::Delete {
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
    db.execute(Query::Select {
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
        .execute(Query::Insert {
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
    db.execute(Query::Insert {
        table: "t".into(),
        id: Id(1),
        row: row(&[("a", 1.into()), ("b", 1.into())]),
    })
    .unwrap();
    db.execute(Query::Update {
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
    db.execute(Query::Insert {
        table: "t".into(),
        id: Id(1),
        row: row(&[("a", 1.into())]),
    })
    .unwrap();
    db.execute(Query::Delete {
        table: "t".into(),
        filter: Filter::ById(Id(1)),
    })
    .unwrap();
    assert!(select_all(&db, "t").is_empty());
    // Re-insert after deletion resurrects the row with only new cells.
    db.execute(Query::Insert {
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
        db.execute(Query::Insert {
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
        .execute(Query::Select {
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
        .execute(Query::Select {
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
            .execute(Query::Select {
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
        (filter(), row(), Just(Vec::new())).prop_map(|(f, set, unset)| Step::Update(f, set, unset)),
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
            let (ours, theirs) = (lsm.execute(q.clone()), reference.execute(q.clone()));
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

/// A by-id count is the row's liveness: it builds no row, and it agrees
/// with a by-id select through flushes, compactions, row tombstones and
/// re-inserts.
#[test]
fn a_by_id_count_is_the_rows_liveness_and_builds_no_row() {
    let db = db_with_thresholds(6, 3);
    let count = |id| {
        let filter = Filter::ById(Id(id));
        let q = Query::Count {
            table: "t".into(),
            filter,
        };
        db.execute(q).unwrap().into_count().unwrap()
    };
    let found = |id| {
        let q = Query::Select {
            table: "t".into(),
            filter: Filter::ById(Id(id)),
            order: None,
            limit: Some(1),
        };
        !db.execute(q).unwrap().into_rows().unwrap().is_empty()
    };
    for round in 0..60u64 {
        let id = round * 5 % 8;
        match round % 3 {
            0 => {
                let _ = db.execute(Query::Insert {
                    table: "t".into(),
                    id: Id(id),
                    row: row(&[("n", Value::Int(round as i64))]),
                });
            }
            1 => {
                db.execute(Query::Update {
                    table: "t".into(),
                    filter: Filter::ById(Id(id)),
                    set: row(&[("n", Value::Int(round as i64))]),
                    unset: Vec::new(),
                })
                .unwrap();
            }
            _ => delete(&db, id),
        }
        for id in 0..8 {
            let merged = ROWS_MERGED.with(|n| n.get());
            let n = count(id);
            assert_eq!(ROWS_MERGED.with(|n| n.get()), merged, "round {round}");
            assert_eq!(n, u64::from(found(id)), "round {round}, id {id}");
        }
    }
    let (flushes, compactions) = db.lsm_counters();
    assert!(
        flushes >= 6 && compactions >= 2,
        "{flushes} flushes, {compactions} compactions"
    );
}

#[test]
fn duplicate_insert_rejected() {
    let db = db();
    db.execute(Query::Insert {
        table: "t".into(),
        id: Id(1),
        row: Row::new(),
    })
    .unwrap();
    assert!(matches!(
        db.execute(Query::Insert {
            table: "t".into(),
            id: Id(1),
            row: Row::new(),
        }),
        Err(DbError::DuplicateKey { .. })
    ));
}

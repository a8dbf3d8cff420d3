use super::*;
use crate::profiles;
use crate::query::OrderBy;

fn db() -> RelationalDb {
    profiles::postgresql(LatencyModel::off())
}

fn row(pairs: &[(&str, Value)]) -> Row {
    pairs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.clone()))
        .collect()
}

fn insert(db: &RelationalDb, table: &str, id: u64, r: Row) -> QueryResult {
    db.execute(Query::Insert {
        table: table.into(),
        id: Id(id),
        row: r,
    })
    .unwrap()
}

#[test]
fn insert_select_roundtrip() {
    let db = db();
    db.execute(Query::CreateTable {
        table: "users".into(),
    })
    .unwrap();
    insert(&db, "users", 1, row(&[("name", "alice".into())]));
    let rows = db
        .execute(Query::Select {
            table: "users".into(),
            filter: Filter::ById(Id(1)),
            order: None,
            limit: None,
        })
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1.get("name"), Some(&Value::from("alice")));
}

#[test]
fn id_after_with_limit_pages_the_table_in_order() {
    let db = db();
    db.execute(Query::CreateTable { table: "t".into() })
        .unwrap();
    for id in 1..=7 {
        insert(&db, "t", id, row(&[("n", (id as i64).into())]));
    }
    let page = |after: u64, limit: usize| -> Vec<Id> {
        db.execute(Query::Select {
            table: "t".into(),
            filter: Filter::IdAfter(Id(after)),
            order: Some(OrderBy {
                field: "id".into(),
                ascending: true,
            }),
            limit: Some(limit),
        })
        .unwrap()
        .into_rows()
        .unwrap()
        .into_iter()
        .map(|(id, _)| id)
        .collect()
    };
    assert_eq!(page(0, 3), vec![Id(1), Id(2), Id(3)]);
    assert_eq!(page(3, 3), vec![Id(4), Id(5), Id(6)]);
    assert_eq!(page(6, 3), vec![Id(7)], "short final page");
    assert_eq!(page(7, 3), Vec::<Id>::new(), "exhausted");
}

#[test]
fn returning_echoes_written_rows_on_postgres() {
    let db = db();
    db.execute(Query::CreateTable { table: "t".into() })
        .unwrap();
    let res = insert(&db, "t", 1, row(&[("a", 1.into())]));
    assert!(matches!(res, QueryResult::Rows(_)));
}

#[test]
fn mysql_returns_only_affected_ids() {
    let db = profiles::mysql(LatencyModel::off());
    db.execute(Query::CreateTable { table: "t".into() })
        .unwrap();
    let res = insert(&db, "t", 1, row(&[("a", 1.into())]));
    assert_eq!(res, QueryResult::AffectedIds(vec![Id(1)]));
    let res = db
        .execute(Query::Update {
            table: "t".into(),
            filter: Filter::ById(Id(1)),
            set: row(&[("a", 2.into())]),
            unset: vec![],
        })
        .unwrap();
    assert_eq!(res, QueryResult::AffectedIds(vec![Id(1)]));
}

#[test]
fn duplicate_key_rejected() {
    let db = db();
    db.execute(Query::CreateTable { table: "t".into() })
        .unwrap();
    insert(&db, "t", 1, Row::new());
    let err = db
        .execute(Query::Insert {
            table: "t".into(),
            id: Id(1),
            row: Row::new(),
        })
        .unwrap_err();
    assert!(matches!(err, DbError::DuplicateKey { .. }));
}

#[test]
fn missing_table_is_an_error() {
    let db = db();
    let err = db
        .execute(Query::Select {
            table: "ghost".into(),
            filter: Filter::All,
            order: None,
            limit: None,
        })
        .unwrap_err();
    assert_eq!(err, DbError::NoSuchTable("ghost".into()));
}

#[test]
fn strict_columns_reject_unknown_fields() {
    let db = db();
    db.define_columns("users", &["name", "email"]);
    insert(&db, "users", 1, row(&[("name", "a".into())]));
    let err = db
        .execute(Query::Insert {
            table: "users".into(),
            id: Id(2),
            row: row(&[("interests", "x".into())]),
        })
        .unwrap_err();
    assert!(matches!(err, DbError::SchemaViolation(_)));
}

#[test]
fn update_with_filter_changes_all_matches() {
    let db = db();
    db.execute(Query::CreateTable { table: "t".into() })
        .unwrap();
    for i in 1..=3 {
        insert(&db, "t", i, row(&[("group", "a".into())]));
    }
    insert(&db, "t", 4, row(&[("group", "b".into())]));
    let res = db
        .execute(Query::Update {
            table: "t".into(),
            filter: Filter::Eq("group".into(), "a".into()),
            set: row(&[("flag", true.into())]),
            unset: vec![],
        })
        .unwrap();
    assert_eq!(res.affected_ids().len(), 3);
}

#[test]
fn delete_removes_rows_and_returns_them() {
    let db = db();
    db.execute(Query::CreateTable { table: "t".into() })
        .unwrap();
    insert(&db, "t", 1, row(&[("a", 1.into())]));
    let res = db
        .execute(Query::Delete {
            table: "t".into(),
            filter: Filter::ById(Id(1)),
        })
        .unwrap();
    assert_eq!(res.affected_ids(), vec![Id(1)]);
    let count = db
        .execute(Query::Count {
            table: "t".into(),
            filter: Filter::All,
        })
        .unwrap()
        .into_count()
        .unwrap();
    assert_eq!(count, 0);
}

#[test]
fn secondary_index_serves_eq_filters() {
    let db = db();
    db.execute(Query::CreateTable { table: "t".into() })
        .unwrap();
    for i in 1..=100 {
        insert(&db, "t", i, row(&[("bucket", Value::Int((i % 10) as i64))]));
    }
    db.create_index("t", "bucket");
    let rows = db
        .execute(Query::Select {
            table: "t".into(),
            filter: Filter::Eq("bucket".into(), Value::Int(3)),
            order: None,
            limit: None,
        })
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(rows.len(), 10);
    // Updates must keep the index consistent.
    db.execute(Query::Update {
        table: "t".into(),
        filter: Filter::ById(Id(3)),
        set: row(&[("bucket", Value::Int(7))]),
        unset: vec![],
    })
    .unwrap();
    let rows = db
        .execute(Query::Select {
            table: "t".into(),
            filter: Filter::Eq("bucket".into(), Value::Int(3)),
            order: None,
            limit: None,
        })
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(rows.len(), 9);
}

#[test]
fn select_order_and_limit() {
    let db = db();
    db.execute(Query::CreateTable { table: "t".into() })
        .unwrap();
    for (i, n) in [(1u64, 30i64), (2, 10), (3, 20)] {
        insert(&db, "t", i, row(&[("n", n.into())]));
    }
    let rows = db
        .execute(Query::Select {
            table: "t".into(),
            filter: Filter::All,
            order: Some(OrderBy {
                field: "n".into(),
                ascending: false,
            }),
            limit: Some(2),
        })
        .unwrap()
        .into_rows()
        .unwrap();
    let ns: Vec<i64> = rows.iter().map(|(_, r)| r["n"].as_int().unwrap()).collect();
    assert_eq!(ns, vec![30, 20]);
}

#[test]
fn stats_track_rows_and_ops() {
    let db = db();
    db.execute(Query::CreateTable { table: "t".into() })
        .unwrap();
    insert(&db, "t", 1, row(&[("a", 1.into())]));
    let _ = db.execute(Query::Select {
        table: "t".into(),
        filter: Filter::All,
        order: None,
        limit: None,
    });
    let s = db.stats();
    assert_eq!(s.rows, 1);
    assert_eq!(s.writes, 1);
    assert_eq!(s.reads, 1);
    assert!(s.bytes > 0);
}

#[test]
fn filter_matching_on_array_values() {
    let db = db();
    db.execute(Query::CreateTable { table: "t".into() })
        .unwrap();
    let tags = synapse_model::varray!["cats", "dogs"];
    insert(&db, "t", 1, row(&[("tags", tags.clone())]));
    let rows = db
        .execute(Query::Select {
            table: "t".into(),
            filter: Filter::Eq("tags".into(), tags),
            order: None,
            limit: None,
        })
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(rows.len(), 1);
}

//! The engine contract every storing family keeps, now that a write hands
//! its row over by value: after each step of a random history of inserts,
//! updates (`set` and `unset`) and deletes run through `Engine::execute`,
//! every engine agrees with a plain `BTreeMap<Id, Row>` reference.
//!
//! * a by-id `Select` of every id returns the reference's row;
//! * a write's `RETURNING *` echo is the row it stored (an update's
//!   post-image, a delete's pre-image), and an engine without `RETURNING`
//!   reports exactly the ids the reference wrote;
//! * a `Filter::Eq` select answers as a scan of the reference does, which on
//!   the relational engines is the secondary index's answer.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use synapse_db::relational::RelationalDb;
use synapse_db::{profiles, DbError, Engine, Filter, LatencyModel, Query, QueryResult, Row};
use synapse_model::{Id, Value};

const TABLE: &str = "t";
/// Ids run over `0..IDS`, so inserts collide and filters match often.
const IDS: u64 = 6;
const FIELDS: [&str; 3] = ["a", "b", "c"];
/// The relational engines index these fields; the rest they scan.
const INDEXED: [&str; 2] = ["a", "b"];

#[derive(Debug, Clone)]
enum Step {
    Insert(Id, Row),
    Update(Filter, Row, Vec<String>),
    Delete(Filter),
}

fn values() -> Vec<Value> {
    vec![Value::Int(0), Value::Int(1), Value::from("x"), Value::Null]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..2).prop_map(Value::Int),
        Just(Value::from("x")),
        Just(Value::Null)
    ]
}

fn arb_field() -> impl Strategy<Value = String> {
    prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(str::to_owned)
}

fn arb_step() -> impl Strategy<Value = Step> {
    let row = || prop::collection::vec((arb_field(), arb_value()), 0..4);
    let row = move || row().prop_map(|fields| fields.into_iter().collect::<Row>());
    let id = || (0..IDS).prop_map(Id);
    let filter = move || {
        prop_oneof![
            id().prop_map(Filter::ById),
            id().prop_map(Filter::ById),
            (arb_field(), arb_value()).prop_map(|(f, v)| Filter::Eq(f, v)),
            Just(Filter::All),
        ]
    };
    let unset = prop::collection::vec(arb_field(), 0..2);
    prop_oneof![
        (id(), row()).prop_map(|(id, row)| Step::Insert(id, row)),
        (id(), row()).prop_map(|(id, row)| Step::Insert(id, row)),
        (filter(), row(), unset).prop_map(|(f, set, unset)| Step::Update(f, set, unset)),
        filter().prop_map(Step::Delete),
    ]
}

/// Every storing family, with both relational `RETURNING` behaviours.
fn engines() -> Vec<(&'static str, Arc<dyn Engine>)> {
    let indexed = |db: RelationalDb| {
        for field in INDEXED {
            db.create_index(TABLE, field);
        }
        Arc::new(db) as Arc<dyn Engine>
    };
    let off = LatencyModel::off;
    let engines = vec![
        ("postgresql", indexed(profiles::postgresql(off()))),
        ("mysql", indexed(profiles::mysql(off()))),
        (
            "mongodb",
            Arc::new(profiles::mongodb(off())) as Arc<dyn Engine>,
        ),
        ("cassandra", Arc::new(profiles::cassandra(off()))),
        ("elasticsearch", Arc::new(profiles::elasticsearch(off()))),
        ("neo4j", Arc::new(profiles::neo4j(off()))),
    ];
    for (_, engine) in &engines {
        let table = TABLE.to_owned();
        engine.execute(Query::CreateTable { table }).unwrap();
    }
    engines
}

fn query(step: Step) -> Query {
    let table = TABLE.to_owned();
    match step {
        Step::Insert(id, row) => Query::Insert { table, id, row },
        Step::Update(filter, set, unset) => Query::Update {
            table,
            filter,
            set,
            unset,
        },
        Step::Delete(filter) => Query::Delete { table, filter },
    }
}

/// Applies `step` to the reference and returns what a `RETURNING *` echo
/// holds: the inserted or updated rows as stored, the deleted ones as they
/// were; `None` for an insert of an id already present.
fn apply(reference: &mut BTreeMap<Id, Row>, step: &Step) -> Option<Vec<(Id, Row)>> {
    let matching = |reference: &BTreeMap<Id, Row>, filter: &Filter| -> Vec<Id> {
        let hits = reference
            .iter()
            .filter(|(id, row)| filter.matches(**id, row));
        hits.map(|(id, _)| *id).collect()
    };
    match step {
        Step::Insert(id, _) if reference.contains_key(id) => None,
        Step::Insert(id, row) => {
            reference.insert(*id, row.clone());
            Some(vec![(*id, row.clone())])
        }
        Step::Update(filter, set, unset) => {
            let ids = matching(reference, filter);
            let written = ids.into_iter().map(|id| {
                let row = reference.get_mut(&id).expect("matched");
                row.extend(set.clone());
                for field in unset {
                    row.remove(field);
                }
                (id, row.clone())
            });
            Some(written.collect())
        }
        Step::Delete(filter) => {
            let ids = matching(reference, filter);
            let removed = ids
                .into_iter()
                .map(|id| (id, reference.remove(&id).unwrap()));
            Some(removed.collect())
        }
    }
}

fn select(engine: &dyn Engine, filter: Filter) -> Vec<(Id, Row)> {
    let table = TABLE.to_owned();
    let q = Query::Select {
        table,
        filter,
        order: None,
        limit: None,
    };
    let mut rows = engine.execute(q).unwrap().into_rows().unwrap();
    rows.sort_by_key(|(id, _)| *id);
    rows
}

/// The three checks, on one engine after one step whose echo the
/// reference predicted as `echo`.
fn check(
    vendor: &str,
    engine: &dyn Engine,
    result: Result<QueryResult, DbError>,
    echo: &Option<Vec<(Id, Row)>>,
    reference: &BTreeMap<Id, Row>,
) {
    match (result, echo) {
        (Err(DbError::DuplicateKey { .. }), None) => {}
        (Ok(QueryResult::Rows(mut rows)), Some(echo)) if engine.capabilities().returning => {
            rows.sort_by_key(|(id, _)| *id);
            assert_eq!(&rows, echo, "{vendor}: the echo is the row as stored");
        }
        (Ok(QueryResult::AffectedIds(mut ids)), Some(echo)) => {
            assert!(!engine.capabilities().returning, "{vendor} echoes no rows");
            ids.sort();
            let want: Vec<Id> = echo.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, want, "{vendor}: the ids written");
        }
        (other, _) => panic!("{vendor}: {other:?}, expected the echo {echo:?}"),
    }
    for id in (0..IDS).map(Id) {
        let want: Vec<(Id, Row)> = reference
            .get(&id)
            .map(|row| (id, row.clone()))
            .into_iter()
            .collect();
        assert_eq!(select(engine, Filter::ById(id)), want, "{vendor}: row {id}");
    }
    for field in FIELDS {
        for value in values() {
            let filter = Filter::Eq(field.to_owned(), value);
            let scan = reference
                .iter()
                .filter(|(id, row)| filter.matches(**id, row));
            let want: Vec<(Id, Row)> = scan.map(|(id, row)| (*id, row.clone())).collect();
            assert_eq!(select(engine, filter.clone()), want, "{vendor}: {filter:?}");
        }
    }
}

proptest! {
    #[test]
    fn every_engine_keeps_what_it_is_handed_after_every_step(
        steps in prop::collection::vec(arb_step(), 1..40),
    ) {
        let engines = engines();
        let mut reference = BTreeMap::new();
        for step in steps {
            let echo = apply(&mut reference, &step);
            for (vendor, engine) in &engines {
                let result = engine.execute(query(step.clone()));
                check(vendor, &**engine, result, &echo, &reference);
            }
        }
    }
}

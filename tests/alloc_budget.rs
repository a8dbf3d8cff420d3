//! Heap allocations per operation on the replicated-write path.
//!
//! A write pays for its row: one copy into the engine and one back out as
//! the image the ORM returns. Everything else a call allocates is
//! per-call overhead, and this test pins how much of it each stage may
//! have. The binary's global allocator counts allocations (and
//! reallocations) per thread, so tests running in parallel do not mix
//! their counts. Each row is measured as the fewest allocations over
//! several repetitions of the same operation on different objects, after
//! a warm-up, so a one-off B-tree split or buffer growth does not count.
//!
//! Run with `--nocapture` to print the table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use synapse_repro::core::testing::emulate_delivery;
use synapse_repro::core::{
    with_user_scope, DeliveryMode, DepName, Ecosystem, Operation, Publication, Subscription,
    SynapseConfig, SynapseNode, WriteMessage,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{Id, ModelSchema, Record, Value};
use synapse_repro::orm::adapters::for_vendor;
use synapse_repro::orm::Orm;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its caller's arguments unchanged to the
// system allocator, so `System`'s guarantees are this allocator's; the
// counter is a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn count<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    drop(out);
    after - before
}

/// The fewest allocations `op` makes over `REPS` runs, after `WARMUP`
/// unmeasured ones; `op(i)` runs the `i`-th repetition.
fn fewest(mut op: impl FnMut(u64) -> u64) -> u64 {
    for i in 0..WARMUP {
        op(i);
    }
    (WARMUP..WARMUP + REPS).map(op).min().expect("REPS > 0")
}

const WARMUP: u64 = 4;
const REPS: u64 = 8;
/// Rows in every engine's table before the measured operations.
const ROWS: u64 = 1_000;

/// One four-column row.
fn row(n: u64) -> Value {
    let mut m = BTreeMap::new();
    m.insert("author_id".to_owned(), Value::Int((n % 97) as i64));
    m.insert("body".to_owned(), Value::from("a short body of text"));
    m.insert("stamp".to_owned(), Value::Int(n as i64));
    m.insert("title".to_owned(), Value::from("title"));
    Value::Map(m)
}

fn one_field(n: u64) -> Value {
    let mut m = BTreeMap::new();
    m.insert("stamp".to_owned(), Value::Int(n as i64 + 1));
    Value::Map(m)
}

const FIELDS: [&str; 4] = ["author_id", "body", "stamp", "title"];

fn schema(vendor: &str) -> ModelSchema {
    match vendor {
        "postgresql" | "mysql" => FIELDS
            .iter()
            .fold(ModelSchema::new("Post"), |s, f| s.field(*f)),
        _ => ModelSchema::open("Post"),
    }
}

/// `(find, create, update, destroy)` allocations on a bare ORM over
/// `vendor`'s engine.
fn crud(vendor: &str) -> [u64; 4] {
    let orm = Orm::new("app", for_vendor(vendor, LatencyModel::off()));
    orm.define_model(schema(vendor)).unwrap();
    for n in 1..=ROWS {
        orm.create_with_id("Post", Id(n), row(n)).unwrap();
    }
    let find = fewest(|i| count(|| orm.find("Post", Id(1 + i)).unwrap().unwrap()));
    let create = fewest(|i| {
        let (id, attrs) = (Id(ROWS + 1 + i), row(ROWS + 1 + i));
        count(|| orm.create_with_id("Post", id, attrs).unwrap())
    });
    let update = fewest(|i| {
        let changes = one_field(100 + i);
        count(|| orm.update("Post", Id(100 + i), changes).unwrap())
    });
    let destroy = fewest(|i| count(|| orm.destroy("Post", Id(200 + i)).unwrap()));
    [find, create, update, destroy]
}

/// A publisher over PostgreSQL with a bound, idle subscriber queue on the
/// memory broker.
fn publishing_pair(mode: DeliveryMode) -> (Ecosystem, Arc<SynapseNode>) {
    let eco = Ecosystem::new();
    let publisher = eco.add_node(
        SynapseConfig::new("pub1").mode(mode),
        for_vendor("postgresql", LatencyModel::off()),
    );
    publisher.orm().define_model(schema("postgresql")).unwrap();
    publisher
        .publish(Publication::model("Post").fields(&FIELDS))
        .unwrap();
    let subscriber = eco.add_node(
        SynapseConfig::new("sub1").mode(mode),
        for_vendor("postgresql", LatencyModel::off()),
    );
    subscriber.orm().define_model(schema("postgresql")).unwrap();
    subscriber
        .subscribe(Subscription::model("Post", "pub1").fields(&FIELDS))
        .unwrap();
    (eco, publisher)
}

/// Allocations of one intercepted create inside a user scope.
fn intercepted_publish(mode: DeliveryMode) -> u64 {
    let (_eco, publisher) = publishing_pair(mode);
    let orm = publisher.orm();
    let user = DepName::object("pub1", "User", Id(1));
    fewest(|i| {
        let (id, attrs, user) = (Id(1 + i), row(1 + i), user.clone());
        count(|| with_user_scope(user, || orm.create_with_id("Post", id, attrs).unwrap()))
    })
}

/// Allocations of a two-create transaction inside a user scope, which
/// publishes one combined message.
fn transaction_publish(mode: DeliveryMode) -> u64 {
    let (_eco, publisher) = publishing_pair(mode);
    let orm = publisher.orm();
    let user = DepName::object("pub1", "User", Id(1));
    fewest(|i| {
        let (first, second) = (1 + 2 * i, 2 + 2 * i);
        let (a, b, user) = (row(first), row(second), user.clone());
        count(|| {
            with_user_scope(user, || {
                publisher.transaction(|| {
                    orm.create_with_id("Post", Id(first), a).unwrap();
                    orm.create_with_id("Post", Id(second), b).unwrap()
                })
            })
        })
    })
}

/// `(create, update)` allocations of `Subscriber::process` on a
/// PostgreSQL subscriber in causal mode.
fn subscriber_process() -> [u64; 2] {
    let eco = Ecosystem::new();
    eco.add_node(
        SynapseConfig::new("pub1"),
        for_vendor("postgresql", LatencyModel::off()),
    );
    let sub = eco.add_node(
        SynapseConfig::new("sub1"),
        for_vendor("postgresql", LatencyModel::off()),
    );
    sub.orm().define_model(schema("postgresql")).unwrap();
    sub.subscribe(Subscription::model("Post", "pub1").fields(&FIELDS))
        .unwrap();
    sub.set_publisher_mode("pub1", DeliveryMode::Causal);
    let space = sub.config().dep_space;
    let delivery = |operation: &str, n: u64, stamp: u64, version: u64| {
        let mut attrs = match row(n) {
            Value::Map(m) => m,
            _ => unreachable!(),
        };
        attrs.insert("stamp".to_owned(), Value::Int(stamp as i64));
        let key = space.key(&DepName::object("pub1", "Post", Id(n)));
        emulate_delivery(&WriteMessage {
            app: "pub1".to_owned(),
            operations: vec![Operation::from_record(
                operation,
                Record::with_attrs("Post", Id(n), attrs),
            )],
            dependencies: [(key, version)].into_iter().collect(),
            published_at: 0,
            generation: 1,
            vectors: BTreeMap::new(),
        })
    };
    let process = sub.subscriber();
    let create = fewest(|i| {
        let d = delivery("create", 1 + i, 0, 0);
        count(|| process.process(&d).unwrap())
    });
    let update = fewest(|i| {
        let d = delivery("update", 1 + i, 1, 1);
        count(|| process.process(&d).unwrap())
    });
    [create, update]
}

/// `(row, allocations, ceiling)`.
type Row = (String, u64, u64);

fn check(rows: &[Row]) {
    let mut table = format!("{:<36} {:>6} {:>8}\n", "operation", "allocs", "ceiling");
    for (name, got, ceiling) in rows {
        table += &format!("{name:<36} {got:>6} {ceiling:>8}\n");
    }
    print!("{table}");
    let over: Vec<&Row> = rows.iter().filter(|(_, got, c)| got > c).collect();
    assert!(over.is_empty(), "over their ceilings: {over:?}");
}

#[test]
fn engine_crud_stays_within_its_allocation_ceilings() {
    // (vendor, [find, create, update, destroy] ceilings)
    let ceilings: [(&str, [u64; 4]); 5] = [
        ("postgresql", [12, 29, 28, 18]),
        ("mysql", [12, 31, 30, 25]),
        ("mongodb", [12, 29, 28, 18]),
        ("cassandra", [12, 32, 32, 26]),
        ("elasticsearch", [12, 31, 32, 20]),
    ];
    let mut rows = Vec::new();
    for (vendor, ceiling) in ceilings {
        let got = crud(vendor);
        for (k, op) in ["find", "create", "update", "destroy"].iter().enumerate() {
            rows.push((format!("{vendor} {op}"), got[k], ceiling[k]));
        }
    }
    check(&rows);
}

#[test]
fn replication_stays_within_its_allocation_ceilings() {
    let [create, update] = subscriber_process();
    check(&[
        (
            "publish create, weak".to_owned(),
            intercepted_publish(DeliveryMode::Weak),
            33,
        ),
        (
            "publish create, causal".to_owned(),
            intercepted_publish(DeliveryMode::Causal),
            33,
        ),
        (
            "publish 2-create transaction, causal".to_owned(),
            transaction_publish(DeliveryMode::Causal),
            74,
        ),
        ("Subscriber::process create".to_owned(), create, 60),
        ("Subscriber::process update".to_owned(), update, 61),
    ]);
}

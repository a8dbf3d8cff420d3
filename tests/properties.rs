//! Property-based tests (proptest) on the core invariants: wire-format
//! round-tripping, version-store protocol algebra, engine CRUD coherence
//! across all five families, and end-to-end replication convergence.

use proptest::prelude::*;
use std::collections::BTreeMap;
use synapse_repro::core::{normalize_dep_sets, DepName, Operation, WriteMessage};
use synapse_repro::db::query::OrderBy;
use synapse_repro::db::{profiles, Filter, LatencyModel, Query, QueryResult, Row};
use synapse_repro::model::{wire, Id, Value};
use synapse_repro::versionstore::{BumpScratch, DepWaitSet, VersionStore};

/// The bump script on fresh scratch buffers — the reference side of the
/// scratch-reuse properties.
fn bump_fresh(store: &VersionStore, deps: &[(u64, bool)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    store
        .publish_bump_into(deps, &mut BumpScratch::default(), &mut out)
        .unwrap();
    out
}

/// Strategy for arbitrary dynamic values (bounded depth).
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN/∞ intentionally encode as null.
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Float),
        "[a-zA-Z0-9 äöü❤\\\\\"\n\t]{0,24}".prop_map(Value::from),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            prop::collection::btree_map("[a-z_]{1,8}", inner, 0..5).prop_map(Value::Map),
        ]
    })
}

proptest! {
    /// Every value round-trips through the JSON wire format.
    #[test]
    fn wire_roundtrip(v in value_strategy()) {
        let encoded = wire::encode(&v);
        let decoded = wire::decode(&encoded).expect("canonical output parses");
        prop_assert_eq!(decoded, v);
    }

    /// Encoding is canonical: decode(encode(v)) re-encodes identically.
    #[test]
    fn wire_encoding_is_canonical(v in value_strategy()) {
        let once = wire::encode(&v);
        let twice = wire::encode(&wire::decode(&once).unwrap());
        prop_assert_eq!(once, twice);
    }

    /// Write messages round-trip through the broker payload format.
    #[test]
    fn message_roundtrip(
        ops in prop::collection::vec(
            ("[a-z]{4,8}", 1u64..1000, prop::collection::btree_map("[a-z]{1,6}", value_strategy(), 0..4)),
            1..4,
        ),
        deps in prop::collection::btree_map(any::<u64>(), any::<u64>(), 0..6),
        generation in 1u64..10,
    ) {
        let msg = WriteMessage {
            app: "prop".into(),
            operations: ops
                .into_iter()
                .map(|(op, id, attributes)| Operation {
                    operation: op,
                    types: vec!["Model".into()],
                    id: Id(id),
                    attributes,
                })
                .collect(),
            dependencies: deps,
            published_at: 42,
            generation,
            stamps: BTreeMap::new(),
        };
        let decoded = WriteMessage::decode(&msg.encode()).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// The publisher's linear hash-set dependency normalization must
    /// produce exactly the ordered `(write_deps, read_deps)` pair of the
    /// historical quadratic code: in-place `contains` dedup of each list,
    /// then dropping from reads every name present in writes.
    #[test]
    fn dep_normalization_matches_quadratic_reference(
        writes in prop::collection::vec(0u8..12, 0..24),
        reads in prop::collection::vec(0u8..12, 0..24),
    ) {
        fn quadratic_dedup(deps: &mut Vec<DepName>) {
            let mut i = 1;
            while i < deps.len() {
                if deps[..i].contains(&deps[i]) {
                    deps.remove(i);
                } else {
                    i += 1;
                }
            }
        }
        let name = |i: &u8| DepName::named(&format!("app/dep/{i}"));
        let mut new_writes: Vec<DepName> = writes.iter().map(name).collect();
        let mut new_reads: Vec<DepName> = reads.iter().map(name).collect();
        let mut old_writes = new_writes.clone();
        let mut old_reads = new_reads.clone();

        quadratic_dedup(&mut old_writes);
        quadratic_dedup(&mut old_reads);
        old_reads.retain(|d| !old_writes.contains(d));

        normalize_dep_sets(&mut new_writes, &mut new_reads);
        prop_assert_eq!(new_writes, old_writes);
        prop_assert_eq!(new_reads, old_reads);
    }

    /// `publish_bump_into` on reused scratch buffers is observationally
    /// identical to one on fresh buffers: replaying any script through both
    /// yields the same dependency values at every step (scratch reuse must
    /// leak nothing between calls).
    #[test]
    fn bump_into_replays_identically_to_bump(
        script in prop::collection::vec(
            prop::collection::vec((0u64..10, any::<bool>()), 1..6),
            1..24,
        ),
    ) {
        let reference = VersionStore::new(4);
        let reused = VersionStore::new(4);
        let mut scratch = BumpScratch::default();
        let mut out = Vec::new();
        for deps in &script {
            let expected = bump_fresh(&reference, deps);
            reused.publish_bump_into(deps, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(&out, &expected);
        }
    }

    /// Parallel publishers mixing reused and fresh scratch buffers never
    /// lose or duplicate an increment: final `ops` counters equal each key's total occurrence
    /// count, and every call returns values for exactly its keys in order.
    #[test]
    fn concurrent_mixed_bump_apis_count_every_increment(
        scripts in prop::collection::vec(
            prop::collection::vec(
                (prop::collection::vec((0u64..10, any::<bool>()), 1..4), any::<bool>()),
                1..12,
            ),
            2..4,
        ),
    ) {
        use std::sync::Arc;
        let store = Arc::new(VersionStore::new(4));
        let handles: Vec<_> = scripts
            .clone()
            .into_iter()
            .map(|script| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let mut scratch = BumpScratch::default();
                    let mut out = Vec::new();
                    for (deps, use_into) in script {
                        if use_into {
                            store
                                .publish_bump_into(&deps, &mut scratch, &mut out)
                                .unwrap();
                        } else {
                            out = bump_fresh(&store, &deps);
                        }
                        let keys: Vec<u64> = out.iter().map(|(k, _)| *k).collect();
                        let expected: Vec<u64> = deps.iter().map(|(k, _)| *k).collect();
                        assert_eq!(keys, expected, "values cover the call's keys in order");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for script in &scripts {
            for (deps, _) in script {
                for (k, _) in deps {
                    *counts.entry(*k).or_default() += 1;
                }
            }
        }
        for (key, count) in counts {
            prop_assert_eq!(store.ops(key).unwrap(), count);
        }
    }

    /// Version-store invariant: after any interleaving of bumps, `ops`
    /// equals the number of operations that referenced the key, and
    /// `version`-derived message values are monotone per key for writes.
    #[test]
    fn version_store_counters_are_consistent(
        script in prop::collection::vec((0u64..8, any::<bool>()), 1..64),
    ) {
        let store = VersionStore::new(3);
        let mut expected_ops: BTreeMap<u64, u64> = BTreeMap::new();
        let mut last_write_value: BTreeMap<u64, u64> = BTreeMap::new();
        for (key, is_write) in &script {
            let out = bump_fresh(&store, &[(*key, *is_write)]);
            let (_, value) = out[0];
            *expected_ops.entry(*key).or_default() += 1;
            if *is_write {
                // Write values strictly increase per key.
                if let Some(prev) = last_write_value.get(key) {
                    prop_assert!(value > *prev);
                }
                last_write_value.insert(*key, value);
            }
        }
        for (key, ops) in expected_ops {
            prop_assert_eq!(store.ops(key).unwrap(), ops);
        }
    }

    /// Subscriber algebra: a message's dependencies are satisfied exactly
    /// when every key has been applied at least its required count.
    #[test]
    fn wait_satisfaction_matches_apply_counts(
        required in prop::collection::btree_map(0u64..6, 0u64..5, 1..5),
        applies in prop::collection::vec(0u64..6, 0..24),
    ) {
        let store = VersionStore::new(2);
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for k in &applies {
            store.apply(&[*k]).unwrap();
            *counts.entry(*k).or_default() += 1;
        }
        let deps: Vec<(u64, u64)> = required.iter().map(|(k, v)| (*k, *v)).collect();
        let expected = required
            .iter()
            .all(|(k, v)| counts.get(k).copied().unwrap_or(0) >= *v);
        let mut set = DepWaitSet::default();
        store.prepare_wait(&deps, &mut set);
        prop_assert_eq!(store.satisfied_prepared(&set).unwrap(), expected);
    }

    /// Engine coherence: for every engine family, a random sequence of
    /// upserts/deletes ends with exactly the surviving documents readable —
    /// through every filter shape, order and limit, not only `Filter::All`
    /// — and filtered writes report what they touched in key order.
    #[test]
    fn engines_agree_on_surviving_rows(
        ops in prop::collection::vec((1u64..12, any::<bool>(), 0i64..100), 1..32),
    ) {
        let row_of = |n: i64| -> Row { [("n".to_owned(), Value::from(n))].into() };
        let by = |field: &str, ascending: bool| {
            Some(OrderBy { field: field.into(), ascending })
        };
        for vendor in ["postgresql", "mysql", "mongodb", "cassandra", "elasticsearch", "neo4j"] {
            let engine = profiles::by_name(vendor, LatencyModel::off());
            engine.execute(Query::CreateTable { table: "t".into() }).unwrap();
            let table = || "t".to_owned();
            let select = |filter: &Filter, order: Option<OrderBy>, limit: Option<usize>| {
                let q = Query::Select { table: table(), filter: filter.clone(), order, limit };
                match engine.execute(q).unwrap() {
                    QueryResult::Rows(rows) => rows
                        .into_iter()
                        .map(|(id, row)| (id.raw(), row["n"].as_int().unwrap()))
                        .collect::<Vec<(u64, i64)>>(),
                    other => panic!("unexpected {other:?}"),
                }
            };
            let insert = |id: u64, n: i64| {
                engine.execute(Query::Insert { table: table(), id: Id(id), row: row_of(n) }).unwrap()
            };
            let update = |filter: Filter, n: i64| {
                let q = Query::Update { table: table(), filter, set: row_of(n), unset: vec![] };
                engine.execute(q).unwrap().affected_ids()
            };
            let delete = |filter: Filter| {
                engine.execute(Query::Delete { table: table(), filter }).unwrap().affected_ids()
            };
            // The reference: `Filter::matches` over the model, in key order.
            let expect = |model: &BTreeMap<u64, i64>, filter: &Filter| -> Vec<(u64, i64)> {
                let hit = |id: u64, n: i64| filter.matches(Id(id), &row_of(n));
                model.iter().map(|(id, n)| (*id, *n)).filter(|(id, n)| hit(*id, *n)).collect()
            };
            let ids = |rows: &[(u64, i64)]| rows.iter().map(|(id, _)| Id(*id)).collect::<Vec<Id>>();

            let mut model: BTreeMap<u64, i64> = BTreeMap::new();
            for (id, is_delete, n) in &ops {
                if *is_delete {
                    delete(Filter::ById(Id(*id)));
                    model.remove(id);
                } else if model.contains_key(id) {
                    update(Filter::ById(Id(*id)), *n);
                    model.insert(*id, *n);
                } else {
                    insert(*id, *n);
                    model.insert(*id, *n);
                }
            }
            prop_assert_eq!(select(&Filter::All, None, None), expect(&model, &Filter::All), "vendor {}", vendor);

            // Keyset paging as bootstrap does it, with a delete and an
            // insert between two pages: every row that survives is seen
            // exactly once, in key order.
            let page = |after: u64| select(&Filter::IdAfter(Id(after)), by("id", true), Some(3));
            let mut seen = page(0);
            let mut want: Vec<(u64, i64)> = model.iter().map(|(id, n)| (*id, *n)).take(3).collect();
            let mut cursor = seen.last().map_or(0, |(id, _)| *id);
            if let Some(last) = model.keys().next_back().copied().filter(|id| *id > cursor) {
                prop_assert_eq!(delete(Filter::ById(Id(last))), vec![Id(last)]);
                model.remove(&last);
            }
            insert(50, 5);
            model.insert(50, 5);
            want.extend(expect(&model, &Filter::IdAfter(Id(cursor))));
            loop {
                let next = page(cursor);
                let Some((id, _)) = next.last() else { break };
                cursor = *id;
                seen.extend(next);
            }
            prop_assert_eq!(seen, want, "vendor {} paging", vendor);

            // Every filter shape, read in every order the engines offer.
            let (p, vp) = model.iter().next().map(|(id, n)| (*id, *n)).expect("row 50 is there");
            let id_in = Filter::IdIn(vec![Id(50), Id(p), Id(99), Id(p)]);
            let shapes = [
                Filter::All,
                Filter::ById(Id(p)),
                Filter::ById(Id(99)),
                id_in.clone(),
                Filter::IdAfter(Id(p)),
                Filter::Eq("n".into(), Value::from(vp)),
                Filter::And(vec![Filter::ById(Id(p)), Filter::Eq("n".into(), Value::from(vp))]),
                Filter::And(vec![Filter::ById(Id(p)), Filter::Eq("n".into(), Value::from(vp + 1))]),
                Filter::And(vec![Filter::Eq("n".into(), Value::from(5)), Filter::IdAfter(Id(p))]),
            ];
            for filter in &shapes {
                let rows = expect(&model, filter);
                prop_assert_eq!(select(filter, None, None), rows.clone(), "vendor {} {:?}", vendor, filter);
                let count = engine.execute(Query::Count { table: table(), filter: filter.clone() });
                prop_assert_eq!(count.unwrap(), QueryResult::Count(rows.len() as u64), "vendor {} {:?}", vendor, filter);
                let newest: Vec<(u64, i64)> = rows.iter().rev().take(2).copied().collect();
                prop_assert_eq!(select(filter, by("id", false), Some(2)), newest, "vendor {} {:?}", vendor, filter);
                let mut by_n = rows;
                by_n.sort_by_key(|(id, n)| (*n, *id));
                by_n.truncate(3);
                prop_assert_eq!(select(filter, by("n", true), Some(3)), by_n, "vendor {} {:?}", vendor, filter);
            }

            // Filtered writes report the rows they touched, in key order.
            prop_assert_eq!(update(id_in.clone(), 7), ids(&expect(&model, &id_in)), "vendor {}", vendor);
            model.insert(p, 7);
            model.insert(50, 7);
            let sevens = Filter::Eq("n".into(), Value::from(7));
            prop_assert_eq!(update(sevens.clone(), 8), ids(&expect(&model, &sevens)), "vendor {}", vendor);
            model.values_mut().filter(|n| **n == 7).for_each(|n| *n = 8);
            prop_assert_eq!(delete(id_in.clone()), ids(&expect(&model, &id_in)), "vendor {}", vendor);
            model.remove(&p);
            model.remove(&50);
            let eights = Filter::Eq("n".into(), Value::from(8));
            prop_assert_eq!(delete(eights.clone()), ids(&expect(&model, &eights)), "vendor {}", vendor);
            model.retain(|_, n| *n != 8);
            prop_assert_eq!(select(&Filter::All, None, None), expect(&model, &Filter::All), "vendor {}", vendor);
        }
    }

    /// Broker delivery algebra: across arbitrary interleavings of publish,
    /// pop, ack, nack, worker crash (forgetting in-flight deliveries), and
    /// broker restart, (a) a payload is never delivered again after its
    /// ack, and (b) every unacked payload remains deliverable — the
    /// at-least-once contract the §4.2 journal relies on.
    #[test]
    fn broker_interleavings_preserve_at_least_once(
        script in prop::collection::vec(0u8..5, 1..64),
    ) {
        use std::collections::{BTreeSet, VecDeque};
        use std::time::Duration;
        use synapse_repro::broker::{Broker, Delivery, QueueConfig};

        let broker = Broker::new();
        broker.declare_queue("q", QueueConfig::default());
        broker.bind("x", "q");
        let consumer = broker.consumer("q").unwrap();

        let mut next = 0u64;
        let mut acked: BTreeSet<String> = BTreeSet::new();
        let mut outstanding: BTreeSet<String> = BTreeSet::new();
        let mut inflight: VecDeque<Delivery> = VecDeque::new();
        for action in &script {
            match action {
                0 => {
                    let payload = format!("m{next}");
                    next += 1;
                    broker.publish_routed("x", &payload, 0, 0).unwrap();
                    outstanding.insert(payload);
                }
                1 => {
                    if let Some(d) = consumer.pop(Duration::ZERO) {
                        prop_assert!(
                            !acked.contains(d.payload.as_str()),
                            "delivered again after ack: {}", d.payload
                        );
                        inflight.push_back(d);
                    }
                }
                2 => {
                    if let Some(d) = inflight.pop_front() {
                        // A stale tag (restart already requeued it) is a
                        // spurious ack: the broker must reject it, so the
                        // payload stays deliverable.
                        if consumer.ack(d.tag) {
                            acked.insert(d.payload.to_string());
                            outstanding.remove(d.payload.as_str());
                        }
                    }
                }
                3 => {
                    if let Some(d) = inflight.pop_front() {
                        consumer.nack(d.tag);
                    }
                }
                _ => {
                    // Broker restart + worker crash: the broker requeues
                    // all unacked deliveries; the worker forgets its
                    // in-flight list.
                    broker.recover();
                    inflight.clear();
                }
            }
        }

        // Requeue whatever is still un-decided, then drain: at-least-once
        // means exactly the unacked payloads come back, each at least once.
        broker.recover();
        let mut delivered: BTreeSet<String> = BTreeSet::new();
        while let Some(d) = consumer.pop(Duration::from_millis(10)) {
            prop_assert!(
                !acked.contains(d.payload.as_str()),
                "delivered again after ack: {}", d.payload
            );
            delivered.insert(d.payload.to_string());
            consumer.ack(d.tag);
        }
        prop_assert_eq!(delivered, outstanding);
    }

    /// Batched FIFO: with no redelivery in play, any interleaving of
    /// runs of `publish_routed` calls on one key and `pop_batch` yields
    /// every payload exactly once, in exact publish order — batched pops
    /// must not reorder a queue.
    #[test]
    fn publish_batch_pop_batch_preserve_fifo(
        script in prop::collection::vec((0u8..2, 1usize..9), 1..48),
    ) {
        use std::time::Duration;
        use synapse_repro::broker::{Broker, QueueConfig};

        let broker = Broker::new();
        broker.declare_queue("q", QueueConfig::default());
        broker.bind("x", "q");
        let consumer = broker.consumer("q").unwrap();

        let mut next = 0u64;
        let mut expected = 0u64;
        for (action, n) in &script {
            match action {
                0 => {
                    for _ in 0..*n {
                        broker.publish_routed("x", format!("m{next}"), 0, 0).unwrap();
                        next += 1;
                    }
                }
                _ => {
                    for d in consumer.pop_batch(*n, Duration::ZERO) {
                        let want = format!("m{expected}");
                        prop_assert_eq!(d.payload.as_str(), want.as_str(), "out of FIFO order");
                        expected += 1;
                        consumer.ack(d.tag);
                    }
                }
            }
        }
        // Drain the tail: everything published must still arrive, in order.
        loop {
            let batch = consumer.pop_batch(16, Duration::ZERO);
            if batch.is_empty() { break; }
            for d in batch {
                let want = format!("m{expected}");
                prop_assert_eq!(d.payload.as_str(), want.as_str());
                expected += 1;
                consumer.ack(d.tag);
            }
        }
        prop_assert_eq!(expected, next, "every published payload delivered once");
    }

    /// The batched ops obey the same at-least-once algebra as the
    /// single-message ops: across interleavings of `publish_routed` runs,
    /// `pop_batch`, `ack_batch`, nack, and broker restart, an acked
    /// payload never reappears and every unacked payload stays
    /// deliverable.
    #[test]
    fn batched_interleavings_preserve_at_least_once(
        script in prop::collection::vec((0u8..5, 1usize..7), 1..48),
    ) {
        use std::collections::{BTreeSet, VecDeque};
        use std::time::Duration;
        use synapse_repro::broker::{Broker, Delivery, QueueConfig};

        let broker = Broker::new();
        broker.declare_queue("q", QueueConfig::default());
        broker.bind("x", "q");
        let consumer = broker.consumer("q").unwrap();

        let mut next = 0u64;
        let mut acked: BTreeSet<String> = BTreeSet::new();
        let mut outstanding: BTreeSet<String> = BTreeSet::new();
        let mut inflight: VecDeque<Delivery> = VecDeque::new();
        for (action, n) in &script {
            match action {
                0 => {
                    for _ in 0..*n {
                        let p = format!("m{next}");
                        next += 1;
                        outstanding.insert(p.clone());
                        broker.publish_routed("x", p, 0, 0).unwrap();
                    }
                }
                1 => {
                    for d in consumer.pop_batch(*n, Duration::ZERO) {
                        prop_assert!(
                            !acked.contains(d.payload.as_str()),
                            "delivered again after ack: {}", d.payload
                        );
                        inflight.push_back(d);
                    }
                }
                2 => {
                    // Batch-ack the oldest `n` in-flight deliveries. The
                    // in-flight list is cleared on every restart, so its
                    // tags are always live — `ack_batch` must report every
                    // one as a hit, and each payload is then decided.
                    let take: Vec<Delivery> =
                        (0..*n).filter_map(|_| inflight.pop_front()).collect();
                    let tags: Vec<u64> = take.iter().map(|d| d.tag).collect();
                    let hits = consumer.ack_batch(&tags);
                    prop_assert_eq!(
                        hits as usize, take.len(),
                        "in-flight tags are live between restarts"
                    );
                    for d in &take {
                        acked.insert(d.payload.to_string());
                        outstanding.remove(d.payload.as_str());
                    }
                }
                3 => {
                    if let Some(d) = inflight.pop_front() {
                        consumer.nack(d.tag);
                    }
                }
                _ => {
                    broker.recover();
                    inflight.clear();
                }
            }
        }

        // Final drain: everything not known-acked must come back.
        broker.recover();
        let mut delivered: BTreeSet<String> = BTreeSet::new();
        loop {
            let batch = consumer.pop_batch(8, Duration::from_millis(10));
            if batch.is_empty() { break; }
            for d in batch {
                prop_assert!(
                    !acked.contains(d.payload.as_str()),
                    "delivered again after ack: {}", d.payload
                );
                delivered.insert(d.payload.to_string());
                consumer.ack(d.tag);
            }
        }
        for p in &acked {
            prop_assert!(!delivered.contains(p));
        }
        for p in &outstanding {
            prop_assert!(
                delivered.contains(p) || acked.contains(p),
                "silently lost: {}", p
            );
        }
    }
    /// Partitioned delivery FIFO: with keyed routing, any interleaving of
    /// runs of keyed `publish_routed` calls, targeted `pop_batch_from`, and
    /// `steal_batch` (with immediate acks, so no redelivery) yields every
    /// key's payloads in exact publish order — a key lives in one
    /// partition, and pops and steals both take from the front of that
    /// partition's ready run.
    #[test]
    fn routed_partitions_preserve_per_key_fifo(
        script in prop::collection::vec((0u8..3, 1usize..7, 0usize..300), 1..48),
        partitions in 1usize..9,
    ) {
        use std::collections::BTreeMap;

        use synapse_repro::broker::{Broker, Delivery, QueueConfig};

        let broker = Broker::new();
        broker.declare_queue("q", QueueConfig { max_len: None, partitions });
        broker.bind("x", "q");
        let consumer = broker.consumer("q").unwrap();
        let parts = consumer.partition_count();

        let mut published: BTreeMap<u64, u64> = BTreeMap::new();
        let mut seen: BTreeMap<u64, u64> = BTreeMap::new();
        let mut check = |d: &Delivery| -> Result<(), TestCaseError> {
            let (key, seq) = d
                .payload
                .as_str()
                .strip_prefix('k')
                .and_then(|s| s.split_once('-'))
                .map(|(k, s)| (k.parse::<u64>().unwrap(), s.parse::<u64>().unwrap()))
                .unwrap();
            let expect = seen.entry(key).or_default();
            prop_assert_eq!(seq, *expect, "key {} out of publish order", key);
            *expect += 1;
            Ok(())
        };
        for (action, n, sel) in &script {
            match action {
                0 => {
                    // A run of `n` messages over a rotating window of the
                    // five keys; payloads carry (key, per-key sequence).
                    for i in 0..*n {
                        let key = 1 + ((*sel + i) % 5) as u64;
                        let seq = published.entry(key).or_default();
                        let payload = format!("k{key}-{seq}");
                        *seq += 1;
                        broker.publish_routed("x", payload, 0, key).unwrap();
                    }
                }
                1 => {
                    for d in consumer.pop_batch_from(*sel % parts, *n) {
                        check(&d)?;
                        consumer.ack(d.tag);
                    }
                }
                _ => {
                    for d in consumer.steal_batch(*sel % parts, *n) {
                        check(&d)?;
                        consumer.ack(d.tag);
                    }
                }
            }
        }
        // Drain the tail partition by partition: per-key order must hold
        // to the last message, and nothing may be left behind.
        for p in 0..parts {
            loop {
                let batch = consumer.pop_batch_from(p, 16);
                if batch.is_empty() { break; }
                for d in batch {
                    check(&d)?;
                    consumer.ack(d.tag);
                }
            }
        }
        prop_assert_eq!(seen, published, "every key drained to its publish count");
    }

    /// At-least-once survives work stealing: across interleavings of keyed
    /// publish runs, targeted pops, steals, batch acks, nacks, and
    /// broker restarts, an acked payload never reappears and every unacked
    /// payload stays deliverable — stealing relocates a delivery, it never
    /// duplicates or loses one.
    #[test]
    fn stolen_deliveries_preserve_at_least_once(
        script in prop::collection::vec((0u8..6, 1usize..7, 0usize..300), 1..48),
        partitions in 1usize..9,
    ) {
        use std::collections::{BTreeSet, VecDeque};
        use std::time::Duration;
        use synapse_repro::broker::{Broker, Delivery, QueueConfig};

        let broker = Broker::new();
        broker.declare_queue("q", QueueConfig { max_len: None, partitions });
        broker.bind("x", "q");
        let consumer = broker.consumer("q").unwrap();
        let parts = consumer.partition_count();

        let mut next = 0u64;
        let mut acked: BTreeSet<String> = BTreeSet::new();
        let mut outstanding: BTreeSet<String> = BTreeSet::new();
        let mut inflight: VecDeque<Delivery> = VecDeque::new();
        for (action, n, sel) in &script {
            match action {
                0 => {
                    for _ in 0..*n {
                        let payload = format!("m{next}");
                        let key = 1 + next % 7;
                        next += 1;
                        outstanding.insert(payload.clone());
                        broker.publish_routed("x", payload, 0, key).unwrap();
                    }
                }
                1 => {
                    for d in consumer.pop_batch_from(*sel % parts, *n) {
                        prop_assert!(
                            !acked.contains(d.payload.as_str()),
                            "delivered again after ack: {}", d.payload
                        );
                        inflight.push_back(d);
                    }
                }
                2 => {
                    for d in consumer.steal_batch(*sel % parts, *n) {
                        prop_assert!(
                            !acked.contains(d.payload.as_str()),
                            "delivered again after ack: {}", d.payload
                        );
                        inflight.push_back(d);
                    }
                }
                3 => {
                    let take: Vec<Delivery> =
                        (0..*n).filter_map(|_| inflight.pop_front()).collect();
                    let tags: Vec<u64> = take.iter().map(|d| d.tag).collect();
                    let hits = consumer.ack_batch(&tags);
                    prop_assert_eq!(
                        hits as usize, take.len(),
                        "in-flight tags are live between restarts"
                    );
                    for d in &take {
                        acked.insert(d.payload.to_string());
                        outstanding.remove(d.payload.as_str());
                    }
                }
                4 => {
                    if let Some(d) = inflight.pop_front() {
                        consumer.nack(d.tag);
                    }
                }
                _ => {
                    broker.recover();
                    inflight.clear();
                }
            }
        }

        // Final drain over the whole queue: exactly the undecided payloads
        // must come back, wherever stealing left them.
        broker.recover();
        let mut delivered: BTreeSet<String> = BTreeSet::new();
        loop {
            let batch = consumer.pop_batch(8, Duration::from_millis(10));
            if batch.is_empty() { break; }
            for d in batch {
                prop_assert!(
                    !acked.contains(d.payload.as_str()),
                    "delivered again after ack: {}", d.payload
                );
                delivered.insert(d.payload.to_string());
                consumer.ack(d.tag);
            }
        }
        prop_assert_eq!(delivered, outstanding);
    }
}

/// End-to-end convergence under random operation sequences: whatever the
/// publisher ends with, the subscriber ends with (causal mode).
#[test]
fn replication_converges_on_random_histories() {
    use proptest::test_runner::{Config, TestRunner};
    let mut runner = TestRunner::new(Config {
        cases: 12,
        ..Config::default()
    });
    let strategy = prop::collection::vec((1u64..8, 0u8..3, 0i64..100), 1..25);
    runner
        .run(&strategy, |ops| {
            let eco = synapse_repro::core::Ecosystem::new();
            let pair = synapse_apps::stress::build_pair(
                &eco,
                "mongodb",
                "postgresql",
                synapse_repro::core::DeliveryMode::Causal,
                2,
                LatencyModel::off(),
            );
            eco.connect();
            eco.start_all();
            let orm = pair.publisher.orm();
            for (id, kind, n) in &ops {
                let exists = orm.find("Post", Id(*id)).unwrap().is_some();
                match kind {
                    0 if !exists => {
                        orm.create_with_id(
                            "Post",
                            Id(*id),
                            synapse_repro::model::vmap! { "author_id" => *n, "body" => "b" },
                        )
                        .unwrap();
                    }
                    1 if exists => {
                        orm.update(
                            "Post",
                            Id(*id),
                            synapse_repro::model::vmap! { "author_id" => *n },
                        )
                        .unwrap();
                    }
                    2 if exists => {
                        orm.destroy("Post", Id(*id)).unwrap();
                    }
                    _ => {}
                }
            }
            // Wait for convergence.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let target = pair.publisher.publisher_stats().messages_published;
            while pair.subscriber.subscriber_stats().messages_processed < target
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let pub_posts = orm.all("Post").unwrap();
            let sub_posts = pair.subscriber.orm().all("Post").unwrap();
            assert_eq!(pub_posts.len(), sub_posts.len());
            for (p, s) in pub_posts.iter().zip(sub_posts.iter()) {
                assert_eq!(p.id, s.id);
                assert_eq!(p.get("author_id"), s.get("author_id"));
            }
            eco.stop_all();
            Ok(())
        })
        .unwrap();
}

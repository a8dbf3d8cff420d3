//! Seeded fault-injection soak of the replication pipeline (§6.5).
//!
//! Two experiments drive a causal pub/sub pair through the deterministic
//! fault plane (`synapse_faults`):
//!
//! 1. `strict_mode_wedge_recovers_via_decommission_and_partial_bootstrap`
//!    reproduces the paper's production incident: under strict causal
//!    mode (`dep_wait_timeout = None`) a single lost message wedges the
//!    subscriber forever; the documented way out is decommission + partial
//!    bootstrap (§4.4), which this test executes and verifies.
//!
//! 2. `seeded_soak_converges_deterministically_with_zero_silent_loss`
//!    runs a randomized `FaultPlan` (publish failures, broker restarts,
//!    shard kills/revives, db write errors, latency spikes) against a live
//!    pair while the driver publishes creates/updates, some of them poison
//!    pills whose subscriber callback panics. After healing and draining,
//!    it asserts (a) convergence: subscriber == publisher modulo the
//!    dead-lettered poison rows, (b) zero silent loss via the broker
//!    accounting identity `enqueued == acked + dead_lettered`, and (c)
//!    determinism: the same seed yields identical outcome counters on a
//!    second full run. Set `SYNAPSE_SEED` to reproduce a specific run;
//!    `SYNAPSE_SOAK_SWEEP=1` also runs seeds 1–30 once each.
//!
//! Four §4.4 cases are pinned beside them: a late write of an older
//! generation, a publisher shard kill under strict mode, and one
//! publisher's generation bump beside another's stream, in a roomy and
//! in a colliding dependency space.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;
use synapse_faults::{
    FaultClock, FaultEvent, FaultKind, FaultPlan, FaultSpec, Injector, InjectorStats, SeededRng,
    Side,
};
use synapse_repro::core::testing::emulate_delivery;
use synapse_repro::core::{
    DepName, DepSpace, Ecosystem, Operation, Publication, Subscription, SynapseConfig, SynapseNode,
    WriteMessage, RETRY_ATTEMPTS, VERSION_STORE_SHARDS,
};
use synapse_repro::model::{vmap, Id, ModelSchema, Record, Value};
use synapse_repro::orm::CallbackPoint;
use synapse_repro::versionstore::versioned;

mod common;
use common::{cap_kill, cap_subscriber_write_errors, eventually, faulty_mongo_node, mongo_node};

/// Seed of record: `SYNAPSE_SEED=<n>` reproduces a specific schedule.
fn seed_of_record() -> u64 {
    std::env::var("SYNAPSE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_CAFE)
}

fn publishing_node(eco: &Ecosystem) -> Arc<SynapseNode> {
    publishes(mongo_node(eco, SynapseConfig::new("pub")))
}

fn subscribing_node(eco: &Ecosystem, config: SynapseConfig) -> Arc<SynapseNode> {
    subscribes(mongo_node(eco, config))
}

fn publishes(node: Arc<SynapseNode>) -> Arc<SynapseNode> {
    node.publish(Publication::model("Post").fields(&["body", "version"]))
        .unwrap();
    node
}

fn subscribes(node: Arc<SynapseNode>) -> Arc<SynapseNode> {
    node.subscribe(Subscription::model("Post", "pub").fields(&["body", "version"]))
        .unwrap();
    node
}

/// Keeps intentional poison-pill panics from flooding test output while
/// letting every other panic (i.e. real failures) print normally.
fn quiet_poison_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let poison = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("poison pill"))
                .unwrap_or(false);
            if !poison {
                default(info);
            }
        }));
    });
}

/// §6.5 wedge + §4.4 recovery, driven through the fault plane.
#[test]
fn strict_mode_wedge_recovers_via_decommission_and_partial_bootstrap() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco);
    // Strict causal mode: wait forever for missing dependencies — the
    // configuration that wedged Crowdtap's subscribers in production.
    let subscriber = subscribing_node(
        &eco,
        SynapseConfig::new("sub").wait_timeout(None).workers(1),
    );
    eco.connect();
    eco.start_all();

    let post = publisher
        .orm()
        .create("Post", vmap! { "body" => "v1", "version" => 1 })
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().find("Post", post.id).unwrap().is_some()
    }));

    // Fault plane: drop the next delivery (v2), then publish v2 and v3.
    let clock = FaultClock::new();
    let mut plan = FaultPlan::from_events(vec![FaultEvent {
        at_tick: 1,
        kind: FaultKind::DropMessages { n: 1 },
    }]);
    let mut injector = Injector::new(eco.broker().clone(), "sub");
    injector.apply_due(&mut plan, clock.tick());
    publisher
        .orm()
        .update("Post", post.id, vmap! { "version" => 2 })
        .unwrap();
    publisher
        .orm()
        .update("Post", post.id, vmap! { "version" => 3 })
        .unwrap();

    // The wedge: v3 depends on the dropped v2's version bump, and strict
    // mode waits forever. Progress stops.
    std::thread::sleep(Duration::from_millis(400));
    let stats = subscriber.subscriber_stats();
    assert_eq!(stats.messages_processed, 1, "subscriber must be wedged");
    assert_eq!(stats.dep_timeouts, 0, "strict mode never times out");
    let replica = subscriber.orm().find("Post", post.id).unwrap().unwrap();
    assert_eq!(replica.get("version").as_int(), Some(1));

    // §4.4 recovery: decommission the wedged queue, then partial
    // bootstrap from the publisher.
    cap_kill(eco.broker(), &subscriber);
    subscriber.bootstrap_from(&publisher).unwrap();
    assert_eq!(subscriber.stats().bootstrap.completions, 1);
    assert!(eventually(Duration::from_secs(5), || {
        subscriber
            .orm()
            .find("Post", post.id)
            .unwrap()
            .map(|p| p.get("version").as_int() == Some(3))
            .unwrap_or(false)
    }));

    // Live replication works again.
    let fresh = publisher
        .orm()
        .create("Post", vmap! { "body" => "post-recovery", "version" => 4 })
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().find("Post", fresh.id).unwrap().is_some()
    }));
    assert_eq!(injector.stats().drops_scheduled, 1);
    eco.stop_all();
}

/// Everything the driver can observe deterministically about one soak run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SoakOutcome {
    injector: InjectorStats,
    operations_marshalled: u64,
    refused_writes: u64,
    dead_letter_ids: Vec<u64>,
    dropped: u64,
    generation_bumps: u64,
    publisher_rows: u64,
    subscriber_rows: u64,
}

/// What a plan does to the soak's own publishes, replayed from the plan
/// alone.
struct Driven {
    /// Writes a publisher-side write error refuses before they publish.
    refused: u64,
    /// Publishes whose every attempt meets an armed publish failure.
    exhausted: u64,
}

/// Replays `events` against the soak's one write per tick: a
/// publisher-side write error refuses the tick's write; otherwise its
/// publish takes armed publish failures one attempt at a time, up to
/// [`RETRY_ATTEMPTS`]. Bursts armed at one tick, or left over, add up.
fn drive_publishes(events: &[FaultEvent], ops: u64) -> Driven {
    let mut plan = FaultPlan::from_events(events.to_vec());
    let attempts = u64::from(RETRY_ATTEMPTS);
    let (mut armed, mut refusing) = (0, 0);
    let mut driven = Driven {
        refused: 0,
        exhausted: 0,
    };
    for tick in 1..=ops {
        for event in plan.take_due(tick) {
            match event.kind {
                FaultKind::PublishFailures { n } => armed += n,
                FaultKind::DbWriteErrors {
                    side: Side::Publisher,
                    n,
                } => refusing += n,
                _ => {}
            }
        }
        if refusing > 0 {
            refusing -= 1;
            driven.refused += 1;
        } else if armed >= attempts {
            armed -= attempts;
            driven.exhausted += 1;
        } else {
            armed = 0;
        }
    }
    driven
}

fn run_soak(seed: u64) -> SoakOutcome {
    const OPS: u64 = 160;
    let eco = Ecosystem::new();
    let (publisher, pub_db) = faulty_mongo_node(&eco, SynapseConfig::new("pub"));
    let publisher = publishes(publisher);
    let (subscriber, sub_db) = faulty_mongo_node(
        &eco,
        SynapseConfig::new("sub")
            .wait_timeout(Some(Duration::from_millis(50)))
            .workers(1),
    );
    let subscriber = subscribes(subscriber);
    // Poison pills: the subscriber's application callback panics on them,
    // every time — the deterministic-failure class that must end in the
    // dead-letter store, not in endless redelivery.
    for point in [CallbackPoint::BeforeCreate, CallbackPoint::BeforeUpdate] {
        subscriber.orm().on("Post", point, |ctx, record| {
            if !ctx.bootstrap {
                if let Some(body) = record.get("body").as_str() {
                    if body.starts_with("poison") {
                        panic!("poison pill: {body}");
                    }
                }
            }
            Ok(())
        });
    }
    eco.connect();
    eco.start_all();

    // Seeded plan over the op horizon, shaped so that only poison
    // dead-letters:
    // - Broker drops are exercised by the wedge test above; here they
    //   would make per-row accounting depend on *which* message was lost,
    //   so they are re-aimed at the publish path (same transient class,
    //   journal-recoverable).
    // - A dead subscriber store costs each delivery that meets it one
    //   attempt per look for as long as it stays dead, a span no tick
    //   schedule bounds, so subscriber shard kills (and their revives)
    //   are dropped; publisher kills, which cost a generation bump and no
    //   attempt, fire as generated.
    // - Subscriber write errors are capped below the retry budget.
    let spec = FaultSpec {
        horizon: OPS,
        events: 12,
        shards: VERSION_STORE_SHARDS,
        max_burst: 2,
        spike_micros: 100,
    };
    let generated = FaultPlan::generate(seed, &spec);
    let events: Vec<FaultEvent> = generated
        .events()
        .iter()
        .copied()
        .filter_map(|mut e| {
            match e.kind {
                FaultKind::DropMessages { n } => e.kind = FaultKind::PublishFailures { n },
                FaultKind::KillShard {
                    side: Side::Subscriber,
                    ..
                }
                | FaultKind::ReviveShards {
                    side: Side::Subscriber,
                } => return None,
                _ => {}
            }
            Some(e)
        })
        .collect();
    let events = cap_subscriber_write_errors(events);
    let driven = drive_publishes(&events, OPS);
    let mut plan = FaultPlan::from_events(events);
    let mut injector = Injector::new(eco.broker().clone(), "sub")
        .with_store(Side::Publisher, publisher.pub_store().clone())
        .with_store(Side::Subscriber, subscriber.sub_store().clone())
        .with_db(Side::Publisher, pub_db.clone())
        .with_db(Side::Subscriber, sub_db.clone());
    let clock = FaultClock::new();
    let mut driver = SeededRng::new(seed ^ 0xD41_7E12);

    let mut ids = Vec::new();
    let mut refused = 0u64;
    for i in 0..OPS {
        injector.apply_due(&mut plan, clock.tick());
        let create = ids.is_empty() || driver.gen_ratio(3, 5);
        let result = if create {
            let body = if driver.gen_ratio(1, 12) {
                format!("poison-{i}")
            } else {
                format!("b{i}")
            };
            publisher
                .orm()
                .create("Post", vmap! { "body" => body, "version" => i as i64 })
                .map(|r| ids.push(r.id))
        } else {
            let target = ids[driver.gen_below(ids.len() as u64) as usize];
            publisher
                .orm()
                .update("Post", target, vmap! { "version" => (1000 + i) as i64 })
                .map(|_| ())
        };
        if result.is_err() {
            // Injected publisher-side db fault: the write never happened,
            // so there is nothing to replicate. Counted, not silent.
            refused += 1;
        }
    }

    // Fire schedule remainder (paired revives past the horizon), then
    // heal: disarm residual db faults, revive stores, republish journal.
    injector.apply_due(&mut plan, u64::MAX);
    pub_db.disarm();
    sub_db.disarm();
    publisher.pub_store().revive();
    subscriber.sub_store().revive();
    publisher.publisher().recover();
    assert_eq!(
        publisher.publisher().journal_len(),
        0,
        "journal must drain once the broker heals"
    );
    assert_eq!(refused, driven.refused, "refused writes");

    assert!(
        subscriber.subscriber().drain(Duration::from_secs(30)),
        "subscriber backlog must drain after healing"
    );
    eco.stop_all();

    // --- Convergence: subscriber == publisher modulo dead-lettered. ---
    let dead_letters = subscriber.dead_letters();
    let mut dead_ids: BTreeSet<u64> = BTreeSet::new();
    for d in &dead_letters {
        let msg = synapse_repro::core::WriteMessage::decode(&d.payload)
            .expect("only decodable poison in this soak");
        for op in &msg.operations {
            dead_ids.insert(op.id.raw());
        }
    }
    let pub_rows = publisher.orm().all("Post").unwrap();
    let sub_rows = subscriber.orm().all("Post").unwrap();
    let mut expected_rows = 0u64;
    for row in &pub_rows {
        let poisoned = row
            .get("body")
            .as_str()
            .map(|b| b.starts_with("poison"))
            .unwrap_or(false);
        let replica = subscriber.orm().find("Post", row.id).unwrap();
        if poisoned {
            assert!(
                replica.is_none(),
                "poison row {} must not replicate",
                row.id
            );
            assert!(
                dead_ids.contains(&row.id.raw()),
                "poison row {} must be accounted in the dead-letter store",
                row.id
            );
        } else {
            expected_rows += 1;
            let replica = replica.unwrap_or_else(|| {
                panic!(
                    "row {} silently lost (not replicated, not dead-lettered)",
                    row.id
                )
            });
            assert_eq!(replica.get("body"), row.get("body"), "row {}", row.id);
            assert_eq!(replica.get("version"), row.get("version"), "row {}", row.id);
        }
    }
    assert_eq!(sub_rows.len() as u64, expected_rows, "no phantom rows");

    // --- Zero silent loss: the broker accounting identity. ---
    let broker_stats = eco.broker().stats();
    let pub_stats = publisher.publisher_stats();
    let sub_stats = subscriber.subscriber_stats();
    eprintln!(
        "fault soak: ops_stale={} dep_timeouts={} generation_advances={} publish_failures={}",
        sub_stats.ops_stale,
        sub_stats.dep_timeouts,
        sub_stats.generation_advances,
        pub_stats.publish_failures
    );
    assert_eq!(broker_stats.enqueued, pub_stats.messages_published);
    assert_eq!(
        broker_stats.enqueued,
        broker_stats.acked + broker_stats.dead_lettered,
        "every enqueued delivery must end acked or dead-lettered"
    );
    assert_eq!(broker_stats.dropped, 0);
    assert_eq!(broker_stats.discarded, 0);
    // At-least-once: every published message ends processed or
    // dead-lettered. A broker restart requeues in-flight deliveries and
    // turns their late acks spurious, so the handled sum may exceed
    // `published` — but by at most one duplicate per restart (workers=1).
    let handled = sub_stats.messages_processed + sub_stats.dead_lettered;
    assert!(
        handled >= pub_stats.messages_published,
        "silent loss: handled {handled} < published {}",
        pub_stats.messages_published
    );
    assert!(
        handled - pub_stats.messages_published <= injector.stats().broker_restarts,
        "more duplicates than broker restarts can explain"
    );
    assert_eq!(sub_stats.dead_lettered, broker_stats.dead_lettered);
    // Failures armed at one tick add up: a publish that meets
    // RETRY_ATTEMPTS of them stays journaled until `recover` above.
    assert_eq!(
        pub_stats.publish_failures, driven.exhausted,
        "retries absorb armed failures short of the budget"
    );

    // --- Telemetry plane: the snapshot must be live and self-consistent
    // even under faults. Stage counts equal the end-to-end count per mode,
    // subscriber stage sums never exceed the end-to-end sum, and the
    // delivered total matches what actually survived to the version-store
    // apply. (Latency values are wall-clock and thus excluded from the
    // determinism check below — only counters ride in SoakOutcome.)
    let sub_snap = subscriber.telemetry_snapshot();
    sub_snap
        .check_consistency()
        .unwrap_or_else(|e| panic!("inconsistent subscriber telemetry: {e}"));
    assert!(
        sub_snap.has_deliveries(),
        "the soak must record visibility latencies"
    );
    // One visibility sample per successful apply. `messages_processed`
    // counts only live acks; a broker restart or a dead version store at
    // flush time voids the ack while the sample stays, and the copy is
    // reprocessed. Every such duplicate sample therefore rides a
    // redelivered pop, so the redelivery counter bounds the overshoot.
    assert!(
        sub_snap.total_delivered() >= sub_stats.messages_processed,
        "visibility samples lost: {} < {}",
        sub_snap.total_delivered(),
        sub_stats.messages_processed
    );
    assert!(
        sub_snap.total_delivered() - sub_stats.messages_processed <= sub_stats.redeliveries,
        "more visibility samples than redeliveries can explain"
    );
    let pub_snap = publisher.telemetry_snapshot();
    pub_snap
        .check_consistency()
        .unwrap_or_else(|e| panic!("inconsistent publisher telemetry: {e}"));

    SoakOutcome {
        injector: injector.stats(),
        operations_marshalled: pub_stats.operations,
        refused_writes: refused,
        dead_letter_ids: dead_ids.into_iter().collect(),
        dropped: broker_stats.dropped,
        generation_bumps: pub_stats.generation_bumps,
        publisher_rows: pub_rows.len() as u64,
        subscriber_rows: sub_rows.len() as u64,
    }
}

/// The tentpole soak: convergence, zero silent loss, and determinism —
/// the same seed must produce identical counter totals twice.
#[test]
fn seeded_soak_converges_deterministically_with_zero_silent_loss() {
    quiet_poison_panics();
    let seed = seed_of_record();
    eprintln!("fault soak: SYNAPSE_SEED={seed}");
    let first = run_soak(seed);
    let second = run_soak(seed);
    eprintln!("fault soak: {first:?}");
    assert_eq!(
        first, second,
        "same seed must reproduce identical soak outcomes"
    );
    assert!(
        first.injector.total_scheduled() > 0,
        "the plan must actually inject faults"
    );
    assert!(
        !first.dead_letter_ids.is_empty(),
        "poison pills must reach the dead-letter store"
    );
}

/// Thirty-seed sweep, opt-in via `SYNAPSE_SOAK_SWEEP=1`: the soak's
/// invariants must hold across schedules (seeds 1–30, one run each), not
/// just under the seed of record.
#[test]
fn thirty_seed_sweep_holds_the_invariants() {
    if std::env::var("SYNAPSE_SOAK_SWEEP").as_deref() != Ok("1") {
        eprintln!("fault soak sweep skipped (set SYNAPSE_SOAK_SWEEP=1 to run)");
        return;
    }
    quiet_poison_panics();
    for seed in 1..=30 {
        eprintln!("fault soak sweep: SYNAPSE_SEED={seed}");
        let outcome = run_soak(seed);
        eprintln!("fault soak sweep: {outcome:?}");
    }
}

/// §4.4, pinned from seed 7's row 11: after a publisher store death the
/// subscriber has seen generation 3 when a generation-2 update of the row
/// arrives behind generation 3's update of it. Every value carries its
/// generation, so the late write's version (2, 1) loses admission to the
/// stored (3, 0) and the newer value stays.
#[test]
fn an_older_generation_write_arriving_late_loses_to_a_newer_one() {
    let eco = Ecosystem::new();
    let _publisher = publishing_node(&eco);
    let subscriber = subscribing_node(&eco, SynapseConfig::new("sub"));
    eco.connect();
    let key = |id| {
        let dep = DepName::object("pub", "Post", Id(id));
        subscriber.config().dep_space.key(&dep)
    };
    let write = |generation, op: &str, id, count: u64, version: i64| {
        let attrs = [
            ("body", Value::from("b")),
            ("version", Value::from(version)),
        ];
        let attrs = attrs.map(|(k, v)| (k.to_owned(), v)).into_iter().collect();
        WriteMessage {
            app: "pub".to_owned(),
            operations: vec![Operation::from_record(
                op,
                Record::with_attrs("Post", Id(id), attrs),
            )],
            dependencies: BTreeMap::from([(key(id), versioned(generation, count))]),
            published_at: 0,
            generation,
            stamps: BTreeMap::new(),
        }
    };
    for msg in [
        write(3, "create", 1, 0, 1),
        write(3, "update", 11, 0, 1154),
        write(2, "update", 11, 1, 1056),
    ] {
        let _ = subscriber.subscriber().process(&emulate_delivery(&msg));
    }
    let row = subscriber.orm().find("Post", Id(11)).unwrap();
    let version = row.map(|r| r.get("version").clone());
    assert_eq!(
        version,
        Some(Value::from(1154)),
        "ops_stale {}",
        subscriber.subscriber_stats().ops_stale
    );
}

/// §4.4 under strict causal mode: a publisher shard kill bumps the
/// generation and revives only the dead shard. Keys on the live shards
/// still hold the older generation's counts, which read as absent, so
/// every key restarts at count 0 on both sides and no update waits.
#[test]
fn a_strict_subscriber_survives_a_publisher_shard_kill() {
    let eco = Ecosystem::new();
    let publisher = publishing_node(&eco);
    let config = SynapseConfig::new("sub").wait_timeout(None).workers(1);
    let subscriber = subscribing_node(&eco, config);
    eco.connect();
    eco.start_all();
    let orm = publisher.orm();
    let ids: Vec<Id> = (0..20)
        .map(|i| orm.create("Post", vmap! { "body" => format!("b{i}"), "version" => 0 }))
        .map(|r| r.unwrap().id)
        .collect();
    let lagging = |version: i64| {
        let replica = |id| subscriber.orm().find("Post", id).unwrap();
        let at = |id| replica(id).map(|r| r.get("version").as_int() == Some(version));
        ids.iter().filter(|id| at(**id) != Some(true)).count()
    };
    for &id in &ids {
        orm.update("Post", id, vmap! { "version" => 1 }).unwrap();
    }
    assert!(eventually(Duration::from_secs(5), || lagging(1) == 0));
    Injector::new(eco.broker().clone(), "sub")
        .with_store(Side::Publisher, publisher.pub_store().clone())
        .apply(&FaultKind::KillShard {
            side: Side::Publisher,
            shard: 0,
        });
    for &id in &ids {
        orm.update("Post", id, vmap! { "version" => 2 }).unwrap();
    }
    let settled = eventually(Duration::from_secs(5), || lagging(2) == 0);
    assert!(
        settled,
        "{} of 20 rows never show the second update",
        lagging(2)
    );
    eco.stop_all();
}

/// §4.4 across publishers: `pa`'s generation bump restarts only the keys
/// its new generation's values touch, so under strict causal mode `pb`'s
/// next update still finds the counts it waits on.
#[test]
fn a_generation_bump_of_one_publisher_leaves_another_publishers_stream_alone() {
    let eco = Ecosystem::new();
    let pa = mongo_node(&eco, SynapseConfig::new("pa"));
    pa.publish(Publication::model("Post").fields(&["body"]))
        .unwrap();
    let pb = mongo_node(&eco, SynapseConfig::new("pb"));
    let sub = mongo_node(
        &eco,
        SynapseConfig::new("sub").wait_timeout(None).workers(1),
    );
    for node in [&pb, &sub] {
        node.orm().define_model(ModelSchema::open("Note")).unwrap();
    }
    pb.publish(Publication::model("Note").fields(&["body"]))
        .unwrap();
    sub.subscribe(Subscription::model("Post", "pa").fields(&["body"]))
        .unwrap();
    sub.subscribe(Subscription::model("Note", "pb").fields(&["body"]))
        .unwrap();
    eco.connect();
    eco.start_all();
    let shows = |model: &str, id, body: &str| {
        let row = sub.orm().find(model, id).unwrap();
        row.is_some_and(|r| r.get("body").as_str() == Some(body))
    };

    let note = pb.orm().create("Note", vmap! { "body" => "n1" }).unwrap();
    pb.orm()
        .update("Note", note.id, vmap! { "body" => "n2" })
        .unwrap();
    let post = pa.orm().create("Post", vmap! { "body" => "p1" }).unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        shows("Note", note.id, "n2") && shows("Post", post.id, "p1")
    }));

    pa.pub_store().kill();
    pa.orm()
        .update("Post", post.id, vmap! { "body" => "p2" })
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || shows(
        "Post", post.id, "p2"
    )));
    assert_eq!(sub.subscriber_stats().generation_advances, 1);

    pb.orm()
        .update("Note", note.id, vmap! { "body" => "n3" })
        .unwrap();
    assert!(
        eventually(Duration::from_secs(5), || shows("Note", note.id, "n3")),
        "pb's update never applied after pa's generation bump"
    );
    eco.stop_all();
}

/// The colliding case of the bump above: in a 256-key dependency space,
/// `pa`'s posts and `pb`'s notes share keys at a strict subscriber. `pa`'s
/// bump moves each shared key it writes to its new generation, where
/// `pb`'s older-generation values read as reached and `pb`'s applies count
/// nothing; `pa`'s own counts restart at zero. Both streams apply, and the
/// replica converges with no dead letter.
#[test]
fn a_generation_bump_in_a_colliding_space_leaves_another_publishers_stream_alone() {
    const ROWS: usize = 40;
    let eco = Ecosystem::new();
    let space = DepSpace::new(1 << 8);
    let config = |app: &str| SynapseConfig::new(app).dep_space(space);
    let pa = mongo_node(&eco, config("pa"));
    pa.publish(Publication::model("Post").fields(&["body"]))
        .unwrap();
    let pb = mongo_node(&eco, config("pb"));
    let sub = mongo_node(&eco, config("sub").wait_timeout(None).workers(1));
    for node in [&pb, &sub] {
        node.orm().define_model(ModelSchema::open("Note")).unwrap();
    }
    pb.publish(Publication::model("Note").fields(&["body"]))
        .unwrap();
    sub.subscribe(Subscription::model("Post", "pa").fields(&["body"]))
        .unwrap();
    sub.subscribe(Subscription::model("Note", "pb").fields(&["body"]))
        .unwrap();
    eco.connect();
    eco.start_all();
    let create = |node: &SynapseNode, model: &str| -> Vec<Id> {
        let rows = (0..ROWS).map(|i| node.orm().create(model, vmap! { "body" => format!("{i}") }));
        rows.map(|r| r.unwrap().id).collect()
    };
    let (posts, notes) = (create(&pa, "Post"), create(&pb, "Note"));
    let keys = |app: &str, model: &str, ids: &[Id]| -> BTreeSet<u64> {
        let key = |id: &Id| space.key(&DepName::object(app, model, *id));
        ids.iter().map(key).collect()
    };
    let shared = keys("pa", "Post", &posts)
        .intersection(&keys("pb", "Note", &notes))
        .count();
    assert!(shared > 0, "the two streams must share dependency keys");
    let update = |node: &SynapseNode, model: &str, ids: &[Id], body: &str| {
        for id in ids {
            node.orm()
                .update(model, *id, vmap! { "body" => body })
                .unwrap();
        }
    };
    update(&pa, "Post", &posts, "p1");
    update(&pb, "Note", &notes, "n1");
    let lagging = |model: &str, ids: &[Id], body: &str| {
        let shows = |id: &Id| {
            let row = sub.orm().find(model, *id).unwrap();
            row.is_some_and(|r| r.get("body").as_str() == Some(body))
        };
        ids.iter().filter(|id| !shows(id)).count()
    };
    assert!(eventually(Duration::from_secs(5), || {
        lagging("Post", &posts, "p1") + lagging("Note", &notes, "n1") == 0
    }));

    pa.pub_store().kill();
    for round in 2..4 {
        update(&pa, "Post", &posts, &format!("p{round}"));
        update(&pb, "Note", &notes, &format!("n{round}"));
    }
    let converged = eventually(Duration::from_secs(5), || {
        lagging("Post", &posts, "p3") + lagging("Note", &notes, "n3") == 0
    });
    assert!(
        converged,
        "{} posts and {} notes never show their last update ({shared} shared keys)",
        lagging("Post", &posts, "p3"),
        lagging("Note", &notes, "n3")
    );
    assert_eq!(pa.publisher_stats().generation_bumps, 1);
    assert_eq!(sub.subscriber_stats().generation_advances, 1);
    assert!(sub.dead_letters().is_empty());
    eco.stop_all();
}

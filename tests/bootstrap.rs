//! The three-step bootstrap protocol (§4.4) in detail: version snapshots
//! before data, projection during bulk copy, live traffic during the copy,
//! ephemeral exclusion, decorator chains bootstrapping in stages, and the
//! failure paths of the chunked recovery rebuild — flag hygiene on failed
//! attempts, the restart after a mid-copy fault or a panicking copy (the
//! next attempt copies from the first row, and admission refuses what the
//! failed one copied), a reinstate after a swept backlog, dead publisher
//! stores, ephemeral-only publications, and reinstates racing a broker
//! restart.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use synapse_repro::core::{
    BootstrapPhase, BootstrapState, DepName, Ecosystem, Publication, Subscription, SynapseConfig,
    SynapseNode, BOOTSTRAP_CHUNK_ROWS as CHUNK, RETRY_ATTEMPTS,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, Id, ModelSchema};
use synapse_repro::orm::adapters::{EphemeralAdapter, MongoidAdapter};
use synapse_repro::orm::CallbackPoint;

mod common;
use common::{cap_kill, eventually};
use synapse_faults::{FaultKind, Injector};

fn publisher_with_users(eco: &Ecosystem, n: usize) -> Arc<SynapseNode> {
    let node = eco.add_node(
        SynapseConfig::new("pub"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    node.orm().define_model(ModelSchema::open("User")).unwrap();
    node.publish(Publication::model("User").fields(&["name"]))
        .unwrap();
    for i in 0..n {
        node.orm()
            .create("User", vmap! { "name" => format!("u{i}"), "secret" => "x" })
            .unwrap();
    }
    node
}

/// A subscriber that joins late gets all pre-existing objects, projected to
/// the published attributes only.
#[test]
fn late_subscriber_bootstraps_projected_history() {
    let eco = Ecosystem::new();
    let publisher = publisher_with_users(&eco, 200);
    let subscriber = eco.add_node(
        SynapseConfig::new("late"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("User", "pub").fields(&["name"]))
        .unwrap();
    eco.connect();

    subscriber.start_and_bootstrap_from(&publisher).unwrap();
    assert_eq!(subscriber.orm().count("User").unwrap(), 200);
    let sample = subscriber
        .orm()
        .find("User", synapse_repro::model::Id(1))
        .unwrap()
        .unwrap();
    assert_eq!(sample.get("name").as_str(), Some("u0"));
    assert!(
        sample.get("secret").is_null(),
        "bulk copy must project to published attributes, like live updates"
    );
    eco.stop_all();
}

/// Step 1 alone: when the first chunk is about to be copied, the
/// subscriber holds the publisher's dependency counters and no admission
/// state for any object. The counters carry the publisher's version marks;
/// were those read as versions applied here, `AdmitRule::Copy` would refuse
/// the very rows step 2 copies.
#[test]
fn step_one_loads_counters_and_no_admission_state() {
    let eco = Ecosystem::new();
    let publisher = publisher_with_users(&eco, 3);
    let user = Id(1);
    publisher
        .orm()
        .update("User", user, vmap! { "name" => "renamed" })
        .unwrap();
    let subscriber = eco.add_node(
        SynapseConfig::new("late"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("User", "pub").fields(&["name"]))
        .unwrap();
    eco.connect();

    let key = subscriber
        .config()
        .dep_space
        .key(&DepName::object("pub", "User", user));
    let published = publisher.pub_store().ops(key).unwrap();
    assert_eq!(published, 2, "create and update");
    assert_eq!(publisher.pub_store().latest_version(key).unwrap(), 2);

    // (ops, objects with admission state, rows) as the first chunk is
    // about to start.
    let after_step_one = Arc::new(Mutex::new(None));
    {
        let (seen, node) = (after_step_one.clone(), Arc::downgrade(&subscriber));
        subscriber.set_bootstrap_probe(move |state| {
            if !matches!(state, BootstrapState::Copying { chunk: 0, .. }) {
                return;
            }
            let node = node.upgrade().expect("node outlives its bootstrap");
            let store = node.sub_store();
            seen.lock().unwrap().get_or_insert((
                store.ops(key).unwrap(),
                store.dump().unwrap().objects.len(),
                node.orm().count("User").unwrap(),
            ));
        });
    }
    subscriber.bootstrap_from(&publisher).unwrap();
    subscriber.clear_bootstrap_probe();
    assert_eq!(
        *after_step_one.lock().unwrap(),
        Some((published, 0, 0)),
        "counters loaded, no object admitted, nothing copied yet"
    );
    assert_eq!(subscriber.bootstrap_stats().records_reconciled, 0);
    let copied = subscriber.orm().find("User", user).unwrap().unwrap();
    assert_eq!(copied.get("name").as_str(), Some("renamed"));
    eco.stop_all();
}

/// Writes racing with the bulk copy are not lost: messages published
/// during steps 1–2 are drained in step 3.
#[test]
fn writes_during_bootstrap_are_not_lost() {
    let eco = Ecosystem::new();
    let publisher = publisher_with_users(&eco, 100);
    let subscriber = eco.add_node(
        SynapseConfig::new("late"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("User", "pub").fields(&["name"]))
        .unwrap();
    eco.connect();

    // A writer hammers the publisher while the bootstrap runs.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let publisher = publisher.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                publisher
                    .orm()
                    .create("User", vmap! { "name" => format!("live-{n}") })
                    .unwrap();
                n += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    subscriber.start_and_bootstrap_from(&publisher).unwrap();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    writer.join().unwrap();

    let expected = publisher.orm().count("User").unwrap();
    assert!(eventually(Duration::from_secs(10), || {
        subscriber.orm().count("User").unwrap() == expected
    }));
    eco.stop_all();
}

/// Ephemeral publications have no stored history — bootstrap skips them
/// rather than failing (§3.1: published, never persisted).
#[test]
fn ephemeral_models_are_skipped_by_bootstrap() {
    let eco = Ecosystem::new();
    let frontend = eco.add_node(
        SynapseConfig::new("frontend"),
        Arc::new(EphemeralAdapter::new()),
    );
    frontend
        .orm()
        .define_model(ModelSchema::open("Click"))
        .unwrap();
    frontend
        .publish(Publication::model("Click").fields(&["target"]).ephemeral())
        .unwrap();
    for _ in 0..5 {
        frontend
            .orm()
            .create("Click", vmap! { "target" => "buy" })
            .unwrap();
    }

    let analytics = eco.add_node(
        SynapseConfig::new("analytics"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    analytics
        .orm()
        .define_model(ModelSchema::open("Click"))
        .unwrap();
    analytics
        .subscribe(Subscription::model("Click", "frontend").fields(&["target"]))
        .unwrap();
    eco.connect();

    analytics.start_and_bootstrap_from(&frontend).unwrap();
    // The five pre-subscription clicks were never persisted anywhere (the
    // publisher is ephemeral and the queue was not yet bound), so the
    // bootstrap has no history to copy: the subscriber starts empty.
    assert_eq!(analytics.orm().count("Click").unwrap(), 0);
    // Only live events arrive from now on.
    frontend
        .orm()
        .create("Click", vmap! { "target" => "cart" })
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        analytics.orm().count("Click").unwrap() == 1
    }));
    eco.stop_all();
}

/// A decorator chain bootstraps stage by stage: a brand-new downstream
/// subscriber obtains both the owner's attributes and the decorations.
#[test]
fn decorator_chain_bootstraps_downstream() {
    let eco = Ecosystem::new();
    let owner = publisher_with_users(&eco, 20);
    let decorator = eco.add_node(
        SynapseConfig::new("dec"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    decorator
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    decorator
        .subscribe(Subscription::model("User", "pub").fields(&["name"]))
        .unwrap();
    decorator
        .publish(Publication::model("User").fields(&["vip"]))
        .unwrap();
    eco.connect();
    decorator.start_and_bootstrap_from(&owner).unwrap();
    // The decorator decorates everything it replicated.
    for user in decorator.orm().all("User").unwrap() {
        decorator
            .orm()
            .update(
                "User",
                user.id,
                vmap! { "vip" => user.id.raw().is_multiple_of(2) },
            )
            .unwrap();
    }

    // Now a downstream subscriber joins, bootstrapping from both.
    let downstream = eco.add_node(
        SynapseConfig::new("down"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    downstream
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    downstream
        .subscribe(Subscription::model("User", "pub").fields(&["name"]))
        .unwrap();
    downstream
        .subscribe(Subscription::model("User", "dec").fields(&["vip"]))
        .unwrap();
    eco.connect();
    downstream.start_and_bootstrap_from(&owner).unwrap();
    downstream.bootstrap_from(&decorator).unwrap();

    assert_eq!(downstream.orm().count("User").unwrap(), 20);
    let u2 = downstream
        .orm()
        .find("User", synapse_repro::model::Id(2))
        .unwrap()
        .unwrap();
    assert_eq!(u2.get("name").as_str(), Some("u1"));
    assert_eq!(u2.get("vip").as_bool(), Some(true));
    eco.stop_all();
}

/// Regression for the stuck-bootstrap-flag bug: a bootstrap whose step 1
/// fails (dead publisher version store) must clear the ORM bootstrap flag
/// on its error path, leave the node writable, and let a later
/// `bootstrap_from` succeed.
#[test]
fn failed_bootstrap_clears_flag_and_retry_succeeds() {
    let eco = Ecosystem::new();
    let publisher = publisher_with_users(&eco, 10);
    let subscriber = eco.add_node(
        SynapseConfig::new("late"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    subscriber
        .orm()
        .define_model(ModelSchema::open("Note"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("User", "pub").fields(&["name"]))
        .unwrap();
    eco.connect();

    // Step 1 cannot snapshot a dead publisher store; the retry policy
    // exhausts and the attempt fails.
    publisher.pub_store().kill();
    let err = subscriber.start_and_bootstrap_from(&publisher);
    assert!(err.is_err(), "snapshot from a dead pub store must fail");

    // The old code leaked `set_bootstrap(true)` here, permanently wedging
    // the node in bootstrap mode.
    assert!(
        !subscriber.orm().is_bootstrap(),
        "failed bootstrap must clear the bootstrap flag"
    );
    let stats = subscriber.bootstrap_stats();
    assert_eq!(stats.attempts, 1);
    assert_eq!(stats.completions, 0);
    assert!(stats.retries >= 1, "transient step failures are retried");
    assert_eq!(stats.phase, BootstrapPhase::Idle);
    // Still writable: local models work as if no bootstrap ever ran.
    subscriber
        .orm()
        .create("Note", vmap! { "body" => "still alive" })
        .unwrap();

    // Publisher heals; the second attempt completes.
    publisher.pub_store().revive();
    subscriber.bootstrap_from(&publisher).unwrap();
    assert!(!subscriber.orm().is_bootstrap());
    assert_eq!(subscriber.orm().count("User").unwrap(), 10);
    let stats = subscriber.bootstrap_stats();
    assert_eq!(stats.attempts, 2);
    assert_eq!(stats.completions, 1);
    assert_eq!(stats.phase, BootstrapPhase::Live);
    eco.stop_all();
}

/// Arms one retry budget's worth of transient chunk-copy failures the
/// first time the copier enters `chunk` (0-based). Returns the once-flag.
fn arm_copy_fault_at_chunk(node: &Arc<SynapseNode>, chunk: u64) -> Arc<AtomicBool> {
    let armed = Arc::new(AtomicBool::new(false));
    let target = node.clone();
    let flag = armed.clone();
    let at = chunk;
    let budget = u64::from(RETRY_ATTEMPTS);
    node.set_bootstrap_probe(move |state| {
        if let BootstrapState::Copying { chunk, .. } = state {
            if *chunk == at && !flag.swap(true, Ordering::SeqCst) {
                target.inject_copy_failures(budget);
            }
        }
    });
    armed
}

/// A mid-copy fault exhausts the retry budget and fails the attempt. The
/// next attempt copies from the first row again: version admission
/// refuses every row the failed attempt copied, so nothing is written
/// twice, and the copy still converges. (Runs on the synchronous
/// no-worker path; the live backlog drains once workers start.)
#[test]
fn copy_fault_fails_attempt_then_restart_converges() {
    let eco = Ecosystem::new();
    // Four full chunks and three rows of a fifth, with the live writes.
    let publisher = publisher_with_users(&eco, 4 * CHUNK - 2);
    let subscriber = eco.add_node(
        SynapseConfig::new("late"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("User", "pub").fields(&["name"]))
        .unwrap();
    eco.connect();

    // Live writes after the binding exists put messages in the queue and
    // rows in the publisher db; the copy must cover the rows, the workers
    // (started later) the messages.
    for i in 0..5 {
        publisher
            .orm()
            .create("User", vmap! { "name" => format!("live-{i}") })
            .unwrap();
    }
    // The copier's third chunk (two chunks applied) hits a burst of
    // transient faults that exhausts the retry budget.
    let armed = arm_copy_fault_at_chunk(&subscriber, 2);
    let err = subscriber.bootstrap_from(&publisher);
    assert!(err.is_err(), "the armed chunk fault must fail the attempt");
    assert!(armed.load(Ordering::SeqCst));
    assert!(!subscriber.orm().is_bootstrap());
    let stats = subscriber.bootstrap_stats();
    assert_eq!(stats.attempts, 1);
    assert_eq!(
        stats.chunks_copied, 2,
        "the chunks before the faulted one were applied"
    );
    assert!(stats.retries >= 1, "the chunk retried before exhausting");
    assert_eq!(stats.records_copied, 2 * CHUNK as u64);
    assert_eq!(stats.records_reconciled, 0);

    // Second attempt: it re-reads the rows the first one copied, and
    // admission refuses each of them before any engine write.
    let started = Instant::now();
    subscriber.bootstrap_from(&publisher).unwrap();
    let elapsed = started.elapsed();
    let stats = subscriber.bootstrap_stats();
    assert_eq!(stats.completions, 1);
    assert_eq!(
        stats.records_reconciled,
        2 * CHUNK as u64,
        "the restart re-read what the failed attempt copied, and admission refused it"
    );
    assert_eq!(
        stats.records_copied,
        4 * CHUNK as u64 + 3,
        "admission must not let a copied row be written twice"
    );
    eprintln!(
        "restarted attempt: {elapsed:?} for {} rows, {} of them refused",
        4 * CHUNK + 3,
        stats.records_reconciled
    );
    assert_eq!(
        stats.copies_merged, 0,
        "with no workers the copy applies synchronously, not via the queue"
    );
    assert_eq!(
        subscriber.orm().count("User").unwrap(),
        4 * CHUNK as u64 + 3
    );
    assert_eq!(stats.phase, BootstrapPhase::Live);

    // The queued live messages drain once workers run; applying them over
    // their own copies must not double anything.
    subscriber.start();
    assert!(subscriber.subscriber().drain(Duration::from_secs(10)));
    assert_eq!(
        subscriber.orm().count("User").unwrap(),
        4 * CHUNK as u64 + 3
    );
    eco.stop_all();
}

/// A copy whose subscriber callback panics fails the bootstrap attempt at
/// its chunk, on a node whose worker pool runs: the copier applies every
/// chunk itself, so the copy is neither dead-lettered nor lost behind a
/// reported success. The node stays writable, and once the callback stops
/// panicking the next attempt copies from the first row again, has every
/// row the failed attempt copied refused by admission, and converges.
#[test]
fn a_panicking_copy_fails_the_attempt_and_the_next_restarts() {
    let eco = Ecosystem::new();
    let publisher = publisher_with_users(&eco, 3 * CHUNK);
    let subscriber = eco.add_node(
        SynapseConfig::new("late").workers(2),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    for model in ["User", "Note"] {
        subscriber
            .orm()
            .define_model(ModelSchema::open(model))
            .unwrap();
    }
    subscriber
        .subscribe(Subscription::model("User", "pub").fields(&["name"]))
        .unwrap();
    // A row of the third chunk.
    let poison = format!("u{}", 2 * CHUNK + 5);
    let poisoned = Arc::new(AtomicBool::new(true));
    {
        let poisoned = poisoned.clone();
        subscriber
            .orm()
            .on("User", CallbackPoint::BeforeCreate, move |_ctx, record| {
                if poisoned.load(Ordering::SeqCst)
                    && record.get("name").as_str() == Some(poison.as_str())
                {
                    panic!("poisoned copy");
                }
                Ok(())
            });
    }
    eco.connect();
    subscriber.start();

    assert!(subscriber.bootstrap_from(&publisher).is_err());
    assert!(!subscriber.orm().is_bootstrap());
    subscriber
        .orm()
        .create("Note", vmap! { "body" => "still writable" })
        .unwrap();
    let stats = subscriber.bootstrap_stats();
    assert_eq!(stats.completions, 0);
    assert_eq!(stats.phase, BootstrapPhase::Idle);
    assert_eq!(
        stats.chunks_copied, 2,
        "the chunks before the poisoned row were applied"
    );
    assert_eq!(stats.records_copied, 2 * CHUNK as u64 + 5);
    assert_eq!(stats.records_reconciled, 0);
    assert!(subscriber.subscriber().drain(Duration::from_secs(10)));
    assert_eq!(subscriber.subscriber_stats().dead_lettered, 0);
    assert!(subscriber.dead_letters().is_empty());

    poisoned.store(false, Ordering::SeqCst);
    subscriber.bootstrap_from(&publisher).unwrap();
    let stats = subscriber.bootstrap_stats();
    assert_eq!(stats.completions, 1);
    assert_eq!(
        stats.records_reconciled,
        2 * CHUNK as u64 + 5,
        "the restart re-read what the failed attempt copied, and admission refused it"
    );
    assert_eq!(
        stats.records_copied,
        3 * CHUNK as u64,
        "admission must not let a copied row be written twice"
    );
    assert_eq!(subscriber.orm().count("User").unwrap(), 3 * CHUNK as u64);
    assert!(subscriber.dead_letters().is_empty());
    eco.stop_all();
}

/// A decommission that swept queued messages lost the writes they carried.
/// The reinstating bootstrap copies from the first row, so it covers the
/// swept rows too and converges exactly.
#[test]
fn reinstate_after_swept_backlog_recopies_and_converges() {
    let eco = Ecosystem::new();
    let publisher = publisher_with_users(&eco, 5 * CHUNK);
    let subscriber = eco.add_node(
        SynapseConfig::new("late"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("User", "pub").fields(&["name"]))
        .unwrap();
    eco.connect();

    // Live writes land in the bound queue (and the publisher db).
    for i in 0..3 {
        publisher
            .orm()
            .create("User", vmap! { "name" => format!("live-{i}") })
            .unwrap();
    }
    let armed = arm_copy_fault_at_chunk(&subscriber, 2);
    assert!(subscriber.bootstrap_from(&publisher).is_err());
    assert!(armed.load(Ordering::SeqCst));
    assert_eq!(subscriber.bootstrap_stats().chunks_copied, 2);

    // The decommission sweeps the three queued messages: real loss.
    cap_kill(eco.broker(), &subscriber);
    subscriber.bootstrap_from(&publisher).unwrap();
    let stats = subscriber.bootstrap_stats();
    assert_eq!(stats.completions, 1);
    // The full re-copy covers the swept writes too: exact convergence.
    assert_eq!(
        subscriber.orm().count("User").unwrap(),
        5 * CHUNK as u64 + 3
    );
    assert!(eco.broker().stats().discarded >= 3);
    eco.stop_all();
}

/// A publisher whose only publication is ephemeral has nothing to copy:
/// bootstrap completes straight through to Live with zero chunks.
#[test]
fn ephemeral_only_publication_completes_with_empty_copy() {
    let eco = Ecosystem::new();
    let frontend = eco.add_node(
        SynapseConfig::new("frontend"),
        Arc::new(EphemeralAdapter::new()),
    );
    frontend
        .orm()
        .define_model(ModelSchema::open("Click"))
        .unwrap();
    frontend
        .publish(Publication::model("Click").fields(&["target"]).ephemeral())
        .unwrap();

    let analytics = eco.add_node(
        SynapseConfig::new("analytics"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    analytics
        .orm()
        .define_model(ModelSchema::open("Click"))
        .unwrap();
    analytics
        .subscribe(Subscription::model("Click", "frontend").fields(&["target"]))
        .unwrap();
    eco.connect();

    analytics.start_and_bootstrap_from(&frontend).unwrap();
    let stats = analytics.bootstrap_stats();
    assert_eq!(stats.completions, 1);
    assert_eq!(stats.chunks_copied, 0);
    assert_eq!(stats.records_copied, 0);
    assert_eq!(stats.phase, BootstrapPhase::Live);
    eco.stop_all();
}

/// A reinstate racing a broker restart: armed per-queue drop faults belong
/// to the decommissioned incarnation and must not eat the reinstated
/// queue's first live messages; a second reinstate of the now-active queue
/// is a no-op.
#[test]
fn reinstate_racing_broker_restart_discards_stale_drop_faults() {
    let eco = Ecosystem::new();
    let publisher = publisher_with_users(&eco, 3);
    let subscriber = eco.add_node(
        SynapseConfig::new("late"),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    subscriber
        .orm()
        .define_model(ModelSchema::open("User"))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("User", "pub").fields(&["name"]))
        .unwrap();
    eco.connect();
    subscriber.start_and_bootstrap_from(&publisher).unwrap();
    assert_eq!(subscriber.orm().count("User").unwrap(), 3);

    // The queue dies and drop faults are armed on the dead incarnation;
    // the broker restarts while it is decommissioned.
    cap_kill(eco.broker(), &subscriber);
    let mut injector = Injector::new(eco.broker().clone(), "late");
    injector.apply(&FaultKind::DropMessages { n: 5 });
    injector.apply(&FaultKind::BrokerRestart);

    // Partial bootstrap reinstates the queue; the armed drops must have
    // died with the old incarnation.
    subscriber.bootstrap_from(&publisher).unwrap();
    assert_eq!(eco.broker().stats().reinstated, 1);
    assert!(
        !eco.broker().reinstate_queue("late"),
        "reinstating an active queue is a no-op"
    );
    for i in 0..2 {
        publisher
            .orm()
            .create("User", vmap! { "name" => format!("post-{i}") })
            .unwrap();
    }
    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().count("User").unwrap() == 5
    }));
    assert_eq!(
        eco.broker().stats().dropped,
        0,
        "no armed drop may survive the reinstate"
    );
    eco.stop_all();
}

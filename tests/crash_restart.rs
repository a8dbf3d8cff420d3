//! Crash-restart soak: the durability plane under a seeded kill schedule.
//!
//! Two layers, one invariant — **acked work never resurrects and
//! durably-accepted work never vanishes**, no matter where the process
//! dies:
//!
//! * **Broker layer** (`wal_survives_every_crash_point`): a seeded
//!   [`CrashPlan`] drives rounds of publish/pop/ack against a durable
//!   broker and kills it at a rotating crash point — mid-append (a torn
//!   frame poisons the log), torn tail (garbage bytes after the last good
//!   frame), dropped fsyncs followed by power failure (the disk lied),
//!   a crash right after a checkpoint compaction, and mid-group-commit
//!   (a publish leading a group with staged relaxed-lane acks reaches
//!   disk only as a strict prefix of that multi-frame write). Every
//!   reopen must replay a consistent prefix: all durably-confirmed
//!   unacked messages present, no acked message redelivered, no phantom
//!   payloads.
//! * **Node layer** (`node_recovery_restarts_an_interrupted_bootstrap`): a
//!   subscriber with the durability plane on dies mid-bootstrap (an armed
//!   chunk-copy fault kills the copy after two chunks were applied),
//!   persists a version-store snapshot, and is rebuilt from disk after a
//!   torn-tail corruption of the active segment. Recovery must truncate
//!   the tear, load the snapshot *before traffic* (asserted through the
//!   `recovery.*` telemetry counters), replay the broker WAL, and the
//!   next `bootstrap_from` copies from the first row while the
//!   snapshot-carried admission state refuses every row already copied
//!   (`records_copied` strictly below a full re-copy).
//!
//! `SYNAPSE_SEED=<n>` pins the schedule; `SYNAPSE_CRASH_SWEEP=1` runs a
//! ten-seed sweep of the broker soak on top of the seed of record.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use synapse_faults::{CrashPlan, CrashPoint, SeededRng};
use synapse_repro::broker::{Broker, FsyncPolicy, QueueConfig, WalConfig};
use synapse_repro::core::{
    Ecosystem, Publication, Subscription, SynapseConfig, SynapseNode, BOOTSTRAP_CHUNK_ROWS,
    RETRY_ATTEMPTS,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, ModelSchema};
use synapse_repro::orm::adapters::MongoidAdapter;

mod common;
use common::{eventually, temp_dir};

/// Seed of record: `SYNAPSE_SEED=<n>` reproduces a specific schedule.
fn seed_of_record() -> u64 {
    std::env::var("SYNAPSE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_CAFE)
}

/// The highest-numbered WAL segment file in `dir` — the active tail the
/// torn-tail faults damage.
fn latest_segment(dir: &std::path::Path) -> PathBuf {
    std::fs::read_dir(dir)
        .expect("wal dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("segment-") && n.ends_with(".wal"))
        })
        .max()
        .expect("at least one segment")
}

/// Appends `n` garbage bytes to the active segment: the on-disk residue of
/// an append that died partway (a torn tail the next open must truncate).
fn tear_tail(dir: &std::path::Path, n: u64) {
    use std::io::Write;
    let path = latest_segment(dir);
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("open segment");
    file.write_all(&vec![0xFF; n as usize]).expect("tear tail");
    file.sync_all().expect("sync torn tail");
}

/// Rounds in the broker-layer soak. The crash-point rotation in
/// [`CrashPlan::generate`] guarantees all five points fire within any
/// window of five rounds, so six rounds cover every point at least once.
const ROUNDS: usize = 6;
/// Upper bound on publishes per round (the plan draws `after_ops` from
/// `1..=OPS_PER_ROUND`).
const OPS_PER_ROUND: u64 = 40;

/// One full broker-layer soak run. Panics on any violated invariant.
fn run_crash_soak(seed: u64) {
    let dir = temp_dir("broker");
    // EveryWrite makes publish-Ok a durability promise (the frame is
    // synced before the call returns), which is what the zero-acked-loss
    // ledger below audits. Small segments force mid-soak rolls so replay
    // crosses segment boundaries.
    let cfg = || {
        WalConfig::new(&dir)
            .segment_max_bytes(4096)
            .fsync(FsyncPolicy::EveryWrite)
    };
    let plan = CrashPlan::generate(seed, ROUNDS, OPS_PER_ROUND);
    let mut rng = SeededRng::new(seed ^ 0xC4A5_4B17);

    // The durability ledger. `confirmed`: publish returned Ok under a
    // truthful disk and no ack was ever durably logged — these MUST
    // survive every crash. `acked`: an ack was durably logged — these must
    // NEVER be redelivered. `suspect`: published into a lying-fsync
    // window — they may or may not survive (the disk lied, not the WAL),
    // but if they do survive they are real deliveries, not phantoms.
    let mut confirmed: BTreeSet<String> = BTreeSet::new();
    let mut acked: BTreeSet<String> = BTreeSet::new();
    let mut suspect: BTreeSet<String> = BTreeSet::new();
    let mut seq = 0u64;
    let mut total_replayed = 0u64;
    let mut total_torn = 0u64;
    let mut points_fired: BTreeSet<&'static str> = BTreeSet::new();

    for (round, event) in plan.events.iter().enumerate() {
        let (broker, report) = Broker::open_durable(cfg()).expect("open_durable never fails");
        total_replayed += report.replayed_entries;
        total_torn += report.torn_entries_dropped;
        broker.declare_queue("q", QueueConfig::default());
        broker.bind("x", "q");
        let consumer = broker.consumer("q").expect("queue declared");

        // --- Audit the recovered state against the ledger. ---
        let mut present: BTreeMap<String, u64> = BTreeMap::new();
        while let Some(d) = consumer.pop(Duration::ZERO) {
            present.insert(d.payload.as_str().to_owned(), d.tag);
        }
        for p in &acked {
            assert!(
                !present.contains_key(p),
                "round {round}: acked payload {p:?} resurrected after restart"
            );
        }
        for p in &confirmed {
            assert!(
                present.contains_key(p),
                "round {round}: durably-confirmed payload {p:?} lost across restart"
            );
        }
        for p in present.keys() {
            assert!(
                confirmed.contains(p) || suspect.contains(p),
                "round {round}: phantom payload {p:?} replayed from nowhere"
            );
        }

        // Retire survivors of the last lying-fsync window: acking them now
        // (under a truthful disk again) makes the ack durable.
        for p in std::mem::take(&mut suspect) {
            if let Some(&tag) = present.get(&p) {
                assert!(consumer.ack(tag), "ack of recovered suspect");
                acked.insert(p);
            }
        }
        // Ack a seeded subset of the confirmed backlog.
        for p in confirmed.clone() {
            if rng.gen_ratio(1, 2) {
                let tag = present[&p];
                assert!(consumer.ack(tag), "ack of confirmed payload");
                confirmed.remove(&p);
                acked.insert(p);
            }
        }
        // Seeded checkpoint: compact history so replay also runs from a
        // Checkpoint record (with live unacked state) instead of raw
        // enqueues only.
        if rng.gen_ratio(1, 3) {
            broker.checkpoint().expect("checkpoint");
        }

        // --- This round's write traffic. ---
        for _ in 0..event.after_ops {
            let p = format!("r{round}-m{seq}");
            seq += 1;
            broker
                .publish_routed("x", p.as_str(), 0, 0)
                .expect("healthy publish");
            confirmed.insert(p);
        }

        // --- Kill the process at the plan's crash point. ---
        match event.point {
            CrashPoint::MidAppend => {
                points_fired.insert("mid-append");
                let wal = broker.wal().expect("durable broker has a wal");
                wal.inject_partial_append(event.cut_back % 7);
                let p = format!("r{round}-torn-{seq}");
                seq += 1;
                assert!(
                    broker.publish_routed("x", p.as_str(), 0, 0).is_err(),
                    "a publish whose append died mid-frame must fail"
                );
                assert!(
                    broker.publish_routed("x", "post-poison", 0, 0).is_err(),
                    "a poisoned log must refuse all further publishes"
                );
            }
            CrashPoint::TornTail => {
                points_fired.insert("torn-tail");
                drop(consumer);
                drop(broker);
                tear_tail(&dir, event.cut_back);
                continue;
            }
            CrashPoint::DroppedFsync => {
                points_fired.insert("dropped-fsync");
                let wal = broker.wal().expect("durable broker has a wal");
                wal.inject_drop_fsyncs(1_000);
                for _ in 0..(event.cut_back % 6 + 1) {
                    let p = format!("r{round}-lied-{seq}");
                    seq += 1;
                    if broker.publish_routed("x", p.as_str(), 0, 0).is_ok() {
                        suspect.insert(p);
                    }
                }
                wal.simulate_power_failure().expect("power failure");
                assert!(
                    broker
                        .publish_routed("x", "post-power-failure", 0, 0)
                        .is_err(),
                    "a power-failed log must refuse further publishes"
                );
            }
            CrashPoint::MidSnapshot => {
                points_fired.insert("mid-snapshot");
                // Crash immediately after a checkpoint compaction: the
                // post-checkpoint tail is torn, so replay must restore the
                // whole backlog from the Checkpoint record alone.
                broker.checkpoint().expect("checkpoint before crash");
                drop(consumer);
                drop(broker);
                tear_tail(&dir, event.cut_back);
                continue;
            }
            CrashPoint::MidGroupCommit => {
                points_fired.insert("mid-group-commit");
                let wal = broker.wal().expect("durable broker has a wal");
                // Acks ride the relaxed lane: staged, not written, until
                // the next blocking append carries them in its group. Ack
                // up to three of this round's publishes, then tear the
                // publish that leads their group: the cut lands somewhere
                // inside the multi-frame write (write_batch always clamps
                // to a strict prefix), complete prefix frames reach disk
                // and replay, and the cut frame is torn-tail truncated on
                // reopen.
                let commits = wal.stats().group_commits;
                let mut staged: Vec<String> = Vec::new();
                while staged.len() < 3 {
                    let Some(d) = consumer.pop(Duration::ZERO) else {
                        break;
                    };
                    assert!(consumer.ack(d.tag), "ack of this round's publish");
                    staged.push(d.payload.as_str().to_owned());
                }
                assert!(!staged.is_empty(), "the round published at least once");
                assert_eq!(
                    wal.stats().group_commits,
                    commits,
                    "the acks stay staged for the publish's group"
                );
                wal.inject_partial_append(20 + event.cut_back * 3);
                let p = format!("r{round}-gc-{seq}");
                seq += 1;
                assert!(
                    broker.publish_routed("x", p.as_str(), 0, 0).is_err(),
                    "a publish whose group commit died mid-write must fail"
                );
                // An ack may or may not have reached the disk, and the
                // publisher saw Err: none of these is promised either way,
                // exactly the `suspect` contract.
                for acked_early in &staged {
                    confirmed.remove(acked_early);
                }
                suspect.extend(staged);
                suspect.insert(p);
                assert!(
                    broker
                        .publish_routed("x", "post-batch-poison", 0, 0)
                        .is_err(),
                    "a poisoned log must refuse all further publishes"
                );
            }
        }
        drop(consumer);
        drop(broker);
    }

    // --- Final convergence: drain everything after the last crash. ---
    let (broker, report) = Broker::open_durable(cfg()).expect("final open");
    total_replayed += report.replayed_entries;
    total_torn += report.torn_entries_dropped;
    broker.declare_queue("q", QueueConfig::default());
    let consumer = broker.consumer("q").expect("queue declared");
    let mut survivors = BTreeSet::new();
    while let Some(d) = consumer.pop(Duration::ZERO) {
        survivors.insert(d.payload.as_str().to_owned());
        assert!(consumer.ack(d.tag));
    }
    for p in &confirmed {
        assert!(
            survivors.contains(p),
            "confirmed payload {p:?} lost by the end of the soak"
        );
    }
    for p in &acked {
        assert!(
            !survivors.contains(p),
            "acked payload {p:?} redelivered at the end of the soak"
        );
    }
    for p in &survivors {
        assert!(
            confirmed.contains(p) || suspect.contains(p),
            "phantom payload {p:?} in the final drain"
        );
    }
    assert_eq!(
        points_fired.len(),
        CrashPoint::ALL.len(),
        "the rotation must exercise every crash point: {points_fired:?}"
    );
    assert!(total_replayed > 0, "recovery replayed WAL entries");
    assert!(
        total_torn >= 1,
        "torn-tail rounds must be detected and truncated"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The pinned-seed broker-layer run.
#[test]
fn wal_survives_every_crash_point() {
    run_crash_soak(seed_of_record());
}

/// Ten-seed sweep, opt-in via `SYNAPSE_CRASH_SWEEP=1`.
#[test]
fn ten_seed_sweep_holds_the_invariants() {
    if std::env::var("SYNAPSE_CRASH_SWEEP").as_deref() != Ok("1") {
        eprintln!("crash_restart sweep skipped (set SYNAPSE_CRASH_SWEEP=1 to run)");
        return;
    }
    let base = seed_of_record();
    for i in 0..10u64 {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        eprintln!("sweep {i}: seed {seed:#x}");
        run_crash_soak(seed);
    }
}

/// Partitioned-layout crash point: keyed publishes land in
/// hash-determined partitions; after a torn-tail crash, WAL replay must
/// rebuild the exact same partition membership (the tag's hint byte is
/// the routing fact of record, so it needs no extra log records), with
/// every durably-unacked message back in its home partition in publish
/// order and nothing acked resurrected. In-flight pops are not logged —
/// only acks are — so a reopen deterministically restores "published
/// minus acked", per partition.
#[test]
fn partition_layout_survives_reopen() {
    use synapse_repro::broker::tag_hint;

    const PARTS: usize = 8;
    const KEYS: u64 = 12;
    let dir = temp_dir("partition-layout");
    let cfg = || {
        WalConfig::new(&dir)
            .segment_max_bytes(4096)
            .fsync(FsyncPolicy::EveryWrite)
    };
    let qcfg = QueueConfig {
        max_len: None,
        partitions: PARTS,
    };
    let home = |key: u64| (key % 256) as usize % PARTS;

    let (broker, _) = Broker::open_durable(cfg()).expect("first open");
    broker.declare_queue("q", qcfg.clone());
    broker.bind("x", "q");
    let consumer = broker.consumer("q").expect("queue declared");

    // 48 keyed messages over 12 keys, payloads carrying (key, sequence).
    let mut published: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..48u64 {
        let key = 1 + i % KEYS;
        let seq = published.entry(key).or_default();
        broker
            .publish_routed("x", format!("k{key}-{seq}"), 0, key)
            .expect("healthy publish");
        *seq += 1;
    }

    // Crash with a mixed ledger: a few in-flight (popped, never acked —
    // these must come back), a few durably acked (must not), the rest
    // never popped.
    let inflight = consumer.pop_batch_from(home(3), 3);
    assert_eq!(inflight.len(), 3, "partition for key 3 had a backlog");
    let mut acked: BTreeMap<u64, u64> = BTreeMap::new();
    for d in consumer.pop_batch_from(home(5), 2) {
        assert!(consumer.ack(d.tag));
        let key = tag_hint(d.tag) as u64; // keys 1..=12 < 256: the hint is the key
        *acked.entry(key).or_default() += 1;
    }
    drop(consumer);
    drop(broker);
    tear_tail(&dir, 17);

    let (broker, report) = Broker::open_durable(cfg()).expect("reopen");
    assert!(report.replayed_entries > 0, "replay saw the keyed traffic");
    broker.declare_queue("q", qcfg);
    assert_eq!(broker.queue_partitions("q"), Some(PARTS));
    let consumer = broker.consumer("q").expect("queue declared");

    // Membership is a pure function of the replayed tags: every partition
    // holds exactly its keys' published-minus-acked messages.
    let mut expected = vec![0usize; PARTS];
    for (key, n) in &published {
        expected[home(*key)] += *n as usize;
    }
    for (key, n) in &acked {
        expected[home(*key)] -= *n as usize;
    }
    assert_eq!(
        broker.partition_depths("q").expect("partitioned queue"),
        expected,
        "reopen rebuilt the exact pre-crash partition membership"
    );

    // Drain each partition: deliveries carry their partition in the tag
    // hint, and each key replays its full sequence in publish order with
    // exactly the acked prefix missing.
    let mut seen: BTreeMap<u64, u64> = BTreeMap::new();
    for p in 0..PARTS {
        loop {
            let batch = consumer.pop_batch_from(p, 16);
            if batch.is_empty() {
                break;
            }
            for d in batch {
                assert_eq!(
                    tag_hint(d.tag) as usize % PARTS,
                    p,
                    "tag hint names its partition"
                );
                let (key, seq) = d
                    .payload
                    .as_str()
                    .strip_prefix('k')
                    .and_then(|s| s.split_once('-'))
                    .map(|(k, s)| (k.parse::<u64>().unwrap(), s.parse::<u64>().unwrap()))
                    .unwrap();
                let next = seen
                    .entry(key)
                    .or_insert_with(|| acked.get(&key).copied().unwrap_or(0));
                assert_eq!(seq, *next, "key {key} replays in publish order");
                *next += 1;
                assert!(consumer.ack(d.tag));
            }
        }
    }
    for (key, n) in &published {
        assert_eq!(
            seen.get(key).copied().unwrap_or(0),
            *n,
            "key {key} drained to its publish count"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------------------------------
// Node layer: snapshot + WAL recovery restarts an interrupted bootstrap.
// --------------------------------------------------------------------------

/// Rows seeded before the subscriber's queue is bound: history that can
/// only arrive through the chunked object copy, six chunks of it.
const SEED_ROWS: usize = 6 * BOOTSTRAP_CHUNK_ROWS;
/// Live rows written after the failed attempt, so the broker WAL carries
/// real enqueue/ack traffic across the restart.
const LIVE_ROWS: usize = 6;

fn counter(snap: &synapse_repro::core::TelemetrySnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

#[test]
fn node_recovery_restarts_an_interrupted_bootstrap() {
    let seed = seed_of_record();
    let root = temp_dir("node");
    let wal_dir = root.join("wal");
    let sub_dir = root.join("sub");
    // The databases play the role of the surviving disks: the same adapter
    // Arcs are handed to the rebuilt nodes after the "crash".
    let pub_adapter = Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off()));
    let sub_adapter = Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off()));

    let wal_cfg = || WalConfig::new(&wal_dir).fsync(FsyncPolicy::Interval(4));
    let build = |eco: &Ecosystem| -> (Arc<SynapseNode>, Arc<SynapseNode>) {
        let publisher = eco.add_node(SynapseConfig::new("pub"), pub_adapter.clone());
        publisher
            .orm()
            .define_model(ModelSchema::open("Post"))
            .unwrap();
        publisher
            .publish(Publication::model("Post").fields(&["body", "version"]))
            .unwrap();
        let subscriber = eco.add_node(
            SynapseConfig::new("sub")
                .wait_timeout(Some(Duration::from_millis(50)))
                .workers(1)
                .durable(&sub_dir)
                .snapshot_every(None),
            sub_adapter.clone(),
        );
        subscriber
            .orm()
            .define_model(ModelSchema::open("Post"))
            .unwrap();
        subscriber
            .subscribe(Subscription::model("Post", "pub").fields(&["body", "version"]))
            .unwrap();
        (publisher, subscriber)
    };

    // --- Incarnation 1: die mid-bootstrap, persist a snapshot. ---
    let (eco, report) = Ecosystem::new_durable(wal_cfg()).expect("durable ecosystem");
    assert_eq!(report.replayed_entries, 0, "fresh log, empty recovery");
    let (publisher, subscriber) = build(&eco);

    // Mid-copy fault: the first time the copier enters its third chunk —
    // two chunks applied — a burst of transient copy faults
    // exhausts the retry budget and kills the attempt.
    let fault_armed = Arc::new(AtomicBool::new(false));
    {
        let fault_armed = fault_armed.clone();
        let target = subscriber.clone();
        let budget = u64::from(RETRY_ATTEMPTS);
        subscriber.set_bootstrap_probe(move |state| {
            if let synapse_repro::core::BootstrapState::Copying { chunk: 2, .. } = state {
                if !fault_armed.swap(true, Ordering::SeqCst) {
                    target.inject_copy_failures(budget);
                }
            }
        });
    }

    for i in 0..SEED_ROWS {
        publisher
            .orm()
            .create(
                "Post",
                vmap! { "body" => format!("seed-{i}"), "version" => i as i64 },
            )
            .unwrap();
    }
    eco.connect();
    subscriber.start();

    let first = subscriber.bootstrap_from(&publisher);
    assert!(first.is_err(), "the armed chunk fault must fail attempt 1");
    assert!(
        fault_armed.load(Ordering::SeqCst),
        "the fault armed in the copier"
    );
    assert!(!subscriber.orm().is_bootstrap());
    let failed = subscriber.bootstrap_stats();
    assert_eq!(failed.completions, 0);
    assert!(
        failed.chunks_copied >= 2,
        "chunks before the poisoned one were applied"
    );

    // Live traffic after the failure: the broker WAL picks up real
    // enqueue/ack records the restart will replay.
    let mut live_ids = Vec::new();
    for i in 0..LIVE_ROWS {
        let row = publisher
            .orm()
            .create(
                "Post",
                vmap! { "body" => format!("live-{i}"), "version" => (1000 + i) as i64 },
            )
            .unwrap();
        live_ids.push(row.id);
    }
    let last_live = *live_ids.last().unwrap();
    assert!(
        eventually(Duration::from_secs(5), || {
            subscriber.orm().find("Post", last_live).unwrap().is_some()
        }),
        "live replication applies even while bootstrap is incomplete"
    );

    // Persist the version-store snapshot — admission state included. The first
    // attempt is interrupted by an injected fault; the store must keep the
    // previous-latest intact and the retry must land.
    let store = subscriber.snapshot_store().expect("durability plane is on");
    store.inject_interrupt_next();
    assert!(
        subscriber.persist_snapshot().is_err(),
        "the injected interrupt must fail this persist"
    );
    subscriber.persist_snapshot().expect("retry persists");
    let sstats = store.stats();
    assert_eq!(sstats.interrupted, 1);
    assert_eq!(sstats.persisted, 1);
    let snap = subscriber.telemetry_snapshot();
    assert_eq!(counter(&snap, "durability.snapshots_persisted"), 1);
    assert_eq!(counter(&snap, "durability.snapshots_interrupted"), 1);
    // Copies race the live workers, so a committed chunk's row counts as
    // copied or as reconciled.
    let covered_before_crash = failed.records_copied + failed.records_reconciled;
    assert!(
        covered_before_crash >= 2 * BOOTSTRAP_CHUNK_ROWS as u64,
        "two committed chunks"
    );

    eco.stop_all();
    drop(subscriber);
    drop(publisher);
    drop(eco);

    // The crash leaves a torn tail on the active segment — garbage bytes
    // after the last good frame, as if the process died mid-append.
    tear_tail(&wal_dir, 37);

    // --- Incarnation 2: rebuild from disk; recovery precedes traffic. ---
    // The log it replays carries the first incarnation's enqueue/ack
    // traffic; replay must fold it and truncate the torn tail.
    let (eco, report) = Ecosystem::new_durable(wal_cfg()).expect("durable reopen");
    assert!(
        report.replayed_entries > 0,
        "the restart replays the WAL the first incarnation wrote"
    );
    assert!(
        report.torn_entries_dropped >= 1,
        "the torn tail was detected and truncated on reopen"
    );
    let (publisher, subscriber) = build(&eco);

    // Recovery telemetry: the snapshot was loaded during construction —
    // before connect/start — and the WAL replay was folded in.
    let snap = subscriber.telemetry_snapshot();
    assert_eq!(counter(&snap, "recovery.snapshots_loaded"), 1);
    assert!(
        counter(&snap, "recovery.snapshot_entries") > 0,
        "the loaded snapshot carried version entries (incl. admission state)"
    );
    assert!(
        counter(&snap, "recovery.wal_replayed_entries") > 0,
        "the broker recovery report is visible through node telemetry"
    );
    assert_eq!(counter(&snap, "recovery.snapshot_load_errors"), 0);
    assert!(
        counter(&snap, "recovery.passes") >= 1,
        "the recovery duration histogram recorded the pass"
    );

    eco.connect();
    subscriber.start();

    // The restarted bootstrap copies from the first row, and the
    // snapshot-carried admission state refuses every row the first
    // incarnation copied or the live stream applied.
    subscriber
        .bootstrap_from(&publisher)
        .expect("restarted bootstrap converges");
    let stats = subscriber.bootstrap_stats();
    assert_eq!(stats.completions, 1);
    let total = (SEED_ROWS + LIVE_ROWS) as u64;
    assert!(
        stats.records_copied < total,
        "{} rows re-written of {total} — a full re-write means the \
         snapshot lost the admission state",
        stats.records_copied
    );

    // Exact convergence, crash or no crash.
    let pub_rows = publisher.orm().all("Post").unwrap();
    let sub_rows = subscriber.orm().all("Post").unwrap();
    assert_eq!(pub_rows.len(), SEED_ROWS + LIVE_ROWS);
    assert_eq!(
        sub_rows.len(),
        pub_rows.len(),
        "no lost and no doubled rows"
    );
    for row in &pub_rows {
        let replica = subscriber
            .orm()
            .find("Post", row.id)
            .unwrap()
            .unwrap_or_else(|| panic!("row {} lost across the crash", row.id));
        assert_eq!(replica.get("body"), row.get("body"), "row {}", row.id);
        assert_eq!(replica.get("version"), row.get("version"), "row {}", row.id);
    }

    // Live replication still works end to end, and the driver-clocked
    // snapshot cadence is live again on the rebuilt node. The rebuilt
    // publisher's in-memory id generator restarted at 1, so seed it the
    // way a restarted app would: from the database's max id.
    let next_id = synapse_repro::model::Id(pub_rows.iter().map(|r| r.id.0).max().unwrap() + 1);
    let fresh = publisher
        .orm()
        .create_with_id(
            "Post",
            next_id,
            vmap! { "body" => format!("post-crash-{seed}"), "version" => 9999 },
        )
        .unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().find("Post", fresh.id).unwrap().is_some()
    }));
    subscriber
        .persist_snapshot()
        .expect("post-recovery snapshot");
    eco.stop_all();
    let _ = std::fs::remove_dir_all(&root);
}

/// Reads the 8-byte magic of the newest `state-<seq>.snap` file in `dir`.
fn latest_snapshot_magic(dir: &std::path::Path) -> [u8; 8] {
    let path = std::fs::read_dir(dir)
        .expect("snapshot dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("state-") && n.ends_with(".snap"))
        })
        .max_by_key(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| {
                    n.strip_prefix("state-")?
                        .strip_suffix(".snap")?
                        .parse::<u64>()
                        .ok()
                })
                .unwrap_or(0)
        })
        .expect("at least one snapshot file");
    let bytes = std::fs::read(&path).expect("read snapshot");
    bytes[..8].try_into().expect("snapshot has a magic header")
}

/// Unknown snapshot magic is rejected, not trusted: a node whose only
/// snapshot file carries a retired magic (SYNSNAP4, CRC-valid) must skip
/// it — counted in `recovery.snapshots_skipped_corrupt`, nothing loaded,
/// no load error, no panic — and still recover every row: the backlog the
/// first incarnation left unconsumed comes back through broker WAL
/// replay, and a bootstrap closes whatever the lost version state leaves
/// open.
#[test]
fn unknown_magic_snapshot_is_skipped_and_node_recovers_by_replay_and_bootstrap() {
    let root = temp_dir("foreign-snap");
    let wal_dir = root.join("wal");
    let sub_dir = root.join("sub");
    let pub_adapter = Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off()));
    let sub_adapter = Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off()));

    let wal_cfg = || WalConfig::new(&wal_dir).fsync(FsyncPolicy::Interval(4));
    let build = |eco: &Ecosystem| -> (Arc<SynapseNode>, Arc<SynapseNode>) {
        let publisher = eco.add_node(SynapseConfig::new("pub"), pub_adapter.clone());
        publisher
            .orm()
            .define_model(ModelSchema::open("Post"))
            .unwrap();
        publisher
            .publish(Publication::model("Post").fields(&["body", "version"]))
            .unwrap();
        let subscriber = eco.add_node(
            SynapseConfig::new("sub")
                .wait_timeout(Some(Duration::from_millis(50)))
                .workers(1)
                .durable(&sub_dir)
                .snapshot_every(None),
            sub_adapter.clone(),
        );
        subscriber
            .orm()
            .define_model(ModelSchema::open("Post"))
            .unwrap();
        subscriber
            .subscribe(Subscription::model("Post", "pub").fields(&["body", "version"]))
            .unwrap();
        (publisher, subscriber)
    };
    let create = |publisher: &SynapseNode, label: &str, i: i64| {
        publisher
            .orm()
            .create(
                "Post",
                vmap! { "body" => format!("{label}-{i}"), "version" => i },
            )
            .unwrap()
            .id
    };

    // --- Incarnation 1: replicate, snapshot, then leave a backlog. ---
    let (eco, _) = Ecosystem::new_durable(wal_cfg()).expect("durable ecosystem");
    let (publisher, subscriber) = build(&eco);
    eco.connect();
    eco.start_all();
    let applied: Vec<_> = (0..12).map(|i| create(&publisher, "applied", i)).collect();
    let last = *applied.last().unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        subscriber.orm().find("Post", last).unwrap().is_some()
    }));
    subscriber.persist_snapshot().expect("snapshot persists");
    let store = subscriber.snapshot_store().expect("durability plane is on");
    let snap_dir = store.dir().to_path_buf();
    assert_eq!(latest_snapshot_magic(&snap_dir), *b"SYNSNAP6");
    // Workers down: these writes stay queued, on the broker WAL only.
    subscriber.stop();
    let queued: Vec<_> = (12..18).map(|i| create(&publisher, "queued", i)).collect();
    eco.stop_all();
    drop((subscriber, publisher, eco));

    // Re-label the snapshot in place. The CRC covers the body only, so
    // the file stays CRC-valid: the magic check alone must reject it.
    let path = std::fs::read_dir(&snap_dir)
        .expect("snapshot dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .find(|p| p.extension().is_some_and(|e| e == "snap"))
        .expect("the persisted snapshot file");
    let mut bytes = std::fs::read(&path).expect("read snapshot");
    bytes[..8].copy_from_slice(b"SYNSNAP4");
    std::fs::write(&path, bytes).expect("rewrite magic");
    assert_eq!(latest_snapshot_magic(&snap_dir), *b"SYNSNAP4");

    // --- Incarnation 2: the foreign file is skipped, recovery goes on. ---
    let (eco, report) = Ecosystem::new_durable(wal_cfg()).expect("durable reopen");
    assert!(
        report.replayed_entries > 0,
        "the WAL from incarnation 1 replays"
    );
    let (publisher, subscriber) = build(&eco);
    let snap = subscriber.telemetry_snapshot();
    assert_eq!(
        counter(&snap, "recovery.snapshots_loaded"),
        0,
        "a retired magic is never loaded"
    );
    assert_eq!(counter(&snap, "recovery.snapshots_skipped_corrupt"), 1);
    assert_eq!(counter(&snap, "recovery.snapshot_entries"), 0);
    assert_eq!(counter(&snap, "recovery.snapshot_load_errors"), 0);
    eco.connect();
    eco.start_all();

    // WAL replay: the queued backlog is delivered to the rebuilt node.
    let last_queued = *queued.last().unwrap();
    assert!(
        eventually(Duration::from_secs(5), || {
            subscriber
                .orm()
                .find("Post", last_queued)
                .unwrap()
                .is_some()
        }),
        "the replayed backlog applies without the snapshot"
    );
    // Bootstrap closes the rest; convergence is exact.
    subscriber
        .bootstrap_from(&publisher)
        .expect("bootstrap without a snapshot converges");
    let pub_rows = publisher.orm().all("Post").unwrap();
    assert_eq!(pub_rows.len(), applied.len() + queued.len());
    assert_eq!(subscriber.orm().all("Post").unwrap().len(), pub_rows.len());
    for row in &pub_rows {
        let replica = subscriber
            .orm()
            .find("Post", row.id)
            .unwrap()
            .unwrap_or_else(|| panic!("row {} lost", row.id));
        assert_eq!(replica.get("body"), row.get("body"), "row {}", row.id);
    }

    // The next persist writes the current format above the foreign file
    // and prunes it.
    subscriber.persist_snapshot().expect("fresh persist");
    assert_eq!(latest_snapshot_magic(&snap_dir), *b"SYNSNAP6");
    eco.stop_all();
    let _ = std::fs::remove_dir_all(&root);
}

/// A restarted durable publisher restores its store from a snapshot taken
/// before its last updates, so a row's counter restarts below the version
/// its subscriber recorded. The restart bumps the durable generation, so
/// its next update carries a version of the new generation, which live
/// admission takes over any of the older one.
#[test]
fn a_restarted_durable_publisher_s_next_update_is_not_discarded() {
    let root = temp_dir("pub-restart");
    let pub_adapter = Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off()));
    let sub_adapter = Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off()));
    let build = |eco: &Ecosystem| -> (Arc<SynapseNode>, Arc<SynapseNode>) {
        let durable = |app: &str| {
            SynapseConfig::new(app)
                .durable(root.join(app))
                .snapshot_every(None)
        };
        let publisher = eco.add_node(durable("pub"), pub_adapter.clone());
        let subscriber = eco.add_node(durable("sub").workers(1), sub_adapter.clone());
        for node in [&publisher, &subscriber] {
            node.orm().define_model(ModelSchema::open("Post")).unwrap();
        }
        publisher
            .publish(Publication::model("Post").fields(&["version"]))
            .unwrap();
        subscriber
            .subscribe(Subscription::model("Post", "pub").fields(&["version"]))
            .unwrap();
        eco.connect();
        eco.start_all();
        (publisher, subscriber)
    };
    let shows = |subscriber: &SynapseNode, id, version: i64| {
        let row = subscriber.orm().find("Post", id).unwrap();
        row.is_some_and(|r| r.get("version").as_int() == Some(version))
    };

    let eco = Ecosystem::new();
    let (publisher, subscriber) = build(&eco);
    let id = publisher
        .orm()
        .create("Post", vmap! { "version" => 1 })
        .unwrap()
        .id;
    publisher.persist_snapshot().expect("publisher snapshot");
    for version in [2, 3] {
        publisher
            .orm()
            .update("Post", id, vmap! { "version" => version })
            .unwrap();
    }
    assert!(eventually(Duration::from_secs(5), || shows(
        &subscriber,
        id,
        3
    )));
    assert!(subscriber.subscriber().drain(Duration::from_secs(5)));
    subscriber.persist_snapshot().expect("subscriber snapshot");
    eco.stop_all();
    drop((subscriber, publisher, eco));

    let eco = Ecosystem::new();
    let (publisher, subscriber) = build(&eco);
    publisher
        .orm()
        .update("Post", id, vmap! { "version" => 4 })
        .unwrap();
    assert!(
        eventually(Duration::from_secs(5), || shows(&subscriber, id, 4)),
        "the update after the restart never applied (ops_stale {})",
        subscriber.subscriber_stats().ops_stale
    );
    eco.stop_all();
    let _ = std::fs::remove_dir_all(&root);
}

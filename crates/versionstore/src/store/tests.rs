use super::*;
use crate::generation::versioned;
use std::thread;

/// One bump script on fresh scratch buffers, returning the dependency
/// values it embeds in the message.
fn bump(store: &VersionStore, deps: &[(DepKey, bool)]) -> Vec<(DepKey, u64)> {
    let mut out = Vec::new();
    store
        .publish_bump_into(deps, &mut BumpScratch::default(), &mut out)
        .unwrap();
    out
}

fn prepared(store: &VersionStore, deps: &[(DepKey, u64)]) -> DepWaitSet {
    let mut set = DepWaitSet::default();
    store.prepare_wait(deps, &mut set);
    set
}

/// Prepare-then-wait, as the subscriber does once per message.
fn wait(
    store: &VersionStore,
    deps: &[(DepKey, u64)],
    timeout: Duration,
) -> Result<WaitOutcome, StoreError> {
    store.wait_prepared(&prepared(store, deps), timeout)
}

fn satisfied(store: &VersionStore, deps: &[(DepKey, u64)]) -> bool {
    store.satisfied_prepared(&prepared(store, deps)).unwrap()
}

/// Counters alone in dump form, as bootstrap step 1 loads a publisher's.
fn counters(pairs: &[(DepKey, u64, u64)]) -> StoreDump {
    StoreDump {
        counters: pairs.to_vec(),
        ..StoreDump::default()
    }
}

/// `(key, ops)` pairs loaded as counters with no version mark.
fn load_ops(store: &VersionStore, pairs: &[(DepKey, u64)]) {
    let pairs: Vec<_> = pairs.iter().map(|&(key, ops)| (key, ops, 0)).collect();
    store.load_dump(&counters(&pairs)).unwrap();
}

/// A multi-writer version: clock `clock`, written by `writer`.
fn mesh(clock: u64, writer: u64) -> ObjectVersion {
    ObjectVersion::Mesh((clock, writer))
}

/// The admission script as the subscriber runs it, with a write that
/// always lands: reserve, classify, and commit whatever was not
/// discarded.
fn admit(store: &VersionStore, object: u64, incoming: &ObjectVersion, rule: AdmitRule) -> Verdict {
    let admission = store.reserve(object);
    let verdict = admission.classify(incoming, rule).unwrap();
    if verdict != Verdict::Stale {
        admission.commit(incoming).unwrap();
    }
    verdict
}

fn admit_live(store: &VersionStore, object: u64, clock: u64, writer: u64) -> Verdict {
    admit(store, object, &mesh(clock, writer), AdmitRule::Live)
}

fn admit_copy(store: &VersionStore, object: u64, clock: u64, writer: u64) -> bool {
    admit(store, object, &mesh(clock, writer), AdmitRule::Copy) == Verdict::Fresh
}

/// A single-writer live write: `version >= stored` applies.
fn advance_scalar(store: &VersionStore, object: u64, version: u64) -> bool {
    admit(
        store,
        object,
        &ObjectVersion::Scalar(version),
        AdmitRule::Live,
    ) == Verdict::Fresh
}

/// A single-writer chunk copy: an object with no admission state admits
/// any marker (0 included), otherwise the marker must be strictly newer.
fn admit_scalar_copy(store: &VersionStore, object: u64, marker: u64) -> bool {
    admit(
        store,
        object,
        &ObjectVersion::Scalar(marker),
        AdmitRule::Copy,
    ) == Verdict::Fresh
}

/// Replays Fig. 8's four writes and checks every counter and message
/// dependency value against the figure.
#[test]
fn fig8_publisher_counter_evolution() {
    let store = VersionStore::new(1);
    let (u1, u2, p1, c1, c2) = (1u64, 2, 3, 4, 5);

    // W1: write_deps [user1, post1].
    let m1 = bump(&store, &[(u1, true), (p1, true)]);
    assert_eq!(m1, vec![(u1, 0), (p1, 0)]);

    // W2: read_deps [post1], write_deps [user2, comment1].
    let m2 = bump(&store, &[(u2, true), (c1, true), (p1, false)]);
    assert_eq!(m2, vec![(u2, 0), (c1, 0), (p1, 1)]);

    // W3: read_deps [post1], write_deps [user1, comment2].
    let m3 = bump(&store, &[(u1, true), (c2, true), (p1, false)]);
    assert_eq!(m3, vec![(u1, 1), (c2, 0), (p1, 1)]);

    // W4: write_deps [user1, post1].
    let m4 = bump(&store, &[(u1, true), (p1, true)]);
    assert_eq!(m4, vec![(u1, 2), (p1, 3)]);
}

/// The subscriber side of Fig. 8: M2/M3 need M1; M4 needs all three.
#[test]
fn fig8_subscriber_dependency_graph() {
    let store = VersionStore::new(1);
    let (u1, u2, p1, c1, c2) = (1u64, 2, 3, 4, 5);
    let m1 = [(u1, 0), (p1, 0)];
    let m2 = [(u2, 0), (c1, 0), (p1, 1)];
    let m3 = [(u1, 1), (c2, 0), (p1, 1)];
    let m4 = [(u1, 2), (p1, 3)];

    assert!(satisfied(&store, &m1));
    assert!(!satisfied(&store, &m2));
    assert!(!satisfied(&store, &m3));

    store.apply(&[u1, p1]).unwrap(); // process M1
    assert!(satisfied(&store, &m2));
    assert!(satisfied(&store, &m3));
    assert!(!satisfied(&store, &m4));

    store.apply(&[u2, c1, p1]).unwrap(); // process M2
    assert!(!satisfied(&store, &m4));
    store.apply(&[u1, c2, p1]).unwrap(); // process M3
    assert!(satisfied(&store, &m4));
}

#[test]
fn wait_for_blocks_until_apply() {
    let store = Arc::new(VersionStore::new(4));
    let waiter = {
        let store = store.clone();
        thread::spawn(move || wait(&store, &[(7, 1)], Duration::from_secs(5)).unwrap())
    };
    thread::sleep(Duration::from_millis(30));
    store.apply(&[7]).unwrap();
    assert_eq!(waiter.join().unwrap(), WaitOutcome::Ready);
}

#[test]
fn wait_for_times_out_on_missing_dependency() {
    let store = VersionStore::new(1);
    let out = wait(&store, &[(9, 3)], Duration::from_millis(30)).unwrap();
    assert_eq!(out, WaitOutcome::TimedOut);
}

#[test]
fn cross_shard_bump_is_consistent() {
    let store = VersionStore::new(8);
    let deps: Vec<(DepKey, bool)> = (0..64).map(|k| (k, true)).collect();
    let out = bump(&store, &deps);
    assert!(out.iter().all(|(_, v)| *v == 0));
    let out = bump(&store, &deps);
    assert!(out.iter().all(|(_, v)| *v == 1));
}

#[test]
fn concurrent_bumps_never_lose_increments() {
    let store = Arc::new(VersionStore::new(4));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let store = store.clone();
        handles.push(thread::spawn(move || {
            for _ in 0..500 {
                bump(&store, &[(1, true), (2, false)]);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(store.ops(1).unwrap(), 4000);
    assert_eq!(store.ops(2).unwrap(), 4000);
}

#[test]
fn kill_fails_operations_and_wakes_waiters() {
    let store = Arc::new(VersionStore::new(2));
    store.apply(&[1]).unwrap();
    let waiter = {
        let store = store.clone();
        thread::spawn(move || wait(&store, &[(5, 1)], Duration::from_secs(5)))
    };
    thread::sleep(Duration::from_millis(30));
    store.kill();
    assert_eq!(waiter.join().unwrap(), Err(StoreError::Dead));
    assert_eq!(store.ops(1), Err(StoreError::Dead));
    store.revive();
    assert_eq!(store.ops(1).unwrap(), 0, "contents were lost");
}

#[test]
fn shard_kill_is_partial() {
    let store = VersionStore::new(4);
    // Find two keys on different shards.
    let key_a = 1u64;
    let shard_a = store.shard_for(key_a);
    let key_b = (2..1000)
        .find(|k| store.shard_for(*k) != shard_a)
        .expect("some key routes elsewhere");
    store.apply(&[key_a, key_b]).unwrap();

    store.kill_shard(shard_a);
    assert!(store.is_dead(), "any dead shard marks the store dead");
    assert!(store.shard_is_dead(shard_a));
    assert!(!store.shard_is_dead(store.shard_for(key_b)));
    assert_eq!(store.ops(key_a), Err(StoreError::Dead));
    // The other shard keeps serving.
    assert_eq!(store.ops(key_b).unwrap(), 1);
    store.apply(&[key_b]).unwrap();
    assert_eq!(store.ops(key_b).unwrap(), 2);
    // Ops spanning the dead shard fail atomically (nothing applied).
    assert_eq!(store.apply(&[key_a, key_b]), Err(StoreError::Dead));
    assert_eq!(store.ops(key_b).unwrap(), 2);
    // Whole-store operations refuse to run on a partially-dead store.
    assert_eq!(store.dump(), Err(StoreError::Dead));

    store.revive();
    assert!(!store.is_dead());
    assert_eq!(store.ops(key_a).unwrap(), 0, "shard contents were lost");
    assert_eq!(store.ops(key_b).unwrap(), 2, "other shard kept its data");
    // The counts no longer compare within the generation: the bump script
    // fails, revived or not, until the store enters a new one.
    let mut out = Vec::new();
    let script = [(key_b, true)];
    let mut bump_b = || store.publish_bump_into(&script, &mut BumpScratch::default(), &mut out);
    assert_eq!(bump_b(), Err(StoreError::Dead));
    store.enter_generation(2);
    assert_eq!(bump_b(), Ok(()));
    assert_eq!(out, vec![(key_b, versioned(2, 0))]);
}

#[test]
fn shard_kill_wakes_waiters_on_that_shard() {
    let store = Arc::new(VersionStore::new(4));
    let key = 5u64;
    let target = store.shard_for(key);
    let waiter = {
        let store = store.clone();
        thread::spawn(move || wait(&store, &[(key, 1)], Duration::from_secs(5)))
    };
    thread::sleep(Duration::from_millis(30));
    store.kill_shard(target);
    assert_eq!(waiter.join().unwrap(), Err(StoreError::Dead));
}

#[test]
fn snapshot_roundtrips_through_load() {
    let publisher = VersionStore::new(4);
    bump(&publisher, &[(1, true), (2, true), (3, false)]);
    bump(&publisher, &[(1, true)]);
    let dump = publisher.dump().unwrap();
    assert!(dump.objects.is_empty());
    let subscriber = VersionStore::new(2);
    subscriber.load_dump(&dump).unwrap();
    assert_eq!(subscriber.ops(1).unwrap(), 2);
    assert_eq!(subscriber.ops(2).unwrap(), 1);
    assert_eq!(subscriber.ops(3).unwrap(), 1);
    // The publisher's version marks ride its counters; no object arrives
    // with admission state, so a chunk copy of any of them is admitted.
    assert_eq!(subscriber.latest_version(1).unwrap(), 2);
    assert!(admit_scalar_copy(&subscriber, 1, 0));
}

#[test]
fn load_snapshot_keeps_newer_local_counters() {
    let store = VersionStore::new(1);
    store.apply(&[1]).unwrap();
    store.apply(&[1]).unwrap();
    load_ops(&store, &[(1, 1)]);
    assert_eq!(store.ops(1).unwrap(), 2);
}

#[test]
fn live_rule_discards_stale_scalar_versions() {
    let store = VersionStore::new(1);
    assert!(advance_scalar(&store, 1, 0));
    assert!(advance_scalar(&store, 1, 3));
    assert!(!advance_scalar(&store, 1, 2), "stale version");
    assert!(advance_scalar(&store, 1, 4));
    assert_eq!(
        store.dump().unwrap().objects,
        [(1, ObjectVersion::Scalar(4))]
    );
}

/// A redelivery of the committed version (the ack was lost, or a later
/// operation of the same message failed) must pass the check and
/// re-apply rather than be dropped.
#[test]
fn live_rule_readmits_equal_scalar_versions() {
    let store = VersionStore::new(1);
    assert!(advance_scalar(&store, 1, 5));
    assert!(advance_scalar(&store, 1, 5), "redelivery re-applies");
    assert!(!advance_scalar(&store, 1, 4), "older stays stale");
}

/// An admission abandoned before `commit` — the caller's write failed —
/// leaves no trace, so the retry is classified exactly as the first
/// attempt was, under either rule.
#[test]
fn abandoned_admission_leaves_the_store_untouched() {
    let store = VersionStore::new(2);
    load_ops(&store, &[(1, 3)]);
    advance_scalar(&store, 2, 4);
    admit_live(&store, 4, 1, 11);
    let before = store.dump().unwrap();
    for (object, version) in [(1, 0), (2, 5), (3, 7)] {
        for rule in [AdmitRule::Live, AdmitRule::Copy] {
            let admission = store.reserve(object);
            let incoming = ObjectVersion::Scalar(version);
            assert_eq!(admission.classify(&incoming, rule).unwrap(), Verdict::Fresh);
            drop(admission);
            assert_eq!(store.dump().unwrap(), before);
        }
    }
    let fork = mesh(1, 22);
    let admission = store.reserve(4);
    assert_eq!(
        admission.classify(&fork, AdmitRule::Live).unwrap(),
        Verdict::Fresh
    );
    drop(admission);
    assert_eq!(store.dump().unwrap(), before);
}

/// A local write's stamp, as the publisher runs it: reserve the object,
/// tick the clock under `writer`, commit the stamp.
fn local_stamp(store: &VersionStore, object: u64, writer: u64) -> Stamp {
    let admission = store.reserve(object);
    let stamp = store.next_stamp(writer);
    admission.commit(&ObjectVersion::Mesh(stamp)).unwrap();
    stamp
}

/// A stamp under a reservation is one script: four writers stamping one
/// key while a fifth thread commits foreign stamps never share a clock,
/// and each writer's own stamps strictly grow — which a read followed by
/// a separate write-back cannot guarantee.
#[test]
fn reserved_stamps_are_atomic_under_concurrent_stamps_and_commits() {
    const STAMPS: u64 = 200;
    let store = Arc::new(VersionStore::new(4));
    let writers = [11u64, 22, 33, 44];
    let start = Arc::new(std::sync::Barrier::new(writers.len() + 1));
    let foreign = {
        let (store, start) = (store.clone(), start.clone());
        thread::spawn(move || {
            start.wait();
            for i in 1..=STAMPS {
                store.reserve(1).commit(&mesh(i, 99)).unwrap();
            }
        })
    };
    let stampers: Vec<_> = writers
        .iter()
        .map(|&writer| {
            let (store, start) = (store.clone(), start.clone());
            thread::spawn(move || {
                start.wait();
                let stamped: Vec<Stamp> = (0..STAMPS)
                    .map(|_| local_stamp(&store, 1, writer))
                    .collect();
                for pair in stamped.windows(2) {
                    assert!(pair[0].0 < pair[1].0, "{pair:?}: a clock went back");
                }
                stamped
            })
        })
        .collect();
    let mut stamped: Vec<Stamp> = stampers
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    foreign.join().unwrap();
    stamped.sort_unstable();
    for pair in stamped.windows(2) {
        assert!(pair[0].0 < pair[1].0, "{pair:?}: two stamps shared a clock");
    }
    let newest = stamped.last().copied().max(Some((STAMPS, 99)));
    assert_eq!(Some(store.latest_stamp(1).unwrap()), newest);
}

/// A thread re-enters a stripe it holds instead of deadlocking on it; its
/// stamp of the reserved object follows the stamp the reservation
/// classified, because the classify raised the clock every local stamp
/// ticks — a stamp of another object on the stripe included — and other
/// threads neither see the classified stamp stored nor enter the stripe
/// before the outer reservation ends.
#[test]
fn a_held_stripe_is_reentered_and_its_classified_vector_followed() {
    let store = Arc::new(VersionStore::new(2));
    let neighbour = 1 + ADMISSION_STRIPES as u64;
    let incoming = mesh(5, 22);
    let outer = store.reserve(1);
    assert_eq!(
        outer.classify(&incoming, AdmitRule::Live).unwrap(),
        Verdict::Fresh
    );
    let elsewhere = store.clone();
    let seen = thread::spawn(move || elsewhere.latest_stamp(1).unwrap());
    assert_eq!(seen.join().unwrap(), (0, 0));

    assert_eq!(local_stamp(&store, 1, 11), (6, 11));
    assert_eq!(local_stamp(&store, neighbour, 11), (7, 11));

    let waiter = {
        let store = store.clone();
        thread::spawn(move || drop(store.reserve(1)))
    };
    thread::sleep(Duration::from_millis(30));
    assert!(
        !waiter.is_finished(),
        "entered a stripe another thread holds"
    );
    outer.commit(&incoming).unwrap();
    waiter.join().unwrap();
    assert_eq!(store.latest_stamp(1).unwrap(), (6, 11));

    // A classify raises the clock even if its reservation is dropped
    // uncommitted: a Lamport clock only has to stay ahead.
    let dropped = store.reserve(neighbour);
    dropped.classify(&mesh(9, 33), AdmitRule::Live).unwrap();
    drop(dropped);
    assert_eq!(local_stamp(&store, neighbour, 11), (10, 11));
}

/// The clock lives outside the shards: losing the shard that holds an
/// object's stamp, or the whole store, leaves it where it was, so the next
/// local write still outranks every stamp the node saw. A load raises it
/// to the loaded stamps, and entering a generation floors it at the
/// generation's start.
#[test]
fn the_clock_outlives_a_lost_store_and_follows_loads_and_generations() {
    let store = VersionStore::new(4);
    admit_live(&store, 1, 7, 22);
    store.kill_shard(store.shard_for(1));
    store.revive();
    assert_eq!(store.latest_stamp(1).unwrap(), (0, 0));
    assert_eq!(local_stamp(&store, 1, 11), (8, 11));
    store.kill();
    store.revive();
    assert_eq!(local_stamp(&store, 1, 11), (9, 11));

    let dump = StoreDump {
        objects: vec![(2, mesh(20, 22))],
        ..StoreDump::default()
    };
    store.load_dump(&dump).unwrap();
    assert_eq!(store.next_stamp(11), (21, 11));
    store.enter_generation(2);
    assert_eq!(store.next_stamp(11), (versioned(2, 1), 11));
    store.enter_generation(1);
    assert_eq!(store.next_stamp(11), (versioned(2, 2), 11));
}

/// The two maps never meet: a counter and an object under one key each
/// keep their own value.
#[test]
fn counters_and_objects_share_no_entry() {
    let store = VersionStore::new(1);
    store.apply(&[5]).unwrap();
    assert!(advance_scalar(&store, 5, 900));
    assert_eq!(store.ops(5).unwrap(), 1);
    assert_eq!(store.latest_version(5).unwrap(), 0, "the object stays out");
    assert!(admit_scalar_copy(&store, 6, 0), "object 6 has no state");
    assert!(
        !advance_scalar(&store, 5, 899),
        "the object's version is its own"
    );
    assert_eq!(store.len(), 3, "counter 5, objects 5 and 6");
}

#[test]
fn dump_roundtrips_ops_and_versions() {
    let store = VersionStore::new(4);
    bump(&store, &[(1, true), (2, false)]);
    bump(&store, &[(1, true)]);
    advance_scalar(&store, 8, 5);
    advance_scalar(&store, 4, 6);
    let dump = sorted(store.dump().unwrap());
    assert_eq!(dump.counters, [(1, 2, 2), (2, 1, 0)]);
    assert_eq!(
        dump.objects,
        [(4, ObjectVersion::Scalar(6)), (8, ObjectVersion::Scalar(5))]
    );

    let restored = VersionStore::new(2);
    restored.load_dump(&dump).unwrap();
    assert_eq!(restored.ops(1).unwrap(), 2);
    assert_eq!(restored.latest_version(1).unwrap(), 2, "versions survive");
    assert_eq!(restored.ops(2).unwrap(), 1);
    assert_eq!(sorted(restored.dump().unwrap()), dump);
}

/// A dump's sections sorted by key: dump order is unspecified.
fn sorted(mut dump: StoreDump) -> StoreDump {
    dump.counters.sort_unstable_by_key(|c| c.0);
    dump.objects.sort_unstable_by_key(|o| o.0);
    dump
}

/// Fisher–Yates driven by a xorshift state.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        items.swap(i, (*state % (i as u64 + 1)) as usize);
    }
}

/// `load_dump` max-merges entry by entry, so the order of a dump's
/// sections cannot change what it loads to — even with a key listed a
/// second time, older, in each section.
#[test]
fn load_dump_is_order_free() {
    let store = VersionStore::new(4);
    for key in 0..200u64 {
        bump(&store, &[(key, key % 3 == 0), (key + 1000, true)]);
        advance_scalar(&store, key * 7, key);
        if key % 4 == 0 {
            admit_live(&store, key * 7 + 1, 2, key);
        }
    }
    let mut dump = store.dump().unwrap();
    dump.counters.push((5, 0, 0));
    dump.objects.push((21, ObjectVersion::Scalar(1)));
    let reversed = StoreDump {
        counters: dump.counters.iter().rev().copied().collect(),
        objects: dump.objects.iter().rev().copied().collect(),
    };
    let mut shuffled = dump.clone();
    let mut seed = 0x2545_F491_4F6C_DD1D;
    shuffle(&mut shuffled.counters, &mut seed);
    shuffle(&mut shuffled.objects, &mut seed);
    let loaded: Vec<StoreDump> = [&dump, &reversed, &shuffled]
        .into_iter()
        .map(|d| {
            let restored = VersionStore::new(3);
            restored.load_dump(d).unwrap();
            sorted(restored.dump().unwrap())
        })
        .collect();
    assert_eq!(loaded[0], sorted(store.dump().unwrap()), "the max wins");
    assert_eq!(loaded[1], loaded[0]);
    assert_eq!(loaded[2], loaded[0]);
}

#[test]
fn load_dump_max_merges_both_fields() {
    let store = VersionStore::new(1);
    bump(&store, &[(1, true), (1, false)]);
    advance_scalar(&store, 1, 7);
    // Stale dump: no field regresses.
    let stale = StoreDump {
        counters: vec![(1, 1, 1)],
        objects: vec![(1, ObjectVersion::Scalar(3))],
    };
    store.load_dump(&stale).unwrap();
    assert_eq!(store.ops(1).unwrap(), 2);
    assert_eq!(store.latest_version(1).unwrap(), 1);
    assert!(!advance_scalar(&store, 1, 6), "the object stays at 7");
    // Newer dump: every field advances.
    let newer = StoreDump {
        counters: vec![(1, 10, 9)],
        objects: vec![(1, ObjectVersion::Scalar(12))],
    };
    store.load_dump(&newer).unwrap();
    assert_eq!(store.ops(1).unwrap(), 10);
    assert_eq!(store.latest_version(1).unwrap(), 9);
    assert!(!advance_scalar(&store, 1, 11), "the object moved to 12");
}

/// A copy admitted against an object with no admission state (marker 0 included:
/// rows created before the bootstrap started) must land; a copy tying
/// with or older than an explicitly-recorded version must be
/// discarded — including the version-0 tombstone an applied destroy
/// leaves behind (the deleted-row-resurrection bug).
#[test]
fn admit_copy_distinguishes_tombstones_from_unversioned_keys() {
    let store = VersionStore::new(2);
    // A counter exists from ops bookkeeping (snapshot load) but the
    // object has no admission state: a marker-0 copy must be admitted.
    load_ops(&store, &[(1, 1)]);
    assert!(admit_scalar_copy(&store, 1, 0), "unversioned key admits");
    assert!(
        !admit_scalar_copy(&store, 1, 0),
        "second identical copy ties"
    );

    // An applied destroy records version 0; a stale copy of
    // the pre-delete row (marker 0) must now be discarded.
    assert!(advance_scalar(&store, 2, 0));
    assert!(!admit_scalar_copy(&store, 2, 0), "tombstone wins over copy");

    // A copy strictly newer than the applied version is admitted; the
    // live stream's own `>=` readmit still re-applies its version.
    assert!(advance_scalar(&store, 3, 4));
    assert!(!admit_scalar_copy(&store, 3, 4), "tie goes to live stream");
    assert!(admit_scalar_copy(&store, 3, 5), "strictly newer copy lands");
    assert!(advance_scalar(&store, 3, 5), "live readmits equal");
}

/// Admission state must survive a dump/load round trip: restoring a
/// snapshot must not turn tombstones back into unversioned objects
/// (which would re-admit stale copies after a crash-restart).
#[test]
fn dump_preserves_versioned_flag() {
    let store = VersionStore::new(2);
    load_ops(&store, &[(1, 3)]); // a counter, no object state
    advance_scalar(&store, 2, 0); // tombstone
    let dump = store.dump().unwrap();

    let restored = VersionStore::new(1);
    restored.load_dump(&dump).unwrap();
    assert!(admit_scalar_copy(&restored, 1, 0), "still unversioned");
    assert!(!admit_scalar_copy(&restored, 2, 0), "tombstone survived");
}

#[test]
fn load_dump_wakes_waiters() {
    let store = Arc::new(VersionStore::new(2));
    let waiter = {
        let store = store.clone();
        thread::spawn(move || wait(&store, &[(5, 3)], Duration::from_secs(5)).unwrap())
    };
    thread::sleep(Duration::from_millis(30));
    store.load_dump(&counters(&[(5, 3, 3)])).unwrap();
    assert_eq!(waiter.join().unwrap(), WaitOutcome::Ready);
}

/// Two writers' stamps are classified as plain ordered pairs: a later
/// clock wins, the writer id breaks a tie, and anything below the stored
/// stamp is stale.
#[test]
fn live_rule_classifies_concurrent_writers() {
    let store = VersionStore::new(1);
    let (a, b) = (11u64, 22u64);
    assert_eq!(admit_live(&store, 1, 1, a), Verdict::Fresh);
    // Writer B never saw A's write: its stamp (1, 22) beats A's (1, 11)
    // on the writer tie-break.
    assert_eq!(admit_live(&store, 1, 1, b), Verdict::Fresh);
    // A write that has seen both carries a later clock.
    assert_eq!(admit_live(&store, 1, 2, a), Verdict::Fresh);
    // Anything older than the stored stamp is stale; its redelivery
    // re-applies.
    assert_eq!(admit_live(&store, 1, 1, b), Verdict::Stale);
    assert_eq!(admit_live(&store, 1, 2, a), Verdict::Fresh);
}

/// The LWW verdict is order-independent: whichever of two concurrent
/// versions arrives second, the max stamp ends up the winner on every
/// replica.
#[test]
fn lww_verdict_converges_across_delivery_orders() {
    let (a, b) = (11u64, 22u64);
    let first = VersionStore::new(1);
    admit_live(&first, 1, 1, a);
    let verdict_ab = admit_live(&first, 1, 1, b);

    let second = VersionStore::new(1);
    admit_live(&second, 1, 1, b);
    let verdict_ba = admit_live(&second, 1, 1, a);

    // B has the higher writer id, so B's version wins on both sides:
    // delivered second it wins, delivered first it holds.
    assert_eq!(verdict_ab, Verdict::Fresh);
    assert_eq!(verdict_ba, Verdict::Stale);
    assert_eq!(first.dump().unwrap(), second.dump().unwrap());
}

/// Copies lose to the live stream unless strictly newer: only a stamp
/// above the stored one admits a bootstrap row against a versioned key.
#[test]
fn copy_rule_requires_strict_dominance() {
    let store = VersionStore::new(1);
    let (a, b) = (11u64, 22u64);
    admit_live(&store, 1, 2, b);
    assert!(!admit_copy(&store, 1, 2, a), "older copy loses to live");
    assert!(!admit_copy(&store, 1, 2, b), "tie loses to live");
    assert!(admit_copy(&store, 1, 3, a), "strictly newer copy lands");
}

/// Mesh entries round-trip through dump/load with their stamp, and the
/// merge keeps the max.
#[test]
fn dump_roundtrips_vector_entries() {
    let store = VersionStore::new(2);
    let (a, b) = (11u64, 22u64);
    admit_live(&store, 1, 2, b);
    admit_live(&store, 1, 1, a);
    let dump = store.dump().unwrap();
    assert_eq!(dump.objects, [(1, mesh(2, b))]);

    let restored = VersionStore::new(1);
    restored.load_dump(&dump).unwrap();
    assert_eq!(restored.latest_stamp(1).unwrap(), (2, b));
    // The restored stamp still outranks A's: a redelivery of the loser
    // stays a loser after recovery.
    assert_eq!(admit_live(&restored, 1, 1, a), Verdict::Stale);
}

/// §4.4 without a flush: a subscriber counts each dependency in its
/// value's generation. A counter from an older generation reads as absent
/// (a newer generation's count 0 is satisfied at once, its count 1 waits
/// for the newer generation's first apply), and a late apply of the older
/// generation leaves a newer counter alone.
#[test]
fn an_older_generation_reads_as_absent_and_its_late_applies_are_void() {
    let store = VersionStore::new(2);
    store.apply(&[1, 1, 1]).unwrap();
    assert!(satisfied(&store, &[(1, 3)]));
    let (g2_first, g2_second) = (versioned(2, 0), versioned(2, 1));
    assert!(
        satisfied(&store, &[(1, g2_first)]),
        "count 0 waits on nothing"
    );
    assert!(!satisfied(&store, &[(1, g2_second)]));
    store.apply(&[(1, g2_first)]).unwrap();
    assert_eq!(store.ops(1).unwrap(), versioned(2, 1), "restarted at zero");
    assert!(satisfied(&store, &[(1, g2_second)]));
    store.apply(&[(1, 3u64)]).unwrap();
    assert_eq!(
        store.ops(1).unwrap(),
        versioned(2, 1),
        "a late apply is void"
    );
    assert!(satisfied(&store, &[(1, 3)]), "older waits stay satisfied");
}

/// The publisher side: once its store enters a generation, every counter
/// of an older one restarts at count 0 on its next bump — read marks
/// included — and the others keep counting.
#[test]
fn a_publisher_bump_restarts_older_generation_counters_lazily() {
    let store = VersionStore::new(2);
    assert_eq!(bump(&store, &[(1, true), (2, false)]), vec![(1, 0), (2, 0)]);
    assert_eq!(bump(&store, &[(1, true)]), vec![(1, 1)]);
    store.enter_generation(3);
    store.enter_generation(2);
    let g3 = |count| versioned(3, count);
    assert_eq!(
        bump(&store, &[(1, true), (2, false)]),
        vec![(1, g3(0)), (2, g3(0))]
    );
    assert_eq!(bump(&store, &[(1, true)]), vec![(1, g3(1))]);
    assert_eq!(store.latest_version(1).unwrap(), g3(2));
}

/// A batched apply (concatenated key lists of several messages) must
/// increment duplicated keys once per occurrence, exactly as separate
/// applies would.
#[test]
fn batched_apply_counts_duplicate_keys_per_occurrence() {
    let batched = VersionStore::new(4);
    batched.apply(&[1, 2, 1, 3, 1]).unwrap();
    let sequential = VersionStore::new(4);
    for keys in [[1u64, 2].as_slice(), &[1, 3], &[1]] {
        sequential.apply(keys).unwrap();
    }
    for key in [1u64, 2, 3] {
        assert_eq!(batched.ops(key).unwrap(), sequential.ops(key).unwrap());
    }
    assert_eq!(batched.ops(1).unwrap(), 3);
}

/// Applying keys routed to one shard must still wake waiters parked on
/// that shard (the targeted notification can narrow, never skip).
#[test]
fn targeted_notify_still_wakes_routed_waiters() {
    let store = Arc::new(VersionStore::new(8));
    let keys: Vec<DepKey> = (0..32).collect();
    let deps: Vec<(DepKey, u64)> = keys.iter().map(|k| (*k, 1)).collect();
    let waiter = {
        let store = store.clone();
        thread::spawn(move || wait(&store, &deps, Duration::from_secs(5)).unwrap())
    };
    thread::sleep(Duration::from_millis(30));
    store.apply(&keys).unwrap();
    assert_eq!(waiter.join().unwrap(), WaitOutcome::Ready);
}

/// A bump on scratch buffers reused message after message must produce
/// exactly the dependency values of one on fresh buffers.
#[test]
fn publish_bump_into_matches_publish_bump() {
    let reference = VersionStore::new(4);
    let reused = VersionStore::new(4);
    let mut scratch = BumpScratch::default();
    let mut out = Vec::new();
    for round in 0..20u64 {
        let deps: Vec<(DepKey, bool)> = (0..30)
            .map(|k| (k * 7 % 13, (k + round).is_multiple_of(3)))
            .collect();
        let expected = bump(&reference, &deps);
        reused
            .publish_bump_into(&deps, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, expected);
    }
}

/// A prepared wait set can be re-checked and re-waited without
/// re-routing.
#[test]
fn prepared_wait_set_matches_unprepared_api() {
    let store = Arc::new(VersionStore::new(4));
    let deps: Vec<(DepKey, u64)> = (0..16).map(|k| (k, 1)).collect();
    let mut set = DepWaitSet::default();
    store.prepare_wait(&deps, &mut set);
    assert_eq!(set.entries.len(), deps.len());
    assert!(!store.satisfied_prepared(&set).unwrap());
    assert_eq!(
        store
            .wait_prepared(&set, Duration::from_millis(20))
            .unwrap(),
        WaitOutcome::TimedOut
    );

    let waiter = {
        let store = store.clone();
        let set = set.clone();
        thread::spawn(move || store.wait_prepared(&set, Duration::from_secs(5)).unwrap())
    };
    thread::sleep(Duration::from_millis(30));
    let keys: Vec<DepKey> = deps.iter().map(|(k, _)| *k).collect();
    store.apply(&keys).unwrap();
    assert_eq!(waiter.join().unwrap(), WaitOutcome::Ready);
    assert!(store.satisfied_prepared(&set).unwrap());
}

/// A dead routed shard fails the prepared check even when an earlier
/// key is already unsatisfied — liveness is checked before
/// satisfaction.
#[test]
fn prepared_satisfied_reports_death_before_unsatisfied_keys() {
    let store = VersionStore::new(4);
    let key_a = 1u64;
    let shard_a = store.shard_for(key_a);
    let key_b = (2..1000)
        .find(|k| store.shard_for(*k) != shard_a)
        .expect("some key routes elsewhere");
    let mut set = DepWaitSet::default();
    store.prepare_wait(&[(key_a, 5), (key_b, 5)], &mut set);
    store.kill_shard(store.shard_for(key_b));
    assert_eq!(store.satisfied_prepared(&set), Err(StoreError::Dead));
}

/// The paper's estimate is per dependency ("each dependency consumes
/// around 100 bytes"), so memory follows the dependency space and not the
/// traffic: one entry per key, however many operations referenced it.
#[test]
fn memory_accounting_matches_paper_estimate() {
    let store = VersionStore::new(4);
    let keys: Vec<DepKey> = (0..1000).collect();
    for _ in 0..3 {
        store.apply(&keys).unwrap();
    }
    bump(&store, &[(7, true), (8, false)]);
    assert_eq!(store.len(), 1000);
}

/// Routing is a pure function of the key and the shard count, spreads
/// keys over every shard, and a single shard takes everything.
#[test]
fn routing_is_deterministic_and_reaches_every_shard() {
    let (a, b) = (VersionStore::new(8), VersionStore::new(8));
    let mut counts = [0usize; 8];
    for key in 0..80_000u64 {
        assert_eq!(a.shard_for(key), b.shard_for(key));
        counts[a.shard_for(key)] += 1;
    }
    for (shard, n) in counts.iter().enumerate() {
        assert!(
            (5_000..15_000).contains(n),
            "shard {shard} got {n} of 80k keys"
        );
    }
    let one = VersionStore::new(1);
    assert!((0..100).all(|key| one.shard_for(key) == 0));
}

#[test]
#[should_panic(expected = "at least one shard")]
fn zero_shards_panics() {
    let _ = VersionStore::new(0);
}

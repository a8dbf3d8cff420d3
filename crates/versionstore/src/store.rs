//! The sharded version store and its atomic scripts.

use crate::ring::HashRing;
use crate::vector::{Dominance, VersionVector, LEGACY_WRITER};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An effective dependency key — a dependency name already hashed into the
/// fixed dependency space (§4.2: "Synapse hashes dependency names with a
/// stable hash function at the publisher ... all version stores consume
/// O(1) memory").
pub type DepKey = u64;

/// Approximate per-entry memory cost the paper cites ("each dependency
/// consumes around 100 bytes of memory").
const BYTES_PER_ENTRY: usize = 100;

/// Stripes of the per-object admission lock ([`VersionStore::reserve`]).
const ADMISSION_STRIPES: usize = 256;

/// Errors from version store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The store was killed by failure injection and has not been revived.
    Dead,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Dead => write!(f, "version store is dead"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Outcome of a blocking dependency wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// All dependencies were satisfied.
    Ready,
    /// The deadline passed with at least one dependency unsatisfied —
    /// the situation behind the §6.5 production deadlock.
    TimedOut,
}

/// Which comparison admits a carried version ([`Admission::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitRule {
    /// A live write: a vector that dominates *or equals* the stored one
    /// applies (an equal vector is a redelivery, and applies are idempotent
    /// upserts), a dominated one is stale, a fork is a conflict.
    Live,
    /// A bootstrap chunk copy: admitted only against a key that was never
    /// explicitly versioned (marker 0 included — rows created before the
    /// copy started) or by *strict* dominance. Ties and forks lose to the
    /// live stream, which holds the authoritative payload — a tying copy is
    /// the same publisher operation observed twice, and re-upserting it
    /// could resurrect a row whose destroy the live stream already applied.
    Copy,
}

/// Verdict of [`Admission::classify`]: the dominance classification of a
/// carried vector against the stored per-object vector, with the store's
/// LWW verdict attached when the two are concurrent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorAdmit {
    /// The carried version is admitted under the rule: apply it.
    Fresh,
    /// The stored vector already covers the carried one: discard it (§4.2:
    /// "the subscriber also discards any messages with a version lower
    /// than what is stored").
    Stale,
    /// Neither history contains the other — a genuine multi-writer
    /// conflict ([`AdmitRule::Live`] only). `lww_wins` is the store's
    /// default verdict: whether the incoming version's LWW stamp (history
    /// length, then writer id) beats the stamp of the content currently
    /// stored. The resolver plane may honor it (LWW) or ignore it (merge
    /// callbacks).
    Concurrent {
        /// Whether the incoming version wins last-writer-wins.
        lww_wins: bool,
    },
}

/// Caller-owned scratch buffers for [`VersionStore::publish_bump_into`].
/// The publisher keeps one per thread so the bump script's route and
/// touched-shard working sets are allocated once, not per message.
#[derive(Debug, Default)]
pub struct BumpScratch {
    routes: Vec<usize>,
    touched: Vec<bool>,
}

/// A wait set prepared once per message by [`VersionStore::prepare_wait`]:
/// every `(key, required)` pair routed to its shard up front and grouped so
/// the blocking wait and the satisfied-fast-path take **one lock per
/// touched shard** instead of one per key — and re-checking after a wakeup
/// re-routes nothing.
#[derive(Debug, Default, Clone)]
pub struct DepWaitSet {
    /// `(shard, key, required)` sorted by shard (stable, so per-shard key
    /// order follows the message).
    entries: Vec<(u32, DepKey, u64)>,
}

impl DepWaitSet {
    /// Number of dependencies in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set holds no dependencies.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Store-side timing: how many apply scripts and blocking waits this store
/// ran, and the wall time they consumed. Plain relaxed atomics — cheap
/// enough to stay unconditionally live; the node surfaces them as
/// telemetry counters so store time is attributable without the store
/// depending on the telemetry crate.
#[derive(Debug, Default)]
struct StoreTiming {
    applies: AtomicU64,
    apply_nanos: AtomicU64,
    waits: AtomicU64,
    wait_nanos: AtomicU64,
}

/// Snapshot of [`VersionStore::timing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreTimingSnapshot {
    /// Completed apply scripts (one per message batch).
    pub applies: u64,
    /// Total wall time inside apply scripts.
    pub apply_nanos: u64,
    /// Completed blocking dependency waits.
    pub waits: u64,
    /// Total wall time inside blocking waits (parked time included).
    pub wait_nanos: u64,
}

/// Per-dependency counters. On the publisher `ops` and the (legacy
/// component of the) vector are used; on a subscriber `ops` plus the full
/// per-writer vector for the freshness/dominance check.
///
/// `versioned` records whether the vector was ever *explicitly* written
/// for this key (by a committed admission or a local stamp) — an entry
/// created as a side effect of `ops` bookkeeping has an empty vector
/// without meaning "version 0 was observed". Bootstrap
/// reconciliation needs the distinction: a copy with marker 0 must be
/// admitted against a never-versioned key (a row created before any
/// subscriber existed) but discarded against a key whose version 0 was
/// recorded by an applied destroy (the deleted-row-resurrection bug).
///
/// `winner_sum`/`winner_writer` are the LWW stamp of the content the
/// replica currently holds for the key: the stamp of the last version that
/// was committed (fresh apply or concurrent LWW win). Stamps only ever
/// increase — a dominating version's history is strictly longer than what
/// it dominates — so "keep the max stamp" is order-independent and two
/// replicas that see the same writes converge on the same winner.
#[derive(Debug, Default, Clone)]
struct Entry {
    ops: u64,
    vector: VersionVector,
    winner_sum: u64,
    winner_writer: u64,
    versioned: bool,
}

impl Entry {
    /// Folds `stamp` into the winner stamp, returning whether it won.
    fn note_stamp(&mut self, stamp: (u64, u64)) -> bool {
        if stamp > (self.winner_sum, self.winner_writer) {
            self.winner_sum = stamp.0;
            self.winner_writer = stamp.1;
            true
        } else {
            false
        }
    }
}

/// One durable version-store entry — the on-disk form of [`Entry`]. Unlike
/// the bootstrap snapshot (`(key, ops)` pairs), a dump carries the full
/// per-writer vector, the explicit-write flag, and the LWW winner stamp,
/// so freshness marks, destroy tombstones, bootstrap watermarks, *and*
/// conflict-resolution state survive a crash-restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpEntry {
    /// The dependency key.
    pub key: DepKey,
    /// The dependency-counter value.
    pub ops: u64,
    /// Whether the vector was ever explicitly written (tombstones!).
    pub versioned: bool,
    /// LWW stamp of the currently-held content: total history length.
    pub winner_sum: u64,
    /// LWW stamp of the currently-held content: tie-break writer id.
    pub winner_writer: u64,
    /// Sorted `(writer, counter)` vector components.
    pub vector: Vec<(u64, u64)>,
}

impl DumpEntry {
    /// A scalar-era (pre-vector) entry: the legacy `(key, ops, version,
    /// versioned)` tuple, mapped onto the reserved legacy writer — the
    /// form old-format snapshots decode into.
    pub fn scalar(key: DepKey, ops: u64, version: u64, versioned: bool) -> Self {
        DumpEntry {
            key,
            ops,
            versioned,
            winner_sum: version,
            winner_writer: LEGACY_WRITER,
            vector: if version > 0 {
                vec![(LEGACY_WRITER, version)]
            } else {
                Vec::new()
            },
        }
    }
}

#[derive(Default)]
struct Shard {
    entries: Mutex<HashMap<DepKey, Entry>>,
    changed: Condvar,
    /// Per-shard kill switch (fault injection): a dead shard loses its
    /// contents and fails every operation routed to it.
    dead: AtomicBool,
}

/// The sharded dependency version store. See the crate docs.
///
/// Failure injection operates at shard granularity: [`VersionStore::kill_shard`]
/// kills one shard (operations touching other shards keep working), while
/// [`VersionStore::kill`] / [`VersionStore::revive`] retain the historical
/// whole-store semantics by fanning out over every shard.
pub struct VersionStore {
    shards: Vec<Arc<Shard>>,
    ring: HashRing,
    timing: StoreTiming,
    /// Per-object exclusion for [`VersionStore::reserve`], striped by key.
    stripes: Vec<Mutex<()>>,
}

impl VersionStore {
    /// Creates a store with `shards` shards (16 virtual nodes each).
    pub fn new(shards: usize) -> Self {
        let ring = HashRing::new(shards, 16);
        VersionStore {
            shards: (0..shards).map(|_| Arc::new(Shard::default())).collect(),
            ring,
            timing: StoreTiming::default(),
            stripes: (0..ADMISSION_STRIPES).map(|_| Mutex::new(())).collect(),
        }
    }

    /// Apply/wait call counts and wall time since construction.
    pub fn timing(&self) -> StoreTimingSnapshot {
        StoreTimingSnapshot {
            applies: self.timing.applies.load(Ordering::Relaxed),
            apply_nanos: self.timing.apply_nanos.load(Ordering::Relaxed),
            waits: self.timing.waits.load(Ordering::Relaxed),
            wait_nanos: self.timing.wait_nanos.load(Ordering::Relaxed),
        }
    }

    /// Convenience single-shard store.
    pub fn single() -> Self {
        Self::new(1)
    }

    /// Whole-store operations fail while *any* shard is dead.
    fn check_alive(&self) -> Result<(), StoreError> {
        if self.is_dead() {
            Err(StoreError::Dead)
        } else {
            Ok(())
        }
    }

    /// Key-routed operations fail only when one of *their* shards is dead.
    fn check_shards_alive(&self, keys: &[DepKey]) -> Result<(), StoreError> {
        for key in keys {
            if self.shards[self.ring.route(*key)]
                .dead
                .load(Ordering::SeqCst)
            {
                return Err(StoreError::Dead);
            }
        }
        Ok(())
    }

    /// Locks the shard `key` routes to, unless it is dead.
    fn entries_of(
        &self,
        key: DepKey,
    ) -> Result<MutexGuard<'_, HashMap<DepKey, Entry>>, StoreError> {
        let shard = &self.shards[self.ring.route(key)];
        if shard.dead.load(Ordering::SeqCst) {
            return Err(StoreError::Dead);
        }
        Ok(shard.entries.lock())
    }

    /// Kills one shard: its contents are lost and every operation routed to
    /// it fails until [`VersionStore::revive_shard`]. Out-of-range indexes
    /// are ignored.
    pub fn kill_shard(&self, index: usize) {
        if let Some(shard) = self.shards.get(index) {
            shard.dead.store(true, Ordering::SeqCst);
            shard.entries.lock().clear();
            // Wake all waiters so they observe death instead of hanging.
            shard.changed.notify_all();
        }
    }

    /// Revives a killed shard, empty. Out-of-range indexes are ignored.
    pub fn revive_shard(&self, index: usize) {
        if let Some(shard) = self.shards.get(index) {
            shard.dead.store(false, Ordering::SeqCst);
            shard.changed.notify_all();
        }
    }

    /// Whether one shard is currently dead.
    pub fn shard_is_dead(&self, index: usize) -> bool {
        self.shards
            .get(index)
            .map(|s| s.dead.load(Ordering::SeqCst))
            .unwrap_or(false)
    }

    /// Indexes of all currently-dead shards.
    pub fn dead_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|i| self.shards[*i].dead.load(Ordering::SeqCst))
            .collect()
    }

    /// Shard index a key routes to (for targeted fault injection).
    pub fn shard_for(&self, key: DepKey) -> usize {
        self.ring.route(key)
    }

    /// Kills the whole store (every shard): contents are lost and every
    /// operation fails until [`VersionStore::revive`].
    pub fn kill(&self) {
        for index in 0..self.shards.len() {
            self.kill_shard(index);
        }
    }

    /// Revives every killed shard, empty.
    pub fn revive(&self) {
        for index in 0..self.shards.len() {
            self.revive_shard(index);
        }
    }

    /// Returns `true` while any shard is dead. A partially-dead store is
    /// reported dead because the bump protocol cannot guarantee a complete
    /// dependency picture (§4.2), and recovery (generation bump + flush or
    /// bootstrap) is whole-store.
    pub fn is_dead(&self) -> bool {
        self.shards.iter().any(|s| s.dead.load(Ordering::SeqCst))
    }

    /// Locks every shard named in `routes` in index order (cross-shard
    /// atomicity without deadlocks). The result is indexed by shard number —
    /// `guards[i]` is `Some` iff shard `i` is routed — so per-key guard
    /// lookup is O(1) instead of a linear scan of the locked set.
    fn lock_routed(&self, routes: &[usize]) -> Vec<Option<MutexGuard<'_, HashMap<DepKey, Entry>>>> {
        let mut touched = vec![false; self.shards.len()];
        for r in routes {
            touched[*r] = true;
        }
        touched
            .into_iter()
            .enumerate()
            .map(|(i, hit)| hit.then(|| self.shards[i].entries.lock()))
            .collect()
    }

    /// The publisher's atomic script (§4.2): for each dependency, increment
    /// `ops`; for write dependencies, set `version = ops`. Returns the
    /// dependency values to embed in the message — `version` for read
    /// dependencies, `version - 1` for write dependencies.
    ///
    /// `deps` pairs each key with `is_write`.
    pub fn publish_bump(&self, deps: &[(DepKey, bool)]) -> Result<Vec<(DepKey, u64)>, StoreError> {
        let mut scratch = BumpScratch::default();
        let mut out = Vec::with_capacity(deps.len());
        self.publish_bump_into(deps, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`VersionStore::publish_bump`] with caller-owned scratch and output
    /// buffers: the route table, touched-shard map, and dependency-value
    /// output reuse the caller's allocations across messages. `out` is
    /// cleared and filled in `deps` order.
    pub fn publish_bump_into(
        &self,
        deps: &[(DepKey, bool)],
        scratch: &mut BumpScratch,
        out: &mut Vec<(DepKey, u64)>,
    ) -> Result<(), StoreError> {
        out.clear();
        scratch.routes.clear();
        scratch.touched.clear();
        scratch.touched.resize(self.shards.len(), false);
        // Route each key once, failing before any lock if a routed shard is
        // dead (same all-or-nothing semantics as `check_shards_alive`).
        for (key, _) in deps {
            let route = self.ring.route(*key);
            if self.shards[route].dead.load(Ordering::SeqCst) {
                return Err(StoreError::Dead);
            }
            scratch.touched[route] = true;
            scratch.routes.push(route);
        }
        // Lock touched shards in index order (cross-shard atomicity without
        // deadlocks). The guard vector itself is per-call — guards borrow
        // `self` — but it is the only allocation left on this path.
        let mut guards: Vec<Option<MutexGuard<'_, HashMap<DepKey, Entry>>>> = scratch
            .touched
            .iter()
            .enumerate()
            .map(|(i, hit)| hit.then(|| self.shards[i].entries.lock()))
            .collect();
        for ((key, is_write), shard_idx) in deps.iter().zip(&scratch.routes) {
            let guard = guards[*shard_idx].as_mut().expect("routed shard locked");
            let entry = guard.entry(*key).or_default();
            entry.ops += 1;
            let value = if *is_write {
                // The publisher's own version mark rides the legacy
                // component: a pub-store entry has exactly one writer —
                // this store's owner — so the unattributed slot is its
                // natural home and dumps stay readable as scalars.
                entry.vector.set(LEGACY_WRITER, entry.ops);
                entry.ops - 1
            } else {
                entry.vector.max_counter()
            };
            out.push((*key, value));
        }
        Ok(())
    }

    /// Routes every `(key, required)` pair and groups the set by shard into
    /// `set`, reusing its allocation. Prepare once per message, then call
    /// [`VersionStore::wait_prepared`] / [`VersionStore::satisfied_prepared`]
    /// any number of times without re-routing.
    pub fn prepare_wait(&self, deps: &[(DepKey, u64)], set: &mut DepWaitSet) {
        set.entries.clear();
        set.entries.extend(
            deps.iter()
                .map(|(k, req)| (self.ring.route(*k) as u32, *k, *req)),
        );
        set.entries.sort_by_key(|(shard, _, _)| *shard);
    }

    /// Blocks until every `(key, required)` pair satisfies
    /// `ops(key) >= required`, or the deadline passes (§4.2: the subscriber
    /// "waits until all specified dependencies' versions in its version
    /// store are greater than or equal to those in the message").
    pub fn wait_for(
        &self,
        deps: &[(DepKey, u64)],
        timeout: Duration,
    ) -> Result<WaitOutcome, StoreError> {
        let mut set = DepWaitSet::default();
        self.prepare_wait(deps, &mut set);
        self.wait_prepared(&set, timeout)
    }

    /// Blocking wait over a prepared set: one lock per touched shard, with
    /// all of a shard's keys re-checked under that single lock after each
    /// wakeup.
    pub fn wait_prepared(
        &self,
        set: &DepWaitSet,
        timeout: Duration,
    ) -> Result<WaitOutcome, StoreError> {
        let begun = Instant::now();
        let outcome = self.wait_prepared_inner(set, begun + timeout);
        self.timing.waits.fetch_add(1, Ordering::Relaxed);
        self.timing
            .wait_nanos
            .fetch_add(begun.elapsed().as_nanos() as u64, Ordering::Relaxed);
        outcome
    }

    fn wait_prepared_inner(
        &self,
        set: &DepWaitSet,
        deadline: Instant,
    ) -> Result<WaitOutcome, StoreError> {
        let mut start = 0;
        while start < set.entries.len() {
            let shard_idx = set.entries[start].0 as usize;
            let mut end = start + 1;
            while end < set.entries.len() && set.entries[end].0 as usize == shard_idx {
                end += 1;
            }
            let shard = &self.shards[shard_idx];
            let mut entries = shard.entries.lock();
            // `done` only advances: ops counters are monotonic while the
            // shard lock is dropped during a wait.
            let mut done = start;
            loop {
                if shard.dead.load(Ordering::SeqCst) {
                    return Err(StoreError::Dead);
                }
                while done < end {
                    let (_, key, required) = set.entries[done];
                    if entries.get(&key).map(|e| e.ops).unwrap_or(0) >= required {
                        done += 1;
                    } else {
                        break;
                    }
                }
                if done == end {
                    break;
                }
                if shard.changed.wait_until(&mut entries, deadline).timed_out() {
                    return Ok(WaitOutcome::TimedOut);
                }
            }
            start = end;
        }
        Ok(WaitOutcome::Ready)
    }

    /// Non-blocking variant of [`VersionStore::wait_for`].
    pub fn satisfied(&self, deps: &[(DepKey, u64)]) -> Result<bool, StoreError> {
        let mut set = DepWaitSet::default();
        self.prepare_wait(deps, &mut set);
        self.satisfied_prepared(&set)
    }

    /// Non-blocking check over a prepared set: one lock per touched shard.
    /// Fails with [`StoreError::Dead`] if *any* routed shard is dead, even
    /// when an earlier key is already unsatisfied (same contract as
    /// `satisfied`'s up-front liveness check).
    pub fn satisfied_prepared(&self, set: &DepWaitSet) -> Result<bool, StoreError> {
        let mut previous = usize::MAX;
        for (shard, _, _) in &set.entries {
            let shard_idx = *shard as usize;
            if shard_idx != previous {
                if self.shards[shard_idx].dead.load(Ordering::SeqCst) {
                    return Err(StoreError::Dead);
                }
                previous = shard_idx;
            }
        }
        let mut start = 0;
        while start < set.entries.len() {
            let shard_idx = set.entries[start].0 as usize;
            let mut end = start + 1;
            while end < set.entries.len() && set.entries[end].0 as usize == shard_idx {
                end += 1;
            }
            let entries = self.shards[shard_idx].entries.lock();
            for (_, key, required) in &set.entries[start..end] {
                if entries.get(key).map(|e| e.ops).unwrap_or(0) < *required {
                    return Ok(false);
                }
            }
            start = end;
        }
        Ok(true)
    }

    /// The subscriber's post-processing script: increment `ops` for every
    /// dependency in the message, waking any waiters.
    ///
    /// Accepts the concatenated key lists of a whole message batch: each
    /// touched shard is locked once for the entire call, and only the shards
    /// actually touched are notified — causal waiters parked on unrelated
    /// shards are not spuriously woken.
    pub fn apply(&self, keys: &[DepKey]) -> Result<(), StoreError> {
        let begun = Instant::now();
        self.check_shards_alive(keys)?;
        let routes: Vec<usize> = keys.iter().map(|k| self.ring.route(*k)).collect();
        let mut guards = self.lock_routed(&routes);
        for (key, shard_idx) in keys.iter().zip(&routes) {
            guards[*shard_idx]
                .as_mut()
                .expect("routed shard locked")
                .entry(*key)
                .or_default()
                .ops += 1;
        }
        for (i, guard) in guards.into_iter().enumerate() {
            if let Some(guard) = guard {
                drop(guard);
                self.shards[i].changed.notify_all();
            }
        }
        self.timing.applies.fetch_add(1, Ordering::Relaxed);
        self.timing
            .apply_nanos
            .fetch_add(begun.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Opens the admission script for one object: reserve → classify →
    /// write → commit. The returned guard holds the key's stripe — and no
    /// shard lock — until it is committed or dropped, so two applies of one
    /// object can never interleave verdict and write (the stale one landing
    /// last), while the caller's ORM write blocks nobody else's store
    /// traffic. An operation that carries no version still reserves its
    /// key, for the exclusion alone.
    pub fn reserve(&self, key: DepKey) -> Admission<'_> {
        Admission {
            store: self,
            key,
            _stripe: self.stripes[(key % ADMISSION_STRIPES as u64) as usize].lock(),
        }
    }

    /// The publisher's vector stamp for a local write of a multi-writer
    /// object, as one script: read everything this node has recorded for
    /// the object, bump `writer`'s component, record the result (and its
    /// LWW stamp) and return it — so the write advertises exactly the
    /// history it follows, and an incoming commit can land before or after
    /// the stamp but never inside it.
    pub fn stamp(&self, key: DepKey, writer: u64) -> Result<VersionVector, StoreError> {
        let mut entries = self.entries_of(key)?;
        let entry = entries.entry(key).or_default();
        entry.vector.set(writer, entry.vector.get(writer) + 1);
        entry.versioned = true;
        entry.note_stamp(entry.vector.lww_stamp(writer));
        Ok(entry.vector.clone())
    }

    /// Reads a key's recorded latest version as a scalar — the largest
    /// vector component (0 when absent). The bootstrap copier reads its
    /// chunk watermarks back with this (they only ever carry the legacy
    /// component); a copy's marker comes from [`VersionStore::ops`].
    pub fn latest_version(&self, key: DepKey) -> Result<u64, StoreError> {
        let entries = self.entries_of(key)?;
        Ok(entries
            .get(&key)
            .map(|e| e.vector.max_counter())
            .unwrap_or(0))
    }

    /// Reads a key's full recorded version vector (empty when absent) —
    /// what the bootstrap copier sends as a bidirectional row's version.
    pub fn latest_vector(&self, key: DepKey) -> Result<VersionVector, StoreError> {
        let entries = self.entries_of(key)?;
        Ok(entries
            .get(&key)
            .map(|e| e.vector.clone())
            .unwrap_or_default())
    }

    /// Bootstrap watermark compare-and-load: keeps the max of `value` and
    /// the stored version for `key`, returning whatever ends up stored.
    /// Monotone, so a retried chunk can never move a watermark backwards.
    /// Watermarks live on the legacy vector component — they are plain
    /// resume cursors, not multi-writer histories.
    pub fn load_watermark(&self, key: DepKey, value: u64) -> Result<u64, StoreError> {
        let mut entries = self.entries_of(key)?;
        let entry = entries.entry(key).or_default();
        let stored = entry.vector.get(LEGACY_WRITER).max(value);
        entry.vector.set(LEGACY_WRITER, stored);
        Ok(stored)
    }

    /// Drops a bootstrap watermark (resets the key's version to 0). Called
    /// when a bootstrap completes — or restarts from scratch — so a later
    /// bootstrap re-copies every record instead of resuming past rows that
    /// may have changed since.
    pub fn clear_watermark(&self, key: DepKey) -> Result<(), StoreError> {
        let mut entries = self.entries_of(key)?;
        if let Some(entry) = entries.get_mut(&key) {
            entry.vector.set(LEGACY_WRITER, 0);
        }
        Ok(())
    }

    /// Reads a key's `ops` counter (0 when absent).
    pub fn ops(&self, key: DepKey) -> Result<u64, StoreError> {
        let entries = self.entries_of(key)?;
        Ok(entries.get(&key).map(|e| e.ops).unwrap_or(0))
    }

    /// Bulk-dumps all entries as `(key, ops)` — step one of bootstrap
    /// (§4.4: "all current publisher versions are sent in bulk").
    pub fn snapshot(&self) -> Result<Vec<(DepKey, u64)>, StoreError> {
        self.check_alive()?;
        let mut out = Vec::new();
        for shard in &self.shards {
            let entries = shard.entries.lock();
            out.extend(entries.iter().map(|(k, e)| (*k, e.ops)));
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Bulk-loads `(key, ops)` pairs, keeping the max with any existing
    /// counter, and wakes waiters. Each touched shard is locked once for
    /// the whole snapshot and only touched shards are notified.
    pub fn load_snapshot(&self, entries: &[(DepKey, u64)]) -> Result<(), StoreError> {
        self.check_alive()?;
        let routes: Vec<usize> = entries.iter().map(|(k, _)| self.ring.route(*k)).collect();
        let mut guards = self.lock_routed(&routes);
        for ((key, ops), shard_idx) in entries.iter().zip(&routes) {
            let entry = guards[*shard_idx]
                .as_mut()
                .expect("routed shard locked")
                .entry(*key)
                .or_default();
            entry.ops = entry.ops.max(*ops);
        }
        for (i, guard) in guards.into_iter().enumerate() {
            if let Some(guard) = guard {
                drop(guard);
                self.shards[i].changed.notify_all();
            }
        }
        Ok(())
    }

    /// Bulk-dumps all entries as [`DumpEntry`] values — the durability
    /// plane's snapshot form. Unlike [`VersionStore::snapshot`] (the §4.4
    /// bootstrap bulk-send, which carries only `ops`), a dump also carries
    /// each entry's full version vector, its explicit-write flag, and its
    /// LWW winner stamp, so freshness marks, destroy tombstones (an empty
    /// vector with the flag set), bootstrap watermarks, *and* resolution
    /// state survive a crash-restart. Sorted by key for a deterministic
    /// on-disk image.
    pub fn dump(&self) -> Result<Vec<DumpEntry>, StoreError> {
        self.check_alive()?;
        let mut out = Vec::new();
        for shard in &self.shards {
            let entries = shard.entries.lock();
            out.extend(entries.iter().map(|(k, e)| DumpEntry {
                key: *k,
                ops: e.ops,
                versioned: e.versioned,
                winner_sum: e.winner_sum,
                winner_writer: e.winner_writer,
                vector: e.vector.components().to_vec(),
            }));
        }
        out.sort_unstable_by_key(|e| e.key);
        Ok(out)
    }

    /// Bulk-loads [`DumpEntry`] values, keeping the max of each counter
    /// (component-wise for the vector, stamp-wise for the winner, OR for
    /// the explicit-write flag) against any existing entry, and wakes
    /// waiters on touched shards. Max-merge makes the load idempotent and
    /// safe to combine with live traffic racing in after recovery.
    pub fn load_dump(&self, entries: &[DumpEntry]) -> Result<(), StoreError> {
        self.check_alive()?;
        let routes: Vec<usize> = entries.iter().map(|e| self.ring.route(e.key)).collect();
        let mut guards = self.lock_routed(&routes);
        for (dumped, shard_idx) in entries.iter().zip(&routes) {
            let entry = guards[*shard_idx]
                .as_mut()
                .expect("routed shard locked")
                .entry(dumped.key)
                .or_default();
            entry.ops = entry.ops.max(dumped.ops);
            entry
                .vector
                .join(&VersionVector::from_components(&dumped.vector));
            entry.versioned |= dumped.versioned;
            entry.note_stamp((dumped.winner_sum, dumped.winner_writer));
        }
        for (i, guard) in guards.into_iter().enumerate() {
            if let Some(guard) = guard {
                drop(guard);
                self.shards[i].changed.notify_all();
            }
        }
        Ok(())
    }

    /// Clears every counter (generation change, §4.4: subscribers "flush
    /// their version store").
    pub fn flush(&self) -> Result<(), StoreError> {
        self.check_alive()?;
        for shard in &self.shards {
            shard.entries.lock().clear();
            shard.changed.notify_all();
        }
        Ok(())
    }

    /// Number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.lock().len()).sum()
    }

    /// Returns `true` if the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint (the paper's ~100 bytes/dependency).
    pub fn approx_memory_bytes(&self) -> usize {
        self.len() * BYTES_PER_ENTRY
    }

    /// Number of shards backing the store.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// One object's reserved admission ([`VersionStore::reserve`]). Nothing is
/// recorded until [`Admission::commit`]: a guard dropped because the write
/// failed leaves the store exactly as it found it, so the redelivery is
/// classified from scratch against what actually landed.
pub struct Admission<'a> {
    store: &'a VersionStore,
    key: DepKey,
    _stripe: MutexGuard<'a, ()>,
}

impl Admission<'_> {
    /// Classifies `incoming` (the write's version vector, authored by
    /// `writer`) against the stored vector under `rule`, changing nothing.
    /// A single-writer write presents its scalar version as
    /// [`VersionVector::scalar`] under [`LEGACY_WRITER`]: the legacy
    /// component's floor semantics make [`AdmitRule::Live`] read as
    /// `version >= stored` applies, older is stale.
    pub fn classify(
        &self,
        incoming: &VersionVector,
        writer: u64,
        rule: AdmitRule,
    ) -> Result<VectorAdmit, StoreError> {
        let entries = self.store.entries_of(self.key)?;
        let Some(entry) = entries.get(&self.key) else {
            return Ok(VectorAdmit::Fresh);
        };
        Ok(match (rule, incoming.compare(&entry.vector)) {
            (AdmitRule::Copy, _) if !entry.versioned => VectorAdmit::Fresh,
            (_, Dominance::Dominates) | (AdmitRule::Live, Dominance::Equal) => VectorAdmit::Fresh,
            (AdmitRule::Live, Dominance::Concurrent) => VectorAdmit::Concurrent {
                lww_wins: incoming.lww_stamp(writer) > (entry.winner_sum, entry.winner_writer),
            },
            _ => VectorAdmit::Stale,
        })
    }

    /// Records `incoming` as stored — the vector advances to the join, the
    /// key counts as explicitly versioned, and the LWW stamp is folded in,
    /// so replicas converge on the max-stamp version no matter the delivery
    /// order — and releases the key. Called once the write, or a
    /// resolution that keeps the local row, has finished.
    pub fn commit(self, incoming: &VersionVector, writer: u64) -> Result<(), StoreError> {
        let mut entries = self.store.entries_of(self.key)?;
        let entry = entries.entry(self.key).or_default();
        entry.vector.join(incoming);
        entry.versioned = true;
        entry.note_stamp(incoming.lww_stamp(writer));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// The admission script as the subscriber runs it, with a write that
    /// always lands: reserve, classify, and commit whatever was not
    /// discarded (a concurrent version is committed whichever side the
    /// resolver keeps).
    fn admit(
        store: &VersionStore,
        key: DepKey,
        incoming: &VersionVector,
        writer: u64,
        rule: AdmitRule,
    ) -> VectorAdmit {
        let admission = store.reserve(key);
        let verdict = admission.classify(incoming, writer, rule).unwrap();
        if verdict != VectorAdmit::Stale {
            admission.commit(incoming, writer).unwrap();
        }
        verdict
    }

    fn admit_live(
        store: &VersionStore,
        key: DepKey,
        incoming: &VersionVector,
        writer: u64,
    ) -> VectorAdmit {
        admit(store, key, incoming, writer, AdmitRule::Live)
    }

    fn admit_copy(
        store: &VersionStore,
        key: DepKey,
        incoming: &VersionVector,
        writer: u64,
    ) -> bool {
        admit(store, key, incoming, writer, AdmitRule::Copy) == VectorAdmit::Fresh
    }

    /// A single-writer live write as the subscriber presents it: its
    /// scalar version rides the vector's legacy component, whose floor
    /// semantics reproduce the `version >= stored` comparison exactly.
    fn advance_scalar(store: &VersionStore, key: DepKey, version: u64) -> bool {
        let incoming = VersionVector::scalar(version);
        admit_live(store, key, &incoming, LEGACY_WRITER) == VectorAdmit::Fresh
    }

    /// A single-writer chunk copy: a never-versioned key admits any marker
    /// (0 included), otherwise the marker must be strictly newer.
    fn admit_scalar_copy(store: &VersionStore, key: DepKey, marker: u64) -> bool {
        admit_copy(store, key, &VersionVector::scalar(marker), LEGACY_WRITER)
    }

    /// Replays Fig. 8's four writes and checks every counter and message
    /// dependency value against the figure.
    #[test]
    fn fig8_publisher_counter_evolution() {
        let store = VersionStore::single();
        let (u1, u2, p1, c1, c2) = (1u64, 2, 3, 4, 5);

        // W1: write_deps [user1, post1].
        let m1 = store.publish_bump(&[(u1, true), (p1, true)]).unwrap();
        assert_eq!(m1, vec![(u1, 0), (p1, 0)]);

        // W2: read_deps [post1], write_deps [user2, comment1].
        let m2 = store
            .publish_bump(&[(u2, true), (c1, true), (p1, false)])
            .unwrap();
        assert_eq!(m2, vec![(u2, 0), (c1, 0), (p1, 1)]);

        // W3: read_deps [post1], write_deps [user1, comment2].
        let m3 = store
            .publish_bump(&[(u1, true), (c2, true), (p1, false)])
            .unwrap();
        assert_eq!(m3, vec![(u1, 1), (c2, 0), (p1, 1)]);

        // W4: write_deps [user1, post1].
        let m4 = store.publish_bump(&[(u1, true), (p1, true)]).unwrap();
        assert_eq!(m4, vec![(u1, 2), (p1, 3)]);
    }

    /// The subscriber side of Fig. 8: M2/M3 need M1; M4 needs all three.
    #[test]
    fn fig8_subscriber_dependency_graph() {
        let store = VersionStore::single();
        let (u1, u2, p1, c1, c2) = (1u64, 2, 3, 4, 5);
        let m1 = [(u1, 0), (p1, 0)];
        let m2 = [(u2, 0), (c1, 0), (p1, 1)];
        let m3 = [(u1, 1), (c2, 0), (p1, 1)];
        let m4 = [(u1, 2), (p1, 3)];

        assert!(store.satisfied(&m1).unwrap());
        assert!(!store.satisfied(&m2).unwrap());
        assert!(!store.satisfied(&m3).unwrap());

        store.apply(&[u1, p1]).unwrap(); // process M1
        assert!(store.satisfied(&m2).unwrap());
        assert!(store.satisfied(&m3).unwrap());
        assert!(!store.satisfied(&m4).unwrap());

        store.apply(&[u2, c1, p1]).unwrap(); // process M2
        assert!(!store.satisfied(&m4).unwrap());
        store.apply(&[u1, c2, p1]).unwrap(); // process M3
        assert!(store.satisfied(&m4).unwrap());
    }

    #[test]
    fn wait_for_blocks_until_apply() {
        let store = Arc::new(VersionStore::new(4));
        let waiter = {
            let store = store.clone();
            thread::spawn(move || store.wait_for(&[(7, 1)], Duration::from_secs(5)).unwrap())
        };
        thread::sleep(Duration::from_millis(30));
        store.apply(&[7]).unwrap();
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Ready);
    }

    #[test]
    fn wait_for_times_out_on_missing_dependency() {
        let store = VersionStore::single();
        let out = store
            .wait_for(&[(9, 3)], Duration::from_millis(30))
            .unwrap();
        assert_eq!(out, WaitOutcome::TimedOut);
    }

    #[test]
    fn cross_shard_bump_is_consistent() {
        let store = VersionStore::new(8);
        let deps: Vec<(DepKey, bool)> = (0..64).map(|k| (k, true)).collect();
        let out = store.publish_bump(&deps).unwrap();
        assert!(out.iter().all(|(_, v)| *v == 0));
        let out = store.publish_bump(&deps).unwrap();
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
                    store.publish_bump(&[(1, true), (2, false)]).unwrap();
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
            thread::spawn(move || store.wait_for(&[(5, 1)], Duration::from_secs(5)))
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
        assert_eq!(store.dead_shards(), vec![shard_a]);
        assert_eq!(store.ops(key_a), Err(StoreError::Dead));
        // The other shard keeps serving.
        assert_eq!(store.ops(key_b).unwrap(), 1);
        store.apply(&[key_b]).unwrap();
        assert_eq!(store.ops(key_b).unwrap(), 2);
        // Ops spanning the dead shard fail atomically (nothing applied).
        assert_eq!(store.apply(&[key_a, key_b]), Err(StoreError::Dead));
        assert_eq!(store.ops(key_b).unwrap(), 2);
        // Whole-store operations refuse to run on a partially-dead store.
        assert_eq!(store.snapshot(), Err(StoreError::Dead));
        assert_eq!(store.flush(), Err(StoreError::Dead));

        store.revive_shard(shard_a);
        assert!(!store.is_dead());
        assert_eq!(store.ops(key_a).unwrap(), 0, "shard contents were lost");
        assert_eq!(store.ops(key_b).unwrap(), 2, "other shard kept its data");
    }

    #[test]
    fn shard_kill_wakes_waiters_on_that_shard() {
        let store = Arc::new(VersionStore::new(4));
        let key = 5u64;
        let target = store.shard_for(key);
        let waiter = {
            let store = store.clone();
            thread::spawn(move || store.wait_for(&[(key, 1)], Duration::from_secs(5)))
        };
        thread::sleep(Duration::from_millis(30));
        store.kill_shard(target);
        assert_eq!(waiter.join().unwrap(), Err(StoreError::Dead));
    }

    #[test]
    fn snapshot_roundtrips_through_load() {
        let publisher = VersionStore::new(4);
        publisher
            .publish_bump(&[(1, true), (2, true), (3, false)])
            .unwrap();
        publisher.publish_bump(&[(1, true)]).unwrap();
        let snap = publisher.snapshot().unwrap();
        let subscriber = VersionStore::new(2);
        subscriber.load_snapshot(&snap).unwrap();
        assert_eq!(subscriber.ops(1).unwrap(), 2);
        assert_eq!(subscriber.ops(2).unwrap(), 1);
        assert_eq!(subscriber.ops(3).unwrap(), 1);
    }

    #[test]
    fn load_snapshot_keeps_newer_local_counters() {
        let store = VersionStore::single();
        store.apply(&[1]).unwrap();
        store.apply(&[1]).unwrap();
        store.load_snapshot(&[(1, 1)]).unwrap();
        assert_eq!(store.ops(1).unwrap(), 2);
    }

    #[test]
    fn live_rule_discards_stale_scalar_versions() {
        let store = VersionStore::single();
        assert!(advance_scalar(&store, 1, 0));
        assert!(advance_scalar(&store, 1, 3));
        assert!(!advance_scalar(&store, 1, 2), "stale version");
        assert!(advance_scalar(&store, 1, 4));
        assert_eq!(store.latest_version(1).unwrap(), 4);
    }

    /// A redelivery of the committed version (the ack was lost, or a later
    /// operation of the same message failed) must pass the check and
    /// re-apply rather than be dropped.
    #[test]
    fn live_rule_readmits_equal_scalar_versions() {
        let store = VersionStore::single();
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
        store.load_snapshot(&[(1, 3)]).unwrap();
        advance_scalar(&store, 2, 4);
        admit_live(&store, 4, &VersionVector::component(11, 1), 11);
        let before = store.dump().unwrap();
        for (key, version) in [(1, 0), (2, 5), (3, 7)] {
            for rule in [AdmitRule::Live, AdmitRule::Copy] {
                let admission = store.reserve(key);
                let incoming = VersionVector::scalar(version);
                assert_eq!(
                    admission.classify(&incoming, LEGACY_WRITER, rule).unwrap(),
                    VectorAdmit::Fresh
                );
                drop(admission);
                assert_eq!(store.dump().unwrap(), before);
            }
        }
        let fork = VersionVector::component(22, 1);
        let admission = store.reserve(4);
        assert_eq!(
            admission.classify(&fork, 22, AdmitRule::Live).unwrap(),
            VectorAdmit::Concurrent { lww_wins: true }
        );
        drop(admission);
        assert_eq!(store.dump().unwrap(), before);
    }

    /// `stamp` is one script: four writers stamping one key while a fifth
    /// thread commits foreign components each see their own component go up
    /// by exactly one, and every stamp contains every earlier one — the
    /// returned vectors form a chain, which a read followed by a separate
    /// write-back cannot guarantee.
    #[test]
    fn stamp_is_atomic_under_concurrent_stamps_and_commits() {
        const STAMPS: u64 = 200;
        let store = Arc::new(VersionStore::new(4));
        let writers = [11u64, 22, 33, 44];
        let start = Arc::new(std::sync::Barrier::new(writers.len() + 1));
        let foreign = {
            let (store, start) = (store.clone(), start.clone());
            thread::spawn(move || {
                start.wait();
                for i in 1..=STAMPS {
                    let incoming = VersionVector::component(99, i);
                    store.reserve(1).commit(&incoming, 99).unwrap();
                }
            })
        };
        let stampers: Vec<_> = writers
            .iter()
            .map(|&writer| {
                let (store, start) = (store.clone(), start.clone());
                thread::spawn(move || {
                    start.wait();
                    let stamped: Vec<VersionVector> = (0..STAMPS)
                        .map(|_| store.stamp(1, writer).unwrap())
                        .collect();
                    for (i, vector) in stamped.iter().enumerate() {
                        assert_eq!(vector.get(writer), i as u64 + 1, "previous + 1");
                    }
                    stamped
                })
            })
            .collect();
        let mut stamped: Vec<VersionVector> = stampers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        foreign.join().unwrap();
        stamped.sort_by_key(VersionVector::sum);
        for pair in stamped.windows(2) {
            assert_eq!(
                pair[0].compare(&pair[1]),
                Dominance::Dominated,
                "{pair:?}: a stamp missed an earlier one"
            );
        }
        let last = store.latest_vector(1).unwrap();
        for writer in writers {
            assert_eq!(last.get(writer), STAMPS);
        }
        assert_eq!(last.get(99), STAMPS);
    }

    #[test]
    fn watermarks_are_monotone_and_clearable() {
        let store = VersionStore::new(2);
        assert_eq!(store.latest_version(7).unwrap(), 0, "absent key reads 0");
        assert_eq!(store.load_watermark(7, 16).unwrap(), 16);
        assert_eq!(store.load_watermark(7, 12).unwrap(), 16, "never regresses");
        assert_eq!(store.load_watermark(7, 48).unwrap(), 48);
        assert_eq!(store.latest_version(7).unwrap(), 48);
        store.clear_watermark(7).unwrap();
        assert_eq!(store.latest_version(7).unwrap(), 0);
    }

    #[test]
    fn watermark_calls_fail_when_the_owning_shard_is_dead() {
        let store = VersionStore::new(2);
        store.load_watermark(3, 9).unwrap();
        store.kill_shard(store.shard_for(3));
        assert!(store.load_watermark(3, 10).is_err());
        assert!(store.latest_version(3).is_err());
        store.revive_shard(store.shard_for(3));
        // Shard contents were lost with the kill: the watermark is gone and
        // the caller must restart its copy from scratch.
        assert_eq!(store.latest_version(3).unwrap(), 0);
    }

    #[test]
    fn dump_roundtrips_ops_and_versions() {
        let store = VersionStore::new(4);
        store.publish_bump(&[(1, true), (2, false)]).unwrap();
        store.publish_bump(&[(1, true)]).unwrap();
        store.load_watermark(9, 42).unwrap();
        let dump = store.dump().unwrap();
        assert!(
            dump.windows(2).all(|w| w[0].key < w[1].key),
            "sorted by key"
        );

        let restored = VersionStore::new(2);
        restored.load_dump(&dump).unwrap();
        assert_eq!(restored.ops(1).unwrap(), 2);
        assert_eq!(restored.latest_version(1).unwrap(), 2, "versions survive");
        assert_eq!(restored.ops(2).unwrap(), 1);
        assert_eq!(
            restored.latest_version(9).unwrap(),
            42,
            "watermarks (stored as versions) survive the round trip"
        );
    }

    #[test]
    fn load_dump_max_merges_both_fields() {
        let store = VersionStore::single();
        store.apply(&[1]).unwrap();
        store.apply(&[1]).unwrap();
        advance_scalar(&store, 1, 7);
        // Stale dump: neither field regresses.
        store
            .load_dump(&[DumpEntry::scalar(1, 1, 3, false)])
            .unwrap();
        assert_eq!(store.ops(1).unwrap(), 2);
        assert_eq!(store.latest_version(1).unwrap(), 7);
        // Newer dump: both fields advance.
        store
            .load_dump(&[DumpEntry::scalar(1, 10, 12, true)])
            .unwrap();
        assert_eq!(store.ops(1).unwrap(), 10);
        assert_eq!(store.latest_version(1).unwrap(), 12);
    }

    /// A copy admitted against a never-versioned key (marker 0 included:
    /// rows created before the bootstrap started) must land; a copy tying
    /// with or older than an explicitly-recorded version must be
    /// discarded — including the version-0 tombstone an applied destroy
    /// leaves behind (the deleted-row-resurrection bug).
    #[test]
    fn admit_copy_distinguishes_tombstones_from_unversioned_keys() {
        let store = VersionStore::new(2);
        // Entry exists from ops bookkeeping (snapshot load) but was never
        // explicitly versioned: a marker-0 copy must be admitted.
        store.load_snapshot(&[(1, 1)]).unwrap();
        assert!(admit_scalar_copy(&store, 1, 0), "unversioned key admits");
        assert!(
            !admit_scalar_copy(&store, 1, 0),
            "second identical copy ties"
        );

        // An applied destroy records version 0 explicitly; a stale copy of
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

    /// The explicit-write flag must survive a dump/load round trip:
    /// restoring a snapshot must not turn tombstones back into
    /// unversioned keys (which would re-admit stale copies after a
    /// crash-restart).
    #[test]
    fn dump_preserves_versioned_flag() {
        let store = VersionStore::new(2);
        store.load_snapshot(&[(1, 3)]).unwrap(); // never versioned
        advance_scalar(&store, 2, 0); // tombstone
        let dump = store.dump().unwrap();

        let restored = VersionStore::single();
        restored.load_dump(&dump).unwrap();
        assert!(admit_scalar_copy(&restored, 1, 0), "still unversioned");
        assert!(!admit_scalar_copy(&restored, 2, 0), "tombstone survived");
    }

    #[test]
    fn load_dump_wakes_waiters() {
        let store = Arc::new(VersionStore::new(2));
        let waiter = {
            let store = store.clone();
            thread::spawn(move || store.wait_for(&[(5, 3)], Duration::from_secs(5)).unwrap())
        };
        thread::sleep(Duration::from_millis(30));
        store
            .load_dump(&[DumpEntry::scalar(5, 3, 3, false)])
            .unwrap();
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Ready);
    }

    /// Two writers advancing disjoint components are classified as
    /// concurrent; the join is recorded so a causally-later write from
    /// either side dominates afterwards.
    #[test]
    fn live_rule_classifies_concurrent_writers() {
        let store = VersionStore::single();
        let (a, b) = (11u64, 22u64);
        assert_eq!(
            admit_live(&store, 1, &VersionVector::component(a, 1), a),
            VectorAdmit::Fresh
        );
        // Writer B never saw A's write: concurrent. B's stamp (1, 22)
        // beats A's (1, 11) on the writer tie-break.
        assert_eq!(
            admit_live(&store, 1, &VersionVector::component(b, 1), b),
            VectorAdmit::Concurrent { lww_wins: true }
        );
        // A write that has seen both components dominates the join.
        let merged = VersionVector::from_components(&[(a, 2), (b, 1)]);
        assert_eq!(admit_live(&store, 1, &merged, a), VectorAdmit::Fresh);
        // Anything older than the join is stale.
        assert_eq!(
            admit_live(&store, 1, &VersionVector::component(a, 1), a),
            VectorAdmit::Stale
        );
    }

    /// The LWW verdict is order-independent: whichever of two concurrent
    /// versions arrives second, the max-stamp version ends up the winner
    /// on every replica.
    #[test]
    fn lww_verdict_converges_across_delivery_orders() {
        let (a, b) = (11u64, 22u64);
        let va = VersionVector::component(a, 1);
        let vb = VersionVector::component(b, 1);

        let first = VersionStore::single();
        admit_live(&first, 1, &va, a);
        let verdict_ab = admit_live(&first, 1, &vb, b);

        let second = VersionStore::single();
        admit_live(&second, 1, &vb, b);
        let verdict_ba = admit_live(&second, 1, &va, a);

        // B has the higher writer id, so B's version wins on both sides:
        // delivered second it wins, delivered first it holds.
        assert_eq!(verdict_ab, VectorAdmit::Concurrent { lww_wins: true });
        assert_eq!(verdict_ba, VectorAdmit::Concurrent { lww_wins: false });
    }

    /// Concurrent copies lose to the live stream: only strict vector
    /// dominance admits a bootstrap row against a versioned key.
    #[test]
    fn copy_rule_requires_strict_dominance() {
        let store = VersionStore::single();
        let (a, b) = (11u64, 22u64);
        admit_live(&store, 1, &VersionVector::component(a, 2), a);
        assert!(
            !admit_copy(&store, 1, &VersionVector::component(b, 9), b),
            "concurrent copy loses to live"
        );
        assert!(
            !admit_copy(&store, 1, &VersionVector::component(a, 2), a),
            "tie loses to live"
        );
        let newer = VersionVector::from_components(&[(a, 3), (b, 9)]);
        assert!(
            admit_copy(&store, 1, &newer, a),
            "strictly dominating copy lands"
        );
    }

    /// Vector entries round-trip through dump/load: components, the
    /// explicit-write flag, and the winner stamp all survive, and the
    /// merge keeps the max of each.
    #[test]
    fn dump_roundtrips_vector_entries() {
        let store = VersionStore::new(2);
        let (a, b) = (11u64, 22u64);
        admit_live(&store, 1, &VersionVector::component(a, 1), a);
        admit_live(&store, 1, &VersionVector::component(b, 2), b);
        let dump = store.dump().unwrap();
        let entry = dump.iter().find(|e| e.key == 1).unwrap();
        assert_eq!(entry.vector, vec![(a, 1), (b, 2)]);
        assert_eq!((entry.winner_sum, entry.winner_writer), (2, b));

        let restored = VersionStore::single();
        restored.load_dump(&dump).unwrap();
        let vec_back = restored.latest_vector(1).unwrap();
        assert_eq!(vec_back.components(), &[(a, 1), (b, 2)]);
        // The restored stamp still outranks A's version 1: a redelivery
        // of the loser stays a loser after recovery.
        assert_eq!(
            admit_live(&restored, 1, &VersionVector::component(a, 1), a),
            VectorAdmit::Stale
        );
    }

    #[test]
    fn flush_clears_counters() {
        let store = VersionStore::new(2);
        store.apply(&[1, 2, 3]).unwrap();
        assert_eq!(store.len(), 3);
        store.flush().unwrap();
        assert!(store.is_empty());
        assert_eq!(store.approx_memory_bytes(), 0);
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
            thread::spawn(move || store.wait_for(&deps, Duration::from_secs(5)).unwrap())
        };
        thread::sleep(Duration::from_millis(30));
        store.apply(&keys).unwrap();
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Ready);
    }

    /// The scratch-reusing bump must produce exactly the dependency values
    /// of the allocating wrapper, message after message with the same
    /// buffers.
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
            let expected = reference.publish_bump(&deps).unwrap();
            reused
                .publish_bump_into(&deps, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, expected);
        }
    }

    /// A prepared wait set can be re-checked and re-waited without
    /// re-routing, with the same outcomes as the per-call API.
    #[test]
    fn prepared_wait_set_matches_unprepared_api() {
        let store = Arc::new(VersionStore::new(4));
        let deps: Vec<(DepKey, u64)> = (0..16).map(|k| (k, 1)).collect();
        let mut set = DepWaitSet::default();
        store.prepare_wait(&deps, &mut set);
        assert_eq!(set.len(), deps.len());
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
    /// satisfaction, as in the unprepared API.
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

    #[test]
    fn memory_accounting_matches_paper_estimate() {
        let store = VersionStore::new(4);
        let keys: Vec<DepKey> = (0..1000).collect();
        store.apply(&keys).unwrap();
        assert_eq!(store.approx_memory_bytes(), 100 * 1000);
    }
}

//! The sharded version store and its atomic scripts: the publisher's
//! bump, the subscriber's wait and apply and the counter reads here; the
//! per-object admission script in `admission`; the two-section dump and
//! load in `dump`.

mod admission;
mod dump;
#[cfg(test)]
mod tests;

pub use admission::{Admission, AdmitRule, ObjectVersion, Stamp, Verdict};
pub use dump::StoreDump;

use crate::generation::{generation_start, versioned};
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

/// A dependency as [`VersionStore::apply`] counts it: a message's `(key,
/// value)`, in the value's generation, or a bare key, in generation 1.
pub trait AppliedDep: Copy {
    /// The key, and a value of the generation to count it in.
    fn key_value(self) -> (DepKey, u64);
}

impl AppliedDep for DepKey {
    fn key_value(self) -> (DepKey, u64) {
        (self, 0)
    }
}

impl AppliedDep for (DepKey, u64) {
    fn key_value(self) -> (DepKey, u64) {
        self
    }
}

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

/// One dependency's counters (§4.2): `ops`, the operations that have
/// referenced it, and `version`, the `ops` value of the last write — the
/// publisher's version mark, which read dependencies carry. A subscriber
/// advances `ops` only; its `version` is whatever bootstrap step 1 loaded.
/// Both are values of a generation ([`crate::versioned`]).
#[derive(Debug, Default, Clone, Copy)]
struct Counter {
    ops: u64,
    version: u64,
}

/// One shard's two maps, one per purpose, under one lock.
#[derive(Default)]
struct Maps {
    /// Dependency counters by hashed key: the bounded plane.
    counters: HashMap<DepKey, Counter>,
    /// Admission state by object identity. Being here is what makes an
    /// object *versioned*: a destroy leaves its version behind as a
    /// tombstone, so a stale copy of the row is refused.
    objects: HashMap<u64, ObjectVersion>,
}

impl Maps {
    fn len(&self) -> usize {
        self.counters.len() + self.objects.len()
    }

    /// §4.2's `ops(key) >= required`, an older generation's ops as absent.
    fn reached(&self, key: DepKey, required: u64) -> bool {
        let ops = self.counters.get(&key).map_or(0, |c| c.ops);
        ops.max(generation_start(required)) >= required
    }
}

#[derive(Default)]
struct Shard {
    maps: Mutex<Maps>,
    changed: Condvar,
    /// Per-shard kill switch: a dead shard has lost its contents and fails
    /// every operation routed to it until [`VersionStore::revive`]. Only a
    /// test build (feature `testing`) can kill one.
    dead: AtomicBool,
}

/// SplitMix64's finalizer: a cheap, well-distributed 64-bit mixer, so
/// keys that differ only in high bits still spread across shards.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The sharded dependency version store. See the crate docs.
///
/// Failure injection (test builds) operates at shard granularity:
/// `VersionStore::kill_shard` kills one shard (operations touching other
/// shards keep working), while `VersionStore::kill` and
/// [`VersionStore::revive`] retain the historical whole-store semantics by
/// fanning out over every shard.
pub struct VersionStore {
    shards: Vec<Arc<Shard>>,
    timing: StoreTiming,
    /// Per-object exclusion for [`VersionStore::reserve`], striped by
    /// object.
    stripes: Vec<admission::Stripe>,
    /// Where the publisher's generation starts: a bump reads a counter
    /// below it as absent ([`VersionStore::enter_generation`]).
    generation: AtomicU64,
    /// Whether a shard lost its contents within the generation.
    lost: AtomicBool,
    /// The node's Lamport clock of mesh stamps ([`VersionStore::next_stamp`]).
    clock: AtomicU64,
}

impl VersionStore {
    /// Creates a store with `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "version store needs at least one shard");
        VersionStore {
            shards: (0..shards).map(|_| Arc::new(Shard::default())).collect(),
            timing: StoreTiming::default(),
            stripes: (0..ADMISSION_STRIPES).map(|_| Default::default()).collect(),
            generation: AtomicU64::new(0),
            lost: AtomicBool::new(false),
            clock: AtomicU64::new(0),
        }
    }

    /// The store enters its app's `generation` (§4.4): the bump script
    /// restarts each older counter at count 0 when it touches it, and the
    /// mesh clock is floored at the generation's start, so a restart from
    /// a snapshot that lags what peers saw never rewinds it.
    pub fn enter_generation(&self, generation: u64) {
        let start = versioned(generation, 0);
        self.generation.fetch_max(start, Ordering::SeqCst);
        self.raise_clock(start);
        self.lost.store(false, Ordering::SeqCst);
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

    /// The shard a counter key or an object identity lives in. The shard
    /// count never changes, so one mixed modulo routes every key; the
    /// consistent-hash ring of the paper's Dynamo-style store pays only
    /// when shards join or leave.
    fn route(&self, key: u64) -> usize {
        (mix(key) % self.shards.len() as u64) as usize
    }

    /// Locks the shard `key` routes to, unless it is dead. Counters route
    /// by their hashed key, objects by their identity.
    fn maps_of(&self, key: u64) -> Result<MutexGuard<'_, Maps>, StoreError> {
        let shard = &self.shards[self.route(key)];
        if shard.dead.load(Ordering::SeqCst) {
            return Err(StoreError::Dead);
        }
        Ok(shard.maps.lock())
    }

    /// Kills one shard: its contents — counters and objects alike — are
    /// lost and every operation routed to it fails until
    /// [`VersionStore::revive`]. Out-of-range indexes are ignored.
    #[cfg(any(test, feature = "testing"))]
    pub fn kill_shard(&self, index: usize) {
        if let Some(shard) = self.shards.get(index) {
            self.lost.store(true, Ordering::SeqCst);
            shard.dead.store(true, Ordering::SeqCst);
            *shard.maps.lock() = Maps::default();
            // Wake all waiters so they observe death instead of hanging.
            shard.changed.notify_all();
        }
    }

    /// Whether one shard is currently dead.
    #[cfg(any(test, feature = "testing"))]
    pub fn shard_is_dead(&self, index: usize) -> bool {
        index < self.shards.len() && self.dead(index)
    }

    fn dead(&self, index: usize) -> bool {
        self.shards[index].dead.load(Ordering::SeqCst)
    }

    /// Shard index a counter key or object routes to (for
    /// targeted fault injection).
    #[cfg(any(test, feature = "testing"))]
    pub fn shard_for(&self, key: u64) -> usize {
        self.route(key)
    }

    /// Kills the whole store (every shard): contents are lost and every
    /// operation fails until [`VersionStore::revive`].
    #[cfg(any(test, feature = "testing"))]
    pub fn kill(&self) {
        for index in 0..self.shards.len() {
            self.kill_shard(index);
        }
    }

    /// Revives every killed shard, empty.
    pub fn revive(&self) {
        for shard in &self.shards {
            shard.dead.store(false, Ordering::SeqCst);
            shard.changed.notify_all();
        }
    }

    /// Returns `true` while any shard is dead. A partially-dead store is
    /// reported dead because the bump protocol cannot guarantee a complete
    /// dependency picture (§4.2), and recovery (a generation bump or a
    /// bootstrap) is whole-store.
    pub fn is_dead(&self) -> bool {
        self.shards.iter().any(|s| s.dead.load(Ordering::SeqCst))
    }

    /// Locks every shard named in `routes` in index order (cross-shard
    /// atomicity without deadlocks). The result is indexed by shard number —
    /// `guards[i]` is `Some` iff shard `i` is routed — so per-key guard
    /// lookup is O(1) instead of a linear scan of the locked set.
    fn lock_routed(&self, routes: &[usize]) -> Vec<Option<MutexGuard<'_, Maps>>> {
        let mut touched = vec![false; self.shards.len()];
        for r in routes {
            touched[*r] = true;
        }
        touched
            .into_iter()
            .enumerate()
            .map(|(i, hit)| hit.then(|| self.shards[i].maps.lock()))
            .collect()
    }

    /// Drops every guard and wakes the waiters of each shard it held.
    fn release_notify(&self, guards: Vec<Option<MutexGuard<'_, Maps>>>) {
        for (i, guard) in guards.into_iter().enumerate() {
            if let Some(guard) = guard {
                drop(guard);
                self.shards[i].changed.notify_all();
            }
        }
    }

    /// The publisher's atomic script (§4.2): for each dependency, increment
    /// `ops`; for write dependencies, set `version = ops`. `out` receives
    /// the dependency values to embed in the message — `version` for read
    /// dependencies, `version - 1` for write dependencies — cleared first
    /// and filled in `deps` order, in the store's generation. Once a shard
    /// has lost its contents within the generation, revived or not, the
    /// script fails with [`StoreError::Dead`]: the publisher bumps it.
    ///
    /// `deps` pairs each key with `is_write`. The route table and
    /// touched-shard map live in the caller's `scratch`, so they and `out`
    /// reuse their allocations across messages.
    pub fn publish_bump_into(
        &self,
        deps: &[(DepKey, bool)],
        scratch: &mut BumpScratch,
        out: &mut Vec<(DepKey, u64)>,
    ) -> Result<(), StoreError> {
        out.clear();
        if self.lost.load(Ordering::SeqCst) {
            return Err(StoreError::Dead);
        }
        scratch.routes.clear();
        scratch.touched.clear();
        scratch.touched.resize(self.shards.len(), false);
        // Route each key once, failing before any lock if a routed shard is
        // dead (the same all-or-nothing semantics as `apply`).
        for (key, _) in deps {
            let route = self.route(*key);
            if self.dead(route) {
                return Err(StoreError::Dead);
            }
            scratch.touched[route] = true;
            scratch.routes.push(route);
        }
        let start = self.generation.load(Ordering::SeqCst);
        // Lock touched shards in index order (cross-shard atomicity without
        // deadlocks). The guard vector itself is per-call — guards borrow
        // `self` — but it is the only allocation left on this path.
        let mut guards: Vec<Option<MutexGuard<'_, Maps>>> = scratch
            .touched
            .iter()
            .enumerate()
            .map(|(i, hit)| hit.then(|| self.shards[i].maps.lock()))
            .collect();
        for ((key, is_write), shard_idx) in deps.iter().zip(&scratch.routes) {
            let guard = guards[*shard_idx].as_mut().expect("routed shard locked");
            let counter = guard.counters.entry(*key).or_default();
            counter.ops = counter.ops.max(start);
            counter.version = counter.version.max(start);
            counter.ops += 1;
            let value = if *is_write {
                counter.version = counter.ops;
                counter.ops - 1
            } else {
                counter.version
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
                .map(|(k, req)| (self.route(*k) as u32, *k, *req)),
        );
        set.entries.sort_by_key(|(shard, _, _)| *shard);
    }

    /// Blocks until every `(key, required)` pair of a prepared set satisfies
    /// `ops(key) >= required`, or the deadline passes (§4.2: the subscriber
    /// "waits until all specified dependencies' versions in its version
    /// store are greater than or equal to those in the message"); a counter
    /// from an older generation than `required`'s reads as absent. One lock
    /// per touched shard, with all of a shard's keys re-checked under that
    /// single lock after each wakeup.
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
        for group in set.entries.chunk_by(|a, b| a.0 == b.0) {
            let shard = &self.shards[group[0].0 as usize];
            let mut maps = shard.maps.lock();
            // `done` only advances: ops counters are monotonic while the
            // shard lock is dropped during a wait.
            let mut done = 0;
            loop {
                if shard.dead.load(Ordering::SeqCst) {
                    return Err(StoreError::Dead);
                }
                while done < group.len() && maps.reached(group[done].1, group[done].2) {
                    done += 1;
                }
                if done == group.len() {
                    break;
                }
                if shard.changed.wait_until(&mut maps, deadline).timed_out() {
                    return Ok(WaitOutcome::TimedOut);
                }
            }
        }
        Ok(WaitOutcome::Ready)
    }

    /// Non-blocking check over a prepared set: one lock per touched shard.
    /// Fails with [`StoreError::Dead`] if *any* routed shard is dead, even
    /// when an earlier key is already unsatisfied: liveness is checked up
    /// front, before any counter is read.
    pub fn satisfied_prepared(&self, set: &DepWaitSet) -> Result<bool, StoreError> {
        if set.entries.iter().any(|entry| self.dead(entry.0 as usize)) {
            return Err(StoreError::Dead);
        }
        for group in set.entries.chunk_by(|a, b| a.0 == b.0) {
            let maps = self.shards[group[0].0 as usize].maps.lock();
            if !group
                .iter()
                .all(|(_, key, required)| maps.reached(*key, *required))
            {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The subscriber's post-processing script: increment `ops` for every
    /// dependency in the message, waking any waiters. Each counts in its
    /// generation ([`AppliedDep`]): an older counter restarts at its count
    /// 0, and a newer one is left alone (a late write counts nothing).
    ///
    /// Accepts the concatenated dependency lists of a whole message batch:
    /// each touched shard is locked once for the entire call, and only the
    /// shards actually touched are notified — causal waiters parked on
    /// unrelated shards are not spuriously woken.
    pub fn apply<D: AppliedDep>(&self, deps: &[D]) -> Result<(), StoreError> {
        let begun = Instant::now();
        let routes: Vec<usize> = deps.iter().map(|d| self.route(d.key_value().0)).collect();
        // Key-routed: fails only when one of *its* shards is dead.
        if routes.iter().any(|r| self.dead(*r)) {
            return Err(StoreError::Dead);
        }
        let mut guards = self.lock_routed(&routes);
        for (dep, shard_idx) in deps.iter().zip(&routes) {
            let (key, value) = dep.key_value();
            let start = generation_start(value);
            let guard = guards[*shard_idx].as_mut().expect("routed shard locked");
            let counter = guard.counters.entry(key).or_default();
            counter.ops = counter.ops.max(start);
            if generation_start(counter.ops) == start {
                counter.ops += 1;
            }
        }
        self.release_notify(guards);
        self.timing.applies.fetch_add(1, Ordering::Relaxed);
        self.timing
            .apply_nanos
            .fetch_add(begun.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Reads a key's `version` mark (0 when absent): on a publisher, the
    /// `ops` count of the key's last write.
    pub fn latest_version(&self, key: DepKey) -> Result<u64, StoreError> {
        Ok(self.counter(key)?.version)
    }

    /// Reads a key's `ops` counter (0 when absent).
    pub fn ops(&self, key: DepKey) -> Result<u64, StoreError> {
        Ok(self.counter(key)?.ops)
    }

    fn counter(&self, key: DepKey) -> Result<Counter, StoreError> {
        Ok(self
            .maps_of(key)?
            .counters
            .get(&key)
            .copied()
            .unwrap_or_default())
    }

    /// Number of entries across all shards, counting both maps: counters
    /// and admitted objects.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.maps.lock().len()).sum()
    }

    /// Returns `true` if the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards backing the store.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

//! Sharded in-memory dependency version store — the Redis of the paper.
//!
//! Synapse tracks, for every dependency (an object, hashed into a fixed
//! *effective dependency* space), two counters at the publisher — `ops`, the
//! number of operations that have referenced the object, and `version`, the
//! object's version — and a single `ops` counter at each subscriber (§4.2).
//! The original stores these in Redis, runs every multi-key update as an
//! atomic Lua script, and shards the store over a Dynamo-style hash ring.
//!
//! A [`VersionStore`] keeps two maps, one per purpose, each shard holding
//! its part of both:
//!
//! * **counters** `{ops, version}`, keyed by the hashed [`DepKey`]. Their
//!   number is bounded by the dependency space — the paper's O(1) memory —
//!   and a collision there costs only ordering slack;
//! * **object admission state**, keyed by the object's *identity*: the
//!   full 64-bit stable hash of its dependency name, never reduced into the
//!   space. It holds an [`ObjectVersion`] — a single-writer scalar, or a
//!   multi-writer object's last-writer-wins [`Stamp`] — and grows with the
//!   objects replicated, so a counter collision can never decide
//!   freshness. Both kinds follow one rule: a version below the stored one
//!   is stale.
//!
//! Killing a shard (`VersionStore::kill_shard`, in a test build) loses
//! that shard's part of both maps; `VersionStore::kill` loses both
//! everywhere.
//! Every counter and scalar version carries its generation ([`versioned`]):
//! one of an older generation reads as absent, so no bump flushes.
//!
//! This crate reproduces that stack:
//!
//! * [`VersionStore`] — the sharded store; every public operation is atomic
//!   over all the keys it touches (shard locks are taken in index order so
//!   cross-shard scripts cannot deadlock, mirroring §4.2's "mechanisms to
//!   avoid deadlocks on subscribers"). A key lives in shard
//!   `mix(key) % shards`, not on a Dynamo-style ring: a node's shard count
//!   is fixed when its store is built and no shard ever joins or leaves,
//!   which is the only case where consistent hashing moves fewer keys;
//! * publisher script [`VersionStore::publish_bump_into`] and subscriber
//!   scripts [`VersionStore::prepare_wait`] → [`VersionStore::wait_prepared`]
//!   / [`VersionStore::apply`];
//! * the per-object admission script [`VersionStore::reserve`] →
//!   [`Admission::classify`] → the caller's write → [`Admission::commit`]
//!   (§4.2's "discards any messages with a version lower than what is
//!   stored", where a version counts as stored only once its write has
//!   landed) — the one script every write of a versioned object runs, an
//!   incoming apply and a multi-writer object's local write alike;
//! * bulk [`VersionStore::dump`] / [`VersionStore::load_dump`] — a
//!   [`StoreDump`] with one section per map — for the three-step bootstrap
//!   (§4.4) and the durability plane's snapshots;
//! * the dead state and [`VersionStore::revive`] — a lost store is the
//!   event that forces a generation bump at the publisher or a partial
//!   bootstrap at a subscriber (a test build, feature `testing`, kills
//!   shards to drive it);
//! * [`GenerationStore`] — the reliably-stored generation number (the
//!   paper's Chubby/ZooKeeper stand-in).

mod generation;
mod store;

pub use generation::{versioned, GenerationStore};
pub use store::{
    Admission, AdmitRule, AppliedDep, BumpScratch, DepKey, DepWaitSet, ObjectVersion, Stamp,
    StoreDump, StoreError, StoreTimingSnapshot, Verdict, VersionStore, WaitOutcome,
};

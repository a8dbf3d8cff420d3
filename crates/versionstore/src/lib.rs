//! Sharded in-memory dependency version store — the Redis of the paper.
//!
//! Synapse tracks, for every dependency (an object, hashed into a fixed
//! *effective dependency* space), two counters at the publisher — `ops`, the
//! number of operations that have referenced the object, and `version`, the
//! object's version — and a single `ops` counter at each subscriber (§4.2).
//! The original stores these in Redis, runs every multi-key update as an
//! atomic Lua script, and shards the store over a Dynamo-style hash ring.
//!
//! This crate reproduces that stack:
//!
//! * [`VersionStore`] — the sharded store; every public operation is atomic
//!   over all the keys it touches (shard locks are taken in index order so
//!   cross-shard scripts cannot deadlock, mirroring §4.2's "mechanisms to
//!   avoid deadlocks on subscribers");
//! * publisher script [`VersionStore::publish_bump_into`] and subscriber
//!   scripts [`VersionStore::prepare_wait`] → [`VersionStore::wait_prepared`]
//!   / [`VersionStore::apply`];
//! * the per-object admission script [`VersionStore::reserve`] →
//!   [`Admission::classify`] → the caller's write → [`Admission::commit`]
//!   (§4.2's "discards any messages with a version lower than what is
//!   stored", where a version counts as stored only once its write has
//!   landed), and [`VersionStore::stamp`] for a multi-writer object's local
//!   writes;
//! * bulk [`VersionStore::dump`] / [`VersionStore::load_dump`] for the
//!   three-step bootstrap (§4.4) and the durability plane's snapshots;
//! * [`VersionStore::kill`] failure injection, which loses all contents —
//!   the event that forces a generation bump at the publisher or a partial
//!   bootstrap at a subscriber;
//! * [`GenerationStore`] — the reliably-stored generation number (the
//!   paper's Chubby/ZooKeeper stand-in).

pub mod generation;
pub mod ring;
pub mod store;
pub mod vector;

pub use generation::GenerationStore;
pub use ring::HashRing;
pub use store::{
    Admission, AdmitRule, BumpScratch, DepKey, DepWaitSet, DumpEntry, StoreError,
    StoreTimingSnapshot, VectorAdmit, VersionStore, WaitOutcome,
};
pub use vector::{Dominance, VersionVector, INLINE_COMPONENTS, LEGACY_WRITER};

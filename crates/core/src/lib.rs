//! Synapse: ORM-level cross-database replication for microservices.
//!
//! This crate is the reproduction of the paper's contribution (EuroSys'15):
//! a publish/subscribe layer over MVC model objects that replicates data in
//! real time between services running on heterogeneous databases, with
//! selectable delivery semantics.
//!
//! # Architecture (Fig. 6(a))
//!
//! Every item is reached through the crate root, except the subscriber
//! runtime's own types, which live in [`subscriber`], and the §4.5 testing
//! helpers in [`testing`]. The private modules behind the root:
//!
//! * `api` — the programming model of Table 2: [`Publication`] and
//!   [`Subscription`], decorators, ephemerals, observers, virtual
//!   attributes.
//! * `publisher` — the query interceptor ([`Publisher`]): discovers
//!   read/write dependencies inside controller scopes, runs the
//!   version-store bump protocol, marshals write messages, and publishes
//!   them (with a journal providing the 2PC-style atomicity of §4.2).
//! * [`subscriber`] — worker pools that consume a service's queue, enforce
//!   the configured delivery semantics against the version store, and
//!   persist updates through the local ORM (invoking active-model
//!   callbacks).
//! * `semantics` — the three delivery modes of [`DeliveryMode`] (global /
//!   causal / weak) and their degradation rules (§3.2).
//! * `message` — the JSON write-message format of Fig. 6(b)
//!   ([`WriteMessage`]).
//! * `context` — causal scopes ([`with_scope`], [`with_user_scope`]):
//!   controller executions and background jobs, including the
//!   per-user-session serialization rule, and Table 2's explicit
//!   [`add_read_deps`] / [`add_write_deps`].
//! * `node` — [`SynapseNode`], one service's runtime, and [`Ecosystem`],
//!   the wiring harness.
//! * `bootstrap` — the §4.4 recovery path: the pause-free chunk copier
//!   behind [`SynapseNode::bootstrap_from`] and the reserved exchange its
//!   copies carry ([`BOOTSTRAP_EXCHANGE`]).
//! * `config` — [`SynapseConfig`], what a deployment sets, and the
//!   constants that are not settable ([`RETRY_ATTEMPTS`],
//!   [`BOOTSTRAP_CHUNK_ROWS`], [`VERSION_STORE_SHARDS`]).
//! * [`testing`] — the testing framework of §4.5: factories, static
//!   publish/subscribe checks, payload emulation.

#![warn(unreachable_pub)]

mod api;
mod bootstrap;
mod config;
mod context;
mod deps;
mod durability;
mod message;
mod node;
mod publisher;
mod semantics;
pub mod subscriber;
pub mod testing;

pub use api::{Publication, Subscription};
pub use bootstrap::{BootstrapPhase, BootstrapState, BootstrapStats, BOOTSTRAP_EXCHANGE};
pub use config::{
    DurabilityConfig, SynapseConfig, BOOTSTRAP_CHUNK_ROWS, RETRY_ATTEMPTS, VERSION_STORE_SHARDS,
};
pub use context::{
    add_read_deps, add_write_deps, in_scope, with_scope, with_user_scope, ScopeStats,
};
pub use deps::{mesh_object, normalize_dep_sets, writer_id, DepName, DepSpace};
pub use durability::{NodeSnapshot, SnapshotStats, SnapshotStore};
pub use message::{Operation, WriteMessage};
pub use node::{Ecosystem, NodeStats, SynapseNode};
pub use publisher::{Publisher, PublisherStats};
pub use semantics::DeliveryMode;
pub use synapse_telemetry::{ControllerStats, ModeSlice, Stage, Telemetry, TelemetrySnapshot};

//! Synapse: ORM-level cross-database replication for microservices.
//!
//! This crate is the reproduction of the paper's contribution (EuroSys'15):
//! a publish/subscribe layer over MVC model objects that replicates data in
//! real time between services running on heterogeneous databases, with
//! selectable delivery semantics.
//!
//! # Architecture (Fig. 6(a))
//!
//! * [`api`] — the programming model of Table 2: [`api::Publication`],
//!   [`api::Subscription`], decorators, ephemerals, observers, virtual
//!   attributes, explicit dependencies.
//! * [`publisher`] — the query interceptor: discovers read/write
//!   dependencies inside controller scopes, runs the version-store bump
//!   protocol, marshals write messages, and publishes them (with a journal
//!   providing the 2PC-style atomicity of §4.2).
//! * [`subscriber`] — worker pools that consume a service's queue, enforce
//!   the configured delivery semantics against the version store, and
//!   persist updates through the local ORM (invoking active-model
//!   callbacks).
//! * [`semantics`] — the three delivery modes (global / causal / weak) and
//!   their degradation rules (§3.2).
//! * [`message`] — the JSON write-message format of Fig. 6(b).
//! * [`context`] — causal scopes: controller executions and background
//!   jobs, including the per-user-session serialization rule.
//! * [`node`] — [`node::SynapseNode`], one service's runtime, and
//!   [`node::Ecosystem`], the wiring harness.
//! * [`bootstrap`] — the §4.4 recovery path: the pause-free chunk copier
//!   behind [`node::SynapseNode::bootstrap_from`], its reconciliation
//!   window ([`bootstrap::WatermarkGate`]) and the marker wire format.
//! * [`testing`] — the testing framework of §4.5: factories, static
//!   publish/subscribe checks, payload emulation.

pub mod api;
pub mod bootstrap;
pub mod config;
pub mod context;
pub mod deps;
pub mod durability;
pub mod message;
pub mod migration;
pub mod node;
pub mod publisher;
pub mod resolve;
pub mod semantics;
pub mod subscriber;
pub mod testing;

pub use api::{Publication, Subscription};
pub use bootstrap::{
    parse_watermark, watermark_payload, WatermarkGate, BOOTSTRAP_EXCHANGE, WATERMARK_EXCHANGE,
};
pub use config::{DurabilityConfig, RetryPolicy, SynapseConfig, VERSION_STORE_SHARDS};
pub use context::{add_read_deps, add_write_deps, in_scope, with_scope, with_user_scope};
pub use deps::{
    mesh_object, normalize_dep_sets, writer_id, DepInterner, DepName, DepSpace, MESH_NAMESPACE,
};
pub use durability::{NodeSnapshot, SnapshotStats, SnapshotStore};
pub use message::{Operation, WriteMessage};
pub use migration::{check_migration, MigrationStep};
pub use node::{BootstrapPhase, BootstrapState, BootstrapStats, Ecosystem, NodeStats, SynapseNode};
pub use resolve::{
    ConflictCtx, ConflictResolver, LwwResolver, MergeFn, Resolution, ResolverRegistry,
};
pub use semantics::DeliveryMode;
pub use subscriber::ProcessError;
pub use synapse_telemetry::{ControllerStats, ModeSlice, Stage, Telemetry, TelemetrySnapshot};

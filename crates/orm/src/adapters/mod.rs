//! Per-vendor ORM adapters — one per row of Table 3.
//!
//! | Adapter | ORM mirrored | Engines |
//! |---|---|---|
//! | [`ActiveRecordAdapter`] | ActiveRecord | PostgreSQL, MySQL, Oracle |
//! | [`MongoidAdapter`] | Mongoid | MongoDB, TokuMX |
//! | [`CequelAdapter`] | Cequel | Cassandra |
//! | [`StretcherAdapter`] | Stretcher | Elasticsearch |
//! | [`Neo4jAdapter`] | Neo4j.rb | Neo4j |
//! | [`NoBrainerAdapter`] | NoBrainer | RethinkDB |
//!
//! Most adapter code is inherited from [`Adapter`]'s default
//! methods; the overrides below are each vendor's genuine differences,
//! mirroring the paper's finding that per-DB support is a few dozen to a few
//! hundred lines (§4.6). `tests/support_matrix.rs` replicates across
//! every vendor pair, and `tests/figures.rs` counts these files' lines
//! (Table 3).

pub mod active_record;
pub mod cequel;
pub mod mongoid;
pub mod neo4j;
pub mod nobrainer;
pub mod stretcher;

pub use active_record::ActiveRecordAdapter;
pub use cequel::CequelAdapter;
pub use mongoid::MongoidAdapter;
pub use neo4j::Neo4jAdapter;
pub use nobrainer::NoBrainerAdapter;
pub use stretcher::StretcherAdapter;

use crate::adapter::Adapter;
use std::sync::Arc;
use synapse_db::ephemeral::EphemeralDb;
use synapse_db::{Engine, LatencyModel};

/// Adapter for DB-less models (ephemerals/observers, §3.1): generic CRUD
/// over the no-op engine.
pub struct EphemeralAdapter {
    engine: Arc<EphemeralDb>,
}

impl EphemeralAdapter {
    /// Creates the adapter and its engine.
    pub fn new() -> Self {
        EphemeralAdapter {
            engine: Arc::new(EphemeralDb::new()),
        }
    }
}

impl Default for EphemeralAdapter {
    fn default() -> Self {
        Self::new()
    }
}

impl Adapter for EphemeralAdapter {
    fn orm_name(&self) -> &'static str {
        "Ephemeral"
    }

    fn engine(&self) -> &dyn Engine {
        &*self.engine
    }
}

/// Constructs the adapter conventionally paired with `vendor` (Table 3).
///
/// # Panics
///
/// Panics on an unknown vendor name.
pub fn for_vendor(vendor: &str, latency: LatencyModel) -> Arc<dyn Adapter> {
    match vendor {
        "postgresql" | "mysql" | "oracle" => Arc::new(ActiveRecordAdapter::new(vendor, latency)),
        "mongodb" | "tokumx" => Arc::new(MongoidAdapter::new(vendor, latency)),
        "cassandra" => Arc::new(CequelAdapter::new(latency)),
        "elasticsearch" => Arc::new(StretcherAdapter::new(latency)),
        "neo4j" => Arc::new(Neo4jAdapter::new(latency)),
        "rethinkdb" => Arc::new(NoBrainerAdapter::new(latency)),
        "ephemeral" => Arc::new(EphemeralAdapter::new()),
        other => panic!("unknown vendor {other}"),
    }
}

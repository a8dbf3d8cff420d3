//! The engine (driver) trait and its capability descriptors.

use crate::error::DbError;
use crate::query::{Query, QueryResult};

/// Family of a database engine (Table 1 in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// SQL-style relational store.
    Relational,
    /// Schemaless document store.
    Document,
    /// Write-optimized wide-column / LSM store.
    Columnar,
    /// Inverted-index search store.
    Search,
    /// Property-graph store.
    Graph,
    /// No storage at all (ephemerals/observers).
    Ephemeral,
}

impl EngineKind {
    /// Human-readable family name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Relational => "relational",
            EngineKind::Document => "document",
            EngineKind::Columnar => "columnar",
            EngineKind::Search => "search",
            EngineKind::Graph => "graph",
            EngineKind::Ephemeral => "ephemeral",
        }
    }
}

/// Vendor-level capabilities that Synapse's interceptor must know about
/// (§4.1–4.2 of the paper).
#[derive(Debug, Clone)]
pub struct Capabilities {
    /// Engine family.
    pub kind: EngineKind,
    /// Vendor name, e.g. `postgresql`.
    pub vendor: &'static str,
    /// Whether write queries can return the written rows (`RETURNING *`).
    /// When `false` (MySQL, Cassandra) the interceptor performs an
    /// additional read query to identify written data.
    pub returning: bool,
    /// Whether collections are schemaless.
    pub schemaless: bool,
}

/// Operation counters exposed by every engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Read queries executed.
    pub reads: u64,
    /// Write queries executed.
    pub writes: u64,
    /// Rows currently stored.
    pub rows: u64,
    /// Approximate bytes currently stored.
    pub bytes: u64,
}

/// A database engine at the driver level — the layer Synapse's query
/// interceptor wraps (Fig. 6(a)).
///
/// Engines are internally synchronized; all methods take `&self` and may be
/// called from many application-server threads concurrently.
pub trait Engine: Send + Sync {
    /// Static description of what this engine/vendor can do.
    fn capabilities(&self) -> &Capabilities;

    /// Executes one query, committed when it returns.
    ///
    /// The query is the engine's to keep: an `Insert` stores its row and an
    /// `Update` moves its `set` into the stored row, so the only copy a
    /// write makes is the `RETURNING *` echo of what it stored.
    fn execute(&self, q: Query) -> Result<QueryResult, DbError>;

    /// Current operation counters.
    fn stats(&self) -> EngineStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_names() {
        assert_eq!(EngineKind::Relational.name(), "relational");
        assert_eq!(EngineKind::Ephemeral.name(), "ephemeral");
    }
}

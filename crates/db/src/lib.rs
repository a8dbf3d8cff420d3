//! Heterogeneous in-process database engines for the Synapse reproduction.
//!
//! The paper evaluates Synapse across five *families* of database engines
//! (Table 1): relational, document, columnar, search, and graph. Since the
//! reproduction cannot run PostgreSQL, MongoDB, Cassandra, Elasticsearch, or
//! Neo4j, this crate implements each family from scratch with a genuinely
//! different storage layout:
//!
//! * [`relational`] — strict-schema tables, B-tree primary/secondary
//!   indexes, auto-commit queries, per-vendor `RETURNING *` capability
//!   (PostgreSQL/Oracle yes, MySQL no).
//! * [`document`] — schemaless collections of nested documents with array
//!   attributes (MongoDB/TokuMX/RethinkDB profiles).
//! * [`columnar`] — an LSM engine: memtable, SSTable flushes, compaction,
//!   cell timestamps, tombstones (Cassandra profile).
//! * [`search`] — an inverted-index engine with pluggable analyzers and
//!   tf-idf scoring plus terms aggregations (Elasticsearch profile).
//! * [`graph`] — labelled property nodes with adjacency lists and
//!   breadth-first traversals (Neo4j profile).
//! * [`ephemeral`] — a no-op engine backing the paper's *ephemeral* and
//!   *observer* abstractions (DB-less models, §3.1).
//!
//! All engines speak one [`query::Query`] AST through the [`engine::Engine`]
//! trait — the "DB driver" layer at which Synapse's query interceptor sits
//! (Fig. 6(a)). Per-vendor differences that matter to Synapse (write
//! read-back vs. `RETURNING`, schemalessness) are surfaced as
//! [`engine::Capabilities`].
//!
//! The engines hold no fault state: a refused or slowed write is injected
//! by a test around the ORM's adapter (`synapse-faults`), never here.

pub mod columnar;
pub mod document;
pub mod engine;
pub mod ephemeral;
pub mod error;
pub mod graph;
pub mod latency;
pub mod profiles;
pub mod query;
pub mod relational;
pub mod search;
mod table;

pub use engine::{Capabilities, Engine, EngineKind, EngineStats};
pub use error::DbError;
pub use latency::LatencyModel;
pub use query::{Filter, Query, QueryResult, Row};

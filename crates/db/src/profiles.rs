//! Vendor profiles: the nine databases of Table 3, each a configuration of
//! one of the five engine families.
//!
//! Each profile fixes the capability flags Synapse cares about (`RETURNING`,
//! schemalessness) and a latency model calibrated to
//! the saturation throughputs the paper reports (§6.3: PostgreSQL ≈ 12 k
//! writes/s, Elasticsearch ≈ 20 k writes/s) and to the relative ordering
//! implied by Fig. 13(b)'s "slowest end" annotations (Elasticsearch slower
//! than Cassandra, RethinkDB slower than MongoDB, PostgreSQL slower than
//! TokuMX, Neo4j slower than MySQL). Engines run with latency disabled
//! except in the Fig. 13(b) measurement (`tests/figures.rs`).

use crate::columnar::ColumnarDb;
use crate::document::DocumentDb;
use crate::engine::EngineKind::{self, Columnar, Document, Ephemeral, Graph, Relational, Search};
use crate::engine::{Capabilities, Engine};
use crate::ephemeral::EphemeralDb;
use crate::graph::GraphDb;
use crate::latency::LatencyModel;
use crate::relational::RelationalDb;
use crate::search::SearchDb;
use std::sync::Arc;
use std::time::Duration;

/// One vendor: `(vendor, kind, returning, schemaless, read_us,
/// write_us)` — the [`Capabilities`] flags, then the
/// calibrated per-operation latency in microseconds.
type Profile = (&'static str, EngineKind, bool, bool, u64, u64);

/// Every vendor, in Table 3 order. `returning` is `false` where the
/// interceptor must read written rows back (§4.1): MySQL and Cassandra.
const PROFILES: [Profile; 10] = [
    // 1 / 83 µs ≈ 12 k writes/s, the paper's PostgreSQL saturation.
    ("postgresql", Relational, true, false, 30, 83),
    ("mysql", Relational, false, false, 25, 70),
    ("oracle", Relational, true, false, 30, 75),
    // Single-document atomicity, written documents echoed back
    // (findAndModify-style).
    ("mongodb", Document, true, true, 15, 40),
    // TokuMX's fractal-tree indexes make it strictly faster on writes
    // than MongoDB — the reason Crowdtap migrated (§6.5).
    ("tokumx", Document, true, true, 15, 30),
    // Write-optimized (Table 1: "write-intensive").
    ("cassandra", Columnar, false, true, 20, 25),
    // 1 / 50 µs ≈ 20 k writes/s, the paper's Elasticsearch saturation.
    ("elasticsearch", Search, true, true, 40, 50),
    ("neo4j", Graph, true, true, 25, 90),
    ("rethinkdb", Document, true, true, 20, 55),
    // Stores nothing, so it charges nothing.
    ("ephemeral", Ephemeral, true, true, 0, 0),
];

const fn vendor_names() -> [&'static str; PROFILES.len()] {
    let mut names = [""; PROFILES.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = PROFILES[i].0;
        i += 1;
    }
    names
}

/// All vendor names accepted by [`by_name`], in Table 3 order.
pub const VENDORS: &[&str] = &vendor_names();

/// A vendor's capability flags and calibrated latency.
///
/// # Panics
///
/// Panics on an unknown vendor name; use [`VENDORS`] to enumerate.
pub(crate) fn profile(vendor: &str) -> (Capabilities, LatencyModel) {
    let Some(&(vendor, kind, returning, schemaless, read_us, write_us)) =
        PROFILES.iter().find(|p| p.0 == vendor)
    else {
        panic!("unknown vendor {vendor}");
    };
    let caps = Capabilities {
        kind,
        vendor,
        returning,
        schemaless,
    };
    let latency = if write_us == 0 {
        LatencyModel::off()
    } else {
        LatencyModel::new(
            Duration::from_micros(read_us),
            Duration::from_micros(write_us),
        )
    };
    (caps, latency)
}

/// Returns the calibrated latency model for a vendor (see module docs).
///
/// # Panics
///
/// Panics on an unknown vendor name; use [`VENDORS`] to enumerate.
pub fn calibrated_latency(vendor: &str) -> LatencyModel {
    profile(vendor).1
}

/// PostgreSQL: relational, `RETURNING *`.
pub fn postgresql(latency: LatencyModel) -> RelationalDb {
    RelationalDb::new(profile("postgresql").0, latency)
}

/// MySQL: relational, **no** `RETURNING *` (the interceptor must read
/// written rows back, §4.1).
pub fn mysql(latency: LatencyModel) -> RelationalDb {
    RelationalDb::new(profile("mysql").0, latency)
}

/// Oracle: relational, `RETURNING *`.
pub fn oracle(latency: LatencyModel) -> RelationalDb {
    RelationalDb::new(profile("oracle").0, latency)
}

/// MongoDB: document, schemaless, single-document atomicity, written rows
/// echoed back (findAndModify-style).
pub fn mongodb(latency: LatencyModel) -> DocumentDb {
    DocumentDb::new(profile("mongodb").0, latency)
}

/// TokuMX: MongoDB-compatible document store with write-optimized indexes.
pub fn tokumx(latency: LatencyModel) -> DocumentDb {
    DocumentDb::new(profile("tokumx").0, latency)
}

/// RethinkDB: document store (subscriber-only in Table 3).
pub fn rethinkdb(latency: LatencyModel) -> DocumentDb {
    DocumentDb::new(profile("rethinkdb").0, latency)
}

/// Cassandra: columnar/LSM, **no** `RETURNING`.
pub fn cassandra(latency: LatencyModel) -> ColumnarDb {
    ColumnarDb::new(profile("cassandra").0, latency)
}

/// Elasticsearch: inverted-index search store (subscriber-only in Table 3).
pub fn elasticsearch(latency: LatencyModel) -> SearchDb {
    SearchDb::new(profile("elasticsearch").0, latency)
}

/// Neo4j: property graph (subscriber-only in Table 3).
pub fn neo4j(latency: LatencyModel) -> GraphDb {
    GraphDb::new(profile("neo4j").0, latency)
}

/// The DB-less engine backing ephemerals and observers (§3.1).
pub fn ephemeral() -> EphemeralDb {
    EphemeralDb::new()
}

/// Constructs any vendor by name, boxed behind the [`Engine`] trait.
///
/// # Panics
///
/// Panics on an unknown vendor name; use [`VENDORS`] to enumerate.
pub fn by_name(vendor: &str, latency: LatencyModel) -> Arc<dyn Engine> {
    let caps = profile(vendor).0;
    match caps.kind {
        Relational => Arc::new(RelationalDb::new(caps, latency)),
        Document => Arc::new(DocumentDb::new(caps, latency)),
        Columnar => Arc::new(ColumnarDb::new(caps, latency)),
        Search => Arc::new(SearchDb::new(caps, latency)),
        Graph => Arc::new(GraphDb::new(caps, latency)),
        Ephemeral => Arc::new(ephemeral()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_vendor_constructs() {
        for v in VENDORS {
            let engine = by_name(v, LatencyModel::off());
            assert_eq!(engine.capabilities().vendor, *v);
        }
    }

    #[test]
    fn returning_capability_matches_the_paper() {
        // §4.1 lists Oracle, PostgreSQL, MongoDB, TokuMX, RethinkDB as
        // supporting RETURNING-style writes, and MySQL/Cassandra as not.
        for (v, expect) in [
            ("postgresql", true),
            ("oracle", true),
            ("mongodb", true),
            ("tokumx", true),
            ("rethinkdb", true),
            ("mysql", false),
            ("cassandra", false),
        ] {
            assert_eq!(
                by_name(v, LatencyModel::off()).capabilities().returning,
                expect,
                "{v}"
            );
        }
    }

    #[test]
    fn calibration_orderings_match_fig13b() {
        let w = |v: &str| calibrated_latency(v).write;
        assert!(w("elasticsearch") > w("cassandra"));
        assert!(w("rethinkdb") > w("mongodb"));
        assert!(w("postgresql") > w("tokumx"));
        assert!(w("neo4j") > w("mysql"));
        assert!(!calibrated_latency("ephemeral").enabled);
    }

    #[test]
    #[should_panic(expected = "unknown vendor")]
    fn unknown_vendor_panics() {
        let _ = calibrated_latency("sqlite");
    }
}

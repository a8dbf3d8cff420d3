//! Cequel adapter: Cassandra.
//!
//! Vendor differences handled here:
//!
//! * **No `RETURNING`** — the engine reports affected ids only, so every
//!   write takes the inherited read-back path (§4.1's "additional query"
//!   protocol; the paper calls it "safe but somewhat more expensive").

use crate::adapter::Adapter;
use std::sync::Arc;
use synapse_db::columnar::ColumnarDb;
use synapse_db::{profiles, Engine, LatencyModel};

/// The Cassandra adapter. See the module docs.
pub struct CequelAdapter {
    engine: Arc<ColumnarDb>,
}

impl CequelAdapter {
    /// Creates the adapter over a fresh Cassandra-profile engine.
    pub fn new(latency: LatencyModel) -> Self {
        CequelAdapter {
            engine: Arc::new(profiles::cassandra(latency)),
        }
    }

    /// Access to the concrete engine (tests, LSM counters).
    pub fn columnar(&self) -> &ColumnarDb {
        &self.engine
    }
}

impl Adapter for CequelAdapter {
    fn orm_name(&self) -> &'static str {
        "Cequel"
    }

    fn engine(&self) -> &dyn Engine {
        &*self.engine
    }
}

//! Cequel adapter: Cassandra.
//!
//! Vendor differences handled here:
//!
//! * **No `RETURNING`** — the engine reports affected ids only, so every
//!   write takes the inherited read-back path (§4.1's "additional query"
//!   protocol; the paper calls it "safe but somewhat more expensive").
//! * **Logged batches** — [`CequelAdapter::batch_write`] applies several
//!   writes atomically, which the Synapse subscriber uses to persist
//!   multi-operation messages with "the highest level of isolation and
//!   atomicity the underlying DB permits" (§4.2).

use crate::adapter::Adapter;
use crate::error::OrmError;
use std::sync::Arc;
use synapse_db::columnar::ColumnarDb;
use synapse_db::{profiles, Engine, LatencyModel, Query};

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

    /// Applies `writes` as one atomic logged batch.
    pub fn batch_write(&self, writes: Vec<Query>) -> Result<(), OrmError> {
        self.engine.execute(Query::Batch(writes))?;
        Ok(())
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

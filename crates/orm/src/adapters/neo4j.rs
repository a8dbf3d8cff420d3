//! Neo4j adapter: the property-graph store.
//!
//! Vendor differences handled here:
//!
//! * **Labels, not tables** — nodes are stored under the model name itself
//!   (`User`), not a pluralized table name;
//! * **Edges** — [`Neo4jAdapter::add_edge`] / [`Neo4jAdapter::remove_edge`]
//!   are what Example 2's `Friendship` observer calls from its
//!   `after_create` / `after_destroy` callbacks, and
//!   [`Neo4jAdapter::traverse`] serves the recommendation engine's
//!   friends-of-friends queries.

use crate::adapter::Adapter;
use crate::error::OrmError;
use std::sync::Arc;
use synapse_db::graph::GraphDb;
use synapse_db::{profiles, Engine, LatencyModel, Query, QueryResult};
use synapse_model::Id;

/// The graph adapter. See the module docs.
pub struct Neo4jAdapter {
    engine: Arc<GraphDb>,
}

impl Neo4jAdapter {
    /// Creates the adapter over a fresh Neo4j-profile engine.
    pub fn new(latency: LatencyModel) -> Self {
        Neo4jAdapter {
            engine: Arc::new(profiles::neo4j(latency)),
        }
    }

    /// Adds an (undirected) edge under `label`.
    pub fn add_edge(&self, label: &str, from: Id, to: Id) -> Result<(), OrmError> {
        self.engine.execute(Query::AddEdge {
            label: label.to_owned(),
            from,
            to,
        })?;
        Ok(())
    }

    /// Removes an edge under `label`.
    pub fn remove_edge(&self, label: &str, from: Id, to: Id) -> Result<(), OrmError> {
        self.engine.execute(Query::RemoveEdge {
            label: label.to_owned(),
            from,
            to,
        })?;
        Ok(())
    }

    /// Breadth-first traversal up to `depth` hops from `from`.
    pub fn traverse(&self, label: &str, from: Id, depth: usize) -> Result<Vec<Id>, OrmError> {
        match self.engine.execute(Query::Traverse {
            label: label.to_owned(),
            from,
            depth,
        })? {
            QueryResult::Ids(ids) => Ok(ids),
            _ => Ok(Vec::new()),
        }
    }

    /// Access to the concrete engine (tests, edge counters).
    pub fn graph(&self) -> &GraphDb {
        &self.engine
    }
}

impl Adapter for Neo4jAdapter {
    fn orm_name(&self) -> &'static str {
        "Neo4j"
    }

    fn engine(&self) -> &dyn Engine {
        &*self.engine
    }

    /// Graph stores use the label (model name) directly.
    fn table_for(&self, model: &str) -> String {
        model.to_owned()
    }
}

//! Stretcher adapter: Elasticsearch.
//!
//! Vendor differences handled here:
//!
//! * **Analyzers** — [`StretcherAdapter::set_analyzer`] mirrors Sub1b's
//!   `property :name, analyzer: :simple` (Fig. 4);
//! * **Search** — [`StretcherAdapter::search`] exposes scored full-text
//!   queries over subscribed data (Table 1: "aggregations and analytics").

use crate::adapter::Adapter;
use crate::error::OrmError;
use std::sync::Arc;
use synapse_db::search::{Analyzer, SearchDb};
use synapse_db::{profiles, Engine, LatencyModel, Query, QueryResult};
use synapse_model::{Id, Value};

/// The Elasticsearch adapter. See the module docs.
pub struct StretcherAdapter {
    engine: Arc<SearchDb>,
}

impl StretcherAdapter {
    /// Creates the adapter over a fresh Elasticsearch-profile engine.
    pub fn new(latency: LatencyModel) -> Self {
        StretcherAdapter {
            engine: Arc::new(profiles::elasticsearch(latency)),
        }
    }

    /// Declares the analyzer for `model.field`.
    pub fn set_analyzer(&self, model: &str, field: &str, analyzer: Analyzer) {
        self.engine
            .set_analyzer(&self.table_for(model), field, analyzer);
    }

    /// Full-text search on an analyzed field; returns `(id, score)` pairs,
    /// best first.
    pub fn search(
        &self,
        model: &str,
        field: &str,
        text: &str,
        limit: usize,
    ) -> Result<Vec<(Id, f64)>, OrmError> {
        match self.engine.execute(Query::Search {
            table: self.table_for(model),
            field: field.to_owned(),
            text: text.to_owned(),
            limit,
        })? {
            QueryResult::SearchHits(hits) => Ok(hits),
            _ => Ok(Vec::new()),
        }
    }

    /// Terms aggregation over a stored field: `(value, doc_count)` buckets.
    pub fn aggregate(&self, model: &str, field: &str) -> Result<Vec<(Value, u64)>, OrmError> {
        match self.engine.execute(Query::Aggregate {
            table: self.table_for(model),
            field: field.to_owned(),
        })? {
            QueryResult::Buckets(buckets) => Ok(buckets),
            _ => Ok(Vec::new()),
        }
    }
}

impl Adapter for StretcherAdapter {
    fn orm_name(&self) -> &'static str {
        "Stretcher"
    }

    fn engine(&self) -> &dyn Engine {
        &*self.engine
    }
}

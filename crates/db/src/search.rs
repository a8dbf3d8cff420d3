//! Search engine: inverted indexes, analyzers, tf-idf scoring, and terms
//! aggregations, in the style of Elasticsearch.
//!
//! Documents are stored alongside per-field inverted indexes. String fields
//! are tokenized by a configurable [`Analyzer`] (the paper's Sub1b declares
//! `property :name, analyzer: :simple`); [`Query::Search`] scores matching
//! documents with tf-idf and [`Query::Aggregate`] buckets documents by a
//! field's value (Table 1: "aggregations and analytics").

use crate::engine::{Capabilities, Engine, EngineStats};
use crate::error::DbError;
use crate::faults::DbFaults;
use crate::latency::LatencyModel;
use crate::query::{Query, QueryResult, Row};
use crate::table::{OpMeter, RowTable};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use synapse_model::{Id, Value};

/// Tokenization strategy for an analyzed field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Analyzer {
    /// Lowercase and split on non-alphanumeric characters.
    #[default]
    Simple,
    /// Like [`Analyzer::Simple`], plus English stop-word removal.
    Standard,
    /// The whole value as a single lowercase token.
    Keyword,
}

const STOP_WORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if", "in", "into", "is", "it",
    "no", "not", "of", "on", "or", "such", "that", "the", "their", "then", "there", "these",
    "they", "this", "to", "was", "will", "with",
];

impl Analyzer {
    /// Tokenizes `text` according to the strategy.
    pub fn tokenize(self, text: &str) -> Vec<String> {
        match self {
            Analyzer::Keyword => vec![text.to_lowercase()],
            Analyzer::Simple => split_alnum(text),
            Analyzer::Standard => split_alnum(text)
                .into_iter()
                .filter(|t| !STOP_WORDS.contains(&t.as_str()))
                .collect(),
        }
    }
}

fn split_alnum(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_owned)
        .collect()
}

#[derive(Debug, Default, Clone)]
struct SearchIndex {
    docs: RowTable,
    /// Per-field inverted index: field → term → (doc id → term frequency).
    inverted: HashMap<String, HashMap<String, HashMap<Id, u32>>>,
    /// Analyzer overrides by field (default: [`Analyzer::Simple`]).
    analyzers: HashMap<String, Analyzer>,
}

impl SearchIndex {
    fn analyzer_for(&self, field: &str) -> Analyzer {
        self.analyzers.get(field).copied().unwrap_or_default()
    }

    fn index_doc(&mut self, id: Id, doc: &Row) {
        for (field, value) in doc {
            let texts: Vec<&str> = match value {
                Value::Str(s) => vec![s.as_str()],
                Value::Array(items) => items.iter().filter_map(Value::as_str).collect(),
                _ => continue,
            };
            let analyzer = self.analyzer_for(field);
            let per_field = self.inverted.entry(field.clone()).or_default();
            for text in texts {
                for term in analyzer.tokenize(text) {
                    *per_field.entry(term).or_default().entry(id).or_insert(0) += 1;
                }
            }
        }
    }

    fn unindex_doc(&mut self, id: Id) {
        for per_field in self.inverted.values_mut() {
            per_field.retain(|_, postings| {
                postings.remove(&id);
                !postings.is_empty()
            });
        }
    }

    /// Scores docs for `text` on `field` with tf-idf.
    fn search(&self, field: &str, text: &str, limit: usize) -> Vec<(Id, f64)> {
        let analyzer = self.analyzer_for(field);
        let terms = analyzer.tokenize(text);
        let n_docs = self.docs.len().max(1) as f64;
        let mut scores: HashMap<Id, f64> = HashMap::new();
        if let Some(per_field) = self.inverted.get(field) {
            for term in &terms {
                if let Some(postings) = per_field.get(term) {
                    let idf = (n_docs / postings.len() as f64).ln() + 1.0;
                    for (id, tf) in postings {
                        *scores.entry(*id).or_default() += (*tf as f64).sqrt() * idf;
                    }
                }
            }
        }
        let mut hits: Vec<(Id, f64)> = scores.into_iter().collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(limit);
        hits
    }

    /// Terms aggregation over a stored field.
    fn aggregate(&self, field: &str) -> Vec<(Value, u64)> {
        let mut buckets: BTreeMap<Value, u64> = BTreeMap::new();
        for doc in self.docs.rows() {
            match doc.get(field) {
                Some(Value::Array(items)) => {
                    for item in items {
                        *buckets.entry(item.clone()).or_default() += 1;
                    }
                }
                Some(v) if !v.is_null() => {
                    *buckets.entry(v.clone()).or_default() += 1;
                }
                _ => {}
            }
        }
        let mut out: Vec<(Value, u64)> = buckets.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

/// The search engine. See the module docs.
pub struct SearchDb {
    caps: Capabilities,
    meter: OpMeter,
    indices: Mutex<HashMap<String, SearchIndex>>,
    /// Snapshot captured by [`SearchDb::inject_refresh_lag`]; reads are
    /// answered from it while the fault panel's refresh-lag window is
    /// open, modelling the search-engine refresh interval — documents
    /// land in the live index but stay invisible to queries until the
    /// next refresh.
    stale: Mutex<Option<HashMap<String, SearchIndex>>>,
    faults: DbFaults,
}

impl SearchDb {
    /// Creates an engine with the given vendor capabilities and latency.
    pub fn new(caps: Capabilities, latency: LatencyModel) -> Self {
        SearchDb {
            caps,
            meter: OpMeter::new(latency),
            indices: Mutex::new(HashMap::new()),
            stale: Mutex::new(None),
            faults: DbFaults::new(),
        }
    }

    /// The engine's fault panel (shared state with every clone).
    pub fn faults(&self) -> DbFaults {
        self.faults.clone()
    }

    /// Arms refresh lag: captures the current indices as the visible
    /// snapshot, then answers the next `reads` read queries from it while
    /// writes keep landing in the live index. When the countdown expires
    /// the engine "refreshes" — the snapshot is dropped and reads see the
    /// live index again. Countdown-based like the rest of the fault
    /// plane, so a seeded schedule yields identical staleness every run.
    pub fn inject_refresh_lag(&self, reads: u64) {
        let snapshot = self.indices.lock().clone();
        *self.stale.lock() = Some(snapshot);
        self.faults.inject_refresh_lag(reads);
    }

    /// Answers a read query against `indices` — either the live map or
    /// the refresh-lag snapshot.
    fn read_query(
        indices: &HashMap<String, SearchIndex>,
        q: &Query,
    ) -> Result<QueryResult, DbError> {
        match q {
            Query::Select {
                table,
                filter,
                order,
                limit,
            } => Ok(QueryResult::Rows(
                indices
                    .get(table)
                    .map_or_else(Vec::new, |i| i.docs.select(filter, order, *limit)),
            )),
            Query::Count { table, filter } => Ok(QueryResult::Count(
                indices.get(table).map_or(0, |i| i.docs.count(filter)),
            )),
            Query::Search {
                table,
                field,
                text,
                limit,
            } => {
                let hits = indices
                    .get(table)
                    .map(|i| i.search(field, text, *limit))
                    .unwrap_or_default();
                Ok(QueryResult::SearchHits(hits))
            }
            Query::Aggregate { table, field } => {
                let buckets = indices
                    .get(table)
                    .map(|i| i.aggregate(field))
                    .unwrap_or_default();
                Ok(QueryResult::Buckets(buckets))
            }
            other => unreachable!("read_query only handles reads, got {other:?}"),
        }
    }

    /// Declares the analyzer for `table.field` (Sub1b's
    /// `property :name, analyzer: :simple`).
    pub fn set_analyzer(&self, table: &str, field: &str, analyzer: Analyzer) {
        let mut indices = self.indices.lock();
        indices
            .entry(table.to_owned())
            .or_default()
            .analyzers
            .insert(field.to_owned(), analyzer);
    }
}

impl Engine for SearchDb {
    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn execute(&self, q: &Query) -> Result<QueryResult, DbError> {
        self.meter.charge(q);
        if matches!(
            q,
            Query::Select { .. }
                | Query::Count { .. }
                | Query::Search { .. }
                | Query::Aggregate { .. }
        ) {
            if self.faults.gate_read() {
                if let Some(snapshot) = self.stale.lock().as_ref() {
                    return Self::read_query(snapshot, q);
                }
            } else {
                // Refresh-lag window closed: the engine has "refreshed",
                // so drop the snapshot and serve the live index.
                self.stale.lock().take();
            }
            return Self::read_query(&self.indices.lock(), q);
        }
        let mut indices = self.indices.lock();
        match q {
            Query::CreateTable { table } => {
                indices.entry(table.clone()).or_default();
                Ok(QueryResult::Unit)
            }
            Query::DropTable { table } => {
                indices.remove(table);
                Ok(QueryResult::Unit)
            }
            Query::Insert { table, id, row } => {
                let index = indices.entry(table.clone()).or_default();
                index.docs.insert(table, *id, row.clone())?;
                index.index_doc(*id, row);
                Ok(QueryResult::Rows(vec![(*id, row.clone())]))
            }
            Query::Update {
                table,
                filter,
                set,
                unset,
            } => {
                let index = indices.entry(table.clone()).or_default();
                let mut written = Vec::new();
                for (id, _, doc) in index.docs.update(&index.docs.ids(filter), set, unset) {
                    index.unindex_doc(id);
                    index.index_doc(id, &doc);
                    written.push((id, doc));
                }
                Ok(QueryResult::Rows(written))
            }
            Query::Delete { table, filter } => {
                let index = indices.entry(table.clone()).or_default();
                let removed = index.docs.delete(&index.docs.ids(filter));
                for (id, _) in &removed {
                    index.unindex_doc(*id);
                }
                Ok(QueryResult::Rows(removed))
            }
            Query::Select { .. }
            | Query::Count { .. }
            | Query::Search { .. }
            | Query::Aggregate { .. } => {
                unreachable!("read queries are dispatched through read_query above")
            }
            Query::Batch(_) => Err(DbError::Unsupported("batches on search engine")),
            Query::AddEdge { .. } | Query::RemoveEdge { .. } | Query::Traverse { .. } => {
                Err(DbError::Unsupported("graph queries on search engine"))
            }
        }
    }

    fn stats(&self) -> EngineStats {
        let indices = self.indices.lock();
        self.meter
            .stats(indices.values().flat_map(|i| i.docs.rows()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use crate::query::Filter;
    use synapse_model::varray;

    fn db() -> SearchDb {
        profiles::elasticsearch(LatencyModel::off())
    }

    fn put(db: &SearchDb, id: u64, field: &str, text: &str) {
        let mut row = Row::new();
        row.insert(field.to_owned(), Value::from(text));
        db.execute(&Query::Insert {
            table: "posts".into(),
            id: Id(id),
            row,
        })
        .unwrap();
    }

    fn search(db: &SearchDb, text: &str) -> Vec<Id> {
        match db
            .execute(&Query::Search {
                table: "posts".into(),
                field: "body".into(),
                text: text.into(),
                limit: 10,
            })
            .unwrap()
        {
            QueryResult::SearchHits(hits) => hits.into_iter().map(|(id, _)| id).collect(),
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn analyzers_tokenize_differently() {
        assert_eq!(
            Analyzer::Simple.tokenize("The Quick, brown FOX!"),
            vec!["the", "quick", "brown", "fox"]
        );
        assert_eq!(
            Analyzer::Standard.tokenize("The Quick, brown FOX!"),
            vec!["quick", "brown", "fox"]
        );
        assert_eq!(Analyzer::Keyword.tokenize("The Quick"), vec!["the quick"]);
    }

    #[test]
    fn search_finds_and_ranks_matches() {
        let db = db();
        put(&db, 1, "body", "cats are great, I love cats");
        put(&db, 2, "body", "dogs are fine");
        put(&db, 3, "body", "one cats mention");
        let hits = search(&db, "cats");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], Id(1), "higher tf ranks first");
    }

    #[test]
    fn updates_reindex_documents() {
        let db = db();
        put(&db, 1, "body", "cats");
        let mut set = Row::new();
        set.insert("body".to_owned(), Value::from("dogs"));
        db.execute(&Query::Update {
            table: "posts".into(),
            filter: Filter::ById(Id(1)),
            set,
            unset: vec![],
        })
        .unwrap();
        assert!(search(&db, "cats").is_empty());
        assert_eq!(search(&db, "dogs"), vec![Id(1)]);
    }

    #[test]
    fn deletes_remove_postings() {
        let db = db();
        put(&db, 1, "body", "cats");
        db.execute(&Query::Delete {
            table: "posts".into(),
            filter: Filter::ById(Id(1)),
        })
        .unwrap();
        assert!(search(&db, "cats").is_empty());
        assert_eq!(db.stats().rows, 0);
    }

    #[test]
    fn array_fields_index_every_element() {
        let db = db();
        let mut row = Row::new();
        row.insert("body".to_owned(), varray!["cats rule", "dogs drool"]);
        db.execute(&Query::Insert {
            table: "posts".into(),
            id: Id(1),
            row,
        })
        .unwrap();
        assert_eq!(search(&db, "cats"), vec![Id(1)]);
        assert_eq!(search(&db, "dogs"), vec![Id(1)]);
    }

    #[test]
    fn keyword_analyzer_matches_whole_value_only() {
        let db = db();
        db.set_analyzer("posts", "body", Analyzer::Keyword);
        put(&db, 1, "body", "New York");
        assert!(search(&db, "new").is_empty());
        assert_eq!(search(&db, "New York"), vec![Id(1)]);
    }

    #[test]
    fn terms_aggregation_counts_buckets() {
        let db = db();
        for (id, interests) in [
            (1u64, varray!["cats", "dogs"]),
            (2, varray!["cats"]),
            (3, varray!["fish"]),
        ] {
            let mut row = Row::new();
            row.insert("interests".to_owned(), interests);
            db.execute(&Query::Insert {
                table: "posts".into(),
                id: Id(id),
                row,
            })
            .unwrap();
        }
        match db
            .execute(&Query::Aggregate {
                table: "posts".into(),
                field: "interests".into(),
            })
            .unwrap()
        {
            QueryResult::Buckets(b) => {
                assert_eq!(b[0], (Value::from("cats"), 2));
                assert_eq!(b.len(), 3);
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn search_on_missing_index_is_empty() {
        let db = db();
        assert!(search(&db, "anything").is_empty());
    }

    #[test]
    fn refresh_lag_serves_stale_reads_then_refreshes() {
        let db = db();
        put(&db, 1, "body", "cats");
        // Freeze visibility, then keep writing into the live index.
        db.inject_refresh_lag(3);
        put(&db, 2, "body", "cats and more cats");
        // Three reads land inside the lag window: the new document is
        // already written but invisible, exactly the search-engine
        // refresh-interval failure mode.
        for _ in 0..3 {
            assert_eq!(search(&db, "cats"), vec![Id(1)]);
        }
        // The window expired — the engine "refreshed" and both docs show.
        assert_eq!(search(&db, "cats").len(), 2);
        assert_eq!(db.faults().stats().stale_reads_served, 3);
        assert!(!db.faults().is_armed());
    }

    #[test]
    fn refresh_lag_schedule_is_deterministic() {
        // Same write/read schedule twice: identical staleness both runs.
        let observed: Vec<Vec<usize>> = (0..2)
            .map(|_| {
                let db = db();
                put(&db, 1, "body", "fish");
                db.inject_refresh_lag(2);
                put(&db, 2, "body", "fish too");
                (0..4).map(|_| search(&db, "fish").len()).collect()
            })
            .collect();
        assert_eq!(observed[0], observed[1]);
        assert_eq!(observed[0], vec![1, 1, 2, 2]);
    }

    #[test]
    fn stale_snapshot_serves_counts_and_aggregates_too() {
        let db = db();
        put(&db, 1, "interests", "cats");
        db.inject_refresh_lag(1);
        put(&db, 2, "interests", "cats");
        match db
            .execute(&Query::Count {
                table: "posts".into(),
                filter: Filter::All,
            })
            .unwrap()
        {
            QueryResult::Count(n) => assert_eq!(n, 1, "count sees the snapshot"),
            other => panic!("unexpected result {other:?}"),
        }
        match db
            .execute(&Query::Count {
                table: "posts".into(),
                filter: Filter::All,
            })
            .unwrap()
        {
            QueryResult::Count(n) => assert_eq!(n, 2, "window closed after one read"),
            other => panic!("unexpected result {other:?}"),
        }
    }
}

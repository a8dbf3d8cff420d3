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
use crate::latency::LatencyModel;
use crate::query::{Filter, Query, QueryResult, Row};
use crate::table::{namespace, OpMeter, RowTable};
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
    #[cfg(test)]
    fn tokenize(self, text: &str) -> Vec<String> {
        let mut terms = Vec::new();
        self.each_term(text, |term| terms.push(term.to_owned()));
        terms
    }

    /// Calls `f` with each term of `text`, in order, out of one lowercased
    /// copy: indexing allocates only for the terms it keeps.
    fn each_term(self, text: &str, mut f: impl FnMut(&str)) {
        let lower = text.to_lowercase();
        if self == Analyzer::Keyword {
            return f(&lower);
        }
        for term in lower.split(|c: char| !c.is_alphanumeric()) {
            let stop = self == Analyzer::Standard && STOP_WORDS.contains(&term);
            if !term.is_empty() && !stop {
                f(term);
            }
        }
    }
}

#[derive(Debug, Default, Clone)]
struct SearchIndex {
    docs: RowTable,
    /// Per-field inverted index: field → term → (doc id → term frequency).
    /// Always exactly the index of `docs` under `analyzers` — no empty
    /// posting list, no empty field — which is what lets an update or a
    /// delete take a document out by the terms of its old image.
    inverted: HashMap<String, HashMap<String, HashMap<Id, u32>>>,
    /// Analyzer overrides by field (default: [`Analyzer::Simple`]).
    analyzers: HashMap<String, Analyzer>,
    /// Posting lists looked up by index maintenance, for the test that
    /// pins its cost to the document's own terms.
    #[cfg(test)]
    posting_visits: usize,
}

/// The strings of a field value that get tokenized: the value itself, or
/// the elements of an array.
fn texts(value: &Value) -> impl Iterator<Item = &str> {
    let items = match value {
        Value::Array(items) => items.as_slice(),
        scalar => std::slice::from_ref(scalar),
    };
    items.iter().filter_map(Value::as_str)
}

impl SearchIndex {
    fn analyzer_for(&self, field: &str) -> Analyzer {
        self.analyzers.get(field).copied().unwrap_or_default()
    }

    fn index_doc(&mut self, id: Id, doc: &Row) {
        for (field, value) in doc {
            self.index_field(id, field, value);
        }
    }

    /// Takes `id` out of the postings its stored image `old` put it in.
    fn unindex_doc(&mut self, id: Id, old: &Row) {
        for (field, value) in old {
            self.unindex_field(id, field, value);
        }
    }

    fn index_field(&mut self, id: Id, field: &str, value: &Value) {
        let analyzer = self.analyzer_for(field);
        for text in texts(value) {
            analyzer.each_term(text, |term| {
                #[cfg(test)]
                {
                    self.posting_visits += 1;
                }
                let postings = namespace(namespace(&mut self.inverted, field), term);
                *postings.entry(id).or_insert(0) += 1;
            });
        }
    }

    fn unindex_field(&mut self, id: Id, field: &str, value: &Value) {
        let analyzer = self.analyzer_for(field);
        let Some(per_field) = self.inverted.get_mut(field) else {
            return;
        };
        for text in texts(value) {
            analyzer.each_term(text, |term| {
                #[cfg(test)]
                {
                    self.posting_visits += 1;
                }
                if let Some(postings) = per_field.get_mut(term) {
                    postings.remove(&id);
                    if postings.is_empty() {
                        per_field.remove(term);
                    }
                }
            });
        }
        if per_field.is_empty() {
            self.inverted.remove(field);
        }
    }

    /// Changes `field`'s analyzer and re-tokenizes the field's stored
    /// values with it, so the index stays the index of `docs`.
    fn set_analyzer(&mut self, field: &str, analyzer: Analyzer) {
        self.analyzers.insert(field.to_owned(), analyzer);
        self.inverted.remove(field);
        // The documents step aside so they can be read while the index
        // is written.
        let docs = std::mem::take(&mut self.docs);
        for (id, doc) in docs.matching(&Filter::All) {
            if let Some(value) = doc.get(field) {
                self.index_field(id, field, value);
            }
        }
        self.docs = docs;
    }

    /// Scores docs for `text` on `field` with tf-idf.
    fn search(&self, field: &str, text: &str, limit: usize) -> Vec<(Id, f64)> {
        let n_docs = self.docs.len().max(1) as f64;
        let mut scores: HashMap<Id, f64> = HashMap::new();
        if let Some(per_field) = self.inverted.get(field) {
            self.analyzer_for(field).each_term(text, |term| {
                if let Some(postings) = per_field.get(term) {
                    let idf = (n_docs / postings.len() as f64).ln() + 1.0;
                    for (id, tf) in postings {
                        *scores.entry(*id).or_default() += (*tf as f64).sqrt() * idf;
                    }
                }
            });
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
}

impl SearchDb {
    /// Creates an engine with the given vendor capabilities and latency.
    pub fn new(caps: Capabilities, latency: LatencyModel) -> Self {
        SearchDb {
            caps,
            meter: OpMeter::new(latency),
            indices: Mutex::new(HashMap::new()),
        }
    }

    /// Declares the analyzer for `table.field` (Sub1b's
    /// `property :name, analyzer: :simple`).
    pub fn set_analyzer(&self, table: &str, field: &str, analyzer: Analyzer) {
        let mut indices = self.indices.lock();
        indices
            .entry(table.to_owned())
            .or_default()
            .set_analyzer(field, analyzer);
    }
}

impl Engine for SearchDb {
    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn execute(&self, q: Query) -> Result<QueryResult, DbError> {
        self.meter.charge(&q);
        let mut indices = self.indices.lock();
        match q {
            Query::CreateTable { table } => {
                namespace(&mut indices, &table);
                Ok(QueryResult::Unit)
            }
            Query::DropTable { table } => {
                indices.remove(&table);
                Ok(QueryResult::Unit)
            }
            Query::Insert { table, id, row } => {
                let index = namespace(&mut indices, &table);
                let echo = row.clone();
                index.docs.insert(&table, id, row)?;
                index.index_doc(id, &echo);
                Ok(QueryResult::Rows(vec![(id, echo)]))
            }
            Query::Update {
                table,
                filter,
                set,
                unset,
            } => {
                let index = namespace(&mut indices, &table);
                // The documents step aside so the index can be written
                // while they are read: out of the postings of the old
                // image, into those of the new.
                let mut docs = std::mem::take(&mut index.docs);
                let ids = docs.ids(&filter);
                for (id, old) in ids.iter().filter_map(|id| Some((*id, docs.get(*id)?))) {
                    index.unindex_doc(id, old);
                }
                let mut written = Vec::new();
                docs.update(&ids, set, &unset, false, |id, _, doc| {
                    index.index_doc(id, doc);
                    written.push((id, doc.clone()));
                });
                index.docs = docs;
                Ok(QueryResult::Rows(written))
            }
            Query::Delete { table, filter } => {
                let index = namespace(&mut indices, &table);
                let removed = index.docs.delete(&index.docs.ids(&filter));
                for (id, old) in &removed {
                    index.unindex_doc(*id, old);
                }
                Ok(QueryResult::Rows(removed))
            }
            Query::Select {
                table,
                filter,
                order,
                limit,
            } => Ok(QueryResult::Rows(
                indices
                    .get(&table)
                    .map_or_else(Vec::new, |i| i.docs.select(&filter, &order, limit)),
            )),
            Query::Count { table, filter } => Ok(QueryResult::Count(
                indices.get(&table).map_or(0, |i| i.docs.count(&filter)),
            )),
            Query::Search {
                table,
                field,
                text,
                limit,
            } => Ok(QueryResult::SearchHits(
                indices
                    .get(&table)
                    .map(|i| i.search(&field, &text, limit))
                    .unwrap_or_default(),
            )),
            Query::Aggregate { table, field } => Ok(QueryResult::Buckets(
                indices
                    .get(&table)
                    .map(|i| i.aggregate(&field))
                    .unwrap_or_default(),
            )),
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
    use proptest::prelude::*;
    use synapse_model::varray;

    fn db() -> SearchDb {
        profiles::elasticsearch(LatencyModel::off())
    }

    fn put(db: &SearchDb, id: u64, field: &str, text: &str) {
        let mut row = Row::new();
        row.insert(field.to_owned(), Value::from(text));
        db.execute(Query::Insert {
            table: "posts".into(),
            id: Id(id),
            row,
        })
        .unwrap();
    }

    fn search(db: &SearchDb, text: &str) -> Vec<Id> {
        match db
            .execute(Query::Search {
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
        db.execute(Query::Update {
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
        db.execute(Query::Delete {
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
        db.execute(Query::Insert {
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
            db.execute(Query::Insert {
                table: "posts".into(),
                id: Id(id),
                row,
            })
            .unwrap();
        }
        match db
            .execute(Query::Aggregate {
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

    fn update(db: &SearchDb, filter: Filter, set: &[(&str, Value)], unset: &[&str]) {
        db.execute(Query::Update {
            table: "posts".into(),
            filter,
            set: set
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
            unset: unset.iter().map(|k| (*k).to_owned()).collect(),
        })
        .unwrap();
    }

    /// The live index of `posts` against one built from scratch over its
    /// documents and analyzers: the same postings, the same search hits.
    fn assert_index_is_rebuild(db: &SearchDb) {
        let live = db.indices.lock().get("posts").cloned().unwrap_or_default();
        let mut rebuilt = SearchIndex {
            docs: live.docs.clone(),
            analyzers: live.analyzers.clone(),
            ..SearchIndex::default()
        };
        for (id, doc) in live.docs.matching(&Filter::All) {
            rebuilt.index_doc(id, doc);
        }
        assert_eq!(live.inverted, rebuilt.inverted);
        for field in ["body", "tags"] {
            for text in ["cats", "New York", "the dogs and cats", "7"] {
                let hits = db
                    .execute(Query::Search {
                        table: "posts".into(),
                        field: field.into(),
                        text: text.into(),
                        limit: 100,
                    })
                    .unwrap();
                assert_eq!(
                    hits,
                    QueryResult::SearchHits(rebuilt.search(field, text, 100))
                );
            }
        }
    }

    #[test]
    fn changing_an_analyzer_reindexes_the_stored_documents() {
        let db = db();
        put(&db, 1, "body", "New York");
        let mut row = Row::new();
        row.insert("tags".to_owned(), varray!["Los Angeles", 7, "New York"]);
        db.execute(Query::Insert {
            table: "posts".into(),
            id: Id(2),
            row,
        })
        .unwrap();
        assert_eq!(search(&db, "new"), vec![Id(1)]);

        // The old tokenization must stop matching, the new one start.
        db.set_analyzer("posts", "body", Analyzer::Keyword);
        db.set_analyzer("posts", "tags", Analyzer::Keyword);
        assert!(search(&db, "new").is_empty());
        assert_eq!(search(&db, "New York"), vec![Id(1)]);
        assert_index_is_rebuild(&db);
        let tags = |text: &str| {
            db.indices.lock()["posts"]
                .search("tags", text, 10)
                .into_iter()
                .map(|(id, _)| id)
                .collect::<Vec<_>>()
        };
        assert_eq!(tags("los angeles"), vec![Id(2)]);
        assert!(tags("angeles").is_empty());

        // And the document leaves by the tokens it is indexed under now:
        // nothing of "new york" may outlive the update.
        update(&db, Filter::ById(Id(1)), &[("body", "Boston".into())], &[]);
        assert!(search(&db, "New York").is_empty());
        assert_eq!(search(&db, "boston"), vec![Id(1)]);
        assert_index_is_rebuild(&db);

        // Back again, over an array field too.
        db.set_analyzer("posts", "tags", Analyzer::Simple);
        assert_eq!(tags("angeles"), vec![Id(2)]);
        assert_index_is_rebuild(&db);
    }

    #[test]
    fn a_field_that_stops_being_text_leaves_the_index() {
        let db = db();
        put(&db, 1, "body", "cats");
        put(&db, 2, "body", "cats and dogs");
        // Str → Int.
        update(&db, Filter::ById(Id(1)), &[("body", Value::Int(5))], &[]);
        assert_eq!(search(&db, "cats"), vec![Id(2)]);
        assert_index_is_rebuild(&db);
        // Unset.
        update(&db, Filter::ById(Id(2)), &[], &["body"]);
        assert!(search(&db, "cats").is_empty());
        assert!(db.indices.lock()["posts"].inverted.is_empty());
        // Int → Array of strings.
        update(&db, Filter::All, &[("body", varray!["cats", "cats"])], &[]);
        assert_eq!(search(&db, "cats"), vec![Id(1), Id(2)]);
        assert_index_is_rebuild(&db);
    }

    /// An update costs the document's own terms, old and new, however
    /// large the table's vocabulary: a sweep over every term of the field
    /// would look at 5 000 posting lists here.
    #[test]
    fn an_update_visits_only_the_documents_own_posting_lists() {
        let db = db();
        for id in 0..5_000u64 {
            put(&db, id, "name", &format!("user{id}"));
        }
        db.indices.lock().get_mut("posts").unwrap().posting_visits = 0;
        update(
            &db,
            Filter::ById(Id(2_500)),
            &[("name", "three new terms".into())],
            &[],
        );
        let index = db.indices.lock()["posts"].clone();
        assert!(
            index.posting_visits <= 1 + 3,
            "visited {} posting lists",
            index.posting_visits
        );
        assert_eq!(index.inverted["name"].len(), 4_999 + 3);
        db.indices.lock().get_mut("posts").unwrap().posting_visits = 0;
        db.execute(Query::Delete {
            table: "posts".into(),
            filter: Filter::ById(Id(2_500)),
        })
        .unwrap();
        assert_eq!(db.indices.lock()["posts"].posting_visits, 3);
        assert_eq!(db.indices.lock()["posts"].inverted["name"].len(), 4_999);
    }

    #[derive(Debug, Clone)]
    enum Step {
        Insert(u64, Row),
        Update(Filter, Row, Vec<String>),
        Delete(Filter),
        Analyze(&'static str, Analyzer),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let field = || prop_oneof![Just("body"), Just("tags"), Just("n")];
        let word = || {
            prop_oneof![
                Just("cats"),
                Just("dogs"),
                Just("New York"),
                Just("the"),
                Just("and"),
                Just("7"),
                Just("é")
            ]
        };
        let text = move || prop::collection::vec(word(), 0..4).prop_map(|words| words.join(" "));
        let value = prop_oneof![
            text().prop_map(Value::from),
            prop::collection::vec(
                prop_oneof![text().prop_map(Value::from), (0i64..9).prop_map(Value::Int)],
                0..3
            )
            .prop_map(Value::Array),
            (0i64..9).prop_map(Value::Int),
            Just(Value::Null),
        ]
        .boxed();
        let row = move || {
            prop::collection::vec((field(), value.clone()), 0..3).prop_map(|fields| {
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), v))
                    .collect::<Row>()
            })
        };
        let filter = || {
            prop_oneof![
                (0u64..6).prop_map(|id| Filter::ById(Id(id))),
                (0u64..6).prop_map(|id| Filter::IdAfter(Id(id))),
                Just(Filter::All),
                (0i64..9).prop_map(|n| Filter::Eq("n".into(), Value::Int(n))),
            ]
        };
        let unset = prop::collection::vec(field().prop_map(str::to_owned), 0..2);
        prop_oneof![
            ((0u64..6), row()).prop_map(|(id, row)| Step::Insert(id, row)),
            ((0u64..6), row()).prop_map(|(id, row)| Step::Insert(id, row)),
            (filter(), row(), unset).prop_map(|(f, set, unset)| Step::Update(f, set, unset)),
            filter().prop_map(Step::Delete),
            (
                field(),
                prop_oneof![
                    Just(Analyzer::Simple),
                    Just(Analyzer::Standard),
                    Just(Analyzer::Keyword)
                ]
            )
                .prop_map(|(field, analyzer)| Step::Analyze(field, analyzer)),
        ]
    }

    proptest! {
        /// After every step of a random history the inverted index is the
        /// index of the stored documents, however each got there.
        #[test]
        fn index_equals_rebuild_after_every_step(
            steps in prop::collection::vec(arb_step(), 1..40),
        ) {
            let db = db();
            for step in steps {
                let table = "posts".to_owned();
                match step {
                    Step::Insert(id, row) => {
                        // A taken id is refused and must change nothing.
                        let _ = db.execute(Query::Insert { table, id: Id(id), row });
                    }
                    Step::Update(filter, set, unset) => {
                        db.execute(Query::Update { table, filter, set, unset }).unwrap();
                    }
                    Step::Delete(filter) => {
                        db.execute(Query::Delete { table, filter }).unwrap();
                    }
                    Step::Analyze(field, analyzer) => db.set_analyzer(&table, field, analyzer),
                }
                assert_index_is_rebuild(&db);
            }
        }
    }
}

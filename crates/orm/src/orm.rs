//! The ORM facade: dynamic CRUD with hooks, the interceptor, associations.

use crate::adapter::Adapter;
use crate::error::OrmError;
use crate::hooks::{CallbackPoint, ModelHooks};
use crate::observer::{QueryObserver, WriteIntent, WriteKind};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use synapse_db::query::OrderBy;
use synapse_db::{DbError, EngineStats, Filter};
use synapse_model::{AssociationKind, Id, IdGenerator, ModelSchema, Record, SchemaSet, Value};

/// Attribute changes for an update: field name → new value.
pub type Changes = BTreeMap<String, Value>;

/// A write's second run: its row went to the engine on the first.
const SPENT: DbError = DbError::Unsupported("a write executes at most once");

/// One service's ORM: schemas, CRUD and associations, one hook table per
/// model (callbacks, virtual attributes), and the one query interceptor
/// Synapse installs.
///
/// # Examples
///
/// ```
/// use synapse_db::LatencyModel;
/// use synapse_model::{vmap, ModelSchema};
/// use synapse_orm::adapters::MongoidAdapter;
/// use synapse_orm::Orm;
/// use std::sync::Arc;
///
/// let orm = Orm::new("pub1", Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())));
/// orm.define_model(ModelSchema::open("User")).unwrap();
/// let user = orm.create("User", vmap! { "name" => "alice" }).unwrap();
/// let found = orm.find("User", user.id).unwrap().unwrap();
/// assert_eq!(found.get("name").as_str(), Some("alice"));
/// ```
pub struct Orm {
    app: String,
    adapter: Arc<dyn Adapter>,
    schemas: RwLock<SchemaSet>,
    /// One hook table per model, by pointer: registration copies the table
    /// it edits, so a write holds no lock while its hooks run.
    pub(crate) hooks: RwLock<HashMap<String, Arc<ModelHooks>>>,
    /// The query interceptor — on a node, its publisher.
    interceptor: OnceLock<Arc<dyn QueryObserver>>,
    idgens: Mutex<HashMap<String, Arc<IdGenerator>>>,
    bootstrap: AtomicBool,
    /// Writes that reached the interception point (the ORM-intercept stage
    /// of the telemetry plane) and records of reads reported to it.
    writes_intercepted: AtomicU64,
    reads_observed: AtomicU64,
}

impl Orm {
    /// Creates an ORM for app `app` over `adapter`.
    pub fn new(app: impl Into<String>, adapter: Arc<dyn Adapter>) -> Self {
        Orm {
            app: app.into(),
            adapter,
            schemas: RwLock::new(SchemaSet::new()),
            hooks: RwLock::new(HashMap::new()),
            interceptor: OnceLock::new(),
            idgens: Mutex::new(HashMap::new()),
            bootstrap: AtomicBool::new(false),
            writes_intercepted: AtomicU64::new(0),
            reads_observed: AtomicU64::new(0),
        }
    }

    /// Writes that reached the interception point since construction.
    pub fn writes_intercepted(&self) -> u64 {
        self.writes_intercepted.load(Ordering::Relaxed)
    }

    /// Read records reported to the interception point since construction.
    pub fn reads_observed(&self) -> u64 {
        self.reads_observed.load(Ordering::Relaxed)
    }

    /// The owning application's name.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// The adapter in use.
    pub fn adapter(&self) -> &Arc<dyn Adapter> {
        &self.adapter
    }

    /// Underlying engine statistics.
    pub fn engine_stats(&self) -> EngineStats {
        self.adapter.engine().stats()
    }

    /// Declares a model and creates its backing storage.
    pub fn define_model(&self, schema: ModelSchema) -> Result<(), OrmError> {
        self.adapter.define_model(&schema)?;
        self.schemas.write().define(schema);
        Ok(())
    }

    /// Looks up a model's schema, as a copy the caller owns.
    pub fn schema(&self, model: &str) -> Result<ModelSchema, OrmError> {
        Ok(ModelSchema::clone(&*self.shared_schema(model)?))
    }

    /// The schema every call of this ORM works from: the registry's own,
    /// by pointer — the lock is released before any callback runs.
    fn shared_schema(&self, model: &str) -> Result<Arc<ModelSchema>, OrmError> {
        Ok(Arc::clone(self.schemas.read().get(model)?))
    }

    /// Names of all defined models.
    pub fn model_names(&self) -> Vec<String> {
        self.schemas
            .read()
            .model_names()
            .into_iter()
            .map(str::to_owned)
            .collect()
    }

    /// Installs the ORM's query interceptor (Synapse's publisher, a test
    /// probe, …).
    ///
    /// # Panics
    ///
    /// Panics when one is already installed: an ORM has exactly one, and a
    /// node installs its publisher.
    pub fn observe(&self, observer: Arc<dyn QueryObserver>) {
        if self.interceptor.set(observer).is_err() {
            panic!("ORM of {} already has its query interceptor", self.app);
        }
    }

    /// Sets the Synapse bootstrap flag exposed to callbacks (§4.4).
    pub fn set_bootstrap(&self, on: bool) {
        self.bootstrap.store(on, Ordering::SeqCst);
    }

    /// The paper's `Synapse.bootstrap?` predicate.
    pub fn is_bootstrap(&self) -> bool {
        self.bootstrap.load(Ordering::SeqCst)
    }

    fn idgen(&self, model: &str) -> Arc<IdGenerator> {
        let mut idgens = self.idgens.lock();
        if !idgens.contains_key(model) {
            idgens.insert(model.to_owned(), Arc::default());
        }
        Arc::clone(&idgens[model])
    }

    /// Runs a write through the interceptor's `around_write`, `write`
    /// performing the actual engine write, at most once.
    fn run_write(
        &self,
        intent: &WriteIntent,
        write: impl FnOnce() -> Result<Record, OrmError>,
    ) -> Result<Record, OrmError> {
        self.writes_intercepted.fetch_add(1, Ordering::Relaxed);
        let mut write = Some(write);
        let mut exec = || write.take().ok_or(SPENT)?();
        match self.interceptor.get() {
            Some(interceptor) => interceptor.around_write(self, intent, &mut exec),
            None => exec(),
        }
    }

    fn notify_read(&self, records: &[Record]) {
        if records.is_empty() {
            return;
        }
        self.reads_observed
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        if let Some(interceptor) = self.interceptor.get() {
            interceptor.on_read(self, records);
        }
    }

    /// Creates a new object with a freshly allocated id.
    pub fn create(&self, model: &str, attrs: Value) -> Result<Record, OrmError> {
        let id = self.idgen(model).next_id();
        self.create_with_id(model, id, attrs)
    }

    /// Creates a new object with an explicit id (replication, fixtures).
    pub fn create_with_id(&self, model: &str, id: Id, attrs: Value) -> Result<Record, OrmError> {
        let schema = self.shared_schema(model)?;
        self.idgen(model).observe(id);
        let attrs = match attrs {
            Value::Map(m) => m,
            Value::Null => BTreeMap::new(),
            other => {
                return Err(OrmError::Model(synapse_model::ModelError::Malformed(
                    format!("create attrs must be a map, got {}", other.type_name()),
                )))
            }
        };
        let mut record = Record::with_attrs(model.to_owned(), id, attrs);
        record.types.extend(schema.ancestors.iter().cloned());
        let hooks = self.hooks(model);
        self.run_callbacks(hooks.as_deref(), CallbackPoint::BeforeCreate, &mut record)?;
        schema.check_attrs(record.attrs.iter())?;
        let intent = WriteIntent {
            kind: WriteKind::Create,
            model,
            id,
            changes: &RefCell::default(),
        };
        let mut stored =
            self.run_write(&intent, || self.adapter.insert(&schema, id, record.attrs))?;
        self.run_callbacks(hooks.as_deref(), CallbackPoint::AfterCreate, &mut stored)?;
        Ok(stored)
    }

    /// The stored image of an object a write is about to change.
    fn pre_image(&self, model: &str, id: Id) -> Result<Record, OrmError> {
        self.adapter
            .find(&*self.shared_schema(model)?, id)?
            .ok_or_else(|| OrmError::RecordNotFound {
                model: model.to_owned(),
                id: id.to_string(),
            })
    }

    /// Applies attribute changes to an existing object. The engine writes
    /// the caller's changes without reading the row first, and a missing
    /// row is the write's own `RecordNotFound`. Only a `BeforeUpdate`
    /// callback needs the row: it gets the stored image merged with the
    /// changes, and the engine writes what differs from the stored image.
    pub fn update(&self, model: &str, id: Id, changes: Value) -> Result<Record, OrmError> {
        let schema = self.shared_schema(model)?;
        let changes = match changes {
            Value::Map(m) => m,
            other => {
                return Err(OrmError::Model(synapse_model::ModelError::Malformed(
                    format!("update changes must be a map, got {}", other.type_name()),
                )))
            }
        };
        let hooks = self.hooks(model);
        // `None`: the engine takes the caller's own map.
        let merged_set = if hooks
            .as_deref()
            .is_some_and(|h| !h.callbacks[CallbackPoint::BeforeUpdate as usize].is_empty())
        {
            let current = self.pre_image(model, id)?;
            let mut merged = current.clone();
            for (k, v) in &changes {
                merged.attrs.insert(k.clone(), v.clone());
            }
            self.run_callbacks(hooks.as_deref(), CallbackPoint::BeforeUpdate, &mut merged)?;
            schema.check_attrs(merged.attrs.iter())?;
            let differs = |(k, v): &(String, Value)| current.attrs.get(k) != Some(v);
            Some(merged.attrs.into_iter().filter(differs).collect())
        } else {
            // Stored attributes were checked when they were written.
            schema.check_attrs(changes.iter())?;
            None
        };
        // The intent carries the *caller's* changes (not the merged image):
        // Synapse's restriction checks need to know which attributes the
        // application actually touched (§3.1: subscribers may only update
        // their own decoration attributes). Without a merge the write then
        // moves that same map into the engine.
        let changes = RefCell::new(changes);
        let intent = WriteIntent {
            kind: WriteKind::Update,
            model,
            id,
            changes: &changes,
        };
        let write = || {
            let set = merged_set.unwrap_or_else(|| changes.take());
            self.adapter.update(&schema, id, set)
        };
        let mut stored = self.run_write(&intent, write)?;
        self.run_callbacks(hooks.as_deref(), CallbackPoint::AfterUpdate, &mut stored)?;
        Ok(stored)
    }

    /// Destroys an object, returning its final image.
    pub fn destroy(&self, model: &str, id: Id) -> Result<Record, OrmError> {
        self.destroy_record(self.pre_image(model, id)?)
    }

    /// [`Orm::destroy`] for a caller that has just read the object: `pre`
    /// is its stored image, so it is not read again.
    pub fn destroy_record(&self, mut pre: Record) -> Result<Record, OrmError> {
        let schema = self.shared_schema(&pre.model)?;
        let hooks = self.hooks(&pre.model);
        self.run_callbacks(hooks.as_deref(), CallbackPoint::BeforeDestroy, &mut pre)?;
        let intent = WriteIntent {
            kind: WriteKind::Delete,
            model: &pre.model,
            id: pre.id,
            changes: &RefCell::default(),
        };
        let mut removed = self.run_write(&intent, || self.adapter.delete(&schema, &pre))?;
        self.run_callbacks(hooks.as_deref(), CallbackPoint::AfterDestroy, &mut removed)?;
        Ok(removed)
    }

    /// Fetches one object, reporting the read to the interceptor (the
    /// implicit read-dependency discovery of §4.2).
    pub fn find(&self, model: &str, id: Id) -> Result<Option<Record>, OrmError> {
        let schema = self.shared_schema(model)?;
        let found = self.adapter.find(&schema, id)?;
        if let Some(r) = &found {
            self.notify_read(std::slice::from_ref(r));
        }
        Ok(found)
    }

    /// Fetches all objects where `field == value`.
    pub fn where_eq(
        &self,
        model: &str,
        field: &str,
        value: impl Into<Value>,
    ) -> Result<Vec<Record>, OrmError> {
        let schema = self.shared_schema(model)?;
        let records = self.adapter.select(
            &schema,
            Filter::Eq(field.to_owned(), value.into()),
            None,
            None,
        )?;
        self.notify_read(&records);
        Ok(records)
    }

    /// Fetches all objects of a model in id order.
    pub fn all(&self, model: &str) -> Result<Vec<Record>, OrmError> {
        let schema = self.shared_schema(model)?;
        let records = self.adapter.select(
            &schema,
            Filter::All,
            Some(OrderBy {
                field: "id".into(),
                ascending: true,
            }),
            None,
        )?;
        self.notify_read(&records);
        Ok(records)
    }

    /// Fetches up to `limit` objects of a model whose id is strictly
    /// greater than `after`, ordered by id ascending. This is the paged
    /// read behind bootstrap's chunked object copy: each chunk picks up
    /// after the last id of the one before.
    pub fn all_after(&self, model: &str, after: Id, limit: usize) -> Result<Vec<Record>, OrmError> {
        let schema = self.shared_schema(model)?;
        let records = self.adapter.select(
            &schema,
            Filter::IdAfter(after),
            Some(OrderBy {
                field: "id".into(),
                ascending: true,
            }),
            Some(limit),
        )?;
        self.notify_read(&records);
        Ok(records)
    }

    /// Counts objects of a model. Counts are aggregations, not true
    /// dependencies (§4.2), so the interceptor is *not* told.
    pub fn count(&self, model: &str) -> Result<u64, OrmError> {
        let schema = self.shared_schema(model)?;
        self.adapter.count(&schema, Filter::All)
    }

    /// Whether object `id` is stored: one by-id count, which copies no
    /// row. Like [`Orm::count`], it is no read dependency.
    pub fn exists(&self, model: &str, id: Id) -> Result<bool, OrmError> {
        let schema = self.shared_schema(model)?;
        Ok(self.adapter.count(&schema, Filter::ById(id))? > 0)
    }

    /// Navigates an association declared on the record's model.
    ///
    /// * `belongs_to` returns zero or one record;
    /// * `has_many` returns all records of the target model whose
    ///   conventional foreign key (`<model>_id`, lowercased) equals this
    ///   record's id.
    pub fn related(&self, record: &Record, assoc_name: &str) -> Result<Vec<Record>, OrmError> {
        let schema = self.shared_schema(&record.model)?;
        let assoc = schema
            .associations
            .get(assoc_name)
            .ok_or_else(|| {
                OrmError::Model(synapse_model::ModelError::UnknownField {
                    model: record.model.clone(),
                    field: assoc_name.to_owned(),
                })
            })?
            .clone();
        match assoc.kind {
            AssociationKind::BelongsTo => {
                let fk = record.get(&assoc.foreign_key());
                match fk.as_int() {
                    Some(raw) => Ok(self
                        .find(&assoc.target, Id(raw as u64))?
                        .into_iter()
                        .collect()),
                    None => Ok(Vec::new()),
                }
            }
            AssociationKind::HasMany => {
                let fk = format!("{}_id", record.model.to_lowercase());
                self.where_eq(&assoc.target, &fk, Value::Int(record.id.raw() as i64))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::{for_vendor, ActiveRecordAdapter, MongoidAdapter};
    use crate::observer::WriteExec;
    use parking_lot::Mutex as PMutex;
    use synapse_db::LatencyModel;
    use synapse_model::{varray, vmap, FieldType};

    fn mongo_orm() -> Orm {
        let orm = Orm::new(
            "test_app",
            Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
        );
        orm.define_model(ModelSchema::open("User")).unwrap();
        orm.define_model(ModelSchema::open("Post")).unwrap();
        orm
    }

    fn sql_orm(vendor: &str) -> (Orm, Arc<ActiveRecordAdapter>) {
        let adapter = Arc::new(ActiveRecordAdapter::new(vendor, LatencyModel::off()));
        let orm = Orm::new("test_app", adapter.clone());
        orm.define_model(
            ModelSchema::new("User")
                .typed_field("name", FieldType::Str)
                .typed_field("interests", FieldType::Any),
        )
        .unwrap();
        (orm, adapter)
    }

    #[test]
    fn create_allocates_increasing_ids() {
        let orm = mongo_orm();
        let a = orm.create("User", vmap! { "name" => "a" }).unwrap();
        let b = orm.create("User", vmap! { "name" => "b" }).unwrap();
        assert!(b.id > a.id);
    }

    #[test]
    fn create_with_id_advances_the_generator() {
        let orm = mongo_orm();
        orm.create_with_id("User", Id(100), vmap! {}).unwrap();
        let next = orm.create("User", vmap! {}).unwrap();
        assert!(next.id > Id(100));
    }

    #[test]
    fn update_merges_changes() {
        let orm = mongo_orm();
        let u = orm
            .create("User", vmap! { "name" => "a", "likes" => 0 })
            .unwrap();
        let u2 = orm.update("User", u.id, vmap! { "likes" => 5 }).unwrap();
        assert_eq!(u2.get("likes").as_int(), Some(5));
        assert_eq!(u2.get("name").as_str(), Some("a"), "untouched field kept");
    }

    /// A document engine that keeps the `set` of every update it runs.
    struct SpyEngine {
        inner: synapse_db::document::DocumentDb,
        sets: PMutex<Vec<synapse_db::Row>>,
    }

    impl synapse_db::Engine for SpyEngine {
        fn capabilities(&self) -> &synapse_db::Capabilities {
            self.inner.capabilities()
        }

        fn execute(
            &self,
            q: synapse_db::Query,
        ) -> Result<synapse_db::QueryResult, synapse_db::DbError> {
            if let synapse_db::Query::Update { set, .. } = &q {
                self.sets.lock().push(set.clone());
            }
            self.inner.execute(q)
        }

        fn stats(&self) -> EngineStats {
            self.inner.stats()
        }
    }

    impl Adapter for SpyEngine {
        fn orm_name(&self) -> &'static str {
            "Spy"
        }

        fn engine(&self) -> &dyn synapse_db::Engine {
            self
        }
    }

    struct Intents(PMutex<Vec<Changes>>);

    impl QueryObserver for Intents {
        fn on_read(&self, _orm: &Orm, _records: &[Record]) {}

        fn around_write(
            &self,
            _orm: &Orm,
            intent: &WriteIntent,
            exec: &mut WriteExec<'_>,
        ) -> Result<Record, OrmError> {
            self.0.lock().push(intent.changes.borrow().clone());
            exec()
        }
    }

    #[test]
    fn update_hands_the_engine_what_differs_and_observers_what_was_asked() {
        let spy = Arc::new(SpyEngine {
            inner: synapse_db::profiles::mongodb(LatencyModel::off()),
            sets: PMutex::new(Vec::new()),
        });
        let orm = Orm::new("test_app", spy.clone());
        orm.define_model(ModelSchema::open("User")).unwrap();
        let five = vmap! { "a" => 1, "b" => 1, "c" => 1, "d" => 1, "e" => 1 };
        let u = orm.create("User", five).unwrap();
        let intents = Arc::new(Intents(PMutex::new(Vec::new())));
        orm.observe(intents.clone());

        // Without a callback nothing is read first: the engine gets what
        // was asked, moved or not.
        let asked = vmap! { "a" => 1, "b" => 1, "c" => 2, "d" => 1, "e" => 1 };
        let stored = orm.update("User", u.id, asked.clone()).unwrap();
        assert_eq!(stored.get("c").as_int(), Some(2));
        assert_eq!(stored.attrs.len(), 5, "the post-image is the whole row");
        assert_eq!(spy.sets.lock().pop().map(Value::Map), Some(asked.clone()));
        assert_eq!(
            Value::Map(intents.0.lock().pop().unwrap()),
            asked,
            "the intent carries the caller's changes"
        );

        // A callback's own edits are part of the merged image.
        orm.on("User", CallbackPoint::BeforeUpdate, |_, r| {
            r.set("touched", true);
            Ok(())
        });
        let stored = orm.update("User", u.id, vmap! { "c" => 2 }).unwrap();
        assert_eq!(stored.get("touched").as_bool(), Some(true));
        assert_eq!(
            spy.sets.lock().pop(),
            Some(BTreeMap::from([("touched".to_owned(), Value::Bool(true))]))
        );
        assert_eq!(
            Value::Map(intents.0.lock().pop().unwrap()),
            vmap! { "c" => 2 }
        );
    }

    /// Calls `exec` twice and keeps what each write's intent lent before
    /// the write, what it still held after, and the error the second call
    /// returned.
    type Seen = (WriteKind, Changes, Changes, Option<OrmError>);
    struct Twice(PMutex<Vec<Seen>>);

    impl QueryObserver for Twice {
        fn around_write(
            &self,
            _orm: &Orm,
            intent: &WriteIntent,
            exec: &mut WriteExec<'_>,
        ) -> Result<Record, OrmError> {
            let lent = intent.changes.borrow().clone();
            let first = exec();
            let second = exec();
            let left = intent.changes.borrow().clone();
            let seen = (intent.kind, lent, left, second.err());
            self.0.lock().push(seen);
            first
        }
    }

    #[test]
    fn a_write_executes_at_most_once_and_a_create_lends_no_attributes() {
        let orm = mongo_orm();
        let twice = Arc::new(Twice(PMutex::new(Vec::new())));
        orm.observe(twice.clone());
        let u = orm.create("User", vmap! { "name" => "a" }).unwrap();
        orm.update("User", u.id, vmap! { "name" => "b" }).unwrap();
        assert_eq!(
            orm.find("User", u.id)
                .unwrap()
                .unwrap()
                .get("name")
                .as_str(),
            Some("b")
        );
        orm.destroy("User", u.id).unwrap();
        assert_eq!(orm.count("User").unwrap(), 0, "one insert, then one delete");

        let spent = OrmError::Db(DbError::Unsupported("a write executes at most once"));
        let seen = std::mem::take(&mut *twice.0.lock());
        let asked = Changes::from([("name".to_owned(), Value::from("b"))]);
        let expected = [
            (WriteKind::Create, Changes::new()),
            (WriteKind::Update, asked),
            (WriteKind::Delete, Changes::new()),
        ];
        assert_eq!(seen.len(), expected.len());
        for ((kind, lent, left, second), (want_kind, want_changes)) in
            seen.into_iter().zip(expected)
        {
            assert_eq!((kind, lent), (want_kind, want_changes));
            assert!(
                left.is_empty(),
                "{kind:?}: the engine took the caller's map"
            );
            assert_eq!(
                second.as_ref(),
                Some(&spent),
                "{kind:?}: a second call writes nothing"
            );
        }
    }

    #[test]
    #[should_panic(expected = "already has its query interceptor")]
    fn an_orm_takes_one_interceptor() {
        let orm = mongo_orm();
        orm.observe(Arc::new(Intents(PMutex::new(Vec::new()))));
        orm.observe(Arc::new(Intents(PMutex::new(Vec::new()))));
    }

    /// Engine reads per update: §4.1's read-back alone (none where the
    /// engine returns the row it wrote), plus the pre-image once a
    /// `BeforeUpdate` callback needs the merged row. A missing row is the
    /// write's own `RecordNotFound` on every engine.
    #[test]
    fn an_update_reads_its_row_only_for_a_before_update_callback() {
        for vendor in [
            "postgresql",
            "mysql",
            "mongodb",
            "cassandra",
            "elasticsearch",
            "neo4j",
        ] {
            let orm = Orm::new("test_app", for_vendor(vendor, LatencyModel::off()));
            orm.define_model(ModelSchema::new("User").field("name"))
                .unwrap();
            let u = orm.create("User", vmap! { "name" => "a" }).unwrap();
            let reads_of = |changes: Value| {
                let before = orm.engine_stats().reads;
                let stored = orm.update("User", u.id, changes).unwrap();
                assert_eq!(stored.get("name"), &Value::from("b"), "{vendor}");
                orm.engine_stats().reads - before
            };
            let read_back = u64::from(matches!(vendor, "mysql" | "cassandra"));
            assert_eq!(reads_of(vmap! { "name" => "b" }), read_back, "{vendor}");
            assert!(
                matches!(
                    orm.update("User", Id(404), vmap! { "name" => "b" }),
                    Err(OrmError::RecordNotFound { .. })
                ),
                "{vendor}"
            );
            orm.on("User", CallbackPoint::BeforeUpdate, |_, _| Ok(()));
            assert_eq!(
                reads_of(vmap! { "name" => "b" }),
                1 + read_back,
                "{vendor}: the pre-image"
            );
        }
    }

    #[test]
    fn update_missing_record_errors() {
        let orm = mongo_orm();
        assert!(matches!(
            orm.update("User", Id(404), vmap! { "x" => 1 }),
            Err(OrmError::RecordNotFound { .. })
        ));
    }

    #[test]
    fn destroy_returns_final_image() {
        let orm = mongo_orm();
        let u = orm.create("User", vmap! { "name" => "gone" }).unwrap();
        let removed = orm.destroy("User", u.id).unwrap();
        assert_eq!(removed.get("name").as_str(), Some("gone"));
        assert!(orm.find("User", u.id).unwrap().is_none());
    }

    #[test]
    fn callbacks_fire_in_order_and_can_mutate() {
        let orm = mongo_orm();
        let log: Arc<PMutex<Vec<&'static str>>> = Arc::new(PMutex::new(Vec::new()));
        let l1 = log.clone();
        orm.on("User", CallbackPoint::BeforeCreate, move |_, r| {
            l1.lock().push("before");
            r.set("normalized", true);
            Ok(())
        });
        let l2 = log.clone();
        orm.on("User", CallbackPoint::AfterCreate, move |_, _| {
            l2.lock().push("after");
            Ok(())
        });
        let u = orm.create("User", vmap! { "name" => "x" }).unwrap();
        assert_eq!(*log.lock(), vec!["before", "after"]);
        assert_eq!(u.get("normalized").as_bool(), Some(true));
    }

    #[test]
    fn aborting_before_create_prevents_the_write() {
        let orm = mongo_orm();
        orm.on("User", CallbackPoint::BeforeCreate, |_, _| {
            Err(OrmError::CallbackAborted("validation failed".into()))
        });
        assert!(orm.create("User", vmap! {}).is_err());
        assert_eq!(orm.count("User").unwrap(), 0);
    }

    #[test]
    fn callbacks_see_bootstrap_flag() {
        let orm = mongo_orm();
        let seen: Arc<PMutex<Vec<bool>>> = Arc::new(PMutex::new(Vec::new()));
        let s = seen.clone();
        orm.on("User", CallbackPoint::AfterCreate, move |ctx, _| {
            s.lock().push(ctx.bootstrap);
            Ok(())
        });
        orm.create("User", vmap! {}).unwrap();
        orm.set_bootstrap(true);
        orm.create("User", vmap! {}).unwrap();
        assert_eq!(*seen.lock(), vec![false, true]);
    }

    struct Probe {
        reads: PMutex<Vec<String>>,
        writes: PMutex<Vec<(WriteKind, String, Id)>>,
    }

    impl QueryObserver for Probe {
        fn on_read(&self, _orm: &Orm, records: &[Record]) {
            let mut reads = self.reads.lock();
            for r in records {
                reads.push(format!("{}/{}", r.model, r.id));
            }
        }

        fn around_write(
            &self,
            _orm: &Orm,
            intent: &WriteIntent,
            exec: &mut WriteExec<'_>,
        ) -> Result<Record, OrmError> {
            self.writes
                .lock()
                .push((intent.kind, intent.model.to_owned(), intent.id));
            exec()
        }
    }

    #[test]
    fn observers_see_reads_and_writes() {
        let orm = mongo_orm();
        let probe = Arc::new(Probe {
            reads: PMutex::new(Vec::new()),
            writes: PMutex::new(Vec::new()),
        });
        orm.observe(probe.clone());
        let u = orm.create("User", vmap! { "name" => "a" }).unwrap();
        orm.find("User", u.id).unwrap();
        orm.update("User", u.id, vmap! { "name" => "b" }).unwrap();
        orm.destroy("User", u.id).unwrap();
        assert_eq!(
            *probe.writes.lock(),
            vec![
                (WriteKind::Create, "User".to_owned(), u.id),
                (WriteKind::Update, "User".to_owned(), u.id),
                (WriteKind::Delete, "User".to_owned(), u.id),
            ]
        );
        assert_eq!(*probe.reads.lock(), vec![format!("User/{}", u.id)]);
    }

    #[test]
    fn counts_are_not_read_dependencies() {
        let orm = mongo_orm();
        let probe = Arc::new(Probe {
            reads: PMutex::new(Vec::new()),
            writes: PMutex::new(Vec::new()),
        });
        orm.create("User", vmap! {}).unwrap();
        orm.observe(probe.clone());
        orm.count("User").unwrap();
        assert!(probe.reads.lock().is_empty());
    }

    #[test]
    fn sql_flattens_arrays_to_text_and_serialize_restores_them() {
        let (orm, adapter) = sql_orm("postgresql");
        let interests = varray!["cats", "dogs"];
        let u = orm
            .create(
                "User",
                vmap! { "name" => "a", "interests" => interests.clone() },
            )
            .unwrap();
        // Without `serialize`, the stored value is the flattened text.
        assert_eq!(
            u.get("interests").as_str(),
            Some(r#"["cats","dogs"]"#),
            "Sub3a behaviour: array flattened to text"
        );
        // With `serialize`, reads restore the structured value.
        adapter.serialize_field("User", "interests");
        let found = orm.find("User", u.id).unwrap().unwrap();
        assert_eq!(found.get("interests"), &interests);
    }

    #[test]
    fn a_serialized_column_reads_back_the_value_that_was_written() {
        let (orm, adapter) = sql_orm("postgresql");
        adapter.serialize_field("User", "interests");
        let written = [
            Value::from("42"),
            Value::from("true"),
            Value::from("null"),
            Value::from("[1]"),
            Value::Int(42),
            varray!["cats", "dogs"],
        ];
        for value in written {
            let u = orm
                .create("User", vmap! { "interests" => value.clone() })
                .unwrap();
            assert_eq!(u.get("interests"), &value, "the create's echo");
            let found = orm.find("User", u.id).unwrap().unwrap();
            assert_eq!(found.get("interests"), &value, "a later find");
            let changes = vmap! { "interests" => value.clone(), "name" => "b" };
            let updated = orm.update("User", u.id, changes).unwrap();
            assert_eq!(updated.get("interests"), &value, "the update's echo");
        }
    }

    #[test]
    fn mysql_read_back_path_produces_full_images() {
        let (orm, _) = sql_orm("mysql");
        let u = orm.create("User", vmap! { "name" => "a" }).unwrap();
        assert_eq!(u.get("name").as_str(), Some("a"));
        let u2 = orm.update("User", u.id, vmap! { "name" => "b" }).unwrap();
        assert_eq!(u2.get("name").as_str(), Some("b"));
        let gone = orm.destroy("User", u.id).unwrap();
        assert_eq!(
            gone.get("name").as_str(),
            Some("b"),
            "pre-image via pre-read"
        );
    }

    #[test]
    fn sql_rejects_undeclared_columns() {
        let (orm, _) = sql_orm("postgresql");
        assert!(orm.create("User", vmap! { "ghost" => 1 }).is_err());
    }

    #[test]
    fn associations_navigate_both_directions() {
        let orm = Orm::new(
            "app",
            Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
        );
        orm.define_model(ModelSchema::open("User").has_many("posts", "Post"))
            .unwrap();
        orm.define_model(ModelSchema::open("Post").belongs_to("user", "User"))
            .unwrap();
        let u = orm.create("User", vmap! { "name" => "a" }).unwrap();
        let p = orm
            .create("Post", vmap! { "user_id" => u.id.raw(), "body" => "hi" })
            .unwrap();
        let posts = orm.related(&u, "posts").unwrap();
        assert_eq!(posts.len(), 1);
        assert_eq!(posts[0].id, p.id);
        let authors = orm.related(&p, "user").unwrap();
        assert_eq!(authors.len(), 1);
        assert_eq!(authors[0].id, u.id);
    }

    #[test]
    fn create_rejects_non_map_attrs() {
        let orm = mongo_orm();
        assert!(orm.create("User", Value::from(3)).is_err());
    }
}

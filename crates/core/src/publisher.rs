//! The publisher: query interception, dependency tracking, the version
//! bump protocol, marshalling, and reliable publication.
//!
//! The publisher is the [`QueryObserver`] a node installs as its ORM's one
//! interceptor ([`Orm::observe`]). Every write passes its `around_write`
//! between the ORM's before- and after-callbacks; for a local write of a
//! published model it (§4.2):
//!
//! 1. computes the operation's dependencies from the delivery mode and the
//!    current causal scope (object write dep; user-session write dep;
//!    controller chain + implicit/explicit read deps; global dep);
//! 2. reserves a bidirectional object, then locks the write dependencies
//!    (all-or-nothing, so concurrent controllers cannot deadlock);
//! 3. executes the underlying query and reads back the written object;
//! 4. commits a bidirectional object's vector stamp, runs the version-store
//!    bump script and collects the dependency versions for the message;
//! 5. marshals the published attributes, taking virtual getters from the
//!    model's one hook table ([`Orm::hooks`]) — the bootstrap copier
//!    marshals chunk rows the same way — and either publishes the message
//!    or appends it to the open transaction buffer ("all writes within a
//!    single transaction are combined into a single message");
//! 6. journals the payload before handing it to the broker — the
//!    2PC-flavoured guarantee that a crash between version bump and
//!    publication can be recovered by [`Publisher::recover`].
//!
//! It also enforces the ownership rules of §3.1: a service cannot create or
//! delete instances of models it merely subscribes to, and cannot update
//! imported attributes (decorations remain writable).

use crate::api::{Publication, PublicationRegistry, Subscription, SubscriptionRegistry};
use crate::config::{backoff, RETRY_ATTEMPTS};
use crate::context::{self, TxBuffer};
use crate::deps::{normalize_dep_sets_with, writer_id, DepInterner, DepName, DepSpace};
use crate::message::{now_micros, Operation, WriteMessage};
use crate::semantics::DeliveryMode;
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use synapse_broker::{Broker, SharedStr};
use synapse_model::{Record, Value};
use synapse_orm::{Orm, OrmError, QueryObserver, WriteExec, WriteIntent, WriteKind};
use synapse_telemetry::{mono_nanos, Stage, Telemetry};
use synapse_versionstore::{
    BumpScratch, DepKey, GenerationStore, ObjectVersion, StoreError, VersionStore, VersionVector,
};

/// All-or-nothing lock manager over effective dependency keys.
///
/// A writer atomically acquires its whole key set or blocks; because there
/// is no hold-and-wait, writers cannot deadlock.
#[derive(Default)]
struct LockManager {
    held: Mutex<HashSet<DepKey>>,
    released: Condvar,
}

impl LockManager {
    /// Acquires every key in `keys`, blocking until all are free.
    fn lock<'a>(&'a self, keys: &'a [DepKey]) -> LockGuard<'a> {
        let mut held = self.held.lock();
        loop {
            if keys.iter().all(|k| !held.contains(k)) {
                for k in keys {
                    held.insert(*k);
                }
                return LockGuard {
                    manager: self,
                    keys,
                };
            }
            self.released.wait(&mut held);
        }
    }
}

/// Guard releasing dependency locks on drop.
struct LockGuard<'a> {
    manager: &'a LockManager,
    keys: &'a [DepKey],
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        let mut held = self.manager.held.lock();
        for k in self.keys {
            held.remove(k);
        }
        drop(held);
        self.manager.released.notify_all();
    }
}

/// Publisher counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PublisherStats {
    /// Messages successfully handed to the broker.
    pub messages_published: u64,
    /// Operations marshalled.
    pub operations: u64,
    /// Generation bumps after a version-store loss.
    pub generation_bumps: u64,
    /// Individual broker publish attempts that failed transiently.
    pub publish_retries: u64,
    /// Publishes abandoned after [`RETRY_ATTEMPTS`] attempts; the payload
    /// stays journaled for [`Publisher::recover`].
    pub publish_failures: u64,
}

/// Per-thread working buffers of the write path. Everything the
/// interception pipeline used to allocate per message — dependency lists,
/// the dedup set, the bump script and its outputs, the lock key set — lives
/// here and is reused across writes on the same thread.
#[derive(Default)]
struct PublishScratch {
    write_deps: Vec<DepName>,
    read_deps: Vec<DepName>,
    seen: HashSet<DepName>,
    script: Vec<(DepKey, bool)>,
    externals: Vec<DepKey>,
    bumped: Vec<DepKey>,
    bump_out: Vec<(DepKey, u64)>,
    bump: BumpScratch,
    lock_keys: Vec<DepKey>,
}

thread_local! {
    /// Moved out with [`take_scratch`] for the duration of one write and
    /// moved back with [`put_scratch`] — a re-entrant write (a virtual
    /// getter or `exec` callback publishing again) simply takes a fresh
    /// default instead of panicking on a held borrow.
    static PUBLISH_SCRATCH: RefCell<Option<PublishScratch>> = const { RefCell::new(None) };
    /// Wire-encode buffer reused across messages before freezing each
    /// payload into a [`SharedStr`].
    static ENCODE_SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

fn take_scratch() -> PublishScratch {
    PUBLISH_SCRATCH
        .with(|s| s.borrow_mut().take())
        .unwrap_or_default()
}

fn put_scratch(scratch: PublishScratch) {
    PUBLISH_SCRATCH.with(|s| *s.borrow_mut() = Some(scratch));
}

/// The publisher runtime for one service. See the module docs.
pub struct Publisher {
    app: String,
    /// `"{app}/"` — precomputed so the external-dependency test is a plain
    /// prefix compare instead of a per-call `format!`.
    app_prefix: String,
    /// The app's global-ordering dependency, built once.
    global_dep: DepName,
    /// This app's writer id in version vectors (multi-writer replication).
    writer: u64,
    /// Per-node dependency-name interner (see [`DepInterner`]).
    interner: DepInterner,
    mode: DeliveryMode,
    dep_space: DepSpace,
    store: Arc<VersionStore>,
    /// The subscriber-side version store: it stamps *external* dependencies
    /// on decorated publications (§4.2) and bidirectional objects' vectors.
    sub_store: Arc<VersionStore>,
    broker: Broker,
    generations: GenerationStore,
    publications: PublicationRegistry,
    subscriptions: SubscriptionRegistry,
    locks: LockManager,
    /// Publish journal: payloads not yet confirmed at the broker, each with
    /// its monotonic origin stamp (so recovery republishes with the
    /// original publish time) and its partition routing key (so a recovery
    /// republish lands in the same partition as the original would have,
    /// keeping per-object partition residency stable across crashes).
    /// Shared with the broker's queues — journaling is a pointer bump, not
    /// a copy.
    journal: Mutex<BTreeMap<u64, (SharedStr, u64, u64)>>,
    journal_seq: AtomicU64,
    /// Failure injection: while set, payloads stay journaled instead of
    /// reaching the broker (a crash between DB commit and publication).
    fail_publish: AtomicBool,
    /// The node's telemetry plane; publisher-side stages (intercept, dep
    /// compute, wire encode, broker enqueue) are recorded under this
    /// publisher's delivery-mode slice.
    telemetry: Arc<Telemetry>,
    messages_published: AtomicU64,
    operations: AtomicU64,
    generation_bumps: AtomicU64,
    publish_retries: AtomicU64,
    publish_failures: AtomicU64,
}

impl Publisher {
    /// Creates a publisher runtime.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        app: String,
        mode: DeliveryMode,
        dep_space: DepSpace,
        store: Arc<VersionStore>,
        sub_store: Arc<VersionStore>,
        broker: Broker,
        generations: GenerationStore,
        publications: PublicationRegistry,
        subscriptions: SubscriptionRegistry,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        Publisher {
            app_prefix: format!("{app}/"),
            global_dep: DepName::global(&app),
            writer: writer_id(&app),
            interner: DepInterner::new(),
            app,
            mode,
            dep_space,
            store,
            sub_store,
            broker,
            generations,
            publications,
            subscriptions,
            locks: LockManager::default(),
            journal: Mutex::new(BTreeMap::new()),
            journal_seq: AtomicU64::new(0),
            fail_publish: AtomicBool::new(false),
            telemetry,
            messages_published: AtomicU64::new(0),
            operations: AtomicU64::new(0),
            generation_bumps: AtomicU64::new(0),
            publish_retries: AtomicU64::new(0),
            publish_failures: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> PublisherStats {
        PublisherStats {
            messages_published: self.messages_published.load(Ordering::Relaxed),
            operations: self.operations.load(Ordering::Relaxed),
            generation_bumps: self.generation_bumps.load(Ordering::Relaxed),
            publish_retries: self.publish_retries.load(Ordering::Relaxed),
            publish_failures: self.publish_failures.load(Ordering::Relaxed),
        }
    }

    /// Failure injection: simulate a crash window where the broker is
    /// unreachable after the local commit. Payloads accumulate in the
    /// journal until [`Publisher::recover`].
    pub fn inject_publish_failure(&self, on: bool) {
        self.fail_publish.store(on, Ordering::SeqCst);
    }

    /// Number of journaled (journalized but unconfirmed) payloads.
    pub fn journal_len(&self) -> usize {
        self.journal.lock().len()
    }

    /// Re-publishes every journaled payload (crash recovery). Payloads the
    /// broker still refuses after [`RETRY_ATTEMPTS`] attempts stay journaled, so
    /// `recover` can be called again later without losing anything.
    pub fn recover(&self) {
        let pending: Vec<(u64, SharedStr, u64, u64)> = {
            let journal = self.journal.lock();
            journal
                .iter()
                .map(|(k, (p, origin, key))| (*k, p.clone(), *origin, *key))
                .collect()
        };
        for (seq, payload, origin, key) in pending {
            if self.send_with_retry(&payload, origin, key) {
                self.messages_published.fetch_add(1, Ordering::Relaxed);
                self.journal.lock().remove(&seq);
            }
        }
    }

    /// Hands one payload to the broker within [`RETRY_ATTEMPTS`]; counts
    /// every transiently failed attempt and the final exhaustion. Returns
    /// whether the broker accepted it.
    fn send_with_retry(&self, payload: &SharedStr, origin_nanos: u64, route_key: u64) -> bool {
        for attempt in 1..=RETRY_ATTEMPTS {
            match self
                .broker
                .publish_routed(&self.app, payload, origin_nanos, route_key)
            {
                Ok(()) => return true,
                Err(_) => {
                    self.publish_retries.fetch_add(1, Ordering::Relaxed);
                    if attempt < RETRY_ATTEMPTS {
                        std::thread::sleep(backoff(attempt));
                    }
                }
            }
        }
        self.publish_failures.fetch_add(1, Ordering::Relaxed);
        false
    }

    fn subscription_for(&self, model: &str) -> Option<Arc<Subscription>> {
        self.subscriptions
            .read()
            .iter()
            .find(|s| s.model == model)
            .cloned()
    }

    fn is_external(&self, dep: &DepName) -> bool {
        !dep.as_str().starts_with(&self.app_prefix)
    }

    /// Enforces §3.1 ownership: subscribers cannot create/delete imported
    /// models nor update imported attributes. Bidirectional subscriptions
    /// opt out — every peer is a writer and concurrent writes are handled
    /// by the conflict-resolution plane instead of prevented here.
    fn check_ownership(&self, intent: &WriteIntent) -> Result<(), OrmError> {
        if context::is_replicating() {
            return Ok(());
        }
        if let Some(sub) = self.subscription_for(intent.model) {
            if sub.bidirectional {
                return Ok(());
            }
            match intent.kind {
                WriteKind::Create | WriteKind::Delete => {
                    return Err(OrmError::Restriction(format!(
                        "{} subscribes to {} from {}; only the owner may {} instances",
                        self.app,
                        intent.model,
                        sub.from,
                        if intent.kind == WriteKind::Create {
                            "create"
                        } else {
                            "delete"
                        },
                    )));
                }
                WriteKind::Update => {
                    let imported = sub.local_fields();
                    for field in intent.changes.keys() {
                        if imported.contains(&field.as_str()) {
                            return Err(OrmError::Restriction(format!(
                                "{} cannot update imported attribute {}.{} (owned by {})",
                                self.app, intent.model, field, sub.from
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Marshals the record's published attributes (§4.1), evaluating
    /// virtual-attribute getters — for a live write and, identically, for a
    /// bootstrap chunk copy.
    pub(crate) fn marshal(&self, orm: &Orm, publication: &Publication, record: &Record) -> Record {
        let mut out = record.project(&[]);
        let hooks = orm.hooks(&record.model);
        for field in &publication.fields {
            let value = match hooks.as_ref().and_then(|h| h.getter(field)) {
                Some(getter) => getter(orm, record),
                None => record.get(field).clone(),
            };
            if !value.is_null() {
                out.attrs.insert(field.clone(), value);
            } else if record.attrs.contains_key(field) {
                out.attrs.insert(field.clone(), Value::Null);
            }
        }
        out
    }

    /// Computes `(write_deps, read_deps)` for an operation under the
    /// publisher's delivery mode (§4.2), into the scratch lists. Scope
    /// names are already interned, so extending the lists clones pointers;
    /// normalization is the linear hash-set pass of
    /// [`crate::normalize_dep_sets`].
    fn compute_deps(&self, intent: &WriteIntent, scratch: &mut PublishScratch) {
        let PublishScratch {
            write_deps,
            read_deps,
            seen,
            ..
        } = scratch;
        write_deps.clear();
        read_deps.clear();
        write_deps.push(self.interner.object(&self.app, intent.model, intent.id));
        match self.mode {
            DeliveryMode::Weak => {}
            DeliveryMode::Global => {
                // One global object serializes all writes.
                write_deps.push(self.global_dep.clone());
            }
            DeliveryMode::Causal => {
                context::scope_mut(|scope| {
                    // (3) user-session serialization: the session's user is
                    // a write dependency of every write.
                    if let Some(user) = &scope.user_dep {
                        write_deps.push(user.clone());
                    }
                    // (2) controller serialization: chain on the previous
                    // update's first write dependency.
                    if let Some(prev) = &scope.last_write_dep {
                        read_deps.push(prev.clone());
                    }
                    // (1-implicit) objects read in this scope.
                    read_deps.extend(scope.read_deps.iter().cloned());
                    read_deps.extend(scope.explicit_read.iter().cloned());
                    write_deps.extend(scope.explicit_write.iter().cloned());
                });
            }
        }
        normalize_dep_sets_with(seen, write_deps, read_deps);
    }

    /// Runs the bump protocol over the scratch dependency lists and
    /// assembles the dependency map. `scratch.bumped` is left holding the
    /// keys whose `ops` counter was incremented (needed to rebase
    /// dependencies of later operations in the same transaction).
    fn bump_versions(
        &self,
        scratch: &mut PublishScratch,
    ) -> Result<BTreeMap<DepKey, u64>, StoreError> {
        scratch.script.clear();
        scratch.externals.clear();
        scratch.bumped.clear();
        for d in &scratch.write_deps {
            scratch.script.push((self.dep_space.key(d), true));
        }
        for d in &scratch.read_deps {
            let key = self.dep_space.key(d);
            if self.is_external(d) {
                // External dependencies are stamped from the subscriber-side
                // store and never incremented (§4.2).
                scratch.externals.push(key);
            } else {
                scratch.script.push((key, false));
            }
        }
        scratch
            .bumped
            .extend(scratch.script.iter().map(|(k, _)| *k));
        self.store
            .publish_bump_into(&scratch.script, &mut scratch.bump, &mut scratch.bump_out)?;
        let mut deps = BTreeMap::new();
        deps.extend(scratch.bump_out.iter().copied());
        for key in &scratch.externals {
            let value = self.sub_store.ops(*key).unwrap_or(0);
            deps.entry(*key).or_insert(value);
        }
        Ok(deps)
    }

    /// Publishes (or buffers) one operation with its dependency map, route
    /// key and, for bidirectional models, the object's stamped vector.
    fn emit(
        &self,
        op: Operation,
        deps: BTreeMap<DepKey, u64>,
        route_key: u64,
        bumped: &[DepKey],
        stamp: Option<(DepKey, VersionVector)>,
    ) {
        self.operations.fetch_add(1, Ordering::Relaxed);
        let dep_count = deps.len() as u64;
        // The operation is moved into whichever sink takes it; the slot
        // hands it through the scope closure without a clone.
        let mut slot = Some(op);
        let mut stamp_slot = stamp;
        let buffered = context::scope_mut(|scope| {
            if let Some(buf) = scope.tx_buffer.as_mut() {
                if buf.operations.is_empty() {
                    buf.route = route_key;
                }
                buf.operations
                    .push(slot.take().expect("operation emitted once"));
                for (k, v) in &deps {
                    // Rebase by the increments earlier buffered operations
                    // already contributed, so the message only waits on
                    // pre-transaction state.
                    let rebased = v.saturating_sub(buf.bumped.get(k).copied().unwrap_or(0));
                    let entry = buf.dependencies.entry(*k).or_insert(rebased);
                    *entry = (*entry).max(rebased);
                }
                for k in bumped {
                    *buf.bumped.entry(*k).or_default() += 1;
                }
                if let Some((key, vector)) = stamp_slot.take() {
                    // Two buffered writes of one object join into the later
                    // vector (set-then-join is the identity on the earlier).
                    buf.vectors.entry(key).or_default().join(&vector);
                }
                true
            } else {
                scope.messages += 1;
                scope.deps_published += dep_count;
                false
            }
        })
        .unwrap_or(false);
        if !buffered {
            let op = slot.take().expect("unbuffered operation retained");
            let vectors = stamp_slot.into_iter().collect();
            self.publish_message(vec![op], deps, vectors, route_key);
        }
    }

    /// Builds, journals, and publishes a message. The monotonic origin
    /// stamp taken here anchors the message's end-to-end visibility
    /// latency; it rides the broker envelope (never the pinned wire
    /// format) and survives in the journal for recovery republishes.
    pub(crate) fn publish_message(
        &self,
        operations: Vec<Operation>,
        deps: BTreeMap<DepKey, u64>,
        vectors: BTreeMap<DepKey, VersionVector>,
        route_key: u64,
    ) {
        let origin_nanos = mono_nanos();
        let mode = self.mode.slice();
        let msg = WriteMessage {
            app: self.app.clone(),
            operations,
            dependencies: deps,
            published_at: now_micros(),
            generation: self.generations.current(),
            vectors,
        };
        // Encode into the thread's scratch buffer, then freeze one
        // right-sized Arc allocation for journal + broker.
        let payload = ENCODE_SCRATCH.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            msg.encode_into(&mut buf);
            SharedStr::from(buf.as_str())
        });
        let encoded_nanos = mono_nanos();
        self.telemetry
            .record_stage(mode, Stage::WireEncode, encoded_nanos - origin_nanos);
        let seq = self.journal_seq.fetch_add(1, Ordering::Relaxed);
        self.journal
            .lock()
            .insert(seq, (payload.clone(), origin_nanos, route_key));
        if self.fail_publish.load(Ordering::SeqCst) {
            // Simulated crash window: the journal retains the payload.
            return;
        }
        // §4.2's 2PC tail: the payload leaves the journal only once the
        // broker confirms it. Exhausted retries leave it journaled — the
        // version bump already happened, so dropping the payload here
        // would silently lose the write (§6.5's root failure mode).
        if self.send_with_retry(&payload, origin_nanos, route_key) {
            self.telemetry.record_stage(
                mode,
                Stage::BrokerEnqueue,
                mono_nanos().saturating_sub(encoded_nanos),
            );
            self.messages_published.fetch_add(1, Ordering::Relaxed);
            self.journal.lock().remove(&seq);
        }
    }

    /// Flushes a transaction buffer as a single combined message.
    pub(crate) fn flush_transaction(&self, buffer: TxBuffer) {
        if buffer.operations.is_empty() {
            return;
        }
        let dep_count = buffer.dependencies.len() as u64;
        context::scope_mut(|scope| {
            scope.messages += 1;
            scope.deps_published += dep_count;
        });
        self.publish_message(
            buffer.operations,
            buffer.dependencies,
            buffer.vectors,
            buffer.route,
        );
    }

    /// Handles a dead publisher version store: bump the generation in the
    /// reliable store, revive empty, and continue (§4.4).
    fn handle_store_death(&self) {
        self.generations.increment();
        self.store.revive();
        self.generation_bumps.fetch_add(1, Ordering::Relaxed);
    }
}

impl QueryObserver for Publisher {
    fn on_read(&self, _orm: &Orm, records: &[Record]) {
        if !context::in_scope() || context::is_replicating() {
            return;
        }
        // Models this service subscribes to belong to their *origin* app
        // (external dependencies, §4.2); everything else is local. One
        // subscription read-lock covers the whole result set.
        let subs = self.subscriptions.read();
        for r in records {
            let from = subs
                .iter()
                .find(|s| s.model == r.model)
                .map(|s| s.from.as_str())
                .unwrap_or(&self.app);
            context::record_read(self.interner.object(from, &r.model, r.id));
        }
    }

    fn around_write(
        &self,
        orm: &Orm,
        intent: &WriteIntent,
        exec: &mut WriteExec<'_>,
    ) -> Result<Record, OrmError> {
        let start = Instant::now();
        self.check_ownership(intent)?;
        let publication = self.publications.read().get(intent.model).cloned();
        let publication = match publication {
            Some(p) => p,
            None => return exec(),
        };
        if context::is_replicating() {
            // Replicated applications of upstream data are never republished
            // (only a service's own writes of its published attributes are).
            return exec();
        }

        let mut scratch = take_scratch();
        let intercept_nanos = start.elapsed().as_nanos() as u64;
        self.compute_deps(intent, &mut scratch);
        scratch.lock_keys.clear();
        scratch
            .lock_keys
            .extend(scratch.write_deps.iter().map(|d| self.dep_space.key(d)));
        scratch.lock_keys.sort_unstable();
        scratch.lock_keys.dedup();
        let pre_nanos = start.elapsed().as_nanos() as u64;
        let mode = self.mode.slice();
        self.telemetry
            .record_stage(mode, Stage::Intercept, intercept_nanos);
        self.telemetry.record_stage(
            mode,
            Stage::DepCompute,
            pre_nanos.saturating_sub(intercept_nanos),
        );

        // A bidirectional write runs an incoming apply's admission script on
        // the mesh name every writer stamps and classifies at, reserving
        // before the dependency locks (DESIGN.md *Admission*).
        let mesh = publication.bidirectional.then(|| {
            let name = crate::deps::mesh_object(intent.model, intent.id);
            let admission = self.sub_store.reserve(name.identity());
            (self.dep_space.key(&name), name.identity(), admission)
        });
        // The guard borrows the key set out of the scratch.
        let lock_keys = std::mem::take(&mut scratch.lock_keys);
        let guard = self.locks.lock(&lock_keys);
        let record = match exec() {
            Ok(r) => r,
            Err(e) => {
                drop(guard);
                scratch.lock_keys = lock_keys;
                put_scratch(scratch);
                return Err(e);
            }
        };

        let post = Instant::now();
        // The stamp: all this node recorded for the object plus one of its
        // own. A dead sub store sends the write out unstamped.
        let stamp = mesh.and_then(|(key, object, admission)| {
            let mut vector = self.sub_store.latest_vector(object).ok()?;
            vector.set(self.writer, vector.get(self.writer) + 1);
            let version = ObjectVersion::Mesh {
                winner: vector.lww_stamp(self.writer),
                vector: vector.clone(),
            };
            admission.commit(&version).ok()?;
            Some((key, vector))
        });
        let deps = match self.bump_versions(&mut scratch) {
            Ok(d) => d,
            Err(StoreError::Dead) => {
                // §4.4: increment the generation and resume with a fresh
                // store; subscribers flush on seeing the new generation.
                self.handle_store_death();
                self.bump_versions(&mut scratch)
                    .expect("revived store accepts the bump")
            }
        };
        let marshalled = self.marshal(orm, &publication, &record);
        let op = Operation::from_record(intent.kind.wire_name(), marshalled);
        // Partition routing key: the object dependency that heads
        // `write_deps`, so all of one object's messages ride one broker
        // partition in publish order (a combined transaction message routes
        // by its first write). Global mode publishes a total order, so
        // spreading it across partitions would only make subscribers hunt
        // for the chain head — it routes on the key-0 legacy lane
        // (partition 0, strict global FIFO) instead.
        let route_key = match self.mode {
            DeliveryMode::Global => 0,
            _ => self.dep_space.key(&scratch.write_deps[0]),
        };
        self.emit(op, deps, route_key, &scratch.bumped, stamp);
        drop(guard);
        scratch.lock_keys = lock_keys;

        // Maintain the in-controller causal chain.
        let first_write = scratch.write_deps.first().cloned();
        put_scratch(scratch);
        context::scope_mut(|scope| {
            scope.last_write_dep = first_write.clone();
            scope.synapse_nanos += pre_nanos + post.elapsed().as_nanos() as u64;
        });
        Ok(record)
    }
}

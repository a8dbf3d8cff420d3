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
//! 4. commits a bidirectional object's LWW stamp, runs the version-store
//!    bump script and collects the dependency versions for the message;
//! 5. encodes the operation's published attributes straight from the
//!    written record into the message text, taking virtual getters from
//!    the model's one hook table ([`Orm::hooks`]) — the bootstrap copier
//!    encodes chunk rows the same way — and either publishes the message
//!    or appends the encoded operation to the open transaction buffer
//!    ("all writes within a single transaction are combined into a single
//!    message");
//! 6. hands the payload to the broker and journals it only if the broker
//!    refuses it through every retry — the 2PC-flavoured guarantee that a
//!    publication lost after its version bump can be recovered by
//!    [`Publisher::recover`].
//!
//! It also enforces the ownership rules of §3.1: a service cannot create or
//! delete instances of models it merely subscribes to, and cannot update
//! imported attributes (decorations remain writable).

use crate::api::{Publication, PublicationRegistry, Subscription, SubscriptionRegistry};
use crate::config::{backoff, RETRY_ATTEMPTS};
use crate::context::{self, TxBuffer};
use crate::deps::{mesh_object, normalize_dep_sets_with, writer_id, DepName, DepSpace};
use crate::message::{encode_message, encode_operation, now_micros};
use crate::semantics::DeliveryMode;
use parking_lot::{Condvar, Mutex};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use synapse_broker::{Broker, SharedStr};
use synapse_model::Record;
use synapse_orm::{Orm, OrmError, QueryObserver, WriteExec, WriteIntent, WriteKind};
use synapse_telemetry::{mono_nanos, Stage, Telemetry};
use synapse_versionstore::{
    BumpScratch, DepKey, GenerationStore, ObjectVersion, Stamp, StoreError, VersionStore,
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
    /// is journaled for [`Publisher::recover`].
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
    /// The message's dependency map, one entry per key.
    deps: Vec<(DepKey, u64)>,
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
    /// The app's global-ordering dependency, built once.
    global_dep: DepName,
    /// This app's writer id in LWW stamps (multi-writer replication), and
    /// the namespace hash of its own dependency names.
    writer: u64,
    mode: DeliveryMode,
    dep_space: DepSpace,
    store: Arc<VersionStore>,
    /// The subscriber-side version store: it stamps *external* dependencies
    /// on decorated publications (§4.2) and bidirectional objects' LWW
    /// stamps.
    sub_store: Arc<VersionStore>,
    broker: Broker,
    generations: GenerationStore,
    publications: PublicationRegistry,
    subscriptions: SubscriptionRegistry,
    locks: LockManager,
    /// Publish journal: payloads the broker refused, awaiting
    /// [`Publisher::recover`] in publish order, each with its monotonic
    /// origin stamp (so recovery republishes with the original publish
    /// time) and its partition routing key (so a recovery republish lands
    /// in the same partition as the original would have, keeping
    /// per-object partition residency stable across crashes).
    journal: Mutex<BTreeMap<u64, (SharedStr, u64, u64)>>,
    journal_seq: AtomicU64,
    /// Failure injection: while set, payloads are journaled instead of
    /// reaching the broker (a crash between DB commit and publication).
    #[cfg(any(test, feature = "testing"))]
    fail_publish: std::sync::atomic::AtomicBool,
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
        store.enter_generation(generations.current());
        sub_store.enter_generation(generations.current());
        Publisher {
            global_dep: DepName::global(&app),
            writer: writer_id(&app),
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
            #[cfg(any(test, feature = "testing"))]
            fail_publish: std::sync::atomic::AtomicBool::new(false),
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
    #[cfg(any(test, feature = "testing"))]
    pub fn inject_publish_failure(&self, on: bool) {
        self.fail_publish.store(on, Ordering::SeqCst);
    }

    /// Number of journaled payloads: refused by the broker, awaiting
    /// [`Publisher::recover`].
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
        dep.namespace != Some(self.writer)
    }

    /// Enforces §3.1 ownership: subscribers cannot create/delete imported
    /// models nor update imported attributes. Bidirectional subscriptions
    /// opt out — every peer is a writer and concurrent writes settle
    /// last-writer-wins instead of being prevented here.
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
                    for field in intent.changes.borrow().keys() {
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

    /// Computes `(write_deps, read_deps)` for an operation under the
    /// publisher's delivery mode (§4.2), into the scratch lists. The first
    /// write dependency is the message's route key: the written object,
    /// or in global mode the app's one global dependency. Normalization is
    /// the linear hash-set pass of [`crate::normalize_dep_sets`].
    fn compute_deps(&self, intent: &WriteIntent, scratch: &mut PublishScratch) {
        let PublishScratch {
            write_deps,
            read_deps,
            seen,
            ..
        } = scratch;
        write_deps.clear();
        read_deps.clear();
        let object = DepName::object(&self.app, intent.model, intent.id);
        match self.mode {
            DeliveryMode::Weak => write_deps.push(object),
            // One global object serializes all writes; heading the list, it
            // routes them all to one partition in publish order.
            DeliveryMode::Global => write_deps.extend([self.global_dep, object]),
            DeliveryMode::Causal => {
                write_deps.push(object);
                context::scope_mut(|scope| {
                    // (3) user-session serialization: the session's user is
                    // a write dependency of every write.
                    write_deps.extend(scope.user_dep);
                    // (2) controller serialization: chain on the previous
                    // update's first write dependency.
                    read_deps.extend(scope.last_write_dep);
                    // (1-implicit) objects read in this scope.
                    read_deps.extend(&scope.read_deps);
                    read_deps.extend(&scope.explicit_read);
                    write_deps.extend(&scope.explicit_write);
                });
            }
        }
        normalize_dep_sets_with(seen, write_deps, read_deps);
    }

    /// Runs the bump protocol over the scratch dependency lists and
    /// assembles the dependency map in `scratch.deps`. `scratch.bumped` is
    /// left holding the keys whose `ops` counter was incremented (needed to
    /// rebase dependencies of later operations in the same transaction).
    fn bump_versions(&self, scratch: &mut PublishScratch) -> Result<(), StoreError> {
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
        // Two names may share a key: the stable sort keeps each key's
        // first entry, so the bump's last value for it wins, then the
        // first external stamp.
        scratch.deps.clear();
        scratch.deps.extend(scratch.bump_out.iter().rev().copied());
        for key in &scratch.externals {
            let stamp = self.sub_store.ops(*key).unwrap_or(0);
            scratch.deps.push((*key, stamp));
        }
        scratch.deps.sort_by_key(|(key, _)| *key);
        scratch.deps.dedup_by_key(|(key, _)| *key);
        Ok(())
    }

    /// Publishes (or buffers) one operation with its dependency map, route
    /// key and, for bidirectional models, the object's LWW stamp.
    /// `encode_op` writes the operation; `began` is the clock read that
    /// starts its encode. Returns the clock read that ends the publish.
    fn emit(
        &self,
        encode_op: impl Fn(&mut String),
        deps: &mut [(DepKey, u64)],
        bumped: &[DepKey],
        route_key: u64,
        stamp: Option<(DepKey, Stamp)>,
        began: u64,
    ) -> u64 {
        self.operations.fetch_add(1, Ordering::Relaxed);
        let dep_count = deps.len() as u64;
        // A transaction's operation is encoded on its own, before the scope
        // is borrowed: a virtual getter runs inside the encode and may
        // publish too.
        let in_tx = context::scope_mut(|scope| scope.tx_buffer.is_some()).unwrap_or(false);
        let (mut fragment, mut encoded) = (String::new(), began);
        if in_tx {
            fragment.reserve(128);
            encode_op(&mut fragment);
            encoded = mono_nanos();
        }
        let mut stamp_slot = stamp;
        let buffered = context::scope_mut(|scope| match scope.tx_buffer.as_mut() {
            Some(buf) if in_tx => {
                if buf.operations.is_empty() {
                    buf.route = route_key;
                } else {
                    buf.operations.push(',');
                }
                buf.operations.push_str(&fragment);
                buf.encode_nanos += encoded - began;
                for (k, v) in deps.iter() {
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
                if let Some((key, stamp)) = stamp_slot.take() {
                    // Two buffered writes of one object keep the later,
                    // greater stamp.
                    let kept = buf.stamps.entry(key).or_insert(stamp);
                    *kept = (*kept).max(stamp);
                }
                true
            }
            _ => {
                scope.messages += 1;
                scope.deps_published += dep_count;
                false
            }
        })
        .unwrap_or(false);
        if buffered {
            return encoded;
        }
        // Outside a transaction — or one a getter closed meanwhile, whose
        // operation then goes out alone.
        let stamps = stamp_slot.into_iter().collect();
        let write_op = |out: &mut String| {
            if in_tx {
                out.push_str(&fragment);
            } else {
                encode_op(out);
            }
        };
        self.publish_message(deps, &stamps, write_op, route_key, began, encoded - began)
    }

    /// Encodes and publishes a message, journaling it if the broker
    /// refuses it. `began`, the clock read
    /// that starts its encode, is the monotonic origin stamp that anchors
    /// its visibility latency; it rides the broker envelope and the journal,
    /// never the wire format. `encoded_before` is encode time a
    /// transaction's operations took. Returns the clock read that ends it.
    fn publish_message(
        &self,
        deps: &mut [(DepKey, u64)],
        stamps: &BTreeMap<DepKey, Stamp>,
        operations: impl FnOnce(&mut String),
        route_key: u64,
        began: u64,
        encoded_before: u64,
    ) -> u64 {
        // The thread's buffer is taken out rather than borrowed, since
        // `operations` may run a virtual getter that publishes too. One
        // right-sized Arc allocation is frozen from it for the broker.
        let mut buf = ENCODE_SCRATCH.take();
        buf.clear();
        let (app, generation) = (&self.app, self.generations.current());
        encode_message(
            &mut buf,
            app,
            deps,
            generation,
            operations,
            now_micros(),
            stamps,
        );
        let payload = SharedStr::from(buf.as_str());
        ENCODE_SCRATCH.set(buf);
        let encoded = mono_nanos();
        // §4.2's 2PC tail: a payload the broker refuses through every retry
        // is journaled — the version bump already happened, so dropping it
        // here would silently lose the write (§6.5's root failure mode).
        // While publish failure is injected (a crash window, test builds),
        // the journal alone receives it. Writes of one object outside a
        // transaction hold its dependency lock through here, so they
        // journal in publish order.
        #[cfg(not(any(test, feature = "testing")))]
        let sent = self.send_with_retry(&payload, began, route_key);
        #[cfg(any(test, feature = "testing"))]
        let sent = !self.fail_publish.load(Ordering::SeqCst)
            && self.send_with_retry(&payload, began, route_key);
        if sent {
            self.messages_published.fetch_add(1, Ordering::Relaxed);
        } else {
            let seq = self.journal_seq.fetch_add(1, Ordering::Relaxed);
            self.journal.lock().insert(seq, (payload, began, route_key));
        }
        let end = mono_nanos();
        let mode = self.mode.slice();
        let encode = encoded_before + (encoded - began);
        self.telemetry.record_stage(mode, Stage::WireEncode, encode);
        if sent {
            self.telemetry
                .record_stage(mode, Stage::BrokerEnqueue, end - encoded);
        }
        end
    }

    /// Flushes a transaction buffer as a single combined message.
    pub(crate) fn flush_transaction(&self, buffer: TxBuffer) {
        if buffer.operations.is_empty() {
            return;
        }
        let began = mono_nanos();
        let dep_count = buffer.dependencies.len() as u64;
        context::scope_mut(|scope| {
            scope.messages += 1;
            scope.deps_published += dep_count;
        });
        let mut deps: Vec<(DepKey, u64)> = buffer.dependencies.into_iter().collect();
        self.publish_message(
            &mut deps,
            &buffer.stamps,
            |out| out.push_str(&buffer.operations),
            buffer.route,
            began,
            buffer.encode_nanos,
        );
    }

    /// Handles a dead publisher version store: bump the generation in the
    /// reliable store and revive (§4.4); what the store still holds reads
    /// as absent from here on.
    fn handle_store_death(&self) {
        if self.generations.increment().is_err() {
            let errors = self
                .telemetry
                .counters()
                .counter("recovery.generation_write_errors");
            errors.bump();
        }
        self.store.enter_generation(self.generations.current());
        self.sub_store.enter_generation(self.generations.current());
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
            context::record_read(DepName::object(from, &r.model, r.id));
        }
    }

    fn around_write(
        &self,
        orm: &Orm,
        intent: &WriteIntent,
        exec: &mut WriteExec<'_>,
    ) -> Result<Record, OrmError> {
        // Each stage boundary is one clock read, which also starts the next
        // stage: intercept | dep_compute (deps, then after `exec` the stamp
        // and bump) | wire_encode | broker_enqueue. Their sum is the
        // publisher's time, the scope's `synapse_nanos`; the reservation,
        // the lock wait and `exec` fall outside it.
        let start = mono_nanos();
        self.check_ownership(intent)?;
        let publication = self.publications.read().get(intent.model).cloned();
        let publication = match publication {
            Some(p) => p,
            None => return exec(),
        };
        if context::is_replicating() {
            // Replicated applications of upstream data are never republished
            // (only a service's own writes of its published attributes are).
            // A multi-writer apply whose before-callback re-entered and
            // committed a greater stamp on the object skips its row write:
            // under LWW that stamp has already won, and its row stays.
            if context::mesh_apply_superseded(|| mesh_object(intent.model, intent.id).identity()) {
                return orm.find(intent.model, intent.id)?.ok_or_else(|| {
                    OrmError::RecordNotFound {
                        model: intent.model.to_owned(),
                        id: intent.id.to_string(),
                    }
                });
            }
            return exec();
        }

        let mut scratch = take_scratch();
        let intercepted = mono_nanos();
        self.compute_deps(intent, &mut scratch);
        scratch.lock_keys.clear();
        scratch
            .lock_keys
            .extend(scratch.write_deps.iter().map(|d| self.dep_space.key(d)));
        scratch.lock_keys.sort_unstable();
        scratch.lock_keys.dedup();
        let computed = mono_nanos();

        // A bidirectional write runs an incoming apply's admission script on
        // the mesh name every writer stamps and classifies at, reserving
        // before the dependency locks (DESIGN.md *Admission*).
        let mesh = publication.bidirectional.then(|| {
            let name = mesh_object(intent.model, intent.id);
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

        let executed = mono_nanos();
        // The stamp: one past the node's clock, under its own writer id. A
        // dead sub store sends the write out unstamped.
        let stamp = mesh.and_then(|(key, object, admission)| {
            let stamp = self.sub_store.next_stamp(self.writer);
            admission.commit(&ObjectVersion::Mesh(stamp)).ok()?;
            context::mesh_committed(object, stamp);
            Some((key, stamp))
        });
        if let Err(StoreError::Dead) = self.bump_versions(&mut scratch) {
            // §4.4: increment the generation and resume; every key then
            // restarts at count 0 of the new generation, here and at each
            // subscriber.
            self.handle_store_death();
            self.bump_versions(&mut scratch)
                .expect("revived store accepts the bump");
        }
        // Partition routing key: the dependency that heads `write_deps`, so
        // all of one object's messages ride one broker partition in publish
        // order (a combined transaction message routes by its first
        // write). In global mode that is the app's global dependency, so
        // the whole total order rides one partition.
        let route_key = self.dep_space.key(&scratch.write_deps[0]);
        let bumped = mono_nanos();
        let encode_op = |out: &mut String| {
            encode_published(out, orm, &publication, intent.kind.wire_name(), &record);
        };
        let (deps, keys) = (&mut scratch.deps, &scratch.bumped);
        let end = self.emit(encode_op, deps, keys, route_key, stamp, bumped);
        drop(guard);
        scratch.lock_keys = lock_keys;
        let mode = self.mode.slice();
        self.telemetry
            .record_stage(mode, Stage::Intercept, intercepted - start);
        let dep_compute = (computed - intercepted) + (bumped - executed);
        self.telemetry
            .record_stage(mode, Stage::DepCompute, dep_compute);

        // Maintain the in-controller causal chain (read in causal mode
        // only, where the first write dependency is the written object).
        let first_write = scratch.write_deps.first().copied();
        put_scratch(scratch);
        context::scope_mut(|scope| {
            scope.last_write_dep = first_write;
            scope.synapse_nanos += (computed - start) + (end - executed);
        });
        Ok(record)
    }
}

/// Encodes `record` as one `operation` of the wire format with its
/// publication's attributes (§4.1), straight from the record: each
/// published field in the publication's sorted order, a virtual getter's
/// value where the model has one, an explicit null kept, an absent field
/// left out — for a live write and, identically, for a bootstrap copy.
pub(crate) fn encode_published(
    out: &mut String,
    orm: &Orm,
    publication: &Publication,
    operation: &str,
    record: &Record,
) {
    let hooks = orm.hooks(&record.model);
    let attributes = publication.fields.iter().filter_map(|field| {
        let value = match hooks.as_ref().and_then(|h| h.getter(field)) {
            Some(getter) => Cow::Owned(getter(orm, record)),
            None => Cow::Borrowed(record.get(field)),
        };
        (!value.is_null() || record.attrs.contains_key(field)).then_some((field, value))
    });
    encode_operation(out, operation, &record.types, record.id, attributes);
}

#[cfg(test)]
mod tests;

#[cfg(test)]
impl Publisher {
    /// The marshalled record the publish path once built (§4.1) — the
    /// oracle [`encode_published`]'s bytes are checked against. It takes
    /// the publication's fields as given, repeats and order included.
    pub(crate) fn marshal(orm: &Orm, publication: &Publication, record: &Record) -> Record {
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
                out.attrs.insert(field.clone(), synapse_model::Value::Null);
            }
        }
        out
    }
}

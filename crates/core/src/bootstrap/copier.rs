//! The copier: [`SynapseNode::bootstrap_from`] and the chunk loop under
//! it, with the attempt's retry, resume and lineage rules.

use super::marker::{watermark_payload, BOOTSTRAP_EXCHANGE, WATERMARK_EXCHANGE};
use super::{BootstrapState, BootstrapStats};
use crate::api::Publication;
use crate::config::{backoff, BOOTSTRAP_CHUNK_ROWS, RETRY_ATTEMPTS};
use crate::deps::{mesh_object, DepName};
use crate::message::{Operation, WriteMessage};
use crate::node::SynapseNode;
use crate::subscriber::{ProcessError, SubscriberStats};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_broker::{Delivery, SharedStr};
use synapse_db::DbError;
use synapse_model::{Id, Record};
use synapse_orm::OrmError;
use synapse_telemetry::mono_nanos;
use synapse_versionstore::{DepKey, VersionVector};

/// How long [`SynapseNode::bootstrap_from`]'s finalize step waits for the
/// subscriber to account for the merged chunk copies before going Live
/// anyway. This bounds only the *caller's* blocking time — workers keep
/// draining live traffic throughout — and on expiry the node still goes
/// Live safely: the copies are durably enqueued and version-store
/// admission makes their late application a no-op or an upsert, never a
/// regression.
const FINALIZE_SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the bootstrap copier waits for every queue partition to
/// consume a chunk's high watermark before proceeding without the
/// reconciliation pre-filter. Correctness never depends on the wait
/// (per-row version admission discards the same stale copies), so this
/// bounds latency, not safety.
const BOOTSTRAP_WINDOW_TIMEOUT: Duration = Duration::from_millis(500);

/// Outcome of one committed chunk copy.
struct ChunkCopy {
    /// Last id selected (the new watermark, already committed).
    last: u64,
    /// Copies merged into the delivery queue (zero on the sync path).
    merged: u64,
}

/// RAII guard around one bootstrap attempt: sets the ORM bootstrap flag on
/// entry and clears it on *every* exit path — the `?` early-returns in
/// steps 1–2 used to leak the flag and permanently wedge the node in
/// bootstrap mode. A drop without [`BootstrapGuard::complete`] also walks
/// the state machine back to Idle, so a failed attempt leaves the node
/// writable and re-enterable.
struct BootstrapGuard<'a> {
    node: &'a SynapseNode,
    completed: bool,
}

impl<'a> BootstrapGuard<'a> {
    fn new(node: &'a SynapseNode) -> Self {
        node.orm.set_bootstrap(true);
        BootstrapGuard {
            node,
            completed: false,
        }
    }

    /// Marks the attempt successful: the flag still clears on drop, but
    /// the state machine is left to the caller (which moves it to Live).
    fn complete(mut self) {
        self.completed = true;
    }
}

impl Drop for BootstrapGuard<'_> {
    fn drop(&mut self) {
        self.node.orm.set_bootstrap(false);
        if !self.completed {
            self.node.bootstrap.transition(BootstrapState::Idle);
        }
    }
}

impl SynapseNode {
    /// Bootstrap state-machine phase and counters.
    pub fn bootstrap_stats(&self) -> BootstrapStats {
        BootstrapStats {
            phase: self.bootstrap.state.read().phase(),
            attempts: self.bootstrap.attempts.load(Ordering::Relaxed),
            completions: self.bootstrap.completions.load(Ordering::Relaxed),
            retries: self.bootstrap.retries.load(Ordering::Relaxed),
            resumes: self.bootstrap.resumes.load(Ordering::Relaxed),
            chunks_copied: self.bootstrap.chunks_copied.load(Ordering::Relaxed),
            records_copied: self.bootstrap.records_copied.load(Ordering::Relaxed),
            // Reconciliation happens in two places: the copier's
            // watermark-window pre-filter (tallied here) and version-store
            // admission in the subscriber's copy path (tallied there);
            // fold both in so the stat means "copies the live stream won".
            records_reconciled: self
                .bootstrap
                .records_reconciled
                .load(Ordering::Relaxed)
                .saturating_add(self.subscriber.stats().copies_reconciled),
            copies_merged: self.bootstrap.copies_merged.load(Ordering::Relaxed),
            windows_timed_out: self.subscriber.watermark_gate().windows_timed_out(),
            cleanup_deferred: self.bootstrap.cleanup_deferred.load(Ordering::Relaxed),
        }
    }

    /// Installs a probe called on every bootstrap state transition — the
    /// fault plane's bootstrap-phase hook: a test can kill a shard or
    /// restart the broker exactly when the copier enters a given chunk.
    pub fn set_bootstrap_probe(&self, probe: impl Fn(&BootstrapState) + Send + Sync + 'static) {
        *self.bootstrap.probe.write() = Some(Box::new(probe));
    }

    /// Removes the bootstrap transition probe.
    pub fn clear_bootstrap_probe(&self) {
        *self.bootstrap.probe.write() = None;
    }

    /// Arms the copy-failure fault hook: the next `n` chunk copies fail
    /// with a transient error before doing any work, exercising the
    /// copier's retry/resume path exactly as a flaky engine or store
    /// would (the chunk-level analogue of
    /// `Broker::inject_publish_failures`).
    pub fn inject_copy_failures(&self, n: u64) {
        self.bootstrap.copy_fail_next.fetch_add(n, Ordering::SeqCst);
    }

    /// Sets the bootstrap flag *before* starting the workers, then runs the
    /// three-step bootstrap — the ordering a fresh subscriber needs so that
    /// no backlog message is processed outside bootstrap mode (Fig. 2's
    /// `Synapse.bootstrap?` contract).
    pub fn start_and_bootstrap_from(&self, publisher: &SynapseNode) -> Result<(), OrmError> {
        self.orm.set_bootstrap(true);
        self.start();
        self.bootstrap_from(publisher)
    }

    /// Pause-free bootstrap from a publisher node (§4.4), rebuilt as
    /// DBLog-style watermark interleaving: each chunk is selected between
    /// a lo and a hi watermark marker injected into the live stream, rows
    /// the live stream touched inside that window are discarded in favor
    /// of the live messages, and the surviving copies are merged into the
    /// partitioned delivery queue behind the live traffic. There is no
    /// drain phase — delivery never pauses. Also used for *partial*
    /// bootstrap after a decommission or subscriber version-store loss —
    /// the queue is reinstated and the store revived first.
    ///
    /// Workers should already be running (or use
    /// [`SynapseNode::start_and_bootstrap_from`]). On a node without
    /// workers nothing would consume the queue, so the copier publishes no
    /// markers, opens no reconciliation window and merges nothing
    /// (`copies_merged` stays 0): it hands each copy message to
    /// [`Subscriber::process`](crate::subscriber::Subscriber::process)
    /// itself, under the same version-store admission and chunk
    /// watermarks; live messages queued meanwhile apply once workers start.
    ///
    /// Fault posture:
    /// - The ORM bootstrap flag is held by an RAII guard, so every exit
    ///   path — including transient-fault exhaustion mid-copy — leaves the
    ///   node writable.
    /// - Step 2 copies in chunks of [`BOOTSTRAP_CHUNK_ROWS`] records,
    ///   committing a per-model watermark (last copied id) to the
    ///   subscriber version store after each chunk. A transient engine or
    ///   store fault retries the *chunk*, up to [`RETRY_ATTEMPTS`] times,
    ///   instead of aborting the bootstrap; if the attempt still fails, the
    ///   watermarks survive and the next `bootstrap_from` resumes after
    ///   the last committed chunk — but only while the queue's discard
    ///   lineage shows the live stream stayed gap-free in between.
    /// - Concurrent writes are reconciled twice: the watermark window
    ///   pre-filters rows the live stream touched mid-chunk, and
    ///   version-store admission ([`synapse_versionstore::AdmitRule::Copy`]) refuses any copy
    ///   whose marker does not strictly beat the locally committed
    ///   version — including destroy tombstones, so a row deleted
    ///   mid-chunk cannot be resurrected by its in-flight copy.
    pub fn bootstrap_from(&self, publisher: &SynapseNode) -> Result<(), OrmError> {
        let guard = BootstrapGuard::new(self);
        // The attempt counter doubles as the watermark session id: markers
        // from an abandoned attempt carry a stale session and are ignored
        // by the gate.
        let session = self.bootstrap.attempts.fetch_add(1, Ordering::Relaxed) + 1;
        let reinstated = if self.is_decommissioned() {
            self.broker.reinstate_queue(self.app())
        } else {
            false
        };
        if self.sub_store.is_dead() {
            self.sub_store.revive();
        }
        // Committed copy watermarks are resume state, but only while the
        // live stream stayed gap-free since they were written: every
        // copied chunk relies on later live messages to carry the writes
        // it raced with. Any movement in the queue's cumulative loss
        // counters since the last attempt — a decommission sweeping the
        // backlog, injected drops — breaks that marker lineage and forces
        // the copy to restart. Refused publishes do NOT break lineage:
        // they stay in the publisher's journal and are republished. A
        // reinstate with no recorded floor (fresh process) is
        // conservatively treated as broken; a reinstate whose
        // decommission swept nothing keeps its watermarks.
        let lineage_now = self.lineage_signal();
        let lineage_broken = {
            let mut floor = self.bootstrap.lineage.lock();
            let broken = match (floor.as_ref(), lineage_now.as_ref()) {
                (Some(prev), Some(now)) => prev != now,
                _ => reinstated,
            };
            *floor = lineage_now;
            broken
        };
        if lineage_broken || self.bootstrap.watermarks_dirty.load(Ordering::SeqCst) {
            self.clear_bootstrap_watermarks(publisher)?;
            self.bootstrap
                .watermarks_dirty
                .store(false, Ordering::SeqCst);
        }

        // Step 1: bulk-load the publisher's current dependency counters.
        // Its store holds nothing else: admission state and watermarks
        // live in subscriber stores.
        self.bootstrap.transition(BootstrapState::Snapshot);
        let snapshot = self.retry_transient(|| {
            publisher
                .pub_store
                .dump()
                .map_err(|_| OrmError::Db(DbError::Unavailable))
        })?;
        self.retry_transient(|| {
            self.sub_store
                .load_dump(&snapshot)
                .map_err(|_| OrmError::Db(DbError::Unavailable))
        })?;

        // Step 2: watermark-interleaved chunked copy of all currently
        // published objects. The subscription/publication locks are held
        // only long enough to collect the matching pairs — not across the
        // paged reads and marshalling.
        let pairs: Vec<(String, Arc<Publication>)> = {
            let subs = self.subscriptions.read();
            let pubs = publisher.publications.read();
            subs.iter()
                .filter(|s| s.from == publisher.app())
                .filter_map(|s| pubs.get(&s.model).map(|p| (s.model.clone(), p.clone())))
                .collect()
        };
        let workers_live = self.subscriber.workers_running();
        let gate = self.subscriber.watermark_gate().clone();
        let sub_baseline = self.subscriber.stats();
        if workers_live {
            gate.activate();
        }
        let copied = self.copy_models(publisher, &pairs, session, workers_live);
        if workers_live {
            gate.deactivate();
        }
        let merged = copied?;

        // Finalize: there is no drain pause. The merged copies ride the
        // partitioned queue behind live traffic; wait (bounded, without
        // stopping the workers) until the subscriber has accounted for
        // them, so a caller returning from bootstrap sees the copied rows.
        self.bootstrap.transition(BootstrapState::Finalizing);
        if merged > 0 {
            self.await_copy_convergence(merged, &sub_baseline);
        }
        // Watermarks are resume state for *failed* attempts only: a future
        // bootstrap must re-copy from the start (rows copied this time may
        // change again before then). A cleanup failure here must not fail
        // an otherwise-complete bootstrap — defer it: mark the watermarks
        // dirty so the next attempt clears them before trusting any
        // resume state, and go Live.
        if self.clear_bootstrap_watermarks(publisher).is_err() {
            self.bootstrap
                .cleanup_deferred
                .fetch_add(1, Ordering::Relaxed);
            self.bootstrap
                .watermarks_dirty
                .store(true, Ordering::SeqCst);
            self.telemetry
                .counters()
                .counter("bootstrap.cleanup_deferred")
                .bump();
        }
        *self.bootstrap.lineage.lock() = self.lineage_signal();
        guard.complete();
        self.bootstrap.transition(BootstrapState::Live);
        self.bootstrap.completions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Step 2 driver: copies every non-ephemeral pair in
    /// watermark-interleaved chunks, resuming each model from any
    /// surviving watermark. Returns how many copies were merged into the
    /// delivery queue (zero on a node without workers).
    fn copy_models(
        &self,
        publisher: &SynapseNode,
        pairs: &[(String, Arc<Publication>)],
        session: u64,
        workers_live: bool,
    ) -> Result<u64, OrmError> {
        let mut merged = 0u64;
        // Gate windows are numbered across models so every (session,
        // window) pair in this attempt is unique.
        let mut window = 0u64;
        for (model, publication) in pairs {
            if publication.ephemeral {
                continue;
            }
            let watermark = DepName::bootstrap_watermark(publisher.app(), model).identity();
            let mut after = self.retry_transient(|| {
                self.sub_store
                    .watermark(watermark)
                    .map_err(|_| OrmError::Db(DbError::Unavailable))
            })?;
            if after > 0 {
                self.bootstrap.resumes.fetch_add(1, Ordering::Relaxed);
            }
            let mut chunk = 0u64;
            loop {
                self.bootstrap.transition(BootstrapState::Copying {
                    model: model.clone(),
                    chunk,
                });
                let copied = self.retry_transient(|| {
                    self.copy_chunk(
                        publisher,
                        model,
                        publication,
                        watermark,
                        after,
                        session,
                        window,
                        chunk,
                        workers_live,
                    )
                })?;
                window += 1;
                match copied {
                    Some(outcome) => {
                        after = outcome.last;
                        merged += outcome.merged;
                        chunk += 1;
                        self.bootstrap.chunks_copied.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        Ok(merged)
    }

    /// Bounded, delivery-neutral wait for the subscriber to account for
    /// `merged` chunk copies enqueued this attempt — applied, reconciled
    /// away, or dead-lettered — measured as counter deltas against
    /// `baseline`. Only the bootstrap caller blocks; the workers keep
    /// draining live traffic the whole time. On deadline the node still
    /// goes Live: the copies are durably enqueued and version-store
    /// admission makes late application safe at any point.
    fn await_copy_convergence(&self, merged: u64, baseline: &SubscriberStats) {
        let deadline = Instant::now() + FINALIZE_SETTLE_TIMEOUT;
        let mut pause = Duration::from_micros(50);
        loop {
            let now = self.subscriber.stats();
            let accounted = now
                .copies_applied
                .saturating_sub(baseline.copies_applied)
                .saturating_add(
                    now.copies_reconciled
                        .saturating_sub(baseline.copies_reconciled),
                )
                .saturating_add(now.dead_lettered.saturating_sub(baseline.dead_lettered));
            if accounted >= merged {
                return;
            }
            if Instant::now() >= deadline {
                self.telemetry
                    .counters()
                    .counter("bootstrap.finalize_timeouts")
                    .bump();
                return;
            }
            std::thread::sleep(pause);
            pause = (pause * 2).min(Duration::from_millis(5));
        }
    }

    /// Copies the next chunk of `model` after id `after`, interleaved with
    /// the live stream under a DBLog-style watermark window. Returns the
    /// committed [`ChunkCopy`], or `None` when the table is exhausted.
    ///
    /// The sequence per chunk: open a gate window and inject the lo
    /// marker into every partition of the live queue, select the chunk,
    /// inject the hi marker, wait (bounded) for the window, then drop
    /// every selected row the live stream wrote to inside the window —
    /// those rows' current state is already in flight as live messages.
    /// Survivors are encoded as real [`WriteMessage`]s and merged into the
    /// partitioned queue, key-routed so each copy lands in the same
    /// partition (and therefore behind) the live traffic for its object.
    ///
    /// Each record's publisher-side ops count is captured *before* the row
    /// is re-read for marshalling, and the carried marker is `ops - 1` —
    /// the same write-dependency convention live messages use. The marker
    /// is therefore never newer than the copied data: a concurrent write
    /// lands with a strictly higher version and overwrites the copy, while
    /// a copy racing behind the live stream loses version-store admission
    /// (ties included — see [`synapse_versionstore::AdmitRule::Copy`]) and is
    /// discarded. Capturing the marker after reading the row would allow
    /// the fatal inverse: stale data carrying a marker that beats a newer
    /// live write, regressing the replica permanently.
    #[allow(clippy::too_many_arguments)]
    fn copy_chunk(
        &self,
        publisher: &SynapseNode,
        model: &str,
        publication: &Publication,
        watermark: u64,
        after: u64,
        session: u64,
        window: u64,
        chunk: u64,
        workers_live: bool,
    ) -> Result<Option<ChunkCopy>, OrmError> {
        // Armed copy-failure hook: fail before any work, as a flaky
        // engine mid-chunk would.
        if self
            .bootstrap
            .copy_fail_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(OrmError::Db(DbError::Unavailable));
        }
        // A partially-dead subscriber store can neither admit this chunk's
        // copies nor keep a trustworthy resume watermark (§4.2: a partial
        // store has no complete dependency picture), so fail the chunk
        // transiently — the retry budget absorbs a racing revive, and a
        // failed attempt's re-entry revives the store itself.
        if self.sub_store.is_dead() {
            return Err(OrmError::Db(DbError::Unavailable));
        }
        let gate = self.subscriber.watermark_gate();
        // Interleave only while workers consume the queue: markers and
        // merged copies ride the delivery plane, and with no workers
        // nothing would ever drain them. The gate window must exist
        // *before* the lo marker is published, or a fast worker would
        // observe the marker against a stale window and drop it.
        let partitions = self.broker.queue_partitions(self.app()).unwrap_or(1);
        let mut interleave = false;
        if workers_live {
            gate.begin_chunk(session, window, partitions);
            interleave = self.publish_markers(partitions, session, window, false);
        }
        let page = publisher
            .orm
            .all_after(model, Id(after), BOOTSTRAP_CHUNK_ROWS)?;
        let last = match page.last() {
            Some(record) => record.id.raw(),
            None => {
                if interleave {
                    // Close the empty window and wait it out like any
                    // other: the copier awaits every window it opens, so
                    // no marker outlives the attempt to count against the
                    // backlog cap of the next live publish.
                    self.publish_markers(partitions, session, window, true);
                    let _ = gate.await_window(session, window, BOOTSTRAP_WINDOW_TIMEOUT);
                    gate.take_touched();
                }
                return Ok(None);
            }
        };
        let space = publisher.config.dep_space;
        let mut batch: Vec<(DepName, u64, Option<VersionVector>, Record)> =
            Vec::with_capacity(page.len());
        for record in &page {
            let name = DepName::object(publisher.app(), model, record.id);
            let ops = publisher
                .pub_store
                .ops(space.key(&name))
                .map_err(|_| OrmError::Db(DbError::Unavailable))?;
            let marker = ops.saturating_sub(1);
            // Bidirectional copies carry the publisher's full version
            // vector (captured before the re-read, like the marker), read
            // under the object's writer-independent mesh identity in the
            // publisher's sub store — where its own stamps and every remote
            // writer's applied writes fold in.
            let vector = if publication.bidirectional {
                Some(
                    publisher
                        .sub_store
                        .latest_vector(mesh_object(model, record.id).identity())
                        .map_err(|_| OrmError::Db(DbError::Unavailable))?,
                )
            } else {
                None
            };
            // Re-read the row now that its marker floor is pinned; a row
            // deleted meanwhile is skipped (its destroy message is in the
            // live stream, and the tombstone it leaves in the version
            // store refuses any copy of this row from a *later* chunk).
            let Some(fresh) = publisher.orm.find(model, record.id)? else {
                continue;
            };
            // Marshal through the publisher so only published (and
            // virtual) attributes cross, exactly as live updates do.
            let marshalled = publisher
                .publisher
                .marshal(&publisher.orm, publication, &fresh);
            batch.push((name, marker, vector, marshalled));
        }
        if interleave {
            self.publish_markers(partitions, session, window, true);
            self.bootstrap.transition(BootstrapState::Reconciling {
                model: model.to_owned(),
                chunk,
            });
            // The window wait is an optimization, not a correctness gate:
            // on timeout the un-filtered copies still face version-store
            // admission, which refuses anything the live stream beat.
            let _ = gate.await_window(session, window, BOOTSTRAP_WINDOW_TIMEOUT);
            let touched = gate.take_touched();
            if !touched.is_empty() {
                let before = batch.len();
                batch.retain(|(name, _, _, _)| !touched.contains(&name.identity()));
                self.bootstrap
                    .records_reconciled
                    .fetch_add((before - batch.len()) as u64, Ordering::Relaxed);
            }
        }
        // Every survivor becomes a real write message: its object
        // dependency carries the marker, and a bidirectional model's
        // vector rides under the mesh name's key. Only queue-merged copies
        // are stamped for the visibility histograms.
        let origin = if interleave { mono_nanos() } else { 0 };
        let payloads: Vec<(SharedStr, u64, DepKey)> = batch
            .into_iter()
            .map(|(name, marker, vector, record)| {
                let key = space.key(&name);
                let vectors = vector
                    .map(|v| (space.key(&mesh_object(model, record.id)), v))
                    .into_iter()
                    .collect();
                let msg = WriteMessage {
                    app: publisher.app().to_owned(),
                    operations: vec![Operation::from_record("create", record)],
                    dependencies: BTreeMap::from([(key, marker)]),
                    published_at: 0,
                    generation: 1,
                    vectors,
                };
                (SharedStr::from(msg.encode().as_str()), origin, key)
            })
            .collect();
        let mut merged = 0u64;
        if interleave {
            if !payloads.is_empty() {
                let want = payloads.len();
                let sent = self
                    .broker
                    .publish_to_queue(self.app(), BOOTSTRAP_EXCHANGE, payloads);
                if sent != want {
                    // Short count: the WAL refused the frame or the queue
                    // vanished. The watermark was not committed, so the
                    // retry re-selects and re-reconciles this chunk;
                    // duplicates of the copies that did land are refused
                    // by admission.
                    return Err(OrmError::Db(DbError::Unavailable));
                }
                merged = want as u64;
                self.bootstrap
                    .copies_merged
                    .fetch_add(merged, Ordering::Relaxed);
                self.bootstrap
                    .records_copied
                    .fetch_add(merged, Ordering::Relaxed);
            }
        } else {
            // No workers: nothing would drain the queue, so hand each copy
            // straight to the subscriber's message path. A refusal is
            // counted by the subscriber's `copies_reconciled`
            // (bootstrap_stats folds it in), so only admissions — even
            // those before a copy that fails the chunk — are tallied here.
            let applied_before = self.subscriber.stats().copies_applied;
            let result = payloads
                .into_iter()
                .try_for_each(|(payload, origin_nanos, _)| {
                    let delivery = Delivery {
                        tag: 0,
                        exchange: BOOTSTRAP_EXCHANGE.into(),
                        payload,
                        redelivered: false,
                        origin_nanos,
                        enqueued_nanos: 0,
                    };
                    self.subscriber.process(&delivery).map_err(|e| match e {
                        ProcessError::Transient(_) => OrmError::Db(DbError::Unavailable),
                        ProcessError::Poison(msg) => OrmError::Restriction(msg),
                    })
                });
            self.bootstrap.records_copied.fetch_add(
                self.subscriber.stats().copies_applied - applied_before,
                Ordering::Relaxed,
            );
            result?;
        }
        self.sub_store
            .load_watermark(watermark, last)
            .map_err(|_| OrmError::Db(DbError::Unavailable))?;
        Ok(Some(ChunkCopy { last, merged }))
    }

    /// Publishes one lo (`high == false`) or hi marker of `(session,
    /// window)` into every partition of this node's queue, as ordinary
    /// direct-to-queue deliveries: route key `p` is partition `p`, the
    /// batch holds every partition lock across one WAL commit, so each
    /// marker lands behind the live traffic already queued there and no
    /// same-chunk copy can get ahead of its own hi marker. Returns whether
    /// every marker was admitted; a short count (queue decommissioned, WAL
    /// refusal) means no window for this chunk.
    fn publish_markers(&self, partitions: usize, session: u64, window: u64, high: bool) -> bool {
        let payload = SharedStr::from(watermark_payload(session, window, high));
        let markers = (0..partitions as u64)
            .map(|p| (payload.clone(), 0, p))
            .collect();
        self.broker
            .publish_to_queue(self.app(), WATERMARK_EXCHANGE, markers)
            == partitions
    }

    /// Drops the per-model bootstrap watermarks for `publisher`'s models.
    fn clear_bootstrap_watermarks(&self, publisher: &SynapseNode) -> Result<(), OrmError> {
        let models: Vec<String> = self
            .subscriptions
            .read()
            .iter()
            .filter(|s| s.from == publisher.app())
            .map(|s| s.model.clone())
            .collect();
        for model in models {
            let watermark = DepName::bootstrap_watermark(publisher.app(), &model).identity();
            self.retry_transient(|| {
                self.sub_store
                    .clear_watermark(watermark)
                    .map_err(|_| OrmError::Db(DbError::Unavailable))
            })?;
        }
        Ok(())
    }

    /// The subset of the queue's cumulative counters whose movement means
    /// real live-stream loss: `(discarded, dropped)`. Refused publishes
    /// are excluded — the publisher journal republishes them.
    fn lineage_signal(&self) -> Option<(u64, u64)> {
        self.broker
            .queue_discard_stats(self.app())
            .map(|(discarded, _refused, dropped)| (discarded, dropped))
    }

    /// Runs one bootstrap step, retrying transient failures (dead store,
    /// unavailable engine) up to [`RETRY_ATTEMPTS`] times with exponential
    /// backoff; deterministic errors fail immediately.
    fn retry_transient<T>(
        &self,
        mut step: impl FnMut() -> Result<T, OrmError>,
    ) -> Result<T, OrmError> {
        let mut failures = 0u32;
        loop {
            match step() {
                Ok(v) => return Ok(v),
                Err(e @ OrmError::Db(DbError::Unavailable)) => {
                    failures += 1;
                    if failures >= RETRY_ATTEMPTS {
                        return Err(e);
                    }
                    self.bootstrap.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff(failures));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

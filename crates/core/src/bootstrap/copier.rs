//! The copier: [`SynapseNode::bootstrap_from`] and the chunk loop under
//! it, with the attempt's retry rule.

use super::{BootstrapState, BootstrapStats, BOOTSTRAP_EXCHANGE};
use crate::api::Publication;
use crate::config::{backoff, BOOTSTRAP_CHUNK_ROWS, RETRY_ATTEMPTS};
use crate::deps::{mesh_object, DepName};
use crate::message::encode_message;
use crate::node::SynapseNode;
use crate::publisher::encode_published;
use crate::subscriber::ProcessError;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use synapse_broker::{Delivery, SharedStr};
use synapse_db::DbError;
use synapse_model::Id;
use synapse_orm::OrmError;

/// One selected chunk of a model, encoded as the publisher's write
/// messages.
struct ChunkCopies {
    /// Last id selected: where the next chunk starts.
    last: u64,
    /// One encoded copy per row still present at its re-read.
    copies: Vec<SharedStr>,
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
            chunks_copied: self.bootstrap.chunks_copied.load(Ordering::Relaxed),
            records_copied: self.bootstrap.records_copied.load(Ordering::Relaxed),
            records_reconciled: self.subscriber.stats().copies_reconciled,
            copies_merged: 0,
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
    /// copier's retry path exactly as a flaky engine or store would.
    #[cfg(any(test, feature = "testing"))]
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

    /// Pause-free bootstrap from a publisher node (§4.4): a chunked copy
    /// of every published object that runs beside live delivery, with no
    /// drain phase. The copier applies each chunk itself through
    /// [`Subscriber::process`](crate::subscriber::Subscriber::process),
    /// whether or not workers run; live messages queued meanwhile apply on
    /// the workers, now or once they start. Also used for *partial*
    /// bootstrap after a decommission or subscriber version-store loss —
    /// the queue is reinstated and the store revived first.
    ///
    /// Fault posture:
    /// - The ORM bootstrap flag is held by an RAII guard, so every exit
    ///   path — including transient-fault exhaustion mid-copy — leaves the
    ///   node writable.
    /// - Step 2 copies in chunks of [`BOOTSTRAP_CHUNK_ROWS`] records. A
    ///   transient engine or store fault retries the *chunk*, up to
    ///   [`RETRY_ATTEMPTS`] times, instead of aborting the bootstrap. A
    ///   copy whose apply fails deterministically (a panicking callback)
    ///   fails the attempt at its chunk.
    /// - Every attempt copies from the first row. Admission refuses each
    ///   row an earlier attempt already copied, so a failed attempt's work
    ///   is re-read but never re-written.
    /// - Writes racing the copy are reconciled by version admission alone
    ///   ([`synapse_versionstore::AdmitRule::Copy`]): a copy lands only if
    ///   its marker strictly beats the locally committed version —
    ///   destroy tombstones included, so a row deleted mid-chunk cannot be
    ///   resurrected by its in-flight copy — and a live write applied
    ///   after a copy carries a higher version than the copy's marker.
    pub fn bootstrap_from(&self, publisher: &SynapseNode) -> Result<(), OrmError> {
        let guard = BootstrapGuard::new(self);
        self.bootstrap.attempts.fetch_add(1, Ordering::Relaxed);
        if self.is_decommissioned() {
            self.broker.reinstate_queue(self.app());
        }
        if self.sub_store.is_dead() {
            self.sub_store.revive();
        }

        // Step 1: bulk-load the publisher's current dependency counters.
        // Its store holds nothing else: admission state lives in
        // subscriber stores.
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

        // Step 2: chunked copy of all currently published objects. The
        // subscription/publication locks are held only long enough to
        // collect the matching pairs — not across the paged reads and
        // applies.
        let pairs: Vec<(String, Arc<Publication>)> = {
            let subs = self.subscriptions.read();
            let pubs = publisher.publications.read();
            subs.iter()
                .filter(|s| s.from == publisher.app())
                .filter_map(|s| pubs.get(&s.model).map(|p| (s.model.clone(), p.clone())))
                .collect()
        };
        self.copy_models(publisher, &pairs)?;
        guard.complete();
        self.bootstrap.transition(BootstrapState::Live);
        self.bootstrap.completions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Step 2: copies every non-ephemeral pair chunk by chunk, each from
    /// its first row.
    fn copy_models(
        &self,
        publisher: &SynapseNode,
        pairs: &[(String, Arc<Publication>)],
    ) -> Result<(), OrmError> {
        for (model, publication) in pairs {
            if publication.ephemeral {
                continue;
            }
            let mut after = 0;
            let mut chunk = 0u64;
            loop {
                self.bootstrap.transition(BootstrapState::Copying {
                    model: model.clone(),
                    chunk,
                });
                let copied = self.retry_transient(|| {
                    self.copy_chunk(publisher, model, publication, after, chunk)
                })?;
                let Some(last) = copied else {
                    break;
                };
                after = last;
                chunk += 1;
                self.bootstrap.chunks_copied.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Copies the next chunk of `model` after id `after`: selects and
    /// encodes it ([`SynapseNode::chunk_copies`], on the publisher), moves
    /// to [`BootstrapState::Reconciling`], applies each copy through the
    /// subscriber's message path under version admission. Returns the
    /// chunk's last id, or `None` when the table is exhausted. A copy the
    /// live stream or an earlier attempt beat is refused by admission and
    /// counted by the subscriber's `copies_reconciled`.
    fn copy_chunk(
        &self,
        publisher: &SynapseNode,
        model: &str,
        publication: &Publication,
        after: u64,
        chunk: u64,
    ) -> Result<Option<u64>, OrmError> {
        // Armed copy-failure hook (test builds): fail before any work, as
        // a flaky engine mid-chunk would.
        #[cfg(any(test, feature = "testing"))]
        if self
            .bootstrap
            .copy_fail_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(OrmError::Db(DbError::Unavailable));
        }
        // A partially-dead subscriber store cannot admit this chunk's
        // copies (§4.2: a partial store has no complete dependency
        // picture), so fail the chunk transiently — the retry budget absorbs a racing revive, and a
        // failed attempt's re-entry revives the store itself.
        if self.sub_store.is_dead() {
            return Err(OrmError::Db(DbError::Unavailable));
        }
        let Some(ChunkCopies { last, copies }) =
            publisher.chunk_copies(model, publication, after)?
        else {
            return Ok(None);
        };
        self.bootstrap.transition(BootstrapState::Reconciling {
            model: model.to_owned(),
            chunk,
        });
        // Only admissions — even those before a copy that fails the chunk
        // — are tallied as copied.
        let applied_before = self.subscriber.stats().copies_applied;
        let exchange = SharedStr::from(BOOTSTRAP_EXCHANGE);
        let applied = copies.into_iter().try_for_each(|payload| {
            let delivery = Delivery {
                tag: 0,
                exchange: exchange.clone(),
                payload,
                redelivered: false,
                origin_nanos: 0,
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
        applied?;
        Ok(Some(last))
    }

    /// The publisher's side of one chunk: the next [`BOOTSTRAP_CHUNK_ROWS`]
    /// rows of `model` after id `after`, each encoded as a real write
    /// message whose object dependency carries its marker and, for a
    /// bidirectional model, whose LWW stamp rides under the mesh name's
    /// key.
    /// `None` when the table is exhausted.
    ///
    /// Each record's ops count is captured *before* the row is re-read for
    /// encoding, and the carried marker is `ops - 1` — the same
    /// write-dependency convention live messages use. The marker is
    /// therefore never newer than the copied data: a concurrent write
    /// lands with a strictly higher version and overwrites the copy, while
    /// a copy racing behind the live stream loses version-store admission
    /// (ties included — see [`synapse_versionstore::AdmitRule::Copy`]) and
    /// is discarded. Capturing the marker after reading the row would
    /// allow the fatal inverse: stale data carrying a marker that beats a
    /// newer live write, regressing the replica permanently.
    fn chunk_copies(
        &self,
        model: &str,
        publication: &Publication,
        after: u64,
    ) -> Result<Option<ChunkCopies>, OrmError> {
        let page = self.orm.all_after(model, Id(after), BOOTSTRAP_CHUNK_ROWS)?;
        let Some(last) = page.last().map(|record| record.id.raw()) else {
            return Ok(None);
        };
        let space = self.config.dep_space;
        let mut copies = Vec::with_capacity(page.len());
        let mut text = String::new();
        for record in &page {
            let key = space.key(&DepName::object(self.app(), model, record.id));
            let ops = self
                .pub_store
                .ops(key)
                .map_err(|_| OrmError::Db(DbError::Unavailable))?;
            let marker = ops.saturating_sub(1);
            // Bidirectional copies carry the stamp of the content they copy
            // (captured before the re-read, like the marker): the winner
            // the publisher's sub store holds under the object's
            // writer-independent mesh identity, where its own stamps and
            // every remote writer's applied writes meet.
            let mut stamps = BTreeMap::new();
            if publication.bidirectional {
                let mesh = mesh_object(model, record.id);
                let stamp = self
                    .sub_store
                    .latest_stamp(mesh.identity())
                    .map_err(|_| OrmError::Db(DbError::Unavailable))?;
                stamps.insert(space.key(&mesh), stamp);
            }
            // Re-read the row now that its marker floor is pinned; a row
            // deleted meanwhile is skipped (its destroy message is in the
            // live stream, and the tombstone it leaves in the version
            // store refuses any copy of this row from a *later* chunk).
            let Some(fresh) = self.orm.find(model, record.id)? else {
                continue;
            };
            // Encode through the publisher's encoder so only published (and
            // virtual) attributes cross, exactly as live updates do.
            text.clear();
            let op = |out: &mut String| {
                encode_published(out, &self.orm, publication, "create", &fresh);
            };
            encode_message(
                &mut text,
                self.app(),
                &mut [(key, marker)],
                1,
                op,
                0,
                &stamps,
            );
            copies.push(SharedStr::from(text.as_str()));
        }
        Ok(Some(ChunkCopies { last, copies }))
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

#[cfg(test)]
mod tests;

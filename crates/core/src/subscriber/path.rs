//! The one message path: envelope → dependency check → apply → settle on
//! the caller's lane, with one failure exit.

use super::lane::{Held, Lane, Prepared};
use super::{ProcessError, Subscriber, IDLE_PARK};
use crate::bootstrap::BOOTSTRAP_EXCHANGE;
use crate::config::{backoff, RETRY_ATTEMPTS};
use crate::context;
use crate::deps::DepName;
use crate::message::Envelope;
use crate::semantics::DeliveryMode;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, Ordering};
use std::time::Instant;
use synapse_broker::{Consumer, Delivery};
use synapse_db::DbError;
use synapse_orm::OrmError;
use synapse_telemetry::mono_nanos;
use synapse_versionstore::{DepKey, DepWaitSet, StoreError, WaitOutcome};

/// The transient failure a dead subscriber version store causes.
const STORE_DIED: &str = "subscriber version store died";

/// What a delivery is, read from its exchange: a bootstrap chunk copy
/// carries the reserved [`BOOTSTRAP_EXCHANGE`], everything else is a
/// publisher's live write. This is the only thing the message sequence
/// ([`Subscriber::handle_delivery`]) is parameterised by, besides the
/// caller's [`Lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kind {
    /// A publisher's write message.
    Live,
    /// A bootstrap chunk-copy row, handed over by the copier.
    Copy,
}

impl Kind {
    pub(super) fn of(delivery: &Delivery) -> Kind {
        if delivery.exchange == BOOTSTRAP_EXCHANGE {
            Kind::Copy
        } else {
            Kind::Live
        }
    }
}

/// Outcome of running one read delivery up to its ORM apply.
enum Processed {
    /// Applied; stage marks ready for the telemetry commit.
    Applied(StageMarks),
    /// Its dependencies are not yet satisfied: the worker lane holds it.
    Aside,
    /// The queue took it back while the lane held it (a decommission
    /// sweep, a broker restart): nothing is left to settle.
    Void,
}

/// Subscriber-side stage durations for one successfully applied message,
/// committed to the telemetry plane together with the end-to-end latency
/// only once the apply succeeded (failed attempts record nothing, so per
/// mode the stage counts always equal the delivered count).
#[derive(Debug, Default, Clone, Copy)]
struct StageMarks {
    dep_wait_nanos: u64,
    apply_nanos: u64,
}

impl Subscriber {
    /// The one message sequence — envelope, dependency check, admission +
    /// ORM apply, settle — that every delivery takes,
    /// whatever its [`Kind`] and whoever's [`Lane`] it runs on. Success
    /// stages the delivery on the lane. A failure is returned classified;
    /// on a worker lane it has by then been settled against the queue
    /// ([`Subscriber::fail`]), on a consumer-less lane the caller owns it.
    /// `Ok(Some(_))` hands the delivery back to a worker lane to hold: its
    /// dependencies are not yet satisfied. A held delivery comes back here
    /// with its first run's work kept — its envelope read, its mode
    /// settled, its wait set prepared and its redelivery counted.
    pub(super) fn handle_delivery(
        &self,
        mut held: Held,
        lane: &mut Lane<'_>,
    ) -> Result<Option<Held>, ProcessError> {
        let kind = Kind::of(&held.delivery);
        let first = held.prepared.is_none();
        if first {
            if held.delivery.redelivered {
                self.counters.redeliveries.fetch_add(1, Ordering::Relaxed);
            }
            let handle_nanos = mono_nanos();
            match Envelope::read(&held.delivery.payload) {
                Ok(env) => {
                    held.prepared = Some(Prepared {
                        env,
                        mode: DeliveryMode::Weak,
                        deps: DepWaitSet::default(),
                        handle_nanos,
                        aside: None,
                    })
                }
                Err(e) => {
                    let error = ProcessError::Poison(format!("undecodable payload: {e}"));
                    return Err(self.fail(&held.delivery, kind, error, None, lane));
                }
            }
        }
        let (tag, text) = (held.delivery.tag, &*held.delivery.payload);
        let prepared = held.prepared.as_mut().expect("read on the first run");
        match self.process_read(prepared, text, first, kind, tag, lane) {
            Ok(Processed::Aside) => Ok(Some(held)),
            Ok(Processed::Void) => Ok(None),
            Ok(Processed::Applied(marks)) => {
                lane.tags.push(tag);
                if kind == Kind::Live {
                    // Copies settle with *no* dependency keys: they do not
                    // correspond to publisher bump operations (step 1's
                    // version snapshot already carried their `ops`), so
                    // landing them must not advance the subscriber's
                    // dependency counters.
                    lane.deps.extend_from_slice(&prepared.env.deps);
                }
                let (mode, handle_nanos) = (prepared.mode, prepared.handle_nanos);
                self.record_visible(&held.delivery, mode, held.popped_nanos, handle_nanos, marks);
                Ok(None)
            }
            Err(e) => Err(self.fail(&held.delivery, kind, e, Some(&prepared.env), lane)),
        }
    }

    /// One read delivery, its payload `text`, up to its ORM apply. On its
    /// first run it settles its mode and prepares its wait set; every run
    /// then checks the wait set and, when it holds, applies.
    fn process_read(
        &self,
        prepared: &mut Prepared,
        text: &str,
        first: bool,
        kind: Kind,
        tag: u64,
        lane: &mut Lane<'_>,
    ) -> Result<Processed, ProcessError> {
        if first {
            let app = prepared.env.app(text);
            prepared.mode = match kind {
                // A copy's dependency map holds its admission marker, not
                // publisher bumps to wait for: it runs as a weak delivery.
                Kind::Copy => DeliveryMode::Weak,
                Kind::Live => self.live_mode(app, prepared.env.generation),
            };
            if prepared.mode != DeliveryMode::Weak {
                prepared.deps = self.filtered_wait_set(&prepared.env.deps, app, prepared.mode);
            }
        }
        let mut marks = StageMarks::default();
        if prepared.mode != DeliveryMode::Weak {
            let checked = mono_nanos();
            if !self.deps_ready(prepared, lane)? {
                return Ok(Processed::Aside);
            }
            let since = match prepared.aside {
                // Held since `since`: make sure the queue still owes it.
                Some((since, _)) => {
                    if lane.consumer.is_some_and(|c| !c.holds(tag)) {
                        return Ok(Processed::Void);
                    }
                    since
                }
                None => checked,
            };
            marks.dep_wait_nanos = mono_nanos().saturating_sub(since);
        }
        let apply_start = mono_nanos();
        self.apply_message(&prepared.env, text, kind, prepared.mode)?;
        marks.apply_nanos = mono_nanos().saturating_sub(apply_start);
        Ok(Processed::Applied(marks))
    }

    /// Whether a delivery's prepared wait set lets it apply now (§4.2:
    /// every dependency's version in the store has reached the message's).
    /// An unsatisfied set first lands the lane's staged batch and looks
    /// again — messages earlier in the batch may be exactly what it waits
    /// for. Then a worker lane sets the delivery aside (`false`), and the
    /// consumer-less lane blocks. `true` also means "given up" under the
    /// configurable timeout of §6.5 (`None` = the paper's strict causal
    /// mode: never give up), counted from the first time the delivery
    /// stepped aside.
    fn deps_ready(
        &self,
        prepared: &mut Prepared,
        lane: &mut Lane<'_>,
    ) -> Result<bool, ProcessError> {
        let satisfied = |deps: &DepWaitSet| {
            self.store
                .satisfied_prepared(deps)
                .map_err(|_| ProcessError::Transient(STORE_DIED.into()))
        };
        if satisfied(&prepared.deps)? {
            return Ok(true);
        }
        if !lane.tags.is_empty() {
            self.flush_pending(lane);
            if satisfied(&prepared.deps)? {
                return Ok(true);
            }
        }
        if lane.consumer.is_none() {
            return self.wait_deps(&prepared.deps);
        }
        let now = Instant::now();
        let (_, deadline) = *prepared.aside.get_or_insert_with(|| {
            self.counters.set_aside.fetch_add(1, Ordering::Relaxed);
            (mono_nanos(), self.dep_wait_timeout.map(|t| now + t))
        });
        if deadline.is_some_and(|d| now >= d) {
            self.counters.dep_timeouts.fetch_add(1, Ordering::Relaxed);
            return Ok(true); // give up and process (§6.5)
        }
        Ok(false)
    }

    /// The consumer-less lane's blocking wait on a prepared set, parked on
    /// the version store in [`IDLE_PARK`] slices so a stop is noticed, up
    /// to the §6.5 deadline. `Ok(true)`: satisfied, or given up per the
    /// timeout policy.
    fn wait_deps(&self, deps: &DepWaitSet) -> Result<bool, ProcessError> {
        let deadline = self.dep_wait_timeout.map(|t| Instant::now() + t);
        loop {
            let slice = deadline.map_or(IDLE_PARK, |d| {
                d.saturating_duration_since(Instant::now()).min(IDLE_PARK)
            });
            match self.store.wait_prepared(deps, slice) {
                Ok(WaitOutcome::Ready) => return Ok(true),
                Ok(WaitOutcome::TimedOut) => {
                    if self.stop.load(Ordering::SeqCst) {
                        return Err(ProcessError::Transient(
                            "stopped while waiting for dependencies".into(),
                        ));
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        self.counters.dep_timeouts.fetch_add(1, Ordering::Relaxed);
                        return Ok(true); // give up and process (§6.5)
                    }
                }
                Err(StoreError::Dead) => return Err(ProcessError::Transient(STORE_DIED.into())),
            }
        }
    }

    /// Commits the staged breakdown and end-to-end visibility latency for
    /// one successfully applied delivery. Unstamped deliveries (payload
    /// emulation, bootstrap copies) carry `origin_nanos == 0` and are
    /// skipped, so the histograms only ever hold real publish→visible
    /// windows.
    fn record_visible(
        &self,
        delivery: &Delivery,
        mode: DeliveryMode,
        popped_nanos: u64,
        handle_nanos: u64,
        marks: StageMarks,
    ) {
        if delivery.origin_nanos == 0 {
            return;
        }
        let visible = mono_nanos();
        self.telemetry.record_visible(
            mode.slice(),
            popped_nanos.saturating_sub(delivery.enqueued_nanos),
            handle_nanos.saturating_sub(popped_nanos),
            marks.dep_wait_nanos,
            marks.apply_nanos,
            visible.saturating_sub(delivery.origin_nanos),
        );
    }

    /// Lands the lane's staged batch: one grouped version-store apply
    /// (each touched shard locked and notified once for the whole batch),
    /// then one batched ack. Returns whether the apply landed. The version
    /// store advances only here, after successful application: a transient
    /// failure must leave versions untouched so the redelivery reprocesses
    /// from scratch (applies are idempotent upserts); dep release for
    /// dead-lettered messages happens exactly once, in
    /// [`Subscriber::dead_letter`]. `messages_processed` counts only live
    /// acks — a broker restart between pop and flush requeues the tag and
    /// voids the ack, and that copy is counted when its redelivery's ack
    /// lands — so the counter never double-counts a delivery.
    pub(super) fn flush_pending(&self, lane: &mut Lane<'_>) -> bool {
        if lane.tags.is_empty() {
            return true;
        }
        let landed = self.store.apply(&lane.deps).is_ok();
        if landed {
            self.wake_holders();
        }
        if let Some(consumer) = lane.consumer {
            if landed {
                // Counted before the ack, so a drained queue's count is
                // complete; an ack a broker restart voided is taken back.
                let processed = &self.counters.messages_processed;
                let staged = lane.tags.len() as u64;
                processed.fetch_add(staged, Ordering::Relaxed);
                let acked = consumer.ack_batch(&lane.tags);
                processed.fetch_sub(staged - acked, Ordering::Relaxed);
                let mut attempts = self.attempts.lock();
                for tag in &lane.tags {
                    attempts.remove(tag);
                }
            } else {
                // Transient store failure: requeue the whole batch without
                // charging attempts — ORM applies are idempotent upserts,
                // so redelivery reprocesses safely once the store heals.
                for tag in &lane.tags {
                    consumer.nack(*tag);
                }
            }
        }
        lane.tags.clear();
        lane.deps.clear();
        landed
    }

    /// Wakes workers parked while holding deliveries set aside: the store
    /// just advanced, so what they wait for may be there. Free when none
    /// is parked. The fence orders the store write before the load; a
    /// worker announces its park (`parked_holders`) before its last look
    /// at the store, so either it sees this advance or this sees it.
    fn wake_holders(&self) {
        fence(Ordering::SeqCst);
        if self.parked_holders.load(Ordering::SeqCst) > 0 {
            self.broker.wake_queue(&self.app);
        }
    }

    /// The one failure exit; returns the error it settled. *Poison*
    /// failures dead-letter at once: redelivering them would wedge the
    /// queue (§6.5). *Transient* failures charge an attempt, back off and
    /// nack; one that exhausts [`RETRY_ATTEMPTS`] is dead-lettered, a live
    /// message with its dependencies released. A lane with no consumer has
    /// no queue to settle against: its error goes back to the caller of
    /// [`Subscriber::process`] untouched — the copier's lane among them.
    fn fail(
        &self,
        delivery: &Delivery,
        kind: Kind,
        error: ProcessError,
        env: Option<&Envelope>,
        lane: &mut Lane<'_>,
    ) -> ProcessError {
        let Some(consumer) = lane.consumer else {
            return error;
        };
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        // Only a live message's dependency keys are publisher bumps to
        // release; a copy's hold its admission marker.
        let release = env.filter(|_| kind == Kind::Live);
        if matches!(error, ProcessError::Poison(_)) {
            self.counters
                .poison_messages
                .fetch_add(1, Ordering::Relaxed);
            self.dead_letter(consumer, delivery.tag, release);
            return error;
        }
        if self.stop.load(Ordering::SeqCst) {
            // Shutting down: requeue without charging an attempt, so
            // restarts never push an innocent message toward the
            // dead-letter store.
            consumer.nack(delivery.tag);
            return error;
        }
        let attempts = {
            let mut map = self.attempts.lock();
            let entry = map.entry(delivery.tag).or_insert(0);
            *entry += 1;
            *entry
        };
        if attempts >= RETRY_ATTEMPTS {
            self.counters
                .retries_exhausted
                .fetch_add(1, Ordering::Relaxed);
            self.dead_letter(consumer, delivery.tag, release);
            return error;
        }
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
        // Land finished work before sleeping: a backoff must not hold it
        // unacked.
        self.flush_pending(lane);
        std::thread::sleep(backoff(attempts));
        consumer.nack(delivery.tag);
        error
    }

    /// Routes one delivery to the dead-letter store, releasing its
    /// version-store dependencies first so downstream messages don't
    /// deadlock on a message that will never be applied. Undecodable
    /// payloads cannot release anything — under strict causal mode that
    /// residue is exactly the paper's §6.5 wedge, and the way out remains
    /// decommission + partial bootstrap.
    fn dead_letter(&self, consumer: &Consumer, tag: u64, env: Option<&Envelope>) {
        // A broker restart between pop and this call requeues the tag; the
        // dead-letter is then void and the redelivery takes the full path
        // again, so only a live dead-letter releases deps and counts.
        if !consumer.dead_letter(tag) {
            return;
        }
        if let Some(env) = env {
            if self.store.apply(&env.deps).is_ok() {
                self.wake_holders();
            }
        }
        self.attempts.lock().remove(&tag);
        self.counters.dead_lettered.fetch_add(1, Ordering::Relaxed);
    }

    /// Applies a read message's operations through the local ORM; each
    /// parses its attributes only if it applies (see `apply_op`).
    ///
    /// Application runs inside its own causal scope (like a background
    /// job, §4.2) so that reads made by decorator callbacks become
    /// external dependencies of anything those callbacks publish. A
    /// panicking subscription callback is caught and treated as poison:
    /// it would panic identically on every redelivery.
    fn apply_message(
        &self,
        env: &Envelope,
        text: &str,
        kind: Kind,
        mode: DeliveryMode,
    ) -> Result<(), ProcessError> {
        let app = env.app(text);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            context::with_scope(|| {
                context::with_replication_flag(|| {
                    for op in env.ops(text) {
                        self.apply_op(env, app, op, kind, mode)?;
                    }
                    Ok::<(), OrmError>(())
                })
            })
            .0
        }));
        match outcome {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(classify_apply_error(e)),
            Err(panic) => Err(ProcessError::Poison(format!(
                "subscription callback panicked: {}",
                panic_message(panic.as_ref())
            ))),
        }
    }

    /// A message's dependencies from `app`, filtered per the effective
    /// mode (a causal subscriber of a global publisher ignores the global
    /// dependency, §4.2) and routed once into a shard-grouped wait set —
    /// every re-check during the wait loop reuses the routing.
    fn filtered_wait_set(
        &self,
        deps: &[(DepKey, u64)],
        app: &str,
        mode: DeliveryMode,
    ) -> DepWaitSet {
        let mut set = DepWaitSet::default();
        if mode == DeliveryMode::Causal {
            let global_key = self.dep_space.key(&DepName::global(app));
            if deps.iter().any(|(k, _)| *k == global_key) {
                let kept: Vec<(DepKey, u64)> = deps
                    .iter()
                    .copied()
                    .filter(|(k, _)| *k != global_key)
                    .collect();
                self.store.prepare_wait(&kept, &mut set);
                return set;
            }
        }
        self.store.prepare_wait(deps, &mut set);
        set
    }
}

/// Classifies an application-layer failure: a briefly unavailable engine
/// (injected fault, dead store) is transient; everything else — schema
/// violations, callback aborts, ownership restrictions — is deterministic
/// and poisons the delivery.
fn classify_apply_error(e: OrmError) -> ProcessError {
    match e {
        OrmError::Db(DbError::Unavailable) => ProcessError::Transient(e.to_string()),
        other => ProcessError::Poison(other.to_string()),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

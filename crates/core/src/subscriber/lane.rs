//! A worker's lane: what it has staged for the next flush, what it holds
//! set aside, and the passes that retry the held deliveries.
//!
//! A live causal or global delivery whose wait set is not yet satisfied
//! does not block its worker. The lane *holds* it — its envelope read, its
//! wait set prepared, its redelivery counted once — and the worker runs the
//! rest of its batch, flushes, and retries what it holds, pass after pass
//! while a pass settles anything. Passes run in tag order, which is enqueue order:
//! a dependency was enqueued before its dependent, so a pass meets the
//! dependencies it holds before what waits on them.

use super::{Subscriber, BATCH_MAX};
use crate::message::Envelope;
use crate::semantics::DeliveryMode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use synapse_broker::{Consumer, Delivery};
use synapse_telemetry::mono_nanos;
use synapse_versionstore::{DepKey, DepWaitSet};

/// Most deliveries a lane holds set aside. Past it the lane hands its
/// newest held deliveries back to the queue, so a backlog that cannot
/// apply stays in the queue, where the §4.4 backlog cap sees it.
pub(super) const HELD_MAX: usize = 2 * BATCH_MAX;

/// What the caller of [`Subscriber::handle_delivery`] supplies: where
/// applied deliveries settle, and what happens to a delivery that cannot
/// apply yet.
///
/// A worker's lane stages deliveries whose ORM apply succeeded and defers
/// their version-store apply and ack to the flush point, so each touched
/// shard is locked (and notified) once per batch instead of once per
/// message. A delivery whose dependencies are not yet satisfied steps
/// aside into `held`. [`Subscriber::process`] runs a lane with no
/// consumer: a batch of one, flushed as soon as it is staged, whose
/// dependency wait blocks, and which is never acked or nacked.
pub(super) struct Lane<'a> {
    /// The worker's queue handle (`None` under [`Subscriber::process`]).
    pub(super) consumer: Option<&'a Consumer>,
    /// Staged deliveries and the `(key, value)`s their flush applies.
    pub(super) tags: Vec<u64>,
    pub(super) deps: Vec<(DepKey, u64)>,
    /// Deliveries set aside, in tag order, and a spare buffer for passes.
    pub(super) held: Vec<Held>,
    spare: Vec<Held>,
}

/// One delivery on a lane, with what its first run already did.
pub(super) struct Held {
    pub(super) delivery: Delivery,
    pub(super) popped_nanos: u64,
    /// The read envelope, once the delivery has run.
    pub(super) prepared: Option<Prepared>,
}

/// A read delivery with its mode and wait set: what a retry reuses
/// instead of reading and preparing again.
pub(super) struct Prepared {
    /// The message's envelope, in place in the delivery's payload.
    pub(super) env: Envelope,
    pub(super) mode: DeliveryMode,
    /// The routed wait set (empty unless the mode is causal or global).
    pub(super) deps: DepWaitSet,
    pub(super) handle_nanos: u64,
    /// When the delivery first stepped aside (the start of its dep_wait
    /// stage) and its §6.5 give-up deadline.
    pub(super) aside: Option<(u64, Option<Instant>)>,
}

impl Held {
    /// A delivery as it comes off the queue, before its first run.
    pub(super) fn popped(delivery: Delivery, popped_nanos: u64) -> Self {
        Held {
            delivery,
            popped_nanos,
            prepared: None,
        }
    }
}

impl<'a> Lane<'a> {
    pub(super) fn new(consumer: Option<&'a Consumer>) -> Self {
        Lane {
            consumer,
            tags: Vec::new(),
            deps: Vec::new(),
            held: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// How long a worker holding deliveries may park: until the nearest
    /// §6.5 deadline among them, and never past `cap`.
    pub(super) fn park_timeout(&self, cap: Duration) -> Duration {
        let now = Instant::now();
        self.held
            .iter()
            .filter_map(|h| h.prepared.as_ref()?.aside?.1)
            .map(|deadline| deadline.saturating_duration_since(now))
            .fold(cap, Duration::min)
    }
}

impl Subscriber {
    /// Runs a popped batch (possibly empty) together with what the lane
    /// holds: passes in tag order, each followed by a flush, until a pass
    /// settles nothing; then hands back what exceeds [`HELD_MAX`]. Returns
    /// whether anything settled.
    pub(super) fn run_lane(&self, lane: &mut Lane<'_>, batch: Vec<Delivery>) -> bool {
        let popped_nanos = mono_nanos();
        let merge = !lane.held.is_empty();
        lane.held
            .extend(batch.into_iter().map(|d| Held::popped(d, popped_nanos)));
        if merge {
            lane.held.sort_by_key(|h| h.delivery.tag);
        }
        let mut progressed = false;
        loop {
            let settled = self.pass(lane);
            self.flush_pending(lane);
            progressed |= settled;
            if !settled || lane.held.is_empty() || self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        let excess = lane.held.len().saturating_sub(HELD_MAX);
        if excess > 0 {
            self.hand_back(lane, excess);
        }
        progressed
    }

    /// One pass over the lane's deliveries in tag order; one that cannot
    /// apply yet is kept. Returns whether any delivery settled — applied,
    /// failed, or found void.
    fn pass(&self, lane: &mut Lane<'_>) -> bool {
        let mut entries = std::mem::replace(&mut lane.held, std::mem::take(&mut lane.spare));
        let mut settled = false;
        for entry in entries.drain(..) {
            let kept = if self.stop.load(Ordering::SeqCst) {
                Some(entry)
            } else {
                self.handle_delivery(entry, lane).unwrap_or(None)
            };
            match kept {
                Some(entry) => lane.held.push(entry),
                None => settled = true,
            }
        }
        lane.spare = entries;
        settled
    }

    /// Returns the lane's `n` newest held deliveries to the queue without
    /// charging an attempt. A nack re-inserts by tag, so each partition
    /// keeps its order.
    pub(super) fn hand_back(&self, lane: &mut Lane<'_>, n: usize) {
        let Some(consumer) = lane.consumer else {
            return;
        };
        let keep = lane.held.len().saturating_sub(n);
        for held in lane.held.drain(keep..).rev() {
            consumer.nack(held.delivery.tag);
        }
    }
}

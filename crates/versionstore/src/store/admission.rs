//! The per-object admission script — reserve → classify → write → commit —
//! that an incoming apply and a multi-writer object's local write both run.
//! Its rules (DESIGN.md *Admission*): reserve before the publisher's
//! dependency locks; a thread re-enters a stripe it holds; a re-entrant
//! stamp of the held object follows the vector the holder classified (for
//! an after-callback: the row write overwrites a before-callback's value).

use super::{StoreError, VersionStore, ADMISSION_STRIPES};
use crate::vector::{Dominance, VersionVector};
use parking_lot::{Mutex, MutexGuard};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The calling thread's token: the address of its `THREAD`, never 0.
fn thread_token() -> usize {
    thread_local!(static THREAD: u8 = const { 0 });
    THREAD.with(|t| t as *const u8 as usize)
}

/// One stripe: its lock, its holder's thread token (0 while free;
/// `Relaxed`, as a thread only looks for its own) and what it classified.
#[derive(Default)]
pub(super) struct Stripe {
    lock: Mutex<()>,
    holder: AtomicUsize,
    classified: Mutex<Option<(u64, VersionVector)>>,
}

/// Which comparison admits a carried version ([`Admission::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitRule {
    /// A live write: a version that dominates *or equals* the stored one
    /// applies (an equal version is a redelivery, and applies are
    /// idempotent upserts), a dominated one is stale, a fork is a conflict.
    Live,
    /// A bootstrap chunk copy: admitted only for an object with no
    /// admission state (marker 0 included — rows created before the copy
    /// started) or by *strict* dominance. Ties and forks lose to the live
    /// stream, which holds the authoritative payload — a tying copy is the
    /// same publisher operation observed twice, and re-upserting it could
    /// resurrect a row whose destroy the live stream already applied.
    Copy,
}

/// Verdict of [`Admission::classify`]: how a carried version compares
/// with the object's stored one, with the store's LWW verdict attached
/// when the two are concurrent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The carried version is admitted under the rule: apply it.
    Fresh,
    /// The stored version already covers the carried one: discard it
    /// (§4.2: "the subscriber also discards any messages with a version
    /// lower than what is stored").
    Stale,
    /// Neither history contains the other — a genuine multi-writer
    /// conflict ([`AdmitRule::Live`] and vectors only). `lww_wins` is the
    /// store's default verdict: whether the incoming version's LWW stamp
    /// (history length, then writer id) beats the stamp of the content
    /// currently stored. The subscriber applies the write exactly when it
    /// does; either way the joined version is committed.
    Concurrent {
        /// Whether the incoming version wins last-writer-wins.
        lww_wins: bool,
    },
}

/// One object's version — what a write carries and, joined over every
/// admitted write, what the store keeps for the object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectVersion {
    /// A single-writer object: the publisher's `ops` count before the
    /// write (the value its object dependency carries). It is a value of a
    /// generation ([`crate::versioned`]), so a write of an older generation
    /// is stale against any version of a newer one.
    Scalar(u64),
    /// A multi-writer object: its per-writer history, and the LWW stamp
    /// `(history length, writer)` of the content the version stands for
    /// ([`VersionVector::lww_stamp`]). Stamps only ever grow along a
    /// history, so keeping the max is order-independent and two replicas
    /// that see the same writes converge on the same winner.
    Mesh {
        /// The per-writer history.
        vector: VersionVector,
        /// The LWW stamp of the held content.
        winner: (u64, u64),
    },
}

impl ObjectVersion {
    /// Folds `other` in — the max of two scalars; the join of two vectors
    /// and the max of their stamps — so the result dominates-or-equals
    /// both. A version of the other kind replaces `self`.
    pub(super) fn merge(&mut self, other: &ObjectVersion) {
        use ObjectVersion::{Mesh, Scalar};
        match (&mut *self, other) {
            (Scalar(a), Scalar(b)) => *a = (*a).max(*b),
            (
                Mesh { vector, winner },
                Mesh {
                    vector: v,
                    winner: w,
                },
            ) => {
                vector.join(v);
                *winner = (*winner).max(*w);
            }
            _ => *self = other.clone(),
        }
    }
}

impl VersionStore {
    /// Opens the admission script for one object, named by its identity
    /// (the full 64-bit hash of its dependency name, never reduced into
    /// the dependency space): reserve → classify → write → commit. The
    /// returned guard holds the object's stripe — and no shard lock —
    /// until it is committed or dropped, so two applies of one object can
    /// never interleave verdict and write (the stale one landing last),
    /// while the caller's ORM write blocks nobody else's store traffic. An
    /// operation that carries no version still reserves its object, for
    /// the exclusion alone. A thread holding the stripe re-enters it.
    pub fn reserve(&self, object: u64) -> Admission<'_> {
        let stripe = self.stripe(object);
        let me = thread_token();
        let lock = (stripe.holder.load(Ordering::Relaxed) != me).then(|| {
            let lock = stripe.lock.lock();
            stripe.holder.store(me, Ordering::Relaxed);
            lock
        });
        Admission {
            store: self,
            object,
            stripe,
            lock,
            classified: Cell::new(false),
        }
    }

    /// Reads a multi-writer object's recorded version vector (empty when
    /// it has none), as the bootstrap copier sends it; on the thread
    /// holding the object's reservation, joined with what it classified.
    pub fn latest_vector(&self, object: u64) -> Result<VersionVector, StoreError> {
        let mut vector = match self.maps_of(object)?.objects.get(&object) {
            Some(ObjectVersion::Mesh { vector, .. }) => vector.clone(),
            _ => VersionVector::new(),
        };
        let stripe = self.stripe(object);
        if stripe.holder.load(Ordering::Relaxed) == thread_token() {
            match &*stripe.classified.lock() {
                Some((held, classified)) if *held == object => vector.join(classified),
                _ => {}
            }
        }
        Ok(vector)
    }

    fn stripe(&self, object: u64) -> &Stripe {
        &self.stripes[(object % ADMISSION_STRIPES as u64) as usize]
    }
}

/// One object's reserved admission ([`VersionStore::reserve`]). Nothing is
/// recorded until [`Admission::commit`]: a guard dropped because the write
/// failed leaves the store exactly as it found it, so the redelivery is
/// classified from scratch against what actually landed.
pub struct Admission<'a> {
    store: &'a VersionStore,
    object: u64,
    stripe: &'a Stripe,
    /// The stripe's lock; `None` for a re-entry.
    lock: Option<MutexGuard<'a, ()>>,
    /// Whether this admission left a vector in the stripe's `classified`.
    classified: Cell<bool>,
}

impl Admission<'_> {
    /// Classifies `incoming` against the object's stored version under
    /// `rule`, changing nothing. An object with no admission state admits
    /// anything; so does a stored version of the other kind, which only a
    /// 64-bit collision between a single-writer and a mesh name can leave.
    pub fn classify(
        &self,
        incoming: &ObjectVersion,
        rule: AdmitRule,
    ) -> Result<Verdict, StoreError> {
        use ObjectVersion::{Mesh, Scalar};
        let live = rule == AdmitRule::Live;
        if let (Mesh { vector, .. }, Some(_)) = (incoming, &self.lock) {
            *self.stripe.classified.lock() = Some((self.object, vector.clone()));
            self.classified.set(true);
        }
        let maps = self.store.maps_of(self.object)?;
        Ok(match (incoming, maps.objects.get(&self.object)) {
            (Scalar(a), Some(Scalar(b))) if a < b || (a == b && !live) => Verdict::Stale,
            (
                Mesh { vector: a, winner },
                Some(Mesh {
                    vector: b,
                    winner: held,
                }),
            ) => match a.compare(b) {
                Dominance::Dominates => Verdict::Fresh,
                Dominance::Equal if live => Verdict::Fresh,
                Dominance::Concurrent if live => Verdict::Concurrent {
                    lww_wins: winner > held,
                },
                _ => Verdict::Stale,
            },
            _ => Verdict::Fresh,
        })
    }

    /// Records `incoming` as stored — folded into the object's version, so
    /// replicas converge on the max-stamp version no matter the delivery
    /// order — and releases the object. Called once the write, or a
    /// resolution that keeps the local row, has finished.
    pub fn commit(self, incoming: &ObjectVersion) -> Result<(), StoreError> {
        self.store
            .maps_of(self.object)?
            .objects
            .entry(self.object)
            .and_modify(|stored| stored.merge(incoming))
            .or_insert_with(|| incoming.clone());
        Ok(())
    }
}

impl Drop for Admission<'_> {
    /// A reservation that locked its stripe clears it before unlocking.
    fn drop(&mut self) {
        if self.lock.is_some() {
            if self.classified.get() {
                *self.stripe.classified.lock() = None;
            }
            self.stripe.holder.store(0, Ordering::Relaxed);
        }
    }
}

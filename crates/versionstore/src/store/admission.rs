//! The per-object admission script — reserve → classify → write → commit —
//! that an incoming apply and a multi-writer object's local write both run,
//! and the node's one Lamport clock that stamps the local writes. Its rules
//! (DESIGN.md *Admission*): reserve before the publisher's dependency
//! locks; a thread re-enters a stripe it holds; every mesh stamp the store
//! classifies or loads raises the clock, and a local write stamps one past
//! it — so a re-entrant write follows the stamp its holder classified (an
//! after-callback's write lands over the applied row; once a
//! before-callback's has committed, the apply skips its own row write,
//! whose stamp has lost), and a lost shard rewinds no clock.

use super::{StoreError, VersionStore, ADMISSION_STRIPES};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The calling thread's token: the address of its `THREAD`, never 0.
fn thread_token() -> usize {
    thread_local!(static THREAD: u8 = const { 0 });
    THREAD.with(|t| t as *const u8 as usize)
}

/// One stripe: its lock and its holder's thread token (0 while free;
/// `Relaxed`, as a thread only looks for its own).
#[derive(Default)]
pub(super) struct Stripe {
    lock: Mutex<()>,
    holder: AtomicUsize,
}

/// A multi-writer object's last-writer-wins stamp `(clock, writer)`: a
/// Lamport clock and the writing application's id, compared as a plain
/// ordered pair, so a later clock wins and the higher writer id breaks a
/// tie. A local write stamps one past its node's clock
/// ([`VersionStore::next_stamp`]), which every stamp the node classifies
/// or loads raises, so a write that saw another carries a greater stamp,
/// and two writes never share one.
pub type Stamp = (u64, u64);

/// Which comparison admits a carried version ([`Admission::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitRule {
    /// A live write: a version greater than *or equal to* the stored one
    /// applies (an equal version is a redelivery, and applies are
    /// idempotent upserts); a lower one is stale.
    Live,
    /// A bootstrap chunk copy: admitted only for an object with no
    /// admission state (marker 0 included — rows created before the copy
    /// started) or by a *strictly* greater version. Ties lose to the live
    /// stream, which holds the authoritative payload — a tying copy is the
    /// same publisher operation observed twice, and re-upserting it could
    /// resurrect a row whose destroy the live stream already applied.
    Copy,
}

/// Verdict of [`Admission::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The carried version is admitted under the rule: apply it.
    Fresh,
    /// The stored version already covers the carried one: discard it
    /// (§4.2: "the subscriber also discards any messages with a version
    /// lower than what is stored").
    Stale,
}

/// One object's version — what a write carries and, as the max over every
/// admitted write, what the store keeps for the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectVersion {
    /// A single-writer object: the publisher's `ops` count before the
    /// write (the value its object dependency carries). It is a value of a
    /// generation ([`crate::versioned`]), so a write of an older generation
    /// is stale against any version of a newer one.
    Scalar(u64),
    /// A multi-writer object: the [`Stamp`] of the content the version
    /// stands for. Keeping the max is order-independent, so two replicas
    /// that see the same writes converge on the same winner.
    Mesh(Stamp),
}

impl ObjectVersion {
    /// Folds `other` in: the max of two versions of one kind. A version of
    /// the other kind replaces `self`.
    pub(super) fn merge(&mut self, other: ObjectVersion) {
        use ObjectVersion::{Mesh, Scalar};
        match (&mut *self, other) {
            (Scalar(a), Scalar(b)) => *a = (*a).max(b),
            (Mesh(a), Mesh(b)) => *a = (*a).max(b),
            _ => *self = other,
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
        }
    }

    /// Reads a multi-writer object's stored stamp (`(0, 0)` when it has
    /// none), as the bootstrap copier sends it.
    pub fn latest_stamp(&self, object: u64) -> Result<Stamp, StoreError> {
        Ok(match self.maps_of(object)?.objects.get(&object) {
            Some(ObjectVersion::Mesh(stamp)) => *stamp,
            _ => (0, 0),
        })
    }

    /// Ticks the node's Lamport clock and returns a local write's stamp:
    /// one past every stamp the store has classified, loaded or handed
    /// out, under `writer`. The clock lives outside the shards, so killing
    /// one — or the whole store — leaves it where it was.
    pub fn next_stamp(&self, writer: u64) -> Stamp {
        (self.clock.fetch_add(1, Ordering::SeqCst) + 1, writer)
    }

    /// Raises the clock to `clock` (a stamp's, or a generation's floor).
    pub(super) fn raise_clock(&self, clock: u64) {
        self.clock.fetch_max(clock, Ordering::SeqCst);
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
}

impl Admission<'_> {
    /// Classifies `incoming` against the object's stored version under
    /// `rule`, changing nothing but the clock, which a mesh stamp raises.
    /// An object with no admission state admits anything; so does a stored
    /// version of the other kind, which only a 64-bit collision between a
    /// single-writer and a mesh name can leave.
    pub fn classify(
        &self,
        incoming: &ObjectVersion,
        rule: AdmitRule,
    ) -> Result<Verdict, StoreError> {
        use ObjectVersion::{Mesh, Scalar};
        if let Mesh((clock, _)) = *incoming {
            self.store.raise_clock(clock);
        }
        let stale = |behind: bool, tied: bool| behind || (tied && rule == AdmitRule::Copy);
        let maps = self.store.maps_of(self.object)?;
        let refused = match (*incoming, maps.objects.get(&self.object)) {
            (Scalar(a), Some(&Scalar(b))) => stale(a < b, a == b),
            (Mesh(a), Some(&Mesh(b))) => stale(a < b, a == b),
            _ => false,
        };
        Ok(if refused {
            Verdict::Stale
        } else {
            Verdict::Fresh
        })
    }

    /// Records `incoming` as stored — folded into the object's version, so
    /// replicas converge on the max version no matter the delivery order —
    /// and releases the object. Called once the write has finished.
    pub fn commit(self, incoming: &ObjectVersion) -> Result<(), StoreError> {
        self.store
            .maps_of(self.object)?
            .objects
            .entry(self.object)
            .and_modify(|stored| stored.merge(*incoming))
            .or_insert(*incoming);
        Ok(())
    }
}

impl Drop for Admission<'_> {
    /// A reservation that locked its stripe clears it before unlocking.
    fn drop(&mut self) {
        if self.lock.is_some() {
            self.stripe.holder.store(0, Ordering::Relaxed);
        }
    }
}

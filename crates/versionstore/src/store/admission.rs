//! The per-object admission script — reserve → classify → write → commit —
//! and the local stamp of a multi-writer object.

use super::{Maps, StoreError, VersionStore, ADMISSION_STRIPES};
use crate::vector::{Dominance, VersionVector};
use parking_lot::MutexGuard;

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
    /// currently stored. The resolver plane may honor it (LWW) or ignore it
    /// (merge callbacks).
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
    /// write (the value its object dependency carries).
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
    /// the exclusion alone.
    pub fn reserve(&self, object: u64) -> Admission<'_> {
        Admission {
            store: self,
            object,
            _stripe: self.stripes[(object % ADMISSION_STRIPES as u64) as usize].lock(),
        }
    }

    /// The publisher's vector stamp for a local write of a multi-writer
    /// object, as one script: read everything this node has recorded for
    /// the object, bump `writer`'s component, record the result (and its
    /// LWW stamp) and return it — so the write advertises exactly the
    /// history it follows, and an incoming commit can land before or after
    /// the stamp but never inside it.
    pub fn stamp(&self, object: u64, writer: u64) -> Result<VersionVector, StoreError> {
        let mut maps = self.maps_of(object)?;
        let mut vector = mesh_vector(&maps, object);
        vector.set(writer, vector.get(writer) + 1);
        let stamped = ObjectVersion::Mesh {
            winner: vector.lww_stamp(writer),
            vector: vector.clone(),
        };
        maps.objects
            .entry(object)
            .and_modify(|stored| stored.merge(&stamped))
            .or_insert(stamped);
        Ok(vector)
    }

    /// Reads a multi-writer object's recorded version vector (empty when
    /// it has none) — what the bootstrap copier sends as a bidirectional
    /// row's version.
    pub fn latest_vector(&self, object: u64) -> Result<VersionVector, StoreError> {
        Ok(mesh_vector(&*self.maps_of(object)?, object))
    }
}

/// The vector `maps` holds for `object`; empty unless it is a mesh object.
fn mesh_vector(maps: &Maps, object: u64) -> VersionVector {
    match maps.objects.get(&object) {
        Some(ObjectVersion::Mesh { vector, .. }) => vector.clone(),
        _ => VersionVector::new(),
    }
}

/// One object's reserved admission ([`VersionStore::reserve`]). Nothing is
/// recorded until [`Admission::commit`]: a guard dropped because the write
/// failed leaves the store exactly as it found it, so the redelivery is
/// classified from scratch against what actually landed.
pub struct Admission<'a> {
    store: &'a VersionStore,
    object: u64,
    _stripe: MutexGuard<'a, ()>,
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

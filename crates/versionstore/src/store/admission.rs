//! The per-object admission script — reserve → classify → write → commit —
//! and the local stamp of a multi-writer object.

use super::{DepKey, StoreError, VersionStore, ADMISSION_STRIPES};
use crate::vector::{Dominance, VersionVector};
use parking_lot::MutexGuard;

/// Which comparison admits a carried version ([`Admission::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitRule {
    /// A live write: a vector that dominates *or equals* the stored one
    /// applies (an equal vector is a redelivery, and applies are idempotent
    /// upserts), a dominated one is stale, a fork is a conflict.
    Live,
    /// A bootstrap chunk copy: admitted only against a key that was never
    /// explicitly versioned (marker 0 included — rows created before the
    /// copy started) or by *strict* dominance. Ties and forks lose to the
    /// live stream, which holds the authoritative payload — a tying copy is
    /// the same publisher operation observed twice, and re-upserting it
    /// could resurrect a row whose destroy the live stream already applied.
    Copy,
}

/// Verdict of [`Admission::classify`]: the dominance classification of a
/// carried vector against the stored per-object vector, with the store's
/// LWW verdict attached when the two are concurrent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorAdmit {
    /// The carried version is admitted under the rule: apply it.
    Fresh,
    /// The stored vector already covers the carried one: discard it (§4.2:
    /// "the subscriber also discards any messages with a version lower
    /// than what is stored").
    Stale,
    /// Neither history contains the other — a genuine multi-writer
    /// conflict ([`AdmitRule::Live`] only). `lww_wins` is the store's
    /// default verdict: whether the incoming version's LWW stamp (history
    /// length, then writer id) beats the stamp of the content currently
    /// stored. The resolver plane may honor it (LWW) or ignore it (merge
    /// callbacks).
    Concurrent {
        /// Whether the incoming version wins last-writer-wins.
        lww_wins: bool,
    },
}

impl VersionStore {
    /// Opens the admission script for one object: reserve → classify →
    /// write → commit. The returned guard holds the key's stripe — and no
    /// shard lock — until it is committed or dropped, so two applies of one
    /// object can never interleave verdict and write (the stale one landing
    /// last), while the caller's ORM write blocks nobody else's store
    /// traffic. An operation that carries no version still reserves its
    /// key, for the exclusion alone.
    pub fn reserve(&self, key: DepKey) -> Admission<'_> {
        Admission {
            store: self,
            key,
            _stripe: self.stripes[(key % ADMISSION_STRIPES as u64) as usize].lock(),
        }
    }

    /// The publisher's vector stamp for a local write of a multi-writer
    /// object, as one script: read everything this node has recorded for
    /// the object, bump `writer`'s component, record the result (and its
    /// LWW stamp) and return it — so the write advertises exactly the
    /// history it follows, and an incoming commit can land before or after
    /// the stamp but never inside it.
    pub fn stamp(&self, key: DepKey, writer: u64) -> Result<VersionVector, StoreError> {
        let mut entries = self.entries_of(key)?;
        let entry = entries.entry(key).or_default();
        entry.vector.set(writer, entry.vector.get(writer) + 1);
        entry.versioned = true;
        entry.note_stamp(entry.vector.lww_stamp(writer));
        Ok(entry.vector.clone())
    }
}

/// One object's reserved admission ([`VersionStore::reserve`]). Nothing is
/// recorded until [`Admission::commit`]: a guard dropped because the write
/// failed leaves the store exactly as it found it, so the redelivery is
/// classified from scratch against what actually landed.
pub struct Admission<'a> {
    store: &'a VersionStore,
    key: DepKey,
    _stripe: MutexGuard<'a, ()>,
}

impl Admission<'_> {
    /// Classifies `incoming` (the write's version vector, authored by
    /// `writer`) against the stored vector under `rule`, changing nothing.
    /// A single-writer write presents its scalar version as
    /// [`VersionVector::scalar`] under [`LEGACY_WRITER`](crate::LEGACY_WRITER): the legacy
    /// component's floor semantics make [`AdmitRule::Live`] read as
    /// `version >= stored` applies, older is stale.
    pub fn classify(
        &self,
        incoming: &VersionVector,
        writer: u64,
        rule: AdmitRule,
    ) -> Result<VectorAdmit, StoreError> {
        let entries = self.store.entries_of(self.key)?;
        let Some(entry) = entries.get(&self.key) else {
            return Ok(VectorAdmit::Fresh);
        };
        Ok(match (rule, incoming.compare(&entry.vector)) {
            (AdmitRule::Copy, _) if !entry.versioned => VectorAdmit::Fresh,
            (_, Dominance::Dominates) | (AdmitRule::Live, Dominance::Equal) => VectorAdmit::Fresh,
            (AdmitRule::Live, Dominance::Concurrent) => VectorAdmit::Concurrent {
                lww_wins: incoming.lww_stamp(writer) > (entry.winner_sum, entry.winner_writer),
            },
            _ => VectorAdmit::Stale,
        })
    }

    /// Records `incoming` as stored — the vector advances to the join, the
    /// key counts as explicitly versioned, and the LWW stamp is folded in,
    /// so replicas converge on the max-stamp version no matter the delivery
    /// order — and releases the key. Called once the write, or a
    /// resolution that keeps the local row, has finished.
    pub fn commit(self, incoming: &VersionVector, writer: u64) -> Result<(), StoreError> {
        let mut entries = self.store.entries_of(self.key)?;
        let entry = entries.entry(self.key).or_default();
        entry.vector.join(incoming);
        entry.versioned = true;
        entry.note_stamp(incoming.lww_stamp(writer));
        Ok(())
    }
}

//! Bulk dump and max-merge load of whole entries: the durability plane's
//! snapshot form and step 1 of bootstrap.

use super::{DepKey, StoreError, VersionStore};
use crate::vector::VersionVector;

/// One version-store entry in bulk form: the counter, the full per-writer
/// vector, the explicit-write flag and the LWW winner stamp, so freshness
/// marks, destroy tombstones, bootstrap watermarks *and*
/// conflict-resolution state survive a crash-restart. Every field but
/// `key` has a zero that [`VersionStore::load_dump`]'s max-merge reads as
/// "nothing to add" — step 1 of bootstrap sends `(key, ops)` that way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpEntry {
    /// The dependency key.
    pub key: DepKey,
    /// The dependency-counter value.
    pub ops: u64,
    /// Whether the vector was ever explicitly written (tombstones!).
    pub versioned: bool,
    /// LWW stamp of the currently-held content: total history length.
    pub winner_sum: u64,
    /// LWW stamp of the currently-held content: tie-break writer id.
    pub winner_writer: u64,
    /// Sorted `(writer, counter)` vector components.
    pub vector: Vec<(u64, u64)>,
}

impl VersionStore {
    /// Bulk-dumps all entries as [`DumpEntry`] values, sorted by key for a
    /// deterministic on-disk image — the durability plane's snapshot, and
    /// (projected to `(key, ops)`) step one of bootstrap (§4.4: "all
    /// current publisher versions are sent in bulk").
    pub fn dump(&self) -> Result<Vec<DumpEntry>, StoreError> {
        self.check_alive()?;
        let mut out = Vec::new();
        for shard in &self.shards {
            let entries = shard.entries.lock();
            out.extend(entries.iter().map(|(k, e)| DumpEntry {
                key: *k,
                ops: e.ops,
                versioned: e.versioned,
                winner_sum: e.winner_sum,
                winner_writer: e.winner_writer,
                vector: e.vector.components().to_vec(),
            }));
        }
        out.sort_unstable_by_key(|e| e.key);
        Ok(out)
    }

    /// Bulk-loads [`DumpEntry`] values, keeping the max of each counter
    /// (component-wise for the vector, stamp-wise for the winner, OR for
    /// the explicit-write flag) against any existing entry, and wakes
    /// waiters on touched shards. Max-merge makes the load idempotent and
    /// safe to combine with live traffic racing in after recovery.
    pub fn load_dump(&self, entries: &[DumpEntry]) -> Result<(), StoreError> {
        self.check_alive()?;
        let routes: Vec<usize> = entries.iter().map(|e| self.ring.route(e.key)).collect();
        let mut guards = self.lock_routed(&routes);
        for (dumped, shard_idx) in entries.iter().zip(&routes) {
            let entry = guards[*shard_idx]
                .as_mut()
                .expect("routed shard locked")
                .entry(dumped.key)
                .or_default();
            entry.ops = entry.ops.max(dumped.ops);
            entry
                .vector
                .join(&VersionVector::from_components(&dumped.vector));
            entry.versioned |= dumped.versioned;
            entry.note_stamp((dumped.winner_sum, dumped.winner_writer));
        }
        for (i, guard) in guards.into_iter().enumerate() {
            if let Some(guard) = guard {
                drop(guard);
                self.shards[i].changed.notify_all();
            }
        }
        Ok(())
    }
}

//! Bulk dump and max-merge load of a whole store, one section per map:
//! the durability plane's snapshot form and step 1 of bootstrap.

use super::{DepKey, ObjectVersion, StoreError, VersionStore};

/// A whole store in bulk form. The order of each section is unspecified:
/// [`VersionStore::load_dump`] max-merges entry by entry, so any order
/// loads to the same store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreDump {
    /// `(key, ops, version)` of every dependency counter.
    pub counters: Vec<(DepKey, u64, u64)>,
    /// Every object's admission state, by identity — destroy tombstones
    /// and multi-writer stamps included.
    pub objects: Vec<(u64, ObjectVersion)>,
}

impl VersionStore {
    /// Bulk-dumps both maps — the durability plane's snapshot and,
    /// from a publisher's store (which holds counters only), step one of
    /// bootstrap (§4.4: "all current publisher versions are sent in
    /// bulk").
    pub fn dump(&self) -> Result<StoreDump, StoreError> {
        if self.is_dead() {
            return Err(StoreError::Dead);
        }
        // Sized from a first pass, so the sections never regrow; entries
        // that land between the two passes only cost a regrowth.
        let mut sizes = [0; 2];
        for shard in &self.shards {
            let maps = shard.maps.lock();
            sizes[0] += maps.counters.len();
            sizes[1] += maps.objects.len();
        }
        let mut out = StoreDump {
            counters: Vec::with_capacity(sizes[0]),
            objects: Vec::with_capacity(sizes[1]),
        };
        for shard in &self.shards {
            let maps = shard.maps.lock();
            out.counters
                .extend(maps.counters.iter().map(|(k, c)| (*k, c.ops, c.version)));
            out.objects
                .extend(maps.objects.iter().map(|(k, v)| (*k, *v)));
        }
        Ok(out)
    }

    /// Bulk-loads a [`StoreDump`], keeping the max of everything against
    /// what is already stored — counters field-wise, object versions as
    /// admission commits them, each mesh stamp raising the clock — and
    /// wakes waiters on touched shards. Max-merge makes the load idempotent
    /// and safe to combine with live traffic racing in after recovery.
    pub fn load_dump(&self, dump: &StoreDump) -> Result<(), StoreError> {
        if self.is_dead() {
            return Err(StoreError::Dead);
        }
        let routes: Vec<usize> = (dump.counters.iter().map(|c| c.0))
            .chain(dump.objects.iter().map(|o| o.0))
            .map(|key| self.route(key))
            .collect();
        let (counter_routes, object_routes) = routes.split_at(dump.counters.len());
        // Entries routed to each shard, per section: each map is reserved
        // for them up front, so a restore never rehashes a growing table.
        let mut routed = vec![[0usize; 2]; self.shards.len()];
        for (section, routes) in [counter_routes, object_routes].iter().enumerate() {
            routes.iter().for_each(|&shard| routed[shard][section] += 1);
        }
        let mut guards = self.lock_routed(&routes);
        for (maps, [counters, objects]) in guards.iter_mut().zip(routed) {
            if let Some(maps) = maps {
                maps.counters.reserve(counters);
                maps.objects.reserve(objects);
            }
        }
        for (&(key, ops, version), shard) in dump.counters.iter().zip(counter_routes) {
            let maps = guards[*shard].as_mut().expect("routed shard locked");
            let counter = maps.counters.entry(key).or_default();
            counter.ops = counter.ops.max(ops);
            counter.version = counter.version.max(version);
        }
        for ((object, version), shard) in dump.objects.iter().zip(object_routes) {
            if let ObjectVersion::Mesh((clock, _)) = version {
                self.raise_clock(*clock);
            }
            let maps = guards[*shard].as_mut().expect("routed shard locked");
            maps.objects
                .entry(*object)
                .and_modify(|stored| stored.merge(*version))
                .or_insert(*version);
        }
        self.release_notify(guards);
        Ok(())
    }
}

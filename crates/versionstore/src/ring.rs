//! Dynamo-style consistent hash ring for sharding the version store.

/// A consistent hash ring mapping 64-bit keys onto `n` shards via virtual
/// nodes (§4.2: "Synapse shards the version store using a hash ring similar
/// to Dynamo").
///
/// # Examples
///
/// ```
/// use synapse_versionstore::HashRing;
///
/// let ring = HashRing::new(4, 16);
/// let shard = ring.route(42);
/// assert!(shard < 4);
/// assert_eq!(shard, ring.route(42), "routing is deterministic");
/// ```
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted ring positions and the shard that owns each.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds a ring with `shards` shards and `vnodes` virtual nodes per
    /// shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `vnodes` is zero.
    pub fn new(shards: usize, vnodes: usize) -> Self {
        assert!(shards > 0, "ring needs at least one shard");
        assert!(vnodes > 0, "ring needs at least one virtual node");
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for v in 0..vnodes {
                points.push((mix(((shard as u64) << 32) ^ v as u64), shard));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|(pos, _)| *pos);
        HashRing { points }
    }

    /// Routes a key to its owning shard (first ring point clockwise).
    pub fn route(&self, key: u64) -> usize {
        let h = mix(key);
        let idx = self.points.partition_point(|(pos, _)| *pos < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }
}

/// SplitMix64 finalizer — a cheap, well-distributed 64-bit mixer.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_takes_everything() {
        let ring = HashRing::new(1, 8);
        for k in 0..100 {
            assert_eq!(ring.route(k), 0);
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let ring = HashRing::new(8, 64);
        let mut counts = [0usize; 8];
        for k in 0..80_000u64 {
            counts[ring.route(k)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!((5_000..15_000).contains(c), "shard {i} got {c} of 80k keys");
        }
    }

    #[test]
    fn routing_is_stable() {
        let a = HashRing::new(4, 16);
        let b = HashRing::new(4, 16);
        for k in 0..1000 {
            assert_eq!(a.route(k), b.route(k));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = HashRing::new(0, 1);
    }
}

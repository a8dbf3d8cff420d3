//! Fixed-bucket power-of-two latency histograms.
//!
//! Recording is allocation-free and lock-free: the value's bit width picks
//! one of 64 buckets and three relaxed atomic bumps land it. Percentiles
//! are extracted nearest-rank from the bucket counts, reported as the
//! bucket's inclusive upper bound — a deterministic ≤2× overestimate,
//! which is the usual trade for O(1) untimed recording.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible bit width of a `u64` value.
pub const BUCKETS: usize = 64;

/// Bucket index for `value`: bucket 0 covers `[0, 2)`, bucket `i ≥ 1`
/// covers `[2^i, 2^(i+1))`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (63 - (value | 1).leading_zeros()) as usize
}

/// Inclusive `(low, high)` bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    debug_assert!(i < BUCKETS);
    let low = if i == 0 { 0 } else { 1u64 << i };
    let high = if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    };
    (low, high)
}

/// A concurrent power-of-two histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value: three relaxed atomic adds, no allocation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket counts. Recording meanwhile makes
    /// the copy *approximately* consistent (counts monotone, never torn per
    /// bucket), which is all a latency summary needs.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// An owned copy of a histogram's state, with percentile extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (bucket `i` covers `[2^i, 2^(i+1))`, bucket 0
    /// starts at 0).
    pub buckets: [u64; BUCKETS],
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Nearest-rank percentile (`p` in `(0, 1]`), reported as the inclusive
    /// upper bound of the bucket holding that rank. 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(BUCKETS - 1).1
    }

    /// Median (nearest-rank, bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th percentile (nearest-rank, bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Mean of the recorded values (exact: tracked by sum, not buckets).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 0 and 1 share bucket 0; every boundary value 2^i opens bucket i
        // and 2^i - 1 still lands in bucket i-1.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        for i in 2..64 {
            let low = 1u64 << i;
            assert_eq!(bucket_index(low), i, "2^{i} opens bucket {i}");
            assert_eq!(bucket_index(low - 1), i - 1, "2^{i}-1 stays below");
            if i < 63 {
                assert_eq!(bucket_index(low * 2 - 1), i, "top of bucket {i}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        let (lo0, hi0) = bucket_bounds(0);
        assert_eq!((lo0, hi0), (0, 1));
        for i in 1..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            let (_, prev_hi) = bucket_bounds(i - 1);
            assert_eq!(lo, prev_hi + 1, "buckets must tile without gaps");
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            assert!(hi >= lo);
        }
        assert_eq!(bucket_bounds(63).1, u64::MAX);
    }

    #[test]
    fn percentiles_walk_the_buckets_nearest_rank() {
        let h = Histogram::new();
        // 99 fast values and one slow outlier.
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1_000_000); // bucket 19
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50(), 127, "median reports bucket 6's upper bound");
        assert_eq!(s.p99(), 127, "p99 rank 99 still inside the fast bucket");
        assert_eq!(s.percentile(1.0), (1 << 20) - 1, "max hits the outlier");
        assert!((s.mean() - (99.0 * 100.0 + 1_000_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
    }
}

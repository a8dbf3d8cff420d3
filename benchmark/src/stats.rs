//! Clock, process accounting, order statistics and the seeded generator.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Process CPU time in microseconds: the sum, over the live threads, of
/// the nanoseconds each has run (`/proc/self/task/*/schedstat`, first
/// field). `/proc/self/stat` reports the same quantity rounded to 10 ms
/// clock ticks, which is too coarse for a sub-window of a second or two;
/// it is the fallback where schedstats are not compiled in. Threads that
/// exited since the last reading are missed — none do inside a phase.
pub fn cpu_time_us() -> u64 {
    let mut total_ns = 0u64;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let ran = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
            total_ns += ran
                .split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    if total_ns > 0 {
        return total_ns / 1_000;
    }
    const US_PER_TICK: u64 = 10_000;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * US_PER_TICK
}

/// CPU time of the calling thread, microseconds (0 without schedstats).
pub fn thread_cpu_us() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
        })
        .unwrap_or(0)
        / 1_000
}

/// One reading of the machine-speed yardstick: wall time, in nanoseconds,
/// of a fixed piece of standard-library work on the calling thread — small
/// allocations, string formatting, ordered-map inserts, look-ups and a
/// walk, then dependent arithmetic over a 64 KiB table. On a shared host
/// the same code runs up to twice as slowly for seconds or minutes at a
/// time while a neighbour is busy. Read while the system under test is
/// idle and printed with every report, it says whether a run that reads
/// slow was a slow run or a slow machine; no figure is scaled by it.
pub fn yardstick_ns() -> u64 {
    use std::collections::BTreeMap;
    const ROUNDS: usize = 2;
    const KEYS: usize = 48;
    const WORDS: usize = 8_192;
    const STEPS: usize = 2_500;
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new(vec![1; WORDS]);
    }
    let t0 = now_ns();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 24
    };
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        let mut map = BTreeMap::new();
        for _ in 0..KEYS {
            let key = step();
            map.insert(key, format!("value-{}", key & 0xffff));
        }
        for _ in 0..KEYS {
            acc += map.get(&step()).map_or(1, |v| v.len() as u64);
        }
        let joined: Vec<&str> = map.values().map(String::as_str).collect();
        acc += joined.join(",").len() as u64;
    }
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        for _ in 0..STEPS {
            let slot = step() as usize % WORDS;
            table[slot] = table[slot].wrapping_add(acc);
            acc ^= table[slot];
        }
    });
    std::hint::black_box(acc);
    now_ns() - t0
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample, interpolated between the two middle values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a sample (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 — an idle layer reports 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// splitmix64-seeded xorshift64*: the only source of randomness in a run,
/// so one `--seed` gives one input sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 0.5), 20);
        assert_eq!(percentile(&v, 0.99), 40);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert!((0..100).all(|_| a.next() == b.next()));
        assert_ne!(Rng::new(7).next(), Rng::new(8).next());
    }
}

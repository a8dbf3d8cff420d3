//! Primary keys for model instances.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Primary key of a model instance.
///
/// Ids are allocated by the *publisher* of a model (the paper's ownership
/// rule: only the owning service may create or delete instances, §3.1) and
/// travel verbatim to every subscriber, so an object is identified by the
/// same id in every database engine of the ecosystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Id(pub u64);

impl Id {
    /// Returns the raw numeric key.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Id {
    fn from(v: u64) -> Self {
        Id(v)
    }
}

/// Thread-safe allocator of monotonically increasing [`Id`]s.
///
/// One generator exists per model per publishing service; concurrent
/// application servers of the same service share it, mirroring a database
/// sequence.
///
/// # Examples
///
/// ```
/// use synapse_model::IdGenerator;
///
/// let gen = IdGenerator::new();
/// let a = gen.next_id();
/// let b = gen.next_id();
/// assert!(b > a);
/// ```
#[derive(Debug)]
pub struct IdGenerator {
    next: AtomicU64,
}

impl IdGenerator {
    /// Creates a generator starting at id 1.
    pub fn new() -> Self {
        IdGenerator {
            next: AtomicU64::new(1),
        }
    }

    /// Allocates the next id.
    pub fn next_id(&self) -> Id {
        Id(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Advances the generator so it will never re-issue `seen` — used when a
    /// subscriber is promoted to publisher during a live migration (§6.5)
    /// and must continue the id sequence it replicated.
    pub fn observe(&self, seen: Id) {
        self.next.fetch_max(seen.0 + 1, Ordering::Relaxed);
    }
}

impl Default for IdGenerator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotonic() {
        let g = IdGenerator::new();
        let ids: Vec<Id> = (0..100).map(|_| g.next_id()).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn observe_skips_past_seen_ids() {
        let g = IdGenerator::new();
        g.observe(Id(500));
        assert_eq!(g.next_id(), Id(501));
        // Observing an older id never rewinds.
        g.observe(Id(10));
        assert_eq!(g.next_id(), Id(502));
    }

    #[test]
    fn generator_is_safe_across_threads() {
        let g = std::sync::Arc::new(IdGenerator::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.next_id().raw()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8000, "ids must be unique across threads");
    }
}

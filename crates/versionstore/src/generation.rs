//! The reliably-stored generation number (§4.4), and the one layout that
//! puts it inside every dependency value, so that counts stay comparable
//! after a publisher's version store loses them.

use parking_lot::Mutex;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bits of a dependency value that hold its count; the generation sits
/// above them.
const COUNT_BITS: u32 = 40;

/// `count` in `generation` as one dependency value:
/// `(generation − 1) << 40 | count`. Integer order is `(generation,
/// count)` order, and a generation-1 value is its bare count.
pub fn versioned(generation: u64, count: u64) -> u64 {
    (generation.saturating_sub(1) << COUNT_BITS) | count
}

/// Where `value`'s generation starts: that generation's count 0.
pub(crate) fn generation_start(value: u64) -> u64 {
    value >> COUNT_BITS << COUNT_BITS
}

/// A shared, monotonically increasing generation counter — the paper's
/// Chubby/ZooKeeper stand-in, which unlike [`crate::VersionStore`] never
/// loses state: in memory ([`GenerationStore::new`]) or in a file
/// ([`GenerationStore::open`]).
///
/// # Examples
///
/// ```
/// use synapse_versionstore::GenerationStore;
///
/// let gens = GenerationStore::new();
/// assert_eq!(gens.current(), 1);
/// assert_eq!(gens.increment().unwrap(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GenerationStore {
    current: Arc<AtomicU64>,
    /// A durable store's file: one byte per generation, so its length is
    /// the generation. Appends cannot tear, and the file never shrinks.
    file: Option<Arc<Mutex<fs::File>>>,
}

impl GenerationStore {
    /// Creates a memory-only store at generation 1 (the value in
    /// Fig. 6(b)).
    pub fn new() -> Self {
        GenerationStore {
            current: Arc::new(AtomicU64::new(1)),
            file: None,
        }
    }

    /// Opens the store in the file `path` and counts the open as a restart:
    /// the generation becomes one past the file's (1 for a new file),
    /// written and fsynced before this returns.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        let file = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        if let Some(dir) = path.parent() {
            // Best effort, as for snapshots: the file's creation durable.
            let _ = fs::File::open(dir).and_then(|d| d.sync_all());
        }
        let store = GenerationStore {
            current: Arc::new(AtomicU64::new(file.metadata()?.len())),
            file: Some(Arc::new(Mutex::new(file))),
        };
        store.increment()?;
        Ok(store)
    }

    /// Reads the current generation.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::SeqCst)
    }

    /// Increments and returns the new generation, which a durable store
    /// appends and fsyncs first. On an error the increment holds in
    /// memory, but the file may still name the generation before.
    pub fn increment(&self) -> io::Result<u64> {
        let Some(file) = &self.file else {
            return Ok(self.current.fetch_add(1, Ordering::SeqCst) + 1);
        };
        let mut file = file.lock();
        let generation = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        file.write_all(b"+")?;
        file.sync_data()?;
        Ok(generation)
    }
}

impl Default for GenerationStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_one_and_increments() {
        let g = GenerationStore::new();
        assert_eq!(g.current(), 1);
        assert_eq!(g.increment().unwrap(), 2);
        assert_eq!(g.current(), 2);
    }

    #[test]
    fn clones_share_state() {
        let g = GenerationStore::new();
        let g2 = g.clone();
        g.increment().unwrap();
        assert_eq!(g2.current(), 2);
    }

    #[test]
    fn every_durable_open_is_a_restart_and_increments_persist() {
        let dir = std::env::temp_dir().join(format!("synapse-gen-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("generation");
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(GenerationStore::open(&path).unwrap().current(), 1);
        let reopened = GenerationStore::open(&path).unwrap();
        assert_eq!(reopened.current(), 2);
        assert_eq!(reopened.increment().unwrap(), 3);
        assert_eq!(GenerationStore::open(&path).unwrap().current(), 4);
        assert_eq!(fs::read(&path).unwrap().len(), 4, "one byte a generation");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn values_order_by_generation_then_count() {
        assert_eq!(versioned(1, 41), 41, "generation 1 is the bare count");
        assert!(versioned(3, 0) > versioned(2, (1 << COUNT_BITS) - 1));
        assert!(versioned(2, 5) < versioned(2, 6));
        assert_eq!(generation_start(versioned(4, 9)), versioned(4, 0));
        assert_eq!(generation_start(9), 0);
    }
}

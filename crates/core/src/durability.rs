//! Node-level durability: periodic version-store snapshots.
//!
//! The broker WAL makes queue state recoverable; this module covers the
//! other half of a node's soft state — its publisher- and subscriber-side
//! version stores, each a [`StoreDump`] of two sections: dependency
//! counters and object admission state (freshness marks, destroy
//! tombstones, multi-writer LWW stamps). A [`NodeSnapshot`] is a full
//! dump of both stores plus the broker WAL position at capture time, so
//! recovery is: load the latest snapshot, then let WAL replay and a
//! bootstrap close the gap between the snapshot and the crash. The
//! bootstrap starts at the first row, and the snapshot's admission state
//! refuses every copy a row already had.
//!
//! # On-disk format
//!
//! One file per snapshot, `state-<seq>.snap`, written atomically: encode
//! to `state-<seq>.snap.tmp`, fsync, rename, fsync again — a crash
//! mid-write leaves a `.tmp` that [`SnapshotStore::load_latest`] ignores,
//! never a half-readable snapshot. The body reuses the broker WAL codec
//! (length-prefixed little-endian fields) and is covered by a whole-body
//! CRC32, so a corrupted snapshot is skipped in favor of the next-older
//! valid one rather than trusted.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use synapse_broker::wal::{crc32, put_u32, put_u64, ByteReader};
use synapse_broker::LogPos;
use synapse_versionstore::{ObjectVersion, StoreDump};

// SYNSNAP6: each store is two sections — counters `(key, ops, version)`
// and objects `(identity, tag, version)`, a mesh version being its stamp
// `(clock, writer)`. A file with any other magic (an older format
// included) fails the magic check and recovery falls back to an older
// snapshot or to full WAL replay + bootstrap, which is always safe.
const SNAPSHOT_MAGIC: &[u8; 8] = b"SYNSNAP6";
/// The magic and the body CRC that follows it.
const HEADER_LEN: usize = SNAPSHOT_MAGIC.len() + 4;

/// Object-section tags.
const SCALAR: u8 = 0;
const MESH: u8 = 1;

/// A point-in-time image of one node's version state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeSnapshot {
    /// Monotonic snapshot sequence number (for file naming and pruning).
    pub seq: u64,
    /// Broker WAL position when the snapshot was captured; the log tail
    /// from here forward is what recovery still has to replay.
    pub wal_pos: LogPos,
    /// Publisher-store dump.
    pub pub_store: StoreDump,
    /// Subscriber-store dump — its object admission state, destroy
    /// tombstones included, is what lets the bootstrap after a restart
    /// refuse every row it already copied without resurrecting deleted
    /// rows.
    pub sub_store: StoreDump,
}

fn put_dump(out: &mut Vec<u8>, dump: &StoreDump) {
    put_u32(out, dump.counters.len() as u32);
    for &(key, ops, version) in &dump.counters {
        put_u64(out, key);
        put_u64(out, ops);
        put_u64(out, version);
    }
    put_u32(out, dump.objects.len() as u32);
    for (object, version) in &dump.objects {
        put_u64(out, *object);
        match version {
            ObjectVersion::Scalar(v) => {
                out.push(SCALAR);
                put_u64(out, *v);
            }
            ObjectVersion::Mesh((clock, writer)) => {
                out.push(MESH);
                put_u64(out, *clock);
                put_u64(out, *writer);
            }
        }
    }
}

/// Reads one section's count; a corrupt count must not OOM, so it may not
/// exceed `cap` (every entry takes at least 16 bytes).
fn take_count(r: &mut ByteReader<'_>, cap: usize) -> Option<usize> {
    Some(r.take_u32()? as usize).filter(|n| *n <= cap)
}

fn take_dump(r: &mut ByteReader<'_>, cap: usize) -> Option<StoreDump> {
    let n = take_count(r, cap)?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push((r.take_u64()?, r.take_u64()?, r.take_u64()?));
    }
    let n = take_count(r, cap)?;
    let mut objects = Vec::with_capacity(n);
    for _ in 0..n {
        let object = r.take_u64()?;
        let version = match r.take_u8()? {
            SCALAR => ObjectVersion::Scalar(r.take_u64()?),
            MESH => ObjectVersion::Mesh((r.take_u64()?, r.take_u64()?)),
            _ => return None,
        };
        objects.push((object, version));
    }
    Some(StoreDump { counters, objects })
}

impl NodeSnapshot {
    /// Entries across both stores and all their sections.
    pub(crate) fn entries(&self) -> usize {
        [&self.pub_store, &self.sub_store]
            .iter()
            .map(|d| d.counters.len() + d.objects.len())
            .sum()
    }

    /// Encodes the snapshot under sequence `seq` (the store assigns it, so
    /// the caller's `self.seq` is not read). One buffer: the magic, a CRC
    /// slot filled in once the body behind it is written, then the body.
    fn encode(&self, seq: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 48 + 24 * self.entries());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(&mut out, 0);
        put_u64(&mut out, seq);
        put_u64(&mut out, self.wal_pos.segment);
        put_u64(&mut out, self.wal_pos.offset);
        put_dump(&mut out, &self.pub_store);
        put_dump(&mut out, &self.sub_store);
        let crc = crc32(&out[HEADER_LEN..]);
        out[SNAPSHOT_MAGIC.len()..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Option<NodeSnapshot> {
        let body = bytes.strip_prefix(SNAPSHOT_MAGIC)?;
        let mut r = ByteReader::new(body);
        let crc = r.take_u32()?;
        if crc32(&body[4..]) != crc {
            return None;
        }
        let seq = r.take_u64()?;
        let wal_pos = LogPos {
            segment: r.take_u64()?,
            offset: r.take_u64()?,
        };
        let cap = bytes.len() / 16;
        let snapshot = NodeSnapshot {
            seq,
            wal_pos,
            pub_store: take_dump(&mut r, cap)?,
            sub_store: take_dump(&mut r, cap)?,
        };
        if r.remaining() != 0 {
            return None;
        }
        Some(snapshot)
    }
}

/// Counters over a [`SnapshotStore`]'s lifetime.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshots persisted successfully.
    pub persisted: u64,
    /// Bytes written by those persists, headers included.
    pub bytes_persisted: u64,
    /// Persists aborted by the armed mid-write fault.
    #[cfg(any(test, feature = "testing"))]
    pub interrupted: u64,
    /// Corrupt or torn snapshot files skipped during load.
    pub skipped_corrupt: u64,
}

/// Directory of atomic, CRC-covered snapshot files.
pub struct SnapshotStore {
    dir: PathBuf,
    next_seq: AtomicU64,
    /// Crash fault: the next persist writes a partial `.tmp` and errors
    /// before the rename — the snapshot never becomes visible.
    #[cfg(any(test, feature = "testing"))]
    interrupt_next: std::sync::atomic::AtomicBool,
    persisted: AtomicU64,
    bytes_persisted: AtomicU64,
    #[cfg(any(test, feature = "testing"))]
    interrupted: AtomicU64,
    skipped_corrupt: AtomicU64,
}

fn parse_seq(name: &str) -> Option<u64> {
    name.strip_prefix("state-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

impl SnapshotStore {
    /// Opens (or creates) the snapshot directory. Stale `.tmp` files from
    /// interrupted persists are removed; the next sequence number follows
    /// the highest existing snapshot.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SnapshotStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut max_seq = 0u64;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            } else if let Some(seq) = parse_seq(&name) {
                max_seq = max_seq.max(seq);
            }
        }
        Ok(SnapshotStore {
            dir,
            next_seq: AtomicU64::new(max_seq + 1),
            #[cfg(any(test, feature = "testing"))]
            interrupt_next: std::sync::atomic::AtomicBool::new(false),
            persisted: AtomicU64::new(0),
            bytes_persisted: AtomicU64::new(0),
            #[cfg(any(test, feature = "testing"))]
            interrupted: AtomicU64::new(0),
            skipped_corrupt: AtomicU64::new(0),
        })
    }

    /// The snapshot directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persists a snapshot atomically (tmp + fsync + rename) and prunes
    /// every older snapshot file. The store assigns the sequence number;
    /// the caller's `snapshot.seq` is ignored. Returns the assigned
    /// sequence.
    pub(crate) fn persist(&self, snapshot: &NodeSnapshot) -> io::Result<u64> {
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let bytes = snapshot.encode(seq);
        let final_path = self.dir.join(format!("state-{seq}.snap"));
        let tmp_path = self.dir.join(format!("state-{seq}.snap.tmp"));

        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&tmp_path)?;
        // Mid-write crash fault: leave a torn `.tmp` behind and fail —
        // the rename never happens, so the older snapshot stays latest.
        #[cfg(any(test, feature = "testing"))]
        if self.interrupt_next.swap(false, Ordering::AcqRel) {
            let cut = (bytes.len() / 2).max(1);
            file.write_all(&bytes[..cut])?;
            file.sync_all()?;
            self.interrupted.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other(
                "snapshot persist interrupted by injected fault",
            ));
        }
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp_path, &final_path)?;
        // Fsync the directory so the rename itself is durable.
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        self.persisted.fetch_add(1, Ordering::Relaxed);
        self.bytes_persisted
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);

        // Prune: everything older than the snapshot just written.
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if parse_seq(&name).is_some_and(|s| s < seq) {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(seq)
    }

    /// Loads the newest valid snapshot, or `None` on a fresh directory.
    /// Torn/corrupt files (bad magic, bad CRC, truncated body) are
    /// skipped — load falls back to the next-older valid snapshot.
    pub fn load_latest(&self) -> io::Result<Option<NodeSnapshot>> {
        let mut seqs: Vec<u64> = fs::read_dir(&self.dir)?
            .filter_map(|entry| parse_seq(&entry.ok()?.file_name().into_string().ok()?))
            .collect();
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        for seq in seqs {
            let path = self.dir.join(format!("state-{seq}.snap"));
            let bytes = fs::read(&path)?;
            match NodeSnapshot::decode(&bytes) {
                Some(snapshot) => return Ok(Some(snapshot)),
                None => {
                    self.skipped_corrupt.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(None)
    }

    /// Crash fault: the next persist
    /// ([`SynapseNode::persist_snapshot`](crate::SynapseNode::persist_snapshot))
    /// writes a partial
    /// temp file and errors before the rename, leaving the previous
    /// snapshot as the latest.
    #[cfg(any(test, feature = "testing"))]
    pub fn inject_interrupt_next(&self) {
        self.interrupt_next.store(true, Ordering::Release);
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            persisted: self.persisted.load(Ordering::Relaxed),
            bytes_persisted: self.bytes_persisted.load(Ordering::Relaxed),
            #[cfg(any(test, feature = "testing"))]
            interrupted: self.interrupted.load(Ordering::Relaxed),
            skipped_corrupt: self.skipped_corrupt.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn temp_dir(label: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("synapse-snap-{label}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> NodeSnapshot {
        NodeSnapshot {
            seq: 0,
            wal_pos: LogPos {
                segment: 3,
                offset: 911,
            },
            pub_store: StoreDump {
                counters: vec![(1, 10, 10), (2, 5, 0)],
                ..StoreDump::default()
            },
            sub_store: StoreDump {
                counters: vec![(1, 9, 0)],
                objects: vec![
                    (40, ObjectVersion::Scalar(0)),
                    (77, ObjectVersion::Mesh((7, 22))),
                ],
            },
        }
    }

    /// `sample()` under sequence 0, as the `SYNSNAP6` encoder first wrote
    /// it, field by field. A change here changes the bytes on disk, and
    /// that needs a new magic.
    const GOLDEN: &str = concat!(
        "53594e534e415036", // magic
        "a233eda2",         // body CRC
        "0000000000000000", // seq
        "0300000000000000", // wal_pos.segment
        "8f03000000000000", // wal_pos.offset
        // pub_store: counters (1, 10, 10), (2, 5, 0); no objects
        "02000000",
        "0100000000000000",
        "0a00000000000000",
        "0a00000000000000",
        "0200000000000000",
        "0500000000000000",
        "0000000000000000",
        "00000000",
        // sub_store: counter (1, 9, 0)
        "01000000",
        "0100000000000000",
        "0900000000000000",
        "0000000000000000",
        // objects: 40 scalar 0; 77 mesh, stamp (7, 22)
        "02000000",
        "2800000000000000",
        "00",
        "0000000000000000",
        "4d00000000000000",
        "01",
        "0700000000000000",
        "1600000000000000",
    );

    #[test]
    fn snapshot_encoding_matches_the_golden_bytes() {
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(sample().encode(0), golden);
        assert_eq!(NodeSnapshot::decode(&golden), Some(sample()));
    }

    #[test]
    fn snapshot_encoding_round_trips() {
        let snap = sample();
        let encoded = snap.encode(snap.seq);
        assert_eq!(NodeSnapshot::decode(&encoded), Some(snap));
        // Any truncation is rejected, never a panic.
        for cut in 0..encoded.len() {
            assert_eq!(NodeSnapshot::decode(&encoded[..cut]), None);
        }
        // A flipped body byte fails the CRC.
        let mut corrupt = encoded.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert_eq!(NodeSnapshot::decode(&corrupt), None);
    }

    #[test]
    fn persist_load_and_prune() {
        let dir = temp_dir("roundtrip");
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.load_latest().unwrap(), None);
        let seq1 = store.persist(&sample()).unwrap();
        let mut newer = sample();
        newer.pub_store.counters.push((99, 1, 1));
        let seq2 = store.persist(&newer).unwrap();
        assert!(seq2 > seq1);
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.seq, seq2);
        assert_eq!(loaded.pub_store.counters.len(), 3, "latest snapshot wins");
        // The older file was pruned.
        let files: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(files.len(), 1);
        let sizes = [sample().encode(0).len(), newer.encode(0).len()];
        assert_eq!(
            store.stats().bytes_persisted,
            (sizes[0] + sizes[1]) as u64,
            "both persists counted"
        );
        assert_eq!(files[0].metadata().unwrap().len(), sizes[1] as u64);
        // A reopened store continues the sequence past the survivor.
        let reopened = SnapshotStore::open(&dir).unwrap();
        let seq3 = reopened.persist(&sample()).unwrap();
        assert!(seq3 > seq2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_persist_keeps_the_previous_snapshot() {
        let dir = temp_dir("interrupt");
        let store = SnapshotStore::open(&dir).unwrap();
        let seq1 = store.persist(&sample()).unwrap();
        store.inject_interrupt_next();
        let mut newer = sample();
        newer.sub_store = StoreDump::default();
        assert!(store.persist(&newer).is_err(), "interrupted persist fails");
        assert_eq!(store.stats().interrupted, 1);
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.seq, seq1, "previous snapshot is still latest");
        assert_eq!(loaded.sub_store, sample().sub_store);
        // The torn .tmp is swept on reopen and never loaded.
        let reopened = SnapshotStore::open(&dir).unwrap();
        assert_eq!(reopened.load_latest().unwrap().unwrap().seq, seq1);
        assert!(fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A CRC-valid file under any magic but the current one (here the
    /// retired SYNSNAP3) is rejected, not trusted: counted as skipped,
    /// an older current-format snapshot is preferred, and with none the
    /// load reports no snapshot (recovery then replays the WAL).
    #[test]
    fn unknown_snapshot_magic_is_rejected_not_trusted() {
        let dir = temp_dir("magic");
        let store = SnapshotStore::open(&dir).unwrap();
        let mut foreign = sample().encode(0);
        foreign[..8].copy_from_slice(b"SYNSNAP3");
        fs::write(dir.join("state-9.snap"), &foreign).unwrap();
        assert_eq!(store.load_latest().unwrap(), None);
        assert_eq!(store.stats().skipped_corrupt, 1);

        // The store opened on an empty directory, so this persist takes a
        // sequence below the foreign file's and does not prune it.
        let seq = store.persist(&sample()).unwrap();
        assert!(seq < 9);
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(
            loaded.seq, seq,
            "the older current-format file is preferred"
        );
        assert_eq!(store.stats().skipped_corrupt, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_latest_falls_back_to_older_valid_snapshot() {
        let dir = temp_dir("fallback");
        let store = SnapshotStore::open(&dir).unwrap();
        let seq1 = store.persist(&sample()).unwrap();
        // Forge a newer file with garbage contents (prune has removed
        // older files, so write it by hand past the live one).
        fs::write(dir.join(format!("state-{}.snap", seq1 + 5)), b"garbage").unwrap();
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.seq, seq1, "corrupt newer file is skipped");
        assert_eq!(store.stats().skipped_corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}

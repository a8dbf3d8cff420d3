//! The append-only segmented write-ahead log under the broker.
//!
//! Every queue mutation that must survive a process crash — enqueue, ack,
//! dead-letter, decommission, reinstate, and periodic per-queue
//! checkpoints — is framed and appended here before (or atomically with)
//! the in-memory state change. Recovery is a pure fold over the log:
//! re-open the directory, replay every decodable frame, and rebuild the
//! queues.
//!
//! # Segment format
//!
//! The log is a directory of fixed-name segment files
//! (`segment-00000000.wal`, `segment-00000001.wal`, …), each beginning
//! with a 16-byte header: the 8-byte magic `SYNWAL01` followed by the
//! segment index as a little-endian `u64`. After the header come
//! length-prefixed, CRC-framed entries:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! A frame whose length overruns the file, whose CRC mismatches, or whose
//! payload fails to decode marks the *torn tail*: replay stops there, the
//! file is truncated back to the last good frame, and the drop is counted.
//! Torn tails are expected — they are what a crash mid-append leaves
//! behind — and recovery must treat them as "these records never
//! happened", which is safe because an entry is only acknowledged upward
//! after its append returns.
//!
//! # Fsync policy
//!
//! [`FsyncPolicy`] controls when appends are flushed to stable storage:
//! never (`Off`), every `n` committed groups (`Interval`), or before every append
//! returns (`EveryWrite`). The distinction only matters across a *power
//! failure*; a mere process crash loses nothing that reached the OS. The
//! fault plane models power failure with
//! [`Wal::simulate_power_failure`], which discards everything after the
//! last synced offset — so a soak running `EveryWrite` asserts zero loss
//! of confirmed appends, while `Off`/`Interval` runs assert only the
//! at-least-once envelope (the publisher journal re-covers the lost
//! tail).
//!
//! # Group commit
//!
//! Appenders frame records into thread-local buffers *outside* every
//! WAL lock and stage them into a shared batch under a short-lived
//! staging lock. This is the only append path. The first stager
//! becomes the *leader*: it takes the whole staged batch, releases the
//! staging lock (so the next epoch keeps filling), writes the batch with
//! one syscall and at most one policy fsync under the IO lock, then
//! publishes the batch's *commit epoch* and wakes the followers parked
//! on it. One lock hand-off and one fsync thereby amortize over every
//! record staged while the previous commit was in flight. A leader
//! never lingers for co-committers: depth comes from what stages while
//! the previous write is in flight. Enqueues block until their epoch
//! commits — a publish confirmed upward is on the log. Ack,
//! dead-letter, and lifecycle records ride the non-blocking lane
//! ([`Wal::append_relaxed`]): they are staged and the call returns
//! without waiting out the write or fsync — losing that staged tail in
//! a crash merely redelivers, which the at-least-once envelope already
//! allows.
//!
//! # Checkpoints and GC
//!
//! A checkpoint is not a side file: it is a [`WalRecord::Checkpoint`]
//! entry per queue, written into a *fresh* segment
//! ([`Wal::begin_checkpoint`] rolls first). Replay applies a checkpoint
//! by *replacing* the queue's pending state, so entries that interleave
//! between the roll and the checkpoint write are absorbed (they
//! happened-before the checkpoint under the queue lock and are therefore
//! contained in it). Once every queue's checkpoint is written *and
//! synced*, all strictly older segments are unreferenced and
//! [`Wal::gc_before`] deletes them. A crash anywhere in that protocol is
//! safe: the old segments are still on disk until the sync completes.

mod codec;
mod group;
#[cfg(test)]
pub(crate) mod tests;

pub use codec::{
    crc32, frame_enqueue_into, frame_record_into, put_str, put_u32, put_u64, ByteReader, WalRecord,
};

use codec::{FRAME_HEADER_LEN, MAX_FRAME_LEN};
use group::{GroupInner, PendingSync};
use parking_lot::{Condvar, Mutex};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use synapse_telemetry::{Histogram, HistogramSnapshot};

/// Magic bytes opening every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"SYNWAL01";
/// Segment header: magic + little-endian segment index.
const SEGMENT_HEADER_LEN: u64 = 16;
/// Upper bound on how much of a segment is physically preallocated.
/// Oversized (or effectively unbounded, `u64::MAX`-in-tests) segment
/// configs get this much metadata-free runway; appends past it extend
/// the file normally and pay the journal again — correctness is
/// unaffected either way.
const PREALLOC_MAX_BYTES: u64 = 64 << 20;

/// When appends are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync (fastest; a power failure may lose the whole tail).
    Off,
    /// Fsync every `n` committed groups (and on segment roll). The
    /// group is the unit of append, so a 64-frame group costs the same
    /// share of an fsync as a 1-frame one; the loss window is `n`
    /// groups, bounded in bytes by `n * GROUP_MAX_BYTES`.
    Interval(u32),
    /// Fsync before every append returns (a confirmed append is durable).
    EveryWrite,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Interval(64)
    }
}

/// Configuration of a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Roll to a new segment once the active one reaches this size.
    pub segment_max_bytes: u64,
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
}

impl WalConfig {
    /// A config with the default segment size (256 KiB) and fsync
    /// policy.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_max_bytes: 256 << 10,
            fsync: FsyncPolicy::default(),
        }
    }

    /// Sets the segment roll threshold.
    pub fn segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes;
        self
    }

    /// Sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }
}

/// A position in the log: segment index and byte offset within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct LogPos {
    /// Segment index.
    pub segment: u64,
    /// Byte offset within the segment (header included).
    pub offset: u64,
}

/// Counters over one [`Wal`]'s lifetime (replay counters cover the
/// `open` that produced it).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Bytes appended (frames included).
    pub bytes_appended: u64,
    /// Fsyncs issued.
    pub fsyncs: u64,
    /// Segment rolls (checkpoint rolls included).
    pub segments_rolled: u64,
    /// Whole segment files removed by GC.
    pub segments_removed: u64,
    /// Entries replayed at open.
    pub replayed_entries: u64,
    /// Torn/corrupt frames dropped (and truncated) at open.
    pub torn_entries_dropped: u64,
    /// Fsyncs swallowed by the armed dropped-fsync fault.
    pub fsyncs_dropped: u64,
    /// Group commits led (batches written).
    pub group_commits: u64,
}

/// Summary of the replay performed by [`Wal::open`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Segment files scanned.
    pub segments_scanned: u64,
    /// Records decoded and returned.
    pub entries_replayed: u64,
    /// Torn/corrupt frames dropped (the file was truncated back).
    pub torn_entries_dropped: u64,
    /// Bytes scanned across all segments.
    pub bytes_scanned: u64,
}

#[derive(Debug)]
struct WalInner {
    file: File,
    segment: u64,
    /// Write offset in the active segment (header included).
    offset: u64,
    /// Offset known durable (advanced by fsync; reset on roll).
    synced_offset: u64,
    /// Committed groups since the last fsync was *initiated* (for
    /// `FsyncPolicy::Interval`, which counts groups, not frames).
    unsynced_groups: u32,
}

/// The segmented write-ahead log. Internally locked; share via `Arc`.
#[derive(Debug)]
pub struct Wal {
    shared: Arc<WalShared>,
    /// Due interval syncs are handed to the background flusher through
    /// here; `None` when no flusher is running (policies whose syncs
    /// complete in the caller).
    sync_tx: Mutex<Option<mpsc::Sender<PendingSync>>>,
    /// The flusher itself, joined on drop so a closing log never
    /// abandons an fsync it already initiated.
    flusher: Option<std::thread::JoinHandle<()>>,
}

/// Everything the log actually is — shared between the public handle
/// and the background sync flusher. [`Wal`] derefs here, so the split
/// is invisible to every call site.
#[derive(Debug)]
pub struct WalShared {
    cfg: WalConfig,
    inner: Mutex<WalInner>,
    /// Group-commit staging state; lock order is `group` before `inner`,
    /// and a leader drops `group` for the IO phase.
    group: Mutex<GroupInner>,
    /// Parks followers until their epoch commits (and backpressured
    /// stagers until the in-flight batch drains).
    group_cv: Condvar,
    /// Lock-free mirror of `GroupInner::committed_epoch` (published under
    /// the group lock): followers spin on this for the few microseconds a
    /// group write takes before paying a futex park.
    committed_cell: AtomicU64,
    /// True while a pipelined interval fsync is running off-lock. At
    /// most one is ever in flight: initiation is gated on this flag,
    /// so a slow disk accumulates sync *debt* (the interval counters
    /// keep growing) instead of a pileup of concurrent fsyncs all
    /// stalling the same inode.
    sync_inflight: AtomicBool,
    /// Set once a crash fault fired (or a real IO error poisoned the
    /// log); every later append fails fast.
    poisoned: AtomicBool,
    /// Fault arming: the next append writes only this many frame bytes,
    /// then poisons (kill mid-append). `u64::MAX` = disarmed.
    partial_append_keep: AtomicU64,
    /// Fault arming: swallow the next `n` fsyncs (dropped-fsync fault).
    drop_fsyncs: AtomicU64,
    appends: AtomicU64,
    bytes_appended: AtomicU64,
    fsyncs: AtomicU64,
    fsyncs_dropped: AtomicU64,
    segments_rolled: AtomicU64,
    segments_removed: AtomicU64,
    replayed_entries: AtomicU64,
    torn_entries_dropped: AtomicU64,
    group_commits: AtomicU64,
    /// Frames per group commit.
    group_size: Histogram,
    /// Nanoseconds followers spent parked waiting for their epoch.
    commit_wait: Histogram,
}

impl std::ops::Deref for Wal {
    type Target = WalShared;

    fn deref(&self) -> &WalShared {
        &self.shared
    }
}

/// Error returned by appends after the log was poisoned by a crash fault.
fn poisoned_err() -> io::Error {
    io::Error::other("wal poisoned by injected crash fault")
}

fn segment_path(dir: &std::path::Path, index: u64) -> PathBuf {
    dir.join(format!("segment-{index:08}.wal"))
}

fn write_segment_header(file: &mut File, index: u64) -> io::Result<()> {
    let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
    header[..8].copy_from_slice(SEGMENT_MAGIC);
    header[8..].copy_from_slice(&index.to_le_bytes());
    file.write_all(&header)
}

/// How many bytes of a fresh segment to physically preallocate: the
/// roll threshold, floored at one header's worth and capped at
/// [`PREALLOC_MAX_BYTES`].
fn prealloc_capacity(segment_max_bytes: u64) -> u64 {
    segment_max_bytes.clamp(SEGMENT_HEADER_LEN + 1, PREALLOC_MAX_BYTES)
}

/// Physically zero-fills `file` from `from` to `len` and makes the
/// allocation durable, leaving the cursor at the start.
///
/// Segments are preallocated so the steady-state policy sync is a pure
/// data writeback: with the blocks and the file size already journaled,
/// `fdatasync` never has to commit metadata, and (decisively, for the
/// pipelined group-commit sync) never stalls concurrent appends to the
/// same inode behind a journal flush. The zeroes have to be *written*,
/// not `set_len`-sparse — a hole would defer extent allocation to the
/// first real append, dragging the journal right back into the hot
/// path. Appends then overwrite in place at the tracked offset (the
/// segment files are no longer opened `O_APPEND`), and replay treats an
/// all-zero tail as the clean end of the log.
fn preallocate(file: &mut File, from: u64, len: u64) -> io::Result<()> {
    const CHUNK: usize = 64 << 10;
    if from < len {
        let zeros = vec![0u8; CHUNK.min((len - from) as usize)];
        file.seek(SeekFrom::Start(from))?;
        let mut left = len - from;
        while left > 0 {
            let n = left.min(zeros.len() as u64) as usize;
            file.write_all(&zeros[..n])?;
            left -= n as u64;
        }
        file.sync_all()?;
    }
    file.seek(SeekFrom::Start(0))?;
    Ok(())
}

impl Wal {
    /// Opens (or creates) the log at `cfg.dir`, replaying every decodable
    /// record. Returns the live log, the replayed records in append
    /// order, and the replay summary. A torn tail is truncated away; a
    /// corrupt frame in a non-final segment also stops replay there
    /// (nothing after a hole can be trusted to apply in order).
    pub fn open(cfg: WalConfig) -> io::Result<(Wal, Vec<WalRecord>, ReplaySummary)> {
        fs::create_dir_all(&cfg.dir)?;
        let mut indexes: Vec<u64> = fs::read_dir(&cfg.dir)?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let index = name
                    .strip_prefix("segment-")?
                    .strip_suffix(".wal")?
                    .parse()
                    .ok()?;
                Some(index)
            })
            .collect();
        indexes.sort_unstable();

        let mut records = Vec::new();
        let mut summary = ReplaySummary::default();
        let mut stop = false;
        // Valid end of the last (active) segment — with preallocation
        // the file length is the segment's *capacity*, so the write
        // position must come from replay, not from metadata.
        let mut active_end: u64 = 0;
        for (i, &index) in indexes.iter().enumerate() {
            if stop {
                // A hole mid-log: later segments cannot be applied in
                // order, so they are dropped (counted, not silently).
                summary.torn_entries_dropped += 1;
                let _ = fs::remove_file(segment_path(&cfg.dir, index));
                continue;
            }
            let is_last = i == indexes.len() - 1;
            let path = segment_path(&cfg.dir, index);
            let bytes = fs::read(&path)?;
            summary.segments_scanned += 1;
            summary.bytes_scanned += bytes.len() as u64;
            let good_end = replay_segment(&bytes, index, &mut records, &mut summary);
            if !bytes[good_end..].iter().all(|&b| b == 0) {
                // Torn/corrupt tail: truncate the file back to the last
                // good frame and stop trusting anything after it. (An
                // all-zero tail is just the segment's preallocated
                // capacity — the clean end of the log.)
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(good_end as u64)?;
                file.sync_all()?;
                if !is_last {
                    stop = true;
                }
            }
            if is_last {
                active_end = good_end as u64;
            }
        }
        summary.entries_replayed = records.len() as u64;

        // Continue the last surviving segment, or start segment 0.
        let active = indexes.last().copied().unwrap_or(0);
        let capacity = prealloc_capacity(cfg.segment_max_bytes);
        let path = segment_path(&cfg.dir, active);
        // `truncate(false)`: this may be an existing segment being
        // continued — its replayed contents must survive the open.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)?;
        let mut offset = active_end;
        if offset < SEGMENT_HEADER_LEN {
            file.set_len(0)?;
            preallocate(&mut file, 0, capacity)?;
            write_segment_header(&mut file, active)?;
            file.sync_all()?;
            offset = SEGMENT_HEADER_LEN;
        } else {
            // Re-extend a segment that was truncated (torn tail, power
            // failure) back to capacity so steady-state syncs stay
            // metadata-free, then park the cursor on the valid end.
            let len = file.metadata()?.len();
            if len < capacity {
                preallocate(&mut file, len, capacity)?;
            }
            file.seek(SeekFrom::Start(offset))?;
        }

        let shared = Arc::new(WalShared {
            inner: Mutex::new(WalInner {
                file,
                segment: active,
                offset,
                // Everything read back from disk is treated as durable.
                synced_offset: offset,
                unsynced_groups: 0,
            }),
            group: Mutex::new(GroupInner::new()),
            group_cv: Condvar::new(),
            committed_cell: AtomicU64::new(0),
            sync_inflight: AtomicBool::new(false),
            cfg,
            poisoned: AtomicBool::new(false),
            partial_append_keep: AtomicU64::new(u64::MAX),
            drop_fsyncs: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            bytes_appended: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            fsyncs_dropped: AtomicU64::new(0),
            segments_rolled: AtomicU64::new(0),
            segments_removed: AtomicU64::new(0),
            replayed_entries: AtomicU64::new(summary.entries_replayed),
            torn_entries_dropped: AtomicU64::new(summary.torn_entries_dropped),
            group_commits: AtomicU64::new(0),
            group_size: Histogram::new(),
            commit_wait: Histogram::new(),
        });
        // The interval policy gets a background flusher: the
        // leader that trips the interval hands the fsync here and
        // returns to its caller — typically a publisher still holding
        // queue locks upstream, which would otherwise serialise every
        // conflicting publisher behind the sync for its full duration.
        let (sync_tx, flusher) = if matches!(shared.cfg.fsync, FsyncPolicy::Interval(_)) {
            let (tx, rx) = mpsc::channel::<PendingSync>();
            let for_thread = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name("synapse-wal-flusher".into())
                // Errors poison the log; the next append fails fast.
                .spawn(move || {
                    while let Ok(sync) = rx.recv() {
                        let _ = for_thread.finish_sync(sync);
                    }
                }) {
                Ok(handle) => (Some(tx), Some(handle)),
                // No thread to be had: syncs complete in the leader.
                Err(_) => (None, None),
            }
        } else {
            (None, None)
        };
        let wal = Wal {
            shared,
            sync_tx: Mutex::new(sync_tx),
            flusher,
        };
        Ok((wal, records, summary))
    }

    /// The log directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.cfg.dir
    }

    /// Flushes any staged-but-unwritten frames, then fsyncs the active
    /// segment (subject to the armed dropped-fsync fault).
    pub fn sync(&self) -> io::Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(poisoned_err());
        }
        self.flush_staged()?;
        let mut inner = self.inner.lock();
        self.sync_locked(&mut inner)
    }

    fn sync_locked(&self, inner: &mut WalInner) -> io::Result<()> {
        if self.consume_dropped_fsync() {
            inner.unsynced_groups = 0;
            return Ok(());
        }
        // Same primitive as the pipelined path: frames + size, via
        // fdatasync.
        inner.file.sync_data()?;
        inner.synced_offset = inner.offset;
        inner.unsynced_groups = 0;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn roll_locked(&self, inner: &mut WalInner) -> io::Result<()> {
        // Closing segments are always made fully durable, so only the
        // active segment can ever hold an unsynced tail.
        inner.file.sync_all()?;
        let next = inner.segment + 1;
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(&self.cfg.dir, next))?;
        preallocate(&mut file, 0, prealloc_capacity(self.cfg.segment_max_bytes))?;
        write_segment_header(&mut file, next)?;
        file.sync_all()?;
        inner.file = file;
        inner.segment = next;
        inner.offset = SEGMENT_HEADER_LEN;
        inner.synced_offset = SEGMENT_HEADER_LEN;
        inner.unsynced_groups = 0;
        self.segments_rolled.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Current append position.
    pub fn position(&self) -> LogPos {
        let inner = self.inner.lock();
        LogPos {
            segment: inner.segment,
            offset: inner.offset,
        }
    }

    /// Rolls to a fresh segment and returns its index — the checkpoint
    /// boundary: checkpoint records written after this land at or past
    /// the returned segment, so once they are synced every strictly older
    /// segment is garbage.
    pub fn begin_checkpoint(&self) -> io::Result<u64> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(poisoned_err());
        }
        // Drain the staged batch first so nothing staged before the roll
        // lands after the boundary segment. (Replay would tolerate it —
        // a checkpoint replaces — but GC accounting stays exact.)
        self.flush_staged()?;
        let mut inner = self.inner.lock();
        self.roll_locked(&mut inner)?;
        Ok(inner.segment)
    }

    /// Deletes every segment file with index < `segment`. Returns how
    /// many were removed. Call only after the checkpoint records covering
    /// them are synced.
    pub fn gc_before(&self, segment: u64) -> io::Result<u64> {
        let active = self.inner.lock().segment;
        let mut removed = 0u64;
        for entry in fs::read_dir(&self.cfg.dir)? {
            let entry = entry?;
            let Some(name) = entry.file_name().into_string().ok() else {
                continue;
            };
            let Some(index) = name
                .strip_prefix("segment-")
                .and_then(|s| s.strip_suffix(".wal"))
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            if index < segment.min(active) {
                fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        self.segments_removed.fetch_add(removed, Ordering::Relaxed);
        Ok(removed)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends.load(Ordering::Relaxed),
            bytes_appended: self.bytes_appended.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            segments_rolled: self.segments_rolled.load(Ordering::Relaxed),
            segments_removed: self.segments_removed.load(Ordering::Relaxed),
            replayed_entries: self.replayed_entries.load(Ordering::Relaxed),
            torn_entries_dropped: self.torn_entries_dropped.load(Ordering::Relaxed),
            fsyncs_dropped: self.fsyncs_dropped.load(Ordering::Relaxed),
            group_commits: self.group_commits.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the frames-per-group-commit histogram.
    pub fn group_size_snapshot(&self) -> HistogramSnapshot {
        self.group_size.snapshot()
    }

    /// Snapshot of the follower commit-wait histogram (nanoseconds).
    pub fn commit_wait_snapshot(&self) -> HistogramSnapshot {
        self.commit_wait.snapshot()
    }

    /// Whether a crash fault (or IO error) has poisoned the log.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Crash fault: the next append writes only the first `keep_bytes`
    /// of its frame (clamped to a strict prefix), then fails and poisons
    /// the log — a process killed mid-append.
    pub fn inject_partial_append(&self, keep_bytes: u64) {
        self.partial_append_keep
            .store(keep_bytes, Ordering::Release);
    }

    /// Crash fault: the next `n` fsyncs report success without syncing,
    /// so a later power failure loses more than the policy promises.
    pub fn inject_drop_fsyncs(&self, n: u64) {
        self.drop_fsyncs.fetch_add(n, Ordering::AcqRel);
    }

    /// Crash fault: power failure. Everything after the last *actually
    /// synced* offset of the active segment is discarded (closed segments
    /// are synced on roll and survive whole), and the log is poisoned.
    /// Reopen the directory to recover.
    pub fn simulate_power_failure(&self) -> io::Result<()> {
        let inner = self.inner.lock();
        self.poisoned.store(true, Ordering::Release);
        // Wake every group-commit waiter so it observes the poison;
        // frames staged but never written are simply gone, exactly as
        // power loss would leave them. Taking the group mutex orders the
        // store before the check any waiter makes under it.
        drop(self.group.lock());
        self.group_cv.notify_all();
        let path = segment_path(&self.cfg.dir, inner.segment);
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(inner.synced_offset)?;
        file.sync_all()?;
        Ok(())
    }
}

/// On [`WalShared`] so the background flusher reaches it too.
impl WalShared {
    /// Consumes one armed dropped-fsync fault, if any: the sync "ran"
    /// (interval bookkeeping resets) but nothing became durable — the
    /// reordering a lying disk/controller produces.
    fn consume_dropped_fsync(&self) -> bool {
        let mut armed = self.drop_fsyncs.load(Ordering::Acquire);
        while armed > 0 {
            match self.drop_fsyncs.compare_exchange(
                armed,
                armed - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.fsyncs_dropped.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(now) => armed = now,
            }
        }
        false
    }
}

impl Drop for Wal {
    /// Best-effort flush of staged frames: a clean close (as opposed to
    /// a crash) must not lose relaxed-lane records that were accepted
    /// but not yet led to disk.
    fn drop(&mut self) {
        if !self.poisoned.load(Ordering::Acquire) {
            let _ = self.flush_staged();
        }
        // Retire the flusher: closing the channel ends its loop after it
        // drains whatever is queued, so a clean close never abandons a
        // sync it already initiated.
        *self.sync_tx.lock() = None;
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
    }
}

/// Replays one segment's bytes into `records`; returns the byte offset
/// just past the last good frame (truncation point for a torn tail).
fn replay_segment(
    bytes: &[u8],
    expected_index: u64,
    records: &mut Vec<WalRecord>,
    summary: &mut ReplaySummary,
) -> usize {
    let header_len = SEGMENT_HEADER_LEN as usize;
    if bytes.len() < header_len
        || &bytes[..8] != SEGMENT_MAGIC
        || u64::from_le_bytes(bytes[8..16].try_into().expect("len checked")) != expected_index
    {
        summary.torn_entries_dropped += 1;
        return 0;
    }
    let mut pos = header_len;
    loop {
        let Some(frame_header) = bytes.get(pos..pos + FRAME_HEADER_LEN as usize) else {
            if pos < bytes.len() {
                summary.torn_entries_dropped += 1;
            }
            return pos;
        };
        let len = u32::from_le_bytes(frame_header[..4].try_into().expect("len checked"));
        let crc = u32::from_le_bytes(frame_header[4..8].try_into().expect("len checked"));
        if len == 0 && crc == 0 {
            // Preallocated tail: no frame is empty (and an empty
            // payload could never carry CRC 0 *and* decode), so an
            // all-zero header is the clean end of a preallocated
            // segment, not a torn write — unless non-zero garbage sits
            // *past* the zeros (e.g. a tear landed at the far end of
            // the preallocated runway). That garbage is about to be
            // truncated away like any torn tail, so count it as one.
            if !bytes[pos..].iter().all(|&b| b == 0) {
                summary.torn_entries_dropped += 1;
            }
            return pos;
        }
        if len > MAX_FRAME_LEN {
            summary.torn_entries_dropped += 1;
            return pos;
        }
        let start = pos + FRAME_HEADER_LEN as usize;
        let Some(payload) = bytes.get(start..start + len as usize) else {
            summary.torn_entries_dropped += 1;
            return pos;
        };
        if crc32(payload) != crc {
            summary.torn_entries_dropped += 1;
            return pos;
        }
        let Some(record) = WalRecord::decode(payload) else {
            summary.torn_entries_dropped += 1;
            return pos;
        };
        records.push(record);
        pos = start + len as usize;
    }
}

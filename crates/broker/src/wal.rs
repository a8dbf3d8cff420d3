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

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::RefCell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use synapse_telemetry::{mono_nanos, Histogram, HistogramSnapshot};

/// Magic bytes opening every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"SYNWAL01";
/// Segment header: magic + little-endian segment index.
const SEGMENT_HEADER_LEN: u64 = 16;
/// Frame header: payload length + payload CRC.
const FRAME_HEADER_LEN: u64 = 8;
/// Upper bound on a single frame payload; anything larger is treated as
/// corruption rather than allocated.
const MAX_FRAME_LEN: u32 = 64 << 20;
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

/// One durable log record. Queue names and payloads are owned strings —
/// the WAL is the cold path; the hot path shares allocations up to the
/// encode buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A message copy admitted to `queue` under delivery tag `tag`.
    Enqueue {
        /// Queue the copy was admitted to.
        queue: String,
        /// Per-queue monotonic delivery tag — the durable message id.
        tag: u64,
        /// Exchange (publisher app) the copy arrived through.
        exchange: String,
        /// Marshalled message payload.
        payload: String,
        /// Publisher origin stamp riding the envelope (0 = unstamped).
        origin_nanos: u64,
    },
    /// Tags consumed by acks on `queue` (batch-capable).
    Ack {
        /// Queue the acks apply to.
        queue: String,
        /// Acked delivery tags.
        tags: Vec<u64>,
    },
    /// An unacked delivery routed to `queue`'s dead-letter store.
    DeadLetter {
        /// Queue the delivery belonged to.
        queue: String,
        /// The dead-lettered delivery tag.
        tag: u64,
    },
    /// `queue` was decommissioned; its backlog was discarded.
    QueueKilled {
        /// The decommissioned queue.
        queue: String,
    },
    /// `queue` was reinstated empty after a decommission.
    QueueReinstated {
        /// The reinstated queue.
        queue: String,
    },
    /// Point-in-time state of one queue; replay *replaces* the queue's
    /// pending/dead state with it (older entries are absorbed).
    Checkpoint {
        /// The checkpointed queue.
        queue: String,
        /// Whether the queue was decommissioned at checkpoint time.
        decommissioned: bool,
        /// Next delivery tag to assign.
        next_tag: u64,
        /// Pending (ready + unacked) deliveries:
        /// `(tag, exchange, payload, origin_nanos, redelivered)`.
        pending: Vec<(u64, String, String, u64, bool)>,
        /// Dead-lettered deliveries: `(tag, exchange, payload, origin_nanos)`.
        dead: Vec<(u64, String, String, u64)>,
    },
}

const TAG_ENQUEUE: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_DEAD_LETTER: u8 = 3;
const TAG_QUEUE_KILLED: u8 = 4;
const TAG_QUEUE_REINSTATED: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;
// 7 is retired: an earlier log format used it, so it is never reassigned.

impl WalRecord {
    /// Appends the record's wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Enqueue {
                queue,
                tag,
                exchange,
                payload,
                origin_nanos,
            } => {
                out.push(TAG_ENQUEUE);
                put_str(out, queue);
                put_u64(out, *tag);
                put_str(out, exchange);
                put_str(out, payload);
                put_u64(out, *origin_nanos);
            }
            WalRecord::Ack { queue, tags } => {
                out.push(TAG_ACK);
                put_str(out, queue);
                put_u32(out, tags.len() as u32);
                for t in tags {
                    put_u64(out, *t);
                }
            }
            WalRecord::DeadLetter { queue, tag } => {
                out.push(TAG_DEAD_LETTER);
                put_str(out, queue);
                put_u64(out, *tag);
            }
            WalRecord::QueueKilled { queue } => {
                out.push(TAG_QUEUE_KILLED);
                put_str(out, queue);
            }
            WalRecord::QueueReinstated { queue } => {
                out.push(TAG_QUEUE_REINSTATED);
                put_str(out, queue);
            }
            WalRecord::Checkpoint {
                queue,
                decommissioned,
                next_tag,
                pending,
                dead,
            } => {
                out.push(TAG_CHECKPOINT);
                put_str(out, queue);
                out.push(u8::from(*decommissioned));
                put_u64(out, *next_tag);
                put_u32(out, pending.len() as u32);
                for (tag, exchange, payload, origin, redelivered) in pending {
                    put_u64(out, *tag);
                    put_str(out, exchange);
                    put_str(out, payload);
                    put_u64(out, *origin);
                    out.push(u8::from(*redelivered));
                }
                put_u32(out, dead.len() as u32);
                for (tag, exchange, payload, origin) in dead {
                    put_u64(out, *tag);
                    put_str(out, exchange);
                    put_str(out, payload);
                    put_u64(out, *origin);
                }
            }
        }
    }

    /// The record's wire encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Decodes one record from `bytes`; `None` on any malformation. Fully
    /// bounds-checked — arbitrary input never panics (the torn-tail
    /// property relies on this).
    pub fn decode(bytes: &[u8]) -> Option<WalRecord> {
        let mut r = ByteReader::new(bytes);
        let record = match r.take_u8()? {
            TAG_ENQUEUE => WalRecord::Enqueue {
                queue: r.take_str()?,
                tag: r.take_u64()?,
                exchange: r.take_str()?,
                payload: r.take_str()?,
                origin_nanos: r.take_u64()?,
            },
            TAG_ACK => {
                let queue = r.take_str()?;
                let n = r.take_u32()? as usize;
                // Cap before allocating: a corrupt count must not OOM.
                if n > bytes.len() {
                    return None;
                }
                let mut tags = Vec::with_capacity(n);
                for _ in 0..n {
                    tags.push(r.take_u64()?);
                }
                WalRecord::Ack { queue, tags }
            }
            TAG_DEAD_LETTER => WalRecord::DeadLetter {
                queue: r.take_str()?,
                tag: r.take_u64()?,
            },
            TAG_QUEUE_KILLED => WalRecord::QueueKilled {
                queue: r.take_str()?,
            },
            TAG_QUEUE_REINSTATED => WalRecord::QueueReinstated {
                queue: r.take_str()?,
            },
            TAG_CHECKPOINT => {
                let queue = r.take_str()?;
                let decommissioned = r.take_u8()? != 0;
                let next_tag = r.take_u64()?;
                let n_pending = r.take_u32()? as usize;
                if n_pending > bytes.len() {
                    return None;
                }
                let mut pending = Vec::with_capacity(n_pending);
                for _ in 0..n_pending {
                    pending.push((
                        r.take_u64()?,
                        r.take_str()?,
                        r.take_str()?,
                        r.take_u64()?,
                        r.take_u8()? != 0,
                    ));
                }
                let n_dead = r.take_u32()? as usize;
                if n_dead > bytes.len() {
                    return None;
                }
                let mut dead = Vec::with_capacity(n_dead);
                for _ in 0..n_dead {
                    dead.push((r.take_u64()?, r.take_str()?, r.take_str()?, r.take_u64()?));
                }
                WalRecord::Checkpoint {
                    queue,
                    decommissioned,
                    next_tag,
                    pending,
                    dead,
                }
            }
            _ => return None,
        };
        // Trailing garbage means the frame length lied about the payload.
        if r.remaining() != 0 {
            return None;
        }
        Some(record)
    }
}

/// Little-endian `u32` append.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Little-endian `u64` append.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed UTF-8 string append.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends one complete frame (`[len][crc][payload]`) for `record`.
/// Framing happens wherever the caller is — no WAL lock is involved.
pub fn frame_record_into(out: &mut Vec<u8>, record: &WalRecord) {
    let start = begin_frame(out);
    record.encode_into(out);
    finish_frame(out, start);
}

/// Appends an `Enqueue` frame straight from borrowed fields — the
/// hot-path equivalent of [`frame_record_into`] that skips materializing
/// owned strings for a [`WalRecord`].
pub fn frame_enqueue_into(
    out: &mut Vec<u8>,
    queue: &str,
    tag: u64,
    exchange: &str,
    payload: &str,
    origin_nanos: u64,
) {
    let start = begin_frame(out);
    out.push(TAG_ENQUEUE);
    put_str(out, queue);
    put_u64(out, tag);
    put_str(out, exchange);
    put_str(out, payload);
    put_u64(out, origin_nanos);
    finish_frame(out, start);
}

/// Reserves a frame header at the end of `out`; returns its offset for
/// [`finish_frame`].
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN as usize]);
    start
}

/// Backfills the length + CRC header of the frame opened at `frame_start`.
fn finish_frame(out: &mut [u8], frame_start: usize) {
    let payload_start = frame_start + FRAME_HEADER_LEN as usize;
    let len = (out.len() - payload_start) as u32;
    let crc = crc32(&out[payload_start..]);
    out[frame_start..frame_start + 4].copy_from_slice(&len.to_le_bytes());
    out[frame_start + 4..frame_start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Bounds-checked sequential reader over a byte slice; every `take_*`
/// returns `None` instead of panicking on underrun.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let bytes = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let bytes = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Option<String> {
        let len = self.take_u32()? as usize;
        let end = self.pos.checked_add(len)?;
        let bytes = self.bytes.get(self.pos..end)?;
        self.pos = end;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// IEEE CRC-32 (the Ethernet/zlib polynomial), table-driven; the table is
/// built at compile time so the hot path is one lookup per byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for b in bytes {
        crc = TABLE[((crc ^ *b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
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

/// A policy fsync owed for bytes already written, carried *out of* the
/// IO lock so the disk sync pipelines with the next epoch's write (and,
/// under `Interval`, with the appenders themselves). The dup'd handle
/// stays valid even if the active segment rolls while the sync runs;
/// `segment`/`offset` snapshot what the sync certifies durable.
struct PendingSync {
    file: File,
    segment: u64,
    offset: u64,
}

/// Staging state of the group-commit protocol, guarded by `Wal::group`.
/// The IO state (`WalInner`) is a separate lock that a leader acquires
/// only *after* releasing this one, so stagers keep filling the next
/// epoch while the current batch is being written and fsynced.
#[derive(Debug)]
struct GroupInner {
    /// Frames staged for the next commit (already framed: header + CRC).
    buf: Vec<u8>,
    /// Number of frames in `buf`.
    frames: u32,
    /// Epoch the currently staged bytes will commit in.
    staging_epoch: u64,
    /// Highest epoch fully written (and, per policy, fsynced).
    committed_epoch: u64,
    /// Whether some thread is currently leading a commit.
    leader_active: bool,
    /// Recycled batch buffer (swapped with `buf` each commit).
    spare: Vec<u8>,
}

thread_local! {
    /// Per-thread frame-encode buffer: records are framed here, outside
    /// every WAL lock, then copied into the staged batch under the
    /// (brief) group lock.
    static FRAME_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// How long a group-commit follower spins on the lock-free epoch mirror
/// before paying a futex park. Sized to comfortably cover a page-cache
/// batch write (a handful of microseconds); only blocking appenders spin,
/// the relaxed lane never waits at all.
const FOLLOWER_SPIN_NANOS: u64 = 30_000;

/// Staged bytes past which a relaxed-lane append self-elects as leader
/// instead of waiting for the next blocking writer.
const RELAXED_LEAD_BYTES: u64 = 16 << 10;

/// Soft cap on staged-but-unwritten bytes: blocking appenders wait for
/// the in-flight commit to drain before staging past it (the relaxed
/// lane stages regardless).
const GROUP_MAX_BYTES: u64 = 4 << 20;

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
/// How many bytes of a fresh segment to physically preallocate: the
/// roll threshold, floored at one header's worth and capped at
/// [`PREALLOC_MAX_BYTES`].
fn prealloc_capacity(segment_max_bytes: u64) -> u64 {
    segment_max_bytes.clamp(SEGMENT_HEADER_LEN + 1, PREALLOC_MAX_BYTES)
}

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
            group: Mutex::new(GroupInner {
                buf: Vec::with_capacity(1024),
                frames: 0,
                staging_epoch: 1,
                committed_epoch: 0,
                leader_active: false,
                spare: Vec::with_capacity(1024),
            }),
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

    /// Appends one record, blocking until it is written — and, per
    /// policy, fsynced. The record is framed in a thread-local buffer
    /// outside every WAL lock, then committed through the group-commit
    /// protocol.
    pub fn append(&self, record: &WalRecord) -> io::Result<()> {
        FRAME_BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.clear();
            frame_record_into(&mut buf, record);
            self.commit_frames(&buf, 1)
        })
    }

    /// Appends one record on the non-blocking lane: the frame is staged
    /// into the next group commit and the call returns immediately,
    /// without waiting out the write or fsync. Used for
    /// ack/dead-letter/lifecycle records: losing the staged tail in a
    /// crash merely redelivers — at-least-once is preserved,
    /// exactly-once was never promised.
    ///
    /// When no leader is active the frame *stays staged* rather than
    /// electing this thread: the next blocking append, sync, checkpoint,
    /// or close carries it (a relaxed record has no per-call durability
    /// promise — under power failure the staged frame and a
    /// written-but-unsynced one are equally lost). Leading here for
    /// every ack would turn a 64-worker ack storm into a stream of
    /// single-frame epochs, which is exactly the per-record regime
    /// group commit exists to avoid. The backstop is a byte threshold:
    /// once enough relaxed traffic accumulates with no blocking writer in
    /// sight, the staging thread leads a flush itself, bounding staged
    /// memory and ack-record staleness.
    pub fn append_relaxed(&self, record: &WalRecord) -> io::Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(poisoned_err());
        }
        FRAME_BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.clear();
            frame_record_into(&mut buf, record);
            let mut g = self.group.lock();
            g.buf.extend_from_slice(&buf);
            g.frames += 1;
            if g.leader_active {
                // The active leader's drain loop picks the frame up
                // before it releases leadership; nothing to wait for.
                return Ok(());
            }
            if (g.buf.len() as u64) < RELAXED_LEAD_BYTES {
                return Ok(());
            }
            let target = g.staging_epoch;
            self.lead_until(g, target)
        })
    }

    /// Commits `frames` complete pre-framed frames as one staged append:
    /// all-or-nothing admission to the log, one group-commit wait for
    /// the whole run. The batch publish path frames every admitted copy
    /// under its partition lock and lands them here in a single call.
    pub fn commit_frames(&self, bytes: &[u8], frames: u32) -> io::Result<()> {
        if frames == 0 {
            return Ok(());
        }
        if self.poisoned.load(Ordering::Acquire) {
            return Err(poisoned_err());
        }
        let mut g = self.group.lock();
        // Soft backpressure: don't stage past the cap while a commit is
        // in flight (the leader drains the backlog epoch by epoch).
        while g.buf.len() as u64 >= GROUP_MAX_BYTES && g.leader_active {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(poisoned_err());
            }
            self.group_cv.wait(&mut g);
        }
        if self.poisoned.load(Ordering::Acquire) {
            return Err(poisoned_err());
        }
        g.buf.extend_from_slice(bytes);
        g.frames += frames;
        let target = g.staging_epoch;
        let mut waited = 0u64;
        loop {
            if g.committed_epoch >= target {
                if waited > 0 {
                    self.commit_wait.record(waited);
                }
                return Ok(());
            }
            if self.poisoned.load(Ordering::Acquire) {
                return Err(poisoned_err());
            }
            if g.leader_active {
                // Follower. A group write is microseconds; a futex park
                // is too. Spin on the lock-free epoch mirror first and
                // only fall back to the condvar when the commit is
                // genuinely slow (an EveryWrite fsync, a saturated disk).
                drop(g);
                let start = mono_nanos();
                let mut parked = false;
                loop {
                    if self.committed_cell.load(Ordering::Acquire) >= target
                        || self.poisoned.load(Ordering::Acquire)
                    {
                        break;
                    }
                    if mono_nanos().saturating_sub(start) > FOLLOWER_SPIN_NANOS {
                        parked = true;
                        break;
                    }
                    std::hint::spin_loop();
                }
                g = self.group.lock();
                if parked
                    && g.committed_epoch < target
                    && g.leader_active
                    && !self.poisoned.load(Ordering::Acquire)
                {
                    self.group_cv.wait(&mut g);
                }
                waited += mono_nanos().saturating_sub(start);
            } else {
                if waited > 0 {
                    self.commit_wait.record(waited);
                }
                return self.lead_until(g, target);
            }
        }
    }

    /// Leads group commits until `target` is committed and the staging
    /// buffer is empty: take the staged batch, release the group lock
    /// (the next epoch keeps filling), write under the IO lock, publish
    /// the commit epoch, wake every waiter — and loop while new frames
    /// were staged during the IO (the natural batching under load).
    /// Consumes the group guard.
    ///
    /// The policy fsync is pipelined, never held under the IO lock:
    ///
    /// * `EveryWrite` — the sync runs on a dup'd handle with *no* locks
    ///   held, before the epoch publishes (Ok still means durable); the
    ///   next epoch keeps staging meanwhile.
    /// * `Interval` — the write alone commits the epoch (the policy makes
    ///   no per-append promise). When the interval comes due, the leader
    ///   publishes the epoch, *hands leadership off*, and carries out the
    ///   sync while a staged waiter elects itself and keeps the write
    ///   pipeline moving — the fsync stops gating throughput entirely.
    fn lead_until<'a>(&'a self, mut g: MutexGuard<'a, GroupInner>, target: u64) -> io::Result<()> {
        'lead: loop {
            g.leader_active = true;
            loop {
                let spare = std::mem::take(&mut g.spare);
                let mut batch = std::mem::replace(&mut g.buf, spare);
                let frames = std::mem::replace(&mut g.frames, 0);
                let epoch = g.staging_epoch;
                g.staging_epoch = epoch + 1;
                drop(g);

                let mut pending: Option<PendingSync> = None;
                let mut io_result = if batch.is_empty() {
                    Ok(())
                } else {
                    let mut inner = self.inner.lock();
                    match self.write_batch_group_locked(&mut inner, &batch, frames) {
                        Ok(due) => {
                            pending = due;
                            Ok(())
                        }
                        Err(e) => Err(e),
                    }
                };
                // EveryWrite gates the epoch on durability: sync now,
                // outside both locks, while the next batch stages.
                if io_result.is_ok() && matches!(self.cfg.fsync, FsyncPolicy::EveryWrite) {
                    if let Some(sync) = pending.take() {
                        io_result = self.finish_sync(sync);
                    }
                }

                batch.clear();
                g = self.group.lock();
                g.spare = batch;
                match io_result {
                    Ok(()) => {
                        g.committed_epoch = g.committed_epoch.max(epoch);
                        self.committed_cell
                            .store(g.committed_epoch, Ordering::Release);
                        if frames > 0 {
                            self.group_commits.fetch_add(1, Ordering::Relaxed);
                            self.group_size.record(u64::from(frames));
                        }
                    }
                    Err(e) => {
                        // Fail-stop: a batch in an unknown on-disk state
                        // cannot be retried by the next leader. Poison,
                        // release leadership, and wake everyone so
                        // followers observe the poison instead of parking
                        // forever.
                        self.poisoned.store(true, Ordering::Release);
                        g.leader_active = false;
                        self.group_cv.notify_all();
                        return Err(e);
                    }
                }
                if let Some(sync) = pending {
                    // Interval sync due. Our own target is committed (a
                    // leader always writes its target in its first
                    // iteration), so hand leadership to the waiters and
                    // dispatch the fsync without stalling the write
                    // pipeline — or this thread, which is typically a
                    // publisher still holding queue locks upstream.
                    g.leader_active = false;
                    self.group_cv.notify_all();
                    drop(g);
                    self.dispatch_sync(sync)?;
                    // If every frame staged during the sync came from the
                    // relaxed lane, nobody was waiting to take over;
                    // re-elect ourselves rather than leave them parked in
                    // the staging buffer until the next append.
                    let g2 = self.group.lock();
                    if !g2.leader_active && !g2.buf.is_empty() {
                        g = g2;
                        continue 'lead;
                    }
                    return Ok(());
                }
                if g.committed_epoch >= target && g.buf.is_empty() {
                    g.leader_active = false;
                    self.group_cv.notify_all();
                    return Ok(());
                }
                self.group_cv.notify_all();
            }
        }
    }

    /// Writes one batch of pre-framed bytes at the current offset under
    /// the held IO lock: segment roll, the armed partial-append fault
    /// (which tears the *batch* at an arbitrary byte — complete prefix
    /// frames survive as if their appends had happened), and counters.
    /// Instead of syncing inline it returns the [`PendingSync`] the
    /// policy now owes (if any), to be carried out after the IO lock is
    /// released. The interval counts *groups* and resets at sync
    /// *initiation*, so every window of `n` groups starts a sync even
    /// while the previous one is still in flight.
    fn write_batch_group_locked(
        &self,
        inner: &mut WalInner,
        batch: &[u8],
        frames: u32,
    ) -> io::Result<Option<PendingSync>> {
        if inner.offset >= self.cfg.segment_max_bytes.max(SEGMENT_HEADER_LEN + 1) {
            self.roll_locked(inner)?;
        }
        let keep = self.partial_append_keep.swap(u64::MAX, Ordering::AcqRel);
        if keep != u64::MAX {
            let cut = (keep as usize).min(batch.len().saturating_sub(1));
            let result = inner
                .file
                .write_all(&batch[..cut])
                .and_then(|_| inner.file.sync_all());
            self.poisoned.store(true, Ordering::Release);
            result?;
            return Err(poisoned_err());
        }
        if let Err(e) = inner.file.write_all(batch) {
            self.poisoned.store(true, Ordering::Release);
            return Err(e);
        }
        inner.offset += batch.len() as u64;
        self.appends.fetch_add(u64::from(frames), Ordering::Relaxed);
        self.bytes_appended
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        inner.unsynced_groups += 1;
        let due = match self.cfg.fsync {
            FsyncPolicy::Off => false,
            FsyncPolicy::EveryWrite => true,
            FsyncPolicy::Interval(n) => inner.unsynced_groups >= n.max(1),
        };
        if !due {
            return Ok(None);
        }
        if self.sync_inflight.swap(true, Ordering::AcqRel) {
            // One sync in flight at a time. The counters keep
            // accumulating (the debt stands), so the next group
            // initiates as soon as the running sync clears the flag.
            return Ok(None);
        }
        inner.unsynced_groups = 0;
        match inner.file.try_clone() {
            Ok(file) => Ok(Some(PendingSync {
                file,
                segment: inner.segment,
                offset: inner.offset,
            })),
            Err(e) => {
                // Fail-stop like any other IO error: we owe a sync we
                // cannot perform.
                self.poisoned.store(true, Ordering::Release);
                self.sync_inflight.store(false, Ordering::Release);
                Err(e)
            }
        }
    }
}

/// The completion half of a pipelined sync — on [`WalShared`] so the
/// background flusher can run it without a handle to the public [`Wal`].
impl WalShared {
    /// Carries out a [`PendingSync`] with no WAL locks held, then folds
    /// the certified offset back into the durability bookkeeping (unless
    /// the segment rolled away underneath — roll syncs closing segments
    /// itself). Subject to the armed dropped-fsync fault, like every
    /// other sync.
    fn finish_sync(&self, sync: PendingSync) -> io::Result<()> {
        let result = self.finish_sync_inner(sync);
        // Clear the in-flight flag on every path — deferred leaders and
        // the initiation gate are waiting on it (poison, not the flag,
        // is what stops them after a failed sync).
        self.sync_inflight.store(false, Ordering::Release);
        result
    }

    fn finish_sync_inner(&self, sync: PendingSync) -> io::Result<()> {
        if self.consume_dropped_fsync() {
            return Ok(());
        }
        // fdatasync: the replay path needs the frames and the file size,
        // not timestamps — and it rides ext4's fast-commit journal,
        // stalling concurrent same-inode appends far less than a full
        // fsync.
        if let Err(e) = sync.file.sync_data() {
            self.poisoned.store(true, Ordering::Release);
            return Err(e);
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if inner.segment == sync.segment {
            inner.synced_offset = inner.synced_offset.max(sync.offset);
        }
        Ok(())
    }

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

impl Wal {
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

    /// Waits until everything staged at call time is written, leading
    /// the commit if no leader is active. No-op when the group is idle.
    fn flush_staged(&self) -> io::Result<()> {
        let mut g = self.group.lock();
        let target = if !g.buf.is_empty() {
            g.staging_epoch
        } else if g.leader_active {
            // The in-flight epoch (the leader already advanced
            // `staging_epoch` past it when it took the batch).
            g.staging_epoch - 1
        } else {
            return Ok(());
        };
        loop {
            if g.committed_epoch >= target {
                return Ok(());
            }
            if self.poisoned.load(Ordering::Acquire) {
                return Err(poisoned_err());
            }
            if g.leader_active {
                self.group_cv.wait(&mut g);
            } else {
                return self.lead_until(g, target);
            }
        }
    }

    /// Routes a due interval sync to the background flusher, completing
    /// it inline only when no flusher is running. Either way at most one
    /// sync is in flight (`sync_inflight` gates initiation), and the
    /// flusher clears that flag when it finishes.
    fn dispatch_sync(&self, sync: PendingSync) -> io::Result<()> {
        let sync = {
            let tx = self.sync_tx.lock();
            match tx.as_ref() {
                Some(tx) => match tx.send(sync) {
                    Ok(()) => return Ok(()),
                    Err(mpsc::SendError(sync)) => sync,
                },
                None => sync,
            }
        };
        self.finish_sync(sync)
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
        // power loss would leave them.
        self.group_cv.notify_all();
        let path = segment_path(&self.cfg.dir, inner.segment);
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(inner.synced_offset)?;
        file.sync_all()?;
        Ok(())
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Fresh unique directory under the system temp dir (no external
    /// tempfile crate in this workspace).
    pub(crate) fn temp_dir(label: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("synapse-wal-{label}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn enqueue(queue: &str, tag: u64, payload: &str) -> WalRecord {
        WalRecord::Enqueue {
            queue: queue.into(),
            tag,
            exchange: "x".into(),
            payload: payload.into(),
            origin_nanos: 7,
        }
    }

    #[test]
    fn records_round_trip() {
        let samples = vec![
            enqueue("q", 3, "body"),
            WalRecord::Ack {
                queue: "q".into(),
                tags: vec![1, 2, 9],
            },
            WalRecord::DeadLetter {
                queue: "q".into(),
                tag: 4,
            },
            WalRecord::QueueKilled { queue: "q".into() },
            WalRecord::QueueReinstated { queue: "q".into() },
            WalRecord::Checkpoint {
                queue: "q".into(),
                decommissioned: true,
                next_tag: 10,
                pending: vec![(5, "x".into(), "p".into(), 1, true)],
                dead: vec![(2, "x".into(), "poison".into(), 0)],
            },
        ];
        for record in samples {
            let encoded = record.encode();
            assert_eq!(WalRecord::decode(&encoded), Some(record));
        }
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let encoded = enqueue("q", 1, "body").encode();
        for cut in 0..encoded.len() {
            assert_eq!(WalRecord::decode(&encoded[..cut]), None, "cut at {cut}");
        }
        let mut padded = encoded;
        padded.push(0);
        assert_eq!(WalRecord::decode(&padded), None);
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = temp_dir("replay");
        let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::Off);
        let (wal, records, _) = Wal::open(cfg.clone()).unwrap();
        assert!(records.is_empty());
        for i in 0..20u64 {
            wal.append(&enqueue("q", i, &format!("m{i}"))).unwrap();
        }
        drop(wal);
        let (_, replayed, summary) = Wal::open(cfg).unwrap();
        assert_eq!(replayed.len(), 20);
        assert_eq!(summary.torn_entries_dropped, 0);
        for (i, record) in replayed.iter().enumerate() {
            assert_eq!(record, &enqueue("q", i as u64, &format!("m{i}")));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_and_replay_spans_them() {
        let dir = temp_dir("roll");
        let cfg = WalConfig::new(&dir)
            .segment_max_bytes(128)
            .fsync(FsyncPolicy::Off);
        let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
        for i in 0..50u64 {
            wal.append(&enqueue("q", i, "padpadpadpad")).unwrap();
        }
        assert!(wal.stats().segments_rolled >= 2);
        drop(wal);
        let (_, replayed, summary) = Wal::open(cfg).unwrap();
        assert_eq!(replayed.len(), 50);
        assert!(summary.segments_scanned >= 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = temp_dir("torn");
        let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::Off);
        let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
        for i in 0..10u64 {
            wal.append(&enqueue("q", i, "payload")).unwrap();
        }
        let end = wal.position().offset;
        drop(wal);
        // Chop a few bytes off the *valid* tail (the file itself sits at
        // its preallocated capacity): the final frame is torn.
        let path = segment_path(&dir, 0);
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(end - 3)
            .unwrap();
        let (_, replayed, summary) = Wal::open(cfg.clone()).unwrap();
        assert_eq!(replayed.len(), 9, "the torn final frame is dropped");
        assert_eq!(summary.torn_entries_dropped, 1);
        // The truncation is persistent: a second reopen is clean.
        let (_, again, summary2) = Wal::open(cfg).unwrap();
        assert_eq!(again.len(), 9);
        assert_eq!(summary2.torn_entries_dropped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_append_fault_tears_exactly_one_frame() {
        let dir = temp_dir("partial");
        let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::EveryWrite);
        let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
        for i in 0..5u64 {
            wal.append(&enqueue("q", i, "survivor")).unwrap();
        }
        wal.inject_partial_append(6);
        assert!(wal.append(&enqueue("q", 99, "torn")).is_err());
        assert!(wal.is_poisoned());
        assert!(wal.append(&enqueue("q", 100, "after")).is_err());
        drop(wal);
        let (_, replayed, summary) = Wal::open(cfg).unwrap();
        assert_eq!(replayed.len(), 5, "only confirmed appends replay");
        assert_eq!(summary.torn_entries_dropped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn power_failure_respects_fsync_policy() {
        // EveryWrite: nothing confirmed is lost.
        let dir = temp_dir("power-every");
        let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::EveryWrite);
        let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
        for i in 0..8u64 {
            wal.append(&enqueue("q", i, "durable")).unwrap();
        }
        wal.simulate_power_failure().unwrap();
        drop(wal);
        let (_, replayed, _) = Wal::open(cfg).unwrap();
        assert_eq!(replayed.len(), 8);
        let _ = fs::remove_dir_all(&dir);

        // Off: the whole unsynced tail is lost.
        let dir = temp_dir("power-off");
        let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::Off);
        let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
        for i in 0..8u64 {
            wal.append(&enqueue("q", i, "volatile")).unwrap();
        }
        wal.simulate_power_failure().unwrap();
        drop(wal);
        let (_, replayed, _) = Wal::open(cfg).unwrap();
        assert!(
            replayed.is_empty(),
            "unsynced appends do not survive power loss"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_fsyncs_lose_the_lying_window_on_power_failure() {
        let dir = temp_dir("dropfsync");
        let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::EveryWrite);
        let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
        for i in 0..4u64 {
            wal.append(&enqueue("q", i, "synced")).unwrap();
        }
        wal.inject_drop_fsyncs(3);
        for i in 4..7u64 {
            wal.append(&enqueue("q", i, "lied-about")).unwrap();
        }
        assert_eq!(wal.stats().fsyncs_dropped, 3);
        wal.simulate_power_failure().unwrap();
        drop(wal);
        let (_, replayed, _) = Wal::open(cfg).unwrap();
        assert_eq!(replayed.len(), 4, "the dropped-fsync window is lost");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_roll_and_gc_shrink_the_log() {
        let dir = temp_dir("gc");
        let cfg = WalConfig::new(&dir)
            .segment_max_bytes(256)
            .fsync(FsyncPolicy::Off);
        let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
        for i in 0..40u64 {
            wal.append(&enqueue("q", i, "padpadpadpadpad")).unwrap();
        }
        let boundary = wal.begin_checkpoint().unwrap();
        wal.append(&WalRecord::Checkpoint {
            queue: "q".into(),
            decommissioned: false,
            next_tag: 41,
            pending: vec![(40, "x".into(), "live".into(), 0, false)],
            dead: vec![],
        })
        .unwrap();
        wal.sync().unwrap();
        let removed = wal.gc_before(boundary).unwrap();
        assert!(removed >= 1);
        drop(wal);
        let (_, replayed, summary) = Wal::open(cfg).unwrap();
        assert_eq!(
            summary.segments_scanned, 1,
            "only the checkpoint segment survives"
        );
        assert!(matches!(replayed[0], WalRecord::Checkpoint { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// Concurrent appenders through the group-commit protocol: every
    /// confirmed append replays, in a per-thread-FIFO-consistent order,
    /// and the leader amortizes fsyncs below one-per-append.
    #[test]
    fn concurrent_group_commit_replays_every_record() {
        let dir = temp_dir("group");
        let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::EveryWrite);
        let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
        let wal = std::sync::Arc::new(wal);
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let wal = wal.clone();
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        wal.append(&enqueue("q", t * 1000 + i, "grouped")).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.appends, 200);
        assert!(stats.group_commits >= 1);
        assert!(
            stats.fsyncs <= stats.appends,
            "group commit never fsyncs more than once per append"
        );
        drop(wal);
        let (_, replayed, summary) = Wal::open(cfg).unwrap();
        assert_eq!(replayed.len(), 200);
        assert_eq!(summary.torn_entries_dropped, 0);
        // Per-thread FIFO: each thread's tags replay in its append order.
        let mut last_per_thread = [0u64; 8];
        for record in &replayed {
            let WalRecord::Enqueue { tag, .. } = record else {
                panic!("only enqueues were appended");
            };
            let thread = (tag / 1000) as usize;
            let seq = tag % 1000 + 1;
            assert!(seq > last_per_thread[thread], "thread {thread} reordered");
            last_per_thread[thread] = seq;
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Relaxed-lane records are staged without waiting but survive a
    /// clean close (the drop flush leads any orphaned batch to disk).
    #[test]
    fn relaxed_lane_survives_clean_close() {
        let dir = temp_dir("relaxed");
        let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::Off);
        let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
        wal.append(&enqueue("q", 1, "blocking")).unwrap();
        wal.append_relaxed(&WalRecord::Ack {
            queue: "q".into(),
            tags: vec![1],
        })
        .unwrap();
        drop(wal);
        let (_, replayed, _) = Wal::open(cfg).unwrap();
        assert_eq!(replayed.len(), 2);
        assert!(matches!(replayed[1], WalRecord::Ack { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A multi-frame staged batch torn mid-way by the partial-append
    /// fault keeps its complete prefix frames (they replay as live) and
    /// drops exactly the torn one.
    #[test]
    fn partial_batch_keeps_complete_prefix_frames() {
        let dir = temp_dir("partial-batch");
        let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::EveryWrite);
        let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
        let mut batch = Vec::new();
        for i in 0..4u64 {
            frame_record_into(&mut batch, &enqueue("q", i, "batched"));
        }
        let one_frame = batch.len() / 4;
        // Cut inside the third frame: two complete frames survive.
        wal.inject_partial_append((one_frame * 2 + 3) as u64);
        assert!(wal.commit_frames(&batch, 4).is_err());
        assert!(wal.is_poisoned());
        drop(wal);
        let (_, replayed, summary) = Wal::open(cfg).unwrap();
        assert_eq!(replayed.len(), 2, "complete prefix frames replay");
        assert_eq!(summary.torn_entries_dropped, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}

//! The group-commit protocol: thread-local framing, staging into the
//! shared batch, leader election and hand-off, and the policy fsync
//! pipelined off the IO lock. The only append path.

use super::codec::frame_record_into;
use super::{poisoned_err, FsyncPolicy, Wal, WalInner, WalRecord, WalShared, SEGMENT_HEADER_LEN};
use parking_lot::MutexGuard;
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, Write};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use synapse_telemetry::mono_nanos;

/// A policy fsync owed for bytes already written, carried *out of* the
/// IO lock so the disk sync pipelines with the next epoch's write (and,
/// under `Interval`, with the appenders themselves). The dup'd handle
/// stays valid even if the active segment rolls while the sync runs;
/// `segment`/`offset` snapshot what the sync certifies durable (kept for
/// a simulated power failure).
pub(super) struct PendingSync {
    file: File,
    #[cfg(any(test, feature = "testing"))]
    segment: u64,
    #[cfg(any(test, feature = "testing"))]
    offset: u64,
}

/// Staging state of the group-commit protocol, guarded by `Wal::group`.
/// The IO state (`WalInner`) is a separate lock that a leader acquires
/// only *after* releasing this one, so stagers keep filling the next
/// epoch while the current batch is being written and fsynced.
#[derive(Debug)]
pub(super) struct GroupInner {
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

impl GroupInner {
    pub(super) fn new() -> Self {
        GroupInner {
            buf: Vec::with_capacity(1024),
            frames: 0,
            staging_epoch: 1,
            committed_epoch: 0,
            leader_active: false,
            spare: Vec::with_capacity(1024),
        }
    }
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

impl Wal {
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
    /// the whole run. An enqueue frames its copy under its partition lock
    /// and lands it here.
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
        // Kill mid-append (test builds): a strict prefix of the batch.
        #[cfg(any(test, feature = "testing"))]
        {
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
                #[cfg(any(test, feature = "testing"))]
                segment: inner.segment,
                #[cfg(any(test, feature = "testing"))]
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

    /// Waits until everything staged at call time is written, leading
    /// the commit if no leader is active. No-op when the group is idle.
    pub(super) fn flush_staged(&self) -> io::Result<()> {
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
}

/// The completion half of a pipelined sync — on [`WalShared`] so the
/// background flusher can run it without a handle to the public [`Wal`].
impl WalShared {
    /// Carries out a [`PendingSync`] with no WAL locks held. A test build
    /// then folds the certified offset into the offset a simulated power
    /// failure keeps (unless the segment rolled away underneath — roll
    /// syncs closing segments itself), and arms the dropped-fsync fault
    /// on it like on every other sync.
    pub(super) fn finish_sync(&self, sync: PendingSync) -> io::Result<()> {
        let result = self.finish_sync_inner(sync);
        // Clear the in-flight flag on every path — deferred leaders and
        // the initiation gate are waiting on it (poison, not the flag,
        // is what stops them after a failed sync).
        self.sync_inflight.store(false, Ordering::Release);
        result
    }

    fn finish_sync_inner(&self, sync: PendingSync) -> io::Result<()> {
        #[cfg(any(test, feature = "testing"))]
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
        #[cfg(any(test, feature = "testing"))]
        {
            let mut inner = self.inner.lock();
            if inner.segment == sync.segment {
                inner.synced_offset = inner.synced_offset.max(sync.offset);
            }
        }
        Ok(())
    }
}

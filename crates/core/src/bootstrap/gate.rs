//! The DBLog-style watermark gate: the subscriber-side reconciliation
//! window a bootstrap copier opens around each chunk select.
//!
//! Protocol (per chunk): the copier calls [`WatermarkGate::begin_chunk`],
//! publishes a *low* watermark marker into every partition of the
//! subscriber's queue, selects the chunk, publishes a *high* watermark, and
//! calls [`WatermarkGate::await_window`]. Subscriber workers report the
//! markers they consume ([`WatermarkGate::note_marker`]) and, while a
//! partition sits between its lo and hi marker, the identity
//! ([`DepName::identity`](crate::DepName::identity)) of every object they
//! write ([`WatermarkGate::note_applied`]). When all partitions have seen
//! both markers, the window closes and [`WatermarkGate::take_touched`]
//! yields the objects the live stream touched *during* the select — chunk
//! rows of those objects are stale by construction and are dropped in
//! favor of the live stream; everything else merges through the queue with
//! no drain phase.
//!
//! The gate is an optimization, not a correctness gate: admission into the
//! replica is decided by [`synapse_versionstore::AdmitRule::Copy`] against
//! committed versions, so a window that times out (slow worker, injected
//! fault) merely forgoes the pre-filter and lets the version check discard
//! the same rows one by one. `await_window` therefore proceeds on timeout
//! and reports it, rather than stalling the copier.

use parking_lot::{Condvar, Mutex};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Default)]
struct GateInner {
    /// Bootstrap session the current window belongs to; markers from
    /// other sessions (e.g. redelivered after a crash of a superseded
    /// attempt) are ignored.
    session: u64,
    chunk: u64,
    /// Whether a window is currently open at all.
    open: bool,
    lo_seen: Vec<bool>,
    hi_seen: Vec<bool>,
    /// Objects written by live deliveries while their partition was
    /// inside the window.
    touched: HashSet<u64>,
    /// Windows that closed by timeout instead of marker arrival.
    timed_out: u64,
}

impl GateInner {
    fn window_complete(&self) -> bool {
        self.open && self.hi_seen.iter().all(|seen| *seen)
    }
}

/// Shared between the bootstrap copier (one per node) and the subscriber
/// workers. See the module docs for the protocol.
#[derive(Default)]
pub(crate) struct WatermarkGate {
    inner: Mutex<GateInner>,
    closed: Condvar,
    /// Fast-path flag the live apply path checks before taking the lock:
    /// `true` only while a bootstrap session is running. Workers on a
    /// steady-state node pay one relaxed load per batch and nothing else.
    active: AtomicBool,
}

impl WatermarkGate {
    /// Creates an inactive gate.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Marks a bootstrap session as running: live appliers start checking
    /// in with [`WatermarkGate::note_applied`].
    pub(crate) fn activate(&self) {
        self.active.store(true, Ordering::Release);
    }

    /// Marks the session finished and discards any half-open window.
    pub(crate) fn deactivate(&self) {
        let mut inner = self.inner.lock();
        inner.open = false;
        inner.touched.clear();
        self.active.store(false, Ordering::Release);
        self.closed.notify_all();
    }

    /// Whether a bootstrap session is running (relaxed fast path for the
    /// live apply loop).
    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Opens the reconciliation window for `(session, chunk)` across
    /// `partitions` queue partitions, replacing any previous window.
    pub(crate) fn begin_chunk(&self, session: u64, chunk: u64, partitions: usize) {
        let mut inner = self.inner.lock();
        inner.session = session;
        inner.chunk = chunk;
        inner.open = true;
        inner.lo_seen.clear();
        inner.lo_seen.resize(partitions, false);
        inner.hi_seen.clear();
        inner.hi_seen.resize(partitions, false);
        inner.touched.clear();
    }

    /// Records a consumed watermark marker. Markers for a stale session or
    /// chunk (crash redelivery of an abandoned window) are ignored — the
    /// payload is self-describing precisely so this check is possible.
    pub(crate) fn note_marker(&self, session: u64, chunk: u64, partition: usize, high: bool) {
        let mut inner = self.inner.lock();
        if !inner.open || inner.session != session || inner.chunk != chunk {
            return;
        }
        let slot = if high {
            inner.hi_seen.get_mut(partition)
        } else {
            inner.lo_seen.get_mut(partition)
        };
        if let Some(seen) = slot {
            *seen = true;
        }
        if inner.window_complete() {
            self.closed.notify_all();
        }
    }

    /// Records the objects a live delivery on `partition` wrote. Only
    /// writes applied strictly inside the window (lo marker consumed, hi
    /// marker not yet) matter: anything before lo is older than the chunk
    /// select began, anything after hi is newer than rows already
    /// reconciled.
    pub(crate) fn note_applied(&self, partition: usize, objects: &[u64]) {
        if !self.is_active() {
            return;
        }
        let mut inner = self.inner.lock();
        if !inner.open {
            return;
        }
        let in_window = inner.lo_seen.get(partition).copied().unwrap_or(false)
            && !inner.hi_seen.get(partition).copied().unwrap_or(false);
        if in_window {
            inner.touched.extend(objects.iter().copied());
        }
    }

    /// Blocks until every partition has consumed the current window's high
    /// watermark, or `timeout` passes. Returns whether the window actually
    /// completed; `false` (timeout, or the gate was deactivated under the
    /// copier) is survivable — the caller skips the pre-filter and lets
    /// per-row version admission do the same work.
    pub(crate) fn await_window(&self, session: u64, chunk: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            if !inner.open || inner.session != session || inner.chunk != chunk {
                return false;
            }
            if inner.window_complete() {
                return true;
            }
            if self.closed.wait_until(&mut inner, deadline).timed_out() {
                inner.timed_out += 1;
                return false;
            }
        }
    }

    /// Closes the current window and returns the objects live deliveries
    /// wrote inside it.
    pub(crate) fn take_touched(&self) -> HashSet<u64> {
        let mut inner = self.inner.lock();
        inner.open = false;
        std::mem::take(&mut inner.touched)
    }

    /// Windows that closed by timeout instead of marker arrival since
    /// construction.
    pub(crate) fn windows_timed_out(&self) -> u64 {
        self.inner.lock().timed_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn window_closes_when_all_partitions_see_hi() {
        let gate = Arc::new(WatermarkGate::new());
        gate.activate();
        gate.begin_chunk(1, 0, 2);

        let waiter = {
            let gate = gate.clone();
            thread::spawn(move || gate.await_window(1, 0, Duration::from_secs(5)))
        };
        gate.note_marker(1, 0, 0, false);
        gate.note_marker(1, 0, 1, false);
        gate.note_marker(1, 0, 0, true);
        thread::sleep(Duration::from_millis(20));
        gate.note_marker(1, 0, 1, true);
        assert!(waiter.join().unwrap(), "window completes");
    }

    #[test]
    fn touched_keys_are_collected_only_inside_the_window() {
        let gate = WatermarkGate::new();
        gate.activate();
        gate.begin_chunk(7, 3, 1);

        gate.note_applied(0, &[1]); // before lo: ignored
        gate.note_marker(7, 3, 0, false);
        gate.note_applied(0, &[2, 3]); // inside: collected
        gate.note_marker(7, 3, 0, true);
        gate.note_applied(0, &[4]); // after hi: ignored

        assert!(gate.await_window(7, 3, Duration::from_millis(50)));
        let touched = gate.take_touched();
        assert_eq!(touched, HashSet::from([2, 3]));
    }

    #[test]
    fn stale_session_and_chunk_markers_are_ignored() {
        let gate = WatermarkGate::new();
        gate.activate();
        gate.begin_chunk(2, 5, 1);
        // Redelivered markers from an abandoned attempt must not close the
        // current window.
        gate.note_marker(1, 5, 0, true);
        gate.note_marker(2, 4, 0, true);
        assert!(!gate.await_window(2, 5, Duration::from_millis(20)));
        assert_eq!(gate.windows_timed_out(), 1);
    }

    #[test]
    fn deactivate_unblocks_waiters_and_stops_collection() {
        let gate = Arc::new(WatermarkGate::new());
        gate.activate();
        gate.begin_chunk(1, 0, 1);
        let waiter = {
            let gate = gate.clone();
            thread::spawn(move || gate.await_window(1, 0, Duration::from_secs(5)))
        };
        thread::sleep(Duration::from_millis(20));
        gate.deactivate();
        assert!(!waiter.join().unwrap(), "deactivation aborts the wait");
        gate.note_applied(0, &[9]);
        assert!(gate.take_touched().is_empty());
    }
}

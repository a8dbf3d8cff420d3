//! Causal scopes: the unit within which dependencies are tracked.
//!
//! "Synapse implicitly tracks data dependencies within the scope of
//! individual controllers (serving HTTP requests), and the scope of
//! individual background jobs" (§4.2). The MVC layer opens a scope around
//! every controller execution and job; inside it the publisher records:
//!
//! * read dependencies — every object returned by a read query;
//! * the causal chain — the previous update's first write dependency
//!   becomes a read dependency of the next update, serializing updates
//!   within the controller;
//! * the user dependency — the session's user object is added as a write
//!   dependency to every write, serializing all updates within a user
//!   session;
//! * explicit dependencies added by `add_read_deps` / `add_write_deps`
//!   (Table 2), for the rare aggregation queries Synapse cannot infer;
//! * the transaction buffer, when writes are being combined into one
//!   message;
//! * Synapse's own time spent inside the controller (the Fig. 12 overhead
//!   instrumentation).

use crate::deps::DepName;
use std::cell::RefCell;
use std::collections::HashSet;
use synapse_versionstore::DepKey;

/// Dependency-tracking state of one controller/job execution.
#[derive(Debug, Default)]
pub(crate) struct Scope {
    /// The session's user dependency (per-user-session serialization).
    pub(crate) user_dep: Option<DepName>,
    /// Objects read so far, in order, deduplicated.
    pub(crate) read_deps: Vec<DepName>,
    /// Membership index over `read_deps` (dedup without the O(n) scan).
    read_seen: HashSet<DepName>,
    /// First write dependency of the previous update in this scope.
    pub(crate) last_write_dep: Option<DepName>,
    /// Explicit read dependencies (`add_read_deps`).
    pub(crate) explicit_read: Vec<DepName>,
    /// Explicit write dependencies (`add_write_deps`).
    pub(crate) explicit_write: Vec<DepName>,
    /// `Some` while writes are buffered into one message.
    pub(crate) tx_buffer: Option<TxBuffer>,
    /// Nanoseconds spent in Synapse publishing code within this scope.
    pub(crate) synapse_nanos: u64,
    /// Messages published from this scope.
    pub(crate) messages: u64,
    /// Total dependencies across those messages.
    pub(crate) deps_published: u64,
}

/// Buffered operations of an in-scope transaction.
#[derive(Debug, Default)]
pub(crate) struct TxBuffer {
    /// Operations accumulated so far, encoded as the elements of the
    /// message's `operations` array, comma-separated.
    pub(crate) operations: String,
    /// Time spent encoding them, which the combined message's wire-encode
    /// stage includes.
    pub(crate) encode_nanos: u64,
    /// The route key of the first buffered operation, the message's own.
    pub(crate) route: u64,
    /// Merged dependency map (max *rebased* version wins per key).
    pub(crate) dependencies: std::collections::BTreeMap<DepKey, u64>,
    /// How many times each key's `ops` counter has been bumped by the
    /// operations already buffered. Later operations' dependency values are
    /// rebased by this amount so the combined message only waits on state
    /// from *before* the transaction — its own operations satisfy the
    /// intra-transaction dependencies atomically.
    pub(crate) bumped: std::collections::BTreeMap<DepKey, u64>,
    /// Version vectors of buffered bidirectional writes, joined per key
    /// (multi-writer replication).
    pub(crate) vectors: std::collections::BTreeMap<DepKey, synapse_versionstore::VersionVector>,
}

/// Per-scope measurement summary returned by [`with_scope`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScopeStats {
    /// Nanoseconds spent inside Synapse publishing code.
    pub synapse_nanos: u64,
    /// Messages published.
    pub messages: u64,
    /// Dependencies across published messages.
    pub deps_published: u64,
}

/// What the Fig. 12 controller table records of a scope
/// ([`ControllerStats::record`](synapse_telemetry::ControllerStats::record)).
impl From<ScopeStats> for synapse_telemetry::ScopeSample {
    fn from(s: ScopeStats) -> Self {
        synapse_telemetry::ScopeSample {
            synapse_nanos: s.synapse_nanos,
            messages: s.messages,
            deps_published: s.deps_published,
        }
    }
}

thread_local! {
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

pub(crate) use synapse_orm::{is_replicating, with_replication_flag};

/// Runs `f` inside a fresh anonymous scope (a background job).
pub fn with_scope<R>(f: impl FnOnce() -> R) -> (R, ScopeStats) {
    enter(None, f)
}

/// Runs `f` inside a scope bound to a user session (a controller).
pub fn with_user_scope<R>(user_dep: DepName, f: impl FnOnce() -> R) -> (R, ScopeStats) {
    enter(Some(user_dep), f)
}

fn enter<R>(user_dep: Option<DepName>, f: impl FnOnce() -> R) -> (R, ScopeStats) {
    let previous = SCOPE.with(|s| {
        s.borrow_mut().replace(Scope {
            user_dep,
            ..Scope::default()
        })
    });
    let result = f();
    let finished = SCOPE.with(|s| {
        let mut slot = s.borrow_mut();
        let finished = slot.take();
        *slot = previous;
        finished
    });
    let stats = finished
        .map(|sc| ScopeStats {
            synapse_nanos: sc.synapse_nanos,
            messages: sc.messages,
            deps_published: sc.deps_published,
        })
        .unwrap_or_default();
    (result, stats)
}

/// Whether a scope is currently open on this thread.
pub fn in_scope() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
}

/// Mutates the current scope, if any.
pub(crate) fn scope_mut<R>(f: impl FnOnce(&mut Scope) -> R) -> Option<R> {
    SCOPE.with(|s| s.borrow_mut().as_mut().map(f))
}

/// Records an object read (deduplicated, order preserved).
pub(crate) fn record_read(dep: DepName) {
    scope_mut(|s| {
        if s.read_seen.insert(dep.clone()) {
            s.read_deps.push(dep);
        }
    });
}

/// Adds explicit read dependencies (Table 2's `add_read_deps`), for read
/// queries — e.g. aggregations — whose dependencies Synapse cannot infer.
pub fn add_read_deps(names: &[&str]) {
    scope_mut(|s| {
        for n in names {
            s.explicit_read.push(DepName::named(n));
        }
    });
}

/// Adds explicit write dependencies (Table 2's `add_write_deps`).
pub fn add_write_deps(names: &[&str]) {
    scope_mut(|s| {
        for n in names {
            s.explicit_write.push(DepName::named(n));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use synapse_model::Id;

    #[test]
    fn scope_opens_and_closes() {
        assert!(!in_scope());
        let ((), stats) = with_scope(|| {
            assert!(in_scope());
        });
        assert!(!in_scope());
        assert_eq!(stats, ScopeStats::default());
    }

    #[test]
    fn scope_stats_record_as_a_controller_sample() {
        let stats = synapse_telemetry::ControllerStats::new();
        stats.record(
            "actions/update",
            std::time::Duration::from_millis(100),
            ScopeStats {
                synapse_nanos: 10_000_000,
                messages: 2,
                deps_published: 6,
            },
        );
        let row = stats.row("actions/update").unwrap();
        assert_eq!(row.calls, 1);
        assert!((row.mean_messages - 2.0).abs() < 1e-9);
        assert!((row.overhead - 0.1).abs() < 0.01);
    }

    #[test]
    fn reads_deduplicate_but_keep_order() {
        with_scope(|| {
            record_read(DepName::object("a", "Post", Id(1)));
            record_read(DepName::object("a", "User", Id(2)));
            record_read(DepName::object("a", "Post", Id(1)));
            let reads = scope_mut(|s| s.read_deps.clone()).unwrap();
            assert_eq!(reads.len(), 2);
            assert_eq!(reads[0].as_str(), "a/post/id/1");
        });
    }

    #[test]
    fn user_scope_carries_the_session_dependency() {
        let user = DepName::object("app", "User", Id(7));
        with_user_scope(user.clone(), || {
            assert_eq!(scope_mut(|s| s.user_dep.clone()).unwrap(), Some(user));
        });
    }

    #[test]
    fn explicit_deps_require_a_scope() {
        add_read_deps(&["outside"]);
        with_scope(|| {
            add_read_deps(&["inside_r"]);
            add_write_deps(&["inside_w"]);
            let (r, w) = scope_mut(|s| (s.explicit_read.len(), s.explicit_write.len())).unwrap();
            assert_eq!((r, w), (1, 1));
        });
    }

    #[test]
    fn scopes_nest_by_saving_the_outer_one() {
        with_scope(|| {
            record_read(DepName::named("outer"));
            with_scope(|| {
                assert_eq!(scope_mut(|s| s.read_deps.len()).unwrap(), 0);
            });
            assert_eq!(scope_mut(|s| s.read_deps.len()).unwrap(), 1);
        });
    }

    #[test]
    fn replication_flag_is_scoped() {
        assert!(!is_replicating());
        with_replication_flag(|| assert!(is_replicating()));
        assert!(!is_replicating());
    }
}

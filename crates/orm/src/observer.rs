//! The query-interception surface.
//!
//! Synapse's "Query Intercept" module (Fig. 6(a)) sits between the ORM and
//! the DB driver. In this reproduction the [`Orm`] routes every operation
//! through its one installed [`QueryObserver`] (see [`Orm::observe`]):
//!
//! * reads that return objects invoke [`QueryObserver::on_read`] — how the
//!   publisher discovers *read dependencies* implicitly (§4.2: "Synapse
//!   always infers the correct set of dependencies when encountering read
//!   queries that return objects"); aggregations (counts) are deliberately
//!   *not* reported, matching the paper's observation that they are not true
//!   dependencies;
//! * writes are wrapped by [`QueryObserver::around_write`]: the observer
//!   receives the [`WriteIntent`] *before* the query executes (so it can
//!   lock the write dependency), runs the provided thunk to perform the
//!   actual query, and sees the written post-images afterwards.

use crate::error::OrmError;
use crate::orm::{Changes, Orm};
use std::cell::RefCell;
use synapse_model::{Id, Record};

/// Kind of a write operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// A new object is created.
    Create,
    /// An existing object's attributes change.
    Update,
    /// An object is destroyed.
    Delete,
}

impl WriteKind {
    /// Wire-format operation name (Fig. 6(b): `"operation": "update"`).
    pub fn wire_name(self) -> &'static str {
        match self {
            WriteKind::Create => "create",
            WriteKind::Update => "update",
            WriteKind::Delete => "destroy",
        }
    }
}

/// A write about to be executed: everything known before the query runs.
///
/// ORM operations are object-level, so the intent always pins down the
/// single object being written (the paper unrolls multi-object updates into
/// single-object updates for the same reason, §4.2). It borrows from the
/// write it describes.
#[derive(Debug, Clone, Copy)]
pub struct WriteIntent<'a> {
    /// Kind of write.
    pub kind: WriteKind,
    /// Model name.
    pub model: &'a str,
    /// Primary key of the object being written.
    pub id: Id,
    /// The changes the caller asked an update for; empty for a destroy and
    /// for a create, whose attributes the engine takes. Read them before
    /// `exec`: an update without a `BeforeUpdate` callback moves this map
    /// into the engine, leaving it empty.
    pub changes: &'a RefCell<Changes>,
}

/// The thunk that performs the underlying engine write and returns the
/// written record's post-image (pre-image for deletes). It hands the
/// engine its row, so a second call is an error that writes nothing.
pub type WriteExec<'a> = dyn FnMut() -> Result<Record, OrmError> + 'a;

/// Interception hooks. Synapse's publisher implements this trait; tests use
/// it to assert on interception behaviour. An ORM holds one.
pub trait QueryObserver: Send + Sync {
    /// Called after any read query that returned objects.
    fn on_read(&self, _orm: &Orm, _records: &[Record]) {}

    /// Wraps a write. The default implementation simply executes it.
    ///
    /// Implementations must call `exec` exactly once on the success path;
    /// not calling it aborts the write, and the error returned propagates
    /// to the application.
    fn around_write(
        &self,
        _orm: &Orm,
        _intent: &WriteIntent,
        exec: &mut WriteExec<'_>,
    ) -> Result<Record, OrmError> {
        exec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_match_fig6b() {
        assert_eq!(WriteKind::Create.wire_name(), "create");
        assert_eq!(WriteKind::Update.wire_name(), "update");
        assert_eq!(WriteKind::Delete.wire_name(), "destroy");
    }
}

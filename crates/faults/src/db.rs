//! Database faults: transient write errors and latency spikes, injected
//! at the ORM's adapter seam.
//!
//! A [`DbFaults`] handle is a cloneable arming panel. [`DbFaults::wrap`]
//! puts it around the [`Adapter`] a node is built with: the wrapper
//! delegates every adapter method and gates the three writes (`insert`,
//! `update`, `delete`). While faults are armed a write either fails with
//! [`DbError::Unavailable`] (a *transient* error — the engine recovers by
//! itself, unlike a kill) or is charged an extra latency spike before the
//! engine runs it, as a slow engine would be.
//!
//! The error comes back from inside the interceptor's `around_write`,
//! where a real engine error comes back, so the publisher treats a
//! refused write as it treats any failed one: nothing is bumped, stamped
//! or published. Reads are never gated.
//!
//! Arming is explicit and countdown-based (the next `n` writes), never
//! probabilistic, so a fault schedule driven by a seeded plan yields
//! identical injection counts on every run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use synapse_db::query::OrderBy;
use synapse_db::{DbError, Engine, Filter, QueryResult, Row};
use synapse_model::{Id, ModelSchema, Record};
use synapse_orm::{Adapter, OrmError};

/// Counters of faults actually injected through one [`DbFaults`] handle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DbFaultStats {
    /// Writes failed with [`DbError::Unavailable`].
    pub write_errors_injected: u64,
    /// Writes delayed by an injected latency spike.
    pub latency_spikes_charged: u64,
}

#[derive(Default)]
struct FaultsInner {
    /// Fail the next `n` writes with a transient error.
    write_fail_next: AtomicU64,
    /// Delay the next `n` writes by `spike_micros` each.
    spike_next: AtomicU64,
    spike_micros: AtomicU64,
    write_errors_injected: AtomicU64,
    latency_spikes_charged: AtomicU64,
}

/// Cloneable handle arming deterministic db-level faults; clones share
/// state.
#[derive(Clone, Default)]
pub struct DbFaults {
    inner: Arc<FaultsInner>,
}

impl DbFaults {
    pub fn new() -> Self {
        Self::default()
    }

    /// `adapter` with this panel's gate on its writes; hand the result to
    /// the node or ORM under test.
    pub fn wrap(&self, adapter: Arc<dyn Adapter>) -> Arc<dyn Adapter> {
        Arc::new(Gated {
            inner: adapter,
            faults: self.clone(),
        })
    }

    /// Arms transient failures for the next `n` writes.
    pub fn inject_write_errors(&self, n: u64) {
        self.inner.write_fail_next.fetch_add(n, Ordering::SeqCst);
    }

    /// Arms latency spikes: the next `ops` writes each take an extra
    /// `each`. Re-arming replaces the spike duration.
    pub fn inject_latency_spikes(&self, ops: u64, each: Duration) {
        self.inner
            .spike_micros
            .store(each.as_micros() as u64, Ordering::SeqCst);
        self.inner.spike_next.fetch_add(ops, Ordering::SeqCst);
    }

    /// Disarms all pending faults (armed-but-unfired countdowns are
    /// cleared; injection counters are kept).
    pub fn disarm(&self) {
        self.inner.write_fail_next.store(0, Ordering::SeqCst);
        self.inner.spike_next.store(0, Ordering::SeqCst);
    }

    /// Whether any fault countdown is still armed.
    pub fn is_armed(&self) -> bool {
        self.inner.write_fail_next.load(Ordering::SeqCst) > 0
            || self.inner.spike_next.load(Ordering::SeqCst) > 0
    }

    /// Consumes one armed fault, if any: returns the transient error or
    /// charges the latency spike. Runs before the wrapped adapter's write.
    fn gate_write(&self) -> Result<(), DbError> {
        if consume_one(&self.inner.write_fail_next) {
            self.inner
                .write_errors_injected
                .fetch_add(1, Ordering::SeqCst);
            return Err(DbError::Unavailable);
        }
        if consume_one(&self.inner.spike_next) {
            self.inner
                .latency_spikes_charged
                .fetch_add(1, Ordering::SeqCst);
            let micros = self.inner.spike_micros.load(Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(micros));
        }
        Ok(())
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> DbFaultStats {
        DbFaultStats {
            write_errors_injected: self.inner.write_errors_injected.load(Ordering::SeqCst),
            latency_spikes_charged: self.inner.latency_spikes_charged.load(Ordering::SeqCst),
        }
    }
}

impl std::fmt::Debug for DbFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbFaults")
            .field("write_fail_next", &self.inner.write_fail_next)
            .field("spike_next", &self.inner.spike_next)
            .finish()
    }
}

/// Atomically decrements `counter` if non-zero; returns whether it did.
fn consume_one(counter: &AtomicU64) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

/// An adapter behind a [`DbFaults`] gate (see [`DbFaults::wrap`]).
struct Gated {
    inner: Arc<dyn Adapter>,
    faults: DbFaults,
}

impl Adapter for Gated {
    fn orm_name(&self) -> &'static str {
        self.inner.orm_name()
    }

    fn engine(&self) -> &dyn Engine {
        self.inner.engine()
    }

    fn table_for(&self, model: &str) -> String {
        self.inner.table_for(model)
    }

    fn define_model(&self, schema: &ModelSchema) -> Result<(), OrmError> {
        self.inner.define_model(schema)
    }

    fn encode_attrs(&self, schema: &ModelSchema, attrs: Row) -> Row {
        self.inner.encode_attrs(schema, attrs)
    }

    fn decode_row(&self, schema: &ModelSchema, id: Id, row: Row) -> Record {
        self.inner.decode_row(schema, id, row)
    }

    fn insert(&self, schema: &ModelSchema, id: Id, attrs: Row) -> Result<Record, OrmError> {
        self.faults.gate_write()?;
        self.inner.insert(schema, id, attrs)
    }

    fn update(&self, schema: &ModelSchema, id: Id, changes: Row) -> Result<Record, OrmError> {
        self.faults.gate_write()?;
        self.inner.update(schema, id, changes)
    }

    fn delete(&self, schema: &ModelSchema, pre: &Record) -> Result<Record, OrmError> {
        self.faults.gate_write()?;
        self.inner.delete(schema, pre)
    }

    fn find(&self, schema: &ModelSchema, id: Id) -> Result<Option<Record>, OrmError> {
        self.inner.find(schema, id)
    }

    fn select(
        &self,
        schema: &ModelSchema,
        filter: Filter,
        order: Option<OrderBy>,
        limit: Option<usize>,
    ) -> Result<Vec<Record>, OrmError> {
        self.inner.select(schema, filter, order, limit)
    }

    fn count(&self, schema: &ModelSchema, filter: Filter) -> Result<u64, OrmError> {
        self.inner.count(schema, filter)
    }

    fn written_image(
        &self,
        schema: &ModelSchema,
        id: Id,
        res: QueryResult,
    ) -> Result<Record, OrmError> {
        self.inner.written_image(schema, id, res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use synapse_db::LatencyModel;
    use synapse_model::vmap;
    use synapse_orm::adapters::MongoidAdapter;
    use synapse_orm::Orm;

    #[test]
    fn write_errors_count_down_exactly() {
        let faults = DbFaults::new();
        faults.inject_write_errors(2);
        assert_eq!(faults.gate_write(), Err(DbError::Unavailable));
        assert_eq!(faults.gate_write(), Err(DbError::Unavailable));
        assert_eq!(faults.gate_write(), Ok(()));
        assert_eq!(faults.stats().write_errors_injected, 2);
    }

    #[test]
    fn latency_spikes_charge_and_expire() {
        let faults = DbFaults::new();
        faults.inject_latency_spikes(3, Duration::from_micros(500));
        let start = Instant::now();
        for _ in 0..5 {
            faults.gate_write().unwrap();
        }
        assert!(start.elapsed() >= Duration::from_micros(1_500));
        assert_eq!(faults.stats().latency_spikes_charged, 3);
        assert!(!faults.is_armed());
    }

    #[test]
    fn clones_share_arming_state() {
        let faults = DbFaults::new();
        let clone = faults.clone();
        faults.inject_write_errors(1);
        assert!(clone.gate_write().is_err());
        assert!(faults.gate_write().is_ok());
    }

    #[test]
    fn disarm_clears_pending_faults() {
        let faults = DbFaults::new();
        faults.inject_write_errors(10);
        faults.inject_latency_spikes(10, Duration::from_millis(1));
        faults.disarm();
        assert!(!faults.is_armed());
        assert_eq!(faults.gate_write(), Ok(()));
        assert_eq!(faults.stats(), DbFaultStats::default());
    }

    #[test]
    fn injected_db_fault_fails_one_write_transiently() {
        let faults = DbFaults::new();
        let adapter = Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off()));
        let orm = Orm::new("test_app", faults.wrap(adapter));
        orm.define_model(ModelSchema::open("User")).unwrap();
        faults.inject_write_errors(1);
        let err = orm.create("User", vmap! { "name" => "a" }).unwrap_err();
        assert!(matches!(err, OrmError::Db(DbError::Unavailable)));
        // The fault is transient: the next write goes through, and reads
        // were never affected.
        let u = orm.create("User", vmap! { "name" => "a" }).unwrap();
        assert!(orm.find("User", u.id).unwrap().is_some());
        assert_eq!(faults.stats().write_errors_injected, 1);
    }

    #[test]
    fn every_write_verb_is_gated_and_no_read_is() {
        let faults = DbFaults::new();
        let adapter = Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off()));
        let orm = Orm::new("test_app", faults.wrap(adapter));
        orm.define_model(ModelSchema::open("User")).unwrap();
        let u = orm.create("User", vmap! { "name" => "a" }).unwrap();
        faults.inject_write_errors(1);
        assert!(orm.find("User", u.id).unwrap().is_some());
        assert_eq!(orm.count("User").unwrap(), 1);
        assert!(orm.exists("User", u.id).unwrap());
        assert!(faults.is_armed(), "reads consume no fault");
        assert!(orm.update("User", u.id, vmap! { "name" => "b" }).is_err());
        faults.inject_write_errors(1);
        assert!(orm.destroy("User", u.id).is_err());
        faults.inject_write_errors(1);
        assert!(orm.create("User", vmap! {}).is_err());
        assert_eq!(faults.stats().write_errors_injected, 3);
        assert_eq!(
            orm.find("User", u.id)
                .unwrap()
                .unwrap()
                .get("name")
                .as_str(),
            Some("a"),
            "a refused write changed nothing"
        );
    }
}

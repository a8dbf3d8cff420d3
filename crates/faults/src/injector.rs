//! Applies fault events to the live system under test.
//!
//! The [`Injector`] holds handles to the broker, the per-side version
//! stores, and the per-side [`DbFaults`] arming panels (each gating the
//! adapter its side's node was built with), and translates
//! each [`FaultKind`] into the corresponding substrate call. It keeps
//! deterministic counters of everything it scheduled: because countdown
//! faults record the *armed* amount (fixed by the plan) rather than an
//! outcome subject to thread timing, [`InjectorStats`] is identical
//! across runs of the same plan.

use crate::db::DbFaults;
use crate::plan::{FaultEvent, FaultKind, FaultPlan, Side};
use std::sync::Arc;
use std::time::Duration;
use synapse_broker::Broker;
use synapse_versionstore::VersionStore;

/// Deterministic totals of faults scheduled through one injector.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InjectorStats {
    /// Deliveries scheduled to be dropped.
    pub drops_scheduled: u64,
    /// Publishes scheduled to fail transiently.
    pub publish_failures_scheduled: u64,
    /// Broker restarts triggered.
    pub broker_restarts: u64,
    /// Version-store shards killed.
    pub shard_kills: u64,
    /// Revive sweeps applied to version stores.
    pub shard_revives: u64,
    /// Database writes scheduled to fail transiently.
    pub db_write_errors_scheduled: u64,
    /// Database writes scheduled to be delayed.
    pub db_latency_spikes_scheduled: u64,
    /// Events that named a side with no registered target.
    pub skipped: u64,
}

impl InjectorStats {
    /// Total faults scheduled (excluding skips).
    pub fn total_scheduled(&self) -> u64 {
        self.drops_scheduled
            + self.publish_failures_scheduled
            + self.broker_restarts
            + self.shard_kills
            + self.shard_revives
            + self.db_write_errors_scheduled
            + self.db_latency_spikes_scheduled
    }
}

/// Dispatches [`FaultKind`]s onto broker / version-store / db handles.
pub struct Injector {
    broker: Broker,
    queue: String,
    stores: [Option<Arc<VersionStore>>; 2],
    dbs: [Option<DbFaults>; 2],
    stats: InjectorStats,
}

impl Injector {
    /// Creates an injector targeting `queue` on `broker`; version stores
    /// and db fault panels are attached per side with the builder methods.
    pub fn new(broker: Broker, queue: impl Into<String>) -> Self {
        Self {
            broker,
            queue: queue.into(),
            stores: [None, None],
            dbs: [None, None],
            stats: InjectorStats::default(),
        }
    }

    /// Registers the version store for one side.
    pub fn with_store(mut self, side: Side, store: Arc<VersionStore>) -> Self {
        self.stores[side.index()] = Some(store);
        self
    }

    /// Registers the db fault panel for one side: the [`DbFaults`] whose
    /// [`DbFaults::wrap`] gates that side's adapter.
    pub fn with_db(mut self, side: Side, faults: DbFaults) -> Self {
        self.dbs[side.index()] = Some(faults);
        self
    }

    /// Applies one fault; returns `false` if the event named a side with
    /// no registered target (counted in [`InjectorStats::skipped`]).
    pub fn apply(&mut self, kind: &FaultKind) -> bool {
        match *kind {
            FaultKind::DropMessages { n } => {
                self.broker.inject_drop_next(&self.queue, n);
                self.stats.drops_scheduled += n;
            }
            FaultKind::PublishFailures { n } => {
                self.broker.inject_publish_failures(n);
                self.stats.publish_failures_scheduled += n;
            }
            FaultKind::BrokerRestart => {
                self.broker.recover();
                self.stats.broker_restarts += 1;
            }
            FaultKind::KillShard { side, shard } => match &self.stores[side.index()] {
                Some(store) => {
                    store.kill_shard(shard % store.shard_count());
                    self.stats.shard_kills += 1;
                }
                None => return self.skip(),
            },
            FaultKind::ReviveShards { side } => match &self.stores[side.index()] {
                Some(store) => {
                    store.revive();
                    self.stats.shard_revives += 1;
                }
                None => return self.skip(),
            },
            FaultKind::DbWriteErrors { side, n } => match &self.dbs[side.index()] {
                Some(db) => {
                    db.inject_write_errors(n);
                    self.stats.db_write_errors_scheduled += n;
                }
                None => return self.skip(),
            },
            FaultKind::DbLatencySpike { side, ops, micros } => match &self.dbs[side.index()] {
                Some(db) => {
                    db.inject_latency_spikes(ops, Duration::from_micros(micros));
                    self.stats.db_latency_spikes_scheduled += ops;
                }
                None => return self.skip(),
            },
        }
        true
    }

    /// Consumes every plan event due at `tick` and applies it; returns
    /// how many events fired.
    pub fn apply_due(&mut self, plan: &mut FaultPlan, tick: u64) -> usize {
        let due: Vec<FaultEvent> = plan.take_due(tick);
        for event in &due {
            self.apply(&event.kind);
        }
        due.len()
    }

    /// Deterministic totals of everything scheduled so far.
    pub fn stats(&self) -> InjectorStats {
        self.stats
    }

    fn skip(&mut self) -> bool {
        self.stats.skipped += 1;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultSpec;
    use synapse_broker::QueueConfig;

    fn harness() -> (
        Broker,
        Arc<VersionStore>,
        Arc<VersionStore>,
        DbFaults,
        DbFaults,
    ) {
        let broker = Broker::new();
        broker.declare_queue("q", QueueConfig::default());
        broker.bind("x", "q");
        (
            broker,
            Arc::new(VersionStore::new(4)),
            Arc::new(VersionStore::new(4)),
            DbFaults::new(),
            DbFaults::new(),
        )
    }

    #[test]
    fn applies_every_kind_to_registered_targets() {
        let (broker, pub_store, sub_store, pub_db, sub_db) = harness();
        let mut injector = Injector::new(broker.clone(), "q")
            .with_store(Side::Publisher, pub_store.clone())
            .with_store(Side::Subscriber, sub_store.clone())
            .with_db(Side::Publisher, pub_db.clone())
            .with_db(Side::Subscriber, sub_db.clone());

        assert!(injector.apply(&FaultKind::PublishFailures { n: 2 }));
        assert!(injector.apply(&FaultKind::KillShard {
            side: Side::Subscriber,
            shard: 1,
        }));
        assert!(sub_store.shard_is_dead(1));
        assert!(injector.apply(&FaultKind::ReviveShards {
            side: Side::Subscriber,
        }));
        assert!(!sub_store.shard_is_dead(1));
        assert!(injector.apply(&FaultKind::DbWriteErrors {
            side: Side::Publisher,
            n: 3,
        }));
        assert!(pub_db.is_armed());
        assert!(injector.apply(&FaultKind::DropMessages { n: 1 }));
        assert!(injector.apply(&FaultKind::BrokerRestart));

        let stats = injector.stats();
        assert_eq!(stats.publish_failures_scheduled, 2);
        assert_eq!(stats.shard_kills, 1);
        assert_eq!(stats.shard_revives, 1);
        assert_eq!(stats.db_write_errors_scheduled, 3);
        assert_eq!(stats.drops_scheduled, 1);
        assert_eq!(stats.broker_restarts, 1);
        assert_eq!(stats.skipped, 0);

        // Armed publish failures are visible through broker behaviour.
        assert!(broker.publish_routed("x", "one", 0, 0).is_err());
        assert!(broker.publish_routed("x", "two", 0, 0).is_err());
        assert!(broker.publish_routed("x", "three", 0, 0).is_ok());
    }

    #[test]
    fn missing_targets_are_skipped_not_fatal() {
        let (broker, ..) = harness();
        let mut injector = Injector::new(broker, "q");
        assert!(!injector.apply(&FaultKind::KillShard {
            side: Side::Publisher,
            shard: 0,
        }));
        assert!(!injector.apply(&FaultKind::DbWriteErrors {
            side: Side::Subscriber,
            n: 1,
        }));
        assert_eq!(injector.stats().skipped, 2);
        assert_eq!(injector.stats().total_scheduled(), 0);
    }

    #[test]
    fn applying_the_same_plan_twice_yields_identical_stats() {
        let spec = FaultSpec {
            events: 24,
            shards: 4,
            ..FaultSpec::default()
        };
        let mut totals = Vec::new();
        for _ in 0..2 {
            let (broker, pub_store, sub_store, pub_db, sub_db) = harness();
            let mut injector = Injector::new(broker, "q")
                .with_store(Side::Publisher, pub_store)
                .with_store(Side::Subscriber, sub_store)
                .with_db(Side::Publisher, pub_db)
                .with_db(Side::Subscriber, sub_db);
            let mut plan = FaultPlan::generate(0xDEAD_BEEF, &spec);
            let mut tick = 0;
            while plan.remaining() > 0 {
                tick += 1;
                injector.apply_due(&mut plan, tick);
            }
            totals.push(injector.stats());
        }
        assert_eq!(totals[0], totals[1]);
        assert!(totals[0].total_scheduled() > 0);
    }
}

//! Broker queue-cap pressure (§4.4, ROADMAP open item): the fault plane
//! slows a live subscriber with database latency spikes until its capped
//! queue overflows and the broker decommissions it *under load* — not the
//! subscriber-down variant of `failure_recovery.rs`. The documented way
//! back is a partial bootstrap, and the cycle must be repeatable: the test
//! drives two full pressure → decommission → bootstrap → converge rounds
//! through one deterministic `FaultPlan`.

use std::time::Duration;
use synapse_faults::{FaultEvent, FaultKind, FaultPlan, Injector, Side};
use synapse_repro::core::{Ecosystem, Publication, Subscription, SynapseConfig};
use synapse_repro::model::vmap;

mod common;
use common::{eventually, faulty_mongo_node, mongo_node};

#[test]
fn queue_pressure_decommissions_under_load_and_bootstrap_cycles_converge() {
    let eco = Ecosystem::new();
    let publisher = mongo_node(&eco, SynapseConfig::new("pub"));
    publisher
        .publish(Publication::model("Post").fields(&["body", "version"]))
        .unwrap();
    // Small cap, one worker: the decommission policy has to fire from
    // backlog growth alone while the worker is actively consuming.
    let (subscriber, sub_db) = faulty_mongo_node(
        &eco,
        SynapseConfig::new("sub")
            .queue_cap(8)
            .workers(1)
            .wait_timeout(Some(Duration::from_millis(50))),
    );
    subscriber
        .subscribe(Subscription::model("Post", "pub").fields(&["body", "version"]))
        .unwrap();
    eco.connect();
    eco.start_all();

    // One latency-spike event per pressure round: every subscriber-side
    // apply stalls 5ms, so a single worker drains ~200 msg/s while the
    // publisher floods orders of magnitude faster.
    let mut plan = FaultPlan::from_events(
        (1..=2)
            .map(|round| FaultEvent {
                at_tick: round,
                kind: FaultKind::DbLatencySpike {
                    side: Side::Subscriber,
                    ops: 10_000,
                    micros: 5_000,
                },
            })
            .collect(),
    );
    let mut injector =
        Injector::new(eco.broker().clone(), "sub").with_db(Side::Subscriber, sub_db.clone());

    let mut published = 0u64;
    for round in 1..=2u64 {
        injector.apply_due(&mut plan, round);

        // Probe: one slowed apply must land before the flood, so the
        // pressure hits a worker that is provably consuming (and charging
        // the spike), not one that never woke up.
        let charged_before = sub_db.stats().latency_spikes_charged;
        let probe = publisher
            .orm()
            .create(
                "Post",
                vmap! { "body" => format!("probe-{round}"), "version" => 0 },
            )
            .unwrap();
        published += 1;
        assert!(
            eventually(Duration::from_secs(5), || {
                subscriber.orm().find("Post", probe.id).unwrap().is_some()
            }),
            "round {round}: probe must replicate before the flood"
        );
        assert!(
            sub_db.stats().latency_spikes_charged > charged_before,
            "round {round}: the probe apply must be slowed by the armed spike"
        );

        // Flood. The cap check runs at enqueue time, so the broker kills
        // the queue mid-flood once the lagging worker falls 8 behind.
        for i in 0..150 {
            publisher
                .orm()
                .create(
                    "Post",
                    vmap! { "body" => format!("r{round}-{i}"), "version" => i },
                )
                .unwrap();
            published += 1;
        }
        assert!(
            eventually(Duration::from_secs(5), || subscriber.is_decommissioned()),
            "round {round}: capped queue must decommission under injected load"
        );

        // Heal the fault, then the §4.4 recovery: partial bootstrap
        // reinstates the queue and copies the publisher's state across.
        sub_db.disarm();
        subscriber.bootstrap_from(&publisher).unwrap();
        assert_eq!(
            subscriber.orm().count("Post").unwrap(),
            published,
            "round {round}: bootstrap must converge to the publisher's rows"
        );
        assert_eq!(subscriber.stats().bootstrap.completions, round);

        // Live replication must work again before the next round.
        let fresh = publisher
            .orm()
            .create(
                "Post",
                vmap! { "body" => format!("fresh-{round}"), "version" => 1000 },
            )
            .unwrap();
        published += 1;
        assert!(
            eventually(Duration::from_secs(5), || {
                subscriber.orm().find("Post", fresh.id).unwrap().is_some()
            }),
            "round {round}: live replication must resume after bootstrap"
        );
    }

    // The pressure was real: copies were refused and/or a backlog was
    // discarded at decommission time, and both spikes were scheduled.
    let broker_stats = eco.broker().stats();
    assert!(
        broker_stats.refused + broker_stats.discarded > 0,
        "decommission must refuse or discard copies under pressure"
    );
    assert_eq!(injector.stats().db_latency_spikes_scheduled, 20_000);
    eco.stop_all();
}

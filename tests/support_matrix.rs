//! Table 1 / Table 3 as a test: every publisher-capable vendor replicates
//! to every subscriber-capable vendor.

use std::time::Duration;
use synapse_repro::core::{DeliveryMode, Ecosystem};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, Id};

mod common;
use common::eventually;

const PUBLISHERS: &[&str] = &[
    "postgresql",
    "mysql",
    "oracle",
    "mongodb",
    "tokumx",
    "cassandra",
    "ephemeral",
];
const SUBSCRIBERS: &[&str] = &[
    "postgresql",
    "mysql",
    "oracle",
    "mongodb",
    "tokumx",
    "cassandra",
    "elasticsearch",
    "neo4j",
    "rethinkdb",
];

#[test]
fn every_vendor_pair_replicates() {
    let mut failures = Vec::new();
    for pub_vendor in PUBLISHERS {
        for sub_vendor in SUBSCRIBERS {
            let eco = Ecosystem::new();
            let pair = synapse_apps::stress::build_pair(
                &eco,
                pub_vendor,
                sub_vendor,
                DeliveryMode::Causal,
                1,
                LatencyModel::off(),
            );
            assert!(eco.connect().is_empty());
            eco.start_all();
            let ok = match pair
                .publisher
                .orm()
                .create("User", vmap! { "name" => "matrix" })
            {
                Ok(user) => eventually(Duration::from_secs(5), || {
                    pair.subscriber
                        .orm()
                        .find("User", user.id)
                        .map(|r| r.is_some())
                        .unwrap_or(false)
                }),
                Err(_) => false,
            };
            eco.stop_all();
            if !ok {
                failures.push(format!("{pub_vendor} → {sub_vendor}"));
            }
        }
    }
    assert!(failures.is_empty(), "failing pairs: {failures:?}");
}

/// What one replicated write asks of the subscriber's engine, for one
/// vendor of every family: the pre-read that decides create-or-update (and
/// is the destroy's pre-image), the write, and — only where the engine
/// cannot return the row it wrote — §4.1's read-back.
#[test]
fn a_replicated_write_costs_one_pre_read_and_one_write() {
    for sub_vendor in [
        "postgresql",
        "mysql",
        "mongodb",
        "cassandra",
        "elasticsearch",
        "neo4j",
    ] {
        let read_back = u64::from(matches!(sub_vendor, "mysql" | "cassandra"));
        let eco = Ecosystem::new();
        let pair = synapse_apps::stress::build_pair(
            &eco,
            "mongodb",
            sub_vendor,
            DeliveryMode::Weak,
            1,
            LatencyModel::off(),
        );
        assert!(eco.connect().is_empty());
        eco.start_all();
        let (publisher, subscriber) = (pair.publisher.orm(), &pair.subscriber);
        let processed = || subscriber.subscriber_stats().messages_processed;
        let cost_of = |write: &dyn Fn()| {
            let applied = processed();
            let before = subscriber.orm().engine_stats();
            write();
            assert!(
                eventually(Duration::from_secs(5), || processed() == applied + 1),
                "{sub_vendor}: the write never arrived"
            );
            let after = subscriber.orm().engine_stats();
            (after.reads - before.reads, after.writes - before.writes)
        };
        let user = publisher.create("User", vmap! { "name" => "a" }).unwrap();
        assert!(eventually(Duration::from_secs(5), || processed() == 1));
        let create = cost_of(&|| {
            publisher
                .create_with_id("User", Id(user.id.raw() + 1), vmap! { "name" => "b" })
                .unwrap();
        });
        assert_eq!(create, (1 + read_back, 1), "{sub_vendor}: create");
        let update = cost_of(&|| {
            publisher
                .update("User", user.id, vmap! { "name" => "c" })
                .unwrap();
        });
        assert_eq!(update, (1 + read_back, 1), "{sub_vendor}: update");
        let destroy = cost_of(&|| {
            publisher.destroy("User", user.id).unwrap();
        });
        assert_eq!(destroy, (1, 1), "{sub_vendor}: destroy");
        eco.stop_all();
    }
}

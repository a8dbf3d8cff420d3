//! The subscriber's worker pool at worker counts on both sides of the
//! queue's partition count, memory-only and over the durable broker.
//!
//! With the default 8 partitions, `.workers(16)` leaves workers 8–15
//! with an empty home set in `Subscriber::next_batch`: they live on
//! `steal_batch` alone. The trace is Crowdtap-shaped (§6.3): a quarter
//! of the writes spread over 500 rows, three quarters pile onto a hot
//! set of 20, so a few partitions run deep while the rest run dry.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_faults::SeededRng;
use synapse_repro::broker::{FsyncPolicy, WalConfig};
use synapse_repro::core::{
    DeliveryMode, Ecosystem, Publication, Subscription, SynapseConfig, SynapseNode,
};
use synapse_repro::db::LatencyModel;
use synapse_repro::model::{vmap, Id, ModelSchema};
use synapse_repro::orm::adapters::MongoidAdapter;

mod common;
use common::temp_dir;

const COLD_ROWS: u64 = 500;
const HOT_ROWS: u64 = 20;
const UPDATES: u64 = 3_000;
/// Generous on purpose: the whole arm takes well under a second; a pool
/// that livelocks or serializes its steal path misses this by any margin.
const DEADLINE: Duration = Duration::from_secs(60);

fn post_node(eco: &Ecosystem, config: SynapseConfig, durable: Option<&Path>) -> Arc<SynapseNode> {
    let config = config.mode(DeliveryMode::Weak);
    let config = match durable {
        Some(dir) => {
            let root = dir.join(&config.app);
            config.durable(root).fsync(FsyncPolicy::Interval(64))
        }
        None => config,
    };
    let node = eco.add_node(
        config,
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    node.orm()
        .define_model(ModelSchema::new("Post").field("body"))
        .unwrap();
    node
}

/// Publishes the rows and the first half of the updates into a stopped
/// subscriber's queue (a backlog every worker scans at once), starts the
/// pool, publishes the second half live, and requires the pool to settle
/// everything with nothing lost.
fn drains_with_zero_loss(workers: usize, durable: Option<&Path>) {
    let started = Instant::now();
    let eco = match durable {
        Some(dir) => {
            let wal = WalConfig::new(dir.join("wal")).fsync(FsyncPolicy::Interval(64));
            Ecosystem::new_durable(wal)
                .expect("open the durable broker")
                .0
        }
        None => Ecosystem::new(),
    };
    let publisher = post_node(&eco, SynapseConfig::new("pub"), durable);
    publisher
        .publish(Publication::model("Post").field("body"))
        .unwrap();
    let subscriber = post_node(&eco, SynapseConfig::new("sub").workers(workers), durable);
    subscriber
        .subscribe(Subscription::model("Post", "pub").field("body"))
        .unwrap();
    let violations = eco.connect();
    assert!(violations.is_empty(), "{violations:?}");

    let ids: Vec<Id> = (0..COLD_ROWS + HOT_ROWS)
        .map(|i| {
            let row = publisher
                .orm()
                .create("Post", vmap! { "body" => format!("seed-{i}") });
            row.unwrap().id
        })
        .collect();
    let (cold, hot) = ids.split_at(COLD_ROWS as usize);
    let mut rng = SeededRng::new(0x5ca1_ab1e);
    for i in 0..UPDATES {
        if i == UPDATES / 2 {
            subscriber.start();
        }
        let pool = if rng.gen_ratio(1, 4) { cold } else { hot };
        let id = pool[rng.gen_below(pool.len() as u64) as usize];
        publisher
            .orm()
            .update("Post", id, vmap! { "body" => format!("write-{i}") })
            .unwrap();
    }

    let arm = format!(
        "{workers} workers, {}",
        if durable.is_some() {
            "durable"
        } else {
            "memory-only"
        }
    );
    assert!(
        subscriber
            .subscriber()
            .drain(DEADLINE.saturating_sub(started.elapsed())),
        "{arm}: the pool did not settle its queue within {DEADLINE:?}"
    );
    assert_eq!(eco.broker().queue_len("sub"), Some(0), "{arm}");
    assert_eq!(eco.broker().queue_unacked_len("sub"), Some(0), "{arm}");
    assert!(subscriber.dead_letters().is_empty(), "{arm}");
    let stats = subscriber.subscriber_stats();
    assert_eq!(
        stats.messages_processed,
        COLD_ROWS + HOT_ROWS + UPDATES,
        "{arm}: every published message was processed exactly once"
    );
    assert_eq!(
        subscriber.orm().count("Post").unwrap(),
        COLD_ROWS + HOT_ROWS,
        "{arm}"
    );
    for row in publisher.orm().all("Post").unwrap() {
        let replica = subscriber.orm().find("Post", row.id).unwrap();
        assert_eq!(
            replica.map(|r| r.get("body").clone()),
            Some(row.get("body").clone()),
            "{arm}: row {} diverged from the publisher",
            row.id
        );
    }
    eco.stop_all();
}

#[test]
fn every_worker_count_drains_with_zero_loss() {
    for workers in [4, 16] {
        drains_with_zero_loss(workers, None);
        let dir = temp_dir(&format!("{workers}w"));
        drains_with_zero_loss(workers, Some(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Each worker thread carries its index and the tail of its app's name,
/// inside the 15 bytes the kernel keeps, so per-thread CPU
/// (`/proc/<pid>/task/*/schedstat`) can be read per subscriber.
#[cfg(target_os = "linux")]
#[test]
fn worker_threads_are_named_after_their_app() {
    let eco = Ecosystem::new();
    let publisher = post_node(&eco, SynapseConfig::new("pub"), None);
    publisher
        .publish(Publication::model("Post").field("body"))
        .unwrap();
    let config = SynapseConfig::new("search_replica_elastic").workers(2);
    let subscriber = post_node(&eco, config, None);
    subscriber
        .subscribe(Subscription::model("Post", "pub").field("body"))
        .unwrap();
    eco.connect();
    subscriber.start();
    // A thread names itself as it starts, so look until both have.
    let started = Instant::now();
    loop {
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("this process's threads")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim_end().to_owned())
            .collect();
        let named = |expected: &str| names.iter().any(|n| n == expected);
        if named("w0-lica_elastic") && named("w1-lica_elastic") {
            break;
        }
        assert!(
            started.elapsed() < DEADLINE,
            "worker names not in {names:?}"
        );
        std::thread::yield_now();
    }
    eco.stop_all();
}

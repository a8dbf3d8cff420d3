//! Checkpoint compaction racing a live group-commit load.
//!
//! The deadlock hazard: `Queue::append_checkpoint` holds *all* partition
//! locks while it writes the checkpoint frame, and that write goes through
//! the same WAL commit machinery as the publish hot path. If a checkpoint
//! writer could ever end up waiting on a group-commit epoch whose leader
//! needs a partition lock, the broker would stall forever. The protocol's
//! freedom argument (see `append_checkpoint` and DESIGN.md): a leader
//! takes only the WAL staging and IO locks, never a partition lock, and
//! finishes each epoch in bounded time — so a checkpoint's commit always
//! drains. This test is the regression: checkpoints loop concurrently
//! with keyed publishes and acking consumers, and the run must both
//! terminate and recover to exactly published-minus-acked.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use synapse_broker::{Broker, FsyncPolicy, QueueConfig, WalConfig};

const PARTS: usize = 8;
const PUBLISHERS: usize = 4;
const BATCHES_PER_PUBLISHER: usize = 30;
const BATCH: usize = 8;

fn temp_dir() -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "synapse-checkpoint-load-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn checkpoint_compaction_survives_concurrent_group_commits() {
    let dir = temp_dir();
    let cfg = || {
        WalConfig::new(&dir)
            .segment_max_bytes(8192)
            .fsync(FsyncPolicy::Interval(8))
    };
    let (broker, _) = Broker::open_durable(cfg()).expect("fresh open");
    let broker = Arc::new(broker);
    broker.declare_queue(
        "q",
        QueueConfig {
            max_len: None,
            partitions: PARTS,
        },
    );
    broker.bind("x", "q");

    let done = Arc::new(AtomicBool::new(false));
    let acked: Arc<Mutex<BTreeSet<String>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let mut published: BTreeSet<String> = BTreeSet::new();

    // Two consumers ack whatever they can pop while the storm runs, so
    // Ack records (the relaxed lane) interleave with staged batches and
    // checkpoint frames in the same commit stream.
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let broker = broker.clone();
            let done = done.clone();
            let acked = acked.clone();
            std::thread::spawn(move || {
                let consumer = broker.consumer("q").expect("queue declared");
                loop {
                    let batch = consumer.pop_batch(4, Duration::from_millis(1));
                    if batch.is_empty() {
                        if done.load(Ordering::Acquire) {
                            return;
                        }
                        continue;
                    }
                    let mut acked = acked.lock().unwrap();
                    for d in batch {
                        assert!(consumer.ack(d.tag), "ack of a live delivery");
                        acked.insert(d.payload.as_str().to_owned());
                    }
                }
            })
        })
        .collect();

    // The checkpoint thread compacts as fast as it can: every iteration
    // rolls the segment, rewrites live state under all partition locks,
    // and GCs history — squarely against in-flight group commits.
    let checkpoints = {
        let broker = broker.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut runs = 0u64;
            while !done.load(Ordering::Acquire) {
                broker.checkpoint().expect("checkpoint under load");
                runs += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            runs
        })
    };

    let publishers: Vec<_> = (0..PUBLISHERS)
        .map(|t| {
            let broker = broker.clone();
            std::thread::spawn(move || {
                for b in 0..BATCHES_PER_PUBLISHER {
                    for i in 0..BATCH {
                        let key = 1 + ((t * 31 + b * 7 + i) as u64 % 200);
                        broker
                            .publish_routed("x", format!("t{t}-b{b}-i{i}"), 0, key)
                            .expect("publish under checkpoint load");
                    }
                }
            })
        })
        .collect();

    for t in 0..PUBLISHERS {
        for b in 0..BATCHES_PER_PUBLISHER {
            for i in 0..BATCH {
                published.insert(format!("t{t}-b{b}-i{i}"));
            }
        }
    }
    for p in publishers {
        p.join().expect("publisher thread");
    }
    done.store(true, Ordering::Release);
    for c in consumers {
        c.join().expect("consumer thread");
    }
    let checkpoint_runs = checkpoints.join().expect("checkpoint thread");
    assert!(checkpoint_runs >= 1, "the compactor actually ran");

    let acked = Arc::try_unwrap(acked).unwrap().into_inner().unwrap();
    let stats = broker.wal_stats().expect("durable broker");
    assert!(
        stats.group_commits >= 1,
        "the load ran through group commit"
    );
    drop(broker);

    // Recovery is the arbiter: exactly published-minus-acked survives.
    let (broker, _) = Broker::open_durable(cfg()).expect("reopen");
    broker.declare_queue(
        "q",
        QueueConfig {
            max_len: None,
            partitions: PARTS,
        },
    );
    let consumer = broker.consumer("q").expect("queue declared");
    let mut survivors = BTreeSet::new();
    while let Some(d) = consumer.pop(Duration::ZERO) {
        assert!(
            survivors.insert(d.payload.as_str().to_owned()),
            "payload {:?} recovered twice",
            d.payload.as_str()
        );
    }
    let expected: BTreeSet<String> = published.difference(&acked).cloned().collect();
    assert_eq!(
        survivors, expected,
        "recovered backlog must be exactly published minus acked"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! Property test for the group-commit WAL: the log replays to the right
//! queue state.
//!
//! The group-commit protocol decides *how* frames reach the disk (staged
//! batches, one fsync per leader round, multi-frame writes that never
//! split across a segment roll, a relaxed lane for acks that rides the
//! next publish's write) but must never
//! change *what* the log means. The property: for any single-threaded
//! operation sequence, a durable broker that is closed and recovered
//! from its log holds exactly the queue state of the memory-only
//! `Broker::new()` driven by the same sequence — same partition depths,
//! same per-partition payload order, same dead-letter store. The oracle
//! shares no codec, staging, or replay code with the log under test.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use synapse_broker::{Broker, FsyncPolicy, QueueConfig, WalConfig};

const PARTS: usize = 4;

fn temp_dir(label: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "synapse-gc-props-{label}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One step of the driven sequence. Keys stay below 256 so the tag hint
/// *is* the key and partition membership is a pure function of the op
/// stream.
#[derive(Debug, Clone)]
enum Op {
    /// `publish_routed` with this routing key.
    Publish { key: u64 },
    /// A run of `publish_routed` calls, one per key.
    PublishRun { keys: Vec<u64> },
    /// Pop up to `n` from partition `part`, ack them all.
    PopAck { part: usize, n: usize },
    /// Pop up to `n` from partition `part`, dead-letter them all.
    PopDead { part: usize, n: usize },
    /// Checkpoint compaction (rolls the segment, GCs history).
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest's `prop_oneof!` is uniform; repeating the
    // publish arms biases the mix toward traffic over drains.
    prop_oneof![
        (1u64..200).prop_map(|key| Op::Publish { key }),
        (1u64..200).prop_map(|key| Op::Publish { key }),
        prop::collection::vec(1u64..200, 1..6).prop_map(|keys| Op::PublishRun { keys }),
        prop::collection::vec(1u64..200, 1..6).prop_map(|keys| Op::PublishRun { keys }),
        (0usize..PARTS, 1usize..5).prop_map(|(part, n)| Op::PopAck { part, n }),
        (0usize..PARTS, 1usize..4).prop_map(|(part, n)| Op::PopDead { part, n }),
        Just(Op::Checkpoint),
    ]
}

/// The observable queue state: partition depths, per-partition drained
/// payloads in pop order, and the dead-letter payload set.
type QueueImage = (Vec<usize>, Vec<Vec<String>>, Vec<String>);

fn queue_config() -> QueueConfig {
    QueueConfig {
        max_len: None,
        partitions: PARTS,
    }
}

/// Declares the queue on `broker` and drives `ops` against it.
fn drive(broker: &Broker, ops: &[Op]) {
    broker.declare_queue("q", queue_config());
    broker.bind("x", "q");
    let consumer = broker.consumer("q").expect("queue declared");

    let mut seq = 0u64;
    for op in ops {
        match op {
            Op::Publish { key } => {
                let p = format!("m{seq}-k{key}");
                seq += 1;
                broker.publish_routed("x", p, 0, *key).expect("publish");
            }
            Op::PublishRun { keys } => {
                for key in keys {
                    let p = format!("m{seq}-k{key}");
                    seq += 1;
                    broker.publish_routed("x", p, 0, *key).expect("publish");
                }
            }
            Op::PopAck { part, n } => {
                for d in consumer.pop_batch_from(*part, *n) {
                    assert!(consumer.ack(d.tag), "ack of a live delivery");
                }
            }
            Op::PopDead { part, n } => {
                for d in consumer.pop_batch_from(*part, *n) {
                    assert!(
                        consumer.dead_letter(d.tag),
                        "dead-letter of a live delivery"
                    );
                }
            }
            Op::Checkpoint => {
                broker.checkpoint().expect("checkpoint");
            }
        }
    }
}

/// Reads `broker`'s queue image, draining it.
fn observe(broker: &Broker) -> QueueImage {
    let consumer = broker.consumer("q").expect("queue declared");
    let depths = broker.partition_depths("q").expect("partitioned queue");
    let mut drained: Vec<Vec<String>> = vec![Vec::new(); PARTS];
    for (part, out) in drained.iter_mut().enumerate() {
        loop {
            let batch = consumer.pop_batch_from(part, 16);
            if batch.is_empty() {
                break;
            }
            out.extend(batch.iter().map(|d| d.payload.as_str().to_owned()));
        }
    }
    let mut dead: Vec<String> = broker
        .dead_letters("q")
        .unwrap_or_default()
        .iter()
        .map(|d| d.payload.as_str().to_owned())
        .collect();
    dead.sort();
    (depths, drained, dead)
}

/// Drives `ops` against a fresh durable broker, drops it (flushing any
/// staged tail), reopens, and returns the recovered queue image.
fn drive_and_recover(dir: &std::path::Path, ops: &[Op]) -> QueueImage {
    let cfg = || {
        WalConfig::new(dir)
            .segment_max_bytes(2048)
            .fsync(FsyncPolicy::Interval(4))
    };
    let (broker, _) = Broker::open_durable(cfg()).expect("fresh open");
    drive(&broker, ops);
    drop(broker);

    let (broker, report) = Broker::open_durable(cfg()).expect("reopen");
    assert_eq!(
        report.torn_entries_dropped, 0,
        "clean close leaves no torn tail"
    );
    broker.declare_queue("q", queue_config());
    let image = observe(&broker);
    let _ = std::fs::remove_dir_all(dir);
    image
}

proptest! {
    // The vendored runner's default 64 cases, each a sequence of up to 40
    // ops, sweep publishes, publish runs, acks, dead letters, and
    // checkpoints through the log and the memory oracle.
    #[test]
    fn group_commit_log_replays_to_the_memory_broker_state(
        ops in prop::collection::vec(op_strategy(), 1..40)
    ) {
        let recovered = drive_and_recover(&temp_dir("grouped"), &ops);
        let memory = Broker::new();
        drive(&memory, &ops);
        let oracle = observe(&memory);
        prop_assert_eq!(
            &recovered.0, &oracle.0,
            "partition depths diverge between the recovered log and the memory broker"
        );
        prop_assert_eq!(
            &recovered.1, &oracle.1,
            "per-partition replay order diverges"
        );
        prop_assert_eq!(
            &recovered.2, &oracle.2,
            "dead-letter stores diverge"
        );
    }
}

//! Multi-threaded stress test for the publish→deliver hot path:
//! concurrent publishers fanning out to several queues, batched
//! consumers that nack and dead-letter along the way, and a broker
//! restart in the middle. The test asserts the zero-silent-loss identity
//! the fault soak relies on: once the pipeline drains, every enqueued
//! copy ended exactly one of acked or dead-lettered, nothing was
//! dropped, and every queue saw every payload.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_repro::broker::{Broker, QueueConfig};

const QUEUES: usize = 4;
const PUBLISHERS: usize = 2;
const PER_PUBLISHER: usize = 1_500;
/// Every `DL_EVERY`-th payload of a publisher is marked for
/// dead-lettering by the consumers.
const DL_EVERY: usize = 50;

fn total_messages() -> usize {
    PUBLISHERS * PER_PUBLISHER
}

fn payload_for(publisher: usize, seq: usize) -> String {
    if seq.is_multiple_of(DL_EVERY) {
        format!("p{publisher}-{seq}#dl")
    } else {
        format!("p{publisher}-{seq}")
    }
}

#[test]
fn concurrent_batched_fanout_loses_nothing() {
    let broker = Broker::new();
    for q in 0..QUEUES {
        let name = format!("q{q}");
        broker.declare_queue(&name, QueueConfig::default());
        broker.bind("pub", &name);
    }

    let stop = Arc::new(AtomicBool::new(false));

    // One consumer thread per queue: pop in batches, nack a deterministic
    // subset once (first delivery only), dead-letter `#dl` payloads, ack
    // the rest in one batch. Returns (seen payloads, dead payloads).
    let consumers: Vec<_> = (0..QUEUES)
        .map(|q| {
            let consumer = broker.consumer(&format!("q{q}")).unwrap();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen: BTreeSet<String> = BTreeSet::new();
                let mut dead: BTreeSet<String> = BTreeSet::new();
                while !stop.load(Ordering::SeqCst) {
                    let batch = consumer.pop_batch(16, Duration::from_millis(20));
                    let mut tags = Vec::with_capacity(batch.len());
                    for d in &batch {
                        if d.tag.is_multiple_of(13) && !d.redelivered {
                            // Exercise the requeue path: the redelivery
                            // comes back flagged and is then handled.
                            consumer.nack(d.tag);
                            continue;
                        }
                        seen.insert(d.payload.to_string());
                        if d.payload.ends_with("#dl") {
                            // A restart may have raced us and requeued the
                            // tag; only a live dead-letter decides the copy.
                            if consumer.dead_letter(d.tag) {
                                dead.insert(d.payload.to_string());
                            }
                        } else {
                            tags.push(d.tag);
                        }
                    }
                    consumer.ack_batch(&tags);
                }
                (seen, dead)
            })
        })
        .collect();

    let publishers: Vec<_> = (0..PUBLISHERS)
        .map(|p| {
            let broker = broker.clone();
            std::thread::spawn(move || {
                for seq in 0..PER_PUBLISHER {
                    broker
                        .publish_routed("pub", payload_for(p, seq), 0, 0)
                        .unwrap();
                }
            })
        })
        .collect();

    // Restart the broker mid-run: everything in flight is requeued
    // flagged `redelivered` and must still be decided exactly once.
    std::thread::sleep(Duration::from_millis(5));
    broker.recover();

    for h in publishers {
        h.join().unwrap();
    }

    // Drain: wait until every queue is empty with nothing in flight. A
    // final recover sweeps up any copy whose ack raced the mid-run
    // restart.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let drained = (0..QUEUES).all(|q| {
            let name = format!("q{q}");
            broker.queue_len(&name) == Some(0) && broker.queue_unacked_len(&name) == Some(0)
        });
        if drained {
            break;
        }
        assert!(Instant::now() < deadline, "pipeline failed to drain");
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::SeqCst);
    for q in 0..QUEUES {
        broker.wake_queue(&format!("q{q}"));
    }
    let results: Vec<_> = consumers.into_iter().map(|h| h.join().unwrap()).collect();

    // The zero-silent-loss identity.
    let stats = broker.stats();
    let expected: BTreeSet<String> = (0..PUBLISHERS)
        .flat_map(|p| (0..PER_PUBLISHER).map(move |seq| payload_for(p, seq)))
        .collect();
    let dl_expected: BTreeSet<String> = expected
        .iter()
        .filter(|p| p.ends_with("#dl"))
        .cloned()
        .collect();
    assert_eq!(stats.published, total_messages() as u64);
    assert_eq!(stats.enqueued, (total_messages() * QUEUES) as u64);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.discarded, 0);
    assert_eq!(stats.refused, 0);
    assert_eq!(
        stats.acked + stats.dead_lettered,
        stats.enqueued,
        "every enqueued copy must end acked or dead-lettered"
    );
    for (q, (seen, dead)) in results.iter().enumerate() {
        assert_eq!(seen, &expected, "queue q{q} missed payloads");
        assert_eq!(dead, &dl_expected, "queue q{q} dead-letter set");
        assert_eq!(
            broker.dead_letter_len(&format!("q{q}")),
            Some(dl_expected.len()),
            "queue q{q} dead-letter store"
        );
    }
}

use super::*;
use std::thread;

fn broker_with(queue: &str) -> Broker {
    let b = Broker::new();
    b.declare_queue(queue, QueueConfig::default());
    b.bind("pub", queue);
    b
}

/// Kills a default-config `queue` the way its backlog cap does: a cap of
/// 0 trips on one publish through an exchange bound to it alone (that copy
/// is refused), then the queue gets its default config back.
fn cap_kill(b: &Broker, queue: &str) {
    let killing = QueueConfig {
        max_len: Some(0),
        ..QueueConfig::default()
    };
    b.declare_queue(queue, killing);
    b.bind("cap-kill", queue);
    b.publish_routed("cap-kill", "", 0, 0).unwrap();
    b.declare_queue(queue, QueueConfig::default());
}

#[test]
fn fanout_reaches_all_bound_queues() {
    let b = Broker::new();
    b.declare_queue("q1", QueueConfig::default());
    b.declare_queue("q2", QueueConfig::default());
    b.bind("pub", "q1");
    b.bind("pub", "q2");
    b.publish_routed("pub", "m", 0, 0).unwrap();
    for q in ["q1", "q2"] {
        let c = b.consumer(q).unwrap();
        assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "m");
    }
}

#[test]
fn fanout_shares_one_payload_allocation() {
    let b = Broker::new();
    b.declare_queue("q1", QueueConfig::default());
    b.declare_queue("q2", QueueConfig::default());
    b.bind("pub", "q1");
    b.bind("pub", "q2");
    b.publish_routed("pub", "shared-body", 0, 0).unwrap();
    let d1 = b
        .consumer("q1")
        .unwrap()
        .pop(Duration::from_millis(50))
        .unwrap();
    let d2 = b
        .consumer("q2")
        .unwrap()
        .pop(Duration::from_millis(50))
        .unwrap();
    assert!(
        std::ptr::eq(d1.payload.as_str(), d2.payload.as_str()),
        "both queues must share the published allocation"
    );
    assert!(std::ptr::eq(d1.exchange.as_str(), d2.exchange.as_str()));
}

#[test]
fn bind_before_declare_still_routes() {
    let b = Broker::new();
    b.bind("pub", "q");
    b.declare_queue("q", QueueConfig::default());
    b.publish_routed("pub", "m", 0, 0).unwrap();
    let c = b.consumer("q").unwrap();
    assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "m");
}

#[test]
fn unbound_queue_receives_nothing() {
    let b = Broker::new();
    b.declare_queue("q", QueueConfig::default());
    b.publish_routed("pub", "m", 0, 0).unwrap();
    assert!(b
        .consumer("q")
        .unwrap()
        .pop(Duration::from_millis(20))
        .is_none());
}

#[test]
fn fifo_order_is_preserved() {
    let b = broker_with("q");
    for i in 0..10 {
        b.publish_routed("pub", i.to_string(), 0, 0).unwrap();
    }
    let c = b.consumer("q").unwrap();
    for i in 0..10 {
        let d = c.pop(Duration::from_millis(50)).unwrap();
        assert_eq!(d.payload, i.to_string());
        c.ack(d.tag);
    }
}

#[test]
fn publish_batch_preserves_fifo_and_counts() {
    let b = broker_with("q");
    for payload in ["a", "b", "c"] {
        b.publish_routed("pub", payload, 0, 0).unwrap();
    }
    let c = b.consumer("q").unwrap();
    for expected in ["a", "b", "c"] {
        let d = c.pop(Duration::from_millis(50)).unwrap();
        assert_eq!(d.payload, expected);
        c.ack(d.tag);
    }
    let s = b.stats();
    assert_eq!(s.published, 3);
    assert_eq!(s.enqueued, 3);
}

#[test]
fn pop_batch_drains_up_to_max_in_order() {
    let b = broker_with("q");
    for payload in ["a", "b", "c", "d", "e"] {
        b.publish_routed("pub", payload, 0, 0).unwrap();
    }
    let c = b.consumer("q").unwrap();
    let first = c.pop_batch(3, Duration::from_millis(50));
    assert_eq!(
        first.iter().map(|d| d.payload.as_str()).collect::<Vec<_>>(),
        ["a", "b", "c"]
    );
    let rest = c.pop_batch(10, Duration::from_millis(50));
    assert_eq!(
        rest.iter().map(|d| d.payload.as_str()).collect::<Vec<_>>(),
        ["d", "e"]
    );
    let tags: Vec<u64> = first.iter().chain(&rest).map(|d| d.tag).collect();
    assert_eq!(c.ack_batch(&tags), 5);
    assert_eq!(b.stats().acked, 5);
    assert_eq!(b.queue_unacked_len("q"), Some(0));
}

#[test]
fn pop_batch_wakes_on_publish() {
    let b = broker_with("q");
    let c = b.consumer("q").unwrap();
    let h = thread::spawn(move || c.pop_batch(8, Duration::from_secs(5)));
    thread::sleep(Duration::from_millis(30));
    b.publish_routed("pub", "late", 0, 0).unwrap();
    let got = h.join().unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].payload, "late");
}

#[test]
fn wake_queue_unparks_an_empty_pop_batch() {
    let b = broker_with("q");
    let c = b.consumer("q").unwrap();
    let start = std::time::Instant::now();
    let h = thread::spawn(move || c.pop_batch(8, Duration::from_secs(30)));
    thread::sleep(Duration::from_millis(30));
    b.wake_queue("q");
    assert!(h.join().unwrap().is_empty());
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "wake must beat the park timeout"
    );
}

#[test]
fn ack_batch_counts_spurious_tags() {
    let b = broker_with("q");
    b.publish_routed("pub", "m", 0, 0).unwrap();
    let c = b.consumer("q").unwrap();
    let d = c.pop(Duration::from_millis(50)).unwrap();
    assert_eq!(c.ack_batch(&[d.tag, 999]), 1);
    let s = b.stats();
    assert_eq!(s.acked, 1);
    assert_eq!(s.spurious_acks, 1);
}

#[test]
fn nack_requeues_at_front_flagged_redelivered() {
    let b = broker_with("q");
    b.publish_routed("pub", "a", 0, 0).unwrap();
    b.publish_routed("pub", "b", 0, 0).unwrap();
    let c = b.consumer("q").unwrap();
    let d = c.pop(Duration::from_millis(50)).unwrap();
    assert!(!d.redelivered);
    assert!(c.nack(d.tag));
    let d2 = c.pop(Duration::from_millis(50)).unwrap();
    assert_eq!(d2.payload, "a");
    assert!(d2.redelivered);
    assert_eq!(b.stats().redelivered, 1);
}

#[test]
fn ack_of_unknown_tag_is_rejected_and_counted() {
    let b = broker_with("q");
    let c = b.consumer("q").unwrap();
    assert!(!c.ack(999));
    assert_eq!(b.stats().spurious_acks, 1);
    assert!(!c.nack(999));
    assert_eq!(b.stats().spurious_nacks, 1);
}

#[test]
fn double_ack_is_spurious() {
    let b = broker_with("q");
    b.publish_routed("pub", "m", 0, 0).unwrap();
    let c = b.consumer("q").unwrap();
    let d = c.pop(Duration::from_millis(50)).unwrap();
    assert!(c.ack(d.tag));
    assert!(!c.ack(d.tag), "second ack of the same tag must fail");
    assert!(!c.nack(d.tag), "nack after ack must fail");
    let s = b.stats();
    assert_eq!(s.acked, 1);
    assert_eq!(s.spurious_acks, 1);
    assert_eq!(s.spurious_nacks, 1);
}

#[test]
fn injected_publish_failures_are_transient_and_counted() {
    let b = broker_with("q");
    b.inject_publish_failures(2);
    assert!(b.publish_routed("pub", "x", 0, 0).is_err());
    assert!(b.publish_routed("pub", "y", 0, 0).is_err());
    b.publish_routed("pub", "z", 0, 0).unwrap();
    let s = b.stats();
    assert_eq!(s.publish_faults, 2);
    assert_eq!(s.published, 1, "failed publishes are not accepted");
    assert_eq!(s.enqueued, 1);
    let c = b.consumer("q").unwrap();
    assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "z");
}

#[test]
fn dead_letter_consumes_without_losing_the_payload() {
    let b = broker_with("q");
    b.publish_routed("pub", "poison", 0, 0).unwrap();
    b.publish_routed("pub", "good", 0, 0).unwrap();
    let c = b.consumer("q").unwrap();
    let d = c.pop(Duration::from_millis(50)).unwrap();
    assert!(c.dead_letter(d.tag));
    assert!(!c.dead_letter(d.tag), "tag is consumed by dead-lettering");
    // The poisoned message is out of the delivery path…
    let d2 = c.pop(Duration::from_millis(50)).unwrap();
    assert_eq!(d2.payload, "good");
    // …but retained and counted.
    let dead = b.dead_letters("q").unwrap();
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].payload, "poison");
    assert_eq!(b.dead_letter_len("q"), Some(1));
    assert_eq!(b.stats().dead_lettered, 1);
    // Dead letters survive broker restarts and reinstatement.
    b.recover();
    b.reinstate_queue("q");
    assert_eq!(b.dead_letter_len("q"), Some(1));
}

#[test]
fn decommission_accounts_for_discarded_backlog() {
    let b = Broker::new();
    b.declare_queue(
        "q",
        QueueConfig {
            max_len: Some(3),
            ..QueueConfig::default()
        },
    );
    b.bind("pub", "q");
    for i in 0..5 {
        b.publish_routed("pub", i.to_string(), 0, 0).unwrap();
    }
    assert_eq!(b.queue_state("q"), Some(QueueState::Decommissioned));
    let s = b.stats();
    // 3 accepted, then the cap-triggering copy and the one after it
    // were refused; the 3-message backlog was discarded.
    assert_eq!(s.enqueued, 3);
    assert_eq!(s.discarded, 3);
    assert_eq!(s.refused, 2);
}

#[test]
fn force_decommission_discards_and_refuses() {
    let b = broker_with("q");
    b.publish_routed("pub", "a", 0, 0).unwrap();
    cap_kill(&b, "q");
    assert_eq!(b.queue_state("q"), Some(QueueState::Decommissioned));
    b.publish_routed("pub", "late", 0, 0).unwrap();
    let s = b.stats();
    assert_eq!(s.discarded, 1);
    assert_eq!(s.refused, 2, "the killing copy, then the late one");
    assert!(b
        .consumer("q")
        .unwrap()
        .pop(Duration::from_millis(20))
        .is_none());
}

#[test]
fn blocking_pop_wakes_on_publish() {
    let b = broker_with("q");
    let c = b.consumer("q").unwrap();
    let h = thread::spawn(move || c.pop(Duration::from_secs(5)).unwrap().payload);
    thread::sleep(Duration::from_millis(30));
    b.publish_routed("pub", "late", 0, 0).unwrap();
    assert_eq!(h.join().unwrap(), "late");
}

#[test]
fn concurrent_workers_partition_the_queue() {
    let b = broker_with("q");
    for i in 0..100 {
        b.publish_routed("pub", i.to_string(), 0, 0).unwrap();
    }
    let mut handles = Vec::new();
    for _ in 0..4 {
        let c = b.consumer("q").unwrap();
        handles.push(thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(d) = c.pop(Duration::from_millis(50)) {
                got.push(d.payload.clone());
                c.ack(d.tag);
            }
            got
        }));
    }
    let mut all: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(all.len(), 100, "each message delivered exactly once");
    all.sort_by_key(|s| s.parse::<u64>().unwrap());
    for (i, payload) in all.iter().enumerate() {
        assert_eq!(payload, &i.to_string());
    }
}

#[test]
fn queue_cap_triggers_decommission() {
    let b = Broker::new();
    b.declare_queue(
        "q",
        QueueConfig {
            max_len: Some(5),
            ..QueueConfig::default()
        },
    );
    b.bind("pub", "q");
    for i in 0..10 {
        b.publish_routed("pub", i.to_string(), 0, 0).unwrap();
    }
    assert_eq!(b.queue_state("q"), Some(QueueState::Decommissioned));
    assert_eq!(b.queue_len("q"), Some(0), "backlog was discarded");
    let c = b.consumer("q").unwrap();
    assert!(c.is_decommissioned());
    assert!(c.pop(Duration::from_millis(20)).is_none());
    // Reinstating restores delivery.
    b.reinstate_queue("q");
    b.publish_routed("pub", "fresh", 0, 0).unwrap();
    assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "fresh");
}

#[test]
fn injected_drops_lose_messages_silently() {
    let b = broker_with("q");
    b.inject_drop_next("q", 2);
    for i in 0..4 {
        b.publish_routed("pub", i.to_string(), 0, 0).unwrap();
    }
    let c = b.consumer("q").unwrap();
    assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "2");
    assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "3");
    assert_eq!(b.stats().dropped, 2);
}

#[test]
fn recover_requeues_unacked_in_order() {
    let b = broker_with("q");
    for p in ["a", "b", "c"] {
        b.publish_routed("pub", p, 0, 0).unwrap();
    }
    let c = b.consumer("q").unwrap();
    let d1 = c.pop(Duration::from_millis(50)).unwrap();
    let d2 = c.pop(Duration::from_millis(50)).unwrap();
    c.ack(d1.tag);
    assert_eq!(d2.payload, "b");
    // Restart: "b" (unacked) returns before "c".
    b.recover();
    let r1 = c.pop(Duration::from_millis(50)).unwrap();
    assert_eq!(r1.payload, "b");
    assert!(r1.redelivered);
    let r2 = c.pop(Duration::from_millis(50)).unwrap();
    assert_eq!(r2.payload, "c");
}

/// Publish, settle part of the backlog, crash (drop every handle, no
/// checkpoint), reopen: exactly the unsettled deliveries come back,
/// once each, in order. Two inputs: six unrouted publishes under
/// `EveryWrite`, and 400 routed publishes spread over 97 keys under
/// `Interval(64)`, where the crash leaves the acks on the
/// relaxed lane's staged tail for `Drop` to flush and replay to fold.
#[test]
fn durable_broker_recovers_unacked_and_skips_acked() {
    use crate::wal::FsyncPolicy;
    for (label, fsync, routed, msgs, acks) in [
        ("broker-recover", FsyncPolicy::EveryWrite, false, 6, 2),
        ("broker-routed", FsyncPolicy::Interval(64), true, 400, 200),
    ] {
        let dir = crate::wal::tests::temp_dir(label);
        let cfg = WalConfig::new(&dir).fsync(fsync);
        let (b, report) = Broker::open_durable(cfg.clone()).unwrap();
        assert_eq!(
            report,
            RecoveryReport::default(),
            "fresh log, empty recovery"
        );
        b.declare_queue("q", QueueConfig::default());
        b.bind("pub", "q");
        if routed {
            for i in 0..msgs {
                b.publish_routed("pub", format!("m{i}"), 0, 1 + i % 97)
                    .unwrap();
            }
        } else {
            for i in 0..msgs {
                b.publish_routed("pub", format!("m{i}"), 0, 0).unwrap();
            }
        }
        let c = b.consumer("q").unwrap();
        // Ack the first `acks`, dead-letter the next, leave one more
        // unacked-in-flight and the rest ready.
        let mut settled = std::collections::BTreeSet::new();
        for _ in 0..acks {
            let d = c.pop(Duration::from_millis(50)).unwrap();
            assert!(c.ack(d.tag));
            settled.insert(d.payload.as_str().to_owned());
        }
        let dead = c.pop(Duration::from_millis(50)).unwrap();
        c.dead_letter(dead.tag);
        settled.insert(dead.payload.as_str().to_owned());
        let _in_flight = c.pop(Duration::from_millis(50)).unwrap();

        // Crash: drop every handle; only the log survives.
        drop((c, b));
        let (b2, report) = Broker::open_durable(cfg).unwrap();
        assert!(report.replayed_entries > 0, "the log had traffic to replay");
        assert_eq!(report.queues_recovered, 1);
        assert_eq!(report.acked_skipped, acks, "acked deliveries stay consumed");
        assert_eq!(
            report.messages_recovered,
            msgs - acks - 1,
            "the in-flight delivery and everything still ready"
        );
        assert_eq!(report.dead_recovered, 1);
        b2.declare_queue("q", QueueConfig::default());
        b2.bind("pub", "q");
        let c2 = b2.consumer("q").unwrap();
        let (mut recovered, mut highest) = (Vec::new(), 0);
        while let Some(d) = c2.pop(Duration::ZERO) {
            assert!(d.redelivered, "recovered deliveries are flagged");
            assert!(c2.ack(d.tag));
            recovered.push(d.payload.as_str().to_owned());
            highest = highest.max(d.tag);
        }
        let mut expected: Vec<String> = (0..msgs)
            .map(|i| format!("m{i}"))
            .filter(|m| !settled.contains(m))
            .collect();
        if routed {
            // Pop order interleaves partitions; FIFO holds per key.
            expected.sort();
            recovered.sort();
        }
        assert_eq!(
            recovered, expected,
            "published minus settled, no duplicate, no resurrected ack"
        );
        assert_eq!(b2.dead_letters("q").unwrap()[0].payload, dead.payload);
        // Tags keep advancing past the recovered counter.
        b2.publish_routed("pub", "fresh", 0, 0).unwrap();
        let d = c2.pop(Duration::from_millis(50)).unwrap();
        assert!(
            d.tag > highest,
            "tag counter survives recovery, got {}",
            d.tag
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_gc_preserves_recovery_and_shrinks_log() {
    let dir = crate::wal::tests::temp_dir("broker-ckpt");
    let cfg = WalConfig::new(&dir)
        .segment_max_bytes(512)
        .fsync(crate::wal::FsyncPolicy::Off);
    let (b, _) = Broker::open_durable(cfg.clone()).unwrap();
    b.declare_queue("q", QueueConfig::default());
    b.bind("pub", "q");
    for i in 0..80 {
        b.publish_routed("pub", format!("payload-{i}"), 0, 0)
            .unwrap();
    }
    let c = b.consumer("q").unwrap();
    for _ in 0..30 {
        let d = c.pop(Duration::from_millis(50)).unwrap();
        c.ack(d.tag);
    }
    let before = b.wal_stats().unwrap();
    assert!(before.segments_rolled >= 2, "workload spans segments");
    b.checkpoint().unwrap();
    let after = b.wal_stats().unwrap();
    assert!(after.segments_removed >= 2, "checkpoint GCs old segments");
    drop((c, b));
    let (b2, report) = Broker::open_durable(cfg).unwrap();
    assert_eq!(
        report.messages_recovered, 50,
        "checkpoint state is complete"
    );
    b2.bind("pub", "q");
    let c2 = b2.consumer("q").unwrap();
    let mut got = Vec::new();
    while let Some(d) = c2.pop(Duration::from_millis(20)) {
        got.push(d.payload.as_str().to_owned());
        c2.ack(d.tag);
    }
    let expected: Vec<String> = (30..80).map(|i| format!("payload-{i}")).collect();
    assert_eq!(
        got, expected,
        "recovered backlog is the unacked suffix, in order"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decommission_and_reinstate_survive_restart() {
    let dir = crate::wal::tests::temp_dir("broker-decomm");
    let cfg = WalConfig::new(&dir).fsync(crate::wal::FsyncPolicy::EveryWrite);
    let (b, _) = Broker::open_durable(cfg.clone()).unwrap();
    b.declare_queue("q", QueueConfig::default());
    b.bind("pub", "q");
    b.publish_routed("pub", "doomed", 0, 0).unwrap();
    cap_kill(&b, "q");
    drop(b);
    let (b2, report) = Broker::open_durable(cfg.clone()).unwrap();
    assert_eq!(b2.queue_state("q"), Some(QueueState::Decommissioned));
    assert_eq!(report.messages_recovered, 0, "killed backlog stays dead");
    b2.reinstate_queue("q");
    drop(b2);
    let (b3, _) = Broker::open_durable(cfg).unwrap();
    assert_eq!(b3.queue_state("q"), Some(QueueState::Active));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_wal_fails_publishes_transiently() {
    let dir = crate::wal::tests::temp_dir("broker-poison");
    let cfg = WalConfig::new(&dir).fsync(crate::wal::FsyncPolicy::EveryWrite);
    let (b, _) = Broker::open_durable(cfg.clone()).unwrap();
    b.declare_queue("q", QueueConfig::default());
    b.bind("pub", "q");
    b.publish_routed("pub", "before", 0, 0).unwrap();
    b.wal().unwrap().inject_partial_append(4);
    assert!(
        b.publish_routed("pub", "torn", 0, 0).is_err(),
        "mid-append kill refuses"
    );
    assert!(
        b.publish_routed("pub", "after", 0, 0).is_err(),
        "poisoned log stays down"
    );
    assert_eq!(
        b.queue_len("q"),
        Some(1),
        "refused publishes enqueue nothing"
    );
    drop(b);
    let (b2, report) = Broker::open_durable(cfg).unwrap();
    assert_eq!(report.messages_recovered, 1, "only the confirmed publish");
    assert_eq!(report.torn_entries_dropped, 1);
    b2.bind("pub", "q");
    let c = b2.consumer("q").unwrap();
    assert_eq!(c.pop(Duration::from_millis(50)).unwrap().payload, "before");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn redeclare_updates_the_cap_in_place() {
    let b = broker_with("q");
    // Re-declare with a cap: the fourth publish trips it.
    b.declare_queue(
        "q",
        QueueConfig {
            max_len: Some(3),
            ..QueueConfig::default()
        },
    );
    for i in 0..5 {
        b.publish_routed("pub", i.to_string(), 0, 0).unwrap();
    }
    assert_eq!(b.queue_state("q"), Some(QueueState::Decommissioned));
}

/// Satellite: counted wakeups. Two workers park on the queue; a
/// single publish must wake exactly one of them (no thundering herd),
/// and the wakeup counter must record exactly one notify.
#[test]
fn single_publish_wakes_exactly_one_parked_worker() {
    let b = broker_with("q");
    let mut handles = Vec::new();
    for _ in 0..2 {
        let c = b.consumer("q").unwrap();
        handles.push(thread::spawn(move || {
            c.pop_batch(8, Duration::from_millis(600))
        }));
    }
    // Wait until both workers are actually parked before publishing.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while b.queue_sleepers("q") != Some(2) {
        assert!(std::time::Instant::now() < deadline, "workers never parked");
        thread::sleep(Duration::from_millis(2));
    }
    b.publish_routed("pub", "solo", 0, 0).unwrap();
    let results: Vec<Vec<Delivery>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let nonempty = results.iter().filter(|r| !r.is_empty()).count();
    assert_eq!(nonempty, 1, "exactly one worker received the message");
    assert_eq!(b.stats().wakeups, 1, "one message, one counted notify_one");
}

/// N messages published into a pool of M sleepers issue at most
/// min(N, M) wakeups, never a notify_all storm.
#[test]
fn batch_wakeups_are_counted_not_broadcast() {
    let b = broker_with("q");
    let mut handles = Vec::new();
    for _ in 0..4 {
        let c = b.consumer("q").unwrap();
        handles.push(thread::spawn(move || {
            c.pop_batch(1, Duration::from_millis(600)).len()
        }));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while b.queue_sleepers("q") != Some(4) {
        assert!(std::time::Instant::now() < deadline, "workers never parked");
        thread::sleep(Duration::from_millis(2));
    }
    for payload in ["a", "b"] {
        b.publish_routed("pub", payload, 0, 0).unwrap();
    }
    let got: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(got, 2, "both messages delivered");
    assert_eq!(
        b.stats().wakeups,
        2,
        "two messages into four sleepers: two wakeups"
    );
}

/// Keyed publishes spread across partitions but keep per-key FIFO:
/// each key's messages live in one partition in publish order.
#[test]
fn routed_publishes_keep_per_key_fifo_across_partitions() {
    let b = broker_with("q");
    for round in 0..5u64 {
        for key in 1..=3u64 {
            b.publish_routed("pub", format!("k{key}-{round}"), 0, key)
                .unwrap();
        }
    }
    let depths = b.partition_depths("q").unwrap();
    assert_eq!(depths.iter().sum::<usize>(), 15);
    assert_eq!(depths[1], 5, "key 1 lives wholly in partition 1");
    assert_eq!(depths[2], 5);
    assert_eq!(depths[3], 5);
    let c = b.consumer("q").unwrap();
    let mut per_key: HashMap<char, Vec<String>> = HashMap::new();
    for d in c.pop_batch(64, Duration::from_millis(50)) {
        let p = d.payload.as_str();
        per_key
            .entry(p.chars().nth(1).unwrap())
            .or_default()
            .push(p.to_owned());
        c.ack(d.tag);
    }
    for key in ['1', '2', '3'] {
        let expected: Vec<String> = (0..5).map(|r| format!("k{key}-{r}")).collect();
        assert_eq!(per_key[&key], expected, "per-key FIFO for key {key}");
    }
}

/// Work stealing takes ceil(half) of the victim's ready run from the
/// FRONT (oldest first), moves it in flight, and acks route back to
/// the victim partition via the tag hint.
#[test]
fn steal_takes_half_the_victims_front_run() {
    let b = broker_with("q");
    for i in 0..4 {
        b.publish_routed("pub", format!("m{i}"), 0, 1).unwrap();
    }
    let c = b.consumer("q").unwrap();
    let stolen = c.steal_batch(1, 16);
    assert_eq!(
        stolen
            .iter()
            .map(|d| d.payload.as_str())
            .collect::<Vec<_>>(),
        ["m0", "m1"],
        "steal takes the oldest half"
    );
    let rest = c.pop_batch_from(1, 16);
    assert_eq!(
        rest.iter().map(|d| d.payload.as_str()).collect::<Vec<_>>(),
        ["m2", "m3"]
    );
    let tags: Vec<u64> = stolen.iter().chain(&rest).map(|d| d.tag).collect();
    assert_eq!(
        c.ack_batch(&tags),
        4,
        "stolen tags ack through the hint route"
    );
    assert_eq!(b.queue_unacked_len("q"), Some(0));
    let s = b.stats();
    assert_eq!(s.steals, 1);
    assert_eq!(s.stolen, 2);
    // A lone message can still be stolen (ceil(1/2) == 1).
    b.publish_routed("pub", "lone", 0, 1).unwrap();
    assert_eq!(c.steal_batch(1, 16).len(), 1);
}

/// Re-declaring with a different partition count deterministically
/// re-routes the backlog by each tag's hint — per-key order intact.
#[test]
fn redeclare_with_new_partition_count_reroutes_backlog() {
    let b = Broker::new();
    b.declare_queue(
        "q",
        QueueConfig {
            max_len: None,
            partitions: 4,
        },
    );
    b.bind("pub", "q");
    for round in 0..3u64 {
        for key in 0..8u64 {
            b.publish_routed("pub", format!("k{key}-{round}"), 0, key)
                .unwrap();
        }
    }
    assert_eq!(b.queue_partitions("q"), Some(4));
    b.declare_queue(
        "q",
        QueueConfig {
            max_len: None,
            partitions: 2,
        },
    );
    assert_eq!(b.queue_partitions("q"), Some(2));
    let depths = b.partition_depths("q").unwrap();
    assert_eq!(
        depths,
        vec![12, 12],
        "even/odd keys split across 2 partitions"
    );
    let c = b.consumer("q").unwrap();
    let mut per_key: HashMap<String, Vec<String>> = HashMap::new();
    for d in c.pop_batch(64, Duration::from_millis(50)) {
        let p = d.payload.as_str();
        let key = p[1..p.find('-').unwrap()].to_owned();
        per_key.entry(key).or_default().push(p.to_owned());
        c.ack(d.tag);
    }
    for key in 0..8 {
        let expected: Vec<String> = (0..3).map(|r| format!("k{key}-{r}")).collect();
        assert_eq!(per_key[&key.to_string()], expected, "key {key} stays FIFO");
    }
}

/// The partitioned layout survives a durable restart: replay re-routes
/// every pending delivery to the partition its tag hint names, so two
/// reopens of the same log build identical layouts.
#[test]
fn partitioned_backlog_recovers_deterministically() {
    let dir = crate::wal::tests::temp_dir("broker-partitioned");
    let cfg = WalConfig::new(&dir).fsync(crate::wal::FsyncPolicy::EveryWrite);
    let (b, _) = Broker::open_durable(cfg.clone()).unwrap();
    b.declare_queue("q", QueueConfig::default());
    b.bind("pub", "q");
    for round in 0..4u64 {
        for key in 1..=3u64 {
            b.publish_routed("pub", format!("k{key}-{round}"), 0, key)
                .unwrap();
        }
    }
    // Consume and ack key 2's first two messages so replay must skip
    // them inside one partition while preserving the others.
    let c = b.consumer("q").unwrap();
    let from2 = c.pop_batch_from(2, 2);
    assert_eq!(from2.len(), 2);
    for d in &from2 {
        assert!(c.ack(d.tag));
    }
    drop((c, b));

    let depths_of = |cfg: WalConfig| {
        let (b2, _) = Broker::open_durable(cfg).unwrap();
        b2.declare_queue("q", QueueConfig::default());
        b2.bind("pub", "q");
        let depths = b2.partition_depths("q").unwrap();
        let c2 = b2.consumer("q").unwrap();
        let mut per_key: HashMap<String, Vec<String>> = HashMap::new();
        for d in c2.pop_batch(64, Duration::from_millis(50)) {
            assert!(d.redelivered, "recovered deliveries are flagged");
            let p = d.payload.as_str();
            let key = p[1..p.find('-').unwrap()].to_owned();
            per_key.entry(key).or_default().push(p.to_owned());
        }
        (depths, per_key)
    };
    let (depths_a, keys_a) = depths_of(cfg.clone());
    let (depths_b, keys_b) = depths_of(cfg);
    assert_eq!(depths_a, depths_b, "replay is deterministic");
    assert_eq!(keys_a, keys_b);
    assert_eq!(depths_a[1], 4);
    assert_eq!(depths_a[2], 2, "key 2's acked pair stays consumed");
    assert_eq!(depths_a[3], 4);
    assert_eq!(
        keys_a["2"],
        vec!["k2-2".to_owned(), "k2-3".to_owned()],
        "the unacked suffix of key 2, in order"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wait_ready_unparks_on_publish_and_counts_one_wakeup() {
    let b = broker_with("q");
    let c = b.consumer("q").unwrap();
    let h = thread::spawn(move || {
        let woke = c.wait_ready(c.wake_epoch(), Duration::from_secs(5));
        (woke, c.pop_batch_from(0, 8).len())
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while b.queue_sleepers("q") != Some(1) {
        assert!(std::time::Instant::now() < deadline, "worker never parked");
        thread::sleep(Duration::from_millis(2));
    }
    b.publish_routed("pub", "late", 0, 0).unwrap();
    let (woke, got) = h.join().unwrap();
    assert!(woke, "wait_ready returned before its timeout");
    assert_eq!(got, 1, "the key-0 publish landed in partition 0");
    assert_eq!(b.stats().wakeups, 1);
}

/// A decommissioned queue parks its consumers instead of returning at
/// once, and reinstating it wakes them.
#[test]
fn wait_ready_parks_on_a_decommissioned_queue_until_reinstated() {
    let b = broker_with("q");
    cap_kill(&b, "q");
    let c = b.consumer("q").unwrap();
    let seen = c.wake_epoch();
    let h = thread::spawn(move || c.wait_ready(seen, Duration::from_secs(5)));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while b.queue_sleepers("q") != Some(1) {
        assert!(
            std::time::Instant::now() < deadline,
            "consumer never parked"
        );
        thread::sleep(Duration::from_millis(2));
    }
    assert!(b.reinstate_queue("q"));
    assert!(h.join().unwrap(), "reinstatement ends the park");
}

/// Ready deliveries never end `wait_wake`; a wake issued after the epoch
/// was sampled ends it at once.
#[test]
fn wait_wake_ignores_ready_work_but_not_a_wake() {
    let b = broker_with("q");
    let c = b.consumer("q").unwrap();
    b.publish_routed("pub", "ready", 0, 0).unwrap();
    assert!(!c.wait_wake(c.wake_epoch(), Duration::from_millis(30)));
    let seen = c.wake_epoch();
    b.wake_queue("q");
    assert!(c.wait_wake(seen, Duration::ZERO));
}

/// A consumer parked on the wake epoch alone never takes the counted
/// wakeup a publish owes to a consumer parked for work.
#[test]
fn a_publish_wakes_the_consumer_waiting_for_work_not_a_watcher() {
    let b = broker_with("q");
    let watcher = b.consumer("q").unwrap();
    let seen = watcher.wake_epoch();
    let watching = thread::spawn(move || watcher.wait_wake(seen, Duration::from_secs(5)));
    let worker = b.consumer("q").unwrap();
    let seen = worker.wake_epoch();
    let working = thread::spawn(move || worker.wait_ready(seen, Duration::from_secs(5)));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while b.queue_sleepers("q") != Some(1) {
        assert!(std::time::Instant::now() < deadline, "worker never parked");
        thread::sleep(Duration::from_millis(2));
    }
    thread::sleep(Duration::from_millis(20));
    b.publish_routed("pub", "m", 0, 0).unwrap();
    assert!(working.join().unwrap(), "the publish woke the worker");
    assert_eq!(b.stats().wakeups, 1);
    assert!(
        !watching.is_finished(),
        "the publish did not wake the watcher"
    );
    b.wake_queue("q");
    assert!(watching.join().unwrap());
}

#[test]
fn stats_track_lifecycle() {
    let b = broker_with("q");
    b.publish_routed("pub", "x", 0, 0).unwrap();
    let c = b.consumer("q").unwrap();
    let d = c.pop(Duration::from_millis(50)).unwrap();
    c.ack(d.tag);
    let s = b.stats();
    assert_eq!(s.published, 1);
    assert_eq!(s.enqueued, 1);
    assert_eq!(s.acked, 1);
}

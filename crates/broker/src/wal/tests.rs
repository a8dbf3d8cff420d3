use super::*;
use std::sync::atomic::AtomicU32;

/// Fresh unique directory under the system temp dir (no external
/// tempfile crate in this workspace).
pub(crate) fn temp_dir(label: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("synapse-wal-{label}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn enqueue(queue: &str, tag: u64, payload: &str) -> WalRecord {
    WalRecord::Enqueue {
        queue: queue.into(),
        tag,
        exchange: "x".into(),
        payload: payload.into(),
        origin_nanos: 7,
    }
}

#[test]
fn records_round_trip() {
    let samples = vec![
        enqueue("q", 3, "body"),
        WalRecord::Ack {
            queue: "q".into(),
            tags: vec![1, 2, 9],
        },
        WalRecord::DeadLetter {
            queue: "q".into(),
            tag: 4,
        },
        WalRecord::QueueKilled { queue: "q".into() },
        WalRecord::QueueReinstated { queue: "q".into() },
        WalRecord::Checkpoint {
            queue: "q".into(),
            decommissioned: true,
            next_tag: 10,
            pending: vec![(5, "x".into(), "p".into(), 1, true)],
            dead: vec![(2, "x".into(), "poison".into(), 0)],
        },
    ];
    for record in samples {
        let encoded = record.encode();
        assert_eq!(WalRecord::decode(&encoded), Some(record));
    }
}

#[test]
fn decode_rejects_truncation_and_trailing_garbage() {
    let encoded = enqueue("q", 1, "body").encode();
    for cut in 0..encoded.len() {
        assert_eq!(WalRecord::decode(&encoded[..cut]), None, "cut at {cut}");
    }
    let mut padded = encoded;
    padded.push(0);
    assert_eq!(WalRecord::decode(&padded), None);
}

#[test]
fn append_then_reopen_replays_in_order() {
    let dir = temp_dir("replay");
    let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::Off);
    let (wal, records, _) = Wal::open(cfg.clone()).unwrap();
    assert!(records.is_empty());
    for i in 0..20u64 {
        wal.append(&enqueue("q", i, &format!("m{i}"))).unwrap();
    }
    drop(wal);
    let (_, replayed, summary) = Wal::open(cfg).unwrap();
    assert_eq!(replayed.len(), 20);
    assert_eq!(summary.torn_entries_dropped, 0);
    for (i, record) in replayed.iter().enumerate() {
        assert_eq!(record, &enqueue("q", i as u64, &format!("m{i}")));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn segments_roll_and_replay_spans_them() {
    let dir = temp_dir("roll");
    let cfg = WalConfig::new(&dir)
        .segment_max_bytes(128)
        .fsync(FsyncPolicy::Off);
    let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
    for i in 0..50u64 {
        wal.append(&enqueue("q", i, "padpadpadpad")).unwrap();
    }
    assert!(wal.stats().segments_rolled >= 2);
    drop(wal);
    let (_, replayed, summary) = Wal::open(cfg).unwrap();
    assert_eq!(replayed.len(), 50);
    assert!(summary.segments_scanned >= 3);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_not_fatal() {
    let dir = temp_dir("torn");
    let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::Off);
    let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
    for i in 0..10u64 {
        wal.append(&enqueue("q", i, "payload")).unwrap();
    }
    let end = wal.position().offset;
    drop(wal);
    // Chop a few bytes off the *valid* tail (the file itself sits at
    // its preallocated capacity): the final frame is torn.
    let path = segment_path(&dir, 0);
    OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(end - 3)
        .unwrap();
    let (_, replayed, summary) = Wal::open(cfg.clone()).unwrap();
    assert_eq!(replayed.len(), 9, "the torn final frame is dropped");
    assert_eq!(summary.torn_entries_dropped, 1);
    // The truncation is persistent: a second reopen is clean.
    let (_, again, summary2) = Wal::open(cfg).unwrap();
    assert_eq!(again.len(), 9);
    assert_eq!(summary2.torn_entries_dropped, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn partial_append_fault_tears_exactly_one_frame() {
    let dir = temp_dir("partial");
    let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::EveryWrite);
    let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
    for i in 0..5u64 {
        wal.append(&enqueue("q", i, "survivor")).unwrap();
    }
    wal.inject_partial_append(6);
    assert!(wal.append(&enqueue("q", 99, "torn")).is_err());
    assert!(wal.is_poisoned());
    assert!(wal.append(&enqueue("q", 100, "after")).is_err());
    drop(wal);
    let (_, replayed, summary) = Wal::open(cfg).unwrap();
    assert_eq!(replayed.len(), 5, "only confirmed appends replay");
    assert_eq!(summary.torn_entries_dropped, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn power_failure_respects_fsync_policy() {
    // EveryWrite: nothing confirmed is lost.
    let dir = temp_dir("power-every");
    let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::EveryWrite);
    let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
    for i in 0..8u64 {
        wal.append(&enqueue("q", i, "durable")).unwrap();
    }
    wal.simulate_power_failure().unwrap();
    drop(wal);
    let (_, replayed, _) = Wal::open(cfg).unwrap();
    assert_eq!(replayed.len(), 8);
    let _ = fs::remove_dir_all(&dir);

    // Off: the whole unsynced tail is lost.
    let dir = temp_dir("power-off");
    let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::Off);
    let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
    for i in 0..8u64 {
        wal.append(&enqueue("q", i, "volatile")).unwrap();
    }
    wal.simulate_power_failure().unwrap();
    drop(wal);
    let (_, replayed, _) = Wal::open(cfg).unwrap();
    assert!(
        replayed.is_empty(),
        "unsynced appends do not survive power loss"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn dropped_fsyncs_lose_the_lying_window_on_power_failure() {
    let dir = temp_dir("dropfsync");
    let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::EveryWrite);
    let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
    for i in 0..4u64 {
        wal.append(&enqueue("q", i, "synced")).unwrap();
    }
    wal.inject_drop_fsyncs(3);
    for i in 4..7u64 {
        wal.append(&enqueue("q", i, "lied-about")).unwrap();
    }
    assert_eq!(wal.stats().fsyncs_dropped, 3);
    wal.simulate_power_failure().unwrap();
    drop(wal);
    let (_, replayed, _) = Wal::open(cfg).unwrap();
    assert_eq!(replayed.len(), 4, "the dropped-fsync window is lost");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_roll_and_gc_shrink_the_log() {
    let dir = temp_dir("gc");
    let cfg = WalConfig::new(&dir)
        .segment_max_bytes(256)
        .fsync(FsyncPolicy::Off);
    let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
    for i in 0..40u64 {
        wal.append(&enqueue("q", i, "padpadpadpadpad")).unwrap();
    }
    let boundary = wal.begin_checkpoint().unwrap();
    wal.append(&WalRecord::Checkpoint {
        queue: "q".into(),
        decommissioned: false,
        next_tag: 41,
        pending: vec![(40, "x".into(), "live".into(), 0, false)],
        dead: vec![],
    })
    .unwrap();
    wal.sync().unwrap();
    let removed = wal.gc_before(boundary).unwrap();
    assert!(removed >= 1);
    drop(wal);
    let (_, replayed, summary) = Wal::open(cfg).unwrap();
    assert_eq!(
        summary.segments_scanned, 1,
        "only the checkpoint segment survives"
    );
    assert!(matches!(replayed[0], WalRecord::Checkpoint { .. }));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crc32_matches_known_vectors() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

/// The oracle: IEEE CRC-32 a byte at a time, each byte folded bit by bit,
/// so it shares no table with the code under test.
fn bytewise_crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for b in bytes {
        crc ^= *b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Slicing-by-8 agrees with the bytewise form at every length that ends
/// mid-word and at every alignment, and over a seeded 1 MiB buffer.
#[test]
fn crc32_slicing_matches_bytewise_reference() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let buf: Vec<u8> = (0..(1 << 20) + 8)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect();
    for start in 0..8 {
        for len in 0..=64 {
            let bytes = &buf[start..start + len];
            assert_eq!(
                crc32(bytes),
                bytewise_crc32(bytes),
                "start {start} len {len}"
            );
        }
    }
    assert_eq!(crc32(&buf[..1 << 20]), bytewise_crc32(&buf[..1 << 20]));
}

/// Parallel appenders through the group-commit protocol: every
/// confirmed append replays, in a per-thread-FIFO-consistent order,
/// and the leader amortizes fsyncs below one-per-append.
#[test]
fn concurrent_group_commit_replays_every_record() {
    let dir = temp_dir("group");
    let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::EveryWrite);
    let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
    let wal = std::sync::Arc::new(wal);
    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            let wal = wal.clone();
            std::thread::spawn(move || {
                for i in 0..25u64 {
                    wal.append(&enqueue("q", t * 1000 + i, "grouped")).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = wal.stats();
    assert_eq!(stats.appends, 200);
    assert!(stats.group_commits >= 1);
    assert!(
        stats.fsyncs <= stats.appends,
        "group commit never fsyncs more than once per append"
    );
    drop(wal);
    let (_, replayed, summary) = Wal::open(cfg).unwrap();
    assert_eq!(replayed.len(), 200);
    assert_eq!(summary.torn_entries_dropped, 0);
    // Per-thread FIFO: each thread's tags replay in its append order.
    let mut last_per_thread = [0u64; 8];
    for record in &replayed {
        let WalRecord::Enqueue { tag, .. } = record else {
            panic!("only enqueues were appended");
        };
        let thread = (tag / 1000) as usize;
        let seq = tag % 1000 + 1;
        assert!(seq > last_per_thread[thread], "thread {thread} reordered");
        last_per_thread[thread] = seq;
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Relaxed-lane records are staged without waiting but survive a
/// clean close (the drop flush leads any orphaned batch to disk).
#[test]
fn relaxed_lane_survives_clean_close() {
    let dir = temp_dir("relaxed");
    let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::Off);
    let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
    wal.append(&enqueue("q", 1, "blocking")).unwrap();
    wal.append_relaxed(&WalRecord::Ack {
        queue: "q".into(),
        tags: vec![1],
    })
    .unwrap();
    drop(wal);
    let (_, replayed, _) = Wal::open(cfg).unwrap();
    assert_eq!(replayed.len(), 2);
    assert!(matches!(replayed[1], WalRecord::Ack { .. }));
    let _ = fs::remove_dir_all(&dir);
}

/// A multi-frame staged batch torn mid-way by the partial-append
/// fault keeps its complete prefix frames (they replay as live) and
/// drops exactly the torn one.
#[test]
fn partial_batch_keeps_complete_prefix_frames() {
    let dir = temp_dir("partial-batch");
    let cfg = WalConfig::new(&dir).fsync(FsyncPolicy::EveryWrite);
    let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
    let mut batch = Vec::new();
    for i in 0..4u64 {
        frame_record_into(&mut batch, &enqueue("q", i, "batched"));
    }
    let one_frame = batch.len() / 4;
    // Cut inside the third frame: two complete frames survive.
    wal.inject_partial_append((one_frame * 2 + 3) as u64);
    assert!(wal.commit_frames(&batch, 4).is_err());
    assert!(wal.is_poisoned());
    drop(wal);
    let (_, replayed, summary) = Wal::open(cfg).unwrap();
    assert_eq!(replayed.len(), 2, "complete prefix frames replay");
    assert_eq!(summary.torn_entries_dropped, 1);
    let _ = fs::remove_dir_all(&dir);
}

//! Property tests for the broker WAL: codec round-trips and the torn-tail
//! invariant.
//!
//! The unit tests in `wal.rs` pin specific corruption shapes; these
//! properties sweep the input space. The load-bearing claims:
//!
//! 1. `WalRecord` encode → decode is the identity, and no strict prefix of
//!    an encoding decodes to anything (so a torn frame can never be
//!    mistaken for a shorter valid record).
//! 2. Truncating the log file at *any* byte offset never panics on
//!    reopen, and replay yields exactly a prefix of what was appended —
//!    which is the mechanism behind "acked messages never resurrect as
//!    unacked and unacked never flip to acked": a prefix of the record
//!    stream can lose suffix acks (redelivery, at-least-once) but can
//!    never invent one.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use synapse_broker::{FsyncPolicy, Wal, WalConfig, WalRecord};

fn temp_dir(label: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "synapse-wal-props-{label}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record_strategy() -> impl Strategy<Value = WalRecord> {
    let queue = "[a-z]{1,8}";
    let text = "[ -~]{0,24}";
    prop_oneof![
        (queue, any::<u64>(), text, text, any::<u64>()).prop_map(
            |(queue, tag, exchange, payload, origin_nanos)| WalRecord::Enqueue {
                queue,
                tag,
                exchange,
                payload,
                origin_nanos,
            }
        ),
        (queue, prop::collection::vec(any::<u64>(), 0..8))
            .prop_map(|(queue, tags)| WalRecord::Ack { queue, tags }),
        (queue, any::<u64>()).prop_map(|(queue, tag)| WalRecord::DeadLetter { queue, tag }),
        queue.prop_map(|queue| WalRecord::QueueKilled { queue }),
        queue.prop_map(|queue| WalRecord::QueueReinstated { queue }),
        (
            queue,
            any::<bool>(),
            any::<u64>(),
            prop::collection::vec(
                (any::<u64>(), text, text, any::<u64>(), any::<bool>()),
                0..5
            ),
            prop::collection::vec((any::<u64>(), text, text, any::<u64>()), 0..5),
        )
            .prop_map(|(queue, decommissioned, next_tag, pending, dead)| {
                WalRecord::Checkpoint {
                    queue,
                    decommissioned,
                    next_tag,
                    pending,
                    dead,
                }
            }),
    ]
}

/// Acked tags per queue observed in a record stream — the fold the torn
/// properties compare across truncation.
fn acked_tags(records: &[WalRecord]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for r in records {
        if let WalRecord::Ack { queue, tags } = r {
            for t in tags {
                out.push((queue.clone(), *t));
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn encode_decode_round_trips(record in record_strategy()) {
        let encoded = record.encode();
        prop_assert_eq!(WalRecord::decode(&encoded), Some(record));
    }

    #[test]
    fn no_strict_prefix_decodes(record in record_strategy(), cut_ppm in 0u64..1_000_000) {
        let encoded = record.encode();
        // Sample one strict prefix per case; the sweep across cases
        // covers the space without O(len) decodes every run.
        let cut = (encoded.len() as u64 * cut_ppm / 1_000_000) as usize;
        prop_assert!(cut < encoded.len());
        prop_assert_eq!(WalRecord::decode(&encoded[..cut]), None);
    }

    #[test]
    fn flipping_any_byte_never_round_trips_silently(
        record in record_strategy(),
        pos_ppm in 0u64..1_000_000,
        flip in 1u8..=255,
    ) {
        let encoded = record.encode();
        let pos = (encoded.len() as u64 * pos_ppm / 1_000_000) as usize;
        let mut corrupt = encoded.clone();
        corrupt[pos.min(encoded.len() - 1)] ^= flip;
        // Decode may fail (usual) or succeed on a different record (the
        // CRC layer above catches that) — it must never return the
        // original from corrupted bytes.
        if let Some(decoded) = WalRecord::decode(&corrupt) {
            prop_assert!(decoded != WalRecord::decode(&encoded).unwrap());
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_truncation_replays_a_prefix(
        records in prop::collection::vec(record_strategy(), 1..16),
        cut_ppm in 0u64..=1_000_000,
    ) {
        let dir = temp_dir("torn");
        // Large enough that these tiny record streams never roll; small
        // enough that preallocating the segment stays cheap per case.
        let cfg = WalConfig::new(&dir)
            .segment_max_bytes(64 << 10)
            .fsync(FsyncPolicy::Off);
        let end;
        {
            let (wal, replayed, _) = Wal::open(cfg.clone()).expect("fresh open");
            prop_assert!(replayed.is_empty());
            for r in &records {
                wal.append(r).expect("append");
            }
            wal.sync().expect("sync");
            end = wal.position().offset;
        }
        // Tear the (single) segment at an arbitrary byte of its *valid*
        // extent — including inside the header and at offset 0. (The
        // file itself is longer: segments are preallocated to capacity,
        // so the byte past `end` is already the zero tail replay treats
        // as the clean end of the log.)
        let path = dir.join("segment-00000000.wal");
        let cut = end * cut_ppm / 1_000_000;
        let file = std::fs::OpenOptions::new().write(true).open(&path).expect("open");
        file.set_len(cut).expect("truncate");
        drop(file);

        let (_wal, replayed, summary) = Wal::open(cfg).expect("reopen never fails");
        // Replay is exactly a prefix of what was appended.
        prop_assert!(replayed.len() <= records.len());
        prop_assert_eq!(&replayed[..], &records[..replayed.len()]);
        prop_assert_eq!(summary.entries_replayed, replayed.len() as u64);
        // The ack fold of a prefix is a subset of the original ack fold:
        // truncation can forget acks (at-least-once redelivery) but can
        // never mint one for a tag that was not acked pre-crash.
        let original = acked_tags(&records);
        for pair in acked_tags(&replayed) {
            prop_assert!(original.contains(&pair));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_log_stays_appendable(
        records in prop::collection::vec(record_strategy(), 1..8),
        cut_ppm in 0u64..=1_000_000,
    ) {
        let dir = temp_dir("appendable");
        let cfg = WalConfig::new(&dir)
            .segment_max_bytes(64 << 10)
            .fsync(FsyncPolicy::EveryWrite);
        let end;
        {
            let (wal, _, _) = Wal::open(cfg.clone()).expect("fresh open");
            for r in &records {
                wal.append(r).expect("append");
            }
            end = wal.position().offset;
        }
        let path = dir.join("segment-00000000.wal");
        let cut = end * cut_ppm / 1_000_000;
        let file = std::fs::OpenOptions::new().write(true).open(&path).expect("open");
        file.set_len(cut).expect("truncate");
        drop(file);

        // A recovered log accepts new appends, and a third open replays
        // prefix + the new record in order.
        let (wal, replayed, _) = Wal::open(cfg.clone()).expect("reopen");
        let marker = WalRecord::QueueKilled { queue: "marker".into() };
        wal.append(&marker).expect("append after recovery");
        drop(wal);
        let (_wal, again, _) = Wal::open(cfg).expect("third open");
        prop_assert_eq!(again.len(), replayed.len() + 1);
        prop_assert_eq!(&again[..replayed.len()], &replayed[..]);
        prop_assert_eq!(&again[replayed.len()], &marker);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

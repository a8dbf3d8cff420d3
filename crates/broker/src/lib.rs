//! Reliable pub/sub message broker — the RabbitMQ of the paper.
//!
//! Synapse sends every write message to "a reliable, persistent, and
//! scalable message broker system", with "a dedicated queue for each
//! subscriber app" whose messages are "processed in parallel by multiple
//! subscriber workers" (§4). This crate reproduces the slice of RabbitMQ
//! the paper depends on:
//!
//! * fanout exchanges: one per publisher app, bound to subscriber queues;
//! * durable FIFO queues with blocking consumers, delivery tags,
//!   ack/nack-requeue, and redelivery of unacked messages on recovery;
//! * the queue-cap/decommission policy of §4.4 ("Synapse decommissions the
//!   subscriber ... and kills its queue once the queue size reaches a
//!   configurable limit");
//! * failure injection — dropped messages (the RabbitMQ-upgrade incident of
//!   §6.5) and broker restarts that requeue in-flight deliveries;
//! * a durability plane ([`wal`]): a segmented, CRC-framed write-ahead log
//!   with configurable fsync policy, per-queue checkpoints with segment GC,
//!   and crash recovery via [`Broker::open_durable`].

pub mod broker;
pub mod message;
pub mod queue;
pub mod wal;

pub use broker::{Broker, BrokerStats, Consumer, PublishError, RecoveryReport};
pub use message::{Delivery, SharedStr};
pub use queue::{tag_hint, tag_seq, QueueConfig, QueueState, PARTITION_HINT_SPAN};
pub use wal::{FsyncPolicy, LogPos, ReplaySummary, Wal, WalConfig, WalRecord, WalStats};

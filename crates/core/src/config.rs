//! Per-service Synapse configuration.

use crate::deps::DepSpace;
use crate::semantics::DeliveryMode;
use std::path::PathBuf;
use std::time::Duration;
use synapse_broker::FsyncPolicy;

/// The node's durability plane: where (and whether) the broker WAL and
/// version-store snapshots live.
///
/// Durability is off by default (`dir: None`) — the memory-only posture of
/// the original reproduction, whose hot paths pay only an `Option` branch
/// for the plane's existence. Setting a directory turns on both halves:
/// the broker queues log to `<dir>/wal` and the node's version-store
/// snapshots go to `<dir>/snapshots`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Root directory of the durability plane; `None` = memory-only.
    pub dir: Option<PathBuf>,
    /// Broker WAL fsync policy.
    pub fsync: FsyncPolicy,
    /// Snapshot the version stores after this many subscriber-processed
    /// messages (driver-clocked, so runs are deterministic under a pinned
    /// seed; see DESIGN.md). `None` = only explicit snapshots.
    pub snapshot_every: Option<u64>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            dir: None,
            fsync: FsyncPolicy::default(),
            snapshot_every: Some(256),
        }
    }
}

impl DurabilityConfig {
    /// Maps this plane's broker-WAL knobs onto a [`synapse_broker::WalConfig`]
    /// rooted at `<dir>/wal`, or `None` when durability is off. This is the
    /// single translation point between the node-level config surface and
    /// the broker's own; the exhaustive destructure makes a field added
    /// here and not mapped (or explicitly ignored) a build error.
    pub fn wal_config(&self) -> Option<synapse_broker::WalConfig> {
        let DurabilityConfig {
            dir,
            fsync,
            // Snapshot cadence is the node's, not the broker WAL's.
            snapshot_every: _,
        } = self;
        let root = dir.as_ref()?;
        Some(synapse_broker::WalConfig::new(root.join("wal")).fsync(*fsync))
    }
}

/// Attempts per unit of work under transient failure, first try
/// included: a subscriber that exhausts them dead-letters the delivery, a
/// publisher journals the payload for
/// [`recover`](crate::Publisher::recover), and the bootstrap copier fails
/// the attempt (the next attempt starts again at the first row). The §6.5
/// postmortem is the reason attempts are bounded at all: unbounded
/// redelivery of a poisoned message wedges the queue forever.
pub const RETRY_ATTEMPTS: u32 = 4;

/// Backoff before the second attempt; it doubles with each further one.
const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// The backoff after failed attempt `attempt` (1-based):
/// `RETRY_BACKOFF · 2^(attempt-1)`, capped at 64 · `RETRY_BACKOFF`.
pub(crate) fn backoff(attempt: u32) -> Duration {
    RETRY_BACKOFF * (1u32 << attempt.saturating_sub(1).min(6))
}

/// Records copied per chunk during bootstrap's step-2 object copy: the
/// unit a transient fault retries. A failed attempt's rows are re-read by
/// the next attempt and refused by version admission, not re-written.
pub const BOOTSTRAP_CHUNK_ROWS: usize = 64;

/// Shards in each node's two version stores.
pub const VERSION_STORE_SHARDS: usize = 4;

/// Configuration of one service's Synapse runtime.
#[derive(Debug, Clone)]
pub struct SynapseConfig {
    /// Application name — the message `app` field and queue/exchange name.
    pub app: String,
    /// Delivery mode this service *supports* as a publisher (§3.2:
    /// publishers pick the strongest semantics they are willing to pay for).
    pub publisher_mode: DeliveryMode,
    /// Delivery mode this service *requests* as a subscriber; the effective
    /// mode per publisher is the weaker of the two.
    pub subscriber_mode: DeliveryMode,
    /// Effective dependency space (§4.2's O(1)-memory hashing).
    pub dep_space: DepSpace,
    /// How long a subscriber worker waits for a causal dependency before
    /// giving up and processing anyway. The paper's §6.5 recommendation:
    /// "weak and causal modes are achieved with the timeout set to 0 s and
    /// ∞, respectively" — anything in between trades consistency for
    /// availability. `None` means wait forever.
    pub dep_wait_timeout: Option<Duration>,
    /// Subscriber worker threads ("messages in the queue are processed in
    /// parallel by multiple subscriber workers").
    pub subscriber_workers: usize,
    /// Queue backlog cap before decommission (§4.4); `None` = unbounded.
    pub queue_max_len: Option<usize>,
    /// Partitions in this service's broker queue (the scale-out delivery
    /// plane): each partition has its own lock and ready run, routed by the
    /// written object's dependency key so one object's messages stay in one
    /// partition. `0` = the broker's default partition count.
    pub queue_partitions: usize,
    /// Whether the structured telemetry event ring records span-style stage
    /// traces. Counters and latency histograms are always live (they are
    /// plain atomic bumps); this flag only gates the ring, turning each
    /// push into a single relaxed load when off.
    pub telemetry_enabled: bool,
    /// The durability plane (off by default).
    pub durability: DurabilityConfig,
}

impl SynapseConfig {
    /// The paper's default posture: causal publisher, causal subscriber.
    pub fn new(app: impl Into<String>) -> Self {
        SynapseConfig {
            app: app.into(),
            publisher_mode: DeliveryMode::Causal,
            subscriber_mode: DeliveryMode::Causal,
            dep_space: DepSpace::new(1 << 20),
            dep_wait_timeout: Some(Duration::from_secs(10)),
            subscriber_workers: 2,
            queue_max_len: None,
            queue_partitions: 0,
            telemetry_enabled: true,
            durability: DurabilityConfig::default(),
        }
    }

    /// Sets both publisher and subscriber modes.
    pub fn mode(mut self, mode: DeliveryMode) -> Self {
        self.publisher_mode = mode;
        self.subscriber_mode = mode;
        self
    }

    /// Sets the publisher mode.
    pub fn publisher_mode(mut self, mode: DeliveryMode) -> Self {
        self.publisher_mode = mode;
        self
    }

    /// Sets the subscriber mode.
    pub fn subscriber_mode(mut self, mode: DeliveryMode) -> Self {
        self.subscriber_mode = mode;
        self
    }

    /// Sets the subscriber worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.subscriber_workers = n;
        self
    }

    /// Sets the dependency-wait timeout (`None` = wait forever).
    pub fn wait_timeout(mut self, t: Option<Duration>) -> Self {
        self.dep_wait_timeout = t;
        self
    }

    /// Sets the dependency space.
    pub fn dep_space(mut self, space: DepSpace) -> Self {
        self.dep_space = space;
        self
    }

    /// Sets the queue cap.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_max_len = Some(cap);
        self
    }

    /// Sets the queue partition count (`0` = broker default).
    pub fn queue_partitions(mut self, n: usize) -> Self {
        self.queue_partitions = n;
        self
    }

    /// Enables or disables the structured telemetry event ring.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry_enabled = enabled;
        self
    }

    /// Turns on the durability plane rooted at `dir` (broker WAL under
    /// `<dir>/wal`, version-store snapshots under `<dir>/snapshots`).
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability.dir = Some(dir.into());
        self
    }

    /// Sets the broker WAL fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.durability.fsync = policy;
        self
    }

    /// Sets the snapshot cadence in subscriber-processed messages
    /// (`None` = only explicit snapshots).
    pub fn snapshot_every(mut self, messages: Option<u64>) -> Self {
        self.durability.snapshot_every = messages;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::writer_id;

    #[test]
    fn defaults_follow_the_paper() {
        let c = SynapseConfig::new("crowdtap");
        assert_eq!(c.publisher_mode, DeliveryMode::Causal);
        assert_eq!(c.subscriber_mode, DeliveryMode::Causal);
        assert!(c.queue_max_len.is_none());
        assert_eq!(c.queue_partitions, 0, "0 defers to the broker default");
        assert!(c.telemetry_enabled);
        assert!(c.durability.dir.is_none(), "durability is off by default");
        assert_eq!(c.durability.fsync, FsyncPolicy::Interval(64));
        assert_eq!(c.durability.snapshot_every, Some(256));
        assert!(
            c.durability.wal_config().is_none(),
            "no WAL config while durability is off"
        );
    }

    #[test]
    fn resolver_registration_and_writer_id() {
        let c = SynapseConfig::new("crowdtap");
        assert_ne!(writer_id(&c.app), writer_id("spree"));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        for attempt in 1..=7 {
            assert_eq!(backoff(attempt), RETRY_BACKOFF * (1 << (attempt - 1)));
        }
        // The exponent caps at 64·base even for huge attempt numbers.
        for attempt in [8, 60, u32::MAX] {
            assert_eq!(backoff(attempt), RETRY_BACKOFF * 64);
        }
    }

    #[test]
    fn builder_methods_compose() {
        let c = SynapseConfig::new("analytics")
            .mode(DeliveryMode::Weak)
            .workers(8)
            .queue_cap(1000)
            .queue_partitions(16)
            .wait_timeout(None)
            .telemetry(false)
            .durable("/tmp/analytics-durability")
            .fsync(FsyncPolicy::EveryWrite)
            .snapshot_every(Some(32));
        assert!(!c.telemetry_enabled);
        assert_eq!(
            c.durability.dir.as_deref(),
            Some(std::path::Path::new("/tmp/analytics-durability"))
        );
        assert_eq!(c.durability.fsync, FsyncPolicy::EveryWrite);
        assert_eq!(c.durability.snapshot_every, Some(32));
        let wal = c.durability.wal_config().expect("durable dir is set");
        assert_eq!(
            wal.dir,
            std::path::Path::new("/tmp/analytics-durability/wal")
        );
        assert_eq!(wal.fsync, FsyncPolicy::EveryWrite);
        assert_eq!(c.subscriber_mode, DeliveryMode::Weak);
        assert_eq!(c.subscriber_workers, 8);
        assert_eq!(c.queue_max_len, Some(1000));
        assert_eq!(c.queue_partitions, 16);
        assert!(c.dep_wait_timeout.is_none());
    }
}

//! Per-service Synapse configuration.

use crate::deps::{writer_id, DepSpace};
use crate::resolve::{ConflictCtx, MergeFn, Resolution, ResolverRegistry};
use crate::semantics::DeliveryMode;
use std::path::PathBuf;
use std::sync::Arc;
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
            fsync: FsyncPolicy::Interval(64),
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

/// Retry/backoff policy for transient failures across the replication
/// pipeline (broker publishes, subscriber processing).
///
/// Backoff is exponential with *deterministic* jitter: the delay for
/// attempt `k` is a pure function of `(policy, k)`, derived from
/// `jitter_seed` through splitmix64, so two runs with the same
/// configuration retry on identical schedules. The §6.5 postmortem is the
/// motivation for bounding attempts at all: unbounded redelivery of a
/// poisoned message wedges the queue forever, so after `max_attempts` the
/// pipeline routes the delivery to the dead-letter store instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per unit of work, first try included. A subscriber that
    /// exhausts this dead-letters the delivery; a publisher leaves the
    /// payload journaled for [`recover`](crate::publisher::Publisher::recover).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each further attempt.
    pub base_backoff: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff before retrying after failed attempt
    /// `attempt` (1-based): `base · 2^(attempt-1)`, capped at 64·base,
    /// plus up to 50% seeded jitter.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(6));
        let span = (exp.as_micros() as u64 / 2).max(1);
        let jitter = splitmix64(self.jitter_seed ^ u64::from(attempt)) % span;
        exp + Duration::from_micros(jitter)
    }

    /// Whether `attempts` failures exhaust the policy.
    pub fn exhausted(&self, attempts: u32) -> bool {
        attempts >= self.max_attempts
    }
}

/// splitmix64 — the same mixer the fault plane uses; duplicated here so
/// the core crate stays independent of the test-support crates.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

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
    /// Retry/backoff policy for transient failures (broker publishes,
    /// subscriber processing); exhaustion dead-letters or journals.
    pub retry: RetryPolicy,
    /// Records copied per chunk during bootstrap's step-2 object copy.
    /// Each chunk commits a watermark, so smaller chunks lose less work to
    /// a mid-copy fault at the cost of more paged reads.
    pub bootstrap_chunk_size: usize,
    /// Whether the structured telemetry event ring records span-style stage
    /// traces. Counters and latency histograms are always live (they are
    /// plain atomic bumps); this flag only gates the ring, turning each
    /// push into a single relaxed load when off.
    pub telemetry_enabled: bool,
    /// The durability plane (off by default).
    pub durability: DurabilityConfig,
    /// Per-model conflict resolvers for multi-writer (bidirectional)
    /// replication; unregistered models resolve last-writer-wins by
    /// version-vector stamp.
    pub resolvers: ResolverRegistry,
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
            retry: RetryPolicy::default(),
            bootstrap_chunk_size: 64,
            telemetry_enabled: true,
            durability: DurabilityConfig::default(),
            resolvers: ResolverRegistry::new(),
        }
    }

    /// This service's writer id in version vectors: a stable hash of the
    /// app name.
    pub fn writer_id(&self) -> u64 {
        writer_id(&self.app)
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

    /// Sets the retry/backoff policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Sets the bootstrap chunk size (clamped to at least 1 at use).
    pub fn bootstrap_chunk(mut self, records: usize) -> Self {
        self.bootstrap_chunk_size = records;
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

    /// Registers a merge-callback resolver for `model` (multi-writer
    /// replication only; models without one resolve last-writer-wins).
    pub fn merge_resolver(
        mut self,
        model: impl Into<String>,
        f: impl Fn(&ConflictCtx<'_>) -> Resolution + Send + Sync + 'static,
    ) -> Self {
        self.resolvers.register(model, Arc::new(MergeFn::new(f)));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = SynapseConfig::new("crowdtap");
        assert_eq!(c.publisher_mode, DeliveryMode::Causal);
        assert_eq!(c.subscriber_mode, DeliveryMode::Causal);
        assert!(c.queue_max_len.is_none());
        assert_eq!(c.queue_partitions, 0, "0 defers to the broker default");
        assert!(c.telemetry_enabled);
        assert_eq!(c.bootstrap_chunk_size, 64);
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
        assert!(c.resolvers.is_empty(), "no resolvers by default");
        assert_eq!(c.resolvers.get("User").name(), "lww");
        assert_eq!(c.writer_id(), SynapseConfig::new("crowdtap").writer_id());
        assert_ne!(c.writer_id(), SynapseConfig::new("spree").writer_id());

        let c = c.merge_resolver("User", |_| Resolution::KeepLocal);
        assert_eq!(c.resolvers.get("User").name(), "merge");
        assert_eq!(c.resolvers.get("Post").name(), "lww");
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy::default();
        for attempt in 1..10 {
            assert_eq!(policy.backoff(attempt), policy.backoff(attempt));
        }
        assert!(policy.backoff(2) >= policy.backoff(1));
        // The exponent caps at 64·base even for huge attempt numbers.
        assert!(policy.backoff(60) < policy.base_backoff * 129);
        let other = RetryPolicy {
            jitter_seed: 999,
            ..RetryPolicy::default()
        };
        assert_ne!(policy.backoff(1), other.backoff(1));
    }

    #[test]
    fn builder_methods_compose() {
        let c = SynapseConfig::new("analytics")
            .mode(DeliveryMode::Weak)
            .workers(8)
            .queue_cap(1000)
            .queue_partitions(16)
            .wait_timeout(None)
            .bootstrap_chunk(16)
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
        assert_eq!(c.bootstrap_chunk_size, 16);
    }
}

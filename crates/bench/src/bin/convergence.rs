//! Multi-writer convergence trajectory: what the version-vector plane
//! costs and how the mesh behaves as contention rises.
//!
//! Two measurements, consumed by `scripts/bench.sh` into
//! `BENCH_convergence.json`:
//!
//! * **Single-writer overhead A/B** — the same create load driven through
//!   a plain publication and through a bidirectional one. The only
//!   difference is the vector plane: mesh-key stamping on the publisher
//!   and dominance classification on the subscriber. The ratio is the
//!   price a single-writer deployment pays for turning on multi-writer
//!   support it never exercises.
//! * **Two-writer conflict-rate sweep** — two bidirectional nodes update
//!   a shared pool of rows concurrently; shrinking the pool raises the
//!   chance that both regions touch the same row in flight. (Detected
//!   conflict counts are interleaving-dependent and noisy — the gate is
//!   convergence, never a count.) Each arm measures updates
//!   per second until the mesh converges (identical rows both sides,
//!   journals empty, apply counters quiescent) and reports the conflicts
//!   the classifiers detected. One arm re-runs the hottest pool under a
//!   merge resolver to price the resolver escape hatch against LWW.
//!
//! Prints `convergence/<arm> <rate> msgs_per_sec` lines plus
//! `convergence/conflicts_<arm> <count> conflicts` lines. Tunables:
//! `CONVERGENCE_OPS` (updates per writer per arm, default 1500),
//! `CONVERGENCE_SINGLE_OPS` (creates in the A/B arms, default 3000).
//!
//! `--smoke` runs tiny counts and gates on liveness only: every mesh arm
//! must converge exactly, and the bidirectional single-writer arm must
//! not collapse below 0.2x the plain arm (a collapse means vector
//! stamping serialized the write path).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_core::{
    mesh_object, DeliveryMode, Ecosystem, Publication, Resolution, Subscription, SynapseConfig,
    SynapseNode,
};
use synapse_db::LatencyModel;
use synapse_model::{vmap, Id, ModelSchema, Value};
use synapse_orm::adapters::MongoidAdapter;

fn env_count(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
        .max(1)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn post_node(eco: &Ecosystem, config: SynapseConfig) -> Arc<SynapseNode> {
    let node = eco.add_node(
        config
            .mode(DeliveryMode::Weak)
            .wait_timeout(Some(Duration::from_millis(50)))
            .workers(2),
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    node.orm()
        .define_model(ModelSchema::new("Post").field("body"))
        .unwrap();
    node
}

/// Single-writer A/B arm: `ops` creates through one publisher, drained by
/// one subscriber. `bidirectional` swaps the plain publication for the
/// vector-stamped one — the workload is otherwise identical.
fn single_writer_rate(ops: u64, bidirectional: bool) -> f64 {
    let eco = Ecosystem::new();
    let publisher = post_node(&eco, SynapseConfig::new("pub"));
    let subscriber = post_node(&eco, SynapseConfig::new("sub"));
    let (publication, subscription) = if bidirectional {
        (
            Publication::model("Post").field("body").bidirectional(),
            Subscription::model("Post", "pub")
                .field("body")
                .bidirectional(),
        )
    } else {
        (
            Publication::model("Post").field("body"),
            Subscription::model("Post", "pub").field("body"),
        )
    };
    publisher.publish(publication).unwrap();
    subscriber.subscribe(subscription).unwrap();
    let violations = eco.connect();
    assert!(violations.is_empty(), "{violations:?}");
    eco.start_all();

    let start = Instant::now();
    for i in 0..ops {
        publisher
            .orm()
            .create("Post", vmap! { "body" => format!("p-{i}") })
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while subscriber.orm().count("Post").unwrap() < ops {
        assert!(
            Instant::now() < deadline,
            "subscriber stalled at {}/{ops} creates",
            subscriber.orm().count("Post").unwrap()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let elapsed = start.elapsed();
    eco.stop_all();
    ops as f64 / elapsed.as_secs_f64()
}

struct MeshResult {
    /// Applied updates per second, clocked from the first update to the
    /// converged (and quiescent) mesh.
    rate: f64,
    /// Conflicts the two classifiers detected, summed over both nodes.
    conflicts: u64,
}

fn body_of(node: &SynapseNode, id: Id) -> Option<Value> {
    let row = node.orm().find("Post", id).unwrap();
    row.map(|r| r.get("body").clone())
}

/// What a mesh arm that missed its deadline looked like at its last poll:
/// which of the three convergence conditions were unmet and, for every row
/// the replicas disagree on, each side's `body`, stored version vector and
/// LWW winner stamp (the state that decides who should have won).
fn divergence_report(nodes: [&SynapseNode; 2], ids: &[Id], drained: bool, steady: bool) -> String {
    let differing: Vec<Id> = ids
        .iter()
        .copied()
        .filter(|&id| body_of(nodes[0], id) != body_of(nodes[1], id))
        .collect();
    let mut out = format!(
        "journals drained: {drained}, rows equal: {}, counters stable: {steady}",
        differing.is_empty()
    );
    for node in nodes {
        let stats = node.subscriber_stats();
        let _ = write!(
            out,
            "\n  {}: journal={} processed={} applied={} conflicts={}",
            node.app(),
            node.publisher().journal_len(),
            stats.messages_processed,
            stats.ops_applied,
            stats.conflicts_detected,
        );
    }
    let dumps = nodes.map(|node| node.sub_store().dump().unwrap_or_default());
    for id in differing {
        for (node, dump) in nodes.iter().zip(&dumps) {
            let mesh = node.config().dep_space.key(&mesh_object("Post", id));
            let _ = write!(
                out,
                "\n  Post {id} @ {}: body={:?}",
                node.app(),
                body_of(node, id)
            );
            match dump.iter().find(|e| e.key == mesh) {
                Some(e) => {
                    let _ = write!(
                        out,
                        " vector={:?} winner=({}, {})",
                        e.vector, e.winner_sum, e.winner_writer
                    );
                }
                None => out.push_str(" (no stored vector)"),
            }
        }
    }
    out
}

/// Two-writer arm: both nodes update rows drawn from a shared pool of
/// `pool` Posts, `ops` updates each, concurrently. Returns the applied
/// throughput to convergence plus the detected-conflict count.
fn mesh_rate(pool: u64, ops: u64, merge: bool) -> MeshResult {
    let eco = Ecosystem::new();
    let configure = |config: SynapseConfig| {
        if merge {
            // Commutative pick (lexicographic max body): both regions
            // settle identically without the LWW stamp.
            config.merge_resolver("Post", |ctx| {
                let incoming = ctx
                    .incoming
                    .get("body")
                    .and_then(|v| v.as_str())
                    .unwrap_or("");
                let local = ctx
                    .local
                    .and_then(|attrs| attrs.get("body"))
                    .and_then(|v| v.as_str())
                    .unwrap_or("");
                if local >= incoming {
                    Resolution::KeepLocal
                } else {
                    Resolution::TakeIncoming
                }
            })
        } else {
            config
        }
    };
    let a = post_node(&eco, configure(SynapseConfig::new("mesh_a")));
    let b = post_node(&eco, configure(SynapseConfig::new("mesh_b")));
    for node in [&a, &b] {
        node.publish(Publication::model("Post").field("body").bidirectional())
            .unwrap();
    }
    a.subscribe(
        Subscription::model("Post", "mesh_b")
            .field("body")
            .bidirectional(),
    )
    .unwrap();
    b.subscribe(
        Subscription::model("Post", "mesh_a")
            .field("body")
            .bidirectional(),
    )
    .unwrap();
    let violations = eco.connect();
    assert!(violations.is_empty(), "{violations:?}");
    eco.start_all();

    // The shared pool originates on one writer and replicates before the
    // storm, so both sides race over the same logical rows.
    let ids: Vec<Id> = (0..pool)
        .map(|i| {
            a.orm()
                .create("Post", vmap! { "body" => format!("seed-{i}") })
                .unwrap()
                .id
        })
        .collect();
    let last = *ids.last().unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while b.orm().find("Post", last).unwrap().is_none() {
        assert!(Instant::now() < deadline, "pool never replicated");
        std::thread::sleep(Duration::from_millis(1));
    }

    let start = Instant::now();
    let writers: Vec<_> = [(a.clone(), 0x9E37u64), (b.clone(), 0x79B9u64)]
        .into_iter()
        .enumerate()
        .map(|(region, (node, seed))| {
            let ids = ids.clone();
            std::thread::spawn(move || {
                let mut state = seed | 1;
                for i in 0..ops {
                    let id = ids[(xorshift(&mut state) % ids.len() as u64) as usize];
                    node.orm()
                        .update("Post", id, vmap! { "body" => format!("r{region}-{i}") })
                        .unwrap();
                    std::thread::yield_now();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }

    // Convergence: identical rows on both sides, empty journals, and the
    // apply counters stable across several consecutive polls (a
    // transient match while messages are still in flight doesn't count).
    let progress = |node: &Arc<SynapseNode>| {
        let stats = node.subscriber_stats();
        (
            stats.messages_processed,
            stats.ops_applied,
            node.publisher().journal_len(),
        )
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut stable = 0;
    let mut marks = (progress(&a), progress(&b));
    let (mut drained, mut steady) = (false, false);
    while stable < 5 {
        assert!(
            Instant::now() < deadline,
            "mesh never converged (pool={pool}): {}",
            divergence_report([&a, &b], &ids, drained, steady)
        );
        std::thread::sleep(Duration::from_millis(5));
        let now = (progress(&a), progress(&b));
        drained = now.0 .2 == 0 && now.1 .2 == 0;
        steady = now == marks;
        let equal = ids.iter().all(|&id| body_of(&a, id) == body_of(&b, id));
        if drained && equal && steady {
            stable += 1;
        } else {
            stable = 0;
            marks = now;
        }
    }
    let elapsed = start.elapsed();

    let conflicts =
        a.subscriber_stats().conflicts_detected + b.subscriber_stats().conflicts_detected;
    eco.stop_all();
    MeshResult {
        rate: (2 * ops) as f64 / elapsed.as_secs_f64(),
        conflicts,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mesh_ops = env_count("CONVERGENCE_OPS", if smoke { 150 } else { 1_500 });
    let single_ops = env_count("CONVERGENCE_SINGLE_OPS", if smoke { 300 } else { 3_000 });
    let pools: &[u64] = if smoke { &[4, 64] } else { &[4, 32, 256] };

    let plain = single_writer_rate(single_ops, false);
    let stamped = single_writer_rate(single_ops, true);
    println!("convergence/single_writer_plain {plain:.0} msgs_per_sec");
    println!("convergence/single_writer_bidirectional {stamped:.0} msgs_per_sec");
    eprintln!(
        "# single-writer vector-plane retention: {:.2}x",
        stamped / plain
    );

    for &pool in pools {
        let result = mesh_rate(pool, mesh_ops, false);
        println!(
            "convergence/mesh_lww_pool{pool} {:.0} msgs_per_sec",
            result.rate
        );
        println!(
            "convergence/conflicts_lww_pool{pool} {} conflicts",
            result.conflicts
        );
    }
    // Price the merge escape hatch on the hottest pool.
    let merge = mesh_rate(pools[0], mesh_ops, true);
    println!(
        "convergence/mesh_merge_pool{} {:.0} msgs_per_sec",
        pools[0], merge.rate
    );
    println!(
        "convergence/conflicts_merge_pool{} {} conflicts",
        pools[0], merge.conflicts
    );

    if smoke {
        // Liveness gates only: every mesh arm above already asserted exact
        // convergence; here we catch the vector plane serializing the
        // single-writer path.
        assert!(
            stamped >= plain * 0.2,
            "smoke: bidirectional single-writer collapsed ({stamped:.0} vs {plain:.0} msgs/s)"
        );
        println!(
            "convergence smoke ok: {} mesh arms converged, single-writer retention {:.2}x",
            pools.len() + 1,
            stamped / plain
        );
    }
}

//! The four workloads. Each owns one wired system at a time and drives it
//! only through the public functions of the crates under `../crates`.

pub mod crowdtap;
pub mod fanout;
pub mod stress;

use crate::probe::{row_key, Probe, GONE};
use crate::trace::Tracer;
use std::path::Path;
use std::sync::{Arc, Mutex};
use synapse_core::{BootstrapState, DepSpace, Ecosystem, SynapseNode};
use synapse_orm::CallbackPoint;

/// Dependency space of the self-wired workloads. The default `1 << 20`
/// wedges the stress trace (README, first findings); `1 << 62` keeps every
/// object on its own key so the runs measure the pipeline, not collisions.
pub const DEP_SPACE: u64 = 1 << 62;

/// Closed-loop window of the sat phase, the warm-up and the load curve.
pub const WINDOW: usize = 256;

/// Pinned per-workload constants, printed in every report header.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub topology: &'static str,
    /// Open-phase arrival rate, operations per second.
    pub open_rate: f64,
    /// Closed-loop operations of the set-up's warm-up.
    pub warmup_ops: u64,
    /// Operations published while the subscribers are down.
    pub backlog_ops: u64,
    /// The publishing operation `write_p50_us` times.
    pub probe_op: &'static str,
    /// Rows the publisher holds before the subscribers bootstrap.
    pub seed_rows: u64,
}

/// One wired instance of a workload's topology.
pub struct Sys {
    pub eco: Ecosystem,
    pub publisher: Arc<SynapseNode>,
    /// Subscriber nodes; a probe replica index is an index into this.
    pub replicas: Vec<Arc<SynapseNode>>,
    pub probe: Arc<Probe>,
}

/// Wall time of the parts of one set-up, milliseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupParts {
    pub wire_ms: f64,
    pub seed_ms: f64,
    pub bootstrap_ms: f64,
    /// Mean time a bootstrap chunk spent between its hi watermark and its
    /// merge (the window wait plus the merge publish).
    pub window_ms: f64,
}

/// Layer timings a restart drill exposes (durable workload only).
#[derive(Debug, Default, Clone, Copy)]
pub struct DrillParts {
    pub checkpoint_ms: f64,
    pub snapshot_ms: f64,
    pub snapshot_bytes: f64,
    pub restore_ms: f64,
}

/// Outcome of one generated operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpOut {
    /// Wall time of the probe op's publishing call, when this was one.
    pub write_ns: Option<u64>,
    pub failed: bool,
}

pub trait Workload {
    fn spec(&self) -> &Spec;

    /// Tears down any previous instance, then wires the topology, seeds
    /// the publisher with the pinned row count and brings every subscriber
    /// to `Live` through `start_and_bootstrap_from`.
    fn setup(&mut self) -> SetupParts;

    fn sys(&self) -> &Sys;

    /// Generates and executes the next operation of the seeded trace,
    /// registering its expectations with the probe as operation `op`.
    fn op(&mut self, op: u64, parent: u32, tr: &mut Tracer) -> OpOut;

    /// Restart drill, first half: take every subscriber down.
    fn stop_subscribers(&mut self) -> DrillParts {
        self.sys().eco.stop_all();
        DrillParts::default()
    }

    /// Restart drill, second half (timed by the caller): bring every
    /// subscriber back so the backlog drains.
    fn restart_subscribers(&mut self, _parts: &mut DrillParts) {
        self.sys().eco.start_all();
    }

    /// Stops the instance's threads and removes its files.
    fn teardown(&mut self);

    /// The model the probe op writes.
    fn probe_model(&self) -> &'static str;

    /// Engine vendors in the topology.
    fn vendors(&self) -> &'static [&'static str];

    /// Vendor of the traced run's tap (the first subscriber's).
    fn tap_vendor(&self) -> &'static str;

    /// The MVC application, when the workload drives one.
    fn app(&self) -> Option<&Arc<synapse_mvc::App>> {
        None
    }
}

/// Every workload the crate can run.
pub fn names() -> [&'static str; 4] {
    [
        stress::CAUSAL.name,
        stress::WEAK_DURABLE.name,
        fanout::SPEC.name,
        crowdtap::SPEC.name,
    ]
}

/// The workloads listed in `BENCHMARK.json`, whose end-to-end metrics are
/// gated. `crowdtap_controllers` is run, verified and traced like the
/// others but not listed: three of its five figures do not repeat within
/// the bound the benchmark contract allows (README, *Noise*).
pub fn gated() -> [&'static Spec; 3] {
    [&stress::CAUSAL, &stress::WEAK_DURABLE, &fanout::SPEC]
}

/// Builds the named workload; `out` is its private scratch directory.
pub fn make(name: &str, seed: u64, out: &Path, telemetry: bool) -> Option<Box<dyn Workload>> {
    match name {
        "stress_causal" => Some(Box::new(stress::Stress::new(
            &stress::CAUSAL,
            seed,
            out,
            telemetry,
        ))),
        "stress_weak_durable" => Some(Box::new(stress::Stress::new(
            &stress::WEAK_DURABLE,
            seed,
            out,
            telemetry,
        ))),
        "fanout_weak_hetero" => Some(Box::new(fanout::Fanout::new(seed, telemetry))),
        "crowdtap_controllers" => Some(Box::new(crowdtap::Crowdtap::new(seed))),
        _ => None,
    }
}

pub fn dep_space() -> DepSpace {
    DepSpace::new(DEP_SPACE)
}

/// Registers the after-commit callbacks that report a replica's applied
/// writes to the probe, reading the row's stamp from its `stamp`
/// attribute (the self-wired workloads publish one on every model).
pub fn attach_stamp_probe(
    node: &SynapseNode,
    replica: usize,
    models: &[(u8, &str)],
    probe: &Arc<Probe>,
) {
    for &(index, model) in models {
        for point in [CallbackPoint::AfterCreate, CallbackPoint::AfterUpdate] {
            let probe = probe.clone();
            node.orm().on(model, point, move |_, record| {
                let stamp = record.get("stamp").as_int().unwrap_or(0) as u64;
                probe.observe(replica, row_key(index, record.id.raw()), stamp);
                Ok(())
            });
        }
        let probe = probe.clone();
        node.orm()
            .on(model, CallbackPoint::AfterDestroy, move |_, record| {
                probe.observe(replica, row_key(index, record.id.raw()), GONE);
                Ok(())
            });
    }
}

/// Accumulates, over a node's bootstrap, the time its chunks spend in the
/// `Reconciling` state.
#[derive(Default)]
pub struct WindowWatch {
    since: Option<std::time::Instant>,
    total: std::time::Duration,
    chunks: u32,
}

pub fn watch_windows(node: &SynapseNode) -> Arc<Mutex<WindowWatch>> {
    let watch = Arc::new(Mutex::new(WindowWatch::default()));
    let shared = watch.clone();
    node.set_bootstrap_probe(move |state| {
        let mut w = shared.lock().expect("window watch");
        if let Some(since) = w.since.take() {
            w.total += since.elapsed();
            w.chunks += 1;
        }
        if matches!(state, BootstrapState::Reconciling { .. }) {
            w.since = Some(std::time::Instant::now());
        }
    });
    watch
}

/// Mean milliseconds per watched chunk over several nodes' bootstraps.
pub fn window_ms(watches: &[Arc<Mutex<WindowWatch>>]) -> f64 {
    let (mut total, mut chunks) = (0.0, 0u32);
    for watch in watches {
        let w = watch.lock().expect("window watch");
        total += w.total.as_secs_f64() * 1e3;
        chunks += w.chunks;
    }
    crate::stats::ratio(total, f64::from(chunks))
}

pub fn ms_since(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

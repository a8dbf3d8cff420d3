//! Helpers shared by the integration tests (`mod common;` in each file
//! that wants them; every test binary uses its own subset).
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_repro::core::{Ecosystem, SynapseConfig, SynapseNode, RETRY_ATTEMPTS};
use synapse_repro::db::LatencyModel;
use synapse_repro::faults::{FaultEvent, FaultKind, Side};
use synapse_repro::model::ModelSchema;
use synapse_repro::orm::adapters::MongoidAdapter;

/// Polls `cond` every 5 ms until it holds or `timeout` passes; returns
/// whether it held.
pub fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A MongoDB-backed node with an open `Post` model.
pub fn mongo_node(eco: &Ecosystem, config: SynapseConfig) -> Arc<SynapseNode> {
    let node = eco.add_node(
        config,
        Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
    );
    node.orm().define_model(ModelSchema::open("Post")).unwrap();
    node
}

/// Trims a plan's subscriber-side write-error bursts, in firing order, so
/// that their total stays below [`RETRY_ATTEMPTS`]. The total bounds what
/// can stack on one delivery, so no live delivery exhausts its budget on
/// injected write errors alone and only poison is ever dead-lettered.
pub fn cap_subscriber_write_errors(events: Vec<FaultEvent>) -> Vec<FaultEvent> {
    let mut left = u64::from(RETRY_ATTEMPTS) - 1;
    events
        .into_iter()
        .filter_map(|mut e| {
            if let FaultKind::DbWriteErrors {
                side: Side::Subscriber,
                n,
            } = &mut e.kind
            {
                *n = (*n).min(left);
                left -= *n;
                if *n == 0 {
                    return None;
                }
            }
            Some(e)
        })
        .collect()
}

/// Fresh unique directory under the system temp dir (not created).
pub fn temp_dir(label: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("synapse-test-{label}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

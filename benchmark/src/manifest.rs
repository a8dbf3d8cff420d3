//! The metric and workload lists — the one place their names, units,
//! directions and bounds are written down. `BENCHMARK.json` at the root of
//! the repository is this module's rendering (`run.sh --manifest` fails if
//! the two differ), and a run that reports a metric not listed here, or
//! misses a listed one, panics instead of printing.

use crate::workloads;

/// Seconds one run measures (its sat slices; a traced run: open slice +
/// sat slice), as the driver passes it in `--seconds`.
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "delivered_per_s",
        unit: "msg/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_msg",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric, grouped by layer in
/// the order of the README's interaction table.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // mvc
    ("mvc.readonly_dispatch_ns", "ns", "lower"),
    ("mvc.msgs_per_call", "count", "lower"),
    ("mvc.deps_per_msg", "count", "lower"),
    // orm
    ("orm.write_bare_ns", "ns", "lower"),
    ("orm.find_ns", "ns", "lower"),
    // core.publisher
    ("core.publisher.overhead_ns", "ns", "lower"),
    ("core.publisher.overhead_share", "ratio", "lower"),
    ("core.publisher.deps_per_msg", "count", "lower"),
    ("telemetry.stage.intercept_mean_us", "us", "lower"),
    ("telemetry.stage.dep_compute_mean_us", "us", "lower"),
    ("telemetry.stage.wire_encode_mean_us", "us", "lower"),
    ("telemetry.stage.broker_enqueue_mean_us", "us", "lower"),
    // core.message
    ("core.message.encode_ns", "ns", "lower"),
    ("core.message.decode_ns", "ns", "lower"),
    ("core.message.bytes", "bytes", "lower"),
    // versionstore
    ("versionstore.bump_ns", "ns", "lower"),
    ("versionstore.prepare_wait_ns", "ns", "lower"),
    ("versionstore.apply_ns", "ns", "lower"),
    ("versionstore.wait_ns_per_msg", "ns", "lower"),
    ("versionstore.entries", "count", "lower"),
    ("versionstore.watermark_window_ms", "ms", "lower"),
    // broker.queue
    ("broker.queue.publish_ns", "ns", "lower"),
    ("broker.queue.pop_ns", "ns", "lower"),
    ("broker.queue.ack_ns", "ns", "lower"),
    ("broker.queue.wakeups_per_msg", "ratio", "lower"),
    ("broker.queue.redelivered_per_msg", "ratio", "lower"),
    ("broker.queue.steals_per_msg", "ratio", "lower"),
    ("broker.queue.depth_p50", "count", "lower"),
    ("broker.queue.depth_max", "count", "lower"),
    ("broker.queue.partition_skew", "ratio", "lower"),
    ("telemetry.stage.queue_residency_mean_us", "us", "lower"),
    ("telemetry.stage.pop_batch_mean_us", "us", "lower"),
    // broker.wal
    ("broker.wal.append_ns", "ns", "lower"),
    ("broker.wal.bytes_per_msg", "bytes", "lower"),
    ("broker.wal.fsyncs_per_kmsg", "ratio", "lower"),
    ("broker.wal.group_size_mean", "count", "higher"),
    ("broker.wal.commit_wait_mean_us", "us", "lower"),
    ("broker.wal.replay_ns_per_entry", "ns", "lower"),
    ("broker.wal.checkpoint_ms", "ms", "lower"),
    // core.subscriber
    ("core.subscriber.process_ns", "ns", "lower"),
    ("core.subscriber.redelivery_ratio", "ratio", "lower"),
    ("core.subscriber.steal_ratio", "ratio", "lower"),
    ("core.subscriber.stale_ratio", "ratio", "lower"),
    ("core.subscriber.unsubscribed_ratio", "ratio", "lower"),
    ("core.subscriber.dep_timeouts", "count", "lower"),
    ("telemetry.stage.dep_wait_mean_us", "us", "lower"),
    ("telemetry.stage.apply_mean_us", "us", "lower"),
    // core.node (bootstrap) and the rest of set-up
    ("core.node.bootstrap_ms", "ms", "lower"),
    ("core.node.bootstrap_us_per_row", "us", "lower"),
    ("core.node.bootstrap_chunks", "count", "lower"),
    ("core.node.copies_merged", "count", "lower"),
    ("core.node.copies_reconciled", "count", "lower"),
    ("orm.seed_ms", "ms", "lower"),
    ("generator.warmup_ms", "ms", "lower"),
    // core.durability
    ("core.durability.snapshot_ms", "ms", "lower"),
    ("core.durability.snapshot_bytes", "bytes", "lower"),
    ("core.durability.restore_ms", "ms", "lower"),
    // db
    ("db.postgresql.write_ns", "ns", "lower"),
    ("db.mysql.write_ns", "ns", "lower"),
    ("db.mongodb.write_ns", "ns", "lower"),
    ("db.mongodb.find_ns", "ns", "lower"),
    ("db.cassandra.write_ns", "ns", "lower"),
    ("db.elasticsearch.write_ns", "ns", "lower"),
    ("db.elasticsearch.find_ns", "ns", "lower"),
    ("db.rows_max", "count", "lower"),
    // telemetry
    ("telemetry.overhead_share", "ratio", "lower"),
    ("telemetry.ring_dropped_share", "ratio", "lower"),
    // load curve
    ("load.half.visibility_p50_us", "us", "lower"),
    ("load.x2.visibility_p50_us", "us", "lower"),
    ("load.x2.backlog_end", "count", "lower"),
    // latencies that do not repeat well enough to gate: the median
    // visibility (two park/wake regimes, README) and the tails
    ("tail.visibility_p50_us", "us", "lower"),
    ("tail.open_write_p50_us", "us", "lower"),
    ("tail.open_write_p99_us", "us", "lower"),
    ("tail.visibility_p90_us", "us", "lower"),
    ("tail.visibility_p99_us", "us", "lower"),
    ("tail.visibility_p999_us", "us", "lower"),
    ("tail.visibility_max_us", "us", "lower"),
    ("tail.apply_gap_max_ms", "ms", "lower"),
    // run hygiene
    ("samples.write", "count", "higher"),
    ("samples.visibility", "count", "higher"),
    ("generator.late_p99_us", "us", "lower"),
    ("generator.late_max_us", "us", "lower"),
    ("generator.sat_drift_ratio", "ratio", "higher"),
    ("generator.open_load_share", "ratio", "lower"),
    ("process.open_cpu_us_per_msg", "us", "lower"),
    ("process.cpu_utilisation", "ratio", "higher"),
    ("process.peak_rss_mb", "MiB", "lower"),
    ("process.yardstick_us", "us", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("budget.visibility_explained", "ratio", "higher"),
    ("budget.cpu_explained", "ratio", "higher"),
];

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Checks the lists against the limits of the benchmark contract.
pub fn validate() -> Result<(), String> {
    let specs = workloads::gated();
    let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.0));
    for name in &names {
        if !name_ok(name) {
            return Err(format!("bad name {name:?}"));
        }
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    if names.len() != total {
        return Err("a name is used twice".into());
    }
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.1))
    {
        if !unit_ok(unit) {
            return Err(format!("bad unit {unit:?}"));
        }
    }
    for better in END_TO_END
        .iter()
        .map(|m| m.better)
        .chain(PER_LAYER.iter().map(|m| m.2))
    {
        if better != "lower" && better != "higher" {
            return Err(format!("bad direction {better:?}"));
        }
    }
    if !(2..=8).contains(&specs.len()) || END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        return Err("too many workloads or metrics".into());
    }
    if specs
        .iter()
        .any(|s| s.why.len() > 200 || s.why.contains('\n'))
    {
        return Err("a why is too long".into());
    }
    if END_TO_END
        .iter()
        .any(|m| !(m.bound > 0.0 && m.bound <= 0.25))
    {
        return Err("a bound is outside (0, 0.25]".into());
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
    if !setup.is_some_and(|m| m.unit == "s" && m.better == "lower") {
        return Err("setup_s must be listed in s, lower is better".into());
    }
    Ok(())
}

fn quoted(text: &str) -> String {
    format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Renders `BENCHMARK.json`.
pub fn render() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let specs = workloads::gated();
    for (i, spec) in specs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            quoted(spec.name),
            quoted(spec.why),
            if i + 1 < specs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            quoted(m.name),
            quoted(m.unit),
            quoted(m.better),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            quoted(m.0),
            quoted(m.1),
            quoted(m.2),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn lists_meet_the_contract() {
        super::validate().unwrap();
    }
}

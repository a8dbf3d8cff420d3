//! The Synapse benchmark. One process runs one workload in four rounds,
//! each a complete life of a freshly wired system:
//!
//! set-up → sat phase (closed loop, at most 256 operations un-visible;
//! throughput and CPU per message) → restart drill (publish a backlog with
//! the subscribers down: publisher write time; restart: recovery time) →
//! correctness verdict. Every gated figure is the median of its samples
//! over the four rounds; the report ends in one JSON line.
//!
//! `--trace 1` runs one round with an open phase (fixed arrival rate;
//! latencies under offered load) before the sat phase, records spans, then
//! measures the layers one by one; it reports the per-layer metrics
//! instead of the end-to-end ones. See `README.md` beside this crate for
//! every definition.

mod check;
mod layers;
mod manifest;
mod phases;
mod probe;
mod stats;
mod trace;
mod workloads;

use phases::{mean_us, pct_us, Phase, Runner, Watchdog, WINDOW_SECS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{ms_since, DrillParts, SetupParts, WINDOW};

/// Rounds of a plain run. A round is one complete life of a system:
/// set-up → sat slice → restart drill → verdict. Spreading the measuring
/// time over four systems built eight seconds apart means a neighbour that
/// takes the machine for a few seconds spoils part of every figure's
/// sample instead of all of one figure's.
const ROUNDS: usize = 4;
/// Where the durable workload's WAL and snapshots and the span files go.
const OUT: &str = "benchmark/out";
/// Spans kept by a traced run.
const SPAN_CAP: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: synapse-benchmark --workload <{}> --seed <n> [--seconds <n>] [--trace <0|1>]\n       synapse-benchmark --manifest",
        workloads::names().join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--manifest" {
            if let Err(e) = manifest::validate() {
                eprintln!("manifest: {e}");
                std::process::exit(1);
            }
            print!("{}", manifest::render());
            std::process::exit(0);
        }
        let Some(value) = argv.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            _ => usage(),
        }
    }
    if !workloads::names().contains(&args.workload.as_str())
        || args.seconds.is_nan()
        || args.seconds < 1.0
    {
        usage();
    }
    args
}

/// Metric values of one run, checked against the manifest when printed.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_n(name, value, 0);
    }

    /// A value with the number of samples behind it.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(value.is_finite(), "{name} is not a number");
        self.values.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map(|v| v.0).unwrap_or(0.0)
    }
}

/// Everything the rounds of a run have measured, pooled.
#[derive(Default)]
pub struct Measured {
    /// Every yardstick reading of the run, us.
    pub flanks: Vec<f64>,
    /// One window per round's set-up.
    pub setups: Phase,
    /// Parts of the last set-up.
    pub parts: SetupParts,
    pub warmup_ms: f64,
    /// Traced runs only.
    pub open: Phase,
    pub sat: Phase,
    /// Publishing the drills' backlogs, subscribers down.
    pub backlog: Phase,
    /// One window per round's recovery.
    pub recoveries: Phase,
    pub drill: DrillParts,
}

impl Measured {
    /// The pinned open rate as a share of the sat phase's operation rate.
    pub fn open_load_share(&self) -> f64 {
        stats::ratio(
            self.open.ops() as f64 / self.open.secs,
            self.sat.ops() as f64 / self.sat.secs,
        )
    }
}

fn set_up(runner: &mut Runner, m: &mut Measured) {
    let before = runner.flank();
    let t0 = Instant::now();
    m.parts = runner.workload.setup();
    let t1 = Instant::now();
    let warmup = runner.workload.spec().warmup_ops;
    runner.closed_count(warmup, Some(WINDOW));
    runner.drain();
    m.warmup_ms = ms_since(t1);
    let secs = t0.elapsed().as_secs_f64();
    m.setups
        .absorb(Phase::of_stretch(secs, [before, runner.flank()]));
}

fn drill(runner: &mut Runner, m: &mut Measured) {
    m.drill = runner.workload.stop_subscribers();
    let before = runner.flank();
    let mut backlog = runner.closed_count(runner.workload.spec().backlog_ops, None);
    let between = runner.flank();
    backlog.set_flanks([before, between]);
    m.backlog.absorb(backlog);
    let t0 = Instant::now();
    runner.workload.restart_subscribers(&mut m.drill);
    runner.drain();
    let secs = t0.elapsed().as_secs_f64();
    m.recoveries
        .absorb(Phase::of_stretch(secs, [between, runner.flank()]));
}

fn header(args: &Args, runner: &Runner) {
    let spec = runner.workload.spec();
    println!(
        "# synapse benchmark: {} (seed {}, {} s, trace {})",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# topology: {}", spec.topology);
    println!(
        "# pins: dep space 1<<{} (crowdtap: app default 1<<20), latency model off, telemetry on, window {WINDOW}, sat {:.1} s, open {:.1} s at {} op/s, sub-windows of {WINDOW_SECS} s, warm-up {} ops, backlog {} ops, seed rows {}, rounds {}, probe op: {}",
        workloads::DEP_SPACE.trailing_zeros(),
        if args.trace { args.seconds / 2.0 } else { args.seconds },
        if args.trace { args.seconds / 2.0 } else { 0.0 },
        spec.open_rate,
        spec.warmup_ops,
        spec.backlog_ops,
        spec.seed_rows,
        if args.trace { 1 } else { ROUNDS },
        spec.probe_op
    );
    println!(
        "# cores: {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0)
    );
}

fn main() {
    let args = parse_args();
    let out = PathBuf::from(OUT).join(format!("{}-{}", args.workload, std::process::id()));
    let workload = workloads::make(&args.workload, args.seed, &out, true).expect("known workload");
    let (dog, dog_handle) = Watchdog::start();
    let mut runner = Runner::new(workload, trace::Tracer::new(SPAN_CAP), dog.clone());
    header(&args, &runner);

    // A plain run spends its seconds in the sat slices of four rounds; a
    // traced run spends half in one open slice and half in one sat slice.
    let (rounds, sat_secs) = if args.trace {
        (1, args.seconds / 2.0)
    } else {
        (ROUNDS, args.seconds / ROUNDS as f64)
    };
    let mut measured = Measured::default();
    let mut metrics = Metrics::default();
    let mut verdict = check::Verdict::default();
    for _ in 0..rounds {
        set_up(&mut runner, &mut measured);

        let mut traced = None;
        if args.trace {
            let before = layers::stage_totals(runner.workload.sys());
            runner.tracer.enabled = true;
            let sampler = layers::DepthSampler::start(runner.workload.sys());
            let rate = runner.workload.spec().open_rate;
            let mut open = runner.open_phase(rate, args.seconds / 2.0);
            let depth = sampler.finish();
            runner.tracer.enabled = false;
            runner.drain();
            runner.harvest(&mut open);
            measured.open.absorb(open);
            let stages = layers::stage_totals(runner.workload.sys()).since(&before);
            traced = Some((depth, stages));
        }

        // A traced sat slice alternates traced and untraced sub-windows,
        // so the cost of tracing is measured inside one run.
        runner.tracer.enabled = args.trace;
        let sat = runner.sat_phase(sat_secs, |i| i % 2 == 0);
        runner.tracer.enabled = false;
        measured.sat.absorb(sat);

        if let Some((depth, stages)) = traced {
            measured.flanks = runner.flanks.clone();
            layers::from_phases(&measured, depth, &mut metrics);
            layers::measure(
                &args.workload,
                args.seed,
                &out,
                &mut runner,
                &measured,
                &stages,
                &mut metrics,
            );
        }

        drill(&mut runner, &mut measured);
        verdict.absorb(check::verify(runner.workload.sys()));
    }
    measured.flanks = runner.flanks.clone();
    runner.failed += verdict.dead_lettered;
    let correct = verdict.correct() && runner.failed == 0;

    if args.trace {
        layers::after_drills(&measured, &mut metrics);
        let path = PathBuf::from(OUT).join(format!("trace-{}.jsonl", args.workload));
        match runner.tracer.write(&runner.workload.sys().probe, &path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                runner.tracer.len(),
                path.display()
            ),
            Err(e) => println!("# could not write {}: {e}", path.display()),
        }
    } else {
        end_to_end(&measured, &mut metrics);
    }

    runner.workload.teardown();
    let _ = std::fs::remove_dir_all(&out);
    dog.stop(dog_handle);

    report(&measured, args.trace, &verdict, &metrics);
    let listed: Vec<(&str, &str)> = if args.trace {
        manifest::PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        manifest::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let body: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let (value, _) = metrics
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    assert_eq!(
        metrics.values.len(),
        listed.len(),
        "a reported metric is not in the manifest"
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        runner.attempted,
        runner.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn end_to_end(m: &Measured, metrics: &mut Metrics) {
    let used = |phase: &Phase| phase.windows.len() as u64;
    metrics.set_n("setup_s", m.setups.secs_p50(), used(&m.setups));
    metrics.set_n("delivered_per_s", m.sat.deliveries_per_s(), used(&m.sat));
    metrics.set_n("write_p50_us", m.backlog.write_p50_us(), used(&m.backlog));
    metrics.set_n("cpu_us_per_msg", m.sat.cpu_us_per_delivery(), used(&m.sat));
    metrics.set_n("recovery_s", m.recoveries.secs_p50(), used(&m.recoveries));
}

fn cpu_us_per_msg(w: &phases::Window) -> f64 {
    stats::ratio(w.cpu_us as f64, w.deliveries as f64)
}

/// One cell per window of `phase`: its figure as the clock measured it
/// and, where flanks were read, the machine speed beside it in percent.
fn per_window(phase: &Phase, f: impl Fn(&phases::Window) -> String) -> String {
    let cells: Vec<String> = phase
        .windows
        .iter()
        .map(|w| match w.flanks {
            [0.0, 0.0] => f(w),
            _ => format!("{}@{:.0}", f(w), 100.0 * w.speed()),
        })
        .collect();
    cells.join(" ")
}

fn report(m: &Measured, traced: bool, verdict: &check::Verdict, metrics: &Metrics) {
    let flanks: Vec<String> = m.flanks.iter().map(|us| format!("{us:.1}")).collect();
    println!(
        "# yardstick, us, read on the idle system around every timed stretch (reference {}): [{}]",
        phases::YARDSTICK_REFERENCE_US,
        flanks.join(" ")
    );
    println!("# per-window lists below: figure as the clock measured it @ machine speed beside it, % of reference; the metrics are medians of the figures at reference speed");
    println!(
        "# set-ups, s: [{}]; last: wire {:.0} ms, seed {:.0} ms, bootstrap {:.0} ms, warm-up {:.0} ms",
        per_window(&m.setups, |w| format!("{:.3}", w.secs)),
        m.parts.wire_ms,
        m.parts.seed_ms,
        m.parts.bootstrap_ms,
        m.warmup_ms
    );
    if traced {
        println!(
            "# open slice: {} ops in {:.2} s, {} deliveries, write mean {:.1} us, visibility mean {:.1} us p99 {:.1} us, late p99 {:.1} us, backlog at end {}, cpu utilisation {:.2}",
            m.open.ops(),
            m.open.secs,
            m.open.deliveries(),
            mean_us(&m.open.writes()),
            mean_us(&m.open.visibility()),
            pct_us(&m.open.visibility(), 0.99),
            pct_us(&m.open.late, 0.99),
            m.open.backlog_end,
            m.open.cpu_utilisation()
        );
        println!(
            "# open sub-windows: write p50 us [{}], visibility p50 us [{}], cpu us/msg [{}]",
            per_window(&m.open, |w| format!("{:.0}", pct_us(&w.writes, 0.5))),
            per_window(&m.open, |w| format!("{:.0}", pct_us(&w.visibility, 0.5))),
            per_window(&m.open, |w| format!("{:.0}", cpu_us_per_msg(w)))
        );
    }
    println!(
        "# sat slices: {} ops in {:.2} s, sub-window msg/s [{}], cpu us/msg [{}], utilisation {:.2}",
        m.sat.ops(),
        m.sat.secs,
        per_window(&m.sat, |w| format!("{:.0}", w.deliveries as f64 / w.secs)),
        per_window(&m.sat, |w| format!("{:.1}", cpu_us_per_msg(w))),
        m.sat.cpu_utilisation()
    );
    println!(
        "# drill backlogs (subscribers down): {} ops in {:.2} s, sub-window write p50 us [{}]",
        m.backlog.ops(),
        m.backlog.secs,
        per_window(&m.backlog, |w| format!("{:.1}", pct_us(&w.writes, 0.5)))
    );
    println!(
        "# recoveries, s: [{}]",
        per_window(&m.recoveries, |w| format!("{:.3}", w.secs))
    );
    println!(
        "# verdict: {} rows compared, {} mismatches, {} order violations, {} dead-lettered, {} undelivered, {} journaled",
        verdict.rows_compared,
        verdict.mismatches,
        verdict.order_violations,
        verdict.dead_lettered,
        verdict.undelivered,
        verdict.journaled
    );
    for note in &verdict.notes {
        println!("#   {note}");
    }
    println!(
        "{:<44} {:>16} {:<6} {:>9} {:>6}",
        "metric", "value", "unit", "samples", "bound"
    );
    for e in manifest::END_TO_END.iter() {
        if let Some((value, n)) = metrics.values.get(e.name) {
            println!(
                "{:<44} {:>16.4} {:<6} {:>9} {:>6}",
                e.name, value, e.unit, n, e.bound
            );
        }
    }
    for (name, unit, _) in manifest::PER_LAYER {
        if let Some((value, n)) = metrics.values.get(name) {
            println!(
                "{:<44} {:>16.4} {:<6} {:>9} {:>6}",
                name, value, unit, n, "-"
            );
        }
    }
}

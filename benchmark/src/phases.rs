//! The one generator thread: closed loops, the open (fixed arrival rate)
//! loop, sub-window sampling, and the watchdog that turns a wedge into a
//! failed run.

use crate::probe::Probe;
use crate::stats::{cpu_time_us, median, now_ns, percentile, ratio, thread_cpu_us, yardstick_ns};
use crate::trace::Tracer;
use crate::workloads::{Workload, WINDOW};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Length of a sat phase's sub-windows. Every figure of a phase is first
/// taken per sub-window and then reduced by a median.
pub const WINDOW_SECS: f64 = 0.5;
/// Sub-windows of a counted phase (warm-up, drill backlog).
const COUNTED_WINDOWS: u64 = 4;
/// Yardstick readings behind one flank (~16 us each).
const FLANK_READINGS: usize = 200;
/// The yardstick's reading, us, in the fast state of the machine this
/// benchmark was defined on. A pinned constant: it only fixes the unit of
/// the gated figures ("microseconds at reference speed") and cancels out
/// of every comparison between two commits.
pub const YARDSTICK_REFERENCE_US: f64 = 16.0;

/// One timed stretch: a sub-window of a phase, a set-up or a recovery.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub first_op: u64,
    pub end_op: u64,
    pub secs: f64,
    pub deliveries: u64,
    pub cpu_us: u64,
    pub traced: bool,
    /// The yardstick, us, read on the idle system just before and just
    /// after the stretch (0 = not read: the traced run's open slice).
    pub flanks: [f64; 2],
    /// Probe-op write times, ns.
    pub writes: Vec<u64>,
    /// Reference-to-visible times of the window's operations that somebody
    /// subscribes to, ns (filled by [`Runner::harvest`]).
    pub visibility: Vec<u64>,
}

impl Window {
    /// Machine speed beside the stretch: the reference reading over the
    /// mean of its flanks (1 = reference speed, 0.7 = everything takes
    /// 1/0.7 times as long); 1 where no flank was read.
    pub fn speed(&self) -> f64 {
        let mean = (self.flanks[0] + self.flanks[1]) / 2.0;
        if mean > 0.0 {
            YARDSTICK_REFERENCE_US / mean
        } else {
            1.0
        }
    }
}

/// What one kind of phase measured, pooled over the rounds.
///
/// Every reduction is the median over the windows of the window's figure
/// *at reference machine speed*: a duration or a cost times the window's
/// [`Window::speed`], a rate divided by it. The report prints the windows'
/// figures as the clock measured them beside their flanks.
#[derive(Default)]
pub struct Phase {
    pub secs: f64,
    pub windows: Vec<Window>,
    /// Open loop: how long after its scheduled instant each operation
    /// started, ns (timer overshoot included).
    pub late: Vec<u64>,
    /// Open loop: how long after its reference instant each operation
    /// started, ns — the part of its visibility the generator owes.
    pub behind: Vec<u64>,
    pub max_gap_ns: u64,
    /// Operations still un-visible when the phase stopped issuing.
    pub backlog_end: usize,
    /// CPU time of the generator thread itself, us.
    pub generator_cpu_us: u64,
}

fn median_us(samples: &[u64]) -> Option<f64> {
    (!samples.is_empty()).then(|| pct_us(samples, 0.5))
}

impl Phase {
    /// A phase of one stretch with nothing but a duration.
    pub fn of_stretch(secs: f64, flanks: [f64; 2]) -> Phase {
        Phase {
            secs,
            windows: vec![Window {
                secs,
                flanks,
                ..Window::default()
            }],
            ..Phase::default()
        }
    }

    fn median_of(&self, figure: impl Fn(&Window) -> Option<f64>) -> f64 {
        let values: Vec<f64> = self.windows.iter().filter_map(figure).collect();
        median(&values)
    }

    /// Median of the windows' durations.
    pub fn secs_p50(&self) -> f64 {
        self.median_of(|w| Some(w.secs * w.speed()))
    }

    /// Median of the sub-windows' delivery rates.
    pub fn deliveries_per_s(&self) -> f64 {
        self.deliveries_per_s_where(|_| true)
    }

    pub fn deliveries_per_s_where(&self, keep: impl Fn(&Window) -> bool) -> f64 {
        self.median_of(|w| keep(w).then(|| ratio(w.deliveries as f64, w.secs * w.speed())))
    }

    /// Median of the sub-windows' process CPU time per delivery.
    pub fn cpu_us_per_delivery(&self) -> f64 {
        self.median_of(|w| {
            (w.deliveries > 0).then(|| w.speed() * w.cpu_us as f64 / w.deliveries as f64)
        })
    }

    /// Median of the sub-windows' median probe-op write times.
    pub fn write_p50_us(&self) -> f64 {
        self.median_of(|w| median_us(&w.writes).map(|us| us * w.speed()))
    }

    /// Median of the sub-windows' median visibility times.
    pub fn visibility_p50_us(&self) -> f64 {
        self.median_of(|w| median_us(&w.visibility).map(|us| us * w.speed()))
    }

    pub fn cpu_utilisation(&self) -> f64 {
        self.median_of(|w| Some(ratio(w.cpu_us as f64, w.secs * 1e6)))
    }

    /// Last sub-window's delivery rate over the first's.
    pub fn drift_ratio(&self) -> f64 {
        match (self.windows.first(), self.windows.last()) {
            (Some(a), Some(b)) => ratio(
                ratio(b.deliveries as f64, b.secs),
                ratio(a.deliveries as f64, a.secs),
            ),
            _ => 0.0,
        }
    }

    pub fn deliveries(&self) -> u64 {
        self.windows.iter().map(|w| w.deliveries).sum()
    }

    pub fn ops(&self) -> u64 {
        self.windows.iter().map(|w| w.end_op - w.first_op).sum()
    }

    /// Gives every window of a slice the readings taken around the slice.
    pub fn set_flanks(&mut self, flanks: [f64; 2]) {
        for window in &mut self.windows {
            window.flanks = flanks;
        }
    }

    /// Pools another slice of the same kind of phase into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.secs += other.secs;
        self.windows.extend(other.windows);
        self.late.extend(other.late);
        self.behind.extend(other.behind);
        self.max_gap_ns = self.max_gap_ns.max(other.max_gap_ns);
        self.backlog_end = self.backlog_end.max(other.backlog_end);
        self.generator_cpu_us += other.generator_cpu_us;
    }

    /// Every probe-op write time of the phase, ns.
    pub fn writes(&self) -> Vec<u64> {
        self.windows
            .iter()
            .flat_map(|w| w.writes.iter().copied())
            .collect()
    }

    /// Every visibility time of the phase, ns.
    pub fn visibility(&self) -> Vec<u64> {
        self.windows
            .iter()
            .flat_map(|w| w.visibility.iter().copied())
            .collect()
    }
}

/// Sorted copy's percentile, in microseconds.
pub fn pct_us(samples: &[u64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, p) as f64 / 1e3
}

pub fn mean_us(samples: &[u64]) -> f64 {
    ratio(samples.iter().sum::<u64>() as f64, samples.len() as f64) / 1e3
}

/// Fails the run when visibility stops making progress: a wedge must end
/// with diagnostics and a non-zero exit, never hang.
pub struct Watchdog {
    watched: Mutex<Option<Watched>>,
    stop: AtomicBool,
}

struct Watched {
    probe: Arc<Probe>,
    diagnose: Box<dyn Fn() -> String + Send>,
}

/// No progress for this long while operations are outstanding fails the
/// run. Progress is an operation issued or an expectation met.
pub const STALL_LIMIT: Duration = Duration::from_secs(5);

impl Watchdog {
    pub fn start() -> (Arc<Watchdog>, std::thread::JoinHandle<()>) {
        let dog = Arc::new(Watchdog {
            watched: Mutex::new(None),
            stop: AtomicBool::new(false),
        });
        let handle = {
            let dog = dog.clone();
            std::thread::spawn(move || dog.watch())
        };
        (dog, handle)
    }

    fn watch(&self) {
        let mut last = (u64::MAX, now_ns());
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::park_timeout(Duration::from_millis(200));
            let watched = self.watched.lock().expect("watchdog");
            let Some(w) = watched.as_ref() else {
                last = (u64::MAX, now_ns());
                continue;
            };
            let progress = w.probe.deliveries() + w.probe.issued();
            if progress != last.0 || w.probe.outstanding() == 0 {
                last = (progress, now_ns());
            } else if now_ns() - last.1 >= STALL_LIMIT.as_nanos() as u64 {
                println!(
                    "WEDGED: no operation issued or made visible for {} s\n{}correct: false",
                    STALL_LIMIT.as_secs(),
                    (w.diagnose)()
                );
                std::process::exit(3);
            }
        }
    }

    /// Watches `probe` until [`Watchdog::disarm`]; `diagnose` renders the
    /// system's state if it stalls.
    pub fn arm(&self, probe: Arc<Probe>, diagnose: Box<dyn Fn() -> String + Send>) {
        *self.watched.lock().expect("watchdog") = Some(Watched { probe, diagnose });
    }

    pub fn disarm(&self) {
        *self.watched.lock().expect("watchdog") = None;
    }

    pub fn stop(&self, handle: std::thread::JoinHandle<()>) {
        self.stop.store(true, Ordering::SeqCst);
        handle.thread().unpark();
        let _ = handle.join();
    }
}

/// Renders what a wedged system looks like from its public counters.
pub fn diagnose(workload: &dyn Workload) -> Box<dyn Fn() -> String + Send> {
    let sys = workload.sys();
    let probe = sys.probe.clone();
    let broker = sys.eco.broker().clone();
    let nodes = sys.replicas.clone();
    Box::new(move || {
        let mut out = format!(
            "  outstanding ops: {}  issued: {}  deliveries: {}\n",
            probe.outstanding(),
            probe.issued(),
            probe.deliveries()
        );
        for node in &nodes {
            out.push_str(&format!(
                "  {}: queue depth {:?}, unacked {:?}, dead letters {:?}\n    {:?}\n",
                node.app(),
                broker.queue_len(node.app()),
                broker.queue_unacked_len(node.app()),
                broker.dead_letter_len(node.app()),
                node.subscriber_stats()
            ));
        }
        out
    })
}

/// Clock, delivery count and process CPU time at a sub-window's start.
struct Mark {
    ns: u64,
    deliveries: u64,
    cpu_us: u64,
}

impl Mark {
    fn take(probe: &Probe) -> Mark {
        Mark {
            ns: now_ns(),
            deliveries: probe.deliveries(),
            cpu_us: cpu_time_us(),
        }
    }

    /// Ends the sub-window that began at this mark and adds it to `phase`.
    fn close(self, probe: &Probe, mut window: Window, phase: &mut Phase) {
        let end = Mark::take(probe);
        window.end_op = probe.issued();
        window.secs = (end.ns - self.ns) as f64 / 1e9;
        window.deliveries = end.deliveries - self.deliveries;
        window.cpu_us = end.cpu_us - self.cpu_us;
        phase.secs += window.secs;
        phase.windows.push(window);
    }
}

/// Drives one workload from the calling thread.
pub struct Runner {
    pub workload: Box<dyn Workload>,
    pub tracer: Tracer,
    pub dog: Arc<Watchdog>,
    pub attempted: u64,
    pub failed: u64,
    /// Every flank read so far, us.
    pub flanks: Vec<f64>,
}

impl Runner {
    pub fn new(workload: Box<dyn Workload>, tracer: Tracer, dog: Arc<Watchdog>) -> Runner {
        Runner {
            workload,
            tracer,
            dog,
            attempted: 0,
            failed: 0,
            flanks: Vec::new(),
        }
    }

    /// Reads the yardstick: the median of a burst of readings, us. Call
    /// with the system idle, so that the reading says how fast the machine
    /// is and not how busy the system keeps it.
    pub fn flank(&mut self) -> f64 {
        let readings: Vec<u64> = (0..FLANK_READINGS).map(|_| yardstick_ns()).collect();
        let us = pct_us(&readings, 0.5);
        self.flanks.push(us);
        us
    }

    fn probe(&self) -> Arc<Probe> {
        self.workload.sys().probe.clone()
    }

    fn arm(&self) {
        self.dog.arm(self.probe(), diagnose(self.workload.as_ref()));
    }

    fn one(&mut self, probe: &Probe, due_ns: u64, window: Option<usize>, writes: &mut Vec<u64>) {
        let op = probe.begin_op(due_ns, window);
        let span = if self.tracer.enabled {
            self.tracer.open("generator.op", now_ns(), op)
        } else {
            0
        };
        let out = self.workload.op(op, span, &mut self.tracer);
        probe.end_op(op);
        if span != 0 {
            self.tracer.close(span, now_ns());
        }
        self.attempted += 1;
        self.failed += u64::from(out.failed);
        if let Some(ns) = out.write_ns {
            writes.push(ns);
        }
    }

    /// Parks until every operation issued so far is visible.
    pub fn drain(&mut self) {
        let probe = self.probe();
        self.arm();
        probe.wait_idle();
        self.dog.disarm();
    }

    fn open_window(&self, probe: &Probe) -> (Window, Mark) {
        let window = Window {
            first_op: probe.issued(),
            traced: self.tracer.enabled,
            ..Window::default()
        };
        (window, Mark::take(probe))
    }

    /// Issues `count` operations closed-loop (at most `WINDOW`
    /// un-visible), or without a window when the subscribers are down, in
    /// [`COUNTED_WINDOWS`] equal sub-windows.
    pub fn closed_count(&mut self, count: u64, window: Option<usize>) -> Phase {
        let probe = self.probe();
        self.arm();
        let mut phase = Phase::default();
        let generator_cpu = thread_cpu_us();
        for i in 0..COUNTED_WINDOWS {
            let (mut sub, mark) = self.open_window(&probe);
            let share = count * (i + 1) / COUNTED_WINDOWS - count * i / COUNTED_WINDOWS;
            for _ in 0..share {
                self.one(&probe, now_ns(), window, &mut sub.writes);
            }
            mark.close(&probe, sub, &mut phase);
        }
        phase.generator_cpu_us = thread_cpu_us() - generator_cpu;
        self.dog.disarm();
        phase
    }

    /// Closed loop for `secs` seconds in sub-windows of [`WINDOW_SECS`],
    /// each drained at its end and flanked by two yardstick readings.
    /// `traced(i)` says whether sub-window `i` records spans.
    pub fn sat_phase(&mut self, secs: f64, traced: impl Fn(usize) -> bool) -> Phase {
        let probe = self.probe();
        let mut phase = Phase::default();
        let was_tracing = self.tracer.enabled;
        let windows = (secs / WINDOW_SECS).round().max(1.0) as usize;
        let span_ns = (secs * 1e9 / windows as f64) as u64;
        let generator_cpu = thread_cpu_us();
        let mut before = self.flank();
        for i in 0..windows {
            self.tracer.enabled = was_tracing && traced(i);
            self.arm();
            let (mut window, mark) = self.open_window(&probe);
            let until = mark.ns + span_ns;
            while now_ns() < until {
                self.one(&probe, now_ns(), Some(WINDOW), &mut window.writes);
            }
            probe.wait_idle();
            self.dog.disarm();
            mark.close(&probe, window, &mut phase);
            let after = self.flank();
            phase.windows.last_mut().expect("just closed").flanks = [before, after];
            before = after;
        }
        self.tracer.enabled = was_tracing;
        phase.generator_cpu_us = thread_cpu_us() - generator_cpu;
        phase
    }

    /// Open loop: operation `i` is scheduled at `t0 + i / rate` whatever
    /// the system does. The generator sleeps until then (it never spins),
    /// and the operation's visibility is timed from its *reference
    /// instant*: the scheduled instant, or — when the generator was asleep
    /// waiting for it — the moment the sleep returned, so that the kernel's
    /// timer slack is not booked as replication latency. When the system
    /// holds the generator past a scheduled instant, the reference stays
    /// the scheduled instant, so the wait a stall imposes on later
    /// operations is counted (no coordinated omission).
    pub fn open_phase(&mut self, rate: f64, secs: f64) -> Phase {
        let probe = self.probe();
        self.arm();
        let mut phase = Phase::default();
        probe.reset_gap();
        let total = (rate * secs) as u64;
        let gap_ns = 1e9 / rate;
        let windows = (secs / WINDOW_SECS).round().max(1.0) as u64;
        let per_window = (total / windows).max(1);
        let generator_cpu = thread_cpu_us();
        let t0 = now_ns();
        let (mut window, mut mark) = self.open_window(&probe);
        for i in 0..total {
            let due = t0 + (i as f64 * gap_ns) as u64;
            let now = now_ns();
            let mut reference = due;
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
                reference = now_ns().max(due);
            }
            let start = now_ns();
            phase.late.push(start.saturating_sub(due));
            phase.behind.push(start.saturating_sub(reference));
            self.one(&probe, reference, None, &mut window.writes);
            if (i + 1) % per_window == 0 && (phase.windows.len() as u64) < windows {
                mark.close(&probe, window, &mut phase);
                (window, mark) = self.open_window(&probe);
            }
        }
        phase.generator_cpu_us = thread_cpu_us() - generator_cpu;
        phase.backlog_end = probe.outstanding();
        phase.max_gap_ns = probe.max_gap_ns();
        self.dog.disarm();
        phase
    }

    /// Fills in the windows' visibility times; call after [`Runner::drain`].
    pub fn harvest(&self, phase: &mut Phase) {
        let probe = self.probe();
        for window in &mut phase.windows {
            window.visibility = (window.first_op..window.end_op)
                .map(|op| probe.times(op))
                .filter(|t| t.fanout > 0)
                .map(|t| t.visible_ns.saturating_sub(t.due_ns))
                .collect();
        }
    }
}

//! The omp4rs benchmark: one workload per run, called through the same
//! public entry points users call, every result checked against `seq`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pi_interp --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Load is a closed loop: one caller thread issues calls back to back,
//! alternating a 1-thread and a 2-thread team (1T, 2T, 1T, 2T, …) so host
//! drift hits both sizes equally. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer metrics and writes the run's spans to
//! `perfbench/out/`. Every metric is printed as `name value unit`, and the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `perfbench/README.md`
//! for why each workload and metric is here.

mod check;
mod host;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use omp4rs::exec::{parallel_region, DepSpec, ParallelConfig};
use omp4rs::ompt;

use check::Expected;
use spans::{SpanId, Spans};
use stats::{median, tail_percentile};
use workload::{Inputs, Prepared, Workload};

/// Fresh set-ups per process; `setup_s` and `first_call_s` are medians
/// over them.
const SETUP_ROUNDS: usize = 7;
/// Processes an untraced run makes its set-up rounds in, spread over the
/// run. Short steps such as set-up run fast or slow per process, so the
/// rounds of one process alone spread ±30% from run to run.
const SETUP_PROCESSES: usize = 5;
/// The flag that makes a run a set-up child.
const SETUP_ONLY: &str = "--setup-only";
/// Unrecorded 1T+2T pairs after the set-up rounds.
const WARMUP_PAIRS: usize = 3;
/// Pairs a run measures at least, so p90 has ten samples beyond it.
const MIN_PAIRS: usize = 100;
/// Pairs each phase of a traced run measures at least.
const MIN_TRACED_PAIRS: usize = 20;
/// No run measures past this point, whatever `--seconds` and
/// [`MIN_PAIRS`] ask: a run must end within three minutes.
const HARD_LIMIT: Duration = Duration::from_secs(140);
/// Repetitions behind each `omp4rs.*_floor_s` probe.
const FLOOR_REGIONS: usize = 200;
const FLOOR_BARRIERS: usize = 1_000;
const FLOOR_TASKS: usize = 1_000;
const FLOOR_REPS: usize = 5;

/// A metric's name, unit and direction, as `BENCHMARK.json` lists it.
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Reported by untraced runs.
const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("first_call_s", "s", "lower"),
    m("solve_1t_s.p90", "s", "lower"),
    m("solve_2t_s.p50", "s", "lower"),
    m("solve_2t_s.p90", "s", "lower"),
    m("cpu_2t_s.p50", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Reported by traced runs. Counts are per call unless named otherwise.
const PER_LAYER: &[Metric] = &[
    // Not gated: 1T latencies are bimodal on a host whose cores change
    // speed for seconds at a time, so the run-to-run spread of their
    // median exceeded the largest bound the benchmark may set (0.25).
    m("solve_1t_s.p50", "s", "lower"),
    m("pyfront.runner_new_s", "s", "lower"),
    m("pyfront.load_s", "s", "lower"),
    m("minipy.vm.compiles", "count", "lower"),
    m("minipy.vm.compile_ns", "ns", "lower"),
    m("minipy.vm.fallbacks", "count", "lower"),
    m("minipy.seq_body_s", "s", "lower"),
    m("minipy.vm.ops", "count", "lower"),
    m("minipy.vm.ops_per_s", "1/s", "higher"),
    m("minipy.vm.quicken.rewrites", "count", "higher"),
    m("minipy.vm.quicken.deopts", "count", "lower"),
    m("minipy.vm.ic.hit_ratio", "ratio", "higher"),
    m("minipy.gil.acquisitions", "count", "lower"),
    m("minipy.gil.switches", "count", "lower"),
    m("minipy.obj_lock.acquisitions", "count", "lower"),
    m("minipy.obj_lock.contended_ratio", "ratio", "lower"),
    m("apps.seq_s", "s", "lower"),
    m("omp4rs.region_floor_s", "s", "lower"),
    m("omp4rs.barrier_floor_s", "s", "lower"),
    m("omp4rs.task_floor_s", "s", "lower"),
    m("omp4rs.regions", "count", "lower"),
    m("omp4rs.barriers", "count", "lower"),
    m("omp4rs.chunks", "count", "lower"),
    m("omp4rs.tasks_created", "count", "lower"),
    m("omp4rs.task_steals", "count", "lower"),
    m("omp4rs.task.dep.edges", "count", "lower"),
    m("omp4rs.task.dep.deferred", "count", "lower"),
    m("omp4rs.lock_contended_ratio", "ratio", "lower"),
    m("omp4rs.adaptive.rechunks", "count", "lower"),
    m("omp4rs.pool.reuse", "count", "higher"),
    m("omp4rs.pool.spawn", "count", "lower"),
    m("omp4rs.pool.park", "count", "lower"),
    m("omp4rs.pool.spin_exit", "count", "lower"),
    m("omp4rs.barrier_wait_share", "ratio", "lower"),
    m("omp4rs.task_drain_share", "ratio", "lower"),
    m("omp4rs.imbalance", "ratio", "lower"),
    m("trace.overhead", "ratio", "lower"),
    m("trace.dropped", "count", "lower"),
    m("layers.coverage", "ratio", "higher"),
    m("layers.coverage.estimated", "ratio", "lower"),
    m("scaling.speedup_2t", "ratio", "higher"),
    m("scaling.overhead_1t", "ratio", "lower"),
    m("check_fail_frac", "ratio", "lower"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run only the set-up rounds and print their samples: the child
    /// process of [`setup_in_processes`].
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(&workload).ok_or(format!(
        "unknown workload {workload:?}; expected one of {:?}",
        Workload::ALL.map(Workload::name)
    ))?;
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let seed = num("--seed", get("--seed")?)?;
    if argv.iter().any(|a| a == SETUP_ONLY) {
        return Ok(Args {
            workload,
            seed,
            seconds: 0,
            trace: false,
            setup_only: true,
        });
    }
    let seconds = num("--seconds", get("--seconds")?)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".to_owned());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only: false,
    })
}

/// Issues checked calls and counts them.
struct Caller {
    expected: Expected,
    spans: Spans,
    attempted: u64,
    failed: u64,
}

/// One successful call: wall and process-CPU seconds.
#[derive(Clone, Copy)]
struct Timing {
    wall: f64,
    cpu: f64,
}

impl Caller {
    /// Time one call, check its result; `None` if it failed either way.
    fn call(&mut self, p: &Prepared, threads: usize, parent: Option<SpanId>) -> Option<Timing> {
        let id = self.attempted;
        let span = self
            .spans
            .open(format!("call[{id}]"), parent, Some(id), Some(threads));
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        let out = p.call(threads);
        let wall = start.elapsed().as_secs_f64();
        let cpu = host::cpu_seconds() - cpu0;
        self.spans.close(span);
        self.attempted += 1;
        let err = match out {
            Ok(o) if check::matches(&self.expected, &o) => return Some(Timing { wall, cpu }),
            Ok(_) => "result differs from seq".to_owned(),
            Err(e) => e,
        };
        self.failed += 1;
        eprintln!("call {id} ({threads}T) failed: {err}");
        None
    }
}

/// 1T and 2T samples from one ABAB phase.
#[derive(Default)]
struct Samples {
    pairs: usize,
    wall1: Vec<f64>,
    wall2: Vec<f64>,
    cpu2: Vec<f64>,
    /// Peak RSS once [`MIN_PAIRS`] pairs were made: a fixed amount of work,
    /// so a faster program does not read as a larger one when memory grows
    /// with every call.
    rss_mb: f64,
}

/// Add 1T/2T pairs to `s` until `until` has passed and `s` holds
/// `min_pairs`, but never past `limit`.
fn measure(
    c: &mut Caller,
    p: &Prepared,
    parent: Option<SpanId>,
    s: &mut Samples,
    until: Instant,
    min_pairs: usize,
    limit: Instant,
) {
    loop {
        let now = Instant::now();
        if now >= limit || (now >= until && s.pairs >= min_pairs) {
            return;
        }
        if let Some(t) = c.call(p, 1, parent) {
            s.wall1.push(t.wall);
        }
        if let Some(t) = c.call(p, 2, parent) {
            s.wall2.push(t.wall);
            s.cpu2.push(t.cpu);
        }
        s.pairs += 1;
        if s.pairs == MIN_PAIRS {
            s.rss_mb = host::peak_rss_mb();
        }
    }
}

/// The set-up rounds' results.
struct Rounds {
    setup: Vec<f64>,
    first_call: Vec<f64>,
    runner_new: Vec<f64>,
    load: Vec<f64>,
    /// minipy counters across all rounds (compiles and rewrites happen here).
    minipy: minipy::stats::InterpStats,
}

/// Set up from scratch [`SETUP_ROUNDS`] times back to back, then make one
/// 2T first call on each fresh set-up (lazy VM compile, quickening
/// rewrites; the first also spawns the pool and seeds adaptive-schedule
/// history). Returns the last set-up for the steady calls.
fn setup_rounds(c: &mut Caller, inputs: &Inputs, root: Option<SpanId>) -> (Prepared, Rounds) {
    let before = minipy::stats::snapshot();
    let mut r = Rounds {
        setup: Vec::new(),
        first_call: Vec::new(),
        runner_new: Vec::new(),
        load: Vec::new(),
        minipy: before,
    };
    let mut fresh = Vec::with_capacity(SETUP_ROUNDS);
    for _ in 0..SETUP_ROUNDS {
        let span = c.spans.open("setup", root, None, None);
        let (prepared, t) = Prepared::setup(inputs);
        for (name, start, end) in &t.phases {
            c.spans.record(name, span, *start, *end);
        }
        c.spans.close(span);
        r.setup.push(t.total);
        r.runner_new.push(t.seconds("pyfront.runner_new"));
        r.load.push(t.seconds("pyfront.load"));
        fresh.push(prepared);
    }
    for prepared in &fresh {
        if let Some(t) = c.call(prepared, 2, root) {
            r.first_call.push(t.wall);
        }
    }
    r.minipy = stats_delta(&minipy::stats::snapshot(), &before);
    (fresh.pop().expect("SETUP_ROUNDS > 0"), r)
}

/// The set-up child: set-up rounds only, samples printed as
/// `setup_s <v>…`, `first_call_s <v>…` and `calls <attempted> <failed>`.
fn setup_child(args: &Args) {
    let inputs = Inputs::generate(args.workload, args.seed);
    let mut c = Caller {
        expected: inputs.expected(),
        spans: Spans::new(false),
        attempted: 0,
        failed: 0,
    };
    let (_, r) = setup_rounds(&mut c, &inputs, None);
    let join = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
    println!("setup_s {}", join(&r.setup));
    println!("first_call_s {}", join(&r.first_call));
    println!("calls {} {}", c.attempted, c.failed);
}

/// Run one set-up child process to its end and add its set-up and
/// first-call samples; its calls count in `c`.
fn setup_process(args: &Args, c: &mut Caller, setup: &mut Vec<f64>, first_call: &mut Vec<f64>) {
    let exe = std::env::current_exe().expect("the running benchmark has a path");
    let out = Command::new(&exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string(), SETUP_ONLY])
        .stderr(Stdio::inherit())
        .output();
    let stdout = match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
        Ok(o) => {
            eprintln!("perfbench: set-up process failed: {}", o.status);
            c.attempted += SETUP_ROUNDS as u64;
            c.failed += SETUP_ROUNDS as u64;
            return;
        }
        Err(e) => panic!("cannot start a set-up process: {e}"),
    };
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        let key = words.next();
        let values: Vec<f64> = words.filter_map(|w| w.parse().ok()).collect();
        match (key, values.as_slice()) {
            (Some("setup_s"), v) => setup.extend_from_slice(v),
            (Some("first_call_s"), v) => first_call.extend_from_slice(v),
            (Some("calls"), [attempted, failed]) => {
                c.attempted += *attempted as u64;
                c.failed += *failed as u64;
            }
            _ => {}
        }
    }
}

fn stats_delta(
    a: &minipy::stats::InterpStats,
    b: &minipy::stats::InterpStats,
) -> minipy::stats::InterpStats {
    minipy::stats::InterpStats {
        gil_acquisitions: a.gil_acquisitions - b.gil_acquisitions,
        gil_hold_ns: a.gil_hold_ns - b.gil_hold_ns,
        obj_lock_acquisitions: a.obj_lock_acquisitions - b.obj_lock_acquisitions,
        obj_lock_contended: a.obj_lock_contended - b.obj_lock_contended,
        vm_compiles: a.vm_compiles - b.vm_compiles,
        vm_compile_ns: a.vm_compile_ns - b.vm_compile_ns,
        vm_fallbacks: a.vm_fallbacks - b.vm_fallbacks,
        vm_frames: a.vm_frames - b.vm_frames,
        vm_ops: a.vm_ops - b.vm_ops,
        quicken_rewrites: a.quicken_rewrites - b.quicken_rewrites,
        quicken_deopts: a.quicken_deopts - b.quicken_deopts,
        ic_hits: a.ic_hits - b.ic_hits,
        ic_misses: a.ic_misses - b.ic_misses,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// p90 with its sample count; falls back to the maximum (and says so)
/// when fewer than ten samples lie beyond p90.
fn p90(name: &str, samples: &[f64], notes: &mut Vec<String>) -> f64 {
    match tail_percentile(samples, 0.9) {
        Some(v) => {
            notes.push(format!("{name}: n = {}", samples.len()));
            v
        }
        None => {
            notes.push(format!(
                "{name}: only {} samples, reporting the maximum",
                samples.len()
            ));
            samples.iter().copied().fold(0.0, f64::max)
        }
    }
}

/// Per-call sums over the traced calls of one team size.
#[derive(Default)]
struct Traced {
    calls: u64,
    walls: Vec<f64>,
    minipy: minipy::stats::InterpStats,
    gil_switches: u64,
    regions: u64,
    barriers: u64,
    chunks: u64,
    tasks_created: u64,
    task_steals: u64,
    lock_acquires: u64,
    lock_contended: u64,
    barrier_ns: u64,
    drain_ns: u64,
    thread_ns: u64,
    /// Measured ompt thread-time (chunks, barriers, sync waits) divided by
    /// the team size, ns.
    attributed_ns: f64,
    imbalance: Vec<f64>,
    counters: BTreeMap<&'static str, u64>,
    dropped: u64,
}

impl Traced {
    fn add_stats(&mut self, d: &minipy::stats::InterpStats) {
        let s = &mut self.minipy;
        s.gil_acquisitions += d.gil_acquisitions;
        s.obj_lock_acquisitions += d.obj_lock_acquisitions;
        s.obj_lock_contended += d.obj_lock_contended;
        s.vm_ops += d.vm_ops;
        s.ic_hits += d.ic_hits;
        s.ic_misses += d.ic_misses;
    }

    fn add_events(&mut self, events: &[ompt::Event]) {
        for r in ompt::aggregate(events) {
            if r.region == 0 {
                continue;
            }
            self.regions += 1;
            self.barriers += r.barriers;
            self.chunks += r.chunks;
            self.tasks_created += r.tasks_created;
            self.task_steals += r.task_steals;
            self.lock_acquires += r.lock_acquires;
            self.lock_contended += r.lock_contended;
            self.barrier_ns += r.barrier_wait_ns;
            self.drain_ns += r.barrier_drain_ns.min(r.barrier_wait_ns);
            self.thread_ns += r.span_ns * r.threads as u64;
            self.attributed_ns += (r.chunk_ns_total + r.barrier_wait_ns + r.sync_wait_ns) as f64
                / r.threads.max(1) as f64;
            if r.chunks > 0 {
                self.imbalance.push(r.imbalance);
            }
        }
    }

    fn per_call(&self, v: u64) -> f64 {
        ratio(v as f64, self.calls as f64)
    }
}

/// Counters the per-call deltas are taken of.
const DELTA_COUNTERS: &[&str] = &[
    "omp4rs.task.dep.edges",
    "omp4rs.task.dep.deferred",
    "omp4rs.adaptive.rechunks",
    "omp4rs.pool.reuse",
    "omp4rs.pool.spawn",
    "omp4rs.pool.park",
    "omp4rs.pool.spin_exit",
];

/// The traced phase: ABAB calls with the ompt profiler and minipy counters
/// on, each call's events and counter deltas folded per team size.
fn traced_phase(
    c: &mut Caller,
    p: &Prepared,
    root: Option<SpanId>,
    until: Instant,
    limit: Instant,
) -> [Traced; 2] {
    let session = ompt::session(ompt::ToolConfig::default());
    minipy::stats::set_enabled(true);
    let gil_switches = || p.runner().map_or(0, |r| r.interp().gil().switch_count());
    // Counters are published as running totals at region exit; remember
    // the last value seen of each so a call's delta survives the per-call
    // reset below. One untimed call publishes the starting values.
    let mut last: BTreeMap<&'static str, u64> = BTreeMap::new();
    c.call(p, 2, root);
    let mut fold_counters = |mut into: Option<&mut Traced>| {
        for (name, v) in ompt::counters() {
            let prev = last.insert(name, v).unwrap_or(v);
            if let Some(t) = into.as_deref_mut() {
                if DELTA_COUNTERS.contains(&name) {
                    *t.counters.entry(name).or_default() += v.saturating_sub(prev);
                }
            }
        }
    };
    fold_counters(None);
    ompt::reset();
    let mut out: [Traced; 2] = Default::default();
    let mut pairs = 0;
    while Instant::now() < limit && (Instant::now() < until || pairs < MIN_TRACED_PAIRS) {
        for (slot, threads) in [(0, 1), (1, 2)] {
            let s0 = minipy::stats::snapshot();
            let g0 = gil_switches();
            let timing = c.call(p, threads, root);
            let t = &mut out[slot];
            t.add_stats(&stats_delta(&minipy::stats::snapshot(), &s0));
            t.gil_switches += gil_switches() - g0;
            t.add_events(&ompt::events());
            t.dropped += ompt::dropped_events();
            fold_counters(Some(t));
            ompt::reset();
            t.calls += 1;
            if let Some(timing) = timing {
                t.walls.push(timing.wall);
            }
        }
        pairs += 1;
    }
    minipy::stats::set_enabled(false);
    drop(session);
    out
}

/// Seconds per empty 2T region, per explicit barrier, and per task in a
/// dependence chain, each timed from here.
fn floors(spans: &mut Spans, root: Option<SpanId>) -> (f64, f64, f64) {
    let cfg = ParallelConfig::new().num_threads(2);
    let time = |f: &dyn Fn()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let span = spans.open("omp4rs.region_floor", root, None, None);
    let region: Vec<f64> = (0..FLOOR_REGIONS)
        .map(|_| time(&|| parallel_region(&cfg, |_| {})))
        .collect();
    let region = median(&region);
    spans.close(span);

    let span = spans.open("omp4rs.barrier_floor", root, None, None);
    let barrier: Vec<f64> = (0..FLOOR_REPS)
        .map(|_| {
            let t = time(&|| {
                parallel_region(&cfg, |ctx| (0..FLOOR_BARRIERS).for_each(|_| ctx.barrier()))
            });
            (t - region).max(0.0) / FLOOR_BARRIERS as f64
        })
        .collect();
    spans.close(span);

    let span = spans.open("omp4rs.task_floor", root, None, None);
    let task: Vec<f64> = (0..FLOOR_REPS)
        .map(|_| {
            let t = time(&|| {
                parallel_region(&cfg, |ctx| {
                    ctx.single_nowait(|| {
                        for _ in 0..FLOOR_TASKS {
                            ctx.task_depend(DepSpec::new().inout(0), |_| {});
                        }
                    });
                })
            });
            (t - region).max(0.0) / FLOOR_TASKS as f64
        })
        .collect();
    spans.close(span);
    (region, median(&barrier), median(&task))
}

fn print_result(caller: &Caller, metrics: &[(&Metric, f64)], notes: &[String]) {
    for (m, v) in metrics {
        println!("{} {} {} ({} is better)", m.name, v, m.unit, m.better);
    }
    for n in notes {
        println!("# {n}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        caller.failed == 0,
        caller.attempted,
        caller.failed,
        body.join(", ")
    );
}

fn lookup(list: &'static [Metric], values: &[(&str, f64)]) -> Vec<(&'static Metric, f64)> {
    list.iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", m.name))
                .1;
            (m, v)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <1-60> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        setup_child(&args);
    } else {
        run(&args);
    }
    ExitCode::SUCCESS
}

fn run(args: &Args) {
    let start = Instant::now();
    let limit = start + HARD_LIMIT;
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let knobs = host::runtime_knobs();
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} commit={} knobs={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        host::git_commit(manifest_dir.parent().unwrap_or(manifest_dir)),
        if knobs.is_empty() {
            "default".to_owned()
        } else {
            format!("NON-DEFAULT {knobs:?}")
        }
    );
    if !knobs.is_empty() {
        eprintln!("perfbench: OMP_*/OMP4RS_* variables are set; results are not comparable");
    }

    let inputs = Inputs::generate(args.workload, args.seed);
    let seq_start = Instant::now();
    let expected = inputs.expected();
    let seq_first = seq_start.elapsed().as_secs_f64();
    let mut c = Caller {
        expected,
        spans: Spans::new(args.trace),
        attempted: 0,
        failed: 0,
    };
    let root = c.spans.open(args.workload.name(), None, None, None);
    let seconds = args.seconds as f64;
    let mut notes = Vec::new();
    let warm_up = |c: &mut Caller, p: &Prepared| {
        for _ in 0..WARMUP_PAIRS {
            c.call(p, 1, root);
            c.call(p, 2, root);
        }
    };

    if !args.trace {
        // This process's own set-up and first call (pool spawn) are not
        // timed: set-up processes measure those, one at the start of each
        // of SETUP_PROCESSES equal stretches of the run, so that a short
        // slow spell of the host cannot move all of their samples at once.
        let (p, _) = Prepared::setup(&inputs);
        c.call(&p, 2, root);
        warm_up(&mut c, &p);
        let (mut setup, mut first_call) = (Vec::new(), Vec::new());
        let mut s = Samples::default();
        let start = Instant::now();
        for i in 1..=SETUP_PROCESSES {
            setup_process(args, &mut c, &mut setup, &mut first_call);
            let share = seconds * i as f64 / SETUP_PROCESSES as f64;
            let min_pairs = if i == SETUP_PROCESSES { MIN_PAIRS } else { 0 };
            let until = start + Duration::from_secs_f64(share);
            measure(&mut c, &p, root, &mut s, until, min_pairs, limit);
        }
        if s.pairs < MIN_PAIRS {
            s.rss_mb = host::peak_rss_mb();
        }
        let values = [
            ("setup_s", median(&setup)),
            ("first_call_s", median(&first_call)),
            (
                "solve_1t_s.p90",
                p90("solve_1t_s.p90", &s.wall1, &mut notes),
            ),
            ("solve_2t_s.p50", median(&s.wall2)),
            (
                "solve_2t_s.p90",
                p90("solve_2t_s.p90", &s.wall2, &mut notes),
            ),
            ("cpu_2t_s.p50", median(&s.cpu2)),
            ("peak_rss_mb", s.rss_mb),
        ];
        notes.push(format!(
            "peak_rss_mb after {MIN_PAIRS} pairs; {} MiB at the end of the run",
            host::peak_rss_mb()
        ));
        notes.push(format!("solve_1t_s.p50 {} s (not gated)", median(&s.wall1)));
        notes.push(format!(
            "check_fail_frac {} ratio",
            ratio(c.failed as f64, c.attempted as f64)
        ));
        notes.push(format!(
            "scaling.speedup_2t {} ratio (not gated)",
            ratio(median(&s.wall1), median(&s.wall2))
        ));
        print_result(&c, &lookup(END_TO_END, &values), &notes);
        return;
    }

    // Traced run: set-up rounds in this process (for their spans and
    // counters), references, an untraced phase, a traced phase, probes.
    let (prepared, rounds) = setup_rounds(&mut c, &inputs, root);
    let p = &prepared;
    warm_up(&mut c, p);
    let seq_s = median(
        &std::iter::once(seq_first)
            .chain((0..2).map(|_| {
                let t = Instant::now();
                black_box(inputs.expected());
                t.elapsed().as_secs_f64()
            }))
            .collect::<Vec<_>>(),
    );
    let seq_body: Vec<f64> = (0..3).filter_map(|_| inputs.plain_body_seconds()).collect();
    let seq_body = median(&seq_body);

    let phase = Duration::from_secs_f64(seconds / 2.0);
    let mut untraced = Samples::default();
    let until = Instant::now() + phase;
    measure(
        &mut c,
        p,
        root,
        &mut untraced,
        until,
        MIN_TRACED_PAIRS,
        limit,
    );
    let [t1, t2] = traced_phase(&mut c, p, root, Instant::now() + phase, limit);
    let (region_floor, barrier_floor, task_floor) = floors(&mut c.spans, root);
    c.spans.close(root);

    let solve_1t = median(&untraced.wall1);
    let solve_2t = median(&untraced.wall2);
    let rounds_n = SETUP_ROUNDS as f64;
    let rm = &rounds.minipy;
    let wall2_ns: f64 = t2.walls.iter().sum::<f64>() * 1e9;
    let estimated_ns = t2.regions as f64 * region_floor * 1e9;
    let counter = |name: &str| t2.per_call(t2.counters.get(name).copied().unwrap_or(0));
    let values = [
        ("solve_1t_s.p50", solve_1t),
        ("pyfront.runner_new_s", median(&rounds.runner_new)),
        ("pyfront.load_s", median(&rounds.load)),
        ("minipy.vm.compiles", rm.vm_compiles as f64 / rounds_n),
        ("minipy.vm.compile_ns", rm.vm_compile_ns as f64 / rounds_n),
        ("minipy.vm.fallbacks", rm.vm_fallbacks as f64 / rounds_n),
        ("minipy.seq_body_s", seq_body),
        ("minipy.vm.ops", t1.per_call(t1.minipy.vm_ops)),
        (
            "minipy.vm.ops_per_s",
            ratio(t1.minipy.vm_ops as f64, t1.walls.iter().sum()),
        ),
        (
            "minipy.vm.quicken.rewrites",
            rm.quicken_rewrites as f64 / rounds_n,
        ),
        (
            "minipy.vm.quicken.deopts",
            rm.quicken_deopts as f64 / rounds_n,
        ),
        (
            "minipy.vm.ic.hit_ratio",
            ratio(
                t1.minipy.ic_hits as f64,
                (t1.minipy.ic_hits + t1.minipy.ic_misses) as f64,
            ),
        ),
        (
            "minipy.gil.acquisitions",
            t2.per_call(t2.minipy.gil_acquisitions),
        ),
        ("minipy.gil.switches", t2.per_call(t2.gil_switches)),
        (
            "minipy.obj_lock.acquisitions",
            t2.per_call(t2.minipy.obj_lock_acquisitions),
        ),
        (
            "minipy.obj_lock.contended_ratio",
            ratio(
                t2.minipy.obj_lock_contended as f64,
                t2.minipy.obj_lock_acquisitions as f64,
            ),
        ),
        ("apps.seq_s", seq_s),
        ("omp4rs.region_floor_s", region_floor),
        ("omp4rs.barrier_floor_s", barrier_floor),
        ("omp4rs.task_floor_s", task_floor),
        ("omp4rs.regions", t2.per_call(t2.regions)),
        ("omp4rs.barriers", t2.per_call(t2.barriers)),
        ("omp4rs.chunks", t2.per_call(t2.chunks)),
        ("omp4rs.tasks_created", t2.per_call(t2.tasks_created)),
        ("omp4rs.task_steals", t2.per_call(t2.task_steals)),
        ("omp4rs.task.dep.edges", counter("omp4rs.task.dep.edges")),
        (
            "omp4rs.task.dep.deferred",
            counter("omp4rs.task.dep.deferred"),
        ),
        (
            "omp4rs.lock_contended_ratio",
            ratio(t2.lock_contended as f64, t2.lock_acquires as f64),
        ),
        (
            "omp4rs.adaptive.rechunks",
            counter("omp4rs.adaptive.rechunks"),
        ),
        ("omp4rs.pool.reuse", counter("omp4rs.pool.reuse")),
        ("omp4rs.pool.spawn", counter("omp4rs.pool.spawn")),
        ("omp4rs.pool.park", counter("omp4rs.pool.park")),
        ("omp4rs.pool.spin_exit", counter("omp4rs.pool.spin_exit")),
        (
            "omp4rs.barrier_wait_share",
            ratio((t2.barrier_ns - t2.drain_ns) as f64, t2.thread_ns as f64),
        ),
        (
            "omp4rs.task_drain_share",
            ratio(t2.drain_ns as f64, t2.thread_ns as f64),
        ),
        ("omp4rs.imbalance", median(&t2.imbalance)),
        ("trace.overhead", ratio(median(&t2.walls), solve_2t)),
        ("trace.dropped", (t1.dropped + t2.dropped) as f64),
        (
            "layers.coverage",
            ratio(t2.attributed_ns + estimated_ns, wall2_ns),
        ),
        ("layers.coverage.estimated", ratio(estimated_ns, wall2_ns)),
        ("scaling.speedup_2t", ratio(solve_1t, solve_2t)),
        (
            "scaling.overhead_1t",
            ratio(
                solve_1t,
                if args.workload.interpreted() {
                    seq_body
                } else {
                    seq_s
                },
            ),
        ),
        (
            "check_fail_frac",
            ratio(c.failed as f64, c.attempted as f64),
        ),
    ];
    notes.push(format!(
        "layers.coverage = measured ompt thread-time per team thread ({:.3}) + \
         regions x omp4rs.region_floor_s estimate ({:.3}), over 2T call wall time",
        ratio(t2.attributed_ns, wall2_ns),
        ratio(estimated_ns, wall2_ns)
    ));
    let out_dir = manifest_dir.join("out");
    let path = out_dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, c.spans.to_json()))
    {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
    print_result(&c, &lookup(PER_LAYER, &values), &notes);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch))
            && name.starts_with(|ch: char| ch.is_ascii_alphanumeric())
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(Workload::ALL.map(Workload::name))
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "{entry}");
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\"", w.name())));
        }
        let entries = json.matches("{\"name\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }
}

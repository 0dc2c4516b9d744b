//! Running one workload: set-up, the audited check pass, then either
//! the timed loop (`--trace 0`) or the traced loop (`--trace 1`).
//!
//! * **Set-up** builds the workload's inputs from the seed and is timed
//!   unit by unit; the timed loop times more set-ups between its blocks,
//!   so the samples span the run. `setup_s` is their median.
//! * **Check pass** runs every unit once at pool width 1 with the
//!   independent audits on, and keeps each unit's output digest as the
//!   reference. Quality metrics come from this pass, so they do not
//!   depend on how many units the timed loop reaches.
//! * **Timed loop** (obs `off`) runs the units round-robin at the
//!   pinned width, in blocks, until the blocks add up to the given
//!   seconds; every unit's digest must equal its reference. Throughputs
//!   are medians over blocks.
//! * **Traced loop** alternates one untraced and one traced pass (obs
//!   `full`) at the pinned width and derives the per-layer rows from
//!   the spans and counters each traced pass leaves.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qnet_obs::{ObsLevel, RunReport};

use crate::spans::SpanTree;
use crate::stats::{self, Tail};
use crate::workload::{
    check_serve, serve_call, serve_digest, setup_serve, setup_solve, solve_trial, unit_seed, Algo,
    ServeInstance, SolveEnd, Workload,
};

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds the timed or traced loop runs for (at least one pass).
    pub seconds: f64,
    /// Traced run instead of the timed one.
    pub trace: bool,
    /// Pool width of the timed and traced passes.
    pub width: usize,
}

/// Everything a run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// How percentile metrics were taken (percentile, sample count).
    pub notes: Vec<String>,
    /// Operations run: requests decided, or (instance, algorithm) solves.
    pub attempted: u64,
    /// Operations that panicked, returned a non-infeasibility error,
    /// failed an audit, or whose output digest differed from the check
    /// pass.
    pub failed: u64,
    /// What failed.
    pub problems: Vec<String>,
    /// Digest of the check pass: every unit's digest, combined.
    pub digest: u64,
    /// Complete passes the loop ran.
    pub passes: u64,
}

enum Inputs {
    Serve(Vec<ServeInstance>),
    Solve(Vec<u64>),
}

/// The check pass's findings.
#[derive(Default)]
struct Check {
    reference: Vec<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Serve: admitted requests. Solve: solved (instance, algorithm) pairs.
    admitted: u64,
    /// Serve: arrived requests. Solve: solves.
    offered: u64,
    /// Summed Eq. 2 rates of the admitted trees / solutions.
    rate_sum: f64,
    rounds: u64,
    round_searches: Vec<f64>,
    busy: u64,
    shed: u64,
    peak_queue: usize,
    alg_rate_sum: [f64; 5],
    infeasible: u64,
}

/// One unit run at the pinned width.
struct UnitRun {
    /// Unit wall time (serve call, or build + five solves).
    wall: Duration,
    /// Time spent deciding (the serve call, or the five solves).
    busy: Duration,
    /// Operations decided.
    decisions: u64,
    /// Latency samples in µs (the serve call, or each solve).
    latencies: Vec<f64>,
    /// Operations whose output differed from the reference.
    failed: u64,
}

/// Set-up of every unit (serve), or of the first block of units (solve:
/// trials keep only their seeds and build their own networks), with
/// each unit's set-up time in seconds.
fn setup(w: Workload, seed: u64) -> (Inputs, Vec<f64>) {
    let spec = w.spec();
    let units = w.units();
    match w {
        Workload::SolvePaper => {
            let seeds: Vec<u64> = (0..units as u64).map(|i| unit_seed(seed, i)).collect();
            let setups = seeds[..w.block()]
                .iter()
                .map(|&s| setup_solve(&spec, s).as_secs_f64())
                .collect();
            (Inputs::Solve(seeds), setups)
        }
        _ => {
            let insts: Vec<ServeInstance> = (0..units as u64)
                .map(|i| setup_serve(&spec, unit_seed(seed, i)))
                .collect();
            let setups = insts.iter().map(|i| i.setup.as_secs_f64()).collect();
            (Inputs::Serve(insts), setups)
        }
    }
}

fn check_pass(w: Workload, inputs: &Inputs, width: usize) -> Check {
    // Solvers size their pools from the default width: pin it to 1 for
    // the reference pass, then back to the run's width.
    qnet_pool::set_default_threads(Some(1));
    let mut c = Check::default();
    match inputs {
        Inputs::Serve(insts) => {
            for inst in insts {
                let n = inst.requests.len() as u64;
                c.attempted += n;
                let (out, _) = serve_call(inst, 1);
                let Some(out) = out else {
                    c.failed += n;
                    c.problems.push("serve call panicked".into());
                    c.reference.push(0);
                    continue;
                };
                let audit = check_serve(inst, &out);
                c.failed += audit.failed;
                c.problems.extend(audit.problems);
                c.reference.push(serve_digest(&out));
                let s = &out.stats;
                c.admitted += s.admitted;
                c.offered += s.arrived;
                c.rate_sum += audit.rate_sum;
                c.rounds += out.rounds.len() as u64;
                c.round_searches
                    .extend(out.rounds.iter().map(|r| r.searches as f64));
                c.busy += s.blocked_busy;
                c.shed += s.shed;
                c.peak_queue = c.peak_queue.max(s.peak_queue);
            }
        }
        Inputs::Solve(seeds) => {
            let spec = w.spec();
            for &s in seeds {
                let trial = solve_trial(&spec, s, true);
                c.attempted += Algo::ALL.len() as u64;
                c.problems.extend(trial.problems);
                for (k, end) in trial.ends.iter().enumerate() {
                    c.offered += 1;
                    match *end {
                        SolveEnd::Solved(rate) => {
                            c.admitted += 1;
                            c.rate_sum += rate;
                            c.alg_rate_sum[k] += rate;
                        }
                        SolveEnd::Infeasible => c.infeasible += 1,
                        SolveEnd::Failed => c.failed += 1,
                    }
                }
                c.reference.push(trial.digest);
            }
        }
    }
    qnet_pool::set_default_threads(Some(width));
    c
}

/// Sets unit `i` up again and returns how long it took; the result is
/// dropped.
fn resetup(w: Workload, inputs: &Inputs, seed: u64, i: usize) -> f64 {
    let s = unit_seed(seed, i as u64);
    match inputs {
        Inputs::Serve(_) => setup_serve(&w.spec(), s).setup.as_secs_f64(),
        Inputs::Solve(_) => setup_solve(&w.spec(), s).as_secs_f64(),
    }
}

fn run_unit(w: Workload, inputs: &Inputs, reference: &[u64], i: usize, width: usize) -> UnitRun {
    match inputs {
        Inputs::Serve(insts) => {
            let inst = &insts[i];
            let n = inst.requests.len() as u64;
            let (out, wall) = serve_call(inst, width);
            let _span = qnet_obs::enter("bench.verify");
            let matches = out.is_some_and(|o| serve_digest(&o) == reference[i]);
            UnitRun {
                wall,
                busy: wall,
                decisions: n,
                latencies: vec![wall.as_secs_f64() * 1e6],
                failed: if matches { 0 } else { n },
            }
        }
        Inputs::Solve(seeds) => {
            let trial = solve_trial(&w.spec(), seeds[i], false);
            UnitRun {
                wall: trial.wall,
                busy: trial.solve.iter().sum(),
                decisions: Algo::ALL.len() as u64,
                latencies: trial.solve.iter().map(|d| d.as_secs_f64() * 1e6).collect(),
                failed: if trial.digest == reference[i] {
                    0
                } else {
                    Algo::ALL.len() as u64
                },
            }
        }
    }
}

/// Folds a unit's failures into the outcome.
fn tally(out: &mut Outcome, u: &UnitRun, w: Workload, i: usize) {
    out.attempted += u.decisions;
    if u.failed > 0 {
        out.failed += u.failed;
        out.problems.push(format!(
            "{} unit {i}: output differs from the check pass",
            w.name()
        ));
    }
}

fn tail_note(out: &mut Outcome, name: &str, samples: &[f64]) -> f64 {
    match stats::tail(samples, 99) {
        Some(Tail {
            percentile,
            value,
            samples,
        }) => {
            out.notes
                .push(format!("{name}: p{percentile} of {samples} samples"));
            value
        }
        None => {
            out.notes.push(format!(
                "{name}: only {} samples, reporting the maximum",
                samples.len()
            ));
            samples.iter().copied().fold(0.0, f64::max)
        }
    }
}

/// Runs the workload as `opts` says.
pub fn run(opts: &Options) -> Outcome {
    qnet_obs::set_level(ObsLevel::Off);
    if opts.trace {
        traced(opts)
    } else {
        timed(opts)
    }
}

fn begin(check: &Check) -> Outcome {
    Outcome {
        attempted: check.attempted,
        failed: check.failed,
        problems: check.problems.clone(),
        digest: crate::digest::combine(&check.reference),
        ..Outcome::default()
    }
}

fn timed(opts: &Options) -> Outcome {
    let w = opts.workload;
    let (inputs, mut setups) = setup(w, opts.seed);
    let check = check_pass(w, &inputs, opts.width);
    let reference = &check.reference;
    let mut out = begin(&check);

    let (units, block) = (w.units(), w.block());
    let (mut tps, mut dps) = (Vec::new(), Vec::new());
    // Latency samples per operation (serve instance, or trial and
    // algorithm); each operation's latency is the median of its
    // repetitions, which keeps the host's scheduling hiccups out of the
    // tail while a slow path tied to an input still shows there.
    let mut per_op: Vec<Vec<f64>> = Vec::new();
    // Only the blocks count towards the seconds; the set-ups timed
    // between them do not shorten the measurement.
    let mut measured = Duration::ZERO;
    let mut k = 0;
    while k < units || measured.as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let (mut wall, mut busy, mut decisions) = (Duration::ZERO, Duration::ZERO, 0);
        for _ in 0..block {
            let i = k % units;
            let u = run_unit(w, &inputs, reference, i, opts.width);
            tally(&mut out, &u, w, i);
            wall += u.wall;
            busy += u.busy;
            decisions += u.decisions;
            let n = u.latencies.len();
            per_op.resize_with(per_op.len().max((i + 1) * n), Vec::new);
            for (j, l) in u.latencies.into_iter().enumerate() {
                per_op[i * n + j].push(l);
            }
            k += 1;
        }
        measured += t.elapsed();
        tps.push(block as f64 / wall.as_secs_f64());
        dps.push(decisions as f64 / busy.as_secs_f64());
        if tps.len() % w.setup_every() == 0 {
            let i = (tps.len() / w.setup_every()) % units;
            setups.push(resetup(w, &inputs, opts.seed, i));
        }
    }
    out.passes = (k / units) as u64;

    let m = &mut out.metrics;
    m.insert("setup_s", stats::median(&setups));
    m.insert(
        "peak_rss_mb",
        qnet_obs::peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6),
    );
    m.insert("decisions_per_s", stats::median(&dps));
    m.insert("trials_per_s", stats::median(&tps));
    let latencies: Vec<f64> = per_op.iter().map(|v| stats::median(v)).collect();
    m.insert("solve_p50_us", stats::median(&latencies));
    m.extend(quality(&check));
    let p99 = tail_note(&mut out, "solve_p99_us", &latencies);
    out.metrics.insert("solve_p99_us", p99);
    out.notes.push(format!(
        "solve_p50_us, solve_p99_us: over {} operation(s), each the median of its {} to {} repetition(s)",
        latencies.len(),
        per_op.iter().map(Vec::len).min().unwrap_or(0),
        per_op.iter().map(Vec::len).max().unwrap_or(0),
    ));
    out.notes.push(format!(
        "decisions_per_s, trials_per_s: medians over {} block(s) of {block} unit(s)",
        tps.len()
    ));
    out.notes.push(format!(
        "setup_s: median of {} unit set-up(s)",
        setups.len()
    ));
    out
}

fn quality(c: &Check) -> [(&'static str, f64); 2] {
    [
        ("admit_ratio", stats::share(c.admitted, c.offered)),
        (
            "rate.session",
            if c.admitted == 0 {
                0.0
            } else {
                c.rate_sum / c.admitted as f64
            },
        ),
    ]
}

/// Per-layer sums over the traced passes.
#[derive(Default)]
struct Layers {
    passes: u64,
    counters: BTreeMap<&'static str, u64>,
    dijkstra_self_us: u64,
    repair_self_us: u64,
    engine_self_ms: f64,
    coverage: f64,
    solver_us: [Vec<f64>; 5],
    topology_us: Vec<u64>,
}

/// Counters the traced run reads.
const COUNTERS: [&str; 13] = [
    "graph.dijkstra.calls",
    "graph.dijkstra.settled",
    "graph.dijkstra.relaxations",
    "graph.delta.repaired",
    "graph.delta.recomputed",
    "graph.delta.resettled",
    "core.channel.cache_hits",
    "core.channel.cache_misses",
    "core.channel.cache_repairs",
    "core.channel.finder_runs",
    "pool.batches",
    "pool.tasks",
    "obs.spans.dropped",
];

/// The benchmark's spans around calls into the program: what
/// `trace.coverage` counts as accounted for. `bench.verify` (digests)
/// and the self time of `bench.trial` belong to no layer.
fn is_layer_span(name: &str) -> bool {
    matches!(
        name,
        "bench.serve"
            | "bench.topology"
            | "bench.network"
            | "bench.stream"
            | "bench.finder.construct"
    ) || Algo::ALL.iter().any(|a| a.span() == name)
}

/// Spans whose time `serve.engine_self_ms` excludes.
fn is_search_span(name: &str) -> bool {
    matches!(
        name,
        "core.channel.finder_run" | "graph.dijkstra.run" | "graph.delta.repair"
    )
}

impl Layers {
    fn absorb(&mut self, report: &RunReport) {
        self.passes += 1;
        for name in COUNTERS {
            *self.counters.entry(name).or_default() += report.counter_total(name);
        }
        let tree = SpanTree::new(&report.spans);
        self.dijkstra_self_us += tree.self_us_named("graph.dijkstra.run");
        self.repair_self_us += tree.self_us_named("graph.delta.repair");
        for i in tree.named("bench.serve") {
            let covered = tree.covered_us(i, is_search_span);
            self.engine_self_ms += stats::engine_self_ms(tree.duration_us(i), covered);
        }
        if let Some(root) = tree.named("bench.pass").next() {
            self.coverage += tree.coverage(root, is_layer_span);
        }
        for (k, algo) in Algo::ALL.into_iter().enumerate() {
            self.solver_us[k].extend(tree.durations_named(algo.span()).iter().map(|&d| d as f64));
        }
        self.topology_us
            .extend(tree.durations_named("bench.topology"));
    }

    /// Counter total per pass.
    fn per_pass(&self, name: &str) -> f64 {
        self.counters[name] as f64 / self.passes as f64
    }
}

fn mean_ms(durations_us: &[u64]) -> f64 {
    if durations_us.is_empty() {
        0.0
    } else {
        durations_us.iter().sum::<u64>() as f64 / durations_us.len() as f64 / 1e3
    }
}

fn traced(opts: &Options) -> Outcome {
    let w = opts.workload;
    let units = w.units();

    qnet_obs::global().reset();
    qnet_obs::reset_spans();
    qnet_obs::set_level(ObsLevel::Full);
    let (inputs, _) = setup(w, opts.seed);
    qnet_obs::set_level(ObsLevel::Off);
    let setup_report = RunReport::capture("setup");
    let setup_tree = SpanTree::new(&setup_report.spans);

    let check = check_pass(w, &inputs, opts.width);
    let reference = &check.reference;
    let mut layers = Layers::default();
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut out = begin(&check);
    let start = Instant::now();
    while layers.passes == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        for i in 0..units {
            let u = run_unit(w, &inputs, reference, i, opts.width);
            tally(&mut out, &u, w, i);
        }
        untraced += t.elapsed();

        qnet_obs::global().reset();
        qnet_obs::reset_spans();
        qnet_obs::set_level(ObsLevel::Full);
        let t = Instant::now();
        {
            let _root = qnet_obs::enter("bench.pass");
            for i in 0..units {
                let u = run_unit(w, &inputs, reference, i, opts.width);
                tally(&mut out, &u, w, i);
            }
        }
        traced += t.elapsed();
        qnet_obs::set_level(ObsLevel::Off);
        layers.absorb(&RunReport::capture("pass"));
    }
    out.passes = layers.passes;
    let dropped = layers.per_pass("obs.spans.dropped");
    if dropped > 0.0 {
        out.notes.push(format!(
            "span store full: {dropped} span(s) dropped per pass"
        ));
    }

    let mut setup_topology = setup_tree.durations_named("bench.topology");
    setup_topology.extend(&layers.topology_us);
    let total = |name: &str| layers.counters[name];
    let hits = total("core.channel.cache_hits");
    let lookups = hits + total("core.channel.cache_misses") + total("core.channel.cache_repairs");
    let solver: Vec<f64> = layers
        .solver_us
        .iter()
        .map(|v| if v.is_empty() { 0.0 } else { stats::median(v) })
        .collect();
    let passes = layers.passes as f64;

    let mut m: Vec<(&'static str, f64)> = vec![
        ("topology.build_ms", mean_ms(&setup_topology)),
        (
            "graph.dijkstra.calls",
            layers.per_pass("graph.dijkstra.calls"),
        ),
        (
            "graph.dijkstra.self_ms",
            layers.dijkstra_self_us as f64 / passes / 1e3,
        ),
        (
            "graph.dijkstra.settled",
            layers.per_pass("graph.dijkstra.settled"),
        ),
        (
            "graph.dijkstra.relaxations",
            layers.per_pass("graph.dijkstra.relaxations"),
        ),
        (
            "graph.delta.repairs",
            layers.per_pass("graph.delta.repaired"),
        ),
        (
            "graph.delta.repair_self_ms",
            layers.repair_self_us as f64 / passes / 1e3,
        ),
        (
            "graph.delta.resettled",
            layers.per_pass("graph.delta.resettled"),
        ),
        (
            "graph.delta.recompute_share",
            stats::recompute_share(
                total("graph.delta.repaired"),
                total("graph.delta.recomputed"),
            ),
        ),
        (
            "finder.construct_ms",
            mean_ms(&setup_tree.durations_named("bench.finder.construct")),
        ),
        ("finder.lookups", lookups as f64 / passes),
        ("finder.hit_rate", stats::share(hits, lookups)),
        (
            "finder.searches_per_decision",
            stats::searches_per_decision(
                total("core.channel.finder_runs"),
                check.attempted * layers.passes,
            ),
        ),
        (
            "solver.infeasible_share",
            stats::share(check.infeasible, check.offered),
        ),
        (
            "stream.generate_ms",
            mean_ms(&setup_tree.durations_named("bench.stream")),
        ),
        ("serve.engine_self_ms", layers.engine_self_ms / passes),
        ("serve.rounds", check.rounds as f64),
        (
            "serve.round_searches_p50",
            if check.round_searches.is_empty() {
                0.0
            } else {
                stats::median(&check.round_searches)
            },
        ),
        ("serve.busy_share", stats::share(check.busy, check.offered)),
        ("serve.shed_share", stats::share(check.shed, check.offered)),
        ("serve.peak_queue", check.peak_queue as f64),
        ("pool.width", opts.width as f64),
        ("pool.batches", layers.per_pass("pool.batches")),
        (
            "pool.tasks_per_batch",
            stats::share(total("pool.tasks"), total("pool.batches")),
        ),
        ("trace.coverage", layers.coverage / passes),
        (
            "trace.overhead_ratio",
            traced.as_secs_f64() / untraced.as_secs_f64(),
        ),
    ];
    for (k, algo) in Algo::ALL.into_iter().enumerate() {
        // Serve passes run no solver, so their sums are 0.
        m.push((algo.rate_metric(), check.alg_rate_sum[k] / units as f64));
        m.push((algo.time_metric(), solver[k]));
    }
    let p99 = if check.round_searches.is_empty() {
        0.0
    } else {
        tail_note(&mut out, "serve.round_searches_p99", &check.round_searches)
    };
    m.push(("serve.round_searches_p99", p99));
    out.metrics.extend(m);
    out
}

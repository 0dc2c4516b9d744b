//! The three workloads, and the calls into the program they make.
//!
//! Every call into the program goes through a function here, wrapped
//! in a `bench.*` span (inert unless the level is `full`), so the
//! timed and the traced runs execute the very same code.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use muerp_core::algorithms::ChannelFinderCache;
use muerp_core::error::RoutingError;
use muerp_core::extensions::{Request, RequestStream};
use muerp_core::prelude::*;
use muerp_serve::{audit_group_tree, serve_requests_with_pool, ServeConfig, ServeOutcome, Verdict};
use qnet_pool::Pool;
use serde_json::Value;

use crate::digest::Digest;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper-default networks under the default request stream.
    ServePaper,
    /// 1000 switches + 100 users under the same stream.
    ServeWide,
    /// Paper-default instances solved by all five suite algorithms.
    SolvePaper,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 3] = [
        Workload::ServePaper,
        Workload::ServeWide,
        Workload::SolvePaper,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePaper => "serve-paper",
            Workload::ServeWide => "serve-wide",
            Workload::SolvePaper => "solve-paper",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the admission-service workloads.
    pub fn is_serve(self) -> bool {
        !matches!(self, Workload::SolvePaper)
    }

    /// The network every instance or trial is built from.
    pub fn spec(self) -> NetworkSpec {
        match self {
            Workload::ServeWide => {
                let mut spec = NetworkSpec::paper_default().with_users(100);
                spec.topology.nodes = 1000 + 100;
                spec
            }
            _ => NetworkSpec::paper_default(),
        }
    }

    /// Units in one pass: seeded serve instances (network + stream),
    /// or seeded solve trials. A pass is the workload's whole input.
    pub fn units(self) -> usize {
        match self {
            Workload::ServePaper => 256,
            Workload::ServeWide => 6,
            Workload::SolvePaper => 2048,
        }
    }

    /// Units per throughput block; the reported throughput is the
    /// median over the run's complete blocks.
    pub fn block(self) -> usize {
        match self {
            Workload::ServePaper => 64,
            Workload::ServeWide => 6,
            Workload::SolvePaper => 128,
        }
    }

    /// Throughput blocks between two set-ups the timed loop times: one
    /// serve-wide set-up (~3 s) costs about four of its blocks.
    pub fn setup_every(self) -> usize {
        match self {
            Workload::ServeWide => 4,
            _ => 1,
        }
    }

    /// Workload parameters for the result's config block.
    pub fn params(self) -> Value {
        let spec = self.spec();
        let mut m = std::collections::BTreeMap::new();
        m.insert(
            "switches".into(),
            Value::from(spec.topology.nodes - spec.users),
        );
        m.insert("users".into(), Value::from(spec.users));
        m.insert(
            "qubits_per_switch".into(),
            Value::from(spec.qubits_per_switch),
        );
        m.insert("avg_degree".into(), Value::from(spec.topology.avg_degree));
        m.insert(
            "topology".into(),
            Value::from(format!("{:?}", spec.topology.kind)),
        );
        m.insert("units_per_pass".into(), Value::from(self.units()));
        m.insert("units_per_block".into(), Value::from(self.block()));
        m.insert("blocks_per_setup".into(), Value::from(self.setup_every()));
        if self.is_serve() {
            let cfg = ServeConfig::default();
            m.insert("stream_slots".into(), Value::from(cfg.stream.slots));
            m.insert("base_arrival".into(), Value::from(cfg.stream.base_arrival));
            m.insert("round_slots".into(), Value::from(cfg.round_slots));
            m.insert("queue_capacity".into(), Value::from(cfg.queue_capacity));
            m.insert("policy".into(), Value::from(format!("{:?}", cfg.policy)));
        } else {
            let names: Vec<Value> = Algo::ALL.iter().map(|a| Value::from(a.name())).collect();
            m.insert("algorithms".into(), Value::Array(names));
        }
        Value::Object(m)
    }
}

/// Seed of unit `index` of a run seeded `seed` (splitmix64), so units
/// are independent and a run is a pure function of its seed.
pub fn unit_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `NetworkSpec::build`, as its two halves so the topology generator
/// (`bench.topology`) and the network assembly (`bench.network`) get
/// separate spans.
pub fn build_network(spec: &NetworkSpec, seed: u64) -> QuantumNetwork {
    let spatial = {
        let _span = qnet_obs::enter("bench.topology");
        spec.topology.generate(seed)
    };
    let _span = qnet_obs::enter("bench.network");
    spec.build_from_spatial(&spatial, seed)
}

/// `ChannelFinderCache::new` on `net`, dropped at once: the cache
/// construction every serve call pays, timed on its own.
pub fn construct_finder(net: &QuantumNetwork) {
    let _span = qnet_obs::enter("bench.finder.construct");
    std::hint::black_box(ChannelFinderCache::new(net));
}

/// One serve instance: a network and its request script.
pub struct ServeInstance {
    /// The network.
    pub net: QuantumNetwork,
    /// The request script drawn from `RequestStream`.
    pub requests: Vec<Request>,
    /// Wall time of the set-up.
    pub setup: Duration,
}

/// Builds serve instance `seed`: network, stream, finder construction.
pub fn setup_serve(spec: &NetworkSpec, seed: u64) -> ServeInstance {
    let start = Instant::now();
    let net = build_network(spec, seed);
    let requests: Vec<Request> = {
        let _span = qnet_obs::enter("bench.stream");
        RequestStream::new(&net, ServeConfig::default().stream, seed).collect()
    };
    construct_finder(&net);
    ServeInstance {
        net,
        requests,
        setup: start.elapsed(),
    }
}

/// Times the set-up of solve unit `seed` as [`setup_serve`] times a
/// serve unit's, without the stream: build, finder construction. The
/// trial rebuilds its network, so nothing is kept.
pub fn setup_solve(spec: &NetworkSpec, seed: u64) -> Duration {
    let start = Instant::now();
    let net = build_network(spec, seed);
    construct_finder(&net);
    start.elapsed()
}

/// One `serve_requests_with_pool` call at pool width `width` and its
/// wall time; `None` when it panicked.
pub fn serve_call(inst: &ServeInstance, width: usize) -> (Option<ServeOutcome>, Duration) {
    let _span = qnet_obs::enter("bench.serve");
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        serve_requests_with_pool(
            &inst.net,
            &ServeConfig::default(),
            &inst.requests,
            Pool::with_threads(width),
        )
    }));
    (out.ok(), start.elapsed())
}

/// Digest of a serve outcome: every decision (request, round, verdict,
/// tree) and the run totals.
pub fn serve_digest(out: &ServeOutcome) -> u64 {
    let mut d = Digest::default();
    for dec in &out.decisions {
        d.u64(dec.request);
        d.u64(dec.round);
        d.bytes(dec.verdict.name().as_bytes());
        if let Verdict::Admitted { tree } = &dec.verdict {
            d.tree(tree);
        }
    }
    let s = &out.stats;
    for v in [
        s.arrived,
        s.admitted,
        s.blocked_busy,
        s.blocked_capacity,
        s.shed,
    ] {
        d.u64(v);
    }
    d.f64(s.mean_session_rate);
    d.value()
}

/// What the independent checks of one serve outcome found.
#[derive(Clone, Debug, Default)]
pub struct ServeCheck {
    /// Requests whose decision failed a check.
    pub failed: u64,
    /// Descriptions of what failed.
    pub problems: Vec<String>,
    /// Sum of admitted trees' Eq. 2 rates, in decision order.
    pub rate_sum: f64,
}

/// Checks a serve outcome against its script, outside any timed
/// region: accounting closes, every request is decided exactly once,
/// every admitted tree passes `audit_group_tree`, and the reported
/// mean session rate matches the trees.
pub fn check_serve(inst: &ServeInstance, out: &ServeOutcome) -> ServeCheck {
    let mut check = ServeCheck::default();
    let s = &out.stats;
    let arrived = inst.requests.len() as u64;
    if s.arrived != arrived || s.arrived != s.admitted + s.blocked() + s.shed {
        check.problems.push(format!(
            "accounting: {arrived} requests, arrived {} = admitted {} + blocked {} + shed {}",
            s.arrived,
            s.admitted,
            s.blocked(),
            s.shed
        ));
        check.failed = arrived;
        return check;
    }
    let mut seen = vec![false; inst.requests.len()];
    let mut admitted = 0u64;
    for dec in &out.decisions {
        let Some(req) = inst.requests.get(dec.request as usize) else {
            check.failed += 1;
            check
                .problems
                .push(format!("unknown request {}", dec.request));
            continue;
        };
        if std::mem::replace(&mut seen[dec.request as usize], true) {
            check.failed += 1;
            check
                .problems
                .push(format!("request {} decided twice", dec.request));
            continue;
        }
        if let Verdict::Admitted { tree } = &dec.verdict {
            admitted += 1;
            check.rate_sum += tree.rate().value();
            if let Err(e) = audit_group_tree(&inst.net, &req.members, tree) {
                check.failed += 1;
                check.problems.push(format!("request {}: {e}", dec.request));
            }
        }
    }
    let undecided = seen.iter().filter(|&&s| !s).count() as u64;
    if undecided > 0 {
        check.failed += undecided;
        check
            .problems
            .push(format!("{undecided} request(s) never decided"));
    }
    let mean = if admitted == 0 {
        0.0
    } else {
        check.rate_sum / admitted as f64
    };
    if admitted != s.admitted || (mean - s.mean_session_rate).abs() > 1e-12 * mean.max(1e-300) {
        check.problems.push(format!(
            "session rate: {admitted} trees with mean {mean}, reported {} with {}",
            s.admitted, s.mean_session_rate
        ));
        check.failed += s.admitted.max(1);
    }
    check
}

/// Per algorithm, in [`Algo`] order: metric suffix, rate row, time
/// row, span.
const ALGO_NAMES: [(&str, &str, &str, &str); 5] = [
    ("alg2", "rate.alg2", "solver.alg2_us", "bench.alg2"),
    ("alg3", "rate.alg3", "solver.alg3_us", "bench.alg3"),
    ("alg4", "rate.alg4", "solver.alg4_us", "bench.alg4"),
    (
        "n_fusion",
        "rate.n_fusion",
        "solver.n_fusion_us",
        "bench.n_fusion",
    ),
    (
        "e_q_cast",
        "rate.e_q_cast",
        "solver.e_q_cast_us",
        "bench.e_q_cast",
    ),
];

/// The five suite algorithms, in the paper's legend order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Algorithm 2 on the `2·|U|`-granted copy.
    Alg2,
    /// Algorithm 3 (conflict-free).
    Alg3,
    /// Algorithm 4 (Prim-based, trial-seeded).
    Alg4,
    /// N-FUSION baseline.
    NFusion,
    /// E-Q-CAST baseline.
    EQCast,
}

impl Algo {
    /// Legend order.
    pub const ALL: [Algo; 5] = [
        Algo::Alg2,
        Algo::Alg3,
        Algo::Alg4,
        Algo::NFusion,
        Algo::EQCast,
    ];

    /// Metric suffix (`rate.<name>`, `solver.<name>_us`).
    pub fn name(self) -> &'static str {
        ALGO_NAMES[self as usize].0
    }

    /// Its mean-rate row, `rate.<name>`.
    pub fn rate_metric(self) -> &'static str {
        ALGO_NAMES[self as usize].1
    }

    /// Its median-solve-time row, `solver.<name>_us`.
    pub fn time_metric(self) -> &'static str {
        ALGO_NAMES[self as usize].2
    }

    /// The benchmark's span around this algorithm's call.
    pub fn span(self) -> &'static str {
        ALGO_NAMES[self as usize].3
    }

    /// Runs the algorithm the way the experiment suite's `rate_on`
    /// does: Alg-2 on a copy granted `2·|U|` qubits per switch, Alg-4
    /// seeded with the trial seed. Returns the granted copy (Alg-2
    /// only; the network the solution must be checked against) and the
    /// outcome; `Err(None)` when the solver panicked.
    pub fn solve(
        self,
        net: &QuantumNetwork,
        seed: u64,
    ) -> (
        Option<QuantumNetwork>,
        Result<Solution, Option<RoutingError>>,
    ) {
        let _span = qnet_obs::enter(self.span());
        let mut granted = None;
        let out = catch_unwind(AssertUnwindSafe(|| match self {
            Algo::Alg2 => {
                let g = net.with_uniform_switch_qubits(2 * net.user_count() as u32);
                let out = OptimalSufficient.solve(&g);
                granted = Some(g);
                out
            }
            Algo::Alg3 => ConflictFree::default().solve(net),
            Algo::Alg4 => PrimBased::with_seed(seed).solve(net),
            Algo::NFusion => NFusion::default().solve(net),
            Algo::EQCast => EQCast.solve(net),
        }));
        let out = match out {
            Ok(Ok(sol)) => Ok(sol),
            Ok(Err(e)) => Err(Some(e)),
            Err(_) => Err(None),
        };
        (granted, out)
    }
}

/// How one solve ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SolveEnd {
    /// A checked solution with this Eq. 2 rate.
    Solved(f64),
    /// No structure exists under the network's constraints (§V-A: rate 0).
    Infeasible,
    /// Panicked, returned a non-infeasibility error, or failed a check.
    Failed,
}

/// One solve trial's results.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Wall time of build + five solves.
    pub wall: Duration,
    /// Wall time of each solve, legend order.
    pub solve: [Duration; 5],
    /// How each solve ended, legend order.
    pub ends: [SolveEnd; 5],
    /// Digest of the outcomes.
    pub digest: u64,
    /// Check failures (empty unless audited and something failed).
    pub problems: Vec<String>,
}

/// One solve trial: builds instance `seed` and runs all five
/// algorithms on it (see [`solve_on`]).
pub fn solve_trial(spec: &NetworkSpec, seed: u64, audit: bool) -> Trial {
    let _span = qnet_obs::enter("bench.trial");
    let start = Instant::now();
    let net = build_network(spec, seed);
    solve_on(&net, seed, audit, start)
}

/// Runs all five algorithms on `net`; the trial's wall time runs from
/// `start` to the last solve. With `audit`, every solution also passes
/// `validate_solution` and `audit_solution` against the network it was
/// solved on (after the timed part).
pub fn solve_on(net: &QuantumNetwork, seed: u64, audit: bool, start: Instant) -> Trial {
    let mut outs = Vec::with_capacity(Algo::ALL.len());
    let mut solve = [Duration::ZERO; 5];
    for (k, algo) in Algo::ALL.into_iter().enumerate() {
        let t = Instant::now();
        outs.push(algo.solve(net, seed));
        solve[k] = t.elapsed();
    }
    let wall = start.elapsed();

    let mut d = Digest::default();
    let mut ends = [SolveEnd::Failed; 5];
    let mut problems = Vec::new();
    for (k, (algo, (granted, out))) in Algo::ALL.into_iter().zip(&outs).enumerate() {
        let target = granted.as_ref().unwrap_or(net);
        ends[k] = match out {
            Ok(sol) => {
                let verdict = if audit {
                    validate_solution(target, sol)
                        .map_err(|e| e.to_string())
                        .and_then(|()| {
                            audit_solution(target, sol)
                                .map(drop)
                                .map_err(|e| e.to_string())
                        })
                } else {
                    Ok(())
                };
                match verdict {
                    Ok(()) => SolveEnd::Solved(sol.rate.value()),
                    Err(e) => {
                        problems.push(format!("trial {seed} {}: {e}", algo.name()));
                        SolveEnd::Failed
                    }
                }
            }
            Err(Some(RoutingError::NoFeasibleChannel { .. } | RoutingError::NoFusionCenter)) => {
                SolveEnd::Infeasible
            }
            Err(Some(e)) => {
                problems.push(format!("trial {seed} {}: {e}", algo.name()));
                SolveEnd::Failed
            }
            Err(None) => {
                problems.push(format!("trial {seed} {}: panicked", algo.name()));
                SolveEnd::Failed
            }
        };
        match (&ends[k], out) {
            (SolveEnd::Solved(rate), Ok(sol)) => {
                d.u64(0);
                d.f64(*rate);
                for c in &sol.channels {
                    d.channel(c);
                }
            }
            (SolveEnd::Infeasible, _) => d.u64(1),
            _ => d.u64(2),
        }
    }
    Trial {
        wall,
        solve,
        ends,
        digest: d.value(),
        problems,
    }
}

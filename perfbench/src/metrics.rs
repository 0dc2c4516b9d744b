//! The metric tables: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the
//! same names (`tests/arithmetic.rs` holds the two in step).

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`: which direction is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Reported by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("decisions_per_s", "1/s", "higher"),
    m("trials_per_s", "1/s", "higher"),
    m("solve_p50_us", "us", "lower"),
    m("solve_p99_us", "us", "lower"),
    m("admit_ratio", "ratio", "higher"),
    m("rate.session", "prob", "higher"),
];

/// Reported by every traced run (`--trace 1`), on every workload; a
/// row whose layer the workload never enters reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("topology.build_ms", "ms", "lower"),
    m("graph.dijkstra.calls", "count", "lower"),
    m("graph.dijkstra.self_ms", "ms", "lower"),
    m("graph.dijkstra.settled", "count", "lower"),
    m("graph.dijkstra.relaxations", "count", "lower"),
    m("graph.delta.repairs", "count", "higher"),
    m("graph.delta.repair_self_ms", "ms", "lower"),
    m("graph.delta.resettled", "count", "lower"),
    m("graph.delta.recompute_share", "ratio", "lower"),
    m("finder.construct_ms", "ms", "lower"),
    m("finder.lookups", "count", "lower"),
    m("finder.hit_rate", "ratio", "higher"),
    m("finder.searches_per_decision", "ratio", "lower"),
    m("solver.alg2_us", "us", "lower"),
    m("solver.alg3_us", "us", "lower"),
    m("solver.alg4_us", "us", "lower"),
    m("solver.n_fusion_us", "us", "lower"),
    m("solver.e_q_cast_us", "us", "lower"),
    m("solver.infeasible_share", "ratio", "lower"),
    m("rate.alg2", "prob", "higher"),
    m("rate.alg3", "prob", "higher"),
    m("rate.alg4", "prob", "higher"),
    m("rate.n_fusion", "prob", "higher"),
    m("rate.e_q_cast", "prob", "higher"),
    m("stream.generate_ms", "ms", "lower"),
    m("serve.engine_self_ms", "ms", "lower"),
    m("serve.rounds", "count", "lower"),
    m("serve.round_searches_p50", "count", "lower"),
    m("serve.round_searches_p99", "count", "lower"),
    m("serve.busy_share", "ratio", "lower"),
    m("serve.shed_share", "ratio", "lower"),
    m("serve.peak_queue", "count", "lower"),
    m("pool.width", "threads", "higher"),
    m("pool.batches", "count", "lower"),
    m("pool.tasks_per_batch", "count", "higher"),
    m("trace.coverage", "ratio", "higher"),
    m("trace.overhead_ratio", "ratio", "lower"),
];

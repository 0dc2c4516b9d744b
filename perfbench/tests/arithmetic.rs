//! The benchmark's own arithmetic: the percentile rule, the derived
//! per-layer ratios, span self times, digest stability on a small
//! workload, and the metric tables against `BENCHMARK.json`.

use muerp_core::model::NetworkSpec;
use muerp_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use muerp_perfbench::spans::{union_len, SpanTree};
use muerp_perfbench::stats::{
    beyond, engine_self_ms, median, percentile, recompute_share, searches_per_decision, share,
    tail, tail_percentile,
};
use muerp_perfbench::workload::{
    check_serve, serve_call, serve_digest, setup_serve, solve_trial, unit_seed, Workload,
};
use qnet_obs::SpanSnapshot;

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // p99 needs 1000 samples: 1000 − ⌈990⌉ = 10 beyond.
    assert_eq!(beyond(1000, 99), 10);
    assert_eq!(tail_percentile(1000, 99), Some(99));
    // One short and p99 has only 9 beyond; p98 has 19.
    assert_eq!(beyond(999, 99), 9);
    assert_eq!(tail_percentile(999, 99), Some(98));
    // 68 samples: p85 leaves 10 beyond, p86 only 9.
    assert_eq!(tail_percentile(68, 99), Some(85));
    // The median is the floor: 20 samples qualify, 19 do not.
    assert_eq!(tail_percentile(20, 99), Some(50));
    assert_eq!(tail_percentile(19, 99), None);
    // Never above the cap, however many samples.
    assert_eq!(tail_percentile(1_000_000, 95), Some(95));
}

#[test]
fn tail_reports_value_percentile_and_sample_count() {
    let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let t = tail(&samples, 99).expect("1000 samples qualify");
    assert_eq!((t.percentile, t.value, t.samples), (99, 990.0, 1000));
    // Exactly ten samples (991..=1000) lie beyond the reported value.
    assert_eq!(samples.iter().filter(|&&v| v > t.value).count(), 10);
    assert!(tail(&samples[..19], 99).is_none());
}

#[test]
fn nearest_rank_percentile_and_median() {
    let sorted = [1.0, 2.0, 3.0, 4.0];
    assert_eq!(percentile(&sorted, 50.0), 2.0);
    assert_eq!(percentile(&sorted, 75.0), 3.0);
    assert_eq!(percentile(&sorted, 100.0), 4.0);
    assert_eq!(percentile(&sorted, 1.0), 1.0);
    assert!(percentile(&[], 50.0).is_nan());
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn derived_ratios() {
    assert_eq!(recompute_share(3, 1), 0.25);
    assert_eq!(recompute_share(0, 4), 1.0);
    assert_eq!(
        recompute_share(0, 0),
        0.0,
        "no dirty entry: nothing recomputed"
    );
    assert_eq!(searches_per_decision(10, 4), 2.5);
    assert_eq!(searches_per_decision(7, 0), 0.0);
    assert_eq!(share(1, 3), 1.0 / 3.0);
    assert_eq!(engine_self_ms(5_000, 1_200), 3.8);
    assert_eq!(
        engine_self_ms(100, 250),
        0.0,
        "clock rounding saturates at 0"
    );
}

fn span(name: &str, parent: Option<usize>, thread: u64, start: u64, dur: u64) -> SpanSnapshot {
    SpanSnapshot {
        name: name.into(),
        parent,
        thread,
        start_us: start,
        duration_us: dur,
    }
}

#[test]
fn interval_union_clips_and_merges() {
    assert_eq!(union_len(vec![], 0, 10), 0);
    assert_eq!(union_len(vec![(2, 5), (4, 8)], 0, 10), 6);
    assert_eq!(union_len(vec![(0, 3), (5, 7)], 0, 10), 5);
    assert_eq!(
        union_len(vec![(8, 20), (1, 2)], 0, 10),
        3,
        "clipped to [0, 10)"
    );
    assert_eq!(
        union_len(vec![(1, 9), (2, 3)], 0, 10),
        8,
        "nested counted once"
    );
}

#[test]
fn self_time_counts_overlapping_children_once() {
    // A 100 µs serve call with two pool workers searching side by side
    // (10..50 and 30..70), one search nested in a finder run, and a
    // repair on the caller's thread.
    let spans = vec![
        span("bench.pass", None, 1, 0, 120),
        span("bench.serve", Some(0), 1, 10, 100),
        span("graph.dijkstra.run", Some(1), 2, 20, 40),
        span("graph.dijkstra.run", Some(1), 3, 40, 40),
        span("core.channel.finder_run", Some(1), 1, 90, 10),
        span("graph.dijkstra.run", Some(4), 1, 92, 6),
        span("graph.delta.repair", Some(1), 1, 102, 4),
    ];
    let tree = SpanTree::new(&spans);
    // Children cover 20..80, 90..100, 102..106: 74 µs of the 100.
    assert_eq!(tree.self_us(1), 26);
    assert_eq!(tree.self_us(4), 4);
    assert_eq!(tree.self_us_named("graph.dijkstra.run"), 86);
    let search = |n: &str| {
        matches!(
            n,
            "core.channel.finder_run" | "graph.dijkstra.run" | "graph.delta.repair"
        )
    };
    assert_eq!(tree.covered_us(1, search), 74);
    assert_eq!(
        engine_self_ms(tree.duration_us(1), tree.covered_us(1, search)),
        0.026
    );
    // The pass root spends 20 of its 120 µs outside the serve call.
    assert_eq!(tree.self_us(0), 20);
    let layer = |n: &str| n == "bench.serve";
    assert!((tree.coverage(0, layer) - 100.0 / 120.0).abs() < 1e-12);
    assert_eq!(tree.durations_named("graph.dijkstra.run"), vec![40, 40, 6]);
}

#[test]
fn coverage_counts_only_layer_spans() {
    // A trial wrapper (not a layer) holding a build and a solve, then a
    // digest check outside any layer: 60 of the root's 100 µs belong to
    // a layer, although the root's own self time is 0.
    let spans = vec![
        span("bench.pass", None, 1, 0, 100),
        span("bench.trial", Some(0), 1, 0, 80),
        span("bench.topology", Some(1), 1, 0, 30),
        span("bench.alg2", Some(1), 1, 40, 30),
        span("bench.verify", Some(0), 1, 80, 20),
    ];
    let tree = SpanTree::new(&spans);
    assert_eq!(tree.self_us(0), 0);
    let layer = |n: &str| matches!(n, "bench.topology" | "bench.alg2");
    assert!((tree.coverage(0, layer) - 0.6).abs() < 1e-12);
}

#[test]
fn serve_digest_is_stable_across_runs_and_pool_widths() {
    let spec = NetworkSpec::paper_default();
    let seed = unit_seed(42, 0);
    let a = setup_serve(&spec, seed);
    let b = setup_serve(&spec, seed);
    assert_eq!(a.requests, b.requests, "inputs are a function of the seed");
    let (one, _) = serve_call(&a, 1);
    let (two, _) = serve_call(&b, 2);
    let (again, _) = serve_call(&a, 2);
    let (one, two, again) = (one.unwrap(), two.unwrap(), again.unwrap());
    let check = check_serve(&a, &one);
    assert!(check.problems.is_empty(), "{:?}", check.problems);
    assert_eq!(check.failed, 0);
    assert!(one.stats.admitted > 0, "the workload admits something");
    assert_eq!(serve_digest(&one), serve_digest(&two));
    assert_eq!(serve_digest(&one), serve_digest(&again));
    // A different seed is a different script, so a different digest.
    let other = setup_serve(&spec, unit_seed(42, 1));
    let (other, _) = serve_call(&other, 1);
    assert_ne!(serve_digest(&one), serve_digest(&other.unwrap()));
}

#[test]
fn solve_digest_is_stable_and_audits_clean() {
    let spec = NetworkSpec::paper_default();
    for i in 0..4 {
        let seed = unit_seed(7, i);
        let audited = solve_trial(&spec, seed, true);
        let timed = solve_trial(&spec, seed, false);
        assert!(audited.problems.is_empty(), "{:?}", audited.problems);
        assert_eq!(audited.digest, timed.digest);
        assert_eq!(audited.ends, timed.ends);
    }
}

#[test]
fn unit_seeds_are_distinct_and_workloads_parse() {
    let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| unit_seed(5, i)).collect();
    assert_eq!(seeds.len(), 1000);
    assert_ne!(unit_seed(5, 0), unit_seed(6, 0));
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("waxman-2400"), None);
}

fn listed(doc: &serde_json::Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(listed(&doc, "end_to_end"), table(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workload list")
        .iter()
        .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

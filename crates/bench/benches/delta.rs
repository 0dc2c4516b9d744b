//! Delta-engine cost model: incremental repair vs wholesale recompute.
//!
//! PR 9's delta engine claims that reacting to a capacity delta is far
//! cheaper than recomputing: a worsening delta is patched in place by
//! `dijkstra_repair_into` (only the affected region resettles), and a
//! threshold-preserving delta costs one relay-vector diff plus O(1)
//! entry revalidation. This bench puts numbers behind both claims on
//! the same scaled topologies as `search_core`:
//!
//! * **finder_delta_repair** — every user source's stored run reloaded
//!   and repaired in place after a relay kill (the delta engine's
//!   worsening path, measured pure: `load_run` restores the pre-delta
//!   state each op so every repair is a true repair).
//! * **finder_delta_wholesale** — the same post-delta searches run from
//!   scratch (what an epoch-keyed cache would do for every source).
//! * **finder_delta_clean** — the dirty-set cache absorbing an epoch
//!   ping-pong with no relay flip: one relay-vector diff, then O(1)
//!   revalidation of every entry — zero searches.
//! * **finder_delta_roundtrip** — the cache serving a kill-then-restore
//!   cycle end to end: in-place repairs on the down edge, classified
//!   full recomputes on the up edge (improving deltas are never
//!   repaired in place; exact cost ties could flip predecessors).
//!
//! Run with `cargo bench -p muerp-bench --bench delta`. Writes the
//! tracked baseline `BENCH_pr9.json` at the repo root (ns/op; each op
//! covers *all* user sources). `MUERP_BENCH_QUICK=1` shrinks the
//! measurement windows for CI smoke runs — the file is still produced
//! and shape-validated, but the ≤ 0.5× repair gate only arms on full
//! runs.

use muerp_bench::{measure_ns_median, quick_mode, scaled_network, write_bench_report};
use muerp_core::algorithms::ChannelFinderCache;
use muerp_core::prelude::*;
use qnet_graph::paths::{dijkstra_into, DijkstraConfig, DijkstraRun, DijkstraWorkspace};
use qnet_graph::{dijkstra_repair_into, EdgeRef, NodeId, RepairScratch, SsspDelta};
use qnet_pool::Pool;
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;

/// The MUERP edge cost and relay filter at the graph layer (mirrors
/// `ChannelFinder::from_source`, like `search_core`'s rows do), so the
/// repair and wholesale rows measure the same search the finder runs.
fn muerp_config<'a>(
    net: &'a QuantumNetwork,
    capacity: &'a CapacityMap,
) -> DijkstraConfig<impl Fn(EdgeRef<'_, f64>) -> f64 + 'a, impl Fn(NodeId) -> bool + 'a> {
    let alpha = net.physics().attenuation;
    let neg_ln_q = -(net.physics().swap_success.ln());
    DijkstraConfig {
        edge_cost: move |e: EdgeRef<'_, f64>| alpha * *e.payload + neg_ln_q,
        can_relay: move |v: NodeId| net.kind(v).is_switch() && capacity.can_relay(v),
    }
}

/// A switch the first user's shortest-path tree relays through — the
/// victim whose kill makes the repair rows do real work.
fn relay_victim(net: &QuantumNetwork, run: &DijkstraRun, source: NodeId, target: NodeId) -> NodeId {
    let mut cur = target;
    while let Some((p, _)) = run.prev_hop(cur) {
        if p != source && net.kind(p).is_switch() {
            return p;
        }
        cur = p;
    }
    panic!("users must be connected through at least one relay switch");
}

fn bench_topology(label: &str, switches: usize, seed: u64) -> Value {
    let net = scaled_network(switches, seed);
    let capacity = CapacityMap::new(&net);
    let users = net.users().to_vec();
    let mut ws = DijkstraWorkspace::with_capacity(net.graph().node_count());

    // Pre-delta baselines for every user source, full capacity.
    let cfg = muerp_config(&net, &capacity);
    let baselines: Vec<DijkstraRun> = users
        .iter()
        .map(|&u| dijkstra_into(&mut ws, net.graph(), u, &cfg).to_run())
        .collect();
    let victim = relay_victim(&net, &baselines[0], users[0], users[1]);

    // The worsening delta and its post-delta configuration.
    let mut degraded = capacity.clone();
    degraded.withdraw(victim, u32::MAX);
    let cfg_post = muerp_config(&net, &degraded);
    let mut delta = SsspDelta::new();
    delta.block_node(victim);
    let mut scratch = RepairScratch::new();

    // Sanity outside timing: the kill must actually dirty some tree.
    let repaired = baselines
        .iter()
        .filter(|run| {
            ws.load_run(run);
            let (_, stats) =
                dijkstra_repair_into(&mut ws, &mut scratch, net.graph(), &cfg_post, &delta);
            !stats.is_clean()
        })
        .count();
    assert!(repaired > 0, "{label}: victim {victim} misses every tree");

    // --- Graph layer: pure repair vs from-scratch, all sources per op.
    let finder_delta_repair = measure_ns_median(|| {
        for run in &baselines {
            ws.load_run(run);
            let out = dijkstra_repair_into(&mut ws, &mut scratch, net.graph(), &cfg_post, &delta);
            black_box(out.0.distance(users[0]));
        }
    });
    let finder_delta_wholesale = measure_ns_median(|| {
        for &u in &users {
            let view = dijkstra_into(&mut ws, net.graph(), u, &cfg_post);
            black_box(view.distance(users[0]));
        }
    });
    // Repairing after a localized kill resettles only the affected
    // region; it must beat recomputing every tree by at least 2×. Quick
    // mode's tiny windows are too noisy to gate on.
    if !quick_mode() {
        assert!(
            finder_delta_repair <= finder_delta_wholesale * 0.5,
            "{label}: finder_delta_repair_ns ({finder_delta_repair:.1}) exceeds half of \
             finder_delta_wholesale_ns ({finder_delta_wholesale:.1}) — incremental repair \
             lost its reason to exist"
        );
    }

    // --- Cache layer: the dirty-set protocol end to end. Width 1 keeps
    // the numbers about classification, not thread hand-off.
    let mut cache = ChannelFinderCache::with_pool(&net, Pool::with_threads(1));
    let mut cap = capacity.clone();
    cache.warm(&cap, &users);
    let roomy = net
        .switches()
        .find(|&s| net.kind(s).qubits() >= 3)
        .expect("scaled networks have switches with spare qubits");
    let finder_delta_clean = measure_ns_median(|| {
        cap.withdraw(roomy, 1);
        cap.grant(roomy, 1);
        cache.warm(&cap, &users);
        black_box(cache.efficiency().hits);
    });
    let finder_delta_roundtrip = measure_ns_median(|| {
        cap.withdraw(victim, u32::MAX);
        cache.warm(&cap, &users);
        cap.grant(victim, u32::MAX);
        cache.warm(&cap, &users);
        black_box(cache.efficiency().repairs);
    });

    let rows = [
        ("finder_delta_repair_ns", finder_delta_repair),
        ("finder_delta_wholesale_ns", finder_delta_wholesale),
        ("finder_delta_clean_ns", finder_delta_clean),
        ("finder_delta_roundtrip_ns", finder_delta_roundtrip),
    ];
    println!("delta/{label} ({switches} switches, victim {victim}):");
    for (name, ns) in rows {
        println!("  {name:<26} {ns:>14.1} ns/op");
    }

    let mut obj: BTreeMap<String, Value> = BTreeMap::new();
    obj.insert("switches".into(), Value::from(switches as u64));
    obj.insert("users".into(), Value::from(users.len() as u64));
    obj.insert("repaired_sources".into(), Value::from(repaired as u64));
    for (name, ns) in rows {
        obj.insert(name.into(), Value::from(ns));
    }
    obj.insert(
        "repair_vs_wholesale_ratio".into(),
        Value::from(finder_delta_repair / finder_delta_wholesale),
    );
    obj.insert(
        "speedup_repair_vs_wholesale".into(),
        Value::from(finder_delta_wholesale / finder_delta_repair),
    );
    Value::Object(obj)
}

fn main() {
    // Deterministic numbers need a stable instrumentation level.
    qnet_obs::set_level(qnet_obs::ObsLevel::Off);

    let mut topologies: BTreeMap<String, Value> = BTreeMap::new();
    topologies.insert(
        "paper_default".into(),
        bench_topology("paper_default", 50, 42),
    );
    topologies.insert("waxman_240".into(), bench_topology("waxman_240", 240, 42));

    let mut host: BTreeMap<String, Value> = BTreeMap::new();
    host.insert(
        "available_parallelism".into(),
        Value::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
    );

    let mut report: BTreeMap<String, Value> = BTreeMap::new();
    report.insert("bench".into(), Value::from("delta"));
    report.insert("pr".into(), Value::from(9u64));
    report.insert("quick".into(), Value::from(quick_mode()));
    report.insert("unit".into(), Value::from("ns per all-user-sources op"));
    report.insert("host".into(), Value::Object(host));
    report.insert("topologies".into(), Value::Object(topologies));

    let path = write_bench_report("BENCH_pr9.json", &Value::Object(report));
    println!("wrote {}", path.display());
}

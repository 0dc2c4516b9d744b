//! Substrate micro-benches: the primitives every routing run leans on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qnet_graph::{
    dijkstra_into, k_shortest_paths_in, DijkstraConfig, DijkstraWorkspace, EdgeRef, Graph, NodeId,
    UnionFind,
};
use qnet_sim::engine::{SimPhysics, Simulator};
use qnet_sim::plan::{ChannelSpec, RoutingPlan};
use qnet_topology::{TopologyKind, TopologySpec};

fn bench_topology_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology");
    for kind in TopologyKind::ALL {
        for &nodes in &[60usize, 240] {
            let spec = TopologySpec {
                kind,
                nodes,
                avg_degree: 6.0,
                area: 10_000.0,
            };
            group.bench_with_input(BenchmarkId::new(kind.name(), nodes), &spec, |b, spec| {
                b.iter(|| std::hint::black_box(spec.generate(5)))
            });
        }
    }
    group.finish();
}

fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("dijkstra");
    for &nodes in &[60usize, 240, 960] {
        let spec = TopologySpec {
            kind: TopologyKind::Waxman,
            nodes,
            avg_degree: 6.0,
            area: 10_000.0,
        };
        let g = spec.generate(11);
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &g, |b, g| {
            b.iter(|| {
                let mut ws = DijkstraWorkspace::new();
                let cfg = DijkstraConfig::all_nodes(|e: EdgeRef<'_, f64>| *e.payload);
                std::hint::black_box(dijkstra_into(&mut ws, g, NodeId::new(0), &cfg).to_run())
            })
        });
    }
    group.finish();
}

fn bench_union_find(c: &mut Criterion) {
    c.bench_function("union_find/10k_unions", |b| {
        b.iter(|| {
            let mut uf = UnionFind::new(10_000);
            for i in 0..9_999usize {
                uf.union(i, i + 1);
            }
            std::hint::black_box(uf.set_count())
        })
    });
}

fn bench_bridges(c: &mut Criterion) {
    let spec = TopologySpec {
        kind: TopologyKind::Waxman,
        nodes: 240,
        avg_degree: 6.0,
        area: 10_000.0,
    };
    let g = spec.generate(13);
    c.bench_function("bridges/240_nodes", |b| {
        b.iter(|| std::hint::black_box(qnet_graph::connectivity::bridges(&g)))
    });
}

fn bench_monte_carlo(c: &mut Criterion) {
    // Throughput of the slot engine on a 9-channel tree (the paper's
    // default |U| = 10).
    let channels: Vec<ChannelSpec> = (0..9)
        .map(|i| {
            ChannelSpec::new(
                vec![100 + i, 10 + i, 200 + i],
                vec![900.0, 1100.0],
                &[false, true, false],
            )
        })
        .collect();
    let plan = RoutingPlan::tree(channels);
    let physics = SimPhysics {
        swap_success: 0.9,
        attenuation: 1e-4,
        fusion_success: None,
    };
    c.bench_function("monte_carlo/1k_slots_9_channels", |b| {
        let mut sim = Simulator::new(plan.clone(), physics, 17);
        b.iter(|| std::hint::black_box(sim.run_slots(1_000)))
    });
}

fn bench_ksp(c: &mut Criterion) {
    let spec = TopologySpec {
        kind: TopologyKind::Waxman,
        nodes: 60,
        avg_degree: 6.0,
        area: 10_000.0,
    };
    let g = spec.generate(15);
    let mut group = c.benchmark_group("ksp");
    for &k in &[1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                std::hint::black_box(k_shortest_paths_in(
                    &mut DijkstraWorkspace::new(),
                    &g,
                    NodeId::new(0),
                    NodeId::new(59),
                    k,
                    &DijkstraConfig::all_nodes(|e: EdgeRef<'_, f64>| *e.payload),
                ))
            })
        });
    }
    group.finish();
}

fn bench_betweenness(c: &mut Criterion) {
    use qnet_graph::centrality::betweenness;
    let mut group = c.benchmark_group("betweenness");
    for &nodes in &[60usize, 120] {
        let spec = TopologySpec {
            kind: TopologyKind::Waxman,
            nodes,
            avg_degree: 6.0,
            area: 10_000.0,
        };
        let g = spec.generate(16);
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &g, |b, g| {
            b.iter(|| std::hint::black_box(betweenness(g, |e: EdgeRef<'_, f64>| *e.payload)))
        });
    }
    group.finish();
}

fn bench_graph_construction(c: &mut Criterion) {
    c.bench_function("graph/build_60n_180e", |b| {
        b.iter(|| {
            let mut g: Graph<(), f64> = Graph::with_capacity(60, 180);
            for _ in 0..60 {
                g.add_node(());
            }
            for i in 0..180usize {
                g.add_edge(NodeId::new(i % 60), NodeId::new((i * 7 + 1) % 60), i as f64);
            }
            std::hint::black_box(g.edge_count())
        })
    });
}

criterion_group!(
    benches,
    bench_topology_generation,
    bench_dijkstra,
    bench_union_find,
    bench_bridges,
    bench_monte_carlo,
    bench_ksp,
    bench_betweenness,
    bench_graph_construction
);
criterion_main!(benches);

//! Golden digests of large generated topologies.
//!
//! The fixtures under `tests/fixtures/` stop at 18 nodes. These pins cover
//! the sizes the benchmarks and profiles actually build (Waxman at 1100 and
//! 2410 nodes, Volchenkov at 300) so any change to node placement, the
//! weighted pair sampler or connectivity repair that moves a single edge or
//! a single length bit fails here. The digests were recorded with the
//! original O(m·P) linear-scan sampler.

use muerp::topology::{SpatialGraph, TopologyKind, TopologySpec};

/// FNV-1a style fold over node count, edge count and every edge's
/// endpoints and length bits, in edge-id order.
fn digest(g: &SpatialGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    fold(g.node_count() as u64);
    fold(g.edge_count() as u64);
    for e in g.edge_refs() {
        fold(e.a.index() as u64);
        fold(e.b.index() as u64);
        fold(e.payload.to_bits());
    }
    h
}

fn check(kind: TopologyKind, nodes: usize, expected: [(u64, u64); 3]) {
    let spec = TopologySpec {
        kind,
        nodes,
        ..TopologySpec::paper_default()
    };
    let got: Vec<(u64, u64)> = expected
        .iter()
        .map(|&(seed, _)| (seed, digest(&spec.generate(seed))))
        .collect();
    assert_eq!(got, expected.to_vec(), "{kind} at {nodes} nodes");
}

#[test]
fn waxman_1100_edge_lists_are_pinned() {
    check(
        TopologyKind::Waxman,
        1100,
        [
            (7, 5940661034459434313),
            (2024, 18416361602039429259),
            (99, 14262101802041531205),
        ],
    );
}

#[test]
fn waxman_2410_edge_lists_are_pinned() {
    check(
        TopologyKind::Waxman,
        2410,
        [
            (2024, 11087656979514691108),
            (7, 7416016862989008221),
            (31, 16970930071453549056),
        ],
    );
}

#[test]
fn volchenkov_300_edge_lists_are_pinned() {
    check(
        TopologyKind::Volchenkov,
        300,
        [
            (1, 4103611952914364272),
            (2, 8258461747527540260),
            (3, 11295936856745112507),
        ],
    );
}

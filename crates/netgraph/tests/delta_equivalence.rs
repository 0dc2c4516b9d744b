//! Differential battery for the delta engine: over arbitrary
//! topologies and arbitrary interleaved delta sequences, an in-place
//! [`dijkstra_repair_into`] must leave the workspace **bitwise
//! identical** — distances, predecessors, reachability — to a fresh
//! [`dijkstra_into`] under the post-delta configuration, with and
//! without a [`SearchMask`] overlay.
//!
//! Worsening steps (block a relay, block an edge) go through the
//! repair; improving steps (unblock) model what the cache layer does —
//! full recompute — and keep the sequence honest: a repair later in
//! the sequence starts from recomputed state, exactly like production.

use proptest::prelude::*;
use qnet_graph::{
    dijkstra_into, dijkstra_repair_into, DeltaClassifier, DijkstraConfig, DijkstraWorkspace,
    EdgeId, EdgeRef, Graph, NodeId, RepairScratch, SearchMask, SsspDelta,
};

/// A random undirected weighted graph: `n` nodes, edge list with weights.
fn arb_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Graph<(), f64>> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, 0.01f64..10.0);
        proptest::collection::vec(edge, 0..=max_edges).prop_map(move |edges| {
            let mut g: Graph<(), f64> = Graph::new();
            for _ in 0..n {
                g.add_node(());
            }
            for (a, b, w) in edges {
                if a != b {
                    g.add_edge(NodeId::new(a), NodeId::new(b), w);
                }
            }
            g
        })
    })
}

/// One step of a delta sequence: `(kind, target)` with kinds
/// 0 = block node, 1 = block edge, 2 = unblock node, 3 = unblock edge.
fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<(u8, usize)>> {
    proptest::collection::vec((0u8..4, 0usize..64), 1..=max_len)
}

/// The live state a sequence mutates: which vertices may relay and
/// which edges are usable.
struct Overlay {
    relay: Vec<bool>,
    edge_ok: Vec<bool>,
}

impl Overlay {
    fn fresh(g: &Graph<(), f64>) -> Self {
        Overlay {
            relay: vec![true; g.node_count()],
            edge_ok: vec![true; g.edge_count()],
        }
    }

    fn config(
        &self,
    ) -> DijkstraConfig<impl Fn(EdgeRef<'_, f64>) -> f64 + '_, impl Fn(NodeId) -> bool + '_> {
        DijkstraConfig {
            edge_cost: move |e: EdgeRef<'_, f64>| {
                if self.edge_ok[e.id.index()] {
                    *e.payload
                } else {
                    f64::INFINITY
                }
            },
            can_relay: move |v: NodeId| self.relay[v.index()],
        }
    }

    /// Applies one op; returns the worsening delta it produced, or
    /// `None` when the op improved the overlay (or was a no-op block of
    /// an already-blocked element, which still repairs cleanly).
    fn apply(&mut self, kind: u8, target: usize) -> Option<SsspDelta> {
        let mut delta = SsspDelta::new();
        match kind {
            0 => {
                let v = target % self.relay.len();
                self.relay[v] = false;
                delta.block_node(NodeId::new(v));
                Some(delta)
            }
            1 if !self.edge_ok.is_empty() => {
                let e = target % self.edge_ok.len();
                self.edge_ok[e] = false;
                delta.block_edge(EdgeId::new(e));
                Some(delta)
            }
            2 => {
                let v = target % self.relay.len();
                if !self.relay[v] {
                    self.relay[v] = true;
                    None
                } else {
                    // Unblocking an unblocked vertex changes nothing —
                    // exercised as a clean repair of the empty delta.
                    Some(delta)
                }
            }
            3 if !self.edge_ok.is_empty() => {
                let e = target % self.edge_ok.len();
                if !self.edge_ok[e] {
                    self.edge_ok[e] = true;
                    None
                } else {
                    Some(delta)
                }
            }
            _ => Some(delta), // edge op on an edgeless graph: no-op
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The headline property: repaired ≡ fresh after every step of an
    /// arbitrary interleaved delta sequence.
    #[test]
    fn repaired_workspace_is_bitwise_fresh(
        g in arb_graph(14, 44),
        src in 0usize..14,
        ops in arb_ops(10),
    ) {
        let source = NodeId::new(src % g.node_count());
        let mut overlay = Overlay::fresh(&g);
        let mut ws = DijkstraWorkspace::new();
        let mut scratch = RepairScratch::new();
        {
            let cfg = overlay.config();
            dijkstra_into(&mut ws, &g, source, &cfg);
        }
        for &(kind, target) in &ops {
            let worsening = overlay.apply(kind, target);
            let cfg = overlay.config();
            let fresh = {
                let mut fresh_ws = DijkstraWorkspace::new();
                dijkstra_into(&mut fresh_ws, &g, source, &cfg).to_run()
            };
            match worsening {
                Some(delta) => {
                    let (view, stats) =
                        dijkstra_repair_into(&mut ws, &mut scratch, &g, &cfg, &delta);
                    prop_assert_eq!(view.to_run(), fresh, "repair diverged");
                    if delta.is_empty() {
                        prop_assert!(stats.is_clean(), "empty delta must be clean");
                    }
                }
                None => {
                    // Improving delta: the cache layer recomputes; do the
                    // same so later repairs start from production state.
                    dijkstra_into(&mut ws, &g, source, &cfg);
                }
            }
        }
        // Generation discipline survived the repairs: the workspace is
        // still a normal workspace for unrelated fresh runs.
        let other = NodeId::new((src + 1) % g.node_count());
        let cfg = overlay.config();
        let a = dijkstra_into(&mut ws, &g, other, &cfg).to_run();
        let b = {
            let mut fresh_ws = DijkstraWorkspace::new();
            dijkstra_into(&mut fresh_ws, &g, other, &cfg).to_run()
        };
        prop_assert_eq!(a, b);
    }

    /// Same battery under a masked overlay: the mask kills a static set
    /// of edges/nodes, deltas churn on top, and the repair (driven with
    /// the composed configuration) must match a fresh search under the
    /// overlay configuration restricted by the mask.
    #[test]
    fn masked_repair_matches_masked_fresh(
        g in arb_graph(12, 40),
        src in 0usize..12,
        dead_edges in proptest::collection::vec(0usize..40, 0..5),
        dead_node in 0usize..12,
        ops in arb_ops(8),
    ) {
        let source = NodeId::new(src % g.node_count());
        let mut mask = SearchMask::new();
        for e in dead_edges {
            if e < g.edge_count() {
                mask.kill_edge(EdgeId::new(e));
            }
        }
        let killed = NodeId::new(dead_node % g.node_count());
        if killed != source {
            mask.kill_node(killed);
        }
        let mut overlay = Overlay::fresh(&g);
        let mut ws = DijkstraWorkspace::new();
        let mut scratch = RepairScratch::new();
        // The composed configuration: overlay deltas on top of the mask
        // (what `SearchMask::restrict` builds, spelled out independently).
        macro_rules! composed {
            () => {{
                let mask = &mask;
                let overlay = &overlay;
                DijkstraConfig {
                    edge_cost: move |e: EdgeRef<'_, f64>| {
                        if mask.blocks(e.id, e.a, e.b) || !overlay.edge_ok[e.id.index()] {
                            f64::INFINITY
                        } else {
                            *e.payload
                        }
                    },
                    can_relay: move |v: NodeId| !mask.node_dead(v) && overlay.relay[v.index()],
                }
            }};
        }
        {
            let cfg = composed!();
            dijkstra_into(&mut ws, &g, source, &cfg);
        }
        for &(kind, target) in &ops {
            let worsening = overlay.apply(kind, target);
            let cfg = composed!();
            let fresh = {
                // The oracle goes through the public mask composition,
                // restricting only the overlay config.
                let mut fresh_ws = DijkstraWorkspace::new();
                let overlay_cfg = overlay.config();
                let restricted = mask.restrict(&overlay_cfg);
                dijkstra_into(&mut fresh_ws, &g, source, &restricted).to_run()
            };
            match worsening {
                Some(delta) => {
                    let (view, _) =
                        dijkstra_repair_into(&mut ws, &mut scratch, &g, &cfg, &delta);
                    prop_assert_eq!(view.to_run(), fresh, "masked repair diverged");
                }
                None => {
                    dijkstra_into(&mut ws, &g, source, &cfg);
                }
            }
        }
    }

    /// A run loaded from owned storage repairs exactly like the
    /// workspace that produced it — the cache-entry round trip.
    #[test]
    fn loaded_runs_repair_like_live_workspaces(
        g in arb_graph(12, 36),
        src in 0usize..12,
        block in 0usize..12,
    ) {
        let source = NodeId::new(src % g.node_count());
        let blocked = NodeId::new(block % g.node_count());
        let overlay = Overlay::fresh(&g);
        let mut live = DijkstraWorkspace::new();
        let stored = {
            let cfg = overlay.config();
            dijkstra_into(&mut live, &g, source, &cfg).to_run()
        };
        let mut loaded = DijkstraWorkspace::new();
        loaded.load_run(&stored);
        let mut delta = SsspDelta::new();
        delta.block_node(blocked);
        let cfg = DijkstraConfig {
            edge_cost: |e: EdgeRef<'_, f64>| *e.payload,
            can_relay: move |v: NodeId| v != blocked,
        };
        let mut scratch = RepairScratch::new();
        let (live_view, live_stats) =
            dijkstra_repair_into(&mut live, &mut scratch, &g, &cfg, &delta);
        let live_run = live_view.to_run();
        let (loaded_view, loaded_stats) =
            dijkstra_repair_into(&mut loaded, &mut scratch, &g, &cfg, &delta);
        prop_assert_eq!(loaded_view.to_run(), live_run, "storage round trip diverged");
        prop_assert_eq!(live_stats, loaded_stats);
    }

    /// The classifier's component pre-filter is sound: a delta in a
    /// foreign component repairs clean for every source outside it.
    #[test]
    fn cross_component_deltas_are_always_clean(
        g in arb_graph(12, 16),
        src in 0usize..12,
        block in 0usize..12,
    ) {
        let source = NodeId::new(src % g.node_count());
        let blocked = NodeId::new(block % g.node_count());
        let classifier = DeltaClassifier::new(&g);
        prop_assume!(!classifier.node_may_affect(source, blocked));
        let overlay = Overlay::fresh(&g);
        let mut ws = DijkstraWorkspace::new();
        {
            let cfg = overlay.config();
            dijkstra_into(&mut ws, &g, source, &cfg);
        }
        let mut delta = SsspDelta::new();
        delta.block_node(blocked);
        let cfg = DijkstraConfig {
            edge_cost: |e: EdgeRef<'_, f64>| *e.payload,
            can_relay: move |v: NodeId| v != blocked,
        };
        let mut scratch = RepairScratch::new();
        let (_, stats) = dijkstra_repair_into(&mut ws, &mut scratch, &g, &cfg, &delta);
        prop_assert!(stats.is_clean(), "foreign-component delta did work: {stats:?}");
    }
}

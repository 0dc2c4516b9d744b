//! Failure masks over a graph's dense id space.
//!
//! A [`SearchMask`] marks edges and vertices as *dead* without mutating
//! or rebuilding the graph. [`SearchMask::restrict`] turns any search
//! configuration into a masked one — for Dijkstra and Yen alike — that
//! treats a dead edge, or any edge incident to a dead vertex, as having
//! infinite cost, and refuses to relay through a dead vertex. Because the underlying graph is
//! untouched, node and edge ids remain stable across failures, which is
//! what lets a survivability layer compare pre- and post-failure
//! routing state in one id space. (Contrast [`crate::Graph::filter_edges`],
//! which re-densifies edge ids.)
//!
//! Masks carry an order-independent content [`hash`](SearchMask::hash)
//! so caches that memoize search results can key entries by
//! `(source, capacity epoch, mask hash)` — two masks that kill the same
//! set of elements hash identically regardless of kill order, and the
//! empty mask always hashes to `0`.

use crate::graph::{EdgeId, EdgeRef, NodeId};
use crate::paths::{DijkstraConfig, Path};

/// FNV-1a over a small tag + index pair; each killed element contributes
/// one such digest, combined by XOR so the total is order-independent.
fn element_digest(tag: u64, index: usize) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for byte in tag
        .to_le_bytes()
        .into_iter()
        .chain((index as u64).to_le_bytes())
    {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A set of dead edges and dead vertices, with a stable content hash.
///
/// Killing the same element twice is a no-op (the hash is not
/// perturbed), so a mask built up incrementally over repeated failures
/// stays consistent with one built in a single pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchMask {
    dead_edges: Vec<bool>,
    dead_nodes: Vec<bool>,
    hash: u64,
    dead_edge_count: usize,
    dead_node_count: usize,
}

impl SearchMask {
    /// An empty mask: everything alive, hash `0`.
    pub fn new() -> Self {
        SearchMask::default()
    }

    /// Marks an edge dead. Returns `true` if it was alive before.
    pub fn kill_edge(&mut self, e: EdgeId) -> bool {
        let i = e.index();
        if self.dead_edges.len() <= i {
            self.dead_edges.resize(i + 1, false);
        }
        if self.dead_edges[i] {
            return false;
        }
        self.dead_edges[i] = true;
        self.dead_edge_count += 1;
        self.hash ^= element_digest(1, i);
        true
    }

    /// Marks a vertex dead. Returns `true` if it was alive before.
    ///
    /// A dead vertex blocks more than relaying: every incident edge is
    /// treated as dead too, so the vertex cannot appear in a masked
    /// path even as an endpoint.
    pub fn kill_node(&mut self, v: NodeId) -> bool {
        let i = v.index();
        if self.dead_nodes.len() <= i {
            self.dead_nodes.resize(i + 1, false);
        }
        if self.dead_nodes[i] {
            return false;
        }
        self.dead_nodes[i] = true;
        self.dead_node_count += 1;
        self.hash ^= element_digest(2, i);
        true
    }

    /// Is this edge dead?
    pub fn edge_dead(&self, e: EdgeId) -> bool {
        self.dead_edges.get(e.index()).copied().unwrap_or(false)
    }

    /// Is this vertex dead?
    pub fn node_dead(&self, v: NodeId) -> bool {
        self.dead_nodes.get(v.index()).copied().unwrap_or(false)
    }

    /// Is the edge unusable under this mask — dead itself, or incident
    /// to a dead vertex?
    pub fn blocks(&self, id: EdgeId, a: NodeId, b: NodeId) -> bool {
        self.edge_dead(id) || self.node_dead(a) || self.node_dead(b)
    }

    /// `true` when nothing is dead.
    pub fn is_empty(&self) -> bool {
        self.dead_edge_count == 0 && self.dead_node_count == 0
    }

    /// Number of dead edges.
    pub fn dead_edge_count(&self) -> usize {
        self.dead_edge_count
    }

    /// Number of dead vertices.
    pub fn dead_node_count(&self) -> usize {
        self.dead_node_count
    }

    /// Order-independent content hash; `0` for the empty mask.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// `true` when any node of `path` is dead or any edge of `path` is
    /// blocked under this mask.
    pub fn breaks_path(&self, path: &Path) -> bool {
        path.nodes.iter().any(|&v| self.node_dead(v))
            || path.edges.iter().any(|&e| self.edge_dead(e))
    }

    /// `config` restricted to the elements this mask leaves alive: dead
    /// edges (and edges incident to dead vertices) cost `+∞`, and dead
    /// vertices never relay; everything else defers to `config`. The
    /// result feeds [`crate::dijkstra_into`] and
    /// [`crate::ksp::k_shortest_paths_in`] unchanged, so a masked search
    /// is the plain search under a restricted configuration.
    pub fn restrict<'a, E, FC, FR>(
        &'a self,
        config: &'a DijkstraConfig<FC, FR>,
    ) -> DijkstraConfig<impl Fn(EdgeRef<'_, E>) -> f64 + 'a, impl Fn(NodeId) -> bool + 'a>
    where
        FC: Fn(EdgeRef<'_, E>) -> f64,
        FR: Fn(NodeId) -> bool,
    {
        DijkstraConfig {
            edge_cost: move |e: EdgeRef<'_, E>| {
                if self.blocks(e.id, e.a, e.b) {
                    f64::INFINITY
                } else {
                    (config.edge_cost)(e)
                }
            },
            can_relay: move |v: NodeId| !self.node_dead(v) && (config.can_relay)(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::ksp::k_shortest_paths_in;
    use crate::paths::{dijkstra_into, DijkstraWorkspace};

    fn cost(e: EdgeRef<'_, f64>) -> f64 {
        *e.payload
    }

    /// 0 -1- 1 -1- 3, 0 -2- 2 -1- 3, 0 -5- 3.
    fn diamond() -> (Graph<(), f64>, [NodeId; 4], [EdgeId; 5]) {
        let mut g = Graph::new();
        let n: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        let e01 = g.add_edge(n[0], n[1], 1.0);
        let e13 = g.add_edge(n[1], n[3], 1.0);
        let e02 = g.add_edge(n[0], n[2], 2.0);
        let e23 = g.add_edge(n[2], n[3], 1.0);
        let e03 = g.add_edge(n[0], n[3], 5.0);
        (g, [n[0], n[1], n[2], n[3]], [e01, e13, e02, e23, e03])
    }

    #[test]
    fn empty_mask_matches_unmasked_search() {
        let (g, [s, _, _, t], _) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let cfg = DijkstraConfig::all_nodes(cost);
        let mask = SearchMask::new();
        assert_eq!(mask.hash(), 0);
        assert!(mask.is_empty());
        let masked = dijkstra_into(&mut ws, &g, s, &mask.restrict(&cfg))
            .path_to(t)
            .expect("connected");
        let plain = dijkstra_into(&mut ws, &g, s, &cfg)
            .path_to(t)
            .expect("connected");
        assert_eq!(masked.nodes, plain.nodes);
        assert_eq!(masked.cost, plain.cost);
    }

    #[test]
    fn dead_edge_forces_detour() {
        let (g, [s, _, _, t], [e01, ..]) = diamond();
        let mut mask = SearchMask::new();
        assert!(mask.kill_edge(e01));
        assert!(!mask.kill_edge(e01), "second kill is a no-op");
        let mut ws = DijkstraWorkspace::new();
        let cfg = DijkstraConfig::all_nodes(cost);
        let p = dijkstra_into(&mut ws, &g, s, &mask.restrict(&cfg))
            .path_to(t)
            .expect("detour exists");
        assert!(!p.edges.contains(&e01));
        assert_eq!(p.cost, 3.0); // 0-2-3
    }

    #[test]
    fn dead_vertex_is_unreachable_even_as_destination() {
        let (g, [s, n1, _, t], _) = diamond();
        let mut mask = SearchMask::new();
        mask.kill_node(n1);
        let mut ws = DijkstraWorkspace::new();
        let cfg = DijkstraConfig::all_nodes(cost);
        let view = dijkstra_into(&mut ws, &g, s, &mask.restrict(&cfg));
        // Dead vertices are not just relay-forbidden: their incident
        // edges are blocked too, so n1 has no path at all.
        assert!(view.path_to(n1).is_none());
        let p = view.path_to(t).expect("detour exists");
        assert!(!p.nodes.contains(&n1));
        assert_eq!(p.cost, 3.0); // 0-2-3
    }

    #[test]
    fn hash_is_order_independent_and_idempotent() {
        let (_, [_, n1, n2, _], [e01, e13, ..]) = diamond();
        let mut a = SearchMask::new();
        a.kill_edge(e01);
        a.kill_node(n1);
        a.kill_edge(e13);
        a.kill_node(n2);
        let mut b = SearchMask::new();
        b.kill_node(n2);
        b.kill_edge(e13);
        b.kill_node(n1);
        b.kill_edge(e01);
        b.kill_edge(e01); // repeat must not perturb
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a, b);
        assert_ne!(a.hash(), 0);
        // Edge i dead and node i dead are distinct masks.
        let mut c = SearchMask::new();
        c.kill_edge(EdgeId::new(3));
        let mut d = SearchMask::new();
        d.kill_node(NodeId::new(3));
        assert_ne!(c.hash(), d.hash());
    }

    #[test]
    fn masked_yen_avoids_dead_elements() {
        let (g, [s, n1, _, t], [e01, ..]) = diamond();
        let mut mask = SearchMask::new();
        mask.kill_node(n1);
        let mut ws = DijkstraWorkspace::new();
        let cfg = DijkstraConfig::all_nodes(cost);
        let paths = k_shortest_paths_in(&mut ws, &g, s, t, 10, &mask.restrict(&cfg));
        assert_eq!(paths.len(), 2); // 0-2-3 and 0-3
        for p in &paths {
            assert!(!p.nodes.contains(&n1));
            assert!(!p.edges.contains(&e01));
        }
        assert_eq!(paths[0].cost, 3.0);
        assert_eq!(paths[1].cost, 5.0);
    }

    #[test]
    fn breaks_path_detects_dead_elements() {
        let (g, [s, _, _, t], [e01, ..]) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let cfg = DijkstraConfig::all_nodes(cost);
        let best = dijkstra_into(&mut ws, &g, s, &cfg)
            .path_to(t)
            .expect("connected");
        let mut mask = SearchMask::new();
        assert!(!mask.breaks_path(&best));
        mask.kill_edge(e01);
        assert!(mask.breaks_path(&best)); // best path is 0-1-3
    }
}

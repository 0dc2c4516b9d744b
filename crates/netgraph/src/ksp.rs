//! Yen's algorithm: the k cheapest loopless paths between two vertices.
//!
//! Used by the MUERP local-search extension to enumerate *alternative*
//! quantum channels for a user pair — the capacity-aware tree improvement
//! needs more than the single best channel Algorithm 1 yields.
//!
//! The implementation honors the same vertex semantics as
//! [`crate::dijkstra_into`]: a `can_relay` filter restricts which vertices may
//! appear in a path's *interior*, so the k-best channels all remain valid
//! MUERP channels.

use std::cmp::Ordering;
use std::collections::HashSet;

use crate::graph::{EdgeId, EdgeRef, Graph, NodeId};
use crate::paths::{dijkstra_into, DijkstraConfig, DijkstraWorkspace, Path};

/// Candidate ordering: cheapest first, ties broken by the edge sequence
/// for determinism.
fn path_order(a: &Path, b: &Path) -> Ordering {
    a.cost
        .partial_cmp(&b.cost)
        .expect("costs are not NaN")
        .then_with(|| a.edges.cmp(&b.edges))
}

/// The `k` cheapest loopless paths from `source` to `target` under the
/// given cost and relay filter, sorted by cost ascending.
///
/// Yen's algorithm on a caller-provided [`DijkstraWorkspace`]: every
/// spur search reuses the workspace's arrays and heap, so one KSP query
/// performs no per-spur allocation beyond the paths it reports.
///
/// Fewer than `k` paths are returned when the graph does not contain
/// that many distinct admissible simple paths. `k = 0` returns an empty
/// vector.
///
/// Two further optimizations over the textbook formulation:
///
/// * **Root-cost bookkeeping** — a candidate's cost is the prefix sum of
///   its root plus the spur search's accumulated cost; edge costs are
///   never re-summed over the whole stitched path.
/// * **Root-path cost pruning** — with `m` accepted slots left and at
///   least `m` pending candidates, a spur whose root already costs
///   strictly more than the `m`-th cheapest pending candidate cannot
///   contribute an accepted path (every future pick is at most that
///   bound), so the spur search is skipped entirely. The strict
///   inequality keeps equal-cost path sets intact.
///
/// # Panics
///
/// Panics if `edge_cost` produces negative or NaN values (inherited from
/// [`crate::dijkstra_into`]).
pub fn k_shortest_paths_in<N, E, FC, FR>(
    ws: &mut DijkstraWorkspace,
    g: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    k: usize,
    config: &DijkstraConfig<FC, FR>,
) -> Vec<Path>
where
    FC: Fn(EdgeRef<'_, E>) -> f64,
    FR: Fn(NodeId) -> bool,
{
    qnet_obs::counter!("graph.ksp.calls");
    let _span = qnet_obs::span!("graph.ksp.solve");
    if k == 0 || source == target {
        return Vec::new();
    }
    let mut accepted: Vec<Path> = Vec::with_capacity(k);
    // Sorted *descending* by (cost, edges): the cheapest candidate pops
    // from the back in O(1), and the pruning bound below indexes the
    // m-th cheapest directly.
    let mut candidates: Vec<Path> = Vec::new();
    let mut expansions: u64 = 0;
    let mut pruned: u64 = 0;
    // Ban sets are reused (cleared, not reallocated) across spurs.
    let mut banned_edges: HashSet<EdgeId> = HashSet::new();
    let mut banned_nodes: HashSet<NodeId> = HashSet::new();
    // Prefix sums of the previous accepted path's edge costs:
    // root_cost[i] = cost of its first i edges, summed left to right —
    // bitwise identical to the sequential sum Dijkstra itself computes.
    let mut root_cost: Vec<f64> = Vec::new();

    let Some(first) = dijkstra_into(ws, g, source, config).path_to(target) else {
        return Vec::new();
    };
    accepted.push(first);

    while accepted.len() < k {
        // One spur round: every prefix position of the latest accepted
        // path. The nested dijkstra spans attribute the round's cost.
        let _round = qnet_obs::span!("graph.ksp.spur_round");
        let prev = accepted.last().expect("at least one accepted path");
        root_cost.clear();
        root_cost.push(0.0);
        for &e in &prev.edges {
            root_cost.push(root_cost.last().unwrap() + (config.edge_cost)(g.edge(e)));
        }

        // Spur from every prefix position of the previous path. Indexed
        // loop: `prev` must be re-borrowed each iteration because the
        // ban sets the spur config closes over are rebuilt in the body.
        #[allow(clippy::needless_range_loop)]
        for spur_idx in 0..prev.nodes.len() - 1 {
            let prev = accepted.last().expect("at least one accepted path");
            let spur_node = prev.nodes[spur_idx];

            // The spur node must be admissible at its position in the
            // final path: as source (spur_idx == 0) it always is; as an
            // interior vertex it must pass the relay filter.
            if spur_idx > 0 && !(config.can_relay)(spur_node) {
                continue;
            }

            // Root-path cost pruning (see the function docs for why the
            // strict bound is safe).
            let remaining = k - accepted.len();
            if candidates.len() >= remaining
                && root_cost[spur_idx] > candidates[candidates.len() - remaining].cost
            {
                pruned += 1;
                continue;
            }

            // Ban: edges leaving the spur node on any accepted/candidate
            // path sharing this root, and all root nodes except the spur
            // (to keep the final path simple).
            // Root comparison uses the *edge* sequence: with parallel
            // edges two distinct roots share the same node prefix, and
            // banning across them loses paths.
            let root_edges = &prev.edges[..spur_idx];
            banned_edges.clear();
            for p in accepted.iter().chain(candidates.iter()) {
                if p.edges.len() > spur_idx && p.edges[..spur_idx] == *root_edges {
                    banned_edges.insert(p.edges[spur_idx]);
                }
            }
            banned_nodes.clear();
            banned_nodes.extend(prev.nodes[..spur_idx].iter().copied());

            let spur_cfg = DijkstraConfig {
                edge_cost: |e: EdgeRef<'_, E>| {
                    if banned_edges.contains(&e.id)
                        || banned_nodes.contains(&e.a)
                        || banned_nodes.contains(&e.b)
                    {
                        f64::INFINITY
                    } else {
                        (config.edge_cost)(e)
                    }
                },
                can_relay: |n: NodeId| !banned_nodes.contains(&n) && (config.can_relay)(n),
            };
            expansions += 1;
            let Some(spur_path) = dijkstra_into(ws, g, spur_node, &spur_cfg).path_to(target) else {
                continue;
            };

            // Stitch root + spur; the cost is the root prefix plus the
            // spur search's own accumulated cost.
            let prev = accepted.last().expect("at least one accepted path");
            let mut nodes = prev.nodes[..=spur_idx].to_vec();
            nodes.extend_from_slice(&spur_path.nodes[1..]);
            let mut edges = prev.edges[..spur_idx].to_vec();
            edges.extend_from_slice(&spur_path.edges);
            let cost = root_cost[spur_idx] + spur_path.cost;
            let candidate = Path { nodes, edges, cost };

            // Deduplicate (same edge sequence).
            let duplicate = accepted
                .iter()
                .chain(candidates.iter())
                .any(|p| p.edges == candidate.edges);
            if !duplicate {
                let at = candidates
                    .binary_search_by(|p| path_order(&candidate, p))
                    .unwrap_or_else(|i| i);
                candidates.insert(at, candidate);
            }
        }

        // Pop the cheapest candidate.
        let Some(next) = candidates.pop() else {
            break;
        };
        accepted.push(next);
    }
    qnet_obs::counter!("graph.ksp.spur_expansions"; expansions);
    qnet_obs::counter!("graph.ksp.spur_pruned"; pruned);
    qnet_obs::counter!("graph.ksp.paths_generated"; accepted.len() as u64);
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(e: EdgeRef<'_, f64>) -> f64 {
        *e.payload
    }

    /// One Yen query on a fresh workspace.
    fn yen<FC, FR>(
        g: &Graph<(), f64>,
        s: NodeId,
        t: NodeId,
        k: usize,
        cfg: &DijkstraConfig<FC, FR>,
    ) -> Vec<Path>
    where
        FC: Fn(EdgeRef<'_, f64>) -> f64,
        FR: Fn(NodeId) -> bool,
    {
        k_shortest_paths_in(&mut DijkstraWorkspace::new(), g, s, t, k, cfg)
    }

    /// Classic Yen example shape: multiple routes of distinct costs.
    ///   0 -1- 1 -1- 3
    ///   0 -2- 2 -1- 3
    ///   1 -1- 2,  0 -5- 3
    fn diamond() -> (Graph<(), f64>, [NodeId; 4]) {
        let mut g = Graph::new();
        let n: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], 1.0);
        g.add_edge(n[1], n[3], 1.0);
        g.add_edge(n[0], n[2], 2.0);
        g.add_edge(n[2], n[3], 1.0);
        g.add_edge(n[1], n[2], 1.0);
        g.add_edge(n[0], n[3], 5.0);
        (g, [n[0], n[1], n[2], n[3]])
    }

    #[test]
    fn finds_paths_in_cost_order() {
        let (g, [s, _, _, t]) = diamond();
        let paths = yen(&g, s, t, 10, &DijkstraConfig::all_nodes(cost));
        assert!(paths.len() >= 4);
        for w in paths.windows(2) {
            assert!(w[0].cost <= w[1].cost + 1e-12);
        }
        assert_eq!(paths[0].cost, 2.0); // 0-1-3
        assert_eq!(paths[1].cost, 3.0); // 0-2-3 or 0-1-2-3
    }

    #[test]
    fn paths_are_simple_and_distinct() {
        let (g, [s, _, _, t]) = diamond();
        let paths = yen(&g, s, t, 10, &DijkstraConfig::all_nodes(cost));
        let mut seen = HashSet::new();
        for p in &paths {
            assert!(seen.insert(p.edges.clone()), "duplicate path");
            let mut nodes = p.nodes.clone();
            nodes.sort();
            nodes.dedup();
            assert_eq!(nodes.len(), p.nodes.len(), "loopy path");
            assert_eq!(p.source(), s);
            assert_eq!(p.destination(), t);
        }
    }

    #[test]
    fn matches_bruteforce_enumeration() {
        let (g, [s, _, _, t]) = diamond();
        // Brute force: all simple paths s→t.
        fn all_paths(
            g: &Graph<(), f64>,
            cur: NodeId,
            t: NodeId,
            visited: &mut Vec<NodeId>,
            edges: &mut Vec<EdgeId>,
            out: &mut Vec<(f64, Vec<EdgeId>)>,
        ) {
            if cur == t {
                let c = edges.iter().map(|&e| *g.edge(e).payload).sum();
                out.push((c, edges.clone()));
                return;
            }
            for (next, eid) in g.neighbors(cur) {
                if !visited.contains(&next) {
                    visited.push(next);
                    edges.push(eid);
                    all_paths(g, next, t, visited, edges, out);
                    edges.pop();
                    visited.pop();
                }
            }
        }
        let mut brute = Vec::new();
        all_paths(&g, s, t, &mut vec![s], &mut Vec::new(), &mut brute);
        brute.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

        let yen = yen(&g, s, t, brute.len() + 5, &DijkstraConfig::all_nodes(cost));
        assert_eq!(yen.len(), brute.len(), "yen must find every simple path");
        for (p, (c, _)) in yen.iter().zip(&brute) {
            assert!((p.cost - c).abs() < 1e-12, "cost sequence must match");
        }
    }

    #[test]
    fn respects_relay_filter() {
        let (g, [s, n1, _, t]) = diamond();
        let cfg = DijkstraConfig {
            edge_cost: cost,
            can_relay: |n: NodeId| n != n1,
        };
        let paths = yen(&g, s, t, 10, &cfg);
        for p in &paths {
            assert!(!p.interior().contains(&n1), "forbidden interior {p:?}");
        }
        // Direct 0-3 and 0-2-3 remain.
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn k_zero_and_same_endpoints() {
        let (g, [s, _, _, t]) = diamond();
        assert!(yen(&g, s, t, 0, &DijkstraConfig::all_nodes(cost)).is_empty());
        assert!(yen(&g, s, s, 3, &DijkstraConfig::all_nodes(cost)).is_empty());
    }

    #[test]
    fn disconnected_yields_empty() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        assert!(yen(&g, a, b, 3, &DijkstraConfig::all_nodes(cost)).is_empty());
    }

    #[test]
    fn parallel_edges_are_distinct_paths() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(a, b, 2.0);
        let paths = yen(&g, a, b, 5, &DijkstraConfig::all_nodes(cost));
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].cost, 1.0);
        assert_eq!(paths[1].cost, 2.0);
    }
}

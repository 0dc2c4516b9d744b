//! Local-search refinement of entanglement trees — an optimization pass
//! beyond the paper's greedy heuristics.
//!
//! The greedy Algorithms 3/4 can be trapped: grabbing the single best
//! channel may exhaust a contended switch and force a terrible channel
//! elsewhere (the NP-hardness in action; `tests/hardness_witness.rs`
//! exhibits a concrete instance). This pass performs *exchange moves*:
//!
//! * **1-moves**: remove one tree channel, re-route that user-pair cut
//!   optimally over the freed capacity;
//! * **2-moves**: remove a *pair* of channels, splitting the users into
//!   up to three components, then re-solve the 2-channel reconnection
//!   exactly — enumerating every spanning shape over the components with
//!   the k best candidate channels per component pair under shared
//!   capacity. 2-moves fix the traps 1-moves cannot (both channels must
//!   change simultaneously).
//!
//! The rate never decreases and the loop terminates (each accepted move
//! strictly improves the product, which is bounded above). This realizes
//! the paper's closing suggestion that its algorithms "can serve as a
//! foundation" for refined designs.

use std::collections::HashSet;

use qnet_graph::{DijkstraWorkspace, NodeId, UnionFind};
use serde::{Deserialize, Serialize};

use crate::channel::{CapacityMap, Channel};
use crate::error::RoutingError;
use crate::model::QuantumNetwork;
use crate::rate::Rate;
use crate::solver::{RoutingAlgorithm, Solution, SolutionStyle};
use crate::tree::EntanglementTree;

use super::k_channels::k_best_channels_in;

/// Local-search configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalSearchOptions {
    /// Alternative channels considered per user pair in a move.
    pub k_candidates: usize,
    /// Maximum improvement rounds (each round scans all moves once).
    pub max_rounds: usize,
    /// Enable the quadratic 2-moves (pairs of channels re-solved jointly).
    pub pair_moves: bool,
}

impl Default for LocalSearchOptions {
    fn default() -> Self {
        LocalSearchOptions {
            k_candidates: 3,
            max_rounds: 8,
            pair_moves: true,
        }
    }
}

/// Refines a BSM-tree solution in place; returns the (possibly improved)
/// solution. Non-tree solutions are returned unchanged.
pub fn refine(net: &QuantumNetwork, solution: Solution, options: LocalSearchOptions) -> Solution {
    if solution.style != SolutionStyle::BsmTree {
        return solution;
    }
    let _span = qnet_obs::span!("core.local_search.refine");
    qnet_obs::counter!("core.local_search.refines");
    let mut tree = EntanglementTree {
        channels: solution.channels,
    };
    // One search workspace serves every k-best-channels query of every
    // move.
    let mut ws = DijkstraWorkspace::with_capacity(net.graph().node_count());
    for _ in 0..options.max_rounds {
        let _round = qnet_obs::span!("core.local_search.round");
        qnet_obs::counter!("core.local_search.rounds");
        let mut improved = improve_once(net, &mut tree, 1, options.k_candidates, &mut ws);
        if options.pair_moves {
            improved |= improve_once(net, &mut tree, 2, options.k_candidates, &mut ws);
        }
        if !improved {
            break;
        }
    }
    Solution::from_tree(tree)
}

/// One scan of all `arity`-moves; `true` when any move improved the tree.
fn improve_once(
    net: &QuantumNetwork,
    tree: &mut EntanglementTree,
    arity: usize,
    k: usize,
    ws: &mut DijkstraWorkspace,
) -> bool {
    let n = tree.channels.len();
    if n < arity {
        return false;
    }
    let mut improved = false;

    // Enumerate index sets of the requested arity (1 or 2).
    let index_sets: Vec<Vec<usize>> = match arity {
        1 => (0..n).map(|i| vec![i]).collect(),
        2 => {
            let mut v = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    v.push(vec![i, j]);
                }
            }
            v
        }
        _ => unreachable!("only 1- and 2-moves are implemented"),
    };

    for removal in index_sets {
        if let Some(better) = try_move(net, tree, &removal, k, ws) {
            if qnet_obs::trace_enabled() {
                let old_rate: Rate = removal.iter().map(|&i| tree.channels[i].rate).product();
                let new_rate: Rate = better.iter().map(|c| c.rate).product();
                qnet_obs::record_event(qnet_obs::TraceEvent::MoveAccepted {
                    arity: arity as u32,
                    old_rate: old_rate.value(),
                    new_rate: new_rate.value(),
                });
            }
            // Apply: drop the removed channels, add the replacements.
            let removed: HashSet<usize> = removal.iter().copied().collect();
            let mut channels: Vec<Channel> = tree
                .channels
                .iter()
                .enumerate()
                .filter(|(i, _)| !removed.contains(i))
                .map(|(_, c)| c.clone())
                .collect();
            channels.extend(better);
            tree.channels = channels;
            qnet_obs::counter!("core.local_search.moves_accepted");
            improved = true;
        }
    }
    improved
}

/// Attempts to replace the channels at `removal` with a strictly better
/// reconnection; returns the replacement channels on success.
fn try_move(
    net: &QuantumNetwork,
    tree: &EntanglementTree,
    removal: &[usize],
    k: usize,
    ws: &mut DijkstraWorkspace,
) -> Option<Vec<Channel>> {
    let removed: HashSet<usize> = removal.iter().copied().collect();
    let kept: Vec<&Channel> = tree
        .channels
        .iter()
        .enumerate()
        .filter(|(i, _)| !removed.contains(i))
        .map(|(_, c)| c)
        .collect();
    let old_rate: Rate = removal.iter().map(|&i| tree.channels[i].rate).product();

    // Residual capacity with only the kept channels reserved.
    let mut capacity = CapacityMap::new(net);
    for c in &kept {
        if !capacity.admits(c) {
            return None; // tree wasn't feasible to begin with; bail out
        }
        capacity.reserve(c);
    }

    // Components of the users under the kept channels.
    let users = net.users();
    let mut uf = UnionFind::new(net.graph().node_count());
    for c in &kept {
        uf.union_nodes(c.source(), c.destination());
    }
    let mut comp_of_root: std::collections::HashMap<usize, usize> = Default::default();
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    for &u in users {
        let root = uf.find_node(u);
        let idx = *comp_of_root.entry(root).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[idx].push(u);
    }
    let r = components.len();
    debug_assert_eq!(
        r,
        removal.len() + 1,
        "removing e channels splits into e+1 parts"
    );

    // Candidate channels per component pair: the k best per user pair,
    // merged and truncated.
    let mut pair_candidates: Vec<Vec<Vec<Channel>>> = vec![vec![Vec::new(); r]; r];
    for x in 0..r {
        for y in (x + 1)..r {
            let mut all = Vec::new();
            for &a in &components[x] {
                for &b in &components[y] {
                    all.extend(k_best_channels_in(ws, net, &capacity, a, b, k));
                }
            }
            all.sort_by_key(|p| std::cmp::Reverse(p.rate));
            all.truncate(2 * k);
            pair_candidates[x][y] = all;
        }
    }

    // Exactly re-solve the (r−1)-channel reconnection over the component
    // graph: enumerate spanning shapes (r ≤ 3 ⇒ at most 3 shapes) and
    // assign candidates DFS-style under shared capacity.
    let shapes: Vec<Vec<(usize, usize)>> = match r {
        2 => vec![vec![(0, 1)]],
        3 => vec![
            vec![(0, 1), (0, 2)],
            vec![(0, 1), (1, 2)],
            vec![(0, 2), (1, 2)],
        ],
        _ => return None,
    };

    let mut best: Option<(Rate, Vec<Channel>)> = None;
    for shape in shapes {
        assign_shape(
            &pair_candidates,
            &shape,
            0,
            &mut capacity.clone(),
            &mut Vec::new(),
            Rate::ONE,
            &mut best,
        );
    }
    let (new_rate, replacement) = best?;
    // Accept only strict improvement (with a tolerance to avoid cycling).
    if new_rate.value() > old_rate.value() * (1.0 + 1e-12) {
        Some(replacement)
    } else {
        None
    }
}

fn assign_shape(
    candidates: &[Vec<Vec<Channel>>],
    shape: &[(usize, usize)],
    idx: usize,
    capacity: &mut CapacityMap,
    chosen: &mut Vec<Channel>,
    product: Rate,
    best: &mut Option<(Rate, Vec<Channel>)>,
) {
    if idx == shape.len() {
        if best.as_ref().is_none_or(|(r, _)| product > *r) {
            *best = Some((product, chosen.clone()));
        }
        return;
    }
    let (x, y) = shape[idx];
    for c in &candidates[x][y] {
        if !capacity.admits(c) {
            continue;
        }
        capacity.reserve(c);
        chosen.push(c.clone());
        assign_shape(
            candidates,
            shape,
            idx + 1,
            capacity,
            chosen,
            product * c.rate,
            best,
        );
        let c = chosen.pop().expect("just pushed");
        capacity.release(&c);
    }
}

/// A routing algorithm wrapped with local-search refinement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Refined<A> {
    /// The base algorithm producing the initial tree.
    pub inner: A,
    /// Search options.
    pub options: LocalSearchOptions,
}

impl<A: RoutingAlgorithm> RoutingAlgorithm for Refined<A> {
    fn name(&self) -> &'static str {
        "Refined"
    }

    fn solve(&self, net: &QuantumNetwork) -> Result<Solution, RoutingError> {
        let base = self.inner.solve(net)?;
        Ok(refine(net, base, self.options))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{ConflictFree, PrimBased};
    use crate::model::{NetworkSpec, NodeKind, PhysicsParams};
    use crate::solver::validate_solution;
    use qnet_graph::Graph;

    /// The trap from `tests/hardness_witness.rs`: greedy lands ~0.270,
    /// the optimum is ~0.644 and needs a simultaneous 2-exchange.
    fn trap() -> QuantumNetwork {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u1 = g.add_node(NodeKind::User);
        let u2 = g.add_node(NodeKind::User);
        let u3 = g.add_node(NodeKind::User);
        let hub = g.add_node(NodeKind::Switch { qubits: 2 });
        let d12 = g.add_node(NodeKind::Switch { qubits: 2 });
        let d13 = g.add_node(NodeKind::Switch { qubits: 2 });
        g.add_edge(u1, hub, 500.0);
        g.add_edge(hub, u2, 500.0);
        g.add_edge(hub, u3, 600.0);
        g.add_edge(u1, d12, 600.0);
        g.add_edge(d12, u2, 600.0);
        g.add_edge(u1, d13, 5000.0);
        g.add_edge(d13, u3, 5000.0);
        QuantumNetwork::from_graph(g, PhysicsParams::paper_default())
    }

    #[test]
    fn two_moves_escape_the_greedy_trap() {
        let net = trap();
        let greedy = ConflictFree::default().solve(&net).unwrap();
        let refined = refine(&net, greedy.clone(), LocalSearchOptions::default());
        validate_solution(&net, &refined).unwrap();
        let optimal = 0.9 * (-0.11f64).exp() * 0.9 * (-0.12f64).exp();
        assert!(
            (refined.rate.value() - optimal).abs() < 1e-9,
            "refined {} should reach the optimum {optimal}",
            refined.rate.value()
        );
        assert!(refined.rate > greedy.rate);
    }

    #[test]
    fn one_moves_alone_cannot_escape_it() {
        // Documents *why* 2-moves exist: the trap needs both channels
        // exchanged at once.
        let net = trap();
        let greedy = ConflictFree::default().solve(&net).unwrap();
        let options = LocalSearchOptions {
            pair_moves: false,
            ..LocalSearchOptions::default()
        };
        let refined = refine(&net, greedy.clone(), options);
        assert!(
            (refined.rate.value() - greedy.rate.value()).abs() < 1e-12,
            "1-moves must be stuck on the trap"
        );
    }

    #[test]
    fn never_decreases_and_stays_valid() {
        for seed in 0..8u64 {
            let net = NetworkSpec::paper_default().build(seed);
            for base in [
                ConflictFree::default().solve(&net),
                PrimBased::with_seed(seed).solve(&net),
            ] {
                let Ok(base) = base else { continue };
                let refined = refine(&net, base.clone(), LocalSearchOptions::default());
                validate_solution(&net, &refined).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                assert!(
                    refined.rate.value() >= base.rate.value() * (1.0 - 1e-12),
                    "seed {seed}: refinement decreased the rate"
                );
            }
        }
    }

    #[test]
    fn refined_wrapper_solves_end_to_end() {
        let net = trap();
        let refined = Refined {
            inner: PrimBased::default(),
            options: LocalSearchOptions::default(),
        }
        .solve(&net)
        .unwrap();
        let plain = PrimBased::default().solve(&net).unwrap();
        assert!(refined.rate >= plain.rate);
        validate_solution(&net, &refined).unwrap();
    }

    #[test]
    fn fusion_solutions_pass_through_unchanged() {
        use crate::algorithms::baselines::NFusion;
        let net = NetworkSpec::paper_default().build(2);
        if let Ok(sol) = NFusion::default().solve(&net) {
            let out = refine(&net, sol.clone(), LocalSearchOptions::default());
            assert_eq!(out, sol);
        }
    }

    #[test]
    fn never_beats_the_exhaustive_oracle() {
        use crate::feasibility::exhaustive_optimal;
        let net = trap();
        let oracle = exhaustive_optimal(&net, 4).unwrap().rate().value();
        let refined = Refined {
            inner: ConflictFree::default(),
            options: LocalSearchOptions::default(),
        }
        .solve(&net)
        .unwrap();
        assert!(refined.rate.value() <= oracle * (1.0 + 1e-9));
    }
}

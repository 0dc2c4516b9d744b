//! Shared machinery for the topology generators: node placement, exact-size
//! weighted edge sampling, and connectivity repair.

use qnet_graph::connectivity::{bridges, connected_components};
use qnet_graph::{Graph, NodeId};
use rand::seq::IndexedRandom;
use rand::Rng;

use crate::point::Point;
use crate::spec::SpatialGraph;

/// Places `n` nodes uniformly at random in the square `[0, area]²`.
pub fn place_nodes<R: Rng>(n: usize, area: f64, rng: &mut R) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.random_range(0.0..=area), rng.random_range(0.0..=area)))
        .collect()
}

/// Samples exactly `m` distinct node pairs without replacement, where pair
/// `(i, j)` is drawn with probability proportional to `weights[k]` (`k` in
/// the same order as `pairs`). Zero-weight pairs are never selected unless
/// the positive-weight pool is exhausted.
///
/// Each draw is made by a [`PairSampler`] in O(log P) time after an O(P)
/// set-up (O(P) for the rare exact fallback step), with output and RNG use
/// bit-identical to the plain linear scan: re-sum the remaining weights,
/// then subtract them in order until the target goes negative.
///
/// # Panics
///
/// Panics if `m > pairs.len()`, the slices disagree in length, or a weight
/// is negative or not finite.
pub fn sample_weighted_pairs<R: Rng>(
    pairs: &[(usize, usize)],
    weights: &[f64],
    m: usize,
    rng: &mut R,
) -> Vec<(usize, usize)> {
    assert_eq!(pairs.len(), weights.len(), "pairs/weights length mismatch");
    assert!(
        m <= pairs.len(),
        "cannot sample {m} edges from {} candidate pairs",
        pairs.len()
    );
    let mut sampler = PairSampler::new(weights);
    (0..m).map(|_| pairs[sampler.draw(rng)]).collect()
}

/// Positions per block of [`PairSampler`]'s sum tree.
const BLOCK: usize = 64;

/// Weighted sampling without replacement over a fixed weight slice, with
/// the exact draws of the linear-scan reference.
///
/// # The reference step
///
/// The sampler keeps the not-yet-drawn indices in a `remaining` vector
/// and removes each drawn one with `swap_remove`. The reference step over
/// `n = remaining.len()` weights `w₀ … wₙ₋₁` (in `remaining` order, exact
/// sum `S`, exact prefixes `Pᵢ = w₀ + … + wᵢ₋₁`) is:
///
/// 1. `F` = left fold of the weights; if `F == 0`, draw a position
///    uniformly with `random_range(0..n)`.
/// 2. Otherwise `t = random_range(0.0..F)`, which is `F·r` for one uniform
///    `r ∈ [0, 1)` from one `next_u64` (pinned by a test: the code draws
///    `r` and forms the product itself).
/// 3. `T₀ = t`, `Tᵢ₊₁ = fl(Tᵢ − wᵢ)`; the first `k` with `Tₖ₊₁ < 0` is
///    drawn, or `n − 1` if none is.
///
/// # Block sums and the certified step
///
/// Blocks of `B = 64` consecutive positions of `remaining` carry their
/// left-folded sum, and a pairwise tree of depth `d` sums the blocks.
/// After each `swap_remove` the two touched blocks are re-folded and
/// their ancestors recomputed from their children, never delta-updated,
/// so every node's error stays bounded by its height. With `u = 2⁻⁵³`
/// and `γₖ = k·u / (1 − k·u)`, for non-negative weights:
///
/// * the reference total has `|F − S| ≤ γₙ₋₁·S`;
/// * the tree total `G` has `|G − S| ≤ γ_{B−1+d}·S`;
/// * the prefixes the descent builds (at most `d` node sums, then at most
///   `B` weights of one block) have `|P̃ᵢ − Pᵢ| ≤ γ_{2B+2d}·Pᵢ`;
/// * the reference chain has `|Tᵢ − (t − Pᵢ)| ≤ γᵢ·(t + Pᵢ)`;
/// * the two products `t = fl(F·r)` and `est = fl(G·r)` differ by at
///   most `|F − G| + u·(F + G)`.
///
/// The certified step descends the tree to `est` and scans one block for
/// the position `k` with `P̃ₖ ≤ est < P̃ₖ₊₁`. It accepts `k` only if
/// `est − P̃ₖ > M` and `P̃ₖ₊₁ − est > M`, where
///
/// ```text
/// M = u · [(n + B + d + 1)·G + 2(B + d)·P̃ₖ₊₁ + (k + 1)·(est + P̃ₖ₊₁)] · (1 + 2⁻¹⁶)
/// ```
///
/// The first term covers `|t − est|` (`(n − 1) + (B − 1 + d) + 2` to
/// first order), the second the prefix error, the third the chain over
/// its first `k + 1` steps, `γₖ₊₁·(t + Pₖ₊₁)`. The `+1` and the `2⁻¹⁶`
/// slack cover the second-order terms (every index here is below `2³²`,
/// so `γⱼ ≤ j·u·(1 + 2⁻²⁰)`, and `t`, `Pₖ₊₁` exceed `est`, `P̃ₖ₊₁` by at
/// most `2⁻²⁰·G`), `S ≤ (1 + γ_{B−1+d})·G` and the rounding of `M` and of
/// the two differences. Acceptance then gives `t − Pₖ > γₖ₊₁·(t + Pₖ₊₁)`
/// and `Pₖ₊₁ − t > γₖ₊₁·(t + Pₖ₊₁)`: the reference chain stays `≥ 0`
/// through position `k − 1` and goes negative at `k`, so it draws `k`
/// too. A zero weight can never pass both tests.
///
/// # The exact fallback
///
/// When the test fails — `est` within `M` of a boundary, or `G` outside
/// `[1e-280, 1e280]`, where the products could underflow or the sums
/// overflow — the step runs the reference step verbatim with the same
/// `r`. `G > 0` exactly when `F > 0`, since both are sums of finite
/// non-negative weights, so the uniform branch is taken by the same test.
/// [`PairSampler::exact_steps`] counts the fallbacks.
#[derive(Clone, Debug)]
pub struct PairSampler<'w> {
    weights: &'w [f64],
    remaining: Vec<usize>,
    /// `tree[leaves + b]` is block `b`'s sum; `tree[i] = tree[2i] + tree[2i + 1]`.
    tree: Vec<f64>,
    leaves: usize,
    exact_steps: usize,
}

impl<'w> PairSampler<'w> {
    /// Smallest tree total the certified step accepts.
    const MIN_TOTAL: f64 = 1e-280;
    /// Largest tree total the certified step accepts.
    const MAX_TOTAL: f64 = 1e280;
    /// Covers the second-order terms of the margin bound.
    const SLACK: f64 = 1.0 + 1.0 / 65_536.0;

    /// A sampler over every index of `weights`.
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or not finite, or if there are
    /// `2³²` or more weights.
    pub fn new(weights: &'w [f64]) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        assert!(
            weights.len() < u32::MAX as usize,
            "too many weights: {}",
            weights.len()
        );
        let blocks = weights.len().div_ceil(BLOCK);
        let leaves = blocks.next_power_of_two();
        let mut sampler = PairSampler {
            weights,
            remaining: (0..weights.len()).collect(),
            tree: vec![0.0; 2 * leaves],
            leaves,
            exact_steps: 0,
        };
        for b in 0..blocks {
            sampler.tree[leaves + b] = sampler.block_sum(b);
        }
        for i in (1..leaves).rev() {
            sampler.tree[i] = sampler.tree[2 * i] + sampler.tree[2 * i + 1];
        }
        sampler
    }

    /// How many draws so far fell back to the exact linear step.
    pub fn exact_steps(&self) -> usize {
        self.exact_steps
    }

    /// Draws one remaining index, with probability proportional to its
    /// weight (uniformly once every remaining weight is zero), and
    /// removes it.
    ///
    /// # Panics
    ///
    /// Panics if the sampler is empty.
    pub fn draw<R: Rng>(&mut self, rng: &mut R) -> usize {
        let pos = if self.tree[1] > 0.0 {
            let r = rng.random_range(0.0..1.0);
            match self.certified_pick(r) {
                Some(pos) => pos,
                None => {
                    self.exact_steps += 1;
                    self.exact_pick(r)
                }
            }
        } else {
            rng.random_range(0..self.remaining.len())
        };
        self.remove(pos)
    }

    /// The certified step: the position the reference step draws for
    /// uniform `r`, or `None` when the error bound cannot decide it.
    fn certified_pick(&self, r: f64) -> Option<usize> {
        let total = self.tree[1];
        if !(Self::MIN_TOTAL..=Self::MAX_TOTAL).contains(&total) {
            return None;
        }
        let est = total * r;
        let (mut node, mut below) = (1, 0.0);
        while node < self.leaves {
            let split = below + self.tree[2 * node];
            node *= 2;
            if est >= split {
                below = split;
                node += 1;
            }
        }
        let lo = (node - self.leaves) * BLOCK;
        let hi = (lo + BLOCK).min(self.remaining.len());
        for pos in lo..hi {
            let above = below + self.weights[self.remaining[pos]];
            if est < above {
                let depth = self.leaves.trailing_zeros() as usize;
                let bound = (self.remaining.len() + BLOCK + depth + 1) as f64 * total
                    + (2 * (BLOCK + depth)) as f64 * above
                    + (pos + 1) as f64 * (est + above);
                let margin = bound * (f64::EPSILON / 2.0) * Self::SLACK;
                return (est - below > margin && above - est > margin).then_some(pos);
            }
            below = above;
        }
        None
    }

    /// The reference step for uniform `r`, verbatim.
    fn exact_pick(&self, r: f64) -> usize {
        let total: f64 = self.remaining.iter().map(|&k| self.weights[k]).sum();
        let mut target = total * r;
        let mut pos = self.remaining.len() - 1; // fallback for fp round-off
        for (idx, &k) in self.remaining.iter().enumerate() {
            target -= self.weights[k];
            if target < 0.0 {
                pos = idx;
                break;
            }
        }
        pos
    }

    /// Removes position `pos` (`swap_remove`) and refreshes the sums of
    /// the blocks it touched.
    fn remove(&mut self, pos: usize) -> usize {
        let last = self.remaining.len() - 1;
        let k = self.remaining.swap_remove(pos);
        self.refresh(pos / BLOCK);
        if last / BLOCK != pos / BLOCK {
            self.refresh(last / BLOCK);
        }
        k
    }

    /// Left fold of block `b`'s weights (0 past the end).
    fn block_sum(&self, b: usize) -> f64 {
        let hi = ((b + 1) * BLOCK).min(self.remaining.len());
        let lo = (b * BLOCK).min(hi);
        self.remaining[lo..hi]
            .iter()
            .fold(0.0, |sum, &k| sum + self.weights[k])
    }

    /// Re-folds block `b` and recomputes its ancestors from their children.
    fn refresh(&mut self, b: usize) {
        let mut node = self.leaves + b;
        self.tree[node] = self.block_sum(b);
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node] + self.tree[2 * node + 1];
        }
    }
}

/// Builds a [`SpatialGraph`] from node positions and an edge list of node
/// index pairs; edge payloads are Euclidean lengths.
pub fn assemble(positions: &[Point], edges: &[(usize, usize)]) -> SpatialGraph {
    let mut g: SpatialGraph = Graph::with_capacity(positions.len(), edges.len());
    for &p in positions {
        g.add_node(p);
    }
    for &(a, b) in edges {
        let length = positions[a].distance(positions[b]);
        g.add_edge(NodeId::new(a), NodeId::new(b), length);
    }
    g
}

/// Repairs connectivity while preserving the edge count.
///
/// While the graph is disconnected: add the shortest absent edge joining
/// two different components, then remove a random non-bridge edge (which
/// exists whenever we just closed a gap in a graph with a cycle; if the
/// graph is a forest, the added edge is kept and the count grows by one —
/// with the paper's default of `D = 6 ≥ 2` this never happens in practice).
pub fn ensure_connected<R: Rng>(g: SpatialGraph, rng: &mut R) -> SpatialGraph {
    let mut g = g;
    loop {
        let (labels, comps) = connected_components(&g);
        if comps <= 1 {
            return g;
        }
        // Find the shortest cross-component pair.
        let mut best: Option<(f64, usize, usize)> = None;
        for a in 0..g.node_count() {
            for b in (a + 1)..g.node_count() {
                if labels[a] != labels[b] {
                    let d = g.node(NodeId::new(a)).distance(*g.node(NodeId::new(b)));
                    if best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, a, b));
                    }
                }
            }
        }
        let (_, a, b) = best.expect("disconnected graph has a cross pair");

        // Remove one random non-bridge edge to keep |E| constant, but never
        // one we cannot afford (a forest keeps all edges).
        let bridge_set: std::collections::HashSet<_> = bridges(&g).into_iter().collect();
        let removable: Vec<_> = g.edge_ids().filter(|e| !bridge_set.contains(e)).collect();
        let to_remove = removable.choose(rng).copied();

        let mut next: SpatialGraph = Graph::with_capacity(g.node_count(), g.edge_count() + 1);
        for n in g.node_ids() {
            next.add_node(*g.node(n));
        }
        for e in g.edge_refs() {
            if Some(e.id) != to_remove {
                next.add_edge(e.a, e.b, *e.payload);
            }
        }
        let (na, nb) = (NodeId::new(a), NodeId::new(b));
        let length = next.node(na).distance(*next.node(nb));
        next.add_edge(na, nb, length);
        g = next;
    }
}

/// All unordered node pairs `(i, j)`, `i < j`, for `n` nodes.
pub fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            out.push((i, j));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnet_graph::connectivity::is_connected;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn place_nodes_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = place_nodes(100, 10_000.0, &mut rng);
        assert_eq!(pts.len(), 100);
        assert!(pts
            .iter()
            .all(|p| (0.0..=10_000.0).contains(&p.x) && (0.0..=10_000.0).contains(&p.y)));
    }

    #[test]
    fn weighted_sampling_exact_count_and_distinct() {
        let mut rng = StdRng::seed_from_u64(2);
        let pairs = all_pairs(10);
        let weights = vec![1.0; pairs.len()];
        let picked = sample_weighted_pairs(&pairs, &weights, 20, &mut rng);
        assert_eq!(picked.len(), 20);
        let mut sorted = picked.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "no duplicate pairs");
    }

    #[test]
    fn weighted_sampling_prefers_heavy_pairs() {
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = vec![(0, 1), (0, 2), (1, 2)];
        let weights = vec![1000.0, 0.0001, 0.0001];
        let mut hits = 0;
        for _ in 0..100 {
            let picked = sample_weighted_pairs(&pairs, &weights, 1, &mut rng);
            if picked[0] == (0, 1) {
                hits += 1;
            }
        }
        assert!(hits > 95, "heavy pair picked {hits}/100 times");
    }

    #[test]
    fn weighted_sampling_zero_weights_fall_back_to_uniform() {
        let mut rng = StdRng::seed_from_u64(4);
        let pairs = all_pairs(5);
        let weights = vec![0.0; pairs.len()];
        let picked = sample_weighted_pairs(&pairs, &weights, pairs.len(), &mut rng);
        assert_eq!(picked.len(), pairs.len());
    }

    /// Repeats one word, so every `random_range(0.0..1.0)` is one fixed `r`.
    struct Repeat(u64);

    impl RngCore for Repeat {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn float_range_draw_is_the_scaled_unit_draw() {
        // The sampler draws `r = random_range(0.0..1.0)` and forms `total * r`
        // itself; the reference draws `random_range(0.0..total)`. The two
        // must agree bit for bit, on the same stream position.
        for t in [
            1e-300,
            1e-12,
            0.1,
            1.0,
            3.0,
            1234.5678,
            6.02e23,
            1e300,
            f64::MAX,
        ] {
            let mut direct = StdRng::seed_from_u64(77);
            let mut scaled = StdRng::seed_from_u64(77);
            for _ in 0..1000 {
                let a: f64 = direct.random_range(0.0..t);
                let b = t * scaled.random_range::<f64, _>(0.0..1.0);
                assert_eq!(a.to_bits(), b.to_bits(), "t = {t}");
            }
            assert_eq!(direct.next_u64(), scaled.next_u64(), "t = {t}");
        }
    }

    #[test]
    fn certified_step_declines_on_an_exact_prefix_boundary() {
        // Four unit weights and r = 1/2: est = 2.0 = P₂ exactly.
        let weights = [1.0; 4];
        let sampler = PairSampler::new(&weights);
        assert_eq!(sampler.certified_pick(0.5), None);
        // The reference chain: 2 − 1 = 1, 1 − 1 = 0 (not negative), 0 − 1 < 0.
        assert_eq!(sampler.exact_pick(0.5), 2);
        // Off the boundary the certified step decides alone.
        assert_eq!(sampler.certified_pick(0.4), Some(1));

        let mut sampler = PairSampler::new(&weights);
        assert_eq!(sampler.draw(&mut Repeat(1 << 63)), 2);
        assert_eq!(sampler.exact_steps(), 1);
    }

    #[test]
    fn sum_tree_tracks_swap_removes() {
        let mut rng = StdRng::seed_from_u64(8);
        let weights: Vec<f64> = (0..1000).map(|i| (i % 7) as f64).collect();
        let mut sampler = PairSampler::new(&weights);
        while !sampler.remaining.is_empty() {
            sampler.draw(&mut rng);
            let exact: f64 = sampler.remaining.iter().map(|&k| weights[k]).sum();
            // Integer weights: every sum is exact in any order.
            assert_eq!(sampler.tree[1], exact);
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weights_are_rejected() {
        PairSampler::new(&[1.0, -0.5]);
    }

    #[test]
    fn assemble_sets_lengths() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        let g = assemble(&pts, &[(0, 1)]);
        let e = g.edge_ids().next().unwrap();
        assert_eq!(*g.edge(e).payload, 5.0);
    }

    #[test]
    fn ensure_connected_repairs_and_preserves_edge_count() {
        let mut rng = StdRng::seed_from_u64(5);
        // Two separate triangles.
        let pts: Vec<Point> = (0..6)
            .map(|i| Point::new(i as f64 * 100.0, if i < 3 { 0.0 } else { 5000.0 }))
            .collect();
        let edges = vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)];
        let g = assemble(&pts, &edges);
        assert!(!is_connected(&g));
        let repaired = ensure_connected(g, &mut rng);
        assert!(is_connected(&repaired));
        assert_eq!(repaired.edge_count(), 6);
    }

    #[test]
    fn ensure_connected_noop_when_connected() {
        let mut rng = StdRng::seed_from_u64(6);
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let g = assemble(&pts, &[(0, 1)]);
        let repaired = ensure_connected(g, &mut rng);
        assert_eq!(repaired.edge_count(), 1);
    }

    #[test]
    fn all_pairs_count() {
        assert_eq!(all_pairs(5).len(), 10);
        assert!(all_pairs(1).is_empty());
    }
}

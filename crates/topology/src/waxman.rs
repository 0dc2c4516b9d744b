//! Waxman random graph generator (Waxman, JSAC 1988).
//!
//! Pair `(u, v)` is connected with probability proportional to
//! `β · exp(−d(u, v) / (α_w · L))`, where `L` is the maximum possible
//! distance in the area. The paper fixes the *total* edge count through the
//! average degree `D` ("We determine the total number of edges based on an
//! average degree D of nodes"), so we sample exactly `⌊D·n/2⌋` distinct
//! pairs weighted by the Waxman kernel instead of tossing independent
//! coins, and then repair connectivity preserving the count.

use rand::Rng;

use crate::builder::{all_pairs, assemble, ensure_connected, place_nodes, sample_weighted_pairs};
use crate::point::Point;
use crate::spec::SpatialGraph;

/// Waxman kernel parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaxmanParams {
    /// Locality parameter `α_w ∈ (0, 1]`: smaller values concentrate edges
    /// on short pairs. Classic value 0.4.
    pub alpha: f64,
    /// Scale parameter `β` (cancels out under exact-count sampling, kept
    /// for fidelity with the literature). Classic value 0.1.
    pub beta: f64,
}

impl Default for WaxmanParams {
    fn default() -> Self {
        WaxmanParams {
            alpha: 0.4,
            beta: 0.1,
        }
    }
}

/// Generates a connected Waxman graph with `n` nodes in `[0, area]²` and
/// exactly `⌊avg_degree · n / 2⌋` edges.
///
/// # Panics
///
/// Panics if the requested edge count exceeds `n·(n−1)/2` or `n < 2`.
pub fn waxman<R: Rng>(
    n: usize,
    avg_degree: f64,
    area: f64,
    params: WaxmanParams,
    rng: &mut R,
) -> SpatialGraph {
    assert!(n >= 2, "need at least two nodes, got {n}");
    let m = ((avg_degree * n as f64) / 2.0).floor() as usize;
    let positions = place_nodes(n, area, rng);
    let g = waxman_over(&positions, m, area, params, rng);
    ensure_connected(g, rng)
}

/// Waxman edges over pre-placed positions (no connectivity repair); used
/// by tests and by generators that control placement themselves.
pub fn waxman_over<R: Rng>(
    positions: &[Point],
    m: usize,
    area: f64,
    params: WaxmanParams,
    rng: &mut R,
) -> SpatialGraph {
    let pairs = all_pairs(positions.len());
    let weights = waxman_weights(positions, area, params);
    let edges = sample_weighted_pairs(&pairs, &weights, m, rng);
    assemble(positions, &edges)
}

/// The Waxman kernel `β · exp(−d / (α_w · L))` of every node pair, in
/// [`all_pairs`] order, with `L` the diagonal of the `[0, area]²` square.
pub fn waxman_weights(positions: &[Point], area: f64, params: WaxmanParams) -> Vec<f64> {
    let l_max = area * std::f64::consts::SQRT_2;
    // Walks the pairs directly, into an exactly sized vector: a second
    // `all_pairs` vector next to the caller's would add 16 bytes per pair
    // to peak memory.
    let n = positions.len();
    let mut weights = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for (i, a) in positions.iter().enumerate() {
        for b in &positions[i + 1..] {
            let d = a.distance(*b);
            weights.push(params.beta * (-d / (params.alpha * l_max)).exp());
        }
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnet_graph::connectivity::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_edge_count_and_connected() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = waxman(60, 6.0, 10_000.0, WaxmanParams::default(), &mut rng);
        assert_eq!(g.node_count(), 60);
        assert_eq!(g.edge_count(), 180);
        assert!(is_connected(&g));
        assert!((g.average_degree() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn short_edges_dominate() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = waxman(80, 6.0, 10_000.0, WaxmanParams::default(), &mut rng);
        let mean_edge: f64 = g.edge_refs().map(|e| *e.payload).sum::<f64>() / g.edge_count() as f64;
        // Compare against the mean distance over *all* pairs of the same
        // placed nodes: the Waxman kernel must pull the selected edges
        // well below that baseline regardless of the RNG stream.
        let nodes: Vec<_> = g.node_payloads().copied().collect();
        let mut all_sum = 0.0;
        let mut all_n = 0u64;
        for (i, a) in nodes.iter().enumerate() {
            for b in nodes.iter().skip(i + 1) {
                all_sum += a.distance(*b);
                all_n += 1;
            }
        }
        let mean_pair = all_sum / all_n as f64;
        assert!(
            mean_edge < 0.9 * mean_pair,
            "mean edge length {mean_edge} not biased below uniform-pair mean {mean_pair}"
        );
    }

    #[test]
    fn deterministic_under_same_seed() {
        let g1 = waxman(
            30,
            4.0,
            1000.0,
            WaxmanParams::default(),
            &mut StdRng::seed_from_u64(42),
        );
        let g2 = waxman(
            30,
            4.0,
            1000.0,
            WaxmanParams::default(),
            &mut StdRng::seed_from_u64(42),
        );
        let e1: Vec<_> = g1.edge_refs().map(|e| (e.a, e.b)).collect();
        let e2: Vec<_> = g2.edge_refs().map(|e| (e.a, e.b)).collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn small_alpha_is_more_local() {
        let mean = |alpha: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = WaxmanParams { alpha, beta: 0.1 };
            let mut total = 0.0;
            let trials = 5;
            for t in 0..trials {
                let _ = t;
                let g = waxman(60, 6.0, 10_000.0, params, &mut rng);
                total += g.edge_refs().map(|e| *e.payload).sum::<f64>() / g.edge_count() as f64;
            }
            total / trials as f64
        };
        assert!(mean(0.05, 1) < mean(2.0, 1));
    }
}

//! Differential battery: the certified block-sum pair sampler against the
//! linear-scan oracle in `qnet-conformance`.
//!
//! Both must return the same pairs in the same order and leave the RNG in
//! the same state (checked by comparing the next `next_u64` of twin
//! streams). The weight families cover the shapes the generators produce
//! (Waxman kernel, Volchenkov products) and the ones that stress rounding:
//! exact integer ties, runs of zeros, and weights spread over 13 decades.

use muerp::conformance::sample_weighted_pairs_linear;
use muerp::topology::builder::{all_pairs, place_nodes, sample_weighted_pairs, PairSampler};
use muerp::topology::waxman::{waxman_weights, WaxmanParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

const FAMILIES: [&str; 6] = ["uniform", "equal", "zeros", "tiny", "waxman", "volchenkov"];

/// Candidate-pair weights of family `name` over `n` nodes.
fn weights(name: &str, n: usize, rng: &mut StdRng) -> Vec<f64> {
    let pairs = all_pairs(n);
    match name {
        "uniform" => pairs.iter().map(|_| rng.random_range(0.0..1.0)).collect(),
        "equal" => vec![3.0; pairs.len()],
        "zeros" => pairs
            .iter()
            .map(|_| {
                if rng.random_bool(0.3) {
                    0.0
                } else {
                    rng.random_range(0.0..1.0)
                }
            })
            .collect(),
        "tiny" => pairs
            .iter()
            .map(|_| (-rng.random_range(0.0..30.0f64)).exp())
            .collect(),
        "waxman" => waxman(n, rng),
        "volchenkov" => {
            let mut ranks: Vec<usize> = (0..n).collect();
            ranks.shuffle(rng);
            let mut node = vec![0.0f64; n];
            for (rank, &v) in ranks.iter().enumerate() {
                node[v] = ((rank + 1) as f64).powf(-1.0 / 1.5);
            }
            pairs.iter().map(|&(i, j)| node[i] * node[j]).collect()
        }
        other => panic!("unknown family {other}"),
    }
}

/// The Waxman kernel with the generator's default parameters over nodes
/// placed in the paper's 10 000 × 10 000 area.
fn waxman(n: usize, rng: &mut StdRng) -> Vec<f64> {
    let area = 10_000.0;
    waxman_weights(&place_nodes(n, area, rng), area, WaxmanParams::default())
}

/// Runs both samplers on twin streams and checks output and RNG state.
fn assert_agree(weights: &[f64], m: usize, seed: u64, what: &str) {
    let pairs: Vec<(usize, usize)> = (0..weights.len()).map(|k| (k, k + 1)).collect();
    let mut fast_rng = StdRng::seed_from_u64(seed);
    let mut slow_rng = StdRng::seed_from_u64(seed);
    let fast = sample_weighted_pairs(&pairs, weights, m, &mut fast_rng);
    let slow = sample_weighted_pairs_linear(&pairs, weights, m, &mut slow_rng);
    assert_eq!(fast, slow, "{what}: m = {m}, seed {seed}");
    assert_eq!(
        fast_rng.next_u64(),
        slow_rng.next_u64(),
        "{what}: m = {m}, seed {seed}: RNG state diverged"
    );
}

#[test]
fn every_family_agrees_for_small_n_and_every_draw_count_shape() {
    for (f, family) in FAMILIES.iter().enumerate() {
        for n in 2..=40usize {
            let seed = (f * 1000 + n) as u64;
            let w = weights(family, n, &mut StdRng::seed_from_u64(seed));
            let p = w.len();
            let mut counts = vec![0, 1.min(p), p / 3, p / 2, p - 1, p];
            counts.sort_unstable();
            counts.dedup();
            for m in counts {
                assert_agree(&w, m, seed ^ 0x5eed, &format!("{family} n = {n}"));
            }
        }
    }
}

#[test]
fn waxman_weights_agree_at_generator_sizes() {
    for (n, seed) in [(300usize, 11u64), (1100, 7)] {
        let w = waxman(n, &mut StdRng::seed_from_u64(seed));
        // The generators draw ⌊D·n/2⌋ pairs; the paper's D = 6.
        assert_agree(&w, 3 * n, seed, &format!("waxman n = {n}"));
    }
}

/// Repeats one word, so every `random_range(0.0..1.0)` is one fixed `r`.
struct Repeat(u64);

impl RngCore for Repeat {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

#[test]
fn exact_prefix_boundaries_take_the_exact_step_and_agree() {
    // Integer weights and dyadic `r` put the target exactly on a prefix
    // boundary: `r = 1/2` over 200 unit weights aims at P₁₀₀ = 100.0,
    // inside the second block. The certified step must decline there.
    for (len, word) in [
        (4usize, 1u64 << 63),
        (200, 1 << 63),
        (200, 1 << 62),
        (128, 3 << 62),
    ] {
        let w = vec![1.0; len];
        let pairs: Vec<(usize, usize)> = (0..len).map(|k| (k, k)).collect();
        let fast = sample_weighted_pairs(&pairs, &w, len, &mut Repeat(word));
        let slow = sample_weighted_pairs_linear(&pairs, &w, len, &mut Repeat(word));
        assert_eq!(fast, slow, "{len} unit weights, word {word:#x}");

        let mut sampler = PairSampler::new(&w);
        let first = sampler.draw(&mut Repeat(word));
        assert_eq!((first, first), slow[0]);
        assert_eq!(
            sampler.exact_steps(),
            1,
            "{len} unit weights, word {word:#x}"
        );
    }
}

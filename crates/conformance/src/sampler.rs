//! The cold oracle for `qnet_topology::builder::sample_weighted_pairs`:
//! the original linear-scan sampler, kept verbatim.
//!
//! Every draw re-sums all remaining weights with a left fold, draws a
//! target in `[0, total)` and subtracts the weights in `remaining` order
//! until the target goes negative: O(m·P) float operations for `m` draws
//! out of `P` pairs. The production sampler must return the same `Vec`
//! and leave the RNG in the same state; the differential battery in the
//! facade's `tests/sampler_differential.rs` checks both.

use rand::Rng;

/// Samples exactly `m` distinct pairs without replacement, pair `k` with
/// probability proportional to `weights[k]`, by a linear scan per draw.
///
/// # Panics
///
/// Panics if `m > pairs.len()` or the slices disagree in length.
pub fn sample_weighted_pairs_linear<R: Rng>(
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
    let mut remaining: Vec<usize> = (0..pairs.len()).collect();
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let total: f64 = remaining.iter().map(|&k| weights[k]).sum();
        let picked_pos = if total > 0.0 {
            let mut target = rng.random_range(0.0..total);
            let mut pos = remaining.len() - 1; // fallback for fp round-off
            for (idx, &k) in remaining.iter().enumerate() {
                target -= weights[k];
                if target < 0.0 {
                    pos = idx;
                    break;
                }
            }
            pos
        } else {
            // All remaining weights are zero: fall back to uniform.
            rng.random_range(0..remaining.len())
        };
        let k = remaining.swap_remove(picked_pos);
        out.push(pairs[k]);
    }
    out
}

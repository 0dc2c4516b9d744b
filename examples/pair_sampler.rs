//! Times the Waxman generator's weighted pair sampler against the
//! linear-scan oracle it replaced, on the exact weights
//! `TopologySpec::generate` would sample from, and counts how many draws
//! fell back to the exact linear step.
//!
//! ```text
//! cargo run --release --example pair_sampler            # n = 60, 1100, 2410
//! cargo run --release --example pair_sampler -- 300 600
//! ```
//!
//! The oracle costs O(m·P) for m = 3n draws out of P = n(n−1)/2 pairs,
//! so n = 2410 takes tens of seconds for the oracle alone.

use std::time::Instant;

use muerp::conformance::sample_weighted_pairs_linear;
use muerp::topology::builder::{all_pairs, place_nodes, PairSampler};
use muerp::topology::waxman::{waxman_weights, WaxmanParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 2024;
const AREA: f64 = 10_000.0;

/// Median wall time in ms of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("node counts are integers"))
        .collect();
    let sizes = if sizes.is_empty() {
        vec![60, 1100, 2410]
    } else {
        sizes
    };
    println!("| n | pairs P | draws m | linear scan ms | certified ms | speed-up | exact steps |");
    println!("|---|---|---|---|---|---|---|");
    for n in sizes {
        // The generator's stream: placement first, then the draws.
        let mut rng = StdRng::seed_from_u64(SEED);
        let positions = place_nodes(n, AREA, &mut rng);
        let pairs = all_pairs(n);
        let weights = waxman_weights(&positions, AREA, WaxmanParams::default());
        let m = 3 * n;

        let mut certified = Vec::new();
        let mut exact_steps = 0;
        let fast_ms = median_ms(if n < 500 { 101 } else { 5 }, || {
            let mut draw_rng = rng.clone();
            let mut sampler = PairSampler::new(&weights);
            certified = (0..m).map(|_| pairs[sampler.draw(&mut draw_rng)]).collect();
            exact_steps = sampler.exact_steps();
        });
        let mut linear = Vec::new();
        let slow_ms = median_ms(if n < 500 { 101 } else { 1 }, || {
            linear = sample_weighted_pairs_linear(&pairs, &weights, m, &mut rng.clone());
        });
        assert_eq!(certified, linear, "n = {n}: samplers disagree");
        println!(
            "| {n} | {} | {m} | {slow_ms:.2} | {fast_ms:.2} | {:.0}x | {exact_steps} |",
            pairs.len(),
            slow_ms / fast_ms
        );
    }
}

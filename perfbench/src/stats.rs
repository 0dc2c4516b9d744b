//! The benchmark's own arithmetic: percentiles, medians, and the
//! derived per-layer ratios. Kept free of I/O so `tests/arithmetic.rs`
//! can pin every rule.

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail percentile as reported: which percentile, its value, and how
/// many samples it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The whole percentile reported (e.g. 99).
    pub percentile: u32,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples: `n − ⌈p·n/100⌉`.
pub fn beyond(n: usize, p: u32) -> usize {
    n - (p as usize * n).div_ceil(100)
}

/// The highest whole percentile, at most `cap`, with at least
/// [`TAIL_BEYOND`] samples beyond it; `None` when not even the median
/// qualifies (fewer than 20 samples).
pub fn tail_percentile(n: usize, cap: u32) -> Option<u32> {
    (50..=cap.min(99))
        .rev()
        .find(|&p| beyond(n, p) >= TAIL_BEYOND)
}

/// Nearest-rank `p`-th percentile of an ascending slice (`p` in
/// `(0, 100]`); `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even
/// counts); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of `samples` by the [`tail_percentile`] rule, capped at
/// `cap`; `None` below 20 samples.
pub fn tail(samples: &[f64], cap: u32) -> Option<Tail> {
    let percentile_used = tail_percentile(samples.len(), cap)?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: percentile_used,
        value: percentile(&v, percentile_used as f64),
        samples: v.len(),
    })
}

/// `num / den`, or 0 when nothing was counted.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `graph.delta.recompute_share`: recomputed / (repaired + recomputed)
/// — how often a dirty cache entry fell back to a full search instead
/// of an in-place repair. 0 when no entry was dirty.
pub fn recompute_share(repaired: u64, recomputed: u64) -> f64 {
    share(recomputed, repaired + recomputed)
}

/// `finder.searches_per_decision`: full Algorithm-1 searches per
/// decided operation.
pub fn searches_per_decision(searches: u64, decisions: u64) -> f64 {
    share(searches, decisions)
}

/// `serve.engine_self_ms`: serve-call wall time not covered by any
/// finder, Dijkstra, or repair span, in milliseconds. Saturates at 0
/// (whole-microsecond span clocks can make the covered time read a
/// little above the wall).
pub fn engine_self_ms(serve_wall_us: u64, covered_us: u64) -> f64 {
    serve_wall_us.saturating_sub(covered_us) as f64 / 1e3
}

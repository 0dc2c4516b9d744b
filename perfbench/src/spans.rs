//! Reading the span tree a traced pass leaves behind.
//!
//! A span's **self time** is its duration minus the part of its
//! interval covered by its direct children — the *union* of their
//! intervals, so pool workers running side by side under one parent
//! are not counted twice. Spans carry whole microseconds.

use qnet_obs::SpanSnapshot;

/// Length of the union of half-open `[start, end)` intervals after
/// clipping each to `[lo, hi)`.
pub fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// The spans of one capture with their child lists.
pub struct SpanTree<'a> {
    spans: &'a [SpanSnapshot],
    children: Vec<Vec<usize>>,
}

impl<'a> SpanTree<'a> {
    /// Indexes `spans` (parents precede children, as captured).
    pub fn new(spans: &'a [SpanSnapshot]) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent.filter(|&p| p < i) {
                children[p].push(i);
            }
        }
        SpanTree { spans, children }
    }

    fn interval(&self, i: usize) -> (u64, u64) {
        let s = &self.spans[i];
        (s.start_us, s.start_us + s.duration_us)
    }

    /// Indices of the spans named `name`.
    pub fn named(&self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        let spans = self.spans;
        (0..spans.len()).filter(move |&i| spans[i].name == name)
    }

    /// Duration of span `i` in microseconds.
    pub fn duration_us(&self, i: usize) -> u64 {
        self.spans[i].duration_us
    }

    /// Self time of span `i`: duration minus its direct children's
    /// interval union.
    pub fn self_us(&self, i: usize) -> u64 {
        let (lo, hi) = self.interval(i);
        let kids = self.children[i].iter().map(|&c| self.interval(c)).collect();
        (hi - lo).saturating_sub(union_len(kids, lo, hi))
    }

    /// Part of span `i`'s interval covered by descendants for which
    /// `pick` holds (the search stops at each picked span).
    pub fn covered_us(&self, i: usize, pick: impl Fn(&str) -> bool) -> u64 {
        let (lo, hi) = self.interval(i);
        let mut picked = Vec::new();
        let mut stack = self.children[i].clone();
        while let Some(j) = stack.pop() {
            if pick(&self.spans[j].name) {
                picked.push(self.interval(j));
            } else {
                stack.extend(&self.children[j]);
            }
        }
        union_len(picked, lo, hi)
    }

    /// Summed self time of every span named `name`, microseconds.
    pub fn self_us_named(&self, name: &'a str) -> u64 {
        self.named(name).map(|i| self.self_us(i)).sum()
    }

    /// Durations of every span named `name`, microseconds.
    pub fn durations_named(&self, name: &'a str) -> Vec<u64> {
        self.named(name).map(|i| self.duration_us(i)).collect()
    }

    /// `trace.coverage` of root span `i`: the share of its wall time
    /// inside descendants for which `pick` holds (see
    /// [`covered_us`](Self::covered_us)). 1 for an empty root.
    pub fn coverage(&self, i: usize, pick: impl Fn(&str) -> bool) -> f64 {
        let wall = self.duration_us(i);
        if wall == 0 {
            1.0
        } else {
            self.covered_us(i, pick) as f64 / wall as f64
        }
    }
}

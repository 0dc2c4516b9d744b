//! Single-source shortest paths with pluggable costs and relay filters.
//!
//! [`dijkstra_into`] is the engine behind the paper's **Algorithm 1** (maximum
//! entanglement-rate channel): after the [`crate::NegLog`] transform the
//! max-rate channel is the min-cost path, with the twist that only quantum
//! switches *with at least two free qubits* may appear in the interior of a
//! channel. That twist is expressed here as the `can_relay` vertex filter:
//! edges are relaxed out of a vertex only if it is the source or the filter
//! admits it, so every reported path has all interior vertices admitted
//! while source and destination are unconstrained.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{EdgeId, EdgeRef, Graph, NodeId};

/// A simple path through the graph: node sequence, the edges between them,
/// and the total additive cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    /// Visited nodes from source to destination (inclusive).
    pub nodes: Vec<NodeId>,
    /// Edges between consecutive nodes (`edges.len() == nodes.len() - 1`).
    pub edges: Vec<EdgeId>,
    /// Total additive cost of the path.
    pub cost: f64,
}

impl Path {
    /// Number of edges (the paper's channel *distance* `l`).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` for a zero-edge path (source == destination).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Interior nodes of the path (everything but the two endpoints).
    pub fn interior(&self) -> &[NodeId] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }

    /// Source node.
    ///
    /// # Panics
    ///
    /// Panics if the path has no nodes (never produced by this crate).
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("path has at least one node")
    }

    /// Destination node.
    ///
    /// # Panics
    ///
    /// Panics if the path has no nodes (never produced by this crate).
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("path has at least one node")
    }
}

/// Configuration of a Dijkstra run: edge costs and the relay filter.
///
/// `edge_cost` returns the non-negative additive cost of traversing an
/// edge; returning `f64::INFINITY` excludes the edge. `can_relay` decides
/// whether a vertex may appear in the *interior* of a path; the source and
/// any destination are always allowed regardless of the filter.
#[derive(Clone, Copy, Debug)]
pub struct DijkstraConfig<FC, FR> {
    /// Cost of one edge; `INFINITY` to exclude it.
    pub edge_cost: FC,
    /// Whether a vertex may be an interior relay.
    pub can_relay: FR,
}

impl<FC> DijkstraConfig<FC, fn(NodeId) -> bool> {
    /// A configuration where every vertex may relay.
    pub fn all_nodes(edge_cost: FC) -> Self {
        fn always(_: NodeId) -> bool {
            true
        }
        DijkstraConfig {
            edge_cost,
            can_relay: always,
        }
    }
}

/// The owned result of a [`dijkstra_into`] run from one source
/// (materialized by [`DijkstraView::to_run`]).
#[derive(Clone, Debug, PartialEq)]
pub struct DijkstraRun {
    source: NodeId,
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
}

impl Default for DijkstraRun {
    /// An empty staging run (no vertices, placeholder source) for
    /// [`DijkstraView::write_run`] to fill — what batch-refresh paths
    /// use to recycle result buffers through a thread pool.
    fn default() -> Self {
        DijkstraRun {
            source: NodeId::new(0),
            dist: Vec::new(),
            prev: Vec::new(),
        }
    }
}

/// Reusable scratch state for repeated Dijkstra runs.
///
/// Every Dijkstra run needs `dist`/`prev`/`settled` arrays and a
/// binary heap; allocating them fresh per call dominates the cost of
/// searches on small-to-medium graphs, and the MUERP solvers issue
/// hundreds of such searches per solve. A workspace owns those buffers
/// and *generation-stamps* them: each run bumps a generation counter and
/// a per-slot stamp records which run last wrote the slot, so resetting
/// between runs is O(1) — no clearing, no re-filling with `INFINITY`.
///
/// The same workspace may be reused across graphs of different sizes
/// (buffers grow monotonically) and across arbitrary cost/relay
/// configurations; a run never observes state from a previous run
/// (the proptest suite in `tests/properties.rs` pits a deliberately
/// dirty workspace against fresh runs).
#[derive(Clone, Debug)]
pub struct DijkstraWorkspace {
    pub(crate) generation: u32,
    pub(crate) active_len: usize,
    pub(crate) source: NodeId,
    pub(crate) stamp: Vec<u32>,
    pub(crate) dist: Vec<f64>,
    pub(crate) prev: Vec<Option<(NodeId, EdgeId)>>,
    pub(crate) settled: Vec<bool>,
    pub(crate) heap: BinaryHeap<HeapEntry>,
}

impl Default for DijkstraWorkspace {
    fn default() -> Self {
        DijkstraWorkspace {
            generation: 0,
            active_len: 0,
            source: NodeId::new(0),
            stamp: Vec::new(),
            dist: Vec::new(),
            prev: Vec::new(),
            settled: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }
}

impl DijkstraWorkspace {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for graphs of `nodes` vertices.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut ws = Self::default();
        ws.grow(nodes);
        ws
    }

    /// Starts a new run over `n` vertices: O(1) unless buffers must grow
    /// or the 32-bit generation wraps (once per ~4 billion runs).
    pub(crate) fn begin(&mut self, n: usize) {
        qnet_obs::counter!("graph.workspace.runs");
        self.grow(n);
        self.active_len = n;
        self.heap.clear();
        if self.generation == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    fn grow(&mut self, n: usize) {
        if n > self.stamp.len() {
            // Stamp 0 can never equal the post-`begin` generation (≥ 1),
            // so fresh slots always read as untouched. Growth is the
            // arena's only allocation; `runs − grown` over `runs` is
            // the zero-alloc reuse rate the profile report prints.
            qnet_obs::counter!("graph.workspace.grown");
            self.stamp.resize(n, 0);
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, None);
            self.settled.resize(n, false);
        }
    }

    #[inline]
    pub(crate) fn is_current(&self, i: usize) -> bool {
        self.stamp[i] == self.generation
    }

    #[inline]
    pub(crate) fn dist_at(&self, i: usize) -> f64 {
        if self.is_current(i) {
            self.dist[i]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    pub(crate) fn prev_at(&self, i: usize) -> Option<(NodeId, EdgeId)> {
        if self.is_current(i) {
            self.prev[i]
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn settled_at(&self, i: usize) -> bool {
        self.is_current(i) && self.settled[i]
    }

    /// Touches slot `i` for the current run (first write stamps it and
    /// clears run-local flags).
    #[inline]
    pub(crate) fn touch(&mut self, i: usize) {
        if !self.is_current(i) {
            self.stamp[i] = self.generation;
            self.settled[i] = false;
            self.prev[i] = None;
        }
    }

    /// Reloads a previously materialized [`DijkstraRun`] into the
    /// workspace, as if the run had just completed here: every finite
    /// slot is stamped, settled, and carries the stored distance and
    /// predecessor; every infinite slot reads as untouched.
    ///
    /// This is the bridge between cache-resident owned runs and the
    /// in-place repair of [`crate::delta::dijkstra_repair_into`]: a
    /// cache loads the stored state, repairs it against a delta, and
    /// writes the result back — without ever re-running from scratch.
    pub fn load_run(&mut self, run: &DijkstraRun) {
        let n = run.dist.len();
        self.begin(n);
        self.source = run.source;
        for i in 0..n {
            if run.dist[i].is_finite() {
                self.touch(i);
                self.dist[i] = run.dist[i];
                self.prev[i] = run.prev[i];
                self.settled[i] = true;
            }
        }
    }
}

/// A borrowed view of the most recent [`dijkstra_into`] run held in a
/// [`DijkstraWorkspace`]. Mirrors the query API of [`DijkstraRun`]
/// without owning (or allocating) the distance/predecessor arrays.
#[derive(Debug)]
pub struct DijkstraView<'w> {
    ws: &'w DijkstraWorkspace,
}

impl<'w> DijkstraView<'w> {
    pub(crate) fn over(ws: &'w DijkstraWorkspace) -> Self {
        DijkstraView { ws }
    }
}

impl DijkstraView<'_> {
    /// The source of the run.
    pub fn source(&self) -> NodeId {
        self.ws.source
    }

    /// Cost of the cheapest admissible path to `target`, or `None` when
    /// unreachable.
    pub fn distance(&self, target: NodeId) -> Option<f64> {
        let d = self.ws.dist_at(target.index());
        d.is_finite().then_some(d)
    }

    /// Reconstructs the cheapest admissible path to `target`, or `None`
    /// when unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Path> {
        let cost = self.distance(target)?;
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((p, e)) = self.ws.prev_at(cur.index()) {
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        debug_assert_eq!(cur, self.ws.source);
        nodes.reverse();
        edges.reverse();
        Some(Path { nodes, edges, cost })
    }

    /// Iterates over all reachable targets and their distances.
    pub fn reachable(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        (0..self.ws.active_len)
            .map(|i| (i, self.ws.dist_at(i)))
            .filter(|(_, d)| d.is_finite())
            .map(|(i, d)| (NodeId::new(i), d))
    }

    /// Materializes the run into an owned [`DijkstraRun`].
    pub fn to_run(&self) -> DijkstraRun {
        let mut run = DijkstraRun {
            source: self.ws.source,
            dist: Vec::new(),
            prev: Vec::new(),
        };
        self.write_run(&mut run);
        run
    }

    /// Copies the run into `out`, reusing its buffers (no allocation
    /// once `out` has reached the graph's size).
    ///
    /// One fused pass over the workspace slots: each slot's generation
    /// stamp is loaded once and both the distance and the predecessor
    /// are emitted from it, instead of the two stamp-checking sweeps a
    /// `dist_at`/`prev_at` pair of extends would make. This keeps a
    /// cache *refresh* (search + copy into recycled buffers) cheaper
    /// than a *fresh* fill (search + copy into new allocations) — the
    /// invariant the search-core bench asserts.
    pub fn write_run(&self, out: &mut DijkstraRun) {
        let ws = self.ws;
        let n = ws.active_len;
        out.source = ws.source;
        out.dist.clear();
        out.prev.clear();
        out.dist.reserve(n);
        out.prev.reserve(n);
        for ((&stamp, &dist), &prev) in ws.stamp[..n].iter().zip(&ws.dist[..n]).zip(&ws.prev[..n]) {
            let live = stamp == ws.generation;
            out.dist.push(if live { dist } else { f64::INFINITY });
            out.prev.push(if live { prev } else { None });
        }
    }
}

impl DijkstraRun {
    /// The source of the run.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Cost of the cheapest admissible path to `target`, or `None` when
    /// unreachable.
    pub fn distance(&self, target: NodeId) -> Option<f64> {
        let d = self.dist[target.index()];
        d.is_finite().then_some(d)
    }

    /// Reconstructs the cheapest admissible path to `target`, or `None`
    /// when unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Path> {
        let cost = self.distance(target)?;
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((p, e)) = self.prev[cur.index()] {
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        nodes.reverse();
        edges.reverse();
        Some(Path { nodes, edges, cost })
    }

    /// Iterates over all reachable targets and their distances.
    pub fn reachable(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_finite())
            .map(|(i, d)| (NodeId::new(i), *d))
    }

    /// The predecessor hop of `target` in the shortest-path tree, or
    /// `None` for the source and unreachable nodes.
    pub fn prev_hop(&self, target: NodeId) -> Option<(NodeId, EdgeId)> {
        self.prev[target.index()]
    }

    /// Number of vertex slots the run covers.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// `true` when the run covers no vertices (a default staging run).
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }
}

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) cost: f64,
    pub(crate) node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need the min cost on top.
        // Costs are never NaN (validated at relaxation time).
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("edge costs are never NaN")
            .then_with(|| self.node.index().cmp(&other.node.index()))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra's algorithm from `source` under `config`, writing into a
/// reusable [`DijkstraWorkspace`] — the zero-allocation entry point.
///
/// The returned [`DijkstraView`] borrows the workspace; query it (or
/// materialize a [`DijkstraRun`] via [`DijkstraView::to_run`]) before
/// starting the next run. Complexity `O((|E| + |V|) log |V|)` with a
/// binary heap, matching the `O(|E| + |V| log |V|)` the paper quotes for
/// Algorithm 1 up to the usual binary-heap log factor.
///
/// # Panics
///
/// Panics if `edge_cost` returns a negative or NaN value. In release
/// builds the violation is detected by a single deferred check when the
/// run completes (the hot relaxation loop pays no branch-and-format per
/// edge); debug builds additionally pinpoint the offending edge at the
/// relaxation itself. A NaN or negative cost never corrupts a returned
/// result: the run panics before the view is handed back.
pub fn dijkstra_into<'w, N, E, FC, FR>(
    ws: &'w mut DijkstraWorkspace,
    g: &Graph<N, E>,
    source: NodeId,
    config: &DijkstraConfig<FC, FR>,
) -> DijkstraView<'w>
where
    FC: Fn(EdgeRef<'_, E>) -> f64,
    FR: Fn(NodeId) -> bool,
{
    qnet_obs::counter!("graph.dijkstra.calls");
    let _span = qnet_obs::span!("graph.dijkstra.run");
    ws.begin(g.node_count());
    ws.source = source;
    // Tally locally; flush once at the end so the hot loop stays free of
    // shared-state traffic.
    let mut settled_n: u64 = 0;
    let mut relaxed_n: u64 = 0;
    // Deferred cost validation: `w >= 0.0` is false for both negative
    // and NaN costs, so a single accumulated flag checked after the loop
    // replaces a per-relaxation assert. NaN cannot leak into results in
    // the meantime (`cand < dist` is false for NaN), and the panic below
    // fires before any caller can observe the run.
    let mut costs_ok = true;

    ws.touch(source.index());
    ws.dist[source.index()] = 0.0;
    ws.heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });

    while let Some(HeapEntry { cost, node }) = ws.heap.pop() {
        if ws.settled[node.index()] {
            continue;
        }
        ws.settled[node.index()] = true;
        settled_n += 1;

        // Relax out of `node` only if it may serve as an interior relay
        // (the source itself always relays: it is an endpoint, not an
        // interior vertex, of any path it originates).
        if node != source && !(config.can_relay)(node) {
            continue;
        }

        for &(next, eid) in g.neighbor_slice(node) {
            if ws.settled_at(next.index()) {
                continue;
            }
            let w = (config.edge_cost)(g.edge(eid));
            debug_assert!(
                w >= 0.0 && !w.is_nan(),
                "edge cost must be non-negative and not NaN, got {w} for {eid}"
            );
            costs_ok &= w >= 0.0;
            if w.is_infinite() {
                continue;
            }
            let cand = cost + w;
            if cand < ws.dist_at(next.index()) {
                ws.touch(next.index());
                ws.dist[next.index()] = cand;
                ws.prev[next.index()] = Some((node, eid));
                relaxed_n += 1;
                ws.heap.push(HeapEntry {
                    cost: cand,
                    node: next,
                });
            }
        }
    }

    assert!(
        costs_ok,
        "edge cost must be non-negative and not NaN (run from {source}; \
         rebuild with debug assertions to locate the offending edge)"
    );
    qnet_obs::counter!("graph.dijkstra.settled"; settled_n);
    qnet_obs::counter!("graph.dijkstra.relaxations"; relaxed_n);
    DijkstraView { ws }
}

/// Breadth-first shortest path by hop count, ignoring weights.
///
/// Returns `None` when `target` is unreachable from `source`.
pub fn bfs_path<N, E>(g: &Graph<N, E>, source: NodeId, target: NodeId) -> Option<Path> {
    let n = g.node_count();
    let mut prev: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[source.index()] = true;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        if v == target {
            break;
        }
        for (next, eid) in g.neighbors(v) {
            if !seen[next.index()] {
                seen[next.index()] = true;
                prev[next.index()] = Some((v, eid));
                queue.push_back(next);
            }
        }
    }
    if !seen[target.index()] {
        return None;
    }
    let mut nodes = vec![target];
    let mut edges = Vec::new();
    let mut cur = target;
    while let Some((p, e)) = prev[cur.index()] {
        nodes.push(p);
        edges.push(e);
        cur = p;
    }
    nodes.reverse();
    edges.reverse();
    let cost = edges.len() as f64;
    Some(Path { nodes, edges, cost })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -1- 1 -1- 2
    ///  \----5----/
    fn diamond() -> (Graph<(), f64>, [NodeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(b, c, 1.0);
        g.add_edge(a, c, 5.0);
        (g, [a, b, c])
    }

    fn cost(e: EdgeRef<'_, f64>) -> f64 {
        *e.payload
    }

    /// One search on a fresh workspace, materialized.
    fn fresh_run<FC, FR>(
        g: &Graph<(), f64>,
        source: NodeId,
        cfg: &DijkstraConfig<FC, FR>,
    ) -> DijkstraRun
    where
        FC: Fn(EdgeRef<'_, f64>) -> f64,
        FR: Fn(NodeId) -> bool,
    {
        dijkstra_into(&mut DijkstraWorkspace::new(), g, source, cfg).to_run()
    }

    #[test]
    fn shortest_path_basic() {
        let (g, [a, b, c]) = diamond();
        let run = fresh_run(&g, a, &DijkstraConfig::all_nodes(cost));
        assert_eq!(run.distance(c), Some(2.0));
        let p = run.path_to(c).unwrap();
        assert_eq!(p.nodes, vec![a, b, c]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(), a);
        assert_eq!(p.destination(), c);
        assert_eq!(p.interior(), &[b]);
    }

    #[test]
    fn relay_filter_forces_detour() {
        let (g, [a, b, c]) = diamond();
        let cfg = DijkstraConfig {
            edge_cost: cost,
            can_relay: |n: NodeId| n != b,
        };
        let run = fresh_run(&g, a, &cfg);
        // b is still *reachable* (it can be a destination)…
        assert_eq!(run.distance(b), Some(1.0));
        // …but paths may not pass through it.
        assert_eq!(run.distance(c), Some(5.0));
        assert_eq!(run.path_to(c).unwrap().nodes, vec![a, c]);
    }

    #[test]
    fn infinite_edge_cost_excludes_edge() {
        let (g, [a, _b, c]) = diamond();
        let cfg = DijkstraConfig::all_nodes(|e: EdgeRef<'_, f64>| {
            if *e.payload > 2.0 {
                f64::INFINITY
            } else {
                *e.payload
            }
        });
        let run = fresh_run(&g, a, &cfg);
        assert_eq!(run.distance(c), Some(2.0));
    }

    #[test]
    fn unreachable_is_none() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let run = fresh_run(&g, a, &DijkstraConfig::all_nodes(cost));
        assert_eq!(run.distance(b), None);
        assert!(run.path_to(b).is_none());
    }

    #[test]
    fn source_distance_is_zero() {
        let (g, [a, ..]) = diamond();
        let run = fresh_run(&g, a, &DijkstraConfig::all_nodes(cost));
        assert_eq!(run.distance(a), Some(0.0));
        let p = run.path_to(a).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.interior(), &[] as &[NodeId]);
    }

    #[test]
    fn reachable_lists_everything_connected() {
        let (g, [a, ..]) = diamond();
        let run = fresh_run(&g, a, &DijkstraConfig::all_nodes(cost));
        assert_eq!(run.reachable().count(), 3);
    }

    #[test]
    fn picks_cheaper_of_parallel_edges() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 3.0);
        let cheap = g.add_edge(a, b, 1.0);
        let run = fresh_run(&g, a, &DijkstraConfig::all_nodes(cost));
        let p = run.path_to(b).unwrap();
        assert_eq!(p.cost, 1.0);
        assert_eq!(p.edges, vec![cheap]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_panics() {
        let (g, [a, ..]) = diamond();
        let cfg = DijkstraConfig::all_nodes(|_e: EdgeRef<'_, f64>| -1.0);
        fresh_run(&g, a, &cfg);
    }

    #[test]
    fn bfs_prefers_fewest_hops() {
        let (g, [a, b, c]) = diamond();
        // Weighted shortest is a-b-c; hop shortest is the direct a-c edge.
        let p = bfs_path(&g, a, c).unwrap();
        assert_eq!(p.nodes, vec![a, c]);
        assert_eq!(bfs_path(&g, a, b).unwrap().len(), 1);
        let mut g2: Graph<(), f64> = Graph::new();
        let x = g2.add_node(());
        let y = g2.add_node(());
        assert!(bfs_path(&g2, x, y).is_none());
    }
}

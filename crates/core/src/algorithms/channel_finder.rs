//! **Algorithm 1** — maximum entanglement-rate channel between two users.
//!
//! The paper's Eq. 1 objective is a product, so §IV-A applies the `−ln`
//! transform: traversing edge `e` costs `α·L(e) − ln q` and the best
//! channel is the min-cost path. The pseudocode's line 27 recovers the
//! rate as `exp(−(−ln q) − Dist) = q^(l−1)·exp(−α·ΣL)` — one `−ln q` is
//! refunded because a channel of `l` links performs only `l − 1` swaps.
//!
//! Capacity awareness: only a switch with at least 2 free qubits may relay
//! (the pseudocode's line 11 guard `Q ≥ 2`); users never relay — a channel
//! passes "through vertices in R" (Definition 2).

use std::cell::Cell;

use qnet_graph::paths::{dijkstra_into, DijkstraConfig, DijkstraRun, DijkstraWorkspace};
use qnet_graph::{
    dijkstra_repair_into, DeltaClassifier, EdgeRef, NodeId, RepairScratch, SearchMask, SsspDelta,
};
use qnet_pool::Pool;

use crate::channel::{CapacityMap, Channel};
use crate::model::QuantumNetwork;

/// Algorithm 1's cost model — the one place the `α·L − ln q` edge cost
/// and the capacity-aware relay rule are defined. The finder's search,
/// the cache's delta repair and relay mirror, Yen's k-best channels,
/// the hop-bounded fidelity search and the search benches all read it
/// from here; only the independent oracles (`core::audit`, the
/// conformance metamorphic checks) recompute it on their own.
///
/// Edge cost `α·L − ln q` is non-negative since q ≤ 1. A degenerate
/// q = 0 makes every swap impossible; only direct user-user fibers
/// (zero swaps) remain usable, which is expressed by forbidding all
/// relaying while keeping single edges finite.
#[derive(Clone, Copy, Debug)]
pub struct Algorithm1<'n> {
    net: &'n QuantumNetwork,
    alpha: f64,
    neg_ln_q: f64,
    swaps_possible: bool,
}

impl<'n> Algorithm1<'n> {
    /// The cost model of `net`'s physics.
    pub fn new(net: &'n QuantumNetwork) -> Self {
        let q = net.physics().swap_success;
        Algorithm1 {
            net,
            alpha: net.physics().attenuation,
            neg_ln_q: if q > 0.0 { -(q.ln()) } else { 0.0 },
            swaps_possible: q > 0.0,
        }
    }

    /// Cost of traversing a fiber of `length`: `α·L − ln q`.
    #[inline]
    pub fn edge_cost(&self, length: f64) -> f64 {
        self.alpha * length + self.neg_ln_q
    }

    /// Whether `v` may relay under `capacity`: swaps are possible, `v`
    /// is a switch, and it has at least 2 free qubits.
    pub fn can_relay(&self, capacity: &CapacityMap, v: NodeId) -> bool {
        self.relay(capacity, v, || {})
    }

    /// The relay rule; `on_full` runs when `v` is a switch turned away
    /// only for lack of free qubits.
    #[inline]
    fn relay(&self, capacity: &CapacityMap, v: NodeId, on_full: impl FnOnce()) -> bool {
        if !(self.swaps_possible && self.net.kind(v).is_switch()) {
            return false;
        }
        if !capacity.can_relay(v) {
            on_full();
            return false;
        }
        true
    }

    /// The search configuration under `capacity`.
    ///
    /// Every switch the relay filter turns away for lack of free qubits
    /// bumps `rejected_full`. Dijkstra consults the filter at most once
    /// per vertex per run (settled vertices are never re-queried), so
    /// after one search the tally counts *distinct* full switches —
    /// returned to the caller instead of paying an atomic per rejection
    /// inside the search.
    pub fn config(
        self,
        capacity: &'n CapacityMap,
        rejected_full: &'n Cell<u64>,
    ) -> DijkstraConfig<impl Fn(EdgeRef<'_, f64>) -> f64 + 'n, impl Fn(NodeId) -> bool + 'n> {
        DijkstraConfig {
            edge_cost: move |e: EdgeRef<'_, f64>| self.edge_cost(*e.payload),
            can_relay: move |v: NodeId| {
                self.relay(capacity, v, || rejected_full.set(rejected_full.get() + 1))
            },
        }
    }
}

/// Runs Algorithm 1 from `source` and returns the borrowed view plus
/// the run's full-switch rejection tally — **without** touching the
/// flight recorder or flushing the rejection counter. A failure `mask`
/// excludes dead edges and vertices (survivability repair); `None`
/// searches the intact network.
///
/// That restraint is what makes the function safe to call from pool
/// workers: the flight-recorder ring orders events by arrival, so
/// worker-side emission would make trace contents depend on thread
/// scheduling. Callers flush via [`finish_finder_run`] on the
/// submitting thread, in a deterministic order. The per-run span and
/// the `core.channel.finder_runs` counter *are* recorded here (span
/// parentage is safe cross-thread through the pool's span-context
/// adoption, and counter totals are order-independent).
fn run_algorithm1_quiet<'w>(
    ws: &'w mut DijkstraWorkspace,
    net: &QuantumNetwork,
    capacity: &CapacityMap,
    source: NodeId,
    mask: Option<&SearchMask>,
) -> (qnet_graph::DijkstraView<'w>, u64) {
    let rejected_full = Cell::new(0u64);
    let cfg = Algorithm1::new(net).config(capacity, &rejected_full);
    qnet_obs::counter!("core.channel.finder_runs");
    let _span = qnet_obs::span!("core.channel.finder_run");
    let view = match mask {
        Some(mask) => dijkstra_into(ws, net.graph(), source, &mask.restrict(&cfg)),
        None => dijkstra_into(ws, net.graph(), source, &cfg),
    };
    (view, rejected_full.get())
}

/// The bookkeeping half of a search: flushes a run's rejection tally
/// and emits its `FinderRun` trace event. Call on the submitting
/// thread, in source order, after a (possibly parallel) batch of
/// [`run_algorithm1_quiet`] searches — the flight-recorder contents
/// then never depend on worker scheduling.
fn finish_finder_run(source: NodeId, rejected_full: u64, epoch: u64) {
    if rejected_full > 0 {
        qnet_obs::counter!("core.channel.rejected", reason = "qubit_capacity"; rejected_full);
    }
    if qnet_obs::trace_enabled() {
        qnet_obs::record_event(qnet_obs::TraceEvent::FinderRun {
            source: source.index() as u32,
            rejected_full,
            epoch,
        });
    }
}

/// A single-source Algorithm-1 run: max-rate channels from one user to
/// every other reachable user, under a residual capacity map.
///
/// The paper's complexity discussion (§IV-B) notes that running the
/// search once per *source* and recovering all destinations through the
/// `Prev` array saves a factor of `|U|`; this type is that optimization.
pub struct ChannelFinder<'n> {
    net: &'n QuantumNetwork,
    run: DijkstraRun,
    /// Epoch of the capacity map the run was computed under; stamped
    /// onto the trace events [`ChannelFinder::channel_to`] emits so a
    /// flight-recorder reader can line decisions up with reservations.
    epoch: u64,
}

impl<'n> ChannelFinder<'n> {
    /// Runs Algorithm 1 from `source` under `capacity`.
    ///
    /// Every interior vertex of any returned channel is a switch with at
    /// least 2 free qubits *in the given map*; the map is not mutated
    /// (reservation is the caller's decision).
    ///
    /// Allocates a private search workspace; callers in a loop should
    /// hold a [`DijkstraWorkspace`] and use
    /// [`ChannelFinder::from_source_in`] — or better, a
    /// [`ChannelFinderCache`].
    pub fn from_source(net: &'n QuantumNetwork, capacity: &CapacityMap, source: NodeId) -> Self {
        let mut ws = DijkstraWorkspace::new();
        Self::from_source_in(&mut ws, net, capacity, source)
    }

    /// [`ChannelFinder::from_source`] on a caller-provided workspace: the
    /// search itself allocates nothing, only the materialized run does.
    /// Failure-masked searches go through
    /// [`ChannelFinderCache::finder_masked`].
    pub fn from_source_in(
        ws: &mut DijkstraWorkspace,
        net: &'n QuantumNetwork,
        capacity: &CapacityMap,
        source: NodeId,
    ) -> Self {
        let (view, rejected) = run_algorithm1_quiet(ws, net, capacity, source, None);
        finish_finder_run(source, rejected, capacity.epoch());
        let run = view.to_run();
        ChannelFinder {
            net,
            run,
            epoch: capacity.epoch(),
        }
    }
    /// The source user of this run.
    pub fn source(&self) -> NodeId {
        self.run.source()
    }

    /// The underlying single-source run (distances and predecessors to
    /// every node). The delta-equivalence oracles compare this directly
    /// against from-scratch recomputation.
    pub fn run(&self) -> &DijkstraRun {
        &self.run
    }

    /// The max-rate channel from the source to `destination`, or `None`
    /// when no capacity-respecting channel exists.
    ///
    /// The channel's rate is recomputed exactly from Eq. 1 (not from the
    /// search cost), so no floating-point drift accumulates.
    pub fn channel_to(&self, destination: NodeId) -> Option<Channel> {
        if destination == self.run.source() {
            return None;
        }
        let Some(path) = self.run.path_to(destination) else {
            qnet_obs::counter!("core.channel.rejected", reason = "disconnected");
            if qnet_obs::trace_enabled() {
                qnet_obs::record_event(qnet_obs::TraceEvent::Candidate {
                    source: self.run.source().index() as u32,
                    destination: destination.index() as u32,
                    accepted: false,
                    reason: "disconnected",
                    cost: 0.0,
                    epoch: self.epoch,
                });
            }
            return None;
        };
        qnet_obs::counter!("core.channel.found");
        let channel = Channel::from_path(self.net, path);
        if qnet_obs::trace_enabled() {
            qnet_obs::record_event(qnet_obs::TraceEvent::Candidate {
                source: self.run.source().index() as u32,
                destination: destination.index() as u32,
                accepted: true,
                reason: "ok",
                cost: channel.rate.value(),
                epoch: self.epoch,
            });
        }
        Some(channel)
    }
}

/// Algorithm 1 for a single pair: the max-rate channel between users `a`
/// and `b` under `capacity`, or `None` when infeasible.
///
/// # Example
///
/// ```
/// use muerp_core::prelude::*;
/// use muerp_core::algorithms::max_rate_channel;
///
/// let net = NetworkSpec::paper_default().build(7);
/// let cap = CapacityMap::new(&net);
/// let (a, b) = (net.users()[0], net.users()[1]);
/// if let Some(ch) = max_rate_channel(&net, &cap, a, b) {
///     assert!(ch.rate.value() > 0.0);
///     assert_eq!(ch.user_pair(), if a <= b { (a, b) } else { (b, a) });
/// }
/// ```
pub fn max_rate_channel(
    net: &QuantumNetwork,
    capacity: &CapacityMap,
    a: NodeId,
    b: NodeId,
) -> Option<Channel> {
    ChannelFinder::from_source(net, capacity, a).channel_to(b)
}

/// In-place delta repair of a memoized Algorithm-1 run: reloads `run`
/// into the workspace and patches it for the given newly-blocked relay
/// set instead of re-running the search from scratch.
///
/// The configuration is the unmasked [`Algorithm1::config`] (repairs
/// only serve unmasked entries) with its rejection tally discarded (a
/// repair consults only the shrunken region, so its tally would not be
/// comparable to a full run's); `capacity` must already reflect the
/// blocked nodes, which is guaranteed because the blocked set is
/// derived by diffing relay states against that same map.
fn repair_algorithm1(
    ws: &mut DijkstraWorkspace,
    scratch: &mut RepairScratch,
    net: &QuantumNetwork,
    capacity: &CapacityMap,
    run: &mut DijkstraRun,
    blocked: &[NodeId],
) -> qnet_graph::RepairStats {
    let unreported = Cell::new(0u64);
    let cfg = Algorithm1::new(net).config(capacity, &unreported);
    let mut delta = SsspDelta::new();
    for &v in blocked {
        delta.block_node(v);
    }
    ws.load_run(run);
    let (view, stats) = dijkstra_repair_into(ws, scratch, net.graph(), &cfg, &delta);
    view.write_run(run);
    stats
}

/// `true` when letting `v` relay again could change the stored run —
/// i.e. some neighbor `u` would receive an offer `dist(v) + w(v,u)` no
/// worse than its current label. `<=` (not `<`) is deliberate: an
/// exactly-equal offer cannot improve a distance, but it can flip a
/// predecessor tie depending on heap order, and the cache promises
/// *bitwise* fidelity, so ties force a recompute too.
fn improvement_possible(model: &Algorithm1<'_>, run: &DijkstraRun, v: NodeId) -> bool {
    let Some(dv) = run.distance(v) else {
        // A vertex the source cannot even reach helps nobody as a relay.
        return false;
    };
    let net = model.net;
    for &(u, e) in net.graph().neighbor_slice(v) {
        let w = model.edge_cost(net.length(e));
        let du = run.distance(u).unwrap_or(f64::INFINITY);
        if dv + w <= du {
            return true;
        }
    }
    false
}

/// How a cache entry must be brought up to date with the capacity map,
/// as derived from the relay-state diffs observed since the entry was
/// last validated. `Clean` entries are revalidated in O(1);
/// `Repair(nodes)` entries get an in-place SSSP repair for exactly
/// those newly-blocked relays; `Recompute` entries (improving deltas,
/// masked entries) fall back to a full search.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Pending {
    Clean,
    Repair(Vec<NodeId>),
    Recompute,
}

/// One memoized single-source run plus its staleness bookkeeping. The
/// capacity epoch the run was last validated at is `finder.epoch`.
struct Entry<'n> {
    /// Hash of the failure mask the run was computed under (`0` for
    /// the intact network).
    mask_hash: u64,
    /// What the next lookup at a different epoch must do.
    pending: Pending,
    finder: ChannelFinder<'n>,
}

/// What [`ChannelFinderCache::resolve`] did with a source's entry.
enum Resolution {
    /// Already validated at this epoch under this mask.
    Fresh,
    /// Capacity moved, but no relay flip reaches the run: O(1).
    Revalidated,
    /// Patched in place for its newly blocked relays.
    Repaired,
    /// Needs a full search. Carries the taken-out entry's run buffers
    /// to recycle (empty on a first touch of the source).
    Search(DijkstraRun),
}

/// Memoizes single-source Algorithm-1 runs across solver rounds.
///
/// Greedy solvers (Prim-based, Algorithm 3/4, beam search, local search)
/// re-run the same sources many times between capacity changes. Each
/// cache entry is keyed by `(source, capacity epoch, mask hash)`: a
/// lookup whose stored key matches returns the memoized finder with no
/// search at all.
///
/// A key mismatch no longer voids the entry wholesale. The cache keeps
/// a *relay mirror* — the per-node relay predicate of the last capacity
/// map it observed — and diffs it against every new epoch (DESIGN.md
/// §15). Only nodes whose relay bit actually flipped dirty anything,
/// and only the entries their flip can reach:
///
/// * no flip (capacity moved but stayed on the same side of the ≥ 2
///   threshold everywhere): every entry is revalidated in O(1) —
///   `graph.delta.clean`;
/// * a relay revoked (worsening): affected entries (same component,
///   node reachable in the stored run) get an in-place SSSP repair via
///   [`dijkstra_repair_into`] — `graph.delta.repaired`;
/// * a relay restored (improving): entries where the restored node
///   could offer a no-worse label to any neighbor fall back to a full
///   search — `graph.delta.recomputed` (in-place decrease-propagation
///   can flip floating-point predecessor ties, and the cache promises
///   bitwise fidelity);
/// * masked entries always fall back to a full search on any flip (the
///   cache stores only the mask's hash, not its dead set).
///
/// Lookups ([`finder_masked`]) and batches ([`warm`]) bring an entry up
/// to date through one shared decision, `resolve`; they differ only in
/// that a lookup counts a served entry as a hit and a batch does not.
///
/// The epoch key is retained purely as the correctness *backstop*: a
/// lookup whose epoch matches needs no reasoning at all, and any bug in
/// the dirty-set derivation is bounded by the differential battery
/// (`tests/delta_cache.rs`, qnet-conformance `--delta` oracle), not by
/// silent reuse — entries are never served on an epoch mismatch without
/// passing through the observe/classify step first.
///
/// Correctness rests on these invariants (see DESIGN.md):
///
/// * epochs are process-globally unique per mutation, so epoch equality
///   implies content equality even across diverged clones — and the
///   relay mirror can be diffed by *content* against any successor map,
///   which is what makes clone ping-pong (trial maps in the stream
///   scenario) cheap instead of cache-hostile;
/// * a [`SearchMask`]'s hash is an order-independent digest of its dead
///   set, `0` for the empty mask, so a masked run can never be served
///   to an unmasked query at the same epoch (or vice versa) — the
///   "stale mask poisons the cache" failure mode;
/// * Algorithm 1's result depends only on (network, relay predicate,
///   mask, source) — the network is fixed per cache, the relay
///   predicate by the mirror diff, the mask by its hash.
///
/// Hits and misses are observable as `core.channel.cache_hits` /
/// `core.channel.cache_misses`; [`search_count`] tallies the full
/// searches this cache actually executed (the repair engine's latency
/// metric — in-place repairs are tallied separately in
/// [`CacheEfficiency::repairs`]).
///
/// [`finder_masked`]: ChannelFinderCache::finder_masked
/// [`warm`]: ChannelFinderCache::warm
/// [`search_count`]: ChannelFinderCache::search_count
pub struct ChannelFinderCache<'n> {
    net: &'n QuantumNetwork,
    /// Fans [`warm`](ChannelFinderCache::warm) batches out over worker
    /// threads; sized by `MUERP_THREADS`/available parallelism. Results
    /// are merged in source order, so the cache's observable state is
    /// identical at every thread count.
    pool: Pool,
    ws: DijkstraWorkspace,
    /// Indexed by source node; each entry stores the mask hash its run
    /// was computed under plus its pending dirty state.
    entries: Vec<Option<Entry<'n>>>,
    /// Static component/bridge analysis of the network graph, used to
    /// pre-filter which sources a relay flip can possibly affect.
    classifier: DeltaClassifier,
    /// Reusable marking buffers for [`dijkstra_repair_into`].
    scratch: RepairScratch,
    /// Per-node [`Algorithm1::can_relay`] of the capacity map last
    /// observed, diffed by content against each newly observed map.
    mirror: Vec<bool>,
    /// Epoch [`mirror`](Self::mirror) reflects; `None` before the first
    /// observation.
    mirror_epoch: Option<u64>,
    /// Per-instance hit/miss/refresh/repair tallies (see
    /// [`ChannelFinderCache::efficiency`]).
    efficiency: CacheEfficiency,
}
/// Deterministic per-cache lookup tallies, split by how each miss was
/// served. Unlike the global `core.channel.cache_*` counters these are
/// scoped to one cache instance, so a profile run can report the exact
/// efficiency of the solver under measurement even while other threads
/// run their own caches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheEfficiency {
    /// Lookups answered from a memoized run (no search).
    pub hits: u64,
    /// Misses that re-ran the search *in place* over an existing
    /// entry's buffers (steady state: zero allocation).
    pub refreshes: u64,
    /// Misses that populated a previously empty entry (first touch of a
    /// source; materializes a fresh run).
    pub fills: u64,
    /// Misses served by an in-place SSSP delta repair instead of a full
    /// search (the delta engine's win column; not counted in
    /// [`ChannelFinderCache::search_count`]).
    pub repairs: u64,
}

impl CacheEfficiency {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.refreshes + self.fills + self.repairs
    }

    /// Hits over lookups, 1.0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl<'n> ChannelFinderCache<'n> {
    /// An empty cache for `net`; entries populate lazily per source.
    /// The pool width comes from `MUERP_THREADS`/available parallelism
    /// (see [`qnet_pool::threads_from_env`]).
    pub fn new(net: &'n QuantumNetwork) -> Self {
        Self::with_pool(net, Pool::from_env())
    }

    /// [`ChannelFinderCache::new`] with an explicit pool — the hook the
    /// thread-scaling bench and the determinism tests use to pin the
    /// worker count regardless of environment.
    pub fn with_pool(net: &'n QuantumNetwork, pool: Pool) -> Self {
        let nodes = net.graph().node_count();
        ChannelFinderCache {
            net,
            pool,
            ws: DijkstraWorkspace::with_capacity(nodes),
            entries: (0..nodes).map(|_| None).collect(),
            classifier: DeltaClassifier::new(net.graph()),
            scratch: RepairScratch::new(),
            mirror: Vec::new(),
            mirror_epoch: None,
            efficiency: CacheEfficiency::default(),
        }
    }

    /// Synchronizes the relay mirror with `capacity` and reclassifies
    /// every entry's pending state against the relay flips the diff
    /// reveals. Every lookup and warm passes through here exactly once
    /// per new epoch, *before* any key comparison — that single coherent
    /// snapshot is what makes "delta landed between snapshot and
    /// install" impossible: keys installed later in the same call are
    /// always keyed to the observed epoch, and the map cannot mutate
    /// while borrowed.
    fn observe(&mut self, capacity: &CapacityMap) {
        let epoch = capacity.epoch();
        if self.mirror_epoch == Some(epoch) {
            // Epochs are globally unique per mutation: same epoch means
            // the map content is bit-identical to the mirror.
            return;
        }
        let model = Algorithm1::new(self.net);
        let relay_now: Vec<bool> = self
            .net
            .graph()
            .node_ids()
            .map(|v| model.can_relay(capacity, v))
            .collect();
        if self.mirror_epoch.is_some() {
            for (i, (&now, &before)) in relay_now.iter().zip(self.mirror.iter()).enumerate() {
                if now == before {
                    continue;
                }
                let v = NodeId::new(i);
                let worsened = !now;
                for entry in self.entries.iter_mut().flatten() {
                    if entry.pending == Pending::Recompute {
                        continue;
                    }
                    if entry.mask_hash != 0 {
                        // Only the mask's hash is stored, so masked
                        // entries cannot be classified — conservative.
                        entry.pending = Pending::Recompute;
                        continue;
                    }
                    let source = entry.finder.run.source();
                    match (&mut entry.pending, worsened) {
                        (Pending::Clean, true) => {
                            if self.classifier.node_may_affect(source, v)
                                && entry.finder.run.distance(v).is_some()
                            {
                                entry.pending = Pending::Repair(vec![v]);
                            }
                        }
                        (Pending::Repair(nodes), true) => {
                            if !nodes.contains(&v)
                                && self.classifier.node_may_affect(source, v)
                                && entry.finder.run.distance(v).is_some()
                            {
                                nodes.push(v);
                            }
                        }
                        (Pending::Clean, false) => {
                            if improvement_possible(&model, &entry.finder.run, v) {
                                entry.pending = Pending::Recompute;
                            }
                        }
                        (Pending::Repair(nodes), false) => {
                            // An improving flip that exactly cancels a
                            // pending worsening flip nets out to nothing;
                            // any other improvement over a stale run is
                            // unclassifiable (the run's labels predate
                            // the pending repairs).
                            if let Some(pos) = nodes.iter().position(|&x| x == v) {
                                nodes.swap_remove(pos);
                                if nodes.is_empty() {
                                    entry.pending = Pending::Clean;
                                }
                            } else {
                                entry.pending = Pending::Recompute;
                            }
                        }
                        (Pending::Recompute, _) => unreachable!("filtered above"),
                    }
                }
            }
        }
        self.mirror = relay_now;
        self.mirror_epoch = Some(epoch);
    }

    /// The one decision every lookup and warm makes about `source`'s
    /// entry under the already-observed `capacity` and the mask hashed
    /// to `mask_hash`: serve it as it is, revalidate it in O(1), repair
    /// it in place, or hand its buffers back for a full search (the
    /// entry is then taken out until the caller installs the result).
    ///
    /// Tallies every outcome except hits, which only lookups count.
    #[inline]
    fn resolve(&mut self, capacity: &CapacityMap, mask_hash: u64, source: NodeId) -> Resolution {
        let epoch = capacity.epoch();
        let slot = &mut self.entries[source.index()];
        let Some(entry) = slot else {
            qnet_obs::counter!("core.channel.cache_misses");
            self.efficiency.fills += 1;
            return Resolution::Search(DijkstraRun::default());
        };
        let same_mask = entry.mask_hash == mask_hash;
        if same_mask {
            if entry.finder.epoch == epoch {
                return Resolution::Fresh;
            }
            match &mut entry.pending {
                Pending::Clean => {
                    // Capacity moved, but no relay flip can reach this
                    // run: revalidate in O(1), no search.
                    qnet_obs::counter!("graph.delta.clean");
                    entry.finder.epoch = epoch;
                    return Resolution::Revalidated;
                }
                Pending::Repair(blocked) => {
                    debug_assert_eq!(mask_hash, 0, "observe never queues a masked repair");
                    let blocked = std::mem::take(blocked);
                    entry.pending = Pending::Clean;
                    qnet_obs::counter!("core.channel.cache_repairs");
                    self.efficiency.repairs += 1;
                    repair_algorithm1(
                        &mut self.ws,
                        &mut self.scratch,
                        self.net,
                        capacity,
                        &mut entry.finder.run,
                        &blocked,
                    );
                    entry.finder.epoch = epoch;
                    return Resolution::Repaired;
                }
                Pending::Recompute => {}
            }
        }
        qnet_obs::counter!("core.channel.cache_misses");
        qnet_obs::counter!("core.channel.cache_refreshes");
        if same_mask {
            // Same mask, stale capacity: this full search is the delta
            // engine declining to repair (improving flip or masked
            // entry), not a key change.
            qnet_obs::counter!("graph.delta.recomputed");
        }
        self.efficiency.refreshes += 1;
        let entry = slot.take().expect("matched Some above");
        Resolution::Search(entry.finder.run)
    }

    /// Installs a freshly searched `run` for `source`, validated at
    /// `epoch` under `mask_hash`, and flushes the run's deferred
    /// bookkeeping.
    fn install(
        &mut self,
        source: NodeId,
        mask_hash: u64,
        run: DijkstraRun,
        rejected: u64,
        epoch: u64,
    ) {
        finish_finder_run(source, rejected, epoch);
        self.entries[source.index()] = Some(Entry {
            mask_hash,
            pending: Pending::Clean,
            finder: ChannelFinder {
                net: self.net,
                run,
                epoch,
            },
        });
    }

    /// The Algorithm-1 run from `source` under `capacity`, reused when
    /// `capacity` has not changed since the entry was computed.
    pub fn finder(&mut self, capacity: &CapacityMap, source: NodeId) -> &ChannelFinder<'n> {
        self.finder_masked(capacity, None, source)
    }

    /// [`ChannelFinderCache::finder`] under a failure mask: channels
    /// never use a dead edge nor touch a dead vertex (not even as an
    /// endpoint). The entry is keyed by `(source, epoch, mask hash)`,
    /// so masked and unmasked runs at the same epoch never alias.
    pub fn finder_masked(
        &mut self,
        capacity: &CapacityMap,
        mask: Option<&SearchMask>,
        source: NodeId,
    ) -> &ChannelFinder<'n> {
        self.observe(capacity);
        let mask_hash = mask.map_or(0, |m| m.hash());
        match self.resolve(capacity, mask_hash, source) {
            Resolution::Fresh | Resolution::Revalidated => {
                qnet_obs::counter!("core.channel.cache_hits");
                self.efficiency.hits += 1;
            }
            Resolution::Repaired => {}
            Resolution::Search(mut run) => {
                let (view, rejected) =
                    run_algorithm1_quiet(&mut self.ws, self.net, capacity, source, mask);
                view.write_run(&mut run);
                self.install(source, mask_hash, run, rejected, capacity.epoch());
            }
        }
        &self.entries[source.index()]
            .as_ref()
            .expect("entry just resolved")
            .finder
    }

    /// Batch-refreshes the entries for `sources` under `capacity` —
    /// **Algorithm 1 as a multi-source batch**. Each source's entry goes
    /// through the same `resolve` step as a lookup; the sources that
    /// still need a full search are searched concurrently on the
    /// cache's [`Pool`] (workers share the network graph read-only),
    /// each stale entry's result buffers recycled as the staging
    /// target. Subsequent [`finder`](ChannelFinderCache::finder) calls
    /// for these sources at the same epoch are then cache hits.
    ///
    /// Determinism: results are installed — and their trace events
    /// emitted — in `sources` order on the calling thread, so cache
    /// state, counters tied to search results, and the flight recorder
    /// are bitwise identical for every pool width (the property
    /// `tests/parallel_equivalence.rs` locks in). Warm searches tally
    /// as misses (refresh or fill) exactly like the lazy path; entries
    /// already fresh or revalidated are not counted as hits.
    pub fn warm(&mut self, capacity: &CapacityMap, sources: &[NodeId]) {
        // One coherent snapshot *before* any classification or fan-out.
        // Every key installed below — including by the pooled merge — is
        // keyed to this observed epoch, and `capacity` cannot mutate
        // while the call borrows it, so a delta can never land between
        // the snapshot and the install (the warm staleness hazard
        // `tests/delta_cache.rs` locks down).
        self.observe(capacity);
        let epoch = capacity.epoch();
        // Resolve every source in input order on the calling thread
        // (repairs share the cache's workspace and are cheap) and queue
        // the ones that need a search with their recycled runs. A repeat
        // of a queued source is skipped first: its entry is out on loan
        // and would otherwise read as a first touch.
        let mut jobs: Vec<(NodeId, DijkstraRun)> = Vec::new();
        for &src in sources {
            if jobs.iter().any(|(s, _)| *s == src) {
                continue;
            }
            if let Resolution::Search(run) = self.resolve(capacity, 0, src) {
                jobs.push((src, run));
            }
        }
        if jobs.is_empty() {
            return;
        }

        let results: Vec<(NodeId, DijkstraRun, u64)> = if self.pool.is_sequential() {
            // Inline path: reuse the cache's own workspace, no spawns.
            let mut out = Vec::with_capacity(jobs.len());
            for (src, mut run) in jobs {
                let (view, rejected) =
                    run_algorithm1_quiet(&mut self.ws, self.net, capacity, src, None);
                view.write_run(&mut run);
                out.push((src, run, rejected));
            }
            out
        } else {
            let net = self.net;
            let order = net.graph().node_count();
            self.pool.map(
                jobs,
                || DijkstraWorkspace::with_capacity(order),
                |ws, (src, mut run), _| {
                    let (view, rejected) = run_algorithm1_quiet(ws, net, capacity, src, None);
                    view.write_run(&mut run);
                    (src, run, rejected)
                },
            )
        };

        // Merge on the calling thread, in source order: install entries
        // and emit the deferred per-run events deterministically.
        for (src, run, rejected) in results {
            self.install(src, 0, run, rejected, epoch);
        }
    }

    /// Eagerly synchronizes the cache with `capacity` without serving a
    /// lookup: the relay mirror is diffed and every entry's pending
    /// state reclassified *now* instead of at the next finder call.
    ///
    /// This is the departure hook the streaming/serving session loops
    /// call. Releasing a departed group's channels flips its relays
    /// back on; absorbing that delta immediately cancels the pending
    /// repairs queued for exactly those relays (the `(Repair,
    /// improving)` netting-out arm of the classifier) while the kill
    /// and the restore are still adjacent deltas. Left to the lazy
    /// path, the restore would only be reconciled at the next lookup,
    /// where it can sit interleaved with unrelated flips and an
    /// unclassifiable improvement escalates the whole entry to a full
    /// recompute.
    pub fn absorb(&mut self, capacity: &CapacityMap) {
        self.observe(capacity);
    }

    /// [`max_rate_channel`] through the cache.
    pub fn channel(&mut self, capacity: &CapacityMap, a: NodeId, b: NodeId) -> Option<Channel> {
        self.finder(capacity, a).channel_to(b)
    }

    /// Number of *full* Algorithm-1 searches this cache has actually
    /// run: its refreshes plus fills. Hits, O(1) revalidations, and
    /// in-place delta repairs are all excluded (repairs are tallied in
    /// [`CacheEfficiency::repairs`]). This is the deterministic
    /// per-cache cost metric the repair engine reports as latency —
    /// unlike the global obs counters it is unaffected by concurrent
    /// work elsewhere in the process.
    pub fn search_count(&self) -> u64 {
        self.efficiency.refreshes + self.efficiency.fills
    }

    /// This cache's lookup tallies, split hit/refresh/fill. Fully
    /// deterministic for a fixed query sequence (unlike wall time), so
    /// `repro profile` byte-compares them across runs.
    pub fn efficiency(&self) -> CacheEfficiency {
        self.efficiency
    }

    /// Drops every memoized entry (the pool and tallies are kept): the next lookup per source is a *fill*, not a
    /// refresh. This is how the search-core bench measures the fill path
    /// in isolation — refreshes and fills run the identical search; only
    /// the result buffers differ (recycled vs freshly allocated).
    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NodeKind, PhysicsParams, QuantumNetwork};
    use qnet_graph::Graph;

    /// Two parallel routes between users a and b:
    ///   a —1000— s1 —1000— b        (2 links, 1 swap)
    ///   a —————— 2500 ——————— b     (1 link, 0 swaps)
    /// With α = 1e-4, q = 0.9: via s1: e^{-0.2}·0.9 ≈ 0.7369;
    /// direct: e^{-0.25} ≈ 0.7788 → direct wins.
    fn two_route_net(q: f64) -> (QuantumNetwork, [NodeId; 3]) {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let a = g.add_node(NodeKind::User);
        let s1 = g.add_node(NodeKind::Switch { qubits: 4 });
        let b = g.add_node(NodeKind::User);
        g.add_edge(a, s1, 1000.0);
        g.add_edge(s1, b, 1000.0);
        g.add_edge(a, b, 2500.0);
        let physics = PhysicsParams {
            swap_success: q,
            attenuation: 1e-4,
        };
        (QuantumNetwork::from_graph(g, physics), [a, s1, b])
    }

    #[test]
    fn picks_route_with_best_rate_not_fewest_hops_or_shortest_length() {
        // q = 0.9: the direct (longer but swap-free) route wins.
        let (net, [a, _s1, b]) = two_route_net(0.9);
        let cap = CapacityMap::new(&net);
        let c = max_rate_channel(&net, &cap, a, b).unwrap();
        assert_eq!(c.link_count(), 1);
        assert!((c.rate.value() - (-0.25f64).exp()).abs() < 1e-12);

        // q = 0.99: the relayed route (shorter fibers) wins.
        let (net, [a, s1, b]) = two_route_net(0.99);
        let cap = CapacityMap::new(&net);
        let c = max_rate_channel(&net, &cap, a, b).unwrap();
        assert_eq!(c.link_count(), 2);
        assert_eq!(c.interior_switches(), &[s1]);
        assert!((c.rate.value() - (-0.2f64).exp() * 0.99).abs() < 1e-12);
    }

    #[test]
    fn respects_residual_capacity() {
        let (net, [a, _s1, b]) = two_route_net(0.99);
        let mut cap = CapacityMap::new(&net);
        let via_switch = max_rate_channel(&net, &cap, a, b).unwrap();
        assert_eq!(via_switch.link_count(), 2);
        cap.reserve(&via_switch);
        cap.reserve(&via_switch); // 4 qubits gone
        let fallback = max_rate_channel(&net, &cap, a, b).unwrap();
        assert_eq!(fallback.link_count(), 1, "switch exhausted → direct fiber");
    }

    #[test]
    fn users_never_relay() {
        // a — u — b where u is a *user*: no channel may pass through u,
        // so a and b are unconnectable.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let a = g.add_node(NodeKind::User);
        let u = g.add_node(NodeKind::User);
        let b = g.add_node(NodeKind::User);
        g.add_edge(a, u, 100.0);
        g.add_edge(u, b, 100.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let cap = CapacityMap::new(&net);
        assert!(max_rate_channel(&net, &cap, a, b).is_none());
        // …but a–u itself is routable (u is an endpoint there).
        assert!(max_rate_channel(&net, &cap, a, u).is_some());
    }

    #[test]
    fn switch_with_one_qubit_cannot_relay() {
        let (net, ids) = two_route_net(0.99);
        let mut g = net.graph().clone();
        *g.node_mut(ids[1]) = NodeKind::Switch { qubits: 1 };
        let net = QuantumNetwork::from_graph(g, *net.physics());
        let cap = CapacityMap::new(&net);
        let c = max_rate_channel(&net, &cap, ids[0], ids[2]).unwrap();
        assert_eq!(c.link_count(), 1, "1-qubit switch unusable, direct route");
    }

    #[test]
    fn single_source_run_matches_pairwise_calls() {
        let net = crate::model::NetworkSpec::paper_default().build(11);
        let cap = CapacityMap::new(&net);
        let users = net.users().to_vec();
        let finder = ChannelFinder::from_source(&net, &cap, users[0]);
        for &dst in &users[1..] {
            let via_run = finder.channel_to(dst);
            let via_pair = max_rate_channel(&net, &cap, users[0], dst);
            match (via_run, via_pair) {
                (Some(x), Some(y)) => {
                    assert!((x.rate.value() - y.rate.value()).abs() < 1e-12)
                }
                (None, None) => {}
                other => panic!("disagreement for {dst}: {other:?}"),
            }
        }
    }

    #[test]
    fn no_channel_to_self() {
        let (net, [a, ..]) = two_route_net(0.9);
        let cap = CapacityMap::new(&net);
        assert!(max_rate_channel(&net, &cap, a, a).is_none());
    }

    #[test]
    fn masked_search_routes_around_failures() {
        // q = 0.99: best route is via s1. Kill the a–s1 edge → direct.
        let (net, [a, s1, b]) = two_route_net(0.99);
        let cap = CapacityMap::new(&net);
        let e_as1 = net.graph().find_edge(a, s1).unwrap();
        let mut mask = SearchMask::new();
        mask.kill_edge(e_as1);
        let mut cache = ChannelFinderCache::new(&net);
        let c = cache
            .finder_masked(&cap, Some(&mask), a)
            .channel_to(b)
            .unwrap();
        assert_eq!(c.link_count(), 1, "masked edge forces the direct fiber");

        // Kill the switch instead: same outcome, and s1 is untouchable.
        let mut mask = SearchMask::new();
        mask.kill_node(s1);
        let finder = cache.finder_masked(&cap, Some(&mask), a);
        let c = finder.channel_to(b).unwrap();
        assert_eq!(c.link_count(), 1);
        assert!(finder.channel_to(s1).is_none(), "dead vertex unreachable");
    }

    #[test]
    fn stale_mask_never_poisons_the_cache() {
        // Regression: the cache used to key entries by epoch alone, so a
        // masked search left a poisoned entry that an unmasked query at
        // the same epoch would happily reuse.
        let (net, [a, s1, b]) = two_route_net(0.99);
        let cap = CapacityMap::new(&net);
        let mut mask = SearchMask::new();
        mask.kill_node(s1);
        let mut cache = ChannelFinderCache::new(&net);

        // Masked query first: detour around the dead switch.
        let masked = cache
            .finder_masked(&cap, Some(&mask), a)
            .channel_to(b)
            .unwrap();
        assert_eq!(masked.link_count(), 1);
        // Unmasked query at the SAME epoch must re-search, not reuse the
        // masked run: the via-switch route is alive and better.
        let unmasked = cache.channel(&cap, a, b).unwrap();
        assert_eq!(unmasked.link_count(), 2, "stale-mask cache hit");
        assert_eq!(unmasked.interior_switches(), &[s1]);
        // And flipping back must not reuse the unmasked run either.
        let masked_again = cache
            .finder_masked(&cap, Some(&mask), a)
            .channel_to(b)
            .unwrap();
        assert_eq!(masked_again.link_count(), 1);
        assert_eq!(cache.search_count(), 3, "three distinct keys, no hits");

        // Same mask twice at the same epoch *is* a hit.
        let repeat = cache
            .finder_masked(&cap, Some(&mask), a)
            .channel_to(b)
            .unwrap();
        assert_eq!(repeat.link_count(), 1);
        assert_eq!(cache.search_count(), 3, "identical key must hit");

        // An equal-content mask built in a different order hits too.
        let mut mask2 = SearchMask::new();
        mask2.kill_node(s1);
        let again = cache
            .finder_masked(&cap, Some(&mask2), a)
            .channel_to(b)
            .unwrap();
        assert_eq!(again.link_count(), 1);
        assert_eq!(cache.search_count(), 3);
    }

    #[test]
    fn cache_efficiency_tallies_hits_refreshes_fills_and_repairs() {
        let (net, [a, s1, b]) = two_route_net(0.99);
        let mut cap = CapacityMap::new(&net);
        let mut cache = ChannelFinderCache::new(&net);
        assert_eq!(cache.efficiency().hit_rate(), 1.0, "vacuous before use");

        cache.channel(&cap, a, b); // first touch of source a → fill
        cache.channel(&cap, a, b); // same key → hit
        cache.channel(&cap, b, a); // first touch of source b → fill
        let ch = cache.channel(&cap, a, b).unwrap(); // hit again
        assert_eq!(ch.interior_switches(), &[s1]);

        // Epoch bump without a relay flip (s1: 4 → 2 free qubits): the
        // delta engine revalidates in O(1) — a hit, not a refresh.
        cap.reserve(&ch);
        cache.channel(&cap, a, b);

        // Second reservation exhausts s1 (2 → 0): a worsening flip, so
        // the stale entry gets an in-place repair, not a full search.
        cap.reserve(&ch);
        let detour = cache.channel(&cap, a, b).unwrap();
        assert_eq!(detour.link_count(), 1, "repair must route around s1");

        // Releasing restores the relay (0 → 2): improving deltas cannot
        // be repaired in place, so the next lookup is a full recompute.
        cap.release(&ch);
        let back = cache.channel(&cap, a, b).unwrap();
        assert_eq!(back.interior_switches(), &[s1], "recompute sees s1 again");

        let eff = cache.efficiency();
        assert_eq!(
            eff,
            CacheEfficiency {
                hits: 3,
                refreshes: 1,
                fills: 2,
                repairs: 1,
            }
        );
        assert_eq!(eff.lookups(), 7);
        assert!((eff.hit_rate() - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(
            cache.search_count(),
            eff.refreshes + eff.fills,
            "searches are the full-search misses; repairs are not searches"
        );

        // clear() drops the entries but keeps the tallies: the next
        // lookup at an unchanged epoch is a fill again, not a hit.
        cache.clear();
        let ch2 = cache.channel(&cap, a, b).unwrap();
        assert_eq!(ch2, back, "clear must not change results, only reuse");
        assert_eq!(cache.efficiency().fills, 3, "post-clear lookup is a fill");
    }

    #[test]
    fn perfect_swap_rate_prefers_short_fibers() {
        let (net, [a, s1, b]) = two_route_net(1.0);
        let cap = CapacityMap::new(&net);
        let c = max_rate_channel(&net, &cap, a, b).unwrap();
        assert_eq!(c.interior_switches(), &[s1]);
        assert!((c.rate.value() - (-0.2f64).exp()).abs() < 1e-12);
    }
}

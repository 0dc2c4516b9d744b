//! Sustained-load streaming workload: groups arrive, hold switch qubits
//! for their session, and depart, each admission routed Prim-style
//! (Algorithm 4) over the residual capacity by the shared
//! [`AdmissionKernel`]. On top of the kernel the stream adds a
//! trace-realistic arrival process, capacity churn, and full streaming
//! instrumentation:
//!
//! * **diurnal modulation** — the per-slot arrival probability follows
//!   `base · (1 + amplitude · sin(2π · slot / period))`, clamped to
//!   `[0, 1]`, so load sweeps through quiet troughs and saturating
//!   peaks within one run;
//! * **heavy-tailed group sizes** — sizes are drawn from a truncated
//!   power law (`P(k) ∝ k^-alpha` over the configured range): mostly
//!   pairs, occasionally large groups that stress capacity;
//! * **hot-spot user regions** — a configurable fraction of users (by
//!   network order) is oversampled by a weight factor, concentrating
//!   contention the way real tenant populations do.
//!
//! Every slot feeds a [`TimeSeries`]: arrival/admission/block rates,
//! active-session / free-qubit / cache-hit-rate gauges, and a
//! per-window admission-latency histogram. Latency is measured in
//! **finder searches per admission decision** (the
//! [`ChannelFinderCache::search_count`] delta), not wall-clock — the
//! repo's deterministic latency proxy, byte-identical across machines
//! and thread counts.
//!
//! `Blocked` decision points are sampled 1-in-N through a
//! [`TraceSampler`] so a long saturated run cannot flood the flight
//! recorder; the sampler's cadence is consulted on every block
//! regardless of obs level, so [`StreamStats::sampled_out`] is
//! deterministic for a given seed.
//!
//! The workload itself is **open-loop**: [`RequestStream`] is a seeded
//! iterator of [`Request`]s — arrival slot, members, hold duration, and
//! [`SloClass`] all drawn up front, independent of admission outcomes —
//! so the identical offered load can be replayed through any consumer.
//! [`simulate_stream`] consumes it slot by slot (immediate per-request
//! admission); the batched admission service (`muerp-serve`) consumes
//! the same iterator in rounds. Because the stream is a pure function
//! of `(network, config, seed)`, the two consumers see bit-identical
//! request scripts — the property the serve differential battery rests
//! on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use qnet_graph::NodeId;
use qnet_obs::{TimeSeries, TimeSeriesConfig, TimeSeriesSection, TraceSampler};

use crate::algorithms::{CacheEfficiency, ChannelFinderCache};
use crate::extensions::admission::{AdmissionKernel, Blocked};
use crate::model::QuantumNetwork;

/// Workload, service, and telemetry parameters of a streaming run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Total virtual-time slots to simulate.
    pub slots: u64,
    /// Time-series window width in slots.
    pub window_slots: u64,
    /// Mean per-slot arrival probability (the diurnal baseline).
    pub base_arrival: f64,
    /// Relative swing of the diurnal cycle, in `[0, 1]`.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal cycle in slots.
    pub diurnal_period: u64,
    /// Inclusive range of requested group sizes.
    pub group_size: (usize, usize),
    /// Power-law exponent of the group-size distribution
    /// (`P(k) ∝ k^-alpha`; 0 = uniform).
    pub group_alpha: f64,
    /// Inclusive range of session durations in slots.
    pub hold_slots: (u64, u64),
    /// Fraction of users (by network order) forming the hot region.
    pub hotspot_fraction: f64,
    /// Sampling weight of a hot-region user relative to a cold one
    /// (≥ 1).
    pub hotspot_weight: f64,
    /// Trace-sampling period: every N-th `Blocked` decision point is
    /// admitted to the flight recorder.
    pub sample_every: u64,
    /// Capacity-churn period in slots: every N-th slot a random switch
    /// loses [`churn_qubits`](Self::churn_qubits) free qubits for
    /// [`churn_hold`](Self::churn_hold) slots (maintenance windows,
    /// calibration downtime). `0` disables churn. Churn draws from its
    /// own RNG stream, so enabling it never perturbs the base workload.
    #[serde(default)]
    pub churn_every: u64,
    /// Qubits withdrawn per churn event (capped at the switch's free
    /// count so the later restore is exact).
    #[serde(default = "default_churn_qubits")]
    pub churn_qubits: u32,
    /// Slots a churn withdrawal lasts before the qubits are granted
    /// back.
    #[serde(default = "default_churn_hold")]
    pub churn_hold: u64,
}

fn default_churn_qubits() -> u32 {
    2
}

fn default_churn_hold() -> u64 {
    64
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            slots: 2048,
            window_slots: 64,
            base_arrival: 0.35,
            diurnal_amplitude: 0.6,
            diurnal_period: 512,
            group_size: (2, 5),
            group_alpha: 1.8,
            hold_slots: (5, 20),
            hotspot_fraction: 0.3,
            hotspot_weight: 4.0,
            sample_every: 8,
            churn_every: 0,
            churn_qubits: default_churn_qubits(),
            churn_hold: default_churn_hold(),
        }
    }
}

impl StreamConfig {
    /// Panics on out-of-range parameters; every stream consumer
    /// ([`simulate_stream`], [`RequestStream`], the serve engine) calls
    /// this before drawing anything.
    pub fn validate(&self) {
        assert!(self.slots >= 1, "a stream needs at least one slot");
        assert!(
            self.window_slots >= 1,
            "windows must span at least one slot"
        );
        assert!(
            (0.0..=1.0).contains(&self.base_arrival),
            "base arrival probability must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.diurnal_amplitude),
            "diurnal amplitude must be in [0, 1]"
        );
        assert!(self.diurnal_period >= 1, "diurnal period must be positive");
        assert!(
            2 <= self.group_size.0 && self.group_size.0 <= self.group_size.1,
            "group sizes must satisfy 2 ≤ min ≤ max"
        );
        assert!(self.group_alpha >= 0.0, "group alpha must be non-negative");
        assert!(
            1 <= self.hold_slots.0 && self.hold_slots.0 <= self.hold_slots.1,
            "hold durations must satisfy 1 ≤ min ≤ max"
        );
        assert!(
            (0.0..=1.0).contains(&self.hotspot_fraction),
            "hotspot fraction must be in [0, 1]"
        );
        assert!(self.hotspot_weight >= 1.0, "hotspot weight must be ≥ 1");
        assert!(self.sample_every >= 1, "sampling period must be positive");
        if self.churn_every > 0 {
            assert!(self.churn_qubits >= 1, "churn must withdraw ≥ 1 qubit");
            assert!(self.churn_hold >= 1, "churn hold must be ≥ 1 slot");
        }
    }

    /// The diurnally modulated arrival probability at `slot`.
    pub fn arrival_at(&self, slot: u64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (slot % self.diurnal_period) as f64
            / self.diurnal_period as f64;
        (self.base_arrival * (1.0 + self.diurnal_amplitude * phase.sin())).clamp(0.0, 1.0)
    }
}

/// Service class of a request — the admission-priority tier the
/// weighted-fairness policy schedules by. Drawn per request from the
/// workload RNG (Gold 1/8, Silver 2/8, Bronze 5/8), so class mix is
/// part of the seeded script, not of the consumer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SloClass {
    /// Highest tier (rarest, largest fairness weight).
    Gold,
    /// Middle tier.
    Silver,
    /// Default tier (most requests).
    Bronze,
}

impl SloClass {
    /// All classes, Gold first — index order matches [`SloClass::index`].
    pub const ALL: [SloClass; 3] = [SloClass::Gold, SloClass::Silver, SloClass::Bronze];

    /// Stable display name (fixtures and CSV keys use this).
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Gold => "gold",
            SloClass::Silver => "silver",
            SloClass::Bronze => "bronze",
        }
    }

    /// Parses [`SloClass::name`] back.
    pub fn parse(name: &str) -> Option<SloClass> {
        SloClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Dense index into per-class arrays (Gold 0, Silver 1, Bronze 2).
    pub fn index(self) -> usize {
        match self {
            SloClass::Gold => 0,
            SloClass::Silver => 1,
            SloClass::Bronze => 2,
        }
    }

    fn draw(rng: &mut StdRng) -> SloClass {
        match rng.random_range(0..8u32) {
            0 => SloClass::Gold,
            1 | 2 => SloClass::Silver,
            _ => SloClass::Bronze,
        }
    }
}

/// One admission request of the seeded open-loop workload: everything
/// about it — when it arrives, who wants entanglement, how long the
/// session would hold, and its service class — is fixed at draw time,
/// before any admission decision is made.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Sequential id in arrival order (0-based).
    pub id: u64,
    /// Arrival slot.
    pub slot: u64,
    /// The distinct users requesting a shared entanglement group.
    pub members: Vec<NodeId>,
    /// Session duration in slots, counted from the admission decision.
    pub hold: u64,
    /// Service class for policy scheduling.
    pub class: SloClass,
}

/// The seeded open-loop request iterator: at most one arrival per slot
/// (Bernoulli on [`StreamConfig::arrival_at`]), heavy-tailed group
/// sizes, hot-spot-weighted members drawn from *all* users, hold and
/// [`SloClass`] drawn at arrival. Ends after
/// [`StreamConfig::slots`] slots.
///
/// A pure function of `(users, config, seed)`: iterating twice yields
/// identical scripts, which is what lets `simulate_stream` and the
/// batched serve engine consume the very same offered load.
pub struct RequestStream {
    cfg: StreamConfig,
    users: Vec<(usize, NodeId)>,
    hot_count: usize,
    rng: StdRng,
    slot: u64,
    next_id: u64,
}

impl RequestStream {
    /// Builds the request stream for `net`'s user population.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range configuration or when the network has
    /// fewer users than the maximum group size.
    pub fn new(net: &QuantumNetwork, cfg: StreamConfig, seed: u64) -> Self {
        cfg.validate();
        assert!(
            net.user_count() >= cfg.group_size.1,
            "network has {} users, groups need up to {}",
            net.user_count(),
            cfg.group_size.1
        );
        let users: Vec<(usize, NodeId)> = net.users().iter().copied().enumerate().collect();
        let hot_count = (cfg.hotspot_fraction * users.len() as f64).ceil() as usize;
        RequestStream {
            cfg,
            users,
            hot_count,
            rng: StdRng::seed_from_u64(seed),
            slot: 0,
            next_id: 0,
        }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        while self.slot < self.cfg.slots {
            let now = self.slot;
            self.slot += 1;
            if !self.rng.random_bool(self.cfg.arrival_at(now)) {
                continue;
            }
            let size = sample_group_size(&mut self.rng, self.cfg.group_size, self.cfg.group_alpha);
            let members = sample_members(
                &mut self.rng,
                &self.users,
                size,
                self.hot_count,
                self.cfg.hotspot_weight,
            );
            let hold = self
                .rng
                .random_range(self.cfg.hold_slots.0..=self.cfg.hold_slots.1);
            let class = SloClass::draw(&mut self.rng);
            let id = self.next_id;
            self.next_id += 1;
            return Some(Request {
                id,
                slot: now,
                members,
                hold,
                class,
            });
        }
        None
    }
}

/// Aggregate statistics of one streaming run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StreamStats {
    /// Requests that arrived.
    pub arrived: u64,
    /// Requests admitted (routed successfully).
    pub admitted: u64,
    /// Requests blocked because a requested member was already in an
    /// active session.
    pub blocked_no_users: u64,
    /// Requests blocked because no capacity-respecting tree existed.
    pub blocked_capacity: u64,
    /// Mean entanglement rate over admitted sessions.
    pub mean_session_rate: f64,
    /// Mean number of concurrently active sessions (per slot).
    pub mean_active_sessions: f64,
    /// Peak concurrent sessions.
    pub peak_active_sessions: usize,
    /// Finder searches executed over the whole run.
    pub total_searches: u64,
    /// `Blocked` decision points dropped by the trace sampler.
    pub sampled_out: u64,
    /// Capacity-churn events injected (0 when churn is disabled).
    pub churn_events: u64,
    /// Finder-cache hit/refresh/fill/repair tallies over the run.
    pub cache: CacheEfficiency,
}

impl StreamStats {
    /// Total blocked requests (either reason).
    pub fn blocked(&self) -> u64 {
        self.blocked_no_users + self.blocked_capacity
    }

    /// Fraction of arrived requests that were blocked.
    pub fn blocking_ratio(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.blocked() as f64 / self.arrived as f64
        }
    }
}

/// Everything a streaming run produces: the run-level totals and the
/// windowed time series.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamOutcome {
    /// Run-level aggregate statistics.
    pub stats: StreamStats,
    /// The frozen per-window series (no windows are evicted: the ring
    /// is sized to hold the whole run).
    pub series: TimeSeriesSection,
}

/// Runs the streaming workload for [`StreamConfig::slots`] slots,
/// consuming the open-loop [`RequestStream`] one request at a time.
///
/// Deterministic for a given `seed`: the virtual clock, the RNG, and
/// the search-count latency proxy are all independent of wall-clock
/// and thread count (admission routing is sequential by design).
///
/// # Panics
///
/// Panics on out-of-range configuration or when the network has fewer
/// users than the maximum group size.
pub fn simulate_stream(net: &QuantumNetwork, cfg: StreamConfig, seed: u64) -> StreamOutcome {
    // The offered load: a pure function of (net, cfg, seed), drawn
    // entirely from its own RNG so admission outcomes can never feed
    // back into arrivals, sizes, members, holds, or classes.
    let mut requests = RequestStream::new(net, cfg, seed).peekable();
    // Churn draws from its own stream so the base workload is
    // bit-identical with churn on or off.
    let mut churn_rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut kernel = AdmissionKernel::new(net, ChannelFinderCache::new(net));
    let mut sampler = TraceSampler::every(cfg.sample_every);
    let mut series = TimeSeries::new(TimeSeriesConfig {
        window_slots: cfg.window_slots,
        // Hold every window of the run: the section is the product
        // here, not a bounded diagnostic ring.
        capacity: (cfg.slots / cfg.window_slots + 2) as usize,
    });
    // Register the rate keys up front so every window — including
    // event-free ones before the first arrival — reports explicit
    // zeros.
    for key in [
        "arrivals",
        "admitted",
        "blocked_no_users",
        "blocked_capacity",
        "churn_events",
    ] {
        series.rate_add(key, 0);
    }

    let switches: Vec<NodeId> = net.switches().collect();
    // Outstanding churn withdrawals: (restore_at, switch, qubits).
    let mut maintenance: Vec<(u64, NodeId, u32)> = Vec::new();

    let mut stats = StreamStats::default();
    let mut session_rate_sum = 0.0f64;
    let mut active_slot_sum = 0u64;

    for now in 0..cfg.slots {
        series.advance_to(now);

        // Departures first: free the qubits of expired sessions.
        kernel.depart(now);

        // Capacity churn: restore expired withdrawals, then maybe take
        // a new switch down. Runs before the arrival so admission sees
        // the churned map — each withdraw/grant is a capacity delta the
        // finder cache absorbs incrementally.
        if cfg.churn_every > 0 {
            maintenance.retain(|&(restore_at, node, qubits)| {
                if restore_at <= now {
                    kernel.grant(node, qubits);
                }
                restore_at > now
            });
            if now % cfg.churn_every == 0 && now > 0 && !switches.is_empty() {
                let victim = switches[churn_rng.random_range(0..switches.len())];
                let taken = kernel.withdraw(victim, cfg.churn_qubits);
                maintenance.push((now + cfg.churn_hold, victim, taken));
                stats.churn_events += 1;
                series.rate_add("churn_events", 1);
                qnet_obs::counter!("core.stream.churn_events");
            }
        }

        while requests.peek().is_some_and(|r| r.slot == now) {
            let req = requests.next().expect("peeked");
            stats.arrived += 1;
            series.rate_add("arrivals", 1);
            qnet_obs::counter!("core.stream.arrivals");
            let size = req.members.len();
            let before = kernel.cache().search_count();
            let routed = kernel
                .admit(&req.members, now + req.hold)
                .map(|tree| tree.rate().value());
            if routed == Err(Blocked::Busy) {
                // Open-loop arrivals name their members up front, so a
                // request whose member is still in a session blocks.
                stats.blocked_no_users += 1;
                series.rate_add("blocked_no_users", 1);
                qnet_obs::counter!("core.stream.blocked", reason = "no_users");
                emit_block(&mut sampler, "member-busy", size, now);
                continue;
            }
            let searches = kernel.cache().search_count() - before;
            series.latency("admission_searches", searches);
            qnet_obs::histogram!("core.stream.admission_searches", searches);
            if let Ok(rate) = routed {
                stats.admitted += 1;
                series.rate_add("admitted", 1);
                qnet_obs::counter!("core.stream.admitted");
                session_rate_sum += rate;
            } else {
                stats.blocked_capacity += 1;
                series.rate_add("blocked_capacity", 1);
                qnet_obs::counter!("core.stream.blocked", reason = "capacity");
                emit_block(&mut sampler, "capacity", size, now);
            }
        }

        let active = kernel.active_sessions();
        active_slot_sum += active as u64;
        stats.peak_active_sessions = stats.peak_active_sessions.max(active);
        series.gauge("active_sessions", active as f64);
        series.gauge("free_qubits", kernel.free_qubits() as f64);
        series.gauge("cache_hit_rate", kernel.cache().efficiency().hit_rate());
    }

    stats.mean_session_rate = if stats.admitted == 0 {
        0.0
    } else {
        session_rate_sum / stats.admitted as f64
    };
    stats.mean_active_sessions = active_slot_sum as f64 / cfg.slots as f64;
    stats.total_searches = kernel.cache().search_count();
    stats.sampled_out = sampler.sampled_out();
    stats.cache = kernel.cache().efficiency();
    StreamOutcome {
        stats,
        series: series.finish(),
    }
}

/// Consults the sampler on every block (so the cadence and the
/// `sampled_out` tally are level-independent) and records the admitted
/// ones when tracing is on.
fn emit_block(sampler: &mut TraceSampler, reason: &'static str, size: usize, now: u64) {
    if sampler.admit() && qnet_obs::trace_enabled() {
        qnet_obs::record_event(qnet_obs::TraceEvent::Blocked {
            reason,
            group_size: size as u32,
            at_slot: now,
        });
    }
}

/// Draws a group size from the truncated power law `P(k) ∝ k^-alpha`
/// over `[lo, hi]`.
fn sample_group_size(rng: &mut StdRng, (lo, hi): (usize, usize), alpha: f64) -> usize {
    if lo == hi {
        return lo;
    }
    let total: f64 = (lo..=hi).map(|k| (k as f64).powf(-alpha)).sum();
    let mut x = rng.random_range(0.0..total);
    for k in lo..=hi {
        let w = (k as f64).powf(-alpha);
        if x < w {
            return k;
        }
        x -= w;
    }
    hi
}

/// Weighted sampling of `size` members without replacement from the
/// candidate users: those whose network-order position is below
/// `hot_count` carry `hot_weight`, the rest weight 1.
fn sample_members(
    rng: &mut StdRng,
    candidates: &[(usize, NodeId)],
    size: usize,
    hot_count: usize,
    hot_weight: f64,
) -> Vec<NodeId> {
    let mut pool: Vec<(f64, NodeId)> = candidates
        .iter()
        .map(|&(pos, u)| (if pos < hot_count { hot_weight } else { 1.0 }, u))
        .collect();
    let mut members = Vec::with_capacity(size);
    for _ in 0..size {
        let total: f64 = pool.iter().map(|&(w, _)| w).sum();
        let mut x = rng.random_range(0.0..total);
        let mut pick = pool.len() - 1;
        for (i, &(w, _)) in pool.iter().enumerate() {
            if x < w {
                pick = i;
                break;
            }
            x -= w;
        }
        members.push(pool.swap_remove(pick).1);
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkSpec;
    use std::collections::HashSet;

    fn net() -> QuantumNetwork {
        NetworkSpec::paper_default().build(52)
    }

    fn short_cfg() -> StreamConfig {
        StreamConfig {
            slots: 512,
            window_slots: 32,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = simulate_stream(&net(), short_cfg(), 9);
        let b = simulate_stream(&net(), short_cfg(), 9);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.series, b.series);
    }

    #[test]
    fn accounting_adds_up_and_windows_cover_the_run() {
        let out = simulate_stream(&net(), short_cfg(), 10);
        let stats = out.stats;
        assert!(stats.arrived > 0);
        assert_eq!(stats.arrived, stats.admitted + stats.blocked());
        assert!((0.0..=1.0).contains(&stats.blocking_ratio()));
        assert!(stats.mean_active_sessions <= stats.peak_active_sessions as f64);
        assert_eq!(out.series.evicted, 0, "the ring holds the whole run");
        assert_eq!(out.series.windows.len(), 512 / 32);
        // Window rates sum back to the run totals (nothing evicted).
        let sum = |key: &str| -> u64 { out.series.windows.iter().map(|w| w.rates[key]).sum() };
        assert_eq!(sum("arrivals"), stats.arrived);
        assert_eq!(sum("admitted"), stats.admitted);
        assert_eq!(sum("blocked_no_users"), stats.blocked_no_users);
        assert_eq!(sum("blocked_capacity"), stats.blocked_capacity);
        // And the merged latency histogram saw every routed decision.
        assert_eq!(
            out.series.merged_latency("admission_searches").count(),
            stats.admitted + stats.blocked_capacity
        );
    }

    #[test]
    fn every_window_reports_registered_series() {
        let out = simulate_stream(&net(), short_cfg(), 11);
        for w in &out.series.windows {
            for key in [
                "arrivals",
                "admitted",
                "blocked_no_users",
                "blocked_capacity",
                "churn_events",
            ] {
                assert!(w.rates.contains_key(key), "window {} lacks {key}", w.index);
            }
            for key in ["active_sessions", "free_qubits", "cache_hit_rate"] {
                assert!(w.gauges.contains_key(key), "window {} lacks {key}", w.index);
            }
        }
    }

    #[test]
    fn diurnal_modulation_clamps_and_cycles() {
        let cfg = StreamConfig {
            base_arrival: 0.7,
            diurnal_amplitude: 0.6,
            diurnal_period: 400,
            ..StreamConfig::default()
        };
        // Peak overshoots 1.0 and clamps; trough stays positive.
        assert_eq!(cfg.arrival_at(100), 1.0);
        let trough = cfg.arrival_at(300);
        assert!((trough - 0.7 * 0.4).abs() < 1e-9);
        // One full period later the cycle repeats exactly.
        assert_eq!(cfg.arrival_at(137), cfg.arrival_at(537));
    }

    #[test]
    fn group_sizes_follow_the_power_law() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u64; 6];
        for _ in 0..4_000 {
            let k = sample_group_size(&mut rng, (2, 5), 1.8);
            assert!((2..=5).contains(&k));
            counts[k] += 1;
        }
        assert!(
            counts[2] > 2 * counts[5],
            "alpha=1.8 must strongly favor pairs: {counts:?}"
        );
        // Degenerate range needs no draw at all.
        assert_eq!(sample_group_size(&mut rng, (3, 3), 1.8), 3);
    }

    #[test]
    fn hot_users_are_oversampled() {
        let mut rng = StdRng::seed_from_u64(2);
        let free: Vec<(usize, NodeId)> = (0..20_usize)
            .map(|i| (i, qnet_graph::NodeId::new(i)))
            .collect();
        let hot_count = 5;
        let mut hot_picks = 0u64;
        let mut total = 0u64;
        for _ in 0..2_000 {
            let members = sample_members(&mut rng, &free, 3, hot_count, 8.0);
            assert_eq!(members.len(), 3);
            let distinct: HashSet<_> = members.iter().collect();
            assert_eq!(distinct.len(), 3, "sampling is without replacement");
            hot_picks += members.iter().filter(|m| m.index() < hot_count).count() as u64;
            total += 3;
        }
        // 25% of users carry weight 8: expect well over half the picks.
        assert!(
            hot_picks * 2 > total,
            "hot region under-sampled: {hot_picks}/{total}"
        );
    }

    #[test]
    fn sampler_tally_is_exact_and_level_independent() {
        let out = simulate_stream(&net(), short_cfg(), 12);
        let blocked = out.stats.blocked();
        assert!(blocked > 0, "workload must block under this seed");
        // 1-in-8 cadence: the first block of each run of 8 is kept.
        let kept = blocked.div_ceil(8);
        assert_eq!(out.stats.sampled_out, blocked - kept);
    }

    fn churn_cfg() -> StreamConfig {
        StreamConfig {
            churn_every: 16,
            churn_qubits: 4,
            churn_hold: 48,
            ..short_cfg()
        }
    }

    #[test]
    fn churn_is_deterministic_and_counted_exactly() {
        let a = simulate_stream(&net(), churn_cfg(), 21);
        let b = simulate_stream(&net(), churn_cfg(), 21);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.series, b.series);
        // Slots 16, 32, … 496 fire: (slots - 1) / churn_every events.
        assert_eq!(a.stats.churn_events, (512 - 1) / 16);
        let sum: u64 = a
            .series
            .windows
            .iter()
            .map(|w| w.rates["churn_events"])
            .sum();
        assert_eq!(sum, a.stats.churn_events, "windows account for every event");
        // Relay-killing withdrawals must exercise the repair path.
        assert!(
            a.stats.cache.repairs > 0,
            "churn must trigger delta repairs"
        );
    }

    #[test]
    fn churn_perturbs_capacity_but_not_the_base_workload() {
        let calm = simulate_stream(&net(), short_cfg(), 22);
        let churned = simulate_stream(&net(), churn_cfg(), 22);
        // Arrivals draw from the main RNG stream only, so the offered
        // load is bit-identical; only admission outcomes may move.
        assert_eq!(calm.stats.arrived, churned.stats.arrived);
        assert_eq!(calm.stats.churn_events, 0);
        assert!(churned.stats.churn_events > 0);
    }

    #[test]
    fn request_stream_is_deterministic_and_open_loop() {
        let net = net();
        let a: Vec<Request> = RequestStream::new(&net, short_cfg(), 33).collect();
        let b: Vec<Request> = RequestStream::new(&net, short_cfg(), 33).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let (lo, hi) = short_cfg().group_size;
        let (hlo, hhi) = short_cfg().hold_slots;
        let mut classes = HashSet::new();
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.id, i as u64, "ids are sequential in arrival order");
            assert!(r.slot < short_cfg().slots);
            assert!((lo..=hi).contains(&r.members.len()));
            let distinct: HashSet<_> = r.members.iter().collect();
            assert_eq!(distinct.len(), r.members.len(), "members are distinct");
            assert!((hlo..=hhi).contains(&r.hold));
            classes.insert(r.class);
        }
        // Slots strictly increase (at most one arrival per slot).
        for w in a.windows(2) {
            assert!(w[0].slot < w[1].slot);
        }
        assert!(classes.len() >= 2, "a 512-slot run draws several classes");
    }

    #[test]
    fn stream_consumes_the_request_iterator_verbatim() {
        let out = simulate_stream(&net(), short_cfg(), 14);
        let script: Vec<Request> = RequestStream::new(&net(), short_cfg(), 14).collect();
        // Every scripted request arrives — admission outcomes cannot
        // feed back into the offered load.
        assert_eq!(out.stats.arrived, script.len() as u64);
    }

    /// A flat (non-diurnal) workload with the given load and holds.
    fn load_cfg(base_arrival: f64, hold_slots: (u64, u64)) -> StreamConfig {
        StreamConfig {
            slots: 4_000,
            window_slots: 100,
            base_arrival,
            diurnal_amplitude: 0.0,
            hold_slots,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn heavier_load_blocks_more() {
        let light = simulate_stream(&net(), load_cfg(0.05, (2, 4)), 3).stats;
        let heavy = simulate_stream(&net(), load_cfg(0.9, (30, 60)), 3).stats;
        assert!(
            heavy.blocking_ratio() > light.blocking_ratio(),
            "heavy {} vs light {}",
            heavy.blocking_ratio(),
            light.blocking_ratio()
        );
        assert!(heavy.mean_active_sessions > light.mean_active_sessions);
    }

    #[test]
    fn short_holds_on_an_idle_network_rarely_block() {
        // With short holds and long gaps, capacity returns to full:
        // pairs on an otherwise idle network are almost always routable.
        let cfg = StreamConfig {
            slots: 8_000,
            group_size: (2, 2),
            ..load_cfg(0.02, (1, 2))
        };
        let stats = simulate_stream(&net(), cfg, 4).stats;
        assert!(stats.arrived > 50);
        assert!(
            stats.blocking_ratio() < 0.05,
            "blocking {} too high for an idle network",
            stats.blocking_ratio()
        );
    }

    #[test]
    fn blocked_decisions_land_in_the_flight_recorder() {
        qnet_obs::set_level(qnet_obs::ObsLevel::Trace);
        qnet_obs::reset_trace();
        // Tag this thread with a sentinel so the assertion stays exact
        // even if a concurrent test emits trace events into the shared
        // ring.
        qnet_obs::record_event(qnet_obs::TraceEvent::Blocked {
            reason: "sentinel",
            group_size: 0,
            at_slot: u64::MAX,
        });
        let cfg = StreamConfig {
            slots: 2_000,
            sample_every: 1,
            ..load_cfg(0.9, (30, 60))
        };
        let stats = simulate_stream(&net(), cfg, 7).stats;
        let events = qnet_obs::trace_snapshot();
        qnet_obs::set_level(qnet_obs::ObsLevel::Counters);
        qnet_obs::reset_trace();

        let me = events
            .iter()
            .find_map(|s| match s.event {
                qnet_obs::TraceEvent::Blocked {
                    reason: "sentinel", ..
                } => Some(s.thread),
                _ => None,
            })
            .expect("sentinel event recorded");
        let (mut busy, mut capacity) = (0u64, 0u64);
        for s in events.iter().filter(|s| s.thread == me) {
            if let qnet_obs::TraceEvent::Blocked {
                reason,
                group_size,
                at_slot,
            } = s.event
            {
                match reason {
                    "sentinel" => continue,
                    "member-busy" => busy += 1,
                    "capacity" => capacity += 1,
                    other => panic!("unexpected block reason {other}"),
                }
                assert!(at_slot < cfg.slots, "block stamped with its slot");
                assert!(group_size >= 2, "block carries the group size");
            }
        }
        assert!(stats.blocked() > 0, "heavy load must block");
        assert_eq!(stats.sampled_out, 0, "1-in-1 sampling keeps every block");
        assert_eq!(busy, stats.blocked_no_users);
        assert_eq!(capacity, stats.blocked_capacity);
    }

    #[test]
    #[should_panic(expected = "network has 3 users, groups need up to 5")]
    fn groups_larger_than_the_user_set_are_rejected_up_front() {
        let net = NetworkSpec::paper_default().with_users(3).build(52);
        let cfg = StreamConfig {
            slots: 200,
            base_arrival: 1.0,
            group_size: (2, 5),
            ..StreamConfig::default()
        };
        RequestStream::new(&net, cfg, 1);
    }

    #[test]
    #[should_panic(expected = "hotspot weight")]
    fn bad_config_rejected() {
        simulate_stream(
            &net(),
            StreamConfig {
                hotspot_weight: 0.5,
                ..StreamConfig::default()
            },
            13,
        );
    }
}

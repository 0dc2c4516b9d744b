//! The batched admission engine: rounds, decisions, telemetry.
//!
//! Virtual time is split into rounds of [`ServeConfig::round_slots`]
//! slots. All decisions of round `r` are made at its **decision slot**
//! `end = min((r+1)·round_slots, slots)`:
//!
//! 1. sessions with `expires_at ≤ end` depart through the
//!    [`AdmissionKernel`];
//! 2. arrivals with `slot < end` not yet collected are offered to the
//!    bounded queue; overflow is shed with a [`Verdict::Shed`] decision;
//! 3. the cache is warmed once for every distinct member of the kept
//!    queue (the qnet-pool batch path — one parallel fan-out per round);
//! 4. the queue is ordered by the policy and each request admitted or
//!    blocked by the kernel, sequentially in that order.
//!
//! Every count lands twice: in the run-level [`ServeStats`] and in the
//! per-round [`qnet_obs::TimeSeries`] (one window per round), and the
//! two must agree exactly — a proptest holds admitted + blocked + shed
//! equal to the arrival total across arbitrary round sizes.

use qnet_graph::NodeId;
use qnet_obs::{TimeSeries, TimeSeriesConfig, TimeSeriesSection};
use qnet_pool::Pool;

use muerp_core::algorithms::{CacheEfficiency, ChannelFinderCache};
use muerp_core::extensions::{
    AdmissionKernel, Blocked, Request, RequestStream, SloClass, StreamConfig,
};
use muerp_core::model::QuantumNetwork;
use muerp_core::tree::EntanglementTree;

use crate::policy::{order_requests, DeficitState, PolicyKind};
use crate::queue::BoundedQueue;

/// Configuration of a batched admission run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeConfig {
    /// Workload shape and total slot count (the request stream's
    /// parameters; churn fields are ignored — the service owns all
    /// capacity changes through admissions and departures).
    pub stream: StreamConfig,
    /// Slots per admission round; decisions happen at round ends.
    pub round_slots: u64,
    /// Bounded-queue capacity: arrivals beyond this within one round
    /// are shed.
    pub queue_capacity: usize,
    /// Admission-order policy.
    pub policy: PolicyKind,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            stream: StreamConfig::default(),
            round_slots: 32,
            queue_capacity: 16,
            policy: PolicyKind::Fcfs,
        }
    }
}

impl ServeConfig {
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        self.stream.validate();
        assert!(self.round_slots >= 1, "rounds must span at least one slot");
        assert!(self.queue_capacity >= 1, "queue capacity must be ≥ 1");
    }

    /// Number of rounds a run of this configuration executes.
    pub fn rounds(&self) -> u64 {
        self.stream.slots.div_ceil(self.round_slots)
    }
}

/// The outcome of one request's admission decision.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Admitted with this entanglement tree (channels reserved).
    Admitted {
        /// The routed group tree, bitwise-comparable across engines.
        tree: EntanglementTree,
    },
    /// A requested member was still in an active session.
    BlockedBusy,
    /// No capacity-respecting tree existed.
    BlockedCapacity,
    /// Shed by backpressure before any routing was attempted.
    Shed,
}

impl Verdict {
    /// Stable name (fixtures and CSV keys use this).
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Admitted { .. } => "admitted",
            Verdict::BlockedBusy => "blocked-busy",
            Verdict::BlockedCapacity => "blocked-capacity",
            Verdict::Shed => "shed",
        }
    }
}

/// One request's decision, in decision order (sheds first, then the
/// policy-ordered admissions of each round).
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// Id of the decided request.
    pub request: u64,
    /// The request's arrival slot.
    pub arrived_slot: u64,
    /// Round the decision was made in.
    pub round: u64,
    /// The request's SLO class.
    pub class: SloClass,
    /// Requested group size.
    pub size: usize,
    /// The verdict (with the routed tree when admitted).
    pub verdict: Verdict,
}

/// Per-round accounting, also mirrored into the time series (one
/// window per round).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundReport {
    /// Round index.
    pub round: u64,
    /// Decision slot (exclusive end of the round's slot window).
    pub end_slot: u64,
    /// Requests decided by the policy this round (post-shed).
    pub queued: usize,
    /// Requests shed by backpressure this round.
    pub shed: u64,
    /// Admissions this round.
    pub admitted: u64,
    /// Member-busy blocks this round.
    pub blocked_busy: u64,
    /// Capacity blocks this round.
    pub blocked_capacity: u64,
    /// Sessions departed at this round's decision point.
    pub departures: u64,
    /// Full finder searches this round (warm batch + admission loop).
    pub searches: u64,
    /// Distinct sources warmed for this round's queue.
    pub warmed: usize,
}

/// Per-class decision tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassTally {
    /// Requests of this class that arrived.
    pub arrived: u64,
    /// …that were admitted.
    pub admitted: u64,
    /// …that were blocked (either reason).
    pub blocked: u64,
    /// …that were shed by backpressure.
    pub shed: u64,
}

/// Run-level aggregate statistics of one serve run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Requests that arrived.
    pub arrived: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests blocked because a member was busy.
    pub blocked_busy: u64,
    /// Requests blocked for lack of capacity.
    pub blocked_capacity: u64,
    /// Requests shed by backpressure.
    pub shed: u64,
    /// Sessions that departed during the run.
    pub departures: u64,
    /// Peak queue depth observed at any decision point.
    pub peak_queue: usize,
    /// Peak concurrently active sessions.
    pub peak_active_sessions: usize,
    /// Mean entanglement rate over admitted sessions.
    pub mean_session_rate: f64,
    /// Full finder searches over the whole run.
    pub total_searches: u64,
    /// Finder-cache tallies over the run.
    pub cache: CacheEfficiency,
    /// Per-class tallies, indexed by [`SloClass::index`].
    pub per_class: [ClassTally; 3],
}

impl ServeStats {
    /// Total blocked requests (either reason).
    pub fn blocked(&self) -> u64 {
        self.blocked_busy + self.blocked_capacity
    }

    /// Fraction of arrivals not admitted (blocked or shed).
    pub fn loss_ratio(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            (self.blocked() + self.shed) as f64 / self.arrived as f64
        }
    }
}

/// Everything a serve run produces.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOutcome {
    /// Run-level totals.
    pub stats: ServeStats,
    /// Every decision, in decision order.
    pub decisions: Vec<Decision>,
    /// Per-round reports, in round order.
    pub rounds: Vec<RoundReport>,
    /// The per-round time series (one window per round).
    pub series: TimeSeriesSection,
    /// Final deficit balances of the weighted-fairness policy (zeros
    /// under the other policies).
    pub deficits: [u64; 3],
}

/// Runs the full service over the seeded request stream: draws the
/// script via [`RequestStream`] and batches it through
/// [`serve_requests`].
pub fn serve(net: &QuantumNetwork, cfg: &ServeConfig, seed: u64) -> ServeOutcome {
    let requests: Vec<Request> = RequestStream::new(net, cfg.stream, seed).collect();
    serve_requests(net, cfg, &requests)
}

/// [`serve`] over an explicit request script, with the pool width taken
/// from the environment (`MUERP_THREADS`).
pub fn serve_requests(
    net: &QuantumNetwork,
    cfg: &ServeConfig,
    requests: &[Request],
) -> ServeOutcome {
    serve_with_cache(net, cfg, requests, ChannelFinderCache::new(net))
}

/// [`serve_requests`] with an explicit pool — the hook the differential
/// battery uses to pin widths 1 and 4.
pub fn serve_requests_with_pool(
    net: &QuantumNetwork,
    cfg: &ServeConfig,
    requests: &[Request],
    pool: Pool,
) -> ServeOutcome {
    serve_with_cache(net, cfg, requests, ChannelFinderCache::with_pool(net, pool))
}

fn serve_with_cache<'n>(
    net: &'n QuantumNetwork,
    cfg: &ServeConfig,
    requests: &[Request],
    cache: ChannelFinderCache<'n>,
) -> ServeOutcome {
    cfg.validate();
    let mut kernel = AdmissionKernel::new(net, cache);
    let rounds_total = cfg.rounds();
    let mut series = TimeSeries::new(TimeSeriesConfig {
        window_slots: cfg.round_slots,
        capacity: (rounds_total + 2) as usize,
    });
    for key in [
        "arrivals",
        "admitted",
        "blocked_busy",
        "blocked_capacity",
        "shed",
        "departures",
    ] {
        series.rate_add(key, 0);
    }

    let mut queue = BoundedQueue::new(cfg.queue_capacity);
    let mut deficit = DeficitState::new();
    let mut stats = ServeStats::default();
    let mut decisions: Vec<Decision> = Vec::new();
    let mut rounds: Vec<RoundReport> = Vec::new();
    let mut session_rate_sum = 0.0f64;
    let mut next = 0usize;

    for round in 0..rounds_total {
        let start = round * cfg.round_slots;
        let end = ((round + 1) * cfg.round_slots).min(cfg.stream.slots);
        series.advance_to(start);

        // 1. Departures due by the decision slot.
        let departed = kernel.depart(end);
        stats.departures += departed;

        // 2. Collect the round's arrivals into the bounded queue.
        while next < requests.len() && requests[next].slot < end {
            let r = requests[next].clone();
            next += 1;
            stats.arrived += 1;
            stats.per_class[r.class.index()].arrived += 1;
            series.rate_add("arrivals", 1);
            qnet_obs::counter!("serve.arrivals");
            queue.offer(r);
        }
        let (kept, shed) = queue.drain();
        for r in &shed {
            stats.shed += 1;
            stats.per_class[r.class.index()].shed += 1;
            series.rate_add("shed", 1);
            qnet_obs::counter!("serve.shed");
            decisions.push(Decision {
                request: r.id,
                arrived_slot: r.slot,
                round,
                class: r.class,
                size: r.members.len(),
                verdict: Verdict::Shed,
            });
        }
        stats.peak_queue = stats.peak_queue.max(kept.len());

        // 3. Warm the cache once for every distinct member (the
        // qnet-pool batch path: one parallel fan-out per round).
        let mut sources: Vec<NodeId> = kept
            .iter()
            .flat_map(|r| r.members.iter().copied())
            .collect();
        sources.sort_unstable();
        sources.dedup();
        let searches_before = kernel.cache().search_count();
        kernel.warm(&sources);

        // 4. Policy order, then sequential admission against shared
        // capacity.
        let order = order_requests(cfg.policy, &kept, &mut deficit);
        let mut report = RoundReport {
            round,
            end_slot: end,
            queued: kept.len(),
            shed: shed.len() as u64,
            departures: departed,
            warmed: sources.len(),
            ..RoundReport::default()
        };
        for idx in order {
            let r = &kept[idx];
            let verdict = match kernel.admit(&r.members, end + r.hold) {
                Ok(tree) => {
                    stats.admitted += 1;
                    stats.per_class[r.class.index()].admitted += 1;
                    report.admitted += 1;
                    series.rate_add("admitted", 1);
                    qnet_obs::counter!("serve.admitted");
                    session_rate_sum += tree.rate().value();
                    Verdict::Admitted { tree: tree.clone() }
                }
                Err(Blocked::Busy) => {
                    stats.blocked_busy += 1;
                    stats.per_class[r.class.index()].blocked += 1;
                    report.blocked_busy += 1;
                    series.rate_add("blocked_busy", 1);
                    qnet_obs::counter!("serve.blocked", reason = "busy");
                    Verdict::BlockedBusy
                }
                Err(Blocked::NoCapacity) => {
                    stats.blocked_capacity += 1;
                    stats.per_class[r.class.index()].blocked += 1;
                    report.blocked_capacity += 1;
                    series.rate_add("blocked_capacity", 1);
                    qnet_obs::counter!("serve.blocked", reason = "capacity");
                    Verdict::BlockedCapacity
                }
            };
            decisions.push(Decision {
                request: r.id,
                arrived_slot: r.slot,
                round,
                class: r.class,
                size: r.members.len(),
                verdict,
            });
        }

        report.searches = kernel.cache().search_count() - searches_before;
        series.rate_add("departures", departed);
        series.latency("round_searches", report.searches);
        qnet_obs::histogram!("serve.round_searches", report.searches);
        let active = kernel.active_sessions();
        stats.peak_active_sessions = stats.peak_active_sessions.max(active);
        series.gauge("queue_depth", kept.len() as f64);
        series.gauge("active_sessions", active as f64);
        series.gauge("free_qubits", kernel.free_qubits() as f64);
        series.gauge("cache_hit_rate", kernel.cache().efficiency().hit_rate());
        rounds.push(report);
    }

    stats.mean_session_rate = if stats.admitted == 0 {
        0.0
    } else {
        session_rate_sum / stats.admitted as f64
    };
    stats.total_searches = kernel.cache().search_count();
    stats.cache = kernel.cache().efficiency();
    ServeOutcome {
        stats,
        decisions,
        rounds,
        series: series.finish(),
        deficits: deficit.deficits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muerp_core::audit::audit_group;
    use muerp_core::model::NetworkSpec;

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            stream: StreamConfig {
                slots: 256,
                window_slots: 32,
                ..StreamConfig::default()
            },
            round_slots: 16,
            queue_capacity: 4,
            policy: PolicyKind::Fcfs,
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let net = NetworkSpec::paper_default().build(7);
        let a = serve(&net, &small_cfg(), 7);
        let b = serve(&net, &small_cfg(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn accounting_adds_up_and_rounds_cover_the_run() {
        let net = NetworkSpec::paper_default().build(8);
        let out = serve(&net, &small_cfg(), 8);
        let s = out.stats;
        assert!(s.arrived > 0);
        assert_eq!(s.arrived, s.admitted + s.blocked() + s.shed);
        assert_eq!(out.decisions.len() as u64, s.arrived);
        assert_eq!(out.rounds.len() as u64, small_cfg().rounds());
        assert_eq!(out.series.windows.len(), out.rounds.len());
        assert_eq!(out.series.evicted, 0);
        // Per-round reports agree with the run totals.
        let sum = |f: fn(&RoundReport) -> u64| out.rounds.iter().map(f).sum::<u64>();
        assert_eq!(sum(|r| r.admitted), s.admitted);
        assert_eq!(sum(|r| r.shed), s.shed);
        assert_eq!(sum(|r| r.blocked_busy + r.blocked_capacity), s.blocked());
        assert_eq!(sum(|r| r.departures), s.departures);
        // And with the time series.
        assert_eq!(out.series.merged_rate("arrivals"), s.arrived);
        assert_eq!(out.series.merged_rate("admitted"), s.admitted);
        assert_eq!(out.series.merged_rate("shed"), s.shed);
        // Per-class tallies partition the totals.
        let class_sum = |f: fn(&ClassTally) -> u64| out.stats.per_class.iter().map(f).sum::<u64>();
        assert_eq!(class_sum(|c| c.arrived), s.arrived);
        assert_eq!(class_sum(|c| c.admitted), s.admitted);
        assert_eq!(class_sum(|c| c.blocked), s.blocked());
        assert_eq!(class_sum(|c| c.shed), s.shed);
    }

    #[test]
    fn backpressure_sheds_under_a_tight_queue() {
        let net = NetworkSpec::paper_default().build(9);
        let mut cfg = small_cfg();
        cfg.queue_capacity = 2;
        let out = serve(&net, &cfg, 9);
        assert!(
            out.stats.shed > 0,
            "2-deep queue under 16-slot rounds sheds"
        );
        for d in &out.decisions {
            if d.verdict == Verdict::Shed {
                assert!(d.size >= 2);
            }
        }
    }

    #[test]
    fn admitted_trees_pass_the_independent_audit() {
        let net = NetworkSpec::paper_default().build(10);
        let cfg = small_cfg();
        let requests: Vec<Request> = RequestStream::new(&net, cfg.stream, 10).collect();
        let out = serve_requests(&net, &cfg, &requests);
        let mut audited = 0;
        for d in &out.decisions {
            if let Verdict::Admitted { tree } = &d.verdict {
                let members = &requests[d.request as usize].members;
                audit_group(&net, members, tree).expect("audit-clean");
                audited += 1;
            }
        }
        assert!(audited > 0, "workload must admit something");
    }

    #[test]
    fn policies_reorder_but_conserve_accounting() {
        let net = NetworkSpec::paper_default().build(11);
        let mut per_policy = Vec::new();
        for policy in PolicyKind::ALL {
            let cfg = ServeConfig {
                policy,
                ..small_cfg()
            };
            let out = serve(&net, &cfg, 11);
            assert_eq!(
                out.stats.arrived,
                out.stats.admitted + out.stats.blocked() + out.stats.shed
            );
            per_policy.push(out);
        }
        // All policies see the identical offered load and sheds (sheds
        // happen before ordering).
        assert!(per_policy.windows(2).all(
            |w| w[0].stats.arrived == w[1].stats.arrived && w[0].stats.shed == w[1].stats.shed
        ));
        // Non-FCFS policies must leave no deficit trace unless weighted.
        assert_eq!(per_policy[0].deficits, [0, 0, 0]);
        assert_eq!(per_policy[1].deficits, [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn bad_config_rejected() {
        let net = NetworkSpec::paper_default().build(3);
        let cfg = ServeConfig {
            queue_capacity: 0,
            ..small_cfg()
        };
        serve(&net, &cfg, 3);
    }
}

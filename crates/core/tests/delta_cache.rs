//! Differential battery for the dirty-set cache: every lookup served
//! after a sequence of capacity deltas — by O(1) revalidation, in-place
//! SSSP repair, or full recompute — must be **bitwise identical** to a
//! cold, cache-free `ChannelFinder` under the same capacity map, at
//! every pool width, and the warm path must never install an entry a
//! concurrent-looking delta could leave stale (the snapshot/install
//! hazard).

use muerp_core::algorithms::{ChannelFinder, ChannelFinderCache};
use muerp_core::channel::CapacityMap;
use muerp_core::extensions::{AdmissionKernel, Blocked};
use muerp_core::model::{NetworkSpec, NodeKind, PhysicsParams, QuantumNetwork};
use qnet_graph::{Graph, NodeId};
use qnet_pool::Pool;

/// Asserts every cached per-source run equals a cold from-scratch run
/// under `capacity` — distances, predecessors, reachability.
fn assert_matches_cold(
    net: &QuantumNetwork,
    cache: &mut ChannelFinderCache<'_>,
    capacity: &CapacityMap,
    sources: &[NodeId],
    context: &str,
) {
    for &src in sources {
        let cached = cache.finder(capacity, src).run().clone();
        let cold = ChannelFinder::from_source(net, capacity, src);
        assert_eq!(
            &cached,
            cold.run(),
            "cached run for source {src} diverged from cold recomputation ({context})"
        );
    }
}

/// A deterministic delta schedule exercising every classification arm:
/// threshold-preserving reserves (clean), relay-killing withdrawals
/// (repair), restorations (recompute), and cancelling round trips.
fn delta_schedule(net: &QuantumNetwork) -> Vec<(NodeId, i64)> {
    let switches: Vec<NodeId> = net.switches().collect();
    let mut schedule = Vec::new();
    for (i, &s) in switches.iter().enumerate().take(6) {
        match i % 3 {
            0 => {
                // Kill the relay outright, then bring it back.
                schedule.push((s, -1_000));
                schedule.push((s, 1_000));
            }
            1 => {
                // Shave capacity without crossing the ≥ 2 threshold.
                let spare = net.kind(s).qubits().saturating_sub(3).min(4) as i64;
                schedule.push((s, -spare));
            }
            _ => {
                // Kill another relay and leave it dead.
                schedule.push((s, -1_000));
            }
        }
    }
    schedule
}

fn apply(capacity: &mut CapacityMap, (node, qubits): (NodeId, i64)) {
    if qubits < 0 {
        capacity.withdraw(node, (-qubits) as u32);
    } else {
        capacity.grant(node, qubits as u32);
    }
}

#[test]
fn delta_sequence_matches_cold_cache_at_every_step() {
    let net = NetworkSpec::paper_default().build(42);
    let users = net.users().to_vec();
    let mut capacity = CapacityMap::new(&net);
    let mut cache = ChannelFinderCache::with_pool(&net, Pool::with_threads(1));
    cache.warm(&capacity, &users);
    assert_matches_cold(&net, &mut cache, &capacity, &users, "initial warm");

    for (step, &delta) in delta_schedule(&net).iter().enumerate() {
        apply(&mut capacity, delta);
        assert_matches_cold(
            &net,
            &mut cache,
            &capacity,
            &users,
            &format!("after delta #{step} {delta:?}"),
        );
    }
    let eff = cache.efficiency();
    assert!(
        eff.repairs > 0,
        "the schedule must exercise the repair path, got {eff:?}"
    );
}

#[test]
fn warm_batches_are_width_invariant_under_deltas() {
    // The same warm-then-delta-then-warm sequence must leave identical
    // cache state and identical deterministic tallies at widths 1 and 3.
    let run = |threads: usize| {
        let net = NetworkSpec::paper_default().build(7);
        let users = net.users().to_vec();
        let mut capacity = CapacityMap::new(&net);
        let mut cache = ChannelFinderCache::with_pool(&net, Pool::with_threads(threads));
        let mut runs = Vec::new();
        cache.warm(&capacity, &users);
        for &delta in &delta_schedule(&net) {
            apply(&mut capacity, delta);
            cache.warm(&capacity, &users);
            for &src in &users {
                runs.push(cache.finder(&capacity, src).run().clone());
            }
        }
        (runs, cache.search_count(), cache.efficiency())
    };
    let narrow = run(1);
    let wide = run(3);
    assert_eq!(
        narrow.0, wide.0,
        "cached runs must not depend on pool width"
    );
    assert_eq!(
        narrow.1, wide.1,
        "search counts must not depend on pool width"
    );
    assert_eq!(narrow.2, wide.2, "tallies must not depend on pool width");
}

#[test]
fn warm_then_lookup_matches_lazy_lookups_at_every_step() {
    // `warm` and `finder` bring entries up to date through one shared
    // decision, so warming before the lookups must change nothing but
    // the hit count: the same runs, the same full searches, the same
    // repairs, refreshes and fills. (Warm never counts a hit; lookups
    // after it do, so hits legitimately differ.)
    let net = NetworkSpec::paper_default().build(42);
    let users = net.users().to_vec();
    let mut capacity = CapacityMap::new(&net);
    let mut warmed = ChannelFinderCache::with_pool(&net, Pool::with_threads(1));
    let mut lazy = ChannelFinderCache::with_pool(&net, Pool::with_threads(1));
    let mut step = |capacity: &CapacityMap, context: &str| {
        warmed.warm(capacity, &users);
        for &u in &users {
            assert_eq!(
                warmed.finder(capacity, u).run(),
                lazy.finder(capacity, u).run(),
                "source {u} diverged ({context})"
            );
        }
        assert_eq!(
            warmed.search_count(),
            lazy.search_count(),
            "search counts ({context})"
        );
        let (w, l) = (warmed.efficiency(), lazy.efficiency());
        assert_eq!(
            (w.repairs, w.refreshes, w.fills),
            (l.repairs, l.refreshes, l.fills),
            "tallies ({context}): warmed {w:?}, lazy {l:?}"
        );
    };
    step(&capacity, "initial");
    for (i, &delta) in delta_schedule(&net).iter().enumerate() {
        apply(&mut capacity, delta);
        step(&capacity, &format!("after delta #{i} {delta:?}"));
    }
    assert!(
        lazy.efficiency().repairs > 0 && lazy.efficiency().refreshes > 0,
        "the schedule must exercise repairs and refreshes, got {:?}",
        lazy.efficiency()
    );
}

#[test]
fn warm_snapshot_cannot_leave_stale_entry_marked_clean() {
    // Satellite-4 regression: `warm` snapshots the epoch before worker
    // fan-out and installs entries keyed to it afterwards. A delta
    // "landing between snapshot and install" — i.e. any mutation the
    // cache has not observed when the entries are consulted next — must
    // be classified against those entries, never absorbed silently.
    let net = NetworkSpec::paper_default().build(11);
    let users = net.users().to_vec();
    let capacity = CapacityMap::new(&net);
    let mut cache = ChannelFinderCache::with_pool(&net, Pool::with_threads(3));
    cache.warm(&capacity, &users);
    let warmed_searches = cache.search_count();

    // The delta lands right after the warm's install: kill a relay that
    // sits on at least one cached shortest-path tree.
    let mut degraded = capacity.clone();
    let victim = net
        .switches()
        .find(|&s| {
            users
                .iter()
                .any(|&u| cache.finder(&capacity, u).run().distance(s).is_some())
        })
        .expect("some switch is reachable from some user");
    degraded.withdraw(victim, 1_000);

    // Every lookup under the degraded map must match a cold finder —
    // an entry still marked clean for the old snapshot would serve the
    // pre-delta tree here.
    assert_matches_cold(&net, &mut cache, &degraded, &users, "post-warm delta");
    assert_eq!(
        cache.search_count(),
        warmed_searches,
        "a relay kill is locally repairable: no full searches, only repairs"
    );
    assert!(cache.efficiency().repairs > 0, "delta must not be absorbed");

    // And flipping back to the original map (epoch ping-pong across the
    // same content) must recompute, not reuse the degraded trees.
    let restored = {
        let mut c = degraded.clone();
        c.grant(victim, 1_000);
        c
    };
    assert_matches_cold(&net, &mut cache, &restored, &users, "restored map");
}

#[test]
fn kill_and_restore_cancels_pending_repairs() {
    // A worsening flip observed mid-flight and then reversed before the
    // other entries are consulted must net out: the restored relay
    // cancels their pending repair and they revalidate to their
    // original (still bitwise-correct) runs.
    let net = NetworkSpec::paper_default().build(5);
    let users = net.users().to_vec();
    assert!(users.len() >= 2);
    let mut capacity = CapacityMap::new(&net);
    let mut cache = ChannelFinderCache::with_pool(&net, Pool::with_threads(1));
    cache.warm(&capacity, &users);

    let victim = net
        .switches()
        .find(|&s| {
            users
                .iter()
                .any(|&u| cache.finder(&capacity, u).run().distance(s).is_some())
        })
        .expect("some switch is reachable from some user");
    let searches_before = cache.search_count();

    // Kill the relay and consult only the first user: that entry is
    // repaired now; every other entry keeps a pending repair for victim.
    capacity.withdraw(victim, 1_000);
    let cold = ChannelFinder::from_source(&net, &capacity, users[0]);
    assert_eq!(cache.finder(&capacity, users[0]).run(), cold.run());

    // Restore before anyone else looks: their pending repairs cancel.
    capacity.grant(victim, 1_000);
    assert_matches_cold(&net, &mut cache, &capacity, &users, "after cancel");
    // The un-consulted entries were served without any full search;
    // only the first user's entry (validated while the relay was dead)
    // may need a recompute once the relay returns.
    assert!(
        cache.search_count() - searches_before <= 1,
        "cancelled repairs must not trigger wholesale recomputation"
    );
}

#[test]
fn threshold_preserving_ping_pong_never_searches() {
    // The stream scenario's trial-capacity clone dance: reserve/release
    // cycles that never cross the ≥ 2 relay threshold bump the epoch on
    // every step, yet the dirty-set cache must serve all of it with the
    // initial fills only.
    let net = NetworkSpec::paper_default().with_qubits(8).build(3);
    let users = net.users().to_vec();
    let mut capacity = CapacityMap::new(&net);
    let mut cache = ChannelFinderCache::with_pool(&net, Pool::with_threads(1));

    let baseline: Vec<_> = users
        .iter()
        .map(|&u| cache.finder(&capacity, u).run().clone())
        .collect();
    let fills = cache.search_count();

    let roomy: Vec<NodeId> = net
        .switches()
        .filter(|&s| net.kind(s).qubits() >= 6)
        .take(3)
        .collect();
    assert!(!roomy.is_empty(), "paper topology has roomy switches");
    for round in 0..4 {
        let mut trial = capacity.clone();
        for &s in &roomy {
            trial.withdraw(s, 2); // stays ≥ 2: no relay flip
        }
        capacity = trial;
        for (i, &u) in users.iter().enumerate() {
            assert_eq!(
                cache.finder(&capacity, u).run(),
                &baseline[i],
                "round {round}: threshold-preserving delta changed a run"
            );
        }
        for &s in &roomy {
            capacity.grant(s, 2);
        }
    }
    assert_eq!(
        cache.search_count(),
        fills,
        "every post-fill lookup must be an O(1) revalidation"
    );
    assert_eq!(cache.efficiency().repairs, 0);
}

/// The admission kernel's departure path drives the same cancellation:
/// a session's release is absorbed while still adjacent to its kill, so
/// a later unrelated restore cannot escalate the entry to a recompute.
#[test]
fn departure_restores_cancel_pending_repairs() {
    // a —1000— s (2 qubits) —1000— b, plus a direct 2500 fiber, and an
    // isolated switch u ordered before s. q = 0.99: the relayed route
    // wins while s can relay.
    let mut g: Graph<NodeKind, f64> = Graph::new();
    let u = g.add_node(NodeKind::Switch { qubits: 2 });
    let a = g.add_node(NodeKind::User);
    let s = g.add_node(NodeKind::Switch { qubits: 2 });
    let b = g.add_node(NodeKind::User);
    g.add_edge(a, s, 1000.0);
    g.add_edge(s, b, 1000.0);
    g.add_edge(a, b, 2500.0);
    let physics = PhysicsParams {
        swap_success: 0.99,
        attenuation: 1e-4,
    };
    let net = QuantumNetwork::from_graph(g, physics);
    let mut kernel = AdmissionKernel::new(&net, ChannelFinderCache::new(&net));
    assert_eq!(
        kernel.withdraw(u, 5),
        2,
        "withdrawal capped at the free count"
    );

    // Admission reserves both of s's qubits: s's relay bit flips off.
    let tree = kernel.admit(&[a, b], 3).expect("relayed route feasible");
    assert_eq!(tree.channels[0].link_count(), 2, "route goes via s");
    assert_eq!(kernel.admit(&[b, a], 9), Err(Blocked::Busy));
    assert_eq!(kernel.free_qubits(), 0);
    // An empty warm observes the kill: the cached entry for `a` now
    // carries a pending repair for s.
    kernel.warm(&[]);
    let searches = kernel.cache().search_count();
    let hits = kernel.cache().efficiency().hits;

    // Nothing is due at slot 2; at slot 5 the session departs, the
    // release flips s back on and the eager absorb nets the restore
    // out against the queued repair. Restoring u afterwards is an
    // improving flip `a` cannot reach; over a still-pending repair it
    // would be unclassifiable.
    assert_eq!(kernel.depart(2), 0);
    assert_eq!(kernel.depart(5), 1);
    assert_eq!(kernel.active_sessions(), 0);
    kernel.grant(u, 2);
    assert_eq!(kernel.free_qubits(), 4);

    // The next admission must be an O(1) revalidation: no repair ran,
    // no search ran, and the restored relay is visible again.
    let tree = kernel.admit(&[a, b], 9).expect("members free again");
    assert_eq!(tree.channels[0].link_count(), 2, "restored relay visible");
    let eff = kernel.cache().efficiency();
    assert_eq!(eff.repairs, 0, "pending repair was cancelled, not run");
    assert_eq!(kernel.cache().search_count(), searches, "no full search");
    assert_eq!(eff.hits, hits + 1, "served as a clean revalidation");
}

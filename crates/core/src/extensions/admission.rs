//! The admission kernel: the one session ledger and Prim router shared
//! by the streaming workload ([`simulate_stream`]) and the batched
//! admission service (`muerp-serve`).
//!
//! The online setting runs Algorithm 4's Prim-style growth once per
//! arriving group, against the switch qubits that admitted sessions
//! still hold. [`AdmissionKernel`] owns that state; its consumers keep
//! only their own clock, scheduling and telemetry.
//!
//! [`simulate_stream`]: crate::extensions::simulate_stream

use qnet_graph::NodeId;

use crate::algorithms::ChannelFinderCache;
use crate::channel::{CapacityMap, Channel};
use crate::model::QuantumNetwork;
use crate::tree::EntanglementTree;

/// Why [`AdmissionKernel::admit`] turned a group away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Blocked {
    /// A requested member is still in an active session.
    Busy,
    /// No capacity-respecting tree exists over the residual capacity.
    NoCapacity,
}

struct Session {
    tree: EntanglementTree,
    expires_at: u64,
    members: Vec<NodeId>,
}

/// Shared residual capacity, the finder cache over it, and the ledger
/// of admitted sessions. Active sessions never share a member (a busy
/// member blocks admission), so one bit per node tracks who is busy.
pub struct AdmissionKernel<'n> {
    net: &'n QuantumNetwork,
    capacity: CapacityMap,
    cache: ChannelFinderCache<'n>,
    sessions: Vec<Session>,
    busy: Vec<bool>,
}

impl<'n> AdmissionKernel<'n> {
    /// An idle network: full capacity, no sessions, searches served
    /// through `cache`.
    pub fn new(net: &'n QuantumNetwork, cache: ChannelFinderCache<'n>) -> Self {
        AdmissionKernel {
            net,
            capacity: CapacityMap::new(net),
            cache,
            sessions: Vec::new(),
            busy: vec![false; net.graph().node_count()],
        }
    }

    /// Releases every session with `expires_at ≤ at`, in admission
    /// order, and returns how many departed.
    ///
    /// The cache absorbs the restores at once, while they are still
    /// adjacent to the kills, which cancels the repairs pending for the
    /// departing relays. Left to the next lookup, a restore can sit
    /// among unrelated flips and escalate its entry to a full
    /// recompute instead of an O(1) revalidation.
    pub fn depart(&mut self, at: u64) -> u64 {
        let before = self.sessions.len();
        let (capacity, busy) = (&mut self.capacity, &mut self.busy);
        self.sessions.retain(|s| {
            if s.expires_at > at {
                return true;
            }
            for c in &s.tree.channels {
                capacity.release(c);
            }
            for m in &s.members {
                busy[m.index()] = false;
            }
            false
        });
        let departed = (before - self.sessions.len()) as u64;
        if departed > 0 {
            self.cache.absorb(&self.capacity);
        }
        departed
    }

    /// Admits the group `members` until `expires_at`: blocks when a
    /// member is busy, otherwise routes it Prim-style over the residual
    /// capacity and, on success, reserves the tree's qubits and records
    /// the session. A blocked request leaves capacity and sessions as
    /// they were.
    ///
    /// # Errors
    ///
    /// Returns [`Blocked::Busy`] or [`Blocked::NoCapacity`].
    pub fn admit(
        &mut self,
        members: &[NodeId],
        expires_at: u64,
    ) -> Result<&EntanglementTree, Blocked> {
        if members.iter().any(|m| self.busy[m.index()]) {
            return Err(Blocked::Busy);
        }
        let tree = self.route(members).ok_or(Blocked::NoCapacity)?;
        for m in members {
            self.busy[m.index()] = true;
        }
        self.sessions.push(Session {
            tree,
            expires_at,
            members: members.to_vec(),
        });
        Ok(&self.sessions.last().expect("just pushed").tree)
    }

    /// Greedy Prim growth over the members: each step adds the
    /// highest-rate channel from the tree to a member outside it,
    /// searched over a trial copy of the capacity (the cache is keyed
    /// by epoch, so trial capacities never alias). The trial replaces
    /// the live map only when every member joined.
    fn route(&mut self, members: &[NodeId]) -> Option<EntanglementTree> {
        let mut in_tree = vec![false; self.net.graph().node_count()];
        in_tree[members[0].index()] = true;
        let mut tree = EntanglementTree::new();
        let mut trial_capacity = self.capacity.clone();
        for _ in 1..members.len() {
            let mut best: Option<Channel> = None;
            for &src in members.iter().filter(|u| in_tree[u.index()]) {
                let finder = self.cache.finder(&trial_capacity, src);
                for &dst in members.iter().filter(|u| !in_tree[u.index()]) {
                    if let Some(c) = finder.channel_to(dst) {
                        if best.as_ref().is_none_or(|b| c.rate > b.rate) {
                            best = Some(c);
                        }
                    }
                }
            }
            let c = best?;
            trial_capacity.reserve(&c);
            let newcomer = if in_tree[c.source().index()] {
                c.destination()
            } else {
                c.source()
            };
            in_tree[newcomer.index()] = true;
            tree.push(c);
        }
        self.capacity = trial_capacity;
        Some(tree)
    }

    /// Warms the cache for `sources` at the current capacity (the
    /// pooled batch path; see [`ChannelFinderCache::warm`]).
    pub fn warm(&mut self, sources: &[NodeId]) {
        self.cache.warm(&self.capacity, sources);
    }

    /// Withdraws up to `qubits` free qubits from switch `node` and
    /// returns how many were taken (capped at its free count, so the
    /// matching [`grant`](Self::grant) restores it exactly).
    pub fn withdraw(&mut self, node: NodeId, qubits: u32) -> u32 {
        let taken = qubits.min(self.capacity.free(node));
        self.capacity.withdraw(node, taken);
        taken
    }

    /// Returns `qubits` free qubits to switch `node`.
    pub fn grant(&mut self, node: NodeId, qubits: u32) {
        self.capacity.grant(node, qubits);
    }

    /// Total free qubits across the network's switches.
    pub fn free_qubits(&self) -> u64 {
        self.net
            .switches()
            .map(|s| u64::from(self.capacity.free(s)))
            .sum()
    }

    /// Number of active sessions.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// The finder cache, for its search count and efficiency tallies.
    pub fn cache(&self) -> &ChannelFinderCache<'n> {
        &self.cache
    }
}

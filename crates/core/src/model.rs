//! The quantum-network instance: topology, node roles, capacities, physics.
//!
//! This is the paper's §II model: an undirected graph `G = (V, E)` with
//! `V = U ∪ R` (users and switches), fiber edges with physical lengths,
//! uniform BSM swapping success rate `q`, and link success probability
//! `p = exp(−α·L)`.

use qnet_graph::{EdgeId, Graph, NodeId};
use qnet_topology::{SpatialGraph, TopologyKind, TopologySpec};
use serde::{Deserialize, Serialize};

use crate::rate::Rate;

/// The role of a node in the quantum internet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A quantum user (processor / computing node); assumed to have
    /// sufficient quantum memory (paper §II-A).
    User,
    /// A quantum switch with `qubits` quantum memories; serves at most
    /// `⌊qubits/2⌋` channels.
    Switch {
        /// Number of qubits in the switch's quantum memory.
        qubits: u32,
    },
}

impl NodeKind {
    /// `true` for a user node.
    pub fn is_user(self) -> bool {
        matches!(self, NodeKind::User)
    }

    /// `true` for a switch node.
    pub fn is_switch(self) -> bool {
        matches!(self, NodeKind::Switch { .. })
    }

    /// Qubit capacity: switches report their memory, users report
    /// effectively unlimited capacity (`u32::MAX`), per the paper's
    /// assumption that users have enough memory.
    pub fn qubits(self) -> u32 {
        match self {
            NodeKind::User => u32::MAX,
            NodeKind::Switch { qubits } => qubits,
        }
    }
}

/// Physical-layer parameters (paper §II-A / §V-A).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhysicsParams {
    /// Successful BSM swapping rate `q ∈ [0, 1]` (paper default 0.9).
    pub swap_success: f64,
    /// Fiber attenuation constant `α` per length unit (paper default
    /// 1e-4 with 1 unit ≈ 1 km).
    pub attenuation: f64,
}

impl PhysicsParams {
    /// The paper's §V-A defaults: `q = 0.9`, `α = 10⁻⁴`.
    pub fn paper_default() -> Self {
        PhysicsParams {
            swap_success: 0.9,
            attenuation: 1e-4,
        }
    }

    /// Link-level entanglement success probability over a fiber of the
    /// given length: `p = exp(−α·L)` (paper §II-A).
    pub fn link_success(&self, length: f64) -> Rate {
        Rate::from_prob((-self.attenuation * length).exp())
    }

    /// The swap success rate as a [`Rate`].
    pub fn swap_rate(&self) -> Rate {
        Rate::from_prob(self.swap_success)
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics when `swap_success ∉ [0, 1]` or `attenuation < 0`.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.swap_success),
            "swap success rate must be in [0, 1], got {}",
            self.swap_success
        );
        assert!(
            self.attenuation >= 0.0,
            "attenuation must be non-negative, got {}",
            self.attenuation
        );
    }
}

/// A complete MUERP instance.
///
/// Wraps the spatial topology with node roles (`U ∪ R`), switch
/// capacities, and physics parameters. Construct via
/// [`QuantumNetwork::from_spatial`] or [`NetworkSpec::build`].
#[derive(Clone, Debug)]
pub struct QuantumNetwork {
    graph: Graph<NodeKind, f64>,
    users: Vec<NodeId>,
    physics: PhysicsParams,
}

impl QuantumNetwork {
    /// Builds an instance from a spatial topology: the nodes listed in
    /// `users` become quantum users, every other node becomes a switch
    /// with `qubits_per_switch` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `users` contains duplicates or out-of-range ids, or if
    /// `physics` is out of range.
    pub fn from_spatial(
        spatial: &SpatialGraph,
        users: &[NodeId],
        qubits_per_switch: u32,
        physics: PhysicsParams,
    ) -> Self {
        physics.validate();
        let n = spatial.node_count();
        let mut is_user = vec![false; n];
        for &u in users {
            assert!(u.index() < n, "user id {u} out of range ({n} nodes)");
            assert!(!is_user[u.index()], "duplicate user id {u}");
            is_user[u.index()] = true;
        }
        let mut graph: Graph<NodeKind, f64> = Graph::with_capacity(n, spatial.edge_count());
        for v in spatial.node_ids() {
            let kind = if is_user[v.index()] {
                NodeKind::User
            } else {
                NodeKind::Switch {
                    qubits: qubits_per_switch,
                }
            };
            graph.add_node(kind);
        }
        for e in spatial.edge_refs() {
            graph.add_edge(e.a, e.b, *e.payload);
        }
        QuantumNetwork {
            graph,
            users: users.to_vec(),
            physics,
        }
    }

    /// Builds an instance directly from a role-annotated graph (edge
    /// payloads are fiber lengths). Used by tests that need hand-crafted
    /// networks.
    ///
    /// # Panics
    ///
    /// Panics if `physics` is out of range.
    pub fn from_graph(graph: Graph<NodeKind, f64>, physics: PhysicsParams) -> Self {
        physics.validate();
        let users = graph
            .node_ids()
            .filter(|&v| graph.node(v).is_user())
            .collect();
        QuantumNetwork {
            graph,
            users,
            physics,
        }
    }

    /// Builds an instance from a role-annotated graph *and* an explicit
    /// user order. Unlike [`QuantumNetwork::from_graph`], the user list is
    /// taken verbatim — transforms that must preserve user order (the
    /// conformance harness's relabeling and scaling oracles, fixture
    /// loading) rely on this.
    ///
    /// # Panics
    ///
    /// Panics if `physics` is out of range, `users` has duplicates or
    /// out-of-range ids, a listed user is not a [`NodeKind::User`] node,
    /// or a user node is missing from `users`.
    pub fn from_parts(
        graph: Graph<NodeKind, f64>,
        users: Vec<NodeId>,
        physics: PhysicsParams,
    ) -> Self {
        physics.validate();
        let mut listed = vec![false; graph.node_count()];
        for &u in &users {
            assert!(
                u.index() < graph.node_count(),
                "user id {u} out of range ({} nodes)",
                graph.node_count()
            );
            assert!(!listed[u.index()], "duplicate user id {u}");
            assert!(graph.node(u).is_user(), "node {u} is not a user");
            listed[u.index()] = true;
        }
        for v in graph.node_ids() {
            assert!(
                !graph.node(v).is_user() || listed[v.index()],
                "user node {v} missing from the user list"
            );
        }
        QuantumNetwork {
            graph,
            users,
            physics,
        }
    }

    /// Returns a copy with every fiber length multiplied by `factor`,
    /// preserving node roles, user order, and physics. The conformance
    /// harness's scaling oracle uses this: scaling lengths by `c` must be
    /// observationally identical to scaling the attenuation `α` by `c`
    /// (Eq. 1 depends only on the products `α·Lᵢ`).
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not finite and positive.
    pub fn with_scaled_lengths(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "length scale factor must be finite and positive, got {factor}"
        );
        QuantumNetwork {
            graph: self.graph.map_edges(|e| *e.payload * factor),
            users: self.users.clone(),
            physics: self.physics,
        }
    }

    /// The underlying graph: node payloads are [`NodeKind`], edge payloads
    /// are fiber lengths.
    pub fn graph(&self) -> &Graph<NodeKind, f64> {
        &self.graph
    }

    /// The quantum users `U`, in a stable order.
    pub fn users(&self) -> &[NodeId] {
        &self.users
    }

    /// Physics parameters (`q`, `α`).
    pub fn physics(&self) -> &PhysicsParams {
        &self.physics
    }

    /// Returns a copy where every switch has `qubits` qubits (used by the
    /// paper's Fig. 8(a) protocol, which always grants Algorithm 2
    /// switches with `2·|U|` qubits).
    pub fn with_uniform_switch_qubits(&self, qubits: u32) -> Self {
        let mut graph = self.graph.clone();
        for v in graph.node_ids() {
            if graph.node(v).is_switch() {
                *graph.node_mut(v) = NodeKind::Switch { qubits };
            }
        }
        QuantumNetwork {
            graph,
            users: self.users.clone(),
            physics: self.physics,
        }
    }

    /// Returns a copy with different physics (used by parameter sweeps).
    pub fn with_physics(&self, physics: PhysicsParams) -> Self {
        physics.validate();
        QuantumNetwork {
            graph: self.graph.clone(),
            users: self.users.clone(),
            physics,
        }
    }

    /// Role of node `v`.
    pub fn kind(&self, v: NodeId) -> NodeKind {
        *self.graph.node(v)
    }

    /// `true` when `v` is a user.
    pub fn is_user(&self, v: NodeId) -> bool {
        self.kind(v).is_user()
    }

    /// Fiber length of edge `e`.
    pub fn length(&self, e: EdgeId) -> f64 {
        *self.graph.edge(e).payload
    }

    /// Link success probability of edge `e`: `exp(−α·L(e))`.
    pub fn link_rate(&self, e: EdgeId) -> Rate {
        self.physics.link_success(self.length(e))
    }

    /// Iterates over switch nodes.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .node_ids()
            .filter(move |&v| self.kind(v).is_switch())
    }

    /// Number of users `|U|`.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Number of switches `|R|`.
    pub fn switch_count(&self) -> usize {
        self.graph.node_count() - self.users.len()
    }
}

/// Declarative MUERP instance specification — everything §V-A varies.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Topology generator and size (switches + users all placed randomly).
    pub topology: TopologySpec,
    /// Number of quantum users `|U|` drawn uniformly from the placed
    /// nodes; the rest become switches.
    pub users: usize,
    /// Qubits per switch (paper default 4).
    pub qubits_per_switch: u32,
    /// Physics parameters.
    pub physics: PhysicsParams,
}

impl NetworkSpec {
    /// The paper's full default setup (§V-A): Waxman topology, 50 switches
    /// plus 10 users, average degree 6, 4 qubits per switch, `q = 0.9`,
    /// `α = 10⁻⁴`, 10 000 × 10 000 area.
    pub fn paper_default() -> Self {
        NetworkSpec {
            topology: TopologySpec {
                kind: TopologyKind::Waxman,
                nodes: 60,
                avg_degree: 6.0,
                area: 10_000.0,
            },
            users: 10,
            qubits_per_switch: 4,
            physics: PhysicsParams::paper_default(),
        }
    }

    /// Builder-style: sets the user count, keeping the switch count by
    /// adjusting the total node count.
    #[must_use]
    pub fn with_users(mut self, users: usize) -> Self {
        let switches = self.topology.nodes.saturating_sub(self.users);
        self.users = users;
        self.topology.nodes = switches + users;
        self
    }

    /// Builder-style: sets the per-switch qubit count.
    #[must_use]
    pub fn with_qubits(mut self, qubits: u32) -> Self {
        self.qubits_per_switch = qubits;
        self
    }

    /// Builder-style: sets the topology generator kind.
    #[must_use]
    pub fn with_topology(mut self, kind: qnet_topology::TopologyKind) -> Self {
        self.topology.kind = kind;
        self
    }

    /// Builder-style: sets the swap success rate `q`.
    #[must_use]
    pub fn with_swap_success(mut self, q: f64) -> Self {
        self.physics.swap_success = q;
        self
    }

    /// Generates the instance deterministically from `seed`: node
    /// placement, wiring, and the random choice of which nodes are users
    /// all derive from it.
    ///
    /// # Panics
    ///
    /// Panics if `users > topology.nodes` or the topology spec is invalid
    /// (see [`TopologySpec::validate`]).
    pub fn build(&self, seed: u64) -> QuantumNetwork {
        let spatial = self.topology.generate(seed);
        self.build_from_spatial(&spatial, seed)
    }

    /// Like [`NetworkSpec::build`], but over an externally supplied (or
    /// modified) spatial topology — the Fig. 7(b) edge-removal experiment
    /// generates one topology and then strips fibers from it while keeping
    /// the same user placement.
    ///
    /// # Panics
    ///
    /// Panics if `users > spatial.node_count()`.
    pub fn build_from_spatial(
        &self,
        spatial: &qnet_topology::SpatialGraph,
        seed: u64,
    ) -> QuantumNetwork {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        assert!(
            self.users <= spatial.node_count(),
            "cannot pick {} users from {} nodes",
            self.users,
            spatial.node_count()
        );
        // Derive the user choice from an offset seed so topology and user
        // placement are independent but both reproducible.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut ids: Vec<NodeId> = spatial.node_ids().collect();
        ids.shuffle(&mut rng);
        let users = &ids[..self.users];
        QuantumNetwork::from_spatial(spatial, users, self.qubits_per_switch, self.physics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_builds() {
        let net = NetworkSpec::paper_default().build(1);
        assert_eq!(net.user_count(), 10);
        assert_eq!(net.switch_count(), 50);
        assert_eq!(net.graph().edge_count(), 180);
        for &u in net.users() {
            assert!(net.is_user(u));
        }
        assert_eq!(net.switches().count(), 50);
    }

    #[test]
    fn deterministic_builds() {
        let spec = NetworkSpec::paper_default();
        let a = spec.build(9);
        let b = spec.build(9);
        assert_eq!(a.users(), b.users());
        let ea: Vec<_> = a.graph().edge_refs().map(|e| (e.a, e.b)).collect();
        let eb: Vec<_> = b.graph().edge_refs().map(|e| (e.a, e.b)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn link_rate_follows_exponential_decay() {
        let physics = PhysicsParams::paper_default();
        let p1 = physics.link_success(1000.0).value();
        assert!((p1 - (-0.1f64).exp()).abs() < 1e-12);
        let p0 = physics.link_success(0.0).value();
        assert_eq!(p0, 1.0);
        // Longer fibers are strictly worse.
        assert!(physics.link_success(2000.0) < physics.link_success(1000.0));
    }

    #[test]
    fn node_kind_capacity_semantics() {
        assert!(NodeKind::User.is_user());
        assert!(!NodeKind::User.is_switch());
        assert_eq!(NodeKind::User.qubits(), u32::MAX);
        let s = NodeKind::Switch { qubits: 4 };
        assert!(s.is_switch());
        assert_eq!(s.qubits(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate user id")]
    fn duplicate_users_rejected() {
        let spatial = TopologySpec::paper_default().generate(3);
        let u = NodeId::new(0);
        QuantumNetwork::from_spatial(&spatial, &[u, u], 4, PhysicsParams::paper_default());
    }

    #[test]
    #[should_panic(expected = "swap success rate")]
    fn bad_physics_rejected() {
        let physics = PhysicsParams {
            swap_success: 1.5,
            attenuation: 1e-4,
        };
        let spatial = TopologySpec::paper_default().generate(3);
        QuantumNetwork::from_spatial(&spatial, &[NodeId::new(0)], 4, physics);
    }

    #[test]
    fn builder_methods_compose() {
        let spec = NetworkSpec::paper_default()
            .with_users(6)
            .with_qubits(8)
            .with_topology(qnet_topology::TopologyKind::Volchenkov)
            .with_swap_success(0.8);
        assert_eq!(spec.users, 6);
        assert_eq!(spec.topology.nodes, 56, "switch count preserved");
        assert_eq!(spec.qubits_per_switch, 8);
        assert_eq!(spec.physics.swap_success, 0.8);
        let net = spec.build(1);
        assert_eq!(net.user_count(), 6);
        assert_eq!(net.switch_count(), 50);
        assert!(net.switches().all(|s| net.kind(s).qubits() == 8));
    }

    #[test]
    fn with_uniform_switch_qubits_rewrites_switches_only() {
        let net = NetworkSpec::paper_default().build(7);
        let granted = net.with_uniform_switch_qubits(20);
        for s in granted.switches() {
            assert_eq!(granted.kind(s).qubits(), 20);
        }
        assert_eq!(granted.users(), net.users());
        assert!(granted.users().iter().all(|&u| granted.is_user(u)));
    }

    #[test]
    fn build_from_spatial_matches_build() {
        let spec = NetworkSpec::paper_default();
        let spatial = spec.topology.generate(3);
        let a = spec.build(3);
        let b = spec.build_from_spatial(&spatial, 3);
        assert_eq!(a.users(), b.users());
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
    }

    #[test]
    fn from_parts_preserves_user_order() {
        let net = NetworkSpec::paper_default().build(11);
        let mut users = net.users().to_vec();
        users.reverse();
        let rebuilt =
            QuantumNetwork::from_parts(net.graph().clone(), users.clone(), *net.physics());
        assert_eq!(rebuilt.users(), &users[..]);
        assert_eq!(rebuilt.user_count(), net.user_count());
    }

    #[test]
    #[should_panic(expected = "missing from the user list")]
    fn from_parts_rejects_incomplete_user_list() {
        let net = NetworkSpec::paper_default().build(11);
        let users = net.users()[..5].to_vec();
        QuantumNetwork::from_parts(net.graph().clone(), users, *net.physics());
    }

    #[test]
    fn with_scaled_lengths_scales_every_fiber() {
        let net = NetworkSpec::paper_default().build(4);
        let doubled = net.with_scaled_lengths(2.0);
        assert_eq!(doubled.users(), net.users());
        for e in net.graph().edge_ids() {
            assert!((doubled.length(e) - 2.0 * net.length(e)).abs() < 1e-12 * net.length(e));
        }
    }

    #[test]
    fn with_physics_swaps_parameters() {
        let net = NetworkSpec::paper_default().build(2);
        let new = net.with_physics(PhysicsParams {
            swap_success: 0.5,
            attenuation: 1e-4,
        });
        assert_eq!(new.physics().swap_success, 0.5);
        assert_eq!(new.user_count(), net.user_count());
    }
}

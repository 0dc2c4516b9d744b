//! Declarative topology specification — the serializable configuration the
//! experiment harness sweeps over.

use qnet_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::point::Point;
use crate::volchenkov::{volchenkov, VolchenkovParams};
use crate::watts_strogatz::{watts_strogatz, WattsStrogatzParams};
use crate::waxman::{waxman, WaxmanParams};

/// A spatially embedded network: node payloads are positions, edge
/// payloads are fiber lengths in area units (≈ km).
pub type SpatialGraph = Graph<Point, f64>;

/// Which random-network generation method to use (paper §V-A lists all
/// three).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Waxman 1988 geometric random graph (the paper's default).
    Waxman,
    /// Watts–Strogatz 1998 small-world graph.
    WattsStrogatz,
    /// Volchenkov–Blanchard 2002 power-law graph.
    Volchenkov,
}

impl TopologyKind {
    /// All three kinds, in the order Fig. 5 of the paper presents them.
    pub const ALL: [TopologyKind; 3] = [
        TopologyKind::Waxman,
        TopologyKind::WattsStrogatz,
        TopologyKind::Volchenkov,
    ];

    /// Human-readable name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Waxman => "Waxman",
            TopologyKind::WattsStrogatz => "Watts-Strogatz",
            TopologyKind::Volchenkov => "Volchenkov",
        }
    }
}

impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full topology specification: generator kind plus size parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Generation method.
    pub kind: TopologyKind,
    /// Total node count (users + switches in the MUERP setting).
    pub nodes: usize,
    /// Target average degree `D` (paper default 6). The resulting edge
    /// count is exactly `⌊D·n/2⌋` for Waxman/Volchenkov and `n·(D/2)` for
    /// Watts–Strogatz (which requires an even integer `D`).
    pub avg_degree: f64,
    /// Side length of the square placement area (paper default 10 000).
    pub area: f64,
}

impl TopologySpec {
    /// The paper's default setup: Waxman, 60 nodes (50 switches + 10
    /// users), average degree 6, 10 000 × 10 000 area.
    pub fn paper_default() -> Self {
        TopologySpec {
            kind: TopologyKind::Waxman,
            nodes: 60,
            avg_degree: 6.0,
            area: 10_000.0,
        }
    }

    /// Candidate strictly smaller specs for counterexample shrinking,
    /// ordered most aggressive first (halve the node count, then step it
    /// down, then lower the average degree).
    ///
    /// Every candidate stays generator-valid: at least `min_nodes` nodes,
    /// average degree at least 2 and — because Watts–Strogatz requires an
    /// even integer degree — reduced in steps of 2 from an even starting
    /// point. Returns an empty vector when the spec is already minimal.
    pub fn shrink_candidates(&self, min_nodes: usize) -> Vec<TopologySpec> {
        let min_nodes = min_nodes.max(4);
        let mut out = Vec::new();
        let mut push_nodes = |nodes: usize| {
            if nodes < self.nodes && nodes >= min_nodes {
                out.push(TopologySpec { nodes, ..*self });
            }
        };
        push_nodes(self.nodes / 2);
        push_nodes(self.nodes.saturating_sub(4));
        push_nodes(self.nodes.saturating_sub(1));
        // Lower the wiring density: fewer edges often preserves a failure
        // while making the counterexample easier to read.
        let degree = self.avg_degree - 2.0;
        if degree >= 2.0 && (degree as usize) < self.nodes {
            out.push(TopologySpec {
                avg_degree: degree,
                ..*self
            });
        }
        out
    }

    /// Checks the generators' preconditions, so a bad spec becomes an
    /// error before any generator can panic on it:
    ///
    /// * the average degree is finite and non-negative, and the area a
    ///   finite positive side length;
    /// * Waxman and Volchenkov need at least 2 nodes, and their
    ///   `⌊D·n/2⌋` edges must fit in the `n·(n−1)/2` candidate pairs;
    /// * Watts–Strogatz needs at least 3 nodes and an even integer
    ///   degree `D < n`.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let (kind, nodes, degree) = (self.kind, self.nodes, self.avg_degree);
        if !(degree.is_finite() && degree >= 0.0) {
            return Err(TopologyError::BadDegree { degree });
        }
        if !(self.area.is_finite() && self.area > 0.0) {
            return Err(TopologyError::BadArea { area: self.area });
        }
        let min = if kind == TopologyKind::WattsStrogatz {
            3
        } else {
            2
        };
        if nodes < min {
            return Err(TopologyError::TooFewNodes { kind, nodes, min });
        }
        if kind == TopologyKind::WattsStrogatz {
            let k = degree as usize;
            if (degree - k as f64).abs() >= 1e-9 || !k.is_multiple_of(2) {
                return Err(TopologyError::RingDegreeNotEven { degree });
            }
            if k >= nodes {
                return Err(TopologyError::RingDegreeTooLarge { degree: k, nodes });
            }
        } else {
            let edges = ((degree * nodes as f64) / 2.0).floor() as usize;
            let pairs = nodes.saturating_mul(nodes - 1) / 2;
            if edges > pairs {
                return Err(TopologyError::TooManyEdges {
                    degree,
                    nodes,
                    edges,
                    pairs,
                });
            }
        }
        Ok(())
    }

    /// Generates a connected network from this spec, deterministically for
    /// a given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if [`TopologySpec::validate`] rejects the spec.
    pub fn generate(&self, seed: u64) -> SpatialGraph {
        if let Err(e) = self.validate() {
            panic!("invalid topology spec: {e}");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        match self.kind {
            TopologyKind::Waxman => waxman(
                self.nodes,
                self.avg_degree,
                self.area,
                WaxmanParams::default(),
                &mut rng,
            ),
            TopologyKind::WattsStrogatz => watts_strogatz(
                self.nodes,
                self.avg_degree as usize,
                self.area,
                WattsStrogatzParams::default(),
                &mut rng,
            ),
            TopologyKind::Volchenkov => volchenkov(
                self.nodes,
                self.avg_degree,
                self.area,
                VolchenkovParams::default(),
                &mut rng,
            ),
        }
    }
}

/// Why a [`TopologySpec`] cannot be generated (see
/// [`TopologySpec::validate`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TopologyError {
    /// The average degree is negative, infinite or NaN.
    BadDegree {
        /// The rejected degree.
        degree: f64,
    },
    /// The placement area is not a finite positive side length.
    BadArea {
        /// The rejected side length.
        area: f64,
    },
    /// Fewer nodes than the generator needs.
    TooFewNodes {
        /// The generator.
        kind: TopologyKind,
        /// Requested node count.
        nodes: usize,
        /// The generator's minimum.
        min: usize,
    },
    /// Waxman/Volchenkov: `⌊D·n/2⌋` exceeds the `n·(n−1)/2` node pairs.
    TooManyEdges {
        /// Requested average degree.
        degree: f64,
        /// Requested node count.
        nodes: usize,
        /// Edges the degree asks for.
        edges: usize,
        /// Candidate node pairs.
        pairs: usize,
    },
    /// Watts–Strogatz: the degree is not an even integer.
    RingDegreeNotEven {
        /// The rejected degree.
        degree: f64,
    },
    /// Watts–Strogatz: the ring degree is not below the node count.
    RingDegreeTooLarge {
        /// The ring degree.
        degree: usize,
        /// Requested node count.
        nodes: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TopologyError::BadDegree { degree } => {
                write!(f, "average degree must be finite and >= 0, got {degree}")
            }
            TopologyError::BadArea { area } => {
                write!(f, "placement area must be finite and > 0, got {area}")
            }
            TopologyError::TooFewNodes { kind, nodes, min } => {
                write!(f, "{kind} needs at least {min} nodes, got {nodes}")
            }
            TopologyError::TooManyEdges {
                degree,
                nodes,
                edges,
                pairs,
            } => write!(
                f,
                "average degree {degree} over {nodes} nodes asks for {edges} edges, \
                 but there are only {pairs} node pairs"
            ),
            TopologyError::RingDegreeNotEven { degree } => write!(
                f,
                "Watts-Strogatz needs an even integer average degree, got {degree}"
            ),
            TopologyError::RingDegreeTooLarge { degree, nodes } => write!(
                f,
                "Watts-Strogatz degree {degree} must be below the node count {nodes}"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use qnet_graph::connectivity::is_connected;

    #[test]
    fn all_kinds_generate_connected_graphs() {
        for kind in TopologyKind::ALL {
            let spec = TopologySpec {
                kind,
                ..TopologySpec::paper_default()
            };
            let g = spec.generate(1234);
            assert_eq!(g.node_count(), 60, "{kind}");
            assert!(is_connected(&g), "{kind}");
            assert_eq!(g.edge_count(), 180, "{kind}");
        }
    }

    #[test]
    fn same_seed_same_graph_different_seed_differs() {
        let spec = TopologySpec::paper_default();
        let a = spec.generate(5);
        let b = spec.generate(5);
        let c = spec.generate(6);
        let ea: Vec<_> = a.edge_refs().map(|e| (e.a, e.b)).collect();
        let eb: Vec<_> = b.edge_refs().map(|e| (e.a, e.b)).collect();
        let ec: Vec<_> = c.edge_refs().map(|e| (e.a, e.b)).collect();
        assert_eq!(ea, eb);
        assert_ne!(ea, ec);
    }

    #[test]
    fn display_names_match_paper_labels() {
        assert_eq!(TopologyKind::Waxman.to_string(), "Waxman");
        assert_eq!(TopologyKind::WattsStrogatz.to_string(), "Watts-Strogatz");
        assert_eq!(TopologyKind::Volchenkov.to_string(), "Volchenkov");
    }

    #[test]
    fn spec_types_are_serde() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<TopologySpec>();
        assert_serde::<TopologyKind>();
    }

    #[test]
    fn shrink_candidates_are_smaller_and_generator_valid() {
        for kind in TopologyKind::ALL {
            let spec = TopologySpec {
                kind,
                ..TopologySpec::paper_default()
            };
            let candidates = spec.shrink_candidates(8);
            assert!(!candidates.is_empty(), "{kind}: paper default must shrink");
            for c in &candidates {
                assert!(
                    c.nodes < spec.nodes || c.avg_degree < spec.avg_degree,
                    "{kind}: candidate {c:?} is not smaller"
                );
                assert!(c.nodes >= 8);
                assert!(c.avg_degree >= 2.0);
                assert_eq!(c.validate(), Ok(()), "{kind}: {c:?}");
                // Every candidate must actually generate.
                let g = c.generate(99);
                assert_eq!(g.node_count(), c.nodes, "{kind}");
            }
        }
    }

    #[test]
    fn validate_rejects_each_degenerate_spec() {
        let waxman = TopologySpec::paper_default();
        let ws = TopologySpec {
            kind: TopologyKind::WattsStrogatz,
            ..waxman
        };
        assert_eq!(waxman.validate(), Ok(()));
        assert_eq!(ws.validate(), Ok(()));
        let cases = [
            (
                TopologySpec {
                    avg_degree: 1000.0,
                    ..waxman
                },
                TopologyError::TooManyEdges {
                    degree: 1000.0,
                    nodes: 60,
                    edges: 30_000,
                    pairs: 1770,
                },
            ),
            (
                TopologySpec {
                    avg_degree: f64::INFINITY,
                    ..waxman
                },
                TopologyError::BadDegree {
                    degree: f64::INFINITY,
                },
            ),
            (
                TopologySpec {
                    avg_degree: -2.0,
                    ..waxman
                },
                TopologyError::BadDegree { degree: -2.0 },
            ),
            (
                TopologySpec {
                    area: 0.0,
                    ..waxman
                },
                TopologyError::BadArea { area: 0.0 },
            ),
            (
                TopologySpec { nodes: 1, ..waxman },
                TopologyError::TooFewNodes {
                    kind: TopologyKind::Waxman,
                    nodes: 1,
                    min: 2,
                },
            ),
            (
                TopologySpec { nodes: 2, ..ws },
                TopologyError::TooFewNodes {
                    kind: TopologyKind::WattsStrogatz,
                    nodes: 2,
                    min: 3,
                },
            ),
            (
                TopologySpec {
                    avg_degree: 5.0,
                    ..ws
                },
                TopologyError::RingDegreeNotEven { degree: 5.0 },
            ),
            (
                TopologySpec {
                    avg_degree: 4.5,
                    ..ws
                },
                TopologyError::RingDegreeNotEven { degree: 4.5 },
            ),
            (
                TopologySpec { nodes: 6, ..ws },
                TopologyError::RingDegreeTooLarge {
                    degree: 6,
                    nodes: 6,
                },
            ),
        ];
        for (spec, want) in cases {
            assert_eq!(spec.validate(), Err(want), "{spec:?}");
            assert!(!want.to_string().contains('\n'));
        }
        // NaN compares unequal to itself, so match the variant.
        let nan = TopologySpec {
            avg_degree: f64::NAN,
            ..waxman
        };
        assert!(matches!(
            nan.validate(),
            Err(TopologyError::BadDegree { .. })
        ));
        // The densest spec that fits is still valid.
        let complete = TopologySpec {
            nodes: 8,
            avg_degree: 7.0,
            ..waxman
        };
        assert_eq!(complete.validate(), Ok(()));
        assert_eq!(complete.generate(1).edge_count(), 28);
    }

    #[test]
    #[should_panic(expected = "invalid topology spec: Watts-Strogatz needs an even integer")]
    fn generate_panics_with_the_typed_message() {
        TopologySpec {
            kind: TopologyKind::WattsStrogatz,
            avg_degree: 5.0,
            ..TopologySpec::paper_default()
        }
        .generate(1);
    }

    #[test]
    fn shrink_stops_at_the_floor() {
        let spec = TopologySpec {
            kind: TopologyKind::Waxman,
            nodes: 8,
            avg_degree: 2.0,
            area: 10_000.0,
        };
        assert!(spec.shrink_candidates(8).is_empty());
    }
}

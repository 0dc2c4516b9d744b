//! Random quantum-network topology generation.
//!
//! The paper's simulation setup (§V-A) places quantum switches and users
//! uniformly at random in a 10 000 × 10 000 unit area (1 unit ≈ 1 km) and
//! wires them with one of three generators, with the total edge count fixed
//! by a target average degree `D`:
//!
//! * **Waxman** ([`waxman`]) — geometric random graph where closer pairs
//!   are exponentially more likely to be connected (Waxman 1988).
//! * **Watts–Strogatz** ([`watts_strogatz`]) — small-world ring lattice
//!   with rewiring (Watts & Strogatz 1998), laid over the spatial
//!   placement by connecting angular neighbors.
//! * **Volchenkov** ([`volchenkov`]) — power-law degree distribution
//!   (Volchenkov & Blanchard 2002), realized as a Chung–Lu style weighted
//!   edge sampler with exact edge count.
//!
//! All generators return a [`SpatialGraph`] — a [`qnet_graph::Graph`] whose
//! node payloads are [`Point`]s and whose edge payloads are fiber lengths —
//! and guarantee connectivity via a repair step that preserves the edge
//! count ([`builder::ensure_connected`]).
//!
//! # Example
//!
//! ```
//! use qnet_topology::{TopologySpec, TopologyKind};
//!
//! let spec = TopologySpec {
//!     kind: TopologyKind::Waxman,
//!     nodes: 60,
//!     avg_degree: 6.0,
//!     area: 10_000.0,
//! };
//! let g = spec.generate(7);
//! assert_eq!(g.node_count(), 60);
//! assert_eq!(g.edge_count(), 180); // 60 * 6 / 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod grid;
pub mod point;
pub mod reference;
pub mod spec;
pub mod volchenkov;
pub mod watts_strogatz;
pub mod waxman;

pub use point::Point;
pub use spec::{SpatialGraph, TopologyError, TopologyKind, TopologySpec};

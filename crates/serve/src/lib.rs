//! # muerp-serve — batched streaming admission service
//!
//! A long-running admission engine over the seeded open-loop request
//! stream ([`muerp_core::extensions::RequestStream`]): arrivals,
//! departures, and SLO classes are consumed in **batched admission
//! rounds** instead of one request at a time.
//!
//! Each round:
//!
//! 1. releases every due departure through the shared
//!    [`AdmissionKernel`], which absorbs the restores at once;
//! 2. collects the round's arrivals into a [`BoundedQueue`], shedding
//!    the over-capacity suffix with an exact tally (backpressure);
//! 3. warms the [`ChannelFinderCache`] **once** for all distinct
//!    members of the queued requests via the qnet-pool batch path;
//! 4. orders the queue under a pluggable [`PolicyKind`] — FCFS,
//!    smallest-group-first, or deficit-weighted fairness — and admits
//!    sequentially against shared switch capacity.
//!
//! The headline correctness claim is differential: under FCFS, the
//! batched engine is **decision-equivalent** to the cold sequential
//! per-request oracle ([`sequential_fcfs`]) — the same admit/block
//! sequence with bitwise-identical entanglement trees, at every pool
//! width. That holds because the warm path installs bitwise-identical
//! runs in source order regardless of thread count, and the delta
//! engine's repaired/revalidated entries are bitwise equal to cold
//! recomputation (the PR 9 battery).
//!
//! [`ChannelFinderCache`]: muerp_core::algorithms::ChannelFinderCache
//! [`AdmissionKernel`]: muerp_core::extensions::AdmissionKernel

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fixture;
pub mod oracle;
pub mod policy;
pub mod queue;

pub use engine::{
    serve, serve_requests, serve_requests_with_pool, ClassTally, Decision, RoundReport,
    ServeConfig, ServeOutcome, ServeStats, Verdict,
};
/// The independent group-tree audit, under the name the service's
/// callers know it by.
pub use muerp_core::audit::audit_group as audit_group_tree;
pub use oracle::sequential_fcfs;
pub use policy::{DeficitState, PolicyKind, CLASS_WEIGHTS};
pub use queue::BoundedQueue;

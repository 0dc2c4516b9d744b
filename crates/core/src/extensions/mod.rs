//! The paper's two named extensions (§II-D, §VII): fidelity-aware
//! entanglement routing and concurrent routing of multiple independent
//! entanglement groups.

pub mod admission;
pub mod fidelity;
pub mod multi_group;
pub mod purified;
pub mod stream;

pub use admission::{AdmissionKernel, Blocked};
pub use fidelity::{werner_swap_fidelity, FidelityAwarePrim, FidelityModel};
pub use multi_group::{route_groups, GroupOutcome, GroupStrategy};
pub use purified::{purification_plan, PurificationPlan, PurifiedPrim};
pub use stream::{
    simulate_stream, Request, RequestStream, SloClass, StreamConfig, StreamOutcome, StreamStats,
};

//! Operating the quantum internet: online entanglement sessions.
//!
//! Group requests arrive over time, hold switch qubits for their session
//! lifetime, and depart. Admission control routes each request over the
//! residual capacity; a request is blocked when one of its members is
//! still in a session or when no capacity-respecting tree exists. This
//! sweeps the offered load of the streaming workload and prints the
//! blocking curve — the Erlang picture of a MUERP-managed network.
//!
//! The paper-default topology carries 40 users here instead of 10, so
//! enough sessions overlap for switch memory to bind. Users never relay,
//! so a few groups stay unroutable at any qubit count.
//!
//! ```text
//! cargo run --example online_operations --release
//! ```

use muerp::core::extensions::{simulate_stream, StreamConfig};
use muerp::core::prelude::*;

/// A flat (non-diurnal) load of uniformly sized groups.
fn workload(base_arrival: f64) -> StreamConfig {
    StreamConfig {
        slots: 20_000,
        window_slots: 1_000,
        base_arrival,
        diurnal_amplitude: 0.0,
        group_size: (2, 4),
        group_alpha: 0.0,
        hold_slots: (10, 40),
        ..StreamConfig::default()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = NetworkSpec::paper_default().with_users(40).build(52);
    println!(
        "Network: {} users, {} switches (Q = 4), {} fibers\n",
        net.user_count(),
        net.switch_count(),
        net.graph().edge_count()
    );

    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>14}",
        "arrival", "arrived", "busy", "capacity", "block %", "mean active", "session rate"
    );
    for arrival in [0.05, 0.1, 0.2, 0.4, 0.7, 1.0] {
        let stats = simulate_stream(&net, workload(arrival), 7).stats;
        println!(
            "{arrival:<10} {:>10} {:>10} {:>10} {:>9.1}% {:>12.2} {:>14.4e}",
            stats.arrived,
            stats.blocked_no_users,
            stats.blocked_capacity,
            stats.blocking_ratio() * 100.0,
            stats.mean_active_sessions,
            stats.mean_session_rate
        );
    }

    println!("\nCapacity-driven blocking responds to switch memory (busy members do not):");
    println!(
        "{:<10} {:>12} {:>12}",
        "qubits", "block @0.7", "mean active"
    );
    for qubits in [2u32, 4, 8, 16] {
        let granted = net.with_uniform_switch_qubits(qubits);
        let stats = simulate_stream(&granted, workload(0.7), 7).stats;
        println!(
            "{qubits:<10} {:>12} {:>12.2}",
            stats.blocked_capacity, stats.mean_active_sessions
        );
    }
    Ok(())
}

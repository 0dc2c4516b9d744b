//! `route` — one-off MUERP routing from the command line.
//!
//! ```text
//! route [--topology waxman|watts-strogatz|volchenkov] [--switches N]
//!       [--users N] [--qubits Q] [--degree D] [--swap Q] [--seed S]
//!       [--algo alg2|alg3|alg4|beam|nfusion|eqcast] [--refine] [--dot]
//! ```
//!
//! Prints the routed entanglement structure and its rate; `--dot` emits a
//! Graphviz document of the network with the tree highlighted instead.

use std::collections::HashSet;
use std::process::ExitCode;

use muerp::core::algorithms::{refine, BeamSearch, LocalSearchOptions};
use muerp::core::prelude::*;
use muerp::graph::dot::{to_dot, DotOptions};
use muerp::graph::EdgeId;
use muerp::topology::TopologyKind;

struct Args {
    spec: NetworkSpec,
    seed: u64,
    algo: String,
    refine: bool,
    dot: bool,
}

fn parse() -> Result<Args, String> {
    let mut spec = NetworkSpec::paper_default();
    let mut switches = 50usize;
    let mut users = 10usize;
    let mut seed = 0u64;
    let mut algo = "alg3".to_string();
    let mut want_refine = false;
    let mut dot = false;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--topology" => {
                spec.topology.kind = match value("--topology")?.as_str() {
                    "waxman" => TopologyKind::Waxman,
                    "watts-strogatz" => TopologyKind::WattsStrogatz,
                    "volchenkov" => TopologyKind::Volchenkov,
                    other => return Err(format!("unknown topology: {other}")),
                }
            }
            "--switches" => {
                switches = value("--switches")?
                    .parse()
                    .map_err(|e| format!("bad --switches: {e}"))?
            }
            "--users" => {
                users = value("--users")?
                    .parse()
                    .map_err(|e| format!("bad --users: {e}"))?
            }
            "--qubits" => {
                spec.qubits_per_switch = value("--qubits")?
                    .parse()
                    .map_err(|e| format!("bad --qubits: {e}"))?
            }
            "--degree" => {
                spec.topology.avg_degree = value("--degree")?
                    .parse()
                    .map_err(|e| format!("bad --degree: {e}"))?
            }
            "--swap" => {
                spec.physics.swap_success = value("--swap")?
                    .parse()
                    .map_err(|e| format!("bad --swap: {e}"))?
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--algo" => algo = value("--algo")?,
            "--refine" => want_refine = true,
            "--dot" => dot = true,
            other => {
                return Err(format!(
                "unknown argument: {other}\nusage: route [--topology K] [--switches N] [--users N] \
                 [--qubits Q] [--degree D] [--swap Q] [--seed S] [--algo A] [--refine] [--dot]"
            ))
            }
        }
    }
    spec.topology.nodes = switches
        .checked_add(users)
        .ok_or("--switches plus --users overflows the node count")?;
    spec.users = users;
    spec.topology.validate().map_err(|e| e.to_string())?;
    Ok(Args {
        spec,
        seed,
        algo,
        refine: want_refine,
        dot,
    })
}

fn solve(args: &Args, net: &QuantumNetwork) -> Result<Solution, String> {
    let outcome = match args.algo.as_str() {
        "alg2" => {
            let granted = net.with_uniform_switch_qubits(2 * net.user_count() as u32);
            OptimalSufficient.solve(&granted)
        }
        "alg3" => ConflictFree::default().solve(net),
        "alg4" => PrimBased::with_seed(args.seed).solve(net),
        "beam" => BeamSearch::default().solve(net),
        "nfusion" => NFusion::default().solve(net),
        "eqcast" => EQCast.solve(net),
        other => return Err(format!("unknown algorithm: {other}")),
    };
    let mut sol = outcome.map_err(|e| format!("no feasible routing: {e}"))?;
    if args.refine {
        sol = refine(net, sol, LocalSearchOptions::default());
    }
    Ok(sol)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let net = args.spec.build(args.seed);
    let sol = match solve(&args, &net) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if args.dot {
        let tree_edges: HashSet<EdgeId> = sol
            .channels
            .iter()
            .flat_map(|c| c.path.edges.iter().copied())
            .collect();
        let users: HashSet<_> = net.users().iter().copied().collect();
        let doc = to_dot(
            net.graph(),
            &DotOptions {
                name: "muerp_route",
                node_label: Box::new(|n, _| n.to_string()),
                node_attrs: Box::new(move |n, _| {
                    if users.contains(&n) {
                        "shape=box, style=filled, fillcolor=lightblue".into()
                    } else {
                        "shape=point".into()
                    }
                }),
                edge_label: Box::new(|_| String::new()),
                edge_attrs: Box::new(move |e| {
                    if tree_edges.contains(&e.id) {
                        "penwidth=3".into()
                    } else {
                        "color=gray80".into()
                    }
                }),
            },
        );
        print!("{doc}");
        return ExitCode::SUCCESS;
    }

    println!(
        "{} on {} ({} users, {} switches, Q={}, q={}, seed {})",
        args.algo,
        args.spec.topology.kind,
        net.user_count(),
        net.switch_count(),
        args.spec.qubits_per_switch,
        net.physics().swap_success,
        args.seed
    );
    println!("entanglement rate: {}", sol.rate);
    for c in &sol.channels {
        let hops: Vec<String> = c.path.nodes.iter().map(|n| n.to_string()).collect();
        println!(
            "  {} ({} links, rate {})",
            hops.join(" - "),
            c.link_count(),
            c.rate
        );
    }
    ExitCode::SUCCESS
}

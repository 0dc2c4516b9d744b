//! The `route` binary turns degenerate topology flags into one-line
//! errors through its usual error exit, never a panic.

use std::process::Command;

/// Runs `route` with `args`; returns its exit success and stderr.
fn route(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_route"))
        .args(args)
        .output()
        .expect("route binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// Asserts a failed run whose stderr is exactly one line containing `want`.
fn assert_rejected(args: &[&str], want: &str) {
    let (ok, stderr) = route(args);
    assert!(!ok, "{args:?} succeeded");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(want), "{args:?}: {stderr}");
}

#[test]
fn degree_beyond_the_complete_graph_is_rejected() {
    assert_rejected(
        &["--degree", "1000"],
        "asks for 30000 edges, but there are only 1770 node pairs",
    );
}

#[test]
fn infinite_degree_is_rejected() {
    assert_rejected(&["--degree", "inf"], "average degree must be finite");
}

#[test]
fn a_single_node_is_rejected() {
    assert_rejected(
        &["--switches", "0", "--users", "1"],
        "Waxman needs at least 2 nodes, got 1",
    );
}

#[test]
fn odd_watts_strogatz_degree_is_rejected() {
    assert_rejected(
        &["--topology", "watts-strogatz", "--degree", "5"],
        "Watts-Strogatz needs an even integer average degree, got 5",
    );
}

#[test]
fn a_valid_spec_still_routes() {
    let (ok, stderr) = route(&["--switches", "20", "--users", "4", "--seed", "3"]);
    assert!(ok, "{stderr}");
}

//! End-to-end checks of `repro profile`'s engine: the deterministic
//! artifacts must be bitwise stable across runs in one process, the
//! attribution must cover the root span's wall time, and the Chrome
//! trace must be well-formed.
//!
//! These live in their own integration binary (own process) because
//! [`muerp_experiments::profile::run_scenario`] forces the obs level
//! and resets the global registry — it must not race the crate's unit
//! tests.

use muerp_experiments::profile::{run_scenario, ProfileRun};
use muerp_experiments::AlgoKind;

/// Serializes the tests in this binary; each one resets global state.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn paper_run(seed: u64) -> ProfileRun {
    run_scenario("paper-default", seed).expect("known scenario")
}

#[test]
fn deterministic_artifacts_are_bitwise_stable() {
    let _serial = serial();
    let a = paper_run(2024);
    let b = paper_run(2024);
    assert_eq!(a.to_csv(), b.to_csv(), "primary CSV must be bitwise stable");
    assert_eq!(a.render_text(), b.render_text(), "stdout table too");
    // The rates themselves are the strongest signal the runs matched.
    assert_eq!(a.rates, b.rates);
}

#[test]
fn different_seeds_change_the_network_not_the_shape() {
    let _serial = serial();
    let a = paper_run(1);
    let b = paper_run(2);
    assert_eq!(a.rates.len(), b.rates.len());
    // Same fact sections appear regardless of seed (values may differ).
    let sections = |r: &ProfileRun| {
        r.deterministic_facts()
            .iter()
            .map(|(s, _, _)| *s)
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(sections(&a), sections(&b));
}

#[test]
fn attribution_covers_the_root_span() {
    let _serial = serial();
    let run = paper_run(2024);
    let profile = run.report.profile.as_ref().expect("profile attached");
    assert!(
        profile.coverage() >= 0.95,
        "coverage {:.3} below the 95% bar",
        profile.coverage()
    );
    let root = profile
        .rows
        .iter()
        .find(|r| r.name == "exp.profile.run")
        .expect("root span recorded");
    assert_eq!(root.count, 1);
    // Exactly one wrapper span per algorithm in the suite.
    let wrappers = profile
        .rows
        .iter()
        .filter(|r| r.name.starts_with("exp.profile.") && r.name != "exp.profile.run")
        .count();
    assert_eq!(wrappers, AlgoKind::ALL.len() + 1, "5 algorithms + build");
    // The flight recorder captured solver decisions at trace level.
    assert!(!run.events.is_empty());
    let row_total: u64 = profile.rows.iter().map(|r| r.count).sum();
    assert_eq!(
        row_total,
        run.report.spans.len() as u64,
        "every span lands in a row"
    );
}

#[test]
fn csv_shapes_match_fact_and_row_counts() {
    let _serial = serial();
    let run = paper_run(1);
    let facts = run.deterministic_facts();
    let csv = run.to_csv();
    assert!(csv.starts_with("section,name,value\n"));
    assert_eq!(
        csv.lines().count(),
        facts.len() + 1,
        "header + one line per fact"
    );
    let profile = run.report.profile.as_ref().unwrap();
    assert_eq!(run.times_csv().lines().count(), profile.rows.len() + 1);
    // The times table renders without panicking even for tiny top-N.
    assert!(run.render_times(1).contains("wall-time attribution"));
}

#[test]
fn chrome_trace_is_well_formed_json() {
    let _serial = serial();
    let run = paper_run(2024);
    let trace = qnet_obs::chrome_trace_value(&run.report, &run.events);
    let events = trace
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Every event carries the required trace-event-format keys.
    for ev in events {
        for key in ["ph", "pid", "tid", "ts", "name"] {
            assert!(ev.get(key).is_some(), "event missing {key}: {ev}");
        }
    }
    // B/E balance per thread track.
    let mut depth: std::collections::HashMap<u64, i64> = Default::default();
    for ev in events {
        let tid = ev.get("tid").and_then(|t| t.as_u64()).unwrap();
        match ev.get("ph").and_then(|p| p.as_str()).unwrap() {
            "B" => *depth.entry(tid).or_default() += 1,
            "E" => {
                let d = depth.entry(tid).or_default();
                *d -= 1;
                assert!(*d >= 0, "E without B on tid {tid}");
            }
            _ => {}
        }
    }
    assert!(
        depth.values().all(|&d| d == 0),
        "unbalanced tracks: {depth:?}"
    );
}

#[test]
fn bench_merge_keeps_other_scenarios() {
    let _serial = serial();
    let run = paper_run(3);
    let dir = std::env::temp_dir().join("muerp_profile_bench_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.json");
    std::fs::write(
        &path,
        r#"{"scenarios": {"waxman-240": {"seed": 1, "spans": 9}}}"#,
    )
    .unwrap();
    run.write_bench(&path).expect("merge succeeds");
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let scenarios = v.get("scenarios").unwrap();
    assert!(scenarios.get("waxman-240").is_some(), "other entry kept");
    assert!(scenarios.get("paper-default").is_some(), "this run added");
    assert_eq!(v.get("pr").and_then(|p| p.as_u64()), Some(6));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bench_merge_refuses_a_malformed_file_and_leaves_it_alone() {
    let _serial = serial();
    let run = paper_run(3);
    let dir = std::env::temp_dir().join("muerp_profile_bench_malformed");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.json");
    for body in [r#"{"scenarios": {"waxman-240": "#, "[1, 2, 3]"] {
        std::fs::write(&path, body).unwrap();
        let err = run.write_bench(&path).expect_err("malformed file");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{body}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), body, "untouched");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bench_merge_starts_a_missing_file_empty() {
    let _serial = serial();
    let run = paper_run(3);
    let dir = std::env::temp_dir().join("muerp_profile_bench_missing");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.json");
    let _ = std::fs::remove_file(&path);
    run.write_bench(&path).expect("a missing file starts empty");
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let scenarios = v.get("scenarios").and_then(|s| s.as_object()).unwrap();
    assert_eq!(scenarios.len(), 1);
    assert!(scenarios.contains_key("paper-default"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_scenarios_error_before_touching_globals() {
    let _serial = serial();
    assert!(run_scenario("nonsense", 0).is_err());
}

//! Golden stream fixture: one short paper-default `simulate_stream` run
//! with capacity churn on, pinned byte-for-byte — its run-level
//! `StreamStats`, its windowed metrics JSONL, and its summary table
//! rows. Any change to admission routing, departure handling, the busy
//! rule, churn, or the cache tallies shows up here as a diff.
//!
//! Regenerate after an intentional format or engine change with:
//!
//! ```text
//! MUERP_REGEN_FIXTURES=1 cargo test --test stream_golden
//! ```

use std::path::PathBuf;

use muerp::core::extensions::{simulate_stream, StreamConfig, StreamOutcome, StreamStats};
use muerp::core::model::NetworkSpec;
use muerp::experiments::stream::stream_tables;
use serde_json::{Map, Value};

/// Pinned forever: the fixture seed and shape. Seed 2024 with 4-qubit
/// churn withdrawals blocks on both busy members and capacity.
const SEED: u64 = 2024;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/stream-paper-256.json")
}

fn fixture_cfg() -> StreamConfig {
    StreamConfig {
        slots: 256,
        window_slots: 32,
        churn_every: 16,
        churn_qubits: 4,
        churn_hold: 48,
        ..StreamConfig::default()
    }
}

fn run() -> StreamOutcome {
    simulate_stream(
        &NetworkSpec::paper_default().build(SEED),
        fixture_cfg(),
        SEED,
    )
}

fn stats_to_json(s: &StreamStats) -> Value {
    let mut cache = Map::new();
    cache.insert("hits".into(), Value::from(s.cache.hits));
    cache.insert("refreshes".into(), Value::from(s.cache.refreshes));
    cache.insert("fills".into(), Value::from(s.cache.fills));
    cache.insert("repairs".into(), Value::from(s.cache.repairs));
    let mut m = Map::new();
    m.insert("arrived".into(), Value::from(s.arrived));
    m.insert("admitted".into(), Value::from(s.admitted));
    m.insert("blocked_no_users".into(), Value::from(s.blocked_no_users));
    m.insert("blocked_capacity".into(), Value::from(s.blocked_capacity));
    m.insert("mean_session_rate".into(), Value::from(s.mean_session_rate));
    m.insert(
        "mean_active_sessions".into(),
        Value::from(s.mean_active_sessions),
    );
    m.insert(
        "peak_active_sessions".into(),
        Value::from(s.peak_active_sessions),
    );
    m.insert("total_searches".into(), Value::from(s.total_searches));
    m.insert("sampled_out".into(), Value::from(s.sampled_out));
    m.insert("churn_events".into(), Value::from(s.churn_events));
    m.insert("cache".into(), Value::Object(cache));
    Value::Object(m)
}

/// Builds the stream fixture deterministically. The JSONL lines and the
/// summary CSV lines are pinned as strings, so the comparison is on the
/// exact bytes the `repro stream` artifacts would carry.
fn fixture_source() -> String {
    let out = run();
    let metrics: Vec<Value> = out
        .series
        .windows
        .iter()
        .map(|w| Value::from(serde_json::to_string(&w.to_json()).expect("window serializes")))
        .collect();
    let tables = stream_tables(&fixture_cfg(), SEED, &out);
    let summary: Vec<Value> = tables[1].to_csv().lines().map(Value::from).collect();
    let mut root = Map::new();
    root.insert("name".into(), Value::from("stream-paper-256"));
    root.insert("seed".into(), Value::from(SEED));
    root.insert("slots".into(), Value::from(fixture_cfg().slots));
    root.insert("churn_every".into(), Value::from(fixture_cfg().churn_every));
    root.insert("stats".into(), stats_to_json(&out.stats));
    root.insert("metrics_jsonl".into(), Value::Array(metrics));
    root.insert("summary_csv".into(), Value::Array(summary));
    serde_json::to_string_pretty(&Value::Object(root)).expect("Value serialization is total")
}

#[test]
fn golden_stream_fixture_matches_the_streaming_run() {
    let expected = fixture_source();
    let path = fixture_path();
    if std::env::var_os("MUERP_REGEN_FIXTURES").is_some() {
        std::fs::write(&path, &expected)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        return;
    }
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with MUERP_REGEN_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        on_disk, expected,
        "committed stream fixture drifted from simulate_stream; \
         regenerate with MUERP_REGEN_FIXTURES=1 if intentional"
    );

    // The fixture must pin something interesting: both block reasons,
    // churn events, and delta repairs driven by them.
    let stats = run().stats;
    assert!(stats.admitted > 0, "fixture admits");
    assert!(
        stats.blocked_no_users > 0,
        "fixture blocks on a busy member"
    );
    assert!(stats.blocked_capacity > 0, "fixture blocks on capacity");
    assert!(stats.churn_events > 0, "fixture churns capacity");
    assert!(stats.cache.repairs > 0, "fixture exercises delta repairs");
}

//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a host and config block, every metric
//! with its unit, the output digest, and the failure share; the last
//! line is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). Exits 1 when any output check fails, 2 on bad arguments.

use std::collections::BTreeMap;
use std::process::ExitCode;

use muerp_perfbench::metrics::{END_TO_END, PER_LAYER};
use muerp_perfbench::run::{run, Options, Outcome};
use muerp_perfbench::workload::Workload;
use serde_json::Value;

const USAGE: &str = "usage: perfbench --workload <serve-paper|serve-wide|solve-paper> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// Widest pool the runs use; the width is this or the core count,
/// whichever is smaller.
const MAX_WIDTH: usize = 2;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        width: cores().min(MAX_WIDTH),
    })
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the working tree, read from `.git` in the current
/// directory; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn config(opts: &Options) -> Value {
    let mut m = BTreeMap::new();
    m.insert("workload".into(), Value::from(opts.workload.name()));
    m.insert("seed".into(), Value::from(opts.seed));
    m.insert("seconds".into(), Value::from(opts.seconds));
    m.insert("trace".into(), Value::from(opts.trace));
    m.insert("nproc".into(), Value::from(cores()));
    m.insert("pool_width".into(), Value::from(opts.width));
    m.insert(
        "obs_level".into(),
        Value::from(if opts.trace {
            "off (untraced passes), full (traced passes)"
        } else {
            "off"
        }),
    );
    m.insert("processes".into(), Value::from(1u64));
    m.insert("commit".into(), Value::from(commit()));
    m.insert("rustc".into(), Value::from(env!("PERFBENCH_RUSTC_VERSION")));
    m.insert("params".into(), opts.workload.params());
    Value::Object(m)
}

fn report(opts: &Options, out: &Outcome) -> bool {
    println!(
        "perfbench {} — seed {}, {} run",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "timed" }
    );
    println!("config {}", config(opts));
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = BTreeMap::new();
    let mut complete = true;
    for def in table {
        let Some(&value) = out.metrics.get(def.name) else {
            eprintln!("perfbench: metric {} was not measured", def.name);
            complete = false;
            continue;
        };
        println!(
            "  {:<30} {:>16.6} {:<6} ({} is better)",
            def.name, value, def.unit, def.better
        );
        let mut entry = BTreeMap::new();
        entry.insert("value".to_string(), Value::from(value));
        entry.insert("unit".to_string(), Value::from(def.unit));
        metrics.insert(def.name.to_string(), Value::Object(entry));
    }
    for note in &out.notes {
        println!("  note: {note}");
    }
    println!(
        "digest {:016x} (check pass at width 1; {} later pass(es) at width {} matched it unit by unit)",
        out.digest, out.passes, opts.width
    );
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "failed {} of {} operations (share {share})",
        out.failed, out.attempted
    );
    for problem in out.problems.iter().take(20) {
        eprintln!("perfbench: check failed: {problem}");
    }
    let correct = complete && out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
    let mut last = BTreeMap::new();
    last.insert("correct".to_string(), Value::from(correct));
    last.insert("attempted".to_string(), Value::from(out.attempted));
    last.insert("failed".to_string(), Value::from(out.failed));
    last.insert("metrics".to_string(), Value::Object(metrics));
    println!("{}", Value::Object(last));
    correct
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The pool width is pinned by the benchmark, never by the caller's
    // environment.
    std::env::remove_var(qnet_pool::THREADS_ENV);
    qnet_pool::set_default_threads(Some(opts.width));
    let out = run(&opts);
    if report(&opts, &out) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

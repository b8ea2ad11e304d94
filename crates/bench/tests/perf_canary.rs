//! The simulator perf canary: the deterministic outputs a speed change
//! must not move, pinned to `docs/perf_canary_reference.json`.
//!
//! At the reference's time scale the test simulates jess on each CPU
//! model, then fills the paper grid three times: with no trace store, and
//! against a fresh store cold and then warm. Every reference value (cycle
//! counts per model, the grid's run/simulation/replay tallies, the store's
//! simulation and load tallies) must match exactly, and wall-clock
//! ceilings catch a hot loop that regresses to a slower complexity class.
//! The ceilings are generous enough for an unoptimized build on a busy
//! machine.
//!
//! When a change moves the numbers on purpose, the failure message prints
//! the measured values in the reference's JSON layout: copy it over the
//! reference file.

use std::time::{Duration, Instant};

use softwatt::experiments::ExperimentSuite;
use softwatt::{Benchmark, CpuModel, Simulator, SystemConfig, TraceStore};
use softwatt_serve::json::{self, Value};

const REFERENCE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../docs/perf_canary_reference.json"
);
/// Ceiling on one jess simulation.
const RUN_CEILING: Duration = Duration::from_secs(30);
/// Ceiling on one pass over the paper grid.
const GRID_CEILING: Duration = Duration::from_secs(60);

/// One section of the reference: named counts, in file order.
type Section = (&'static str, Vec<(&'static str, u64)>);

/// The reference file's layout, filled with `time_scale` and `sections`.
fn render(schema: &str, time_scale: f64, sections: &[Section]) -> String {
    let mut out = format!("{{\n  \"schema\": \"{schema}\",\n  \"time_scale\": {time_scale}");
    for (name, fields) in sections {
        out.push_str(&format!(",\n  \"{name}\": {{"));
        for (i, (key, value)) in fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    \"{key}\": {value}"));
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// Runs `f` and returns its result and wall time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[test]
fn canary_matches_the_committed_reference() {
    let text = std::fs::read(REFERENCE).expect("read the canary reference");
    let reference = json::parse(&text).expect("the canary reference is JSON");
    let schema = reference
        .get("schema")
        .and_then(Value::as_str)
        .expect("reference schema");
    let time_scale = reference
        .get("time_scale")
        .and_then(Value::as_f64)
        .expect("reference time_scale");
    let config = SystemConfig {
        time_scale,
        ..SystemConfig::default()
    };
    let mut walls: Vec<(String, Duration, Duration)> = Vec::new();

    let mut cycles = Vec::new();
    for (label, cpu) in [
        ("mipsy", CpuModel::Mipsy),
        ("mxs-1wide", CpuModel::MxsSingleIssue),
        ("mxs", CpuModel::Mxs),
    ] {
        let sim = Simulator::new(SystemConfig {
            cpu,
            ..config.clone()
        })
        .expect("valid config");
        let (run, wall) = timed(|| sim.run_benchmark(Benchmark::Jess));
        cycles.push((label, run.cycles));
        walls.push((format!("jess on {label}"), wall, RUN_CEILING));
    }

    let suite = ExperimentSuite::new(config.clone()).expect("valid config");
    let ((), wall) = timed(|| suite.run_all(1));
    walls.push(("grid, no store".into(), wall, GRID_CEILING));
    let grid = vec![
        ("runs", suite.paper_grid().len() as u64),
        ("full_sims", suite.runs_executed() as u64),
        ("replays", suite.replays_derived() as u64),
    ];

    let dir = std::env::temp_dir().join(format!("softwatt-canary-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir).expect("create the scratch trace store");
    let cold = ExperimentSuite::new(config.clone())
        .expect("valid config")
        .with_trace_store(store.clone());
    let ((), wall) = timed(|| cold.run_all(1));
    walls.push(("grid, cold store".into(), wall, GRID_CEILING));
    let warm = ExperimentSuite::new(config)
        .expect("valid config")
        .with_trace_store(store);
    let ((), wall) = timed(|| warm.run_all(1));
    walls.push(("grid, warm store".into(), wall, GRID_CEILING));
    let _ = std::fs::remove_dir_all(&dir);
    let trace_store = vec![
        ("cold_full_sims", cold.runs_executed() as u64),
        ("warm_full_sims", warm.runs_executed() as u64),
        ("warm_store_loads", warm.store_loads() as u64),
    ];

    let measured = render(
        schema,
        time_scale,
        &[
            ("cycles", cycles),
            ("grid", grid),
            ("trace_store", trace_store),
        ],
    );
    assert!(
        json::parse(measured.as_bytes()).expect("rendered JSON") == reference,
        "perf canary moved; if intended, replace {REFERENCE} with:\n{measured}"
    );
    // Same values, so the same bytes: pasting a failure's output
    // regenerates the file without a formatting diff.
    assert_eq!(measured.as_bytes(), &text[..], "reference layout drifted");
    for (what, wall, ceiling) in walls {
        assert!(
            wall < ceiling,
            "{what} took {wall:?}, over the {ceiling:?} ceiling"
        );
    }
}

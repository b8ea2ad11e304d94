//! The served bytes, pinned: every `/v1/run` body of the paper grid,
//! every figure body and the `/v1/run` body of the example spec, at the
//! service's smoke scale, compared with `docs/served_golden.txt`.
//!
//! Served floats print as shortest round-trip, so any change to a served
//! number, however small, changes these bytes. The bodies are rendered
//! in-process through the functions the routes call
//! (`softwatt::json::run_bundle` and `softwatt::json::figure`, on a suite
//! built the way `softwatt-serve --scale 50000` builds its own).
//!
//! When a change moves the bytes on purpose, the failure message prints
//! the measured file: copy it over the golden file.

use softwatt::experiments::{DiskSetup, ExperimentSuite, RunKey};
use softwatt::json::{figure, run_bundle, run_key, FIGURES};
use softwatt::{CpuModel, SystemConfig};
use softwatt_serve::json;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/served_golden.txt");
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/example_spec.json");
/// The time scale the CI server smoke runs at.
const SCALE: f64 = 50000.0;

/// One line per body: a label, a tab, the body.
fn render_all() -> String {
    let suite = ExperimentSuite::new(SystemConfig {
        time_scale: SCALE,
        ..SystemConfig::default()
    })
    .expect("valid config");
    let mut out = String::new();
    for key in suite.paper_grid() {
        let body = run_bundle(key, &suite.run_key(key));
        out.push_str(&format!("run {}\t{body}\n", run_key(key)));
    }
    for name in FIGURES {
        let body = figure(&suite, name).expect("known figure");
        out.push_str(&format!("figure {name}\t{body}\n"));
    }
    let doc = std::fs::read(SPEC).expect("read the example spec");
    let spec = json::spec_from_value(&json::parse(&doc).expect("spec JSON")).expect("valid spec");
    let workload = suite.register_spec(spec).expect("spec registers");
    let key = RunKey {
        workload,
        cpu: CpuModel::Mxs,
        disk: DiskSetup::Conventional,
    };
    let body = run_bundle(key, &suite.run_key(key));
    out.push_str(&format!("run docs/example_spec.json\t{body}\n"));
    out
}

#[test]
fn served_bodies_match_the_committed_golden_file() {
    let measured = render_all();
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    assert!(
        measured == golden,
        "served bytes moved; if intended, replace {GOLDEN} with:\n{measured}"
    );
}

//! `simulate run --trace-cache` takes the service's own lookup path
//! (suite memo → trace store → capture → replay), so the CLI and
//! `softwatt-serve` give one answer per key — `--disk sleep` included,
//! which must be the suite's `DiskSetup::SleepExt` policy.

use std::process::Command;

use softwatt::experiments::{DiskSetup, ExperimentSuite};
use softwatt::{Benchmark, CpuModel, SystemConfig};

#[test]
fn disk_sleep_matches_the_suite_bundle() {
    let cache = std::env::temp_dir().join(format!("softwatt-sleep-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["run", "javac", "--disk", "sleep", "--scale", "20000"])
        .arg("--trace-cache")
        .arg(&cache)
        .output()
        .expect("run simulate");
    let _ = std::fs::remove_dir_all(&cache);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let printed = stdout
        .lines()
        .find(|line| line.starts_with("disk: "))
        .unwrap_or_else(|| panic!("no disk line in {stdout}"));

    // The server's suite for `softwatt-serve --scale 20000`.
    let suite = ExperimentSuite::new(SystemConfig {
        time_scale: 20_000.0,
        ..SystemConfig::default()
    })
    .unwrap();
    let bundle = suite.run(Benchmark::Javac, CpuModel::Mxs, DiskSetup::SleepExt);
    let disk = &bundle.run.disk;
    let expected = format!(
        "disk: {} requests, {} spin-ups, {} spin-downs, {:.2} J",
        disk.requests, disk.spinups, disk.spindowns, disk.energy_j
    );
    assert_eq!(printed, expected);
}

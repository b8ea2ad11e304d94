//! perfbench — the SoftWatt repository benchmark.
//!
//! Usage: `perfbench --workload paper_cold|policy_sweep|serve_open
//! --seed N --seconds S --trace 0|1`, run from the repository root after
//! building the release `experiments` and `softwatt-serve` binaries (the
//! `run.sh` beside this crate does both). With `--trace 0` it prints the
//! end-to-end metrics of one untraced run; with `--trace 1` the per-layer
//! metrics of the layer profile. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `README.md` for what each workload and metric measures.

mod gen;
mod pace;
mod paper;
mod probes;
mod profile;
mod serve;
mod summary;
mod sweep;
mod sys;

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("replays_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_us", "us"),
    ("goodput_rps", "1/s"),
];

/// Per-layer metrics, printed by every traced run.
const PER_LAYER: [(&str, &str); 33] = [
    ("core.capture_s", "s"),
    ("core.capture_count", "count"),
    ("cpu.ns_per_cycle.mipsy", "ns"),
    ("cpu.ns_per_cycle.mxs1", "ns"),
    ("cpu.ns_per_cycle.mxs", "ns"),
    ("workloads.instr_ns", "ns"),
    ("mem.access_ns", "ns"),
    ("cpu.cycles", "count"),
    ("cpu.instrs", "count"),
    ("mem.icache_miss", "count"),
    ("mem.dcache_miss", "count"),
    ("mem.l2_miss", "count"),
    ("os.kernel_cycles", "count"),
    ("disk.requests", "count"),
    ("disk.spinups", "count"),
    ("disk.replay_ns", "ns"),
    ("stats.replay_ns", "ns"),
    ("power.post_ns", "ns"),
    ("stats.decode_ns", "ns"),
    ("stats.trace_bytes", "bytes"),
    ("core.render_ns", "ns"),
    ("core.figure_ns", "ns"),
    ("serve.http_parse_ns", "ns"),
    ("serve.json_parse_ns", "ns"),
    ("serve.lane.inline", "count"),
    ("serve.lane.replay", "count"),
    ("serve.lane.cold", "count"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.latency_p99_us", "us"),
    ("serve.send_lag_p50_us", "us"),
    ("serve.send_lag_p99_us", "us"),
    ("bench.trace_residual_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCold,
    PolicySweep,
    ServeOpen,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        match name {
            "paper_cold" => Some(Workload::PaperCold),
            "policy_sweep" => Some(Workload::PolicySweep),
            "serve_open" => Some(Workload::ServeOpen),
            _ => None,
        }
    }
}

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// One run's result line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Where the built program and the benchmark's own state live.
pub struct Env {
    pub experiments: PathBuf,
    pub serve: PathBuf,
    /// State kept across runs of one build (filled trace stores, the
    /// harness's instruction total), under the cargo target directory.
    pub cache: PathBuf,
    /// This run's private directory, removed at exit.
    pub scratch: PathBuf,
    /// Identifies the build: a hash of both program binaries and this one.
    pub build_id: u64,
}

impl Env {
    fn locate() -> io::Result<Env> {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let release = target.join("release");
        let experiments = release.join("experiments");
        let serve = release.join("softwatt-serve");
        let mut build_id = 0u64;
        for path in [experiments.clone(), serve.clone(), std::env::current_exe()?] {
            let hash = summary::file_hash(&path).ok_or_else(|| {
                io::Error::other(format!("{} is missing; build it first", path.display()))
            })?;
            build_id = build_id.rotate_left(21) ^ hash;
        }
        if !std::path::Path::new(paper::GOLDEN).is_file() {
            return Err(io::Error::other(format!(
                "{} not found; run from the repository root",
                paper::GOLDEN
            )));
        }
        let cache = target.join("perfbench-cache");
        let scratch = cache.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch)?;
        Ok(Env {
            experiments,
            serve,
            cache,
            scratch,
            build_id,
        })
    }

    /// A trace store holding every trace the paper harness captures at
    /// `scale`, filled once per build by the harness itself.
    pub fn filled_store(&self, scale: f64) -> io::Result<PathBuf> {
        let dir = self
            .cache
            .join(format!("store-{scale}-{:016x}", self.build_id));
        if dir.join("READY").exists() {
            return Ok(dir);
        }
        let tmp = self.scratch.join(format!("fill-{scale}"));
        let _ = std::fs::remove_dir_all(&tmp);
        let status = Command::new(&self.experiments)
            .args([&scale.to_string(), "--jobs", "1", "--trace-cache"])
            .arg(&tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "filling the {scale}x trace store failed: {status}"
            )));
        }
        std::fs::write(tmp.join("READY"), b"")?;
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::rename(&tmp, &dir)?;
        Ok(dir)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Prints the result line. Every listed metric must be present; a
/// non-finite value is printed as 0 and fails the run.
fn print_result(outcome: &Outcome, names: &[(&str, &str)]) {
    let mut failed = outcome.failed;
    let mut fields = Vec::new();
    for (name, unit) in names {
        let value = *outcome
            .metrics
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: {name} is not finite");
            failed += 1;
            0.0
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        outcome.attempted.max(1),
        fields.join(", ")
    );
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload paper_cold|policy_sweep|serve_open --seed N \
             --seconds S --trace 0|1"
        );
        std::process::exit(2);
    });
    let env = Env::locate().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let result = if args.trace {
        profile::run(&env, args.workload, args.seed, args.seconds)
    } else {
        match args.workload {
            Workload::PaperCold => paper::run(&env, args.seconds),
            Workload::PolicySweep => sweep::run(&env, args.seed, args.seconds),
            Workload::ServeOpen => serve::run(&env, args.seed, args.seconds),
        }
    };
    let _ = std::fs::remove_dir_all(&env.scratch);
    match result {
        Ok(outcome) => print_result(&outcome, if args.trace { &PER_LAYER } else { &END_TO_END }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

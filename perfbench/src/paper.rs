//! `paper_cold`: the paper harness (`experiments --jobs 1`, no trace
//! store) as a child process. Once per build its output at 2000x must
//! equal `docs/harness_output.txt` byte for byte; the timed executions
//! run it at [`TIMED_SCALE`] and must each reproduce that build's output
//! there. Plus the capture ledger that replays the harness's simulation
//! work in-process, one timed row per capture and per full simulation.

use std::io::{self, BufRead as _, BufReader, Read as _};
use std::process::{Command, Stdio};
use std::time::Instant;

use softwatt::experiments::ExperimentSuite;
use softwatt::{
    Benchmark, CpuModel, DiskConfig, IdleHandling, Mode, PowerModel, RunResult, Simulator,
    SystemConfig,
};
use softwatt_mem::CacheGeometry;
use softwatt_stats::{PerfTrace, UnitEvent};

use crate::summary::median;
use crate::{pace, sys};
use crate::{Env, Metrics, Outcome};

/// The harness's time scale, at which its output must equal [`GOLDEN`].
pub const SCALE: f64 = 2000.0;
/// The time scale of the timed executions: ten times coarser, so one
/// takes about 1.5 s and a 30 s run holds well over a dozen, each between
/// two pace samples. The host's speed changes from one second to the
/// next, so many short executions, each set against the pace next to it,
/// measure the program steadily where three 10 s ones could not.
pub const TIMED_SCALE: f64 = 20000.0;
/// Process starts timed per run for `setup_s`.
const START_PROBES: usize = 25;
/// The harness output at [`SCALE`].
pub const GOLDEN: &str = "docs/harness_output.txt";
/// Share of the output lines whose arrival `latency_p50_us` reports: the
/// harness prints its tables, figures and extensions as each finishes,
/// so this is its time to results.
const PROGRESS: f64 = 0.5;
/// The harness's own counts of its captures, full simulations and
/// replays, which must match the ledger's work list.
const COUNTERS: [&str; 3] = ["sim.capture_runs", "sim.full_runs", "suite.replays"];

fn harness(env: &Env, scale: f64) -> Command {
    let mut cmd = Command::new(&env.experiments);
    cmd.args([&scale.to_string(), "--jobs", "1"])
        .env_remove("SOFTWATT_TRACE_CACHE")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    cmd
}

/// Seconds from spawning the harness until its first stdout line (the
/// banner it prints once its arguments are parsed); the child is then
/// killed.
fn start_time(env: &Env) -> io::Result<f64> {
    let t = Instant::now();
    let mut child = harness(env, TIMED_SCALE).spawn()?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let secs = t.elapsed().as_secs_f64();
    sys::signal(child.id(), sys::SIGKILL);
    sys::reap(child.id())?;
    read?;
    if !line.starts_with("SoftWatt experiment harness") {
        return Err(io::Error::other(format!("unexpected banner {line:?}")));
    }
    Ok(secs)
}

/// One harness execution.
pub struct Execution {
    /// Host seconds from spawn to exit.
    pub wall_s: f64,
    /// Host seconds from spawn until the [`PROGRESS`] share of the
    /// expected output lines had arrived (infinite if it never did).
    pub progress_s: f64,
    /// The child's peak resident memory.
    pub maxrss_mb: f64,
    /// Exit 0 and stdout byte-identical to the expected output.
    pub ok: bool,
}

/// Runs the harness once at `scale` and checks its output.
pub fn execute(env: &Env, scale: f64, expected: &[u8]) -> io::Result<Execution> {
    let lines = expected.iter().filter(|&&b| b == b'\n').count();
    let rank = line_rank(lines, PROGRESS);
    let mut progress_s = f64::INFINITY;
    let t = Instant::now();
    let mut child = harness(env, scale).spawn()?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut out = Vec::with_capacity(expected.len());
    let mut chunk = [0u8; 8192];
    // The harness's stdout is line-buffered, so each line arrives as it
    // is printed.
    let read = loop {
        match stdout.read(&mut chunk) {
            Ok(0) => break Ok(()),
            Ok(k) => {
                let now = t.elapsed().as_secs_f64();
                out.extend_from_slice(&chunk[..k]);
                let seen = out.iter().filter(|&&b| b == b'\n').count();
                if seen >= rank && progress_s.is_infinite() {
                    progress_s = now;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    if read.is_err() {
        sys::signal(child.id(), sys::SIGKILL);
    }
    let reaped = sys::reap(child.id())?;
    read?;
    Ok(Execution {
        wall_s: t.elapsed().as_secs_f64(),
        progress_s,
        maxrss_mb: reaped.maxrss_mb,
        ok: reaped.code == Some(0) && out == expected,
    })
}

/// The nearest-rank line index (1-based) by which a share `p` of
/// `lines` output lines has been printed.
fn line_rank(lines: usize, p: f64) -> usize {
    ((p * lines as f64 - 1e-9).ceil() as usize).clamp(1, lines.max(1))
}

/// Simulated totals summed over runs: exact and deterministic, so any
/// change means the modelled machine changed.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimCounts {
    pub cycles: u64,
    pub instrs: u64,
    pub icache_miss: u64,
    pub dcache_miss: u64,
    pub l2_miss: u64,
    pub kernel_cycles: u64,
    pub disk_requests: u64,
    pub disk_spinups: u64,
}

impl SimCounts {
    fn add(&mut self, run: &RunResult) {
        let events = run.log.total_events().combined();
        self.cycles += run.cycles;
        self.instrs += run.committed;
        self.icache_miss += events.get(UnitEvent::IcacheMiss);
        self.dcache_miss += events.get(UnitEvent::DcacheMiss);
        self.l2_miss += events.get(UnitEvent::L2Miss);
        self.kernel_cycles +=
            run.mode_cycles(Mode::KernelInstr) + run.mode_cycles(Mode::KernelSync);
        self.disk_requests += run.disk.requests;
        self.disk_spinups += run.disk.spinups;
    }
}

/// One simulation the harness performs.
pub struct Row {
    pub benchmark: Benchmark,
    pub cpu: CpuModel,
    /// `capture` (trace capture under analytic idle), `capture-ref` (the
    /// second-seed captures behind the kernel-energy estimate) or `full`
    /// (the L1I sweep's direct simulations).
    pub kind: &'static str,
    /// Cycles the CPU model actually stepped (a capture skips blocked
    /// idle stretches arithmetically).
    pub stepped_cycles: u64,
    pub host_s: f64,
}

/// The harness's simulation work, timed from outside the suite.
pub struct Ledger {
    pub rows: Vec<Row>,
    /// Bundles derived by trace replay and post-processed to energy.
    pub replays: usize,
    pub replay_s: f64,
    /// Wall time of the whole ledger pass.
    pub wall_s: f64,
    pub counts: SimCounts,
}

impl Ledger {
    /// Seconds the rows account for.
    pub fn attributed_s(&self) -> f64 {
        self.rows.iter().map(|r| r.host_s).sum::<f64>() + self.replay_s
    }

    /// Host nanoseconds per stepped cycle over the simulations on `cpu`.
    pub fn ns_per_cycle(&self, cpu: CpuModel) -> f64 {
        let (ns, cycles) = self
            .rows
            .iter()
            .filter(|r| r.cpu == cpu)
            .fold((0.0, 0u64), |(ns, c), r| {
                (ns + r.host_s * 1e9, c + r.stepped_cycles)
            });
        ns / cycles.max(1) as f64
    }

    /// Prints one line per row and the residual against `wall_s`.
    pub fn print(&self, untraced_wall_s: Option<f64>) {
        println!(
            "ledger: {:<9} {:<6} {:<11} {:>12} {:>9} {:>9}",
            "benchmark", "cpu", "kind", "sim cycles", "host s", "ns/cycle"
        );
        for r in &self.rows {
            println!(
                "ledger: {:<9} {:<6} {:<11} {:>12} {:>9.4} {:>9.2}",
                r.benchmark.name(),
                r.cpu.name(),
                r.kind,
                r.stepped_cycles,
                r.host_s,
                r.host_s * 1e9 / r.stepped_cycles.max(1) as f64
            );
        }
        println!(
            "ledger: {} replays + power post-processing {:.4} s",
            self.replays, self.replay_s
        );
        let attributed = self.attributed_s();
        println!(
            "ledger: rows sum to {attributed:.4} s of {:.4} s traced wall; unattributed {:.4} s ({:.2}%)",
            self.wall_s,
            self.wall_s - attributed,
            100.0 * (self.wall_s - attributed) / self.wall_s
        );
        if let Some(u) = untraced_wall_s {
            println!(
                "ledger: untraced harness {u:.4} s; rows leave {:.4} s ({:.2}%) of it unattributed",
                u - attributed,
                100.0 * (u - attributed) / u
            );
        }
    }
}

fn base_config(scale: f64) -> SystemConfig {
    SystemConfig {
        time_scale: scale,
        ..SystemConfig::default()
    }
}

fn capture(
    config: &SystemConfig,
    benchmark: Benchmark,
    cpu: CpuModel,
) -> (RunResult, PerfTrace, f64) {
    let config = SystemConfig {
        cpu,
        idle: IdleHandling::Analytic,
        ..config.clone()
    };
    let sim = Simulator::new(config).expect("valid config");
    let t = Instant::now();
    let (run, trace) = sim.run_benchmark_traced(benchmark);
    (run, trace, t.elapsed().as_secs_f64())
}

/// Performs the harness's simulations at `scale` in the order it needs
/// them — the 13 paper-grid captures, the 6 second-seed captures, the 5
/// L1I-sweep full simulations — then its 43 replays, timing each call.
pub fn ledger(scale: f64) -> Ledger {
    let t0 = Instant::now();
    let base = base_config(scale);
    let grid = ExperimentSuite::new(base.clone())
        .expect("valid config")
        .paper_grid();
    let mut rows = Vec::new();
    let mut counts = SimCounts::default();
    let mut traces: Vec<(Benchmark, CpuModel, u64, PerfTrace)> = Vec::new();
    for key in &grid {
        let b = key.workload.canned().expect("canned grid");
        if traces
            .iter()
            .any(|(tb, tc, _, _)| (*tb, *tc) == (b, key.cpu))
        {
            continue;
        }
        let (run, trace, host_s) = capture(&base, b, key.cpu);
        counts.add(&run);
        rows.push(Row {
            benchmark: b,
            cpu: key.cpu,
            kind: "capture",
            stepped_cycles: trace.work_cycles,
            host_s,
        });
        traces.push((b, key.cpu, base.seed, trace));
    }
    let reference = SystemConfig {
        seed: base.seed ^ 0xDEAD_BEEF,
        ..base.clone()
    };
    for &b in &Benchmark::ALL {
        let (run, trace, host_s) = capture(&reference, b, CpuModel::Mxs);
        counts.add(&run);
        rows.push(Row {
            benchmark: b,
            cpu: CpuModel::Mxs,
            kind: "capture-ref",
            stepped_cycles: trace.work_cycles,
            host_s,
        });
        traces.push((b, CpuModel::Mxs, reference.seed, trace));
    }
    for kb in [8u64, 16, 32, 64, 128] {
        let mut config = base.clone();
        config.mem.il1 = CacheGeometry::new(kb * 1024, 64, 2);
        let sim = Simulator::new(config).expect("valid config");
        let t = Instant::now();
        let run = sim.run_benchmark(Benchmark::Jess);
        let host_s = t.elapsed().as_secs_f64();
        counts.add(&run);
        rows.push(Row {
            benchmark: Benchmark::Jess,
            cpu: base.cpu,
            kind: "full",
            stepped_cycles: run.cycles,
            host_s,
        });
    }
    // The grid's bundles plus the reference suite's baseline bundles.
    let mut replays = 0;
    let t = Instant::now();
    for (b, cpu, seed, trace) in &traces {
        let disks: Vec<_> = if *seed == base.seed {
            grid.iter()
                .filter(|k| k.workload.canned() == Some(*b) && k.cpu == *cpu)
                .map(|k| k.disk)
                .collect()
        } else {
            vec![softwatt::experiments::DiskSetup::Conventional]
        };
        for disk in disks {
            let config = SystemConfig {
                cpu: *cpu,
                seed: *seed,
                idle: IdleHandling::Analytic,
                disk: DiskConfig {
                    policy: disk.policy(),
                    ..base.disk
                },
                ..base.clone()
            };
            let run = Simulator::new(config.clone())
                .expect("valid config")
                .replay_trace(trace);
            let model = PowerModel::new(&config.power_params());
            std::hint::black_box(model.mode_table(&run.log).total_energy_j());
            std::hint::black_box(model.profile(&run.log));
            replays += 1;
        }
    }
    let replay_s = t.elapsed().as_secs_f64();
    Ledger {
        rows,
        replays,
        replay_s,
        wall_s: t0.elapsed().as_secs_f64(),
        counts,
    }
}

/// The value of counter `name` in a `softwatt-obs-v1` document.
fn counter(doc: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\": ");
    let at = doc.find(&needle)? + needle.len();
    let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Runs the harness once at [`TIMED_SCALE`] with `--metrics-out` and
/// returns its own counts of [`COUNTERS`] and its stdout.
fn harness_counts(env: &Env) -> io::Result<([u64; 3], Vec<u8>)> {
    let doc = env.scratch.join("harness-metrics.json");
    let out = harness(env, TIMED_SCALE)
        .arg("--metrics-out")
        .arg(&doc)
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "harness with --metrics-out: {}",
            out.status
        )));
    }
    let text = std::fs::read_to_string(&doc)?;
    let mut counts = [0; 3];
    for (count, name) in counts.iter_mut().zip(COUNTERS) {
        *count = counter(&text, name)
            .ok_or_else(|| io::Error::other(format!("harness metrics lack {name}")))?;
    }
    Ok((counts, out.stdout))
}

/// What the timed executions are checked and counted against, worked out
/// once per build before any timing and remembered in the cache
/// directory: the committed instructions and replay count of the
/// harness's simulation work at [`TIMED_SCALE`] (from the ledger), and
/// the harness's stdout there. First the harness at [`SCALE`] must print
/// [`GOLDEN`] byte for byte. Then, since the ledger repeats the harness's
/// work list in-process, the harness's own counts of captures, full
/// simulations and replays must equal the ledger's; if the harness
/// simulates more or less, the ledger is out of date and the run fails.
fn harness_totals(env: &Env) -> io::Result<(u64, usize, Vec<u8>)> {
    let totals = env
        .cache
        .join(format!("paper-totals-{:016x}", env.build_id));
    let output = env
        .cache
        .join(format!("paper-output-{:016x}", env.build_id));
    if let (Ok(text), Ok(stdout)) = (std::fs::read_to_string(&totals), std::fs::read(&output)) {
        let mut it = text.split_whitespace().map(str::parse::<u64>);
        if let (Some(Ok(instrs)), Some(Ok(replays))) = (it.next(), it.next()) {
            return Ok((instrs, replays as usize, stdout));
        }
    }
    if !execute(env, SCALE, &std::fs::read(GOLDEN)?)?.ok {
        return Err(io::Error::other(format!(
            "the harness at {SCALE}x does not reproduce {GOLDEN}"
        )));
    }
    let ledger = ledger(TIMED_SCALE);
    let kind = |k: &str| ledger.rows.iter().filter(|r| r.kind.starts_with(k)).count() as u64;
    let mine = [kind("capture"), kind("full"), ledger.replays as u64];
    let (theirs, stdout) = harness_counts(env)?;
    if mine != theirs {
        return Err(io::Error::other(format!(
            "the harness counts {COUNTERS:?} = {theirs:?} but the ledger performs {mine:?}; \
             update paper::ledger to the harness's work list"
        )));
    }
    std::fs::write(&output, &stdout)?;
    std::fs::write(
        &totals,
        format!("{} {}\n", ledger.counts.instrs, ledger.replays),
    )?;
    Ok((ledger.counts.instrs, ledger.replays, stdout))
}

/// The untraced `paper_cold` run: time process starts, then run the
/// harness at [`TIMED_SCALE`] back to back for `seconds` (at least once).
pub fn run(env: &Env, seconds: f64) -> io::Result<Outcome> {
    let (instrs, replays, expected) = harness_totals(env)?;
    let starts = (0..START_PROBES)
        .map(|_| start_time(env))
        .collect::<io::Result<Vec<f64>>>()?;
    // Executions back to back, with a pace sample before the first and
    // after each; no execution starts that would end past `seconds` if it
    // took as long as the last one.
    let t = Instant::now();
    let mut runs = Vec::new();
    let mut paces = vec![pace::sample()];
    loop {
        let run = execute(env, TIMED_SCALE, &expected)?;
        paces.push(pace::sample());
        let next_ends_s = t.elapsed().as_secs_f64() + run.wall_s;
        runs.push(run);
        if next_ends_s >= seconds {
            break;
        }
    }
    // Each execution's times at the quiet machine's pace, then their
    // median over the run.
    let at_pace = |f: &dyn Fn(&Execution) -> f64| {
        let times: Vec<f64> = runs.iter().map(f).collect();
        median(&pace::at_pace(&times, &paces)).expect("one execution ran")
    };
    let wall = at_pace(&|r| r.wall_s);
    let good = runs.iter().filter(|r| r.ok).count();
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    println!(
        "paper_cold: {} executions at {TIMED_SCALE}x, wall median {:.4} s (min {:.4}), host pace \
         median {:.4}; {good} reproduce the build's output",
        runs.len(),
        median(&walls).expect("one execution ran"),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&paces).expect("paces sampled"),
    );
    let mut m = Metrics::default();
    m.set("setup_s", median(&starts).expect("probes ran"));
    m.set("wall_s", wall);
    m.set("sim_minstr_per_s", instrs as f64 / 1e6 / wall);
    m.set("replays_per_s", replays as f64 / wall);
    m.set(
        "peak_rss_mb",
        runs.iter().map(|r| r.maxrss_mb).fold(0.0, f64::max),
    );
    m.set("latency_p50_us", at_pace(&|r| r.progress_s) * 1e6);
    // Executions reproducing the output per second, at the median
    // execution's length.
    m.set("goodput_rps", good as f64 / runs.len() as f64 / wall);
    Ok(Outcome {
        attempted: runs.len() as u64,
        failed: (runs.len() - good) as u64,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_read_from_the_metrics_document() {
        let doc =
            "{\"counters\": {\n    \"sim.capture_runs\": 19,\n    \"sim.full_runs\": 5,\n    \
                   \"suite.replays\": 43\n  }}";
        let counts: Vec<Option<u64>> = COUNTERS.iter().map(|n| counter(doc, n)).collect();
        assert_eq!(counts, [Some(19), Some(5), Some(43)]);
        assert_eq!(counter(doc, "sim.replay_runs"), None);
    }

    #[test]
    fn output_progress_takes_the_nearest_rank_line() {
        assert_eq!(line_rank(308, 0.5), 154);
        assert_eq!(line_rank(309, 0.5), 155);
        assert_eq!(line_rank(1, 0.5), 1);
    }
}

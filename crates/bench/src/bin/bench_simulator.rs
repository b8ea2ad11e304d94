//! Simulator-throughput measurement mode: times the core simulator per
//! CPU model, the full experiment grid serial vs parallel (with the
//! trace-replay engine), the same grid with replay disabled (every key
//! fully simulated) for the replay speedup headline, and the grid against
//! a cold vs a warm persistent trace store (the warm pass must execute 0
//! full simulations). Writes the results as machine-readable JSON
//! (`BENCH_simulator.json`).
//!
//! Usage: `bench_simulator [--scale S] [--jobs N|auto] [--out FILE]
//! [--trace-cache DIR] [--metrics] [--metrics-out FILE]
//! [--log-level LEVEL]` (defaults: scale 2000 — the experiment harness's
//! fidelity setting — `--jobs` = available parallelism, out
//! `BENCH_simulator.json`). The store timings use a scratch directory
//! under `--trace-cache`/`SOFTWATT_TRACE_CACHE` (or the system temp dir),
//! removed afterwards, so a real cache is never cleared. Note that
//! enabling metrics perturbs the very wall-clocks this tool measures;
//! leave them off for regression comparisons.

use std::fmt::Write as _;
use std::time::Instant;

use softwatt::experiments::ExperimentSuite;
use softwatt::{Benchmark, CpuModel, PowerModel, Simulator, SystemConfig};
use softwatt_bench::ObsFlags;

/// `--profile`: one instrumented full simulation + power post + replay,
/// reported as a per-stage wall-clock table on stderr. Stage timing makes
/// the run itself slower (several clock reads per simulated cycle), so
/// this mode never writes benchmark JSON — the numbers are for
/// *attribution*, not regression tracking.
fn run_profile(config: &SystemConfig) {
    softwatt_obs::set_enabled(true);
    softwatt_obs::set_stage_timing(true);
    let mut c = config.clone();
    c.cpu = CpuModel::Mxs;
    let sim = Simulator::new(c).expect("valid config");

    let start = Instant::now();
    let (run, trace) = sim.run_benchmark_traced(Benchmark::Jess);
    let sim_ns = start.elapsed().as_nanos() as u64;

    let model = PowerModel::new(&sim.config().power_params());
    let start = Instant::now();
    let profile = model.profile(&run.log);
    let table = model.mode_table(&run.log);
    let power_ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box((&profile, &table));

    let start = Instant::now();
    let replayed = sim.replay_trace(&trace);
    let replay_ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box(&replayed);

    softwatt_obs::set_stage_timing(false);
    let stage = |name: &'static str| softwatt_obs::registry::counter(name).get();
    let stages: &[(&str, u64)] = &[
        ("fetch", stage("mxs.stage.fetch_ns")),
        ("dispatch", stage("mxs.stage.dispatch_ns")),
        ("issue", stage("mxs.stage.issue_ns")),
        ("complete", stage("mxs.stage.complete_ns")),
        ("commit", stage("mxs.stage.commit_ns")),
        ("os", stage("sim.stage.os_ns")),
        ("stats", stage("sim.stage.stats_ns")),
    ];
    let accounted: u64 = stages.iter().map(|&(_, ns)| ns).sum();
    eprintln!(
        "per-stage profile: jess on mxs, {} cycles, {:.3} s wall (timing overhead included)",
        run.cycles,
        sim_ns as f64 / 1e9
    );
    for &(name, ns) in stages {
        eprintln!(
            "  {name:<10} {:>10.3} ms  {:>5.1}%  ({:.1} ns/cycle)",
            ns as f64 / 1e6,
            100.0 * ns as f64 / sim_ns as f64,
            ns as f64 / run.cycles as f64
        );
    }
    eprintln!(
        "  {:<10} {:>10.3} ms  {:>5.1}%  (timer reads + uninstrumented code)",
        "other",
        (sim_ns - accounted) as f64 / 1e6,
        100.0 * (sim_ns - accounted) as f64 / sim_ns as f64
    );
    eprintln!(
        "  power post  {:>9.3} ms   replay {:.3} ms ({} samples)",
        power_ns as f64 / 1e6,
        replay_ns as f64 / 1e6,
        run.log.len()
    );
    let scans = stage("mxs.issue.scans");
    let entries = stage("mxs.issue.scan_entries");
    let skips = stage("mxs.issue.skipped_cycles");
    eprintln!(
        "  issue occupancy: {scans} scans ({:.1} waiting entries avg), {skips} cycles skipped ({:.1}% of cycles)",
        entries as f64 / scans.max(1) as f64,
        100.0 * skips as f64 / run.cycles as f64
    );
}

fn main() {
    let mut scale = 2000.0f64;
    let mut jobs = softwatt_bench::auto_parallelism();
    let mut out = String::from("BENCH_simulator.json");
    let mut trace_cache = None;
    let mut profile_mode = false;
    let mut obs = ObsFlags::default();
    fn usage_exit(msg: &str) -> ! {
        eprintln!("{msg}");
        eprintln!(
            "usage: bench_simulator [--scale S] [--jobs N|auto] [--out FILE] [--trace-cache DIR] [--profile] {}",
            ObsFlags::USAGE
        );
        std::process::exit(2);
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--scale" => match value("--scale").parse() {
                Ok(v) if v > 0.0 => scale = v,
                _ => usage_exit("--scale needs a positive number"),
            },
            "--jobs" => {
                jobs = softwatt_bench::parse_count_or_auto(
                    "--jobs",
                    Some(value("--jobs")),
                    "thread count",
                )
                .unwrap_or_else(|e| usage_exit(&e));
            }
            "--out" => out = value("--out"),
            "--trace-cache" => trace_cache = Some(value("--trace-cache")),
            "--profile" => profile_mode = true,
            other => match obs.try_parse(other, || Some(value(other))) {
                Ok(true) => {}
                Ok(false) => usage_exit(&format!("unknown flag {other}")),
                Err(e) => usage_exit(&e),
            },
        }
    }
    obs.activate();

    if profile_mode {
        run_profile(&SystemConfig {
            time_scale: scale,
            ..SystemConfig::default()
        });
        return;
    }

    let config = SystemConfig {
        time_scale: scale,
        ..SystemConfig::default()
    };
    let cores = softwatt_bench::auto_parallelism();
    eprintln!("simulator throughput (scale {scale}x, {cores} core(s), --jobs {jobs})");

    // Core simulator throughput: simulated cycles per wall-clock second,
    // best of three jess runs per CPU model (each run re-simulates from
    // scratch; the minimum wall time is the least scheduler-noise-polluted
    // estimate of the simulator's actual speed).
    let mut cpu_rows = String::new();
    let mut mxs_full_s = 0.0f64;
    for cpu in [CpuModel::Mipsy, CpuModel::MxsSingleIssue, CpuModel::Mxs] {
        let mut c = config.clone();
        c.cpu = cpu;
        let sim = Simulator::new(c).expect("valid config");
        let mut wall_s = f64::INFINITY;
        let mut run = None;
        for _ in 0..3 {
            let start = Instant::now();
            let r = sim.run_benchmark(Benchmark::Jess);
            wall_s = wall_s.min(start.elapsed().as_secs_f64());
            run = Some(r);
        }
        let run = run.expect("three runs happened");
        if cpu == CpuModel::Mxs {
            mxs_full_s = wall_s;
        }
        let rate = run.cycles as f64 / wall_s;
        eprintln!(
            "  {:<22} {:>12} cycles in {wall_s:7.3} s  ({rate:.3e} cycles/s)",
            cpu.label(),
            run.cycles
        );
        if !cpu_rows.is_empty() {
            cpu_rows.push_str(",\n");
        }
        write!(
            cpu_rows,
            "    {{\"model\": \"{}\", \"benchmark\": \"jess\", \"cycles\": {}, \"wall_s\": {wall_s:.6}, \"cycles_per_sec\": {rate:.1}}}",
            cpu.label(),
            run.cycles
        )
        .expect("write to string");
    }

    // Direct replay-vs-full-sim measurement on one (jess, MXS) trace: the
    // per-trace cost of deriving a result from a capture versus simulating
    // it, independent of grid composition (the grid-level replay_speedup
    // below is diluted by the captures the grid still has to run).
    let (replay_s, replay_direct) = {
        let mut c = config.clone();
        c.cpu = CpuModel::Mxs;
        let sim = Simulator::new(c).expect("valid config");
        let (_, trace) = sim.run_benchmark_traced(Benchmark::Jess);
        let reps = 10u32;
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(sim.replay_trace(&trace));
        }
        let replay_s = start.elapsed().as_secs_f64() / f64::from(reps);
        (replay_s, mxs_full_s / replay_s)
    };
    eprintln!(
        "  replay (jess, mxs)     {:>12.6} s/replay  ({replay_direct:.1}x vs {mxs_full_s:.3} s full sim)",
        replay_s
    );

    // Full experiment grid with the trace-replay engine, serial then
    // parallel, fresh memo each time.
    let suite = ExperimentSuite::new(config.clone()).expect("valid config");
    let grid = suite.paper_grid();
    let start = Instant::now();
    suite.run_all(1);
    let serial_s = start.elapsed().as_secs_f64();
    let full_sims = suite.runs_executed();
    let replays = suite.replays_derived();
    eprintln!(
        "  grid x{} serial      {serial_s:7.3} s  ({full_sims} full sims + {replays} replays)",
        grid.len()
    );

    // The speedup is bounded by min(jobs, cores, grid size): on a 1-core
    // machine a parallel grid cannot beat the serial one, which the JSON
    // now says outright via `jobs_effective`.
    let jobs_effective = jobs.min(cores).clamp(1, grid.len());
    let suite_par = ExperimentSuite::new(config.clone()).expect("valid config");
    let start = Instant::now();
    suite_par.run_all(jobs);
    let parallel_s = start.elapsed().as_secs_f64();
    let speedup = serial_s / parallel_s;
    eprintln!(
        "  grid x{} --jobs {jobs}    {parallel_s:7.3} s  ({speedup:.2}x, {jobs_effective} effective)",
        grid.len()
    );

    // The same grid with replay disabled: every key is a full simulation.
    // The ratio against the replaying grid at the same jobs count is the
    // headline win of the log-once/replay-many engine.
    let suite_full = ExperimentSuite::with_full_simulation(config.clone()).expect("valid config");
    let start = Instant::now();
    suite_full.run_all(jobs);
    let full_sim_s = start.elapsed().as_secs_f64();
    let replay_speedup = full_sim_s / parallel_s;
    eprintln!(
        "  grid x{} full-sim --jobs {jobs} {full_sim_s:7.3} s  (replay engine {replay_speedup:.2}x faster)",
        grid.len()
    );

    // Cold vs warm persistent trace store, in a scratch directory so a
    // real cache the user pointed us at is never cleared.
    let store_base = softwatt_bench::trace_cache_dir(trace_cache)
        .map_or_else(std::env::temp_dir, std::path::PathBuf::from);
    let store_dir = store_base.join(format!("swtrace-bench-{}", std::process::id()));
    let store = softwatt::TraceStore::open(&store_dir).expect("create scratch trace store");

    let suite_cold = ExperimentSuite::new(config.clone())
        .expect("valid config")
        .with_trace_store(store.clone());
    let start = Instant::now();
    suite_cold.run_all(jobs);
    let cold_s = start.elapsed().as_secs_f64();
    let cold_sims = suite_cold.runs_executed();
    eprintln!(
        "  grid x{} cold store  {cold_s:7.3} s  ({cold_sims} full sims captured + persisted)",
        grid.len()
    );

    let suite_warm = ExperimentSuite::new(config)
        .expect("valid config")
        .with_trace_store(store);
    let start = Instant::now();
    suite_warm.run_all(jobs);
    let warm_s = start.elapsed().as_secs_f64();
    let warm_sims = suite_warm.runs_executed();
    let warm_loads = suite_warm.store_loads();
    let warm_speedup = cold_s / warm_s;
    assert_eq!(warm_sims, 0, "a warm store must satisfy the whole grid");
    eprintln!(
        "  grid x{} warm store  {warm_s:7.3} s  ({warm_loads} store loads, {warm_sims} full sims, {warm_speedup:.2}x vs cold)",
        grid.len()
    );
    let _ = std::fs::remove_dir_all(&store_dir);

    let json = format!(
        "{{\n  \"schema\": \"softwatt-bench-simulator-v4\",\n  \"time_scale\": {scale},\n  \"cores\": {cores},\n  \"jobs\": {jobs},\n  \"jobs_effective\": {jobs_effective},\n  \"cpu_models\": [\n{cpu_rows}\n  ],\n  \"replay\": {{\"benchmark\": \"jess\", \"model\": \"mxs\", \"full_sim_wall_s\": {mxs_full_s:.6}, \"replay_wall_s\": {replay_s:.6}, \"replay_speedup\": {replay_direct:.4}}},\n  \"grid\": {{\"runs\": {}, \"full_sims\": {full_sims}, \"replays\": {replays}, \"serial_wall_s\": {serial_s:.6}, \"parallel_wall_s\": {parallel_s:.6}, \"speedup\": {speedup:.4}, \"full_sim_wall_s\": {full_sim_s:.6}, \"replay_speedup\": {replay_speedup:.4}}},\n  \"trace_store\": {{\"cold_wall_s\": {cold_s:.6}, \"cold_full_sims\": {cold_sims}, \"warm_wall_s\": {warm_s:.6}, \"warm_full_sims\": {warm_sims}, \"warm_store_loads\": {warm_loads}, \"warm_speedup\": {warm_speedup:.4}}}\n}}\n",
        grid.len()
    );
    std::fs::write(&out, &json).expect("write benchmark JSON");
    eprintln!("wrote {out}");
    print!("{json}");

    if let Err(e) = obs.finish() {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

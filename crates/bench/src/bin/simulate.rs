//! Command-line front end for the simulator — the paper's Figure 1
//! pipeline as a tool: run a workload, write the simulation log file,
//! post-process a log into power numbers.
//!
//! ```text
//! simulate run <benchmark> [--cpu mxs|mxs1|mipsy] [--disk conv|idle|standby2|standby4|sleep]
//!               [--scale N] [--seed N] [--log FILE] [--record FILE] [--replay FILE]
//! simulate post <logfile>
//! ```
//!
//! `--record` captures the user instruction stream as a binary trace;
//! `--replay` substitutes a previously recorded trace for the generator
//! (the benchmark or spec still supplies the OS-side configuration),
//! enabling trace-driven machine comparisons.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use softwatt::budget::{system_budget, SystemBudget};
use softwatt::experiments::{DiskSetup, RunBundle};
use softwatt::{
    Benchmark, BenchmarkSpec, CpuModel, ExperimentSuite, IdleHandling, Mode, PowerModel, RunKey,
    RunResult, SimLog, Simulator, SystemConfig, Workload, WorkloadKey,
};
use softwatt_bench::ObsFlags;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("post") => cmd_post(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  simulate run <benchmark>[,<benchmark>...] [--cpu mxs|mxs1|mipsy]
                [--disk conv|idle|standby2|standby4|sleep] [--scale N] [--seed N]
                [--jobs N|auto] [--trace-cache DIR] [--log FILE]
                [--record FILE] [--replay FILE]
                [--metrics] [--metrics-out FILE] [--log-level LEVEL]
  simulate run --spec FILE [--cpu ...] [--disk ...] [--scale N] [--seed N]
                [--trace-cache DIR] [--log FILE] [...]
  simulate post <logfile> [--metrics] [--metrics-out FILE] [--log-level LEVEL]

benchmarks: compress jess db javac mtrt jack (or 'all');
--spec FILE runs a user-defined workload from a softwatt-spec-v1 JSON
file instead of a canned benchmark (same validation gate as the HTTP
surface; see docs/example_spec.json);
--jobs N simulates a multi-benchmark list on N threads (results print
in list order either way); --trace-cache DIR (or SOFTWATT_TRACE_CACHE)
runs through the server's lookup path (memo, trace store, capture,
replay), sharing full simulations across processes, and forces analytic
idle handling (the mode traces are captured under);
--metrics/--metrics-out/--log-level report observability data on
stderr / to a JSON file";

fn cmd_run(args: &[String]) -> Result<(), String> {
    // The selection is positional; a leading flag (e.g. `--spec`) means
    // there is no canned-benchmark selection at all.
    let (selection, flag_args) = match args.first() {
        None => return Err(format!("missing benchmark\n{USAGE}")),
        Some(s) if s.starts_with("--") => (None, args),
        Some(s) => (Some(s.as_str()), &args[1..]),
    };
    let benchmarks: Vec<Benchmark> = match selection {
        Some("all") => Benchmark::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .filter(|name| !name.is_empty())
            .map(|name| {
                Benchmark::from_name(name)
                    .ok_or_else(|| format!("unknown benchmark {name}\n{USAGE}"))
            })
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };

    let mut config = SystemConfig {
        time_scale: 4000.0,
        ..SystemConfig::default()
    };
    let mut disk = DiskSetup::Conventional;
    let mut log_path: Option<String> = None;
    let mut record_path: Option<String> = None;
    let mut replay_path: Option<String> = None;
    let mut trace_cache: Option<String> = None;
    let mut spec_path: Option<String> = None;
    let mut jobs = 1usize;
    let mut obs = ObsFlags::default();
    let mut it = flag_args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--cpu" => {
                let name = value()?;
                config.cpu = CpuModel::from_name(&name)
                    .ok_or_else(|| format!("unknown cpu model {name}\n{USAGE}"))?;
            }
            "--disk" => {
                let name = value()?;
                disk = DiskSetup::from_name(&name)
                    .ok_or_else(|| format!("unknown disk policy {name}\n{USAGE}"))?;
            }
            "--scale" => {
                config.time_scale = value()?
                    .parse()
                    .map_err(|_| "--scale needs a number".to_string())?
            }
            "--seed" => {
                config.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--jobs" => {
                jobs =
                    softwatt_bench::parse_count_or_auto("--jobs", Some(value()?), "thread count")?
            }
            "--trace-cache" => trace_cache = Some(value()?),
            "--spec" => spec_path = Some(value()?),
            "--log" => log_path = Some(value()?),
            "--record" => record_path = Some(value()?),
            "--replay" => replay_path = Some(value()?),
            other => {
                if !obs.try_parse(other, || value().ok())? {
                    return Err(format!("unknown flag {other}\n{USAGE}"));
                }
            }
        }
    }
    config.disk.policy = disk.policy();
    obs.activate();
    let user_trace = record_path.is_some() || replay_path.is_some();
    let store = softwatt_bench::open_trace_store(trace_cache)?;
    if let Some(store) = &store {
        if user_trace {
            return Err("--trace-cache applies to benchmark runs, not --record/--replay".into());
        }
        // Stored traces are captured under analytic idle handling; forcing
        // it here makes a cold (capturing) and a warm (replaying) run of
        // the same command agree bit for bit.
        config.idle = IdleHandling::Analytic;
        eprintln!(
            "trace cache {}: idle handling forced to analytic",
            store.dir().display()
        );
    }
    // With a store, every run takes the server's own path through the
    // suite: memo → store → capture → replay.
    let suite = ExperimentSuite::new(config.clone())?;
    let suite = match store {
        Some(store) => suite.with_trace_store(store),
        None => suite,
    };

    let workloads: Vec<(String, WorkloadKey)> = match &spec_path {
        Some(path) => {
            if selection.is_some() {
                return Err("give a benchmark selection or --spec, not both".into());
            }
            let spec = read_spec(path)?;
            let name = spec.name.clone();
            let workload = suite
                .register_spec(spec)
                .map_err(|e| format!("{path}: {e}"))?;
            eprintln!("spec {path} admitted as {workload}");
            vec![(name, workload)]
        }
        None => benchmarks
            .iter()
            .map(|&b| (b.name().to_string(), WorkloadKey::from(b)))
            .collect(),
    };
    // Validate here, at the CLI boundary: downstream aggregation
    // (`SystemBudget::mean_of`) treats an empty selection as a caller
    // error, so it must never get one.
    if workloads.is_empty() {
        return Err(format!("empty benchmark selection\n{USAGE}"));
    }

    let sim = Simulator::new(config.clone())?;
    let bundle = |run: RunResult| {
        Arc::new(RunBundle {
            run,
            model: PowerModel::new(&config.power_params()),
        })
    };
    let run = |workload: WorkloadKey| match suite.trace_store() {
        Some(_) => suite.run_key(RunKey {
            workload,
            cpu: config.cpu,
            disk,
        }),
        None => bundle(sim.run(&suite.spec_for(workload).expect("admitted workload"))),
    };

    let [(name, workload)] = &workloads[..] else {
        if user_trace || log_path.is_some() {
            return Err("--log/--record/--replay need a single benchmark".into());
        }
        let workers = jobs.min(workloads.len());
        eprintln!(
            "running {} benchmarks on {} (disk {}, scale {}x, {workers} worker(s))...",
            workloads.len(),
            config.cpu.label(),
            config.disk.policy.label(),
            config.time_scale
        );
        // Runs are seeded per-configuration and independent, so results
        // (printed in list order) are identical whatever `jobs` is.
        let bundles = parallel_map(&workloads, workers, |&(_, workload)| run(workload));
        let mut budgets = Vec::with_capacity(bundles.len());
        for ((name, _), bundle) in workloads.iter().zip(&bundles) {
            budgets.push(system_budget(&bundle.model, &bundle.run));
            print_run(name, bundle);
        }
        if let Some(mean) = SystemBudget::mean_of(&budgets) {
            println!(
                "mean over {} benchmarks: {:.3} W total, disk {:.1}%",
                budgets.len(),
                mean.total_w(),
                mean.disk_pct()
            );
        }
        return obs.finish();
    };

    eprintln!(
        "running {name} on {} (disk {}, scale {}x, seed {:#x})...",
        config.cpu.label(),
        config.disk.policy.label(),
        config.time_scale,
        config.seed
    );
    let spec = suite.spec_for(*workload).expect("admitted workload");
    let result = match (&record_path, &replay_path) {
        (Some(_), Some(_)) => return Err("--record and --replay are exclusive".into()),
        (Some(path), None) => {
            let out = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            let source = Workload::new((*spec).clone(), config.clocking(), config.seed);
            let recording = softwatt_isa::Recording::new(source, BufWriter::new(out))
                .map_err(|e| format!("cannot start trace {path}: {e}"))?;
            let status = recording.status();
            let run = sim.run_source(&spec, Box::new(recording));
            if let Some(e) = status.error() {
                return Err(format!("cannot write trace {path}: {e}"));
            }
            eprintln!("recorded user trace to {path}");
            bundle(run)
        }
        (None, Some(path)) => {
            let input = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            let reader = softwatt_isa::TraceReader::new(BufReader::new(input))
                .map_err(|e| format!("cannot read trace {path}: {e}"))?;
            let status = reader.status();
            eprintln!("replaying user trace from {path}");
            let run = sim.run_source(&spec, Box::new(reader));
            if let Some(e) = status.error() {
                return Err(format!("corrupt trace {path}: {e}"));
            }
            bundle(run)
        }
        (None, None) => run(*workload),
    };
    print_run(name, &result);
    if let Some(path) = log_path {
        write_log_csv(&result.run, &path)?;
    }
    obs.finish()
}

/// Reads a `softwatt-spec-v1` workload file with the HTTP surface's codec.
fn read_spec(path: &str) -> Result<BenchmarkSpec, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = softwatt_serve::json::parse(&bytes).map_err(|e| format!("{path}: {e}"))?;
    softwatt_serve::json::spec_from_value(&value).map_err(|e| format!("{path}: {e}"))
}

fn write_log_csv(run: &RunResult, path: &str) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    run.log
        .to_csv(BufWriter::new(file))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote simulation log to {path} ({} samples)", run.log.len());
    Ok(())
}

fn print_run(name: &str, bundle: &RunBundle) {
    let run = &bundle.run;
    println!(
        "{name}: {} cycles, {:.2} paper-seconds, IPC {:.2}",
        run.cycles,
        run.duration_s,
        run.ipc()
    );
    for mode in Mode::ALL {
        println!(
            "  {:<8} {:>6.2}%",
            mode.label(),
            100.0 * run.mode_cycles(mode) as f64 / run.cycles.max(1) as f64
        );
    }
    println!("{}", system_budget(&bundle.model, run));
    println!(
        "disk: {} requests, {} spin-ups, {} spin-downs, {:.2} J",
        run.disk.requests, run.disk.spinups, run.disk.spindowns, run.disk.energy_j
    );
}

/// `f` over `items` on up to `jobs` threads, results in item order.
fn parallel_map<T: Sync, R: Send>(items: &[T], jobs: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("result slot") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("completed run")
        })
        .collect()
}

fn cmd_post(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| USAGE.to_string())?;
    let mut obs = ObsFlags::default();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        if !obs.try_parse(flag, || it.next().cloned())? {
            return Err(format!("unknown flag {flag}\n{USAGE}"));
        }
    }
    obs.activate();
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let log =
        SimLog::from_csv(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))?;

    // Post-processing needs only the structural power model; the machine
    // that produced the log used Table 1 defaults unless stated otherwise.
    let model = PowerModel::new(&SystemConfig::default().power_params());
    let table = model.mode_table(&log);
    println!(
        "{path}: {} samples, {} cycles ({:.2} paper-seconds)",
        log.len(),
        log.total_cycles(),
        log.clocking().cycles_to_paper_secs(log.total_cycles())
    );
    println!("\nper-mode breakdown:");
    for mode in Mode::ALL {
        println!(
            "  {:<8} cycles {:>6.2}%  energy {:>6.2}%  avg {:>6.2} W",
            mode.label(),
            100.0 * table.cycle_fraction(mode),
            100.0 * table.energy_fraction(mode),
            table.average_power_w(mode).total()
        );
    }
    println!("\nprocessor/memory average power:");
    println!("{}", table.overall_average_power_w());
    let profile = model.profile(&log);
    if let Some((peak_w, at_s)) = profile.peak_power_w() {
        println!("peak window power: {peak_w:.2} W at {at_s:.2} s");
    }
    println!(
        "energy-delay product: {:.3e} J.s",
        table.energy_delay_product()
    );
    obs.finish()
}

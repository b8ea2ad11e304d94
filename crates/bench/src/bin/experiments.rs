//! Regenerates every table and figure of the SoftWatt paper and prints
//! measured values next to the paper's (see `EXPERIMENTS.md`).
//!
//! Usage: `cargo run --release -p softwatt-bench --bin experiments
//! [time_scale] [--jobs N|auto] [--trace-cache DIR]
//! [--metrics] [--metrics-out FILE] [--log-level LEVEL]` — the optional
//! time-scale factor (default 2000) trades fidelity for speed; `--jobs N`
//! prewarms the whole run grid on N worker threads before the (serial,
//! deterministic) printing pass, so stdout is byte-identical whatever N
//! is. `--trace-cache DIR` (or the `SOFTWATT_TRACE_CACHE` environment
//! variable) attaches the persistent trace store: captured traces persist
//! across processes, and a warm run derives every bundle by replay — same
//! stdout, no full simulations. The observability flags and the
//! trace-cache tally go to stderr/file only, never stdout.

use softwatt::experiments::{DiskSetup, ExperimentSuite};
use softwatt::report::paper;
use softwatt::{Mode, SystemConfig, UnitGroup};
use softwatt_bench::ObsFlags;
use softwatt_obs::obs_event;

fn main() {
    let mut time_scale = 2000.0f64;
    let mut jobs = 1usize;
    let mut trace_cache = None;
    let mut obs = ObsFlags::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                match softwatt_bench::parse_count_or_auto("--jobs", args.next(), "thread count") {
                    Ok(n) => jobs = n,
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
            "--trace-cache" => match args.next() {
                Some(dir) => trace_cache = Some(dir),
                None => {
                    eprintln!("--trace-cache needs a directory");
                    std::process::exit(2);
                }
            },
            other => match obs.try_parse(other, || args.next()) {
                Ok(true) => {}
                Ok(false) => match other.parse() {
                    Ok(v) => time_scale = v,
                    Err(_) => {
                        eprintln!("unknown argument: {other}");
                        eprintln!(
                            "usage: experiments [time_scale] [--jobs N|auto] [--trace-cache DIR] {}",
                            ObsFlags::USAGE
                        );
                        std::process::exit(2);
                    }
                },
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            },
        }
    }
    obs.activate();
    let store = softwatt_bench::open_trace_store(trace_cache).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let config = SystemConfig {
        time_scale,
        ..SystemConfig::default()
    };
    println!("SoftWatt experiment harness (time scale {time_scale}x)\n");
    let mut suite = ExperimentSuite::new(config).expect("valid config");
    let caching = store.is_some();
    if let Some(store) = store {
        suite = suite.with_trace_store(store);
    }
    if jobs > 1 {
        // Fill the memo in parallel; every table below is then a lookup.
        let phase = softwatt_obs::span("phase.prewarm_ns");
        suite.run_all(jobs);
        if let Some(ns) = phase.finish() {
            obs_event!(
                softwatt_obs::Level::Info,
                "experiments",
                "prewarm on {jobs} threads took {:.1} ms",
                ns as f64 / 1e6
            );
        }
    }

    let phase = softwatt_obs::span("phase.figures_ns");
    heading("V1  §2 validation: maximum CPU power");
    println!("{}\n", suite.validation());

    heading("F2  Figure 2: disk operating-mode power values (MK3003MAN)");
    for (mode, watts) in suite.disk_modes() {
        println!("  {:<10} {watts:5.2} W", mode.label());
    }
    println!();

    heading("F3  Figure 3: jess memory-system profiles");
    let mem_profiles = suite.fig3_jess_memory();
    println!(
        "mipsy: avg memory-subsystem power {:.2} W vs avg datapath power {:.2} W",
        mem_profiles.mipsy.avg_memory_w(),
        mem_profiles.mipsy.avg_processor_w()
    );
    println!(
        "  (paper: single-issue memory power is more than twice datapath power; ratio = {:.2}x)",
        mem_profiles.mipsy.avg_memory_w() / mem_profiles.mipsy.avg_processor_w().max(1e-9)
    );
    print_profile_sparkline("mipsy idle share over time     ", &mem_profiles.mipsy, 3);
    print_profile_sparkline(
        "1-wide MXS idle share over time",
        &mem_profiles.single_issue,
        3,
    );
    println!();

    heading("F4  Figure 4: jess processor profile (4-wide MXS)");
    let proc_profile = suite.fig4_jess_processor();
    print_profile_sparkline("idle share over time           ", &proc_profile, 3);
    print_profile_sparkline("user share over time           ", &proc_profile, 0);
    println!(
        "avg processor (datapath) power {:.2} W\n",
        proc_profile.avg_processor_w()
    );

    heading("F5  Figure 5: overall budget with the conventional disk");
    let fig5 = suite.fig5_budget_conventional();
    println!("{fig5}");
    println!(
        "  paper: disk {:.0}%  (measured {:.1}%)",
        paper::FIG5_DISK_PCT,
        fig5.disk_pct()
    );
    for (label, p) in paper::FIG5_SHARES_PCT {
        let g = UnitGroup::ALL
            .iter()
            .find(|g| g.label() == label)
            .expect("known label");
        println!(
            "  paper: {label} {p:.0}%  (measured {:.1}%)",
            fig5.group_pct(*g)
        );
    }
    println!();

    heading("F6  Figure 6: average power per software mode");
    let fig6 = suite.fig6_mode_power();
    println!("{fig6}");
    println!(
        "  paper shape: user highest; measured user {:.2} W > kernel {:.2} W, idle {:.2} W\n",
        fig6.total_w(Mode::User),
        fig6.total_w(Mode::KernelInstr),
        fig6.total_w(Mode::Idle)
    );

    heading("F7  Figure 7: budget with the IDLE-capable disk");
    let fig7 = suite.fig7_budget_lowpower();
    println!("{fig7}");
    println!(
        "  paper: disk drops 34% -> 23%; measured {:.1}% -> {:.1}%\n",
        fig5.disk_pct(),
        fig7.disk_pct()
    );

    heading("F8  Figure 8: average power of key kernel services");
    let fig8 = suite.fig8_service_power();
    for row in &fig8 {
        println!("  {row}");
    }
    if let (Some(utlb), Some(read)) = (
        fig8.iter().find(|r| r.service.name() == "utlb"),
        fig8.iter().find(|r| r.service.name() == "read"),
    ) {
        println!(
            "  paper shape: utlb has much lower power than read; measured {:.2} W vs {:.2} W\n",
            utlb.power_w.total(),
            read.power_w.total()
        );
    }

    heading("F9  Figure 9: disk energy + idle cycles across configurations");
    for row in suite.fig9_disk_study() {
        print!("{row}");
        let idle_only = row.cell(DiskSetup::IdleOnly).disk_energy_j;
        let baseline = row.cell(DiskSetup::Conventional).disk_energy_j;
        println!(
            "  -> IDLE mode saves {:.0}% of baseline disk energy",
            100.0 * (1.0 - idle_only / baseline)
        );
    }
    println!("  paper shapes: IDLE mode always wins vs baseline; 2s threshold hurts");
    println!("  compress/javac/mtrt/jack; 4s behaves like config 2 for compress/javac;");
    println!("  mtrt consumes MORE energy at 4s than at 2s; jess/db unaffected.\n");

    phase.finish();
    let phase = softwatt_obs::span("phase.tables_ns");
    heading("T2  Table 2: % cycles vs % energy per mode");
    for row in suite.table2_mode_breakdown() {
        println!("  {row}");
    }
    println!("  paper rows (user/kernel/sync/idle):");
    for (name, c, e) in paper::TABLE2 {
        println!(
            "  {name:<9} cycles {:5.1}% {:5.1}% {:5.1}% {:5.1}%  energy {:5.1}% {:5.1}% {:5.1}% {:5.1}%",
            c[0], c[1], c[2], c[3], e[0], e[1], e[2], e[3]
        );
    }
    println!();

    heading("T3  Table 3: cache references per cycle");
    for row in suite.table3_cache_refs() {
        println!("  {row}");
    }
    println!("  paper rows:");
    for (name, il1, dl1) in paper::TABLE3 {
        println!(
            "  {name:<9} iL1 {:5.2} {:5.2} {:5.2} {:5.2}  dL1 {:5.2} {:5.2} {:5.2} {:5.2}",
            il1[0], il1[1], il1[2], il1[3], dl1[0], dl1[1], dl1[2], dl1[3]
        );
    }
    println!();

    heading("T4  Table 4: kernel-service breakdown (per benchmark)");
    for row in suite.table4_kernel_services() {
        print!("{row}");
    }
    println!("  paper: utlb dominates kernel cycles in every benchmark, and its");
    println!("  energy share is consistently LOWER than its cycle share:");
    for (name, cyc, en) in paper::TABLE4_UTLB {
        println!("    {name:<9} utlb cycles {cyc:5.1}%  energy {en:5.1}%");
    }
    println!();

    heading("T5  Table 5: per-invocation energy variation (pooled)");
    for row in suite.table5_service_variation() {
        println!("  {row}");
    }
    println!("  paper (mean J, CoD%):");
    for (name, mean, cod) in paper::TABLE5 {
        println!("    {name:<12} mean {mean:9.3e} J  CoD {cod:6.2}%");
    }
    println!("  paper shape: internal services (utlb/demand_zero/cacheflush) vary");
    println!("  far less than externally-invoked I/O calls (read/write/open).");
    println!();

    phase.finish();
    let phase = softwatt_obs::span("phase.extensions_ns");
    print_extensions(&suite);
    phase.finish();

    if caching {
        // The warm-run contract (`tests/trace_store.rs`, CI) is "0 full
        // simulations": every trace comes from the store, every bundle
        // from replay. Stdout stays byte-identical either way.
        eprintln!(
            "trace cache: {} full simulations, {} traces loaded from store, {} replays",
            suite.runs_executed(),
            suite.store_loads(),
            suite.replays_derived()
        );
    }

    if let Err(e) = obs.finish() {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

fn print_extensions(suite: &ExperimentSuite) {
    heading("X1  extension: kernel share, single-issue vs 4-wide (paper §3.2)");
    let rows = suite.ext_kernel_share_by_width();
    for row in &rows {
        println!("  {row}");
    }
    let mean = |f: fn(&softwatt::experiments::KernelShareRow) -> f64| {
        rows.iter().map(f).sum::<f64>() / rows.len() as f64
    };
    println!(
        "  mean {:.1}% -> {:.1}%  (paper: 14.28% -> 21.02%)\n",
        mean(|r| r.single_issue_pct),
        mean(|r| r.superscalar_pct)
    );

    heading("X2  extension: count-based kernel-energy estimation (paper §3.3)");
    for row in suite.ext_kernel_energy_estimate() {
        println!("  {row}");
    }
    println!("  (paper: estimation from invocation counts is accurate to ~10%)\n");

    heading("X3  extension: whole-run power metrics (average, peak, EDP)");
    for row in suite.ext_power_metrics() {
        println!("  {row}");
    }
    println!();

    heading("X4  extension: the unused SLEEP state, exercised");
    for row in suite.ext_sleep_study() {
        println!("  {row}");
    }
    println!("  (the paper leaves SLEEP unused; the studied workloads never");
    println!("   quiesce past the SLEEP latency, so it changes nothing here —");
    println!("   the crossover sweep below shows where it WOULD pay)");
    println!();

    heading("X5  extension: policy crossover vs inter-request gap (paper §4 rule)");
    for row in suite.ext_policy_crossover() {
        println!("  {row}");
    }
    println!("  (the spin-down threshold pays once the gap far exceeds the 10s");
    println!("   spin-down+spin-up round trip; SLEEP wins on very long gaps)");
    println!();

    heading("X6  extension: conditional-clocking styles (Wattch CC1/CC2/CC3)");
    for row in suite.ext_gating_study() {
        println!("  {row}");
    }
    println!("  (the paper's simple conditional clocking is the gated style)");
    println!();

    heading("X7  extension: L1 I-cache design sweep (jess)");
    for row in suite.ext_l1i_sweep() {
        println!("  {row}");
    }
    println!("  (bigger arrays cost more per access; smaller ones refill more —");
    println!("   the budget shifts between L1I and L2I exactly as the analytical");
    println!("   models predict)");
    println!();

    heading("X8  extension: first-order technology projection (jess run)");
    for row in suite.ext_technology_projection() {
        println!("  {row}");
    }
    println!("  (constant-field scaling: smaller C and V^2 beat the higher clock)");
}

fn heading(text: &str) {
    println!("==== {text} ====");
}

fn print_profile_sparkline(
    label: &str,
    series: &softwatt::experiments::ProfileSeries,
    mode_index: usize,
) {
    const GLYPHS: [char; 8] = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let buckets = 60usize.min(series.rows.len().max(1));
    let chunk = (series.rows.len() / buckets).max(1);
    let mut line = String::new();
    for c in series.rows.chunks(chunk).take(buckets) {
        let mean = c.iter().map(|r| r.mode_pct[mode_index]).sum::<f64>() / c.len() as f64;
        let idx = ((mean / 100.0) * (GLYPHS.len() - 1) as f64).round() as usize;
        line.push(GLYPHS[idx.min(GLYPHS.len() - 1)]);
    }
    println!("{label} |{line}|");
}

//! Emit a time-resolved execution/power profile as CSV — the data behind
//! the paper's Figures 3 and 4 (plot with any CSV tool).
//!
//! ```sh
//! cargo run --release --example power_profile [benchmark] > profile.csv
//! ```
//!
//! Columns: window end time (paper-seconds); percent of the window in
//! user/kernel/sync/idle mode; stacked memory-subsystem power per mode;
//! stacked processor (datapath) power per mode.

use softwatt::experiments::{DiskSetup, ExperimentSuite};
use softwatt::{Benchmark, CpuModel, SystemConfig};

fn main() -> Result<(), String> {
    let benchmark = std::env::args()
        .nth(1)
        .and_then(|s| Benchmark::from_name(&s))
        .unwrap_or(Benchmark::Jess);

    let suite = ExperimentSuite::new(SystemConfig {
        time_scale: 4000.0,
        ..SystemConfig::default()
    })?;
    let bundle = suite.run(benchmark, CpuModel::Mxs, DiskSetup::Conventional);
    let profile = bundle.model.profile(&bundle.run.log);

    println!(
        "t_s,user_pct,kernel_pct,sync_pct,idle_pct,\
         mem_w_user,mem_w_kernel,mem_w_sync,mem_w_idle,\
         proc_w_user,proc_w_kernel,proc_w_sync,proc_w_idle"
    );
    for p in profile.points() {
        let share = |i: usize| 100.0 * p.mode_cycles[i] as f64 / p.cycles.max(1) as f64;
        let mem = |i: usize| {
            p.mode_power_w[i].memory_subsystem() * p.mode_cycles[i] as f64 / p.cycles.max(1) as f64
        };
        let proc = |i: usize| {
            p.mode_power_w[i].get(softwatt::UnitGroup::Datapath) * p.mode_cycles[i] as f64
                / p.cycles.max(1) as f64
        };
        println!(
            "{:.4},{:.2},{:.2},{:.2},{:.2},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            p.t_end_s,
            share(0),
            share(1),
            share(2),
            share(3),
            mem(0),
            mem(1),
            mem(2),
            mem(3),
            proc(0),
            proc(1),
            proc(2),
            proc(3),
        );
    }
    eprintln!(
        "{} profile: {} windows, run average {:.2} W",
        benchmark,
        profile.len(),
        profile.average_power_w()
    );
    Ok(())
}

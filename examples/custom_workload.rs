//! Build a workload of your own: define a `BenchmarkSpec` from scratch,
//! run it on the full system, and compare two machine configurations on
//! the *identical* instruction stream via trace record/replay.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};

use softwatt::budget::system_budget;
use softwatt::{CpuModel, Mode, PowerModel, Simulator, SystemConfig};
use softwatt_isa::{Recording, TraceReader};
use softwatt_workloads::{BenchmarkSpec, IoBurst, PhaseSpec, SyscallRates, Workload};

/// A transaction-processing-flavoured synthetic application: short
/// pointer-chasing transactions over a working set past the TLB reach,
/// frequent small reads against a warm file set, and a nightly-batch I/O
/// burst.
fn my_spec() -> BenchmarkSpec {
    let steady = PhaseSpec {
        name: "transactions".to_string(),
        frac: 0.9,
        load: 0.31,
        store: 0.09,
        branch: 0.18,
        fp: 0.0,
        mul: 0.005,
        dep_prob: 0.38,
        branch_stability: 0.95,
        hot_bytes: 16 * 1024,
        span_bytes: 512 * 1024,
        hot_frac: 0.975,
        loop_len: 48,
        n_loops: 8,
        stay_per_loop: 1024,
        syscalls: SyscallRates {
            read: 0.02,
            write: 0.004,
            io_bytes_mean: 1024,
            ..SyscallRates::default()
        },
        fresh_per_kinstr: 0.03,
    };
    let startup = PhaseSpec {
        name: "warmup".to_string(),
        frac: 0.1,
        syscalls: SyscallRates::default(),
        ..steady.clone()
    };
    BenchmarkSpec {
        name: "txnbench".to_string(),
        duration_s: 5.0,
        assumed_ipc: 1.2,
        class_files: 12,
        class_file_bytes: 2048,
        startup_compute_frac: 0.06,
        cacheflush_per_kinstr: 0.001,
        phases: vec![startup, steady],
        io_bursts: vec![IoBurst {
            at_s: 3.5,
            files: 3,
            bytes_per_file: 8192,
        }],
    }
}

fn main() -> Result<(), String> {
    let mut config = SystemConfig {
        time_scale: 8000.0,
        ..SystemConfig::default()
    };
    let clocking = config.clocking();

    // Instantiate the custom workload and record its user stream while
    // running it on the 4-wide machine. The spec also supplies the OS
    // side of the run (warm files, premapped regions, cacheflush rate).
    let spec = my_spec();
    let workload = Workload::new(spec.clone(), clocking, config.seed);

    let trace_path = std::env::temp_dir().join("softwatt_txnbench.trace");
    let sim = Simulator::new(config.clone())?;
    let out = File::create(&trace_path).map_err(|e| e.to_string())?;
    let recording = Recording::new(workload, BufWriter::new(out)).map_err(|e| e.to_string())?;
    let wide = sim.run_source(&spec, Box::new(recording));
    println!(
        "txnbench on 4-wide MXS: {} cycles, IPC {:.2}, idle {:.1}%",
        wide.cycles,
        wide.ipc(),
        100.0 * wide.mode_cycles(Mode::Idle) as f64 / wide.cycles as f64
    );
    let model = PowerModel::new(&config.power_params());
    println!("{}\n", system_budget(&model, &wide));

    // Replay the *identical* stream on the single-issue machine.
    config.cpu = CpuModel::MxsSingleIssue;
    let narrow_sim = Simulator::new(config.clone())?;
    let input = File::open(&trace_path).map_err(|e| e.to_string())?;
    let reader = TraceReader::new(BufReader::new(input)).map_err(|e| e.to_string())?;
    let narrow = narrow_sim.run_source(&spec, Box::new(reader));
    println!(
        "same trace on single-issue: {} cycles, IPC {:.2} ({:.2}x slower)",
        narrow.cycles,
        narrow.ipc(),
        narrow.cycles as f64 / wide.cycles as f64
    );
    let narrow_model = PowerModel::new(&config.power_params());
    println!("{}", system_budget(&narrow_model, &narrow));
    Ok(())
}

//! Cross-crate integration tests: the assembled machine behaves like a
//! complete system (CPU + memory + TLB + OS + disk + power pipeline).

use softwatt::budget::system_budget;
use softwatt::{Benchmark, CpuModel, Mode, PowerModel, Simulator, SystemConfig};
use softwatt_os::KernelService;

fn config(scale: f64) -> SystemConfig {
    SystemConfig {
        time_scale: scale,
        ..SystemConfig::default()
    }
}

#[test]
fn every_benchmark_completes_on_every_cpu_model() {
    for benchmark in Benchmark::ALL {
        for cpu in [CpuModel::Mxs, CpuModel::Mipsy] {
            let sim = Simulator::new(SystemConfig {
                cpu,
                ..config(60_000.0)
            })
            .unwrap();
            let run = sim.run_benchmark(benchmark);
            assert!(run.cycles > 1_000, "{benchmark}/{}", cpu.label());
            assert!(run.committed > 1_000, "{benchmark}/{}", cpu.label());
        }
    }
}

#[test]
fn all_four_modes_occur_and_partition_cycles() {
    let run = Simulator::new(config(20_000.0))
        .unwrap()
        .run_benchmark(Benchmark::Jess);
    let mut sum = 0;
    for mode in Mode::ALL {
        let cycles = run.mode_cycles(mode);
        assert!(cycles > 0, "mode {mode} never occurred");
        sum += cycles;
    }
    assert_eq!(sum, run.cycles, "mode cycles must partition the run");
}

#[test]
fn power_pipeline_produces_plausible_watts() {
    let cfg = config(20_000.0);
    let run = Simulator::new(cfg.clone())
        .unwrap()
        .run_benchmark(Benchmark::Db);
    let model = PowerModel::new(&cfg.power_params());
    let budget = system_budget(&model, &run);
    // A mid-90s system: single-digit-to-low-double-digit watts.
    assert!(
        budget.total_w() > 3.0 && budget.total_w() < 20.0,
        "implausible system power {}",
        budget.total_w()
    );
    // The run's profile and mode table agree on total energy.
    let profile = model.profile(&run.log);
    let table = model.mode_table(&run.log);
    let profile_energy: f64 = profile
        .points()
        .map(|p| p.window_power_w.total() * p.cycles as f64 / cfg.freq_hz)
        .sum();
    let rel = (profile_energy - table.total_energy_j()).abs() / table.total_energy_j();
    assert!(rel < 0.02, "profile vs table energy disagree by {rel}");
}

#[test]
fn kernel_services_are_exercised_end_to_end() {
    let run = Simulator::new(config(20_000.0))
        .unwrap()
        .run_benchmark(Benchmark::Jack);
    let aggs = run.services.aggregates();
    for svc in [
        KernelService::Utlb,
        KernelService::Read,
        KernelService::Open,
        KernelService::DemandZero,
    ] {
        let agg = aggs
            .get(&svc.id())
            .unwrap_or_else(|| panic!("{svc} never ran"));
        assert!(agg.invocations > 0, "{svc}");
        assert!(agg.cycles > 0, "{svc}");
        assert!(agg.energy_sum_j > 0.0, "{svc}");
    }
}

#[test]
fn disk_energy_accounts_for_the_whole_run() {
    let run = Simulator::new(config(20_000.0))
        .unwrap()
        .run_benchmark(Benchmark::Jess);
    let total_secs: f64 = run.disk.mode_secs.iter().sum();
    assert!(
        (total_secs - run.duration_s).abs() < 0.01 * run.duration_s,
        "disk mode time {total_secs} vs run {}",
        run.duration_s
    );
    assert!(run.disk.requests >= u64::from(Benchmark::Jess.spec().class_files));
}

#[test]
fn tlb_pressure_reaches_the_software_handler() {
    let run = Simulator::new(config(20_000.0))
        .unwrap()
        .run_benchmark(Benchmark::Javac);
    let utlb = &run.services.aggregates()[&KernelService::Utlb.id()];
    assert!(
        utlb.invocations > 100,
        "utlb must dominate kernel activity, got {}",
        utlb.invocations
    );
}

#[test]
fn mipsy_and_mxs_see_the_same_workload() {
    // Same seed, different CPU: the user instruction budget must match.
    let mxs = Simulator::new(config(40_000.0))
        .unwrap()
        .run_benchmark(Benchmark::Db);
    let mipsy = Simulator::new(SystemConfig {
        cpu: CpuModel::Mipsy,
        ..config(40_000.0)
    })
    .unwrap()
    .run_benchmark(Benchmark::Db);
    // Timing differs, but the committed work is the same program.
    let rel = (mxs.user_instrs as f64 - mipsy.user_instrs as f64).abs() / mxs.user_instrs as f64;
    assert!(rel < 0.02, "user instruction streams diverge by {rel}");
    assert!(mipsy.cycles > mxs.cycles, "the superscalar must be faster");
}

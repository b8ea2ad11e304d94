//! Determinism and property-based invariants of the full system.

use std::sync::Arc;

use proptest::prelude::*;

use softwatt::experiments::{DiskSetup, ExperimentSuite, RunKey};
use softwatt::{Benchmark, CpuModel, Mode, PowerModel, Simulator, SystemConfig};

fn config(scale: f64, seed: u64) -> SystemConfig {
    SystemConfig {
        time_scale: scale,
        seed,
        ..SystemConfig::default()
    }
}

#[test]
fn identical_configs_give_identical_runs() {
    for benchmark in [Benchmark::Jess, Benchmark::Compress] {
        let a = Simulator::new(config(40_000.0, 7))
            .unwrap()
            .run_benchmark(benchmark);
        let b = Simulator::new(config(40_000.0, 7))
            .unwrap()
            .run_benchmark(benchmark);
        assert_eq!(a.cycles, b.cycles, "{benchmark}");
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.log.total_events(), b.log.total_events());
        assert_eq!(a.log.windows().count(), b.log.windows().count());
        assert!((a.disk.energy_j - b.disk.energy_j).abs() < 1e-12);
    }
}

#[test]
fn different_seeds_give_different_runs() {
    let a = Simulator::new(config(40_000.0, 1))
        .unwrap()
        .run_benchmark(Benchmark::Db);
    let b = Simulator::new(config(40_000.0, 2))
        .unwrap()
        .run_benchmark(Benchmark::Db);
    assert_ne!(
        a.log.total_events(),
        b.log.total_events(),
        "seeds must actually perturb the run"
    );
}

#[test]
fn parallel_prewarm_is_bit_identical_to_serial() {
    let keys = [
        RunKey::canned(Benchmark::Jess, CpuModel::Mxs, DiskSetup::Conventional),
        RunKey::canned(Benchmark::Jess, CpuModel::Mxs, DiskSetup::Standby2s),
        RunKey::canned(Benchmark::Compress, CpuModel::Mxs, DiskSetup::IdleOnly),
        RunKey::canned(Benchmark::Db, CpuModel::Mipsy, DiskSetup::Standby2s),
        RunKey::canned(
            Benchmark::Jess,
            CpuModel::MxsSingleIssue,
            DiskSetup::Conventional,
        ),
    ];
    // 5 keys, but only 4 distinct (benchmark, cpu) pairs: full simulations
    // are shared across disk policies; the fifth bundle comes from replay.
    let distinct_pairs = 4;
    let serial = ExperimentSuite::new(config(40_000.0, 7)).unwrap();
    serial.prewarm(&keys, 1);
    let parallel = ExperimentSuite::new(config(40_000.0, 7)).unwrap();
    parallel.prewarm(&keys, 3);
    assert_eq!(serial.runs_executed(), distinct_pairs);
    assert_eq!(parallel.runs_executed(), distinct_pairs);
    assert_eq!(serial.replays_derived(), keys.len());
    assert_eq!(parallel.replays_derived(), keys.len());
    for key in keys {
        let a = serial.run_key(key);
        let b = parallel.run_key(key);
        assert_eq!(a.run.cycles, b.run.cycles, "{key:?}");
        assert_eq!(a.run.committed, b.run.committed, "{key:?}");
        assert_eq!(
            a.run.log, b.run.log,
            "{key:?} logs must match sample-for-sample"
        );
        assert_eq!(
            a.run.disk.energy_j.to_bits(),
            b.run.disk.energy_j.to_bits(),
            "{key:?} disk energy must be bit-identical"
        );
    }
}

/// `jobs == 1` must take the strictly serial path (no thread scope at
/// all): every bundle is produced on the calling thread, the two-level
/// memo still collapses same-pair keys onto one full simulation, and the
/// results equal a full-simulation suite's bit for bit.
#[test]
fn serial_prewarm_shares_one_full_sim_across_policies() {
    let keys = [
        RunKey::canned(Benchmark::Jess, CpuModel::Mxs, DiskSetup::Conventional),
        RunKey::canned(Benchmark::Jess, CpuModel::Mxs, DiskSetup::IdleOnly),
        RunKey::canned(Benchmark::Jess, CpuModel::Mxs, DiskSetup::Standby2s),
        RunKey::canned(Benchmark::Jess, CpuModel::Mxs, DiskSetup::Standby4s),
    ];
    let suite = ExperimentSuite::new(config(40_000.0, 7)).unwrap();
    suite.prewarm(&keys, 1);
    assert_eq!(
        suite.runs_executed(),
        1,
        "four policies of one pair cost one full sim"
    );
    assert_eq!(suite.replays_derived(), keys.len());

    let full = ExperimentSuite::with_full_simulation(config(40_000.0, 7)).unwrap();
    full.prewarm(&keys, 1);
    assert_eq!(full.runs_executed(), keys.len());
    assert_eq!(full.replays_derived(), 0);
    for key in keys {
        let replayed = suite.run_key(key);
        let direct = full.run_key(key);
        assert_eq!(replayed.run.cycles, direct.run.cycles, "{key:?}");
        assert_eq!(replayed.run.log, direct.run.log, "{key:?}");
        assert_eq!(
            replayed.run.disk.energy_j.to_bits(),
            direct.run.disk.energy_j.to_bits(),
            "{key:?}"
        );
    }
}

#[test]
fn concurrent_requests_for_one_key_share_a_single_run() {
    let suite = ExperimentSuite::new(config(40_000.0, 7)).unwrap();
    let key = RunKey::canned(Benchmark::Jess, CpuModel::Mxs, DiskSetup::Conventional);
    let bundles: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| suite.run_key(key))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    assert_eq!(
        suite.runs_executed(),
        1,
        "racing threads must not duplicate the run"
    );
    for other in &bundles[1..] {
        assert!(
            Arc::ptr_eq(&bundles[0], other),
            "all threads share one bundle"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cycle accounting is conserved for any seed: per-mode cycles
    /// partition the run, and the sampled log covers every cycle.
    #[test]
    fn cycles_are_conserved(seed in 0u64..1_000) {
        let run = Simulator::new(config(80_000.0, seed))
            .unwrap()
            .run_benchmark(Benchmark::Jess);
        let mode_sum: u64 = Mode::ALL.iter().map(|&m| run.mode_cycles(m)).sum();
        prop_assert_eq!(mode_sum, run.cycles);
        prop_assert_eq!(run.log.total_cycles(), run.cycles);
    }

    /// Energy is non-negative and monotone in coverage for any seed:
    /// the whole-run energy equals the sum over modes.
    #[test]
    fn energy_decomposes_over_modes(seed in 0u64..1_000) {
        let cfg = config(80_000.0, seed);
        let run = Simulator::new(cfg.clone()).unwrap().run_benchmark(Benchmark::Db);
        let model = PowerModel::new(&cfg.power_params());
        let table = model.mode_table(&run.log);
        let per_mode: f64 = Mode::ALL
            .iter()
            .map(|&m| table.mode_energy_j[m.index()].total())
            .sum();
        prop_assert!((per_mode - table.total_energy_j()).abs() < 1e-9);
        prop_assert!(per_mode > 0.0);
        let fractions: f64 = Mode::ALL.iter().map(|&m| table.energy_fraction(m)).sum();
        prop_assert!((fractions - 1.0).abs() < 1e-9);
    }

    /// The disk's mode-residency always covers the whole run and its
    /// energy is consistent with the per-mode power table, for any seed.
    #[test]
    fn disk_accounting_is_consistent(seed in 0u64..1_000) {
        let run = Simulator::new(config(80_000.0, seed))
            .unwrap()
            .run_benchmark(Benchmark::Jess);
        let residency: f64 = run.disk.mode_secs.iter().sum();
        prop_assert!((residency - run.duration_s).abs() < 0.02 * run.duration_s);
        prop_assert!(run.disk.energy_j > 0.0);
        // Conventional disk: ACTIVE/SEEK only => average power in [3.2, 4.2].
        let avg = run.disk.energy_j / run.duration_s;
        prop_assert!((3.19..=4.21).contains(&avg), "avg disk power {}", avg);
    }

    /// Kernel-service cycles never exceed kernel-mode cycles plus
    /// attribution boundary slack, for any seed.
    #[test]
    fn service_cycles_bounded_by_kernel_time(seed in 0u64..1_000) {
        let run = Simulator::new(config(80_000.0, seed))
            .unwrap()
            .run_benchmark(Benchmark::Javac);
        let service_cycles: u64 = softwatt_os::KernelService::ALL
            .iter()
            .filter_map(|s| run.services.aggregates().get(&s.id()))
            .map(|a| a.cycles)
            .sum();
        let kernel_cycles =
            run.mode_cycles(Mode::KernelInstr) + run.mode_cycles(Mode::KernelSync);
        // Frames open at event delivery and close at stream switch, so a
        // small slack of boundary cycles is expected.
        prop_assert!(
            service_cycles <= kernel_cycles + kernel_cycles / 4 + 1000,
            "services {} vs kernel modes {}",
            service_cycles,
            kernel_cycles
        );
    }
}

//! Property sweep over user-suppliable benchmark specs: the
//! `validate()` contract enforced by fire. Any spec the admission gate
//! accepts must drive a full simulation to completion without panicking,
//! satisfy the core accounting invariants (mode residency sums to total
//! cycles, finite positive power and energy), and replay bit-for-bit —
//! the same guarantees the six canned benchmarks get, extended to the
//! whole space of random strangers the HTTP surface now admits.

use proptest::collection::vec as pvec;
use proptest::prelude::*;

use softwatt::budget::system_budget;
use softwatt::experiments::{DiskSetup, ExperimentSuite, RunKey};
use softwatt::{
    BenchmarkSpec, CpuModel, IdleHandling, IoBurst, Mode, PhaseSpec, Simulator, SyscallRates,
    SystemConfig,
};
use softwatt_power::PowerModel;

/// Big time-scale factor = short, fast simulated runs; the invariants
/// under test are scale-independent.
const FAST_SCALE: f64 = 500_000.0;

fn fast_config() -> SystemConfig {
    SystemConfig {
        time_scale: FAST_SCALE,
        idle: IdleHandling::Analytic,
        ..SystemConfig::default()
    }
}

fn syscall_rates() -> impl Strategy<Value = SyscallRates> {
    (
        0.0f64..0.5,
        0.0f64..0.2,
        0.0f64..0.1,
        0.0f64..0.1,
        0.0f64..0.1,
        0.0f64..0.1,
        0u32..8192,
    )
        .prop_map(
            |(read, write, open, xstat, du_poll, bsd, io_bytes_mean)| SyscallRates {
                read,
                write,
                open,
                xstat,
                du_poll,
                bsd,
                io_bytes_mean,
            },
        )
}

/// One phase with every field drawn from well inside its validated
/// range (`frac` is a placeholder the spec strategy overwrites).
fn phases() -> impl Strategy<Value = PhaseSpec> {
    (
        (
            0.0f64..0.3,
            0.0f64..0.1,
            0.0f64..0.2,
            0.0f64..0.1,
            0.0f64..0.02,
        ),
        (0.0f64..0.6, 0.5f64..1.0, 0.7f64..1.0),
        (4096u64..1_048_576, 0.0f64..1.0),
        (16u32..128, 1u32..4, 256u32..2048),
        syscall_rates(),
        0.0f64..0.5,
    )
        .prop_map(|(mix, probs, working_set, loops, syscalls, fresh)| {
            let (load, store, branch, fp, mul) = mix;
            let (dep_prob, branch_stability, hot_frac) = probs;
            let (span_bytes, hot_split) = working_set;
            let (loop_len, n_loops, stay_per_loop) = loops;
            PhaseSpec {
                name: "prop-phase".to_string(),
                frac: 1.0,
                load,
                store,
                branch,
                fp,
                mul,
                dep_prob,
                branch_stability,
                // Derived as a fraction of the span, so hot <= span holds
                // by construction for every drawn pair.
                hot_bytes: (span_bytes as f64 * hot_split) as u64,
                span_bytes,
                hot_frac,
                loop_len,
                n_loops,
                stay_per_loop,
                syscalls,
                fresh_per_kinstr: fresh,
            }
        })
}

fn specs() -> impl Strategy<Value = BenchmarkSpec> {
    (
        (1.0f64..4.0, 0.5f64..2.0),
        (0u32..20, 0u32..16_384, 0.0f64..0.2, 0.0f64..0.05),
        phases(),
        phases(),
        (any::<bool>(), 0.2f64..0.8),
        pvec((0.05f64..1.9, 1u32..4, 1024u32..16_384), 0..3),
    )
        .prop_map(|(timing, prologue, mut a, mut b, split, mut bursts)| {
            let (duration_s, assumed_ipc) = timing;
            let (class_files, class_file_bytes, startup_compute_frac, cacheflush_per_kinstr) =
                prologue;
            let (two_phase, s) = split;
            let phases = if two_phase {
                a.frac = s;
                b.frac = 1.0 - s;
                vec![a, b]
            } else {
                a.frac = 1.0;
                vec![a]
            };
            // Burst times are drawn as fractions of [0, 2 * duration) and
            // sorted, satisfying the time-ordering invariant.
            bursts.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite times"));
            let io_bursts = bursts
                .into_iter()
                .map(|(at_frac, files, bytes_per_file)| IoBurst {
                    at_s: at_frac * duration_s,
                    files,
                    bytes_per_file,
                })
                .collect();
            BenchmarkSpec {
                name: "propspec".to_string(),
                duration_s,
                assumed_ipc,
                class_files,
                class_file_bytes,
                startup_compute_frac,
                cacheflush_per_kinstr,
                phases,
                io_bursts,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No random spec the gate admits may panic the simulator, and every
    /// completed run obeys the accounting identities the canned
    /// benchmarks are held to.
    #[test]
    fn accepted_specs_simulate_and_account_cleanly(spec in specs()) {
        prop_assert!(spec.validate().is_ok(), "strategy stays in-gate");
        let config = fast_config();
        let budget = spec
            .user_instr_budget(config.clocking())
            .expect("in-range budget at the fast clocking");
        prop_assert!(budget > 0);

        let sim = Simulator::new(config.clone()).expect("valid config");
        let run = sim.run(&spec);

        prop_assert!(run.cycles > 0, "a run takes time");
        prop_assert!(run.committed > 0, "a run commits instructions");
        let mode_sum: u64 = Mode::ALL.iter().map(|m| run.mode_cycles(*m)).sum();
        prop_assert_eq!(mode_sum, run.cycles, "mode residency partitions the run");
        prop_assert!(run.duration_s.is_finite() && run.duration_s > 0.0);
        prop_assert!(run.disk.energy_j.is_finite() && run.disk.energy_j >= 0.0);

        let model = PowerModel::new(&config.power_params());
        let budget_w = system_budget(&model, &run);
        prop_assert!(
            budget_w.total_w().is_finite() && budget_w.total_w() > 0.0,
            "a running machine burns finite watts"
        );
        let energy_j = model.mode_table(&run.log).total_energy_j();
        prop_assert!(energy_j.is_finite() && energy_j > 0.0);
    }

    /// The content hash is the spec's identity: hashing is stable across
    /// calls and clones, and perturbing any drawn spec moves it.
    #[test]
    fn content_hash_is_the_spec_identity(spec in specs()) {
        prop_assert_eq!(spec.content_hash(), spec.clone().content_hash());
        let mut perturbed = spec.clone();
        perturbed.duration_s += 1e-9;
        prop_assert_ne!(spec.content_hash(), perturbed.content_hash());
    }
}

proptest! {
    // Each case costs full simulations on both suites; a handful of
    // random specs is plenty on top of the canned-grid replay gate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Replay derivation treats a random user spec exactly like a canned
    /// benchmark: one captured trace serves every disk policy, and the
    /// derived bundles equal a full-simulation suite's bit for bit.
    #[test]
    fn random_specs_replay_bit_for_bit(spec in specs()) {
        let replay = ExperimentSuite::new(fast_config()).expect("valid config");
        let full = ExperimentSuite::with_full_simulation(fast_config()).expect("valid config");
        for disk in [DiskSetup::Conventional, DiskSetup::IdleOnly] {
            let key = |suite: &ExperimentSuite| RunKey {
                workload: suite.register_spec(spec.clone()).expect("gate-accepted spec"),
                cpu: CpuModel::Mxs,
                disk,
            };
            let a = replay.run_key(key(&replay));
            let b = full.run_key(key(&full));
            prop_assert_eq!(a.run.cycles, b.run.cycles);
            prop_assert_eq!(a.run.committed, b.run.committed);
            prop_assert_eq!(&a.run.log, &b.run.log, "sample-for-sample log equality");
            prop_assert_eq!(
                a.run.disk.energy_j.to_bits(),
                b.run.disk.energy_j.to_bits(),
                "bit-identical disk energy"
            );
            prop_assert_eq!(a.run.duration_s.to_bits(), b.run.duration_s.to_bits());
        }
        prop_assert_eq!(
            replay.runs_executed(),
            1,
            "one capture serves both disk policies"
        );
    }
}

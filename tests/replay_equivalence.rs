//! Replay-equivalence tests: the log-once / replay-many engine must
//! reproduce a direct simulation EXACTLY — same sampled log, same mode
//! cycles, same counters, same disk report, same service profile, and the
//! same power post-processing, with no tolerance. `EXPERIMENTS.md` cites
//! these tests as the evidence that F7/F9/F10 artifacts derived by replay
//! equal fully-simulated ones.

use std::io::BufReader;

use proptest::prelude::*;

use softwatt::experiments::ExperimentSuite;
use softwatt::{
    Benchmark, DiskConfig, DiskPolicy, IdleHandling, Mode, PowerModel, PowerParams, RunResult,
    SimLog, Simulator, SystemConfig, UnitGroup,
};
use softwatt_power::ClockGating;

const POLICIES: [DiskPolicy; 4] = [
    DiskPolicy::Conventional,
    DiskPolicy::IdleWhenNotBusy,
    DiskPolicy::Standby { threshold_s: 2.0 },
    DiskPolicy::Standby { threshold_s: 4.0 },
];

fn analytic_config(scale: f64, seed: u64, policy: DiskPolicy) -> SystemConfig {
    SystemConfig {
        time_scale: scale,
        seed,
        idle: IdleHandling::Analytic,
        disk: DiskConfig::new(policy),
        ..SystemConfig::default()
    }
}

/// Bit-for-bit equality of everything a run produces.
fn assert_exact(direct: &RunResult, replayed: &RunResult, label: &str) {
    assert_eq!(direct.cycles, replayed.cycles, "{label}: cycles");
    assert_eq!(direct.committed, replayed.committed, "{label}: committed");
    assert_eq!(
        direct.user_instrs, replayed.user_instrs,
        "{label}: user instrs"
    );
    assert_eq!(
        direct.log, replayed.log,
        "{label}: sampled log must match sample-for-sample"
    );
    assert_eq!(direct.disk, replayed.disk, "{label}: disk report");
    assert_eq!(
        direct.disk.energy_j.to_bits(),
        replayed.disk.energy_j.to_bits(),
        "{label}: disk energy must be bit-identical"
    );
    assert_eq!(
        direct.services.aggregates(),
        replayed.services.aggregates(),
        "{label}: kernel-service profile"
    );
    assert_eq!(
        direct.duration_s.to_bits(),
        replayed.duration_s.to_bits(),
        "{label}: duration"
    );
}

/// Bit-for-bit equality of two post-processings: every mode × group of
/// the mode tables by bit pattern, and the profiles point for point.
fn assert_same_post(a: (&PowerModel, &SimLog), b: (&PowerModel, &SimLog), label: &str) {
    let (ta, tb) = (a.0.mode_table(a.1), b.0.mode_table(b.1));
    assert_eq!(ta.mode_cycles, tb.mode_cycles, "{label}: mode cycles");
    assert_eq!(ta.freq_hz.to_bits(), tb.freq_hz.to_bits(), "{label}: clock");
    for mode in Mode::ALL {
        for group in UnitGroup::ALL {
            assert_eq!(
                ta.mode_energy_j[mode.index()].get(group).to_bits(),
                tb.mode_energy_j[mode.index()].get(group).to_bits(),
                "{label}: {mode}/{group} energy"
            );
        }
    }
    assert!(a.0.profile(a.1) == b.0.profile(b.1), "{label}: profile");
}

/// The log as an owned copy: read back from its CSV.
fn owned_copy(log: &SimLog) -> SimLog {
    let mut csv = Vec::new();
    log.to_csv(&mut csv).unwrap();
    SimLog::from_csv(BufReader::new(&csv[..])).unwrap()
}

/// Cross-policy equivalence over the full paper grid: a suite that derives
/// every bundle by replay produces, for EVERY grid key, exactly the bundle
/// a full-simulation suite produces — while executing at most one full
/// simulation per distinct (benchmark, CPU) pair.
#[test]
fn every_grid_key_replays_to_the_directly_simulated_bundle() {
    let config = SystemConfig {
        time_scale: 40_000.0,
        idle: IdleHandling::Analytic,
        ..SystemConfig::default()
    };
    let replaying = ExperimentSuite::new(config.clone()).unwrap();
    let full = ExperimentSuite::with_full_simulation(config).unwrap();
    let grid = replaying.paper_grid();
    replaying.run_all(4);
    full.run_all(4);

    assert_eq!(
        full.runs_executed(),
        grid.len(),
        "full suite simulates every key"
    );
    assert_eq!(full.replays_derived(), 0);
    assert_eq!(
        replaying.runs_executed(),
        13,
        "replay suite needs one full sim per distinct (benchmark, cpu) pair"
    );
    assert_eq!(replaying.replays_derived(), grid.len());

    for key in grid {
        let a = full.run_key(key);
        let b = replaying.run_key(key);
        assert_eq!(a.run.benchmark, b.run.benchmark, "{key:?}");
        assert_exact(&a.run, &b.run, &format!("{key:?}"));
        // The replayed bundles of one trace share its work windows, so
        // every key after a trace's first post-processes from the
        // trace's memo; the direct bundles compute every window.
        assert_eq!(a.model, b.model, "{key:?}: power model");
        assert_same_post(
            (&a.model, &a.run.log),
            (&b.model, &b.run.log),
            &format!("{key:?}"),
        );
    }
}

/// Whichever power model post-processes a trace's logs first owns the
/// trace's memo; every other model computes directly. Either way each
/// result equals the same model applied to an owned copy of the log.
#[test]
fn post_processing_is_independent_of_which_model_fills_the_memo() {
    let config = analytic_config(40_000.0, 7, DiskPolicy::Standby { threshold_s: 2.0 });
    let sim = Simulator::new(config.clone()).unwrap();
    let (_, trace) = sim.run_benchmark_traced(Benchmark::Compress);
    let replayed = sim.replay_trace(&trace);
    let owned = owned_copy(&replayed.log);
    let paper = PowerModel::new(&config.power_params());
    let cc1 = PowerModel::new(&PowerParams {
        gating: ClockGating::AlwaysOn,
        ..config.power_params()
    });
    for (step, model) in [("CC1", &cc1), ("paper", &paper), ("CC1 again", &cc1)] {
        assert_same_post((model, &replayed.log), (model, &owned), step);
    }
    // A second replay of the same trace reads the memo CC1 filled.
    let again = sim.replay_trace(&trace);
    assert_same_post((&cc1, &again.log), (&cc1, &owned), "CC1 on a second replay");
    assert_same_post(
        (&paper, &again.log),
        (&paper, &owned),
        "paper on a second replay",
    );
}

/// Log equality is window by window and strict, so the equivalence tests
/// above cannot pass vacuously: a replayed log equals its owned copy, and
/// one changed event count in the copy breaks the equality. End cycles are
/// derived from the cycle counts, so a copy with one changed end cycle
/// cannot even be read back.
#[test]
fn replayed_log_equality_is_strict() {
    let config = analytic_config(40_000.0, 3, DiskPolicy::IdleWhenNotBusy);
    let sim = Simulator::new(config).unwrap();
    let (_, trace) = sim.run_benchmark_traced(Benchmark::Jess);
    let replayed = sim.replay_trace(&trace).log;
    assert_eq!(replayed, owned_copy(&replayed));
    assert_eq!(owned_copy(&replayed), replayed);

    let mut csv = Vec::new();
    replayed.to_csv(&mut csv).unwrap();
    let text = String::from_utf8(csv).unwrap();
    let rows: Vec<&str> = text.lines().collect();
    let read_edited = |row: usize, column: usize, delta: i64| {
        let mut lines: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
        let mut fields: Vec<String> = lines[row].split(',').map(str::to_string).collect();
        let value: i64 = fields[column].parse().unwrap();
        fields[column] = (value + delta).to_string();
        lines[row] = fields.join(",");
        let csv = lines.join("\n") + "\n";
        SimLog::from_csv(BufReader::new(csv.as_bytes()))
    };
    let edited = |row: usize, column: usize, delta: i64| read_edited(row, column, delta).unwrap();
    let columns = rows[1].split(',').count();
    // The two header lines, then one row per window.
    let windows = 2..rows.len();
    assert_eq!(windows.len(), replayed.len());
    for row in [2, 2 + windows.len() / 2, rows.len() - 1] {
        assert_ne!(
            replayed,
            edited(row, columns - 1, 1),
            "event count in row {row}"
        );
    }
    assert!(read_edited(rows.len() - 1, 0, 1).is_err(), "last end cycle");
    assert!(read_edited(2, 0, -1).is_err(), "first end cycle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same-policy replay: a trace replayed through the configuration that
    /// captured it reproduces the capture run's results exactly, for
    /// randomized seeds, time scales, policies, and benchmarks.
    #[test]
    fn same_policy_replay_reproduces_the_capture_run(
        seed in 0u64..1_000,
        scale_k in 3u64..10,
        policy_idx in 0usize..POLICIES.len(),
        bench_idx in 0usize..Benchmark::ALL.len(),
    ) {
        let benchmark = Benchmark::ALL[bench_idx];
        let cfg = analytic_config(scale_k as f64 * 10_000.0, seed, POLICIES[policy_idx]);
        let sim = Simulator::new(cfg).unwrap();
        let (direct, trace) = sim.run_benchmark_traced(benchmark);
        prop_assert!(trace.segments.len() == trace.requests.len() + 1);
        let mut replayed = sim.replay_trace(&trace);
        replayed.benchmark = Some(benchmark);
        assert_exact(&direct, &replayed, &format!("{benchmark} seed={seed}"));
    }

    /// Cross-policy replay on randomized seeds: capture once under the
    /// base policy, replay under a different one, and match the direct
    /// simulation of that other policy bit for bit.
    #[test]
    fn cross_policy_replay_matches_direct_simulation(
        seed in 0u64..1_000,
        capture_idx in 0usize..POLICIES.len(),
        replay_idx in 0usize..POLICIES.len(),
        bench_idx in 0usize..Benchmark::ALL.len(),
    ) {
        let benchmark = Benchmark::ALL[bench_idx];
        let capture_cfg = analytic_config(40_000.0, seed, POLICIES[capture_idx]);
        let (_, trace) = Simulator::new(capture_cfg).unwrap().run_benchmark_traced(benchmark);
        let replay_cfg = analytic_config(40_000.0, seed, POLICIES[replay_idx]);
        let sim = Simulator::new(replay_cfg).unwrap();
        let direct = sim.run_benchmark(benchmark);
        let mut replayed = sim.replay_trace(&trace);
        replayed.benchmark = Some(benchmark);
        assert_exact(&direct, &replayed, &format!("{benchmark} {capture_idx}->{replay_idx}"));
    }
}

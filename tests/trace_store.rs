//! Persistent trace-store integration tests: the zero-tolerance gate (a
//! store-loaded replay equals a direct full simulation bit for bit, for
//! every paper-grid key), the corruption quartet (a damaged entry is never
//! an error — the run falls back to a fresh simulation and the bad file is
//! deleted), and multi-process safety (two suites racing to populate one
//! directory).

use std::path::PathBuf;

use softwatt::experiments::{DiskSetup, ExperimentSuite, RunKey};
use softwatt::{
    Benchmark, CpuModel, IdleHandling, RunResult, Simulator, SystemConfig, TraceKey, TraceStore,
};

/// A scratch store directory unique to this process and test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swstore-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn analytic_config(scale: f64) -> SystemConfig {
    SystemConfig {
        time_scale: scale,
        idle: IdleHandling::Analytic,
        ..SystemConfig::default()
    }
}

/// Bit-for-bit equality of everything a run produces (the same gate
/// `replay_equivalence.rs` applies to the in-memory replay engine).
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

/// The zero-tolerance gate: a suite fed entirely from a warm store
/// produces, for EVERY paper-grid key, exactly the bundle a
/// full-simulation suite produces — with 0 full simulations of its own.
#[test]
fn warm_store_replays_every_grid_key_bit_for_bit() {
    let dir = scratch_dir("grid");
    let store = TraceStore::open(&dir).expect("open scratch store");
    let config = analytic_config(40_000.0);

    let cold = ExperimentSuite::new(config.clone())
        .unwrap()
        .with_trace_store(store.clone());
    cold.run_all(4);
    assert!(cold.runs_executed() > 0, "cold suite captures");
    assert_eq!(cold.store_loads(), 0, "nothing to load from an empty store");

    let warm = ExperimentSuite::new(config.clone())
        .unwrap()
        .with_trace_store(store);
    warm.run_all(4);
    assert_eq!(
        warm.runs_executed(),
        0,
        "a warm store satisfies the whole grid without simulating"
    );
    assert_eq!(
        warm.store_loads(),
        cold.runs_executed(),
        "every capture the cold suite persisted is loaded exactly once"
    );

    let full = ExperimentSuite::with_full_simulation(config).unwrap();
    full.run_all(4);
    for key in warm.paper_grid() {
        let a = full.run_key(key);
        let b = warm.run_key(key);
        assert_eq!(a.run.benchmark, b.run.benchmark, "{key:?}");
        assert_exact(&a.run, &b.run, &format!("{key:?}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Prewarming pulls every stored pair into the memo up front, so a suite
/// serving the grid afterwards neither simulates nor touches the disk
/// again.
#[test]
fn prewarm_loads_the_grid_before_first_use() {
    let dir = scratch_dir("prewarm");
    let store = TraceStore::open(&dir).expect("open scratch store");
    let config = analytic_config(40_000.0);

    let cold = ExperimentSuite::new(config.clone())
        .unwrap()
        .with_trace_store(store.clone());
    cold.run_all(4);
    let captured = cold.runs_executed();

    let warm = ExperimentSuite::new(config)
        .unwrap()
        .with_trace_store(store);
    let loaded = warm.prewarm_from_store(&warm.paper_grid());
    assert_eq!(loaded, captured, "prewarm loads one trace per stored pair");
    warm.run_all(4);
    assert_eq!(warm.runs_executed(), 0);
    assert_eq!(
        warm.store_loads(),
        loaded,
        "serving the grid after prewarm does not go back to disk"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The FNV-1a 64 the format uses for its trailing checksum, inlined so the
/// stale-version case below can re-seal a doctored entry (otherwise the
/// checksum — deliberately checked first — masks the version check).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The corruption quartet: truncation, bad magic, a flipped payload byte,
/// and a stale format version each make the entry miss (and get deleted),
/// after which a fresh suite over the damaged store falls back to a fresh
/// simulation, succeeds, and repairs the entry — never an error.
#[test]
fn corrupt_entries_fall_back_to_fresh_simulation() {
    let dir = scratch_dir("corrupt");
    let store = TraceStore::open(&dir).expect("open scratch store");
    let config = analytic_config(50_000.0);
    let benchmark = Benchmark::Jess;
    let key = TraceKey::derive(&config, benchmark, config.cpu);
    let direct = Simulator::new(config.clone())
        .unwrap()
        .run_benchmark(benchmark);
    // Each run is a fresh suite (empty memo) over the shared store, so it
    // resolves through the store tier exactly as a new process would.
    let run_stored = || {
        ExperimentSuite::new(config.clone())
            .unwrap()
            .with_trace_store(store.clone())
            .run(benchmark, config.cpu, DiskSetup::Conventional)
    };

    type Corruption = fn(&mut Vec<u8>);
    let corruptions: [(&str, Corruption); 4] = [
        ("truncated", |b| {
            let half = b.len() / 2;
            b.truncate(half);
        }),
        ("bad magic", |b| b[0] ^= 0xFF),
        ("flipped byte", |b| {
            let mid = b.len() / 2;
            b[mid] ^= 0x40;
        }),
        ("stale version", |b| {
            // The varint version sits right after the 8-byte magic; 0x7F
            // is a valid one-byte varint (127) that is not version 1.
            // Re-seal the trailing checksum so ONLY the version trips.
            b[8] = 0x7F;
            let body = b.len() - 8;
            let sum = fnv1a(&b[..body]).to_le_bytes();
            b[body..].copy_from_slice(&sum);
        }),
    ];
    for (label, corrupt) in corruptions {
        // (Re)populate the entry, then damage it on disk.
        let populated = run_stored();
        assert_eq!(populated.run.cycles, direct.cycles, "{label}: populate");
        let path = store.entry_path(&key);
        let mut bytes = std::fs::read(&path).expect("read stored entry");
        corrupt(&mut bytes);
        std::fs::write(&path, &bytes).expect("write damaged entry");

        assert!(
            store.load(&key).is_none(),
            "{label}: a damaged entry must miss"
        );
        assert!(!path.exists(), "{label}: a damaged entry must be deleted");

        let recovered = run_stored();
        assert_exact(&direct, &recovered.run, label);
        assert!(
            store.load(&key).is_some(),
            "{label}: the fallback capture repairs the entry"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// User-posted specs get the exact persistence treatment canned
/// benchmarks get: a spec captured under one suite is served by a fresh
/// suite over the same directory with ZERO full simulations, the replayed
/// bundle is bit-identical, and a sibling disk policy derives from the
/// same stored trace without going back to the simulator.
#[test]
fn spec_workloads_survive_a_restart_through_the_store() {
    let dir = scratch_dir("spec-restart");
    let config = analytic_config(50_000.0);

    // A user-flavoured spec: canned content under a custom name, so the
    // content hash (and therefore the store entry) is spec-specific.
    let mut spec = Benchmark::Jess.spec();
    spec.name = "jess-tuned".to_string();

    let key = |suite: &ExperimentSuite, disk| RunKey {
        workload: suite.register_spec(spec.clone()).expect("valid spec"),
        cpu: CpuModel::Mxs,
        disk,
    };
    let first = ExperimentSuite::new(config.clone())
        .unwrap()
        .with_trace_store(TraceStore::open(&dir).expect("open scratch store"));
    let direct = first.run_key(key(&first, DiskSetup::Conventional));
    assert_eq!(first.runs_executed(), 1, "cold spec costs one capture");

    // "Restart": a brand-new suite (empty memo, fresh spec registry) over
    // the same directory.
    let second = ExperimentSuite::new(config)
        .unwrap()
        .with_trace_store(TraceStore::open(&dir).expect("reopen scratch store"));
    let replayed = second.run_key(key(&second, DiskSetup::Conventional));
    assert_eq!(
        second.runs_executed(),
        0,
        "the restart is served from the store, not the simulator"
    );
    assert!(
        second.store_loads() >= 1,
        "the stored spec trace was loaded"
    );
    assert_exact(&direct.run, &replayed.run, "spec restart");

    // A sibling disk policy of the same spec derives from the one stored
    // trace — still no simulation.
    let sibling = second.run_key(key(&second, DiskSetup::IdleOnly));
    assert_eq!(second.runs_executed(), 0, "sibling policy replays");
    assert_eq!(sibling.run.committed, replayed.run.committed);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Multi-process safety, approximated in-process: two suites with
/// independent handles race to populate one directory. Writes are atomic
/// renames of fully-fsynced temp files, so the store ends complete and
/// uncorrupted, and a third suite runs the grid entirely from it.
#[test]
fn two_suites_can_populate_one_store_concurrently() {
    let dir = scratch_dir("race");
    let config = analytic_config(40_000.0);
    let a = ExperimentSuite::new(config.clone())
        .unwrap()
        .with_trace_store(TraceStore::open(&dir).expect("open store a"));
    let b = ExperimentSuite::new(config.clone())
        .unwrap()
        .with_trace_store(TraceStore::open(&dir).expect("open store b"));
    std::thread::scope(|s| {
        s.spawn(|| a.run_all(2));
        s.spawn(|| b.run_all(2));
    });

    // Last-rename-wins per entry; both writers produce bit-identical
    // bytes, so the directory holds exactly one entry per distinct
    // (benchmark, cpu) pair no matter how the race interleaved.
    let entries = std::fs::read_dir(&dir)
        .expect("read store dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "swtrace"))
        .count();
    assert_eq!(entries, 13, "one entry per distinct (benchmark, cpu) pair");

    let follower = ExperimentSuite::new(config)
        .unwrap()
        .with_trace_store(TraceStore::open(&dir).expect("open store c"));
    follower.run_all(2);
    assert_eq!(
        follower.runs_executed(),
        0,
        "the populated store serves the whole grid"
    );
    for key in follower.paper_grid().into_iter().take(4) {
        assert_exact(
            &a.run_key(key).run,
            &follower.run_key(key).run,
            &format!("{key:?}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

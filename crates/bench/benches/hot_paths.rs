//! Microbenches for the simulation core's hot loops: the per-cycle stats
//! substrate, the MXS issue machinery, the L1 cache lookup, and the
//! O(segments + gaps) trace replay with and without power
//! post-processing. These isolate the paths the full-system
//! throughput bench (`simulator_throughput`) exercises in aggregate, so a
//! regression can be localized without re-profiling the whole pipeline.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use softwatt::{Benchmark, CpuModel, PowerModel, Simulator, SystemConfig};
use softwatt_cpu::{Cpu, MxsConfig, MxsCpu, VecSource};
use softwatt_isa::mixgen::{MixGenerator, MixSpec};
use softwatt_mem::{Cache, CacheGeometry, MemConfig, MemHierarchy};
use softwatt_stats::{Clocking, Mode, StatsCollector, UnitEvent};

fn bench_stats_collector(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats_collector");

    // One window-sized burst per iteration so the sample-emit cost is
    // amortized at its real per-cycle rate rather than excluded.
    const CYCLES: u64 = 4096;
    group.throughput(Throughput::Elements(CYCLES));
    group.bench_function("record_plus_tick", |b| {
        let mut stats = StatsCollector::new(Clocking::default(), 512);
        stats.set_mode(Mode::User);
        b.iter(|| {
            for _ in 0..CYCLES {
                stats.record(UnitEvent::AluOp);
                stats.record(UnitEvent::IcacheAccess);
                stats.tick();
            }
            std::hint::black_box(stats.cycle())
        });
    });
    group.bench_function("record_n_plus_tick_n", |b| {
        let mut stats = StatsCollector::new(Clocking::default(), 512);
        stats.set_mode(Mode::User);
        b.iter(|| {
            stats.record_n(UnitEvent::AluOp, CYCLES);
            stats.record_n(UnitEvent::IcacheAccess, CYCLES);
            stats.tick_n(CYCLES);
            std::hint::black_box(stats.cycle())
        });
    });
    group.finish();
}

fn bench_mxs_cycle(c: &mut Criterion) {
    // The MXS pipeline (dispatch/wakeup/issue/commit) on a compute-bound
    // mix: long dependence chains keep the wakeup lists busy, which is
    // exactly the structure the ready-list issue stage exists for.
    const CYCLES: u64 = 8192;
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let mut gen = MixGenerator::new(MixSpec::compute_bound(0x0040_0000, 0x1000_0000));
    let instrs: Vec<_> = (0..4 * CYCLES)
        .map(|_| gen.next_instr_with(&mut rng))
        .collect();

    let mut group = c.benchmark_group("mxs_pipeline");
    group.throughput(Throughput::Elements(CYCLES));
    group.bench_function("cycle_compute_bound", |b| {
        b.iter(|| {
            let mut cpu = MxsCpu::new(MxsConfig::default());
            let mut source = VecSource::new(instrs.clone());
            let mut mem = MemHierarchy::new(MemConfig::default());
            let mut stats = StatsCollector::new(Clocking::default(), 100_000);
            stats.set_mode(Mode::User);
            for _ in 0..CYCLES {
                cpu.cycle(&mut source, &mut mem, &mut stats);
                stats.tick();
            }
            std::hint::black_box(cpu.committed_instructions())
        });
    });
    group.finish();
}

fn bench_cache_lookup(c: &mut Criterion) {
    // Paper-configuration L1 D-cache, hit-heavy address stream with a
    // conflict tail: the flat-array probe path plus occasional refills.
    const ACCESSES: u64 = 4096;
    let geometry = CacheGeometry::new(32 * 1024, 32, 2);
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(ACCESSES));
    group.bench_function("l1_access", |b| {
        let mut cache = Cache::new(geometry);
        b.iter(|| {
            for i in 0..ACCESSES {
                // 8 KiB working set (hits) with every 16th access striding
                // across sets far enough to evict (misses + writebacks).
                let addr = if i % 16 == 0 {
                    0x0100_0000 + i * 4099 * 32
                } else {
                    (i * 24) % 8192
                };
                cache.access(addr, i % 4 == 0);
            }
            std::hint::black_box(cache.hits())
        });
    });
    group.finish();
}

fn bench_trace_replay(c: &mut Criterion) {
    // The O(segments + gaps) replay against a real captured trace: the
    // path every non-conventional disk policy in the paper grid takes.
    let config = SystemConfig {
        cpu: CpuModel::Mxs,
        time_scale: 40_000.0,
        ..SystemConfig::default()
    };
    let sim = Simulator::new(config.clone()).expect("valid");
    let (run, trace) = sim.run_benchmark_traced(Benchmark::Jess);
    let mut group = c.benchmark_group("replay");
    group.throughput(Throughput::Elements(run.cycles));
    group.bench_function("jess_trace", |b| {
        b.iter(|| std::hint::black_box(sim.replay_trace(&trace).cycles));
    });
    // One disk-policy result as the policy sweep times it: the replay
    // plus both post-processing passes, which read the trace's memo of
    // work-window energies after the first iteration fills it.
    let model = PowerModel::new(&config.power_params());
    group.bench_function("jess_trace_post", |b| {
        b.iter(|| {
            let run = sim.replay_trace(&trace);
            let table = model.mode_table(&run.log);
            let profile = model.profile(&run.log);
            std::hint::black_box((table.total_energy_j(), profile.points.len()))
        });
    });
    group.finish();
}

criterion_group!(
    hot_paths,
    bench_stats_collector,
    bench_mxs_cycle,
    bench_cache_lookup,
    bench_trace_replay
);
criterion_main!(hot_paths);

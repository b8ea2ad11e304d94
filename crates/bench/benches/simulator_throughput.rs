//! Simulator throughput benches: simulated cycles per second of host time
//! for each CPU model, and the cost of the power post-processing pass.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use softwatt::{Benchmark, CpuModel, PowerModel, Simulator, SystemConfig};

fn config(cpu: CpuModel) -> SystemConfig {
    SystemConfig {
        cpu,
        time_scale: 40_000.0,
        ..SystemConfig::default()
    }
}

fn measured_cycles(cpu: CpuModel) -> u64 {
    Simulator::new(config(cpu))
        .expect("valid")
        .run_benchmark(Benchmark::Jess)
        .cycles
}

fn bench_cpu_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_system_simulation");
    group.sample_size(10);
    for cpu in [CpuModel::Mxs, CpuModel::MxsSingleIssue, CpuModel::Mipsy] {
        group.throughput(Throughput::Elements(measured_cycles(cpu)));
        group.bench_function(format!("jess_{}", cpu.label()), |b| {
            let sim = Simulator::new(config(cpu)).expect("valid");
            b.iter(|| std::hint::black_box(sim.run_benchmark(Benchmark::Jess).cycles));
        });
    }
    group.finish();
}

fn bench_post_processing(c: &mut Criterion) {
    // Post-processing is the paper's headline methodology claim: no
    // simulation slowdown, all power math after the fact. Measure it alone.
    let cfg = config(CpuModel::Mxs);
    let run = Simulator::new(cfg.clone())
        .expect("valid")
        .run_benchmark(Benchmark::Jess);
    let model = PowerModel::new(&cfg.power_params());
    let mut group = c.benchmark_group("power_post_processing");
    group.throughput(Throughput::Elements(run.log.len() as u64));
    group.bench_function("profile_from_log", |b| {
        b.iter(|| std::hint::black_box(model.profile(&run.log).points.len()));
    });
    group.bench_function("mode_table_from_log", |b| {
        b.iter(|| std::hint::black_box(model.mode_table(&run.log).total_energy_j()));
    });
    group.finish();
}

criterion_group!(throughput, bench_cpu_models, bench_post_processing);
criterion_main!(throughput);

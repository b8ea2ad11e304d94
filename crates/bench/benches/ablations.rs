//! Ablation benches for the design choices called out in `DESIGN.md` §7:
//!
//! - sampling granularity: simulation cost vs. log resolution;
//! - the paper's §3.3 idle acceleration during disk waits: simulating the
//!   idle loop vs. accounting for every blocked gap analytically;
//! - the paper's §3.3 claim that kernel energy can be estimated from
//!   invocation counts times mean per-invocation energy within ~10% —
//!   reported here as a measured estimation error, benched as the cost of
//!   the estimator versus full attribution.

use criterion::{criterion_group, criterion_main, Criterion};

use softwatt::{Benchmark, IdleHandling, Simulator, SystemConfig};
use softwatt_os::KernelService;

fn base_config() -> SystemConfig {
    SystemConfig {
        time_scale: 40_000.0,
        ..SystemConfig::default()
    }
}

fn bench_sample_interval(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_sample_interval");
    group.sample_size(10);
    for interval in [200u64, 2_000, 20_000] {
        group.bench_function(format!("interval_{interval}"), |b| {
            let sim = Simulator::new(SystemConfig {
                sample_interval_cycles: interval,
                ..base_config()
            })
            .expect("valid");
            b.iter(|| std::hint::black_box(sim.run_benchmark(Benchmark::Db).cycles));
        });
    }
    group.finish();
}

fn bench_idle_handling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_idle_handling");
    group.sample_size(10);
    for (label, idle) in [
        ("simulate_idle", IdleHandling::Simulate),
        ("analytic", IdleHandling::Analytic),
    ] {
        group.bench_function(label, |b| {
            let sim = Simulator::new(SystemConfig {
                idle,
                ..base_config()
            })
            .expect("valid");
            // jess has the largest idle share (class loading); the win is
            // bounded by that share, mirroring the paper's observation.
            b.iter(|| std::hint::black_box(sim.run_benchmark(Benchmark::Jess).cycles));
        });
    }
    group.finish();
}

fn bench_kernel_estimate(c: &mut Criterion) {
    // First report the estimation error the paper quotes (~10%): kernel
    // energy from counts x mean per-invocation energy, versus the full
    // per-invocation attribution.
    let sim = Simulator::new(base_config()).expect("valid");
    let run = sim.run_benchmark(Benchmark::Jack);
    let aggs = run.services.aggregates();
    let full: f64 = KernelService::ALL
        .iter()
        .filter_map(|s| aggs.get(&s.id()))
        .map(|a| a.energy_sum_j)
        .sum();
    let estimated: f64 = KernelService::ALL
        .iter()
        .filter_map(|s| aggs.get(&s.id()))
        .map(|a| a.invocations as f64 * a.mean_energy_j().unwrap_or(0.0))
        .sum();
    // Mean-based reconstruction is exact by construction; the interesting
    // estimator uses a *global* per-service mean from a different seed.
    let other = Simulator::new(SystemConfig {
        seed: 0x0DD5,
        ..base_config()
    })
    .expect("valid")
    .run_benchmark(Benchmark::Jack);
    let other_aggs = other.services.aggregates();
    let cross_estimate: f64 = KernelService::ALL
        .iter()
        .filter_map(|s| {
            let n = aggs.get(&s.id())?.invocations as f64;
            let mean = other_aggs.get(&s.id())?.mean_energy_j()?;
            Some(n * mean)
        })
        .sum();
    eprintln!(
        "kernel-energy estimate: full {full:.3e} J, same-run reconstruction {estimated:.3e} J, \
         cross-seed estimate {cross_estimate:.3e} J ({:+.1}% error; paper claims ~10%)",
        100.0 * (cross_estimate - full) / full
    );

    let mut group = c.benchmark_group("ablate_kernel_estimate");
    group.bench_function("estimator_from_counts", |b| {
        b.iter(|| {
            let e: f64 = KernelService::ALL
                .iter()
                .filter_map(|s| {
                    let a = aggs.get(&s.id())?;
                    Some(a.invocations as f64 * a.mean_energy_j()?)
                })
                .sum();
            std::hint::black_box(e)
        })
    });
    group.finish();
}

criterion_group!(
    ablations,
    bench_sample_interval,
    bench_idle_handling,
    bench_kernel_estimate
);
criterion_main!(ablations);

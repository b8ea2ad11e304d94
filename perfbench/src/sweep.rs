//! `policy_sweep`: replay the 13 paper-grid traces from a trace store
//! filled before timing through a seeded set of disk policies, and
//! post-process every result to energy.

use std::io;
use std::path::Path;
use std::time::Instant;

use softwatt::experiments::ExperimentSuite;
use softwatt::{
    Benchmark, CpuModel, DiskConfig, DiskPolicy, IdleHandling, PowerModel, RunResult, Simulator,
    SystemConfig, TraceKey, TraceStore,
};
use softwatt_disk::replay_requests;
use softwatt_os::KernelService;
use softwatt_stats::PerfTrace;

use crate::summary::{median, tail_percentile, Rng};
use crate::{pace, sys};
use crate::{Env, Metrics, Outcome};

/// The traces' time scale (the paper harness's).
pub const SCALE: f64 = 2000.0;
/// Store openings timed per run for `setup_s`.
const SETUP_PROBES: usize = 9;
/// Results checked bit for bit against a direct simulation per run.
const CHECKS: usize = 2;
/// Standby thresholds, and SLEEP timings, drawn per seed: with the two
/// fixed policies, 80 policies, so a sweep yields 13 x 80 = 1040 results
/// and its p99 result latency has ten results beyond it.
const DRAWN: usize = 39;

/// One decoded grid trace.
pub struct Trace {
    pub benchmark: Benchmark,
    pub cpu: CpuModel,
    pub trace: PerfTrace,
}

pub fn base_config() -> SystemConfig {
    SystemConfig {
        time_scale: SCALE,
        ..SystemConfig::default()
    }
}

/// The distinct (benchmark, CPU) pairs of the paper grid, in grid order.
pub fn grid_pairs(base: &SystemConfig) -> Vec<(Benchmark, CpuModel)> {
    let mut pairs = Vec::new();
    for key in ExperimentSuite::new(base.clone())
        .expect("valid config")
        .paper_grid()
    {
        let pair = (key.workload.canned().expect("canned grid"), key.cpu);
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    pairs
}

/// Opens the store and decodes every grid trace, timing each decode.
pub fn load(dir: &Path) -> io::Result<(Vec<Trace>, Vec<f64>)> {
    let base = base_config();
    let store = TraceStore::open(dir)?;
    let mut traces = Vec::new();
    let mut decode_s = Vec::new();
    for (benchmark, cpu) in grid_pairs(&base) {
        let key = TraceKey::derive(&base, benchmark, cpu);
        let t = Instant::now();
        let trace = store
            .load(&key)
            .ok_or_else(|| io::Error::other(format!("store lacks {benchmark}/{}", cpu.name())))?;
        decode_s.push(t.elapsed().as_secs_f64());
        traces.push(Trace {
            benchmark,
            cpu,
            trace,
        });
    }
    Ok((traces, decode_s))
}

/// The seeded policy set: both fixed policies, then spin-down thresholds
/// and SLEEP timings drawn across the range where they change behaviour.
pub fn policies(seed: u64) -> Vec<DiskPolicy> {
    let mut rng = Rng::new(seed, 0xd15c);
    let mut out = vec![DiskPolicy::Conventional, DiskPolicy::IdleWhenNotBusy];
    for _ in 0..DRAWN {
        out.push(DiskPolicy::Standby {
            threshold_s: rng.range(0.5, 8.0),
        });
    }
    for _ in 0..DRAWN {
        out.push(DiskPolicy::Sleep {
            threshold_s: rng.range(0.5, 6.0),
            sleep_after_s: rng.range(2.0, 20.0),
        });
    }
    out
}

fn config_for(cpu: CpuModel, policy: DiskPolicy) -> SystemConfig {
    let base = base_config();
    SystemConfig {
        cpu,
        idle: IdleHandling::Analytic,
        disk: DiskConfig {
            policy,
            ..base.disk
        },
        ..base
    }
}

/// One (trace, policy) result through the public replay entry point,
/// post-processed to total energy.
pub fn replay(t: &Trace, policy: DiskPolicy) -> (RunResult, f64) {
    let config = config_for(t.cpu, policy);
    let mut run = Simulator::new(config.clone())
        .expect("valid config")
        .replay_trace(&t.trace);
    run.benchmark = Some(t.benchmark);
    let model = PowerModel::new(&config.power_params());
    let energy = model.mode_table(&run.log).total_energy_j() + run.disk.energy_j;
    std::hint::black_box(model.profile(&run.log));
    (run, energy)
}

/// Host seconds spent in each layer of a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    pub disk_s: f64,
    pub stats_s: f64,
    pub power_s: f64,
    pub results: u64,
}

/// The same result as [`replay`], assembled from the layers' public
/// functions with a span around each: the disk model's request replay,
/// the stats layer's segment replay, and power post-processing.
pub fn replay_traced(t: &Trace, policy: DiskPolicy, spans: &mut Spans) -> (RunResult, f64) {
    let config = config_for(t.cpu, policy);
    let clocking = config.clocking();
    let t0 = Instant::now();
    let model = PowerModel::new(&config.power_params());
    let t1 = Instant::now();
    let timeline = replay_requests(
        config.disk,
        clocking,
        &t.trace.requests,
        t.trace.work_cycles,
    );
    let t2 = Instant::now();
    t.trace.validate().expect("valid trace");
    let (log, mut services) = t.trace.fast_replay(
        &timeline.gaps,
        model.energy_weights(),
        KernelService::IdleProcess.id(),
    );
    for (service, aggregate) in &t.trace.work_services {
        services.merge_aggregate(*service, aggregate);
    }
    let cycles = log.total_cycles();
    let run = RunResult {
        benchmark: Some(t.benchmark),
        cpu: t.cpu,
        log,
        services,
        disk: timeline.report,
        cycles,
        committed: t.trace.committed,
        user_instrs: t.trace.user_instrs,
        duration_s: clocking.cycles_to_paper_secs(cycles),
    };
    let t3 = Instant::now();
    let energy = model.mode_table(&run.log).total_energy_j() + run.disk.energy_j;
    std::hint::black_box(model.profile(&run.log));
    let t4 = Instant::now();
    spans.power_s += (t1 - t0).as_secs_f64() + (t4 - t3).as_secs_f64();
    spans.disk_s += (t2 - t1).as_secs_f64();
    spans.stats_s += (t3 - t2).as_secs_f64();
    spans.results += 1;
    (run, energy)
}

/// Bit-for-bit equality of two runs, energy included.
pub fn same_run(a: &(RunResult, f64), b: &(RunResult, f64)) -> bool {
    let (x, ex) = a;
    let (y, ey) = b;
    x.cycles == y.cycles
        && x.committed == y.committed
        && x.user_instrs == y.user_instrs
        && x.log == y.log
        && x.disk == y.disk
        && x.disk.energy_j.to_bits() == y.disk.energy_j.to_bits()
        && x.services.aggregates() == y.services.aggregates()
        && x.duration_s.to_bits() == y.duration_s.to_bits()
        && ex.to_bits() == ey.to_bits()
}

/// Checks seeded (trace, policy) results against a direct simulation
/// under analytic idle handling; returns (checked, failed).
fn check_sample(traces: &[Trace], policies: &[DiskPolicy], seed: u64) -> (u64, u64) {
    let mut rng = Rng::new(seed, 0xc4ec);
    let mut failed = 0;
    for _ in 0..CHECKS {
        let t = &traces[rng.below(traces.len())];
        let policy = policies[rng.below(policies.len())];
        let replayed = replay(t, policy);
        let config = config_for(t.cpu, policy);
        let direct = Simulator::new(config.clone())
            .expect("valid config")
            .run_benchmark(t.benchmark);
        let model = PowerModel::new(&config.power_params());
        let energy = model.mode_table(&direct.log).total_energy_j() + direct.disk.energy_j;
        let ok = same_run(&replayed, &(direct, energy));
        println!(
            "policy_sweep: {}/{} under {policy:?}: replay {} direct simulation",
            t.benchmark.name(),
            t.cpu.name(),
            if ok { "equals" } else { "DIFFERS FROM" }
        );
        failed += u64::from(!ok);
    }
    (CHECKS as u64, failed)
}

/// Result of timing sweeps.
pub struct Timed {
    /// Host seconds of each (trace, policy) result, sweep by sweep.
    pub result_s: Vec<Vec<f64>>,
    /// Host seconds of each sweep.
    pub sweep_s: Vec<f64>,
    /// Host pace before the first sweep and after each.
    pub paces: Vec<f64>,
    /// This process's peak resident memory, pace samples left out.
    pub peak_rss_mb: f64,
    /// Committed instructions of one sweep's results.
    pub committed: u64,
    /// Results without a finite positive energy, over all sweeps.
    pub bad: u64,
}

impl Timed {
    /// Records the peak memory so far, then takes a pace sample. The
    /// sample's table is freed when it returns and the high-water mark is
    /// reset after it, so `peak_rss_mb` never counts the table.
    fn sample_pace(&mut self) -> io::Result<()> {
        self.peak_rss_mb = self.peak_rss_mb.max(sys::own_peak_rss_mb().unwrap_or(0.0));
        self.paces.push(pace::sample());
        sys::reset_own_peak_rss()
    }

    /// The median sweep at the quiet machine's pace.
    pub fn sweep_at_pace_s(&self) -> f64 {
        median(&pace::at_pace(&self.sweep_s, &self.paces)).expect("one sweep ran")
    }

    /// Each result's fastest time over the sweeps at the quiet machine's
    /// pace, in sweep order.
    pub fn fastest_result_at_pace_s(&self) -> Vec<f64> {
        let mut fastest = vec![f64::INFINITY; self.result_s[0].len()];
        for (times, p) in self.result_s.iter().zip(self.paces.windows(2)) {
            // The sweep's pace: the mean of the samples either side of it.
            let sweep_pace = (p[0] + p[1]) / 2.0;
            for (slot, t) in fastest.iter_mut().zip(times) {
                *slot = slot.min(t / sweep_pace);
            }
        }
        fastest
    }
}

/// Sweeps every trace through every policy, repeatedly, until `seconds`
/// have passed or `max_sweeps` are done (at least one sweep), with a pace
/// sample before the first sweep and after each.
pub fn sweeps(
    traces: &[Trace],
    policies: &[DiskPolicy],
    seconds: f64,
    max_sweeps: usize,
) -> io::Result<Timed> {
    let t0 = Instant::now();
    let mut timed = Timed {
        result_s: Vec::new(),
        sweep_s: Vec::new(),
        paces: Vec::new(),
        peak_rss_mb: 0.0,
        committed: 0,
        bad: 0,
    };
    timed.sample_pace()?;
    while timed.sweep_s.is_empty()
        || (timed.sweep_s.len() < max_sweeps && t0.elapsed().as_secs_f64() < seconds)
    {
        let first = timed.sweep_s.is_empty();
        let mut result_s = Vec::with_capacity(traces.len() * policies.len());
        let ts = Instant::now();
        for t in traces {
            for &policy in policies {
                let tr = Instant::now();
                let (run, energy) = replay(t, policy);
                result_s.push(tr.elapsed().as_secs_f64());
                if first {
                    timed.committed += run.committed;
                }
                timed.bad += u64::from(!(energy.is_finite() && energy > 0.0));
            }
        }
        timed.sweep_s.push(ts.elapsed().as_secs_f64());
        timed.result_s.push(result_s);
        timed.sample_pace()?;
    }
    Ok(timed)
}

/// The untraced `policy_sweep` run.
pub fn run(env: &Env, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let dir = env.filled_store(SCALE)?;
    let mut setups = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..SETUP_PROBES {
        drop(traces);
        let t = Instant::now();
        traces = load(&dir)?.0;
        setups.push(t.elapsed().as_secs_f64());
    }
    let policies = policies(seed);
    let timed = sweeps(&traces, &policies, seconds, usize::MAX)?;
    let rss = timed.peak_rss_mb;
    let (checked, check_failed) = check_sample(&traces, &policies, seed);
    let fastest_result_s = timed.fastest_result_at_pace_s();
    let per_sweep = fastest_result_s.len() as u64;
    let results = per_sweep * timed.sweep_s.len() as u64;
    // Every time is at the quiet machine's pace. Each result's latency is
    // its fastest over the sweeps, so a result that got slower shows in
    // every sweep and moves the figure.
    let mut latencies: Vec<f64> = fastest_result_s.iter().map(|s| s * 1e6).collect();
    latencies.sort_by(f64::total_cmp);
    let latency_us = |p: f64| {
        tail_percentile(&latencies, p).unwrap_or_else(|| {
            println!(
                "policy_sweep: too few results for p{}; reporting the slowest",
                p * 100.0
            );
            latencies.last().copied().unwrap_or_default()
        })
    };
    let wall = timed.sweep_at_pace_s();
    println!(
        "policy_sweep: {} sweeps of {} traces x {} policies ({results} results), sweeps {:.4}..{:.4} \
         s, host pace median {:.4}; latencies over {per_sweep} results",
        timed.sweep_s.len(),
        traces.len(),
        policies.len(),
        timed.sweep_s.iter().copied().fold(f64::INFINITY, f64::min),
        timed.sweep_s.iter().copied().fold(0.0, f64::max),
        median(&timed.paces).expect("paces sampled"),
    );
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups).expect("probes ran"));
    m.set("wall_s", wall);
    m.set("sim_minstr_per_s", timed.committed as f64 / 1e6 / wall);
    m.set("replays_per_s", per_sweep as f64 / wall);
    m.set("peak_rss_mb", rss);
    m.set("latency_p50_us", latency_us(0.5));
    println!(
        "policy_sweep: result latency p99 {:.1} us",
        latency_us(0.99)
    );
    let good_share = (results - timed.bad) as f64 / results as f64;
    m.set("goodput_rps", good_share * per_sweep as f64 / wall);
    Ok(Outcome {
        attempted: results + checked,
        failed: timed.bad + check_failed,
        metrics: m,
    })
}

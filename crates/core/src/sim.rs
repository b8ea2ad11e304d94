//! The full-system simulator driver.

use softwatt_cpu::{Cpu, MipsyCpu, MxsCpu};
use softwatt_disk::{replay_requests, Disk, DiskReport};
use softwatt_isa::InstrSource;
use softwatt_mem::MemHierarchy;
use softwatt_os::{IdleLoop, KernelService, OsConfig, SystemOs};
use softwatt_power::PowerModel;
use softwatt_stats::{Mode, PerfTrace, ServiceProfiler, SimLog, StatsCollector, UnitEvent};
use softwatt_workloads::{Benchmark, BenchmarkSpec, Workload};

use crate::config::{CpuModel, IdleHandling, SystemConfig};

/// Everything a run produces: the sampled log (for power post-processing),
/// the kernel-service profile, the disk's online energy report, and
/// headline counters.
#[derive(Debug)]
pub struct RunResult {
    /// Benchmark that was run, if a named one.
    pub benchmark: Option<Benchmark>,
    /// CPU model used.
    pub cpu: CpuModel,
    /// The sampled simulation log.
    pub log: SimLog,
    /// Kernel-service attribution profile.
    pub services: ServiceProfiler,
    /// Disk activity and energy report.
    pub disk: DiskReport,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// User instructions delivered by the workload.
    pub user_instrs: u64,
    /// Run duration in paper-time seconds.
    pub duration_s: f64,
}

impl RunResult {
    /// Commit IPC over the run.
    pub fn ipc(&self) -> f64 {
        self.committed as f64 / self.cycles.max(1) as f64
    }

    /// Cycles attributed to `mode`.
    pub fn mode_cycles(&self, mode: Mode) -> u64 {
        self.log.mode_cycles(mode)
    }
}

/// Per-cycle event rates of the idle loop, measured once per run and
/// patched into every analytically skipped gap (the paper found idle
/// behavior workload-independent and predictable — §3.3).
#[derive(Debug, Clone)]
struct IdleRates {
    per_cycle: Vec<(UnitEvent, f64)>,
}

/// The simulator: assembles CPU, memory, OS, disk, and stats, and drives
/// the cycle loop. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SystemConfig,
}

impl Simulator {
    /// Creates a simulator after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first configuration problem found.
    pub fn new(config: SystemConfig) -> Result<Simulator, String> {
        config.validate()?;
        Ok(Simulator { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs one of the named benchmarks: [`Simulator::run`] on its spec,
    /// tagged with the benchmark.
    pub fn run_benchmark(&self, benchmark: Benchmark) -> RunResult {
        RunResult {
            benchmark: Some(benchmark),
            ..self.run(&benchmark.spec())
        }
    }

    /// [`Simulator::capture`] on a named benchmark's spec, tagged with the
    /// benchmark.
    pub fn run_benchmark_traced(&self, benchmark: Benchmark) -> (RunResult, PerfTrace) {
        let (run, trace) = self.capture(&benchmark.spec());
        (
            RunResult {
                benchmark: Some(benchmark),
                ..run
            },
            trace,
        )
    }

    /// Runs a workload spec on the full system under this configuration's
    /// idle handling. A canned benchmark is just its `Benchmark::spec()`,
    /// so both take this one path (the result's `benchmark` tag stays
    /// `None`; [`Simulator::run_benchmark`] sets it).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`BenchmarkSpec::validate`] or cannot size
    /// an instruction budget at this configuration's clocking. Callers
    /// holding untrusted specs must gate on those first (the experiment
    /// suite's `register_spec` does).
    pub fn run(&self, spec: &BenchmarkSpec) -> RunResult {
        self.drive(spec, None, false).0
    }

    /// Runs a workload spec under analytic idle handling while capturing a
    /// [`PerfTrace`]: the policy-independent record of the run (sampled
    /// log split at request boundaries, the disk request stream in
    /// work-relative time, idle event rates, and the kernel-service
    /// profile). The trace can then be replayed through any disk
    /// configuration with [`Simulator::replay_trace`], reproducing a direct
    /// simulation exactly — see `DESIGN.md` "Two-phase architecture".
    ///
    /// # Panics
    ///
    /// As [`Simulator::run`].
    pub fn capture(&self, spec: &BenchmarkSpec) -> (RunResult, PerfTrace) {
        let (result, trace) = self.drive(spec, None, true);
        (result, trace.expect("capture mode always yields a trace"))
    }

    /// Runs an arbitrary user instruction stream (a recorded trace, a
    /// recording wrapper, ...) in place of `spec`'s generator. The OS side
    /// of the run — warm files, premapped regions, cacheflush rate and OS
    /// seed — still comes from `spec`, exactly as in [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// As [`Simulator::run`].
    pub fn run_source(&self, spec: &BenchmarkSpec, user: Box<dyn InstrSource>) -> RunResult {
        self.drive(spec, Some(user), false).0
    }

    /// The one simulation driver behind every run entry point: `user`
    /// replaces the spec's own generator when given, and `capture` records
    /// a [`PerfTrace`] under analytic idle handling.
    fn drive(
        &self,
        spec: &BenchmarkSpec,
        user: Option<Box<dyn InstrSource>>,
        capture: bool,
    ) -> (RunResult, Option<PerfTrace>) {
        // Each CPU model gets its own statically dispatched copy of the
        // driver, so the cycle loop makes no virtual call per cycle.
        match self.config.mxs_core() {
            Some(core) => self.drive_on(|| MxsCpu::new(core), spec, user, capture),
            None => self.drive_on(|| MipsyCpu::new(self.config.mipsy), spec, user, capture),
        }
    }

    /// [`Simulator::drive`] on the CPU model `make_cpu` builds.
    fn drive_on<C: Cpu>(
        &self,
        make_cpu: impl Fn() -> C,
        spec: &BenchmarkSpec,
        user: Option<Box<dyn InstrSource>>,
        capture: bool,
    ) -> (RunResult, Option<PerfTrace>) {
        softwatt_obs::count(
            if capture {
                "sim.capture_runs"
            } else {
                "sim.full_runs"
            },
            1,
        );
        let _span = softwatt_obs::span(if capture {
            "sim.capture_ns"
        } else {
            "sim.full_sim_ns"
        });
        let clocking = self.config.clocking();
        let workload = Workload::new(spec.clone(), clocking, self.config.seed);
        let warm_files = workload.warm_files();
        let premap = workload.premap_regions();
        let os_config = OsConfig {
            cacheflush_per_kinstr: spec.cacheflush_per_kinstr,
            seed: self.config.seed ^ 0x5EED,
            ..self.config.os
        };
        let user = user.unwrap_or_else(|| Box::new(workload));
        let model = PowerModel::new(&self.config.power_params());
        let mut stats = StatsCollector::with_weights(
            clocking,
            self.config.sample_interval_cycles,
            model.energy_weights(),
        );
        let disk = Disk::new(self.config.disk, clocking);
        let mut os = SystemOs::new(os_config, clocking, disk, user);
        for (file, bytes) in warm_files {
            os.warm_file(file, bytes);
        }
        for (base, bytes) in premap {
            os.premap_region(base, bytes);
        }
        let mut mem = MemHierarchy::new(self.config.mem);
        let mut cpu = make_cpu();

        // Trace capture needs every blocked stretch handled analytically —
        // that is what makes the captured work stream policy-independent.
        let analytic = capture || self.config.idle == IdleHandling::Analytic;
        let idle_rates = analytic.then(|| self.measure_idle_rates(make_cpu()));
        os.set_analytic_idle(analytic);
        if capture {
            os.start_request_capture();
        }

        // Safety net: a run that exceeds this is a livelock, not a workload.
        let cycle_cap = 400_000_000u64;
        loop {
            let out = cpu.cycle(&mut os, &mut mem, &mut stats);
            if let Some(event) = out.event {
                os.handle_event(event, &mut stats);
            }
            os.apply_deferred(&mut mem, &mut stats);
            stats.tick();
            if out.program_exited && os.finished() {
                break;
            }
            // Analytic idle handling: account for the whole blocked stretch
            // arithmetically, flushing the sample window and closing the
            // log's work segment at the request boundary even when the gap
            // is empty (the gap length is the only policy-dependent
            // quantity, so samples must never straddle a boundary).
            if let (Some(rates), Some(until)) = (&idle_rates, os.blocked_until()) {
                let gap = until.saturating_sub(stats.cycle());
                stats.skip_idle_gap(gap, &rates.per_cycle, KernelService::IdleProcess.id());
                os.complete_block(gap);
            } else if out.event.is_none() {
                // The same acceleration in the small: cycles in which the
                // CPU provably does nothing (waiting on a miss, a divide or
                // a branch refill) are counted, not stepped. The OS acts
                // only on events and fetches, so it sees none of them.
                let inert = cpu.skip_inert_cycles();
                if inert > 0 {
                    stats.tick_n(inert);
                }
            }
            assert!(stats.cycle() < cycle_cap, "runaway simulation");
        }

        let cycles = stats.cycle();
        let work_cycles = stats.work_cycle();
        let committed = cpu.committed_instructions();
        let user_instrs = os.user_instructions();
        let requests = os.take_request_log();
        let (log, services) = stats.finish_with_services();
        let disk_report = os.into_disk().report(cycles);
        let trace = capture.then(|| {
            // The log's block holds exactly the work windows, split into
            // segments at the gaps: the trace shares it.
            let mut work_services: Vec<_> = services
                .aggregates()
                .iter()
                .filter(|(&id, _)| id != KernelService::IdleProcess.id())
                .map(|(&id, agg)| (id, agg.clone()))
                .collect();
            work_services.sort_by_key(|&(id, _)| id);
            let trace = PerfTrace {
                clocking,
                sample_interval: self.config.sample_interval_cycles,
                segments: log.block().clone(),
                requests,
                idle_rates: idle_rates
                    .as_ref()
                    .map(|r| r.per_cycle.clone())
                    .unwrap_or_default(),
                work_services,
                work_cycles,
                committed,
                user_instrs,
            };
            trace.validate().expect("captured trace is well-formed");
            trace
        });
        let result = RunResult {
            benchmark: None,
            cpu: self.config.cpu,
            log,
            services,
            disk: disk_report,
            cycles,
            committed,
            user_instrs,
            duration_s: clocking.cycles_to_paper_secs(cycles),
        };
        softwatt_obs::obs_event!(
            softwatt_obs::Level::Debug,
            "sim",
            "{} on {:?} finished: {} cycles, {} disk requests{}",
            spec.name,
            self.config.cpu,
            result.cycles,
            result.disk.requests,
            if capture { " (trace captured)" } else { "" }
        );
        (result, trace)
    }

    /// Replays a captured [`PerfTrace`] through this simulator's disk
    /// configuration without re-simulating the CPU: the request stream is
    /// re-run through a fresh disk state machine, blocked gaps are
    /// recomputed, and the log/profile are reconstructed by replaying the
    /// trace's work segments and patching each gap with the same idle-event
    /// machinery a direct analytic simulation uses. The result is exactly
    /// (bit-for-bit) what [`Simulator::run`] produces under
    /// [`IdleHandling::Analytic`] for the same configuration.
    ///
    /// Only the disk configuration may differ from the capture run; the
    /// CPU, memory, clocking, and workload are baked into the trace.
    pub fn replay_trace(&self, trace: &PerfTrace) -> RunResult {
        softwatt_obs::count("sim.replay_runs", 1);
        let _span = softwatt_obs::span("sim.replay_ns");
        trace.validate().expect("valid trace");
        let clocking = self.config.clocking();
        let model = PowerModel::new(&self.config.power_params());
        let timeline = replay_requests(
            self.config.disk,
            clocking,
            &trace.requests,
            trace.work_cycles,
        );
        // O(segments + gaps), not O(cycles): the capture invariants let
        // the replayed log share the trace's work windows and describe
        // each gap analytically instead of ticking a collector through
        // every cycle. Window-for-window equal to the collector-driven
        // path (pinned by the stats crate's equivalence tests and
        // `tests/replay_equivalence.rs`).
        let (log, mut services) = trace.fast_replay(
            &timeline.gaps,
            model.energy_weights(),
            KernelService::IdleProcess.id(),
        );
        let cycles = log.total_cycles();
        debug_assert_eq!(cycles, timeline.total_cycles);
        for (service, aggregate) in &trace.work_services {
            services.merge_aggregate(*service, aggregate);
        }
        RunResult {
            benchmark: None,
            cpu: self.config.cpu,
            log,
            services,
            disk: timeline.report,
            cycles,
            committed: trace.committed,
            user_instrs: trace.user_instrs,
            duration_s: clocking.cycles_to_paper_secs(cycles),
        }
    }

    /// Measures the idle loop's per-cycle event rates with a short
    /// standalone simulation (warm caches, steady state).
    fn measure_idle_rates(&self, mut cpu: impl Cpu) -> IdleRates {
        let _span = softwatt_obs::span("sim.idle_rate_measure_ns");
        let mut mem = MemHierarchy::new(self.config.mem);
        let mut stats = StatsCollector::new(self.config.clocking(), 1_000_000);
        let mut idle = IdleSource(IdleLoop::new());
        // Warm up, then measure.
        for _ in 0..2_000 {
            cpu.cycle(&mut idle, &mut mem, &mut stats);
            stats.tick();
        }
        let warm_snapshot = stats.combined().clone();
        let warm_cycle = stats.cycle();
        for _ in 0..4_000 {
            cpu.cycle(&mut idle, &mut mem, &mut stats);
            stats.tick();
        }
        let delta = stats.combined().delta_since(&warm_snapshot);
        let cycles = (stats.cycle() - warm_cycle) as f64;
        IdleRates {
            per_cycle: delta
                .iter()
                .filter(|(_, n)| *n > 0)
                .map(|(ev, n)| (ev, n as f64 / cycles))
                .collect(),
        }
    }
}

struct IdleSource(IdleLoop);

impl InstrSource for IdleSource {
    fn next_instr(&mut self, _stats: &mut StatsCollector) -> Option<softwatt_isa::Instr> {
        Some(self.0.next_instr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SystemConfig {
        SystemConfig {
            time_scale: 40_000.0,
            ..SystemConfig::default()
        }
    }

    /// A policy the disk cannot time is refused up front, not left to
    /// panic inside the disk during the run.
    #[test]
    fn a_disk_policy_the_disk_cannot_time_is_refused() {
        for threshold_s in [f64::NAN, -1.0, f64::INFINITY] {
            let mut config = quick_config();
            config.disk.policy = softwatt_disk::DiskPolicy::Standby { threshold_s };
            let Err(err) = Simulator::new(config) else {
                panic!("a {threshold_s} s threshold is refused")
            };
            assert!(err.contains("spin-down threshold"), "{err}");
        }
    }

    #[test]
    fn jess_runs_to_completion_on_mxs() {
        let sim = Simulator::new(quick_config()).unwrap();
        let run = sim.run_benchmark(Benchmark::Jess);
        assert!(run.cycles > 5_000);
        assert_eq!(run.benchmark, Some(Benchmark::Jess));
        assert!(run.ipc() > 0.3 && run.ipc() < 4.0, "IPC {:.2}", run.ipc());
        assert!(run.mode_cycles(Mode::User) > 0);
        assert!(run.mode_cycles(Mode::KernelInstr) > 0);
        assert!(run.mode_cycles(Mode::Idle) > 0, "class loading must idle");
        assert!(run.disk.requests > 0);
    }

    #[test]
    fn mipsy_model_also_completes() {
        let mut config = quick_config();
        config.cpu = CpuModel::Mipsy;
        let sim = Simulator::new(config).unwrap();
        let run = sim.run_benchmark(Benchmark::Db);
        assert!(
            run.ipc() <= 1.0,
            "Mipsy cannot exceed one IPC, got {:.2}",
            run.ipc()
        );
        assert!(run.cycles > 5_000);
    }

    #[test]
    fn single_issue_is_slower_than_wide() {
        let wide = Simulator::new(quick_config())
            .unwrap()
            .run_benchmark(Benchmark::Db);
        let mut narrow_cfg = quick_config();
        narrow_cfg.cpu = CpuModel::MxsSingleIssue;
        let narrow = Simulator::new(narrow_cfg)
            .unwrap()
            .run_benchmark(Benchmark::Db);
        assert!(
            narrow.cycles > wide.cycles,
            "narrow {} vs wide {}",
            narrow.cycles,
            wide.cycles
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let sim = Simulator::new(quick_config()).unwrap();
        let a = sim.run_benchmark(Benchmark::Jess);
        let b = sim.run_benchmark(Benchmark::Jess);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.log.total_events(), b.log.total_events());
        assert!((a.disk.energy_j - b.disk.energy_j).abs() < 1e-12);
    }

    /// A canned benchmark is nothing but its spec: `run(&b.spec())` and
    /// `capture(&b.spec())` equal the named wrappers bit for bit, apart
    /// from the name tag, and the trace key keeps the descriptor prefixes
    /// every stored entry was written under.
    #[test]
    fn canned_benchmarks_run_as_their_specs() {
        use crate::experiments::WorkloadKey;
        use crate::store::TraceKey;
        use softwatt_stats::swtrace::SWTRACE_VERSION;

        let sim = Simulator::new(quick_config()).unwrap();
        let named = sim.run_benchmark(Benchmark::Jess);
        let spec = sim.run(&Benchmark::Jess.spec());
        assert_eq!(named.benchmark, Some(Benchmark::Jess));
        assert_eq!(spec.benchmark, None, "a spec run carries no name tag");
        assert_eq!(named.cpu, spec.cpu);
        assert_eq!(named.cycles, spec.cycles);
        assert_eq!(named.committed, spec.committed);
        assert_eq!(named.user_instrs, spec.user_instrs);
        assert_eq!(named.log, spec.log, "sample-for-sample log");
        assert_eq!(named.disk, spec.disk);
        assert_eq!(named.disk.energy_j.to_bits(), spec.disk.energy_j.to_bits());
        assert_eq!(named.services.aggregates(), spec.services.aggregates());
        assert_eq!(named.duration_s.to_bits(), spec.duration_s.to_bits());

        let (named_run, named_trace) = sim.run_benchmark_traced(Benchmark::Jess);
        let (spec_run, spec_trace) = sim.capture(&Benchmark::Jess.spec());
        assert_eq!(named_trace, spec_trace, "one capture path");
        assert_eq!(named_run.benchmark, Some(Benchmark::Jess));
        assert_eq!(named_run.log, spec_run.log);

        let config = quick_config();
        let canned = TraceKey::derive(&config, Benchmark::Jess, CpuModel::Mxs);
        assert!(
            canned
                .descriptor()
                .starts_with(&format!("swtrace-v{SWTRACE_VERSION}|jess|")),
            "{}",
            canned.descriptor()
        );
        let spec_key = TraceKey::derive(&config, WorkloadKey::Spec(0xabcd), CpuModel::Mxs);
        assert!(
            spec_key.descriptor().starts_with(&format!(
                "swtrace-v{SWTRACE_VERSION}|spec:000000000000abcd|"
            )),
            "{}",
            spec_key.descriptor()
        );
    }

    /// A capture hands its log's block to its trace: post-processing the
    /// capture run's log fills the memo that the trace's replays read.
    #[test]
    fn capture_shares_its_block_with_its_trace() {
        let config = quick_config();
        let sim = Simulator::new(config.clone()).unwrap();
        let (run, trace) = sim.capture(&Benchmark::Jess.spec());
        assert!(trace.segments.memo().get().is_none());
        let model = PowerModel::new(&config.power_params());
        let table = model.mode_table(&run.log);
        assert!(
            trace.segments.memo().get().is_some(),
            "post-processing the capture log fills the trace's memo"
        );
        let replayed = sim.replay_trace(&trace);
        assert_eq!(model.mode_table(&replayed.log), table);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = quick_config();
        config.sample_interval_cycles = 0;
        assert!(Simulator::new(config).is_err());
    }
}

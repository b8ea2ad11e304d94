//! The benchmark instruction-stream generator.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use softwatt_isa::{DataPattern, FileRef, Instr, InstrSource, MixGenerator, MixSpec, SyscallKind};
use softwatt_stats::{Clocking, StatsCollector};

use crate::spec::{BenchmarkSpec, PhaseSpec};

/// User-space code base of the first phase.
const CODE_BASE: u64 = 0x0001_0000;
/// User-space data base of the first phase.
const DATA_BASE: u64 = 0x1000_0000;
/// PC used for system-call instructions.
const SYSCALL_PC: u64 = 0x0000_f000;
/// Base of the fresh-allocation (GC frontier) region.
const FRESH_BASE: u64 = 0x6000_0000;
/// Pages in the fresh region: `[FRESH_BASE, KSEG_BASE)`. The frontier
/// wraps here so a long high-rate spec recycles pages (GC semantics)
/// instead of walking first-touch stores into kernel address space.
const FRESH_REGION_PAGES: u64 = (0x8000_0000 - FRESH_BASE) / softwatt_isa::PAGE_SIZE;
/// First file id of the warm steady-state working set.
const WARM_FILE_BASE: u32 = 1000;
/// Warm working files per benchmark.
const WARM_FILES: u32 = 8;
/// Bytes warmed per working file.
const WARM_FILE_BYTES: u64 = 128 * 1024;

#[derive(Debug, Clone, Copy)]
enum ScriptItem {
    Call(SyscallKind),
    Chunk(u32),
}

/// An [`InstrSource`] producing one benchmark's user instruction stream:
/// class-loading prologue, phased steady execution with sampled system
/// calls, and timed cold-I/O bursts.
///
/// See the crate docs for an example.
#[derive(Debug)]
pub struct Workload {
    spec: BenchmarkSpec,
    rng: SmallRng,
    budget: u64,
    emitted: u64,
    script: VecDeque<ScriptItem>,
    chunk_remaining: u32,
    chunk_gen: MixGenerator,
    phase_idx: usize,
    phase_end: u64,
    // The phase's `SyscallRates::total`, summed once per phase instead of
    // on every instruction.
    syscall_total: f64,
    gen: MixGenerator,
    burst_cycles: Vec<(u64, u32, u32)>, // (cycle, files, bytes)
    next_burst: usize,
    next_cold_file: u32,
    fresh_pages: u64,
}

fn mix_for(phase: &PhaseSpec, phase_idx: usize) -> MixSpec {
    MixSpec {
        load: phase.load,
        store: phase.store,
        branch: phase.branch,
        fp: phase.fp,
        mul: phase.mul,
        dep_prob: phase.dep_prob,
        branch_stability: phase.branch_stability,
        code_base: CODE_BASE + phase_idx as u64 * 0x4_0000,
        loop_len: phase.loop_len,
        n_loops: phase.n_loops,
        stay_per_loop: phase.stay_per_loop,
        data: DataPattern {
            base: DATA_BASE + phase_idx as u64 * 0x1000_0000,
            hot_bytes: phase.hot_bytes,
            span_bytes: phase.span_bytes,
            hot_frac: phase.hot_frac,
        },
    }
}

impl Workload {
    /// Creates the workload for a spec under the given clocking.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`BenchmarkSpec::validate`].
    pub fn new(spec: BenchmarkSpec, clocking: Clocking, seed: u64) -> Workload {
        spec.validate()
            .unwrap_or_else(|e| panic!("invalid benchmark spec: {e}"));
        let budget = spec
            .user_instr_budget(clocking)
            .unwrap_or_else(|e| panic!("invalid benchmark spec: {e}"));
        let chunk = ((budget as f64 * spec.startup_compute_frac) as u64
            / u64::from(spec.class_files.max(1))) as u32;
        let mut script = VecDeque::new();
        for f in 0..spec.class_files {
            script.push_back(ScriptItem::Call(SyscallKind::Open { file: FileRef(f) }));
            script.push_back(ScriptItem::Call(SyscallKind::Read {
                file: FileRef(f),
                offset: 0,
                bytes: spec.class_file_bytes,
            }));
            script.push_back(ScriptItem::Chunk(chunk));
        }
        let burst_cycles = spec
            .io_bursts
            .iter()
            .map(|b| {
                (
                    clocking.paper_secs_to_cycles(b.at_s),
                    b.files,
                    b.bytes_per_file,
                )
            })
            .collect();
        let phase0 = &spec.phases[0];
        let phase_end = (phase0.frac * budget as f64) as u64;
        let gen = MixGenerator::new(mix_for(phase0, 0));
        let chunk_gen = MixGenerator::new(mix_for(phase0, 0));
        let syscall_total = phase0.syscalls.total();
        Workload {
            next_cold_file: spec.class_files,
            spec,
            rng: SmallRng::seed_from_u64(seed),
            budget,
            emitted: 0,
            script,
            chunk_remaining: 0,
            chunk_gen,
            phase_idx: 0,
            phase_end,
            syscall_total,
            gen,
            burst_cycles,
            next_burst: 0,
            fresh_pages: 0,
        }
    }

    /// The spec driving this workload.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// Virtual data regions the OS should pre-map (checkpoint semantics):
    /// the phases' established working sets. Fresh GC allocations live
    /// outside these regions and fault on first touch.
    pub fn premap_regions(&self) -> Vec<(u64, u64)> {
        self.spec
            .phases
            .iter()
            .enumerate()
            .map(|(idx, p)| (DATA_BASE + idx as u64 * 0x1000_0000, p.span_bytes + 4096))
            .collect()
    }

    /// Files the OS should pre-warm in the file cache (the paper's
    /// checkpoint step): the steady-state working files. Class files stay
    /// cold so the prologue really hits the disk.
    pub fn warm_files(&self) -> Vec<(FileRef, u64)> {
        (0..WARM_FILES)
            .map(|i| (FileRef(WARM_FILE_BASE + i), WARM_FILE_BYTES))
            .collect()
    }

    /// User instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Total user-instruction budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    fn maybe_trigger_burst(&mut self, now_cycle: u64) {
        while self.next_burst < self.burst_cycles.len()
            && self.burst_cycles[self.next_burst].0 <= now_cycle
        {
            let (_, files, bytes) = self.burst_cycles[self.next_burst];
            self.next_burst += 1;
            // Prepend so the burst happens now (front of the script).
            for _ in 0..files {
                let file = FileRef(self.next_cold_file);
                self.next_cold_file += 1;
                self.script.push_front(ScriptItem::Chunk(500));
                self.script.push_front(ScriptItem::Call(SyscallKind::Read {
                    file,
                    offset: 0,
                    bytes,
                }));
                self.script
                    .push_front(ScriptItem::Call(SyscallKind::Open { file }));
            }
        }
    }

    fn advance_phase_if_needed(&mut self) {
        while self.emitted >= self.phase_end && self.phase_idx + 1 < self.spec.phases.len() {
            self.phase_idx += 1;
            let consumed: f64 = self.spec.phases[..=self.phase_idx]
                .iter()
                .map(|p| p.frac)
                .sum();
            self.phase_end = (consumed * self.budget as f64) as u64;
            let phase = &self.spec.phases[self.phase_idx];
            self.syscall_total = phase.syscalls.total();
            self.gen = MixGenerator::new(mix_for(phase, self.phase_idx));
        }
    }

    fn sample_steady_syscall(&mut self) -> Option<SyscallKind> {
        let total = self.syscall_total;
        if total <= 0.0 || self.rng.gen::<f64>() >= total / 1000.0 {
            return None;
        }
        let rates = self.spec.phases[self.phase_idx].syscalls;
        let mean = rates.io_bytes_mean.max(64) as f64;
        let io_bytes = (mean * (0.5 + 1.5 * self.rng.gen::<f64>())) as u32;
        let warm_file = FileRef(WARM_FILE_BASE + self.rng.gen_range(0..WARM_FILES));
        let mut pick = self.rng.gen::<f64>() * total;
        let offset = self
            .rng
            .gen_range(0..WARM_FILE_BYTES.saturating_sub(u64::from(io_bytes)).max(1));
        for (rate, kind) in [
            (
                rates.read,
                SyscallKind::Read {
                    file: warm_file,
                    offset,
                    bytes: io_bytes,
                },
            ),
            (
                rates.write,
                SyscallKind::Write {
                    file: warm_file,
                    bytes: io_bytes,
                },
            ),
            (rates.open, SyscallKind::Open { file: warm_file }),
            (rates.xstat, SyscallKind::Xstat { file: warm_file }),
            (rates.du_poll, SyscallKind::DuPoll),
            (rates.bsd, SyscallKind::Bsd),
        ] {
            if pick < rate {
                return Some(kind);
            }
            pick -= rate;
        }
        None
    }
}

impl InstrSource for Workload {
    fn next_instr(&mut self, stats: &mut StatsCollector) -> Option<Instr> {
        // Bursts anchor to the *work* clock (cycles minus analytically
        // skipped idle), so their trigger points are identical across disk
        // policies and idle-handling modes; under the default handling the
        // two clocks coincide.
        self.maybe_trigger_burst(stats.work_cycle());
        loop {
            if self.chunk_remaining > 0 {
                self.chunk_remaining -= 1;
                self.emitted += 1;
                return Some(self.chunk_gen.next_instr_with(&mut self.rng));
            }
            if let Some(item) = self.script.pop_front() {
                match item {
                    ScriptItem::Call(kind) => {
                        self.emitted += 1;
                        return Some(Instr::syscall(SYSCALL_PC, kind));
                    }
                    ScriptItem::Chunk(n) => {
                        self.chunk_remaining = n;
                        continue;
                    }
                }
            }
            if self.emitted >= self.budget {
                return None;
            }
            self.advance_phase_if_needed();
            if let Some(kind) = self.sample_steady_syscall() {
                self.emitted += 1;
                return Some(Instr::syscall(SYSCALL_PC, kind));
            }
            let fresh_rate = self.spec.phases[self.phase_idx].fresh_per_kinstr;
            if fresh_rate > 0.0 && self.rng.gen::<f64>() < fresh_rate / 1000.0 {
                // First touch of a freshly allocated page (GC frontier).
                let addr =
                    FRESH_BASE + (self.fresh_pages % FRESH_REGION_PAGES) * softwatt_isa::PAGE_SIZE;
                self.fresh_pages += 1;
                self.emitted += 1;
                return Some(Instr::store(SYSCALL_PC + 0x100, None, None, addr));
            }
            self.emitted += 1;
            return Some(self.gen.next_instr_with(&mut self.rng));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{IoBurst, SyscallRates};
    use softwatt_isa::OpClass;

    fn clk() -> Clocking {
        Clocking::scaled(200.0e6, 4000.0)
    }

    fn basic_spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "test".into(),
            duration_s: 2.0,
            assumed_ipc: 1.5,
            class_files: 3,
            class_file_bytes: 8192,
            startup_compute_frac: 0.02,
            cacheflush_per_kinstr: 0.0,
            phases: vec![
                PhaseSpec {
                    name: "startup".into(),
                    frac: 0.1,
                    load: 0.2,
                    store: 0.06,
                    branch: 0.15,
                    fp: 0.0,
                    mul: 0.01,
                    dep_prob: 0.35,
                    branch_stability: 0.9,
                    hot_bytes: 32 * 1024,
                    span_bytes: 256 * 1024,
                    hot_frac: 0.98,
                    loop_len: 64,
                    n_loops: 4,
                    stay_per_loop: 1024,
                    syscalls: SyscallRates::default(),
                    fresh_per_kinstr: 0.0,
                },
                PhaseSpec {
                    name: "steady".into(),
                    frac: 0.9,
                    load: 0.28,
                    store: 0.09,
                    branch: 0.16,
                    fp: 0.02,
                    mul: 0.01,
                    dep_prob: 0.3,
                    branch_stability: 0.94,
                    hot_bytes: 64 * 1024,
                    span_bytes: 1024 * 1024,
                    hot_frac: 0.98,
                    loop_len: 96,
                    n_loops: 6,
                    stay_per_loop: 4096,
                    syscalls: SyscallRates {
                        read: 0.2,
                        xstat: 0.05,
                        io_bytes_mean: 2048,
                        ..SyscallRates::default()
                    },
                    fresh_per_kinstr: 0.05,
                },
            ],
            io_bursts: vec![IoBurst {
                at_s: 1.0,
                files: 2,
                bytes_per_file: 16384,
            }],
        }
    }

    fn drain(w: &mut Workload, stats: &mut StatsCollector) -> Vec<Instr> {
        let mut v = Vec::new();
        while let Some(i) = w.next_instr(stats) {
            v.push(i);
            stats.tick(); // crude 1 IPC clock for burst triggering
            assert!(v.len() < 10_000_000);
        }
        v
    }

    #[test]
    fn prologue_opens_and_reads_every_class_file() {
        let mut stats = StatsCollector::new(clk(), 100_000);
        let mut w = Workload::new(basic_spec(), clk(), 1);
        let instrs = drain(&mut w, &mut stats);
        let opens = instrs
            .iter()
            .filter(|i| matches!(i.syscall, Some(SyscallKind::Open { file }) if file.0 < 3))
            .count();
        let reads = instrs
            .iter()
            .filter(|i| matches!(i.syscall, Some(SyscallKind::Read { file, .. }) if file.0 < 3))
            .count();
        assert_eq!(opens, 3);
        assert_eq!(reads, 3);
        // The class-file syscalls come before the bulk of execution.
        let last_class_read = instrs
            .iter()
            .rposition(|i| matches!(i.syscall, Some(SyscallKind::Read { file, .. }) if file.0 < 3))
            .unwrap();
        assert!(last_class_read < instrs.len() / 4);
    }

    #[test]
    fn budget_bounds_emission() {
        let mut stats = StatsCollector::new(clk(), 100_000);
        let mut w = Workload::new(basic_spec(), clk(), 2);
        let budget = w.budget();
        let instrs = drain(&mut w, &mut stats);
        // Script items may push total slightly past the phase budget.
        assert!(instrs.len() as u64 >= budget);
        assert!((instrs.len() as u64) < budget + 10_000);
    }

    #[test]
    fn timed_burst_reads_cold_files() {
        let mut stats = StatsCollector::new(clk(), 100_000);
        let mut w = Workload::new(basic_spec(), clk(), 3);
        let instrs = drain(&mut w, &mut stats);
        // Burst files are allocated after class files (ids >= 3, < warm base).
        let burst_reads: Vec<_> = instrs
            .iter()
            .filter_map(|i| match i.syscall {
                Some(SyscallKind::Read { file, .. }) if file.0 >= 3 && file.0 < 1000 => Some(file),
                _ => None,
            })
            .collect();
        assert_eq!(burst_reads.len(), 2, "two cold burst files");
    }

    #[test]
    fn steady_syscalls_appear_at_roughly_configured_rate() {
        let mut stats = StatsCollector::new(clk(), 100_000);
        let mut w = Workload::new(basic_spec(), clk(), 4);
        let instrs = drain(&mut w, &mut stats);
        let n = instrs.len() as f64;
        let warm_reads = instrs
            .iter()
            .filter(|i| matches!(i.syscall, Some(SyscallKind::Read { file, .. }) if file.0 >= 1000))
            .count() as f64;
        // 0.2 per kinstr over ~90% of the run.
        let expected = n * 0.9 * 0.2 / 1000.0;
        assert!(
            warm_reads > expected * 0.5 && warm_reads < expected * 2.0,
            "warm reads {warm_reads} vs expected {expected}"
        );
    }

    #[test]
    fn phases_change_the_code_region() {
        let mut stats = StatsCollector::new(clk(), 100_000);
        let mut w = Workload::new(basic_spec(), clk(), 5);
        let instrs = drain(&mut w, &mut stats);
        let early_pc = instrs[50].pc;
        let late = &instrs[instrs.len() - 100];
        assert!(
            late.pc >= CODE_BASE + 0x4_0000,
            "steady phase uses its own code region"
        );
        assert!(early_pc < CODE_BASE + 0x4_0000 || instrs[50].syscall.is_some());
    }

    #[test]
    fn data_addresses_are_user_space() {
        let mut stats = StatsCollector::new(clk(), 100_000);
        let mut w = Workload::new(basic_spec(), clk(), 6);
        for i in drain(&mut w, &mut stats) {
            if let Some(a) = i.mem_addr {
                assert!(!softwatt_isa::is_kernel_addr(a), "user data at {a:#x}");
            }
            assert!(i.validate().is_ok());
            assert_ne!(i.op, OpClass::Eret, "user code never erets");
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed| {
            let mut stats = StatsCollector::new(clk(), 100_000);
            let mut w = Workload::new(basic_spec(), clk(), seed);
            drain(&mut w, &mut stats)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn warm_files_are_disjoint_from_cold_files() {
        let w = Workload::new(basic_spec(), clk(), 9);
        for (f, bytes) in w.warm_files() {
            assert!(f.0 >= 1000);
            assert!(bytes > 0);
        }
    }
}

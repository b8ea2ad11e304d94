//! The assembled OS model: one instruction-source facade over user code,
//! kernel services, and the idle process.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use softwatt_disk::Disk;
use softwatt_isa::{page_number, CpuEvent, FileRef, Instr, InstrSource, SyscallKind};
use softwatt_mem::MemHierarchy;
use softwatt_stats::{Clocking, Mode, StatsCollector, TraceRequest};

use crate::bodies::{BodyStep, Directive, ServiceBody};
use crate::{FileCache, IdleLoop, KernelService, OsConfig};

/// A hardware side effect the OS scheduled but that requires the memory
/// hierarchy to apply; the simulator main loop drains these each cycle via
/// [`SystemOs::apply_deferred`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeferredOp {
    /// Install a TLB entry for the page containing this address.
    TlbFill(u64),
    /// Invalidate both L1 caches.
    FlushL1,
}

/// The OS model and instruction-stream multiplexer.
///
/// `SystemOs` owns the disk (requests never bypass the kernel), the file
/// cache, and the page map, and layers kernel activity over a user
/// workload:
///
/// - it implements [`InstrSource`]; the CPU fetches every instruction
///   through it;
/// - the simulator forwards [`CpuEvent`]s to [`SystemOs::handle_event`],
///   which pushes kernel-service bodies onto the activity stack;
/// - while the user process is blocked on a disk request, the facade yields
///   the busy-waiting idle loop in [`Mode::Idle`].
///
/// Mode switching and service attribution frames are applied exactly at
/// stream boundaries; system calls, faults, and service returns all
/// serialize the pipeline, so frames are clean (see `softwatt-cpu` docs).
pub struct SystemOs {
    config: OsConfig,
    rng: SmallRng,
    disk: Disk,
    file_cache: FileCache,
    mapped_pages: HashSet<u64>,
    user: Box<dyn InstrSource>,
    idle: IdleLoop,
    stack: Vec<ServiceBody>,
    blocked_until: Option<u64>,
    idle_frame_open: bool,
    // Analytic idle handling: while blocked the facade stalls (returns
    // `None` with `stalled() == true`) instead of scheduling the idle
    // loop; the simulator driver fast-forwards the gap arithmetically.
    analytic_idle: bool,
    // When capturing a performance trace: the disk request stream in
    // work-relative time.
    request_log: Option<Vec<TraceRequest>>,
    timer_interval_cycles: u64,
    next_timer_cycle: u64,
    next_cacheflush_at: Option<u64>,
    deferred: Vec<DeferredOp>,
    user_done: bool,
    user_instrs: u64,
    syscall_counts: u64,
}

impl std::fmt::Debug for SystemOs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemOs")
            .field("user_instrs", &self.user_instrs)
            .field("syscalls", &self.syscall_counts)
            .field("stack_depth", &self.stack.len())
            .field("blocked_until", &self.blocked_until)
            .field("user_done", &self.user_done)
            .finish_non_exhaustive()
    }
}

impl SystemOs {
    /// Creates the OS over a user workload and a disk.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`OsConfig::validate`].
    pub fn new(
        config: OsConfig,
        clocking: Clocking,
        disk: Disk,
        user: Box<dyn InstrSource>,
    ) -> SystemOs {
        config.validate().expect("invalid OS configuration");
        let timer_interval_cycles = clocking.paper_secs_to_cycles(config.timer_interval_s);
        let mut os = SystemOs {
            config,
            rng: SmallRng::seed_from_u64(config.seed),
            disk,
            file_cache: FileCache::new(config.file_cache_blocks),
            mapped_pages: HashSet::new(),
            user,
            idle: IdleLoop::new(),
            stack: Vec::new(),
            blocked_until: None,
            idle_frame_open: false,
            analytic_idle: false,
            request_log: None,
            timer_interval_cycles,
            next_timer_cycle: timer_interval_cycles,
            next_cacheflush_at: None,
            deferred: Vec::new(),
            user_done: false,
            user_instrs: 0,
            syscall_counts: 0,
        };
        os.schedule_next_cacheflush();
        os
    }

    /// Pre-loads the first `bytes` of `file` into the file cache (the
    /// paper's warm-checkpoint step).
    pub fn warm_file(&mut self, file: FileRef, bytes: u64) {
        self.file_cache.warm(file, bytes);
    }

    /// Marks a virtual address range as already mapped (zero-filled before
    /// the checkpoint), so touching it takes the fast `utlb` path instead
    /// of the first-touch `vfault`/`demand_zero` chain. The paper's
    /// checkpoints were taken after boot and warm-up, when the resident
    /// working set was largely mapped.
    pub fn premap_region(&mut self, base: u64, bytes: u64) {
        let first = page_number(base);
        let last = page_number(base + bytes.max(1) - 1);
        for vpn in first..=last {
            self.mapped_pages.insert(vpn);
        }
    }

    /// Pages currently mapped (for tests/reports).
    pub fn mapped_pages(&self) -> usize {
        self.mapped_pages.len()
    }

    /// Whether the user program has exited and all kernel work drained.
    pub fn finished(&self) -> bool {
        self.user_done && self.stack.is_empty() && self.blocked_until.is_none()
    }

    /// Cycle until which the user process is blocked on the disk, if any —
    /// the hook for the paper's §3.3 idle fast-forwarding.
    pub fn blocked_until(&self) -> Option<u64> {
        self.blocked_until
    }

    /// Switches idle handling: when on, a blocked process makes the facade
    /// stall (`next_instr` returns `None` with [`InstrSource::stalled`]
    /// reporting `true`) instead of yielding idle-loop instructions. The
    /// driver then accounts for the gap analytically and calls
    /// [`SystemOs::complete_block`].
    pub fn set_analytic_idle(&mut self, on: bool) {
        self.analytic_idle = on;
    }

    /// Resolves an analytic stall: clears the block and shifts the clock-
    /// interrupt schedule by the skipped gap, so timers fire at identical
    /// *work* points regardless of how long the disk kept us waiting. This
    /// is what makes the instruction stream policy-independent.
    pub fn complete_block(&mut self, gap: u64) {
        debug_assert!(self.analytic_idle, "complete_block is analytic-only");
        self.blocked_until = None;
        self.next_timer_cycle += gap;
    }

    /// Starts logging disk requests in work-relative time (for building a
    /// [`softwatt_stats::PerfTrace`]).
    pub fn start_request_capture(&mut self) {
        self.request_log = Some(Vec::new());
    }

    /// Takes the captured request stream (empty if capture was never on).
    pub fn take_request_log(&mut self) -> Vec<TraceRequest> {
        self.request_log.take().unwrap_or_default()
    }

    /// User instructions delivered so far.
    pub fn user_instructions(&self) -> u64 {
        self.user_instrs
    }

    /// System calls dispatched so far.
    pub fn syscalls_dispatched(&self) -> u64 {
        self.syscall_counts
    }

    /// Read access to the file cache (for reports/tests).
    pub fn file_cache(&self) -> &FileCache {
        &self.file_cache
    }

    /// The disk, consumed for its end-of-run report.
    pub fn into_disk(self) -> Disk {
        self.disk
    }

    /// Applies side effects scheduled by kernel bodies this cycle to the
    /// memory hierarchy, draining the queue in place.
    ///
    /// The queue's capacity is reused across cycles, so the simulator's
    /// per-cycle driver loop never allocates here (the old `take_deferred`
    /// returned a fresh `Vec` every cycle).
    pub fn apply_deferred(&mut self, mem: &mut MemHierarchy, stats: &mut StatsCollector) {
        for op in self.deferred.drain(..) {
            match op {
                DeferredOp::TlbFill(vaddr) => mem.tlb_insert(vaddr, stats),
                DeferredOp::FlushL1 => {
                    mem.flush_l1();
                }
            }
        }
    }

    /// Reacts to an architectural event raised by the CPU.
    pub fn handle_event(&mut self, event: CpuEvent, stats: &mut StatsCollector) {
        match event {
            CpuEvent::SyscallRetired(kind) => self.dispatch_syscall(kind, stats),
            CpuEvent::TlbMiss { vaddr } => self.dispatch_tlb_miss(vaddr, stats),
        }
    }

    fn dispatch_syscall(&mut self, kind: SyscallKind, stats: &mut StatsCollector) {
        self.syscall_counts += 1;
        let body = match kind {
            SyscallKind::Read {
                file,
                offset,
                bytes,
            } => {
                let cached = self.file_cache.covers(file, offset, u64::from(bytes));
                ServiceBody::read(file, offset, bytes, cached)
            }
            SyscallKind::Write { file, bytes } => {
                // Write-behind: blocks enter the cache dirty; no disk I/O
                // on the call itself.
                self.file_cache.insert_range(file, 0, u64::from(bytes));
                ServiceBody::write(file, bytes)
            }
            SyscallKind::Open { .. } => ServiceBody::open(self.rng.gen_range(2..=6)),
            SyscallKind::Xstat { .. } => ServiceBody::xstat(),
            SyscallKind::DuPoll => ServiceBody::du_poll(),
            SyscallKind::Bsd => ServiceBody::bsd(),
        };
        self.push_service(body, stats);
    }

    fn dispatch_tlb_miss(&mut self, vaddr: u64, stats: &mut StatsCollector) {
        let vpn = page_number(vaddr);
        let first_touch = self.mapped_pages.insert(vpn);
        if first_touch {
            // utlb finds an invalid PTE; the fault chains through
            // (optionally) vfault into demand_zero, which zero-fills the
            // page. The refill itself is applied by the OS.
            self.deferred.push(DeferredOp::TlbFill(vaddr));
            self.push_service(ServiceBody::demand_zero(vaddr), stats);
            if self.rng.gen::<f64>() < self.config.vfault_frac {
                self.push_service(ServiceBody::vfault(), stats);
            }
            self.push_service(ServiceBody::utlb(vaddr, false), stats);
        } else if self.rng.gen::<f64>() < self.config.tlb_slow_path_prob {
            self.push_service(ServiceBody::tlb_miss(vaddr), stats);
            self.push_service(ServiceBody::utlb(vaddr, false), stats);
        } else {
            self.push_service(ServiceBody::utlb(vaddr, true), stats);
        }
    }

    fn push_service(&mut self, body: ServiceBody, stats: &mut StatsCollector) {
        stats.enter_service(body.service().id());
        stats.set_mode(Mode::KernelInstr);
        self.stack.push(body);
    }

    fn apply_directive(&mut self, directive: Directive, stats: &mut StatsCollector) {
        match directive {
            Directive::DiskRead {
                file,
                offset,
                bytes,
            } => {
                let now = stats.cycle();
                let done = self.disk.submit(now, u64::from(bytes));
                if let Some(log) = self.request_log.as_mut() {
                    log.push(TraceRequest {
                        work_submit: stats.work_cycle(),
                        bytes: u64::from(bytes),
                    });
                }
                self.file_cache.insert_range(file, offset, u64::from(bytes));
                self.blocked_until = Some(done.max(now + 1));
            }
            Directive::TlbFill { .. } | Directive::FlushL1 => unreachable!(),
        }
    }

    fn schedule_next_cacheflush(&mut self) {
        self.next_cacheflush_at = if self.config.cacheflush_per_kinstr > 0.0 {
            let mean = 1000.0 / self.config.cacheflush_per_kinstr;
            // Geometric-ish gap with mean `mean`.
            let gap = (-self.rng.gen::<f64>().max(1e-12).ln() * mean).max(1.0) as u64;
            Some(self.user_instrs + gap)
        } else {
            None
        };
    }
}

impl InstrSource for SystemOs {
    fn next_instr(&mut self, stats: &mut StatsCollector) -> Option<Instr> {
        loop {
            // Blocked on disk: run the idle process, attributed to the idle
            // pseudo-frame so kernel-service energy stays clean.
            if let Some(until) = self.blocked_until {
                if self.analytic_idle {
                    // The driver fast-forwards the gap arithmetically; we
                    // contribute no instructions, no frame, no mode switch.
                    return None;
                }
                if stats.cycle() < until {
                    if !self.idle_frame_open {
                        stats.enter_service(KernelService::IdleProcess.id());
                        self.idle_frame_open = true;
                    }
                    stats.set_mode(Mode::Idle);
                    return Some(self.idle.next_instr());
                }
                self.blocked_until = None;
                if self.idle_frame_open {
                    stats.exit_service(KernelService::IdleProcess.id());
                    self.idle_frame_open = false;
                }
            }

            // Kernel work in progress.
            if let Some(body) = self.stack.last_mut() {
                match body.next_step(&mut self.rng) {
                    Some(BodyStep::Instr(i, mode)) => {
                        stats.set_mode(mode);
                        return Some(i);
                    }
                    Some(BodyStep::Directive(d)) => {
                        match d {
                            Directive::TlbFill { vaddr } => {
                                self.deferred.push(DeferredOp::TlbFill(vaddr))
                            }
                            Directive::FlushL1 => self.deferred.push(DeferredOp::FlushL1),
                            Directive::DiskRead { .. } => self.apply_directive(d, stats),
                        }
                        continue;
                    }
                    None => {
                        let svc = self.stack.pop().expect("stack non-empty").service();
                        stats.exit_service(svc.id());
                        continue;
                    }
                }
            }

            if !self.user_done {
                // Clock interrupt due?
                if stats.cycle() >= self.next_timer_cycle {
                    self.next_timer_cycle += self.timer_interval_cycles;
                    self.push_service(ServiceBody::clock(), stats);
                    continue;
                }
                // JIT-triggered cacheflush due?
                if let Some(at) = self.next_cacheflush_at {
                    if self.user_instrs >= at {
                        self.schedule_next_cacheflush();
                        self.push_service(ServiceBody::cacheflush(), stats);
                        continue;
                    }
                }
                match self.user.next_instr(stats) {
                    Some(i) => {
                        stats.set_mode(Mode::User);
                        self.user_instrs += 1;
                        return Some(i);
                    }
                    None => {
                        self.user_done = true;
                        continue;
                    }
                }
            }

            return None;
        }
    }

    fn stalled(&self) -> bool {
        self.analytic_idle && self.blocked_until.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softwatt_cpu::{Cpu, MxsConfig, MxsCpu};
    use softwatt_disk::{DiskConfig, DiskPolicy};
    use softwatt_isa::{Instr, Reg, VecSource};
    use softwatt_mem::{MemConfig, MemHierarchy};
    use softwatt_stats::UnitEvent;

    fn clocking() -> Clocking {
        Clocking::scaled(200.0e6, 1_000.0)
    }

    fn make_os(user: Vec<Instr>, config: OsConfig) -> SystemOs {
        let disk = Disk::new(DiskConfig::new(DiskPolicy::IdleWhenNotBusy), clocking());
        SystemOs::new(config, clocking(), disk, Box::new(VecSource::new(user)))
    }

    /// Drives a full MXS machine over the OS until completion; returns the
    /// stats collector and cycle count.
    fn drive(mut os: SystemOs, mem_cfg: MemConfig) -> (SystemOs, StatsCollector, u64) {
        let mut cpu = MxsCpu::new(MxsConfig::default());
        let mut mem = MemHierarchy::new(mem_cfg);
        let mut stats = StatsCollector::new(clocking(), 100_000);
        let mut cycles = 0u64;
        loop {
            let out = cpu.cycle(&mut os, &mut mem, &mut stats);
            if let Some(e) = out.event {
                os.handle_event(e, &mut stats);
            }
            os.apply_deferred(&mut mem, &mut stats);
            stats.tick();
            cycles += 1;
            if out.program_exited && os.finished() {
                break;
            }
            assert!(cycles < 20_000_000, "runaway system test");
        }
        (os, stats, cycles)
    }

    fn user_loads(n: u64, span_pages: u64) -> Vec<Instr> {
        (0..n)
            .map(|i| {
                Instr::load(
                    0x1_0000 + (i % 32) * 4,
                    Reg::int((i % 8) as u8 + 1),
                    None,
                    0x10_0000 + (i * 4096) % (span_pages * 4096),
                )
            })
            .collect()
    }

    #[test]
    fn tlb_miss_runs_utlb_and_fills() {
        // Touch 4 distinct pages twice each: 4 first-touch chains, then hits.
        let mut user = user_loads(4, 4);
        user.extend(user_loads(4, 4));
        let os = make_os(
            user,
            OsConfig {
                vfault_frac: 0.0,
                ..OsConfig::default()
            },
        );
        let (_, stats, _) = drive(os, MemConfig::default());
        let (_, prof) = stats.finish_with_services();
        let utlb = &prof.aggregates()[&KernelService::Utlb.id()];
        assert_eq!(utlb.invocations, 4, "one utlb per distinct page");
        let dz = &prof.aggregates()[&KernelService::DemandZero.id()];
        assert_eq!(dz.invocations, 4, "every first touch zero-fills");
    }

    #[test]
    fn vfault_chains_on_first_touch_when_enabled() {
        let user = user_loads(8, 8);
        let os = make_os(
            user,
            OsConfig {
                vfault_frac: 1.0,
                ..OsConfig::default()
            },
        );
        let (_, stats, _) = drive(os, MemConfig::default());
        let (_, prof) = stats.finish_with_services();
        assert_eq!(
            prof.aggregates()[&KernelService::Vfault.id()].invocations,
            8
        );
    }

    #[test]
    fn syscall_dispatches_matching_service() {
        let user = vec![
            Instr::alu(0x1000, Reg::int(1), None, None),
            Instr::syscall(0x1004, SyscallKind::Open { file: FileRef(1) }),
            Instr::syscall(0x1008, SyscallKind::Bsd),
            Instr::alu(0x100c, Reg::int(2), None, None),
        ];
        let (os, stats, _) = {
            let os = make_os(user, OsConfig::default());
            drive(os, MemConfig::default())
        };
        assert_eq!(os.syscalls_dispatched(), 2);
        let (_, prof) = stats.finish_with_services();
        assert_eq!(prof.aggregates()[&KernelService::Open.id()].invocations, 1);
        assert_eq!(prof.aggregates()[&KernelService::Bsd.id()].invocations, 1);
    }

    #[test]
    fn cold_read_blocks_and_accrues_idle_cycles() {
        let user = vec![Instr::syscall(
            0x1000,
            SyscallKind::Read {
                file: FileRef(7),
                offset: 0,
                bytes: 8192,
            },
        )];
        let os = make_os(user, OsConfig::default());
        let (os, stats, _) = drive(os, MemConfig::default());
        assert!(
            stats.mode_cycles(Mode::Idle) > 1000,
            "disk service time must show up as idle cycles, got {}",
            stats.mode_cycles(Mode::Idle)
        );
        assert!(os.file_cache().misses() >= 1);
        let (_, prof) = stats.finish_with_services();
        // Idle time is attributed to the idle pseudo-frame, not to read.
        let read = &prof.aggregates()[&KernelService::Read.id()];
        let idle = &prof.aggregates()[&KernelService::IdleProcess.id()];
        assert_eq!(idle.invocations, 1, "one blocking wait");
        assert!(
            idle.cycles > 1000,
            "the disk wait is attributed to the idle frame"
        );
        assert!(read.cycles > 0);
    }

    #[test]
    fn warm_read_does_not_block() {
        let user = vec![Instr::syscall(
            0x1000,
            SyscallKind::Read {
                file: FileRef(7),
                offset: 0,
                bytes: 8192,
            },
        )];
        let mut os = make_os(user, OsConfig::default());
        os.warm_file(FileRef(7), 64 * 1024);
        let (_, stats, _) = drive(os, MemConfig::default());
        assert_eq!(
            stats.mode_cycles(Mode::Idle),
            0,
            "file-cache hit must not touch the disk"
        );
    }

    #[test]
    fn repeated_reads_hit_after_first_miss() {
        let call = SyscallKind::Read {
            file: FileRef(3),
            offset: 0,
            bytes: 4096,
        };
        let user = vec![
            Instr::syscall(0x1000, call),
            Instr::syscall(0x1004, call),
            Instr::syscall(0x1008, call),
        ];
        let os = make_os(user, OsConfig::default());
        let (os, _, _) = drive(os, MemConfig::default());
        assert_eq!(os.file_cache().misses(), 1);
        assert_eq!(os.file_cache().hits(), 2);
    }

    #[test]
    fn sync_mode_cycles_appear_for_syscalls_with_locks() {
        let user = vec![Instr::syscall(
            0x1000,
            SyscallKind::Read {
                file: FileRef(1),
                offset: 0,
                bytes: 1024,
            },
        )];
        let mut os = make_os(user, OsConfig::default());
        os.warm_file(FileRef(1), 4096);
        let (_, stats, _) = drive(os, MemConfig::default());
        assert!(stats.mode_cycles(Mode::KernelSync) > 0);
        let t = stats.totals().combined();
        assert!(t.get(UnitEvent::SyncOp) > 0);
    }

    #[test]
    fn mode_cycles_partition_the_run() {
        let user = user_loads(200, 16);
        let os = make_os(user, OsConfig::default());
        let (_, stats, cycles) = drive(os, MemConfig::default());
        let sum: u64 = Mode::ALL.iter().map(|&m| stats.mode_cycles(m)).sum();
        assert_eq!(sum, cycles);
        assert!(stats.mode_cycles(Mode::User) > 0);
        assert!(stats.mode_cycles(Mode::KernelInstr) > 0);
    }

    #[test]
    fn cacheflush_fires_at_configured_rate() {
        let user = user_loads(20_000, 2);
        let os = make_os(
            user,
            OsConfig {
                cacheflush_per_kinstr: 1.0,
                vfault_frac: 0.0,
                ..OsConfig::default()
            },
        );
        let (_, stats, _) = drive(os, MemConfig::default());
        let (_, prof) = stats.finish_with_services();
        let n = prof.aggregates()[&KernelService::CacheFlush.id()].invocations;
        // ~20 expected at 1 per 1000 user instructions.
        assert!((5..=60).contains(&n), "got {n} cacheflushes");
    }

    #[test]
    fn utlb_energy_variance_is_tiny() {
        // Many TLB misses to already-mapped pages (working set > TLB).
        let user = user_loads(30_000, 128);
        let os = make_os(
            user,
            OsConfig {
                vfault_frac: 0.0,
                tlb_slow_path_prob: 0.0,
                ..OsConfig::default()
            },
        );
        let (_, stats, _) = drive(os, MemConfig::default());
        let (_, prof) = stats.finish_with_services();
        let utlb = &prof.aggregates()[&KernelService::Utlb.id()];
        assert!(utlb.invocations > 1000, "working set must thrash the TLB");
        // Cycle-count variance as a proxy pre-power: mean cycles stable.
        let mean = utlb.cycles as f64 / utlb.invocations as f64;
        assert!(mean > 5.0 && mean < 60.0, "utlb mean cycles {mean}");
    }

    #[test]
    fn run_is_deterministic() {
        let mk = || {
            let user = user_loads(5_000, 32);
            make_os(user, OsConfig::default())
        };
        let (_, stats_a, cycles_a) = drive(mk(), MemConfig::default());
        let (_, stats_b, cycles_b) = drive(mk(), MemConfig::default());
        assert_eq!(cycles_a, cycles_b);
        assert_eq!(
            stats_a.totals().combined().total(),
            stats_b.totals().combined().total()
        );
    }
}

//! The MXS model: a MIPS R10000-like out-of-order superscalar.
//!
//! See the crate docs for the fidelity contract. Structure per cycle
//! (oldest work first, matching hardware ordering): commit → complete →
//! issue → dispatch/rename → fetch.
//!
//! Misprediction handling is *oracle-at-fetch*: the fetched instruction
//! carries its actual outcome, so the model knows at fetch time whether the
//! predictor would have gone wrong. Fetch then stalls until the branch
//! resolves plus the front-end refill penalty, and wrong-path energy is
//! charged as [`UnitEvent::WrongPathFetch`] events without simulating bogus
//! instructions (real instructions are never squashed, so synthetic
//! generators never need to replay).

use std::collections::VecDeque;

use softwatt_isa::{CpuEvent, Instr, InstrSource, OpClass, Reg};
use softwatt_mem::MemHierarchy;
use softwatt_stats::{StatsCollector, UnitEvent};

use crate::bpred::{BranchHistoryTable, BranchTargetBuffer, ReturnAddressStack};
use crate::common::{record_execute_events, Cpu, CycleOutcome};
use crate::config::MxsConfig;

#[derive(Debug, Clone, Copy, PartialEq)]
enum SlotState {
    Waiting,
    Issued { complete_at: u64 },
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    instr: Instr,
    state: SlotState,
    mispredicted: bool,
    in_lsq: bool,
    // In-window producers this instruction still waits on; decremented by
    // the producer's completion wakeup. Ready to issue at zero.
    outstanding: u8,
    // TLB fault detected at fetch; raised as an event at commit.
    fault: Option<u64>,
}

impl Slot {
    /// Placeholder filling unoccupied ring entries.
    fn vacant() -> Slot {
        Slot {
            instr: Instr::nop(0),
            state: SlotState::Done,
            mispredicted: false,
            in_lsq: false,
            outstanding: 0,
            fault: None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Fetched {
    instr: Instr,
    fault: Option<u64>,
}

/// Dispatch-time sentinel for "no producer, or producer already observed
/// satisfied" (dependence satisfaction is monotone, so the observation can
/// be memoized).
const DEP_NONE: u64 = u64::MAX;

/// One issuable instruction in the issue stage's scan list: all register
/// dependences satisfied, held back only by issue bandwidth or a
/// functional-unit hazard. Carries the FU class inline so the structural
/// check never touches the slot ring.
#[derive(Debug, Clone, Copy)]
struct ReadyEntry {
    seq: u64,
    fu: softwatt_isa::FuKind,
}

/// The out-of-order CPU model. See the crate docs for an example.
///
/// # Hot-path data layout
///
/// The instruction window is a flat ring of `Slot`s keyed by sequence
/// number: the window is always the contiguous seq range
/// `[front, next_seq)`, and the slot for seq `s` lives at `s & seq_mask`
/// (ring capacity is the window size rounded up to a power of two, so live
/// slots never collide). On top of the ring, two compact index lists keep
/// the per-cycle stage work proportional to the instructions that can
/// actually change state — not to window occupancy:
///
/// * `ready`: seqs of issuable slots in age order (the issue stage's scan
///   and selection priority). Dispatched instructions with outstanding
///   producers are not listed anywhere — each registers in the producer's
///   `consumers` wakeup list and enters `ready` when its outstanding count
///   hits zero (event-driven wakeup, like real tag broadcast),
/// * `inflight`: `(seq, complete_at)` of issued-but-incomplete slots (the
///   complete stage's scan).
///
/// Commit walks `front` forward over `Done` slots. The lists partition the
/// window by state, so no stage rescans slots it cannot act on, and a
/// dependence-stalled window costs nothing per cycle.
#[derive(Debug)]
pub struct MxsCpu {
    config: MxsConfig,
    now: u64,
    bht: BranchHistoryTable,
    btb: BranchTargetBuffer,
    ras: ReturnAddressStack,
    fetch_buffer: VecDeque<Fetched>,
    slots: Box<[Slot]>,
    seq_mask: u64,
    front: u64,
    next_seq: u64,
    ready: Vec<ReadyEntry>,
    inflight: Vec<(u64, u64)>,
    // Completion wakeup lists, indexed like `slots`: consumers[i] holds the
    // seqs of dispatched instructions still waiting on the producer in slot
    // i (a consumer waiting on both operands from one producer appears
    // twice). Drained when the producer is marked `Done`.
    consumers: Box<[Vec<u64>]>,
    last_writer: [Option<u64>; Reg::COUNT],
    lsq_used: usize,
    fetch_stall_until: u64,
    // Fetch halted until this mispredicted branch (by seq) resolves.
    awaiting_branch: Option<u64>,
    // A serializing instruction is in flight; fetch halted.
    draining: bool,
    source_exhausted: bool,
    committed: u64,
    mispredicts: u64,
    branches: u64,
}

impl MxsCpu {
    /// Creates an MXS CPU.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MxsConfig::validate`].
    pub fn new(config: MxsConfig) -> MxsCpu {
        config.validate().expect("invalid MXS configuration");
        let ring = config.window_size.next_power_of_two();
        MxsCpu {
            config,
            now: 0,
            bht: BranchHistoryTable::new(config.bht_entries),
            btb: BranchTargetBuffer::new(config.btb_entries),
            ras: ReturnAddressStack::new(config.ras_entries),
            fetch_buffer: VecDeque::with_capacity(config.fetch_buffer),
            slots: vec![Slot::vacant(); ring].into_boxed_slice(),
            seq_mask: ring as u64 - 1,
            front: 0,
            next_seq: 0,
            ready: Vec::with_capacity(config.window_size),
            inflight: Vec::with_capacity(config.window_size),
            consumers: vec![Vec::new(); ring].into_boxed_slice(),
            last_writer: [None; Reg::COUNT],
            lsq_used: 0,
            fetch_stall_until: 0,
            awaiting_branch: None,
            draining: false,
            source_exhausted: false,
            committed: 0,
            mispredicts: 0,
            branches: 0,
        }
    }

    /// Conditional branches seen and how many mispredicted (for tests and
    /// calibration reports).
    pub fn branch_stats(&self) -> (u64, u64) {
        (self.branches, self.mispredicts)
    }

    #[inline]
    fn slot_index(&self, seq: u64) -> usize {
        (seq & self.seq_mask) as usize
    }

    fn window_len(&self) -> usize {
        (self.next_seq - self.front) as usize
    }

    fn dep_satisfied(&self, dep: u64) -> bool {
        if dep < self.front {
            return true; // producer already committed
        }
        debug_assert!(dep < self.next_seq, "dep points at an undispatched seq");
        match self.slots[self.slot_index(dep)].state {
            SlotState::Done => true,
            SlotState::Issued { complete_at } => complete_at <= self.now,
            SlotState::Waiting => false,
        }
    }

    fn commit_stage(&mut self, stats: &mut StatsCollector) -> (u32, Option<CpuEvent>) {
        let mut committed = 0;
        let mut event = None;
        while committed < self.config.commit_width {
            if self.front == self.next_seq {
                break;
            }
            let idx = self.slot_index(self.front);
            if self.slots[idx].state != SlotState::Done {
                break;
            }
            let slot = self.slots[idx];
            self.front += 1;
            if slot.in_lsq {
                self.lsq_used -= 1;
            }
            let instr = slot.instr;
            if instr.op == OpClass::BranchCond {
                self.bht.update(instr.pc, instr.taken);
                stats.record(UnitEvent::BhtUpdate);
                if instr.taken {
                    self.btb.update(instr.pc, instr.target);
                    stats.record(UnitEvent::BtbUpdate);
                }
            } else if matches!(instr.op, OpClass::Jump | OpClass::Call) {
                self.btb.update(instr.pc, instr.target);
                stats.record(UnitEvent::BtbUpdate);
            }
            committed += 1;
            self.committed += 1;
            if let Some(vaddr) = slot.fault {
                event = Some(CpuEvent::TlbMiss { vaddr });
                self.draining = false;
                break;
            }
            match instr.op {
                OpClass::Syscall => {
                    event = instr.syscall.map(CpuEvent::SyscallRetired);
                    self.draining = false;
                    break;
                }
                OpClass::Eret => {
                    self.draining = false;
                    break;
                }
                _ => {}
            }
        }
        // One batched record per cycle instead of one per instruction;
        // counts land in the same window and mode, so sums are identical.
        stats.record_n(UnitEvent::CommitInstr, u64::from(committed));
        (committed, event)
    }

    fn complete_stage(&mut self, stats: &mut StatsCollector) {
        let now = self.now;
        let mut resolved_awaited = false;
        let awaiting = self.awaiting_branch;
        // Scan only issued-but-incomplete slots; completed entries leave the
        // list. Events recorded here are order-independent within the cycle
        // (windows close only in `tick`), so swap_remove's reordering of the
        // scan is observationally identical to the old full-window walk.
        let mut i = 0;
        while i < self.inflight.len() {
            let (seq, complete_at) = self.inflight[i];
            if complete_at > now {
                i += 1;
                continue;
            }
            self.inflight.swap_remove(i);
            let idx = (seq & self.seq_mask) as usize;
            let slot = &mut self.slots[idx];
            slot.state = SlotState::Done;
            let mispredicted = slot.mispredicted;
            if slot.instr.dest.is_some() {
                // Tag broadcast wakes up window consumers.
                stats.record(UnitEvent::WindowWakeup);
            }
            // Wake registered consumers; those whose last outstanding
            // producer this was become issuable. `ready` is kept sorted by
            // seq so issue priority stays oldest-first.
            if !self.consumers[idx].is_empty() {
                let mut woken = std::mem::take(&mut self.consumers[idx]);
                for &c in &woken {
                    let cslot = &mut self.slots[(c & self.seq_mask) as usize];
                    cslot.outstanding -= 1;
                    if cslot.outstanding == 0 {
                        let entry = ReadyEntry {
                            seq: c,
                            fu: cslot.instr.op.fu(),
                        };
                        let pos = self.ready.partition_point(|e| e.seq < c);
                        self.ready.insert(pos, entry);
                    }
                }
                woken.clear();
                self.consumers[idx] = woken; // keep the allocation
            }
            if mispredicted {
                stats.record(UnitEvent::BranchMispredict);
                stats.record_n(
                    UnitEvent::WrongPathFetch,
                    u64::from(self.config.fetch_width * self.config.mispredict_penalty) / 2,
                );
                self.fetch_stall_until = self
                    .fetch_stall_until
                    .max(now + u64::from(self.config.mispredict_penalty));
                if awaiting == Some(seq) {
                    resolved_awaited = true;
                }
            }
        }
        if resolved_awaited {
            self.awaiting_branch = None;
        }
    }

    fn issue_stage(&mut self, mem: &mut MemHierarchy, stats: &mut StatsCollector) {
        // `ready` holds only issuable entries (dependences satisfied at
        // wakeup time), so an empty list means nothing can issue — the
        // common dependence-stall case costs one branch. Skipped cycles
        // issue nothing and record nothing, exactly like the scan they
        // elide.
        if self.ready.is_empty() {
            return;
        }
        let mut issued = 0;
        let mut int_used = 0;
        let mut fp_used = 0;
        let mut mem_used = 0;
        let now = self.now;

        // `ready` is sorted by seq, so scanning it front-to-back reproduces
        // the old oldest-first window walk over the same candidate set:
        // entries the old walk rejected for unsatisfied dependences never
        // touched the bandwidth or functional-unit counters, so dropping
        // them from the scan changes nothing observable. Issued entries are
        // compacted out in place (`kept` is the write cursor).
        let mut kept = 0;
        let ready_len = self.ready.len();
        for scan in 0..ready_len {
            if issued >= self.config.issue_width {
                // Issue bandwidth exhausted: the tail is untouched, shift
                // it down en bloc.
                self.ready.copy_within(scan..ready_len, kept);
                kept += ready_len - scan;
                break;
            }
            let entry = self.ready[scan];
            // Structural hazards are the only remaining blockers.
            let blocked = match entry.fu {
                softwatt_isa::FuKind::Int => int_used >= self.config.int_units,
                softwatt_isa::FuKind::Fp => fp_used >= self.config.fp_units,
                softwatt_isa::FuKind::Mem => mem_used >= self.config.mem_ports,
                softwatt_isa::FuKind::None => false,
            };
            if blocked {
                self.ready[kept] = entry;
                kept += 1;
                continue;
            }

            // Execute.
            let idx = (entry.seq & self.seq_mask) as usize;
            debug_assert_eq!(self.slots[idx].state, SlotState::Waiting);
            let instr = self.slots[idx].instr;
            let mut latency = u64::from(instr.op.latency());
            if let Some(addr) = instr.mem_addr {
                let is_store = instr.op == OpClass::Store;
                let mem_latency = mem.data_access(addr, is_store, stats);
                stats.record(UnitEvent::LsqSearch);
                latency = if is_store {
                    // Stores retire through the write buffer.
                    u64::from(instr.op.latency())
                } else {
                    u64::from(mem_latency)
                };
            }
            record_execute_events(&instr, stats);
            stats.record(UnitEvent::WindowIssue);
            let complete_at = now + latency;
            self.slots[idx].state = SlotState::Issued { complete_at };
            self.inflight.push((entry.seq, complete_at));
            match entry.fu {
                softwatt_isa::FuKind::Int => int_used += 1,
                softwatt_isa::FuKind::Fp => fp_used += 1,
                softwatt_isa::FuKind::Mem => mem_used += 1,
                softwatt_isa::FuKind::None => {}
            }
            issued += 1;
        }
        self.ready.truncate(kept);
    }

    fn dispatch_stage(&mut self, stats: &mut StatsCollector) {
        let mut dispatched = 0;
        while dispatched < self.config.decode_width {
            let Some(fetched) = self.fetch_buffer.front().copied() else {
                break;
            };
            let instr = fetched.instr;
            let serializes = instr.op.is_serializing() || fetched.fault.is_some();
            if self.window_len() >= self.config.window_size {
                break;
            }
            if instr.op.is_mem() && self.lsq_used >= self.config.lsq_size {
                break;
            }
            if serializes && self.front != self.next_seq {
                break; // serializers enter an empty window only
            }
            self.fetch_buffer.pop_front();
            let mut deps = [DEP_NONE, DEP_NONE];
            if let Some(r) = instr.src1 {
                if let Some(w) = self.last_writer[r.index()] {
                    deps[0] = w;
                }
            }
            if let Some(r) = instr.src2 {
                if let Some(w) = self.last_writer[r.index()] {
                    deps[1] = w;
                }
            }
            // Drop deps already satisfied at dispatch (sound to check once:
            // satisfaction is monotone — committed producers stay
            // committed, `Done` slots only recycle after their seq drops
            // below `front`). What remains needs a completion wakeup.
            for d in &mut deps {
                if *d != DEP_NONE && self.dep_satisfied(*d) {
                    *d = DEP_NONE;
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            if let Some(d) = instr.dest {
                self.last_writer[d.index()] = Some(seq);
            }
            let in_lsq = instr.op.is_mem();
            if in_lsq {
                self.lsq_used += 1;
                stats.record(UnitEvent::LsqInsert);
            }
            let mut outstanding = 0u8;
            for d in deps {
                if d != DEP_NONE {
                    outstanding += 1;
                    self.consumers[(d & self.seq_mask) as usize].push(seq);
                }
            }
            self.slots[(seq & self.seq_mask) as usize] = Slot {
                instr,
                state: SlotState::Waiting,
                mispredicted: false,
                in_lsq,
                outstanding,
                fault: fetched.fault,
            };
            if outstanding == 0 {
                // Issuable immediately; newest seq, so a plain push keeps
                // `ready` sorted.
                self.ready.push(ReadyEntry {
                    seq,
                    fu: instr.op.fu(),
                });
            }
            dispatched += 1;
            if serializes {
                break;
            }
        }
        if dispatched > 0 {
            // Batched like commit: one record per event class per cycle.
            stats.record_n(UnitEvent::DecodeOp, u64::from(dispatched));
            stats.record_n(UnitEvent::RenameAccess, u64::from(dispatched));
            stats.record_n(UnitEvent::WindowInsert, u64::from(dispatched));
        }
    }

    fn fetch_stage(
        &mut self,
        frontend: &mut dyn InstrSource,
        mem: &mut MemHierarchy,
        stats: &mut StatsCollector,
    ) {
        if self.source_exhausted
            || self.draining
            || self.awaiting_branch.is_some()
            || self.now < self.fetch_stall_until
        {
            return;
        }
        if self.fetch_buffer.len() >= self.config.fetch_buffer {
            return;
        }
        let mut fetched = 0;
        stats.record(UnitEvent::FetchCycle);
        while fetched < self.config.fetch_width
            && self.fetch_buffer.len() < self.config.fetch_buffer
        {
            let Some(instr) = frontend.next_instr(stats) else {
                // A stalled frontend (process blocked on I/O under analytic
                // idle handling) resumes later; only a true end-of-stream is
                // permanent.
                if !frontend.stalled() {
                    self.source_exhausted = true;
                }
                break;
            };
            debug_assert!(instr.validate().is_ok());
            let miss_latency = mem.fetch(instr.pc, stats);
            // Software-managed TLB: translate at fetch so the fault
            // serializes the pipeline before the handler runs, keeping
            // service attribution frames clean (see module docs).
            let mut fault = None;
            if let Some(addr) = instr.mem_addr {
                if !mem.translate(addr, stats) {
                    fault = Some(addr);
                }
            }
            let mispredicted = self.predict(&instr, stats);
            if mispredicted {
                // Remember which window seq this will get: it is dispatched
                // later, so track by a sentinel updated at dispatch. We can
                // compute it now: sequence numbers are assigned in dispatch
                // order, and the fetch buffer preserves order, so this
                // instruction's seq is next_seq + buffered instructions.
                self.awaiting_branch = Some(self.next_seq + self.fetch_buffer.len() as u64);
            }
            let serializing = instr.op.is_serializing() || fault.is_some();
            self.fetch_buffer.push_back(Fetched { instr, fault });
            fetched += 1;
            if mispredicted {
                // Mark the buffered instruction for mispredict accounting
                // at resolve time (the slot flag is set during dispatch via
                // awaiting_branch matching).
                break;
            }
            if serializing {
                self.draining = true;
                break;
            }
            if miss_latency > 0 {
                self.fetch_stall_until = self.now + u64::from(miss_latency);
                break;
            }
        }
    }

    /// Propagates the awaited-branch flag onto its window slot once the
    /// seq has been dispatched.
    #[inline]
    fn mark_awaited_branch(&mut self) {
        if let Some(seq) = self.awaiting_branch {
            if seq >= self.front && seq < self.next_seq {
                self.slots[(seq & self.seq_mask) as usize].mispredicted = true;
            }
        }
    }

    /// Consults the predictor structures for `instr`; returns whether the
    /// front end would have gone down the wrong path.
    fn predict(&mut self, instr: &Instr, stats: &mut StatsCollector) -> bool {
        match instr.op {
            OpClass::BranchCond => {
                self.branches += 1;
                stats.record(UnitEvent::BhtLookup);
                let predicted_taken = self.bht.predict(instr.pc);
                let mut wrong = predicted_taken != instr.taken;
                if predicted_taken && instr.taken {
                    stats.record(UnitEvent::BtbLookup);
                    if self.btb.lookup(instr.pc) != Some(instr.target) {
                        wrong = true; // direction right, target unknown
                    }
                }
                if wrong {
                    self.mispredicts += 1;
                }
                wrong
            }
            OpClass::Jump => {
                stats.record(UnitEvent::BtbLookup);
                false // direct target computed in decode
            }
            OpClass::Call => {
                stats.record(UnitEvent::BtbLookup);
                stats.record(UnitEvent::RasAccess);
                self.ras.push(instr.pc.wrapping_add(4));
                false
            }
            OpClass::Return => {
                stats.record(UnitEvent::RasAccess);
                let predicted = self.ras.pop();
                let wrong = predicted != Some(instr.target);
                if wrong {
                    self.mispredicts += 1;
                    self.branches += 1;
                }
                wrong
            }
            _ => false,
        }
    }
}

impl Cpu for MxsCpu {
    fn cycle(
        &mut self,
        frontend: &mut dyn InstrSource,
        mem: &mut MemHierarchy,
        stats: &mut StatsCollector,
    ) -> CycleOutcome {
        // On an event cycle the OS has not yet switched streams (it handles
        // the event after this call returns), so fetching would wrongly
        // observe end-of-stream. Real machines pay a trap-redirect bubble
        // here anyway. The awaited-branch flag is propagated onto its slot
        // after dispatch, once the seq exists in the window.
        let (committed, event) = self.commit_stage(stats);
        self.complete_stage(stats);
        self.issue_stage(mem, stats);
        self.dispatch_stage(stats);
        self.mark_awaited_branch();
        if event.is_none() {
            self.fetch_stage(frontend, mem, stats);
        }

        let program_exited =
            self.source_exhausted && self.fetch_buffer.is_empty() && self.front == self.next_seq;
        self.now += 1;
        CycleOutcome {
            committed,
            event,
            program_exited,
        }
    }

    fn committed_instructions(&self) -> u64 {
        self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softwatt_isa::{FileRef, SyscallKind, VecSource};
    use softwatt_mem::MemConfig;
    use softwatt_stats::Clocking;

    fn rig(config: MxsConfig) -> (MxsCpu, MemHierarchy, StatsCollector) {
        (
            MxsCpu::new(config),
            MemHierarchy::new(MemConfig::default()),
            StatsCollector::new(Clocking::default(), 1_000_000),
        )
    }

    fn run(
        cpu: &mut MxsCpu,
        src: &mut VecSource,
        mem: &mut MemHierarchy,
        stats: &mut StatsCollector,
    ) -> (u64, Vec<CpuEvent>) {
        let mut cycles = 0u64;
        let mut events = Vec::new();
        loop {
            let out = cpu.cycle(src, mem, stats);
            if let Some(e) = out.event {
                events.push(e);
            }
            stats.tick();
            cycles += 1;
            if out.program_exited {
                break;
            }
            assert!(cycles < 2_000_000, "runaway test");
        }
        (cycles, events)
    }

    /// Independent ALU ops in a tight, cache-resident loop.
    fn independent_alu(n: u64) -> VecSource {
        (0..n)
            .map(|i| Instr::alu((i % 16) * 4, Reg::int((i % 8) as u8 + 1), None, None))
            .collect()
    }

    /// A serial dependence chain: each op reads the previous op's result.
    fn dependent_chain(n: u64) -> VecSource {
        (0..n)
            .map(|i| Instr::alu((i % 16) * 4, Reg::int(1), Some(Reg::int(1)), None))
            .collect()
    }

    #[test]
    fn superscalar_exceeds_ipc_one_on_independent_code() {
        let (mut cpu, mut mem, mut stats) = rig(MxsConfig::default());
        let n = 4000;
        let mut src = independent_alu(n);
        let (cycles, _) = run(&mut cpu, &mut src, &mut mem, &mut stats);
        assert_eq!(cpu.committed_instructions(), n);
        let ipc = n as f64 / cycles as f64;
        assert!(
            ipc > 1.5,
            "independent ALU code should exceed IPC 1.5, got {ipc:.2}"
        );
    }

    #[test]
    fn dependence_chain_limits_ipc_to_one() {
        let (mut cpu, mut mem, mut stats) = rig(MxsConfig::default());
        let n = 4000;
        let mut src = dependent_chain(n);
        let (cycles, _) = run(&mut cpu, &mut src, &mut mem, &mut stats);
        let ipc = n as f64 / cycles as f64;
        assert!(ipc < 1.1, "serial chain cannot exceed IPC 1, got {ipc:.2}");
        assert!(ipc > 0.8, "chain should still approach IPC 1, got {ipc:.2}");
    }

    #[test]
    fn single_issue_config_caps_ipc_at_one() {
        let (mut cpu, mut mem, mut stats) = rig(MxsConfig::single_issue());
        let n = 4000;
        let mut src = independent_alu(n);
        let (cycles, _) = run(&mut cpu, &mut src, &mut mem, &mut stats);
        assert!(
            cycles >= n,
            "single-issue cannot beat one instruction per cycle"
        );
    }

    #[test]
    fn int_units_bound_throughput() {
        // 2 INT units => at most 2 ALU ops issued per cycle even at width 4.
        let (mut cpu, mut mem, mut stats) = rig(MxsConfig::default());
        let n = 4000;
        let mut src = independent_alu(n);
        let (cycles, _) = run(&mut cpu, &mut src, &mut mem, &mut stats);
        let ipc = n as f64 / cycles as f64;
        assert!(ipc <= 2.05, "2 int units cap ALU IPC at 2, got {ipc:.2}");
    }

    #[test]
    fn well_predicted_loop_branches_are_cheap() {
        let (mut cpu, mut mem, mut stats) = rig(MxsConfig::default());
        // A loop back-edge always taken: BHT learns it after two updates.
        let n = 2000u64;
        let mut src: VecSource = (0..n)
            .flat_map(|_| {
                vec![
                    Instr::alu(0x100, Reg::int(1), None, None),
                    Instr::alu(0x104, Reg::int(2), None, None),
                    Instr::branch(0x108, Some(Reg::int(1)), true, 0x100),
                ]
            })
            .collect();
        let (_, _) = run(&mut cpu, &mut src, &mut mem, &mut stats);
        let (branches, mispredicts) = cpu.branch_stats();
        assert_eq!(branches, n);
        assert!(
            (mispredicts as f64) < branches as f64 * 0.05,
            "stable branch should be learned: {mispredicts}/{branches}"
        );
    }

    #[test]
    fn random_branches_mispredict_often() {
        let (mut cpu, mut mem, mut stats) = rig(MxsConfig::default());
        // Alternating taken/not-taken defeats a 2-bit counter.
        let n = 1000u64;
        let mut src: VecSource = (0..n)
            .map(|i| Instr::branch(0x100, None, i % 2 == 0, 0x40))
            .collect();
        let (_, _) = run(&mut cpu, &mut src, &mut mem, &mut stats);
        let (branches, mispredicts) = cpu.branch_stats();
        assert!(
            mispredicts as f64 > branches as f64 * 0.3,
            "alternating branch must mispredict frequently: {mispredicts}/{branches}"
        );
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let run_branchy = |taken_fn: fn(u64) -> bool| {
            let (mut cpu, mut mem, mut stats) = rig(MxsConfig::default());
            let n = 2000u64;
            let mut src: VecSource = (0..n)
                .flat_map(|i| {
                    vec![
                        Instr::alu(0x100, Reg::int(1), None, None),
                        Instr::branch(0x108, Some(Reg::int(1)), taken_fn(i), 0x100),
                    ]
                })
                .collect();
            let (cycles, _) = run(&mut cpu, &mut src, &mut mem, &mut stats);
            cycles
        };
        let stable = run_branchy(|_| true);
        let alternating = run_branchy(|i| i % 2 == 0);
        assert!(
            alternating as f64 > stable as f64 * 1.5,
            "mispredicts must slow execution: {alternating} vs {stable}"
        );
    }

    #[test]
    fn syscall_serializes_and_raises_event() {
        let (mut cpu, mut mem, mut stats) = rig(MxsConfig::default());
        let call = SyscallKind::Read {
            file: FileRef(1),
            offset: 0,
            bytes: 128,
        };
        let mut src = VecSource::new(vec![
            Instr::alu(0, Reg::int(1), None, None),
            Instr::syscall(4, call),
            Instr::alu(8, Reg::int(2), None, None),
        ]);
        let (_, events) = run(&mut cpu, &mut src, &mut mem, &mut stats);
        assert_eq!(events, vec![CpuEvent::SyscallRetired(call)]);
        assert_eq!(cpu.committed_instructions(), 3);
    }

    #[test]
    fn tlb_miss_raised_from_user_load() {
        let (mut cpu, mut mem, mut stats) = rig(MxsConfig::default());
        let mut src = VecSource::new(vec![Instr::load(0, Reg::int(1), None, 0x0030_0000)]);
        let (_, events) = run(&mut cpu, &mut src, &mut mem, &mut stats);
        assert!(events.contains(&CpuEvent::TlbMiss { vaddr: 0x0030_0000 }));
    }

    #[test]
    fn loads_overlap_under_the_window() {
        // Independent loads to distinct cold lines: the window lets misses
        // overlap, unlike Mipsy's blocking caches.
        let n = 64u64;
        let make_loads = || -> VecSource {
            (0..n)
                .map(|i| {
                    Instr::load(
                        i * 4,
                        Reg::int((i % 8) as u8 + 1),
                        None,
                        0x8010_0000 + i * 64,
                    )
                })
                .collect()
        };
        let (mut mxs, mut mem1, mut stats1) = rig(MxsConfig::default());
        let mut src1 = make_loads();
        let (mxs_cycles, _) = run(&mut mxs, &mut src1, &mut mem1, &mut stats1);

        let mut mipsy = crate::MipsyCpu::new(crate::MipsyConfig::default());
        let mut mem2 = MemHierarchy::new(MemConfig::default());
        let mut stats2 = StatsCollector::new(Clocking::default(), 1_000_000);
        let mut src2 = make_loads();
        let mut mipsy_cycles = 0u64;
        loop {
            let out = mipsy.cycle(&mut src2, &mut mem2, &mut stats2);
            stats2.tick();
            mipsy_cycles += 1;
            if out.program_exited {
                break;
            }
        }
        assert!(
            mxs_cycles * 2 < mipsy_cycles,
            "OoO window must overlap misses: MXS {mxs_cycles} vs Mipsy {mipsy_cycles}"
        );
    }

    #[test]
    fn window_events_are_recorded() {
        let (mut cpu, mut mem, mut stats) = rig(MxsConfig::default());
        let n = 100;
        let mut src = independent_alu(n);
        run(&mut cpu, &mut src, &mut mem, &mut stats);
        let t = stats.totals().combined();
        assert_eq!(t.get(UnitEvent::WindowInsert), n);
        assert_eq!(t.get(UnitEvent::WindowIssue), n);
        assert_eq!(t.get(UnitEvent::RenameAccess), n);
        assert_eq!(t.get(UnitEvent::CommitInstr), n);
        assert_eq!(t.get(UnitEvent::WindowWakeup), n, "every ALU op has a dest");
    }

    #[test]
    fn lsq_inserts_match_memory_ops() {
        let (mut cpu, mut mem, mut stats) = rig(MxsConfig::default());
        let mut src = VecSource::new(vec![
            Instr::load(0, Reg::int(1), None, 0x8000_0000),
            Instr::store(4, Some(Reg::int(1)), None, 0x8000_0040),
            Instr::alu(8, Reg::int(2), None, None),
        ]);
        run(&mut cpu, &mut src, &mut mem, &mut stats);
        let t = stats.totals().combined();
        assert_eq!(t.get(UnitEvent::LsqInsert), 2);
        assert_eq!(t.get(UnitEvent::LsqSearch), 2);
    }

    #[test]
    fn program_exit_drains_pipeline() {
        let (mut cpu, mut mem, mut stats) = rig(MxsConfig::default());
        let n = 10;
        let mut src = independent_alu(n);
        let (_, _) = run(&mut cpu, &mut src, &mut mem, &mut stats);
        assert_eq!(
            cpu.committed_instructions(),
            n,
            "all instructions commit before exit"
        );
    }
}

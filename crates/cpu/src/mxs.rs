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

use softwatt_isa::{CpuEvent, FuKind, Instr, InstrSource, OpClass, Reg};
use softwatt_mem::MemHierarchy;
use softwatt_stats::{StatsCollector, UnitEvent};

use crate::bpred::{BranchHistoryTable, BranchTargetBuffer, ReturnAddressStack};
use crate::common::{record_execute_events, Cpu, CycleOutcome};
use crate::config::MxsConfig;

/// An instruction with the TLB fault its fetch detected (raised as an
/// event at commit). Both the fetch buffer and the window hold these.
#[derive(Debug, Clone, Copy)]
struct Fetched {
    instr: Instr,
    fault: Option<u64>,
}

impl Fetched {
    /// Placeholder filling unoccupied ring entries.
    fn vacant() -> Fetched {
        Fetched {
            instr: Instr::nop(0),
            fault: None,
        }
    }

    /// Whether the instruction drains the pipeline: it enters an empty
    /// window only, and fetch halts behind it until it commits.
    fn serializes(&self) -> bool {
        self.instr.op.is_serializing() | self.fault.is_some()
    }
}

/// The fetch buffer: a fixed ring whose storage is the configured capacity
/// rounded up to a power of two.
#[derive(Debug)]
struct FetchBuffer {
    entries: Box<[Fetched]>,
    head: usize,
    len: usize,
    capacity: usize,
}

impl FetchBuffer {
    fn new(capacity: usize) -> FetchBuffer {
        FetchBuffer {
            entries: vec![Fetched::vacant(); capacity.next_power_of_two()].into_boxed_slice(),
            head: 0,
            len: 0,
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    fn front(&self) -> Option<&Fetched> {
        (self.len > 0).then(|| &self.entries[self.head])
    }

    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = (self.head + 1) & (self.entries.len() - 1);
        self.len -= 1;
    }

    fn push_back(&mut self, fetched: Fetched) {
        debug_assert!(!self.is_full());
        let tail = (self.head + self.len) & (self.entries.len() - 1);
        self.entries[tail] = fetched;
        self.len += 1;
    }
}

/// Dispatch-time sentinel for "no producer, or producer already observed
/// satisfied" (dependence satisfaction is monotone, so the observation can
/// be memoized).
const DEP_NONE: u64 = u64::MAX;

/// Bit `idx` of a slot mask (one bit per ring slot, one word per 64).
#[inline]
fn bit_get(mask: &[u64], idx: usize) -> bool {
    mask[idx / 64] & (1 << (idx % 64)) != 0
}

#[inline]
fn bit_set(mask: &mut [u64], idx: usize) {
    mask[idx / 64] |= 1 << (idx % 64);
}

#[inline]
fn bit_clear(mask: &mut [u64], idx: usize) {
    mask[idx / 64] &= !(1 << (idx % 64));
}

/// Word `k` of `mask` rotated right by `start` bits: its bit `b` is ring
/// slot `(start + 64 * k + b) % ring`. For a one-word mask this is
/// `rotate_right(start)`. The word count is a power of two.
#[inline]
fn rotated_word(mask: &[u64], start: usize, k: usize) -> u64 {
    let wrap = mask.len() - 1;
    let (word, shift) = (start / 64 + k, start % 64);
    let low = mask[word & wrap];
    if shift == 0 {
        low
    } else {
        (low >> shift) | (mask[(word + 1) & wrap] << (64 - shift))
    }
}

/// The out-of-order CPU model. See the crate docs for an example.
///
/// # Hot-path data layout
///
/// The instruction window is a flat ring of slots keyed by sequence
/// number: the window is always the contiguous seq range
/// `[front, next_seq)`, and the slot for seq `s` lives at `s & seq_mask`
/// (ring capacity is the window size rounded up to a power of two, and to
/// at least 64, so live slots never collide). A slot's state is one bit in
/// one of three slot masks, one `u64` word per 64 slots:
///
/// * `ready`: dispatched with every producer resolved, waiting only for
///   issue bandwidth or a functional unit. Issue reads it in age order;
/// * `inflight`: issued, completing at `complete_at[slot]`;
/// * `done`: complete, waiting to commit.
///
/// A slot in none of them is waiting on `outstanding[slot]` producers.
/// Each such producer holds the consumer's bit in its own `consumers`
/// mask and clears the mask when it completes (event-driven wakeup, like
/// real tag broadcast). Stage work is therefore proportional to the
/// instructions that can change state, not to window occupancy, and a
/// dependence-stalled window costs a few word tests per cycle.
#[derive(Debug)]
pub struct MxsCpu {
    config: MxsConfig,
    now: u64,
    bht: BranchHistoryTable,
    btb: BranchTargetBuffer,
    ras: ReturnAddressStack,
    fetch_buffer: FetchBuffer,
    slots: Box<[Fetched]>,
    seq_mask: u64,
    front: u64,
    next_seq: u64,
    ready: Box<[u64]>,
    inflight: Box<[u64]>,
    done: Box<[u64]>,
    // Per producer slot, `words` words: the slots of dispatched consumers
    // still waiting on it. A consumer reading both operands from one
    // producer holds one bit and counts that producer once.
    consumers: Box<[u64]>,
    words: usize,
    fu: Box<[FuKind]>,
    outstanding: Box<[u8]>,
    complete_at: Box<[u64]>,
    // No in-flight slot completes before this cycle (`u64::MAX` when none
    // is in flight).
    earliest_completion: u64,
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
        let ring = config.window_size.next_power_of_two().max(64);
        let words = ring / 64;
        MxsCpu {
            config,
            now: 0,
            bht: BranchHistoryTable::new(config.bht_entries),
            btb: BranchTargetBuffer::new(config.btb_entries),
            ras: ReturnAddressStack::new(config.ras_entries),
            fetch_buffer: FetchBuffer::new(config.fetch_buffer),
            slots: vec![Fetched::vacant(); ring].into_boxed_slice(),
            seq_mask: ring as u64 - 1,
            front: 0,
            next_seq: 0,
            ready: vec![0; words].into_boxed_slice(),
            inflight: vec![0; words].into_boxed_slice(),
            done: vec![0; words].into_boxed_slice(),
            consumers: vec![0; ring * words].into_boxed_slice(),
            words,
            fu: vec![FuKind::None; ring].into_boxed_slice(),
            outstanding: vec![0; ring].into_boxed_slice(),
            complete_at: vec![0; ring].into_boxed_slice(),
            earliest_completion: u64::MAX,
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

    /// Whether producer `dep` has committed, completed, or completes by
    /// now. The cases are or-ed without short-circuits: which one holds is
    /// random, and every read is in bounds whatever `dep` is (a committed
    /// producer's slot may hold a younger instruction, but then the first
    /// case already holds).
    fn dep_satisfied(&self, dep: u64) -> bool {
        debug_assert!(dep < self.next_seq, "dep points at an undispatched seq");
        let idx = self.slot_index(dep);
        (dep < self.front)
            | bit_get(&self.done, idx)
            | (bit_get(&self.inflight, idx) & (self.complete_at[idx] <= self.now))
    }

    // Stage preconditions. Each stage checks its own, and
    // `skip_inert_cycles` combines the same helpers, so "this cycle does
    // nothing" is never stated twice.

    /// Commit can retire the head of the window. `done` holds window slots
    /// only (set at completion, cleared at commit), so an empty window
    /// reads false.
    fn head_done(&self) -> bool {
        bit_get(&self.done, self.slot_index(self.front))
    }

    /// Some dispatched instruction awaits only issue bandwidth or a unit.
    #[inline]
    fn any_ready(&self) -> bool {
        self.ready.iter().any(|&w| w != 0)
    }

    /// The window has room for `fetched` this cycle: a free slot, a free
    /// LSQ entry for a memory op, and an empty window for a serializer.
    /// Combined without short-circuits, like `dep_satisfied`.
    fn can_dispatch(&self, fetched: &Fetched) -> bool {
        (self.window_len() < self.config.window_size)
            & !(fetched.instr.op.is_mem() & (self.lsq_used >= self.config.lsq_size))
            & !(fetched.serializes() & (self.front != self.next_seq))
    }

    /// The first cycle fetch may run if nothing else changes: never
    /// (`u64::MAX`) while the source is exhausted, a serializer drains, a
    /// mispredicted branch is unresolved or the buffer is full; otherwise
    /// the end of any miss or refill stall.
    fn fetch_resumes_at(&self) -> u64 {
        if self.source_exhausted
            || self.draining
            || self.awaiting_branch.is_some()
            || self.fetch_buffer.is_full()
        {
            u64::MAX
        } else {
            self.fetch_stall_until.max(self.now)
        }
    }

    fn commit_stage(&mut self, stats: &mut StatsCollector) -> (u32, Option<CpuEvent>) {
        let mut committed = 0;
        let mut event = None;
        while committed < self.config.commit_width && self.head_done() {
            let idx = self.slot_index(self.front);
            bit_clear(&mut self.done, idx);
            self.front += 1;
            let slot = &self.slots[idx];
            let instr = &slot.instr;
            self.lsq_used -= usize::from(instr.op.is_mem());
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
        if now < self.earliest_completion {
            return;
        }
        // The awaited mispredicted branch is the only mispredicted
        // instruction in the window: fetch halts at it until it resolves.
        let awaited = self
            .awaiting_branch
            .filter(|&seq| seq < self.next_seq)
            .map(|seq| self.slot_index(seq));
        let mut earliest = u64::MAX;
        for word in 0..self.words {
            // Split the word's in-flight slots into those due now and the
            // rest, whose earliest completion bounds the next scan.
            let mut due = 0;
            let mut bits = self.inflight[word];
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let complete_at = self.complete_at[word * 64 + bit as usize];
                let is_due = complete_at <= now;
                due |= u64::from(is_due) << bit;
                earliest = earliest.min(if is_due { u64::MAX } else { complete_at });
            }
            self.inflight[word] &= !due;
            self.done[word] |= due;
            // Events recorded here are order-independent within the cycle
            // (windows close only in `tick`), so completing in slot order
            // is observationally identical to any other order.
            while due != 0 {
                let idx = word * 64 + due.trailing_zeros() as usize;
                due &= due - 1;
                // Tag broadcast wakes up window consumers.
                stats.record_n(
                    UnitEvent::WindowWakeup,
                    u64::from(self.slots[idx].instr.dest.is_some()),
                );
                // Wake registered consumers; those whose last outstanding
                // producer this was become issuable.
                let base = idx * self.words;
                for cword in 0..self.words {
                    let mut waiting = std::mem::take(&mut self.consumers[base + cword]);
                    while waiting != 0 {
                        let bit = waiting.trailing_zeros();
                        waiting &= waiting - 1;
                        let c = cword * 64 + bit as usize;
                        self.outstanding[c] -= 1;
                        self.ready[cword] |= u64::from(self.outstanding[c] == 0) << bit;
                    }
                }
                if awaited == Some(idx) {
                    stats.record(UnitEvent::BranchMispredict);
                    stats.record_n(
                        UnitEvent::WrongPathFetch,
                        u64::from(self.config.fetch_width * self.config.mispredict_penalty) / 2,
                    );
                    self.fetch_stall_until = self
                        .fetch_stall_until
                        .max(now + u64::from(self.config.mispredict_penalty));
                    self.awaiting_branch = None;
                }
            }
        }
        self.earliest_completion = earliest;
    }

    fn issue_stage(&mut self, mem: &mut MemHierarchy, stats: &mut StatsCollector) {
        // The ready mask holds only issuable slots (dependences satisfied
        // at wakeup time), so an empty mask means nothing can issue and
        // nothing is recorded, exactly like the scan it elides.
        if !self.any_ready() {
            return;
        }
        let mut issued = 0;
        // Units busy this cycle and their counts, indexed by `FuKind`
        // discriminant (`Int`, `Fp`, `Mem`, `None`); a unit-less op never
        // blocks.
        let units = [
            self.config.int_units,
            self.config.fp_units,
            self.config.mem_ports,
            u32::MAX,
        ];
        let mut used = [0u32; 4];
        let now = self.now;
        let ring = self.slots.len();

        // Age order is ring order from `front`'s slot: rotate the mask so
        // bit 0 is that slot and read bits upward. Slots dependences still
        // hold back have no ready bit and never touched the bandwidth or
        // unit counters, so the issued set and the order of
        // `mem.data_access` calls are those of an oldest-first walk over
        // the whole window.
        let start = self.slot_index(self.front);
        'walk: for k in 0..self.words {
            let mut bits = rotated_word(&self.ready, start, k);
            while bits != 0 {
                if issued >= self.config.issue_width {
                    break 'walk;
                }
                let idx = (start + 64 * k + bits.trailing_zeros() as usize) & (ring - 1);
                bits &= bits - 1;
                let fu = self.fu[idx] as usize;
                // Structural hazards are the only remaining blockers.
                if used[fu] >= units[fu] {
                    continue;
                }

                // Execute.
                let instr = &self.slots[idx].instr;
                let mut latency = u64::from(instr.op.latency());
                if let Some(addr) = instr.mem_addr {
                    let is_store = instr.op == OpClass::Store;
                    let mem_latency = mem.data_access(addr, is_store, stats);
                    stats.record(UnitEvent::LsqSearch);
                    if !is_store {
                        // Stores retire through the write buffer.
                        latency = u64::from(mem_latency);
                    }
                }
                record_execute_events(instr, stats);
                stats.record(UnitEvent::WindowIssue);
                let complete_at = now + latency;
                bit_clear(&mut self.ready, idx);
                bit_set(&mut self.inflight, idx);
                self.complete_at[idx] = complete_at;
                self.earliest_completion = self.earliest_completion.min(complete_at);
                used[fu] += 1;
                issued += 1;
            }
        }
    }

    fn dispatch_stage(&mut self, stats: &mut StatsCollector) {
        let mut dispatched = 0;
        while dispatched < self.config.decode_width {
            let Some(fetched) = self.fetch_buffer.front() else {
                break;
            };
            if !self.can_dispatch(fetched) {
                break;
            }
            let instr = &fetched.instr;
            let serializes = fetched.serializes();
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
            // committed, done slots only recycle after their seq drops
            // below `front`). What remains needs a completion wakeup, once
            // per distinct producer.
            for d in &mut deps {
                if *d != DEP_NONE && self.dep_satisfied(*d) {
                    *d = DEP_NONE;
                }
            }
            if deps[1] == deps[0] {
                deps[1] = DEP_NONE;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let idx = self.slot_index(seq);
            if let Some(d) = instr.dest {
                self.last_writer[d.index()] = Some(seq);
            }
            let in_lsq = instr.op.is_mem();
            self.lsq_used += usize::from(in_lsq);
            stats.record_n(UnitEvent::LsqInsert, u64::from(in_lsq));
            let mut outstanding = 0u8;
            for d in deps {
                if d != DEP_NONE {
                    outstanding += 1;
                    let producer = self.slot_index(d);
                    bit_set(
                        &mut self.consumers[producer * self.words..(producer + 1) * self.words],
                        idx,
                    );
                }
            }
            self.fu[idx] = instr.op.fu();
            self.outstanding[idx] = outstanding;
            self.ready[idx / 64] |= u64::from(outstanding == 0) << (idx % 64);
            self.slots[idx] = *fetched;
            self.fetch_buffer.pop_front();
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
        if self.fetch_resumes_at() > self.now {
            return;
        }
        let mut fetched = 0;
        stats.record(UnitEvent::FetchCycle);
        while fetched < self.config.fetch_width && !self.fetch_buffer.is_full() {
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
                // Sequence numbers are assigned in dispatch order and the
                // fetch buffer preserves order, so this instruction's seq
                // is next_seq + buffered instructions. Completion of that
                // seq charges the mispredict and lifts the halt.
                self.awaiting_branch = Some(self.next_seq + self.fetch_buffer.len() as u64);
            }
            let entry = Fetched { instr, fault };
            let serializing = entry.serializes();
            self.fetch_buffer.push_back(entry);
            fetched += 1;
            if mispredicted {
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
        // here anyway.
        let (committed, event) = self.commit_stage(stats);
        self.complete_stage(stats);
        self.issue_stage(mem, stats);
        self.dispatch_stage(stats);
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

    /// Nothing can happen until an in-flight instruction completes or a
    /// fetch stall ends when the head cannot commit, nothing is ready to
    /// issue and the buffer's head cannot dispatch: no stage acts, records
    /// an event or calls the source until then. Such cycles are skipped
    /// whole (never past a completion, so the stall that follows the
    /// awaited branch's resolution is charged from the right cycle).
    #[inline]
    fn skip_inert_cycles(&mut self) -> u64 {
        if self.head_done()
            || self.any_ready()
            || self
                .fetch_buffer
                .front()
                .is_some_and(|f| self.can_dispatch(f))
        {
            return 0;
        }
        let until = self.earliest_completion.min(self.fetch_resumes_at());
        if until == u64::MAX || until <= self.now {
            return 0;
        }
        let skipped = until - self.now;
        self.now = until;
        skipped
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

//! The CPU model trait and shared per-instruction event accounting.

use softwatt_isa::{CpuEvent, Instr, InstrSource, OpClass};
use softwatt_mem::MemHierarchy;
use softwatt_stats::{StatsCollector, UnitEvent};

/// Result of simulating one machine cycle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleOutcome {
    /// Instructions committed this cycle.
    pub committed: u32,
    /// Architectural event the OS must handle, if any (at most one per
    /// cycle; the machine serializes around them).
    pub event: Option<CpuEvent>,
    /// The instruction source reported end-of-program and the pipeline has
    /// drained.
    pub program_exited: bool,
}

/// A cycle-level CPU model.
///
/// The caller (the simulator main loop) invokes [`Cpu::cycle`] once per
/// machine cycle and then advances the [`StatsCollector`] clock itself, so
/// the OS can adjust the software [`softwatt_stats::Mode`] between cycles.
pub trait Cpu {
    /// Simulates one cycle: fetches from `frontend`, accesses `mem`,
    /// records events into `stats`.
    fn cycle(
        &mut self,
        frontend: &mut dyn InstrSource,
        mem: &mut MemHierarchy,
        stats: &mut StatsCollector,
    ) -> CycleOutcome;

    /// Instructions committed since construction.
    fn committed_instructions(&self) -> u64;
}

/// Records the register-file and functional-unit events common to both CPU
/// models for one executing instruction.
pub(crate) fn record_execute_events(instr: &Instr, stats: &mut StatsCollector) {
    let mut reads = 0;
    if instr.src1.is_some() {
        reads += 1;
    }
    if instr.src2.is_some() {
        reads += 1;
    }
    if reads > 0 {
        stats.record_n(UnitEvent::RegRead, reads);
    }
    if instr.dest.is_some() {
        stats.record(UnitEvent::RegWrite);
        stats.record(UnitEvent::ResultBus);
    }
    match instr.op {
        OpClass::IntAlu | OpClass::BranchCond | OpClass::Jump | OpClass::Call | OpClass::Return => {
            stats.record(UnitEvent::AluOp)
        }
        OpClass::IntMul | OpClass::IntDiv => stats.record(UnitEvent::MulOp),
        OpClass::FpAdd => stats.record(UnitEvent::FpAluOp),
        OpClass::FpMul | OpClass::FpDiv => stats.record(UnitEvent::FpMulOp),
        OpClass::Sync => {
            stats.record(UnitEvent::AluOp);
            stats.record(UnitEvent::SyncOp);
        }
        OpClass::Eret => stats.record(UnitEvent::AluOp),
        OpClass::Load | OpClass::Store | OpClass::Syscall | OpClass::Nop => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softwatt_isa::Reg;
    use softwatt_stats::Clocking;

    #[test]
    fn alu_records_reads_write_and_fu() {
        let mut stats = StatsCollector::new(Clocking::default(), 1000);
        let i = Instr::alu(0, Reg::int(1), Some(Reg::int(2)), Some(Reg::int(3)));
        record_execute_events(&i, &mut stats);
        let t = stats.totals().combined();
        assert_eq!(t.get(UnitEvent::RegRead), 2);
        assert_eq!(t.get(UnitEvent::RegWrite), 1);
        assert_eq!(t.get(UnitEvent::AluOp), 1);
        assert_eq!(t.get(UnitEvent::ResultBus), 1);
    }

    #[test]
    fn store_has_no_regwrite() {
        let mut stats = StatsCollector::new(Clocking::default(), 1000);
        let i = Instr::store(0, Some(Reg::int(1)), Some(Reg::int(29)), 0x100);
        record_execute_events(&i, &mut stats);
        let t = stats.totals().combined();
        assert_eq!(t.get(UnitEvent::RegWrite), 0);
        assert_eq!(t.get(UnitEvent::RegRead), 2);
    }

    #[test]
    fn sync_records_sync_op() {
        let mut stats = StatsCollector::new(Clocking::default(), 1000);
        record_execute_events(&Instr::sync(0, 0x100), &mut stats);
        let t = stats.totals().combined();
        assert_eq!(t.get(UnitEvent::SyncOp), 1);
        assert_eq!(t.get(UnitEvent::AluOp), 1);
    }

    #[test]
    fn fp_ops_use_fp_units() {
        let mut stats = StatsCollector::new(Clocking::default(), 1000);
        record_execute_events(
            &Instr::arith(
                OpClass::FpMul,
                0,
                Reg::fp(0),
                Some(Reg::fp(1)),
                Some(Reg::fp(2)),
            ),
            &mut stats,
        );
        let t = stats.totals().combined();
        assert_eq!(t.get(UnitEvent::FpMulOp), 1);
        assert_eq!(t.get(UnitEvent::AluOp), 0);
    }
}

//! Skipping inert cycles is exact: an MXS core stepped cycle by cycle and
//! the same core asked to skip its inert cycles after every cycle without
//! an event finish in the same cycle, with the same commits, the same
//! events at the same cycles and the same sampled log.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softwatt_cpu::{Cpu, MxsConfig, MxsCpu};
use softwatt_isa::{CpuEvent, FileRef, Instr, OpClass, Reg, SyscallKind, VecSource};
use softwatt_mem::{MemConfig, MemHierarchy};
use softwatt_stats::{Clocking, Mode, SimLog, StatsCollector};

/// A seeded random stream built to stall the core in every way it can:
/// loads and stores that miss to L2 and to DRAM, user pages that fault in
/// the TLB, branches that mispredict, integer and FP divides, syscalls,
/// dependence chains, and cold instruction-cache misses on the first pass
/// over a 4 KiB loop. Serializers and mispredicts are rare enough that a
/// 128-entry window fills past 64 entries behind a DRAM miss.
fn stream(seed: u64, n: u64) -> Vec<Instr> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let pc = 0x4_0000 + (i * 4) % (4 * 1024);
            let reg = |rng: &mut SmallRng| Reg::int(rng.gen_range(1..9));
            let src = |rng: &mut SmallRng| rng.gen_bool(0.6).then(|| Reg::int(rng.gen_range(1..9)));
            match rng.gen_range(0..1000u32) {
                // Kernel-segment data: no TLB, a 4 MiB span misses the
                // 1 MiB L2, a 256 KiB one mostly hits it.
                0..=29 => Instr::load(
                    pc,
                    reg(&mut rng),
                    src(&mut rng),
                    0x9000_0000 + rng.gen_range(0..4u64 << 20),
                ),
                30..=179 => Instr::load(
                    pc,
                    reg(&mut rng),
                    src(&mut rng),
                    0x9800_0000 + rng.gen_range(0..256u64 << 10),
                ),
                // User data over 96 pages: TLB faults (the 64-entry TLB
                // thrashes) raised at commit.
                180..=189 => Instr::load(
                    pc,
                    reg(&mut rng),
                    src(&mut rng),
                    0x0100_0000 + rng.gen_range(0..96u64 << 12),
                ),
                190..=249 => Instr::store(
                    pc,
                    src(&mut rng),
                    src(&mut rng),
                    0x9000_0000 + rng.gen_range(0..4u64 << 20),
                ),
                250..=389 => {
                    Instr::branch(pc, src(&mut rng), rng.gen_bool(0.97), pc.wrapping_sub(64))
                }
                390..=409 => Instr::arith(
                    OpClass::IntDiv,
                    pc,
                    reg(&mut rng),
                    src(&mut rng),
                    src(&mut rng),
                ),
                410..=429 => Instr::arith(
                    OpClass::FpDiv,
                    pc,
                    Reg::fp(rng.gen_range(0..4)),
                    Some(Reg::fp(rng.gen_range(0..4))),
                    None,
                ),
                430..=459 => Instr::arith(OpClass::IntMul, pc, reg(&mut rng), src(&mut rng), None),
                460..=461 => Instr::syscall(pc, SyscallKind::Bsd),
                462 => Instr::syscall(
                    pc,
                    SyscallKind::Read {
                        file: FileRef(3),
                        offset: 0,
                        bytes: 512,
                    },
                ),
                _ => Instr::alu(pc, reg(&mut rng), src(&mut rng), src(&mut rng)),
            }
        })
        .collect()
}

struct Finish {
    cycles: u64,
    committed: u64,
    events: Vec<(u64, CpuEvent)>,
    log: SimLog,
}

/// Drives the core to program exit the way the simulator does: events
/// switch the mode (and a TLB fault installs its page), and, when `skip`
/// is set, every cycle without an event is followed by a skip of the
/// inert cycles after it. Returns the finish and the cycles skipped.
fn drive(window_size: usize, instrs: &[Instr], skip: bool) -> (Finish, u64) {
    // The LSQ scales with the window (32 entries at 64, the paper's
    // Table 1), so a 128-entry window really fills past one mask word.
    let mut cpu = MxsCpu::new(MxsConfig {
        window_size,
        lsq_size: window_size / 2,
        ..MxsConfig::default()
    });
    let mut mem = MemHierarchy::new(MemConfig::default());
    // Short windows, so skipped stretches cross window boundaries.
    let mut stats = StatsCollector::new(Clocking::default(), 500);
    let mut src = VecSource::new(instrs.to_vec());
    let mut events = Vec::new();
    let mut skipped = 0;
    loop {
        let out = cpu.cycle(&mut src, &mut mem, &mut stats);
        if let Some(event) = out.event {
            if let CpuEvent::TlbMiss { vaddr } = event {
                mem.tlb_insert(vaddr, &mut stats);
            }
            let mode = match stats.mode() {
                Mode::User => Mode::KernelInstr,
                _ => Mode::User,
            };
            stats.set_mode(mode);
            events.push((stats.cycle(), event));
        }
        stats.tick();
        if out.program_exited {
            break;
        }
        if skip && out.event.is_none() {
            let inert = cpu.skip_inert_cycles();
            skipped += inert;
            stats.tick_n(inert);
        }
        assert!(stats.cycle() < 20_000_000, "runaway");
    }
    let finish = Finish {
        cycles: stats.cycle(),
        committed: cpu.committed_instructions(),
        events,
        log: stats.finish(),
    };
    (finish, skipped)
}

#[test]
fn skipping_inert_cycles_matches_stepping_them() {
    // 64 slots fit one mask word; 128 take two.
    for window_size in [64, 128] {
        for seed in 1..=4 {
            let instrs = stream(seed, 8_000);
            let (stepped, none) = drive(window_size, &instrs, false);
            let (skipping, skipped) = drive(window_size, &instrs, true);
            assert_eq!(none, 0);
            assert_eq!(stepped.committed, instrs.len() as u64);
            assert!(stepped.events.len() > 50, "stream raises events");
            assert!(
                skipped * 5 > stepped.cycles,
                "window {window_size} seed {seed}: only {skipped} of {} cycles skipped",
                stepped.cycles
            );
            assert_eq!(
                stepped.cycles, skipping.cycles,
                "window {window_size} seed {seed}"
            );
            assert_eq!(stepped.committed, skipping.committed);
            assert_eq!(
                stepped.events, skipping.events,
                "window {window_size} seed {seed}"
            );
            assert!(
                stepped.log == skipping.log,
                "window {window_size} seed {seed}: logs differ"
            );
        }
    }
}

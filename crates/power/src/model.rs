//! The assembled processor/memory power model.

use softwatt_mem::CacheGeometry;
use softwatt_stats::{CounterSet, EnergyWeights, UnitEvent};

use crate::array::{ArrayDims, ArrayEnergies};
use crate::cache::cache_energy;
use crate::clock::ClockModel;
use crate::group::{GroupPower, UnitGroup};
use crate::tech::TechParams;
use crate::units::UnitEnergies;

/// Conditional-clocking style, after Wattch's CC1/CC2/CC3 taxonomy. The
/// paper uses the simple style ([`ClockGating::Gated`]): a unit burns full
/// per-access power when used and nothing when idle. The alternatives
/// exist for ablation (see harness X6, `ExperimentSuite::ext_gating_study`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ClockGating {
    /// CC1: no gating — every unit burns its peak power every cycle.
    AlwaysOn,
    /// CC2 (the paper's model): power scales with accesses; idle units
    /// burn nothing.
    #[default]
    Gated,
    /// CC3: like CC2 but idle units retain a residual fraction of their
    /// peak power (imperfect gating).
    GatedWithResidual(f64),
}

/// Structural parameters the power model derives energies from (defaults =
/// paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Technology/operating point.
    pub tech: TechParams,
    /// L1 instruction cache geometry.
    pub il1: CacheGeometry,
    /// L1 data cache geometry.
    pub dl1: CacheGeometry,
    /// Unified L2 geometry.
    pub l2: CacheGeometry,
    /// Fetch width (peak I-cache references per cycle).
    pub fetch_width: u32,
    /// Decode width.
    pub decode_width: u32,
    /// Issue width.
    pub issue_width: u32,
    /// Cache ports (peak D-cache references per cycle).
    pub mem_ports: u32,
    /// Integer units.
    pub int_units: u32,
    /// Floating-point units.
    pub fp_units: u32,
    /// Issue window entries.
    pub window: usize,
    /// Load/store queue entries.
    pub lsq: usize,
    /// BHT entries.
    pub bht: usize,
    /// BTB entries.
    pub btb: usize,
    /// RAS entries.
    pub ras: usize,
    /// TLB entries.
    pub tlb: usize,
    /// Conditional-clocking style (paper: [`ClockGating::Gated`]).
    pub gating: ClockGating,
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams {
            tech: TechParams::default(),
            il1: CacheGeometry::new(32 * 1024, 64, 2),
            dl1: CacheGeometry::new(32 * 1024, 64, 2),
            l2: CacheGeometry::new(1024 * 1024, 128, 2),
            fetch_width: 4,
            decode_width: 4,
            issue_width: 4,
            mem_ports: 1,
            int_units: 2,
            fp_units: 2,
            window: 64,
            lsq: 32,
            bht: 1024,
            btb: 1024,
            ras: 32,
            tlb: 64,
            gating: ClockGating::Gated,
        }
    }
}

/// Per-event energy table plus the clock model — everything the
/// post-processor needs to turn a log into Watts.
///
/// See the crate docs for an example.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    params: PowerParams,
    energy_j: [f64; UnitEvent::COUNT],
    // `UnitGroup::of_event` resolved once per event index, so the window
    // walk (once per sample per mode in the post-processor) is a single
    // pass over the raw counts with no per-event enum dispatch.
    group_of: [Option<UnitGroup>; UnitEvent::COUNT],
    clock: ClockModel,
}

/// Average power of `energy` spent over `cycles` cycles of a `freq_hz`
/// clock (W), per group; zero for an empty window.
pub(crate) fn average_power_w(energy: &GroupPower, cycles: u64, freq_hz: f64) -> GroupPower {
    if cycles == 0 {
        return GroupPower::new();
    }
    let secs = cycles as f64 / freq_hz;
    energy.scaled(1.0 / secs)
}

impl PowerModel {
    /// Builds the model from structural parameters.
    pub fn new(params: &PowerParams) -> PowerModel {
        let tech = &params.tech;
        let il1 = cache_energy(tech, params.il1, 64);
        let dl1 = cache_energy(tech, params.dl1, 64);
        let l2 = cache_energy(tech, params.l2, u64::from(params.l2.line_bytes()));
        let arrays = ArrayEnergies::new(
            tech,
            &ArrayDims {
                regs: 66,
                reg_bits: 64,
                window: params.window as u64,
                lsq: params.lsq as u64,
                bht: params.bht as u64,
                btb: params.btb as u64,
                ras: params.ras as u64,
                tlb: params.tlb as u64,
            },
        );
        let units = UnitEnergies::new(tech);
        let decode_j = tech.e_full(tech.c_alu_op * 0.4);

        let mut e = [0.0; UnitEvent::COUNT];
        let mut set = |ev: UnitEvent, j: f64| e[ev.index()] = j;
        set(UnitEvent::IcacheAccess, il1.access_j);
        set(UnitEvent::IcacheMiss, il1.access_j); // line refill write
        set(UnitEvent::DcacheRead, dl1.access_j);
        set(UnitEvent::DcacheWrite, dl1.access_j);
        set(UnitEvent::DcacheMiss, dl1.access_j);
        set(UnitEvent::L2AccessI, l2.access_j);
        set(UnitEvent::L2AccessD, l2.access_j);
        set(UnitEvent::MemAccess, tech.e_dram_access);
        set(UnitEvent::TlbAccess, arrays.tlb_j);
        set(UnitEvent::TlbWrite, arrays.tlb_j);
        set(UnitEvent::AluOp, units.alu_j);
        set(UnitEvent::MulOp, units.mul_j);
        set(UnitEvent::FpAluOp, units.fp_alu_j);
        set(UnitEvent::FpMulOp, units.fp_mul_j);
        set(UnitEvent::RegRead, arrays.regfile_j);
        set(UnitEvent::RegWrite, arrays.regfile_j);
        set(UnitEvent::RenameAccess, arrays.rename_j);
        set(UnitEvent::WindowInsert, arrays.window_insert_j);
        set(UnitEvent::WindowWakeup, arrays.window_wakeup_j);
        set(UnitEvent::WindowIssue, arrays.window_issue_j);
        set(UnitEvent::LsqInsert, arrays.lsq_insert_j);
        set(UnitEvent::LsqSearch, arrays.lsq_search_j);
        set(UnitEvent::ResultBus, units.result_bus_j);
        set(UnitEvent::BhtLookup, arrays.bht_j);
        set(UnitEvent::BhtUpdate, arrays.bht_j);
        set(UnitEvent::BtbLookup, arrays.btb_j);
        set(UnitEvent::BtbUpdate, arrays.btb_j);
        set(UnitEvent::RasAccess, arrays.ras_j);
        set(UnitEvent::DecodeOp, decode_j);
        set(UnitEvent::WrongPathFetch, il1.access_j + decode_j);

        let mut group_of = [None; UnitEvent::COUNT];
        for &ev in UnitEvent::ALL.iter() {
            group_of[ev.index()] = UnitGroup::of_event(ev);
        }

        PowerModel {
            params: *params,
            energy_j: e,
            group_of,
            clock: ClockModel::new(*tech),
        }
    }

    /// The parameters the model was built from.
    pub fn params(&self) -> &PowerParams {
        &self.params
    }

    /// Energy charged per occurrence of `event` (J).
    pub fn event_energy_j(&self, event: UnitEvent) -> f64 {
        self.energy_j[event.index()]
    }

    /// The clock model.
    pub fn clock(&self) -> &ClockModel {
        &self.clock
    }

    /// Energy of a window of `cycles` cycles with the given event counts,
    /// per group, including clock energy, under the configured
    /// [`ClockGating`] style (J).
    pub fn window_energy_j(&self, events: &CounterSet, cycles: u64) -> GroupPower {
        let gated = self.gated_window_energy_j(events, cycles);
        match self.params.gating {
            ClockGating::Gated => gated,
            ClockGating::AlwaysOn => self.peak_window_energy_j(cycles),
            ClockGating::GatedWithResidual(residual) => {
                let peak = self.peak_window_energy_j(cycles);
                let mut out = GroupPower::new();
                for g in UnitGroup::ALL {
                    let gate = gated.get(g);
                    let idle_headroom = (peak.get(g) - gate).max(0.0);
                    out.add(g, gate + residual.clamp(0.0, 1.0) * idle_headroom);
                }
                out
            }
        }
    }

    fn gated_window_energy_j(&self, events: &CounterSet, cycles: u64) -> GroupPower {
        let mut out = GroupPower::new();
        // One pass over the raw counts in index order — the same
        // accumulation order as the old per-event dispatch, so every
        // group's floating-point sum is bit-identical.
        for (i, &count) in events.counts().iter().enumerate() {
            if count == 0 {
                continue;
            }
            if let Some(group) = self.group_of[i] {
                out.add(group, count as f64 * self.energy_j[i]);
            }
        }
        out.add(UnitGroup::Clock, self.clock.energy_j(events, cycles));
        out
    }

    /// Energy of `cycles` cycles at the structural peak (the CC1 bound).
    fn peak_window_energy_j(&self, cycles: u64) -> GroupPower {
        let secs = cycles as f64 / self.params.tech.freq_hz;
        self.peak_power_w().scaled(secs)
    }

    /// Power with every unit at its structural peak every cycle (W).
    fn peak_power_w(&self) -> GroupPower {
        let cycles = 1_000u64;
        let events = self.max_event_window(cycles);
        let mut out = self.gated_window_energy_j(&events, cycles);
        out = out.scaled(self.params.tech.freq_hz / cycles as f64);
        out
    }

    /// The synthetic event window used by the validation experiment.
    fn max_event_window(&self, cycles: u64) -> CounterSet {
        let p = &self.params;
        let mut events = CounterSet::new();
        let mut at = |ev: UnitEvent, per_cycle: f64| {
            events.add(ev, (per_cycle * cycles as f64) as u64);
        };
        at(UnitEvent::IcacheAccess, f64::from(p.fetch_width));
        // Maximum-power configuration: both data-cache pipelines streaming.
        at(UnitEvent::DcacheRead, 2.0 * f64::from(p.mem_ports));
        at(UnitEvent::L2AccessI, 0.75);
        at(UnitEvent::L2AccessD, 0.75);
        at(UnitEvent::MemAccess, 0.4);
        at(UnitEvent::TlbAccess, f64::from(p.mem_ports));
        at(UnitEvent::AluOp, f64::from(p.int_units));
        at(UnitEvent::FpMulOp, f64::from(p.fp_units));
        at(UnitEvent::RegRead, 2.0 * f64::from(p.issue_width));
        at(UnitEvent::RegWrite, f64::from(p.issue_width));
        at(UnitEvent::RenameAccess, f64::from(p.decode_width));
        at(UnitEvent::WindowInsert, f64::from(p.decode_width));
        at(UnitEvent::WindowWakeup, f64::from(p.issue_width));
        at(UnitEvent::WindowIssue, f64::from(p.issue_width));
        at(UnitEvent::LsqInsert, f64::from(p.mem_ports));
        at(UnitEvent::LsqSearch, f64::from(p.mem_ports));
        at(UnitEvent::ResultBus, f64::from(p.issue_width));
        at(UnitEvent::BhtLookup, 1.0);
        at(UnitEvent::BtbLookup, 1.0);
        at(UnitEvent::BhtUpdate, 1.0);
        at(UnitEvent::BtbUpdate, 0.5);
        at(UnitEvent::RasAccess, 0.5);
        at(UnitEvent::DecodeOp, f64::from(p.decode_width));
        at(UnitEvent::FetchCycle, 1.0);
        events
    }

    /// Average power over a window (W), per group.
    pub fn window_power_w(&self, events: &CounterSet, cycles: u64) -> GroupPower {
        average_power_w(
            &self.window_energy_j(events, cycles),
            cycles,
            self.params.tech.freq_hz,
        )
    }

    /// The validation experiment: CPU power with every unit operating at
    /// its structural peak every cycle (the paper reports 25.3 W for the
    /// R10000 configuration against the data sheet's 30 W).
    pub fn max_power(&self) -> GroupPower {
        self.peak_power_w()
    }

    /// Per-event energy weights for the service profiler's online
    /// per-invocation energy tracking.
    ///
    /// There is deliberately no per-cycle clock charge: kernel-service
    /// energies (the paper's Tables 4/5 and Figure 8) are event-based, and
    /// folding a per-cycle clock term into invocations would let
    /// microarchitectural cycle-count jitter (cold I-cache entries,
    /// pipeline-drain timing) swamp the per-invocation variance the paper
    /// attributes to *data dependence*. Clock energy is attributed at mode
    /// granularity by the post-processor instead.
    pub fn energy_weights(&self) -> EnergyWeights {
        EnergyWeights {
            per_event_j: self.energy_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_power_lands_in_validation_band() {
        let m = PowerModel::new(&PowerParams::default());
        let max = m.max_power();
        // The paper models 25.3 W against a 30 W data sheet; accept a
        // generous band pending calibration (tightened in EXPERIMENTS.md).
        assert!(
            max.total() > 15.0 && max.total() < 35.0,
            "max power {} W",
            max.total()
        );
    }

    #[test]
    fn l1i_dominates_caches_at_max() {
        let m = PowerModel::new(&PowerParams::default());
        let max = m.max_power();
        assert!(max.get(UnitGroup::L1I) > max.get(UnitGroup::L1D));
        assert!(max.get(UnitGroup::L1I) > max.get(UnitGroup::L2I));
    }

    #[test]
    fn idle_window_burns_only_clock() {
        let m = PowerModel::new(&PowerParams::default());
        let p = m.window_power_w(&CounterSet::new(), 1000);
        assert!(p.get(UnitGroup::Clock) > 0.0);
        assert_eq!(p.get(UnitGroup::L1I), 0.0);
        assert_eq!(p.get(UnitGroup::Datapath), 0.0);
    }

    #[test]
    fn power_scales_with_event_rate() {
        let m = PowerModel::new(&PowerParams::default());
        let mut slow = CounterSet::new();
        slow.add(UnitEvent::IcacheAccess, 500);
        let mut fast = CounterSet::new();
        fast.add(UnitEvent::IcacheAccess, 2000);
        let p_slow = m.window_power_w(&slow, 1000).get(UnitGroup::L1I);
        let p_fast = m.window_power_w(&fast, 1000).get(UnitGroup::L1I);
        assert!((p_fast / p_slow - 4.0).abs() < 1e-9);
    }

    #[test]
    fn energy_and_power_are_consistent() {
        let m = PowerModel::new(&PowerParams::default());
        let mut c = CounterSet::new();
        c.add(UnitEvent::AluOp, 1234);
        let cycles = 5000;
        let e = m.window_energy_j(&c, cycles).total();
        let p = m.window_power_w(&c, cycles).total();
        let secs = cycles as f64 / m.params().tech.freq_hz;
        assert!((e - p * secs).abs() < 1e-12);
    }

    #[test]
    fn weights_are_event_based() {
        let m = PowerModel::new(&PowerParams::default());
        let w = m.energy_weights();
        assert_eq!(
            w.per_event_j[UnitEvent::AluOp.index()],
            m.event_energy_j(UnitEvent::AluOp)
        );
    }

    #[test]
    fn zero_cycles_window_is_zero_power() {
        let m = PowerModel::new(&PowerParams::default());
        assert_eq!(m.window_power_w(&CounterSet::new(), 0).total(), 0.0);
    }

    #[test]
    fn gating_styles_are_ordered() {
        let mut events = CounterSet::new();
        events.add(UnitEvent::IcacheAccess, 900);
        events.add(UnitEvent::AluOp, 600);
        events.add(UnitEvent::CommitInstr, 800);
        let cycles = 1000;
        let power = |gating| {
            PowerModel::new(&PowerParams {
                gating,
                ..PowerParams::default()
            })
            .window_power_w(&events, cycles)
            .total()
        };
        let cc1 = power(ClockGating::AlwaysOn);
        let cc2 = power(ClockGating::Gated);
        let cc3 = power(ClockGating::GatedWithResidual(0.2));
        assert!(cc1 > cc3 && cc3 > cc2, "CC1 {cc1} > CC3 {cc3} > CC2 {cc2}");
        // CC3 interpolates exactly.
        let expected_cc3 = cc2 + 0.2 * (cc1 - cc2);
        assert!((cc3 - expected_cc3).abs() < 1e-9);
    }

    #[test]
    fn always_on_ignores_activity() {
        let model = PowerModel::new(&PowerParams {
            gating: ClockGating::AlwaysOn,
            ..PowerParams::default()
        });
        let quiet = model.window_power_w(&CounterSet::new(), 1000).total();
        let mut busy_events = CounterSet::new();
        busy_events.add(UnitEvent::IcacheAccess, 4000);
        let busy = model.window_power_w(&busy_events, 1000).total();
        assert!((quiet - busy).abs() < 1e-9, "CC1 burns peak regardless");
        assert!((quiet - model.max_power().total()).abs() < 1e-9);
    }

    #[test]
    fn single_issue_max_power_is_lower() {
        let wide = PowerModel::new(&PowerParams::default());
        let narrow = PowerModel::new(&PowerParams {
            fetch_width: 1,
            decode_width: 1,
            issue_width: 1,
            ..PowerParams::default()
        });
        assert!(narrow.max_power().total() < wide.max_power().total());
    }
}

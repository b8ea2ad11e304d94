//! Duarte-style clock generation/distribution model with conditional
//! gating.
//!
//! Clock power is a global H-tree (always switching) plus per-domain
//! clocked loads (latches, precharge, drivers) that are gated off when the
//! owning unit is inactive — the paper's "simple conditional clocking
//! model". Domain activity is extracted from the same event counts the
//! rest of the post-processor uses: a domain's load switches in the
//! fraction of cycles in which the domain performed any work.

use softwatt_stats::{CounterSet, UnitEvent};

use crate::TechParams;

/// Clock-gated domains of the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Fetch/decode front end.
    Fetch,
    /// L1 instruction cache.
    Icache,
    /// L1 data cache and LSQ datapath.
    Dcache,
    /// Unified L2.
    L2,
    /// Integer datapath: window, regfile, ALUs, result bus.
    Datapath,
    /// Floating-point pipelines.
    Fpu,
    /// Branch predictor structures.
    Predictor,
}

impl ClockDomain {
    /// All domains.
    pub const ALL: [ClockDomain; 7] = [
        ClockDomain::Fetch,
        ClockDomain::Icache,
        ClockDomain::Dcache,
        ClockDomain::L2,
        ClockDomain::Datapath,
        ClockDomain::Fpu,
        ClockDomain::Predictor,
    ];

    /// Dense index.
    pub fn index(self) -> usize {
        match self {
            ClockDomain::Fetch => 0,
            ClockDomain::Icache => 1,
            ClockDomain::Dcache => 2,
            ClockDomain::L2 => 3,
            ClockDomain::Datapath => 4,
            ClockDomain::Fpu => 5,
            ClockDomain::Predictor => 6,
        }
    }

    /// Number of domains.
    pub const COUNT: usize = 7;
}

/// The clock model: tree capacitance plus gated per-domain loads.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockModel {
    tech: TechParams,
    /// Always-switching global tree capacitance (F).
    pub tree_c: f64,
    /// Per-domain gated load capacitance (F), indexed by
    /// [`ClockDomain::index`].
    pub domain_c: [f64; ClockDomain::COUNT],
}

impl ClockModel {
    /// Builds the default model for an R10000-class die.
    pub fn new(tech: TechParams) -> ClockModel {
        ClockModel {
            tech,
            tree_c: 350.0e-12,
            domain_c: [
                60.0e-12,  // fetch
                120.0e-12, // icache
                120.0e-12, // dcache
                70.0e-12,  // l2
                270.0e-12, // datapath
                120.0e-12, // fpu
                40.0e-12,  // predictor
            ],
        }
    }

    /// Raw per-domain event sums — the numerators of [`ClockModel::activity`].
    fn domain_event_sums(events: &CounterSet) -> [u64; ClockDomain::COUNT] {
        [
            events.get(UnitEvent::FetchCycle) + events.get(UnitEvent::DecodeOp),
            events.get(UnitEvent::IcacheAccess),
            events.get(UnitEvent::DcacheRead) + events.get(UnitEvent::DcacheWrite),
            events.get(UnitEvent::L2AccessI) + events.get(UnitEvent::L2AccessD),
            events.get(UnitEvent::WindowIssue)
                + events.get(UnitEvent::CommitInstr)
                + events.get(UnitEvent::AluOp),
            events.get(UnitEvent::FpAluOp) + events.get(UnitEvent::FpMulOp),
            events.get(UnitEvent::BhtLookup) + events.get(UnitEvent::BtbLookup),
        ]
    }

    /// Fraction of cycles each domain was active, derived from event
    /// counts over `cycles` cycles.
    pub fn activity(events: &CounterSet, cycles: u64) -> [f64; ClockDomain::COUNT] {
        if cycles == 0 {
            return [0.0; ClockDomain::COUNT];
        }
        let c = cycles as f64;
        ClockModel::domain_event_sums(events).map(|n| (n as f64 / c).min(1.0))
    }

    /// Average clock power over a window of `cycles` cycles with the given
    /// event counts (W).
    pub fn power_w(&self, events: &CounterSet, cycles: u64) -> f64 {
        let act = ClockModel::activity(events, cycles);
        let load: f64 = self
            .domain_c
            .iter()
            .zip(act.iter())
            .map(|(c, a)| c * a)
            .sum();
        self.tech.p_per_cycle(self.tree_c + load)
    }

    /// Clock energy over a window (J).
    pub fn energy_j(&self, events: &CounterSet, cycles: u64) -> f64 {
        self.power_w(events, cycles) * cycles as f64 / self.tech.freq_hz
    }

    /// Clock power with every domain fully active (W) — the validation
    /// configuration.
    pub fn max_power_w(&self) -> f64 {
        let load: f64 = self.domain_c.iter().sum();
        self.tech.p_per_cycle(self.tree_c + load)
    }

    /// Average switched clock capacitance per cycle at 50% domain activity
    /// (used by the per-invocation energy-weight approximation).
    pub fn mean_cycle_energy_j(&self) -> f64 {
        let load: f64 = self.domain_c.iter().sum();
        self.tech.e_full(self.tree_c + 0.5 * load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_counters(cycles: u64) -> CounterSet {
        let mut c = CounterSet::new();
        c.add(UnitEvent::FetchCycle, cycles);
        c.add(UnitEvent::IcacheAccess, 2 * cycles);
        c.add(UnitEvent::DcacheRead, cycles / 2);
        c.add(UnitEvent::AluOp, cycles);
        c
    }

    #[test]
    fn idle_machine_still_burns_tree_power() {
        let m = ClockModel::new(TechParams::default());
        let quiet = CounterSet::new();
        let p = m.power_w(&quiet, 1000);
        assert!(p > 0.5, "tree alone should burn watts, got {p}");
        assert!(p < m.max_power_w());
    }

    #[test]
    fn activity_increases_clock_power() {
        let m = ClockModel::new(TechParams::default());
        let quiet = m.power_w(&CounterSet::new(), 1000);
        let busy = m.power_w(&busy_counters(1000), 1000);
        assert!(busy > quiet * 1.2, "busy {busy} vs quiet {quiet}");
    }

    #[test]
    fn max_power_bounds_every_window() {
        let m = ClockModel::new(TechParams::default());
        let busy = m.power_w(&busy_counters(1000), 1000);
        assert!(busy <= m.max_power_w());
    }

    #[test]
    fn activity_saturates_at_one() {
        let mut c = CounterSet::new();
        c.add(UnitEvent::IcacheAccess, 10_000);
        let act = ClockModel::activity(&c, 100);
        assert_eq!(act[ClockDomain::Icache.index()], 1.0);
    }

    #[test]
    fn zero_cycles_is_zero_activity() {
        let act = ClockModel::activity(&CounterSet::new(), 0);
        assert!(act.iter().all(|&a| a == 0.0));
    }

    #[test]
    fn clock_magnitude_is_watts_scale() {
        let m = ClockModel::new(TechParams::default());
        let max = m.max_power_w();
        assert!(max > 1.5 && max < 6.0, "clock max {max}");
    }
}

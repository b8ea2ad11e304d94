//! Post-processing of simulation logs into power profiles and per-mode
//! tables — the paper's offline pipeline (Figure 1's "Analytical Power
//! Models" stage).
//!
//! A log keeps its work windows in a block (see
//! [`softwatt_stats::Segments`]) that a capture run's log shares with its
//! trace and every log replayed from the trace, and those windows'
//! energies do not depend on the disk policy. The first post-processing
//! call on a block therefore computes every work window's energies once
//! and keeps them in the block's memo slot, tagged with its power model;
//! later calls with an equal model read them from there. An idle-gap run
//! computes its first window and one event-free window per call. Every
//! energy is `window_energy_j` of the same counts and cycles, folded in
//! window and mode order, so every result is bit-identical to computing
//! each window directly.

use softwatt_stats::{LogRun, Mode, SimLog, Window};

use crate::group::GroupPower;
use crate::model::PowerModel;

/// One point of a time-resolved power/execution profile (Figures 3 and 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilePoint {
    /// End of the window in paper-time seconds.
    pub t_end_s: f64,
    /// Cycles covered by the window.
    pub cycles: u64,
    /// Cycles per mode within the window.
    pub mode_cycles: [u64; Mode::COUNT],
    /// Average power *while executing in each mode* during the window,
    /// per group (W). Zero for modes that did not occur.
    pub mode_power_w: [GroupPower; Mode::COUNT],
    /// Average power over the whole window (W), per group.
    pub window_power_w: GroupPower,
}

impl ProfilePoint {
    /// Fraction of the window spent in `mode`.
    pub fn mode_share(&self, mode: Mode) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.mode_cycles[mode.index()] as f64 / self.cycles as f64
    }

    /// Window power contribution attributable to `mode` (W): the mode's
    /// energy spread over the whole window — what the paper's stacked
    /// power profiles plot.
    pub fn mode_contribution_w(&self, mode: Mode) -> f64 {
        self.mode_power_w[mode.index()].total() * self.mode_share(mode)
    }
}

/// A time-resolved profile of the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerProfile {
    /// Profile points in time order, one per log sample.
    pub points: Vec<ProfilePoint>,
}

impl PowerProfile {
    /// Peak window-average power over the run (W) and when it occurred.
    ///
    /// The paper focuses on average power but notes the tool also yields
    /// peak power from the same profiles (§3.1, for cooling/DTM design);
    /// the peak is taken over sampling windows, so it is a lower bound on
    /// the true per-cycle peak.
    pub fn peak_power_w(&self) -> Option<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.window_power_w.total(), p.t_end_s))
            .max_by(|a, b| a.0.total_cmp(&b.0))
    }

    /// Average total power over the run (W).
    pub fn average_power_w(&self) -> f64 {
        let total_cycles: u64 = self.points.iter().map(|p| p.cycles).sum();
        if total_cycles == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .points
            .iter()
            .map(|p| p.window_power_w.total() * p.cycles as f64)
            .sum();
        weighted / total_cycles as f64
    }
}

/// Whole-run per-mode energy/power — the data behind Figure 6 and the
/// energy columns of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct ModePowerTable {
    /// Cycles per mode.
    pub mode_cycles: [u64; Mode::COUNT],
    /// Energy per mode, per group (J, machine time).
    pub mode_energy_j: [GroupPower; Mode::COUNT],
    /// Clock frequency used for power conversion.
    pub freq_hz: f64,
}

impl ModePowerTable {
    /// Total cycles.
    pub fn total_cycles(&self) -> u64 {
        self.mode_cycles.iter().sum()
    }

    /// Total energy across modes (J).
    pub fn total_energy_j(&self) -> f64 {
        self.mode_energy_j.iter().map(GroupPower::total).sum()
    }

    /// Fraction of cycles spent in `mode` (Table 2 "Cycles").
    pub fn cycle_fraction(&self, mode: Mode) -> f64 {
        self.mode_cycles[mode.index()] as f64 / self.total_cycles().max(1) as f64
    }

    /// Fraction of energy consumed in `mode` (Table 2 "Energy").
    pub fn energy_fraction(&self, mode: Mode) -> f64 {
        let total = self.total_energy_j();
        if total == 0.0 {
            return 0.0;
        }
        self.mode_energy_j[mode.index()].total() / total
    }

    /// Average power while executing in `mode`, per group (Figure 6).
    pub fn average_power_w(&self, mode: Mode) -> GroupPower {
        let cycles = self.mode_cycles[mode.index()];
        if cycles == 0 {
            return GroupPower::new();
        }
        let secs = cycles as f64 / self.freq_hz;
        self.mode_energy_j[mode.index()].scaled(1.0 / secs)
    }

    /// Run-wide average power, per group (the budget numerator for
    /// Figures 5/7 before the disk is appended).
    pub fn overall_average_power_w(&self) -> GroupPower {
        let secs = self.total_cycles() as f64 / self.freq_hz;
        if secs == 0.0 {
            return GroupPower::new();
        }
        let mut e = GroupPower::new();
        for m in &self.mode_energy_j {
            e.merge(m);
        }
        e.scaled(1.0 / secs)
    }

    /// Energy-delay product (J·s) over the run — the paper's EDP metric.
    pub fn energy_delay_product(&self) -> f64 {
        let secs = self.total_cycles() as f64 / self.freq_hz;
        self.total_energy_j() * secs
    }
}

/// One window's energies (J): one entry per mode with cycles (zero for
/// the others), then the whole window's.
type WindowEnergies = [GroupPower; Mode::COUNT + 1];

/// The memo a power model keeps in a trace block: every work window's
/// energies, in block order, under the model that filled it.
struct BlockMemo {
    model: PowerModel,
    windows: Vec<WindowEnergies>,
}

impl PowerModel {
    /// Replays a log into a time-resolved profile.
    pub fn profile(&self, log: &SimLog) -> PowerProfile {
        let clocking = log.clocking();
        let mut points = Vec::with_capacity(log.len());
        self.for_each_window(log, true, |w, energy| {
            let cycles = w.cycles();
            let mut mode_power_w = [GroupPower::new(); Mode::COUNT];
            for mode in Mode::ALL {
                let mc = w.mode_cycles[mode.index()];
                if mc > 0 {
                    mode_power_w[mode.index()] = self.average_power_w(&energy[mode.index()], mc);
                }
            }
            points.push(ProfilePoint {
                t_end_s: clocking.cycles_to_paper_secs(w.end_cycle),
                cycles,
                mode_cycles: w.mode_cycles,
                mode_power_w,
                window_power_w: self.average_power_w(&energy[Mode::COUNT], cycles),
            });
        });
        PowerProfile { points }
    }

    /// Aggregates a log into the per-mode energy/power table.
    pub fn mode_table(&self, log: &SimLog) -> ModePowerTable {
        let mut mode_cycles = [0u64; Mode::COUNT];
        let mut mode_energy_j = [GroupPower::new(); Mode::COUNT];
        self.for_each_window(log, false, |w, energy| {
            for mode in Mode::ALL {
                let mc = w.mode_cycles[mode.index()];
                if mc == 0 {
                    continue;
                }
                mode_cycles[mode.index()] += mc;
                mode_energy_j[mode.index()].merge(&energy[mode.index()]);
            }
        });
        ModePowerTable {
            mode_cycles,
            mode_energy_j,
            freq_hz: self.params().tech.freq_hz,
        }
    }

    /// Calls `f` on every window of `log`, in order, with its energies.
    /// Work windows read them from the block memo when this model owns
    /// it. An idle gap's full windows after its first carry no events
    /// ([`LogRun::IdleGap`]), so their energies are computed once per
    /// call. Every other window computes them directly (the whole
    /// window's entry only if `whole`).
    fn for_each_window(
        &self,
        log: &SimLog,
        whole: bool,
        mut f: impl FnMut(&Window<'_>, &WindowEnergies),
    ) {
        let memo = self.block_memo(log);
        let mut event_free: Option<WindowEnergies> = None;
        for run in log.runs() {
            match (run, memo) {
                (LogRun::Segment { offset, .. }, Some(memo)) => {
                    for (w, energy) in run.windows().zip(&memo[offset..]) {
                        f(&w, energy);
                    }
                }
                (LogRun::IdleGap { interval, .. }, _) => {
                    for (j, w) in run.windows().enumerate() {
                        if j > 0 && w.cycles() == interval {
                            let energy =
                                event_free.get_or_insert_with(|| self.window_energies(&w, whole));
                            f(&w, energy);
                        } else {
                            f(&w, &self.window_energies(&w, whole));
                        }
                    }
                }
                (run, _) => {
                    for w in run.windows() {
                        f(&w, &self.window_energies(&w, whole));
                    }
                }
            }
        }
    }

    /// One window's energies, the whole window's only if `whole`.
    fn window_energies(&self, w: &Window<'_>, whole: bool) -> WindowEnergies {
        let mut out = [GroupPower::new(); Mode::COUNT + 1];
        for mode in Mode::ALL {
            let mc = w.mode_cycles[mode.index()];
            if mc > 0 {
                out[mode.index()] = self.window_energy_j(w.events.mode(mode), mc);
            }
        }
        if whole {
            out[Mode::COUNT] = self.window_energy_j(&w.events.combined(), w.cycles());
        }
        out
    }

    /// The energies of `log`'s work windows, in block order, if this model
    /// owns the block's memo. The first call on a block fills the memo and
    /// so owns it; a call with any other model gets `None` and caches
    /// nothing. Counts the call once, at this boundary.
    fn block_memo<'a>(&self, log: &'a SimLog) -> Option<&'a [WindowEnergies]> {
        let block = log.block();
        let mut filled = false;
        let memo = block.memo().get_or_init(|| {
            filled = true;
            let windows = block
                .samples()
                .map(|s| self.window_energies(&s.window(), true))
                .collect();
            Box::new(BlockMemo {
                model: self.clone(),
                windows,
            })
        });
        let owned = memo
            .downcast_ref::<BlockMemo>()
            .filter(|memo| memo.model == *self);
        count_post_call(filled, owned.is_some() && !filled);
        owned.map(|memo| &memo.windows[..])
    }
}

/// Counts one `mode_table`/`profile` call, and whether it filled a block
/// memo or was served from one: one flag check per call, never per window.
fn count_post_call(filled: bool, served: bool) {
    if softwatt_obs::enabled() {
        use softwatt_obs::registry::counter;
        counter("power.post_calls").add(1);
        counter("power.memo_fills").add(u64::from(filled));
        counter("power.memo_served").add(u64::from(served));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PowerParams;
    use crate::UnitGroup;
    use softwatt_stats::{Clocking, StatsCollector, UnitEvent};

    /// Builds a log with a busy user phase then a quiet idle phase.
    fn two_phase_log() -> SimLog {
        let mut stats = StatsCollector::new(Clocking::full_speed(200.0e6), 1000);
        stats.set_mode(Mode::User);
        for _ in 0..2000 {
            stats.record_n(UnitEvent::IcacheAccess, 2);
            stats.record(UnitEvent::AluOp);
            stats.record(UnitEvent::CommitInstr);
            stats.tick();
        }
        stats.set_mode(Mode::Idle);
        for _ in 0..2000 {
            stats.record(UnitEvent::IcacheAccess);
            stats.tick();
        }
        stats.finish()
    }

    #[test]
    fn profile_covers_every_sample() {
        let model = PowerModel::new(&PowerParams::default());
        let log = two_phase_log();
        let profile = model.profile(&log);
        assert_eq!(profile.points.len(), log.windows().count());
        assert!(profile.average_power_w() > 0.0);
    }

    #[test]
    fn busy_windows_burn_more_than_idle_windows() {
        let model = PowerModel::new(&PowerParams::default());
        let profile = model.profile(&two_phase_log());
        let busy = profile.points.first().unwrap().window_power_w.total();
        let idle = profile.points.last().unwrap().window_power_w.total();
        assert!(busy > idle, "busy {busy} vs idle {idle}");
        // ...but idle is NOT free: busy-waiting keeps clock + L1I going,
        // the paper's point about the IRIX idle loop.
        assert!(idle > 0.5, "idle must burn real power, got {idle}");
    }

    #[test]
    fn mode_table_splits_cycles_and_energy() {
        let model = PowerModel::new(&PowerParams::default());
        let table = model.mode_table(&two_phase_log());
        assert_eq!(table.mode_cycles[Mode::User.index()], 2000);
        assert_eq!(table.mode_cycles[Mode::Idle.index()], 2000);
        assert!((table.cycle_fraction(Mode::User) - 0.5).abs() < 1e-9);
        // User does strictly more work per cycle => larger energy share.
        assert!(table.energy_fraction(Mode::User) > 0.5);
        let fractions: f64 = Mode::ALL.iter().map(|&m| table.energy_fraction(m)).sum();
        assert!((fractions - 1.0).abs() < 1e-9);
    }

    #[test]
    fn user_mode_average_power_exceeds_idle() {
        let model = PowerModel::new(&PowerParams::default());
        let table = model.mode_table(&two_phase_log());
        let user = table.average_power_w(Mode::User).total();
        let idle = table.average_power_w(Mode::Idle).total();
        assert!(user > idle);
        assert!(
            table.average_power_w(Mode::KernelInstr).total() == 0.0,
            "no kernel cycles in this log"
        );
    }

    #[test]
    fn overall_average_is_cycle_weighted_mix() {
        let model = PowerModel::new(&PowerParams::default());
        let table = model.mode_table(&two_phase_log());
        let overall = table.overall_average_power_w().total();
        let user = table.average_power_w(Mode::User).total();
        let idle = table.average_power_w(Mode::Idle).total();
        assert!((overall - (user + idle) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn mode_contribution_stacks_to_window_power() {
        let model = PowerModel::new(&PowerParams::default());
        let profile = model.profile(&two_phase_log());
        for p in &profile.points {
            let stacked: f64 = Mode::ALL.iter().map(|&m| p.mode_contribution_w(m)).sum();
            assert!(
                (stacked - p.window_power_w.total()).abs() < 0.15 * p.window_power_w.total(),
                "stacked {stacked} vs window {}",
                p.window_power_w.total()
            );
        }
    }

    #[test]
    fn peak_exceeds_average_and_lands_in_the_busy_phase() {
        let model = PowerModel::new(&PowerParams::default());
        let profile = model.profile(&two_phase_log());
        let (peak_w, at_s) = profile.peak_power_w().expect("non-empty profile");
        assert!(peak_w >= profile.average_power_w());
        // The busy (user) phase is the first half of the log.
        let end = profile.points.last().unwrap().t_end_s;
        assert!(at_s <= end / 2.0 + 1e-9, "peak at {at_s} of {end}");
    }

    #[test]
    fn edp_is_energy_times_delay() {
        let model = PowerModel::new(&PowerParams::default());
        let table = model.mode_table(&two_phase_log());
        let secs = table.total_cycles() as f64 / table.freq_hz;
        assert!((table.energy_delay_product() - table.total_energy_j() * secs).abs() < 1e-12);
    }

    #[test]
    fn l1i_energy_present_in_both_modes() {
        let model = PowerModel::new(&PowerParams::default());
        let table = model.mode_table(&two_phase_log());
        assert!(table.mode_energy_j[Mode::User.index()].get(UnitGroup::L1I) > 0.0);
        assert!(table.mode_energy_j[Mode::Idle.index()].get(UnitGroup::L1I) > 0.0);
    }
}

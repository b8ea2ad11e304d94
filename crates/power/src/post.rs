//! Post-processing of simulation logs into power profiles and per-mode
//! tables — the paper's offline pipeline (Figure 1's "Analytical Power
//! Models" stage).
//!
//! A log keeps its work windows in a block (see
//! [`softwatt_stats::Segments`]) that a capture run's log shares with its
//! trace and every log replayed from the trace, and those windows'
//! energies do not depend on the disk policy. The first post-processing
//! call on a block claims the block's memo slot for its power model; an
//! equal model later reads what the memo holds, and any other model
//! computes the same data afresh and runs the same code. The memo holds
//! two things, each filled by the first call that reads it:
//!
//! - for [`PowerModel::mode_table`], the block's per-mode energy sums, so
//!   a table folds only the log's idle windows, in log order;
//! - for [`PowerModel::profile`], every work window's profile point but
//!   its end time, which the returned [`PowerProfile`] shares instead of
//!   copying.
//!
//! A log's idle gaps are evaluated once per runs, the same way: the first
//! call on a log claims the gap memo of the log's runs (which its clones
//! and every log sharing those runs share, see
//! [`softwatt_stats::PerfTrace::fast_replay`]) and keeps every gap's
//! window energies there, which both calls read and a profile shares. A
//! gap's first and shorter last windows are evaluated once each, a full
//! event-free window once per runs. Runs that a replay resumed from
//! another replay's share their first gaps with it, so the first call
//! copies those gaps' window energies from that replay's gap memo when an
//! equal model filled it and evaluates only the rest. A window whose
//! cycles and events lie in one mode takes that mode's energy as its whole-window energy
//! instead of evaluating it again. Every energy is `window_energy_j` of
//! the same counts and cycles, every power is that energy scaled by the
//! same cycles, and every sum adds the same terms in the same order as a
//! window-by-window fold in log order, so every result is bit-identical
//! to computing each window directly.

use std::fmt;
use std::sync::{Arc, OnceLock};

use softwatt_stats::{Clocking, CounterSet, LogRun, Mode, ModeRows, Segments, SimLog};

use crate::group::GroupPower;
use crate::model::{average_power_w, PowerModel, PowerParams};

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

/// A time-resolved profile of the whole run, one point per log window.
///
/// The profile is a view: it shares the log (a clone shares its block
/// and runs), the points of the log's work windows (the block memo's when
/// the model owns it, see [`PowerModel::profile`]) and the energies of
/// the log's gap windows (the gap memo's when the model owns it), so it
/// stays readable after the log is dropped. Every power model evaluation
/// happens when the profile is built; [`PowerProfile::points`] copies
/// each work window's point, scales each gap window's energies to power
/// (as building a point from the window's energies would) and computes
/// each window's end time.
#[derive(Clone)]
pub struct PowerProfile {
    clocking: Clocking,
    freq_hz: f64,
    log: SimLog,
    /// The point of every work window of the log's block, in block order,
    /// each with a zero end time.
    windows: Arc<[ProfilePoint]>,
    /// The windows of the log's idle gaps with their energies, in order.
    gaps: Arc<[GapWindows]>,
}

impl PowerProfile {
    /// Number of points: one per window of the log.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether the profile has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The profile points in time order, one per log window.
    pub fn points(&self) -> impl Iterator<Item = ProfilePoint> + '_ {
        let mut gaps = self.gaps.iter();
        self.log.runs().flat_map(move |run| {
            let (start_cycle, windows, gap) = match run {
                LogRun::Segment {
                    samples,
                    offset,
                    start_cycle,
                } => (start_cycle, offset..offset + samples.len(), None),
                LogRun::IdleGap { start_cycle, .. } => {
                    let gap = gaps.next().expect("one entry per gap");
                    (start_cycle, 0..gap.len(), Some(gap))
                }
            };
            let mut cycle = start_cycle;
            windows.map(move |j| {
                let point = match gap {
                    None => self.windows[j].clone(),
                    Some(gap) => gap.point(j, self.freq_hz),
                };
                cycle += point.cycles;
                ProfilePoint {
                    t_end_s: self.clocking.cycles_to_paper_secs(cycle),
                    ..point
                }
            })
        })
    }

    /// Peak window-average power over the run (W) and when it occurred.
    ///
    /// The paper focuses on average power but notes the tool also yields
    /// peak power from the same profiles (§3.1, for cooling/DTM design);
    /// the peak is taken over sampling windows, so it is a lower bound on
    /// the true per-cycle peak.
    pub fn peak_power_w(&self) -> Option<(f64, f64)> {
        self.points()
            .map(|p| (p.window_power_w.total(), p.t_end_s))
            .max_by(|a, b| a.0.total_cmp(&b.0))
    }

    /// Average total power over the run (W).
    pub fn average_power_w(&self) -> f64 {
        let (total_cycles, weighted) = self.points().fold((0u64, 0.0), |(c, w), p| {
            (c + p.cycles, w + p.window_power_w.total() * p.cycles as f64)
        });
        if total_cycles == 0 {
            return 0.0;
        }
        weighted / total_cycles as f64
    }
}

/// Point by point.
impl PartialEq for PowerProfile {
    fn eq(&self, other: &PowerProfile) -> bool {
        self.points().eq(other.points())
    }
}

impl fmt::Debug for PowerProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PowerProfile")
            .field("points", &self.points().collect::<Vec<_>>())
            .finish()
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
        average_power_w(
            &self.mode_energy_j[mode.index()],
            self.mode_cycles[mode.index()],
            self.freq_hz,
        )
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

/// The memo a power model keeps in a block of work windows, tagged with
/// the parameters of the model that claimed it (a model is a function of
/// its parameters). Each part is filled by the first call that reads it.
struct BlockMemo {
    params: PowerParams,
    /// Read by [`PowerModel::mode_table`].
    fold: OnceLock<BlockFold>,
    /// Every work window's profile point, with a zero end time, in block
    /// order; read by [`PowerModel::profile`].
    points: OnceLock<Arc<[ProfilePoint]>>,
}

/// A block's work windows folded into per-mode energies, in block order.
/// Every log reads each segment of its block once, in block order, and a
/// gap window has cycles only in [`Mode::Idle`], so every mode but Idle
/// sums the same windows in the same order in every log that reads the
/// block. Idle also sums gap windows, so its block windows are kept one
/// by one, to be folded in log order.
struct BlockFold {
    /// Each mode's energy over the block's windows; zero for Idle.
    mode_energy_j: [GroupPower; Mode::COUNT],
    /// The Idle energy of each window with idle cycles, with its position
    /// in the block.
    idle_windows: Vec<(usize, GroupPower)>,
}

/// The windows of one idle gap with their energies. A gap window has
/// cycles only in Idle; the first carries the gap's events and the rest
/// carry none (see [`LogRun::IdleGap`]), so each event-free window's Idle
/// and whole-window energies are one value, and every full event-free
/// window of a gap has the same one.
#[derive(Clone, Copy)]
struct GapWindows {
    /// The gap cut into windows: the first window's cycles, the number of
    /// full windows after it, their cycles, and the shorter last window's
    /// cycles (zero if none).
    first_cycles: u64,
    full_windows: u64,
    interval: u64,
    last_cycles: u64,
    /// The first window's Idle and whole-window values.
    first: [GroupPower; 2],
    /// A full event-free window's value (zero if the gap has none).
    full: GroupPower,
    /// The shorter last window's value (zero if the gap has none).
    last: GroupPower,
}

impl GapWindows {
    /// Number of windows.
    fn len(&self) -> usize {
        usize::from(self.first_cycles > 0)
            + self.full_windows as usize
            + usize::from(self.last_cycles > 0)
    }

    /// Window `j`: its cycles, Idle value and whole-window value.
    fn window(&self, j: usize) -> (u64, &GroupPower, &GroupPower) {
        if j == 0 {
            (self.first_cycles, &self.first[0], &self.first[1])
        } else if j as u64 <= self.full_windows {
            (self.interval, &self.full, &self.full)
        } else {
            (self.last_cycles, &self.last, &self.last)
        }
    }

    /// Window `j` as a profile point with a zero end time, its energies
    /// scaled to average power at `freq_hz`.
    fn point(&self, j: usize, freq_hz: f64) -> ProfilePoint {
        let (cycles, idle, whole) = self.window(j);
        let mut mode_power_w = [GroupPower::new(); Mode::COUNT];
        mode_power_w[Mode::Idle.index()] = average_power_w(idle, cycles, freq_hz);
        ProfilePoint {
            t_end_s: 0.0,
            cycles,
            mode_cycles: idle_cycles(cycles),
            mode_power_w,
            window_power_w: average_power_w(whole, cycles, freq_hz),
        }
    }
}

impl PowerModel {
    /// Replays a log into a time-resolved profile.
    ///
    /// Evaluates the model for every window of the log's block, once per
    /// block when this model owns the block's memo (see
    /// [`PowerModel::mode_table`]), and for the windows of the log's idle
    /// gaps, once per runs when this model owns the log's gap memo: a
    /// gap's first window and shorter last window once each, a full
    /// event-free window once per runs. Returns a view over the windows'
    /// points (see [`PowerProfile`]), which walks no run, so a call costs
    /// O(1) once both memos are filled.
    pub fn profile(&self, log: &SimLog) -> PowerProfile {
        let memo = self.block_memo(log);
        let mut block_filled = false;
        let windows = match memo {
            Some(memo) => Arc::clone(memo.points.get_or_init(|| {
                block_filled = true;
                self.block_points(log.block())
            })),
            None => self.block_points(log.block()),
        };
        let (gaps, gap_memo) = self.gap_memo(log);
        count_post_call([memo.map(|_| block_filled), gap_memo]);
        PowerProfile {
            clocking: log.clocking(),
            freq_hz: self.params().tech.freq_hz,
            log: log.clone(),
            windows,
            gaps: Arc::clone(&gaps.gaps),
        }
    }

    /// Aggregates a log into the per-mode energy/power table.
    ///
    /// The first post-processing call on a log's block claims the block's
    /// memo for this model, and the first on a log claims the log's gap
    /// memo. An owner reads the block's per-mode fold and the gaps' window
    /// energies from the memos (filling them on first use); any other
    /// model computes them afresh. Idle is then folded in log order over
    /// the block's idle-bearing windows and each gap's windows, so a call
    /// costs O(runs) model evaluations, none once both memos are filled,
    /// and every float equals a window-by-window fold in log order, bit
    /// for bit.
    pub fn mode_table(&self, log: &SimLog) -> ModePowerTable {
        let memo = self.block_memo(log);
        let mut filled = false;
        let local;
        let fold = match memo {
            Some(memo) => memo.fold.get_or_init(|| {
                filled = true;
                self.fold_block(log.block())
            }),
            None => {
                local = self.fold_block(log.block());
                &local
            }
        };
        let (gap_memo, gap_filled) = self.gap_memo(log);
        count_post_call([memo.map(|_| filled), gap_filled]);
        let mut gaps = gap_memo.gaps.iter();
        let mut mode_energy_j = fold.mode_energy_j;
        let idle = &mut mode_energy_j[Mode::Idle.index()];
        let mut idle_windows = fold.idle_windows.iter().peekable();
        for run in log.runs() {
            match run {
                LogRun::Segment {
                    samples, offset, ..
                } => {
                    let end = offset + samples.len();
                    while let Some((_, energy)) = idle_windows.next_if(|(at, _)| *at < end) {
                        idle.merge(energy);
                    }
                }
                LogRun::IdleGap { .. } => {
                    let gap = gaps.next().expect("one entry per gap");
                    for j in 0..gap.len() {
                        idle.merge(gap.window(j).1);
                    }
                }
            }
        }
        let mut mode_cycles = [0u64; Mode::COUNT];
        for mode in Mode::ALL {
            mode_cycles[mode.index()] = log.mode_cycles(mode);
        }
        ModePowerTable {
            mode_cycles,
            mode_energy_j,
            freq_hz: self.params().tech.freq_hz,
        }
    }

    /// Folds `block`'s windows into per-mode energies (see [`BlockFold`]).
    fn fold_block(&self, block: &Segments) -> BlockFold {
        let mut mode_energy_j = [GroupPower::new(); Mode::COUNT];
        let mut idle_windows = Vec::new();
        for (at, sample) in block.samples().enumerate() {
            let energy = self.window_energies(&sample.mode_cycles, sample.events.as_rows(), false);
            for mode in Mode::ALL {
                let i = mode.index();
                if sample.mode_cycles[i] == 0 {
                    continue;
                }
                if mode == Mode::Idle {
                    idle_windows.push((at, energy[i]));
                } else {
                    mode_energy_j[i].merge(&energy[i]);
                }
            }
        }
        BlockFold {
            mode_energy_j,
            idle_windows,
        }
    }

    /// The point of every window of `block`, in block order, each with a
    /// zero end time.
    fn block_points(&self, block: &Segments) -> Arc<[ProfilePoint]> {
        let freq_hz = self.params().tech.freq_hz;
        block
            .samples()
            .map(|s| {
                let energy = self.window_energies(&s.mode_cycles, s.events.as_rows(), true);
                let cycles = s.cycles();
                ProfilePoint {
                    t_end_s: 0.0,
                    cycles,
                    mode_cycles: s.mode_cycles,
                    mode_power_w: Mode::ALL.map(|mode| {
                        let i = mode.index();
                        average_power_w(&energy[i], s.mode_cycles[i], freq_hz)
                    }),
                    window_power_w: average_power_w(&energy[Mode::COUNT], cycles, freq_hz),
                }
            })
            .collect()
    }

    /// What this model derives from `log`'s idle gaps (see [`GapMemo`]):
    /// the log's gap memo when this model owns it (filling it on first
    /// use), computed afresh otherwise. The first call on a log claims its
    /// memo, seeded from the memo the log's runs were resumed from when
    /// this model filled that one. Also returns `Some(filled)` when the
    /// model owns the memo, `None` otherwise (see [`count_post_call`]).
    fn gap_memo(&self, log: &SimLog) -> (Arc<GapMemo>, Option<bool>) {
        let mut filled = false;
        let memo = log.gap_memo().get_or_init(|| {
            filled = true;
            let seed = log.take_gap_memo_seed().and_then(|(memo, copied)| {
                let memo = memo.downcast::<GapMemo>().ok()?;
                (memo.params == *self.params()).then_some((memo, copied))
            });
            let seed = seed.as_ref().map(|(memo, copied)| (&**memo, *copied));
            Arc::new(self.gap_data(log, seed))
        });
        match Arc::clone(memo).downcast::<GapMemo>() {
            Ok(memo) if memo.params == *self.params() => (memo, Some(filled)),
            _ => (Arc::new(self.gap_data(log, None)), None),
        }
    }

    /// What this model derives from `log`'s idle gaps, the first `copied`
    /// gaps' copied from `seed` (a memo of this model's over runs whose
    /// first `copied` gaps are the log's). Every other gap's windows are
    /// evaluated here, a full event-free window once per memo.
    fn gap_data(&self, log: &SimLog, seed: Option<(&GapMemo, usize)>) -> GapMemo {
        let (copied, mut full) = seed.map_or((0, None), |(memo, copied)| (copied, memo.full));
        let mut gaps = Vec::new();
        if let Some((memo, _)) = seed {
            gaps.extend_from_slice(&memo.gaps[..copied]);
        }
        let built = log.runs().filter_map(|run| match run {
            LogRun::IdleGap {
                cycles,
                interval,
                events,
                ..
            } => Some((cycles, interval, events)),
            LogRun::Segment { .. } => None,
        });
        for (cycles, interval, events) in built.skip(copied) {
            gaps.push(self.gap_windows(cycles, interval, events, &mut full));
        }
        GapMemo {
            params: *self.params(),
            gaps: gaps.into(),
            full,
        }
    }

    /// The windows of an idle gap of `cycles` cycles whose first window
    /// carries `events`, with their energies, and a full window's from
    /// `full`, which keeps it for the rest of the log.
    fn gap_windows(
        &self,
        cycles: u64,
        interval: u64,
        events: ModeRows<'_>,
        full: &mut Option<GroupPower>,
    ) -> GapWindows {
        let first_cycles = cycles.min(interval);
        let full_windows = (cycles - first_cycles) / interval;
        let last_cycles = (cycles - first_cycles) % interval;
        let first = self.window_energies(&idle_cycles(first_cycles), events, true);
        let event_free = |cycles| self.window_energy_j(&NO_EVENTS, cycles);
        GapWindows {
            first_cycles,
            full_windows,
            interval,
            last_cycles,
            first: [first[Mode::Idle.index()], first[Mode::COUNT]],
            full: if full_windows > 0 {
                *full.get_or_insert_with(|| event_free(interval))
            } else {
                GroupPower::new()
            },
            last: if last_cycles > 0 {
                event_free(last_cycles)
            } else {
                GroupPower::new()
            },
        }
    }

    /// The energies of a window with `mode_cycles` and `events`, the
    /// whole window's only if `whole`. The whole window's energy is
    /// evaluated only for a window whose cycles and events span more than
    /// one mode; otherwise it is that one mode's energy (see
    /// [`only_mode`]).
    fn window_energies(
        &self,
        mode_cycles: &[u64; Mode::COUNT],
        events: ModeRows<'_>,
        whole: bool,
    ) -> WindowEnergies {
        let mut out = [GroupPower::new(); Mode::COUNT + 1];
        for mode in Mode::ALL {
            let mc = mode_cycles[mode.index()];
            if mc > 0 {
                out[mode.index()] = self.window_energy_j(events.mode(mode), mc);
            }
        }
        if whole {
            out[Mode::COUNT] = match only_mode(mode_cycles, events) {
                Some(mode) => out[mode.index()],
                None => self.window_energy_j(&events.combined(), mode_cycles.iter().sum()),
            };
        }
        out
    }

    /// The memo of `log`'s block, if this model owns it. The first call on
    /// a block claims the memo and so owns it; a call with any other model
    /// gets `None` and caches nothing.
    fn block_memo<'a>(&self, log: &'a SimLog) -> Option<&'a BlockMemo> {
        log.block()
            .memo()
            .get_or_init(|| {
                Arc::new(BlockMemo {
                    params: *self.params(),
                    fold: OnceLock::new(),
                    points: OnceLock::new(),
                })
            })
            .downcast_ref::<BlockMemo>()
            .filter(|memo| memo.params == *self.params())
    }
}

/// The one mode a window's cycles and events all lie in, if there is one:
/// the only mode with cycles, when no other mode has a row. That mode's
/// energy is then the whole window's, bit for bit: `combined()` of the one
/// row (or of none) equals `mode(m)`, and the cycle sum is `m`'s cycles, so
/// `window_energy_j` gets the same inputs.
fn only_mode(mode_cycles: &[u64; Mode::COUNT], events: ModeRows<'_>) -> Option<Mode> {
    let mut with_cycles = Mode::ALL.into_iter().filter(|m| mode_cycles[m.index()] > 0);
    let mode = with_cycles.next()?;
    let alone = with_cycles.next().is_none() && events.mask() & !(1 << mode.index()) == 0;
    alone.then_some(mode)
}

/// The events of a gap window after the first.
static NO_EVENTS: CounterSet = CounterSet::new();

/// Cycles of a window spent only in Idle.
fn idle_cycles(cycles: u64) -> [u64; Mode::COUNT] {
    let mut mode_cycles = [0; Mode::COUNT];
    mode_cycles[Mode::Idle.index()] = cycles;
    mode_cycles
}

/// The memo a power model keeps in a log's runs (their gap memo), tagged
/// with the parameters of the model that claimed it: every gap's windows
/// with their energies, in log order, read by both
/// [`PowerModel::mode_table`] and [`PowerModel::profile`] and shared by
/// the profiles. Every log that shares the runs reads it. It holds no
/// runs and no other memo, so runs that keep a predecessor's memo to be
/// seeded from (see [`SimLog::take_gap_memo_seed`]) keep nothing older.
///
/// The entries of gap j are a pure function of the block, the gaps up to
/// j, their first-window events, the sampling interval and the model's
/// parameters, so a memo over runs that share their first gaps with
/// another replay's copies those gaps' entries from that replay's memo
/// when an equal model filled it, and evaluates only the rest.
struct GapMemo {
    params: PowerParams,
    gaps: Arc<[GapWindows]>,
    /// A full event-free window's energies, once a gap has one.
    full: Option<GroupPower>,
}

/// Counts one `mode_table`/`profile` call and what it did with each memo
/// it reads, its block's part and its log's gaps: `Some(true)` if it
/// computed the memo, `Some(false)` if it found it filled, `None` if the
/// model does not own it. One flag check per call, never per window.
fn count_post_call(memos: [Option<bool>; 2]) {
    if softwatt_obs::enabled() {
        use softwatt_obs::registry::counter;
        let filled = memos.iter().filter(|&&m| m == Some(true)).count();
        let served = memos.iter().filter(|&&m| m == Some(false)).count();
        counter("power.post_calls").add(1);
        counter("power.memo_fills").add(filled as u64);
        counter("power.memo_served").add(served as u64);
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
        assert_eq!(profile.len(), log.windows().count());
        assert_eq!(profile.points().count(), profile.len());
        assert!(profile.average_power_w() > 0.0);
    }

    #[test]
    fn busy_windows_burn_more_than_idle_windows() {
        let model = PowerModel::new(&PowerParams::default());
        let profile = model.profile(&two_phase_log());
        let busy = profile.points().next().unwrap().window_power_w.total();
        let idle = profile.points().last().unwrap().window_power_w.total();
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
        for p in profile.points() {
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
        let end = profile.points().last().unwrap().t_end_s;
        assert!(at_s <= end / 2.0 + 1e-9, "peak at {at_s} of {end}");
    }

    #[test]
    fn edp_is_energy_times_delay() {
        let model = PowerModel::new(&PowerParams::default());
        let table = model.mode_table(&two_phase_log());
        let secs = table.total_cycles() as f64 / table.freq_hz;
        assert!((table.energy_delay_product() - table.total_energy_j() * secs).abs() < 1e-12);
    }

    /// A log with gaps, an idle-bearing work window and a trailing
    /// partial window.
    fn gapped_log() -> SimLog {
        let mut stats = StatsCollector::new(Clocking::full_speed(200.0e6), 1000);
        let rates = [(UnitEvent::IcacheAccess, 0.7), (UnitEvent::AluOp, 0.1)];
        let idle = softwatt_stats::ServiceId(9);
        stats.set_mode(Mode::User);
        stats.record_n(UnitEvent::AluOp, 3000);
        stats.tick_n(2500);
        stats.skip_idle_gap(3700, &rates, idle);
        stats.set_mode(Mode::Idle);
        stats.record_n(UnitEvent::IcacheAccess, 900);
        stats.tick_n(1200);
        stats.set_mode(Mode::KernelInstr);
        stats.record_n(UnitEvent::DcacheRead, 40);
        stats.tick_n(300);
        stats.skip_idle_gap(2000, &rates, idle);
        stats.set_mode(Mode::User);
        stats.tick_n(450);
        stats.finish()
    }

    /// Every mode x group energy of a table, and its cycles, as bits.
    fn table_bits(table: &ModePowerTable) -> Vec<u64> {
        let mut bits = table.mode_cycles.to_vec();
        for energy in &table.mode_energy_j {
            bits.extend(UnitGroup::ALL.map(|g| energy.get(g).to_bits()));
        }
        bits
    }

    fn memo_of(log: &SimLog) -> &BlockMemo {
        log.block()
            .memo()
            .get()
            .and_then(|memo| memo.downcast_ref::<BlockMemo>())
            .expect("a post-processing call claims the memo")
    }

    /// The per-window energies a profile reads are filled by the first
    /// `profile` call, not by `mode_table`, and neither call order nor a
    /// second model changes a bit of either result.
    #[test]
    fn mode_table_fills_no_window_data_and_call_order_is_immaterial() {
        let paper = PowerModel::new(&PowerParams::default());
        let cc1 = PowerModel::new(&PowerParams {
            gating: crate::ClockGating::AlwaysOn,
            ..PowerParams::default()
        });
        let log = gapped_log();
        let table = paper.mode_table(&log);
        let memo = memo_of(&log);
        assert!(memo.fold.get().is_some());
        assert!(
            memo.points.get().is_none(),
            "mode_table alone fills no window data"
        );
        let profile = paper.profile(&log);
        assert!(memo_of(&log).points.get().is_some());

        let fresh = gapped_log();
        let profile_first = paper.profile(&fresh);
        assert!(
            memo_of(&fresh).fold.get().is_none(),
            "profile alone folds nothing"
        );
        assert_eq!(table_bits(&paper.mode_table(&fresh)), table_bits(&table));
        assert!(profile_first == profile);
        assert_eq!(format!("{profile_first:?}"), format!("{profile:?}"));

        // CC1 owns neither memo: both orders compute directly, and agree.
        let cc1_profile = cc1.profile(&log);
        let cc1_table = cc1.mode_table(&log);
        assert_eq!(table_bits(&cc1.mode_table(&fresh)), table_bits(&cc1_table));
        assert!(cc1.profile(&fresh) == cc1_profile);
        assert!(
            cc1_profile != profile,
            "a different model gives a different profile"
        );
    }

    /// The first call on a log fills the log's gap memo and the other call
    /// reads it; a clone of the log shares the memo, and a model that does
    /// not own it computes the gaps afresh. None of this changes a bit of
    /// either result.
    #[test]
    fn gap_windows_are_evaluated_once_per_log() {
        let paper = PowerModel::new(&PowerParams::default());
        let cc1 = PowerModel::new(&PowerParams {
            gating: crate::ClockGating::AlwaysOn,
            ..PowerParams::default()
        });
        let gap_memo = |log: &SimLog| {
            log.gap_memo()
                .get()
                .and_then(|memo| memo.downcast_ref::<GapMemo>())
                .map(|memo| memo.gaps.len())
        };
        let log = gapped_log();
        assert_eq!(gap_memo(&log), None);
        let table = paper.mode_table(&log);
        assert_eq!(gap_memo(&log), Some(2), "one entry per gap");
        let profile = paper.profile(&log);

        let copy = log.clone();
        assert_eq!(gap_memo(&copy), Some(2), "a clone shares the gap memo");
        let copy_profile = paper.profile(&copy);
        assert!(copy_profile == profile);
        assert_eq!(table_bits(&paper.mode_table(&copy)), table_bits(&table));

        let fresh = gapped_log();
        let cc1_table = cc1.mode_table(&fresh);
        assert!(paper.profile(&fresh) == profile, "the memo's owner is CC1");
        assert_eq!(table_bits(&paper.mode_table(&fresh)), table_bits(&table));
        assert_eq!(table_bits(&cc1.mode_table(&log)), table_bits(&cc1_table));
    }

    #[test]
    fn l1i_energy_present_in_both_modes() {
        let model = PowerModel::new(&PowerParams::default());
        let table = model.mode_table(&two_phase_log());
        assert!(table.mode_energy_j[Mode::User.index()].get(UnitGroup::L1I) > 0.0);
        assert!(table.mode_energy_j[Mode::Idle.index()].get(UnitGroup::L1I) > 0.0);
    }
}

//! Flat counter storage for unit events, with per-mode bucketing.

use crate::{Mode, UnitEvent};

/// A flat array of event counters, one per [`UnitEvent`].
///
/// # Examples
///
/// ```
/// use softwatt_stats::{CounterSet, UnitEvent};
///
/// let mut c = CounterSet::new();
/// c.add(UnitEvent::AluOp, 3);
/// assert_eq!(c.get(UnitEvent::AluOp), 3);
/// assert_eq!(c.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSet {
    counts: [u64; UnitEvent::COUNT],
}

impl CounterSet {
    /// Creates a zeroed counter set.
    pub const fn new() -> CounterSet {
        CounterSet {
            counts: [0; UnitEvent::COUNT],
        }
    }

    /// Increments the counter for `event` by `n`.
    #[inline]
    pub fn add(&mut self, event: UnitEvent, n: u64) {
        self.counts[event.index()] += n;
    }

    /// Current count for `event`.
    #[inline]
    pub fn get(&self, event: UnitEvent) -> u64 {
        self.counts[event.index()]
    }

    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The raw counts array, indexed by [`UnitEvent::index`]. Lets hot
    /// consumers (the power post, the window fold) walk the counters once
    /// without per-event enum dispatch.
    #[inline]
    pub fn counts(&self) -> &[u64; UnitEvent::COUNT] {
        &self.counts
    }

    /// Builds a set directly from a raw counts array.
    pub(crate) fn from_counts(counts: [u64; UnitEvent::COUNT]) -> CounterSet {
        CounterSet { counts }
    }

    /// Element-wise `self - earlier`, used to form delta samples.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any counter of `earlier` exceeds the
    /// corresponding counter of `self`; counters are monotone so this
    /// indicates a bookkeeping bug.
    pub fn delta_since(&self, earlier: &CounterSet) -> CounterSet {
        let mut out = CounterSet::new();
        for i in 0..UnitEvent::COUNT {
            debug_assert!(self.counts[i] >= earlier.counts[i]);
            out.counts[i] = self.counts[i] - earlier.counts[i];
        }
        out
    }

    /// Element-wise accumulate of `other` into `self`.
    pub fn merge(&mut self, other: &CounterSet) {
        for i in 0..UnitEvent::COUNT {
            self.counts[i] += other.counts[i];
        }
    }

    /// Iterates over `(event, count)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (UnitEvent, u64)> + '_ {
        UnitEvent::ALL.iter().map(move |&e| (e, self.get(e)))
    }

    /// Weighted sum `Σ count[e] * weights[e]`; the power models use this to
    /// turn counts into Joules.
    pub fn dot(&self, weights: &[f64; UnitEvent::COUNT]) -> f64 {
        self.counts
            .iter()
            .zip(weights.iter())
            .map(|(&c, &w)| c as f64 * w)
            .sum()
    }
}

impl Default for CounterSet {
    fn default() -> Self {
        CounterSet::new()
    }
}

/// Counter sets bucketed by software [`Mode`].
///
/// # Examples
///
/// ```
/// use softwatt_stats::{Mode, ModeCounters, UnitEvent};
///
/// let mut mc = ModeCounters::new();
/// mc.mode_mut(Mode::Idle).add(UnitEvent::DcacheRead, 1);
/// assert_eq!(mc.mode(Mode::Idle).get(UnitEvent::DcacheRead), 1);
/// assert_eq!(mc.combined().get(UnitEvent::DcacheRead), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeCounters {
    per_mode: [CounterSet; Mode::COUNT],
}

impl ModeCounters {
    /// Creates zeroed counters for every mode.
    pub const fn new() -> ModeCounters {
        ModeCounters {
            per_mode: [
                CounterSet::new(),
                CounterSet::new(),
                CounterSet::new(),
                CounterSet::new(),
            ],
        }
    }

    /// Counters for one mode.
    #[inline]
    pub fn mode(&self, mode: Mode) -> &CounterSet {
        &self.per_mode[mode.index()]
    }

    /// Mutable counters for one mode.
    #[inline]
    pub fn mode_mut(&mut self, mode: Mode) -> &mut CounterSet {
        &mut self.per_mode[mode.index()]
    }

    /// Sum across all modes.
    pub fn combined(&self) -> CounterSet {
        let mut out = CounterSet::new();
        for m in &self.per_mode {
            out.merge(m);
        }
        out
    }

    /// Element-wise `self - earlier` for every mode.
    pub fn delta_since(&self, earlier: &ModeCounters) -> ModeCounters {
        let mut out = ModeCounters::new();
        for i in 0..Mode::COUNT {
            out.per_mode[i] = self.per_mode[i].delta_since(&earlier.per_mode[i]);
        }
        out
    }

    /// Element-wise accumulate of `other` into `self`, per mode.
    pub fn merge(&mut self, other: &ModeCounters) {
        for i in 0..Mode::COUNT {
            self.per_mode[i].merge(&other.per_mode[i]);
        }
    }

    /// Builds per-mode counters from one flat array laid out as
    /// `mode.index() * UnitEvent::COUNT + event.index()` (the collector's
    /// open-window accumulator).
    pub(crate) fn from_flat(flat: &[u64; Mode::COUNT * UnitEvent::COUNT]) -> ModeCounters {
        let mut out = ModeCounters::new();
        for m in 0..Mode::COUNT {
            let base = m * UnitEvent::COUNT;
            out.per_mode[m] = CounterSet::from_counts(
                flat[base..base + UnitEvent::COUNT]
                    .try_into()
                    .expect("slice is exactly UnitEvent::COUNT long"),
            );
        }
        out
    }
}

impl Default for ModeCounters {
    fn default() -> Self {
        ModeCounters::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_total() {
        let mut c = CounterSet::new();
        c.add(UnitEvent::IcacheAccess, 5);
        c.add(UnitEvent::IcacheAccess, 2);
        c.add(UnitEvent::MemAccess, 1);
        assert_eq!(c.get(UnitEvent::IcacheAccess), 7);
        assert_eq!(c.get(UnitEvent::MemAccess), 1);
        assert_eq!(c.get(UnitEvent::AluOp), 0);
        assert_eq!(c.total(), 8);
    }

    #[test]
    fn delta_and_merge_are_inverse() {
        let mut a = CounterSet::new();
        a.add(UnitEvent::AluOp, 10);
        let mut b = a.clone();
        b.add(UnitEvent::AluOp, 5);
        b.add(UnitEvent::RegRead, 3);
        let d = b.delta_since(&a);
        assert_eq!(d.get(UnitEvent::AluOp), 5);
        assert_eq!(d.get(UnitEvent::RegRead), 3);
        a.merge(&d);
        assert_eq!(a, b);
    }

    #[test]
    fn dot_weights() {
        let mut c = CounterSet::new();
        c.add(UnitEvent::AluOp, 4);
        c.add(UnitEvent::RegWrite, 2);
        let mut w = [0.0; UnitEvent::COUNT];
        w[UnitEvent::AluOp.index()] = 0.5;
        w[UnitEvent::RegWrite.index()] = 2.0;
        assert!((c.dot(&w) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn mode_bucketing_and_combined() {
        let mut mc = ModeCounters::new();
        mc.mode_mut(Mode::User).add(UnitEvent::AluOp, 3);
        mc.mode_mut(Mode::KernelInstr).add(UnitEvent::AluOp, 2);
        assert_eq!(mc.mode(Mode::User).get(UnitEvent::AluOp), 3);
        assert_eq!(mc.combined().get(UnitEvent::AluOp), 5);
    }

    #[test]
    fn mode_delta() {
        let mut a = ModeCounters::new();
        a.mode_mut(Mode::Idle).add(UnitEvent::DcacheRead, 1);
        let mut b = a.clone();
        b.mode_mut(Mode::Idle).add(UnitEvent::DcacheRead, 4);
        let d = b.delta_since(&a);
        assert_eq!(d.mode(Mode::Idle).get(UnitEvent::DcacheRead), 4);
        assert_eq!(d.mode(Mode::User).get(UnitEvent::DcacheRead), 0);
    }
}

//! Flat counter storage for unit events, with per-mode bucketing: dense
//! ([`ModeCounters`], for running totals) and sparse ([`ModeEvents`], for
//! the windows of a log).

use std::convert::Infallible;

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

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().fold(0, |any, &c| any | c) == 0
    }

    /// The raw counts array, indexed by [`UnitEvent::index`]. Lets hot
    /// consumers (the power post, the window fold) walk the counters once
    /// without per-event enum dispatch.
    #[inline]
    pub fn counts(&self) -> &[u64; UnitEvent::COUNT] {
        &self.counts
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

/// Counter sets bucketed by software [`Mode`], every mode's set kept:
/// the dense form, for running totals ([`crate::StatsCollector::totals`],
/// [`crate::SimLog::total_events`]). A log's windows keep theirs sparsely,
/// as [`ModeEvents`].
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

    /// Accumulates the rows of sparse per-mode `events` into `self`.
    pub fn add_events<R: AsRef<[CounterSet]>>(&mut self, events: &ModeEvents<R>) {
        for (mode, row) in events.rows() {
            self.per_mode[mode.index()].merge(row);
        }
    }

    /// Builds per-mode counters from one flat array (see
    /// [`FlatCounters`]).
    pub(crate) fn from_flat(flat: &FlatCounters) -> ModeCounters {
        let mut out = ModeCounters::new();
        for (row, counts) in out
            .per_mode
            .iter_mut()
            .zip(flat.chunks_exact(UnitEvent::COUNT))
        {
            row.counts.copy_from_slice(counts);
        }
        out
    }
}

impl Default for ModeCounters {
    fn default() -> Self {
        ModeCounters::new()
    }
}

/// Per-mode counters as one flat array indexed by
/// `mode.index() * UnitEvent::COUNT + event.index()`: the layout of the
/// collector's accumulators.
pub(crate) type FlatCounters = [u64; Mode::COUNT * UnitEvent::COUNT];

/// Appends to `rows`, in mode order, each mode's row that `read` fills
/// in from zero and that has a non-zero count, and returns their modes'
/// mask (bit `mode.index()` per row): the one place that decides which
/// rows a [`ModeEvents`] keeps.
pub(crate) fn push_rows<E>(
    rows: &mut Vec<CounterSet>,
    mut read: impl FnMut(Mode, &mut [u64; UnitEvent::COUNT]) -> Result<(), E>,
) -> Result<u8, E> {
    let mut mask = 0;
    for mode in Mode::ALL {
        let mut row = CounterSet::new();
        read(mode, &mut row.counts)?;
        if !row.is_zero() {
            mask |= 1 << mode.index();
            rows.push(row);
        }
    }
    Ok(mask)
}

/// A `read` for [`push_rows`] that copies each mode's row of a flat
/// array.
pub(crate) fn flat_rows(
    flat: &FlatCounters,
) -> impl FnMut(Mode, &mut [u64; UnitEvent::COUNT]) -> Result<(), Infallible> + '_ {
    |mode, counts| {
        let base = mode.index() * UnitEvent::COUNT;
        counts.copy_from_slice(&flat[base..base + UnitEvent::COUNT]);
        Ok(())
    }
}

/// The all-zero row [`ModeEvents::mode`] returns for a mode without one.
static ZERO_ROW: CounterSet = CounterSet::new();

/// Event counts per [`Mode`], kept sparsely: a mode mask plus one
/// [`CounterSet`] row per mode with a non-zero count, in mode order.
///
/// The form is canonical: a mode has a row if and only if one of its
/// counts is non-zero. So two values are equal exactly when their dense
/// per-mode counters are, and the derived equality means what
/// [`ModeCounters`]'s does. `R` stores the rows: a boxed slice in an
/// owned value (a [`crate::Sample`]'s), a borrowed slice in a
/// [`ModeRows`] (the windows a [`crate::SimLog`] yields).
///
/// # Examples
///
/// ```
/// use softwatt_stats::{Mode, ModeCounters, ModeEvents, UnitEvent};
///
/// let mut dense = ModeCounters::new();
/// dense.mode_mut(Mode::Idle).add(UnitEvent::IcacheAccess, 3);
/// let events = ModeEvents::from(&dense);
/// assert_eq!(events.rows().count(), 1, "one row: Idle's");
/// assert_eq!(events.mode(Mode::Idle).get(UnitEvent::IcacheAccess), 3);
/// assert_eq!(events.mode(Mode::User).total(), 0);
/// assert_eq!(events.combined(), dense.combined());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeEvents<R = Box<[CounterSet]>> {
    mask: u8,
    rows: R,
}

/// [`ModeEvents`] whose rows are borrowed: what a log's windows carry.
pub type ModeRows<'a> = ModeEvents<&'a [CounterSet]>;

impl<R: AsRef<[CounterSet]>> ModeEvents<R> {
    /// The events whose rows are `rows`, one per mode set in `mask`, in
    /// mode order.
    pub(crate) fn from_parts(mask: u8, rows: R) -> ModeEvents<R> {
        debug_assert_eq!(rows.as_ref().len(), mask.count_ones() as usize);
        debug_assert!(rows.as_ref().iter().all(|row| !row.is_zero()));
        ModeEvents { mask, rows }
    }

    /// Counters for one mode: its row, or an all-zero row if it has none.
    #[inline]
    pub fn mode(&self, mode: Mode) -> &CounterSet {
        let bit = 1u8 << mode.index();
        if self.mask & bit == 0 {
            return &ZERO_ROW;
        }
        &self.rows.as_ref()[(self.mask & (bit - 1)).count_ones() as usize]
    }

    /// The modes that have a row, as a mask with bit `mode.index()` set
    /// for each.
    #[inline]
    pub fn mask(&self) -> u8 {
        self.mask
    }

    /// Each mode's row, in mode order, for the modes that have one.
    pub fn rows(&self) -> impl Iterator<Item = (Mode, &CounterSet)> + '_ {
        Mode::ALL
            .into_iter()
            .filter(|mode| self.mask & (1 << mode.index()) != 0)
            .zip(self.rows.as_ref())
    }

    /// Sum across all modes: the sum of the rows present.
    pub fn combined(&self) -> CounterSet {
        let mut out = CounterSet::new();
        for row in self.rows.as_ref() {
            out.merge(row);
        }
        out
    }

    /// The events with their rows borrowed.
    #[inline]
    pub fn as_rows(&self) -> ModeRows<'_> {
        ModeEvents {
            mask: self.mask,
            rows: self.rows.as_ref(),
        }
    }
}

impl ModeEvents {
    /// Reads one row per mode, in mode order, by `read`, which fills a
    /// zeroed row's counts, and keeps the non-zero rows (see
    /// [`push_rows`]): how the collector and the decoders build a window's
    /// events with no dense value in between. `rows` is scratch space,
    /// reused from call to call.
    pub(crate) fn read_rows<E>(
        rows: &mut Vec<CounterSet>,
        read: impl FnMut(Mode, &mut [u64; UnitEvent::COUNT]) -> Result<(), E>,
    ) -> Result<ModeEvents, E> {
        rows.clear();
        let mask = push_rows(rows, read)?;
        Ok(ModeEvents::from_parts(mask, rows.as_slice().into()))
    }
}

/// An owned copy of borrowed rows.
impl From<ModeRows<'_>> for ModeEvents {
    fn from(events: ModeRows<'_>) -> ModeEvents {
        ModeEvents::from_parts(events.mask, events.rows.into())
    }
}

/// The sparse form of dense per-mode counters.
impl From<&ModeCounters> for ModeEvents {
    fn from(dense: &ModeCounters) -> ModeEvents {
        let Ok(events) = ModeEvents::read_rows(&mut Vec::new(), |mode, counts| {
            *counts = dense.mode(mode).counts;
            Ok::<_, Infallible>(())
        });
        events
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

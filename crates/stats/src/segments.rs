//! The work windows of a log, stored once and shared.
//!
//! Every [`crate::SimLog`] keeps its work samples in one immutable block
//! behind an [`Arc`], split into segments at its idle gaps. A capture run's
//! log hands its block to the [`crate::PerfTrace`] it captures, and every
//! log replayed from the trace refers to the block's segments in place
//! instead of copying them, so a replay costs O(segments + gaps) however
//! many samples the trace holds. The segment offsets and the cycle totals,
//! per segment and per mode, are computed once, when the block is built,
//! which keeps [`crate::PerfTrace::validate`] O(requests) and a log's
//! per-mode cycle count O(runs).
//!
//! Each segment keeps its own sample vector rather than one flat vector
//! for the whole trace: a decoder fills vectors of a segment's size, which
//! the allocator recycles from load to load, where a single trace-sized
//! vector would be mapped, and page-faulted in, afresh on every load. Each
//! sample owns its event rows, one per mode it touched (see
//! [`crate::ModeEvents`]).
//!
//! The block also carries one write-once memo slot for a post-processor
//! (the power crate keeps each work window's energies there), so results
//! derived from the windows are computed once per block rather than once
//! per log that reads it. Beside it, the block keeps its last replay
//! ([`crate::PerfTrace::fast_replay`]): a replay resumes from the first
//! segment whose gap differs from the last one's, and shares its runs when
//! none does.

use std::any::Any;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::replay::LastReplay;
use crate::{Mode, Sample};

/// What a post-processor keeps in a memo slot, type-erased and shared.
pub type Memo = Arc<dyn Any + Send + Sync>;

/// The write-once memo slot of a [`Segments`] block or a
/// [`crate::SimLog`].
pub type MemoSlot = OnceLock<Memo>;

/// A trace's work samples split into segments at request boundaries,
/// stored once in an immutable shared block. Cloning is an [`Arc`] clone.
///
/// # Examples
///
/// ```
/// use softwatt_stats::{Mode, ModeEvents, Sample, Segments};
///
/// let sample = |cycles| {
///     let mut mode_cycles = [0; Mode::COUNT];
///     mode_cycles[Mode::User.index()] = cycles;
///     Sample { end_cycle: cycles, mode_cycles, events: ModeEvents::default() }
/// };
/// let segments = Segments::new(vec![vec![sample(10), sample(4)], vec![], vec![sample(7)]]);
/// assert_eq!(segments.len(), 3);
/// assert_eq!(segments.get(0).len(), 2);
/// assert!(segments.get(1).is_empty());
/// assert_eq!(segments.samples().count(), 3);
/// ```
#[derive(Clone)]
pub struct Segments(Arc<Block>);

struct Block {
    segments: Vec<Vec<Sample>>,
    /// `offsets[i]` counts the samples of the segments before `i`.
    offsets: Vec<usize>,
    /// The block's cycle totals; `None` when a sum overflows `u64`.
    totals: Option<Totals>,
    has_empty_sample: bool,
    memo: MemoSlot,
    last_replay: Mutex<Option<Arc<LastReplay>>>,
}

struct Totals {
    /// Work cycles up to the end of each segment (cumulative).
    cycle_ends: Vec<u64>,
    /// Cycles per mode over the whole block.
    mode_cycles: [u64; Mode::COUNT],
}

impl Segments {
    /// Builds the block from one sample vector per segment.
    pub fn new(segments: Vec<Vec<Sample>>) -> Segments {
        let mut offsets = Vec::with_capacity(segments.len());
        let mut cycle_ends = Vec::with_capacity(segments.len());
        let mut mode_cycles = [0u64; Mode::COUNT];
        let mut overflowed = false;
        let mut has_empty_sample = false;
        let mut offset = 0;
        let mut total = 0u64;
        for segment in &segments {
            offsets.push(offset);
            offset += segment.len();
            for s in segment {
                let cycles = s
                    .mode_cycles
                    .iter()
                    .try_fold(0u64, |sum, &c| sum.checked_add(c));
                has_empty_sample |= cycles == Some(0);
                match cycles.and_then(|c| total.checked_add(c)) {
                    Some(t) => {
                        total = t;
                        // Each mode's sum is at most `total`, so it fits.
                        for (sum, c) in mode_cycles.iter_mut().zip(&s.mode_cycles) {
                            *sum += c;
                        }
                    }
                    None => overflowed = true,
                }
            }
            cycle_ends.push(total);
        }
        let totals = (!overflowed).then_some(Totals {
            cycle_ends,
            mode_cycles,
        });
        Segments(Arc::new(Block {
            segments,
            offsets,
            totals,
            has_empty_sample,
            memo: OnceLock::new(),
            last_replay: Mutex::new(None),
        }))
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.0.segments.len()
    }

    /// Whether the block has no segments at all.
    pub fn is_empty(&self) -> bool {
        self.0.segments.is_empty()
    }

    /// The samples of segment `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> &[Sample] {
        &self.0.segments[i]
    }

    /// Iterates over the segments in order.
    pub fn iter(&self) -> impl Iterator<Item = &[Sample]> + '_ {
        self.0.segments.iter().map(Vec::as_slice)
    }

    /// Every sample of every segment, in order.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> + '_ {
        self.0.segments.iter().flatten()
    }

    /// Position of segment `i`'s first sample in [`Segments::samples`].
    pub(crate) fn offset(&self, i: usize) -> usize {
        self.0.offsets[i]
    }

    /// Number of samples over all segments.
    pub(crate) fn sample_count(&self) -> usize {
        match (self.0.offsets.last(), self.0.segments.last()) {
            (Some(offset), Some(last)) => offset + last.len(),
            _ => 0,
        }
    }

    /// Total cycles over all samples, or `None` if the sum overflows.
    pub(crate) fn cycles(&self) -> Option<u64> {
        let totals = self.0.totals.as_ref()?;
        Some(totals.cycle_ends.last().copied().unwrap_or(0))
    }

    /// The cycle totals.
    ///
    /// # Panics
    ///
    /// Panics if the cycle total overflows (which
    /// [`crate::PerfTrace::validate`] rejects).
    fn totals(&self) -> &Totals {
        self.0.totals.as_ref().expect("cycle total fits u64")
    }

    /// Cycles covered by segment `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or the cycle total overflows.
    pub(crate) fn segment_cycles(&self, i: usize) -> u64 {
        let ends = &self.totals().cycle_ends;
        ends[i] - if i == 0 { 0 } else { ends[i - 1] }
    }

    /// Cycles attributed to `mode` over all samples.
    ///
    /// # Panics
    ///
    /// Panics if the cycle total overflows.
    pub(crate) fn mode_cycles(&self, mode: Mode) -> u64 {
        self.totals().mode_cycles[mode.index()]
    }

    /// Whether some sample covers zero cycles (the collector never emits
    /// one).
    pub(crate) fn has_empty_sample(&self) -> bool {
        self.0.has_empty_sample
    }

    /// The block's write-once memo slot. The first consumer to fill it
    /// owns it; the slot lives as long as the block and is never part of
    /// equality or serialization.
    pub fn memo(&self) -> &MemoSlot {
        &self.0.memo
    }

    /// The block's last replay: one slot, so a block retains at most one.
    /// A replay holds the lock only to clone or replace the entry.
    pub(crate) fn last_replay(&self) -> &Mutex<Option<Arc<LastReplay>>> {
        &self.0.last_replay
    }
}

impl PartialEq for Segments {
    fn eq(&self, other: &Segments) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.segments == other.0.segments
    }
}

impl fmt::Debug for Segments {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.segments.fmt(f)
    }
}

impl From<Vec<Vec<Sample>>> for Segments {
    fn from(segments: Vec<Vec<Sample>>) -> Segments {
        Segments::new(segments)
    }
}

//! The sampled simulation log consumed by the power post-processor.
//!
//! Mirroring the paper's design, the simulator does not evaluate power models
//! while running. Instead the [`crate::StatsCollector`] appends a delta
//! [`Sample`] to a [`SimLog`] every `sample_interval` cycles; the
//! `softwatt-power` crate later replays the log through the analytical
//! models. This loses per-cycle information (as the paper acknowledges) but
//! adds no simulation slowdown.
//!
//! Every log has one layout, read through one window iterator
//! ([`SimLog::windows`]): the work windows live in a shared block
//! ([`crate::Segments`]), and the log is a list of *runs* laid end to end
//! from cycle 0, each either one segment of that block or one analytic
//! idle gap. The collector writes its own block this way, a log replayed
//! from a trace reads the trace's block in place, and a capture hands the
//! block it wrote to its trace. Run start cycles and window end cycles are
//! derived from the cycle counts, so a log cannot hold a window whose end
//! cycle disagrees with the windows before it.
//!
//! Every window keeps its events sparsely ([`ModeEvents`]): one row per
//! mode with a non-zero count. A work sample owns its rows; the rows of a
//! log's gap windows live in one vector per log, so writing a gap
//! allocates nothing of its own.
//!
//! A log keeps its runs (the run list, the gap rows and the gap memo)
//! behind one [`Arc`], so logs that [`crate::PerfTrace::fast_replay`]
//! builds from the same inputs share them, and share whatever a
//! post-processor keeps in the gap memo. Runs that a replay resumed from
//! another replay's carry that replay's gap memo until a post-processor
//! takes it (see [`SimLog::take_gap_memo_seed`]).

use std::fmt;
use std::io::{self, BufRead, Write};
use std::sync::{Arc, Mutex, PoisonError};

use crate::segments::{Memo, MemoSlot};
use crate::{CounterSet, Mode, ModeCounters, ModeEvents, ModeRows, Segments, UnitEvent};

/// One sampling window of the simulation log.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Cycle at which the window ends (exclusive).
    pub end_cycle: u64,
    /// Cycles spent in each mode during the window, indexed by
    /// [`Mode::index`].
    pub mode_cycles: [u64; Mode::COUNT],
    /// Event-count deltas accumulated during the window, per mode.
    pub events: ModeEvents,
}

impl Sample {
    /// Total cycles covered by this sample window.
    pub fn cycles(&self) -> u64 {
        self.mode_cycles.iter().sum()
    }

    /// The sample as a borrowed [`Window`].
    pub fn window(&self) -> Window<'_> {
        Window {
            end_cycle: self.end_cycle,
            mode_cycles: self.mode_cycles,
            events: self.events.as_rows(),
        }
    }
}

/// One window of a [`SimLog`] as its window iterator yields it: a
/// [`Sample`] whose events are borrowed from wherever the log keeps them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window<'a> {
    /// Cycle at which the window ends (exclusive).
    pub end_cycle: u64,
    /// Cycles spent in each mode during the window.
    pub mode_cycles: [u64; Mode::COUNT],
    /// Event-count deltas accumulated during the window, per mode.
    pub events: ModeRows<'a>,
}

impl Window<'_> {
    /// Total cycles covered by this window.
    pub fn cycles(&self) -> u64 {
        self.mode_cycles.iter().sum()
    }

    /// An owned copy of the window.
    pub fn to_sample(&self) -> Sample {
        Sample {
            end_cycle: self.end_cycle,
            mode_cycles: self.mode_cycles,
            events: self.events.into(),
        }
    }
}

/// One run of consecutive windows of a [`SimLog`], as post-processors see
/// it (see [`SimLog::runs`]).
#[derive(Debug, Clone, Copy)]
pub enum LogRun<'a> {
    /// A segment of the log's block ([`SimLog::block`]), read with end
    /// cycles counted from `start_cycle`. Its samples sit at
    /// `offset..offset + samples.len()` of `block.samples()`.
    Segment {
        /// The segment's samples.
        samples: &'a [Sample],
        /// Index of the first sample within the shared block.
        offset: usize,
        /// Cycle at which the run starts.
        start_cycle: u64,
    },
    /// An analytic idle gap of `cycles` idle cycles from `start_cycle`,
    /// cut into `interval`-cycle windows (the last may be shorter). The
    /// first window carries all of the gap's `events`; the rest carry
    /// none.
    IdleGap {
        /// Cycle at which the gap starts.
        start_cycle: u64,
        /// Length of the gap.
        cycles: u64,
        /// Sampling interval the gap is cut by.
        interval: u64,
        /// Events of the gap's first window: the synthesized idle events
        /// (in [`Mode::Idle`]) plus any the collector recorded after its
        /// last tick before the gap.
        events: ModeRows<'a>,
    },
}

impl<'a> LogRun<'a> {
    /// The run's windows in cycle order.
    pub fn windows(self) -> RunWindows<'a> {
        RunWindows(match self {
            LogRun::Segment {
                samples,
                start_cycle,
                ..
            } => Cursor::Samples {
                samples: samples.iter(),
                cycle: start_cycle,
            },
            LogRun::IdleGap {
                start_cycle,
                cycles,
                interval,
                events,
            } => Cursor::IdleGap {
                cycle: start_cycle,
                remaining: cycles,
                interval,
                first: Some(events),
            },
        })
    }
}

/// Iterator over the windows of one [`LogRun`].
#[derive(Debug, Clone)]
pub struct RunWindows<'a>(Cursor<'a>);

#[derive(Debug, Clone)]
enum Cursor<'a> {
    Samples {
        samples: std::slice::Iter<'a, Sample>,
        // Running end cycle.
        cycle: u64,
    },
    IdleGap {
        cycle: u64,
        remaining: u64,
        interval: u64,
        first: Option<ModeRows<'a>>,
    },
}

impl<'a> Iterator for RunWindows<'a> {
    type Item = Window<'a>;

    fn next(&mut self) -> Option<Window<'a>> {
        match &mut self.0 {
            Cursor::Samples { samples, cycle } => {
                let mut w = samples.next()?.window();
                *cycle += w.cycles();
                w.end_cycle = *cycle;
                Some(w)
            }
            Cursor::IdleGap {
                cycle,
                remaining,
                interval,
                first,
            } => {
                if *remaining == 0 {
                    return None;
                }
                let step = (*remaining).min(*interval);
                *remaining -= step;
                *cycle += step;
                let mut mode_cycles = [0u64; Mode::COUNT];
                mode_cycles[Mode::Idle.index()] = step;
                Some(Window {
                    end_cycle: *cycle,
                    mode_cycles,
                    events: first.take().unwrap_or_default(),
                })
            }
        }
    }
}

/// How a [`SimLog`] stores one run (see [`LogRun`]). Runs are laid end
/// to end from cycle 0.
#[derive(Debug, Clone)]
pub(crate) enum Part {
    /// The next segment of the log's block: the k-th `Segment` part reads
    /// segment k, so a log reads every segment of its block once, in
    /// block order.
    Segment,
    /// An analytic idle gap of `cycles` cycles. Its first window's events
    /// are the log's gap rows from `first_row` on, one per mode in `mask`
    /// (see [`ModeEvents`]).
    IdleGap {
        cycles: u64,
        mask: u8,
        first_row: usize,
    },
}

/// A sequence of sampling windows plus whole-run metadata.
///
/// Equality compares window by window, whatever runs hold them.
///
/// Like its block, a log carries one write-once memo slot for a
/// post-processor (the power crate keeps what it derives from the log's
/// runs there). It is never part of equality. It belongs to the log's
/// runs, so logs that share their runs share it, and so does a clone,
/// which shares the block and the runs.
///
/// # Examples
///
/// ```
/// use softwatt_stats::{Clocking, Mode, StatsCollector, UnitEvent};
///
/// let mut stats = StatsCollector::new(Clocking::full_speed(200.0e6), 4);
/// for _ in 0..10 {
///     stats.record(UnitEvent::AluOp);
///     stats.tick();
/// }
/// let log = stats.finish();
/// assert_eq!(log.total_cycles(), 10);
/// // Two full windows of 4 cycles plus the 2-cycle remainder.
/// assert_eq!(log.len(), 3);
/// assert_eq!(log.windows().last().unwrap().cycles(), 2);
/// ```
#[derive(Clone)]
pub struct SimLog {
    clocking: crate::Clocking,
    sample_interval: u64,
    // The block the `Part::Segment` runs read, one run per segment.
    block: Segments,
    runs: Arc<Runs>,
}

/// A log's runs over its block, shared by every log
/// [`crate::PerfTrace::fast_replay`] builds from the same inputs. They
/// hold no reference to the block, so a block may keep them (see
/// [`Segments`]) without a reference cycle, and none to other runs.
pub(crate) struct Runs {
    pub(crate) parts: Vec<Part>,
    // The rows of the gaps' first-window events, in gap order.
    pub(crate) gap_rows: Vec<CounterSet>,
    pub(crate) gap_memo: MemoSlot,
    // The gap memo of the runs these were resumed from, and how many of
    // their gaps these copied, until a post-processor takes it.
    seed: Mutex<Option<(Memo, usize)>>,
}

/// How far a replay's runs agree with the gaps of another replay over the
/// same block (see [`Runs::prefix`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Prefix {
    /// The segments whose gaps agree: the first `segments` segments.
    pub(crate) segments: usize,
    /// The gaps after those segments, their gap rows and their cycles.
    /// The runs' parts before the first segment whose gap disagrees are
    /// the first `segments + gaps`.
    pub(crate) gaps: usize,
    pub(crate) rows: usize,
    pub(crate) cycles: u64,
}

impl Runs {
    /// The runs `parts` over `block`, reading gap events from `gap_rows`,
    /// with an empty gap memo and `seed` as the memo they resumed from
    /// (see [`SimLog::take_gap_memo_seed`]).
    ///
    /// # Panics
    ///
    /// Panics unless `parts` holds one `Segment` part per segment of
    /// `block`.
    pub(crate) fn new(
        block: &Segments,
        parts: Vec<Part>,
        gap_rows: Vec<CounterSet>,
        seed: Option<(Memo, usize)>,
    ) -> Arc<Runs> {
        let segment_runs = parts
            .iter()
            .filter(|part| matches!(part, Part::Segment))
            .count();
        assert_eq!(
            segment_runs,
            block.len(),
            "a log reads every segment of its block once"
        );
        Arc::new(Runs {
            parts,
            gap_rows,
            gap_memo: MemoSlot::new(),
            seed: Mutex::new(seed),
        })
    }

    /// The longest prefix of these runs that inserts exactly `gaps`
    /// between its segments: a gap of `gaps[i]` cycles after segment `i`,
    /// none where that is zero or past the end of `gaps`. The runs insert
    /// exactly `gaps` when the prefix covers every segment.
    ///
    /// The runs must be a replay's: each segment part followed by at most
    /// one gap part, of a non-zero gap.
    pub(crate) fn prefix(&self, gaps: &[u64]) -> Prefix {
        let mut prefix = Prefix {
            segments: 0,
            gaps: 0,
            rows: 0,
            cycles: 0,
        };
        while let Some(part) = self.parts.get(prefix.segments + prefix.gaps) {
            debug_assert!(matches!(part, Part::Segment));
            let next = self.parts.get(prefix.segments + prefix.gaps + 1);
            let (held, mask) = match next {
                Some(&Part::IdleGap { cycles, mask, .. }) => (cycles, Some(mask)),
                _ => (0, None),
            };
            if held != gaps.get(prefix.segments).copied().unwrap_or(0) {
                break;
            }
            prefix.segments += 1;
            if let Some(mask) = mask {
                prefix.gaps += 1;
                prefix.rows += mask.count_ones() as usize;
                prefix.cycles += held;
            }
        }
        prefix
    }
}

impl SimLog {
    /// The log whose runs are `parts`, reading segments from `block` and
    /// gap events from `gap_rows`.
    ///
    /// # Panics
    ///
    /// Panics unless `parts` holds one `Segment` part per segment of
    /// `block`.
    pub(crate) fn new(
        clocking: crate::Clocking,
        sample_interval: u64,
        block: Segments,
        parts: Vec<Part>,
        gap_rows: Vec<CounterSet>,
    ) -> SimLog {
        let runs = Runs::new(&block, parts, gap_rows, None);
        SimLog::with_runs(clocking, sample_interval, block, runs)
    }

    /// The log whose runs are `runs`, built over `block` (see
    /// [`Runs::new`]) and perhaps shared with other logs.
    pub(crate) fn with_runs(
        clocking: crate::Clocking,
        sample_interval: u64,
        block: Segments,
        runs: Arc<Runs>,
    ) -> SimLog {
        SimLog {
            clocking,
            sample_interval,
            block,
            runs,
        }
    }

    /// The log's runs, which its clones and shared replays share.
    #[cfg(test)]
    pub(crate) fn shared_runs(&self) -> &Arc<Runs> {
        &self.runs
    }

    /// The clocking the run was performed under.
    pub fn clocking(&self) -> crate::Clocking {
        self.clocking
    }

    /// Nominal sampling window length in cycles (the final sample may be
    /// shorter).
    pub fn sample_interval(&self) -> u64 {
        self.sample_interval
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        let gap_windows: usize = self
            .gaps()
            .map(|cycles| cycles.div_ceil(self.sample_interval) as usize)
            .sum();
        self.block.sample_count() + gap_windows
    }

    /// Whether the log has no windows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The block of work windows this log's segment runs read: the k-th
    /// segment run reads segment k, so every log reads each segment of its
    /// block once, in block order.
    pub fn block(&self) -> &Segments {
        &self.block
    }

    /// The log's write-once memo slot for what a post-processor derives
    /// from its runs. The first consumer to fill it owns it. Logs that
    /// share their runs share the slot.
    pub fn gap_memo(&self) -> &MemoSlot {
        &self.runs.gap_memo
    }

    /// What the log's runs were resumed from, for the post-processor that
    /// fills their gap memo: the gap memo of the replay
    /// [`crate::PerfTrace::fast_replay`] resumed (as that replay's
    /// post-processor had filled it when these runs were built), and how
    /// many gaps the runs copied from that replay. Those gaps are that
    /// replay's first gaps: the same lengths after the same segments of
    /// the same block, with the same first-window events and the same
    /// sampling interval. The first call takes it, so the runs stop
    /// holding the other memo; later calls, and logs whose runs were not
    /// resumed, get `None`.
    pub fn take_gap_memo_seed(&self) -> Option<(Memo, usize)> {
        self.runs
            .seed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// The lengths of the log's idle gaps, in order.
    fn gaps(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.parts.iter().filter_map(|part| match part {
            Part::Segment => None,
            Part::IdleGap { cycles, .. } => Some(*cycles),
        })
    }

    /// The log's runs in cycle order.
    pub fn runs(&self) -> impl Iterator<Item = LogRun<'_>> + '_ {
        let mut cycle = 0u64;
        let mut segment = 0;
        self.runs.parts.iter().map(move |part| {
            let start_cycle = cycle;
            match part {
                Part::Segment => {
                    let index = segment;
                    segment += 1;
                    cycle += self.block.segment_cycles(index);
                    LogRun::Segment {
                        samples: self.block.get(index),
                        offset: self.block.offset(index),
                        start_cycle,
                    }
                }
                Part::IdleGap {
                    cycles,
                    mask,
                    first_row,
                } => {
                    cycle += cycles;
                    let rows = *first_row..first_row + mask.count_ones() as usize;
                    LogRun::IdleGap {
                        start_cycle,
                        cycles: *cycles,
                        interval: self.sample_interval,
                        events: ModeEvents::from_parts(*mask, &self.runs.gap_rows[rows]),
                    }
                }
            }
        })
    }

    /// All windows in cycle order.
    pub fn windows(&self) -> impl Iterator<Item = Window<'_>> + '_ {
        self.runs().flat_map(LogRun::windows)
    }

    /// Total simulated cycles across all windows.
    pub fn total_cycles(&self) -> u64 {
        let work = self.block.cycles().expect("cycle total fits u64");
        work + self.gaps().sum::<u64>()
    }

    /// Total cycles attributed to `mode`: the block's, plus every idle
    /// gap's for [`Mode::Idle`].
    pub fn mode_cycles(&self, mode: Mode) -> u64 {
        let gaps = if mode == Mode::Idle {
            self.gaps().sum()
        } else {
            0
        };
        self.block.mode_cycles(mode) + gaps
    }

    /// Writes the log as CSV — the on-disk "simulation log file" of the
    /// paper's Figure 1 pipeline. Columns: `end_cycle`, one cycle column
    /// per mode, then one column per `(mode, event)` pair.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn to_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(
            w,
            "# softwatt simlog v1 hz={} scale={} interval={}",
            self.clocking.hz(),
            self.clocking.scale(),
            self.sample_interval
        )?;
        write!(w, "end_cycle")?;
        for m in Mode::ALL {
            write!(w, ",cycles_{}", m.label())?;
        }
        for m in Mode::ALL {
            for e in UnitEvent::ALL {
                write!(w, ",{}_{}", m.label(), e.label())?;
            }
        }
        writeln!(w)?;
        for s in self.windows() {
            write!(w, "{}", s.end_cycle)?;
            for m in Mode::ALL {
                write!(w, ",{}", s.mode_cycles[m.index()])?;
            }
            for m in Mode::ALL {
                for count in s.events.mode(m).counts() {
                    write!(w, ",{count}")?;
                }
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Reads a log previously written by [`SimLog::to_csv`], as one
    /// segment of a fresh block.
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures or a malformed file (wrong
    /// header, wrong column count, unparsable numbers, or an end cycle
    /// that is not the running total of the rows' cycles).
    pub fn from_csv<R: BufRead>(r: R) -> io::Result<SimLog> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut lines = r.lines();
        let header = lines.next().ok_or_else(|| bad("empty log file"))??;
        let rest = header
            .strip_prefix("# softwatt simlog v1 ")
            .ok_or_else(|| bad("missing simlog header"))?;
        let mut hz = None;
        let mut scale = None;
        let mut interval = None;
        for field in rest.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| bad("malformed header field"))?;
            match key {
                "hz" => hz = value.parse::<f64>().ok(),
                "scale" => scale = value.parse::<f64>().ok(),
                "interval" => interval = value.parse::<u64>().ok(),
                _ => {}
            }
        }
        let (hz, scale, interval) = match (hz, scale, interval) {
            (Some(h), Some(s), Some(i)) => (h, s, i),
            _ => return Err(bad("incomplete simlog header")),
        };
        let clocking = crate::Clocking::try_scaled(hz, scale)
            .ok_or_else(|| bad("simlog clock rate and time scale must be positive and finite"))?;
        let _columns = lines.next().ok_or_else(|| bad("missing column header"))??;
        let mut samples = Vec::new();
        // One row per mode with a non-zero count, reused row to row.
        let mut rows = Vec::with_capacity(Mode::COUNT);
        let mut prev_end = None;
        let expected = 1 + Mode::COUNT + Mode::COUNT * UnitEvent::COUNT;
        for line in lines {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            let mut next_u64 = || -> io::Result<u64> {
                fields
                    .next()
                    .ok_or_else(|| bad("short row"))?
                    .parse()
                    .map_err(|_| bad("unparsable count"))
            };
            let end_cycle = next_u64()?;
            let mut mode_cycles = [0u64; Mode::COUNT];
            for mc in &mut mode_cycles {
                *mc = next_u64()?;
            }
            let events = ModeEvents::read_rows(&mut rows, |_, counts| {
                for count in counts {
                    *count = next_u64()?;
                }
                Ok::<_, io::Error>(())
            })?;
            if line.split(',').count() != expected {
                return Err(bad("wrong column count"));
            }
            if prev_end.is_some_and(|prev| prev >= end_cycle) {
                return Err(bad("simlog end cycles must increase"));
            }
            let total = mode_cycles
                .iter()
                .try_fold(prev_end.unwrap_or(0), |sum: u64, &c| sum.checked_add(c));
            if total != Some(end_cycle) {
                return Err(bad("simlog end cycle is not the running cycle total"));
            }
            prev_end = Some(end_cycle);
            samples.push(Sample {
                end_cycle,
                mode_cycles,
                events,
            });
        }
        let block = Segments::new(vec![samples]);
        Ok(SimLog::new(
            clocking,
            interval,
            block,
            vec![Part::Segment],
            Vec::new(),
        ))
    }

    /// Sums event counters over the whole run, per mode.
    pub fn total_events(&self) -> ModeCounters {
        let mut out = ModeCounters::new();
        for w in self.windows() {
            out.add_events(&w.events);
        }
        out
    }
}

impl PartialEq for SimLog {
    fn eq(&self, other: &SimLog) -> bool {
        self.clocking == other.clocking
            && self.sample_interval == other.sample_interval
            && self.len() == other.len()
            && self.windows().eq(other.windows())
    }
}

impl fmt::Debug for SimLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimLog")
            .field("clocking", &self.clocking)
            .field("sample_interval", &self.sample_interval)
            .field("windows", &self.windows().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clocking, UnitEvent};

    fn sample(end: u64, user_cycles: u64, alu: u64) -> Sample {
        let mut events = ModeCounters::new();
        events.mode_mut(Mode::User).add(UnitEvent::AluOp, alu);
        let mut mode_cycles = [0; Mode::COUNT];
        mode_cycles[Mode::User.index()] = user_cycles;
        Sample {
            end_cycle: end,
            mode_cycles,
            events: (&events).into(),
        }
    }

    /// A one-segment log of `samples`.
    fn log_of(clocking: Clocking, interval: u64, samples: Vec<Sample>) -> SimLog {
        let block = Segments::new(vec![samples]);
        SimLog::new(clocking, interval, block, vec![Part::Segment], Vec::new())
    }

    fn read_csv(csv: &[u8]) -> io::Result<SimLog> {
        SimLog::from_csv(std::io::BufReader::new(csv))
    }

    #[test]
    fn aggregates_cycles_and_events() {
        let log = log_of(
            Clocking::default(),
            100,
            vec![sample(100, 100, 40), sample(200, 100, 60)],
        );
        assert_eq!(log.total_cycles(), 200);
        assert_eq!(log.mode_cycles(Mode::User), 200);
        assert_eq!(log.mode_cycles(Mode::Idle), 0);
        let totals = log.total_events();
        assert_eq!(totals.mode(Mode::User).get(UnitEvent::AluOp), 100);
        assert_eq!(totals.combined(), {
            let mut c = CounterSet::new();
            c.add(UnitEvent::AluOp, 100);
            c
        });
    }

    #[test]
    fn csv_round_trip_preserves_the_log() {
        let log = log_of(
            Clocking::scaled(200.0e6, 2000.0),
            100,
            vec![sample(100, 100, 40), sample(200, 100, 60)],
        );
        let mut buf = Vec::new();
        log.to_csv(&mut buf).unwrap();
        assert_eq!(read_csv(&buf).unwrap(), log);
    }

    #[test]
    fn csv_rejects_garbage() {
        let garbage = b"not a log
1,2,3
";
        assert!(read_csv(&garbage[..]).is_err());
    }

    /// Window end cycles are derived from the cycle counts, so a row whose
    /// end cycle is not the running total of the rows' cycles cannot be
    /// read, even when the end cycles still increase.
    #[test]
    fn csv_rejects_an_end_cycle_off_the_running_total() {
        let log = log_of(
            Clocking::scaled(200.0e6, 2000.0),
            100,
            vec![sample(100, 100, 40), sample(200, 100, 60)],
        );
        let mut buf = Vec::new();
        log.to_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let edited = text.replace("\n200,", "\n250,");
        assert_ne!(edited, text);
        let err = read_csv(edited.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("running cycle total"), "{err}");
    }

    /// The k-th segment run reads segment k, so a log has one segment run
    /// per segment of its block.
    #[test]
    #[should_panic(expected = "a log reads every segment of its block once")]
    fn a_log_reads_every_segment_of_its_block() {
        let block = Segments::new(vec![vec![sample(100, 100, 1)], vec![sample(100, 100, 2)]]);
        SimLog::new(
            Clocking::default(),
            100,
            block,
            vec![Part::Segment],
            Vec::new(),
        );
    }

    /// Per-mode cycles come from the block's totals plus the gaps' cycles,
    /// and equal a walk over every window.
    #[test]
    fn mode_cycles_equal_a_window_walk() {
        let mut idle = sample(0, 30, 0);
        idle.mode_cycles[Mode::Idle.index()] = 70;
        let mut kernel = sample(0, 0, 5);
        kernel.mode_cycles[Mode::KernelInstr.index()] = 40;
        let block = Segments::new(vec![vec![sample(100, 100, 4), idle], vec![kernel]]);
        let gap = Part::IdleGap {
            cycles: 250,
            mask: 0,
            first_row: 0,
        };
        let log = SimLog::new(
            Clocking::default(),
            100,
            block,
            vec![Part::Segment, gap, Part::Segment],
            Vec::new(),
        );
        for mode in Mode::ALL {
            let walked: u64 = log.windows().map(|w| w.mode_cycles[mode.index()]).sum();
            assert_eq!(log.mode_cycles(mode), walked, "{mode}");
        }
        assert_eq!(log.mode_cycles(Mode::Idle), 320);
        assert_eq!(log.total_cycles(), 490);
        assert_eq!(log.len(), 6);
    }

    #[test]
    fn empty_log_is_zero() {
        let log = log_of(Clocking::default(), 10, Vec::new());
        assert_eq!(log.total_cycles(), 0);
        assert!(log.is_empty());
        assert!(log.windows().next().is_none());
    }

    fn csv_with_header(header: &str) -> Vec<u8> {
        let log = log_of(
            Clocking::scaled(200.0e6, 2000.0),
            100,
            vec![sample(100, 100, 40)],
        );
        let mut buf = Vec::new();
        log.to_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let body = text.split_once('\n').unwrap().1;
        format!("{header}\n{body}").into_bytes()
    }

    #[test]
    fn csv_rejects_a_zero_clock_rate() {
        let csv = csv_with_header("# softwatt simlog v1 hz=0 scale=2000 interval=100");
        let err = read_csv(&csv).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn csv_rejects_a_nan_or_non_positive_scale() {
        for scale in ["NaN", "-2000", "0", "inf"] {
            let csv = csv_with_header(&format!(
                "# softwatt simlog v1 hz=200000000 scale={scale} interval=100"
            ));
            let err = read_csv(&csv).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "scale={scale}");
        }
    }
}

//! The sampled simulation log consumed by the power post-processor.
//!
//! Mirroring the paper's design, the simulator does not evaluate power models
//! while running. Instead the [`crate::StatsCollector`] appends a delta
//! [`Sample`] to a [`SimLog`] every `sample_interval` cycles; the
//! `softwatt-power` crate later replays the log through the analytical
//! models. This loses per-cycle information (as the paper acknowledges) but
//! adds no simulation slowdown.
//!
//! A log is a short list of *runs* read through one window iterator
//! ([`SimLog::windows`]): the collector's own samples, a segment of a
//! trace's shared work block ([`crate::Segments`]) placed at a start
//! cycle, or one analytic idle gap. A log replayed from a trace therefore
//! shares the trace's work windows instead of copying them, while reading
//! exactly like the log a direct simulation writes.

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::{Mode, ModeCounters, Segments, UnitEvent};

/// One sampling window of the simulation log.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Cycle at which the window ends (exclusive).
    pub end_cycle: u64,
    /// Cycles spent in each mode during the window, indexed by
    /// [`Mode::index`].
    pub mode_cycles: [u64; Mode::COUNT],
    /// Event-count deltas accumulated during the window, per mode.
    pub events: ModeCounters,
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
            events: &self.events,
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
    pub events: &'a ModeCounters,
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
            events: self.events.clone(),
        }
    }
}

/// The events of every idle-gap window after the first.
static NO_EVENTS: ModeCounters = ModeCounters::new();

/// One run of consecutive windows of a [`SimLog`], as post-processors see
/// it (see [`SimLog::runs`]).
#[derive(Debug, Clone, Copy)]
pub enum LogRun<'a> {
    /// Samples stored in the log itself, read verbatim.
    Owned(&'a [Sample]),
    /// A segment of the log's shared block ([`SimLog::shared`]), read
    /// with end cycles counted from `start_cycle`. Its samples sit at
    /// `offset..offset + samples.len()` of `shared.samples()`.
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
        /// Events of the gap's first window (all in [`Mode::Idle`]).
        events: &'a ModeCounters,
    },
}

impl<'a> LogRun<'a> {
    /// The run's windows in cycle order.
    pub fn windows(self) -> RunWindows<'a> {
        RunWindows(match self {
            LogRun::Owned(samples) => Cursor::Samples {
                samples: samples.iter(),
                cycle: None,
            },
            LogRun::Segment {
                samples,
                start_cycle,
                ..
            } => Cursor::Samples {
                samples: samples.iter(),
                cycle: Some(start_cycle),
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
        // Running end cycle for a shared segment; `None` reads each
        // sample's own `end_cycle`.
        cycle: Option<u64>,
    },
    IdleGap {
        cycle: u64,
        remaining: u64,
        interval: u64,
        first: Option<&'a ModeCounters>,
    },
}

impl<'a> Iterator for RunWindows<'a> {
    type Item = Window<'a>;

    fn next(&mut self) -> Option<Window<'a>> {
        match &mut self.0 {
            Cursor::Samples { samples, cycle } => {
                let mut w = samples.next()?.window();
                if let Some(c) = cycle {
                    *c += w.cycles();
                    w.end_cycle = *c;
                }
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
                    events: first.take().unwrap_or(&NO_EVENTS),
                })
            }
        }
    }
}

/// How a [`SimLog`] stores one run (see [`LogRun`]).
#[derive(Debug, Clone)]
enum Part {
    Owned(Vec<Sample>),
    Segment {
        index: usize,
        start_cycle: u64,
    },
    IdleGap {
        start_cycle: u64,
        cycles: u64,
        events: Box<ModeCounters>,
    },
}

/// A sequence of sampling windows plus whole-run metadata.
///
/// Equality compares window by window, whatever runs hold them: a log
/// replayed from a trace equals the owned log a direct simulation writes
/// when every window matches.
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
    // The trace block every `Part::Segment` indexes into.
    shared: Option<Segments>,
    parts: Vec<Part>,
    len: usize,
}

impl SimLog {
    pub(crate) fn new(clocking: crate::Clocking, sample_interval: u64) -> SimLog {
        SimLog {
            clocking,
            sample_interval,
            shared: None,
            parts: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, sample: Sample) {
        self.len += 1;
        if let Some(Part::Owned(samples)) = self.parts.last_mut() {
            debug_assert!(
                samples
                    .last()
                    .is_none_or(|s| s.end_cycle < sample.end_cycle),
                "samples must be appended in cycle order"
            );
            samples.push(sample);
        } else {
            self.parts.push(Part::Owned(vec![sample]));
        }
    }

    /// Appends segment `index` of the shared block `segments`, starting at
    /// `start_cycle`. A log shares at most one block.
    pub(crate) fn push_segment(&mut self, segments: &Segments, index: usize, start_cycle: u64) {
        let count = segments.get(index).len();
        if count == 0 {
            return;
        }
        let shared = self.shared.get_or_insert_with(|| segments.clone());
        assert!(shared.ptr_eq(segments), "a log shares one block");
        self.len += count;
        self.parts.push(Part::Segment { index, start_cycle });
    }

    /// Appends an idle gap of `cycles` cycles starting at `start_cycle`
    /// whose first window carries `events`.
    pub(crate) fn push_idle_gap(&mut self, start_cycle: u64, cycles: u64, events: ModeCounters) {
        if cycles == 0 {
            return;
        }
        self.len += cycles.div_ceil(self.sample_interval) as usize;
        self.parts.push(Part::IdleGap {
            start_cycle,
            cycles,
            events: Box::new(events),
        });
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
        self.len
    }

    /// Whether the log has no windows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The trace block this log's segment runs read from, if any.
    pub fn shared(&self) -> Option<&Segments> {
        self.shared.as_ref()
    }

    /// The log's runs in cycle order.
    pub fn runs(&self) -> impl Iterator<Item = LogRun<'_>> + '_ {
        self.parts.iter().map(move |part| match part {
            Part::Owned(samples) => LogRun::Owned(samples),
            Part::Segment { index, start_cycle } => {
                let shared = self.shared.as_ref().expect("segment runs have a block");
                LogRun::Segment {
                    samples: shared.get(*index),
                    offset: shared.offset(*index),
                    start_cycle: *start_cycle,
                }
            }
            Part::IdleGap {
                start_cycle,
                cycles,
                events,
            } => LogRun::IdleGap {
                start_cycle: *start_cycle,
                cycles: *cycles,
                interval: self.sample_interval,
                events,
            },
        })
    }

    /// All windows in cycle order.
    pub fn windows(&self) -> impl Iterator<Item = Window<'_>> + '_ {
        self.runs().flat_map(LogRun::windows)
    }

    /// Total simulated cycles across all windows.
    pub fn total_cycles(&self) -> u64 {
        self.parts
            .iter()
            .map(|part| match part {
                Part::Owned(samples) => samples.iter().map(Sample::cycles).sum(),
                Part::Segment { index, .. } => self
                    .shared
                    .as_ref()
                    .expect("segment runs have a block")
                    .segment_cycles(*index),
                Part::IdleGap { cycles, .. } => *cycles,
            })
            .sum()
    }

    /// Total cycles attributed to `mode`.
    pub fn mode_cycles(&self, mode: Mode) -> u64 {
        self.windows().map(|w| w.mode_cycles[mode.index()]).sum()
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
                for e in UnitEvent::ALL {
                    write!(w, ",{}", s.events.mode(m).get(e))?;
                }
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Reads a log previously written by [`SimLog::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures or a malformed file (wrong
    /// header, wrong column count, unparsable numbers).
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
        let mut log = SimLog::new(clocking, interval);
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
            let mut events = ModeCounters::new();
            for m in Mode::ALL {
                for e in UnitEvent::ALL {
                    events.mode_mut(m).add(e, next_u64()?);
                }
            }
            if line.split(',').count() != expected {
                return Err(bad("wrong column count"));
            }
            if prev_end.is_some_and(|prev| prev >= end_cycle) {
                return Err(bad("simlog end cycles must increase"));
            }
            prev_end = Some(end_cycle);
            log.push(Sample {
                end_cycle,
                mode_cycles,
                events,
            });
        }
        Ok(log)
    }

    /// Sums event counters over the whole run, per mode.
    pub fn total_events(&self) -> ModeCounters {
        let mut out = ModeCounters::new();
        for w in self.windows() {
            out.merge(w.events);
        }
        out
    }
}

impl PartialEq for SimLog {
    fn eq(&self, other: &SimLog) -> bool {
        self.clocking == other.clocking
            && self.sample_interval == other.sample_interval
            && self.len == other.len
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
    use crate::{Clocking, CounterSet, UnitEvent};

    fn sample(end: u64, user_cycles: u64, alu: u64) -> Sample {
        let mut events = ModeCounters::new();
        events.mode_mut(Mode::User).add(UnitEvent::AluOp, alu);
        let mut mode_cycles = [0; Mode::COUNT];
        mode_cycles[Mode::User.index()] = user_cycles;
        Sample {
            end_cycle: end,
            mode_cycles,
            events,
        }
    }

    #[test]
    fn aggregates_cycles_and_events() {
        let mut log = SimLog::new(Clocking::default(), 100);
        log.push(sample(100, 100, 40));
        log.push(sample(200, 100, 60));
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
        let mut log = SimLog::new(Clocking::scaled(200.0e6, 2000.0), 100);
        log.push(sample(100, 100, 40));
        log.push(sample(200, 100, 60));
        let mut buf = Vec::new();
        log.to_csv(&mut buf).unwrap();
        let back = SimLog::from_csv(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn csv_rejects_garbage() {
        let garbage = b"not a log
1,2,3
";
        assert!(SimLog::from_csv(std::io::BufReader::new(&garbage[..])).is_err());
    }

    #[test]
    fn empty_log_is_zero() {
        let log = SimLog::new(Clocking::default(), 10);
        assert_eq!(log.total_cycles(), 0);
        assert!(log.windows().next().is_none());
    }

    fn csv_with_header(header: &str) -> Vec<u8> {
        let mut log = SimLog::new(Clocking::scaled(200.0e6, 2000.0), 100);
        log.push(sample(100, 100, 40));
        let mut buf = Vec::new();
        log.to_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let body = text.split_once('\n').unwrap().1;
        format!("{header}\n{body}").into_bytes()
    }

    #[test]
    fn csv_rejects_a_zero_clock_rate() {
        let csv = csv_with_header("# softwatt simlog v1 hz=0 scale=2000 interval=100");
        let err = SimLog::from_csv(std::io::BufReader::new(&csv[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn csv_rejects_a_nan_or_non_positive_scale() {
        for scale in ["NaN", "-2000", "0", "inf"] {
            let csv = csv_with_header(&format!(
                "# softwatt simlog v1 hz=200000000 scale={scale} interval=100"
            ));
            let err = SimLog::from_csv(std::io::BufReader::new(&csv[..])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "scale={scale}");
        }
    }
}

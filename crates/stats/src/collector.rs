//! The per-simulation statistics sink.

use crate::counters::{flat_rows, push_rows, FlatCounters};
use crate::log::Part;
use crate::{
    Clocking, CounterSet, EnergyWeights, InvocationRecord, Mode, ModeCounters, ModeEvents, Sample,
    Segments, ServiceId, ServiceProfiler, SimLog, UnitEvent,
};

/// The idle-loop events of a `gap`-cycle analytic idle stretch, synthesized
/// from the measured per-cycle `rates` (paper §3.3), in `rates` order.
///
/// The fractional part of `rate * gap` is carried to the next gap in
/// `residual` instead of being truncated, so however the run's idle time
/// is cut into gaps, the synthesized event totals stay within one event of
/// `rate * total_gap`, deterministically, since the residual depends only
/// on the sequence of `(gap, rates)` calls. The collector
/// ([`StatsCollector::skip_idle_gap`]) and trace replay
/// ([`crate::PerfTrace::fast_replay`]) both call this, so they make the
/// same sequence of calls and synthesize the same events.
pub(crate) fn idle_gap_events(
    rates: &[(UnitEvent, f64)],
    gap: u64,
    residual: &mut [f64; UnitEvent::COUNT],
) -> CounterSet {
    let mut events = CounterSet::new();
    for &(event, rate) in rates {
        let exact = rate * gap as f64 + residual[event.index()];
        let whole = exact as u64;
        residual[event.index()] = (exact - whole as f64).clamp(0.0, 1.0);
        events.add(event, whole);
    }
    events
}

/// Central event sink for one simulation run.
///
/// The machine models call [`StatsCollector::record`] as they work and
/// [`StatsCollector::tick`] once per simulated cycle; the OS model switches
/// [`Mode`]s and brackets kernel-service invocations. When the run finishes,
/// [`StatsCollector::finish`] yields the [`SimLog`] for power post-processing
/// together with the service aggregates.
///
/// The log's work windows are kept one vector per *segment*: every
/// [`StatsCollector::skip_idle_gap`] call closes the open segment, and the
/// gap itself is recorded as one analytic idle-gap run. `finish` builds
/// the segments into the log's shared block, which a trace capture hands
/// on to its [`crate::PerfTrace`] as is.
///
/// # Examples
///
/// ```
/// use softwatt_stats::{Clocking, Mode, StatsCollector, UnitEvent};
///
/// let mut stats = StatsCollector::new(Clocking::full_speed(200.0e6), 2);
/// stats.set_mode(Mode::KernelInstr);
/// stats.record(UnitEvent::AluOp);
/// stats.tick();
/// stats.tick();
/// stats.tick();
/// let log = stats.finish();
/// assert_eq!(log.total_cycles(), 3);
/// assert_eq!(log.mode_cycles(Mode::KernelInstr), 3);
/// ```
#[derive(Debug)]
pub struct StatsCollector {
    cycle: u64,
    mode: Mode,
    // Per-mode event deltas of the *open* sampling window, as one flat
    // array indexed by `mode.index() * UnitEvent::COUNT + event.index()`.
    // `record` is the hottest call in the simulator (several per cycle),
    // so it does exactly two array increments: this delta and `combined`.
    // A closing window keeps the array's non-zero rows (a sample's own,
    // or the log's gap rows) and adds it to `closed_totals`: no snapshot
    // clone, no delta subtraction.
    window_events: FlatCounters,
    // `mode.index() * UnitEvent::COUNT`, cached on every mode switch.
    mode_base: usize,
    // Totals of all closed windows, laid out like `window_events`;
    // `totals()` adds the open window.
    closed_totals: FlatCounters,
    // All-time totals summed over modes, maintained incrementally so the
    // per-syscall service brackets never pay a full reduction.
    combined: CounterSet,
    mode_cycles: [u64; Mode::COUNT],
    // Snapshot at the start of the current sampling window.
    window_start_mode_cycles: [u64; Mode::COUNT],
    window_start_cycle: u64,
    sample_interval: u64,
    // Cycles consumed by analytically skipped idle gaps (see
    // [`StatsCollector::skip_idle_gap`]); `cycle - idle_skipped` is the
    // policy-independent work clock.
    idle_skipped: u64,
    // Fractional idle events left over from previous skipped gaps, per
    // event (see `idle_gap_events`).
    idle_residual: [f64; UnitEvent::COUNT],
    clocking: Clocking,
    // The closed segments' samples, then the open segment's.
    segments: Vec<Vec<Sample>>,
    samples: Vec<Sample>,
    // The log's runs so far; `finish` adds the open segment's.
    parts: Vec<Part>,
    // The rows of the gaps' first-window events, in gap order.
    gap_rows: Vec<CounterSet>,
    // Scratch for a closing window's rows.
    rows: Vec<CounterSet>,
    profiler: ServiceProfiler,
}

impl StatsCollector {
    /// Creates a collector that emits one sample every `sample_interval`
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `sample_interval` is zero.
    pub fn new(clocking: Clocking, sample_interval: u64) -> StatsCollector {
        StatsCollector::with_weights(clocking, sample_interval, EnergyWeights::zero())
    }

    /// Creates a collector whose service profiler tracks per-invocation
    /// energy with the given weights table.
    ///
    /// # Panics
    ///
    /// Panics if `sample_interval` is zero.
    pub fn with_weights(
        clocking: Clocking,
        sample_interval: u64,
        weights: EnergyWeights,
    ) -> StatsCollector {
        assert!(sample_interval > 0, "sample interval must be positive");
        StatsCollector {
            cycle: 0,
            mode: Mode::User,
            window_events: [0; Mode::COUNT * UnitEvent::COUNT],
            mode_base: Mode::User.index() * UnitEvent::COUNT,
            closed_totals: [0; Mode::COUNT * UnitEvent::COUNT],
            combined: CounterSet::new(),
            mode_cycles: [0; Mode::COUNT],
            window_start_mode_cycles: [0; Mode::COUNT],
            window_start_cycle: 0,
            sample_interval,
            idle_skipped: 0,
            idle_residual: [0.0; UnitEvent::COUNT],
            clocking,
            segments: Vec::new(),
            samples: Vec::new(),
            parts: Vec::new(),
            gap_rows: Vec::new(),
            rows: Vec::new(),
            profiler: ServiceProfiler::new(weights),
        }
    }

    /// Current simulated cycle.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current *work* cycle: [`StatsCollector::cycle`] minus every cycle
    /// consumed through [`StatsCollector::skip_idle_gap`]. Because skipped
    /// gaps are exactly the disk-policy-dependent blocked stretches, the
    /// work clock advances identically whatever disk policy is simulated —
    /// it is the time base the trace-replay engine keys disk requests to.
    #[inline]
    pub fn work_cycle(&self) -> u64 {
        self.cycle - self.idle_skipped
    }

    /// Current software mode.
    #[inline]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Switches the software mode; subsequent events and cycles accrue to
    /// the new mode.
    #[inline]
    pub fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
        self.mode_base = mode.index() * UnitEvent::COUNT;
    }

    /// Records one occurrence of `event` in the current mode.
    #[inline]
    pub fn record(&mut self, event: UnitEvent) {
        self.window_events[self.mode_base + event.index()] += 1;
        self.combined.add(event, 1);
    }

    /// Records `n` occurrences of `event` in the current mode.
    #[inline]
    pub fn record_n(&mut self, event: UnitEvent, n: u64) {
        self.window_events[self.mode_base + event.index()] += n;
        self.combined.add(event, n);
    }

    /// Advances one cycle, attributing it to the current mode and emitting a
    /// sample if the window filled up.
    pub fn tick(&mut self) {
        self.mode_cycles[self.mode.index()] += 1;
        self.cycle += 1;
        if self.cycle - self.window_start_cycle >= self.sample_interval {
            self.emit_sample();
        }
    }

    /// Advances `n` cycles at once (used when fast-forwarding, e.g. disk
    /// spin operations — see paper §3.3).
    ///
    /// Whole sample windows advance arithmetically, so the cost is
    /// O(samples emitted), not O(`n`); the emitted sample sequence is
    /// exactly what `n` individual [`StatsCollector::tick`] calls produce.
    pub fn tick_n(&mut self, mut n: u64) {
        while n > 0 {
            let in_window = self.cycle - self.window_start_cycle;
            let step = n.min(self.sample_interval - in_window);
            self.mode_cycles[self.mode.index()] += step;
            self.cycle += step;
            n -= step;
            if self.cycle - self.window_start_cycle >= self.sample_interval {
                self.emit_sample();
            }
        }
    }

    /// Closes the current sampling window early, emitting a (possibly
    /// short) sample. No-op when the window is empty.
    ///
    /// The capture/replay engine flushes at every disk-request completion
    /// boundary: whether a blocked gap follows is policy-dependent, so a
    /// sample is never allowed to span a request boundary — otherwise it
    /// could not be split when a different policy puts a gap there.
    pub fn flush_window(&mut self) {
        if self.cycle > self.window_start_cycle {
            softwatt_obs::count("stats.window_flushes", 1);
            self.emit_sample();
        }
    }

    /// Fast-forwards over a disk-blocked idle stretch analytically: the
    /// paper's §3.3 acceleration, packaged so the capture run and the
    /// policy-replay path record the *identical* log, aggregates and energy
    /// sums.
    ///
    /// The window is flushed and the open segment closed, then `gap` cycles
    /// are attributed to [`Mode::Idle`] inside an `idle_service` frame,
    /// with idle-loop events synthesized from the measured per-cycle
    /// `rates` by the residual carry of `idle_gap_events`. The gap is
    /// recorded as one analytic run: its first window carries every event
    /// (the synthesized ones and any recorded since the last tick, each in
    /// the mode it was recorded in), and the rest are event-free, exactly
    /// the windows that ticking through the gap would emit. The first
    /// window's rows join the log's gap rows. A zero-length gap only
    /// flushes and closes the segment (the boundary is still
    /// policy-relevant).
    pub fn skip_idle_gap(&mut self, gap: u64, rates: &[(UnitEvent, f64)], idle_service: ServiceId) {
        self.flush_window();
        self.close_segment();
        if gap == 0 {
            return;
        }
        softwatt_obs::count("stats.idle_gaps_skipped", 1);
        softwatt_obs::count("stats.idle_cycles_skipped", gap);
        let prev_mode = self.mode;
        self.enter_service(idle_service);
        self.set_mode(Mode::Idle);
        for (event, n) in idle_gap_events(rates, gap, &mut self.idle_residual).iter() {
            self.record_n(event, n);
        }
        let first_row = self.gap_rows.len();
        let Ok(mask) = push_rows(&mut self.gap_rows, flat_rows(&self.window_events));
        self.close_window_events();
        self.parts.push(Part::IdleGap {
            cycles: gap,
            mask,
            first_row,
        });
        self.mode_cycles[Mode::Idle.index()] += gap;
        self.cycle += gap;
        self.idle_skipped += gap;
        self.window_start_mode_cycles = self.mode_cycles;
        self.window_start_cycle = self.cycle;
        self.exit_service(idle_service);
        self.set_mode(prev_mode);
    }

    /// Replays a previously captured [`Sample`] through this collector:
    /// every event delta is recorded first (so none can land past a window
    /// boundary closed by the ticks), then the per-mode cycles are ticked.
    /// Provided the replay sits at the same in-window offset as the
    /// original run, the emitted sample stream is identical.
    pub fn replay_sample(&mut self, sample: &Sample) {
        for (mode, counts) in sample.events.rows() {
            self.set_mode(mode);
            for (event, n) in counts.iter() {
                if n > 0 {
                    self.record_n(event, n);
                }
            }
        }
        for mode in Mode::ALL {
            let cycles = sample.mode_cycles[mode.index()];
            if cycles > 0 {
                self.set_mode(mode);
                self.tick_n(cycles);
            }
        }
    }

    /// Enters a kernel-service invocation frame.
    pub fn enter_service(&mut self, service: ServiceId) {
        self.profiler.enter(service, self.cycle, &self.combined);
    }

    /// Exits the innermost kernel-service invocation frame.
    ///
    /// # Panics
    ///
    /// Panics if `service` does not match the innermost frame.
    pub fn exit_service(&mut self, service: ServiceId) -> InvocationRecord {
        self.profiler.exit(service, self.cycle, &self.combined)
    }

    /// Running totals (all emitted samples plus the open window).
    pub fn totals(&self) -> ModeCounters {
        let mut flat = self.closed_totals;
        for (total, open) in flat.iter_mut().zip(&self.window_events) {
            *total += open;
        }
        ModeCounters::from_flat(&flat)
    }

    /// Running totals summed over modes, maintained incrementally
    /// (equivalent to `totals().combined()` without the reduction).
    pub fn combined(&self) -> &CounterSet {
        &self.combined
    }

    /// Cycles attributed to `mode` so far.
    pub fn mode_cycles(&self, mode: Mode) -> u64 {
        self.mode_cycles[mode.index()]
    }

    /// Read access to the service profiler.
    pub fn profiler(&self) -> &ServiceProfiler {
        &self.profiler
    }

    /// Folds the open window's events into the closed totals and resets
    /// the accumulator, once the closing window has kept its rows. The
    /// accumulator *is* the window's delta: no snapshot clone, no delta
    /// subtraction.
    fn close_window_events(&mut self) {
        for (total, open) in self.closed_totals.iter_mut().zip(&mut self.window_events) {
            *total += *open;
            *open = 0;
        }
    }

    fn emit_sample(&mut self) {
        softwatt_obs::count("stats.samples_emitted", 1);
        let Ok(events) = ModeEvents::read_rows(&mut self.rows, flat_rows(&self.window_events));
        self.close_window_events();
        let mut mode_cycles = [0; Mode::COUNT];
        for (out, (now, start)) in mode_cycles
            .iter_mut()
            .zip(self.mode_cycles.iter().zip(&self.window_start_mode_cycles))
        {
            *out = now - start;
        }
        self.samples.push(Sample {
            end_cycle: self.cycle,
            mode_cycles,
            events,
        });
        self.window_start_mode_cycles = self.mode_cycles;
        self.window_start_cycle = self.cycle;
    }

    /// Closes the open segment: its samples become the next segment of
    /// the log's block.
    fn close_segment(&mut self) {
        self.parts.push(Part::Segment);
        self.segments.push(std::mem::take(&mut self.samples));
    }

    /// Flushes any partial window and returns the completed log.
    pub fn finish(self) -> SimLog {
        self.finish_with_services().0
    }

    /// Flushes any partial window and returns the log together with the
    /// service profiler (for per-service reports).
    pub fn finish_with_services(mut self) -> (SimLog, ServiceProfiler) {
        if self.cycle > self.window_start_cycle {
            self.emit_sample();
        }
        self.close_segment();
        let block = Segments::new(self.segments);
        let log = SimLog::new(
            self.clocking,
            self.sample_interval,
            block,
            self.parts,
            self.gap_rows,
        );
        (log, self.profiler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitEvent;

    #[test]
    fn samples_cover_all_cycles_exactly_once() {
        let mut s = StatsCollector::new(Clocking::default(), 10);
        for i in 0..37 {
            if i % 2 == 0 {
                s.record(UnitEvent::IcacheAccess);
            }
            s.tick();
        }
        let log = s.finish();
        assert_eq!(log.total_cycles(), 37);
        assert_eq!(log.len(), 4); // 10+10+10+7
        assert_eq!(log.windows().nth(3).unwrap().cycles(), 7);
        assert_eq!(
            log.total_events().combined().get(UnitEvent::IcacheAccess),
            19
        );
    }

    #[test]
    fn mode_switches_partition_cycles() {
        let mut s = StatsCollector::new(Clocking::default(), 100);
        s.set_mode(Mode::User);
        s.tick_n(30);
        s.set_mode(Mode::Idle);
        s.tick_n(20);
        s.set_mode(Mode::KernelInstr);
        s.tick_n(50);
        let log = s.finish();
        assert_eq!(log.mode_cycles(Mode::User), 30);
        assert_eq!(log.mode_cycles(Mode::Idle), 20);
        assert_eq!(log.mode_cycles(Mode::KernelInstr), 50);
        assert_eq!(log.total_cycles(), 100);
    }

    #[test]
    fn events_bucket_into_current_mode() {
        let mut s = StatsCollector::new(Clocking::default(), 1000);
        s.set_mode(Mode::KernelSync);
        s.record_n(UnitEvent::SyncOp, 7);
        s.tick();
        let log = s.finish();
        let totals = log.total_events();
        assert_eq!(totals.mode(Mode::KernelSync).get(UnitEvent::SyncOp), 7);
        assert_eq!(totals.mode(Mode::User).get(UnitEvent::SyncOp), 0);
    }

    #[test]
    fn service_frames_attribute_cycles() {
        let mut s = StatsCollector::new(Clocking::default(), 1_000_000);
        s.tick_n(5);
        s.enter_service(ServiceId(7));
        s.record_n(UnitEvent::AluOp, 3);
        s.tick_n(10);
        let rec = s.exit_service(ServiceId(7));
        assert_eq!(rec.cycles, 10);
        let (_, prof) = s.finish_with_services();
        let agg = &prof.aggregates()[&ServiceId(7)];
        assert_eq!(agg.invocations, 1);
        assert_eq!(agg.events.get(UnitEvent::AluOp), 3);
    }

    #[test]
    #[should_panic(expected = "sample interval must be positive")]
    fn rejects_zero_interval() {
        let _ = StatsCollector::new(Clocking::default(), 0);
    }

    #[test]
    fn finish_without_partial_window_adds_no_sample() {
        let mut s = StatsCollector::new(Clocking::default(), 5);
        s.tick_n(10);
        let log = s.finish();
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn flush_window_emits_short_sample_and_is_idempotent() {
        let mut s = StatsCollector::new(Clocking::default(), 10);
        s.tick_n(3);
        s.flush_window();
        s.flush_window(); // empty window: no-op
        s.tick_n(10);
        let log = s.finish();
        assert_eq!(log.len(), 2);
        let cycles: Vec<u64> = log.windows().map(|w| w.cycles()).collect();
        assert_eq!(cycles[0], 3);
        assert_eq!(cycles[1], 10);
        assert_eq!(log.total_cycles(), 13);
    }

    #[test]
    fn skip_idle_gap_patches_idle_mode_and_work_clock() {
        let mut s = StatsCollector::new(Clocking::default(), 100);
        s.set_mode(Mode::User);
        s.tick_n(40);
        let rates = [(UnitEvent::IcacheAccess, 0.5)];
        s.skip_idle_gap(200, &rates, ServiceId(12));
        assert_eq!(s.cycle(), 240);
        assert_eq!(s.work_cycle(), 40);
        assert_eq!(s.mode(), Mode::User, "previous mode restored");
        s.tick_n(10);
        let (log, prof) = s.finish_with_services();
        assert_eq!(log.mode_cycles(Mode::Idle), 200);
        assert_eq!(log.mode_cycles(Mode::User), 50);
        assert_eq!(
            log.total_events()
                .mode(Mode::Idle)
                .get(UnitEvent::IcacheAccess),
            100
        );
        let agg = &prof.aggregates()[&ServiceId(12)];
        assert_eq!(agg.invocations, 1);
        assert_eq!(agg.cycles, 200);
    }

    #[test]
    fn zero_length_gap_only_flushes() {
        let mut s = StatsCollector::new(Clocking::default(), 100);
        s.tick_n(7);
        s.skip_idle_gap(0, &[], ServiceId(12));
        assert_eq!(s.work_cycle(), 7);
        s.tick_n(5);
        let (log, prof) = s.finish_with_services();
        let cycles: Vec<u64> = log.windows().map(|w| w.cycles()).collect();
        assert_eq!(cycles, [7, 5], "the window is flushed at the boundary");
        assert_eq!(log.block().len(), 2, "and the segment closed");
        assert!(prof.aggregates().is_empty(), "no idle frame for a zero gap");
    }

    /// An analytic gap run reads exactly like ticking through the gap. For
    /// gaps shorter than, equal to and several times the sampling interval,
    /// with the residual carried from gap to gap, the collector's windows,
    /// totals and idle-service aggregate equal those of a reference that
    /// records the same idle events and then calls `tick()` once per gap
    /// cycle.
    #[test]
    fn idle_gap_windows_match_ticking_through_the_gap() {
        let interval = 10;
        let rates = [(UnitEvent::IcacheAccess, 0.35), (UnitEvent::AluOp, 1.7)];
        let mut weights = EnergyWeights::zero();
        weights.per_event_j[UnitEvent::AluOp.index()] = 0.3e-9;
        weights.per_event_j[UnitEvent::IcacheAccess.index()] = 1.1e-9;
        let idle = ServiceId(12);
        let collector =
            || StatsCollector::with_weights(Clocking::default(), interval, weights.clone());
        let (mut fast, mut reference) = (collector(), collector());
        let mut residual = [0.0; UnitEvent::COUNT];
        let gaps = [3u64, 10, 47, 0, 7, 30, 20];
        for (i, &gap) in gaps.iter().enumerate() {
            for s in [&mut fast, &mut reference] {
                s.set_mode(Mode::User);
                s.record_n(UnitEvent::AluOp, 2);
                s.tick_n(4 + i as u64);
                if i % 3 == 2 {
                    // An event recorded after the last tick lands in the
                    // gap's first window.
                    s.flush_window();
                    s.record(UnitEvent::DcacheRead);
                }
            }
            fast.skip_idle_gap(gap, &rates, idle);
            reference.flush_window();
            if gap > 0 {
                reference.enter_service(idle);
                reference.set_mode(Mode::Idle);
                for (event, n) in idle_gap_events(&rates, gap, &mut residual).iter() {
                    reference.record_n(event, n);
                }
                for _ in 0..gap {
                    reference.tick();
                }
                reference.exit_service(idle);
                reference.set_mode(Mode::User);
                reference.flush_window();
            }
        }
        let skipped: u64 = gaps.iter().sum();
        assert_eq!(fast.cycle(), reference.cycle());
        assert_eq!(fast.work_cycle(), reference.cycle() - skipped);
        assert_eq!(fast.totals(), reference.totals());
        assert_eq!(fast.combined(), reference.combined());
        for mode in Mode::ALL {
            assert_eq!(fast.mode_cycles(mode), reference.mode_cycles(mode));
        }
        let (fast_log, fast_prof) = fast.finish_with_services();
        let (ref_log, ref_prof) = reference.finish_with_services();
        let gap_windows: Vec<usize> = fast_log
            .runs()
            .filter(|run| matches!(run, crate::LogRun::IdleGap { .. }))
            .map(|run| run.windows().count())
            .collect();
        assert_eq!(gap_windows, [1, 1, 5, 1, 3, 2], "one run per non-empty gap");
        assert_eq!(fast_log, ref_log);
        let (a, b) = (
            &fast_prof.aggregates()[&idle],
            &ref_prof.aggregates()[&idle],
        );
        assert_eq!(a, b);
        assert_eq!(a.energy_sum_j.to_bits(), b.energy_sum_j.to_bits());
        assert_eq!(a.energy_sumsq_j2.to_bits(), b.energy_sumsq_j2.to_bits());
    }

    #[test]
    fn replay_sample_reproduces_the_original_stream() {
        // Original run: interleaved modes and events across window edges.
        let mut a = StatsCollector::new(Clocking::default(), 10);
        a.set_mode(Mode::User);
        a.record_n(UnitEvent::AluOp, 3);
        a.tick_n(7);
        a.set_mode(Mode::KernelInstr);
        a.record_n(UnitEvent::DcacheRead, 2);
        a.tick_n(8);
        a.set_mode(Mode::User);
        a.tick_n(4);
        let log_a = a.finish();

        // Replay every captured sample through a fresh collector.
        let mut b = StatsCollector::new(Clocking::default(), 10);
        for window in log_a.windows() {
            b.replay_sample(&window.to_sample());
        }
        let log_b = b.finish();
        assert_eq!(log_a, log_b);
    }
}

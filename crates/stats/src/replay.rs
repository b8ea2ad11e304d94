//! O(segments + gaps) trace replay.
//!
//! The collector-driven replay path ([`crate::StatsCollector::replay_sample`]
//! plus [`crate::StatsCollector::skip_idle_gap`]) re-executes every recorded
//! event delta and re-ticks every work cycle through the full collector
//! machinery. That is pleasingly literal but costs O(samples × modes ×
//! events) for the work segments and allocates fresh rows per emitted
//! window.
//!
//! This module exploits the capture invariants to build the *identical* log
//! directly, without touching a sample:
//!
//! - The capture run flushes the sampling window at every disk-request
//!   boundary (see [`crate::StatsCollector::flush_window`]), so the window
//!   offset is zero at the start of every segment. Every sample inside a
//!   segment except possibly the last therefore spans exactly one full
//!   sampling interval, and replaying a sample through a collector sitting
//!   at offset zero reproduces it verbatim (same events, same mode cycles,
//!   shifted `end_cycle`). The replayed log therefore reads each segment of
//!   the trace's block in place, as the collector's own log does.
//! - A gap is one analytic idle-gap run, the same run
//!   [`crate::StatsCollector::skip_idle_gap`] records: its length and its
//!   first window's events, synthesized by the same residual-carry routine
//!   from the same `(gap, rates)` sequence. Those events are one Idle row
//!   (none if every count is zero), written to the log's one vector of
//!   gap rows, which is sized once, so a gap allocates nothing.
//! - The idle pseudo-service aggregate is a fold over the gaps in gap order
//!   (`ServiceAggregate::add_invocation`, which
//!   [`crate::ServiceProfiler::exit`] also calls); we perform the same fold
//!   on a local aggregate and merge it in once. Floating-point addition
//!   order is identical, so the sums are bit-identical.
//!
//! The result is window-for-window equal to the collector-driven path — the
//! equivalence is pinned by a proptest in `crates/stats/tests/`.

use crate::collector::idle_gap_events;
use crate::log::Part;
use crate::{
    EnergyWeights, Mode, PerfTrace, ServiceAggregate, ServiceId, ServiceProfiler, SimLog, UnitEvent,
};

impl PerfTrace {
    /// Reconstructs the replayed [`SimLog`] and idle-service profile for
    /// this trace under the given per-segment idle `gaps`, in
    /// O(segments + gaps) time — the log shares the trace's work windows
    /// and describes each gap by its first window's events and its length.
    ///
    /// `gaps[i]` is the blocked-idle stretch inserted after segment `i`
    /// (entries beyond `gaps.len()` are treated as absent, matching the
    /// collector-driven path). The returned profiler contains only the
    /// rebuilt idle pseudo-service; the caller merges the trace's
    /// policy-independent work services on top, exactly as before.
    ///
    /// Equal, window for window and bit for bit, to replaying every sample
    /// through [`crate::StatsCollector::replay_sample`] and every gap
    /// through [`crate::StatsCollector::skip_idle_gap`], then calling
    /// [`crate::StatsCollector::finish_with_services`].
    ///
    /// # Panics
    ///
    /// Panics on a trace that [`PerfTrace::validate`] rejects for a zero
    /// sampling interval. The log of a trace it rejects for an overflowing
    /// cycle total panics when read.
    pub fn fast_replay(
        &self,
        gaps: &[u64],
        weights: EnergyWeights,
        idle_service: ServiceId,
    ) -> (SimLog, ServiceProfiler) {
        let interval = self.sample_interval;
        assert!(
            interval > 0,
            "fast_replay needs a positive sampling interval"
        );
        if cfg!(debug_assertions) {
            // Capture invariant: windows flush at segment boundaries, so
            // only a segment's final sample may be shorter than the
            // sampling interval. (A replay of a violating trace through
            // the collector would merge samples across the short one and
            // diverge; the invariant is what makes sharing the samples
            // exact.)
            for segment in self.segments.iter() {
                let inner = &segment[..segment.len().saturating_sub(1)];
                debug_assert!(
                    inner.iter().all(|s| s.cycles() == interval),
                    "mid-segment sample shorter than the sampling interval"
                );
            }
        }
        let mut parts = Vec::with_capacity(2 * self.segments.len());
        let gap_count = gaps[..gaps.len().min(self.segments.len())]
            .iter()
            .filter(|&&gap| gap > 0)
            .count();
        let mut gap_rows = Vec::with_capacity(gap_count);
        let mut idle_residual = [0.0f64; UnitEvent::COUNT];
        let mut idle_agg = ServiceAggregate::empty();
        for i in 0..self.segments.len() {
            parts.push(Part::Segment);
            let Some(&gap) = gaps.get(i) else { continue };
            if gap == 0 {
                continue;
            }
            let events = idle_gap_events(&self.idle_rates, gap, &mut idle_residual);
            idle_agg.add_invocation(gap, &events, &weights);
            let first_row = gap_rows.len();
            let mask = if events.is_zero() {
                0
            } else {
                gap_rows.push(events);
                1 << Mode::Idle.index()
            };
            parts.push(Part::IdleGap {
                cycles: gap,
                mask,
                first_row,
            });
        }
        let log = SimLog::new(
            self.clocking,
            interval,
            self.segments.clone(),
            parts,
            gap_rows,
        );

        let mut profiler = ServiceProfiler::new(weights);
        // Room for the idle service and the work services the caller
        // merges on top, so the merge never regrows the map.
        profiler.reserve(self.work_services.len() + 1);
        if idle_agg.invocations > 0 {
            profiler.merge_aggregate(idle_service, &idle_agg);
        }
        (log, profiler)
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        Clocking, CounterSet, EnergyWeights, Mode, PerfTrace, ServiceId, StatsCollector, UnitEvent,
    };

    fn weights() -> EnergyWeights {
        let mut per_event_j = [0.0; UnitEvent::COUNT];
        per_event_j[UnitEvent::AluOp.index()] = 0.5e-9;
        per_event_j[UnitEvent::IcacheAccess.index()] = 1.25e-9;
        EnergyWeights { per_event_j }
    }

    /// Builds a small capture-shaped trace: two segments split by one
    /// request, samples flushed at the boundary.
    fn sample_trace() -> PerfTrace {
        let clocking = Clocking::default();
        let interval = 10;
        let mut stats = StatsCollector::with_weights(clocking, interval, weights());
        stats.set_mode(Mode::User);
        for _ in 0..23 {
            stats.record(UnitEvent::AluOp);
            stats.tick();
        }
        stats.flush_window();
        let boundary = stats.cycle();
        for _ in 0..7 {
            stats.record(UnitEvent::IcacheAccess);
            stats.tick();
        }
        let work_cycles = stats.cycle();
        let log = stats.finish();
        let (first, second) = log
            .windows()
            .map(|w| w.to_sample())
            .partition(|s| s.end_cycle <= boundary);
        PerfTrace {
            clocking,
            sample_interval: interval,
            segments: vec![first, second].into(),
            requests: vec![crate::TraceRequest {
                work_submit: boundary,
                bytes: 512,
            }],
            idle_rates: vec![(UnitEvent::AluOp, 0.31), (UnitEvent::IcacheAccess, 0.07)],
            work_services: Vec::new(),
            work_cycles,
            committed: 23,
            user_instrs: 23,
        }
    }

    fn collector_replay(
        trace: &PerfTrace,
        gaps: &[u64],
        idle: ServiceId,
    ) -> (crate::SimLog, crate::ServiceProfiler) {
        let mut stats =
            StatsCollector::with_weights(trace.clocking, trace.sample_interval, weights());
        for (i, segment) in trace.segments.iter().enumerate() {
            for sample in segment {
                stats.replay_sample(sample);
            }
            if i < gaps.len() {
                stats.skip_idle_gap(gaps[i], &trace.idle_rates, idle);
            }
        }
        stats.finish_with_services()
    }

    #[test]
    fn matches_collector_path_bit_for_bit() {
        let trace = sample_trace();
        trace.validate().unwrap();
        let idle = ServiceId(7);
        for gaps in [vec![0u64], vec![4], vec![25], vec![137]] {
            let (slow_log, slow_prof) = collector_replay(&trace, &gaps, idle);
            let (fast_log, fast_prof) = trace.fast_replay(&gaps, weights(), idle);
            assert_eq!(slow_log, fast_log, "gaps {gaps:?}");
            assert_eq!(slow_prof.aggregates(), fast_prof.aggregates());
            if let Some(agg) = fast_prof.aggregates().get(&idle) {
                let slow = &slow_prof.aggregates()[&idle];
                assert_eq!(agg.energy_sum_j.to_bits(), slow.energy_sum_j.to_bits());
                assert_eq!(
                    agg.energy_sumsq_j2.to_bits(),
                    slow.energy_sumsq_j2.to_bits()
                );
            }
        }
    }

    #[test]
    fn residual_carries_across_gaps() {
        let trace = sample_trace();
        let idle = ServiceId(7);
        // Fractional rates force the residual to matter: the second gap's
        // event counts depend on the first gap's carry.
        let gaps = vec![3u64, 5];
        let mut trace2 = trace.clone();
        trace2.segments = vec![
            trace.segments.get(0).to_vec(),
            Vec::new(),
            trace.segments.get(1).to_vec(),
        ]
        .into();
        trace2.requests = vec![
            trace.requests[0],
            crate::TraceRequest {
                work_submit: trace.requests[0].work_submit,
                bytes: 512,
            },
        ];
        let (slow_log, slow_prof) = collector_replay(&trace2, &gaps, idle);
        let (fast_log, fast_prof) = trace2.fast_replay(&gaps, weights(), idle);
        assert_eq!(slow_log, fast_log);
        assert_eq!(slow_prof.aggregates(), fast_prof.aggregates());
        let total: CounterSet = fast_log.total_events().combined();
        assert!(total.get(UnitEvent::AluOp) >= 23, "idle events synthesized");
    }
}

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
//!
//! A trace's block keeps its last replay ([`crate::Segments`]): the
//! inputs its runs and idle aggregate were built from, those runs and that
//! aggregate, and the state of the build after each of its gaps: the idle
//! residual carry and the aggregate's energy sums. A replay whose inputs
//! equal them but for the gaps resumes from the first segment whose gap
//! differs: it copies the runs' parts and gap rows before that segment,
//! restores the residual and the aggregate as they were after the last
//! copied gap, and builds only the gaps from that segment on. The state
//! after gap j is a pure function of the block, the gaps up to j, the idle
//! rates and the weights, and the build continues the same floating-point
//! sequence from it, so a resumed replay is bit for bit the replay built
//! afresh. A replay whose gaps all equal the kept ones has nothing left to
//! build and shares the kept runs, and with them the log's gap memo, so a
//! post-processor's results for those runs are computed once. Resumed runs
//! carry the kept runs' gap memo, if a post-processor filled it, and the
//! number of gaps they copied, so the post-processor can copy what it
//! derived from those gaps too (see [`SimLog::take_gap_memo_seed`]).
//!
//! The other inputs are the idle rates, the sampling interval (a
//! post-processor cuts gaps by it) and the energy weights (the
//! aggregate's): every field a replay reads besides the block, which a
//! clone of the trace shares. The gaps are compared with the kept runs
//! themselves, which hold every non-zero gap after its segment, so the
//! block keeps no copy of them. The idle service only names the aggregate
//! in the returned profiler, so it is no part of the key. The aggregate's
//! invocations, cycles and event counts after a gap are exact integer sums
//! over the copied gap parts and rows, so only its energy sums are kept.

use std::sync::{Arc, PoisonError};

use crate::collector::idle_gap_events;
use crate::log::{Part, Prefix, Runs};
use crate::{
    CounterSet, EnergyWeights, Mode, PerfTrace, ServiceAggregate, ServiceId, ServiceProfiler,
    SimLog, UnitEvent,
};

/// A block's last replay: what [`PerfTrace::fast_replay`] built, keyed by
/// the inputs it built it from, with the build's state after each gap.
pub(crate) struct LastReplay {
    idle_rates: Vec<(UnitEvent, u64)>,
    interval: u64,
    weights: [u64; UnitEvent::COUNT],
    runs: Arc<Runs>,
    idle: ServiceAggregate,
    /// The idle aggregate's energy sum and sum of squares after each gap,
    /// in gap order.
    energy_after: Vec<[f64; 2]>,
    /// The idle residual after each gap, in gap order: per gap, the entry
    /// of each idle rate's event, in rate order (the only entries a gap
    /// writes).
    residual_after: Vec<f64>,
}

impl LastReplay {
    /// How much of a replay of `trace` under the used `gaps` and `weights`
    /// this replay built: `None` unless every input but the gaps is equal
    /// (floats by bits), else the runs' prefix whose gaps equal `gaps`.
    fn prefix(&self, trace: &PerfTrace, gaps: &[u64], weights: &EnergyWeights) -> Option<Prefix> {
        let same_inputs = self.interval == trace.sample_interval
            && self.weights == weights.per_event_j.map(f64::to_bits)
            && self.idle_rates.len() == trace.idle_rates.len()
            && self
                .idle_rates
                .iter()
                .zip(&trace.idle_rates)
                .all(|(&(event, bits), &(e, rate))| event == e && bits == rate.to_bits());
        same_inputs.then(|| self.runs.prefix(gaps))
    }
}

impl PerfTrace {
    /// Reconstructs the replayed [`SimLog`] and idle-service profile for
    /// this trace under the given per-segment idle `gaps`, in
    /// O(segments + gaps) time — the log shares the trace's work windows
    /// and describes each gap by its first window's events and its length.
    /// A replay whose inputs equal the block's last replay's but for some
    /// gaps builds only the gaps from the first segment whose gap differs,
    /// and one whose gaps all equal shares its runs (see the module docs).
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
        let gaps = &gaps[..gaps.len().min(self.segments.len())];
        let slot = self.segments.last_replay();
        let last = slot.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let resume = last
            .as_deref()
            .and_then(|last| Some((last, last.prefix(self, gaps, &weights)?)));
        let (runs, idle_agg, counts) = match resume {
            Some((last, prefix)) if prefix.segments == self.segments.len() => {
                (Arc::clone(&last.runs), last.idle.clone(), None)
            }
            resume => {
                let resumed = resume.map_or(0, |(_, prefix)| prefix.gaps);
                let kept = self.build(gaps, &weights, resume);
                let built = kept.energy_after.len() - resumed;
                let (runs, idle) = (Arc::clone(&kept.runs), kept.idle.clone());
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(kept));
                (runs, idle, Some((resumed, built)))
            }
        };
        if softwatt_obs::enabled() {
            use softwatt_obs::registry::counter;
            match counts {
                None => counter("stats.replays_shared").add(1),
                Some((resumed, built)) => {
                    counter("stats.replay_gaps_resumed").add(resumed as u64);
                    counter("stats.replay_gaps_built").add(built as u64);
                }
            }
        }
        let log = SimLog::with_runs(self.clocking, interval, self.segments.clone(), runs);

        let mut profiler = ServiceProfiler::new(weights);
        // Room for the idle service and the work services the caller
        // merges on top, so the merge never regrows the map.
        profiler.reserve(self.work_services.len() + 1);
        if idle_agg.invocations > 0 {
            profiler.merge_aggregate(idle_service, &idle_agg);
        }
        (log, profiler)
    }

    /// The replay under the used `gaps`: its runs, the idle aggregate
    /// folded over its gaps in gap order, and the state after each gap.
    /// With `resume`, everything before the prefix's first differing
    /// segment is copied from that replay, and the build continues from
    /// its state after the last copied gap.
    fn build(
        &self,
        gaps: &[u64],
        weights: &EnergyWeights,
        resume: Option<(&LastReplay, Prefix)>,
    ) -> LastReplay {
        let rates = &self.idle_rates;
        let gap_count = gaps.iter().filter(|&&gap| gap > 0).count();
        let mut parts = Vec::with_capacity(self.segments.len() + gap_count);
        let mut gap_rows = Vec::with_capacity(gap_count);
        let mut energy_after = Vec::with_capacity(gap_count);
        let mut residual_after = Vec::with_capacity(gap_count * rates.len());
        let mut residual = [0.0f64; UnitEvent::COUNT];
        let mut idle = ServiceAggregate::empty();
        let mut seed = None;
        let mut from = 0;
        if let Some((last, prefix)) = resume {
            from = prefix.segments;
            let copied = prefix.gaps;
            parts.extend_from_slice(&last.runs.parts[..prefix.segments + copied]);
            gap_rows.extend_from_slice(&last.runs.gap_rows[..prefix.rows]);
            energy_after.extend_from_slice(&last.energy_after[..copied]);
            residual_after.extend_from_slice(&last.residual_after[..copied * rates.len()]);
            if let Some(&[energy_sum_j, energy_sumsq_j2]) = energy_after.last() {
                let after = &residual_after[(copied - 1) * rates.len()..];
                for (&(event, _), &value) in rates.iter().zip(after) {
                    residual[event.index()] = value;
                }
                idle = ServiceAggregate {
                    invocations: copied as u64,
                    cycles: prefix.cycles,
                    events: gap_rows.iter().fold(CounterSet::new(), |mut sum, row| {
                        sum.merge(row);
                        sum
                    }),
                    energy_sum_j,
                    energy_sumsq_j2,
                };
                seed = last
                    .runs
                    .gap_memo
                    .get()
                    .map(|memo| (Arc::clone(memo), copied));
            }
        }
        for i in from..self.segments.len() {
            parts.push(Part::Segment);
            let Some(&gap) = gaps.get(i) else { continue };
            if gap == 0 {
                continue;
            }
            let events = idle_gap_events(rates, gap, &mut residual);
            idle.add_invocation(gap, &events, weights);
            energy_after.push([idle.energy_sum_j, idle.energy_sumsq_j2]);
            residual_after.extend(rates.iter().map(|&(event, _)| residual[event.index()]));
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
        LastReplay {
            idle_rates: rates
                .iter()
                .map(|&(event, rate)| (event, rate.to_bits()))
                .collect(),
            interval: self.sample_interval,
            weights: weights.per_event_j.map(f64::to_bits),
            runs: Runs::new(&self.segments, parts, gap_rows, seed),
            idle,
            energy_after,
            residual_after,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

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

    /// The block keeps one replay: the last. A replay of equal inputs
    /// shares its runs; any other replaces it, and the replaced runs live
    /// only as long as their logs. A clone of the trace shares the block
    /// and its slot, so idle rates are part of the key.
    #[test]
    fn a_block_retains_at_most_one_replay() {
        let trace = sample_trace();
        let idle = ServiceId(7);
        let (a, _) = trace.fast_replay(&[4], weights(), idle);
        assert_eq!(Arc::strong_count(a.shared_runs()), 2, "the block keeps it");
        let (b, _) = trace.fast_replay(&[25], weights(), idle);
        assert_eq!(Arc::strong_count(a.shared_runs()), 1, "replaced");
        assert_eq!(Arc::strong_count(b.shared_runs()), 2);
        let (c, _) = trace.fast_replay(&[25], weights(), ServiceId(9));
        assert!(Arc::ptr_eq(b.shared_runs(), c.shared_runs()), "shared");
        assert_eq!(Arc::strong_count(b.shared_runs()), 3, "and kept once");
        // A zero gap inserts nothing, and gaps past the last segment are
        // unused, so these gaps build the same runs.
        let (e, _) = trace.fast_replay(&[25, 0, 6], weights(), idle);
        assert!(Arc::ptr_eq(b.shared_runs(), e.shared_runs()), "shared");

        let mut other = trace.clone();
        other.idle_rates[0].1 += 0.01;
        let (d, _) = other.fast_replay(&[25], weights(), idle);
        assert!(!Arc::ptr_eq(b.shared_runs(), d.shared_runs()));
        assert_eq!(Arc::strong_count(b.shared_runs()), 3, "replaced");
        assert_eq!(Arc::strong_count(d.shared_runs()), 2);
    }
}

//! Property tests on the statistics substrate: counter conservation,
//! sampling coverage, service-frame accounting, time-scaling round trips,
//! CSV log round trips, and sparse window events against a dense
//! reference.

use proptest::prelude::*;

use softwatt_stats::{
    Clocking, EnergyWeights, Mode, ModeCounters, PerfTrace, Sample, ServiceId, SimLog,
    StatsCollector, TraceRequest, UnitEvent,
};

fn modes() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::User),
        Just(Mode::KernelInstr),
        Just(Mode::KernelSync),
        Just(Mode::Idle),
    ]
}

fn events() -> impl Strategy<Value = UnitEvent> {
    (0usize..UnitEvent::COUNT).prop_map(UnitEvent::from_index)
}

/// One window of [`dense_windows`]: cycles per mode and dense events.
type DenseWindow = ([u64; Mode::COUNT], ModeCounters);

/// Whole-number idle rates, so a gap's synthesized events are exactly
/// `rate * gap` and carry no residual.
const WHOLE_RATES: [(UnitEvent, f64); 2] =
    [(UnitEvent::IcacheAccess, 1.0), (UnitEvent::FetchCycle, 2.0)];

/// The windows the collector writes for `steps`, worked out densely
/// without it. Each step records `n` of `event` in `mode`, then either
/// ticks `len` cycles in `mode` or, if `gap`, skips a `len`-cycle idle gap
/// (so its events are recorded after the last tick, and land in the gap's
/// first window unless the open window has cycles to flush them with).
fn dense_windows(interval: u64, steps: &[(Mode, UnitEvent, u64, bool, u64)]) -> Vec<DenseWindow> {
    let mut windows = Vec::new();
    let mut events = ModeCounters::new();
    let mut cycles = [0u64; Mode::COUNT];
    let close = |windows: &mut Vec<DenseWindow>,
                 events: &mut ModeCounters,
                 cycles: &mut [u64; Mode::COUNT]| {
        windows.push((std::mem::take(cycles), std::mem::take(events)));
    };
    for &(mode, event, n, gap, len) in steps {
        events.mode_mut(mode).add(event, n);
        if !gap {
            for _ in 0..len {
                cycles[mode.index()] += 1;
                if cycles.iter().sum::<u64>() == interval {
                    close(&mut windows, &mut events, &mut cycles);
                }
            }
            continue;
        }
        if cycles.iter().sum::<u64>() > 0 {
            close(&mut windows, &mut events, &mut cycles);
        }
        if len == 0 {
            continue;
        }
        for (event, rate) in WHOLE_RATES {
            events.mode_mut(Mode::Idle).add(event, rate as u64 * len);
        }
        let mut left = len;
        while left > 0 {
            let step = left.min(interval);
            cycles[Mode::Idle.index()] = step;
            close(&mut windows, &mut events, &mut cycles);
            left -= step;
        }
    }
    if cycles.iter().sum::<u64>() > 0 {
        close(&mut windows, &mut events, &mut cycles);
    }
    windows
}

/// The log the collector writes for `steps` (see [`dense_windows`]).
fn collected(interval: u64, steps: &[(Mode, UnitEvent, u64, bool, u64)]) -> SimLog {
    let mut stats = StatsCollector::new(Clocking::scaled(200.0e6, 2000.0), interval);
    for &(mode, event, n, gap, len) in steps {
        stats.set_mode(mode);
        stats.record_n(event, n);
        if gap {
            stats.skip_idle_gap(len, &WHOLE_RATES, ServiceId(4));
        } else {
            stats.tick_n(len);
        }
    }
    stats.finish()
}

/// A trace whose segments are `log`'s block, one request between each
/// two segments.
fn trace_of(log: &SimLog) -> PerfTrace {
    let block = log.block().clone();
    let mut work = 0u64;
    let mut requests = Vec::new();
    for (i, segment) in block.iter().enumerate() {
        work += segment.iter().map(Sample::cycles).sum::<u64>();
        if i + 1 < block.len() {
            requests.push(TraceRequest {
                work_submit: work,
                bytes: 512,
            });
        }
    }
    PerfTrace {
        clocking: log.clocking(),
        sample_interval: log.sample_interval(),
        segments: block,
        requests,
        idle_rates: WHOLE_RATES.to_vec(),
        work_services: Vec::new(),
        work_cycles: work,
        committed: 0,
        user_instrs: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every window's sparse events equal a dense reference worked out
    /// without the collector: each mode's row equals the reference's
    /// counters, a mode has a row exactly when one of its counts is
    /// non-zero, and `combined()` is the dense sum. The log and a trace
    /// of its block survive the CSV and the binary round trips.
    #[test]
    fn sparse_window_events_equal_a_dense_reference(
        interval in 1u64..40,
        steps in prop::collection::vec(
            (modes(), events(), 0u64..6, any::<bool>(), 0u64..150),
            1..60,
        ),
    ) {
        let log = collected(interval, &steps);
        let reference = dense_windows(interval, &steps);
        prop_assert_eq!(log.len(), reference.len());
        for (w, (cycles, dense)) in log.windows().zip(&reference) {
            prop_assert_eq!(&w.mode_cycles, cycles);
            for mode in Mode::ALL {
                prop_assert_eq!(w.events.mode(mode), dense.mode(mode), "{}", mode);
                let has_row = w.events.mask() & (1 << mode.index()) != 0;
                prop_assert_eq!(has_row, dense.mode(mode).total() > 0, "{}", mode);
            }
            let rows: Vec<Mode> = w.events.rows().map(|(mode, _)| mode).collect();
            let nonzero: Vec<Mode> = Mode::ALL
                .into_iter()
                .filter(|&m| dense.mode(m).total() > 0)
                .collect();
            prop_assert_eq!(rows, nonzero);
            prop_assert_eq!(w.events.combined(), dense.combined());
        }

        let mut csv = Vec::new();
        log.to_csv(&mut csv).unwrap();
        let back = SimLog::from_csv(std::io::BufReader::new(&csv[..])).unwrap();
        prop_assert_eq!(&back, &log);

        let trace = trace_of(&log);
        trace.validate().unwrap();
        let mut bytes = Vec::new();
        trace.to_binary(&mut bytes, b"").unwrap();
        let (decoded, _) = PerfTrace::from_binary(&bytes[..]).unwrap();
        prop_assert_eq!(&decoded, &trace);
        prop_assert_eq!(decoded.segments.samples().count(), log.block().samples().count());
    }

    /// Every recorded event appears exactly once in the finished log, in
    /// the mode it was recorded under, regardless of sampling interval.
    #[test]
    fn log_conserves_events_and_cycles(
        interval in 1u64..64,
        steps in prop::collection::vec((modes(), events(), 0u64..5), 1..300),
    ) {
        let mut stats = StatsCollector::new(Clocking::default(), interval);
        let mut expected = std::collections::HashMap::new();
        for &(mode, event, n) in &steps {
            stats.set_mode(mode);
            stats.record_n(event, n);
            *expected.entry((mode, event)).or_insert(0u64) += n;
            stats.tick();
        }
        let log = stats.finish();
        prop_assert_eq!(log.total_cycles(), steps.len() as u64);
        let totals = log.total_events();
        for ((mode, event), n) in expected {
            prop_assert_eq!(totals.mode(mode).get(event), n, "{}/{}", mode, event);
        }
        // Sample windows never exceed the interval.
        for s in log.windows() {
            prop_assert!(s.cycles() <= interval);
        }
    }

    /// CSV export/import is the identity on arbitrary logs.
    #[test]
    fn csv_round_trip(
        interval in 1u64..32,
        scale in 1.0f64..10_000.0,
        steps in prop::collection::vec((modes(), events(), 0u64..9), 1..120),
    ) {
        let mut stats = StatsCollector::new(Clocking::scaled(200.0e6, scale), interval);
        for &(mode, event, n) in &steps {
            stats.set_mode(mode);
            stats.record_n(event, n);
            stats.tick();
        }
        let log = stats.finish();
        let mut buf = Vec::new();
        log.to_csv(&mut buf).unwrap();
        let back = softwatt_stats::SimLog::from_csv(std::io::BufReader::new(&buf[..])).unwrap();
        prop_assert_eq!(back, log);
    }

    /// Nested service frames: child cycles never exceed the parent's span,
    /// and total attributed cycles never exceed elapsed cycles.
    #[test]
    fn service_frames_conserve_cycles(
        spans in prop::collection::vec((1u64..50, 1u64..50, 1u64..50), 1..40),
    ) {
        let mut stats = StatsCollector::new(Clocking::default(), 1_000_000);
        for &(before, inner, after) in &spans {
            stats.tick_n(before);
            stats.enter_service(ServiceId(1));
            stats.tick_n(inner / 2 + 1);
            stats.enter_service(ServiceId(2));
            stats.tick_n(inner);
            stats.exit_service(ServiceId(2));
            stats.tick_n(after);
            stats.exit_service(ServiceId(1));
        }
        let elapsed = stats.cycle();
        let (_, prof) = stats.finish_with_services();
        let attributed: u64 = prof.aggregates().values().map(|a| a.cycles).sum();
        prop_assert!(attributed <= elapsed);
        let inner_total: u64 = spans.iter().map(|&(_, i, _)| i).sum();
        prop_assert_eq!(prof.aggregates()[&ServiceId(2)].cycles, inner_total);
    }

    /// Bulk `tick_n(n)` emits exactly the sample sequence of `n` single
    /// `tick()` calls — same end cycles, mode cycles, and event deltas —
    /// across arbitrary interleavings of mode switches, event bursts, and
    /// sample-window boundaries.
    #[test]
    fn tick_n_matches_repeated_tick(
        interval in 1u64..64,
        steps in prop::collection::vec((modes(), events(), 0u64..7, 0u64..200), 1..60),
    ) {
        let mut bulk = StatsCollector::new(Clocking::default(), interval);
        let mut single = StatsCollector::new(Clocking::default(), interval);
        for &(mode, event, events_n, ticks) in &steps {
            bulk.set_mode(mode);
            single.set_mode(mode);
            bulk.record_n(event, events_n);
            single.record_n(event, events_n);
            bulk.tick_n(ticks);
            for _ in 0..ticks {
                single.tick();
            }
            prop_assert_eq!(bulk.cycle(), single.cycle());
        }
        let bulk_log = bulk.finish();
        let single_log = single.finish();
        prop_assert_eq!(bulk_log.len(), single_log.len());
        for (a, b) in bulk_log.windows().zip(single_log.windows()) {
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(bulk_log, single_log);
    }

    /// Residual-carrying idle-event synthesis: however an idle stretch is
    /// split into gaps, the synthesized event totals stay within one event
    /// of `rate * total_gap` — per-gap truncation must not compound.
    #[test]
    fn idle_gap_totals_are_split_invariant(
        gaps in prop::collection::vec(1u64..5_000, 1..50),
        rate_milli in 0u64..2_000,
    ) {
        let rate = rate_milli as f64 / 1000.0;
        let rates = [(UnitEvent::IcacheAccess, rate)];
        let total_gap: u64 = gaps.iter().sum();

        let mut split = StatsCollector::new(Clocking::default(), 1_000_000);
        for &gap in &gaps {
            split.skip_idle_gap(gap, &rates, ServiceId(12));
        }
        let split_total = split
            .finish()
            .total_events()
            .mode(Mode::Idle)
            .get(UnitEvent::IcacheAccess);

        let exact = rate * total_gap as f64;
        prop_assert!(
            (split_total as f64 - exact).abs() <= 1.0,
            "split into {} gaps: {} events vs exact {}",
            gaps.len(), split_total, exact
        );

        // And therefore within one event of the single-gap synthesis.
        let mut whole = StatsCollector::new(Clocking::default(), 1_000_000);
        whole.skip_idle_gap(total_gap, &rates, ServiceId(12));
        let whole_total = whole
            .finish()
            .total_events()
            .mode(Mode::Idle)
            .get(UnitEvent::IcacheAccess);
        prop_assert!(
            split_total.abs_diff(whole_total) <= 1,
            "split {} vs whole {}", split_total, whole_total
        );
    }

    /// The hot-path batched counter write (`record_n`) is indistinguishable
    /// from the per-event path it replaced: same windows, same per-mode
    /// deltas, same combined totals, across arbitrary interleavings with
    /// mode switches and window boundaries.
    #[test]
    fn record_n_matches_per_event_records(
        interval in 1u64..48,
        steps in prop::collection::vec((modes(), events(), 0u64..9, 0u64..5), 1..80),
    ) {
        let mut batched = StatsCollector::new(Clocking::default(), interval);
        let mut single = StatsCollector::new(Clocking::default(), interval);
        for &(mode, event, n, ticks) in &steps {
            batched.set_mode(mode);
            single.set_mode(mode);
            batched.record_n(event, n);
            for _ in 0..n {
                single.record(event);
            }
            batched.tick_n(ticks);
            single.tick_n(ticks);
        }
        prop_assert_eq!(batched.combined(), single.combined());
        prop_assert_eq!(batched.finish(), single.finish());
    }

    /// The O(segments + gaps) replay reconstruction is bit-identical to
    /// driving every sample and gap through the collector, on arbitrary
    /// capture-shaped traces, gap schedules, and fractional idle rates.
    /// (The targeted cases live in `softwatt_stats::replay`'s unit tests;
    /// this pins the equivalence across the input space.)
    #[test]
    fn fast_replay_matches_collector_replay(
        interval in 1u64..24,
        seg_steps in prop::collection::vec(
            prop::collection::vec((modes(), events(), 0u64..5), 0..40),
            1..6,
        ),
        gap_pool in prop::collection::vec(0u64..3_000, 5),
        rate_milli in prop::collection::vec((events(), 0u64..2_000), 0..3),
        alu_nj in 0u64..100,
    ) {
        let mut per_event_j = [0.0; UnitEvent::COUNT];
        per_event_j[UnitEvent::AluOp.index()] = alu_nj as f64 * 1.0e-9;
        let weights = EnergyWeights { per_event_j };
        let idle_rates: Vec<(UnitEvent, f64)> = rate_milli
            .iter()
            .map(|&(e, m)| (e, m as f64 / 1000.0))
            .collect();

        // Capture: flush the window at every segment boundary, exactly as
        // the full simulation does at disk-request completions.
        let mut capture = StatsCollector::with_weights(Clocking::default(), interval, weights.clone());
        let mut boundaries = Vec::new();
        for steps in &seg_steps {
            for &(mode, event, n) in steps {
                capture.set_mode(mode);
                capture.record_n(event, n);
                capture.tick();
            }
            capture.flush_window();
            boundaries.push(capture.cycle());
        }
        let work_cycles = capture.cycle();
        let log = capture.finish();

        // Split the sampled log into per-segment runs at the boundaries.
        let mut samples: std::collections::VecDeque<Sample> =
            log.windows().map(|w| w.to_sample()).collect();
        let segments: Vec<Vec<Sample>> = boundaries
            .iter()
            .map(|&b| {
                let mut seg = Vec::new();
                while samples.front().is_some_and(|s| s.end_cycle <= b) {
                    seg.push(samples.pop_front().expect("peeked"));
                }
                seg
            })
            .collect();
        prop_assert!(samples.is_empty());
        let requests: Vec<TraceRequest> = boundaries[..boundaries.len() - 1]
            .iter()
            .map(|&b| TraceRequest { work_submit: b, bytes: 512 })
            .collect();
        let trace = PerfTrace {
            clocking: Clocking::default(),
            sample_interval: interval,
            segments: segments.into(),
            requests,
            idle_rates,
            work_services: Vec::new(),
            work_cycles,
            committed: 0,
            user_instrs: 0,
        };
        trace.validate().unwrap();

        // One gap per request, as the disk-policy replay always supplies
        // (a zero-length gap still flushes the sampling window at the
        // request boundary — an absent entry would not, and only the real
        // shape is pinned here).
        let gaps = &gap_pool[..trace.requests.len()];

        let idle = ServiceId(3);
        let mut slow = StatsCollector::with_weights(Clocking::default(), interval, weights.clone());
        for (i, segment) in trace.segments.iter().enumerate() {
            for sample in segment {
                slow.replay_sample(sample);
            }
            if i < gaps.len() {
                slow.skip_idle_gap(gaps[i], &trace.idle_rates, idle);
            }
        }
        let (slow_log, slow_prof) = slow.finish_with_services();
        let (fast_log, fast_prof) = trace.fast_replay(gaps, weights, idle);

        prop_assert_eq!(&slow_log, &fast_log);
        prop_assert_eq!(slow_prof.aggregates(), fast_prof.aggregates());
        if let Some(fast) = fast_prof.aggregates().get(&idle) {
            let slow = &slow_prof.aggregates()[&idle];
            prop_assert_eq!(fast.energy_sum_j.to_bits(), slow.energy_sum_j.to_bits());
            prop_assert_eq!(fast.energy_sumsq_j2.to_bits(), slow.energy_sumsq_j2.to_bits());
        }
    }

    /// Paper-time round trips through cycles are accurate to one cycle.
    #[test]
    fn clocking_round_trips(
        hz in 1.0e6f64..1.0e9,
        scale in 0.5f64..100_000.0,
        secs in 1.0e-3f64..100.0,
    ) {
        let clk = Clocking::scaled(hz, scale);
        let cycles = clk.paper_secs_to_cycles(secs);
        let back = clk.cycles_to_paper_secs(cycles);
        let one_cycle = scale / hz;
        prop_assert!((back - secs).abs() <= one_cycle + 1e-12,
            "{} -> {} cycles -> {}", secs, cycles, back);
    }
}

//! Property test on shared replays: a trace replayed through a sequence
//! of gap vectors, energy weights and idle-service ids gives, at every
//! step, the log and service aggregates a freshly decoded copy of the
//! trace gives, and post-processes to the same table and profile, bit for
//! bit, whether its runs were shared with the step before or built anew.
//! Runs are shared exactly when the step's gaps (zero where absent) and
//! weights equal the step before's.

use proptest::prelude::*;

use softwatt_power::{
    ClockGating, GroupPower, ModePowerTable, PowerModel, PowerParams, PowerProfile, UnitGroup,
};
use softwatt_stats::{
    Clocking, EnergyWeights, Mode, PerfTrace, ServiceId, ServiceProfiler, SimLog, StatsCollector,
    TraceRequest, UnitEvent,
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

/// A capture-shaped trace: one segment per entry of `segments`, each
/// recording and ticking its steps, the window flushed at every boundary.
fn capture(
    interval: u64,
    segments: &[Vec<(Mode, UnitEvent, u64)>],
    idle_rates: Vec<(UnitEvent, f64)>,
) -> PerfTrace {
    let clocking = Clocking::scaled(200.0e6, 2000.0);
    let mut stats = StatsCollector::new(clocking, interval);
    let mut requests = Vec::new();
    for (i, steps) in segments.iter().enumerate() {
        for &(mode, event, n) in steps {
            stats.set_mode(mode);
            stats.record_n(event, n);
            stats.tick();
        }
        if i + 1 < segments.len() {
            // A zero-length gap closes the segment at the request.
            stats.skip_idle_gap(0, &[], ServiceId(1));
            requests.push(TraceRequest {
                work_submit: stats.work_cycle(),
                bytes: 4096,
            });
        }
    }
    let log = stats.finish();
    let trace = PerfTrace {
        clocking,
        sample_interval: interval,
        segments: log.block().clone(),
        requests,
        idle_rates,
        work_services: Vec::new(),
        work_cycles: log.total_cycles(),
        committed: 0,
        user_instrs: 0,
    };
    trace.validate().expect("a capture-shaped trace");
    trace
}

/// A copy of `trace` through the swtrace codec: a block of its own, with
/// empty memos and no last replay.
fn decoded(trace: &PerfTrace) -> PerfTrace {
    let mut bytes = Vec::new();
    trace.to_binary(&mut bytes, b"").expect("encodes");
    PerfTrace::from_binary(&bytes[..]).expect("decodes").0
}

/// Two weight sets that charge every event, each differently.
fn weight_sets() -> [EnergyWeights; 2] {
    let mut a = EnergyWeights::zero();
    let mut b = EnergyWeights::zero();
    for i in 0..UnitEvent::COUNT {
        a.per_event_j[i] = (i + 1) as f64 * 0.1e-9;
        b.per_event_j[i] = (i + 2) as f64 * 0.07e-9;
    }
    [a, b]
}

const IDLE_SERVICES: [ServiceId; 2] = [ServiceId(7), ServiceId(9)];

/// Every aggregate of a profiler, floats as bits, in service order.
fn aggregate_bits(profiler: &ServiceProfiler) -> Vec<(ServiceId, Vec<u64>)> {
    let mut out: Vec<_> = profiler
        .aggregates()
        .iter()
        .map(|(&id, agg)| {
            let mut bits = vec![agg.invocations, agg.cycles];
            bits.extend(agg.events.counts());
            bits.extend([agg.energy_sum_j.to_bits(), agg.energy_sumsq_j2.to_bits()]);
            (id, bits)
        })
        .collect();
    out.sort();
    out
}

fn group_bits(power: &GroupPower) -> [u64; UnitGroup::ALL.len()] {
    UnitGroup::ALL.map(|g| power.get(g).to_bits())
}

fn table_bits(table: &ModePowerTable) -> Vec<u64> {
    let mut bits = table.mode_cycles.to_vec();
    for energy in &table.mode_energy_j {
        bits.extend(group_bits(energy));
    }
    bits.push(table.freq_hz.to_bits());
    bits
}

fn profile_bits(profile: &PowerProfile) -> Vec<u64> {
    let mut bits = Vec::new();
    for p in profile.points() {
        bits.extend([p.t_end_s.to_bits(), p.cycles]);
        bits.extend(p.mode_cycles);
        for power in &p.mode_power_w {
            bits.extend(group_bits(power));
        }
        bits.extend(group_bits(&p.window_power_w));
    }
    bits
}

/// What post-processing `log` gives.
struct Post {
    table: Vec<u64>,
    profile: Vec<u64>,
}

fn post(model: &PowerModel, log: &SimLog) -> Post {
    Post {
        table: table_bits(&model.mode_table(log)),
        profile: profile_bits(&model.profile(log)),
    }
}

/// One replay step: its gap vector, weight set and idle service.
type Step = (usize, usize, usize);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_replays_equal_fresh_replays(
        interval in 1u64..24,
        segments in prop::collection::vec(
            prop::collection::vec((modes(), events(), 0u64..5), 0..40),
            2..6,
        ),
        rate_milli in prop::collection::vec((events(), 1u64..2_000), 1..3),
        gap_vectors in prop::collection::vec(prop::collection::vec(0u64..3_000, 0..7), 3),
        steps in prop::collection::vec(
            (any::<bool>(), 0usize..3, 0usize..2, 0usize..2),
            1..14,
        ),
        thread_step in 0usize..3,
    ) {
        let idle_rates = rate_milli
            .iter()
            .map(|&(event, milli)| (event, milli as f64 / 1000.0))
            .collect();
        let trace = capture(interval, &segments, idle_rates);
        let weights = weight_sets();
        let paper = PowerModel::new(&PowerParams::default());
        let cc1 = PowerModel::new(&PowerParams {
            gating: ClockGating::AlwaysOn,
            ..PowerParams::default()
        });

        // Each step repeats the one before it or draws anew, so runs of
        // equal inputs occur often.
        let mut sequence: Vec<Step> = Vec::new();
        for &(repeat, gaps, weight, idle) in &steps {
            match sequence.last() {
                Some(&last) if repeat => sequence.push(last),
                _ => sequence.push((gaps, weight, idle)),
            }
        }

        // The gap after each segment: none is a zero gap.
        let used = |gaps: usize| {
            (0..trace.segments.len())
                .map(|i| gap_vectors[gaps].get(i).copied().unwrap_or(0))
                .collect::<Vec<_>>()
        };
        let mut previous: Option<(Step, SimLog)> = None;
        for &step in &sequence {
            let (gaps, weight, idle) = step;
            let (log, profiler) =
                trace.fast_replay(&gap_vectors[gaps], weights[weight].clone(), IDLE_SERVICES[idle]);

            // The same replay of a fresh copy, post-processed by a model
            // that owns none of its memos (CC1 claims them first).
            let fresh = decoded(&trace);
            let (fresh_log, fresh_profiler) =
                fresh.fast_replay(&gap_vectors[gaps], weights[weight].clone(), IDLE_SERVICES[idle]);
            cc1.mode_table(&fresh_log);
            cc1.profile(&fresh_log);
            let reference = post(&paper, &fresh_log);

            prop_assert_eq!(&log, &fresh_log);
            prop_assert_eq!(aggregate_bits(&profiler), aggregate_bits(&fresh_profiler));
            for _ in 0..2 {
                let got = post(&paper, &log);
                prop_assert_eq!(&got.table, &reference.table);
                prop_assert_eq!(&got.profile, &reference.profile);
            }

            if let Some(((last_gaps, last_weight, _), last_log)) = &previous {
                let same_inputs = used(*last_gaps) == used(gaps) && *last_weight == weight;
                prop_assert_eq!(
                    std::ptr::eq(last_log.gap_memo(), log.gap_memo()),
                    same_inputs,
                    "runs are shared exactly when the gaps and weights repeat"
                );
            }
            previous = Some((step, log));
        }

        // A replay from a second thread reads the same slot.
        let (gaps, weight, idle) = sequence[thread_step.min(sequence.len() - 1)];
        let (log, profiler) = std::thread::scope(|s| {
            s.spawn(|| {
                trace.fast_replay(&gap_vectors[gaps], weights[weight].clone(), IDLE_SERVICES[idle])
            })
            .join()
            .expect("the replay thread finishes")
        });
        let (fresh_log, fresh_profiler) = decoded(&trace)
            .fast_replay(&gap_vectors[gaps], weights[weight].clone(), IDLE_SERVICES[idle]);
        prop_assert_eq!(&log, &fresh_log);
        prop_assert_eq!(aggregate_bits(&profiler), aggregate_bits(&fresh_profiler));
        cc1.mode_table(&fresh_log);
        let reference = post(&paper, &fresh_log);
        let got = post(&paper, &log);
        prop_assert_eq!(&got.table, &reference.table);
        prop_assert_eq!(&got.profile, &reference.profile);
    }
}

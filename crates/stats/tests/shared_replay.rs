//! Property test on shared and resumed replays: a trace replayed through
//! a sequence of gap vectors, energy weights, idle rates and idle-service
//! ids gives, at every step, the log and service aggregates a freshly
//! decoded copy of the trace gives, and post-processes to the same table
//! and profile, bit for bit, whether its runs were shared with the step
//! before, resumed from them or built anew. Each step's gap vector keeps
//! a prefix of random length of the step before's: none, all or some.
//! Runs are shared exactly when the step's gaps (zero where absent),
//! weights and idle rates equal the step before's; otherwise a replay
//! with the same weights and idle rates builds only the gaps from the
//! first segment whose gap differs, which the replay counters show.

use proptest::prelude::*;
use softwatt_obs::registry::counter;

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

/// A gap, zero one time in three.
fn gap() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..3_000, 1u64..60]
}

/// The other of two sets, one time in five.
fn now_and_then() -> impl Strategy<Value = usize> {
    (0usize..5).prop_map(|draw| usize::from(draw == 0))
}

/// The replay counters: shared replays, and gaps resumed and built.
fn replay_counts() -> [u64; 3] {
    [
        "stats.replays_shared",
        "stats.replay_gaps_resumed",
        "stats.replay_gaps_built",
    ]
    .map(|name| counter(name).get())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_replays_equal_fresh_replays(
        interval in 1u64..24,
        segments in prop::collection::vec(
            prop::collection::vec((modes(), events(), 0u64..5), 0..30),
            2..8,
        ),
        rate_milli in prop::collection::vec(
            prop::collection::vec((events(), 1u64..2_000), 1..4),
            2,
        ),
        // Each step: how much of the step before's gap vector it keeps,
        // the entries it appends, and its weight set, idle rates, idle
        // service, the model that post-processes it first and whether
        // that model's first call is `mode_table`.
        steps in prop::collection::vec(
            (
                prop_oneof![Just(0usize), Just(usize::MAX), 0usize..9],
                prop::collection::vec(gap(), 0..6),
                now_and_then(),
                now_and_then(),
                0usize..2,
                any::<bool>(),
                any::<bool>(),
            ),
            1..16,
        ),
        thread_step in 0usize..16,
    ) {
        softwatt_obs::set_enabled(true);
        let rates: Vec<Vec<(UnitEvent, f64)>> = rate_milli
            .iter()
            .map(|set| set.iter().map(|&(event, milli)| (event, milli as f64 / 1000.0)).collect())
            .collect();
        let trace = capture(interval, &segments, rates[0].clone());
        // A clone with other idle rates shares the block, and with it the
        // block's last replay.
        let traces = [trace.clone(), PerfTrace { idle_rates: rates[1].clone(), ..trace.clone() }];
        let weights = weight_sets();
        let paper = PowerModel::new(&PowerParams::default());
        let cc1 = PowerModel::new(&PowerParams {
            gating: ClockGating::AlwaysOn,
            ..PowerParams::default()
        });
        let cc3 = PowerModel::new(&PowerParams {
            gating: ClockGating::GatedWithResidual(0.1),
            ..PowerParams::default()
        });
        let models = [&paper, &cc1];

        // The gap after each segment: none is a zero gap.
        let used = |gaps: &[u64]| {
            (0..trace.segments.len())
                .map(|i| gaps.get(i).copied().unwrap_or(0))
                .collect::<Vec<_>>()
        };
        let mut gaps: Vec<u64> = Vec::new();
        let mut previous: Option<(Vec<u64>, usize, usize, SimLog)> = None;
        let mut replays = Vec::new();
        for (keep, tail, weight, rate, idle, cc1_first, table_first) in &steps {
            gaps.truncate(*keep);
            gaps.extend(tail);
            let (weight, rate, idle) = (*weight, *rate, *idle);
            replays.push((gaps.clone(), weight, rate, idle));
            let before = replay_counts();
            let (log, profiler) =
                traces[rate].fast_replay(&gaps, weights[weight].clone(), IDLE_SERVICES[idle]);
            let after = replay_counts();

            // The same replay of a fresh copy, post-processed by models
            // that own none of its memos (CC3 claims them first).
            let fresh = PerfTrace { idle_rates: rates[rate].clone(), ..decoded(&trace) };
            let (fresh_log, fresh_profiler) =
                fresh.fast_replay(&gaps, weights[weight].clone(), IDLE_SERVICES[idle]);
            cc3.mode_table(&fresh_log);
            cc3.profile(&fresh_log);
            let reference = models.map(|model| post(model, &fresh_log));

            prop_assert_eq!(&log, &fresh_log);
            prop_assert_eq!(aggregate_bits(&profiler), aggregate_bits(&fresh_profiler));
            // Either model may claim the log's gap memo, so a memo is
            // seeded from its predecessor's by a model with the same
            // parameters or by the other, and either call may fill it.
            let order = if *cc1_first { [1, 0] } else { [0, 1] };
            for _ in 0..2 {
                for m in order {
                    let got = if *table_first {
                        post(models[m], &log)
                    } else {
                        let profile = profile_bits(&models[m].profile(&log));
                        Post { table: table_bits(&models[m].mode_table(&log)), profile }
                    };
                    prop_assert_eq!(&got.table, &reference[m].table);
                    prop_assert_eq!(&got.profile, &reference[m].profile);
                }
            }

            // The first segment whose gap differs from the step before's,
            // when every other input is equal; none when all are.
            let gaps_used = used(&gaps);
            let resume_at = previous.as_ref().and_then(|(last, last_weight, last_rate, _)| {
                (*last_weight == weight && *last_rate == rate).then(|| {
                    last.iter().zip(&gaps_used).take_while(|(a, b)| a == b).count()
                })
            });
            let nonzero = |gaps: &[u64]| gaps.iter().filter(|&&gap| gap > 0).count() as u64;
            let shared = resume_at == Some(gaps_used.len());
            let expected = if shared {
                [1, 0, 0]
            } else {
                let k = resume_at.unwrap_or(0);
                [0, nonzero(&gaps_used[..k]), nonzero(&gaps_used[k..])]
            };
            let counted: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            prop_assert_eq!(counted, expected.to_vec(), "shared, resumed and built gaps");
            if let Some((_, _, _, last_log)) = &previous {
                prop_assert_eq!(
                    std::ptr::eq(last_log.gap_memo(), log.gap_memo()),
                    shared,
                    "runs are shared exactly when the gaps, weights and idle rates repeat"
                );
            }
            previous = Some((gaps_used, weight, rate, log));
        }

        // A replay from a second thread reads the same slot.
        let (gaps, weight, rate, idle) = &replays[thread_step.min(replays.len() - 1)];
        let (log, profiler) = std::thread::scope(|s| {
            s.spawn(|| {
                traces[*rate].fast_replay(gaps, weights[*weight].clone(), IDLE_SERVICES[*idle])
            })
            .join()
            .expect("the replay thread finishes")
        });
        let fresh = PerfTrace { idle_rates: rates[*rate].clone(), ..decoded(&trace) };
        let (fresh_log, fresh_profiler) =
            fresh.fast_replay(gaps, weights[*weight].clone(), IDLE_SERVICES[*idle]);
        prop_assert_eq!(&log, &fresh_log);
        prop_assert_eq!(aggregate_bits(&profiler), aggregate_bits(&fresh_profiler));
        cc1.mode_table(&fresh_log);
        let reference = post(&paper, &fresh_log);
        let got = post(&paper, &log);
        prop_assert_eq!(&got.table, &reference.table);
        prop_assert_eq!(&got.profile, &reference.profile);
    }
}

//! Property test: [`PerfTrace`] CSV export/import is the identity on
//! arbitrary (structurally valid) traces — the replay-engine counterpart
//! of the `SimLog` round trip in `crates/stats/tests/props.rs`. Floats
//! travel as IEEE-754 bit patterns, so equality is exact; the strategies
//! only produce finite values (`PartialEq` on the trace would reject NaN
//! even after a perfect round trip).

use proptest::prelude::*;

use softwatt_stats::{
    Clocking, Mode, PerfTrace, Sample, ServiceAggregate, ServiceId, StatsCollector, TraceRequest,
    UnitEvent,
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

/// Real samples, produced the way the simulator produces them: by driving
/// a [`StatsCollector`] and taking the finished log's windows.
fn samples(interval: u64, steps: &[(Mode, UnitEvent, u64)]) -> Vec<Sample> {
    let mut stats = StatsCollector::new(Clocking::default(), interval);
    for &(mode, event, n) in steps {
        stats.set_mode(mode);
        stats.record_n(event, n);
        stats.tick();
    }
    stats.finish().windows().map(|w| w.to_sample()).collect()
}

/// Raw request material: (submit-time delta, disk offset, bytes). The test
/// body prefix-sums the deltas and clamps them to the trace's work cycles,
/// because `validate()` (shared by the CSV and binary readers) demands
/// monotone, in-range submission offsets.
fn request_parts() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..1 << 16, 0u64..1 << 40, 1u64..1 << 20), 0..8)
}

fn idle_rates() -> impl Strategy<Value = Vec<(UnitEvent, f64)>> {
    prop::collection::vec((events(), 0.0f64..4.0), 0..6)
}

fn work_services() -> impl Strategy<Value = Vec<(ServiceId, ServiceAggregate)>> {
    prop::collection::vec(
        (
            0u64..32,
            0u64..1 << 30,
            0u64..1 << 40,
            0.0f64..1.0e3,
            0.0f64..1.0e6,
            prop::collection::vec((events(), 0u64..1 << 30), 0..4),
        )
            .prop_map(|(id, invocations, cycles, sum, sumsq, bursts)| {
                let mut agg = ServiceAggregate::empty();
                agg.invocations = invocations;
                agg.cycles = cycles;
                agg.energy_sum_j = sum;
                agg.energy_sumsq_j2 = sumsq;
                for (event, n) in bursts {
                    agg.events.add(event, n);
                }
                (ServiceId(id as u16), agg)
            }),
        0..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV export/import is the identity on arbitrary traces, including
    /// empty segments, an empty request stream, and float payloads.
    #[test]
    fn perftrace_csv_round_trip(
        interval in 1u64..32,
        scale in 1.0f64..500_000.0,
        steps in prop::collection::vec((modes(), events(), 0u64..9), 1..120),
        request_parts in request_parts(),
        idle_rates in idle_rates(),
        work_services in work_services(),
        committed in 0u64..1 << 50,
        user_instrs in 0u64..1 << 50,
    ) {
        let samples = samples(interval, &steps);
        let work_cycles: u64 = samples.iter().map(Sample::cycles).sum();

        let mut submit = 0u64;
        let requests: Vec<TraceRequest> = request_parts
            .into_iter()
            .map(|(delta, disk_offset, bytes)| {
                submit = (submit + delta).min(work_cycles);
                TraceRequest { work_submit: submit, disk_offset, bytes }
            })
            .collect();

        // Deal the samples into requests.len() + 1 segments round-robin,
        // so some segments are empty whenever samples run short — the
        // shape validate() demands.
        let mut segments: Vec<Vec<Sample>> = vec![Vec::new(); requests.len() + 1];
        for (i, sample) in samples.into_iter().enumerate() {
            let n = segments.len();
            segments[i % n].push(sample);
        }

        let trace = PerfTrace {
            clocking: Clocking::scaled(200.0e6, scale),
            sample_interval: interval,
            segments: segments.into(),
            requests,
            idle_rates,
            work_services,
            work_cycles,
            committed,
            user_instrs,
        };
        prop_assert!(trace.validate().is_ok());

        let mut buf = Vec::new();
        trace.to_csv(&mut buf).unwrap();
        let back = PerfTrace::from_csv(std::io::BufReader::new(&buf[..])).unwrap();
        prop_assert_eq!(&back, &trace);

        // The swtrace-v1 binary codec is the identity on the same traces,
        // annotation included.
        let mut bin = Vec::new();
        trace.to_binary(&mut bin, b"prop annotation").unwrap();
        let (back, annotation) = PerfTrace::from_binary(&bin[..]).unwrap();
        prop_assert_eq!(back, trace);
        prop_assert_eq!(annotation.as_slice(), b"prop annotation".as_slice());
    }

    /// The header's decimal floats (hz, scale) survive the round trip
    /// exactly too — Rust's shortest-representation formatting guarantees
    /// read-back equality without bit-pattern encoding.
    #[test]
    fn perftrace_header_clocking_round_trips(
        hz in 1.0e6f64..1.0e9,
        scale in 0.5f64..1.0e6,
    ) {
        let trace = PerfTrace {
            clocking: Clocking::scaled(hz, scale),
            sample_interval: 1,
            segments: vec![Vec::new()].into(),
            requests: Vec::new(),
            idle_rates: Vec::new(),
            work_services: Vec::new(),
            work_cycles: 0,
            committed: 0,
            user_instrs: 0,
        };
        let mut buf = Vec::new();
        trace.to_csv(&mut buf).unwrap();
        let back = PerfTrace::from_csv(std::io::BufReader::new(&buf[..])).unwrap();
        prop_assert_eq!(back.clocking, trace.clocking);
    }
}

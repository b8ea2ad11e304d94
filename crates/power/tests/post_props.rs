//! Property tests on power post-processing: over collector-built logs
//! that mix work windows with idle cycles, analytic idle gaps of every
//! shape and trailing partial windows, `mode_table` and `profile` equal a
//! window-by-window evaluation of the public model in log order, bit for
//! bit, whichever model owns the block's memo and whether the log shares
//! its block or is an owned CSV copy.

use std::io::BufReader;

use proptest::prelude::*;

use softwatt_power::{
    ClockGating, GroupPower, ModePowerTable, PowerModel, PowerParams, ProfilePoint, UnitGroup,
};
use softwatt_stats::{Clocking, Mode, ServiceId, SimLog, StatsCollector, UnitEvent};

/// One step of a generated run.
#[derive(Debug, Clone)]
enum Step {
    /// Records `n` of `event` in `mode`, then ticks `windows` whole
    /// sampling intervals plus `extra` cycles.
    Work {
        mode: Mode,
        event: UnitEvent,
        n: u64,
        windows: u64,
        extra: u64,
    },
    /// Records `n` of `event` in `mode` without ticking, then skips an
    /// idle gap of shape `shape` (see [`gap_len`]).
    Gap {
        mode: Mode,
        event: UnitEvent,
        n: u64,
        shape: (u8, u64, u64),
    },
}

/// A gap length of each shape: 0, below the interval, the interval,
/// k intervals, and k intervals plus a remainder.
fn gap_len((kind, k, r): (u8, u64, u64), interval: u64) -> u64 {
    let r = 1 + r % (interval - 1);
    match kind {
        0 => 0,
        1 => r,
        2 => interval,
        3 => k * interval,
        _ => k * interval + r,
    }
}

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

fn steps() -> impl Strategy<Value = Step> {
    prop_oneof![
        (modes(), events(), 0u64..400, 0u64..3, 0u64..64).prop_map(
            |(mode, event, n, windows, extra)| Step::Work {
                mode,
                event,
                n,
                windows,
                extra,
            }
        ),
        (modes(), events(), 0u64..400, (0u8..5, 2u64..6, 0u64..1000)).prop_map(
            |(mode, event, n, shape)| Step::Gap {
                mode,
                event,
                n,
                shape
            }
        ),
    ]
}

/// The log the collector writes for `steps`.
fn build(interval: u64, steps: &[Step]) -> SimLog {
    let rates = [
        (UnitEvent::IcacheAccess, 0.73),
        (UnitEvent::AluOp, 0.21),
        (UnitEvent::FetchCycle, 0.9),
    ];
    let mut stats = StatsCollector::new(Clocking::scaled(200.0e6, 2000.0), interval);
    for step in steps {
        match *step {
            Step::Work {
                mode,
                event,
                n,
                windows,
                extra,
            } => {
                stats.set_mode(mode);
                stats.record_n(event, n);
                stats.tick_n(windows * interval + extra);
            }
            Step::Gap {
                mode,
                event,
                n,
                shape,
            } => {
                stats.set_mode(mode);
                stats.record_n(event, n);
                stats.skip_idle_gap(gap_len(shape, interval), &rates, ServiceId(5));
            }
        }
    }
    stats.finish()
}

/// The log as an owned copy: read back from its CSV.
fn csv_copy(log: &SimLog) -> SimLog {
    let mut csv = Vec::new();
    log.to_csv(&mut csv).unwrap();
    SimLog::from_csv(BufReader::new(&csv[..])).unwrap()
}

/// Every window's per-mode energies folded in log order.
fn reference_table(model: &PowerModel, log: &SimLog) -> ModePowerTable {
    let mut mode_cycles = [0u64; Mode::COUNT];
    let mut mode_energy_j = [GroupPower::new(); Mode::COUNT];
    for w in log.windows() {
        for mode in Mode::ALL {
            let mc = w.mode_cycles[mode.index()];
            if mc > 0 {
                mode_cycles[mode.index()] += mc;
                mode_energy_j[mode.index()].merge(&model.window_energy_j(w.events.mode(mode), mc));
            }
        }
    }
    ModePowerTable {
        mode_cycles,
        mode_energy_j,
        freq_hz: model.params().tech.freq_hz,
    }
}

/// One point per window, from `window_power_w`.
fn reference_points(model: &PowerModel, log: &SimLog) -> Vec<ProfilePoint> {
    log.windows()
        .map(|w| {
            let mut mode_power_w = [GroupPower::new(); Mode::COUNT];
            for mode in Mode::ALL {
                let mc = w.mode_cycles[mode.index()];
                if mc > 0 {
                    mode_power_w[mode.index()] = model.window_power_w(w.events.mode(mode), mc);
                }
            }
            ProfilePoint {
                t_end_s: log.clocking().cycles_to_paper_secs(w.end_cycle),
                cycles: w.cycles(),
                mode_cycles: w.mode_cycles,
                mode_power_w,
                window_power_w: model.window_power_w(&w.events.combined(), w.cycles()),
            }
        })
        .collect()
}

fn group_bits(power: &GroupPower) -> [u64; UnitGroup::COUNT] {
    UnitGroup::ALL.map(|g| power.get(g).to_bits())
}

fn table_bits(table: &ModePowerTable) -> Vec<u64> {
    let mut bits = table.mode_cycles.to_vec();
    bits.push(table.freq_hz.to_bits());
    for energy in &table.mode_energy_j {
        bits.extend(group_bits(energy));
    }
    bits
}

fn point_bits(p: &ProfilePoint) -> Vec<u64> {
    let mut bits = vec![p.t_end_s.to_bits(), p.cycles];
    bits.extend(p.mode_cycles);
    for power in p.mode_power_w.iter().chain([&p.window_power_w]) {
        bits.extend(group_bits(power));
    }
    bits
}

/// Checks both post-processing results of `log` under `model` against the
/// window-by-window references, and the profile again after the log is
/// dropped.
fn check(model: &PowerModel, log: SimLog, label: &str) {
    let expected_table = table_bits(&reference_table(model, &log));
    let expected_points: Vec<Vec<u64>> = reference_points(model, &log)
        .iter()
        .map(point_bits)
        .collect();
    assert_eq!(
        table_bits(&model.mode_table(&log)),
        expected_table,
        "{label}: mode_table"
    );
    let profile = model.profile(&log);
    assert_eq!(profile.len(), log.len(), "{label}: profile length");
    drop(log);
    let points: Vec<Vec<u64>> = profile.points().map(|p| point_bits(&p)).collect();
    assert_eq!(points, expected_points, "{label}: profile points");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `mode_table` and `profile` equal the window-by-window references
    /// under the model that owns the block's memo, under a second model,
    /// and on an owned CSV copy of the log.
    #[test]
    fn post_processing_equals_a_window_by_window_fold(
        interval in 2u64..40,
        steps in prop::collection::vec(steps(), 1..24),
        residual in 0.0f64..0.5,
    ) {
        let owner = PowerModel::new(&PowerParams::default());
        let second = PowerModel::new(&PowerParams {
            gating: ClockGating::GatedWithResidual(residual),
            ..PowerParams::default()
        });
        let log = build(interval, &steps);
        let copy = csv_copy(&log);
        check(&owner, log.clone(), "owner");
        check(&second, log.clone(), "second model");
        // The memo is filled now: both results read it.
        check(&owner, log, "owner, memo filled");
        check(&owner, copy.clone(), "CSV copy");
        check(&second, copy, "CSV copy, second model");
    }
}

//! Disk-policy replay: re-times a captured request stream under any policy.
//!
//! The CPU-side work between disk requests is independent of the disk's
//! power-management policy — the policy only changes how long the process
//! blocks after each request (spin-up penalties, queueing behind a
//! spin-down). Given the request stream in *work-relative* time (see
//! [`softwatt_stats::PerfTrace`]), this module runs it through a fresh
//! [`Disk`] state machine and computes the per-request blocked gaps and the
//! final [`DiskReport`] — exactly the values a full re-simulation under
//! that policy would have produced, at a cost proportional to the number of
//! requests instead of the number of cycles.

use softwatt_stats::{Clocking, TraceRequest};

use crate::{Disk, DiskConfig, DiskReport};

/// The re-timed request stream under one disk policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayTimeline {
    /// Blocked-gap length after each request, in cycles (`gaps[i]` follows
    /// `requests[i]`; zero when the request completed within the cycle the
    /// OS would notice anyway).
    pub gaps: Vec<u64>,
    /// Total cycles of the re-timed run: work cycles plus all gaps.
    pub total_cycles: u64,
    /// The disk's energy/mode report, finalized at `total_cycles`.
    pub report: DiskReport,
}

/// Replays `requests` through a fresh disk running `config`.
///
/// Each request is submitted at its work-relative time shifted by the gaps
/// accumulated so far, reproducing the absolute submission times a direct
/// simulation under this policy would use. The blocked gap after a request
/// mirrors the simulator's driver: the OS observes completion one cycle
/// after submission at the earliest, so
/// `gap = max(done, submit + 1) - (submit + 1)`.
pub fn replay_requests(
    config: DiskConfig,
    clocking: Clocking,
    requests: &[TraceRequest],
    work_cycles: u64,
) -> ReplayTimeline {
    softwatt_obs::count("disk.replays", 1);
    let mut disk = Disk::new(config, clocking);
    let mut gaps = Vec::with_capacity(requests.len());
    let mut cumulative_gap = 0u64;
    for r in requests {
        let submit = r.work_submit + cumulative_gap;
        let done = disk.submit(submit, r.bytes);
        let gap = done.max(submit + 1) - (submit + 1);
        gaps.push(gap);
        cumulative_gap += gap;
    }
    let total_cycles = work_cycles + cumulative_gap;
    ReplayTimeline {
        gaps,
        total_cycles,
        report: disk.report(total_cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskMode, DiskPolicy};

    fn clk() -> Clocking {
        Clocking::scaled(200.0e6, 1_000.0)
    }

    fn requests() -> Vec<TraceRequest> {
        // Three reads spread over ~6 paper-seconds of work.
        [200_000u64, 600_000, 1_200_000]
            .iter()
            .map(|&work_submit| TraceRequest {
                work_submit,
                bytes: 16 * 1024,
            })
            .collect()
    }

    /// Reference: drive a disk directly with the same absolute-time algebra.
    fn direct(config: DiskConfig, reqs: &[TraceRequest], work_cycles: u64) -> ReplayTimeline {
        let mut disk = Disk::new(config, clk());
        let mut gaps = Vec::new();
        let mut cum = 0u64;
        for r in reqs {
            let submit = r.work_submit + cum;
            let done = disk.submit(submit, r.bytes);
            let gap = done.max(submit + 1) - (submit + 1);
            gaps.push(gap);
            cum += gap;
        }
        let total = work_cycles + cum;
        ReplayTimeline {
            gaps,
            total_cycles: total,
            report: disk.report(total),
        }
    }

    #[test]
    fn replay_matches_direct_submission_for_every_policy() {
        let reqs = requests();
        for policy in [
            DiskPolicy::Conventional,
            DiskPolicy::IdleWhenNotBusy,
            DiskPolicy::Standby { threshold_s: 2.0 },
            DiskPolicy::Sleep {
                threshold_s: 2.0,
                sleep_after_s: 3.0,
            },
        ] {
            let config = DiskConfig::new(policy);
            let replayed = replay_requests(config, clk(), &reqs, 2_000_000);
            let reference = direct(config, &reqs, 2_000_000);
            assert_eq!(replayed, reference, "policy {policy}");
            assert_eq!(replayed.report.requests, reqs.len() as u64);
        }
    }

    /// 1 paper second = 133,333 1/3 cycles, so no policy or mechanical
    /// duration is a whole number of cycles and each conversion rounds.
    fn thirds_clk() -> Clocking {
        Clocking::scaled(200.0e6, 1_500.0)
    }

    /// A fixed stream: mixed sizes, and idle stretches (the work between
    /// two requests) of 0.1, 0.5, 1.5, 3, 11, 5, 0 and 4.5 s, then a
    /// 10 s tail. Under STANDBY 2 s the 3 s and 5 s stretches end during
    /// a spin-down, under STANDBY 4 s the 5 s and 4.5 s ones do.
    fn fixed_stream() -> Vec<TraceRequest> {
        let stretches_and_sizes = [
            (13_333, 4096),
            (66_667, 65_536),
            (200_000, 512),
            (400_000, 16_384),
            (1_466_667, 131_072),
            (666_667, 4096),
            (1, 1 << 20),
            (600_000, 8192),
        ];
        let mut work_submit = 0;
        stretches_and_sizes
            .iter()
            .map(|&(stretch, bytes)| {
                work_submit += stretch;
                TraceRequest { work_submit, bytes }
            })
            .collect()
    }

    /// Every gap, the total cycles, the energy and each mode's seconds (by
    /// bits), and the spin counts of the fixed stream under each policy,
    /// pinned: a duration converted to cycles any other way (rounded
    /// down, say) changes them.
    #[test]
    fn a_fixed_stream_times_and_charges_as_pinned() {
        let reqs = fixed_stream();
        let work_cycles = reqs.last().unwrap().work_submit + 1_333_333;
        for (policy, gaps, total, energy, mode_secs, spins) in pinned() {
            let t = replay_requests(DiskConfig::new(policy), thirds_clk(), &reqs, work_cycles);
            assert_eq!(t.gaps, gaps, "{policy}");
            assert_eq!(t.total_cycles, total, "{policy}");
            assert_eq!(t.report.energy_j.to_bits(), energy, "{policy}");
            assert_eq!(t.report.mode_secs.map(f64::to_bits), mode_secs, "{policy}");
            assert_eq!((t.report.spinups, t.report.spindowns), spins, "{policy}");
            assert_eq!(t.report.requests, reqs.len() as u64);
        }
    }

    type Pinned = (DiskPolicy, Vec<u64>, u64, u64, [u64; 7], (u64, u64));

    /// Recorded from the model before policies' durations were converted
    /// once per disk.
    fn pinned() -> Vec<Pinned> {
        let standby = |threshold_s| DiskPolicy::Standby { threshold_s };
        let sleep = DiskPolicy::Sleep {
            threshold_s: 2.0,
            sleep_after_s: 3.0,
        };
        let spinning = vec![2317, 3879, 2225, 2629, 5546, 2317, 28879, 2421];
        let two_s = vec![2317, 3879, 2225, 1202631, 672213, 935652, 28879, 1002423];
        vec![
            (
                DiskPolicy::Conventional,
                spinning.clone(),
                4_796_881,
                0x405ccdff9b56323c,
                [0, 0, 0, 0, 0x4041efb242070b8c, 0x3fba9e6eeb702601, 0],
                (0, 0),
            ),
            (
                DiskPolicy::IdleWhenNotBusy,
                spinning,
                4_796_881,
                0x404d21208e150119,
                [
                    0,
                    0,
                    0,
                    0x4041cccb295e9e1b,
                    0x3fd1738c5436b8f9,
                    0x3fba9e6eeb702601,
                    0,
                ],
                (0, 0),
            ),
            (
                standby(2.0),
                two_s.clone(),
                8_596_887,
                0x405ac6f877ab324a,
                [
                    0x40390000d1b71759,
                    0,
                    0x401bfff972474539,
                    0x40283332df505d10,
                    0x3fd1738c5436b8f9,
                    0x3fba9e6eeb702601,
                    0x40340000a7c5ac47,
                ],
                (4, 5),
            ),
            (
                standby(4.0),
                vec![2317, 3879, 2225, 2629, 672213, 1202318, 28879, 1269089],
                7_930_217,
                0x4058c6f790fb6568,
                [
                    0x40340000a7c5ac47,
                    0,
                    0x4007fff822bbecab,
                    0x40351997785729b2,
                    0x3fd1738c5436b8f9,
                    0x3fba9e6eeb702601,
                    0x402e0000fba8826a,
                ],
                (3, 4),
            ),
            (
                sleep,
                two_s,
                8_596_887,
                0x405aba2bb341e14c,
                [
                    0x40390000d1b71759,
                    0x3fefffeb074a771d,
                    0x4017fffc115df656,
                    0x40283332df505d10,
                    0x3fd1738c5436b8f9,
                    0x3fba9e6eeb702601,
                    0x40340000a7c5ac47,
                ],
                (4, 5),
            ),
        ]
    }

    type Charged = (Vec<u64>, u64, u64, [u64; 7], (u64, u64));

    /// The fixed stream's gaps, total cycles, energy and mode-seconds bits
    /// and spin counts under `policy`.
    fn charged(policy: DiskPolicy) -> Charged {
        let reqs = fixed_stream();
        let work_cycles = reqs.last().unwrap().work_submit + 1_333_333;
        let t = replay_requests(DiskConfig::new(policy), thirds_clk(), &reqs, work_cycles);
        (
            t.gaps,
            t.total_cycles,
            t.report.energy_j.to_bits(),
            t.report.mode_secs.map(f64::to_bits),
            (t.report.spinups, t.report.spindowns),
        )
    }

    /// A spin-down threshold too long for the cycle counter never elapses:
    /// the fixed stream times and charges exactly as under a threshold
    /// merely longer than the run (1e9 s, about 1.3e14 cycles here;
    /// 1e300 s and `f64::MAX` saturate the counter).
    #[test]
    fn a_threshold_past_the_counter_never_spins_down() {
        let never = charged(DiskPolicy::Standby { threshold_s: 1e9 });
        assert_eq!(never.4, (0, 0));
        for threshold_s in [1e300, f64::MAX] {
            assert_eq!(charged(DiskPolicy::Standby { threshold_s }), never);
            let sleep = DiskPolicy::Sleep {
                threshold_s,
                sleep_after_s: 3.0,
            };
            assert_eq!(charged(sleep), never, "{sleep}");
        }
    }

    /// A sleep delay too long for the cycle counter never elapses, as one
    /// merely longer than the run does not.
    #[test]
    fn a_sleep_delay_past_the_counter_never_sleeps() {
        let sleep = |sleep_after_s| DiskPolicy::Sleep {
            threshold_s: 2.0,
            sleep_after_s,
        };
        let never = charged(sleep(1e9));
        assert_eq!(never.3[DiskMode::Sleep.index()], 0);
        assert_eq!(never.4, (4, 5), "spins down as STANDBY 2 s does");
        for sleep_after_s in [1e300, f64::MAX] {
            assert_eq!(charged(sleep(sleep_after_s)), never, "{sleep_after_s}");
        }
    }

    #[test]
    fn spin_down_policies_grow_gaps() {
        let reqs = requests();
        let conventional = replay_requests(
            DiskConfig::new(DiskPolicy::Conventional),
            clk(),
            &reqs,
            2_000_000,
        );
        let standby = replay_requests(
            DiskConfig::new(DiskPolicy::Standby { threshold_s: 0.5 }),
            clk(),
            &reqs,
            2_000_000,
        );
        // The aggressive spin-down threshold forces spin-ups, lengthening
        // the blocked stretches and the whole run.
        assert!(standby.report.spinups > 0);
        assert!(standby.total_cycles > conventional.total_cycles);
        assert!(standby.gaps.iter().sum::<u64>() > conventional.gaps.iter().sum::<u64>());
    }

    #[test]
    fn empty_stream_still_reports_quiescent_energy() {
        let timeline = replay_requests(
            DiskConfig::new(DiskPolicy::IdleWhenNotBusy),
            clk(),
            &[],
            400_000,
        );
        assert_eq!(timeline.total_cycles, 400_000);
        assert!(timeline.gaps.is_empty());
        // 2 paper-seconds at 1.6 W idle.
        assert!((timeline.report.energy_j - 3.2).abs() < 0.01);
    }
}

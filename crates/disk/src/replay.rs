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
    use crate::DiskPolicy;

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

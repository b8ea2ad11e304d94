//! The power-managed disk state machine with online energy accounting.

use std::collections::VecDeque;
use std::fmt;

use softwatt_stats::Clocking;

use crate::{DiskMode, DiskPowerTable, DiskTimings};

/// Power-management policy — the four configurations of the paper's
/// Section 4 study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiskPolicy {
    /// Configuration 1: the baseline disk never leaves ACTIVE (upper bound
    /// on disk power; "conventional" in Figure 5).
    Conventional,
    /// Configuration 2: transition to IDLE immediately after each request
    /// completes; never spin down.
    IdleWhenNotBusy,
    /// Configurations 3/4: additionally spin down to STANDBY after
    /// `threshold_s` seconds of disk inactivity.
    Standby {
        /// Spin-down threshold in paper-time seconds.
        threshold_s: f64,
    },
    /// Extension (the paper leaves SLEEP unused): like [`DiskPolicy::Standby`],
    /// plus a host-issued SLEEP command after a further `sleep_after_s`
    /// seconds in STANDBY, dropping the drive to its 0.15 W floor.
    Sleep {
        /// Spin-down threshold in paper-time seconds.
        threshold_s: f64,
        /// Additional STANDBY residency before the SLEEP command.
        sleep_after_s: f64,
    },
}

impl DiskPolicy {
    /// Short label for reports.
    pub fn label(self) -> String {
        match self {
            DiskPolicy::Conventional => "conventional".to_string(),
            DiskPolicy::IdleWhenNotBusy => "idle-only".to_string(),
            DiskPolicy::Standby { threshold_s } => format!("standby-{threshold_s}s"),
            DiskPolicy::Sleep {
                threshold_s,
                sleep_after_s,
            } => {
                format!("sleep-{threshold_s}s+{sleep_after_s}s")
            }
        }
    }

    /// The spin-down threshold and the STANDBY residency before SLEEP, in
    /// paper-time seconds; zero for a delay the policy does not have.
    fn delays_s(self) -> (f64, f64) {
        match self {
            DiskPolicy::Standby { threshold_s } => (threshold_s, 0.0),
            DiskPolicy::Sleep {
                threshold_s,
                sleep_after_s,
            } => (threshold_s, sleep_after_s),
            DiskPolicy::Conventional | DiskPolicy::IdleWhenNotBusy => (0.0, 0.0),
        }
    }
}

impl fmt::Display for DiskPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Full disk configuration: policy plus power and timing tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskConfig {
    /// Power-management policy.
    pub policy: DiskPolicy,
    /// Per-mode power values (Figure 2 defaults).
    pub power: DiskPowerTable,
    /// Flat mechanical timings (average seek).
    pub timings: DiskTimings,
}

impl DiskConfig {
    /// A configuration with default (MK3003MAN) power/timing tables.
    pub fn new(policy: DiskPolicy) -> DiskConfig {
        DiskConfig {
            policy,
            power: DiskPowerTable::default(),
            timings: DiskTimings::default(),
        }
    }

    /// Checks that the disk can time this configuration: every duration
    /// [`Disk::new`] converts to cycles is finite and non-negative, and
    /// the transfer rate is finite and positive.
    ///
    /// # Errors
    ///
    /// Returns a description of the first field that fails.
    pub fn validate(&self) -> Result<(), String> {
        let t = &self.timings;
        let (threshold_s, sleep_after_s) = self.policy.delays_s();
        let durations = [
            ("spin-down threshold", threshold_s),
            ("sleep delay", sleep_after_s),
            ("spin-up time", t.spin_up_s),
            ("spin-down time", t.spin_down_s),
            ("seek time", t.avg_seek_ms),
            ("rotational latency", t.avg_rotation_ms),
        ];
        for (name, value) in durations {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!(
                    "disk {name} must be finite and non-negative, got {value}"
                ));
            }
        }
        if !(t.transfer_mb_s.is_finite() && t.transfer_mb_s > 0.0) {
            return Err(format!(
                "disk transfer rate must be finite and positive, got {}",
                t.transfer_mb_s
            ));
        }
        Ok(())
    }
}

/// Summary of a disk's activity over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskReport {
    /// Policy the disk ran under.
    pub policy: DiskPolicy,
    /// Total disk energy in Joules (paper time).
    pub energy_j: f64,
    /// Paper-time seconds spent in each mode, indexed by
    /// [`DiskMode::index`].
    pub mode_secs: [f64; DiskMode::COUNT],
    /// Requests serviced.
    pub requests: u64,
    /// Completed spin-downs.
    pub spindowns: u64,
    /// Spin-ups performed.
    pub spinups: u64,
}

impl DiskReport {
    /// Average power over `total_secs` of run time.
    pub fn average_power_w(&self, total_secs: f64) -> f64 {
        assert!(total_secs > 0.0, "run duration must be positive");
        self.energy_j / total_secs
    }
}

/// The disk model.
///
/// The disk plans its future as a queue of `(end_cycle, mode)` segments
/// whenever a request is submitted; [`Disk::sync_to`] walks the plan,
/// integrating energy per mode in paper time. This is the paper's "measure
/// disk energy during simulation" exception, and it adds O(1) amortized
/// work per request. The disk converts its fixed durations to cycles once,
/// when it is created.
///
/// See the crate-level docs for an example.
#[derive(Debug, Clone)]
pub struct Disk {
    config: DiskConfig,
    clocking: Clocking,
    cycles: Durations,
    now: u64,
    mode: DiskMode,
    segments: VecDeque<(u64, DiskMode)>,
    busy_until: u64,
    energy_j: f64,
    mode_secs: [f64; DiskMode::COUNT],
    requests: u64,
    spindowns: u64,
    spinups: u64,
}

/// A disk's fixed durations in cycles, each converted by
/// [`Clocking::paper_secs_to_cycles`].
#[derive(Debug, Clone, Copy)]
struct Durations {
    seek: u64,
    spin_up: u64,
    spin_down: u64,
    /// The policy's spin-down threshold (zero if it has none).
    threshold: u64,
    /// The policy's STANDBY residency before SLEEP (zero if it has none).
    sleep_after: u64,
}

impl Disk {
    /// Creates a disk at cycle 0, spinning and idle (or ACTIVE for the
    /// conventional policy). A standby-policy disk immediately begins its
    /// inactivity countdown, exactly as if a request had just completed.
    ///
    /// # Panics
    ///
    /// Panics if a duration of `config` is negative or not finite (see
    /// [`DiskConfig::validate`]).
    pub fn new(config: DiskConfig, clocking: Clocking) -> Disk {
        let to_cycles = |secs| clocking.paper_secs_to_cycles(secs);
        let (threshold_s, sleep_after_s) = config.policy.delays_s();
        let timings = config.timings;
        let mut disk = Disk {
            config,
            clocking,
            cycles: Durations {
                seek: to_cycles(timings.seek_secs()),
                spin_up: to_cycles(timings.spin_up_s),
                spin_down: to_cycles(timings.spin_down_s),
                threshold: to_cycles(threshold_s),
                sleep_after: to_cycles(sleep_after_s),
            },
            now: 0,
            mode: match config.policy {
                DiskPolicy::Conventional => DiskMode::Active,
                _ => DiskMode::Idle,
            },
            segments: VecDeque::new(),
            busy_until: 0,
            energy_j: 0.0,
            mode_secs: [0.0; DiskMode::COUNT],
            requests: 0,
            spindowns: 0,
            spinups: 0,
        };
        disk.plan_tail(0);
        disk
    }

    /// Mode at the last synced cycle.
    pub fn mode(&self) -> DiskMode {
        self.mode
    }

    /// Energy consumed so far (paper-time Joules), up to the last synced
    /// cycle.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Advances accounting to `now`, applying any planned transitions.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than a previously synced cycle.
    pub fn sync_to(&mut self, now: u64) {
        assert!(now >= self.now, "disk time cannot move backwards");
        while let Some(&(end, mode)) = self.segments.front() {
            if end <= now {
                self.accrue(mode, end);
                self.segments.pop_front();
                if mode == DiskMode::SpinDown {
                    self.spindowns += 1;
                    softwatt_obs::count("disk.spindowns", 1);
                }
            } else {
                self.accrue(mode, now);
                self.mode = mode;
                return;
            }
        }
        let terminal = self.terminal_mode();
        self.accrue(terminal, now);
        self.mode = terminal;
    }

    fn accrue(&mut self, mode: DiskMode, until: u64) {
        debug_assert!(until >= self.now);
        if mode != self.mode {
            softwatt_obs::count("disk.transitions", 1);
        }
        let secs = self.clocking.cycles_to_paper_secs(until - self.now);
        self.energy_j += self.config.power.watts(mode) * secs;
        self.mode_secs[mode.index()] += secs;
        self.now = until;
        self.mode = mode;
    }

    fn terminal_mode(&self) -> DiskMode {
        match self.config.policy {
            DiskPolicy::Conventional => DiskMode::Active,
            DiskPolicy::IdleWhenNotBusy => DiskMode::Idle,
            DiskPolicy::Standby { .. } => DiskMode::Standby,
            DiskPolicy::Sleep { .. } => DiskMode::Sleep,
        }
    }

    /// Submits a request for `bytes` at cycle `now`; returns the completion
    /// cycle. Requests queue FIFO behind any request in service; a spun-down
    /// (or spinning-down) disk pays the spin-up penalty first.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than a previously synced cycle.
    pub fn submit(&mut self, now: u64, bytes: u64) -> u64 {
        self.sync_to(now);
        self.requests += 1;
        softwatt_obs::count("disk.requests", 1);

        // Decide when service can start and prune the stale plan tail.
        let start = if now < self.busy_until {
            // Queue behind in-flight service: keep segments through
            // busy_until, drop the post-completion tail.
            while matches!(self.segments.back(), Some(&(end, _)) if end > self.busy_until) {
                self.segments.pop_back();
            }
            self.busy_until
        } else {
            match self.mode {
                DiskMode::Idle | DiskMode::Active | DiskMode::Seeking => {
                    self.segments.clear();
                    now
                }
                DiskMode::SpinDown => {
                    // Must finish spinning down, then spin up.
                    let spindown_end = self.segments.front().expect("mid-spindown").0;
                    self.segments.truncate(1);
                    self.push_spinup(spindown_end)
                }
                DiskMode::Standby | DiskMode::Sleep => {
                    self.segments.clear();
                    self.push_spinup(now)
                }
                DiskMode::SpinUp => unreachable!("spin-up only occurs while busy"),
            }
        };

        let service = self.config.timings.service_secs(bytes);
        let seek_end = start + self.cycles.seek;
        let complete = (start + self.clocking.paper_secs_to_cycles(service)).max(seek_end + 1);
        self.segments.push_back((seek_end, DiskMode::Seeking));
        self.segments.push_back((complete, DiskMode::Active));
        self.busy_until = complete;
        self.plan_tail(complete);
        complete
    }

    fn push_spinup(&mut self, at: u64) -> u64 {
        let end = at + self.cycles.spin_up;
        self.segments.push_back((end, DiskMode::SpinUp));
        self.spinups += 1;
        softwatt_obs::count("disk.spinups", 1);
        end
    }

    fn plan_tail(&mut self, from: u64) {
        let sleeps = match self.config.policy {
            DiskPolicy::Standby { .. } => false,
            DiskPolicy::Sleep { .. } => true,
            DiskPolicy::Conventional | DiskPolicy::IdleWhenNotBusy => return,
        };
        let idle_end = from + self.cycles.threshold;
        let spindown_end = idle_end + self.cycles.spin_down;
        self.segments.push_back((idle_end, DiskMode::Idle));
        self.segments.push_back((spindown_end, DiskMode::SpinDown));
        if sleeps {
            let standby_end = spindown_end + self.cycles.sleep_after;
            self.segments.push_back((standby_end, DiskMode::Standby));
        }
    }

    /// Finalizes accounting at `end_cycle` and produces the report.
    pub fn report(mut self, end_cycle: u64) -> DiskReport {
        self.sync_to(end_cycle);
        DiskReport {
            policy: self.config.policy,
            energy_j: self.energy_j,
            mode_secs: self.mode_secs,
            requests: self.requests,
            spindowns: self.spindowns,
            spinups: self.spinups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clk() -> Clocking {
        // 200 MHz, 1000x time compression: 1 paper second = 200k cycles.
        Clocking::scaled(200.0e6, 1_000.0)
    }

    fn cycles(clk: &Clocking, secs: f64) -> u64 {
        clk.paper_secs_to_cycles(secs)
    }

    #[test]
    fn conventional_disk_burns_active_power_while_idle() {
        let c = clk();
        let disk = Disk::new(DiskConfig::new(DiskPolicy::Conventional), c);
        let report = disk.report(cycles(&c, 10.0));
        // 10 s at 3.2 W.
        assert!(
            (report.energy_j - 32.0).abs() < 0.1,
            "got {}",
            report.energy_j
        );
    }

    #[test]
    fn idle_policy_burns_idle_power_when_quiet() {
        let c = clk();
        let disk = Disk::new(DiskConfig::new(DiskPolicy::IdleWhenNotBusy), c);
        let report = disk.report(cycles(&c, 10.0));
        assert!(
            (report.energy_j - 16.0).abs() < 0.1,
            "got {}",
            report.energy_j
        );
    }

    #[test]
    fn request_costs_more_than_idling() {
        let c = clk();
        let mut with_io = Disk::new(DiskConfig::new(DiskPolicy::IdleWhenNotBusy), c);
        let done = with_io.submit(0, 1024 * 1024);
        assert!(done > 0);
        let horizon = cycles(&c, 10.0);
        let busy_report = with_io.report(horizon);
        let quiet_report =
            Disk::new(DiskConfig::new(DiskPolicy::IdleWhenNotBusy), c).report(horizon);
        assert!(busy_report.energy_j > quiet_report.energy_j);
        assert_eq!(busy_report.requests, 1);
        assert!(busy_report.mode_secs[DiskMode::Seeking.index()] > 0.0);
    }

    #[test]
    fn standby_policy_spins_down_after_threshold() {
        let c = clk();
        let disk = Disk::new(DiskConfig::new(DiskPolicy::Standby { threshold_s: 2.0 }), c);
        // 2 s idle + 5 s spin-down (free) + 3 s standby.
        let report = disk.report(cycles(&c, 10.0));
        let expected = 2.0 * 1.6 + 5.0 * 0.0 + 3.0 * 0.35;
        assert!(
            (report.energy_j - expected).abs() < 0.05,
            "got {}",
            report.energy_j
        );
        assert_eq!(report.spindowns, 1);
        assert_eq!(report.spinups, 0);
    }

    #[test]
    fn request_from_standby_pays_spinup() {
        let c = clk();
        let mut disk = Disk::new(DiskConfig::new(DiskPolicy::Standby { threshold_s: 2.0 }), c);
        // Let it spin down fully (2 + 5 s), then request at t = 8 s.
        let t8 = cycles(&c, 8.0);
        let done = disk.submit(t8, 4096);
        let spinup_cycles = cycles(&c, 5.0);
        assert!(done >= t8 + spinup_cycles, "service must wait for spin-up");
        let report = disk.report(done);
        assert_eq!(report.spinups, 1);
        assert!(report.mode_secs[DiskMode::SpinUp.index()] > 4.9);
    }

    #[test]
    fn request_during_spindown_waits_out_the_spindown() {
        let c = clk();
        let mut disk = Disk::new(DiskConfig::new(DiskPolicy::Standby { threshold_s: 2.0 }), c);
        // Spin-down runs from t=2 s to t=7 s; request at t = 3 s.
        let t3 = cycles(&c, 3.0);
        let done = disk.submit(t3, 4096);
        // Must wait until 7 s, then spin up 5 s => completion after 12 s.
        assert!(done > cycles(&c, 12.0));
        let report = disk.report(done);
        assert_eq!(report.spindowns, 1);
        assert_eq!(report.spinups, 1);
    }

    #[test]
    fn activity_before_threshold_prevents_spindown() {
        let c = clk();
        let mut disk = Disk::new(DiskConfig::new(DiskPolicy::Standby { threshold_s: 2.0 }), c);
        // Request every second for 5 s: the 2 s threshold never elapses.
        let mut t = 0;
        for i in 0..5 {
            t = disk.submit(cycles(&c, i as f64), 4096).max(t);
        }
        let report = disk.report(cycles(&c, 5.5));
        assert_eq!(report.spindowns, 0);
        assert_eq!(report.spinups, 0);
    }

    #[test]
    fn requests_queue_fifo() {
        let c = clk();
        let mut disk = Disk::new(DiskConfig::new(DiskPolicy::IdleWhenNotBusy), c);
        let first = disk.submit(0, 1024 * 1024);
        let second = disk.submit(1, 1024 * 1024);
        assert!(second > first, "second request waits behind the first");
        let service = second - first;
        // Second service takes one full service time after the first.
        let expected = c.paper_secs_to_cycles(DiskTimings::default().service_secs(1024 * 1024));
        assert!((service as i64 - expected as i64).unsigned_abs() <= 2);
    }

    #[test]
    fn sleep_policy_reaches_the_floor_and_wakes_up() {
        let c = clk();
        let mut disk = Disk::new(
            DiskConfig::new(DiskPolicy::Sleep {
                threshold_s: 2.0,
                sleep_after_s: 3.0,
            }),
            c,
        );
        // 2s idle + 5s spindown + 3s standby => asleep from t=10s.
        disk.sync_to(cycles(&c, 20.0));
        assert_eq!(disk.mode(), DiskMode::Sleep);
        // A request from SLEEP pays the spin-up penalty like STANDBY.
        let t20 = cycles(&c, 20.0);
        let done = disk.submit(t20, 4096);
        assert!(done >= t20 + cycles(&c, 5.0));
        let report = disk.report(done);
        assert!(report.mode_secs[DiskMode::Sleep.index()] > 9.9);
        assert_eq!(report.spinups, 1);
    }

    #[test]
    fn sleep_policy_beats_standby_on_long_quiet_stretches() {
        let c = clk();
        let horizon = cycles(&c, 120.0);
        let standby =
            Disk::new(DiskConfig::new(DiskPolicy::Standby { threshold_s: 2.0 }), c).report(horizon);
        let sleep = Disk::new(
            DiskConfig::new(DiskPolicy::Sleep {
                threshold_s: 2.0,
                sleep_after_s: 5.0,
            }),
            c,
        )
        .report(horizon);
        // 0.15 W floor vs 0.35 W standby over ~110 quiet seconds.
        assert!(
            sleep.energy_j < standby.energy_j - 15.0,
            "sleep {} vs standby {}",
            sleep.energy_j,
            standby.energy_j
        );
    }

    #[test]
    fn longer_threshold_keeps_idle_power_longer() {
        let c = clk();
        let horizon = cycles(&c, 20.0);
        let short =
            Disk::new(DiskConfig::new(DiskPolicy::Standby { threshold_s: 2.0 }), c).report(horizon);
        let long =
            Disk::new(DiskConfig::new(DiskPolicy::Standby { threshold_s: 4.0 }), c).report(horizon);
        assert!(
            long.energy_j > short.energy_j,
            "longer threshold idles (1.6 W) longer before reaching standby (0.35 W)"
        );
    }

    #[test]
    #[should_panic(expected = "disk time cannot move backwards")]
    fn time_cannot_reverse() {
        let c = clk();
        let mut disk = Disk::new(DiskConfig::new(DiskPolicy::Conventional), c);
        disk.sync_to(100);
        disk.sync_to(50);
    }

    #[test]
    fn mode_seconds_sum_to_run_duration() {
        let c = clk();
        let mut disk = Disk::new(DiskConfig::new(DiskPolicy::Standby { threshold_s: 2.0 }), c);
        disk.submit(cycles(&c, 1.0), 256 * 1024);
        disk.submit(cycles(&c, 9.0), 64 * 1024);
        let horizon = cycles(&c, 30.0);
        let report = disk.report(horizon);
        let total: f64 = report.mode_secs.iter().sum();
        assert!((total - 30.0).abs() < 1e-6, "got {total}");
    }
}

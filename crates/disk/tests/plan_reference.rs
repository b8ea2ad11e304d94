//! The disk against a reference model kept here: the same state machine
//! with its plan in a `VecDeque`, each request's service time summed by
//! [`DiskTimings::service_secs`] and converted with libm's `round`. Over
//! seeded random request streams under all four policies, both give the
//! same completion cycles, gaps, totals, counts and, bit for bit, the same
//! energy and per-mode seconds.
//!
//! The streams mix repeated and changing request sizes, put idle stretches
//! on either side of each policy's threshold, spin-down and sleep delay,
//! and queue requests behind one in service through [`Disk::submit`], so
//! the disk's plan outgrows its inline entries and moves to the heap.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use softwatt_disk::{
    replay_requests, Disk, DiskConfig, DiskMode, DiskPolicy, DiskReport, DiskTimings,
};
use softwatt_stats::{Clocking, TraceRequest};

/// The reference disk.
struct Reference {
    config: DiskConfig,
    clocking: Clocking,
    now: u64,
    mode: DiskMode,
    plan: VecDeque<(u64, DiskMode)>,
    busy_until: u64,
    energy_j: f64,
    mode_secs: [f64; DiskMode::COUNT],
    requests: u64,
    spindowns: u64,
    spinups: u64,
}

fn to_cycles(clocking: &Clocking, secs: f64) -> u64 {
    if secs == 0.0 {
        return 0;
    }
    ((secs / clocking.scale() * clocking.hz()).round() as u64).max(1)
}

impl Reference {
    fn new(config: DiskConfig, clocking: Clocking) -> Reference {
        let mut disk = Reference {
            config,
            clocking,
            now: 0,
            mode: match config.policy {
                DiskPolicy::Conventional => DiskMode::Active,
                _ => DiskMode::Idle,
            },
            plan: VecDeque::new(),
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

    fn cycles(&self, secs: f64) -> u64 {
        to_cycles(&self.clocking, secs)
    }

    fn sync_to(&mut self, now: u64) {
        while let Some(&(end, mode)) = self.plan.front() {
            if end > now {
                self.accrue(mode, now);
                return;
            }
            self.accrue(mode, end);
            self.plan.pop_front();
            if mode == DiskMode::SpinDown {
                self.spindowns += 1;
            }
        }
        let terminal = match self.config.policy {
            DiskPolicy::Conventional => DiskMode::Active,
            DiskPolicy::IdleWhenNotBusy => DiskMode::Idle,
            DiskPolicy::Standby { .. } => DiskMode::Standby,
            DiskPolicy::Sleep { .. } => DiskMode::Sleep,
        };
        self.accrue(terminal, now);
    }

    fn accrue(&mut self, mode: DiskMode, until: u64) {
        let secs = self.clocking.cycles_to_paper_secs(until - self.now);
        self.energy_j += self.config.power.watts(mode) * secs;
        self.mode_secs[mode.index()] += secs;
        self.now = until;
        self.mode = mode;
    }

    fn submit(&mut self, now: u64, bytes: u64) -> u64 {
        self.sync_to(now);
        self.requests += 1;
        let start = if now < self.busy_until {
            while matches!(self.plan.back(), Some(&(end, _)) if end > self.busy_until) {
                self.plan.pop_back();
            }
            self.busy_until
        } else {
            match self.mode {
                DiskMode::Idle | DiskMode::Active | DiskMode::Seeking => {
                    self.plan.clear();
                    now
                }
                DiskMode::SpinDown => {
                    let spindown_end = self.plan.front().expect("mid-spindown").0;
                    self.plan.truncate(1);
                    self.push_spinup(spindown_end)
                }
                DiskMode::Standby | DiskMode::Sleep => {
                    self.plan.clear();
                    self.push_spinup(now)
                }
                DiskMode::SpinUp => unreachable!("spin-up only occurs while busy"),
            }
        };
        let seek_end = start + self.cycles(self.config.timings.seek_secs());
        let service = self.config.timings.service_secs(bytes);
        let complete = (start + self.cycles(service)).max(seek_end + 1);
        self.plan.push_back((seek_end, DiskMode::Seeking));
        self.plan.push_back((complete, DiskMode::Active));
        self.busy_until = complete;
        self.plan_tail(complete);
        complete
    }

    fn push_spinup(&mut self, at: u64) -> u64 {
        let end = at + self.cycles(self.config.timings.spin_up_s);
        self.plan.push_back((end, DiskMode::SpinUp));
        self.spinups += 1;
        end
    }

    fn plan_tail(&mut self, from: u64) {
        let (threshold_s, sleep_after_s) = match self.config.policy {
            DiskPolicy::Standby { threshold_s } => (threshold_s, None),
            DiskPolicy::Sleep {
                threshold_s,
                sleep_after_s,
            } => (threshold_s, Some(sleep_after_s)),
            DiskPolicy::Conventional | DiskPolicy::IdleWhenNotBusy => return,
        };
        let idle_end = from + self.cycles(threshold_s);
        let spindown_end = idle_end + self.cycles(self.config.timings.spin_down_s);
        self.plan.push_back((idle_end, DiskMode::Idle));
        self.plan.push_back((spindown_end, DiskMode::SpinDown));
        if let Some(sleep_after_s) = sleep_after_s {
            let standby_end = spindown_end + self.cycles(sleep_after_s);
            self.plan.push_back((standby_end, DiskMode::Standby));
        }
    }

    fn report(mut self, end_cycle: u64) -> DiskReport {
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

/// 133,333 1/3 cycles per paper second: every duration's conversion
/// rounds.
fn clk() -> Clocking {
    Clocking::scaled(200.0e6, 1_500.0)
}

fn random_policy(rng: &mut SmallRng) -> DiskPolicy {
    match rng.gen_range(0..4) {
        0 => DiskPolicy::Conventional,
        1 => DiskPolicy::IdleWhenNotBusy,
        2 => DiskPolicy::Standby {
            threshold_s: rng.gen_range(0.2..6.0),
        },
        _ => DiskPolicy::Sleep {
            threshold_s: rng.gen_range(0.2..6.0),
            sleep_after_s: rng.gen_range(0.5..10.0),
        },
    }
}

/// Random mechanical timings near the paper's, so the service time's
/// terms take other values than the defaults'.
fn random_timings(rng: &mut SmallRng) -> DiskTimings {
    DiskTimings {
        spin_up_s: rng.gen_range(0.5..6.0),
        spin_down_s: rng.gen_range(0.5..6.0),
        avg_seek_ms: rng.gen_range(0.0..20.0),
        avg_rotation_ms: rng.gen_range(0.0..8.0),
        transfer_mb_s: rng.gen_range(0.5..40.0),
    }
}

/// Cycles of an idle stretch: near one of the points where the disk
/// changes mode after a request (the threshold, the end of the spin-down,
/// the sleep command), on either side of it, or anywhere up to past all
/// of them.
fn random_stretch(rng: &mut SmallRng, config: &DiskConfig) -> u64 {
    let (threshold_s, sleep_after_s) = match config.policy {
        DiskPolicy::Standby { threshold_s } => (threshold_s, 0.0),
        DiskPolicy::Sleep {
            threshold_s,
            sleep_after_s,
        } => (threshold_s, sleep_after_s),
        _ => (2.0, 0.0),
    };
    let spin_down_s = config.timings.spin_down_s;
    let edges = [
        threshold_s,
        threshold_s + spin_down_s,
        threshold_s + spin_down_s + sleep_after_s,
    ];
    let secs = match rng.gen_range(0..4) {
        0 => rng.gen_range(0.0..1.2 * edges[2] + 1.0),
        1 => rng.gen_range(0.0..0.05),
        _ => (edges[rng.gen_range(0..3)] + rng.gen_range(-0.01..0.01)).max(0.0),
    };
    to_cycles(&clk(), secs) + rng.gen_range(0..3)
}

const SIZES: [u64; 7] = [0, 512, 4096, 8192, 16_384, 65_536, 1 << 20];

fn random_size(rng: &mut SmallRng, last: u64) -> u64 {
    if rng.gen_bool(0.6) {
        last
    } else {
        SIZES[rng.gen_range(0..SIZES.len())]
    }
}

fn assert_same_report(disk: &DiskReport, reference: &DiskReport, what: &str) {
    assert_eq!(
        disk.energy_j.to_bits(),
        reference.energy_j.to_bits(),
        "{what}"
    );
    assert_eq!(
        disk.mode_secs.map(f64::to_bits),
        reference.mode_secs.map(f64::to_bits),
        "{what}"
    );
    assert_eq!(
        (disk.requests, disk.spinups, disk.spindowns),
        (reference.requests, reference.spinups, reference.spindowns),
        "{what}"
    );
}

/// Request streams replayed as a trace's are: each submitted once the
/// previous one's gap has passed, and two requests at one work cycle
/// queue the second behind the first.
#[test]
fn replayed_streams_match_the_reference() {
    let mut rng = SmallRng::seed_from_u64(0xd15c_0001);
    for case in 0..1_500 {
        let config = DiskConfig {
            timings: random_timings(&mut rng),
            ..DiskConfig::new(random_policy(&mut rng))
        };
        let mut work_submit = 0;
        let mut bytes = 4096;
        let requests: Vec<TraceRequest> = (0..rng.gen_range(0..40))
            .map(|_| {
                if rng.gen_range(0..10) > 0 {
                    work_submit += random_stretch(&mut rng, &config);
                }
                bytes = random_size(&mut rng, bytes);
                TraceRequest { work_submit, bytes }
            })
            .collect();
        let work_cycles = work_submit + random_stretch(&mut rng, &config);
        let timeline = replay_requests(config, clk(), &requests, work_cycles);

        let mut reference = Reference::new(config, clk());
        let mut gaps = Vec::new();
        let mut cumulative_gap = 0;
        for r in &requests {
            let submit = r.work_submit + cumulative_gap;
            let done = reference.submit(submit, r.bytes);
            let gap = done.max(submit + 1) - (submit + 1);
            gaps.push(gap);
            cumulative_gap += gap;
        }
        let total_cycles = work_cycles + cumulative_gap;
        let what = format!("case {case}: {:?}", config.policy);
        assert_eq!(timeline.gaps, gaps, "{what}");
        assert_eq!(timeline.total_cycles, total_cycles, "{what}");
        assert_same_report(&timeline.report, &reference.report(total_cycles), &what);
    }
}

/// Requests submitted directly, often before the one in service
/// completes, so runs of queued requests grow the plan past its inline
/// entries; syncs between requests walk the plan part way.
#[test]
fn queued_streams_match_the_reference() {
    let mut rng = SmallRng::seed_from_u64(0xd15c_0002);
    let mut longest_queue = 0;
    for case in 0..1_500 {
        let config = DiskConfig {
            timings: random_timings(&mut rng),
            ..DiskConfig::new(random_policy(&mut rng))
        };
        let what = format!("case {case}: {:?}", config.policy);
        let mut disk = Disk::new(config, clk());
        let mut reference = Reference::new(config, clk());
        let (mut now, mut busy_until, mut bytes, mut queue) = (0, 0, 4096, 0);
        for _ in 0..rng.gen_range(0..60) {
            if now < busy_until && rng.gen_bool(0.7) {
                now += rng.gen_range(0..busy_until - now);
                queue += 1;
            } else {
                now = now.max(busy_until) + random_stretch(&mut rng, &config);
                queue = 0;
            }
            longest_queue = longest_queue.max(queue);
            if rng.gen_bool(0.2) {
                disk.sync_to(now);
                reference.sync_to(now);
                assert_eq!(disk.mode(), reference.mode, "{what}");
            }
            bytes = random_size(&mut rng, bytes);
            let done = disk.submit(now, bytes);
            assert_eq!(done, reference.submit(now, bytes), "{what}");
            busy_until = done;
        }
        let end = now.max(busy_until) + random_stretch(&mut rng, &config);
        assert_same_report(&disk.report(end), &reference.report(end), &what);
    }
    assert!(
        longest_queue >= 8,
        "no stream queued enough requests to outgrow the inline plan"
    );
}

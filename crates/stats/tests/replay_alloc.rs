//! What replaying a trace and collecting a log allocate depends on what
//! they keep, not on how many gaps a policy makes or which modes a window
//! leaves untouched:
//!
//! - `fast_replay` makes the same number of allocations however many of a
//!   trace's gaps are non-zero, because every gap's events go to one
//!   vector of gap rows sized once per log;
//! - a window keeps one row per mode it touched, so a block of
//!   single-mode windows holds about one row per window.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. The allocator is process-wide, so both checks run in one
//! test function: a second test running in parallel would pollute the
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

use softwatt_stats::{
    Clocking, EnergyWeights, Mode, PerfTrace, ServiceId, SimLog, StatsCollector, TraceRequest,
    UnitEvent,
};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

fn note(allocations: usize, bytes: isize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(allocations, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with the counters armed: its result, the allocations it made
/// and the bytes it left allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCATIONS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    )
}

/// A capture-shaped trace of `requests + 1` segments of user work.
fn trace(requests: usize) -> PerfTrace {
    let clocking = Clocking::default();
    let mut stats = StatsCollector::new(clocking, 100);
    let mut submits = Vec::new();
    for i in 0..=requests {
        stats.set_mode(Mode::User);
        stats.record_n(UnitEvent::AluOp, 50);
        stats.tick_n(250 + i as u64);
        if i < requests {
            // A zero-length gap closes the segment at the request.
            stats.skip_idle_gap(0, &[], ServiceId(1));
            submits.push(TraceRequest {
                work_submit: stats.work_cycle(),
                bytes: 4096,
            });
        }
    }
    let log: SimLog = stats.finish();
    let trace = PerfTrace {
        clocking,
        sample_interval: 100,
        segments: log.block().clone(),
        requests: submits,
        idle_rates: vec![(UnitEvent::IcacheAccess, 0.8), (UnitEvent::AluOp, 0.3)],
        work_services: Vec::new(),
        work_cycles: log.total_cycles(),
        committed: 0,
        user_instrs: 0,
    };
    trace.validate().expect("a capture-shaped trace");
    trace
}

#[test]
fn allocations_do_not_grow_with_gaps_or_untouched_modes() {
    // fast_replay: the same allocations for 1, 10 and 100 non-zero gaps.
    let trace = trace(100);
    let mut weights = EnergyWeights::zero();
    weights.per_event_j[UnitEvent::AluOp.index()] = 1.0e-9;
    let mut counts = Vec::new();
    for nonzero in [1usize, 10, 100] {
        let gaps: Vec<u64> = (0..100)
            .map(|i| {
                if i % (100 / nonzero) == 0 {
                    4321 + i as u64
                } else {
                    0
                }
            })
            .collect();
        assert_eq!(gaps.iter().filter(|&&g| g > 0).count(), nonzero);
        let ((log, _), allocations, _) =
            counted(|| trace.fast_replay(&gaps, weights.clone(), ServiceId(7)));
        let gap_runs = log
            .runs()
            .filter(|run| matches!(run, softwatt_stats::LogRun::IdleGap { .. }))
            .count();
        assert_eq!(gap_runs, nonzero);
        counts.push(allocations);
    }
    assert!(
        counts.iter().all(|&n| n == counts[0]),
        "fast_replay allocations for 1, 10 and 100 non-zero gaps: {counts:?}"
    );

    // The collector: a block of single-mode windows holds about one row
    // (288 bytes) per window, not one per mode.
    const WINDOWS: usize = 1024;
    let (log, _, bytes) = counted(|| {
        let mut stats = StatsCollector::new(Clocking::default(), 100);
        for i in 0..WINDOWS {
            stats.set_mode(Mode::ALL[i % Mode::COUNT]);
            stats.record_n(UnitEvent::AluOp, 3);
            stats.tick_n(100);
        }
        stats.finish()
    });
    assert_eq!(log.len(), WINDOWS);
    assert!(log.windows().all(|w| w.events.rows().count() == 1));
    let per_window = bytes as f64 / WINDOWS as f64;
    assert!(
        bytes <= (WINDOWS * 400) as isize,
        "a block of {WINDOWS} single-mode windows holds {bytes} bytes ({per_window:.0} per window)"
    );
    drop(log);
}

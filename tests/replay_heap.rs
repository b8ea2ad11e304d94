//! What a disk-policy result allocates once its policy-independent work
//! is shared:
//!
//! - a result whose gaps equal its trace's previous replay's (here the
//!   conventional disk after IDLE-when-not-busy: neither spins down, so
//!   every request blocks as long) shares that replay's runs, its memos
//!   and its power model's tables, and makes at most two allocations: the
//!   disk replay's gap vector and the service profiler's map;
//! - [`PowerModel::new`] with the parameters of the thread's last model
//!   allocates nothing and derives nothing;
//! - a result whose gaps differ writes its gap memo's windows into one
//!   allocation of their final size, beside the memo itself.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. The allocator is process-wide, so every check runs in one
//! test function: a second test running in parallel would pollute the
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use softwatt::{
    Benchmark, DiskConfig, DiskPolicy, IdleHandling, PowerModel, RunResult, Simulator, SystemConfig,
};
use softwatt_power::{ModePowerTable, PowerProfile};
use softwatt_stats::PerfTrace;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with the counter armed: its result and the allocations it
/// made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed))
}

fn config(policy: DiskPolicy) -> SystemConfig {
    SystemConfig {
        time_scale: 40_000.0,
        idle: IdleHandling::Analytic,
        disk: DiskConfig::new(policy),
        ..SystemConfig::default()
    }
}

/// One disk-policy result as a sweep takes it: the trace replayed through
/// the simulator, then post-processed by a model its caller builds.
fn result(trace: &PerfTrace, policy: DiskPolicy) -> (RunResult, ModePowerTable, PowerProfile) {
    let config = config(policy);
    let run = Simulator::new(config.clone())
        .expect("valid config")
        .replay_trace(trace);
    let model = PowerModel::new(&config.power_params());
    let table = model.mode_table(&run.log);
    let profile = model.profile(&run.log);
    (run, table, profile)
}

#[test]
fn a_shared_result_allocates_at_most_twice() {
    let (_, trace) = Simulator::new(config(DiskPolicy::IdleWhenNotBusy))
        .expect("valid config")
        .run_benchmark_traced(Benchmark::Jess);
    let first = result(&trace, DiskPolicy::IdleWhenNotBusy);
    let (second, allocations) = counted(|| result(&trace, DiskPolicy::Conventional));
    assert_eq!(
        second.0.log, first.0.log,
        "the two policies' gaps are equal"
    );
    assert!(second.0.disk.energy_j > first.0.disk.energy_j);
    assert!(
        allocations <= 2,
        "a shared result made {allocations} allocations"
    );

    let params = config(DiskPolicy::Conventional).power_params();
    let last = PowerModel::new(&params);
    softwatt_obs::set_enabled(true);
    let counter = |name| softwatt_obs::registry::counter(name).get();
    let before = (
        counter("power.model_derivations"),
        counter("power.model_reuses"),
    );
    let (again, allocations) = counted(|| PowerModel::new(&params));
    let after = (
        counter("power.model_derivations"),
        counter("power.model_reuses"),
    );
    softwatt_obs::set_enabled(false);
    assert_eq!(allocations, 0, "a model equal to the last one allocated");
    assert!(
        std::ptr::eq(again.clock(), last.clock()),
        "the model shares its tables"
    );
    assert_eq!(after, (before.0, before.1 + 1), "one reuse, no derivation");

    // Standby after 0.5 s spins down between requests: other gaps.
    let policy = DiskPolicy::Standby { threshold_s: 0.5 };
    let config = config(policy);
    let run = Simulator::new(config.clone())
        .expect("valid config")
        .replay_trace(&trace);
    assert!(run.log.gap_count() > 0);
    assert_ne!(run.log, first.0.log);
    let model = PowerModel::new(&config.power_params());
    let (_, allocations) = counted(|| model.mode_table(&run.log));
    assert_eq!(
        allocations, 2,
        "the gap memo and its one slice of gap windows"
    );
}

//! Observability substrate for the SoftWatt simulator (`softwatt-obs`).
//!
//! SoftWatt's methodology is post-processing sampled logs into power
//! numbers; this crate gives the *simulator itself* the same treatment: a
//! process-wide metric registry ([`Counter`]s, [`Gauge`]s, log-2-bucket
//! [`Histogram`]s), RAII timing [`Span`]s, a leveled structured event log,
//! and a stable JSON export (`softwatt-obs-v1`) consumed by every binary's
//! `--metrics-out` flag.
//!
//! # Disabled-by-default, and why that must stay ~free
//!
//! All recording entry points check one process-wide flag first
//! ([`enabled`], a relaxed atomic load). The workspace's performance
//! records — the repository benchmark's untraced runs (`BENCHMARK.json`)
//! and the perf canary test — run with observability *disabled*, so the
//! disabled path is required to cost no more than a predictable branch.
//! Instrumentation therefore lives at window/request/run granularity,
//! never per simulated cycle: even a switched-off check inside the cycle
//! loop costs measurable time there.
//!
//! # Examples
//!
//! ```
//! softwatt_obs::set_enabled(true);
//! softwatt_obs::count("demo.widgets", 3);
//! {
//!     let _span = softwatt_obs::span("demo.work_ns");
//!     // ... timed scope ...
//! }
//! let json = softwatt_obs::to_json();
//! assert!(json.contains("\"demo.widgets\": 3"));
//! # softwatt_obs::set_enabled(false);
//! # softwatt_obs::reset_metrics();
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

mod event;
mod json;
pub mod registry;
mod span;

pub use event::{event, event_enabled, log_level, set_log_level, Level};
pub use json::{summary_table, to_json, SCHEMA};
pub use registry::{reset_metrics, Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use span::Span;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether metric recording is on. A single relaxed load: the whole cost
/// of every instrumentation point while disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Adds `n` to the counter `name`. No-op (one load, one branch) while
/// disabled.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        registry::counter(name).add(n);
    }
}

/// Sets the gauge `name`. No-op while disabled.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if enabled() {
        registry::gauge(name).set(value);
    }
}

/// Raises the gauge `name` to `value` if above its current reading — a
/// high-water mark (peak queue depth, max in-flight). No-op while
/// disabled.
#[inline]
pub fn gauge_raise(name: &'static str, value: f64) {
    if enabled() {
        registry::gauge(name).raise(value);
    }
}

/// Records one observation in the histogram `name`. No-op while disabled.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        registry::histogram(name).observe(value);
    }
}

/// Starts a timing span that records elapsed nanoseconds into the
/// histogram `name` when dropped. While disabled the span holds no clock
/// and its drop is free.
#[inline]
pub fn span(name: &'static str) -> Span {
    if enabled() {
        Span::start(name)
    } else {
        Span::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The registry and enabled flag are process-global; tests that touch
    // them serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        reset_metrics();
        count("test.disabled", 5);
        observe("test.disabled_h", 5);
        gauge_set("test.disabled_g", 5.0);
        assert!(span("test.disabled_ns").finish().is_none());
        // Nothing above registered or recorded anything.
        let json = to_json();
        assert!(!json.contains("test.disabled"), "{json}");
    }

    #[test]
    fn enabled_recording_lands_in_the_registry() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset_metrics();
        count("test.counter", 2);
        count("test.counter", 3);
        gauge_set("test.gauge", 1.25);
        observe("test.histogram", 7);
        let elapsed = span("test.span_ns").finish();
        assert!(elapsed.is_some());
        assert_eq!(registry::counter("test.counter").get(), 5);
        assert_eq!(registry::gauge("test.gauge").get(), 1.25);
        assert_eq!(registry::histogram("test.histogram").sum(), 7);
        assert_eq!(registry::histogram("test.span_ns").count(), 1);
        set_enabled(false);
        reset_metrics();
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        count("test.reset", 9);
        reset_metrics();
        assert_eq!(registry::counter("test.reset").get(), 0);
        assert!(to_json().contains("\"test.reset\": 0"));
        set_enabled(false);
        reset_metrics();
    }

    #[test]
    fn level_parsing_round_trips() {
        assert_eq!(Level::parse("off"), Some(None));
        assert_eq!(Level::parse("debug"), Some(Some(Level::Debug)));
        assert_eq!(Level::parse("bogus"), None);
        for level in Level::ALL {
            assert!(Level::Error <= level);
        }
    }
}

//! Statistics substrate for the SoftWatt full-system power simulator.
//!
//! SoftWatt (Gurumurthi et al., HPCA 2002) computes power by *post-processing*
//! sampled simulation logs rather than evaluating power models on every cycle.
//! This crate provides the pieces that make that methodology work:
//!
//! - [`UnitEvent`]: the fixed vocabulary of per-component hardware events the
//!   machine models report (cache accesses, ALU operations, issue-window
//!   wakeups, ...). Power models assign an energy to each event.
//! - [`Mode`]: the four software execution modes the paper attributes every
//!   cycle to (user, kernel, kernel synchronization, idle).
//! - [`StatsCollector`]: the per-simulation sink. It buckets event counts by
//!   the current [`Mode`], advances the cycle clock, and periodically emits
//!   delta [`Sample`]s into a [`SimLog`] — the "simulation log file" of the
//!   paper's post-processing pipeline.
//! - [`ServiceProfiler`] (inside the collector): a timing-tree-style
//!   attribution stack that accrues cycles, events, and a weighted energy
//!   proxy to individual kernel-service invocations, enabling the paper's
//!   Table 4 (per-service cycle/energy shares) and Table 5 (per-invocation
//!   energy variation) analyses.
//! - [`Clocking`]: cycle/time conversion including the repository's
//!   `time_scale` substitution (see `DESIGN.md` §2) that shrinks wall-clock
//!   durations while preserving all relative dynamics.
//!
//! # Examples
//!
//! ```
//! use softwatt_stats::{Clocking, Mode, StatsCollector, UnitEvent};
//!
//! let mut stats = StatsCollector::new(Clocking::full_speed(200.0e6), 1_000);
//! stats.set_mode(Mode::User);
//! stats.record(UnitEvent::IcacheAccess);
//! stats.record_n(UnitEvent::AluOp, 2);
//! stats.tick();
//! assert_eq!(stats.cycle(), 1);
//! assert_eq!(stats.totals().mode(Mode::User).get(UnitEvent::AluOp), 2);
//! ```

pub mod clocking;
pub mod counters;
pub mod event;
pub mod hash;
pub mod log;
pub mod mode;
pub mod replay;
pub mod segments;
pub mod service;
pub mod swtrace;
pub mod trace;
pub mod varint;

mod collector;

pub use clocking::Clocking;
pub use collector::StatsCollector;
pub use counters::{CounterSet, ModeCounters, ModeEvents, ModeRows};
pub use event::UnitEvent;
pub use log::{LogRun, RunWindows, Sample, SimLog, Window};
pub use mode::Mode;
pub use segments::{Memo, Segments};
pub use service::{EnergyWeights, InvocationRecord, ServiceAggregate, ServiceId, ServiceProfiler};
pub use trace::{PerfTrace, TraceRequest};

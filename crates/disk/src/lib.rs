//! Disk models for the SoftWatt full-system simulator.
//!
//! SimOS shipped an HP97560 model with no low-power modes; the paper layered
//! a Toshiba MK3003MAN-like model on top, with the operating-mode state
//! machine and power values of its Figure 2:
//!
//! | Mode     | Power (W) |
//! |----------|-----------|
//! | Sleep    | 0.15      |
//! | Standby  | 0.35      |
//! | Idle     | 1.6       |
//! | Active   | 3.2       |
//! | Seeking  | 4.1       |
//! | Spin-up  | 4.2       |
//!
//! and the paper's simplifying assumptions: spin-up and spin-down take the
//! same time (5 s), spin-down consumes no power, and the ACTIVE→IDLE
//! transition is free and instantaneous. Every request is charged the flat
//! average mechanical timings of [`DiskTimings`].
//!
//! Four [`DiskPolicy`] configurations reproduce Section 4's study:
//! conventional (always spinning at ACTIVE power), IDLE-when-not-busy, and
//! STANDBY spin-down with a 2 s or 4 s threshold. None of them enters
//! SLEEP; only the [`DiskPolicy::Sleep`] extension (harness X4) does.
//!
//! Unlike every other component, disk **energy is integrated online** during
//! the simulation (the paper's one exception to post-processing), because
//! mode transitions depend on request timing. All durations are paper-time
//! seconds converted through [`softwatt_stats::Clocking`], so the time-scale
//! substitution preserves spin-down dynamics (see `DESIGN.md` §2).
//!
//! # Examples
//!
//! ```
//! use softwatt_disk::{Disk, DiskConfig, DiskPolicy};
//! use softwatt_stats::Clocking;
//!
//! let clk = Clocking::scaled(200.0e6, 1_000.0);
//! let mut disk = Disk::new(DiskConfig::new(DiskPolicy::IdleWhenNotBusy), clk);
//! let done = disk.submit(0, 64 * 1024);
//! disk.sync_to(done);
//! assert!(disk.energy_j() > 0.0);
//! ```

pub mod model;
pub mod power;
pub mod replay;
pub mod timings;

pub use model::{Disk, DiskConfig, DiskPolicy, DiskReport};
pub use power::{DiskMode, DiskPowerTable};
pub use replay::{replay_requests, ReplayTimeline};
pub use timings::DiskTimings;

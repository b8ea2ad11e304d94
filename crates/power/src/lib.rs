//! Analytical power models and log post-processing for SoftWatt.
//!
//! SoftWatt attaches *validated analytical energy models* to the machine
//! simulation and computes power by post-processing sampled logs. This
//! crate implements the same model families the paper cites:
//!
//! - **Caches** — a Kamble–Ghose-style analytical SRAM model (ref. 17 in
//!   the paper), as packaged by Wattch (ref. 4): per-access energy from bitline,
//!   wordline, decoder, sense-amp, tag-compare, and output components
//!   derived from the cache geometry.
//! - **Associative/array structures** — Wattch-style RAM/CAM models
//!   (refs. 25, 4): register file, rename table, issue window (CAM wakeup +
//!   RAM), load/store queue, branch predictor tables, and the TLB.
//! - **Clock generation and distribution** — a Duarte-style model (ref. 9): a
//!   global H-tree plus per-domain clocked loads that are conditionally
//!   gated by unit activity (the paper's "simple conditional clocking
//!   model": a unit burns full power when any port is accessed, none
//!   otherwise).
//! - **Functional units and result bus** — per-operation effective
//!   capacitances.
//! - **DRAM** — a per-access energy constant for the 128 MB main memory.
//!
//! All models are evaluated at the paper's Table 1 technology point:
//! 0.35 µm, 3.3 V, 200 MHz.
//!
//! # Validation
//!
//! The paper validates the CPU model by configuring maximum activity and
//! comparing against the MIPS R10000 data sheet: 25.3 W modeled against
//! 30 W reported. [`PowerModel::max_power`] reproduces that experiment;
//! `EXPERIMENTS.md` records our number next to the paper's.
//!
//! # Examples
//!
//! ```
//! use softwatt_power::{PowerModel, PowerParams};
//!
//! let model = PowerModel::new(&PowerParams::default());
//! let max = model.max_power();
//! // The validation band around the paper's 25.3 W estimate.
//! assert!(max.total() > 15.0 && max.total() < 35.0);
//! ```

pub mod array;
pub mod cache;
pub mod clock;
pub mod group;
pub mod model;
pub mod post;
pub mod tech;
pub mod units;

pub use clock::ClockModel;
pub use group::{GroupPower, UnitGroup};
pub use model::{ClockGating, PowerModel, PowerParams};
pub use post::{ModePowerTable, PowerProfile, ProfilePoint};
pub use tech::TechParams;

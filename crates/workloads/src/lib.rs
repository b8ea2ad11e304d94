//! SPEC JVM98-like synthetic workloads for the SoftWatt simulator.
//!
//! The paper characterizes six SPEC JVM98 benchmarks (`compress`, `jess`,
//! `db`, `javac`, `mtrt`, `jack`; `mpegaudio` excluded as in the paper)
//! running under a JIT-ing JVM on IRIX. Since the original binaries cannot
//! be executed here, each benchmark is a *phase-structured synthetic
//! generator* calibrated on the paper's **cycle-side** observables only
//! (`DESIGN.md` §6):
//!
//! - a **class-loading prologue**: `open`/`read` system calls against cold
//!   files, reproducing the idle-heavy start and cold-cache memory-power
//!   spike of Figures 3/4;
//! - a **steady phase** with a benchmark-specific instruction mix,
//!   dependence density (ILP), branch stability, and data working set —
//!   the knobs behind Table 3's per-mode cache-reference rates and
//!   Table 2's mode mix (working sets beyond the 64-entry TLB reach drive
//!   the `utlb` rates of Table 4);
//! - **GC bursts** with pointer-chasing behavior and fresh page touches
//!   (feeding `demand_zero`);
//! - low-rate steady system calls (`read`, `write`, `xstat`, `du_poll`,
//!   `BSD`) in each benchmark's Table 4 proportions, plus JIT-driven
//!   `cacheflush` pressure;
//! - **timed I/O bursts** against cold files, placed in paper-time seconds
//!   so Figure 9's spin-down threshold crossovers (2 s vs 4 s) play out
//!   exactly as in the paper.
//!
//! # Examples
//!
//! ```
//! use softwatt_stats::{Clocking, StatsCollector};
//! use softwatt_isa::InstrSource;
//! use softwatt_workloads::Benchmark;
//!
//! let clk = Clocking::scaled(200.0e6, 4_000.0);
//! let mut w = Benchmark::Jess.workload(clk, 42);
//! let mut stats = StatsCollector::new(clk, 10_000);
//! let first = w.next_instr(&mut stats);
//! assert!(first.is_some());
//! ```

pub mod benchmarks;
pub mod spec;
pub mod workload;

pub use benchmarks::Benchmark;
pub use spec::{BenchmarkSpec, IoBurst, PhaseSpec, SyscallRates};
pub use workload::Workload;

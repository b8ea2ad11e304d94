//! The six SPEC JVM98-like benchmark specifications.
//!
//! Every number here is a *cycle-side* calibration target taken from the
//! paper's Tables 2–4 and Figure 9 narrative (`DESIGN.md` §6):
//!
//! - kernel-cycle share is tuned through the data working set (`span`
//!   beyond the 256 KiB TLB reach drives `utlb`);
//! - instruction mixes reflect each benchmark's character (e.g. `mtrt`
//!   ray-tracing floating point, `db`'s load-heavy index probing, `jess`'s
//!   pointer-chasing rule matching);
//! - steady system-call rates follow each benchmark's Table 4 service mix
//!   (`jack`'s heavy `read` traffic, `db`'s `du_poll`, `javac`'s `xstat`,
//!   `jess`/`jack`'s `BSD` calls);
//! - timed I/O bursts reproduce the Figure 9 spin-down story: `compress`
//!   and `javac` have inter-burst gaps between 2 s and 4 s (spin-down
//!   thrashing at the 2 s threshold, quiet at 4 s), `mtrt` has two gaps
//!   beyond 4 s (spins down under both thresholds — and *spends more
//!   energy at 4 s* because it idles longer before spinning down), `jack`
//!   mixes both gap kinds, and `jess`/`db` are too short to matter.

use softwatt_stats::Clocking;

use crate::spec::{BenchmarkSpec, IoBurst, PhaseSpec, SyscallRates};
use crate::workload::Workload;

/// The characterized benchmarks (SPEC JVM98 minus `mpegaudio`, which the
/// paper excluded because it failed under MXS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// LZW compression (integer, long-running).
    Compress,
    /// Expert-system shell (pointer-chasing, OS-intensive, short).
    Jess,
    /// In-memory database (load-heavy, short).
    Db,
    /// The JDK Java compiler (allocation-heavy).
    Javac,
    /// Multithreaded ray tracer (floating-point).
    Mtrt,
    /// Parser generator (I/O-intensive).
    Jack,
}

impl Benchmark {
    /// All benchmarks in the paper's table order.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::Compress,
        Benchmark::Jess,
        Benchmark::Db,
        Benchmark::Javac,
        Benchmark::Mtrt,
        Benchmark::Jack,
    ];

    /// Paper-style lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Compress => "compress",
            Benchmark::Jess => "jess",
            Benchmark::Db => "db",
            Benchmark::Javac => "javac",
            Benchmark::Mtrt => "mtrt",
            Benchmark::Jack => "jack",
        }
    }

    /// Parses a paper-style name.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// Builds the benchmark's specification.
    pub fn spec(self) -> BenchmarkSpec {
        match self {
            Benchmark::Compress => compress(),
            Benchmark::Jess => jess(),
            Benchmark::Db => db(),
            Benchmark::Javac => javac(),
            Benchmark::Mtrt => mtrt(),
            Benchmark::Jack => jack(),
        }
    }

    /// Instantiates the workload generator.
    pub fn workload(self, clocking: Clocking, seed: u64) -> Workload {
        Workload::new(self.spec(), clocking, seed)
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Common three-phase skeleton: startup mix, steady mix, GC bursts.
#[allow(clippy::too_many_arguments)]
fn phases(steady: PhaseSpec, startup_frac: f64, gc_frac: f64, gc_span: u64) -> Vec<PhaseSpec> {
    let startup = PhaseSpec {
        name: "startup".into(),
        frac: startup_frac,
        load: 0.24,
        store: 0.08,
        branch: 0.17,
        fp: 0.0,
        mul: 0.01,
        dep_prob: 0.4,
        branch_stability: 0.88,
        hot_bytes: 16 * 1024,
        span_bytes: 320 * 1024,
        hot_frac: 0.975,
        loop_len: 48,
        n_loops: 6,
        stay_per_loop: 512,
        syscalls: SyscallRates::default(),
        fresh_per_kinstr: 0.0,
    };
    let gc = PhaseSpec {
        name: "gc".into(),
        frac: gc_frac,
        load: 0.32,
        store: 0.12,
        branch: 0.16,
        fp: 0.0,
        mul: 0.0,
        dep_prob: 0.50,
        branch_stability: 0.92,
        hot_bytes: 16 * 1024,
        span_bytes: gc_span,
        hot_frac: 0.96,
        loop_len: 40,
        n_loops: 4,
        stay_per_loop: 2048,
        syscalls: SyscallRates::default(),
        fresh_per_kinstr: 0.12,
    };
    let steady = PhaseSpec {
        frac: 1.0 - startup_frac - gc_frac,
        ..steady
    };
    vec![startup, steady, gc]
}

fn compress() -> BenchmarkSpec {
    let steady = PhaseSpec {
        name: "steady".into(),
        frac: 0.0, // filled by `phases`
        load: 0.27,
        store: 0.10,
        branch: 0.14,
        fp: 0.005,
        mul: 0.01,
        dep_prob: 0.25,
        branch_stability: 0.978,
        hot_bytes: 20 * 1024,
        span_bytes: 512 * 1024,
        hot_frac: 0.9955,
        loop_len: 96,
        n_loops: 4,
        stay_per_loop: 8192,
        syscalls: SyscallRates {
            read: 0.0015,
            write: 0.003,
            io_bytes_mean: 4096,
            ..SyscallRates::default()
        },
        fresh_per_kinstr: 0.012,
    };
    BenchmarkSpec {
        name: "compress".into(),
        duration_s: 20.0,
        assumed_ipc: 1.7,
        class_files: 22,
        class_file_bytes: 2 * 1024,
        startup_compute_frac: 0.05,
        cacheflush_per_kinstr: 0.0012,
        phases: phases(steady, 0.05, 0.05, 640 * 1024),
        io_bursts: vec![
            IoBurst {
                at_s: 3.2,
                files: 3,
                bytes_per_file: 8 * 1024,
            },
            IoBurst {
                at_s: 6.0,
                files: 3,
                bytes_per_file: 8 * 1024,
            },
            IoBurst {
                at_s: 8.8,
                files: 3,
                bytes_per_file: 8 * 1024,
            },
            IoBurst {
                at_s: 11.6,
                files: 2,
                bytes_per_file: 8 * 1024,
            },
            IoBurst {
                at_s: 14.4,
                files: 2,
                bytes_per_file: 8 * 1024,
            },
            IoBurst {
                at_s: 17.2,
                files: 2,
                bytes_per_file: 8 * 1024,
            },
            IoBurst {
                at_s: 20.0,
                files: 2,
                bytes_per_file: 8 * 1024,
            },
        ],
    }
}

fn jess() -> BenchmarkSpec {
    let steady = PhaseSpec {
        name: "steady".into(),
        frac: 0.0,
        load: 0.28,
        store: 0.07,
        branch: 0.19,
        fp: 0.005,
        mul: 0.005,
        dep_prob: 0.31,
        branch_stability: 0.968,
        hot_bytes: 16 * 1024,
        span_bytes: 640 * 1024,
        hot_frac: 0.958,
        loop_len: 56,
        n_loops: 10,
        stay_per_loop: 1024,
        syscalls: SyscallRates {
            read: 0.006,
            open: 0.0002,
            bsd: 0.007,
            io_bytes_mean: 2048,
            ..SyscallRates::default()
        },
        fresh_per_kinstr: 0.02,
    };
    BenchmarkSpec {
        name: "jess".into(),
        duration_s: 4.0,
        assumed_ipc: 0.95,
        class_files: 30,
        class_file_bytes: 2 * 1024,
        startup_compute_frac: 0.09,
        cacheflush_per_kinstr: 0.0050,
        phases: phases(steady, 0.10, 0.08, 576 * 1024),
        io_bursts: vec![],
    }
}

fn db() -> BenchmarkSpec {
    let steady = PhaseSpec {
        name: "steady".into(),
        frac: 0.0,
        load: 0.33,
        store: 0.06,
        branch: 0.17,
        fp: 0.0,
        mul: 0.005,
        dep_prob: 0.31,
        branch_stability: 0.968,
        hot_bytes: 16 * 1024,
        span_bytes: 704 * 1024,
        hot_frac: 0.970,
        loop_len: 64,
        n_loops: 6,
        stay_per_loop: 2048,
        syscalls: SyscallRates {
            read: 0.003,
            write: 0.005,
            du_poll: 0.002,
            io_bytes_mean: 3072,
            ..SyscallRates::default()
        },
        fresh_per_kinstr: 0.02,
    };
    BenchmarkSpec {
        name: "db".into(),
        duration_s: 4.5,
        assumed_ipc: 0.95,
        class_files: 18,
        class_file_bytes: 2 * 1024,
        startup_compute_frac: 0.07,
        cacheflush_per_kinstr: 0.0024,
        phases: phases(steady, 0.08, 0.07, 576 * 1024),
        io_bursts: vec![],
    }
}

fn javac() -> BenchmarkSpec {
    let steady = PhaseSpec {
        name: "steady".into(),
        frac: 0.0,
        load: 0.29,
        store: 0.10,
        branch: 0.18,
        fp: 0.0,
        mul: 0.005,
        dep_prob: 0.32,
        branch_stability: 0.966,
        hot_bytes: 16 * 1024,
        span_bytes: 768 * 1024,
        hot_frac: 0.964,
        loop_len: 48,
        n_loops: 12,
        stay_per_loop: 1024,
        syscalls: SyscallRates {
            read: 0.0022,
            write: 0.002,
            open: 0.00015,
            xstat: 0.0006,
            io_bytes_mean: 4096,
            ..SyscallRates::default()
        },
        fresh_per_kinstr: 0.02,
    };
    BenchmarkSpec {
        name: "javac".into(),
        duration_s: 9.0,
        assumed_ipc: 1.5,
        class_files: 28,
        class_file_bytes: 2 * 1024,
        startup_compute_frac: 0.06,
        cacheflush_per_kinstr: 0.0040,
        phases: phases(steady, 0.06, 0.12, 640 * 1024),
        io_bursts: vec![
            IoBurst {
                at_s: 2.6,
                files: 3,
                bytes_per_file: 8 * 1024,
            },
            IoBurst {
                at_s: 5.6,
                files: 3,
                bytes_per_file: 8 * 1024,
            },
            IoBurst {
                at_s: 8.4,
                files: 2,
                bytes_per_file: 8 * 1024,
            },
        ],
    }
}

fn mtrt() -> BenchmarkSpec {
    let steady = PhaseSpec {
        name: "steady".into(),
        frac: 0.0,
        load: 0.27,
        store: 0.07,
        branch: 0.13,
        fp: 0.17,
        mul: 0.01,
        dep_prob: 0.27,
        branch_stability: 0.975,
        hot_bytes: 20 * 1024,
        span_bytes: 576 * 1024,
        hot_frac: 0.990,
        loop_len: 80,
        n_loops: 5,
        stay_per_loop: 4096,
        syscalls: SyscallRates {
            read: 0.0015,
            write: 0.003,
            io_bytes_mean: 2048,
            ..SyscallRates::default()
        },
        fresh_per_kinstr: 0.02,
    };
    BenchmarkSpec {
        name: "mtrt".into(),
        duration_s: 13.0,
        assumed_ipc: 1.6,
        class_files: 20,
        class_file_bytes: 2 * 1024,
        startup_compute_frac: 0.07,
        cacheflush_per_kinstr: 0.0020,
        phases: phases(steady, 0.05, 0.06, 512 * 1024),
        io_bursts: vec![
            IoBurst {
                at_s: 2.6,
                files: 3,
                bytes_per_file: 8 * 1024,
            },
            IoBurst {
                at_s: 12.0,
                files: 3,
                bytes_per_file: 8 * 1024,
            },
        ],
    }
}

fn jack() -> BenchmarkSpec {
    let steady = PhaseSpec {
        name: "steady".into(),
        frac: 0.0,
        load: 0.26,
        store: 0.08,
        branch: 0.19,
        fp: 0.0,
        mul: 0.005,
        dep_prob: 0.32,
        branch_stability: 0.966,
        hot_bytes: 16 * 1024,
        span_bytes: 704 * 1024,
        hot_frac: 0.964,
        loop_len: 48,
        n_loops: 10,
        stay_per_loop: 1024,
        syscalls: SyscallRates {
            read: 0.013,
            bsd: 0.005,
            io_bytes_mean: 3072,
            ..SyscallRates::default()
        },
        fresh_per_kinstr: 0.02,
    };
    BenchmarkSpec {
        name: "jack".into(),
        duration_s: 16.0,
        assumed_ipc: 1.5,
        class_files: 24,
        class_file_bytes: 2 * 1024,
        startup_compute_frac: 0.09,
        cacheflush_per_kinstr: 0.0016,
        phases: phases(steady, 0.05, 0.05, 576 * 1024),
        io_bursts: vec![
            IoBurst {
                at_s: 2.4,
                files: 3,
                bytes_per_file: 8 * 1024,
            },
            IoBurst {
                at_s: 5.6,
                files: 3,
                bytes_per_file: 8 * 1024,
            },
            IoBurst {
                at_s: 22.0,
                files: 3,
                bytes_per_file: 8 * 1024,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_validates() {
        for b in Benchmark::ALL {
            b.spec()
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        }
    }

    #[test]
    fn names_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(
            Benchmark::from_name("mpegaudio"),
            None,
            "excluded, as in the paper"
        );
    }

    #[test]
    fn canned_and_inline_specs_agree() {
        let clk = Clocking::scaled(200.0e6, 8000.0);
        for b in Benchmark::ALL {
            let spec = b.spec();
            assert_eq!(spec.name, b.name(), "a canned spec carries its name");
            assert_eq!(
                b.workload(clk, 3).budget(),
                Workload::new(spec, clk, 3).budget()
            );
        }
    }

    #[test]
    fn jess_and_db_are_the_short_benchmarks() {
        // Figure 9: "jess and db are unaffected by configuration 3 because
        // of their short running times".
        let durations: Vec<(f64, &str)> = Benchmark::ALL
            .iter()
            .map(|b| (b.spec().duration_s, b.name()))
            .collect();
        for (d, name) in &durations {
            if *name == "jess" || *name == "db" {
                assert!(*d <= 5.0, "{name} must be short");
                continue;
            }
            assert!(
                *d >= 8.0,
                "{name} must be long enough for spin-down dynamics"
            );
        }
    }

    #[test]
    fn short_benchmarks_have_no_midrun_bursts() {
        assert!(Benchmark::Jess.spec().io_bursts.is_empty());
        assert!(Benchmark::Db.spec().io_bursts.is_empty());
    }

    #[test]
    fn compress_and_javac_gaps_sit_between_thresholds() {
        for b in [Benchmark::Compress, Benchmark::Javac] {
            let spec = b.spec();
            let mut prev = None;
            for burst in &spec.io_bursts {
                if let Some(p) = prev {
                    let gap: f64 = burst.at_s - p;
                    assert!(
                        gap > 2.0 && gap < 4.0,
                        "{}: gap {gap} must straddle the 2s/4s thresholds",
                        spec.name
                    );
                }
                prev = Some(burst.at_s);
            }
        }
    }

    #[test]
    fn mtrt_gap_exceeds_both_thresholds() {
        let spec = Benchmark::Mtrt.spec();
        let gap = spec.io_bursts[1].at_s - spec.io_bursts[0].at_s;
        assert!(
            gap > 4.0,
            "mtrt spins down under both thresholds (gap {gap})"
        );
    }

    #[test]
    fn jack_mixes_gap_kinds() {
        let spec = Benchmark::Jack.spec();
        let gaps: Vec<f64> = spec
            .io_bursts
            .windows(2)
            .map(|w| w[1].at_s - w[0].at_s)
            .collect();
        assert!(gaps.iter().any(|g| *g > 2.0 && *g < 4.0));
        assert!(gaps.iter().any(|g| *g > 4.0));
    }

    #[test]
    fn mtrt_is_the_floating_point_benchmark() {
        for b in Benchmark::ALL {
            let spec = b.spec();
            let steady = spec.phases.iter().find(|p| p.name == "steady").unwrap();
            if b == Benchmark::Mtrt {
                assert!(steady.fp > 0.1);
            } else {
                assert!(steady.fp < 0.05);
            }
        }
    }

    #[test]
    fn working_sets_exceed_tlb_reach() {
        // 64 entries x 4 KiB pages = 256 KiB reach; every steady phase must
        // exceed it so utlb dominates kernel time (Table 4).
        for b in Benchmark::ALL {
            let spec = b.spec();
            let steady = spec.phases.iter().find(|p| p.name == "steady").unwrap();
            assert!(steady.span_bytes > 256 * 1024, "{}", b.name());
        }
    }

    #[test]
    fn workloads_instantiate() {
        let clk = Clocking::scaled(200.0e6, 8000.0);
        for b in Benchmark::ALL {
            let w = b.workload(clk, 1);
            assert!(w.budget() > 10_000, "{}", b.name());
        }
    }
}

//! The whole-system configuration (paper Table 1 by default).

use softwatt_cpu::{MipsyConfig, MxsConfig};
use softwatt_disk::{DiskConfig, DiskPolicy};
use softwatt_mem::MemConfig;
use softwatt_os::OsConfig;
use softwatt_power::PowerParams;
use softwatt_stats::Clocking;

/// Which CPU timing model to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuModel {
    /// The in-order R4000-like model (memory-system profiles, Figure 3).
    Mipsy,
    /// The 4-wide out-of-order R10000-like model (everything else).
    Mxs,
    /// MXS narrowed to single issue (Figure 3's third panel).
    MxsSingleIssue,
}

impl CpuModel {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CpuModel::Mipsy => "mipsy",
            CpuModel::Mxs => "mxs",
            CpuModel::MxsSingleIssue => "mxs-1wide",
        }
    }

    /// Stable short name used by CLIs and the serving API (the inverse of
    /// [`CpuModel::from_name`]).
    pub fn name(self) -> &'static str {
        match self {
            CpuModel::Mipsy => "mipsy",
            CpuModel::Mxs => "mxs",
            CpuModel::MxsSingleIssue => "mxs1",
        }
    }

    /// Parses a model name as used by `simulate --cpu` and the serving
    /// API; the display label `mxs-1wide` is accepted as an alias.
    pub fn from_name(name: &str) -> Option<CpuModel> {
        match name {
            "mipsy" => Some(CpuModel::Mipsy),
            "mxs" => Some(CpuModel::Mxs),
            "mxs1" | "mxs-1wide" => Some(CpuModel::MxsSingleIssue),
            _ => None,
        }
    }
}

/// How disk-blocked idle stretches are handled by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IdleHandling {
    /// Execute the busy-waiting idle loop cycle by cycle (the faithful
    /// full-system behavior; slowest).
    #[default]
    Simulate,
    /// The paper's §3.3 acceleration applied to *every* blocked stretch:
    /// the CPU never executes idle-loop instructions; gaps are patched
    /// into the log arithmetically at measured per-cycle idle rates. Makes
    /// the work stream disk-policy-independent, which is what the
    /// trace-replay engine relies on (`DESIGN.md`).
    Analytic,
}

/// Full machine + methodology configuration.
///
/// Defaults reproduce the paper's Table 1 system at a time scale of 2000×
/// (see `DESIGN.md` §2 for the scaling substitution).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// CPU timing model.
    pub cpu: CpuModel,
    /// Memory-hierarchy configuration.
    pub mem: MemConfig,
    /// Out-of-order core configuration (used by `Mxs*` models).
    pub mxs: MxsConfig,
    /// In-order core configuration (used by `Mipsy`).
    pub mipsy: MipsyConfig,
    /// Disk model configuration.
    pub disk: DiskConfig,
    /// OS model configuration (the workload's `cacheflush` rate overrides
    /// [`OsConfig::cacheflush_per_kinstr`] at run time).
    pub os: OsConfig,
    /// Core clock frequency in Hz.
    pub freq_hz: f64,
    /// Time-scale factor: all paper-time durations shrink by this much.
    pub time_scale: f64,
    /// Sampling window of the simulation log, in cycles.
    pub sample_interval_cycles: u64,
    /// Master seed (workload and OS randomness derive from it).
    pub seed: u64,
    /// How disk-blocked idle stretches are handled (§3.3).
    pub idle: IdleHandling,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cpu: CpuModel::Mxs,
            mem: MemConfig::default(),
            mxs: MxsConfig::default(),
            mipsy: MipsyConfig::default(),
            disk: DiskConfig::new(DiskPolicy::Conventional),
            os: OsConfig::default(),
            freq_hz: 200.0e6,
            time_scale: 2000.0,
            sample_interval_cycles: 2000,
            seed: 0xB0A7,
            idle: IdleHandling::Simulate,
        }
    }
}

impl SystemConfig {
    /// The clocking implied by frequency and time scale.
    pub fn clocking(&self) -> Clocking {
        Clocking::scaled(self.freq_hz, self.time_scale)
    }

    /// The out-of-order core `cpu` simulates, or `None` for the in-order
    /// [`CpuModel::Mipsy`]. The single-issue model takes
    /// [`MxsConfig::single_issue`]'s widths and keeps `mxs`'s predictor,
    /// window and LSQ sizes. The simulator builds its core from this and
    /// [`SystemConfig::power_params`] charges for it, so both see one
    /// machine.
    pub(crate) fn mxs_core(&self) -> Option<MxsConfig> {
        match self.cpu {
            CpuModel::Mipsy => None,
            CpuModel::Mxs => Some(self.mxs),
            CpuModel::MxsSingleIssue => Some(MxsConfig {
                bht_entries: self.mxs.bht_entries,
                btb_entries: self.mxs.btb_entries,
                ras_entries: self.mxs.ras_entries,
                window_size: self.mxs.window_size,
                lsq_size: self.mxs.lsq_size,
                ..MxsConfig::single_issue()
            }),
        }
    }

    /// Structural power-model parameters matching this machine.
    pub fn power_params(&self) -> PowerParams {
        let base = PowerParams {
            il1: self.mem.il1,
            dl1: self.mem.dl1,
            l2: self.mem.l2,
            tlb: self.mem.tlb_entries,
            ..PowerParams::default()
        };
        match self.mxs_core() {
            Some(core) => PowerParams {
                fetch_width: core.fetch_width,
                decode_width: core.decode_width,
                issue_width: core.issue_width,
                mem_ports: core.mem_ports,
                int_units: core.int_units,
                fp_units: core.fp_units,
                window: core.window_size,
                lsq: core.lsq_size,
                bht: core.bht_entries,
                btb: core.btb_entries,
                ras: core.ras_entries,
                ..base
            },
            // Mipsy: a simple scalar pipeline with no OoO structures; the
            // structures still exist physically but see no events.
            None => PowerParams {
                fetch_width: 1,
                decode_width: 1,
                issue_width: 1,
                mem_ports: 1,
                int_units: 1,
                fp_units: 1,
                ..base
            },
        }
    }

    /// Validates cross-cutting constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field combination.
    pub fn validate(&self) -> Result<(), String> {
        // NaN must fail too, so compare through partial_cmp.
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive(self.freq_hz) || !positive(self.time_scale) {
            return Err("frequency and time scale must be positive".into());
        }
        if self.sample_interval_cycles == 0 {
            return Err("sample interval must be positive".into());
        }
        self.mxs.validate().map_err(|e| e.to_string())?;
        self.os.validate().map_err(|e| e.to_string())?;
        self.disk.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softwatt_disk::DiskPolicy;

    #[test]
    fn default_matches_table1() {
        let c = SystemConfig::default();
        c.validate().unwrap();
        assert_eq!(c.freq_hz, 200.0e6);
        assert_eq!(c.mem.il1.size_bytes(), 32 * 1024);
        assert_eq!(c.mem.il1.line_bytes(), 64);
        assert_eq!(c.mem.il1.assoc(), 2);
        assert_eq!(c.mem.l2.size_bytes(), 1024 * 1024);
        assert_eq!(c.mem.l2.line_bytes(), 128);
        assert_eq!(c.mem.tlb_entries, 64);
        assert_eq!(c.mem.memory_mb, 128);
        assert_eq!(c.mxs.fetch_width, 4);
        assert_eq!(c.mxs.window_size, 64);
        assert_eq!(c.mxs.lsq_size, 32);
        assert_eq!(c.mxs.int_units, 2);
        assert_eq!(c.mxs.fp_units, 2);
        assert_eq!(c.mxs.bht_entries, 1024);
        assert_eq!(c.mxs.btb_entries, 1024);
        assert_eq!(c.mxs.ras_entries, 32);
        assert!(matches!(c.disk.policy, DiskPolicy::Conventional));
    }

    #[test]
    fn power_params_follow_cpu_model() {
        let mut c = SystemConfig {
            cpu: CpuModel::Mxs,
            ..SystemConfig::default()
        };
        assert_eq!(c.power_params().fetch_width, 4);
        c.cpu = CpuModel::MxsSingleIssue;
        assert_eq!(c.power_params().fetch_width, 1);
        assert_eq!(c.power_params().window, 64, "single-issue keeps the window");
        c.cpu = CpuModel::Mipsy;
        assert_eq!(c.power_params().fetch_width, 1);
    }

    #[test]
    fn power_params_charge_the_simulated_mxs_core() {
        let mxs = MxsConfig {
            window_size: 32,
            lsq_size: 16,
            bht_entries: 512,
            btb_entries: 256,
            ras_entries: 8,
            ..MxsConfig::default()
        };
        for cpu in [CpuModel::Mxs, CpuModel::MxsSingleIssue] {
            let c = SystemConfig {
                cpu,
                mxs,
                ..SystemConfig::default()
            };
            let core = c.mxs_core().expect("an MXS model");
            assert_eq!(core.window_size, 32, "{cpu:?} keeps the configured window");
            let p = c.power_params();
            assert_eq!(
                (p.fetch_width, p.decode_width, p.issue_width, p.mem_ports),
                (
                    core.fetch_width,
                    core.decode_width,
                    core.issue_width,
                    core.mem_ports
                ),
                "{cpu:?} widths"
            );
            assert_eq!((p.int_units, p.fp_units), (core.int_units, core.fp_units));
            assert_eq!(
                (p.window, p.lsq, p.bht, p.btb, p.ras),
                (
                    core.window_size,
                    core.lsq_size,
                    core.bht_entries,
                    core.btb_entries,
                    core.ras_entries
                ),
                "{cpu:?} structures"
            );
        }
    }

    #[test]
    fn validation_catches_bad_scale() {
        let c = SystemConfig {
            time_scale: 0.0,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());
    }

    /// Every duration the disk converts to cycles, and its transfer rate,
    /// is checked: a value the disk cannot time is an error here rather
    /// than a panic inside the disk.
    #[test]
    fn validation_catches_every_disk_duration() {
        type Edit = fn(&mut DiskConfig, f64);
        let fields: [(&str, Edit); 8] = [
            ("standby threshold", |d, v| {
                d.policy = DiskPolicy::Standby { threshold_s: v }
            }),
            ("sleep threshold", |d, v| {
                d.policy = DiskPolicy::Sleep {
                    threshold_s: v,
                    sleep_after_s: 3.0,
                }
            }),
            ("sleep delay", |d, v| {
                d.policy = DiskPolicy::Sleep {
                    threshold_s: 2.0,
                    sleep_after_s: v,
                }
            }),
            ("spin-up time", |d, v| d.timings.spin_up_s = v),
            ("spin-down time", |d, v| d.timings.spin_down_s = v),
            ("seek time", |d, v| d.timings.avg_seek_ms = v),
            ("rotational latency", |d, v| d.timings.avg_rotation_ms = v),
            ("transfer rate", |d, v| d.timings.transfer_mb_s = v),
        ];
        for (name, edit) in fields {
            let with = |v| {
                let mut c = SystemConfig::default();
                edit(&mut c.disk, v);
                c.validate()
            };
            assert_eq!(with(2.0), Ok(()), "{name} 2.0");
            for bad in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(with(bad).is_err(), "{name} {bad}");
            }
            let zero = with(0.0);
            if name == "transfer rate" {
                assert!(zero.is_err(), "a zero transfer rate");
            } else {
                assert_eq!(zero, Ok(()), "{name} 0.0");
            }
        }
    }

    #[test]
    fn clocking_uses_scale() {
        let c = SystemConfig::default();
        assert_eq!(
            c.clocking().paper_secs_to_cycles(1.0),
            (200.0e6 / c.time_scale) as u64
        );
    }
}

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

    /// Structural power-model parameters matching this machine.
    pub fn power_params(&self) -> PowerParams {
        let base = PowerParams {
            il1: self.mem.il1,
            dl1: self.mem.dl1,
            l2: self.mem.l2,
            tlb: self.mem.tlb_entries,
            ..PowerParams::default()
        };
        match self.cpu {
            CpuModel::Mxs => PowerParams {
                fetch_width: self.mxs.fetch_width,
                decode_width: self.mxs.decode_width,
                issue_width: self.mxs.issue_width,
                mem_ports: self.mxs.mem_ports,
                int_units: self.mxs.int_units,
                fp_units: self.mxs.fp_units,
                window: self.mxs.window_size,
                lsq: self.mxs.lsq_size,
                bht: self.mxs.bht_entries,
                btb: self.mxs.btb_entries,
                ras: self.mxs.ras_entries,
                ..base
            },
            CpuModel::MxsSingleIssue => {
                let narrow = MxsConfig::single_issue();
                PowerParams {
                    fetch_width: narrow.fetch_width,
                    decode_width: narrow.decode_width,
                    issue_width: narrow.issue_width,
                    mem_ports: narrow.mem_ports,
                    int_units: narrow.int_units,
                    fp_units: narrow.fp_units,
                    window: narrow.window_size,
                    lsq: narrow.lsq_size,
                    bht: narrow.bht_entries,
                    btb: narrow.btb_entries,
                    ras: narrow.ras_entries,
                    ..base
                }
            }
            // Mipsy: a simple scalar pipeline with no OoO structures; the
            // structures still exist physically but see no events.
            CpuModel::Mipsy => PowerParams {
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
        Ok(())
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
    fn validation_catches_bad_scale() {
        let c = SystemConfig {
            time_scale: 0.0,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());
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

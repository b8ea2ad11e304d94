//! Benchmark harness and command-line front ends for the SoftWatt
//! reproduction.
//!
//! The crate hosts
//!
//! - the binaries: `experiments`, which regenerates every table and figure
//!   of the paper and prints paper-vs-measured comparisons (the source of
//!   `EXPERIMENTS.md`); `simulate`, the single-run and Figure 1 log tool;
//!   `softwatt-serve`, the query service; and `loadgen`, its load
//!   generator;
//! - the Criterion benches: `paper_experiments` (one bench per paper
//!   artifact), `simulator_throughput` (cycles/second of the machine
//!   models), `ablations` (the design-choice studies listed in
//!   `DESIGN.md` §7) and `hot_paths` (the inner loops of §15);
//! - the perf canary (`tests/perf_canary.rs`), which pins the simulator's
//!   cycle counts and grid and store tallies to
//!   `docs/perf_canary_reference.json` under wall-clock ceilings.
//!
//! Run `cargo run --release -p softwatt-bench --bin experiments` for the
//! full paper regeneration, or `cargo bench` for the timed harness. Speed
//! itself is measured by the repository benchmark (`BENCHMARK.json`,
//! `perfbench/`).
//!
//! The shared library code is the flag surface every binary exposes
//! uniformly: [`ObsFlags`] (`--metrics`, `--metrics-out FILE`,
//! `--log-level LEVEL`), [`parse_count_or_auto`] for `--jobs`-style counts
//! and [`open_trace_store`] for `--trace-cache DIR`.

use std::io::Write as _;

/// Parses the value of a count flag (`--jobs N`, `--workers N`,
/// `--queue-depth N`, ...): a strictly positive integer, or the literal
/// `auto`, which maps to the machine's available parallelism (so
/// `--jobs auto` means "use every core" on every binary uniformly).
///
/// Shared by every binary so the flags behave — and complain —
/// identically; `what` names the quantity in the error message
/// (e.g. `"thread count"`).
///
/// # Errors
///
/// Returns `"{flag} needs a positive {what} or \"auto\""` when the value
/// is absent, unparsable, or zero.
pub fn parse_count_or_auto(flag: &str, value: Option<String>, what: &str) -> Result<usize, String> {
    if value.as_deref() == Some("auto") {
        return Ok(auto_parallelism());
    }
    value
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} needs a positive {what} or \"auto\""))
}

/// The parallelism `auto` resolves to: `std::thread::available_parallelism`,
/// falling back to 1 when the platform cannot report it.
pub fn auto_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Opens the [`softwatt::TraceStore`] for `--trace-cache DIR`, if any: an
/// explicit directory beats the `SOFTWATT_TRACE_CACHE` environment
/// variable, and an empty value for either means "no cache".
///
/// # Errors
///
/// Returns a message when the directory cannot be created or opened.
pub fn open_trace_store(flag: Option<String>) -> Result<Option<softwatt::TraceStore>, String> {
    flag.or_else(|| std::env::var("SOFTWATT_TRACE_CACHE").ok())
        .filter(|v| !v.is_empty())
        .map(|dir| {
            softwatt::TraceStore::open(&dir)
                .map_err(|e| format!("cannot open trace cache {dir}: {e}"))
        })
        .transpose()
}

/// The observability flags shared by `experiments`, `simulate` and
/// `softwatt-serve`.
///
/// Parse with [`ObsFlags::try_parse`] inside the binary's flag loop, call
/// [`ObsFlags::activate`] once parsing is done (this is what flips the
/// global `softwatt-obs` switch — metrics stay disabled, and therefore
/// ~free, unless one of the flags asked for them), and call
/// [`ObsFlags::finish`] after the work to emit the requested outputs.
#[derive(Debug, Default)]
pub struct ObsFlags {
    /// `--metrics`: print the human summary table to stderr at exit.
    pub metrics: bool,
    /// `--metrics-out FILE`: write the `softwatt-obs-v1` JSON document.
    pub metrics_out: Option<String>,
    /// `--log-level LEVEL`: stderr event-log threshold.
    pub log_level: Option<softwatt_obs::Level>,
}

impl ObsFlags {
    /// Usage text fragment describing the shared flags.
    pub const USAGE: &'static str =
        "[--metrics] [--metrics-out FILE] [--log-level off|error|warn|info|debug|trace]";

    /// Tries to consume `flag` as an observability flag, pulling a value
    /// from `next` when the flag takes one. Returns `Ok(false)` when the
    /// flag is not an observability flag (the caller handles it).
    ///
    /// # Errors
    ///
    /// Returns a message when a value is missing or unparsable.
    pub fn try_parse(
        &mut self,
        flag: &str,
        mut next: impl FnMut() -> Option<String>,
    ) -> Result<bool, String> {
        match flag {
            "--metrics" => {
                self.metrics = true;
                Ok(true)
            }
            "--metrics-out" => {
                self.metrics_out = Some(next().ok_or("--metrics-out needs a file path")?);
                Ok(true)
            }
            "--log-level" => {
                let value = next().ok_or("--log-level needs a level")?;
                self.log_level = softwatt_obs::Level::parse(&value).ok_or_else(|| {
                    format!("unknown log level {value} (off|error|warn|info|debug|trace)")
                })?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Applies the parsed flags to the global observability state. The
    /// registry is enabled by any observability flag — `--log-level` too,
    /// since timing-derived events read their spans — but stays off (and
    /// ~free) when none are given.
    pub fn activate(&self) {
        softwatt_obs::set_log_level(self.log_level);
        if self.wants_metrics() || self.log_level.is_some() {
            softwatt_obs::set_enabled(true);
            softwatt_obs::reset_metrics();
        }
    }

    /// Whether any flag requested metric collection.
    pub fn wants_metrics(&self) -> bool {
        self.metrics || self.metrics_out.is_some()
    }

    /// Emits the requested outputs: the human table to stderr and/or the
    /// JSON document to `--metrics-out`.
    ///
    /// # Errors
    ///
    /// Returns a message when the output file cannot be written.
    pub fn finish(&self) -> Result<(), String> {
        if !self.wants_metrics() {
            return Ok(());
        }
        if self.metrics {
            eprint!("{}", softwatt_obs::summary_table());
        }
        if let Some(path) = &self.metrics_out {
            let json = softwatt_obs::to_json();
            std::fs::File::create(path)
                .and_then(|mut f| f.write_all(json.as_bytes()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote metrics to {path}");
        }
        Ok(())
    }
}

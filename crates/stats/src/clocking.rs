//! Cycle/time conversion, including the repository's time-scale substitution.
//!
//! The paper simulated several *seconds* of machine time (about 30 hours of
//! host time per benchmark). This reproduction shrinks every wall-clock
//! quantity — workload durations, disk spin-up times, spin-down thresholds —
//! by a single `time_scale` factor so the same dynamics play out over a
//! tractable cycle count. All *relative* results (power budgets, mode shares,
//! who-wins orderings, spin-down crossovers) are invariant under this
//! scaling; absolute energies are reported in paper-equivalent time by
//! multiplying elapsed time back up (see [`Clocking::cycles_to_paper_secs`]).

use std::fmt;

/// Clock frequency plus time-scale bookkeeping.
///
/// # Examples
///
/// ```
/// use softwatt_stats::Clocking;
///
/// // 200 MHz machine, simulated at 1/1000 of paper durations.
/// let clk = Clocking::scaled(200.0e6, 1_000.0);
/// // A 5 s paper-time spin-up takes 1 M simulated cycles.
/// assert_eq!(clk.paper_secs_to_cycles(5.0), 1_000_000);
/// // ...and converts back to 5 s of paper time.
/// assert!((clk.cycles_to_paper_secs(1_000_000) - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clocking {
    hz: f64,
    scale: f64,
}

impl Clocking {
    /// Creates an unscaled clocking (simulated time equals paper time).
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    pub fn full_speed(hz: f64) -> Clocking {
        Clocking::scaled(hz, 1.0)
    }

    /// Creates a clocking in which every paper-time duration is divided by
    /// `scale` before being converted to cycles.
    ///
    /// # Panics
    ///
    /// Panics if `hz` or `scale` is not strictly positive and finite.
    pub fn scaled(hz: f64, scale: f64) -> Clocking {
        assert!(
            hz.is_finite() && hz > 0.0,
            "clock frequency must be positive"
        );
        assert!(
            scale.is_finite() && scale > 0.0,
            "time scale must be positive"
        );
        Clocking { hz, scale }
    }

    /// [`Clocking::scaled`] for values read from outside the process:
    /// `None` instead of a panic when `hz` or `scale` is not strictly
    /// positive and finite.
    pub(crate) fn try_scaled(hz: f64, scale: f64) -> Option<Clocking> {
        let valid = |v: f64| v.is_finite() && v > 0.0;
        (valid(hz) && valid(scale)).then_some(Clocking { hz, scale })
    }

    /// Clock frequency in Hz.
    #[inline]
    pub fn hz(&self) -> f64 {
        self.hz
    }

    /// Time-scale factor (1.0 means unscaled).
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Converts a paper-time duration to simulated cycles (rounding to
    /// nearest, minimum 1 cycle for positive durations).
    pub fn paper_secs_to_cycles(&self, secs: f64) -> u64 {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "duration must be non-negative"
        );
        if secs == 0.0 {
            return 0;
        }
        ((secs / self.scale * self.hz).round() as u64).max(1)
    }

    /// Converts simulated cycles back to paper-time seconds.
    pub fn cycles_to_paper_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.hz * self.scale
    }

    /// Converts simulated cycles to *simulated* (unscaled-back) seconds.
    /// Power (W) computations use this: power is energy per unit of machine
    /// time and is invariant under time scaling.
    pub fn cycles_to_machine_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.hz
    }
}

impl Default for Clocking {
    /// 200 MHz unscaled — the paper's Table 1 frequency.
    fn default() -> Self {
        Clocking::full_speed(200.0e6)
    }
}

impl fmt::Display for Clocking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} MHz (time scale {}x)", self.hz / 1.0e6, self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscaled_round_trip() {
        let clk = Clocking::full_speed(200.0e6);
        assert_eq!(clk.paper_secs_to_cycles(1.0), 200_000_000);
        assert!((clk.cycles_to_paper_secs(200_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_round_trip() {
        let clk = Clocking::scaled(200.0e6, 500.0);
        let cycles = clk.paper_secs_to_cycles(2.0);
        assert_eq!(cycles, 800_000);
        assert!((clk.cycles_to_paper_secs(cycles) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn machine_secs_ignores_scale() {
        let clk = Clocking::scaled(200.0e6, 1000.0);
        assert!((clk.cycles_to_machine_secs(200_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_is_zero_cycles() {
        let clk = Clocking::default();
        assert_eq!(clk.paper_secs_to_cycles(0.0), 0);
    }

    #[test]
    fn tiny_positive_duration_is_at_least_one_cycle() {
        let clk = Clocking::scaled(200.0e6, 1.0e12);
        assert_eq!(clk.paper_secs_to_cycles(1.0e-9), 1);
    }

    #[test]
    #[should_panic(expected = "time scale must be positive")]
    fn rejects_zero_scale() {
        let _ = Clocking::scaled(200.0e6, 0.0);
    }

    #[test]
    #[should_panic(expected = "clock frequency must be positive")]
    fn rejects_negative_hz() {
        let _ = Clocking::full_speed(-1.0);
    }
}

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
    /// nearest, halves away from zero; minimum 1 cycle for positive
    /// durations; `u64::MAX` for a duration longer than the counter).
    #[inline]
    pub fn paper_secs_to_cycles(&self, secs: f64) -> u64 {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "duration must be non-negative"
        );
        if secs == 0.0 {
            return 0;
        }
        round_to_u64(secs / self.scale * self.hz).max(1)
    }

    /// Converts simulated cycles back to paper-time seconds.
    #[inline]
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

/// `x.round() as u64` for a non-negative `x`, without calling libm's
/// `round`. Below 2^52, `x - trunc(x)` is exact, so rounding half away
/// from zero on it is `f64::round`; from 2^52 on, every `f64` is already
/// an integer and the cast saturates as that of the rounded value does.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
    if x >= TWO_POW_52 {
        return x as u64;
    }
    let whole = x as u64;
    whole + u64::from(x - whole as f64 >= 0.5)
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

    /// The conversion as it read with libm's `round`.
    fn rounded_by_libm(clk: &Clocking, secs: f64) -> u64 {
        if secs == 0.0 {
            return 0;
        }
        ((secs / clk.scale * clk.hz).round() as u64).max(1)
    }

    fn assert_rounds_as_libm(clk: &Clocking, secs: f64) {
        assert_eq!(
            clk.paper_secs_to_cycles(secs),
            rounded_by_libm(clk, secs),
            "{secs:e} s at {clk}"
        );
    }

    /// With 1 Hz unscaled, a duration is its own cycle count, so every
    /// value below is the rounded `x` itself: ties at k + 0.5 (which
    /// rounding half to even would send down for even k), their
    /// neighbours, and the values around 2^52 and 2^53 where `f64` steps
    /// from halves to whole numbers to even numbers.
    #[test]
    fn rounds_half_away_from_zero_like_libm() {
        let unit = Clocking::full_speed(1.0);
        let mut values = vec![0.5, 1.5, 2.5, 3.5, 1e6 + 0.5, 0.49999999999999994];
        for k in [0u64, 1, 2, 7, 1 << 20, (1 << 51) - 1, (1 << 51) + 1] {
            let tie = k as f64 + 0.5;
            values.extend([tie, tie.next_down(), tie.next_up()]);
        }
        for power in [52, 53, 63, 64] {
            let edge = 2f64.powi(power);
            let (mut below, mut above) = (edge, edge);
            for _ in 0..4 {
                below = below.next_down();
                above = above.next_up();
                values.extend([below, above]);
            }
            values.push(edge);
        }
        for secs in values {
            assert_rounds_as_libm(&unit, secs);
        }
        assert_eq!(unit.paper_secs_to_cycles(2.5), 3, "halves round up");
        assert_eq!(
            unit.paper_secs_to_cycles(4_503_599_627_370_495.5),
            4_503_599_627_370_496
        );
    }

    /// The smallest durations round to the one-cycle floor; durations past
    /// the counter saturate at `u64::MAX`, whether the product is finite
    /// or overflows to infinity.
    #[test]
    fn tiny_and_huge_durations_round_like_libm() {
        let clk = Clocking::scaled(200.0e6, 2000.0);
        let tiny = [f64::from_bits(1), f64::MIN_POSITIVE, 1e-300, 1e-12, 2.5e-5];
        let huge = [1e12, 1e15, 1e17, 1e300, f64::MAX];
        for secs in tiny.into_iter().chain(huge) {
            assert_rounds_as_libm(&clk, secs);
        }
        assert_eq!(clk.paper_secs_to_cycles(f64::from_bits(1)), 1);
        assert_eq!(clk.paper_secs_to_cycles(1e300), u64::MAX);
        assert_eq!(clk.paper_secs_to_cycles(f64::MAX), u64::MAX);
    }

    /// Seeded random durations over every binade from 1e-12 to 1e14
    /// seconds, under clockings that make products land anywhere
    /// between ties.
    #[test]
    fn random_durations_round_like_libm() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5ec5);
        let clockings = [
            Clocking::default(),
            Clocking::scaled(200.0e6, 1_500.0),
            Clocking::scaled(200.0e6, 2_000.0),
            Clocking::scaled(333.0e6, 7.0),
            Clocking::full_speed(1.0),
        ];
        for _ in 0..200_000 {
            let clk = &clockings[rng.gen_range(0..clockings.len())];
            let secs = 10f64.powf(rng.gen_range(-12.0..14.0)) * rng.gen::<f64>();
            assert_rounds_as_libm(clk, secs);
            // Whole and half cycles exactly.
            let k = rng.gen_range(0..1u64 << 53) as f64;
            assert_rounds_as_libm(&clockings[4], k);
            assert_rounds_as_libm(&clockings[4], (k / 2.0).floor() + 0.5);
        }
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

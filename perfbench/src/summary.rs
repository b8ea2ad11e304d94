//! Small numeric helpers: medians, tail percentiles with a sample-count
//! rule, a seeded generator, and content hashing.

use std::path::Path;

/// Median of `values` (the mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile (0 < p < 1) of `sorted`, reported only
/// when at least [`MIN_BEYOND`] samples lie strictly beyond its rank —
/// fewer would make the tail a handful of outliers, not a percentile.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    // The epsilon keeps 0.99 * 1000 from ceiling to 991 through rounding.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// A seeded SplitMix64 stream: the benchmark derives every input from
/// the `--seed` argument through this, so a seed names its inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index below `n` (> 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over a file's bytes; `None` if it cannot be read.
pub fn file_hash(path: &Path) -> Option<u64> {
    let bytes = std::fs::read(path).ok()?;
    Some(softwatt_stats::hash::fnv1a(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of n samples sits at rank ceil(0.99 n): 999 samples leave 9
        // beyond it, 1000 leave 10.
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 0.99), None);
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 0.99), Some(989.0));
        assert_eq!(tail_percentile(&enough[..20], 0.5), Some(9.0));
        assert_eq!(tail_percentile(&enough[..19], 0.5), None);
    }

    #[test]
    fn the_generator_is_a_function_of_its_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.iter().all(|&x| x == a[0]));
        let mut r = Rng::new(7, 1);
        let mut s = Rng::new(7, 2);
        assert_ne!(r.next_u64(), s.next_u64());
    }
}

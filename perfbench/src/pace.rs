//! Host pace. On a shared host the same harness execution runs up to
//! 1.5x slower from one second to the next while other tenants compete
//! for the shared last-level cache, so the same build timed minutes apart
//! can differ by a quarter. The benchmark therefore times a fixed
//! reference loop between timed executions and divides each execution's
//! times by the pace the loop ran at next to it. The loop is this crate's
//! code, not the program's, and never runs at the same time as the
//! program, so a change to the program moves the execution's time and
//! never the pace.

use std::time::Instant;

use crate::summary::median;

/// Words in the loop's table: 32 MiB, past the private caches and inside
/// the shared one, where the other tenants' load shows. On the machine
/// the benchmark was tuned on, over 40 short harness executions, this
/// loop's time and the execution's correlated at 0.79 (a 256 KiB table:
/// 0.45), and dividing by it halved the executions' spread.
const WORDS: usize = 1 << 22;
/// Steps per loop.
const STEPS: u32 = 1_000_000;
/// Loops per sample; a sample is their median.
const LOOPS: usize = 3;
/// Host seconds of one loop on the quiet machine the benchmark was tuned
/// on (2 vCPUs of a Xeon with a 105 MiB shared cache): the pace that
/// reads as 1.
const QUIET_S: f64 = 0.017;

/// Host seconds of one reference loop over `table`: random reads and
/// writes with a data-dependent branch per step.
fn loop_s(table: &mut [u64]) -> f64 {
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut acc = 0u64;
    let t = Instant::now();
    for _ in 0..STEPS {
        // xorshift64: a stream the compiler cannot precompute.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (WORDS - 1);
        let v = table[i];
        if (v ^ x) & 1 == 0 {
            acc = acc.wrapping_add(v >> 3);
        } else {
            table[i] = v.wrapping_mul(x) | 1;
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The host's pace now, against the quiet machine: 1 there, 1.5 on a
/// host that runs the loop 1.5x slower.
pub fn sample() -> f64 {
    let mut table: Vec<u64> = (0..WORDS as u64).collect();
    let loops: Vec<f64> = (0..LOOPS).map(|_| loop_s(&mut table)).collect();
    median(&loops).expect("loops ran") / QUIET_S
}

/// `times[i]` at the quiet machine's pace, for times taken between pace
/// samples `paces[i]` and `paces[i + 1]`: each divided by the mean of the
/// two.
pub fn at_pace(times: &[f64], paces: &[f64]) -> Vec<f64> {
    times
        .iter()
        .zip(paces.windows(2))
        .map(|(t, p)| t * 2.0 / (p[0] + p[1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_time_takes_the_mean_pace_either_side_of_it() {
        assert_eq!(at_pace(&[3.0, 6.0], &[1.0, 2.0, 2.0]), vec![2.0, 3.0]);
    }
}

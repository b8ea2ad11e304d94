//! Statistical instruction-mix generation.
//!
//! Both the kernel-service bodies (`softwatt-os`) and the SPEC JVM98-like
//! user workloads (`softwatt-workloads`) synthesize instruction streams from
//! the same primitive: a [`MixGenerator`] that emits instructions matching a
//! target operation mix, dependence density (which controls achievable ILP
//! and hence IPC on the out-of-order model), branch-outcome stability (which
//! controls predictor accuracy), and code/data locality (which controls
//! cache and TLB behavior).
//!
//! This is the calibration surface described in `DESIGN.md` §6: generators
//! are tuned only on these *cycle-side* knobs; every energy number is
//! computed downstream by the analytical power models.

use rand::{Rng, RngCore};

use crate::{Instr, OpClass, Reg};

/// Memory reference pattern: a hot subset inside a larger working set.
///
/// `hot_frac` of accesses fall uniformly in `[base, base + hot_bytes)`;
/// the rest fall uniformly in `[base, base + span_bytes)`. Making
/// `span_bytes` exceed the cache (or the TLB reach) produces misses at a
/// controllable rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataPattern {
    /// Region base address.
    pub base: u64,
    /// Hot-subset size in bytes.
    pub hot_bytes: u64,
    /// Full working-set size in bytes.
    pub span_bytes: u64,
    /// Fraction of accesses that stay in the hot subset.
    pub hot_frac: f64,
}

impl DataPattern {
    /// A pattern whose accesses all fall in one small region.
    pub fn uniform(base: u64, span_bytes: u64) -> DataPattern {
        DataPattern {
            base,
            hot_bytes: span_bytes,
            span_bytes,
            hot_frac: 1.0,
        }
    }
}

/// A uniform draw from `[0, n)` by the algorithm of `rng.gen_range(0..n)`
/// (Lemire's widening multiply with rejection), with the rejection zone
/// computed once instead of by a u64 `%` on every draw. It returns the same
/// values and consumes the same draws, so a stream is unchanged.
#[derive(Debug, Clone, Copy)]
struct UniformBelow {
    range: u64,
    zone: u64,
}

impl UniformBelow {
    fn new(n: u64) -> UniformBelow {
        UniformBelow {
            range: n,
            zone: u64::MAX - (u64::MAX - n + 1) % n,
        }
    }

    #[inline]
    fn sample<R: RngCore>(&self, rng: &mut R) -> u64 {
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(self.range);
            if m as u64 <= self.zone {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Target statistical properties of an instruction stream.
///
/// Fractions need not sum to 1; the remainder becomes integer ALU work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixSpec {
    /// Fraction of loads.
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of conditional branches.
    pub branch: f64,
    /// Fraction of floating-point operations (split add/mul internally).
    pub fp: f64,
    /// Fraction of integer multiplies.
    pub mul: f64,
    /// Probability that an instruction reads the previous instruction's
    /// result (serial-chain pressure; higher = lower ILP).
    pub dep_prob: f64,
    /// Per-site probability that a branch goes its usual direction
    /// (1.0 = perfectly stable, learned by the BHT; 0.5 = random).
    pub branch_stability: f64,
    /// Code region base PC.
    pub code_base: u64,
    /// Instructions per loop body (controls I-cache footprint per loop).
    pub loop_len: u32,
    /// Number of distinct loops the stream cycles through.
    pub n_loops: u32,
    /// Instructions executed in one loop before moving to the next.
    pub stay_per_loop: u32,
    /// Data access pattern.
    pub data: DataPattern,
}

impl MixSpec {
    /// A cache-friendly, ILP-rich mix (used as a test baseline).
    pub fn compute_bound(code_base: u64, data_base: u64) -> MixSpec {
        MixSpec {
            load: 0.22,
            store: 0.08,
            branch: 0.12,
            fp: 0.05,
            mul: 0.02,
            dep_prob: 0.25,
            branch_stability: 0.95,
            code_base,
            loop_len: 64,
            n_loops: 4,
            stay_per_loop: 4096,
            data: DataPattern::uniform(data_base, 16 * 1024),
        }
    }

    /// Validates that fractions form a sub-distribution.
    ///
    /// # Errors
    ///
    /// Returns a description if any fraction is outside `[0, 1]` or the
    /// fractions sum past 1.
    pub fn validate(&self) -> Result<(), &'static str> {
        let parts = [self.load, self.store, self.branch, self.fp, self.mul];
        if parts.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err("mix fractions must lie in [0, 1]");
        }
        if parts.iter().sum::<f64>() > 1.0 + 1e-9 {
            return Err("mix fractions must sum to at most 1");
        }
        if !(0.0..=1.0).contains(&self.dep_prob) || !(0.0..=1.0).contains(&self.branch_stability) {
            return Err("probabilities must lie in [0, 1]");
        }
        if self.loop_len == 0 || self.n_loops == 0 || self.stay_per_loop == 0 {
            return Err("loop structure must be non-degenerate");
        }
        Ok(())
    }
}

/// Emits an unbounded instruction stream matching a [`MixSpec`].
///
/// The generator is deterministic given the caller-supplied RNG, which is
/// how whole-simulation reproducibility is achieved.
///
/// # Examples
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use softwatt_isa::{MixGenerator, MixSpec};
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let mut g = MixGenerator::new(MixSpec::compute_bound(0x1000, 0x10_0000));
/// let i = g.next_instr_with(&mut rng);
/// i.validate().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct MixGenerator {
    spec: MixSpec,
    emitted: u64,
    last_dest: Option<Reg>,
    reg_cursor: u8,
    // Incremental decomposition of `emitted` (the stream position), kept so
    // the per-instruction PC needs no divisions:
    // `within_loop = emitted % loop_len`,
    // `loop_idx = (emitted / stay_per_loop) % n_loops`,
    // `stay_count = emitted % stay_per_loop`.
    within_loop: u32,
    stay_count: u32,
    loop_idx: u32,
    // The data pattern's two address ranges, ready to draw from.
    hot: UniformBelow,
    span: UniformBelow,
}

impl MixGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`MixSpec::validate`].
    pub fn new(spec: MixSpec) -> MixGenerator {
        spec.validate().expect("invalid mix spec");
        MixGenerator {
            spec,
            emitted: 0,
            last_dest: None,
            reg_cursor: 1,
            within_loop: 0,
            stay_count: 0,
            loop_idx: 0,
            hot: UniformBelow::new(spec.data.hot_bytes.max(8)),
            span: UniformBelow::new(spec.data.span_bytes.max(8)),
        }
    }

    /// The spec in use.
    pub fn spec(&self) -> &MixSpec {
        &self.spec
    }

    fn pc(&self) -> u64 {
        let s = &self.spec;
        s.code_base
            + u64::from(self.loop_idx) * u64::from(s.loop_len) * 4
            + u64::from(self.within_loop) * 4
    }

    /// Advances the incremental position counters past one emission.
    #[inline]
    fn advance_position(&mut self) {
        self.emitted += 1;
        self.within_loop += 1;
        if self.within_loop == self.spec.loop_len {
            self.within_loop = 0;
        }
        self.stay_count += 1;
        if self.stay_count == self.spec.stay_per_loop {
            self.stay_count = 0;
            self.loop_idx += 1;
            if self.loop_idx == self.spec.n_loops {
                self.loop_idx = 0;
            }
        }
    }

    /// Draws a data address from the spec's [`DataPattern`]: `hot_frac`
    /// of draws fall in the hot subset, the rest anywhere in the span,
    /// 8-byte aligned.
    fn data_addr<R: Rng>(&self, rng: &mut R) -> u64 {
        let range = if rng.gen::<f64>() < self.spec.data.hot_frac {
            &self.hot
        } else {
            &self.span
        };
        self.spec.data.base + (range.sample(rng) & !7)
    }

    fn next_reg(&mut self) -> Reg {
        let r = Reg::int(self.reg_cursor);
        self.reg_cursor = if self.reg_cursor >= 16 {
            1
        } else {
            self.reg_cursor + 1
        };
        r
    }

    fn src<R: Rng>(&mut self, rng: &mut R) -> Option<Reg> {
        if rng.gen::<f64>() < self.spec.dep_prob {
            self.last_dest.or(Some(Reg::int(1)))
        } else {
            Some(Reg::int(rng.gen_range(1..17)))
        }
    }

    /// Emits the next instruction using the supplied RNG.
    pub fn next_instr_with<R: Rng>(&mut self, rng: &mut R) -> Instr {
        let s = self.spec;
        let pc = self.pc();
        let at_loop_end = self.within_loop + 1 == s.loop_len;
        self.advance_position();

        let roll = rng.gen::<f64>();
        let instr = if at_loop_end || roll < s.branch {
            // Loop back-edge (stable) or data-dependent branch.
            let site_usual_taken = at_loop_end;
            let stable = rng.gen::<f64>() < s.branch_stability;
            let taken = if stable {
                site_usual_taken
            } else {
                !site_usual_taken
            };
            let target = if taken {
                pc.wrapping_sub(u64::from(s.loop_len) * 4 - 4)
            } else {
                pc + 4
            };
            let src = self.src(rng);
            self.last_dest = None;
            Instr::branch(pc, src, taken, target)
        } else if roll < s.branch + s.load {
            let dest = self.next_reg();
            let addr = self.data_addr(rng);
            let base = self.src(rng);
            self.last_dest = Some(dest);
            Instr::load(pc, dest, base, addr)
        } else if roll < s.branch + s.load + s.store {
            let addr = self.data_addr(rng);
            let value = self.src(rng);
            self.last_dest = None;
            Instr::store(pc, value, Some(Reg::int(29)), addr)
        } else if roll < s.branch + s.load + s.store + s.fp {
            let dest = Reg::fp(rng.gen_range(0..8));
            let op = if rng.gen::<f64>() < 0.5 {
                OpClass::FpAdd
            } else {
                OpClass::FpMul
            };
            let i = Instr::arith(op, pc, dest, Some(Reg::fp(rng.gen_range(0..8))), None);
            self.last_dest = None; // fp chains tracked coarsely
            i
        } else if roll < s.branch + s.load + s.store + s.fp + s.mul {
            let dest = self.next_reg();
            let src = self.src(rng);
            self.last_dest = Some(dest);
            Instr::arith(OpClass::IntMul, pc, dest, src, None)
        } else {
            let dest = self.next_reg();
            let s1 = self.src(rng);
            let s2 = Some(Reg::int(rng.gen_range(1..17)));
            self.last_dest = Some(dest);
            Instr::alu(pc, dest, s1, s2)
        };
        debug_assert!(instr.validate().is_ok());
        instr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_mix(spec: MixSpec, n: usize, seed: u64) -> Vec<Instr> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = MixGenerator::new(spec);
        (0..n).map(|_| g.next_instr_with(&mut rng)).collect()
    }

    #[test]
    fn fractions_are_respected_statistically() {
        let spec = MixSpec::compute_bound(0x1000, 0x100_0000);
        let instrs = sample_mix(spec, 50_000, 1);
        let loads = instrs.iter().filter(|i| i.op == OpClass::Load).count() as f64;
        let stores = instrs.iter().filter(|i| i.op == OpClass::Store).count() as f64;
        let branches = instrs
            .iter()
            .filter(|i| i.op == OpClass::BranchCond)
            .count() as f64;
        let n = instrs.len() as f64;
        assert!(
            (loads / n - spec.load).abs() < 0.02,
            "load frac {}",
            loads / n
        );
        assert!((stores / n - spec.store).abs() < 0.02);
        // Branch fraction includes forced loop back-edges.
        assert!(branches / n >= spec.branch - 0.02);
    }

    #[test]
    fn pcs_cycle_within_loops() {
        let spec = MixSpec::compute_bound(0x4000, 0x100_0000);
        let instrs = sample_mix(spec, 10_000, 2);
        let span = u64::from(spec.loop_len) * 4 * u64::from(spec.n_loops);
        for i in &instrs {
            assert!(i.pc >= spec.code_base && i.pc < spec.code_base + span);
        }
    }

    #[test]
    fn data_addresses_stay_in_region() {
        let spec = MixSpec::compute_bound(0x1000, 0x50_0000);
        let instrs = sample_mix(spec, 20_000, 3);
        for i in instrs.iter().filter(|i| i.mem_addr.is_some()) {
            let a = i.mem_addr.unwrap();
            assert!(a >= 0x50_0000 && a < 0x50_0000 + spec.data.span_bytes + 8);
        }
    }

    #[test]
    fn determinism_under_same_seed() {
        let spec = MixSpec::compute_bound(0x1000, 0x10_0000);
        let a = sample_mix(spec, 1000, 42);
        let b = sample_mix(spec, 1000, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = MixSpec::compute_bound(0x1000, 0x10_0000);
        let a = sample_mix(spec, 1000, 1);
        let b = sample_mix(spec, 1000, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn loop_back_edges_are_mostly_taken_when_stable() {
        let mut spec = MixSpec::compute_bound(0x1000, 0x10_0000);
        spec.branch = 0.0; // only back-edges
        spec.branch_stability = 1.0;
        let instrs = sample_mix(spec, 10_000, 4);
        let backs: Vec<_> = instrs
            .iter()
            .filter(|i| i.op == OpClass::BranchCond)
            .collect();
        assert!(!backs.is_empty());
        assert!(backs.iter().all(|b| b.taken));
    }

    #[test]
    fn all_emitted_instructions_validate() {
        let spec = MixSpec::compute_bound(0x1000, 0x10_0000);
        for i in sample_mix(spec, 5_000, 5) {
            i.validate().unwrap();
        }
    }

    #[test]
    fn hot_pattern_concentrates_accesses() {
        let mut spec = MixSpec::compute_bound(0x1000, 0);
        spec.data = DataPattern {
            base: 0,
            hot_bytes: 1024,
            span_bytes: 1024 * 1024,
            hot_frac: 0.9,
        };
        let g = MixGenerator::new(spec);
        let mut rng = SmallRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| g.data_addr(&mut rng) < 1024).count();
        assert!(hits > 8_500, "expected ~90% hot accesses, got {hits}");
    }

    /// The precomputed zone draws exactly what `gen_range(0..n)` draws and
    /// consumes the same generator output, including where rejection is
    /// frequent (`2^63 + 1` rejects almost half the draws).
    #[test]
    fn uniform_below_matches_gen_range() {
        let mut ns = vec![1, 8, 12 * 1024, 96 * 1024, (1 << 63) + 1, u64::MAX];
        for k in [3, 10, 17, 32, 40, 62] {
            ns.extend([(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        for n in ns {
            let sampler = UniformBelow::new(n);
            let mut ours = SmallRng::seed_from_u64(n);
            let mut reference = SmallRng::seed_from_u64(n);
            for _ in 0..2_000 {
                assert_eq!(
                    sampler.sample(&mut ours),
                    reference.gen_range(0..n),
                    "n = {n}"
                );
            }
            assert_eq!(
                ours.next_u64(),
                reference.next_u64(),
                "n = {n}: draws consumed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid mix spec")]
    fn rejects_oversubscribed_mix() {
        let mut spec = MixSpec::compute_bound(0, 0);
        spec.load = 0.9;
        spec.store = 0.9;
        let _ = MixGenerator::new(spec);
    }
}

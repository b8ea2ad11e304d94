//! Technology parameters for the 0.35 µm / 3.3 V / 200 MHz design point.
//!
//! Capacitance constants are of the magnitude used by CACTI/Wattch for the
//! 0.35 µm generation. They are fixed once, globally — never tuned per
//! benchmark (see `DESIGN.md` §6) — and produce a maximum-activity CPU
//! power near the paper's 25.3 W validation figure.

/// Process and operating-point constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechParams {
    /// Supply voltage (V).
    pub vdd: f64,
    /// Clock frequency (Hz).
    pub freq_hz: f64,
    /// SRAM bitline capacitance per cell on the line (F): access-transistor
    /// drain plus wire per cell pitch.
    pub c_bitline_per_cell: f64,
    /// Wordline capacitance per cell (F): two access-transistor gates plus
    /// wire per cell pitch.
    pub c_wordline_per_cell: f64,
    /// Bitline sensing swing as a fraction of Vdd (precharged, partial
    /// swing reads).
    pub bitline_swing: f64,
    /// Sense amplifier energy factor: equivalent capacitance per column (F).
    pub c_senseamp: f64,
    /// Decoder equivalent capacitance per decoded row address bit (F).
    pub c_decoder_per_bit: f64,
    /// Output driver capacitance per bit read out (F).
    pub c_output_per_bit: f64,
    /// Tag comparator capacitance per tag bit per way (F).
    pub c_compare_per_bit: f64,
    /// CAM match-line capacitance per entry per tag bit (F).
    pub c_cam_per_bit: f64,
    /// Per-access port/driver wiring overhead of the small pipeline arrays
    /// (register file, window, LSQ, rename, predictor) (F). Wattch charges
    /// comparable fixed costs for port drivers and output wiring.
    pub c_array_port: f64,
    /// Effective switched capacitance of one 64-bit integer ALU operation (F).
    pub c_alu_op: f64,
    /// Effective switched capacitance of one multiply/divide step (F).
    pub c_mul_op: f64,
    /// Effective switched capacitance of one FP operation (F).
    pub c_fpu_op: f64,
    /// Result-bus capacitance per drive (F): long wires across the core.
    pub c_result_bus: f64,
    /// DRAM energy per access (J): row activation plus chip I/O, mid-90s
    /// 128 MB array.
    pub e_dram_access: f64,
    /// Global clock-tree capacitance (F): H-tree wire plus buffers for a
    /// ~17 x 18 mm R10000-class die.
    pub c_clock_tree: f64,
    /// Clocked (latch/precharge) capacitance per stored bit in pipeline
    /// structures, charged only while the owning unit is active (F).
    pub c_clock_per_bit: f64,
}

impl TechParams {
    /// Every field's bits, in declaration order.
    pub(crate) fn bits(&self) -> [u64; 18] {
        let TechParams {
            vdd,
            freq_hz,
            c_bitline_per_cell,
            c_wordline_per_cell,
            bitline_swing,
            c_senseamp,
            c_decoder_per_bit,
            c_output_per_bit,
            c_compare_per_bit,
            c_cam_per_bit,
            c_array_port,
            c_alu_op,
            c_mul_op,
            c_fpu_op,
            c_result_bus,
            e_dram_access,
            c_clock_tree,
            c_clock_per_bit,
        } = *self;
        [
            vdd,
            freq_hz,
            c_bitline_per_cell,
            c_wordline_per_cell,
            bitline_swing,
            c_senseamp,
            c_decoder_per_bit,
            c_output_per_bit,
            c_compare_per_bit,
            c_cam_per_bit,
            c_array_port,
            c_alu_op,
            c_mul_op,
            c_fpu_op,
            c_result_bus,
            e_dram_access,
            c_clock_tree,
            c_clock_per_bit,
        ]
        .map(f64::to_bits)
    }
}

impl Default for TechParams {
    fn default() -> Self {
        TechParams {
            vdd: 3.3,
            freq_hz: 200.0e6,
            c_bitline_per_cell: 4.4e-15,
            c_wordline_per_cell: 1.8e-15,
            bitline_swing: 0.5,
            c_senseamp: 10.0e-15,
            c_decoder_per_bit: 40.0e-15,
            c_output_per_bit: 18.0e-15,
            c_compare_per_bit: 3.0e-15,
            c_cam_per_bit: 2.0e-15,
            c_array_port: 50.0e-15 * 1000.0, // 50 pF => ~0.54 nJ/access
            c_alu_op: 600.0e-12 / (3.3 * 3.3), // ~55 pF => ~0.6 nJ/op
            c_mul_op: 1000.0e-12 / (3.3 * 3.3),
            c_fpu_op: 2000.0e-12 / (3.3 * 3.3),
            c_result_bus: 20.0e-12,
            e_dram_access: 40.0e-9,
            c_clock_tree: 260.0e-12,
            c_clock_per_bit: 0.9e-15,
        }
    }
}

impl TechParams {
    /// Projects the 0.35 µm reference constants to another technology
    /// point: capacitances scale linearly with feature size (constant
    /// field scaling), energies with `C·V²`, and clock power additionally
    /// with frequency. A first-order dennard-scaling projection — useful
    /// for "what would this machine burn at the next node" studies, not a
    /// substitute for per-node circuit data.
    pub fn scaled_to(&self, feature_um: f64, vdd: f64, freq_hz: f64) -> TechParams {
        assert!(feature_um > 0.0 && vdd > 0.0 && freq_hz > 0.0);
        let k = feature_um / 0.35;
        TechParams {
            vdd,
            freq_hz,
            c_bitline_per_cell: self.c_bitline_per_cell * k,
            c_wordline_per_cell: self.c_wordline_per_cell * k,
            bitline_swing: self.bitline_swing,
            c_senseamp: self.c_senseamp * k,
            c_decoder_per_bit: self.c_decoder_per_bit * k,
            c_output_per_bit: self.c_output_per_bit * k,
            c_compare_per_bit: self.c_compare_per_bit * k,
            c_cam_per_bit: self.c_cam_per_bit * k,
            c_array_port: self.c_array_port * k,
            c_alu_op: self.c_alu_op * k,
            c_mul_op: self.c_mul_op * k,
            c_fpu_op: self.c_fpu_op * k,
            c_result_bus: self.c_result_bus * k,
            // DRAM is off-chip; scale its core only mildly.
            e_dram_access: self.e_dram_access * (0.5 + 0.5 * k),
            c_clock_tree: self.c_clock_tree * k,
            c_clock_per_bit: self.c_clock_per_bit * k,
        }
    }

    /// Energy of a full-swing switch of capacitance `c` (J).
    #[inline]
    pub fn e_full(&self, c: f64) -> f64 {
        c * self.vdd * self.vdd
    }

    /// Energy of a bitline swing of capacitance `c` (J).
    #[inline]
    pub fn e_bitline(&self, c: f64) -> f64 {
        c * self.vdd * (self.vdd * self.bitline_swing)
    }

    /// Power of capacitance `c` switched once per cycle at `freq_hz` (W).
    #[inline]
    pub fn p_per_cycle(&self, c: f64) -> f64 {
        self.e_full(c) * self.freq_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_operating_point() {
        let t = TechParams::default();
        assert_eq!(t.vdd, 3.3);
        assert_eq!(t.freq_hz, 200.0e6);
    }

    #[test]
    fn energy_helpers_scale_quadratically_with_vdd() {
        let mut t = TechParams::default();
        let e1 = t.e_full(1.0e-12);
        t.vdd *= 2.0;
        let e2 = t.e_full(1.0e-12);
        assert!((e2 / e1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bitline_energy_is_partial_swing() {
        let t = TechParams::default();
        assert!(t.e_bitline(1.0e-12) < t.e_full(1.0e-12));
    }

    #[test]
    fn scaling_shrinks_energy_quadratically_with_vdd_and_linearly_with_feature() {
        let base = TechParams::default();
        // Same voltage/frequency, half the feature: half the energy.
        let shrunk = base.scaled_to(0.175, 3.3, 200.0e6);
        let e_base = base.e_full(base.c_alu_op);
        let e_shrunk = shrunk.e_full(shrunk.c_alu_op);
        assert!((e_shrunk / e_base - 0.5).abs() < 1e-9);
        // Lower voltage compounds quadratically.
        let low_v = base.scaled_to(0.35, 1.65, 200.0e6);
        let e_low = low_v.e_full(low_v.c_alu_op);
        assert!((e_low / e_base - 0.25).abs() < 1e-9);
    }

    #[test]
    fn alu_op_energy_is_fraction_of_nanojoule() {
        let t = TechParams::default();
        let e = t.e_full(t.c_alu_op);
        assert!(e > 0.05e-9 && e < 1.0e-9, "got {e}");
    }
}

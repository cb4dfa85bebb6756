//! Analytical model of IMP (Fujiki et al., ASPLOS 2018 \[21\]), the paper's
//! primary baseline: a general-purpose PIM built on the dot-product
//! capability of RRAM crossbars, computing in the analog domain with
//! ADC/DAC.
//!
//! Key modeling facts from the paper: 2,097,152 SIMD slots (one slot spans
//! 16 rows), 20 MHz, 494 mm², 416 W TDP, 32-bit integers only (no flexible
//! precision), operation merging possible but at higher ADC resolution
//! (more energy), and a router-based inter-slot network with higher
//! synchronization cost than Hyper-AP's neighbor interface (§VI-D).

use crate::reference::{record, OpKind, FIG15_IMP, FIG17_IMP};
use hyperap_model::config::IMP_SYSTEM;

/// Per-element operation tallies of a kernel (architecture-neutral).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelOps {
    /// Additions/subtractions/comparisons per element.
    pub adds: f64,
    /// Multiplications per element.
    pub muls: f64,
    /// Divisions per element.
    pub divs: f64,
    /// Square roots per element.
    pub sqrts: f64,
    /// Exponentials per element.
    pub exps: f64,
    /// Inter-slot word transfers per element.
    pub transfers: f64,
}

/// The IMP analytical performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpModel {
    /// Router-network latency per inter-slot word transfer, in ns (the
    /// "relatively higher synchronization cost" of §VI-D; several hops at
    /// 20 MHz).
    pub transfer_ns: f64,
}

impl Default for ImpModel {
    fn default() -> Self {
        // A handful of 20 MHz router cycles per hop, a few hops.
        ImpModel { transfer_ns: 400.0 }
    }
}

impl ImpModel {
    /// Per-operation latency (32-bit; IMP has no narrower precision).
    pub fn op_latency_ns(&self, op: OpKind) -> f64 {
        record(&FIG15_IMP, op)
            .or_else(|| record(&FIG17_IMP, op))
            .map(|r| r.latency_ns)
            .expect("known op")
    }

    /// Per-operation energy in joules per element.
    pub fn op_energy_j(&self, op: OpKind) -> f64 {
        let r = record(&FIG15_IMP, op)
            .or_else(|| record(&FIG17_IMP, op))
            .expect("known op");
        // power_eff = GOPS/W ⇒ energy per op = 1e-9 / power_eff.
        1e-9 / r.power_eff
    }

    /// Kernel execution time for `n` elements (seconds).
    pub fn kernel_time_s(&self, ops: &KernelOps, n: u64) -> f64 {
        let passes = (n as f64 / IMP_SYSTEM.simd_slots as f64).ceil();
        let per_pass_ns = ops.adds * self.op_latency_ns(OpKind::Add)
            + ops.muls * self.op_latency_ns(OpKind::Mul)
            + ops.divs * self.op_latency_ns(OpKind::Div)
            + ops.sqrts * self.op_latency_ns(OpKind::Sqrt)
            + ops.exps * self.op_latency_ns(OpKind::Exp)
            + ops.transfers * self.transfer_ns;
        passes * per_pass_ns * 1e-9
    }

    /// Kernel energy for `n` elements (joules).
    pub fn kernel_energy_j(&self, ops: &KernelOps, n: u64) -> f64 {
        let per_elem = ops.adds * self.op_energy_j(OpKind::Add)
            + ops.muls * self.op_energy_j(OpKind::Mul)
            + ops.divs * self.op_energy_j(OpKind::Div)
            + ops.sqrts * self.op_energy_j(OpKind::Sqrt)
            + ops.exps * self.op_energy_j(OpKind::Exp)
            // Router transfer energy: a few nJ per word at 32 bits.
            + ops.transfers * 2e-9;
        per_elem * n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_latencies_match_fig15_derivation() {
        let m = ImpModel::default();
        assert_eq!(m.op_latency_ns(OpKind::Add), 2_309.0);
        assert_eq!(m.op_latency_ns(OpKind::Mul), 57_568.0);
    }

    #[test]
    fn kernel_time_scales_with_passes() {
        let m = ImpModel::default();
        let ops = KernelOps {
            adds: 2.0,
            muls: 1.0,
            ..KernelOps::default()
        };
        let one_pass = m.kernel_time_s(&ops, 1_000_000);
        let two_pass = m.kernel_time_s(&ops, 3_000_000);
        assert!((two_pass / one_pass - 2.0).abs() < 1e-9);
    }

    #[test]
    fn energy_accumulates_per_element() {
        let m = ImpModel::default();
        let ops = KernelOps {
            muls: 1.0,
            ..KernelOps::default()
        };
        let e1 = m.kernel_energy_j(&ops, 1000);
        let e2 = m.kernel_energy_j(&ops, 2000);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
        assert!(e1 > 0.0);
    }

    #[test]
    fn division_energy_reflects_lut_method() {
        // IMP's LUT-based division is power-hungry: energy/op for Div is
        // far above Add (the 54× power-efficiency gap of Fig 15).
        let m = ImpModel::default();
        assert!(m.op_energy_j(OpKind::Div) > 50.0 * m.op_energy_j(OpKind::Add));
    }
}

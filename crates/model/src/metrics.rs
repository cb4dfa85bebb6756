//! Derived evaluation metrics: latency, throughput, power- and area-efficiency.
//!
//! These are the four y-axes of Figs 15-17 and 19. Throughput assumes every
//! SIMD slot carries one element (the peak-throughput setting of the paper's
//! synthetic benchmarks, §VI-C: "arithmetic operations that are performed in
//! one SIMD slot ... to show the peak computing performance").

use crate::area::AreaModel;
use crate::tech::TechParams;
use crate::timing::OpCounts;

/// The four evaluation metrics the paper reports per operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Latency of one operation in nanoseconds.
    pub latency_ns: f64,
    /// Throughput in giga-operations per second (GOPS).
    pub throughput_gops: f64,
    /// Power efficiency in GOPS per watt.
    pub power_eff_gops_w: f64,
    /// Area efficiency in GOPS per mm².
    pub area_eff_gops_mm2: f64,
}

impl Metrics {
    /// Compute the full metric set for an operation whose per-slot instruction
    /// stream is `ops`, on a chip described by `area` with technology `tech`.
    ///
    /// * latency = cycles × clock period
    /// * throughput = slots / latency
    /// * power = dynamic (per-PE energy / latency × PE count) + static
    /// * area efficiency = throughput / chip area
    pub fn compute(ops: &OpCounts, tech: &TechParams, area: &AreaModel) -> Metrics {
        let latency_ns = ops.latency_ns(tech);
        let slots = area.simd_slots() as f64;
        let pes = area.pe_count() as f64;
        let throughput_gops = slots / latency_ns; // ops per ns == GOPS
        let dyn_power_w = ops.energy_pj_per_pe(tech) * 1e-12 / (latency_ns * 1e-9) * pes;
        let static_power_w = tech.p_static_mw * 1e-3 * pes;
        let power_w = dyn_power_w + static_power_w;
        Metrics {
            latency_ns,
            throughput_gops,
            power_eff_gops_w: throughput_gops / power_w,
            area_eff_gops_mm2: throughput_gops / area.chip_area_mm2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add32_ops() -> OpCounts {
        // Representative Hyper-AP 32-bit add stream (≈ paper's operating
        // point: ~159 searches, 33 single-column writes).
        OpCounts {
            searches: 159,
            writes_single: 33,
            set_keys: 37,
            ..OpCounts::default()
        }
    }

    #[test]
    fn add32_latency_near_paper() {
        // Fig 19a: RRAM Hyper-AP 32-bit add latency = 592 ns.
        let m = Metrics::compute(&add32_ops(), &TechParams::rram(), &AreaModel::rram());
        assert!(
            (m.latency_ns - 592.0).abs() / 592.0 < 0.05,
            "latency = {}",
            m.latency_ns
        );
    }

    #[test]
    fn add32_throughput_near_paper() {
        // Fig 15: Hyper-AP 32-bit add throughput = 56,680 GOPS.
        let m = Metrics::compute(&add32_ops(), &TechParams::rram(), &AreaModel::rram());
        assert!(
            (m.throughput_gops - 56_680.0).abs() / 56_680.0 < 0.06,
            "throughput = {}",
            m.throughput_gops
        );
    }

    #[test]
    fn add32_power_efficiency_order_of_paper() {
        // Fig 15: Hyper-AP 32-bit add power efficiency = 233 GOPS/W.
        let m = Metrics::compute(&add32_ops(), &TechParams::rram(), &AreaModel::rram());
        assert!(
            m.power_eff_gops_w > 120.0 && m.power_eff_gops_w < 400.0,
            "power eff = {}",
            m.power_eff_gops_w
        );
    }
}

//! Table II system configurations: GPU (1-card), IMP, and Hyper-AP.

use crate::area::AreaModel;
use crate::tech::TechParams;

/// A system configuration row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Human-readable system name.
    pub name: &'static str,
    /// Number of SIMD slots.
    pub simd_slots: u64,
    /// Operating frequency in GHz.
    pub frequency_ghz: f64,
    /// Die area in mm².
    pub area_mm2: f64,
    /// Thermal design power in watts.
    pub tdp_w: f64,
    /// Memory description.
    pub memory: &'static str,
}

/// Table II, GPU column: Nvidia Titan XP (paper-reported, from \[21\]).
pub const GPU_TITAN_XP: SystemConfig = SystemConfig {
    name: "GPU (Titan XP)",
    simd_slots: 3840,
    frequency_ghz: 1.58,
    area_mm2: 471.0,
    tdp_w: 250.0,
    memory: "3MB L2 + 12GB DRAM",
};

/// Table II, IMP column (paper-reported, from \[21\]).
pub const IMP_SYSTEM: SystemConfig = SystemConfig {
    name: "IMP",
    simd_slots: 2_097_152,
    frequency_ghz: 0.020,
    area_mm2: 494.0,
    tdp_w: 416.0,
    memory: "1GB RRAM",
};

impl SystemConfig {
    /// Table II, Hyper-AP column, derived from this repository's area model.
    ///
    /// # Example
    /// ```
    /// let hp = hyperap_model::SystemConfig::hyper_ap();
    /// assert_eq!(hp.frequency_ghz, 1.0);
    /// ```
    pub fn hyper_ap() -> Self {
        let area = AreaModel::rram();
        SystemConfig {
            name: "Hyper-AP",
            simd_slots: area.simd_slots(),
            frequency_ghz: TechParams::rram().clock_ghz,
            area_mm2: area.chip_area_mm2,
            tdp_w: 335.0,
            memory: "1GB RRAM",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyper_ap_has_16x_imp_slots() {
        // Table II / §VI-B: Hyper-AP provides 16× more SIMD slots than IMP
        // under the same memory capacity.
        let ratio = SystemConfig::hyper_ap().simd_slots as f64 / IMP_SYSTEM.simd_slots as f64;
        assert!((ratio - 16.0).abs() < 0.8, "ratio = {ratio}");
    }

    #[test]
    fn hyper_ap_power_below_imp() {
        assert!(SystemConfig::hyper_ap().tdp_w < IMP_SYSTEM.tdp_w);
    }

    #[test]
    fn hyper_ap_area_similar_to_imp() {
        let hp = SystemConfig::hyper_ap();
        assert!(hp.area_mm2 < IMP_SYSTEM.area_mm2);
    }
}

//! Physical-design (area) constants from Fig 14 and Table II.
//!
//! The paper's PE is measured from a custom 32 nm physical design:
//! 53.12 µm × 49.72 µm, with the two 256×256 RRAM crossbar arrays
//! monolithically 3D-stacked on top of the CMOS circuits (so the arrays
//! consume no die area). A CMOS TCAM implementation has to pay array area in
//! silicon, which is why CMOS-based Hyper-AP ends up with far fewer SIMD
//! slots (§VI-E).

use crate::tech::Technology;

/// PE width in micrometres (Fig 14).
pub const PE_WIDTH_UM: f64 = 53.12;
/// PE height in micrometres (Fig 14).
pub const PE_HEIGHT_UM: f64 = 49.72;
/// Words (rows) per PE — one word is one SIMD slot (§IV-B).
pub const PE_ROWS: usize = 256;
/// Bits (columns) per PE word.
pub const PE_COLS: usize = 256;

/// Area model for one implementation technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Implementation technology.
    pub technology: Technology,
    /// Area of a single PE in square micrometres.
    pub pe_area_um2: f64,
    /// Total die area budget in square millimetres (Table II: 452 mm²).
    pub chip_area_mm2: f64,
    /// Fraction of the die usable for PEs (rest: controllers, instruction
    /// memories, dispatch units, global network).
    pub pe_area_fraction: f64,
}

impl AreaModel {
    /// RRAM-based Hyper-AP area model (Table II / Fig 14).
    ///
    /// The PE count is chosen so the chip exposes the paper's
    /// 33,554,432 SIMD slots (= 131,072 PEs × 256 rows) inside 452 mm².
    pub fn rram() -> Self {
        AreaModel {
            technology: Technology::Rram,
            pe_area_um2: PE_WIDTH_UM * PE_HEIGHT_UM,
            chip_area_mm2: 452.0,
            pe_area_fraction: 0.766,
        }
    }

    /// CMOS TCAM area model.
    ///
    /// A 16T CMOS ternary cell at 32 nm occupies roughly 60× the footprint of
    /// a 3D-stacked 1D1R pair (which is *free* in die area); the paper notes
    /// CMOS TCAM "has a much lower storage density, which substantially
    /// increases the PE area ... and reduces the number of SIMD slots"
    /// (§VI-E). Calibrated so the CMOS Hyper-AP throughput lands at the
    /// paper's ≈2.4 TOPS for 32-bit add (Fig 19a).
    pub fn cmos() -> Self {
        AreaModel {
            technology: Technology::Cmos,
            pe_area_um2: PE_WIDTH_UM * PE_HEIGHT_UM * 60.0,
            chip_area_mm2: 452.0,
            pe_area_fraction: 0.766,
        }
    }

    /// Number of PEs that fit in the chip budget.
    pub fn pe_count(&self) -> u64 {
        let usable_um2 = self.chip_area_mm2 * 1e6 * self.pe_area_fraction;
        (usable_um2 / self.pe_area_um2) as u64
    }

    /// Number of SIMD slots (word rows) the chip exposes.
    pub fn simd_slots(&self) -> u64 {
        self.pe_count() * PE_ROWS as u64
    }

    /// Memory capacity in bytes (each PE stores 256 × 256 TCAM bits).
    pub fn capacity_bytes(&self) -> u64 {
        self.pe_count() * (PE_ROWS * PE_COLS / 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_area_matches_fig14() {
        let a = AreaModel::rram();
        let expected = 53.12 * 49.72;
        assert!((a.pe_area_um2 - expected).abs() < 1e-9);
    }

    #[test]
    fn rram_slot_count_matches_table2() {
        // Table II: 33,554,432 SIMD slots. Our area model must land within 5%.
        let slots = AreaModel::rram().simd_slots() as f64;
        let paper = 33_554_432.0;
        assert!(
            (slots - paper).abs() / paper < 0.05,
            "slots = {slots}, paper = {paper}"
        );
    }

    #[test]
    fn cmos_has_far_fewer_slots() {
        assert!(AreaModel::cmos().simd_slots() * 10 < AreaModel::rram().simd_slots());
    }

    #[test]
    fn capacity_is_about_1gb() {
        // Table II: 1 GB RRAM.
        let bytes = AreaModel::rram().capacity_bytes() as f64;
        assert!(bytes > 0.95e9 && bytes < 1.15e9, "bytes = {bytes}");
    }
}

//! Memory-technology parameters (RRAM vs CMOS).
//!
//! All latencies are in controller clock cycles at [`TechParams::clock_ghz`]
//! (1 GHz for both technologies in the paper, §IV-A2 and §VI). The headline
//! asymmetry the paper builds on is `Twrite/Tsearch = 10` for RRAM versus `1`
//! for CMOS (§I contribution 5, §VI-E).

/// The memory technology an associative processor is built from.
///
/// The paper's execution-model improvements are generic, but benefit RRAM more
/// because of its asymmetric write/search latency (§VI-E, Fig 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technology {
    /// RRAM 2D2R TCAM (1D1R cells: one bidirectional diode + one RRAM element).
    Rram,
    /// CMOS TCAM (16T SRAM-style ternary cell).
    Cmos,
}

impl std::fmt::Display for Technology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Technology::Rram => write!(f, "RRAM"),
            Technology::Cmos => write!(f, "CMOS"),
        }
    }
}

/// Device/array-level timing and energy parameters for one technology.
///
/// Energy constants are per-PE per-operation (a PE is 256 words × 256 bits,
/// Fig 7) and were calibrated so the chip-level numbers derived for the
/// paper's Table II configuration reproduce the published 32-bit-add operating
/// point (≈56.7 TOPS at ≈233 GOPS/W for RRAM Hyper-AP, Fig 15); see
/// `DESIGN.md` §2.1 for the substitution rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct TechParams {
    /// Which technology these parameters describe.
    pub technology: Technology,
    /// Controller clock frequency in GHz (1 GHz in the paper).
    pub clock_ghz: f64,
    /// Latency of one search operation, in cycles (1 for both technologies).
    pub t_search_cycles: u64,
    /// Latency of programming one RRAM cell / one CMOS cell, in cycles.
    ///
    /// RRAM: 10 cycles (10 ns SET/RESET pulse, §VI-A3). CMOS: 1 cycle.
    pub t_cell_write_cycles: u64,
    /// Whether the two cells of one TCAM bit can be written in parallel.
    ///
    /// `true` for Hyper-AP's logical-unified-physical-separated dual-crossbar
    /// design (§IV-B); `false` for the monolithic array of prior work
    /// (\[56\]\[39\]), which must write the two cells sequentially.
    pub parallel_bit_write: bool,
    /// Energy of one search operation over a full PE, in picojoules.
    pub e_search_pj: f64,
    /// Energy of one associative column write over a full PE, in picojoules
    /// (per written TCAM cell column; an encoded write costs two of these).
    pub e_write_pj: f64,
    /// Energy of one key/mask register update, in picojoules.
    pub e_setkey_pj: f64,
    /// Energy of one reduction-tree operation (Count/Index), in picojoules.
    pub e_reduce_pj: f64,
    /// Energy of one inter-PE register move (MovR), in picojoules.
    pub e_movr_pj: f64,
    /// Static (leakage) power per PE, in milliwatts.
    pub p_static_mw: f64,
}

impl TechParams {
    /// Parameters for the RRAM-based implementation (the paper's primary one).
    ///
    /// # Example
    /// ```
    /// let p = hyperap_model::TechParams::rram();
    /// assert_eq!(p.write_search_ratio(), 10.0);
    /// ```
    pub fn rram() -> Self {
        TechParams {
            technology: Technology::Rram,
            clock_ghz: 1.0,
            t_search_cycles: 1,
            t_cell_write_cycles: 10,
            parallel_bit_write: true,
            e_search_pj: 3.0,
            e_write_pj: 19.0,
            e_setkey_pj: 0.4,
            e_reduce_pj: 1.2,
            e_movr_pj: 8.0,
            p_static_mw: 0.05,
        }
    }

    /// Parameters for a CMOS TCAM implementation.
    ///
    /// Search and write both complete in a single cycle
    /// (`Twrite/Tsearch = 1`, §VI-E). CMOS writes are cheap in energy but the
    /// 16T cell has far lower storage density (see [`crate::area`]).
    pub fn cmos() -> Self {
        TechParams {
            technology: Technology::Cmos,
            clock_ghz: 1.0,
            t_search_cycles: 1,
            t_cell_write_cycles: 1,
            parallel_bit_write: true,
            e_search_pj: 2.2,
            e_write_pj: 1.1,
            e_setkey_pj: 0.4,
            e_reduce_pj: 1.2,
            e_movr_pj: 5.0,
            p_static_mw: 0.12,
        }
    }

    /// RRAM parameters for the *monolithic* single-crossbar TCAM of prior
    /// work (\[56\]\[39\]): the two 1D1R cells of one TCAM bit share a write
    /// circuit and must be written sequentially, doubling write latency
    /// (§IV-B). Used by the Fig 19b ablation.
    pub fn rram_monolithic() -> Self {
        TechParams {
            parallel_bit_write: false,
            ..Self::rram()
        }
    }

    /// Latency in cycles of one associative write of a single TCAM bit
    /// column (both 1D1R cells), excluding instruction decode overhead.
    pub fn t_bit_write_cycles(&self) -> u64 {
        if self.parallel_bit_write {
            self.t_cell_write_cycles
        } else {
            2 * self.t_cell_write_cycles
        }
    }

    /// The α ratio between write and search latency used by the compiler's
    /// LUT-generation cost function (Eq. 2): `Twrite/Tsearch`.
    pub fn write_search_ratio(&self) -> f64 {
        self.t_bit_write_cycles() as f64 / self.t_search_cycles as f64
    }

    /// Clock period in nanoseconds.
    pub fn clock_period_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }
}

/// Paper-reported RRAM device characteristics (§VI-A3), kept for the
/// device-level TCAM model and documentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RramDevice {
    /// Low-resistance (SET) state, in ohms: 20 kΩ.
    pub r_on_ohm: f64,
    /// High-resistance (RESET) state, in ohms: 300 kΩ.
    pub r_off_ohm: f64,
    /// SET pulse: 1.9 V @ 10 ns.
    pub v_set: f64,
    /// RESET pulse: 1.6 V @ 10 ns.
    pub v_reset: f64,
    /// Write pulse width in nanoseconds.
    pub t_pulse_ns: f64,
    /// Diode turn-on voltage: 0.4 V.
    pub v_diode_on: f64,
}

impl Default for RramDevice {
    fn default() -> Self {
        RramDevice {
            r_on_ohm: 20_000.0,
            r_off_ohm: 300_000.0,
            v_set: 1.9,
            v_reset: 1.6,
            t_pulse_ns: 10.0,
            v_diode_on: 0.4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rram_write_search_ratio_is_ten() {
        assert_eq!(TechParams::rram().write_search_ratio(), 10.0);
    }

    #[test]
    fn cmos_write_search_ratio_is_one() {
        assert_eq!(TechParams::cmos().write_search_ratio(), 1.0);
    }

    #[test]
    fn monolithic_array_doubles_write_latency() {
        let dual = TechParams::rram();
        let mono = TechParams::rram_monolithic();
        assert_eq!(mono.t_bit_write_cycles(), 2 * dual.t_bit_write_cycles());
    }

    #[test]
    fn clock_is_one_ghz() {
        assert_eq!(TechParams::rram().clock_period_ns(), 1.0);
        assert_eq!(TechParams::cmos().clock_period_ns(), 1.0);
    }

    #[test]
    fn rram_device_defaults_match_paper() {
        let d = RramDevice::default();
        assert_eq!(d.r_on_ohm, 20e3);
        assert_eq!(d.r_off_ohm, 300e3);
        assert_eq!(d.v_set, 1.9);
        assert_eq!(d.v_reset, 1.6);
        assert_eq!(d.t_pulse_ns, 10.0);
        assert_eq!(d.v_diode_on, 0.4);
    }

    #[test]
    fn display_names() {
        assert_eq!(Technology::Rram.to_string(), "RRAM");
        assert_eq!(Technology::Cmos.to_string(), "CMOS");
    }
}

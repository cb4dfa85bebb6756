//! Paper-reported evaluation data (Figs 15-17).
//!
//! Provenance: the Hyper-AP columns are read directly from the figures of
//! Zha & Li, ISCA 2020; the IMP columns are derived from the same figures
//! (each Hyper-AP bar is annotated with its improvement over IMP, so
//! `IMP = Hyper-AP ∘ factor`). These constants exist so the benchmark
//! harness can print *paper vs measured* rows; all measured Hyper-AP values
//! are produced by this repository's simulator and compiler.

/// The evaluated arithmetic operations of Figs 15-17.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// 32/16-bit addition.
    Add,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Integer square root.
    Sqrt,
    /// Fixed-point exponential.
    Exp,
    /// Three consecutive additions (Fig 17 `Multi_Add`).
    MultiAdd,
    /// Addition with immediate operand (Fig 17 `Add_i`).
    AddImm,
    /// Multiplication with immediate operand (Fig 17 `Mul_i`).
    MulImm,
    /// Division with immediate operand (Fig 17 `Div_i`).
    DivImm,
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpKind::Add => "Add",
            OpKind::Mul => "Mul",
            OpKind::Div => "Div",
            OpKind::Sqrt => "Sqrt",
            OpKind::Exp => "Exp",
            OpKind::MultiAdd => "Multi_Add",
            OpKind::AddImm => "Add_i",
            OpKind::MulImm => "Mul_i",
            OpKind::DivImm => "Div_i",
        };
        write!(f, "{s}")
    }
}

/// One operation's performance record (the four y-axes of Figs 15-17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Operation.
    pub op: OpKind,
    /// Latency in nanoseconds.
    pub latency_ns: f64,
    /// Throughput in GOPS.
    pub throughput_gops: f64,
    /// Power efficiency in GOPS/W.
    pub power_eff: f64,
    /// Area efficiency in GOPS/mm².
    pub area_eff: f64,
}

/// Fig 15: Hyper-AP on 32-bit unsigned integers (paper-reported).
pub const FIG15_HYPER_AP: [OpRecord; 5] = [
    OpRecord {
        op: OpKind::Add,
        latency_ns: 592.0,
        throughput_gops: 56_680.0,
        power_eff: 233.0,
        area_eff: 126.0,
    },
    OpRecord {
        op: OpKind::Mul,
        latency_ns: 7_196.0,
        throughput_gops: 4_663.0,
        power_eff: 14.0,
        area_eff: 10.0,
    },
    OpRecord {
        op: OpKind::Div,
        latency_ns: 20_928.0,
        throughput_gops: 1_603.0,
        power_eff: 4.8,
        area_eff: 3.5,
    },
    OpRecord {
        op: OpKind::Sqrt,
        latency_ns: 58_661.0,
        throughput_gops: 572.0,
        power_eff: 1.7,
        area_eff: 1.3,
    },
    OpRecord {
        op: OpKind::Exp,
        latency_ns: 25_760.0,
        throughput_gops: 1_303.0,
        power_eff: 3.8,
        area_eff: 2.9,
    },
];

/// Fig 15: IMP (derived: Hyper-AP value ∘ reported improvement factor —
/// latency ×, others ÷).
pub const FIG15_IMP: [OpRecord; 5] = [
    OpRecord {
        op: OpKind::Add,
        latency_ns: 2_309.0,
        throughput_gops: 13_824.0,
        power_eff: 97.0,
        area_eff: 28.6,
    },
    OpRecord {
        op: OpKind::Mul,
        latency_ns: 57_568.0,
        throughput_gops: 2_332.0,
        power_eff: 10.0,
        area_eff: 4.5,
    },
    OpRecord {
        op: OpKind::Div,
        latency_ns: 142_310.0,
        throughput_gops: 668.0,
        power_eff: 0.089,
        area_eff: 1.4,
    },
    OpRecord {
        op: OpKind::Sqrt,
        latency_ns: 586_610.0,
        throughput_gops: 358.0,
        power_eff: 0.089,
        area_eff: 0.76,
    },
    OpRecord {
        op: OpKind::Exp,
        latency_ns: 115_920.0,
        throughput_gops: 383.0,
        power_eff: 0.070,
        area_eff: 0.78,
    },
];

/// Fig 16: Hyper-AP on 16-bit unsigned integers (paper-reported).
pub const FIG16_HYPER_AP: [OpRecord; 5] = [
    OpRecord {
        op: OpKind::Add,
        latency_ns: 292.0,
        throughput_gops: 114_910.0,
        power_eff: 473.0,
        area_eff: 254.0,
    },
    OpRecord {
        op: OpKind::Mul,
        latency_ns: 1_698.0,
        throughput_gops: 19_761.0,
        power_eff: 58.0,
        area_eff: 44.0,
    },
    OpRecord {
        op: OpKind::Div,
        latency_ns: 5_264.0,
        throughput_gops: 6_374.0,
        power_eff: 19.0,
        area_eff: 14.0,
    },
    OpRecord {
        op: OpKind::Sqrt,
        latency_ns: 13_689.0,
        throughput_gops: 2_451.0,
        power_eff: 7.3,
        area_eff: 5.4,
    },
    OpRecord {
        op: OpKind::Exp,
        latency_ns: 6_416.0,
        throughput_gops: 5_230.0,
        power_eff: 15.6,
        area_eff: 11.6,
    },
];

/// Fig 17: Hyper-AP on merged additions and immediate-operand operations
/// (32-bit, paper-reported). `Multi_Add` throughput counts three additions
/// per pass.
pub const FIG17_HYPER_AP: [OpRecord; 4] = [
    OpRecord {
        op: OpKind::MultiAdd,
        latency_ns: 1_322.0,
        throughput_gops: 76_145.0,
        power_eff: 422.0,
        area_eff: 168.0,
    },
    OpRecord {
        op: OpKind::AddImm,
        latency_ns: 493.0,
        throughput_gops: 68_062.0,
        power_eff: 291.0,
        area_eff: 151.0,
    },
    OpRecord {
        op: OpKind::MulImm,
        latency_ns: 3_324.0,
        throughput_gops: 10_095.0,
        power_eff: 30.0,
        area_eff: 22.0,
    },
    OpRecord {
        op: OpKind::DivImm,
        latency_ns: 17_248.0,
        throughput_gops: 1_945.0,
        power_eff: 5.8,
        area_eff: 4.3,
    },
];

/// Fig 17: IMP (derived from the reported factors).
pub const FIG17_IMP: [OpRecord; 4] = [
    OpRecord {
        op: OpKind::MultiAdd,
        latency_ns: 11_634.0,
        throughput_gops: 42_303.0,
        power_eff: 146.0,
        area_eff: 84.0,
    },
    OpRecord {
        op: OpKind::AddImm,
        latency_ns: 1_627.0,
        throughput_gops: 13_890.0,
        power_eff: 97.0,
        area_eff: 28.5,
    },
    OpRecord {
        op: OpKind::MulImm,
        latency_ns: 12_299.0,
        throughput_gops: 2_348.0,
        power_eff: 10.0,
        area_eff: 4.7,
    },
    OpRecord {
        op: OpKind::DivImm,
        latency_ns: 96_589.0,
        throughput_gops: 671.0,
        power_eff: 0.089,
        area_eff: 1.4,
    },
];

/// Fig 19a paper values for the 32-bit-addition AP comparison.
pub mod fig19 {
    /// RRAM Hyper-AP latency (ns).
    pub const R_HYPER_LATENCY_NS: f64 = 592.0;
    /// RRAM traditional-AP latency = 36× worse (§VI-E).
    pub const R_AP_LATENCY_FACTOR: f64 = 36.0;
    /// CMOS Hyper-AP latency (ns).
    pub const C_HYPER_LATENCY_NS: f64 = 232.0;
    /// CMOS traditional-AP latency = 13× worse.
    pub const C_AP_LATENCY_FACTOR: f64 = 13.0;
    /// Search-count reduction for 32-bit add (§III).
    pub const SEARCH_REDUCTION: f64 = 5.3;
    /// Write-count reduction for 32-bit add (§III).
    pub const WRITE_REDUCTION: f64 = 25.5;
    /// Fig 19b RRAM breakdown: share of the throughput gain from the
    /// additional search keys / TCAM array design / accumulation unit.
    pub const R_BREAKDOWN: [f64; 3] = [0.83, 0.15, 0.02];
    /// Fig 19b CMOS breakdown.
    pub const C_BREAKDOWN: [f64; 3] = [0.88, 0.11, 0.01];
}

/// Look up a record by op in a table.
pub fn record(table: &[OpRecord], op: OpKind) -> Option<OpRecord> {
    table.iter().copied().find(|r| r.op == op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_slots_over_latency() {
        // Internal consistency of the paper data: throughput ≈
        // 33,554,432 slots / latency (ns) for the single-op figures.
        for r in FIG15_HYPER_AP.iter().chain(&FIG16_HYPER_AP) {
            let derived = 33_554_432.0 / r.latency_ns;
            let rel = (derived - r.throughput_gops).abs() / r.throughput_gops;
            assert!(
                rel < 0.02,
                "{}: derived {derived} vs {}",
                r.op,
                r.throughput_gops
            );
        }
    }

    #[test]
    fn multi_add_counts_three_ops() {
        let r = record(&FIG17_HYPER_AP, OpKind::MultiAdd).unwrap();
        let derived = 3.0 * 33_554_432.0 / r.latency_ns;
        assert!((derived - r.throughput_gops).abs() / r.throughput_gops < 0.02);
    }

    #[test]
    fn headline_fig15_factors() {
        // "up to 4.1×, 54× and 4.4× improvement in throughput, power
        // efficiency and area efficiency" (§VI headline).
        let tput_max = FIG15_HYPER_AP
            .iter()
            .zip(&FIG15_IMP)
            .map(|(h, i)| h.throughput_gops / i.throughput_gops)
            .fold(0.0f64, f64::max);
        let peff_max = FIG15_HYPER_AP
            .iter()
            .zip(&FIG15_IMP)
            .map(|(h, i)| h.power_eff / i.power_eff)
            .fold(0.0f64, f64::max);
        let aeff_max = FIG15_HYPER_AP
            .iter()
            .zip(&FIG15_IMP)
            .map(|(h, i)| h.area_eff / i.area_eff)
            .fold(0.0f64, f64::max);
        assert!((tput_max - 4.1).abs() < 0.15, "{tput_max}");
        assert!((peff_max - 54.0).abs() < 2.0, "{peff_max}");
        assert!((aeff_max - 4.4).abs() < 0.15, "{aeff_max}");
    }

    #[test]
    fn sixteen_bit_add_scales_linearly() {
        // §VI-C: halving precision doubles addition throughput...
        let r32 = record(&FIG15_HYPER_AP, OpKind::Add).unwrap();
        let r16 = record(&FIG16_HYPER_AP, OpKind::Add).unwrap();
        let ratio = r16.throughput_gops / r32.throughput_gops;
        assert!(ratio > 1.8 && ratio < 2.2, "ratio {ratio}");
        // …and complex ops scale roughly quadratically.
        let m32 = record(&FIG15_HYPER_AP, OpKind::Mul).unwrap();
        let m16 = record(&FIG16_HYPER_AP, OpKind::Mul).unwrap();
        let mratio = m16.throughput_gops / m32.throughput_gops;
        assert!(mratio > 3.5 && mratio < 5.0, "ratio {mratio}");
    }
}

//! Traditional AP baseline and the Fig 19 ablation ladder.
//!
//! Four cumulative variants isolate each Hyper-AP contribution for the
//! Fig 19b breakdown:
//!
//! 1. [`ApVariant::Traditional`] — Single-Search-Single-Pattern +
//!    Single-Search-Single-Write, monolithic TCAM array (prior work
//!    \[56\]\[39\]).
//! 2. [`ApVariant::WithAccumulation`] — adds the accumulation unit:
//!    Multi-Search-Single-Write, but still single-pattern searches.
//! 3. [`ApVariant::WithDualArray`] — adds the logical-unified-physical-
//!    separated array (§IV-B): TCAM bit writes in one pulse instead of two.
//! 4. [`ApVariant::HyperAp`] — adds the extended search keys (Fig 5c):
//!    Single-Search-Multi-Pattern. The full system.

use hyperap_core::lut::{full_adder_lut, ExecutionModel};
use hyperap_model::area::AreaModel;
use hyperap_model::tech::{TechParams, Technology};
use hyperap_model::timing::OpCounts;

/// Ablation variant (cumulative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApVariant {
    /// Prior-work traditional AP.
    Traditional,
    /// + accumulation unit (Multi-Search-Single-Write).
    WithAccumulation,
    /// + dual-crossbar TCAM array (halved write latency).
    WithDualArray,
    /// + extended search keys (full Hyper-AP).
    HyperAp,
}

impl ApVariant {
    /// All variants, in cumulative order.
    pub const LADDER: [ApVariant; 4] = [
        ApVariant::Traditional,
        ApVariant::WithAccumulation,
        ApVariant::WithDualArray,
        ApVariant::HyperAp,
    ];
}

impl std::fmt::Display for ApVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ApVariant::Traditional => "traditional AP",
            ApVariant::WithAccumulation => "+ accumulation unit",
            ApVariant::WithDualArray => "+ dual-crossbar array",
            ApVariant::HyperAp => "+ extended search keys (Hyper-AP)",
        };
        write!(f, "{s}")
    }
}

/// Cost of a variant executing one operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantCost {
    /// Operation counts per element pass.
    pub ops: OpCounts,
    /// Latency in nanoseconds.
    pub latency_ns: f64,
    /// Chip throughput in GOPS.
    pub throughput_gops: f64,
}

/// Technology parameters a variant runs under.
pub fn variant_tech(variant: ApVariant, tech: Technology) -> TechParams {
    match (tech, variant) {
        (Technology::Rram, ApVariant::Traditional | ApVariant::WithAccumulation) => {
            TechParams::rram_monolithic()
        }
        (Technology::Rram, _) => TechParams::rram(),
        // CMOS TCAM writes both halves in one cycle regardless; the array
        // split does not change its timing.
        (Technology::Cmos, _) => TechParams::cmos(),
    }
}

/// Per-bit full-adder operation counts under a variant's execution model.
fn per_bit_counts(variant: ApVariant) -> OpCounts {
    let lut = full_adder_lut();
    match variant {
        ApVariant::Traditional => lut.op_counts(ExecutionModel::Traditional),
        ApVariant::WithAccumulation | ApVariant::WithDualArray => {
            // Single-pattern searches, but writes batched per output: the
            // search count of the traditional model with the write count of
            // the hyper model.
            let t = lut.op_counts(ExecutionModel::Traditional);
            let h = lut.op_counts(ExecutionModel::Hyper);
            OpCounts {
                searches: t.searches,
                set_keys: t.set_keys,
                writes_single: h.writes_single,
                writes_encoded: h.writes_encoded,
                ..OpCounts::default()
            }
        }
        ApVariant::HyperAp => lut.op_counts(ExecutionModel::Hyper),
    }
}

/// Ripple-adder cost of a `width`-bit addition under a variant.
pub fn add_cost(variant: ApVariant, width: usize, tech: Technology) -> VariantCost {
    let per_bit = per_bit_counts(variant);
    let ops = per_bit.repeated(width as u64);
    let params = variant_tech(variant, tech);
    let latency_ns = ops.latency_ns(&params);
    let area = match tech {
        Technology::Rram => AreaModel::rram(),
        Technology::Cmos => AreaModel::cmos(),
    };
    VariantCost {
        ops,
        latency_ns,
        throughput_gops: area.simd_slots() as f64 / latency_ns,
    }
}

/// The Fig 19a ladder for a `width`-bit addition.
pub fn ablation_ladder(width: usize, tech: Technology) -> Vec<(ApVariant, VariantCost)> {
    ApVariant::LADDER
        .iter()
        .map(|&v| (v, add_cost(v, width, tech)))
        .collect()
}

/// Fig 19b: fraction of the total throughput improvement contributed by
/// each step (accumulation unit, array design, search keys), derived from
/// the ladder's marginal gains.
pub fn breakdown(width: usize, tech: Technology) -> [f64; 3] {
    let ladder = ablation_ladder(width, tech);
    let t: Vec<f64> = ladder.iter().map(|(_, c)| c.throughput_gops).collect();
    let total = t[3] - t[0];
    if total <= 0.0 {
        return [0.0; 3];
    }
    [
        (t[1] - t[0]) / total, // accumulation unit
        (t[2] - t[1]) / total, // TCAM array design
        (t[3] - t[2]) / total, // additional search keys
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_traditional_full_adder_counts() {
        let c = per_bit_counts(ApVariant::Traditional);
        assert_eq!(c.searches, 7);
        assert_eq!(c.writes(), 7);
    }

    #[test]
    fn ladder_improves_monotonically_on_rram() {
        let ladder = ablation_ladder(32, Technology::Rram);
        for w in ladder.windows(2) {
            assert!(
                w[1].1.latency_ns <= w[0].1.latency_ns,
                "{} -> {}: {} vs {}",
                w[0].0,
                w[1].0,
                w[0].1.latency_ns,
                w[1].1.latency_ns
            );
        }
    }

    #[test]
    fn rram_benefits_more_than_cmos() {
        // §VI-E / Fig 19a: the execution model gains more on RRAM than CMOS
        // because of the asymmetric write latency.
        let gain = |tech| {
            let l = ablation_ladder(32, tech);
            l[0].1.latency_ns / l[3].1.latency_ns
        };
        let rram = gain(Technology::Rram);
        let cmos = gain(Technology::Cmos);
        assert!(rram > cmos, "RRAM {rram:.1}x vs CMOS {cmos:.1}x");
        assert!(rram > 3.0, "RRAM gain {rram:.1}x");
    }

    #[test]
    fn breakdown_shares_are_positive_and_sum_to_one() {
        // Fig 19b reports the search keys as the dominant share (83%); our
        // measured ladder attributes less to them because our *traditional*
        // baseline already cube-minimizes its lookup tables (7 searches per
        // full adder, exactly Fig 2b) — a smaller search gap than the
        // paper's internal traditional counts. All three contributions
        // remain positive on RRAM; EXPERIMENTS.md discusses the deviation.
        let b = breakdown(32, Technology::Rram);
        assert!(b.iter().all(|&x| x > 0.0), "{b:?}");
        let sum: f64 = b.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // On CMOS the keys' share must dominate the array share (which is
        // zero) and be positive.
        let c = breakdown(32, Technology::Cmos);
        assert!(c[2] > c[1], "{c:?}");
    }

    #[test]
    fn cmos_array_split_contributes_nothing() {
        // CMOS writes are single-cycle either way.
        let b = breakdown(32, Technology::Cmos);
        assert!(b[1].abs() < 1e-9, "array share on CMOS = {}", b[1]);
    }

    #[test]
    fn write_reduction_exceeds_search_reduction() {
        // §III: the write reduction is larger than the search reduction,
        // which is why RRAM benefits more (§VI-E).
        let t = add_cost(ApVariant::Traditional, 32, Technology::Rram).ops;
        let h = add_cost(ApVariant::HyperAp, 32, Technology::Rram).ops;
        let s_red = t.searches as f64 / h.searches as f64;
        let w_red = t.writes() as f64 / h.writes() as f64;
        assert!(w_red > s_red, "writes {w_red:.1}x vs searches {s_red:.1}x");
    }
}

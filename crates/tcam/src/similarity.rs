//! CAM-native similarity search: Hamming distance and progressive top-k.
//!
//! The search algebra of [`crate::key`] asks a *binary* question per row —
//! does every unmasked key bit match? — and the whole stack so far uses the
//! TCAM as a compute substrate for write-heavy arithmetic. This module asks
//! the *graded* question instead: **how many** unmasked key bits miss? That
//! count is the ternary generalization of Hamming distance (for fully
//! specified keys over {0,1} codes it is exactly Hamming distance), and it
//! is the primitive behind in-CAM similarity search and hyperdimensional
//! (HDC) associative memories.
//!
//! Two engine-shared definitions live here, so every implementation agrees
//! bit-for-bit:
//!
//! * **Distance.** For a compiled plan (see
//!   [`SearchKey::compile_plan`](crate::key::SearchKey::compile_plan)), the
//!   distance of row `r` is the number of in-range, unmasked plan entries
//!   `(col, bit)` whose key bit fails to match the stored cell
//!   ([`KeyBit::matches`]). Stored `X` matches every key bit and never
//!   contributes; `Masked` entries never contribute. A row matches a plain
//!   search exactly when its distance is zero.
//! * **Top-k schedule.** Hardware cannot sort; it *thresholds*. The top-k
//!   search runs rounds `r = 1, 2, …` with widening distance budgets
//!   `τ_r = 2^(r-1) − 1` (0, 1, 3, 7, …): each round evaluates one
//!   counter-threshold match across all rows in parallel and one global
//!   population count. The controller stops at the first round where the
//!   count reaches `k` — or where `τ_r` covers the maximum possible
//!   distance (every unmasked column missing). In hardware the winners
//!   are then read out of the final threshold mask. [`topk_schedule`] is
//!   this rule as a pure function of the distance multiset: it fixes the
//!   priced rounds, and scalar engines and tests use it to pin the
//!   word-parallel implementation.
//!
//! The word-parallel slab kernels implementing these semantics over 64 PEs
//! per machine word live on [`TcamSlab`](crate::TcamSlab)
//! ([`hamming_into`](crate::TcamSlab::hamming_into),
//! [`hamming_topk`](crate::TcamSlab::hamming_topk),
//! [`hamming_topk_multi`](crate::slab::hamming_topk_multi)); the scalar
//! per-PE reference over [`TcamArray`] is [`scalar_distances`]. How the
//! simulator *reads out* the winners is not part of these semantics: the
//! slab kernels select exactly the `k` nearest instead of gathering the
//! whole final mask, and return the same winners in the same order.
//!
//! **Faults:** distance is a property of the *stored* state, which already
//! has stuck-at bits enforced on every write path — so stuck cells perturb
//! distances identically in every engine. Transient match-line misses are
//! *not* modeled here: the accumulation loop is a counting operation over
//! stored charge, not a tag-register search, and keeping it ideal is what
//! makes distances a pure function of storage (see `DESIGN.md` §11).

use crate::array::TcamArray;
use crate::bit::KeyBit;

/// Distance budget of top-k round `r` (1-based): `2^(r-1) − 1`.
///
/// Saturates at `u32::MAX` for absurdly deep rounds so callers never
/// overflow (real schedules stop after `log2(cols)` rounds).
pub fn round_tau(round: usize) -> u32 {
    if round == 0 {
        return 0;
    }
    ((1u64 << (round - 1).min(32)) - 1).min(u32::MAX as u64) as u32
}

/// Outcome of the engine-shared progressive widening rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopkSchedule {
    /// Threshold rounds executed (≥ 1).
    pub rounds: usize,
    /// Distance budget of the final round: every candidate with distance
    /// ≤ `tau` is in the readout mask.
    pub tau: u32,
}

/// Evaluate the progressive top-k widening rule on a distance multiset.
///
/// `active` is the maximum possible distance (the number of in-range,
/// unmasked plan entries); `k` is the number of winners requested. Runs
/// rounds with budgets [`round_tau`] and stops at the first round where at
/// least `k` candidates fall within budget, or where the budget reaches
/// `active` (nothing further can appear). With fewer than `k` candidates
/// total, the schedule runs to full coverage.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn topk_schedule(distances: &[u32], active: u32, k: usize) -> TopkSchedule {
    assert!(k > 0, "top-k requires k >= 1");
    let mut r = 1;
    loop {
        let tau = round_tau(r);
        let within = distances.iter().filter(|&&d| d <= tau).count();
        if within >= k || tau >= active {
            return TopkSchedule { rounds: r, tau };
        }
        r += 1;
    }
}

/// Scalar per-PE reference: the distance of each of the first `rows` rows
/// of `array` to the compiled plan, by walking every cell.
///
/// This is deliberately the naive per-row, per-column loop — the
/// word-parallel slab kernel is benchmarked against it.
///
/// # Panics
///
/// Panics if `rows` exceeds the array's row count.
pub fn scalar_distances(array: &TcamArray, plan: &[(usize, KeyBit)], rows: usize) -> Vec<u32> {
    assert!(rows <= array.rows(), "row limit exceeds array");
    let mut out = vec![0u32; rows];
    for (row, d) in out.iter_mut().enumerate() {
        let mut miss = 0u32;
        for &(col, bit) in plan {
            if col >= array.cols() || bit == KeyBit::Masked {
                continue;
            }
            if !bit.matches(array.cell(row, col)) {
                miss += 1;
            }
        }
        *d = miss;
    }
    out
}

/// Number of in-range, unmasked entries of a compiled plan — the maximum
/// possible distance for storage of `cols` columns.
pub fn active_entries(plan: &[(usize, KeyBit)], cols: usize) -> u32 {
    plan.iter()
        .filter(|&&(col, bit)| col < cols && bit != KeyBit::Masked)
        .count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::TernaryBit;
    use crate::key::SearchKey;

    #[test]
    fn tau_schedule_doubles() {
        assert_eq!(round_tau(1), 0);
        assert_eq!(round_tau(2), 1);
        assert_eq!(round_tau(3), 3);
        assert_eq!(round_tau(4), 7);
        assert_eq!(round_tau(40), u32::MAX);
    }

    #[test]
    fn scalar_distance_counts_misses() {
        let mut a = TcamArray::new(4, 8);
        // Row 0: 0b0000_0000 (all cells 0). Row 1: cols 0..4 = 1.
        for col in 0..4 {
            a.set_cell(1, col, TernaryBit::One);
        }
        // Row 2: col 0 = X (matches anything).
        a.set_cell(2, 0, TernaryBit::X);
        let key = SearchKey::parse("1111----").unwrap();
        let plan = key.compile_plan();
        let d = scalar_distances(&a, &plan, 4);
        assert_eq!(d, vec![4, 0, 3, 4]);
        assert_eq!(active_entries(&plan, 8), 4);
    }

    #[test]
    fn masked_and_out_of_range_entries_are_free() {
        let a = TcamArray::new(2, 4);
        let plan = vec![(0, KeyBit::One), (9, KeyBit::One), (1, KeyBit::Masked)];
        assert_eq!(scalar_distances(&a, &plan, 2), vec![1, 1]);
        assert_eq!(active_entries(&plan, 4), 1);
    }

    #[test]
    fn schedule_stops_at_k_or_coverage() {
        // distances 0,0,2,5 with active 6.
        let d = [0, 0, 2, 5];
        assert_eq!(topk_schedule(&d, 6, 2), TopkSchedule { rounds: 1, tau: 0 });
        assert_eq!(topk_schedule(&d, 6, 3), TopkSchedule { rounds: 3, tau: 3 });
        // k=4 needs τ ≥ 5 → round 4 (τ=7 ≥ active… τ=7 also covers).
        assert_eq!(topk_schedule(&d, 6, 4), TopkSchedule { rounds: 4, tau: 7 });
        // More winners requested than candidates: run to coverage.
        assert_eq!(topk_schedule(&d, 6, 9), TopkSchedule { rounds: 4, tau: 7 });
        // Fully masked query: one round, everything within.
        assert_eq!(topk_schedule(&d, 0, 9), TopkSchedule { rounds: 1, tau: 0 });
    }
}

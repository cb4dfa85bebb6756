//! Batch similarity-search API shared by both engines.
//!
//! [`ApMachine`](crate::ApMachine) (scalar, per-PE) and
//! [`SlabMachine`](crate::SlabMachine) (word-parallel bit-plane kernels)
//! both expose `hamming_topk` / `nearest` with **identical results and
//! identical [`RunStats`] accounting** — the types and the engine-shared
//! accounting rule live here, the per-engine kernels next to the engines
//! they belong to.
//!
//! # Architectural model
//!
//! A similarity query is a read-only batch operation, not an instruction
//! stream: the controller broadcasts the query once, every group drives
//! its PEs through the same column sequence, and the progressive top-k
//! rounds synchronize on a global population count. The priced operations
//! (per group, mirroring how every group executes the full query):
//!
//! * one `sim_accums` per in-range unmasked query bit — a match-line
//!   evaluation plus a ripple-carry update of the per-row counter latches;
//! * one `sim_rounds` per threshold round of the engine-shared widening
//!   schedule ([`hyperap_tcam::similarity::topk_schedule`]) — a
//!   counter-threshold search plus a global count reduction.
//!
//! The slab kernel's host-side work is *simulator* optimization, never
//! priced ([`hamming_topk_multi`](hyperap_tcam::slab::hamming_topk_multi)):
//! `PlaneSummary`-based column pruning (real hardware still drives every
//! column), Harley–Seal carry-save accumulation of the surviving columns
//! into register-resident counter blocks, and an exact select of the `k`
//! nearest in place of reading out the final threshold mask. None of it
//! changes the priced counts, which come from the plan and the shared
//! schedule alone — which is exactly what keeps the two engines' stats
//! bit-identical.
//!
//! # Faults
//!
//! Distances are a function of stored state, where stuck-at bits are
//! already enforced — so a seeded fault model perturbs every engine's
//! distances identically. Transient search misses model a tag-register
//! search failing for one epoch; the counter accumulation reads match-line
//! charge, not tags, and stays ideal (see `DESIGN.md` §11). Queries
//! advance no epoch and cause no wear.

use crate::config::ArchConfig;
use crate::stats::{RunGeometry, RunStats};
use hyperap_model::timing::OpCounts;

/// One similarity winner: a stored word identified by machine-global PE
/// and row, with its distance to the query.
///
/// The derived ordering is ascending `(distance, pe, row)` — the
/// deterministic tie-break every engine sorts winners by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimilarityHit {
    /// Ternary Hamming distance to the query (number of unmasked query
    /// bits the stored word misses).
    pub distance: u32,
    /// Machine-global PE index.
    pub pe: u32,
    /// Row within the PE.
    pub row: u32,
}

/// Result of a batch similarity query: the winners plus the priced run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityOutcome {
    /// Top-k winners, ascending `(distance, pe, row)`; fewer than `k`
    /// only when the machine holds fewer candidates.
    pub hits: Vec<SimilarityHit>,
    /// Per-group operation/cycle accounting of the query.
    pub stats: RunStats,
}

impl SimilarityOutcome {
    /// The single best match, if any candidate exists.
    pub fn best(&self) -> Option<&SimilarityHit> {
        self.hits.first()
    }
}

/// The engine-shared [`RunStats`] of one similarity query: every group
/// runs `active` column accumulations and `rounds` threshold rounds, and
/// the group clock is exactly the priced cycle count (the batch query is
/// the only thing running).
pub(crate) fn query_stats(
    config: &ArchConfig,
    active: u32,
    rounds: usize,
    geometry: Option<RunGeometry>,
) -> RunStats {
    let ops = OpCounts {
        sim_accums: active as u64,
        sim_rounds: rounds as u64,
        ..OpCounts::default()
    };
    let cycles = ops.cycles(&config.tech);
    RunStats {
        group_cycles: vec![cycles; config.groups],
        group_ops: vec![ops; config.groups],
        count_results: vec![Vec::new(); config.groups],
        index_results: vec![Vec::new(); config.groups],
        pe_health: Vec::new(),
        geometry,
    }
}

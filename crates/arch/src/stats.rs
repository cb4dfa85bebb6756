//! Execution statistics: cycles, energy, and reduction results.

use hyperap_model::timing::OpCounts;

/// Degradation report for one PE that has retired columns onto spares.
///
/// Emitted by the end-of-run endurance service (see
/// `ArchConfig::faults`); PEs with an empty retirement log are omitted
/// from [`RunStats::pe_health`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeHealth {
    /// Global PE id.
    pub pe: usize,
    /// Retirement log in order: `(logical column, spare device id)`.
    pub retired: Vec<(u16, u16)>,
    /// Spare columns this PE still has available.
    pub spares_left: u16,
}

/// The slab engine's resolved execution geometry for one run — a
/// diagnostic record of how the word-parallel kernels were shaped, logged
/// in [`RunStats::geometry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunGeometry {
    /// PEs per slab chunk (64-aligned by default so every chunk sweeps
    /// whole PE words).
    pub chunk_pes: usize,
    /// Chunks per group.
    pub chunks_per_group: usize,
    /// 64-bit PE words per chunk plane row (`chunk_pes.div_ceil(64)`).
    pub pe_words: usize,
}

/// Results of one [`crate::ApMachine::run`] or [`crate::SlabMachine::run`].
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Cycle at which each group finished its stream.
    pub group_cycles: Vec<u64>,
    /// Per-group operation counts (aggregated over the group's PEs; one
    /// SIMD instruction counts once, as in the paper's analytical model).
    pub group_ops: Vec<OpCounts>,
    /// `Count` results per group: `(pe_id, count)` pairs in program order.
    pub count_results: Vec<Vec<(usize, usize)>>,
    /// `Index` results per group: `(pe_id, first_index)` pairs.
    pub index_results: Vec<Vec<(usize, Option<usize>)>>,
    /// Per-PE fault degradation, ascending by PE id; empty when no fault
    /// model is active or no PE has retired a column yet.
    pub pe_health: Vec<PeHealth>,
    /// Execution-geometry log (slab engine only; `None` from the
    /// interpreter). Diagnostic — excluded from `PartialEq`, so cross-engine
    /// result comparisons are unaffected.
    pub geometry: Option<RunGeometry>,
}

/// Architectural results only: `geometry` is an engine diagnostic, not a
/// result, so two engines that computed identical answers compare equal
/// regardless of how their kernels were chunked.
impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        self.group_cycles == other.group_cycles
            && self.group_ops == other.group_ops
            && self.count_results == other.count_results
            && self.index_results == other.index_results
            && self.pe_health == other.pe_health
    }
}

impl RunStats {
    /// Machine makespan: the cycle at which the last group finished.
    pub fn makespan(&self) -> u64 {
        self.group_cycles.iter().copied().max().unwrap_or(0)
    }
}

//! Machine geometry configuration.

use hyperap_model::tech::TechParams;
use hyperap_tcam::FaultModel;

/// Former slab-engine threading policy. Both machines always run on
/// their caller's thread; the only variant has no effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Run on the calling thread (the only behaviour).
    #[default]
    Sequential,
}

/// Default slab chunk width for a group of `per` PEs: one chunk per group,
/// rounded up to a whole number of 64-PE words so every kernel sweep
/// processes full `u64` PE words with no tail masking. The result does not
/// depend on the host.
pub fn default_chunk_pes(per: usize) -> usize {
    per.max(1).next_multiple_of(64)
}

/// Fault-injection policy for a machine: the deterministic cell/search
/// fault model plus the column-sparing budget every PE reserves.
///
/// The default (no faults, no spares) compiles the engines down to
/// exactly the fault-free kernels — `bench_guard` holds the zero-fault
/// path to the fault-free baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Seeded fault model shared by every PE (each PE derives its own
    /// faults from its global id).
    pub model: FaultModel,
    /// Spare columns each PE reserves for endurance-driven retirement.
    pub spare_cols: usize,
}

impl FaultConfig {
    /// True when any fault mechanism can fire; false means the machines
    /// skip fault bookkeeping entirely.
    pub fn is_active(&self) -> bool {
        self.model.is_active()
    }
}

/// The `HYPERAP_FAULTS` override: a comma-separated
/// `seed=42,stuck=100,miss=50,limit=1000,spares=4` list (all fields
/// optional; unknown keys and malformed values are ignored). Returns
/// `None` when the variable is unset or names no fault mechanism, so the
/// zero-fault fast path stays on by default.
pub fn env_faults() -> Option<FaultConfig> {
    let raw = std::env::var("HYPERAP_FAULTS").ok()?;
    let mut cfg = FaultConfig::default();
    for item in raw.split(',') {
        let Some((key, value)) = item.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "seed" => {
                if let Ok(v) = value.parse() {
                    cfg.model.seed = v;
                }
            }
            "stuck" => {
                if let Ok(v) = value.parse() {
                    cfg.model.stuck_per_million = v;
                }
            }
            "miss" => {
                if let Ok(v) = value.parse() {
                    cfg.model.miss_per_million = v;
                }
            }
            "limit" => {
                if let Ok(v) = value.parse() {
                    cfg.model.endurance_limit = Some(v);
                }
            }
            "spares" => {
                if let Ok(v) = value.parse() {
                    cfg.spare_cols = v;
                }
            }
            _ => {}
        }
    }
    cfg.is_active().then_some(cfg)
}

/// Geometry and technology of a simulated Hyper-AP machine.
///
/// The paper's full chip (131,072 PEs) is impractical to simulate
/// functionally; simulations use scaled-down geometries and chip-level
/// numbers are obtained by scaling per-PE results with
/// [`hyperap_model::AreaModel`] (the paper itself computes performance
/// analytically from compilation results, §VI-A3).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// Number of instruction-stream groups (the 8-bit group mask bounds
    /// banks-per-group gating, §IV-A11).
    pub groups: usize,
    /// Banks per group.
    pub banks_per_group: usize,
    /// Subarrays per bank.
    pub subarrays_per_bank: usize,
    /// PEs per subarray.
    pub pes_per_subarray: usize,
    /// Word rows per PE (SIMD slots).
    pub rows: usize,
    /// Bit columns per PE.
    pub cols: usize,
    /// Memory technology parameters.
    pub tech: TechParams,
    /// Optional explicit PE-mesh shape for `MovR` (rows, cols); when unset
    /// the PEs form a near-square grid.
    pub mesh: Option<(usize, usize)>,
    /// Has no effect: both machines always run on their caller's thread.
    /// Kept only so the benchmark harness, which assigns it, still builds.
    pub exec: ExecMode,
    /// Fault-injection policy; the default injects nothing and keeps the
    /// engines on their fault-free kernels. The named constructors
    /// ([`tiny`](Self::tiny), [`single_pe`](Self::single_pe),
    /// [`paper_scaled`](Self::paper_scaled)) honor the `HYPERAP_FAULTS`
    /// override (see [`env_faults`]), so any example or benchmark binary
    /// can be rerun under a seeded fault model without code changes.
    pub faults: FaultConfig,
}

impl ArchConfig {
    /// A small geometry for tests and examples: 2 groups × 1 bank ×
    /// 2 subarrays × 2 PEs of 16×64.
    pub fn tiny() -> Self {
        ArchConfig {
            groups: 2,
            banks_per_group: 1,
            subarrays_per_bank: 2,
            pes_per_subarray: 2,
            rows: 16,
            cols: 64,
            tech: TechParams::rram(),
            mesh: None,
            exec: ExecMode::Sequential,
            faults: env_faults().unwrap_or_default(),
        }
    }

    /// A single-group, single-PE machine with full 256-column PEs — the
    /// geometry used for the peak-performance synthetic benchmarks (§VI-C:
    /// "arithmetic operations that are performed in one SIMD slot ... no
    /// inter-PE communication").
    pub fn single_pe(rows: usize) -> Self {
        ArchConfig {
            groups: 1,
            banks_per_group: 1,
            subarrays_per_bank: 1,
            pes_per_subarray: 1,
            rows,
            cols: 256,
            tech: TechParams::rram(),
            mesh: None,
            exec: ExecMode::Sequential,
            faults: env_faults().unwrap_or_default(),
        }
    }

    /// A scaled-down rendition of the paper's hierarchy (Fig 6): 8 groups,
    /// each with 1 bank of 8 subarrays × 8 PEs (the real chip has many more
    /// banks; the shape is preserved).
    pub fn paper_scaled(rows: usize) -> Self {
        ArchConfig {
            groups: 8,
            banks_per_group: 1,
            subarrays_per_bank: 8,
            pes_per_subarray: 8,
            rows,
            cols: 256,
            tech: TechParams::rram(),
            mesh: None,
            exec: ExecMode::Sequential,
            faults: env_faults().unwrap_or_default(),
        }
    }

    /// Total number of PEs.
    pub fn total_pes(&self) -> usize {
        self.groups * self.banks_per_group * self.subarrays_per_bank * self.pes_per_subarray
    }

    /// PEs per group.
    pub fn pes_per_group(&self) -> usize {
        self.banks_per_group * self.subarrays_per_bank * self.pes_per_subarray
    }

    /// PEs per bank.
    pub fn pes_per_bank(&self) -> usize {
        self.subarrays_per_bank * self.pes_per_subarray
    }

    /// The PE-mesh dimensions for `MovR`: PEs are arranged row-major,
    /// either in the explicitly configured shape or a near-square grid.
    pub fn mesh_dims(&self) -> (usize, usize) {
        if let Some(m) = self.mesh {
            return m;
        }
        let n = self.total_pes();
        let w = (n as f64).sqrt().ceil() as usize;
        let h = n.div_ceil(w);
        (h, w)
    }

    /// Everything that shapes compiled code and results: the full PE
    /// hierarchy, array dimensions, the resolved mesh shape, and the tech
    /// timing constants the trace compiler bakes into step cycle counts
    /// ([`hyperap_isa::Instruction::cycles`]). Two configs compile any
    /// stream to interchangeable traces iff these arrays are equal, which
    /// makes this the geometry witness of a checkpoint manifest. Fault
    /// seeding is deliberately excluded: it does not change what a
    /// compiled trace *is*.
    pub fn geometry_fields(&self) -> [u64; 10] {
        let (mh, mw) = self.mesh_dims();
        [
            self.groups as u64,
            self.banks_per_group as u64,
            self.subarrays_per_bank as u64,
            self.pes_per_subarray as u64,
            self.rows as u64,
            self.cols as u64,
            mh as u64,
            mw as u64,
            self.tech.t_search_cycles,
            self.tech.t_bit_write_cycles(),
        ]
    }

    /// Bank index (within its group) owning a PE id.
    pub fn bank_of(&self, pe: usize) -> usize {
        pe % self.pes_per_group() / self.pes_per_bank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_counts() {
        let c = ArchConfig::tiny();
        assert_eq!(c.total_pes(), 8);
        assert_eq!(c.pes_per_group(), 4);
    }

    #[test]
    fn mesh_covers_all_pes() {
        let c = ArchConfig::paper_scaled(16);
        let (h, w) = c.mesh_dims();
        assert!(h * w >= c.total_pes());
    }

    #[test]
    fn group_and_bank_indexing() {
        let c = ArchConfig::tiny();
        assert_eq!(c.bank_of(5), 0);
    }
}

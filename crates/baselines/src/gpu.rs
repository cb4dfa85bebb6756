//! Nvidia Titan XP reference model (Table II).
//!
//! The paper obtains GPU results from \[21\] and \[4\]; its reported GPU
//! latency "contains the off-chip memory access time and the latency of
//! arithmetic operations" (Fig 15 caption). These figures are
//! *reconstructed* from device characteristics (3840 CUDA cores at
//! 1.58 GHz, 250 W, 471 mm², GDDR5X latency) — they provide the GPU series
//! shape for the regenerated figures, not paper-exact values.

use crate::imp::KernelOps;
use crate::reference::{OpKind, OpRecord};
use hyperap_model::config::GPU_TITAN_XP;

/// GPU model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Off-chip memory round-trip latency in ns (GDDR5X).
    pub memory_latency_ns: f64,
    /// Effective memory bandwidth in GB/s.
    pub bandwidth_gb_s: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel {
            memory_latency_ns: 400.0,
            bandwidth_gb_s: 547.0,
        }
    }
}

impl GpuModel {
    /// Instruction issue cycles per operation (SM-level throughput cost;
    /// int32 add ≈ 1, mul ≈ 1, div/sqrt/exp via multi-instruction
    /// sequences, cf. \[4\]).
    fn op_cycles(op: OpKind) -> f64 {
        match op {
            OpKind::Add | OpKind::AddImm => 1.0,
            OpKind::MultiAdd => 3.0,
            OpKind::Mul | OpKind::MulImm => 1.0,
            OpKind::Div | OpKind::DivImm => 20.0,
            OpKind::Sqrt => 8.0,
            OpKind::Exp => 12.0,
        }
    }

    /// Peak throughput for an operation in GOPS (compute-bound; the
    /// streaming benchmarks are usually bandwidth-bound, see
    /// [`streaming_throughput_gops`](Self::streaming_throughput_gops)).
    pub fn compute_throughput_gops(&self, op: OpKind) -> f64 {
        GPU_TITAN_XP.simd_slots as f64 * GPU_TITAN_XP.frequency_ghz / Self::op_cycles(op)
    }

    /// Memory-bound throughput for one 32-bit-in/32-bit-out streaming
    /// operation (two operands read, one result written = 12 bytes/op).
    pub fn streaming_throughput_gops(&self, op: OpKind) -> f64 {
        let bytes_per_op = 12.0;
        let mem = self.bandwidth_gb_s / bytes_per_op; // G-ops/s
        mem.min(self.compute_throughput_gops(op))
    }

    /// A full [`OpRecord`] for the figure tables.
    pub fn record(&self, op: OpKind) -> OpRecord {
        let throughput = self.streaming_throughput_gops(op);
        OpRecord {
            op,
            latency_ns: self.memory_latency_ns + Self::op_cycles(op) / GPU_TITAN_XP.frequency_ghz,
            throughput_gops: throughput,
            power_eff: throughput / GPU_TITAN_XP.tdp_w,
            area_eff: throughput / GPU_TITAN_XP.area_mm2,
        }
    }

    /// Kernel time for `n` elements (seconds): max of compute and memory
    /// time (roofline).
    pub fn kernel_time_s(&self, ops: &KernelOps, n: u64) -> f64 {
        let cycles = ops.adds * Self::op_cycles(OpKind::Add)
            + ops.muls * Self::op_cycles(OpKind::Mul)
            + ops.divs * Self::op_cycles(OpKind::Div)
            + ops.sqrts * Self::op_cycles(OpKind::Sqrt)
            + ops.exps * Self::op_cycles(OpKind::Exp);
        let compute_s =
            cycles * n as f64 / (GPU_TITAN_XP.simd_slots as f64 * GPU_TITAN_XP.frequency_ghz * 1e9);
        // Each element streams in/out once plus neighbour traffic.
        let bytes = (12.0 + 4.0 * ops.transfers) * n as f64;
        let memory_s = bytes / (self.bandwidth_gb_s * 1e9);
        compute_s.max(memory_s)
    }

    /// Kernel energy for `n` elements (joules): TDP × time (the GPU runs at
    /// high utilization for these data-parallel kernels).
    pub fn kernel_energy_j(&self, ops: &KernelOps, n: u64) -> f64 {
        GPU_TITAN_XP.tdp_w * self.kernel_time_s(ops, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_bandwidth_bound() {
        let g = GpuModel::default();
        assert!(g.streaming_throughput_gops(OpKind::Add) < g.compute_throughput_gops(OpKind::Add));
    }

    #[test]
    fn div_is_slower_than_add() {
        let g = GpuModel::default();
        assert!(g.compute_throughput_gops(OpKind::Div) < g.compute_throughput_gops(OpKind::Add));
        assert!(g.record(OpKind::Div).latency_ns > g.record(OpKind::Add).latency_ns);
    }

    #[test]
    fn latency_dominated_by_memory() {
        // Fig 15 caption: GPU latency contains the off-chip access time.
        let g = GpuModel::default();
        let r = g.record(OpKind::Add);
        assert!(r.latency_ns >= g.memory_latency_ns);
    }

    #[test]
    fn kernel_roofline_behaviour() {
        let g = GpuModel::default();
        // A div-heavy kernel is compute-bound; a copy-like kernel is
        // bandwidth-bound.
        let divs = KernelOps {
            divs: 50.0,
            ..KernelOps::default()
        };
        let adds = KernelOps {
            adds: 1.0,
            ..KernelOps::default()
        };
        let n = 10_000_000;
        assert!(g.kernel_time_s(&divs, n) > g.kernel_time_s(&adds, n));
    }
}

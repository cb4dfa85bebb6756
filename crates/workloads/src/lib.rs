//! Benchmarks for the Hyper-AP evaluation (§VI-A1).
//!
//! * [`synthetic`] — the first benchmark set: representative arithmetic
//!   operations executed in one SIMD slot with no inter-PE communication,
//!   showing peak compute performance (Figs 15-17). Each operation is built
//!   from the expert microcode (the paper's hand-optimized RTL library) and
//!   functionally validated against 64-bit host arithmetic.
//! * [`kernels`] — the second set: Rodinia-style kernels expressed in the
//!   C-like language, compiled by the full compilation framework, and
//!   validated against scalar Rust references (Fig 18). Native data sets are
//!   replaced by seeded synthetic generators (see `DESIGN.md` §2.3);
//!   floating-point math is converted to fixed point as in the paper.
//! * [`perf`] — chip-level performance extraction: turns per-slot operation
//!   counts into the latency/throughput/efficiency metrics and compares
//!   against the IMP and GPU baseline models.
//! * [`similarity`] — search-dominated workloads driving the CAM-native
//!   similarity API: Hamming top-k over stored binary codes and a
//!   binarized-HDC classifier, each with a pure-host scalar reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod perf;
pub mod similarity;
pub mod synthetic;

pub use kernels::{all_kernels, Kernel};
pub use synthetic::{measure_op, SyntheticOp};

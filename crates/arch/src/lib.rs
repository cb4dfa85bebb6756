//! The hierarchical Hyper-AP micro-architecture simulator (§IV-B, Fig 6/7).
//!
//! The machine is organized as **groups → banks → subarrays → PEs**:
//!
//! * Banks in the same group share one instruction memory and dispatch unit
//!   and execute the same instruction stream (SIMD); different groups run
//!   different streams (ILP / multi-tenancy), making the whole chip MIMD.
//! * A group's `Broadcast` instruction sets the group-mask register that
//!   gates which of its banks execute the following instructions.
//! * Each subarray has a local controller that drives the shared key/mask
//!   registers of its PEs; each PE is a 256×256 TCAM with tags, accumulation
//!   unit, two-bit encoder, and reduction tree ([`hyperap_core::HyperPe`]).
//! * Each PE owns a 256-bit data register. `ReadTag`/`SetTag` move data
//!   between tags and the data register; `MovR` shifts data registers across
//!   the PE mesh (the low-cost, low-latency neighbor interface of §IV-B);
//!   `ReadR`/`WriteR` connect the global data path.
//!
//! Timing: instructions have deterministic latency (Table I), so groups run
//! an event-stepped loop with `Wait`-based synchronization, exactly the
//! compile-time synchronization scheme of §IV-A12.
//!
//! Two engines run this machine. [`ApMachine`] ([`machine`]) is the
//! instruction-at-a-time interpreter over one [`hyperap_core::HyperPe`] per
//! PE: the reference every other result is checked against.
//! [`SlabMachine`] ([`slab`]) is the fast engine: it trace-compiles each
//! stream ([`trace`]) into segments bounded by cross-PE synchronization
//! points and runs them over contiguous multi-PE
//! [`hyperap_tcam::slab::TcamSlab`] arenas — each micro-op executes once
//! per chunk as a fused linear sweep instead of once per PE. Both run on
//! the calling thread. The two are bit-identical (property-tested in
//! `tests/slab_engine_equivalence.rs`).
//!
//! # Example
//!
//! ```
//! use hyperap_arch::{ApMachine, ArchConfig};
//! use hyperap_isa::Instruction;
//! use hyperap_tcam::SearchKey;
//!
//! let mut m = ApMachine::new(ArchConfig::tiny());
//! m.pe_mut(0).load_bit(3, 0, true);
//! let stats = m.run(&[vec![
//!     Instruction::SetKey { key: SearchKey::parse("1").unwrap() },
//!     Instruction::Search { acc: false, encode: false },
//!     Instruction::Count,
//! ]]);
//! assert_eq!(stats.count_results[0][0], (0, 1)); // PE 0 counted one tag
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod control;
pub mod machine;
pub mod par;
pub mod similarity;
pub mod slab;
pub mod stats;
pub mod trace;

pub use config::{env_faults, ArchConfig, ExecMode, FaultConfig};
pub use hyperap_tcam::{FaultError, FaultModel};
pub use machine::ApMachine;
pub use similarity::{SimilarityHit, SimilarityOutcome};
pub use slab::{ChunkPayload, ChunkState, MachineExtras, RestoreError, SlabMachine};
pub use stats::{PeHealth, RunStats};
pub use trace::{stream_set_hash, CompiledProgram, CompiledTrace};

//! The Hyper-AP compilation framework (§V).
//!
//! Users write C-like programs with arbitrary-bit-width integer types
//! (Fig 8); the compiler turns them into associative search/write programs:
//!
//! ```text
//! source ──lex/parse──▶ AST ──sema──▶ DFG ──(clustering, Eq. 1)──▶
//!   AIG generation (RTL library + function overloading) ──▶
//!   LUT generation (Eq. 2, ≤12 inputs; two-bit encoding, operation
//!   merging, operand embedding) ──▶ code generation
//! ```
//!
//! * [`lex`] / [`parse`] / [`ast`] — the C-like frontend (§V-A): `unsigned
//!   int (N)`, `int (N)`, `bool`, structs, compile-time-unrollable loops,
//!   if/else (flattened into predicated selects, Fig 13b), no pointers.
//! * [`sema`] — type checking, width inference, loop unrolling, branch
//!   flattening, constant folding.
//! * [`dfg`] — the dataflow graph; [`cluster`] implements the Eq. 1
//!   clustering heuristic adapted from priority cuts \[42\].
//! * [`aig`] / [`rtl`] — and-inverter graphs and the expert RTL library
//!   (ripple adders, comparators, muxes) with function overloading by
//!   operand type/width (§V-B3); `*`, `/`, `%`, `sqrt`, `exp` dispatch to
//!   the hand-optimized iterative microcode of [`hyperap_core::microcode`].
//! * [`lutmap`] — cut-based LUT generation with the Eq. 2 cost
//!   `Cost1[i] = Σ Cost1[j] + N_patterns + α`, where α = Twrite/Tsearch
//!   retargets the result between RRAM (α = 10) and CMOS (α = 1). Mapping
//!   across DFG node boundaries is the paper's *operation merging*.
//! * [`pairing`] — the two-bit-encoding bit-pairing search of Fig 11.
//! * [`codegen`] / [`pipeline`] — data layout, program emission, and the
//!   end-to-end [`compile`] entry point.
//!
//! # Example
//!
//! ```
//! use hyperap_compiler::{compile, CompileOptions};
//!
//! let kernel = compile(
//!     "unsigned int (6) main(unsigned int (5) a, unsigned int (5) b) {
//!          unsigned int (6) c;
//!          c = a + b;
//!          return c;
//!      }",
//!     &CompileOptions::default(),
//! ).unwrap();
//! let out = kernel.run_rows(&[(&[7, 21]), (&[30, 31])]).unwrap();
//! assert_eq!(out, vec![28, 61]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aig;
pub mod ast;
pub mod cluster;
pub mod codegen;
pub mod dfg;
pub mod lex;
pub mod lutmap;
pub mod opt;
pub mod pairing;
pub mod parse;
pub mod pipeline;
pub mod rtl;
pub mod sema;

pub use codegen::CompiledKernel;
pub use pipeline::{compile, CompileError, CompileOptions, LUT_INPUTS_RANGE, OPT_LEVEL_MAX};

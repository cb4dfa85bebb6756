//! Ternary content-addressable memory (TCAM) models for Hyper-AP.
//!
//! This crate implements the storage substrate of the paper at two levels of
//! abstraction, plus the search-key algebra that makes
//! *Single-Search-Multi-Pattern* possible:
//!
//! * [`bit`] / [`key`] / [`tags`] — the ternary state space of Fig 4: stored
//!   bits in {0, 1, X}, key bits in {0, 1, Z, masked}, and the tag bit-vector
//!   with its accumulation (OR) mode.
//! * [`array`](mod@array) — a fast, bit-parallel functional TCAM array (column-major
//!   bitmask representation; a 256-row search is a handful of 64-bit ops per
//!   active column).
//! * [`device`] — a device-level 2D2R crossbar model (Fig 3/7): 1D1R cells
//!   with explicit resistance states, match-line discharge evaluation, and
//!   the V/3 write scheme. Property tests prove it equivalent to [`array`](mod@array).
//! * [`encoding`] — the extended two-bit encoding of Fig 5: the pair encoding
//!   00/01/10/11 ↦ X0/X1/0X/1X and the complete coverage algebra showing
//!   every non-empty subset of original pair values is reachable by exactly
//!   one encoded search key.
//! * [`slab`] — slab-backed multi-PE storage: one contiguous
//!   column-major-across-PEs arena per chunk of PEs with fused search/write
//!   kernels, bit-identical to a `Vec` of per-PE [`array`](mod@array)s but swept
//!   linearly like the banked hardware.
//! * [`similarity`] — CAM-native similarity search: the graded "how many
//!   key bits miss?" question (ternary Hamming distance), the progressive
//!   top-k threshold schedule, and the scalar per-PE reference that pins
//!   the slab's word-parallel distance kernels.
//!
//! # Example
//!
//! ```
//! use hyperap_tcam::{TcamArray, key::SearchKey};
//!
//! let mut array = TcamArray::new(4, 8);
//! array.store_word(0, &hyperap_tcam::bit::word_from_str("11010000").unwrap());
//! array.store_word(1, &hyperap_tcam::bit::word_from_str("1X010000").unwrap());
//! let key = SearchKey::parse("11-1----").unwrap();
//! let tags = array.search(&key);
//! assert!(tags.get(0));
//! assert!(tags.get(1)); // stored X matches key bit 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod bit;
pub mod device;
pub mod encoding;
pub mod fault;
pub mod key;
pub mod mvsop;
mod plane;
pub mod similarity;
pub mod slab;
pub mod tags;

pub use array::TcamArray;
pub use bit::{KeyBit, TernaryBit};
pub use fault::{FaultError, FaultModel};
pub use key::SearchKey;
pub use slab::{TagSlab, TcamSlab};
pub use tags::TagVector;

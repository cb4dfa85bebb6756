//! Hand-optimized arithmetic microcode — the paper's expert-written RTL
//! library (§V-B3), lowered directly to associative operations.
//!
//! Every routine is built from planned LUT applications
//! ([`crate::lut::Lut`]) and therefore executes under the Hyper-AP execution
//! model: multi-pattern searches accumulated into the tags, one write per
//! output column. The complex operations use the iterative methods the paper
//! cites: long division \[51\], the abacus integer square root \[26\], and the
//! shift-and-add exponential \[46\].
//!
//! Routines are *word-parallel*: one call computes the operation for every
//! row of the PE simultaneously, and the returned [`Field`] describes where
//! the per-row results live.
//!
//! # Example
//!
//! ```
//! use hyperap_core::machine::HyperPe;
//! use hyperap_core::microcode::Microcode;
//!
//! let mut mc = Microcode::new(64);
//! let (a, b) = mc.alloc_paired_inputs("a", "b", 8);
//! let sum = mc.add(&a, &b);
//! let mut pe = HyperPe::new(4, 64);
//! a.store(&mut pe, 0, 200);
//! b.store(&mut pe, 0, 99);
//! mc.program().run(&mut pe);
//! assert_eq!(sum.read(&pe, 0), 299);
//! ```

mod arith;
mod cmp;
mod divfused;
mod divsqrt;
mod exp;
mod logic;
mod mul;

use crate::field::{Field, FieldAllocator, Slot};
use crate::lut::{Lut, LutOutput};
use crate::program::Program;

/// Builder context for microcoded routines: owns the column allocator and
/// the program under construction.
#[derive(Debug, Clone)]
pub struct Microcode {
    alloc: FieldAllocator,
    prog: Program,
    zero_col: Option<usize>,
}

/// Enumerate the ON-set of an `n`-input boolean function.
pub fn on_set(n_inputs: usize, f: impl Fn(u16) -> bool) -> Vec<u16> {
    (0..1u16 << n_inputs).filter(|&m| f(m)).collect()
}

/// Extract logical input `i` from a minterm.
pub fn bit(m: u16, i: usize) -> bool {
    m >> i & 1 == 1
}

impl Microcode {
    /// New context for a PE with `n_cols` columns.
    pub fn new(n_cols: usize) -> Self {
        Microcode {
            alloc: FieldAllocator::new(n_cols),
            prog: Program::new(),
            zero_col: None,
        }
    }

    /// The program built so far.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Consume the context, returning the program.
    pub fn into_program(self) -> Program {
        self.prog
    }

    /// Allocate a plain field guaranteed to read as zero (recycled columns
    /// are zeroed with counted write operations).
    pub fn alloc_plain(&mut self, name: impl Into<String>, width: usize) -> Field {
        let (f, dirty) = self.alloc.alloc_plain(name, width);
        self.prog.zero_columns(&dirty);
        f
    }

    /// Allocate two operand fields stored as encoded pairs (bit `i` of the
    /// first is pair-high with bit `i` of the second). Intended for operands
    /// loaded by the host before execution; no zeroing is emitted because
    /// the host load initializes the pair codes.
    pub fn alloc_paired_inputs(
        &mut self,
        name_hi: impl Into<String>,
        name_lo: impl Into<String>,
        width: usize,
    ) -> (Field, Field) {
        let (a, b, _dirty) = self.alloc.alloc_paired(name_hi, name_lo, width);
        (a, b)
    }

    /// Allocate a plain field intended for host-loaded input data (no
    /// zeroing needed; the host load initializes it).
    pub fn alloc_plain_input(&mut self, name: impl Into<String>, width: usize) -> Field {
        let (f, _dirty) = self.alloc.alloc_plain(name, width);
        f
    }

    /// Allocate a host-loaded input whose **adjacent bits** are two-bit
    /// encoded with each other (bit 2k+1 pair-high, bit 2k pair-low; an odd
    /// top bit stays plain). Radix-4 algorithms search a whole 2-bit digit
    /// with one key this way.
    pub fn alloc_self_paired_input(&mut self, name: impl Into<String>, width: usize) -> Field {
        let name = name.into();
        let mut slots = Vec::with_capacity(width);
        for _ in 0..width / 2 {
            let (hi, lo, _d) = self
                .alloc
                .alloc_paired(format!("{name}.h"), format!("{name}.l"), 1);
            slots.push(lo.slot(0));
            slots.push(hi.slot(0));
        }
        if width % 2 == 1 {
            let (f, _d) = self.alloc.alloc_plain(format!("{name}.top"), 1);
            slots.push(f.slot(0));
        }
        Field::new(name, slots)
    }

    /// Return a field's columns to the allocator for recycling.
    ///
    /// The caller must ensure no live field aliases them (routines may
    /// return views into their inputs; free only fields you know are dead).
    pub fn free(&mut self, field: &Field) {
        // Never recycle the pinned shared zero column (views may hold it).
        let filtered: Vec<Slot> = field
            .slots
            .iter()
            .copied()
            .filter(|s| Some(s.base_col()) != self.zero_col)
            .collect();
        self.alloc.free(&Field::new("freed", filtered));
    }

    /// Free one scratch slot (single-column ripple state). Only plain slots
    /// are recycled; pair halves are never scratch.
    pub(crate) fn free_slot(&mut self, s: Slot) {
        if matches!(s, Slot::Single { .. }) {
            self.alloc.free(&Field::new("scratch", vec![s]));
        }
    }

    /// A field of `width` constant-zero bits (all slots share one pinned
    /// zero column; free).
    pub fn zero_field(&mut self, width: usize) -> Field {
        let col = match self.zero_col {
            Some(c) => c,
            None => {
                let (c, dirty) = self.alloc.alloc_col();
                if dirty {
                    self.prog.zero_columns(&[c]);
                }
                self.zero_col = Some(c);
                c
            }
        };
        Field::new("zero", vec![Slot::Single { col }; width])
    }

    /// Append a LUT application (lowered under the Hyper-AP model).
    pub fn apply_lut(&mut self, lut: &Lut) {
        self.prog.extend(&lut.lower_hyper());
    }

    /// Apply a LUT with the given inputs and one plain output computed by
    /// `f` over logical minterms; returns the (freshly allocated) output
    /// bit slot.
    pub(crate) fn lut1(&mut self, inputs: Vec<Slot>, f: impl Fn(u16) -> bool, name: &str) -> Slot {
        let out = self.alloc_plain(name, 1);
        let slot = out.slot(0);
        self.lut1_into(inputs, f, slot.base_col());
        slot
    }

    /// Apply a LUT writing into an existing pre-zeroed plain column.
    pub(crate) fn lut1_into(&mut self, inputs: Vec<Slot>, f: impl Fn(u16) -> bool, col: usize) {
        let n = inputs.len();
        let lut = Lut {
            inputs,
            outputs: vec![LutOutput::Plain {
                col,
                on_set: on_set(n, f),
            }],
        };
        self.apply_lut(&lut);
    }

    /// Apply a LUT with two plain outputs into existing pre-zeroed columns.
    pub(crate) fn lut2_into(
        &mut self,
        inputs: Vec<Slot>,
        f0: impl Fn(u16) -> bool,
        col0: usize,
        f1: impl Fn(u16) -> bool,
        col1: usize,
    ) {
        let n = inputs.len();
        let lut = Lut {
            inputs,
            outputs: vec![
                LutOutput::Plain {
                    col: col0,
                    on_set: on_set(n, f0),
                },
                LutOutput::Plain {
                    col: col1,
                    on_set: on_set(n, f1),
                },
            ],
        };
        self.apply_lut(&lut);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::machine::HyperPe;

    /// Run a builder callback, execute the program on fresh rows loaded with
    /// `values`, and return the result field's per-row values.
    pub fn run_unary(
        width: usize,
        values: &[u64],
        build: impl FnOnce(&mut Microcode, &Field) -> Field,
    ) -> Vec<u64> {
        let mut mc = Microcode::new(256);
        let a = mc.alloc_plain_input("a", width);
        let out = build(&mut mc, &a);
        let mut pe = HyperPe::new(values.len().max(1), 256);
        for (row, &v) in values.iter().enumerate() {
            a.store(&mut pe, row, v);
        }
        mc.program().run(&mut pe);
        (0..values.len()).map(|r| out.read(&pe, r)).collect()
    }

    /// Binary version of [`run_unary`] with paired operand storage.
    pub fn run_binary_paired(
        width: usize,
        pairs: &[(u64, u64)],
        build: impl FnOnce(&mut Microcode, &Field, &Field) -> Field,
    ) -> Vec<u64> {
        let mut mc = Microcode::new(256);
        let (a, b) = mc.alloc_paired_inputs("a", "b", width);
        let out = build(&mut mc, &a, &b);
        let mut pe = HyperPe::new(pairs.len().max(1), 256);
        for (row, &(va, vb)) in pairs.iter().enumerate() {
            a.store(&mut pe, row, va);
            b.store(&mut pe, row, vb);
        }
        mc.program().run(&mut pe);
        (0..pairs.len()).map(|r| out.read(&pe, r)).collect()
    }

    /// Binary version with plain operand storage.
    pub fn run_binary_plain(
        width: usize,
        pairs: &[(u64, u64)],
        build: impl FnOnce(&mut Microcode, &Field, &Field) -> Field,
    ) -> Vec<u64> {
        let mut mc = Microcode::new(256);
        let a = mc.alloc_plain_input("a", width);
        let b = mc.alloc_plain_input("b", width);
        let out = build(&mut mc, &a, &b);
        let mut pe = HyperPe::new(pairs.len().max(1), 256);
        for (row, &(va, vb)) in pairs.iter().enumerate() {
            a.store(&mut pe, row, va);
            b.store(&mut pe, row, vb);
        }
        mc.program().run(&mut pe);
        (0..pairs.len()).map(|r| out.read(&pe, r)).collect()
    }
}

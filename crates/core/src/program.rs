//! The low-level associative-operation IR shared by microcode and compiler.
//!
//! An [`ApOp`] is one primitive machine action with its full key; a
//! [`Program`] is a straight-line sequence of them. AP computation is
//! branch-free by construction (conditionals become predicated searches,
//! §V-A / Fig 13b), so straight-line programs suffice; data-dependent
//! behaviour lives entirely inside search/write semantics.
//!
//! Programs can be (a) executed on a [`HyperPe`] or [`TraditionalPe`] for
//! functional validation, and (b) statically costed into
//! [`OpCounts`] for the paper's analytical performance evaluation.

use crate::machine::{HyperPe, TraditionalPe};
use hyperap_model::timing::OpCounts;
use hyperap_tcam::bit::KeyBit;
use hyperap_tcam::key::SearchKey;

/// One primitive associative operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ApOp {
    /// Compare the key against all words; `accumulate` selects the
    /// accumulation unit (`<acc>` of the Search instruction).
    Search {
        /// Key + mask contents.
        key: SearchKey,
        /// OR the result into the tags instead of overwriting them.
        accumulate: bool,
    },
    /// Latch the current tags into the encoder DFF stage (free; part of the
    /// sensing path, Fig 7).
    Latch,
    /// Write `value` into column `col` of all tagged words (12 cycles, RRAM).
    Write {
        /// Target column.
        col: usize,
        /// Value to program (`Z` writes the `X` state).
        value: KeyBit,
    },
    /// Write the encoded pair (latched result, current tag) into columns
    /// `col`, `col + 1` of every word (23 cycles, RRAM).
    WriteEncoded {
        /// First column of the encoded pair.
        col: usize,
    },
    /// Set all tags (data-register path).
    TagAll,
    /// Clear all tags.
    TagNone,
    /// Population count (reduction tree). The value is observable via
    /// [`Outcome`].
    Count,
    /// Priority-encode the first tagged index.
    Index,
}

/// Observable results of the reduction-tree operations of a program run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Results of `Count` ops, in program order.
    pub counts: Vec<usize>,
    /// Results of `Index` ops, in program order.
    pub indexes: Vec<Option<usize>>,
}

/// A straight-line sequence of associative operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    ops: Vec<ApOp>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// The operations.
    pub fn ops(&self) -> &[ApOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Append one operation.
    pub fn push(&mut self, op: ApOp) {
        self.ops.push(op);
    }

    /// Append all operations of `other`.
    pub fn extend(&mut self, other: &Program) {
        self.ops.extend(other.ops.iter().cloned());
    }

    /// Append a search.
    pub fn search(&mut self, key: SearchKey, accumulate: bool) {
        self.push(ApOp::Search { key, accumulate });
    }

    /// Append a single-column write.
    pub fn write(&mut self, col: usize, value: KeyBit) {
        self.push(ApOp::Write { col, value });
    }

    /// Append zeroing writes for a batch of columns (one TagAll, then one
    /// write per column).
    pub fn zero_columns(&mut self, cols: &[usize]) {
        if cols.is_empty() {
            return;
        }
        self.push(ApOp::TagAll);
        for &col in cols {
            self.push(ApOp::Write {
                col,
                value: KeyBit::Zero,
            });
        }
    }

    /// Static operation counts (Table I accounting), without execution.
    pub fn op_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for op in &self.ops {
            match op {
                ApOp::Search { .. } => {
                    c.searches += 1;
                    c.set_keys += 1;
                }
                ApOp::Latch => {}
                ApOp::Write { .. } => c.writes_single += 1,
                ApOp::WriteEncoded { .. } => c.writes_encoded += 1,
                ApOp::TagAll | ApOp::TagNone => c.tag_ops += 1,
                ApOp::Count => c.counts += 1,
                ApOp::Index => c.indexes += 1,
            }
        }
        c
    }

    /// Execute on a Hyper-AP PE.
    pub fn run(&self, pe: &mut HyperPe) -> Outcome {
        let mut out = Outcome::default();
        for op in &self.ops {
            match op {
                ApOp::Search { key, accumulate } => pe.search(key, *accumulate),
                ApOp::Latch => pe.latch_tags(),
                ApOp::Write { col, value } => pe.write(*col, *value),
                ApOp::WriteEncoded { col } => pe.write_encoded(*col),
                ApOp::TagAll => pe.tag_all(),
                ApOp::TagNone => pe.tag_none(),
                ApOp::Count => out.counts.push(pe.count()),
                ApOp::Index => out.indexes.push(pe.index()),
            }
        }
        out
    }

    /// Execute on a traditional AP PE.
    ///
    /// # Panics
    ///
    /// Panics if the program uses Hyper-AP-only features: accumulating
    /// searches, `Z` key bits, `Latch`, or encoded writes (§II-D).
    pub fn run_traditional(&self, pe: &mut TraditionalPe) -> Outcome {
        let mut out = Outcome::default();
        for op in &self.ops {
            match op {
                ApOp::Search { key, accumulate } => {
                    assert!(!accumulate, "traditional AP has no accumulation unit");
                    pe.search(key);
                }
                ApOp::Latch | ApOp::WriteEncoded { .. } => {
                    panic!("traditional AP has no two-bit encoder")
                }
                ApOp::Write { col, value } => pe.write(*col, *value),
                ApOp::TagAll => pe.tag_all(),
                ApOp::TagNone => {
                    // Modeled as an overwriting search that matches nothing is
                    // not available; traditional flows never need it.
                    panic!("traditional AP programs do not clear tags explicitly")
                }
                ApOp::Count => out.counts.push(pe.count()),
                ApOp::Index => out.indexes.push(pe.index()),
            }
        }
        out
    }
}

impl FromIterator<ApOp> for Program {
    fn from_iter<T: IntoIterator<Item = ApOp>>(iter: T) -> Self {
        Program {
            ops: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_follow_table1_categories() {
        let mut p = Program::new();
        p.search(SearchKey::masked(4), false);
        p.search(SearchKey::masked(4), true);
        p.write(0, KeyBit::One);
        p.push(ApOp::WriteEncoded { col: 1 });
        p.push(ApOp::Latch);
        p.push(ApOp::Count);
        p.push(ApOp::Index);
        p.push(ApOp::TagAll);
        p.write(3, KeyBit::Zero);
        let c = p.op_counts();
        assert_eq!(c.searches, 2);
        assert_eq!(c.set_keys, 2);
        assert_eq!(c.writes_single, 2); // explicit write + zeroing write
        assert_eq!(c.writes_encoded, 1);
        assert_eq!(c.counts, 1);
        assert_eq!(c.indexes, 1);
        assert_eq!(c.tag_ops, 1);
    }

    #[test]
    fn static_counts_match_dynamic_counts() {
        let mut p = Program::new();
        p.search(SearchKey::parse("1---").unwrap(), false);
        p.write(1, KeyBit::One);
        p.zero_columns(&[2, 3]);
        let mut pe = HyperPe::new(4, 4);
        p.run(&mut pe);
        assert_eq!(p.op_counts(), pe.op_counts());
    }

    #[test]
    fn run_executes_semantics() {
        // Write 1 into column 1 of rows whose column 0 is 1.
        let mut pe = HyperPe::new(3, 2);
        pe.load_bit(0, 0, true);
        pe.load_bit(2, 0, true);
        let mut p = Program::new();
        p.search(SearchKey::parse("1-").unwrap(), false);
        p.write(1, KeyBit::One);
        p.push(ApOp::Count);
        let out = p.run(&mut pe);
        assert_eq!(out.counts, vec![2]);
        assert_eq!(pe.read_bit(0, 1), Some(true));
        assert_eq!(pe.read_bit(1, 1), Some(false));
        assert_eq!(pe.read_bit(2, 1), Some(true));
    }

    #[test]
    #[should_panic(expected = "no accumulation unit")]
    fn traditional_rejects_accumulation() {
        let mut p = Program::new();
        p.search(SearchKey::masked(2), true);
        p.run_traditional(&mut TraditionalPe::new(2, 2));
    }

    #[test]
    fn zero_columns_batches_tagall() {
        let mut p = Program::new();
        p.zero_columns(&[0, 1, 2]);
        let c = p.op_counts();
        assert_eq!(c.tag_ops, 1);
        assert_eq!(c.writes_single, 3);
        p.zero_columns(&[]);
        assert_eq!(p.op_counts().tag_ops, 1, "empty batch adds nothing");
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Program::new();
        a.write(0, KeyBit::One);
        let mut b = Program::new();
        b.write(1, KeyBit::Zero);
        a.extend(&b);
        assert_eq!(a.len(), 2);
    }
}

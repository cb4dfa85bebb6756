//! Lookup tables and their lowering under the two execution models.
//!
//! A computation step is a LUT: a set of input bits (≤ 12, §V-B4) and, per
//! output bit, the set of input minterms for which the output is `1`
//! (outputs are written into pre-zeroed columns, §II-C).
//!
//! * **Traditional lowering** (Fig 2c): the LUT is expressed as *binary*
//!   cubes (each input fixed or masked); each cube is one search immediately
//!   followed by one write — Single-Search-Single-Pattern and
//!   Single-Search-Single-Write. This reproduces the paper's Fig 2b table
//!   (7 entries for the full adder).
//! * **Hyper-AP lowering** (Fig 5d): inputs placed on encoded pairs allow
//!   multi-valued product terms ([`hyperap_tcam::mvsop`]); searches
//!   accumulate into the tags and one write per output follows —
//!   Single-Search-Multi-Pattern and Multi-Search-Single-Write.

use crate::field::Slot;
use crate::program::{ApOp, Program};
use hyperap_model::timing::OpCounts;
use hyperap_tcam::bit::KeyBit;
use hyperap_tcam::encoding::{key_for_subset, single_key_for_subset, PairSubset};
use hyperap_tcam::key::SearchKey;
use hyperap_tcam::mvsop::{minimize, Cover, PosKind, Solution, Term};

/// Which execution model to lower a LUT under (§II-D vs §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionModel {
    /// Single-Search-Single-Pattern + Single-Search-Single-Write.
    Traditional,
    /// Single-Search-Multi-Pattern + Multi-Search-Single-Write.
    Hyper,
}

/// One output of a LUT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LutOutput {
    /// Write `1` into a plain column for matching rows.
    Plain {
        /// Destination column (must be pre-zeroed).
        col: usize,
        /// ON-set minterms: bit `i` of each value is logical input `i`.
        on_set: Vec<u16>,
    },
    /// Write two computed bits as an encoded pair at `col`, `col + 1`
    /// (Hyper-AP only; uses the PE's two-bit encoder, Fig 7).
    EncodedPair {
        /// First destination column.
        col: usize,
        /// ON-set of the pair-high bit.
        hi_on_set: Vec<u16>,
        /// ON-set of the pair-low bit.
        lo_on_set: Vec<u16>,
    },
}

/// A lookup table: placed inputs and outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lut {
    /// Input bit placements; logical input `i` is `inputs[i]`.
    pub inputs: Vec<Slot>,
    /// Outputs.
    pub outputs: Vec<LutOutput>,
}

/// Internal: the multi-valued position structure induced by input placement.
struct Positions {
    kinds: Vec<PosKind>,
    /// For each position: the physical base column.
    cols: Vec<usize>,
    /// For each position: logical input indices bound to (pair-high,
    /// pair-low). A single-bit position uses only the `hi` list. Multiple
    /// indices on one list mean the same stored bit is used several times
    /// (e.g. squaring); minterms where they disagree are unreachable.
    members: Vec<(Vec<usize>, Vec<usize>)>,
}

impl Lut {
    /// Number of logical inputs.
    pub fn n_inputs(&self) -> usize {
        self.inputs.len()
    }

    fn positions(&self) -> Positions {
        let mut kinds = Vec::new();
        let mut cols = Vec::new();
        let mut members: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        let mut pair_pos: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut single_pos: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for (i, slot) in self.inputs.iter().enumerate() {
            match *slot {
                Slot::Single { col } => {
                    let p = *single_pos.entry(col).or_insert_with(|| {
                        kinds.push(PosKind::Single);
                        cols.push(col);
                        members.push((Vec::new(), Vec::new()));
                        kinds.len() - 1
                    });
                    members[p].0.push(i);
                }
                Slot::PairHi { col } => {
                    let p = *pair_pos.entry(col).or_insert_with(|| {
                        kinds.push(PosKind::Pair);
                        cols.push(col);
                        members.push((Vec::new(), Vec::new()));
                        kinds.len() - 1
                    });
                    members[p].0.push(i);
                }
                Slot::PairLo { col } => {
                    let p = *pair_pos.entry(col).or_insert_with(|| {
                        kinds.push(PosKind::Pair);
                        cols.push(col);
                        members.push((Vec::new(), Vec::new()));
                        kinds.len() - 1
                    });
                    members[p].1.push(i);
                }
            }
        }
        Positions {
            kinds,
            cols,
            members,
        }
    }

    /// Expand a logical minterm into position-value minterms; absent pair
    /// halves take both values (the output must not depend on them), and
    /// minterms where multiple bindings of one stored bit disagree are
    /// unreachable and dropped.
    fn position_minterms(pos: &Positions, logical: u16) -> Vec<Vec<u8>> {
        let mut result: Vec<Vec<u8>> = vec![Vec::new()];
        for (k, kind) in pos.kinds.iter().enumerate() {
            let (hi, lo) = &pos.members[k];
            // All bindings of one physical bit must agree; `None` = conflict.
            let agreed = |idxs: &[usize]| -> Result<Option<u8>, ()> {
                let mut v: Option<u8> = None;
                for &i in idxs {
                    let b = (logical >> i & 1) as u8;
                    match v {
                        None => v = Some(b),
                        Some(prev) if prev != b => return Err(()),
                        _ => {}
                    }
                }
                Ok(v)
            };
            let (h, l) = match (agreed(hi), agreed(lo)) {
                (Ok(h), Ok(l)) => (h, l),
                _ => return Vec::new(), // unreachable minterm
            };
            let values: Vec<u8> = match kind {
                PosKind::Single => vec![h.expect("single always has a member")],
                PosKind::Pair => {
                    let hs: Vec<u8> = match h {
                        Some(v) => vec![v],
                        None => vec![0, 1],
                    };
                    let ls: Vec<u8> = match l {
                        Some(v) => vec![v],
                        None => vec![0, 1],
                    };
                    hs.iter()
                        .flat_map(|&h| ls.iter().map(move |&l| h << 1 | l))
                        .collect()
                }
            };
            result = result
                .into_iter()
                .flat_map(|m| {
                    values.iter().map(move |&v| {
                        let mut m2 = m.clone();
                        m2.push(v);
                        m2
                    })
                })
                .collect();
        }
        result
    }

    fn cover_for(&self, pos: &Positions, on_set: &[u16]) -> Cover {
        let mut on = Vec::new();
        for &m in on_set {
            for pm in Self::position_minterms(pos, m) {
                if !on.contains(&pm) {
                    on.push(pm);
                }
            }
        }
        Cover::new(pos.kinds.clone(), on)
    }

    fn term_to_key(pos: &Positions, term: &Term, width_hint: usize) -> SearchKey {
        let mut key = SearchKey::masked(width_hint);
        for (k, subset) in term.subsets.iter().enumerate() {
            let col = pos.cols[k];
            match pos.kinds[k] {
                PosKind::Single => {
                    let kb = single_key_for_subset(*subset).expect("non-empty subset");
                    if kb != KeyBit::Masked {
                        key.set_bit(col, kb);
                    }
                }
                PosKind::Pair => {
                    if *subset == PairSubset::FULL {
                        continue; // fully masked pair
                    }
                    let [k1, k0] = key_for_subset(*subset).expect("non-empty subset");
                    if k1 != KeyBit::Masked {
                        key.set_bit(col, k1);
                    }
                    if k0 != KeyBit::Masked {
                        key.set_bit(col + 1, k0);
                    }
                }
            }
        }
        key
    }

    /// The minimized multi-valued cover for an ON-set under this placement
    /// (exposed for compiler cost estimation).
    pub fn plan(&self, on_set: &[u16]) -> Solution {
        let pos = self.positions();
        minimize(&self.cover_for(&pos, on_set))
    }

    fn max_col(&self) -> usize {
        let in_max = self
            .inputs
            .iter()
            .flat_map(|s| s.columns())
            .max()
            .unwrap_or(0);
        let out_max = self
            .outputs
            .iter()
            .map(|o| match o {
                LutOutput::Plain { col, .. } => *col,
                LutOutput::EncodedPair { col, .. } => *col + 1,
            })
            .max()
            .unwrap_or(0);
        in_max.max(out_max)
    }

    /// Lower to a Hyper-AP program: per output, accumulate all covering
    /// searches into the tags, then write once (Multi-Search-Single-Write).
    pub fn lower_hyper(&self) -> Program {
        let pos = self.positions();
        let width = self.max_col() + 2;
        let mut prog = Program::new();
        let emit_search_series = |prog: &mut Program, on_set: &[u16]| {
            let sol = minimize(&self.cover_for(&pos, on_set));
            if sol.terms.is_empty() {
                // Constant-0 output: leave the pre-zeroed column; clear tags
                // so a following write/encode sees no tagged rows.
                prog.push(ApOp::TagNone);
                return;
            }
            for (i, term) in sol.terms.iter().enumerate() {
                prog.search(Self::term_to_key(&pos, term, width), i > 0);
            }
        };
        for out in &self.outputs {
            match out {
                LutOutput::Plain { col, on_set } => {
                    emit_search_series(&mut prog, on_set);
                    // Skip the write entirely for constant-0 outputs.
                    if !on_set.is_empty() {
                        prog.write(*col, KeyBit::One);
                    }
                }
                LutOutput::EncodedPair {
                    col,
                    hi_on_set,
                    lo_on_set,
                } => {
                    if hi_on_set.is_empty() {
                        // Constant-0 high half: a Latch after TagNone would
                        // be dropped by ISA lowering, so program the pair
                        // with plain writes (X into the high cell, then the
                        // low half by search + write).
                        prog.push(ApOp::TagAll);
                        prog.write(*col, KeyBit::Z);
                        prog.write(*col + 1, KeyBit::Zero);
                        if !lo_on_set.is_empty() {
                            emit_search_series(&mut prog, lo_on_set);
                            prog.write(*col + 1, KeyBit::One);
                        }
                    } else {
                        emit_search_series(&mut prog, hi_on_set);
                        prog.push(ApOp::Latch);
                        emit_search_series(&mut prog, lo_on_set);
                        prog.push(ApOp::WriteEncoded { col: *col });
                    }
                }
            }
        }
        prog
    }

    /// Lower to a traditional-AP program: per output, one search per binary
    /// cube immediately followed by a write (Fig 2c).
    ///
    /// # Panics
    ///
    /// Panics if any input is placed on an encoded pair or any output is an
    /// encoded pair — traditional AP has neither (§II-D).
    pub fn lower_traditional(&self) -> Program {
        assert!(
            self.inputs.iter().all(|s| !s.is_paired()),
            "traditional AP stores plain bits only"
        );
        let width = self.max_col() + 1;
        let mut prog = Program::new();
        for out in &self.outputs {
            let LutOutput::Plain { col, on_set } = out else {
                panic!("traditional AP has no two-bit encoder");
            };
            // Binary cube cover = MV minimization with all-single positions.
            let pos = self.positions();
            let sol = minimize(&self.cover_for(&pos, on_set));
            for term in &sol.terms {
                prog.search(Self::term_to_key(&pos, term, width), false);
                prog.write(*col, KeyBit::One);
            }
        }
        prog
    }

    /// Lower under either model.
    ///
    /// # Panics
    ///
    /// See [`lower_traditional`](Self::lower_traditional) for the traditional
    /// model's constraints.
    pub fn lower(&self, model: ExecutionModel) -> Program {
        match model {
            ExecutionModel::Traditional => self.lower_traditional(),
            ExecutionModel::Hyper => self.lower_hyper(),
        }
    }

    /// Operation counts under a model, without needing a placement valid for
    /// that model: traditional counts use an all-plain placement of the same
    /// logical LUT (the physical columns do not affect counts).
    pub fn op_counts(&self, model: ExecutionModel) -> OpCounts {
        match model {
            ExecutionModel::Hyper => self.lower_hyper().op_counts(),
            ExecutionModel::Traditional => {
                let plain = Lut {
                    inputs: (0..self.n_inputs())
                        .map(|i| Slot::Single { col: i })
                        .collect(),
                    outputs: self
                        .outputs
                        .iter()
                        .enumerate()
                        .map(|(k, o)| {
                            let on = match o {
                                LutOutput::Plain { on_set, .. } => on_set.clone(),
                                LutOutput::EncodedPair { hi_on_set, .. } => hi_on_set.clone(),
                            };
                            LutOutput::Plain {
                                col: self.n_inputs() + k,
                                on_set: on,
                            }
                        })
                        .collect(),
                };
                // Encoded-pair outputs count as two plain outputs.
                let mut extra = OpCounts::default();
                for o in &self.outputs {
                    if let LutOutput::EncodedPair { lo_on_set, .. } = o {
                        let lo_lut = Lut {
                            inputs: plain.inputs.clone(),
                            outputs: vec![LutOutput::Plain {
                                col: self.n_inputs(),
                                on_set: lo_on_set.clone(),
                            }],
                        };
                        extra.add(&lo_lut.lower_traditional().op_counts());
                    }
                }
                let mut c = plain.lower_traditional().op_counts();
                c.add(&extra);
                c
            }
        }
    }
}

/// The paper's running example: the 1-bit full adder
/// (`Sum, Cout = A + B + Cin`, Fig 2b), with `A`/`B` two-bit-encoded at
/// columns 0-1 and `Cin` plain at column 2 (the Fig 5d layout); `Sum` at
/// column 3, `Cout` at column 4.
///
/// # Example
/// ```
/// use hyperap_core::lut::{full_adder_lut, ExecutionModel};
/// assert_eq!(full_adder_lut().op_counts(ExecutionModel::Hyper).search_write_ops(), 6);
/// ```
pub fn full_adder_lut() -> Lut {
    // Logical inputs: 0 = A, 1 = B, 2 = Cin. Minterm bit i = input i.
    let sum: Vec<u16> = vec![0b001, 0b010, 0b100, 0b111];
    let cout: Vec<u16> = vec![0b011, 0b101, 0b110, 0b111];
    Lut {
        inputs: vec![
            Slot::PairHi { col: 0 },
            Slot::PairLo { col: 0 },
            Slot::Single { col: 2 },
        ],
        outputs: vec![
            LutOutput::Plain {
                col: 3,
                on_set: sum,
            },
            LutOutput::Plain {
                col: 4,
                on_set: cout,
            },
        ],
    }
}

/// The same full adder placed entirely on plain columns (A, B, Cin at
/// columns 0, 1, 2) for execution on traditional AP.
pub fn full_adder_lut_plain() -> Lut {
    let mut lut = full_adder_lut();
    lut.inputs = vec![
        Slot::Single { col: 0 },
        Slot::Single { col: 1 },
        Slot::Single { col: 2 },
    ];
    lut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{HyperPe, TraditionalPe};

    #[test]
    fn fig2c_traditional_full_adder_is_14_operations() {
        let c = full_adder_lut().op_counts(ExecutionModel::Traditional);
        assert_eq!(c.searches, 7, "Fig 2b: 7 lookup-table entries");
        assert_eq!(c.writes(), 7);
        assert_eq!(c.search_write_ops(), 14);
    }

    #[test]
    fn fig5d_hyper_full_adder_is_6_operations() {
        let c = full_adder_lut().op_counts(ExecutionModel::Hyper);
        assert_eq!(c.searches, 4, "2 for Sum + 2 for Cout");
        assert_eq!(c.writes(), 2, "one per output");
        assert_eq!(c.search_write_ops(), 6);
    }

    #[test]
    fn fig5d_reduction_ratios() {
        // §III: searches reduced 1.8×, writes 3.5×, total 2.3× for 1-bit add.
        let t = full_adder_lut().op_counts(ExecutionModel::Traditional);
        let h = full_adder_lut().op_counts(ExecutionModel::Hyper);
        assert!((t.searches as f64 / h.searches as f64 - 1.75).abs() < 0.1);
        assert_eq!(t.writes() / h.writes(), 3); // 7/2 = 3.5 -> 3 integer
        assert!((t.search_write_ops() as f64 / h.search_write_ops() as f64 - 2.33).abs() < 0.1);
    }

    fn run_hyper_adder(a: bool, b: bool, cin: bool) -> (bool, bool) {
        let mut pe = HyperPe::new(1, 8);
        pe.load_encoded_pair(0, 0, a, b);
        pe.load_bit(0, 2, cin);
        full_adder_lut().lower_hyper().run(&mut pe);
        (pe.read_bit(0, 3).unwrap(), pe.read_bit(0, 4).unwrap())
    }

    #[test]
    fn hyper_full_adder_is_functionally_correct() {
        for v in 0u8..8 {
            let (a, b, cin) = (v & 1 != 0, v & 2 != 0, v & 4 != 0);
            let total = a as u8 + b as u8 + cin as u8;
            let (sum, cout) = run_hyper_adder(a, b, cin);
            assert_eq!(sum, total & 1 == 1, "sum for {a}{b}{cin}");
            assert_eq!(cout, total >= 2, "cout for {a}{b}{cin}");
        }
    }

    #[test]
    fn traditional_full_adder_is_functionally_correct() {
        for v in 0u8..8 {
            let (a, b, cin) = (v & 1 != 0, v & 2 != 0, v & 4 != 0);
            let mut pe = TraditionalPe::new(1, 8);
            pe.load_bit(0, 0, a);
            pe.load_bit(0, 1, b);
            pe.load_bit(0, 2, cin);
            full_adder_lut_plain()
                .lower_traditional()
                .run_traditional(&mut pe);
            let total = a as u8 + b as u8 + cin as u8;
            assert_eq!(pe.read_bit(0, 3), Some(total & 1 == 1));
            assert_eq!(pe.read_bit(0, 4), Some(total >= 2));
        }
    }

    #[test]
    fn word_parallelism_computes_all_rows() {
        let mut pe = HyperPe::new(8, 8);
        for v in 0u8..8 {
            let (a, b, cin) = (v & 1 != 0, v & 2 != 0, v & 4 != 0);
            pe.load_encoded_pair(v as usize, 0, a, b);
            pe.load_bit(v as usize, 2, cin);
        }
        full_adder_lut().lower_hyper().run(&mut pe);
        for v in 0u8..8 {
            let total = (v & 1) + (v >> 1 & 1) + (v >> 2 & 1);
            assert_eq!(pe.read_bit(v as usize, 3), Some(total & 1 == 1));
            assert_eq!(pe.read_bit(v as usize, 4), Some(total >= 2));
        }
    }

    #[test]
    fn encoded_pair_output_round_trips() {
        // Compute (hi = A AND B, lo = A OR B) into an encoded pair.
        let lut = Lut {
            inputs: vec![Slot::Single { col: 0 }, Slot::Single { col: 1 }],
            outputs: vec![LutOutput::EncodedPair {
                col: 2,
                hi_on_set: vec![0b11],
                lo_on_set: vec![0b01, 0b10, 0b11],
            }],
        };
        for v in 0u8..4 {
            let (a, b) = (v & 1 != 0, v & 2 != 0);
            let mut pe = HyperPe::new(1, 6);
            pe.load_bit(0, 0, a);
            pe.load_bit(0, 1, b);
            lut.lower_hyper().run(&mut pe);
            assert_eq!(
                pe.try_read_encoded_pair(0, 2).expect("valid two-bit code"),
                (a && b, a || b),
                "v={v}"
            );
        }
    }

    #[test]
    fn constant_zero_output_emits_no_write() {
        let lut = Lut {
            inputs: vec![Slot::Single { col: 0 }],
            outputs: vec![LutOutput::Plain {
                col: 1,
                on_set: vec![],
            }],
        };
        let prog = lut.lower_hyper();
        assert_eq!(prog.op_counts().writes(), 0);
        assert_eq!(prog.op_counts().searches, 0);
    }

    #[test]
    fn partial_pair_input_ignores_partner() {
        // Only the pair-high half is an input; output = that bit. The
        // partner (pair-low) must not affect the result.
        let lut = Lut {
            inputs: vec![Slot::PairHi { col: 0 }],
            outputs: vec![LutOutput::Plain {
                col: 2,
                on_set: vec![0b1],
            }],
        };
        for hi in [false, true] {
            for lo in [false, true] {
                let mut pe = HyperPe::new(1, 4);
                pe.load_encoded_pair(0, 0, hi, lo);
                lut.lower_hyper().run(&mut pe);
                assert_eq!(pe.read_bit(0, 2), Some(hi), "hi={hi} lo={lo}");
            }
        }
    }

    #[test]
    fn hyper_never_needs_more_searches_than_traditional() {
        // For a batch of random 4-input functions with inputs placed on two
        // encoded pairs.
        let mut seed = 99u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 33
        };
        for _ in 0..10 {
            let on_set: Vec<u16> = (0u16..16).filter(|_| next() % 2 == 0).collect();
            let lut = Lut {
                inputs: vec![
                    Slot::PairHi { col: 0 },
                    Slot::PairLo { col: 0 },
                    Slot::PairHi { col: 2 },
                    Slot::PairLo { col: 2 },
                ],
                outputs: vec![LutOutput::Plain {
                    col: 4,
                    on_set: on_set.clone(),
                }],
            };
            let h = lut.op_counts(ExecutionModel::Hyper);
            let t = lut.op_counts(ExecutionModel::Traditional);
            assert!(h.searches <= t.searches, "on_set = {on_set:?}");
            assert!(h.writes() <= t.writes());
        }
    }
}

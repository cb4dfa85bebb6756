//! Sparse conditional constant propagation, in two halves.
//!
//! [`fold_dfg`] is the classic Wegman–Zadeck half, run on the DFG before
//! codegen: a single forward pass over the (topologically ordered) graph
//! computes a constant lattice per node, folds all-constant nets through the
//! reference semantics ([`Dfg::eval_op`]), forwards `Select`s whose
//! predicate is known (the *conditional* part — the dead arm stops being
//! reachable), applies width-safe algebraic identities (`x*0`, `x&0`,
//! `x+0`, `x<<0`, …), and finally prunes every node unreachable from the
//! outputs. Codegen emits column programs for *every* node it is handed, so
//! pruning here is genuine dead-code elimination in the op stream.
//!
//! [`run`] is the stream half, applied to the emitted associative-op
//! program: abstract interpretation over per-column *cell-value sets* and a
//! three-point tag/latch lattice. Columns start all-zero (the machine
//! guarantee), host-loaded input columns start unknown ({0,1} plain,
//! {0,1,X} pair-encoded), and every op transfers the state forward. The
//! pass deletes searches that cannot match (a `Z` key bit over a plain
//! column, a `One` over a known-zero column), searches certain to match
//! everywhere, writes under known-empty tags, and writes that store a
//! column's known value back; key bits certain to match are *narrowed* to
//! `Masked`, shortening the keys the engines compare.

use std::collections::HashMap;

use hyperap_core::field::Field;
use hyperap_core::program::{ApOp, Program};
use hyperap_tcam::bit::{KeyBit, TernaryBit};
use hyperap_tcam::encoding::encode_pair;
use hyperap_tcam::key::SearchKey;

use crate::dfg::{width_mask, Dfg, DfgNode, DfgOp, NodeId};

// ---------------------------------------------------------------------------
// Stream half: abstract interpretation over column cell-value sets.
// ---------------------------------------------------------------------------

/// Cell may store `0`.
const Z: u8 = 1;
/// Cell may store `1`.
const O: u8 = 2;
/// Cell may store `X` (don't-care / pair-encoded half).
const X: u8 = 4;
/// Any cell value.
const ANY: u8 = Z | O | X;

/// Stored-cell values a key bit matches (TCAM match semantics: `X` cells
/// match any key bit; a `Z` key bit matches only stored `X`).
fn match_set(k: KeyBit) -> u8 {
    match k {
        KeyBit::Zero => Z | X,
        KeyBit::One => O | X,
        KeyBit::Z => X,
        KeyBit::Masked => ANY,
    }
}

/// The cell value a single-column write stores.
fn cell_of(k: KeyBit) -> u8 {
    match k {
        KeyBit::Zero => Z,
        KeyBit::One => O,
        KeyBit::Z => X,
        KeyBit::Masked => 0,
    }
}

/// Tag / latch vector lattice: all-ones, all-zeros, or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    Ones,
    Zeros,
    Top,
}

impl Tri {
    /// Possible per-row bit values as a 2-bit set (bit 0 = may be 0,
    /// bit 1 = may be 1).
    fn bit_set(self) -> u8 {
        match self {
            Tri::Zeros => 0b01,
            Tri::Ones => 0b10,
            Tri::Top => 0b11,
        }
    }
}

/// Seed the abstract column state: everything all-zero except host-loaded
/// input columns (unknown data; pair-encoded slots may also hold `X`).
fn seed_columns(inputs: &[Field], n_cols: usize) -> Vec<u8> {
    let mut cols = vec![Z; n_cols];
    for f in inputs {
        for slot in &f.slots {
            let v = if slot.is_paired() { ANY } else { Z | O };
            for c in slot.columns() {
                cols[c] = v;
            }
        }
    }
    cols
}

/// One constant-propagation sweep over `program`. Deletes provably
/// no-effect ops, narrows certain key bits to `Masked`, and rewrites the
/// program in place. Returns `(ops deleted, key bits narrowed)`.
pub fn run(program: &mut Program, inputs: &[Field], n_cols: usize) -> (usize, usize) {
    let ops = program.ops();
    let mut cols = seed_columns(inputs, n_cols);
    let mut tags = Tri::Zeros;
    let mut latch = Tri::Zeros;
    let mut delete = vec![false; ops.len()];
    let mut rewrites: HashMap<usize, SearchKey> = HashMap::new();
    let mut narrowed = 0usize;
    // Previous *kept* search (index + effective key) for duplicate removal.
    let mut prev_search: Option<(usize, SearchKey, bool)> = None;

    for (i, op) in ops.iter().enumerate() {
        match op {
            ApOp::Search { key, accumulate } => {
                let mut impossible = false;
                let mut all_certain = true;
                let mut certain: Vec<usize> = Vec::new();
                for (c, k) in key.active_bits() {
                    let v = cols[c];
                    let m = match_set(k);
                    if v & m == 0 {
                        impossible = true;
                    }
                    if v & !m & ANY == 0 {
                        certain.push(c);
                    } else {
                        all_certain = false;
                    }
                }
                if impossible {
                    // No row can match: accumulate is a no-op; overwrite
                    // clears the tags.
                    if *accumulate || tags == Tri::Zeros {
                        delete[i] = true;
                    } else {
                        tags = Tri::Zeros;
                    }
                    continue;
                }
                if all_certain {
                    // Every row matches (this includes fully masked keys).
                    if tags == Tri::Ones {
                        delete[i] = true;
                    } else {
                        tags = Tri::Ones;
                    }
                    continue;
                }
                let eff = if certain.is_empty() {
                    key.clone()
                } else {
                    let mut k = key.clone();
                    for &c in &certain {
                        k.set_bit(c, KeyBit::Masked);
                    }
                    k
                };
                // Duplicate of the immediately preceding search: an
                // accumulate re-ORs an already-present match set; two
                // identical overwrites leave the same tags.
                if let Some((p, pk, pacc)) = &prev_search {
                    // Re-ORing the same match set is idempotent whatever
                    // the previous search did; a repeated overwrite is
                    // redundant only after another overwrite.
                    if p + 1 == i && *pk == eff && (*accumulate || !*pacc) {
                        delete[i] = true;
                        continue;
                    }
                }
                if !certain.is_empty() {
                    narrowed += certain.len();
                    rewrites.insert(i, eff.clone());
                }
                tags = if *accumulate && tags == Tri::Ones {
                    Tri::Ones
                } else {
                    Tri::Top
                };
                prev_search = Some((i, eff, *accumulate));
                continue; // skip the prev_search reset below
            }
            ApOp::Latch => latch = tags,
            ApOp::Write { col, value } => {
                let cv = cell_of(*value);
                if tags == Tri::Zeros || (cols[*col] == cv && cv != 0) {
                    // No row tagged, or every row already stores the value.
                    delete[i] = true;
                } else if tags == Tri::Ones {
                    cols[*col] = cv; // strong update: every row written
                } else {
                    cols[*col] |= cv; // weak: untagged rows keep old value
                }
            }
            ApOp::WriteEncoded { col } => {
                // Strong update: every row stores encode_pair(latch, tag).
                let (mut hi, mut lo) = (0u8, 0u8);
                for lb in 0..2u8 {
                    if latch.bit_set() & (1 << lb) == 0 {
                        continue;
                    }
                    for tb in 0..2u8 {
                        if tags.bit_set() & (1 << tb) == 0 {
                            continue;
                        }
                        let cells = encode_pair(lb == 1, tb == 1);
                        let as_set = |t: TernaryBit| match t {
                            TernaryBit::Zero => Z,
                            TernaryBit::One => O,
                            TernaryBit::X => X,
                        };
                        hi |= as_set(cells[0]);
                        lo |= as_set(cells[1]);
                    }
                }
                cols[*col] = hi;
                cols[*col + 1] = lo;
            }
            ApOp::TagAll => {
                if tags == Tri::Ones {
                    delete[i] = true;
                } else {
                    tags = Tri::Ones;
                }
            }
            ApOp::TagNone => {
                if tags == Tri::Zeros {
                    delete[i] = true;
                } else {
                    tags = Tri::Zeros;
                }
            }
            ApOp::Count | ApOp::Index => {}
        }
        prev_search = None;
    }

    let deleted = delete.iter().filter(|&&d| d).count();
    if deleted == 0 && rewrites.is_empty() {
        return (0, 0);
    }
    let mut out = Program::new();
    for (i, op) in program.ops().iter().enumerate() {
        if delete[i] {
            continue;
        }
        match (rewrites.remove(&i), op) {
            (Some(k), ApOp::Search { accumulate, .. }) => out.search(k, *accumulate),
            (_, op) => out.push(op.clone()),
        }
    }
    *program = out;
    (deleted, narrowed)
}

// ---------------------------------------------------------------------------
// DFG half: Wegman–Zadeck constant folding + reachability pruning.
// ---------------------------------------------------------------------------

/// What [`fold_dfg`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DfgFoldReport {
    /// Non-constant nodes replaced by `Const`.
    pub folded: usize,
    /// Nodes forwarded to an operand (identities, known `Select`s).
    pub forwarded: usize,
    /// Nodes dropped as unreachable from the outputs.
    pub pruned: usize,
}

impl DfgFoldReport {
    /// True if the graph was changed at all.
    pub fn changed(&self) -> bool {
        self.folded + self.forwarded + self.pruned > 0
    }
}

/// Per-node resolution decided by the forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Res {
    /// Keep the node (operands remapped through aliases).
    Keep,
    /// Replace with a constant of the node's width/signedness.
    Const(u64),
    /// The node *is* another node (identical width and signedness).
    Alias(NodeId),
    /// The node reduces to a width change of another node.
    Resize(NodeId),
}

/// Fold constants through the DFG, forward known `Select`s and algebraic
/// identities, and prune nodes unreachable from the outputs. Returns the
/// rewritten graph (input widths unchanged — the kernel signature is not
/// ours to edit) and a report.
pub fn fold_dfg(dfg: &Dfg) -> (Dfg, DfgFoldReport) {
    let n = dfg.len();
    let mut konst: Vec<Option<u64>> = vec![None; n];
    let mut res: Vec<Res> = vec![Res::Keep; n];

    // Chase alias chains down to a real node.
    let resolve = |res: &[Res], mut id: NodeId| -> NodeId {
        while let Res::Alias(next) = res[id] {
            id = next;
        }
        id
    };

    // Forward a node to operand `src`, but only where the rewrite is
    // width/sign exact: an alias must present the same width and
    // signedness to consumers (comparison and shift semantics peek at the
    // operand node), and a `Resize` only matches the original op's
    // mask-to-width behavior when it doesn't sign-extend.
    let forward =
        |dfg: &Dfg, konst: &mut [Option<u64>], res: &mut [Res], id: NodeId, src: NodeId| -> bool {
            let node = &dfg.nodes[id];
            let s = &dfg.nodes[src];
            if s.width == node.width && s.signed == node.signed {
                res[id] = Res::Alias(src);
                konst[id] = konst[src];
                true
            } else if !s.signed || node.width <= s.width {
                res[id] = Res::Resize(src);
                konst[id] = konst[src].map(|v| v & width_mask(node.width));
                true
            } else {
                false
            }
        };

    for id in 0..n {
        let node = &dfg.nodes[id];
        let args: Vec<NodeId> = node.inputs.iter().map(|&i| resolve(&res, i)).collect();
        let vals: Vec<Option<u64>> = args.iter().map(|&a| konst[a]).collect();
        match node.op {
            DfgOp::Input { .. } => {}
            DfgOp::Const { value } => {
                konst[id] = Some(value & width_mask(node.width));
                res[id] = Res::Const(konst[id].unwrap());
            }
            _ if !vals.is_empty() && vals.iter().all(Option::is_some) => {
                let cargs: Vec<u64> = vals.iter().map(|v| v.unwrap()).collect();
                let v = dfg.eval_op(id, &cargs);
                konst[id] = Some(v);
                res[id] = Res::Const(v);
            }
            DfgOp::Select if vals[0].is_some() => {
                let arm = if vals[0].unwrap() & 1 == 1 {
                    args[1]
                } else {
                    args[2]
                };
                forward(dfg, &mut konst, &mut res, id, arm);
            }
            DfgOp::Mul | DfgOp::And => {
                // x·0 and x&0 are zero regardless of x.
                if vals.contains(&Some(0)) {
                    konst[id] = Some(0);
                    res[id] = Res::Const(0);
                } else if node.op == DfgOp::Mul {
                    if let Some(k) = (0..2).find(|&k| vals[k] == Some(1)) {
                        forward(dfg, &mut konst, &mut res, id, args[1 - k]);
                    }
                }
            }
            DfgOp::Add | DfgOp::Or | DfgOp::Xor => {
                if let Some(k) = (0..2).find(|&k| vals[k] == Some(0)) {
                    forward(dfg, &mut konst, &mut res, id, args[1 - k]);
                }
            }
            DfgOp::Sub if vals[1] == Some(0) => {
                forward(dfg, &mut konst, &mut res, id, args[0]);
            }
            DfgOp::Shl { amount: 0 } => {
                forward(dfg, &mut konst, &mut res, id, args[0]);
            }
            DfgOp::Shr { amount: 0 } if !dfg.nodes[args[0]].signed => {
                forward(dfg, &mut konst, &mut res, id, args[0]);
            }
            _ => {}
        }
    }

    // Reachability from the (alias-resolved) outputs.
    let mut reachable = vec![false; n];
    let mut stack: Vec<NodeId> = dfg.outputs.iter().map(|&o| resolve(&res, o)).collect();
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut reachable[id], true) {
            continue;
        }
        match res[id] {
            Res::Const(_) => {}
            Res::Resize(src) => stack.push(resolve(&res, src)),
            Res::Keep => {
                for &i in &dfg.nodes[id].inputs {
                    stack.push(resolve(&res, i));
                }
            }
            Res::Alias(_) => unreachable!("aliases are resolved before marking"),
        }
    }

    // Rebuild in the original (still topological) order.
    let mut out = Dfg {
        input_widths: dfg.input_widths.clone(),
        ..Dfg::default()
    };
    let mut map: Vec<Option<NodeId>> = vec![None; n];
    let mut report = DfgFoldReport::default();
    for id in 0..n {
        if !reachable[id] {
            match res[id] {
                Res::Alias(_) => report.forwarded += 1,
                _ => report.pruned += 1,
            }
            continue;
        }
        let node = &dfg.nodes[id];
        let new = match res[id] {
            Res::Const(value) => {
                if !matches!(node.op, DfgOp::Const { .. }) {
                    report.folded += 1;
                }
                DfgNode {
                    op: DfgOp::Const { value },
                    inputs: vec![],
                    width: node.width,
                    signed: node.signed,
                }
            }
            Res::Resize(src) => {
                report.forwarded += 1;
                DfgNode {
                    op: DfgOp::Resize,
                    inputs: vec![map[resolve(&res, src)].expect("operand emitted")],
                    width: node.width,
                    signed: node.signed,
                }
            }
            Res::Keep => DfgNode {
                op: node.op,
                inputs: node
                    .inputs
                    .iter()
                    .map(|&i| map[resolve(&res, i)].expect("operand emitted"))
                    .collect(),
                width: node.width,
                signed: node.signed,
            },
            Res::Alias(_) => unreachable!("aliases are never reachable"),
        };
        map[id] = Some(out.push(new));
    }
    out.outputs = dfg
        .outputs
        .iter()
        .map(|&o| map[resolve(&res, o)].expect("output emitted"))
        .collect();
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperap_core::field::Slot;

    fn single(col: usize) -> Field {
        Field::new(format!("c{col}"), vec![Slot::Single { col }])
    }

    fn node(op: DfgOp, inputs: Vec<NodeId>, width: usize) -> DfgNode {
        DfgNode {
            op,
            inputs,
            width,
            signed: false,
        }
    }

    #[test]
    fn folds_constant_nets() {
        let mut g = Dfg {
            input_widths: vec![8],
            ..Dfg::default()
        };
        let a = g.push(node(DfgOp::Const { value: 5 }, vec![], 8));
        let b = g.push(node(DfgOp::Const { value: 7 }, vec![], 8));
        let s = g.push(node(DfgOp::Add, vec![a, b], 8));
        let x = g.push(node(DfgOp::Input { index: 0 }, vec![], 8));
        let r = g.push(node(DfgOp::Add, vec![s, x], 8));
        g.outputs = vec![r];
        let (f, rep) = fold_dfg(&g);
        assert_eq!(rep.folded, 1);
        assert!(f.nodes.iter().any(|n| n.op == DfgOp::Const { value: 12 }));
        // The two source constants fold away.
        assert!(f.len() < g.len());
        assert_eq!(f.eval(&[100]), g.eval(&[100]));
    }

    #[test]
    fn select_with_known_predicate_forwards_the_live_arm() {
        let mut g = Dfg {
            input_widths: vec![8, 8],
            ..Dfg::default()
        };
        let p = g.push(node(DfgOp::Const { value: 1 }, vec![], 1));
        let a = g.push(node(DfgOp::Input { index: 0 }, vec![], 8));
        let b = g.push(node(DfgOp::Input { index: 1 }, vec![], 8));
        let dead = g.push(node(DfgOp::Mul, vec![b, b], 8));
        let s = g.push(node(DfgOp::Select, vec![p, a, dead], 8));
        g.outputs = vec![s];
        let (f, rep) = fold_dfg(&g);
        assert!(rep.changed());
        // The dead multiply (microcode — expensive!) is pruned.
        assert!(!f.nodes.iter().any(|n| n.op == DfgOp::Mul));
        assert_eq!(f.eval(&[42, 9]), g.eval(&[42, 9]));
    }

    #[test]
    fn multiply_by_zero_and_one_simplify() {
        let mut g = Dfg {
            input_widths: vec![8],
            ..Dfg::default()
        };
        let x = g.push(node(DfgOp::Input { index: 0 }, vec![], 8));
        let zero = g.push(node(DfgOp::Const { value: 0 }, vec![], 8));
        let one = g.push(node(DfgOp::Const { value: 1 }, vec![], 8));
        let m0 = g.push(node(DfgOp::Mul, vec![x, zero], 8));
        let m1 = g.push(node(DfgOp::Mul, vec![x, one], 8));
        let r = g.push(node(DfgOp::Or, vec![m0, m1], 8));
        g.outputs = vec![r];
        let (f, _) = fold_dfg(&g);
        assert!(!f.nodes.iter().any(|n| n.op == DfgOp::Mul));
        for v in [0u64, 1, 77, 255] {
            assert_eq!(f.eval(&[v]), g.eval(&[v]));
        }
    }

    #[test]
    fn forwarding_respects_signed_widening() {
        // Add(x, 0) widening a *signed* source must NOT become Resize
        // (Resize sign-extends; Add masks).
        let mut g = Dfg {
            input_widths: vec![4],
            ..Dfg::default()
        };
        let x = g.push(DfgNode {
            op: DfgOp::Input { index: 0 },
            inputs: vec![],
            width: 4,
            signed: true,
        });
        let zero = g.push(node(DfgOp::Const { value: 0 }, vec![], 8));
        let r = g.push(node(DfgOp::Add, vec![x, zero], 8));
        g.outputs = vec![r];
        let (f, _) = fold_dfg(&g);
        // 0b1000 (-8 as 4-bit) must stay 0x8, not sign-extend to 0xF8.
        assert_eq!(f.eval(&[0b1000]), g.eval(&[0b1000]));
        assert_eq!(f.eval(&[0b1000]), vec![0b1000]);
    }

    #[test]
    fn stream_deletes_impossible_and_narrows_certain_bits() {
        // Col 0: plain input. Col 1: virgin zero.
        let mut p = Program::new();
        // Certain bit (col 1 is known zero) + real bit (col 0): narrowed.
        p.search(
            SearchKey::masked(4)
                .with_bit(0, KeyBit::One)
                .with_bit(1, KeyBit::Zero),
            false,
        );
        p.write(2, KeyBit::One);
        // Impossible: Z over a plain column.
        p.search(SearchKey::masked(4).with_bit(0, KeyBit::Z), true);
        p.write(3, KeyBit::One);
        let (deleted, narrowed) = run(&mut p, &[single(0)], 4);
        assert_eq!((deleted, narrowed), (1, 1));
        let ApOp::Search { key, .. } = &p.ops()[0] else {
            panic!("first op stays a search");
        };
        assert_eq!(key.bit(1), KeyBit::Masked, "certain bit narrowed");
        assert_eq!(key.bit(0), KeyBit::One, "real bit kept");
    }

    #[test]
    fn stream_deletes_writes_under_empty_tags_and_value_nops() {
        let mut p = Program::new();
        p.write(1, KeyBit::One); // tags start all-clear: dead
        p.push(ApOp::TagAll);
        p.write(2, KeyBit::Zero); // col 2 already stores 0 everywhere: no-op
        p.write(3, KeyBit::One); // live
        let (deleted, _) = run(&mut p, &[], 4);
        assert_eq!(deleted, 2);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn stream_drops_duplicate_adjacent_accumulate() {
        let mut p = Program::new();
        let k = SearchKey::masked(2).with_bit(0, KeyBit::One);
        p.search(k.clone(), false);
        p.search(k.clone(), true); // re-ORs its own result: no-op
        p.write(1, KeyBit::One);
        let (deleted, _) = run(&mut p, &[single(0)], 2);
        assert_eq!(deleted, 1);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn stream_keeps_live_programs_intact() {
        let mut p = Program::new();
        p.search(SearchKey::masked(2).with_bit(0, KeyBit::Zero), false);
        p.write(1, KeyBit::One);
        let before = p.clone();
        assert_eq!(run(&mut p, &[single(0)], 2), (0, 0));
        assert_eq!(p, before);
    }
}

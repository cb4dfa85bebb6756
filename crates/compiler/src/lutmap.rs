//! LUT generation (§V-B4): cut-based technology mapping of an AIG into
//! lookup tables of at most `max_inputs` inputs, adapted from the priority-
//! cuts algorithm \[42\] with the paper's cost function (Eq. 2):
//!
//! ```text
//! Cost1[i] = Σ Cost1[j]  +  N_patterns  +  α        (j: input clusters)
//! ```
//!
//! `N_patterns` is the number of search operations for the cluster's lookup
//! table and α = Twrite/Tsearch weighs the write that follows them, so the
//! same mapper retargets between RRAM (α = 10: prefer fewer, larger LUTs)
//! and CMOS (α = 1). Unlike FPGA technology mapping, the objective is total
//! search+write cost, not critical-path depth (§V-B4). Mapping runs over
//! whole DFG regions, so clusters freely cross DFG node boundaries — this
//! is the paper's **operation merging** optimization.

use crate::aig::{lit_inverted, lit_node, Aig, AigNode, Lit};
use hyperap_tcam::mvsop::{minimize, Cover, PosKind};
use std::collections::{HashMap, HashSet};

/// Mapping options.
#[derive(Debug, Clone)]
pub struct MapOptions {
    /// Maximum LUT inputs (the paper uses 12; see §V-B4 on why it is
    /// bounded).
    pub max_inputs: usize,
    /// Eq. 2's α = Twrite/Tsearch.
    pub alpha: f64,
    /// Priority-cut pool size per node.
    pub cuts_per_node: usize,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            max_inputs: 6,
            alpha: 10.0,
            cuts_per_node: 6,
        }
    }
}

/// One mapped LUT: computes AIG node `root` (positive polarity) from the
/// leaf nodes.
#[derive(Debug, Clone)]
pub struct MappedLut {
    /// Root AIG node id.
    pub root: u32,
    /// Leaf node ids (LUT inputs), sorted.
    pub leaves: Vec<u32>,
    /// ON-set minterms over the leaves (bit `i` of a minterm = leaf `i`).
    pub on_set: Vec<u16>,
}

/// The result of mapping: LUTs in topological order (every LUT's non-input
/// leaves are roots of earlier LUTs or members of the initial leaf set).
#[derive(Debug, Clone, Default)]
pub struct Mapping {
    /// Chosen LUTs.
    pub luts: Vec<MappedLut>,
}

/// The ON-set of ¬f over `k` inputs: every minterm *not* in `on_set`.
/// Used by inverted-literal absorption — a LUT whose output is only ever
/// consumed inverted writes the complemented function instead of paying a
/// downstream inverter LUT.
pub fn complement_on_set(on_set: &[u16], k: usize) -> Vec<u16> {
    let present: std::collections::HashSet<u16> = on_set.iter().copied().collect();
    (0..1u32 << k)
        .map(|m| m as u16)
        .filter(|m| !present.contains(m))
        .collect()
}

/// Rewrite an ON-set for an input whose backing column stores the
/// *complement* of the logical leaf: flip bit `input` of every minterm.
pub fn flip_on_set_input(on_set: &[u16], input: usize) -> Vec<u16> {
    on_set.iter().map(|&m| m ^ (1 << input)).collect()
}

/// Minimized search counts by `(k, truth table)`, shared by every [`map`]
/// call of one compile (the same bit-slice functions recur across regions
/// and flushes). It lives as long as one compile, never process-wide, so a
/// long-lived compiling process does not grow it without bound. Tables of
/// at most six inputs fit one `u64` key.
#[derive(Debug, Default)]
pub struct PatternMemo {
    narrow: HashMap<(u8, u64), usize>,
    /// Wider tables; a `k`-input table is `2^(k-6)` words, so the key's
    /// length fixes `k`.
    wide: HashMap<Vec<u64>, usize>,
}

impl PatternMemo {
    /// Searches (Σ N_patterns over single-bit positions) to realize the
    /// `k`-input function `tt`.
    fn searches(&mut self, k: usize, tt: &[u64]) -> usize {
        let minimized = || {
            let on: Vec<Vec<u8>> = (0..1usize << k)
                .filter(|&m| tt[m / 64] >> (m % 64) & 1 == 1)
                .map(|m| (0..k).map(|i| (m >> i & 1) as u8).collect())
                .collect();
            minimize(&Cover::new(vec![PosKind::Single; k], on)).num_searches()
        };
        if k <= 6 {
            return *self
                .narrow
                .entry((k as u8, tt[0]))
                .or_insert_with(minimized);
        }
        if let Some(&p) = self.wide.get(tt) {
            return p;
        }
        let p = minimized();
        self.wide.insert(tt.to_vec(), p);
        p
    }
}

/// Map the cones of `outputs` into LUTs. Nodes in `extra_leaves` are
/// treated as free inputs (already materialized in storage); `memo` caches
/// cut costs across the calls of one compile.
pub fn map(
    g: &Aig,
    outputs: &[Lit],
    extra_leaves: &HashSet<u32>,
    opts: &MapOptions,
    memo: &mut PatternMemo,
) -> Mapping {
    let cone = g.cone(outputs);
    let is_leaf = |id: u32| -> bool {
        matches!(g.node(id), AigNode::Const0 | AigNode::Input { .. }) || extra_leaves.contains(&id)
    };

    // Cut enumeration with Eq. 2 costing.
    #[derive(Clone)]
    struct Cut {
        leaves: Vec<u32>,
        cost: f64,
    }
    let mut cuts: HashMap<u32, Vec<Cut>> = HashMap::new();
    let mut best_cost: HashMap<u32, f64> = HashMap::new();

    for &id in &cone {
        if is_leaf(id) {
            cuts.insert(
                id,
                vec![Cut {
                    leaves: vec![id],
                    cost: 0.0,
                }],
            );
            best_cost.insert(id, 0.0);
            continue;
        }
        let AigNode::And(la, lb) = g.node(id) else {
            unreachable!("non-leaf is an AND")
        };
        let (na, nb) = (lit_node(la), lit_node(lb));
        let mut pool: Vec<Cut> = Vec::new();
        // Children contribute their cut pools plus their trivial self-cut
        // (using the child as a materialized leaf), which guarantees every
        // AND node has at least the {na, nb} cut.
        let with_trivial = |node: u32, cuts: &HashMap<u32, Vec<Cut>>, best: &HashMap<u32, f64>| {
            let mut v = cuts.get(&node).cloned().unwrap_or_default();
            if !v.iter().any(|c| c.leaves == [node]) {
                v.push(Cut {
                    leaves: vec![node],
                    cost: *best.get(&node).unwrap_or(&0.0),
                });
            }
            v
        };
        let ca = with_trivial(na, &cuts, &best_cost);
        let cb = with_trivial(nb, &cuts, &best_cost);
        for a in &ca {
            for b in &cb {
                let mut leaves: Vec<u32> =
                    a.leaves.iter().chain(b.leaves.iter()).copied().collect();
                leaves.sort_unstable();
                leaves.dedup();
                if leaves.len() > opts.max_inputs {
                    continue;
                }
                if pool.iter().any(|c| c.leaves == leaves) {
                    continue;
                }
                let (tt, k) = truth_table(g, id, &leaves);
                let patterns = memo.searches(k, &tt);
                let leaf_cost: f64 = leaves
                    .iter()
                    .map(|l| *best_cost.get(l).unwrap_or(&0.0))
                    .sum();
                pool.push(Cut {
                    cost: leaf_cost + patterns as f64 + opts.alpha,
                    leaves,
                });
            }
        }
        pool.sort_by(|x, y| x.cost.total_cmp(&y.cost));
        pool.truncate(opts.cuts_per_node);
        let best = pool.first().map(|c| c.cost).unwrap_or(f64::INFINITY);
        best_cost.insert(id, best);
        cuts.insert(id, pool);
    }

    // Top-down cover extraction.
    let mut required: Vec<u32> = outputs
        .iter()
        .map(|&l| lit_node(l))
        .filter(|&n| !is_leaf(n))
        .collect();
    required.sort_unstable();
    required.dedup();
    let mut chosen: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut work = required.clone();
    while let Some(id) = work.pop() {
        if chosen.contains_key(&id) {
            continue;
        }
        let cut = cuts[&id]
            .first()
            .unwrap_or_else(|| panic!("node {id} has no feasible cut (fanin cone too wide?)"));
        chosen.insert(id, cut.leaves.clone());
        for &leaf in &cut.leaves {
            if !is_leaf(leaf) && !chosen.contains_key(&leaf) {
                work.push(leaf);
            }
        }
    }

    // Emit in topological (cone) order.
    let mut luts = Vec::new();
    for &id in &cone {
        if let Some(leaves) = chosen.get(&id) {
            let (tt, k) = truth_table(g, id, leaves);
            let on_set: Vec<u16> = (0..1usize << k)
                .filter(|&m| tt[m / 64] >> (m % 64) & 1 == 1)
                .map(|m| m as u16)
                .collect();
            luts.push(MappedLut {
                root: id,
                leaves: leaves.clone(),
                on_set,
            });
        }
    }
    Mapping { luts }
}

/// Truth table of node `root` over `leaves` (bit `m` of the packed table =
/// value at minterm `m`; minterm bit `i` = leaf `i`).
///
/// One bit-parallel pass over the cone: leaf `i` starts as its projection
/// pattern (bit `m` set iff bit `i` of `m` is), every AND node below the
/// root is computed once with word operations, and the root's table is
/// masked to `2^k` bits.
///
/// # Panics
///
/// Panics if `leaves` has more than 16 entries or the cut does not cover
/// an input node of the cone.
pub fn truth_table(g: &Aig, root: u32, leaves: &[u32]) -> (Vec<u64>, usize) {
    let k = leaves.len();
    assert!(k <= 16, "LUT wider than 16 inputs");
    let words = (1usize << k).div_ceil(64);
    // The cone between the root and the cut, in ascending id order: AIG
    // nodes only reference older nodes, so that order is topological.
    let mut nodes: Vec<u32> = Vec::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if nodes.contains(&id) {
            continue;
        }
        nodes.push(id);
        if leaves.contains(&id) {
            continue;
        }
        match g.node(id) {
            AigNode::Const0 => {}
            AigNode::Input { .. } => panic!("cut does not cover input node {id}"),
            AigNode::And(a, b) => stack.extend([lit_node(a), lit_node(b)]),
        }
    }
    nodes.sort_unstable();
    let slot = |id: u32| nodes.binary_search(&id).expect("cone node") * words;
    let mut vals = vec![0u64; nodes.len() * words];
    for (n, &id) in nodes.iter().enumerate() {
        if let Some(i) = leaves.iter().position(|&l| l == id) {
            for (w, v) in vals[n * words..(n + 1) * words].iter_mut().enumerate() {
                *v = projection(i, w);
            }
        } else if let AigNode::And(a, b) = g.node(id) {
            let (sa, sb) = (slot(lit_node(a)), slot(lit_node(b)));
            let (ia, ib) = (inversion(a), inversion(b));
            for w in 0..words {
                vals[n * words + w] = (vals[sa + w] ^ ia) & (vals[sb + w] ^ ib);
            }
        }
    }
    let mut tt = vals[slot(root)..slot(root) + words].to_vec();
    if k < 6 {
        tt[0] &= (1u64 << (1 << k)) - 1;
    }
    (tt, k)
}

/// Word `w` of leaf `i`'s projection pattern.
fn projection(i: usize, w: usize) -> u64 {
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    match LOW.get(i) {
        Some(&p) => p,
        None if w >> (i - 6) & 1 == 1 => !0,
        None => 0,
    }
}

/// All-ones when the literal is inverted.
fn inversion(l: Lit) -> u64 {
    if lit_inverted(l) {
        !0
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::lit_not;
    use crate::rtl;
    use proptest::prelude::*;

    /// The per-minterm oracle for [`truth_table`]: evaluate the cone once
    /// per minterm.
    fn truth_table_by_minterm(g: &Aig, root: u32, leaves: &[u32]) -> Vec<u64> {
        let leaf_index: HashMap<u32, usize> =
            leaves.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut tt = vec![0u64; (1usize << leaves.len()).div_ceil(64)];
        let mut vals = HashMap::new();
        for m in 0..1usize << leaves.len() {
            vals.clear();
            if eval_to_leaves(g, root, &leaf_index, m, &mut vals) {
                tt[m / 64] |= 1 << (m % 64);
            }
        }
        tt
    }

    fn eval_to_leaves(
        g: &Aig,
        id: u32,
        leaves: &HashMap<u32, usize>,
        minterm: usize,
        vals: &mut HashMap<u32, bool>,
    ) -> bool {
        if let Some(&i) = leaves.get(&id) {
            return minterm >> i & 1 == 1;
        }
        if let Some(&v) = vals.get(&id) {
            return v;
        }
        let v = match g.node(id) {
            AigNode::Const0 => false,
            AigNode::Input { .. } => {
                panic!("cut does not cover input node {id}")
            }
            AigNode::And(a, b) => {
                let va = eval_to_leaves(g, lit_node(a), leaves, minterm, vals) ^ lit_inverted(a);
                let vb = eval_to_leaves(g, lit_node(b), leaves, minterm, vals) ^ lit_inverted(b);
                va && vb
            }
        };
        vals.insert(id, v);
        v
    }

    /// A random cone over `k` leaves: each step ANDs two earlier literals
    /// (leaves, the constant or earlier steps), either polarity. With
    /// `inner`, leaf `i` is the AND of two fresh inputs, so the cut sits
    /// above the primary inputs. Returns the graph, the leaf node ids and
    /// every node at or above the cut (the valid roots).
    fn random_cone(
        k: usize,
        inner: bool,
        steps: &[(u16, u16, bool, bool)],
    ) -> (Aig, Vec<u32>, Vec<u32>) {
        let mut g = Aig::new();
        let mut lits: Vec<Lit> = (0..k)
            .map(|_| {
                let a = g.input();
                if inner {
                    let b = g.input();
                    g.and(a, b)
                } else {
                    a
                }
            })
            .collect();
        let leaves = lits.iter().map(|&l| lit_node(l)).collect();
        lits.push(g.constant(false));
        for &(a, b, na, nb) in steps {
            let pick = |i: u16, inv: bool| {
                let l = lits[i as usize % lits.len()];
                if inv {
                    lit_not(l)
                } else {
                    l
                }
            };
            let x = g.and(pick(a, na), pick(b, nb));
            lits.push(x);
        }
        let roots = lits.iter().map(|&l| lit_node(l)).collect();
        (g, leaves, roots)
    }

    proptest! {
        #[test]
        fn bit_parallel_truth_table_matches_per_minterm_oracle(
            k in 1usize..=8,
            inner in any::<bool>(),
            steps in prop::collection::vec(
                (any::<u16>(), any::<u16>(), any::<bool>(), any::<bool>()),
                1..40,
            ),
            root_pick in any::<u16>(),
            rotate in any::<u8>(),
        ) {
            let (g, mut leaves, roots) = random_cone(k, inner, &steps);
            // Leaf order is the caller's; minterm bit i follows leaves[i].
            leaves.rotate_left(rotate as usize % k);
            let root = roots[root_pick as usize % roots.len()];
            let (tt, width) = truth_table(&g, root, &leaves);
            prop_assert_eq!(width, k);
            prop_assert_eq!(tt, truth_table_by_minterm(&g, root, &leaves));
        }
    }

    #[test]
    fn complement_on_set_inverts_the_function() {
        // f(a,b) = a·b over 2 inputs: on-set {3} → complement {0,1,2}.
        let mut comp = complement_on_set(&[3], 2);
        comp.sort_unstable();
        assert_eq!(comp, vec![0, 1, 2]);
        // Complementing twice is the identity.
        let mut twice = complement_on_set(&comp, 2);
        twice.sort_unstable();
        assert_eq!(twice, vec![3]);
    }

    #[test]
    fn flip_on_set_input_rewires_a_complemented_leaf() {
        // f(a,b) = a·b with leaf 0 stored complemented: the table must
        // answer with ¬a in slot a, i.e. on-set {3} → {2}.
        assert_eq!(flip_on_set_input(&[3], 0), vec![2]);
        assert_eq!(flip_on_set_input(&[2], 0), vec![3]);
        // Semantics check by exhaustive evaluation over both inputs.
        let f = |on: &[u16], a: u16, b: u16| on.contains(&(a | (b << 1)));
        let flipped = flip_on_set_input(&[1, 2], 1);
        for a in 0..2u16 {
            for b in 0..2u16 {
                assert_eq!(f(&flipped, a, b), f(&[1, 2], a, 1 - b));
            }
        }
    }

    #[test]
    fn maps_small_adder_into_few_luts() {
        let mut g = Aig::new();
        let a: Vec<Lit> = (0..3).map(|_| g.input()).collect();
        let b: Vec<Lit> = (0..3).map(|_| g.input()).collect();
        let sum = rtl::add(&mut g, &a.clone(), &b.clone(), 4);
        let mapping = map(
            &g,
            &sum,
            &HashSet::new(),
            &MapOptions::default(),
            &mut PatternMemo::default(),
        );
        // 4 output bits; with 8-input LUTs the whole 3-bit adder fits in
        // at most 4 LUTs (one per output), usually fewer nodes duplicated.
        assert!(!mapping.luts.is_empty());
        assert!(mapping.luts.len() <= 6, "got {}", mapping.luts.len());
        // Verify each LUT's truth table against direct AIG evaluation.
        for lut in &mapping.luts {
            for m in 0..1u16 << lut.leaves.len() {
                let expected = truth_table_by_minterm(&g, lut.root, &lut.leaves);
                assert_eq!(lut.on_set.contains(&m), expected[0] >> m & 1 == 1);
            }
        }
    }

    #[test]
    fn alpha_steers_lut_granularity() {
        // High α (RRAM) should never need more LUTs (writes) than low α.
        let build = |alpha: f64| {
            let mut g = Aig::new();
            let a: Vec<Lit> = (0..4).map(|_| g.input()).collect();
            let b: Vec<Lit> = (0..4).map(|_| g.input()).collect();
            let sum = rtl::add(&mut g, &a, &b, 5);
            let opts = MapOptions {
                alpha,
                ..MapOptions::default()
            };
            map(
                &g,
                &sum,
                &HashSet::new(),
                &opts,
                &mut PatternMemo::default(),
            )
            .luts
            .len()
        };
        assert!(build(10.0) <= build(1.0));
    }

    #[test]
    fn extra_leaves_act_as_inputs() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x = g.and(a, b);
        let y = g.xor(x, a);
        // Declare x materialized: the mapping must treat it as a leaf.
        let mut leaves = HashSet::new();
        leaves.insert(lit_node(x));
        let mapping = map(
            &g,
            &[y],
            &leaves,
            &MapOptions::default(),
            &mut PatternMemo::default(),
        );
        assert_eq!(mapping.luts.len(), 1);
        assert!(mapping.luts[0].leaves.contains(&lit_node(x)));
    }

    #[test]
    fn truth_table_of_xor() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x = g.xor(a, b);
        // The xor literal is complemented: the underlying node is an XNOR.
        let (tt, k) = truth_table(&g, lit_node(x), &[lit_node(a), lit_node(b)]);
        assert_eq!(k, 2);
        let expect = if crate::aig::lit_inverted(x) {
            0b1001
        } else {
            0b0110
        };
        assert_eq!(tt[0] & 0xF, expect);
    }

    #[test]
    fn mapping_covers_outputs_topologically() {
        let mut g = Aig::new();
        let ins: Vec<Lit> = (0..6).map(|_| g.input()).collect();
        let mut acc = ins[0];
        for &l in &ins[1..] {
            let x = g.xor(acc, l);
            acc = g.and(x, ins[0]);
        }
        let mapping = map(
            &g,
            &[acc],
            &HashSet::new(),
            &MapOptions {
                max_inputs: 4,
                ..MapOptions::default()
            },
            &mut PatternMemo::default(),
        );
        // Every non-primary leaf must appear as an earlier LUT root.
        let mut produced: HashSet<u32> = HashSet::new();
        for lut in &mapping.luts {
            for &leaf in &lut.leaves {
                if matches!(g.node(leaf), AigNode::And(..)) {
                    assert!(produced.contains(&leaf), "leaf {leaf} not yet produced");
                }
            }
            produced.insert(lut.root);
        }
        assert!(produced.contains(&lit_node(acc)));
    }
}

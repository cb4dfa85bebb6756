//! And-inverter graphs (§V-B3): the netlist representation produced by the
//! RTL library and consumed by LUT generation.
//!
//! Literals carry a complement bit (`node << 1 | inverted`). Construction
//! performs constant propagation and structural hashing — binding a constant
//! to an RTL input therefore *erases* the corresponding logic, which is
//! exactly how immediate operands get embedded into the lookup tables
//! (§V-B4c).

use std::collections::HashMap;

/// A literal: node id with complement bit.
pub type Lit = u32;

/// The constant-false literal.
pub const FALSE: Lit = 0;
/// The constant-true literal.
pub const TRUE: Lit = 1;

/// Make a literal from node id and inversion flag.
pub fn lit(node: u32, inverted: bool) -> Lit {
    node << 1 | inverted as u32
}

/// Node id of a literal.
pub fn lit_node(l: Lit) -> u32 {
    l >> 1
}

/// Inversion flag of a literal.
pub fn lit_inverted(l: Lit) -> bool {
    l & 1 == 1
}

/// Complement a literal.
pub fn lit_not(l: Lit) -> Lit {
    l ^ 1
}

/// One AIG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AigNode {
    /// The constant-false node (id 0).
    Const0,
    /// Primary input.
    Input {
        /// Input index.
        index: u32,
    },
    /// Two-input AND of literals.
    And(Lit, Lit),
}

/// An and-inverter graph.
#[derive(Debug, Clone, Default)]
pub struct Aig {
    nodes: Vec<AigNode>,
    strash: HashMap<(Lit, Lit), u32>,
    n_inputs: u32,
}

impl Aig {
    /// Empty AIG (node 0 is the constant).
    pub fn new() -> Self {
        Aig {
            nodes: vec![AigNode::Const0],
            strash: HashMap::new(),
            n_inputs: 0,
        }
    }

    /// Number of nodes (including the constant).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if only the constant node exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Number of AND nodes.
    pub fn and_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, AigNode::And(..)))
            .count()
    }

    /// Node accessor.
    pub fn node(&self, id: u32) -> AigNode {
        self.nodes[id as usize]
    }

    /// Create a new primary input; returns its (positive) literal.
    pub fn input(&mut self) -> Lit {
        let id = self.nodes.len() as u32;
        self.nodes.push(AigNode::Input {
            index: self.n_inputs,
        });
        self.n_inputs += 1;
        lit(id, false)
    }

    /// Constant literal.
    pub fn constant(&self, value: bool) -> Lit {
        if value {
            TRUE
        } else {
            FALSE
        }
    }

    /// AND with constant folding and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant folding.
        if a == FALSE || b == FALSE {
            return FALSE;
        }
        if a == TRUE {
            return b;
        }
        if b == TRUE {
            return a;
        }
        if a == b {
            return a;
        }
        if a == lit_not(b) {
            return FALSE;
        }
        // Canonical order.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(a, b)) {
            return lit(id, false);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(AigNode::And(a, b));
        self.strash.insert((a, b), id);
        lit(id, false)
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        let n = self.and(lit_not(a), lit_not(b));
        lit_not(n)
    }

    /// XOR.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let n1 = self.and(a, lit_not(b));
        let n2 = self.and(lit_not(a), b);
        self.or(n1, n2)
    }

    /// XNOR.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        let x = self.xor(a, b);
        lit_not(x)
    }

    /// 2:1 multiplexer: `sel ? t : f`.
    pub fn mux(&mut self, sel: Lit, t: Lit, f: Lit) -> Lit {
        let a = self.and(sel, t);
        let b = self.and(lit_not(sel), f);
        self.or(a, b)
    }

    /// Majority of three (full-adder carry).
    pub fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let t = self.or(ab, ac);
        self.or(t, bc)
    }

    /// Evaluate a literal under an input assignment.
    pub fn eval(&self, l: Lit, inputs: &[bool]) -> bool {
        let v = self.eval_node(lit_node(l), inputs);
        v ^ lit_inverted(l)
    }

    fn eval_node(&self, id: u32, inputs: &[bool]) -> bool {
        match self.nodes[id as usize] {
            AigNode::Const0 => false,
            AigNode::Input { index } => inputs[index as usize],
            AigNode::And(a, b) => self.eval(a, inputs) && self.eval(b, inputs),
        }
    }

    /// The transitive-fanin cone of `roots` (node ids, topologically
    /// sorted, constants/inputs included).
    pub fn cone(&self, roots: &[Lit]) -> Vec<u32> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut stack: Vec<(u32, bool)> = roots.iter().map(|&l| (lit_node(l), false)).collect();
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
                continue;
            }
            if seen[id as usize] {
                continue;
            }
            seen[id as usize] = true;
            stack.push((id, true));
            if let AigNode::And(a, b) = self.nodes[id as usize] {
                stack.push((lit_node(a), false));
                stack.push((lit_node(b), false));
            }
        }
        order
    }

    /// Which polarity of each AND node do `bits` reference? Returns the
    /// `(positive, negative)` node-id sets. An AND node appearing *only*
    /// in the negative set is a candidate for inverted-literal absorption:
    /// its root LUT can store the complemented function directly instead
    /// of paying a separate inverter LUT per use.
    pub fn polarity_uses(
        &self,
        bits: &[Lit],
    ) -> (
        std::collections::HashSet<u32>,
        std::collections::HashSet<u32>,
    ) {
        let mut pos = std::collections::HashSet::new();
        let mut neg = std::collections::HashSet::new();
        for &l in bits {
            let n = lit_node(l);
            if matches!(self.node(n), AigNode::And(..)) {
                if lit_inverted(l) {
                    neg.insert(n);
                } else {
                    pos.insert(n);
                }
            }
        }
        (pos, neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut g = Aig::new();
        let a = g.input();
        assert_eq!(g.and(a, FALSE), FALSE);
        assert_eq!(g.and(a, TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, lit_not(a)), FALSE);
        assert_eq!(g.and_count(), 0, "no gates were materialized");
    }

    #[test]
    fn structural_hashing_dedupes() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.and_count(), 1);
    }

    #[test]
    fn polarity_uses_splits_and_nodes_by_inversion() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x = g.and(a, b); // used both ways
        let y = g.or(a, b); // = ¬(¬a·¬b): the AND node is used inverted
        let (pos, neg) = g.polarity_uses(&[x, lit_not(x), y, a]);
        assert!(pos.contains(&lit_node(x)) && neg.contains(&lit_node(x)));
        assert!(neg.contains(&lit_node(y)) && !pos.contains(&lit_node(y)));
        // Inputs are not AND nodes and never appear.
        assert!(!pos.contains(&lit_node(a)) && !neg.contains(&lit_node(a)));
    }

    #[test]
    fn xor_truth_table() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x = g.xor(a, b);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(g.eval(x, &[va, vb]), va ^ vb);
        }
    }

    #[test]
    fn mux_and_maj() {
        let mut g = Aig::new();
        let s = g.input();
        let t = g.input();
        let f = g.input();
        let m = g.mux(s, t, f);
        let j = g.maj(s, t, f);
        for v in 0..8u32 {
            let ins = [(v & 1) != 0, (v & 2) != 0, (v & 4) != 0];
            assert_eq!(g.eval(m, &ins), if ins[0] { ins[1] } else { ins[2] });
            assert_eq!(
                g.eval(j, &ins),
                (ins[0] as u8 + ins[1] as u8 + ins[2] as u8) >= 2
            );
        }
    }

    #[test]
    fn cone_is_topological() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x = g.and(a, b);
        let y = g.xor(x, a);
        let cone = g.cone(&[y]);
        let pos: HashMap<u32, usize> = cone.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for &id in &cone {
            if let AigNode::And(p, q) = g.node(id) {
                assert!(pos[&lit_node(p)] < pos[&id]);
                assert!(pos[&lit_node(q)] < pos[&id]);
            }
        }
    }
}

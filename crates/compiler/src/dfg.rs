//! The dataflow graph produced by semantic analysis (§V-B1).

/// Node identifier.
pub type NodeId = usize;

/// DFG operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DfgOp {
    /// Kernel scalar input (parameter or flattened struct field).
    Input {
        /// Input index.
        index: usize,
    },
    /// Compile-time constant.
    Const {
        /// Value.
        value: u64,
    },
    /// Addition.
    Add,
    /// Subtraction (wrapping).
    Sub,
    /// Multiplication (dispatched to expert microcode).
    Mul,
    /// Unsigned division (microcode).
    Div,
    /// Unsigned remainder (microcode).
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT.
    Not,
    /// Two's-complement negation.
    Neg,
    /// Left shift by a constant.
    Shl {
        /// Shift amount.
        amount: usize,
    },
    /// Right shift by a constant (logical for unsigned, arithmetic for
    /// signed).
    Shr {
        /// Shift amount.
        amount: usize,
    },
    /// Equality (1-bit result).
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// `pred ? a : b` (inputs: pred, a, b) — the Fig 13b conditional
    /// flattening.
    Select,
    /// Width change (zero- or sign-extension / truncation).
    Resize,
    /// Integer square root (microcode).
    Sqrt,
    /// Fixed-point exponential (microcode).
    Exp {
        /// Fraction bits of the Q format.
        frac_bits: u32,
    },
}

impl DfgOp {
    /// Ops dispatched to the hand-optimized iterative microcode rather than
    /// the AIG/LUT-mapping path.
    pub fn is_microcode(self) -> bool {
        matches!(
            self,
            DfgOp::Mul | DfgOp::Div | DfgOp::Rem | DfgOp::Sqrt | DfgOp::Exp { .. }
        )
    }
}

/// One DFG node.
#[derive(Debug, Clone, PartialEq)]
pub struct DfgNode {
    /// Operation.
    pub op: DfgOp,
    /// Operand node ids.
    pub inputs: Vec<NodeId>,
    /// Result bit width.
    pub width: usize,
    /// Two's-complement signedness of the result.
    pub signed: bool,
}

/// A dataflow graph: nodes in creation (= topological) order plus the
/// output node list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dfg {
    /// Nodes; `inputs` ids always precede the node (DAG in topo order).
    pub nodes: Vec<DfgNode>,
    /// Output node ids (`main`'s return value; structs flatten to several).
    pub outputs: Vec<NodeId>,
    /// Widths of the kernel scalar inputs, in input-index order.
    pub input_widths: Vec<usize>,
}

/// All-ones mask of the low `w` bits.
pub(crate) fn width_mask(w: usize) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Sign-extend the `w`-bit value `v`.
pub(crate) fn sign_extend(v: u64, w: usize) -> i64 {
    if w >= 64 || w == 0 {
        v as i64
    } else if v >> (w - 1) & 1 == 1 {
        (v | !width_mask(w)) as i64
    } else {
        v as i64
    }
}

impl Dfg {
    /// Add a node; returns its id.
    pub fn push(&mut self, node: DfgNode) -> NodeId {
        for &i in &node.inputs {
            assert!(i < self.nodes.len(), "DFG input out of order");
        }
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &DfgNode {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Evaluate the DFG on concrete inputs (the reference interpreter used
    /// to validate compiled kernels).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the declared input count.
    pub fn eval(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.input_widths.len(), "input count");
        let mut values: Vec<u64> = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let v = match node.op {
                DfgOp::Input { index } => {
                    inputs[index] & width_mask(self.input_widths[index]) & width_mask(node.width)
                }
                _ => {
                    let args: Vec<u64> = node.inputs.iter().map(|&i| values[i]).collect();
                    self.eval_op(id, &args)
                }
            };
            values.push(v);
        }
        self.outputs.iter().map(|&o| values[o]).collect()
    }

    /// Evaluate node `id`'s operation on concrete operand values (each
    /// already masked to its producer's width), returning the result masked
    /// to the node's width. This is the single source of truth for node
    /// semantics, shared by [`eval`](Self::eval) and the constant-folding
    /// pass.
    ///
    /// # Panics
    ///
    /// Panics on `Input` nodes — those take their value from the kernel
    /// arguments, not operands.
    pub fn eval_op(&self, id: NodeId, args: &[u64]) -> u64 {
        let mask = width_mask;
        let sext = sign_extend;
        let node = &self.nodes[id];
        let a = |i: usize| args[i];
        let in_node = |i: usize| &self.nodes[node.inputs[i]];
        let v = match node.op {
            DfgOp::Input { .. } => panic!("Input nodes have no operands"),
            DfgOp::Const { value } => value,
            DfgOp::Add => a(0).wrapping_add(a(1)),
            DfgOp::Sub => a(0).wrapping_sub(a(1)),
            DfgOp::Mul => a(0).wrapping_mul(a(1)),
            DfgOp::Div => {
                if a(1) == 0 {
                    mask(node.width)
                } else {
                    a(0) / a(1)
                }
            }
            DfgOp::Rem => {
                if a(1) == 0 {
                    a(0)
                } else {
                    a(0) % a(1)
                }
            }
            DfgOp::And => a(0) & a(1),
            DfgOp::Or => a(0) | a(1),
            DfgOp::Xor => a(0) ^ a(1),
            DfgOp::Not => !a(0),
            DfgOp::Neg => a(0).wrapping_neg(),
            DfgOp::Shl { amount } => a(0) << amount.min(63),
            DfgOp::Shr { amount } => {
                let w = in_node(0).width;
                if in_node(0).signed {
                    (sext(a(0), w) >> amount.min(63)) as u64
                } else {
                    a(0) >> amount.min(63)
                }
            }
            DfgOp::Eq => (a(0) == a(1)) as u64,
            DfgOp::Ne => (a(0) != a(1)) as u64,
            DfgOp::Lt | DfgOp::Le | DfgOp::Gt | DfgOp::Ge => {
                let (x, y) = (a(0), a(1));
                let signed = in_node(0).signed || in_node(1).signed;
                let cmp = if signed {
                    sext(x, in_node(0).width).cmp(&sext(y, in_node(1).width))
                } else {
                    x.cmp(&y)
                };
                let r = match node.op {
                    DfgOp::Lt => cmp.is_lt(),
                    DfgOp::Le => cmp.is_le(),
                    DfgOp::Gt => cmp.is_gt(),
                    _ => cmp.is_ge(),
                };
                r as u64
            }
            DfgOp::Select => {
                if a(0) & 1 == 1 {
                    a(1)
                } else {
                    a(2)
                }
            }
            DfgOp::Resize => {
                let src = in_node(0);
                if src.signed && node.width > src.width {
                    (sext(a(0), src.width) as u64) & mask(node.width)
                } else {
                    a(0)
                }
            }
            DfgOp::Sqrt => (a(0) as f64).sqrt().floor() as u64,
            DfgOp::Exp { frac_bits } => {
                let x = a(0) as f64 / (1u64 << frac_bits) as f64;
                (x.exp() * (1u64 << frac_bits) as f64) as u64
            }
        };
        v & mask(node.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_graph() -> Dfg {
        let mut g = Dfg {
            input_widths: vec![5, 5],
            ..Dfg::default()
        };
        let a = g.push(DfgNode {
            op: DfgOp::Input { index: 0 },
            inputs: vec![],
            width: 5,
            signed: false,
        });
        let b = g.push(DfgNode {
            op: DfgOp::Input { index: 1 },
            inputs: vec![],
            width: 5,
            signed: false,
        });
        let c = g.push(DfgNode {
            op: DfgOp::Add,
            inputs: vec![a, b],
            width: 6,
            signed: false,
        });
        g.outputs = vec![c];
        g
    }

    #[test]
    fn eval_add() {
        assert_eq!(add_graph().eval(&[30, 31]), vec![61]);
    }

    #[test]
    fn eval_masks_to_width() {
        // 5-bit inputs mask; 6-bit output wraps.
        assert_eq!(add_graph().eval(&[63, 0]), vec![31]);
    }

    #[test]
    #[should_panic(expected = "DFG input out of order")]
    fn rejects_forward_references() {
        let mut g = Dfg::default();
        g.push(DfgNode {
            op: DfgOp::Add,
            inputs: vec![5],
            width: 4,
            signed: false,
        });
    }

    #[test]
    fn microcode_classification() {
        assert!(DfgOp::Mul.is_microcode());
        assert!(DfgOp::Exp { frac_bits: 8 }.is_microcode());
        assert!(!DfgOp::Add.is_microcode());
    }
}

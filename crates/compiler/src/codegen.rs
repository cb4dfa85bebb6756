//! Code generation (§V-B5): walk the DFG, build AIG regions, map them to
//! LUTs, and emit the associative-operation program, dispatching complex
//! operators to the expert microcode.
//!
//! Because one AIG spans *all* adjacent mappable DFG nodes, LUT clusters
//! routinely cross DFG node boundaries — intermediate results of merged
//! operations are never written to storage (operation merging, Fig 12a).
//! Constants enter the AIG as constant literals and vanish into the
//! surviving gates' truth tables (operand embedding, Fig 12b).

use crate::aig::{lit_inverted, lit_node, Aig, AigNode, Lit, FALSE, TRUE};
use crate::dfg::{Dfg, DfgOp};
use crate::lutmap::{self, complement_on_set, flip_on_set_input, MapOptions, PatternMemo};
use crate::opt::{self, OptReport};
use crate::pipeline::{CompileError, CompileOptions};
use crate::rtl;
use hyperap_core::field::{Field, Slot};
use hyperap_core::lut::{Lut, LutOutput};
use hyperap_core::machine::HyperPe;
use hyperap_core::microcode::Microcode;
use hyperap_core::program::Program;
use hyperap_model::timing::OpCounts;
use std::collections::HashMap;

/// A compiled kernel: the program for a single data stream, which the
/// runtime applies to every SIMD slot in parallel (Fig 8).
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The reference DFG (for validation).
    pub dfg: Dfg,
    program: Program,
    inputs: Vec<Field>,
    outputs: Vec<Field>,
    /// Flattened scalar input names.
    pub input_names: Vec<String>,
    /// Flattened scalar output names.
    pub output_names: Vec<String>,
    cols: usize,
    opt_report: OptReport,
}

impl CompiledKernel {
    /// The emitted associative-operation program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// What the `opt_level` pipeline did to the stream (all-zero at level 0).
    pub fn opt_report(&self) -> &OptReport {
        &self.opt_report
    }

    /// Input field layouts (one per flattened scalar input).
    pub fn input_fields(&self) -> &[Field] {
        &self.inputs
    }

    /// Output field layouts.
    pub fn output_fields(&self) -> &[Field] {
        &self.outputs
    }

    /// PE columns required.
    pub fn columns(&self) -> usize {
        self.cols
    }

    /// Static operation counts (the paper's analytical performance inputs).
    pub fn op_counts(&self) -> OpCounts {
        self.program.op_counts()
    }

    /// A human-readable compilation report: operation counts, latency on
    /// both technologies, I/O layout, and the multi-pattern utilization
    /// (average original patterns matched per search — the
    /// Single-Search-Multi-Pattern payoff).
    pub fn report(&self) -> String {
        use hyperap_model::TechParams;
        use std::fmt::Write;
        let ops = self.op_counts();
        let rram = TechParams::rram();
        let cmos = TechParams::cmos();
        let mut out = String::new();
        let _ = writeln!(out, "compiled kernel report");
        let _ = writeln!(
            out,
            "  inputs : {}",
            self.input_names
                .iter()
                .zip(&self.inputs)
                .map(|(n, f)| format!("{n}:{}b", f.width()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "  outputs: {}",
            self.output_names
                .iter()
                .zip(&self.outputs)
                .map(|(n, f)| format!("{n}:{}b", f.width()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "  columns: {} of {}",
            self.max_column_used() + 1,
            self.cols
        );
        let _ = writeln!(
            out,
            "  ops    : {} searches, {} writes ({} encoded), {} tag ops",
            ops.searches,
            ops.writes(),
            ops.writes_encoded,
            ops.tag_ops
        );
        let _ = writeln!(
            out,
            "  latency: {} cycles on RRAM, {} on CMOS (per SIMD pass)",
            ops.cycles(&rram),
            ops.cycles(&cmos)
        );
        out
    }

    /// Highest physical column the program touches.
    pub fn max_column_used(&self) -> usize {
        use hyperap_core::program::ApOp;
        let mut max = 0usize;
        for op in self.program.ops() {
            match op {
                ApOp::Write { col, .. } => max = max.max(*col),
                ApOp::WriteEncoded { col } => max = max.max(col + 1),
                ApOp::Search { key, .. } => max = max.max(key.active_columns().max().unwrap_or(0)),
                _ => {}
            }
        }
        max
    }

    /// Execute on a fresh PE with one row per input tuple; returns all
    /// outputs per row.
    ///
    /// # Errors
    ///
    /// Returns an error if a tuple's arity differs from the input count.
    pub fn run_rows_multi(&self, rows: &[&[u64]]) -> Result<Vec<Vec<u64>>, CompileError> {
        let mut pe = HyperPe::new(rows.len().max(1), self.cols);
        for (row, tuple) in rows.iter().enumerate() {
            if tuple.len() != self.inputs.len() {
                return Err(CompileError::Run(format!(
                    "expected {} inputs, got {}",
                    self.inputs.len(),
                    tuple.len()
                )));
            }
            for (field, &value) in self.inputs.iter().zip(tuple.iter()) {
                field.store(&mut pe, row, value);
            }
        }
        self.program.run(&mut pe);
        Ok(rows
            .iter()
            .enumerate()
            .map(|(row, _)| self.outputs.iter().map(|f| f.read(&pe, row)).collect())
            .collect())
    }

    /// Convenience for single-output kernels: one result per row.
    ///
    /// # Errors
    ///
    /// See [`run_rows_multi`](Self::run_rows_multi); also errors if the
    /// kernel has more than one output.
    pub fn run_rows(&self, rows: &[&[u64]]) -> Result<Vec<u64>, CompileError> {
        if self.outputs.len() != 1 {
            return Err(CompileError::Run(format!(
                "kernel has {} outputs; use run_rows_multi",
                self.outputs.len()
            )));
        }
        Ok(self
            .run_rows_multi(rows)?
            .into_iter()
            .map(|mut v| v.pop().expect("one output"))
            .collect())
    }
}

/// Per-DFG-node value during generation.
#[derive(Debug, Clone)]
enum NodeVal {
    /// Live AIG literals (not yet written to storage).
    Bits(Vec<Lit>),
    /// Materialized storage field.
    Field(Field),
}

pub(crate) struct Gen {
    dfg: Dfg,
    opts: CompileOptions,
    mc: Microcode,
    aig: Aig,
    /// Slot backing each AIG primary input.
    input_slots: Vec<Slot>,
    /// AIG literal for a bound slot.
    lit_of_slot: HashMap<Slot, Lit>,
    /// Storage slot of materialized AND nodes.
    materialized: HashMap<u32, Slot>,
    /// Storage slot of AND nodes materialized *complemented* (inverted-
    /// literal absorption, `opt_level ≥ 1`): the column stores ¬node.
    materialized_neg: HashMap<u32, Slot>,
    /// Cached inverters / constants.
    inverter_cache: HashMap<Lit, Slot>,
    one_slot: Option<Slot>,
    vals: Vec<Option<NodeVal>>,
    /// Last consumer per node (usize::MAX for outputs).
    last_use: Vec<usize>,
    /// Nodes whose columns have been recycled.
    freed: Vec<bool>,
    /// Cut costs shared by every LUT-mapping call of this compile.
    pattern_memo: PatternMemo,
}

/// Generate code for a lowered DFG.
pub(crate) fn generate(
    dfg: Dfg,
    input_names: Vec<String>,
    output_names: Vec<String>,
    opts: &CompileOptions,
) -> Result<CompiledKernel, CompileError> {
    let cols = opts.pe_columns;
    let n_nodes = dfg.len();
    let mut g = Gen {
        vals: vec![None; dfg.len()],
        last_use: Vec::new(),
        freed: vec![false; n_nodes],
        dfg,
        opts: opts.clone(),
        mc: Microcode::new(cols),
        aig: Aig::new(),
        input_slots: Vec::new(),
        lit_of_slot: HashMap::new(),
        materialized: HashMap::new(),
        materialized_neg: HashMap::new(),
        inverter_cache: HashMap::new(),
        one_slot: None,
        pattern_memo: PatternMemo::default(),
    };
    let inputs = g.layout_inputs()?;
    // Liveness: last consumer of each node (outputs live forever).
    let mut last_use = vec![0usize; g.dfg.len()];
    for (id, node) in g.dfg.nodes.iter().enumerate() {
        for &p in &node.inputs {
            last_use[p] = last_use[p].max(id);
        }
    }
    for &o in &g.dfg.outputs {
        last_use[o] = usize::MAX;
    }
    g.last_use = last_use;
    for id in 0..g.dfg.len() {
        g.emit_node(id)?;
    }
    let mut outputs = Vec::new();
    for i in 0..g.dfg.outputs.len() {
        let node = g.dfg.outputs[i];
        let f = g.field_of(node, &format!("out{i}"))?;
        outputs.push(f);
    }
    let mut program = g.mc.into_program();
    let opt_report = opt::optimize(&mut program, &inputs, &mut outputs, cols, opts.opt_level);
    Ok(CompiledKernel {
        dfg: g.dfg,
        program,
        inputs,
        outputs,
        input_names,
        output_names,
        cols,
        opt_report,
    })
}

impl Gen {
    /// Choose the input data layout: pair same-width input operands of
    /// binary mappable ops (the §V-B4a pairing, applied at layout time like
    /// the paper's A-with-B and a[i]-with-b[i] examples); everything else
    /// is stored plain.
    fn layout_inputs(&mut self) -> Result<Vec<Field>, CompileError> {
        let n_inputs = self.dfg.input_widths.len();
        // Map DFG node id -> input index for Input nodes.
        let mut input_node: HashMap<usize, usize> = HashMap::new();
        for (id, node) in self.dfg.nodes.iter().enumerate() {
            if let DfgOp::Input { index } = node.op {
                input_node.insert(id, index);
            }
        }
        let mut partner: Vec<Option<usize>> = vec![None; n_inputs];
        if self.opts.pair_inputs {
            for node in &self.dfg.nodes {
                if matches!(
                    node.op,
                    DfgOp::Add
                        | DfgOp::Sub
                        | DfgOp::Eq
                        | DfgOp::Ne
                        | DfgOp::Lt
                        | DfgOp::Le
                        | DfgOp::Gt
                        | DfgOp::Ge
                        | DfgOp::And
                        | DfgOp::Or
                        | DfgOp::Xor
                ) && node.inputs.len() == 2
                {
                    let (a, b) = (node.inputs[0], node.inputs[1]);
                    if let (Some(&ia), Some(&ib)) = (input_node.get(&a), input_node.get(&b)) {
                        if ia != ib
                            && partner[ia].is_none()
                            && partner[ib].is_none()
                            && self.dfg.input_widths[ia] == self.dfg.input_widths[ib]
                        {
                            partner[ia] = Some(ib);
                            partner[ib] = Some(ia);
                        }
                    }
                }
            }
        }
        // opt_level ≥ 2: microcode-aware layout. An input consumed
        // *exclusively* as the multiplier's second operand is stored
        // self-paired, so the radix-4 digit searches get real two-bit keys
        // (a plain multiplicand degrades them to single-pattern keys whose
        // pair-valued terms can never match).
        let mut self_paired = vec![false; n_inputs];
        if self.opts.opt_level >= 2 {
            let mut only_mul_rhs: Vec<Option<bool>> = vec![None; n_inputs];
            for node in &self.dfg.nodes {
                for (pos, src) in node.inputs.iter().enumerate() {
                    if let Some(&idx) = input_node.get(src) {
                        let good = node.op == DfgOp::Mul && pos == 1;
                        only_mul_rhs[idx] = Some(only_mul_rhs[idx].unwrap_or(true) && good);
                    }
                }
            }
            for out in &self.dfg.outputs {
                if let Some(&idx) = input_node.get(out) {
                    only_mul_rhs[idx] = Some(false); // read back as plain bits
                }
            }
            for i in 0..n_inputs {
                self_paired[i] = only_mul_rhs[i] == Some(true) && partner[i].is_none();
            }
        }
        let mut fields: Vec<Option<Field>> = vec![None; n_inputs];
        for i in 0..n_inputs {
            if fields[i].is_some() {
                continue;
            }
            match partner[i] {
                Some(j) if j > i => {
                    let w = self.dfg.input_widths[i];
                    let (hi, lo) =
                        self.mc
                            .alloc_paired_inputs(format!("in{i}"), format!("in{j}"), w);
                    fields[i] = Some(hi);
                    fields[j] = Some(lo);
                }
                _ => {
                    let w = self.dfg.input_widths[i];
                    let f = if self_paired[i] {
                        self.mc.alloc_self_paired_input(format!("in{i}"), w)
                    } else {
                        self.mc.alloc_plain_input(format!("in{i}"), w)
                    };
                    fields[i] = Some(f);
                }
            }
        }
        let fields: Vec<Field> = fields.into_iter().map(|f| f.expect("assigned")).collect();
        // Bind Input DFG nodes to their fields.
        for (id, node) in self.dfg.nodes.clone().iter().enumerate() {
            if let DfgOp::Input { index } = node.op {
                self.vals[id] = Some(NodeVal::Field(fields[index].clone()));
            }
        }
        Ok(fields)
    }

    fn emit_node(&mut self, id: usize) -> Result<(), CompileError> {
        if self.vals[id].is_some() {
            return Ok(()); // inputs already bound
        }
        let node = self.dfg.node(id).clone();
        let val = match node.op {
            DfgOp::Input { .. } => unreachable!("bound in layout_inputs"),
            DfgOp::Const { value } => {
                if self.opts.enable_embedding {
                    NodeVal::Bits(rtl::constant(&self.aig, value, node.width))
                } else {
                    NodeVal::Field(self.mc.const_field(value, node.width))
                }
            }
            op if op.is_microcode() => {
                // Region boundary: materialize all live AIG values and reset
                // the graph, so dead fields can be recycled safely.
                self.flush_region(id)?;
                let v = self.emit_microcode(id, &node)?;
                self.recycle_dead(id);
                v
            }
            _ => {
                let bits = self.emit_mappable(id, &node)?;
                if self.opts.enable_merging {
                    NodeVal::Bits(bits)
                } else {
                    // Merging disabled: materialize after every DFG node.
                    NodeVal::Field(self.materialize_bits(&bits, &format!("n{id}"))?)
                }
            }
        };
        self.vals[id] = Some(val);
        Ok(())
    }

    fn emit_mappable(
        &mut self,
        _id: usize,
        node: &crate::dfg::DfgNode,
    ) -> Result<Vec<Lit>, CompileError> {
        let w = node.width;
        let in_bits: Vec<Vec<Lit>> = node
            .inputs
            .iter()
            .map(|&i| self.bits_of(i))
            .collect::<Result<_, _>>()?;
        let in_signed: Vec<bool> = node
            .inputs
            .iter()
            .map(|&i| self.dfg.node(i).signed)
            .collect();
        let bits = match node.op {
            DfgOp::Add => rtl::add(&mut self.aig, &in_bits[0], &in_bits[1], w),
            DfgOp::Sub => rtl::sub(&mut self.aig, &in_bits[0], &in_bits[1], w, node.signed),
            DfgOp::And | DfgOp::Or | DfgOp::Xor => {
                rtl::bitwise(&mut self.aig, node.op, &in_bits[0], &in_bits[1], w)
            }
            DfgOp::Not => rtl::not(&rtl::zext(&in_bits[0], w)),
            DfgOp::Neg => rtl::neg(&mut self.aig, &in_bits[0], w),
            DfgOp::Shl { amount } => rtl::shl(&in_bits[0], amount, w),
            DfgOp::Shr { amount } => rtl::shr(&in_bits[0], amount, w, in_signed[0]),
            DfgOp::Eq => vec![rtl::eq(&mut self.aig, &in_bits[0], &in_bits[1])],
            DfgOp::Ne => {
                let e = rtl::eq(&mut self.aig, &in_bits[0], &in_bits[1]);
                vec![crate::aig::lit_not(e)]
            }
            DfgOp::Lt | DfgOp::Le | DfgOp::Gt | DfgOp::Ge => {
                let signed = in_signed[0] || in_signed[1];
                let l = match node.op {
                    DfgOp::Lt => rtl::lt(&mut self.aig, &in_bits[0], &in_bits[1], signed),
                    DfgOp::Gt => rtl::lt(&mut self.aig, &in_bits[1], &in_bits[0], signed),
                    DfgOp::Ge => {
                        let x = rtl::lt(&mut self.aig, &in_bits[0], &in_bits[1], signed);
                        crate::aig::lit_not(x)
                    }
                    _ => {
                        let x = rtl::lt(&mut self.aig, &in_bits[1], &in_bits[0], signed);
                        crate::aig::lit_not(x)
                    }
                };
                vec![l]
            }
            DfgOp::Select => {
                let pred = in_bits[0].first().copied().unwrap_or(FALSE);
                rtl::select(&mut self.aig, pred, &in_bits[1], &in_bits[2], w)
            }
            DfgOp::Resize => {
                if in_signed[0] && w > in_bits[0].len() {
                    rtl::sext(&in_bits[0], w)
                } else {
                    rtl::zext(&in_bits[0], w)
                }
            }
            other => unreachable!("non-mappable op {other:?}"),
        };
        Ok(rtl::zext(&bits, w))
    }

    fn emit_microcode(
        &mut self,
        id: usize,
        node: &crate::dfg::DfgNode,
    ) -> Result<NodeVal, CompileError> {
        let fields: Vec<Field> = node
            .inputs
            .iter()
            .enumerate()
            .map(|(k, &i)| self.field_of(i, &format!("mc{id}_{k}")))
            .collect::<Result<_, _>>()?;
        let out = match node.op {
            DfgOp::Mul => {
                // Radix-4 CSA multiplier at the result width (operands
                // zero-extended; upper zero digits cost little after
                // minimization).
                let w = node.width.max(fields[0].width()).max(fields[1].width());
                let a = self.fit_field(&fields[0], w);
                let b = self.fit_field(&fields[1], w);
                let prod = self.mc.mul_radix4_wrapping(&a, &b);
                self.fit_field(&prod, node.width)
            }
            DfgOp::Div | DfgOp::Rem => {
                if node.signed || self.dfg.node(node.inputs[0]).signed {
                    return Err(CompileError::Unsupported(
                        "signed division is not supported; cast to unsigned".into(),
                    ));
                }
                let (q, r) = self.mc.div_rem_fused(&fields[0], &fields[1]);
                let chosen = if node.op == DfgOp::Div { q } else { r };
                self.fit_field(&chosen, node.width)
            }
            DfgOp::Sqrt => {
                let s = self.mc.isqrt(&fields[0]);
                self.fit_field(&s, node.width)
            }
            DfgOp::Exp { frac_bits } => {
                let e = self.mc.exp_fixed(&fields[0], frac_bits);
                self.fit_field(&e, node.width)
            }
            other => unreachable!("non-microcode op {other:?}"),
        };
        Ok(NodeVal::Field(out))
    }

    /// Zero-extend or truncate a field by layout manipulation.
    fn fit_field(&mut self, f: &Field, w: usize) -> Field {
        if f.width() == w {
            return f.clone();
        }
        if f.width() > w {
            return f.bits(0..w);
        }
        let mut slots = f.slots.clone();
        let pad = self.mc.zero_field(w - slots.len());
        slots.extend(pad.slots);
        Field::new(f.name.clone(), slots)
    }

    /// Literals of a node (binding field slots to AIG inputs as needed).
    fn bits_of(&mut self, id: usize) -> Result<Vec<Lit>, CompileError> {
        match self.vals[id].clone() {
            Some(NodeVal::Bits(b)) => Ok(b),
            Some(NodeVal::Field(f)) => Ok(f.slots.iter().map(|&s| self.lit_for_slot(s)).collect()),
            None => Err(CompileError::Internal(format!("node {id} not yet emitted"))),
        }
    }

    fn lit_for_slot(&mut self, slot: Slot) -> Lit {
        if let Some(&l) = self.lit_of_slot.get(&slot) {
            return l;
        }
        let l = self.aig.input();
        self.input_slots.push(slot);
        self.lit_of_slot.insert(slot, l);
        l
    }

    /// The storage field of a node (materializing live literals if needed).
    fn field_of(&mut self, id: usize, name: &str) -> Result<Field, CompileError> {
        match self.vals[id].clone() {
            Some(NodeVal::Field(f)) => Ok(f),
            Some(NodeVal::Bits(bits)) => {
                let f = self.materialize_bits(&bits, name)?;
                self.vals[id] = Some(NodeVal::Field(f.clone()));
                Ok(f)
            }
            None => Err(CompileError::Internal(format!("node {id} not yet emitted"))),
        }
    }

    /// Map and emit the cones of `bits`, returning the backing field.
    ///
    /// At `opt_level ≥ 1`, output bits needed *only inverted* absorb the
    /// inversion into their root LUT's truth table (the on-set is
    /// complemented) instead of paying a one-search-one-write inverter LUT
    /// per bit; the complemented column is tracked in `materialized_neg`
    /// so later inverted uses bind to it directly.
    fn materialize_bits(&mut self, bits: &[Lit], name: &str) -> Result<Field, CompileError> {
        use std::collections::HashSet;
        let absorb = self.opts.opt_level >= 1;
        let (pos_needed, neg_needed) = self.aig.polarity_uses(bits);
        // Which AND roots still need columns?
        let mut roots: Vec<Lit> = Vec::new();
        let mut want_neg: HashSet<u32> = HashSet::new();
        for &l in bits {
            let n = lit_node(l);
            if !matches!(self.aig.node(n), AigNode::And(..)) {
                continue;
            }
            let neg_only = absorb && neg_needed.contains(&n) && !pos_needed.contains(&n);
            let covered = if neg_only {
                self.materialized_neg.contains_key(&n) || self.materialized.contains_key(&n)
            } else {
                self.materialized.contains_key(&n)
            };
            if covered {
                continue;
            }
            if neg_only {
                want_neg.insert(n);
            }
            let pos = crate::aig::lit(n, false);
            if !roots.contains(&pos) {
                roots.push(pos);
            }
        }
        if !roots.is_empty() {
            let map_opts = MapOptions {
                max_inputs: self.opts.max_lut_inputs,
                alpha: self.opts.alpha,
                cuts_per_node: 8,
            };
            let mut leaf_set: HashSet<u32> = self.materialized.keys().copied().collect();
            if absorb {
                // A node being (re-)mapped as a root must not double as a
                // cut boundary for itself.
                let root_nodes: HashSet<u32> = roots.iter().map(|&l| lit_node(l)).collect();
                leaf_set.extend(
                    self.materialized_neg
                        .keys()
                        .copied()
                        .filter(|n| !root_nodes.contains(n)),
                );
            }
            let mapping = lutmap::map(
                &self.aig,
                &roots,
                &leaf_set,
                &map_opts,
                &mut self.pattern_memo,
            );
            // A root another LUT consumes as a leaf must stay positive.
            let leaves_in_use: HashSet<u32> = mapping
                .luts
                .iter()
                .flat_map(|l| l.leaves.iter().copied())
                .collect();
            for lut in &mapping.luts {
                let mut on_set = lut.on_set.clone();
                let in_slots: Vec<Slot> = lut
                    .leaves
                    .iter()
                    .enumerate()
                    .map(|(idx, &leaf)| {
                        if let Some(&s) = self.materialized.get(&leaf) {
                            return Ok(s);
                        }
                        // A complemented column stores ¬leaf: bind it and
                        // flip that input's polarity in the truth table.
                        if let Some(&s) = self.materialized_neg.get(&leaf) {
                            on_set = flip_on_set_input(&on_set, idx);
                            return Ok(s);
                        }
                        self.slot_for_leaf(leaf)
                    })
                    .collect::<Result<_, _>>()?;
                let negate = want_neg.contains(&lut.root) && !leaves_in_use.contains(&lut.root);
                if negate {
                    on_set = complement_on_set(&on_set, lut.leaves.len());
                }
                let out = self.mc.alloc_plain(format!("{name}.lut"), 1);
                let core_lut = Lut {
                    inputs: in_slots,
                    outputs: vec![LutOutput::Plain {
                        col: out.slot(0).base_col(),
                        on_set,
                    }],
                };
                self.mc.apply_lut(&core_lut);
                if negate {
                    self.materialized_neg.insert(lut.root, out.slot(0));
                } else {
                    self.materialized.insert(lut.root, out.slot(0));
                }
            }
        }
        // Resolve each output bit literal to a slot.
        let slots: Vec<Slot> = bits
            .iter()
            .map(|&l| self.slot_for_lit(l))
            .collect::<Result<_, _>>()?;
        Ok(Field::new(name, slots))
    }

    fn slot_for_leaf(&mut self, leaf: u32) -> Result<Slot, CompileError> {
        if let Some(&s) = self.materialized.get(&leaf) {
            return Ok(s);
        }
        match self.aig.node(leaf) {
            AigNode::Input { index } => Ok(self.input_slots[index as usize]),
            other => Err(CompileError::Internal(format!(
                "unmaterialized LUT leaf {leaf}: {other:?}"
            ))),
        }
    }

    /// Materialize every live literal value and reset the AIG — a region
    /// boundary. Afterwards no state references storage except through
    /// [`NodeVal::Field`]s, so dead columns can be recycled.
    fn flush_region(&mut self, current: usize) -> Result<(), CompileError> {
        for id in 0..self.vals.len().min(self.dfg.len()) {
            if matches!(self.vals[id], Some(NodeVal::Bits(_)))
                && (self.last_use[id] >= current || id >= current)
            {
                self.field_of(id, &format!("r{id}"))?;
            }
        }
        self.aig = Aig::new();
        self.input_slots.clear();
        self.lit_of_slot.clear();
        self.materialized.clear();
        self.materialized_neg.clear();
        self.inverter_cache.clear();
        self.recycle_dead(current);
        Ok(())
    }

    /// Recycle columns of dead, non-aliased fields. Only safe right after a
    /// flush (no AIG state references storage).
    fn recycle_dead(&mut self, current: usize) {
        if !self.lit_of_slot.is_empty()
            || !self.materialized.is_empty()
            || !self.materialized_neg.is_empty()
        {
            return; // AIG state alive: unsafe to recycle
        }
        // Columns of live fields (and pinned constants) must be preserved.
        let mut live_cols: std::collections::HashSet<usize> = std::collections::HashSet::new();
        if let Some(s) = self.one_slot {
            live_cols.insert(s.base_col());
        }
        for id in 0..self.vals.len() {
            let live = self.last_use.get(id).copied().unwrap_or(usize::MAX) >= current;
            if live && !self.freed[id] {
                if let Some(NodeVal::Field(f)) = &self.vals[id] {
                    for slot in &f.slots {
                        for c in slot.columns() {
                            live_cols.insert(c);
                        }
                    }
                }
            }
        }
        for id in 0..self.vals.len() {
            let dead = self.last_use.get(id).copied().unwrap_or(usize::MAX) < current;
            if !dead || self.freed[id] {
                continue;
            }
            if let Some(NodeVal::Field(f)) = self.vals[id].clone() {
                let cols: Vec<usize> = f.slots.iter().flat_map(|s| s.columns()).collect();
                if cols.iter().any(|c| live_cols.contains(c)) {
                    continue; // aliases a live field (e.g. shift views)
                }
                self.mc.free(&f);
                self.freed[id] = true;
            }
        }
    }

    fn slot_for_lit(&mut self, l: Lit) -> Result<Slot, CompileError> {
        if l == FALSE {
            return Ok(self.mc.zero_field(1).slot(0));
        }
        if l == TRUE {
            if let Some(s) = self.one_slot {
                return Ok(s);
            }
            let one = self.mc.const_field(1, 1).slot(0);
            self.one_slot = Some(one);
            return Ok(one);
        }
        let node = lit_node(l);
        if lit_inverted(l) {
            // An absorbed (complemented) column *is* the inverted literal.
            if let Some(&s) = self.materialized_neg.get(&node) {
                return Ok(s);
            }
        }
        let base = self.slot_for_leaf(node)?;
        if !lit_inverted(l) {
            return Ok(base);
        }
        if let Some(&s) = self.inverter_cache.get(&l) {
            return Ok(s);
        }
        // Materialize an inverter LUT (1 search + 1 write).
        let out = self.mc.alloc_plain("inv", 1);
        let core_lut = Lut {
            inputs: vec![base],
            outputs: vec![LutOutput::Plain {
                col: out.slot(0).base_col(),
                on_set: vec![0],
            }],
        };
        self.mc.apply_lut(&core_lut);
        self.inverter_cache.insert(l, out.slot(0));
        Ok(out.slot(0))
    }
}

//! Synthetic arithmetic benchmarks (Figs 15-17).
//!
//! Each operation is built by the expert microcode on a single PE and
//! measured as the per-slot operation stream; the chip-level metrics come
//! from [`crate::perf`]. `validate` executes the stream on the functional
//! machine and checks every row against host arithmetic.

use hyperap_baselines::reference::OpKind;
use hyperap_core::field::Field;
use hyperap_core::machine::HyperPe;
use hyperap_core::microcode::Microcode;
use hyperap_model::timing::OpCounts;

/// The synthetic operations, mirroring [`OpKind`].
pub type SyntheticOp = OpKind;

/// A built synthetic benchmark: the program plus its I/O layout.
pub struct SyntheticBench {
    /// Operation.
    pub op: SyntheticOp,
    /// Operand width in bits.
    pub width: usize,
    mc: Microcode,
    inputs: Vec<Field>,
    output: Field,
    /// Host-side reference semantics.
    reference: fn(&[u64], usize) -> u64,
    /// Number of elementary operations one pass performs (3 for
    /// `Multi_Add`, 1 otherwise) — the Fig 17 throughput convention.
    pub ops_per_pass: u64,
}

/// The immediate operand used by the `*_i` variants (an arbitrary
/// mixed-bit constant).
pub const IMMEDIATE: u64 = 0x5A5A_5A5A_5A5A_5A5A;

fn imm(width: usize) -> u64 {
    IMMEDIATE & ((1u128 << width) - 1) as u64
}

/// Build a synthetic benchmark at the given operand width.
///
/// # Panics
///
/// Panics if the operation does not fit the PE's 256 columns at this width
/// (all Fig 15-17 configurations fit).
pub fn build(op: SyntheticOp, width: usize) -> SyntheticBench {
    let mut mc = Microcode::new(256);
    let w = width;
    type RefFn = fn(&[u64], usize) -> u64;
    let (inputs, output, reference, ops_per_pass): (Vec<Field>, Field, RefFn, u64) = match op {
        OpKind::Add => {
            let (a, b) = mc.alloc_paired_inputs("a", "b", w);
            let out = mc.add(&a, &b);
            fn r(x: &[u64], _w: usize) -> u64 {
                x[0] + x[1]
            }
            (vec![a, b], out, r, 1)
        }
        OpKind::Mul => {
            let a = mc.alloc_plain_input("a", w);
            let b = mc.alloc_self_paired_input("b", w);
            let out = mc.mul_radix4_wrapping(&a, &b);
            fn r(x: &[u64], w: usize) -> u64 {
                ((x[0] as u128 * x[1] as u128) & ((1u128 << w) - 1)) as u64
            }
            (vec![a, b], out, r, 1)
        }
        OpKind::Div => {
            let a = mc.alloc_plain_input("a", w);
            let b = mc.alloc_plain_input("b", w);
            let (out, _rem) = mc.div_rem_fused(&a, &b);
            fn r(x: &[u64], w: usize) -> u64 {
                x[0].checked_div(x[1]).unwrap_or(((1u128 << w) - 1) as u64)
            }
            (vec![a, b], out, r, 1)
        }
        OpKind::Sqrt => {
            let a = mc.alloc_plain_input("a", w);
            let out = mc.isqrt(&a);
            fn r(x: &[u64], _w: usize) -> u64 {
                (x[0] as f64).sqrt().floor() as u64
            }
            (vec![a], out, r, 1)
        }
        OpKind::Exp => {
            // Qw/2 fixed point, like the paper's fixed-point conversion.
            let a = mc.alloc_plain_input("a", w);
            let out = mc.exp_fixed(&a, (w / 2) as u32);
            fn r(x: &[u64], w: usize) -> u64 {
                let f = (w / 2) as u32;
                let xv = x[0] as f64 / (1u64 << f) as f64;
                let y = (xv.exp() * (1u64 << f) as f64) as u128;
                (y & ((1u128 << w) - 1)) as u64
            }
            (vec![a], out, r, 1)
        }
        OpKind::MultiAdd => {
            // Three consecutive additions (Fig 17): s = a + b + c + d,
            // wrapping at width.
            let (a, b) = mc.alloc_paired_inputs("a", "b", w);
            let (c, d) = mc.alloc_paired_inputs("c", "d", w);
            let s1 = mc.add(&a, &b);
            let s2 = mc.add(&c, &d);
            let s3 = mc.add(&s1, &s2);
            let out = s3.bits(0..w);
            mc.free(&s1);
            mc.free(&s2);
            fn r(x: &[u64], w: usize) -> u64 {
                (x[0] + x[1] + x[2] + x[3]) & (((1u128 << w) - 1) as u64)
            }
            (vec![a, b, c, d], out, r, 3)
        }
        OpKind::AddImm => {
            let a = mc.alloc_plain_input("a", w);
            let out = mc.add_imm(&a, imm(w));
            fn r(x: &[u64], w: usize) -> u64 {
                x[0] + (IMMEDIATE & ((1u128 << w) - 1) as u64)
            }
            (vec![a], out, r, 1)
        }
        OpKind::MulImm => {
            // Immediate multiplication: the CSA multiplier with the
            // constant embedded — only popcount(imm) partial-product
            // rows survive (operand embedding, §V-B4c).
            let a = mc.alloc_plain_input("a", w);
            let out = mc.mul_imm_wrapping(&a, imm(w));
            fn r(x: &[u64], w: usize) -> u64 {
                let k = IMMEDIATE & ((1u128 << w) - 1) as u64;
                ((x[0] as u128 * k as u128) & ((1u128 << w) - 1)) as u64
            }
            (vec![a], out, r, 1)
        }
        OpKind::DivImm => {
            let a = mc.alloc_plain_input("a", w);
            let (out, _rem) = mc.div_rem_imm(&a, imm(w) >> (w / 2));
            fn r(x: &[u64], w: usize) -> u64 {
                let k = (IMMEDIATE & ((1u128 << w) - 1) as u64) >> (w / 2);
                x[0].checked_div(k).unwrap_or(((1u128 << w) - 1) as u64)
            }
            (vec![a], out, r, 1)
        }
    };
    SyntheticBench {
        op,
        width,
        mc,
        inputs,
        output,
        reference,
        ops_per_pass,
    }
}

impl SyntheticBench {
    /// Per-pass operation counts.
    pub fn op_counts(&self) -> OpCounts {
        self.mc.program().op_counts()
    }

    /// The associative-operation program one pass executes.
    pub fn program(&self) -> &hyperap_core::program::Program {
        self.mc.program()
    }

    /// Execute on the functional machine and compare every row against the
    /// host reference.
    ///
    /// # Panics
    ///
    /// Panics on any mismatch (with the offending inputs).
    pub fn validate(&self, rows: &[Vec<u64>]) {
        let mut pe = HyperPe::new(rows.len().max(1), 256);
        for (row, tuple) in rows.iter().enumerate() {
            for (f, &v) in self.inputs.iter().zip(tuple) {
                f.store(&mut pe, row, v);
            }
        }
        self.mc.program().run(&mut pe);
        let out_mask = ((1u128 << self.output.width().min(64)) - 1) as u64;
        for (row, tuple) in rows.iter().enumerate() {
            let got = self.output.read(&pe, row);
            let expect = (self.reference)(tuple, self.width) & out_mask;
            assert_eq!(got, expect, "{} w={} inputs {tuple:?}", self.op, self.width);
        }
    }

    /// Number of scalar inputs.
    pub fn arity(&self) -> usize {
        self.inputs.len()
    }

    /// The benchmark lowered to its Table-I instruction stream (the form
    /// the architectural engines execute) — one pass over all rows.
    pub fn stream(&self) -> Vec<hyperap_isa::Instruction> {
        hyperap_isa::lower(self.mc.program())
    }
}

/// Measure per-pass operation counts for an op at a width (the harness
/// entry point).
pub fn measure_op(op: SyntheticOp, width: usize) -> OpCounts {
    build(op, width).op_counts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_rows(arity: usize, width: usize, n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = ((1u128 << width) - 1) as u64;
        (0..n)
            .map(|_| (0..arity).map(|_| rng.random::<u64>() & mask).collect())
            .collect()
    }

    fn check(op: SyntheticOp, width: usize) {
        let b = build(op, width);
        let mut rows = random_rows(b.arity(), width, 6, 42 + width as u64);
        // Avoid div-by-zero rows for Div.
        if matches!(op, OpKind::Div) {
            for r in &mut rows {
                if r[1] == 0 {
                    r[1] = 1;
                }
            }
        }
        // Exp domain: keep x small enough that e^x fits.
        if matches!(op, OpKind::Exp) {
            let limit =
                ((width / 2) as f64 * std::f64::consts::LN_2 * 0.9 * (1u64 << (width / 2)) as f64)
                    as u64;
            for r in &mut rows {
                r[0] = r[0].min(limit);
            }
        }
        b.validate(&rows);
    }

    #[test]
    fn add_16_and_32_validate() {
        check(OpKind::Add, 16);
        check(OpKind::Add, 32);
    }

    #[test]
    fn mul_validates() {
        check(OpKind::Mul, 16);
    }

    #[test]
    fn div_validates() {
        check(OpKind::Div, 16);
    }

    #[test]
    fn sqrt_validates() {
        check(OpKind::Sqrt, 16);
        check(OpKind::Sqrt, 32);
    }

    #[test]
    fn exp_validates_approximately() {
        // exp is fixed point: compare with 2% relative tolerance instead of
        // exact equality.
        let b = build(OpKind::Exp, 16);
        let mut pe = HyperPe::new(3, 256);
        let xs = [0u64, 128, 512]; // Q8: 0, 0.5, 2.0
        for (row, &x) in xs.iter().enumerate() {
            b.inputs[0].store(&mut pe, row, x);
        }
        b.mc.program().run(&mut pe);
        for (row, &x) in xs.iter().enumerate() {
            let got = b.output.read(&pe, row) as f64 / 256.0;
            let expect = (x as f64 / 256.0).exp();
            assert!(
                (got - expect).abs() / expect < 0.02,
                "exp({x}) = {got} vs {expect}"
            );
        }
    }

    #[test]
    fn multi_add_and_imm_variants_validate() {
        check(OpKind::MultiAdd, 16);
        check(OpKind::AddImm, 16);
        check(OpKind::MulImm, 8);
        check(OpKind::DivImm, 8);
    }

    #[test]
    fn narrower_precision_is_cheaper() {
        // §VI-C: add scales linearly, complex ops quadratically.
        let rram = hyperap_model::TechParams::rram();
        let add32 = measure_op(OpKind::Add, 32).cycles(&rram) as f64;
        let add16 = measure_op(OpKind::Add, 16).cycles(&rram) as f64;
        assert!(
            add32 / add16 > 1.7 && add32 / add16 < 2.3,
            "{}",
            add32 / add16
        );
        let mul32 = measure_op(OpKind::Mul, 32).cycles(&rram) as f64;
        let mul16 = measure_op(OpKind::Mul, 16).cycles(&rram) as f64;
        assert!(mul32 / mul16 > 3.0, "{}", mul32 / mul16);
    }

    #[test]
    fn immediate_variants_are_cheaper_than_general() {
        let rram = hyperap_model::TechParams::rram();
        assert!(
            measure_op(OpKind::AddImm, 32).cycles(&rram)
                < measure_op(OpKind::Add, 32).cycles(&rram)
        );
        assert!(
            measure_op(OpKind::MulImm, 32).cycles(&rram)
                < measure_op(OpKind::Mul, 32).cycles(&rram)
        );
        assert!(
            measure_op(OpKind::DivImm, 16).cycles(&rram)
                < measure_op(OpKind::Div, 16).cycles(&rram)
        );
    }
}

//! End-to-end compilation pipeline (Fig 9) and its options.

use crate::codegen::{self, CompiledKernel};
use crate::parse;
use crate::sema;

/// Compiler options, including the ablation switches used by the Fig 12/19
/// studies.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Eq. 2's α = Twrite/Tsearch (10 for RRAM, 1 for CMOS).
    pub alpha: f64,
    /// Maximum LUT inputs (§V-B4 limits this to 12; smaller values map
    /// faster and are plenty for the bundled workloads). Must lie in
    /// [`LUT_INPUTS_RANGE`].
    pub max_lut_inputs: usize,
    /// Operation merging (§V-B4b): map LUTs across DFG node boundaries.
    pub enable_merging: bool,
    /// Operand embedding (§V-B4c): fold constants into lookup tables.
    pub enable_embedding: bool,
    /// Pair operand inputs for two-bit encoding (§V-B4a).
    pub pair_inputs: bool,
    /// Columns per PE (256 in the paper's geometry).
    pub pe_columns: usize,
    /// Optimization level.
    ///
    /// * `0` — the seed compiler's byte-identical output (the oracle the
    ///   equivalence suites compare against).
    /// * `1` — DFG constant folding/pruning ([`crate::opt::sccp::fold_dfg`]),
    ///   inverted-literal absorption into LUT truth tables, and the
    ///   post-codegen stream passes ([`crate::opt`]): stream SCCP, dead-write
    ///   elimination, loop summarization.
    /// * `2` (max, see [`OPT_LEVEL_MAX`]) — level 1 plus microcode-aware
    ///   input layout: operands consumed exclusively as the multiplier's
    ///   second argument are stored self-paired so the radix-4 digit
    ///   searches use real two-bit keys instead of degenerate plain-column
    ///   patterns.
    pub opt_level: u8,
}

/// Highest meaningful [`CompileOptions::opt_level`].
pub const OPT_LEVEL_MAX: u8 = 2;

/// Valid [`CompileOptions::max_lut_inputs`]: every AIG AND node needs its
/// two-input cut, and truth tables and the MV-SOP minimizer hold at most
/// 16 positions.
pub const LUT_INPUTS_RANGE: std::ops::RangeInclusive<usize> = 2..=16;

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            alpha: 10.0,
            max_lut_inputs: 6,
            enable_merging: true,
            enable_embedding: true,
            pair_inputs: true,
            pe_columns: 256,
            opt_level: 0,
        }
    }
}

impl CompileOptions {
    /// Options tuned for a CMOS target (α = 1).
    pub fn cmos() -> Self {
        CompileOptions {
            alpha: 1.0,
            ..Self::default()
        }
    }

    /// Default options at the maximum optimization level.
    pub fn optimized() -> Self {
        CompileOptions {
            opt_level: OPT_LEVEL_MAX,
            ..Self::default()
        }
    }
}

/// Any error in the compilation pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Lexical/syntactic error.
    Parse(String),
    /// Semantic error.
    Sema(String),
    /// A construct the AP target cannot express.
    Unsupported(String),
    /// Kernel execution error.
    Run(String),
    /// A [`CompileOptions`] field outside its valid range.
    InvalidOptions(String),
    /// Internal invariant violation (a compiler bug).
    Internal(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(m) => write!(f, "parse error: {m}"),
            CompileError::Sema(m) => write!(f, "semantic error: {m}"),
            CompileError::Unsupported(m) => write!(f, "unsupported: {m}"),
            CompileError::Run(m) => write!(f, "run error: {m}"),
            CompileError::InvalidOptions(m) => write!(f, "invalid options: {m}"),
            CompileError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile C-like source to a Hyper-AP kernel.
///
/// # Errors
///
/// Returns [`CompileError`] for options outside their valid range, for
/// syntax/semantic errors and for constructs the target cannot express
/// (data-dependent shifts, signed division, column overflow).
///
/// # Example
/// ```
/// use hyperap_compiler::{compile, CompileOptions};
/// let k = compile(
///     "unsigned int (9) main(unsigned int (8) a, unsigned int (8) b) { return a + b; }",
///     &CompileOptions::default(),
/// ).unwrap();
/// assert_eq!(k.run_rows(&[&[200, 100]]).unwrap(), vec![300]);
/// ```
pub fn compile(src: &str, opts: &CompileOptions) -> Result<CompiledKernel, CompileError> {
    if !LUT_INPUTS_RANGE.contains(&opts.max_lut_inputs) {
        return Err(CompileError::InvalidOptions(format!(
            "max_lut_inputs is {}, must be in {}..={}",
            opts.max_lut_inputs,
            LUT_INPUTS_RANGE.start(),
            LUT_INPUTS_RANGE.end()
        )));
    }
    let ast = parse::parse(src).map_err(|e| CompileError::Parse(e.to_string()))?;
    let lowered = sema::lower(&ast).map_err(|e| CompileError::Sema(e.to_string()))?;
    let dfg = if opts.opt_level >= 1 {
        crate::opt::sccp::fold_dfg(&lowered.dfg).0
    } else {
        lowered.dfg
    };
    // Resource exhaustion (e.g. a program that does not fit one PE's
    // columns) surfaces as a panic deep in the allocator; report it as a
    // compile error rather than unwinding through the public API.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        codegen::generate(dfg, lowered.input_names, lowered.output_names, opts)
    }));
    match result {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "code generation failed".to_string());
            Err(CompileError::Unsupported(format!(
                "program does not fit the target PE: {msg}"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run1(src: &str, rows: &[&[u64]]) -> Vec<u64> {
        compile(src, &CompileOptions::default())
            .unwrap()
            .run_rows(rows)
            .unwrap()
    }

    #[test]
    fn fig8_five_bit_addition() {
        let src = "unsigned int (6) main(unsigned int (5) a, unsigned int (5) b) {
            unsigned int (6) c;
            c = a + b;
            return c;
        }";
        assert_eq!(run1(src, &[&[7, 21], &[31, 31], &[0, 0]]), vec![28, 62, 0]);
    }

    #[test]
    fn kernel_validates_against_dfg_reference() {
        let src = "unsigned int (8) main(unsigned int (8) a, unsigned int (8) b) {
            unsigned int (8) t;
            t = (a ^ b) + (a & b);
            if (t > 100) { t = t - 100; } else { t = t + 3; }
            return t;
        }";
        let k = compile(src, &CompileOptions::default()).unwrap();
        for (a, b) in [(0u64, 0u64), (255, 1), (77, 200), (100, 50)] {
            let got = k.run_rows(&[&[a, b]]).unwrap()[0];
            let expect = k.dfg.eval(&[a, b])[0];
            assert_eq!(got, expect, "a={a} b={b}");
        }
    }

    #[test]
    fn opt_levels_match_level_zero_and_never_emit_more_ops() {
        // Mixed arithmetic with a constant subexpression so every pass has
        // something to chew on: DFG folding, absorption, stream SCCP,
        // liveness, summarization.
        let src = "unsigned int (8) main(unsigned int (8) a, unsigned int (8) b) {
            unsigned int (8) t;
            t = (a + b) ^ (a & 15);
            t = t + (b * 0);
            return t - b;
        }";
        let reference = compile(src, &CompileOptions::default()).unwrap();
        let base = crate::opt::counted_ops(reference.program());
        let rows: Vec<[u64; 2]> = (0..32).map(|i| [i * 37 % 256, i * 101 % 256]).collect();
        let row_refs: Vec<&[u64]> = rows.iter().map(|r| r.as_slice()).collect();
        let want = reference.run_rows(&row_refs).unwrap();
        for level in 1..=OPT_LEVEL_MAX {
            let opts = CompileOptions {
                opt_level: level,
                ..CompileOptions::default()
            };
            let k = compile(src, &opts).unwrap();
            let ops = crate::opt::counted_ops(k.program());
            assert!(
                ops <= base,
                "level {level} emitted {ops} > level 0's {base}"
            );
            assert_eq!(k.run_rows(&row_refs).unwrap(), want, "level {level}");
        }
    }

    #[test]
    fn optimized_multiplication_validates_against_dfg() {
        // Exercises the level-2 self-paired multiplier operand layout.
        let src = "unsigned int (8) main(unsigned int (8) a, unsigned int (8) b) {
            return a * b;
        }";
        let k = compile(src, &CompileOptions::optimized()).unwrap();
        assert!(k.opt_report().deleted() > 0, "optimizer found nothing");
        for (a, b) in [(0u64, 0u64), (255, 255), (13, 21), (200, 3), (1, 254)] {
            let got = k.run_rows(&[&[a, b]]).unwrap()[0];
            assert_eq!(got, k.dfg.eval(&[a, b])[0], "a={a} b={b}");
        }
    }

    #[test]
    fn level_zero_output_is_untouched_by_the_optimizer() {
        let src = "unsigned int (9) main(unsigned int (8) a, unsigned int (8) b) {
            return a + b;
        }";
        let k = compile(src, &CompileOptions::default()).unwrap();
        assert_eq!(*k.opt_report(), crate::opt::OptReport::default());
    }

    #[test]
    fn merging_reduces_writes() {
        // Fig 12a: chained additions with and without operation merging.
        let src = "unsigned int (3) main(
            unsigned int (1) a, unsigned int (1) b,
            unsigned int (1) c, unsigned int (1) d
        ) {
            unsigned int (2) e;
            unsigned int (2) f;
            unsigned int (3) g;
            e = a + b;
            f = c + d;
            g = e + f;
            return g;
        }";
        let merged = compile(src, &CompileOptions::default()).unwrap();
        let unmerged = compile(
            src,
            &CompileOptions {
                enable_merging: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let (mc, uc) = (merged.op_counts(), unmerged.op_counts());
        assert!(
            mc.writes() < uc.writes(),
            "merged {mc:?} vs unmerged {uc:?}"
        );
        // Both still correct.
        for (inputs, want) in [
            ([1u64, 1, 1, 1], 4u64),
            ([1, 0, 0, 1], 2),
            ([0, 0, 0, 0], 0),
        ] {
            assert_eq!(merged.run_rows(&[&inputs]).unwrap(), vec![want]);
            assert_eq!(unmerged.run_rows(&[&inputs]).unwrap(), vec![want]);
        }
    }

    #[test]
    fn embedding_reduces_searches() {
        // Fig 12b: immediate operand embedded vs materialized.
        let src = "unsigned int (3) main(unsigned int (2) a) {
            unsigned int (2) b;
            unsigned int (3) c;
            b = 2;
            c = a + b;
            return c;
        }";
        let embedded = compile(src, &CompileOptions::default()).unwrap();
        let materialized = compile(
            src,
            &CompileOptions {
                enable_embedding: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let (e, m) = (embedded.op_counts(), materialized.op_counts());
        assert!(e.searches < m.searches, "embedded {e:?} vs {m:?}");
        for a in 0..4u64 {
            assert_eq!(embedded.run_rows(&[&[a]]).unwrap(), vec![a + 2]);
            assert_eq!(materialized.run_rows(&[&[a]]).unwrap(), vec![a + 2]);
        }
    }

    #[test]
    fn multiplication_dispatches_to_microcode() {
        let src = "unsigned int (8) main(unsigned int (4) a, unsigned int (4) b) {
            return a * b;
        }";
        let rows: Vec<Vec<u64>> = (0..16).map(|a| vec![a, (a * 3 + 1) % 16]).collect();
        let refs: Vec<&[u64]> = rows.iter().map(|v| v.as_slice()).collect();
        let k = compile(src, &CompileOptions::default()).unwrap();
        let out = k.run_rows(&refs).unwrap();
        for (row, o) in rows.iter().zip(&out) {
            assert_eq!(*o, row[0] * row[1]);
        }
        assert!(k.op_counts().writes_encoded > 0, "CSA multiplier used");
    }

    #[test]
    fn division_and_sqrt() {
        let src = "unsigned int (8) main(unsigned int (8) a, unsigned int (8) b) {
            return a / b + sqrt(a);
        }";
        let k = compile(src, &CompileOptions::default()).unwrap();
        for (a, b) in [(100u64, 7u64), (255, 16), (9, 3)] {
            let got = k.run_rows(&[&[a, b]]).unwrap()[0];
            let expect = (a / b + (a as f64).sqrt().floor() as u64) & 0xFF;
            assert_eq!(got, expect, "a={a} b={b}");
        }
    }

    #[test]
    fn conditional_statement_fig13b() {
        let src =
            "unsigned int (1) main(unsigned int (1) a, unsigned int (4) x, unsigned int (4) y) {
            unsigned int (1) b;
            if (a == 1) { b = x > y; } else { b = x < y; }
            return b;
        }";
        let k = compile(src, &CompileOptions::default()).unwrap();
        assert_eq!(k.run_rows(&[&[1, 9, 3]]).unwrap(), vec![1]);
        assert_eq!(k.run_rows(&[&[0, 9, 3]]).unwrap(), vec![0]);
        assert_eq!(k.run_rows(&[&[0, 2, 3]]).unwrap(), vec![1]);
    }

    #[test]
    fn struct_kernel_round_trips() {
        let src = "
            struct acc { unsigned int (8) sum; unsigned int (8) cnt; };
            struct acc main(struct acc s, unsigned int (8) v) {
                struct acc r;
                r.sum = s.sum + v;
                r.cnt = s.cnt + 1;
                return r;
            }";
        let k = compile(src, &CompileOptions::default()).unwrap();
        let out = k.run_rows_multi(&[&[10, 2, 5]]).unwrap();
        assert_eq!(out, vec![vec![15, 3]]);
    }

    #[test]
    fn loops_unroll_into_straightline_code() {
        let src = "unsigned int (8) main(unsigned int (4) a) {
            unsigned int (8) s;
            s = 0;
            for (i = 0; i < 4; i += 1) { s = s + (a << i); }
            return s;
        }";
        let k = compile(src, &CompileOptions::default()).unwrap();
        assert_eq!(k.run_rows(&[&[5]]).unwrap(), vec![75]); // 5 * 15
    }

    #[test]
    fn word_parallel_execution_across_rows() {
        let src = "unsigned int (9) main(unsigned int (8) a, unsigned int (8) b) { return a + b; }";
        let k = compile(src, &CompileOptions::default()).unwrap();
        let rows: Vec<Vec<u64>> = (0..32).map(|i| vec![i * 7 % 256, i * 13 % 256]).collect();
        let refs: Vec<&[u64]> = rows.iter().map(|v| v.as_slice()).collect();
        let out = k.run_rows(&refs).unwrap();
        for (row, o) in rows.iter().zip(&out) {
            assert_eq!(*o, row[0] + row[1]);
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            compile("int main() { return 0; }", &CompileOptions::default()),
            Err(CompileError::Parse(_))
        ));
        assert!(matches!(
            compile(
                "unsigned int (4) main(unsigned int (4) a) { return b; }",
                &CompileOptions::default()
            ),
            Err(CompileError::Sema(_))
        ));
        assert!(matches!(
            compile(
                "int (8) main(int (8) a, int (8) b) { return a / b; }",
                &CompileOptions::default()
            ),
            Err(CompileError::Unsupported(_))
        ));
    }
}

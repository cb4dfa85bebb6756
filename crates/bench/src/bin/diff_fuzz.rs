//! Differential fuzzer for the two execution engines: random Table-I
//! instruction streams (plus synthetic-arithmetic kernel streams from
//! [`hyperap_workloads::synthetic`]) run on the instruction-at-a-time
//! interpreter and on the slab engine over every chunk width — with and
//! without a seeded fault model — and any divergence in the run `Result`
//! (stats, `pe_health`, typed fault errors) or the post-run machine state
//! is shrunk to a minimized repro before the fuzzer exits non-zero.
//!
//! A second differential axis covers the compiler's optimizer: every
//! fourth iteration also generates a random C-like kernel source, compiles
//! it at `opt_level` 0 (the oracle) and at [`OPT_LEVEL_MAX`], and
//! cross-checks the two builds row-by-row against each other and against
//! the DFG reference evaluator. Divergences are shrunk by the same greedy
//! delta-debugging loop the stream cases use, dropping whole statements
//! and input rows until a fixpoint.
//!
//! A third axis covers the similarity API: random stored codes plus random
//! ternary query keys, `rows` limits, and `k` values run through
//! `hamming_topk` on the scalar engine and the slab engine over every
//! chunk width, with and without stuck-at faults — hits and stats
//! must be bit-identical. Half the cases also fill every `(pe, row)` with
//! a dense 64-bit code, drawn from a handful of palette codes or fully
//! random, and add binary queries near a stored code, so the top-k
//! readout must narrow to the k-th distance among many candidates and
//! ties. Divergent cases shrink by dropping codes, loads and queries.
//!
//! A fourth axis feeds damaged bytes to checkpoint resume. Each case takes
//! the `ckpt_v2` golden fixture, mutates the manifest or one
//! chunk file (bit flips, truncation, splices of other bytes, and
//! overwrites of the count and length fields with extreme values), and
//! usually re-seals the manifest checksum or re-addresses the chunk, so the
//! damage reaches the structural decoders instead of stopping at a hash.
//! Resume into a machine of a random chunk width must not panic. It must
//! return a typed `CkptError` and leave the machine untouched, or `Ok`
//! with a machine that is bit-identical to the fixture's. The exception is a sealed mutation,
//! which may describe another valid machine: its `Ok` must survive a
//! commit and resume of its own bit-identically. An unsealed mutation must
//! come back as `NoCheckpoint` or the fixture's own machine.
//!
//! Usage: `diff_fuzz [--smoke] [--ckpt] [--seed N] [--iters N] [--case N] [--kernel-case N]
//! [--sim-case N] [--ckpt-case N]`
//!
//! * `--smoke` — a short deterministic pass for CI (few iterations).
//! * `--ckpt` — run only the checkpoint axis (`--smoke` then runs
//!   [`CKPT_SMOKE_CASES`] cases).
//! * `--seed N` — base seed; every iteration derives its own case seed.
//! * `--iters N` — number of fuzz cases.
//! * `--case N` — re-run exactly one case seed (the repro header prints
//!   the value to pass here).
//! * `--kernel-case N` — re-run exactly one compiler-kernel case seed.
//! * `--sim-case N` — re-run exactly one similarity-query case seed.
//! * `--ckpt-case N` — re-run exactly one checkpoint-bytes case seed.
//!
//! The RNG is a self-contained splitmix64 so repros are stable across
//! hosts and toolchains.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hyperap_arch::machine::BROADCAST_ADDR;
use hyperap_arch::{ApMachine, ArchConfig, FaultConfig, SlabMachine};
use hyperap_baselines::reference::OpKind;
use hyperap_ckpt::testing::golden_machine;
use hyperap_ckpt::{word_hash64, CheckpointSink, Checkpointer, CkptError, Manifest, MemSink};
use hyperap_compiler::{compile, CompileOptions, OPT_LEVEL_MAX};
use hyperap_isa::{Direction, Instruction};
use hyperap_tcam::{FaultModel, KeyBit, SearchKey};
use hyperap_workloads::synthetic;

/// Geometry under test: `tiny()` is 2 groups x 4 PEs.
const PES: usize = 8;
const GROUPS: usize = 2;
const ROWS: usize = 16;

/// Slab chunk widths exercised per case: single-PE chunks, a short tail
/// chunk, one chunk per group.
const CHUNK_WIDTHS: [usize; 3] = [1, 3, 4];

/// Deterministic splitmix64 — the fuzzer's only entropy source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; modulo bias is irrelevant for fuzzing).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flag(&mut self) -> bool {
        self.below(2) == 0
    }
}

type Load = (usize, usize, usize, bool);

/// One fuzz case: a machine geometry, initial cell loads, a per-group
/// instruction stream, and a (possibly inactive) fault configuration.
struct Case {
    cols: usize,
    loads: Vec<Load>,
    streams: Vec<Vec<Instruction>>,
    faults: FaultConfig,
}

fn random_key(rng: &mut Rng, cols: usize) -> SearchKey {
    (0..cols)
        .map(|_| match rng.below(4) {
            0 => KeyBit::Zero,
            1 => KeyBit::One,
            2 => KeyBit::Z,
            _ => KeyBit::Masked,
        })
        .collect()
}

fn random_instruction(rng: &mut Rng, cols: usize) -> Instruction {
    match rng.below(12) {
        0 => Instruction::SetKey {
            key: random_key(rng, cols),
        },
        1 => Instruction::Search {
            acc: rng.flag(),
            encode: rng.flag(),
        },
        // `encode` needs two adjacent columns, so stop one short.
        2 => Instruction::Write {
            col: rng.below(cols as u64 - 1) as u8,
            encode: rng.flag(),
        },
        3 => Instruction::Count,
        4 => Instruction::Index,
        5 => Instruction::MovR {
            dir: match rng.below(4) {
                0 => Direction::Up,
                1 => Direction::Down,
                2 => Direction::Left,
                _ => Direction::Right,
            },
        },
        6 => Instruction::ReadR {
            addr: rng.below(PES as u64) as u32,
        },
        7 => Instruction::WriteR {
            addr: if rng.flag() {
                BROADCAST_ADDR
            } else {
                rng.below(PES as u64) as u32
            },
            imm: (0..rng.below(4)).map(|_| rng.next() as u8).collect(),
        },
        8 => Instruction::SetTag,
        9 => Instruction::ReadTag,
        10 => Instruction::Broadcast {
            group_mask: rng.next() as u8,
        },
        _ => Instruction::Wait {
            cycles: rng.below(10) as u8,
        },
    }
}

fn random_stream(rng: &mut Rng, cols: usize, max_len: u64) -> Vec<Instruction> {
    (0..rng.below(max_len))
        .map(|_| random_instruction(rng, cols))
        .collect()
}

fn random_faults(rng: &mut Rng) -> FaultConfig {
    // Half the cases run fault-free: the fuzzer differentially tests the
    // zero-fault path (must match today's engines) as much as the faulty
    // one.
    if rng.flag() {
        return FaultConfig::default();
    }
    FaultConfig {
        model: FaultModel {
            seed: rng.next(),
            stuck_per_million: rng.below(60_000) as u32,
            miss_per_million: rng.below(40_000) as u32,
            endurance_limit: rng.flag().then(|| 2 + rng.below(28)),
        },
        spare_cols: rng.below(3) as usize,
    }
}

/// Synthetic-arithmetic kernels mixed into the case pool — their microcode
/// streams are long chains of SetKey/Search/Write with realistic structure
/// random generation never produces.
const KERNELS: [(OpKind, usize); 4] = [
    (OpKind::Add, 16),
    (OpKind::AddImm, 16),
    (OpKind::MultiAdd, 8),
    (OpKind::Mul, 8),
];

fn generate_case(case_seed: u64) -> Case {
    let mut rng = Rng(case_seed);
    // One case in four runs a synthetic kernel stream (on the 256-column
    // geometry its microcode targets); the rest are random Table-I streams
    // on the tiny 64-column geometry.
    let kernel = rng.below(4) == 0;
    let cols = if kernel { 256 } else { 64 };
    let loads = (0..rng.below(64))
        .map(|_| {
            (
                rng.below(PES as u64) as usize,
                rng.below(ROWS as u64) as usize,
                rng.below(cols as u64) as usize,
                rng.flag(),
            )
        })
        .collect();
    let mut streams: Vec<Vec<Instruction>> = if kernel {
        let (op, width) = KERNELS[rng.below(KERNELS.len() as u64) as usize];
        let bench = synthetic::build(op, width);
        vec![bench.stream(), random_stream(&mut rng, cols, 12)]
    } else {
        (0..GROUPS)
            .map(|_| random_stream(&mut rng, cols, 30))
            .collect()
    };
    streams.truncate(GROUPS);
    Case {
        cols,
        loads,
        streams,
        faults: random_faults(&mut rng),
    }
}

fn config(case: &Case) -> ArchConfig {
    let mut cfg = ArchConfig::tiny();
    cfg.cols = case.cols;
    cfg.faults = case.faults;
    cfg
}

fn build_reference(case: &Case) -> ApMachine {
    let mut m = ApMachine::new(config(case));
    for &(pe, row, col, v) in &case.loads {
        m.pe_mut(pe).load_bit(row, col, v);
    }
    m
}

fn build_slab(case: &Case, chunk_pes: usize) -> SlabMachine {
    let mut m = SlabMachine::with_chunk_pes(config(case), chunk_pes);
    for &(pe, row, col, v) in &case.loads {
        m.load_bit(pe, row, col, v);
    }
    m
}

/// First state component on which `b` disagrees with the reference, if any.
fn slab_state_divergence(reference: &ApMachine, b: &SlabMachine) -> Option<String> {
    for pe in 0..PES {
        if *reference.pe(pe) != b.pe_snapshot(pe) {
            return Some(format!("PE {pe} state (cells/tags/wear/fault bookkeeping)"));
        }
        if *reference.data_reg(pe) != b.data_reg(pe) {
            return Some(format!("PE {pe} data register"));
        }
    }
    (reference.data_buffers != b.data_buffers).then(|| "controller data buffers".to_string())
}

/// Run the full engine matrix on `case`; `Some(description)` on the first
/// divergence from the interpreted reference.
fn check(case: &Case) -> Option<String> {
    let mut reference = build_reference(case);
    let ref_result = reference.try_run(&case.streams);
    for chunk_pes in CHUNK_WIDTHS {
        let mut slab = build_slab(case, chunk_pes);
        let got = slab.try_run(&case.streams);
        if got != ref_result {
            return Some(format!(
                "slab engine ({chunk_pes}-PE chunks) result diverged:\n  reference: {ref_result:?}\n  slab:      {got:?}"
            ));
        }
        if let Some(what) = slab_state_divergence(&reference, &slab) {
            return Some(format!(
                "slab engine ({chunk_pes}-PE chunks) diverged on {what}"
            ));
        }
    }
    None
}

/// Greedy delta-debugging: repeatedly drop single instructions and loads
/// while the divergence persists, until a fixpoint.
fn minimize(case: &mut Case) {
    loop {
        let mut shrunk = false;
        for g in 0..case.streams.len() {
            let mut i = 0;
            while i < case.streams[g].len() {
                let removed = case.streams[g].remove(i);
                if check(case).is_some() {
                    shrunk = true;
                } else {
                    case.streams[g].insert(i, removed);
                    i += 1;
                }
            }
        }
        let mut i = 0;
        while i < case.loads.len() {
            let removed = case.loads.remove(i);
            if check(case).is_some() {
                shrunk = true;
            } else {
                case.loads.insert(i, removed);
                i += 1;
            }
        }
        if !shrunk {
            break;
        }
    }
}

fn report(case_seed: u64, iteration: u64, case: &Case, divergence: &str) {
    eprintln!("diff_fuzz: DIVERGENCE at iteration {iteration} (case seed {case_seed})");
    eprintln!("diff_fuzz: re-run just this case with: diff_fuzz --case {case_seed}");
    eprintln!("diff_fuzz: minimized repro ({} columns):", case.cols);
    eprintln!("  faults: {:?}", case.faults);
    eprintln!("  loads (pe, row, col, value): {:?}", case.loads);
    for (g, s) in case.streams.iter().enumerate() {
        eprintln!("  group {g} stream ({} instructions): {s:?}", s.len());
    }
    eprintln!("diff_fuzz: {divergence}");
}

/// One compiler-optimizer fuzz case: a random straight-line kernel source
/// (as droppable statements) plus the input rows it runs on.
struct KernelCase {
    width: u32,
    arity: usize,
    /// Number of declared temporaries (fixed at generation so the
    /// minimizer can drop any statement without undeclaring later temps).
    n_temps: usize,
    stmts: Vec<String>,
    rows: Vec<Vec<u64>>,
}

impl KernelCase {
    /// Assemble the C-like source. All temporaries are declared up front;
    /// the return reads the last surviving assignment's target (or the
    /// first input when every statement has been shrunk away).
    fn source(&self) -> String {
        let params: Vec<String> = (0..self.arity)
            .map(|i| format!("unsigned int ({}) x{i}", self.width))
            .collect();
        let ret = self
            .stmts
            .iter()
            .rev()
            .find_map(|s| s.split('=').next().map(|l| l.trim().to_string()))
            .map(|lhs| lhs.split_whitespace().last().unwrap().to_string())
            .unwrap_or_else(|| "x0".into());
        let decls: Vec<String> = (0..self.n_temps)
            .map(|i| format!("    unsigned int ({}) t{i};", self.width))
            .collect();
        format!(
            "unsigned int ({}) main({}) {{\n{}\n    {}\n    return {ret};\n}}",
            self.width,
            params.join(", "),
            decls.join("\n"),
            self.stmts.join("\n    "),
        )
    }
}

/// A random expression over the inputs and the temporaries assigned by
/// earlier statements. Depth-bounded; shifts are by constants only
/// (data-dependent shifts are unsupported by the target).
fn random_expr(rng: &mut Rng, arity: usize, temps: usize, width: u32, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(3) {
            0 if temps > 0 => format!("t{}", rng.below(temps as u64)),
            1 => format!("{}", rng.below(1 << width.min(16))),
            _ => format!("x{}", rng.below(arity as u64)),
        };
    }
    let a = random_expr(rng, arity, temps, width, depth - 1);
    let b = random_expr(rng, arity, temps, width, depth - 1);
    match rng.below(8) {
        0 => format!("({a} + {b})"),
        1 => format!("({a} - {b})"),
        2 => format!("({a} * {b})"),
        3 => format!("({a} & {b})"),
        4 => format!("({a} | {b})"),
        5 => format!("({a} ^ {b})"),
        6 => format!("({a} << {})", rng.below(u64::from(width))),
        _ => format!("({a} >> {})", rng.below(u64::from(width))),
    }
}

fn generate_kernel_case(case_seed: u64) -> KernelCase {
    let mut rng = Rng(case_seed ^ 0xC0DE_F00D);
    // Small widths keep multiplier microcode expansions fast to compile.
    let width = 3 + rng.below(6) as u32;
    let arity = 1 + rng.below(3) as usize;
    let n_stmts = 1 + rng.below(4) as usize;
    let stmts = (0..n_stmts)
        .map(|i| {
            // A statement either assigns an expression or selects between
            // two arms on a comparison (exercising predicated selects).
            if rng.below(4) == 0 {
                let c0 = random_expr(&mut rng, arity, i, width, 1);
                let c1 = random_expr(&mut rng, arity, i, width, 1);
                let e0 = random_expr(&mut rng, arity, i, width, 1);
                let e1 = random_expr(&mut rng, arity, i, width, 1);
                format!("if ({c0} > {c1}) {{ t{i} = {e0}; }} else {{ t{i} = {e1}; }}")
            } else {
                format!("t{i} = {};", random_expr(&mut rng, arity, i, width, 2))
            }
        })
        .collect();
    let mask = (1u64 << width) - 1;
    let rows = (0..4 + rng.below(5))
        .map(|_| (0..arity).map(|_| rng.next() & mask).collect())
        .collect();
    KernelCase {
        width,
        arity,
        n_temps: n_stmts,
        stmts,
        rows,
    }
}

/// Compile at level 0 and max and cross-check; `Some(description)` on the
/// first divergence. A source both levels reject (e.g. a shrink broke a
/// temp reference) is not a divergence — but *disagreeing* on
/// compilability is.
fn check_kernel(case: &KernelCase) -> Option<String> {
    let src = case.source();
    let oracle = compile(&src, &CompileOptions::default());
    let optimized = compile(
        &src,
        &CompileOptions {
            opt_level: OPT_LEVEL_MAX,
            ..CompileOptions::default()
        },
    );
    let (k0, kmax) = match (oracle, optimized) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(_), Err(_)) => return None,
        (Ok(_), Err(e)) => {
            return Some(format!(
                "level {OPT_LEVEL_MAX} rejects what level 0 compiles: {e}"
            ))
        }
        (Err(e), Ok(_)) => {
            return Some(format!(
                "level 0 rejects what level {OPT_LEVEL_MAX} compiles: {e}"
            ))
        }
    };
    let rows: Vec<&[u64]> = case.rows.iter().map(|r| r.as_slice()).collect();
    let (got0, gotmax) = match (k0.run_rows(&rows), kmax.run_rows(&rows)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => return Some(format!("run disagreement: level 0 {a:?}, max {b:?}")),
    };
    for (i, row) in case.rows.iter().enumerate() {
        let want = k0.dfg.eval(row)[0];
        if got0[i] != want {
            return Some(format!(
                "level 0 disagrees with the DFG reference on row {i} {row:?}: {} != {want}",
                got0[i]
            ));
        }
        if gotmax[i] != want {
            return Some(format!(
                "level {OPT_LEVEL_MAX} disagrees with level 0 on row {i} {row:?}: {} != {want}",
                gotmax[i]
            ));
        }
    }
    None
}

/// Greedy delta-debugging over statements and rows, mirroring
/// [`minimize`] for instruction streams.
fn minimize_kernel(case: &mut KernelCase) {
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < case.stmts.len() {
            let removed = case.stmts.remove(i);
            if check_kernel(case).is_some() {
                shrunk = true;
            } else {
                case.stmts.insert(i, removed);
                i += 1;
            }
        }
        let mut i = 0;
        while i < case.rows.len() {
            let removed = case.rows.remove(i);
            if case.rows.is_empty() || check_kernel(case).is_none() {
                case.rows.insert(i, removed);
                i += 1;
            } else {
                shrunk = true;
            }
        }
        if !shrunk {
            break;
        }
    }
}

/// One similarity-query fuzz case: stored codes, a batch of read-only
/// top-k queries, and a (possibly inactive) fault configuration.
struct SimCase {
    /// Dense codes `(pe, row, bits)`: columns `0..64` of the row, loaded
    /// before `loads`.
    codes: Vec<(usize, usize, u64)>,
    loads: Vec<Load>,
    /// `(query, rows, k)` triples; queries are read-only so one machine
    /// build answers the whole batch.
    queries: Vec<(SearchKey, usize, usize)>,
    faults: FaultConfig,
}

fn generate_sim_case(case_seed: u64) -> SimCase {
    let mut rng = Rng(case_seed ^ 0x51AB_CA5E);
    let loads = (0..rng.below(96))
        .map(|_| {
            (
                rng.below(PES as u64) as usize,
                rng.below(ROWS as u64) as usize,
                rng.below(64) as usize,
                rng.flag(),
            )
        })
        .collect();
    let mut queries: Vec<(SearchKey, usize, usize)> = (0..1 + rng.below(4))
        .map(|_| {
            let key = random_key(&mut rng, 64);
            let rows = 1 + rng.below(ROWS as u64) as usize;
            let k = [1usize, 2, 5, 40, 200][rng.below(5) as usize];
            (key, rows, k)
        })
        .collect();
    let mut faults = random_faults(&mut rng);
    // Queries never write, so endurance is irrelevant — and host loads on
    // a near-exhausted array would make the fixture about wear, not
    // distances.
    faults.model.endurance_limit = None;
    // The dense family draws from its own stream, so the sparse family
    // above generates the same cases it always did.
    let mut dense = Rng(case_seed ^ 0xDE05_C0DE);
    let mut codes = Vec::new();
    if dense.flag() {
        // A handful of palette codes makes many candidates tie at the k-th
        // distance; fresh random codes make almost every code distinct.
        let palette: Vec<u64> = (0..1 + dense.below(4)).map(|_| dense.next()).collect();
        let distinct = dense.flag();
        for pe in 0..PES {
            for row in 0..ROWS {
                let bits = if distinct {
                    dense.next()
                } else {
                    palette[dense.below(palette.len() as u64) as usize]
                };
                codes.push((pe, row, bits));
            }
        }
        // Binary queries a few flips away from a stored code: distances
        // spread over the whole range, so the k-th place is contested.
        for _ in 0..1 + dense.below(3) {
            let (_, _, near) = codes[dense.below(codes.len() as u64) as usize];
            let flips = dense.next() & dense.next() & dense.next();
            let key = (0..64)
                .map(|col| {
                    if ((near ^ flips) >> col) & 1 == 1 {
                        KeyBit::One
                    } else {
                        KeyBit::Zero
                    }
                })
                .collect();
            let rows = 1 + dense.below(ROWS as u64) as usize;
            let k = [1usize, 2, 5, 40, 200][dense.below(5) as usize];
            queries.push((key, rows, k));
        }
    }
    SimCase {
        codes,
        loads,
        queries,
        faults,
    }
}

/// Every cell load of `case` in order: dense codes first, then the sparse
/// loads on top.
fn sim_loads(case: &SimCase) -> impl Iterator<Item = Load> + '_ {
    case.codes
        .iter()
        .flat_map(|&(pe, row, bits)| (0..64).map(move |col| (pe, row, col, (bits >> col) & 1 == 1)))
        .chain(case.loads.iter().copied())
}

fn sim_config(case: &SimCase) -> ArchConfig {
    let mut cfg = ArchConfig::tiny();
    cfg.faults = case.faults;
    cfg
}

/// Run the similarity engine matrix on `case`; `Some(description)` on the
/// first divergence from the scalar reference.
fn check_sim(case: &SimCase) -> Option<String> {
    let mut reference = ApMachine::new(sim_config(case));
    for (pe, row, col, v) in sim_loads(case) {
        reference.pe_mut(pe).load_bit(row, col, v);
    }
    for chunk_pes in CHUNK_WIDTHS {
        let mut slab = SlabMachine::with_chunk_pes(sim_config(case), chunk_pes);
        for (pe, row, col, v) in sim_loads(case) {
            slab.load_bit(pe, row, col, v);
        }
        for (qi, (query, rows, k)) in case.queries.iter().enumerate() {
            let want = reference.hamming_topk(query, *rows, *k);
            let got = slab.hamming_topk(query, *rows, *k);
            if want.hits != got.hits {
                return Some(format!(
                    "query {qi} (rows {rows}, k {k}) hits diverged on slab \
                     ({chunk_pes}-PE chunks):\n  reference: {:?}\n  slab:      {:?}",
                    want.hits, got.hits
                ));
            }
            if want.stats != got.stats {
                return Some(format!(
                    "query {qi} (rows {rows}, k {k}) stats diverged on slab \
                     ({chunk_pes}-PE chunks)"
                ));
            }
        }
    }
    None
}

/// Greedy delta-debugging over codes, loads and queries, mirroring
/// [`minimize`].
fn minimize_sim(case: &mut SimCase) {
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < case.codes.len() {
            let removed = case.codes.remove(i);
            if check_sim(case).is_some() {
                shrunk = true;
            } else {
                case.codes.insert(i, removed);
                i += 1;
            }
        }
        let mut i = 0;
        while i < case.loads.len() {
            let removed = case.loads.remove(i);
            if check_sim(case).is_some() {
                shrunk = true;
            } else {
                case.loads.insert(i, removed);
                i += 1;
            }
        }
        let mut i = 0;
        while i < case.queries.len() {
            let removed = case.queries.remove(i);
            if check_sim(case).is_some() {
                shrunk = true;
            } else {
                case.queries.insert(i, removed);
                i += 1;
            }
        }
        if !shrunk {
            break;
        }
    }
}

/// Run one similarity case end to end; `true` when a divergence was found
/// (already minimized and reported).
fn run_sim_case(case_seed: u64, iteration: u64) -> bool {
    let mut case = generate_sim_case(case_seed);
    if check_sim(&case).is_none() {
        return false;
    }
    minimize_sim(&mut case);
    let divergence =
        check_sim(&case).unwrap_or_else(|| "divergence vanished while shrinking".into());
    eprintln!("diff_fuzz: SIMILARITY DIVERGENCE at iteration {iteration} (case seed {case_seed})");
    eprintln!("diff_fuzz: re-run just this case with: diff_fuzz --sim-case {case_seed}");
    eprintln!("diff_fuzz: minimized repro:");
    eprintln!("  faults: {:?}", case.faults);
    eprintln!("  codes (pe, row, bits of cols 0..64): {:?}", case.codes);
    eprintln!("  loads (pe, row, col, value): {:?}", case.loads);
    for (qi, (query, rows, k)) in case.queries.iter().enumerate() {
        eprintln!("  query {qi} (rows {rows}, k {k}): {query:?}");
    }
    eprintln!("diff_fuzz: {divergence}");
    true
}

/// Run one compiler-kernel case end to end; `true` when a divergence was
/// found (already minimized and reported).
fn run_kernel_case(case_seed: u64, iteration: u64) -> bool {
    let mut case = generate_kernel_case(case_seed);
    if check_kernel(&case).is_none() {
        return false;
    }
    minimize_kernel(&mut case);
    let divergence =
        check_kernel(&case).unwrap_or_else(|| "divergence vanished while shrinking".into());
    eprintln!("diff_fuzz: OPTIMIZER DIVERGENCE at iteration {iteration} (case seed {case_seed})");
    eprintln!("diff_fuzz: re-run just this case with: diff_fuzz --kernel-case {case_seed}");
    eprintln!("diff_fuzz: minimized kernel source:\n{}", case.source());
    eprintln!("diff_fuzz: rows: {:?}", case.rows);
    eprintln!("diff_fuzz: {divergence}");
    true
}

/// Run one case end to end; `true` when a divergence was found (already
/// minimized and reported).
fn run_case(case_seed: u64, iteration: u64) -> bool {
    let mut case = generate_case(case_seed);
    let Some(_) = check(&case) else {
        return false;
    };
    minimize(&mut case);
    let divergence = check(&case).unwrap_or_else(|| "divergence vanished while shrinking".into());
    report(case_seed, iteration, &case, &divergence);
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 0xD1FF_F027;
    let mut iters: u64 = 256;
    let mut single_case: Option<u64> = None;
    let mut single_kernel_case: Option<u64> = None;
    let mut single_sim_case: Option<u64> = None;
    let mut single_ckpt_case: Option<u64> = None;
    let mut ckpt_only = false;
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                iters = 24;
                smoke = true;
            }
            "--ckpt" => ckpt_only = true,
            "--seed" | "--iters" | "--case" | "--kernel-case" | "--sim-case" | "--ckpt-case" => {
                let Some(v) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("diff_fuzz: {} needs an integer argument", args[i]);
                    std::process::exit(2);
                };
                match args[i].as_str() {
                    "--seed" => seed = v,
                    "--iters" => iters = v,
                    "--case" => single_case = Some(v),
                    "--kernel-case" => single_kernel_case = Some(v),
                    "--sim-case" => single_sim_case = Some(v),
                    _ => single_ckpt_case = Some(v),
                }
                i += 1;
            }
            other => {
                eprintln!("diff_fuzz: unknown argument {other}");
                eprintln!(
                    "usage: diff_fuzz [--smoke] [--ckpt] [--seed N] [--iters N] [--case N] \
                     [--kernel-case N] [--sim-case N] [--ckpt-case N]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(case_seed) = single_case {
        let failed = run_case(case_seed, 0);
        if !failed {
            println!("diff_fuzz: case {case_seed} is clean — all engines bit-identical");
        }
        std::process::exit(i32::from(failed));
    }
    if let Some(case_seed) = single_kernel_case {
        let failed = run_kernel_case(case_seed, 0);
        if !failed {
            println!("diff_fuzz: kernel case {case_seed} is clean — opt levels agree");
        }
        std::process::exit(i32::from(failed));
    }
    if let Some(case_seed) = single_sim_case {
        let failed = run_sim_case(case_seed, 0);
        if !failed {
            println!("diff_fuzz: similarity case {case_seed} is clean — engines bit-identical");
        }
        std::process::exit(i32::from(failed));
    }

    if let Some(case_seed) = single_ckpt_case {
        let failed = run_ckpt_case(&CkptFixture::load(), case_seed, 0);
        if !failed {
            println!("diff_fuzz: checkpoint case {case_seed} is clean — resume stayed typed");
        }
        std::process::exit(i32::from(failed));
    }
    let fixture = CkptFixture::load();
    if ckpt_only {
        let cases = if smoke { CKPT_SMOKE_CASES } else { iters };
        let mut derive = Rng(seed);
        for iteration in 0..cases {
            if run_ckpt_case(&fixture, derive.next(), iteration) {
                std::process::exit(1);
            }
        }
        println!(
            "diff_fuzz: {cases} damaged checkpoints resumed without a panic — typed errors or \
             bit-identical machines"
        );
        return;
    }

    let mut derive = Rng(seed);
    let mut kernel_cases = 0u64;
    let mut sim_cases = 0u64;
    for iteration in 0..iters {
        let case_seed = derive.next();
        if run_case(case_seed, iteration) {
            std::process::exit(1);
        }
        // Every fourth iteration also fuzzes the compiler's optimizer:
        // opt level 0 vs max on a random kernel source.
        if iteration % 4 == 0 {
            kernel_cases += 1;
            if run_kernel_case(case_seed, iteration) {
                std::process::exit(1);
            }
        }
        // Every other iteration fuzzes the similarity API: random stored
        // codes and top-k queries, scalar vs slab over the engine matrix.
        if iteration % 2 == 0 {
            sim_cases += 1;
            if run_sim_case(case_seed, iteration) {
                std::process::exit(1);
            }
        }
        if run_ckpt_case(&fixture, case_seed, iteration) {
            std::process::exit(1);
        }
    }
    println!(
        "diff_fuzz: {iters} cases clean — interpreter and slab engines bit-identical \
         (with and without faults); {kernel_cases} compiler kernels agree at opt levels 0 and \
         {OPT_LEVEL_MAX}; {sim_cases} similarity-query cases agree across engines; {iters} \
         damaged checkpoints resumed typed"
    );
}

// ---------------------------------------------------------------------------
// Checkpoint byte axis: damaged fixtures through `Checkpointer::resume`.
// ---------------------------------------------------------------------------

/// Cases `--ckpt --smoke` runs (each is one resume of a ~70 KB fixture).
const CKPT_SMOKE_CASES: u64 = 2000;

/// Chunk widths a damaged fixture is resumed into: its own (3) and two
/// that take the migration path.
const CKPT_WIDTHS: [usize; 3] = [3, 1, 4];

/// The `ckpt_v2` golden checkpoint and the machine it holds.
struct CkptFixture {
    /// Files in name order (the manifest last: `m-` sorts after `c-`).
    files: Vec<(String, Vec<u8>)>,
    manifest: Manifest,
    machine: SlabMachine,
}

impl CkptFixture {
    fn load() -> Self {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../tcam/tests/golden/ckpt_v2");
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("checkpoint fixture directory")
            .map(|e| {
                let e = e.expect("fixture entry");
                let bytes = std::fs::read(e.path()).expect("fixture file");
                (e.file_name().to_string_lossy().into_owned(), bytes)
            })
            .collect();
        files.sort();
        let manifest = Manifest::decode(&files.last().expect("fixture files").1)
            .expect("fixture manifest decodes");
        CkptFixture {
            files,
            manifest,
            machine: golden_machine(),
        }
    }
}

/// One damage to a file's bytes.
#[derive(Debug)]
enum Damage {
    /// Flip bit `bit % 8` of byte `at`.
    Flip { at: usize, bit: u8 },
    /// Keep only the first `len` bytes.
    Truncate { len: usize },
    /// Replace `at..at + cut` with `len` bytes of file `from` starting at
    /// `src` (the length of the file can change).
    Splice {
        at: usize,
        cut: usize,
        from: usize,
        src: usize,
        len: usize,
    },
    /// Overwrite a count or length field (`width` bytes at `at`, in the
    /// field's own byte order) with `value`.
    Count {
        at: usize,
        width: usize,
        le: bool,
        value: u64,
    },
}

/// One checkpoint-bytes case: which file, what damage, and whether the
/// damage is sealed (manifest checksum re-computed, or the chunk re-hashed
/// and the manifest pointed at its new address).
#[derive(Debug)]
struct CkptCase {
    file: usize,
    damage: Vec<Damage>,
    sealed: bool,
    width: usize,
}

fn be(bytes: &[u8], at: usize, width: usize) -> Option<u64> {
    let b = bytes.get(at..at + width)?;
    Some(b.iter().fold(0u64, |v, &x| v << 8 | u64::from(x)))
}

fn le(bytes: &[u8], at: usize, width: usize) -> Option<u64> {
    let b = bytes.get(at..at + width)?;
    Some(b.iter().rev().fold(0u64, |v, &x| v << 8 | u64::from(x)))
}

/// `(offset, width, little-endian)` of every count and length field in a
/// manifest, found by walking its documented layout.
fn manifest_counts(m: &[u8]) -> Vec<(usize, usize, bool)> {
    let mut out = vec![(13, 8, false)];
    let mut at = 13 + 80 + 16;
    let Some(flag) = m.get(at) else { return out };
    at += if *flag == 1 { 9 } else { 1 } + 8;
    let groups = be(m, 13, 8).unwrap_or(0).min(64);
    for _ in 0..groups {
        let Some(width) = be(m, at, 4) else {
            return out;
        };
        out.push((at, 4, false));
        at += 4 + width as usize;
        let Some(plen) = be(m, at, 4) else { return out };
        out.push((at, 4, false));
        at += 4 + 5 * plen as usize + 1;
        let Some(rows) = be(m, at, 4) else { return out };
        out.push((at, 4, false));
        at += 4 + 8 * (rows as usize).div_ceil(64);
    }
    out.push((at, 4, false));
    let n = be(m, at, 4).unwrap_or(0).min(64) as usize;
    for c in 0..n {
        let entry = at + 4 + 28 * c;
        out.push((entry + 8, 4, false));
        out.push((entry + 12, 8, false));
    }
    out
}

/// `(offset, width, little-endian)` of the count and length fields of a
/// chunk payload: the plane-image header, then the wear bitmap behind the
/// two arenas.
fn chunk_counts(c: &[u8]) -> Vec<(usize, usize, bool)> {
    let mut out: Vec<_> = (0..4).map(|i| (9 + 4 * i, 4, true)).collect();
    let dim = |i: usize| le(c, 9 + 4 * i, 4).unwrap_or(0) as usize;
    let arena = dim(2).saturating_mul(dim(1)).saturating_mul(dim(3));
    out.push((arena.saturating_mul(16).saturating_add(25), 8, true));
    out
}

fn generate_ckpt_case(fx: &CkptFixture, case_seed: u64) -> CkptCase {
    let mut rng = Rng(case_seed ^ 0xC4EC_4B01);
    let files = &fx.files;
    let file = rng.below(files.len() as u64) as usize;
    let bytes = &files[file].1;
    let is_manifest = file + 1 == files.len();
    let counts = if is_manifest {
        manifest_counts(bytes)
    } else {
        chunk_counts(bytes)
    };
    let mut damage = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let len = bytes.len() as u64;
        damage.push(match rng.below(8) {
            0..=2 => Damage::Flip {
                at: rng.below(len) as usize,
                bit: rng.below(8) as u8,
            },
            3 => Damage::Truncate {
                len: rng.below(len) as usize,
            },
            4 => {
                let from = rng.below(files.len() as u64) as usize;
                Damage::Splice {
                    at: rng.below(len) as usize,
                    cut: rng.below(64) as usize,
                    from,
                    src: rng.below(files[from].1.len() as u64) as usize,
                    len: rng.below(64) as usize,
                }
            }
            _ => {
                let (at, width, le) = counts[rng.below(counts.len() as u64) as usize];
                let max = if width == 8 {
                    u64::MAX
                } else {
                    (1 << (8 * width)) - 1
                };
                let old = if le {
                    self::le(bytes, at, width)
                } else {
                    be(bytes, at, width)
                };
                let old = old.unwrap_or(0);
                let value = match rng.below(6) {
                    0 => 0,
                    1 => max,
                    2 => old.wrapping_add(1) & max,
                    3 => old.wrapping_sub(1) & max,
                    4 => max / 2 + 1,
                    _ => rng.next() & max,
                };
                Damage::Count {
                    at,
                    width,
                    le,
                    value,
                }
            }
        });
    }
    CkptCase {
        file,
        damage,
        sealed: rng.below(4) != 0,
        width: CKPT_WIDTHS[rng.below(CKPT_WIDTHS.len() as u64) as usize],
    }
}

fn apply_damage(bytes: &mut Vec<u8>, damage: &[Damage], files: &[(String, Vec<u8>)]) {
    for d in damage {
        match *d {
            Damage::Flip { at, bit } => {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << (bit % 8);
                }
            }
            Damage::Truncate { len } => bytes.truncate(len),
            Damage::Splice {
                at,
                cut,
                from,
                src,
                len,
            } => {
                let source = &files[from].1;
                let src = src.min(source.len());
                let piece = source[src..(src + len).min(source.len())].to_vec();
                let at = at.min(bytes.len());
                let end = (at + cut).min(bytes.len());
                bytes.splice(at..end, piece);
            }
            Damage::Count {
                at,
                width,
                le,
                value,
            } => {
                if let Some(field) = bytes.get_mut(at..at + width) {
                    let all = if le {
                        value.to_le_bytes()
                    } else {
                        value.to_be_bytes()
                    };
                    let part = if le { &all[..width] } else { &all[8 - width..] };
                    field.copy_from_slice(part);
                }
            }
        }
    }
}

/// The damaged disk image of `case`.
fn damaged_sink(fx: &CkptFixture, case: &CkptCase) -> MemSink {
    let files = &fx.files;
    let manifest_at = files.len() - 1;
    let mut sink = MemSink::new();
    for (name, bytes) in files {
        sink.insert(name.clone(), bytes.clone());
    }
    let (name, original) = &files[case.file];
    let mut bytes = original.clone();
    apply_damage(&mut bytes, &case.damage, files);
    if case.file == manifest_at {
        if case.sealed && bytes.len() >= 8 {
            let body = bytes.len() - 8;
            let seal = hyperap_ckpt::fnv1a64(&bytes[..body]).to_be_bytes();
            bytes[body..].copy_from_slice(&seal);
        }
        sink.insert(name.clone(), bytes);
    } else if case.sealed {
        // Re-address the chunk and point the manifest's entry at it.
        let mut man = fx.manifest.clone();
        let entry = man
            .chunks
            .iter_mut()
            .find(|c| format!("c-{:016x}-{}.bin", c.hash, c.len) == *name)
            .expect("fixture manifest names every chunk file");
        entry.hash = word_hash64(&bytes);
        entry.len = bytes.len() as u64;
        let _ = CheckpointSink::remove(&mut sink, name);
        sink.insert(format!("c-{:016x}-{}.bin", entry.hash, entry.len), bytes);
        sink.insert(files[manifest_at].0.clone(), man.encode());
    } else {
        sink.insert(name.clone(), bytes);
    }
    sink
}

/// First state component on which two slab machines differ, if any.
fn machine_divergence(a: &SlabMachine, b: &SlabMachine) -> Option<String> {
    let total = a.config().total_pes();
    for pe in 0..total {
        let (sa, sb) = (a.pe_snapshot(pe), b.pe_snapshot(pe));
        if sa != sb || sa.fault() != sb.fault() {
            return Some(format!("PE {pe} state (cells/tags/wear/fault bookkeeping)"));
        }
        if a.data_reg(pe) != b.data_reg(pe) {
            return Some(format!("PE {pe} data register"));
        }
    }
    if a.machine_extras() != b.machine_extras() {
        return Some("key/plan/mask registers or controller buffers".into());
    }
    let ops = |m: &SlabMachine| {
        (0..m.num_chunks())
            .flat_map(|c| m.chunk_state(c).ops.to_vec())
            .collect::<Vec<_>>()
    };
    (ops(a) != ops(b)).then(|| "per-PE op counters".into())
}

/// A blank machine shaped like the fixture's at `width`-PE chunks.
fn ckpt_blank(fx: &CkptFixture, width: usize) -> SlabMachine {
    SlabMachine::with_chunk_pes(fx.machine.config().clone(), width)
}

/// Resume `case`'s damaged image; `Some(description)` when the outcome
/// breaks the axis' contract.
fn check_ckpt(fx: &CkptFixture, case: &CkptCase) -> Option<String> {
    let sink = damaged_sink(fx, case);
    let mut restored = ckpt_blank(fx, case.width);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Checkpointer::new(sink).resume(&mut restored)
    }));
    let result = match outcome {
        Ok(r) => r,
        Err(_) => return Some("resume panicked".into()),
    };
    match result {
        Ok(_) => {
            // Bit-identical to the fixture's machine is always right.
            let diff = machine_divergence(&restored, &fx.machine)?;
            if !case.sealed {
                return Some(format!(
                    "an unsealed damage resumed Ok with a different machine: {diff}"
                ));
            }
            // Another valid machine: it must survive its own commit and
            // resume bit-identically.
            let again = catch_unwind(AssertUnwindSafe(|| {
                let mut ck = Checkpointer::new(MemSink::new());
                ck.checkpoint(&restored)?;
                let mut twin = ckpt_blank(fx, 3);
                ck.resume(&mut twin).map(|_| twin)
            }));
            match again {
                Err(_) => Some("re-committing the resumed machine panicked".into()),
                Ok(Err(e)) => Some(format!("re-committing the resumed machine failed: {e}")),
                Ok(Ok(twin)) => machine_divergence(&twin, &restored)
                    .map(|d| format!("the resumed machine does not round-trip: {d}")),
            }
        }
        Err(e) => {
            // Every typed error is a legal answer to sealed damage; unsealed
            // damage can only fail every epoch. Either way the machine must
            // be left as it was.
            if !case.sealed && e != CkptError::NoCheckpoint {
                return Some(format!(
                    "unsealed damage must fall back to NoCheckpoint, got {e:?}"
                ));
            }
            machine_divergence(&restored, &ckpt_blank(fx, case.width))
                .map(|d| format!("resume failed ({e:?}) but changed the machine: {d}"))
        }
    }
}

/// Run one checkpoint-bytes case; `true` on a contract violation (reported).
fn run_ckpt_case(fx: &CkptFixture, case_seed: u64, iteration: u64) -> bool {
    let case = generate_ckpt_case(fx, case_seed);
    let Some(problem) = check_ckpt(fx, &case) else {
        return false;
    };
    eprintln!("diff_fuzz: CHECKPOINT FAILURE at iteration {iteration} (case seed {case_seed})");
    eprintln!("diff_fuzz: re-run just this case with: diff_fuzz --ckpt-case {case_seed}");
    eprintln!(
        "  file {} (sealed: {}, resumed at {}-PE chunks)",
        fx.files[case.file].0, case.sealed, case.width
    );
    for d in &case.damage {
        eprintln!("  damage: {d:?}");
    }
    eprintln!("diff_fuzz: {problem}");
    true
}

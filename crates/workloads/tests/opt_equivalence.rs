//! Optimizer ≡ oracle equivalence on both engines.
//!
//! For every opt level, the compiled kernel must produce the same
//! machine-visible results as the level-0 oracle — output field values and
//! architectural `RunStats` outcomes (count/index results) — whether the
//! stream executes on the instruction-at-a-time interpreter or the
//! bit-plane slab engine. The physical
//! *encoding* of outputs may differ between levels (loop summarization
//! moves result bits into encoded pairs); the decoded values may not.
//!
//! Also pins the program-cache contract the optimizer relies on: optimized
//! and unoptimized builds of the same kernel lower to streams with
//! *different* [`stream_set_hash`] keys, so a content-addressed cache (the
//! serving layer's `ProgramCache`) never even validates one build's
//! program against the other.

use std::collections::HashMap;
use std::sync::OnceLock;

use hyperap_arch::{stream_set_hash, ApMachine, ArchConfig, SlabMachine};
use hyperap_compiler::{compile, CompileOptions, CompiledKernel, OPT_LEVEL_MAX};
use hyperap_core::field::Slot;
use hyperap_isa::Instruction;
use proptest::prelude::*;

const ROWS: usize = 8;

/// One kernel compiled at some level, with its lowered stream.
type Built = (CompiledKernel, Vec<Instruction>);
/// Host loads for one row: plain `(col, bit)` singles and assembled
/// `(col, hi, lo)` encoded pairs.
type Loads = (Vec<(usize, bool)>, Vec<(usize, bool, bool)>);

const ADD32: &str =
    "unsigned int (32) main(unsigned int (32) a, unsigned int (32) b) { return a + b; }";
const MUL16: &str =
    "unsigned int (16) main(unsigned int (16) a, unsigned int (16) b) { return a * b; }";
const MIXED: &str = "unsigned int (8) main(unsigned int (8) a, unsigned int (8) b) {
    unsigned int (8) t;
    t = (a + b) ^ (a & 15);
    if (t > b) { t = t - b; } else { t = t + 1; }
    return t;
}";

/// Kernels compiled once per (source, level); proptest cases reuse them.
fn kernels(src: &'static str) -> &'static Vec<Built> {
    static CACHE: OnceLock<std::sync::Mutex<HashMap<&'static str, &'static Vec<Built>>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    let mut guard = cache.lock().unwrap();
    guard.entry(src).or_insert_with(|| {
        let built = (0..=OPT_LEVEL_MAX)
            .map(|level| {
                let opts = CompileOptions {
                    opt_level: level,
                    ..CompileOptions::default()
                };
                let k = compile(src, &opts).unwrap();
                let stream = hyperap_isa::lower(k.program());
                (k, stream)
            })
            .collect();
        Box::leak(Box::new(built))
    })
}

/// Flatten one row's input tuple into host loads: plain bits and fully
/// assembled encoded pairs (both halves gathered before encoding, so the
/// same loads drive the per-PE and slab load paths identically).
fn input_loads(k: &CompiledKernel, tuple: &[u64]) -> Loads {
    let mut singles = Vec::new();
    let mut pairs: HashMap<usize, (bool, bool)> = HashMap::new();
    for (field, &v) in k.input_fields().iter().zip(tuple) {
        for (i, slot) in field.slots.iter().enumerate() {
            let bit = v >> i & 1 == 1;
            match *slot {
                Slot::Single { col } => singles.push((col, bit)),
                Slot::PairHi { col } => pairs.entry(col).or_default().0 = bit,
                Slot::PairLo { col } => pairs.entry(col).or_default().1 = bit,
            }
        }
    }
    let mut pairs: Vec<(usize, bool, bool)> =
        pairs.into_iter().map(|(c, (h, l))| (c, h, l)).collect();
    pairs.sort_unstable();
    (singles, pairs)
}

/// Run `stream` over `rows` on one engine and decode the outputs.
fn run_engine(
    engine: &str,
    k: &CompiledKernel,
    stream: &[Instruction],
    rows: &[Vec<u64>],
) -> (Vec<Vec<u64>>, hyperap_arch::RunStats) {
    let cfg = ArchConfig::single_pe(ROWS);
    let streams = vec![stream.to_vec()];
    let read_out = |pe: &hyperap_core::machine::HyperPe| -> Vec<Vec<u64>> {
        rows.iter()
            .enumerate()
            .map(|(r, _)| k.output_fields().iter().map(|f| f.read(pe, r)).collect())
            .collect()
    };
    match engine {
        "interpreter" => {
            let mut m = ApMachine::new(cfg);
            for (r, tuple) in rows.iter().enumerate() {
                let (singles, pairs) = input_loads(k, tuple);
                for (col, v) in singles {
                    m.pe_mut(0).load_bit(r, col, v);
                }
                for (col, hi, lo) in pairs {
                    m.pe_mut(0).load_encoded_pair(r, col, hi, lo);
                }
            }
            let stats = m.run(&streams);
            (read_out(m.pe(0)), stats)
        }
        "slab" => {
            let mut m = SlabMachine::new(cfg);
            for (r, tuple) in rows.iter().enumerate() {
                let (singles, pairs) = input_loads(k, tuple);
                for (col, v) in singles {
                    m.load_bit(0, r, col, v);
                }
                for (col, hi, lo) in pairs {
                    m.load_encoded_pair(0, r, col, hi, lo);
                }
            }
            let stats = m.run(&streams);
            (read_out(&m.pe_snapshot(0)), stats)
        }
        other => panic!("unknown engine {other}"),
    }
}

fn check_equivalence(src: &'static str, rows: &[Vec<u64>]) {
    let built = kernels(src);
    let (oracle, _) = &built[0];
    let expected: Vec<Vec<u64>> = rows.iter().map(|t| oracle.dfg.eval(t)).collect();
    for (level, (k, stream)) in built.iter().enumerate() {
        let mut stats_per_engine = Vec::new();
        for engine in ["interpreter", "slab"] {
            let (got, stats) = run_engine(engine, k, stream, rows);
            assert_eq!(got, expected, "{engine} level {level} output values");
            stats_per_engine.push(stats);
        }
        // Both engines must agree on the architectural outcome (cycles, op
        // counts, count/index results) at every level.
        assert_eq!(
            stats_per_engine[0], stats_per_engine[1],
            "interpreter vs slab stats at level {level}"
        );
    }
}

fn rows_strategy(width: u32, arity: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    prop::collection::vec(
        prop::collection::vec((0..=mask).prop_map(move |v| v & mask), arity),
        1..=ROWS,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn add32_matches_oracle_on_all_engines(rows in rows_strategy(32, 2)) {
        check_equivalence(ADD32, &rows);
    }

    #[test]
    fn mul16_matches_oracle_on_all_engines(rows in rows_strategy(16, 2)) {
        check_equivalence(MUL16, &rows);
    }

    #[test]
    fn mixed_arith_matches_oracle_on_all_engines(rows in rows_strategy(8, 2)) {
        check_equivalence(MIXED, &rows);
    }
}

#[test]
fn optimized_and_unoptimized_streams_never_share_a_cache_key() {
    for src in [ADD32, MUL16] {
        let built = kernels(src);
        let (_, s0) = &built[0];
        let (_, s2) = &built[OPT_LEVEL_MAX as usize];
        // Different builds must lower to different cache keys.
        assert_ne!(
            stream_set_hash(std::slice::from_ref(s0)),
            stream_set_hash(std::slice::from_ref(s2)),
            "opt and unopt streams share a program-cache key"
        );

        // Alternate the two builds on one machine. Op counts are a pure
        // function of the dispatched stream, so state left over from the
        // previous build (a stale compiled program included) would bill
        // that build's op mix.
        let fresh = |s: &Vec<Instruction>| {
            SlabMachine::new(ArchConfig::single_pe(ROWS))
                .run(std::slice::from_ref(s))
                .group_ops
        };
        let (ops0, ops2) = (fresh(s0), fresh(s2));
        assert_ne!(ops0, ops2, "builds are indistinguishable by op mix");
        let mut m = SlabMachine::new(ArchConfig::single_pe(ROWS));
        for (stream, want) in [(s0, &ops0), (s2, &ops2), (s0, &ops0), (s2, &ops2)] {
            assert_eq!(
                &m.run(std::slice::from_ref(stream)).group_ops,
                want,
                "a run billed the other build's op mix"
            );
        }
    }
}

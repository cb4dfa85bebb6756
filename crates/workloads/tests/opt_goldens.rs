//! Optimizer golden counts: the compiler-built add32/mul16 kernels' op
//! mixes and Table-I cycle totals are frozen *per opt level*, so optimizer
//! regressions are caught the same way engine regressions are (see
//! `kernel_goldens.rs` for the microcode-built streams). A drift here is
//! fine only when intentional — update the constants alongside the
//! EXPERIMENTS.md figures they feed.
//!
//! Every bundled Rodinia kernel's compiled stream is also pinned byte for
//! byte at level 0 and `OPT_LEVEL_MAX`: an FNV-64 digest of the encoded
//! Table-I instructions plus the input and output field layouts, so a
//! compiler speed-up must reproduce its output exactly.
//!
//! The headline acceptance bar is also enforced: both kernels must emit
//! ≥15% fewer counted micro-ops at the maximum opt level than at level 0.

use hyperap_ckpt::fnv1a64;
use hyperap_compiler::{compile, opt, CompileOptions, CompiledKernel, OPT_LEVEL_MAX};
use hyperap_core::field::Slot;
use hyperap_model::TechParams;
use hyperap_workloads::kernels::all_kernels;

const ADD32: &str =
    "unsigned int (32) main(unsigned int (32) a, unsigned int (32) b) { return a + b; }";
const MUL16: &str =
    "unsigned int (16) main(unsigned int (16) a, unsigned int (16) b) { return a * b; }";

fn at_level(src: &str, level: u8) -> CompiledKernel {
    let opts = CompileOptions {
        opt_level: level,
        ..CompileOptions::default()
    };
    compile(src, &opts).unwrap()
}

/// `(counted ops, searches, writes_single, writes_encoded, tag_ops, rram, cmos)`
fn mix(k: &CompiledKernel) -> (u64, u64, u64, u64, u64, u64, u64) {
    let c = k.op_counts();
    (
        opt::counted_ops(k.program()),
        c.searches,
        c.writes_single,
        c.writes_encoded,
        c.tag_ops,
        c.cycles(&TechParams::rram()),
        c.cycles(&TechParams::cmos()),
    )
}

#[test]
fn add32_per_level_op_mix_and_cycles_are_frozen() {
    // Level 0 is the seed compiler's oracle output.
    assert_eq!(mix(&at_level(ADD32, 0)), (249, 170, 79, 0, 0, 1288, 577));
    // Level 1: 32 inverter LUTs absorbed into carry-chain truth tables,
    // 16 adjacent sum-bit writes fused into encoded pairs.
    assert_eq!(mix(&at_level(ADD32, 1)), (169, 138, 15, 16, 0, 824, 401));
    // Level 2 adds the self-paired multiplier layout — a no-op for add.
    assert_eq!(mix(&at_level(ADD32, 2)), (169, 138, 15, 16, 0, 824, 401));
}

#[test]
fn mul16_per_level_op_mix_and_cycles_are_frozen() {
    assert_eq!(
        mix(&at_level(MUL16, 0)),
        (2967, 2512, 133, 272, 50, 12926, 6833)
    );
    // Stream SCCP deletes the impossible radix-4 digit searches the plain
    // multiplier layout produces; liveness then kills their write chains.
    assert_eq!(mix(&at_level(MUL16, 1)), (929, 773, 61, 72, 23, 3957, 2112));
    assert_eq!(mix(&at_level(MUL16, 2)), (929, 773, 61, 72, 23, 3957, 2112));
}

#[test]
fn max_level_saves_at_least_fifteen_percent() {
    for (name, src) in [("add32", ADD32), ("mul16", MUL16)] {
        let base = opt::counted_ops(at_level(src, 0).program());
        let best = opt::counted_ops(at_level(src, OPT_LEVEL_MAX).program());
        assert!(
            (best as f64) <= 0.85 * base as f64,
            "{name}: {best} ops at max level vs {base} at level 0 — \
             less than the 15% acceptance bar"
        );
    }
}

#[test]
fn higher_levels_never_emit_more_ops() {
    for src in [ADD32, MUL16] {
        let mut prev = u64::MAX;
        for level in (0..=OPT_LEVEL_MAX).rev() {
            let ops = opt::counted_ops(at_level(src, level).program());
            assert!(
                ops >= prev || prev == u64::MAX,
                "level {level} emits fewer ops than level {}",
                level + 1
            );
            prev = ops;
        }
    }
}

/// FNV-64 of everything a compiled kernel hands the machine: the encoded
/// Table-I stream plus the column layout of every input and output field.
/// Two equally long but reordered search series hash differently, which
/// the op-mix goldens above cannot tell apart.
fn stream_digest(k: &CompiledKernel) -> u64 {
    let mut bytes = hyperap_isa::encode(&hyperap_isa::lower(k.program()));
    for fields in [k.input_fields(), k.output_fields()] {
        bytes.extend((fields.len() as u64).to_le_bytes());
        for f in fields {
            bytes.extend((f.slots.len() as u64).to_le_bytes());
            for slot in &f.slots {
                let (tag, col) = match *slot {
                    Slot::Single { col } => (0u8, col),
                    Slot::PairHi { col } => (1, col),
                    Slot::PairLo { col } => (2, col),
                };
                bytes.push(tag);
                bytes.extend((col as u64).to_le_bytes());
            }
        }
    }
    fnv1a64(&bytes)
}

#[test]
fn rodinia_stream_digests_are_frozen() {
    // (kernel, digest at level 0, digest at OPT_LEVEL_MAX).
    const DIGESTS: [(&str, u64, u64); 8] = [
        ("backprop", 0xa24f943350275d72, 0x969db91156e490fd),
        ("kmeans", 0x419870191934926f, 0x4a4be2bd46ab5638),
        ("hotspot", 0x5de16ba5a17881d5, 0x7eb811b136b44da1),
        ("pathfinder", 0xe3d46c9bfc5be6fc, 0xda5cdaf59aa9dd37),
        ("nw", 0x28e57d7857385272, 0xb4d8a55c57676e9a),
        ("srad", 0x3793c41800e3f699, 0x0b4614b0226fc2d9),
        ("streamcluster", 0xb12d0e8f9535f8b8, 0x1568ce3052835738),
        ("gaussian", 0xf708479d69920c14, 0xd688e0a228482943),
    ];
    let got: Vec<(&str, u64, u64)> = all_kernels()
        .iter()
        .map(|k| {
            let d0 = stream_digest(&at_level(k.source, 0));
            let dmax = stream_digest(&at_level(k.source, OPT_LEVEL_MAX));
            (k.name, d0, dmax)
        })
        .collect();
    assert_eq!(
        got, DIGESTS,
        "compiled Rodinia streams or field layouts drifted"
    );
}

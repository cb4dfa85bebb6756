//! Property tests for the slab engine's equivalence guarantee: random
//! instruction streams produce bit-identical PE state (cells, tags, latch,
//! per-PE operation counts, per-column wear), data registers, controller
//! buffers, `RunStats`, and cross-run key-register state whether execution
//! goes through the instruction-at-a-time interpreter ([`ApMachine`], the
//! oracle) or the slab engine ([`SlabMachine`]) — over chunk widths that
//! exercise single-PE chunks, short tail chunks, and one-chunk-per-group
//! layouts.

use hyperap_arch::machine::BROADCAST_ADDR;
use hyperap_arch::{ApMachine, ArchConfig, SlabMachine};
use hyperap_isa::{Direction, Instruction};
use hyperap_tcam::KeyBit;
use proptest::prelude::*;

/// Geometry under test: `tiny()` is 2 groups x 4 PEs of 16x64.
const PES: usize = 8;
const ROWS: usize = 16;
const COLS: usize = 64;

/// Chunk widths under test: single-PE chunks, a short tail chunk (4 PEs per
/// group in chunks of 3), and one chunk covering the whole group.
const CHUNK_WIDTHS: [usize; 3] = [1, 3, 4];

fn inst_strategy() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        prop::collection::vec(0u8..4, COLS).prop_map(|bits| Instruction::SetKey {
            key: bits
                .iter()
                .map(|b| match b {
                    0 => KeyBit::Zero,
                    1 => KeyBit::One,
                    2 => KeyBit::Z,
                    _ => KeyBit::Masked,
                })
                .collect(),
        }),
        (any::<bool>(), any::<bool>())
            .prop_map(|(acc, encode)| Instruction::Search { acc, encode }),
        // `encode` needs two adjacent columns, so stop one short.
        (0u8..(COLS as u8 - 1), any::<bool>())
            .prop_map(|(col, encode)| Instruction::Write { col, encode }),
        Just(Instruction::Count),
        Just(Instruction::Index),
        (0u8..4).prop_map(|d| Instruction::MovR {
            dir: match d {
                0 => Direction::Up,
                1 => Direction::Down,
                2 => Direction::Left,
                _ => Direction::Right,
            },
        }),
        (0u32..PES as u32).prop_map(|addr| Instruction::ReadR { addr }),
        (0u32..=PES as u32, prop::collection::vec(any::<u8>(), 0..4)).prop_map(|(a, imm)| {
            Instruction::WriteR {
                addr: if a == PES as u32 { BROADCAST_ADDR } else { a },
                imm,
            }
        }),
        Just(Instruction::SetTag),
        Just(Instruction::ReadTag),
        any::<u8>().prop_map(|m| Instruction::Broadcast { group_mask: m }),
        (0u8..10).prop_map(|cycles| Instruction::Wait { cycles }),
    ]
}

type Load = (usize, usize, usize, bool);

fn loads_strategy() -> impl Strategy<Value = Vec<Load>> {
    prop::collection::vec(
        (0usize..PES, 0usize..ROWS, 0usize..COLS, any::<bool>()),
        0..64,
    )
}

fn build_reference(loads: &[Load]) -> ApMachine {
    let mut m = ApMachine::new(ArchConfig::tiny());
    for &(pe, row, col, v) in loads {
        m.pe_mut(pe).load_bit(row, col, v);
    }
    m
}

fn build_slab(chunk_pes: usize, loads: &[Load]) -> SlabMachine {
    let mut m = SlabMachine::with_chunk_pes(ArchConfig::tiny(), chunk_pes);
    for &(pe, row, col, v) in loads {
        m.load_bit(pe, row, col, v);
    }
    m
}

fn assert_machines_identical(reference: &ApMachine, slab: &SlabMachine) {
    for pe in 0..PES {
        let snapshot = slab.pe_snapshot(pe);
        assert_eq!(reference.pe(pe), &snapshot, "PE {pe} state diverged");
        // PE equality already covers wear (part of `TcamArray`'s `Eq`), but
        // assert it separately so a wear divergence names itself.
        assert_eq!(
            reference.pe(pe).column_wear(),
            snapshot.column_wear(),
            "PE {pe} wear accounting diverged"
        );
        assert_eq!(
            reference.data_reg(pe),
            &slab.data_reg(pe),
            "PE {pe} data register diverged"
        );
    }
    assert_eq!(
        reference.data_buffers, slab.data_buffers,
        "controller data buffers diverged"
    );
}

/// Ragged bank gating at word scale: a 96-PE group (6 banks × 16 PEs)
/// where Broadcast masks carve the group into active runs that start and
/// end mid-word, driven through chunk widths that are a whole group (96),
/// exactly one PE word (64), and a deliberately 64-misaligned width (40).
/// Seeded faults keep the stuck-mask and search-miss planes live so the
/// masked fault paths see partial words too.
#[test]
fn ragged_bank_broadcast_agrees_at_word_scale() {
    use hyperap_tcam::FaultModel;

    let mut cfg = ArchConfig::tiny();
    cfg.groups = 2;
    cfg.banks_per_group = 6;
    cfg.subarrays_per_bank = 4;
    cfg.pes_per_subarray = 4; // 96 PEs per group, 16 per bank
    cfg.faults = hyperap_arch::FaultConfig {
        model: FaultModel {
            seed: 0x96BA_2C57,
            stuck_per_million: 40_000,
            miss_per_million: 25_000,
            endurance_limit: Some(4),
        },
        spare_cols: 2,
    };
    let pes = cfg.total_pes();

    // `Z` would only match unprogrammed cells and every fixture cell is
    // loaded 0/1, so the key sticks to 0/1/masked bits.
    let key = "10-1"
        .chars()
        .map(|c| match c {
            '0' => KeyBit::Zero,
            '1' => KeyBit::One,
            'Z' => KeyBit::Z,
            _ => KeyBit::Masked,
        })
        .chain(std::iter::repeat(KeyBit::Masked))
        .take(COLS)
        .collect();
    let mut stream = vec![Instruction::SetKey { key }];
    // Masks chosen so active PE runs start/end mid-word: bank 16-PE
    // granularity means 0b010110 activates PEs 16..32, 64..80 — word 0
    // upper quarter plus word 1 lower quarter.
    for (i, mask) in [0b010110u8, 0b101001, 0b000111, 0b111000, 0b111111, 0b100000]
        .into_iter()
        .enumerate()
    {
        stream.push(Instruction::Broadcast { group_mask: mask });
        stream.push(Instruction::Search {
            acc: i % 2 == 0,
            encode: i == 2,
        });
        stream.push(Instruction::Write {
            col: 3 + i as u8,
            encode: i == 2,
        });
        stream.push(Instruction::SetTag);
        stream.push(Instruction::WriteR {
            addr: BROADCAST_ADDR,
            imm: vec![0xA5u8.wrapping_add(i as u8), i as u8],
        });
        stream.push(Instruction::Count);
        stream.push(Instruction::Index);
        stream.push(Instruction::ReadTag);
    }
    stream.push(Instruction::Broadcast {
        group_mask: 0b111111,
    });
    stream.push(Instruction::Search {
        acc: false,
        encode: false,
    });
    stream.push(Instruction::Count);
    let streams = vec![stream.clone(), stream];

    let mut reference = ApMachine::new(cfg.clone());
    for pe in 0..pes {
        for row in 0..ROWS {
            for col in 0..8 {
                reference
                    .pe_mut(pe)
                    .load_bit(row, col, (pe + 3 * row + 7 * col) % 3 == 0);
            }
        }
    }
    let ref_stats = reference.run(&streams);
    assert!(
        ref_stats
            .count_results
            .iter()
            .flatten()
            .any(|&(_, c)| c > 0),
        "degenerate fixture: no PE ever matched"
    );

    for chunk_pes in [96usize, 64, 40] {
        let mut slab = SlabMachine::with_chunk_pes(cfg.clone(), chunk_pes);
        for pe in 0..pes {
            for row in 0..ROWS {
                for col in 0..8 {
                    slab.load_bit(pe, row, col, (pe + 3 * row + 7 * col) % 3 == 0);
                }
            }
        }
        let slab_stats = slab.run(&streams);
        assert_eq!(
            ref_stats, slab_stats,
            "stats diverged with {chunk_pes}-PE chunks"
        );
        for pe in 0..pes {
            let snapshot = slab.pe_snapshot(pe);
            assert_eq!(
                reference.pe(pe),
                &snapshot,
                "PE {pe} diverged with {chunk_pes}-PE chunks"
            );
            assert_eq!(
                reference.data_reg(pe),
                &slab.data_reg(pe),
                "PE {pe} data register diverged with {chunk_pes}-PE chunks"
            );
        }
        assert_eq!(reference.data_buffers, slab.data_buffers);
    }
}

proptest! {
    /// The interpreter is the reference; the slab engine must match it
    /// bit-for-bit under every chunk width — machine
    /// state, wear, per-PE op counts, and stats (Count/Index reductions
    /// included).
    #[test]
    fn slab_engine_equals_per_pe_reference(
        loads in loads_strategy(),
        s0 in prop::collection::vec(inst_strategy(), 0..40),
        s1 in prop::collection::vec(inst_strategy(), 0..40),
    ) {
        let streams = vec![s0, s1];
        let mut reference = build_reference(&loads);
        let ref_stats = reference.run(&streams);
        for chunk_pes in CHUNK_WIDTHS {
            let mut slab = build_slab(chunk_pes, &loads);
            let slab_stats = slab.run(&streams);
            prop_assert_eq!(
                &ref_stats, &slab_stats,
                "stats diverged with {}-PE chunks", chunk_pes
            );
            assert_machines_identical(&reference, &slab);
        }
    }

    /// The fused slab engine against the unfused oracle: the
    /// instruction-at-a-time interpreter (no traces, no fusion) must match
    /// the slab engine bit-for-bit whether the slab executes
    /// peephole-fused or unfused traces — across every chunk width. Covers cells, tags, latch, wear, data registers,
    /// per-PE op counts (fused ops bill their unfused constituents),
    /// cycles, and Count/Index reductions.
    #[test]
    fn fused_slab_engine_matches_unfused_interpreter(
        loads in loads_strategy(),
        s0 in prop::collection::vec(inst_strategy(), 0..30),
        s1 in prop::collection::vec(inst_strategy(), 0..30),
    ) {
        let streams = vec![s0, s1];
        let cfg = ArchConfig::tiny();
        let mut oracle = build_reference(&loads);
        let oracle_stats = oracle.run(&streams);
        let fused = hyperap_arch::trace::compile_streams(&streams, &cfg);
        let unfused = hyperap_arch::trace::compile_streams_unfused(&streams, &cfg);
        for chunk_pes in CHUNK_WIDTHS {
            for (kind, traces) in [("fused", &fused), ("unfused", &unfused)] {
                let mut slab = build_slab(chunk_pes, &loads);
                let slab_stats = slab.try_run_compiled(traces).expect("fault-free run");
                prop_assert_eq!(
                    &oracle_stats, &slab_stats,
                    "{} stats diverged from interpreter with {}-PE chunks",
                    kind, chunk_pes
                );
                assert_machines_identical(&oracle, &slab);
            }
        }
    }

    /// Key-register state must carry across runs identically: a stream that
    /// searches before its first SetKey picks up whatever key the previous
    /// run left behind (entry-key snapshot and final-key restore paths).
    #[test]
    fn engines_agree_across_consecutive_runs(
        loads in loads_strategy(),
        first in prop::collection::vec(inst_strategy(), 0..25),
        second in prop::collection::vec(inst_strategy(), 0..25),
    ) {
        let mut reference = build_reference(&loads);
        let mut slab = build_slab(3, &loads);
        let a0 = reference.run(std::slice::from_ref(&first));
        let b0 = slab.run(std::slice::from_ref(&first));
        prop_assert_eq!(&a0, &b0);
        let a1 = reference.run(std::slice::from_ref(&second));
        let b1 = slab.run(std::slice::from_ref(&second));
        prop_assert_eq!(&a1, &b1, "second run diverged: key state not carried");
        // Rerunning the first stream exercises the slab engine's trace
        // cache: `second` evicted `first`'s traces, so this must recompile
        // (not reuse stale traces) and still match the uncached interpreter.
        let a2 = reference.run(std::slice::from_ref(&first));
        let b2 = slab.run(std::slice::from_ref(&first));
        prop_assert_eq!(&a2, &b2, "rerun diverged: stale trace cache");
        assert_machines_identical(&reference, &slab);
    }

    /// Precompiled traces (the `try_run_compiled` entry point the
    /// benchmarks and the serving layer use) give the interpreter's results.
    #[test]
    fn precompiled_traces_agree(
        loads in loads_strategy(),
        s0 in prop::collection::vec(inst_strategy(), 0..30),
    ) {
        let streams = vec![s0];
        let cfg = ArchConfig::tiny();
        let traces = hyperap_arch::trace::compile_streams(&streams, &cfg);
        let mut reference = build_reference(&loads);
        let mut slab = build_slab(4, &loads);
        let a = reference.run(&streams);
        let b = slab.try_run_compiled(&traces).expect("fault-free run");
        prop_assert_eq!(&a, &b);
        assert_machines_identical(&reference, &slab);
    }

    /// Bank gating: the slab engine's active-run computation must track
    /// every Broadcast mask change exactly like the interpreter's cached
    /// active sets, under every chunk width. `tiny()`
    /// has one bank (bank 0) per group, so mask bit 0 gates all four PEs
    /// of the group: the Count results have a closed-form length.
    #[test]
    fn broadcast_gating_matches_reference(
        masks in prop::collection::vec(any::<u8>(), 1..8),
        loads in loads_strategy(),
    ) {
        let mut stream = Vec::new();
        for m in &masks {
            stream.push(Instruction::Broadcast { group_mask: *m });
            stream.push(Instruction::Search { acc: false, encode: false });
            stream.push(Instruction::Count);
        }
        let streams = vec![stream];
        let mut reference = build_reference(&loads);
        let a = reference.run(&streams);
        let expected = 4 * masks.iter().filter(|&&m| m & 1 == 1).count();
        prop_assert_eq!(a.count_results[0].len(), expected);
        for chunk_pes in CHUNK_WIDTHS {
            let mut slab = build_slab(chunk_pes, &loads);
            let b = slab.run(&streams);
            prop_assert_eq!(
                &a, &b,
                "stats diverged with {}-PE chunks", chunk_pes
            );
            assert_machines_identical(&reference, &slab);
        }
    }
}

//! Property test for `SlabMachine::scrub`'s isolation guarantee: however
//! little or much the last tenant wrote, a scrubbed machine is
//! indistinguishable from a fresh `SlabMachine::new` of the same config.
//!
//! `scrub` pays only for what was written (chunks whose fingerprint still
//! equals their clean mark are skipped, dirty chunks reset only the arenas
//! whose version moved, and the cell arena only in non-fresh columns), so
//! this drives the cases those skips must get right: random streams on
//! random group subsets (untouched groups stay clean), host loads of both
//! values (a `0` load keeps the plane summaries fresh), zero-writes that
//! bump only wear, chunk widths 1, 3 and 64 (single-PE chunks, short tail
//! chunks, a whole word plus a tail), a seeded fault model (always the
//! full reset), and the replacement hazard: a non-fresh checkpoint image —
//! decoded arenas start at version 0 like fresh ones — restored into a
//! fresh machine and then scrubbed. After every scrub, `pe_snapshot` (cells,
//! wear, tags, latch, op counts, fault bookkeeping), `data_reg`, the
//! controller extras and a probe run's `RunStats` must equal a fresh
//! machine's.

use hyperap_arch::machine::BROADCAST_ADDR;
use hyperap_arch::{ArchConfig, ChunkPayload, FaultConfig, SlabMachine};
use hyperap_isa::{Direction, Instruction};
use hyperap_tcam::{FaultModel, KeyBit, TagSlab, TcamSlab};
use proptest::prelude::*;

const GROUPS: usize = 3;
/// 100 PEs per group (10 × 10): two 64-PE words with a 36-lane tail.
const PER: usize = 100;
const PES: usize = GROUPS * PER;
const ROWS: usize = 70;
const COLS: usize = 16;
const CHUNK_WIDTHS: [usize; 3] = [1, 3, 64];

fn config(faults: Option<u64>) -> ArchConfig {
    let mut cfg = ArchConfig::tiny();
    cfg.groups = GROUPS;
    cfg.subarrays_per_bank = 10;
    cfg.pes_per_subarray = 10;
    cfg.rows = ROWS;
    cfg.cols = COLS;
    cfg.faults = match faults {
        Some(seed) => FaultConfig {
            model: FaultModel {
                seed,
                stuck_per_million: 20_000,
                miss_per_million: 10_000,
                endurance_limit: Some(3),
            },
            spare_cols: 1,
        },
        None => FaultConfig::default(),
    };
    cfg
}

fn key_of(bits: &[u8]) -> Instruction {
    Instruction::SetKey {
        key: bits
            .iter()
            .map(|b| match b {
                0 => KeyBit::Zero,
                1 => KeyBit::One,
                2 => KeyBit::Z,
                _ => KeyBit::Masked,
            })
            .collect(),
    }
}

fn inst_strategy() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        prop::collection::vec(0u8..4, COLS).prop_map(|bits| key_of(&bits)),
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
    ]
}

/// Tag every row, then write `0` into `col`: the stored cells (and so the
/// plane summaries) stay fresh, only the column's wear moves.
fn zero_write(col: u8) -> Vec<Instruction> {
    vec![
        key_of(&[3; COLS]),
        Instruction::Search {
            acc: false,
            encode: false,
        },
        key_of(&[0; COLS]),
        Instruction::Write { col, encode: false },
    ]
}

type Load = (usize, usize, usize, bool);

/// `Some` drawn from `inner` half the time.
fn maybe<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(on, v)| on.then_some(v))
}

/// One tenant: host loads, then streams on the groups of `subset` (bit
/// `g` set = group `g` runs), one of them optionally led by a zero-write.
#[derive(Debug, Clone)]
struct Round {
    loads: Vec<Load>,
    subset: u8,
    streams: Vec<Vec<Instruction>>,
    zero_col: Option<u8>,
}

fn round_strategy() -> impl Strategy<Value = Round> {
    (
        prop::collection::vec(
            (0usize..PES, 0usize..ROWS, 0usize..COLS, any::<bool>()),
            0..24,
        ),
        0u8..(1 << GROUPS),
        prop::collection::vec(prop::collection::vec(inst_strategy(), 0..10), GROUPS),
        maybe(0u8..COLS as u8),
    )
        .prop_map(|(loads, subset, streams, zero_col)| Round {
            loads,
            subset,
            streams,
            zero_col,
        })
}

fn apply(m: &mut SlabMachine, round: &Round) {
    for &(pe, row, col, v) in &round.loads {
        m.load_bit(pe, row, col, v);
    }
    let streams: Vec<Vec<Instruction>> = (0..GROUPS)
        .map(|g| {
            if round.subset >> g & 1 == 0 {
                return Vec::new();
            }
            let mut s = match round.zero_col {
                Some(col) if g == round.subset.trailing_zeros() as usize => zero_write(col),
                _ => Vec::new(),
            };
            s.extend(round.streams[g].iter().cloned());
            s
        })
        .collect();
    // A fault-seeded run may exhaust its spares; the scrub must undo that
    // too, so the outcome itself is not the point here.
    let _ = m.try_run(&streams);
}

/// Every observable of `m` equals a fresh machine's, and a probe (host
/// loads plus a search/Count/Index on every group) behaves identically.
fn assert_fresh(m: &mut SlabMachine, cfg: &ArchConfig, width: usize, probe_bits: &[u8]) {
    let mut fresh = SlabMachine::with_chunk_pes(cfg.clone(), width);
    assert_same_state(m, &fresh);
    let probe = vec![
        key_of(probe_bits),
        Instruction::Search {
            acc: false,
            encode: true,
        },
        Instruction::Count,
        Instruction::Index,
    ];
    for machine in [&mut *m, &mut fresh] {
        machine.load_bit(PER + 7, 5, 2, true);
        machine.load_bit(2 * PER - 1, ROWS - 1, COLS - 1, true);
    }
    assert_eq!(
        m.try_run(&vec![probe.clone(); GROUPS]),
        fresh.try_run(&vec![probe; GROUPS]),
        "probe RunStats diverged (width {width})"
    );
    assert_same_state(m, &fresh);
}

fn assert_same_state(m: &SlabMachine, fresh: &SlabMachine) {
    for pe in 0..PES {
        let (got, want) = (m.pe_snapshot(pe), fresh.pe_snapshot(pe));
        assert_eq!(got.column_wear(), want.column_wear(), "PE {pe} wear");
        assert_eq!(got, want, "PE {pe} state");
        assert_eq!(m.data_reg(pe), fresh.data_reg(pe), "PE {pe} data register");
    }
    assert_eq!(
        m.machine_extras(),
        fresh.machine_extras(),
        "controller extras"
    );
}

/// `m`'s chunks as a checkpoint would restore them: every arena decoded
/// from its plane image, so each starts at version 0 whatever it holds.
fn decoded_payloads(m: &SlabMachine) -> Vec<ChunkPayload> {
    let tags = |t: &TagSlab| {
        let mut out = Vec::new();
        t.write_plane(&mut out);
        TagSlab::read_plane(&mut out.as_slice(), t.pes(), t.rows()).expect("tag plane")
    };
    let storage = |s: &TcamSlab| {
        let mut out = Vec::new();
        s.write_plane_image(&mut out);
        TcamSlab::read_plane_image(&mut out.as_slice()).expect("plane image")
    };
    (0..m.num_chunks())
        .map(|i| {
            let s = m.chunk_state(i);
            ChunkPayload {
                global_base: s.global_base,
                storage: storage(s.storage),
                tags: tags(s.tags),
                latch: tags(s.latch),
                regs: tags(s.regs),
                ops: s.ops.to_vec(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scrub_equals_new(
        rounds in prop::collection::vec(round_strategy(), 1..4),
        fault_seed in maybe(any::<u64>()),
        probe in prop::collection::vec(0u8..4, COLS),
    ) {
        let cfg = config(fault_seed);
        for width in CHUNK_WIDTHS {
            let mut m = SlabMachine::with_chunk_pes(cfg.clone(), width);
            for round in &rounds {
                apply(&mut m, round);
                m.scrub();
                if fault_seed.is_none() {
                    // A second scrub of a just-scrubbed machine is free.
                    let before: Vec<_> = (0..m.num_chunks()).map(|i| m.chunk_fingerprint(i)).collect();
                    m.scrub();
                    let after: Vec<_> = (0..m.num_chunks()).map(|i| m.chunk_fingerprint(i)).collect();
                    prop_assert_eq!(before, after, "clean scrub moved a fingerprint");
                }
                assert_fresh(&mut m, &cfg, width, &probe);
            }
        }
    }

    #[test]
    fn scrub_after_restoring_a_dirty_checkpoint_equals_new(
        round in round_strategy(),
        fault_seed in maybe(any::<u64>()),
        probe in prop::collection::vec(0u8..4, COLS),
    ) {
        let cfg = config(fault_seed);
        for (from, to) in [(1, 1), (3, 3), (64, 64), (3, 64), (64, 1)] {
            let mut dirty = SlabMachine::with_chunk_pes(cfg.clone(), from);
            apply(&mut dirty, &round);
            // Restore into a fresh machine — its clean marks describe the
            // arenas the restore replaces — then scrub.
            let mut m = SlabMachine::with_chunk_pes(cfg.clone(), to);
            m.set_machine_extras(dirty.machine_extras()).expect("same config");
            m.restore_chunks(decoded_payloads(&dirty)).expect("same config");
            m.scrub();
            assert_fresh(&mut m, &cfg, to, &probe);
        }
    }
}

/// The explicit hazard: a zero-write leaves every plane summary fresh but
/// the column worn; after a decode (arenas at version 0, exact summaries)
/// and restore into a fresh machine, only the wear betrays the old state.
#[test]
fn restored_wear_only_checkpoint_is_scrubbed() {
    let cfg = config(None);
    let mut dirty = SlabMachine::new(cfg.clone());
    dirty.run(&[zero_write(4)]);
    assert!(dirty.pe_snapshot(0).column_wear()[4] > 0);
    let mut m = SlabMachine::new(cfg.clone());
    m.restore_chunks(decoded_payloads(&dirty))
        .expect("same config");
    m.scrub();
    assert_same_state(&m, &SlabMachine::new(cfg));
}

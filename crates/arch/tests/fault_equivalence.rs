//! Property tests for the fault subsystem's differential guarantee: under
//! the same seeded [`FaultModel`] (stuck-at cells, transient search misses,
//! endurance-driven column sparing), random instruction streams produce
//! bit-identical results from both engines — the instruction-at-a-time
//! interpreter and the slab engine, the latter across every chunk width.
//! "Bit-identical" covers the full
//! `Result`: `RunStats` (op counts, reductions, `pe_health`), per-PE state
//! including the fault bookkeeping (remap tables, retirement logs, stuck
//! masks ride in `TcamArray`'s `Eq`), data registers, controller buffers —
//! and, on the degradation path, the exact same typed
//! [`FaultError::SparesExhausted`].

use hyperap_arch::machine::BROADCAST_ADDR;
use hyperap_arch::{ApMachine, ArchConfig, FaultConfig, SlabMachine};
use hyperap_isa::{Direction, Instruction};
use hyperap_tcam::{FaultError, FaultModel, KeyBit};
use proptest::prelude::*;

/// Geometry under test: `tiny()` is 2 groups x 4 PEs of 16x64.
const PES: usize = 8;
const ROWS: usize = 16;
const COLS: usize = 64;

/// Chunk widths under test: single-PE chunks, a short tail chunk, and one
/// chunk covering a whole group.
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

/// Fault configurations dense enough that every run actually exercises
/// stuck bits, transient misses, retirements — and sometimes exhaustion.
fn fault_strategy() -> impl Strategy<Value = FaultConfig> {
    (
        any::<u64>(),
        0u32..60_000,
        0u32..40_000,
        (any::<bool>(), 2u64..30),
        0usize..3,
    )
        .prop_map(
            |(seed, stuck, miss, (limited, limit), spares)| FaultConfig {
                model: FaultModel {
                    seed,
                    stuck_per_million: stuck,
                    miss_per_million: miss,
                    endurance_limit: limited.then_some(limit),
                },
                spare_cols: spares,
            },
        )
}

fn build_reference(faults: FaultConfig, loads: &[Load]) -> ApMachine {
    let mut cfg = ArchConfig::tiny();
    cfg.faults = faults;
    let mut m = ApMachine::new(cfg);
    for &(pe, row, col, v) in loads {
        m.pe_mut(pe).load_bit(row, col, v);
    }
    m
}

fn build_slab(faults: FaultConfig, chunk_pes: usize, loads: &[Load]) -> SlabMachine {
    let mut cfg = ArchConfig::tiny();
    cfg.faults = faults;
    let mut m = SlabMachine::with_chunk_pes(cfg, chunk_pes);
    for &(pe, row, col, v) in loads {
        m.load_bit(pe, row, col, v);
    }
    m
}

fn assert_ap_machines_identical(a: &ApMachine, b: &ApMachine) {
    for pe in 0..PES {
        assert_eq!(a.pe(pe), b.pe(pe), "PE {pe} state diverged");
        assert_eq!(
            a.pe(pe).fault(),
            b.pe(pe).fault(),
            "PE {pe} fault bookkeeping diverged"
        );
        assert_eq!(
            a.data_reg(pe),
            b.data_reg(pe),
            "PE {pe} data register diverged"
        );
    }
    assert_eq!(
        a.data_buffers, b.data_buffers,
        "controller data buffers diverged"
    );
}

fn assert_slab_matches_reference(reference: &ApMachine, slab: &SlabMachine) {
    for pe in 0..PES {
        let snapshot = slab.pe_snapshot(pe);
        assert_eq!(reference.pe(pe), &snapshot, "PE {pe} state diverged");
        assert_eq!(
            reference.pe(pe).fault(),
            snapshot.fault(),
            "PE {pe} fault bookkeeping diverged"
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The interpreter is the reference; under an active fault model the
    /// slab engine must match it bit-for-bit at every chunk width (the
    /// name predates the deletion of the third engine): same `Result` —
    /// stats with `pe_health` on `Ok`, the same typed error on exhaustion —
    /// and the same machine state (cells, stuck enforcement, wear, remap
    /// tables) either way.
    #[test]
    fn three_engines_agree_under_seeded_faults(
        faults in fault_strategy(),
        loads in loads_strategy(),
        s0 in prop::collection::vec(inst_strategy(), 0..25),
        s1 in prop::collection::vec(inst_strategy(), 0..25),
    ) {
        let streams = vec![s0, s1];
        let mut reference = build_reference(faults, &loads);
        let ref_result = reference.try_run(&streams);
        for chunk_pes in CHUNK_WIDTHS {
            let mut slab = build_slab(faults, chunk_pes, &loads);
            let slab_result = slab.try_run(&streams);
            prop_assert_eq!(
                &ref_result, &slab_result,
                "slab result diverged with {}-PE chunks", chunk_pes
            );
            assert_slab_matches_reference(&reference, &slab);
        }
    }

    /// Fault bookkeeping must carry across runs identically: epochs advance
    /// (re-rolling the transient-miss pattern), wear accumulates toward
    /// retirement, and the second run picks up whatever remap tables the
    /// first run's endurance service left behind.
    #[test]
    fn engines_agree_across_consecutive_faulty_runs(
        faults in fault_strategy(),
        loads in loads_strategy(),
        first in prop::collection::vec(inst_strategy(), 0..20),
        second in prop::collection::vec(inst_strategy(), 0..20),
    ) {
        let mut reference = build_reference(faults, &loads);
        let mut slab = build_slab(faults, 3, &loads);
        for stream in [&first, &second] {
            let streams = std::slice::from_ref(stream);
            let a = reference.try_run(streams);
            let b = slab.try_run(streams);
            prop_assert_eq!(&a, &b, "slab engine diverged");
            assert_slab_matches_reference(&reference, &slab);
            if a.is_err() {
                break; // both latched the same degradation
            }
        }
    }

    /// The zero-fault configuration must behave exactly like a machine with
    /// no fault plumbing at all: `FaultModel::none()` attaches nothing, and
    /// the runs match a default-config machine bit-for-bit.
    #[test]
    fn inactive_fault_model_is_transparent(
        loads in loads_strategy(),
        s0 in prop::collection::vec(inst_strategy(), 0..25),
    ) {
        let streams = vec![s0.clone(), s0];
        let none = FaultConfig { model: FaultModel::none(), spare_cols: 4 };
        prop_assert!(!none.is_active());
        let mut plain = build_reference(FaultConfig::default(), &loads);
        let mut zeroed = build_reference(none, &loads);
        let a = plain.try_run(&streams);
        let b = zeroed.try_run(&streams);
        prop_assert_eq!(&a, &b);
        assert_ap_machines_identical(&plain, &zeroed);
        prop_assert!(a.unwrap().pe_health.is_empty(), "no health rows without faults");
    }
}

/// A worn column retires onto a spare; when the spares run out the run
/// reports a typed [`FaultError::SparesExhausted`] — identically from both
/// engines — and every later run fails fast with the same error
/// instead of computing wrong results.
#[test]
fn spares_exhaustion_is_typed_identical_and_latched() {
    // Endurance only: encoded writes wear two columns per instruction, so
    // four of them push columns 3 and 4 to the limit in one run.
    let faults = FaultConfig {
        model: FaultModel {
            seed: 1,
            stuck_per_million: 0,
            miss_per_million: 0,
            endurance_limit: Some(4),
        },
        spare_cols: 2,
    };
    let stream: Vec<Instruction> = (0..4)
        .map(|_| Instruction::Write {
            col: 3,
            encode: true,
        })
        .collect();
    let streams = vec![stream.clone(), stream];

    let mut reference = build_reference(faults, &[]);
    let mut slab = build_slab(faults, 3, &[]);

    // First run: columns 3 and 4 blow their endurance budget and retire
    // onto the two spares — degraded but healthy, and every engine reports
    // the same per-PE health rows.
    let a = reference.try_run(&streams).expect("spares cover run 1");
    let b = slab.try_run(&streams).expect("spares cover run 1");
    assert_eq!(a, b);
    assert_eq!(a.pe_health.len(), PES, "every PE retired columns");
    for (i, h) in a.pe_health.iter().enumerate() {
        assert_eq!(h.pe, i);
        assert_eq!(h.spares_left, 0);
        assert_eq!(
            h.retired,
            vec![(3, COLS as u16), (4, COLS as u16 + 1)],
            "PE {i} retired the wrong columns"
        );
    }
    assert_slab_matches_reference(&reference, &slab);

    // Second run: the remapped columns wear out again with no spares left.
    // Global service order is ascending PE, ascending column, so PE 0 /
    // column 3 is the first casualty everywhere.
    let expected = FaultError::SparesExhausted {
        pe: 0,
        col: 3,
        wear: 4,
    };
    let a = reference.try_run(&streams).unwrap_err();
    let b = slab.try_run(&streams).unwrap_err();
    assert_eq!(a, expected);
    assert_eq!(b, expected);
    assert_slab_matches_reference(&reference, &slab);

    // Third run: the failure is latched — every engine fails fast before
    // executing anything, even a trivially healthy stream.
    let idle = vec![vec![Instruction::Count], vec![Instruction::Count]];
    assert_eq!(reference.try_run(&idle).unwrap_err(), expected);
    assert_eq!(slab.try_run(&idle).unwrap_err(), expected);
}

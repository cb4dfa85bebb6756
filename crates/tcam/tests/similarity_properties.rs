//! Property tests for the slab similarity kernels at realistic geometry:
//! `hamming_into`, `hamming_topk` and `hamming_topk_multi` against the
//! scalar per-PE reference (`similarity::scalar_distances` over
//! `TcamSlab::to_array`), the shared `topk_schedule` and a sorted oracle.
//!
//! The shapes reach what the small-geometry equivalence suites do not:
//! 256+ columns (nine counter planes, several 16-plane carry-save groups
//! and a remainder, for plain and `Z` planes alike), row counts that are
//! not a multiple of the counter block, 1–130 PEs (ragged last words, up
//! to three words per row), all four key bits, columns whose plane
//! summaries are `Full`, `AllZero` or `Unknown`, seeded stuck-at faults,
//! and `k` from 1 to past the candidate count.

use hyperap_tcam::array::TcamArray;
use hyperap_tcam::bit::{KeyBit, TernaryBit};
use hyperap_tcam::similarity::{active_entries, scalar_distances, topk_schedule};
use hyperap_tcam::slab::{hamming_topk_multi, SlabHit, TcamSlab};
use hyperap_tcam::FaultModel;
use proptest::prelude::*;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a column is filled: uniform columns give `Full`/`AllZero` plane
/// summaries, mixed ones `Unknown`.
#[derive(Debug, Clone, Copy)]
enum Fill {
    Zeros,
    Ones,
    Xs,
    Binary,
    Ternary,
}

/// How the slab is built: `from_arrays` computes exact plane summaries,
/// `set_cell` on a fresh slab keeps them conservative.
#[derive(Debug, Clone, Copy)]
enum Build {
    FromArrays,
    SetCell,
}

/// One stored slab: geometry, per-column fills and an optional fault
/// model, with cell contents drawn from `seed`.
#[derive(Debug, Clone)]
struct Shape {
    pes: usize,
    rows: usize,
    cols: usize,
    fills: Vec<Fill>,
    build: Build,
    faults: Option<FaultModel>,
    seed: u64,
}

fn fill() -> impl Strategy<Value = Fill> {
    prop_oneof![
        Just(Fill::Zeros),
        Just(Fill::Ones),
        Just(Fill::Xs),
        Just(Fill::Binary),
        Just(Fill::Binary),
        Just(Fill::Ternary),
    ]
}

fn key_bit() -> impl Strategy<Value = KeyBit> {
    prop_oneof![
        Just(KeyBit::Zero),
        Just(KeyBit::One),
        Just(KeyBit::Z),
        Just(KeyBit::Masked)
    ]
}

fn shape() -> impl Strategy<Value = Shape> {
    (
        (1usize..=130, 1usize..=11, 256usize..=290),
        prop::collection::vec(fill(), 290),
        prop_oneof![Just(Build::FromArrays), Just(Build::SetCell)],
        (any::<bool>(), any::<u64>()),
    )
        .prop_map(|((pes, rows, cols), mut fills, build, (faulty, seed))| {
            fills.truncate(cols);
            Shape {
                pes,
                rows,
                cols,
                fills,
                build,
                faults: faulty.then_some(FaultModel {
                    seed: seed ^ 0xFA17,
                    stuck_per_million: 20_000,
                    // Transient misses never touch distances.
                    miss_per_million: 200_000,
                    endurance_limit: None,
                }),
                seed,
            }
        })
}

/// A plan over every column and a few past the last one; `sparse` masks
/// all but about one entry in 32, so the counter stack has fewer planes
/// than the carry-save residues.
fn plan() -> impl Strategy<Value = Vec<(usize, KeyBit)>> {
    (
        prop::collection::vec(key_bit(), 296),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(bits, sparse, mut state)| {
            bits.into_iter()
                .enumerate()
                .map(|(col, bit)| {
                    let keep = !sparse || splitmix(&mut state).is_multiple_of(32);
                    (col, if keep { bit } else { KeyBit::Masked })
                })
                .collect()
        })
}

fn build(shape: &Shape) -> TcamSlab {
    let mut state = shape.seed;
    let mut cell = |fill: Fill| match fill {
        Fill::Zeros => TernaryBit::Zero,
        Fill::Ones => TernaryBit::One,
        Fill::Xs => TernaryBit::X,
        Fill::Binary if splitmix(&mut state) & 1 == 0 => TernaryBit::Zero,
        Fill::Binary => TernaryBit::One,
        Fill::Ternary => match splitmix(&mut state) % 3 {
            0 => TernaryBit::Zero,
            1 => TernaryBit::One,
            _ => TernaryBit::X,
        },
    };
    match shape.build {
        Build::FromArrays => {
            let arrays: Vec<TcamArray> = (0..shape.pes)
                .map(|pe| {
                    let mut a = TcamArray::new(shape.rows, shape.cols);
                    if let Some(model) = shape.faults {
                        a.attach_fault(model, 2, pe);
                    }
                    for row in 0..shape.rows {
                        for (col, &f) in shape.fills.iter().enumerate() {
                            a.set_cell(row, col, cell(f));
                        }
                    }
                    a
                })
                .collect();
            TcamSlab::from_arrays(&arrays)
        }
        Build::SetCell => {
            let mut slab = TcamSlab::new(shape.pes, shape.rows, shape.cols);
            if let Some(model) = shape.faults {
                slab.attach_fault(model, 2, 0);
            }
            for pe in 0..shape.pes {
                for row in 0..shape.rows {
                    for (col, &f) in shape.fills.iter().enumerate() {
                        slab.set_cell(pe, row, col, cell(f));
                    }
                }
            }
            slab
        }
    }
}

/// Reference distances in the `hamming_into` layout (`pe * rows + row`).
fn reference(slab: &TcamSlab, plan: &[(usize, KeyBit)], rows: usize) -> Vec<u32> {
    (0..slab.pes())
        .flat_map(|pe| scalar_distances(&slab.to_array(pe), plan, rows))
        .collect()
}

/// Plan entries whose miss plane over the whole slab is neither empty nor
/// full: the columns exact summaries cannot prune.
fn unprunable(slab: &TcamSlab, plan: &[(usize, KeyBit)]) -> usize {
    let arrays: Vec<TcamArray> = (0..slab.pes()).map(|pe| slab.to_array(pe)).collect();
    let cells = |col: usize| {
        arrays
            .iter()
            .flat_map(move |a| (0..a.rows()).map(move |row| a.cell(row, col)))
    };
    let all = |col: usize, v: TernaryBit| cells(col).all(|c| c == v);
    let none = |col: usize, v: TernaryBit| cells(col).all(|c| c != v);
    plan.iter()
        .filter(|&&(col, bit)| col < slab.cols() && bit != KeyBit::Masked)
        .filter(|&&(col, bit)| match bit {
            KeyBit::Zero => !(all(col, TernaryBit::One) || none(col, TernaryBit::One)),
            KeyBit::One => !(all(col, TernaryBit::Zero) || none(col, TernaryBit::Zero)),
            _ => {
                let full = all(col, TernaryBit::Zero) || all(col, TernaryBit::One);
                !(full || all(col, TernaryBit::X))
            }
        })
        .count()
}

/// The first `min(k, n)` candidates sorted by `(distance, pe, row)`.
fn sorted_oracle(all: &[u32], rows: usize, k: usize) -> Vec<SlabHit> {
    let mut hits: Vec<SlabHit> = all
        .iter()
        .enumerate()
        .map(|(i, &distance)| SlabHit {
            distance,
            pe: (i / rows) as u32,
            row: (i % rows) as u32,
        })
        .collect();
    hits.sort_unstable();
    hits.truncate(k);
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn slab_distances_and_topk_match_scalar_reference(
        shape in shape(),
        plan in plan(),
        row_cut in 0usize..11,
        ks in (1usize..=32, 0usize..=1500),
    ) {
        let slab = build(&shape);
        let rows = shape.rows - row_cut % shape.rows;
        let all = reference(&slab, &plan, rows);
        let mut got = vec![u32::MAX; shape.pes * rows];
        slab.hamming_into(&plan, rows, &mut got);
        prop_assert_eq!(&got, &all, "distances, {:?}", shape);

        let active = active_entries(&plan, shape.cols);
        let accumulated = slab.hamming_accumulated_cols(&plan, rows);
        prop_assert!(accumulated <= active as usize);
        if let (Build::FromArrays, None) = (shape.build, shape.faults) {
            // Exact summaries prune exactly the uniform miss planes.
            prop_assert_eq!(accumulated, unprunable(&slab, &plan));
        }

        let candidates = shape.pes * rows;
        for k in [1, ks.0, ks.1.max(1), candidates, candidates + 3] {
            let topk = slab.hamming_topk(&plan, rows, k);
            let sched = topk_schedule(&all, active, k);
            prop_assert_eq!(topk.rounds, sched.rounds, "k = {}", k);
            prop_assert_eq!(topk.tau, sched.tau, "k = {}", k);
            prop_assert_eq!(topk.active, active);
            prop_assert_eq!(topk.hits, sorted_oracle(&all, rows, k), "k = {}", k);
        }
    }

    #[test]
    fn split_slabs_search_as_one(
        shape in shape(),
        plan in plan(),
        split in 1usize..130,
        k in 1usize..=64,
    ) {
        // Two slabs holding the PEs below and above `split` answer, with
        // offset PE indices, exactly what the whole slab answers.
        let whole = build(&shape);
        let split = split.min(shape.pes);
        let arrays: Vec<TcamArray> = (0..shape.pes).map(|pe| whole.to_array(pe)).collect();
        let (lo, hi) = arrays.split_at(split);
        let mut parts = vec![(TcamSlab::from_arrays(lo), 0)];
        if !hi.is_empty() {
            parts.push((TcamSlab::from_arrays(hi), split));
        }
        let parts: Vec<(&TcamSlab, usize)> = parts.iter().map(|(s, o)| (s, *o)).collect();
        let rows = shape.rows;
        prop_assert_eq!(
            hamming_topk_multi(&parts, &plan, rows, k),
            whole.hamming_topk(&plan, rows, k)
        );
    }
}

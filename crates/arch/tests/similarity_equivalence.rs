//! Property tests for the CAM-native similarity API: random stored state
//! (host loads plus a short architectural write prologue that plants `X`
//! cells), random ternary queries, and random `(rows, k)` shapes must
//! produce bit-identical top-k hits *and* `RunStats` from the scalar
//! per-PE interpreter ([`ApMachine`]) and the word-parallel slab engine
//! ([`SlabMachine`]) — the latter over chunk widths that exercise
//! single-PE chunks, short tail chunks, and whole-group chunks, and
//! under a seeded fault model (stuck-at cells must perturb
//! distances identically; transient search misses must not perturb them
//! at all).

use hyperap_arch::{ApMachine, ArchConfig, FaultConfig, FaultModel, SlabMachine};
use hyperap_isa::Instruction;
use hyperap_tcam::key::SearchKey;
use hyperap_tcam::similarity as sim;
use hyperap_tcam::KeyBit;
use proptest::prelude::*;

/// Geometry under test: `tiny()` is 2 groups × 4 PEs of 16×64.
const PES: usize = 8;
const ROWS: usize = 16;
const COLS: usize = 64;

/// Chunk widths under test: single-PE chunks, a short tail chunk (4 PEs
/// per group in chunks of 3), and one chunk covering the whole group.
const CHUNK_WIDTHS: [usize; 3] = [1, 3, 4];

/// A seeded fault model dense enough that stuck cells actually land in
/// the 8×16×64 fixture, with live transient misses to prove distance
/// queries ignore them.
fn fault_model() -> FaultConfig {
    FaultConfig {
        model: FaultModel {
            seed: 0x51AB_u64 ^ 0xFA17,
            stuck_per_million: 60_000,
            miss_per_million: 40_000,
            endurance_limit: None,
        },
        spare_cols: 2,
    }
}

fn keybit(b: u8) -> KeyBit {
    match b {
        0 => KeyBit::Zero,
        1 => KeyBit::One,
        2 => KeyBit::Z,
        _ => KeyBit::Masked,
    }
}

type Load = (usize, usize, usize, bool);

fn loads_strategy() -> impl Strategy<Value = Vec<Load>> {
    prop::collection::vec(
        (0usize..PES, 0usize..ROWS, 0usize..COLS, any::<bool>()),
        0..96,
    )
}

/// A short SetKey/Search/Write prologue: architectural writes are the only
/// way stored `X` cells appear in a machine, so queries see all three
/// stored states.
fn prologue_strategy() -> impl Strategy<Value = Vec<Instruction>> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(0u8..4, COLS).prop_map(|bits| Instruction::SetKey {
                key: bits.iter().map(|&b| keybit(b)).collect(),
            }),
            (any::<bool>(), any::<bool>())
                .prop_map(|(acc, encode)| Instruction::Search { acc, encode }),
            (0u8..(COLS as u8 - 1), any::<bool>())
                .prop_map(|(col, encode)| Instruction::Write { col, encode }),
        ],
        0..12,
    )
}

fn query_strategy() -> impl Strategy<Value = SearchKey> {
    prop::collection::vec(0u8..4, COLS)
        .prop_map(|bits| bits.iter().map(|&b| keybit(b)).collect::<SearchKey>())
}

fn config(faulty: bool) -> ArchConfig {
    let mut cfg = ArchConfig::tiny();
    cfg.faults = if faulty {
        fault_model()
    } else {
        FaultConfig::default()
    };
    cfg
}

fn build_ap(loads: &[Load], prologue: &[Instruction], faulty: bool) -> ApMachine {
    let mut m = ApMachine::new(config(faulty));
    for &(pe, row, col, v) in loads {
        m.pe_mut(pe).load_bit(row, col, v);
    }
    if !prologue.is_empty() {
        let streams = vec![prologue.to_vec(), prologue.to_vec()];
        m.run(&streams);
    }
    m
}

fn build_slab(
    chunk_pes: usize,
    loads: &[Load],
    prologue: &[Instruction],
    faulty: bool,
) -> SlabMachine {
    let mut m = SlabMachine::with_chunk_pes(config(faulty), chunk_pes);
    for &(pe, row, col, v) in loads {
        m.load_bit(pe, row, col, v);
    }
    if !prologue.is_empty() {
        let streams = vec![prologue.to_vec(), prologue.to_vec()];
        m.run(&streams);
    }
    m
}

/// The from-first-principles oracle: scalar distances per PE array plus
/// the shared schedule, computed without either engine's top-k machinery.
fn oracle_topk(
    reference: &ApMachine,
    query: &SearchKey,
    rows: usize,
    k: usize,
) -> Vec<(u32, u32, u32)> {
    let plan = query.compile_plan();
    let mut all: Vec<(u32, u32, u32)> = Vec::new();
    for pe in 0..PES {
        for (row, d) in sim::scalar_distances(reference.pe(pe).array(), &plan, rows)
            .into_iter()
            .enumerate()
        {
            all.push((d, pe as u32, row as u32));
        }
    }
    all.sort_unstable();
    all.truncate(k);
    all
}

proptest! {
    /// Slab word-parallel top-k equals the scalar per-PE engine — hits and
    /// stats — under every chunk width, fault-free and under seeded
    /// stuck/miss faults, and both equal the from-first-principles oracle.
    #[test]
    fn similarity_query_is_engine_invariant(
        loads in loads_strategy(),
        prologue in prologue_strategy(),
        query in query_strategy(),
        rows in 1usize..=ROWS,
        k in (0usize..5).prop_map(|i| [1usize, 2, 5, 40, 200][i]),
        faulty in any::<bool>(),
    ) {
        let reference = build_ap(&loads, &prologue, faulty);
        let want = reference.hamming_topk(&query, rows, k);
        let oracle = oracle_topk(&reference, &query, rows, k);
        let got: Vec<(u32, u32, u32)> =
            want.hits.iter().map(|h| (h.distance, h.pe, h.row)).collect();
        prop_assert_eq!(got, oracle, "scalar engine diverged from oracle");
        prop_assert!(
            want.hits.capacity() <= 2 * k,
            "scalar answer keeps capacity {} for k = {}", want.hits.capacity(), k
        );
        for chunk_pes in CHUNK_WIDTHS {
            let slab = build_slab(chunk_pes, &loads, &prologue, faulty);
            let got = slab.hamming_topk(&query, rows, k);
            prop_assert!(
                got.hits.capacity() <= 2 * k,
                "slab answer keeps capacity {} for k = {}", got.hits.capacity(), k
            );
            prop_assert_eq!(
                &want.hits, &got.hits,
                "hits diverged with {}-PE chunks (faulty={})", chunk_pes, faulty
            );
            prop_assert_eq!(
                &want.stats, &got.stats,
                "stats diverged with {}-PE chunks (faulty={})", chunk_pes, faulty
            );
        }
    }

    /// `nearest` is `hamming_topk` with `k = 1` on both engines, and a
    /// zero-distance winner exists exactly when a plain architectural
    /// search of the same key would tag a row (fault-free machines).
    #[test]
    fn nearest_matches_topk1_and_search(
        loads in loads_strategy(),
        query in query_strategy(),
    ) {
        let reference = build_ap(&loads, &[], false);
        let near = reference.nearest(&query, ROWS);
        prop_assert_eq!(&near, &reference.hamming_topk(&query, ROWS, 1));
        let slab = build_slab(3, &loads, &[], false);
        prop_assert_eq!(&near, &slab.nearest(&query, ROWS));
        // Cross-check the zero-distance criterion against the search
        // algebra: distance 0 ⇔ every unmasked key bit matches.
        if let Some(best) = near.best() {
            let plan = query.compile_plan();
            let d = sim::scalar_distances(
                reference.pe(best.pe as usize).array(), &plan, ROWS,
            )[best.row as usize];
            prop_assert_eq!(best.distance, d);
            let matches = plan.iter().all(|&(col, bit)| {
                col >= COLS
                    || bit == KeyBit::Masked
                    || bit.matches(reference.pe(best.pe as usize).array().cell(best.row as usize, col))
            });
            prop_assert_eq!(best.distance == 0, matches);
        }
    }
}

/// Transient search misses change architectural searches but must leave
/// similarity distances untouched: the same stored state queried with and
/// without a miss-only fault model gives identical outcomes.
#[test]
fn transient_misses_do_not_perturb_distances() {
    let miss_only = FaultConfig {
        model: FaultModel {
            seed: 0xB1A5,
            stuck_per_million: 0,
            miss_per_million: 300_000,
            endurance_limit: None,
        },
        spare_cols: 0,
    };
    let loads: Vec<Load> = (0..PES)
        .flat_map(|pe| (0..ROWS).map(move |row| (pe, row, (pe * 7 + row) % COLS, true)))
        .collect();
    let mut ideal = ApMachine::new(config(false));
    let mut cfg = config(false);
    cfg.faults = miss_only;
    let mut missy = ApMachine::new(cfg.clone());
    let mut missy_slab = SlabMachine::with_chunk_pes(cfg, 3);
    for &(pe, row, col, v) in &loads {
        ideal.pe_mut(pe).load_bit(row, col, v);
        missy.pe_mut(pe).load_bit(row, col, v);
        missy_slab.load_bit(pe, row, col, v);
    }
    let query = SearchKey::parse(&"1-0".repeat(COLS / 3)).unwrap();
    let want = ideal.hamming_topk(&query, ROWS, 5);
    assert_eq!(want, missy.hamming_topk(&query, ROWS, 5));
    assert_eq!(want.hits, missy_slab.hamming_topk(&query, ROWS, 5).hits);
}

//! Property test for the slab engine's host I/O path: per-cell loads
//! (`load_bit`, `load_encoded_pair`) followed by a run and a
//! `pe_snapshot` readback agree with the `ApMachine` oracle and with the
//! slab's own per-cell reads, cell for cell. Groups are wider than one
//! 64-PE word (so chunks have a partial tail word), row counts sit on both
//! sides of every 64-row block boundary, the run leaves wear and `X`
//! cells behind, and half the cases attach a seeded fault model.

use hyperap_arch::{ApMachine, ArchConfig, FaultConfig, SlabMachine};
use hyperap_isa::Instruction;
use hyperap_tcam::{FaultModel, KeyBit, SearchKey};
use proptest::prelude::*;

const ROW_COUNTS: [usize; 6] = [1, 63, 64, 65, 130, 256];
const COLS: usize = 8;

/// Two groups of 100 PEs (10 × 10), so a whole-group chunk spans two
/// 64-PE words with a 36-lane tail.
fn config(rows: usize, faults: Option<u64>) -> ArchConfig {
    let mut cfg = ArchConfig::tiny();
    cfg.subarrays_per_bank = 10;
    cfg.pes_per_subarray = 10;
    cfg.rows = rows;
    cfg.cols = COLS;
    cfg.faults = match faults {
        Some(seed) => FaultConfig {
            model: FaultModel {
                seed,
                stuck_per_million: 60_000,
                miss_per_million: 20_000,
                endurance_limit: None,
            },
            spare_cols: 1,
        },
        None => FaultConfig::default(),
    };
    cfg
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn key(bits: &[u8]) -> Instruction {
    Instruction::SetKey {
        key: SearchKey::from_bits(
            bits.iter()
                .map(|b| match b {
                    0 => KeyBit::Zero,
                    1 => KeyBit::One,
                    2 => KeyBit::Z,
                    _ => KeyBit::Masked,
                })
                .collect(),
        ),
    }
}

/// Chunk widths under test: 64 gives two one-word chunks per group (the
/// contiguous gather), 70 a two-word chunk and a one-word tail chunk,
/// 100 one chunk per group with a 36-lane tail word, 128 the default.
const CHUNK_WIDTHS: [usize; 4] = [64, 70, 100, 128];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn pe_snapshot_matches_oracle_and_per_cell_reads(
        seed in any::<u64>(),
        faulty in any::<bool>(),
        search in prop::collection::vec(0u8..4, COLS),
        write in prop::collection::vec(0u8..4, COLS),
        write_col in 0u8..COLS as u8 - 1,
    ) {
        // A search, then plain and encoded writes: wear, `X` cells
        // (`Z` key bits write `X`) and latch state.
        let stream = vec![
            key(&search),
            Instruction::Search { acc: false, encode: true },
            key(&write),
            Instruction::Write { col: write_col, encode: false },
            Instruction::Write { col: write_col, encode: true },
            Instruction::Write { col: 6, encode: false },
        ];
        let streams = vec![stream.clone(), stream];
        for rows in ROW_COUNTS {
            let cfg = config(rows, faulty.then_some(seed));
            let pes = cfg.total_pes();
            // Plain bits in columns 0..4, an encoded pair in columns 4-5.
            let mut state = seed ^ rows as u64;
            let loads: Vec<(usize, usize, u64)> = (0..pes)
                .flat_map(|pe| (0..rows).map(move |row| (pe, row)))
                .map(|(pe, row)| (pe, row, splitmix(&mut state)))
                .collect();
            let bit = |r: u64, i: usize| r >> i & 1 == 1;
            let mut oracle = ApMachine::new(cfg.clone());
            for &(pe, row, r) in &loads {
                for col in 0..4 {
                    oracle.pe_mut(pe).load_bit(row, col, bit(r, col));
                }
                oracle.pe_mut(pe).load_encoded_pair(row, 4, bit(r, 4), bit(r, 5));
            }
            let expected = oracle.try_run(&streams);
            for chunk_pes in CHUNK_WIDTHS {
                let mut slab = SlabMachine::with_chunk_pes(cfg.clone(), chunk_pes);
                for &(pe, row, r) in &loads {
                    for col in 0..4 {
                        slab.load_bit(pe, row, col, bit(r, col));
                    }
                    slab.load_encoded_pair(pe, row, 4, bit(r, 4), bit(r, 5));
                }
                prop_assert_eq!(&slab.try_run(&streams), &expected);
                for pe in 0..pes {
                    let snap = slab.pe_snapshot(pe);
                    prop_assert_eq!(
                        oracle.pe(pe), &snap, "rows {} width {} pe {}", rows, chunk_pes, pe);
                    for row in 0..rows {
                        for col in 0..COLS {
                            prop_assert_eq!(
                                snap.read_bit(row, col), slab.read_bit(pe, row, col),
                                "rows {} width {} pe {} row {} col {}",
                                rows, chunk_pes, pe, row, col);
                        }
                        prop_assert_eq!(
                            snap.try_read_encoded_pair(row, 4),
                            slab.try_read_encoded_pair(pe, row, 4));
                    }
                }
            }
        }
    }
}

//! Property-based tests: the slab arena with its fused multi-PE kernels is
//! observationally equivalent to a `Vec` of per-PE [`TcamArray`]s driven one
//! at a time, and the conversion / plane-image paths round-trip losslessly.
//! Searches and writes run through `TcamSlab::sweep_program`, the slab's
//! one search/write kernel: as one-op programs next to the other kernels,
//! and as whole random programs in `sweeps`.

use hyperap_tcam::array::TcamArray;
use hyperap_tcam::bit::{KeyBit, TernaryBit};
use hyperap_tcam::key::SearchKey;
use hyperap_tcam::slab::{pe_range_mask, SweepOp, TagSlab, TcamSlab};
use hyperap_tcam::tags::TagVector;
use hyperap_tcam::FaultModel;
use proptest::prelude::*;

const PES: usize = 5;
const ROWS: usize = 70; // spans a partial tail block
const COLS: usize = 8;

fn ternary_bit() -> impl Strategy<Value = TernaryBit> {
    prop_oneof![
        Just(TernaryBit::Zero),
        Just(TernaryBit::One),
        Just(TernaryBit::X)
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

/// One search step through `sweep_program`: the selected lanes of `out`
/// take `plan`'s matches.
fn sweep_search(
    slab: &mut TcamSlab,
    plan: &[(usize, KeyBit)],
    sel: Option<&[u64]>,
    out: &mut [u64],
) {
    let op = SweepOp {
        plans: &[plan],
        acc: false,
        writes: &[],
    };
    slab.sweep_program(&[op], out, sel);
}

/// One write step through `sweep_program`: program `value` into column
/// `col` under the selected lanes of `tags`.
fn sweep_write(
    slab: &mut TcamSlab,
    col: usize,
    value: TernaryBit,
    tags: &[u64],
    sel: Option<&[u64]>,
) {
    let op = SweepOp {
        plans: &[],
        acc: true,
        writes: &[(col, value)],
    };
    slab.sweep_program(&[op], &mut tags.to_vec(), sel);
}

/// One random kernel invocation against the slab.
#[derive(Debug, Clone)]
enum SlabOp {
    Search {
        bits: Vec<KeyBit>,
        lo: usize,
        hi: usize,
    },
    Write {
        col: usize,
        value: TernaryBit,
        tags: Vec<bool>,
        lo: usize,
        hi: usize,
    },
    Encoded {
        col: usize,
        latch: Vec<bool>,
        tags: Vec<bool>,
        lo: usize,
        hi: usize,
    },
    SetCell {
        pe: usize,
        row: usize,
        col: usize,
        value: TernaryBit,
    },
    /// One fused sweep — a search chain plus conditional writes — checked
    /// against the unfused per-array sequence: searches,
    /// OR-accumulation, then column writes.
    Fused {
        keys: Vec<Vec<KeyBit>>,
        acc: bool,
        writes: Vec<(usize, TernaryBit)>,
        tags: Vec<bool>,
        lo: usize,
        hi: usize,
    },
}

fn pe_range() -> impl Strategy<Value = (usize, usize)> {
    (0..PES, 0..PES).prop_map(|(a, b)| (a.min(b), a.max(b) + 1))
}

/// PE-selection mask for the range `lo..hi` — `None` when the range covers
/// every PE, mirroring how the architecture layer drives full chunks.
fn sel_for(lo: usize, hi: usize) -> Option<Vec<u64>> {
    if (lo, hi) == (0, PES) {
        None
    } else {
        Some(pe_range_mask(PES, lo, hi))
    }
}

fn slab_op() -> impl Strategy<Value = SlabOp> {
    prop_oneof![
        (prop::collection::vec(key_bit(), COLS), pe_range())
            .prop_map(|(bits, (lo, hi))| SlabOp::Search { bits, lo, hi }),
        (
            0..COLS,
            ternary_bit(),
            prop::collection::vec(any::<bool>(), ROWS),
            pe_range()
        )
            .prop_map(|(col, value, tags, (lo, hi))| SlabOp::Write {
                col,
                value,
                tags,
                lo,
                hi
            }),
        (
            0..COLS - 1,
            prop::collection::vec(any::<bool>(), ROWS),
            prop::collection::vec(any::<bool>(), ROWS),
            pe_range()
        )
            .prop_map(|(col, latch, tags, (lo, hi))| SlabOp::Encoded {
                col,
                latch,
                tags,
                lo,
                hi
            }),
        (0..PES, 0..ROWS, 0..COLS, ternary_bit()).prop_map(|(pe, row, col, value)| {
            SlabOp::SetCell {
                pe,
                row,
                col,
                value,
            }
        }),
        (
            prop::collection::vec(prop::collection::vec(key_bit(), COLS), 0..3),
            any::<bool>(),
            prop::collection::vec((0..COLS, ternary_bit()), 0..3),
            prop::collection::vec(any::<bool>(), ROWS),
            pe_range()
        )
            .prop_map(|(keys, acc, writes, tags, (lo, hi))| SlabOp::Fused {
                keys,
                acc,
                writes,
                tags,
                lo,
                hi
            }),
    ]
}

fn tag_slab_from(bools: &[bool], lo: usize, hi: usize) -> TagSlab {
    let mut t = TagSlab::zeros(PES, ROWS);
    for pe in lo..hi {
        let tv = bools
            .iter()
            .enumerate()
            .map(|(r, &b)| b ^ (pe % 2 == 0 && r % 5 == 0))
            .collect();
        t.set_pe(pe, &tv);
    }
    t
}

proptest! {
    /// Replay a random kernel stream against both the slab and a vector of
    /// per-PE reference arrays; state (cells and wear) must stay identical
    /// and every search must produce the per-array result for each PE.
    #[test]
    fn slab_kernels_equal_per_array_ops(
        ops in prop::collection::vec(slab_op(), 1..25),
    ) {
        let mut slab = TcamSlab::new(PES, ROWS, COLS);
        let mut arrays: Vec<TcamArray> = (0..PES).map(|_| TcamArray::new(ROWS, COLS)).collect();
        for op in &ops {
            match op {
                SlabOp::Search { bits, lo, hi } => {
                    let key = SearchKey::from_bits(bits.clone());
                    let plan = key.compile_plan();
                    let mut out = TagSlab::zeros(PES, ROWS);
                    let sel = sel_for(*lo, *hi);
                    sweep_search(&mut slab, &plan, sel.as_deref(), out.words_mut());
                    for (pe, array) in arrays.iter().enumerate().take(*hi).skip(*lo) {
                        prop_assert_eq!(out.to_tagvector(pe), array.search(&key), "pe {}", pe);
                    }
                }
                SlabOp::Write { col, value, tags, lo, hi } => {
                    let t = tag_slab_from(tags, *lo, *hi);
                    let sel = sel_for(*lo, *hi);
                    sweep_write(&mut slab, *col, *value, t.words(), sel.as_deref());
                    for (pe, array) in arrays.iter_mut().enumerate().take(*hi).skip(*lo) {
                        array.write_column(*col, *value, &t.to_tagvector(pe));
                    }
                }
                SlabOp::Encoded { col, latch, tags, lo, hi } => {
                    let h = tag_slab_from(latch, *lo, *hi);
                    let t = tag_slab_from(tags, *lo, *hi);
                    let sel = sel_for(*lo, *hi);
                    slab.write_encoded_multi(*col, h.words(), t.words(), sel.as_deref());
                    for (pe, array) in arrays.iter_mut().enumerate().take(*hi).skip(*lo) {
                        let (hv, tv) = (h.to_tagvector(pe), t.to_tagvector(pe));
                        for row in 0..ROWS {
                            let cells =
                                hyperap_tcam::encoding::encode_pair(hv.get(row), tv.get(row));
                            array.set_cell(row, *col, cells[0]);
                            array.set_cell(row, *col + 1, cells[1]);
                        }
                        array.note_write(*col);
                        array.note_write(*col + 1);
                    }
                }
                SlabOp::SetCell { pe, row, col, value } => {
                    slab.set_cell(*pe, *row, *col, *value);
                    arrays[*pe].set_cell(*row, *col, *value);
                }
                SlabOp::Fused { keys, acc, writes, tags, lo, hi } => {
                    let plans: Vec<Vec<(usize, KeyBit)>> = keys
                        .iter()
                        .map(|bits| SearchKey::from_bits(bits.clone()).compile_plan())
                        .collect();
                    let refs: Vec<&[(usize, KeyBit)]> =
                        plans.iter().map(|p| p.as_slice()).collect();
                    let mut t = tag_slab_from(tags, *lo, *hi);
                    let sel = sel_for(*lo, *hi);
                    let op = SweepOp { plans: &refs, acc: *acc, writes };
                    slab.sweep_program(&[op], t.words_mut(), sel.as_deref());
                    let init = tag_slab_from(tags, *lo, *hi);
                    for (pe, array) in arrays.iter_mut().enumerate().take(*hi).skip(*lo) {
                        // Unfused reference: search every plan, OR into the
                        // (kept or cleared) tags, then write the columns.
                        let mut expected = if *acc {
                            init.to_tagvector(pe)
                        } else {
                            TagVector::zeros(ROWS)
                        };
                        for bits in keys {
                            let m = array.search(&SearchKey::from_bits(bits.clone()));
                            for (a, b) in expected.blocks_mut().iter_mut().zip(m.blocks()) {
                                *a |= b;
                            }
                        }
                        for &(col, value) in writes {
                            array.write_column(col, value, &expected);
                        }
                        prop_assert_eq!(t.to_tagvector(pe), expected, "fused tags, pe {}", pe);
                    }
                }
            }
        }
        prop_assert_eq!(slab.to_arrays(), arrays.clone());
        prop_assert_eq!(TcamSlab::from_arrays(&arrays), slab);
    }

    /// `from_arrays` ⇄ `to_arrays` is lossless for arbitrary cell contents
    /// and wear profiles.
    #[test]
    fn conversion_round_trips(
        cells in prop::collection::vec(
            prop::collection::vec(ternary_bit(), ROWS * COLS), PES),
        wear_writes in prop::collection::vec((0..COLS, any::<bool>()), 0..12),
    ) {
        let mut arrays: Vec<TcamArray> = (0..PES).map(|_| TcamArray::new(ROWS, COLS)).collect();
        for (pe, flat) in cells.iter().enumerate() {
            for (i, v) in flat.iter().enumerate() {
                arrays[pe].set_cell(i / COLS, i % COLS, *v);
            }
        }
        for (col, upper_half) in &wear_writes {
            let lo = if *upper_half { PES / 2 } else { 0 };
            for array in &mut arrays[lo..] {
                array.note_write(*col);
            }
        }
        let slab = TcamSlab::from_arrays(&arrays);
        prop_assert_eq!(slab.to_arrays(), arrays);
    }

    /// The plane image round-trips, including wear state.
    #[test]
    fn byte_image_round_trips(
        cells in prop::collection::vec(ternary_bit(), PES * ROWS),
        worn_col in 0..COLS,
    ) {
        let mut slab = TcamSlab::new(PES, ROWS, COLS);
        for (i, v) in cells.iter().enumerate() {
            slab.set_cell(i / ROWS, i % ROWS, (i * 3) % COLS, *v);
        }
        let tags = TagSlab::zeros(PES, ROWS);
        sweep_write(&mut slab, worn_col, TernaryBit::X, tags.words(), None);
        let mut image = Vec::new();
        slab.write_plane_image(&mut image);
        let mut buf = image.as_slice();
        prop_assert_eq!(TcamSlab::read_plane_image(&mut buf), Ok(slab));
        prop_assert!(buf.is_empty());
    }

    /// The tag-register plane round-trips for arbitrary contents.
    /// Tags, the encoder latch, and the data registers all share the
    /// `TagSlab` format, so one register file is exercised directly and a
    /// second through the engine's latch path (`copy_from_masked`).
    #[test]
    fn tag_byte_image_round_trips(
        bits in prop::collection::vec(prop::collection::vec(any::<bool>(), ROWS), PES),
        salt in 0usize..7,
    ) {
        let mut tags = TagSlab::zeros(PES, ROWS);
        for (pe, bools) in bits.iter().enumerate() {
            let tv = bools
                .iter()
                .enumerate()
                .map(|(r, &b)| b ^ ((r + salt) % 3 == 0))
                .collect();
            tags.set_pe(pe, &tv);
        }
        let mut latch = TagSlab::zeros(PES, ROWS);
        latch.copy_from_masked(&tags, None);
        let mut image = Vec::new();
        tags.write_plane(&mut image);
        latch.write_plane(&mut image);
        let mut buf = image.as_slice();
        prop_assert_eq!(TagSlab::read_plane(&mut buf, PES, ROWS), Ok(tags));
        prop_assert_eq!(TagSlab::read_plane(&mut buf, PES, ROWS), Ok(latch));
        prop_assert!(buf.is_empty());
    }
}

/// Wider-than-one-word geometry (67 PEs), ragged non-contiguous selection
/// masks, and an optional seeded fault model: the word-parallel kernels
/// must still match the per-PE reference arrays bit for bit.
mod wide {
    use super::*;

    const WPES: usize = 67; // spans a partial tail word
    const WROWS: usize = 70;
    const WCOLS: usize = 6;

    /// A ragged selection: PE `p` is active when bit `p % 8` of `pattern`
    /// is set. `pattern == 0xFF` means all PEs (kernel `sel = None`).
    fn ragged_sel(pattern: u8) -> Option<Vec<u64>> {
        if pattern == 0xFF {
            return None;
        }
        let mut m = vec![0u64; WPES.div_ceil(64)];
        for pe in 0..WPES {
            if pattern >> (pe % 8) & 1 != 0 {
                m[pe / 64] |= 1u64 << (pe % 64);
            }
        }
        Some(m)
    }

    fn selected(pattern: u8, pe: usize) -> bool {
        pattern == 0xFF || pattern >> (pe % 8) & 1 != 0
    }

    fn tag_slab_wide(bools: &[bool]) -> TagSlab {
        let mut t = TagSlab::zeros(WPES, WROWS);
        for pe in 0..WPES {
            let tv = bools
                .iter()
                .enumerate()
                .map(|(r, &b)| b ^ ((pe + r) % 3 == 0))
                .collect();
            t.set_pe(pe, &tv);
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn wide_slab_kernels_equal_per_array_ops(
            faulty in any::<bool>(),
            ops in prop::collection::vec(
                (
                    (
                        prop::collection::vec(key_bit(), WCOLS),
                        0..WCOLS,
                        ternary_bit(),
                    ),
                    (
                        prop::collection::vec(any::<bool>(), WROWS),
                        any::<u8>(),
                        any::<bool>(),
                    ),
                ),
                1..8,
            ),
        ) {
            let mut slab = TcamSlab::new(WPES, WROWS, WCOLS);
            let mut arrays: Vec<TcamArray> =
                (0..WPES).map(|_| TcamArray::new(WROWS, WCOLS)).collect();
            if faulty {
                let model = FaultModel {
                    seed: 0x5EED_1234,
                    stuck_per_million: 30_000,
                    miss_per_million: 20_000,
                    endurance_limit: None,
                };
                slab.attach_fault(model, 1, 0);
                for (pe, array) in arrays.iter_mut().enumerate() {
                    array.attach_fault(model, 1, pe);
                }
            }
            for ((bits, col, value), (tags, pattern, fused)) in &ops {
                let key = SearchKey::from_bits(bits.clone());
                let plan = key.compile_plan();
                let sel = ragged_sel(*pattern);
                let mut t = tag_slab_wide(tags);
                let init = t.clone();
                if *fused {
                    let op = SweepOp { plans: &[&plan], acc: false, writes: &[(*col, *value)] };
                    slab.sweep_program(&[op], t.words_mut(), sel.as_deref());
                } else {
                    sweep_search(&mut slab, &plan, sel.as_deref(), t.words_mut());
                    sweep_write(&mut slab, *col, *value, t.words(), sel.as_deref());
                }
                for (pe, array) in arrays.iter_mut().enumerate() {
                    if !selected(*pattern, pe) {
                        prop_assert_eq!(
                            t.to_tagvector(pe), init.to_tagvector(pe),
                            "unselected pe {} tags changed", pe);
                        continue;
                    }
                    let expected = array.search(&key);
                    array.write_column(*col, *value, &expected);
                    prop_assert_eq!(t.to_tagvector(pe), expected, "pe {}", pe);
                }
            }
            prop_assert_eq!(slab.to_arrays(), arrays.clone());
            prop_assert_eq!(TcamSlab::from_arrays(&arrays), slab);
        }
    }
}

/// The slab ⇄ array conversions (`to_array`'s word gather, `to_arrays`,
/// `from_arrays`) against per-cell `cell()` reads, at row counts on both
/// sides of every 64-row block boundary, on slabs of one 64-PE word and
/// wider (so plane rows have a partial tail word and the gather strides),
/// with wear set and, on half the cases, a seeded fault model attached.
mod conversions {
    use super::*;

    const ROW_COUNTS: [usize; 6] = [1, 63, 64, 65, 130, 256];

    /// One splitmix64 step: the cell contents come from it so a case
    /// fills every cell without a per-cell strategy.
    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn conversions_match_per_cell_reads(
            pes in prop_oneof![2usize..=64, 65usize..=140],
            cols in 1usize..=4,
            seed in any::<u64>(),
            faulty in any::<bool>(),
            worn in prop::collection::vec((0usize..4, 0u8..3), 1..6),
        ) {
            for rows in ROW_COUNTS {
                let mut state = seed ^ rows as u64;
                let mut slab = TcamSlab::new(pes, rows, cols);
                if faulty {
                    let model = FaultModel {
                        seed,
                        stuck_per_million: 60_000,
                        miss_per_million: 0,
                        endurance_limit: None,
                    };
                    slab.attach_fault(model, 1, 7);
                }
                for col in 0..cols {
                    for row in 0..rows {
                        for pe in 0..pes {
                            let v = match splitmix(&mut state) % 3 {
                                0 => TernaryBit::Zero,
                                1 => TernaryBit::One,
                                _ => TernaryBit::X,
                            };
                            slab.set_cell(pe, row, col, v);
                        }
                    }
                }
                // Wear (and a few tag-driven writes) over ragged selections:
                // every PE, the upper half (past the first word when wide),
                // every third PE.
                // Random tags, padding lanes past `pes` kept clear.
                let mut tags = TagSlab::zeros(pes, rows);
                let pw = tags.pe_words();
                for (i, w) in tags.words_mut().iter_mut().enumerate() {
                    let lanes = 64.min(pes - i % pw * 64);
                    *w = splitmix(&mut state) & (u64::MAX >> (64 - lanes));
                }
                for &(col, which) in std::iter::once(&(0, 0)).chain(&worn) {
                    let sel = match which {
                        0 => None,
                        1 => Some(pe_range_mask(pes, pes / 2, pes)),
                        _ => {
                            let mut m = vec![0u64; pes.div_ceil(64)];
                            for pe in (0..pes).step_by(3) {
                                m[pe / 64] |= 1 << (pe % 64);
                            }
                            Some(m)
                        }
                    };
                    sweep_write(&mut slab, col % cols, TernaryBit::X, tags.words(), sel.as_deref());
                }
                let arrays = slab.to_arrays();
                prop_assert_eq!(arrays.len(), pes);
                for (pe, array) in arrays.iter().enumerate() {
                    prop_assert_eq!(array, &slab.to_array(pe));
                    prop_assert_eq!((array.rows(), array.cols()), (rows, cols));
                    for col in 0..cols {
                        for row in 0..rows {
                            prop_assert_eq!(
                                array.cell(row, col), slab.cell(pe, row, col),
                                "rows {} pe {} row {} col {}", rows, pe, row, col);
                        }
                    }
                    prop_assert_eq!(array.column_wear(), &slab.pe_wear(pe)[..]);
                    prop_assert_eq!(
                        array.fault().cloned(),
                        slab.fault().map(|f| f.to_array(pe)));
                }
                prop_assert!(slab.pe_wear(pes - 1).iter().any(|&w| w > 0), "wear reaches the last PE");
                let back = TcamSlab::from_arrays(&arrays);
                prop_assert_eq!(&back, &slab);
                for pe in (0..pes).step_by(7) {
                    for row in 0..rows {
                        for col in 0..cols {
                            prop_assert_eq!(back.cell(pe, row, col), slab.cell(pe, row, col));
                        }
                    }
                }
            }
        }
    }
}

/// Whole random programs through `sweep_program` against the per-array
/// sequence — per step and selected PE: search every plan and OR the
/// matches into the tags (cleared first unless `acc`), then write every
/// column under them. The programs cover chains of zero to eight plans
/// with and without `acc`, plan-less write steps, sparse keys over a slab
/// whose upper columns start fresh (so steps die on `Full` miss planes and
/// runs of dead steps ride the known-zero tags), wide keys whose plans
/// carry more than four live miss planes (chains folded in several
/// passes), and `search_narrow_multi` steps between the sweeps; with and
/// without a selection mask and a seeded fault model.
mod sweeps {
    use super::*;

    const SCOLS: usize = 12;
    /// Columns below this may be preloaded; the rest start fresh.
    const LOADED: usize = 8;

    /// A sparse key: up to three cared bits, the rest masked.
    fn sparse_key() -> impl Strategy<Value = SearchKey> {
        prop::collection::vec((0..SCOLS, key_bit()), 0..4).prop_map(|entries| {
            let mut bits = vec![KeyBit::Masked; SCOLS];
            for (col, bit) in entries {
                bits[col] = bit;
            }
            SearchKey::from_bits(bits)
        })
    }

    /// A wide key: a bit on every preloaded column, half of them `Z` (two
    /// miss planes each), so a plan carries twelve miss planes on average
    /// and up to sixteen.
    fn wide_key() -> impl Strategy<Value = SearchKey> {
        let bit = prop_oneof![
            Just(KeyBit::Z),
            Just(KeyBit::Z),
            Just(KeyBit::Zero),
            Just(KeyBit::One),
        ];
        prop::collection::vec(bit, LOADED).prop_map(|mut bits| {
            bits.resize(SCOLS, KeyBit::Masked);
            SearchKey::from_bits(bits)
        })
    }

    fn key() -> impl Strategy<Value = SearchKey> {
        prop_oneof![sparse_key(), wide_key()]
    }

    /// One program step.
    #[derive(Debug, Clone)]
    enum Step {
        /// A sweep: plans, `acc`, writes.
        Sweep(Vec<SearchKey>, bool, Vec<(usize, TernaryBit)>),
        /// `search_narrow_multi` by one key.
        Narrow(SearchKey),
    }

    fn step() -> impl Strategy<Value = Step> {
        let sweep = || {
            (
                prop::collection::vec(key(), 0..=8),
                any::<bool>(),
                prop::collection::vec((0..SCOLS, ternary_bit()), 0..3),
            )
                .prop_map(|(keys, acc, writes)| Step::Sweep(keys, acc, writes))
        };
        prop_oneof![sweep(), sweep(), sweep(), key().prop_map(Step::Narrow)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn sweep_program_equals_per_array_sequence(
            pes in prop_oneof![Just(5usize), Just(64), Just(67)],
            preload in any::<bool>(),
            faulty in any::<bool>(),
            pattern in prop_oneof![Just(0xFFu8), any::<u8>()],
            seed in any::<u64>(),
            program in prop::collection::vec(step(), 1..10),
        ) {
            let mut slab = TcamSlab::new(pes, ROWS, SCOLS);
            let mut arrays: Vec<TcamArray> =
                (0..pes).map(|_| TcamArray::new(ROWS, SCOLS)).collect();
            if faulty {
                let model = FaultModel {
                    seed,
                    stuck_per_million: 30_000,
                    miss_per_million: 20_000,
                    endurance_limit: None,
                };
                slab.attach_fault(model, 1, 0);
                for (pe, array) in arrays.iter_mut().enumerate() {
                    array.attach_fault(model, 1, pe);
                }
            }
            if preload {
                for (pe, array) in arrays.iter_mut().enumerate() {
                    for row in 0..ROWS {
                        for col in 0..LOADED {
                            let v = match (seed as usize ^ (pe * 7 + row * 3 + col)) % 3 {
                                0 => TernaryBit::Zero,
                                1 => TernaryBit::One,
                                _ => TernaryBit::X,
                            };
                            slab.set_cell(pe, row, col, v);
                            array.set_cell(row, col, v);
                        }
                    }
                }
            }
            // PE `p` is selected when bit `p % 8` of `pattern` is set;
            // `0xFF` is the mask-free `sel = None`.
            let selected = |pe: usize| pattern >> (pe % 8) & 1 != 0;
            let sel = (pattern != 0xFF).then(|| {
                let mut m = vec![0u64; pes.div_ceil(64)];
                for pe in (0..pes).filter(|&pe| selected(pe)) {
                    m[pe / 64] |= 1 << (pe % 64);
                }
                m
            });
            let mut tags = TagSlab::zeros(pes, ROWS);
            for pe in 0..pes {
                let tv = (0..ROWS).map(|r| (r as u64 * 5 + pe as u64) ^ seed).map(|x| x % 3 == 0);
                tags.set_pe(pe, &tv.collect());
            }
            let mut expected: Vec<TagVector> = (0..pes).map(|pe| tags.to_tagvector(pe)).collect();

            // Runs of sweeps go to the slab as one program each, split at
            // the narrow steps.
            let plans: Vec<Vec<Vec<(usize, KeyBit)>>> = program
                .iter()
                .map(|step| match step {
                    Step::Sweep(keys, _, _) => keys.iter().map(SearchKey::compile_plan).collect(),
                    Step::Narrow(key) => vec![key.compile_plan()],
                })
                .collect();
            let refs: Vec<Vec<&[(usize, KeyBit)]>> = plans
                .iter()
                .map(|p| p.iter().map(Vec::as_slice).collect())
                .collect();
            let mut run = Vec::new();
            for (step, plans) in program.iter().zip(&refs) {
                match step {
                    Step::Sweep(_, acc, writes) => run.push(SweepOp { plans, acc: *acc, writes }),
                    Step::Narrow(_) => {
                        slab.sweep_program(&run, tags.words_mut(), sel.as_deref());
                        run.clear();
                        slab.search_narrow_multi(plans[0], sel.as_deref(), tags.words_mut());
                    }
                }
            }
            slab.sweep_program(&run, tags.words_mut(), sel.as_deref());

            for step in &program {
                for (pe, array) in arrays.iter_mut().enumerate().filter(|&(pe, _)| selected(pe)) {
                    let t = &mut expected[pe];
                    match step {
                        Step::Sweep(keys, acc, writes) => {
                            if !*acc {
                                *t = TagVector::zeros(ROWS);
                            }
                            for key in keys {
                                t.accumulate(&array.search(key));
                            }
                            for &(col, value) in writes {
                                array.write_column(col, value, t);
                            }
                        }
                        // Narrowing ANDs in the rows whose cells match,
                        // without the transient misses a search starts
                        // from (compiled tags it narrows already carry
                        // them).
                        Step::Narrow(key) => {
                            for row in 0..ROWS {
                                if !key.active_bits().all(|(col, bit)| bit.matches(array.cell(row, col))) {
                                    t.set(row, false);
                                }
                            }
                        }
                    }
                }
            }
            for (pe, t) in expected.iter().enumerate() {
                prop_assert_eq!(&tags.to_tagvector(pe), t, "tags of pe {}", pe);
            }
            prop_assert_eq!(slab.to_arrays(), arrays);
        }
    }
}

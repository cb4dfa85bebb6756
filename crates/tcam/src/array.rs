//! The functional TCAM array model.
//!
//! Words are rows, bits are columns (Fig 1a). The representation is
//! column-major: each column keeps two row-bitmasks (stores-`0` and
//! stores-`1`; `X` = neither), so a search over all rows is two or three
//! 64-bit boolean operations per active column per 64 rows — the
//! word-parallel semantics of the hardware at software speed.

use crate::bit::{KeyBit, TernaryBit};
use crate::fault::{self, FaultError, FaultModel, FaultState};
use crate::key::SearchKey;
use crate::tags::TagVector;

/// A functional ternary CAM array of `rows` words × `cols` bits.
///
/// All cells initialize to `0`, matching the paper's convention that output
/// vectors are initialized to zero before a computation (§II-C).
///
/// Cells live in two flat arenas indexed `[col][block]` (`blocks =
/// rows.div_ceil(64)` row-blocks per column): bit `r % 64` of word
/// `col * blocks + r / 64` is row `r`'s cell. A 256 × 256 array is
/// therefore four heap allocations (two arenas, the row mask, the wear
/// table), not two small vectors per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcamArray {
    rows: usize,
    cols: usize,
    /// Rows storing `0`, indexed `[col][block]`.
    zeros: Vec<u64>,
    /// Rows storing `1`, indexed `[col][block]` (rows in neither arena
    /// store `X`).
    ones: Vec<u64>,
    row_mask: Vec<u64>,
    /// Associative-write pulses per column (RRAM endurance accounting; host
    /// loads are not counted).
    wear: Vec<u64>,
    /// Device-fault bookkeeping; `None` (the default) is the ideal array and
    /// keeps every kernel on its zero-fault path.
    fault: Option<Box<FaultState>>,
}

/// The live-row mask of a `rows`-row column: `rows.div_ceil(64)` blocks,
/// bits `0..rows` set.
fn row_mask(rows: usize) -> Vec<u64> {
    let mut mask = vec![u64::MAX; rows.div_ceil(64)];
    if !rows.is_multiple_of(64) {
        mask[rows / 64] = (1u64 << (rows % 64)) - 1;
    }
    mask
}

impl TcamArray {
    /// Create an array of `rows` × `cols` cells, all storing `0`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        let row_mask = row_mask(rows);
        TcamArray {
            rows,
            cols,
            zeros: row_mask.repeat(cols),
            ones: vec![0; cols * row_mask.len()],
            row_mask,
            wear: vec![0; cols],
            fault: None,
        }
    }

    /// Assemble an array from its raw parts — the slab conversion path,
    /// which gathers the arenas itself instead of overwriting a fresh
    /// array's. Fault bookkeeping is taken verbatim (the source storage
    /// already reflects the stuck bits).
    ///
    /// # Panics
    ///
    /// Panics if an arena's length disagrees with the geometry.
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        zeros: Vec<u64>,
        ones: Vec<u64>,
        wear: Vec<u64>,
        fault: Option<Box<FaultState>>,
    ) -> Self {
        let row_mask = row_mask(rows);
        let n = cols * row_mask.len();
        assert!(
            zeros.len() == n && ones.len() == n && wear.len() == cols,
            "array part sizes disagree with the geometry"
        );
        TcamArray {
            rows,
            cols,
            zeros,
            ones,
            row_mask,
            wear,
            fault,
        }
    }

    /// Row-blocks per column.
    fn blocks(&self) -> usize {
        self.row_mask.len()
    }

    /// Arena index range of column `col`.
    fn col_range(&self, col: usize) -> std::ops::Range<usize> {
        let b = self.blocks();
        col * b..(col + 1) * b
    }

    /// Attach a device-fault model: this array becomes global PE `pe` with
    /// `spares` spare column devices. Stuck bits of the initial devices are
    /// enforced on the (all-zero or pre-loaded) storage immediately.
    pub fn attach_fault(&mut self, model: FaultModel, spares: usize, pe: usize) {
        self.fault = Some(Box::new(FaultState::new(
            model, pe, spares, self.rows, self.cols,
        )));
        for col in 0..self.cols {
            self.enforce_stuck_col(col);
        }
    }

    /// The fault bookkeeping, if a model is attached.
    pub fn fault(&self) -> Option<&FaultState> {
        self.fault.as_deref()
    }

    /// Start a new run epoch (re-derives the transient search-miss set).
    /// No-op without an attached fault model.
    pub fn advance_epoch(&mut self) {
        if let Some(f) = &mut self.fault {
            f.advance_epoch();
        }
    }

    /// End-of-run endurance service: retire every column whose wear counter
    /// reached the model's limit onto a spare device (columns in ascending
    /// order). Retirement resets the column's wear — the spare is a fresh
    /// device — and enforces the new device's stuck bits on the copied data.
    ///
    /// # Errors
    ///
    /// [`FaultError::SparesExhausted`] at the first column that cannot be
    /// retired; the failure is also latched in [`fault`](Self::fault) so
    /// later runs can fail fast.
    pub fn service_endurance(&mut self) -> Result<(), FaultError> {
        let Some(limit) = self.fault.as_ref().and_then(|f| f.model.endurance_limit) else {
            return Ok(());
        };
        for col in 0..self.cols {
            let w = self.wear[col];
            if w >= limit {
                self.fault
                    .as_mut()
                    .expect("fault state present")
                    .retire(col, w)?;
                self.wear[col] = 0;
                self.enforce_stuck_col(col);
            }
        }
        Ok(())
    }

    /// The block mask searches initialize from: the row mask, minus this
    /// epoch's transient misses when a fault model is attached.
    fn search_base(&self) -> &[u64] {
        match &self.fault {
            Some(f) => &f.search_mask,
            None => &self.row_mask,
        }
    }

    /// Force column `col`'s storage to agree with its backing device's
    /// stuck bits. Idempotent; no-op without a fault model.
    fn enforce_stuck_col(&mut self, col: usize) {
        if let Some(f) = &self.fault {
            let (s0, s1) = f.stuck_col(col);
            let r = self.col_range(col);
            fault::enforce_stuck(&mut self.zeros[r.clone()], &mut self.ones[r], s0, s1);
        }
    }

    /// The paper's PE array geometry: 256 words × 256 bits (Fig 7).
    pub fn pe_sized() -> Self {
        Self::new(256, 256)
    }

    /// Number of word rows (SIMD slots).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read one cell.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> TernaryBit {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        let (i, m) = (col * self.blocks() + row / 64, 1u64 << (row % 64));
        if self.zeros[i] & m != 0 {
            TernaryBit::Zero
        } else if self.ones[i] & m != 0 {
            TernaryBit::One
        } else {
            TernaryBit::X
        }
    }

    /// Write one cell directly (host data load path, not an associative write).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set_cell(&mut self, row: usize, col: usize, value: TernaryBit) {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        let (i, m) = (col * self.blocks() + row / 64, 1u64 << (row % 64));
        let (mut z, mut o) = (self.zeros[i] & !m, self.ones[i] & !m);
        match value {
            TernaryBit::Zero => z |= m,
            TernaryBit::One => o |= m,
            TernaryBit::X => {}
        }
        if let Some(f) = &self.fault {
            let (s0, s1) = f.stuck_col(col);
            // Stuck-at-0 wins where both masks are set.
            let (s0, s1) = (s0[row / 64] & m, s1[row / 64] & m);
            let s1 = s1 & !s0;
            z = (z & !s1) | s0;
            o = (o & !s0) | s1;
        }
        self.zeros[i] = z;
        self.ones[i] = o;
    }

    /// Store a whole word at `row` (shorter words leave later columns alone).
    ///
    /// # Panics
    ///
    /// Panics if `row` or the word length is out of range.
    pub fn store_word(&mut self, row: usize, word: &[TernaryBit]) {
        assert!(word.len() <= self.cols, "word wider than array");
        for (col, bit) in word.iter().enumerate() {
            self.set_cell(row, col, *bit);
        }
    }

    /// Store the low `width` bits of `value` at columns
    /// `col..col + width` of `row` (LSB first — the Fig 2a layout).
    pub fn store_field(&mut self, row: usize, col: usize, width: usize, value: u64) {
        for i in 0..width {
            self.set_cell(row, col + i, TernaryBit::from_bool(value >> i & 1 == 1));
        }
    }

    /// Search all rows in parallel against `key`; returns one tag per row.
    ///
    /// Fig 4 semantics: key `0` matches stored {0, X}, key `1` matches
    /// {1, X}, key `Z` matches {X}, masked columns match everything.
    ///
    /// Allocates the result vector; hot paths should reuse a buffer via
    /// [`search_into`](Self::search_into).
    pub fn search(&self, key: &SearchKey) -> TagVector {
        let mut tags = TagVector::zeros(self.rows);
        self.search_into(key, &mut tags);
        tags
    }

    /// [`search`](Self::search) into a caller-provided tag buffer: the
    /// zero-allocation kernel of the simulator's hot loop. `out` is fully
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows`.
    pub fn search_into(&self, key: &SearchKey, out: &mut TagVector) {
        assert_eq!(out.len(), self.rows, "tag/row count mismatch");
        let acc = out.blocks_mut();
        acc.copy_from_slice(self.search_base());
        for col in key.active_columns() {
            if col >= self.cols {
                continue;
            }
            self.search_col_step(acc, col, key.bit(col));
        }
    }

    /// [`search_into`](Self::search_into) with a precompiled
    /// `(column, key-bit)` plan: the key scan is hoisted out of the hot
    /// loop, done once per key change instead of once per array per search.
    /// Equivalent to searching a key whose unmasked bits are exactly `plan`
    /// (masked or out-of-range plan entries are skipped).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the row count.
    pub fn search_plan_into(&self, plan: &[(usize, KeyBit)], out: &mut TagVector) {
        assert_eq!(out.len(), self.rows, "tag/row count mismatch");
        let acc = out.blocks_mut();
        acc.copy_from_slice(self.search_base());
        for &(col, bit) in plan {
            if col >= self.cols || bit == KeyBit::Masked {
                continue;
            }
            self.search_col_step(acc, col, bit);
        }
    }

    /// Narrow `acc` to the rows matching `bit` at `col`.
    fn search_col_step(&self, acc: &mut [u64], col: usize, bit: KeyBit) {
        let r = self.col_range(col);
        let (zeros, ones) = (&self.zeros[r.clone()], &self.ones[r]);
        match bit {
            KeyBit::Zero => {
                for (a, one) in acc.iter_mut().zip(ones) {
                    *a &= !one;
                }
            }
            KeyBit::One => {
                for (a, zero) in acc.iter_mut().zip(zeros) {
                    *a &= !zero;
                }
            }
            KeyBit::Z => {
                for ((a, zero), one) in acc.iter_mut().zip(zeros).zip(ones) {
                    *a &= !(zero | one);
                }
            }
            KeyBit::Masked => unreachable!("masked bits are filtered by the callers"),
        }
    }

    /// Associative write: program every unmasked column of every tagged row
    /// with the key value (Fig 1c / Fig 4d; `Z` writes `X`).
    ///
    /// # Panics
    ///
    /// Panics if `tags.len() != rows`.
    pub fn write(&mut self, key: &SearchKey, tags: &TagVector) {
        assert_eq!(tags.len(), self.rows, "tag/row count mismatch");
        for col in key.active_columns() {
            if col >= self.cols {
                continue;
            }
            let value = key
                .bit(col)
                .write_value()
                .expect("active column has a write value");
            self.write_column(col, value, tags);
        }
    }

    /// Associative write of a single column: program `value` into column
    /// `col` of every tagged row. The allocation-free write kernel — callers
    /// with a single-column write (the `Write` instruction's common case)
    /// avoid building a full-width [`SearchKey`].
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or `tags.len() != rows`.
    pub fn write_column(&mut self, col: usize, value: TernaryBit, tags: &TagVector) {
        assert!(col < self.cols, "column out of range");
        assert_eq!(tags.len(), self.rows, "tag/row count mismatch");
        let tag_blocks = tags.blocks();
        self.wear[col] += 1;
        let r = self.col_range(col);
        let (zeros, ones) = (&mut self.zeros[r.clone()], &mut self.ones[r]);
        match value {
            TernaryBit::Zero => {
                for ((zero, one), t) in zeros.iter_mut().zip(ones).zip(tag_blocks) {
                    *zero |= t;
                    *one &= !t;
                }
            }
            TernaryBit::One => {
                for ((zero, one), t) in zeros.iter_mut().zip(ones).zip(tag_blocks) {
                    *one |= t;
                    *zero &= !t;
                }
            }
            TernaryBit::X => {
                for ((zero, one), t) in zeros.iter_mut().zip(ones).zip(tag_blocks) {
                    *zero &= !t;
                    *one &= !t;
                }
            }
        }
        self.enforce_stuck_col(col);
    }

    /// Associative-write pulse count per column — the endurance profile of
    /// the array. RRAM cells endure a bounded number of SET/RESET cycles
    /// (~10^6-10^12 depending on device), so heavily recycled scratch
    /// columns are the wear-leveling hotspot.
    pub fn column_wear(&self) -> &[u64] {
        &self.wear
    }

    /// Record one write pulse on `col` for operations that program cells
    /// through a row-dependent path (e.g. the PE's two-bit encoder, whose
    /// per-row values bypass [`write`](Self::write)).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn note_write(&mut self, col: usize) {
        assert!(col < self.cols, "column out of range");
        self.wear[col] += 1;
    }

    /// Raw row-blocks of one column, `(zeros, ones)` — the
    /// [`crate::slab`] conversion path.
    pub(crate) fn column_bits(&self, col: usize) -> (&[u64], &[u64]) {
        let r = self.col_range(col);
        (&self.zeros[r.clone()], &self.ones[r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::word_from_str;

    fn array_with(words: &[&str]) -> TcamArray {
        let cols = words[0].len();
        let mut a = TcamArray::new(words.len(), cols);
        for (i, w) in words.iter().enumerate() {
            a.store_word(i, &word_from_str(w).unwrap());
        }
        a
    }

    /// `width` bits from column `col` of `row`, LSB first (`None` if any
    /// cell stores `X`).
    fn read_field(a: &TcamArray, row: usize, col: usize, width: usize) -> Option<u64> {
        (0..width).try_fold(0u64, |v, i| {
            a.cell(row, col + i)
                .to_bool()
                .map(|b| v | u64::from(b) << i)
        })
    }

    #[test]
    fn new_array_is_all_zero() {
        let a = TcamArray::new(3, 4);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(a.cell(r, c), TernaryBit::Zero);
            }
        }
    }

    #[test]
    fn search_matches_selected_columns_only() {
        // Fig 1b style: key 101 over the first three columns (last two
        // masked); only rows whose selected columns equal the key match.
        let a = array_with(&["10110", "10011", "11100", "10111", "00011"]);
        let key = SearchKey::parse("101--").unwrap();
        let tags = a.search(&key);
        let expect = [true, false, false, true, false];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(tags.get(i), *e, "row {i}");
        }
    }

    #[test]
    fn write_fig1c_example() {
        // Fig 1c: write 111 into columns 0,1,3 of tagged words.
        let mut a = array_with(&["10011", "10010"]);
        let tags = TagVector::from_bools([true, false]);
        let key = SearchKey::parse("11-1-").unwrap();
        a.write(&key, &tags);
        assert_eq!(read_field(&a, 0, 0, 5), Some(0b11011)); // cols 0,1,3 set
        assert_eq!(read_field(&a, 1, 0, 5), Some(0b01001)); // untouched
    }

    #[test]
    fn x_state_matches_both_inputs() {
        let a = array_with(&["X0", "00", "10"]);
        let t0 = a.search(&SearchKey::parse("00").unwrap());
        assert!(t0.get(0) && t0.get(1) && !t0.get(2));
        let t1 = a.search(&SearchKey::parse("10").unwrap());
        assert!(t1.get(0) && !t1.get(1) && t1.get(2));
    }

    #[test]
    fn z_matches_only_x() {
        let a = array_with(&["X", "0", "1"]);
        let t = a.search(&SearchKey::parse("Z").unwrap());
        assert!(t.get(0) && !t.get(1) && !t.get(2));
    }

    #[test]
    fn z_writes_x() {
        let mut a = TcamArray::new(2, 2);
        let tags = TagVector::ones(2);
        a.write(&SearchKey::parse("Z-").unwrap(), &tags);
        assert_eq!(a.cell(0, 0), TernaryBit::X);
        assert_eq!(a.cell(0, 1), TernaryBit::Zero); // masked column untouched
    }

    #[test]
    fn fully_masked_key_matches_all_rows() {
        let a = TcamArray::new(130, 4);
        let t = a.search(&SearchKey::masked(4));
        assert_eq!(t.count(), 130);
    }

    #[test]
    fn fully_masked_key_does_not_set_padding() {
        let a = TcamArray::new(70, 4);
        let t = a.search(&SearchKey::masked(4));
        assert_eq!(t.count(), 70);
        assert_eq!(t.blocks()[1] >> 6, 0);
    }

    #[test]
    fn field_round_trip() {
        let mut a = TcamArray::new(4, 16);
        a.store_field(2, 3, 8, 0xA5);
        assert_eq!(read_field(&a, 2, 3, 8), Some(0xA5));
    }

    #[test]
    fn write_untagged_rows_untouched() {
        let mut a = array_with(&["0000", "0000"]);
        let tags = TagVector::from_bools([false, true]);
        a.write(&SearchKey::parse("1111").unwrap(), &tags);
        assert_eq!(read_field(&a, 0, 0, 4), Some(0));
        assert_eq!(read_field(&a, 1, 0, 4), Some(0xF));
    }

    #[test]
    fn search_into_matches_search_and_reuses_buffer() {
        let a = array_with(&["10110", "10011", "11100", "10111", "00011"]);
        let key = SearchKey::parse("101--").unwrap();
        let mut out = TagVector::ones(5); // stale contents must be overwritten
        let ptr = out.blocks().as_ptr();
        a.search_into(&key, &mut out);
        assert_eq!(out, a.search(&key));
        assert_eq!(out.blocks().as_ptr(), ptr, "no reallocation");
    }

    #[test]
    fn search_plan_into_matches_search() {
        let a = array_with(&["10110", "10011", "11100", "10111", "00011"]);
        for key in ["101--", "-----", "1Z0--", "00000"] {
            let key = SearchKey::parse(key).unwrap();
            let plan: Vec<(usize, KeyBit)> = key.active_bits().collect();
            let mut out = TagVector::ones(5);
            a.search_plan_into(&plan, &mut out);
            assert_eq!(out, a.search(&key), "key {key}");
        }
    }

    #[test]
    fn search_plan_into_skips_out_of_range_and_masked_entries() {
        let a = array_with(&["10", "01"]);
        let mut out = TagVector::zeros(2);
        a.search_plan_into(&[(7, KeyBit::One), (0, KeyBit::Masked)], &mut out);
        assert_eq!(out.count(), 2, "no-op plan entries match everything");
    }

    #[test]
    #[should_panic(expected = "tag/row count mismatch")]
    fn search_into_rejects_wrong_buffer_size() {
        let a = TcamArray::new(4, 4);
        let mut out = TagVector::zeros(5);
        a.search_into(&SearchKey::masked(4), &mut out);
    }

    #[test]
    fn write_column_matches_keyed_write() {
        let mut a = array_with(&["0000", "0000", "0000"]);
        let mut b = a.clone();
        let tags = TagVector::from_bools([true, false, true]);
        a.write(&SearchKey::parse("-1--").unwrap(), &tags);
        b.write_column(1, TernaryBit::One, &tags);
        assert_eq!(a, b);
        assert_eq!(b.column_wear(), &[0, 1, 0, 0]);
    }

    #[test]
    fn wear_counts_associative_writes_only() {
        let mut a = TcamArray::new(4, 4);
        a.store_field(0, 0, 4, 0xF); // host load: not counted
        assert_eq!(a.column_wear(), &[0, 0, 0, 0]);
        let tags = TagVector::ones(4);
        a.write(&SearchKey::parse("1-1-").unwrap(), &tags);
        a.write(&SearchKey::parse("1---").unwrap(), &tags);
        assert_eq!(a.column_wear(), &[2, 0, 1, 0]);
    }

    #[test]
    fn write_column_wears_once_per_pulse_but_set_cell_never() {
        // The endurance model bills associative write pulses (the column
        // driver fires once per write_column call, whatever the tags say),
        // while host-side set_cell loads go through the peripheral port and
        // are not billed.
        let mut a = TcamArray::new(4, 4);
        let empty = TagVector::zeros(4);
        a.write_column(2, TernaryBit::One, &empty);
        a.write_column(2, TernaryBit::Zero, &TagVector::ones(4));
        a.write_column(0, TernaryBit::X, &TagVector::ones(4));
        assert_eq!(a.column_wear(), &[1, 0, 2, 0]);
        for row in 0..4 {
            a.set_cell(row, 2, TernaryBit::One);
            a.set_cell(row, 3, TernaryBit::X);
        }
        assert_eq!(a.column_wear(), &[1, 0, 2, 0], "set_cell adds no wear");
    }

    #[test]
    fn pe_sized_is_256x256() {
        let a = TcamArray::pe_sized();
        assert_eq!((a.rows(), a.cols()), (256, 256));
    }

    #[test]
    fn stuck_cells_override_host_and_associative_writes() {
        use crate::fault::FaultModel;
        let model = FaultModel {
            seed: 7,
            stuck_per_million: 200_000,
            miss_per_million: 0,
            endurance_limit: None,
        };
        let mut a = TcamArray::new(64, 8);
        a.attach_fault(model, 0, 3);
        for col in 0..8 {
            for row in 0..64 {
                a.set_cell(row, col, TernaryBit::One);
            }
        }
        a.write_column(5, TernaryBit::Zero, &TagVector::ones(64));
        for col in 0..8 {
            for row in 0..64 {
                let expect = match model.stuck_at(3, col, row) {
                    Some(true) => TernaryBit::One,
                    Some(false) => TernaryBit::Zero,
                    None if col == 5 => TernaryBit::Zero,
                    None => TernaryBit::One,
                };
                assert_eq!(a.cell(row, col), expect, "row {row} col {col}");
            }
        }
    }

    #[test]
    fn transient_misses_gate_searches_per_epoch() {
        use crate::fault::FaultModel;
        let model = FaultModel {
            seed: 9,
            stuck_per_million: 0,
            miss_per_million: 400_000,
            endurance_limit: None,
        };
        let mut a = TcamArray::new(70, 4);
        a.attach_fault(model, 0, 2);
        for epoch in 0..2 {
            let t = a.search(&SearchKey::masked(4));
            for row in 0..70 {
                assert_eq!(t.get(row), !model.misses(2, row, epoch), "row {row}");
            }
            assert_eq!(t.blocks()[1] >> 6, 0, "padding stays clear");
            a.advance_epoch();
        }
    }

    #[test]
    fn endurance_service_retires_then_exhausts_spares() {
        use crate::fault::{FaultError, FaultModel};
        let model = FaultModel {
            seed: 1,
            stuck_per_million: 0,
            miss_per_million: 0,
            endurance_limit: Some(2),
        };
        let mut a = TcamArray::new(8, 4);
        a.attach_fault(model, 1, 0);
        let tags = TagVector::ones(8);
        a.write_column(1, TernaryBit::One, &tags);
        a.write_column(1, TernaryBit::One, &tags);
        a.service_endurance().unwrap();
        assert_eq!(a.column_wear(), &[0, 0, 0, 0], "spare is a fresh device");
        assert_eq!(a.fault().unwrap().retired, vec![(1, 4)]);
        a.write_column(1, TernaryBit::One, &tags);
        a.write_column(1, TernaryBit::One, &tags);
        let err = a.service_endurance().unwrap_err();
        assert_eq!(
            err,
            FaultError::SparesExhausted {
                pe: 0,
                col: 1,
                wear: 2
            }
        );
        assert_eq!(a.fault().unwrap().failed, Some((1, 2)));
    }

    #[test]
    fn zero_fault_model_attached_changes_nothing() {
        use crate::fault::FaultModel;
        let reference = array_with(&["10110", "10011", "11100", "10111", "00011"]);
        let mut a = reference.clone();
        a.attach_fault(FaultModel::none(), 0, 1);
        let key = SearchKey::parse("101--").unwrap();
        assert_eq!(a.search(&key), reference.search(&key));
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(a.cell(r, c), reference.cell(r, c));
            }
        }
    }

    #[test]
    fn search_key_beyond_cols_is_ignored() {
        let a = array_with(&["11"]);
        let mut key = SearchKey::masked(2);
        key.set_bit(10, KeyBit::One);
        // Column 10 doesn't exist; key is effectively fully masked.
        assert_eq!(a.search(&key).count(), 1);
    }
}

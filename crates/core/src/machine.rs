//! The two abstract machines: traditional AP (Fig 1a) and Hyper-AP (Fig 4a).

use hyperap_model::timing::OpCounts;
use hyperap_tcam::array::TcamArray;
use hyperap_tcam::bit::{KeyBit, TernaryBit};
use hyperap_tcam::encoding::encode_pair;
use hyperap_tcam::fault::{FaultError, FaultModel, FaultState};
use hyperap_tcam::key::SearchKey;
use hyperap_tcam::tags::TagVector;

/// The Hyper-AP abstract machine (Fig 4a): TCAM array + ternary key +
/// accumulation unit + encoder latch + reduction tree, with Table-I-faithful
/// operation accounting.
///
/// One instance models one PE (§IV-B); the default geometry is the paper's
/// 256 words × 256 bits, but tests may use smaller arrays (operation counts
/// are row-count independent).
#[derive(Debug, Clone)]
pub struct HyperPe {
    array: TcamArray,
    tags: TagVector,
    /// Encoder DFF stage (Fig 7): the latched previous search result used by
    /// encoded writes.
    latch: TagVector,
    /// Sense-amplifier scratch: holds the raw search result while the
    /// accumulation unit ORs it into the tags. Not architectural state —
    /// excluded from [`PartialEq`].
    scratch: TagVector,
    ops: OpCounts,
}

/// Equality over architectural state only (array, tags, latch, op counts);
/// the sense-amplifier scratch buffer is a simulation artifact.
impl PartialEq for HyperPe {
    fn eq(&self, other: &Self) -> bool {
        self.array == other.array
            && self.tags == other.tags
            && self.latch == other.latch
            && self.ops == other.ops
    }
}

impl HyperPe {
    /// New PE with the given geometry; all cells store `0`, all tags clear.
    pub fn new(rows: usize, cols: usize) -> Self {
        HyperPe {
            array: TcamArray::new(rows, cols),
            tags: TagVector::zeros(rows),
            latch: TagVector::zeros(rows),
            scratch: TagVector::zeros(rows),
            ops: OpCounts::default(),
        }
    }

    /// The paper's PE geometry: 256 × 256.
    pub fn pe_sized() -> Self {
        Self::new(256, 256)
    }

    /// Reassemble a PE from externally held architectural state (the slab
    /// engine's snapshot path). The sense-amplifier scratch starts clear —
    /// it is a simulation artifact excluded from equality.
    ///
    /// # Panics
    ///
    /// Panics if the tag or latch length differs from the array's row count.
    pub fn from_parts(array: TcamArray, tags: TagVector, latch: TagVector, ops: OpCounts) -> Self {
        let rows = array.rows();
        assert_eq!(tags.len(), rows, "tag length mismatch");
        assert_eq!(latch.len(), rows, "latch length mismatch");
        HyperPe {
            array,
            tags,
            latch,
            scratch: TagVector::zeros(rows),
            ops,
        }
    }

    /// Number of word rows (SIMD slots).
    pub fn rows(&self) -> usize {
        self.array.rows()
    }

    /// Number of bit columns.
    pub fn cols(&self) -> usize {
        self.array.cols()
    }

    /// The underlying TCAM array (read-only).
    pub fn array(&self) -> &TcamArray {
        &self.array
    }

    /// Endurance profile: associative-write pulses per column (encoded
    /// writes count once per touched column).
    pub fn column_wear(&self) -> &[u64] {
        self.array.column_wear()
    }

    /// Attach a fault model to this PE's array (see
    /// [`TcamArray::attach_fault`]); `pe` is the PE's global index, which
    /// seeds its fault derivations.
    pub fn attach_fault(&mut self, model: FaultModel, spares: usize, pe: usize) {
        self.array.attach_fault(model, spares, pe);
    }

    /// Fault bookkeeping, if a model is attached.
    pub fn fault(&self) -> Option<&FaultState> {
        self.array.fault()
    }

    /// Start a new run epoch (re-derives the transient search-miss set).
    pub fn advance_epoch(&mut self) {
        self.array.advance_epoch();
    }

    /// Retire columns whose wear crossed the endurance limit onto spares;
    /// errors when a column fails with no spares left.
    pub fn service_endurance(&mut self) -> Result<(), FaultError> {
        self.array.service_endurance()
    }

    /// Current tag register contents.
    pub fn tags(&self) -> &TagVector {
        &self.tags
    }

    /// Encoder DFF stage contents (the latched previous search result).
    pub fn latch(&self) -> &TagVector {
        &self.latch
    }

    /// Accumulated operation counts since construction or the last
    /// [`reset_ops`](Self::reset_ops).
    pub fn op_counts(&self) -> OpCounts {
        self.ops
    }

    /// Clear the operation counters.
    pub fn reset_ops(&mut self) {
        self.ops = OpCounts::default();
    }

    /// `Search` instruction: compare `key` against all words in parallel.
    ///
    /// With `accumulate` (the `<acc>` field), the result is OR-ed into the
    /// tags through the accumulation unit (Fig 4c); otherwise the tags are
    /// overwritten. Counts one search plus one `SetKey`.
    pub fn search(&mut self, key: &SearchKey, accumulate: bool) {
        if accumulate {
            self.array.search_into(key, &mut self.scratch);
            self.tags.accumulate(&self.scratch);
        } else {
            self.array.search_into(key, &mut self.tags);
        }
        self.ops.searches += 1;
        self.ops.set_keys += 1;
    }

    /// [`search`](Self::search) with a precompiled `(column, bit)` plan —
    /// the engine hot path, where the group's key is scanned once per
    /// `SetKey` instead of once per PE per search. Counts one search plus
    /// one `SetKey`, exactly like [`search`](Self::search).
    pub fn search_planned(&mut self, plan: &[(usize, KeyBit)], accumulate: bool) {
        if accumulate {
            self.array.search_plan_into(plan, &mut self.scratch);
            self.tags.accumulate(&self.scratch);
        } else {
            self.array.search_plan_into(plan, &mut self.tags);
        }
        self.ops.searches += 1;
        self.ops.set_keys += 1;
    }

    /// Latch the current tags into the encoder DFF stage (Fig 7's SA→DFF
    /// chain feeding the two-bit encoder). Free: happens as part of sensing.
    pub fn latch_tags(&mut self) {
        self.latch.copy_from(&self.tags);
    }

    /// `Write` instruction (`<encode>` = 0): program `value` into column
    /// `col` of every tagged word. 12 cycles on RRAM (Table I).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn write(&mut self, col: usize, value: KeyBit) {
        assert!(col < self.cols(), "write column {col} out of range");
        if let Some(v) = value.write_value() {
            self.array.write_column(col, v, &self.tags);
        }
        self.ops.writes_single += 1;
    }

    /// `Write` instruction (`<encode>` = 1): for **every** word, program the
    /// two cells at `col`, `col + 1` with the two-bit-encoded value of the
    /// pair `(latched result, current tag)` (Fig 7's two-bit encoder path).
    /// 23 cycles on RRAM (Table I).
    ///
    /// This is how computed bit pairs are stored in encoded form so later
    /// searches can use multi-pattern keys on them.
    ///
    /// # Panics
    ///
    /// Panics if `col + 1` is out of range.
    pub fn write_encoded(&mut self, col: usize) {
        assert!(col + 1 < self.cols(), "encoded write needs two columns");
        for row in 0..self.rows() {
            let cells = encode_pair(self.latch.get(row), self.tags.get(row));
            self.array.set_cell(row, col, cells[0]);
            self.array.set_cell(row, col + 1, cells[1]);
        }
        self.array.note_write(col);
        self.array.note_write(col + 1);
        self.ops.writes_encoded += 1;
    }

    /// `Count` instruction: population count of the tags (reduction tree).
    pub fn count(&mut self) -> usize {
        self.ops.counts += 1;
        self.tags.count()
    }

    /// `Index` instruction: priority-encoded index of the first tagged word.
    pub fn index(&mut self) -> Option<usize> {
        self.ops.indexes += 1;
        self.tags.first_index()
    }

    /// Replace the tag register contents (the `SetTag` data-register path;
    /// not counted here — callers account for the instruction).
    ///
    /// # Panics
    ///
    /// Panics if `tags.len()` differs from the row count.
    pub fn set_tags(&mut self, tags: TagVector) {
        assert_eq!(tags.len(), self.rows(), "tag length mismatch");
        self.tags = tags;
    }

    /// Borrowing variant of [`set_tags`](Self::set_tags): copies into the
    /// existing tag storage without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `tags.len()` differs from the row count.
    pub fn set_tags_from(&mut self, tags: &TagVector) {
        self.tags.copy_from(tags);
    }

    /// Set all tags (models `WriteR` of ones + `SetTag`; counted as one tag
    /// register operation).
    pub fn tag_all(&mut self) {
        self.tags = TagVector::ones(self.rows());
        self.ops.tag_ops += 1;
    }

    /// Clear all tags (same cost class as [`tag_all`](Self::tag_all)).
    pub fn tag_none(&mut self) {
        self.tags.clear();
        self.ops.tag_ops += 1;
    }

    // ----- host data-load path (not associative operations; free) -----

    /// Host load: store a plain bit.
    pub fn load_bit(&mut self, row: usize, col: usize, value: bool) {
        self.array.set_cell(row, col, TernaryBit::from_bool(value));
    }

    /// Host load: store a logical bit pair `(hi, lo)` in two-bit-encoded form
    /// at columns `col`, `col + 1`.
    pub fn load_encoded_pair(&mut self, row: usize, col: usize, hi: bool, lo: bool) {
        let cells = encode_pair(hi, lo);
        self.array.set_cell(row, col, cells[0]);
        self.array.set_cell(row, col + 1, cells[1]);
    }

    /// Host read: a plain bit (`None` if the cell stores `X`).
    pub fn read_bit(&self, row: usize, col: usize) -> Option<bool> {
        self.array.cell(row, col).to_bool()
    }

    /// Host read: decode the encoded pair at columns `col`, `col + 1` into
    /// `(hi, lo)`; `None` when the cells do not hold a valid two-bit code
    /// (e.g. untouched all-zero columns before the first encoded store).
    pub fn try_read_encoded_pair(&self, row: usize, col: usize) -> Option<(bool, bool)> {
        let v = hyperap_tcam::encoding::decode_pair([
            self.array.cell(row, col),
            self.array.cell(row, col + 1),
        ])?;
        Some((v & 0b10 != 0, v & 0b01 != 0))
    }
}

/// The traditional AP abstract machine (Fig 1a): binary CAM, key + mask,
/// overwrite-only tags, reduction tree.
///
/// Differences from [`HyperPe`] (§II-D): no stored `X` state, no `Z` input,
/// and **no accumulation unit** — every search overwrites the tags, so a
/// write must follow each search (Single-Search-Single-Write).
#[derive(Debug, Clone, PartialEq)]
pub struct TraditionalPe {
    array: TcamArray,
    tags: TagVector,
    ops: OpCounts,
}

impl TraditionalPe {
    /// New PE with all cells `0` and tags clear.
    pub fn new(rows: usize, cols: usize) -> Self {
        TraditionalPe {
            array: TcamArray::new(rows, cols),
            tags: TagVector::zeros(rows),
            ops: OpCounts::default(),
        }
    }

    /// Number of word rows.
    pub fn rows(&self) -> usize {
        self.array.rows()
    }

    /// Number of bit columns.
    pub fn cols(&self) -> usize {
        self.array.cols()
    }

    /// Current tags.
    pub fn tags(&self) -> &TagVector {
        &self.tags
    }

    /// Accumulated operation counts.
    pub fn op_counts(&self) -> OpCounts {
        self.ops
    }

    /// Clear the operation counters.
    pub fn reset_ops(&mut self) {
        self.ops = OpCounts::default();
    }

    /// Search: overwrites the tags (no accumulation unit).
    ///
    /// # Panics
    ///
    /// Panics if the key contains a `Z` bit — the traditional key register
    /// only stores 0/1/masked.
    pub fn search(&mut self, key: &SearchKey) {
        assert!(
            key.bits().iter().all(|b| *b != KeyBit::Z),
            "traditional AP key register has no Z state"
        );
        let (array, tags) = (&self.array, &mut self.tags);
        array.search_into(key, tags);
        self.ops.searches += 1;
        self.ops.set_keys += 1;
    }

    /// Write `value` into column `col` of every tagged word.
    ///
    /// # Panics
    ///
    /// Panics if `value` is `Z` (no ternary storage) or `col` out of range.
    pub fn write(&mut self, col: usize, value: KeyBit) {
        assert!(value != KeyBit::Z, "traditional AP cannot store X");
        assert!(col < self.cols(), "write column {col} out of range");
        if let Some(v) = value.write_value() {
            self.array.write_column(col, v, &self.tags);
        }
        self.ops.writes_single += 1;
    }

    /// Population count of the tags.
    pub fn count(&mut self) -> usize {
        self.ops.counts += 1;
        self.tags.count()
    }

    /// Priority-encoded first tagged index.
    pub fn index(&mut self) -> Option<usize> {
        self.ops.indexes += 1;
        self.tags.first_index()
    }

    /// Set all tags.
    pub fn tag_all(&mut self) {
        self.tags = TagVector::ones(self.rows());
        self.ops.tag_ops += 1;
    }

    /// Host load of a plain bit.
    pub fn load_bit(&mut self, row: usize, col: usize, value: bool) {
        self.array.set_cell(row, col, TernaryBit::from_bool(value));
    }

    /// Host read of a plain bit (`None` if `X`, which traditional AP never
    /// writes but a test may have loaded).
    pub fn read_bit(&self, row: usize, col: usize) -> Option<bool> {
        self.array.cell(row, col).to_bool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyper_search_accumulates_when_enabled() {
        let mut pe = HyperPe::new(4, 4);
        for row in 0..4 {
            pe.load_bit(row, 0, row % 2 == 0); // col0: 1,0,1,0
            pe.load_bit(row, 1, row >= 2); // col1: 0,0,1,1
        }
        let k0 = SearchKey::parse("1---").unwrap();
        let k1 = SearchKey::parse("-1--").unwrap();
        pe.search(&k0, false);
        assert_eq!(pe.tags().iter_set().collect::<Vec<_>>(), vec![0, 2]);
        pe.search(&k1, true); // OR in rows 2,3
        assert_eq!(pe.tags().iter_set().collect::<Vec<_>>(), vec![0, 2, 3]);
        pe.search(&k1, false); // overwrite
        assert_eq!(pe.tags().iter_set().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn hyper_write_touches_only_tagged_rows() {
        let mut pe = HyperPe::new(3, 2);
        pe.load_bit(1, 0, true);
        pe.search(&SearchKey::parse("1-").unwrap(), false);
        pe.write(1, KeyBit::One);
        assert_eq!(pe.read_bit(0, 1), Some(false));
        assert_eq!(pe.read_bit(1, 1), Some(true));
        assert_eq!(pe.read_bit(2, 1), Some(false));
    }

    #[test]
    fn encoded_write_stores_latch_tag_pair() {
        let mut pe = HyperPe::new(2, 4);
        pe.load_bit(0, 0, true); // row0 hi=1
        pe.load_bit(1, 1, true); // row1 lo=1
        pe.search(&SearchKey::parse("1---").unwrap(), false); // tags = row0
        pe.latch_tags();
        pe.search(&SearchKey::parse("-1--").unwrap(), false); // tags = row1
        pe.write_encoded(2);
        assert_eq!(
            pe.try_read_encoded_pair(0, 2).expect("valid two-bit code"),
            (true, false)
        );
        assert_eq!(
            pe.try_read_encoded_pair(1, 2).expect("valid two-bit code"),
            (false, true)
        );
        assert_eq!(pe.op_counts().writes_encoded, 1);
    }

    #[test]
    fn op_counting_matches_actions() {
        let mut pe = HyperPe::new(2, 4);
        pe.search(&SearchKey::masked(4), false);
        pe.search(&SearchKey::masked(4), true);
        pe.tag_all();
        pe.write(0, KeyBit::One);
        pe.count();
        pe.index();
        let ops = pe.op_counts();
        assert_eq!(ops.searches, 2);
        assert_eq!(ops.set_keys, 2);
        assert_eq!(ops.writes_single, 1);
        assert_eq!(ops.counts, 1);
        assert_eq!(ops.indexes, 1);
        assert_eq!(ops.tag_ops, 1);
        pe.reset_ops();
        assert_eq!(pe.op_counts(), OpCounts::default());
    }

    #[test]
    fn count_and_index_reduce_tags() {
        let mut pe = HyperPe::new(8, 2);
        for row in [1, 4, 6] {
            pe.load_bit(row, 0, true);
        }
        pe.search(&SearchKey::parse("1-").unwrap(), false);
        assert_eq!(pe.count(), 3);
        assert_eq!(pe.index(), Some(1));
    }

    #[test]
    #[should_panic(expected = "no Z state")]
    fn traditional_rejects_z_key() {
        let mut pe = TraditionalPe::new(2, 2);
        pe.search(&SearchKey::parse("Z-").unwrap());
    }

    #[test]
    #[should_panic(expected = "cannot store X")]
    fn traditional_rejects_x_write() {
        let mut pe = TraditionalPe::new(2, 2);
        pe.tag_all();
        pe.write(0, KeyBit::Z);
    }

    #[test]
    fn traditional_search_always_overwrites() {
        let mut pe = TraditionalPe::new(2, 2);
        pe.load_bit(0, 0, true);
        pe.load_bit(1, 1, true);
        pe.search(&SearchKey::parse("1-").unwrap());
        assert!(pe.tags().get(0) && !pe.tags().get(1));
        pe.search(&SearchKey::parse("-1").unwrap());
        assert!(!pe.tags().get(0) && pe.tags().get(1));
    }

    #[test]
    fn load_and_read_encoded_pair_round_trip() {
        let mut pe = HyperPe::new(1, 2);
        for (hi, lo) in [(false, false), (false, true), (true, false), (true, true)] {
            pe.load_encoded_pair(0, 0, hi, lo);
            assert_eq!(
                pe.try_read_encoded_pair(0, 0).expect("valid two-bit code"),
                (hi, lo)
            );
        }
    }
}

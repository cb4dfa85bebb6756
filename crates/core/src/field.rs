//! Data layout: logical bits → physical TCAM columns.
//!
//! Vectors are stored column-wise, one element per word row (Fig 2a). A
//! logical bit lives either in a plain column or as one half of a
//! two-bit-encoded pair occupying two adjacent physical columns (Fig 5a).
//! The compiler chooses which operand bits to pair (§V-B4a); the microcode
//! layer pairs same-index operand bits like the paper's examples.

use crate::machine::HyperPe;

/// Physical placement of one logical bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// A plain bit stored directly in column `col`.
    Single {
        /// The physical column.
        col: usize,
    },
    /// The high half of a two-bit-encoded pair occupying columns
    /// `col`, `col + 1`.
    PairHi {
        /// First physical column of the pair.
        col: usize,
    },
    /// The low half of a two-bit-encoded pair occupying columns
    /// `col`, `col + 1`.
    PairLo {
        /// First physical column of the pair.
        col: usize,
    },
}

impl Slot {
    /// First physical column this slot touches.
    pub fn base_col(self) -> usize {
        match self {
            Slot::Single { col } | Slot::PairHi { col } | Slot::PairLo { col } => col,
        }
    }

    /// All physical columns this slot's storage occupies.
    pub fn columns(self) -> Vec<usize> {
        match self {
            Slot::Single { col } => vec![col],
            Slot::PairHi { col } | Slot::PairLo { col } => vec![col, col + 1],
        }
    }

    /// Is this slot half of an encoded pair?
    pub fn is_paired(self) -> bool {
        !matches!(self, Slot::Single { .. })
    }
}

/// A named multi-bit value: slots LSB first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Human-readable name (for diagnostics).
    pub name: String,
    /// Bit slots, least-significant bit first.
    pub slots: Vec<Slot>,
}

impl Field {
    /// A field over explicit slots.
    pub fn new(name: impl Into<String>, slots: Vec<Slot>) -> Self {
        Field {
            name: name.into(),
            slots,
        }
    }

    /// Bit width.
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// The slot of bit `i` (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn slot(&self, i: usize) -> Slot {
        self.slots[i]
    }

    /// A sub-field of bits `range` (e.g. for a shifted view: `x >> k` is
    /// `x.bits(k..x.width())`). Views are free — shifts compile to layout
    /// renaming, not data movement.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn bits(&self, range: std::ops::Range<usize>) -> Field {
        Field {
            name: format!("{}[{}..{}]", self.name, range.start, range.end),
            slots: self.slots[range].to_vec(),
        }
    }

    /// Store `value` into this field at `row` via the host load path.
    ///
    /// Pair slots re-encode around the partner bit currently stored, so
    /// fields sharing pairs can be loaded independently.
    pub fn store(&self, pe: &mut HyperPe, row: usize, value: u64) {
        for (i, slot) in self.slots.iter().enumerate() {
            let bit = value >> i & 1 == 1;
            match *slot {
                Slot::Single { col } => pe.load_bit(row, col, bit),
                Slot::PairHi { col } => {
                    let (_, lo) = pe.try_read_encoded_pair(row, col).unwrap_or((false, false));
                    pe.load_encoded_pair(row, col, bit, lo);
                }
                Slot::PairLo { col } => {
                    let (hi, _) = pe.try_read_encoded_pair(row, col).unwrap_or((false, false));
                    pe.load_encoded_pair(row, col, hi, bit);
                }
            }
        }
    }

    /// Read this field's value at `row`.
    ///
    /// # Panics
    ///
    /// Panics if a plain cell stores `X` (never the case for microcode
    /// results) or a pair holds an invalid code; see
    /// [`try_read`](Self::try_read).
    pub fn read(&self, pe: &HyperPe, row: usize) -> u64 {
        self.try_read(pe, row).unwrap_or_else(|| {
            panic!(
                "field {} at row {row} holds an X or invalid pair",
                self.name
            )
        })
    }

    /// Read this field's value at `row`, or `None` if a plain cell stores
    /// `X` or a pair does not hold a valid two-bit code (e.g. a pair that
    /// was never written). Consecutive slots over the same pair share one
    /// decode.
    pub fn try_read(&self, pe: &HyperPe, row: usize) -> Option<u64> {
        let mut last: Option<(usize, (bool, bool))> = None;
        let mut pair = |col: usize| match last {
            Some((c, bits)) if c == col => Some(bits),
            _ => {
                let bits = pe.try_read_encoded_pair(row, col)?;
                last = Some((col, bits));
                Some(bits)
            }
        };
        let mut v = 0u64;
        for (i, slot) in self.slots.iter().enumerate() {
            let bit = match *slot {
                Slot::Single { col } => pe.read_bit(row, col)?,
                Slot::PairHi { col } => pair(col)?.0,
                Slot::PairLo { col } => pair(col)?.1,
            };
            v |= u64::from(bit) << i;
        }
        Some(v)
    }
}

/// Column allocator for one PE's 256 columns, with recycling.
///
/// Freshly allocated columns are guaranteed to hold all-zero (the array's
/// initial state). Recycled columns are returned as *dirty*; callers must
/// zero them (the microcode context does, emitting the corresponding write
/// operations, because on real hardware that costs a write per column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldAllocator {
    n_cols: usize,
    next_fresh: usize,
    free_dirty: Vec<usize>,
}

impl FieldAllocator {
    /// Allocator over `n_cols` physical columns.
    pub fn new(n_cols: usize) -> Self {
        FieldAllocator {
            n_cols,
            next_fresh: 0,
            free_dirty: Vec::new(),
        }
    }

    /// Columns not yet handed out (fresh + recycled).
    pub fn available(&self) -> usize {
        (self.n_cols - self.next_fresh) + self.free_dirty.len()
    }

    /// Allocate one column; returns `(col, dirty)`.
    ///
    /// # Panics
    ///
    /// Panics if the PE is out of columns.
    pub fn alloc_col(&mut self) -> (usize, bool) {
        // Fresh columns are free (the array initializes to zero); recycled
        // ones cost a zeroing write. Prefer fresh while headroom is ample,
        // switch to recycling when the fresh region runs low so that large
        // kernels fit and encoded pairs keep adjacent fresh runs available.
        let low_headroom = self.next_fresh * 4 >= self.n_cols * 3;
        if low_headroom {
            if let Some(col) = self.free_dirty.pop() {
                return (col, true);
            }
        }
        if self.next_fresh < self.n_cols {
            self.next_fresh += 1;
            (self.next_fresh - 1, false)
        } else if let Some(col) = self.free_dirty.pop() {
            (col, true)
        } else {
            panic!("PE out of columns ({} available)", self.n_cols);
        }
    }

    /// Allocate a plain field of `width` bits; returns the field and the
    /// dirty columns that need zeroing.
    pub fn alloc_plain(&mut self, name: impl Into<String>, width: usize) -> (Field, Vec<usize>) {
        let mut slots = Vec::with_capacity(width);
        let mut dirty = Vec::new();
        for _ in 0..width {
            let (col, d) = self.alloc_col();
            if d {
                dirty.push(col);
            }
            slots.push(Slot::Single { col });
        }
        (Field::new(name, slots), dirty)
    }

    /// Allocate two fields of `width` bits stored as encoded pairs: bit `i`
    /// of the first field is the pair-high, bit `i` of the second the
    /// pair-low, in columns `(2i, 2i+1)` of a 2·width column run.
    ///
    /// Returns the two fields and dirty columns needing zero-encoding.
    pub fn alloc_paired(
        &mut self,
        name_hi: impl Into<String>,
        name_lo: impl Into<String>,
        width: usize,
    ) -> (Field, Field, Vec<usize>) {
        let mut hi = Vec::with_capacity(width);
        let mut lo = Vec::with_capacity(width);
        let mut dirty = Vec::new();
        for _ in 0..width {
            let (c0, was_dirty) = self.alloc_adjacent_pair();
            if was_dirty {
                dirty.push(c0);
                dirty.push(c0 + 1);
            }
            hi.push(Slot::PairHi { col: c0 });
            lo.push(Slot::PairLo { col: c0 });
        }
        (Field::new(name_hi, hi), Field::new(name_lo, lo), dirty)
    }

    /// Allocate two **adjacent** columns (for an encoded pair); prefers an
    /// adjacent recycled pair, falls back to fresh columns.
    ///
    /// # Panics
    ///
    /// Panics if neither two fresh columns nor an adjacent recycled pair is
    /// available.
    fn alloc_adjacent_pair(&mut self) -> (usize, bool) {
        // Prefer an adjacent recycled pair (e.g. a previously freed encoded
        // field) to keep the live footprint low.
        let mut sorted: Vec<usize> = self.free_dirty.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[1] == w[0] + 1 {
                self.free_dirty.retain(|&c| c != w[0] && c != w[1]);
                return (w[0], true);
            }
        }
        if self.next_fresh + 1 < self.n_cols {
            let c = self.next_fresh;
            self.next_fresh += 2;
            return (c, false);
        }
        panic!("PE out of adjacent column pairs ({} columns)", self.n_cols);
    }

    /// Return a field's columns to the free pool (as dirty).
    ///
    /// Columns already in the pool and columns never handed out are skipped,
    /// so freeing overlapping views is safe.
    pub fn free(&mut self, field: &Field) {
        let mut cols: Vec<usize> = field.slots.iter().flat_map(|s| s.columns()).collect();
        cols.sort_unstable();
        cols.dedup();
        for col in cols {
            if col < self.next_fresh && !self.free_dirty.contains(&col) {
                self.free_dirty.push(col);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_field_store_read_round_trip() {
        let mut pe = HyperPe::new(2, 16);
        let mut alloc = FieldAllocator::new(16);
        let (f, dirty) = alloc.alloc_plain("x", 8);
        assert!(dirty.is_empty());
        f.store(&mut pe, 0, 0xA5);
        f.store(&mut pe, 1, 0x3C);
        assert_eq!(f.read(&pe, 0), 0xA5);
        assert_eq!(f.read(&pe, 1), 0x3C);
    }

    #[test]
    fn paired_fields_are_independent() {
        let mut pe = HyperPe::new(1, 16);
        let mut alloc = FieldAllocator::new(16);
        let (a, b, _) = alloc.alloc_paired("a", "b", 4);
        a.store(&mut pe, 0, 0b1010);
        b.store(&mut pe, 0, 0b0110);
        assert_eq!(a.read(&pe, 0), 0b1010);
        assert_eq!(b.read(&pe, 0), 0b0110);
        a.store(&mut pe, 0, 0b0001);
        assert_eq!(b.read(&pe, 0), 0b0110, "partner unchanged");
    }

    #[test]
    fn try_read_is_none_for_an_unwritten_pair() {
        let mut pe = HyperPe::new(2, 8);
        let mut alloc = FieldAllocator::new(8);
        let (hi, lo, _) = alloc.alloc_paired("hi", "lo", 2);
        // Fresh columns store `0 0`: not a two-bit code.
        assert_eq!(hi.try_read(&pe, 0), None);
        assert_eq!(lo.try_read(&pe, 1), None);
        hi.store(&mut pe, 0, 0b10);
        lo.store(&mut pe, 0, 0b11);
        assert_eq!(hi.try_read(&pe, 0), Some(0b10));
        assert_eq!(lo.try_read(&pe, 0), Some(0b11));
        assert_eq!(hi.try_read(&pe, 1), None, "row 1 was never written");
    }

    #[test]
    fn try_read_is_none_for_an_x_cell() {
        let mut pe = HyperPe::new(2, 8);
        let mut alloc = FieldAllocator::new(8);
        let (f, _) = alloc.alloc_plain("x", 4);
        f.store(&mut pe, 0, 0b1011);
        f.store(&mut pe, 1, 0b0101);
        assert_eq!(f.try_read(&pe, 0), Some(0b1011));
        pe.tag_all();
        pe.write(2, hyperap_tcam::bit::KeyBit::Z); // every row's bit 2 := X
        assert_eq!(f.try_read(&pe, 0), None);
        assert_eq!(f.try_read(&pe, 1), None);
        assert_eq!(
            f.bits(0..2).try_read(&pe, 1),
            Some(0b01),
            "X outside the view"
        );
    }

    #[test]
    #[should_panic(expected = "holds an X or invalid pair")]
    fn read_panics_where_try_read_is_none() {
        let pe = HyperPe::new(1, 4);
        let (hi, _, _) = FieldAllocator::new(4).alloc_paired("hi", "lo", 1);
        hi.read(&pe, 0);
    }

    #[test]
    fn bits_view_is_a_shift() {
        let mut alloc = FieldAllocator::new(16);
        let (f, _) = alloc.alloc_plain("x", 8);
        let hi = f.bits(3..8);
        assert_eq!(hi.width(), 5);
        assert_eq!(hi.slot(0), f.slot(3));
    }

    #[test]
    fn allocator_recycles_dirty() {
        let mut alloc = FieldAllocator::new(4);
        let (f, dirty) = alloc.alloc_plain("a", 4);
        assert!(dirty.is_empty());
        alloc.free(&f);
        let (_, dirty2) = alloc.alloc_plain("b", 4);
        assert_eq!(dirty2.len(), 4, "recycled columns are dirty");
    }

    #[test]
    #[should_panic(expected = "out of columns")]
    fn allocator_exhaustion_panics() {
        let mut alloc = FieldAllocator::new(2);
        let _ = alloc.alloc_plain("a", 3);
    }

    #[test]
    fn slot_columns() {
        assert_eq!(Slot::Single { col: 3 }.columns(), vec![3]);
        assert_eq!(Slot::PairHi { col: 4 }.columns(), vec![4, 5]);
        assert!(Slot::PairLo { col: 4 }.is_paired());
        assert!(!Slot::Single { col: 0 }.is_paired());
    }
}

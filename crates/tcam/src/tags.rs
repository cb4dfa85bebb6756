//! Tag registers and the reduction tree (Fig 1a / Fig 4a / Fig 7).
//!
//! One tag bit per word row. The Hyper-AP accumulation unit ORs a new search
//! result into the existing tags (Fig 4c); the reduction tree provides the
//! population count (`Count` instruction, adder tree) and priority encoding
//! (`Index` instruction).

/// A bit-vector of per-row tags.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TagVector {
    blocks: Vec<u64>,
    len: usize,
}

impl TagVector {
    /// All-zero tags for `len` rows.
    pub fn zeros(len: usize) -> Self {
        TagVector {
            blocks: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-one tags for `len` rows.
    pub fn ones(len: usize) -> Self {
        let mut t = Self::zeros(len);
        for (i, b) in t.blocks.iter_mut().enumerate() {
            let remaining = len - i * 64;
            *b = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
        }
        t
    }

    /// Build from an iterator of booleans, packing 64-row blocks directly
    /// as the iterator is drained (no intermediate `Vec<bool>`, no
    /// bit-at-a-time `set` calls).
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let (lo, _) = iter.size_hint();
        let mut blocks = Vec::with_capacity(lo.div_ceil(64));
        let mut len = 0usize;
        let mut cur = 0u64;
        for b in iter {
            if b {
                cur |= 1u64 << (len % 64);
            }
            len += 1;
            if len.is_multiple_of(64) {
                blocks.push(cur);
                cur = 0;
            }
        }
        if !len.is_multiple_of(64) {
            blocks.push(cur);
        }
        TagVector { blocks, len }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tag for `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len`.
    pub fn get(&self, row: usize) -> bool {
        assert!(row < self.len, "tag row {row} out of range {}", self.len);
        self.blocks[row / 64] >> (row % 64) & 1 == 1
    }

    /// Set the tag for `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len`.
    pub fn set(&mut self, row: usize, value: bool) {
        assert!(row < self.len, "tag row {row} out of range {}", self.len);
        let mask = 1u64 << (row % 64);
        if value {
            self.blocks[row / 64] |= mask;
        } else {
            self.blocks[row / 64] &= !mask;
        }
    }

    /// OR another tag vector into this one (the accumulation unit, Fig 4c).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn accumulate(&mut self, other: &TagVector) {
        assert_eq!(self.len, other.len, "tag length mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Population count — the `Count` instruction (adder tree).
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Index of the first tagged row — the `Index` instruction (priority
    /// encoder). `None` if no row is tagged.
    pub fn first_index(&self) -> Option<usize> {
        for (i, b) in self.blocks.iter().enumerate() {
            if *b != 0 {
                return Some(i * 64 + b.trailing_zeros() as usize);
            }
        }
        None
    }

    /// True if any row is tagged.
    pub fn any(&self) -> bool {
        self.blocks.iter().any(|b| *b != 0)
    }

    /// Iterate over the indices of tagged rows.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// Overwrite this vector with the contents of `src` without allocating
    /// (the hot-path alternative to `*self = src.clone()`).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn copy_from(&mut self, src: &TagVector) {
        assert_eq!(self.len, src.len, "tag length mismatch");
        self.blocks.copy_from_slice(&src.blocks);
    }

    /// Clear all tags.
    pub fn clear(&mut self) {
        for b in &mut self.blocks {
            *b = 0;
        }
    }

    /// Raw 64-row blocks (LSB of block 0 = row 0).
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Mutable raw blocks, for bulk bit-parallel updates. Bits at positions
    /// `>= len` in the last block must be left zero.
    pub fn blocks_mut(&mut self) -> &mut [u64] {
        &mut self.blocks
    }
}

impl FromIterator<bool> for TagVector {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        Self::from_bools(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = TagVector::zeros(70);
        assert_eq!(z.count(), 0);
        assert!(!z.any());
        let o = TagVector::ones(70);
        assert_eq!(o.count(), 70);
        assert_eq!(o.first_index(), Some(0));
    }

    #[test]
    fn ones_does_not_set_padding_bits() {
        let o = TagVector::ones(65);
        assert_eq!(o.blocks()[1], 1);
    }

    #[test]
    fn tail_block_semantics_for_non_multiple_of_64_rows() {
        // Row counts that leave a partial final 64-bit block: the reduction
        // tree (count), priority encoder (first_index), and ones() must all
        // treat the padding bits as nonexistent.
        for len in [1usize, 63, 65, 100, 127, 130] {
            let o = TagVector::ones(len);
            assert_eq!(o.count(), len, "ones({len}).count()");
            assert_eq!(o.first_index(), Some(0), "ones({len}).first_index()");
            let last = *o.blocks().last().unwrap();
            if len % 64 != 0 {
                assert_eq!(
                    last,
                    (1u64 << (len % 64)) - 1,
                    "ones({len}) padding bits must stay zero"
                );
            }
            // Priority-encode a tag in the tail block specifically.
            let mut t = TagVector::zeros(len);
            t.set(len - 1, true);
            assert_eq!(t.first_index(), Some(len - 1), "tail row of len {len}");
            assert_eq!(t.count(), 1);
            assert!(t.any());
            t.set(len - 1, false);
            assert_eq!(t.count(), 0, "clearing the tail row empties len {len}");
            assert_eq!(t.first_index(), None);
        }
    }

    #[test]
    fn tail_block_accumulate_and_intersect_preserve_padding() {
        let mut a = TagVector::ones(70);
        let b = TagVector::ones(70);
        a.accumulate(&b);
        assert_eq!(a.count(), 70);
        assert_eq!(a.blocks()[1], (1u64 << 6) - 1, "OR left padding zero");
        assert_eq!(a.iter_set().last(), Some(69));
    }

    #[test]
    fn from_bools_packs_blocks_directly() {
        let t = TagVector::from_bools((0..130).map(|i| i % 2 == 0));
        assert_eq!(t.len(), 130);
        assert_eq!(t.count(), 65);
        assert_eq!(t.blocks().len(), 3);
        assert_eq!(t.blocks()[0], 0x5555_5555_5555_5555);
        assert_eq!(t.blocks()[2] >> 2, 0, "padding bits stay zero");
        assert_eq!(t, (0..130).map(|i| i % 2 == 0).collect::<TagVector>());
        let empty = TagVector::from_bools(std::iter::empty());
        assert!(empty.is_empty());
        assert!(empty.blocks().is_empty());
    }

    #[test]
    fn set_get_round_trip() {
        let mut t = TagVector::zeros(100);
        t.set(63, true);
        t.set(64, true);
        t.set(99, true);
        assert!(t.get(63) && t.get(64) && t.get(99));
        assert!(!t.get(0));
        assert_eq!(t.count(), 3);
        t.set(64, false);
        assert_eq!(t.count(), 2);
    }

    #[test]
    fn accumulate_is_or() {
        let mut a = TagVector::from_bools([true, false, true, false]);
        let b = TagVector::from_bools([false, false, true, true]);
        a.accumulate(&b);
        assert_eq!(
            (0..4).map(|i| a.get(i)).collect::<Vec<_>>(),
            vec![true, false, true, true]
        );
    }

    #[test]
    fn first_index_is_priority_encoder() {
        let mut t = TagVector::zeros(200);
        assert_eq!(t.first_index(), None);
        t.set(130, true);
        t.set(70, true);
        assert_eq!(t.first_index(), Some(70));
    }

    #[test]
    fn iter_set_yields_tagged_rows() {
        let t = TagVector::from_bools([false, true, false, true, true]);
        assert_eq!(t.iter_set().collect::<Vec<_>>(), vec![1, 3, 4]);
    }

    #[test]
    fn copy_from_reuses_storage() {
        let mut dst = TagVector::ones(100);
        let src = TagVector::from_bools((0..100).map(|i| i % 3 == 0));
        let ptr = dst.blocks().as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.blocks().as_ptr(), ptr, "no reallocation");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_length_mismatch_panics() {
        TagVector::zeros(4).copy_from(&TagVector::zeros(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        TagVector::zeros(4).get(4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accumulate_length_mismatch_panics() {
        TagVector::zeros(4).accumulate(&TagVector::zeros(5));
    }
}

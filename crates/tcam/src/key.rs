//! Search keys: a key register + mask register pair (Fig 1a / Fig 4a).
//!
//! The paper stores the three traditional key-bit states (0, 1, masked) in
//! two registers (key + mask) and reuses the spare combination for the `Z`
//! input (§VI-B: "one combination of these two bits are not used. In
//! Hyper-AP, we use this combination to store the additional Z input state").
//! [`SearchKey`] is the logical view of that pair.

use crate::bit::KeyBit;

/// A search/write key over a word of TCAM columns.
///
/// Unspecified (masked) columns do not participate in a search and are left
/// untouched by a write.
#[derive(Debug, Clone)]
pub struct SearchKey {
    bits: Vec<KeyBit>,
}

impl std::hash::Hash for SearchKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bits.hash(state);
    }
}

impl PartialEq for SearchKey {
    fn eq(&self, other: &Self) -> bool {
        // Accumulate with a non-short-circuiting `&` instead of the
        // derived per-element compare: keys are the bulk of an
        // instruction stream's bytes (a 256-column immediate per
        // `SetKey`), and the serving layer's program cache confirms every
        // hit by comparing whole streams — the branch-free reduction
        // vectorizes, the early-exit loop does not (~10× slower at
        // stream scale).
        self.bits.len() == other.bits.len()
            && self
                .bits
                .iter()
                .zip(&other.bits)
                .fold(true, |acc, (a, b)| acc & (a == b))
    }
}

impl Eq for SearchKey {}

impl SearchKey {
    /// A fully-masked key over `width` columns.
    pub fn masked(width: usize) -> Self {
        SearchKey {
            bits: vec![KeyBit::Masked; width],
        }
    }

    /// Build from explicit key bits.
    pub fn from_bits(bits: Vec<KeyBit>) -> Self {
        SearchKey { bits }
    }

    /// Parse from a string of `0`, `1`, `Z` and `-` characters
    /// (underscores ignored).
    ///
    /// # Errors
    ///
    /// Returns the offending character on invalid input.
    ///
    /// # Example
    /// ```
    /// let k = hyperap_tcam::SearchKey::parse("1Z-0").unwrap();
    /// assert_eq!(k.width(), 4);
    /// ```
    pub fn parse(s: &str) -> Result<Self, char> {
        let bits = s
            .chars()
            .filter(|&c| c != '_')
            .map(|c| KeyBit::from_char(c).ok_or(c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SearchKey { bits })
    }

    /// Number of columns this key spans.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The key bits.
    pub fn bits(&self) -> &[KeyBit] {
        &self.bits
    }

    /// The key bit for a column (`Masked` if out of range).
    pub fn bit(&self, col: usize) -> KeyBit {
        self.bits.get(col).copied().unwrap_or(KeyBit::Masked)
    }

    /// Set the key bit for `col`, growing the key with masked bits if needed.
    pub fn set_bit(&mut self, col: usize, bit: KeyBit) {
        if col >= self.bits.len() {
            self.bits.resize(col + 1, KeyBit::Masked);
        }
        self.bits[col] = bit;
    }

    /// Builder-style [`set_bit`](Self::set_bit).
    #[must_use]
    pub fn with_bit(mut self, col: usize, bit: KeyBit) -> Self {
        self.set_bit(col, bit);
        self
    }

    /// Set `width` consecutive bits starting at `col` to the binary value
    /// `value` (LSB at `col`).
    pub fn set_field(&mut self, col: usize, width: usize, value: u64) {
        for i in 0..width {
            self.set_bit(col + i, KeyBit::from(value >> i & 1 == 1));
        }
    }

    /// Overwrite this key with the contents of `src`, reusing the existing
    /// bit storage (the hot-path alternative to `*self = src.clone()`).
    pub fn copy_from(&mut self, src: &SearchKey) {
        self.bits.clone_from(&src.bits);
    }

    /// Indices of the unmasked (active) columns.
    pub fn active_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, b)| **b != KeyBit::Masked)
            .map(|(i, _)| i)
    }

    /// `(column, bit)` pairs of the unmasked columns, in ascending column
    /// order — the input to a precompiled search plan
    /// (`TcamArray::search_plan_into`).
    pub fn active_bits(&self) -> impl Iterator<Item = (usize, KeyBit)> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, b)| **b != KeyBit::Masked)
            .map(|(i, b)| (i, *b))
    }

    /// Collect the unmasked `(column, bit)` pairs into `out` (cleared
    /// first), reusing its storage — the plan-cache refill path shared by
    /// the interpreter's per-`SetKey` cache and the trace compiler
    /// (`TcamArray::search_plan_into` consumes the result).
    pub fn plan_into(&self, out: &mut Vec<(usize, KeyBit)>) {
        out.clear();
        out.extend(self.active_bits());
    }

    /// Allocating variant of [`plan_into`](Self::plan_into): build a fresh
    /// precompiled search plan for this key.
    pub fn compile_plan(&self) -> Vec<(usize, KeyBit)> {
        self.active_bits().collect()
    }

    /// Number of unmasked columns.
    pub fn active_count(&self) -> usize {
        self.active_columns().count()
    }
}

impl std::fmt::Display for SearchKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.bits {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromIterator<KeyBit> for SearchKey {
    fn from_iter<T: IntoIterator<Item = KeyBit>>(iter: T) -> Self {
        SearchKey {
            bits: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        let s = "10Z-0-1Z";
        assert_eq!(SearchKey::parse(s).unwrap().to_string(), s);
    }

    #[test]
    fn parse_rejects_bad_chars() {
        assert_eq!(SearchKey::parse("10#"), Err('#'));
    }

    #[test]
    fn set_bit_grows() {
        let mut k = SearchKey::masked(2);
        k.set_bit(5, KeyBit::One);
        assert_eq!(k.width(), 6);
        assert_eq!(k.bit(5), KeyBit::One);
        assert_eq!(k.bit(3), KeyBit::Masked);
    }

    #[test]
    fn set_field_is_lsb_first() {
        let mut k = SearchKey::masked(8);
        k.set_field(2, 3, 0b101);
        assert_eq!(k.to_string(), "--101---");
    }

    #[test]
    fn active_columns_skips_masked() {
        let k = SearchKey::parse("-1-Z").unwrap();
        assert_eq!(k.active_columns().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(k.active_count(), 2);
    }

    #[test]
    fn copy_from_reuses_storage_when_widths_match() {
        let mut dst = SearchKey::masked(8);
        let src = SearchKey::parse("10Z-10Z-").unwrap();
        let ptr = dst.bits().as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.bits().as_ptr(), ptr, "no reallocation");
    }

    #[test]
    fn plan_into_matches_compile_plan_and_reuses_storage() {
        let k = SearchKey::parse("1-Z0--1-").unwrap();
        let plan = k.compile_plan();
        assert_eq!(
            plan,
            vec![
                (0, KeyBit::One),
                (2, KeyBit::Z),
                (3, KeyBit::Zero),
                (6, KeyBit::One)
            ]
        );
        let mut reused = Vec::with_capacity(8);
        let ptr = reused.as_ptr();
        k.plan_into(&mut reused);
        assert_eq!(reused, plan);
        assert_eq!(reused.as_ptr(), ptr, "no reallocation within capacity");
        SearchKey::masked(4).plan_into(&mut reused);
        assert!(reused.is_empty(), "fully-masked key compiles to no steps");
    }

    #[test]
    fn out_of_range_bit_is_masked() {
        let k = SearchKey::masked(2);
        assert_eq!(k.bit(100), KeyBit::Masked);
    }
}

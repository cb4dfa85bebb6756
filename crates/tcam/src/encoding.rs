//! The extended two-bit encoding technique (Fig 5).
//!
//! The original technique of Li et al. \[39\] encodes a pair of data bits into
//! a pair of TCAM cells (Fig 5a) so that the four original values map to the
//! ternary codes `X0`, `X1`, `0X`, `1X`. Its search keys (Fig 5b) still match
//! exactly one original value per pair. The paper's extension (Fig 5c) adds
//! search keys — made possible by the ternary key register (`Z` and masked
//! bits) — such that one key over an encoded pair can match an *arbitrary
//! subset* of the four original values. [`PairSubset`] formalizes that
//! algebra; [`key_for_subset`] proves the completeness claim constructively
//! (all 15 non-empty subsets are reachable), which is the basis of
//! Single-Search-Multi-Pattern.

use crate::bit::{KeyBit, TernaryBit};

/// Encode one original pair of data bits into its two-bit-encoded TCAM pair
/// (Fig 5a): `00 ↦ X0`, `01 ↦ X1`, `10 ↦ 0X`, `11 ↦ 1X`.
///
/// Bit order: `(b1, b0)` are the (MSB, LSB) of the original pair value; the
/// returned array is the two stored cells `[c1, c0]` in the same order used
/// by the figures (so the value `0b10` encodes to `0X`).
#[inline]
pub fn encode_pair(b1: bool, b0: bool) -> [TernaryBit; 2] {
    match (b1, b0) {
        (false, false) => [TernaryBit::X, TernaryBit::Zero], // 00 -> X0
        (false, true) => [TernaryBit::X, TernaryBit::One],   // 01 -> X1
        (true, false) => [TernaryBit::Zero, TernaryBit::X],  // 10 -> 0X
        (true, true) => [TernaryBit::One, TernaryBit::X],    // 11 -> 1X
    }
}

/// Decode an encoded TCAM pair back to the original pair value (0..=3),
/// or `None` if the cells do not hold a valid code.
#[inline]
pub fn decode_pair(cells: [TernaryBit; 2]) -> Option<u8> {
    use TernaryBit as T;
    match cells {
        [T::X, T::Zero] => Some(0b00),
        [T::X, T::One] => Some(0b01),
        [T::Zero, T::X] => Some(0b10),
        [T::One, T::X] => Some(0b11),
        _ => None,
    }
}

/// A subset of the four original pair values {00, 01, 10, 11}, stored as a
/// 4-bit mask (bit `v` set ⇔ value `v` in the subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairSubset(pub u8);

impl PairSubset {
    /// The empty subset (matches nothing — not a useful search key).
    pub const EMPTY: PairSubset = PairSubset(0);
    /// The full subset (equivalent to masking the pair out entirely).
    pub const FULL: PairSubset = PairSubset(0b1111);

    /// A singleton subset containing `value` (0..=3).
    ///
    /// # Panics
    ///
    /// Panics if `value > 3`.
    pub fn singleton(value: u8) -> Self {
        assert!(value < 4, "pair value must be 0..=3");
        PairSubset(1 << value)
    }

    /// Does this subset contain `value`?
    pub fn contains(self, value: u8) -> bool {
        self.0 >> value & 1 == 1
    }

    /// Union.
    #[must_use]
    pub fn union(self, other: PairSubset) -> PairSubset {
        PairSubset(self.0 | other.0)
    }

    /// Number of values in the subset.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True if the subset is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over the contained values.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        (0u8..4).filter(move |v| self.contains(*v))
    }
}

impl std::fmt::Display for PairSubset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for v in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{v:02b}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// The set of original pair values matched by the encoded search-key pair
/// `[k1, k0]` (in the same `(MSB cell, LSB cell)` order as [`encode_pair`]).
///
/// Derivation (Fig 4 semantics applied to the Fig 5a codes):
/// * encoded `00 = X0`: matched iff `k0 ∈ {0, -}` (k1 always matches `X`)
/// * encoded `01 = X1`: matched iff `k0 ∈ {1, -}`
/// * encoded `10 = 0X`: matched iff `k1 ∈ {0, -}`
/// * encoded `11 = 1X`: matched iff `k1 ∈ {1, -}`
pub fn key_coverage(key: [KeyBit; 2]) -> PairSubset {
    let [k1, k0] = key;
    let mut s = PairSubset::EMPTY;
    for v in 0u8..4 {
        let enc = encode_pair(v & 0b10 != 0, v & 1 != 0);
        if k1.matches(enc[0]) && k0.matches(enc[1]) {
            s = s.union(PairSubset::singleton(v));
        }
    }
    s
}

/// The encoded search key that matches *exactly* the given subset of original
/// pair values, or `None` for the empty subset.
///
/// This is the constructive form of the paper's Fig 5b+5c tables: with the
/// `Z` input and per-bit masking, **every** non-empty subset of
/// {00, 01, 10, 11} has exactly one covering key (see
/// the `all_15_subsets_reachable` test). `FULL` maps to a fully masked pair.
pub fn key_for_subset(subset: PairSubset) -> Option<[KeyBit; 2]> {
    use KeyBit as K;
    // k1 controls {10, 11} membership and can forbid both via Z;
    // k0 controls {00, 01} membership and can forbid both via Z.
    let has00 = subset.contains(0b00);
    let has01 = subset.contains(0b01);
    let has10 = subset.contains(0b10);
    let has11 = subset.contains(0b11);
    if subset.is_empty() {
        return None;
    }
    let k1 = match (has10, has11) {
        (true, true) => K::Masked,
        (true, false) => K::Zero,
        (false, true) => K::One,
        (false, false) => K::Z,
    };
    let k0 = match (has00, has01) {
        (true, true) => K::Masked,
        (true, false) => K::Zero,
        (false, true) => K::One,
        (false, false) => K::Z,
    };
    // A Z in one slot excludes its two values but also *requires* the other
    // slot to admit the X-encoded values it matches — verify and fall back to
    // exhaustive search if the direct construction over- or under-matches.
    let candidate = [k1, k0];
    if key_coverage(candidate) == subset {
        return Some(candidate);
    }
    for a in KeyBit::ALL {
        for b in KeyBit::ALL {
            if key_coverage([a, b]) == subset {
                return Some([a, b]);
            }
        }
    }
    None
}

/// The key bit matching exactly the given subset of {0, 1} for a non-encoded
/// bit (mask bit 0 = value 0, bit 1 = value 1). `None` for the empty subset.
pub fn single_key_for_subset(subset: PairSubset) -> Option<KeyBit> {
    match subset.0 & 0b11 {
        0b01 => Some(KeyBit::Zero),
        0b10 => Some(KeyBit::One),
        0b11 => Some(KeyBit::Masked),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn encode_table_fig5a() {
        use TernaryBit as T;
        assert_eq!(encode_pair(false, false), [T::X, T::Zero]);
        assert_eq!(encode_pair(false, true), [T::X, T::One]);
        assert_eq!(encode_pair(true, false), [T::Zero, T::X]);
        assert_eq!(encode_pair(true, true), [T::One, T::X]);
    }

    #[test]
    fn decode_inverts_encode() {
        for v in 0u8..4 {
            let enc = encode_pair(v & 2 != 0, v & 1 != 0);
            assert_eq!(decode_pair(enc), Some(v));
        }
        assert_eq!(decode_pair([TernaryBit::Zero, TernaryBit::Zero]), None);
        assert_eq!(decode_pair([TernaryBit::X, TernaryBit::X]), None);
    }

    #[test]
    fn original_keys_fig5b_match_single_values() {
        use KeyBit as K;
        // Fig 5b: Z0 -> 00, Z1 -> 01, 0Z -> 10, 1Z -> 11.
        assert_eq!(key_coverage([K::Z, K::Zero]), PairSubset::singleton(0b00));
        assert_eq!(key_coverage([K::Z, K::One]), PairSubset::singleton(0b01));
        assert_eq!(key_coverage([K::Zero, K::Z]), PairSubset::singleton(0b10));
        assert_eq!(key_coverage([K::One, K::Z]), PairSubset::singleton(0b11));
    }

    #[test]
    fn additional_keys_fig5c_match_multiple_values() {
        use KeyBit as K;
        // Fig 5c (first half): 00 -> {00,10}, 01 -> {01,10},
        //                      10 -> {00,11}, 11 -> {01,11}.
        assert_eq!(key_coverage([K::Zero, K::Zero]), PairSubset(0b0101));
        assert_eq!(key_coverage([K::Zero, K::One]), PairSubset(0b0110));
        assert_eq!(key_coverage([K::One, K::Zero]), PairSubset(0b1001));
        assert_eq!(key_coverage([K::One, K::One]), PairSubset(0b1010));
        // Fig 5c (second half): masked-bit keys match three values.
        assert_eq!(key_coverage([K::Zero, K::Masked]), PairSubset(0b0111)); // 00,01,10
        assert_eq!(key_coverage([K::One, K::Masked]), PairSubset(0b1011)); // 00,01,11
        assert_eq!(key_coverage([K::Masked, K::Zero]), PairSubset(0b1101)); // 00,10,11
        assert_eq!(key_coverage([K::Masked, K::One]), PairSubset(0b1110)); // 01,10,11
    }

    #[test]
    fn all_15_subsets_reachable() {
        // The completeness result behind Single-Search-Multi-Pattern: every
        // non-empty subset of original pair values has a covering key.
        let mut reachable = HashSet::new();
        for a in KeyBit::ALL {
            for b in KeyBit::ALL {
                reachable.insert(key_coverage([a, b]).0);
            }
        }
        for mask in 1u8..16 {
            assert!(reachable.contains(&mask), "subset {mask:04b} unreachable");
        }
    }

    #[test]
    fn key_for_subset_is_exact_for_all_subsets() {
        for mask in 1u8..16 {
            let subset = PairSubset(mask);
            let key = key_for_subset(subset).expect("non-empty subset must have a key");
            assert_eq!(key_coverage(key), subset, "subset {mask:04b}");
        }
        assert_eq!(key_for_subset(PairSubset::EMPTY), None);
    }

    #[test]
    fn full_subset_uses_masked_pair() {
        use KeyBit as K;
        assert_eq!(
            key_for_subset(PairSubset::FULL),
            Some([K::Masked, K::Masked])
        );
    }

    #[test]
    fn fig5d_example_search_keys() {
        use KeyBit as K;
        // Fig 5d, Sum: "Search 010" = key AB=01 covers {A=0B=1, A=1B=0}.
        let ab_01 = key_coverage([K::Zero, K::One]);
        assert!(ab_01.contains(0b01) && ab_01.contains(0b10));
        assert_eq!(ab_01.len(), 2);
        // "Search 101" = key AB=10 covers {00, 11}.
        let ab_10 = key_coverage([K::One, K::Zero]);
        assert!(ab_10.contains(0b00) && ab_10.contains(0b11));
        // Fig 5d, Cout first search: AB="-1" covers {01,10,11}.
        let ab_m1 = key_coverage([K::Masked, K::One]);
        assert_eq!(ab_m1, PairSubset(0b1110));
    }

    #[test]
    fn single_bit_algebra() {
        // A non-encoded bit (e.g. `Cin` in Fig 5d) stores only 0 or 1.
        assert_eq!(single_key_for_subset(PairSubset(0b01)), Some(KeyBit::Zero));
        assert_eq!(single_key_for_subset(PairSubset(0b10)), Some(KeyBit::One));
        assert_eq!(
            single_key_for_subset(PairSubset(0b11)),
            Some(KeyBit::Masked)
        );
        assert_eq!(single_key_for_subset(PairSubset::EMPTY), None);
    }

    #[test]
    fn pair_subset_ops() {
        let s = PairSubset::singleton(2).union(PairSubset::singleton(0));
        assert_eq!(s.0, 0b0101);
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(s.to_string(), "{00,10}");
    }
}

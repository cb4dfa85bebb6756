//! Ternary stored bits and quaternary key bits (Fig 4b/c).

/// A stored TCAM bit: `0`, `1`, or the don't-care state `X`.
///
/// `X` matches both a `0` and a `1` search input (Fig 4b) and is the *only*
/// state matched by the `Z` input (Fig 4c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TernaryBit {
    /// Logic zero.
    #[default]
    Zero,
    /// Logic one.
    One,
    /// Don't-care: matches both `0` and `1` inputs.
    X,
}

impl TernaryBit {
    /// Construct from a boolean.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            TernaryBit::One
        } else {
            TernaryBit::Zero
        }
    }

    /// The boolean value, if this is not `X`.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            TernaryBit::Zero => Some(false),
            TernaryBit::One => Some(true),
            TernaryBit::X => None,
        }
    }

    /// Display character: `0`, `1` or `X`.
    pub fn as_char(self) -> char {
        match self {
            TernaryBit::Zero => '0',
            TernaryBit::One => '1',
            TernaryBit::X => 'X',
        }
    }

    /// Parse from a character (`0`, `1`, `X`/`x`).
    pub fn from_char(c: char) -> Option<Self> {
        match c {
            '0' => Some(TernaryBit::Zero),
            '1' => Some(TernaryBit::One),
            'X' | 'x' => Some(TernaryBit::X),
            _ => None,
        }
    }
}

impl std::fmt::Display for TernaryBit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_char())
    }
}

impl From<bool> for TernaryBit {
    fn from(b: bool) -> Self {
        TernaryBit::from_bool(b)
    }
}

/// A search-key bit: `0`, `1`, the `Z` input, or masked-out (`-`).
///
/// Fig 4: `0` matches stored {0, X}; `1` matches stored {1, X}; `Z` matches
/// stored {X} only; a masked bit matches everything (the column does not
/// participate in the search). During a write, `0`/`1` program the stored bit
/// and `Z` programs the `X` state (Fig 4d); masked columns are untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KeyBit {
    /// Search for / write a logic zero.
    Zero,
    /// Search for / write a logic one.
    One,
    /// The `Z` input: matches only stored `X`; writes `X`.
    Z,
    /// Masked: the column does not participate (mask register bit = 0).
    #[default]
    Masked,
}

impl KeyBit {
    /// Does this key bit match the given stored bit?
    ///
    /// Truth table (Fig 4b/c):
    ///
    /// | stored \ key | `0` | `1` | `Z` | `-` |
    /// |---|---|---|---|---|
    /// | `0` | ✓ |   |   | ✓ |
    /// | `1` |   | ✓ |   | ✓ |
    /// | `X` | ✓ | ✓ | ✓ | ✓ |
    pub fn matches(self, stored: TernaryBit) -> bool {
        matches!(
            (self, stored),
            (KeyBit::Masked, _)
                | (_, TernaryBit::X)
                | (KeyBit::Zero, TernaryBit::Zero)
                | (KeyBit::One, TernaryBit::One)
        )
    }

    /// The stored value this key bit writes, or `None` if masked.
    pub fn write_value(self) -> Option<TernaryBit> {
        match self {
            KeyBit::Zero => Some(TernaryBit::Zero),
            KeyBit::One => Some(TernaryBit::One),
            KeyBit::Z => Some(TernaryBit::X),
            KeyBit::Masked => None,
        }
    }

    /// Display character: `0`, `1`, `Z` or `-`.
    pub fn as_char(self) -> char {
        match self {
            KeyBit::Zero => '0',
            KeyBit::One => '1',
            KeyBit::Z => 'Z',
            KeyBit::Masked => '-',
        }
    }

    /// Parse from a character (`0`, `1`, `Z`/`z`, `-`).
    pub fn from_char(c: char) -> Option<Self> {
        match c {
            '0' => Some(KeyBit::Zero),
            '1' => Some(KeyBit::One),
            'Z' | 'z' => Some(KeyBit::Z),
            '-' => Some(KeyBit::Masked),
            _ => None,
        }
    }

    /// All four key-bit values, for exhaustive enumeration.
    pub const ALL: [KeyBit; 4] = [KeyBit::Zero, KeyBit::One, KeyBit::Z, KeyBit::Masked];
}

impl std::fmt::Display for KeyBit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_char())
    }
}

impl From<bool> for KeyBit {
    fn from(b: bool) -> Self {
        if b {
            KeyBit::One
        } else {
            KeyBit::Zero
        }
    }
}

/// Parse a word of ternary bits from a string of `0`/`1`/`X` characters.
/// Underscores are ignored as visual separators.
///
/// # Errors
///
/// Returns the offending character if any character is not `0`, `1`, `X`/`x`
/// or `_`.
pub fn word_from_str(s: &str) -> Result<Vec<TernaryBit>, char> {
    s.chars()
        .filter(|&c| c != '_')
        .map(|c| TernaryBit::from_char(c).ok_or(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_truth_table_fig4() {
        use KeyBit as K;
        use TernaryBit as T;
        // X matches both 0 and 1 input (Fig 4b).
        assert!(K::Zero.matches(T::X));
        assert!(K::One.matches(T::X));
        // Z only matches X (Fig 4c).
        assert!(K::Z.matches(T::X));
        assert!(!K::Z.matches(T::Zero));
        assert!(!K::Z.matches(T::One));
        // Exact matches.
        assert!(K::Zero.matches(T::Zero));
        assert!(!K::Zero.matches(T::One));
        assert!(K::One.matches(T::One));
        assert!(!K::One.matches(T::Zero));
        // Masked matches everything.
        for t in [T::Zero, T::One, T::X] {
            assert!(K::Masked.matches(t));
        }
    }

    #[test]
    fn z_writes_x_state() {
        // Fig 4d: input Z is used to write state X.
        assert_eq!(KeyBit::Z.write_value(), Some(TernaryBit::X));
        assert_eq!(KeyBit::Masked.write_value(), None);
        assert_eq!(KeyBit::Zero.write_value(), Some(TernaryBit::Zero));
        assert_eq!(KeyBit::One.write_value(), Some(TernaryBit::One));
    }

    #[test]
    fn word_round_trip_string() {
        let w = word_from_str("10X1_0").unwrap();
        assert_eq!(w.len(), 5);
        assert_eq!(w.iter().map(|b| b.as_char()).collect::<String>(), "10X10");
    }

    #[test]
    fn word_from_str_rejects_bad_chars() {
        assert_eq!(word_from_str("10Q"), Err('Q'));
    }

    #[test]
    fn char_round_trips() {
        for b in [TernaryBit::Zero, TernaryBit::One, TernaryBit::X] {
            assert_eq!(TernaryBit::from_char(b.as_char()), Some(b));
        }
        for k in KeyBit::ALL {
            assert_eq!(KeyBit::from_char(k.as_char()), Some(k));
        }
    }
}

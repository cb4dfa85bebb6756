//! Device-level 2D2R crossbar TCAM model (Fig 3, Fig 7).
//!
//! This model represents each TCAM bit as two 1D1R cells (one bidirectional
//! diode in series with one RRAM element) placed in *two separate crossbar
//! arrays* — the paper's logical-unified-physical-separated design (§IV-B)
//! that lets both cells of a bit be written in parallel. Searching drives the
//! search lines from the key/mask registers, evaluates per-match-line
//! discharge currents, and senses them; writing applies the V/3 scheme.
//!
//! It is deliberately slower than [`crate::array::TcamArray`]; its purpose is
//! to validate the functional model (see the equivalence property tests) and
//! to expose device-level observability (discharge current counts, cell
//! programming pulses).

use crate::bit::{KeyBit, TernaryBit};
use crate::key::SearchKey;
use crate::tags::TagVector;
use hyperap_model::tech::RramDevice;

/// Resistance state of one RRAM element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resistance {
    /// Low-resistance (SET) state — conducts when selected.
    Low,
    /// High-resistance (RESET) state.
    High,
}

/// One crossbar array of 1D1R cells: `rows` match lines × `cols` search lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossbarArray {
    rows: usize,
    cols: usize,
    /// Row-major cell resistance states.
    cells: Vec<Resistance>,
}

/// Voltage applied to a search line during a search (paper: `VH` or `VL`,
/// with match lines precharged to `Vpre ≈ VH > VL`; only `Vpre − VL` can turn
/// the diode on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlDrive {
    /// High voltage — the diode stays off regardless of cell state.
    High,
    /// Low voltage — the diode turns on if the cell is low-resistance.
    Low,
}

impl CrossbarArray {
    /// New array with all cells in the high-resistance state.
    pub fn new(rows: usize, cols: usize) -> Self {
        CrossbarArray {
            rows,
            cols,
            cells: vec![Resistance::High; rows * cols],
        }
    }

    /// Cell state at (`row`, `col`).
    pub fn cell(&self, row: usize, col: usize) -> Resistance {
        self.cells[row * self.cols + col]
    }

    /// Program one cell (a full SET/RESET pulse).
    pub fn program(&mut self, row: usize, col: usize, r: Resistance) {
        self.cells[row * self.cols + col] = r;
    }

    /// Evaluate one search: for each match line, count conducting cells
    /// (diode on because its SL is driven low *and* the RRAM is LRS).
    ///
    /// A match line with zero conducting cells keeps its precharge (match);
    /// any conducting cell discharges it (mismatch) — Fig 3b.
    pub fn discharge_counts(&self, drives: &[SlDrive]) -> Vec<u32> {
        assert_eq!(drives.len(), self.cols, "one drive per search line");
        (0..self.rows)
            .map(|r| {
                (0..self.cols)
                    .filter(|&c| {
                        matches!(drives[c], SlDrive::Low) && self.cell(r, c) == Resistance::Low
                    })
                    .count() as u32
            })
            .collect()
    }
}

/// A device-level TCAM of `rows` words × `cols` TCAM bits, built from two
/// crossbar arrays (Fig 7a): array 0 holds the "search-for-1" cell of every
/// bit, array 1 holds the "search-for-0" cell.
///
/// Cell mapping for a stored bit (standard 2D2R TCAM encoding):
///
/// | stored | array0 cell (checked by key=1) | array1 cell (checked by key=0) |
/// |---|---|---|
/// | `0` | LRS (mismatch on key 1) | HRS |
/// | `1` | HRS | LRS (mismatch on key 0) |
/// | `X` | HRS | HRS (never mismatches) |
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTcam {
    rows: usize,
    cols: usize,
    array0: CrossbarArray,
    array1: CrossbarArray,
    device: RramDevice,
    cell_writes: u64,
}

impl DeviceTcam {
    /// New device TCAM with every bit initialized to stored `0`.
    pub fn new(rows: usize, cols: usize) -> Self {
        let mut t = DeviceTcam {
            rows,
            cols,
            array0: CrossbarArray::new(rows, cols),
            array1: CrossbarArray::new(rows, cols),
            device: RramDevice::default(),
            cell_writes: 0,
        };
        for r in 0..rows {
            for c in 0..cols {
                t.program_bit(r, c, TernaryBit::Zero);
            }
        }
        t.cell_writes = 0;
        t
    }

    /// Number of word rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of TCAM bit columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// RRAM device characteristics used by this model.
    pub fn device(&self) -> &RramDevice {
        &self.device
    }

    /// Total RRAM cell programming pulses issued so far (both arrays).
    ///
    /// Because the two arrays have independent write circuits, two pulses to
    /// the same (row, col) in different arrays count as *one* write time slot
    /// in the dual-crossbar design, but still as two cell writes for
    /// endurance accounting.
    pub fn cell_writes(&self) -> u64 {
        self.cell_writes
    }

    fn program_bit(&mut self, row: usize, col: usize, value: TernaryBit) {
        self.cell_writes += 2;
        let (a0, a1) = match value {
            TernaryBit::Zero => (Resistance::Low, Resistance::High),
            TernaryBit::One => (Resistance::High, Resistance::Low),
            TernaryBit::X => (Resistance::High, Resistance::High),
        };
        self.array0.program(row, col, a0);
        self.array1.program(row, col, a1);
    }

    /// Read back the stored ternary value of a bit.
    ///
    /// # Panics
    ///
    /// Panics if the cell pair holds the unused code (both LRS).
    pub fn read_bit(&self, row: usize, col: usize) -> TernaryBit {
        match (self.array0.cell(row, col), self.array1.cell(row, col)) {
            (Resistance::Low, Resistance::High) => TernaryBit::Zero,
            (Resistance::High, Resistance::Low) => TernaryBit::One,
            (Resistance::High, Resistance::High) => TernaryBit::X,
            (Resistance::Low, Resistance::Low) => {
                panic!("invalid TCAM code (both cells LRS) at ({row},{col})")
            }
        }
    }

    /// Store a word via direct programming (host load path).
    pub fn store_word(&mut self, row: usize, word: &[TernaryBit]) {
        for (col, b) in word.iter().enumerate() {
            self.program_bit(row, col, *b);
        }
    }

    /// Search: derive per-array search-line drives from the key, evaluate
    /// match-line discharge, AND the two arrays' sensing results (§IV-B:
    /// "The sensing results from the two crossbar arrays are ANDed").
    pub fn search(&self, key: &SearchKey) -> TagVector {
        // Array 0 checks "stored is 0" cells: drive low on key bits that
        // would mismatch a stored 0, i.e. key == 1 or key == Z.
        let drives0: Vec<SlDrive> = (0..self.cols)
            .map(|c| match key.bit(c) {
                KeyBit::One | KeyBit::Z => SlDrive::Low,
                _ => SlDrive::High,
            })
            .collect();
        // Array 1 checks "stored is 1" cells: key == 0 or key == Z.
        let drives1: Vec<SlDrive> = (0..self.cols)
            .map(|c| match key.bit(c) {
                KeyBit::Zero | KeyBit::Z => SlDrive::Low,
                _ => SlDrive::High,
            })
            .collect();
        let d0 = self.array0.discharge_counts(&drives0);
        let d1 = self.array1.discharge_counts(&drives1);
        let mut tags = TagVector::zeros(self.rows);
        for r in 0..self.rows {
            // Sense amplifier: ML retains precharge (match) iff no cell
            // conducts; final tag = AND of the two arrays' senses.
            if d0[r] == 0 && d1[r] == 0 {
                tags.set(r, true);
            }
        }
        tags
    }

    /// Associative write with the V/3 scheme: program the unmasked columns of
    /// every tagged row. Both arrays are written in parallel (the
    /// dual-crossbar optimization), so latency per bit is one pulse.
    pub fn write(&mut self, key: &SearchKey, tags: &TagVector) {
        assert_eq!(tags.len(), self.rows, "tag/row count mismatch");
        for col in key.active_columns() {
            if col >= self.cols {
                continue;
            }
            let value = key.bit(col).write_value().expect("active column");
            for row in tags.iter_set() {
                self.program_bit(row, col, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::TcamArray;
    use crate::bit::word_from_str;

    #[test]
    fn read_back_programmed_bits() {
        let mut t = DeviceTcam::new(2, 3);
        t.store_word(0, &word_from_str("1X0").unwrap());
        assert_eq!(t.read_bit(0, 0), TernaryBit::One);
        assert_eq!(t.read_bit(0, 1), TernaryBit::X);
        assert_eq!(t.read_bit(0, 2), TernaryBit::Zero);
    }

    #[test]
    fn match_case_has_no_discharge_mismatch_does() {
        // Fig 3b: top ML (match) has only a small (zero in our model)
        // discharge; bottom ML (mismatch) discharges.
        let mut t = DeviceTcam::new(2, 2);
        t.store_word(0, &word_from_str("10").unwrap());
        t.store_word(1, &word_from_str("01").unwrap());
        let tags = t.search(&SearchKey::parse("10").unwrap());
        assert!(tags.get(0));
        assert!(!tags.get(1));
    }

    #[test]
    fn device_matches_functional_model_exhaustive_small() {
        // Every stored value in {0,1,X}^2 against every key in {0,1,Z,-}^2.
        let stored_values = [TernaryBit::Zero, TernaryBit::One, TernaryBit::X];
        for s0 in stored_values {
            for s1 in stored_values {
                let mut dev = DeviceTcam::new(1, 2);
                let mut fun = TcamArray::new(1, 2);
                dev.store_word(0, &[s0, s1]);
                fun.store_word(0, &[s0, s1]);
                for k0 in KeyBit::ALL {
                    for k1 in KeyBit::ALL {
                        let key = SearchKey::from_bits(vec![k0, k1]);
                        assert_eq!(
                            dev.search(&key).get(0),
                            fun.search(&key).get(0),
                            "stored {s0}{s1} key {key}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn write_programs_tagged_rows_only() {
        let mut t = DeviceTcam::new(3, 2);
        let tags = TagVector::from_bools([true, false, true]);
        t.write(&SearchKey::parse("1Z").unwrap(), &tags);
        assert_eq!(t.read_bit(0, 0), TernaryBit::One);
        assert_eq!(t.read_bit(0, 1), TernaryBit::X);
        assert_eq!(t.read_bit(1, 0), TernaryBit::Zero);
        assert_eq!(t.read_bit(2, 1), TernaryBit::X);
    }

    #[test]
    fn cell_write_accounting() {
        let mut t = DeviceTcam::new(2, 2);
        assert_eq!(t.cell_writes(), 0);
        let tags = TagVector::ones(2);
        t.write(&SearchKey::parse("1-").unwrap(), &tags);
        // One column × two rows × two arrays = 4 cell pulses.
        assert_eq!(t.cell_writes(), 4);
    }

    #[test]
    fn new_device_is_all_zero() {
        let t = DeviceTcam::new(2, 2);
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(t.read_bit(r, c), TernaryBit::Zero);
            }
        }
    }
}

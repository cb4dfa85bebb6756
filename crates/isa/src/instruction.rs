//! Instruction definitions and the Table-I cycle model.

use hyperap_model::tech::TechParams;
use hyperap_tcam::key::SearchKey;

/// Number of key/mask register columns (one PE word, Fig 7).
pub const KEY_COLUMNS: usize = 256;

/// Neighbor direction for `MovR` (§IV-A6: 2-bit `<dir>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `<dir>` = 00.
    Up,
    /// `<dir>` = 01.
    Left,
    /// `<dir>` = 10.
    Right,
    /// `<dir>` = 11.
    Down,
}

impl Direction {
    /// The 2-bit encoding.
    pub fn code(self) -> u8 {
        match self {
            Direction::Up => 0b00,
            Direction::Left => 0b01,
            Direction::Right => 0b10,
            Direction::Down => 0b11,
        }
    }

    /// Decode from the 2-bit field.
    pub fn from_code(code: u8) -> Self {
        match code & 0b11 {
            0b00 => Direction::Up,
            0b01 => Direction::Left,
            0b10 => Direction::Right,
            _ => Direction::Down,
        }
    }
}

/// How an instruction interacts with state outside its own PE — the
/// classification that drives trace segmentation (`hyperap_arch::trace`).
///
/// Within a group, instructions touch three kinds of state:
///
/// * **PE-private** state (TCAM cells, tags, encoder latch) and the group's
///   own key register — invisible to every other group, so these
///   instructions commute freely with other groups' work.
/// * The per-PE **data registers** — the cross-PE transport medium: another
///   group's `MovR` push or a global `ReadR`/`WriteR` can read or write
///   them, so their ordering against those instructions matters.
/// * **Cross-PE / controller** state: reductions, mesh shifts, global data
///   path, the bank-enable mask. These are hard synchronization points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncClass {
    /// `Search`, `Write`, `SetKey`, `Wait`: strictly PE-/group-private;
    /// always safe inside a trace segment.
    PeLocal,
    /// `SetTag`, `ReadTag`: read/write the issuing group's data registers.
    /// Safe inside a segment unless another group's stream can touch those
    /// registers remotely (`MovR`/`ReadR`/`WriteR`).
    DataReg,
    /// `Count`, `Index`, `MovR`, `ReadR`, `WriteR`, `Broadcast`: cross-PE
    /// synchronization points; always a segment boundary.
    SyncPoint,
}

/// One Hyper-AP instruction (Table I).
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// Compare key register against all words; `acc` enables the
    /// accumulation unit, `encode` routes the result to the two-bit encoder.
    Search {
        /// `<acc>`: OR result into tags.
        acc: bool,
        /// `<encode>`: latch result into the encoder DFF stage.
        encode: bool,
    },
    /// Write the key-register value into the TCAM cell(s) at `col`
    /// (`encode` = two cells from the two-bit encoder: 23 cycles; otherwise
    /// one cell: 12 cycles).
    Write {
        /// 8-bit column address.
        col: u8,
        /// `<encode>` flag.
        encode: bool,
    },
    /// Load the key and mask registers from a 512-bit immediate
    /// (2 bits per column: 00 = masked, 01 = key 1, 10 = key 0, 11 = Z;
    /// §IV-A3).
    SetKey {
        /// The decoded logical key.
        key: SearchKey,
    },
    /// Population count of the tags (adder tree).
    Count,
    /// Priority-encoded index of the first tagged word.
    Index,
    /// Move the data register to the adjacent PE in `dir`.
    MovR {
        /// Neighbor direction.
        dir: Direction,
    },
    /// Read the data register of the PE at the 17-bit address into the
    /// top-level controller's data buffer.
    ReadR {
        /// Global PE address (17 bits).
        addr: u32,
    },
    /// Write a 512-bit immediate into the data register of the addressed PE.
    WriteR {
        /// Global PE address (17 bits).
        addr: u32,
        /// 512-bit immediate (64 bytes).
        imm: Vec<u8>,
    },
    /// Copy the data register into the tag registers of the same PE.
    SetTag,
    /// Copy the tag registers into the data register of the same PE.
    ReadTag,
    /// Set the group-mask register in the controller.
    Broadcast {
        /// 8-bit group mask.
        group_mask: u8,
    },
    /// Stall this group for `cycles` cycles (compile-time synchronization,
    /// §IV-A12).
    Wait {
        /// Stall length.
        cycles: u8,
    },
}

impl Instruction {
    /// Instruction length in bytes (the "Length" column of Table I).
    pub fn length(&self) -> usize {
        match self {
            Instruction::Search { .. } => 1,
            Instruction::Write { .. } => 2,
            Instruction::SetKey { .. } => 65,
            Instruction::Count => 1,
            Instruction::Index => 1,
            Instruction::MovR { .. } => 1,
            Instruction::ReadR { .. } => 3,
            Instruction::WriteR { .. } => 67,
            Instruction::SetTag => 1,
            Instruction::ReadTag => 1,
            Instruction::Broadcast { .. } => 2,
            Instruction::Wait { .. } => 2,
        }
    }

    /// Execution latency in cycles under the given technology (the "Cycles"
    /// column of Table I holds for RRAM: Write = 12/23).
    pub fn cycles(&self, tech: &TechParams) -> u64 {
        match self {
            Instruction::Search { .. } => tech.t_search_cycles,
            Instruction::Write { encode, .. } => {
                let t = tech.t_bit_write_cycles();
                if *encode {
                    1 + 2 + 2 * t // decode + two key setups + two cell columns
                } else {
                    1 + 1 + t
                }
            }
            Instruction::SetKey { .. } => 1,
            Instruction::Count => 4,
            Instruction::Index => 4,
            Instruction::MovR { .. } => 5,
            Instruction::ReadR { .. } => 8,
            Instruction::WriteR { .. } => 8,
            Instruction::SetTag => 1,
            Instruction::ReadTag => 1,
            Instruction::Broadcast { .. } => 1,
            Instruction::Wait { cycles } => *cycles as u64,
        }
    }

    /// The instruction's [`SyncClass`] — how it interacts with state
    /// outside its own PE (drives trace segmentation).
    pub fn sync_class(&self) -> SyncClass {
        match self {
            Instruction::Search { .. }
            | Instruction::Write { .. }
            | Instruction::SetKey { .. }
            | Instruction::Wait { .. } => SyncClass::PeLocal,
            Instruction::SetTag | Instruction::ReadTag => SyncClass::DataReg,
            Instruction::Count
            | Instruction::Index
            | Instruction::MovR { .. }
            | Instruction::ReadR { .. }
            | Instruction::WriteR { .. }
            | Instruction::Broadcast { .. } => SyncClass::SyncPoint,
        }
    }

    /// True if this instruction can read or write the data register of a PE
    /// **outside the issuing group**: `MovR` pushes across group borders,
    /// `ReadR`/`WriteR` address the global data path. A stream containing
    /// any of these forces other streams' [`SyncClass::DataReg`]
    /// instructions to segment boundaries.
    pub fn touches_remote_regs(&self) -> bool {
        matches!(
            self,
            Instruction::MovR { .. } | Instruction::ReadR { .. } | Instruction::WriteR { .. }
        )
    }

    /// Mnemonic for assembly listings.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instruction::Search { .. } => "search",
            Instruction::Write { .. } => "write",
            Instruction::SetKey { .. } => "setkey",
            Instruction::Count => "count",
            Instruction::Index => "index",
            Instruction::MovR { .. } => "movr",
            Instruction::ReadR { .. } => "readr",
            Instruction::WriteR { .. } => "writer",
            Instruction::SetTag => "settag",
            Instruction::ReadTag => "readtag",
            Instruction::Broadcast { .. } => "broadcast",
            Instruction::Wait { .. } => "wait",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lengths() {
        use Instruction as I;
        let key = SearchKey::masked(KEY_COLUMNS);
        assert_eq!(
            I::Search {
                acc: false,
                encode: false
            }
            .length(),
            1
        );
        assert_eq!(
            I::Write {
                col: 0,
                encode: false
            }
            .length(),
            2
        );
        assert_eq!(I::SetKey { key }.length(), 65);
        assert_eq!(I::Count.length(), 1);
        assert_eq!(I::Index.length(), 1);
        assert_eq!(I::MovR { dir: Direction::Up }.length(), 1);
        assert_eq!(I::ReadR { addr: 0 }.length(), 3);
        assert_eq!(
            I::WriteR {
                addr: 0,
                imm: vec![0; 64]
            }
            .length(),
            67
        );
        assert_eq!(I::SetTag.length(), 1);
        assert_eq!(I::ReadTag.length(), 1);
        assert_eq!(I::Broadcast { group_mask: 0 }.length(), 2);
        assert_eq!(I::Wait { cycles: 0 }.length(), 2);
    }

    #[test]
    fn table1_cycles_rram() {
        use Instruction as I;
        let rram = TechParams::rram();
        assert_eq!(
            I::Search {
                acc: true,
                encode: false
            }
            .cycles(&rram),
            1
        );
        assert_eq!(
            I::Write {
                col: 3,
                encode: false
            }
            .cycles(&rram),
            12
        );
        assert_eq!(
            I::Write {
                col: 3,
                encode: true
            }
            .cycles(&rram),
            23
        );
        assert_eq!(
            I::SetKey {
                key: SearchKey::masked(4)
            }
            .cycles(&rram),
            1
        );
        assert_eq!(I::Count.cycles(&rram), 4);
        assert_eq!(I::Index.cycles(&rram), 4);
        assert_eq!(
            I::MovR {
                dir: Direction::Left
            }
            .cycles(&rram),
            5
        );
        assert_eq!(I::SetTag.cycles(&rram), 1);
        assert_eq!(I::ReadTag.cycles(&rram), 1);
        assert_eq!(I::Broadcast { group_mask: 1 }.cycles(&rram), 1);
        assert_eq!(I::Wait { cycles: 42 }.cycles(&rram), 42);
    }

    #[test]
    fn cmos_write_is_cheap() {
        let cmos = TechParams::cmos();
        assert_eq!(
            Instruction::Write {
                col: 0,
                encode: false
            }
            .cycles(&cmos),
            3
        );
    }

    #[test]
    fn sync_classification_covers_all_instructions() {
        use Instruction as I;
        let cases: Vec<(I, SyncClass)> = vec![
            (
                I::Search {
                    acc: false,
                    encode: false,
                },
                SyncClass::PeLocal,
            ),
            (
                I::Write {
                    col: 0,
                    encode: true,
                },
                SyncClass::PeLocal,
            ),
            (
                I::SetKey {
                    key: SearchKey::masked(4),
                },
                SyncClass::PeLocal,
            ),
            (I::Wait { cycles: 3 }, SyncClass::PeLocal),
            (I::SetTag, SyncClass::DataReg),
            (I::ReadTag, SyncClass::DataReg),
            (I::Count, SyncClass::SyncPoint),
            (I::Index, SyncClass::SyncPoint),
            (I::MovR { dir: Direction::Up }, SyncClass::SyncPoint),
            (I::ReadR { addr: 0 }, SyncClass::SyncPoint),
            (
                I::WriteR {
                    addr: 0,
                    imm: vec![],
                },
                SyncClass::SyncPoint,
            ),
            (I::Broadcast { group_mask: 1 }, SyncClass::SyncPoint),
        ];
        for (inst, class) in cases {
            assert_eq!(inst.sync_class(), class, "{}", inst.mnemonic());
        }
    }

    #[test]
    fn remote_reg_instructions_are_the_cross_group_ones() {
        use Instruction as I;
        assert!(I::MovR { dir: Direction::Up }.touches_remote_regs());
        assert!(I::ReadR { addr: 3 }.touches_remote_regs());
        assert!(I::WriteR {
            addr: 3,
            imm: vec![]
        }
        .touches_remote_regs());
        assert!(!I::SetTag.touches_remote_regs());
        assert!(!I::ReadTag.touches_remote_regs());
        assert!(!I::Count.touches_remote_regs());
    }

    #[test]
    fn direction_codes_round_trip() {
        for d in [
            Direction::Up,
            Direction::Left,
            Direction::Right,
            Direction::Down,
        ] {
            assert_eq!(Direction::from_code(d.code()), d);
        }
    }
}

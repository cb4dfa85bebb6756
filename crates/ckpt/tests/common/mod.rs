//! Shared helpers for the checkpoint test suites: deterministic machine
//! construction, instruction streams, and a bit-level machine snapshot
//! that is comparable across chunk widths.

// Each test binary uses a different subset of these helpers.
#![allow(dead_code)]

use hyperap_arch::{ArchConfig, FaultConfig, MachineExtras, SlabMachine};
use hyperap_core::HyperPe;
use hyperap_isa::{Direction, Instruction};
use hyperap_model::timing::OpCounts;
use hyperap_tcam::{FaultModel, KeyBit, SearchKey, TagVector};

/// A seeded fault model dense enough to produce stuck cells, transient
/// misses, wear, and the occasional column retirement on `tiny()`.
pub fn dense_faults() -> FaultConfig {
    FaultConfig {
        model: FaultModel {
            seed: 0x5eed_cafe,
            stuck_per_million: 25_000,
            miss_per_million: 12_000,
            endurance_limit: Some(40),
        },
        spare_cols: 2,
    }
}

/// A `tiny()` slab machine (2 groups × 4 PEs of 16×64) at the given chunk
/// width, optionally under [`dense_faults`], with a deterministic load
/// pattern.
pub fn build_machine(chunk_pes: usize, faulty: bool) -> SlabMachine {
    let mut cfg = ArchConfig::tiny();
    if faulty {
        cfg.faults = dense_faults();
    }
    let mut m = SlabMachine::with_chunk_pes(cfg, chunk_pes);
    for pe in 0..8 {
        for col in 0..24 {
            for row in 0..4 {
                m.load_bit(pe, row, col, (pe * 7 + col * 3 + row) % 5 < 2);
            }
        }
    }
    m
}

fn key(pattern: u8) -> SearchKey {
    SearchKey::from_bits(
        (0..64u8)
            .map(|c| match (c.wrapping_add(pattern)) % 4 {
                0 => KeyBit::Zero,
                1 => KeyBit::One,
                2 => KeyBit::Z,
                _ => KeyBit::Masked,
            })
            .collect(),
    )
}

/// A deterministic two-group stream pair that exercises every state the
/// checkpoint must carry: storage writes (wear), searches under a key
/// (key/plan registers), tags and latches, MovR over the mesh, the data
/// registers and controller buffers, Count/Index op counts.
pub fn stream_pair(salt: u8) -> Vec<Vec<Instruction>> {
    let mk = |g: u8| {
        vec![
            Instruction::SetKey { key: key(salt + g) },
            Instruction::Search {
                acc: false,
                encode: false,
            },
            Instruction::Write {
                col: (salt + g) % 62,
                encode: false,
            },
            Instruction::SetTag,
            Instruction::Search {
                acc: true,
                encode: false,
            },
            Instruction::Count,
            Instruction::MovR {
                dir: if g == 0 {
                    Direction::Right
                } else {
                    Direction::Down
                },
            },
            Instruction::WriteR {
                addr: u32::from(g),
                imm: vec![salt, g, 3],
            },
            Instruction::ReadR {
                addr: u32::from(g) + 1,
            },
            Instruction::Index,
            Instruction::Write {
                col: (salt + g + 17) % 62,
                encode: true,
            },
            Instruction::ReadTag,
        ]
    };
    vec![mk(0), mk(1)]
}

/// Everything a checkpoint must restore, captured per-PE so machines with
/// different chunk widths compare equal iff they are bit-identical:
/// storage cells + wear + fault bookkeeping (all inside `HyperPe`'s
/// equality), data registers, controller buffers, key/plan/mask registers,
/// and per-PE op counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSnap {
    pub pes: Vec<HyperPe>,
    pub regs: Vec<TagVector>,
    pub buffers: Vec<TagVector>,
    pub extras: MachineExtras,
    pub ops: Vec<OpCounts>,
}

/// Capture a comparable snapshot of `m`.
pub fn snap(m: &SlabMachine) -> MachineSnap {
    let total = m.config().total_pes();
    let groups = m.config().groups;
    let mut ops = Vec::with_capacity(total);
    for c in 0..m.num_chunks() {
        ops.extend_from_slice(m.chunk_state(c).ops);
    }
    MachineSnap {
        pes: (0..total).map(|p| m.pe_snapshot(p)).collect(),
        regs: (0..total).map(|p| m.data_reg(p)).collect(),
        buffers: (0..groups).map(|g| m.data_buffer(g).clone()).collect(),
        extras: m.machine_extras(),
        ops,
    }
}

/// Assert two machines are bit-identical (chunk-width independent).
pub fn assert_identical(a: &SlabMachine, b: &SlabMachine, what: &str) {
    let (sa, sb) = (snap(a), snap(b));
    for (i, (pa, pb)) in sa.pes.iter().zip(&sb.pes).enumerate() {
        assert_eq!(pa, pb, "{what}: PE {i} state diverged");
        assert_eq!(
            pa.fault(),
            pb.fault(),
            "{what}: PE {i} fault bookkeeping diverged"
        );
    }
    assert_eq!(sa.regs, sb.regs, "{what}: data registers diverged");
    assert_eq!(
        sa.buffers, sb.buffers,
        "{what}: controller buffers diverged"
    );
    assert_eq!(sa.extras, sb.extras, "{what}: key/mask registers diverged");
    assert_eq!(sa.ops, sb.ops, "{what}: per-PE op counters diverged");
}

/// Assert a machine matches a previously captured snapshot.
pub fn assert_matches_snap(m: &SlabMachine, s: &MachineSnap, what: &str) {
    assert_eq!(&snap(m), s, "{what}");
}

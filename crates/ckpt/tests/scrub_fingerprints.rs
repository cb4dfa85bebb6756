//! Scrub and incremental checkpoints: `SlabMachine::scrub` pays only for
//! what was written since the machine was last fresh, and leaves the
//! write-tracking fingerprints of untouched chunks alone. So scrubbing a
//! clean machine moves no fingerprint, and after a one-group sweep and the
//! isolation scrub a serving layer pays for, an incremental checkpoint
//! re-encodes and writes only the chunk that sweep dirtied.
//!
//! The machines are built fault-free whatever `HYPERAP_FAULTS` says: a
//! fault-attached machine always takes the full reset.

use hyperap_arch::{ArchConfig, FaultConfig, SlabMachine};
use hyperap_ckpt::{Checkpointer, MachineCheckpoint, MemSink};
use hyperap_isa::Instruction;
use hyperap_tcam::SearchKey;

fn config() -> ArchConfig {
    ArchConfig {
        groups: 4,
        faults: FaultConfig::default(),
        ..ArchConfig::tiny()
    }
}

fn fingerprints(m: &SlabMachine) -> Vec<[u64; 5]> {
    (0..m.num_chunks())
        .map(|i| m.chunk_fingerprint(i))
        .collect()
}

/// Search, write, read the tags into the data registers, count: a sweep
/// that moves every arena of the chunks it runs on.
fn dirtying_stream() -> Vec<Instruction> {
    vec![
        Instruction::SetKey {
            key: SearchKey::parse("1-").unwrap(),
        },
        Instruction::Search {
            acc: false,
            encode: true,
        },
        Instruction::Write {
            col: 3,
            encode: false,
        },
        Instruction::ReadTag,
        Instruction::Count,
    ]
}

#[test]
fn scrubbing_a_clean_machine_moves_no_fingerprint() {
    for width in [1, 3, 4] {
        let mut m = SlabMachine::with_chunk_pes(config(), width);
        let fresh = fingerprints(&m);
        m.scrub();
        assert_eq!(fingerprints(&m), fresh, "width {width}: fresh machine");
        m.load_bit(1, 0, 0, true);
        m.run(&vec![dirtying_stream(); 4]);
        m.scrub();
        let scrubbed = fingerprints(&m);
        m.scrub();
        assert_eq!(fingerprints(&m), scrubbed, "width {width}: re-scrub");
    }
}

#[test]
fn checkpoint_after_a_one_group_sweep_writes_only_the_dirtied_chunk() {
    let mut m = SlabMachine::new(config());
    let per = m.config().pes_per_group();
    let chunks = m.num_chunks();
    assert_eq!(chunks, 4, "one chunk per group");
    let mut ck = Checkpointer::new(MemSink::new());
    let full = m.checkpoint_to(&mut ck).unwrap();
    assert_eq!(full.chunks_written, chunks);
    let committed = fingerprints(&m);

    // Tenant A: a preload and a sweep on group 1 only, then the scrub.
    m.load_bit(per + 2, 0, 0, true);
    m.run(&[Vec::new(), dirtying_stream()]);
    m.scrub();
    let after = fingerprints(&m);
    for (i, (a, b)) in committed.iter().zip(&after).enumerate() {
        assert_eq!(a == b, i != 1, "chunk {i}: only group 1's chunk moved");
    }

    // Tenant B preloads group 1 before its own run: the commit re-encodes
    // that chunk alone and writes it (its content is new).
    m.load_bit(per + 3, 1, 1, true);
    let delta = m.checkpoint_to(&mut ck).unwrap();
    assert_eq!(delta.chunks_clean, chunks - 1);
    assert_eq!(delta.chunks_written, 1);
}

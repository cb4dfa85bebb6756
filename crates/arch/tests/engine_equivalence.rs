//! Property test for the controller's broadcast gating: interleaved
//! `Broadcast` masks must re-gate the active-PE set on every change, so
//! the number of `Count` results matches the closed form for any mask
//! sequence, and the result does not depend on the configured `exec`
//! policy.

use hyperap_arch::{ApMachine, ArchConfig, ExecMode};
use hyperap_isa::Instruction;
use proptest::prelude::*;

fn build(mode: ExecMode) -> ApMachine {
    let mut cfg = ArchConfig::tiny();
    cfg.exec = mode;
    ApMachine::new(cfg)
}

proptest! {
    #[test]
    fn broadcast_invalidation_matches_uncached_semantics(
        masks in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        // Interleave Broadcast instructions with Counts; the cached
        // active-PE set must track every mask change.
        let mut stream = Vec::new();
        for m in &masks {
            stream.push(Instruction::Broadcast { group_mask: *m });
            stream.push(Instruction::Count);
        }
        let streams = vec![stream];
        let mut seq = build(ExecMode::Sequential);
        let mut par = build(ExecMode::Parallel);
        let seq_stats = seq.run(&streams);
        let par_stats = par.run(&streams);
        // tiny() has one bank (bank 0) per group: mask bit 0 gates all PEs.
        let expected: usize = masks.iter().map(|m| if m & 1 == 1 { 4 } else { 0 }).sum();
        prop_assert_eq!(seq_stats.count_results[0].len(), expected);
        prop_assert_eq!(&seq_stats, &par_stats);
    }
}

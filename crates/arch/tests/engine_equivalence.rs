//! Property test for the controller's broadcast gating: interleaved
//! `Broadcast` masks must re-gate the active-PE set on every change, so
//! the number of `Count` results matches the closed form for any mask
//! sequence.

use hyperap_arch::{ApMachine, ArchConfig};
use hyperap_isa::Instruction;
use proptest::prelude::*;

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
        let stats = ApMachine::new(ArchConfig::tiny()).run(&[stream]);
        // tiny() has one bank (bank 0) per group: mask bit 0 gates all PEs.
        let expected: usize = masks.iter().map(|m| if m & 1 == 1 { 4 } else { 0 }).sum();
        prop_assert_eq!(stats.count_results[0].len(), expected);
    }
}

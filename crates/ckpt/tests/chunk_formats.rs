//! The v2 chunk format is a change of bytes only: a chunk written as v2
//! decodes to exactly what the same chunk written as v1 decodes to, and a
//! machine restored from either is bit-identical — at every chunk width of
//! `tiny()`, with and without a seeded fault model (and under the
//! `HYPERAP_FAULTS` override, which `tiny()` honours).

mod common;

use common::{assert_identical, build_machine, encode_chunk_v1, stream_pair};
use hyperap_arch::slab::ChunkPayload;
use hyperap_arch::SlabMachine;
use hyperap_ckpt::manifest::{decode_chunk, encode_chunk, CHUNK_VERSION};
use proptest::prelude::*;

/// Decode every chunk of `m`, written by `encode`.
fn round_trip(
    m: &SlabMachine,
    encode: fn(&hyperap_arch::slab::ChunkState<'_>) -> Vec<u8>,
) -> Vec<ChunkPayload> {
    (0..m.num_chunks())
        .map(|i| decode_chunk(&encode(&m.chunk_state(i))).expect("own chunk decodes"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn v2_round_trips_equal_v1_round_trips(
        chunk in 1usize..=4,
        target in 1usize..=4,
        faulty in any::<bool>(),
        salt in 0u8..32,
        runs in 1usize..3,
    ) {
        let mut m = build_machine(chunk, faulty);
        for r in 0..runs {
            let _ = m.try_run(&stream_pair(salt.wrapping_add(r as u8)));
        }
        prop_assert_eq!(encode_chunk(&m.chunk_state(0))[0], CHUNK_VERSION);
        let v1 = round_trip(&m, encode_chunk_v1);
        let v2 = round_trip(&m, encode_chunk);
        for (a, b) in v1.iter().zip(&v2) {
            prop_assert_eq!(a.global_base, b.global_base);
            prop_assert_eq!(&a.storage, &b.storage);
            prop_assert_eq!(&a.tags, &b.tags);
            prop_assert_eq!(&a.latch, &b.latch);
            prop_assert_eq!(&a.regs, &b.regs);
            prop_assert_eq!(&a.ops, &b.ops);
        }
        // Restore both into a machine of another (or the same) width.
        let config = m.config().clone();
        let mut from_v1 = SlabMachine::with_chunk_pes(config.clone(), target);
        let mut from_v2 = SlabMachine::with_chunk_pes(config, target);
        for (dst, parts) in [(&mut from_v1, v1), (&mut from_v2, v2)] {
            dst.restore_chunks(parts).expect("chunks tile the machine");
            dst.set_machine_extras(m.machine_extras()).expect("extras fit");
        }
        assert_identical(&from_v1, &m, "v1 restore");
        assert_identical(&from_v2, &from_v1, "v2 restore ≡ v1 restore");
    }
}

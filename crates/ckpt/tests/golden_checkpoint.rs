//! Wire-format stability and typed decode errors, pinned by the on-disk
//! fixture `crates/tcam/tests/golden/ckpt_v2` (written by
//! `examples/gen_golden_ckpt.rs`). It must restore bit-identically into
//! today's machine (including across a different chunk width), today's
//! encoder must reproduce it byte-for-byte, and damaged variants must fail
//! with the right typed [`CkptError`]. Any other version byte, the retired
//! v1 included, is a hard [`CkptError::BadVersion`].

mod common;

use common::assert_identical;
use hyperap_arch::{ArchConfig, SlabMachine};
use hyperap_ckpt::manifest::{CHUNK_VERSION, MANIFEST_VERSION};
use hyperap_ckpt::testing::golden_machine;
use hyperap_ckpt::{
    fnv1a64, word_hash64, CheckpointSink, Checkpointer, CkptError, Manifest, MemSink,
};

const V2_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../tcam/tests/golden/ckpt_v2");

/// Load the fixture directory into a [`MemSink`].
fn fixture_sink() -> MemSink {
    let mut sink = MemSink::new();
    for entry in std::fs::read_dir(V2_DIR).expect("fixture dir present") {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        sink.insert(name, std::fs::read(entry.path()).unwrap());
    }
    assert!(
        sink.files().keys().any(|n| n.starts_with("m-")),
        "fixture must contain a manifest"
    );
    sink
}

fn manifest_name(sink: &MemSink) -> String {
    sink.files()
        .keys()
        .find(|n| n.starts_with("m-"))
        .unwrap()
        .clone()
}

/// A machine shaped like the fixture's, with nothing loaded.
fn blank(chunk_pes: usize) -> SlabMachine {
    let mut cfg = ArchConfig::tiny();
    cfg.faults = golden_machine().config().faults;
    SlabMachine::with_chunk_pes(cfg, chunk_pes)
}

#[test]
fn fixture_restores_bit_identically_and_reencodes_byte_identically() {
    let rebuilt = golden_machine();

    // Restore at the native chunk width and through a migration.
    for chunk_pes in [3usize, 1, 4] {
        let mut restored = blank(chunk_pes);
        let mut ck = Checkpointer::new(fixture_sink());
        assert_eq!(ck.resume(&mut restored).unwrap(), 0);
        assert_identical(&restored, &rebuilt, &format!("chunk {chunk_pes}"));
    }

    // Today's encoder must reproduce the fixture exactly: same manifest
    // bytes, same content-addressed chunk files.
    let fixture = fixture_sink();
    let mut ck = Checkpointer::new(MemSink::new());
    ck.set_keep(1);
    ck.checkpoint(&rebuilt).unwrap();
    let fresh = ck.into_sink();
    assert_eq!(
        fixture.files().keys().collect::<Vec<_>>(),
        fresh.files().keys().collect::<Vec<_>>(),
        "file set drifted — the wire format changed; bump the version and \
         regenerate via gen_golden_ckpt"
    );
    for (name, bytes) in fixture.files() {
        assert_eq!(
            Some(bytes.as_slice()),
            fresh.get(name),
            "{name} bytes drifted"
        );
    }
}

#[test]
fn truncated_manifest_fails_typed_at_every_byte_boundary() {
    let sink = fixture_sink();
    let blob = sink.read(&manifest_name(&sink)).unwrap();
    assert!(Manifest::decode(&blob).is_ok());
    for len in 0..blob.len() {
        match Manifest::decode(&blob[..len]) {
            Err(CkptError::Truncated) | Err(CkptError::BadChecksum) => {}
            other => panic!("prefix {len}/{} decoded as {other:?}", blob.len()),
        }
    }
    // Trailing garbage is torn too, not silently ignored.
    let mut padded = blob.clone();
    padded.push(0);
    assert!(matches!(
        Manifest::decode(&padded),
        Err(CkptError::Truncated) | Err(CkptError::BadChecksum)
    ));
}

#[test]
fn version_skew_is_a_hard_typed_error() {
    // A future version and the retired v1.
    for version in [MANIFEST_VERSION + 1, 1] {
        let mut sink = fixture_sink();
        let name = manifest_name(&sink);
        let mut blob = sink.read(&name).unwrap();
        // Rewrite the version byte (after the 4-byte magic) and re-seal the
        // checksum so the manifest is intact but of another version.
        blob[4] = version;
        let body_len = blob.len() - 8;
        let sum = fnv1a64(&blob[..body_len]).to_be_bytes();
        blob[body_len..].copy_from_slice(&sum);
        assert_eq!(Manifest::decode(&blob), Err(CkptError::BadVersion(version)));
        sink.insert(name, blob);
        let mut m = blank(3);
        let err = Checkpointer::new(sink).resume(&mut m).unwrap_err();
        assert_eq!(err, CkptError::BadVersion(version));
        assert_identical(&m, &blank(3), &format!("manifest version {version}"));
    }
}

#[test]
fn geometry_mismatch_is_a_hard_typed_error() {
    // Wrong shape.
    let mut cfg = ArchConfig::tiny();
    cfg.rows = 8;
    cfg.faults = golden_machine().config().faults;
    let mut wrong = SlabMachine::new(cfg);
    let mut ck = Checkpointer::new(fixture_sink());
    assert!(matches!(
        ck.resume(&mut wrong),
        Err(CkptError::GeometryMismatch)
    ));

    // Right shape, wrong fault universe.
    let mut cfg = ArchConfig::tiny();
    let mut faults = golden_machine().config().faults;
    faults.model.seed ^= 1;
    cfg.faults = faults;
    let mut wrong_faults = SlabMachine::with_chunk_pes(cfg, 3);
    let mut ck = Checkpointer::new(fixture_sink());
    assert!(matches!(
        ck.resume(&mut wrong_faults),
        Err(CkptError::GeometryMismatch)
    ));
}

#[test]
fn chunk_version_skew_is_a_hard_typed_error() {
    // Re-version one chunk payload (first byte), re-address it, and point
    // the manifest at the new file: the manifest is intact, the chunk is
    // intact but of a future version or the retired v1 — a hard
    // BadVersion, not a silent fallback.
    for version in [CHUNK_VERSION + 1, 1] {
        let mut sink = fixture_sink();
        let name = manifest_name(&sink);
        let mut man = Manifest::decode(&sink.read(&name).unwrap()).unwrap();
        let old = man.chunks[0];
        let old_name = format!("c-{:016x}-{}.bin", old.hash, old.len);
        let mut payload = sink.read(&old_name).unwrap();
        payload[0] = version;
        let (hash, len) = (word_hash64(&payload), payload.len() as u64);
        sink.insert(format!("c-{hash:016x}-{len}.bin"), payload);
        man.chunks[0].hash = hash;
        man.chunks[0].len = len;
        sink.insert(name, man.encode());
        let mut m = blank(3);
        let err = Checkpointer::new(sink).resume(&mut m).unwrap_err();
        assert_eq!(err, CkptError::BadVersion(version));
        assert_identical(&m, &blank(3), &format!("chunk version {version}"));
    }
}

#[test]
fn damaged_chunks_fall_back_softly() {
    // Corrupt one chunk file: the only epoch no longer verifies, and with
    // no older epoch the typed result is NoCheckpoint — never a partial
    // restore.
    let mut sink = fixture_sink();
    let chunk = sink
        .files()
        .keys()
        .find(|n| n.starts_with("c-"))
        .unwrap()
        .clone();
    let mut bytes = sink.read(&chunk).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    sink.insert(chunk.clone(), bytes);
    let mut ck = Checkpointer::new(sink);
    assert!(matches!(
        ck.resume(&mut blank(3)),
        Err(CkptError::NoCheckpoint)
    ));

    // Remove it entirely: same typed fallback.
    let mut sink = fixture_sink();
    CheckpointSink::remove(&mut sink, &chunk).unwrap();
    let mut ck = Checkpointer::new(sink);
    assert!(matches!(
        ck.resume(&mut blank(3)),
        Err(CkptError::NoCheckpoint)
    ));
}

#[test]
fn fixtures_address_chunks_by_their_versions_hash() {
    let sink = fixture_sink();
    let blob = sink.read(&manifest_name(&sink)).unwrap();
    assert_eq!(blob[4], MANIFEST_VERSION);
    let man = Manifest::decode(&blob).unwrap();
    for c in &man.chunks {
        let payload = sink
            .read(&format!("c-{:016x}-{}.bin", c.hash, c.len))
            .unwrap();
        assert_eq!(payload[0], CHUNK_VERSION);
        assert_eq!(payload.len() as u64, c.len);
        assert_eq!(word_hash64(&payload), c.hash);
    }
}

#[test]
fn every_single_bit_flip_of_a_v2_chunk_changes_its_hash() {
    // Exhaustive over the fixture's chunk bytes: the hash step is a
    // bijection of the state and injective in the word, so no flip may
    // leave a chunk at its old address.
    let sink = fixture_sink();
    let mut flips = 0usize;
    for (name, bytes) in sink.files().iter().filter(|(n, _)| n.starts_with("c-")) {
        let want = word_hash64(bytes);
        let mut flipped = bytes.clone();
        for i in 0..flipped.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                assert_ne!(word_hash64(&flipped), want, "{name}: byte {i} bit {bit}");
                flipped[i] ^= 1 << bit;
                flips += 1;
            }
        }
    }
    assert!(flips > 0, "fixture has chunk files");
}

#[test]
fn refused_extras_or_chunks_leave_the_machine_untouched() {
    // An intact, sealed manifest whose extras or chunk table contradict
    // the machine: resume fails typed, and nothing of the fixture's state
    // may have been installed by then.
    let mut bad_plan = fixture_sink();
    let name = manifest_name(&bad_plan);
    let mut man = Manifest::decode(&bad_plan.read(&name).unwrap()).unwrap();
    man.extras.key_plans[0].push((9999, hyperap_tcam::KeyBit::One));
    bad_plan.insert(name.clone(), man.encode());

    let mut short = fixture_sink();
    let mut man = Manifest::decode(&short.read(&name).unwrap()).unwrap();
    man.chunks.pop();
    short.insert(name.clone(), man.encode());

    for (sink, what) in [(bad_plan, "key plan"), (short, "chunk table")] {
        let mut m = blank(3);
        let err = Checkpointer::new(sink).resume(&mut m).unwrap_err();
        assert!(matches!(err, CkptError::Restore(_)), "{what}: {err:?}");
        assert_identical(&m, &blank(3), what);
    }
}

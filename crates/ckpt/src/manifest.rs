//! Checkpoint wire formats: the versioned manifest and the per-chunk
//! payload. Everything is hand-encoded as explicit bytes. Commit writes
//! manifest v2 and chunk v2, and resume reads only those; any other
//! version byte is [`CkptError::BadVersion`].
//!
//! # Manifest (`m-<epoch>.ckpt`), big-endian
//!
//! ```text
//! magic "HAPC" | version u8 | epoch u64
//! geometry witness: 10 × u64 (ArchConfig::geometry_fields order)
//! fault witness: seed u64 | stuck u32 | miss u32 | limit flag u8 (+ u64) | spares u64
//! extras, per group: key bits (u32 len + KeyBit bytes)
//!                    key plan (u32 len + (u32 col, u8 bit) entries)
//!                    bank mask u8
//!                    data buffer (u32 rows + row-blocks as u64)
//! chunks: u32 count, each { base u64 | pes u32 | payload len u64 | hash u64 }
//! trailing fnv1a64 seal of everything above
//! ```
//!
//! A chunk's `hash` (and the `<hash>` of its file name) is [`word_hash64`]
//! of the payload bytes. The seal is [`fnv1a64`] and is checked before the
//! version byte, so a bit-flipped version byte is a soft
//! [`CkptError::BadChecksum`] (resume falls back an epoch), and only an
//! intact manifest of another version is a hard [`CkptError::BadVersion`].
//! Every count is checked against the bytes that remain before anything is
//! allocated for it.
//!
//! The manifest is **deterministic** — no timestamps, no absolute paths —
//! so a frozen fixture stays byte-stable and content-addressed chunk reuse
//! works across processes.
//!
//! # Chunk payload (`c-<hash>-<len>.bin`)
//!
//! The first byte is the chunk version, [`CHUNK_VERSION`] (2). After it
//! come the global base as a little-endian u64; the
//! `TcamSlab::write_plane_image` image (a `(pes, rows, cols, pe_words)`
//! header, the `zeros`/`ones` arenas as little-endian words in memory
//! order, sparse wear, a fault flag and the fault bookkeeping tail); tags,
//! latch and regs as `TagSlab::write_plane` (`rows × pe_words`
//! little-endian words each); and `pes` op records of
//! `OpCounts::ENCODED_LEN` bytes.
//!
//! A chunk restores with word copies and no transposes. Its planes are
//! padded to 64-PE words, so a chunk much narrower than 64 PEs carries
//! mostly padding.

use bytes::{Buf, BufMut, BytesMut};
use hyperap_arch::slab::{ChunkPayload, ChunkState, MachineExtras, RestoreError};
use hyperap_arch::ArchConfig;
use hyperap_model::timing::OpCounts;
use hyperap_tcam::bit::KeyBit;
use hyperap_tcam::key::SearchKey;
use hyperap_tcam::slab::{SlabDecodeError, TagSlab, TcamSlab};
use hyperap_tcam::tags::TagVector;

use crate::sink::SinkError;

/// Magic bytes opening every manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"HAPC";
/// Version byte of the manifest format (chunk hashes are
/// [`word_hash64`]).
pub const MANIFEST_VERSION: u8 = 2;
/// Version byte of the chunk payload format.
pub const CHUNK_VERSION: u8 = 2;

/// Failure modes of checkpoint commit, decode, and resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// No committed checkpoint exists in the sink.
    NoCheckpoint,
    /// A manifest or chunk carries an unknown format version.
    BadVersion(u8),
    /// A structurally valid manifest describes a different machine geometry
    /// or fault configuration than the resuming machine's.
    GeometryMismatch,
    /// A manifest or chunk ends before its format promises.
    Truncated,
    /// The manifest's trailing checksum does not match its contents.
    BadChecksum,
    /// A chunk file referenced by the manifest is missing.
    MissingChunk,
    /// A chunk file's bytes do not hash to the manifest's entry.
    ChunkHashMismatch,
    /// A chunk payload's embedded slab image failed to decode.
    ChunkDecode(SlabDecodeError),
    /// The decoded chunks do not tile the machine (via
    /// [`hyperap_arch::slab::RestoreError`]).
    Restore(RestoreError),
    /// The storage backend failed.
    Sink(SinkError),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::NoCheckpoint => write!(f, "no committed checkpoint found"),
            CkptError::BadVersion(v) => write!(f, "unknown checkpoint format version {v}"),
            CkptError::GeometryMismatch => {
                write!(
                    f,
                    "checkpoint geometry/fault witness contradicts the machine"
                )
            }
            CkptError::Truncated => write!(f, "checkpoint record truncated"),
            CkptError::BadChecksum => write!(f, "manifest checksum mismatch"),
            CkptError::MissingChunk => write!(f, "manifest references a missing chunk file"),
            CkptError::ChunkHashMismatch => write!(f, "chunk content does not match manifest hash"),
            CkptError::ChunkDecode(e) => write!(f, "chunk payload decode failed: {e}"),
            CkptError::Restore(e) => write!(f, "restore rejected decoded chunks: {e}"),
            CkptError::Sink(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<SinkError> for CkptError {
    fn from(e: SinkError) -> Self {
        CkptError::Sink(e)
    }
}

impl From<RestoreError> for CkptError {
    fn from(e: RestoreError) -> Self {
        CkptError::Restore(e)
    }
}

impl From<SlabDecodeError> for CkptError {
    fn from(e: SlabDecodeError) -> Self {
        CkptError::ChunkDecode(e)
    }
}

/// FNV-1a 64 over a byte slice — the manifest's self-checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The chunk content hash of a manifest, a word hash in the style of
/// `hyperap_arch::trace::stream_set_hash`: the step `h = (h.rotl(5) ^ w) * K`
/// over the bytes as little-endian 64-bit words, the tail bytes
/// zero-padded into one more word, then the byte length, then the
/// splitmix64 finalizer. It takes a word per step where [`fnv1a64`] takes
/// a byte.
///
/// For a fixed word the step is a bijection of the state, and for a fixed
/// state it is injective in the word; the finalizer is a bijection. So two
/// inputs of the same length that differ in a single word always hash
/// differently — in particular, every single-bit flip of a chunk changes
/// its address.
pub fn word_hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in words.by_ref() {
        let mut w = [0u8; 8];
        w.copy_from_slice(c);
        h = step(h, u64::from_le_bytes(w));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(w));
    }
    h = step(h, bytes.len() as u64);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The fault-model witness embedded in every manifest: resuming into a
/// machine with a different seeded fault universe would silently change
/// results, so it is part of the geometry check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWitness {
    /// Fault model seed.
    pub seed: u64,
    /// Stuck cells per million.
    pub stuck_per_million: u32,
    /// Transient misses per million.
    pub miss_per_million: u32,
    /// Endurance retirement limit.
    pub endurance_limit: Option<u64>,
    /// Spare columns per PE.
    pub spare_cols: u64,
}

impl FaultWitness {
    /// The witness of a machine config.
    pub fn of(config: &ArchConfig) -> Self {
        FaultWitness {
            seed: config.faults.model.seed,
            stuck_per_million: config.faults.model.stuck_per_million,
            miss_per_million: config.faults.model.miss_per_million,
            endurance_limit: config.faults.model.endurance_limit,
            spare_cols: config.faults.spare_cols as u64,
        }
    }
}

/// One chunk reference inside a manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Global index of the chunk's first PE.
    pub base: u64,
    /// PEs in the chunk.
    pub pes: u32,
    /// Payload length in bytes.
    pub len: u64,
    /// Content hash of the payload bytes (also its address):
    /// [`word_hash64`].
    pub hash: u64,
}

/// A decoded manifest: everything needed to locate, verify, and re-apply
/// one committed epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic commit epoch.
    pub epoch: u64,
    /// [`ArchConfig::geometry_fields`] of the writing machine.
    pub geometry: [u64; 10],
    /// Fault-model witness of the writing machine.
    pub fault: FaultWitness,
    /// Controller state outside the chunk arenas.
    pub extras: MachineExtras,
    /// Chunk references, ascending by `base`.
    pub chunks: Vec<ChunkEntry>,
}

fn key_bit_to_u8(b: KeyBit) -> u8 {
    match b {
        KeyBit::Zero => 0,
        KeyBit::One => 1,
        KeyBit::Z => 2,
        KeyBit::Masked => 3,
    }
}

fn key_bit_from_u8(v: u8) -> Option<KeyBit> {
    match v {
        0 => Some(KeyBit::Zero),
        1 => Some(KeyBit::One),
        2 => Some(KeyBit::Z),
        3 => Some(KeyBit::Masked),
        _ => None,
    }
}

/// Checked sequential reader: every accessor verifies length first, so a
/// truncated blob surfaces as [`CkptError::Truncated`] instead of a panic.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn need(&self, n: usize) -> Result<(), CkptError> {
        if self.0.remaining() < n {
            Err(CkptError::Truncated)
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, CkptError> {
        self.need(1)?;
        Ok(self.0.get_u8())
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        self.need(4)?;
        Ok(self.0.get_u32())
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        self.need(8)?;
        Ok(self.0.get_u64())
    }

    /// Check that `n` records of at least `each` bytes can still follow,
    /// before anything is allocated for them; returns `n`.
    fn fits(&self, n: u64, each: usize) -> Result<usize, CkptError> {
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.0.remaining() / each)
            .ok_or(CkptError::Truncated)
    }

    /// Read a u32 count of records of at least `each` bytes, checked by
    /// [`fits`](Self::fits).
    fn count(&mut self, each: usize) -> Result<usize, CkptError> {
        let n = self.u32()?;
        self.fits(n.into(), each)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        self.need(n)?;
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }
}

impl Manifest {
    /// Serialize as [`MANIFEST_VERSION`], appending the trailing
    /// self-checksum. A decoded manifest re-encodes byte for byte.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(&MANIFEST_MAGIC);
        buf.put_u8(MANIFEST_VERSION);
        buf.put_u64(self.epoch);
        for field in self.geometry {
            buf.put_u64(field);
        }
        buf.put_u64(self.fault.seed);
        buf.put_u32(self.fault.stuck_per_million);
        buf.put_u32(self.fault.miss_per_million);
        match self.fault.endurance_limit {
            Some(limit) => {
                buf.put_u8(1);
                buf.put_u64(limit);
            }
            None => buf.put_u8(0),
        }
        buf.put_u64(self.fault.spare_cols);
        let groups = self.extras.keys.len();
        debug_assert_eq!(groups, self.geometry[0] as usize, "extras/geometry groups");
        for g in 0..groups {
            let key = &self.extras.keys[g];
            buf.put_u32(key.bits().len() as u32);
            for &b in key.bits() {
                buf.put_u8(key_bit_to_u8(b));
            }
            let plan = &self.extras.key_plans[g];
            buf.put_u32(plan.len() as u32);
            for &(col, b) in plan {
                buf.put_u32(col as u32);
                buf.put_u8(key_bit_to_u8(b));
            }
            buf.put_u8(self.extras.bank_masks[g]);
            let db = &self.extras.data_buffers[g];
            buf.put_u32(db.len() as u32);
            for &w in db.blocks() {
                buf.put_u64(w);
            }
        }
        buf.put_u32(self.chunks.len() as u32);
        for c in &self.chunks {
            buf.put_u64(c.base);
            buf.put_u32(c.pes);
            buf.put_u64(c.len);
            buf.put_u64(c.hash);
        }
        let mut out = Vec::from(buf);
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_be_bytes());
        out
    }

    /// Decode and verify a manifest blob.
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] / [`CkptError::BadChecksum`] for damaged
    /// blobs (a resume falls back to an older epoch on these), including
    /// any count that promises more bytes than remain;
    /// [`CkptError::BadVersion`] for an intact blob of any other format
    /// version (a hard error — falling back would silently ignore its
    /// state).
    pub fn decode(bytes: &[u8]) -> Result<Manifest, CkptError> {
        if bytes.len() < MANIFEST_MAGIC.len() + 8 {
            return Err(CkptError::Truncated);
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let want = u64::from_be_bytes(sum_bytes.try_into().expect("8-byte checksum"));
        if fnv1a64(body) != want {
            return Err(CkptError::BadChecksum);
        }
        let mut cur = Cursor(body);
        if cur.bytes(4)? != MANIFEST_MAGIC {
            return Err(CkptError::BadChecksum);
        }
        let version = cur.u8()?;
        if version != MANIFEST_VERSION {
            return Err(CkptError::BadVersion(version));
        }
        let epoch = cur.u64()?;
        let mut geometry = [0u64; 10];
        for field in &mut geometry {
            *field = cur.u64()?;
        }
        let fault = FaultWitness {
            seed: cur.u64()?,
            stuck_per_million: cur.u32()?,
            miss_per_million: cur.u32()?,
            endurance_limit: match cur.u8()? {
                0 => None,
                1 => Some(cur.u64()?),
                _ => return Err(CkptError::Truncated),
            },
            spare_cols: cur.u64()?,
        };
        // Every group record holds at least three u32 lengths and a mask.
        let groups = cur.fits(geometry[0], 4 + 4 + 1 + 4)?;
        let mut extras = MachineExtras {
            keys: Vec::with_capacity(groups),
            key_plans: Vec::with_capacity(groups),
            bank_masks: Vec::with_capacity(groups),
            data_buffers: Vec::with_capacity(groups),
        };
        for _ in 0..groups {
            let width = cur.count(1)?;
            let mut bits = Vec::with_capacity(width);
            for _ in 0..width {
                bits.push(key_bit_from_u8(cur.u8()?).ok_or(CkptError::Truncated)?);
            }
            extras.keys.push(SearchKey::from_bits(bits));
            let plen = cur.count(4 + 1)?;
            let mut plan = Vec::with_capacity(plen);
            for _ in 0..plen {
                let col = cur.u32()? as usize;
                plan.push((col, key_bit_from_u8(cur.u8()?).ok_or(CkptError::Truncated)?));
            }
            extras.key_plans.push(plan);
            extras.bank_masks.push(cur.u8()?);
            let rows = cur.u32()? as usize;
            if rows == 0 {
                return Err(CkptError::Truncated);
            }
            cur.fits(rows.div_ceil(64) as u64, 8)?;
            let mut db = TagVector::zeros(rows);
            for w in db.blocks_mut() {
                *w = cur.u64()?;
            }
            extras.data_buffers.push(db);
        }
        let nchunks = cur.count(8 + 4 + 8 + 8)?;
        let mut chunks = Vec::with_capacity(nchunks);
        for _ in 0..nchunks {
            chunks.push(ChunkEntry {
                base: cur.u64()?,
                pes: cur.u32()?,
                len: cur.u64()?,
                hash: cur.u64()?,
            });
        }
        if cur.0.has_remaining() {
            return Err(CkptError::Truncated);
        }
        Ok(Manifest {
            epoch,
            geometry,
            fault,
            extras,
            chunks,
        })
    }
}

/// Serialize one chunk's state into a v2 payload blob (see the
/// [module docs](self)).
pub fn encode_chunk(state: &ChunkState<'_>) -> Vec<u8> {
    debug_assert_eq!(state.ops.len(), state.pes, "one op record per PE");
    let storage = state.storage;
    let planes = storage.cols() * storage.plane_words();
    let mut out = Vec::with_capacity(
        64 + 16 * planes + 24 * storage.plane_words() + state.ops.len() * OpCounts::ENCODED_LEN,
    );
    out.push(CHUNK_VERSION);
    out.extend_from_slice(&(state.global_base as u64).to_le_bytes());
    storage.write_plane_image(&mut out);
    for t in [state.tags, state.latch, state.regs] {
        t.write_plane(&mut out);
    }
    for o in state.ops {
        o.encode_into(&mut out);
    }
    out
}

/// Decode one chunk payload blob.
///
/// # Errors
///
/// [`CkptError::Truncated`] on short blobs or trailing bytes,
/// [`CkptError::BadVersion`] on any payload version but
/// [`CHUNK_VERSION`], [`CkptError::ChunkDecode`] when an embedded slab
/// image is damaged.
pub fn decode_chunk(bytes: &[u8]) -> Result<ChunkPayload, CkptError> {
    let Some((&version, mut buf)) = bytes.split_first() else {
        return Err(CkptError::Truncated);
    };
    if version != CHUNK_VERSION {
        return Err(CkptError::BadVersion(version));
    }
    let Some((base, rest)) = buf.split_first_chunk::<8>() else {
        return Err(CkptError::Truncated);
    };
    let global_base =
        usize::try_from(u64::from_le_bytes(*base)).map_err(|_| CkptError::Truncated)?;
    buf = rest;
    let storage = TcamSlab::read_plane_image(&mut buf)?;
    let (pes, rows) = (storage.pes(), storage.rows());
    let tags = TagSlab::read_plane(&mut buf, pes, rows)?;
    let latch = TagSlab::read_plane(&mut buf, pes, rows)?;
    let regs = TagSlab::read_plane(&mut buf, pes, rows)?;
    if Some(buf.len()) != pes.checked_mul(OpCounts::ENCODED_LEN) {
        return Err(CkptError::Truncated);
    }
    let ops = buf
        .chunks_exact(OpCounts::ENCODED_LEN)
        .filter_map(OpCounts::decode)
        .collect();
    Ok(ChunkPayload {
        global_base,
        storage,
        tags,
        latch,
        regs,
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-group manifest with every variable-length field non-empty: a
    /// 3-bit key, a 2-entry plan, a 70-row data buffer and 2 chunks.
    fn sample() -> Manifest {
        let mut geometry = [0u64; 10];
        geometry[0] = 1;
        Manifest {
            epoch: 7,
            geometry,
            fault: FaultWitness {
                seed: 1,
                stuck_per_million: 2,
                miss_per_million: 3,
                endurance_limit: None,
                spare_cols: 4,
            },
            extras: MachineExtras {
                keys: vec![SearchKey::from_bits(vec![
                    KeyBit::One,
                    KeyBit::Z,
                    KeyBit::Masked,
                ])],
                key_plans: vec![vec![(0, KeyBit::One), (1, KeyBit::Z)]],
                bank_masks: vec![1],
                data_buffers: vec![TagVector::zeros(70)],
            },
            chunks: vec![
                ChunkEntry {
                    base: 0,
                    pes: 2,
                    len: 10,
                    hash: 11,
                },
                ChunkEntry {
                    base: 2,
                    pes: 2,
                    len: 12,
                    hash: 13,
                },
            ],
        }
    }

    // Field offsets in `sample().encode()`.
    const GROUPS_AT: usize = 4 + 1 + 8;
    const WIDTH_AT: usize = GROUPS_AT + 10 * 8 + 8 + 4 + 4 + 1 + 8;
    const PLAN_AT: usize = WIDTH_AT + 4 + 3;
    const ROWS_AT: usize = PLAN_AT + 4 + 2 * 5 + 1;
    const NCHUNKS_AT: usize = ROWS_AT + 4 + 2 * 8;

    /// Overwrite the bytes at `at` with `field`, re-seal, and decode: the
    /// blob passes its checksum, so only the structural checks stand
    /// between a bad count and an allocation.
    fn decode_with(at: usize, field: &[u8]) -> Result<Manifest, CkptError> {
        let mut b = sample().encode();
        b[at..at + field.len()].copy_from_slice(field);
        let body = b.len() - 8;
        let seal = fnv1a64(&b[..body]).to_be_bytes();
        b[body..].copy_from_slice(&seal);
        Manifest::decode(&b)
    }

    #[test]
    fn sample_round_trips_and_offsets_hold() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()), Ok(m.clone()));
        // Rewriting each count with its own value changes nothing, so the
        // offsets the tests below overwrite are the counts' own.
        assert_eq!(decode_with(GROUPS_AT, &1u64.to_be_bytes()), Ok(m.clone()));
        for (at, v) in [
            (WIDTH_AT, 3u32),
            (PLAN_AT, 2),
            (ROWS_AT, 70),
            (NCHUNKS_AT, 2),
        ] {
            assert_eq!(decode_with(at, &v.to_be_bytes()), Ok(m.clone()), "{at}");
        }
    }

    #[test]
    fn huge_group_count_is_truncated_not_allocated() {
        assert_eq!(
            decode_with(GROUPS_AT, &u64::MAX.to_be_bytes()),
            Err(CkptError::Truncated)
        );
    }

    #[test]
    fn huge_key_width_is_truncated_not_allocated() {
        assert_eq!(
            decode_with(WIDTH_AT, &u32::MAX.to_be_bytes()),
            Err(CkptError::Truncated)
        );
    }

    #[test]
    fn huge_plan_length_is_truncated_not_allocated() {
        assert_eq!(
            decode_with(PLAN_AT, &u32::MAX.to_be_bytes()),
            Err(CkptError::Truncated)
        );
    }

    #[test]
    fn huge_data_buffer_rows_are_truncated_not_allocated() {
        assert_eq!(
            decode_with(ROWS_AT, &u32::MAX.to_be_bytes()),
            Err(CkptError::Truncated)
        );
    }

    #[test]
    fn huge_chunk_count_is_truncated_not_allocated() {
        assert_eq!(
            decode_with(NCHUNKS_AT, &u32::MAX.to_be_bytes()),
            Err(CkptError::Truncated)
        );
    }

    /// One chunk file of the `ckpt_v2` golden fixture.
    fn fixture_chunk() -> Vec<u8> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../tcam/tests/golden/ckpt_v2");
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .expect("fixture dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("c-"))
            })
            .collect();
        names.sort();
        std::fs::read(&names[0]).expect("chunk file")
    }

    #[test]
    fn huge_v2_dimensions_are_truncated_not_allocated() {
        let chunk = fixture_chunk();
        assert!(decode_chunk(&chunk).is_ok());
        // The plane-image header follows the version byte and the base.
        let header = 1 + 8;
        for (dims, want) in [
            // rows, then cols, far past the bytes present.
            (vec![(1, u32::MAX)], SlabDecodeError::Truncated),
            (vec![(2, u32::MAX)], SlabDecodeError::Truncated),
            // The most PEs the header can name, with matching pe_words.
            (
                vec![(0, u32::MAX), (3, u32::MAX.div_ceil(64))],
                SlabDecodeError::Truncated,
            ),
            // pe_words that contradict pes.
            (vec![(3, 7)], SlabDecodeError::BadGeometry),
        ] {
            let mut c = chunk.clone();
            for &(i, v) in &dims {
                c[header + 4 * i..header + 4 * i + 4].copy_from_slice(&v.to_le_bytes());
            }
            assert_eq!(
                decode_chunk(&c).err(),
                Some(CkptError::ChunkDecode(want)),
                "{dims:?}"
            );
        }
        // Trailing or missing op-record bytes.
        let mut long = chunk.clone();
        long.push(0);
        assert_eq!(decode_chunk(&long).err(), Some(CkptError::Truncated));
        assert_eq!(
            decode_chunk(&chunk[..chunk.len() - 1]).err(),
            Some(CkptError::Truncated)
        );
    }
}

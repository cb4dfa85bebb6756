//! Slab-backed TCAM storage: one contiguous bit-plane arena for a whole
//! chunk of PEs, with word-parallel kernels that process 64 PEs per ALU op.
//!
//! [`crate::array::TcamArray`] keeps each column's `is_zero`/`is_one`
//! row-blocks in their own `Vec<u64>`, so a machine of 1024 PEs × 256
//! columns owns ~half a million tiny heap allocations and a search-plan
//! column step pays a pointer chase per column per PE. Real CAM
//! accelerators are banked arrays swept in lockstep; [`TcamSlab`] gives the
//! simulator the same structure-of-arrays shape, with the innermost
//! dimension **PE-major**:
//!
//! * Cell state lives in two flat arenas indexed `[col][row][pe_word]` —
//!   bit `p` of a plane word is PE `p`'s bit for that `(row, col)` cell, so
//!   one 64-bit AND/OR processes the same cell of 64 PEs at once and a
//!   search-plan column step is a single linear sweep over one contiguous
//!   plane covering the whole chunk.
//! * Tags (and the encoder latch and data registers of higher layers) live
//!   in a matching [`TagSlab`] bit-plane indexed `[row][pe_word]` — exactly
//!   the layout of one column's plane, so search output lands with a
//!   straight `zip` and no per-PE dispatch.
//! * Wear is a flat `[col][pe]` table, so the per-column write pulse
//!   accounting of a multi-PE write is one contiguous increment sweep.
//!
//! Kernels take a *selection mask* (`sel: Option<&[u64]>`, one word per 64
//! PEs) instead of a contiguous `lo..hi` PE range: `None` means every PE of
//! the chunk and keeps all masking off the hot loops, `Some` blends results
//! into the selected lanes only, so ragged active-PE sets cost one extra
//! AND per word instead of a per-PE dispatch.
//!
//! Bits at PE positions `>= pes` in the last word of each plane row are
//! **always zero** — in the arenas, in [`TagSlab`] planes, and in every
//! `sel` mask. That invariant is what lets the write kernels run mask-free:
//! tag padding is zero, so padded lanes never program a cell.
//!
//! The fused kernels ([`TcamSlab::search_plan_multi_into`],
//! [`write_column_multi`](TcamSlab::write_column_multi),
//! [`copy_column_multi`](TcamSlab::copy_column_multi),
//! [`write_encoded_multi`](TcamSlab::write_encoded_multi)) are
//! bit-identical to looping the corresponding [`TcamArray`] kernel over
//! per-PE objects, and the single-sweep search→write kernels
//! [`search_write_multi`](TcamSlab::search_write_multi) /
//! [`search_narrow_multi`](TcamSlab::search_narrow_multi) behind the trace
//! peephole's fused micro-ops are bit-identical to the unfused
//! [`TcamArray`] search and write sequence (property-tested in
//! `tests/slab_properties.rs`), and
//! [`from_arrays`](TcamSlab::from_arrays) / [`to_arrays`](TcamSlab::to_arrays)
//! convert losslessly in both directions, wear included. Byte images keep
//! the historical per-PE wire layout (`[col][pe][block]`), converted at the
//! encode/decode boundary by the tile transposes in `crate::plane`.

use crate::array::TcamArray;
use crate::bit::{KeyBit, TernaryBit};
use crate::fault::{FaultError, FaultModel, FaultState, SlabFaultState};
use crate::plane;
use crate::sweep;
use crate::tags::TagVector;
use bytes::{Buf, BufMut, BytesMut};
use serde::{Deserialize, Serialize};

const EMPTY: &[u64] = &[];

/// Conservative per-column summary of one bit-line plane, maintained by
/// every mutating kernel and consulted by the match dispatch to skip
/// whole plane sweeps:
///
/// * `AllZero` — the plane provably has no set bit, so as a *miss plane*
///   it rules nothing out and the kernels skip loading it entirely.
/// * `Full` — every live lane is provably set, so any plan with this miss
///   plane matches nothing and the whole search (and its tag-driven
///   writes) collapses to "clear the tags".
/// * `Unknown` — no proof either way; load the plane.
///
/// Transitions only ever *lose* precision (conservative toward
/// `Unknown`), so a summary never claims a state the plane isn't in. The
/// payoff is workload sparsity: a fresh slab stores `0` everywhere
/// (`zeros` planes `Full`, `ones` planes `AllZero`), so searches over
/// never-written columns never touch their arenas at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum PlaneSummary {
    AllZero,
    Full,
    Unknown,
}

impl PlaneSummary {
    /// Summary after OR-ing an (unknown, live-masked) tag plane in.
    fn after_set(self) -> Self {
        match self {
            // A full plane stays full under `|=`.
            PlaneSummary::Full => PlaneSummary::Full,
            _ => PlaneSummary::Unknown,
        }
    }

    /// Summary after AND-ing an (unknown) tag plane's complement in.
    fn after_clear(self) -> Self {
        match self {
            // An empty plane stays empty under `&= !t`.
            PlaneSummary::AllZero => PlaneSummary::AllZero,
            _ => PlaneSummary::Unknown,
        }
    }
}

/// Exact summary of a plane: all-zero, exactly the live mask, or neither.
fn summarize_plane(p: &[u64], live: &[u64]) -> PlaneSummary {
    if p.iter().all(|&w| w == 0) {
        PlaneSummary::AllZero
    } else if p == live {
        PlaneSummary::Full
    } else {
        PlaneSummary::Unknown
    }
}

/// Build the selection mask for the contiguous PE range `lo..hi` of a
/// `pes`-wide slab: `pes.div_ceil(64)` words with exactly bits
/// `lo..hi` set. Pass `None` instead when the range covers every PE — the
/// kernels' mask-free path.
pub fn pe_range_mask(pes: usize, lo: usize, hi: usize) -> Vec<u64> {
    assert!(lo <= hi && hi <= pes, "PE range out of bounds");
    let mut m = vec![0u64; pes.div_ceil(64)];
    for pe in lo..hi {
        m[pe / 64] |= 1u64 << (pe % 64);
    }
    m
}

/// A contiguous multi-PE tag bit-plane: the slab counterpart of one
/// [`TagVector`] per PE.
///
/// Words are laid out `[row][pe_word]`, matching the per-column planes of
/// [`TcamSlab`], so slab search kernels write straight into this arena.
/// Bits at PE positions `>= pes` in each row's last word are always zero
/// (the padding invariant of the [module docs](self)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TagSlab {
    pes: usize,
    rows: usize,
    /// 64-PE words per row.
    pw: usize,
    blocks: Vec<u64>,
    /// Monotonic write-tracking counter; see [`version`](Self::version).
    version: u64,
}

/// Equality covers geometry and plane contents only — the write-tracking
/// [`version`](TagSlab::version) counter is bookkeeping, not state.
impl PartialEq for TagSlab {
    fn eq(&self, other: &Self) -> bool {
        (self.pes, self.rows, self.pw, &self.blocks)
            == (other.pes, other.rows, other.pw, &other.blocks)
    }
}

impl Eq for TagSlab {}

impl TagSlab {
    /// All-clear tags for `pes` PEs of `rows` rows each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(pes: usize, rows: usize) -> Self {
        assert!(pes > 0 && rows > 0, "tag slab dimensions must be non-zero");
        let pw = pes.div_ceil(64);
        TagSlab {
            pes,
            rows,
            pw,
            blocks: vec![0; rows * pw],
            version: 0,
        }
    }

    /// Monotonic write-tracking counter: bumped by every method that can
    /// change the plane contents (conservatively — a bump does not prove a
    /// bit actually flipped). Checkpointing compares versions to skip clean
    /// chunks; the counter is excluded from equality and from the byte
    /// image.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn touch(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// Clear every tag bit, restoring the all-clear state of
    /// [`zeros`](Self::zeros) without reallocating the plane.
    pub fn clear(&mut self) {
        self.touch();
        self.blocks.fill(0);
    }

    /// Number of PEs in the slab.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// Rows per PE.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// 64-PE words per row of the plane.
    pub fn pe_words(&self) -> usize {
        self.pw
    }

    /// 64-row blocks per PE of the transposed (per-PE) layout — the buffer
    /// size [`pe_blocks_into`](Self::pe_blocks_into) /
    /// [`set_pe_blocks`](Self::set_pe_blocks) gather and scatter.
    pub fn blocks_per_pe(&self) -> usize {
        self.rows.div_ceil(64)
    }

    /// The whole `[row][pe_word]` plane.
    pub fn words(&self) -> &[u64] {
        &self.blocks
    }

    /// The whole `[row][pe_word]` plane, mutable. Bits at PE positions
    /// `>= pes` must be left zero.
    pub fn words_mut(&mut self) -> &mut [u64] {
        self.touch();
        &mut self.blocks
    }

    /// Multi-PE accumulate: OR `other`'s plane into this one, restricted to
    /// the PEs selected by `sel` (`None` = all) — the accumulation unit of
    /// every selected PE, fused into one linear sweep.
    ///
    /// # Panics
    ///
    /// Panics if the slabs' geometries differ.
    pub fn accumulate_from(&mut self, other: &TagSlab, sel: Option<&[u64]>) {
        assert_eq!(
            (self.pes, self.rows),
            (other.pes, other.rows),
            "tag slab geometry mismatch"
        );
        self.touch();
        match sel {
            None => {
                for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
                    *a |= b;
                }
            }
            Some(m) => {
                let pw = self.pw;
                for (i, (a, b)) in self.blocks.iter_mut().zip(&other.blocks).enumerate() {
                    *a |= b & m[i % pw];
                }
            }
        }
    }

    /// Multi-PE latch/copy: overwrite this plane's selected lanes with
    /// `other`'s (`sel = None` is one `memcpy` for the whole plane).
    ///
    /// # Panics
    ///
    /// Panics if the slabs' geometries differ.
    pub fn copy_from_masked(&mut self, other: &TagSlab, sel: Option<&[u64]>) {
        assert_eq!(
            (self.pes, self.rows),
            (other.pes, other.rows),
            "tag slab geometry mismatch"
        );
        self.touch();
        match sel {
            None => self.blocks.copy_from_slice(&other.blocks),
            Some(m) => {
                let pw = self.pw;
                for (i, (a, b)) in self.blocks.iter_mut().zip(&other.blocks).enumerate() {
                    let mm = m[i % pw];
                    *a = (*a & !mm) | (b & mm);
                }
            }
        }
    }

    /// Broadcast one [`TagVector`] into every PE selected by `sel`
    /// (`None` = all) — the slab form of writing the same register value to
    /// a whole active set.
    ///
    /// # Panics
    ///
    /// Panics if the vector's length differs from the slab's row count.
    pub fn broadcast(&mut self, tags: &TagVector, sel: Option<&[u64]>) {
        assert_eq!(tags.len(), self.rows, "tag length mismatch");
        self.touch();
        let pw = self.pw;
        let tail = if !self.pes.is_multiple_of(64) {
            (1u64 << (self.pes % 64)) - 1
        } else {
            !0
        };
        for row in 0..self.rows {
            let bit = tags.get(row);
            let w = &mut self.blocks[row * pw..(row + 1) * pw];
            match sel {
                Some(m) => {
                    if bit {
                        for (d, &mm) in w.iter_mut().zip(m) {
                            *d |= mm;
                        }
                    } else {
                        for (d, &mm) in w.iter_mut().zip(m) {
                            *d &= !mm;
                        }
                    }
                }
                None => {
                    if bit {
                        for (wi, d) in w.iter_mut().enumerate() {
                            *d = if wi + 1 < pw { !0 } else { tail };
                        }
                    } else {
                        w.fill(0);
                    }
                }
            }
        }
    }

    /// Population count of one PE's tags (the `Count` reduction) — an
    /// O(rows) column gather in the plane layout.
    pub fn count(&self, pe: usize) -> usize {
        assert!(pe < self.pes, "PE out of range");
        let (w, s) = (pe / 64, pe % 64);
        (0..self.rows)
            .filter(|&r| self.blocks[r * self.pw + w] >> s & 1 != 0)
            .count()
    }

    /// First tagged row of one PE (the `Index` priority encoder).
    pub fn first_index(&self, pe: usize) -> Option<usize> {
        assert!(pe < self.pes, "PE out of range");
        let (w, s) = (pe / 64, pe % 64);
        (0..self.rows).find(|&r| self.blocks[r * self.pw + w] >> s & 1 != 0)
    }

    /// Gather one PE's tags into per-PE 64-row blocks
    /// ([`blocks_per_pe`](Self::blocks_per_pe) words; padding bits come out
    /// zero).
    pub fn pe_blocks_into(&self, pe: usize, out: &mut [u64]) {
        assert!(pe < self.pes, "PE out of range");
        assert_eq!(out.len(), self.blocks_per_pe(), "block count mismatch");
        out.fill(0);
        let (w, s) = (pe / 64, pe % 64);
        for row in 0..self.rows {
            out[row / 64] |= (self.blocks[row * self.pw + w] >> s & 1) << (row % 64);
        }
    }

    /// Scatter per-PE 64-row blocks into one PE's plane lane — the inverse
    /// of [`pe_blocks_into`](Self::pe_blocks_into). Bits at row positions
    /// `>= rows` in the last block are ignored.
    pub fn set_pe_blocks(&mut self, pe: usize, blocks: &[u64]) {
        assert!(pe < self.pes, "PE out of range");
        assert_eq!(blocks.len(), self.blocks_per_pe(), "block count mismatch");
        self.touch();
        let (w, s) = (pe / 64, pe % 64);
        for row in 0..self.rows {
            let bit = blocks[row / 64] >> (row % 64) & 1;
            let d = &mut self.blocks[row * self.pw + w];
            *d = (*d & !(1u64 << s)) | (bit << s);
        }
    }

    /// Copy one PE's tags out as a standalone [`TagVector`].
    pub fn to_tagvector(&self, pe: usize) -> TagVector {
        let mut t = TagVector::zeros(self.rows);
        self.pe_blocks_into(pe, t.blocks_mut());
        t
    }

    /// Overwrite one PE's tags from a [`TagVector`].
    ///
    /// # Panics
    ///
    /// Panics if the vector's length differs from the slab's row count.
    pub fn set_pe(&mut self, pe: usize, tags: &TagVector) {
        assert_eq!(tags.len(), self.rows, "tag length mismatch");
        self.set_pe_blocks(pe, tags.blocks());
    }

    /// Version byte of the [`to_bytes`](Self::to_bytes) image format.
    pub const FORMAT_VERSION: u8 = 1;

    /// Serialize to a versioned byte image (header + per-PE `[pe][block]`
    /// row-blocks as big-endian words — the historical wire layout, so
    /// images written by the pre-bit-plane slab decode unchanged). The
    /// in-memory plane is transposed at this boundary.
    ///
    /// # Panics
    ///
    /// Panics if a dimension exceeds `u16::MAX`.
    pub fn to_bytes(&self) -> Vec<u8> {
        for dim in [self.pes, self.rows] {
            assert!(dim <= u16::MAX as usize, "dimension exceeds image format");
        }
        let pm = plane::plane_to_pe_major(&self.blocks, self.rows, self.pes);
        let mut buf = BytesMut::with_capacity(5 + pm.len() * 8);
        buf.put_u8(Self::FORMAT_VERSION);
        buf.put_u16(self.pes as u16);
        buf.put_u16(self.rows as u16);
        for w in &pm {
            buf.put_slice(&w.to_be_bytes());
        }
        buf.to_vec()
    }

    /// Deserialize a [`to_bytes`](Self::to_bytes) image.
    ///
    /// # Errors
    ///
    /// Returns a [`SlabDecodeError`] on truncation, version or geometry
    /// problems, trailing bytes, or set bits in a PE's row padding (the
    /// always-zero invariant the kernels rely on).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SlabDecodeError> {
        let mut buf = bytes;
        if buf.remaining() < 5 {
            return Err(SlabDecodeError::Truncated);
        }
        let version = buf.get_u8();
        if version != Self::FORMAT_VERSION {
            return Err(SlabDecodeError::BadVersion(version));
        }
        let pes = buf.get_u16() as usize;
        let rows = buf.get_u16() as usize;
        if pes == 0 || rows == 0 {
            return Err(SlabDecodeError::BadGeometry);
        }
        let bpp = rows.div_ceil(64);
        if buf.remaining() < pes * bpp * 8 {
            return Err(SlabDecodeError::Truncated);
        }
        let mut pm = Vec::with_capacity(pes * bpp);
        let mut word = [0u8; 8];
        for _ in 0..pes * bpp {
            buf.copy_to_slice(&mut word);
            pm.push(u64::from_be_bytes(word));
        }
        if buf.has_remaining() {
            return Err(SlabDecodeError::TrailingBytes(buf.remaining()));
        }
        let tail = rows % 64;
        if tail != 0 {
            let pad = !((1u64 << tail) - 1);
            for pe in 0..pes {
                if pm[pe * bpp + bpp - 1] & pad != 0 {
                    return Err(SlabDecodeError::BadGeometry);
                }
            }
        }
        Ok(TagSlab {
            pes,
            rows,
            pw: pes.div_ceil(64),
            blocks: plane::pe_major_to_plane(&pm, rows, pes),
            version: 0,
        })
    }
}

/// Failure modes of [`TcamSlab::from_bytes`] and [`TagSlab::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlabDecodeError {
    /// The buffer is shorter than the header or the payload its header
    /// promises.
    Truncated,
    /// The version byte is not [`TcamSlab::FORMAT_VERSION`].
    BadVersion(u8),
    /// A header dimension is zero.
    BadGeometry,
    /// Bytes remain after the payload.
    TrailingBytes(usize),
}

impl std::fmt::Display for SlabDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlabDecodeError::Truncated => write!(f, "slab image truncated"),
            SlabDecodeError::BadVersion(v) => write!(f, "unknown slab format version {v}"),
            SlabDecodeError::BadGeometry => write!(f, "slab header has a zero dimension"),
            SlabDecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after slab image"),
        }
    }
}

impl std::error::Error for SlabDecodeError {}

/// Whole-plane match core for one plan pre-resolved to exactly `K`
/// *miss planes* — bit-line planes whose set bits rule a lane out.
/// A `Zero` entry misses where the cell stores one (`ones[col]`), a `One`
/// entry where it stores zero (`zeros[col]`), and a `Z` entry contributes
/// **two** planes (`zeros[col]` and `ones[col]`); match semantics reduce
/// to `out = base? & Π !pₖ`, so every plane is loaded exactly once
/// (the old pair encoding loaded `One`/`Zero` planes twice).
/// Monomorphized per `K` so the whole chain is one branch-free vector
/// loop. Returns the OR of every output word — `0` means the search
/// matched nothing, letting callers skip the write RMWs entirely.
fn match_plane<const K: usize>(out: &mut [u64], base: Option<&[u64]>, e: &[&[u64]; K]) -> u64 {
    let n = out.len();
    let p: [&[u64]; K] = std::array::from_fn(|k| &e[k][..n]);
    let mut any = 0u64;
    match base {
        None => {
            for (i, d) in out.iter_mut().enumerate() {
                let mut m = !0u64;
                for pk in &p {
                    m &= !pk[i];
                }
                *d = m;
                any |= m;
            }
        }
        Some(b) => {
            let b = &b[..n];
            for (i, d) in out.iter_mut().enumerate() {
                let mut m = b[i];
                for pk in &p {
                    m &= !pk[i];
                }
                *d = m;
                any |= m;
            }
        }
    }
    any
}

/// Two-plan variant of [`match_plane`]: `out = base? & (q₁ | q₂)` with
/// `qᵢ` the miss-plane product chain of plan `i` — one fused pass for the
/// OR of two searches, the common shape of the compiled arithmetic
/// micro-code. Returns the OR of every output word, like [`match_plane`].
fn match2_plane<const K1: usize, const K2: usize>(
    out: &mut [u64],
    base: Option<&[u64]>,
    e1: &[&[u64]; K1],
    e2: &[&[u64]; K2],
) -> u64 {
    let n = out.len();
    let p1: [&[u64]; K1] = std::array::from_fn(|k| &e1[k][..n]);
    let p2: [&[u64]; K2] = std::array::from_fn(|k| &e2[k][..n]);
    let mut any = 0u64;
    match base {
        None => {
            for (i, d) in out.iter_mut().enumerate() {
                let mut q1 = !0u64;
                for pk in &p1 {
                    q1 &= !pk[i];
                }
                let mut q2 = !0u64;
                for pk in &p2 {
                    q2 &= !pk[i];
                }
                let m = q1 | q2;
                *d = m;
                any |= m;
            }
        }
        Some(bm) => {
            let bm = &bm[..n];
            for (i, d) in out.iter_mut().enumerate() {
                let mut q1 = !0u64;
                for pk in &p1 {
                    q1 &= !pk[i];
                }
                let mut q2 = !0u64;
                for pk in &p2 {
                    q2 &= !pk[i];
                }
                let m = bm[i] & (q1 | q2);
                *d = m;
                any |= m;
            }
        }
    }
    any
}

/// Resolve up to two plans into their miss-plane slices over the window
/// `[t0..t0 + n)` of each referenced column plane: `Zero` contributes
/// `ones[col]`, `One` contributes `zeros[col]`, `Z` both (see
/// [`match_plane`]). Masked and out-of-range entries are skipped. Fills
/// `bufs`/`ks` in the form [`match_dispatch`] consumes; callers must have
/// checked the four-plane cap per plan beforehand.
///
/// The per-column [`PlaneSummary`] caches prune the resolution: an
/// `AllZero` miss plane rules nothing out and is dropped from the product
/// chain (one less plane streamed per word), while a `Full` miss plane
/// (`plane == live`) vetoes every live lane — the whole plan is *dead*
/// and matches nothing. Dead plans stop resolving immediately; the
/// returned flags tell [`match_dispatch`] which plans collapsed.
#[allow(clippy::too_many_arguments)]
fn collect_miss_planes<'a>(
    plans: &[&[(usize, KeyBit)]],
    zeros: &'a [u64],
    ones: &'a [u64],
    zsum: &[PlaneSummary],
    osum: &[PlaneSummary],
    cols: usize,
    plane: usize,
    t0: usize,
    n: usize,
    bufs: &mut [[&'a [u64]; 4]; 2],
    ks: &mut [usize; 2],
) -> [bool; 2] {
    let mut dead = [false; 2];
    for (pi, plan) in plans.iter().enumerate() {
        'plan: for &(c, bit) in plan.iter() {
            if c >= cols || bit == KeyBit::Masked {
                continue;
            }
            let off = c * plane + t0;
            // (miss-plane slice, its summary) per plan entry.
            let wants: [Option<(&[u64], PlaneSummary)>; 2] = match bit {
                KeyBit::Zero => [Some((&ones[off..off + n], osum[c])), None],
                KeyBit::One => [Some((&zeros[off..off + n], zsum[c])), None],
                KeyBit::Z => [
                    Some((&zeros[off..off + n], zsum[c])),
                    Some((&ones[off..off + n], osum[c])),
                ],
                KeyBit::Masked => unreachable!("filtered above"),
            };
            for (p, s) in wants.into_iter().flatten() {
                match s {
                    // Empty miss plane: `& !0` contributes nothing.
                    PlaneSummary::AllZero => {}
                    // Miss plane covers every live lane: nothing matches.
                    PlaneSummary::Full => {
                        dead[pi] = true;
                        break 'plan;
                    }
                    PlaneSummary::Unknown => {
                        bufs[pi][ks[pi]] = p;
                        ks[pi] += 1;
                    }
                }
            }
        }
    }
    dead
}

/// Single-plan core dispatch of [`match_dispatch`], `k` planes already
/// collected (`k == 0` degenerates to the base mask). Returns the OR of
/// the output words.
fn match_one(out: &mut [u64], base: Option<&[u64]>, e: &[&[u64]; 4], k: usize) -> u64 {
    match k {
        0 => match base {
            Some(b) => {
                out.copy_from_slice(&b[..out.len()]);
                out.iter().fold(0, |a, &w| a | w)
            }
            None => {
                out.fill(!0);
                !0
            }
        },
        1 => match_plane::<1>(out, base, (&e[..1]).try_into().unwrap()),
        2 => match_plane::<2>(out, base, (&e[..2]).try_into().unwrap()),
        3 => match_plane::<3>(out, base, (&e[..3]).try_into().unwrap()),
        4 => match_plane::<4>(out, base, (&e[..4]).try_into().unwrap()),
        _ => unreachable!("fast path caps plans at four miss planes"),
    }
}

/// Dispatch one or two collected plans onto the monomorphic match cores:
/// `out = base? & (q₁ | q₂)` with `qᵢ` plan `i`'s miss-plane product. An
/// empty plan (`kᵢ == 0`) matches every live lane, so the whole result
/// degenerates to the base mask (all-ones when `base` is `None`); a
/// *dead* plan (a [`PlaneSummary::Full`] miss plane, see
/// [`collect_miss_planes`]) matches nothing and drops out of the OR.
/// Returns the OR of the output words — `0` when the step matched no
/// lane at all.
fn match_dispatch(
    out: &mut [u64],
    base: Option<&[u64]>,
    bufs: &[[&[u64]; 4]; 2],
    ks: [usize; 2],
    dead: [bool; 2],
    nplans: usize,
) -> u64 {
    let (e1, k1) = (&bufs[0], ks[0]);
    if nplans == 1 {
        if dead[0] {
            out.fill(0);
            return 0;
        }
        match_one(out, base, e1, k1)
    } else {
        let (e2, k2) = (&bufs[1], ks[1]);
        match (dead[0], dead[1]) {
            (true, true) => {
                out.fill(0);
                0
            }
            (true, false) => match_one(out, base, e2, k2),
            (false, true) => match_one(out, base, e1, k1),
            (false, false) if k1 == 0 || k2 == 0 => {
                // An empty plan matches every live row, so the OR of the
                // pair is the live set regardless of the other plan.
                match_one(out, base, e1, 0)
            }
            (false, false) => {
                macro_rules! m2 {
                    ($(($ka:literal, $kb:literal)),+ $(,)?) => {
                        match (k1, k2) {
                            $(($ka, $kb) => match2_plane::<$ka, $kb>(
                                out,
                                base,
                                (&e1[..$ka]).try_into().unwrap(),
                                (&e2[..$kb]).try_into().unwrap(),
                            ),)+
                            _ => unreachable!("fast path caps plans at four miss planes"),
                        }
                    };
                }
                m2!(
                    (1, 1),
                    (1, 2),
                    (1, 3),
                    (1, 4),
                    (2, 1),
                    (2, 2),
                    (2, 3),
                    (2, 4),
                    (3, 1),
                    (3, 2),
                    (3, 3),
                    (3, 4),
                    (4, 1),
                    (4, 2),
                    (4, 3),
                    (4, 4),
                )
            }
        }
    }
}

/// Program `value` into one window of a column's bit-planes under `tags` —
/// the raw store loop of [`TcamSlab::write_plane`], factored out so the
/// tiled segment executor can drive it per cache-resident window.
fn write_plane_seg(zeros: &mut [u64], ones: &mut [u64], tags: &[u64], value: TernaryBit) {
    match value {
        TernaryBit::Zero => {
            for ((z, o), t) in zeros.iter_mut().zip(ones.iter_mut()).zip(tags) {
                *z |= t;
                *o &= !t;
            }
        }
        TernaryBit::One => {
            for ((z, o), t) in zeros.iter_mut().zip(ones.iter_mut()).zip(tags) {
                *o |= t;
                *z &= !t;
            }
        }
        TernaryBit::X => {
            for ((z, o), t) in zeros.iter_mut().zip(ones.iter_mut()).zip(tags) {
                *z &= !t;
                *o &= !t;
            }
        }
    }
}

/// One fused search/write step of a [`TcamSlab::sweep_program`] batch —
/// the same shape as one [`TcamSlab::search_write_multi`] call: OR the
/// matches of `plans` (into the existing tags when `acc`), then program
/// every `(column, value)` of `writes` under the resulting tags.
#[derive(Debug, Clone, Copy)]
pub struct SweepOp<'a> {
    /// Search plans whose matches are OR-ed together; empty with
    /// `acc = false` clears the tags (write-under-current-tags steps use
    /// empty plans with `acc = true`).
    pub plans: &'a [&'a [(usize, KeyBit)]],
    /// Accumulate into the existing tag plane instead of replacing it.
    pub acc: bool,
    /// Columns programmed under the resulting tags, in order.
    pub writes: &'a [(usize, TernaryBit)],
}

/// One contiguous arena holding the `is_zero`/`is_one` bit-planes of every
/// PE in a chunk, laid out `[col][row][pe_word]` (see the
/// [module docs](self)).
///
/// All cells initialize to `0`, matching [`TcamArray::new`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TcamSlab {
    pes: usize,
    rows: usize,
    cols: usize,
    /// 64-PE words per plane row.
    pw: usize,
    /// Rows storing `0`, indexed `[col][row][pe_word]`.
    zeros: Vec<u64>,
    /// Rows storing `1`, indexed `[col][row][pe_word]`.
    ones: Vec<u64>,
    /// Live-PE mask, one plane row (`pw` words, bits `0..pes` set).
    pe_mask: Vec<u64>,
    /// [`pe_mask`](Self::pe_mask) replicated per row (`rows * pw` words) —
    /// the mask shape the whole-plane sweeps consume without a modulo.
    live: Vec<u64>,
    /// Associative-write pulses, indexed `[col][pe]`.
    wear: Vec<u64>,
    /// Device-fault bookkeeping; `None` (the default) is the ideal slab and
    /// keeps every kernel on its zero-fault path.
    fault: Option<Box<SlabFaultState>>,
    /// Per-column [`PlaneSummary`] of the `zeros` planes (what a `One`
    /// plan entry loads as its miss plane). Conservative cache state —
    /// excluded from equality and byte images, since two logically equal
    /// slabs can carry different summaries.
    zsum: Vec<PlaneSummary>,
    /// Per-column [`PlaneSummary`] of the `ones` planes (`Zero` entries).
    osum: Vec<PlaneSummary>,
    /// Monotonic write-tracking counter; see [`version`](Self::version).
    version: u64,
}

impl PartialEq for TcamSlab {
    fn eq(&self, other: &Self) -> bool {
        // The `*_any` summaries are cache state, not logical state: a
        // write under all-zero tags flags a plane that is still empty, so
        // equal storage can carry different summaries.
        (
            self.pes,
            self.rows,
            self.cols,
            self.pw,
            &self.zeros,
            &self.ones,
            &self.pe_mask,
            &self.live,
            &self.wear,
            &self.fault,
        ) == (
            other.pes,
            other.rows,
            other.cols,
            other.pw,
            &other.zeros,
            &other.ones,
            &other.pe_mask,
            &other.live,
            &other.wear,
            &other.fault,
        )
    }
}

impl Eq for TcamSlab {}

impl TcamSlab {
    /// Version byte of the [`to_bytes`](Self::to_bytes) image format
    /// without fault state (the original format, still decoded).
    pub const FORMAT_VERSION: u8 = 1;

    /// Version byte of the [`to_bytes`](Self::to_bytes) image format with
    /// a fault-bookkeeping payload appended.
    pub const FORMAT_VERSION_FAULT: u8 = 2;

    /// A slab of `pes` arrays of `rows` × `cols`, all cells `0`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(pes: usize, rows: usize, cols: usize) -> Self {
        assert!(
            pes > 0 && rows > 0 && cols > 0,
            "slab dimensions must be non-zero"
        );
        let pw = pes.div_ceil(64);
        let pe_mask = plane::pe_mask(pes);
        let mut live = Vec::with_capacity(rows * pw);
        for _ in 0..rows {
            live.extend_from_slice(&pe_mask);
        }
        let mut zeros = Vec::with_capacity(cols * rows * pw);
        for _ in 0..cols {
            zeros.extend_from_slice(&live);
        }
        TcamSlab {
            pes,
            rows,
            cols,
            pw,
            ones: vec![0; cols * rows * pw],
            zeros,
            pe_mask,
            live,
            wear: vec![0; cols * pes],
            fault: None,
            // All cells store `0`: every `zeros` plane is exactly the live
            // mask, every `ones` plane empty.
            zsum: vec![PlaneSummary::Full; cols],
            osum: vec![PlaneSummary::AllZero; cols],
            version: 0,
        }
    }

    /// Monotonic write-tracking counter: bumped by every method that can
    /// change serialized state (storage, wear, or fault bookkeeping) —
    /// conservatively, so a bump does not prove a bit actually flipped.
    /// Checkpointing compares versions to skip clean chunks; the counter is
    /// excluded from equality and from the byte image.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn touch(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// Reset the slab to its as-constructed state — every cell `0`, wear
    /// cleared — without reallocating the arenas. If a fault model is
    /// attached it is re-seeded from scratch (same model, same global PE
    /// base, same spare budget): remaps, retirements, the latched failure,
    /// and the epoch all return to their initial values, and the initial
    /// devices' stuck bits are re-enforced on the cleared storage. The
    /// result is indistinguishable from a fresh [`new`](Self::new) +
    /// [`attach_fault`](Self::attach_fault) slab — the serving layer's
    /// scrub-on-assign isolation guarantee rests on this.
    pub fn reset(&mut self) {
        self.touch();
        self.ones.fill(0);
        let plane = self.rows * self.pw;
        for c in 0..self.cols {
            self.zeros[c * plane..(c + 1) * plane].copy_from_slice(&self.live);
        }
        self.wear.fill(0);
        self.zsum.fill(PlaneSummary::Full);
        self.osum.fill(PlaneSummary::AllZero);
        if let Some(f) = self.fault.take() {
            self.attach_fault(f.model, f.spares, f.pe0);
        }
    }

    /// Conservatively age column `col`'s plane summaries for a tag-driven
    /// write of `value` (the transition table of [`PlaneSummary`]). Every
    /// plane-mutating kernel must route its columns through here (or
    /// [`recompute_summaries`](Self::recompute_summaries)) before or after
    /// the mutation — the summaries must never claim more than the arena
    /// holds.
    fn note_write_summary(&mut self, col: usize, value: TernaryBit) {
        match value {
            TernaryBit::Zero => {
                self.zsum[col] = self.zsum[col].after_set();
                self.osum[col] = self.osum[col].after_clear();
            }
            TernaryBit::One => {
                self.osum[col] = self.osum[col].after_set();
                self.zsum[col] = self.zsum[col].after_clear();
            }
            TernaryBit::X => {
                self.zsum[col] = self.zsum[col].after_clear();
                self.osum[col] = self.osum[col].after_clear();
            }
        }
    }

    /// Rebuild every plane summary exactly by scanning the arenas — used
    /// after bulk loads (array imports, byte-image decode) where the
    /// conservative per-write transitions would discard all precision.
    fn recompute_summaries(&mut self) {
        let plane = self.rows * self.pw;
        for c in 0..self.cols {
            self.zsum[c] = summarize_plane(&self.zeros[c * plane..(c + 1) * plane], &self.live);
            self.osum[c] = summarize_plane(&self.ones[c * plane..(c + 1) * plane], &self.live);
        }
    }

    /// Drop every plane summary to `Unknown` — the safe state after a
    /// mutation whose effect on the planes is not tracked per column
    /// (fault attach, stuck-bit enforcement, spare remaps).
    fn invalidate_summaries(&mut self) {
        self.zsum.fill(PlaneSummary::Unknown);
        self.osum.fill(PlaneSummary::Unknown);
    }

    /// Attach a device-fault model: slot `s` of this slab becomes global
    /// PE `pe0 + s`, each with `spares` spare column devices. Stuck bits of
    /// the initial devices are enforced on the storage immediately.
    pub fn attach_fault(&mut self, model: FaultModel, spares: usize, pe0: usize) {
        self.touch();
        self.fault = Some(Box::new(SlabFaultState::new(
            model, pe0, spares, self.pes, self.rows, self.cols,
        )));
        self.invalidate_summaries();
        for col in 0..self.cols {
            self.enforce_stuck_col(col, None);
        }
    }

    /// The fault bookkeeping, if a model is attached.
    pub fn fault(&self) -> Option<&SlabFaultState> {
        self.fault.as_deref()
    }

    /// Start a new run epoch across every PE (re-derives the transient
    /// search-miss sets). No-op without an attached fault model.
    pub fn advance_epoch(&mut self) {
        if let Some(f) = &mut self.fault {
            f.advance_epoch();
            self.version = self.version.wrapping_add(1);
        }
    }

    /// End-of-run endurance service for every PE of the slab, slots in
    /// ascending order and columns in ascending order within a slot — the
    /// same global order [`TcamArray::service_endurance`] produces when
    /// driven per PE. Retirement resets the column's wear and enforces the
    /// spare device's stuck bits on the copied data.
    ///
    /// # Errors
    ///
    /// [`FaultError::SparesExhausted`] at the first column that cannot be
    /// retired (global PE index); the failure is latched for fail-fast.
    pub fn service_endurance(&mut self) -> Result<(), FaultError> {
        let Some(limit) = self.fault.as_ref().and_then(|f| f.model.endurance_limit) else {
            return Ok(());
        };
        self.touch();
        let pw = self.pw;
        for pe in 0..self.pes {
            let mut lane: Option<Vec<u64>> = None;
            for col in 0..self.cols {
                let w = self.wear[col * self.pes + pe];
                if w >= limit {
                    self.fault
                        .as_mut()
                        .expect("fault state present")
                        .retire(pe, col, w)?;
                    self.wear[col * self.pes + pe] = 0;
                    let m = lane.get_or_insert_with(|| {
                        let mut v = vec![0u64; pw];
                        v[pe / 64] |= 1u64 << (pe % 64);
                        v
                    });
                    let m = m.clone();
                    self.enforce_stuck_col(col, Some(&m));
                }
            }
        }
        Ok(())
    }

    /// The `[row][pe_word]` mask searches initialize from: the live-PE
    /// mask, minus this epoch's transient misses when a fault model is
    /// attached.
    fn search_base(&self) -> &[u64] {
        match &self.fault {
            Some(f) => &f.search_mask,
            None => &self.live,
        }
    }

    /// Force column `col`'s storage over the selected PEs to agree with
    /// the backing devices' stuck bits. Idempotent; no-op without faults.
    fn enforce_stuck_col(&mut self, col: usize, sel: Option<&[u64]>) {
        let plane = self.rows * self.pw;
        if self.fault.is_none() {
            return;
        }
        // Stuck bits can set or clear either plane arbitrarily.
        self.zsum[col] = PlaneSummary::Unknown;
        self.osum[col] = PlaneSummary::Unknown;
        let Some(f) = &self.fault else { return };
        let s0 = &f.stuck0[col * plane..(col + 1) * plane];
        let s1 = &f.stuck1[col * plane..(col + 1) * plane];
        let zeros = &mut self.zeros[col * plane..(col + 1) * plane];
        let ones = &mut self.ones[col * plane..(col + 1) * plane];
        match sel {
            None => sweep::enforce_stuck(zeros, ones, s0, s1),
            Some(m) => {
                let pw = self.pw;
                for i in 0..plane {
                    let mm = m[i % pw];
                    let a0 = s0[i] & mm;
                    let a1 = s1[i] & mm;
                    let s = a0 | a1;
                    zeros[i] = (zeros[i] & !s) | a0;
                    ones[i] = (ones[i] & !s) | a1;
                }
            }
        }
    }

    /// Number of PEs in the slab.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// Rows per PE.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns per PE.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// 64-PE words per plane row.
    pub fn pe_words(&self) -> usize {
        self.pw
    }

    /// Words per column plane (`rows * pe_words`) — the length of every
    /// tag/latch plane the kernels consume.
    pub fn plane_words(&self) -> usize {
        self.rows * self.pw
    }

    /// Bump write-pulse counters of column `col` for the selected PEs.
    fn note_wear(&mut self, col: usize, sel: Option<&[u64]>) {
        let ws = &mut self.wear[col * self.pes..(col + 1) * self.pes];
        match sel {
            None => {
                for w in ws {
                    *w += 1;
                }
            }
            Some(m) => {
                for (wi, &mw) in m.iter().enumerate() {
                    let mut bits = mw;
                    while bits != 0 {
                        ws[wi * 64 + bits.trailing_zeros() as usize] += 1;
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// Program `value` into column `col` under `tags` for every PE at once
    /// (no wear, no stuck enforcement — the raw store loop).
    fn write_plane(&mut self, col: usize, value: TernaryBit, tags: &[u64]) {
        let plane = self.rows * self.pw;
        self.note_write_summary(col, value);
        let zeros = &mut self.zeros[col * plane..(col + 1) * plane];
        let ones = &mut self.ones[col * plane..(col + 1) * plane];
        write_plane_seg(zeros, ones, &tags[..plane], value);
    }

    /// Read one cell of one PE.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cell(&self, pe: usize, row: usize, col: usize) -> TernaryBit {
        assert!(
            pe < self.pes && row < self.rows && col < self.cols,
            "cell out of range"
        );
        let idx = col * self.plane_words() + row * self.pw + pe / 64;
        let m = 1u64 << (pe % 64);
        if self.zeros[idx] & m != 0 {
            TernaryBit::Zero
        } else if self.ones[idx] & m != 0 {
            TernaryBit::One
        } else {
            TernaryBit::X
        }
    }

    /// Write one cell directly (host data-load path; no wear).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set_cell(&mut self, pe: usize, row: usize, col: usize, value: TernaryBit) {
        assert!(
            pe < self.pes && row < self.rows && col < self.cols,
            "cell out of range"
        );
        let idx = col * self.plane_words() + row * self.pw + pe / 64;
        let m = 1u64 << (pe % 64);
        self.touch();
        self.note_write_summary(col, value);
        self.zeros[idx] &= !m;
        self.ones[idx] &= !m;
        match value {
            TernaryBit::Zero => self.zeros[idx] |= m,
            TernaryBit::One => self.ones[idx] |= m,
            TernaryBit::X => {}
        }
        if let Some(f) = &self.fault {
            // The stuck override can set either plane regardless of `value`.
            self.zsum[col] = PlaneSummary::Unknown;
            self.osum[col] = PlaneSummary::Unknown;
            if f.stuck0[idx] & m != 0 {
                self.zeros[idx] |= m;
                self.ones[idx] &= !m;
            } else if f.stuck1[idx] & m != 0 {
                self.ones[idx] |= m;
                self.zeros[idx] &= !m;
            }
        }
    }

    /// Fused search over the selected PEs: apply a precompiled
    /// `(column, bit)` plan to every selected PE in one word pass per pair
    /// of plan entries, overwriting their lanes of `out` (a full
    /// `[row][pe_word]` plane, e.g. [`TagSlab::words_mut`]). Unselected
    /// lanes keep their previous contents; `sel = None` selects every PE
    /// and overwrites the whole plane mask-free. Masked or out-of-range
    /// plan entries are skipped — identical semantics to
    /// [`TcamArray::search_plan_into`] per PE.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`plane_words`](Self::plane_words).
    pub fn search_plan_multi_into(
        &self,
        plan: &[(usize, KeyBit)],
        sel: Option<&[u64]>,
        out: &mut [u64],
    ) {
        let plane = self.plane_words();
        assert_eq!(out.len(), plane, "output/plane word count mismatch");
        let full = self.pes.is_multiple_of(64);
        let (zeros, ones) = (&self.zeros, &self.ones);
        match sel {
            None => {
                let mask = match &self.fault {
                    Some(f) => Some(f.search_mask.as_slice()),
                    None => (!full).then_some(self.live.as_slice()),
                };
                let col = |c: usize| {
                    (
                        &zeros[c * plane..(c + 1) * plane],
                        &ones[c * plane..(c + 1) * plane],
                    )
                };
                sweep::plan_and_into(out, plan, self.cols, &col, mask);
            }
            Some(m) => {
                const TILE: usize = 256;
                let mut s = [0u64; TILE];
                let mut w0 = 0;
                while w0 < plane {
                    let n = TILE.min(plane - w0);
                    let mask = match &self.fault {
                        Some(f) => Some(&f.search_mask[w0..w0 + n]),
                        None => (!full).then(|| &self.live[w0..w0 + n]),
                    };
                    let col = |c: usize| {
                        let off = c * plane + w0;
                        (&zeros[off..off + n], &ones[off..off + n])
                    };
                    sweep::plan_and_into(&mut s[..n], plan, self.cols, &col, mask);
                    for i in 0..n {
                        let mm = m[(w0 + i) % self.pw];
                        out[w0 + i] = (out[w0 + i] & !mm) | (s[i] & mm);
                    }
                    w0 += n;
                }
            }
        }
    }

    /// OR-accumulating form of
    /// [`search_plan_multi_into`](Self::search_plan_multi_into):
    /// `out |= match(plan)` for the selected lanes — the slab kernel behind
    /// an accumulating (`acc`) search micro-op. Unselected lanes are
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`plane_words`](Self::plane_words).
    pub fn search_plan_multi_or_into(
        &self,
        plan: &[(usize, KeyBit)],
        sel: Option<&[u64]>,
        out: &mut [u64],
    ) {
        let plane = self.plane_words();
        assert_eq!(out.len(), plane, "output/plane word count mismatch");
        let full = self.pes.is_multiple_of(64);
        let (zeros, ones) = (&self.zeros, &self.ones);
        const TILE: usize = 256;
        let mut s = [0u64; TILE];
        let mut tt = [0u64; TILE];
        let mut w0 = 0;
        while w0 < plane {
            let n = TILE.min(plane - w0);
            let mask = match &self.fault {
                Some(f) => Some(&f.search_mask[w0..w0 + n]),
                None => (!full).then(|| &self.live[w0..w0 + n]),
            };
            let col = |c: usize| {
                let off = c * plane + w0;
                (&zeros[off..off + n], &ones[off..off + n])
            };
            match sel {
                None => sweep::plan_or_into(
                    &mut out[w0..w0 + n],
                    &mut s[..n],
                    plan,
                    self.cols,
                    &col,
                    mask,
                ),
                Some(m) => {
                    sweep::plan_and_into(&mut tt[..n], plan, self.cols, &col, mask);
                    for i in 0..n {
                        out[w0 + i] |= tt[i] & m[(w0 + i) % self.pw];
                    }
                }
            }
            w0 += n;
        }
    }

    /// Fused associative write over the selected PEs: program `value` into
    /// column `col` of every tagged row of every selected PE, in one linear
    /// sweep. `tags` is a full `[row][pe_word]` plane. Each selected PE's
    /// column takes one wear pulse (the column driver fires per PE per
    /// write, whatever the tags say — identical to
    /// [`TcamArray::write_column`]).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or `tags` has the wrong length.
    pub fn write_column_multi(
        &mut self,
        col: usize,
        value: TernaryBit,
        tags: &[u64],
        sel: Option<&[u64]>,
    ) {
        assert!(col < self.cols, "column out of range");
        let plane = self.plane_words();
        assert_eq!(tags.len(), plane, "tag/plane word count mismatch");
        self.touch();
        self.note_wear(col, sel);
        match sel {
            None => self.write_plane(col, value, tags),
            Some(m) => {
                self.note_write_summary(col, value);
                let pw = self.pw;
                let zeros = &mut self.zeros[col * plane..(col + 1) * plane];
                let ones = &mut self.ones[col * plane..(col + 1) * plane];
                match value {
                    TernaryBit::Zero => {
                        for (i, (z, o)) in zeros.iter_mut().zip(ones.iter_mut()).enumerate() {
                            let t = tags[i] & m[i % pw];
                            *z |= t;
                            *o &= !t;
                        }
                    }
                    TernaryBit::One => {
                        for (i, (z, o)) in zeros.iter_mut().zip(ones.iter_mut()).enumerate() {
                            let t = tags[i] & m[i % pw];
                            *o |= t;
                            *z &= !t;
                        }
                    }
                    TernaryBit::X => {
                        for (i, (z, o)) in zeros.iter_mut().zip(ones.iter_mut()).enumerate() {
                            let t = tags[i] & m[i % pw];
                            *z &= !t;
                            *o &= !t;
                        }
                    }
                }
            }
        }
        self.enforce_stuck_col(col, sel);
    }

    /// Fused column copy over the selected PEs: duplicate column `src`
    /// into column `dst` for every row of every selected PE (`sel = None`
    /// is two `copy_within` calls on the arenas; no wear, like
    /// [`TcamArray::copy_column`]).
    ///
    /// # Panics
    ///
    /// Panics if either column is out of range.
    pub fn copy_column_multi(&mut self, src: usize, dst: usize, sel: Option<&[u64]>) {
        assert!(src < self.cols && dst < self.cols, "column out of range");
        if src == dst {
            return;
        }
        self.touch();
        let plane = self.plane_words();
        match sel {
            None => {
                // A whole-plane copy carries the source's summaries over.
                self.zsum[dst] = self.zsum[src];
                self.osum[dst] = self.osum[src];
                self.zeros
                    .copy_within(src * plane..(src + 1) * plane, dst * plane);
                self.ones
                    .copy_within(src * plane..(src + 1) * plane, dst * plane);
            }
            Some(m) => {
                // A masked blend proves nothing unless both sides agree.
                self.zsum[dst] = if self.zsum[dst] == self.zsum[src] {
                    self.zsum[dst]
                } else {
                    PlaneSummary::Unknown
                };
                self.osum[dst] = if self.osum[dst] == self.osum[src] {
                    self.osum[dst]
                } else {
                    PlaneSummary::Unknown
                };
                let pw = self.pw;
                for arena in [&mut self.zeros, &mut self.ones] {
                    let (s, d): (&[u64], &mut [u64]) = if src < dst {
                        let (a, b) = arena.split_at_mut(dst * plane);
                        (&a[src * plane..(src + 1) * plane], &mut b[..plane])
                    } else {
                        let (a, b) = arena.split_at_mut(src * plane);
                        let d = &mut a[dst * plane..(dst + 1) * plane];
                        (&b[..plane], d)
                    };
                    for i in 0..plane {
                        let mm = m[i % pw];
                        d[i] = (d[i] & !mm) | (s[i] & mm);
                    }
                }
            }
        }
        self.enforce_stuck_col(dst, sel);
    }

    /// Fused encoded write over the selected PEs: for **every** row of
    /// every selected PE, program the two cells at `col`, `col + 1` with
    /// the two-bit encoding of the pair `(latch bit, tag bit)` — the Fig 7
    /// encoder path of [`crate::encoding::encode_pair`], evaluated 64 PEs
    /// at a time:
    ///
    /// the first cell is `0`/`1` when the latch bit is set (value = tag
    /// bit) and `X` otherwise; the second cell mirrors it for a clear latch
    /// bit. `latch` and `tags` are full `[row][pe_word]` planes. Both
    /// columns take one wear pulse per selected PE.
    ///
    /// # Panics
    ///
    /// Panics if `col + 1` is out of range or the inputs have the wrong
    /// length.
    pub fn write_encoded_multi(
        &mut self,
        col: usize,
        latch: &[u64],
        tags: &[u64],
        sel: Option<&[u64]>,
    ) {
        assert!(col + 1 < self.cols, "encoded write needs two columns");
        let plane = self.plane_words();
        assert_eq!(latch.len(), plane, "latch/plane word count mismatch");
        assert_eq!(tags.len(), plane, "tag/plane word count mismatch");
        self.touch();
        let pw = self.pw;
        // Encoded pairs can set or clear any of the four planes.
        for c in [col, col + 1] {
            self.zsum[c] = PlaneSummary::Unknown;
            self.osum[c] = PlaneSummary::Unknown;
        }
        // First column: stored value is the tag bit where the latch bit is
        // set, X elsewhere (00->X., 01->X., 10->0., 11->1.). Latch padding
        // is zero, so the products need no live mask.
        {
            let zeros = &mut self.zeros[col * plane..(col + 1) * plane];
            let ones = &mut self.ones[col * plane..(col + 1) * plane];
            match sel {
                None => {
                    for (i, (z, o)) in zeros.iter_mut().zip(ones.iter_mut()).enumerate() {
                        let (h, t) = (latch[i], tags[i]);
                        *z = h & !t;
                        *o = h & t;
                    }
                }
                Some(m) => {
                    for (i, (z, o)) in zeros.iter_mut().zip(ones.iter_mut()).enumerate() {
                        let mm = m[i % pw];
                        let (h, t) = (latch[i], tags[i]);
                        *z = (*z & !mm) | (h & !t & mm);
                        *o = (*o & !mm) | (h & t & mm);
                    }
                }
            }
        }
        // Second column: the complementary half (00->.0, 01->.1, 10->.X,
        // 11->.X). `!h & !t` complements both operands, so the live mask
        // keeps PE padding clear.
        {
            let c1 = col + 1;
            let zeros = &mut self.zeros[c1 * plane..(c1 + 1) * plane];
            let ones = &mut self.ones[c1 * plane..(c1 + 1) * plane];
            match sel {
                None => {
                    for (i, (z, o)) in zeros.iter_mut().zip(ones.iter_mut()).enumerate() {
                        let (h, t) = (latch[i], tags[i]);
                        *z = !h & !t & self.live[i];
                        *o = !h & t;
                    }
                }
                Some(m) => {
                    for (i, (z, o)) in zeros.iter_mut().zip(ones.iter_mut()).enumerate() {
                        let mm = m[i % pw];
                        let (h, t) = (latch[i], tags[i]);
                        *z = (*z & !mm) | (!h & !t & self.live[i] & mm);
                        *o = (*o & !mm) | (!h & t & mm);
                    }
                }
            }
        }
        for c in [col, col + 1] {
            self.note_wear(c, sel);
            self.enforce_stuck_col(c, sel);
        }
    }

    /// Fused search chain plus conditional writes over the selected PEs in
    /// **one linear pass** over the arena — the slab kernel behind the
    /// trace peephole's `SearchWrite`/`SearchWriteMulti` micro-ops.
    ///
    /// Per plane word: `t = (acc ? tags : 0) | match(plans[0]) | …` (each
    /// match starting from the live mask and narrowing per plan entry),
    /// blend `t` back into the selected lanes of `tags`, then program every
    /// `(column, value)` of `writes` in order under the selected lanes of
    /// `t`. No intermediate tag vector is materialized. Searches complete
    /// before stores, so the result is bit-identical to the unfused kernel
    /// sequence even when a write column appears in a plan. Each write
    /// column takes one wear pulse per selected PE, exactly like
    /// [`write_column_multi`](Self::write_column_multi).
    ///
    /// `tags` is a full `[row][pe_word]` plane (e.g.
    /// [`TagSlab::words_mut`]). Masked or out-of-range plan entries are
    /// skipped.
    ///
    /// The dominant compiled shapes — no accumulate, one or two plans of up
    /// to four effective entries, every PE selected — run a monomorphized
    /// whole-plane core (`match_plane` / `match2_plane`) with no
    /// scratch tile and no per-pass dispatch; everything else takes the
    /// general tiled path.
    ///
    /// # Panics
    ///
    /// Panics if a write column is out of range or `tags` has the wrong
    /// length.
    pub fn search_write_multi(
        &mut self,
        plans: &[&[(usize, KeyBit)]],
        acc: bool,
        writes: &[(usize, TernaryBit)],
        tags: &mut [u64],
        sel: Option<&[u64]>,
    ) {
        let plane = self.plane_words();
        assert_eq!(tags.len(), plane, "tag/plane word count mismatch");
        if !writes.is_empty() {
            self.touch();
        }
        for &(col, _) in writes {
            assert!(col < self.cols, "column out of range");
            self.note_wear(col, sel);
        }
        let full = self.pes.is_multiple_of(64);
        // Miss planes per plan: `Zero`/`One` contribute one bit-line plane
        // each, `Z` two (see [`match_plane`]).
        let eff = |plan: &[(usize, KeyBit)]| {
            plan.iter()
                .map(|&(c, b)| match b {
                    _ if c >= self.cols => 0,
                    KeyBit::Zero | KeyBit::One => 1,
                    KeyBit::Z => 2,
                    KeyBit::Masked => 0,
                })
                .sum::<usize>()
        };
        let fast = sel.is_none()
            && !acc
            && (1..=2).contains(&plans.len())
            && plans.iter().all(|p| eff(p) <= 4);
        if fast {
            let any = {
                let base = if self.fault.is_none() && full {
                    None
                } else {
                    Some(self.search_base())
                };
                let mut bufs = [[EMPTY; 4]; 2];
                let mut ks = [0usize; 2];
                let dead = collect_miss_planes(
                    plans,
                    &self.zeros,
                    &self.ones,
                    &self.zsum,
                    &self.osum,
                    self.cols,
                    plane,
                    0,
                    plane,
                    &mut bufs,
                    &mut ks,
                );
                match_dispatch(tags, base, &bufs, ks, dead, plans.len())
            };
            // All-zero tags drive no store, so the plane RMWs (and the
            // summary aging) can be skipped outright; wear was already
            // noted and stuck enforcement below still runs.
            if any != 0 {
                for &(c, value) in writes {
                    self.write_plane(c, value, tags);
                }
            }
        } else {
            // General path: tile the plane so the whole chain — plan
            // narrows, the OR-accumulate, and all the writes — runs over a
            // stack-resident window. Tiles are independent because a tile's
            // searches read only its own offsets, so writes landing in
            // earlier tiles never alias a later tile's reads.
            //
            // Summaries age once up front (the per-write transitions are
            // idempotent and this path never consumes them), since the
            // tile loop below holds plane borrows that preclude `&mut
            // self` calls.
            for &(col, value) in writes {
                self.note_write_summary(col, value);
            }
            const TILE: usize = 256;
            let mut s = [0u64; TILE];
            let mut tt = [0u64; TILE];
            let pw = self.pw;
            let mut w0 = 0;
            while w0 < plane {
                let n = TILE.min(plane - w0);
                let t = &mut tags[w0..w0 + n];
                let mask = match &self.fault {
                    // Under faults the effective mask also excludes this
                    // epoch's transient misses, so it applies even when
                    // the PE count fills every word.
                    Some(f) => Some(&f.search_mask[w0..w0 + n]),
                    None => (!full).then(|| &self.live[w0..w0 + n]),
                };
                let (zeros, ones) = (&self.zeros, &self.ones);
                let col = |c: usize| {
                    let off = c * plane + w0;
                    (&zeros[off..off + n], &ones[off..off + n])
                };
                match sel {
                    None => {
                        if !acc && plans.is_empty() {
                            t.fill(0);
                        }
                        for (pi, plan) in plans.iter().enumerate() {
                            if pi == 0 && !acc {
                                sweep::plan_and_into(t, plan, self.cols, &col, mask);
                            } else {
                                sweep::plan_or_into(t, &mut s[..n], plan, self.cols, &col, mask);
                            }
                        }
                    }
                    Some(m) => {
                        tt[..n].copy_from_slice(t);
                        if !acc && plans.is_empty() {
                            tt[..n].fill(0);
                        }
                        for (pi, plan) in plans.iter().enumerate() {
                            if pi == 0 && !acc {
                                sweep::plan_and_into(&mut tt[..n], plan, self.cols, &col, mask);
                            } else {
                                sweep::plan_or_into(
                                    &mut tt[..n],
                                    &mut s[..n],
                                    plan,
                                    self.cols,
                                    &col,
                                    mask,
                                );
                            }
                        }
                        for i in 0..n {
                            let mm = m[(w0 + i) % pw];
                            s[i] = tt[i] & mm;
                            t[i] = (t[i] & !mm) | s[i];
                        }
                    }
                }
                // Selected-lane write tags: the blended plane for `None`,
                // the masked fresh match for `Some` (unselected lanes must
                // not drive stores).
                for &(col, value) in writes {
                    let off = col * plane + w0;
                    let zero = &mut self.zeros[off..off + n];
                    let one = &mut self.ones[off..off + n];
                    let wt: &[u64] = match sel {
                        None => &tags[w0..w0 + n],
                        Some(_) => &s[..n],
                    };
                    match value {
                        TernaryBit::Zero => {
                            for ((z, o), tw) in zero.iter_mut().zip(one.iter_mut()).zip(wt) {
                                *z |= tw;
                                *o &= !tw;
                            }
                        }
                        TernaryBit::One => {
                            for ((z, o), tw) in zero.iter_mut().zip(one.iter_mut()).zip(wt) {
                                *o |= tw;
                                *z &= !tw;
                            }
                        }
                        TernaryBit::X => {
                            for ((z, o), tw) in zero.iter_mut().zip(one.iter_mut()).zip(wt) {
                                *z &= !tw;
                                *o &= !tw;
                            }
                        }
                    }
                }
                w0 += n;
            }
        }
        if self.fault.is_some() {
            // Stuck enforcement is idempotent and searches complete before
            // stores, so enforcing once per written column at kernel end
            // equals enforcing after every store — the invariant the
            // unfused engines maintain.
            for &(col, _) in writes {
                self.enforce_stuck_col(col, sel);
            }
        }
    }

    /// Execute a whole program of fused search/write steps through the
    /// monomorphic match cores, with the per-column `PlaneSummary`
    /// caches pruning the work per step: `AllZero` miss planes drop out
    /// of the product chains, a `Full` miss plane kills its whole plan,
    /// and a step whose final tag plane is provably (or measured) all
    /// zero skips its write RMWs entirely — on sparse programs most
    /// steps touch a fraction of the arena traffic the naive sweep pays.
    ///
    /// The elisions are exact, not approximate: an all-zero tag plane
    /// drives no store, so skipping the RMW pass leaves the planes
    /// bit-identical; wear is still noted once per write column per step,
    /// exactly as the per-op kernel does. The whole program is
    /// bit-identical to running
    /// [`search_write_multi`](Self::search_write_multi) once per
    /// [`SweepOp`] in order (property-tested in
    /// `tests/slab_properties.rs`).
    ///
    /// Steps fall outside the fast core — and route through the general
    /// kernel — when a fault model is attached, a selection mask is
    /// given, or the step exceeds the monomorphic match cores (more than
    /// two plans, or more than four miss planes per plan).
    ///
    /// # Panics
    ///
    /// Panics if a write column is out of range or `tags` has the wrong
    /// length.
    pub fn sweep_program(&mut self, ops: &[SweepOp<'_>], tags: &mut [u64], sel: Option<&[u64]>) {
        let plane = self.plane_words();
        assert_eq!(tags.len(), plane, "tag/plane word count mismatch");
        if ops.iter().any(|op| !op.writes.is_empty()) {
            self.touch();
        }
        if self.fault.is_some() || sel.is_some() {
            for op in ops {
                self.search_write_multi(op.plans, op.acc, op.writes, tags, sel);
            }
            return;
        }
        let ncols = self.cols;
        let eff = move |plan: &[(usize, KeyBit)]| {
            plan.iter()
                .map(|&(c, b)| match b {
                    _ if c >= ncols => 0,
                    KeyBit::Zero | KeyBit::One => 1,
                    KeyBit::Z => 2,
                    KeyBit::Masked => 0,
                })
                .sum::<usize>()
        };
        let full = self.pes.is_multiple_of(64);
        let mut buf: Vec<u64> = Vec::new();
        // Whether `tags` is *known* all-zero — lets a chain of dead steps
        // skip both the refill and the write RMWs without re-reading the
        // plane. `false` means "unknown", never "known non-zero".
        let mut tags_zero = false;
        for op in ops {
            if op.plans.len() > 2 || op.plans.iter().any(|p| eff(p) > 4) {
                self.search_write_multi(op.plans, op.acc, op.writes, tags, None);
                tags_zero = false;
                continue;
            }
            for &(col, _) in op.writes {
                assert!(col < self.cols, "column out of range");
                self.note_wear(col, None);
            }
            let base = (!full).then_some(&self.live[..]);
            let any = if op.plans.is_empty() {
                if op.acc {
                    // Write under the tags as they stand.
                    if tags_zero {
                        0
                    } else {
                        tags.iter().fold(0, |a, &w| a | w)
                    }
                } else {
                    if !tags_zero {
                        tags.fill(0);
                    }
                    0
                }
            } else {
                let mut bufs = [[EMPTY; 4]; 2];
                let mut ks = [0usize; 2];
                let dead = collect_miss_planes(
                    op.plans,
                    &self.zeros,
                    &self.ones,
                    &self.zsum,
                    &self.osum,
                    self.cols,
                    plane,
                    0,
                    plane,
                    &mut bufs,
                    &mut ks,
                );
                let fully_dead = dead[..op.plans.len()].iter().all(|&d| d);
                if op.acc {
                    let a = if fully_dead {
                        0
                    } else {
                        buf.resize(plane, 0);
                        match_dispatch(&mut buf, base, &bufs, ks, dead, op.plans.len())
                    };
                    if a != 0 {
                        for (t, &m) in tags.iter_mut().zip(buf.iter()) {
                            *t |= m;
                        }
                    }
                    // The write tags are the accumulated plane, which can
                    // be non-zero even when this step's match is empty.
                    if a != 0 || op.writes.is_empty() || tags_zero {
                        a
                    } else {
                        tags.iter().fold(0, |acc, &w| acc | w)
                    }
                } else if fully_dead {
                    if !tags_zero {
                        tags.fill(0);
                    }
                    0
                } else {
                    match_dispatch(tags, base, &bufs, ks, dead, op.plans.len())
                }
            };
            if !op.acc {
                tags_zero = any == 0;
            } else if any != 0 {
                tags_zero = false;
            }
            if any != 0 {
                for &(col, value) in op.writes {
                    self.write_plane(col, value, tags);
                }
            }
        }
    }

    /// Incremental search over the selected PEs: narrow `out`'s existing
    /// contents by `plan` without the live-mask re-initialization of
    /// [`search_plan_multi_into`](Self::search_plan_multi_into) — the slab
    /// kernel behind the trace peephole's `SearchDelta` micro-op, sound when
    /// `out` already holds the match of a still-valid plan prefix.
    /// Unselected lanes are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`plane_words`](Self::plane_words).
    pub fn search_narrow_multi(
        &self,
        plan: &[(usize, KeyBit)],
        sel: Option<&[u64]>,
        out: &mut [u64],
    ) {
        let plane = self.plane_words();
        assert_eq!(out.len(), plane, "output/plane word count mismatch");
        let (zeros, ones) = (&self.zeros, &self.ones);
        match sel {
            None => {
                let col = |c: usize| {
                    (
                        &zeros[c * plane..(c + 1) * plane],
                        &ones[c * plane..(c + 1) * plane],
                    )
                };
                sweep::plan_narrow(out, plan, self.cols, &col);
            }
            Some(m) => {
                const TILE: usize = 256;
                let mut s = [0u64; TILE];
                let mut w0 = 0;
                while w0 < plane {
                    let n = TILE.min(plane - w0);
                    s[..n].copy_from_slice(&out[w0..w0 + n]);
                    let col = |c: usize| {
                        let off = c * plane + w0;
                        (&zeros[off..off + n], &ones[off..off + n])
                    };
                    sweep::plan_narrow(&mut s[..n], plan, self.cols, &col);
                    for i in 0..n {
                        let mm = m[(w0 + i) % self.pw];
                        out[w0 + i] = (out[w0 + i] & !mm) | (s[i] & mm);
                    }
                    w0 += n;
                }
            }
        }
    }

    /// One PE's associative-write pulse counts, gathered per column (the
    /// endurance profile [`TcamArray::column_wear`] reports).
    pub fn pe_wear(&self, pe: usize) -> Vec<u64> {
        (0..self.cols)
            .map(|c| self.wear[c * self.pes + pe])
            .collect()
    }

    /// Build a slab from per-PE arrays (wear included).
    ///
    /// Arrays may have heterogeneous column counts: the slab is as wide as
    /// the widest array, each array's cells **and wear** are copied over
    /// its own width (not the narrowest), and a narrow PE's absent columns
    /// hold the all-`0`, zero-wear state of a fresh [`TcamArray`] — so
    /// [`to_array`](Self::to_array) widens narrow PEs accordingly.
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is empty, row counts differ, or only some arrays
    /// carry fault state (fault state also requires uniform widths, since
    /// the remap tables are per-column).
    pub fn from_arrays(arrays: &[TcamArray]) -> Self {
        let first = arrays.first().expect("at least one array");
        let rows = first.rows();
        assert!(
            arrays.iter().all(|a| a.rows() == rows),
            "array geometry mismatch"
        );
        let cols = arrays
            .iter()
            .map(TcamArray::cols)
            .max()
            .expect("at least one array");
        let pes = arrays.len();
        let mut slab = TcamSlab::new(pes, rows, cols);
        let plane = slab.plane_words();
        let bpp = rows.div_ceil(64);
        // A fresh TcamArray column is all-`0` cells, i.e. `is_zero` = the
        // row mask — what absent columns of narrow PEs must stage as.
        let mut rm = vec![!0u64; bpp];
        if !rows.is_multiple_of(64) {
            rm[bpp - 1] = (1u64 << (rows % 64)) - 1;
        }
        let mut pm0 = vec![0u64; pes * bpp];
        let mut pm1 = vec![0u64; pes * bpp];
        for col in 0..cols {
            for (pe, array) in arrays.iter().enumerate() {
                let d0 = &mut pm0[pe * bpp..(pe + 1) * bpp];
                let d1 = &mut pm1[pe * bpp..(pe + 1) * bpp];
                if col < array.cols() {
                    let (z, o) = array.column_bits(col);
                    d0.copy_from_slice(z);
                    d1.copy_from_slice(o);
                    slab.wear[col * pes + pe] = array.column_wear()[col];
                } else {
                    d0.copy_from_slice(&rm);
                    d1.fill(0);
                }
            }
            let zp = plane::pe_major_to_plane(&pm0, rows, pes);
            slab.zeros[col * plane..(col + 1) * plane].copy_from_slice(&zp);
            let op = plane::pe_major_to_plane(&pm1, rows, pes);
            slab.ones[col * plane..(col + 1) * plane].copy_from_slice(&op);
        }
        let faulted = arrays.iter().filter(|a| a.fault().is_some()).count();
        if faulted > 0 {
            assert_eq!(
                faulted,
                arrays.len(),
                "fault state must be attached to all arrays or none"
            );
            assert!(
                arrays.iter().all(|a| a.cols() == cols),
                "fault state requires uniform column counts"
            );
            let states: Vec<&FaultState> = arrays
                .iter()
                .map(|a| a.fault().expect("checked above"))
                .collect();
            slab.fault = Some(Box::new(SlabFaultState::from_arrays(&states)));
        }
        slab.recompute_summaries();
        slab
    }

    /// Extract one PE as a standalone [`TcamArray`] (wear included).
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    pub fn to_array(&self, pe: usize) -> TcamArray {
        assert!(pe < self.pes, "PE out of range");
        let mut array = TcamArray::new(self.rows, self.cols);
        let plane = self.plane_words();
        let bpp = self.rows.div_ceil(64);
        let mut z = vec![0u64; bpp];
        let mut o = vec![0u64; bpp];
        let (w, s) = (pe / 64, pe % 64);
        for col in 0..self.cols {
            z.fill(0);
            o.fill(0);
            for row in 0..self.rows {
                let idx = col * plane + row * self.pw + w;
                z[row / 64] |= (self.zeros[idx] >> s & 1) << (row % 64);
                o[row / 64] |= (self.ones[idx] >> s & 1) << (row % 64);
            }
            array.set_column_bits(col, &z, &o);
        }
        for (col, w) in array.wear_mut().iter_mut().enumerate() {
            *w = self.wear[col * self.pes + pe];
        }
        if let Some(f) = &self.fault {
            array.set_fault(Some(Box::new(f.to_array(pe))));
        }
        array
    }

    /// Extract every PE as standalone arrays — the inverse of
    /// [`from_arrays`](Self::from_arrays).
    pub fn to_arrays(&self) -> Vec<TcamArray> {
        (0..self.pes).map(|pe| self.to_array(pe)).collect()
    }

    /// Serialize to the versioned byte image (header + `zeros`, `ones`,
    /// `wear` arenas as big-endian words, cell arenas in the historical
    /// `[col][pe][block]` wire layout — transposed from the in-memory
    /// planes at this boundary, so pre-bit-plane images stay decodable and
    /// re-encode byte-identically). The offline `serde` shim cannot produce
    /// real bytes, so snapshots go through the `bytes` buffer directly,
    /// like the ISA's instruction encoding.
    ///
    /// A fault-free slab emits [`FORMAT_VERSION`](Self::FORMAT_VERSION);
    /// with fault state attached the image is
    /// [`FORMAT_VERSION_FAULT`](Self::FORMAT_VERSION_FAULT) and appends the
    /// fault *bookkeeping* (model, remap tables, counters — stuck and
    /// search masks are recomputed on decode, since they are pure functions
    /// of the bookkeeping).
    ///
    /// # Panics
    ///
    /// Panics if a dimension exceeds `u16::MAX` (the paper-scale geometry
    /// is 256×256 with small chunks).
    pub fn to_bytes(&self) -> Vec<u8> {
        for dim in [self.pes, self.rows, self.cols] {
            assert!(dim <= u16::MAX as usize, "dimension exceeds image format");
        }
        let plane = self.plane_words();
        let words = 2 * self.cols * self.pes * self.rows.div_ceil(64) + self.wear.len();
        let mut buf = BytesMut::with_capacity(7 + words * 8);
        buf.put_u8(match self.fault {
            Some(_) => Self::FORMAT_VERSION_FAULT,
            None => Self::FORMAT_VERSION,
        });
        buf.put_u16(self.pes as u16);
        buf.put_u16(self.rows as u16);
        buf.put_u16(self.cols as u16);
        for arena in [&self.zeros, &self.ones] {
            for col in 0..self.cols {
                let pm = plane::plane_to_pe_major(
                    &arena[col * plane..(col + 1) * plane],
                    self.rows,
                    self.pes,
                );
                for w in &pm {
                    buf.put_slice(&w.to_be_bytes());
                }
            }
        }
        for w in &self.wear {
            buf.put_slice(&w.to_be_bytes());
        }
        if let Some(f) = &self.fault {
            assert!(
                f.spares <= u16::MAX as usize,
                "spare count exceeds image format"
            );
            buf.put_u64(f.model.seed);
            buf.put_u32(f.model.stuck_per_million);
            buf.put_u32(f.model.miss_per_million);
            match f.model.endurance_limit {
                Some(limit) => {
                    buf.put_u8(1);
                    buf.put_u64(limit);
                }
                None => buf.put_u8(0),
            }
            buf.put_u64(f.pe0 as u64);
            buf.put_u16(f.spares as u16);
            buf.put_u64(f.epoch);
            for pe in 0..self.pes {
                buf.put_u16(f.next_spare[pe]);
                match f.failed[pe] {
                    Some((col, wear)) => {
                        buf.put_u8(1);
                        buf.put_u16(col);
                        buf.put_u64(wear);
                    }
                    None => buf.put_u8(0),
                }
                for &r in &f.remap[pe * self.cols..(pe + 1) * self.cols] {
                    buf.put_u16(r);
                }
                buf.put_u16(f.retired[pe].len() as u16);
                for &(col, phys) in &f.retired[pe] {
                    buf.put_u16(col);
                    buf.put_u16(phys);
                }
            }
        }
        buf.to_vec()
    }

    /// Deserialize a [`to_bytes`](Self::to_bytes) image.
    ///
    /// # Errors
    ///
    /// Returns a [`SlabDecodeError`] on truncation, version or geometry
    /// problems, or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SlabDecodeError> {
        let mut buf = bytes;
        if buf.remaining() < 7 {
            return Err(SlabDecodeError::Truncated);
        }
        let version = buf.get_u8();
        if version != Self::FORMAT_VERSION && version != Self::FORMAT_VERSION_FAULT {
            return Err(SlabDecodeError::BadVersion(version));
        }
        let pes = buf.get_u16() as usize;
        let rows = buf.get_u16() as usize;
        let cols = buf.get_u16() as usize;
        if pes == 0 || rows == 0 || cols == 0 {
            return Err(SlabDecodeError::BadGeometry);
        }
        let bpp = rows.div_ceil(64);
        let arena = cols * pes * bpp;
        let words = 2 * arena + cols * pes;
        if buf.remaining() < words * 8 {
            return Err(SlabDecodeError::Truncated);
        }
        let mut read_words = |n: usize| {
            let mut v = Vec::with_capacity(n);
            let mut word = [0u8; 8];
            for _ in 0..n {
                buf.copy_to_slice(&mut word);
                v.push(u64::from_be_bytes(word));
            }
            v
        };
        let zeros_w = read_words(arena);
        let ones_w = read_words(arena);
        let wear = read_words(cols * pes);
        let fault = if version == Self::FORMAT_VERSION_FAULT {
            // Fixed part: seed + rates + limit flag + pe0 + spares + epoch.
            if buf.remaining() < 8 + 4 + 4 + 1 {
                return Err(SlabDecodeError::Truncated);
            }
            let seed = buf.get_u64();
            let stuck_per_million = buf.get_u32();
            let miss_per_million = buf.get_u32();
            let endurance_limit = match buf.get_u8() {
                0 => None,
                _ => {
                    if buf.remaining() < 8 {
                        return Err(SlabDecodeError::Truncated);
                    }
                    Some(buf.get_u64())
                }
            };
            if buf.remaining() < 8 + 2 + 8 {
                return Err(SlabDecodeError::Truncated);
            }
            let pe0 = buf.get_u64() as usize;
            let spares = buf.get_u16() as usize;
            let epoch = buf.get_u64();
            let mut next_spare = Vec::with_capacity(pes);
            let mut failed = Vec::with_capacity(pes);
            let mut remap = Vec::with_capacity(pes * cols);
            let mut retired = Vec::with_capacity(pes);
            for _ in 0..pes {
                if buf.remaining() < 2 + 1 {
                    return Err(SlabDecodeError::Truncated);
                }
                next_spare.push(buf.get_u16());
                failed.push(match buf.get_u8() {
                    0 => None,
                    _ => {
                        if buf.remaining() < 2 + 8 {
                            return Err(SlabDecodeError::Truncated);
                        }
                        Some((buf.get_u16(), buf.get_u64()))
                    }
                });
                if buf.remaining() < cols * 2 + 2 {
                    return Err(SlabDecodeError::Truncated);
                }
                for _ in 0..cols {
                    remap.push(buf.get_u16());
                }
                let n = buf.get_u16() as usize;
                if buf.remaining() < n * 4 {
                    return Err(SlabDecodeError::Truncated);
                }
                let mut log = Vec::with_capacity(n);
                for _ in 0..n {
                    let col = buf.get_u16();
                    let phys = buf.get_u16();
                    log.push((col, phys));
                }
                retired.push(log);
            }
            let model = FaultModel {
                seed,
                stuck_per_million,
                miss_per_million,
                endurance_limit,
            };
            Some(Box::new(SlabFaultState::restore(
                model, pe0, spares, pes, rows, cols, epoch, next_spare, remap, retired, failed,
            )))
        } else {
            None
        };
        if buf.has_remaining() {
            return Err(SlabDecodeError::TrailingBytes(buf.remaining()));
        }
        let mut slab = TcamSlab::new(pes, rows, cols);
        let plane = slab.plane_words();
        for col in 0..cols {
            let z = plane::pe_major_to_plane(
                &zeros_w[col * pes * bpp..(col + 1) * pes * bpp],
                rows,
                pes,
            );
            slab.zeros[col * plane..(col + 1) * plane].copy_from_slice(&z);
            let o = plane::pe_major_to_plane(
                &ones_w[col * pes * bpp..(col + 1) * pes * bpp],
                rows,
                pes,
            );
            slab.ones[col * plane..(col + 1) * plane].copy_from_slice(&o);
        }
        slab.wear = wear;
        slab.fault = fault;
        slab.recompute_summaries();
        Ok(slab)
    }
}

// ---------------------------------------------------------------------------
// CAM-native similarity search (see `crate::similarity` for the
// engine-shared semantics and DESIGN.md §11 for the hardware mapping).
// ---------------------------------------------------------------------------

/// One similarity candidate: PE (chunk-relative, or offset by the caller
/// of [`hamming_topk_multi`]), row, and its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SlabHit {
    /// Distance to the query (leading field: derived ordering is
    /// ascending-distance with `(pe, row)` tie-break).
    pub distance: u32,
    /// PE index: chunk-relative plus the slab's offset.
    pub pe: u32,
    /// Row within the PE.
    pub row: u32,
}

/// Result of a progressive top-k search over one or more slabs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlabTopk {
    /// The `min(k, candidates)` nearest candidates, ascending
    /// `(distance, pe, row)`.
    pub hits: Vec<SlabHit>,
    /// Threshold rounds of the priced widening schedule (≥ 1).
    pub rounds: usize,
    /// Distance budget of the final priced round.
    pub tau: u32,
    /// Maximum possible distance (in-range unmasked plan entries).
    pub active: u32,
}

/// Surviving columns summed per carry-save tree before one fixed-width add
/// into the counter stack.
const CSA_BATCH: usize = 8;

/// Bit-planes of one batch sum (`0..=CSA_BATCH` needs four).
const CSA_SUM_BITS: usize = 4;

/// Counter words the adders process together: every step is one operation
/// over a `[u64; LANES]` block, which the compiler maps onto SIMD registers.
const LANES: usize = 8;

type Lanes = [u64; LANES];

/// Word-parallel distance stack for one query: `bplanes` bits per
/// candidate, enough for the maximum distance `active`, laid out
/// plane-major (`planes[b * stride + w]`). The value of a live candidate
/// is its full distance, pruned `Full` columns included.
struct HammingCounters {
    planes: Vec<u64>,
    bplanes: usize,
    /// Words per bit-plane (`rows * pe_words`).
    words: usize,
    /// Allocated words per bit-plane: `words` padded to whole [`LANES`]
    /// blocks.
    stride: usize,
    /// Maximum possible distance (in-range unmasked plan entries).
    active: u32,
    /// Columns that actually entered the counter accumulation.
    accumulated: usize,
}

/// Full adder over `LANES × 64` lanes: `(sum, carry)`.
#[inline(always)]
fn full_add(a: Lanes, b: Lanes, c: Lanes) -> (Lanes, Lanes) {
    (
        std::array::from_fn(|i| a[i] ^ b[i] ^ c[i]),
        std::array::from_fn(|i| (a[i] & b[i]) | ((a[i] ^ b[i]) & c[i])),
    )
}

/// Half adder over `LANES × 64` lanes: `(sum, carry)`.
#[inline(always)]
fn half_add(a: Lanes, b: Lanes) -> (Lanes, Lanes) {
    (
        std::array::from_fn(|i| a[i] ^ b[i]),
        std::array::from_fn(|i| a[i] & b[i]),
    )
}

/// Carry-save tree: the [`CSA_SUM_BITS`] bit-planes of the per-lane count
/// of set bits among [`CSA_BATCH`] inputs.
#[inline(always)]
fn csa8(x: [Lanes; CSA_BATCH]) -> [Lanes; CSA_SUM_BITS] {
    let (s1, c1) = full_add(x[0], x[1], x[2]);
    let (s2, c2) = full_add(x[3], x[4], x[5]);
    let (s3, c3) = full_add(s1, s2, x[6]);
    let (b0, c4) = half_add(s3, x[7]);
    let (t, d1) = full_add(c1, c2, c3);
    let (b1, d2) = half_add(t, c4);
    let (b2, b3) = half_add(d1, d2);
    [b0, b1, b2, b3]
}

impl HammingCounters {
    /// Sum the miss planes `srcs` onto a uniform `base` into a fresh
    /// `bplanes`-bit stack. Each batch of [`CSA_BATCH`] planes is streamed
    /// once, [`LANES`] words at a time: a carry-save tree reduces the batch
    /// to a [`CSA_SUM_BITS`]-bit sum, and a fixed-width ripple adder adds
    /// it into every counter plane. No step branches on data.
    fn accumulate(srcs: &[&[u64]], base: u32, bplanes: usize, words: usize) -> Vec<u64> {
        // Planes are padded to whole blocks so every adder step is one
        // full `Lanes` load and store.
        let stride = Self::stride(words);
        let mut planes: Vec<u64> = (0..bplanes)
            .flat_map(|b| {
                std::iter::repeat_n(0u64.wrapping_sub(u64::from((base >> b) & 1)), stride)
            })
            .collect();
        for batch in srcs.chunks(CSA_BATCH) {
            for w0 in (0..words).step_by(LANES) {
                // Words `w0..` of one miss plane, zero-padded past `words`.
                let load = |s: &&[u64]| -> Lanes {
                    let s = &s[w0..words.min(w0 + LANES)];
                    match <&Lanes>::try_from(s) {
                        Ok(block) => *block,
                        Err(_) => std::array::from_fn(|i| s.get(i).copied().unwrap_or(0)),
                    }
                };
                let sum = csa8(std::array::from_fn(|i| {
                    batch.get(i).map_or([0; LANES], load)
                }));
                // Distances never exceed `active < 2^bplanes`, so sum bits
                // at or above `bplanes` are zero and the adder stops there.
                let mut carry = [0u64; LANES];
                for (b, cnt) in planes.chunks_exact_mut(stride).enumerate() {
                    let c: &mut Lanes = (&mut cnt[w0..w0 + LANES]).try_into().expect("whole block");
                    (*c, carry) = match sum.get(b) {
                        Some(&sb) => full_add(*c, sb, carry),
                        None => half_add(*c, carry),
                    };
                }
                debug_assert_eq!(carry, [0; LANES], "counter stack overflow");
            }
        }
        planes
    }

    /// Allocated words per bit-plane for `words` candidate words.
    fn stride(words: usize) -> usize {
        words.next_multiple_of(LANES)
    }

    /// Bit-plane `b` of every candidate's distance.
    fn plane(&self, b: usize) -> &[u64] {
        &self.planes[b * self.stride..][..self.words]
    }

    /// Distance of the candidate at plane word `w`, bit `p`.
    fn value(&self, w: usize, p: usize) -> u32 {
        (0..self.bplanes).fold(0u32, |v, b| v | (((self.plane(b)[w] >> p) & 1) as u32) << b)
    }

    /// `counts[j]` = live candidates with distance `< 2^j` (all its bits
    /// `j..` clear), for every `j < bplanes`: one pass over the stack,
    /// OR-ing planes in from the top.
    fn pow2_counts(&self, live: &[u64]) -> Vec<usize> {
        let mut counts = vec![0usize; self.bplanes];
        for (w, &l) in live.iter().enumerate() {
            let mut high = 0u64;
            for (j, count) in counts.iter_mut().enumerate().rev() {
                high |= self.plane(j)[w];
                *count += (l & !high).count_ones() as usize;
            }
        }
        counts
    }
}

/// Progressive masked top-k over several slabs searched as one machine:
/// `parts` pairs each slab with the offset added to its PE indices.
///
/// Each slab's distance stack is built once. The priced widening schedule
/// ([`crate::similarity::round_tau`]) then runs once, on candidate counts
/// summed across slabs, until at least `k` candidates fall within budget
/// or the budget covers the maximum distance — that fixes
/// [`SlabTopk::rounds`] and [`SlabTopk::tau`]. Every budget `2^j − 1`
/// admits exactly the candidates whose distance bits `j..` are clear, so
/// one pass over each stack yields every round's count.
///
/// The readout is a host-side exact select: a bitwise binary search over
/// the same bit-sliced distances finds, most significant bit first, the
/// smallest budget `d ≤ τ` holding at least `min(k, candidates)`
/// candidates, touching one bit-plane per step. Only candidates within
/// `d` are gathered, sorted by `(distance, pe, row)` and truncated to `k`,
/// so the hits are exactly the first `min(k, candidates)` entries of the
/// sorted distance list.
///
/// # Panics
///
/// Panics if `k == 0`, `rows` exceeds any slab's rows, or the slabs'
/// column counts differ.
pub fn hamming_topk_multi(
    parts: &[(&TcamSlab, usize)],
    plan: &[(usize, KeyBit)],
    rows: usize,
    k: usize,
) -> SlabTopk {
    assert!(k > 0, "top-k requires k >= 1");
    assert!(
        parts.windows(2).all(|p| p[0].0.cols == p[1].0.cols),
        "slabs of one query must share their column count"
    );
    let counters: Vec<HammingCounters> = parts
        .iter()
        .map(|(slab, _)| slab.hamming_counters(plan, rows))
        .collect();
    let lives: Vec<&[u64]> = parts
        .iter()
        .zip(&counters)
        .map(|((slab, _), hc)| &slab.live[..hc.words])
        .collect();
    let (active, bplanes) = counters.first().map_or((0, 0), |c| (c.active, c.bplanes));
    let candidates: usize = lives
        .iter()
        .flat_map(|l| l.iter())
        .map(|w| w.count_ones() as usize)
        .sum();
    let mut below_pow2 = vec![0usize; bplanes];
    for (hc, live) in counters.iter().zip(&lives) {
        for (sum, c) in below_pow2.iter_mut().zip(hc.pow2_counts(live)) {
            *sum += c;
        }
    }
    // Round `r` admits distances `≤ 2^(r-1) − 1`; from `r > bplanes` on
    // that is every candidate.
    let mut rounds = 1;
    let tau = loop {
        let tau = crate::similarity::round_tau(rounds);
        let within = below_pow2.get(rounds - 1).copied().unwrap_or(candidates);
        if within >= k || tau >= active {
            break tau;
        }
        rounds += 1;
    };
    // Bitwise binary search for `d`, the `target`-th smallest distance:
    // `eq` holds the candidates agreeing with `d` on the bits decided so
    // far, `lt` those already below it (`below` of them). `τ` holds at
    // least `target` candidates (with fewer than `k`, it covers every
    // distance), so `d ≤ τ`.
    let target = k.min(candidates);
    let mut eq: Vec<Vec<u64>> = lives.iter().map(|l| l.to_vec()).collect();
    let mut lt: Vec<Vec<u64>> = lives.iter().map(|l| vec![0; l.len()]).collect();
    let mut below = 0usize;
    for b in (0..bplanes).rev() {
        let zeros: usize = counters
            .iter()
            .zip(&eq)
            .flat_map(|(hc, e)| e.iter().zip(hc.plane(b)))
            .map(|(&e, &p)| (e & !p).count_ones() as usize)
            .sum();
        let one = below + zeros < target;
        if one {
            below += zeros;
        }
        for ((hc, e), l) in counters.iter().zip(&mut eq).zip(&mut lt) {
            for ((e, l), &p) in e.iter_mut().zip(l.iter_mut()).zip(hc.plane(b)) {
                if one {
                    *l |= *e & !p;
                    *e &= p;
                } else {
                    *e &= !p;
                }
            }
        }
    }
    let mut hits = Vec::with_capacity(target);
    for (((hc, &(slab, offset)), e), l) in counters.iter().zip(parts).zip(&eq).zip(&lt) {
        for (w, (&e, &l)) in e.iter().zip(l).enumerate() {
            let (row, wp) = (w / slab.pw, w % slab.pw);
            let mut bits = e | l;
            while bits != 0 {
                let p = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                hits.push(SlabHit {
                    distance: hc.value(w, p),
                    pe: (offset + wp * 64 + p) as u32,
                    row: row as u32,
                });
            }
        }
    }
    hits.sort_unstable();
    hits.truncate(k);
    // Answers outlive the query: drop the capacity of gathered ties.
    hits.shrink_to_fit();
    SlabTopk {
        hits,
        rounds,
        tau,
        active,
    }
}

impl TcamSlab {
    /// Accumulate per-candidate distances for `plan` over the first `rows`
    /// rows into a word-parallel distance stack.
    ///
    /// Column pruning reuses the [`PlaneSummary`] caches: an `AllZero`
    /// miss plane contributes nothing and is skipped outright; a `Full`
    /// miss plane misses on *every* live candidate and joins a uniform
    /// base the stack starts from — neither ever enters the adder.
    fn hamming_counters(&self, plan: &[(usize, KeyBit)], rows: usize) -> HammingCounters {
        assert!(rows <= self.rows, "row limit exceeds slab");
        let words = rows * self.pw;
        let plane = self.plane_words();
        let zeros = |c: usize| &self.zeros[c * plane..c * plane + words];
        let ones = |c: usize| &self.ones[c * plane..c * plane + words];
        // Miss plane per surviving column: the `ones` plane for a key `0`,
        // the `zeros` plane for a key `1`. A `Z` key misses both stored
        // values; when neither plane is summarized, its miss plane
        // `zeros | ones` is formed once, in `pairs`.
        let mut srcs: Vec<&[u64]> = Vec::new();
        let mut pairs: Vec<usize> = Vec::new();
        let mut base = 0u32;
        let mut active = 0u32;
        for &(col, bit) in plan {
            if col >= self.cols || bit == KeyBit::Masked {
                continue;
            }
            active += 1;
            match bit {
                KeyBit::Zero => match self.osum[col] {
                    PlaneSummary::AllZero => {}
                    PlaneSummary::Full => base += 1,
                    PlaneSummary::Unknown => srcs.push(ones(col)),
                },
                KeyBit::One => match self.zsum[col] {
                    PlaneSummary::AllZero => {}
                    PlaneSummary::Full => base += 1,
                    PlaneSummary::Unknown => srcs.push(zeros(col)),
                },
                KeyBit::Z => match (self.zsum[col], self.osum[col]) {
                    (PlaneSummary::AllZero, PlaneSummary::AllZero) => {}
                    (PlaneSummary::Full, _) | (_, PlaneSummary::Full) => base += 1,
                    (PlaneSummary::AllZero, _) => srcs.push(ones(col)),
                    (_, PlaneSummary::AllZero) => srcs.push(zeros(col)),
                    _ => pairs.push(col),
                },
                KeyBit::Masked => unreachable!("masked entries filtered above"),
            }
        }
        let accumulated = srcs.len() + pairs.len();
        let pair_planes: Vec<u64> = pairs
            .iter()
            .flat_map(|&c| zeros(c).iter().zip(ones(c)).map(|(z, o)| z | o))
            .collect();
        if words > 0 {
            srcs.extend(pair_planes.chunks_exact(words));
        }
        let bplanes = (u32::BITS - active.leading_zeros()) as usize;
        HammingCounters {
            planes: HammingCounters::accumulate(&srcs, base, bplanes, words),
            bplanes,
            words,
            stride: HammingCounters::stride(words),
            active,
            accumulated,
        }
    }

    /// Word-parallel distances of every candidate `(pe, row)` in the first
    /// `rows` rows to the compiled plan, written to `out[pe * rows + row]`
    /// — bit-identical to [`crate::similarity::scalar_distances`] on each
    /// PE's array view.
    ///
    /// Distance is a function of *stored* state only (stuck-at bits are
    /// already enforced there); transient search misses do not apply — see
    /// the [`crate::similarity`] module docs.
    ///
    /// # Panics
    ///
    /// Panics if `rows` exceeds the slab's rows or `out` is not
    /// `pes * rows` long.
    pub fn hamming_into(&self, plan: &[(usize, KeyBit)], rows: usize, out: &mut [u32]) {
        assert_eq!(out.len(), self.pes * rows, "distance buffer size");
        let hc = self.hamming_counters(plan, rows);
        let pw = self.pw;
        for row in 0..rows {
            for wp in 0..pw {
                let w = row * pw + wp;
                let mut bits = self.live[w];
                while bits != 0 {
                    let p = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let pe = wp * 64 + p;
                    out[pe * rows + row] = hc.value(w, p);
                }
            }
        }
    }

    /// Progressive masked top-k search over the first `rows` rows of this
    /// slab: [`hamming_topk_multi`] with this slab alone, PEs
    /// chunk-relative.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `rows` exceeds the slab's rows.
    pub fn hamming_topk(&self, plan: &[(usize, KeyBit)], rows: usize, k: usize) -> SlabTopk {
        hamming_topk_multi(&[(self, 0)], plan, rows, k)
    }

    /// Host words swept per column accumulation at this geometry and row
    /// limit — the denominator benchmarks use to report the distance
    /// kernel's words-per-nanosecond throughput.
    pub fn hamming_words_per_col(&self, rows: usize) -> usize {
        assert!(rows <= self.rows, "row limit exceeds slab");
        rows * self.pw
    }

    /// Columns of `plan` that survive `PlaneSummary` pruning and
    /// actually enter the counter accumulation — the column count
    /// benchmarks multiply by [`hamming_words_per_col`](Self::hamming_words_per_col)
    /// to report real words swept (pruned columns cost nothing on the
    /// host, though hardware still drives them; see the accounting note on
    /// `hyperap-arch`'s similarity module).
    pub fn hamming_accumulated_cols(&self, plan: &[(usize, KeyBit)], rows: usize) -> usize {
        self.hamming_counters(plan, rows).accumulated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::SearchKey;

    /// A small slab + the equivalent per-PE arrays, with a mixed cell
    /// pattern loaded into both.
    fn seeded(pes: usize, rows: usize, cols: usize) -> (TcamSlab, Vec<TcamArray>) {
        let mut arrays: Vec<TcamArray> = (0..pes).map(|_| TcamArray::new(rows, cols)).collect();
        for (pe, array) in arrays.iter_mut().enumerate() {
            for row in 0..rows {
                for col in 0..cols {
                    let v = match (pe + 3 * row + 7 * col) % 3 {
                        0 => TernaryBit::Zero,
                        1 => TernaryBit::One,
                        _ => TernaryBit::X,
                    };
                    array.set_cell(row, col, v);
                }
            }
        }
        (TcamSlab::from_arrays(&arrays), arrays)
    }

    fn tag_pattern(slab: &TcamSlab, salt: usize) -> TagSlab {
        let mut t = TagSlab::zeros(slab.pes(), slab.rows());
        for pe in 0..slab.pes() {
            let tv =
                TagVector::from_bools((0..slab.rows()).map(|r| (r + pe + salt).is_multiple_of(3)));
            t.set_pe(pe, &tv);
        }
        t
    }

    #[test]
    fn pe_range_mask_sets_exactly_the_range() {
        assert_eq!(pe_range_mask(5, 1, 4), vec![0b1110]);
        assert_eq!(pe_range_mask(64, 0, 64), vec![!0]);
        assert_eq!(pe_range_mask(70, 60, 70), vec![!0 << 60, 0b111111]);
        assert_eq!(pe_range_mask(70, 0, 0), vec![0, 0]);
    }

    #[test]
    fn new_slab_is_all_zero() {
        let s = TcamSlab::new(3, 70, 5);
        for pe in 0..3 {
            for row in 0..70 {
                for col in 0..5 {
                    assert_eq!(s.cell(pe, row, col), TernaryBit::Zero);
                }
            }
        }
        assert_eq!(
            s,
            TcamSlab::from_arrays(&[
                TcamArray::new(70, 5),
                TcamArray::new(70, 5),
                TcamArray::new(70, 5)
            ])
        );
    }

    #[test]
    fn set_cell_round_trips_and_matches_array() {
        let mut s = TcamSlab::new(2, 66, 3);
        s.set_cell(1, 65, 2, TernaryBit::X);
        s.set_cell(0, 0, 0, TernaryBit::One);
        assert_eq!(s.cell(1, 65, 2), TernaryBit::X);
        assert_eq!(s.cell(0, 0, 0), TernaryBit::One);
        assert_eq!(s.cell(1, 64, 2), TernaryBit::Zero, "neighbor untouched");
        let arrays = s.to_arrays();
        assert_eq!(arrays[1].cell(65, 2), TernaryBit::X);
        assert_eq!(arrays[0].cell(0, 0), TernaryBit::One);
    }

    #[test]
    fn search_plan_multi_matches_per_array_search() {
        for pes in [4, 67] {
            let (slab, arrays) = seeded(pes, 70, 9);
            for key in ["10-1Z----", "---------", "ZZZZZZZZZ", "001-1-0Z1"] {
                let key = SearchKey::parse(key).unwrap();
                let plan = key.compile_plan();
                let mut out = TagSlab::zeros(pes, 70);
                slab.search_plan_multi_into(&plan, None, out.words_mut());
                for (pe, array) in arrays.iter().enumerate() {
                    assert_eq!(
                        out.to_tagvector(pe),
                        array.search(&key),
                        "pes {pes} pe {pe} key {key}"
                    );
                }
            }
        }
    }

    #[test]
    fn search_plan_multi_respects_pe_subranges() {
        let (slab, arrays) = seeded(5, 33, 6);
        let key = SearchKey::parse("1-0Z--").unwrap();
        let plan = key.compile_plan();
        let mut out = TagSlab::zeros(5, 33);
        let sel = pe_range_mask(5, 1, 4);
        slab.search_plan_multi_into(&plan, Some(&sel), out.words_mut());
        for (pe, array) in arrays.iter().enumerate().take(4).skip(1) {
            assert_eq!(out.to_tagvector(pe), array.search(&key));
        }
        assert_eq!(out.count(0), 0, "PE 0 outside the range stays clear");
        assert_eq!(out.count(4), 0, "PE 4 outside the range stays clear");
    }

    #[test]
    fn search_plan_multi_skips_masked_and_out_of_range_entries() {
        let (slab, _) = seeded(2, 16, 4);
        let mut out = TagSlab::zeros(2, 16);
        slab.search_plan_multi_into(
            &[(9, KeyBit::One), (0, KeyBit::Masked)],
            None,
            out.words_mut(),
        );
        assert_eq!(out.count(0) + out.count(1), 32, "no-op plan matches all");
    }

    #[test]
    fn search_plan_multi_or_into_accumulates_per_array() {
        let (slab, arrays) = seeded(5, 70, 9);
        let k1 = SearchKey::parse("10-1Z----").unwrap();
        let k2 = SearchKey::parse("-----01--").unwrap();
        let mut out = tag_pattern(&slab, 3);
        let before = out.clone();
        let sel = pe_range_mask(5, 1, 4);
        slab.search_plan_multi_or_into(&k1.compile_plan(), Some(&sel), out.words_mut());
        slab.search_plan_multi_or_into(&k2.compile_plan(), None, out.words_mut());
        for (pe, array) in arrays.iter().enumerate() {
            let mut expect = before.to_tagvector(pe);
            if (1..4).contains(&pe) {
                expect.accumulate(&array.search(&k1));
            }
            expect.accumulate(&array.search(&k2));
            assert_eq!(out.to_tagvector(pe), expect, "pe {pe}");
        }
    }

    #[test]
    fn tag_slab_clear_restores_zeros() {
        let mut t = TagSlab::zeros(70, 9);
        t.words_mut()[0] = 0x5555;
        t.words_mut()[5] = 1;
        t.clear();
        assert_eq!(t, TagSlab::zeros(70, 9));
    }

    #[test]
    fn reset_restores_fresh_state() {
        let (mut slab, _) = seeded(4, 70, 5);
        let tags = tag_pattern(&slab, 1);
        slab.write_column_multi(3, TernaryBit::One, tags.words(), None);
        slab.write_column_multi(0, TernaryBit::X, tags.words(), None);
        slab.reset();
        let fresh = TcamSlab::new(4, 70, 5);
        assert_eq!(slab, fresh);
        // The summaries are back to the exact fresh state too: a search on
        // a reset slab takes the same pruned paths as on a new one.
        let plan = SearchKey::parse("1-0Z-").unwrap().compile_plan();
        let mut out = TagSlab::zeros(4, 70);
        slab.search_plan_multi_into(&plan, None, out.words_mut());
        let mut out_fresh = TagSlab::zeros(4, 70);
        fresh.search_plan_multi_into(&plan, None, out_fresh.words_mut());
        assert_eq!(out, out_fresh);
    }

    #[test]
    fn reset_reseeds_fault_state() {
        let model = FaultModel {
            seed: 77,
            stuck_per_million: 20_000,
            miss_per_million: 1_000,
            endurance_limit: Some(4),
        };
        let mut slab = TcamSlab::new(3, 40, 6);
        slab.attach_fault(model, 2, 64);
        let mut fresh = TcamSlab::new(3, 40, 6);
        fresh.attach_fault(model, 2, 64);
        // Mutate storage, wear, and fault bookkeeping past the initial
        // state, including a latched failure.
        let tags = tag_pattern(&slab, 2);
        for _ in 0..5 {
            slab.write_column_multi(1, TernaryBit::One, tags.words(), None);
        }
        slab.advance_epoch();
        assert!(slab.service_endurance().is_err() || slab.fault().is_some());
        slab.reset();
        assert_eq!(slab, fresh);
        assert_eq!(slab.fault().unwrap().epoch, 0);
        assert!(slab.fault().unwrap().failed.iter().all(|f| f.is_none()));
    }

    #[test]
    fn write_column_multi_matches_per_array_write() {
        for value in [TernaryBit::Zero, TernaryBit::One, TernaryBit::X] {
            let (mut slab, mut arrays) = seeded(4, 70, 5);
            let tags = tag_pattern(&slab, 1);
            let sel = pe_range_mask(4, 1, 4);
            slab.write_column_multi(3, value, tags.words(), Some(&sel));
            for (pe, array) in arrays.iter_mut().enumerate().skip(1) {
                array.write_column(3, value, &tags.to_tagvector(pe));
            }
            assert_eq!(slab.to_arrays(), arrays, "value {value:?}");
            assert_eq!(slab.pe_wear(0)[3], 0, "PE outside the range unworn");
            assert_eq!(slab.pe_wear(2)[3], 1);
        }
    }

    #[test]
    fn write_column_multi_wears_even_with_empty_tags() {
        let (mut slab, _) = seeded(2, 16, 4);
        let empty = TagSlab::zeros(2, 16);
        slab.write_column_multi(1, TernaryBit::One, empty.words(), None);
        assert_eq!(slab.pe_wear(0)[1], 1);
        assert_eq!(slab.pe_wear(1)[1], 1);
    }

    #[test]
    fn copy_column_multi_matches_per_array_copy() {
        let (mut slab, mut arrays) = seeded(3, 66, 7);
        slab.copy_column_multi(2, 5, None);
        for array in &mut arrays {
            array.copy_column(2, 5);
        }
        assert_eq!(slab.to_arrays(), arrays);
        slab.copy_column_multi(4, 4, None); // src == dst: no-op
        assert_eq!(slab.to_arrays(), arrays);
    }

    #[test]
    fn copy_column_multi_respects_pe_subranges() {
        let (mut slab, arrays) = seeded(3, 20, 4);
        let sel = pe_range_mask(3, 1, 2);
        slab.copy_column_multi(0, 3, Some(&sel));
        // Copy downward too, to exercise the src > dst split.
        slab.copy_column_multi(3, 1, Some(&pe_range_mask(3, 2, 3)));
        for row in 0..20 {
            assert_eq!(slab.cell(1, row, 3), arrays[1].cell(row, 0));
            assert_eq!(
                slab.cell(0, row, 3),
                arrays[0].cell(row, 3),
                "PE 0 untouched"
            );
            assert_eq!(
                slab.cell(2, row, 3),
                arrays[2].cell(row, 3),
                "PE 2 untouched"
            );
            assert_eq!(
                slab.cell(2, row, 1),
                arrays[2].cell(row, 3),
                "downward copy"
            );
        }
    }

    #[test]
    fn write_encoded_multi_matches_cell_by_cell_encoder() {
        let (mut slab, arrays) = seeded(3, 70, 6);
        let latch = tag_pattern(&slab, 0);
        let tags = tag_pattern(&slab, 5);
        slab.write_encoded_multi(2, latch.words(), tags.words(), None);
        // Reference: the per-row encoder of HyperPe::write_encoded.
        for (pe, array) in arrays.iter().enumerate() {
            let mut expect = array.clone();
            for row in 0..70 {
                let cells = crate::encoding::encode_pair(
                    latch.to_tagvector(pe).get(row),
                    tags.to_tagvector(pe).get(row),
                );
                expect.set_cell(row, 2, cells[0]);
                expect.set_cell(row, 3, cells[1]);
            }
            expect.note_write(2);
            expect.note_write(3);
            assert_eq!(slab.to_array(pe), expect, "pe {pe}");
        }
    }

    #[test]
    fn write_encoded_multi_respects_selection() {
        let (mut slab, arrays) = seeded(5, 33, 6);
        let latch = tag_pattern(&slab, 0);
        let tags = tag_pattern(&slab, 5);
        let sel = pe_range_mask(5, 2, 4);
        slab.write_encoded_multi(1, latch.words(), tags.words(), Some(&sel));
        for (pe, array) in arrays.iter().enumerate() {
            if !(2..4).contains(&pe) {
                assert_eq!(slab.to_array(pe), *array, "unselected pe {pe} untouched");
                continue;
            }
            let mut expect = array.clone();
            for row in 0..33 {
                let cells = crate::encoding::encode_pair(
                    latch.to_tagvector(pe).get(row),
                    tags.to_tagvector(pe).get(row),
                );
                expect.set_cell(row, 1, cells[0]);
                expect.set_cell(row, 2, cells[1]);
            }
            expect.note_write(1);
            expect.note_write(2);
            assert_eq!(slab.to_array(pe), expect, "pe {pe}");
        }
    }

    #[test]
    fn conversion_round_trips_with_wear() {
        let (mut slab, _) = seeded(4, 33, 5);
        let tags = tag_pattern(&slab, 2);
        slab.write_column_multi(0, TernaryBit::One, tags.words(), None);
        slab.write_column_multi(
            0,
            TernaryBit::X,
            tags.words(),
            Some(&pe_range_mask(4, 2, 3)),
        );
        let arrays = slab.to_arrays();
        assert_eq!(arrays[0].column_wear()[0], 1);
        assert_eq!(arrays[2].column_wear()[0], 2);
        assert_eq!(TcamSlab::from_arrays(&arrays), slab);
    }

    /// Every kernel on a slab wider than one 64-PE word, with a ragged
    /// (non-contiguous) selection, against the per-array reference.
    #[test]
    fn wide_slab_kernels_match_per_array_with_ragged_selection() {
        let (mut slab, mut arrays) = seeded(67, 70, 9);
        let mut sel = vec![0u64; 2];
        let picked: Vec<usize> = (0..67).filter(|pe| pe % 3 != 1).collect();
        for &pe in &picked {
            sel[pe / 64] |= 1u64 << (pe % 64);
        }
        let key = SearchKey::parse("10-1Z----").unwrap();
        let plan = key.compile_plan();
        let mut tags = tag_pattern(&slab, 1);
        slab.search_plan_multi_into(&plan, Some(&sel), tags.words_mut());
        slab.write_column_multi(2, TernaryBit::One, tags.words(), Some(&sel));
        slab.copy_column_multi(6, 3, Some(&sel));
        let latch = tag_pattern(&slab, 4);
        slab.write_encoded_multi(4, latch.words(), tags.words(), Some(&sel));
        slab.search_write_multi(
            &[&plan],
            false,
            &[(7, TernaryBit::Zero)],
            tags.words_mut(),
            Some(&sel),
        );
        let reference = tag_pattern(&TcamSlab::new(67, 70, 9), 1);
        for (pe, array) in arrays.iter_mut().enumerate() {
            if picked.binary_search(&pe).is_err() {
                continue;
            }
            let t = array.search(&key);
            array.write_column(2, TernaryBit::One, &t);
            array.copy_column(6, 3);
            let lv = latch.to_tagvector(pe);
            for row in 0..70 {
                let cells = crate::encoding::encode_pair(lv.get(row), t.get(row));
                array.set_cell(row, 4, cells[0]);
                array.set_cell(row, 5, cells[1]);
            }
            array.note_write(4);
            array.note_write(5);
            let t = array.search(&key);
            array.write_column(7, TernaryBit::Zero, &t);
            assert_eq!(tags.to_tagvector(pe), t, "pe {pe} tags");
        }
        for (pe, array) in arrays.iter().enumerate() {
            if picked.binary_search(&pe).is_ok() {
                assert_eq!(slab.to_array(pe), *array, "selected pe {pe}");
            } else {
                assert_eq!(slab.to_array(pe), *array, "unselected pe {pe} untouched");
                assert_eq!(
                    tags.to_tagvector(pe),
                    reference.to_tagvector(pe),
                    "unselected pe {pe} tags untouched"
                );
            }
        }
    }

    #[test]
    fn bytes_round_trip() {
        for pes in [3, 67] {
            let (mut slab, _) = seeded(pes, 70, 4);
            let tags = tag_pattern(&slab, 3);
            slab.write_column_multi(1, TernaryBit::Zero, tags.words(), None);
            let bytes = slab.to_bytes();
            assert_eq!(TcamSlab::from_bytes(&bytes), Ok(slab), "pes {pes}");
        }
    }

    #[test]
    fn from_bytes_rejects_malformed_images() {
        let slab = TcamSlab::new(2, 16, 3);
        let bytes = slab.to_bytes();
        assert_eq!(
            TcamSlab::from_bytes(&bytes[..3]),
            Err(SlabDecodeError::Truncated)
        );
        assert_eq!(
            TcamSlab::from_bytes(&bytes[..bytes.len() - 1]),
            Err(SlabDecodeError::Truncated)
        );
        let mut versioned = bytes.clone();
        versioned[0] = 9;
        assert_eq!(
            TcamSlab::from_bytes(&versioned),
            Err(SlabDecodeError::BadVersion(9))
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            TcamSlab::from_bytes(&trailing),
            Err(SlabDecodeError::TrailingBytes(1))
        );
        let mut zeroed = bytes;
        zeroed[1] = 0;
        zeroed[2] = 0;
        assert_eq!(
            TcamSlab::from_bytes(&zeroed),
            Err(SlabDecodeError::BadGeometry)
        );
    }

    /// The single-sweep fused kernel must equal the unfused composition:
    /// searches (first overwriting, rest accumulating), then per-column
    /// writes — state, tags, and wear.
    #[test]
    fn search_write_multi_matches_unfused_kernel_sequence() {
        for acc in [false, true] {
            let (mut fused, _) = seeded(4, 70, 9);
            let mut unfused = fused.clone();
            let k1 = SearchKey::parse("10-1Z----").unwrap().compile_plan();
            let k2 = SearchKey::parse("-----01--").unwrap().compile_plan();
            let writes = [(2usize, TernaryBit::One), (7usize, TernaryBit::X)];
            let sel = pe_range_mask(4, 1, 4);
            let mut tags = tag_pattern(&fused, 1);
            let mut expect_tags = tags.clone();

            fused.search_write_multi(&[&k1, &k2], acc, &writes, tags.words_mut(), Some(&sel));

            let mut scratch = TagSlab::zeros(4, 70);
            unfused.search_plan_multi_into(&k1, Some(&sel), scratch.words_mut());
            if acc {
                expect_tags.accumulate_from(&scratch, Some(&sel));
            } else {
                expect_tags.copy_from_masked(&scratch, Some(&sel));
            }
            unfused.search_plan_multi_into(&k2, Some(&sel), scratch.words_mut());
            expect_tags.accumulate_from(&scratch, Some(&sel));
            for (col, value) in writes {
                unfused.write_column_multi(col, value, expect_tags.words(), Some(&sel));
            }
            assert_eq!(tags, expect_tags, "acc {acc}");
            assert_eq!(fused, unfused, "acc {acc}");
            assert_eq!(fused.pe_wear(2)[2], 1);
            assert_eq!(fused.pe_wear(0)[2], 0, "outside the PE range");
        }
    }

    /// The monomorphized fast path (no accumulate, full selection, one or
    /// two plans of ≤ 4 entries) across every dispatch arm, against the
    /// unfused sequence — on both a full 64-PE slab and a ragged 67-PE one.
    #[test]
    fn search_write_multi_fast_path_matches_unfused_for_all_shapes() {
        let keys = [
            "---------",
            "1--------",
            "10-------",
            "10-1-----",
            "10-1Z----",
        ];
        for pes in [64, 67] {
            for n1 in 0..=4usize {
                for n2 in 0..=4usize {
                    let (mut fused, _) = seeded(pes, 70, 9);
                    let mut unfused = fused.clone();
                    let k1 = SearchKey::parse(keys[n1]).unwrap().compile_plan();
                    let k2 = SearchKey::parse(keys[n2]).unwrap().compile_plan();
                    let plans: Vec<&[(usize, KeyBit)]> = if n2 == 0 && n1 % 2 == 0 {
                        vec![&k1] // exercise single-plan arms too
                    } else {
                        vec![&k1, &k2]
                    };
                    let writes = [(3usize, TernaryBit::One), (8usize, TernaryBit::Zero)];
                    let mut tags = tag_pattern(&fused, 2);
                    fused.search_write_multi(&plans, false, &writes, tags.words_mut(), None);

                    let mut expect = TagSlab::zeros(pes, 70);
                    let mut scratch = TagSlab::zeros(pes, 70);
                    for (pi, plan) in plans.iter().enumerate() {
                        unfused.search_plan_multi_into(plan, None, scratch.words_mut());
                        if pi == 0 {
                            expect.copy_from_masked(&scratch, None);
                        } else {
                            expect.accumulate_from(&scratch, None);
                        }
                    }
                    for (col, value) in writes {
                        unfused.write_column_multi(col, value, expect.words(), None);
                    }
                    assert_eq!(tags, expect, "pes {pes} n1 {n1} n2 {n2}");
                    assert_eq!(fused, unfused, "pes {pes} n1 {n1} n2 {n2}");
                }
            }
        }
    }

    /// A write column that also appears in a plan must behave like the
    /// unfused sequence (search completes before the store).
    #[test]
    fn search_write_multi_handles_write_column_in_plan() {
        let (mut fused, _) = seeded(3, 33, 5);
        let mut unfused = fused.clone();
        let plan = vec![(1usize, KeyBit::Zero), (3usize, KeyBit::One)];
        let mut tags = TagSlab::zeros(3, 33);
        fused.search_write_multi(
            &[&plan],
            false,
            &[(1, TernaryBit::One)],
            tags.words_mut(),
            None,
        );
        let mut expect = TagSlab::zeros(3, 33);
        unfused.search_plan_multi_into(&plan, None, expect.words_mut());
        unfused.write_column_multi(1, TernaryBit::One, expect.words(), None);
        assert_eq!(tags, expect);
        assert_eq!(fused, unfused);
    }

    #[test]
    fn search_narrow_multi_equals_init_free_plan_search() {
        let (slab, _) = seeded(3, 70, 6);
        let full = SearchKey::parse("1-0Z--").unwrap().compile_plan();
        let (prefix, rest) = full.split_at(1);
        let mut whole = TagSlab::zeros(3, 70);
        slab.search_plan_multi_into(&full, None, whole.words_mut());
        let mut narrowed = TagSlab::zeros(3, 70);
        slab.search_plan_multi_into(prefix, None, narrowed.words_mut());
        slab.search_narrow_multi(rest, None, narrowed.words_mut());
        assert_eq!(narrowed, whole);
    }

    #[test]
    fn tag_slab_bytes_round_trip() {
        let slab = TcamSlab::new(3, 70, 2);
        let tags = tag_pattern(&slab, 6);
        assert_eq!(TagSlab::from_bytes(&tags.to_bytes()), Ok(tags));
    }

    #[test]
    fn tag_slab_from_bytes_rejects_malformed_images() {
        let slab = TcamSlab::new(2, 70, 2);
        let tags = tag_pattern(&slab, 0);
        let bytes = tags.to_bytes();
        assert_eq!(
            TagSlab::from_bytes(&bytes[..2]),
            Err(SlabDecodeError::Truncated)
        );
        assert_eq!(
            TagSlab::from_bytes(&bytes[..bytes.len() - 1]),
            Err(SlabDecodeError::Truncated)
        );
        let mut versioned = bytes.clone();
        versioned[0] = 7;
        assert_eq!(
            TagSlab::from_bytes(&versioned),
            Err(SlabDecodeError::BadVersion(7))
        );
        let mut trailing = bytes.clone();
        trailing.push(1);
        assert_eq!(
            TagSlab::from_bytes(&trailing),
            Err(SlabDecodeError::TrailingBytes(1))
        );
        let mut zeroed = bytes.clone();
        zeroed[1] = 0;
        zeroed[2] = 0;
        assert_eq!(
            TagSlab::from_bytes(&zeroed),
            Err(SlabDecodeError::BadGeometry)
        );
        // 70 rows → the last 58 bits of each PE's second block are padding
        // and must decode as zero.
        let mut padded = bytes;
        let last = padded.len() - 1;
        padded[last] |= 0x80;
        assert_eq!(
            TagSlab::from_bytes(&padded),
            Err(SlabDecodeError::BadGeometry)
        );
    }

    #[test]
    fn tag_slab_reductions_match_tagvector() {
        let slab = TcamSlab::new(3, 70, 2);
        let tags = tag_pattern(&slab, 4);
        for pe in 0..3 {
            let tv = tags.to_tagvector(pe);
            assert_eq!(tags.count(pe), tv.count());
            assert_eq!(tags.first_index(pe), tv.first_index());
        }
        let empty = TagSlab::zeros(3, 70);
        assert_eq!(empty.first_index(1), None);
    }

    #[test]
    fn tag_slab_accumulate_and_copy_masked() {
        let slab = TcamSlab::new(4, 40, 2);
        let a0 = tag_pattern(&slab, 0);
        let b = tag_pattern(&slab, 1);
        let mut acc = a0.clone();
        acc.accumulate_from(&b, Some(&pe_range_mask(4, 1, 3)));
        for pe in [1, 2] {
            let mut expect = a0.to_tagvector(pe);
            expect.accumulate(&b.to_tagvector(pe));
            assert_eq!(acc.to_tagvector(pe), expect);
        }
        assert_eq!(acc.to_tagvector(0), a0.to_tagvector(0), "outside range");
        assert_eq!(acc.to_tagvector(3), a0.to_tagvector(3), "outside range");
        let mut copy = a0.clone();
        copy.copy_from_masked(&b, Some(&pe_range_mask(4, 0, 2)));
        assert_eq!(copy.to_tagvector(0), b.to_tagvector(0));
        assert_eq!(copy.to_tagvector(2), a0.to_tagvector(2));
    }

    #[test]
    fn tag_slab_broadcast_matches_per_pe_set() {
        for pes in [5, 67] {
            let slab = TcamSlab::new(pes, 40, 2);
            let mut t = tag_pattern(&slab, 0);
            let tv = TagVector::from_bools((0..40).map(|r| r % 4 == 1));
            let sel = pe_range_mask(pes, 1, pes - 1);
            let mut expect = t.clone();
            for pe in 1..pes - 1 {
                expect.set_pe(pe, &tv);
            }
            t.broadcast(&tv, Some(&sel));
            assert_eq!(t, expect, "pes {pes} masked broadcast");
            t.broadcast(&tv, None);
            for pe in 0..pes {
                assert_eq!(t.to_tagvector(pe), tv, "pes {pes} pe {pe} full broadcast");
            }
        }
    }

    #[test]
    fn tag_slab_pe_blocks_round_trip() {
        let slab = TcamSlab::new(67, 70, 2);
        let t = tag_pattern(&slab, 3);
        let mut blocks = vec![0u64; t.blocks_per_pe()];
        let mut copy = TagSlab::zeros(67, 70);
        for pe in 0..67 {
            t.pe_blocks_into(pe, &mut blocks);
            assert_eq!(blocks, t.to_tagvector(pe).blocks());
            copy.set_pe_blocks(pe, &blocks);
        }
        assert_eq!(copy, t);
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn search_output_size_mismatch_panics() {
        let slab = TcamSlab::new(2, 16, 2);
        let mut out = vec![0u64; 1];
        slab.search_plan_multi_into(&[], None, &mut out);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn from_arrays_rejects_mixed_rows() {
        TcamSlab::from_arrays(&[TcamArray::new(4, 4), TcamArray::new(5, 4)]);
    }

    /// Regression: converting heterogeneous-width arrays into a slab used
    /// to clamp every PE's wear copy to the narrowest width, silently
    /// dropping wear (and cells) beyond it on the wider PEs.
    #[test]
    fn from_arrays_keeps_wear_beyond_the_narrowest_pe() {
        let mut narrow = TcamArray::new(40, 4);
        let mut wide = TcamArray::new(40, 6);
        narrow.set_cell(3, 3, TernaryBit::One);
        wide.set_cell(7, 5, TernaryBit::X);
        narrow.note_write(3);
        for _ in 0..5 {
            wide.note_write(5);
        }
        let slab = TcamSlab::from_arrays(&[narrow.clone(), wide.clone()]);
        assert_eq!(slab.cols(), 6, "slab width is the widest PE");
        assert_eq!(slab.pe_wear(0)[3], 1);
        assert_eq!(slab.pe_wear(1)[5], 5, "wear beyond the narrow PE survives");
        assert_eq!(slab.cell(1, 7, 5), TernaryBit::X);
        let back = slab.to_arrays();
        assert_eq!(back[1], wide);
        // The narrow PE comes back widened; its original columns are intact
        // and the padding columns are fresh.
        assert_eq!(back[0].cols(), 6);
        assert_eq!(back[0].cell(3, 3), TernaryBit::One);
        assert_eq!(back[0].column_wear()[3], 1);
        assert_eq!(back[0].column_wear()[4], 0);
        assert_eq!(back[0].cell(0, 5), TernaryBit::Zero);
        assert_eq!(TcamSlab::from_arrays(&back), slab, "round trip is stable");
    }

    /// A faulty model attached at matching PE offsets must leave the slab
    /// kernels bit-identical to the per-array kernels: same cells, same
    /// tags, same wear, same remap bookkeeping after endurance service.
    #[test]
    fn fault_kernels_match_per_array_fault_kernels() {
        let model = FaultModel {
            seed: 0xFA111,
            stuck_per_million: 40_000,
            miss_per_million: 30_000,
            endurance_limit: Some(2),
        };
        let (mut slab, mut arrays) = seeded(3, 70, 6);
        slab.attach_fault(model, 2, 0);
        for (pe, array) in arrays.iter_mut().enumerate() {
            array.attach_fault(model, 2, pe);
        }
        assert_eq!(slab.to_arrays(), arrays, "attachment alone is identical");

        let key = SearchKey::parse("10-1Z-").unwrap();
        let plan = key.compile_plan();
        let mut tags = TagSlab::zeros(3, 70);
        slab.search_plan_multi_into(&plan, None, tags.words_mut());
        for (pe, array) in arrays.iter().enumerate() {
            assert_eq!(tags.to_tagvector(pe), array.search(&key), "pe {pe}");
        }

        slab.write_column_multi(2, TernaryBit::One, tags.words(), None);
        slab.search_write_multi(
            &[&plan],
            false,
            &[(4, TernaryBit::Zero)],
            tags.words_mut(),
            None,
        );
        for (pe, array) in arrays.iter_mut().enumerate() {
            let tv = tags.to_tagvector(pe);
            let search = array.search(&key);
            array.write_column(2, TernaryBit::One, &search);
            let search = array.search(&key);
            array.write_column(4, TernaryBit::Zero, &search);
            assert_eq!(tv, search, "pe {pe} fused tags");
        }
        assert_eq!(slab.to_arrays(), arrays, "after fault-gated kernels");

        // New epoch re-derives the transient miss set on both backends.
        slab.advance_epoch();
        for array in &mut arrays {
            array.advance_epoch();
        }
        let mut tags2 = TagSlab::zeros(3, 70);
        slab.search_plan_multi_into(&plan, None, tags2.words_mut());
        for (pe, array) in arrays.iter().enumerate() {
            assert_eq!(
                tags2.to_tagvector(pe),
                array.search(&key),
                "pe {pe} epoch 1"
            );
        }

        // Endurance service retires worn columns identically.
        let slab_res = slab.service_endurance();
        let mut array_res = Ok(());
        for array in &mut arrays {
            if let Err(e) = array.service_endurance() {
                array_res = Err(e);
                break;
            }
        }
        assert_eq!(slab_res, array_res);
        assert_eq!(slab.to_arrays(), arrays, "after endurance service");
    }

    #[test]
    fn fault_bytes_round_trip_uses_version_two() {
        let (mut slab, _) = seeded(2, 70, 4);
        assert_eq!(slab.to_bytes()[0], TcamSlab::FORMAT_VERSION);
        slab.attach_fault(
            FaultModel {
                seed: 99,
                stuck_per_million: 25_000,
                miss_per_million: 10_000,
                endurance_limit: Some(1),
            },
            1,
            5,
        );
        let tags = tag_pattern(&slab, 2);
        slab.write_column_multi(1, TernaryBit::One, tags.words(), None);
        slab.service_endurance().expect("one spare per PE");
        assert!(
            slab.fault().unwrap().retired.iter().any(|r| !r.is_empty()),
            "the write plus limit 1 must retire a column"
        );
        let bytes = slab.to_bytes();
        assert_eq!(bytes[0], TcamSlab::FORMAT_VERSION_FAULT);
        assert_eq!(TcamSlab::from_bytes(&bytes), Ok(slab));
        // A truncated fault payload is rejected, not misread.
        assert_eq!(
            TcamSlab::from_bytes(&bytes[..bytes.len() - 3]),
            Err(SlabDecodeError::Truncated)
        );
    }

    /// Distances of every `(pe, row)` candidate from the scalar per-PE
    /// reference, in the `hamming_into` layout.
    fn reference_distances(
        arrays: &[TcamArray],
        plan: &[(usize, KeyBit)],
        rows: usize,
    ) -> Vec<u32> {
        arrays
            .iter()
            .flat_map(|a| crate::similarity::scalar_distances(a, plan, rows))
            .collect()
    }

    #[test]
    fn hamming_matches_scalar_reference_across_word_boundary() {
        let (slab, arrays) = seeded(70, 20, 24);
        let key = SearchKey::parse("01Z-01Z-01Z-01Z-01Z-01Z-").unwrap();
        let plan = key.compile_plan();
        for rows in [1, 7, 20] {
            let mut got = vec![u32::MAX; 70 * rows];
            slab.hamming_into(&plan, rows, &mut got);
            assert_eq!(got, reference_distances(&arrays, &plan, rows));
        }
    }

    #[test]
    fn hamming_pruning_paths_stay_exact() {
        // A fresh slab stores all zeros: `zsum` is Full and `osum` is
        // AllZero for every column, so a key of 1s rides the base-offset
        // path and a key of 0s the skip path — neither touches a counter.
        let slab = TcamSlab::new(3, 5, 8);
        let ones_plan = SearchKey::parse("11111111").unwrap().compile_plan();
        let zeros_plan = SearchKey::parse("00000000").unwrap().compile_plan();
        let mut d = vec![0u32; 3 * 5];
        slab.hamming_into(&ones_plan, 5, &mut d);
        assert!(d.iter().all(|&x| x == 8), "all-ones key misses every cell");
        slab.hamming_into(&zeros_plan, 5, &mut d);
        assert!(
            d.iter().all(|&x| x == 0),
            "all-zeros key matches every cell"
        );
        // The top-k on the base-offset path still reports exact distances
        // and a schedule consistent with the shared rule: the hits are the
        // first two candidates in `(distance, pe, row)` order.
        let topk = slab.hamming_topk(&ones_plan, 5, 2);
        let first = |pe, row| SlabHit {
            distance: 8,
            pe,
            row,
        };
        assert_eq!(topk.hits, vec![first(0, 0), first(0, 1)]);
        assert_eq!(topk.rounds, 5);
        assert_eq!(topk.tau, 15);
    }

    #[test]
    fn topk_agrees_with_shared_schedule_and_distances() {
        let (slab, arrays) = seeded(70, 20, 24);
        let key = SearchKey::parse("0101Z-0101Z-0101Z-0101Z-").unwrap();
        let plan = key.compile_plan();
        let rows = 20;
        let all = reference_distances(&arrays, &plan, rows);
        let active = crate::similarity::active_entries(&plan, 24);
        for k in [1, 3, 64, 2000] {
            let topk = slab.hamming_topk(&plan, rows, k);
            let sched = crate::similarity::topk_schedule(&all, active, k);
            assert_eq!(topk.rounds, sched.rounds);
            assert_eq!(topk.tau, sched.tau);
            assert_eq!(topk.active, active);
            // Hits are the first min(k, n) entries of the scalar reference
            // sorted ascending with the (pe, row) tie-break.
            let mut expect: Vec<SlabHit> = all
                .iter()
                .enumerate()
                .map(|(i, &d)| SlabHit {
                    distance: d,
                    pe: (i / rows) as u32,
                    row: (i % rows) as u32,
                })
                .collect();
            expect.sort_unstable();
            expect.truncate(k);
            assert_eq!(topk.hits, expect);
        }
    }

    #[test]
    fn carry_save_counters_cross_batch_and_plane_boundaries() {
        // Each stored word is random, and the key fixes its first `n`
        // columns and masks the rest, so exactly `n` columns survive
        // pruning: the counts straddle the carry-save batch width and the
        // counter stack's bit-plane boundaries.
        let (pes, rows, cols) = (70, 3, 256);
        let mut slab = TcamSlab::new(pes, rows, cols);
        let mut arrays: Vec<TcamArray> = (0..pes).map(|_| TcamArray::new(rows, cols)).collect();
        let mut state = 0x5EED_u64;
        for (pe, array) in arrays.iter_mut().enumerate() {
            for row in 0..rows {
                for col in 0..cols {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let v = if state >> 63 == 1 {
                        TernaryBit::One
                    } else {
                        TernaryBit::Zero
                    };
                    slab.set_cell(pe, row, col, v);
                    array.set_cell(row, col, v);
                }
            }
        }
        for n in [0usize, 1, 7, 8, 9, 255, 256] {
            let plan: Vec<(usize, KeyBit)> = (0..cols)
                .map(|c| {
                    let bit = match c {
                        c if c >= n => KeyBit::Masked,
                        c if c % 3 == 0 => KeyBit::Z,
                        c if c % 2 == 0 => KeyBit::One,
                        _ => KeyBit::Zero,
                    };
                    (c, bit)
                })
                .collect();
            assert_eq!(slab.hamming_accumulated_cols(&plan, rows), n);
            let mut got = vec![u32::MAX; pes * rows];
            slab.hamming_into(&plan, rows, &mut got);
            assert_eq!(got, reference_distances(&arrays, &plan, rows), "n = {n}");
        }
    }

    #[test]
    fn zero_distance_agrees_with_search() {
        // A candidate is at distance 0 exactly when a plain search of the
        // same plan tags it (fault-free: searches start from `live`).
        let (slab, _) = seeded(5, 16, 12);
        let key = SearchKey::parse("01Z-01Z-01Z-").unwrap();
        let plan = key.compile_plan();
        let mut d = vec![0u32; 5 * 16];
        slab.hamming_into(&plan, 16, &mut d);
        let mut tags = vec![0u64; slab.plane_words()];
        slab.search_plan_multi_into(&plan, None, &mut tags);
        for pe in 0..5 {
            for row in 0..16 {
                let tagged = tags[row * slab.pe_words() + pe / 64] >> (pe % 64) & 1 == 1;
                assert_eq!(d[pe * 16 + row] == 0, tagged, "pe {pe} row {row}");
            }
        }
    }

    #[test]
    fn stuck_cells_perturb_distances_identically() {
        let model = FaultModel {
            seed: 0xD157,
            stuck_per_million: 150_000,
            miss_per_million: 250_000, // transient misses must NOT affect distances
            endurance_limit: None,
        };
        let pes = 70;
        let (rows, cols) = (12, 16);
        let mut slab = TcamSlab::new(pes, rows, cols);
        slab.attach_fault(model, 2, 9);
        let mut arrays: Vec<TcamArray> = (0..pes).map(|_| TcamArray::new(rows, cols)).collect();
        for (s, a) in arrays.iter_mut().enumerate() {
            a.attach_fault(model, 2, 9 + s);
        }
        for (pe, array) in arrays.iter_mut().enumerate() {
            for row in 0..rows {
                for col in 0..cols {
                    let v = match (5 * pe + 3 * row + 7 * col) % 3 {
                        0 => TernaryBit::Zero,
                        1 => TernaryBit::One,
                        _ => TernaryBit::X,
                    };
                    slab.set_cell(pe, row, col, v);
                    array.set_cell(row, col, v);
                }
            }
        }
        let key = SearchKey::parse("01Z-01Z-01Z-01Z-").unwrap();
        let plan = key.compile_plan();
        let mut got = vec![0u32; pes * rows];
        slab.hamming_into(&plan, rows, &mut got);
        assert_eq!(got, reference_distances(&arrays, &plan, rows));
        // The stuck pattern is dense enough that it actually moved some
        // distance away from the fault-free value.
        let (ideal_slab, ideal_arrays) = {
            let mut s = TcamSlab::new(pes, rows, cols);
            let mut ars: Vec<TcamArray> = (0..pes).map(|_| TcamArray::new(rows, cols)).collect();
            for (pe, ar) in ars.iter_mut().enumerate() {
                for row in 0..rows {
                    for col in 0..cols {
                        let v = match (5 * pe + 3 * row + 7 * col) % 3 {
                            0 => TernaryBit::Zero,
                            1 => TernaryBit::One,
                            _ => TernaryBit::X,
                        };
                        s.set_cell(pe, row, col, v);
                        ar.set_cell(row, col, v);
                    }
                }
            }
            (s, ars)
        };
        let mut ideal = vec![0u32; pes * rows];
        ideal_slab.hamming_into(&plan, rows, &mut ideal);
        assert_eq!(ideal, reference_distances(&ideal_arrays, &plan, rows));
        assert_ne!(got, ideal, "seeded stuck cells must perturb distances");
    }
}

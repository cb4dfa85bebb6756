//! Slab-backed TCAM storage: one contiguous bit-plane arena for a whole
//! chunk of PEs, with word-parallel kernels that process 64 PEs per ALU op.
//!
//! [`crate::array::TcamArray`] is one PE: its row-blocks are PE-local,
//! so a machine of 1024 PEs is 1024 separate arrays and every
//! instruction becomes a per-PE loop over `rows / 64`-word slices with a
//! pointer chase between PEs. Real CAM
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
//! The one search/write kernel is
//! [`sweep_program`](TcamSlab::sweep_program): a program of
//! [`SweepOp`]s — search chains OR-accumulated into the tags, then
//! writes under them — is bit-identical to the per-PE [`TcamArray`]
//! search, accumulate and write sequence, and so are the encoder path
//! [`write_encoded_multi`](TcamSlab::write_encoded_multi) and the
//! incremental [`search_narrow_multi`](TcamSlab::search_narrow_multi)
//! (property-tested in `tests/slab_properties.rs`), and
//! [`from_arrays`](TcamSlab::from_arrays) / [`to_arrays`](TcamSlab::to_arrays)
//! convert losslessly in both directions, wear included. The one byte
//! image of a slab is the plane image
//! ([`write_plane_image`](TcamSlab::write_plane_image),
//! [`TagSlab::write_plane`]), which stores the arenas as they are.

use crate::array::TcamArray;
use crate::bit::{KeyBit, TernaryBit};
use crate::fault::{self, FaultError, FaultModel, FaultState, SlabFaultState};
use crate::plane;
use crate::tags::TagVector;
use bytes::{Buf, BufMut};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Bit `s` of every `stride`-th word of `words` (starting at word 0),
/// packed LSB first: one PE lane of up to 64 consecutive plane rows.
#[inline]
fn gather_lane(words: &[u64], stride: usize, s: u32) -> u64 {
    let bit = |(i, &x): (usize, &u64)| (x >> s & 1) << i;
    if stride == 1 {
        // Contiguous rows (chunks of ≤ 64 PEs): a plain OR-reduction the
        // compiler vectorizes.
        words.iter().enumerate().map(bit).fold(0, |a, b| a | b)
    } else {
        words
            .iter()
            .step_by(stride)
            .enumerate()
            .map(bit)
            .fold(0, |a, b| a | b)
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
#[derive(Debug, Clone)]
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
                let m = &m[..pw];
                for (a, b) in self
                    .blocks
                    .chunks_exact_mut(pw)
                    .zip(other.blocks.chunks_exact(pw))
                {
                    for ((a, b), mm) in a.iter_mut().zip(b).zip(m) {
                        *a |= b & mm;
                    }
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
                let m = &m[..pw];
                for (a, b) in self
                    .blocks
                    .chunks_exact_mut(pw)
                    .zip(other.blocks.chunks_exact(pw))
                {
                    for ((a, b), &mm) in a.iter_mut().zip(b).zip(m) {
                        *a = (*a & !mm) | (b & mm);
                    }
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

    /// Append the plane's `rows * pe_words` words, little-endian in memory
    /// order — one tag plane of a checkpoint chunk v2, whose `(pes, rows)`
    /// travel in the storage header ([`TcamSlab::write_plane_image`]).
    pub fn write_plane(&self, out: &mut Vec<u8>) {
        put_words_le(out, &self.blocks);
    }

    /// Read a [`write_plane`](Self::write_plane) plane of a `pes × rows`
    /// slab off the front of `buf`, advancing it.
    ///
    /// # Errors
    ///
    /// [`SlabDecodeError::BadGeometry`] on a zero dimension or a set bit in
    /// the PE padding of a row, [`SlabDecodeError::Truncated`] when `buf`
    /// is short.
    pub fn read_plane(buf: &mut &[u8], pes: usize, rows: usize) -> Result<Self, SlabDecodeError> {
        if pes == 0 || rows == 0 {
            return Err(SlabDecodeError::BadGeometry);
        }
        let pe_mask = plane::pe_mask(pes);
        let n = rows
            .checked_mul(pe_mask.len())
            .ok_or(SlabDecodeError::Truncated)?;
        let blocks = take_words_le(buf, n)?;
        if pe_padding_set(&blocks, &pe_mask) {
            return Err(SlabDecodeError::BadGeometry);
        }
        Ok(TagSlab {
            pes,
            rows,
            pw: pe_mask.len(),
            blocks,
            version: 0,
        })
    }
}

/// Failure modes of [`TcamSlab::read_plane_image`] and
/// [`TagSlab::read_plane`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlabDecodeError {
    /// The buffer is shorter than the header or the payload its header
    /// promises.
    Truncated,
    /// A header dimension is zero or contradicts another, or a bit is set
    /// in the padding of a plane (rows past `rows`, PEs past `pes`, or
    /// columns past `cols` of a wear bitmap).
    BadGeometry,
    /// The fault bookkeeping contradicts the slab: a flag byte other than
    /// 0 or 1, a PE base that overflows, more spares used than the budget,
    /// or a remap, retirement or failure naming a column past the slab's
    /// columns and spares.
    BadFault,
}

impl std::fmt::Display for SlabDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlabDecodeError::Truncated => write!(f, "slab image truncated"),
            SlabDecodeError::BadGeometry => write!(
                f,
                "slab image geometry is inconsistent: a zero or mismatched dimension, \
                 a set padding bit, or a bad wear bitmap"
            ),
            SlabDecodeError::BadFault => write!(f, "slab fault bookkeeping is inconsistent"),
        }
    }
}

impl std::error::Error for SlabDecodeError {}

/// Append `words` as little-endian bytes — the plane images' word codec,
/// a straight copy on little-endian hosts.
fn put_words_le(out: &mut Vec<u8>, words: &[u64]) {
    let at = out.len();
    out.resize(at + words.len() * 8, 0);
    for (dst, w) in out[at..].chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

/// Split the first `n` bytes off `buf`.
fn take_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], SlabDecodeError> {
    if buf.len() < n {
        return Err(SlabDecodeError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Read `n` little-endian words off `buf`. The length is checked against
/// the bytes present before anything is allocated.
fn take_words_le(buf: &mut &[u8], n: usize) -> Result<Vec<u64>, SlabDecodeError> {
    let len = n.checked_mul(8).ok_or(SlabDecodeError::Truncated)?;
    let bytes = take_bytes(buf, len)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            u64::from_le_bytes(w)
        })
        .collect())
}

/// True when any row of a `[row][pe_word]` plane (or a run of them) has a
/// bit set past the live PEs, given the live mask `pe_mask` of one row.
fn pe_padding_set(words: &[u64], pe_mask: &[u64]) -> bool {
    let pw = pe_mask.len();
    let pad = !pe_mask[pw - 1];
    pad != 0 && words.chunks_exact(pw).any(|row| row[pw - 1] & pad != 0)
}

/// Append a slab's fault bookkeeping as big-endian fields: model, PE base,
/// spare budget and epoch, then per PE the spares used, the latched
/// failure, the remap table and the retirement log. Stuck and search
/// masks are not written — they are pure functions of this bookkeeping
/// and are recomputed on decode.
///
/// # Panics
///
/// Panics if the spare budget exceeds `u16::MAX`.
fn put_fault_tail(buf: &mut Vec<u8>, f: &SlabFaultState) {
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
    for pe in 0..f.pes {
        buf.put_u16(f.next_spare[pe]);
        match f.failed[pe] {
            Some((col, wear)) => {
                buf.put_u8(1);
                buf.put_u16(col);
                buf.put_u64(wear);
            }
            None => buf.put_u8(0),
        }
        for &r in &f.remap[pe * f.cols..(pe + 1) * f.cols] {
            buf.put_u16(r);
        }
        buf.put_u16(f.retired[pe].len() as u16);
        for &(col, phys) in &f.retired[pe] {
            buf.put_u16(col);
            buf.put_u16(phys);
        }
    }
}

/// Decode a [`put_fault_tail`] record for a `pes × rows × cols` slab,
/// advancing `buf` past it. Every count is checked against the bytes
/// that remain before it allocates, and the bookkeeping is checked for
/// consistency with the slab so no later kernel can index past it.
fn get_fault_tail(
    buf: &mut &[u8],
    pes: usize,
    rows: usize,
    cols: usize,
) -> Result<SlabFaultState, SlabDecodeError> {
    use SlabDecodeError::{BadFault, Truncated};
    // Fixed part: seed + rates + limit flag.
    if buf.remaining() < 8 + 4 + 4 + 1 {
        return Err(Truncated);
    }
    let seed = buf.get_u64();
    let stuck_per_million = buf.get_u32();
    let miss_per_million = buf.get_u32();
    let endurance_limit = match buf.get_u8() {
        0 => None,
        1 => {
            if buf.remaining() < 8 {
                return Err(Truncated);
            }
            Some(buf.get_u64())
        }
        _ => return Err(BadFault),
    };
    if buf.remaining() < 8 + 2 + 8 {
        return Err(Truncated);
    }
    let pe0 = usize::try_from(buf.get_u64())
        .ok()
        .filter(|p| p.checked_add(pes).is_some())
        .ok_or(BadFault)?;
    let spares = buf.get_u16() as usize;
    let epoch = buf.get_u64();
    // Each PE record takes at least spares-used, a failure flag, the remap
    // table and the log length.
    if buf.remaining() / (2 + 1 + 2 * cols + 2) < pes {
        return Err(Truncated);
    }
    let devices = cols + spares;
    let mut next_spare = Vec::with_capacity(pes);
    let mut failed = Vec::with_capacity(pes);
    let mut remap = Vec::with_capacity(pes * cols);
    let mut retired = Vec::with_capacity(pes);
    for _ in 0..pes {
        if buf.remaining() < 2 + 1 {
            return Err(Truncated);
        }
        let used = buf.get_u16();
        if used as usize > spares {
            return Err(BadFault);
        }
        next_spare.push(used);
        failed.push(match buf.get_u8() {
            0 => None,
            1 => {
                if buf.remaining() < 2 + 8 {
                    return Err(Truncated);
                }
                let (col, wear) = (buf.get_u16(), buf.get_u64());
                if col as usize >= cols {
                    return Err(BadFault);
                }
                Some((col, wear))
            }
            _ => return Err(BadFault),
        });
        if buf.remaining() < cols * 2 + 2 {
            return Err(Truncated);
        }
        for _ in 0..cols {
            let r = buf.get_u16();
            if r as usize >= devices {
                return Err(BadFault);
            }
            remap.push(r);
        }
        // One log entry per spare used.
        let n = buf.get_u16() as usize;
        if n != used as usize {
            return Err(BadFault);
        }
        if buf.remaining() < n * 4 {
            return Err(Truncated);
        }
        let mut log = Vec::with_capacity(n);
        for _ in 0..n {
            let (col, phys) = (buf.get_u16(), buf.get_u16());
            if col as usize >= cols || phys as usize >= devices {
                return Err(BadFault);
            }
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
    Ok(SlabFaultState::restore(
        model, pe0, spares, pes, rows, cols, epoch, next_spare, remap, retired, failed,
    ))
}

/// How a pass of the match core folds its words into the destination.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// `out = base & q`: the first pass of a step.
    Set,
    /// `out &= q`: the next planes of a chain longer than one pass.
    And,
    /// `out |= base & q`: one more plan OR-ed into the step's match.
    Or,
}

/// One vectorizable word loop of the match core: fold the match words
/// `q(i)` into `out` per `fold`, with `base` (`None` = every lane)
/// limiting the fresh matches. Returns the OR of `out`'s resulting words,
/// so `0` means the plane is empty and a step's writes can be skipped.
#[inline(always)]
fn fold_words(out: &mut [u64], base: Option<&[u64]>, fold: Fold, q: impl Fn(usize) -> u64) -> u64 {
    let n = out.len();
    let mut any = 0u64;
    match (fold, base) {
        (Fold::Set, None) => {
            for (i, d) in out.iter_mut().enumerate() {
                *d = q(i);
                any |= *d;
            }
        }
        (Fold::Set, Some(b)) => {
            let b = &b[..n];
            for (i, d) in out.iter_mut().enumerate() {
                *d = b[i] & q(i);
                any |= *d;
            }
        }
        (Fold::And, _) => {
            for (i, d) in out.iter_mut().enumerate() {
                *d &= q(i);
                any |= *d;
            }
        }
        (Fold::Or, None) => {
            for (i, d) in out.iter_mut().enumerate() {
                *d |= q(i);
                any |= *d;
            }
        }
        (Fold::Or, Some(b)) => {
            let b = &b[..n];
            for (i, d) in out.iter_mut().enumerate() {
                *d |= b[i] & q(i);
                any |= *d;
            }
        }
    }
    any
}

/// Word `i` of the product `Π !pₖ` of `K` miss planes (all ones for
/// `K == 0`).
#[inline(always)]
fn product<const K: usize>(p: &[&[u64]; K], i: usize) -> u64 {
    let mut m = !0u64;
    for pk in p {
        m &= !pk[i];
    }
    m
}

/// Whole-plane match core for one plan resolved to exactly `K` *miss
/// planes*: bit-line planes whose set bits rule a lane out. A `Zero` entry
/// misses where the cell stores one (`ones[col]`), a `One` entry where it
/// stores zero (`zeros[col]`), and a `Z` entry contributes **two** planes
/// (`zeros[col]` and `ones[col]`), so a plan's match is `base & Π !pₖ`
/// and every plane is loaded exactly once. Monomorphized per `K`, so each
/// pass is one branch-free vector loop; returns what [`fold_words`] does.
fn match_plane<const K: usize>(
    out: &mut [u64],
    base: Option<&[u64]>,
    fold: Fold,
    e: &[&[u64]; K],
) -> u64 {
    let n = out.len();
    let p: [&[u64]; K] = std::array::from_fn(|k| &e[k][..n]);
    fold_words(out, base, fold, |i| product(&p, i))
}

/// Two-plan variant of [`match_plane`]: folds `base & (q₁ | q₂)`, with
/// `qᵢ` plan `i`'s miss-plane product, in one pass: the OR of two searches
/// that makes up most compiled arithmetic micro-code.
fn match2_plane<const K1: usize, const K2: usize>(
    out: &mut [u64],
    base: Option<&[u64]>,
    fold: Fold,
    e1: &[&[u64]; K1],
    e2: &[&[u64]; K2],
) -> u64 {
    let n = out.len();
    let p1: [&[u64]; K1] = std::array::from_fn(|k| &e1[k][..n]);
    let p2: [&[u64]; K2] = std::array::from_fn(|k| &e2[k][..n]);
    fold_words(out, base, fold, |i| product(&p1, i) | product(&p2, i))
}

/// [`match_plane`] over the first `k ≤ 4` planes of `e`.
fn pass1(out: &mut [u64], base: Option<&[u64]>, fold: Fold, e: &[&[u64]; 4], k: usize) -> u64 {
    match k {
        0 => match_plane::<0>(out, base, fold, &[]),
        1 => match_plane::<1>(out, base, fold, (&e[..1]).try_into().unwrap()),
        2 => match_plane::<2>(out, base, fold, (&e[..2]).try_into().unwrap()),
        3 => match_plane::<3>(out, base, fold, (&e[..3]).try_into().unwrap()),
        4 => match_plane::<4>(out, base, fold, e),
        _ => unreachable!("a pass takes at most four miss planes"),
    }
}

/// [`match2_plane`] over the first `k1` planes of `e1` and `k2` of `e2`,
/// both in `1..=4`.
fn pass2(
    out: &mut [u64],
    base: Option<&[u64]>,
    fold: Fold,
    (e1, k1): (&[&[u64]; 4], usize),
    (e2, k2): (&[&[u64]; 4], usize),
) -> u64 {
    macro_rules! m2 {
        ($(($ka:literal, $kb:literal)),+ $(,)?) => {
            match (k1, k2) {
                $(($ka, $kb) => match2_plane::<$ka, $kb>(
                    out,
                    base,
                    fold,
                    (&e1[..$ka]).try_into().unwrap(),
                    (&e2[..$kb]).try_into().unwrap(),
                ),)+
                _ => unreachable!("a paired pass takes one to four planes per plan"),
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

/// Fold `k` miss planes into `out` in passes of up to four, fetching
/// planes `i..i + 4` as `group(i)`: the first pass per `fold`, the rest
/// narrowing (`And`). `k == 0` is one plane-free pass (the base itself).
/// Returns the last pass's OR of `out`.
fn fold_chain<'a>(
    out: &mut [u64],
    base: Option<&[u64]>,
    mut fold: Fold,
    group: impl Fn(usize) -> [&'a [u64]; 4],
    k: usize,
) -> u64 {
    let mut done = 0;
    loop {
        let g = (k - done).min(4);
        let any = pass1(out, base, fold, &group(done), g);
        done += g;
        if done == k {
            return any;
        }
        fold = Fold::And;
    }
}

/// Blend a selected step's fresh match `buf` into the selected lanes of
/// `tags` (OR-ed into them when `acc`), leaving the step's write tags,
/// `(acc ? tags | match : match) & sel`, in `buf`. `sel` is the selection
/// replicated to a whole plane. Returns the OR of the write tags.
fn blend_selected(tags: &mut [u64], buf: &mut [u64], sel: &[u64], acc: bool) -> u64 {
    let keep = if acc { !0 } else { 0 };
    let mut any = 0u64;
    for ((t, b), &m) in tags.iter_mut().zip(buf.iter_mut()).zip(sel) {
        let s = ((*t & keep) | *b) & m;
        *t = (*t & !m) | s;
        *b = s;
        any |= s;
    }
    any
}

/// What the match core resolves plans against: a slab's bit-line arenas
/// and their per-column [`PlaneSummary`] caches.
///
/// A `Zero` plan entry misses on `ones[col]`, a `One` entry on
/// `zeros[col]` and a `Z` entry on both; masked and out-of-range entries
/// miss on none. The summaries prune every step: an `AllZero` miss plane
/// rules nothing out and drops from the product chain (one plane less
/// streamed per word), while a `Full` miss plane (`plane == live`) vetoes
/// every live lane, so its whole plan is *dead* and matches nothing. Both
/// hold for any base inside the live lanes, so pruning is exact under
/// faults and selections too.
#[derive(Clone, Copy)]
struct MissPlanes<'a> {
    zeros: &'a [u64],
    ones: &'a [u64],
    zsum: &'a [PlaneSummary],
    osum: &'a [PlaneSummary],
    cols: usize,
    plane: usize,
}

impl<'a> MissPlanes<'a> {
    /// `None` when `plan` is dead, else how many live miss planes a pass
    /// has to load for it. Reads only the summaries.
    fn resolve(self, plan: &[(usize, KeyBit)]) -> Option<usize> {
        let mut k = 0;
        for &(c, bit) in plan.iter().filter(|&&(c, _)| c < self.cols) {
            for (hit, summary) in [
                (matches!(bit, KeyBit::One | KeyBit::Z), self.zsum[c]),
                (matches!(bit, KeyBit::Zero | KeyBit::Z), self.osum[c]),
            ] {
                match summary {
                    _ if !hit => {}
                    PlaneSummary::AllZero => {}
                    PlaneSummary::Unknown => k += 1,
                    PlaneSummary::Full => return None,
                }
            }
        }
        Some(k)
    }

    /// Live miss planes `skip..skip + 4` of `plan`, in entry order, as a
    /// pass takes them.
    fn gather(self, plan: &[(usize, KeyBit)], skip: usize) -> [&'a [u64]; 4] {
        let mut e = [EMPTY; 4];
        let mut k = 0;
        for &(c, bit) in plan.iter().filter(|&&(c, _)| c < self.cols) {
            for (hit, arena, summary) in [
                (
                    matches!(bit, KeyBit::One | KeyBit::Z),
                    self.zeros,
                    self.zsum[c],
                ),
                (
                    matches!(bit, KeyBit::Zero | KeyBit::Z),
                    self.ones,
                    self.osum[c],
                ),
            ] {
                if hit && summary == PlaneSummary::Unknown {
                    if (skip..skip + 4).contains(&k) {
                        e[k - skip] = &arena[c * self.plane..(c + 1) * self.plane];
                    }
                    k += 1;
                }
            }
        }
        e
    }

    /// The match core of every sweep step: fold `base & ⋁ᵢ match(planᵢ)`
    /// into `out`, replacing it (`Set`) or OR-ing into it (`Or`).
    ///
    /// Plans of up to four live planes run two to a pass; a longer chain
    /// folds in passes of four, narrowing `out` in place when it opens the
    /// step and a head in `head` otherwise, OR-ed in with the chain's last
    /// planes. An empty plan matches every base lane, and so does the whole
    /// OR. Returns `None` when no plan is live (`out` untouched), else the
    /// OR of `out`'s words.
    fn match_into(
        self,
        plans: &[&[(usize, KeyBit)]],
        base: Option<&[u64]>,
        mut fold: Fold,
        out: &mut [u64],
        head: &mut Vec<u64>,
    ) -> Option<u64> {
        let mut any = None;
        let mut pending = None;
        for &plan in plans {
            let a = match self.resolve(plan) {
                None => continue,
                Some(0) => return Some(pass1(out, base, fold, &[EMPTY; 4], 0)),
                Some(k) if k > 4 => {
                    let group = |skip| self.gather(plan, skip);
                    if fold == Fold::Set {
                        fold_chain(out, base, fold, group, k)
                    } else {
                        let split = (k - 1) / 4 * 4;
                        head.resize(out.len(), 0);
                        fold_chain(head, base, Fold::Set, group, split);
                        let tail = |skip| self.gather(plan, split + skip);
                        fold_chain(out, Some(head.as_slice()), fold, tail, k - split)
                    }
                }
                Some(k) => match pending.take() {
                    Some((first, k1)) => {
                        let e1 = (&self.gather(first, 0), k1);
                        pass2(out, base, fold, e1, (&self.gather(plan, 0), k))
                    }
                    None => {
                        pending = Some((plan, k));
                        continue;
                    }
                },
            };
            any = Some(a);
            fold = Fold::Or;
        }
        if let Some((plan, k)) = pending {
            any = Some(pass1(out, base, fold, &self.gather(plan, 0), k));
        }
        any
    }
}

/// Program `value` into one column's bit-planes under `tags` — the raw
/// store loop of [`TcamSlab::write_plane`]. A function of its own so the
/// two planes arrive as distinct `&mut` slices, which lets the loop
/// vectorize without aliasing checks.
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

/// One fused search/write step of a [`TcamSlab::sweep_program`] batch: OR
/// the matches of `plans` (into the existing tags when `acc`), then
/// program every `(column, value)` of `writes` under the resulting tags.
/// A search is one plan and no writes; a write under the tags as they
/// stand is no plans, `acc = true`.
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
#[derive(Debug, Clone)]
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

    #[inline]
    fn touch(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// Reset the slab to its as-constructed state — every cell `0`, wear
    /// cleared — without reallocating the arenas. The result is
    /// indistinguishable from a fresh [`new`](Self::new) slab (plus
    /// [`attach_fault`](Self::attach_fault) when a fault model is
    /// attached) — the serving layer's scrub-on-assign isolation guarantee
    /// rests on this.
    ///
    /// The cost is proportional to what was written since the slab was
    /// last fresh: only columns whose plane summaries are not already
    /// `(zeros Full, ones AllZero)` are rewritten (summaries are exact
    /// after decode and conservative everywhere else, so a fresh summary
    /// proves a fresh plane), and a wear column is zeroed only where it is
    /// non-zero (a write of `0` keeps the summaries fresh but still wears
    /// the column). A fault-attached slab takes the full path instead:
    /// every plane and wear counter is rewritten and the fault model is
    /// re-seeded from scratch (same model, same global PE base, same spare
    /// budget), so remaps, retirements, the latched failure and the epoch
    /// return to their initial values and the initial devices' stuck bits
    /// are re-enforced on the cleared storage.
    pub fn reset(&mut self) {
        self.touch();
        let plane = self.rows * self.pw;
        let full = self.fault.is_some();
        for c in 0..self.cols {
            if full || (self.zsum[c], self.osum[c]) != (PlaneSummary::Full, PlaneSummary::AllZero) {
                self.ones[c * plane..(c + 1) * plane].fill(0);
                self.zeros[c * plane..(c + 1) * plane].copy_from_slice(&self.live);
            }
            let wear = &mut self.wear[c * self.pes..(c + 1) * self.pes];
            if full || wear.iter().any(|&w| w != 0) {
                wear.fill(0);
            }
        }
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
    #[inline]
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
            None => fault::enforce_stuck(zeros, ones, s0, s1),
            Some(m) => {
                let pw = self.pw;
                let m = &m[..pw];
                let rows = zeros
                    .chunks_exact_mut(pw)
                    .zip(ones.chunks_exact_mut(pw))
                    .zip(s0.chunks_exact(pw).zip(s1.chunks_exact(pw)));
                for ((zeros, ones), (s0, s1)) in rows {
                    let words = zeros.iter_mut().zip(ones).zip(s0.iter().zip(s1));
                    for (((z, o), (&s0, &s1)), &mm) in words.zip(m) {
                        let a0 = s0 & mm;
                        let a1 = s1 & mm;
                        let s = a0 | a1;
                        *z = (*z & !s) | a0;
                        *o = (*o & !s) | a1;
                    }
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
    #[inline]
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

    /// Write one cell directly (host data-load path; no wear): one load
    /// and one store per plane, with the stuck-at override applied in
    /// registers.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set_cell(&mut self, pe: usize, row: usize, col: usize, value: TernaryBit) {
        assert!(
            pe < self.pes && row < self.rows && col < self.cols,
            "cell out of range"
        );
        let idx = col * self.plane_words() + row * self.pw + pe / 64;
        let m = 1u64 << (pe % 64);
        self.touch();
        self.note_write_summary(col, value);
        let (mut z, mut o) = (self.zeros[idx] & !m, self.ones[idx] & !m);
        match value {
            TernaryBit::Zero => z |= m,
            TernaryBit::One => o |= m,
            TernaryBit::X => {}
        }
        if let Some(f) = &self.fault {
            // The stuck override can set either plane regardless of `value`;
            // stuck-at-0 wins where both masks are set.
            self.zsum[col] = PlaneSummary::Unknown;
            self.osum[col] = PlaneSummary::Unknown;
            let s0 = f.stuck0[idx] & m;
            let s1 = f.stuck1[idx] & m & !s0;
            z = (z & !s1) | s0;
            o = (o & !s0) | s1;
        }
        self.zeros[idx] = z;
        self.ones[idx] = o;
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
                    let m = &m[..pw];
                    let rows = zeros
                        .chunks_exact_mut(pw)
                        .zip(ones.chunks_exact_mut(pw))
                        .zip(latch.chunks_exact(pw).zip(tags.chunks_exact(pw)));
                    for ((zeros, ones), (latch, tags)) in rows {
                        let words = zeros.iter_mut().zip(ones).zip(latch.iter().zip(tags));
                        for (((z, o), (&h, &t)), &mm) in words.zip(m) {
                            *z = (*z & !mm) | (h & !t & mm);
                            *o = (*o & !mm) | (h & t & mm);
                        }
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
                    let m = &m[..pw];
                    let rows = zeros
                        .chunks_exact_mut(pw)
                        .zip(ones.chunks_exact_mut(pw))
                        .zip(latch.chunks_exact(pw).zip(tags.chunks_exact(pw)))
                        .zip(self.live.chunks_exact(pw));
                    for (((zeros, ones), (latch, tags)), live) in rows {
                        let words = zeros
                            .iter_mut()
                            .zip(ones)
                            .zip(latch.iter().zip(tags))
                            .zip(live);
                        for ((((z, o), (&h, &t)), &l), &mm) in words.zip(m) {
                            *z = (*z & !mm) | (!h & !t & l & mm);
                            *o = (*o & !mm) | (!h & t & mm);
                        }
                    }
                }
            }
        }
        for c in [col, col + 1] {
            self.note_wear(c, sel);
            self.enforce_stuck_col(c, sel);
        }
    }

    /// Execute a program of fused search/write steps. Each [`SweepOp`]
    /// runs as one call of the match core and then its writes: every plan
    /// is searched and OR-ed into the selected PEs' tags (cleared first
    /// unless `acc`), then every `(column, value)` of `writes` is
    /// programmed, in order, under the selected lanes of those tags. The
    /// whole program is bit-identical to that per-PE [`TcamArray`]
    /// sequence (property-tested in `tests/slab_properties.rs`). Searches
    /// complete before stores, so a write column may appear in a plan.
    /// Masked or out-of-range plan entries are skipped.
    ///
    /// Every step takes the same path, whatever its plan count, plan width,
    /// fault model or selection:
    /// - Searches start from the live lanes, minus this epoch's transient
    ///   misses when a fault model is attached; a fault-free slab of whole
    ///   64-PE words needs no base mask at all.
    /// - The per-column `PlaneSummary` caches prune the work: `AllZero`
    ///   miss planes drop out of the product chains and a `Full` miss plane
    ///   kills its whole plan.
    /// - Without a selection the match lands in `tags` directly. A step
    ///   whose tags are provably (or measured) all zero skips its write
    ///   RMWs, and a chain of dead steps skips the refills too.
    /// - Under a selection the match is blended into the selected lanes
    ///   only, and the writes run under `match & sel` (`(tags | match) &
    ///   sel` when `acc`).
    ///
    /// The elisions are exact: an all-zero tag plane drives no store. Wear
    /// is noted once per write column per step and selected PE, whatever
    /// the tags say (the column driver fires per PE per write, as in
    /// [`TcamArray::write_column`]), and under faults every written column
    /// is clamped to its stuck cells once per step.
    ///
    /// `tags` is a full `[row][pe_word]` plane (e.g.
    /// [`TagSlab::words_mut`]).
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
        let sel = sel.map(|m| &m[..self.pw]);
        // The selection replicated to every row, for the blend.
        let sel_plane: Option<Vec<u64>> =
            sel.map(|m| m.iter().copied().cycle().take(plane).collect());
        let full = self.pes.is_multiple_of(64);
        // A selected step's match, then its write tags; the head of an
        // OR-ed chain longer than one pass.
        let (mut buf, mut head) = (Vec::new(), Vec::new());
        // Whether `tags` is *known* all-zero — lets a chain of dead steps
        // skip both the refill and the write RMWs without re-reading the
        // plane. `false` means "unknown", never "known non-zero".
        let mut tags_zero = false;
        for op in ops {
            for &(col, _) in op.writes {
                assert!(col < self.cols, "column out of range");
                self.note_wear(col, sel);
            }
            let planes = self.miss_planes();
            let base = (self.fault.is_some() || !full).then(|| self.search_base());
            let any = match sel_plane.as_deref() {
                None => {
                    let fold = if op.acc { Fold::Or } else { Fold::Set };
                    match planes.match_into(op.plans, base, fold, tags, &mut head) {
                        Some(any) => any,
                        // Write under the tags as they stand.
                        None if op.acc => {
                            if tags_zero || op.writes.is_empty() {
                                0
                            } else {
                                tags.iter().fold(0, |a, &w| a | w)
                            }
                        }
                        None => {
                            if !tags_zero {
                                tags.fill(0);
                            }
                            0
                        }
                    }
                }
                Some(m) => {
                    buf.resize(plane, 0);
                    if planes
                        .match_into(op.plans, base, Fold::Set, &mut buf, &mut head)
                        .is_none()
                    {
                        buf.fill(0);
                    }
                    blend_selected(tags, &mut buf, m, op.acc)
                }
            };
            if sel.is_none() {
                if !op.acc {
                    tags_zero = any == 0;
                } else if any != 0 {
                    tags_zero = false;
                }
            }
            if any != 0 {
                let write_tags: &[u64] = if sel.is_some() { &buf } else { tags };
                for &(col, value) in op.writes {
                    self.write_plane(col, value, write_tags);
                }
            }
            if self.fault.is_some() {
                // Stuck enforcement is idempotent and searches complete
                // before stores, so enforcing once per written column at
                // step end equals enforcing after every store.
                for &(col, _) in op.writes {
                    self.enforce_stuck_col(col, sel);
                }
            }
        }
    }

    /// The plans' view of this slab for the match core.
    fn miss_planes(&self) -> MissPlanes<'_> {
        MissPlanes {
            zeros: &self.zeros,
            ones: &self.ones,
            zsum: &self.zsum,
            osum: &self.osum,
            cols: self.cols,
            plane: self.plane_words(),
        }
    }

    /// Incremental search over the selected PEs: narrow `out`'s existing
    /// contents by `plan` — the match core with the current tags as its
    /// base — instead of starting from the live lanes as a search step of
    /// [`sweep_program`](Self::sweep_program) does. This is the slab kernel
    /// behind the trace peephole's `SearchDelta` micro-op, sound when `out`
    /// already holds the match of a still-valid plan prefix. The plan
    /// resolves against the plane summaries like any sweep step, so a
    /// `Full` miss plane clears the selected lanes. Unselected lanes are
    /// untouched.
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
        let planes = self.miss_planes();
        let k = planes.resolve(plan);
        if k == Some(0) {
            return;
        }
        // Narrowing only clears bits: keep the unselected lanes aside,
        // narrow the whole plane, and OR them back.
        let kept: Option<Vec<u64>> = sel.map(|m| {
            let m = &m[..self.pw];
            out.chunks_exact(self.pw)
                .flat_map(|row| row.iter().zip(m).map(|(&o, &m)| o & !m))
                .collect()
        });
        match k {
            Some(k) => {
                fold_chain(out, None, Fold::And, |skip| planes.gather(plan, skip), k);
            }
            // A `Full` miss plane rules out every lane.
            None => out.fill(0),
        }
        if let Some(kept) = kept {
            for (o, k) in out.iter_mut().zip(kept) {
                *o |= k;
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
    /// Each 64-row block of each column is one branch-free gather of lane
    /// `pe % 64` over the block's plane words, written straight into the
    /// array's arenas.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    pub fn to_array(&self, pe: usize) -> TcamArray {
        assert!(pe < self.pes, "PE out of range");
        let (pw, plane) = (self.pw, self.plane_words());
        let (w, s) = (pe / 64, (pe % 64) as u32);
        let n = self.cols * self.rows.div_ceil(64);
        let (mut zeros, mut ones) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (src, dst) in [(&self.zeros, &mut zeros), (&self.ones, &mut ones)] {
            for col_plane in src.chunks_exact(plane) {
                // Row `r`'s word for this PE is `col_plane[r * pw + w]`.
                for block in col_plane[w..].chunks(64 * pw) {
                    dst.push(gather_lane(block, pw, s));
                }
            }
        }
        let wear = self.pe_wear(pe);
        let fault = self.fault.as_ref().map(|f| Box::new(f.to_array(pe)));
        TcamArray::from_parts(self.rows, self.cols, zeros, ones, wear, fault)
    }

    /// Extract every PE as standalone arrays — the inverse of
    /// [`from_arrays`](Self::from_arrays).
    pub fn to_arrays(&self) -> Vec<TcamArray> {
        (0..self.pes).map(|pe| self.to_array(pe)).collect()
    }

    /// Append the plane image: the storage layout of a checkpoint chunk
    /// v2. It is a `(pes, rows, cols, pe_words)` header of little-endian
    /// `u32`s, then the `zeros` and `ones` arenas as little-endian words in
    /// their in-memory `[col][row][pe_word]` order, then wear as a
    /// `cols.div_ceil(64)`-word bitmap of the columns with any nonzero
    /// counter followed by only those columns' `pes` counters, then a fault
    /// flag byte and, when it is 1, the fault bookkeeping tail. There is
    /// no transpose: both directions are word copies.
    ///
    /// # Panics
    ///
    /// Panics if a dimension exceeds `u32::MAX`.
    pub fn write_plane_image(&self, out: &mut Vec<u8>) {
        for dim in [self.pes, self.rows, self.cols, self.pw] {
            let dim = u32::try_from(dim).expect("dimension exceeds image format");
            out.extend_from_slice(&dim.to_le_bytes());
        }
        out.reserve(16 * self.zeros.len() + 8 * self.cols.div_ceil(64));
        put_words_le(out, &self.zeros);
        put_words_le(out, &self.ones);
        let worn: Vec<bool> = self
            .wear
            .chunks_exact(self.pes)
            .map(|col| col.iter().any(|&w| w != 0))
            .collect();
        let mut bitmap = vec![0u64; self.cols.div_ceil(64)];
        for (c, _) in worn.iter().enumerate().filter(|(_, &w)| w) {
            bitmap[c / 64] |= 1u64 << (c % 64);
        }
        put_words_le(out, &bitmap);
        for (col, _) in self
            .wear
            .chunks_exact(self.pes)
            .zip(&worn)
            .filter(|(_, &w)| w)
        {
            put_words_le(out, col);
        }
        match &self.fault {
            Some(f) => {
                out.push(1);
                put_fault_tail(out, f);
            }
            None => out.push(0),
        }
    }

    /// Read a [`write_plane_image`](Self::write_plane_image) image off the
    /// front of `buf`, advancing it. Every length is checked against the
    /// bytes that remain before anything is allocated.
    ///
    /// # Errors
    ///
    /// [`SlabDecodeError::Truncated`] when `buf` is short;
    /// [`SlabDecodeError::BadGeometry`] on a zero dimension, a `pe_words`
    /// that is not `pes.div_ceil(64)`, a set bit in the PE padding of a
    /// plane or past `cols` in the wear bitmap, or a listed wear column
    /// whose counters are all zero (so every slab has exactly one image);
    /// [`SlabDecodeError::BadFault`] on inconsistent fault bookkeeping.
    pub fn read_plane_image(buf: &mut &[u8]) -> Result<Self, SlabDecodeError> {
        use SlabDecodeError::{BadFault, BadGeometry, Truncated};
        let head = take_bytes(buf, 16)?;
        let dim = |i: usize| {
            let mut w = [0u8; 4];
            w.copy_from_slice(&head[4 * i..4 * i + 4]);
            u32::from_le_bytes(w) as usize
        };
        let (pes, rows, cols, pw) = (dim(0), dim(1), dim(2), dim(3));
        if pes == 0 || rows == 0 || cols == 0 || pw != pes.div_ceil(64) {
            return Err(BadGeometry);
        }
        let arena = cols
            .checked_mul(rows)
            .and_then(|n| n.checked_mul(pw))
            .ok_or(Truncated)?;
        let zeros = take_words_le(buf, arena)?;
        let ones = take_words_le(buf, arena)?;
        let pe_mask = plane::pe_mask(pes);
        if pe_padding_set(&zeros, &pe_mask) || pe_padding_set(&ones, &pe_mask) {
            return Err(BadGeometry);
        }
        let bitmap = take_words_le(buf, cols.div_ceil(64))?;
        if cols % 64 != 0 && bitmap[cols / 64] >> (cols % 64) != 0 {
            return Err(BadGeometry);
        }
        let listed = bitmap
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>();
        let counters = take_words_le(buf, listed.checked_mul(pes).ok_or(Truncated)?)?;
        // `cols * pes` is at most 64 words per arena word already read.
        let mut wear = vec![0u64; cols * pes];
        let set_cols = (0..cols).filter(|c| bitmap[c / 64] >> (c % 64) & 1 == 1);
        for (c, src) in set_cols.zip(counters.chunks_exact(pes)) {
            if src.iter().all(|&w| w == 0) {
                return Err(BadGeometry);
            }
            wear[c * pes..(c + 1) * pes].copy_from_slice(src);
        }
        let fault = match take_bytes(buf, 1)?[0] {
            0 => None,
            1 => Some(Box::new(get_fault_tail(buf, pes, rows, cols)?)),
            _ => return Err(BadFault),
        };
        let live = pe_mask.repeat(rows);
        let mut slab = TcamSlab {
            pes,
            rows,
            cols,
            pw,
            zeros,
            ones,
            pe_mask,
            live,
            wear,
            fault,
            zsum: vec![PlaneSummary::Unknown; cols],
            osum: vec![PlaneSummary::Unknown; cols],
            version: 0,
        };
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

/// Candidate words one counter block covers. A block's distance counters
/// stay in locals while every surviving miss plane streams past them:
/// four words is one 256-bit register per counter plane. Eight-word
/// blocks measured no faster on an AVX-512 host.
const LANES: usize = 4;

/// Miss planes one Harley–Seal group reduces before it flushes its
/// weight-16 carry into the high counter planes.
const CSA_GROUP: usize = 16;

/// Low counter planes the Harley–Seal chain keeps as residues (the
/// ones/twos/fours/eights of weights 1, 2, 4 and 8).
const RESIDUES: usize = 4;

/// High counter planes (weights 16 and up) a block can hold: enough for
/// any `u32` distance.
const HIGH_MAX: usize = u32::BITS as usize - RESIDUES;

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
}

/// The miss planes of one query that survive `PlaneSummary` pruning.
struct DistanceSources<'a> {
    /// Miss planes as stored: the `ones` plane of a key `0`, the `zeros`
    /// plane of a key `1`.
    singles: Vec<[&'a [u64]; 1]>,
    /// The `zeros` and `ones` planes of a `Z` key, ORed as they are loaded.
    pairs: Vec<[&'a [u64]; 2]>,
    /// Pruned `Full` miss planes: distance every live candidate has.
    base: u32,
    /// Maximum possible distance (in-range unmasked plan entries).
    active: u32,
    /// Words per miss plane (`rows * pe_words`).
    words: usize,
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

/// The distance counters of one [`LANES`]-word block in carry-save form:
/// a lane's count is `ones + 2·twos + 4·fours + 8·eights` plus
/// `2^(RESIDUES + h)` for every set bit of `high[h]`. Every residue weighs
/// less than 16, so the residues *are* the count's low bit-planes and
/// `high` its upper ones: the stack is complete after every step, and no
/// final add is needed. The residues are plain fields so they stay in
/// registers while the planes stream past; `high` changes once per group.
struct CounterBlock<'h> {
    ones: Lanes,
    twos: Lanes,
    fours: Lanes,
    eights: Lanes,
    /// Weight-16-and-up planes.
    high: &'h mut [Lanes],
}

impl<'h> CounterBlock<'h> {
    /// A block whose every lane starts at the uniform count `base`, with
    /// `high` holding its upper planes.
    #[inline(always)]
    fn new(base: u32, high: &'h mut [Lanes]) -> Self {
        let splat = |b: usize| [0u64.wrapping_sub(u64::from((base >> b) & 1)); LANES];
        for (h, plane) in high.iter_mut().enumerate() {
            *plane = splat(RESIDUES + h);
        }
        CounterBlock {
            ones: splat(0),
            twos: splat(1),
            fours: splat(2),
            eights: splat(3),
            high,
        }
    }

    /// Add one weight-16 plane into the high counter planes.
    #[inline(always)]
    fn flush(&mut self, mut carry: Lanes) {
        for h in self.high.iter_mut() {
            (*h, carry) = half_add(*h, carry);
        }
        // Counts never exceed `active < 2^bplanes`.
        debug_assert_eq!(carry, [0; LANES], "counter stack overflow");
    }

    /// Count one miss plane: a ripple through the residues into `high`.
    #[inline(always)]
    fn add1(&mut self, mut carry: Lanes) {
        for r in [
            &mut self.ones,
            &mut self.twos,
            &mut self.fours,
            &mut self.eights,
        ] {
            (*r, carry) = half_add(*r, carry);
        }
        self.flush(carry);
    }

    /// Count [`CSA_GROUP`] miss planes with the Harley–Seal carry-save
    /// chain: pairs of planes fold into the ones, pairs of twos-carries
    /// into the twos, and so on up to one weight-16 carry per group.
    #[inline(always)]
    fn add16(&mut self, x: impl Fn(usize) -> Lanes) {
        let mut eights_in = [[0; LANES]; 2];
        for (h, e) in eights_in.iter_mut().enumerate() {
            let mut fours_in = [[0; LANES]; 2];
            for (q, f) in fours_in.iter_mut().enumerate() {
                let mut twos_in = [[0; LANES]; 2];
                for (p, t) in twos_in.iter_mut().enumerate() {
                    let i = 8 * h + 4 * q + 2 * p;
                    (self.ones, *t) = full_add(self.ones, x(i), x(i + 1));
                }
                (self.twos, *f) = full_add(self.twos, twos_in[0], twos_in[1]);
            }
            (self.fours, *e) = full_add(self.fours, fours_in[0], fours_in[1]);
        }
        let sixteens;
        (self.eights, sixteens) = full_add(self.eights, eights_in[0], eights_in[1]);
        self.flush(sixteens);
    }

    /// Count every miss plane of `srcs`; the miss plane of an entry is the
    /// OR of its `N` planes, each read through `load`.
    #[inline(always)]
    fn add_all<const N: usize>(&mut self, srcs: &[[&[u64]; N]], load: impl Fn(&[u64]) -> Lanes) {
        let miss = |p: &[&[u64]; N]| -> Lanes {
            p[1..].iter().fold(load(p[0]), |m, s| {
                let l = load(s);
                std::array::from_fn(|i| m[i] | l[i])
            })
        };
        let (groups, rest) = srcs.as_chunks::<CSA_GROUP>();
        for g in groups {
            self.add16(|i| miss(&g[i]));
        }
        for p in rest {
            self.add1(miss(p));
        }
    }

    /// Write the block's counter planes to words `w0..w0 + LANES` of
    /// each `stride`-word plane of `planes`.
    #[inline(always)]
    fn store(&self, planes: &mut [u64], stride: usize, w0: usize) {
        let mut out = planes.chunks_exact_mut(stride);
        for r in [&self.ones, &self.twos, &self.fours, &self.eights] {
            match out.next() {
                Some(plane) => plane[w0..w0 + LANES].copy_from_slice(r),
                None => debug_assert_eq!(*r, [0; LANES], "counter stack overflow"),
            }
        }
        for (plane, h) in out.zip(self.high.iter()) {
            plane[w0..w0 + LANES].copy_from_slice(h);
        }
    }
}

impl HammingCounters {
    /// Sum the surviving miss planes of `src` onto its uniform base into
    /// a fresh stack of enough bit-planes for the maximum distance. The
    /// loop is block-outer: each [`LANES`]-word block walks every miss
    /// plane with its counters in a [`CounterBlock`], summing groups of
    /// [`CSA_GROUP`] planes by carry-save and rippling the leftovers one
    /// at a time, and writes its stack out once. A `Z` key's two planes
    /// are ORed as they are loaded. No step branches on data.
    fn accumulate(src: &DistanceSources) -> Self {
        let DistanceSources {
            ref singles,
            ref pairs,
            base,
            active,
            words,
        } = *src;
        let bplanes = (u32::BITS - active.leading_zeros()) as usize;
        let stride = Self::stride(words);
        let mut high = [[0; LANES]; HIGH_MAX];
        let high = &mut high[..bplanes.saturating_sub(RESIDUES)];
        let mut planes = vec![0u64; bplanes * stride];
        for w0 in (0..words).step_by(LANES) {
            let mut block = CounterBlock::new(base, high);
            if w0 + LANES <= words {
                let load =
                    |s: &[u64]| -> Lanes { s[w0..w0 + LANES].try_into().expect("whole block") };
                block.add_all(singles, load);
                block.add_all(pairs, load);
            } else {
                // The ragged last block, zero-padded past `words`.
                let load = |s: &[u64]| -> Lanes {
                    std::array::from_fn(|i| s.get(w0 + i).copied().unwrap_or(0))
                };
                block.add_all(singles, load);
                block.add_all(pairs, load);
            }
            block.store(&mut planes, stride, w0);
        }
        HammingCounters {
            planes,
            bplanes,
            words,
            stride,
            active,
        }
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

    /// Distances of all 64 candidates at plane word `w`: one pass over
    /// the stack that spreads each plane's bits across the lanes.
    fn values_into(&self, w: usize, values: &mut [u32; 64]) {
        *values = [0; 64];
        for b in 0..self.bplanes {
            let x = self.planes[b * self.stride + w];
            for (p, v) in values.iter_mut().enumerate() {
                *v |= (((x >> p) & 1) as u32) << b;
            }
        }
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
    /// The miss planes of `plan` over the first `rows` rows that survive
    /// pruning, and the uniform base the pruned ones add.
    ///
    /// Column pruning reuses the [`PlaneSummary`] caches: an `AllZero`
    /// miss plane contributes nothing and is skipped outright; a `Full`
    /// miss plane misses on *every* live candidate and joins a uniform
    /// base the stack starts from — neither ever enters the adder.
    fn distance_sources(&self, plan: &[(usize, KeyBit)], rows: usize) -> DistanceSources<'_> {
        assert!(rows <= self.rows, "row limit exceeds slab");
        let words = rows * self.pw;
        let plane = self.plane_words();
        let zeros = |c: usize| &self.zeros[c * plane..c * plane + words];
        let ones = |c: usize| &self.ones[c * plane..c * plane + words];
        // Miss plane per surviving column: the `ones` plane for a key `0`,
        // the `zeros` plane for a key `1`. A `Z` key misses both stored
        // values; when neither plane is summarized, its miss plane
        // `zeros | ones` is formed as the accumulation loads it.
        let mut src = DistanceSources {
            singles: Vec::with_capacity(plan.len()),
            pairs: Vec::new(),
            base: 0,
            active: 0,
            words,
        };
        for &(col, bit) in plan {
            if col >= self.cols || bit == KeyBit::Masked {
                continue;
            }
            src.active += 1;
            match bit {
                KeyBit::Zero => match self.osum[col] {
                    PlaneSummary::AllZero => {}
                    PlaneSummary::Full => src.base += 1,
                    PlaneSummary::Unknown => src.singles.push([ones(col)]),
                },
                KeyBit::One => match self.zsum[col] {
                    PlaneSummary::AllZero => {}
                    PlaneSummary::Full => src.base += 1,
                    PlaneSummary::Unknown => src.singles.push([zeros(col)]),
                },
                KeyBit::Z => match (self.zsum[col], self.osum[col]) {
                    (PlaneSummary::AllZero, PlaneSummary::AllZero) => {}
                    (PlaneSummary::Full, _) | (_, PlaneSummary::Full) => src.base += 1,
                    (PlaneSummary::AllZero, _) => src.singles.push([ones(col)]),
                    (_, PlaneSummary::AllZero) => src.singles.push([zeros(col)]),
                    _ => src.pairs.push([zeros(col), ones(col)]),
                },
                KeyBit::Masked => unreachable!("masked entries filtered above"),
            }
        }
        src
    }

    /// Accumulate per-candidate distances for `plan` over the first `rows`
    /// rows into a word-parallel distance stack.
    fn hamming_counters(&self, plan: &[(usize, KeyBit)], rows: usize) -> HammingCounters {
        HammingCounters::accumulate(&self.distance_sources(plan, rows))
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
        let mut values = [0u32; 64];
        for (row, live) in self.live[..hc.words].chunks_exact(self.pw).enumerate() {
            for (wp, &live) in live.iter().enumerate() {
                hc.values_into(row * self.pw + wp, &mut values);
                let mut bits = live;
                while bits != 0 {
                    let p = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    out[(wp * 64 + p) * rows + row] = values[p];
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
        let src = self.distance_sources(plan, rows);
        src.singles.len() + src.pairs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::SearchKey;

    /// One search step through [`TcamSlab::sweep_program`]: the selected
    /// lanes of `out` take `plan`'s matches.
    fn sweep_search(
        slab: &mut TcamSlab,
        plan: &[(usize, KeyBit)],
        sel: Option<&[u64]>,
        out: &mut [u64],
    ) {
        let op = SweepOp {
            plans: &[plan],
            acc: false,
            writes: &[],
        };
        slab.sweep_program(&[op], out, sel);
    }

    /// One write step through [`TcamSlab::sweep_program`]: program `value`
    /// into column `col` under the selected lanes of `tags`.
    fn sweep_write(
        slab: &mut TcamSlab,
        col: usize,
        value: TernaryBit,
        tags: &[u64],
        sel: Option<&[u64]>,
    ) {
        let op = SweepOp {
            plans: &[],
            acc: true,
            writes: &[(col, value)],
        };
        slab.sweep_program(&[op], &mut tags.to_vec(), sel);
    }

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
            let (mut slab, arrays) = seeded(pes, 70, 9);
            for key in ["10-1Z----", "---------", "ZZZZZZZZZ", "001-1-0Z1"] {
                let key = SearchKey::parse(key).unwrap();
                let plan = key.compile_plan();
                let mut out = TagSlab::zeros(pes, 70);
                sweep_search(&mut slab, &plan, None, out.words_mut());
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
        let (mut slab, arrays) = seeded(5, 33, 6);
        let key = SearchKey::parse("1-0Z--").unwrap();
        let plan = key.compile_plan();
        let mut out = TagSlab::zeros(5, 33);
        let sel = pe_range_mask(5, 1, 4);
        sweep_search(&mut slab, &plan, Some(&sel), out.words_mut());
        for (pe, array) in arrays.iter().enumerate().take(4).skip(1) {
            assert_eq!(out.to_tagvector(pe), array.search(&key));
        }
        assert_eq!(out.count(0), 0, "PE 0 outside the range stays clear");
        assert_eq!(out.count(4), 0, "PE 4 outside the range stays clear");
    }

    #[test]
    fn search_plan_multi_skips_masked_and_out_of_range_entries() {
        let (mut slab, _) = seeded(2, 16, 4);
        let mut out = TagSlab::zeros(2, 16);
        sweep_search(
            &mut slab,
            &[(9, KeyBit::One), (0, KeyBit::Masked)],
            None,
            out.words_mut(),
        );
        assert_eq!(out.count(0) + out.count(1), 32, "no-op plan matches all");
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
        sweep_write(&mut slab, 3, TernaryBit::One, tags.words(), None);
        sweep_write(&mut slab, 0, TernaryBit::X, tags.words(), None);
        slab.reset();
        let mut fresh = TcamSlab::new(4, 70, 5);
        assert_eq!(slab, fresh);
        // The summaries are back to the exact fresh state too: a search on
        // a reset slab takes the same pruned paths as on a new one.
        let plan = SearchKey::parse("1-0Z-").unwrap().compile_plan();
        let mut out = TagSlab::zeros(4, 70);
        sweep_search(&mut slab, &plan, None, out.words_mut());
        let mut out_fresh = TagSlab::zeros(4, 70);
        sweep_search(&mut fresh, &plan, None, out_fresh.words_mut());
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
            sweep_write(&mut slab, 1, TernaryBit::One, tags.words(), None);
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
            sweep_write(&mut slab, 3, value, tags.words(), Some(&sel));
            for (pe, array) in arrays.iter_mut().enumerate().skip(1) {
                array.write_column(3, value, &tags.to_tagvector(pe));
            }
            assert_eq!(slab.to_arrays(), arrays, "value {value:?}");
            assert_eq!(slab.pe_wear(0)[3], 0, "PE outside the range unworn");
            assert_eq!(slab.pe_wear(2)[3], 1);
        }
    }

    #[test]
    fn reset_clears_wear_behind_fresh_summaries() {
        // A `0` written into fresh columns keeps their summaries fresh, so
        // the reset skips the planes — but the wear must still clear, on a
        // live slab and on one decoded from its image (exact summaries).
        let mut slab = TcamSlab::new(70, 5, 4);
        let tags = tag_pattern(&slab, 0);
        sweep_write(&mut slab, 2, TernaryBit::Zero, tags.words(), None);
        slab.set_cell(69, 4, 3, TernaryBit::Zero);
        assert_eq!(slab.pe_wear(0)[2], 1);
        let mut decoded = TcamSlab::read_plane_image(&mut plane_image(&slab).as_slice()).unwrap();
        let fresh = TcamSlab::new(70, 5, 4);
        for s in [&mut slab, &mut decoded] {
            s.reset();
            assert_eq!(*s, fresh);
        }
    }

    #[test]
    fn write_column_multi_wears_even_with_empty_tags() {
        let (mut slab, _) = seeded(2, 16, 4);
        let empty = TagSlab::zeros(2, 16);
        sweep_write(&mut slab, 1, TernaryBit::One, empty.words(), None);
        assert_eq!(slab.pe_wear(0)[1], 1);
        assert_eq!(slab.pe_wear(1)[1], 1);
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
        sweep_write(&mut slab, 0, TernaryBit::One, tags.words(), None);
        sweep_write(
            &mut slab,
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
        sweep_search(&mut slab, &plan, Some(&sel), tags.words_mut());
        sweep_write(&mut slab, 2, TernaryBit::One, tags.words(), Some(&sel));
        let latch = tag_pattern(&slab, 4);
        slab.write_encoded_multi(4, latch.words(), tags.words(), Some(&sel));
        let op = SweepOp {
            plans: &[&plan],
            acc: false,
            writes: &[(7, TernaryBit::Zero)],
        };
        slab.sweep_program(&[op], tags.words_mut(), Some(&sel));
        let reference = tag_pattern(&TcamSlab::new(67, 70, 9), 1);
        for (pe, array) in arrays.iter_mut().enumerate() {
            if picked.binary_search(&pe).is_err() {
                continue;
            }
            let t = array.search(&key);
            array.write_column(2, TernaryBit::One, &t);
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

    /// One fused step under a selection — two plans OR-ed (into the tags
    /// when `acc`), then two writes — against the per-array sequence:
    /// state, tags, and wear.
    #[test]
    fn sweep_step_matches_per_array_sequence() {
        for acc in [false, true] {
            let (mut slab, mut arrays) = seeded(4, 70, 9);
            let k1 = SearchKey::parse("10-1Z----").unwrap();
            let k2 = SearchKey::parse("-----01--").unwrap();
            let (p1, p2) = (k1.compile_plan(), k2.compile_plan());
            let writes = [(2usize, TernaryBit::One), (7usize, TernaryBit::X)];
            let sel = pe_range_mask(4, 1, 4);
            let mut tags = tag_pattern(&slab, 1);
            let before = tags.clone();
            let op = SweepOp {
                plans: &[&p1, &p2],
                acc,
                writes: &writes,
            };
            slab.sweep_program(&[op], tags.words_mut(), Some(&sel));
            for (pe, array) in arrays.iter_mut().enumerate().skip(1) {
                let mut t = if acc {
                    before.to_tagvector(pe)
                } else {
                    TagVector::zeros(70)
                };
                t.accumulate(&array.search(&k1));
                t.accumulate(&array.search(&k2));
                for (col, value) in writes {
                    array.write_column(col, value, &t);
                }
                assert_eq!(tags.to_tagvector(pe), t, "acc {acc} pe {pe}");
            }
            assert_eq!(
                tags.to_tagvector(0),
                before.to_tagvector(0),
                "outside the PE range"
            );
            assert_eq!(slab.to_arrays(), arrays, "acc {acc}");
            assert_eq!(slab.pe_wear(2)[2], 1);
            assert_eq!(slab.pe_wear(0)[2], 0, "outside the PE range");
        }
    }

    /// Every chain shape the match core folds — one to eight plans of zero
    /// to ten miss planes each (a `Z` entry counts twice), so chains pair
    /// up, run alone, and span two or three passes, opening the step or
    /// OR-ed into it — with and without `acc`, against the per-array
    /// sequence on a full 64-PE slab and a ragged 67-PE one.
    #[test]
    fn sweep_step_matches_per_array_for_all_chain_shapes() {
        // Miss planes per key: 0, 1, 2, 3, 5, 6, 8, 10.
        let keys = [
            "---------",
            "1--------",
            "10-------",
            "10-1-----",
            "10-1Z----",
            "Z0-1Z----",
            "ZZ-ZZ----",
            "ZZ1ZZ0---",
        ]
        .map(|k| SearchKey::parse(k).unwrap());
        let plans = keys.each_ref().map(SearchKey::compile_plan);
        let writes = [(3usize, TernaryBit::One), (8usize, TernaryBit::Zero)];
        for pes in [64, 67] {
            let seeded = seeded(pes, 70, 9);
            for n in 1..=8 {
                for skip in 0..keys.len() {
                    for acc in [false, true] {
                        // Plan `i` of the chain is key `(skip + 3i) % 8`.
                        let chain: Vec<usize> =
                            (0..n).map(|i| (skip + 3 * i) % keys.len()).collect();
                        let (mut slab, mut arrays) = seeded.clone();
                        let mut tags = tag_pattern(&slab, 2);
                        let before = tags.clone();
                        let refs: Vec<&[(usize, KeyBit)]> =
                            chain.iter().map(|&k| plans[k].as_slice()).collect();
                        let op = SweepOp {
                            plans: &refs,
                            acc,
                            writes: &writes,
                        };
                        slab.sweep_program(&[op], tags.words_mut(), None);
                        for (pe, array) in arrays.iter_mut().enumerate() {
                            let mut t = if acc {
                                before.to_tagvector(pe)
                            } else {
                                TagVector::zeros(70)
                            };
                            for &k in &chain {
                                t.accumulate(&array.search(&keys[k]));
                            }
                            for (col, value) in writes {
                                array.write_column(col, value, &t);
                            }
                            assert_eq!(
                                tags.to_tagvector(pe),
                                t,
                                "pes {pes} chain {chain:?} acc {acc}"
                            );
                        }
                        assert_eq!(
                            slab.to_arrays(),
                            arrays,
                            "pes {pes} chain {chain:?} acc {acc}"
                        );
                    }
                }
            }
        }
    }

    /// A write column that also appears in a plan must behave like the
    /// per-array search-then-write (the search completes before the store).
    #[test]
    fn sweep_step_handles_write_column_in_plan() {
        let (mut slab, mut arrays) = seeded(3, 33, 5);
        let key = SearchKey::parse("-0-1-").unwrap();
        let plan = key.compile_plan();
        let mut tags = TagSlab::zeros(3, 33);
        let op = SweepOp {
            plans: &[&plan],
            acc: false,
            writes: &[(1, TernaryBit::One)],
        };
        slab.sweep_program(&[op], tags.words_mut(), None);
        for (pe, array) in arrays.iter_mut().enumerate() {
            let t = array.search(&key);
            array.write_column(1, TernaryBit::One, &t);
            assert_eq!(tags.to_tagvector(pe), t, "pe {pe}");
        }
        assert_eq!(slab.to_arrays(), arrays);
    }

    #[test]
    fn search_narrow_multi_equals_init_free_plan_search() {
        let (mut slab, _) = seeded(3, 70, 6);
        let full = SearchKey::parse("1-0Z--").unwrap().compile_plan();
        let (prefix, rest) = full.split_at(1);
        let mut whole = TagSlab::zeros(3, 70);
        sweep_search(&mut slab, &full, None, whole.words_mut());
        let mut narrowed = TagSlab::zeros(3, 70);
        sweep_search(&mut slab, prefix, None, narrowed.words_mut());
        slab.search_narrow_multi(rest, None, narrowed.words_mut());
        assert_eq!(narrowed, whole);
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
        let mut slab = TcamSlab::new(2, 16, 2);
        let mut out = vec![0u64; 1];
        sweep_search(&mut slab, &[], None, &mut out);
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
        sweep_search(&mut slab, &plan, None, tags.words_mut());
        for (pe, array) in arrays.iter().enumerate() {
            assert_eq!(tags.to_tagvector(pe), array.search(&key), "pe {pe}");
        }

        sweep_write(&mut slab, 2, TernaryBit::One, tags.words(), None);
        let op = SweepOp {
            plans: &[&plan],
            acc: false,
            writes: &[(4, TernaryBit::Zero)],
        };
        slab.sweep_program(&[op], tags.words_mut(), None);
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
        sweep_search(&mut slab, &plan, None, tags2.words_mut());
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

    /// A slab with cells, wear on some columns, and (optionally) fault
    /// bookkeeping with a retired column — every field the plane image
    /// carries.
    fn imaged(pes: usize, faulty: bool) -> TcamSlab {
        let (mut slab, _) = seeded(pes, 70, 4);
        if faulty {
            let model = FaultModel {
                seed: 99,
                stuck_per_million: 25_000,
                miss_per_million: 10_000,
                endurance_limit: Some(1),
            };
            slab.attach_fault(model, 2, 5);
        }
        let tags = tag_pattern(&slab, 2);
        sweep_write(&mut slab, 1, TernaryBit::One, tags.words(), None);
        sweep_write(&mut slab, 3, TernaryBit::Zero, tags.words(), None);
        if faulty {
            slab.service_endurance().expect("two spares per PE");
        }
        slab
    }

    fn plane_image(slab: &TcamSlab) -> Vec<u8> {
        let mut out = Vec::new();
        slab.write_plane_image(&mut out);
        out
    }

    #[test]
    fn plane_image_round_trips_and_stores_only_worn_columns() {
        for (pes, faulty) in [(3, false), (67, false), (64, true), (67, true)] {
            let slab = imaged(pes, faulty);
            let bytes = plane_image(&slab);
            let mut buf = bytes.as_slice();
            let back = TcamSlab::read_plane_image(&mut buf).expect("own image decodes");
            assert!(buf.is_empty(), "pes {pes}: the image is consumed exactly");
            assert_eq!(back, slab, "pes {pes} faulty {faulty}");
            assert_eq!(
                plane_image(&back),
                bytes,
                "pes {pes}: re-encodes byte for byte"
            );
            if !faulty {
                // Header, two arenas, a one-word bitmap, two worn columns,
                // the fault flag.
                let arena = 4 * 70 * pes.div_ceil(64) * 8;
                assert_eq!(bytes.len(), 16 + 2 * arena + 8 + 2 * pes * 8 + 1);
            }
        }
        let tags = tag_pattern(&TcamSlab::new(67, 70, 1), 5);
        let mut out = Vec::new();
        tags.write_plane(&mut out);
        let mut buf = out.as_slice();
        assert_eq!(TagSlab::read_plane(&mut buf, 67, 70), Ok(tags));
        assert!(buf.is_empty());
    }

    #[test]
    fn plane_image_rejects_malformed_images_typed() {
        let slab = imaged(3, true);
        let bytes = plane_image(&slab);
        let decode = |b: &[u8]| TcamSlab::read_plane_image(&mut &b[..]);
        for len in [0, 15, 16, 100, bytes.len() - 1] {
            assert_eq!(
                decode(&bytes[..len]),
                Err(SlabDecodeError::Truncated),
                "{len}"
            );
        }
        let dim = |i: usize, v: u32| {
            let mut b = bytes.clone();
            b[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
            decode(&b)
        };
        assert_eq!(dim(0, 0), Err(SlabDecodeError::BadGeometry));
        let pe_words = dim(3, 2).unwrap_err();
        assert_eq!(pe_words, SlabDecodeError::BadGeometry, "pe_words");
        assert!(
            pe_words.to_string().contains("mismatched dimension"),
            "the message names the cause: {pe_words}"
        );
        // Counts far past the bytes present fail before allocating.
        assert_eq!(dim(2, u32::MAX), Err(SlabDecodeError::Truncated));
        assert_eq!(dim(1, u32::MAX), Err(SlabDecodeError::Truncated));
        // A set bit in the PE padding of a plane row (PE 63 of 3).
        let mut padded = bytes.clone();
        padded[16 + 7] |= 0x80;
        assert_eq!(decode(&padded), Err(SlabDecodeError::BadGeometry));
        // The wear bitmap: a column past `cols`, then a listed column of
        // all-zero counters.
        let bitmap_at = 16 + 2 * 4 * 70 * 8;
        let mut past = bytes.clone();
        past[bitmap_at] |= 1 << 5;
        assert_eq!(decode(&past), Err(SlabDecodeError::BadGeometry));
        let mut zero_col = bytes.clone();
        zero_col[bitmap_at] = 1 << 1;
        let counters = bitmap_at + 8;
        zero_col[counters..counters + 3 * 8].fill(0);
        assert_eq!(decode(&zero_col), Err(SlabDecodeError::BadGeometry));
        // A fault flag byte other than 0 or 1.
        let flag_at = bitmap_at
            + 8
            + slab
                .wear
                .chunks(3)
                .filter(|c| c.iter().any(|&w| w != 0))
                .count()
                * 3
                * 8;
        let mut flag = bytes.clone();
        assert_eq!(flag[flag_at], 1);
        flag[flag_at] = 2;
        assert_eq!(decode(&flag), Err(SlabDecodeError::BadFault));
        // Tag planes reject PE padding too.
        let mut out = Vec::new();
        TagSlab::zeros(3, 2).write_plane(&mut out);
        out[8] = 0x08;
        assert_eq!(
            TagSlab::read_plane(&mut out.as_slice(), 3, 2),
            Err(SlabDecodeError::BadGeometry)
        );
        assert_eq!(
            TagSlab::read_plane(&mut &out[..15], 3, 2),
            Err(SlabDecodeError::Truncated)
        );
    }

    #[test]
    fn fault_tail_rejects_inconsistent_bookkeeping() {
        let slab = imaged(2, true);
        let bytes = plane_image(&slab);
        let tail = bytes.len() - slab_fault_tail_len(&slab);
        let decode = |b: &[u8]| TcamSlab::read_plane_image(&mut &b[..]);
        // Spares used past the budget of 2 (first PE record).
        let pe_at = tail + 8 + 4 + 4 + 1 + 8 + 8 + 2 + 8;
        let mut over = bytes.clone();
        over[pe_at..pe_at + 2].copy_from_slice(&3u16.to_be_bytes());
        assert_eq!(decode(&over), Err(SlabDecodeError::BadFault));
        // The same overdraft with a retirement log to match and every
        // remap and logged device in range: only the spare budget check
        // stands between it and a decode.
        let mut f = slab.fault().unwrap().clone();
        f.next_spare[0] = 3;
        f.retired[0] = vec![(0, 1), (1, 2), (2, 3)];
        let mut overdrawn = bytes[..tail].to_vec();
        put_fault_tail(&mut overdrawn, &f);
        assert_eq!(decode(&overdrawn), Err(SlabDecodeError::BadFault));
        // A remap entry past the columns and spares.
        let f = slab.fault().unwrap();
        let remap_at = pe_at + 2 + if f.failed[0].is_some() { 11 } else { 1 };
        let mut wild = bytes.clone();
        wild[remap_at..remap_at + 2].copy_from_slice(&9u16.to_be_bytes());
        assert_eq!(decode(&wild), Err(SlabDecodeError::BadFault));
        // A PE base that overflows.
        let pe0_at = tail + 8 + 4 + 4 + 1 + 8;
        let mut base = bytes;
        base[pe0_at..pe0_at + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert_eq!(decode(&base), Err(SlabDecodeError::BadFault));
    }

    /// Bytes of the fault bookkeeping tail that ends a faulty plane image.
    fn slab_fault_tail_len(slab: &TcamSlab) -> usize {
        let mut tail = Vec::new();
        put_fault_tail(&mut tail, slab.fault().expect("fault state"));
        tail.len()
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
        // pruning: the counts straddle the carry-save group width (planes
        // in groups, in the remainder, or both) and the counter stack's
        // bit-plane boundaries.
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
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 33, 255, 256] {
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
        let (mut slab, _) = seeded(5, 16, 12);
        let key = SearchKey::parse("01Z-01Z-01Z-").unwrap();
        let plan = key.compile_plan();
        let mut d = vec![0u32; 5 * 16];
        slab.hamming_into(&plan, 16, &mut d);
        let mut tags = vec![0u64; slab.plane_words()];
        sweep_search(&mut slab, &plan, None, &mut tags);
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

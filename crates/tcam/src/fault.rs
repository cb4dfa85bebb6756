//! Deterministic, seedable device-fault models and the bookkeeping that
//! applies them to [`crate::TcamArray`] and [`crate::TcamSlab`] storage.
//!
//! The paper's 2D2R RRAM TCAM (§II-E, §IV-B) is built on devices with
//! finite write endurance and real defect rates. This module provides the
//! functional counterpart: a [`FaultModel`] that decides — purely as a hash
//! of a seed and coordinates, so every engine agrees bit-for-bit — which
//! cells are stuck, which rows transiently miss a search, and when a
//! column's wear counter trips its endurance limit.
//!
//! Three fault classes are modeled:
//!
//! * **Stuck-at cells**: a cell permanently stores 0 or 1 regardless of
//!   writes. Stuck bits are a property of the *physical* device, so they
//!   follow the device, not the logical column: when a column is retired
//!   onto a spare, the new device brings its own (hash-derived) stuck bits.
//! * **Transient search misses**: a row fails to discharge its match line
//!   for the duration of one architectural run (one *epoch*). The miss set
//!   is re-hashed per epoch, so different runs see different misses but
//!   every engine executing the same run sees the same set. Holding the
//!   set stable within an epoch is what keeps the trace peephole's fusion
//!   and dead-search elision sound under faults.
//! * **Endurance trips**: when a column's existing wear counter reaches
//!   `endurance_limit`, the column is retired onto a spare device at the
//!   end of the run ([`FaultState::retire`]); when no spares remain the
//!   machine surfaces [`FaultError::SparesExhausted`] instead of silently
//!   computing wrong results.
//!
//! The *remap table* is bookkeeping, not indirection: storage stays
//! logical-width and kernels keep their exact zero-fault indexing. What a
//! retirement changes is which physical device backs a logical column —
//! observable only through that device's stuck bits (recomputed from the
//! model) and its fresh wear counter (reset to zero).

/// Domain-separation salt for stuck-cell decisions.
const STUCK_SALT: u64 = 0x5EED_57AC_C311_0001;
/// Domain-separation salt for transient search-miss decisions.
const MISS_SALT: u64 = 0x5EED_B115_5000_0002;

/// One round of the splitmix64 finalizer.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a salted seed with three coordinates into a uniform `u64`.
fn mix3(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    splitmix(seed ^ splitmix(a ^ splitmix(b ^ splitmix(c))))
}

/// A deterministic, seedable device-fault model.
///
/// Every decision is a pure function of `(seed, coordinates)`, so any two
/// engines given the same model agree on every fault without sharing
/// state. Rates are expressed in events per million to keep the type
/// `Eq`/`Hash`-able (no floats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultModel {
    /// Seed mixed into every fault decision.
    pub seed: u64,
    /// Stuck-cell probability per million cells (split half stuck-at-0,
    /// half stuck-at-1 by hash parity).
    pub stuck_per_million: u32,
    /// Transient search-miss probability per million row-epochs.
    pub miss_per_million: u32,
    /// Retire a column once its wear counter reaches this limit.
    pub endurance_limit: Option<u64>,
}

impl FaultModel {
    /// The fault-free model; storage with this model attached behaves
    /// identically to storage with no fault state at all.
    pub const fn none() -> Self {
        FaultModel {
            seed: 0,
            stuck_per_million: 0,
            miss_per_million: 0,
            endurance_limit: None,
        }
    }

    /// True when any fault class can ever fire.
    pub fn is_active(&self) -> bool {
        self.stuck_per_million > 0 || self.miss_per_million > 0 || self.endurance_limit.is_some()
    }

    /// Stuck state of the cell at `(pe, phys_col, row)`: `Some(true)` for
    /// stuck-at-1, `Some(false)` for stuck-at-0, `None` for a healthy cell.
    ///
    /// `phys_col` is a *physical* device index — spare devices live at
    /// `cols..cols + spares` and carry their own stuck bits.
    pub fn stuck_at(&self, pe: usize, phys_col: usize, row: usize) -> Option<bool> {
        if self.stuck_per_million == 0 {
            return None;
        }
        let h = mix3(
            self.seed ^ STUCK_SALT,
            pe as u64,
            phys_col as u64,
            row as u64,
        );
        if h % 1_000_000 < self.stuck_per_million as u64 {
            Some(h >> 32 & 1 == 1)
        } else {
            None
        }
    }

    /// True when row `row` of PE `pe` misses every search during `epoch`.
    pub fn misses(&self, pe: usize, row: usize, epoch: u64) -> bool {
        if self.miss_per_million == 0 {
            return false;
        }
        let h = mix3(self.seed ^ MISS_SALT, pe as u64, row as u64, epoch);
        h % 1_000_000 < self.miss_per_million as u64
    }

    /// Fill per-block stuck-at-0 / stuck-at-1 masks for one physical column
    /// of one PE. The two masks are disjoint and confined to `rows` bits.
    pub fn stuck_masks_into(
        &self,
        pe: usize,
        phys_col: usize,
        rows: usize,
        stuck0: &mut [u64],
        stuck1: &mut [u64],
    ) {
        stuck0.fill(0);
        stuck1.fill(0);
        if self.stuck_per_million == 0 {
            return;
        }
        for row in 0..rows {
            match self.stuck_at(pe, phys_col, row) {
                Some(true) => stuck1[row / 64] |= 1 << (row % 64),
                Some(false) => stuck0[row / 64] |= 1 << (row % 64),
                None => {}
            }
        }
    }

    /// Fill a per-block mask of rows that miss searches during `epoch`.
    pub fn miss_mask_into(&self, pe: usize, rows: usize, epoch: u64, out: &mut [u64]) {
        out.fill(0);
        if self.miss_per_million == 0 {
            return;
        }
        for row in 0..rows {
            if self.misses(pe, row, epoch) {
                out[row / 64] |= 1 << (row % 64);
            }
        }
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

/// Typed degradation error: a fault the machine cannot transparently
/// absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// A column crossed its endurance limit and no spare devices remain in
    /// its PE. Results computed before the trip are intact; the machine
    /// refuses to run further work instead of returning wrong answers.
    SparesExhausted {
        /// Global PE index.
        pe: usize,
        /// Logical column that could not be retired.
        col: u16,
        /// The wear counter value that tripped the limit.
        wear: u64,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::SparesExhausted { pe, col, wear } => write!(
                f,
                "PE {pe}: column {col} hit its endurance limit (wear {wear}) with no spares left"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// Fill `out` with the all-rows-valid mask (tail bits zero).
fn full_row_mask_into(rows: usize, out: &mut [u64]) {
    out.fill(!0);
    let tail = rows % 64;
    if tail != 0 {
        if let Some(last) = out.last_mut() {
            *last = (1u64 << tail) - 1;
        }
    }
}

/// Force a column's bit-lines to agree with its backing device's stuck
/// masks: stuck-at-0 cells read `0` (`is_zero` set), stuck-at-1 cells read
/// `1` (`is_one` set), whatever was last written. One pass, shared by both
/// storage backends; idempotent, so the slab may run it once per written
/// column at the end of a sweep step.
#[inline]
pub(crate) fn enforce_stuck(zero: &mut [u64], one: &mut [u64], s0: &[u64], s1: &[u64]) {
    let n = zero.len();
    let (s0, s1) = (&s0[..n], &s1[..n]);
    for i in 0..n {
        let s = s0[i] | s1[i];
        zero[i] = (zero[i] & !s) | s0[i];
        one[i] = (one[i] & !s) | s1[i];
    }
}

/// Per-[`crate::TcamArray`] fault bookkeeping: the model, the remap table
/// from logical columns to backing physical devices, cached stuck masks
/// for the *current* backing devices, and the current epoch's effective
/// search mask.
///
/// All fields participate in `PartialEq`; two engines that executed the
/// same runs agree on the whole structure, remap tables included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultState {
    /// The fault model every decision is derived from.
    pub model: FaultModel,
    /// Global PE index (hash coordinate; identical across engines).
    pub pe: usize,
    /// Number of rows in the backing array.
    pub rows: usize,
    /// Number of spare column devices this PE reserves.
    pub spares: usize,
    /// Count of spares consumed so far; the next spare is physical device
    /// `cols + next_spare`.
    pub next_spare: u16,
    /// `remap[logical_col]` = physical device index in `0..cols + spares`.
    /// Starts as the identity; retirement redirects one entry at a time.
    pub remap: Vec<u16>,
    /// Retirement log: `(logical_col, new_physical_device)` in order.
    pub retired: Vec<(u16, u16)>,
    /// Stuck-at-0 masks of the current backing devices, `[col][block]`
    /// flattened.
    pub stuck0: Vec<u64>,
    /// Stuck-at-1 masks of the current backing devices, `[col][block]`
    /// flattened.
    pub stuck1: Vec<u64>,
    /// Effective search mask for the current epoch:
    /// `row_mask & !miss_mask`. Searches initialize from this instead of
    /// the raw row mask.
    pub search_mask: Vec<u64>,
    /// Current run epoch (bumped once per architectural run).
    pub epoch: u64,
    /// Set when this PE has exhausted its spares: `(col, wear)` of the
    /// column that could not be retired. Machines fail fast on it.
    pub failed: Option<(u16, u64)>,
}

impl FaultState {
    /// Fresh fault state for a `rows × cols` array on global PE `pe`.
    pub fn new(model: FaultModel, pe: usize, spares: usize, rows: usize, cols: usize) -> Self {
        let bpp = rows.div_ceil(64);
        let mut state = FaultState {
            model,
            pe,
            rows,
            spares,
            next_spare: 0,
            remap: (0..cols as u16).collect(),
            retired: Vec::new(),
            stuck0: vec![0; cols * bpp],
            stuck1: vec![0; cols * bpp],
            search_mask: vec![0; bpp],
            epoch: 0,
            failed: None,
        };
        for col in 0..cols {
            state.refresh_stuck(col);
        }
        state.refresh_search_mask();
        state
    }

    /// Blocks per column (`rows.div_ceil(64)`).
    pub fn blocks(&self) -> usize {
        self.search_mask.len()
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.remap.len()
    }

    /// Spare devices still unused.
    pub fn spares_left(&self) -> u16 {
        self.spares as u16 - self.next_spare
    }

    /// Stuck-at-0 / stuck-at-1 masks of logical column `col`'s current
    /// backing device.
    pub fn stuck_col(&self, col: usize) -> (&[u64], &[u64]) {
        let bpp = self.blocks();
        let base = col * bpp;
        (
            &self.stuck0[base..base + bpp],
            &self.stuck1[base..base + bpp],
        )
    }

    /// Recompute the cached stuck masks of logical column `col` from its
    /// current backing device.
    fn refresh_stuck(&mut self, col: usize) {
        let bpp = self.blocks();
        let phys = self.remap[col] as usize;
        let base = col * bpp;
        let (pe, rows, model) = (self.pe, self.rows, self.model);
        model.stuck_masks_into(
            pe,
            phys,
            rows,
            &mut self.stuck0[base..base + bpp],
            &mut self.stuck1[base..base + bpp],
        );
    }

    /// Recompute the effective search mask for the current epoch.
    fn refresh_search_mask(&mut self) {
        let (pe, rows, epoch, model) = (self.pe, self.rows, self.epoch, self.model);
        let bpp = self.blocks();
        let mut miss = vec![0u64; bpp];
        model.miss_mask_into(pe, rows, epoch, &mut miss);
        full_row_mask_into(rows, &mut self.search_mask);
        for (m, miss) in self.search_mask.iter_mut().zip(&miss) {
            *m &= !miss;
        }
    }

    /// Start a new run epoch: bump the counter and re-derive the transient
    /// miss set (and thus the effective search mask).
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
        if self.model.miss_per_million > 0 {
            self.refresh_search_mask();
        }
    }

    /// Retire logical column `col` (whose wear counter read `wear`) onto
    /// the next spare device. Returns the new physical device index; the
    /// caller must re-enforce stuck bits on the column's storage and reset
    /// its wear counter (the spare is a fresh device).
    ///
    /// # Errors
    ///
    /// [`FaultError::SparesExhausted`] when no spares remain; `failed` is
    /// recorded so subsequent runs fail fast.
    pub fn retire(&mut self, col: usize, wear: u64) -> Result<u16, FaultError> {
        if (self.next_spare as usize) >= self.spares {
            self.failed = Some((col as u16, wear));
            return Err(FaultError::SparesExhausted {
                pe: self.pe,
                col: col as u16,
                wear,
            });
        }
        let phys = (self.cols() + self.next_spare as usize) as u16;
        self.next_spare += 1;
        self.remap[col] = phys;
        self.retired.push((col as u16, phys));
        self.refresh_stuck(col);
        Ok(phys)
    }
}

/// Fault bookkeeping for a [`crate::TcamSlab`]: the same information as
/// one [`FaultState`] per PE, but with the stuck and search masks laid out
/// to match the slab's arenas so fused kernels read them with the same
/// strides as the storage itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlabFaultState {
    /// The fault model every decision is derived from.
    pub model: FaultModel,
    /// Global PE index of slot 0 (slot `s` is global PE `pe0 + s`).
    pub pe0: usize,
    /// PEs in the slab.
    pub pes: usize,
    /// Rows per PE.
    pub rows: usize,
    /// Logical columns per PE.
    pub cols: usize,
    /// Spare devices per PE.
    pub spares: usize,
    /// Per-PE count of spares consumed.
    pub next_spare: Vec<u16>,
    /// Remap tables, PE-major: `remap[pe * cols + col]`.
    pub remap: Vec<u16>,
    /// Per-PE retirement logs.
    pub retired: Vec<Vec<(u16, u16)>>,
    /// Stuck-at-0 masks in the slab's bit-plane layout: word
    /// `[col * rows * pw + row * pw + pe / 64]`, bit `pe % 64`, where
    /// `pw = pes.div_ceil(64)`. Bits at PE positions `>= pes` stay zero.
    pub stuck0: Vec<u64>,
    /// Stuck-at-1 masks in bit-plane layout.
    pub stuck1: Vec<u64>,
    /// Effective search masks in bit-plane layout: word
    /// `[row * pw + pe / 64]`, bit `pe % 64` set when the row is live
    /// (in range and not missing this epoch) for that PE.
    pub search_mask: Vec<u64>,
    /// Current run epoch.
    pub epoch: u64,
    /// Per-PE spares-exhausted marker (`(col, wear)`), for fail-fast.
    pub failed: Vec<Option<(u16, u64)>>,
}

impl SlabFaultState {
    /// Fresh fault state for a slab of `pes` PEs (`rows × cols` each)
    /// whose slot 0 is global PE `pe0`.
    pub fn new(
        model: FaultModel,
        pe0: usize,
        spares: usize,
        pes: usize,
        rows: usize,
        cols: usize,
    ) -> Self {
        let pw = pes.div_ceil(64);
        let mut state = SlabFaultState {
            model,
            pe0,
            pes,
            rows,
            cols,
            spares,
            next_spare: vec![0; pes],
            remap: (0..pes).flat_map(|_| 0..cols as u16).collect(),
            retired: vec![Vec::new(); pes],
            stuck0: vec![0; cols * rows * pw],
            stuck1: vec![0; cols * rows * pw],
            search_mask: vec![0; rows * pw],
            epoch: 0,
            failed: vec![None; pes],
        };
        for pe in 0..pes {
            for col in 0..cols {
                state.refresh_stuck(pe, col);
            }
            state.refresh_search_mask(pe);
        }
        state
    }

    /// Blocks per PE column (`rows.div_ceil(64)`).
    pub fn blocks(&self) -> usize {
        self.rows.div_ceil(64)
    }

    /// Spare devices still unused in slot `pe`.
    pub fn spares_left(&self, pe: usize) -> u16 {
        self.spares as u16 - self.next_spare[pe]
    }

    /// Words per plane row (`pes.div_ceil(64)`).
    pub fn pe_words(&self) -> usize {
        self.pes.div_ceil(64)
    }

    /// Words per column plane (`rows * pe_words`).
    pub fn plane_words(&self) -> usize {
        self.rows * self.pe_words()
    }

    /// Recompute the cached stuck masks of `(pe, col)` from the current
    /// backing device: derive the per-row-block masks, then scatter them
    /// into that PE's bit lane of the column's plane.
    fn refresh_stuck(&mut self, pe: usize, col: usize) {
        let bpp = self.blocks();
        let pw = self.pe_words();
        let phys = self.remap[pe * self.cols + col] as usize;
        let (global_pe, rows, model) = (self.pe0 + pe, self.rows, self.model);
        let mut tmp0 = vec![0u64; bpp];
        let mut tmp1 = vec![0u64; bpp];
        model.stuck_masks_into(global_pe, phys, rows, &mut tmp0, &mut tmp1);
        let base = col * rows * pw + pe / 64;
        let lane = 1u64 << (pe % 64);
        for row in 0..rows {
            let idx = base + row * pw;
            let (rw, rs) = (row / 64, row % 64);
            self.stuck0[idx] = self.stuck0[idx] & !lane | (tmp0[rw] >> rs & 1) << (pe % 64);
            self.stuck1[idx] = self.stuck1[idx] & !lane | (tmp1[rw] >> rs & 1) << (pe % 64);
        }
    }

    /// Recompute slot `pe`'s effective search mask for the current epoch
    /// and scatter it into that PE's bit lane of the mask plane.
    fn refresh_search_mask(&mut self, pe: usize) {
        let bpp = self.blocks();
        let pw = self.pe_words();
        let (global_pe, rows, epoch, model) = (self.pe0 + pe, self.rows, self.epoch, self.model);
        let mut miss = vec![0u64; bpp];
        model.miss_mask_into(global_pe, rows, epoch, &mut miss);
        let mut eff = vec![0u64; bpp];
        full_row_mask_into(rows, &mut eff);
        for (m, miss) in eff.iter_mut().zip(&miss) {
            *m &= !miss;
        }
        let lane = 1u64 << (pe % 64);
        for row in 0..rows {
            let idx = row * pw + pe / 64;
            let bit = (eff[row / 64] >> (row % 64) & 1) << (pe % 64);
            self.search_mask[idx] = self.search_mask[idx] & !lane | bit;
        }
    }

    /// Start a new run epoch across all PEs.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
        if self.model.miss_per_million > 0 {
            for pe in 0..self.pes {
                self.refresh_search_mask(pe);
            }
        }
    }

    /// Retire logical column `col` of slot `pe` onto its next spare
    /// device; mirrors [`FaultState::retire`].
    ///
    /// # Errors
    ///
    /// [`FaultError::SparesExhausted`] (with the *global* PE index) when
    /// slot `pe` has no spares left.
    pub fn retire(&mut self, pe: usize, col: usize, wear: u64) -> Result<u16, FaultError> {
        if (self.next_spare[pe] as usize) >= self.spares {
            self.failed[pe] = Some((col as u16, wear));
            return Err(FaultError::SparesExhausted {
                pe: self.pe0 + pe,
                col: col as u16,
                wear,
            });
        }
        let phys = (self.cols + self.next_spare[pe] as usize) as u16;
        self.next_spare[pe] += 1;
        self.remap[pe * self.cols + col] = phys;
        self.retired[pe].push((col as u16, phys));
        self.refresh_stuck(pe, col);
        Ok(phys)
    }

    /// Rebuild a slab fault state from serialized bookkeeping (the byte
    /// image carries only the model, remap tables, and counters — stuck
    /// and search masks are pure functions of those and are recomputed
    /// here).
    ///
    /// # Panics
    ///
    /// Panics if the per-PE vectors do not all have `pes` entries (or
    /// `pes * cols` for `remap`).
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        model: FaultModel,
        pe0: usize,
        spares: usize,
        pes: usize,
        rows: usize,
        cols: usize,
        epoch: u64,
        next_spare: Vec<u16>,
        remap: Vec<u16>,
        retired: Vec<Vec<(u16, u16)>>,
        failed: Vec<Option<(u16, u64)>>,
    ) -> Self {
        assert_eq!(next_spare.len(), pes, "next_spare length mismatch");
        assert_eq!(remap.len(), pes * cols, "remap length mismatch");
        assert_eq!(retired.len(), pes, "retired length mismatch");
        assert_eq!(failed.len(), pes, "failed length mismatch");
        let mut state = SlabFaultState::new(model, pe0, spares, pes, rows, cols);
        state.epoch = epoch;
        state.next_spare = next_spare;
        state.remap = remap;
        state.retired = retired;
        state.failed = failed;
        for pe in 0..pes {
            for col in 0..cols {
                state.refresh_stuck(pe, col);
            }
            state.refresh_search_mask(pe);
        }
        state
    }

    /// Extract slot `pe`'s fault state as a standalone per-array
    /// [`FaultState`], bit-identical to the one an [`crate::TcamArray`]
    /// on the same global PE would hold after the same history.
    pub fn to_array(&self, pe: usize) -> FaultState {
        let bpp = self.blocks();
        let pw = self.pe_words();
        let (w, s) = (pe / 64, pe % 64);
        let mut stuck0 = vec![0u64; self.cols * bpp];
        let mut stuck1 = vec![0u64; self.cols * bpp];
        for col in 0..self.cols {
            for row in 0..self.rows {
                let idx = (col * self.rows + row) * pw + w;
                stuck0[col * bpp + row / 64] |= (self.stuck0[idx] >> s & 1) << (row % 64);
                stuck1[col * bpp + row / 64] |= (self.stuck1[idx] >> s & 1) << (row % 64);
            }
        }
        let mut search_mask = vec![0u64; bpp];
        for row in 0..self.rows {
            search_mask[row / 64] |= (self.search_mask[row * pw + w] >> s & 1) << (row % 64);
        }
        FaultState {
            model: self.model,
            pe: self.pe0 + pe,
            rows: self.rows,
            spares: self.spares,
            next_spare: self.next_spare[pe],
            remap: self.remap[pe * self.cols..(pe + 1) * self.cols].to_vec(),
            retired: self.retired[pe].clone(),
            stuck0,
            stuck1,
            search_mask,
            epoch: self.epoch,
            failed: self.failed[pe],
        }
    }

    /// Reassemble a slab fault state from per-array states.
    ///
    /// # Panics
    ///
    /// The states must share model, geometry, spare count, and epoch, and
    /// cover contiguous global PEs (`states[i].pe == states[0].pe + i`).
    pub fn from_arrays(states: &[&FaultState]) -> Self {
        let first = states[0];
        let (rows, cols) = (first.rows, first.cols());
        let bpp = first.blocks();
        let pes = states.len();
        let pw = pes.div_ceil(64);
        let mut slab = SlabFaultState {
            model: first.model,
            pe0: first.pe,
            pes,
            rows,
            cols,
            spares: first.spares,
            next_spare: Vec::with_capacity(pes),
            remap: vec![0; pes * cols],
            retired: Vec::with_capacity(pes),
            stuck0: vec![0; cols * rows * pw],
            stuck1: vec![0; cols * rows * pw],
            search_mask: vec![0; rows * pw],
            epoch: first.epoch,
            failed: Vec::with_capacity(pes),
        };
        for (i, st) in states.iter().enumerate() {
            assert_eq!(st.model, first.model, "fault model mismatch");
            assert_eq!(st.pe, first.pe + i, "fault PE ids must be contiguous");
            assert_eq!(st.rows, rows, "fault geometry mismatch");
            assert_eq!(st.cols(), cols, "fault geometry mismatch");
            assert_eq!(st.spares, first.spares, "fault spare count mismatch");
            assert_eq!(st.epoch, first.epoch, "fault epoch mismatch");
            slab.next_spare.push(st.next_spare);
            slab.retired.push(st.retired.clone());
            slab.failed.push(st.failed);
            slab.remap[i * cols..(i + 1) * cols].copy_from_slice(&st.remap);
            let lane = 1u64 << (i % 64);
            for col in 0..cols {
                for row in 0..rows {
                    let idx = (col * rows + row) * pw + i / 64;
                    if st.stuck0[col * bpp + row / 64] >> (row % 64) & 1 != 0 {
                        slab.stuck0[idx] |= lane;
                    }
                    if st.stuck1[col * bpp + row / 64] >> (row % 64) & 1 != 0 {
                        slab.stuck1[idx] |= lane;
                    }
                }
            }
            for row in 0..rows {
                if st.search_mask[row / 64] >> (row % 64) & 1 != 0 {
                    slab.search_mask[row * pw + i / 64] |= lane;
                }
            }
        }
        slab
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FaultModel {
        FaultModel {
            seed: 42,
            stuck_per_million: 80_000,
            miss_per_million: 50_000,
            endurance_limit: Some(100),
        }
    }

    #[test]
    fn none_is_inactive() {
        assert!(!FaultModel::none().is_active());
        assert!(model().is_active());
        assert!(FaultModel {
            endurance_limit: Some(1),
            ..FaultModel::none()
        }
        .is_active());
    }

    #[test]
    fn decisions_are_deterministic_and_masks_disjoint() {
        let m = model();
        let rows: usize = 130;
        let bpp = rows.div_ceil(64);
        let (mut s0a, mut s1a) = (vec![0; bpp], vec![0; bpp]);
        let (mut s0b, mut s1b) = (vec![0; bpp], vec![0; bpp]);
        m.stuck_masks_into(3, 7, rows, &mut s0a, &mut s1a);
        m.stuck_masks_into(3, 7, rows, &mut s0b, &mut s1b);
        assert_eq!(s0a, s0b);
        assert_eq!(s1a, s1b);
        for (a, b) in s0a.iter().zip(&s1a) {
            assert_eq!(a & b, 0, "stuck-at-0 and stuck-at-1 overlap");
        }
        // Tail bits beyond `rows` stay clear.
        assert_eq!(s0a[bpp - 1] >> (rows % 64), 0);
        assert_eq!(s1a[bpp - 1] >> (rows % 64), 0);
        // At 8% density over 260 cells both polarities should appear.
        let any0: u64 = s0a.iter().sum();
        let any1: u64 = s1a.iter().sum();
        assert!(any0 != 0 || any1 != 0, "expected some stuck cells");
    }

    #[test]
    fn miss_mask_depends_on_epoch() {
        let m = model();
        let rows = 256;
        let bpp = rows / 64;
        let mut e0 = vec![0; bpp];
        let mut e1 = vec![0; bpp];
        m.miss_mask_into(0, rows, 0, &mut e0);
        m.miss_mask_into(0, rows, 1, &mut e1);
        assert_ne!(e0, e1, "miss set should be re-hashed per epoch");
    }

    #[test]
    fn retire_walks_spares_then_fails_typed() {
        let mut st = FaultState::new(model(), 5, 2, 64, 8);
        assert_eq!(st.spares_left(), 2);
        let p0 = st.retire(3, 120).unwrap();
        assert_eq!(p0, 8);
        assert_eq!(st.remap[3], 8);
        let p1 = st.retire(3, 120).unwrap();
        assert_eq!(p1, 9);
        assert_eq!(st.retired, vec![(3, 8), (3, 9)]);
        assert_eq!(st.spares_left(), 0);
        let err = st.retire(1, 130).unwrap_err();
        assert_eq!(
            err,
            FaultError::SparesExhausted {
                pe: 5,
                col: 1,
                wear: 130
            }
        );
        assert_eq!(st.failed, Some((1, 130)));
        assert!(err.to_string().contains("PE 5"));
    }

    #[test]
    fn retirement_swaps_the_backing_devices_stuck_bits() {
        let m = FaultModel {
            stuck_per_million: 300_000,
            ..model()
        };
        let mut st = FaultState::new(m, 1, 1, 256, 4);
        let before: (Vec<u64>, Vec<u64>) = {
            let (a, b) = st.stuck_col(2);
            (a.to_vec(), b.to_vec())
        };
        st.retire(2, 50).unwrap();
        let (a, b) = st.stuck_col(2);
        assert!(
            (a, b) != (&before.0[..], &before.1[..]),
            "spare device should have different stuck bits at 30% density"
        );
    }

    #[test]
    fn slab_round_trips_through_arrays() {
        let m = model();
        let mut slab = SlabFaultState::new(m, 4, 2, 3, 100, 6);
        slab.advance_epoch();
        slab.retire(1, 2, 200).unwrap();
        slab.retire(1, 2, 200).unwrap();
        assert!(slab.retire(1, 4, 300).is_err());
        let arrays: Vec<FaultState> = (0..3).map(|pe| slab.to_array(pe)).collect();
        assert_eq!(arrays[1].retired, vec![(2, 6), (2, 7)]);
        assert_eq!(arrays[1].failed, Some((4, 300)));
        assert_eq!(arrays[0].pe, 4);
        assert_eq!(arrays[2].pe, 6);
        let rebuilt = SlabFaultState::from_arrays(&arrays.iter().collect::<Vec<_>>());
        assert_eq!(rebuilt, slab);
    }

    #[test]
    fn slab_to_array_matches_standalone_construction() {
        let m = model();
        let slab = SlabFaultState::new(m, 10, 1, 4, 96, 5);
        for pe in 0..4 {
            assert_eq!(slab.to_array(pe), FaultState::new(m, 10 + pe, 1, 96, 5));
        }
    }
}

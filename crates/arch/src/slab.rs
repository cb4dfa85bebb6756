//! The slab execution engine: trace segments over contiguous multi-PE
//! arenas.
//!
//! [`crate::ApMachine`], the interpreter oracle, stores each PE as its own
//! [`HyperPe`] — per-column `Vec<u64>` pairs whose scattered layout defeats
//! the cache — and dispatches every instruction once per PE.
//! [`SlabMachine`] instead compiles the streams into traces
//! ([`crate::trace`]) and executes them over [`TcamSlab`] arenas: each
//! group's PEs are partitioned into a few 64-aligned chunks,
//! and a segment micro-op runs **once per chunk** as a fused bit-plane
//! kernel — each 64-bit ALU op processes the same cell position across 64
//! PEs at once ([`TcamSlab::search_plan_multi_into`] and friends), with
//! partially-active chunks driven through a word-granular selection mask
//! instead of per-PE loops. The engine runs on its caller's thread; host
//! parallelism lives one level up, in the serving pool's one machine per
//! worker.
//!
//! # Equivalence guarantee
//!
//! The engine is bit-identical to [`crate::ApMachine`] — PE state (cells,
//! tags, latch, per-PE op counts, wear), data registers, `RunStats`, and
//! cross-run key-register state all match (property-tested in
//! `tests/slab_engine_equivalence.rs`):
//!
//! * The fused kernels are property-tested against the per-PE
//!   [`hyperap_tcam::array::TcamArray`] operations (tcam's
//!   `tests/slab_properties.rs`).
//! * Segments execute micro-ops in program order; within one micro-op the
//!   PEs are independent, so sweeping PEs per op commutes with the per-PE
//!   engine's op-per-PE order.
//! * Synchronization points apply the interpreter's instruction semantics
//!   over the slab, in the same ascending-PE order, with every
//!   storage-independent rule (bank gating, `MovR` routing, register
//!   targets, immediate decoding) taken from the crate's shared `control`
//!   module. The event loop (`trace::drive_steps`) schedules steps by the
//!   interpreter's `(issue cycle, group)` key.

use crate::config::ArchConfig;
use crate::control::{self, ActiveSet, MovStep, WriteTarget};
use crate::similarity::{SimilarityHit, SimilarityOutcome};
use crate::stats::{PeHealth, RunGeometry, RunStats};
use crate::trace::{self, CompiledTrace, MicroOp, PlanRef, Segment, StepKind};
use hyperap_core::machine::HyperPe;
use hyperap_isa::{Direction, Instruction};
use hyperap_model::timing::OpCounts;
use hyperap_tcam::bit::{KeyBit, TernaryBit};
use hyperap_tcam::encoding::encode_pair;
use hyperap_tcam::key::SearchKey;
use hyperap_tcam::slab::{hamming_topk_multi, SweepOp, TagSlab, TcamSlab};
use hyperap_tcam::tags::TagVector;
use hyperap_tcam::FaultError;

/// A group's key-register state snapshotted at trace-run entry: the key
/// plus its precompiled active-column plan (consumed by `PlanRef::Entry`
/// micro-ops).
type KeySnapshot = (SearchKey, Vec<(usize, KeyBit)>);

/// One contiguous arena covering a sub-range of a group's PEs, with every
/// per-PE register file the engine needs in matching multi-PE layout.
#[derive(Debug, Clone)]
struct SlabChunk {
    /// Group-relative index of the chunk's first PE.
    base: usize,
    /// PEs in this chunk (the last chunk of a group may be short).
    pes: usize,
    /// TCAM cell state + wear.
    storage: TcamSlab,
    /// Tag registers.
    tags: TagSlab,
    /// Encoder DFF stage (latched search results).
    latch: TagSlab,
    /// Data registers.
    regs: TagSlab,
    /// Per-PE operation counters (chunk-relative indexing).
    ops: Vec<OpCounts>,
    /// Word-granular active-PE selection mask (`pes.div_ceil(64)` words,
    /// bit `p` = chunk-relative PE `p` active), refreshed per dispatch.
    /// Ragged broadcasts cost the same as contiguous ones: every kernel
    /// takes the whole mask in one sweep.
    active: Vec<u64>,
    /// Cached summary of `active`: every chunk PE is active (kernels get
    /// `sel = None`, the mask-free fast path).
    all_active: bool,
    /// Cached summary of `active`: at least one chunk PE is active.
    any_active: bool,
    /// Monotonic write-tracking counter for `ops` — the slab/tag arenas
    /// track their own versions, but the per-PE op counters live outside
    /// them, so checkpoint dirty-detection needs this one too. Bumped
    /// conservatively wherever `ops` can change; never reset.
    ops_version: u64,
}

impl SlabChunk {
    fn new(base: usize, pes: usize, rows: usize, cols: usize) -> Self {
        SlabChunk {
            base,
            pes,
            storage: TcamSlab::new(pes, rows, cols),
            tags: TagSlab::zeros(pes, rows),
            latch: TagSlab::zeros(pes, rows),
            regs: TagSlab::zeros(pes, rows),
            ops: vec![OpCounts::default(); pes],
            active: vec![0; pes.div_ceil(64)],
            all_active: false,
            any_active: false,
            ops_version: 0,
        }
    }

    /// Recompute the chunk's word-granular active-PE mask from the group
    /// mask.
    fn refresh_active(&mut self, group_mask: &[bool]) {
        self.active.fill(0);
        let mut count = 0usize;
        for i in 0..self.pes {
            if group_mask[self.base + i] {
                self.active[i / 64] |= 1u64 << (i % 64);
                count += 1;
            }
        }
        self.any_active = count > 0;
        self.all_active = count == self.pes;
    }

    /// Run a whole segment over this chunk: each micro-op executes **once**
    /// as a fused kernel sweeping the entire chunk under the active-PE
    /// selection mask, and the segment's per-PE `OpCounts` delta lands in
    /// one `add` per active PE.
    fn exec_segment(
        &mut self,
        seg: &Segment,
        plans: &[Vec<(usize, KeyBit)>],
        entry: Option<&KeySnapshot>,
        pe_delta: &OpCounts,
        group_mask: &[bool],
    ) {
        self.refresh_active(group_mask);
        if !self.any_active {
            return;
        }
        let base = self.base;
        let Self {
            storage,
            tags,
            latch,
            regs,
            active,
            all_active,
            ..
        } = self;
        let sel: Option<&[u64]> = if *all_active {
            None
        } else {
            Some(active.as_slice())
        };
        let resolve = |plan: &PlanRef| -> &[(usize, KeyBit)] {
            match plan {
                PlanRef::Entry => entry.expect("entry key snapshotted").1.as_slice(),
                PlanRef::Compiled(p) => plans[*p].as_slice(),
            }
        };
        let store = |value: KeyBit| -> TernaryBit {
            value.write_value().expect("compiler emits storing writes")
        };
        // Batch every run of search/write micro-ops into one
        // [`TcamSlab::sweep_program`] call so the whole run executes tile by
        // tile over cache-resident windows instead of one full-arena sweep
        // per op. Ops that touch the latch, registers, or the narrow path
        // (`encode`, `SetTag`/`ReadTag`, `WriteEncoded`, `SearchDelta`)
        // flush the pending batch first and run as before — they need the
        // tags exactly as the batch leaves them.
        let mut plan_arena: Vec<&[(usize, KeyBit)]> = Vec::with_capacity(seg.ops.len() * 2);
        let mut write_arena: Vec<(usize, TernaryBit)> = Vec::with_capacity(seg.ops.len());
        // (plan range, acc, write range) into the arenas, one per batched op.
        let mut pend: Vec<(std::ops::Range<usize>, bool, std::ops::Range<usize>)> =
            Vec::with_capacity(seg.ops.len());
        macro_rules! flush {
            () => {
                if !pend.is_empty() {
                    let sweep_ops: Vec<SweepOp<'_>> = pend
                        .drain(..)
                        .map(|(pr, acc, wr)| SweepOp {
                            plans: &plan_arena[pr],
                            acc,
                            writes: &write_arena[wr],
                        })
                        .collect();
                    storage.sweep_program(&sweep_ops, tags.words_mut(), sel);
                    drop(sweep_ops);
                    plan_arena.clear();
                    write_arena.clear();
                }
            };
        }
        for op in &seg.ops {
            match op {
                MicroOp::Search { plan, acc, encode } => {
                    let p0 = plan_arena.len();
                    plan_arena.push(resolve(plan));
                    let w = write_arena.len();
                    pend.push((p0..p0 + 1, *acc, w..w));
                    if *encode {
                        flush!();
                        latch.copy_from_masked(tags, sel);
                    }
                }
                MicroOp::Write { col, value } => {
                    let (p, w0) = (plan_arena.len(), write_arena.len());
                    write_arena.push((*col as usize, store(*value)));
                    pend.push((p..p, true, w0..w0 + 1));
                }
                MicroOp::WriteEntry { col } => {
                    let value = entry.expect("entry key snapshotted").0.bit(*col as usize);
                    if let Some(v) = value.write_value() {
                        let (p, w0) = (plan_arena.len(), write_arena.len());
                        write_arena.push((*col as usize, v));
                        pend.push((p..p, true, w0..w0 + 1));
                    }
                }
                MicroOp::WriteEncoded { col } => {
                    flush!();
                    storage.write_encoded_multi(*col as usize, latch.words(), tags.words(), sel);
                }
                MicroOp::SetTag => {
                    flush!();
                    tags.copy_from_masked(regs, sel);
                }
                MicroOp::ReadTag => {
                    flush!();
                    regs.copy_from_masked(tags, sel);
                }
                MicroOp::SearchWrite {
                    plan,
                    acc,
                    encode,
                    col,
                    value,
                } => {
                    let (p0, w0) = (plan_arena.len(), write_arena.len());
                    plan_arena.push(resolve(plan));
                    write_arena.push((*col as usize, store(*value)));
                    pend.push((p0..p0 + 1, *acc, w0..w0 + 1));
                    if *encode {
                        flush!();
                        latch.copy_from_masked(tags, sel);
                    }
                }
                MicroOp::SearchWriteMulti {
                    plans: chain,
                    acc,
                    encode,
                    writes,
                } => {
                    let (p0, w0) = (plan_arena.len(), write_arena.len());
                    plan_arena.extend(chain.iter().map(&resolve));
                    write_arena.extend(
                        writes
                            .iter()
                            .map(|&(col, value)| (col as usize, store(value))),
                    );
                    pend.push((p0..p0 + chain.len(), *acc, w0..w0 + writes.len()));
                    if *encode {
                        flush!();
                        latch.copy_from_masked(tags, sel);
                    }
                }
                MicroOp::WriteMulti { writes } => {
                    // An empty-chain fused sweep: `acc` keeps the tags, so the
                    // kernel degenerates to "apply every write in one pass".
                    let (p0, w0) = (plan_arena.len(), write_arena.len());
                    write_arena.extend(
                        writes
                            .iter()
                            .map(|&(col, value)| (col as usize, store(value))),
                    );
                    pend.push((p0..p0, true, w0..w0 + writes.len()));
                }
                MicroOp::SearchDelta { plan, encode } => {
                    flush!();
                    storage.search_narrow_multi(plans[*plan].as_slice(), sel, tags.words_mut());
                    if *encode {
                        latch.copy_from_masked(tags, sel);
                    }
                }
            }
        }
        flush!();
        self.ops_version = self.ops_version.wrapping_add(1);
        for (i, pe_ops) in self.ops.iter_mut().enumerate() {
            if group_mask[base + i] {
                pe_ops.add(pe_delta);
            }
        }
    }
}

/// Borrowed view of one slab chunk's serializable state — everything a
/// checkpoint must capture to restore the chunk bit-identically (the
/// active-mask cache and trace cache are recomputed, not state).
#[derive(Debug)]
pub struct ChunkState<'a> {
    /// Global index of the chunk's first PE.
    pub global_base: usize,
    /// PEs in the chunk.
    pub pes: usize,
    /// TCAM cells + wear + fault bookkeeping.
    pub storage: &'a TcamSlab,
    /// Tag registers.
    pub tags: &'a TagSlab,
    /// Encoder DFF stage.
    pub latch: &'a TagSlab,
    /// Data registers.
    pub regs: &'a TagSlab,
    /// Per-PE operation counters.
    pub ops: &'a [OpCounts],
}

/// Owned state of one restored chunk — the decode-side counterpart of
/// [`ChunkState`], fed to [`SlabMachine::restore_chunks`]. Payload chunks
/// need not match the target machine's chunking: restore re-slices them
/// (the migration path).
#[derive(Debug, Clone)]
pub struct ChunkPayload {
    /// Global index of the payload's first PE.
    pub global_base: usize,
    /// TCAM cells + wear + fault bookkeeping.
    pub storage: TcamSlab,
    /// Tag registers.
    pub tags: TagSlab,
    /// Encoder DFF stage.
    pub latch: TagSlab,
    /// Data registers.
    pub regs: TagSlab,
    /// Per-PE operation counters.
    pub ops: Vec<OpCounts>,
}

/// Per-group controller state outside the chunk arenas — key registers,
/// compiled key plans, bank masks, and `ReadR` data buffers. Small and
/// serialized whole by every checkpoint (no dirty tracking).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineExtras {
    /// Per-group search-key registers.
    pub keys: Vec<SearchKey>,
    /// Per-group compiled key plans. Stored verbatim, **not** recomputed
    /// from the key: traces install narrowed plans that a fresh
    /// `compile_plan` would widen.
    pub key_plans: Vec<Vec<(usize, KeyBit)>>,
    /// Per-group bank masks.
    pub bank_masks: Vec<u8>,
    /// Per-group controller data buffers (last `ReadR` result).
    pub data_buffers: Vec<TagVector>,
}

/// Failure modes of [`SlabMachine::restore_chunks`] /
/// [`SlabMachine::set_machine_extras`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// Payload chunks do not tile the machine's PEs exactly (gap, overlap,
    /// group-boundary straddle, or wrong total).
    Coverage,
    /// A payload's internal geometry (rows, cols, tag shapes, op-counter
    /// length, or fault-state presence/base) contradicts the machine's
    /// config.
    Geometry,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Coverage => write!(f, "restore payload does not tile the machine's PEs"),
            RestoreError::Geometry => write!(f, "restore payload geometry contradicts the config"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// A simulated Hyper-AP machine backed by slab storage — the fast engine,
/// bit-identical to the [`ApMachine`](crate::ApMachine) interpreter (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub struct SlabMachine {
    config: ArchConfig,
    /// PEs per chunk (the last chunk of each group may be short).
    chunk_pes: usize,
    /// Chunks per group.
    chunks_per_group: usize,
    /// All chunks, group-major (`group * chunks_per_group + chunk`).
    chunks: Vec<SlabChunk>,
    keys: Vec<SearchKey>,
    key_plans: Vec<Vec<(usize, KeyBit)>>,
    bank_masks: Vec<u8>,
    /// Controller data buffer (last `ReadR` result per group).
    pub data_buffers: Vec<TagVector>,
    active: Vec<ActiveSet>,
    /// `MovR` snapshot of one group's pushing registers (`[pe][block]`).
    mov_scratch: Vec<u64>,
    /// Decoded `WriteR` immediate.
    imm_scratch: TagVector,
    /// Content-addressed trace cache: the last compiled stream set and its
    /// traces. [`run`](Self::run) recompiles only when the incoming streams
    /// differ, so steady-state reruns of the same kernel pay one stream
    /// comparison instead of a full compile.
    trace_cache: Option<(Vec<Vec<Instruction>>, Vec<CompiledTrace>)>,
}

impl SlabMachine {
    /// Build a machine with the given geometry; all cells zero.
    ///
    /// The chunk width comes from [`crate::config::default_chunk_pes`]:
    /// every group is one arena, rounded up to whole 64-PE words, on every
    /// host, so every kernel sweep processes full `u64` PE words. The
    /// resolved geometry is logged in [`crate::stats::RunStats::geometry`].
    pub fn new(config: ArchConfig) -> Self {
        let width = crate::config::default_chunk_pes(config.pes_per_group());
        Self::with_chunk_pes(config, width)
    }

    /// [`new`](Self::new) with an explicit chunk width (tests sweep odd
    /// widths to exercise short tail chunks; `chunk_pes >= pes_per_group`
    /// gives one chunk per group).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_pes` is zero.
    pub fn with_chunk_pes(config: ArchConfig, chunk_pes: usize) -> Self {
        assert!(chunk_pes > 0, "chunk width must be non-zero");
        let per = config.pes_per_group();
        let cpg = per.div_ceil(chunk_pes);
        let mut chunks = Vec::with_capacity(config.groups * cpg);
        for g in 0..config.groups {
            for c in 0..cpg {
                let base = c * chunk_pes;
                let mut chunk =
                    SlabChunk::new(base, chunk_pes.min(per - base), config.rows, config.cols);
                if config.faults.is_active() {
                    // Seed each chunk's fault state at its first PE's
                    // *global* id, so every PE derives exactly the faults
                    // `ApMachine` gives it regardless of chunking.
                    chunk.storage.attach_fault(
                        config.faults.model,
                        config.faults.spare_cols,
                        g * per + base,
                    );
                }
                chunks.push(chunk);
            }
        }
        SlabMachine {
            chunk_pes,
            chunks_per_group: cpg,
            chunks,
            keys: vec![SearchKey::masked(config.cols); config.groups],
            key_plans: vec![Vec::new(); config.groups],
            bank_masks: vec![0xFF; config.groups],
            data_buffers: vec![TagVector::zeros(config.rows); config.groups],
            active: vec![ActiveSet::default(); config.groups],
            mov_scratch: Vec::new(),
            imm_scratch: TagVector::zeros(config.rows),
            trace_cache: None,
            config,
        }
    }

    /// Reset every piece of architectural state to the as-constructed
    /// machine — cells, tags, latches, data registers, op counters, wear,
    /// fault bookkeeping (re-seeded at the same global PE ids), search
    /// keys, bank masks, and data buffers — without reallocating the
    /// arenas. A scrubbed machine is bit-identical to a fresh
    /// [`new`](Self::new) of the same config: the serving layer scrubs
    /// between tenants so one job can never observe another's state. The
    /// content-addressed trace cache survives (it is invisible in results
    /// and exactly what a steady-state pool wants warm).
    pub fn scrub(&mut self) {
        for chunk in &mut self.chunks {
            chunk.storage.reset();
            chunk.tags.clear();
            chunk.latch.clear();
            chunk.regs.clear();
            chunk.ops.fill(OpCounts::default());
            chunk.ops_version = chunk.ops_version.wrapping_add(1);
            chunk.active.fill(0);
            chunk.all_active = false;
            chunk.any_active = false;
        }
        for key in &mut self.keys {
            *key = SearchKey::masked(self.config.cols);
        }
        for plan in &mut self.key_plans {
            plan.clear();
        }
        self.bank_masks.fill(0xFF);
        for buf in &mut self.data_buffers {
            buf.blocks_mut().fill(0);
        }
        self.active.fill(ActiveSet::default());
        self.mov_scratch.clear();
        self.imm_scratch.blocks_mut().fill(0);
    }

    /// The machine geometry.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// PEs per slab chunk.
    pub fn chunk_pes(&self) -> usize {
        self.chunk_pes
    }

    /// Locate a PE: `(chunk index, chunk-relative slot)`.
    fn chunk_of(&self, pe: usize) -> (usize, usize) {
        locate(
            self.config.pes_per_group(),
            self.chunks_per_group,
            self.chunk_pes,
            pe,
        )
    }

    /// The resolved execution geometry logged in [`RunStats::geometry`].
    fn geometry(&self) -> RunGeometry {
        RunGeometry {
            chunk_pes: self.chunk_pes,
            chunks_per_group: self.chunks_per_group,
            pe_words: self.chunk_pes.div_ceil(64),
        }
    }

    /// Snapshot one PE as a standalone [`HyperPe`] (cells, wear, tags,
    /// latch, per-PE op counts) — the comparison/readout path; costs a
    /// conversion, so not for hot loops.
    pub fn pe_snapshot(&self, pe: usize) -> HyperPe {
        let (c, s) = self.chunk_of(pe);
        let chunk = &self.chunks[c];
        HyperPe::from_parts(
            chunk.storage.to_array(s),
            chunk.tags.to_tagvector(s),
            chunk.latch.to_tagvector(s),
            chunk.ops[s],
        )
    }

    /// A PE's data register (copied out).
    pub fn data_reg(&self, pe: usize) -> TagVector {
        let (c, s) = self.chunk_of(pe);
        self.chunks[c].regs.to_tagvector(s)
    }

    /// A group's controller data buffer.
    pub fn data_buffer(&self, group: usize) -> &TagVector {
        &self.data_buffers[group]
    }

    // ----- checkpoint surface -----

    /// Number of slab chunks (`groups * chunks_per_group`) — the dirty
    /// tracking and snapshot granularity of the checkpoint layer.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Borrow one chunk's serializable state.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    pub fn chunk_state(&self, chunk: usize) -> ChunkState<'_> {
        let per = self.config.pes_per_group();
        let c = &self.chunks[chunk];
        ChunkState {
            global_base: (chunk / self.chunks_per_group) * per + c.base,
            pes: c.pes,
            storage: &c.storage,
            tags: &c.tags,
            latch: &c.latch,
            regs: &c.regs,
            ops: &c.ops,
        }
    }

    /// One chunk's write-tracking fingerprint: the version counters of the
    /// storage arena, the three tag planes, and the op counters. Two equal
    /// fingerprints taken across a span of operations prove the chunk's
    /// serializable state did not change (the counters only ever advance);
    /// unequal fingerprints prove nothing — bumps are conservative.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    pub fn chunk_fingerprint(&self, chunk: usize) -> [u64; 5] {
        let c = &self.chunks[chunk];
        [
            c.storage.version(),
            c.tags.version(),
            c.latch.version(),
            c.regs.version(),
            c.ops_version,
        ]
    }

    /// Copy out the per-group controller state outside the chunk arenas.
    pub fn machine_extras(&self) -> MachineExtras {
        MachineExtras {
            keys: self.keys.clone(),
            key_plans: self.key_plans.clone(),
            bank_masks: self.bank_masks.clone(),
            data_buffers: self.data_buffers.clone(),
        }
    }

    /// Install per-group controller state from a checkpoint, invalidating
    /// the derived active-set caches.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Geometry`] when any vector's length or element shape
    /// contradicts the machine's config.
    pub fn set_machine_extras(&mut self, extras: MachineExtras) -> Result<(), RestoreError> {
        let groups = self.config.groups;
        // Key registers may be wider than the array (`lower()` emits
        // KEY_COLUMNS-wide keys on any geometry), so only the per-group
        // shape and the plan/buffer column bounds are checked.
        if extras.keys.len() != groups
            || extras.key_plans.len() != groups
            || extras.bank_masks.len() != groups
            || extras.data_buffers.len() != groups
            || extras
                .key_plans
                .iter()
                .any(|plan| plan.iter().any(|&(col, _)| col >= self.config.cols))
            || extras
                .data_buffers
                .iter()
                .any(|b| b.len() != self.config.rows)
        {
            return Err(RestoreError::Geometry);
        }
        self.keys = extras.keys;
        self.key_plans = extras.key_plans;
        self.bank_masks = extras.bank_masks;
        self.data_buffers = extras.data_buffers;
        self.active.fill(ActiveSet::default());
        Ok(())
    }

    /// Replace every chunk's state from checkpoint payloads. Payload
    /// chunking need not match this machine's: a payload written by a
    /// machine with different `chunk_pes` is re-sliced through the lossless
    /// per-PE array conversions (wear and fault bookkeeping carried along)
    /// — the shard-migration path. Either way the restored machine is
    /// bit-identical to the one that produced the payloads: every
    /// `pe_snapshot`, data register, wear counter, spare remap, and fault
    /// latch matches.
    ///
    /// The derived caches (active sets, scratch, trace cache) are reset;
    /// the controller extras are restored separately via
    /// [`set_machine_extras`](Self::set_machine_extras).
    ///
    /// # Errors
    ///
    /// [`RestoreError::Coverage`] when the payloads do not tile the
    /// machine's PEs exactly or straddle a group boundary;
    /// [`RestoreError::Geometry`] when a payload's shape or fault state
    /// contradicts the config.
    pub fn restore_chunks(&mut self, mut parts: Vec<ChunkPayload>) -> Result<(), RestoreError> {
        let (rows, cols) = (self.config.rows, self.config.cols);
        let per = self.config.pes_per_group();
        parts.sort_by_key(|p| p.global_base);
        let mut next = 0usize;
        for p in &parts {
            let pes = p.storage.pes();
            if p.global_base != next || pes == 0 {
                return Err(RestoreError::Coverage);
            }
            // Chunks never span groups on any legal machine.
            if p.global_base / per != (p.global_base + pes - 1) / per {
                return Err(RestoreError::Coverage);
            }
            if p.storage.rows() != rows
                || p.storage.cols() != cols
                || [&p.tags, &p.latch, &p.regs]
                    .iter()
                    .any(|t| t.pes() != pes || t.rows() != rows)
                || p.ops.len() != pes
                || p.storage.fault().is_some() != self.config.faults.is_active()
                || p.storage.fault().is_some_and(|f| f.pe0 != p.global_base)
            {
                return Err(RestoreError::Geometry);
            }
            next += pes;
        }
        if next != self.config.total_pes() {
            return Err(RestoreError::Coverage);
        }
        let aligned = parts.len() == self.chunks.len()
            && parts
                .iter()
                .zip(self.chunks.iter())
                .enumerate()
                .all(|(i, (p, c))| {
                    p.global_base == (i / self.chunks_per_group) * per + c.base
                        && p.storage.pes() == c.pes
                });
        if aligned {
            for (chunk, p) in self.chunks.iter_mut().zip(parts) {
                chunk.storage = p.storage;
                chunk.tags = p.tags;
                chunk.latch = p.latch;
                chunk.regs = p.regs;
                chunk.ops = p.ops;
                chunk.ops_version = chunk.ops_version.wrapping_add(1);
            }
        } else {
            // Migration: explode the payloads into per-PE arrays and
            // re-slice them along this machine's chunk boundaries.
            let mut arrays = Vec::with_capacity(self.config.total_pes());
            let mut tags = Vec::with_capacity(self.config.total_pes());
            let mut latches = Vec::with_capacity(self.config.total_pes());
            let mut regs = Vec::with_capacity(self.config.total_pes());
            let mut ops = Vec::with_capacity(self.config.total_pes());
            for p in &parts {
                arrays.extend(p.storage.to_arrays());
                for s in 0..p.storage.pes() {
                    tags.push(p.tags.to_tagvector(s));
                    latches.push(p.latch.to_tagvector(s));
                    regs.push(p.regs.to_tagvector(s));
                }
                ops.extend_from_slice(&p.ops);
            }
            for (i, chunk) in self.chunks.iter_mut().enumerate() {
                let base = (i / self.chunks_per_group) * per + chunk.base;
                let range = base..base + chunk.pes;
                chunk.storage = TcamSlab::from_arrays(&arrays[range.clone()]);
                let mut t = TagSlab::zeros(chunk.pes, rows);
                let mut l = TagSlab::zeros(chunk.pes, rows);
                let mut r = TagSlab::zeros(chunk.pes, rows);
                for (s, g) in range.clone().enumerate() {
                    t.set_pe(s, &tags[g]);
                    l.set_pe(s, &latches[g]);
                    r.set_pe(s, &regs[g]);
                }
                chunk.tags = t;
                chunk.latch = l;
                chunk.regs = r;
                chunk.ops = ops[range].to_vec();
                chunk.ops_version = chunk.ops_version.wrapping_add(1);
            }
        }
        for chunk in &mut self.chunks {
            chunk.active.fill(0);
            chunk.all_active = false;
            chunk.any_active = false;
        }
        self.active.fill(ActiveSet::default());
        self.mov_scratch.clear();
        self.imm_scratch.blocks_mut().fill(0);
        self.trace_cache = None;
        Ok(())
    }

    // ----- host data-load path (mirrors `HyperPe`'s; free) -----

    /// Host load: store a plain bit in one PE.
    pub fn load_bit(&mut self, pe: usize, row: usize, col: usize, value: bool) {
        let (c, s) = self.chunk_of(pe);
        self.chunks[c].storage.set_cell(
            s,
            row,
            col,
            hyperap_tcam::bit::TernaryBit::from_bool(value),
        );
    }

    /// Host load: store a logical bit pair `(hi, lo)` in two-bit-encoded
    /// form at columns `col`, `col + 1` of one PE.
    pub fn load_encoded_pair(&mut self, pe: usize, row: usize, col: usize, hi: bool, lo: bool) {
        let (c, s) = self.chunk_of(pe);
        let cells = encode_pair(hi, lo);
        self.chunks[c].storage.set_cell(s, row, col, cells[0]);
        self.chunks[c].storage.set_cell(s, row, col + 1, cells[1]);
    }

    /// Host read: a plain bit (`None` if the cell stores `X`).
    pub fn read_bit(&self, pe: usize, row: usize, col: usize) -> Option<bool> {
        let (c, s) = self.chunk_of(pe);
        self.chunks[c].storage.cell(s, row, col).to_bool()
    }

    /// Host read: decode the encoded pair at columns `col`, `col + 1` of
    /// one PE into `(hi, lo)`.
    ///
    /// # Panics
    ///
    /// Panics if the cells do not hold a valid two-bit code.
    pub fn read_encoded_pair(&self, pe: usize, row: usize, col: usize) -> (bool, bool) {
        let (c, s) = self.chunk_of(pe);
        let v = hyperap_tcam::encoding::decode_pair([
            self.chunks[c].storage.cell(s, row, col),
            self.chunks[c].storage.cell(s, row, col + 1),
        ])
        .expect("valid two-bit code");
        (v & 0b10 != 0, v & 0b01 != 0)
    }

    /// CAM-native batch similarity query: the top-`k` stored words across
    /// every PE by ternary Hamming distance to `query`, searched over the
    /// first `rows` rows of each PE.
    ///
    /// This is the word-parallel engine: each chunk accumulates per-row
    /// miss counts into counter bit-planes — 64 PEs per machine word —
    /// and the priced threshold schedule runs once on counts summed across
    /// chunks, followed by a host-side exact select of the top `k`
    /// ([`hamming_topk_multi`]). Bit-identical in hits *and* [`RunStats`]
    /// to [`ApMachine::hamming_topk`](crate::ApMachine::hamming_topk)
    /// under every chunk width; see [`crate::similarity`].
    /// Read-only: no wear, no epoch advance.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `rows` exceeds the machine's rows.
    pub fn hamming_topk(&self, query: &SearchKey, rows: usize, k: usize) -> SimilarityOutcome {
        assert!(rows <= self.config.rows, "row limit exceeds machine");
        let plan = query.compile_plan();
        let per = self.config.pes_per_group();
        let parts: Vec<(&TcamSlab, usize)> = self
            .chunks
            .iter()
            .enumerate()
            .map(|(ci, c)| (&c.storage, (ci / self.chunks_per_group) * per + c.base))
            .collect();
        let topk = hamming_topk_multi(&parts, &plan, rows, k);
        let hits = topk
            .hits
            .iter()
            .map(|h| SimilarityHit {
                distance: h.distance,
                pe: h.pe,
                row: h.row,
            })
            .collect();
        SimilarityOutcome {
            hits,
            stats: crate::similarity::query_stats(
                &self.config,
                topk.active,
                topk.rounds,
                Some(self.geometry()),
            ),
        }
    }

    /// The single nearest stored word to `query` —
    /// [`hamming_topk`](Self::hamming_topk) with `k = 1`.
    pub fn nearest(&self, query: &SearchKey, rows: usize) -> SimilarityOutcome {
        self.hamming_topk(query, rows, 1)
    }

    /// Run one instruction stream per group to completion — identical
    /// contract and results to [`ApMachine::run`](crate::ApMachine::run),
    /// executed through compiled traces ([`crate::trace`]).
    ///
    /// Compiled traces are cached by stream content: rerunning the same
    /// streams (the steady state of a kernel executed many times) skips
    /// recompilation entirely. Caching is invisible in the results —
    /// identical streams compile to identical traces.
    pub fn run(&mut self, streams: &[Vec<Instruction>]) -> RunStats {
        self.try_run(streams)
            .unwrap_or_else(|e| panic!("fault degradation: {e}"))
    }

    /// [`run`](Self::run) surfacing fault degradation as a typed error
    /// instead of a panic — identical contract (including the exact error)
    /// to [`ApMachine::try_run`](crate::ApMachine::try_run).
    pub fn try_run(&mut self, streams: &[Vec<Instruction>]) -> Result<RunStats, FaultError> {
        let cached = self
            .trace_cache
            .take()
            .filter(|(s, _)| s.as_slice() == streams);
        let (key, traces) = match cached {
            Some(hit) => hit,
            None => (
                streams.to_vec(),
                trace::compile_streams(streams, &self.config),
            ),
        };
        let stats = self.try_run_compiled(&traces);
        self.trace_cache = Some((key, traces));
        stats
    }

    /// Fail fast on a latched spare-exhaustion failure (scanning chunks in
    /// global PE order — chunk construction is group-major, so vector
    /// order IS ascending global order), then open a new run epoch.
    fn begin_run(&mut self) -> Result<(), FaultError> {
        if !self.config.faults.is_active() {
            return Ok(());
        }
        for chunk in &self.chunks {
            if let Some(f) = chunk.storage.fault() {
                for (pe, failed) in f.failed.iter().enumerate() {
                    if let Some((col, wear)) = *failed {
                        return Err(FaultError::SparesExhausted {
                            pe: f.pe0 + pe,
                            col,
                            wear,
                        });
                    }
                }
            }
        }
        for chunk in &mut self.chunks {
            chunk.storage.advance_epoch();
        }
        Ok(())
    }

    /// End-of-run endurance service in global ascending PE order (chunks
    /// in vector order, PEs ascending within each chunk — exactly
    /// `ApMachine`'s order), stopping at the first exhaustion, then report
    /// per-PE degradation in [`RunStats::pe_health`].
    fn finish_run(&mut self, stats: &mut RunStats) -> Result<(), FaultError> {
        if !self.config.faults.is_active() {
            return Ok(());
        }
        for chunk in &mut self.chunks {
            chunk.storage.service_endurance()?;
        }
        for chunk in &self.chunks {
            let Some(f) = chunk.storage.fault() else {
                continue;
            };
            for (pe, retired) in f.retired.iter().enumerate() {
                if !retired.is_empty() {
                    stats.pe_health.push(PeHealth {
                        pe: f.pe0 + pe,
                        retired: retired.clone(),
                        spares_left: f.spares_left(pe),
                    });
                }
            }
        }
        Ok(())
    }

    /// Run precompiled traces ([`trace::compile_streams`]) — the hot path
    /// behind [`try_run`](Self::try_run), reusable when the same streams
    /// execute many times. Identical results (and the same typed error on
    /// fault degradation) as
    /// [`ApMachine::try_run`](crate::ApMachine::try_run) on the streams the
    /// traces were compiled from.
    ///
    /// The event loop schedules whole *steps* (segments or single
    /// synchronization points) by the interpreter's `(issue cycle, group)`
    /// key. Segment-internal micro-ops touch only group-private state, so
    /// running a segment as one block commutes with every other group's
    /// work; synchronization points retire in exactly the interpreter's
    /// order because all cycle costs are static.
    pub fn try_run_compiled(&mut self, traces: &[CompiledTrace]) -> Result<RunStats, FaultError> {
        self.try_run_compiled_inner(traces)
    }

    /// [`try_run_compiled`](Self::try_run_compiled) over borrowed traces —
    /// the shared-cache execution path: a serving layer holding compiled
    /// programs behind `Arc`s (possibly the same program repeated across
    /// groups) runs them without cloning a single trace.
    pub fn try_run_compiled_refs(
        &mut self,
        traces: &[&CompiledTrace],
    ) -> Result<RunStats, FaultError> {
        self.try_run_compiled_inner(traces)
    }

    fn try_run_compiled_inner<T: std::borrow::Borrow<CompiledTrace>>(
        &mut self,
        traces: &[T],
    ) -> Result<RunStats, FaultError> {
        self.begin_run()?;
        let groups = self.config.groups;
        let mut stats = control::new_run_stats(groups, Some(self.geometry()));
        let n = groups.min(traces.len());
        // Snapshot each group's entry key state where the trace needs it (a
        // stream that searches or writes before its first SetKey inherits
        // whatever the key register held when the run started).
        let entries: Vec<Option<KeySnapshot>> = (0..n)
            .map(|g| {
                traces[g]
                    .borrow()
                    .uses_entry_key
                    .then(|| (self.keys[g].clone(), self.key_plans[g].clone()))
            })
            .collect();
        let clocks = trace::drive_steps(traces, groups, |g, step| match &step.kind {
            StepKind::Segment(si) => {
                let t = traces[g].borrow();
                let seg = &t.segments[*si];
                self.exec_segment(g, seg, &t.plans, entries[g].as_ref());
                stats.group_ops[g].add(&seg.ops_delta);
            }
            StepKind::Sync(inst) => self.execute_sync(g, inst, &mut stats),
        });
        // Leave the controller key registers exactly as the interpreter
        // would: the last SetKey of each stream wins.
        for (g, t) in traces.iter().enumerate().take(n) {
            let t = t.borrow();
            if let Some(key) = &t.final_key {
                self.keys[g].copy_from(key);
                let fp = t.final_plan.expect("a final key implies a plan");
                self.key_plans[g].clear();
                self.key_plans[g].extend_from_slice(&t.plans[fp]);
            }
        }
        stats.group_cycles = clocks;
        self.finish_run(&mut stats)?;
        Ok(stats)
    }

    fn refresh_active(&mut self, group: usize) {
        self.active[group].refresh(&self.config, group, self.bank_masks[group]);
    }

    /// Execute one segment: each of the group's chunks runs the entire
    /// micro-op list as fused sweeps.
    fn exec_segment(
        &mut self,
        group: usize,
        seg: &Segment,
        plans: &[Vec<(usize, KeyBit)>],
        entry: Option<&KeySnapshot>,
    ) {
        if seg.ops.is_empty() && seg.elided == OpCounts::default() {
            return; // bookkeeping-only segment (SetKey/Wait runs)
        }
        self.refresh_active(group);
        let cache = &self.active[group];
        if cache.count == 0 {
            return;
        }
        let pe_delta = seg.pe_ops_delta(entry.map(|e| &e.0));
        let cpg = self.chunks_per_group;
        let mask = &cache.mask;
        for chunk in &mut self.chunks[group * cpg..(group + 1) * cpg] {
            chunk.exec_segment(seg, plans, entry, &pe_delta, mask);
        }
    }

    /// Execute a synchronization-point step: the interpreter's instruction
    /// semantics, reimplemented over the slab. Only instructions the trace
    /// compiler can emit as sync steps appear here (`SyncClass::SyncPoint`,
    /// plus `SetTag`/`ReadTag` when demoted by `reg_sync`).
    fn execute_sync(&mut self, group: usize, inst: &Instruction, stats: &mut RunStats) {
        let per = self.config.pes_per_group();
        let base = group * per;
        match inst {
            Instruction::Count => {
                self.refresh_active(group);
                for i in 0..per {
                    if !self.active[group].mask[i] {
                        continue;
                    }
                    let (c, s) = self.chunk_of(base + i);
                    let chunk = &mut self.chunks[c];
                    chunk.ops[s].counts += 1;
                    chunk.ops_version = chunk.ops_version.wrapping_add(1);
                    let count = chunk.tags.count(s);
                    stats.count_results[group].push((base + i, count));
                }
                stats.group_ops[group].counts += 1;
            }
            Instruction::Index => {
                self.refresh_active(group);
                for i in 0..per {
                    if !self.active[group].mask[i] {
                        continue;
                    }
                    let (c, s) = self.chunk_of(base + i);
                    let chunk = &mut self.chunks[c];
                    chunk.ops[s].indexes += 1;
                    chunk.ops_version = chunk.ops_version.wrapping_add(1);
                    let index = chunk.tags.first_index(s);
                    stats.index_results[group].push((base + i, index));
                }
                stats.group_ops[group].indexes += 1;
            }
            Instruction::MovR { dir } => {
                self.mov_r(group, *dir);
                stats.group_ops[group].mov_rs += 1;
            }
            Instruction::ReadR { addr } => {
                let (c, s) = self.chunk_of(control::reg_pe(*addr, self.config.total_pes()));
                self.chunks[c]
                    .regs
                    .pe_blocks_into(s, self.data_buffers[group].blocks_mut());
            }
            Instruction::WriteR { addr, imm } => {
                control::decode_reg(imm, &mut self.imm_scratch);
                match control::write_target(*addr, self.config.total_pes()) {
                    WriteTarget::Group => {
                        // Word-parallel broadcast: one masked fill per chunk
                        // instead of a copy per active PE.
                        self.refresh_active(group);
                        let cpg = self.chunks_per_group;
                        let Self {
                            chunks,
                            active,
                            imm_scratch,
                            ..
                        } = self;
                        let mask = &active[group].mask;
                        for chunk in &mut chunks[group * cpg..(group + 1) * cpg] {
                            chunk.refresh_active(mask);
                            if !chunk.any_active {
                                continue;
                            }
                            let SlabChunk {
                                regs,
                                active,
                                all_active,
                                ..
                            } = chunk;
                            let sel = if *all_active {
                                None
                            } else {
                                Some(active.as_slice())
                            };
                            regs.broadcast(imm_scratch, sel);
                        }
                    }
                    WriteTarget::Pe(pe) => {
                        let (c, s) = self.chunk_of(pe);
                        self.chunks[c]
                            .regs
                            .set_pe_blocks(s, self.imm_scratch.blocks());
                    }
                }
            }
            Instruction::SetTag | Instruction::ReadTag => {
                self.refresh_active(group);
                let cpg = self.chunks_per_group;
                let Self { chunks, active, .. } = self;
                let mask = &active[group].mask;
                for chunk in &mut chunks[group * cpg..(group + 1) * cpg] {
                    chunk.refresh_active(mask);
                    if !chunk.any_active {
                        continue;
                    }
                    let SlabChunk {
                        tags,
                        regs,
                        active,
                        all_active,
                        ..
                    } = chunk;
                    let sel = if *all_active {
                        None
                    } else {
                        Some(active.as_slice())
                    };
                    if matches!(inst, Instruction::SetTag) {
                        tags.copy_from_masked(regs, sel);
                    } else {
                        regs.copy_from_masked(tags, sel);
                    }
                }
                stats.group_ops[group].tag_ops += 1;
            }
            Instruction::Broadcast { group_mask } => {
                self.bank_masks[group] = *group_mask;
                self.active[group].valid = false;
                stats.group_ops[group].broadcasts += 1;
            }
            Instruction::SetKey { .. }
            | Instruction::Search { .. }
            | Instruction::Write { .. }
            | Instruction::Wait { .. } => {
                unreachable!("PE-local instructions always fold into segments")
            }
        }
    }

    /// `MovR` over the slab registers, following [`control::mov_r`].
    fn mov_r(&mut self, group: usize, dir: Direction) {
        self.refresh_active(group);
        let per = self.config.pes_per_group();
        let bpp = self.config.rows.div_ceil(64);
        if self.mov_scratch.len() < per * bpp {
            self.mov_scratch.resize(per * bpp, 0);
        }
        let zeros = vec![0u64; bpp];
        let (cpg, width) = (self.chunks_per_group, self.chunk_pes);
        let Self {
            config,
            chunks,
            active,
            mov_scratch,
            ..
        } = self;
        let blocks = |slot: usize| slot * bpp..(slot + 1) * bpp;
        let at = |pe: usize| locate(per, cpg, width, pe);
        control::mov_r(config, group, &active[group].mask, dir, |step| match step {
            MovStep::Snapshot { slot, pe } => {
                let (c, s) = at(pe);
                chunks[c]
                    .regs
                    .pe_blocks_into(s, &mut mov_scratch[blocks(slot)]);
            }
            MovStep::Clear { pe } => {
                let (c, s) = at(pe);
                chunks[c].regs.set_pe_blocks(s, &zeros);
            }
            MovStep::Land { slot, dest } => {
                let (c, s) = at(dest);
                chunks[c].regs.set_pe_blocks(s, &mov_scratch[blocks(slot)]);
            }
        });
    }
}

/// Locate a PE in a group-major chunk layout of `per` PEs per group, `cpg`
/// chunks per group and `width` PEs per chunk: `(chunk index,
/// chunk-relative slot)`.
fn locate(per: usize, cpg: usize, width: usize, pe: usize) -> (usize, usize) {
    let (group, rel) = (pe / per, pe % per);
    (group * cpg + rel / width, rel % width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApMachine;

    fn search_key(s: &str) -> Instruction {
        Instruction::SetKey {
            key: SearchKey::parse(s).unwrap(),
        }
    }

    const SEARCH: Instruction = Instruction::Search {
        acc: false,
        encode: false,
    };

    #[test]
    fn simd_search_applies_to_all_pes_in_group() {
        let mut m = SlabMachine::new(ArchConfig::tiny());
        m.load_bit(0, 2, 0, true);
        m.load_bit(2, 2, 0, true);
        let stats = m.run(&[vec![search_key("1"), SEARCH, Instruction::Count]]);
        let counts: Vec<usize> = stats.count_results[0].iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, vec![1, 0, 1, 0]);
    }

    #[test]
    fn matches_ap_machine_on_a_small_program() {
        let stream = vec![
            search_key("1"),
            SEARCH,
            Instruction::ReadTag,
            Instruction::MovR {
                dir: Direction::Right,
            },
            Instruction::SetTag,
            Instruction::Count,
            Instruction::Index,
        ];
        let mut reference = ApMachine::new(ArchConfig::tiny());
        let mut slab = SlabMachine::with_chunk_pes(ArchConfig::tiny(), 3);
        for pe in [0, 2, 5] {
            reference.pe_mut(pe).load_bit(3, 0, true);
            slab.load_bit(pe, 3, 0, true);
        }
        let a = reference.run(std::slice::from_ref(&stream));
        let b = slab.run(std::slice::from_ref(&stream));
        assert_eq!(a, b);
        for pe in 0..reference.config().total_pes() {
            assert_eq!(reference.pe(pe), &slab.pe_snapshot(pe), "PE {pe}");
            assert_eq!(reference.data_reg(pe), &slab.data_reg(pe), "reg {pe}");
        }
    }

    #[test]
    fn scrub_restores_fresh_machine_behavior() {
        let dirtying = vec![
            search_key("1"),
            SEARCH,
            Instruction::Write {
                col: 2,
                encode: false,
            },
            Instruction::ReadTag,
            Instruction::Broadcast { group_mask: 0b01 },
            Instruction::Count,
        ];
        let probe = vec![
            search_key("--"),
            SEARCH,
            Instruction::Count,
            Instruction::Index,
        ];
        let mut pool = SlabMachine::new(ArchConfig::tiny());
        pool.load_bit(1, 0, 0, true);
        pool.run(std::slice::from_ref(&dirtying));
        pool.scrub();
        let mut fresh = SlabMachine::new(ArchConfig::tiny());
        // Same host loads on both, then the probe must be bit-identical —
        // nothing of the dirtying run (cells, tags, keys, bank masks, op
        // counters) may leak through the scrub.
        pool.load_bit(5, 1, 1, true);
        fresh.load_bit(5, 1, 1, true);
        let a = pool.run(std::slice::from_ref(&probe));
        let b = fresh.run(std::slice::from_ref(&probe));
        assert_eq!(a, b);
        for pe in 0..fresh.config().total_pes() {
            assert_eq!(pool.pe_snapshot(pe), fresh.pe_snapshot(pe), "PE {pe}");
            assert_eq!(pool.data_reg(pe), fresh.data_reg(pe), "reg {pe}");
        }
    }

    #[test]
    fn run_compiled_refs_matches_owned_traces() {
        let stream = vec![
            search_key("1"),
            SEARCH,
            Instruction::Write {
                col: 1,
                encode: false,
            },
            Instruction::Count,
        ];
        let cfg = ArchConfig::tiny();
        let traces = trace::compile_streams(&[stream.clone(), stream], &cfg);
        let mut owned = SlabMachine::new(cfg.clone());
        let mut refs = SlabMachine::new(cfg);
        owned.load_bit(2, 0, 0, true);
        refs.load_bit(2, 0, 0, true);
        let a = owned.try_run_compiled(&traces).unwrap();
        let trace_refs: Vec<&CompiledTrace> = traces.iter().collect();
        let b = refs.try_run_compiled_refs(&trace_refs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn short_tail_chunks_cover_every_pe() {
        // tiny(): 4 PEs per group; chunk width 3 gives chunks of 3 and 1.
        let m = SlabMachine::with_chunk_pes(ArchConfig::tiny(), 3);
        assert_eq!(m.chunks_per_group, 2);
        assert_eq!(m.chunks[0].pes, 3);
        assert_eq!(m.chunks[1].pes, 1);
        let pes: usize = m.chunks[..2].iter().map(|c| c.pes).sum();
        assert_eq!(pes, m.config.pes_per_group());
        assert_eq!(m.chunk_of(3), (1, 0));
        assert_eq!(m.chunk_of(4), (2, 0), "group 1 starts a new chunk row");
    }

    #[test]
    fn default_layout_is_host_independent() {
        // 256-PE groups: one 256-wide chunk per group on every host.
        let cfg = ArchConfig {
            subarrays_per_bank: 8,
            pes_per_subarray: 32,
            rows: 4,
            cols: 16,
            ..ArchConfig::tiny()
        };
        assert_eq!(cfg.pes_per_group(), 256);
        let mut m = SlabMachine::new(cfg);
        assert_eq!(m.chunk_pes(), 256);
        let stats = m.run(&[vec![search_key("1"), SEARCH, Instruction::Count]]);
        let geometry = stats.geometry.expect("slab runs log their geometry");
        assert_eq!(geometry.chunk_pes, 256);
        assert_eq!(geometry.chunks_per_group, 1);
        assert_eq!(geometry.pe_words, 4);
    }

    #[test]
    fn encoded_round_trip_through_host_paths() {
        let mut m = SlabMachine::new(ArchConfig::tiny());
        m.load_encoded_pair(1, 4, 10, true, false);
        assert_eq!(m.read_encoded_pair(1, 4, 10), (true, false));
        m.load_bit(1, 4, 20, true);
        assert_eq!(m.read_bit(1, 4, 20), Some(true));
        assert_eq!(m.read_bit(1, 4, 21), Some(false));
    }
}

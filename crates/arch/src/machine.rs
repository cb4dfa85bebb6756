//! The event-stepped machine executing per-group instruction streams.
//!
//! # Execution engine
//!
//! The default [`ApMachine::run`] path **trace-compiles** each stream
//! ([`crate::trace`]): instructions are decoded once into resolved
//! micro-ops and split into segments at cross-PE synchronization points.
//! Each segment executes with a single fork-join — every worker runs its
//! PE chunk through the *entire* segment before joining — so decode,
//! search-plan construction, and thread fan-out are amortized over whole
//! traces and each PE's columns stay cache-resident across a segment.
//! [`ApMachine::run_interpreted`] keeps the instruction-at-a-time engine
//! as the bit-identical reference (property-tested in
//! `tests/engine_equivalence.rs`).
//!
//! In both engines the fan-out is data-parallel — every PE's work is
//! independent — and runs on scoped threads ([`crate::par`]) when
//! [`ExecMode`] and the dispatch size warrant it. The steady-state path
//! performs no heap allocation: active-PE sets are cached per group and
//! invalidated only by `Broadcast`, searches reuse each PE's tag storage,
//! reductions land in a preallocated scratch slice, and `MovR` snapshots
//! into reusable register buffers.

use crate::config::{ArchConfig, ExecMode};
use crate::par;
use crate::similarity::{SimilarityHit, SimilarityOutcome};
use crate::stats::{PeHealth, RunStats};
use crate::trace::{self, CompiledTrace, MicroOp, PlanRef, Segment, StepKind};
use hyperap_core::machine::HyperPe;
use hyperap_isa::{Direction, Instruction};
use hyperap_model::timing::OpCounts;
use hyperap_tcam::bit::{KeyBit, TernaryBit};
use hyperap_tcam::key::SearchKey;
use hyperap_tcam::similarity as tcam_similarity;
use hyperap_tcam::tags::TagVector;
use hyperap_tcam::FaultError;

/// Broadcast PE address (re-exported from the ISA): `ReadR`/`WriteR` with
/// the all-ones 17-bit address target every PE of the issuing group.
pub use hyperap_isa::lower::BROADCAST_ADDR;

/// A group's key-register state snapshotted at trace-run entry: the key
/// plus its precompiled active-column plan (consumed by `PlanRef::Entry`
/// micro-ops).
pub(crate) type KeySnapshot = (SearchKey, Vec<(usize, KeyBit)>);

/// A group's cached active-PE set (the bank-mask filter evaluated once, not
/// once per instruction). Only `Broadcast` rewrites the bank mask, so only
/// `Broadcast` invalidates. Shared with the slab engine ([`crate::slab`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct ActiveSet {
    /// One flag per PE of the group, indexed relative to the group base.
    pub(crate) mask: Vec<bool>,
    /// Number of set flags.
    pub(crate) count: usize,
    /// False until (re)computed; cleared by `Broadcast`.
    pub(crate) valid: bool,
}

impl ActiveSet {
    /// Recompute the flags for one group if a `Broadcast` invalidated them.
    pub(crate) fn refresh(&mut self, config: &ArchConfig, group: usize, bank_mask: u8) {
        if self.valid {
            return;
        }
        let per = config.pes_per_group();
        let base = group * per;
        self.mask.clear();
        self.mask.resize(per, false);
        self.count = 0;
        for i in 0..per {
            let bank = config.bank_of(base + i);
            let on = bank >= 8 || bank_mask >> bank & 1 == 1;
            self.mask[i] = on;
            self.count += usize::from(on);
        }
        self.valid = true;
    }
}

/// Borrowed view of one group's execution state, with the fan-out width
/// already resolved for the current dispatch.
struct GroupCtx<'a> {
    /// Absolute PE id of the group's first PE.
    base: usize,
    /// The group's PEs.
    pes: &'a mut [HyperPe],
    /// The group's data registers (same indexing as `pes`).
    regs: &'a mut [TagVector],
    /// Per-PE reduction scratch (same indexing as `pes`).
    scratch: &'a mut [u64],
    /// Active flags (same indexing as `pes`).
    mask: &'a [bool],
    /// The group's key register.
    key: &'a SearchKey,
    /// The key's precompiled active-column plan (rebuilt on `SetKey`).
    plan: &'a [(usize, KeyBit)],
    /// Worker threads for this dispatch (1 = inline).
    threads: usize,
}

/// A simulated Hyper-AP machine.
#[derive(Debug, Clone)]
pub struct ApMachine {
    config: ArchConfig,
    /// Resolved host fan-out width for `config.exec`.
    threads: usize,
    pes: Vec<HyperPe>,
    data_regs: Vec<TagVector>,
    /// Per-group controller state: current key and bank-enable mask.
    keys: Vec<SearchKey>,
    /// Per-group precompiled key plans: the key's unmasked `(column, bit)`
    /// pairs, scanned once per `SetKey` instead of per PE per search.
    key_plans: Vec<Vec<(usize, KeyBit)>>,
    bank_masks: Vec<u8>,
    /// Controller data buffer (last `ReadR` result per group).
    pub data_buffers: Vec<TagVector>,
    /// Per-group cached active-PE sets.
    active: Vec<ActiveSet>,
    /// `Count`/`Index` fan-out results (one slot per PE of a group).
    reduce_scratch: Vec<u64>,
    /// `MovR` snapshot registers (lazily sized to one group).
    mov_scratch: Vec<TagVector>,
    /// Decoded `WriteR` immediate.
    imm_scratch: TagVector,
    /// Content-addressed trace cache: the last compiled stream set and its
    /// traces. [`run`](Self::run) recompiles only when the incoming streams
    /// differ, so steady-state reruns of the same kernel pay one stream
    /// comparison instead of a full compile.
    trace_cache: Option<(Vec<Vec<Instruction>>, Vec<CompiledTrace>)>,
}

impl ApMachine {
    /// Build a machine with the given geometry; all cells zero. When
    /// [`ArchConfig::faults`] is active, every PE gets the shared fault
    /// model attached under its global id (so each PE derives its own
    /// stuck cells / misses) plus the configured spare-column budget.
    pub fn new(config: ArchConfig) -> Self {
        let n = config.total_pes();
        let mut pes: Vec<HyperPe> = (0..n)
            .map(|_| HyperPe::new(config.rows, config.cols))
            .collect();
        if config.faults.is_active() {
            for (i, pe) in pes.iter_mut().enumerate() {
                pe.attach_fault(config.faults.model, config.faults.spare_cols, i);
            }
        }
        ApMachine {
            threads: config.exec.threads(),
            pes,
            data_regs: vec![TagVector::zeros(config.rows); n],
            keys: vec![SearchKey::masked(config.cols); config.groups],
            key_plans: vec![Vec::new(); config.groups],
            bank_masks: vec![0xFF; config.groups],
            data_buffers: vec![TagVector::zeros(config.rows); config.groups],
            active: vec![ActiveSet::default(); config.groups],
            reduce_scratch: vec![0; config.pes_per_group()],
            mov_scratch: Vec::new(),
            imm_scratch: TagVector::zeros(config.rows),
            trace_cache: None,
            config,
        }
    }

    /// The machine geometry.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Switch the engine's threading policy in place (results are identical
    /// under every mode; see [`ExecMode`]).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.config.exec = mode;
        self.threads = mode.threads();
    }

    /// Read access to a PE.
    pub fn pe(&self, id: usize) -> &HyperPe {
        &self.pes[id]
    }

    /// Mutable access to a PE (host data-load path).
    pub fn pe_mut(&mut self, id: usize) -> &mut HyperPe {
        &mut self.pes[id]
    }

    /// A PE's data register.
    pub fn data_reg(&self, id: usize) -> &TagVector {
        &self.data_regs[id]
    }

    /// CAM-native batch similarity query: the top-`k` stored words across
    /// every PE by ternary Hamming distance to `query`, searched over the
    /// first `rows` rows of each PE.
    ///
    /// This is the scalar per-PE reference engine — it walks every cell —
    /// and is bit-identical in hits *and* [`RunStats`] to
    /// [`SlabMachine::hamming_topk`](crate::SlabMachine::hamming_topk);
    /// see [`crate::similarity`] for the shared semantics and the
    /// accounting model. Winners are sorted ascending
    /// `(distance, pe, row)`. Read-only: no wear, no epoch advance.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `rows` exceeds the machine's rows.
    pub fn hamming_topk(&self, query: &SearchKey, rows: usize, k: usize) -> SimilarityOutcome {
        assert!(rows <= self.config.rows, "row limit exceeds machine");
        assert!(k > 0, "top-k requires k >= 1");
        let plan = query.compile_plan();
        let active = tcam_similarity::active_entries(&plan, self.config.cols);
        let total = self.config.total_pes();
        let mut distances = Vec::with_capacity(total * rows);
        for pe in 0..total {
            distances.extend(tcam_similarity::scalar_distances(
                self.pes[pe].array(),
                &plan,
                rows,
            ));
        }
        let sched = tcam_similarity::topk_schedule(&distances, active, k);
        let mut hits: Vec<SimilarityHit> = distances
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d <= sched.tau)
            .map(|(i, &d)| SimilarityHit {
                distance: d,
                pe: (i / rows) as u32,
                row: (i % rows) as u32,
            })
            .collect();
        hits.sort_unstable();
        hits.truncate(k);
        // Answers outlive the query: drop the gathered candidates' capacity.
        hits.shrink_to_fit();
        SimilarityOutcome {
            hits,
            stats: crate::similarity::query_stats(&self.config, active, sched.rounds, None),
        }
    }

    /// The single nearest stored word to `query` —
    /// [`hamming_topk`](Self::hamming_topk) with `k = 1`.
    pub fn nearest(&self, query: &SearchKey, rows: usize) -> SimilarityOutcome {
        self.hamming_topk(query, rows, 1)
    }

    /// Recompute the group's active-PE set if a `Broadcast` invalidated it.
    fn refresh_active(&mut self, group: usize) {
        self.active[group].refresh(&self.config, group, self.bank_masks[group]);
    }

    /// Borrow the group's execution state, active set refreshed and fan-out
    /// width resolved for a dispatch of `ops` per-PE micro-ops (1 for the
    /// interpreter's per-instruction dispatches, the segment length for
    /// trace execution) under the configured mode.
    fn group_ctx(&mut self, group: usize, ops: usize) -> GroupCtx<'_> {
        self.refresh_active(group);
        let per = self.config.pes_per_group();
        let base = group * per;
        let cache = &self.active[group];
        let threads = if cache.count < 2 {
            1
        } else {
            self.config.exec.dispatch_threads(
                self.threads,
                (cache.count * self.config.rows) as u64,
                ops as u64,
            )
        };
        GroupCtx {
            base,
            pes: &mut self.pes[base..base + per],
            regs: &mut self.data_regs[base..base + per],
            scratch: &mut self.reduce_scratch[..per],
            mask: &cache.mask,
            key: &self.keys[group],
            plan: &self.key_plans[group],
            threads,
        }
    }

    /// Run one instruction stream per group to completion (streams beyond
    /// [`ArchConfig::groups`] are ignored; missing streams idle).
    ///
    /// Returns cycle counts, SIMD-level operation counts, and reduction
    /// results. Timing is event-stepped: each group issues its next
    /// instruction when its previous one retires; `Wait` stalls implement
    /// compile-time synchronization (§IV-A12). The result is bit-identical
    /// under every [`ExecMode`]: the event order is fixed by the clocks, and
    /// within a dispatch each PE's work is independent with reduction
    /// results collected in ascending PE order.
    ///
    /// This is the trace-compiled engine: streams are precompiled into
    /// per-PE segment traces ([`crate::trace`]) and executed with one
    /// fork-join per segment. It is bit-identical to
    /// [`run_interpreted`](Self::run_interpreted) — including `RunStats`,
    /// per-PE operation counts, and wear accounting (property-tested in
    /// `tests/engine_equivalence.rs`).
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
    /// instead of a panic: a PE exhausting its spare columns aborts with
    /// [`FaultError::SparesExhausted`], and every later run fails fast on
    /// the latched failure. Identical to [`run`](Self::run) when no fault
    /// model is configured (it cannot fail then).
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

    /// Fail fast on a latched spare-exhaustion failure, then open a new
    /// run epoch (re-deriving every PE's transient search-miss set).
    /// No-op without an active fault model.
    fn begin_run(&mut self) -> Result<(), FaultError> {
        if !self.config.faults.is_active() {
            return Ok(());
        }
        for pe in &self.pes {
            if let Some(f) = pe.fault() {
                if let Some((col, wear)) = f.failed {
                    return Err(FaultError::SparesExhausted {
                        pe: f.pe,
                        col,
                        wear,
                    });
                }
            }
        }
        for pe in &mut self.pes {
            pe.advance_epoch();
        }
        Ok(())
    }

    /// End-of-run endurance service: retire worn columns onto spares in
    /// global ascending PE order (columns ascending within a PE), stopping
    /// at the first exhaustion, then report per-PE degradation in
    /// [`RunStats::pe_health`]. No-op without an active fault model.
    fn finish_run(&mut self, stats: &mut RunStats) -> Result<(), FaultError> {
        if !self.config.faults.is_active() {
            return Ok(());
        }
        for pe in &mut self.pes {
            pe.service_endurance()?;
        }
        stats.pe_health = self
            .pes
            .iter()
            .filter_map(|pe| {
                let f = pe.fault()?;
                (!f.retired.is_empty()).then(|| PeHealth {
                    pe: f.pe,
                    retired: f.retired.clone(),
                    spares_left: f.spares_left(),
                })
            })
            .collect();
        Ok(())
    }

    /// The instruction-at-a-time reference engine: identical semantics to
    /// [`run`](Self::run), dispatching every instruction per group per step
    /// with no trace compilation.
    pub fn run_interpreted(&mut self, streams: &[Vec<Instruction>]) -> RunStats {
        self.try_run_interpreted(streams)
            .unwrap_or_else(|e| panic!("fault degradation: {e}"))
    }

    /// [`run_interpreted`](Self::run_interpreted) surfacing fault
    /// degradation as a typed error (see [`try_run`](Self::try_run)).
    pub fn try_run_interpreted(
        &mut self,
        streams: &[Vec<Instruction>],
    ) -> Result<RunStats, FaultError> {
        self.begin_run()?;
        let groups = self.config.groups;
        let mut stats = RunStats {
            group_cycles: vec![0; groups],
            group_ops: vec![OpCounts::default(); groups],
            count_results: vec![Vec::new(); groups],
            index_results: vec![Vec::new(); groups],
            pe_health: Vec::new(),
            geometry: None,
        };
        // Event-driven: always step the group whose local clock is
        // earliest, so `Wait`-based synchronization orders cross-group
        // interactions (MovR handoffs) exactly as the compile-time schedule
        // intends (§IV-A12).
        let mut pcs = vec![0usize; groups];
        let mut clocks = vec![0u64; groups];
        loop {
            let next = (0..groups)
                .filter(|&g| streams.get(g).is_some_and(|s| pcs[g] < s.len()))
                .min_by_key(|&g| (clocks[g], g));
            let Some(g) = next else { break };
            let inst = &streams[g][pcs[g]];
            pcs[g] += 1;
            clocks[g] += inst.cycles(&self.config.tech);
            self.execute(g, inst, &mut stats);
        }
        stats.group_cycles = clocks;
        self.finish_run(&mut stats)?;
        Ok(stats)
    }

    /// Run precompiled traces ([`trace::compile_streams`]) — the hot path
    /// behind [`run`](Self::run), reusable when the same streams execute
    /// many times.
    ///
    /// The event loop schedules whole *steps* (segments or single
    /// synchronization points) by the interpreter's `(issue cycle, group)`
    /// key. Segment-internal micro-ops touch only group-private state, so
    /// running a segment as one block commutes with every other group's
    /// work; synchronization points retire in exactly the interpreter's
    /// order because all cycle costs are static.
    pub fn run_compiled(&mut self, traces: &[CompiledTrace]) -> RunStats {
        self.try_run_compiled(traces)
            .unwrap_or_else(|e| panic!("fault degradation: {e}"))
    }

    /// [`run_compiled`](Self::run_compiled) surfacing fault degradation as
    /// a typed error (see [`try_run`](Self::try_run)).
    pub fn try_run_compiled(&mut self, traces: &[CompiledTrace]) -> Result<RunStats, FaultError> {
        self.begin_run()?;
        let groups = self.config.groups;
        let mut stats = RunStats {
            group_cycles: vec![0; groups],
            group_ops: vec![OpCounts::default(); groups],
            count_results: vec![Vec::new(); groups],
            index_results: vec![Vec::new(); groups],
            pe_health: Vec::new(),
            geometry: None,
        };
        let n = groups.min(traces.len());
        // Snapshot each group's entry key state where the trace needs it (a
        // stream that searches or writes before its first SetKey inherits
        // whatever the key register held when the run started).
        let entries: Vec<Option<KeySnapshot>> = (0..n)
            .map(|g| {
                traces[g]
                    .uses_entry_key
                    .then(|| (self.keys[g].clone(), self.key_plans[g].clone()))
            })
            .collect();
        let clocks = trace::drive_steps(traces, groups, |g, step| match &step.kind {
            StepKind::Segment(si) => {
                let seg = &traces[g].segments[*si];
                self.exec_segment(g, seg, &traces[g].plans, entries[g].as_ref());
                stats.group_ops[g].add(&seg.ops_delta);
            }
            StepKind::Sync(inst) => self.execute(g, inst, &mut stats),
        });
        // Leave the controller key registers exactly as the interpreter
        // would: the last SetKey of each stream wins.
        for (g, t) in traces.iter().enumerate().take(n) {
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

    /// Execute one segment: a single fan-out where each worker runs its PE
    /// chunk through the entire micro-op list (the loop inversion that
    /// keeps a PE's columns cache-resident and pays one fork-join per
    /// segment).
    fn exec_segment(
        &mut self,
        group: usize,
        seg: &Segment,
        plans: &[Vec<(usize, KeyBit)>],
        entry: Option<&KeySnapshot>,
    ) {
        let bill_elided = seg.elided != OpCounts::default();
        if seg.ops.is_empty() && !bill_elided {
            return; // bookkeeping-only segment (SetKey/Wait runs)
        }
        let GroupCtx {
            pes,
            regs,
            mask,
            threads,
            ..
        } = self.group_ctx(group, seg.ops.len());
        let resolve = |plan: &PlanRef| -> &[(usize, KeyBit)] {
            match plan {
                PlanRef::Entry => entry.expect("entry key snapshotted").1.as_slice(),
                PlanRef::Compiled(p) => plans[*p].as_slice(),
            }
        };
        let store = |value: KeyBit| -> TernaryBit {
            value.write_value().expect("compiler emits storing writes")
        };
        // Fused ops carry their plan chain and write list by reference /
        // key bit; the resolved slice pointers and store values are
        // PE-invariant, so build them once per segment instead of per PE.
        type Chain<'a> = (
            [&'a [(usize, KeyBit)]; trace::MAX_FUSED],
            usize,
            [(usize, TernaryBit); trace::MAX_FUSED],
            usize,
        );
        let resolved: Vec<Option<Chain>> = seg
            .ops
            .iter()
            .map(|op| {
                let mut pbuf: [&[(usize, KeyBit)]; trace::MAX_FUSED] = [&[]; trace::MAX_FUSED];
                let mut wbuf = [(0usize, TernaryBit::X); trace::MAX_FUSED];
                match op {
                    MicroOp::SearchWrite {
                        plan, col, value, ..
                    } => {
                        pbuf[0] = resolve(plan);
                        wbuf[0] = (*col as usize, store(*value));
                        Some((pbuf, 1, wbuf, 1))
                    }
                    MicroOp::SearchWriteMulti {
                        plans: chain,
                        writes,
                        ..
                    } => {
                        for (k, p) in chain.iter().enumerate() {
                            pbuf[k] = resolve(p);
                        }
                        for (k, &(col, value)) in writes.iter().enumerate() {
                            wbuf[k] = (col as usize, store(value));
                        }
                        Some((pbuf, chain.len(), wbuf, writes.len()))
                    }
                    MicroOp::WriteMulti { writes } => {
                        for (k, &(col, value)) in writes.iter().enumerate() {
                            wbuf[k] = (col as usize, store(value));
                        }
                        Some((pbuf, 0, wbuf, writes.len()))
                    }
                    _ => None,
                }
            })
            .collect();
        par::for_each_chunk_zip(threads, pes, regs, |off, pes, regs| {
            for (i, pe) in pes.iter_mut().enumerate() {
                if !mask[off + i] {
                    continue;
                }
                let reg = &mut regs[i];
                for (oi, op) in seg.ops.iter().enumerate() {
                    match op {
                        MicroOp::Search { plan, acc, encode } => {
                            pe.search_planned(resolve(plan), *acc);
                            if *encode {
                                pe.latch_tags();
                            }
                        }
                        MicroOp::Write { col, value } => pe.write(*col as usize, *value),
                        MicroOp::WriteEntry { col } => {
                            let value = entry.expect("entry key snapshotted").0.bit(*col as usize);
                            if value.write_value().is_some() {
                                pe.write(*col as usize, value);
                            }
                        }
                        MicroOp::WriteEncoded { col } => pe.write_encoded(*col as usize),
                        MicroOp::SetTag => pe.set_tags_from(reg),
                        MicroOp::ReadTag => reg.copy_from(pe.tags()),
                        MicroOp::SearchWrite { acc, encode, .. }
                        | MicroOp::SearchWriteMulti { acc, encode, .. } => {
                            let (pbuf, np, wbuf, nw) =
                                resolved[oi].as_ref().expect("fused op resolved");
                            pe.search_write_multi(&pbuf[..*np], *acc, *encode, &wbuf[..*nw]);
                        }
                        MicroOp::WriteMulti { .. } => {
                            let (_, _, wbuf, nw) =
                                resolved[oi].as_ref().expect("fused op resolved");
                            pe.write_multi(&wbuf[..*nw]);
                        }
                        MicroOp::SearchDelta { plan, encode } => {
                            pe.search_narrow(&plans[*plan]);
                            if *encode {
                                pe.latch_tags();
                            }
                        }
                    }
                }
                if bill_elided {
                    pe.add_ops(&seg.elided);
                }
            }
        });
    }

    fn execute(&mut self, group: usize, inst: &Instruction, stats: &mut RunStats) {
        let ops = &mut stats.group_ops[group];
        match inst {
            Instruction::SetKey { key } => {
                self.keys[group].copy_from(key);
                key.plan_into(&mut self.key_plans[group]);
                ops.set_keys += 1;
            }
            Instruction::Search { acc, encode } => {
                let (acc, encode) = (*acc, *encode);
                let GroupCtx {
                    pes,
                    mask,
                    plan,
                    threads,
                    ..
                } = self.group_ctx(group, 1);
                par::for_each_chunk(threads, pes, |off, pes| {
                    for (i, pe) in pes.iter_mut().enumerate() {
                        if mask[off + i] {
                            pe.search_planned(plan, acc);
                            if encode {
                                pe.latch_tags();
                            }
                        }
                    }
                });
                ops.searches += 1;
            }
            Instruction::Write { col, encode } => {
                let (col, encode) = (*col as usize, *encode);
                let GroupCtx {
                    pes,
                    mask,
                    key,
                    threads,
                    ..
                } = self.group_ctx(group, 1);
                let value = key.bit(col);
                let store = value.write_value().is_some();
                par::for_each_chunk(threads, pes, |off, pes| {
                    for (i, pe) in pes.iter_mut().enumerate() {
                        if mask[off + i] {
                            if encode {
                                pe.write_encoded(col);
                            } else if store {
                                pe.write(col, value);
                            }
                        }
                    }
                });
                if encode {
                    ops.writes_encoded += 1;
                } else {
                    ops.writes_single += 1;
                }
            }
            Instruction::Count => {
                let GroupCtx {
                    base,
                    pes,
                    scratch,
                    mask,
                    threads,
                    ..
                } = self.group_ctx(group, 1);
                par::for_each_chunk_zip(threads, pes, &mut *scratch, |off, pes, out| {
                    for (i, pe) in pes.iter_mut().enumerate() {
                        if mask[off + i] {
                            out[i] = pe.count() as u64;
                        }
                    }
                });
                let results = &mut stats.count_results[group];
                for (i, &on) in mask.iter().enumerate() {
                    if on {
                        results.push((base + i, scratch[i] as usize));
                    }
                }
                stats.group_ops[group].counts += 1;
            }
            Instruction::Index => {
                let GroupCtx {
                    base,
                    pes,
                    scratch,
                    mask,
                    threads,
                    ..
                } = self.group_ctx(group, 1);
                // Option<usize> packed as value + 1 (0 = None) so the
                // scratch slice stays plain u64.
                par::for_each_chunk_zip(threads, pes, &mut *scratch, |off, pes, out| {
                    for (i, pe) in pes.iter_mut().enumerate() {
                        if mask[off + i] {
                            out[i] = pe.index().map_or(0, |v| v as u64 + 1);
                        }
                    }
                });
                let results = &mut stats.index_results[group];
                for (i, &on) in mask.iter().enumerate() {
                    if on {
                        let idx = scratch[i];
                        results.push((base + i, (idx > 0).then(|| idx as usize - 1)));
                    }
                }
                stats.group_ops[group].indexes += 1;
            }
            Instruction::MovR { dir } => {
                self.mov_r(group, *dir);
                ops.mov_rs += 1;
            }
            Instruction::ReadR { addr } => {
                let pe = (*addr as usize).min(self.pes.len() - 1);
                self.data_buffers[group].copy_from(&self.data_regs[pe]);
            }
            Instruction::WriteR { addr, imm } => {
                Self::decode_reg(imm, &mut self.imm_scratch);
                if *addr == BROADCAST_ADDR {
                    self.refresh_active(group);
                    let per = self.config.pes_per_group();
                    let base = group * per;
                    let mask = &self.active[group].mask;
                    let imm = &self.imm_scratch;
                    for (i, reg) in self.data_regs[base..base + per].iter_mut().enumerate() {
                        if mask[i] {
                            reg.copy_from(imm);
                        }
                    }
                } else {
                    let pe = (*addr as usize).min(self.pes.len() - 1);
                    self.data_regs[pe].copy_from(&self.imm_scratch);
                }
            }
            Instruction::SetTag => {
                let GroupCtx {
                    pes,
                    regs,
                    mask,
                    threads,
                    ..
                } = self.group_ctx(group, 1);
                par::for_each_chunk_zip(threads, pes, regs, |off, pes, regs| {
                    for (i, pe) in pes.iter_mut().enumerate() {
                        if mask[off + i] {
                            pe.set_tags_from(&regs[i]);
                        }
                    }
                });
                ops.tag_ops += 1;
            }
            Instruction::ReadTag => {
                let GroupCtx {
                    pes,
                    regs,
                    mask,
                    threads,
                    ..
                } = self.group_ctx(group, 1);
                par::for_each_chunk_zip(threads, pes, regs, |off, pes, regs| {
                    for (i, pe) in pes.iter_mut().enumerate() {
                        if mask[off + i] {
                            regs[i].copy_from(pe.tags());
                        }
                    }
                });
                ops.tag_ops += 1;
            }
            Instruction::Broadcast { group_mask } => {
                self.bank_masks[group] = *group_mask;
                self.active[group].valid = false;
                ops.broadcasts += 1;
            }
            Instruction::Wait { cycles } => {
                ops.wait_cycles += *cycles as u64;
            }
        }
    }

    /// MovR: every active PE *pushes* its data register to the mesh
    /// neighbor in `dir` (the paper: "reads the value in the data register
    /// of one PE and stores it into the data register of its adjacent PE" —
    /// the destination may belong to another group, which is how
    /// cross-group handoffs work under Wait synchronization). Active PEs
    /// whose upstream neighbor is not pushing shift zeros in, like a
    /// hardware shift chain; snapshot semantics throughout.
    fn mov_r(&mut self, group: usize, dir: Direction) {
        let (h, w) = self.config.mesh_dims();
        let per = self.config.pes_per_group();
        let base = group * per;
        self.refresh_active(group);
        if self.mov_scratch.len() < per {
            let rows = self.config.rows;
            self.mov_scratch.resize_with(per, || TagVector::zeros(rows));
        }
        let mask = &self.active[group].mask;
        // Snapshot the pushing registers into the reusable buffer.
        for (i, &on) in mask.iter().enumerate() {
            if on {
                self.mov_scratch[i].copy_from(&self.data_regs[base + i]);
            }
        }
        // Active PEs with no pushing upstream receive zeros…
        for i in 0..per {
            if !mask[i] {
                continue;
            }
            let pe = base + i;
            let (r, c) = (pe / w, pe % w);
            let upstream = match dir {
                Direction::Up => (r + 1 < h).then(|| pe + w),
                Direction::Down => (r > 0).then(|| pe - w),
                Direction::Left => (c + 1 < w).then(|| pe + 1),
                Direction::Right => (c > 0).then(|| pe - 1),
            };
            let pushing = upstream.is_some_and(|u| u >= base && u < base + per && mask[u - base]);
            if !pushing {
                self.data_regs[pe].clear();
            }
        }
        // …then pushes land (possibly into other groups' PEs).
        for (i, &on) in mask.iter().enumerate() {
            if !on {
                continue;
            }
            let pe = base + i;
            let (r, c) = (pe / w, pe % w);
            let dest = match dir {
                Direction::Up => (r > 0).then(|| pe - w),
                Direction::Down => (r + 1 < h).then(|| pe + w),
                Direction::Left => (c > 0).then(|| pe - 1),
                Direction::Right => (c + 1 < w).then(|| pe + 1),
            };
            if let Some(d) = dest {
                if d < self.data_regs.len() {
                    self.data_regs[d].copy_from(&self.mov_scratch[i]);
                }
            }
        }
    }

    /// Decode a `WriteR` immediate (little-endian byte image) into `out`;
    /// rows beyond the image read as zero. Shared with the slab engine.
    pub(crate) fn decode_reg(bytes: &[u8], out: &mut TagVector) {
        out.clear();
        for row in 0..out.len() {
            let byte = bytes.get(row / 8).copied().unwrap_or(0);
            if byte >> (row % 8) & 1 == 1 {
                out.set(row, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperap_tcam::bit::KeyBit;

    fn search_key(s: &str) -> Instruction {
        Instruction::SetKey {
            key: SearchKey::parse(s).unwrap(),
        }
    }

    #[test]
    fn simd_search_applies_to_all_pes_in_group() {
        let mut m = ApMachine::new(ArchConfig::tiny());
        // Group 0 owns PEs 0..4; load bit 0 of row 2 in PEs 0 and 2.
        m.pe_mut(0).load_bit(2, 0, true);
        m.pe_mut(2).load_bit(2, 0, true);
        let stats = m.run(&[vec![
            search_key("1"),
            Instruction::Search {
                acc: false,
                encode: false,
            },
            Instruction::Count,
        ]]);
        let counts: Vec<usize> = stats.count_results[0].iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, vec![1, 0, 1, 0]);
    }

    #[test]
    fn groups_run_independent_streams() {
        let mut m = ApMachine::new(ArchConfig::tiny());
        m.pe_mut(0).load_bit(0, 0, true); // group 0
        m.pe_mut(4).load_bit(0, 1, true); // group 1
        let g0 = vec![
            search_key("1"),
            Instruction::Search {
                acc: false,
                encode: false,
            },
            Instruction::Count,
        ];
        let g1 = vec![
            search_key("-1"),
            Instruction::Search {
                acc: false,
                encode: false,
            },
            Instruction::Count,
            Instruction::Wait { cycles: 50 },
        ];
        let stats = m.run(&[g0, g1]);
        assert_eq!(stats.count_results[0][0], (0, 1));
        assert_eq!(stats.count_results[1][0], (4, 1));
        // Wait extends group 1's makespan.
        assert!(stats.group_cycles[1] > stats.group_cycles[0]);
        assert_eq!(stats.makespan(), stats.group_cycles[1]);
    }

    #[test]
    fn write_uses_key_register_value() {
        let mut m = ApMachine::new(ArchConfig::tiny());
        m.pe_mut(1).load_bit(5, 0, true);
        m.run(&[vec![
            search_key("1"),
            Instruction::Search {
                acc: false,
                encode: false,
            },
            Instruction::SetKey {
                key: SearchKey::masked(64).with_bit(3, KeyBit::One),
            },
            Instruction::Write {
                col: 3,
                encode: false,
            },
        ]]);
        assert_eq!(m.pe(1).read_bit(5, 3), Some(true));
        assert_eq!(m.pe(1).read_bit(4, 3), Some(false));
        assert_eq!(m.pe(0).read_bit(5, 3), Some(false));
    }

    #[test]
    fn broadcast_gates_banks() {
        // tiny() has 1 bank per group, so disable it and verify no effect.
        let mut m = ApMachine::new(ArchConfig::tiny());
        m.pe_mut(0).load_bit(0, 0, true);
        let stats = m.run(&[vec![
            Instruction::Broadcast { group_mask: 0 }, // all banks off
            search_key("1"),
            Instruction::Search {
                acc: false,
                encode: false,
            },
            Instruction::Count,
        ]]);
        assert!(stats.count_results[0].is_empty(), "no active PEs");
    }

    #[test]
    fn broadcast_invalidates_cached_active_set() {
        // Regression: the active-PE cache must be recomputed after each
        // Broadcast, in both directions (on -> off -> on).
        let mut m = ApMachine::new(ArchConfig::tiny());
        m.pe_mut(0).load_bit(0, 0, true);
        let stats = m.run(&[vec![
            search_key("1"),
            Instruction::Search {
                acc: false,
                encode: false,
            },
            Instruction::Count, // bank on: 4 results
            Instruction::Broadcast { group_mask: 0 },
            Instruction::Count, // bank off: no results
            Instruction::Broadcast { group_mask: 0xFF },
            Instruction::Count, // bank back on: 4 more results
        ]]);
        assert_eq!(stats.count_results[0].len(), 8);
        assert_eq!(stats.count_results[0][0], (0, 1));
        assert_eq!(stats.count_results[0][4], (0, 1));
        assert_eq!(stats.group_ops[0].counts, 3);
    }

    #[test]
    fn exec_modes_agree_bitwise() {
        let stream = vec![
            search_key("1"),
            Instruction::Search {
                acc: false,
                encode: false,
            },
            Instruction::ReadTag,
            Instruction::MovR {
                dir: Direction::Right,
            },
            Instruction::SetTag,
            Instruction::Count,
            Instruction::Index,
        ];
        let run = |mode: ExecMode| {
            let mut cfg = ArchConfig::tiny();
            cfg.exec = mode;
            let mut m = ApMachine::new(cfg);
            m.pe_mut(0).load_bit(3, 0, true);
            m.pe_mut(2).load_bit(7, 0, true);
            let stats = m.run(std::slice::from_ref(&stream));
            (stats, m)
        };
        let (seq_stats, seq_m) = run(ExecMode::Sequential);
        let (par_stats, par_m) = run(ExecMode::Parallel);
        assert_eq!(seq_stats, par_stats);
        for pe in 0..seq_m.config().total_pes() {
            assert_eq!(seq_m.pe(pe), par_m.pe(pe), "PE {pe} state diverged");
            assert_eq!(seq_m.data_reg(pe), par_m.data_reg(pe));
        }
    }

    #[test]
    fn movr_shifts_data_registers_right() {
        let mut m = ApMachine::new(ArchConfig::tiny());
        // Put a pattern in PE 0's data register via WriteR, then MovR right.
        let stats = m.run(&[vec![
            Instruction::WriteR {
                addr: 0,
                imm: vec![0b101],
            },
            Instruction::MovR {
                dir: Direction::Right,
            },
        ]]);
        assert_eq!(stats.group_ops[0].mov_rs, 1);
        assert!(m.data_reg(1).get(0));
        assert!(!m.data_reg(1).get(1));
        assert!(m.data_reg(1).get(2));
    }

    #[test]
    fn readtag_movr_settag_transfers_tags_between_pes() {
        // The §IV-B local-communication idiom: column -> tags -> data reg ->
        // neighbor -> tags.
        let mut m = ApMachine::new(ArchConfig::tiny());
        m.pe_mut(0).load_bit(7, 0, true);
        m.run(&[vec![
            search_key("1"),
            Instruction::Search {
                acc: false,
                encode: false,
            },
            Instruction::ReadTag,
            Instruction::MovR {
                dir: Direction::Right,
            },
            Instruction::SetTag,
            Instruction::SetKey {
                key: SearchKey::masked(64).with_bit(1, KeyBit::One),
            },
            Instruction::Write {
                col: 1,
                encode: false,
            },
        ]]);
        assert_eq!(m.pe(1).read_bit(7, 1), Some(true), "transferred to PE 1");
        assert_eq!(m.pe(1).read_bit(6, 1), Some(false));
    }

    #[test]
    fn broadcast_writer_loads_all_data_registers() {
        let mut m = ApMachine::new(ArchConfig::tiny());
        m.run(&[vec![
            Instruction::WriteR {
                addr: BROADCAST_ADDR,
                imm: vec![0xFF; 64],
            },
            Instruction::SetTag,
            Instruction::Count,
        ]]);
        // All group-0 PEs count all rows tagged.
        let mut mm = ApMachine::new(ArchConfig::tiny());
        let stats = mm.run(&[vec![
            Instruction::WriteR {
                addr: BROADCAST_ADDR,
                imm: vec![0xFF; 64],
            },
            Instruction::SetTag,
            Instruction::Count,
        ]]);
        for &(_, c) in &stats.count_results[0] {
            assert_eq!(c, 16);
        }
    }

    #[test]
    fn cycle_accounting_is_deterministic() {
        let mut m = ApMachine::new(ArchConfig::tiny());
        let stream = vec![
            search_key("1"),
            Instruction::Search {
                acc: false,
                encode: false,
            },
            Instruction::SetKey {
                key: SearchKey::masked(64).with_bit(2, KeyBit::One),
            },
            Instruction::Write {
                col: 2,
                encode: false,
            },
        ];
        let stats = m.run(&[stream]);
        // 1 + 1 + 1 + 12 = 15 cycles.
        assert_eq!(stats.group_cycles[0], 15);
    }
}

//! Trace compilation: precompiled per-PE segment traces, executed by the
//! slab engine ([`crate::SlabMachine`]).
//!
//! The interpreter ([`crate::ApMachine::run`]) re-decodes every
//! [`Instruction`] per group per step and dispatches it once per PE.
//! Hyper-AP programs are bit-serial loops (the lowered 32-bit adder is 380
//! stream instructions of repeating `SetKey`/`Search`/`Write` shapes), so
//! almost all of that work can be hoisted out of the hot loop and paid once
//! per stream instead of once per instruction per PE.
//!
//! [`CompiledTrace::compile`] turns an `&[Instruction]` stream into:
//!
//! * **Resolved micro-ops** ([`MicroOp`]): every `SetKey` is folded into a
//!   precompiled `(column, bit)` search plan (shared by all PEs of the
//!   group), every `Search` and storing `Write` becomes one
//!   [`MicroOp::Sweep`] with its store value resolved at compile time, and
//!   the per-instruction bookkeeping (`OpCounts` deltas, Table-I cycles) is
//!   pre-aggregated per segment.
//! * **Segments** split at cross-PE synchronization points (`Count`,
//!   `Index`, `MovR`, `ReadR`/`WriteR` host transfers, `Broadcast`; see
//!   [`SyncClass`]). Within a segment every PE is independent, so execution
//!   inverts the loop: each chunk of PEs runs through the *entire segment*
//!   in turn — one pass over the chunks per segment instead of one per
//!   instruction.
//! * **Fused sweeps** from the peephole pass ([`CompiledTrace::peephole`],
//!   applied by [`compile`](CompiledTrace::compile) and skipped by
//!   [`compile_unfused`](CompiledTrace::compile_unfused)): the canonical AP
//!   rhythm `Search → [Search acc]* → Write…` collapses into one
//!   [`MicroOp::Sweep`] of several plans and writes, consecutive writes
//!   batch into one plan-less sweep, dead and redundant searches are
//!   elided (billed through [`Segment::elided`] so per-PE `OpCounts` stay
//!   architecturally unfused), and a search whose plan extends the
//!   previous one narrows the live tags incrementally via
//!   [`MicroOp::SearchDelta`]. A sweep is exactly one
//!   [`hyperap_tcam::slab::SweepOp`]; the slab engine hands each run of
//!   them to [`hyperap_tcam::slab::TcamSlab::sweep_program`], which never
//!   materializes intermediate tag vectors.
//!
//! # Equivalence guarantee
//!
//! Trace execution is bit-identical to the interpreter (property-tested in
//! `tests/slab_engine_equivalence.rs` over fused and unfused traces,
//! including `RunStats`, per-PE `OpCounts` and wear accounting) because:
//!
//! * Segment-internal micro-ops touch only PE-private state (TCAM cells,
//!   tags, latch) — no other group can observe them, so executing a whole
//!   segment as one block commutes with every other group's work.
//! * `SetTag`/`ReadTag` touch the group's data registers, which *are*
//!   remotely writable (`MovR`/`ReadR`/`WriteR`). They stay segment-internal
//!   only when no **other** stream contains a remote-register instruction
//!   ([`Instruction::touches_remote_regs`]); otherwise the compiler demotes
//!   them to synchronization points, restoring instruction-granular order.
//! * Synchronization points execute the interpreter's instruction
//!   semantics, and the event loop schedules *steps* by the same
//!   `(issue cycle, group)` key the interpreter uses for instructions — all
//!   cycle costs are static (Table I), so sync points from different groups
//!   retire in exactly the interpreter's order.
//!
//! # Fault-model soundness
//!
//! The peephole pass stays bit-identical under an active
//! [`hyperap_tcam::FaultModel`] (`tests/fault_equivalence.rs`) because
//! every fault mechanism is invariant under the rewrites it performs:
//!
//! * **Stuck cells** are a property of the *storage*, enforced idempotently
//!   after every write path. Fusing a search→write chain changes when the
//!   enforcement pass runs (once per written column at kernel end instead
//!   of per write), never what it computes — the fused kernel's tiles are
//!   disjoint and read before they write, so re-clamping a column at the
//!   end equals clamping after each store.
//! * **Transient search misses** are a pure function of `(PE, row, run
//!   epoch)`, static for an entire run. Eliding a dead or redundant search,
//!   or narrowing incrementally via [`MicroOp::SearchDelta`], is sound
//!   because the repeated/extended search would have masked exactly the
//!   same rows; the epoch only advances between runs, never inside one.
//! * **Endurance retirement** is serviced at run end, in global PE order,
//!   from wear counters the fused kernels maintain identically to the
//!   unfused ops — so remap tables and spare exhaustion cannot depend on
//!   fusion decisions.

use std::ops::Range;
use std::sync::Arc;

use crate::config::ArchConfig;
use hyperap_isa::{Instruction, SyncClass};
use hyperap_model::timing::OpCounts;
use hyperap_tcam::bit::{KeyBit, TernaryBit};
use hyperap_tcam::key::SearchKey;

/// Maximum number of search plans or write columns folded into one fused
/// [`MicroOp::Sweep`]. Longer chains split; the continuation chain starts
/// with `acc = true` and excess writes trail as their own sweeps.
pub const MAX_FUSED: usize = 8;

/// Which precompiled search plan a micro-op uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanRef {
    /// The key register's contents when the trace run starts (a stream may
    /// `Search` before its first `SetKey`, inheriting machine state).
    Entry,
    /// The plan compiled from the n-th `SetKey` of the stream.
    Compiled(usize),
}

/// One resolved per-PE operation of a segment. Everything a micro-op needs
/// beyond PE state is precomputed: plans are indices into the trace's plan
/// table, write values are resolved `TernaryBit`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MicroOp {
    /// One search/write sweep, executed as one
    /// [`hyperap_tcam::slab::SweepOp`]: `tags = (acc ? tags : 0) |
    /// match(plans₀) | …`, then every write is programmed under the final
    /// tags, in order (repeated columns behave like the unfused sequence).
    /// An unfused `Search` is one plan and no writes; an unfused storing
    /// `Write` is no plans, `acc = true` and one write (a write whose key
    /// bit is masked stores nothing, emits no micro-op and folds into the
    /// segment's `OpCounts` delta). The peephole fuses up to [`MAX_FUSED`]
    /// plans and writes each into one sweep.
    Sweep {
        /// This sweep's search plans in [`Segment::sweep_plans`], in
        /// program order.
        plans: Range<usize>,
        /// Whether the *first* plan accumulates into the incoming tags
        /// (the rest always accumulate).
        acc: bool,
        /// Latch the final tags into the encoder DFF stage for a later
        /// encoded write (only the last search of a fused chain may
        /// carry the flag; the writes leave the tags unchanged).
        encode: bool,
        /// This sweep's writes in [`Segment::sweep_writes`], in program
        /// order.
        writes: Range<usize>,
    },
    /// Single-column `Write` issued before the stream's first `SetKey`: the
    /// value comes from the entry key register at run time.
    WriteEntry {
        /// Target column.
        col: u8,
    },
    /// Encoded two-column `Write` through the two-bit encoder.
    WriteEncoded {
        /// First of the two target columns.
        col: u8,
    },
    /// Copy the PE's data register into its tags.
    SetTag,
    /// Copy the PE's tags into its data register.
    ReadTag,
    /// Incremental search: the previous search's plan is a subset of this
    /// one and its columns are unwritten since, so the live tags already
    /// hold the common prefix — narrow them by the extra `(column, bit)`
    /// entries only, skipping the row-mask re-initialization. `plan`
    /// indexes [`CompiledTrace::plans`] (delta plans are appended there by
    /// the peephole pass). Architecturally this is still one full
    /// `SetKey`+`Search`, and is counted as such.
    SearchDelta {
        /// Index of the delta plan in the trace's plan table.
        plan: usize,
        /// Latch the result for a later encoded write.
        encode: bool,
    },
}

/// A maximal run of instructions between synchronization points: per-PE
/// micro-ops plus the pre-aggregated group-level bookkeeping of every
/// instruction folded into it (including ops with no PE-state effect, e.g.
/// `SetKey` and `Wait`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Segment {
    /// Per-PE operations, in program order.
    pub ops: Vec<MicroOp>,
    /// The search plans of every [`MicroOp::Sweep`], one range per sweep
    /// (one arena per segment, so a trace clones without a heap block
    /// per op).
    pub sweep_plans: Vec<PlanRef>,
    /// The resolved `(column, value)` writes of every [`MicroOp::Sweep`],
    /// one range per sweep.
    pub sweep_writes: Vec<(u8, TernaryBit)>,
    /// Group-level `RunStats` delta for the folded instructions.
    pub ops_delta: OpCounts,
    /// Number of stream instructions folded into this segment.
    pub instructions: usize,
    /// Architectural per-PE ops the peephole pass elided (dead and
    /// redundant searches). The slab engine skips the work but every active PE
    /// is still billed these counts, so `OpCounts` — and with it the
    /// paper-facing cycle numbers — report the *unfused* instruction
    /// stream.
    pub elided: OpCounts,
}

impl Segment {
    /// Append the unfused sweep of one `Search`.
    fn push_search(&mut self, plan: PlanRef, acc: bool, encode: bool) {
        let (p, w) = (self.sweep_plans.len(), self.sweep_writes.len());
        self.sweep_plans.push(plan);
        self.ops.push(MicroOp::Sweep {
            plans: p..p + 1,
            acc,
            encode,
            writes: w..w,
        });
    }

    /// Append the unfused sweep of one storing single-column `Write`.
    fn push_write(&mut self, col: u8, value: TernaryBit) {
        let (p, w) = (self.sweep_plans.len(), self.sweep_writes.len());
        self.sweep_writes.push((col, value));
        self.ops.push(MicroOp::Sweep {
            plans: p..p,
            acc: true,
            encode: false,
            writes: w..w + 1,
        });
    }

    /// The `OpCounts` delta one *active PE* accrues executing this segment —
    /// what the interpreter adds to each PE for the folded instructions,
    /// pre-aggregated so the slab engine can account a whole segment with
    /// one `add` per active PE.
    ///
    /// `entry` is the group's entry-key snapshot; it decides whether a
    /// `WriteEntry` actually stores (a masked entry bit is a no-op the
    /// interpreter never reaches [`hyperap_core::machine::HyperPe::write`]
    /// for).
    ///
    /// # Panics
    ///
    /// Panics if the segment contains a `WriteEntry` and `entry` is `None`.
    pub fn pe_ops_delta(&self, entry: Option<&SearchKey>) -> OpCounts {
        let mut d = OpCounts::default();
        for op in &self.ops {
            match op {
                // Each plan is one architectural SetKey + Search, each
                // write one single-column write.
                MicroOp::Sweep { plans, writes, .. } => {
                    d.searches += plans.len() as u64;
                    d.set_keys += plans.len() as u64;
                    d.writes_single += writes.len() as u64;
                }
                MicroOp::WriteEntry { col } => {
                    let value = entry.expect("entry key snapshotted").bit(*col as usize);
                    if value.write_value().is_some() {
                        d.writes_single += 1;
                    }
                }
                MicroOp::WriteEncoded { .. } => d.writes_encoded += 1,
                // Tag transfers are counted at group level only.
                MicroOp::SetTag | MicroOp::ReadTag => {}
                MicroOp::SearchDelta { .. } => {
                    d.searches += 1;
                    d.set_keys += 1;
                }
            }
        }
        d.add(&self.elided);
        d
    }
}

/// One schedulable step of a compiled trace.
#[derive(Debug, Clone, PartialEq)]
pub enum StepKind {
    /// Run a whole segment (index into [`CompiledTrace::segments`]) in one
    /// pass over the group's chunks.
    Segment(usize),
    /// Execute one synchronization-point instruction with the
    /// interpreter's semantics.
    Sync(Instruction),
}

/// A step plus its total Table-I cycle cost (a segment's cost is the sum of
/// its folded instructions'), so the cross-group event loop can schedule
/// steps by the same `(issue cycle, group)` key the interpreter uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Cycle cost of the whole step.
    pub cycles: u64,
    /// What the step does.
    pub kind: StepKind,
}

/// A stream precompiled for segment execution. Compile once, run on any
/// machine with the geometry it was compiled for
/// ([`crate::SlabMachine::try_run_compiled`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompiledTrace {
    /// Scheduling steps in program order.
    pub steps: Vec<Step>,
    /// Segment bodies referenced by [`StepKind::Segment`].
    pub segments: Vec<Segment>,
    /// Precompiled search plans, one per `SetKey` in stream order.
    pub plans: Vec<Vec<(usize, KeyBit)>>,
    /// The last `SetKey`'s key — restored into the group's key register
    /// when the trace finishes, so a later run sees the same machine state
    /// the interpreter would leave.
    pub final_key: Option<SearchKey>,
    /// Plan-table index of [`final_key`](Self::final_key)'s compiled plan
    /// (`Some` iff `final_key` is). The peephole pass appends delta plans
    /// to [`plans`](Self::plans), so "the last plan" is not "the last
    /// `SetKey`'s plan" — the slab engine restores through this index.
    pub final_plan: Option<usize>,
    /// True if any micro-op reads the entry key/plan (the machine snapshots
    /// the group's key state at run start only when needed).
    pub uses_entry_key: bool,
}

impl CompiledTrace {
    /// Compile one stream and apply the [`peephole`](Self::peephole)
    /// fusion pass. `reg_sync` demotes `SetTag`/`ReadTag` to
    /// synchronization points — required when another group's stream can
    /// touch this group's data registers (see [`CompiledProgram::compile`],
    /// which derives the flag; pass `false` for a single-stream machine).
    pub fn compile(stream: &[Instruction], config: &ArchConfig, reg_sync: bool) -> Self {
        let mut trace = Self::compile_unfused(stream, config, reg_sync);
        trace.peephole();
        trace
    }

    /// Compile one stream without the peephole pass: every segment holds
    /// exactly the unfused micro-ops of its instructions. The equivalence
    /// suites run it next to the fused pipeline, and the benchmarks compare
    /// fusion to it.
    pub fn compile_unfused(stream: &[Instruction], config: &ArchConfig, reg_sync: bool) -> Self {
        let mut trace = CompiledTrace::default();
        let mut seg = Segment::default();
        let mut seg_cycles = 0u64;
        // The current key as a compile-time value: `None` until the first
        // SetKey (searches/writes before it resolve against the entry key).
        let mut cur_key: Option<&SearchKey> = None;
        let mut cur_plan = PlanRef::Entry;
        let flush = |trace: &mut CompiledTrace, seg: &mut Segment, seg_cycles: &mut u64| {
            if seg.instructions > 0 {
                trace.steps.push(Step {
                    cycles: *seg_cycles,
                    kind: StepKind::Segment(trace.segments.len()),
                });
                trace.segments.push(std::mem::take(seg));
            }
            *seg_cycles = 0;
        };
        for inst in stream {
            let sync = match inst.sync_class() {
                SyncClass::PeLocal => false,
                SyncClass::DataReg => reg_sync,
                SyncClass::SyncPoint => true,
            };
            if sync {
                flush(&mut trace, &mut seg, &mut seg_cycles);
                trace.steps.push(Step {
                    cycles: inst.cycles(&config.tech),
                    kind: StepKind::Sync(inst.clone()),
                });
                continue;
            }
            seg_cycles += inst.cycles(&config.tech);
            seg.instructions += 1;
            match inst {
                Instruction::SetKey { key } => {
                    trace.plans.push(key.compile_plan());
                    cur_plan = PlanRef::Compiled(trace.plans.len() - 1);
                    cur_key = Some(key);
                    seg.ops_delta.set_keys += 1;
                }
                Instruction::Search { acc, encode } => {
                    seg.push_search(cur_plan, *acc, *encode);
                    trace.uses_entry_key |= cur_plan == PlanRef::Entry;
                    seg.ops_delta.searches += 1;
                }
                Instruction::Write { col, encode } => {
                    if *encode {
                        seg.ops.push(MicroOp::WriteEncoded { col: *col });
                        seg.ops_delta.writes_encoded += 1;
                    } else {
                        seg.ops_delta.writes_single += 1;
                        match cur_key {
                            Some(key) => {
                                // A masked value stores nothing: no micro-op.
                                if let Some(value) = key.bit(*col as usize).write_value() {
                                    seg.push_write(*col, value);
                                }
                            }
                            None => {
                                seg.ops.push(MicroOp::WriteEntry { col: *col });
                                trace.uses_entry_key = true;
                            }
                        }
                    }
                }
                Instruction::SetTag => {
                    seg.ops.push(MicroOp::SetTag);
                    seg.ops_delta.tag_ops += 1;
                }
                Instruction::ReadTag => {
                    seg.ops.push(MicroOp::ReadTag);
                    seg.ops_delta.tag_ops += 1;
                }
                Instruction::Wait { cycles } => {
                    seg.ops_delta.wait_cycles += *cycles as u64;
                }
                // SyncPoint instructions never reach this arm.
                _ => unreachable!("sync points are flushed above"),
            }
        }
        flush(&mut trace, &mut seg, &mut seg_cycles);
        trace.final_key = cur_key.cloned();
        trace.final_plan = match cur_plan {
            PlanRef::Compiled(i) => Some(i),
            PlanRef::Entry => None,
        };
        trace
    }

    /// Rewrite every segment's micro-ops through the fusion peephole, in
    /// three passes per segment:
    ///
    /// 1. **Dead-search elimination** — a non-latching search whose tags
    ///    are overwritten (`SetTag` or a non-accumulating search) before
    ///    anything reads them is removed.
    /// 2. **Redundant / incremental searches** — a search identical to the
    ///    still-valid previous one is elided; one whose plan extends the
    ///    previous becomes a [`MicroOp::SearchDelta`] over the extra
    ///    entries only.
    /// 3. **Sweep fusion** — a maximal `Search → [Search acc]*` chain and
    ///    the write run right after it become one [`MicroOp::Sweep`], and
    ///    the rest of each write run batches into plan-less sweeps.
    ///
    /// Elided searches are billed through [`Segment::elided`]; fused
    /// sweeps bill their unfused constituents in [`Segment::pe_ops_delta`]
    /// — the pass never changes any `OpCounts` or cycle number, only the
    /// number of arena sweeps the slab engine performs.
    pub fn peephole(&mut self) {
        for seg in &mut self.segments {
            peephole::eliminate_dead_searches(seg);
            peephole::narrow_repeated_searches(seg, &mut self.plans);
            peephole::fuse_sweeps(seg);
        }
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of synchronization-point steps.
    pub fn sync_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Sync(_)))
            .count()
    }

    /// Total stream instructions represented (segments + sync points).
    pub fn instruction_count(&self) -> usize {
        self.segments.iter().map(|s| s.instructions).sum::<usize>() + self.sync_count()
    }
}

/// The segment-local rewrite passes behind [`CompiledTrace::peephole`].
mod peephole {
    use super::{KeyBit, MicroOp, PlanRef, Segment, MAX_FUSED};

    /// Remove searches whose tags nothing ever observes: every micro-op
    /// either reads the tags (a sweep's writes or accumulation,
    /// `WriteEntry`/`WriteEncoded`, `ReadTag`) or overwrites them
    /// (`SetTag`, a non-accumulating sweep), so a non-latching search is
    /// dead exactly when the next *surviving* op overwrites. One
    /// right-to-left pass decides every op against its final successor, so
    /// cascades (a chain of overwritten searches) die in linear time. Tags
    /// are live at segment end — a sync point or a later run may read
    /// them.
    pub(super) fn eliminate_dead_searches(seg: &mut Segment) {
        let mut overwritten = false;
        let mut dead = vec![false; seg.ops.len()];
        for (i, op) in seg.ops.iter().enumerate().rev() {
            match op {
                // A sweep that neither stores nor latches only defines tags.
                MicroOp::Sweep {
                    plans,
                    encode: false,
                    writes,
                    ..
                } if overwritten && writes.is_empty() => {
                    dead[i] = true;
                    seg.elided.searches += plans.len() as u64;
                    seg.elided.set_keys += plans.len() as u64;
                }
                _ => {
                    overwritten = matches!(op, MicroOp::SetTag | MicroOp::Sweep { acc: false, .. })
                }
            }
        }
        let mut dead = dead.into_iter();
        seg.ops.retain(|_| !dead.next().unwrap_or(false));
    }

    /// What pass 2 does with a repeated search.
    enum Rewrite {
        /// Tags already hold exactly this result: drop the op.
        Elide,
        /// Narrow the live tags by a delta plan (appended to the table).
        Delta(usize),
        /// No relation to the previous search: keep it as-is.
        Keep,
    }

    /// Elide searches identical to the still-valid previous one and turn
    /// plan-extension searches into incremental [`MicroOp::SearchDelta`]s.
    ///
    /// Validity: the tags hold `match(prev)` *as of the defining search*,
    /// so any rewrite requires that no column of `prev`'s plan has been
    /// written since (writes to the delta's extra columns are fine — the
    /// delta re-reads them). An `Entry` plan has unknown columns, so it
    /// only ever elides an identical `Entry` search with no intervening
    /// writes at all.
    pub(super) fn narrow_repeated_searches(
        seg: &mut Segment,
        plans: &mut Vec<Vec<(usize, KeyBit)>>,
    ) {
        let mut out = Vec::with_capacity(seg.ops.len());
        // Tags == match of this plan, computed when it was pushed…
        let mut known: Option<PlanRef> = None;
        // …modulo writes to these columns since then.
        let mut written: Vec<usize> = Vec::new();
        for op in std::mem::take(&mut seg.ops) {
            // A single non-accumulating search: the one shape this pass
            // rewrites.
            let fresh_search = match &op {
                MicroOp::Sweep {
                    plans: p,
                    acc: false,
                    encode,
                    writes,
                } if p.len() == 1 && writes.is_empty() => Some((seg.sweep_plans[p.start], *encode)),
                _ => None,
            };
            let Some((plan, encode)) = fresh_search else {
                match &op {
                    // Writes under the tags as they stand.
                    MicroOp::Sweep {
                        plans: p,
                        acc: true,
                        writes,
                        ..
                    } if p.is_empty() => {
                        let cols = seg.sweep_writes[writes.clone()].iter();
                        written.extend(cols.map(|&(col, _)| col as usize));
                    }
                    // Accumulation or a delta mixes old tags in; a register
                    // load or a fresh search replaces them: either way no
                    // single plan describes the result any more.
                    MicroOp::Sweep { .. } | MicroOp::SetTag | MicroOp::SearchDelta { .. } => {
                        known = None;
                        written.clear();
                    }
                    MicroOp::ReadTag => {}
                    MicroOp::WriteEntry { col } => written.push(*col as usize),
                    MicroOp::WriteEncoded { col } => {
                        written.push(*col as usize);
                        written.push(*col as usize + 1);
                    }
                }
                out.push(op);
                continue;
            };
            let rewrite = match (known, plan) {
                (Some(PlanRef::Compiled(prev)), PlanRef::Compiled(next)) => {
                    rewrite_compiled(prev, next, &written, encode, plans)
                }
                (Some(PlanRef::Entry), PlanRef::Entry) if written.is_empty() && !encode => {
                    Rewrite::Elide
                }
                _ => Rewrite::Keep,
            };
            match rewrite {
                Rewrite::Elide => {
                    // Tags unchanged: `known`/`written` stand.
                    seg.elided.searches += 1;
                    seg.elided.set_keys += 1;
                }
                Rewrite::Delta(delta) => {
                    out.push(MicroOp::SearchDelta {
                        plan: delta,
                        encode,
                    });
                    known = Some(plan);
                    written.clear();
                }
                Rewrite::Keep => {
                    out.push(op);
                    known = Some(plan);
                    written.clear();
                }
            }
        }
        seg.ops = out;
    }

    /// Decide between eliding, delta-narrowing, or keeping a compiled
    /// search whose predecessor's plan is `plans[prev]`.
    fn rewrite_compiled(
        prev: usize,
        next: usize,
        written: &[usize],
        encode: bool,
        plans: &mut Vec<Vec<(usize, KeyBit)>>,
    ) -> Rewrite {
        let (p, n) = (&plans[prev], &plans[next]);
        let prev_clobbered = written.iter().any(|&c| p.iter().any(|&(pc, _)| pc == c));
        if prev_clobbered || !p.iter().all(|e| n.contains(e)) {
            return Rewrite::Keep;
        }
        let delta: Vec<(usize, KeyBit)> = n.iter().filter(|e| !p.contains(e)).copied().collect();
        if delta.is_empty() && !encode {
            return Rewrite::Elide;
        }
        // An identical-but-latching search keeps an empty delta: the
        // engine skips the narrowing sweep and just latches the tags.
        plans.push(delta);
        Rewrite::Delta(plans.len() - 1)
    }

    /// Fuse sweeps: a search chain — a search followed by accumulating
    /// searches, up to [`MAX_FUSED`] plans, ended early by a latching
    /// search (the sweep latches its *final* tags) — absorbs the write
    /// run right after it, up to [`MAX_FUSED`] writes, and every other
    /// write run batches into plan-less sweeps of up to [`MAX_FUSED`]
    /// writes. A chain split at the cap continues as an accumulating
    /// chain over the tags the previous sweep left behind. Writes keep
    /// their order, so repeated columns behave like the unfused sequence;
    /// a sweep that already stores takes no later search, which would
    /// run before its writes. The arenas are rebuilt in op order, which
    /// also drops the entries of ops the earlier passes removed.
    pub(super) fn fuse_sweeps(seg: &mut Segment) {
        let plans_in = std::mem::take(&mut seg.sweep_plans);
        let writes_in = std::mem::take(&mut seg.sweep_writes);
        let (plans, writes) = (&mut seg.sweep_plans, &mut seg.sweep_writes);
        let mut out = Vec::with_capacity(seg.ops.len());
        let mut ops = std::mem::take(&mut seg.ops).into_iter().peekable();
        while let Some(op) = ops.next() {
            let MicroOp::Sweep {
                plans: p,
                acc,
                mut encode,
                writes: w,
            } = op
            else {
                out.push(op);
                continue;
            };
            let (p0, w0) = (plans.len(), writes.len());
            plans.extend_from_slice(&plans_in[p]);
            writes.extend_from_slice(&writes_in[w]);
            while plans.len() > p0 && writes.len() == w0 && !encode {
                let Some(MicroOp::Sweep {
                    plans: next,
                    acc: true,
                    encode: latch,
                    writes: next_writes,
                }) = ops.peek()
                else {
                    break;
                };
                if next.is_empty()
                    || !next_writes.is_empty()
                    || plans.len() - p0 + next.len() > MAX_FUSED
                {
                    break;
                }
                plans.extend_from_slice(&plans_in[next.clone()]);
                encode = *latch;
                ops.next();
            }
            while let Some(MicroOp::Sweep {
                plans: next,
                acc: true,
                encode: false,
                writes: next_writes,
            }) = ops.peek()
            {
                if !next.is_empty() || writes.len() - w0 + next_writes.len() > MAX_FUSED {
                    break;
                }
                writes.extend_from_slice(&writes_in[next_writes.clone()]);
                ops.next();
            }
            out.push(MicroOp::Sweep {
                plans: p0..plans.len(),
                acc,
                encode,
                writes: w0..writes.len(),
            });
        }
        seg.ops = out;
    }
}

/// The cross-group event loop of trace execution
/// ([`crate::SlabMachine::try_run_compiled`]):
/// repeatedly pick the group whose local clock is earliest (ties broken by
/// group index — the interpreter's `(issue cycle, group)` key), advance its
/// clock by the step's cycle cost, and hand the step to `f`. Returns the
/// final per-group clocks (groups beyond `traces.len()` idle at zero).
pub(crate) fn drive_steps<T, F>(traces: &[T], groups: usize, mut f: F) -> Vec<u64>
where
    T: std::borrow::Borrow<CompiledTrace>,
    F: FnMut(usize, &Step),
{
    let n = groups.min(traces.len());
    let mut steps = vec![0usize; n];
    let mut clocks = vec![0u64; groups];
    loop {
        let next = (0..n)
            .filter(|&g| steps[g] < traces[g].borrow().steps.len())
            .min_by_key(|&g| (clocks[g], g));
        let Some(g) = next else { break };
        let step = &traces[g].borrow().steps[steps[g]];
        steps[g] += 1;
        clocks[g] += step.cycles;
        f(g, step);
    }
    clocks
}

/// Content hash of a multi-group program, computed from the instruction
/// fields in 64-bit words with no allocation: one word per instruction
/// (opcode and scalar operands), `SetKey` keys packed 32 key bits per word
/// from [`SearchKey::bits`], `WriteR` immediates 8 bytes per word, and
/// stream counts and lengths as separators so stream boundaries are part
/// of the identity. Two stream sets with equal hashes are *probably*
/// equal — a shared program cache must still validate candidates with
/// full stream equality before reuse (the vectorized `SearchKey`
/// comparison makes that cheap), so a collision costs a recompile, never a
/// wrong program. The value is not persisted anywhere.
pub fn stream_set_hash(streams: &[Vec<Instruction>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u64| h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    eat(streams.len() as u64);
    for stream in streams {
        eat(stream.len() as u64);
        for inst in stream {
            // Opcode in the low byte, operands above it.
            let head = match inst {
                Instruction::Search { acc, encode } => {
                    u64::from(*acc) << 8 | u64::from(*encode) << 9
                }
                Instruction::Write { col, encode } => {
                    1 | u64::from(*col) << 8 | u64::from(*encode) << 16
                }
                Instruction::SetKey { key } => 2 | (key.width() as u64) << 8,
                Instruction::Count => 3,
                Instruction::Index => 4,
                Instruction::MovR { dir } => 5 | u64::from(dir.code()) << 8,
                Instruction::ReadR { addr } => 6 | u64::from(*addr) << 8,
                Instruction::WriteR { addr, imm } => {
                    7 | u64::from(*addr) << 8 | (imm.len() as u64) << 40
                }
                Instruction::SetTag => 8,
                Instruction::ReadTag => 9,
                Instruction::Broadcast { group_mask } => 10 | u64::from(*group_mask) << 8,
                Instruction::Wait { cycles } => 11 | u64::from(*cycles) << 8,
            };
            eat(head);
            match inst {
                Instruction::SetKey { key } => {
                    for bits in key.bits().chunks(32) {
                        eat(bits
                            .iter()
                            .enumerate()
                            .fold(0, |w, (i, &b)| w | (b as u64) << (2 * i)));
                    }
                }
                Instruction::WriteR { imm, .. } => {
                    for bytes in imm.chunks(8) {
                        eat(bytes
                            .iter()
                            .enumerate()
                            .fold(0, |w, (i, &b)| w | u64::from(b) << (8 * i)));
                    }
                }
                _ => {}
            }
        }
    }
    // Final avalanche (the splitmix64 finalizer): the per-word step mixes
    // upward only, so fold the high bits back down.
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A multi-group program compiled once for one machine geometry: what
/// [`crate::SlabMachine::try_run_compiled`] runs and what a serving layer
/// caches. Every compile-time fact about a stream set is derived here, once.
#[derive(Debug)]
pub struct CompiledProgram {
    /// One trace per group stream. Groups with equal `(stream, reg_sync)`
    /// share one `Arc`, so an SPMD program compiles its stream once.
    pub traces: Vec<Arc<CompiledTrace>>,
    /// True if some stream can touch remote data registers
    /// ([`Instruction::touches_remote_regs`]). Such a program depends on
    /// the whole machine's mesh, so it cannot share a machine with others.
    pub remote: bool,
}

impl CompiledProgram {
    /// Compile one stream per group, deriving each stream's `reg_sync`
    /// flag: a stream's `SetTag`/`ReadTag` stay segment-internal only if no
    /// *other* stream contains an instruction that can touch remote data
    /// registers ([`Instruction::touches_remote_regs`]).
    pub fn compile(streams: &[Vec<Instruction>], config: &ArchConfig) -> Self {
        Self::build(streams, config, CompiledTrace::compile)
    }

    fn build(
        streams: &[Vec<Instruction>],
        config: &ArchConfig,
        compile: fn(&[Instruction], &ArchConfig, bool) -> CompiledTrace,
    ) -> Self {
        let remote: Vec<bool> = streams
            .iter()
            .map(|s| s.iter().any(Instruction::touches_remote_regs))
            .collect();
        let remote_streams = remote.iter().filter(|&&r| r).count();
        let reg_syncs: Vec<bool> = remote
            .iter()
            .map(|&own| remote_streams > usize::from(own))
            .collect();
        // SPMD programs run the same stream on every group; identical
        // (stream, reg_sync) inputs share one compilation.
        let mut traces: Vec<Arc<CompiledTrace>> = Vec::with_capacity(streams.len());
        for (g, stream) in streams.iter().enumerate() {
            let dup = (0..g).find(|&p| reg_syncs[p] == reg_syncs[g] && streams[p] == *stream);
            traces.push(match dup {
                Some(p) => Arc::clone(&traces[p]),
                None => Arc::new(compile(stream, config, reg_syncs[g])),
            });
        }
        CompiledProgram {
            traces,
            remote: remote_streams > 0,
        }
    }

    fn into_traces(self) -> Vec<CompiledTrace> {
        self.traces.into_iter().map(Arc::unwrap_or_clone).collect()
    }
}

/// [`CompiledProgram::compile`] as one owned trace per stream.
pub fn compile_streams(streams: &[Vec<Instruction>], config: &ArchConfig) -> Vec<CompiledTrace> {
    CompiledProgram::compile(streams, config).into_traces()
}

/// [`compile_streams`] without the peephole pass — the unfused baseline for
/// the equivalence suites and the fusion benchmarks.
pub fn compile_streams_unfused(
    streams: &[Vec<Instruction>],
    config: &ArchConfig,
) -> Vec<CompiledTrace> {
    CompiledProgram::build(streams, config, CompiledTrace::compile_unfused).into_traces()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperap_isa::Direction;
    use proptest::prelude::*;

    fn cfg() -> ArchConfig {
        ArchConfig::tiny()
    }

    fn setkey(s: &str) -> Instruction {
        Instruction::SetKey {
            key: SearchKey::parse(s).unwrap(),
        }
    }

    const SEARCH: Instruction = Instruction::Search {
        acc: false,
        encode: false,
    };

    /// A micro-op with a sweep's arena ranges resolved, for comparisons.
    #[derive(Debug, PartialEq)]
    enum Op {
        Sweep(Vec<PlanRef>, bool, bool, Vec<(u8, TernaryBit)>),
        Other(MicroOp),
    }

    fn ops(seg: &Segment) -> Vec<Op> {
        seg.ops
            .iter()
            .map(|op| match op {
                MicroOp::Sweep {
                    plans,
                    acc,
                    encode,
                    writes,
                } => Op::Sweep(
                    seg.sweep_plans[plans.clone()].to_vec(),
                    *acc,
                    *encode,
                    seg.sweep_writes[writes.clone()].to_vec(),
                ),
                other => Op::Other(other.clone()),
            })
            .collect()
    }

    /// The unfused sweep of a plain `Search` of `plan`.
    fn search(plan: PlanRef) -> Op {
        Op::Sweep(vec![plan], false, false, vec![])
    }

    #[test]
    fn local_run_compiles_to_one_segment() {
        let stream = vec![
            setkey("1-"),
            SEARCH,
            setkey("-1"),
            Instruction::Write {
                col: 1,
                encode: false,
            },
            Instruction::Wait { cycles: 7 },
        ];
        let t = CompiledTrace::compile(&stream, &cfg(), false);
        assert_eq!(t.segment_count(), 1);
        assert_eq!(t.sync_count(), 0);
        assert_eq!(t.instruction_count(), 5);
        let seg = &t.segments[0];
        // SetKey and Wait fold into bookkeeping; the Search and Write fuse
        // into one sweep.
        assert_eq!(
            ops(seg),
            vec![Op::Sweep(
                vec![PlanRef::Compiled(0)],
                false,
                false,
                vec![(1, TernaryBit::One)]
            )]
        );
        assert_eq!(seg.ops_delta.set_keys, 2);
        assert_eq!(seg.ops_delta.searches, 1);
        assert_eq!(seg.ops_delta.writes_single, 1);
        assert_eq!(seg.ops_delta.wait_cycles, 7);
        // Cycles: 1 + 1 + 1 + 12 + 7.
        assert_eq!(t.steps[0].cycles, 22);
        assert_eq!(t.final_key, Some(SearchKey::parse("-1").unwrap()));
        assert_eq!(t.final_plan, Some(1));
        // The unfused compile keeps the two micro-ops separate, with the
        // same bookkeeping.
        let u = CompiledTrace::compile_unfused(&stream, &cfg(), false);
        assert_eq!(u.segments[0].ops.len(), 2);
        assert_eq!(u.segments[0].ops_delta, seg.ops_delta);
        assert_eq!(u.segments[0].pe_ops_delta(None), seg.pe_ops_delta(None));
    }

    #[test]
    fn sync_points_split_segments() {
        let stream = vec![
            setkey("1-"),
            SEARCH,
            Instruction::Count,
            SEARCH,
            Instruction::Index,
            Instruction::MovR {
                dir: Direction::Right,
            },
            SEARCH,
        ];
        let t = CompiledTrace::compile(&stream, &cfg(), false);
        assert_eq!(t.segment_count(), 3);
        assert_eq!(t.sync_count(), 3);
        assert_eq!(t.steps.len(), 6);
        assert!(matches!(
            t.steps[1].kind,
            StepKind::Sync(Instruction::Count)
        ));
        // The searches after Count/MovR reuse the same compiled plan.
        assert_eq!(t.plans.len(), 1);
        for seg in &t.segments[1..] {
            assert_eq!(ops(seg), vec![search(PlanRef::Compiled(0))]);
        }
    }

    #[test]
    fn write_values_resolve_at_compile_time() {
        let stream = vec![
            setkey("1Z"),
            Instruction::Write {
                col: 0,
                encode: false,
            },
            Instruction::Write {
                col: 1,
                encode: false,
            },
            Instruction::Write {
                col: 3, // masked in the key: no store, delta only
                encode: false,
            },
        ];
        let t = CompiledTrace::compile(&stream, &cfg(), false);
        let seg = &t.segments[0];
        // The two storing writes batch into one plan-less sweep; the
        // masked write emits no micro-op at all.
        assert_eq!(
            ops(seg),
            vec![Op::Sweep(
                vec![],
                true,
                false,
                vec![(0, TernaryBit::One), (1, TernaryBit::X)]
            )]
        );
        assert_eq!(seg.ops_delta.writes_single, 3, "masked write still counts");
        assert_eq!(seg.pe_ops_delta(None).writes_single, 2);
        let u = CompiledTrace::compile_unfused(&stream, &cfg(), false);
        assert_eq!(
            ops(&u.segments[0]),
            vec![
                Op::Sweep(vec![], true, false, vec![(0, TernaryBit::One)]),
                Op::Sweep(vec![], true, false, vec![(1, TernaryBit::X)]),
            ]
        );
    }

    #[test]
    fn pre_setkey_ops_reference_entry_state() {
        let stream = vec![
            SEARCH,
            Instruction::Write {
                col: 2,
                encode: false,
            },
            setkey("1"),
            SEARCH,
        ];
        let t = CompiledTrace::compile(&stream, &cfg(), false);
        assert!(t.uses_entry_key);
        let seg = &t.segments[0];
        assert_eq!(ops(seg)[0], search(PlanRef::Entry));
        assert_eq!(seg.ops[1], MicroOp::WriteEntry { col: 2 });
        // SetKey folds into the plan table without emitting a micro-op, so
        // the post-SetKey search is the third op.
        assert_eq!(ops(seg)[2], search(PlanRef::Compiled(0)));
    }

    #[test]
    fn reg_sync_demotes_tag_transfers() {
        let stream = vec![SEARCH, Instruction::ReadTag, Instruction::SetTag, SEARCH];
        let local = CompiledTrace::compile(&stream, &cfg(), false);
        assert_eq!(local.segment_count(), 1);
        assert_eq!(local.sync_count(), 0);
        let synced = CompiledTrace::compile(&stream, &cfg(), true);
        assert_eq!(synced.segment_count(), 2);
        assert_eq!(synced.sync_count(), 2);
        assert_eq!(synced.instruction_count(), local.instruction_count());
    }

    #[test]
    fn compile_streams_derives_reg_sync_from_other_streams() {
        let tags = vec![Instruction::ReadTag, Instruction::SetTag];
        let mover = vec![Instruction::MovR {
            dir: Direction::Left,
        }];
        // Alone: tag transfers stay inside the segment.
        let solo = compile_streams(std::slice::from_ref(&tags), &cfg());
        assert_eq!(solo[0].sync_count(), 0);
        // Next to a stream that can push into our data registers: demoted.
        let multi = compile_streams(&[tags.clone(), mover.clone()], &cfg());
        assert_eq!(multi[0].sync_count(), 2);
        // The mover itself is unaffected by its own remote ops.
        assert_eq!(multi[1].sync_count(), 1);
        // Two tag-only streams: neither forces the other to sync.
        let quiet = compile_streams(&[tags.clone(), tags], &cfg());
        assert_eq!(quiet[0].sync_count(), 0);
        assert_eq!(quiet[1].sync_count(), 0);
    }

    #[test]
    fn compiled_program_shares_spmd_traces_and_flags_remote_streams() {
        let local = vec![
            setkey("1-"),
            SEARCH,
            Instruction::ReadTag,
            Instruction::SetTag,
            Instruction::Count,
        ];
        // 16 equal streams compile once and share one trace.
        let spmd = vec![local.clone(); 16];
        let solo = CompiledProgram::compile(&spmd, &cfg());
        assert!(!solo.remote);
        assert_eq!(solo.traces.len(), 16);
        assert!(solo.traces.iter().all(|t| Arc::ptr_eq(t, &solo.traces[0])));
        // One mover among them demotes the others' tag transfers: they
        // still share one trace, but not the mover's nor the solo one.
        let mut mixed = spmd.clone();
        mixed[5].push(Instruction::MovR {
            dir: Direction::Left,
        });
        let synced = CompiledProgram::compile(&mixed, &cfg());
        assert!(synced.remote);
        for (g, t) in synced.traces.iter().enumerate() {
            assert_eq!(Arc::ptr_eq(t, &synced.traces[0]), g != 5, "group {g}");
        }
        assert_eq!(
            synced.traces[0].sync_count(),
            solo.traces[0].sync_count() + 2
        );
        assert_eq!(
            synced.traces[5].sync_count(),
            solo.traces[0].sync_count() + 1
        );
        // `compile_streams` hands out the same traces by value.
        for (streams, program) in [(&spmd, &solo), (&mixed, &synced)] {
            let owned: Vec<CompiledTrace> = program
                .traces
                .iter()
                .map(|t| CompiledTrace::clone(t))
                .collect();
            assert_eq!(compile_streams(streams, &cfg()), owned);
        }
    }

    #[test]
    fn empty_stream_compiles_to_nothing() {
        let t = CompiledTrace::compile(&[], &cfg(), false);
        assert!(t.steps.is_empty());
        assert_eq!(t.instruction_count(), 0);
        assert_eq!(t.final_key, None);
        assert_eq!(t.final_plan, None);
        assert!(!t.uses_entry_key);
    }

    const SEARCH_ACC: Instruction = Instruction::Search {
        acc: true,
        encode: false,
    };

    /// The add32 inner-loop shape: a fresh search, accumulating searches,
    /// then a conditional write — one fused single-sweep micro-op.
    #[test]
    fn fuses_search_chains_with_trailing_writes() {
        let stream = vec![
            setkey("1-"),
            SEARCH,
            setkey("-1"),
            SEARCH_ACC,
            Instruction::Write {
                col: 1,
                encode: false,
            },
        ];
        let t = CompiledTrace::compile(&stream, &cfg(), false);
        let seg = &t.segments[0];
        assert_eq!(
            ops(seg),
            vec![Op::Sweep(
                vec![PlanRef::Compiled(0), PlanRef::Compiled(1)],
                false,
                false,
                vec![(1, TernaryBit::One)]
            )]
        );
        // Per-PE counts are the unfused architectural ones.
        let d = seg.pe_ops_delta(None);
        assert_eq!((d.searches, d.set_keys, d.writes_single), (2, 2, 1));
        let u = CompiledTrace::compile_unfused(&stream, &cfg(), false);
        assert_eq!(u.segments[0].pe_ops_delta(None), d);
        assert_eq!(u.segments[0].ops.len(), 3);
    }

    /// A latching search must end its fused chain — the kernels latch the
    /// final tags, which would be wrong for an intermediate encode.
    #[test]
    fn latching_search_ends_the_fused_chain() {
        let stream = vec![
            setkey("1-"),
            Instruction::Search {
                acc: false,
                encode: true,
            },
            setkey("-1"),
            SEARCH_ACC,
        ];
        let t = CompiledTrace::compile(&stream, &cfg(), false);
        assert_eq!(t.segments[0].ops.len(), 2, "no fusion across the latch");
        // With the encode on the *last* search the whole chain fuses.
        let stream = vec![
            setkey("1-"),
            SEARCH,
            setkey("-1"),
            Instruction::Search {
                acc: true,
                encode: true,
            },
        ];
        let t = CompiledTrace::compile(&stream, &cfg(), false);
        assert_eq!(
            ops(&t.segments[0]),
            vec![Op::Sweep(
                vec![PlanRef::Compiled(0), PlanRef::Compiled(1)],
                false,
                true,
                vec![]
            )]
        );
    }

    /// A search overwritten before anything reads its tags is removed from
    /// the ops but still billed to every active PE via `Segment::elided`.
    #[test]
    fn dead_searches_are_elided_but_billed() {
        let stream = vec![setkey("1"), SEARCH, Instruction::SetTag, SEARCH];
        let t = CompiledTrace::compile(&stream, &cfg(), false);
        let seg = &t.segments[0];
        assert_eq!(
            ops(seg),
            vec![Op::Other(MicroOp::SetTag), search(PlanRef::Compiled(0))]
        );
        assert_eq!(seg.elided.searches, 1);
        let u = CompiledTrace::compile_unfused(&stream, &cfg(), false);
        assert_eq!(u.segments[0].pe_ops_delta(None), seg.pe_ops_delta(None));
        assert_eq!(u.segments[0].ops_delta, seg.ops_delta);
    }

    /// The dead-search rule as a fixpoint loop: remove the first
    /// non-latching, non-storing search whose next op overwrites the tags,
    /// and repeat.
    fn eliminate_dead_searches_fixpoint(seg: &mut Segment) {
        loop {
            let dead = (0..seg.ops.len()).find(|&i| {
                matches!(&seg.ops[i], MicroOp::Sweep { encode: false, writes, .. } if writes.is_empty())
                    && matches!(
                        seg.ops.get(i + 1),
                        Some(MicroOp::SetTag | MicroOp::Sweep { acc: false, .. })
                    )
            });
            let Some(i) = dead else { break };
            seg.ops.remove(i);
            seg.elided.searches += 1;
            seg.elided.set_keys += 1;
        }
    }

    /// A segment of micro-ops drawn from the kinds the dead-search rule
    /// distinguishes: searches with every `acc`/`encode` combination (on
    /// entry and compiled plans), `SetTag`, writes, and other tag readers.
    fn dead_search_segment() -> impl Strategy<Value = Segment> {
        prop::collection::vec((0u8..12, 0usize..3), 0..40).prop_map(|kinds| {
            let mut seg = Segment::default();
            for (kind, p) in kinds {
                let plan = if p == 0 {
                    PlanRef::Entry
                } else {
                    PlanRef::Compiled(p)
                };
                let col = p as u8;
                match kind {
                    0..=5 => seg.push_search(plan, kind & 1 == 1, kind & 2 == 2),
                    6 => seg.ops.push(MicroOp::SetTag),
                    7 => seg.push_write(col, TernaryBit::One),
                    8 => seg.ops.push(MicroOp::WriteEntry { col }),
                    9 => seg.ops.push(MicroOp::WriteEncoded { col }),
                    10 => seg.ops.push(MicroOp::ReadTag),
                    _ => seg.ops.push(MicroOp::SearchDelta {
                        plan: p,
                        encode: p == 2,
                    }),
                }
            }
            seg
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The one-pass dead-search elimination reaches the fixpoint loop's
        /// result: the same surviving ops in the same order and the same
        /// elided counts.
        #[test]
        fn dead_search_pass_matches_fixpoint_loop(
            mut fast in dead_search_segment(),
            searches in 0u64..3,
        ) {
            fast.elided.searches = searches;
            let mut oracle = fast.clone();
            peephole::eliminate_dead_searches(&mut fast);
            eliminate_dead_searches_fixpoint(&mut oracle);
            prop_assert_eq!(&fast, &oracle);
            let once = fast.clone();
            peephole::eliminate_dead_searches(&mut fast);
            prop_assert_eq!(fast, once, "the pass is idempotent");
        }
    }

    /// Re-searching the same still-valid key is elided entirely; searching
    /// an *extension* of it narrows the live tags with a delta plan.
    #[test]
    fn repeated_and_extension_searches_are_narrowed() {
        let same = vec![setkey("1"), SEARCH, Instruction::ReadTag, SEARCH];
        let t = CompiledTrace::compile(&same, &cfg(), false);
        assert_eq!(t.segments[0].ops.len(), 2, "identical re-search elided");
        assert_eq!(t.segments[0].elided.searches, 1);
        assert_eq!(
            t.segments[0].pe_ops_delta(None),
            CompiledTrace::compile_unfused(&same, &cfg(), false).segments[0].pe_ops_delta(None)
        );

        let extend = vec![
            setkey("1-"),
            SEARCH,
            Instruction::ReadTag,
            setkey("11"),
            SEARCH,
        ];
        let t = CompiledTrace::compile(&extend, &cfg(), false);
        let seg = &t.segments[0];
        assert_eq!(
            seg.ops[2],
            MicroOp::SearchDelta {
                plan: 2,
                encode: false
            }
        );
        assert_eq!(t.plans[2], vec![(1, KeyBit::One)]);
        // The delta is still a full SetKey+Search architecturally.
        assert_eq!(seg.pe_ops_delta(None).searches, 2);
        // `final_plan` still resolves the last SetKey even though the
        // delta plan now sits at the end of the plan table.
        assert_eq!(t.final_plan, Some(1));
        assert_eq!(t.final_key, Some(SearchKey::parse("11").unwrap()));

        // A write clobbering the previous plan's column blocks both
        // rewrites: the tags no longer reflect the current cell contents.
        let clobbered = vec![
            setkey("1-"),
            SEARCH,
            Instruction::Write {
                col: 0,
                encode: false,
            },
            setkey("11"),
            SEARCH,
        ];
        let t = CompiledTrace::compile(&clobbered, &cfg(), false);
        assert!(t.segments[0]
            .ops
            .iter()
            .all(|op| !matches!(op, MicroOp::SearchDelta { .. })));
        assert_eq!(t.segments[0].elided, OpCounts::default());
    }

    /// Chains and write runs longer than `MAX_FUSED` split, with the
    /// continuation chain accumulating into the previous fused tags.
    #[test]
    fn fusion_caps_split_long_chains() {
        let mut stream = vec![setkey("1"), SEARCH];
        for _ in 0..9 {
            stream.push(setkey("1"));
            stream.push(SEARCH_ACC);
        }
        let t = CompiledTrace::compile(&stream, &cfg(), false);
        let seg = &t.segments[0];
        assert_eq!(seg.ops.len(), 2);
        let (
            MicroOp::Sweep {
                plans: a,
                acc: false,
                ..
            },
            MicroOp::Sweep {
                plans: b,
                acc: true,
                ..
            },
        ) = (&seg.ops[0], &seg.ops[1])
        else {
            panic!("expected two fused chains, got {:?}", seg.ops);
        };
        assert_eq!((a.len(), b.len()), (MAX_FUSED, 2));
        assert_eq!(seg.pe_ops_delta(None).searches, 10);

        // A write run splits at the cap; after a search the run's first
        // batch rides on the search's sweep, and the split stays aligned
        // to the run's start.
        for lead in [vec![], vec![SEARCH]] {
            let mut stream = vec![setkey("1111111111")];
            stream.extend(lead.iter().cloned());
            for col in 0..10 {
                stream.push(Instruction::Write { col, encode: false });
            }
            let t = CompiledTrace::compile(&stream, &cfg(), false);
            let seg = &t.segments[0];
            let shapes: Vec<(usize, usize)> = seg
                .ops
                .iter()
                .map(|op| match op {
                    MicroOp::Sweep { plans, writes, .. } => (plans.len(), writes.len()),
                    other => panic!("expected sweeps, got {other:?}"),
                })
                .collect();
            assert_eq!(shapes, vec![(lead.len(), MAX_FUSED), (0, 2)]);
            assert_eq!(seg.pe_ops_delta(None).writes_single, 10);
        }
    }

    #[test]
    fn stream_set_hash_separates_every_field_and_boundary() {
        let base = vec![
            setkey("1Z-0"),
            SEARCH,
            Instruction::Write {
                col: 3,
                encode: false,
            },
            Instruction::WriteR {
                addr: 5,
                imm: vec![1, 2, 3],
            },
            Instruction::Wait { cycles: 2 },
        ];
        let h = stream_set_hash(std::slice::from_ref(&base));
        let copy = vec![base.clone()];
        assert_eq!(h, stream_set_hash(&copy), "equal streams, equal hash");
        let mut variants: Vec<Vec<Vec<Instruction>>> = Vec::new();
        let mut edit = |i: usize, inst: Instruction| {
            let mut s = base.clone();
            s[i] = inst;
            variants.push(vec![s]);
        };
        edit(0, setkey("1Z-1"));
        edit(0, setkey("1Z-0-")); // a wider key with the same active bits
        edit(
            1,
            Instruction::Search {
                acc: true,
                encode: false,
            },
        );
        edit(
            2,
            Instruction::Write {
                col: 4,
                encode: false,
            },
        );
        edit(
            3,
            Instruction::WriteR {
                addr: 5,
                imm: vec![1, 2, 4],
            },
        );
        edit(
            3,
            Instruction::WriteR {
                addr: 5,
                imm: vec![1, 2, 3, 0],
            },
        );
        edit(4, Instruction::Wait { cycles: 3 });
        // Stream boundaries and stream count are part of the identity.
        variants.push(vec![base[..2].to_vec(), base[2..].to_vec()]);
        variants.push(vec![base[..3].to_vec(), base[3..].to_vec()]);
        variants.push(vec![base.clone(), Vec::new()]);
        for v in &variants {
            assert_ne!(stream_set_hash(v), h, "{v:?}");
        }
        let distinct: std::collections::HashSet<u64> =
            variants.iter().map(|v| stream_set_hash(v)).collect();
        assert_eq!(distinct.len(), variants.len());
    }
}

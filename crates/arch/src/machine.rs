//! The instruction-at-a-time interpreter: the reference machine.
//!
//! [`ApMachine`] stores each PE as its own [`HyperPe`] and executes the
//! streams one instruction per group per step, exactly as Table I defines
//! each instruction, under the event-stepped `Wait` schedule of §IV-A12.
//! It is the oracle the fast engine is tested against:
//! [`SlabMachine`](crate::SlabMachine) executes the same programs through
//! compiled traces and must match it bit for bit
//! (`tests/slab_engine_equivalence.rs`, `tests/fault_equivalence.rs`).
//!
//! The interpreter runs on the calling thread. The steady-state path
//! performs no heap allocation: active-PE sets are cached per group and
//! invalidated only by `Broadcast`, searches reuse each PE's tag storage,
//! and `MovR` snapshots into reusable register buffers.

use crate::config::ArchConfig;
use crate::control::{self, ActiveSet, MovStep, WriteTarget};
use crate::similarity::{SimilarityHit, SimilarityOutcome};
use crate::stats::{PeHealth, RunStats};
use hyperap_core::machine::HyperPe;
use hyperap_isa::{Direction, Instruction};
use hyperap_tcam::bit::KeyBit;
use hyperap_tcam::key::SearchKey;
use hyperap_tcam::similarity as tcam_similarity;
use hyperap_tcam::tags::TagVector;
use hyperap_tcam::FaultError;

/// Broadcast PE address (re-exported from the ISA): `ReadR`/`WriteR` with
/// the all-ones 17-bit address target every PE of the issuing group.
pub use hyperap_isa::lower::BROADCAST_ADDR;

/// Borrowed view of one group's execution state, active set refreshed.
struct GroupCtx<'a> {
    /// Absolute PE id of the group's first PE.
    base: usize,
    /// The group's PEs.
    pes: &'a mut [HyperPe],
    /// The group's data registers (same indexing as `pes`).
    regs: &'a mut [TagVector],
    /// Active flags (same indexing as `pes`).
    mask: &'a [bool],
    /// The group's key register.
    key: &'a SearchKey,
    /// The key's precompiled active-column plan (rebuilt on `SetKey`).
    plan: &'a [(usize, KeyBit)],
}

/// A simulated Hyper-AP machine: the sequential interpreter oracle (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct ApMachine {
    config: ArchConfig,
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
    /// `MovR` snapshot registers (lazily sized to one group).
    mov_scratch: Vec<TagVector>,
    /// Decoded `WriteR` immediate.
    imm_scratch: TagVector,
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
            pes,
            data_regs: vec![TagVector::zeros(config.rows); n],
            keys: vec![SearchKey::masked(config.cols); config.groups],
            key_plans: vec![Vec::new(); config.groups],
            bank_masks: vec![0xFF; config.groups],
            data_buffers: vec![TagVector::zeros(config.rows); config.groups],
            active: vec![ActiveSet::default(); config.groups],
            mov_scratch: Vec::new(),
            imm_scratch: TagVector::zeros(config.rows),
            config,
        }
    }

    /// The machine geometry.
    pub fn config(&self) -> &ArchConfig {
        &self.config
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

    /// Borrow the group's execution state with its active set refreshed.
    fn group_ctx(&mut self, group: usize) -> GroupCtx<'_> {
        self.refresh_active(group);
        let per = self.config.pes_per_group();
        let base = group * per;
        GroupCtx {
            base,
            pes: &mut self.pes[base..base + per],
            regs: &mut self.data_regs[base..base + per],
            mask: &self.active[group].mask,
            key: &self.keys[group],
            plan: &self.key_plans[group],
        }
    }

    /// Run one instruction stream per group to completion (streams beyond
    /// [`ArchConfig::groups`] are ignored; missing streams idle).
    ///
    /// Returns cycle counts, SIMD-level operation counts, and reduction
    /// results. Timing is event-stepped: the group whose local clock is
    /// earliest (ties to the lower group index) issues its next
    /// instruction, so `Wait` stalls implement compile-time
    /// synchronization (§IV-A12) and cross-group interactions (`MovR`
    /// handoffs) happen exactly in the order the schedule intends.
    ///
    /// # Panics
    ///
    /// Panics on fault degradation; [`try_run`](Self::try_run) reports it
    /// as a typed error instead.
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
        self.begin_run()?;
        let groups = self.config.groups;
        let mut stats = control::new_run_stats(groups, None);
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

    fn execute(&mut self, group: usize, inst: &Instruction, stats: &mut RunStats) {
        let ops = &mut stats.group_ops[group];
        match inst {
            Instruction::SetKey { key } => {
                self.keys[group].copy_from(key);
                key.plan_into(&mut self.key_plans[group]);
                ops.set_keys += 1;
            }
            Instruction::Search { acc, encode } => {
                let GroupCtx {
                    pes, mask, plan, ..
                } = self.group_ctx(group);
                for (pe, _) in pes.iter_mut().zip(mask).filter(|(_, &on)| on) {
                    pe.search_planned(plan, *acc);
                    if *encode {
                        pe.latch_tags();
                    }
                }
                ops.searches += 1;
            }
            Instruction::Write { col, encode } => {
                let col = *col as usize;
                let GroupCtx { pes, mask, key, .. } = self.group_ctx(group);
                let value = key.bit(col);
                let store = value.write_value().is_some();
                for (pe, _) in pes.iter_mut().zip(mask).filter(|(_, &on)| on) {
                    if *encode {
                        pe.write_encoded(col);
                    } else if store {
                        pe.write(col, value);
                    }
                }
                if *encode {
                    ops.writes_encoded += 1;
                } else {
                    ops.writes_single += 1;
                }
            }
            Instruction::Count => {
                let GroupCtx {
                    base, pes, mask, ..
                } = self.group_ctx(group);
                let results = &mut stats.count_results[group];
                for (i, pe) in pes.iter_mut().enumerate().filter(|&(i, _)| mask[i]) {
                    results.push((base + i, pe.count()));
                }
                stats.group_ops[group].counts += 1;
            }
            Instruction::Index => {
                let GroupCtx {
                    base, pes, mask, ..
                } = self.group_ctx(group);
                let results = &mut stats.index_results[group];
                for (i, pe) in pes.iter_mut().enumerate().filter(|&(i, _)| mask[i]) {
                    results.push((base + i, pe.index()));
                }
                stats.group_ops[group].indexes += 1;
            }
            Instruction::MovR { dir } => {
                self.mov_r(group, *dir);
                ops.mov_rs += 1;
            }
            Instruction::ReadR { addr } => {
                let pe = control::reg_pe(*addr, self.pes.len());
                self.data_buffers[group].copy_from(&self.data_regs[pe]);
            }
            Instruction::WriteR { addr, imm } => {
                control::decode_reg(imm, &mut self.imm_scratch);
                match control::write_target(*addr, self.pes.len()) {
                    WriteTarget::Group => {
                        self.refresh_active(group);
                        let per = self.config.pes_per_group();
                        let base = group * per;
                        let mask = &self.active[group].mask;
                        let regs = &mut self.data_regs[base..base + per];
                        for (reg, _) in regs.iter_mut().zip(mask).filter(|(_, &on)| on) {
                            reg.copy_from(&self.imm_scratch);
                        }
                    }
                    WriteTarget::Pe(pe) => self.data_regs[pe].copy_from(&self.imm_scratch),
                }
            }
            Instruction::SetTag | Instruction::ReadTag => {
                let GroupCtx {
                    pes, regs, mask, ..
                } = self.group_ctx(group);
                let active = pes.iter_mut().zip(regs).zip(mask).filter(|(_, &on)| on);
                for ((pe, reg), _) in active {
                    if matches!(inst, Instruction::SetTag) {
                        pe.set_tags_from(reg);
                    } else {
                        reg.copy_from(pe.tags());
                    }
                }
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

    /// `MovR` over the per-PE registers, following [`control::mov_r`].
    fn mov_r(&mut self, group: usize, dir: Direction) {
        self.refresh_active(group);
        let per = self.config.pes_per_group();
        if self.mov_scratch.len() < per {
            let rows = self.config.rows;
            self.mov_scratch.resize_with(per, || TagVector::zeros(rows));
        }
        let Self {
            config,
            data_regs,
            active,
            mov_scratch,
            ..
        } = self;
        control::mov_r(config, group, &active[group].mask, dir, |step| match step {
            MovStep::Snapshot { slot, pe } => mov_scratch[slot].copy_from(&data_regs[pe]),
            MovStep::Clear { pe } => data_regs[pe].clear(),
            MovStep::Land { slot, dest } => data_regs[dest].copy_from(&mov_scratch[slot]),
        });
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

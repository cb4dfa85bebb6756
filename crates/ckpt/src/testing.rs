//! Crash injection for the commit protocol: a [`CheckpointSink`] that
//! kills the "process" at a chosen mutating operation, leaving behind
//! exactly what a real crash could — torn in-flight writes, a sync that
//! did or did not land, a rename that was applied, lost, or duplicated.
//!
//! The harness pattern (`tests/checkpoint_crash.rs`):
//!
//! 1. Run the commit once against a [`CrashSink`] with no kill plan; its
//!    [`op_log`](CrashSink::op_log) records the mutating-op schedule.
//! 2. For every op index and every [`variants`]-enumerated outcome of that
//!    op, re-run with a [`KillPlan`] and take
//!    [`after_crash`](CrashSink::after_crash) — the surviving disk image.
//! 3. Resume from the image and assert the restored machine is
//!    bit-identical to the last committed epoch (or the new one, when the
//!    kill landed after the commit point).

use std::collections::BTreeMap;

use hyperap_arch::{ArchConfig, FaultConfig, SlabMachine};
use hyperap_isa::{Direction, Instruction};
use hyperap_tcam::{FaultModel, SearchKey};

use crate::sink::{CheckpointSink, MemSink, SinkError};

/// The deterministic machine behind the `ckpt_v1` and `ckpt_v2` golden
/// fixtures (`crates/tcam/tests/golden/ckpt_v*/`; `ckpt_v2` is regenerated
/// by `examples/gen_golden_ckpt.rs`): a `tiny()` geometry with an explicit
/// seeded fault model (immune to the `HYPERAP_FAULTS` override), loaded
/// and driven through every state class a checkpoint carries — storage
/// and wear, tags/latches, data registers, controller buffers, key and
/// plan registers, op counters, and fault bookkeeping.
pub fn golden_machine() -> SlabMachine {
    let mut cfg = ArchConfig::tiny();
    cfg.faults = FaultConfig {
        model: FaultModel {
            seed: 0xf1c5_0001,
            stuck_per_million: 30_000,
            miss_per_million: 15_000,
            endurance_limit: Some(30),
        },
        spare_cols: 2,
    };
    let mut m = SlabMachine::with_chunk_pes(cfg, 3);
    for pe in 0..8 {
        for col in 0..32 {
            for row in 0..6 {
                m.load_bit(pe, row, col, (pe * 11 + col * 5 + row * 3) % 7 < 3);
            }
        }
    }
    let stream = |g: u8| {
        vec![
            Instruction::SetKey {
                key: SearchKey::parse(&"1Z-0".repeat(16)).expect("static key"),
            },
            Instruction::Search {
                acc: false,
                encode: false,
            },
            Instruction::Write {
                col: 5 + g,
                encode: false,
            },
            Instruction::SetTag,
            Instruction::Count,
            Instruction::MovR {
                dir: Direction::Right,
            },
            Instruction::WriteR {
                addr: u32::from(g) * 4,
                imm: vec![0xa5, g],
            },
            Instruction::ReadR {
                addr: u32::from(g) * 4 + 1,
            },
            Instruction::Index,
            Instruction::Write {
                col: 40 + g,
                encode: true,
            },
        ]
    };
    let _ = m.try_run(&[stream(0), stream(1)]);
    m
}

/// The kind of a mutating sink operation, as recorded in the op log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `write(name, data)` — torn-write truncation points.
    Write,
    /// `sync(name)` — content promoted to durable, or not.
    Sync,
    /// `rename(from, to)` — lost, applied, or duplicated.
    Rename,
    /// `remove(name)` — lost or applied.
    Remove,
}

/// Crash outcomes to enumerate for an op of this kind (the `variant` range
/// of a [`KillPlan`]).
pub fn variants(kind: OpKind) -> u8 {
    match kind {
        // Prefix survives: 0, 1, len/2, len-1, len bytes.
        OpKind::Write => 5,
        // Durable or not.
        OpKind::Sync => 2,
        // Not applied / applied / applied with the source left behind.
        OpKind::Rename => 3,
        // Not applied / applied.
        OpKind::Remove => 2,
    }
}

/// Kill the process at mutating op `kill_op` (0-based), resolving that
/// op's partial effect by `variant` (see [`variants`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Index into the mutating-op schedule.
    pub kill_op: u64,
    /// Which partial outcome the interrupted op leaves behind.
    pub variant: u8,
}

#[derive(Debug, Clone, Default)]
struct FileState {
    /// Content guaranteed to survive a crash (synced, or inherited from
    /// the initial image).
    durable: Option<Vec<u8>>,
    /// Content written but not yet synced — what a crash may tear.
    pending: Option<Vec<u8>>,
}

impl FileState {
    fn visible(&self) -> Option<&Vec<u8>> {
        self.pending.as_ref().or(self.durable.as_ref())
    }
}

/// The crash-injecting sink. Before the kill point it behaves like a
/// normal durable store (tracking which content is synced); at the kill
/// point it applies the plan's partial outcome and fails every operation
/// from then on with [`SinkError::Killed`].
#[derive(Debug, Clone)]
pub struct CrashSink {
    files: BTreeMap<String, FileState>,
    plan: Option<KillPlan>,
    ops: u64,
    log: Vec<OpKind>,
    killed: bool,
}

impl CrashSink {
    /// A sink whose initial contents are `initial` (all durable), killing
    /// per `plan` (`None` = never — the op-counting pass).
    pub fn new(initial: &MemSink, plan: Option<KillPlan>) -> Self {
        let files = initial
            .files()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    FileState {
                        durable: Some(v.clone()),
                        pending: None,
                    },
                )
            })
            .collect();
        CrashSink {
            files,
            plan,
            ops: 0,
            log: Vec::new(),
            killed: false,
        }
    }

    /// The mutating-op schedule so far, in order.
    pub fn op_log(&self) -> &[OpKind] {
        &self.log
    }

    /// The disk image a crash at this moment leaves behind: durable
    /// content survives; unsynced pending content survives as last
    /// written (the kill-point write variants are where tearing is
    /// injected — in the commit protocol under test, at most the
    /// kill-target file is ever unsynced).
    pub fn after_crash(&self) -> MemSink {
        let mut out = MemSink::new();
        for (name, st) in &self.files {
            if let Some(content) = st.visible() {
                out.insert(name.clone(), content.clone());
            }
        }
        out
    }

    /// Account one mutating op. `Some(variant)` means this op is the kill
    /// point: apply the partial outcome, then die.
    fn begin_op(&mut self, kind: OpKind) -> Result<Option<u8>, SinkError> {
        if self.killed {
            return Err(SinkError::Killed);
        }
        let idx = self.ops;
        self.ops += 1;
        self.log.push(kind);
        if let Some(plan) = self.plan {
            if plan.kill_op == idx {
                self.killed = true;
                return Ok(Some(plan.variant));
            }
        }
        Ok(None)
    }
}

impl CheckpointSink for CrashSink {
    fn list(&self) -> Result<Vec<String>, SinkError> {
        if self.killed {
            return Err(SinkError::Killed);
        }
        Ok(self
            .files
            .iter()
            .filter(|(_, st)| st.visible().is_some())
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, SinkError> {
        if self.killed {
            return Err(SinkError::Killed);
        }
        self.files
            .get(name)
            .and_then(|st| st.visible())
            .cloned()
            .ok_or(SinkError::NotFound)
    }

    fn write(&mut self, name: &str, data: &[u8]) -> Result<(), SinkError> {
        match self.begin_op(OpKind::Write)? {
            None => {
                self.files.entry(name.to_string()).or_default().pending = Some(data.to_vec());
                Ok(())
            }
            Some(variant) => {
                let torn = match variant % variants(OpKind::Write) {
                    0 => 0,
                    1 => 1.min(data.len()),
                    2 => data.len() / 2,
                    3 => data.len().saturating_sub(1),
                    _ => data.len(),
                };
                self.files.entry(name.to_string()).or_default().pending =
                    Some(data[..torn].to_vec());
                Err(SinkError::Killed)
            }
        }
    }

    fn sync(&mut self, name: &str) -> Result<(), SinkError> {
        match self.begin_op(OpKind::Sync)? {
            None => {
                let st = self.files.get_mut(name).ok_or(SinkError::NotFound)?;
                if st.visible().is_none() {
                    return Err(SinkError::NotFound);
                }
                if let Some(p) = st.pending.take() {
                    st.durable = Some(p);
                }
                Ok(())
            }
            Some(variant) => {
                if variant % variants(OpKind::Sync) == 1 {
                    if let Some(st) = self.files.get_mut(name) {
                        if let Some(p) = st.pending.take() {
                            st.durable = Some(p);
                        }
                    }
                }
                Err(SinkError::Killed)
            }
        }
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), SinkError> {
        match self.begin_op(OpKind::Rename)? {
            None => {
                let st = self.files.remove(from).ok_or(SinkError::NotFound)?;
                self.files.insert(to.to_string(), st);
                Ok(())
            }
            Some(variant) => {
                match variant % variants(OpKind::Rename) {
                    0 => {} // lost
                    1 => {
                        if let Some(st) = self.files.remove(from) {
                            self.files.insert(to.to_string(), st);
                        }
                    }
                    _ => {
                        // Applied, but the source entry also survives — the
                        // "duplicated" outcome of a non-atomic move.
                        if let Some(st) = self.files.get(from).cloned() {
                            self.files.insert(to.to_string(), st);
                        }
                    }
                }
                Err(SinkError::Killed)
            }
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), SinkError> {
        match self.begin_op(OpKind::Remove)? {
            None => {
                self.files.remove(name);
                Ok(())
            }
            Some(variant) => {
                if variant % variants(OpKind::Remove) == 1 {
                    self.files.remove(name);
                }
                Err(SinkError::Killed)
            }
        }
    }
}

//! Benchmark harness for the Hyper-AP reproduction.
//!
//! One binary per paper table/figure (see `src/bin/`); each prints a
//! paper-vs-measured table. `EXPERIMENTS.md` is the checked-in snapshot of
//! their output. Criterion micro-benchmarks for the simulator and compiler
//! live under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hyperap_arch::{ApMachine, ArchConfig, FaultConfig, SlabMachine};
use hyperap_ckpt::{CheckpointStats, Checkpointer, MemSink};
use hyperap_core::microcode::Microcode;
use hyperap_isa::lower::lower;
use hyperap_isa::Instruction;
use hyperap_model::metrics::Metrics;
use std::time::Instant;

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Format a ratio as `x.xx×`.
pub fn ratio(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return "n/a".into();
    }
    format!("{:.2}x", measured / paper)
}

/// Print one metric row: name, measured, paper, ratio.
pub fn row(name: &str, measured: f64, paper: f64, unit: &str) {
    println!(
        "  {name:<22} measured {measured:>12.1} {unit:<9} paper {paper:>12.1} {unit:<9} ({})",
        ratio(measured, paper)
    );
}

/// Print the four-metric block of Figs 15-17 for one operation.
pub fn metric_block(op: &str, m: &Metrics, paper: &hyperap_baselines::OpRecord) {
    println!("  -- {op} --");
    row("latency", m.latency_ns, paper.latency_ns, "ns");
    row(
        "throughput",
        m.throughput_gops,
        paper.throughput_gops,
        "GOPS",
    );
    row("power eff", m.power_eff_gops_w, paper.power_eff, "GOPS/W");
    row("area eff", m.area_eff_gops_mm2, paper.area_eff, "GOPS/mm2");
}

/// Best-of-`reps` wall time of `f`, in seconds.
pub fn best_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The engine benchmarks' workload: the lowered 32-bit adder on a
/// `cols`-column PE, one copy per group of a `groups`-group machine.
pub fn add32_streams(cols: usize, groups: usize) -> Vec<Vec<Instruction>> {
    let mut mc = Microcode::new(cols);
    let (x, y) = mc.alloc_paired_inputs("a", "b", 32);
    let _ = mc.add(&x, &y);
    let stream = lower(&mc.into_program());
    vec![stream; groups]
}

/// Load the add32 workload's operand pattern into the first eight rows of
/// every PE of an interpreter machine.
pub fn seed_machine(m: &mut ApMachine) {
    for pe in 0..m.config().total_pes() {
        for row in 0..8.min(m.config().rows) {
            m.pe_mut(pe)
                .load_encoded_pair(row, 0, row & 1 == 1, pe & 1 == 1);
        }
    }
}

/// [`seed_machine`] for a slab machine: the same cells, so both engines
/// start from identical state.
pub fn seed_slab(m: &mut SlabMachine) {
    for pe in 0..m.config().total_pes() {
        for row in 0..8.min(m.config().rows) {
            m.load_encoded_pair(pe, row, 0, row & 1 == 1, pe & 1 == 1);
        }
    }
}

/// The checkpoint workload behind `BENCH_SIM.json`'s `checkpoint` block:
/// `streams` run once on a seeded, fault-free slab machine of `cfg`'s
/// shape, a full commit, then group 0's stream re-run and an incremental
/// commit. Returns the machine, the checkpointer holding both epochs, and
/// the two commits' stats. The byte counts are deterministic, so
/// `bench_guard` re-measures them and requires the checked-in values.
pub fn checkpoint_workload(
    mut cfg: ArchConfig,
    streams: &[Vec<Instruction>],
) -> (
    SlabMachine,
    Checkpointer<MemSink>,
    CheckpointStats,
    CheckpointStats,
) {
    // Pinned fault-free: `HYPERAP_FAULTS` would add fault bookkeeping to
    // every chunk and move the byte counts.
    cfg.faults = FaultConfig::default();
    let mut m = SlabMachine::new(cfg);
    seed_slab(&mut m);
    m.run(streams);
    let mut ck = Checkpointer::new(MemSink::new());
    let full = ck.checkpoint(&m).expect("in-memory commit");
    m.run(&streams[..1]);
    let incremental = ck.checkpoint(&m).expect("in-memory commit");
    (m, ck, full, incremental)
}

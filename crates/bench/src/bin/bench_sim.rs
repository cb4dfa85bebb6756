//! Engine benchmark: measures the cycle simulator's execution engines and
//! writes machine-readable `target/BENCH_SIM.json` (relative to the working
//! directory). The checked-in baseline at the repository root is never
//! overwritten: to regenerate it, copy the fresh file over it.
//!
//! Comparisons:
//!
//! 1. **Kernel**: `TcamArray::search` (allocates a fresh `TagVector` per
//!    call) vs `TcamArray::search_into` (reuses the caller's buffer), plus
//!    the raw bit-plane word-search throughput of a 1024-PE slab.
//! 2. **Engine**: the instruction-at-a-time interpreter (`ApMachine::run`)
//!    vs the slab engine (`SlabMachine::try_run_compiled` on traces
//!    compiled once, outside the timed region) — bit-identical results,
//!    wall-clock only.
//! 3. **Peephole fusion**: the slab engine running precompiled *fused*
//!    traces (the default `compile_streams` pipeline, which collapses
//!    Search→SetTag→Write chains into single-sweep micro-ops) vs the same
//!    streams compiled with `compile_streams_unfused` — bit-identical
//!    results and identical architectural cycle counts, wall-clock only.
//! 4. **Similarity search**: the CAM-native Hamming top-k query on the
//!    word-parallel slab engine vs the scalar per-PE reference engine over
//!    identical stored codes (both on the calling thread, so the ratio
//!    isolates the bit-plane word kernels), the raw
//!    accumulate-kernel word throughput, and the binarized-HDC classifier's
//!    per-inference latency on both engines. All engine results are
//!    cross-checked against the pure-host references before timing.
//! 5. **Checkpoint cost**: full and incremental snapshots of the slab
//!    machine into an in-memory sink, and restore latency.
//!
//! No slab column includes trace compilation: every slab timing runs
//! precompiled traces, as a kernel executed many times does.
//!
//! Workload: the lowered 32-bit adder stream on every PE of a
//! 16-group x 64-PE machine (1024 PEs of 256x256), the paper's bread-and-
//! butter arithmetic kernel (§V).
//!
//! The emitted JSON carries a `meta` block stamping the measurement with
//! the producing git revision and an FNV-1a hash of the machine geometry,
//! so a checked-in baseline can be traced to the commit and geometry that
//! produced it.

use hyperap_arch::{ApMachine, ArchConfig, SlabMachine};
use hyperap_bench::{add32_streams, best_secs, checkpoint_workload, seed_machine, seed_slab};
use hyperap_compiler::{compile, opt, CompileOptions, OPT_LEVEL_MAX};
use hyperap_tcam::array::TcamArray;
use hyperap_tcam::key::SearchKey;
use hyperap_tcam::slab::SweepOp;
use hyperap_tcam::tags::TagVector;
use hyperap_workloads::similarity as wsim;
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 256;
const COLS: usize = 256;
const GROUPS: usize = 16;

/// Short git revision of the working tree producing this measurement, or
/// `"unknown"` outside a git checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over little-endian words — stamps the geometry so a baseline
/// can't be silently compared across machine shapes.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Median ns/call of `f`, batch-calibrated to ~50 ms samples.
fn ns_per_call<F: FnMut()>(mut f: F) -> f64 {
    let calib = Instant::now();
    let mut warm = 0u64;
    while calib.elapsed().as_secs_f64() < 0.05 {
        f();
        warm += 1;
    }
    let batch = warm.max(1);
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Per-opt-level static cost of a compiler-built kernel:
/// `(counted micro-ops, Table-I RRAM cycles)` for levels `0..=OPT_LEVEL_MAX`.
fn compiler_columns(src: &str) -> Vec<(u64, u64)> {
    (0..=OPT_LEVEL_MAX)
        .map(|level| {
            let opts = CompileOptions {
                opt_level: level,
                ..CompileOptions::default()
            };
            let k = compile(src, &opts).expect("bench kernel compiles");
            (
                opt::counted_ops(k.program()),
                k.op_counts().cycles(&hyperap_model::TechParams::rram()),
            )
        })
        .collect()
}

fn engine_config() -> ArchConfig {
    let mut cfg = ArchConfig::paper_scaled(ROWS);
    cfg.groups = GROUPS;
    cfg
}

fn main() {
    let reps: usize = std::env::var("HYPERAP_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    // Host shape for interpreting every number downstream: logical CPUs,
    // physical cores (SMT folded out), and whether a second worker thread
    // pays here at all — the predicate the serving layer's scaling floors
    // key off.
    let host_cpus = hyperap_arch::par::logical_cpus();
    let physical_cores = hyperap_arch::par::physical_cores();
    let parallel_pays = hyperap_arch::par::parallel_pays();

    // 1. Kernel: allocating vs buffer-reusing search. The two loops must
    // differ only in where the result lands, so the key is laundered
    // through `black_box` once (outside the timed loops — an in-loop
    // `black_box(&key)` forces a reload of the key through a clobbered
    // pointer on every call and can dominate the measurement), and both
    // consume the result the same way.
    let mut array = TcamArray::pe_sized();
    for row in 0..ROWS {
        array.store_field(row, 0, 64, row as u64 * 0x9E37_79B9);
    }
    let mut key = SearchKey::masked(COLS);
    key.set_field(0, 12, 0xABC);
    let key = black_box(key);
    let ns_search = ns_per_call(|| {
        let tags = array.search(&key);
        black_box(&tags);
    });
    let mut tags = TagVector::zeros(ROWS);
    let ns_search_into = ns_per_call(|| {
        array.search_into(&key, &mut tags);
        black_box(&tags);
    });

    // Bit-plane word-kernel throughput: one plan entry over a 1024-PE slab
    // is a straight sweep of rows × pe_words ANDs — report how many 64-PE
    // plane words one nanosecond buys (each word is one ALU op covering
    // 64 PEs).
    let (slab_pes, slab_cols) = (1024usize, 16usize);
    let mut wslab = hyperap_tcam::slab::TcamSlab::new(slab_pes, ROWS, slab_cols);
    for pe in 0..slab_pes {
        for row in 0..ROWS {
            for col in 0..slab_cols {
                let v = match (pe + 3 * row + 7 * col) % 3 {
                    0 => hyperap_tcam::bit::TernaryBit::Zero,
                    1 => hyperap_tcam::bit::TernaryBit::One,
                    _ => hyperap_tcam::bit::TernaryBit::X,
                };
                wslab.set_cell(pe, row, col, v);
            }
        }
    }
    let plan = black_box([
        (0usize, hyperap_tcam::KeyBit::One),
        (3, hyperap_tcam::KeyBit::Zero),
    ]);
    let mut plan_out = vec![0u64; wslab.plane_words()];
    let ns_word_search = ns_per_call(|| {
        let search = SweepOp {
            plans: &[&plan[..]],
            acc: false,
            writes: &[],
        };
        wslab.sweep_program(&[search], &mut plan_out, None);
        black_box(&plan_out);
    });
    let words_per_ns = (plan.len() * wslab.plane_words()) as f64 / ns_word_search;

    // 2. Engine runs: same streams everywhere.
    let streams = add32_streams(COLS, GROUPS);
    let stream_len = streams[0].len();
    let total_instructions = (GROUPS * stream_len) as f64;

    let interp_seq_s = {
        let mut m = ApMachine::new(engine_config());
        seed_machine(&mut m);
        best_secs(reps, || {
            black_box(m.run(&streams));
        })
    };

    // Slab engine and 3. peephole fusion: compile once, outside the timed
    // region, and run the fused and the unfused traces repeatedly on the
    // same machine. The fused run is the slab sequential column.
    let (slab_seq_s, slab_precompiled_unfused_s) = {
        let mut m = SlabMachine::new(engine_config());
        seed_slab(&mut m);
        let traces = hyperap_arch::trace::compile_streams(&streams, m.config());
        let unfused = hyperap_arch::trace::compile_streams_unfused(&streams, m.config());
        let fused_s = best_secs(reps, || {
            black_box(m.try_run_compiled(&traces).expect("fault-free run"));
        });
        let unfused_s = best_secs(reps, || {
            black_box(m.try_run_compiled(&unfused).expect("fault-free run"));
        });
        (fused_s, unfused_s)
    };

    let cfg = engine_config();

    // 4. Similarity search: Hamming top-k on the word-parallel slab engine
    // vs the scalar per-PE reference engine over identical stored codes.
    // The speedup isolates the bit-plane word kernels (64 PEs per ALU op).
    let sim_rows = 64usize;
    let sim_k = 16usize;
    let codes = wsim::CodeSet::generate(0x51AB, cfg.total_pes(), sim_rows, COLS);
    let query = codes.random_query(7);
    let query_key = codes.query_key(&query, COLS);
    let mut sim_ap = ApMachine::new(engine_config());
    codes.load_ap(&mut sim_ap);
    let mut sim_slab = SlabMachine::new(engine_config());
    codes.load_slab(&mut sim_slab);
    let host_hits = codes.host_topk(&query, sim_k);
    let ap_out = sim_ap.hamming_topk(&query_key, sim_rows, sim_k);
    let slab_out = sim_slab.hamming_topk(&query_key, sim_rows, sim_k);
    assert_eq!(ap_out.hits, host_hits, "scalar engine != host reference");
    assert_eq!(slab_out.hits, host_hits, "slab engine != host reference");
    assert_eq!(
        ap_out.stats, slab_out.stats,
        "engines disagree on priced stats"
    );
    let sim_scalar_query_ns = ns_per_call(|| {
        black_box(sim_ap.hamming_topk(&query_key, sim_rows, sim_k));
    });
    let sim_slab_query_ns = ns_per_call(|| {
        black_box(sim_slab.hamming_topk(&query_key, sim_rows, sim_k));
    });

    // Raw accumulate-kernel throughput on one contiguous arena: how many
    // 64-PE plane words per nanosecond the per-plane miss accumulation
    // sweeps (each word is one ALU op covering 64 PEs).
    let mut sim_arena = hyperap_tcam::slab::TcamSlab::new(cfg.total_pes(), sim_rows, COLS);
    for pe in 0..cfg.total_pes() {
        for row in 0..sim_rows {
            for (col, &b) in codes.codes[pe * sim_rows + row].iter().enumerate() {
                sim_arena.set_cell(
                    pe,
                    row,
                    col,
                    if b {
                        hyperap_tcam::bit::TernaryBit::One
                    } else {
                        hyperap_tcam::bit::TernaryBit::Zero
                    },
                );
            }
        }
    }
    let sim_plan = query_key.compile_plan();
    let sim_accumulated = sim_arena.hamming_accumulated_cols(&sim_plan, sim_rows);
    let mut dist_buf = vec![0u32; cfg.total_pes() * sim_rows];
    let sim_accum_ns = ns_per_call(|| {
        sim_arena.hamming_into(&sim_plan, sim_rows, &mut dist_buf);
        black_box(&dist_buf);
    });
    let sim_words_per_ns =
        (sim_accumulated * sim_arena.hamming_words_per_col(sim_rows)) as f64 / sim_accum_ns;

    // Binarized-HDC classification: class hypervectors in CAM rows,
    // inference = one nearest-neighbor query per sample.
    let hdc_cfg = wsim::HdcConfig {
        dim: COLS,
        classes: 64,
        train_per_class: 8,
        test_per_class: 2,
        noise_per_million: 60_000,
        seed: 0x51AB_D0C5,
    };
    let hdc = wsim::HdcDataset::generate(hdc_cfg);
    let model = wsim::HdcModel::train(&hdc);
    let hdc_rows = model.rows_needed(cfg.total_pes()).max(1);
    let mut hdc_ap = ApMachine::new(engine_config());
    model.load_ap(&mut hdc_ap, hdc_rows);
    let mut hdc_slab = SlabMachine::new(engine_config());
    model.load_slab(&mut hdc_slab, hdc_rows);
    let sample = &hdc.test[0].1;
    let host_class = model.classify_host(sample, cfg.total_pes(), hdc_rows);
    assert_eq!(model.classify_ap(&hdc_ap, sample, hdc_rows), host_class);
    assert_eq!(model.classify_slab(&hdc_slab, sample, hdc_rows), host_class);
    let hdc_scalar_ns = ns_per_call(|| {
        black_box(model.classify_ap(&hdc_ap, sample, hdc_rows));
    });
    let hdc_slab_ns = ns_per_call(|| {
        black_box(model.classify_slab(&hdc_slab, sample, hdc_rows));
    });
    let hdc_accuracy = model.accuracy_host(&hdc.test, cfg.total_pes(), hdc_rows);

    // 5. Checkpoint cost: full and incremental snapshots of the fault-free
    // 1024-PE slab machine (post-add32 state) into an in-memory sink, plus restore
    // latency. The incremental column re-dirties only group 0 between
    // snapshots, so with the default one-group chunking 15/16 of the
    // chunks are clean — the dirty-chunk hit rate the delta path must
    // sustain for checkpointing to stay off the critical path.
    let (
        ckpt_payload_bytes,
        ckpt_full_ms,
        ckpt_full_mbps,
        ckpt_incr_bytes,
        ckpt_incr_ms,
        ckpt_incr_mbps,
        ckpt_dirty_hit_rate,
        ckpt_restore_ms,
    ) = {
        use hyperap_ckpt::{Checkpointer, MemSink};
        let (mut m, mut ck, full_stats, incr_stats) =
            checkpoint_workload(engine_config(), &streams);
        // Full snapshot: a fresh checkpointer sees every chunk dirty.
        let full_s = best_secs(reps, || {
            let mut ck = Checkpointer::new(MemSink::new());
            black_box(ck.checkpoint(&m).unwrap());
        });
        // Incremental snapshot: dirty group 0 only, then delta-checkpoint
        // against the committed epoch. Timed over the checkpoint call alone.
        let g0 = vec![streams[0].clone()];
        let hit_rate = incr_stats.chunks_clean as f64 / incr_stats.chunks_total as f64;
        let mut incr_best = f64::INFINITY;
        for _ in 0..reps {
            black_box(m.run(&g0));
            let t = Instant::now();
            black_box(ck.checkpoint(&m).unwrap());
            incr_best = incr_best.min(t.elapsed().as_secs_f64());
        }
        // Restore latency into a fresh machine of the same geometry.
        let restore_s = best_secs(reps, || {
            let mut fresh = SlabMachine::new(m.config().clone());
            black_box(ck.resume(&mut fresh).unwrap());
        });
        (
            full_stats.payload_bytes,
            full_s * 1e3,
            full_stats.payload_bytes as f64 / 1e6 / full_s,
            incr_stats.bytes_written,
            incr_best * 1e3,
            incr_stats.bytes_written as f64 / 1e6 / incr_best,
            hit_rate,
            restore_s * 1e3,
        )
    };

    // Compiler optimizer columns: static op/cycle costs per opt level for
    // the two acceptance kernels. Deterministic — no timing involved.
    let add32_cols = compiler_columns(
        "unsigned int (32) main(unsigned int (32) a, unsigned int (32) b) { return a + b; }",
    );
    let mul16_cols = compiler_columns(
        "unsigned int (16) main(unsigned int (16) a, unsigned int (16) b) { return a * b; }",
    );

    let git_revision = git_revision();
    let geometry_hash = format!(
        "{:016x}",
        fnv1a(&[
            GROUPS as u64,
            cfg.total_pes() as u64,
            ROWS as u64,
            COLS as u64,
        ])
    );
    let json = format!(
        r#"{{
  "meta": {{
    "git_revision": "{git_revision}",
    "geometry_hash": "{geometry_hash}"
  }},
  "host": {{
    "cpus": {host_cpus},
    "physical_cores": {physical_cores},
    "parallel_pays": {parallel_pays}
  }},
  "geometry": {{
    "groups": {GROUPS},
    "total_pes": {total_pes},
    "rows": {ROWS},
    "cols": {COLS}
  }},
  "workload": {{
    "kernel": "add32",
    "stream_instructions": {stream_len},
    "total_instructions": {total_instructions}
  }},
  "compiler": {{
    "add32_compiled_ops_level0": {add32_ops_0},
    "add32_compiled_ops_level1": {add32_ops_1},
    "add32_compiled_ops_level2": {add32_ops_2},
    "add32_model_cycles_level0": {add32_cyc_0},
    "add32_model_cycles_level1": {add32_cyc_1},
    "add32_model_cycles_level2": {add32_cyc_2},
    "mul16_compiled_ops_level0": {mul16_ops_0},
    "mul16_compiled_ops_level1": {mul16_ops_1},
    "mul16_compiled_ops_level2": {mul16_ops_2},
    "mul16_model_cycles_level0": {mul16_cyc_0},
    "mul16_model_cycles_level1": {mul16_cyc_1},
    "mul16_model_cycles_level2": {mul16_cyc_2}
  }},
  "kernel": {{
    "ns_per_search_alloc": {ns_search:.1},
    "ns_per_search_into": {ns_search_into:.1},
    "speedup_search_into": {kernel_speedup:.2},
    "ns_per_word_search_1024pe": {ns_word_search:.1},
    "words_per_ns": {words_per_ns:.2}
  }},
  "similarity": {{
    "sim_pes": {total_pes},
    "sim_rows": {sim_rows},
    "sim_code_bits": {COLS},
    "sim_topk_k": {sim_k},
    "sim_scalar_query_ns": {sim_scalar_query_ns:.0},
    "sim_slab_query_ns": {sim_slab_query_ns:.0},
    "speedup_sim_slab_vs_scalar": {sp_sim:.2},
    "sim_queries_per_sec_slab": {sim_qps:.0},
    "sim_words_per_ns": {sim_words_per_ns:.2},
    "hdc_dim": {hdc_dim},
    "hdc_classes": {hdc_classes},
    "hdc_rows": {hdc_rows},
    "hdc_classify_scalar_ns": {hdc_scalar_ns:.0},
    "hdc_classify_slab_ns": {hdc_slab_ns:.0},
    "speedup_hdc_slab_vs_scalar": {sp_hdc:.2},
    "hdc_host_accuracy": {hdc_accuracy:.4}
  }},
  "checkpoint": {{
    "ckpt_payload_bytes": {ckpt_payload_bytes},
    "ckpt_full_snapshot_ms": {ckpt_full_ms:.3},
    "ckpt_full_mb_per_s": {ckpt_full_mbps:.1},
    "ckpt_incremental_bytes": {ckpt_incr_bytes},
    "ckpt_incremental_ms": {ckpt_incr_ms:.3},
    "ckpt_incremental_mb_per_s": {ckpt_incr_mbps:.1},
    "checkpoint_dirty_hit_rate": {ckpt_dirty_hit_rate:.4},
    "ckpt_restore_ms": {ckpt_restore_ms:.3}
  }},
  "engine": {{
    "interpreter": {{
      "sequential_s": {interp_seq_s:.3e}
    }},
    "slab": {{
      "sequential_s": {slab_seq_s:.3e},
      "precompiled_sequential_s": {slab_seq_s:.3e},
      "precompiled_unfused_s": {slab_precompiled_unfused_s:.3e}
    }},
    "instructions_per_sec_slab_sequential": {ips_slab_seq:.0},
    "speedup_slab_vs_interpreter_sequential": {sp_slab:.2},
    "speedup_slab_fused_vs_unfused": {sp_slab_fused:.2}
  }}
}}
"#,
        total_pes = cfg.total_pes(),
        add32_ops_0 = add32_cols[0].0,
        add32_ops_1 = add32_cols[1].0,
        add32_ops_2 = add32_cols[2].0,
        add32_cyc_0 = add32_cols[0].1,
        add32_cyc_1 = add32_cols[1].1,
        add32_cyc_2 = add32_cols[2].1,
        mul16_ops_0 = mul16_cols[0].0,
        mul16_ops_1 = mul16_cols[1].0,
        mul16_ops_2 = mul16_cols[2].0,
        mul16_cyc_0 = mul16_cols[0].1,
        mul16_cyc_1 = mul16_cols[1].1,
        mul16_cyc_2 = mul16_cols[2].1,
        kernel_speedup = ns_search / ns_search_into,
        sp_sim = sim_scalar_query_ns / sim_slab_query_ns,
        sim_qps = 1e9 / sim_slab_query_ns,
        hdc_dim = hdc_cfg.dim,
        hdc_classes = hdc_cfg.classes,
        sp_hdc = hdc_scalar_ns / hdc_slab_ns,
        ips_slab_seq = total_instructions / slab_seq_s,
        sp_slab = interp_seq_s / slab_seq_s,
        sp_slab_fused = slab_precompiled_unfused_s / slab_seq_s,
    );
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/BENCH_SIM.json", &json).expect("write target/BENCH_SIM.json");
    print!("{json}");
}

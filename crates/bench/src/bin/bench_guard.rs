//! Benchmark regression guard: re-measures the execution engine and fails
//! (exit 1) if throughput regressed against the checked-in `BENCH_SIM.json`.
//!
//! Two modes:
//!
//! * **Full** (default): runs the same add32 workload as `bench_sim`
//!   (16 groups × 64 PEs of 256×256, traces compiled once outside the
//!   timed region) and guards the slab engine's
//!   throughput (`instructions_per_sec_slab_sequential`) against the
//!   checked-in number. It must come in at no less than 75% of its
//!   baseline (>25% regression fails). The column is additionally held
//!   to an **absolute** floor ([`SLAB_SEQ_FLOOR_IPS`]) in
//!   release builds, so the bit-plane kernel win can't erode across
//!   regenerated baselines.
//!   It also re-runs `bench_sim`'s checkpoint workload and requires its
//!   deterministic byte columns to equal the checked-in ones exactly.
//! * **`--smoke`**: a small-geometry sanity pass for CI — validates that
//!   the checked-in JSON parses and carries the slab- and
//!   fusion-comparison entries, runs the interpreter and the slab engine
//!   on a scaled-down machine (the slab engine on both the default *fused*
//!   pipeline and unfused traces), checks all runs produce identical
//!   stats, and requires the slab engine to stay within 25% of the
//!   interpreter (it exists to be *faster*; this loose bound only catches
//!   pathological regressions without being flaky on loaded CI hosts).
//!
//! No JSON dependency is available offline, so numbers are read with a
//! small key scanner over the known single-number-per-key layout that
//! `bench_sim` emits.

use hyperap_arch::{ApMachine, ArchConfig, SlabMachine};
use hyperap_bench::{add32_streams, best_secs, checkpoint_workload, seed_machine, seed_slab};
use hyperap_compiler::{compile, opt, CompileOptions, OPT_LEVEL_MAX};
use hyperap_workloads::similarity as wsim;
use std::hint::black_box;

/// Maximum tolerated throughput regression (fraction of the baseline).
const FLOOR: f64 = 0.75;

/// Absolute floor for the word-parallel similarity query's speedup over
/// the scalar per-PE reference engine (`speedup_sim_slab_vs_scalar` in the
/// baseline). Carry-save accumulation plus the exact k-th-distance select
/// measure 250–360× on a 2-vCPU x86-64 host; 100× leaves room for that
/// host's 2× speed swings, so a regenerated baseline below it is a kernel
/// regression, not noise.
const SIM_SPEEDUP_FLOOR: f64 = 100.0;

/// Absolute floor for the slab engine's sequential throughput, in
/// instructions per second. The bit-plane arena rework (word-parallel
/// kernels, 64 PEs per ALU op) took `instructions_per_sec_slab_sequential`
/// from 8.07M to well past 3× that; this floor pins the win so a later
/// change can't quietly land a layout or kernel regression that a
/// relative-to-baseline check would absorb once the baseline is
/// regenerated. Applied to the *checked-in* baseline in both modes and to
/// the fresh release-build measurement in full mode.
const SLAB_SEQ_FLOOR_IPS: f64 = 24_200_000.0;

/// Scan `src` for `"key": <number>` and parse the number. The bench JSON
/// has unique keys and one scalar per line, so a plain substring scan is
/// unambiguous.
fn json_number(src: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = src.find(&pat)? + pat.len();
    let rest = src[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Scan `src` for `"key": true|false`. Same single-scalar-per-line layout
/// assumption as [`json_number`].
fn json_bool(src: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let at = src.find(&pat)? + pat.len();
    match src[at..].trim_start() {
        r if r.starts_with("true") => Some(true),
        r if r.starts_with("false") => Some(false),
        _ => None,
    }
}

/// Find the checked-in baseline next to the workspace (cwd first, then
/// walking up — `cargo run` leaves cwd at the invocation directory).
fn load_baseline() -> Option<(std::path::PathBuf, String)> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let p = dir.join("BENCH_SIM.json");
        if let Ok(s) = std::fs::read_to_string(&p) {
            return Some((p, s));
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Recompile the acceptance kernels at every opt level and fail when any
/// level above 0 emits *more* counted micro-ops than the level-0 oracle —
/// an optimizer must never pessimize. Also cross-checks the checked-in
/// baseline's compiler columns against the fresh (deterministic) counts.
fn guard_opt_levels(baseline: &str, path: &std::path::Path) -> bool {
    let mut failed = false;
    for (name, src) in [
        (
            "add32",
            "unsigned int (32) main(unsigned int (32) a, unsigned int (32) b) { return a + b; }",
        ),
        (
            "mul16",
            "unsigned int (16) main(unsigned int (16) a, unsigned int (16) b) { return a * b; }",
        ),
    ] {
        let ops_at = |level: u8| {
            let opts = CompileOptions {
                opt_level: level,
                ..CompileOptions::default()
            };
            opt::counted_ops(
                compile(src, &opts)
                    .expect("guard kernel compiles")
                    .program(),
            )
        };
        let base = ops_at(0);
        for level in 1..=OPT_LEVEL_MAX {
            let ops = ops_at(level);
            if ops > base {
                eprintln!(
                    "bench_guard: {name} at opt level {level} emits {ops} ops — MORE than \
                     level 0's {base} (optimizer pessimized the stream)"
                );
                failed = true;
            } else {
                println!(
                    "bench_guard: {name} opt level {level}: {ops} ops vs {base} at level 0 \
                     ({:.1}% saved)",
                    100.0 * (base - ops) as f64 / base as f64
                );
            }
            let key = format!("{name}_compiled_ops_level{level}");
            match json_number(baseline, &key) {
                Some(v) if v == ops as f64 => {}
                Some(v) => {
                    eprintln!(
                        "bench_guard: baseline {} says {key} = {v}, fresh compile says {ops} — \
                         regenerate BENCH_SIM.json",
                        path.display()
                    );
                    failed = true;
                }
                None => {
                    eprintln!("bench_guard: baseline {} lacks {key}", path.display());
                    failed = true;
                }
            }
        }
    }
    failed
}

/// Gate the checked-in `serve` block (emitted by `serve_bench`): the
/// shared program cache must serve ≥90% of lookups, saturation throughput
/// must be a real positive number, and the saturated pool must beat the
/// depth-1 closed loop by ≥1.5× where the host's threading pays —
/// degrading to a ≥0.9× "concurrency costs <10%" floor on single-CPU
/// hosts, where batching amortization is the only available win.
fn guard_serve(baseline: &str, path: &std::path::Path) -> bool {
    let mut failed = false;
    // `parallel_pays` also appears in the `host` block; scan from the
    // serve block so we read serve_bench's copy (the host it measured on).
    let Some(serve_at) = baseline.find("\"serve\":") else {
        eprintln!(
            "bench_guard: baseline {} has no serve block — run serve_bench after bench_sim",
            path.display()
        );
        return true;
    };
    let baseline = &baseline[serve_at..];
    for key in ["saturation_jobs_per_sec", "single_jobs_per_sec"] {
        match json_number(baseline, key) {
            Some(v) if v.is_finite() && v > 0.0 => {
                println!("bench_guard: serve {key} = {v}");
            }
            other => {
                eprintln!(
                    "bench_guard: baseline {} lacks usable serve {key} ({other:?}) — \
                     run serve_bench after bench_sim",
                    path.display()
                );
                failed = true;
            }
        }
    }
    match json_number(baseline, "cache_hit_rate") {
        Some(rate) if rate >= 0.90 => {
            println!("bench_guard: serve cache_hit_rate = {rate:.4} (floor 0.90)");
        }
        Some(rate) => {
            eprintln!("bench_guard: serve cache_hit_rate {rate:.4} below the 0.90 floor");
            failed = true;
        }
        None => {
            eprintln!(
                "bench_guard: baseline {} lacks cache_hit_rate",
                path.display()
            );
            failed = true;
        }
    }
    let pays = json_bool(baseline, "parallel_pays");
    let floor = match pays {
        Some(true) => 1.5,
        Some(false) => 0.9,
        None => {
            eprintln!(
                "bench_guard: baseline {} lacks serve parallel_pays",
                path.display()
            );
            return true;
        }
    };
    match json_number(baseline, "throughput_scaling") {
        Some(s) if s >= floor => {
            println!(
                "bench_guard: serve throughput_scaling = {s:.2}x clears the {floor}x floor \
                 (parallel_pays = {})",
                pays.unwrap()
            );
        }
        Some(s) => {
            eprintln!(
                "bench_guard: serve throughput_scaling {s:.2}x below the {floor}x floor \
                 (parallel_pays = {})",
                pays.unwrap()
            );
            failed = true;
        }
        None => {
            eprintln!(
                "bench_guard: baseline {} lacks throughput_scaling",
                path.display()
            );
            failed = true;
        }
    }
    failed
}

/// Gate the checked-in `similarity` block (emitted by `bench_sim`): every
/// column must be a usable positive number, the word-parallel top-k query
/// must clear the absolute [`SIM_SPEEDUP_FLOOR`] over the scalar per-PE
/// reference, the HDC inference speedup must not have collapsed, and the
/// host-reference classifier must actually classify (accuracy floor).
fn guard_similarity(baseline: &str, path: &std::path::Path) -> bool {
    let mut failed = false;
    for key in [
        "sim_scalar_query_ns",
        "sim_slab_query_ns",
        "sim_queries_per_sec_slab",
        "sim_words_per_ns",
        "hdc_classify_scalar_ns",
        "hdc_classify_slab_ns",
    ] {
        match json_number(baseline, key) {
            Some(v) if v.is_finite() && v > 0.0 => {
                println!("bench_guard: similarity {key} = {v}");
            }
            other => {
                eprintln!(
                    "bench_guard: baseline {} lacks usable similarity {key} ({other:?}) — \
                     regenerate BENCH_SIM.json",
                    path.display()
                );
                failed = true;
            }
        }
    }
    match json_number(baseline, "speedup_sim_slab_vs_scalar") {
        Some(s) if s >= SIM_SPEEDUP_FLOOR => {
            println!(
                "bench_guard: similarity speedup_sim_slab_vs_scalar = {s:.2}x clears the \
                 {SIM_SPEEDUP_FLOOR}x floor"
            );
        }
        Some(s) => {
            eprintln!(
                "bench_guard: similarity speedup_sim_slab_vs_scalar {s:.2}x below the \
                 {SIM_SPEEDUP_FLOOR}x floor"
            );
            failed = true;
        }
        None => {
            eprintln!(
                "bench_guard: baseline {} lacks speedup_sim_slab_vs_scalar",
                path.display()
            );
            failed = true;
        }
    }
    match json_number(baseline, "speedup_hdc_slab_vs_scalar") {
        // HDC inference is one `nearest` query, so most of the top-k win
        // carries over; 10× leaves headroom for the smaller search region.
        Some(s) if s >= 10.0 => {
            println!("bench_guard: similarity speedup_hdc_slab_vs_scalar = {s:.2}x (floor 10x)");
        }
        other => {
            eprintln!(
                "bench_guard: baseline {} speedup_hdc_slab_vs_scalar unusable or below 10x \
                 ({other:?})",
                path.display()
            );
            failed = true;
        }
    }
    match json_number(baseline, "hdc_host_accuracy") {
        Some(a) if a >= 0.85 => {
            println!("bench_guard: similarity hdc_host_accuracy = {a:.4} (floor 0.85)");
        }
        other => {
            eprintln!(
                "bench_guard: baseline {} hdc_host_accuracy unusable or below 0.85 ({other:?})",
                path.display()
            );
            failed = true;
        }
    }
    failed
}

/// Gate the checked-in `checkpoint` block (emitted by `bench_sim`): every
/// cost column must be a usable positive number, and the incremental
/// snapshot's dirty-chunk hit rate must stay ≥0.9 — the delta path exists
/// so a barrier costs ~1/16 of a full snapshot; a collapsed hit rate means
/// write tracking went conservative and checkpointing is back on the
/// critical path. The *disabled* cost of checkpointing (per-op version
/// bumps on the slab write paths) is pinned separately by the absolute
/// [`SLAB_SEQ_FLOOR_IPS`] floor on the hot engine column: zero-checkpoint
/// configs must keep the existing kernels.
fn guard_checkpoint(baseline: &str, path: &std::path::Path) -> bool {
    let mut failed = false;
    for key in [
        "ckpt_payload_bytes",
        "ckpt_full_snapshot_ms",
        "ckpt_full_mb_per_s",
        "ckpt_incremental_bytes",
        "ckpt_incremental_ms",
        "ckpt_incremental_mb_per_s",
        "ckpt_restore_ms",
    ] {
        match json_number(baseline, key) {
            Some(v) if v.is_finite() && v > 0.0 => {
                println!("bench_guard: checkpoint {key} = {v}");
            }
            other => {
                eprintln!(
                    "bench_guard: baseline {} lacks usable checkpoint {key} ({other:?}) — \
                     regenerate BENCH_SIM.json",
                    path.display()
                );
                failed = true;
            }
        }
    }
    match json_number(baseline, "checkpoint_dirty_hit_rate") {
        Some(r) if r >= 0.9 => {
            println!("bench_guard: checkpoint_dirty_hit_rate = {r:.4} (floor 0.9)");
        }
        other => {
            eprintln!(
                "bench_guard: baseline {} checkpoint_dirty_hit_rate unusable or below 0.9 \
                 ({other:?}) — write tracking has gone conservative",
                path.display()
            );
            failed = true;
        }
    }
    failed
}

/// Re-run `bench_sim`'s checkpoint workload ([`checkpoint_workload`]) and
/// require the columns that do not vary with host noise — the full image
/// size, the incremental commit's bytes and its dirty-chunk hit rate — to
/// equal the checked-in `checkpoint` block. A chunk format or dirty
/// tracking change moves them, and must come with a regenerated baseline.
fn guard_checkpoint_bytes(
    baseline: &str,
    path: &std::path::Path,
    cfg: &ArchConfig,
    streams: &[Vec<hyperap_isa::Instruction>],
) -> bool {
    let (_, _, full, incr) = checkpoint_workload(cfg.clone(), streams);
    let hit_rate = incr.chunks_clean as f64 / incr.chunks_total as f64;
    let mut failed = false;
    for (key, live, tolerance) in [
        ("ckpt_payload_bytes", full.payload_bytes as f64, 0.0),
        ("ckpt_incremental_bytes", incr.bytes_written as f64, 0.0),
        // Printed with 4 decimals.
        ("checkpoint_dirty_hit_rate", hit_rate, 5e-5),
    ] {
        match json_number(baseline, key) {
            Some(want) if (live - want).abs() <= tolerance => {
                println!("bench_guard: checkpoint {key} = {live} matches the baseline");
            }
            other => {
                eprintln!(
                    "bench_guard: checkpoint {key} measured {live}, baseline {} has {other:?} — \
                     the checkpoint bytes changed; regenerate BENCH_SIM.json",
                    path.display()
                );
                failed = true;
            }
        }
    }
    failed
}

fn smoke() -> i32 {
    // Baseline sanity: the checked-in JSON must parse and must carry the
    // engine entries bench_sim emits.
    let Some((path, baseline)) = load_baseline() else {
        eprintln!("bench_guard: BENCH_SIM.json not found");
        return 1;
    };
    let mut failed = false;
    for key in [
        "instructions_per_sec_slab_sequential",
        "speedup_slab_vs_interpreter_sequential",
        "speedup_slab_fused_vs_unfused",
    ] {
        match json_number(&baseline, key) {
            Some(v) if v.is_finite() && v > 0.0 => {
                println!("bench_guard: baseline {key} = {v}");
            }
            other => {
                eprintln!(
                    "bench_guard: baseline {} lacks usable {key} ({other:?})",
                    path.display()
                );
                failed = true;
            }
        }
    }
    failed |= baseline_below_slab_floor(&baseline, &path);
    failed |= guard_opt_levels(&baseline, &path);
    failed |= guard_serve(&baseline, &path);
    failed |= guard_similarity(&baseline, &path);
    failed |= guard_checkpoint(&baseline, &path);

    // Small geometry: 4 groups × 16 PEs of 64×256 keeps the smoke under a
    // second even in debug builds.
    let mut cfg = ArchConfig::paper_scaled(64);
    cfg.groups = 4;
    cfg.subarrays_per_bank = 4;
    cfg.pes_per_subarray = 4;
    let streams = add32_streams(cfg.cols, cfg.groups);

    let mut interp = ApMachine::new(cfg.clone());
    let mut slab = SlabMachine::new(cfg.clone());
    seed_machine(&mut interp);
    seed_slab(&mut slab);
    let mut slab_unfused = SlabMachine::new(cfg.clone());
    seed_slab(&mut slab_unfused);
    let interp_stats = interp.run(&streams);
    let slab_stats = slab.run(&streams);
    // The fused peephole pipeline (the default) must be observationally
    // identical to unfused compilation — including architectural op/cycle
    // counts, which bill fused micro-ops as their unfused constituents.
    let unfused = hyperap_arch::trace::compile_streams_unfused(&streams, slab_unfused.config());
    let slab_unfused_stats = slab_unfused
        .try_run_compiled(&unfused)
        .expect("fault-free smoke run");
    if interp_stats != slab_stats {
        eprintln!("bench_guard: interpreter and slab engines disagree on smoke workload");
        failed = true;
    } else if interp_stats != slab_unfused_stats {
        eprintln!("bench_guard: fused and unfused slab runs disagree on smoke workload");
        failed = true;
    } else {
        println!(
            "bench_guard: interpreter and slab (fused and unfused) bit-identical on smoke workload"
        );
    }

    // Fault cross-check: the same workload under a dense seeded fault model
    // (stuck cells, transient misses, endurance sparing) must stay
    // bit-identical across both engines. This is the cheap CI-side
    // sentinel for the full differential suite in
    // `crates/arch/tests/fault_equivalence.rs`.
    let fault_cfg = ArchConfig {
        faults: hyperap_arch::FaultConfig {
            model: hyperap_arch::FaultModel {
                seed: 0xB16_F417,
                stuck_per_million: 20_000,
                miss_per_million: 10_000,
                endurance_limit: Some(50),
            },
            spare_cols: 4,
        },
        ..cfg.clone()
    };
    let mut f_interp = ApMachine::new(fault_cfg.clone());
    let mut f_slab = SlabMachine::new(fault_cfg);
    seed_machine(&mut f_interp);
    seed_slab(&mut f_slab);
    if f_interp.try_run(&streams) != f_slab.try_run(&streams) {
        eprintln!("bench_guard: engines disagree on the seeded-fault smoke workload");
        failed = true;
    } else {
        println!("bench_guard: both engines bit-identical under the seeded fault model");
    }

    // Similarity cross-check: Hamming top-k over random stored codes must
    // agree across the host reference, the scalar engine, and the slab
    // engine — hits and priced stats. This is the cheap CI-side sentinel
    // for `crates/arch/tests/similarity_equivalence.rs`.
    let sim_rows = 8;
    let codes = wsim::CodeSet::generate(0x57A6E, cfg.total_pes(), sim_rows, 64);
    let mut sim_ap = ApMachine::new(cfg.clone());
    codes.load_ap(&mut sim_ap);
    let mut sim_slab = SlabMachine::new(cfg.clone());
    codes.load_slab(&mut sim_slab);
    let query = codes.random_query(3);
    let key = codes.query_key(&query, cfg.cols);
    let want = codes.host_topk(&query, 5);
    let ap_out = sim_ap.hamming_topk(&key, sim_rows, 5);
    let slab_out = sim_slab.hamming_topk(&key, sim_rows, 5);
    if ap_out.hits != want || slab_out.hits != want || ap_out.stats != slab_out.stats {
        eprintln!("bench_guard: engines disagree on the similarity smoke query");
        failed = true;
    } else {
        println!("bench_guard: similarity top-k bit-identical across host, scalar, and slab");
    }

    let reps = 5;
    let interp_s = best_secs(reps, || {
        black_box(interp.run(&streams));
    });
    let traces = hyperap_arch::trace::compile_streams(&streams, slab.config());
    let slab_s = best_secs(reps, || {
        black_box(
            slab.try_run_compiled(&traces)
                .expect("fault-free smoke run"),
        );
    });
    let slab_ratio = interp_s / slab_s;
    println!("bench_guard: smoke interp {interp_s:.3e}s, slab {slab_s:.3e}s ({slab_ratio:.2}x)");
    if slab_ratio < FLOOR {
        eprintln!("bench_guard: slab engine slower than {FLOOR}x interpreter — regression");
        failed = true;
    }
    i32::from(failed)
}

/// Check the checked-in baseline's slab-sequential column against the
/// absolute [`SLAB_SEQ_FLOOR_IPS`] floor; returns `true` on failure. This
/// catches a regression that sneaks in *with* a regenerated baseline —
/// the relative guard can't.
fn baseline_below_slab_floor(baseline: &str, path: &std::path::Path) -> bool {
    let key = "instructions_per_sec_slab_sequential";
    let Some(v) = json_number(baseline, key) else {
        eprintln!("bench_guard: {} lacks {key}", path.display());
        return true;
    };
    if v < SLAB_SEQ_FLOOR_IPS {
        eprintln!(
            "bench_guard: baseline {key} = {v:.0} below the absolute floor \
             {SLAB_SEQ_FLOOR_IPS:.0} ({})",
            path.display()
        );
        return true;
    }
    println!(
        "bench_guard: baseline {key} = {v:.0} clears the absolute floor {SLAB_SEQ_FLOOR_IPS:.0}"
    );
    false
}

/// Compare a freshly measured throughput column against its baseline key;
/// returns `true` when it regressed below [`FLOOR`].
fn guard_column(label: &str, key: &str, ips: f64, baseline: &str, path: &std::path::Path) -> bool {
    let Some(base_ips) = json_number(baseline, key) else {
        eprintln!("bench_guard: {} lacks {key}", path.display());
        return true;
    };
    let ratio = ips / base_ips;
    println!("bench_guard: {label} {ips:.0} inst/s vs baseline {base_ips:.0} ({ratio:.2}x)");
    if ratio < FLOOR {
        eprintln!(
            "bench_guard: {label} >{:.0}% throughput regression against {}",
            (1.0 - FLOOR) * 100.0,
            path.display()
        );
        return true;
    }
    false
}

fn full() -> i32 {
    let Some((path, baseline)) = load_baseline() else {
        eprintln!("bench_guard: BENCH_SIM.json not found");
        return 1;
    };

    // The bench_sim engine workload, re-measured: add32 on every PE of a
    // 16-group × 64-PE machine of 256×256, one guarded slab column.
    let mut cfg = ArchConfig::paper_scaled(256);
    cfg.groups = 16;
    let streams = add32_streams(cfg.cols, cfg.groups);
    let total_instructions: usize = streams.iter().map(Vec::len).sum();

    // Best-of-5 with a discarded warmup: the guard re-measures on a possibly
    // loaded host, so it gets more samples than the baseline's best-of-3 —
    // biasing toward stability, not toward hiding real regressions (the
    // FLOOR still applies to the best observed run).
    let reps = 5;
    let slab_seq = {
        let mut m = SlabMachine::new(cfg.clone());
        seed_slab(&mut m);
        let traces = hyperap_arch::trace::compile_streams(&streams, m.config());
        black_box(m.try_run_compiled(&traces).expect("fault-free run"));
        let secs = best_secs(reps, || {
            black_box(m.try_run_compiled(&traces).expect("fault-free run"));
        });
        total_instructions as f64 / secs
    };

    let mut failed = false;
    failed |= guard_column(
        "slab sequential",
        "instructions_per_sec_slab_sequential",
        slab_seq,
        &baseline,
        &path,
    );
    failed |= baseline_below_slab_floor(&baseline, &path);
    failed |= guard_opt_levels(&baseline, &path);
    failed |= guard_serve(&baseline, &path);
    failed |= guard_similarity(&baseline, &path);
    failed |= guard_checkpoint(&baseline, &path);
    failed |= guard_checkpoint_bytes(&baseline, &path, &cfg, &streams);

    // Similarity re-measure: the same stored codes and query as bench_sim
    // (seeds match), guarded relative to the baseline throughput column
    // and — in release builds — against the absolute speedup floor.
    {
        let sim_rows = 64;
        let sim_k = 16;
        let codes = wsim::CodeSet::generate(0x51AB, cfg.total_pes(), sim_rows, cfg.cols);
        let query = codes.random_query(7);
        let key = codes.query_key(&query, cfg.cols);
        let mut sim_ap = ApMachine::new(cfg.clone());
        codes.load_ap(&mut sim_ap);
        let mut sim_slab = SlabMachine::new(cfg.clone());
        codes.load_slab(&mut sim_slab);
        let want = codes.host_topk(&query, sim_k);
        let ap_out = sim_ap.hamming_topk(&key, sim_rows, sim_k);
        let slab_out = sim_slab.hamming_topk(&key, sim_rows, sim_k);
        if ap_out.hits != want || slab_out.hits != want || ap_out.stats != slab_out.stats {
            eprintln!("bench_guard: engines disagree on the similarity workload");
            failed = true;
        }
        let scalar_s = best_secs(reps, || {
            black_box(sim_ap.hamming_topk(&key, sim_rows, sim_k));
        });
        let slab_s = best_secs(reps, || {
            black_box(sim_slab.hamming_topk(&key, sim_rows, sim_k));
        });
        failed |= guard_column(
            "similarity slab query",
            "sim_queries_per_sec_slab",
            1.0 / slab_s,
            &baseline,
            &path,
        );
        let speedup = scalar_s / slab_s;
        if cfg!(debug_assertions) {
            println!(
                "bench_guard: similarity speedup {speedup:.2}x (debug build — absolute floor \
                 skipped)"
            );
        } else if speedup < SIM_SPEEDUP_FLOOR {
            eprintln!(
                "bench_guard: measured similarity speedup {speedup:.2}x below the \
                 {SIM_SPEEDUP_FLOOR}x floor"
            );
            failed = true;
        } else {
            println!(
                "bench_guard: measured similarity speedup {speedup:.2}x clears the \
                 {SIM_SPEEDUP_FLOOR}x floor"
            );
        }
    }
    if cfg!(debug_assertions) {
        println!("bench_guard: debug build — skipping the absolute floor on the fresh measurement");
    } else if slab_seq < SLAB_SEQ_FLOOR_IPS {
        eprintln!(
            "bench_guard: measured slab sequential {slab_seq:.0} inst/s below the absolute \
             floor {SLAB_SEQ_FLOOR_IPS:.0}"
        );
        failed = true;
    } else {
        println!(
            "bench_guard: measured slab sequential {slab_seq:.0} inst/s clears the absolute \
             floor {SLAB_SEQ_FLOOR_IPS:.0}"
        );
    }
    i32::from(failed)
}

fn main() {
    let smoke_mode = std::env::args().any(|a| a == "--smoke");
    std::process::exit(if smoke_mode { smoke() } else { full() });
}

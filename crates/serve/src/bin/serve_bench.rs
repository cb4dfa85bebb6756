//! Closed-loop load benchmark for the serving layer, and the generator of
//! the `serve` block in `BENCH_SIM.json`.
//!
//! Two measured regimes over the same job mix (single-group `add32`
//! kernels plus a search-heavy probe kernel, preloaded operands):
//!
//! * **single**: one submitter, window 1 — a depth-1 closed loop. At most
//!   one job is ever in flight, so at most one pool machine is busy: this
//!   is the no-concurrency baseline.
//! * **saturation**: `2 × machines` submitters, window 8 — every machine
//!   busy, the admission queue non-empty, batching active.
//!
//! Reported: jobs/s in both regimes, their ratio (`throughput_scaling`),
//! p50/p99 submit-to-completion latency under saturation, max queue depth,
//! shared-cache hit rate, batch statistics, and the process memory
//! high-water mark. On hosts where a second worker pays
//! ([`hyperap_arch::par::parallel_pays`]) the scaling ratio must reach
//! 1.5×; on a single-CPU host the saturated pool cannot beat the depth-1
//! loop, so the gate is only that concurrency costs <10% (0.9×). Either
//! way the shared cache must serve ≥90% of lookups. Violations exit
//! non-zero, and `bench_guard` re-checks the same floors against the
//! checked-in numbers.
//!
//! Run `bench_sim` first, from the same working directory: it writes
//! `target/BENCH_SIM.json` wholesale, and this binary splices its `serve`
//! block into that file. To regenerate the checked-in baseline, copy the
//! result over the repository-root `BENCH_SIM.json`.
//!
//! `--smoke` runs a seconds-scale correctness pass on a tiny geometry
//! (results cross-checked against isolated machines) and writes nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hyperap_arch::{ArchConfig, SlabMachine};
use hyperap_core::microcode::Microcode;
use hyperap_isa::lower::lower;
use hyperap_isa::Instruction;
use hyperap_serve::{CellLoad, JobSpec, ServeConfig, ServePool};
use hyperap_tcam::SearchKey;

/// Per-group geometry of the load test: 8 groups × 16 PEs of 64×256 —
/// large enough that a job's sweep dominates its dispatch, small enough
/// that a full run stays under a couple of seconds.
fn bench_arch() -> ArchConfig {
    let mut cfg = ArchConfig::tiny();
    cfg.groups = 8;
    cfg.banks_per_group = 1;
    cfg.subarrays_per_bank = 2;
    cfg.pes_per_subarray = 8;
    cfg.rows = 64;
    cfg.cols = 256;
    cfg
}

/// The arithmetic kernel: one group's worth of a `width`-bit add (32 on
/// the 256-column load geometry; 8 on the 64-column smoke geometry, where
/// add32's column footprint does not fit).
fn add_stream(cols: usize, width: usize) -> Vec<Instruction> {
    let mut mc = Microcode::new(cols);
    let (x, y) = mc.alloc_paired_inputs("a", "b", width);
    let _ = mc.add(&x, &y);
    lower(&mc.into_program())
}

/// The probe kernel: search-heavy, no writes — a second distinct cache
/// entry so hits are not an artifact of a one-program mix.
fn probe_stream(cols: usize) -> Vec<Instruction> {
    let mut key = String::from("1-0");
    while key.len() < cols.min(12) {
        key.push('-');
    }
    vec![
        Instruction::SetKey {
            key: SearchKey::parse(&key).unwrap(),
        },
        Instruction::Search {
            acc: false,
            encode: false,
        },
        Instruction::SetTag,
        Instruction::Search {
            acc: true,
            encode: false,
        },
        Instruction::Count,
        Instruction::Index,
    ]
}

/// Operand preloads for job-local PE space: a few encoded-looking bit
/// pairs so the adders chew on non-trivial data.
fn job_loads(pes: usize, rows: usize) -> Vec<CellLoad> {
    let mut loads = Vec::new();
    for pe in 0..pes {
        for row in 0..8.min(rows) {
            loads.push(CellLoad {
                pe,
                row,
                col: (pe + row) % 2,
                value: (pe ^ row) & 1 == 1,
            });
        }
    }
    loads
}

/// One closed-loop run: `submitters` threads, each keeping up to `window`
/// jobs in flight until `jobs_per_submitter` complete. Returns
/// (elapsed seconds, sorted per-job latencies in seconds).
fn closed_loop(
    pool: &ServePool,
    kernels: &[Vec<Vec<Instruction>>],
    loads: &[CellLoad],
    submitters: usize,
    window: usize,
    jobs_per_submitter: usize,
) -> (f64, Vec<f64>) {
    let completed = AtomicU64::new(0);
    let start = Instant::now();
    let latencies = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..submitters {
            let pool = &pool;
            let kernels = &kernels;
            let completed = &completed;
            let latencies = &latencies;
            s.spawn(move || {
                let mut local = Vec::with_capacity(jobs_per_submitter);
                let mut done = 0usize;
                let mut next = 0usize;
                let mut inflight: Vec<(Instant, hyperap_serve::JobHandle)> = Vec::new();
                while done < jobs_per_submitter {
                    while inflight.len() < window && next < jobs_per_submitter {
                        let k = (next + t) % kernels.len();
                        let handle = pool
                            .submit(JobSpec {
                                tenant: t as u32,
                                streams: kernels[k].clone(),
                                loads: loads.to_vec(),
                            })
                            .expect("window below the tenant depth bound");
                        inflight.push((Instant::now(), handle));
                        next += 1;
                    }
                    let (sent, handle) = inflight.remove(0);
                    handle.wait().expect("zero-fault job cannot fail");
                    local.push(sent.elapsed().as_secs_f64());
                    done += 1;
                }
                completed.fetch_add(done as u64, Ordering::Relaxed);
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut lats = latencies.into_inner().unwrap();
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(
        completed.load(Ordering::Relaxed) as usize,
        submitters * jobs_per_submitter
    );
    (elapsed, lats)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Process memory high-water mark (`VmHWM`) in kB, from
/// `/proc/self/status`; 0 where unavailable.
fn vm_hwm_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Splice `block` in as the top-level `"serve"` object of a
/// `BENCH_SIM.json` (replacing any previous one). No JSON dependency is
/// available offline, so this is a brace-depth scan over the known
/// bench_sim layout.
fn merge_serve_block(json: &str, block: &str) -> String {
    let mut body = json.trim_end().to_string();
    // Drop an existing `"serve": { ... }` block, including a trailing or
    // leading comma keeping the object list well-formed.
    if let Some(start) = body.find("\"serve\":") {
        let open = start + body[start..].find('{').expect("serve block opens");
        let mut depth = 0usize;
        let mut end = open;
        for (i, c) in body[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        let mut cut_start = start;
        let mut cut_end = end;
        let tail = body[end..].trim_start();
        if tail.starts_with(',') {
            cut_end = end + body[end..].find(',').unwrap() + 1;
        } else if body[..start].trim_end().ends_with(',') {
            cut_start = body[..start].rfind(',').unwrap();
        }
        body.replace_range(cut_start..cut_end, "");
        body = body.trim_end().to_string();
    }
    let close = body.rfind('}').expect("top-level object closes");
    let head = body[..close].trim_end();
    let sep = if head.ends_with('{') { "" } else { "," };
    format!("{head}{sep}\n  \"serve\": {block}\n}}\n")
}

/// Where `bench_sim` writes its fresh numbers, relative to the working
/// directory.
const BENCH_JSON: &str = "target/BENCH_SIM.json";

/// Jobs each submitter completes in the measured regimes.
const JOBS_PER_SUBMITTER: usize = 300;

/// Tiny-geometry correctness pass for CI: results under concurrency are
/// cross-checked against isolated machines; nothing is written.
fn smoke() -> i32 {
    let arch = ArchConfig::tiny();
    let kernels = vec![
        vec![add_stream(arch.cols, 8)],
        vec![probe_stream(arch.cols)],
    ];
    let pes_per_group = arch.total_pes() / arch.groups;
    let loads = job_loads(pes_per_group, arch.rows);

    // Expected results: each kernel alone on a fresh machine of its size.
    let expected: Vec<_> = kernels
        .iter()
        .map(|streams| {
            let mut cfg = arch.clone();
            cfg.groups = streams.len();
            let mut iso = SlabMachine::new(cfg);
            for l in &loads {
                iso.load_bit(l.pe, l.row, l.col, l.value);
            }
            iso.run(streams)
        })
        .collect();

    let mut cfg = ServeConfig::new(arch);
    cfg.machines = 2;
    let pool = ServePool::new(cfg);
    let submitters = 3;
    let jobs = 30;
    std::thread::scope(|s| {
        for t in 0..submitters {
            let pool = &pool;
            let kernels = &kernels;
            let expected = &expected;
            let loads = &loads;
            s.spawn(move || {
                for i in 0..jobs {
                    let k = (i + t) % kernels.len();
                    let out = pool
                        .submit(JobSpec {
                            tenant: t as u32,
                            streams: kernels[k].clone(),
                            loads: loads.clone(),
                        })
                        .expect("smoke stays under the depth bound")
                        .wait()
                        .expect("zero-fault job cannot fail");
                    assert_eq!(out.stats, expected[k], "kernel {k} diverged under load");
                }
            });
        }
    });
    let stats = pool.shutdown();
    let hit_rate = stats.cache.hit_rate();
    println!(
        "serve_bench --smoke: {} jobs, {} sweeps ({} batched), cache hit rate {:.3}",
        stats.completed_jobs, stats.sweeps, stats.batched_jobs, hit_rate
    );
    let mut failed = false;
    if stats.completed_jobs != (submitters * jobs) as u64 {
        eprintln!("serve_bench: lost jobs under --smoke");
        failed = true;
    }
    if hit_rate < 0.90 {
        eprintln!("serve_bench: shared cache hit rate {hit_rate:.3} below 0.90");
        failed = true;
    }
    if stats.healthy_machines != stats.machines {
        eprintln!("serve_bench: zero-fault smoke quarantined a machine");
        failed = true;
    }
    i32::from(failed)
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }

    let arch = bench_arch();
    let machines = hyperap_arch::par::logical_cpus().max(2);
    let parallel_pays = hyperap_arch::par::parallel_pays();

    let kernels = vec![
        vec![add_stream(arch.cols, 32)],
        vec![probe_stream(arch.cols)],
    ];
    let pes_per_group = arch.total_pes() / arch.groups;
    let loads = job_loads(pes_per_group, arch.rows);

    // Regime 1: depth-1 closed loop — the no-concurrency baseline.
    let mut cfg = ServeConfig::new(arch.clone());
    cfg.machines = machines;
    let single_pool = ServePool::new(cfg);
    let submitters = 2 * machines;
    let single_jobs = submitters * JOBS_PER_SUBMITTER;
    let (single_s, _) = closed_loop(&single_pool, &kernels, &loads, 1, 1, single_jobs);
    let single_stats = single_pool.shutdown();
    assert_eq!(single_stats.completed_jobs, single_jobs as u64);
    let single_jps = single_jobs as f64 / single_s;

    // Regime 2: saturation — every machine busy, the queue non-empty.
    let mut cfg = ServeConfig::new(arch.clone());
    cfg.machines = machines;
    let pool = ServePool::new(cfg);
    let (multi_s, lats) = closed_loop(&pool, &kernels, &loads, submitters, 8, JOBS_PER_SUBMITTER);
    let stats = pool.shutdown();
    assert_eq!(stats.completed_jobs, single_jobs as u64);
    let multi_jps = single_jobs as f64 / multi_s;

    let scaling = multi_jps / single_jps;
    let hit_rate = stats.cache.hit_rate();
    let p50_us = percentile(&lats, 0.50) * 1e6;
    let p99_us = percentile(&lats, 0.99) * 1e6;
    let hwm = vm_hwm_kb();

    println!(
        "serve_bench: {machines} machines, {submitters} submitters, {single_jobs} jobs/regime"
    );
    println!("serve_bench: single {single_jps:.0} jobs/s, saturated {multi_jps:.0} jobs/s ({scaling:.2}x)");
    println!(
        "serve_bench: p50 {p50_us:.0}us p99 {p99_us:.0}us, max queue depth {}, \
         {} batched jobs over {} sweeps, cache hit rate {hit_rate:.3}, VmHWM {hwm} kB",
        stats.max_queue_depth, stats.batched_jobs, stats.sweeps
    );

    // The same floors bench_guard holds the checked-in numbers to.
    let scaling_floor = if parallel_pays { 1.5 } else { 0.9 };
    let mut failed = false;
    if scaling < scaling_floor {
        eprintln!(
            "serve_bench: throughput scaling {scaling:.2}x below the {scaling_floor}x floor \
             (parallel_pays = {parallel_pays})"
        );
        failed = true;
    }
    if hit_rate < 0.90 {
        eprintln!("serve_bench: shared cache hit rate {hit_rate:.3} below 0.90");
        failed = true;
    }

    let block = format!(
        r#"{{
    "machines": {machines},
    "submitters": {submitters},
    "jobs_per_regime": {single_jobs},
    "single_jobs_per_sec": {single_jps:.1},
    "saturation_jobs_per_sec": {multi_jps:.1},
    "throughput_scaling": {scaling:.3},
    "parallel_pays": {parallel_pays},
    "latency_p50_us": {p50_us:.1},
    "latency_p99_us": {p99_us:.1},
    "max_queue_depth": {},
    "batched_jobs": {},
    "sweeps": {},
    "cache_hit_rate": {hit_rate:.4},
    "vm_hwm_kb": {hwm}
  }}"#,
        stats.max_queue_depth, stats.batched_jobs, stats.sweeps
    );
    match std::fs::read_to_string(BENCH_JSON) {
        Ok(json) => {
            std::fs::write(BENCH_JSON, merge_serve_block(&json, &block))
                .unwrap_or_else(|e| panic!("write {BENCH_JSON}: {e}"));
            println!("serve_bench: merged serve block into {BENCH_JSON}");
        }
        Err(_) => {
            eprintln!("serve_bench: {BENCH_JSON} not found — run bench_sim first");
            failed = true;
        }
    }
    std::process::exit(i32::from(failed));
}

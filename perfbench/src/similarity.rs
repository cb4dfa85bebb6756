//! `similarity_index`: a checkpointed Hamming top-k index.
//!
//! A 1024-PE × 64-row × 256-bit `CodeSet` serves a closed loop of
//! `hamming_topk` (k = 16) queries. After every [`QUERIES_PER_UPDATE`]
//! queries an update batch rewrites [`UPDATE_CODES`] codes of one group
//! through the host load path and commits an incremental checkpoint into a
//! `MemSink`; every [`RESTORE_EVERY`] updates, and once at the end, the
//! latest checkpoint is resumed into a fresh machine, which must answer
//! queries exactly as the live one does.

use std::time::Instant;

use hyperap_arch::{SimilarityHit, SlabMachine};
use hyperap_ckpt::{CheckpointStats, Checkpointer, MemSink};
use hyperap_workloads::similarity::{code_key, CodeSet};

use crate::report::{median, percentile, Report};
use crate::trace::Tracer;
use crate::{machine_config, splitmix, Args};

const GROUPS: usize = 16;
const ROWS: usize = 64;
const BITS: usize = 256;
const K: usize = 16;
const QUERIES_PER_UPDATE: usize = 8;
const UPDATE_CODES: usize = 64;
const RESTORE_EVERY: usize = 8;
/// Queries and commits whose exact counts the drift sentinel compares.
const SENTINEL_QUERIES: usize = 32;
const SENTINEL_COMMITS: usize = 4;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;

/// The codes packed into u64 words: the fast host top-k oracle, itself
/// cross-checked against `CodeSet::host_topk` after every update.
struct Packed {
    words: Vec<[u64; BITS / 64]>,
}

fn pack(code: &[bool]) -> [u64; BITS / 64] {
    let mut w = [0u64; BITS / 64];
    for (i, &b) in code.iter().enumerate() {
        w[i / 64] |= u64::from(b) << (i % 64);
    }
    w
}

impl Packed {
    fn new(codes: &CodeSet) -> Self {
        Packed {
            words: codes.codes.iter().map(|c| pack(c)).collect(),
        }
    }

    fn topk(&self, query: &[bool], k: usize) -> Vec<SimilarityHit> {
        let q = pack(query);
        let mut hits: Vec<SimilarityHit> = self
            .words
            .iter()
            .enumerate()
            .map(|(i, w)| SimilarityHit {
                distance: w.iter().zip(&q).map(|(a, b)| (a ^ b).count_ones()).sum(),
                pe: (i / ROWS) as u32,
                row: (i % ROWS) as u32,
            })
            .collect();
        hits.select_nth_unstable(k - 1);
        hits.truncate(k);
        hits.sort_unstable();
        hits
    }
}

fn random_code(state: &mut u64) -> Vec<bool> {
    (0..BITS / 64)
        .flat_map(|_| {
            let w = splitmix(state);
            (0..64).map(move |b| w >> b & 1 == 1)
        })
        .collect()
}

struct Index {
    codes: CodeSet,
    machine: SlabMachine,
    ck: Checkpointer<MemSink>,
}

fn setup(t: &mut Tracer, seed: u64) -> Result<Index, String> {
    let cfg = machine_config(GROUPS, ROWS);
    let codes = CodeSet::generate(seed, cfg.total_pes(), ROWS, BITS);
    let mut machine = t.span("arch.slab_new", || SlabMachine::new(cfg));
    t.span("arch.load", || codes.load_slab(&mut machine));
    let mut ck = Checkpointer::new(MemSink::new());
    t.span("ckpt.commit", || ck.checkpoint(&machine))
        .map_err(|e| format!("initial checkpoint: {e}"))?;
    Ok(Index { codes, machine, ck })
}

/// Resume the latest checkpoint into a fresh machine.
fn restore(t: &mut Tracer, ix: &mut Index) -> Result<SlabMachine, String> {
    let cfg = ix.machine.config().clone();
    let mut fresh = t.span("arch.slab_new", || SlabMachine::new(cfg));
    let mut reader = Checkpointer::new(ix.ck.sink_mut());
    t.span("ckpt.resume", || reader.resume(&mut fresh))
        .map_err(|e| format!("resume: {e}"))?;
    Ok(fresh)
}

pub fn run(args: &Args, report: &mut Report) {
    let mut t = Tracer::new(false);
    let mut setups = Vec::new();
    let mut ready = None;
    for i in 0..SETUPS {
        t.set_on(args.trace && i + 1 == SETUPS);
        drop(ready.take());
        let start = Instant::now();
        t.begin("setup");
        let r = setup(&mut t, args.seed);
        t.end();
        setups.push(start.elapsed().as_secs_f64());
        ready = Some(r);
    }
    let mut ix = match ready.expect("at least one set-up") {
        Ok(ix) => ix,
        Err(e) => {
            report.attempted += 1;
            report.fail(e);
            return;
        }
    };

    // Answers and updates are recorded in the loop and checked at each
    // restore point, after the timed restore, then dropped: the oracles'
    // memory traffic never sits between timed queries, and memory does not
    // grow with the number of queries a run gets through.
    let mut answers: Vec<(Vec<bool>, Vec<SimilarityHit>)> = Vec::new();
    let mut batches: Vec<Vec<(usize, usize, Vec<bool>)>> = Vec::new();
    let mut packed = Packed::new(&ix.codes);
    let mut probe_state = args.seed ^ 0x0AC1_E000;
    let mut state = args.seed ^ 0x51_0000;
    let (mut queries, mut commits, mut restores) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lat_untraced, mut lat_traced) = (Vec::new(), Vec::new());
    let mut busy = 0.0;
    let (mut rounds, mut accums, mut cells) = (0u64, 0u64, 0u64);
    let mut ck_stats: Vec<CheckpointStats> = Vec::new();
    let mut model_cycles = 0u64;
    let window = Instant::now();
    let mut cycle = 0usize;
    while cycle < SENTINEL_COMMITS || window.elapsed().as_secs_f64() < args.seconds {
        // Alternate traced and untraced cycles to measure the overhead.
        let traced = args.trace && cycle % 2 == 1;
        t.set_on(traced);
        for _ in 0..QUERIES_PER_UPDATE {
            let query = random_code(&mut state);
            let key = code_key(&query, BITS);
            let start = Instant::now();
            t.begin("op");
            let out = t.span("arch.topk", || ix.machine.hamming_topk(&key, ROWS, K));
            t.end();
            let s = start.elapsed().as_secs_f64();
            busy += s;
            queries.push(s);
            let tag = if traced {
                &mut lat_traced
            } else {
                &mut lat_untraced
            };
            tag.push(("query".to_string(), s));
            report.attempted += 1;
            // `hits` keeps the capacity of every candidate the engine
            // gathered; keep only the k answers.
            answers.push((query, out.hits.to_vec()));
            let ops = out.stats.group_ops.first().copied().unwrap_or_default();
            rounds += ops.sim_rounds;
            accums += ops.sim_accums;
            if queries.len() <= SENTINEL_QUERIES {
                report.exact(&format!("q{}.sim_rounds", queries.len()), ops.sim_rounds);
                report.exact(&format!("q{}.sim_accums", queries.len()), ops.sim_accums);
                model_cycles += out.stats.makespan();
            }
        }

        // Update batch: rewrite codes of one group, then commit.
        let group = (splitmix(&mut state) % GROUPS as u64) as usize;
        let per = ix.machine.config().pes_per_group();
        let mut updates = Vec::with_capacity(UPDATE_CODES);
        for _ in 0..UPDATE_CODES {
            let r = splitmix(&mut state);
            let pe = group * per + (r % per as u64) as usize;
            let row = (r >> 32) as usize % ROWS;
            updates.push((pe, row, random_code(&mut state)));
        }
        let start = Instant::now();
        t.begin("op");
        t.span("arch.load", || {
            for (pe, row, code) in &updates {
                for (col, &b) in code.iter().enumerate() {
                    ix.machine.load_bit(*pe, *row, col, b);
                }
            }
        });
        let committed = t.span("ckpt.commit", || ix.ck.checkpoint(&ix.machine));
        t.end();
        let s = start.elapsed().as_secs_f64();
        busy += s;
        commits.push(s);
        cells += (UPDATE_CODES * BITS) as u64;
        report.attempted += 1;
        match committed {
            Ok(st) => {
                if ck_stats.len() < SENTINEL_COMMITS {
                    report.exact(
                        &format!("c{}.bytes_written", ck_stats.len()),
                        st.bytes_written,
                    );
                }
                ck_stats.push(st);
            }
            Err(e) => report.fail(format!("checkpoint after update {cycle}: {e}")),
        }
        batches.push(updates);
        cycle += 1;
        if cycle.is_multiple_of(RESTORE_EVERY) {
            busy += restore_and_check(&mut t, &mut ix, &mut state, &mut restores, report);
            verify_answers(
                &mut ix.codes,
                &mut packed,
                &mut answers,
                &mut batches,
                &mut probe_state,
                report,
            );
        }
    }
    t.set_on(args.trace);
    busy += restore_and_check(&mut t, &mut ix, &mut state, &mut restores, report);
    verify_answers(
        &mut ix.codes,
        &mut packed,
        &mut answers,
        &mut batches,
        &mut probe_state,
        report,
    );

    report.exact("queries.model_cycles", model_cycles);
    queries.sort_by(f64::total_cmp);
    let written: u64 = ck_stats.iter().map(|s| s.bytes_written).sum();
    let (clean, total) = ck_stats
        .iter()
        .fold((0, 0), |(c, n), s| (c + s.chunks_clean, n + s.chunks_total));
    report.e2e("setup_s", median(&setups));
    report.e2e("latency_p50_ms", percentile(&queries, 0.5) * 1e3);
    report.e2e("latency_tail_ms", percentile(&queries, 0.9) * 1e3);
    report.e2e("throughput_per_s", queries.len() as f64 / busy);
    report.e2e("model_cycles", model_cycles as f64);
    report.table("query_p50_ms", percentile(&queries, 0.5) * 1e3, "ms");
    report.table("query_p99_ms", percentile(&queries, 0.99) * 1e3, "ms");
    report.table("ckpt_commit_p50_ms", median(&commits) * 1e3, "ms");
    report.table("restore_ms", median(&restores) * 1e3, "ms");
    report.table("queries", queries.len() as f64, "count");
    report.table("restores", restores.len() as f64, "count");
    report.set_layer("arch.sim_rounds", rounds as f64);
    report.set_layer("arch.sim_accums", accums as f64);
    report.set_layer("arch.load_cells", cells as f64);
    report.set_layer("ckpt.bytes_written", written as f64);
    report.set_layer(
        "ckpt.chunks_written",
        ck_stats.iter().map(|s| s.chunks_written).sum::<usize>() as f64,
    );
    report.set_layer("ckpt.dirty_hit_rate", clean as f64 / total.max(1) as f64);
    report.overhead(&lat_untraced, &lat_traced);
    report.absorb_tracer(&t);
    report.peak_rss();
}

/// Replay the recorded cycles on the host, then drop them: each cycle's
/// answers against the packed top-k of the codes as they were, then the
/// cycle's update, after which the packed oracle must agree with
/// `CodeSet::host_topk`.
fn verify_answers(
    codes: &mut CodeSet,
    packed: &mut Packed,
    answers: &mut Vec<(Vec<bool>, Vec<SimilarityHit>)>,
    batches: &mut Vec<Vec<(usize, usize, Vec<bool>)>>,
    state: &mut u64,
    report: &mut Report,
) {
    let mut cycles = answers.chunks(QUERIES_PER_UPDATE);
    for updates in batches.drain(..) {
        for (query, hits) in cycles.next().unwrap_or_default() {
            if *hits != packed.topk(query, K) {
                report.fail("a query differs from the host top-k".into());
            }
        }
        for (pe, row, code) in updates {
            packed.words[pe * ROWS + row] = pack(&code);
            codes.codes[pe * ROWS + row] = code;
        }
        let probe = random_code(state);
        if packed.topk(&probe, K) != codes.host_topk(&probe, K) {
            report.fail("host oracles disagree after an update".into());
        }
    }
    answers.clear();
}

/// Restore into a fresh machine and check it answers two queries exactly
/// as the live machine does. Returns the timed restore seconds.
fn restore_and_check(
    t: &mut Tracer,
    ix: &mut Index,
    state: &mut u64,
    restores: &mut Vec<f64>,
    report: &mut Report,
) -> f64 {
    let start = Instant::now();
    t.begin("op");
    let restored = restore(t, ix);
    t.end();
    let s = start.elapsed().as_secs_f64();
    restores.push(s);
    report.attempted += 1;
    match restored {
        Ok(fresh) => {
            for _ in 0..2 {
                let key = code_key(&random_code(state), BITS);
                let live = ix.machine.hamming_topk(&key, ROWS, K);
                if fresh.hamming_topk(&key, ROWS, K) != live {
                    report.fail("restored machine answers differently".into());
                    break;
                }
            }
        }
        Err(e) => report.fail(e),
    }
    s
}

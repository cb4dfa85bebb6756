//! `serve_open`: an open-loop job generator against a `ServePool`.
//!
//! The job mix is an assumption, not a measured trace: half the jobs are
//! single-group Rodinia kernel streams (write-heavy; the kernels whose
//! lowered stream moves data through the data registers are left out,
//! because the pool runs those only as whole-machine jobs), half are
//! search/Count/Index probes (read-only) whose keys are skewed over
//! [`PROBE_KEYS`] distinct streams, more than the pool's program cache
//! holds, so a share of submissions miss the cache and pay
//! `compile_streams` inside `submit`. Every run prints the measured miss
//! share and probe share, so a gain that depends on the mix can be judged.
//!
//! The gated numbers come from bursts of [`BURST`] jobs submitted at once,
//! as tenants arriving together: each burst's makespan, and jobs per
//! second over all bursts. Before them, and printed only, the generator
//! offers [`REF_RATE`] open loop (each job timed from when it was due until
//! it was seen complete) and climbs [`RATES`], a short step per rate,
//! stopping at the first rate that misses the [`LIMIT_MS`] p99 limit or
//! leaves a growing backlog. These are not gated: on a small shared host
//! their sub-millisecond latencies measure thread wake-ups more than the
//! pool. The generator is this process's main thread; in the open loop it
//! polls outstanding jobs between arrivals, so a completion is seen within
//! about [`POLL`].

use std::time::{Duration, Instant};

use hyperap_arch::{ArchConfig, RunStats, SlabMachine};
use hyperap_isa::Instruction;
use hyperap_serve::{
    CacheStats, CellLoad, JobHandle, JobOutput, JobSpec, ServeConfig, ServePool, SubmitError,
};
use hyperap_tcam::SearchKey;
use hyperap_workloads::kernels::all_kernels;

use crate::kernels::compile_lmax;
use crate::report::{median, percentile, Report};
use crate::trace::Tracer;
use crate::{splitmix, Args};

/// Distinct probe streams; the default program cache holds 32 programs.
/// Like the kernel/probe split, the skew and the tenant count, an assumed
/// value, not one taken from a measured trace.
const PROBE_KEYS: usize = 48;
/// Tenants jobs are spread over.
const TENANTS: u64 = 8;
/// Open-loop offered rates of the ladder (jobs/s, ascending); printed only.
const RATES: [f64; 5] = [100.0, 200.0, 400.0, 800.0, 1600.0];
/// The open-loop rate whose latency is printed (jobs/s).
const REF_RATE: f64 = 200.0;
/// The ladder's p99 latency limit (ms).
const LIMIT_MS: f64 = 20.0;
/// Generator poll interval.
const POLL: Duration = Duration::from_micros(100);
/// A ladder step is abandoned once this many jobs are outstanding (below
/// the pool's admission budget of 64 per tenant, so nothing is refused).
const BACKLOG_ABORT: usize = 64;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// Shares of the window: warm-up, reference rate, ladder, bursts.
const WARMUP_SHARE: f64 = 0.1;
const REF_SHARE: f64 = 0.2;
const LADDER_SHARE: f64 = 0.1;
const BURST_SHARE: f64 = 0.6;
/// Jobs per burst (8 tenants' worth of the mix).
const BURST: usize = 64;

/// Pool machine geometry: 8 groups × 64 PEs of 256 × 256, so a job's own
/// work (a 16,384-element sweep, and the scrub between tenants) outweighs
/// the host's thread wake-up latency.
fn serve_arch() -> ArchConfig {
    crate::machine_config(8, 256)
}

/// One distinct job: its streams and preloads.
struct Kind {
    name: String,
    streams: Vec<Vec<Instruction>>,
    loads: Vec<CellLoad>,
}

fn probe_stream(p: usize) -> Vec<Instruction> {
    let mut key: String = (0..7)
        .map(|b| if p >> b & 1 == 1 { '1' } else { '0' })
        .collect();
    key.push_str("-----");
    vec![
        Instruction::SetKey {
            key: SearchKey::parse(&key).expect("valid probe key"),
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

/// Seeded preloads in the first 8 columns of the job's own PEs.
fn job_loads(arch: &ArchConfig, state: &mut u64) -> Vec<CellLoad> {
    let pes = arch.pes_per_group();
    (0..256)
        .map(|_| {
            let r = splitmix(state);
            CellLoad {
                pe: (r % pes as u64) as usize,
                row: (r >> 16) as usize % arch.rows,
                col: (r >> 32) as usize % 8,
                value: r >> 63 == 1,
            }
        })
        .collect()
}

/// One arrival: offset from the phase start, job kind, tenant.
type Arrival = (Duration, usize, u32);

/// Seeded Poisson arrivals at `rate` for `seconds`; kernels and probes
/// half each, probe keys skewed (a few hot, a long tail).
fn schedule(state: &mut u64, kernels: usize, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut at = 0.0;
    loop {
        let u = (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64;
        at += -(1.0 - u).ln() / rate;
        if at >= seconds {
            return out;
        }
        let (kind, tenant) = pick(state, kernels);
        out.push((Duration::from_secs_f64(at), kind, tenant));
    }
}

/// One job of the mix: (kind, tenant).
fn pick(state: &mut u64, kernels: usize) -> (usize, u32) {
    let r = splitmix(state);
    let kind = if r & 1 == 0 {
        (r >> 8) as usize % kernels
    } else {
        // Square of a uniform: low keys are hot, high keys are rare.
        let x = ((r >> 16) % 1024) as f64 / 1024.0;
        kernels + ((x * x) * PROBE_KEYS as f64) as usize
    };
    (kind, ((r >> 40) % TENANTS) as u32)
}

fn spec(kinds: &[Kind], kind: usize, tenant: u32) -> JobSpec {
    JobSpec {
        tenant,
        streams: kinds[kind].streams.clone(),
        loads: kinds[kind].loads.clone(),
    }
}

struct Pending {
    kind: usize,
    due: Instant,
    sent: Instant,
    admitted: Instant,
    handle: JobHandle,
}

/// What one phase of the generator saw.
#[derive(Default)]
struct Phase {
    latencies: Vec<f64>,
    lags: Vec<f64>,
    outputs: Vec<(usize, JobOutput)>,
    submitted: usize,
    refused: usize,
    queue_full: usize,
    failed_jobs: usize,
    aborted: bool,
    backlog_at_end: usize,
}

/// Offer `arrivals` to the pool open loop (each job due at its offset),
/// then drain.
fn offer(pool: &ServePool, kinds: &[Kind], arrivals: &[Arrival], t: &mut Tracer) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    let mut pending: Vec<Pending> = Vec::new();
    let mut next = 0;
    let mut window_closed = false;
    loop {
        let mut now = Instant::now();
        while next < arrivals.len() && !ph.aborted && start + arrivals[next].0 <= now {
            let (offset, kind, tenant) = arrivals[next];
            let due = start + offset;
            let job = spec(kinds, kind, tenant);
            let sent = Instant::now();
            let res = pool.submit(job);
            let admitted = Instant::now();
            ph.submitted += 1;
            ph.lags.push((sent - due).as_secs_f64());
            match res {
                Ok(handle) => pending.push(Pending {
                    kind,
                    due,
                    sent,
                    admitted,
                    handle,
                }),
                Err(e) => {
                    let root = t.record("job", due, admitted, None);
                    t.record("serve.submit", sent, admitted, root);
                    ph.refused += 1;
                    if matches!(e, SubmitError::QueueFull { .. }) {
                        ph.queue_full += 1;
                    }
                }
            }
            if pending.len() > BACKLOG_ABORT {
                ph.aborted = true;
            }
            next += 1;
            now = Instant::now();
        }
        let seen = Instant::now();
        pending.retain(|p| match p.handle.try_wait() {
            None => true,
            Some(result) => {
                ph.latencies.push((seen - p.due).as_secs_f64());
                // The job's root span runs from due to seen complete.
                let root = t.record("job", p.due, seen, None);
                t.record("serve.submit", p.sent, p.admitted, root);
                t.record("serve.inflight", p.admitted, seen, root);
                match result {
                    Ok(out) => ph.outputs.push((p.kind, out)),
                    Err(_) => ph.failed_jobs += 1,
                }
                false
            }
        });
        let finished_offering = next >= arrivals.len() || ph.aborted;
        if finished_offering && !window_closed {
            window_closed = true;
            ph.backlog_at_end = pending.len();
        }
        if finished_offering && pending.is_empty() {
            return ph;
        }
        let wake = if finished_offering {
            seen + POLL
        } else {
            (start + arrivals[next].0).min(seen + POLL)
        };
        let now = Instant::now();
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
}

/// Submit `jobs` (built beforehand, as tenants' ready requests) at once and
/// wait for all of them: one operation, timed from the first submit until
/// the last job completes.
fn burst(pool: &ServePool, jobs: Vec<(usize, JobSpec)>, t: &mut Tracer) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    t.begin("op");
    let mut handles = Vec::with_capacity(jobs.len());
    for (kind, job) in jobs {
        ph.submitted += 1;
        match t.span("serve.submit", || pool.submit(job)) {
            Ok(handle) => handles.push((kind, handle)),
            Err(e) => {
                ph.refused += 1;
                if matches!(e, SubmitError::QueueFull { .. }) {
                    ph.queue_full += 1;
                }
            }
        }
    }
    t.span("serve.inflight", || {
        for (kind, handle) in handles {
            match handle.wait() {
                Ok(out) => ph.outputs.push((kind, out)),
                Err(_) => ph.failed_jobs += 1,
            }
        }
    });
    t.end();
    ph.latencies.push(start.elapsed().as_secs_f64());
    ph
}

/// Everything set-up builds.
struct Ready {
    pool: ServePool,
    kinds: Vec<Kind>,
    kernels: usize,
}

fn setup(t: &mut Tracer, args: &Args) -> Ready {
    let arch = serve_arch();
    let mut state = args.seed ^ 0x5E4E_0000;
    let mut kinds = Vec::new();
    for k in all_kernels() {
        let kernel = compile_lmax(t, &k);
        let stream = t.span("isa.lower", || hyperap_isa::lower(kernel.program()));
        // The pool runs a stream that moves data through the data registers
        // only as a whole-machine job; those kernels are left out.
        if stream.iter().any(Instruction::touches_remote_regs) {
            continue;
        }
        kinds.push(Kind {
            name: k.name.to_string(),
            streams: vec![stream],
            loads: job_loads(&arch, &mut state),
        });
    }
    let kernels = kinds.len();
    for p in 0..PROBE_KEYS {
        kinds.push(Kind {
            name: format!("probe{p}"),
            streams: vec![probe_stream(p)],
            loads: job_loads(&arch, &mut state),
        });
    }
    let pool = ServePool::new(ServeConfig::new(arch));
    Ready {
        pool,
        kinds,
        kernels,
    }
}

/// Each kind run alone on a fresh machine: the expected job results.
fn isolated(kinds: &[Kind]) -> Vec<RunStats> {
    kinds
        .iter()
        .map(|k| {
            let mut cfg = serve_arch();
            cfg.groups = k.streams.len();
            let mut m = SlabMachine::new(cfg);
            for l in &k.loads {
                m.load_bit(l.pe, l.row, l.col, l.value);
            }
            m.run(&k.streams)
        })
        .collect()
}

/// The jobs of every phase, checked against their isolated runs as soon as
/// the phase ends (outside any timed region) and then dropped, so memory
/// does not grow with the number of jobs the host got through.
#[derive(Default)]
struct Tally {
    completed: usize,
    batch_sum: usize,
    queue_full: usize,
    lags: Vec<f64>,
}

impl Tally {
    fn add(&mut self, ph: Phase, kinds: &[Kind], expected: &[RunStats], report: &mut Report) {
        report.attempted += ph.submitted as u64;
        for (kind, out) in ph.outputs {
            self.completed += 1;
            self.batch_sum += out.batch_size;
            if out.stats != expected[kind] {
                report.fail(format!(
                    "job of kind {} differs from its isolated run",
                    kinds[kind].name
                ));
            }
        }
        let bad = ph.refused + ph.failed_jobs;
        if bad > 0 {
            report.failed += bad as u64;
            report.note(format!("{bad} jobs refused or failed"));
        }
        self.queue_full += ph.queue_full;
        self.lags.extend(ph.lags);
    }
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
        let r = setup(&mut t, args);
        t.end();
        setups.push(start.elapsed().as_secs_f64());
        ready = Some(r);
    }
    let Ready {
        pool,
        kinds,
        kernels,
    } = ready.expect("at least one set-up");

    // Oracle: every job's result must equal the same job run alone.
    let expected = isolated(&kinds);
    let model_cycles: u64 = expected.iter().map(RunStats::makespan).sum();
    report.exact("mix.model_cycles", model_cycles);
    for (i, (k, e)) in kinds.iter().zip(&expected).enumerate() {
        report.exact(&format!("{}.makespan", k.name), e.makespan());
        if i < kernels {
            report.exact(
                &format!("{}.stream_insts", k.name),
                k.streams[0].len() as u64,
            );
        }
    }

    let mut state = args.seed ^ 0xA11_0000;
    let share = |f: f64| args.seconds * f;
    let mut tally = Tally::default();

    // Warm-up at the reference rate: the program cache fills and the pool
    // reaches its steady state before anything is timed.
    let arrivals = schedule(&mut state, kernels, REF_RATE, share(WARMUP_SHARE));
    let ph = offer(&pool, &kinds, &arrivals, &mut t);
    tally.add(ph, &kinds, &expected, report);

    // The reference rate (traced in a traced run).
    t.set_on(args.trace);
    let arrivals = schedule(&mut state, kernels, REF_RATE, share(REF_SHARE));
    let mut reference = offer(&pool, &kinds, &arrivals, &mut t);
    let mut open = std::mem::take(&mut reference.latencies);
    tally.add(reference, &kinds, &expected, report);
    t.set_on(false);

    // The ladder, ascending, until a rate misses the limit.
    let step_s = share(LADDER_SHARE) / RATES.len() as f64;
    let mut max_rate = 0.0;
    for rate in RATES {
        let arrivals = schedule(&mut state, kernels, rate, step_s);
        let mut ph = offer(&pool, &kinds, &arrivals, &mut t);
        ph.latencies.sort_by(f64::total_cmp);
        let p99 = percentile(&ph.latencies, 0.99) * 1e3;
        let limit_backlog = ((rate * LIMIT_MS / 1e3) as usize).max(8);
        let pass = !ph.aborted
            && ph.refused == 0
            && p99 <= LIMIT_MS
            && ph.backlog_at_end <= limit_backlog;
        report.note(format!(
            "ladder {rate} jobs/s: p99 {p99:.3} ms over {} jobs, backlog {} at the end, {}",
            ph.latencies.len(),
            ph.backlog_at_end,
            if pass {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
        tally.add(ph, &kinds, &expected, report);
        if !pass {
            break;
        }
        max_rate = rate;
    }

    // Bursts; a traced run alternates traced and untraced ones for the
    // overhead.
    let (mut bursts, mut lat_untraced, mut lat_traced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut burst_jobs, mut burst_time, mut burst_probes) = (0usize, 0.0f64, 0usize);
    let cache_before = pool.cache().stats();
    let start = Instant::now();
    while bursts.len() < 3 || start.elapsed().as_secs_f64() < share(BURST_SHARE) {
        let traced = args.trace && bursts.len() % 2 == 1;
        t.set_on(traced);
        let jobs = (0..BURST)
            .map(|_| {
                let (kind, tenant) = pick(&mut state, kernels);
                (kind, spec(&kinds, kind, tenant))
            })
            .collect();
        let ph = burst(&pool, jobs, &mut t);
        let s = ph.latencies[0];
        bursts.push(s);
        let tag = if traced {
            &mut lat_traced
        } else {
            &mut lat_untraced
        };
        tag.push(("burst".to_string(), s));
        burst_jobs += ph.outputs.len();
        burst_probes += ph.outputs.iter().filter(|(k, _)| *k >= kernels).count();
        burst_time += s;
        tally.add(ph, &kinds, &expected, report);
    }
    t.set_on(false);
    let cache_after = pool.cache().stats();
    let lookups = |c: &CacheStats| c.hits + c.misses + c.collisions;
    let misses = |c: &CacheStats| c.misses + c.collisions;
    let burst_miss_share = (misses(&cache_after) - misses(&cache_before)) as f64
        / (lookups(&cache_after) - lookups(&cache_before)).max(1) as f64;
    let stats = pool.shutdown();

    bursts.sort_by(f64::total_cmp);
    open.sort_by(f64::total_cmp);
    report.e2e("setup_s", median(&setups));
    report.e2e("latency_p50_ms", percentile(&bursts, 0.5) * 1e3);
    report.e2e("latency_tail_ms", percentile(&bursts, 0.9) * 1e3);
    report.e2e("throughput_per_s", burst_jobs as f64 / burst_time);
    report.e2e("model_cycles", model_cycles as f64);
    report.table("serve_p50_ms", percentile(&open, 0.5) * 1e3, "ms");
    report.table("serve_p99_ms", percentile(&open, 0.99) * 1e3, "ms");
    report.table("serve_reference_jobs", open.len() as f64, "count");
    report.table("serve_max_rate_jps", max_rate, "jobs/s");
    report.table("bursts", bursts.len() as f64, "count");
    // The measured mix of the gated bursts (the mix itself is assumed).
    report.table("burst_cache_miss_share", burst_miss_share, "ratio");
    report.table(
        "burst_probe_share",
        burst_probes as f64 / burst_jobs.max(1) as f64,
        "ratio",
    );
    tally.lags.sort_by(f64::total_cmp);
    report.set_layer("serve.cache_hit_rate", stats.cache.hit_rate());
    report.set_layer(
        "serve.batch_size_mean",
        tally.batch_sum as f64 / tally.completed.max(1) as f64,
    );
    report.set_layer("serve.sweeps", stats.sweeps as f64);
    report.set_layer("serve.max_queue_depth", stats.max_queue_depth as f64);
    report.set_layer("serve.queue_full", tally.queue_full as f64);
    report.set_layer(
        "serve.generator_lag_ms",
        percentile(&tally.lags, 0.99) * 1e3,
    );
    report.overhead(&lat_untraced, &lat_traced);
    report.absorb_tracer(&t);
    report.peak_rss();
}

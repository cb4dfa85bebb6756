//! The machine pool: worker threads, one admission queue, request
//! batching, quarantine, and per-tenant accounting.
//!
//! # Scheduling shape
//!
//! One worker thread per machine and one FIFO of queued jobs, in admission
//! order. Every machine is scrubbed to its as-constructed state before each
//! batch, so no job prefers a worker: an idle worker pops the front of the
//! queue. The queue lives under the same lock as the tenant budgets and
//! counters, so admission, batching and quarantine see one consistent
//! state.
//!
//! # Batching
//!
//! When a worker picks up a job it scans the queue for riders: jobs with
//! the *same cached program* (pointer-equal `Arc` from the shared
//! [`ProgramCache`], or equal key + streams across an eviction) that are
//! batch-safe. Riders are placed on the next group
//! ranges of the same machine and the whole batch executes as **one
//! sweep** — one scrub, one dispatch, one endurance pass. A job is
//! batch-safe iff no stream touches remote data registers and the pool
//! runs zero-fault: under those conditions group streams compose without
//! changing any stream's compiled trace (`reg_sync` stays false for every
//! combination) and every group's results are independent of its
//! neighbors, so each rider's sliced results are bit-identical to running
//! alone. Fault-seeded pools never batch — per-PE faults derive from
//! *global* PE ids, so a job only reproduces its isolated-machine
//! behavior at group offset 0.
//!
//! # Quarantine
//!
//! A sweep that returns [`FaultError`] fails only the jobs in that sweep
//! (each with a typed [`JobError::Fault`]); the machine is marked
//! unhealthy and the worker exits, leaving the queue to the survivors. A
//! sweep that *panics* (an internal invariant violation) takes the same
//! path with [`JobError::WorkerPanic`], so waiters never block on a slot a
//! dead worker will not fill. The pool keeps serving on the survivors.
//! When the last machine is gone, every queued job fails with
//! [`JobError::PoolShutdown`] and submissions are refused with
//! [`SubmitError::NoHealthyMachines`].

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use hyperap_arch::{ArchConfig, PeHealth, RunStats, SlabMachine};
use hyperap_model::timing::OpCounts;
use hyperap_tcam::FaultError;

use crate::cache::{CacheStats, CachedProgram, ProgramCache};
use crate::job::{CellLoad, JobError, JobHandle, JobOutput, JobSpec, Slot, SubmitError, TenantId};

/// Pool construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Geometry of every pool machine (the serving granule). The pool's
    /// workers *are* the host parallelism: each machine always runs on its
    /// worker's thread.
    pub arch: ArchConfig,
    /// Machines (= worker threads) in the pool.
    pub machines: usize,
    /// Per-tenant admission budget: a tenant may have at most this many
    /// jobs *queued* (running jobs don't count). The bound is per tenant,
    /// so one tenant's backlog can never consume another's budget.
    pub tenant_queue_depth: usize,
    /// Shared program-cache capacity (compiled programs).
    pub cache_capacity: usize,
    /// When set, a machine being quarantined first dumps its full state
    /// (slabs, wear, fault bookkeeping, op counters) as an atomic
    /// checkpoint under `<dir>/machine-<index>/`, so the faulted state can
    /// be resumed into an offline [`SlabMachine`] for diagnosis. Dumping
    /// is best-effort: it never blocks or fails the quarantine itself.
    pub postmortem_dir: Option<std::path::PathBuf>,
}

impl ServeConfig {
    /// Defaults: one machine per schedulable CPU, a 64-job tenant budget,
    /// and a 32-program cache. The minimum is 2 machines even on a 1-CPU
    /// host, so a quarantine leaves a survivor serving the queue, and the
    /// default pool (the one perfbench's `serve_open` measures) has the
    /// same shape on every host.
    pub fn new(arch: ArchConfig) -> Self {
        ServeConfig {
            arch,
            machines: hyperap_arch::par::logical_cpus().max(2),
            tenant_queue_depth: 64,
            cache_capacity: 32,
            postmortem_dir: None,
        }
    }
}

/// Accounting for one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Submissions refused with [`SubmitError::QueueFull`].
    pub rejected: u64,
    /// Jobs failed by a machine fault.
    pub faulted: u64,
    /// Sum of completed jobs' makespans (model cycles).
    pub cycles: u64,
    /// Aggregated per-group operation counts over completed jobs.
    pub ops: OpCounts,
    /// Columns retired onto spares during this tenant's jobs (from
    /// [`RunStats::pe_health`]).
    pub retired_columns: u64,
}

/// Why a machine was pulled from service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineCause {
    /// A sweep latched a hardware fault.
    Fault(FaultError),
    /// The worker thread panicked mid-sweep (an internal invariant
    /// violation, not a modeled fault).
    WorkerPanic,
}

impl std::fmt::Display for QuarantineCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineCause::Fault(error) => write!(f, "{error}"),
            QuarantineCause::WorkerPanic => write!(f, "worker panicked mid-sweep"),
        }
    }
}

/// One quarantined machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Pool machine index.
    pub machine: usize,
    /// What triggered the quarantine.
    pub cause: QuarantineCause,
    /// Jobs failed in the sweep that triggered the quarantine.
    pub failed_jobs: u64,
    /// Where the machine's postmortem state dump was committed (see
    /// [`ServeConfig::postmortem_dir`]); `None` when dumping is disabled
    /// or the best-effort dump failed.
    pub postmortem: Option<std::path::PathBuf>,
}

/// A point-in-time snapshot of pool health and counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolStats {
    /// Machines the pool was built with.
    pub machines: usize,
    /// Machines still serving.
    pub healthy_machines: usize,
    /// Jobs completed successfully, pool-wide.
    pub completed_jobs: u64,
    /// Submissions refused with `QueueFull`, pool-wide.
    pub rejected_jobs: u64,
    /// Jobs failed by machine faults, pool-wide.
    pub faulted_jobs: u64,
    /// Sweeps dispatched (a batch of any size is one sweep).
    pub sweeps: u64,
    /// Jobs that shared their sweep with at least one other job.
    pub batched_jobs: u64,
    /// High-water mark of total queued jobs.
    pub max_queue_depth: usize,
    /// Jobs queued right now.
    pub queue_depth: usize,
    /// Shared program-cache counters.
    pub cache: CacheStats,
    /// Quarantined machines, in quarantine order.
    pub quarantined: Vec<QuarantineReport>,
    /// Per-tenant accounting, ascending by tenant id.
    pub tenants: Vec<(TenantId, TenantStats)>,
}

struct QueuedJob {
    tenant: TenantId,
    program: Arc<CachedProgram>,
    loads: Vec<CellLoad>,
    batchable: bool,
    slot: Arc<Slot>,
}

/// One tenant's accounting and its count of queued jobs (the admission
/// budget).
#[derive(Default)]
struct Tenant {
    stats: TenantStats,
    queued: usize,
}

/// Everything the scheduler mutates, under one lock: the queue, health,
/// per-tenant budgets, and counters. Jobs are short (microseconds to
/// milliseconds of sweep work per lock acquisition), so a single lock is
/// contended far below the point where splitting it would matter.
#[derive(Default)]
struct Sched {
    /// Queued jobs in admission order.
    queue: VecDeque<QueuedJob>,
    tenants: HashMap<TenantId, Tenant>,
    /// Machines not yet quarantined.
    healthy: usize,
    quarantined: Vec<QuarantineReport>,
    max_depth: usize,
    sweeps: u64,
    batched_jobs: u64,
    shutdown: bool,
}

impl Sched {
    fn tenant(&mut self, t: TenantId) -> &mut TenantStats {
        &mut self.tenants.entry(t).or_default().stats
    }

    /// Remove and return the queued job at `i`, releasing its tenant's
    /// budget slot.
    fn dequeue(&mut self, i: usize) -> Option<QueuedJob> {
        let job = self.queue.remove(i)?;
        self.tenants
            .get_mut(&job.tenant)
            .expect("admission created the tenant's entry")
            .queued -= 1;
        Some(job)
    }

    /// Fail every queued job with [`JobError::PoolShutdown`].
    fn fail_queued(&mut self) {
        while let Some(job) = self.dequeue(0) {
            job.slot.fulfill(Err(JobError::PoolShutdown));
        }
    }

    /// Pull batch riders for `primary` out of the queue: same cached
    /// program, batch-safe, while the machine's group budget lasts.
    /// Scans front to back, so riders come in admission order.
    fn take_riders(&mut self, primary: &QueuedJob, machine_groups: usize) -> Vec<QueuedJob> {
        let mut riders = Vec::new();
        if !primary.batchable {
            return riders;
        }
        let mut groups = primary.program.streams.len();
        let mut i = 0;
        while i < self.queue.len() && groups < machine_groups {
            let job = &self.queue[i];
            let fits = job.batchable
                && groups + job.program.streams.len() <= machine_groups
                && (Arc::ptr_eq(&job.program, &primary.program)
                    || (job.program.key == primary.program.key
                        && job.program.streams == primary.program.streams));
            if fits {
                let job = self.dequeue(i).expect("indexed job");
                groups += job.program.streams.len();
                riders.push(job);
            } else {
                i += 1;
            }
        }
        riders
    }
}

struct Shared {
    cfg: ServeConfig,
    cache: ProgramCache,
    sched: Mutex<Sched>,
    work: Condvar,
}

/// The pool itself. Dropping it shuts down: queued jobs fail with
/// [`JobError::PoolShutdown`] and the workers are joined.
pub struct ServePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServePool")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ServePool {
    /// Spawn the pool: `cfg.machines` workers, each owning one freshly
    /// constructed machine of `cfg.arch` geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.machines` or `cfg.tenant_queue_depth` is zero (a
    /// pool that can't run or admit anything) or if worker threads cannot
    /// be spawned.
    pub fn new(cfg: ServeConfig) -> ServePool {
        assert!(cfg.machines > 0, "pool needs at least one machine");
        assert!(
            cfg.tenant_queue_depth > 0,
            "tenant queue depth must be non-zero"
        );
        let machines = cfg.machines;
        let shared = Arc::new(Shared {
            cache: ProgramCache::new(cfg.cache_capacity, cfg.arch.clone()),
            sched: Mutex::new(Sched {
                healthy: machines,
                ..Sched::default()
            }),
            work: Condvar::new(),
            cfg,
        });
        let workers = (0..machines)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        ServePool { shared, workers }
    }

    /// The pool's construction parameters.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// The shared program cache (e.g. to pre-warm kernels).
    pub fn cache(&self) -> &ProgramCache {
        &self.shared.cache
    }

    /// Submit a job. On success the job is queued (compiled through the
    /// shared cache) and the returned handle resolves when it has run.
    ///
    /// # Errors
    ///
    /// Typed [`SubmitError`]s for every refusal: malformed specs, per-
    /// tenant backpressure, a fully quarantined pool, or shutdown. A
    /// refused job was never queued. Whether a job touches remote data
    /// registers is a fact of its compiled program, so a job refused with
    /// [`SubmitError::RemoteOpsNeedFullMachine`] may leave that program in
    /// the cache.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let machine_groups = self.shared.cfg.arch.groups;
        if spec.streams.is_empty() {
            return Err(SubmitError::EmptyJob);
        }
        if spec.streams.len() > machine_groups {
            return Err(SubmitError::TooManyGroups {
                requested: spec.streams.len(),
                machine_groups,
            });
        }
        // Preloads are job-local; an out-of-span `pe` on a batched job
        // would land in a co-batched tenant's groups, and an out-of-range
        // row/col would trip the slab's cell asserts on the worker.
        let job_pes = spec.streams.len() * self.shared.cfg.arch.pes_per_group();
        let (rows, cols) = (self.shared.cfg.arch.rows, self.shared.cfg.arch.cols);
        if let Some(&load) = spec
            .loads
            .iter()
            .find(|l| l.pe >= job_pes || l.row >= rows || l.col >= cols)
        {
            return Err(SubmitError::LoadOutOfRange {
                load,
                job_pes,
                rows,
                cols,
            });
        }
        // Compile (or hit the shared cache) before taking the scheduler
        // lock: a cold kernel must never stall admission for other
        // tenants.
        let program = self.shared.cache.get_or_compile(&spec.streams);
        let remote = program.program.remote;
        if remote && spec.streams.len() != machine_groups {
            return Err(SubmitError::RemoteOpsNeedFullMachine {
                requested: spec.streams.len(),
                machine_groups,
            });
        }
        // Fault-seeded pools never batch: faults derive from global PE
        // ids, so isolated-run equivalence only holds at group offset 0.
        let batchable = !remote && !self.shared.cfg.arch.faults.is_active();
        let mut sched = crate::lock(&self.shared.sched);
        if sched.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if sched.healthy == 0 {
            return Err(SubmitError::NoHealthyMachines);
        }
        let depth_bound = self.shared.cfg.tenant_queue_depth;
        let tenant = sched.tenants.entry(spec.tenant).or_default();
        if tenant.queued >= depth_bound {
            tenant.stats.rejected += 1;
            return Err(SubmitError::QueueFull {
                tenant: spec.tenant,
                depth: depth_bound,
            });
        }
        tenant.queued += 1;
        tenant.stats.submitted += 1;
        let slot = Slot::new();
        sched.queue.push_back(QueuedJob {
            tenant: spec.tenant,
            program,
            loads: spec.loads,
            batchable,
            slot: Arc::clone(&slot),
        });
        sched.max_depth = sched.max_depth.max(sched.queue.len());
        drop(sched);
        self.shared.work.notify_all();
        Ok(JobHandle {
            slot,
            tenant: spec.tenant,
        })
    }

    /// Snapshot the pool's counters and health.
    pub fn stats(&self) -> PoolStats {
        let sched = crate::lock(&self.shared.sched);
        let mut tenants: Vec<(TenantId, TenantStats)> =
            sched.tenants.iter().map(|(&t, e)| (t, e.stats)).collect();
        tenants.sort_by_key(|&(t, _)| t);
        let totals = |f: fn(&TenantStats) -> u64| tenants.iter().map(|(_, s)| f(s)).sum();
        PoolStats {
            machines: self.shared.cfg.machines,
            healthy_machines: sched.healthy,
            completed_jobs: totals(|s| s.completed),
            rejected_jobs: totals(|s| s.rejected),
            faulted_jobs: totals(|s| s.faulted),
            sweeps: sched.sweeps,
            batched_jobs: sched.batched_jobs,
            max_queue_depth: sched.max_depth,
            queue_depth: sched.queue.len(),
            cache: self.shared.cache.stats(),
            quarantined: sched.quarantined.clone(),
            tenants,
        }
    }

    /// Shut down: fail every queued job with [`JobError::PoolShutdown`],
    /// join the workers, and return the final stats snapshot.
    pub fn shutdown(mut self) -> PoolStats {
        self.shutdown_impl();
        let stats = self.stats();
        drop(self);
        stats
    }

    fn shutdown_impl(&mut self) {
        {
            let mut sched = crate::lock(&self.shared.sched);
            sched.shutdown = true;
            sched.fail_queued();
        }
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    let mut machine = SlabMachine::new(shared.cfg.arch.clone());
    let machine_groups = shared.cfg.arch.groups;
    let per = shared.cfg.arch.pes_per_group();
    loop {
        let batch = {
            let mut sched = crate::lock(&shared.sched);
            loop {
                if sched.shutdown {
                    return;
                }
                if let Some(primary) = sched.dequeue(0) {
                    let mut batch = sched.take_riders(&primary, machine_groups);
                    batch.insert(0, primary);
                    break batch;
                }
                sched = crate::wait(&shared.work, sched);
            }
        };
        // A panic inside the sweep (an internal assert, not a modeled
        // fault) must not strand the batch: its waiters would block forever
        // on slots nobody will fill. Catch it, quarantine like the fault
        // path, and fail the batch with a typed error before the worker
        // exits.
        let swept = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(&mut machine, w, per, &batch)
        }));
        match swept {
            Err(_) => {
                let dump = postmortem_dump(shared, w, &machine);
                quarantine(shared, w, QuarantineCause::WorkerPanic, &batch, dump);
                for job in batch {
                    job.slot.fulfill(Err(JobError::WorkerPanic { machine: w }));
                }
                return;
            }
            Ok(Ok(outputs)) => {
                let mut sched = crate::lock(&shared.sched);
                sched.sweeps += 1;
                if batch.len() > 1 {
                    sched.batched_jobs += batch.len() as u64;
                }
                for (job, output) in batch.iter().zip(&outputs) {
                    let tenant = sched.tenant(job.tenant);
                    tenant.completed += 1;
                    tenant.cycles += output.stats.makespan();
                    for ops in &output.stats.group_ops {
                        tenant.ops.add(ops);
                    }
                    tenant.retired_columns += output
                        .stats
                        .pe_health
                        .iter()
                        .map(|h| h.retired.len() as u64)
                        .sum::<u64>();
                }
                drop(sched);
                for (job, output) in batch.into_iter().zip(outputs) {
                    job.slot.fulfill(Ok(output));
                }
            }
            Ok(Err(error)) => {
                let dump = postmortem_dump(shared, w, &machine);
                quarantine(shared, w, QuarantineCause::Fault(error), &batch, dump);
                for job in batch {
                    job.slot.fulfill(Err(JobError::Fault { machine: w, error }));
                }
                return;
            }
        }
    }
}

/// Scrub the machine, place each job of the batch on its group range,
/// run everything as one sweep, and slice per-job results back out.
fn run_batch(
    machine: &mut SlabMachine,
    w: usize,
    per: usize,
    batch: &[QueuedJob],
) -> Result<Vec<JobOutput>, FaultError> {
    machine.scrub();
    let mut refs: Vec<&hyperap_arch::CompiledTrace> = Vec::new();
    let mut off = 0;
    for job in batch {
        for load in &job.loads {
            machine.load_bit(off * per + load.pe, load.row, load.col, load.value);
        }
        refs.extend(job.program.program.traces.iter().map(Arc::as_ref));
        off += job.program.streams.len();
    }
    let stats = machine.try_run_compiled(&refs)?;
    let mut outputs = Vec::with_capacity(batch.len());
    let mut off = 0;
    for job in batch {
        let groups = job.program.streams.len();
        outputs.push(JobOutput {
            stats: slice_stats(&stats, off, groups, per),
            machine: w,
            batch_size: batch.len(),
        });
        off += groups;
    }
    Ok(outputs)
}

/// Re-coordinate one job's slice of a batch run into job-local ids:
/// group `off` becomes group 0, PE `off * per` becomes PE 0. Equals the
/// `RunStats` of the same job alone on a fresh machine of its own size
/// (groups beyond the slice never touch it — batch-safe jobs have no
/// cross-group traffic).
fn slice_stats(full: &RunStats, off: usize, groups: usize, per: usize) -> RunStats {
    let base = off * per;
    let span = base..(off + groups) * per;
    RunStats {
        group_cycles: full.group_cycles[off..off + groups].to_vec(),
        group_ops: full.group_ops[off..off + groups].to_vec(),
        count_results: full.count_results[off..off + groups]
            .iter()
            .map(|v| v.iter().map(|&(pe, c)| (pe - base, c)).collect())
            .collect(),
        index_results: full.index_results[off..off + groups]
            .iter()
            .map(|v| v.iter().map(|&(pe, i)| (pe - base, i)).collect())
            .collect(),
        pe_health: full
            .pe_health
            .iter()
            .filter(|h| span.contains(&h.pe))
            .map(|h| PeHealth {
                pe: h.pe - base,
                retired: h.retired.clone(),
                spares_left: h.spares_left,
            })
            .collect(),
        geometry: full.geometry,
    }
}

/// Best-effort postmortem: commit the machine's full state as an atomic
/// checkpoint under `postmortem_dir/machine-<w>/` so it can be resumed
/// offline for diagnosis. Returns the dump directory on success; any
/// failure (dir creation, I/O) is swallowed — a broken dump must never
/// turn a quarantine into a crash.
fn postmortem_dump(shared: &Shared, w: usize, machine: &SlabMachine) -> Option<std::path::PathBuf> {
    let dir = shared
        .cfg
        .postmortem_dir
        .as_ref()?
        .join(format!("machine-{w}"));
    let sink = hyperap_ckpt::DirSink::new(&dir).ok()?;
    let mut ck = hyperap_ckpt::Checkpointer::new(sink);
    ck.set_keep(1);
    ck.checkpoint(machine).ok()?;
    Some(dir)
}

/// Record machine `w`'s quarantine. The survivors keep serving the queue;
/// when none remain, every queued job fails with [`JobError::PoolShutdown`].
fn quarantine(
    shared: &Shared,
    w: usize,
    cause: QuarantineCause,
    batch: &[QueuedJob],
    postmortem: Option<std::path::PathBuf>,
) {
    let mut sched = crate::lock(&shared.sched);
    sched.healthy -= 1;
    sched.quarantined.push(QuarantineReport {
        machine: w,
        cause,
        failed_jobs: batch.len() as u64,
        postmortem,
    });
    for job in batch {
        sched.tenant(job.tenant).faulted += 1;
    }
    if sched.healthy == 0 {
        sched.fail_queued();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use hyperap_arch::{FaultModel, SlabMachine};
    use hyperap_isa::Instruction;
    use hyperap_tcam::SearchKey;

    fn setkey(s: &str) -> Instruction {
        Instruction::SetKey {
            key: SearchKey::parse(s).unwrap(),
        }
    }

    const SEARCH: Instruction = Instruction::Search {
        acc: false,
        encode: false,
    };

    /// A small local program: searches, a write, and both reductions.
    fn probe_stream() -> Vec<Instruction> {
        vec![
            setkey("1-"),
            SEARCH,
            Instruction::Write {
                col: 1,
                encode: false,
            },
            setkey("-1"),
            SEARCH,
            Instruction::Count,
            Instruction::Index,
        ]
    }

    /// `n` searches of busywork that keep a worker occupied: each one
    /// accumulates into the tags, so the trace compiler can elide none of
    /// them (a run of plain re-searches compiles to a single search and
    /// leaves the worker idle).
    fn slow_stream(n: usize) -> Vec<Instruction> {
        let mut s = vec![setkey("1-")];
        s.extend(std::iter::repeat_n(
            Instruction::Search {
                acc: true,
                encode: false,
            },
            n,
        ));
        s.push(Instruction::Count);
        s
    }

    fn queued(tenant: TenantId, program: &Arc<CachedProgram>, loads: Vec<CellLoad>) -> QueuedJob {
        QueuedJob {
            tenant,
            program: Arc::clone(program),
            loads,
            batchable: true,
            slot: Slot::new(),
        }
    }

    /// Queue `job` behind submit()'s back, with the budget accounting
    /// submit would do.
    fn inject(sched: &mut Sched, job: QueuedJob) {
        sched.tenants.entry(job.tenant).or_default().queued += 1;
        sched.queue.push_back(job);
    }

    fn tiny_pool(machines: usize) -> ServePool {
        let mut cfg = ServeConfig::new(ArchConfig::tiny());
        cfg.machines = machines;
        ServePool::new(cfg)
    }

    #[test]
    fn job_matches_isolated_machine() {
        let pool = tiny_pool(2);
        let loads = vec![
            CellLoad {
                pe: 0,
                row: 1,
                col: 0,
                value: true,
            },
            CellLoad {
                pe: 2,
                row: 0,
                col: 1,
                value: true,
            },
        ];
        let out = pool
            .submit(JobSpec {
                tenant: 7,
                streams: vec![probe_stream()],
                loads: loads.clone(),
            })
            .unwrap()
            .wait()
            .unwrap();
        let mut iso_cfg = ArchConfig::tiny();
        iso_cfg.groups = 1;
        let mut iso = SlabMachine::new(iso_cfg);
        for l in &loads {
            iso.load_bit(l.pe, l.row, l.col, l.value);
        }
        let want = iso.run(&[probe_stream()]);
        assert_eq!(out.stats, want);
        let stats = pool.shutdown();
        assert_eq!(stats.completed_jobs, 1);
        assert_eq!(stats.tenants, vec![(7, stats.tenants[0].1)]);
        assert_eq!(stats.tenants[0].1.completed, 1);
    }

    #[test]
    fn full_machine_job_with_mesh_traffic_matches_isolated() {
        let pool = tiny_pool(1);
        let groups = ArchConfig::tiny().groups;
        let stream = vec![
            setkey("1-"),
            SEARCH,
            Instruction::ReadTag,
            Instruction::MovR {
                dir: hyperap_isa::Direction::Right,
            },
            Instruction::SetTag,
            Instruction::Count,
        ];
        let streams = vec![stream; groups];
        let loads = vec![CellLoad {
            pe: 5,
            row: 3,
            col: 0,
            value: true,
        }];
        let out = pool
            .submit(JobSpec {
                tenant: 0,
                streams: streams.clone(),
                loads: loads.clone(),
            })
            .unwrap()
            .wait()
            .unwrap();
        let mut iso = SlabMachine::new(ArchConfig::tiny());
        for l in &loads {
            iso.load_bit(l.pe, l.row, l.col, l.value);
        }
        assert_eq!(out.stats, iso.run(&streams));
    }

    #[test]
    fn typed_rejections() {
        let pool = tiny_pool(1);
        let groups = ArchConfig::tiny().groups;
        assert_eq!(
            pool.submit(JobSpec {
                tenant: 0,
                streams: vec![],
                loads: vec![],
            })
            .unwrap_err(),
            SubmitError::EmptyJob
        );
        assert_eq!(
            pool.submit(JobSpec {
                tenant: 0,
                streams: vec![probe_stream(); groups + 1],
                loads: vec![],
            })
            .unwrap_err(),
            SubmitError::TooManyGroups {
                requested: groups + 1,
                machine_groups: groups
            }
        );
        let remote = vec![vec![Instruction::MovR {
            dir: hyperap_isa::Direction::Left,
        }]];
        assert_eq!(
            pool.submit(JobSpec {
                tenant: 0,
                streams: remote,
                loads: vec![],
            })
            .unwrap_err(),
            SubmitError::RemoteOpsNeedFullMachine {
                requested: 1,
                machine_groups: groups
            }
        );
    }

    #[test]
    fn partial_remote_jobs_are_refused_cold_and_cached() {
        let pool = tiny_pool(1);
        let groups = ArchConfig::tiny().groups;
        let stream = vec![
            setkey("1-"),
            SEARCH,
            Instruction::ReadTag,
            Instruction::MovR {
                dir: hyperap_isa::Direction::Left,
            },
            Instruction::SetTag,
            Instruction::Count,
        ];
        let refused = SubmitError::RemoteOpsNeedFullMachine {
            requested: 1,
            machine_groups: groups,
        };
        let partial = || JobSpec {
            tenant: 0,
            streams: vec![stream.clone()],
            loads: vec![],
        };
        assert_eq!(pool.submit(partial()).unwrap_err(), refused);
        // The same stream on every group runs, and matches its isolated run.
        let full = vec![stream.clone(); groups];
        let out = pool
            .submit(JobSpec {
                tenant: 0,
                streams: full.clone(),
                loads: vec![],
            })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out.stats, SlabMachine::new(ArchConfig::tiny()).run(&full));
        // The refused partial program stayed cached; a hit is refused too.
        assert_eq!(pool.submit(partial()).unwrap_err(), refused);
        let stats = pool.shutdown();
        assert_eq!((stats.cache.misses, stats.cache.hits), (2, 1));
        assert_eq!(stats.completed_jobs, 1);
    }

    #[test]
    fn out_of_span_loads_are_rejected() {
        let pool = tiny_pool(1);
        let arch = ArchConfig::tiny();
        let per = arch.pes_per_group();
        let ok = CellLoad {
            pe: 0,
            row: 0,
            col: 0,
            value: true,
        };
        // A 1-group job owns PEs [0, per): `pe == per` is the first PE of
        // a *neighbor's* group range when batched, so it must be refused.
        for bad in [
            CellLoad { pe: per, ..ok },
            CellLoad {
                row: arch.rows,
                ..ok
            },
            CellLoad {
                col: arch.cols,
                ..ok
            },
        ] {
            assert_eq!(
                pool.submit(JobSpec {
                    tenant: 0,
                    streams: vec![probe_stream()],
                    loads: vec![ok, bad],
                })
                .unwrap_err(),
                SubmitError::LoadOutOfRange {
                    load: bad,
                    job_pes: per,
                    rows: arch.rows,
                    cols: arch.cols,
                }
            );
        }
        // The same pe is fine when the job requests both groups.
        let full = pool.submit(JobSpec {
            tenant: 0,
            streams: vec![probe_stream(); arch.groups],
            loads: vec![CellLoad { pe: per, ..ok }],
        });
        full.unwrap().wait().unwrap();
        assert_eq!(pool.stats().completed_jobs, 1);
    }

    #[test]
    fn sweep_panic_fails_the_batch_and_quarantines() {
        // Inject a job whose preload is outside the machine entirely,
        // bypassing submit() validation — the stand-in for any internal
        // invariant violation mid-sweep. The waiter must get a typed
        // error (not block forever) and the machine must quarantine.
        let pool = tiny_pool(2);
        let arch = ArchConfig::tiny();
        let program = pool.cache().get_or_compile(&[probe_stream()]);
        let bad = CellLoad {
            pe: arch.total_pes(),
            row: 0,
            col: 0,
            value: true,
        };
        let job = queued(9, &program, vec![bad]);
        let slot = Arc::clone(&job.slot);
        inject(&mut crate::lock(&pool.shared.sched), job);
        pool.shared.work.notify_all();
        // Either idle worker may pop the job.
        let err = (JobHandle { slot, tenant: 9 }).wait().unwrap_err();
        let JobError::WorkerPanic { machine } = err else {
            panic!("expected a worker panic, got {err:?}");
        };
        // The survivor keeps serving; the panic is reported in stats.
        pool.submit(JobSpec {
            tenant: 1,
            streams: vec![probe_stream()],
            loads: vec![],
        })
        .unwrap()
        .wait()
        .unwrap();
        let stats = pool.shutdown();
        assert_eq!(stats.healthy_machines, 1);
        assert_eq!(stats.quarantined.len(), 1);
        assert_eq!(stats.quarantined[0].machine, machine);
        assert_eq!(stats.quarantined[0].cause, QuarantineCause::WorkerPanic);
    }

    #[test]
    fn poisoned_sched_lock_does_not_panic_later_callers() {
        let pool = tiny_pool(1);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _sched = pool.shared.sched.lock();
            panic!("poison the scheduler lock");
        }));
        assert!(poisoned.is_err() && pool.shared.sched.is_poisoned());
        // Submit, the worker's wait loop, the waiter and every stats call
        // go through the poisoned lock and must still return.
        pool.submit(JobSpec {
            tenant: 3,
            streams: vec![probe_stream()],
            loads: vec![],
        })
        .unwrap()
        .wait()
        .unwrap();
        assert_eq!(pool.stats().completed_jobs, 1);
        assert_eq!(pool.cache().len(), 1);
        let stats = pool.shutdown();
        assert_eq!(stats.tenants[0].1.completed, 1);
    }

    #[test]
    fn try_wait_does_not_consume_the_result() {
        let pool = tiny_pool(1);
        let handle = pool
            .submit(JobSpec {
                tenant: 0,
                streams: vec![probe_stream()],
                loads: vec![],
            })
            .unwrap();
        let polled = loop {
            if let Some(r) = handle.try_wait() {
                break r;
            }
            std::thread::yield_now();
        };
        let again = handle.try_wait().expect("poll after completion");
        assert_eq!(polled, again);
        assert_eq!(handle.wait(), polled, "wait still resolves after polls");
    }

    #[test]
    fn queue_full_backpressure_is_per_tenant() {
        let mut cfg = ServeConfig::new(ArchConfig::tiny());
        cfg.machines = 1;
        cfg.tenant_queue_depth = 2;
        let pool = ServePool::new(cfg);
        // Occupy the single worker long enough to fill tenant 1's budget.
        let slow = pool
            .submit(JobSpec {
                tenant: 0,
                streams: vec![slow_stream(60_000)],
                loads: vec![],
            })
            .unwrap();
        let mut handles = Vec::new();
        let mut saw_queue_full = false;
        // Keep tenant 1's queue topped up until a rejection lands (the
        // worker may drain between submissions; the budget bound must
        // eventually refuse an admission while two jobs sit queued).
        for _ in 0..200 {
            match pool.submit(JobSpec {
                tenant: 1,
                streams: vec![probe_stream()],
                loads: vec![],
            }) {
                Ok(h) => handles.push(h),
                Err(SubmitError::QueueFull { tenant, depth }) => {
                    assert_eq!((tenant, depth), (1, 2));
                    saw_queue_full = true;
                    break;
                }
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        assert!(saw_queue_full, "backpressure never triggered");
        // Tenant 2 is not affected by tenant 1's backlog.
        let other = pool.submit(JobSpec {
            tenant: 2,
            streams: vec![probe_stream()],
            loads: vec![],
        });
        assert!(other.is_ok(), "independent tenant was starved");
        slow.wait().unwrap();
        other.unwrap().wait().unwrap();
        for h in handles {
            h.wait().unwrap();
        }
        assert!(pool.stats().rejected_jobs >= 1);
    }

    #[test]
    fn spares_exhaustion_quarantines_only_one_machine() {
        let mut arch = ArchConfig::tiny();
        arch.faults.model = FaultModel {
            seed: 11,
            stuck_per_million: 0,
            miss_per_million: 0,
            endurance_limit: Some(2),
        };
        arch.faults.spare_cols = 0;
        let mut cfg = ServeConfig::new(arch);
        cfg.machines = 2;
        let pool = ServePool::new(cfg);
        // Three writes to one column blow the endurance limit with zero
        // spares: the sweep fails, the machine quarantines. The key bit at
        // the written column must be definite (`Write` stores the key bit;
        // a masked bit writes nothing and wears nothing), and the searches
        // between the writes keep the peephole pass from fusing them into
        // one physical (single-wear) write.
        let mut wear_out = vec![setkey("1-")];
        for _ in 0..3 {
            wear_out.push(SEARCH);
            wear_out.push(Instruction::Write {
                col: 0,
                encode: false,
            });
        }
        let err = pool
            .submit(JobSpec {
                tenant: 3,
                streams: vec![wear_out],
                loads: vec![],
            })
            .unwrap()
            .wait()
            .unwrap_err();
        let JobError::Fault { error, .. } = err else {
            panic!("expected a fault, got {err:?}");
        };
        assert!(matches!(
            error,
            hyperap_arch::FaultError::SparesExhausted { .. }
        ));
        // The pool keeps serving healthy traffic on the surviving machine.
        let ok = pool
            .submit(JobSpec {
                tenant: 4,
                streams: vec![probe_stream()],
                loads: vec![],
            })
            .unwrap()
            .wait();
        assert!(ok.is_ok(), "survivor machine refused clean work: {ok:?}");
        let stats = pool.stats();
        assert_eq!(stats.healthy_machines, 1);
        assert_eq!(stats.faulted_jobs, 1);
        assert_eq!(stats.quarantined.len(), 1);
        assert_eq!(stats.quarantined[0].failed_jobs, 1);
        assert_eq!(stats.quarantined[0].postmortem, None);
    }

    /// With `postmortem_dir` set, a quarantine commits the faulted
    /// machine's full state as a checkpoint that resumes offline into a
    /// fresh machine — wear counters and retirements included.
    #[test]
    fn quarantine_dumps_resumable_postmortem_state() {
        use hyperap_ckpt::{Checkpointer, DirSink};

        let mut arch = ArchConfig::tiny();
        arch.faults.model = FaultModel {
            seed: 11,
            stuck_per_million: 0,
            miss_per_million: 0,
            endurance_limit: Some(2),
        };
        arch.faults.spare_cols = 0;
        let mut cfg = ServeConfig::new(arch);
        cfg.machines = 1;
        let dir = std::env::temp_dir().join(format!("hyperap-postmortem-{}", std::process::id()));
        cfg.postmortem_dir = Some(dir.clone());
        let arch_copy = cfg.arch.clone();
        let pool = ServePool::new(cfg);
        let mut wear_out = vec![setkey("1-")];
        for _ in 0..3 {
            wear_out.push(SEARCH);
            wear_out.push(Instruction::Write {
                col: 0,
                encode: false,
            });
        }
        let err = pool
            .submit(JobSpec {
                tenant: 3,
                streams: vec![wear_out],
                loads: vec![],
            })
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, JobError::Fault { .. }));
        let stats = pool.shutdown();
        assert_eq!(stats.quarantined.len(), 1);
        let dump = stats.quarantined[0]
            .postmortem
            .as_ref()
            .expect("postmortem dump committed");
        assert_eq!(dump, &dir.join("machine-0"));

        let sink = DirSink::new(dump).unwrap();
        let mut ck = Checkpointer::new(sink);
        let mut revived = SlabMachine::new(arch_copy);
        let epoch = ck.resume(&mut revived).expect("dump resumes");
        assert_eq!(epoch, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn take_riders_coalesces_same_program_within_group_budget() {
        let cache = ProgramCache::new(4, ArchConfig::tiny());
        let program = cache.get_or_compile(&[probe_stream()]);
        let other = cache.get_or_compile(&[slow_stream(4)]);
        let mut sched = Sched::default();
        // Tenant ids record admission order; tenant 1 runs another program.
        for t in 0..5 {
            let p = if t == 1 { &other } else { &program };
            inject(&mut sched, queued(t, p, vec![]));
        }
        let primary = sched.dequeue(0).unwrap();
        // tiny() has 2 groups; the primary takes one, so exactly one
        // 1-group rider fits: the first compatible job behind it.
        let riders = sched.take_riders(&primary, 2);
        let tenants = |jobs: &[QueuedJob]| jobs.iter().map(|j| j.tenant).collect::<Vec<_>>();
        assert_eq!(tenants(&riders), [2]);
        assert!(Arc::ptr_eq(&riders[0].program, &primary.program));
        assert_eq!(tenants(sched.queue.make_contiguous()), [1, 3, 4]);
        // With a 4-group machine every remaining same-program job rides,
        // in admission order.
        let riders = sched.take_riders(&primary, 4);
        assert_eq!(tenants(&riders), [3, 4]);
        assert_eq!(
            tenants(sched.queue.make_contiguous()),
            [1],
            "incompatible job keeps its place"
        );
        assert_eq!(sched.tenants[&2].queued, 0, "riders release their budget");
        // A non-batchable primary never takes riders, even of its own
        // program.
        let mut solo = sched.dequeue(0).unwrap();
        solo.batchable = false;
        inject(&mut sched, queued(5, &other, vec![]));
        assert!(sched.take_riders(&solo, 4).is_empty());
        assert_eq!(sched.queue.len(), 1);
    }

    #[test]
    fn last_quarantine_fails_queued_jobs_and_refuses_submits() {
        let mut arch = ArchConfig::tiny();
        arch.faults.model = FaultModel {
            seed: 11,
            stuck_per_million: 0,
            miss_per_million: 0,
            endurance_limit: Some(2),
        };
        arch.faults.spare_cols = 0;
        let mut cfg = ServeConfig::new(arch);
        cfg.machines = 1;
        let pool = ServePool::new(cfg);
        // Three separated writes to one column wear it out with zero
        // spares (see `spares_exhaustion_quarantines_only_one_machine`).
        let mut wear_out = vec![setkey("1-")];
        for _ in 0..3 {
            wear_out.push(SEARCH);
            wear_out.push(Instruction::Write {
                col: 0,
                encode: false,
            });
        }
        let faulting = pool.cache().get_or_compile(&[wear_out]);
        let probe = pool.cache().get_or_compile(&[probe_stream()]);
        // Queue the faulting job and two jobs behind it in one critical
        // section, so the only worker pops the faulting job first and the
        // others are still queued when it quarantines.
        let jobs = [
            queued(0, &faulting, vec![]),
            queued(1, &probe, vec![]),
            queued(2, &probe, vec![]),
        ];
        let slots: Vec<Arc<Slot>> = jobs.iter().map(|j| Arc::clone(&j.slot)).collect();
        {
            let mut sched = crate::lock(&pool.shared.sched);
            for mut job in jobs {
                job.batchable = false;
                inject(&mut sched, job);
            }
        }
        pool.shared.work.notify_all();
        let results: Vec<_> = slots
            .into_iter()
            .zip(0..)
            .map(|(slot, tenant)| JobHandle { slot, tenant }.wait())
            .collect();
        assert!(matches!(
            results[0],
            Err(JobError::Fault { machine: 0, .. })
        ));
        assert_eq!(
            results[1..],
            [Err(JobError::PoolShutdown), Err(JobError::PoolShutdown)]
        );
        let stats = pool.stats();
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.healthy_machines, 0);
        assert_eq!(stats.faulted_jobs, 1);
        assert_eq!(
            pool.submit(JobSpec {
                tenant: 1,
                streams: vec![probe_stream()],
                loads: vec![],
            })
            .unwrap_err(),
            SubmitError::NoHealthyMachines
        );
    }

    #[test]
    fn batched_jobs_match_isolated_machines() {
        // One machine, one slow job in front: the quick same-kernel jobs
        // queue behind it and coalesce into one sweep when it finishes.
        let pool = tiny_pool(1);
        let slow = pool
            .submit(JobSpec {
                tenant: 0,
                streams: vec![slow_stream(60_000)],
                loads: vec![],
            })
            .unwrap();
        let quick: Vec<JobHandle> = (0..2)
            .map(|i| {
                pool.submit(JobSpec {
                    tenant: i,
                    streams: vec![probe_stream()],
                    loads: vec![CellLoad {
                        pe: i as usize,
                        row: 0,
                        col: 0,
                        value: true,
                    }],
                })
                .unwrap()
            })
            .collect();
        slow.wait().unwrap();
        for (i, h) in quick.into_iter().enumerate() {
            let out = h.wait().unwrap();
            let mut iso_cfg = ArchConfig::tiny();
            iso_cfg.groups = 1;
            let mut iso = SlabMachine::new(iso_cfg);
            iso.load_bit(i, 0, 0, true);
            assert_eq!(out.stats, iso.run(&[probe_stream()]), "job {i}");
        }
        let stats = pool.shutdown();
        assert_eq!(stats.completed_jobs, 3);
        assert_eq!(stats.cache.misses, 2, "one compile per distinct kernel");
        assert!(stats.cache.hits >= 1, "repeated kernel hit the cache");
    }
}

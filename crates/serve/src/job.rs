//! Job types: what tenants submit, what they get back, and every typed
//! way a submission can be refused or a job can fail.

use std::sync::{Arc, Condvar, Mutex};

use hyperap_arch::RunStats;
use hyperap_tcam::FaultError;

/// Tenant identifier. Tenants are an accounting and fairness boundary,
/// not a security one — the pool tracks per-tenant queue depth, stats,
/// and rejections under this id.
pub type TenantId = u32;

/// One host preload: set a plain bit in the job's *job-local* PE space
/// before the program runs (PE 0 is the first PE of the job's first
/// group, exactly as on an isolated machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellLoad {
    /// Job-local PE id.
    pub pe: usize,
    /// Row.
    pub row: usize,
    /// Column.
    pub col: usize,
    /// Bit value.
    pub value: bool,
}

/// A unit of submitted work: one instruction stream per requested group,
/// plus host preloads. The pool places the job on a contiguous group
/// range of some machine; results come back in job-local coordinates, so
/// a job never learns where (or with whom) it ran.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Owning tenant.
    pub tenant: TenantId,
    /// One instruction stream per group the job needs
    /// (`streams.len() <= machine groups`; programs that move data across
    /// the PE mesh must request the whole machine — see
    /// [`SubmitError::RemoteOpsNeedFullMachine`]).
    pub streams: Vec<Vec<hyperap_isa::Instruction>>,
    /// Host preloads applied after the scrub, before the run.
    pub loads: Vec<CellLoad>,
}

/// A completed job's results.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Run results in job-local coordinates: group 0 is the job's first
    /// group, PE 0 its first PE — bit-identical to running the job alone
    /// on a fresh machine of its own size.
    pub stats: RunStats,
    /// Pool machine the job ran on (diagnostic).
    pub machine: usize,
    /// Total jobs coalesced into the sweep that ran this job (1 = ran
    /// alone).
    pub batch_size: usize,
}

/// Why a job that was admitted did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The machine the job ran on hit a latched fault (the job's own
    /// write load may or may not have caused it — every job in the
    /// failing sweep gets the same error, and the machine is quarantined).
    Fault {
        /// Pool machine that failed.
        machine: usize,
        /// The latched fault.
        error: FaultError,
    },
    /// The worker thread panicked while running the sweep the job was in
    /// (an internal invariant violation, not a modeled fault). The machine
    /// is quarantined and every job in the sweep gets this error.
    WorkerPanic {
        /// Pool machine whose worker panicked.
        machine: usize,
    },
    /// The pool shut down (or lost its last healthy machine) before the
    /// job ran.
    PoolShutdown,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Fault { machine, error } => {
                write!(f, "machine {machine} quarantined: {error}")
            }
            JobError::WorkerPanic { machine } => {
                write!(
                    f,
                    "machine {machine} quarantined: worker panicked mid-sweep"
                )
            }
            JobError::PoolShutdown => write!(f, "pool shut down before the job ran"),
        }
    }
}

impl std::error::Error for JobError {}

/// Why a submission was refused at the door (the job never entered a
/// queue; nothing was charged to the tenant but a rejection count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Backpressure: the tenant already has its full admission budget of
    /// jobs queued. Retry after some complete.
    QueueFull {
        /// The tenant at its bound.
        tenant: TenantId,
        /// The per-tenant queue-depth bound that was hit.
        depth: usize,
    },
    /// The job wants more groups than a pool machine has.
    TooManyGroups {
        /// Groups requested.
        requested: usize,
        /// Groups per pool machine.
        machine_groups: usize,
    },
    /// The job has no streams.
    EmptyJob,
    /// A host preload addresses a cell outside the job's own span. Loads
    /// are job-local: `pe` must be below `streams.len() * pes_per_group`
    /// (the PEs the job's groups own), and `row`/`col` must fit the
    /// machine's array geometry. An out-of-span load on a batched job
    /// would land in a co-batched tenant's groups, so it is refused at
    /// the door instead.
    LoadOutOfRange {
        /// The offending preload.
        load: CellLoad,
        /// PEs the job's requested groups span (exclusive `pe` bound).
        job_pes: usize,
        /// Rows per PE array (exclusive `row` bound).
        rows: usize,
        /// Columns per PE array (exclusive `col` bound).
        cols: usize,
    },
    /// The program moves data across the PE mesh (`MovR`/`ReadR`/`WriteR`)
    /// but requests fewer groups than a whole machine. Mesh geometry
    /// derives from the full machine, so a partial-machine placement would
    /// not be bit-identical to an isolated run — submit with
    /// `streams.len() == machine_groups` instead.
    RemoteOpsNeedFullMachine {
        /// Groups requested.
        requested: usize,
        /// Groups per pool machine.
        machine_groups: usize,
    },
    /// Every machine in the pool has been quarantined.
    NoHealthyMachines,
    /// The pool is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { tenant, depth } => {
                write!(f, "tenant {tenant} queue full (depth bound {depth})")
            }
            SubmitError::TooManyGroups {
                requested,
                machine_groups,
            } => write!(
                f,
                "job wants {requested} groups, machines have {machine_groups}"
            ),
            SubmitError::EmptyJob => write!(f, "job has no streams"),
            SubmitError::LoadOutOfRange {
                load,
                job_pes,
                rows,
                cols,
            } => write!(
                f,
                "preload (pe {}, row {}, col {}) outside the job span \
                 ({job_pes} PEs of {rows}x{cols})",
                load.pe, load.row, load.col
            ),
            SubmitError::RemoteOpsNeedFullMachine {
                requested,
                machine_groups,
            } => write!(
                f,
                "program touches remote registers: needs all {machine_groups} groups, got {requested}"
            ),
            SubmitError::NoHealthyMachines => write!(f, "every pool machine is quarantined"),
            SubmitError::ShuttingDown => write!(f, "pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The completion slot a worker fills and a waiter blocks on.
#[derive(Debug)]
pub(crate) struct Slot {
    result: Mutex<Option<Result<JobOutput, JobError>>>,
    done: Condvar,
}

impl Slot {
    pub(crate) fn new() -> Arc<Slot> {
        Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    pub(crate) fn fulfill(&self, result: Result<JobOutput, JobError>) {
        let mut slot = crate::lock(&self.result);
        debug_assert!(slot.is_none(), "job fulfilled twice");
        *slot = Some(result);
        self.done.notify_all();
    }
}

/// A ticket for one admitted job. [`wait`](Self::wait) blocks until a
/// worker fulfills it; dropping the handle abandons the result (the job
/// still runs and is still accounted to the tenant).
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) slot: Arc<Slot>,
    /// Owning tenant (mirrors the submitted spec).
    pub tenant: TenantId,
}

impl JobHandle {
    /// Block until the job completes or fails.
    pub fn wait(self) -> Result<JobOutput, JobError> {
        let mut slot = crate::lock(&self.slot.result);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = crate::wait(&self.slot.done, slot);
        }
    }

    /// Non-blocking poll: `None` while the job is in flight, `Some` once
    /// it has resolved. Polling never consumes the result — repeated
    /// calls keep returning it, and a later [`wait`](Self::wait) still
    /// resolves immediately.
    pub fn try_wait(&self) -> Option<Result<JobOutput, JobError>> {
        crate::lock(&self.slot.result).clone()
    }
}

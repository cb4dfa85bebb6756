//! Multi-tenant batch serving over a pool of [`hyperap_arch::SlabMachine`]s
//! — the production front-end of the stack (ROADMAP item 3).
//!
//! Everything below the serving layer executes one program on one machine;
//! this crate turns that into a service:
//!
//! * [`ServePool`] owns N machines, one per worker thread, and one FIFO
//!   of submitted jobs: any idle worker pops the front, so a burst spreads
//!   over every machine in admission order.
//! * [`ProgramCache`] is one shared, capacity-bounded LRU of
//!   [`hyperap_arch::CompiledProgram`]s for the pool's geometry, keyed by
//!   stream-set hash: N tenants submitting the same kernel compile it
//!   **once**, and every hit is validated by full stream equality before
//!   reuse, so a hash collision can never serve the wrong program.
//! * Compatible submissions — same cached program, no cross-PE traffic,
//!   zero-fault config — are **batched**: coalesced onto disjoint group
//!   ranges of one machine and executed as a single sweep, amortizing the
//!   scrub and dispatch cost over every rider.
//! * Per-tenant admission control gives backpressure a typed surface:
//!   a tenant over its queue bound gets [`SubmitError::QueueFull`] instead
//!   of unbounded memory growth, and fairness — one tenant's backlog
//!   cannot starve another's admission budget.
//! * Fault fail-fast is pool-aware: a machine whose
//!   [`hyperap_tcam::FaultError::SparesExhausted`] latches is quarantined
//!   (the machine marked unhealthy in [`PoolStats`], the queue left to the
//!   survivors) instead of poisoning unrelated tenants' jobs.
//!
//! Isolation is by construction: a machine is [`scrubbed`] back to its
//! as-constructed state before every batch, so a job's results are
//! bit-identical to running it alone on a fresh machine — property-tested
//! against isolated machines in `tests/concurrent_cache.rs`.
//!
//! [`scrubbed`]: hyperap_arch::SlabMachine::scrub

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod pool;

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

pub use cache::{CacheStats, CachedProgram, ProgramCache};
pub use job::{CellLoad, JobError, JobHandle, JobOutput, JobSpec, SubmitError, TenantId};
pub use pool::{PoolStats, QuarantineCause, QuarantineReport, ServeConfig, ServePool, TenantStats};

/// Lock `mutex`, recovering the guard when an earlier holder panicked.
/// That panic already reached its own caller (a worker's sweep panics
/// outside every lock and is quarantined); recovering keeps each later
/// submitter, waiter and stats call working instead of panicking them all
/// in turn on the poisoned lock.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock`].
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

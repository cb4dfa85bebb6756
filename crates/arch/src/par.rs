//! Fork-join helpers for the slab engine.
//!
//! The engine's only parallel shape is a fan-out over disjoint slab chunks
//! (a group's chunks for a trace segment, every chunk for a similarity
//! query). `rayon` is not available in the offline build, so these helpers
//! provide the same shape with [`std::thread::scope`]: the slice is split
//! into near-equal contiguous chunks, one scoped thread per chunk, and the
//! scope joins them all before returning. With one thread (or a trivially
//! small slice) the call degrades to a plain loop on the caller's thread —
//! no spawn, no synchronization, no allocation.
//!
//! Determinism: chunks are disjoint, each element is touched by exactly one
//! thread, and callers receive the chunk's starting offset so any results
//! land at fixed positions — the outcome is independent of thread
//! scheduling by construction.

/// Measured cost in nanoseconds of one two-worker fork-join over running
/// the same trivial dispatch inline — calibrated once per process on first
/// use (a short dispatch timed both ways) and cached.
///
/// `ExecMode::Auto` compares this against a conservative estimate of a
/// dispatch's work to decide whether fanning out can possibly win. The
/// result is floored at 2 µs so Auto never threads tiny dispatches even on
/// hosts where the measurement comes out spuriously cheap (e.g. under a
/// coarse clock).
pub fn forkjoin_overhead_ns() -> u64 {
    static OVERHEAD: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        const REPS: u32 = 24;
        let touch = |_: usize, chunk: &mut [u8]| {
            for x in chunk {
                *x = x.wrapping_add(1);
            }
        };
        let mut buf = [0u8; 2];
        // Warm the spawn path so first-thread setup cost isn't billed to
        // the steady-state measurement.
        for_each_chunk(2, &mut buf, touch);
        let start = std::time::Instant::now();
        for _ in 0..REPS {
            for_each_chunk(2, &mut buf, touch);
        }
        let forked = start.elapsed();
        let start = std::time::Instant::now();
        for _ in 0..REPS {
            for_each_chunk(1, &mut buf, touch);
        }
        let inline = start.elapsed();
        let per_join = forked.saturating_sub(inline).as_nanos() as u64 / u64::from(REPS);
        per_join.max(2_000)
    })
}

/// Whether forking can beat running inline on this host *at all* —
/// decided once per process and cached.
///
/// A fork-join only wins when a second worker runs on a second core. On a
/// single-CPU host (the checked-in bench baseline records `cpus: 1`) the
/// workers time-slice one core, so every threaded dispatch pays spawn and
/// join cost for zero overlap — `BENCH_SIM.json`'s forced-`Parallel`
/// columns measure that loss directly (0.71×/0.77× of sequential).
/// `ExecMode::Auto` consults this before its per-dispatch break-even rule
/// so it can never follow `Parallel` down that path, even when
/// `HYPERAP_THREADS` advertises a wider host than the hardware provides.
///
/// The decision is `available_parallelism() >= 2`, checked against the
/// *physical* host (the `HYPERAP_THREADS` override caps fan-out width but
/// cannot conjure cores). When the physical width passes, a measured
/// sanity check confirms a two-worker compute-bound dispatch actually
/// outruns the same work inline — containers sometimes report cores a
/// cgroup quota won't deliver.
pub fn parallel_pays() -> bool {
    static PAYS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *PAYS.get_or_init(|| {
        let physical = std::thread::available_parallelism().map_or(1, |n| n.get());
        if physical < 2 {
            return false;
        }
        // Compute-bound probe, sized so genuine two-core overlap dwarfs the
        // fork-join overhead (~2 µs): ~256 µs of work per pass.
        const N: usize = 1 << 16;
        const REPS: u32 = 4;
        let work = |_: usize, chunk: &mut [u32]| {
            for x in chunk.iter_mut() {
                *x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            }
        };
        let mut buf = vec![0u32; N];
        let time = |threads: usize, buf: &mut Vec<u32>| {
            for_each_chunk(threads, buf, work); // warm
            let start = std::time::Instant::now();
            for _ in 0..REPS {
                for_each_chunk(threads, buf, work);
            }
            start.elapsed().as_nanos() as u64
        };
        let forked = time(2, &mut buf);
        let inline = time(1, &mut buf);
        std::hint::black_box(&buf);
        two_workers_win(forked, inline)
    })
}

/// Logical CPU count the scheduler will actually give this process —
/// `available_parallelism()` (cgroup/affinity aware), floored at 1.
pub fn logical_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Physical core count of the host, best effort: the number of distinct
/// `(physical id, core id)` pairs in `/proc/cpuinfo`. Falls back to
/// [`logical_cpus`] when the file is absent or unparseable (non-Linux,
/// stripped containers), so the result is always ≥ 1 and never exceeds
/// what the kernel reports as schedulable.
///
/// Benches record this next to the logical count and the
/// [`parallel_pays`] outcome so a 1-CPU CI run and a real multi-core run
/// are distinguishable in `BENCH_SIM.json` — SMT siblings inflate the
/// logical count but share execution units, and the compute-bound slab
/// kernels scale with *cores*, not hardware threads.
pub fn physical_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") else {
            return logical_cpus();
        };
        let mut pairs = std::collections::HashSet::new();
        let (mut phys, mut core) = (None::<u64>, None::<u64>);
        let mut flush = |phys: &mut Option<u64>, core: &mut Option<u64>| {
            if let (Some(p), Some(c)) = (phys.take(), core.take()) {
                pairs.insert((p, c));
            }
        };
        for line in info.lines() {
            let Some((key, value)) = line.split_once(':') else {
                // Blank line: end of one processor's stanza.
                flush(&mut phys, &mut core);
                continue;
            };
            match key.trim() {
                "physical id" => phys = value.trim().parse().ok(),
                "core id" => core = value.trim().parse().ok(),
                _ => {}
            }
        }
        flush(&mut phys, &mut core);
        if pairs.is_empty() {
            logical_cpus()
        } else {
            pairs.len()
        }
    })
}

/// The pure decision behind [`parallel_pays`]: two workers "win" only when
/// the forked timing beats inline by at least 10%, so scheduler noise on a
/// host with no real second core can't flip Auto into the losing mode.
pub fn two_workers_win(forked_ns: u64, inline_ns: u64) -> bool {
    forked_ns.saturating_mul(10) < inline_ns.saturating_mul(9)
}

/// Run `f(offset, chunk)` over up to `threads` near-equal contiguous chunks
/// of `data`, where `offset` is the chunk's starting index in `data`.
///
/// `threads <= 1` or `data.len() < 2` runs `f(0, data)` inline.
pub fn for_each_chunk<T, F>(threads: usize, data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if threads <= 1 || n < 2 {
        f(0, data);
        return;
    }
    let chunk = n.div_ceil(threads.min(n));
    std::thread::scope(|scope| {
        let mut chunks = data.chunks_mut(chunk);
        let first = chunks.next();
        for (i, part) in chunks.enumerate() {
            let f = &f;
            scope.spawn(move || f((i + 1) * chunk, part));
        }
        // The caller works the first chunk instead of idling at the join.
        if let Some(part) = first {
            f(0, part);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_element_visited_exactly_once() {
        for threads in [1, 2, 3, 7, 64] {
            let mut data = vec![0u32; 100];
            for_each_chunk(threads, &mut data, |_, chunk| {
                for x in chunk {
                    *x += 1;
                }
            });
            assert!(data.iter().all(|&x| x == 1), "threads={threads}");
        }
    }

    #[test]
    fn offsets_match_global_indices() {
        let mut data: Vec<usize> = (0..37).collect();
        for_each_chunk(4, &mut data, |off, chunk| {
            for (i, x) in chunk.iter().enumerate() {
                assert_eq!(*x, off + i);
            }
        });
    }

    #[test]
    fn single_thread_runs_inline() {
        let calls = AtomicUsize::new(0);
        let caller = std::thread::current().id();
        let mut data = vec![0u8; 10];
        for_each_chunk(1, &mut data, |_, _| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!(std::thread::current().id(), caller);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn two_workers_win_requires_a_real_margin() {
        // A genuine second core roughly halves the time — wins.
        assert!(two_workers_win(520, 1000));
        // Breaking even or losing (the 1-CPU time-slice case) never wins,
        // and neither does a sub-10% "win" inside scheduler noise.
        assert!(!two_workers_win(1000, 1000));
        assert!(!two_workers_win(1400, 1000));
        assert!(!two_workers_win(950, 1000));
        // Saturating math: absurd timings can't overflow into a win.
        assert!(!two_workers_win(u64::MAX, u64::MAX));
    }

    #[test]
    fn parallel_pays_is_stable_and_respects_physical_width() {
        let pays = parallel_pays();
        assert_eq!(pays, parallel_pays(), "probed once, then cached");
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            assert!(!pays, "one physical CPU can never profit from forking");
        }
    }

    #[test]
    fn forkjoin_overhead_is_floored_and_stable() {
        let a = forkjoin_overhead_ns();
        assert!(a >= 2_000, "floor keeps Auto honest on coarse clocks");
        assert_eq!(a, forkjoin_overhead_ns(), "calibrated once, then cached");
    }
}

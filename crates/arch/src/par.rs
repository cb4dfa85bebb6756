//! Host-shape probes.
//!
//! Simulated machines always run on their caller's thread: the modelled
//! parallelism (SIMD across PEs and groups) is scored in RRAM cycles, not
//! host threads. Host parallelism lives one level up, in the serving
//! pool's one machine per worker thread. These probes size that pool and
//! record the host shape next to benchmark numbers.

/// Whether a second worker thread can beat running the same work inline
/// on this host *at all* — decided once per process and cached.
///
/// Two workers only win when the second one runs on a second core. On a
/// single-CPU host they time-slice one core for zero overlap, so this is
/// false without measuring. When [`logical_cpus`] reports two or more, a
/// measured check confirms a two-worker compute-bound pass actually
/// outruns the same work inline — containers sometimes report cores a
/// cgroup quota won't deliver. The serving pool's scaling floors read it.
pub fn parallel_pays() -> bool {
    static PAYS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *PAYS.get_or_init(|| {
        if logical_cpus() < 2 {
            return false;
        }
        // Compute-bound probe, sized so genuine two-core overlap dwarfs the
        // thread spawn and join cost (~2 µs): ~256 µs of work per pass.
        const N: usize = 1 << 16;
        const REPS: u32 = 4;
        fn work(chunk: &mut [u32]) {
            for x in chunk.iter_mut() {
                *x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            }
        }
        let mut buf = vec![0u32; N];
        let pass = |buf: &mut [u32], two: bool| {
            if two {
                let (a, b) = buf.split_at_mut(N / 2);
                std::thread::scope(|s| {
                    s.spawn(|| work(b));
                    work(a);
                });
            } else {
                work(buf);
            }
        };
        let time = |buf: &mut [u32], two: bool| {
            pass(buf, two); // warm
            let start = std::time::Instant::now();
            for _ in 0..REPS {
                pass(buf, two);
            }
            start.elapsed().as_nanos() as u64
        };
        let forked = time(&mut buf, true);
        let inline = time(&mut buf, false);
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
/// logical count but share execution units.
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
/// host with no real second core can't flip the verdict.
pub fn two_workers_win(forked_ns: u64, inline_ns: u64) -> bool {
    forked_ns.saturating_mul(10) < inline_ns.saturating_mul(9)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}

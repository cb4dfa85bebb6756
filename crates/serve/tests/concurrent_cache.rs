//! Concurrency property tests for the serving layer's core guarantee:
//! N submitter threads sharing one [`ServePool`] — one program cache, one
//! machine pool, work stealing, batching, scrub-on-assign — get results
//! **bit-identical** to running each job alone on a fresh machine of its
//! own size.
//!
//! The cache is deliberately undersized (capacity 2, more distinct kernels
//! than that in flight), so entries are evicted and recompiled *while*
//! submitters race — a hit, a miss, and a post-eviction recompile must all
//! produce the same `RunStats`. A deterministic companion test covers the
//! seeded-fault path, where jobs are unbatchable and pinned to group
//! offset 0 precisely so that per-global-PE fault seeding matches an
//! isolated machine.

use std::collections::HashSet;
use std::thread;

use hyperap_arch::{ArchConfig, FaultConfig, RunStats, SlabMachine};
use hyperap_isa::Instruction;
use hyperap_serve::{CellLoad, JobSpec, ServeConfig, ServePool};
use hyperap_tcam::{FaultModel, KeyBit};
use proptest::prelude::*;

/// One group of [`ArchConfig::tiny`]: 4 PEs of 16x64.
const PES_PER_GROUP: usize = 4;
const ROWS: usize = 16;
const COLS: usize = 64;

/// The batchable instruction subset: everything except `MovR`/`ReadR`/
/// `WriteR`, whose mesh traffic pins a program to a full machine (the
/// pool rejects partial-machine submissions of those — covered by the
/// `typed_rejections` unit test).
fn inst_strategy() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        prop::collection::vec(0u8..4, COLS).prop_map(|bits| Instruction::SetKey {
            key: bits
                .iter()
                .map(|b| match b {
                    0 => KeyBit::Zero,
                    1 => KeyBit::One,
                    2 => KeyBit::Z,
                    _ => KeyBit::Masked,
                })
                .collect(),
        }),
        (any::<bool>(), any::<bool>())
            .prop_map(|(acc, encode)| Instruction::Search { acc, encode }),
        // `encode` needs two adjacent columns, so stop one short.
        (0u8..(COLS as u8 - 1), any::<bool>())
            .prop_map(|(col, encode)| Instruction::Write { col, encode }),
        Just(Instruction::Count),
        Just(Instruction::Index),
        Just(Instruction::SetTag),
        Just(Instruction::ReadTag),
        any::<u8>().prop_map(|m| Instruction::Broadcast { group_mask: m }),
        (0u8..10).prop_map(|cycles| Instruction::Wait { cycles }),
    ]
}

/// A kernel: `groups` instruction streams (1 = half of a tiny machine,
/// 2 = a full machine, exercising both the batched and the solo path)
/// plus host preloads within the job's own PE span.
fn kernel_strategy() -> impl Strategy<Value = (Vec<Vec<Instruction>>, Vec<CellLoad>)> {
    (
        1usize..3,
        prop::collection::vec(prop::collection::vec(inst_strategy(), 1..16), 2),
        prop::collection::vec(
            (
                0usize..2 * PES_PER_GROUP,
                0usize..ROWS,
                0usize..COLS,
                any::<bool>(),
            )
                .prop_map(|(pe, row, col, value)| CellLoad {
                    pe,
                    row,
                    col,
                    value,
                }),
            0..24,
        ),
    )
        .prop_map(|(groups, mut streams, mut loads)| {
            streams.truncate(groups);
            loads.retain(|l| l.pe < groups * PES_PER_GROUP);
            (streams, loads)
        })
}

/// What the job must produce: the same program on a fresh, job-sized
/// machine.
fn isolated_stats(
    streams: &[Vec<Instruction>],
    loads: &[CellLoad],
    faults: FaultConfig,
) -> Result<RunStats, hyperap_tcam::FaultError> {
    let mut cfg = ArchConfig::tiny();
    cfg.groups = streams.len();
    cfg.faults = faults;
    let mut iso = SlabMachine::new(cfg);
    for l in loads {
        iso.load_bit(l.pe, l.row, l.col, l.value);
    }
    iso.try_run(streams)
}

proptest! {
    // Each case spins up a pool (worker threads) and three submitter
    // threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn racing_submitters_match_isolated_machines(
        kernels in prop::collection::vec(kernel_strategy(), 3..5),
        rounds in 2usize..4,
    ) {
        let zero_faults = FaultConfig::default();
        let expected: Vec<RunStats> = kernels
            .iter()
            .map(|(streams, loads)| {
                isolated_stats(streams, loads, zero_faults)
                    .expect("zero-fault run cannot fault")
            })
            .collect();

        let mut cfg = ServeConfig::new(ArchConfig::tiny());
        cfg.machines = 2;
        // Undersized on purpose: with >2 distinct kernels in flight the
        // LRU evicts and recompiles while submitters race.
        cfg.cache_capacity = 2;
        let pool = ServePool::new(cfg);

        const SUBMITTERS: u32 = 3;
        thread::scope(|s| {
            for t in 0..SUBMITTERS {
                let pool = &pool;
                let kernels = &kernels;
                let expected = &expected;
                s.spawn(move || {
                    for i in 0..rounds * kernels.len() {
                        // Stagger starting kernels per tenant so threads
                        // race on different entries, not in lockstep.
                        let k = (i + t as usize) % kernels.len();
                        let (streams, loads) = &kernels[k];
                        let out = pool
                            .submit(JobSpec {
                                tenant: t,
                                streams: streams.clone(),
                                loads: loads.clone(),
                            })
                            .expect("admission under the depth bound")
                            .wait()
                            .expect("zero-fault job cannot fail");
                        assert_eq!(
                            out.stats, expected[k],
                            "kernel {k} (tenant {t}) diverged from its isolated machine"
                        );
                    }
                });
            }
        });

        let stats = pool.shutdown();
        let jobs = u64::from(SUBMITTERS) * (rounds * kernels.len()) as u64;
        prop_assert_eq!(stats.completed_jobs, jobs);
        prop_assert_eq!(stats.faulted_jobs, 0);
        prop_assert_eq!(stats.healthy_machines, stats.machines);
        // Every distinct kernel compiled at least once; randomly equal
        // kernels share an entry, so count distinct content keys.
        let distinct: HashSet<u64> = kernels
            .iter()
            .map(|(streams, _)| hyperap_arch::stream_set_hash(streams))
            .collect();
        prop_assert!(stats.cache.misses >= distinct.len() as u64);
        if distinct.len() > 2 {
            prop_assert!(
                stats.cache.evictions > 0,
                "{} distinct kernels through a 2-entry cache must evict",
                distinct.len()
            );
        }
    }
}

/// The seeded-fault path: fault-configured pools disable batching and pin
/// every job to group offset 0, so per-global-PE fault seeding (stuck
/// cells, transient misses, wear) lines up with an isolated machine of the
/// job's size — results must still be bit-identical, concurrently.
#[test]
fn seeded_fault_jobs_match_isolated_fault_machine() {
    let faults = FaultConfig {
        model: FaultModel {
            seed: 0xFA_17,
            stuck_per_million: 30_000,
            miss_per_million: 10_000,
            endurance_limit: None,
        },
        spare_cols: 1,
    };
    let setkey = |s: &str| Instruction::SetKey {
        key: hyperap_tcam::SearchKey::parse(s).unwrap(),
    };
    let search = || Instruction::Search {
        acc: false,
        encode: false,
    };
    // Two kernels that see stuck bits and miss injection from different
    // key angles, plus wear from writes.
    let kernels: Vec<(Vec<Vec<Instruction>>, Vec<CellLoad>)> = vec![
        (
            vec![vec![
                setkey("1-"),
                search(),
                Instruction::Write {
                    col: 2,
                    encode: false,
                },
                setkey("-0"),
                search(),
                Instruction::Count,
                Instruction::Index,
            ]],
            vec![CellLoad {
                pe: 1,
                row: 3,
                col: 0,
                value: true,
            }],
        ),
        (
            vec![vec![
                setkey("01"),
                search(),
                Instruction::SetTag,
                setkey("1-"),
                Instruction::Search {
                    acc: true,
                    encode: false,
                },
                Instruction::Count,
            ]],
            vec![CellLoad {
                pe: 3,
                row: 0,
                col: 1,
                value: true,
            }],
        ),
    ];
    let expected: Vec<RunStats> = kernels
        .iter()
        .map(|(streams, loads)| {
            isolated_stats(streams, loads, faults).expect("no endurance limit set")
        })
        .collect();

    let mut arch = ArchConfig::tiny();
    arch.faults = faults;
    let mut cfg = ServeConfig::new(arch);
    cfg.machines = 2;
    let pool = ServePool::new(cfg);
    thread::scope(|s| {
        for t in 0..3u32 {
            let pool = &pool;
            let kernels = &kernels;
            let expected = &expected;
            s.spawn(move || {
                for i in 0..6 {
                    let k = (i + t as usize) % kernels.len();
                    let (streams, loads) = &kernels[k];
                    let out = pool
                        .submit(JobSpec {
                            tenant: t,
                            streams: streams.clone(),
                            loads: loads.clone(),
                        })
                        .unwrap()
                        .wait()
                        .expect("no endurance limit: faults degrade, not latch");
                    assert_eq!(out.stats, expected[k]);
                    assert_eq!(out.batch_size, 1, "fault-seeded jobs never batch");
                }
            });
        }
    });
    let stats = pool.shutdown();
    assert_eq!(stats.completed_jobs, 18);
    assert_eq!(stats.batched_jobs, 0);
    assert_eq!(stats.healthy_machines, stats.machines);
}

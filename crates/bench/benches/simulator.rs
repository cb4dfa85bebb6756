//! Criterion micro-benchmarks for the simulator substrate and the compiler.

use criterion::{criterion_group, criterion_main, Criterion};
use hyperap_arch::trace::compile_streams;
use hyperap_arch::{ArchConfig, SlabMachine};
use hyperap_bench::add32_streams;
use hyperap_compiler::{compile, CompileOptions};
use hyperap_core::machine::HyperPe;
use hyperap_core::microcode::Microcode;
use hyperap_tcam::array::TcamArray;
use hyperap_tcam::key::SearchKey;
use hyperap_tcam::mvsop::{minimize, Cover, PosKind};
use hyperap_tcam::tags::TagVector;
use std::hint::black_box;

fn bench_tcam_search(c: &mut Criterion) {
    let mut array = TcamArray::pe_sized();
    for row in 0..256 {
        array.store_field(row, 0, 64, row as u64 * 0x9E37_79B9);
    }
    let mut key = SearchKey::masked(256);
    key.set_field(0, 12, 0xABC);
    c.bench_function("tcam_search_256x256", |b| {
        b.iter(|| black_box(array.search(black_box(&key))))
    });
}

fn bench_tcam_search_into(c: &mut Criterion) {
    // Same workload as `tcam_search_256x256`, but through the
    // buffer-reusing API — the steady-state engine path.
    let mut array = TcamArray::pe_sized();
    for row in 0..256 {
        array.store_field(row, 0, 64, row as u64 * 0x9E37_79B9);
    }
    let mut key = SearchKey::masked(256);
    key.set_field(0, 12, 0xABC);
    let mut tags = TagVector::zeros(256);
    c.bench_function("tcam_search_into_256x256", |b| {
        b.iter(|| {
            array.search_into(black_box(&key), &mut tags);
            black_box(tags.blocks()[0])
        })
    });
}

fn bench_slab_word_kernels(c: &mut Criterion) {
    use hyperap_tcam::bit::TernaryBit;
    use hyperap_tcam::slab::{pe_range_mask, SweepOp, TagSlab, TcamSlab};
    use hyperap_tcam::KeyBit;

    // 1024 PEs × 256 rows (16 PE words per plane row): each plan entry is a
    // straight AND/OR sweep over rows × pe_words = 4096 words, the
    // innermost loop of every slab search.
    let (pes, rows, cols) = (1024usize, 256usize, 16usize);
    let mut slab = TcamSlab::new(pes, rows, cols);
    for pe in 0..pes {
        for row in 0..rows {
            for col in 0..cols {
                let v = match (pe + 3 * row + 7 * col) % 3 {
                    0 => TernaryBit::Zero,
                    1 => TernaryBit::One,
                    _ => TernaryBit::X,
                };
                slab.set_cell(pe, row, col, v);
            }
        }
    }
    let plane = slab.plane_words();
    let plan = [(0usize, KeyBit::One), (3, KeyBit::Zero)];
    let mut out = vec![0u64; plane];
    c.bench_function("slab_word_search_1024pe_2entry", |b| {
        b.iter(|| {
            let search = SweepOp {
                plans: &[black_box(&plan[..])],
                acc: false,
                writes: &[],
            };
            slab.sweep_program(&[search], &mut out, None);
            black_box(&out);
        })
    });

    // Masked word store: a column write gated by a selection mask whose
    // active range starts and ends mid-word — the ragged-broadcast path.
    let mut tags = {
        let mut t = TagSlab::zeros(pes, rows);
        for pe in 0..pes {
            let tv =
                hyperap_tcam::tags::TagVector::from_bools((0..rows).map(|row| (pe + row) % 3 == 0));
            t.set_pe(pe, &tv);
        }
        t
    };
    let sel = pe_range_mask(pes, 40, 1000);
    c.bench_function("slab_masked_word_store_1024pe", |b| {
        b.iter(|| {
            let store = SweepOp {
                plans: &[],
                acc: true,
                writes: &[(5, TernaryBit::One)],
            };
            slab.sweep_program(&[store], black_box(tags.words_mut()), Some(&sel));
            black_box(slab.pe_words());
        })
    });
}

fn bench_slab_hamming(c: &mut Criterion) {
    use hyperap_tcam::bit::TernaryBit;
    use hyperap_tcam::slab::TcamSlab;
    use hyperap_tcam::KeyBit;

    // Word-parallel Hamming kernels on a 1024-PE arena: the full-distance
    // accumulate (per-plane miss → ripple-carry counters) and the
    // progressive masked top-k (accumulate + bit-sliced threshold rounds).
    let (pes, rows, cols) = (1024usize, 64usize, 64usize);
    let mut slab = TcamSlab::new(pes, rows, cols);
    for pe in 0..pes {
        for row in 0..rows {
            for col in 0..cols {
                let v = if (pe ^ (3 * row) ^ (7 * col)) & 1 == 0 {
                    TernaryBit::Zero
                } else {
                    TernaryBit::One
                };
                slab.set_cell(pe, row, col, v);
            }
        }
    }
    let plan: Vec<(usize, KeyBit)> = (0..cols)
        .map(|col| {
            (
                col,
                if col % 3 == 0 {
                    KeyBit::One
                } else {
                    KeyBit::Zero
                },
            )
        })
        .collect();
    let mut out = vec![0u32; pes * rows];
    c.bench_function("slab_hamming_into_1024pe_64bit", |b| {
        b.iter(|| {
            slab.hamming_into(black_box(&plan), rows, &mut out);
            black_box(&out);
        })
    });
    c.bench_function("slab_hamming_topk16_1024pe_64bit", |b| {
        b.iter(|| black_box(slab.hamming_topk(black_box(&plan), rows, 16)))
    });
}

fn bench_group_run(c: &mut Criterion) {
    // Slab engine over every group's chunks: add32 on every PE of a
    // 4-group machine.
    let mut cfg = ArchConfig::paper_scaled(64);
    cfg.groups = 4;
    let streams = add32_streams(256, cfg.groups);
    let traces = compile_streams(&streams, &cfg);
    let mut m = SlabMachine::new(cfg);
    c.bench_function("group_run_add32_seq", |b| {
        b.iter(|| black_box(m.try_run_compiled(&traces).expect("fault-free run")))
    });
}

fn bench_mvsop(c: &mut Criterion) {
    // The 1-bit full-adder Sum cover (Fig 5d).
    let cover = Cover::new(
        vec![PosKind::Pair, PosKind::Single],
        vec![vec![0b10, 0], vec![0b01, 0], vec![0b00, 1], vec![0b11, 1]],
    );
    c.bench_function("mvsop_minimize_full_adder", |b| {
        b.iter(|| black_box(minimize(black_box(&cover))))
    });
}

fn bench_microcode_add(c: &mut Criterion) {
    c.bench_function("microcode_build_add32", |b| {
        b.iter(|| {
            let mut mc = Microcode::new(256);
            let (x, y) = mc.alloc_paired_inputs("a", "b", 32);
            black_box(mc.add(&x, &y));
        })
    });
}

fn bench_machine_run(c: &mut Criterion) {
    let mut mc = Microcode::new(256);
    let (x, y) = mc.alloc_paired_inputs("a", "b", 32);
    let _ = mc.add(&x, &y);
    let prog = mc.into_program();
    c.bench_function("pe_run_add32_256rows", |b| {
        b.iter(|| {
            let mut pe = HyperPe::new(256, 256);
            black_box(prog.run(&mut pe));
        })
    });
}

fn bench_compile(c: &mut Criterion) {
    let src = "unsigned int (9) main(unsigned int (8) a, unsigned int (8) b) {
        return (a & b) + (a ^ b);
    }";
    c.bench_function("compile_merge_8bit", |b| {
        b.iter(|| black_box(compile(black_box(src), &CompileOptions::default()).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_tcam_search,
    bench_tcam_search_into,
    bench_slab_word_kernels,
    bench_slab_hamming,
    bench_mvsop,
    bench_microcode_add,
    bench_machine_run,
    bench_group_run,
    bench_compile
);
criterion_main!(benches);

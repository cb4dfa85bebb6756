//! `kernels_cold` and `kernels_warm`: the bundled Rodinia kernels from
//! source text to verified outputs on the slab engine.
//!
//! Both workloads share the host data path below: a per-kernel load plan
//! that writes every input bit of every element through the slab's host
//! load calls, and a readback through `pe_snapshot` + `Field::read`.
//! Elements are numbered `pe * rows + row`.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use hyperap_arch::trace::compile_streams;
use hyperap_arch::{ArchConfig, CompiledTrace, SlabMachine};
use hyperap_compiler::{compile, CompileOptions, CompiledKernel, OPT_LEVEL_MAX};
use hyperap_core::field::Slot;
use hyperap_isa::Instruction;
use hyperap_workloads::kernels::{all_kernels, Kernel};

use crate::report::{median, vm_hwm_mb, Report};
use crate::trace::Tracer;
use crate::{machine_config, splitmix, Args};

/// Opt levels every cold pass compiles each kernel at.
const LEVELS: [u8; 2] = [0, OPT_LEVEL_MAX];
/// Set-ups per warm run; the median is reported.
const WARM_SETUPS: usize = 5;
/// Set-ups per cold pass (machine and inputs; a few ms each); the median is
/// reported.
const COLD_SETUPS: usize = 9;

/// An input bit: (input index, bit index).
type InputBit = (usize, usize);

/// Where each input bit of a compiled kernel lives: plain columns, and
/// two-bit-encoded pairs (first column, high half, low half) that must be
/// written together.
struct LoadPlan {
    inputs: usize,
    singles: Vec<(usize, usize, usize)>,
    pairs: Vec<(usize, Option<InputBit>, Option<InputBit>)>,
}

impl LoadPlan {
    fn new(kernel: &CompiledKernel) -> Self {
        let mut singles = Vec::new();
        let mut pairs: BTreeMap<usize, (Option<InputBit>, Option<InputBit>)> = BTreeMap::new();
        for (input, field) in kernel.input_fields().iter().enumerate() {
            for (bit, slot) in field.slots.iter().enumerate() {
                match *slot {
                    Slot::Single { col } => singles.push((input, bit, col)),
                    Slot::PairHi { col } => pairs.entry(col).or_default().0 = Some((input, bit)),
                    Slot::PairLo { col } => pairs.entry(col).or_default().1 = Some((input, bit)),
                }
            }
        }
        LoadPlan {
            inputs: kernel.input_fields().len(),
            singles,
            pairs: pairs.into_iter().map(|(c, (h, l))| (c, h, l)).collect(),
        }
    }

    /// Write every element's inputs; returns the cells written.
    fn load(&self, m: &mut SlabMachine, pes: usize, rows: usize, inputs: &[u64]) -> u64 {
        for pe in 0..pes {
            for row in 0..rows {
                let e = (pe * rows + row) * self.inputs;
                let tuple = &inputs[e..e + self.inputs];
                let bit = |(i, b): InputBit| tuple[i] >> b & 1 == 1;
                for &(i, b, col) in &self.singles {
                    m.load_bit(pe, row, col, bit((i, b)));
                }
                for &(col, hi, lo) in &self.pairs {
                    let hi = hi.map(bit).unwrap_or(false);
                    let lo = lo.map(bit).unwrap_or(false);
                    m.load_encoded_pair(pe, row, col, hi, lo);
                }
            }
        }
        ((self.singles.len() + 2 * self.pairs.len()) * pes * rows) as u64
    }
}

// The three functions below fill a caller's buffer, so a stream of
// batches reuses its buffers and the process's peak memory does not depend
// on the order in which the allocator got them back.

/// Every output of every element, through the public readback path.
fn readback(
    m: &SlabMachine,
    kernel: &CompiledKernel,
    pes: usize,
    rows: usize,
    out: &mut Vec<u64>,
) {
    let fields = kernel.output_fields();
    out.clear();
    for pe in 0..pes {
        let snap = m.pe_snapshot(pe);
        for row in 0..rows {
            out.extend(fields.iter().map(|f| f.read(&snap, row)));
        }
    }
}

/// Seeded inputs within each declared width, flattened element-major.
fn gen_inputs(widths: &[usize], n: usize, seed: u64, out: &mut Vec<u64>) {
    let mut state = seed;
    out.clear();
    for _ in 0..n {
        for &w in widths {
            out.push(splitmix(&mut state) & (((1u128 << w) - 1) as u64));
        }
    }
}

/// Host reference outputs for flattened inputs.
fn expected(kernel: &Kernel, inputs: &[u64], arity: usize, out: &mut Vec<u64>) {
    out.clear();
    out.extend(inputs.chunks(arity).flat_map(|t| (kernel.reference)(t)));
}

/// Input widths straight from the front end (no codegen), so inputs can be
/// generated before the timed compile.
fn input_widths(kernel: &Kernel) -> Vec<usize> {
    let ast = hyperap_compiler::parse::parse(kernel.source).expect("bundled kernel parses");
    hyperap_compiler::sema::lower(&ast)
        .expect("bundled kernel type-checks")
        .dfg
        .input_widths
}

/// In a traced run, time the front-end stages `compile` runs internally
/// but does not expose: parse, sema, and (above level 0) DFG folding. The
/// rest of a compile is reported as `compiler.codegen_s`.
pub fn probe_stages(t: &mut Tracer, source: &str, level: u8) {
    if !t.is_on() {
        return;
    }
    let ast = t.span("compiler.parse", || {
        hyperap_compiler::parse::parse(source).expect("bundled kernel parses")
    });
    let lowered = t.span("compiler.sema", || {
        hyperap_compiler::sema::lower(&ast).expect("bundled kernel type-checks")
    });
    if level >= 1 {
        t.span("compiler.fold", || {
            hyperap_compiler::opt::sccp::fold_dfg(&lowered.dfg)
        });
    }
}

/// Compile a bundled kernel at `OPT_LEVEL_MAX` inside a span (set-up of
/// the warm and serve workloads).
pub fn compile_lmax(t: &mut Tracer, kernel: &Kernel) -> CompiledKernel {
    probe_stages(t, kernel.source, OPT_LEVEL_MAX);
    t.span("compiler.compile_lmax", || {
        compile(kernel.source, &options(OPT_LEVEL_MAX))
    })
    .expect("bundled kernel compiles")
}

fn options(level: u8) -> CompileOptions {
    CompileOptions {
        opt_level: level,
        ..CompileOptions::default()
    }
}

/// Exact counts of one compiled kernel: the sentinel keys and per-layer
/// counters of both kernel workloads.
fn kernel_counts(
    counts: &mut BTreeMap<String, u64>,
    key: &str,
    kernel: &CompiledKernel,
    stream: &[Instruction],
    traces: &[CompiledTrace],
) {
    let insts: usize = traces.iter().map(CompiledTrace::instruction_count).sum();
    let segments: usize = traces.iter().map(CompiledTrace::segment_count).sum();
    let syncs: usize = traces.iter().map(CompiledTrace::sync_count).sum();
    let counted = hyperap_compiler::opt::counted_ops(kernel.program());
    for (name, v) in [
        ("counted_ops", counted),
        ("columns", kernel.columns() as u64),
        ("stream_insts", stream.len() as u64),
        ("trace_segments", segments as u64),
        ("trace_syncs", syncs as u64),
        ("trace_insts", insts as u64),
    ] {
        counts.insert(format!("{key}.{name}"), v);
    }
}

/// The per-layer count metrics: sums of the matching exact counts.
fn set_count_layers(report: &mut Report) {
    for (layer, suffix) in [
        ("compiler.counted_ops", ".counted_ops"),
        ("compiler.columns", ".columns"),
        ("isa.stream_insts", ".stream_insts"),
        ("arch.trace_segments", ".trace_segments"),
        ("arch.trace_syncs", ".trace_syncs"),
    ] {
        let sum: u64 = report
            .sentinel
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum();
        report.set_layer(layer, sum as f64);
    }
}

/// Each operation kind's median latency; returns their geometric mean and
/// the slowest kind's. Kinds are fixed, so unlike a pooled percentile
/// neither depends on how many operations fit in the window, and unlike a
/// median over kinds the mean does not jump when two kinds swap ranks.
fn kind_latencies(lat: &[(String, f64)]) -> (f64, f64) {
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (k, s) in lat {
        by_kind.entry(k).or_default().push(*s);
    }
    let medians: Vec<f64> = by_kind.values().map(|v| median(v)).collect();
    let log_mean = medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len().max(1) as f64;
    (log_mean.exp(), medians.iter().copied().fold(0.0, f64::max))
}

// ---------------------------------------------------------------- cold --

/// One cold pass in a fresh process: every kernel at every level from
/// source text to verified outputs on one group's worth of elements.
/// Prints one line per measurement for [`run_cold`] to parse.
pub fn cold_pass(args: &Args, pass: u64) -> i32 {
    let traced = args.trace && pass % 2 == 1;
    let mut t = Tracer::new(false);
    let cfg = machine_config(1, 256);
    let (pes, rows) = (cfg.total_pes(), cfg.rows);
    let kernels = all_kernels();
    let mut ready = None;
    for i in 0..COLD_SETUPS {
        // Only the last set-up is traced and kept.
        t.set_on(traced && i + 1 == COLD_SETUPS);
        drop(ready.take());
        let setup = Instant::now();
        t.begin("setup");
        let m = t.span("arch.slab_new", || SlabMachine::new(cfg.clone()));
        let inputs: Vec<(Vec<usize>, Vec<u64>)> = kernels
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let widths = input_widths(k);
                let mut inputs = Vec::new();
                gen_inputs(&widths, pes * rows, args.seed ^ (i as u64) << 32, &mut inputs);
                (widths, inputs)
            })
            .collect();
        t.end();
        println!("setup {}", setup.elapsed().as_secs_f64());
        ready = Some((m, inputs));
    }
    let (mut m, inputs) = ready.expect("at least one set-up");
    // The reference outputs, outside the timed set-up.
    let data: Vec<(Vec<u64>, Vec<u64>)> = kernels
        .iter()
        .zip(inputs)
        .map(|(k, (widths, inputs))| {
            let mut want = Vec::new();
            expected(k, &inputs, widths.len(), &mut want);
            (inputs, want)
        })
        .collect();

    let mut model_cycles = 0u64;
    for (k, (inputs, want)) in kernels.iter().zip(&data) {
        for level in LEVELS {
            probe_stages(&mut t, k.source, level);
            let compile_span = if level == 0 {
                "compiler.compile_l0"
            } else {
                "compiler.compile_lmax"
            };
            let start = Instant::now();
            t.begin("op");
            let compiled = t.span(compile_span, || compile(k.source, &options(level)));
            let Ok(kernel) = compiled else {
                t.end();
                let s = start.elapsed().as_secs_f64();
                println!("op {}/l{level} {s} 0 0 0", k.name);
                println!("fail {} l{level}: compile error", k.name);
                continue;
            };
            let stream = t.span("isa.lower", || hyperap_isa::lower(kernel.program()));
            let streams = [stream];
            let traces = t.span("arch.compile_streams", || compile_streams(&streams, &cfg));
            t.span("arch.slab_new", || m.scrub());
            let plan = LoadPlan::new(&kernel);
            let cells = t.span("arch.load", || plan.load(&mut m, pes, rows, inputs));
            let stats = t.span("arch.run", || m.try_run_compiled(&traces));
            let mut got = Vec::new();
            t.span("arch.readback", || readback(&m, &kernel, pes, rows, &mut got));
            t.end();
            let latency = start.elapsed().as_secs_f64();

            let ok = stats.is_ok() && got == *want;
            let insts: usize = traces.iter().map(CompiledTrace::instruction_count).sum();
            let makespan = stats.as_ref().map(|s| s.makespan()).unwrap_or(0);
            if level == OPT_LEVEL_MAX {
                model_cycles += makespan;
            }
            println!(
                "op {}/l{level} {latency} {} {cells} {insts}",
                k.name,
                u8::from(ok)
            );
            if !ok {
                println!(
                    "fail {} l{level}: outputs differ from the reference",
                    k.name
                );
            }
            let mut counts = BTreeMap::new();
            let key = format!("{}.l{level}", k.name);
            kernel_counts(&mut counts, &key, &kernel, &streams[0], &traces);
            counts.insert(format!("{key}.makespan"), makespan);
            for (key, v) in &counts {
                println!("exact {key} {v}");
            }
        }
    }
    println!("exact suite.model_cycles {model_cycles}");
    if t.is_on() {
        for (name, s) in t.self_times() {
            println!("layer {name} {s}");
        }
        for root in ["op", "setup"] {
            let (total, inside) = t.coverage(root);
            println!("coverage {root} {total} {inside}");
        }
    }
    println!("rss {}", vm_hwm_mb());
    0
}

/// `kernels_cold`: fresh-process suite passes until the window is spent.
pub fn run_cold(args: &Args, report: &mut Report) {
    let exe = std::env::current_exe().expect("own executable path");
    let window = Instant::now();
    let mut setups = Vec::new();
    let mut suites = Vec::new();
    let (mut lat_all, mut lat_traced, mut lat_untraced) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass = 0u64;
    let mut sentinel: Option<BTreeMap<String, u64>> = None;
    // A traced run needs an untraced and a traced pass at least.
    let min_passes = if args.trace { 2 } else { 1 };
    while pass < min_passes || window.elapsed().as_secs_f64() < args.seconds {
        let out = Command::new(&exe)
            .args([
                "--cold-pass",
                &pass.to_string(),
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawn cold pass");
        let traced = args.trace && pass % 2 == 1;
        if !out.status.success() {
            report.fail(format!("cold pass {pass} exited with {}", out.status));
            report.attempted += 1;
            pass += 1;
            continue;
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let mut suite = 0.0;
        let mut exact = BTreeMap::new();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["setup", s] => setups.push(s.parse::<f64>().unwrap_or(f64::NAN)),
                ["op", kind, s, ok, cells, insts] => {
                    let s: f64 = s.parse().unwrap_or(f64::NAN);
                    suite += s;
                    lat_all.push((kind.to_string(), s));
                    let by = if traced {
                        &mut lat_traced
                    } else {
                        &mut lat_untraced
                    };
                    by.push((kind.to_string(), s));
                    report.attempted += 1;
                    if *ok != "1" {
                        report.failed += 1;
                    }
                    if traced {
                        report.add_layer("arch.load_cells", cells.parse().unwrap_or(0.0));
                        report.add_layer("arch.sim_insts", insts.parse().unwrap_or(0.0));
                    }
                }
                ["fail", ..] => report.note(line.to_string()),
                ["exact", key, v] => {
                    exact.insert(key.to_string(), v.parse().unwrap_or(u64::MAX));
                }
                ["layer", name, s] => report.add_span_time(name, s.parse().unwrap_or(0.0)),
                ["coverage", root, total, inside] => {
                    let root = if *root == "op" { "op" } else { "setup" };
                    let (total, inside) = (total.parse(), inside.parse());
                    report.add_coverage(root, total.unwrap_or(0.0), inside.unwrap_or(0.0));
                }
                ["rss", mb] => report.child_rss(mb.parse().unwrap_or(0.0)),
                _ => {}
            }
        }
        suites.push(suite);
        match &sentinel {
            None => sentinel = Some(exact),
            Some(first) if *first != exact => {
                report.fail(format!("cold pass {pass}: exact counts differ from pass 0"));
            }
            Some(_) => {}
        }
        pass += 1;
    }
    report.sentinel.extend(sentinel.unwrap_or_default());
    let model_cycles = report
        .sentinel
        .get("suite.model_cycles")
        .copied()
        .unwrap_or(0);

    let (p50, slowest) = kind_latencies(&lat_all);
    report.e2e("setup_s", median(&setups));
    report.e2e("latency_p50_ms", p50 * 1e3);
    report.e2e("latency_tail_ms", slowest * 1e3);
    let ops_per_suite = (all_kernels().len() * LEVELS.len()) as f64;
    report.e2e("throughput_per_s", ops_per_suite / median(&suites));
    report.e2e("model_cycles", model_cycles as f64);
    report.table("cold_suite_s", median(&suites), "s");
    report.table("suite_passes", suites.len() as f64, "count");
    report.overhead(&lat_untraced, &lat_traced);

    set_count_layers(report);
}

// ---------------------------------------------------------------- warm --

/// One kernel ready to stream: compiled at `OPT_LEVEL_MAX` with one trace
/// per group.
struct Warm {
    kernel: CompiledKernel,
    widths: Vec<usize>,
    plan: LoadPlan,
    traces: Vec<CompiledTrace>,
}

fn warm_setup(
    t: &mut Tracer,
    cfg: &ArchConfig,
    counts: &mut BTreeMap<String, u64>,
) -> (Vec<Warm>, SlabMachine) {
    let mut prepared = Vec::new();
    for (i, k) in all_kernels().iter().enumerate() {
        let kernel = compile_lmax(t, k);
        let stream = t.span("isa.lower", || hyperap_isa::lower(kernel.program()));
        let streams = vec![stream; cfg.groups];
        let traces = t.span("arch.compile_streams", || compile_streams(&streams, cfg));
        kernel_counts(counts, &format!("k{i}"), &kernel, &streams[0], &traces);
        prepared.push(Warm {
            widths: kernel.dfg.input_widths.clone(),
            plan: LoadPlan::new(&kernel),
            kernel,
            traces,
        });
    }
    let m = t.span("arch.slab_new", || SlabMachine::new(cfg.clone()));
    (prepared, m)
}

/// `kernels_warm`: full-machine batches of rotating, already-compiled
/// kernels through load → run → readback.
pub fn run_warm(args: &Args, report: &mut Report) {
    let cfg = machine_config(16, 256);
    let (pes, rows) = (cfg.total_pes(), cfg.rows);
    let mut t = Tracer::new(false);
    let mut setups = Vec::new();
    let mut ready = None;
    for i in 0..WARM_SETUPS {
        // Only the last set-up is traced and kept.
        t.set_on(args.trace && i + 1 == WARM_SETUPS);
        drop(ready.take());
        t.begin("setup");
        let start = Instant::now();
        let r = warm_setup(&mut t, &cfg, &mut report.sentinel);
        setups.push(start.elapsed().as_secs_f64());
        t.end();
        ready = Some(r);
    }
    let (kernels, mut m) = ready.expect("at least one set-up");
    let all = all_kernels();

    let window = Instant::now();
    let (mut lat, mut lat_traced, mut lat_untraced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut elements, mut busy) = (0u64, 0.0f64);
    let mut rotation = vec![None; kernels.len()];
    let (mut inputs, mut want, mut got) = (Vec::new(), Vec::new(), Vec::new());
    let mut batch = 0usize;
    // Whole rotations; a traced run needs an untraced and a traced one.
    let min_batches = kernels.len() * if args.trace { 2 } else { 1 };
    while batch < min_batches
        || !batch.is_multiple_of(kernels.len())
        || window.elapsed().as_secs_f64() < args.seconds
    {
        let ki = batch % kernels.len();
        let w = &kernels[ki];
        gen_inputs(&w.widths, pes * rows, args.seed ^ (batch as u64) << 20, &mut inputs);
        expected(&all[ki], &inputs, w.widths.len(), &mut want);
        // Alternate traced and untraced rotations to measure the overhead.
        let traced = args.trace && (batch / kernels.len()) % 2 == 1;
        t.set_on(traced);
        let start = Instant::now();
        t.begin("op");
        t.span("arch.slab_new", || m.scrub());
        let cells = t.span("arch.load", || w.plan.load(&mut m, pes, rows, &inputs));
        let stats = t.span("arch.run", || m.try_run_compiled(&w.traces));
        t.span("arch.readback", || readback(&m, &w.kernel, pes, rows, &mut got));
        t.end();
        let s = start.elapsed().as_secs_f64();
        let kind = all[ki].name.to_string();
        lat.push((kind.clone(), s));
        if traced {
            lat_traced.push((kind, s));
            report.add_layer("arch.load_cells", cells as f64);
            let insts: usize = w.traces.iter().map(CompiledTrace::instruction_count).sum();
            report.add_layer("arch.sim_insts", insts as f64);
        } else {
            lat_untraced.push((kind, s));
        }
        report.attempted += 1;
        let makespan = stats.as_ref().map(|s| s.makespan()).ok();
        if stats.is_err() || got != want {
            report.fail(format!(
                "warm batch {batch} ({}): outputs differ",
                all[ki].name
            ));
        } else {
            elements += (pes * rows) as u64;
            busy += s;
        }
        match rotation[ki] {
            None => rotation[ki] = makespan,
            Some(first) if Some(first) != makespan => {
                report.fail(format!("warm batch {batch}: makespan drifted"));
            }
            Some(_) => {}
        }
        batch += 1;
    }
    let model_cycles: u64 = rotation.iter().map(|c| c.unwrap_or(0)).sum();
    report.exact("rotation.model_cycles", model_cycles);
    let (p50, slowest) = kind_latencies(&lat);
    report.e2e("setup_s", median(&setups));
    report.e2e("latency_p50_ms", p50 * 1e3);
    report.e2e("latency_tail_ms", slowest * 1e3);
    report.e2e("throughput_per_s", elements as f64 / busy);
    report.e2e("model_cycles", model_cycles as f64);
    report.table("warm_elements_per_s", elements as f64 / busy, "elem/s");
    report.table("batches", batch as f64, "count");
    report.overhead(&lat_untraced, &lat_traced);
    report.absorb_tracer(&t);
    set_count_layers(report);
    report.peak_rss();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_inputs_fit_their_widths() {
        let (mut v, mut again) = (Vec::new(), vec![1, 2]);
        gen_inputs(&[1, 7, 13], 100, 5, &mut v);
        gen_inputs(&[1, 7, 13], 100, 5, &mut again);
        for t in v.chunks(3) {
            assert!(t[0] < 2 && t[1] < 128 && t[2] < 8192);
        }
        assert_eq!(v, again);
    }
}

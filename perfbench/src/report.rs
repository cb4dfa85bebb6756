//! Results of one run: the declared metrics, the failure count, the exact
//! counts the drift sentinel compares, and the printed report.

use std::collections::BTreeMap;

use crate::trace::Tracer;

/// End-to-end metrics, printed by every run with `--trace 0`. Must match
/// `end_to_end` in BENCHMARK.json.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_ratio", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("model_cycles", "cycles"),
];

/// Per-layer metrics, printed by every run with `--trace 1` (zero where a
/// workload leaves the layer idle). Must match `per_layer` in
/// BENCHMARK.json.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compiler.parse_s", "s"),
    ("compiler.sema_s", "s"),
    ("compiler.fold_s", "s"),
    ("compiler.compile_l0_s", "s"),
    ("compiler.compile_lmax_s", "s"),
    ("compiler.codegen_s", "s"),
    ("compiler.counted_ops", "count"),
    ("compiler.columns", "count"),
    ("isa.lower_s", "s"),
    ("isa.stream_insts", "count"),
    ("arch.compile_streams_s", "s"),
    ("arch.trace_segments", "count"),
    ("arch.trace_syncs", "count"),
    ("arch.slab_new_s", "s"),
    ("arch.load_s", "s"),
    ("arch.load_cells", "count"),
    ("arch.run_s", "s"),
    ("arch.sim_insts_per_s", "1/s"),
    ("arch.readback_s", "s"),
    ("arch.topk_s", "s"),
    ("arch.sim_rounds", "count"),
    ("arch.sim_accums", "count"),
    ("ckpt.commit_s", "s"),
    ("ckpt.bytes_written", "bytes"),
    ("ckpt.chunks_written", "count"),
    ("ckpt.dirty_hit_rate", "ratio"),
    ("ckpt.resume_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.inflight_s", "s"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.batch_size_mean", "count"),
    ("serve.sweeps", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.queue_full", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("trace.unexplained_s", "s"),
    ("trace.op_explained", "ratio"),
    ("trace.setup_explained", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Span names recorded around layer calls, and the layer each belongs to.
/// A span's self time is reported as `<span>_s`.
pub const LAYER_SPANS: &[(&str, &str)] = &[
    ("compiler.parse", "compiler"),
    ("compiler.sema", "compiler"),
    ("compiler.fold", "compiler"),
    ("compiler.compile_l0", "compiler"),
    ("compiler.compile_lmax", "compiler"),
    ("isa.lower", "isa"),
    ("arch.compile_streams", "arch.trace"),
    ("arch.slab_new", "arch.slab"),
    ("arch.load", "arch.slab"),
    ("arch.run", "arch.slab"),
    ("arch.readback", "arch.slab"),
    ("arch.topk", "arch.similarity"),
    ("ckpt.commit", "ckpt"),
    ("ckpt.resume", "ckpt"),
    ("serve.submit", "serve"),
    ("serve.inflight", "serve"),
];

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a wrong output, a refused or failed job, or
    /// a restore mismatch.
    pub failed: u64,
    notes: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<String, f64>,
    table: Vec<(String, f64, &'static str)>,
    /// Exact counts over fixed work; must repeat for the same seed.
    pub sentinel: BTreeMap<String, u64>,
    coverage: BTreeMap<&'static str, (f64, f64)>,
    overhead: Option<f64>,
    child_rss_mb: f64,
}

impl Report {
    /// Count one failed operation and say why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    /// Keep a message for the printed report (the first few only).
    pub fn note(&mut self, why: String) {
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }

    /// Set an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    /// Add a row to the printed table (metrics named as in the benchmark's
    /// README, not gated).
    pub fn table(&mut self, name: &str, value: f64, unit: &'static str) {
        self.table.push((name.to_string(), value, unit));
    }

    /// Record an exact count for the drift sentinel.
    pub fn exact(&mut self, key: &str, value: u64) {
        self.sentinel.insert(key.to_string(), value);
    }

    /// Add to a per-layer metric.
    pub fn add_layer(&mut self, name: &str, value: f64) {
        *self.layer.entry(name.to_string()).or_default() += value;
    }

    /// Set a per-layer metric.
    pub fn set_layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// Add a span's self time (seconds) under its `<span>_s` metric.
    pub fn add_span_time(&mut self, span: &str, seconds: f64) {
        if span == "op" {
            self.add_layer("trace.unexplained_s", seconds);
        } else if LAYER_SPANS.iter().any(|(s, _)| *s == span) {
            self.add_layer(&format!("{span}_s"), seconds);
        }
    }

    /// Add time under root spans named `root` (`op` or `setup`) and the
    /// part their layer spans cover.
    pub fn add_coverage(&mut self, root: &'static str, total: f64, inside: f64) {
        let c = self.coverage.entry(root).or_default();
        c.0 += total;
        c.1 += inside;
    }

    /// Fold a tracer's self times and coverage in.
    pub fn absorb_tracer(&mut self, t: &Tracer) {
        for (name, s) in t.self_times() {
            self.add_span_time(name, s);
        }
        for root in ["op", "setup"] {
            let (total, inside) = t.coverage(root);
            self.add_coverage(root, total, inside);
        }
    }

    /// Tracing overhead from operations of the same kind run untraced and
    /// traced: the traced per-kind mean latencies over the untraced ones.
    pub fn overhead(&mut self, untraced: &[(String, f64)], traced: &[(String, f64)]) {
        let (u, t) = (kind_sums(untraced), kind_sums(traced));
        let (mut su, mut st) = (0.0, 0.0);
        for (k, (ts, tn)) in &t {
            if let Some((us, un)) = u.get(k) {
                su += us / un;
                st += ts / tn;
            }
        }
        if su > 0.0 {
            self.overhead = Some(100.0 * (st / su - 1.0));
        }
    }

    /// Memory high-water mark of a child process (MB).
    pub fn child_rss(&mut self, mb: f64) {
        self.child_rss_mb = self.child_rss_mb.max(mb);
    }

    /// Record this process's memory high-water mark (and any child's).
    pub fn peak_rss(&mut self) {
        self.e2e("peak_rss_mb", vm_hwm_mb().max(self.child_rss_mb));
    }

    /// Print the human-readable report, then the one-line JSON result.
    pub fn finish(mut self, trace: bool) {
        self.peak_rss();
        let attempted = self.attempted.max(1);
        let verified = (attempted - self.failed.min(attempted)) as f64 / attempted as f64;
        self.e2e("verified_ratio", verified);
        if let Some(o) = self.overhead {
            self.set_layer("trace.overhead_pct", o);
        }
        for (root, metric) in [
            ("op", "trace.op_explained"),
            ("setup", "trace.setup_explained"),
        ] {
            if let Some(&(total, inside)) = self.coverage.get(root) {
                if total > 0.0 {
                    self.set_layer(metric, inside / total);
                }
            }
        }
        // Compile time outside the separately probed front-end stages.
        let l = |k: &str| self.layer.get(k).copied().unwrap_or(0.0);
        let codegen = l("compiler.compile_l0_s") + l("compiler.compile_lmax_s")
            - l("compiler.parse_s")
            - l("compiler.sema_s")
            - l("compiler.fold_s");
        let sim_ips = if l("arch.run_s") > 0.0 {
            l("arch.sim_insts") / l("arch.run_s")
        } else {
            0.0
        };
        self.set_layer("compiler.codegen_s", codegen.max(0.0));
        self.set_layer("arch.sim_insts_per_s", sim_ips);

        for note in &self.notes {
            println!("note: {note}");
        }
        println!("{:<28} {:>16} unit", "end to end", "value");
        for (name, unit) in END_TO_END {
            println!(
                "{name:<28} {:>16.6} {unit}",
                self.e2e.get(name).copied().unwrap_or(0.0)
            );
        }
        for (name, v, unit) in &self.table {
            println!("{name:<28} {v:>16.6} {unit}");
        }
        if trace {
            self.print_layers();
        }

        let metrics: Vec<(&str, &str, f64)> = if trace {
            PER_LAYER
                .iter()
                .map(|(n, u)| (*n, *u, self.layer.get(*n).copied().unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (*n, *u, self.e2e.get(n).copied().unwrap_or(0.0)))
                .collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, u, v)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }

    /// Layer self times, their share of operation time, what no layer
    /// explains, and the tracing overhead.
    fn print_layers(&self) {
        let op = self
            .layer
            .get("trace.unexplained_s")
            .copied()
            .unwrap_or(0.0);
        let (total, inside) = self.coverage.get("op").copied().unwrap_or_default();
        println!("layer self time (traced operations and set-up)");
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (span, layer) in LAYER_SPANS {
            *by_layer.entry(layer).or_default() +=
                self.layer.get(&format!("{span}_s")).copied().unwrap_or(0.0);
        }
        for (layer, s) in &by_layer {
            println!("  {layer:<18} {s:>12.6} s");
        }
        if total > 0.0 {
            println!(
                "  operations: {total:.6} s traced, layers explain {:.1}%, unexplained {:.1}% \
                 ({op:.6} s outside any layer call){}",
                100.0 * inside / total,
                100.0 * (1.0 - inside / total),
                if inside / total < 0.9 {
                    " -- below the 90% target"
                } else {
                    ""
                }
            );
        }
        if let Some(o) = self.overhead {
            println!("  tracing overhead: {o:+.2}% on matched operations");
        }
        println!("{:<28} {:>16} unit", "per layer", "value");
        for (name, unit) in PER_LAYER {
            println!(
                "{name:<28} {:>16.6} {unit}",
                self.layer.get(*name).copied().unwrap_or(0.0)
            );
        }
    }
}

/// Per-kind (sum, count) of latencies.
fn kind_sums(v: &[(String, f64)]) -> BTreeMap<&str, (f64, f64)> {
    let mut m: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (k, s) in v {
        let e = m.entry(k.as_str()).or_default();
        e.0 += s;
        e.1 += 1.0;
    }
    m
}

/// A JSON number with all its digits (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Value at quantile `q` of an ascending slice (nearest rank).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i]
}

/// Median of unsorted values (the mean of the middle two for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Process memory high-water mark (`VmHWM`) in MB; 0 where unavailable.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

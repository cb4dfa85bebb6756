//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end on one monotonic clock, and the span
//! that caused it.
//! Spans are recorded only from this package: each one wraps one call into
//! a layer's public API, and each workload operation gets a root span whose
//! children are those layer calls. A layer's self time is its span's
//! duration minus the part its child spans cover.
//!
//! When tracing is off every method returns after one branch and no span
//! is stored, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or operation name, e.g. `arch.load` or `op`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only while `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off (between operations, never inside one).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Nanoseconds since the tracer's epoch for `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one (a root span, for a
    /// workload operation, when none is open).
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Record a finished interval that was timed elsewhere (e.g. a serve
    /// job, from when it was due until it completed). `parent` is the index
    /// returned by an earlier `record`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Self time per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            *out.entry(s.name).or_default() += s.duration_ns().saturating_sub(*c) as f64 * 1e-9;
        }
        out
    }

    /// For root spans named `root`: (total duration, duration covered by
    /// their direct children), in seconds.
    pub fn coverage(&self, root: &str) -> (f64, f64) {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        let (mut total, mut inside) = (0u64, 0u64);
        for (s, c) in self.spans.iter().zip(&covered) {
            if s.name == root && s.parent.is_none() {
                total += s.duration_ns();
                inside += (*c).min(s.duration_ns());
            }
        }
        (total as f64 * 1e-9, inside as f64 * 1e-9)
    }
}

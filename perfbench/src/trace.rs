//! In-memory spans for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions
//! in spans; nothing inside the program is instrumented. Spans stay in
//! memory while the workload runs and are written out once, at the end.

use serde::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call: its name, the operation (request, sweep) it belongs
/// to, the span that caused it, and its interval relative to the
/// tracer's epoch.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Span recorder; only traced runs create one.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            // lint: allow(determinism): span timestamps are the trace itself, never model output
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of `parent`, and
    /// returns its result with the span's index (for children).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        (out, self.spans.len() - 1)
    }

    /// Opens a span whose end is set later with [`Self::close`] (for
    /// spans whose body borrows the tracer itself).
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Duration of span `id`, in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end - s.start).as_secs_f64()
    }

    /// Records an interval measured elsewhere (a client thread, the
    /// server's own `x-mlscale-micros` header) as a span.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        len: Duration,
    ) -> usize {
        let start = start.saturating_duration_since(self.epoch);
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: start + len,
        });
        self.spans.len() - 1
    }

    /// Per-operation totals of the spans named `name`, in seconds: one
    /// entry per operation that has at least one such span.
    pub fn per_op_seconds(&self, name: &str) -> Vec<f64> {
        let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(s.op).or_default() += (s.end - s.start).as_secs_f64();
        }
        totals.into_values().collect()
    }

    /// Writes every span as one NDJSON line (`id`, `parent`, `op`,
    /// `name`, `start_us`, `dur_us`) through a temp file and a rename.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::Map(vec![
                ("id".to_string(), Value::U64(id as u64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                ),
                ("op".to_string(), Value::U64(s.op)),
                ("name".to_string(), Value::Str(s.name.to_string())),
                (
                    "start_us".to_string(),
                    Value::F64(s.start.as_secs_f64() * 1e6),
                ),
                (
                    "dur_us".to_string(),
                    Value::F64((s.end - s.start).as_secs_f64() * 1e6),
                ),
            ]);
            text.push_str(&serde_json::to_string(&line).map_err(std::io::Error::other)?);
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("ndjson.tmp");
        // lint: allow(atomic-results-io): this is the temp-file half of the rename pattern
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}

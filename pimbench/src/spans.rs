//! Host-clock spans the benchmark records around each call it makes into
//! a layer. Spans stay in memory and are exported once, at the end of
//! the traced run, through `bbpim-trace`'s Perfetto and JSONL writers.

use std::time::Instant;

use bbpim_trace::export::{jsonl, perfetto_json};
use bbpim_trace::{ArgValue, TraceRecorder};

/// One host-clock span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`sched.run_stream`, `core.run_on_shard`…).
    pub name: &'static str,
    /// Start, host nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, host nanoseconds since the log was created.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Request id (the query id or mutation label), if any.
    pub req: Option<String>,
}

/// An in-memory span log with a stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { base: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl SpanLog {
    /// Open a span under the innermost open span; returns its id.
    pub fn open(&mut self, name: &'static str, req: Option<&str>) -> usize {
        let now = self.base.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            req: req.map(str::to_string),
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span opened inside it and left open).
    pub fn close(&mut self, id: usize) {
        let now = self.base.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum::<u64>()
            as f64
            / 1e9
    }

    /// Self time of spans named `name`, seconds: their length minus the
    /// time their direct children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for c in &self.spans {
            if let Some(p) = c.parent {
                covered[p] += c.end_ns - c.start_ns;
            }
        }
        let total: u64 = self
            .spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .sum();
        total as f64 / 1e9
    }

    /// The spans as a `bbpim-trace` recording: one track per layer, the
    /// host clock in place of the simulated one, span id, parent and
    /// request id as arguments.
    pub fn to_recorder(&self) -> TraceRecorder {
        let mut rec = TraceRecorder::enabled();
        for (id, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let track = rec.track(layer);
            let mut args = vec![("span", ArgValue::from(id))];
            if let Some(p) = s.parent {
                args.push(("parent", ArgValue::from(p)));
            }
            if let Some(r) = &s.req {
                args.push(("req", ArgValue::from(r.as_str())));
            }
            rec.span(track, s.name, s.start_ns as f64, (s.end_ns - s.start_ns) as f64, args);
        }
        rec
    }

    /// Write the spans as Perfetto JSON to `path` and as JSONL next to it.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn export(&self, path: &std::path::Path) -> std::io::Result<()> {
        let rec = self.to_recorder();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, perfetto_json(&rec))?;
        std::fs::write(path.with_extension("jsonl"), jsonl(&rec))
    }
}

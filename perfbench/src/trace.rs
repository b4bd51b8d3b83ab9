//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call the benchmark makes into a layer's
//! public functions, and records its name, start, end, parent span and the
//! id of the request (or set-up step) it belongs to. Spans stay in memory
//! until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRef(usize);

struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals of the recorded spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, in nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times (duration minus the time their child spans
    /// cover), in nanoseconds.
    pub self_ns: u64,
}

/// The span store.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder; span times are nanoseconds since this call.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span starting now.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<SpanRef>) -> SpanRef {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanRef(self.spans.len() - 1)
    }

    /// Close a span now; returns its duration in nanoseconds.
    pub fn close(&mut self, span: SpanRef) -> u64 {
        let end_ns = self.now_ns();
        let s = &mut self.spans[span.0];
        s.end_ns = end_ns;
        end_ns - s.start_ns
    }

    /// Run `f` inside a span; returns its result and the span's duration
    /// in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanRef>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.open(name, id, parent);
        let out = f();
        let ns = self.close(span);
        (out, ns as f64 / 1e9)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end on one monotonic clock, the span that
//! caused it, and the document it belongs to. Spans stay in memory while
//! the traced pass runs and are written out once at the end, so tracing
//! adds no I/O to the timed work. A disabled tracer runs the same closures
//! without reading the clock, which is how the tracing overhead is
//! measured.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    doc: Option<u32>,
}

/// A span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span whose children are recorded before it closes; returns
    /// its id for [`Tracer::close`] and for the children's `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, doc: Option<u32>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            doc,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        doc: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, doc);
        let out = f();
        self.close(id);
        out
    }

    /// Total duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.totals_ns().get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    fn totals_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        totals
    }

    /// The spans as one JSON object, plus per-name totals and self times
    /// (a span's duration minus the part its children cover).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            *self_ns.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(*covered);
        }
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"totals_ns\":{{");
        for (i, (name, total)) in self.totals_ns().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"total\":{total},\"self\":{}}}",
                self_ns[name]
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let doc = s.doc.map_or("null".to_owned(), |d| d.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"doc\":{doc}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

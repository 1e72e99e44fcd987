//! In-memory span recorder: name, start, end, parent and trace id per span,
//! kept in a vector and written out once the traced run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Trace id: 0 for the engine replay, `1 + spec index` for a step
    /// replay of one episode.
    pub trace: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch (0 while open).
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Aggregated times of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    /// Spans recorded.
    pub count: u64,
    /// Σ span durations, ns.
    pub total_ns: u64,
    /// Σ span durations minus their children's, ns.
    pub self_ns: u64,
}

/// The recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    trace: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            trace: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the trace id new spans are recorded under.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    /// Opens a span under `parent` and returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent,
            start,
            end: 0,
        });
        id
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end = end;
        span.ns()
    }

    /// Times `f` as a span under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Span count, total time and self time (total minus the part covered
    /// by child spans) per span name, over the traces accepted by `keep`.
    pub fn times_by_name(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, Times> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                child[span.parent as usize] += span.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Times> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child) {
            if keep(span.trace) {
                let entry = out.entry(span.name).or_default();
                entry.count += 1;
                entry.total_ns += span.ns();
                entry.self_ns += span.ns().saturating_sub(covered);
            }
        }
        out
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.start, s.end
            )?;
        }
        Ok(())
    }
}

//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start and end (ns since the tracer was
//! made), the span that caused it and the request it belongs to. Spans
//! stay in memory while the run measures and are written out as JSON
//! lines once it ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer, `0` meaning "no parent".
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `client.retrieve`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// The causing span (1-based), or 0 for a root.
    pub parent: SpanId,
    /// Request the span belongs to (0 for work outside any request).
    pub request: u64,
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        self.spans.len() as SpanId
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span named `name`: its duration minus the
    /// time its direct children cover, in ns.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(child_ns[i + 1]) as f64
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("op", 0, 1);
        let child = t.begin("client.retrieve", root, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let own = t.self_times_ns("op")[0];
        let child_ns = t.self_times_ns("client.retrieve")[0];
        assert!(child_ns >= 2e6);
        assert!(
            own < child_ns,
            "root self time {own} ns vs child {child_ns} ns"
        );
        assert_eq!(t.spans()[1].parent, root);
    }
}

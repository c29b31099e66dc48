//! Harness-side spans: one per engine call or probe batch, kept in memory
//! and written as JSON lines when the run ends. Spans inside the program
//! are a later change; these bracket the calls into it.

use std::io::{BufWriter, Write};
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: SpanId,
    /// 0 for a root span.
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span that stays open until [`close`](Self::close) (roots and
    /// probe layers). Ids are 1-based positions in the span list.
    pub fn open(&mut self, parent: SpanId, name: &'static str) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize - 1].end_ns = self.ns(Instant::now());
    }

    /// Record a finished call from the two instants its caller already
    /// took for the latency sample, so tracing adds no clock reads to the
    /// timed interval.
    pub fn record(&mut self, parent: SpanId, name: &'static str, start: Instant, end: Instant) {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line: `{id, parent, name, start_ns, end_ns}`.
    pub fn write_jsonl(&self, sink: impl Write) -> std::io::Result<()> {
        let mut w = BufWriter::new(sink);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_root_and_serialise_one_per_line() {
        let mut t = Tracer::new();
        let root = t.open(0, "workload.x");
        let a = Instant::now();
        let b = Instant::now();
        t.record(root, "retrieve", a, b);
        t.close(root);
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, root);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let mut sink = Vec::new();
        t.write_jsonl(&mut sink).unwrap();
        let text = String::from_utf8(sink).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":1,\"parent\":0,\"name\":\"workload.x\""));
        assert!(lines[1].contains("\"parent\":1,\"name\":\"retrieve\""));
    }
}

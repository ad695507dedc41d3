//! In-memory spans recorded around calls into each layer's public entry
//! points, written out once the traced run ends. Nothing is recorded
//! inside the program itself.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    /// Unique within the log, starting at 1.
    id: u64,
    /// The enclosing span (`0` for a root).
    parent: u64,
    /// Layer the call enters (`kernel`, `ladder`, `engine`, ...).
    layer: &'static str,
    /// The entry point called.
    op: &'static str,
    /// Nanoseconds since the log was created.
    start_ns: u64,
    /// Nanoseconds since the log was created.
    end_ns: u64,
    /// Elements, pairs or lines the call covered.
    items: u64,
}

/// Spans kept in memory until [`SpanLog::write`]. Past `cap` spans only
/// the count of dropped ones grows, so a long run cannot exhaust memory.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
    cap: usize,
    dropped: u64,
}

impl SpanLog {
    /// An empty log holding at most `cap` spans.
    pub fn new(cap: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            cap,
            dropped: 0,
        }
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self) -> (u64, Instant) {
        let id = self.next_id;
        self.next_id += 1;
        (id, Instant::now())
    }

    /// Closes a span opened by [`SpanLog::begin`] and returns its duration
    /// in seconds.
    pub fn end(
        &mut self,
        opened: (u64, Instant),
        parent: u64,
        layer: &'static str,
        op: &'static str,
        items: u64,
    ) -> f64 {
        let end = Instant::now();
        let (id, start) = opened;
        let secs = end.duration_since(start).as_secs_f64();
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                id,
                parent,
                layer,
                op,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                items,
            });
        } else {
            self.dropped += 1;
        }
        secs
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        parent: u64,
        layer: &'static str,
        op: &'static str,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let opened = self.begin();
        let out = f();
        let secs = self.end(opened, parent, layer, op, items);
        (out, secs)
    }

    /// Writes one JSON object per span (plus a trailing summary line) to
    /// `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.id, s.parent, s.layer, s.op, s.start_ns, s.end_ns, s.items
            )?;
        }
        writeln!(
            out,
            "{{\"spans\":{},\"dropped\":{}}}",
            self.spans.len(),
            self.dropped
        )?;
        out.flush()
    }
}

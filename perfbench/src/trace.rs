//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer; the program's own phase timers (from `BatchMetrics`) attach as
//! children of the call that reported them. Nothing is written until
//! [`Tracer::write_jsonl`] runs at the end of the benchmark.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Shared by every span one batch causes, across layers.
    pub batch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, batch: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        batch: u64,
        f: impl FnOnce() -> R,
    ) -> (SpanId, R) {
        let id = self.begin(name, parent, batch);
        let out = f();
        self.end(id);
        (id, out)
    }

    /// Attaches a timer the program measured itself as a child of
    /// `parent`. Only its duration is known, so it is laid out `offset`
    /// after the parent's start; self-time arithmetic needs nothing more.
    pub fn attach(&mut self, name: &'static str, parent: SpanId, offset: Duration, took: Duration) {
        let p = &self.spans[parent];
        let start_ns = (p.start_ns + offset.as_nanos() as u64).min(p.end_ns);
        let end_ns = (start_ns + took.as_nanos() as u64).min(p.end_ns);
        let batch = p.batch;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            batch,
        });
    }

    /// Records a span measured elsewhere (for example on a client
    /// thread) from its start and end instants.
    pub fn record(&mut self, name: &'static str, batch: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            batch,
        });
    }

    pub fn duration(&self, id: SpanId) -> Duration {
        Duration::from_nanos(self.spans[id].duration_ns())
    }

    /// Per span name: (count, total duration, total self time). Self
    /// time is a span's duration minus its children's.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += Duration::from_nanos(s.duration_ns());
            e.2 += Duration::from_nanos(s.duration_ns().saturating_sub(child_ns[i]));
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
                s.name, s.start_ns, s.end_ns, s.batch
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let (root, ()) = t.span("root", None, 7, || {
            std::thread::sleep(Duration::from_millis(3))
        });
        t.attach("child", root, Duration::ZERO, Duration::from_millis(1));
        let s = t.summary();
        let (n, total, own) = s["root"];
        assert_eq!(n, 1);
        assert_eq!(total - own, Duration::from_millis(1));
        assert_eq!(s["child"].0, 1);
        assert_eq!(s["child"].1, s["child"].2, "a leaf's self time is its span");
    }
}

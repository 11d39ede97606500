//! In-memory spans for the traced run.
//!
//! A span records a name, start and end (ns since the tracer's epoch), the
//! span that encloses it and the timed unit it belongs to.  Spans are only
//! kept in memory while the run measures and are written out once at the
//! end.  A layer's self time is its spans' durations minus the part of each
//! covered by child spans; children are always properly nested because
//! every span is opened and closed on the one thread that runs the traced
//! path.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The name of the span that encloses one timed unit.
pub const UNIT: &str = "unit";

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (or [`UNIT`]) name.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The timed unit this span belongs to.
    pub unit: usize,
}

/// Total self time and span count of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Sum of self times, ns.
    pub ns: u64,
    /// Number of spans.
    pub count: u64,
}

impl SelfTime {
    /// Self time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), unit: 0 }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, unit: self.unit });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now();
        result
    }

    /// Runs `f` as timed unit number `unit`, inside a [`UNIT`] span.
    pub fn unit<R>(&mut self, unit: usize, f: impl FnOnce(&mut Tracer) -> R) -> R {
        assert!(self.open.is_empty(), "units do not nest");
        self.unit = unit;
        self.span(UNIT, f)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name (the [`UNIT`] entry is the time no layer
    /// span covers).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.ns += (span.end_ns - span.start_ns).saturating_sub(children);
            entry.count += 1;
        }
        totals
    }

    /// Total duration of the [`UNIT`] spans, ns.
    pub fn unit_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.name == UNIT).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                span.name, span.start_ns, span.end_ns, span.unit
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u128) {
        let start = Instant::now();
        while start.elapsed().as_nanos() < ns {}
    }

    #[test]
    fn self_time_excludes_children_and_units_cover_layers() {
        let mut t = Tracer::default();
        t.unit(3, |t| {
            t.span("outer", |t| {
                spin(2_000_000);
                t.span("inner", |_| spin(3_000_000));
            });
        });
        let times = t.self_times();
        let (outer, inner) = (times["outer"], times["inner"]);
        assert!(inner.ns >= 3_000_000 && outer.ns >= 2_000_000);
        assert!(outer.ns < 3_000_000 + 2_000_000, "outer excludes its child");
        let covered = outer.ns + inner.ns + times[UNIT].ns;
        assert_eq!(covered, t.unit_ns());
        assert!(t.spans().iter().all(|s| s.unit == 3));
        assert_eq!(t.spans()[2].parent, Some(1));
    }
}

//! Spans owned by the benchmark: wall-clock intervals around calls into
//! the library's public functions. Nothing inside the library is touched;
//! a span covers exactly one public call (or a group of them) made from
//! this crate. A span's self time is its duration minus the time covered
//! by its direct children.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// A flat log of closed spans with parent links.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: usize,
    pub total: f64,
    pub self_time: f64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Totals and self times per span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total += s.end - s.start;
            a.self_time += (s.end - s.start) - child_time[i];
        }
        out
    }
}

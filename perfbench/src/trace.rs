//! In-memory spans around calls into each layer, and their self times.
//!
//! A span is a name, a start, an end and the span that caused it. Spans
//! nest by a stack on one thread, so children of a span never overlap
//! and never outlast it: a span's self time is its duration minus its
//! direct children's durations.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals of a recorded trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns).
    pub self_ns: u64,
}

/// A trace under construction; spans nest by a stack of open ones.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty trace whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time of every span, indexed like the spans themselves.
    fn self_times(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.end_ns - s.start_ns;
            }
        }
        out
    }

    /// Per-name counts, total durations and self times.
    pub fn summary(&self) -> BTreeMap<&'static str, Total> {
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() {
        let t = Instant::now();
        while t.elapsed().as_micros() < 50 {
            std::hint::black_box(t.elapsed());
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Spans::new();
        let root = t.enter("root");
        spin();
        let mid = t.enter("mid");
        spin();
        t.time("leaf_of_mid", spin);
        t.exit(mid);
        t.time("leaf_of_root", spin);
        t.time("leaf_of_root", spin);
        t.exit(root);
        let s = t.summary();
        assert_eq!(s["leaf_of_root"].count, 2);
        assert_eq!(s["leaf_of_root"].self_ns, s["leaf_of_root"].total_ns);
        assert_eq!(
            s["mid"].self_ns,
            s["mid"].total_ns - s["leaf_of_mid"].total_ns
        );
        // A grandchild is charged to its parent, not to root.
        assert_eq!(
            s["root"].self_ns,
            s["root"].total_ns - s["mid"].total_ns - s["leaf_of_root"].total_ns
        );
        // Self times partition the root's duration.
        let total: u64 = s.values().map(|v| v.self_ns).sum();
        assert_eq!(total, s["root"].total_ns);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_close_innermost_first() {
        let mut t = Spans::new();
        let outer = t.enter("outer");
        t.enter("inner");
        t.exit(outer);
    }
}

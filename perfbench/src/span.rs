//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and op id on the host
//! clock. Spans stay in memory and are written out once, when the run
//! ends. A disabled tracer reads no clock and records nothing, which is
//! how the end-to-end runs execute.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle of an open span; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Stamps the op id on every span opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, span: Open) {
        if let Some(id) = span.0 {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
            self.open.retain(|&o| o != id);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name);
        let out = f();
        self.exit(s);
        out
    }

    /// Number of open spans; [`close_to`](Self::close_to) restores it.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Ends every span opened beyond `depth` (an op that panicked leaves
    /// its spans open).
    pub fn close_to(&mut self, depth: usize) {
        let end = self.now_ns();
        while self.open.len() > depth {
            if let Some(id) = self.open.pop() {
                self.spans[id].end_ns = end;
            }
        }
    }

    /// Wall durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer");
        tr.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.exit(outer);
        let total = tr.durations_ms("outer")[0];
        let inner = tr.durations_ms("inner")[0];
        assert!(inner >= 5.0 && total >= inner);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[1].op, tr.spans[0].op);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.span("x", || ());
        assert!(tr.durations_ms("x").is_empty());
        assert_eq!(tr.to_json(), "[\n]\n");
    }

    #[test]
    fn close_to_ends_spans_left_open() {
        let mut tr = Tracer::new(true);
        let _leaked = tr.enter("op");
        tr.close_to(0);
        assert_eq!(tr.depth(), 0);
        assert_eq!(tr.durations_ms("op").len(), 1);
    }
}

//! In-memory spans recorded around the calls into each layer, written out
//! once when a traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    call: Option<u64>,
    threads: Option<usize>,
}

/// A span recorder; when disabled it records nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span. `call` and `threads` label the spans of one call.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        call: Option<u64>,
        threads: Option<usize>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
            call,
            threads,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Spans::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Record a finished interval measured by the caller.
    pub fn record(&mut self, name: &str, parent: Option<SpanId>, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            call: None,
            threads: None,
        });
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"call\": {}, \"threads\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.call),
                opt(s.threads.map(|t| t as u64)),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_disabled_recorder() {
        let mut spans = Spans::new(true);
        let root = spans.open("workload", None, None, None);
        let call = spans.open("call", root, Some(0), Some(2));
        spans.close(call);
        spans.close(root);
        let json = spans.to_json();
        assert!(
            json.contains("\"parent\": 0, \"call\": 0, \"threads\": 2"),
            "{json}"
        );

        let mut off = Spans::new(false);
        assert_eq!(off.open("workload", None, None, None), None);
        assert_eq!(off.to_json(), "[\n]");
    }
}

//! The benchmark's own span recorder.
//!
//! Spans are taken from the benchmark's files, around calls into each
//! layer's public functions; spans inside the program are a later change.
//! A span is a name, a start, an end, the span that caused it, and the id
//! of the operation it belongs to. Spans stay in memory and are written
//! as chrome-trace JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span plus one; 0 for a root.
    parent: u32,
    op: u64,
}

/// An open span. Always carries its start, so the caller gets the
/// duration back from [`Spans::exit`] whether or not spans are recorded.
pub struct Token {
    slot: Option<u32>,
    start: Instant,
}

pub struct Spans {
    /// Whether `enter` records. Toggled per block in a traced run so the
    /// same loop yields the traced and the untraced rate.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> Token {
        let start = Instant::now();
        let slot = self.on.then(|| {
            let slot = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().map_or(0, |p| p + 1),
                op,
            });
            self.open.push(slot);
            slot
        });
        Token { slot, start }
    }

    /// Close a span; returns its duration in microseconds.
    pub fn exit(&mut self, token: Token) -> f64 {
        let elapsed = token.start.elapsed();
        if let Some(slot) = token.slot {
            let start_ns = self.spans[slot as usize].start_ns;
            self.spans[slot as usize].end_ns = start_ns + elapsed.as_nanos() as u64;
            // Spans close in stack order; a span left open by an early
            // return is closed with its parent.
            while let Some(top) = self.open.pop() {
                if top == slot {
                    break;
                }
            }
        }
        elapsed.as_secs_f64() * 1e6
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: count, total and self time in microseconds. A span's
    /// self time is its duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent > 0 {
                child_ns[span.parent as usize - 1] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut rows = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let total = span.end_ns.saturating_sub(span.start_ns);
            let row = rows.entry(span.name).or_insert((0, 0.0, 0.0));
            row.0 += 1;
            row.1 += total as f64 / 1e3;
            row.2 += total.saturating_sub(*children) as f64 / 1e3;
        }
        rows
    }

    /// The spans as chrome://tracing "complete" events.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 32);
        out.push_str("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
                i + 1,
                span.parent,
                span.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut spans = Spans::new();
        let t = spans.enter("ignored", 0);
        assert!(spans.exit(t) >= 0.0);
        assert_eq!(spans.len(), 0);

        spans.on = true;
        let outer = spans.enter("outer", 7);
        let inner = spans.enter("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.exit(inner);
        spans.exit(outer);
        let rows = spans.self_times();
        let (outer_row, inner_row) = (rows["outer"], rows["inner"]);
        assert!(inner_row.1 >= 2000.0);
        assert!(outer_row.2 <= outer_row.1 - inner_row.1 + 1.0);
        assert!(spans.to_chrome_json().contains("\"parent\":1"));
    }
}

//! The benchmark's own spans, recorded around each public layer call.
//!
//! Spans are kept in memory and written out as JSONL when the run ends.
//! The benchmark drives the program from one thread, so the children of a
//! span never overlap and a span's self time is its duration minus the sum
//! of its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// The op (or set-up step) the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Self and total seconds of all spans of one name.
#[derive(Default, Clone, Copy)]
pub struct Usage {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// An in-memory span recorder. A disabled recorder only runs the closures.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Close every open span (after an op failed part-way).
    pub fn close_all(&mut self) {
        while let Some(&id) = self.open.last() {
            self.close(Some(id));
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one; `None` when disabled.
    pub fn open(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        self.spans[id].end_ns = self.now_ns();
        if let Some(pos) = self.open.iter().rposition(|&s| s == id) {
            self.open.truncate(pos);
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, op);
        let r = f();
        self.close(id);
        r
    }

    /// Per-name count, total and self seconds, by name.
    pub fn usage(&self) -> BTreeMap<&'static str, Usage> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, Usage> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_s) {
            let u = out.entry(s.name).or_default();
            u.count += 1;
            u.total_s += s.secs();
            u.self_s += (s.secs() - c).max(0.0);
        }
        out
    }

    /// The spans as JSONL: one object per span, in opening order.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// The self-time table, one row per span name.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<18} {:>7} {:>12} {:>12}\n",
            "span", "count", "total_s", "self_s"
        );
        for (name, u) in self.usage() {
            let _ = writeln!(
                out,
                "{name:<18} {:>7} {:>12.6} {:>12.6}",
                u.count, u.total_s, u.self_s
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        let op = s.open("op", 1);
        s.span("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        s.close(op);
        let u = s.usage();
        let (op, child) = (u["op"], u["child"]);
        assert!(child.total_s >= 0.02);
        assert!(op.total_s >= child.total_s);
        assert!(
            op.self_s < op.total_s - 0.015,
            "{} {}",
            op.self_s,
            op.total_s
        );
        assert_eq!(s.jsonl().lines().count(), 2);
        assert!(s.jsonl().contains(r#""name":"child","op":1,"parent":0"#));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.span("x", 1, || 7), 7);
        assert!(s.usage().is_empty());
    }
}

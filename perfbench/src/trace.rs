//! Benchmark-side spans around the calls into each layer.
//!
//! A span records its name, start, end, parent and the run id, plus the
//! allocations made inside it. Spans are kept in memory and written out
//! once the run ends. A layer's self time is its span's duration minus
//! the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Allocations made inside the span, children included.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (or of nothing, while recording is off).
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open(Option<(usize, alloc::Snapshot)>);

/// Span recorder. While disabled, `enter`/`exit` record nothing and
/// allocation counting is off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run_id: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer for run `run_id`, recording iff `on`.
    pub fn new(on: bool, run_id: u64) -> Self {
        alloc::set_counting(on);
        Self {
            on,
            epoch: Instant::now(),
            run_id,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording (and allocation counting) on or off. Spans open
    /// across the switch still close normally.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        alloc::set_counting(on);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            allocs: 0,
            bytes: 0,
        });
        self.stack.push(idx);
        Open(Some((idx, alloc::Snapshot::now())))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn exit(&mut self, span: Open) {
        let Some((idx, at_entry)) = span.0 else {
            return;
        };
        let counted = alloc::Snapshot::now().since(at_entry);
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(idx), "spans close innermost first");
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.allocs = counted.allocs;
        s.bytes = counted.bytes;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span, in opening order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_ns();
            }
        }
        own
    }

    /// Total self time per span name, in ms.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Self times (ms) of every span named `name`, in opening order.
    pub fn self_ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, own)| own as f64 / 1e6)
            .collect()
    }

    /// Allocations made inside spans named `name`, children included.
    pub fn allocs_of(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.allocs)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"allocs\":{},\"bytes\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns, parent, s.allocs, s.bytes
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        let s = t.enter("a");
        t.exit(s);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 1);
        let root = t.enter("root");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let own = t.self_ns();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(own[0] + own[1], spans[0].duration_ns());
        assert!(own[1] >= 2_000_000);
    }
}

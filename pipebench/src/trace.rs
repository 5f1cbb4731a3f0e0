//! Spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] times every call it wraps (the untraced numbers need the
//! time anyway) and, while switched on, also keeps a [`Span`] with its
//! parent and the pass or request it belongs to. Spans stay in memory
//! until the run ends; [`self_times`] then reduces them to each layer's
//! self time: its spans' durations minus the part their child spans
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `session.run`.
    pub name: &'static str,
    /// The pass, batch or request the call belongs to.
    pub id: u64,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
}

/// A handle to an open span; `None` while tracing is off.
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder for one thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `origin`; records spans only while on.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off between passes (never inside one).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "switch tracing between passes");
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            id,
            start,
            end: start,
            parent: self.stack.last().copied(),
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes the span `open` names (spans close innermost first).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = self.origin.elapsed().as_secs_f64();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span and returns its result with its wall
    /// clock in seconds, whether or not tracing is on.
    pub fn timed<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name, id);
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(open);
        (r, secs)
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: usize,
    /// Sum of their durations, seconds.
    pub total: f64,
    /// Sum of their durations minus their children's, seconds.
    pub own: f64,
}

/// Reduces spans to per-name self times. Children of one span run one
/// after another on the parent's thread, so their durations add up.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(children) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.end - s.start;
        t.own += s.end - s.start - child;
    }
    out
}

/// Spans as one JSON document, `thread` naming the recording thread of
/// each set.
pub fn to_json(sets: &[(&str, &[Span])]) -> String {
    let mut s = String::from("{\"spans\":[");
    let mut first = true;
    for (thread, spans) in sets {
        for (i, sp) in spans.iter().enumerate() {
            if !first {
                s.push(',');
            }
            first = false;
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"thread\":\"{thread}\",\"index\":{i},\"name\":\"{}\",\"id\":{},\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                sp.name, sp.id, sp.start, sp.end
            );
        }
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: 0,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0, 10] ⊃ run [1, 5] ⊃ iter [2, 3]; pass ⊃ topk [6, 8].
        let spans = vec![
            span("pass", 0.0, 10.0, None),
            span("run", 1.0, 5.0, Some(0)),
            span("iter", 2.0, 3.0, Some(1)),
            span("topk", 6.0, 8.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"].own, 4.0);
        assert_eq!(t["pass"].total, 10.0);
        assert_eq!(t["run"].own, 3.0);
        assert_eq!(t["iter"].own, 1.0);
        assert_eq!(t["topk"].own, 2.0);
        // Self times partition the root's interval.
        let sum: f64 = t.values().map(|s| s.own).sum();
        assert_eq!(sum, 10.0);
    }

    #[test]
    fn self_times_aggregate_by_name() {
        let spans = vec![
            span("pass", 0.0, 4.0, None),
            span("topk", 1.0, 2.0, Some(0)),
            span("pass", 4.0, 9.0, None),
            span("topk", 5.0, 8.0, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["topk"].count, 2);
        assert_eq!(t["topk"].own, 4.0);
        assert_eq!(t["pass"].own, 5.0);
    }

    #[test]
    fn tracer_nests_and_stays_silent_when_off() {
        let mut tr = Tracer::new(true, Instant::now());
        let outer = tr.begin("pass", 7);
        let (x, secs) = tr.timed("layer.call", 7, || 41 + 1);
        tr.end(outer);
        assert_eq!(x, 42);
        assert!(secs >= 0.0);
        tr.set_on(false);
        let _ = tr.timed("layer.call", 8, || ());
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].id, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}

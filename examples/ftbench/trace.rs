//! The span recorder of the traced repeat.
//!
//! Spans are recorded by the benchmark around its calls into the crates'
//! public functions, on the thread that drives the run; the program itself
//! carries no spans. They live in a buffer sized once up front (a span
//! beyond its capacity is dropped and counted, never reallocated mid-run)
//! and are written out once, after the last measurement.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans one traced workload can record before they are dropped.
const SPAN_CAPACITY: usize = 1 << 14;

/// One timed interval: `name` is `<layer>.<what>`, `parent` the span that
/// was open when it started, `round` the server round it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: Option<usize>,
}

impl Span {
    /// The layer a span is charged to: its name up to the last `.`.
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }

    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    dropped: Cell<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(SPAN_CAPACITY)),
            open: RefCell::new(Vec::with_capacity(64)),
            dropped: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Returns `None` (and
    /// counts the drop) once the buffer is full.
    pub fn open(&self, name: &'static str, round: Option<usize>) -> Option<usize> {
        let mut spans = self.spans.borrow_mut();
        if spans.len() == spans.capacity() {
            self.dropped.set(self.dropped.get() + 1);
            return None;
        }
        let now = self.now_ns();
        let id = spans.len();
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.borrow().last().copied(),
            round,
        });
        self.open.borrow_mut().push(id);
        Some(id)
    }

    /// Closes `id` and anything still open inside it.
    pub fn close(&self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        let mut open = self.open.borrow_mut();
        let mut spans = self.spans.borrow_mut();
        while let Some(top) = open.pop() {
            spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Renames a span (the last per-round interval of a run holds only the
    /// final hook and evaluation, which is only known once the run ends).
    pub fn rename(&self, id: Option<usize>, name: &'static str) {
        if let Some(id) = id {
            self.spans.borrow_mut()[id].name = name;
        }
    }

    /// Times `f` as one span.
    pub fn span<R>(&self, name: &'static str, round: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, round);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    pub fn dropped(&self) -> usize {
        self.dropped.get()
    }
}

/// Milliseconds of every span named `name`, in recording order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children are clipped to the parent's interval and
/// overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, in milliseconds, over the spans below
/// `root` (`root` itself excluded: it is the measuring harness).
pub fn self_ms_by_layer(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let own = self_times_ns(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut up = s.parent;
        while let Some(p) = up {
            if p == root {
                *out.entry(s.layer()).or_insert(0.0) += own[i] as f64 / 1e6;
                break;
            }
            up = spans[p].parent;
        }
    }
    out
}

/// The `trace_<workload>.json` artefact (schema in the README).
pub fn to_json(workload: &str, seed: u64, threads: usize, tracer: &Tracer) -> String {
    let spans = tracer.spans();
    let own = self_times_ns(&spans);
    let mut out = String::with_capacity(spans.len() * 140 + 256);
    let _ = write!(
        out,
        "{{\"schema\":1,\"workload\":\"{workload}\",\"seed\":{seed},\"threads\":{threads},\
         \"clock\":\"ns since the tracer was created\",\"dropped_spans\":{},\"spans\":[",
        tracer.dropped()
    );
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = write!(
            out,
            "{}\n{{\"id\":{i},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"round\":{},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            if i == 0 { "" } else { "," },
            opt(s.parent),
            s.name,
            s.layer(),
            opt(s.round),
            s.start_ns,
            s.end_ns,
            own[i]
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("bench.run", 0, 100, None),
            span("fl.server.round", 10, 60, Some(0)),
            span("fedtiny.progressive.adjust", 20, 30, Some(1)),
            span("fl.server.tail", 60, 90, Some(0)),
        ];
        // run: 100 - (50 + 30); round: 50 - 10; grandchildren are not
        // subtracted twice from the root.
        assert_eq!(self_times_ns(&spans), vec![20, 40, 10, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("a.root", 10, 50, None),
            span("a.x", 0, 30, Some(0)),  // starts before the parent
            span("a.y", 20, 40, Some(0)), // overlaps x
            span("a.z", 45, 80, Some(0)), // ends after the parent
        ];
        // Covered: [10,40) ∪ [45,50) = 35 of 40.
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn layers_sum_only_below_the_root() {
        let spans = vec![
            span("bench.run", 0, 100, None),
            span("fl.server.round", 0, 40, Some(0)),
            span("fl.server.round", 40, 100, Some(0)),
            span("fedtiny.progressive.adjust", 50, 70, Some(2)),
            span("bench.layers", 100, 200, None),
            span("nn.forward", 100, 150, Some(4)),
        ];
        let by_layer = self_ms_by_layer(&spans, 0);
        assert_eq!(by_layer.len(), 2);
        assert_eq!(by_layer["fl.server"], (40 + 40) as f64 / 1e6);
        assert_eq!(by_layer["fedtiny.progressive"], 20.0 / 1e6);
    }

    #[test]
    fn tracer_nests_closes_inner_spans_and_drops_when_full() {
        let t = Tracer::new();
        let run = t.open("bench.run", None);
        let round = t.open("fl.server.round", Some(0));
        t.span("fedtiny.progressive.adjust", Some(0), || ());
        let _left_open = t.open("fl.server.round", Some(1));
        t.rename(round, "fl.server.tail");
        t.close(run); // closes the span left open inside it too
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].name, "fl.server.tail");
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].layer(), "fedtiny.progressive");
        assert_eq!(spans[3].parent, Some(1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans[3].end_ns, spans[0].end_ns);

        for _ in 0..SPAN_CAPACITY {
            t.span("x.y", None, || ());
        }
        assert_eq!(t.spans().len(), SPAN_CAPACITY);
        assert_eq!(t.dropped(), 4);
    }
}

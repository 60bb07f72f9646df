//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end and the span that was open when
//! it began. Spans are kept in memory only when tracing is on; with
//! tracing off `enter` and `exit` do nothing but test a flag, so the
//! untraced run measures the program, not the tracer.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`, e.g. `core.client_op.Play`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Time spent under one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end = self.now_ns();
        self.spans[index].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans close in nesting order");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the durations of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += span.duration_ns().saturating_sub(children);
        }
        totals
    }

    /// Self time summed per layer, in nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, t) in self.totals() {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0) += t.self_ns;
        }
        out
    }
}

/// Wall nanoseconds one empty enter/exit pair costs on this machine,
/// the median of several batches.
pub fn span_cost_ns() -> f64 {
    const PAIRS: usize = 20_000;
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let mut tracer = Tracer::new(true);
            tracer.spans.reserve(PAIRS);
            let t0 = Instant::now();
            for _ in 0..PAIRS {
                let open = tracer.enter("bench.calibrate");
                tracer.exit(open);
            }
            std::hint::black_box(tracer.spans.len());
            t0.elapsed().as_nanos() as f64 / PAIRS as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

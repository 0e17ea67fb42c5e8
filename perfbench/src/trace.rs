//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created), the span that caused it, and the request it belongs to.
//! Spans are appended to a vector while the traced phase runs and written
//! out as one tab-separated file when it ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// Span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span whose interval was measured elsewhere, as offsets
    /// from `origin` (used for client-side request spans timed on another
    /// thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span { name, start_ns, end_ns, parent: None, request });
    }

    /// Times `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, parent, request);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals of self time (ns) and span counts.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (id, self_ns) in self_times(&self.spans).into_iter().enumerate() {
            let entry = out.entry(self.spans[id].name).or_default();
            entry.0 += self_ns;
            entry.1 += 1;
        }
        out
    }

    /// Mean self time of the spans named `name`, in milliseconds (0 when
    /// none was recorded).
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        self.self_times()
            .get(name)
            .map_or(0.0, |&(ns, count)| ns as f64 / 1e6 / count.max(1) as f64)
    }

    /// Writes every span as `id name start_ns end_ns parent request`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let total = span.end_ns.saturating_sub(span.start_ns);
            total.saturating_sub(covered(span.start_ns, span.end_ns, kids))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("polarity", 10, 30, Some(0)),
            span("eev", 20, 50, Some(0)), // overlaps polarity by 10
            span("bidir", 25, 35, Some(2)),
            span("tail", 90, 120, Some(0)), // sticks out past the parent
        ];
        // request: 100 - |[10,50] ∪ [90,100]| = 100 - 50.
        // polarity: no children. eev: 30 - 10. bidir: 10. tail: 30.
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10, 30]);
    }

    #[test]
    fn a_span_fully_covered_by_children_has_zero_self_time() {
        let spans =
            vec![span("a", 0, 10, None), span("b", 0, 6, Some(0)), span("c", 4, 10, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 6, 6]);
    }

    #[test]
    fn tracer_aggregates_self_time_per_name() {
        let mut tracer = Tracer::default();
        let root = tracer.enter("outer", None, 7);
        tracer.span("inner", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.exit(root);
        let totals = tracer.self_times();
        assert_eq!(totals["inner"].1, 1);
        assert!(totals["inner"].0 >= 2_000_000);
        assert!(totals["outer"].0 < totals["inner"].0);
        assert_eq!(tracer.spans()[1].parent, Some(root));
        assert_eq!(tracer.spans()[1].request, 7);
    }
}

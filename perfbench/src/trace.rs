//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self time derived from them.
//!
//! A span has a name, a start and an end (nanoseconds from the tracer's
//! epoch), the request it belongs to, and its parent span. Spans stay
//! in memory while the run measures and are written out once, at the
//! end. A disabled tracer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Handle to an open span; `SpanId::NONE` when the tracer is off or as
/// a root's parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No span.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `client.encode`.
    pub name: &'static str,
    /// Request id the span belongs to.
    pub request: u64,
    /// Parent span, or [`SpanId::NONE`] for a root.
    pub parent: SpanId,
    /// Start, nanoseconds from the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds from the tracer's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// `end - start` in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for `request` under `parent`.
    pub fn open(&mut self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = SpanId(u32::try_from(self.spans.len()).expect("fewer than 2^32 spans"));
        let start_ns = self.now_ns();
        self.spans.push(Span { name, request, parent, start_ns, end_ns: 0 });
        id
    }

    /// Closes `span` now; closing it again keeps the first end.
    pub fn close(&mut self, span: SpanId) {
        if span != SpanId::NONE && self.spans[span.0 as usize].end_ns == 0 {
            let end = self.now_ns().max(1);
            self.spans[span.0 as usize].end_ns = end;
        }
    }

    /// Closes `span` now under a name chosen from the call's outcome
    /// (a cache serve is a hit or a miss only once it returns).
    pub fn close_as(&mut self, span: SpanId, name: &'static str) {
        if span != SpanId::NONE {
            self.spans[span.0 as usize].name = name;
            self.close(span);
        }
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, request, parent);
        let out = f();
        self.close(span);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one parent are recorded by a single thread, one
/// after another, so their durations do not overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != SpanId::NONE {
            covered[span.parent.0 as usize] += span.duration_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// Per span name: the self times (nanoseconds) of every span so named.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        by_name.entry(span.name).or_default().push(self_ns as f64);
    }
    by_name
}

/// Writes the spans as tab-separated lines: id, parent (`-` for a
/// root), request, name, start, end and self time in nanoseconds.
pub fn write_tsv(spans: &[Span], out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
    for (id, (span, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent =
            if span.parent == SpanId::NONE { "-".to_string() } else { span.parent.0.to_string() };
        writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
            span.request, span.name, span.start_ns, span.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span { name, request: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = vec![
            span("request", SpanId::NONE, 0, 100),
            span("client.encode", SpanId(0), 0, 10),
            span("wire", SpanId(0), 10, 80),
            span("client.decode", SpanId(0), 80, 95),
            span("inner", SpanId(2), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![5, 10, 60, 15, 10]);
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["wire"], vec![60.0]);
        let mut text = Vec::new();
        write_tsv(&spans, &mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert!(text.contains("0\t-\t1\trequest\t0\t100\t5\n"), "{text}");
        assert!(text.contains("4\t2\t1\tinner\t20\t30\t10\n"), "{text}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let span = tracer.open("x", 0, SpanId::NONE);
        assert_eq!(span, SpanId::NONE);
        tracer.close(span);
        assert_eq!(tracer.within("y", 0, SpanId::NONE, || 7), 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_renames() {
        let mut tracer = Tracer::new(true);
        let root = tracer.open("replay", 9, SpanId::NONE);
        let serve = tracer.open("cache.serve", 9, root);
        tracer.close_as(serve, "cache.serve_hit");
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "cache.serve_hit");
        assert_eq!(spans[1].parent, root);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}

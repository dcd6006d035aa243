//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions — the program itself is not instrumented. They stay in
//! memory until the run ends and are then written out as one JSON file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (report or query) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans and named counters; shareable across threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<String, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A context for top-level spans of request `request`.
    #[must_use]
    pub fn root(&self, request: u64) -> Ctx<'_> {
        Ctx {
            tracer: self,
            parent: None,
            request,
        }
    }

    /// Records a span whose bounds were taken elsewhere (on another thread,
    /// or from timestamps of a wrapped stream) and returns its index, for
    /// use as the `parent` of later records.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        })
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(span);
        spans.len() - 1
    }

    fn close(&self, index: usize) {
        let end = self.now_ns();
        self.spans.lock().expect("span list poisoned")[index].end_ns = end;
    }

    /// Adds `value` to counter `name`.
    pub fn add(&self, name: &str, value: f64) {
        let mut counters = self.counters.lock().expect("counter map poisoned");
        match counters.get_mut(name) {
            Some(entry) => *entry += value,
            None => {
                counters.insert(name.to_owned(), value);
            }
        }
    }

    /// Raises counter `name` to at least `value`.
    pub fn raise(&self, name: &str, value: f64) {
        let mut counters = self.counters.lock().expect("counter map poisoned");
        match counters.get_mut(name) {
            Some(entry) => *entry = entry.max(value),
            None => {
                counters.insert(name.to_owned(), value);
            }
        }
    }

    /// Counter `name`, 0 if never touched.
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("counter map poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// A copy of every counter, by name.
    #[must_use]
    pub fn counters(&self) -> BTreeMap<String, f64> {
        self.counters.lock().expect("counter map poisoned").clone()
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Where new spans attach: a tracer, the enclosing span and its request.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'t> {
    tracer: &'t Tracer,
    parent: Option<usize>,
    request: u64,
}

impl<'t> Ctx<'t> {
    /// The tracer behind this context.
    #[must_use]
    pub fn tracer(&self) -> &'t Tracer {
        self.tracer
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.nest(name, |_| f())
    }

    /// Runs `f` inside a span named `name`, handing it the context for
    /// spans nested below this one.
    pub fn nest<T>(&self, name: &'static str, f: impl FnOnce(Ctx<'t>) -> T) -> T {
        let start_ns = self.tracer.now_ns();
        let index = self.tracer.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.parent,
            request: self.request,
        });
        let out = f(Ctx {
            tracer: self.tracer,
            parent: Some(index),
            request: self.request,
        });
        self.tracer.close(index);
        out
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time their direct children cover.
    pub self_ns: u64,
}

/// Totals per span name.
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(children);
    }
    out
}

/// Share of `[start_ns, end_ns)` covered by the union of top-level spans.
#[must_use]
pub fn coverage(spans: &[Span], start_ns: u64, end_ns: u64) -> f64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|span| span.parent.is_none())
        .map(|span| (span.start_ns.max(start_ns), span.end_ns.min(end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start_ns;
    for (start, end) in intervals {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    let wall = end_ns.saturating_sub(start_ns);
    if wall == 0 {
        0.0
    } else {
        covered as f64 / wall as f64
    }
}

/// Writes spans as a JSON array of `{name, start_ns, end_ns, parent,
/// request}` objects.
///
/// # Errors
///
/// Returns the I/O error of creating the directory or writing the file.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("[\n");
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            span.name, span.start_ns, span.end_ns, span.request
        );
        out.push_str(if index + 1 == spans.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("]\n");
    std::fs::write(path, out)
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
            request: 0,
        }
    }

    #[test]
    fn self_time_excludes_direct_children() {
        let spans = vec![
            span("report", 0, 100, None),
            span("kernel.route", 10, 40, Some(0)),
            span("kernel.route", 50, 60, Some(0)),
        ];
        let totals = totals(&spans);
        assert_eq!(totals["report"].self_ns, 60);
        assert_eq!(totals["kernel.route"].total_ns, 40);
        assert_eq!(totals["kernel.route"].count, 2);
    }

    #[test]
    fn coverage_merges_overlapping_top_level_spans() {
        let spans = vec![
            span("a", 0, 50, None),
            span("b", 40, 80, None),
            span("child", 85, 95, Some(0)),
        ];
        assert!((coverage(&spans, 0, 100) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn nested_contexts_record_parents_and_requests() {
        let tracer = Tracer::new();
        tracer.root(7).nest("report", |ctx| {
            ctx.span("kernel.route", || ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}

//! Spans around the driver's calls into each layer.
//!
//! The driver makes every call into the program, so a span opened before a
//! call and closed after it is a complete account of where the run went.
//! Spans are kept in memory and written out when the run ends; with
//! tracing off only the clock is read and nothing is stored.

use smst_bench::harness::json_string;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `core.marker`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has begun and not yet ended.
#[derive(Debug)]
pub struct Open {
    started: Instant,
    index: Option<usize>,
}

/// Records spans while enabled; always times them.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that stores nothing until [`Self::set_enabled`].
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches span recording on or off (between spans only).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.enabled = enabled;
    }

    /// Whether spans are being stored.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let start_ns = (started - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, index }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans close innermost first");
            self.spans[index].end_ns = (now - self.epoch).as_nanos() as u64;
        }
        (now - open.started).as_secs_f64()
    }

    /// Times one call as a leaf span.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let value = f();
        (value, self.end(open))
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds of every recorded span with this name (0 when the
    /// layer was never called).
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":{}}}",
                json_string(span.name),
                span.start_ns,
                span.end_ns,
                json_string(workload),
            )?;
        }
        out.flush()
    }
}

/// The fastest wall time of each call of a sequence of calls that a run
/// repeats.
///
/// Every pipeline pass makes the same calls in the same order, so the
/// `k`-th call of one name is the same work in every pass. A shared host
/// only ever adds time to a call, for seconds or minutes at a stretch, and
/// a median over a 20-second run moves with it; the fastest repetition of a
/// call does not, and the sum of the fastest repetitions is the sequence as
/// an undisturbed host runs it.
#[derive(Debug, Default)]
pub struct BestCalls {
    /// How many calls of each name the current repetition has made.
    made: BTreeMap<&'static str, usize>,
    /// Seconds, by name and the call's ordinal among that name's calls.
    best: BTreeMap<(&'static str, usize), f64>,
}

impl BestCalls {
    /// Starts the sequence over: the next call of each name is its first.
    pub fn restart(&mut self) {
        self.made.clear();
    }

    /// One call of the current repetition.
    pub fn record(&mut self, name: &'static str, secs: f64) {
        let made = self.made.entry(name).or_insert(0);
        let best = self.best.entry((name, *made)).or_insert(f64::INFINITY);
        *best = best.min(secs);
        *made += 1;
    }

    /// How many calls of the sequence have a name `keep` accepts, and their
    /// seconds, each call at its fastest.
    pub fn total(&self, keep: impl Fn(&str) -> bool) -> (usize, f64) {
        self.best
            .iter()
            .filter(|((name, _), _)| keep(name))
            .fold((0, 0.0), |(calls, sum), (_, secs)| (calls + 1, sum + secs))
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one span never overlap — the driver is one
/// thread).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.ns();
        }
    }
    own
}

/// The share of the `root`-named spans' wall time that their child spans
/// account for: 1 − (the roots' self time ÷ the roots' duration).
pub fn cover(spans: &[Span], root: &str) -> f64 {
    let own = self_ns(spans);
    let (mut total, mut unattributed) = (0u64, 0u64);
    for (span, own) in spans.iter().zip(own) {
        if span.name == root {
            total += span.ns();
            unattributed += own;
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - unattributed as f64 / total as f64
    }
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
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("pipeline", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 40, 90, Some(0)),
        ];
        // pipeline keeps 100 − 30 − 50; `a` loses only its own child
        assert_eq!(self_ns(&spans), vec![20, 20, 10, 50]);
        assert!((cover(&spans, "pipeline") - 0.8).abs() < 1e-12);
        assert_eq!(cover(&spans, "absent"), 0.0);
    }

    #[test]
    fn best_calls_sum_the_fastest_repetition_of_each_call() {
        let mut best = BestCalls::default();
        for pass in [[4.0, 1.0, 9.0], [3.0, 2.0, 5.0], [6.0, 1.5, 7.0]] {
            best.restart();
            best.record("setup", pass[0]);
            best.record("step", pass[1]);
            best.record("step", pass[2]);
        }
        // one repetition that stops early leaves the later calls as they were
        best.restart();
        best.record("setup", 3.5);
        assert_eq!(best.total(|_| true), (3, 3.0 + 1.0 + 5.0));
        assert_eq!(best.total(|name| name == "step"), (2, 1.0 + 5.0));
        assert_eq!(best.total(|name| name == "absent"), (0, 0.0));
    }

    #[test]
    fn disabled_tracer_times_but_stores_nothing() {
        let mut tracer = Tracer::new();
        let (value, secs) = tracer.call("x.y", || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let mut tracer = Tracer::new();
        tracer.set_enabled(true);
        let root = tracer.begin("pipeline");
        tracer.call("graph.generate", || ());
        tracer.call("graph.mst", || ());
        tracer.end(root);
        let parents: Vec<_> = tracer.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert!(tracer.total_ms("graph.mst") >= 0.0);
        assert_eq!(tracer.total_ms("absent"), 0.0);
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[2].end_ns);
    }
}

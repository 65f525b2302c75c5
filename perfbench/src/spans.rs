//! An in-memory span tracer for the traced run.
//!
//! Each span records a name, start and end (nanoseconds since the
//! tracer's epoch), its parent span, and the request it belongs to. Spans
//! are opened around calls into one layer's public functions, nested by a
//! stack, kept in a `Vec`, and written out as JSONL when the run ends.
//!
//! A span's *self time* is its duration minus the union of its
//! children's intervals (clipped to the span), so overlapping children
//! are not subtracted twice.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer metric name, e.g. `sync.drag`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (replayed operation) the span belongs to.
    pub request: u64,
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    /// A tracer whose spans cost nothing and record nothing: the same
    /// replay run through it measures the tracing overhead.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    /// Starts a new request: spans opened from here on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Records an interval timed outside the tracer (inside a call the
    /// tracer cannot wrap) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: ns(start),
            end: ns(end),
            parent: self.open.last().copied(),
            request: self.request,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSONL (one object per span).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            let covered = union_len(kids, s.start, s.end);
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// What the client saw that no measured layer accounts for: the client's
/// median latency minus the sum of the layers' median self times.
pub fn residual(client_p50_us: f64, layer_self_medians_us: &[f64]) -> f64 {
    client_p50_us - layer_self_medians_us.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn nested_children_are_subtracted() {
        // root [0,100) > a [10,30) > a.inner [12,20); b [40,70)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a.inner", 12, 20, Some(1)),
            span("b", 40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 8, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children overlapping on [30,50): union [20,70) = 50.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 20, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 60, 65, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("root", 10, 20, None),
            span("early", 0, 15, Some(0)),
            span("late", 18, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3, "[15,18) is the parent's own");
        assert_eq!(
            union_len(vec![(0, 5), (5, 9)], 0, 100),
            9,
            "touching intervals merge"
        );
    }

    #[test]
    fn tracer_nests_and_groups_by_name() {
        let mut t = Tracer::default();
        t.next_request();
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
            t.span("inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 1 && s.end >= s.start));
        let mut off = Tracer::disabled();
        assert_eq!(off.span("x", |t| t.span("y", |_| 7)), 7);
        assert!(off.spans().is_empty());
        assert_eq!(self_times(spans).len(), 3);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains(r#""parent":0"#));
    }

    #[test]
    fn residual_is_what_the_layers_leave() {
        assert_eq!(residual(250.0, &[10.0, 5.5, 120.0, 4.5]), 110.0);
        assert_eq!(residual(80.0, &[]), 80.0);
        assert!(
            residual(10.0, &[6.0, 6.0]) < 0.0,
            "over-attribution shows as negative"
        );
    }
}

//! The benchmark's own spans: recorded around each public entry point it
//! calls, kept in memory, and reduced to per-layer self times when the run
//! ends. The program under test is not instrumented; the only timers read
//! from inside it are the ones `RunStats` already returns, attached as
//! derived child spans of `Meissa::run`.

use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name, `layer.operation`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offset of the start from the tracer's origin.
    pub start: Duration,
    /// Duration.
    pub len: Duration,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. A disabled tracer records nothing and every call is a
/// branch on one bool, so untraced runs time the same code.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = Instant::now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(i, _)| i),
            start: now - self.origin,
            len: Duration::ZERO,
        });
        self.open.push((idx, now));
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`]. Spans close in LIFO order.
    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let (top, started) = self.open.pop().expect("end() without an open span");
        assert_eq!(top, idx, "spans must close innermost first");
        self.spans[idx].len = started.elapsed();
    }

    /// Records a closed child of the innermost open span with a duration
    /// measured elsewhere (a timer the program returned), laid out after
    /// `offset` from the parent's start.
    pub fn derived(&mut self, name: &'static str, offset: Duration, len: Duration) {
        if !self.on {
            return;
        }
        let &(parent, started) = self.open.last().expect("derived() needs an open parent");
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start: (started - self.origin) + offset,
            len,
        });
    }

    /// Hands the recorded spans over, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "take() with spans still open");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children of one parent never overlap here, since the
/// benchmark calls each layer in sequence). Clamped at zero, so a derived
/// child that overshoots its parent by timer granularity cannot go negative.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut covered = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.len;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.len.saturating_sub(c))
        .collect()
}

/// Renders the span tree with start offset, total and self time, one line
/// per span.
pub fn render_tree(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut depth = vec![0usize; spans.len()];
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            depth[i] = depth[p] + 1;
        }
        out.push_str(&format!(
            "{:indent$}{:<w$} at {:>10.3} ms  total {:>10.3} ms  self {:>10.3} ms\n",
            "",
            s.name,
            s.start.as_secs_f64() * 1e3,
            s.len.as_secs_f64() * 1e3,
            selfs[i].as_secs_f64() * 1e3,
            indent = 2 * depth[i],
            w = 28usize.saturating_sub(2 * depth[i]),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, ms: u64) -> Span {
        Span {
            name,
            parent,
            start: Duration::ZERO,
            len: Duration::from_millis(ms),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("verdict", None, 100),
            span("core.generate", Some(0), 60),
            span("core.summary", Some(1), 40),
            span("driver.check", Some(0), 30),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], Duration::from_millis(10));
        assert_eq!(st[1], Duration::from_millis(20));
        assert_eq!(st[2], Duration::from_millis(40));
        assert_eq!(st[3], Duration::from_millis(30));
        assert_eq!(st.iter().sum::<Duration>(), spans[0].len);
        assert_eq!(spans[1].layer(), "core");
    }

    #[test]
    fn overshooting_children_clamp_to_zero() {
        let spans = vec![span("a", None, 5), span("a.b", Some(0), 6)];
        assert_eq!(self_times(&spans)[0], Duration::ZERO);
    }

    #[test]
    fn tracer_nests_and_derives() {
        let mut t = Tracer::new(true);
        let root = t.begin("verdict");
        let gen = t.begin("core.generate");
        t.derived("core.summary", Duration::ZERO, Duration::from_nanos(1));
        t.end(gen);
        t.end(root);
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(render_tree(&spans).contains("    core.summary"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("verdict");
        t.end(s);
        assert!(t.take().is_empty());
    }
}

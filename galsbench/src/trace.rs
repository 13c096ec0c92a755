//! In-memory span recorder for the traced pass. Spans are recorded by the
//! benchmark around its own calls into each layer's public functions; the
//! simulator itself is not instrumented.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: which layer function, when, what caused it, and the
/// request (one matrix point, or one served sweep) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.simulate`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory; [`Tracer::render`] writes them out at the end.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// span still open, and returns its result.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let index = self.begin(name, request);
        let out = f();
        self.end(index);
        out
    }

    /// Opens a span that encloses the spans recorded until
    /// [`Tracer::end`] closes it.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        index
    }

    /// Records a span that started at `*since` (nanoseconds, as returned
    /// by [`Tracer::now_ns`]) and ends now, and moves `*since` to now: the
    /// per-record spans of a stream whose calls the caller cannot wrap.
    pub fn interval(&mut self, name: &'static str, request: u64, since: &mut u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: *since,
            end_ns,
            parent: self.open.last().copied(),
            request,
        });
        *since = end_ns;
    }

    /// Closes the span `index` opened by [`Tracer::begin`].
    pub fn end(&mut self, index: usize) {
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration, in nanoseconds, of the spans named `name` that
    /// started at or after span index `from`.
    pub fn total_ns(&self, name: &str, from: usize) -> u64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Number of spans recorded so far (a round's starting index).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One tab-separated line per span:
    /// `index name request parent start_ns end_ns self_ns`, where self
    /// time is the span's duration minus the time its direct children
    /// cover.
    pub fn render(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = String::from("index\tname\trequest\tparent\tstart_ns\tend_ns\tself_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                s.ns().saturating_sub(child_ns[i])
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].ns() >= t.spans()[1].ns());
        assert_eq!(t.total_ns("inner", 0), t.spans()[1].ns());
        assert_eq!(t.total_ns("inner", 2), 0);
        let text = t.render();
        assert_eq!(text.lines().count(), 3);
        let outer_self: u64 = text
            .lines()
            .nth(1)
            .unwrap()
            .rsplit('\t')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(outer_self < t.spans()[0].ns());
    }
}

//! The benchmark's own tracer: a span around every call into a layer,
//! kept in memory and written at exit as Chrome trace-event JSON. Only
//! traced runs construct a [`Tracer`]; the untraced op path never sees one.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: a call into a layer, or a group of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The op (or request) this span belongs to.
    pub op: u32,
    pub tid: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "a span stays open until it is passed to exit"]
pub struct Open(usize);

/// Span recorder for one thread. Threads each own one (sharing `epoch`)
/// and are merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    op: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Tracer {
            epoch,
            tid,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans opened from here on belong to op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            tid: self.tid,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open` and returns its duration in ms.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order — a bug in the benchmark.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        span.ms()
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Takes over another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// Per op, the summed duration (ms) of the spans called `name`.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: Vec<(u32, f64)> = Vec::new();
        for s in self.named(name) {
            match by_op.iter_mut().find(|(op, _)| *op == s.op) {
                Some((_, ms)) => *ms += s.ms(),
                None => by_op.push((s.op, s.ms())),
            }
        }
        by_op.into_iter().map(|(_, ms)| ms).collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`X`) event per span, times in µs, with the span's id,
    /// parent id, op id and self time as arguments.
    pub fn to_chrome_json(&self) -> String {
        let selfs = self_times_ms(&self.spans);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (id, (s, self_ms)) in self.spans.iter().zip(&selfs).enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"op\":{},\"self_ms\":{self_ms:.6}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time (ms) of every span: its duration minus the part of it that
/// its direct children cover.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            // Union of the child intervals, clipped to the parent.
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e6
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span("op", 0, 10_000_000, None),
            span("a", 1_000_000, 4_000_000, Some(0)),
            span("b", 5_000_000, 9_000_000, Some(0)),
            span("a.inner", 2_000_000, 3_000_000, Some(1)),
        ];
        let selfs = self_times_ms(&spans);
        assert_eq!(selfs, vec![3.0, 2.0, 4.0, 1.0]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two client threads' spans merged under one parent may overlap.
        let spans = vec![
            span("window", 0, 10_000_000, None),
            span("x", 0, 6_000_000, Some(0)),
            span("y", 4_000_000, 12_000_000, Some(0)),
        ];
        assert_eq!(self_times_ms(&spans)[0], 0.0);
    }

    #[test]
    fn tracer_links_parents_and_ops() {
        let mut t = Tracer::new(Instant::now(), 3);
        t.set_op(7);
        let op = t.enter("op");
        t.time("layer.call", || ());
        t.exit(op);
        let mut main = Tracer::new(Instant::now(), 0);
        main.time("other", || ());
        main.absorb(t);
        let s = main.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[2].op, s[2].tid), (7, 3));
        assert_eq!(main.durations_ms("layer.call").len(), 1);
        assert_eq!(main.per_op_ms("layer.call").len(), 1);
        assert!(main.to_chrome_json().contains("\"cat\":\"layer\""));
    }
}

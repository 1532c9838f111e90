//! In-memory spans: every timed call into a layer is one span (name, round,
//! thread, start, duration, parent). Spans stay in memory while the run
//! goes and are written out once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub round: usize,
    pub thread: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
}

/// A per-thread span buffer sharing one time origin.
pub struct Spans {
    origin: Instant,
    thread: &'static str,
    pub spans: Vec<Span>,
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

impl Spans {
    pub fn new(origin: Instant, thread: &'static str) -> Self {
        Spans {
            origin,
            thread,
            spans: Vec::with_capacity(1 << 14),
        }
    }

    /// Opens a span whose end is recorded later by [`close`](Spans::close);
    /// returns its index for use as a parent.
    pub fn open(&mut self, name: &'static str, round: usize, parent: Option<usize>) -> usize {
        let start_ns = nanos(self.origin, Instant::now());
        self.spans.push(Span {
            name,
            round,
            thread: self.thread,
            start_ns,
            dur_ns: 0,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        let end = nanos(self.origin, Instant::now());
        let span = &mut self.spans[idx];
        span.dur_ns = end.saturating_sub(span.start_ns);
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        round: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.push(name, round, parent, start, Instant::now());
        out
    }

    pub fn push(
        &mut self,
        name: &'static str,
        round: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            round,
            thread: self.thread,
            start_ns: nanos(self.origin, start),
            dur_ns: nanos(start, end),
            parent,
        });
    }

    /// Appends another thread's spans (parents re-indexed).
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Per-round sums (ms) of the spans called `name`, keyed by round.
    pub fn per_round_ms(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.round).or_insert(0.0) += s.dur_ns as f64 / 1e6;
        }
        out
    }

    /// JSON lines, one span each.
    pub fn render(&self, pass: usize) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"pass\":{pass},\"name\":\"{}\",\"round\":{},\"thread\":\"{}\",\
                 \"start_ns\":{},\"dur_ns\":{},\"parent\":{parent}}}",
                s.name, s.round, s.thread, s.start_ns, s.dur_ns
            );
        }
        out
    }
}

/// Nanoseconds it takes to record one span: the median of five batches of
/// empty timed calls into a scratch buffer.
pub fn recording_ns() -> f64 {
    const CALLS: usize = 1 << 16;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut probe = Spans::new(Instant::now(), "calibrate");
            let start = Instant::now();
            for i in 0..CALLS {
                probe.time("calibrate", i, None, || std::hint::black_box(i));
            }
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

/// Nearest-rank percentile of `values` (`q` in 0..=100); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

//! The benchmark's own tracer: a span (name, start, end, parent, job)
//! around every call the benchmark makes into a layer's public API, plus
//! work counters recorded at the same boundaries. Spans stay in memory
//! and are written out once, when the run ends. With tracing off every
//! method is a pass-through that records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span that encloses one job; every other span names a
/// layer (`ml.*`, `core.*`, `netlist.*`, `analog.*`).
pub const JOB_SPAN: &str = "job";

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call (or [`JOB_SPAN`]).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to.
    pub job: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Seconds not covered by child spans.
    pub seconds: f64,
    /// Number of spans.
    pub calls: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    job: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// A tracer that starts switched off.
    pub fn new() -> Self {
        Trace {
            on: false,
            epoch: Instant::now(),
            job: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Switches recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Trace::end`]. Returns `None` when off.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Trace::begin`], and any span still open
    /// inside it (left behind by a job that panicked).
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Sets the job id stamped on subsequent spans.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Adds `n` to the work counter `name` (recorded only while on).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// A work counter's total (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.seconds += (s.end_ns - s.start_ns).saturating_sub(child) as f64 * 1e-9;
            e.calls += 1;
        }
        out
    }

    /// Seconds covered by named layer spans (every span but [`JOB_SPAN`]
    /// whose parent is not itself a layer span).
    pub fn layer_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name != JOB_SPAN)
            .filter(|s| s.parent.is_none_or(|p| self.spans[p].name == JOB_SPAN))
            .map(Span::seconds)
            .sum()
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
    /// `job`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.job
            );
        }
        out
    }
}

//! In-memory span recorder for the traced run.
//!
//! Every span is recorded by the benchmark around one call into a layer's
//! public API: name, start, end, the span that caused it, and the session
//! it belongs to. Spans stay in memory until the run ends and are then
//! written out as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: u64,
}

pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; [`Trace::end`] closes it.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, session: u64) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("trace lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            session,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("trace lock poisoned")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span; `f` receives the span id to parent its
    /// own children.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        session: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.begin(name, parent, session);
        let out = f(id);
        self.end(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("trace lock poisoned").len()
    }

    /// Copies of the spans recorded from index `first` on.
    pub fn spans_from(&self, first: usize) -> Vec<Span> {
        self.spans.lock().expect("trace lock poisoned")[first..].to_vec()
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover (children of one span never overlap in this benchmark). `spans`
/// starts at span id `first` and holds every child of its spans.
pub fn self_times(spans: &[Span], first: usize) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p - first] = own[p - first].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Total self time (ns) and span count per span name.
pub fn self_time_by_name(spans: &[Span], first: usize) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans, first)) {
        let e = by_name.entry(s.name).or_insert((0u64, 0u64));
        e.0 += own;
        e.1 += 1;
    }
    by_name
}

/// Writes the spans as Chrome trace-event JSON (one thread lane per
/// session), loadable in Perfetto or `chrome://tracing`.
pub fn write_chrome(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}{}",
            s.name,
            s.session,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            if i + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

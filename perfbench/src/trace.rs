//! The benchmark's own spans around its calls into each layer's public
//! functions. Spans are kept in memory while a traced phase runs, summed
//! per name for the per-layer metrics, and written out as a Chrome trace
//! when the run ends. Nothing here reaches into the program: a span only
//! brackets a call the benchmark makes (or a predictor it hands to the
//! engine, via [`Traced`]).

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use uarch::{Machine, Prediction, Predictor};

struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    /// Root span id: spans of one op share it.
    trace: u64,
    thread: u64,
    start_ns: u64,
    dur_ns: u64,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// Running total duration per span name.
static TOTAL_NS: Mutex<Vec<(&'static str, u64)>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// (current span id, its trace id) on this thread; 0 = no open span.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static THREAD: u64 = NEXT_ID.fetch_add(1, Ordering::Relaxed);
}

/// Run `f` inside a span named `name`, nested under this thread's open
/// span (or as the root of a new trace).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_ns(name, f).0
}

/// [`span`], also returning the span's duration in nanoseconds.
pub fn span_ns<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let epoch = *EPOCH.get_or_init(Instant::now);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, trace) = CURRENT.with(|c| c.get());
    let trace = if parent == 0 { id } else { trace };
    CURRENT.with(|c| c.set((id, trace)));
    let start = Instant::now();
    let out = f();
    let dur_ns = start.elapsed().as_nanos() as u64;
    CURRENT.with(|c| c.set((parent, trace)));
    let span = Span {
        name,
        id,
        parent,
        trace,
        thread: THREAD.with(|t| *t),
        start_ns: start.duration_since(epoch).as_nanos() as u64,
        dur_ns,
    };
    SPANS.lock().expect("span buffer poisoned").push(span);
    let mut totals = TOTAL_NS.lock().expect("span totals poisoned");
    match totals.iter_mut().find(|(n, _)| *n == name) {
        Some((_, t)) => *t += dur_ns,
        None => totals.push((name, dur_ns)),
    }
    (out, dur_ns)
}

/// Total nanoseconds recorded so far under spans named `name`.
pub fn total_ns(name: &str) -> u64 {
    TOTAL_NS
        .lock()
        .expect("span totals poisoned")
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, t)| *t)
}

/// A predictor handed to the engine with a span around every call.
pub struct Traced {
    pub span: &'static str,
    pub inner: Box<dyn Predictor>,
}

impl Predictor for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(&self, machine: &Machine, kernel: &isa::Kernel) -> Prediction {
        span(self.span, || self.inner.predict(machine, kernel))
    }

    fn is_reference(&self) -> bool {
        self.inner.is_reference()
    }
}

/// Per-name totals over every span recorded so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct child spans.
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }

    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

pub fn totals() -> HashMap<&'static str, Totals> {
    let spans = SPANS.lock().expect("span buffer poisoned");
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for s in spans.iter() {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns;
        t.self_ns += s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

pub fn count() -> usize {
    SPANS.lock().expect("span buffer poisoned").len()
}

/// Write every recorded span as a Chrome trace (`chrome://tracing`,
/// Perfetto): complete events with the span tree in `args`.
pub fn write_chrome(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let spans = SPANS.lock().expect("span buffer poisoned");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"trace\":{}}}}}{sep}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id,
            s.parent,
            s.trace
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}

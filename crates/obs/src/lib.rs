//! Zero-dependency observability: spans, counters, and histograms
//! behind a process-global recorder that costs one relaxed atomic load
//! when disabled.
//!
//! The predictor stack's hot layers (`exec::event`, `memhier::stream`,
//! `engine::Session`) aggregate their statistics in locals and emit them
//! here **once per call**, gated on [`enabled`]; the disabled path is a
//! single `AtomicBool` load, so instrumented code is byte- and
//! timing-identical (within noise) to uninstrumented code unless a
//! profile was requested. `bench::ratios` asserts both properties on
//! the full corpus.
//!
//! The recorder is thread-aware without depending on any thread pool:
//! every recording thread gets a small process-unique id on first use
//! (the vendored rayon pool spawns scoped threads per `collect`, so ids
//! are assigned lazily rather than at pool construction), and spans
//! carry that id plus the per-thread nesting depth so [`Profile`] can
//! render a per-stage tree and a Chrome-trace with one track per
//! thread.
//!
//! A [`Profile`] drained with [`take`] renders three ways:
//! [`Profile::render_text`] (indented span tree plus counter/histogram
//! tables), [`Profile::to_json`] (stable hand-emitted JSON for CI
//! schema checks), and [`Profile::to_chrome_trace`] (Chrome trace event
//! format — `"X"` complete events and `"C"` counter events — loadable
//! in `about:tracing` or Perfetto).
//!
//! On top of the recorder sit four service-facing primitives grown for
//! `incore-cli serve`:
//!
//! - [`TraceCtx`] — a request-scoped (trace id, span id) pair carried in
//!   a thread-local; [`with_trace`] scopes it, and every [`span`] opened
//!   inside inherits it, so one request renders as a single connected
//!   span tree even across the shard-dispatch thread hop.
//! - [`registry::Registry`] — a named counter/gauge/histogram registry
//!   with lock-free hot-path updates and a *consistent* snapshot (no
//!   torn field-by-field reads), rendered as versioned JSON fragments or
//!   Prometheus text exposition.
//! - [`timeseries`] — fixed-memory 1-second ring buffers giving rolling
//!   10s/1m/5m rates and sliding histogram quantiles.
//! - [`journal::Journal`] — a severity-tagged bounded event journal
//!   (NDJSON lines) for operational moments: overloads, evictions,
//!   stale-cache heals, drains, slow requests.

pub mod journal;
pub mod registry;
pub mod timeseries;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static TRACE: Cell<TraceCtx> = const { Cell::new(TraceCtx::NONE) };
}

/// Request-scoped trace context: a process-unique trace id plus the id
/// of the span that is the current parent. `trace_id == 0` means "not
/// inside any trace" — spans recorded there keep the pre-trace shape.
///
/// The context travels by value (it is two u64s) so a server can mint
/// it on the connection thread, stash it in a queue entry, and restore
/// it on the worker thread with [`with_trace`]; every `span()` opened
/// under the restored context — including ones deep inside
/// `engine`/`exec`/`memhier` that know nothing about serving — becomes
/// part of the request's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    pub trace_id: u64,
    pub span_id: u64,
}

impl TraceCtx {
    /// The empty context: spans opened under it are untraced.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        span_id: 0,
    };

    /// Mint a fresh root context (new trace id, no parent span).
    pub fn mint() -> TraceCtx {
        TraceCtx {
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            span_id: 0,
        }
    }

    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }
}

/// Allocate a process-unique span id (for callers that record spans
/// explicitly via [`record_span_at`] rather than through RAII guards).
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// The calling thread's current trace context ([`TraceCtx::NONE`]
/// outside any [`with_trace`] scope).
pub fn current_trace() -> TraceCtx {
    TRACE.with(|t| t.get())
}

/// Run `f` with `ctx` installed as the thread's trace context,
/// restoring the previous context afterwards (also on panic-free early
/// return; the context is thread-local state, not a lock, so a panic
/// unwinding through here at worst leaves a stale id on a thread that
/// is about to die).
pub fn with_trace<R>(ctx: TraceCtx, f: impl FnOnce() -> R) -> R {
    let prev = TRACE.with(|t| t.replace(ctx));
    let out = f();
    TRACE.with(|t| t.set(prev));
    out
}

/// Is the recorder on? Inlined so instrumentation sites compile to a
/// single relaxed load plus a predictable branch when profiling is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct Inner {
    epoch: Instant,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<SpanRecord>,
}

impl Inner {
    fn new() -> Inner {
        Inner {
            epoch: Instant::now(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: Vec::new(),
        }
    }
}

fn collector() -> &'static Mutex<Inner> {
    static COLLECTOR: OnceLock<Mutex<Inner>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Inner::new()))
}

/// Turn the recorder on, discarding anything recorded before.
pub fn enable() {
    *collector().lock().expect("obs collector poisoned") = Inner::new();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the recorder off. Recorded data stays until [`take`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Add `delta` to the named counter. No-op while disabled.
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut inner = collector().lock().expect("obs collector poisoned");
    *inner.counters.entry(name.to_string()).or_insert(0) += delta;
}

/// Record one observation into the named power-of-two histogram.
/// No-op while disabled.
pub fn observe(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let mut inner = collector().lock().expect("obs collector poisoned");
    inner
        .histograms
        .entry(name.to_string())
        .or_default()
        .record(value);
}

/// Open a named span; it records itself when dropped. While disabled
/// the guard is inert (no clock read, no lock). Inside a [`with_trace`]
/// scope the span joins the current trace: it gets a fresh span id,
/// records the enclosing span id as its parent, and becomes the parent
/// of spans opened while it is live.
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span {
            name: String::new(),
            start: None,
            depth: 0,
            ctx: TraceCtx::NONE,
            parent_id: 0,
        };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let outer = current_trace();
    let ctx = if outer.is_none() {
        TraceCtx::NONE
    } else {
        let child = TraceCtx {
            trace_id: outer.trace_id,
            span_id: next_span_id(),
        };
        TRACE.with(|t| t.set(child));
        child
    };
    Span {
        name: name.to_string(),
        start: Some(Instant::now()),
        depth,
        ctx,
        parent_id: outer.span_id,
    }
}

/// RAII guard returned by [`span`].
pub struct Span {
    name: String,
    start: Option<Instant>,
    depth: u32,
    ctx: TraceCtx,
    parent_id: u64,
}

impl Span {
    /// This span's trace context ([`TraceCtx::NONE`] when untraced or
    /// the recorder is off) — what a caller forwards to another thread.
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if !self.ctx.is_none() {
            TRACE.with(|t| {
                t.set(TraceCtx {
                    trace_id: self.ctx.trace_id,
                    span_id: self.parent_id,
                })
            });
        }
        let tid = TID.with(|t| *t);
        let mut inner = collector().lock().expect("obs collector poisoned");
        let start_us = start
            .saturating_duration_since(inner.epoch)
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        let dur_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let name = std::mem::take(&mut self.name);
        let depth = self.depth;
        inner.spans.push(SpanRecord {
            name,
            tid,
            depth,
            start_us,
            dur_us,
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_id: if self.ctx.is_none() {
                0
            } else {
                self.parent_id
            },
        });
    }
}

/// Record a span explicitly with caller-supplied trace identity and a
/// caller-held start instant. This is the escape hatch for spans whose
/// open and close happen on different threads (a served request is
/// submitted on its connection's reader thread and answered on a shard
/// worker): the caller mints ids up front, hands them to children, and
/// records the parent here once the request is done. No-op while
/// disabled.
#[allow(clippy::too_many_arguments)]
pub fn record_span_at(name: &str, ctx: TraceCtx, parent_id: u64, start: Instant, dur_us: u64) {
    if !enabled() {
        return;
    }
    let tid = TID.with(|t| *t);
    let mut inner = collector().lock().expect("obs collector poisoned");
    let start_us = start
        .saturating_duration_since(inner.epoch)
        .as_micros()
        .min(u128::from(u64::MAX)) as u64;
    inner.spans.push(SpanRecord {
        name: name.to_string(),
        tid,
        depth: 0,
        start_us,
        dur_us,
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_id,
    });
}

/// Drain everything recorded so far (the recorder's enabled/disabled
/// state is left alone; subsequent events accumulate into a fresh
/// profile).
pub fn take() -> Profile {
    let mut inner = collector().lock().expect("obs collector poisoned");
    let drained = std::mem::replace(&mut *inner, Inner::new());
    let mut spans = drained.spans;
    spans.sort_by_key(|s| (s.tid, s.start_us, s.depth));
    Profile {
        counters: drained.counters,
        histograms: drained.histograms,
        spans,
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: String,
    /// Process-unique recording-thread id (assigned on first use).
    pub tid: u64,
    /// Nesting depth within its thread at open time.
    pub depth: u32,
    /// Microseconds since the recorder was enabled.
    pub start_us: u64,
    pub dur_us: u64,
    /// Trace this span belongs to; 0 = untraced.
    pub trace_id: u64,
    /// This span's id within the trace; 0 = untraced.
    pub span_id: u64,
    /// Parent span id within the trace; 0 = trace root (or untraced).
    pub parent_id: u64,
}

/// Power-of-two-bucketed histogram: bucket `i` holds values whose
/// bit-length is `i` (bucket 0 is exactly zero), so the whole `u64`
/// range fits in 65 fixed buckets with no configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    /// 128-bit so `mean()` stays exact even for near-`u64::MAX`
    /// observations (2^64 observations of 2^64 still fit in a u128).
    pub sum: u128,
    pub min: u64,
    pub max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Histogram {
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one (used by the windowed
    /// time-series to merge per-second slots into a sliding view).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the lower bound of the
    /// power-of-two bucket where the cumulative count reaches
    /// `ceil(q * count)`, clamped to the exact recorded `[min, max]`.
    /// With 2x-wide buckets the estimate is within 2x of the true value,
    /// which is enough resolution for the serve metrics' p50/p99 —
    /// consumers needing exact tails should record raw samples instead.
    ///
    /// Edges are exact: `q <= 0` returns the recorded minimum, `q >= 1`
    /// the recorded maximum, the empty histogram 0 everywhere, and a
    /// NaN `q` is treated as 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q };
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                return lower.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }
}

/// Everything one profiling window recorded, with deterministic
/// (sorted-key) iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
    pub spans: Vec<SpanRecord>,
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Profile {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.spans.is_empty()
    }

    /// Indented per-thread span tree followed by counter and histogram
    /// tables — the `--profile` / `--profile=text` rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("profile\n");
        if !self.spans.is_empty() {
            out.push_str("  spans:\n");
            let mut last_tid = None;
            for s in &self.spans {
                if last_tid != Some(s.tid) {
                    out.push_str(&format!("    thread {}:\n", s.tid));
                    last_tid = Some(s.tid);
                }
                out.push_str(&format!(
                    "    {:indent$}{} {:.3} ms\n",
                    "",
                    s.name,
                    s.dur_us as f64 / 1e3,
                    indent = 2 * (s.depth as usize + 1),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("    {name:<44} {v:>14}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("  histograms:\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "    {:<44} n={} min={} mean={:.1} max={}\n",
                    name,
                    h.count,
                    h.min,
                    h.mean(),
                    h.max
                ));
            }
        }
        out
    }

    /// Stable hand-emitted JSON (`{"counters":…,"histograms":…,"spans":…}`)
    /// — what `--profile=json` prints and CI schema-checks.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                json_escape(name),
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max
            ));
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"tid\":{},\"depth\":{},\"start_us\":{},\"dur_us\":{},\"trace_id\":{},\"span_id\":{},\"parent_id\":{}}}",
                json_escape(&s.name),
                s.tid,
                s.depth,
                s.start_us,
                s.dur_us,
                s.trace_id,
                s.span_id,
                s.parent_id
            ));
        }
        out.push_str("]}");
        out
    }

    /// Chrome trace event format: spans become `"X"` complete events
    /// (one track per recording thread), counters become `"C"` counter
    /// events at t=0. Load the file in `about:tracing` or Perfetto.
    /// Spans that belong to a request trace carry their
    /// `trace_id`/`span_id`/`parent_id` in `args` so one request can be
    /// followed across threads; untraced spans keep the original shape.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::new();
        for s in &self.spans {
            let args = if s.trace_id != 0 {
                format!(
                    ",\"args\":{{\"trace_id\":{},\"span_id\":{},\"parent_id\":{}}}",
                    s.trace_id, s.span_id, s.parent_id
                )
            } else {
                String::new()
            };
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}{}}}",
                json_escape(&s.name),
                s.start_us,
                s.dur_us,
                s.tid,
                args
            ));
        }
        for (name, v) in &self.counters {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{{\"value\":{}}}}}",
                json_escape(name),
                v
            ));
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    // The recorder is process-global; tests that flip it on serialize
    // through this lock so they don't see each other's events.
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let _g = exclusive();
        disable();
        let _ = take();
        counter("x", 3);
        observe("h", 7);
        {
            let _s = span("dead");
        }
        assert!(take().is_empty());
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let _g = exclusive();
        enable();
        counter("b.two", 2);
        counter("a.one", 1);
        counter("b.two", 3);
        let p = take();
        disable();
        assert_eq!(
            p.counters.iter().collect::<Vec<_>>(),
            vec![(&"a.one".to_string(), &1), (&"b.two".to_string(), &5)]
        );
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!((h.min, h.max), (0, 1000));
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 1), (2, 2), (4, 1), (512, 1)]
        );
    }

    #[test]
    fn histogram_quantiles_bracket_the_distribution() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in 1..=100u64 {
            h.record(v);
        }
        // Bucketed estimate: within the power-of-two bucket of the true
        // quantile, clamped to the recorded extremes.
        let p50 = h.quantile(0.5);
        assert!((32..=64).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((64..=100).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(0.0), 1, "q=0 is the exact minimum");
        assert_eq!(h.quantile(1.0), 100, "q=1 is the exact maximum");
        // A single-valued histogram is exact at every quantile.
        let mut one = Histogram::default();
        one.record(42);
        assert_eq!(one.quantile(0.5), 42);
        assert_eq!(one.quantile(0.99), 42);
    }

    #[test]
    fn histogram_edge_quantiles_and_overflow() {
        // Empty histogram: every quantile (and both edges) is 0.
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(1.0), 0);
        assert_eq!(empty.mean(), 0.0);
        // Single-bucket histogram: edges are the exact recorded extremes
        // even when min and max share a power-of-two bucket.
        let mut narrow = Histogram::default();
        narrow.record(33);
        narrow.record(47);
        assert_eq!(narrow.quantile(0.0), 33);
        assert_eq!(narrow.quantile(1.0), 47);
        // Out-of-range and NaN q values clamp instead of panicking.
        assert_eq!(narrow.quantile(-3.0), 33);
        assert_eq!(narrow.quantile(7.5), 47);
        assert_eq!(narrow.quantile(f64::NAN), 33);
        // Near-u64::MAX observations: the u128 sum keeps mean() exact
        // where a saturating u64 sum would have pinned it at u64::MAX/2.
        let mut big = Histogram::default();
        big.record(u64::MAX);
        big.record(u64::MAX);
        big.record(u64::MAX);
        assert_eq!(big.sum, 3 * u128::from(u64::MAX));
        let want = u64::MAX as f64;
        assert!((big.mean() - want).abs() <= want * 1e-9, "mean overflowed");
        assert_eq!(big.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_merge_combines_counts_and_extremes() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [100u64, 200] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, 5);
        assert_eq!(merged.sum, 306);
        assert_eq!((merged.min, merged.max), (1, 200));
        assert_eq!(merged.quantile(1.0), 200);
        // Merging an empty histogram is the identity (min untouched).
        let before = merged.clone();
        merged.merge(&Histogram::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn spans_nest_and_render() {
        let _g = exclusive();
        enable();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let p = take();
        disable();
        assert_eq!(p.spans.len(), 2);
        let outer = p.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = p.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        let text = p.render_text();
        assert!(text.contains("outer"));
        assert!(text.contains("  inner"));
    }

    #[test]
    fn threads_get_distinct_track_ids() {
        use rayon::prelude::*;
        let _g = exclusive();
        enable();
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("pool")
            .install(|| {
                let _: Vec<()> = vec![0u32; 8]
                    .into_par_iter()
                    .map(|_| {
                        let _s = span("work");
                        counter("jobs", 1);
                    })
                    .collect();
            });
        let p = take();
        disable();
        assert_eq!(p.counters.get("jobs"), Some(&8));
        assert_eq!(p.spans.len(), 8);
    }

    #[test]
    fn json_and_chrome_emit_expected_shapes() {
        let _g = exclusive();
        enable();
        counter("c\"quoted", 1);
        observe("h", 42);
        {
            let _s = span("stage");
        }
        let p = take();
        disable();
        let j = p.to_json();
        assert!(j.starts_with("{\"counters\":{"));
        assert!(j.contains("\\\"quoted"));
        assert!(j.contains("\"spans\":["));
        let t = p.to_chrome_trace();
        assert!(t.starts_with("{\"traceEvents\":["));
        assert!(t.contains("\"ph\":\"X\""));
        assert!(t.contains("\"ph\":\"C\""));
        assert!(t.ends_with("}\n"));
    }

    #[test]
    fn spans_outside_a_trace_stay_untraced() {
        let _g = exclusive();
        enable();
        {
            let _s = span("plain");
        }
        let p = take();
        disable();
        let s = &p.spans[0];
        assert_eq!((s.trace_id, s.span_id, s.parent_id), (0, 0, 0));
        assert!(!p.to_chrome_trace().contains("\"args\":{\"trace_id\""));
    }

    #[test]
    fn with_trace_builds_a_connected_span_tree() {
        let _g = exclusive();
        enable();
        let ctx = TraceCtx::mint();
        with_trace(ctx, || {
            let outer = span("request");
            let outer_id = outer.ctx().span_id;
            assert_ne!(outer_id, 0);
            {
                let inner = span("compute");
                assert_eq!(inner.ctx().trace_id, ctx.trace_id);
            }
            // After the inner span closes, its parent is current again.
            assert_eq!(current_trace().span_id, outer_id);
        });
        assert!(current_trace().is_none(), "context restored after scope");
        let p = take();
        disable();
        let outer = p.spans.iter().find(|s| s.name == "request").unwrap();
        let inner = p.spans.iter().find(|s| s.name == "compute").unwrap();
        assert_eq!(outer.trace_id, ctx.trace_id);
        assert_eq!(outer.parent_id, 0, "root span has no parent");
        assert_eq!(inner.parent_id, outer.span_id, "child links to parent");
        let t = p.to_chrome_trace();
        assert!(t.contains(&format!("\"trace_id\":{}", ctx.trace_id)));
    }

    #[test]
    fn record_span_at_joins_a_minted_trace() {
        let _g = exclusive();
        enable();
        let ctx = TraceCtx {
            trace_id: TraceCtx::mint().trace_id,
            span_id: next_span_id(),
        };
        let start = Instant::now();
        record_span_at("serve.request", ctx, 0, start, 125);
        let p = take();
        disable();
        let s = &p.spans[0];
        assert_eq!(s.name, "serve.request");
        assert_eq!(s.trace_id, ctx.trace_id);
        assert_eq!(s.span_id, ctx.span_id);
        assert_eq!(s.dur_us, 125);
    }

    #[test]
    fn take_resets_epoch_between_windows() {
        let _g = exclusive();
        enable();
        counter("first", 1);
        let p1 = take();
        counter("second", 1);
        let p2 = take();
        disable();
        assert!(p1.counters.contains_key("first") && !p1.counters.contains_key("second"));
        assert!(p2.counters.contains_key("second") && !p2.counters.contains_key("first"));
    }
}

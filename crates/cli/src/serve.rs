//! `incore-cli serve` — analysis as a service.
//!
//! A zero-dependency long-running front end over the same evaluation
//! path as `analyze --json`: newline-delimited JSON over TCP (see
//! [`crate::proto`]), a **sharded worker pool** on the vendored rayon
//! scope, **request coalescing** (identical in-flight work computed
//! once, every waiter answered from the one result), a **bounded LRU
//! response cache** in front of the workers, and **bounded queues with
//! explicit backpressure** — a full shard queue answers immediately
//! with a machine-readable `overloaded` error and a retry hint instead
//! of queueing without bound.
//!
//! ## Telemetry
//!
//! All serving statistics live in one [`obs::registry::Registry`]
//! (`Telemetry`): counters and gauges are updated lock-free on the
//! hot path, and every `metrics` response, Prometheus scrape, and exit
//! summary is rendered from a single **consistent snapshot**, so
//! cross-counter accounting invariants (`requests >= analyze >=
//! response_hits + response_misses`, `response_misses >= coalesced`,
//! `requests >= ok + errors + overloaded`) hold in every observation —
//! no torn field-by-field reads. Beside the registry sit rolling
//! 10s/1m/5m windows ([`obs::timeseries`]) and a severity-tagged event
//! journal ([`obs::journal`]) drained by the `events` request.
//!
//! When the global obs recorder is on (`serve --trace <file>`, or a
//! test harness calling [`obs::enable`]), every `analyze` request mints
//! an [`obs::TraceCtx`] that follows it through the response cache, the
//! coalescer, the shard queue, and the worker's compute call — so the
//! predictor spans `engine` already emits nest under one connected,
//! causally-ordered span tree per request in the Chrome-trace output.
//! A request carrying `"trace":true` gets its `trace_id` echoed on the
//! response envelope.
//!
//! A connection whose **first** line starts with `GET ` is served one
//! Prometheus text exposition of the full registry (plus cache/disk
//! gauges) and closed: `curl http://addr/metrics` works against the
//! NDJSON port with no HTTP stack on either side.
//!
//! ## Determinism contract
//!
//! The `report` bytes of a served `analyze` response are exactly
//! [`crate::analyze_report_json`] for the same kernel/machine/flags —
//! the single-shot `analyze --json` report with the wall-clock timing
//! stamp zeroed. That is what makes coalescing and caching safe: a
//! response computed once and shared (or replayed from the cache) is
//! byte-identical to one computed fresh, so clients cannot observe
//! whether they were coalesced. Telemetry never alters response bytes:
//! tracing adds envelope metadata only when explicitly requested, and
//! coalesce/cache statistics are visible only through the `metrics`
//! request.
//!
//! ## Shutdown
//!
//! A `shutdown` request is acknowledged, the listener stops accepting,
//! every connection's read half is shut down (in-flight requests keep
//! draining), the shard queues run dry, and `serve_on` returns a
//! [`ServeSummary`]. No signals involved.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use engine::KeyedMachine;
use obs::journal::{Journal, Severity};
use obs::registry::{CounterId, GaugeId, HistId, Registry};
use obs::timeseries::{WindowedCounter, WindowedHistogram, WINDOWS};

use crate::proto::{self, AnalyzeRequest, FrameReader, Request};
use crate::{AnalyzeFlags, AnalyzePredictors, Error, ErrorKind, MachineRef, MachineSel};

/// Suggested client backoff on an `overloaded` rejection.
const RETRY_AFTER_MS: u64 = 50;

/// Outbound per-connection frame buffer (the reader blocks, applying
/// backpressure, once a client stops draining its responses).
const OUTBOUND_FRAMES: usize = 8;

/// Journal ring capacity (events retained for the `events` request).
const JOURNAL_CAP: usize = 256;

/// Pause after a failed `accept()` (e.g. the process is out of fds).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Options of `incore-cli serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// Bind address; port 0 picks a free port (printed on startup).
    pub addr: String,
    /// Worker threads = shards; 0 = all available cores.
    pub threads: usize,
    /// Per-shard job queue capacity (the backpressure bound).
    pub queue: usize,
    /// Capacity of the response LRU and the kernel/machine caches.
    pub cache: usize,
    /// Maximum request frame size in bytes.
    pub max_request_bytes: usize,
    /// Artificial per-job delay in milliseconds (deterministic
    /// backpressure in tests and load generation; 0 = off).
    pub throttle_ms: u64,
    /// Default machine for `analyze` requests that name none — the same
    /// `--arch`/`--model`/`--machine-file` selection every subcommand
    /// takes.
    pub sel: MachineSel,
    /// Persist computed responses under this directory (content-addressed,
    /// bounded by `cache` entries) and replay them across server restarts.
    pub cache_dir: Option<String>,
    /// Journal a `slow_request` warning for jobs serviced slower than
    /// this many milliseconds (0 = off).
    pub slow_ms: u64,
    /// Enable the obs recorder for the server's lifetime and write a
    /// Chrome trace (with per-request span trees) to this path on exit.
    pub trace: Option<String>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            queue: 64,
            cache: 1024,
            max_request_bytes: proto::DEFAULT_MAX_REQUEST_BYTES,
            throttle_ms: 0,
            sel: MachineSel::default(),
            cache_dir: None,
            slow_ms: 1000,
            trace: None,
        }
    }
}

/// Totals of one server lifetime, rendered when `serve` exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    pub requests: u64,
    pub analyze: u64,
    pub ok: u64,
    pub errors: u64,
    pub overloaded: u64,
    pub coalesced: u64,
    pub response_hits: u64,
    pub response_misses: u64,
}

impl ServeSummary {
    pub fn render(&self) -> String {
        format!(
            "served {} request(s): {} analyze ({} ok, {} failed, {} overloaded), \
             {} coalesced, response cache {} hit(s) / {} miss(es)\n",
            self.requests,
            self.analyze,
            self.ok,
            self.errors,
            self.overloaded,
            self.coalesced,
            self.response_hits,
            self.response_misses
        )
    }
}

/// Identity of one served analysis: the [`engine::Key`] plus the label,
/// which the served report embeds. Two requests with equal keys have
/// byte-identical responses, which is the licence for coalescing and
/// caching.
type ServeKey = (engine::Key, String);

struct Waiter {
    id: u64,
    tx: SyncSender<String>,
    /// This request's trace context ([`obs::TraceCtx::NONE`] when the
    /// recorder is off); `span_id` is the pre-minted root span id.
    ctx: obs::TraceCtx,
    /// Submit-time instant, closing the root span at delivery.
    t0: Instant,
    /// Echo `trace_id` on the response envelope.
    want_trace: bool,
}

struct Pending {
    /// The machine submit resolved.
    machine: Arc<KeyedMachine>,
    flags: AnalyzeFlags,
    /// The leader's trace context: the worker computes under it, so the
    /// shared predictor spans belong to the first requester's tree.
    ctx: obs::TraceCtx,
    waiters: Vec<Waiter>,
}

enum Job {
    Run(ServeKey),
    Stop,
}

struct Shard {
    tx: SyncSender<Job>,
    inflight: Mutex<HashMap<ServeKey, Pending>>,
}

/// The serve counters, named once. Each variant maps to a registry slot
/// and the obs-recorder mirror name (the counter glossary in README).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctr {
    Requests,
    Analyze,
    Ok,
    Errors,
    Overloaded,
    Coalesced,
    ResponseHits,
    ResponseMisses,
    ResponseEvictions,
    Scrapes,
}

impl Ctr {
    const ALL: [Ctr; 10] = [
        Ctr::Requests,
        Ctr::Analyze,
        Ctr::Ok,
        Ctr::Errors,
        Ctr::Overloaded,
        Ctr::Coalesced,
        Ctr::ResponseHits,
        Ctr::ResponseMisses,
        Ctr::ResponseEvictions,
        Ctr::Scrapes,
    ];

    fn name(self) -> &'static str {
        match self {
            Ctr::Requests => "serve.requests",
            Ctr::Analyze => "serve.analyze",
            Ctr::Ok => "serve.ok",
            Ctr::Errors => "serve.errors",
            Ctr::Overloaded => "serve.overloaded",
            Ctr::Coalesced => "serve.coalesced",
            Ctr::ResponseHits => "serve.response_hits",
            Ctr::ResponseMisses => "serve.response_misses",
            Ctr::ResponseEvictions => "serve.response_evictions",
            Ctr::Scrapes => "serve.scrapes",
        }
    }
}

/// Rolling 1-second ring buffers behind the `windows` metrics block.
struct Windows {
    requests: WindowedCounter,
    errors: WindowedCounter,
    analyze: WindowedCounter,
    hits: WindowedCounter,
    misses: WindowedCounter,
    coalesced: WindowedCounter,
    service: WindowedHistogram,
}

impl Windows {
    fn new() -> Windows {
        Windows {
            requests: WindowedCounter::new(),
            errors: WindowedCounter::new(),
            analyze: WindowedCounter::new(),
            hits: WindowedCounter::new(),
            misses: WindowedCounter::new(),
            coalesced: WindowedCounter::new(),
            service: WindowedHistogram::new(),
        }
    }

    /// One window's JSON object (rates guarded against empty windows,
    /// so the output never contains NaN).
    fn render(&self, now_s: u64, secs: u64) -> String {
        let requests = self.requests.sum(now_s, secs);
        let errors = self.errors.sum(now_s, secs);
        let analyze = self.analyze.sum(now_s, secs);
        let hits = self.hits.sum(now_s, secs);
        let lookups = hits + self.misses.sum(now_s, secs);
        let coalesced = self.coalesced.sum(now_s, secs);
        let h = self.service.merged(now_s, secs);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        format!(
            concat!(
                "{{\"requests_per_s\":{:.4},\"error_rate\":{:.4}",
                ",\"service_p50_us\":{},\"service_p99_us\":{}",
                ",\"cache_hit_rate\":{:.4},\"coalesce_rate\":{:.4}}}"
            ),
            requests as f64 / secs as f64,
            ratio(errors, requests),
            h.quantile(0.50),
            h.quantile(0.99),
            ratio(hits, lookups),
            ratio(coalesced, analyze),
        )
    }
}

/// All serving telemetry: the counter registry (consistent snapshots),
/// the rolling windows, and the event journal.
struct Telemetry {
    reg: Registry,
    counters: [CounterId; Ctr::ALL.len()],
    queue_depth: GaugeId,
    queue_peak: GaugeId,
    service_us: HistId,
    start: Instant,
    windows: Mutex<Windows>,
    journal: Mutex<Journal>,
}

impl Telemetry {
    fn new() -> Telemetry {
        let mut reg = Registry::new();
        let counters = Ctr::ALL.map(|c| reg.counter(c.name()));
        let queue_depth = reg.gauge("serve.queue_depth");
        let queue_peak = reg.gauge("serve.queue_peak");
        let service_us = reg.histogram("serve.service_time_us");
        Telemetry {
            reg,
            counters,
            queue_depth,
            queue_peak,
            service_us,
            start: Instant::now(),
            windows: Mutex::new(Windows::new()),
            journal: Mutex::new(Journal::new(JOURNAL_CAP)),
        }
    }

    fn now_s(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Bump a counter everywhere it is observable: the registry slot,
    /// the obs-recorder mirror (when profiling), and the rolling window
    /// that feeds the 10s/1m/5m rates.
    fn bump(&self, c: Ctr, delta: u64) {
        self.reg.add(self.counters[c as usize], delta);
        if obs::enabled() {
            obs::counter(c.name(), delta);
        }
        let now = self.now_s();
        let mut w = self.windows.lock().expect("windows poisoned");
        match c {
            Ctr::Requests => w.requests.record(now, delta),
            Ctr::Errors => w.errors.record(now, delta),
            Ctr::Analyze => w.analyze.record(now, delta),
            Ctr::ResponseHits => w.hits.record(now, delta),
            Ctr::ResponseMisses => w.misses.record(now, delta),
            Ctr::Coalesced => w.coalesced.record(now, delta),
            _ => {}
        }
    }

    /// Record one job's service time (registry histogram, obs mirror,
    /// rolling window).
    fn service(&self, us: u64) {
        self.reg.observe(self.service_us, us);
        if obs::enabled() {
            obs::observe("serve.service_time_us", us);
        }
        let now = self.now_s();
        self.windows
            .lock()
            .expect("windows poisoned")
            .service
            .record(now, us);
    }

    /// Append a journal event.
    fn event(&self, severity: Severity, kind: &str, message: &str, fields: Vec<(String, String)>) {
        self.journal
            .lock()
            .expect("journal poisoned")
            .push(severity, kind, message, fields);
    }
}

/// Microseconds elapsed since `t`, saturating.
fn elapsed_us(t: Instant) -> u64 {
    t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Mint this request's trace identity: a fresh trace with a pre-built
/// root span id, or [`obs::TraceCtx::NONE`] while the recorder is off.
fn mint_request_ctx() -> obs::TraceCtx {
    if !obs::enabled() {
        return obs::TraceCtx::NONE;
    }
    obs::TraceCtx {
        trace_id: obs::TraceCtx::mint().trace_id,
        span_id: obs::next_span_id(),
    }
}

/// Close a request's root span (recorded explicitly because submit and
/// delivery can happen on different threads).
fn close_request_span(w: &Waiter) {
    if w.ctx.is_none() {
        return;
    }
    obs::record_span_at("serve.request", w.ctx, 0, w.t0, elapsed_us(w.t0));
}

/// Record a leaf span under a request's root covering its whole wait
/// (cache hits and coalesced followers — work they did not compute).
fn mark_request_child(w: &Waiter, name: &str) {
    if w.ctx.is_none() {
        return;
    }
    let child = obs::TraceCtx {
        trace_id: w.ctx.trace_id,
        span_id: obs::next_span_id(),
    };
    obs::record_span_at(name, child, w.ctx.span_id, w.t0, elapsed_us(w.t0));
}

struct Shared {
    opts: ServeOpts,
    addr: SocketAddr,
    shards: Vec<Shard>,
    /// Bounded kernel/machine memo shared across requests.
    cache: engine::CorpusCache,
    /// Bounded response memo: key → report JSON (no trailing newline).
    responses: Mutex<engine::Lru<ServeKey, Arc<String>>>,
    /// Persistent record store (`--cache-dir`), the same one `validate
    /// --cache-dir` fills: records surviving restarts. Probed by workers
    /// on an LRU miss, so warm disk entries skip the whole evaluation.
    disk: Option<engine::DiskCache>,
    telemetry: Telemetry,
    draining: AtomicBool,
    /// Read halves of live connections by connection id, shut down on
    /// drain. Each connection thread removes its own entry on exit.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.telemetry.event(
            Severity::Info,
            "drain",
            "shutdown requested; draining in-flight work",
            Vec::new(),
        );
        for conn in self.conns.lock().expect("conn registry poisoned").values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    fn summary(&self) -> ServeSummary {
        let snap = self.telemetry.reg.snapshot();
        ServeSummary {
            requests: snap.counter(Ctr::Requests.name()),
            analyze: snap.counter(Ctr::Analyze.name()),
            ok: snap.counter(Ctr::Ok.name()),
            errors: snap.counter(Ctr::Errors.name()),
            overloaded: snap.counter(Ctr::Overloaded.name()),
            coalesced: snap.counter(Ctr::Coalesced.name()),
            response_hits: snap.counter(Ctr::ResponseHits.name()),
            response_misses: snap.counter(Ctr::ResponseMisses.name()),
        }
    }

    /// The versioned `metrics` response body (schema
    /// [`proto::METRICS_SCHEMA_VERSION`]): request counters, cache
    /// hit/miss/eviction counts and hit rates, queue depth against its
    /// bound, the service-time distribution, the rolling 10s/1m/5m
    /// windows, and the journal cursors. Every request-counter value
    /// comes from one consistent registry snapshot, so the accounting
    /// invariants hold in every response.
    fn metrics_json(&self) -> String {
        let snap = self.telemetry.reg.snapshot();
        let s = self.cache.stats();
        let ev = self.cache.evictions();
        let hits = snap.counter(Ctr::ResponseHits.name());
        let misses = snap.counter(Ctr::ResponseMisses.name());
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        let analyze = snap.counter(Ctr::Analyze.name());
        let coalesced = snap.counter(Ctr::Coalesced.name());
        let coalesce_rate = if analyze == 0 {
            0.0
        } else {
            coalesced as f64 / analyze as f64
        };
        let h = snap
            .hist("serve.service_time_us")
            .cloned()
            .unwrap_or_default();
        let disk = self.disk.as_ref().map(|d| d.stats()).unwrap_or_default();
        let now_s = self.telemetry.now_s();
        let windows = {
            let w = self.telemetry.windows.lock().expect("windows poisoned");
            let mut out = String::from("{");
            for (i, (label, secs)) in WINDOWS.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{label}\":{}", w.render(now_s, *secs)));
            }
            out.push('}');
            out
        };
        let journal = {
            let j = self.telemetry.journal.lock().expect("journal poisoned");
            format!(
                "{{\"retained\":{},\"dropped\":{},\"next_seq\":{}}}",
                j.len(),
                j.dropped(),
                j.next_seq()
            )
        };
        format!(
            concat!(
                "{{\"schema_version\":{}",
                ",\"workers\":{},\"shards\":{}",
                ",\"requests\":{{\"total\":{},\"analyze\":{},\"ok\":{},\"errors\":{}",
                ",\"overloaded\":{},\"coalesced\":{},\"coalesce_rate\":{:.4}}}",
                ",\"cache\":{{\"response_hits\":{},\"response_misses\":{}",
                ",\"response_evictions\":{},\"hit_rate\":{:.4}",
                ",\"kernel_hits\":{},\"kernel_misses\":{},\"kernel_evictions\":{}",
                ",\"machine_hits\":{},\"machine_misses\":{},\"machine_evictions\":{}}}",
                ",\"disk\":{{\"enabled\":{},\"hits\":{},\"misses\":{},\"writes\":{}",
                ",\"evictions\":{},\"stale\":{},\"corrupt\":{},\"hit_rate\":{:.4}}}",
                ",\"queue\":{{\"capacity\":{},\"depth\":{},\"peak_depth\":{}}}",
                ",\"service_time_us\":{{\"count\":{},\"mean\":{:.3},\"p50\":{},\"p99\":{},\"max\":{}}}",
                ",\"uptime_s\":{}",
                ",\"windows\":{}",
                ",\"journal\":{}",
                "}}"
            ),
            proto::METRICS_SCHEMA_VERSION,
            self.shards.len(),
            self.shards.len(),
            snap.counter(Ctr::Requests.name()),
            analyze,
            snap.counter(Ctr::Ok.name()),
            snap.counter(Ctr::Errors.name()),
            snap.counter(Ctr::Overloaded.name()),
            coalesced,
            coalesce_rate,
            hits,
            misses,
            snap.counter(Ctr::ResponseEvictions.name()),
            hit_rate,
            s.kernel_hits,
            s.kernel_misses,
            ev.kernel_evictions,
            s.machine_hits,
            s.machine_misses,
            ev.machine_evictions,
            self.disk.is_some(),
            disk.hits,
            disk.misses,
            disk.writes,
            disk.evictions,
            disk.stale,
            disk.corrupt,
            disk.hit_rate(),
            self.opts.queue * self.shards.len(),
            snap.gauge("serve.queue_depth"),
            snap.gauge("serve.queue_peak"),
            h.count,
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.99),
            if h.count == 0 { 0 } else { h.max },
            now_s,
            windows,
            journal,
        )
    }

    /// The `events` response body: journal entries newer than `since`,
    /// oldest first, plus the cursors a poller needs to resume and to
    /// detect ring overflow.
    fn events_json(&self, since: u64) -> String {
        let j = self.telemetry.journal.lock().expect("journal poisoned");
        let mut out = format!(
            "{{\"next_seq\":{},\"dropped\":{},\"events\":[",
            j.next_seq(),
            j.dropped()
        );
        for (i, e) in j.events_since(since).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Prometheus text exposition of everything: the registry snapshot
    /// plus the cache/disk/uptime values that live outside it.
    fn prometheus_text(&self) -> String {
        let mut out = self.telemetry.reg.snapshot().render_prometheus("incore");
        let mut counter = |name: &str, v: u64| {
            out.push_str(&format!(
                "# TYPE incore_{name}_total counter\nincore_{name}_total {v}\n"
            ));
        };
        let s = self.cache.stats();
        let ev = self.cache.evictions();
        counter("serve_kernel_cache_hits", s.kernel_hits);
        counter("serve_kernel_cache_misses", s.kernel_misses);
        counter("serve_kernel_cache_evictions", ev.kernel_evictions);
        counter("serve_machine_cache_hits", s.machine_hits);
        counter("serve_machine_cache_misses", s.machine_misses);
        counter("serve_machine_cache_evictions", ev.machine_evictions);
        let disk = self.disk.as_ref().map(|d| d.stats()).unwrap_or_default();
        counter("serve_disk_hits", disk.hits);
        counter("serve_disk_misses", disk.misses);
        counter("serve_disk_writes", disk.writes);
        counter("serve_disk_evictions", disk.evictions);
        counter("serve_disk_stale", disk.stale);
        counter("serve_disk_corrupt", disk.corrupt);
        let mut gauge = |name: &str, v: u64| {
            out.push_str(&format!("# TYPE incore_{name} gauge\nincore_{name} {v}\n"));
        };
        gauge("serve_disk_enabled", self.disk.is_some() as u64);
        gauge("serve_workers", self.shards.len() as u64);
        gauge(
            "serve_queue_capacity",
            (self.opts.queue * self.shards.len()) as u64,
        );
        gauge("serve_uptime_seconds", self.telemetry.now_s());
        out
    }
}

/// Resolve the request's machine at submit time, so a bad name or an
/// unreadable file fails fast. A registry model is built on its first
/// request and kept for the process's life; a machine file is read per
/// request and imported through the bounded machine cache. Either way the
/// fingerprint is computed once, on first use, never at server start.
fn resolve_machine(shared: &Shared, sel: &MachineSel) -> Result<Arc<KeyedMachine>, Error> {
    static MODELS: Mutex<BTreeMap<String, Arc<KeyedMachine>>> = Mutex::new(BTreeMap::new());
    match sel.chosen()? {
        MachineRef::Model(id) => {
            let mut models = MODELS.lock().expect("model memo poisoned");
            if let Some(m) = models.get(id) {
                return Ok(m.clone());
            }
            let machine = uarch::registry::machine(id)
                .ok_or_else(|| Error::usage(format!("unknown registry id `{id}`")))?;
            let m = Arc::new(KeyedMachine::new(machine));
            models.insert(id.clone(), m.clone());
            Ok(m)
        }
        MachineRef::File(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| Error::io(path.as_str(), &e))?;
            shared.cache.machine(&json)
        }
    }
}

/// Deliver a response frame without stalling the shard: try the
/// bounded outbound queue first and fall back to a detached blocking
/// sender for a slow-but-alive reader. At most queue-capacity jobs are
/// in flight per shard, so the fallback threads are bounded too.
fn deliver(tx: &SyncSender<String>, frame: String) {
    match tx.try_send(frame) {
        Ok(()) => {}
        Err(TrySendError::Full(frame)) => {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send(frame);
            });
        }
        Err(TrySendError::Disconnected(_)) => {}
    }
}

/// Run one analysis: replay its record from the persistent store, or
/// evaluate it (kernel through the bounded kernel cache) and store it.
/// Either way the report takes the same deterministic path as `analyze
/// --json` (timings zeroed).
fn compute(
    shared: &Shared,
    (key, label): &ServeKey,
    machine: &uarch::Machine,
    flags: AnalyzeFlags,
) -> Result<String, Error> {
    let labels = engine::BlockLabels {
        kernel: label,
        ..Default::default()
    };
    if let Some(record) = shared
        .disk
        .as_ref()
        .and_then(|d| d.get(key, labels, machine.chip))
    {
        return Ok(AnalyzePredictors::new(flags)
            .report(machine, record)
            .to_json());
    }
    let kernel = shared
        .cache
        .kernel(&key.text, machine.isa)
        .map_err(|e| e.with_context(label.as_str()))?;
    let (report, _timings) = crate::analyze_report(machine, label, &kernel, flags);
    if let Some(disk) = &shared.disk {
        disk.put(key, &report.records[0]);
    }
    Ok(report.to_json())
}

fn worker(shared: &Shared, index: usize, rx: Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        let key = match job {
            Job::Stop => break,
            Job::Run(key) => key,
        };
        shared
            .telemetry
            .reg
            .gauge_sub(shared.telemetry.queue_depth, 1);
        let shard = &shared.shards[index];
        let (machine, flags, leader_ctx) = {
            let inflight = shard.inflight.lock().expect("inflight map poisoned");
            inflight
                .get(&key)
                .map(|p| (p.machine.clone(), p.flags, p.ctx))
                .expect("job enqueued under the inflight lock")
        };
        let start = Instant::now();
        let stale_before = shared.disk.as_ref().map(|d| d.stats().stale).unwrap_or(0);
        let run = || {
            if shared.opts.throttle_ms > 0 {
                std::thread::sleep(Duration::from_millis(shared.opts.throttle_ms));
            }
            compute(shared, &key, &machine.machine, flags)
        };
        // Compute under the leader's trace context so the predictor
        // spans engine emits nest inside this request's span tree.
        let result = if leader_ctx.is_none() {
            run()
        } else {
            obs::with_trace(leader_ctx, || {
                let _span = obs::span("serve.compute");
                run()
            })
        };
        let stale_after = shared.disk.as_ref().map(|d| d.stats().stale).unwrap_or(0);
        if stale_after > stale_before {
            shared.telemetry.event(
                Severity::Info,
                "disk_stale_healed",
                "stale persistent-cache entry recomputed and rewritten",
                vec![("label".to_string(), key.1.clone())],
            );
        }
        if let Ok(report) = &result {
            let evicted = shared
                .responses
                .lock()
                .expect("response cache poisoned")
                .insert(key.clone(), Arc::new(report.clone()));
            if evicted > 0 {
                shared.telemetry.bump(Ctr::ResponseEvictions, evicted);
                shared.telemetry.event(
                    Severity::Info,
                    "response_evicted",
                    "response LRU at capacity; oldest entries dropped",
                    vec![("evicted".to_string(), evicted.to_string())],
                );
            }
        }
        let waiters = shard
            .inflight
            .lock()
            .expect("inflight map poisoned")
            .remove(&key)
            .map(|p| p.waiters)
            .unwrap_or_default();
        for (i, w) in waiters.iter().enumerate() {
            let frame = match &result {
                Ok(report) => {
                    let echo = if w.want_trace { w.ctx.trace_id } else { 0 };
                    proto::render_analyze_ok_traced(w.id, echo, report)
                }
                Err(e) => proto::render_error(w.id, e),
            };
            deliver(&w.tx, frame);
            if i > 0 {
                // Followers did not compute: their tree is the root plus
                // a leaf covering the coalesced wait.
                mark_request_child(w, "serve.coalesced");
            }
            close_request_span(w);
        }
        let n = waiters.len() as u64;
        match &result {
            Ok(_) => shared.telemetry.bump(Ctr::Ok, n),
            Err(_) => shared.telemetry.bump(Ctr::Errors, n),
        }
        let us = elapsed_us(start);
        shared.telemetry.service(us);
        if shared.opts.slow_ms > 0 && us / 1000 >= shared.opts.slow_ms {
            shared.telemetry.event(
                Severity::Warn,
                "slow_request",
                "job serviced slower than the slow-request threshold",
                vec![
                    ("label".to_string(), key.1.clone()),
                    ("ms".to_string(), (us / 1000).to_string()),
                ],
            );
        }
    }
}

/// Route an `analyze` request: response cache, then coalesce onto an
/// identical in-flight computation, then enqueue — or reject with an
/// explicit `overloaded` error when the shard's bounded queue is full.
fn submit(shared: &Shared, conn_tx: &SyncSender<String>, req: AnalyzeRequest) {
    shared.telemetry.bump(Ctr::Analyze, 1);
    let waiter = Waiter {
        id: req.id,
        tx: conn_tx.clone(),
        ctx: mint_request_ctx(),
        t0: Instant::now(),
        want_trace: req.trace,
    };
    let sel = if req.sel.is_empty() {
        &shared.opts.sel
    } else {
        &req.sel
    };
    let machine = match resolve_machine(shared, sel) {
        Ok(m) => m,
        Err(e) => {
            shared.telemetry.bump(Ctr::Errors, 1);
            let _ = conn_tx.send(proto::render_error(req.id, &e));
            return;
        }
    };
    let key = (
        AnalyzePredictors::new(req.flags).key(machine.fingerprint(), req.asm),
        req.label,
    );
    if let Some(report) = shared
        .responses
        .lock()
        .expect("response cache poisoned")
        .get(&key)
    {
        shared.telemetry.bump(Ctr::ResponseHits, 1);
        shared.telemetry.bump(Ctr::Ok, 1);
        let echo = if waiter.want_trace {
            waiter.ctx.trace_id
        } else {
            0
        };
        let _ = conn_tx.send(proto::render_analyze_ok_traced(req.id, echo, &report));
        mark_request_child(&waiter, "serve.cache_hit");
        close_request_span(&waiter);
        return;
    }
    shared.telemetry.bump(Ctr::ResponseMisses, 1);
    let shard_index = key.0.shard(&key.1, shared.shards.len());
    let shard = &shared.shards[shard_index];
    // The inflight lock is held across the queue submission: a worker
    // cannot observe (and answer) the job before its entry exists, and
    // a coalescing request cannot land between the try_send and the
    // insert.
    let mut inflight = shard.inflight.lock().expect("inflight map poisoned");
    if let Some(pending) = inflight.get_mut(&key) {
        shared.telemetry.bump(Ctr::Coalesced, 1);
        pending.waiters.push(waiter);
        return;
    }
    // The depth gauge must rise before the job is visible to a worker:
    // the worker's decrement on dequeue would otherwise race ahead of
    // the increment and drive the gauge below zero.
    let depth = shared
        .telemetry
        .reg
        .gauge_add_fetch(shared.telemetry.queue_depth, 1);
    shared
        .telemetry
        .reg
        .gauge_max(shared.telemetry.queue_peak, depth);
    match shard.tx.try_send(Job::Run(key.clone())) {
        Ok(()) => {
            let ctx = waiter.ctx;
            inflight.insert(
                key,
                Pending {
                    machine,
                    flags: req.flags,
                    ctx,
                    waiters: vec![waiter],
                },
            );
        }
        Err(_) => {
            // Full (backpressure) or disconnected (drain already passed
            // the Stop sentinel): either way, an explicit retry hint
            // instead of unbounded queueing.
            shared
                .telemetry
                .reg
                .gauge_sub(shared.telemetry.queue_depth, 1);
            shared.telemetry.bump(Ctr::Overloaded, 1);
            shared.telemetry.event(
                Severity::Warn,
                "overloaded",
                "shard queue full; request rejected with a retry hint",
                vec![
                    ("shard".to_string(), shard_index.to_string()),
                    ("retry_after_ms".to_string(), RETRY_AFTER_MS.to_string()),
                ],
            );
            let _ = conn_tx.send(proto::render_error(
                req.id,
                &Error::overloaded(RETRY_AFTER_MS),
            ));
        }
    }
}

fn handle(shared: &Shared, conn_tx: &SyncSender<String>, line: &str) {
    shared.telemetry.bump(Ctr::Requests, 1);
    match proto::parse_request(line) {
        Err(e) => {
            shared.telemetry.bump(Ctr::Errors, 1);
            let _ = conn_tx.send(proto::render_error(0, &e));
        }
        Ok(Request::Ping { id }) => {
            let _ = conn_tx.send(proto::render_pong(id));
        }
        Ok(Request::Metrics { id }) => {
            let _ = conn_tx.send(proto::render_metrics(id, &shared.metrics_json()));
        }
        Ok(Request::Events { id, since }) => {
            let _ = conn_tx.send(proto::render_events(id, &shared.events_json(since)));
        }
        Ok(Request::Shutdown { id }) => {
            let _ = conn_tx.send(proto::render_shutdown_ack(id));
            shared.begin_drain();
        }
        Ok(Request::Analyze(req)) => submit(shared, conn_tx, req),
    }
}

/// Answer a Prometheus scrape: the peer spoke HTTP (`GET ...`) on the
/// NDJSON port. Drain the header lines (blank line = end of request),
/// send one self-framed HTTP/1.0 response, and let the connection
/// close. Scrapes are counted separately from protocol requests.
fn scrape<R: BufRead>(shared: &Shared, frames: &mut FrameReader<R>, tx: &SyncSender<String>) {
    loop {
        match frames.next_frame() {
            Ok(Some(header)) if !header.is_empty() => continue,
            _ => break,
        }
    }
    shared.telemetry.bump(Ctr::Scrapes, 1);
    let body = shared.prometheus_text();
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = tx.send(response);
}

/// Serve one connection: a reader parsing frames and submitting work,
/// plus a writer draining the bounded outbound queue, so responses
/// (including coalesced ones computed on another connection's request)
/// never interleave mid-frame. Returns when the peer closes, the read
/// half is shut down by a drain, or the socket errors.
fn connection(shared: &Shared, stream: TcpStream) {
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::sync_channel::<String>(OUTBOUND_FRAMES);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut w = BufWriter::new(writer_stream);
            while let Ok(frame) = rx.recv() {
                if w.write_all(frame.as_bytes()).is_err() || w.flush().is_err() {
                    break;
                }
            }
        });
        let mut frames = FrameReader::new(BufReader::new(&stream), shared.opts.max_request_bytes);
        let mut first = true;
        loop {
            match frames.next_frame() {
                Ok(None) => break,
                Ok(Some(line)) if first && line.starts_with("GET ") => {
                    scrape(shared, &mut frames, &tx);
                    break;
                }
                Ok(Some(line)) => {
                    first = false;
                    handle(shared, &tx, &line);
                }
                Err(e) if e.kind() == ErrorKind::Io => break,
                Err(e) => {
                    // Oversized / non-UTF-8 frame: answer and keep the
                    // connection (the reader already resynced).
                    first = false;
                    shared.telemetry.bump(Ctr::Requests, 1);
                    shared.telemetry.bump(Ctr::Errors, 1);
                    let _ = tx.send(proto::render_error(0, &e));
                }
            }
        }
        drop(tx);
        // The scope joins the writer once every waiter holding a sender
        // clone has delivered its response — the graceful-drain bound.
    });
    // The drain registry holds a clone of this stream until the caller
    // deregisters it, so dropping our handles does not close the socket.
    // Shut it down explicitly — HTTP scrapers read to EOF.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Run the server on an already-bound listener until a `shutdown`
/// request drains it. This is the whole lifetime: worker shards and
/// connection threads live in scopes, so returning proves everything
/// joined.
pub fn serve_on(listener: TcpListener, opts: ServeOpts) -> Result<ServeSummary, Error> {
    let addr = listener
        .local_addr()
        .map_err(|e| Error::io(opts.addr.as_str(), &e))?;
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.threads
    };
    let mut shards = Vec::with_capacity(threads);
    let mut receivers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (tx, rx) = mpsc::sync_channel::<Job>(opts.queue);
        shards.push(Shard {
            tx,
            inflight: Mutex::new(HashMap::new()),
        });
        receivers.push(rx);
    }
    let disk = match &opts.cache_dir {
        Some(dir) => Some(engine::DiskCache::open_bounded(dir.as_str(), opts.cache)?),
        None => None,
    };
    let shared = Shared {
        cache: engine::CorpusCache::bounded(opts.cache),
        responses: Mutex::new(engine::Lru::bounded(opts.cache)),
        disk,
        telemetry: Telemetry::new(),
        draining: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        addr,
        opts,
        shards,
    };
    shared.telemetry.event(
        Severity::Info,
        "listening",
        "server accepting connections",
        vec![
            ("addr".to_string(), addr.to_string()),
            ("workers".to_string(), threads.to_string()),
        ],
    );
    let shared = &shared;
    rayon::scope(|workers| {
        for (index, rx) in receivers.into_iter().enumerate() {
            workers.spawn(move || worker(shared, index, rx));
        }
        std::thread::scope(|conns| {
            for id in 0u64.. {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(_) => {
                        if shared.draining() {
                            break;
                        }
                        // Out of fds or a transient network error: back
                        // off instead of spinning on a failing accept.
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    }
                };
                if shared.draining() {
                    break;
                }
                if let Ok(read_half) = stream.try_clone() {
                    shared
                        .conns
                        .lock()
                        .expect("conn registry poisoned")
                        .insert(id, read_half);
                }
                conns.spawn(move || {
                    connection(shared, stream);
                    shared
                        .conns
                        .lock()
                        .expect("conn registry poisoned")
                        .remove(&id);
                });
            }
            // The scope joins every connection: all accepted requests
            // are answered (or rejected) before the workers stop.
        });
        for shard in &shared.shards {
            let _ = shard.tx.send(Job::Stop);
        }
    });
    Ok(shared.summary())
}

/// Bind and run the server in the foreground (the `incore-cli serve`
/// subcommand). Prints the bound address first so scripts driving
/// `--addr 127.0.0.1:0` can discover the port, then blocks until a
/// `shutdown` request drains the server. With `--trace <file>` the obs
/// recorder runs for the server's lifetime and the per-request span
/// trees land in a Chrome trace at that path — stdout is byte-identical
/// either way.
pub fn run_serve(opts: ServeOpts, out: &mut dyn Write) -> Result<ServeSummary, Error> {
    let trace_path = opts.trace.clone();
    if trace_path.is_some() {
        obs::enable();
    }
    let listener = TcpListener::bind(&opts.addr).map_err(|e| Error::io(opts.addr.as_str(), &e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| Error::io(opts.addr.as_str(), &e))?;
    writeln!(out, "listening on {addr}").map_err(|e| Error::io("<stdout>", &e))?;
    out.flush().map_err(|e| Error::io("<stdout>", &e))?;
    let summary = serve_on(listener, opts)?;
    if let Some(path) = trace_path {
        let profile = obs::take();
        obs::disable();
        std::fs::write(&path, profile.to_chrome_trace())
            .map_err(|e| Error::io(path.as_str(), &e))?;
    }
    write!(out, "{}", summary.render()).map_err(|e| Error::io("<stdout>", &e))?;
    Ok(summary)
}

/// An in-process server for tests and the load-generator bench: the
/// accept loop runs on its own thread, [`ServerHandle::shutdown`]
/// drives the drain protocol and returns the summary.
pub struct ServerHandle {
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<Result<ServeSummary, Error>>,
}

impl ServerHandle {
    pub fn start(opts: ServeOpts) -> Result<ServerHandle, Error> {
        let listener =
            TcpListener::bind(&opts.addr).map_err(|e| Error::io(opts.addr.as_str(), &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::io(opts.addr.as_str(), &e))?;
        let thread = std::thread::spawn(move || serve_on(listener, opts));
        Ok(ServerHandle { addr, thread })
    }

    /// Request a graceful drain and wait for the server to finish.
    pub fn shutdown(self) -> Result<ServeSummary, Error> {
        let stream = TcpStream::connect(self.addr).map_err(|e| Error::io("<shutdown>", &e))?;
        {
            let mut w = &stream;
            w.write_all(b"{\"type\":\"shutdown\"}\n")
                .map_err(|e| Error::io("<shutdown>", &e))?;
        }
        let mut ack = String::new();
        let _ = BufReader::new(&stream).read_line(&mut ack);
        drop(stream);
        self.thread
            .join()
            .map_err(|_| Error::protocol("server thread panicked"))?
    }
}

//! `serve-zipf`: a closed loop of two connections against an in-process
//! `cli::serve::ServerHandle`. Each client sends its next request only
//! after the previous reply. Requests are `analyze` calls (in-core + MCA,
//! simulator off), each a seeded Zipf-popular draw over the distinct
//! (corpus kernel, trio machine) pairs; every 50th request is a `metrics`
//! request. The response LRU holds fewer entries than there are keys, so
//! about nine in ten requests hit and the rest miss and evict. One op is
//! one round trip.
//!
//! Chosen so that `cli::serve`, `proto`, `obs::registry` and the bounded
//! `engine` caches carry most of the time, while `isa`, `incore` and `mca`
//! run one request at a time on misses only. `exec` and `memhier` do no
//! work here. The seed decides which keys are popular and the order of
//! each client's draws.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use cli::serve::{ServeOpts, ServerHandle};
use cli::{proto, AnalyzeFlags};
use uarch::{Machine, Predictor};

use crate::measure::{self, cpu_time, median, ms, Outcome, Rng, Window};
use crate::trace;

const TRIO: [&str; 3] = ["neoverse-v2", "golden-cove", "zen4"];
/// No more connections than the 2-core host has cores.
const CLIENTS: usize = 2;
/// Capacity of the response LRU (and the server's kernel and machine
/// caches): below the 416 distinct keys, so the popularity tail misses.
const CACHE: usize = 192;
/// Key popularity is Zipf-Mandelbrot, p(rank) ~ 1/(rank + ZIPF_Q)^ZIPF_S.
/// The offset flattens the head so that no single key carries much of the
/// load (the most popular takes about 4%, and about 70 keys share most of
/// it): the hit path's cost is then an average over many kernels, whichever
/// keys a seed makes popular. With `CACHE` the response hit share is near
/// 0.9.
const ZIPF_Q: f64 = 40.0;
const ZIPF_S: f64 = 2.5;
const METRICS_EVERY: usize = 50;
/// Requests per client before timing starts, so the LRU is full.
const WARMUP_REQUESTS: usize = 1500;
const SETUP_SAMPLES: usize = 9;
/// Throughput window of the timed phase.
const WINDOW: Duration = Duration::from_millis(500);
/// Length of each client's pre-drawn key sequence (cycled if exhausted).
const SEQ_LEN: usize = 1 << 17;

struct Key {
    label: String,
    asm: String,
    machine: Machine,
    /// The request line, newline-terminated.
    frame: String,
}

fn flags() -> AnalyzeFlags {
    AnalyzeFlags {
        mca: true,
        ..AnalyzeFlags::default()
    }
}

fn keys() -> Vec<Key> {
    let mut out = Vec::new();
    for id in TRIO {
        let machine = uarch::registry::machine(id).expect("trio id is registered");
        let n = kernels::variants_for(machine.arch).len();
        for block in kernels::volume::volume_blocks(machine.arch, n) {
            let label = block.variant.label();
            let asm = block.generate(&machine);
            let frame = format!(
                "{{\"type\":\"analyze\",\"id\":{},\"label\":{},\"asm\":{},\"model\":\"{id}\",\"mca\":true}}\n",
                out.len(),
                serde_json::to_string(&label).expect("label serializes"),
                serde_json::to_string(&asm).expect("asm serializes"),
            );
            out.push(Key {
                label,
                asm,
                machine: machine.clone(),
                frame,
            });
        }
    }
    out
}

/// Each client's key sequence: popularity ranks over a seeded permutation
/// of the keys, drawn from a per-client stream of the seed.
fn sequences(seed: u64, keys: usize) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed);
    let mut by_rank: Vec<u32> = (0..keys as u32).collect();
    rng.shuffle(&mut by_rank);
    let mut cumulative = Vec::with_capacity(keys);
    let mut total = 0.0;
    for r in 0..keys {
        total += 1.0 / ((r + 1) as f64 + ZIPF_Q).powf(ZIPF_S);
        cumulative.push(total);
    }
    (0..CLIENTS)
        .map(|_| {
            (0..SEQ_LEN)
                .map(|_| {
                    let u = rng.unit() * total;
                    let rank = cumulative.partition_point(|&c| c < u).min(keys - 1);
                    by_rank[rank]
                })
                .collect()
        })
        .collect()
}

fn opts() -> ServeOpts {
    ServeOpts {
        threads: 1,
        cache: CACHE,
        ..ServeOpts::default()
    }
}

/// The set-up being timed: `ServerHandle::start` up to its first reply.
fn start_server() -> (ServerHandle, f64) {
    let t0 = Instant::now();
    let server = ServerHandle::start(opts()).expect("server starts");
    let stream = TcpStream::connect(server.addr).expect("connect to server");
    (&stream)
        .write_all(b"{\"type\":\"ping\",\"id\":0}\n")
        .expect("send ping");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("read pong");
    let took = t0.elapsed().as_secs_f64();
    assert!(
        line.contains("\"pong\":true"),
        "unexpected ping reply: {line}"
    );
    (server, took)
}

#[derive(Default)]
struct Log {
    analyze_ms: Vec<f64>,
    ops: u64,
    failed: u64,
    /// Per key: the first report bytes this client saw, and how many
    /// timed responses carried that key.
    first: Vec<Option<String>>,
    count: Vec<u64>,
    /// Timed responses whose report differed from the key's first one.
    deviations: u64,
    /// Index into `analyze_ms` at each window edge.
    window_starts: Vec<usize>,
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    seq: Vec<u32>,
    next: usize,
    log: Log,
}

impl Client {
    fn connect(addr: std::net::SocketAddr, seq: Vec<u32>, keys: usize) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client {
            writer,
            reader,
            seq,
            next: 0,
            log: Log {
                first: vec![None; keys],
                count: vec![0; keys],
                ..Log::default()
            },
        }
    }

    fn round_trip(&mut self, frame: &str) -> String {
        self.writer
            .write_all(frame.as_bytes())
            .expect("send request");
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection");
        line
    }

    fn metrics(&mut self) -> serde::Value {
        let line = self.round_trip("{\"type\":\"metrics\",\"id\":0}\n");
        let v: serde::Value = serde_json::from_str(line.trim_end()).expect("metrics reply parses");
        v.as_object()
            .and_then(|o| o.get("metrics"))
            .cloned()
            .expect("metrics reply carries a metrics object")
    }

    /// One op: the next request of this client's sequence. An `analyze`
    /// refused as `overloaded` is retried after the server's hint and the
    /// op counts as failed.
    fn step(&mut self, keys: &[Key], record: bool, traced: bool) {
        let i = self.next;
        self.next += 1;
        if i % METRICS_EVERY == METRICS_EVERY - 1 {
            let line = if traced {
                trace::span("obs.metrics_rt", || {
                    self.round_trip("{\"type\":\"metrics\",\"id\":1}\n")
                })
            } else {
                self.round_trip("{\"type\":\"metrics\",\"id\":1}\n")
            };
            if record {
                self.log.ops += 1;
                if !line.starts_with("{\"id\":1,\"ok\":true,\"metrics\":") {
                    self.log.failed += 1;
                }
            }
            return;
        }
        let k = self.seq[i % self.seq.len()] as usize;
        let t0 = Instant::now();
        let (report, failed) = if traced {
            trace::span("serve.request", || self.analyze(&keys[k], true))
        } else {
            self.analyze(&keys[k], false)
        };
        let took = t0.elapsed();
        if !record {
            return;
        }
        self.log.ops += 1;
        self.log.analyze_ms.push(ms(took));
        if failed {
            self.log.failed += 1;
        }
        if let Some(report) = report.as_deref().and_then(proto::extract_report) {
            self.log.count[k] += 1;
            match &self.log.first[k] {
                None => self.log.first[k] = Some(report.to_string()),
                Some(first) if first != report => self.log.deviations += 1,
                Some(_) => {}
            }
        }
    }

    /// Send one `analyze` until it is answered; returns the reply line
    /// carrying the report (if any) and whether the op failed or was
    /// refused along the way.
    fn analyze(&mut self, key: &Key, traced: bool) -> (Option<String>, bool) {
        if traced {
            trace::span("proto.parse_request", || {
                proto::parse_request(key.frame.trim_end())
            })
            .expect("request frame parses");
        }
        let mut failed = false;
        loop {
            let line = self.round_trip(&key.frame);
            if let Some(report) = proto::extract_report(&line) {
                if traced {
                    trace::span("proto.render", || proto::render_analyze_ok(0, report));
                }
                return (Some(line), failed);
            }
            failed = true;
            let v: serde::Value = serde_json::from_str(line.trim_end()).expect("reply parses");
            let err = v
                .as_object()
                .and_then(|o| o.get("error"))
                .and_then(|e| e.as_object());
            let kind = err.and_then(|e| e.get("kind")).and_then(|k| k.as_str());
            if kind != Some("overloaded") {
                return (None, true);
            }
            let wait = err
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(|m| m.as_u64())
                .unwrap_or(1);
            std::thread::sleep(Duration::from_millis(wait));
        }
    }
}

struct PhaseStats {
    windows: Vec<Window>,
    /// Host-corrected `analyze` round-trip times per window, ms.
    latency_ms: Vec<Vec<f64>>,
    /// Mean raw `analyze` round-trip time, ms.
    raw_rtt_ms: f64,
}

/// Where the clients stood at one window edge.
#[derive(Default)]
struct Edge {
    /// Elapsed time, process CPU time, and ops done when they stopped.
    stopped: (Duration, Duration, u64),
    /// Host factors the clients measured while stopped.
    factors: Vec<f64>,
    /// Elapsed and process CPU time when they resumed.
    resumed: (Duration, Duration),
}

/// Run every client in a closed loop for `WARMUP_REQUESTS` unrecorded
/// requests each.
fn warm_up(clients: &mut [Client], keys: &[Key]) {
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            s.spawn(move || {
                for _ in 0..WARMUP_REQUESTS {
                    c.step(keys, false, false);
                }
            });
        }
    });
}

/// Run every client in a closed loop for `dur`, in windows of `WINDOW`.
/// At each window edge the clients stop together and each measures the
/// host factor on its own thread; a window's ops, wall and CPU time run
/// from one edge to the next, so the calibration counts toward none.
fn phase(clients: &mut [Client], keys: &[Key], dur: Duration, traced: bool) -> PhaseStats {
    let barrier = Barrier::new(clients.len());
    let done = AtomicU64::new(0);
    let next_edge_ns = AtomicU64::new(0);
    let finished = AtomicBool::new(false);
    let edges: Mutex<Vec<Edge>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (ci, c) in clients.iter_mut().enumerate() {
            let (barrier, done, next_edge_ns, finished, edges) =
                (&barrier, &done, &next_edge_ns, &finished, &edges);
            s.spawn(move || loop {
                if t0.elapsed().as_nanos() as u64 >= next_edge_ns.load(Ordering::SeqCst) {
                    barrier.wait();
                    if ci == 0 {
                        let now = t0.elapsed();
                        edges.lock().expect("edges poisoned").push(Edge {
                            stopped: (now, cpu_time(), done.load(Ordering::SeqCst)),
                            ..Edge::default()
                        });
                        finished.store(now >= dur, Ordering::SeqCst);
                    }
                    barrier.wait();
                    let host = measure::host_factor();
                    edges
                        .lock()
                        .expect("edges poisoned")
                        .last_mut()
                        .expect("edge pushed")
                        .factors
                        .push(host);
                    barrier.wait();
                    if ci == 0 {
                        let now = t0.elapsed();
                        edges
                            .lock()
                            .expect("edges poisoned")
                            .last_mut()
                            .expect("edge pushed")
                            .resumed = (now, cpu_time());
                        next_edge_ns.store((now + WINDOW).as_nanos() as u64, Ordering::SeqCst);
                    }
                    c.log.window_starts.push(c.log.analyze_ms.len());
                    barrier.wait();
                    if finished.load(Ordering::SeqCst) {
                        break;
                    }
                }
                c.step(keys, true, traced);
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    let edges = edges.into_inner().expect("edges poisoned");
    let host: Vec<f64> = edges
        .windows(2)
        .map(|e| (median(&e[0].factors) + median(&e[1].factors)) / 2.0)
        .collect();
    let windows = edges
        .windows(2)
        .zip(&host)
        .map(|(e, &host)| Window {
            ops: e[1].stopped.2 - e[0].stopped.2,
            wall: e[1].stopped.0 - e[0].resumed.0,
            cpu: e[1].stopped.1 - e[0].resumed.1,
            host,
        })
        .collect();
    let mut latency_ms = vec![Vec::new(); host.len()];
    let (mut raw_sum, mut raw_n) = (0.0, 0usize);
    for c in clients.iter() {
        let starts = &c.log.window_starts[c.log.window_starts.len() - edges.len()..];
        for (k, &h) in host.iter().enumerate() {
            let samples = &c.log.analyze_ms[starts[k]..starts[k + 1]];
            raw_sum += samples.iter().sum::<f64>();
            raw_n += samples.len();
            latency_ms[k].extend(samples.iter().map(|l| l / h));
        }
    }
    PhaseStats {
        windows,
        latency_ms,
        raw_rtt_ms: raw_sum / raw_n as f64,
    }
}

/// The counters of one `metrics` snapshot this benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    analyze: f64,
    overloaded: f64,
    coalesced: f64,
    hits: f64,
    misses: f64,
    evictions: f64,
    kernel_hits: f64,
    kernel_misses: f64,
    service_count: f64,
    service_sum_us: f64,
}

impl Snapshot {
    fn read(m: &serde::Value) -> Snapshot {
        let get = |block: &str, field: &str| -> f64 {
            m.as_object()
                .and_then(|o| o.get(block))
                .and_then(|b| b.as_object())
                .and_then(|b| b.get(field))
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("metrics lacks {block}.{field}"))
        };
        let service_count = get("service_time_us", "count");
        Snapshot {
            analyze: get("requests", "analyze"),
            overloaded: get("requests", "overloaded"),
            coalesced: get("requests", "coalesced"),
            hits: get("cache", "response_hits"),
            misses: get("cache", "response_misses"),
            evictions: get("cache", "response_evictions"),
            kernel_hits: get("cache", "kernel_hits"),
            kernel_misses: get("cache", "kernel_misses"),
            service_count,
            service_sum_us: get("service_time_us", "mean") * service_count,
        }
    }

    fn minus(self, o: Snapshot) -> Snapshot {
        Snapshot {
            analyze: self.analyze - o.analyze,
            overloaded: self.overloaded - o.overloaded,
            coalesced: self.coalesced - o.coalesced,
            hits: self.hits - o.hits,
            misses: self.misses - o.misses,
            evictions: self.evictions - o.evictions,
            kernel_hits: self.kernel_hits - o.kernel_hits,
            kernel_misses: self.kernel_misses - o.kernel_misses,
            service_count: self.service_count - o.service_count,
            service_sum_us: self.service_sum_us - o.service_sum_us,
        }
    }
}

fn share(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let keys = keys();
    let seqs = sequences(seed, keys.len());
    let mut out = Outcome::default();
    let mut digest = measure::FNV_OFFSET;
    for s in &seqs {
        for k in s {
            digest = measure::fnv1a(&k.to_le_bytes(), digest);
        }
    }
    out.note("op_digest", format!("{digest:016x}"));
    out.note("distinct_keys", keys.len());

    // Set-up samples come from both ends of the run; the last server
    // started before the load serves it.
    let mut setups = Vec::new();
    let restart = |setups: &mut Vec<f64>| {
        let host = measure::host_factor();
        let (server, took) = start_server();
        setups.push(took / host);
        server
    };
    for _ in 1..SETUP_SAMPLES / 2 {
        restart(&mut setups).shutdown().expect("server drains");
    }
    let server = restart(&mut setups);
    let mut clients: Vec<Client> = seqs
        .into_iter()
        .map(|seq| Client::connect(server.addr, seq, keys.len()))
        .collect();

    warm_up(&mut clients, &keys);
    let before = Snapshot::read(&clients[0].metrics());
    let budget = Duration::from_secs_f64(seconds);
    let base = phase(
        &mut clients,
        &keys,
        if traced { budget / 2 } else { budget },
        false,
    );
    let traced_phase = traced.then(|| phase(&mut clients, &keys, budget / 2, true));
    let rss = measure::peak_rss_mb();
    let delta = Snapshot::read(&clients[0].metrics()).minus(before);
    let logs: Vec<Log> = clients.into_iter().map(|c| c.log).collect();
    let summary = server.shutdown().expect("server drains");
    out.note("server_requests", summary.requests);
    while setups.len() < SETUP_SAMPLES {
        restart(&mut setups).shutdown().expect("server drains");
    }

    // Output check, after the timed phases: every report must equal the
    // single-shot `analyze --json` bytes for its key.
    let mut failed: u64 = logs.iter().map(|l| l.failed + l.deviations).sum();
    for (k, key) in keys.iter().enumerate() {
        if logs.iter().all(|l| l.first[k].is_none()) {
            continue;
        }
        let expected = cli::analyze_report_json(&key.machine, &key.label, &key.asm, flags())
            .expect("corpus kernel analyzes");
        let expected = expected.trim_end();
        for l in &logs {
            if l.first[k].as_deref().is_some_and(|f| f != expected) {
                failed += l.count[k];
            }
        }
    }
    out.attempted = logs.iter().map(|l| l.ops).sum();
    out.failed = failed.min(out.attempted);

    out.e2e.insert("setup_s", median(&setups));
    out.throughput(&base.windows);
    out.latency(&base.latency_ms);
    out.finish(rss);
    out.note("setup_samples", setups.len());
    out.note(
        "response_hit_share",
        share(delta.hits, delta.hits + delta.misses),
    );

    if let Some(t) = traced_phase {
        for key in &keys {
            let kernel = trace::span("isa.parse", || isa::parse_kernel(&key.asm, key.machine.isa))
                .expect("corpus kernel parses");
            trace::span("incore.predict", || {
                incore::InCoreModel::new().predict(&key.machine, &kernel)
            });
            trace::span("mca.predict", || {
                mca::McaBaseline.predict(&key.machine, &kernel)
            });
        }
        let tot = trace::totals();
        let get = |n: &str| tot.get(n).copied().unwrap_or_default();
        let service_mean = share(delta.service_sum_us, delta.service_count);
        let l = &mut out.layers;
        l.insert("isa.parse_us", get("isa.parse").mean_us());
        l.insert("incore.predict_us", get("incore.predict").mean_us());
        l.insert("mca.predict_us", get("mca.predict").mean_us());
        l.insert(
            "proto.parse_request_us",
            get("proto.parse_request").mean_us(),
        );
        l.insert("proto.render_us", get("proto.render").mean_us());
        l.insert("serve.service_mean_us", service_mean);
        l.insert(
            "serve.wire_us",
            base.raw_rtt_ms * 1e3 - share(delta.service_sum_us, delta.analyze),
        );
        l.insert(
            "serve.response_hit_share",
            share(delta.hits, delta.hits + delta.misses),
        );
        l.insert(
            "serve.response_evictions_per_op",
            share(delta.evictions, delta.analyze),
        );
        l.insert(
            "serve.coalesce_share",
            share(delta.coalesced, delta.analyze),
        );
        l.insert(
            "serve.overloaded_share",
            share(delta.overloaded, delta.analyze),
        );
        l.insert("obs.metrics_rt_us", get("obs.metrics_rt").mean_us());
        l.insert(
            "engine.kernel_hit_share",
            share(delta.kernel_hits, delta.kernel_hits + delta.kernel_misses),
        );
        let op_ms =
            |p: &PhaseStats| median(&p.windows.iter().map(Window::op_ms).collect::<Vec<_>>());
        l.insert(
            "bench.trace_overhead_pct",
            (op_ms(&t) / op_ms(&base) - 1.0) * 100.0,
        );
    }
    out
}

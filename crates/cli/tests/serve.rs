//! End-to-end tests of `incore-cli serve`: concurrent clients get
//! responses byte-identical to the single-shot `analyze --json` path,
//! coalescing and the response cache are observable only through the
//! metrics (never through the bytes), a slow reader trips the bounded
//! queue into explicit overload instead of unbounded buffering, and a
//! drained server accounts for every request it accepted.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use cli::serve::{ServeOpts, ServerHandle};
use cli::{proto, AnalyzeFlags, MachineSel};

/// A handful of real corpus kernels for one machine, as (label, asm).
fn corpus_kernels(machine: &uarch::Machine, n: usize) -> Vec<(String, String)> {
    kernels::variants_for(machine.arch)
        .iter()
        .take(n)
        .map(|v| (v.label(), kernels::generate(v, machine)))
        .collect()
}

fn analyze_frame(id: u64, label: &str, asm: &str, arch: &str, mca: bool) -> String {
    format!(
        "{{\"type\":\"analyze\",\"id\":{id},\"label\":{},\"asm\":{},\"arch\":\"{arch}\",\"mca\":{mca}}}\n",
        serde_json::to_string(&label.to_string()).unwrap(),
        serde_json::to_string(&asm.to_string()).unwrap(),
    )
}

/// Send `frames` on one connection, then read `expect` response lines.
fn roundtrip(addr: std::net::SocketAddr, frames: &[String], expect: usize) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for f in frames {
        stream.write_all(f.as_bytes()).expect("write");
    }
    let mut reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(expect);
    for _ in 0..expect {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read");
        assert!(n > 0, "server closed early after {} responses", out.len());
        out.push(line);
    }
    out
}

fn response_id(frame: &str) -> u64 {
    let v: serde_json::Value = serde_json::from_str(frame.trim_end()).unwrap();
    v.as_object()
        .and_then(|o| o.get("id"))
        .and_then(|id| id.as_u64())
        .expect("response carries the request id")
}

fn error_kind(frame: &str) -> Option<String> {
    let v: serde_json::Value = serde_json::from_str(frame.trim_end()).ok()?;
    let o = v.as_object()?;
    if o.get("ok")?.as_bool()? {
        return None;
    }
    Some(
        o.get("error")?
            .as_object()?
            .get("kind")?
            .as_str()?
            .to_string(),
    )
}

#[test]
fn concurrent_clients_get_reports_byte_identical_to_analyze_json() {
    let machine = uarch::Machine::golden_cove();
    let kernels = corpus_kernels(&machine, 6);
    let flags = AnalyzeFlags {
        mca: true,
        ..AnalyzeFlags::default()
    };
    // The golden bytes: the deterministic single-shot analyze --json
    // report (timings zeroed) for every kernel.
    let golden: Vec<String> = kernels
        .iter()
        .map(|(label, asm)| {
            cli::analyze_report_json(&machine, label, asm, flags)
                .unwrap()
                .trim_end()
                .to_string()
        })
        .collect();
    // 64 clients are far more than the 4 workers; the queue holds every
    // request, so no client is ever answered `overloaded`.
    for clients in [4, 64] {
        let server = ServerHandle::start(ServeOpts {
            threads: 4,
            queue: clients * kernels.len(),
            cache: 256,
            ..ServeOpts::default()
        })
        .expect("server starts");
        let addr = server.addr;
        std::thread::scope(|s| {
            for c in 0..clients {
                let kernels = &kernels;
                let golden = &golden;
                s.spawn(move || {
                    // Each client shuffles the kernel order differently (a
                    // rotation) and tags requests with id = kernel index.
                    let order: Vec<usize> = (0..kernels.len())
                        .map(|i| (i + c) % kernels.len())
                        .collect();
                    let frames: Vec<String> = order
                        .iter()
                        .map(|&i| {
                            analyze_frame(i as u64, &kernels[i].0, &kernels[i].1, "spr", true)
                        })
                        .collect();
                    for frame in roundtrip(addr, &frames, frames.len()) {
                        let id = response_id(&frame) as usize;
                        assert_eq!(error_kind(&frame), None, "unexpected failure: {frame}");
                        let report =
                            proto::extract_report(&frame).expect("ok response has a report");
                        assert_eq!(report, golden[id], "kernel {id} bytes must match");
                    }
                });
            }
        });
        let summary = server.shutdown().expect("graceful drain");
        assert_eq!(summary.analyze, (clients * kernels.len()) as u64);
        assert_eq!(summary.ok, summary.analyze);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.overloaded, 0);
        // Every request either replayed from the cache or looked like a
        // miss (coalesced requests are misses that then shared an
        // in-flight computation) — and the duplication across clients
        // guarantees sharing.
        assert_eq!(
            summary.response_hits + summary.response_misses,
            summary.analyze
        );
        assert!(summary.coalesced <= summary.response_misses);
        assert!(
            summary.response_hits + summary.coalesced > 0,
            "{clients} clients: duplicate kernels must share work: {summary:?}"
        );
    }
}

#[test]
fn identical_inflight_requests_coalesce_and_cached_responses_replay() {
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 16,
        cache: 64,
        throttle_ms: 150,
        ..ServeOpts::default()
    })
    .expect("server starts");
    let addr = server.addr;
    let asm = ".L1:\n vaddpd %ymm1, %ymm2, %ymm3\n subq $1, %rax\n jne .L1\n";
    let frame = analyze_frame(7, "k.s", asm, "spr", false);
    // Client A starts the computation (throttled to 150 ms), client B
    // lands the identical request while it is in flight.
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(|| roundtrip(addr, std::slice::from_ref(&frame), 1).remove(0));
        std::thread::sleep(std::time::Duration::from_millis(40));
        let hb = s.spawn(|| roundtrip(addr, std::slice::from_ref(&frame), 1).remove(0));
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(a, b, "coalesced waiters share one result verbatim");
    // A third request after completion replays from the response cache.
    let c = roundtrip(addr, std::slice::from_ref(&frame), 1).remove(0);
    assert_eq!(a, c, "cache replay is byte-identical");
    // The sharing is visible in the metrics, not in the responses.
    let metrics = roundtrip(addr, &["{\"type\":\"metrics\",\"id\":1}\n".to_string()], 1).remove(0);
    let v: serde_json::Value = serde_json::from_str(metrics.trim_end()).unwrap();
    let m = v
        .as_object()
        .unwrap()
        .get("metrics")
        .unwrap()
        .as_object()
        .unwrap();
    let requests = m.get("requests").unwrap().as_object().unwrap();
    assert_eq!(requests.get("coalesced").unwrap().as_u64(), Some(1));
    let cache = m.get("cache").unwrap().as_object().unwrap();
    assert_eq!(cache.get("response_hits").unwrap().as_u64(), Some(1));
    let summary = server.shutdown().expect("graceful drain");
    assert_eq!(summary.coalesced, 1);
    assert_eq!(summary.response_hits, 1);
    assert_eq!(
        summary.response_misses, 2,
        "A missed; B coalesced before caching"
    );
}

#[test]
fn slow_reader_hits_bounded_queue_overload_not_unbounded_buffering() {
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 2,
        cache: 64,
        throttle_ms: 150,
        ..ServeOpts::default()
    })
    .expect("server starts");
    let total = 12;
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    // Pipeline 12 *distinct* kernels (no coalescing, no cache hits)
    // without reading a single response: 1 computing + 2 queued fit,
    // the rest must be rejected with an explicit overload error.
    for i in 0..total {
        let asm = format!(".L1:\n addq ${i}, %rax\n jne .L1\n");
        let frame = analyze_frame(i as u64, &format!("k{i}.s"), &asm, "spr", false);
        stream.write_all(frame.as_bytes()).expect("write");
        if i == 0 {
            // Wait until the worker has taken the first job off the queue,
            // so on a busy host the queue still has room for two more.
            loop {
                let metrics = fetch_metrics(server.addr);
                let queue = metrics.get("queue").unwrap().as_object().unwrap();
                let depth = |k: &str| queue.get(k).unwrap().as_u64().unwrap();
                if depth("peak_depth") > 0 && depth("depth") == 0 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }
    let mut reader = BufReader::new(stream);
    let (mut ok, mut overloaded) = (0u64, 0u64);
    for _ in 0..total {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0);
        match error_kind(&line) {
            None => ok += 1,
            Some(kind) => {
                assert_eq!(kind, "overloaded", "{line}");
                let v: serde_json::Value = serde_json::from_str(line.trim_end()).unwrap();
                let err = v.as_object().unwrap().get("error").unwrap();
                assert!(
                    err.as_object()
                        .unwrap()
                        .get("retry_after_ms")
                        .unwrap()
                        .as_u64()
                        > Some(0),
                    "overload carries a retry hint: {line}"
                );
                overloaded += 1;
            }
        }
    }
    assert!(ok >= 3, "the queue bound admits at least capacity+1: {ok}");
    assert!(overloaded >= 1, "the rest must be shed, not buffered");
    assert_eq!(ok + overloaded, total as u64);
    let summary = server.shutdown().expect("graceful drain");
    assert_eq!(summary.ok, ok);
    assert_eq!(summary.overloaded, overloaded);
}

#[test]
fn malformed_frames_answer_with_stable_kinds_and_keep_the_connection() {
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 4,
        max_request_bytes: 512,
        ..ServeOpts::default()
    })
    .expect("server starts");
    let huge = format!(
        "{{\"type\":\"analyze\",\"asm\":\"{}\"}}\n",
        "x".repeat(2048)
    );
    let frames = vec![
        "this is not json\n".to_string(),
        "{\"type\":\"frobnicate\",\"id\":1}\n".to_string(),
        "{\"type\":\"analyze\",\"id\":2}\n".to_string(),
        "{\"type\":\"analyze\",\"id\":3,\"asm\":\"nop\",\"arch\":\"m1\"}\n".to_string(),
        huge,
        "{\"type\":\"ping\",\"id\":4}\n".to_string(),
    ];
    let responses = roundtrip(server.addr, &frames, frames.len());
    let kinds: Vec<Option<String>> = responses.iter().map(|r| error_kind(r)).collect();
    assert_eq!(
        kinds,
        vec![
            Some("protocol".into()),
            Some("protocol".into()),
            Some("protocol".into()),
            Some("usage".into()), // unknown machine: same kind as the CLI
            Some("protocol".into()),
            None, // the ping still answers: the connection survived it all
        ],
        "{responses:?}"
    );
    let pong: serde_json::Value =
        serde_json::from_str(responses.last().unwrap().trim_end()).unwrap();
    assert_eq!(
        pong.as_object()
            .unwrap()
            .get("pong")
            .and_then(|p| p.as_bool()),
        Some(true)
    );
    let summary = server.shutdown().expect("graceful drain");
    assert_eq!(
        summary.requests,
        frames.len() as u64 + 1,
        "plus the shutdown"
    );
    assert_eq!(summary.errors, 5);
}

#[test]
fn server_side_default_machine_comes_from_the_shared_selection() {
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 4,
        sel: MachineSel::model("golden-cove"),
        ..ServeOpts::default()
    })
    .expect("server starts");
    let asm = ".L1:\n vaddpd %ymm1, %ymm2, %ymm3\n subq $1, %rax\n jne .L1\n";
    // No machine in the request: the server's --arch default applies.
    let frame = format!(
        "{{\"type\":\"analyze\",\"id\":9,\"label\":\"k.s\",\"asm\":{}}}\n",
        serde_json::to_string(&asm.to_string()).unwrap()
    );
    let response = roundtrip(server.addr, &[frame], 1).remove(0);
    let machine = uarch::Machine::golden_cove();
    let golden = cli::analyze_report_json(&machine, "k.s", asm, AnalyzeFlags::default()).unwrap();
    assert_eq!(proto::extract_report(&response), Some(golden.trim_end()));
    server.shutdown().expect("graceful drain");
}

/// Fetch and decode the `metrics` body as a JSON object.
fn fetch_metrics(addr: std::net::SocketAddr) -> serde_json::Map {
    let frame = roundtrip(addr, &["{\"type\":\"metrics\",\"id\":1}\n".to_string()], 1).remove(0);
    let v: serde_json::Value = serde_json::from_str(frame.trim_end()).unwrap();
    v.as_object()
        .unwrap()
        .get("metrics")
        .unwrap()
        .as_object()
        .unwrap()
        .clone()
}

#[test]
fn persistent_cache_survives_a_restart_and_reports_disk_metrics() {
    let dir = std::env::temp_dir().join(format!("incore-serve-diskcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = || ServeOpts {
        threads: 1,
        queue: 8,
        cache: 64,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeOpts::default()
    };
    let asm = ".L1:\n vfmadd231pd %ymm1, %ymm2, %ymm3\n subq $1, %rax\n jne .L1\n";
    let frame = analyze_frame(11, "fma.s", asm, "spr", true);

    // Cold server: the first computation is a disk miss that writes.
    let server = ServerHandle::start(opts()).expect("server starts");
    let cold = roundtrip(server.addr, std::slice::from_ref(&frame), 1).remove(0);
    assert_eq!(error_kind(&cold), None, "{cold}");
    let m = fetch_metrics(server.addr);
    assert_eq!(m.get("schema_version").unwrap().as_u64(), Some(3));
    let disk = m.get("disk").unwrap().as_object().unwrap();
    assert_eq!(disk.get("enabled").unwrap().as_bool(), Some(true));
    assert_eq!(disk.get("hits").unwrap().as_u64(), Some(0));
    assert_eq!(disk.get("misses").unwrap().as_u64(), Some(1));
    assert_eq!(disk.get("writes").unwrap().as_u64(), Some(1));
    server.shutdown().expect("graceful drain");

    // Restarted server: the in-memory LRU is empty, the disk replays —
    // byte-identical bytes without recomputation.
    let server = ServerHandle::start(opts()).expect("server restarts");
    let warm = roundtrip(server.addr, std::slice::from_ref(&frame), 1).remove(0);
    assert_eq!(
        proto::extract_report(&warm),
        proto::extract_report(&cold),
        "a disk replay must be byte-identical to the cold computation"
    );
    let m = fetch_metrics(server.addr);
    let disk = m.get("disk").unwrap().as_object().unwrap();
    assert_eq!(disk.get("hits").unwrap().as_u64(), Some(1));
    assert_eq!(disk.get("misses").unwrap().as_u64(), Some(0));
    assert_eq!(disk.get("hit_rate").unwrap().as_f64(), Some(1.0));
    let summary = server.shutdown().expect("graceful drain");
    assert_eq!(summary.ok, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_replays_records_a_validate_cache_dir_wrote() {
    let dir = std::env::temp_dir().join(format!("incore-serve-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // One golden-cove corpus block through the batch pipeline's default
    // predictors (incore, mca, sim reference) fills the record store.
    engine::Session::new()
        .archs(&[uarch::Arch::GoldenCove])
        .limit(1)
        .threads(1)
        .cache_dir(&dir)
        .run()
        .expect("session fills the cache dir");
    let machine = uarch::registry::machine("golden-cove").unwrap();
    let block = &kernels::volume::volume_blocks(machine.arch, 1)[0];
    let asm = block.generate(&machine);

    // The same text, machine and predictor set under another label is
    // answered from that record: a disk hit, nothing written.
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 4,
        cache: 64,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeOpts::default()
    })
    .expect("server starts");
    let frame = format!(
        "{{\"type\":\"analyze\",\"id\":1,\"label\":\"served.s\",\"asm\":{},\"model\":\"golden-cove\",\"mca\":true,\"sim\":true}}\n",
        serde_json::to_string(&asm).unwrap(),
    );
    let resp = roundtrip(server.addr, &[frame], 1).remove(0);
    assert_eq!(error_kind(&resp), None, "{resp}");
    let disk = fetch_metrics(server.addr);
    let disk = disk.get("disk").unwrap().as_object().unwrap();
    assert_eq!(disk.get("hits").unwrap().as_u64(), Some(1));
    assert_eq!(disk.get("writes").unwrap().as_u64(), Some(0));
    let flags = AnalyzeFlags {
        mca: true,
        sim: true,
        ..AnalyzeFlags::default()
    };
    let expected = cli::analyze_report_json(&machine, "served.s", &asm, flags).unwrap();
    assert_eq!(
        proto::extract_report(&resp),
        Some(expected.trim_end()),
        "a replayed validate record must serve the analyze --json bytes"
    );
    server.shutdown().expect("graceful drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_without_a_cache_dir_report_a_disabled_disk_block() {
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 4,
        ..ServeOpts::default()
    })
    .expect("server starts");
    let m = fetch_metrics(server.addr);
    assert_eq!(m.get("schema_version").unwrap().as_u64(), Some(3));
    let disk = m.get("disk").unwrap().as_object().unwrap();
    assert_eq!(disk.get("enabled").unwrap().as_bool(), Some(false));
    assert_eq!(disk.get("hits").unwrap().as_u64(), Some(0));
    assert_eq!(disk.get("writes").unwrap().as_u64(), Some(0));
    assert_eq!(disk.get("hit_rate").unwrap().as_f64(), Some(0.0));
    server.shutdown().expect("graceful drain");
}

/// Recursively collect sorted `a.b.c` key paths of a JSON object.
fn key_paths(prefix: &str, v: &serde_json::Value, out: &mut Vec<String>) {
    if let Some(o) = v.as_object() {
        for (k, child) in o.iter() {
            let path = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            out.push(path.clone());
            key_paths(&path, child, out);
        }
    }
}

#[test]
fn metrics_schema_v3_matches_the_golden_key_paths() {
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 4,
        ..ServeOpts::default()
    })
    .expect("server starts");
    // One analyzed kernel so every counter family is exercised.
    let asm = ".L1:\n vaddpd %ymm1, %ymm2, %ymm3\n subq $1, %rax\n jne .L1\n";
    let frame = analyze_frame(1, "k.s", asm, "spr", false);
    roundtrip(server.addr, &[frame], 1);
    let m = fetch_metrics(server.addr);
    server.shutdown().expect("graceful drain");
    let mut paths = Vec::new();
    key_paths("", &serde_json::Value::Object(m.clone()), &mut paths);
    paths.sort();
    let rendered = paths.join("\n") + "\n";
    // The golden snapshot gate: the full recursive key set of a
    // schema_version 3 metrics body (regenerate with UPDATE_FIXTURES=1).
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/serve/metrics_schema_v3.txt"
    );
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::write(path, &rendered).expect("write fixture");
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden snapshot exists; regenerate with UPDATE_FIXTURES=1");
    assert_eq!(
        rendered, golden,
        "metrics schema drifted from the v3 golden key set; \
         bump METRICS_SCHEMA_VERSION and regenerate with UPDATE_FIXTURES=1"
    );
    // v3 must stay a strict superset of v2: every v2 key path survives.
    for v2_key in [
        "schema_version",
        "workers",
        "shards",
        "requests.total",
        "requests.analyze",
        "requests.ok",
        "requests.errors",
        "requests.overloaded",
        "requests.coalesced",
        "requests.coalesce_rate",
        "cache.response_hits",
        "cache.response_misses",
        "cache.response_evictions",
        "cache.hit_rate",
        "cache.kernel_hits",
        "cache.kernel_misses",
        "cache.kernel_evictions",
        "cache.machine_hits",
        "cache.machine_misses",
        "cache.machine_evictions",
        "disk.enabled",
        "disk.hits",
        "disk.misses",
        "disk.writes",
        "disk.evictions",
        "disk.stale",
        "disk.corrupt",
        "disk.hit_rate",
        "queue.capacity",
        "queue.depth",
        "queue.peak_depth",
        "service_time_us.count",
        "service_time_us.mean",
        "service_time_us.p50",
        "service_time_us.p99",
        "service_time_us.max",
    ] {
        assert!(
            paths.iter().any(|p| p == v2_key),
            "v2 key `{v2_key}` missing from the v3 body"
        );
    }
    // And the v3 additions exist.
    for v3_key in [
        "uptime_s",
        "windows.10s.requests_per_s",
        "windows.1m",
        "windows.5m",
        "journal.next_seq",
        "journal.dropped",
    ] {
        assert!(
            paths.iter().any(|p| p == v3_key),
            "v3 key `{v3_key}` missing"
        );
    }
}

#[test]
fn metrics_snapshots_are_never_torn_under_concurrent_load() {
    let machine = uarch::Machine::golden_cove();
    let kernels = corpus_kernels(&machine, 4);
    let server = ServerHandle::start(ServeOpts {
        threads: 2,
        queue: 16,
        cache: 8,
        ..ServeOpts::default()
    })
    .expect("server starts");
    let addr = server.addr;
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        // Two hammering clients keep every counter moving.
        for c in 0..2 {
            let (kernels, stop) = (&kernels, &stop);
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (label, asm) = &kernels[(i + c) % kernels.len()];
                    let frame = analyze_frame(i as u64, label, asm, "spr", false);
                    roundtrip(addr, &[frame], 1);
                    i += 1;
                }
            });
        }
        // The poller asserts the accounting invariants hold in every
        // single snapshot, mid-flight included — this is what the torn
        // field-by-field reads of the old metrics struct violated.
        for _ in 0..25 {
            let m = fetch_metrics(addr);
            let req = m.get("requests").unwrap().as_object().unwrap();
            let cache = m.get("cache").unwrap().as_object().unwrap();
            let total = req.get("total").unwrap().as_u64().unwrap();
            let analyze = req.get("analyze").unwrap().as_u64().unwrap();
            let ok = req.get("ok").unwrap().as_u64().unwrap();
            let errors = req.get("errors").unwrap().as_u64().unwrap();
            let overloaded = req.get("overloaded").unwrap().as_u64().unwrap();
            let coalesced = req.get("coalesced").unwrap().as_u64().unwrap();
            let hits = cache.get("response_hits").unwrap().as_u64().unwrap();
            let misses = cache.get("response_misses").unwrap().as_u64().unwrap();
            assert!(total >= analyze, "requests {total} < analyze {analyze}");
            assert!(
                analyze >= hits + misses,
                "analyze {analyze} < lookups {}",
                hits + misses
            );
            assert!(
                misses >= coalesced,
                "misses {misses} < coalesced {coalesced}"
            );
            assert!(
                total >= ok + errors + overloaded,
                "requests {total} < outcomes {}",
                ok + errors + overloaded
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let summary = server.shutdown().expect("graceful drain");
    assert_eq!(
        summary.ok + summary.errors + summary.overloaded,
        summary.analyze
    );
}

#[test]
fn tracing_keeps_report_bytes_and_builds_connected_span_trees() {
    // Tracing rides the process-global obs recorder; the served report
    // bytes must not change, and each request (the coalesced follower
    // included) must render as one connected span tree.
    let machine = uarch::Machine::golden_cove();
    let asm = ".L1:\n vmulpd %ymm1, %ymm2, %ymm3\n subq $1, %rax\n jne .L1\n";
    let golden = cli::analyze_report_json(&machine, "t.s", asm, AnalyzeFlags::default()).unwrap();
    let traced_frame = format!(
        "{{\"type\":\"analyze\",\"id\":21,\"label\":\"t.s\",\"asm\":{},\"arch\":\"spr\",\"trace\":true}}\n",
        serde_json::to_string(&asm.to_string()).unwrap()
    );
    obs::enable();
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 8,
        throttle_ms: 120,
        ..ServeOpts::default()
    })
    .expect("server starts");
    let addr = server.addr;
    // Leader + in-flight identical follower (coalesced), like the
    // coalescing test but with tracing on.
    let (a, b) = std::thread::scope(|s| {
        let fa = traced_frame.clone();
        let fb = traced_frame.clone();
        let ha = s.spawn(move || roundtrip(addr, &[fa], 1).remove(0));
        std::thread::sleep(std::time::Duration::from_millis(40));
        let hb = s.spawn(move || roundtrip(addr, &[fb], 1).remove(0));
        (ha.join().unwrap(), hb.join().unwrap())
    });
    let summary = server.shutdown().expect("graceful drain");
    let profile = obs::take();
    obs::disable();
    assert_eq!(summary.coalesced, 1);
    // Report bytes are byte-identical to the untraced analyze --json
    // path for both the leader and the coalesced follower.
    for frame in [&a, &b] {
        assert_eq!(
            proto::extract_report(frame),
            Some(golden.trim_end()),
            "tracing must not change report bytes"
        );
    }
    // Both responses echo their (distinct) trace ids.
    let trace_id = |frame: &str| -> u64 {
        let v: serde_json::Value = serde_json::from_str(frame.trim_end()).unwrap();
        v.as_object()
            .unwrap()
            .get("trace_id")
            .and_then(|t| t.as_u64())
            .expect("traced request echoes trace_id")
    };
    let (ta, tb) = (trace_id(&a), trace_id(&b));
    assert_ne!(ta, tb, "each request gets its own trace");
    // Each trace renders as one connected tree: exactly one root
    // (parent_id 0) and every other span's parent is in the trace.
    for t in [ta, tb] {
        let spans: Vec<_> = profile.spans.iter().filter(|s| s.trace_id == t).collect();
        assert!(!spans.is_empty(), "trace {t} has no spans");
        let roots: Vec<_> = spans.iter().filter(|s| s.parent_id == 0).collect();
        assert_eq!(roots.len(), 1, "trace {t} must have one root: {spans:?}");
        assert_eq!(roots[0].name, "serve.request");
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        for s in &spans {
            assert!(
                s.parent_id == 0 || ids.contains(&s.parent_id),
                "span {} of trace {t} is disconnected (parent {})",
                s.name,
                s.parent_id
            );
        }
    }
    // The leader's tree contains the compute span (with the predictor
    // spans engine emitted under it); the follower's tree records the
    // coalesced wait instead.
    let names_of = |t: u64| -> Vec<&str> {
        profile
            .spans
            .iter()
            .filter(|s| s.trace_id == t)
            .map(|s| s.name.as_str())
            .collect()
    };
    let (na, nb) = (names_of(ta), names_of(tb));
    let (leader, follower) = if na.contains(&"serve.compute") {
        (na, nb)
    } else {
        (nb, na)
    };
    assert!(leader.contains(&"serve.compute"), "{leader:?}");
    assert!(follower.contains(&"serve.coalesced"), "{follower:?}");
    // The chrome rendering carries the trace identity in args.
    let chrome = profile.to_chrome_trace();
    assert!(chrome.contains(&format!("\"trace_id\":{ta}")));
    assert!(chrome.contains(&format!("\"trace_id\":{tb}")));
    // An untraced request (no "trace":true) gets no trace_id key even
    // while the recorder is on — verified by the plain frame shape in
    // the other tests running under this recorder-off default.
}

#[test]
fn events_request_drains_the_journal_incrementally() {
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 1,
        throttle_ms: 150,
        ..ServeOpts::default()
    })
    .expect("server starts");
    let addr = server.addr;
    // Overload the single-slot queue with distinct kernels on one
    // unread connection, so `overloaded` warnings hit the journal.
    let total = 8;
    let mut stream = TcpStream::connect(addr).expect("connect");
    for i in 0..total {
        let asm = format!(".L1:\n addq ${i}, %rbx\n jne .L1\n");
        let frame = analyze_frame(i as u64, &format!("q{i}.s"), &asm, "spr", false);
        stream.write_all(frame.as_bytes()).expect("write");
    }
    let mut reader = BufReader::new(stream);
    for _ in 0..total {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0);
    }
    let fetch_events = |since: u64| -> serde_json::Map {
        let frame = roundtrip(
            addr,
            &[format!(
                "{{\"type\":\"events\",\"id\":1,\"since\":{since}}}\n"
            )],
            1,
        )
        .remove(0);
        let v: serde_json::Value = serde_json::from_str(frame.trim_end()).unwrap();
        v.as_object()
            .unwrap()
            .get("events")
            .unwrap()
            .as_object()
            .unwrap()
            .clone()
    };
    let body = fetch_events(0);
    let events = body.get("events").unwrap().as_array().unwrap();
    let kinds: Vec<&str> = events
        .iter()
        .map(|e| {
            e.as_object()
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str()
                .unwrap()
        })
        .collect();
    assert!(kinds.contains(&"listening"), "{kinds:?}");
    assert!(kinds.contains(&"overloaded"), "{kinds:?}");
    let overloaded = events
        .iter()
        .find(|e| e.as_object().unwrap().get("kind").unwrap().as_str() == Some("overloaded"))
        .unwrap()
        .as_object()
        .unwrap();
    assert_eq!(overloaded.get("severity").unwrap().as_str(), Some("warn"));
    // Sequence numbers are strictly increasing and the cursor resumes.
    let seqs: Vec<u64> = events
        .iter()
        .map(|e| e.as_object().unwrap().get("seq").unwrap().as_u64().unwrap())
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    let next = body.get("next_seq").unwrap().as_u64().unwrap();
    assert_eq!(next, seqs.last().unwrap() + 1);
    let tail = fetch_events(next - 1);
    assert!(tail.get("events").unwrap().as_array().unwrap().is_empty());
    // The journal shows up in the metrics block too.
    let m = fetch_metrics(addr);
    let journal = m.get("journal").unwrap().as_object().unwrap();
    assert!(journal.get("retained").unwrap().as_u64().unwrap() >= seqs.len() as u64);
    server.shutdown().expect("graceful drain");
}

#[test]
fn prometheus_scrape_serves_linted_text_exposition() {
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 4,
        ..ServeOpts::default()
    })
    .expect("server starts");
    let addr = server.addr;
    // One analyzed kernel so the counters are non-zero.
    let asm = ".L1:\n vsubpd %ymm1, %ymm2, %ymm3\n subq $1, %rax\n jne .L1\n";
    roundtrip(addr, &[analyze_frame(1, "p.s", asm, "spr", false)], 1);
    // A plain HTTP GET on the NDJSON port.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\nAccept: */*\r\n\r\n")
        .expect("write");
    let mut response = String::new();
    use std::io::Read;
    stream.read_to_string(&mut response).expect("read to EOF");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP response has a header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    // Exposition lint: every sample line's metric appears in a # TYPE
    // line, names are unique per family, and no sample is NaN.
    let mut families = std::collections::HashSet::new();
    for line in body.lines().filter(|l| l.starts_with("# TYPE ")) {
        let name = line.split_whitespace().nth(2).unwrap();
        assert!(families.insert(name.to_string()), "duplicate family {name}");
    }
    let mut samples = 0;
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name_and_labels, value) = line.rsplit_once(' ').expect("sample line");
        let name = name_and_labels.split('{').next().unwrap();
        let family = name.trim_end_matches("_sum").trim_end_matches("_count");
        assert!(
            families.contains(name) || families.contains(family),
            "sample {name} has no # TYPE family"
        );
        assert!(value.parse::<f64>().unwrap().is_finite(), "{line}");
        samples += 1;
    }
    assert!(samples > 10, "expected a full exposition, got {samples}");
    assert!(
        body.contains("incore_serve_requests_total 1\n"),
        "one analyze request"
    );
    assert!(
        body.contains("incore_serve_scrapes_total 1\n"),
        "the scrape counts itself"
    );
    assert!(body.contains("incore_serve_service_time_us{quantile=\"0.5\"}"));
    // Scrapes are not protocol requests: the summary counts only the
    // analyze and the shutdown.
    let summary = server.shutdown().expect("graceful drain");
    assert_eq!(summary.requests, 2, "{summary:?}");
}

/// Open file descriptors of this (test) process, which hosts the server.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

#[test]
fn closed_connections_release_their_file_descriptors() {
    const CONNECTIONS: usize = 500;
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 4,
        ..ServeOpts::default()
    })
    .expect("server starts");
    let before = open_fds();
    for id in 0..CONNECTIONS {
        let pong = roundtrip(
            server.addr,
            &[format!("{{\"type\":\"ping\",\"id\":{id}}}\n")],
            1,
        );
        assert_eq!(response_id(&pong[0]), id as u64);
    }
    // A connection thread deregisters just after its peer hangs up, so
    // give the last few a moment. Other tests in this binary open
    // sockets too, hence a bound well under one fd per connection.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let grown = loop {
        let grown = open_fds().saturating_sub(before);
        if grown < 64 || std::time::Instant::now() > deadline {
            break grown;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(
        grown < 64,
        "{grown} fds still open after {CONNECTIONS} closed connections"
    );
    let summary = server.shutdown().expect("drain still answers");
    assert_eq!(summary.requests, CONNECTIONS as u64 + 1, "{summary:?}");
}

#[test]
fn a_frame_at_the_size_limit_parses_in_linear_time() {
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 4,
        ..ServeOpts::default()
    })
    .expect("server starts");
    // A ping padded with one unknown string field up to the frame limit:
    // the whole frame must be read as JSON before the field is rejected.
    let head = "{\"type\":\"ping\",\"id\":1,\"pad\":\"";
    let tail = "\"}";
    let pad = "x".repeat(proto::DEFAULT_MAX_REQUEST_BYTES - head.len() - tail.len());
    let frame = format!("{head}{pad}{tail}\n");
    let budget = std::time::Duration::from_secs(5);
    let started = std::time::Instant::now();
    let mut big = TcpStream::connect(server.addr).expect("connect");
    big.set_read_timeout(Some(budget)).unwrap();
    big.write_all(frame.as_bytes()).expect("write");
    // Another connection is served meanwhile.
    let pong = roundtrip(
        server.addr,
        &["{\"type\":\"ping\",\"id\":2}\n".to_string()],
        1,
    );
    assert_eq!(error_kind(&pong[0]), None, "{pong:?}");
    let mut line = String::new();
    BufReader::new(big)
        .read_line(&mut line)
        .expect("the padded frame is answered within the time budget");
    let elapsed = started.elapsed();
    assert!(elapsed < budget, "answered after {elapsed:?}");
    assert_eq!(error_kind(&line).as_deref(), Some("protocol"), "{line}");
    assert!(line.contains("unknown field `pad`"), "{line}");
    let summary = server.shutdown().expect("graceful drain");
    assert_eq!(summary.errors, 1, "{summary:?}");
}

#[test]
fn a_bracket_bomb_is_a_protocol_error_not_a_stack_overflow() {
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 4,
        ..ServeOpts::default()
    })
    .expect("server starts");
    // 40 KB of nesting: one reader frame per bracket would overflow a
    // connection thread's stack and abort the whole server.
    let frame = format!("{}{}\n", "[".repeat(20_000), "]".repeat(20_000));
    let answer = roundtrip(server.addr, &[frame], 1);
    assert_eq!(
        error_kind(&answer[0]).as_deref(),
        Some("protocol"),
        "{answer:?}"
    );
    assert!(answer[0].contains("nesting deeper than"), "{answer:?}");
    // The server is still up: a second connection's ping is answered.
    let pong = roundtrip(
        server.addr,
        &["{\"type\":\"ping\",\"id\":2}\n".to_string()],
        1,
    );
    assert_eq!(error_kind(&pong[0]), None, "{pong:?}");
    assert_eq!(response_id(&pong[0]), 2);
    let summary = server.shutdown().expect("graceful drain");
    assert_eq!(summary.errors, 1, "{summary:?}");
}

#[test]
fn a_forty_thousand_key_object_is_answered_in_linear_time() {
    let server = ServerHandle::start(ServeOpts {
        threads: 1,
        queue: 4,
        ..ServeOpts::default()
    })
    .expect("server starts");
    // A ping with 40,000 unknown keys (about 430 KB, under the frame
    // limit): the whole object is read before the first key is rejected.
    let keys: String = (0..40_000).map(|i| format!(",\"k{i}\":{i}")).collect();
    let frame = format!("{{\"type\":\"ping\",\"id\":1{keys}}}\n");
    assert!(frame.len() < proto::DEFAULT_MAX_REQUEST_BYTES);
    let budget = std::time::Duration::from_secs(5);
    let started = std::time::Instant::now();
    let mut big = TcpStream::connect(server.addr).expect("connect");
    big.set_read_timeout(Some(budget)).unwrap();
    big.write_all(frame.as_bytes()).expect("write");
    let pong = roundtrip(
        server.addr,
        &["{\"type\":\"ping\",\"id\":2}\n".to_string()],
        1,
    );
    assert_eq!(error_kind(&pong[0]), None, "{pong:?}");
    let mut line = String::new();
    BufReader::new(big)
        .read_line(&mut line)
        .expect("the object is answered within the time budget");
    let elapsed = started.elapsed();
    assert!(elapsed < budget, "answered after {elapsed:?}");
    assert_eq!(error_kind(&line).as_deref(), Some("protocol"), "{line}");
    let summary = server.shutdown().expect("graceful drain");
    assert_eq!(summary.errors, 1, "{summary:?}");
}

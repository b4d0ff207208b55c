//! Wire protocol of `incore-cli serve`: newline-delimited JSON frames
//! over a TCP stream (one request object per line in, one response
//! object per line out), zero-dependency on both sides — any language
//! that can open a socket and print a line can drive the server.
//!
//! Requests (`"id"` is an optional client-chosen correlation number,
//! echoed back verbatim; it defaults to 0):
//!
//! ```text
//! {"type":"analyze","id":1,"asm":".L1:\n ...","arch":"spr","mca":true}
//! {"type":"metrics","id":2}
//! {"type":"events","id":5,"since":17}
//! {"type":"ping","id":3}
//! {"type":"shutdown","id":4}
//! ```
//!
//! An `analyze` request selects its machine exactly like the batch CLI:
//! `"arch"`/`"model"` take the same family aliases and registry ids as
//! `--arch`/`--model` (resolved through [`crate::resolve_model_id`], so
//! an unknown name fails with the same message in both modes), and
//! `"machine_file"` is a server-side path like `--machine-file`. The
//! optional `"balanced"`, `"mca"`, and `"sim"` booleans mirror the
//! `analyze` flags; `"label"` names the kernel in the report. An
//! optional `"trace":true` asks the server to echo the request's
//! `trace_id` on the response (when the server is tracing, the request
//! also becomes a connected span tree in the Chrome-trace output).
//!
//! `events` drains the server's journal: `"since"` (default 0) is the
//! last sequence number already seen, and the response carries every
//! retained event newer than it plus `next_seq`/`dropped` cursors.
//!
//! Successful `analyze` responses embed the report as the **last** key —
//! `{"id":1,"ok":true,"report":<BatchReport>}` — so the report bytes can
//! be spliced out textually ([`extract_report`]) and compared
//! byte-for-byte against single-shot `analyze --json` output. Failures
//! are `{"id":1,"ok":false,"error":{"kind":"...","message":"..."}}`
//! where `kind` is the stable [`ErrorKind::label`](engine::ErrorKind);
//! an `"overloaded"` error additionally carries `"retry_after_ms"`.
//!
//! Framing is enforced, not assumed: a line longer than the configured
//! maximum is consumed to its newline and rejected with a `protocol`
//! error (the connection stays usable), a truncated final line (EOF
//! without newline) is accepted as a frame, and invalid UTF-8 or JSON is
//! a `protocol` error — never a panic.

use std::io::BufRead;

use crate::{AnalyzeFlags, Error, MachineRef, MachineSel};

/// Version of the request/response envelope (reported by `ping`).
pub const PROTOCOL_VERSION: u32 = 1;

/// Version of the `metrics` response body.
///
/// History: 1 = requests/cache/queue/service-time blocks; 2 = added the
/// `disk` block (persistent `--cache-dir` hit/miss/write/eviction
/// counters, zeroed with `"enabled":false` when no cache dir is set);
/// 3 = added `uptime_s`, the rolling `windows` block (10s/1m/5m req/s,
/// error rate, service p50/p99, cache/coalesce hit rates), and the
/// `journal` block (retained/dropped event counts + next_seq cursor).
/// Every version is a strict superset of its predecessor.
pub const METRICS_SCHEMA_VERSION: u32 = 3;

/// Default cap on one request frame (bytes, excluding the newline).
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 1 << 20;

/// One parsed `analyze` request.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    pub id: u64,
    /// Kernel label in the report (`"kernel"` when the request omits it).
    pub label: String,
    pub asm: String,
    /// Machine selection, same resolution rules as the batch CLI.
    pub sel: MachineSel,
    /// Predictor set: only `balanced`/`mca`/`sim` are wire-settable.
    pub flags: AnalyzeFlags,
    /// Echo the request's trace id on the response.
    pub trace: bool,
}

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Analyze(AnalyzeRequest),
    Metrics { id: u64 },
    Events { id: u64, since: u64 },
    Ping { id: u64 },
    Shutdown { id: u64 },
}

impl Request {
    pub fn id(&self) -> u64 {
        match self {
            Request::Analyze(a) => a.id,
            Request::Metrics { id }
            | Request::Events { id, .. }
            | Request::Ping { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// Reads newline-delimited frames off a stream, enforcing the size cap.
pub struct FrameReader<R> {
    inner: R,
    max: usize,
}

impl<R: BufRead> FrameReader<R> {
    pub fn new(inner: R, max_request_bytes: usize) -> Self {
        FrameReader {
            inner,
            max: max_request_bytes,
        }
    }

    /// Next frame: `Ok(None)` on clean EOF; `Err` with kind `Protocol`
    /// for an oversized or non-UTF-8 line (the stream is resynced to the
    /// next newline, so the connection stays usable) and kind `Io` when
    /// the underlying read fails.
    pub fn next_frame(&mut self) -> Result<Option<String>, Error> {
        let mut buf: Vec<u8> = Vec::new();
        let n = <&mut R as std::io::Read>::take(&mut self.inner, self.max as u64 + 2)
            .read_until(b'\n', &mut buf)
            .map_err(|e| Error::io("<socket>", &e))?;
        if n == 0 {
            return Ok(None);
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        if buf.len() > self.max {
            // Drain the rest of the oversized line so the next frame
            // starts clean, then reject this one.
            loop {
                let mut skip: Vec<u8> = Vec::new();
                let n = <&mut R as std::io::Read>::take(&mut self.inner, 1 << 16)
                    .read_until(b'\n', &mut skip)
                    .map_err(|e| Error::io("<socket>", &e))?;
                if n == 0 || skip.last() == Some(&b'\n') {
                    break;
                }
            }
            return Err(Error::protocol(format!(
                "request exceeds the {} byte frame limit",
                self.max
            )));
        }
        match String::from_utf8(buf) {
            Ok(line) => Ok(Some(line)),
            Err(_) => Err(Error::protocol("request frame is not valid UTF-8")),
        }
    }
}

fn field<'a>(obj: &'a serde::Map<String, serde::Value>, key: &str) -> Option<&'a serde::Value> {
    obj.get(key)
}

/// Move a string field out of the request object, so a request holds
/// one copy of its kernel text.
fn take_str(
    obj: &mut serde::Map<String, serde::Value>,
    key: &str,
) -> Result<Option<String>, Error> {
    match obj.remove(key) {
        None => Ok(None),
        Some(serde::Value::String(s)) => Ok(Some(s)),
        Some(_) => Err(Error::protocol(format!("`{key}` must be a string"))),
    }
}

fn bool_field(obj: &serde::Map<String, serde::Value>, key: &str) -> Result<bool, Error> {
    match field(obj, key) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| Error::protocol(format!("`{key}` must be a boolean"))),
    }
}

fn id_field(obj: &serde::Map<String, serde::Value>) -> Result<u64, Error> {
    match field(obj, "id") {
        None => Ok(0),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| Error::protocol("`id` must be a non-negative integer")),
    }
}

/// Parse one request line. Every failure is a workspace [`Error`] whose
/// kind goes on the wire: malformed frames are `protocol`, an unknown
/// machine name is the same `usage` error (same message) the batch CLI
/// produces for `--arch`/`--model`.
pub fn parse_request(line: &str) -> Result<Request, Error> {
    let v: serde::Value =
        serde_json::from_str(line).map_err(|e| Error::protocol(format!("invalid JSON: {e}")))?;
    let serde::Value::Object(mut obj) = v else {
        return Err(Error::protocol("request must be a JSON object"));
    };
    let ty = take_str(&mut obj, "type")?.ok_or_else(|| {
        Error::protocol("request needs a `type` (analyze, metrics, ping, shutdown)")
    })?;
    let id = id_field(&obj)?;
    let allowed: &[&str] = match ty.as_str() {
        "analyze" => &[
            "type",
            "id",
            "asm",
            "label",
            "arch",
            "model",
            "machine_file",
            "balanced",
            "mca",
            "sim",
            "trace",
        ],
        "events" => &["type", "id", "since"],
        "metrics" | "ping" | "shutdown" => &["type", "id"],
        other => {
            return Err(Error::protocol(format!(
                "unknown request type `{other}`; use analyze, metrics, events, ping, or shutdown"
            )))
        }
    };
    for (key, _) in obj.iter() {
        if !allowed.contains(&key.as_str()) {
            return Err(Error::protocol(format!(
                "unknown field `{key}` for a {ty} request"
            )));
        }
    }
    match ty.as_str() {
        "metrics" => Ok(Request::Metrics { id }),
        "events" => {
            let since = match field(&obj, "since") {
                None => 0,
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| Error::protocol("`since` must be a non-negative integer"))?,
            };
            Ok(Request::Events { id, since })
        }
        "ping" => Ok(Request::Ping { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        _ => {
            let asm = take_str(&mut obj, "asm")?
                .ok_or_else(|| Error::protocol("analyze request needs an `asm` string"))?;
            let label = take_str(&mut obj, "label")?.unwrap_or_else(|| "kernel".to_string());
            let mut sel = MachineSel::default();
            // Same resolution path as --arch/--model: family aliases and
            // registry ids, one shared error message.
            for key in ["arch", "model"] {
                if let Some(name) = take_str(&mut obj, key)? {
                    let resolved = crate::resolve_model_id(&name)?;
                    sel.refs.push(MachineRef::Model(resolved.to_string()));
                }
            }
            if let Some(path) = take_str(&mut obj, "machine_file")? {
                sel.refs.push(MachineRef::File(path));
            }
            let flags = AnalyzeFlags {
                balanced: bool_field(&obj, "balanced")?,
                mca: bool_field(&obj, "mca")?,
                sim: bool_field(&obj, "sim")?,
                ..AnalyzeFlags::default()
            };
            Ok(Request::Analyze(AnalyzeRequest {
                id,
                label,
                asm,
                sel,
                flags,
                trace: bool_field(&obj, "trace")?,
            }))
        }
    }
}

/// Successful `analyze` response. The report is spliced in verbatim as
/// the last key, so [`extract_report`] can recover its exact bytes.
pub fn render_analyze_ok(id: u64, report_json: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"report\":{report_json}}}\n")
}

/// Successful `analyze` response with the request's trace id echoed
/// (only when the client asked with `"trace":true` *and* the server is
/// tracing; `trace_id` 0 falls back to the plain envelope). The report
/// stays the last key, so [`extract_report`] works on both shapes.
pub fn render_analyze_ok_traced(id: u64, trace_id: u64, report_json: &str) -> String {
    if trace_id == 0 {
        return render_analyze_ok(id, report_json);
    }
    format!("{{\"id\":{id},\"ok\":true,\"trace_id\":{trace_id},\"report\":{report_json}}}\n")
}

/// Recover the embedded report bytes from a successful `analyze`
/// response frame (the inverse of [`render_analyze_ok`]).
pub fn extract_report(frame: &str) -> Option<&str> {
    let idx = frame.find("\"report\":")?;
    frame[idx + "\"report\":".len()..]
        .trim_end_matches('\n')
        .strip_suffix('}')
}

/// Error response; the `kind` is the stable machine-readable label.
pub fn render_error(id: u64, e: &Error) -> String {
    let message = serde_json::to_string(&e.to_string()).expect("strings always serialize");
    let retry = match e.retry_after_ms() {
        Some(ms) => format!(",\"retry_after_ms\":{ms}"),
        None => String::new(),
    };
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":{{\"kind\":\"{}\",\"message\":{message}{retry}}}}}\n",
        e.kind().label()
    )
}

pub fn render_pong(id: u64) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"pong\":true,\"protocol\":{PROTOCOL_VERSION}}}\n")
}

pub fn render_shutdown_ack(id: u64) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"draining\":true}}\n")
}

/// Wrap an already-serialized metrics object (see [`crate::serve`]) in
/// the response envelope.
pub fn render_metrics(id: u64, metrics_json: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"metrics\":{metrics_json}}}\n")
}

/// Wrap an already-serialized journal drain (see `crate::serve`) in the
/// response envelope.
pub fn render_events(id: u64, events_json: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"events\":{events_json}}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorKind;

    fn reader(bytes: &[u8], max: usize) -> FrameReader<std::io::BufReader<&[u8]>> {
        FrameReader::new(std::io::BufReader::new(bytes), max)
    }

    #[test]
    fn frames_split_on_newlines_and_tolerate_missing_final_newline() {
        let mut r = reader(b"one\ntwo\r\nthree", 64);
        assert_eq!(r.next_frame().unwrap(), Some("one".to_string()));
        assert_eq!(r.next_frame().unwrap(), Some("two".to_string()));
        assert_eq!(r.next_frame().unwrap(), Some("three".to_string()));
        assert_eq!(r.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_rejected_and_resynced() {
        let mut input = vec![b'x'; 200_000];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let mut r = reader(&input, 1024);
        let e = r.next_frame().unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Protocol);
        assert!(e.to_string().contains("1024"), "{e}");
        // The stream resynced to the next line.
        assert_eq!(r.next_frame().unwrap(), Some("ok".to_string()));
        assert_eq!(r.next_frame().unwrap(), None);
    }

    #[test]
    fn invalid_utf8_is_a_protocol_error_not_a_panic() {
        let mut r = reader(&[0xff, 0xfe, b'\n', b'o', b'k', b'\n'], 64);
        assert_eq!(r.next_frame().unwrap_err().kind(), ErrorKind::Protocol);
        assert_eq!(r.next_frame().unwrap(), Some("ok".to_string()));
    }

    #[test]
    fn parse_analyze_request_with_machine_and_flags() {
        let req = parse_request(
            r#"{"type":"analyze","id":7,"asm":".L1:\n nop\n","arch":"spr","mca":true,"sim":true}"#,
        )
        .unwrap();
        assert_eq!(req.id(), 7);
        match req {
            Request::Analyze(a) => {
                assert_eq!(a.sel, MachineSel::model("golden-cove"));
                assert!(a.flags.mca && a.flags.sim && !a.flags.balanced);
                assert_eq!(a.label, "kernel");
                assert_eq!(a.asm, ".L1:\n nop\n");
            }
            other => panic!("{other:?}"),
        }
        // machine_file lands as a File ref, which wins at resolution just
        // like --machine-file.
        let req = parse_request(
            r#"{"type":"analyze","asm":"nop","arch":"gcs","machine_file":"m.json","label":"k.s"}"#,
        )
        .unwrap();
        match req {
            Request::Analyze(a) => {
                assert_eq!(
                    a.sel.refs,
                    vec![
                        MachineRef::Model("neoverse-v2".into()),
                        MachineRef::File("m.json".into()),
                    ]
                );
                assert_eq!(a.label, "k.s");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_machine_shares_the_batch_cli_error() {
        let wire = parse_request(r#"{"type":"analyze","asm":"nop","arch":"m1"}"#).unwrap_err();
        let batch = crate::parse_args(&[
            "analyze".to_string(),
            "k.s".to_string(),
            "--arch".to_string(),
            "m1".to_string(),
        ])
        .unwrap_err();
        assert_eq!(wire.kind(), ErrorKind::Usage);
        assert_eq!(wire.to_string(), batch.to_string());
    }

    #[test]
    fn malformed_requests_get_stable_protocol_kinds() {
        for bad in [
            "not json",
            "[1,2,3]",
            r#"{"id":1}"#,
            r#"{"type":"frobnicate"}"#,
            r#"{"type":"analyze"}"#,
            r#"{"type":"analyze","asm":42}"#,
            r#"{"type":"analyze","asm":"nop","mca":"yes"}"#,
            r#"{"type":"ping","id":-3}"#,
            r#"{"type":"ping","extra":true}"#,
            r#"{"type":"events","since":-1}"#,
            r#"{"type":"events","kind":"x"}"#,
            r#"{"type":"analyze","asm":"nop","trace":"yes"}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.kind(), ErrorKind::Protocol, "{bad}: {e}");
        }
        assert_eq!(
            parse_request(r#"{"type":"ping","id":9}"#).unwrap(),
            Request::Ping { id: 9 }
        );
        assert_eq!(
            parse_request(r#"{"type":"shutdown"}"#).unwrap(),
            Request::Shutdown { id: 0 }
        );
        assert_eq!(
            parse_request(r#"{"type":"metrics"}"#).unwrap(),
            Request::Metrics { id: 0 }
        );
        assert_eq!(
            parse_request(r#"{"type":"events","id":4,"since":17}"#).unwrap(),
            Request::Events { id: 4, since: 17 }
        );
        assert_eq!(
            parse_request(r#"{"type":"events"}"#).unwrap(),
            Request::Events { id: 0, since: 0 }
        );
    }

    #[test]
    fn traced_analyze_round_trips_and_degrades() {
        let req = parse_request(r#"{"type":"analyze","id":1,"asm":"nop","trace":true}"#).unwrap();
        match req {
            Request::Analyze(a) => assert!(a.trace),
            other => panic!("{other:?}"),
        }
        let report = r#"{"schema_version":3}"#;
        let frame = render_analyze_ok_traced(9, 41, report);
        assert_eq!(extract_report(&frame), Some(report));
        let v: serde::Value = serde_json::from_str(frame.trim_end()).unwrap();
        assert_eq!(
            v.as_object().unwrap().get("trace_id").unwrap().as_u64(),
            Some(41)
        );
        // trace_id 0 (server not tracing) renders the plain envelope.
        assert_eq!(
            render_analyze_ok_traced(9, 0, report),
            render_analyze_ok(9, report)
        );
        let events = render_events(2, r#"{"next_seq":5,"dropped":0,"events":[]}"#);
        let v: serde::Value = serde_json::from_str(events.trim_end()).unwrap();
        assert!(v.as_object().unwrap().get("events").is_some());
    }

    #[test]
    fn analyze_ok_round_trips_the_report_bytes() {
        let report = r#"{"schema_version":3,"records":[{"kernel":"k"}]}"#;
        let frame = render_analyze_ok(12, report);
        assert!(frame.ends_with('\n'));
        assert_eq!(extract_report(&frame), Some(report));
        let v: serde::Value = serde_json::from_str(frame.trim_end()).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o.get("id").unwrap().as_u64(), Some(12));
        assert_eq!(o.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn error_frames_carry_kind_message_and_retry_hint() {
        let frame = render_error(3, &Error::protocol("bad \"quoted\" thing"));
        let v: serde::Value = serde_json::from_str(frame.trim_end()).unwrap();
        let err = v
            .as_object()
            .unwrap()
            .get("error")
            .unwrap()
            .as_object()
            .unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("protocol"));
        assert!(err
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("\"quoted\""));
        assert!(err.get("retry_after_ms").is_none());
        let frame = render_error(4, &Error::overloaded(25));
        let v: serde::Value = serde_json::from_str(frame.trim_end()).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o.get("ok").unwrap().as_bool(), Some(false));
        let err = o.get("error").unwrap().as_object().unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("overloaded"));
        assert_eq!(err.get("retry_after_ms").unwrap().as_u64(), Some(25));
    }

    #[test]
    fn control_responses_are_versioned() {
        let pong: serde::Value = serde_json::from_str(render_pong(1).trim_end()).unwrap();
        assert_eq!(
            pong.as_object().unwrap().get("protocol").unwrap().as_u64(),
            Some(PROTOCOL_VERSION as u64)
        );
        let ack: serde::Value = serde_json::from_str(render_shutdown_ack(2).trim_end()).unwrap();
        assert_eq!(
            ack.as_object().unwrap().get("draining").unwrap().as_bool(),
            Some(true)
        );
        let m = render_metrics(5, r#"{"schema_version":1}"#);
        let v: serde::Value = serde_json::from_str(m.trim_end()).unwrap();
        assert_eq!(
            v.as_object()
                .unwrap()
                .get("metrics")
                .unwrap()
                .as_object()
                .unwrap()
                .get("schema_version")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }
}

//! End-to-end and per-layer benchmark of the in-core modeling pipeline.
//!
//! ```text
//! perfbench --workload <fig3-validate|serve-zipf|fig4-sweep> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! `--trace 0` measures with tracing off and prints the end-to-end
//! metrics; `--trace 1` splits the time between an untraced and a traced
//! phase and prints the per-layer metrics, including the tracing overhead
//! between the two. The last line of standard output is the result object;
//! the line before it carries the provenance. `perfbench/run.py` builds
//! this package and runs it.

mod fig3;
mod fig4;
mod measure;
mod serve;
mod trace;

use measure::Outcome;

/// End-to-end metrics: every workload reports all of them.
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics. A layer a workload does not exercise reads 0 there.
const LAYERS: &[(&str, &str)] = &[
    ("isa.parse_us", "us"),
    ("incore.predict_us", "us"),
    ("mca.predict_us", "us"),
    ("kernels.generate_us", "us"),
    ("exec.simulate_us", "us"),
    ("exec.host_ns_per_sim_cycle", "ns"),
    ("engine.evaluate_overhead_us", "us"),
    ("engine.report_json_ms", "ms"),
    ("engine.unattributed_share", "share"),
    ("exec.sim_cycles_per_op", "count"),
    ("exec.early_exit_share", "share"),
    ("incore.rpe_median_pct", "%"),
    ("mca.rpe_median_pct", "%"),
    ("proto.parse_request_us", "us"),
    ("proto.render_us", "us"),
    ("serve.service_mean_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.response_hit_share", "share"),
    ("serve.response_evictions_per_op", "count"),
    ("serve.coalesce_share", "share"),
    ("serve.overloaded_share", "share"),
    ("obs.metrics_rt_us", "us"),
    ("engine.kernel_hit_share", "share"),
    ("memhier.std_sweep_us", "us"),
    ("memhier.nt_sweep_us", "us"),
    ("memhier.extrapolated_share", "share"),
    ("memhier.fast_path_share", "share"),
    ("bench.trace_overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--trace-out" => trace_out = Some(value.clone().into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// A JSON number: Rust's shortest round-trip form, all digits kept.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

fn provenance(args: &Args, out: &Outcome) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let mut fields = vec![
        ("commit".to_string(), env("PERFBENCH_COMMIT")),
        ("source_digest".to_string(), env("PERFBENCH_SOURCE_DIGEST")),
        ("rustc".to_string(), env("PERFBENCH_RUSTC")),
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "profile".to_string(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), (args.trace as u8).to_string()),
    ];
    fields.extend(out.notes.iter().map(|(k, v)| (k.to_string(), v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{}",
                serde_json::to_string(k).expect("string serializes"),
                serde_json::to_string(v).expect("string serializes")
            )
        })
        .collect();
    format!("{{\"provenance\":{{{}}}}}", body.join(","))
}

fn result(out: &Outcome, trace: bool) -> String {
    let (table, values) = if trace {
        (LAYERS, &out.layers)
    } else {
        (E2E, &out.e2e)
    };
    for name in values.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "workload reported unlisted metric {name}"
        );
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = match values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("workload did not report {name}"),
            };
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted > 0 && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "fig3-validate" => fig3::run(args.seed, args.seconds, args.trace),
        "serve-zipf" => serve::run(args.seed, args.seconds, args.trace),
        "fig4-sweep" => fig4::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    if args.trace {
        if let Some(path) = &args.trace_out {
            if let Err(e) = trace::write_chrome(path) {
                eprintln!("perfbench: writing {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!(
                "perfbench: {} spans written to {}",
                trace::count(),
                path.display()
            );
        }
    }
    println!("{}", provenance(&args, &out));
    println!("{}", result(&out, args.trace));
}

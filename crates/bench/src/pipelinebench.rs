//! Tracked throughput benchmark for the analysis pipeline: drive a
//! generated volume corpus (see [`kernels::volume::volume_blocks`])
//! through the `engine` session at 1 and 8 worker threads, and record
//! analyzed-kernels-per-second along four paths:
//!
//! 1. **baseline** — the pre-optimization `validate` path: a batch
//!    session whose MCA predictor is [`mca::McaReferenceBaseline`], the
//!    reference implementation the fast two-heap scheduler is pinned
//!    bit-identical to. This is the honest "before" number: same
//!    reports, pre-PR cost.
//! 2. **batch** — the current fast batch path ([`engine::Session::run`]).
//! 3. **cold** — the same session against a fresh persistent cache
//!    directory (computes everything, writes every record).
//! 4. **warm** — the same run again: every record replays from the
//!    content-addressed disk cache.
//!
//! Every pair of paths must produce byte-identical `BatchReport` JSON
//! once the observational `timings` and `obs` blocks are dropped — the
//! `byte_identical` flag in the report is the conjunction over all
//! measured thread counts. The `pipeline_core` bench target runs this
//! and writes `BENCH_pipeline.json` at the repository root, so pipeline
//! throughput is a tracked trajectory like sim/memhier/serve.

use std::time::Instant;

use engine::{BatchReport, Session};
use serde::Serialize;

/// One measured thread count.
#[derive(Debug, Clone, Serialize)]
pub struct ThreadRow {
    pub threads: usize,
    /// Pre-PR validate path: batch session, reference MCA scheduler.
    pub baseline_ms: f64,
    pub baseline_kernels_per_sec: f64,
    /// Current fast batch path.
    pub batch_ms: f64,
    pub batch_kernels_per_sec: f64,
    /// Batch path, fresh cache dir (compute + persist).
    pub cold_ms: f64,
    pub cold_kernels_per_sec: f64,
    /// Batch path, warm cache dir (disk replay).
    pub warm_ms: f64,
    pub warm_kernels_per_sec: f64,
    /// cold vs baseline (the acceptance gate asks ≥ 2×).
    pub cold_speedup_vs_baseline: f64,
    /// warm vs cold (the acceptance gate asks ≥ 10×).
    pub warm_speedup_vs_cold: f64,
    /// Disk cache counters of the warm run (hits must cover the corpus).
    pub warm_disk_hits: u64,
    pub warm_disk_misses: u64,
    /// baseline, batch, cold, and warm reports byte-identical (timings
    /// and obs dropped) at this thread count.
    pub byte_identical: bool,
}

/// The whole report, serialized to `BENCH_pipeline.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineBenchReport {
    pub schema_version: u32,
    pub arch: String,
    /// Volume-corpus blocks per run.
    pub blocks: usize,
    /// All byte-identity checks passed at every thread count.
    pub byte_identical: bool,
    /// Peak resident set of the bench process (`VmHWM`, kB) — a proxy,
    /// not a per-run measurement; `null` off Linux.
    pub peak_rss_kb: Option<u64>,
    pub threads: Vec<ThreadRow>,
}

impl PipelineBenchReport {
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }
}

const ARCH: uarch::Arch = uarch::Arch::GoldenCove;

/// A session over the volume corpus. No simulator reference: the bench
/// isolates the analysis pipeline (parse → in-core + MCA → report).
fn session(threads: usize, blocks: usize) -> Session {
    Session::new()
        .archs(&[ARCH])
        .volume(blocks)
        .threads(threads)
        .reference(None)
}

/// The same session on the pre-PR cost model: the reference MCA
/// scheduler instead of the fast two-heap one (bit-identical output).
fn baseline_session(threads: usize, blocks: usize) -> Session {
    session(threads, blocks).predictors(vec![
        Box::new(incore::InCoreModel::new()),
        Box::new(mca::McaReferenceBaseline),
    ])
}

/// Report JSON with the observational blocks dropped — the byte-identity
/// currency of the equivalence checks. `timings` is wall clock and `obs`
/// (present on the profiled warm run) carries wall-clock totals too.
/// Every analytical field and the cache counters stay.
fn normalized(report: &BatchReport) -> String {
    let mut r = report.clone();
    r.timings = Default::default();
    r.obs = None;
    r.to_json()
}

fn timed(run: impl FnOnce() -> BatchReport) -> (BatchReport, f64) {
    let start = Instant::now();
    let report = run();
    (report, start.elapsed().as_secs_f64() * 1e3)
}

/// `VmHWM` from `/proc/self/status` in kB (peak RSS of this process).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn run_threads(threads: usize, blocks: usize) -> ThreadRow {
    let (baseline, baseline_ms) = timed(|| {
        baseline_session(threads, blocks)
            .run()
            .expect("baseline runs")
    });
    let (batch, batch_ms) = timed(|| session(threads, blocks).run().expect("batch runs"));
    let dir = std::env::temp_dir().join(format!(
        "incore-pipeline-bench-{}-t{threads}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, cold_ms) = timed(|| {
        session(threads, blocks)
            .cache_dir(&dir)
            .run()
            .expect("cold runs")
    });
    // The warm run is profiled so its report carries the disk counters
    // in the `obs` block (which `normalized` drops).
    let (warm, warm_ms) = timed(|| {
        session(threads, blocks)
            .cache_dir(&dir)
            .profile(true)
            .run()
            .expect("warm runs")
    });
    let warm_obs = warm.obs.as_ref().expect("profiled run carries obs");
    let warm_disk_hits = warm_obs.disk_hits.expect("warm run had a cache dir");
    let warm_disk_misses = warm_obs.disk_misses.expect("warm run had a cache dir");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(batch.records.len(), blocks, "volume corpus size");
    let byte_identical = normalized(&baseline) == normalized(&batch)
        && normalized(&cold) == normalized(&batch)
        && normalized(&warm) == normalized(&cold);
    let kps = |ms: f64| blocks as f64 / (ms / 1e3).max(1e-9);
    ThreadRow {
        threads,
        baseline_ms,
        baseline_kernels_per_sec: kps(baseline_ms),
        batch_ms,
        batch_kernels_per_sec: kps(batch_ms),
        cold_ms,
        cold_kernels_per_sec: kps(cold_ms),
        warm_ms,
        warm_kernels_per_sec: kps(warm_ms),
        cold_speedup_vs_baseline: baseline_ms / cold_ms.max(1e-9),
        warm_speedup_vs_cold: cold_ms / warm_ms.max(1e-9),
        warm_disk_hits,
        warm_disk_misses,
        byte_identical,
    }
}

/// Run the pipeline benchmark. `limit` sets the volume-corpus size in
/// blocks (smoke runs); `None` is three full passes over the variant
/// grid, so replica blocks (distinct text, no kernel-memo shortcuts)
/// dominate the workload.
pub fn run(limit: Option<usize>) -> PipelineBenchReport {
    let grid = kernels::variants_for(ARCH).len();
    let blocks = limit.unwrap_or(grid * 3).max(1);
    let mut threads = Vec::new();
    let mut byte_identical = true;
    for t in [1usize, 8] {
        let row = run_threads(t, blocks);
        byte_identical &= row.byte_identical;
        threads.push(row);
    }
    PipelineBenchReport {
        schema_version: 1,
        arch: ARCH.chip().to_string(),
        blocks,
        byte_identical,
        peak_rss_kb: peak_rss_kb(),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_byte_identical_and_warm_replays() {
        let report = run(Some(6));
        assert!(report.byte_identical, "{report:?}");
        assert_eq!(report.blocks, 6);
        assert_eq!(
            report.threads.iter().map(|r| r.threads).collect::<Vec<_>>(),
            vec![1, 8]
        );
        for row in &report.threads {
            assert!(row.baseline_kernels_per_sec > 0.0);
            assert!(row.warm_kernels_per_sec > 0.0);
            assert_eq!(
                (row.warm_disk_hits, row.warm_disk_misses),
                (6, 0),
                "a warm rerun must replay every block from disk: {row:?}"
            );
        }
        let v: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(
            v.as_object()
                .unwrap()
                .get("schema_version")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }
}

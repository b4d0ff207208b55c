//! Oracle-ratio gates: every fast path timed against its in-run oracle,
//! uncapped and on one thread, with the outputs compared while doing
//! so. Absolute speeds belong to `perfbench/`; what is recorded here is
//! the ratio, which carries across hosts. The `oracle_ratios` bench
//! target runs [`run`], writes `BENCH_ratios.json` at the repository
//! root and then panics through [`Ratios::check`] on any mismatch or on
//! any ratio below its floor.
//!
//! The pairs:
//! - **exec** — the event engine against `SimConfig{reference:true}` on
//!   all 416 corpus blocks, bit for bit.
//! - **memhier** — `sweep_points` against the per-count
//!   `StreamConfig::reference()` pipeline on every Fig. 4 point, bit for
//!   bit; the Fig. 4, Table I and ECM sweeps must also be identical on
//!   the default pool and on a 1-thread pool.
//! - **pipeline** — a cold `cache_dir` session against the
//!   `McaReferenceBaseline` session, and the warm rerun against the cold
//!   one. The warm run must hit on every block, and all three reports
//!   must be byte-identical once `timings` and `obs` are dropped.
//! - **obs** — a validation run with the recorder enabled against one
//!   with it disabled: byte-identical reports, overhead recorded but not
//!   gated.

use std::process::Command;
use std::time::Instant;

use engine::{BatchReport, Session};
use memhier::storebench::{self, SweepScratch};
use memhier::{StoreKind, StorePoint, StreamConfig};
use serde::Serialize;

/// exec: event engine vs reference engine (recorded 6.9×, per-machine
/// minimum 4.8×).
pub const EXEC_FLOOR: f64 = 3.0;
/// memhier: streaming sweep vs per-access reference. The cold fold put
/// it at 1425–1837× over nine runs on a 2-vCPU host (74× before), so
/// the floor keeps a margin of almost 3×.
pub const MEMHIER_FLOOR: f64 = 500.0;
/// pipeline: cold cache-dir session vs the reference-MCA baseline.
pub const COLD_VS_BASELINE_FLOOR: f64 = 2.0;
/// pipeline: warm cache-dir rerun vs the cold run.
pub const WARM_VS_COLD_FLOOR: f64 = 10.0;

/// One fast/oracle pair. `ratio` is `oracle_ms / fast_ms`.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    pub pair: &'static str,
    pub fast_ms: f64,
    pub oracle_ms: f64,
    pub ratio: f64,
    /// The ratio must reach this; `None` records without a gate.
    pub floor: Option<f64>,
    pub equivalent: bool,
}

impl Row {
    fn new(pair: &'static str, fast_ms: f64, oracle_ms: f64, floor: Option<f64>) -> Self {
        Row {
            pair,
            fast_ms,
            oracle_ms,
            ratio: oracle_ms / fast_ms.max(1e-9),
            floor,
            equivalent: true,
        }
    }
}

/// The whole report, serialized to `BENCH_ratios.json`.
#[derive(Debug, Clone, Serialize)]
pub struct Ratios {
    pub schema_version: u32,
    /// `git rev-parse HEAD`, `null` when git cannot be run.
    pub commit: Option<String>,
    /// `rustc --version`, `null` when rustc cannot be run.
    pub rustc: Option<String>,
    pub nproc: usize,
    pub profile: &'static str,
    /// `(enabled - disabled) / disabled` of the obs pair, in percent.
    pub obs_overhead_pct: f64,
    pub rows: Vec<Row>,
}

impl Ratios {
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }

    /// Every gate that failed, one line each; empty when all hold.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.rows {
            if !r.equivalent {
                out.push(format!("{}: fast path diverged from its oracle", r.pair));
            }
            if let Some(floor) = r.floor.filter(|&f| r.ratio < f) {
                out.push(format!(
                    "{}: ratio {:.2}x below its floor {floor}x",
                    r.pair, r.ratio
                ));
            }
        }
        out
    }

    /// Panic on any mismatch or on any ratio below its floor.
    pub fn check(&self) {
        let failures = self.failures();
        assert!(
            failures.is_empty(),
            "oracle-ratio gate failed:\n{}",
            failures.join("\n")
        );
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Run every pair and collect the report.
pub fn run() -> Ratios {
    let exec = exec_pair();
    let memhier = memhier_pair();
    let (cold, warm) = pipeline_pairs();
    let (obs, obs_overhead_pct) = obs_pair();
    Ratios {
        schema_version: 1,
        commit: command_output("git", &["rev-parse", "HEAD"]),
        rustc: command_output("rustc", &["--version"]),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        obs_overhead_pct,
        rows: vec![exec, memhier, cold, warm, obs],
    }
}

fn sim_bits(r: exec::SimResult) -> (u64, u64, u64, bool) {
    (
        r.cycles_per_iter.to_bits(),
        r.total_cycles,
        r.uops_per_cycle.to_bits(),
        r.truncated,
    )
}

/// exec: event engine vs `SimConfig{reference:true}` over the corpus.
fn exec_pair() -> Row {
    let cfg = exec::SimConfig::default();
    let ref_cfg = exec::SimConfig {
        reference: true,
        ..cfg
    };
    let mut scratch = exec::SimScratch::default();
    let (mut fast_ms, mut oracle_ms, mut equivalent) = (0.0, 0.0, true);
    for m in uarch::all_machines() {
        let ks: Vec<isa::Kernel> = kernels::variants_for(m.arch)
            .iter()
            .map(|v| kernels::generate_kernel(v, &m))
            .collect();
        // Warm the describe caches and the scratch arena so both timed
        // passes measure simulation, not first-touch allocation.
        for k in &ks {
            std::hint::black_box(exec::simulate_with_scratch(&m, k, cfg, &mut scratch));
        }
        let start = Instant::now();
        let fast: Vec<exec::SimResult> = ks
            .iter()
            .map(|k| exec::simulate_with_scratch(&m, k, cfg, &mut scratch))
            .collect();
        fast_ms += ms_since(start);
        let start = Instant::now();
        let oracle: Vec<exec::SimResult> =
            ks.iter().map(|k| exec::simulate(&m, k, ref_cfg)).collect();
        oracle_ms += ms_since(start);
        equivalent &= fast
            .iter()
            .zip(&oracle)
            .all(|(f, o)| sim_bits(*f) == sim_bits(*o));
    }
    Row {
        equivalent,
        ..Row::new("exec", fast_ms, oracle_ms, Some(EXEC_FLOOR))
    }
}

fn point_bits(p: &StorePoint) -> (u32, u64, u64) {
    (p.cores, p.ratio.to_bits(), p.utilization.to_bits())
}

/// memhier: `sweep_points` vs the per-count reference pipeline over the
/// Fig. 4 sweep, plus the pool-size invariance of the parallel sweeps.
fn memhier_pair() -> Row {
    let machines = uarch::all_machines();
    let (mut fast_ms, mut oracle_ms, mut equivalent) = (0.0, 0.0, true);
    for m in &machines {
        let counts = storebench::fig4_core_counts(m);
        let mut kinds = vec![StoreKind::Standard];
        if storebench::nt_applicable(m.arch) {
            kinds.push(StoreKind::NonTemporal);
        }
        let mut scratch = SweepScratch::default();
        let sweep = |k: StoreKind, scratch: &mut SweepScratch| {
            storebench::sweep_points(m, &counts, k, StreamConfig::default(), scratch)
        };
        // Warm the hierarchy pool and snapshot buffers so the timed fast
        // pass measures streaming, not first-touch allocation.
        for &k in &kinds {
            std::hint::black_box(sweep(k, &mut scratch));
        }
        let start = Instant::now();
        let fast: Vec<StorePoint> = kinds.iter().flat_map(|&k| sweep(k, &mut scratch)).collect();
        fast_ms += ms_since(start);
        let start = Instant::now();
        let oracle: Vec<StorePoint> = kinds
            .iter()
            .flat_map(|&k| {
                counts.iter().map(move |&n| {
                    storebench::store_traffic_ratio_with(
                        m,
                        n,
                        k,
                        StreamConfig::reference(),
                        &mut SweepScratch::default(),
                    )
                })
            })
            .collect();
        oracle_ms += ms_since(start);
        equivalent &= fast.len() == oracle.len()
            && fast
                .iter()
                .zip(&oracle)
                .all(|(f, o)| point_bits(f) == point_bits(o));
    }

    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds");
    let counts: Vec<Vec<u32>> = machines.iter().map(storebench::fig4_core_counts).collect();
    let fig4 = || {
        serde_json::to_string(&storebench::fig4_full_with(
            &machines,
            &counts,
            StreamConfig::default(),
        ))
        .expect("serializes")
    };
    let ecm = || serde_json::to_string(&node::ecm::triad_ecm_rows(&machines)).expect("serializes");
    equivalent &= fig4() == one.install(fig4)
        && crate::tables::render_table1() == one.install(crate::tables::render_table1)
        && ecm() == one.install(ecm);
    Row {
        equivalent,
        ..Row::new("memhier", fast_ms, oracle_ms, Some(MEMHIER_FLOOR))
    }
}

const PIPELINE_ARCH: uarch::Arch = uarch::Arch::GoldenCove;

/// A one-thread session over three passes of the SPR variant grid, so
/// replica blocks (distinct text, no kernel-memo shortcuts) dominate. No
/// simulator reference: the pair isolates parse, in-core, MCA and report.
fn pipeline_session() -> Session {
    Session::new()
        .archs(&[PIPELINE_ARCH])
        .volume(3 * kernels::variants_for(PIPELINE_ARCH).len())
        .threads(1)
        .reference(None)
}

/// Report JSON without the observational `timings` and `obs` blocks.
fn normalized(report: &BatchReport) -> String {
    let mut r = report.clone();
    r.timings = Default::default();
    r.obs = None;
    r.to_json()
}

fn timed(session: Session) -> (BatchReport, f64) {
    let start = Instant::now();
    let report = session.run().expect("pipeline session runs");
    (report, ms_since(start))
}

/// pipeline: (cold vs baseline, warm vs cold).
fn pipeline_pairs() -> (Row, Row) {
    let (baseline, baseline_ms) = timed(pipeline_session().predictors(vec![
        Box::new(incore::InCoreModel::new()),
        Box::new(mca::McaReferenceBaseline),
    ]));
    let dir = std::env::temp_dir().join(format!("incore-oracle-ratios-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, cold_ms) = timed(pipeline_session().cache_dir(&dir));
    // Profiled so the report carries the disk counters in `obs`.
    let (warm, warm_ms) = timed(pipeline_session().cache_dir(&dir).profile(true));
    let _ = std::fs::remove_dir_all(&dir);
    let warm_obs = warm.obs.as_ref().expect("profiled run carries obs");
    let all_hit =
        warm_obs.disk_hits == Some(warm.records.len() as u64) && warm_obs.disk_misses == Some(0);
    let equivalent = all_hit
        && normalized(&baseline) == normalized(&cold)
        && normalized(&warm) == normalized(&cold);
    (
        Row {
            equivalent,
            ..Row::new(
                "pipeline.cold_vs_baseline",
                cold_ms,
                baseline_ms,
                Some(COLD_VS_BASELINE_FLOOR),
            )
        },
        Row {
            equivalent,
            ..Row::new(
                "pipeline.warm_vs_cold",
                warm_ms,
                cold_ms,
                Some(WARM_VS_COLD_FLOOR),
            )
        },
    )
}

/// One single-threaded corpus validation: timings-zeroed JSON and ms.
fn validation() -> (String, f64) {
    let start = Instant::now();
    let mut report = Session::new()
        .threads(1)
        .run()
        .expect("corpus validation runs");
    let ms = ms_since(start);
    report.timings = engine::RunTimings::default();
    (report.to_json(), ms)
}

/// obs: recorder disabled (fast) vs enabled (oracle), and the overhead
/// in percent. The recorder is left disabled and drained.
fn obs_pair() -> (Row, f64) {
    obs::disable();
    let _ = obs::take();
    // Warm-up pass: parse caches, allocator.
    let (warmup, _) = validation();
    let (disabled, disabled_ms) = validation();
    obs::enable();
    let (enabled, enabled_ms) = validation();
    let profile = obs::take();
    obs::disable();
    let row = Row {
        equivalent: warmup == disabled && enabled == disabled && !profile.spans.is_empty(),
        ..Row::new("obs", disabled_ms, enabled_ms, None)
    };
    let overhead_pct = (row.ratio - 1.0) * 100.0;
    (row, overhead_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: Vec<Row>) -> Ratios {
        Ratios {
            schema_version: 1,
            commit: None,
            rustc: None,
            nproc: 1,
            profile: "debug",
            obs_overhead_pct: 0.0,
            rows,
        }
    }

    #[test]
    fn failures_name_each_mismatch_and_each_ratio_below_its_floor() {
        let ok = Row::new("exec", 1.0, 4.0, Some(EXEC_FLOOR));
        let slow = Row::new("memhier", 1.0, 4.0, Some(MEMHIER_FLOOR));
        let ungated = Row::new("obs", 1.0, 0.5, None);
        let diverged = Row {
            equivalent: false,
            ..ok.clone()
        };
        assert!(report(vec![ok.clone(), ungated.clone()])
            .failures()
            .is_empty());
        let failures = report(vec![ok, slow, ungated, diverged]).failures();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(
            failures[0].starts_with("memhier: ratio 4.00x below"),
            "{failures:?}"
        );
        assert!(
            failures[1].starts_with("exec: fast path diverged"),
            "{failures:?}"
        );
    }

    #[test]
    fn report_json_carries_provenance_and_every_row_field() {
        let json = report(vec![Row::new("obs", 2.0, 3.0, None)]).to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let o = v.as_object().unwrap();
        for key in [
            "commit",
            "rustc",
            "nproc",
            "profile",
            "obs_overhead_pct",
            "rows",
        ] {
            assert!(o.get(key).is_some(), "missing `{key}` in {json}");
        }
        let row = o.get("rows").unwrap().as_array().unwrap()[0]
            .as_object()
            .unwrap();
        for key in [
            "pair",
            "fast_ms",
            "oracle_ms",
            "ratio",
            "floor",
            "equivalent",
        ] {
            assert!(row.get(key).is_some(), "missing row `{key}` in {json}");
        }
        assert_eq!(row.get("ratio").unwrap().as_f64(), Some(1.5));
    }
}

//! The batch analysis pipeline: a corpus of kernels × machines ×
//! predictors, evaluated in parallel with content-keyed memoization.
//!
//! [`Session`] is a builder: select machines, predictors, corpus size and
//! thread count, then [`run`](Session::run) the whole grid. Each kernel
//! variant is generated and decoded **once** (via [`CorpusCache`]) and the
//! parsed kernel is shared across every predictor; the work grid is fanned
//! out over a `rayon` pool whose output ordering is deterministic, so the
//! resulting [`BatchReport`] is byte-identical regardless of thread count.
//!
//! ```
//! let report = engine::Session::new()
//!     .archs(&[uarch::Arch::GoldenCove])
//!     .limit(8)
//!     .threads(2)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.records.len(), 8);
//! assert!(report.summary("incore").is_some());
//! ```

use std::path::PathBuf;
use std::time::Instant;

use rayon::prelude::*;

use crate::cache::CorpusCache;
use crate::diskcache::{DiskCache, DiskStats};
use crate::error::Error;
use crate::key::Key;
use crate::report::{
    rpe, BatchReport, ObsPredictorTimings, ObsSummary, PredictorResult, RecordReport, RunTimings,
    SCHEMA_MINOR,
};
use kernels::volume::VolumeBlock;
use uarch::{Machine, Predictor};

/// Descriptive labels for one evaluated block.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockLabels<'a> {
    pub kernel: &'a str,
    pub compiler: &'a str,
    pub opt: &'a str,
}

/// Wall-clock attribution for one evaluated block, in nanoseconds.
/// Summed into [`crate::report::RunTimings`] by the batch pipeline.
#[derive(Debug, Clone, Default)]
pub struct BlockTimings {
    pub parse_ns: u64,
    pub reference_ns: u64,
    pub predictors_ns: u64,
    /// Cache time: in-memory kernel-cache *hits* plus persistent-cache
    /// probes, record decodes, and writes. Disjoint from `parse_ns` (a
    /// kernel lookup books under exactly one of the two) and from the
    /// compute fields (a replayed block books no reference/predictor
    /// time at all) — replay must never double-count as compute.
    pub cache_ns: u64,
    /// Per-predictor breakdown of `predictors_ns`, in `analytical` order.
    /// Empty for a block replayed from the persistent cache.
    pub per_predictor_ns: Vec<u64>,
}

/// Evaluate one parsed kernel on one machine: run the reference (if any)
/// and every analytical predictor, compute RPEs against the reference,
/// and apply the divergence rules. This is the single block evaluation
/// both the batch pipeline and `incore-cli analyze --json` go through.
pub fn evaluate_block(
    machine: &Machine,
    kernel: &isa::Kernel,
    labels: BlockLabels<'_>,
    analytical: &[&dyn Predictor],
    reference: Option<&dyn Predictor>,
) -> RecordReport {
    evaluate_block_timed(machine, kernel, labels, analytical, reference).0
}

/// [`evaluate_block`] plus per-phase wall-clock attribution (via
/// [`Predictor::predict_timed`]). The block is described once
/// ([`Machine::describe_kernel`]) and the descriptors are handed to every
/// predictor. The timings are observational only — the record is
/// computed identically either way.
pub fn evaluate_block_timed(
    machine: &Machine,
    kernel: &isa::Kernel,
    labels: BlockLabels<'_>,
    analytical: &[&dyn Predictor],
    reference: Option<&dyn Predictor>,
) -> (RecordReport, BlockTimings) {
    let mut timings = BlockTimings::default();
    // One span per predictor call when the obs recorder is on (the
    // `--profile` trace shows each kernel × predictor as its own slice);
    // a single cached bool keeps the disabled path free of formatting.
    let profiling = obs::enabled();
    // One descriptor lookup per block, shared by every predictor.
    let descs = machine.describe_kernel(kernel);
    let measured = reference.map(|r| {
        let _span = profiling.then(|| obs::span(&format!("{}:{}", r.name(), labels.kernel)));
        let (p, took) = r.predict_timed(machine, kernel, &descs);
        timings.reference_ns = took.as_nanos() as u64;
        p.cycles_per_iter
    });
    let predictions: Vec<PredictorResult> = analytical
        .iter()
        .map(|p| {
            let _span = profiling.then(|| obs::span(&format!("{}:{}", p.name(), labels.kernel)));
            let (pred, took) = p.predict_timed(machine, kernel, &descs);
            timings.predictors_ns += took.as_nanos() as u64;
            timings.per_predictor_ns.push(took.as_nanos() as u64);
            PredictorResult {
                predictor: p.name().to_string(),
                cycles_per_iter: pred.cycles_per_iter,
                rpe: measured.map(|m| rpe(m, pred.cycles_per_iter)),
                bottleneck: pred.bottleneck.label().to_string(),
                port_pressure: pred.port_pressure,
                uops_per_iter: pred.uops_per_iter,
            }
        })
        .collect();
    let named: Vec<(&str, f64)> = predictions
        .iter()
        .map(|p| (p.predictor.as_str(), p.cycles_per_iter))
        .collect();
    let reference_named = reference.zip(measured).map(|(r, cy)| (r.name(), cy));
    let divergence = diag::divergence_diags_named(&named, reference_named)
        .into_iter()
        .map(|d| d.code.to_string())
        .collect();
    let record = RecordReport {
        kernel: labels.kernel.to_string(),
        compiler: labels.compiler.to_string(),
        opt: labels.opt.to_string(),
        chip: machine.chip.to_string(),
        measured,
        predictions,
        divergence,
    };
    (record, timings)
}

/// Builder for a batch validation run.
///
/// Defaults mirror the paper's Fig. 3 setup: all three machines, the
/// in-core model and the MCA baseline as analytical predictors, the
/// cycle-level simulator as the reference measurement, every corpus
/// variant, and one worker per available core.
pub struct Session {
    archs: Vec<uarch::Arch>,
    machines: Vec<Machine>,
    machine_files: Vec<(String, String)>,
    predictors: Vec<Box<dyn Predictor>>,
    reference: Option<Box<dyn Predictor>>,
    threads: usize,
    limit: Option<usize>,
    volume: Option<usize>,
    cache_dir: Option<PathBuf>,
    profile: bool,
}

impl Default for Session {
    fn default() -> Self {
        Session {
            archs: vec![
                uarch::Arch::NeoverseV2,
                uarch::Arch::GoldenCove,
                uarch::Arch::Zen4,
            ],
            machines: Vec::new(),
            machine_files: Vec::new(),
            predictors: vec![
                Box::new(incore::InCoreModel::new()),
                Box::new(mca::McaBaseline),
            ],
            reference: Some(Box::new(exec::CoreSimulator::default())),
            threads: 0,
            limit: None,
            volume: None,
            cache_dir: None,
            profile: false,
        }
    }
}

impl Session {
    pub fn new() -> Self {
        Session::default()
    }

    /// Restrict the run to the family models of these `Arch`es (in the
    /// given order). Convenience wrapper over [`machines`](Self::machines)
    /// for the paper's trio; clears any previous explicit selection.
    pub fn archs(mut self, archs: &[uarch::Arch]) -> Self {
        self.archs = archs.to_vec();
        self.machines.clear();
        self
    }

    /// Run exactly these machine models (registry models, composed
    /// variants, anything). Replaces the default/`archs` selection;
    /// machine files still join the grid afterwards.
    pub fn machines(mut self, machines: Vec<Machine>) -> Self {
        self.machines = machines;
        self.archs.clear();
        self
    }

    /// Add a machine imported from JSON machine-file text; `label` names
    /// it in error messages. The machine joins the grid alongside the
    /// builtin ones.
    pub fn machine_file(mut self, label: impl Into<String>, json: impl Into<String>) -> Self {
        self.machine_files.push((label.into(), json.into()));
        self
    }

    /// Replace the analytical predictor set.
    pub fn predictors(mut self, predictors: Vec<Box<dyn Predictor>>) -> Self {
        self.predictors = predictors;
        self
    }

    /// Add one analytical predictor to the set.
    pub fn predictor(mut self, p: Box<dyn Predictor>) -> Self {
        self.predictors.push(p);
        self
    }

    /// Replace (or with `None`, disable) the reference measurement.
    pub fn reference(mut self, reference: Option<Box<dyn Predictor>>) -> Self {
        self.reference = reference;
        self
    }

    /// Run the default simulator reference with this configuration
    /// (iteration counts, quirks, engine selection). Replaces any
    /// previously set reference predictor.
    pub fn sim_config(mut self, config: exec::SimConfig) -> Self {
        self.reference = Some(Box::new(exec::CoreSimulator { config }));
        self
    }

    /// Worker thread count; `0` (default) = all available cores.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Evaluate only the first `limit` blocks of the grid (test slices).
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Use a volume corpus of `blocks` blocks **per machine** instead of
    /// the standard validation grid: the generator variants cycled with a
    /// replica tag per full pass (see [`kernels::volume::volume_blocks`]).
    /// The first pass reproduces the standard corpus exactly, so a volume
    /// ≤ the grid size is a prefix of the standard run.
    pub fn volume(mut self, blocks: usize) -> Self {
        self.volume = Some(blocks);
        self
    }

    /// Persist evaluated records in a content-addressed cache under
    /// `dir`, replaying them on later runs with an identical [`Key`]
    /// (machine model, predictor set with its configuration, and block
    /// text) and report schema. A replayed run's report is byte-identical
    /// to the computed one — floats are stored bit-exactly — except for
    /// the observational `timings` block.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Attach the additive [`ObsSummary`] block (per-predictor counter
    /// summaries) to the report. Off by default — the block carries
    /// wall-clock observations, so profiled reports are not
    /// byte-comparable; a non-profiled run's JSON is unchanged.
    pub fn profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Resolve the machine list: explicit machines, then the family model
    /// per selected `Arch`, then the imported machine files.
    fn resolve_machines(&self, cache: &CorpusCache) -> Result<Vec<Machine>, Error> {
        let mut machines: Vec<Machine> = self.machines.clone();
        for arch in &self.archs {
            let m = uarch::all_machines()
                .into_iter()
                .find(|m| m.arch == *arch)
                .expect("every Arch has a builtin machine");
            machines.push(m);
        }
        for (label, json) in &self.machine_files {
            let m = cache
                .machine(json)
                .map_err(|e| e.with_context(label.clone()))?;
            machines.push(m.machine.clone());
        }
        Ok(machines)
    }

    /// The work grid: each machine's blocks in variant order — the
    /// standard validation grid (replica 0 only), or a volume corpus
    /// when [`volume`](Self::volume) is set — truncated by `limit`.
    fn grid_blocks(&self, machines: &[Machine]) -> Vec<(usize, VolumeBlock)> {
        let mut grid: Vec<(usize, VolumeBlock)> = Vec::new();
        for (i, m) in machines.iter().enumerate() {
            let blocks = match self.volume {
                Some(total) => kernels::volume::volume_blocks(m.arch, total),
                None => kernels::volume::volume_blocks(m.arch, kernels::variants_for(m.arch).len()),
            };
            grid.extend(blocks.into_iter().map(|b| (i, b)));
        }
        if let Some(limit) = self.limit {
            grid.truncate(limit);
        }
        grid
    }

    /// Run the full grid and collect the report.
    pub fn run(&self) -> Result<BatchReport, Error> {
        let wall_start = Instant::now();
        let cache = CorpusCache::new();
        let machines = self.resolve_machines(&cache)?;
        let grid = self.grid_blocks(&machines);
        let analytical: Vec<&dyn Predictor> = self.predictors.iter().map(|b| b.as_ref()).collect();
        let reference = self.reference.as_deref();
        // The persistent tier with each machine's key for the run (text
        // left empty). Only an open cache dir fingerprints the machines.
        let disk = match &self.cache_dir {
            Some(dir) => {
                let predictors = Key::predictor_set(&analytical, reference);
                let keys: Vec<Key> = machines
                    .iter()
                    .map(|m| Key {
                        machine: Key::fingerprint(m),
                        predictors: predictors.clone(),
                        text: String::new(),
                    })
                    .collect();
                Some((DiskCache::open(dir)?, keys))
            }
            None => None,
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .expect("thread pool construction is infallible");
        let outcomes: Result<Vec<(RecordReport, BlockTimings)>, Error> = pool.install(|| {
            grid.into_par_iter()
                .map(|(mi, block)| {
                    process_block(
                        &machines[mi],
                        &block,
                        &cache,
                        disk.as_ref().map(|(d, keys)| (d, &keys[mi])),
                        &analytical,
                        reference,
                    )
                })
                .collect()
        });
        let (records, block_timings): (Vec<RecordReport>, Vec<BlockTimings>) =
            outcomes?.into_iter().unzip();
        let mut report = BatchReport::from_records(
            machines.iter().map(|m| m.name.to_string()).collect(),
            self.predictors
                .iter()
                .map(|p| p.name().to_string())
                .collect(),
            self.reference.as_ref().map(|r| r.name().to_string()),
            records,
            cache.stats(),
        );
        report.timings = fold_timings(wall_start, block_timings.iter());
        let disk_stats = disk.as_ref().map(|(d, _)| d.stats());
        if self.profile {
            report.obs = Some(obs_summary(
                &self.predictors,
                self.reference.as_deref(),
                &block_timings,
                report.cache,
                disk_stats,
            ));
        }
        if obs::enabled() {
            let c = report.cache;
            obs::counter("engine.blocks", block_timings.len() as u64);
            obs::counter("engine.cache.kernel_hits", c.kernel_hits);
            obs::counter("engine.cache.kernel_misses", c.kernel_misses);
            obs::counter("engine.cache.machine_hits", c.machine_hits);
            obs::counter("engine.cache.machine_misses", c.machine_misses);
            // Always zero here (batch runs are unbounded) but exported so
            // the counter set matches a bounded server-side cache.
            let ev = cache.evictions();
            obs::counter("engine.cache.kernel_evictions", ev.kernel_evictions);
            obs::counter("engine.cache.machine_evictions", ev.machine_evictions);
            if let Some(s) = disk_stats {
                obs_disk_counters(s);
            }
        }
        Ok(report)
    }
}

/// Evaluate one grid block: generate its text, decode it through the
/// shared kernel memo, replay the record from the persistent cache when
/// possible, and otherwise evaluate and store it.
///
/// Timing attribution: the kernel lookup books under `parse_ns` on a
/// miss and `cache_ns` on a hit; persistent-cache probes, decodes, and
/// writes always book under `cache_ns`. A replayed block therefore
/// reports zero reference/predictor time — cache hits never double-count
/// as compute.
fn process_block(
    machine: &Machine,
    block: &VolumeBlock,
    cache: &CorpusCache,
    disk: Option<(&DiskCache, &Key)>,
    analytical: &[&dyn Predictor],
    reference: Option<&dyn Predictor>,
) -> Result<(RecordReport, BlockTimings), Error> {
    let asm = block.generate(machine);
    let kernel_label = block.kernel_label();
    let mut timings = BlockTimings::default();
    // The memo sees every block, replayed or not, so a warm run reports
    // the same kernel-cache counters as a cold one.
    let lookup_start = Instant::now();
    let (kernel, hit) = cache
        .kernel_with_hit(&asm, machine.isa)
        .map_err(|e| e.with_context(block.variant.label()))?;
    let lookup_ns = lookup_start.elapsed().as_nanos() as u64;
    if hit {
        timings.cache_ns += lookup_ns;
    } else {
        timings.parse_ns += lookup_ns;
    }
    let labels = BlockLabels {
        kernel: &kernel_label,
        compiler: block.variant.compiler.name(),
        opt: block.variant.opt.name(),
    };
    let disk = disk.map(|(d, key)| {
        (
            d,
            Key {
                text: asm,
                ..key.clone()
            },
        )
    });
    if let Some((disk, key)) = &disk {
        let probe_start = Instant::now();
        let replayed = disk.get(key, labels, machine.chip);
        timings.cache_ns += probe_start.elapsed().as_nanos() as u64;
        if let Some(record) = replayed {
            return Ok((record, timings));
        }
    }
    let (record, computed) = evaluate_block_timed(machine, &kernel, labels, analytical, reference);
    timings.reference_ns += computed.reference_ns;
    timings.predictors_ns += computed.predictors_ns;
    timings.per_predictor_ns = computed.per_predictor_ns;
    if let Some((disk, key)) = &disk {
        let put_start = Instant::now();
        disk.put(key, &record);
        timings.cache_ns += put_start.elapsed().as_nanos() as u64;
    }
    Ok((record, timings))
}

/// Sum per-block timings into the report's [`RunTimings`].
fn fold_timings<'a>(
    wall_start: Instant,
    blocks: impl Iterator<Item = &'a BlockTimings>,
) -> RunTimings {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut t = RunTimings::default();
    for b in blocks {
        t.parse_ms += ms(b.parse_ns);
        t.reference_ms += ms(b.reference_ns);
        t.predictors_ms += ms(b.predictors_ns);
        t.cache_ms += ms(b.cache_ns);
    }
    t.wall_ms = wall_start.elapsed().as_nanos() as f64 / 1e6;
    t
}

fn obs_disk_counters(s: DiskStats) {
    obs::counter("engine.diskcache.hits", s.hits);
    obs::counter("engine.diskcache.misses", s.misses);
    obs::counter("engine.diskcache.writes", s.writes);
    obs::counter("engine.diskcache.evictions", s.evictions);
    obs::counter("engine.diskcache.stale", s.stale);
    obs::counter("engine.diskcache.corrupt", s.corrupt);
}

/// Fold the per-block timing vectors into the report's [`ObsSummary`]:
/// one [`ObsPredictorTimings`] row per analytical predictor (in session
/// order), the reference appended last when one ran.
fn obs_summary(
    predictors: &[Box<dyn Predictor>],
    reference: Option<&dyn Predictor>,
    block_timings: &[BlockTimings],
    cache: crate::cache::CacheStats,
    disk: Option<DiskStats>,
) -> ObsSummary {
    let calls = block_timings.len() as u64;
    let row = |name: &str, total_ns: u64| ObsPredictorTimings {
        predictor: name.to_string(),
        calls,
        total_ns,
        mean_ns: if calls == 0 {
            0.0
        } else {
            total_ns as f64 / calls as f64
        },
    };
    let mut rows: Vec<ObsPredictorTimings> = predictors
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let total: u64 = block_timings
                .iter()
                .map(|t| t.per_predictor_ns.get(i).copied().unwrap_or(0))
                .sum();
            row(p.name(), total)
        })
        .collect();
    if let Some(r) = reference {
        let total: u64 = block_timings.iter().map(|t| t.reference_ns).sum();
        rows.push(row(r.name(), total));
    }
    let lookups = cache.kernel_hits + cache.kernel_misses;
    ObsSummary {
        schema_minor: SCHEMA_MINOR,
        predictors: rows,
        cache_hit_rate: if lookups == 0 {
            0.0
        } else {
            cache.kernel_hits as f64 / lookups as f64
        },
        disk_hit_rate: disk.map(|d| d.hit_rate()),
        disk_hits: disk.map(|d| d.hits),
        disk_misses: disk.map(|d| d.misses),
        disk_evictions: disk.map(|d| d.evictions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_run_produces_records_and_summaries() {
        let report = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .limit(6)
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(report.records.len(), 6);
        assert_eq!(report.predictors, vec!["incore", "mca"]);
        assert_eq!(report.reference.as_deref(), Some("sim"));
        for r in &report.records {
            assert_eq!(r.chip, "SPR");
            assert!(r.measured.unwrap() > 0.0);
            assert_eq!(r.predictions.len(), 2);
            assert!(r.predictions[0].rpe.is_some());
        }
        assert_eq!(report.summary("incore").unwrap().count, 6);
        // Every record decoded exactly once; all lookups hit or miss.
        let c = report.cache;
        assert_eq!(c.kernel_hits + c.kernel_misses, 6);
        assert!(c.kernel_misses >= 1);
    }

    #[test]
    fn run_populates_timings() {
        let report = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .limit(4)
            .threads(2)
            .run()
            .unwrap();
        let t = report.timings;
        assert!(t.wall_ms > 0.0);
        assert!(t.reference_ms > 0.0, "simulator time should dominate");
        assert!(t.predictors_ms > 0.0);
        // Timings are a plain field: zeroing them is all a consumer needs
        // to do to compare reports (the determinism test relies on this).
        let mut zeroed = report.clone();
        zeroed.timings = Default::default();
        assert!(zeroed
            .to_json()
            .contains("\"timings\":{\"wall_ms\":0.0,\"parse_ms\":0.0"));
    }

    #[test]
    fn profile_attaches_obs_block_and_default_omits_it() {
        let plain = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .limit(2)
            .threads(1)
            .run()
            .unwrap();
        assert!(plain.obs.is_none());
        assert!(!plain.to_json().contains("\"obs\""));
        let profiled = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .limit(2)
            .threads(1)
            .profile(true)
            .run()
            .unwrap();
        let obs = profiled.obs.as_ref().expect("profiled run carries obs");
        assert_eq!(obs.schema_minor, crate::report::SCHEMA_MINOR);
        // incore, mca, then the sim reference appended last.
        let names: Vec<&str> = obs
            .predictors
            .iter()
            .map(|p| p.predictor.as_str())
            .collect();
        assert_eq!(names, vec!["incore", "mca", "sim"]);
        assert!(obs.predictors.iter().all(|p| p.calls == 2));
        assert!(obs.predictors.iter().all(|p| p.total_ns > 0));
        assert!((0.0..=1.0).contains(&obs.cache_hit_rate));
        // Stripping the block restores the non-profiled shape.
        let mut stripped = profiled.clone();
        stripped.obs = None;
        stripped.timings = Default::default();
        let mut plain_zeroed = plain.clone();
        plain_zeroed.timings = Default::default();
        assert_eq!(stripped.to_json(), plain_zeroed.to_json());
    }

    #[test]
    fn no_reference_means_no_rpes() {
        let report = Session::new()
            .archs(&[uarch::Arch::Zen4])
            .reference(None)
            .limit(3)
            .run()
            .unwrap();
        assert!(report.reference.is_none());
        for r in &report.records {
            assert!(r.measured.is_none());
            assert!(r.predictions.iter().all(|p| p.rpe.is_none()));
        }
        assert_eq!(report.summary("incore").unwrap().count, 0);
    }

    #[test]
    fn machine_file_joins_the_grid() {
        let json = uarch::Machine::zen4().to_json();
        let report = Session::new()
            .archs(&[])
            .machine_file("edited.json", json)
            .limit(4)
            .run()
            .unwrap();
        assert_eq!(report.archs, vec!["Zen 4"]);
        assert_eq!(report.records.len(), 4);
        let bad = Session::new().archs(&[]).machine_file("bad.json", "{ nope");
        let err = bad.run().unwrap_err();
        assert_eq!(err.kind(), crate::error::ErrorKind::MachineSpec);
        assert!(err.to_string().contains("bad.json"), "{err}");
    }

    #[test]
    fn explicit_machines_replace_the_default_grid() {
        // A registry model (derived Zen 2) drives the grid and the report
        // labels come from the model's own identity, not its family tag.
        let rome = uarch::registry::machine("zen2-rome").unwrap();
        let report = Session::new()
            .machines(vec![rome])
            .reference(None)
            .limit(3)
            .run()
            .unwrap();
        assert_eq!(report.archs, vec!["Zen 2"]);
        assert_eq!(report.records.len(), 3);
        assert!(report.records.iter().all(|r| r.chip == "Rome"));
    }

    #[test]
    fn volume_cache_dir_replays_byte_identical() {
        let dir =
            std::env::temp_dir().join(format!("incore-session-diskcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = kernels::variants_for(uarch::Arch::GoldenCove).len();
        let session = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .volume(grid + 4)
            .threads(2)
            .reference(None)
            .cache_dir(&dir);
        let cold = session.run().unwrap();
        assert_eq!(cold.records.len(), grid + 4);
        assert!(
            cold.records[grid..]
                .iter()
                .all(|r| r.kernel.contains("#r1")),
            "past one grid pass the volume corpus wraps with replica labels"
        );
        let warm = session.run().unwrap();
        let (mut c, mut w) = (cold.clone(), warm.clone());
        c.timings = Default::default();
        w.timings = Default::default();
        assert_eq!(
            c.to_json(),
            w.to_json(),
            "a disk-replayed run must serialize byte-identically"
        );
        assert!(warm.timings.cache_ms > 0.0);
        assert_eq!(
            warm.timings.predictors_ms, 0.0,
            "replayed blocks book no compute time"
        );
        // A profiled third pass reports the replay in its obs block: every
        // block came from disk.
        let profiled = session.profile(true).run().unwrap();
        let obs = profiled.obs.expect("profiled run carries obs");
        assert_eq!(obs.disk_hits, Some((grid + 4) as u64));
        assert_eq!(obs.disk_misses, Some(0));
        assert_eq!(
            serde_json::to_string(&profiled.records).unwrap(),
            serde_json::to_string(&warm.records).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn custom_predictor_set_flows_through() {
        let report = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .predictors(vec![
                Box::new(incore::InCoreModel::new()),
                Box::new(incore::InCoreModel::balanced()),
                Box::new(mca::McaBaseline),
            ])
            .limit(4)
            .run()
            .unwrap();
        assert_eq!(report.predictors, vec!["incore", "incore-balanced", "mca"]);
        for r in &report.records {
            assert_eq!(r.predictions.len(), 3);
        }
    }
}

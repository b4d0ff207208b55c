//! The store-only benchmark of Fig. 4: ratio of actual memory traffic to
//! stored data volume vs. number of active cores.
//!
//! Per sweep point the benchmark
//!
//! 1. simulates one core's store stream through the cache hierarchy
//!    ([`crate::Hierarchy`]) with the machine's write-allocate mode, giving
//!    the *base* reads/writes per stored line (cores run disjoint streams,
//!    so one simulated core is exact for all of them);
//! 2. computes the memory-interface utilization of each ccNUMA domain from
//!    the number of active cores and the per-core achievable traffic;
//! 3. applies bandwidth-gated SpecI2M promotion (Golden Cove) as a
//!    fixed-point iteration — promoted RFOs reduce traffic, which reduces
//!    utilization, which reduces promotion ([`WaConfig::speci2m_fixed_point`]);
//! 4. aggregates over domains (cores are pinned compactly, filling one
//!    domain before the next, as the paper's benchmarks do).
//!
//! Two fast paths keep full sweeps cheap without changing a single bit of
//! output. The standard store stream starts from a cold hierarchy and
//! runs through [`crate::stream`], which folds it onto one of `g`
//! congruent sub-hierarchies (`g` = the smallest set count of any level)
//! and finds that sub-hierarchy's steady state, so it simulates a few
//! thousand of its accesses instead of hundreds of thousands; since its
//! base traffic does not depend on the active-core count, it is also
//! hoisted out of the per-core-count loop in [`sweep_points`]. A
//! non-temporal stream bypasses the caches, so its ledger is computed in
//! closed form straight into a [`Traffic`] with no hierarchy at all.
//! [`StreamConfig::reference`] forces both back to their per-access
//! oracle loops. [`fig4_full`] fans the remaining (machine × kind)
//! tasks out on the rayon pool, order-preservingly, so results are
//! byte-identical at every thread count.

use crate::hierarchy::{machine_line_bytes, Hierarchy, Traffic};
use crate::policy::{StoreKind, WaConfig, WaMode};
use crate::stream::{MemScratch, StreamConfig, StreamOutcome, StreamPattern};
use rayon::prelude::*;
use serde::Serialize;
use uarch::{Arch, Machine};

/// One point of the Fig. 4 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StorePoint {
    pub cores: u32,
    /// Memory traffic / stored volume (1.0 = perfect WA evasion, 2.0 =
    /// full write-allocate).
    pub ratio: f64,
    /// Aggregate store bandwidth utilization across used domains (0..1).
    pub utilization: f64,
}

/// Base per-line traffic of a single-core store stream (in lines).
#[derive(Debug, Clone, Copy)]
struct BasePerLine {
    reads: f64,
    writes: f64,
}

struct PoolEntry {
    arch: Arch,
    sharers: u32,
    hier: Hierarchy,
}

/// Reusable state for repeated sweep points: one hierarchy per
/// (machine, sharers) — reset, not reallocated, between streams — plus
/// the stream driver's snapshot buffers.
#[derive(Default)]
pub struct SweepScratch {
    pool: Vec<PoolEntry>,
    stream: MemScratch,
    /// Stream-driver outcome of the most recent base simulation (useful
    /// for asserting that extrapolation actually engaged).
    pub last_outcome: StreamOutcome,
}

fn pooled<'a>(pool: &'a mut Vec<PoolEntry>, machine: &Machine, sharers: u32) -> &'a mut Hierarchy {
    if let Some(pos) = pool
        .iter()
        .position(|e| e.arch == machine.arch && e.sharers == sharers)
    {
        let e = &mut pool[pos];
        e.hier.reset();
        return &mut e.hier;
    }
    pool.push(PoolEntry {
        arch: machine.arch,
        sharers,
        hier: Hierarchy::from_machine(machine, sharers),
    });
    &mut pool.last_mut().expect("just pushed").hier
}

/// Simulate one core's store-only stream (working set ≫ caches) and return
/// reads/writes per stored line.
fn single_core_base(
    machine: &Machine,
    cfg: &WaConfig,
    kind: StoreKind,
    cores: u32,
    scfg: StreamConfig,
    scratch: &mut SweepScratch,
) -> BasePerLine {
    let _span = obs::enabled().then(|| {
        obs::counter("storebench.base_sims", 1);
        obs::span(&format!(
            "storebench.base {} {}",
            machine.arch.label(),
            kind.label()
        ))
    });
    let line = machine_line_bytes(machine);
    // Stream 4× the per-core L3 slice (or at least 8 MiB) to be safely
    // memory-resident, mirroring the paper's 40 GB working set.
    let slice_bytes: u64 = machine
        .caches
        .iter()
        .map(|c| {
            if c.shared {
                c.size_kib * 1024 / machine.cores as u64
            } else {
                c.size_kib * 1024
            }
        })
        .sum();
    let total = (4 * slice_bytes).max(8 << 20);
    let lines = total / line;
    let mem = match kind {
        StoreKind::Standard => {
            let h = pooled(&mut scratch.pool, machine, machine.cores);
            h.set_line_claim(cfg.mode == WaMode::AutoClaim);
            scratch.last_outcome = h.access_stream_with_scratch(
                StreamPattern::store_lines(line, lines),
                scfg,
                &mut scratch.stream,
            );
            h.flush();
            h.mem
        }
        // NT stores bypass the caches: the ledger needs no hierarchy.
        StoreKind::NonTemporal => {
            scratch.last_outcome = StreamOutcome::default();
            let mut mem = Traffic::default();
            mem.add_nt_store_stream(lines, line, cfg.nt_residual_at(cores), scfg);
            mem
        }
    };
    BasePerLine {
        reads: mem.read_bytes as f64 / (lines * line) as f64,
        writes: mem.write_bytes as f64 / (lines * line) as f64,
    }
}

/// Distribute `cores` compactly over ccNUMA domains and aggregate the
/// per-domain fixed points into one sweep point.
fn aggregate(cfg: &WaConfig, base: BasePerLine, cores: u32, kind: StoreKind) -> StorePoint {
    let mut remaining = cores;
    let mut total_traffic = 0.0;
    let mut total_stored = 0.0;
    let mut util_acc = 0.0;
    let mut domains_used = 0u32;
    while remaining > 0 {
        let in_domain = remaining.min(cfg.cores_per_domain);
        remaining -= in_domain;
        domains_used += 1;

        // Promotion only applies to standard write-allocate streams.
        let promote = kind == StoreKind::Standard && base.reads > 0.0;
        let fp = cfg.speci2m_fixed_point(in_domain, promote);
        let reads = base.reads * (1.0 - fp.fraction);
        total_traffic += in_domain as f64 * (reads + base.writes);
        total_stored += in_domain as f64;
        util_acc += fp.utilization;
    }

    StorePoint {
        cores,
        ratio: total_traffic / total_stored,
        utilization: util_acc / domains_used as f64,
    }
}

/// Traffic ratio for `cores` active cores using standard or NT stores.
pub fn store_traffic_ratio(machine: &Machine, cores: u32, kind: StoreKind) -> StorePoint {
    let mut scratch = SweepScratch::default();
    store_traffic_ratio_with(machine, cores, kind, StreamConfig::default(), &mut scratch)
}

/// [`store_traffic_ratio`] with an explicit stream config and reusable
/// scratch. With `scfg.reference` this is exactly the original
/// access-at-a-time pipeline (one base simulation per call).
pub fn store_traffic_ratio_with(
    machine: &Machine,
    cores: u32,
    kind: StoreKind,
    scfg: StreamConfig,
    scratch: &mut SweepScratch,
) -> StorePoint {
    let cfg = WaConfig::for_machine(machine);
    let cores = cores.clamp(1, machine.cores);
    let base = single_core_base(machine, &cfg, kind, cores, scfg, scratch);
    aggregate(&cfg, base, cores, kind)
}

/// Sweep one (machine, kind) over `counts`. For standard stores the base
/// simulation does not depend on the active-core count (only NT streams
/// consult it, via the residual ramp), so it is computed once and shared —
/// bit-identical to calling [`store_traffic_ratio`] per count.
pub fn sweep_points(
    machine: &Machine,
    counts: &[u32],
    kind: StoreKind,
    scfg: StreamConfig,
    scratch: &mut SweepScratch,
) -> Vec<StorePoint> {
    let cfg = WaConfig::for_machine(machine);
    // One span per (machine, kind) sweep; the per-stream counters under
    // it come from `crate::stream`. Inert unless the recorder is on.
    let _span = obs::enabled().then(|| {
        obs::counter("storebench.sweeps", 1);
        obs::counter("storebench.points", counts.len() as u64);
        obs::span(&format!(
            "storebench.sweep {} {}",
            machine.name,
            kind.label()
        ))
    });
    match kind {
        StoreKind::Standard => {
            let base = single_core_base(machine, &cfg, kind, 1, scfg, scratch);
            counts
                .iter()
                .map(|&n| aggregate(&cfg, base, n.clamp(1, machine.cores), kind))
                .collect()
        }
        StoreKind::NonTemporal => counts
            .iter()
            .map(|&n| {
                let n = n.clamp(1, machine.cores);
                let base = single_core_base(machine, &cfg, kind, n, scfg, scratch);
                aggregate(&cfg, base, n, kind)
            })
            .collect(),
    }
}

/// Whether the paper shows an NT-store variant for this architecture.
pub fn nt_applicable(arch: Arch) -> bool {
    matches!(arch, Arch::GoldenCove | Arch::Zen4)
}

/// The core counts Fig. 4 samples for one machine.
pub fn fig4_core_counts(machine: &Machine) -> Vec<u32> {
    (1..=machine.cores)
        .filter(|n| *n == 1 || n % 4 == 0 || *n == machine.cores || *n == 13)
        .collect()
}

/// Full Fig. 4 sweep for one machine: standard and (for x86) NT variants at
/// each core count.
pub fn fig4_sweep(machine: &Machine, counts: &[u32]) -> Vec<(u32, f64, Option<f64>)> {
    let mut scratch = SweepScratch::default();
    let scfg = StreamConfig::default();
    let std = sweep_points(machine, counts, StoreKind::Standard, scfg, &mut scratch);
    let nt = nt_applicable(machine.arch)
        .then(|| sweep_points(machine, counts, StoreKind::NonTemporal, scfg, &mut scratch));
    counts
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, std[i].ratio, nt.as_ref().map(|v| v[i].ratio)))
        .collect()
}

/// One machine of the full Fig. 4 sweep.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct Fig4Machine {
    pub chip: &'static str,
    pub arch: &'static str,
    pub standard: Vec<StorePoint>,
    pub nt: Option<Vec<StorePoint>>,
}

/// The whole Fig. 4 sweep (every machine, standard + NT) at the default
/// core counts, run in parallel on the rayon pool.
pub fn fig4_full(machines: &[Machine], scfg: StreamConfig) -> Vec<Fig4Machine> {
    let counts: Vec<Vec<u32>> = machines.iter().map(fig4_core_counts).collect();
    fig4_full_with(machines, &counts, scfg)
}

/// [`fig4_full`] with explicit per-machine core counts. One parallel task
/// per (machine, store kind); the vendored pool's map is order-preserving
/// and each task's result lands in a fixed slot, so the assembled value —
/// and any JSON rendered from it — is byte-identical at every thread
/// count, including `--threads 1`.
pub fn fig4_full_with(
    machines: &[Machine],
    counts: &[Vec<u32>],
    scfg: StreamConfig,
) -> Vec<Fig4Machine> {
    assert_eq!(machines.len(), counts.len());
    let mut tasks: Vec<(usize, StoreKind)> = Vec::new();
    for (mi, m) in machines.iter().enumerate() {
        tasks.push((mi, StoreKind::Standard));
        if nt_applicable(m.arch) {
            tasks.push((mi, StoreKind::NonTemporal));
        }
    }
    let results: Vec<Vec<StorePoint>> = tasks
        .par_iter()
        .map(|&(mi, kind)| {
            let mut scratch = SweepScratch::default();
            sweep_points(&machines[mi], &counts[mi], kind, scfg, &mut scratch)
        })
        .collect();
    let mut out: Vec<Fig4Machine> = machines
        .iter()
        .map(|m| Fig4Machine {
            chip: m.chip,
            arch: m.name,
            standard: Vec::new(),
            nt: None,
        })
        .collect();
    for (&(mi, kind), points) in tasks.iter().zip(results) {
        match kind {
            StoreKind::Standard => out[mi].standard = points,
            StoreKind::NonTemporal => out[mi].nt = Some(points),
        }
    }
    out
}

/// One machine of a [`StoreSweepReport`].
#[derive(Debug, Clone, Serialize)]
pub struct StoreSweepMachine {
    pub chip: &'static str,
    pub arch: &'static str,
    pub points: Vec<StorePoint>,
}

/// Versioned JSON report for `incore-cli storebench --json`: one store
/// kind swept over core counts for one or more machines. Field order is
/// declaration order (stable across runs and thread counts).
#[derive(Debug, Clone, Serialize)]
pub struct StoreSweepReport {
    pub schema_version: u32,
    pub kind: &'static str,
    pub machines: Vec<StoreSweepMachine>,
}

impl StoreSweepReport {
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }
}

/// Build a [`StoreSweepReport`], fanning machines out on the rayon pool.
pub fn sweep_report(
    machines: &[Machine],
    counts: &[Vec<u32>],
    kind: StoreKind,
    scfg: StreamConfig,
) -> StoreSweepReport {
    assert_eq!(machines.len(), counts.len());
    let idx: Vec<usize> = (0..machines.len()).collect();
    let rows: Vec<StoreSweepMachine> = idx
        .par_iter()
        .map(|&i| {
            let mut scratch = SweepScratch::default();
            StoreSweepMachine {
                chip: machines[i].chip,
                arch: machines[i].name,
                points: sweep_points(&machines[i], &counts[i], kind, scfg, &mut scratch),
            }
        })
        .collect();
    StoreSweepReport {
        schema_version: 1,
        kind: kind.label(),
        machines: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch::Machine;

    #[test]
    fn gcs_evades_wa_automatically() {
        let m = Machine::neoverse_v2();
        for n in [1, 8, 36, 72] {
            let p = store_traffic_ratio(&m, n, StoreKind::Standard);
            assert!((p.ratio - 1.0).abs() < 0.05, "n={n} ratio={}", p.ratio);
        }
    }

    #[test]
    fn genoa_standard_stores_pay_full_wa() {
        let m = Machine::zen4();
        for n in [1, 24, 96] {
            let p = store_traffic_ratio(&m, n, StoreKind::Standard);
            assert!((p.ratio - 2.0).abs() < 0.05, "n={n} ratio={}", p.ratio);
        }
    }

    #[test]
    fn genoa_nt_stores_are_perfect() {
        let m = Machine::zen4();
        for n in [1, 48, 96] {
            let p = store_traffic_ratio(&m, n, StoreKind::NonTemporal);
            assert!((p.ratio - 1.0).abs() < 0.01, "n={n} ratio={}", p.ratio);
        }
    }

    #[test]
    fn spr_speci2m_kicks_in_at_high_core_counts() {
        let m = Machine::golden_cove();
        let low = store_traffic_ratio(&m, 1, StoreKind::Standard);
        let high = store_traffic_ratio(&m, 13, StoreKind::Standard);
        // Starts at full WA...
        assert!((low.ratio - 2.0).abs() < 0.05, "low={}", low.ratio);
        // ...and is reduced by at most 25 % when the domain saturates.
        assert!(high.ratio < 1.85, "high={}", high.ratio);
        assert!(high.ratio >= 1.70, "high={}", high.ratio);
    }

    #[test]
    fn spr_nt_stores_leave_residual() {
        let m = Machine::golden_cove();
        let one = store_traffic_ratio(&m, 1, StoreKind::NonTemporal);
        assert!(one.ratio < 1.03, "one={}", one.ratio);
        let many = store_traffic_ratio(&m, 13, StoreKind::NonTemporal);
        assert!((many.ratio - 1.1).abs() < 0.03, "many={}", many.ratio);
    }

    #[test]
    fn sweep_produces_monotone_core_counts() {
        let m = Machine::golden_cove();
        let pts = fig4_sweep(&m, &[1, 2, 4, 8, 13, 26, 52]);
        assert_eq!(pts.len(), 7);
        assert!(pts.iter().all(|(_, s, nt)| *s >= 0.9 && nt.unwrap() >= 0.9));
    }

    #[test]
    fn full_domain_aggregation_spr() {
        // 52 cores = 4 full domains; each saturated → same ratio as 13.
        let m = Machine::golden_cove();
        let d1 = store_traffic_ratio(&m, 13, StoreKind::Standard);
        let d4 = store_traffic_ratio(&m, 52, StoreKind::Standard);
        assert!((d1.ratio - d4.ratio).abs() < 0.02);
    }

    fn point_bits(p: &StorePoint) -> (u32, u64, u64) {
        (p.cores, p.ratio.to_bits(), p.utilization.to_bits())
    }

    #[test]
    fn hoisted_sweep_matches_reference_pipeline_bitwise() {
        // The fast pipeline (steady-state extrapolation + hoisted base +
        // pooled hierarchy) against the original per-count per-access
        // pipeline, compared bit for bit.
        let m = Machine::golden_cove();
        let counts = [1u32, 13, 52];
        for kind in [StoreKind::Standard, StoreKind::NonTemporal] {
            let mut scratch = SweepScratch::default();
            let fast = sweep_points(&m, &counts, kind, StreamConfig::default(), &mut scratch);
            if kind == StoreKind::Standard {
                assert!(
                    scratch.last_outcome.extrapolated > 0,
                    "steady state never detected on the SPR store stream"
                );
            }
            let reference: Vec<StorePoint> = counts
                .iter()
                .map(|&n| {
                    let mut s = SweepScratch::default();
                    store_traffic_ratio_with(&m, n, kind, StreamConfig::reference(), &mut s)
                })
                .collect();
            for (f, r) in fast.iter().zip(&reference) {
                assert_eq!(point_bits(f), point_bits(r), "kind {:?}", kind);
            }
        }
    }

    #[test]
    fn fig4_full_is_identical_at_every_thread_count() {
        let m = Machine::neoverse_v2();
        let counts = vec![vec![1u32, 8, 72]];
        let machines = vec![m];
        let default_pool = fig4_full_with(&machines, &counts, StreamConfig::default());
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool builds")
            .install(|| fig4_full_with(&machines, &counts, StreamConfig::default()));
        assert_eq!(default_pool, one);
    }

    #[test]
    fn speci2m_fixed_point_converges_for_all_spr_core_counts() {
        let m = Machine::golden_cove();
        let cfg = WaConfig::for_arch(m.arch);
        for n in 1..=m.cores {
            let mut remaining = n;
            while remaining > 0 {
                let in_domain = remaining.min(cfg.cores_per_domain);
                remaining -= in_domain;
                let fp = cfg.speci2m_fixed_point(in_domain, true);
                assert!(fp.converged, "n={n} in_domain={in_domain} did not converge");
                assert!(fp.iterations <= 32);
                assert!((0.0..=0.25 + 1e-12).contains(&fp.fraction));
                assert!((0.0..=1.0).contains(&fp.utilization));
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Shrinking the utilization headroom (raising the offered
        /// per-core traffic, hence the domain utilization) can only hold
        /// or lower the traffic ratio: SpecI2M promotion is monotone in
        /// utilization and promotion only removes reads.
        #[test]
        fn ratio_monotone_nonincreasing_as_headroom_shrinks(
            t1_centis in 0u32..3000,
            t2_centis in 0u32..3000,
            in_domain in 1u32..14,
        ) {
            let (t1, t2) = (t1_centis as f64 / 100.0, t2_centis as f64 / 100.0);
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let base = BasePerLine { reads: 1.0, writes: 1.0 };
            let mk = |traffic: f64| WaConfig {
                per_core_traffic_gbs: traffic,
                ..WaConfig::for_arch(uarch::Arch::GoldenCove)
            };
            let p_lo = aggregate(&mk(lo), base, in_domain, StoreKind::Standard);
            let p_hi = aggregate(&mk(hi), base, in_domain, StoreKind::Standard);
            prop_assert!(p_lo.utilization <= p_hi.utilization + 1e-12);
            prop_assert!(p_hi.ratio <= p_lo.ratio + 1e-12);
        }
    }
}

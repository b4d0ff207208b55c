//! `fig4-sweep`: repeated single-threaded
//! `memhier::storebench::sweep_points` calls (the write-allocate store
//! sweep of Fig. 4), each with a fresh `SweepScratch`. One op is one call.
//!
//! Chosen because only `memhier` works here. The seed draws the core-count
//! subset of every op and the order of the ops. Each (machine, store kind)
//! pair of the six registry models appears equally often, with NT stores
//! only where `nt_applicable`, so every seed runs the same mix of costs.

use std::time::{Duration, Instant};

use memhier::storebench::{self, StorePoint, SweepScratch};
use memhier::{StoreKind, StreamConfig};
use uarch::Machine;

use crate::measure::{self, cpu_time, median, ms, Outcome, Rng, Window};
use crate::trace;

/// Distinct core-count subsets drawn per (machine, kind) pair.
const SUBSETS_PER_PAIR: usize = 2;
/// Core counts per op, drawn from the machine's Fig. 4 core counts.
const COUNTS_PER_OP: usize = 4;

struct Op {
    machine: usize,
    kind: StoreKind,
    counts: Vec<u32>,
}

/// The set-up being timed: constructing the six registry machines.
fn build_machines() -> (Vec<Machine>, f64) {
    let t0 = Instant::now();
    let machines = uarch::registry::ids()
        .into_iter()
        .map(|id| uarch::registry::machine(id).expect("registered id builds"))
        .collect();
    (machines, t0.elapsed().as_secs_f64())
}

fn ops(seed: u64, machines: &[Machine]) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    for (mi, m) in machines.iter().enumerate() {
        let mut kinds = vec![StoreKind::Standard];
        if storebench::nt_applicable(m.arch) {
            kinds.push(StoreKind::NonTemporal);
        }
        for kind in kinds {
            for _ in 0..SUBSETS_PER_PAIR {
                let mut pool = storebench::fig4_core_counts(m);
                rng.shuffle(&mut pool);
                let mut counts: Vec<u32> = pool.into_iter().take(COUNTS_PER_OP).collect();
                counts.sort_unstable();
                ops.push(Op {
                    machine: mi,
                    kind,
                    counts,
                });
            }
        }
    }
    rng.shuffle(&mut ops);
    ops
}

fn sweep(m: &Machine, op: &Op, scfg: StreamConfig) -> (Vec<StorePoint>, SweepScratch) {
    let mut scratch = SweepScratch::default();
    let points = storebench::sweep_points(m, &op.counts, op.kind, scfg, &mut scratch);
    (points, scratch)
}

fn bits(points: &[StorePoint]) -> Vec<(u32, u64, u64)> {
    points
        .iter()
        .map(|p| (p.cores, p.ratio.to_bits(), p.utilization.to_bits()))
        .collect()
}

/// Accesses in one standard base stream: four times the per-core cache
/// capacity (at least 8 MiB) in lines, as `storebench` sizes it.
fn stream_lines(m: &Machine) -> u64 {
    let slice: u64 = m
        .caches
        .iter()
        .map(|c| {
            if c.shared {
                c.size_kib * 1024 / m.cores as u64
            } else {
                c.size_kib * 1024
            }
        })
        .sum();
    let line = m.caches.first().map_or(64, |c| c.line_bytes as u64);
    (4 * slice).max(8 << 20) / line
}

struct Phase {
    latency_ms: Vec<f64>,
    /// One window per pass over the op list.
    passes: Vec<Window>,
}

struct State {
    /// Per op: the points of its first run; later runs must equal them.
    first: Vec<Option<Vec<(u32, u64, u64)>>>,
    runs: Vec<u64>,
    deviations: Vec<u64>,
    /// Set-up samples, seconds.
    setups: Vec<f64>,
}

fn phase(st: &mut State, ops: &[Op], budget: Duration, traced: bool) -> Phase {
    let mut p = Phase {
        latency_ms: Vec::new(),
        passes: Vec::new(),
    };
    let mut spent = Duration::ZERO;
    let mut host_before = measure::host_factor();
    // Whole passes over the op list only, so every window runs the same mix.
    while spent < budget {
        // Each pass builds its machines: one set-up sample per pass, spread
        // over the run like the ops.
        let (machines, took) = build_machines();
        st.setups.push(took / host_before);
        let (mut wall, mut cpu) = (Duration::ZERO, Duration::ZERO);
        let mut latency_ms = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let m = &machines[op.machine];
            let cpu0 = cpu_time();
            let t0 = Instant::now();
            let (points, _) = if traced {
                let name = match op.kind {
                    StoreKind::Standard => "memhier.std_sweep",
                    StoreKind::NonTemporal => "memhier.nt_sweep",
                };
                trace::span(name, || sweep(m, op, StreamConfig::default()))
            } else {
                sweep(m, op, StreamConfig::default())
            };
            let took = t0.elapsed();
            cpu += cpu_time() - cpu0;
            wall += took;
            latency_ms.push(ms(took));
            let got = bits(&points);
            st.runs[i] += 1;
            match &st.first[i] {
                None => st.first[i] = Some(got),
                Some(first) if *first != got => st.deviations[i] += 1,
                Some(_) => {}
            }
        }
        let host_after = measure::host_factor();
        let host = (host_before + host_after) / 2.0;
        p.latency_ms.extend(latency_ms.iter().map(|l| l / host));
        p.passes.push(Window {
            ops: ops.len() as u64,
            wall,
            cpu,
            host,
        });
        spent += wall;
        host_before = host_after;
    }
    p
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (machines, _) = build_machines();
    let ops = ops(seed, &machines);
    let mut out = Outcome::default();
    let mut digest = measure::FNV_OFFSET;
    for op in &ops {
        let desc = format!("{}:{:?}:{:?};", machines[op.machine].id, op.kind, op.counts);
        digest = measure::fnv1a(desc.as_bytes(), digest);
    }
    out.note("op_digest", format!("{digest:016x}"));
    out.note("distinct_ops", ops.len());

    let mut st = State {
        first: vec![None; ops.len()],
        runs: vec![0; ops.len()],
        deviations: vec![0; ops.len()],
        setups: Vec::new(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let base = phase(
        &mut st,
        &ops,
        if traced { budget / 2 } else { budget },
        false,
    );
    let traced_phase = traced.then(|| phase(&mut st, &ops, budget / 2, true));

    let rss = measure::peak_rss_mb();
    // Output check, after the timed phases: every op's points must equal
    // the per-access oracle's.
    let mut failed = 0;
    for (i, op) in ops.iter().enumerate() {
        let Some(first) = &st.first[i] else { continue };
        let (expected, _) = sweep(&machines[op.machine], op, StreamConfig::reference());
        failed += if bits(&expected) == *first {
            st.deviations[i]
        } else {
            st.runs[i]
        };
    }
    out.attempted = st.runs.iter().sum();
    out.failed = failed;
    out.note("setup_samples", st.setups.len());

    out.e2e.insert("setup_s", median(&st.setups));
    out.throughput(&base.passes);
    out.latency(std::slice::from_ref(&base.latency_ms));
    out.finish(rss);

    // Exact counts over one pass of the op list: the standard sweeps'
    // `StreamOutcome`s.
    let (mut extrapolated, mut streamed, mut fast, mut standard) = (0u64, 0u64, 0u64, 0u64);
    for op in ops.iter().filter(|op| op.kind == StoreKind::Standard) {
        let m = &machines[op.machine];
        let (_, scratch) = sweep(m, op, StreamConfig::default());
        extrapolated += scratch.last_outcome.extrapolated;
        streamed += stream_lines(m);
        fast += scratch.last_outcome.fast_path as u64;
        standard += 1;
    }
    let extrapolated_share = extrapolated as f64 / streamed as f64;
    out.note("memhier.extrapolated_share", extrapolated_share);
    if let Some(t) = traced_phase {
        let tot = trace::totals();
        let get = |n: &str| tot.get(n).copied().unwrap_or_default();
        let l = &mut out.layers;
        l.insert("memhier.std_sweep_us", get("memhier.std_sweep").mean_us());
        l.insert("memhier.nt_sweep_us", get("memhier.nt_sweep").mean_us());
        l.insert("memhier.extrapolated_share", extrapolated_share);
        l.insert("memhier.fast_path_share", fast as f64 / standard as f64);
        let per_pass = |p: &Phase| median(&p.passes.iter().map(Window::op_ms).collect::<Vec<_>>());
        l.insert(
            "bench.trace_overhead_pct",
            (per_pass(&t) / per_pass(&base) - 1.0) * 100.0,
        );
    }
    out
}

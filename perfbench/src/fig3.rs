//! `fig3-validate`: repeated `engine::Session::run` over the paper's fixed
//! 416-block validation grid (Fig. 3) on the trio, one worker thread, the
//! in-core and MCA predictors against the `exec` simulator, no disk cache.
//! Every pass builds a fresh `Session`, so its caches start cold as each
//! `incore-cli validate` run's do. One op is one block.
//!
//! Chosen because it is Fig. 3's own input set: `isa`, `kernels`,
//! `incore`, `mca`, `exec` and `engine` do all the work here, and the
//! service and `memhier` layers do none. The grid is fixed, so the seed
//! only orders the machines; every seed runs the same work.

use std::time::{Duration, Instant};

use engine::{BatchReport, BlockLabels, Session};
use uarch::{Machine, Predictor};

use crate::measure::{self, cpu_time, median, Outcome, Rng, Window};
use crate::trace::{self, Traced};

const TRIO: [&str; 3] = ["neoverse-v2", "golden-cove", "zen4"];

fn trio(order: &[&str]) -> Vec<Machine> {
    order
        .iter()
        .map(|id| uarch::registry::machine(id).expect("trio id is registered"))
        .collect()
}

fn predictors(traced: bool) -> (Vec<Box<dyn Predictor>>, Box<dyn Predictor>) {
    let incore: Box<dyn Predictor> = Box::new(incore::InCoreModel::new());
    let mca: Box<dyn Predictor> = Box::new(mca::McaBaseline);
    let sim: Box<dyn Predictor> = Box::new(exec::CoreSimulator::default());
    if !traced {
        return (vec![incore, mca], sim);
    }
    let wrap = |span, inner| -> Box<dyn Predictor> { Box::new(Traced { span, inner }) };
    (
        vec![wrap("incore.predict", incore), wrap("mca.predict", mca)],
        wrap("exec.simulate", sim),
    )
}

/// The set-up being timed: machine construction plus `Session`
/// construction.
fn build_session(order: &[&str], traced: bool) -> (Session, Duration) {
    let t0 = Instant::now();
    let (analytical, reference) = predictors(traced);
    let session = Session::new()
        .machines(trio(order))
        .threads(1)
        .predictors(analytical)
        .reference(Some(reference));
    (session, t0.elapsed())
}

fn record_json(report: &BatchReport) -> Vec<String> {
    report
        .records
        .iter()
        .map(|r| serde_json::to_string(r).expect("record serializes"))
        .collect()
}

/// Nanoseconds recorded so far under the three predictor spans.
fn predictor_ns() -> u64 {
    ["incore.predict", "mca.predict", "exec.simulate"]
        .iter()
        .map(|n| trace::total_ns(n))
        .sum()
}

/// Replay one pass's grid through the layers' public functions, each call
/// in its own span: block generation, parsing, and block evaluation (whose
/// predictor calls nest inside it). Returns the nanoseconds of those calls
/// outside the predictors.
fn replay(machines: &[Machine]) -> u64 {
    let (analytical, reference) = predictors(true);
    let analytical: Vec<&dyn Predictor> = analytical.iter().map(|p| p.as_ref()).collect();
    let predicted_before = predictor_ns();
    let mut covered = 0;
    for (m, block) in grid(machines) {
        let (asm, gen_ns) = trace::span_ns("kernels.generate", || block.generate(m));
        let (kernel, parse_ns) = trace::span_ns("isa.parse", || isa::parse_kernel(&asm, m.isa));
        let kernel = kernel.expect("corpus block parses");
        let label = block.kernel_label();
        let labels = BlockLabels {
            kernel: &label,
            compiler: block.variant.compiler.name(),
            opt: block.variant.opt.name(),
        };
        let (_, eval_ns) = trace::span_ns("engine.evaluate_block", || {
            engine::evaluate_block(m, &kernel, labels, &analytical, Some(reference.as_ref()))
        });
        covered += gen_ns + parse_ns + eval_ns;
    }
    covered - (predictor_ns() - predicted_before)
}

/// The validation grid in `Session` order: each machine's standard corpus
/// blocks.
fn grid(machines: &[Machine]) -> impl Iterator<Item = (&Machine, kernels::volume::VolumeBlock)> {
    machines.iter().flat_map(|m| {
        let n = kernels::variants_for(m.arch).len();
        kernels::volume::volume_blocks(m.arch, n)
            .into_iter()
            .map(move |b| (m, b))
    })
}

struct Phase {
    /// One window per pass: its `Session::run` time and blocks.
    passes: Vec<Window>,
    /// Per traced pass: share of `Session::run` not covered by the layer
    /// calls.
    unattributed: Vec<f64>,
}

impl Phase {
    fn per_block_ms(&self) -> Vec<f64> {
        self.passes.iter().map(Window::op_ms).collect()
    }
}

struct State<'a> {
    order: &'a [&'a str],
    setups: Vec<f64>,
    /// Record JSON of the first pass; every later pass must equal it.
    first: Option<Vec<String>>,
    /// Per grid index: passes whose record differed from the first pass.
    deviations: Vec<u64>,
    /// Median |RPE| in percent of the in-core and MCA predictors.
    rpe_pct: (f64, f64),
    passes: u64,
}

fn phase(st: &mut State<'_>, budget: Duration, traced: bool) -> Phase {
    let mut p = Phase {
        passes: Vec::new(),
        unattributed: Vec::new(),
    };
    let started = Instant::now();
    let mut host_before = measure::host_factor();
    while started.elapsed() < budget {
        let (session, setup) = build_session(st.order, traced);
        st.setups.push(setup.as_secs_f64() / host_before);
        let predicted_before = if traced { predictor_ns() } else { 0 };
        let cpu0 = cpu_time();
        let t0 = Instant::now();
        let report = if traced {
            trace::span("engine.session_run", || session.run())
        } else {
            session.run()
        }
        .expect("validation grid runs");
        let wall = t0.elapsed();
        let cpu = cpu_time() - cpu0;
        let host_after = measure::host_factor();
        p.passes.push(Window {
            ops: report.records.len() as u64,
            wall,
            cpu,
            host: (host_before + host_after) / 2.0,
        });
        host_before = host_after;
        if traced {
            // The run's predictor spans are measured inside it; the rest of
            // the layer work (generation, parsing, evaluation outside the
            // predictors) comes from replaying the same grid.
            let predicted = predictor_ns() - predicted_before;
            let covered = predicted + replay(&trio(st.order));
            let run_ns = wall.as_nanos() as f64;
            p.unattributed.push((run_ns - covered as f64) / run_ns);
            trace::span("engine.report_json", || report.to_json());
        }
        // Output check, outside the timed section.
        let records = record_json(&report);
        match &st.first {
            None => {
                st.rpe_pct = (
                    rpe_median_pct(&report, "incore"),
                    rpe_median_pct(&report, "mca"),
                );
                st.deviations = vec![0; records.len()];
                st.first = Some(records);
            }
            Some(first) => {
                for (i, r) in records.iter().enumerate() {
                    if first.get(i) != Some(r) {
                        st.deviations[i] += 1;
                    }
                }
            }
        }
        st.passes += 1;
    }
    p
}

/// Records of the oracle session: the reference MCA and the naive
/// tick-by-tick simulator engine in place of the fast paths.
fn oracle(order: &[&str]) -> Vec<String> {
    let sim = exec::CoreSimulator {
        config: exec::SimConfig {
            reference: true,
            ..exec::SimConfig::default()
        },
    };
    let report = Session::new()
        .machines(trio(order))
        .threads(0)
        .predictors(vec![
            Box::new(incore::InCoreModel::new()),
            Box::new(mca::McaReferenceBaseline),
        ])
        .reference(Some(Box::new(sim)))
        .run()
        .expect("oracle grid runs");
    record_json(&report)
}

fn rpe_median_pct(report: &BatchReport, predictor: &str) -> f64 {
    let abs_pct: Vec<f64> = report
        .rpes(predictor)
        .iter()
        .map(|r| r.abs() * 100.0)
        .collect();
    median(&abs_pct)
}

/// Exact simulator counts over the grid: total simulated cycles per block
/// and the share of blocks that left through the steady-state early exit.
fn sim_counts(machines: &[Machine]) -> (f64, f64) {
    let (mut cycles, mut early, mut blocks) = (0u64, 0u64, 0u64);
    for (m, block) in grid(machines) {
        let kernel = isa::parse_kernel(&block.generate(m), m.isa).expect("corpus block parses");
        let r = exec::simulate(m, &kernel, exec::SimConfig::default());
        cycles += r.total_cycles;
        early += r.early_exit_iter.is_some() as u64;
        blocks += 1;
    }
    (cycles as f64 / blocks as f64, early as f64 / blocks as f64)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut rng = Rng::new(seed);
    let mut order = TRIO.to_vec();
    rng.shuffle(&mut order);
    let mut st = State {
        order: &order,
        setups: Vec::new(),
        first: None,
        deviations: Vec::new(),
        rpe_pct: (0.0, 0.0),
        passes: 0,
    };
    let mut out = Outcome::default();
    out.note("machine_order", order.join(","));
    out.note(
        "op_digest",
        format!(
            "{:016x}",
            measure::fnv1a(order.join(",").as_bytes(), measure::FNV_OFFSET)
        ),
    );
    let budget = Duration::from_secs_f64(seconds);
    let (base, traced_phase) = if traced {
        let base = phase(&mut st, budget / 2, false);
        let t = phase(&mut st, budget / 2, true);
        (base, Some(t))
    } else {
        (phase(&mut st, budget, false), None)
    };

    let rss = measure::peak_rss_mb();
    let first = st.first.take().expect("at least one pass ran");
    let expected = oracle(&order);
    let mut failed = 0;
    for (i, dev) in st.deviations.iter().enumerate() {
        failed += if expected.get(i) == first.get(i) {
            *dev
        } else {
            st.passes
        };
    }
    out.attempted = st.passes * first.len() as u64;
    out.failed = failed + st.passes * expected.len().abs_diff(first.len()) as u64;
    out.note("passes", st.passes);
    out.note("blocks_per_pass", first.len());
    out.note("setup_samples", st.setups.len());

    out.e2e.insert("setup_s", median(&st.setups));
    out.throughput(&base.passes);
    out.latency(&[base.per_block_ms()]);
    out.finish(rss);

    let machines = trio(&order);
    let (cycles, early) = sim_counts(&machines);
    let (incore_rpe, mca_rpe) = st.rpe_pct;
    out.note("exec.sim_cycles_per_op", cycles);
    out.note("incore.rpe_median_pct", incore_rpe);
    out.note("mca.rpe_median_pct", mca_rpe);
    if let Some(t) = traced_phase {
        let tot = trace::totals();
        let get = |n: &str| tot.get(n).copied().unwrap_or_default();
        let l = &mut out.layers;
        l.insert("isa.parse_us", get("isa.parse").mean_us());
        l.insert("incore.predict_us", get("incore.predict").mean_us());
        l.insert("mca.predict_us", get("mca.predict").mean_us());
        l.insert("kernels.generate_us", get("kernels.generate").mean_us());
        let sim = get("exec.simulate");
        l.insert("exec.simulate_us", sim.mean_us());
        l.insert("exec.host_ns_per_sim_cycle", sim.mean_us() * 1e3 / cycles);
        l.insert(
            "engine.evaluate_overhead_us",
            get("engine.evaluate_block").mean_self_us(),
        );
        l.insert(
            "engine.report_json_ms",
            get("engine.report_json").mean_us() / 1e3,
        );
        l.insert("engine.unattributed_share", median(&t.unattributed));
        l.insert("exec.sim_cycles_per_op", cycles);
        l.insert("exec.early_exit_share", early);
        l.insert("incore.rpe_median_pct", incore_rpe);
        l.insert("mca.rpe_median_pct", mca_rpe);
        l.insert(
            "bench.trace_overhead_pct",
            (median(&t.per_block_ms()) / median(&base.per_block_ms()) - 1.0) * 100.0,
        );
    }
    out
}

//! Cycle-level out-of-order core simulator — the repository's stand-in for
//! the paper's physical testbed (see DESIGN.md, "Hardware-gate
//! substitutions").
//!
//! The simulator executes a loop kernel on a core configured from the same
//! [`uarch::Machine`] description the analytical models use, but unlike the
//! models it implements the *real* constraints of an out-of-order engine:
//!
//! * in-order dispatch limited by the rename/dispatch width,
//! * a finite reorder buffer and scheduler window,
//! * discrete (per-cycle, per-port) issue arbitration instead of idealized
//!   fractional port pressure,
//! * oldest-first selection among ready µ-ops,
//! * dependency wake-up at producer-defined latencies (including the
//!   1-cycle address-writeback fast path and zero-latency forwarding of
//!   rename-eliminated idioms),
//! * in-order retirement limited by the retire width.
//!
//! Because these constraints are a superset of what the analytical in-core
//! model considers, simulated "measurements" are systematically ≥ the
//! model's optimistic lower bound — mirroring the relationship between
//! hardware measurements and OSACA predictions in the paper (Fig. 3).
//!
//! Loads always hit L1 (the validation corpus is in-core by construction);
//! memory-hierarchy effects are the `memhier` crate's business.
//!
//! # Execution engines
//!
//! Two interchangeable engines implement the identical cycle semantics:
//!
//! * [`event`] (default) — jumps the clock straight to the next cycle on
//!   which anything can happen (a completion, a wake-up, a port becoming
//!   free, a dispatch unblocking), fingerprints the machine state every
//!   time an iteration retires, and once the relative state provably
//!   repeats it exits early, extrapolating the remaining iterations
//!   **exactly** (the schedule is periodic, so this is arithmetic, not
//!   approximation). All per-run buffers live in a reusable [`SimScratch`]
//!   arena so back-to-back calls allocate ~nothing.
//! * [`reference`](mod@reference) — the original tick-by-tick loop,
//!   retained verbatim as the equivalence oracle. Select it with
//!   [`SimConfig::reference`]` = true`.
//!
//! Both paths produce bit-identical [`SimResult`]s on every corpus kernel;
//! `tests/sim_equivalence.rs` at the workspace root enforces this.
//!
//! # Example
//!
//! ```
//! use isa::{parse_kernel, Isa};
//! use exec::{simulate, SimConfig};
//! use uarch::Machine;
//!
//! let k = parse_kernel(".L1:\n addq $1, %rax\n cmpq %rcx, %rax\n jne .L1\n", Isa::X86).unwrap();
//! let r = simulate(&Machine::golden_cove(), &k, SimConfig::default());
//! assert!(r.cycles_per_iter >= 1.0);
//! ```

pub mod event;
pub mod reference;
pub mod sanitizer;
pub mod trace;

pub use event::SimScratch;

use incore::depgraph::DepGraph;
use isa::Kernel;
use uarch::{InstrClass, InstrDesc, Machine};

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Measured iterations (after warm-up).
    pub iterations: usize,
    /// Iterations run before measurement starts, to reach steady state.
    pub warmup: usize,
    /// Enable documented silicon behaviours that the analytical in-core
    /// model deliberately ignores (see `apply_quirks`). These reproduce
    /// the paper's known model-vs-measurement outliers in Fig. 3.
    pub quirks: bool,
    /// Let the event-driven engine stop as soon as the per-iteration issue
    /// schedule provably repeats, extrapolating the remaining iterations
    /// exactly. Disable to force every iteration to be simulated.
    pub early_exit: bool,
    /// Run the retained naive tick-by-tick engine instead of the
    /// event-driven one. Slower; exists as the equivalence oracle for
    /// tests and the benchmark harness.
    pub reference: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            iterations: 200,
            warmup: 50,
            quirks: true,
            early_exit: true,
            reference: false,
        }
    }
}

/// Silicon behaviours beyond the port/latency model:
///
/// * **Neoverse V2 FMA accumulator forwarding** — the V2 forwards an FMA
///   result into the accumulator input of a dependent FMA after 2 cycles
///   instead of the full 4-cycle latency (Arm SOG "late accumulator
///   forwarding"). OSACA's model charges the full latency, which is why the
///   paper's Gauss-Seidel kernels on V2 are the one family OSACA
///   over-predicts (Fig. 3, left-side bars).
/// * **Zen 4 scalar FP divide** — sustained divide throughput measures
///   slightly better (≈4 cy/divide) than the documented 5 cy the model
///   uses; the paper notes exactly this for the π kernel on Zen 4.
fn apply_quirks(
    machine: &Machine,
    kernel: &Kernel,
    descs: &mut [uarch::InstrDesc],
    graph: &mut DepGraph,
) {
    match machine.arch {
        uarch::Arch::NeoverseV2 => {
            for e in &mut graph.edges {
                let prod_fma = descs[e.from].class == InstrClass::VecFma;
                let cons_fma = descs[e.to].class == InstrClass::VecFma;
                if prod_fma && cons_fma {
                    // Forward only into the accumulator operand: the edge
                    // register must be the consumer's destination too.
                    let cons = &kernel.instructions[e.to];
                    let dest_is_via = isa::dataflow::dataflow(cons)
                        .writes
                        .iter()
                        .any(|w| w.id() == e.via);
                    if dest_is_via {
                        e.weight = e.weight.min(2.0);
                    }
                }
            }
        }
        uarch::Arch::Zen4 => {
            for (d, inst) in descs.iter_mut().zip(&kernel.instructions) {
                // Scalar divides only — the packed divider matches its
                // documented throughput.
                if d.class == InstrClass::VecDiv
                    && inst.max_vec_width() <= 128
                    && uarch::instr::is_scalar_fp(inst)
                {
                    for u in &mut d.uops {
                        if u.occupancy >= 5.0 {
                            u.occupancy *= 0.8;
                        }
                    }
                }
            }
        }
        uarch::Arch::GoldenCove => {}
    }
}

/// Build the kernel's dependence graph from its descriptors on this
/// machine, with quirks applied per `cfg`. Both execution engines start
/// from this.
pub(crate) fn prepare(
    machine: &Machine,
    kernel: &Kernel,
    cfg: SimConfig,
    mut descs: Vec<InstrDesc>,
) -> (Vec<InstrDesc>, DepGraph) {
    let mut graph = DepGraph::build(machine, kernel, &descs);
    if cfg.quirks {
        apply_quirks(machine, kernel, &mut descs, &mut graph);
    }
    (descs, graph)
}

/// Simulation outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Steady-state cycles per loop iteration.
    pub cycles_per_iter: f64,
    /// Total simulated cycles including warm-up.
    pub total_cycles: u64,
    /// µ-ops issued per cycle over the measured window.
    pub uops_per_cycle: f64,
    /// The max-cycles watchdog fired before every iteration retired; the
    /// other fields describe the truncated run.
    pub truncated: bool,
    /// Iterations actually retired in simulation before the steady-state
    /// early exit extrapolated the rest (`None` = ran to completion).
    /// Engine bookkeeping only — never affects the numeric fields.
    pub early_exit_iter: Option<usize>,
}

impl SimResult {
    pub(crate) fn empty() -> Self {
        SimResult {
            cycles_per_iter: 0.0,
            total_cycles: 0,
            uops_per_cycle: 0.0,
            truncated: false,
            early_exit_iter: None,
        }
    }
}

/// Raw counters at loop exit, shared by both engines; [`finish`] turns
/// them into a [`SimResult`] with identical arithmetic.
pub(crate) struct RawOutcome {
    pub now: u64,
    pub retired_iters: usize,
    pub issued_uops_total: u64,
    pub warmup_end_cycle: Option<u64>,
    pub warmup_issued: u64,
    pub early_exit_iter: Option<usize>,
}

pub(crate) fn finish(cfg: SimConfig, total_iters: usize, o: RawOutcome) -> SimResult {
    let start = o.warmup_end_cycle.unwrap_or(0);
    let measured_iters = (o.retired_iters.saturating_sub(cfg.warmup)).max(1) as f64;
    let measured_cycles = (o.now - start) as f64;
    SimResult {
        cycles_per_iter: measured_cycles / measured_iters,
        total_cycles: o.now,
        uops_per_cycle: (o.issued_uops_total - o.warmup_issued) as f64 / measured_cycles.max(1.0),
        truncated: o.retired_iters < total_iters,
        early_exit_iter: o.early_exit_iter,
    }
}

/// Lifecycle of one instruction instance, for the pipeline trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub iter: usize,
    pub idx: usize,
    pub dispatched: u64,
    /// Cycle the last µ-op issued.
    pub issued: u64,
    /// Cycle the result was available.
    pub completed: u64,
    /// Cycle the instruction retired (in order).
    pub retired: u64,
}

/// The cycle-level simulator as a [`uarch::Predictor`] — the workspace's
/// measurement stand-in (`is_reference`), anchoring relative prediction
/// error in validation runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreSimulator {
    pub config: SimConfig,
}

impl uarch::Predictor for CoreSimulator {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn predict(&self, machine: &Machine, kernel: &Kernel) -> uarch::Prediction {
        self.predict_described(machine, kernel, &machine.describe_kernel(kernel))
    }

    fn predict_described(
        &self,
        machine: &Machine,
        kernel: &Kernel,
        descs: &[InstrDesc],
    ) -> uarch::Prediction {
        let r = simulate_described(machine, kernel, descs, self.config);
        uarch::Prediction {
            cycles_per_iter: r.cycles_per_iter,
            bottleneck: uarch::Bottleneck::Measured,
            port_pressure: Vec::new(),
            uops_per_iter: r.uops_per_cycle * r.cycles_per_iter,
        }
    }

    fn is_reference(&self) -> bool {
        true
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<SimScratch> = std::cell::RefCell::new(SimScratch::default());
}

/// The event engine packs per-µ-op issue state into one 64-bit mask; any
/// instruction wider than that (never produced by the builtin decoders,
/// but machine files are open-ended) falls back to the reference engine.
fn needs_reference(cfg: SimConfig, descs: &[InstrDesc]) -> bool {
    cfg.reference || descs.iter().any(|d| d.uop_count() > 64)
}

fn simulate_dispatch(
    machine: &Machine,
    kernel: &Kernel,
    descs: Option<&[InstrDesc]>,
    cfg: SimConfig,
    scratch: Option<&mut SimScratch>,
    trace: Option<(&mut Vec<TraceEvent>, usize)>,
) -> SimResult {
    if kernel.instructions.is_empty() {
        return SimResult::empty();
    }
    let descs = descs.map_or_else(|| machine.describe_kernel(kernel), <[InstrDesc]>::to_vec);
    let (descs, graph) = prepare(machine, kernel, cfg, descs);
    if needs_reference(cfg, &descs) {
        reference::simulate(machine, cfg, &descs, &graph, trace)
    } else {
        match scratch {
            Some(s) => event::simulate(machine, cfg, &descs, &graph, s, trace),
            None => SCRATCH.with(|c| {
                event::simulate(machine, cfg, &descs, &graph, &mut c.borrow_mut(), trace)
            }),
        }
    }
}

/// Simulate a kernel and return steady-state cycles/iteration. Uses a
/// thread-local [`SimScratch`], so repeated calls on one thread reuse all
/// simulation buffers.
pub fn simulate(machine: &Machine, kernel: &Kernel, cfg: SimConfig) -> SimResult {
    simulate_dispatch(machine, kernel, None, cfg, None, None)
}

/// [`simulate`] from the kernel's descriptors, already looked up by the
/// caller (`descs` must equal `machine.describe_kernel(kernel)`).
fn simulate_described(
    machine: &Machine,
    kernel: &Kernel,
    descs: &[InstrDesc],
    cfg: SimConfig,
) -> SimResult {
    simulate_dispatch(machine, kernel, Some(descs), cfg, None, None)
}

/// [`simulate`] with a caller-owned scratch arena — for callers that
/// manage their own worker state or want allocation behaviour to be
/// explicit. (Ignored when `cfg.reference` selects the naive engine.)
pub fn simulate_with_scratch(
    machine: &Machine,
    kernel: &Kernel,
    cfg: SimConfig,
    scratch: &mut SimScratch,
) -> SimResult {
    simulate_dispatch(machine, kernel, None, cfg, Some(scratch), None)
}

/// Simulate and also return the pipeline trace of the first
/// `trace_iters` iterations (dispatch → issue → complete → retire per
/// instruction instance).
pub fn simulate_traced(
    machine: &Machine,
    kernel: &Kernel,
    cfg: SimConfig,
    trace_iters: usize,
) -> (SimResult, Vec<TraceEvent>) {
    let mut events = Vec::new();
    let r = simulate_dispatch(
        machine,
        kernel,
        None,
        cfg,
        None,
        Some((&mut events, trace_iters)),
    );
    events.sort_by_key(|e| (e.iter, e.idx));
    (r, events)
}

/// Convenience: steady-state cycles per iteration with default config.
pub fn cycles_per_iteration(machine: &Machine, kernel: &Kernel) -> f64 {
    simulate(machine, kernel, SimConfig::default()).cycles_per_iter
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{parse_kernel, Isa};
    use uarch::Machine;

    fn run_x86(asm: &str, m: &Machine) -> f64 {
        let k = parse_kernel(asm, Isa::X86).unwrap();
        cycles_per_iteration(m, &k)
    }

    fn run_a64(asm: &str, m: &Machine) -> f64 {
        let k = parse_kernel(asm, Isa::AArch64).unwrap();
        cycles_per_iteration(m, &k)
    }

    /// Both engines must agree bit-for-bit on everything observable
    /// (`early_exit_iter` is engine bookkeeping, not an observable).
    fn assert_engines_agree(m: &Machine, asm: &str, isa: Isa, cfg: SimConfig) {
        let k = parse_kernel(asm, isa).unwrap();
        let ev = simulate(
            m,
            &k,
            SimConfig {
                reference: false,
                ..cfg
            },
        );
        let rf = simulate(
            m,
            &k,
            SimConfig {
                reference: true,
                ..cfg
            },
        );
        assert_eq!(
            ev.cycles_per_iter.to_bits(),
            rf.cycles_per_iter.to_bits(),
            "{asm}"
        );
        assert_eq!(ev.total_cycles, rf.total_cycles, "{asm}");
        assert_eq!(
            ev.uops_per_cycle.to_bits(),
            rf.uops_per_cycle.to_bits(),
            "{asm}"
        );
        assert_eq!(ev.truncated, rf.truncated, "{asm}");
    }

    #[test]
    fn serial_fma_chain_measures_latency() {
        // The accumulator chain forces ~4 cycles/iteration (FMA latency).
        let m = Machine::golden_cove();
        let c = run_x86(
            ".L1:\n vfmadd231pd %zmm1, %zmm2, %zmm3\n subq $1, %rax\n jne .L1\n",
            &m,
        );
        assert!((c - 4.0).abs() < 0.3, "cycles/iter = {c}");
    }

    #[test]
    fn independent_fmas_measure_throughput() {
        // 8 accumulators on 2 × 512-bit pipes → ~4 cycles per iteration
        // (2 FMAs/cycle), Table III.
        let m = Machine::golden_cove();
        let mut asm = String::from(".L1:\n");
        for i in 3..11 {
            asm.push_str(&format!("    vfmadd231pd %zmm1, %zmm2, %zmm{i}\n"));
        }
        asm.push_str("    subq $1, %rax\n    jne .L1\n");
        let c = run_x86(&asm, &m);
        assert!((c - 4.0).abs() < 0.5, "cycles/iter = {c}");
    }

    #[test]
    fn neoverse_add_throughput() {
        // 8 independent NEON adds on 4 pipes → ~2 cycles/iteration.
        let m = Machine::neoverse_v2();
        let mut asm = String::from(".L1:\n");
        for i in 0..8 {
            asm.push_str(&format!("    fadd v{i}.2d, v8.2d, v9.2d\n"));
        }
        asm.push_str("    subs x0, x0, #1\n    b.ne .L1\n");
        let c = run_a64(&asm, &m);
        assert!((2.0 - 1e-9..2.8).contains(&c), "cycles/iter = {c}");
    }

    #[test]
    fn divider_blocks_port() {
        // Four independent zmm divides at 16-cycle reciprocal throughput
        // serialize on the single divider port: ≥ 64 cycles/iteration.
        let m = Machine::golden_cove();
        let mut asm = String::from(".L1:\n");
        for i in 4..8 {
            asm.push_str(&format!("    vdivpd %zmm1, %zmm2, %zmm{i}\n"));
        }
        asm.push_str("    subq $1, %rax\n    jne .L1\n");
        let c = run_x86(&asm, &m);
        assert!(c >= 60.0, "cycles/iter = {c}");
    }

    #[test]
    fn zen4_double_pumped_fma_slower_than_glc() {
        let mut asm = String::from(".L1:\n");
        for i in 3..11 {
            asm.push_str(&format!("    vfmadd231pd %zmm1, %zmm2, %zmm{i}\n"));
        }
        asm.push_str("    subq $1, %rax\n    jne .L1\n");
        let glc = run_x86(&asm, &Machine::golden_cove());
        let zen = run_x86(&asm, &Machine::zen4());
        // Zen 4 needs two 256-bit µ-ops per zmm FMA → about twice the time.
        assert!(zen > glc * 1.6, "glc={glc} zen={zen}");
    }

    #[test]
    fn measurement_never_faster_than_model() {
        // The simulator includes strictly more constraints than the
        // analytical lower bound.
        let kernels = [
            ".L1:\n vmovupd (%rsi,%rax), %zmm0\n vaddpd %zmm0, %zmm1, %zmm2\n vmovupd %zmm2, (%rdi,%rax)\n addq $64, %rax\n cmpq %rcx, %rax\n jne .L1\n",
            ".L1:\n vmulpd %zmm4, %zmm1, %zmm2\n vaddpd %zmm2, %zmm3, %zmm4\n subq $1, %rax\n jne .L1\n",
        ];
        let m = Machine::golden_cove();
        for asm in kernels {
            let k = parse_kernel(asm, Isa::X86).unwrap();
            let sim = cycles_per_iteration(&m, &k);
            let model = incore::analyze(&m, &k).prediction;
            assert!(sim >= model - 0.05, "sim={sim} model={model} for {asm}");
        }
    }

    #[test]
    fn empty_kernel() {
        let k = isa::Kernel {
            instructions: vec![],
            isa: Isa::X86,
            loop_label: None,
        };
        let r = simulate(&Machine::zen4(), &k, SimConfig::default());
        assert_eq!(r.cycles_per_iter, 0.0);
        assert!(!r.truncated);
    }

    #[test]
    fn store_throughput_zen4_one_per_cycle() {
        let m = Machine::zen4();
        let c = run_x86(
            ".L1:\n vmovupd %ymm0, (%rdi)\n vmovupd %ymm1, 32(%rdi)\n addq $64, %rdi\n cmpq %rsi, %rdi\n jne .L1\n",
            &m,
        );
        // Single store-data port → ≥ 2 cycles for two stores.
        assert!(c >= 2.0 - 1e-9, "cycles/iter = {c}");
        assert!(c < 3.0, "cycles/iter = {c}");
    }

    #[test]
    fn steady_state_early_exit_triggers_and_is_exact() {
        // A throughput-bound kernel settles into a periodic schedule well
        // within the default budget: the event engine must take the early
        // exit and still agree bit-for-bit with the naive engine.
        let m = Machine::golden_cove();
        let asm = ".L1:\n vaddpd %zmm1, %zmm2, %zmm3\n vmulpd %zmm4, %zmm5, %zmm6\n subq $1, %rax\n jne .L1\n";
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let cfg = SimConfig::default();
        let ev = simulate(&m, &k, cfg);
        let exited_at = ev.early_exit_iter.expect("steady kernel should early-exit");
        assert!(
            exited_at < cfg.warmup + cfg.iterations,
            "no iterations were saved"
        );
        assert_engines_agree(&m, asm, Isa::X86, cfg);
    }

    #[test]
    fn no_early_exit_simulates_every_iteration() {
        let m = Machine::zen4();
        let asm = ".L1:\n vaddpd %ymm1, %ymm2, %ymm3\n subq $1, %rax\n jne .L1\n";
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let cfg = SimConfig {
            early_exit: false,
            ..SimConfig::default()
        };
        let full = simulate(&m, &k, cfg);
        assert_eq!(full.early_exit_iter, None);
        let fast = simulate(&m, &k, SimConfig::default());
        assert_eq!(
            full.cycles_per_iter.to_bits(),
            fast.cycles_per_iter.to_bits()
        );
        assert_eq!(full.total_cycles, fast.total_cycles);
    }

    #[test]
    fn watchdog_truncates_stalled_kernels_on_all_machines() {
        // With a zero dispatch width nothing ever enters the window, so no
        // retirement progress is possible; both engines must stop at the
        // watchdog and report a truncated run instead of spinning.
        for mut m in uarch::all_machines() {
            m.dispatch_width = 0;
            let (asm, isa) = match m.isa {
                isa::Isa::X86 => (".L1:\n addq $1, %rax\n jne .L1\n", Isa::X86),
                isa::Isa::AArch64 => (".L1:\n add x0, x0, #1\n b.ne .L1\n", Isa::AArch64),
            };
            let k = parse_kernel(asm, isa).unwrap();
            let cfg = SimConfig {
                iterations: 3,
                warmup: 1,
                ..SimConfig::default()
            };
            let max_cycles = 1_000_000 + 4 * 2_000;
            for reference in [false, true] {
                let r = simulate(&m, &k, SimConfig { reference, ..cfg });
                assert!(r.truncated, "{} reference={reference}", m.part);
                assert_eq!(r.total_cycles, max_cycles, "{}", m.part);
            }
        }
    }

    #[test]
    fn watchdog_on_retirement_stall_with_narrow_dispatch() {
        // A 2-µ-op store behind a 1-wide dispatch never fits the group,
        // so dispatch stalls forever with real (nonzero) hardware widths.
        let mut m = Machine::golden_cove();
        m.dispatch_width = 1;
        let k = parse_kernel(".L1:\n vmovupd %ymm0, (%rdi)\n jne .L1\n", Isa::X86).unwrap();
        let cfg = SimConfig {
            iterations: 2,
            warmup: 0,
            ..SimConfig::default()
        };
        let ev = simulate(&m, &k, cfg);
        let rf = simulate(
            &m,
            &k,
            SimConfig {
                reference: true,
                ..cfg
            },
        );
        assert!(ev.truncated && rf.truncated);
        assert_eq!(ev.total_cycles, rf.total_cycles);
    }

    #[test]
    fn engines_agree_on_spot_kernels() {
        let x86 = [
            ".L1:\n vfmadd231pd %zmm1, %zmm2, %zmm3\n subq $1, %rax\n jne .L1\n",
            ".L1:\n vmovupd (%rsi,%rax), %zmm0\n vaddpd %zmm0, %zmm1, %zmm2\n vmovupd %zmm2, (%rdi,%rax)\n addq $64, %rax\n cmpq %rcx, %rax\n jne .L1\n",
            ".L1:\n vdivpd %zmm1, %zmm2, %zmm4\n vdivpd %zmm1, %zmm2, %zmm5\n subq $1, %rax\n jne .L1\n",
            ".L1:\n xorq %rax, %rax\n movq %rbx, %rcx\n subq $1, %rdx\n jne .L1\n",
        ];
        let cfgs = [
            SimConfig::default(),
            SimConfig {
                iterations: 7,
                warmup: 3,
                ..SimConfig::default()
            },
            SimConfig {
                iterations: 30,
                warmup: 0,
                quirks: false,
                ..SimConfig::default()
            },
        ];
        for asm in x86 {
            for cfg in cfgs {
                assert_engines_agree(&Machine::golden_cove(), asm, Isa::X86, cfg);
                assert_engines_agree(&Machine::zen4(), asm, Isa::X86, cfg);
            }
        }
        let a64 = ".L1:\n fmla v0.2d, v1.2d, v2.2d\n fadd v3.2d, v4.2d, v5.2d\n subs x0, x0, #1\n b.ne .L1\n";
        for cfg in cfgs {
            assert_engines_agree(&Machine::neoverse_v2(), a64, Isa::AArch64, cfg);
        }
    }

    #[test]
    fn traces_agree_between_engines() {
        let m = Machine::golden_cove();
        let asm = ".L1:\n vmulpd %zmm4, %zmm1, %zmm2\n vaddpd %zmm2, %zmm3, %zmm4\n subq $1, %rax\n jne .L1\n";
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let cfg = SimConfig {
            iterations: 12,
            warmup: 4,
            ..SimConfig::default()
        };
        let (ev, ev_trace) = simulate_traced(&m, &k, cfg, 6);
        let (rf, rf_trace) = simulate_traced(
            &m,
            &k,
            SimConfig {
                reference: true,
                ..cfg
            },
            6,
        );
        assert_eq!(ev_trace, rf_trace);
        assert_eq!(ev.cycles_per_iter.to_bits(), rf.cycles_per_iter.to_bits());
    }

    #[test]
    fn caller_scratch_is_reusable_across_machines_and_kernels() {
        let mut scratch = SimScratch::default();
        let blocks = [
            (
                Machine::golden_cove(),
                ".L1:\n vaddpd %zmm1, %zmm2, %zmm3\n subq $1, %rax\n jne .L1\n",
            ),
            (
                Machine::zen4(),
                ".L1:\n vfmadd231pd %ymm1, %ymm2, %ymm3\n subq $1, %rax\n jne .L1\n",
            ),
            (
                Machine::golden_cove(),
                ".L1:\n vdivpd %zmm1, %zmm2, %zmm4\n subq $1, %rax\n jne .L1\n",
            ),
        ];
        for (m, asm) in &blocks {
            let k = parse_kernel(asm, Isa::X86).unwrap();
            let fresh = simulate(m, &k, SimConfig::default());
            let reused = simulate_with_scratch(m, &k, SimConfig::default(), &mut scratch);
            assert_eq!(fresh, reused);
            // And again, to exercise re-initialization of dirty buffers.
            let again = simulate_with_scratch(m, &k, SimConfig::default(), &mut scratch);
            assert_eq!(fresh, again);
        }
    }
}

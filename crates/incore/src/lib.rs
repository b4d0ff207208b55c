//! The analytical in-core performance model — the paper's contribution,
//! equivalent to the microarchitecture extensions the authors added to the
//! Open Source Architecture Code Analyzer (OSACA).
//!
//! Given a loop kernel and a [`uarch::Machine`], the analyzer produces an
//! *optimistic lower bound* on the cycles per loop iteration:
//!
//! 1. **Port-pressure / throughput analysis** ([`throughput`]): every µ-op's
//!    occupancy is distributed over its eligible ports so that the maximum
//!    port load is minimized; the bound is that maximum load.
//! 2. **Critical-path analysis** ([`critpath`]): the longest
//!    latency-weighted path through one iteration's dependency DAG.
//! 3. **Loop-carried-dependency analysis** ([`lcd`]): the longest
//!    latency-weighted cycle that wraps from one iteration into the next;
//!    this bounds steady-state iteration time from below even when ports
//!    are idle.
//!
//! The block prediction is `max(throughput, LCD, front-end)` — deliberately
//! *not* including the critical path, which only bounds a single iteration
//! in flight (out-of-order execution overlaps iterations).
//!
//! # Example
//!
//! ```
//! use isa::{parse_kernel, Isa};
//! use incore::analyze;
//! use uarch::Machine;
//!
//! let asm = r#"
//! .L2:
//!     vmovupd (%rsi,%rax), %zmm0
//!     vfmadd231pd %zmm1, %zmm2, %zmm0
//!     vmovupd %zmm0, (%rdi,%rax)
//!     addq $64, %rax
//!     cmpq %rcx, %rax
//!     jne .L2
//! "#;
//! let kernel = parse_kernel(asm, Isa::X86).unwrap();
//! let analysis = analyze(&Machine::golden_cove(), &kernel);
//! assert!(analysis.prediction >= 1.0);
//! ```

pub mod critpath;
pub mod depgraph;
pub mod lcd;
pub mod report;
pub mod throughput;

pub use report::Report;
pub use throughput::PortAssignment;

use isa::Kernel;
use uarch::{InstrDesc, Machine};

/// Result of the in-core analysis of one kernel on one machine.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Cycles of work assigned to each port (indexed like
    /// `machine.port_model.ports`).
    pub port_loads: Vec<f64>,
    /// Throughput (port-pressure) bound in cycles/iteration.
    pub tp_bound: f64,
    /// Front-end dispatch bound in cycles/iteration.
    pub frontend_bound: f64,
    /// Critical path through one iteration, in cycles.
    pub cp_latency: f64,
    /// Instruction indices on the critical path, in program order.
    pub cp_nodes: Vec<usize>,
    /// Loop-carried dependency bound in cycles/iteration.
    pub lcd: f64,
    /// The block prediction: `max(tp, lcd, frontend)`.
    pub prediction: f64,
    /// Per-instruction port-pressure rows (cycles on each port).
    pub per_inst: Vec<InstPressure>,
    /// Number of instructions resolved through the heuristic fallback.
    pub fallbacks: usize,
}

/// What limits the kernel's steady-state throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The busiest execution port(s).
    PortPressure,
    /// A loop-carried dependency chain.
    Dependency,
    /// The dispatch/rename width.
    FrontEnd,
}

impl Analysis {
    /// Classify the binding constraint of the block prediction.
    pub fn bottleneck(&self) -> Bottleneck {
        if self.lcd >= self.tp_bound && self.lcd >= self.frontend_bound {
            Bottleneck::Dependency
        } else if self.tp_bound >= self.frontend_bound {
            Bottleneck::PortPressure
        } else {
            Bottleneck::FrontEnd
        }
    }

    /// Indices of the ports at maximum load (the binding ports).
    pub fn busiest_ports(&self) -> Vec<usize> {
        let max = self.port_loads.iter().copied().fold(0.0f64, f64::max);
        self.port_loads
            .iter()
            .enumerate()
            .filter(|(_, l)| (**l - max).abs() < 1e-9 && max > 0.0)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Port pressure contributed by a single instruction.
#[derive(Debug, Clone)]
pub struct InstPressure {
    /// Source text of the instruction.
    pub text: String,
    /// Cycles this instruction puts on each port.
    pub loads: Vec<f64>,
    pub latency: u32,
    pub eliminated: bool,
    pub fallback: bool,
}

/// The analytical in-core model as a [`uarch::Predictor`] — the unified
/// entry point batch pipelines and divergence lints dispatch through.
#[derive(Debug, Clone, Copy, Default)]
pub struct InCoreModel {
    /// Port-assignment strategy for the throughput analysis.
    pub assignment: PortAssignment,
}

impl InCoreModel {
    pub fn new() -> Self {
        InCoreModel::default()
    }

    /// OSACA's equal-split port heuristic instead of the optimal split.
    pub fn balanced() -> Self {
        InCoreModel {
            assignment: PortAssignment::Balanced,
        }
    }
}

impl uarch::Predictor for InCoreModel {
    fn name(&self) -> &'static str {
        match self.assignment {
            PortAssignment::Optimal => "incore",
            PortAssignment::Balanced => "incore-balanced",
        }
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
        let a = analyze_described(machine, kernel, descs, self.assignment);
        let bottleneck = match a.bottleneck() {
            Bottleneck::PortPressure => uarch::Bottleneck::PortPressure,
            Bottleneck::Dependency => uarch::Bottleneck::Dependency,
            Bottleneck::FrontEnd => uarch::Bottleneck::FrontEnd,
        };
        uarch::Prediction {
            cycles_per_iter: a.prediction,
            bottleneck,
            uops_per_iter: a.frontend_bound * machine.dispatch_width as f64,
            port_pressure: a.port_loads,
        }
    }
}

/// Analyze a kernel with the optimal port assignment.
pub fn analyze(machine: &Machine, kernel: &Kernel) -> Analysis {
    analyze_with(machine, kernel, PortAssignment::Optimal)
}

/// Analyze a kernel with an explicit port-assignment strategy.
pub fn analyze_with(machine: &Machine, kernel: &Kernel, assignment: PortAssignment) -> Analysis {
    analyze_described(
        machine,
        kernel,
        &machine.describe_kernel(kernel),
        assignment,
    )
}

/// [`analyze_with`] from the kernel's descriptors, already looked up by
/// the caller (`descs` must equal `machine.describe_kernel(kernel)`).
fn analyze_described(
    machine: &Machine,
    kernel: &Kernel,
    descs: &[InstrDesc],
    assignment: PortAssignment,
) -> Analysis {
    let (port_loads, per_inst) = throughput::port_pressure(machine, kernel, descs, assignment);
    let tp_bound = port_loads.iter().copied().fold(0.0f64, f64::max);

    let total_uops: usize = descs.iter().map(|d| d.uop_count()).sum();
    let frontend_bound = total_uops as f64 / machine.dispatch_width as f64;

    let graph = depgraph::DepGraph::build(machine, kernel, descs);
    let (cp_latency, cp_nodes) = critpath::critical_path_with_nodes(&graph);
    let lcd = lcd::loop_carried(&graph);

    let prediction = tp_bound.max(lcd).max(frontend_bound);

    Analysis {
        port_loads,
        tp_bound,
        frontend_bound,
        cp_latency,
        cp_nodes,
        lcd,
        prediction,
        per_inst,
        fallbacks: descs.iter().filter(|d| d.from_fallback).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{parse_kernel, Isa};

    /// Paper Table III check: a stream of independent zmm FMAs on Golden
    /// Cove sustains 2/cycle. With 8 accumulators the 4-cycle FMA latency
    /// is fully hidden: 8 FMAs / 2 ports = 4 cy/iter = 2 FMA/cy.
    #[test]
    fn independent_fma_throughput_glc() {
        let mut asm = String::from(".L1:\n");
        for i in 3..11 {
            asm.push_str(&format!("    vfmadd231pd %zmm1, %zmm2, %zmm{i}\n"));
        }
        asm.push_str("    subq $1, %rax\n    jne .L1\n");
        let k = parse_kernel(&asm, Isa::X86).unwrap();
        let a = analyze(&Machine::golden_cove(), &k);
        assert!((a.tp_bound - 4.0).abs() < 1e-6, "tp={}", a.tp_bound);
        // Each accumulator advances once per iteration → LCD 4, matching.
        assert!((a.lcd - 4.0).abs() < 1e-6, "lcd={}", a.lcd);
        assert!((a.prediction - 4.0).abs() < 1e-6);
    }

    /// A serial FMA chain is bound by the loop-carried dependency:
    /// 4 cycles per iteration (Table III FMA latency).
    #[test]
    fn serial_fma_chain_lcd() {
        let asm = r#"
.L1:
    vfmadd231pd %zmm1, %zmm2, %zmm3
    subq $1, %rax
    jne .L1
"#;
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let a = analyze(&Machine::golden_cove(), &k);
        assert!((a.lcd - 4.0).abs() < 1e-6, "lcd={}", a.lcd);
        assert!((a.prediction - 4.0).abs() < 1e-6);
    }

    #[test]
    fn neoverse_vector_add_throughput() {
        // 8 independent NEON adds on 4 V-ports → 2 cycles/iter.
        let mut body = String::from(".L1:\n");
        for i in 0..8 {
            body.push_str(&format!("    fadd v{i}.2d, v8.2d, v9.2d\n"));
        }
        body.push_str("    subs x0, x0, #1\n    b.ne .L1\n");
        let k = parse_kernel(&body, Isa::AArch64).unwrap();
        let a = analyze(&Machine::neoverse_v2(), &k);
        assert!((a.tp_bound - 2.0).abs() < 1e-6, "tp={}", a.tp_bound);
    }

    #[test]
    fn frontend_bound_present() {
        let asm = ".L1:\n    addq $1, %rax\n    jne .L1\n";
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let a = analyze(&Machine::golden_cove(), &k);
        assert!(a.frontend_bound > 0.0);
        assert!(a.prediction >= a.frontend_bound);
    }

    #[test]
    fn store_only_loop_bound_by_store_ports_zen4() {
        // Zen 4 has a single store-data port: 2 stores → 2 cycles.
        let asm = r#"
.L1:
    vmovupd %ymm0, (%rdi)
    vmovupd %ymm0, 32(%rdi)
    addq $64, %rdi
    cmpq %rsi, %rdi
    jne .L1
"#;
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let a = analyze(&Machine::zen4(), &k);
        assert!((a.tp_bound - 2.0).abs() < 1e-6, "tp={}", a.tp_bound);
    }

    #[test]
    fn pointer_increment_does_not_inflate_lcd() {
        // AArch64 post-index load: the base update is a 1-cycle AGU op,
        // so the loop-carried chain through x0 is 1 cy, not the load-use
        // latency.
        let asm = r#"
.L1:
    ldr q0, [x0], #16
    fadd v1.2d, v1.2d, v0.2d
    cmp x0, x4
    b.ne .L1
"#;
        let k = parse_kernel(asm, Isa::AArch64).unwrap();
        let a = analyze(&Machine::neoverse_v2(), &k);
        // LCD through v1 accumulator: fadd latency 2. x0 chain: 1.
        assert!((a.lcd - 2.0).abs() < 1e-6, "lcd={}", a.lcd);
    }
}

#[cfg(test)]
mod bottleneck_tests {
    use super::*;
    use isa::{parse_kernel, Isa};

    #[test]
    fn dependency_bound_kernel() {
        let k = parse_kernel(
            ".L1:\n vfmadd231pd %zmm1, %zmm2, %zmm3\n subq $1, %rax\n jne .L1\n",
            Isa::X86,
        )
        .unwrap();
        let a = analyze(&Machine::golden_cove(), &k);
        assert_eq!(a.bottleneck(), Bottleneck::Dependency);
    }

    #[test]
    fn port_bound_kernel() {
        let mut asm = String::from(".L1:\n");
        for i in 3..11 {
            asm.push_str(&format!("    vdivpd %zmm1, %zmm2, %zmm{i}\n"));
        }
        asm.push_str("    subq $1, %rax\n    jne .L1\n");
        let k = parse_kernel(&asm, Isa::X86).unwrap();
        let a = analyze(&Machine::golden_cove(), &k);
        assert_eq!(a.bottleneck(), Bottleneck::PortPressure);
        // The divider lives on port 0.
        assert_eq!(a.busiest_ports(), vec![0]);
    }

    #[test]
    fn frontend_bound_kernel() {
        // Work spread evenly over port groups so no single group
        // saturates, but the total µ-op count exceeds what 6-wide dispatch
        // can sustain per cycle.
        let asm = "\
.L1:
    vmovupd (%rsi,%rax), %zmm0
    vmovupd 64(%rsi,%rax), %zmm1
    vaddpd %zmm0, %zmm5, %zmm2
    vaddpd %zmm1, %zmm5, %zmm3
    addq $8, %rbx
    addq $8, %rcx
    vmovupd %zmm2, (%rdi,%rax)
    addq $128, %rax
    cmpq %r8, %rax
    jne .L1
";
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let a = analyze(&Machine::golden_cove(), &k);
        assert!(
            a.frontend_bound > a.tp_bound,
            "fe={} tp={}",
            a.frontend_bound,
            a.tp_bound
        );
        assert_eq!(a.bottleneck(), Bottleneck::FrontEnd);
    }

    #[test]
    fn report_names_the_bottleneck() {
        let k = parse_kernel(
            ".L1:\n vfmadd231pd %zmm1, %zmm2, %zmm3\n subq $1, %rax\n jne .L1\n",
            Isa::X86,
        )
        .unwrap();
        let m = Machine::golden_cove();
        let a = analyze(&m, &k);
        let text = Report::new(&m, &a).render();
        assert!(text.contains("loop-carried dependency"), "{text}");
    }
}

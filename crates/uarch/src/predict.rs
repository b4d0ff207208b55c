//! The unified predictor contract.
//!
//! Three independent tools in this workspace can put a number on "cycles
//! per iteration" for a kernel on a machine: the OSACA-style analytical
//! in-core model (`incore`), the LLVM-MCA-style baseline (`mca`), and the
//! cycle-level out-of-order simulator (`exec`, the hardware stand-in).
//! Historically each had its own ad-hoc entry point; [`Predictor`] gives
//! them one signature so batch pipelines, divergence lints, and CLI
//! front ends can fan out over *any* set of predictors without knowing
//! which concrete tool is behind each one.
//!
//! The trait lives here (and not in a predictor crate) because `uarch` is
//! the one layer every predictor already depends on: the contract is
//! "machine description + parsed kernel in, [`Prediction`] out".

use crate::{InstrDesc, Machine};
use isa::Kernel;

/// What a predictor says limits the kernel's steady-state throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// The busiest execution port(s).
    PortPressure,
    /// A loop-carried dependency chain.
    Dependency,
    /// The dispatch/rename width.
    FrontEnd,
    /// The number is a measurement (simulator/hardware), not attributed
    /// to a single analytical bound.
    Measured,
    /// The predictor does not attribute its number to a cause.
    Unattributed,
}

impl Bottleneck {
    pub fn label(self) -> &'static str {
        match self {
            Bottleneck::PortPressure => "port-pressure",
            Bottleneck::Dependency => "dependency",
            Bottleneck::FrontEnd => "front-end",
            Bottleneck::Measured => "measured",
            Bottleneck::Unattributed => "unattributed",
        }
    }
}

impl std::fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A predictor's verdict on one kernel × machine pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Steady-state block throughput in cycles per loop iteration.
    pub cycles_per_iter: f64,
    /// What the predictor thinks binds that number.
    pub bottleneck: Bottleneck,
    /// Cycles of work per port, indexed like `machine.port_model.ports`.
    /// Empty when the predictor has no per-port view.
    pub port_pressure: Vec<f64>,
    /// µ-ops per iteration after the predictor's decomposition.
    pub uops_per_iter: f64,
}

/// A block-throughput predictor: one machine + one kernel in, one
/// [`Prediction`] out.
///
/// Implementations must be pure with respect to their inputs (no hidden
/// per-call state), which is what lets the batch engine evaluate a corpus
/// in parallel and memoize freely.
pub trait Predictor: Send + Sync {
    /// Stable identifier used in reports and JSON (`"incore"`, `"mca"`,
    /// `"sim"`, ...).
    fn name(&self) -> &'static str;

    /// This predictor's part of a cache key: its name plus every setting
    /// that can change a result (equal identities, equal predictions).
    /// The default suits predictors whose name pins their configuration.
    fn identity(&self) -> std::borrow::Cow<'static, str> {
        self.name().into()
    }

    /// Predict the block throughput of `kernel` on `machine`.
    fn predict(&self, machine: &Machine, kernel: &Kernel) -> Prediction;

    /// [`predict`](Predictor::predict) from the kernel's descriptors,
    /// already looked up by the caller: `descs` must equal
    /// `machine.describe_kernel(kernel)`. A batch pipeline describes each
    /// block once and hands the slice to every predictor. The default
    /// ignores it and describes for itself.
    fn predict_described(
        &self,
        machine: &Machine,
        kernel: &Kernel,
        descs: &[InstrDesc],
    ) -> Prediction {
        let _ = descs;
        self.predict(machine, kernel)
    }

    /// Whether this predictor stands in for a measurement (ground truth)
    /// rather than an analytical model. Exactly one reference predictor
    /// anchors relative prediction error in a validation run.
    fn is_reference(&self) -> bool {
        false
    }

    /// [`predict_described`](Predictor::predict_described) plus the
    /// wall-clock time the call took. Batch pipelines use this to
    /// attribute run time to each predictor (e.g. the `timings` block of
    /// `validate --json`) without every implementation having to care
    /// about clocks; the timing is observational only and must never
    /// influence the prediction.
    fn predict_timed(
        &self,
        machine: &Machine,
        kernel: &Kernel,
        descs: &[InstrDesc],
    ) -> (Prediction, std::time::Duration) {
        let start = std::time::Instant::now();
        let p = self.predict_described(machine, kernel, descs);
        (p, start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_timed_wraps_predict() {
        struct Fixed;
        impl Predictor for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn predict(&self, _m: &Machine, _k: &Kernel) -> Prediction {
                Prediction {
                    cycles_per_iter: 2.5,
                    bottleneck: Bottleneck::Unattributed,
                    port_pressure: Vec::new(),
                    uops_per_iter: 1.0,
                }
            }
        }
        let k = Kernel {
            instructions: vec![],
            isa: isa::Isa::X86,
            loop_label: None,
        };
        let (p, t) = Fixed.predict_timed(&Machine::golden_cove(), &k, &[]);
        assert_eq!(p.cycles_per_iter, 2.5);
        assert!(t.as_nanos() > 0 || t.is_zero()); // a Duration, possibly 0 on coarse clocks
    }

    #[test]
    fn bottleneck_labels_are_stable() {
        assert_eq!(Bottleneck::PortPressure.label(), "port-pressure");
        assert_eq!(Bottleneck::Dependency.label(), "dependency");
        assert_eq!(Bottleneck::FrontEnd.label(), "front-end");
        assert_eq!(Bottleneck::Measured.label(), "measured");
        assert_eq!(Bottleneck::Unattributed.to_string(), "unattributed");
    }
}

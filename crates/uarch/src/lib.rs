//! Microarchitecture layer: port models and per-instruction timing
//! databases for the three cores the paper analyzes —
//! **Neoverse V2** (Nvidia Grace CPU Superchip), **Golden Cove**
//! (Intel Xeon Platinum 8470 "Sapphire Rapids"), and **Zen 4**
//! (AMD EPYC 9684X "Genoa").
//!
//! The central type is [`Machine`]: a complete machine description (ports,
//! front-end width, out-of-order resources, caches, memory, frequency and
//! power envelope) plus an instruction database that maps any parsed
//! [`isa::Instruction`] to its µ-op decomposition, latency, and documented
//! reciprocal throughput via [`Machine::describe`].
//!
//! # Example
//!
//! ```
//! use uarch::{Machine, Arch};
//! use isa::{parse_kernel, Isa};
//!
//! let spr = Machine::golden_cove();
//! let kernel = parse_kernel("vfmadd231pd %zmm0, %zmm1, %zmm2", Isa::X86).unwrap();
//! let desc = spr.describe(&kernel.instructions[0]);
//! assert_eq!(desc.latency, 4);          // Table III: FMA latency 4 cy
//! assert_eq!(spr.arch, Arch::GoldenCove);
//! ```

pub mod compose;
pub mod instr;
pub mod machine;
pub mod models;
pub mod ports;
pub mod predict;
pub mod registry;
pub mod spec;
pub mod steady;

pub use compose::{Feature, MachineBuilder};
pub use instr::{Entry, InstrClass, InstrDesc, Uop, WidthClass};
pub use machine::{Arch, CacheLevel, Machine, MemorySpec};
pub use ports::{PortModel, PortSet};
pub use predict::{Bottleneck, Prediction, Predictor};

/// All three machine models, in the paper's presentation order
/// (GCS, SPR, Genoa).
pub fn all_machines() -> Vec<Machine> {
    vec![
        Machine::neoverse_v2(),
        Machine::golden_cove(),
        Machine::zen4(),
    ]
}
mod coverage_tests;

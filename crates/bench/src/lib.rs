//! Reproduction harness: one module per paper table/figure, each producing
//! the same rows/series the paper reports. The `repro` binary pretty-prints
//! them; the Criterion benches under `benches/` time the underlying
//! machinery and emit the same data. [`ratios`] gates every fast path
//! against its oracle.

pub mod fig3;
pub mod ibench;
pub mod ratios;
pub mod tables;

pub use fig3::{rpe_corpus, RpeRecord};
pub use ibench::{instruction_latency, instruction_throughput, table3};

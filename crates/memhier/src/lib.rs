//! Cache and memory-hierarchy simulator with write-allocate–evasion
//! mechanisms — the substrate behind the paper's §III case study (Fig. 4)
//! and the bandwidth rows of Table I.
//!
//! The crate provides:
//!
//! * [`cache`] — a set-associative, write-back/write-allocate cache with
//!   LRU replacement and full event counting;
//! * [`hierarchy`] — a private L1/L2 + shared-slice L3 stack per core with
//!   a memory-traffic ledger;
//! * [`policy`] — the three write-allocate–evasion mechanisms: automatic
//!   *cache-line claim* (Neoverse V2 / many Arm cores), Intel's
//!   bandwidth-gated *SpecI2M* RFO→I2M promotion, and *non-temporal
//!   stores* through write-combining buffers (x86 and Arm);
//! * [`storebench`] — the store-only benchmark of Fig. 4: memory traffic /
//!   stored volume vs. active cores, standard and NT variants;
//! * [`stream`] — the exact streaming fast path: a cold sequential stream
//!   is folded onto one congruent sub-hierarchy, and once a
//!   constant-stride stream reaches its steady per-set cycle, stats
//!   advance in closed form — bit-identical to the per-access path (kept
//!   as the oracle behind [`stream::StreamConfig::reference`]);
//! * [`bandwidth`] — the multi-core bandwidth-saturation model used for
//!   the measured-bandwidth rows of Table I.

pub mod bandwidth;
pub mod cache;
pub mod hierarchy;
pub mod policy;
pub mod prefetch;
pub mod storebench;
pub mod stream;

pub use cache::{realized_geometry, Access, Cache, CacheStats, Geometry};
pub use hierarchy::{Hierarchy, Traffic};
pub use policy::{FixedPoint, StoreKind, WaConfig, WaMode};
pub use storebench::{store_traffic_ratio, StorePoint};
pub use stream::{MemScratch, StreamConfig, StreamOutcome, StreamPattern};

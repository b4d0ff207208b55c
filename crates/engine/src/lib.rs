//! `engine` — the batch analysis pipeline behind the unified
//! [`Predictor`](uarch::Predictor) API.
//!
//! The crate turns "run a predictor on a kernel" into "validate a corpus":
//! a [`Session`] fans the full kernels × machines grid out over a worker
//! pool (vendored `rayon`), decodes each distinct kernel text exactly once
//! through a content-keyed [`CorpusCache`], runs every configured
//! predictor against the shared parse, scores each prediction against the
//! reference measurement, applies the `diag` divergence rules, and
//! collects everything into a JSON-serializable [`BatchReport`].
//!
//! Layering: `engine` sits above the predictors (`incore`, `mca`, `exec`)
//! and `diag`, and below the user-facing tools — `bench::fig3` and
//! `incore-cli validate` / `analyze --json` are thin wrappers over this
//! crate.
//!
//! Determinism is a design invariant, not an accident: the parallel map
//! preserves submission order, the cache counters are
//! scheduling-independent, and the report carries no run-environment
//! fields — so the serialized report is byte-identical for any `threads`
//! setting. The single carve-out is the trailing [`RunTimings`] block
//! (wall-clock observations, fed by
//! [`Predictor::predict_timed`](uarch::Predictor::predict_timed)):
//! consumers comparing reports zero it out first, which is exactly what
//! the determinism test does.

pub mod cache;
pub mod diskcache;
pub mod error;
pub mod key;
pub mod lint;
pub mod report;
pub mod session;

pub use cache::{CacheStats, CorpusCache, EvictionStats, KeyedMachine, Lru};
pub use diskcache::{DiskCache, DiskStats};
pub use error::{Error, ErrorKind};
pub use key::Key;
pub use lint::{lint_corpus, lint_corpus_machines};
pub use report::{
    histogram, render_histogram, rpe, summarize, BatchReport, ObsPredictorTimings, ObsSummary,
    PredictorResult, PredictorSummary, RecordReport, RunTimings, Summary, SCHEMA_MINOR,
    SCHEMA_VERSION,
};
pub use session::{evaluate_block, evaluate_block_timed, BlockLabels, BlockTimings, Session};

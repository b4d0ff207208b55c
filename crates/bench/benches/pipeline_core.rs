//! Pipeline throughput benchmark with an allocation micro-assert:
//!
//! 1. A counting global allocator audits `isa::parse_kernel` over the
//!    full 416-block corpus. After one warm-up pass (which populates the
//!    thread-local intern arena), every further pass must allocate an
//!    *identical* amount — the interner has converged, nothing transient
//!    accumulates — and no more than materializing the output `Kernel`
//!    structures themselves costs (a deep clone). A regression that
//!    reintroduces per-token `String` churn on the steady path fails
//!    here before it shows up as a timing drift.
//! 2. The tracked pipeline run (`bench::pipelinebench`): baseline vs
//!    batch vs persistent-cache-cold vs persistent-cache-warm kernels/sec
//!    at 1 and 8 threads, written to `BENCH_pipeline.json` at the
//!    repository root with its byte-identity and speedup gates asserted.
//!
//! `BENCH_PIPELINE_LIMIT=<n>` caps the volume corpus at n blocks — CI
//! uses this for a quick smoke run; local `cargo bench --bench
//! pipeline_core` drives three full passes over the variant grid.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, Criterion};

/// `System`, plus a tally of calls and bytes handed out.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// The one sanctioned unsafe block in the workspace's benches: pure
// delegation to `System` with relaxed counters on the side.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// (allocation calls, bytes) performed by `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    let (a1, b1) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    (out, a1 - a0, b1 - b0)
}

/// The full corpus as (isa, asm text) across all three machines.
fn corpus_text() -> Vec<(isa::Isa, String)> {
    uarch::all_machines()
        .iter()
        .flat_map(|m| {
            kernels::variants_for(m.arch)
                .into_iter()
                .map(|v| (m.isa, kernels::generate(&v, m)))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn parse_pass(blocks: &[(isa::Isa, String)]) -> Vec<isa::Kernel> {
    blocks
        .iter()
        .map(|(isa, asm)| isa::parse_kernel(asm, *isa).expect("corpus parses"))
        .collect()
}

/// The steady-path allocation audit (see module docs).
fn assert_zero_transient_allocations() {
    let blocks = corpus_text();
    // Warm-up: populates the thread-local intern arena.
    let kernels = parse_pass(&blocks);
    let (_, clone_allocs, clone_bytes) = counted(|| kernels.clone());
    let (_, pass2_allocs, pass2_bytes) = counted(|| parse_pass(&blocks));
    let (_, pass3_allocs, pass3_bytes) = counted(|| parse_pass(&blocks));
    eprintln!(
        "[pipeline_core] alloc audit over {} blocks: clone {} allocs / {} B, \
         steady parse {} allocs / {} B (then {} allocs / {} B)",
        blocks.len(),
        clone_allocs,
        clone_bytes,
        pass2_allocs,
        pass2_bytes,
        pass3_allocs,
        pass3_bytes,
    );
    assert_eq!(
        (pass2_allocs, pass2_bytes),
        (pass3_allocs, pass3_bytes),
        "steady-state parse passes must allocate identically — something transient accumulates"
    );
    // Materializing the output structures (deep clone) is the floor; the
    // steady parse may not exceed it by more than a constant per block
    // (arena scratch), i.e. zero *per-instruction* transient clones.
    let slack = 4 * blocks.len() as u64;
    assert!(
        pass2_allocs <= clone_allocs + slack,
        "steady parse allocates {pass2_allocs} vs clone {clone_allocs} (+{slack} slack) — \
         transient per-instruction heap churn is back"
    );
}

fn parse_throughput(c: &mut Criterion) {
    let blocks = corpus_text();
    let insts: usize = parse_pass(&blocks)
        .iter()
        .map(|k| k.instructions.len())
        .sum();
    let mut g = c.benchmark_group("pipeline_core");
    g.sample_size(20);
    g.bench_function(format!("parse/{insts}-insts"), |b| {
        b.iter(|| parse_pass(&blocks).len())
    });
    g.finish();
}

criterion_group!(benches, parse_throughput);

fn main() {
    benches();
    assert_zero_transient_allocations();
    let limit = std::env::var("BENCH_PIPELINE_LIMIT")
        .ok()
        .and_then(|s| s.parse::<usize>().ok());
    let report = bench::pipelinebench::run(limit);
    eprintln!(
        "[pipeline_core] {} {} blocks, byte_identical: {}, peak RSS {:?} kB",
        report.arch, report.blocks, report.byte_identical, report.peak_rss_kb,
    );
    for r in &report.threads {
        eprintln!(
            "[pipeline_core]   {} thread(s): baseline {:>8.1}/s, batch {:>8.1}/s, \
             cold {:>8.1}/s ({:.2}x baseline), warm {:>8.1}/s ({:.2}x cold)",
            r.threads,
            r.baseline_kernels_per_sec,
            r.batch_kernels_per_sec,
            r.cold_kernels_per_sec,
            r.cold_speedup_vs_baseline,
            r.warm_kernels_per_sec,
            r.warm_speedup_vs_cold,
        );
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, report.to_json()).expect("write BENCH_pipeline.json");
    eprintln!("[pipeline_core] wrote {path}");
    assert!(
        report.byte_identical,
        "pipeline paths diverged — caching may not change report bytes"
    );
    // The acceptance gates only bind on the full corpus: tiny smoke
    // corpora (CI) are noise-dominated, so gate on ≥ one grid pass.
    let grid = kernels::variants_for(uarch::Arch::GoldenCove).len();
    if report.blocks >= grid {
        for r in &report.threads {
            assert!(
                r.cold_speedup_vs_baseline >= 2.0,
                "cold pipeline must be ≥2x the pre-PR validate path at {} thread(s): {:.2}x",
                r.threads,
                r.cold_speedup_vs_baseline
            );
            assert!(
                r.warm_speedup_vs_cold >= 10.0,
                "warm cache replay must be ≥10x cold at {} thread(s): {:.2}x",
                r.threads,
                r.warm_speedup_vs_cold
            );
            assert_eq!(
                (r.warm_disk_hits, r.warm_disk_misses),
                (report.blocks as u64, 0),
                "warm run must replay every block from disk"
            );
        }
    }
}

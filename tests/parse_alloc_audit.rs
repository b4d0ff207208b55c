//! Steady-state allocation audit of `isa::parse_kernel` over the full
//! 416-block corpus, counted by a global allocator.
//!
//! After one warm-up pass (which populates the thread-local intern
//! arena), every further pass must allocate an *identical* amount — the
//! interner has converged, nothing transient accumulates — and no more
//! than materializing the output `Kernel` structures themselves costs (a
//! deep clone) plus a constant per block. A regression that reintroduces
//! per-token `String` churn on the steady path fails here before it
//! shows up as a timing drift.
//!
//! The allocator counts every thread of the process, so this binary
//! holds exactly one `#[test]`: no other test's allocations can land
//! inside a counted window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, plus a tally of calls and bytes handed out.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// Pure delegation to `System` with relaxed counters on the side.
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

#[test]
fn steady_parse_passes_allocate_identically_and_no_more_than_a_clone() {
    let blocks = corpus_text();
    assert_eq!(blocks.len(), 416);
    // Warm-up: populates the thread-local intern arena.
    let kernels = parse_pass(&blocks);
    let (_, clone_allocs, clone_bytes) = counted(|| kernels.clone());
    let (_, pass2_allocs, pass2_bytes) = counted(|| parse_pass(&blocks));
    let (_, pass3_allocs, pass3_bytes) = counted(|| parse_pass(&blocks));
    eprintln!(
        "alloc audit over {} blocks: clone {clone_allocs} allocs / {clone_bytes} B, \
         steady parse {pass2_allocs} allocs / {pass2_bytes} B \
         (then {pass3_allocs} allocs / {pass3_bytes} B)",
        blocks.len(),
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

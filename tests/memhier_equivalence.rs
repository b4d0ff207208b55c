//! Equivalence regression for the memory-hierarchy streaming fast path:
//! on store and load streams over every machine model — and on randomized
//! strided patterns over synthetic hierarchies — `access_stream` with
//! `StreamConfig::default()` (steady-state extrapolation) must produce
//! *bit-identical* per-level [`memhier::CacheStats`] and memory
//! [`memhier::Traffic`] to `StreamConfig::reference()` (the per-access
//! oracle). This is the contract that keeps `repro fig4`, `repro table1`,
//! and `incore-cli storebench` byte-identical across the fast-path
//! rewrite. Cold sequential streams are folded onto one congruent
//! sub-hierarchy; the fold gets its own randomized hierarchies below.

use memhier::{Access, Cache, Hierarchy, StreamConfig, StreamPattern, Traffic};
use proptest::prelude::*;

/// Every observable of a hierarchy after a stream: per-level counters plus
/// the memory ledger. All integers, so equality is exact.
fn observables(h: &Hierarchy) -> (Vec<memhier::CacheStats>, Traffic) {
    (h.levels.iter().map(|l| l.stats).collect(), h.mem)
}

/// Run `p` through `h` twice — fast path, then reference — and demand
/// bit-identical observables, both right after the stream and again after
/// a full flush (which exercises the teleported tag state).
fn assert_stream_equivalent(h: &mut Hierarchy, p: StreamPattern, label: &str) {
    let outcome = h.access_stream(p, StreamConfig::default());
    let streamed = observables(h);
    h.flush();
    let flushed = observables(h);

    h.reset();
    let ref_outcome = h.access_stream(p, StreamConfig::reference());
    assert!(
        !ref_outcome.fast_path,
        "{label}: reference took the fast path"
    );
    let ref_streamed = observables(h);
    h.flush();
    let ref_flushed = observables(h);
    h.reset();

    assert_eq!(
        streamed, ref_streamed,
        "{label}: post-stream state diverged"
    );
    assert_eq!(flushed, ref_flushed, "{label}: post-flush state diverged");
    // Long sequential streams must actually hit the closed form — a silent
    // fallback would make this test vacuous.
    if p.stride > 0 && p.count > 0 && outcome.extrapolated == 0 {
        panic!(
            "{label}: steady state never detected (fast_path={})",
            outcome.fast_path
        );
    }
}

/// A stream long enough to reach steady state but short enough for debug
/// builds: ~2.5× the hierarchy's total capacity in lines, plus a ragged
/// tail so the extrapolation's remainder path is exercised.
fn stream_lines(h: &Hierarchy) -> u64 {
    let cap: u64 = h.levels.iter().map(|l| l.capacity_lines()).sum();
    cap * 5 / 2 + 137
}

#[test]
fn store_streams_agree_on_every_machine() {
    for m in uarch::all_machines() {
        for claim in [false, true] {
            let mut h = Hierarchy::from_machine(&m, m.cores);
            h.set_line_claim(claim);
            let line = h.line_bytes();
            let lines = stream_lines(&h);
            assert_stream_equivalent(
                &mut h,
                StreamPattern::store_lines(line, lines),
                &format!("{} stores (claim={claim})", m.arch.label()),
            );
        }
    }
}

#[test]
fn load_streams_agree_on_every_machine() {
    for m in uarch::all_machines() {
        let mut h = Hierarchy::from_machine(&m, m.cores);
        let line = h.line_bytes();
        let lines = stream_lines(&h);
        assert_stream_equivalent(
            &mut h,
            StreamPattern {
                start: 0,
                stride: line,
                count: lines,
                kind: Access::Load,
            },
            &format!("{} loads", m.arch.label()),
        );
    }
}

#[test]
fn nt_store_streams_agree_on_every_machine() {
    for m in uarch::all_machines() {
        for residual in [0.0, 0.05, 0.37, 1.0] {
            let mut h = Hierarchy::from_machine(&m, m.cores);
            let lines = stream_lines(&h);
            h.nt_store_stream(lines, residual, StreamConfig::default());
            let fast = h.mem;
            h.reset();
            h.nt_store_stream(lines, residual, StreamConfig::reference());
            assert_eq!(
                fast,
                h.mem,
                "{} NT stores (residual={residual})",
                m.arch.label()
            );
        }
    }
}

#[test]
fn strided_partial_stores_agree() {
    // A 2-line stride with partial stores: every access misses a different
    // set phase than the sequential case, and partial stores fill (RFO)
    // rather than claim.
    let mut h = Hierarchy::synthetic(4096, 32768, 262144, 64);
    let lines = stream_lines(&h);
    assert_stream_equivalent(
        &mut h,
        StreamPattern {
            start: 192,
            stride: 128,
            count: lines,
            kind: Access::StorePartial,
        },
        "synthetic strided partial stores",
    );
}

#[test]
fn sub_line_strides_fall_back_to_the_reference_loop() {
    // Strides that are not line multiples are ineligible for the closed
    // form; the driver must quietly run the per-access loop and still agree.
    let mut h = Hierarchy::synthetic(4096, 32768, 262144, 64);
    let p = StreamPattern {
        start: 0,
        stride: 24,
        count: 4096,
        kind: Access::Load,
    };
    let outcome = h.access_stream(p, StreamConfig::default());
    assert!(!outcome.fast_path);
    let fast = observables(&h);
    h.reset();
    h.access_stream(p, StreamConfig::reference());
    assert_eq!(fast, observables(&h));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized strided patterns over small synthetic hierarchies:
    /// stride varies over line multiples (including non-power-of-two
    /// multiples, which leave some sets untouched), the start is an
    /// arbitrary line phase, and all three access kinds are covered.
    #[test]
    fn random_strided_streams_agree(
        stride_lines in 1u64..7,
        start_lines in 0u64..64,
        kind_sel in 0u32..3,
        claim_sel in 0u32..2,
        extra in 0u64..500,
    ) {
        let claim = claim_sel == 1;
        let mut h = Hierarchy::synthetic(2048, 16384, 65536, 64);
        h.set_line_claim(claim);
        let kind = match kind_sel {
            0 => Access::Load,
            1 => Access::StoreFullLine,
            _ => Access::StorePartial,
        };
        let cap: u64 = h.levels.iter().map(|l| l.capacity_lines()).sum();
        // Strided streams touch 1/stride of the sets, so scale the length
        // by the stride to pass the warm threshold, plus a ragged tail.
        let count = (cap * 3) * stride_lines + extra;
        let p = StreamPattern {
            start: start_lines * 64,
            stride: stride_lines * 64,
            count,
            kind,
        };
        let fast_outcome = h.access_stream(p, StreamConfig::default());
        let fast = observables(&h);
        h.flush();
        let fast_flushed = observables(&h);
        h.reset();
        h.access_stream(p, StreamConfig::reference());
        let reference = observables(&h);
        h.flush();
        let ref_flushed = observables(&h);
        prop_assert_eq!(fast, reference, "stride={} start={} {:?}", stride_lines, start_lines, kind);
        prop_assert_eq!(fast_flushed, ref_flushed, "flush: stride={} {:?}", stride_lines, kind);
        prop_assert!(fast_outcome.extrapolated > 0,
            "no extrapolation at stride={} count={}", stride_lines, count);
    }
}

fn access_kind(sel: u32) -> Access {
    match sel {
        0 => Access::Load,
        1 => Access::StoreFullLine,
        _ => Access::StorePartial,
    }
}

/// A hierarchy of 64-byte-line levels with the given `(sets, ways)`.
fn hierarchy_of(shape: &[(u64, usize)], claim: bool) -> Hierarchy {
    let mut h = Hierarchy::synthetic(4096, 32768, 262144, 64);
    h.levels = shape
        .iter()
        .map(|&(sets, ways)| Cache::new(sets * ways as u64 * 64, ways, 64))
        .collect();
    h.set_line_claim(claim);
    h
}

/// Two streams and a flush through `h` with `cfg`; the observables after
/// each step, plus the first stream's outcome.
fn two_streams(
    h: &mut Hierarchy,
    first: StreamPattern,
    second: StreamPattern,
    cfg: StreamConfig,
) -> (
    memhier::StreamOutcome,
    Vec<(Vec<memhier::CacheStats>, Traffic)>,
) {
    let outcome = h.access_stream(first, cfg);
    let mut seen = vec![observables(h)];
    h.access_stream(second, cfg);
    seen.push(observables(h));
    h.flush();
    seen.push(observables(h));
    (outcome, seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cold fold on random hierarchies: set counts in any order
    /// (a lower level may have fewer sets than the one above), 1–16 ways,
    /// claim on and off, every access kind, an arbitrary start, and
    /// lengths below `g`, below capacity and past it with a ragged tail.
    /// A second stream on the same hierarchy then exercises the tags,
    /// dirty bits, LRU order and clocks the fold wrote back, and a flush
    /// counts the dirty lines left.
    #[test]
    fn cold_streams_fold_exactly(
        shape in proptest::collection::vec((0u32..7, 1usize..17), 1..4),
        claim_sel in 0u32..2,
        kinds in (0u32..3, 0u32..3),
        start in 0u64..1 << 16,
        len_sel in 0u32..3,
        len_frac in 0u64..1000,
        second_back in 0u64..4096,
        second_stride_lines in 1u64..4,
        second_len in 0u64..2000,
    ) {
        let claim = claim_sel == 1;
        let shape: Vec<(u64, usize)> = shape.iter().map(|&(b, w)| (1u64 << b, w)).collect();
        let g = shape.iter().map(|&(sets, _)| sets).min().unwrap();
        let cap: u64 = shape.iter().map(|&(sets, w)| sets * w as u64).sum();
        let count = match len_sel {
            0 => len_frac % g.max(1),
            1 => len_frac % cap,
            _ => 3 * cap + len_frac,
        };
        let first = StreamPattern { start, stride: 64, count, kind: access_kind(kinds.0) };
        // The second stream starts `second_back` lines before the first
        // one's end, so it revisits the lines the fold wrote back.
        let second = StreamPattern {
            start: (start + count * 64).saturating_sub(second_back * 64),
            stride: 64 * second_stride_lines,
            count: second_len,
            kind: access_kind(kinds.1),
        };
        let mut h = hierarchy_of(&shape, claim);
        let (outcome, fast) = two_streams(&mut h, first, second, StreamConfig::default());
        let mut h = hierarchy_of(&shape, claim);
        let (_, reference) = two_streams(&mut h, first, second, StreamConfig::reference());
        prop_assert_eq!(&fast[0], &reference[0], "after the stream: {:?} {:?}", shape, first);
        prop_assert_eq!(&fast[1], &reference[1], "after a second stream: {:?} {:?}", shape, second);
        prop_assert_eq!(&fast[2], &reference[2], "after flush: {:?}", shape);
        prop_assert_eq!(outcome.folded, g > 1, "g={}", g);
        if outcome.folded {
            // All but the sub-hierarchy's own accesses are applied unseen.
            prop_assert!(outcome.extrapolated + count.div_ceil(g) >= count);
        }
    }
}

#[test]
fn a_warm_hierarchy_is_not_folded_and_still_agrees() {
    let run = |cfg: StreamConfig| {
        let mut h = Hierarchy::synthetic(4096, 32768, 262144, 64);
        // One line anywhere makes the hierarchy warm.
        h.access(1 << 30, Access::Load);
        let lines = stream_lines(&h);
        let outcome = h.access_stream(StreamPattern::store_lines(64, lines), cfg);
        let streamed = observables(&h);
        h.flush();
        (outcome, streamed, observables(&h))
    };
    let (outcome, streamed, flushed) = run(StreamConfig::default());
    assert!(outcome.fast_path && !outcome.folded, "{outcome:?}");
    assert!(outcome.extrapolated > 0, "the detector still extrapolates");
    let (_, ref_streamed, ref_flushed) = run(StreamConfig::reference());
    assert_eq!(streamed, ref_streamed);
    assert_eq!(flushed, ref_flushed);
}

//! Exact streaming fast path.
//!
//! The Fig. 4 and bandwidth sweeps push multi-megabyte strided streams
//! through [`crate::Hierarchy`] one access at a time. Two exact
//! shortcuts replace most of those accesses; every counter —
//! `CacheStats`, `Traffic` — stays bit-identical to the per-access path.
//!
//! **Steady-state extrapolation.** For a constant stride the hierarchy is
//! *translation invariant*: shifting every address by a multiple of
//! `sets × line_bytes` of every level maps reachable states onto each
//! other without changing any counter delta. So once the warmed-up state
//! at access `i` equals the state at access `i − P` shifted by
//! `P × stride` (where `P` makes `P × stride` a multiple of every level's
//! set span), every subsequent period contributes *exactly* the same
//! stat deltas — and we can add `whole_periods × delta` in closed form,
//! simulate only the tail, and teleport the tags so the final state
//! (including the dirty-line census that [`crate::Hierarchy::flush`]
//! takes) behaves exactly like the per-access path's. "Equals" here is
//! observational: absolute LRU stamps and which way a line occupies are
//! invisible to every future access (replacement compares stamps within
//! a set; lookups scan all ways), and way assignment genuinely rotates
//! between periods, so the detector compares each set as its
//! victim-key-ordered sequence of `(valid, dirty, tag)`. The state
//! cannot repeat while a level still has invalid lines, so the detector
//! first looks after `capacity + period` accesses.
//!
//! **The cold fold.** That warm-up is the whole cost of a cold stream,
//! and a cold stream of consecutive lines (stride = the one line size of
//! every level) skips most of it. Let `g` be the smallest set count of
//! any level. Set counts are powers of two, so `g` divides each of them,
//! and the sets `≡ q (mod g)` of every level form a closed
//! sub-hierarchy: a line `≡ q` maps to such a set at every level, a
//! victim shares its set with the line that displaced it, and fills and
//! writebacks carry a line's own address down, so no event of class `q`
//! ever touches another class's sets. Each class is a copy of one
//! hierarchy `H'` whose levels have `sets / g` sets and the same ways and
//! claim setting: its `k`-th line in stream order is `H'` line `k`, and
//! `H'` sets and tags follow from that. A cold state has no lines to
//! tell one start address from another, so every class of a cold stream
//! runs exactly like `H'` fed lines `0, 1, 2, …` — the first `n mod g`
//! classes for `⌊n/g⌋ + 1` lines, the rest for `⌊n/g⌋`. The driver runs
//! `H'` once (through the steady-state detector), copies it after
//! `⌊n/g⌋` lines, gives it one more line, adds each counter as
//! `(g − b)·X(a) + b·X(a + 1)`, and writes both states back into the
//! full hierarchy's sets (`Cache::unfold`). Warm hierarchies, other
//! strides and mixed line sizes take the detector alone.
//!
//! Both shortcuts also advance each level's clock by the events they
//! skip, so the state they leave — tags, dirty bits, each set's LRU
//! order and the clocks — is the per-access path's, and later streams,
//! accesses and flushes cannot tell the difference.
//!
//! The per-access path is retained behind [`StreamConfig::reference`]
//! as the oracle; `tests/memhier_equivalence.rs` and `bench::ratios`
//! assert bit-equality on every run.

use crate::cache::{Access, Cache, CacheStats, Line};
use crate::hierarchy::{Hierarchy, Traffic};

/// A constant-stride access stream: `count` accesses of `kind` at
/// `start, start + stride, …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPattern {
    pub start: u64,
    pub stride: u64,
    pub count: u64,
    pub kind: Access,
}

impl StreamPattern {
    /// Sequential full-line stores over `lines` lines of `line_bytes`
    /// each — the pattern the write-allocate benchmarks issue.
    pub fn store_lines(line_bytes: u64, lines: u64) -> StreamPattern {
        StreamPattern {
            start: 0,
            stride: line_bytes,
            count: lines,
            kind: Access::StoreFullLine,
        }
    }

    fn addr(&self, i: u64) -> u64 {
        self.start + i * self.stride
    }
}

/// Options for [`crate::Hierarchy::access_stream`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamConfig {
    /// Force the per-access oracle path (no steady-state extrapolation).
    pub reference: bool,
}

impl StreamConfig {
    pub fn reference() -> StreamConfig {
        StreamConfig { reference: true }
    }
}

/// What the stream driver did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamOutcome {
    /// The fast path was eligible for this pattern (stride a multiple of
    /// every line size). `false` means the oracle loop ran.
    pub fast_path: bool,
    /// The cold stream was folded onto one of `g` congruent
    /// sub-hierarchies (see the module doc).
    pub folded: bool,
    /// Accesses of the stream whose effect was applied without
    /// simulating them one at a time (0 if the stream ended before steady
    /// state was seen and was not folded).
    pub extrapolated: u64,
}

/// Reusable snapshot buffers so repeated streams allocate nothing.
#[derive(Debug, Default)]
pub struct MemScratch {
    lines: Vec<Vec<Line>>,
    stats: Vec<CacheStats>,
    clocks: Vec<u64>,
    mem: Traffic,
    rank_cur: Vec<usize>,
    rank_old: Vec<usize>,
}

/// The two shapes the driver runs against: a full hierarchy or a lone
/// cache level. Only what the steady-state machinery and the fold need.
pub(crate) trait StreamSink: Clone {
    fn access_one(&mut self, addr: u64, kind: Access);
    /// A cold copy whose levels have `sets / g` sets each.
    fn folded(&self, g: u64) -> Self;
    fn num_levels(&self) -> usize;
    fn level(&self, i: usize) -> &Cache;
    fn level_mut(&mut self, i: usize) -> &mut Cache;
    fn mem(&self) -> Traffic;
    fn mem_add_scaled(&mut self, delta: Traffic, k: u64);
}

impl StreamSink for Hierarchy {
    fn access_one(&mut self, addr: u64, kind: Access) {
        self.access(addr, kind);
    }
    fn folded(&self, g: u64) -> Hierarchy {
        Hierarchy::folded(self, g)
    }
    fn num_levels(&self) -> usize {
        self.levels.len()
    }
    fn level(&self, i: usize) -> &Cache {
        &self.levels[i]
    }
    fn level_mut(&mut self, i: usize) -> &mut Cache {
        &mut self.levels[i]
    }
    fn mem(&self) -> Traffic {
        self.mem
    }
    fn mem_add_scaled(&mut self, delta: Traffic, k: u64) {
        self.mem.read_bytes += delta.read_bytes * k;
        self.mem.write_bytes += delta.write_bytes * k;
    }
}

impl StreamSink for Cache {
    fn access_one(&mut self, addr: u64, kind: Access) {
        self.access(addr, kind);
    }
    fn folded(&self, g: u64) -> Cache {
        Cache::folded(self, g)
    }
    fn num_levels(&self) -> usize {
        1
    }
    fn level(&self, _i: usize) -> &Cache {
        self
    }
    fn level_mut(&mut self, _i: usize) -> &mut Cache {
        self
    }
    fn mem(&self) -> Traffic {
        Traffic::default()
    }
    fn mem_add_scaled(&mut self, _delta: Traffic, _k: u64) {}
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn sub_stats(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        loads: a.loads - b.loads,
        stores: a.stores - b.stores,
        load_misses: a.load_misses - b.load_misses,
        store_misses: a.store_misses - b.store_misses,
        claims: a.claims - b.claims,
        writebacks: a.writebacks - b.writebacks,
    }
}

fn take_snapshot<S: StreamSink>(sink: &S, s: &mut MemScratch) {
    let n = sink.num_levels();
    s.lines.resize_with(n, Vec::new);
    s.stats.clear();
    s.clocks.clear();
    for i in 0..n {
        sink.level(i).snapshot_into(&mut s.lines[i]);
        s.stats.push(sink.level(i).stats);
        s.clocks.push(sink.level(i).clock);
    }
    s.mem = sink.mem();
}

fn matches_snapshot<S: StreamSink>(sink: &S, s: &mut MemScratch, period_bytes: u64) -> bool {
    for i in 0..sink.num_levels() {
        let l = sink.level(i);
        let shift_lines = period_bytes / l.line_bytes();
        if !l.matches_shifted(&s.lines[i], shift_lines, &mut s.rank_cur, &mut s.rank_old) {
            return false;
        }
    }
    true
}

/// Run `p` against `sink`, extrapolating once a steady period is seen.
/// Bit-identical to issuing every access through `access_one`.
///
/// When the [`obs`] recorder is on, the per-level counter deltas and the
/// fast-path-vs-oracle attribution of this one stream are emitted after
/// the run; the disabled cost is a single atomic load.
pub(crate) fn run_stream<S: StreamSink>(
    sink: &mut S,
    p: StreamPattern,
    cfg: StreamConfig,
    s: &mut MemScratch,
) -> StreamOutcome {
    if !obs::enabled() {
        return run_stream_inner(sink, p, cfg, s);
    }
    let _span = obs::span("memhier:stream");
    let pre: Vec<CacheStats> = (0..sink.num_levels())
        .map(|i| sink.level(i).stats)
        .collect();
    let pre_mem = sink.mem();
    let out = run_stream_inner(sink, p, cfg, s);
    obs::counter("mem.stream.calls", 1);
    obs::counter(
        if out.fast_path {
            "mem.stream.fast_path"
        } else {
            "mem.stream.oracle"
        },
        1,
    );
    obs::counter("mem.stream.folded", out.folded as u64);
    obs::counter("mem.stream.accesses", p.count);
    obs::counter("mem.stream.extrapolated", out.extrapolated);
    for (i, before) in pre.iter().enumerate() {
        let d = sub_stats(sink.level(i).stats, *before);
        let l = i + 1;
        obs::counter(&format!("mem.l{l}.loads"), d.loads);
        obs::counter(&format!("mem.l{l}.stores"), d.stores);
        obs::counter(&format!("mem.l{l}.load_misses"), d.load_misses);
        obs::counter(&format!("mem.l{l}.store_misses"), d.store_misses);
        obs::counter(&format!("mem.l{l}.claims"), d.claims);
        obs::counter(&format!("mem.l{l}.writebacks"), d.writebacks);
    }
    obs::counter("mem.read_bytes", sink.mem().read_bytes - pre_mem.read_bytes);
    obs::counter(
        "mem.write_bytes",
        sink.mem().write_bytes - pre_mem.write_bytes,
    );
    out
}

fn run_stream_inner<S: StreamSink>(
    sink: &mut S,
    p: StreamPattern,
    cfg: StreamConfig,
    s: &mut MemScratch,
) -> StreamOutcome {
    let eligible = !cfg.reference
        && p.stride > 0
        && sink.num_levels() > 0
        && (0..sink.num_levels()).all(|i| p.stride.is_multiple_of(sink.level(i).line_bytes()));
    if !eligible {
        for i in 0..p.count {
            sink.access_one(p.addr(i), p.kind);
        }
        return StreamOutcome::default();
    }
    if let Some(out) = run_folded(sink, p, s) {
        return out;
    }
    run_detected(sink, p, s)
}

/// The cold fold of the module doc, or `None` when it does not apply:
/// some level holds a valid line, the levels' line sizes differ, the
/// stride is not one line, or a level has a single set.
fn run_folded<S: StreamSink>(
    sink: &mut S,
    p: StreamPattern,
    s: &mut MemScratch,
) -> Option<StreamOutcome> {
    let levels = 0..sink.num_levels();
    let line = p.stride;
    let g = levels.clone().map(|i| sink.level(i).sets()).min()?;
    if g < 2
        || levels.clone().any(|i| sink.level(i).line_bytes() != line)
        || !levels.clone().all(|i| sink.level(i).is_cold())
    {
        return None;
    }
    let (a, b) = (p.count / g, p.count % g);
    let mut short = sink.folded(g);
    let sub = run_detected(
        &mut short,
        StreamPattern {
            start: 0,
            count: a,
            ..p
        },
        s,
    );
    let long = (b > 0).then(|| {
        let mut long = short.clone();
        long.access_one(a * line, p.kind);
        long
    });
    let long = long.as_ref().unwrap_or(&short);
    let first_line = p.start / line;
    for i in levels {
        sink.level_mut(i)
            .unfold(first_line, b, short.level(i), long.level(i));
    }
    sink.mem_add_scaled(short.mem(), g - b);
    sink.mem_add_scaled(long.mem(), b);
    let simulated = a - sub.extrapolated + u64::from(b > 0);
    Some(StreamOutcome {
        fast_path: true,
        folded: true,
        extrapolated: p.count - simulated,
    })
}

/// The steady-state detector: simulate until a period repeats, then
/// extrapolate the whole periods left.
fn run_detected<S: StreamSink>(
    sink: &mut S,
    p: StreamPattern,
    s: &mut MemScratch,
) -> StreamOutcome {
    // Smallest P (in accesses) such that P × stride is a multiple of
    // every level's set span — set spans are powers of two, so the lcm
    // of the per-level periods is just their max.
    let period = (0..sink.num_levels())
        .map(|i| {
            let l = sink.level(i);
            let span = l.sets() * l.line_bytes();
            span / gcd(p.stride, span)
        })
        .max()
        .expect("at least one level");
    // Don't bother comparing before every line can have been touched
    // once: each access claims at most one new line per level, so the
    // state cannot be periodic before `capacity` accesses.
    let capacity: u64 = (0..sink.num_levels())
        .map(|i| sink.level(i).capacity_lines())
        .sum();
    let warm = capacity + period;
    let period_bytes = period * p.stride;
    let mut have_snapshot_at = u64::MAX;
    let mut i = 0u64;
    while i < p.count {
        sink.access_one(p.addr(i), p.kind);
        i += 1;
        if !i.is_multiple_of(period) || i < warm || p.count - i < 2 * period {
            continue;
        }
        if have_snapshot_at == i - period && matches_snapshot(sink, s, period_bytes) {
            let remaining = p.count - i;
            let whole = remaining / period;
            let tail = remaining % period;
            // Per-period deltas, captured before the tail runs.
            let dstats: Vec<CacheStats> = (0..sink.num_levels())
                .map(|l| sub_stats(sink.level(l).stats, s.stats[l]))
                .collect();
            let dclocks: Vec<u64> = (0..sink.num_levels())
                .map(|l| sink.level(l).clock - s.clocks[l])
                .collect();
            let dmem = Traffic {
                read_bytes: sink.mem().read_bytes - s.mem.read_bytes,
                write_bytes: sink.mem().write_bytes - s.mem.write_bytes,
            };
            // The tail is simulated with its *true* addresses from the
            // current state; the skipped whole periods commute with it
            // because per-access deltas are now P-periodic.
            for j in 0..tail {
                sink.access_one(p.addr(i + j), p.kind);
            }
            for (l, d) in dstats.iter().enumerate() {
                sink.level_mut(l).stats.add_scaled(*d, whole);
            }
            sink.mem_add_scaled(dmem, whole);
            for (l, dclock) in dclocks.iter().enumerate() {
                let shift_lines = whole * (period_bytes / sink.level(l).line_bytes());
                let level = sink.level_mut(l);
                level.shift_tags(shift_lines);
                // The clock counts every event, skipped periods included.
                level.clock += dclock * whole;
            }
            return StreamOutcome {
                fast_path: true,
                folded: false,
                extrapolated: whole * period,
            };
        }
        take_snapshot(sink, s);
        have_snapshot_at = i;
    }
    StreamOutcome {
        fast_path: true,
        ..StreamOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fast path leaves the oracle's state, not only its counters:
    /// the stats, the clock and every set's lines in victim order.
    fn assert_same_level(f: &Cache, r: &Cache, label: &str) {
        let (mut lines, mut a, mut b) = (Vec::new(), Vec::new(), Vec::new());
        assert_eq!(f.stats, r.stats, "{label}");
        assert_eq!(f.clock, r.clock, "{label}");
        r.snapshot_into(&mut lines);
        assert!(
            f.matches_shifted(&lines, 0, &mut a, &mut b),
            "{label}: {:?}",
            f.debug_mismatch(&lines, 0)
        );
    }

    fn assert_same_state(fast: &Hierarchy, reference: &Hierarchy, label: &str) {
        for (f, r) in fast.levels.iter().zip(&reference.levels) {
            assert_same_level(f, r, label);
        }
        assert_eq!(fast.mem, reference.mem, "{label}");
    }

    #[test]
    fn a_lone_cache_folds_exactly() {
        for (sets, ways) in [(1u64, 4usize), (8, 2), (64, 16)] {
            for count in [0, 3, 100, 5000] {
                for kind in [Access::Load, Access::StoreFullLine] {
                    let run = |cfg: StreamConfig| {
                        let mut c = Cache::new(sets * ways as u64 * 64, ways, 64);
                        let p = StreamPattern {
                            start: 5 * 64,
                            stride: 64,
                            count,
                            kind,
                        };
                        let out = c.access_stream(p, cfg);
                        (c, out)
                    };
                    let (fast, out) = run(StreamConfig::default());
                    let (reference, _) = run(StreamConfig::reference());
                    let label = format!("{sets}x{ways} {count} {kind:?}");
                    assert_eq!(out.folded, sets > 1, "{label}");
                    assert_same_level(&fast, &reference, &label);
                }
            }
        }
    }

    #[test]
    fn fast_paths_leave_the_oracles_lines_and_clocks() {
        // (sets, ways) per level; the second shape has an L2 with fewer
        // sets than its L1.
        let shapes: [[(u64, usize); 3]; 2] =
            [[(4, 2), (16, 4), (64, 8)], [(16, 4), (4, 8), (32, 16)]];
        let kinds = [Access::Load, Access::StoreFullLine, Access::StorePartial];
        for shape in shapes {
            let cap: u64 = shape.iter().map(|&(s, w)| s * w as u64).sum();
            for count in [0, 5, 100, 3 * cap + 37] {
                for kind in kinds {
                    for (claim, warm, start) in [
                        (false, false, 0),
                        (true, false, 7 * 64 + 5),
                        (false, true, 3 * 64),
                        (true, true, 0),
                    ] {
                        let run = |cfg: StreamConfig| {
                            let mut h = Hierarchy::synthetic(4096, 32768, 262144, 64);
                            h.levels = shape
                                .iter()
                                .map(|&(s, w)| Cache::new(s * w as u64 * 64, w, 64))
                                .collect();
                            h.set_line_claim(claim);
                            if warm {
                                h.access(1 << 30, Access::StorePartial);
                            }
                            let p = StreamPattern {
                                start,
                                stride: 64,
                                count,
                                kind,
                            };
                            let out = h.access_stream(p, cfg);
                            (h, out)
                        };
                        let (fast, out) = run(StreamConfig::default());
                        let (reference, _) = run(StreamConfig::reference());
                        let label = format!("{shape:?} {count} {kind:?} {claim} {warm} {start}");
                        assert_eq!(out.folded, !warm, "{label}");
                        assert_same_state(&fast, &reference, &label);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;

    #[test]
    #[ignore]
    fn diagnose_spr_steady_state() {
        let m = uarch::Machine::golden_cove();
        let mut h = Hierarchy::from_machine(&m, m.cores);
        let line = h.line_bytes();
        let p = StreamPattern::store_lines(line, 300_000);
        let mut s = MemScratch::default();
        let period: u64 = (0..h.num_levels())
            .map(|i| {
                let l = h.level(i);
                let span = l.sets() * l.line_bytes();
                span / gcd(p.stride, span)
            })
            .max()
            .unwrap();
        let capacity: u64 = (0..h.num_levels())
            .map(|i| h.level(i).capacity_lines())
            .sum();
        eprintln!("period={period} capacity={capacity}");
        let period_bytes = period * p.stride;
        let mut have = false;
        for i in 0..p.count {
            h.access(p.addr(i), p.kind);
            let i = i + 1;
            if !i.is_multiple_of(period) || i < capacity + period {
                continue;
            }
            if have {
                let mut all_ok = true;
                for l in 0..h.num_levels() {
                    let lv = h.level(l);
                    let shift_lines = period_bytes / lv.line_bytes();
                    let detail = lv.debug_mismatch(&s.lines[l], shift_lines);
                    if let Some(d) = detail {
                        all_ok = false;
                        eprintln!("i={i}: level {l}: {d}");
                    }
                }
                if all_ok {
                    eprintln!("i={i}: MATCH");
                    return;
                }
                if i > capacity + 6 * period {
                    eprintln!("giving up at i={i}");
                    return;
                }
            }
            take_snapshot(&h, &mut s);
            have = true;
        }
    }
}

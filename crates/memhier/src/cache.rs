//! Set-associative write-back cache with LRU replacement.

/// Kind of access presented to a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Data read.
    Load,
    /// Store that overwrites the full cache line (streaming stores always
    /// do; the automatic line-claim detector keys on this).
    StoreFullLine,
    /// Store that modifies part of a line (must read-for-ownership).
    StorePartial,
}

/// What a cache level asked of the next level as a result of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Downstream {
    /// Line fill requested (read miss or RFO).
    pub fill: bool,
    /// Dirty line written back during eviction.
    pub writeback: bool,
    /// Line address of the written-back victim (valid when `writeback`).
    pub writeback_addr: u64,
}

/// Event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub loads: u64,
    pub stores: u64,
    pub load_misses: u64,
    pub store_misses: u64,
    /// Store misses satisfied by claiming the line without a fill.
    pub claims: u64,
    pub writebacks: u64,
}

impl CacheStats {
    pub fn misses(&self) -> u64 {
        self.load_misses + self.store_misses
    }
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Add `k × d` to every counter.
    pub(crate) fn add_scaled(&mut self, d: CacheStats, k: u64) {
        self.loads += d.loads * k;
        self.stores += d.stores * k;
        self.load_misses += d.load_misses * k;
        self.store_misses += d.store_misses * k;
        self.claims += d.claims * k;
        self.writebacks += d.writebacks * k;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Line {
    pub(crate) tag: u64,
    pub(crate) valid: bool,
    pub(crate) dirty: bool,
    /// LRU stamp; larger = more recent.
    pub(crate) lru: u64,
}

/// An invalid way, as every way starts.
const COLD: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// The geometry a cache construction actually realizes: the number of
/// sets is rounded *down* to a power of two, which can silently shrink
/// the effective capacity below the declared size (by up to ~2×). Expose
/// it so callers — and the `M007` lint — can see the distortion instead
/// of discovering it in skewed miss rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    pub sets: u64,
    pub assoc: usize,
    pub line_bytes: u64,
}

impl Geometry {
    /// Effective capacity after set rounding.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets * self.assoc as u64 * self.line_bytes
    }

    /// Effective capacity in cache lines.
    pub fn capacity_lines(&self) -> u64 {
        self.sets * self.assoc as u64
    }
}

/// The geometry [`Cache::new`] would realize for a declared size. The
/// declared size is representable exactly iff
/// `capacity_bytes() == size_bytes`.
pub fn realized_geometry(size_bytes: u64, assoc: usize, line_bytes: u64) -> Geometry {
    let num_lines = (size_bytes / line_bytes).max(assoc as u64);
    let raw_sets = (num_lines / assoc as u64).max(1);
    // Round *down* to a power of two so the set-index mask works.
    let sets = if raw_sets.is_power_of_two() {
        raw_sets
    } else {
        raw_sets.next_power_of_two() / 2
    };
    Geometry {
        sets,
        assoc,
        line_bytes,
    }
}

/// One set-associative cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Every set's ways, set after set: set `i` is
    /// `lines[i * assoc..(i + 1) * assoc]`.
    lines: Vec<Line>,
    assoc: usize,
    line_bytes: u64,
    set_shift: u32,
    set_mask: u64,
    /// Events seen (accesses and insertions); the next LRU stamp.
    pub(crate) clock: u64,
    /// Whether full-line store misses claim the line without a fill
    /// (write-allocate evasion by cache-line claim).
    pub line_claim: bool,
    pub stats: CacheStats,
}

impl Cache {
    /// Create a cache of `size_bytes` with `assoc` ways and `line_bytes`
    /// lines. `size_bytes` is rounded down to a whole number of sets —
    /// see [`realized_geometry`] for the effective shape.
    pub fn new(size_bytes: u64, assoc: usize, line_bytes: u64) -> Cache {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let num_sets = realized_geometry(size_bytes, assoc, line_bytes).sets;
        Cache {
            lines: vec![COLD; num_sets as usize * assoc],
            assoc,
            line_bytes,
            set_shift: line_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            clock: 0,
            line_claim: false,
            stats: CacheStats::default(),
        }
    }

    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    fn set_of(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.set_shift;
        (
            (line_addr & self.set_mask) as usize,
            line_addr >> self.set_bits(),
        )
    }

    fn set_bits(&self) -> u32 {
        self.set_mask.trailing_ones()
    }

    /// Reconstruct the byte address of a line from its set and tag.
    fn addr_of(&self, set_idx: usize, tag: u64) -> u64 {
        ((tag << self.set_bits()) | set_idx as u64) << self.set_shift
    }

    /// Perform an access; returns what was requested downstream.
    pub fn access(&mut self, addr: u64, kind: Access) -> Downstream {
        self.clock += 1;
        let clock = self.clock;
        let (set_idx, tag) = self.set_of(addr);
        let set = &mut self.lines[set_idx * self.assoc..(set_idx + 1) * self.assoc];
        let is_store = kind != Access::Load;
        if is_store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }

        // Hit?
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = clock;
            if is_store {
                line.dirty = true;
            }
            return Downstream::default();
        }

        // Miss: account, then find a victim.
        if is_store {
            self.stats.store_misses += 1;
        } else {
            self.stats.load_misses += 1;
        }
        let victim_idx = (0..set.len())
            .min_by_key(|&w| if set[w].valid { set[w].lru } else { 0 })
            .expect("cache has at least one way");
        let victim = &mut set[victim_idx];
        let mut down = Downstream::default();
        if victim.valid && victim.dirty {
            down.writeback = true;
            down.writeback_addr = {
                let tag = victim.tag;
                // Borrow ends before we call addr_of via a scoped copy.
                tag
            };
            self.stats.writebacks += 1;
        }
        // Fill or claim.
        let claim = self.line_claim && kind == Access::StoreFullLine;
        if claim {
            self.stats.claims += 1;
        } else {
            down.fill = true;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: is_store,
            lru: clock,
        };
        if down.writeback {
            down.writeback_addr = self.addr_of(set_idx, down.writeback_addr);
        }
        down
    }

    /// Insert a clean line (prefetch fill) without touching the demand
    /// counters. Returns `(was_already_present, displaced_dirty_victim)`.
    pub fn prefetch_insert(&mut self, addr: u64) -> (bool, Option<u64>) {
        self.clock += 1;
        let clock = self.clock;
        let (set_idx, tag) = self.set_of(addr);
        let set = &mut self.lines[set_idx * self.assoc..(set_idx + 1) * self.assoc];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = clock;
            return (true, None);
        }
        let victim_idx = (0..set.len())
            .min_by_key(|&w| if set[w].valid { set[w].lru } else { 0 })
            .expect("cache has at least one way");
        let victim = set[victim_idx];
        set[victim_idx] = Line {
            tag,
            valid: true,
            dirty: false,
            lru: clock,
        };
        let displaced = (victim.valid && victim.dirty).then(|| {
            self.stats.writebacks += 1;
            self.addr_of(set_idx, victim.tag)
        });
        (false, displaced)
    }

    /// Insert a written-back line from an upper level: allocate it dirty
    /// *without* fetching from below (a writeback carries the full line).
    /// Returns the address of a dirty victim this insertion displaced, if
    /// any.
    pub fn writeback_insert(&mut self, addr: u64) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        let (set_idx, tag) = self.set_of(addr);
        let set = &mut self.lines[set_idx * self.assoc..(set_idx + 1) * self.assoc];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.dirty = true;
            line.lru = clock;
            return None;
        }
        let victim_idx = (0..set.len())
            .min_by_key(|&w| if set[w].valid { set[w].lru } else { 0 })
            .expect("cache has at least one way");
        let victim = set[victim_idx];
        set[victim_idx] = Line {
            tag,
            valid: true,
            dirty: true,
            lru: clock,
        };
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            Some(self.addr_of(set_idx, victim.tag))
        } else {
            None
        }
    }

    /// Flush all dirty lines, counting writebacks. Returns how many lines
    /// were written back.
    pub fn flush(&mut self) -> u64 {
        let mut wb = 0;
        for line in &mut self.lines {
            if line.valid && line.dirty {
                wb += 1;
            }
            line.valid = false;
            line.dirty = false;
        }
        self.stats.writebacks += wb;
        wb
    }

    /// Number of ways.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.lines.len() / self.assoc
    }

    /// Number of sets (u64, for address arithmetic).
    pub fn sets(&self) -> u64 {
        self.num_sets() as u64
    }

    /// Realized geometry of this cache.
    pub fn geometry(&self) -> Geometry {
        Geometry {
            sets: self.sets(),
            assoc: self.assoc(),
            line_bytes: self.line_bytes,
        }
    }

    /// Effective capacity in bytes after set rounding.
    pub fn capacity_bytes(&self) -> u64 {
        self.geometry().capacity_bytes()
    }

    /// Effective capacity in cache lines.
    pub fn capacity_lines(&self) -> u64 {
        self.geometry().capacity_lines()
    }

    /// Return the cache to its just-constructed state (cold lines, zeroed
    /// counters) without reallocating the line array.
    pub fn reset(&mut self) {
        self.lines.fill(COLD);
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    /// No line is valid: the state right after [`Self::new`],
    /// [`Self::reset`] or [`Self::flush`].
    pub(crate) fn is_cold(&self) -> bool {
        self.lines.iter().all(|l| !l.valid)
    }

    /// A cold cache with `sets / g` sets and this one's ways, line size
    /// and claim setting: the shape of one of the `g` congruent
    /// sub-caches that [`crate::stream`]'s fold simulates.
    pub(crate) fn folded(&self, g: u64) -> Cache {
        let assoc = self.assoc();
        let bytes = self.sets() / g * assoc as u64 * self.line_bytes;
        let mut c = Cache::new(bytes, assoc, self.line_bytes);
        c.line_claim = self.line_claim;
        c
    }

    /// Install the end state of the `g` congruent sub-caches of this
    /// (cold) cache after a stream of consecutive lines from
    /// `first_line`, and add their counters. `short` and `long` are one
    /// [`Self::folded`] cache after `a` and after `a + 1` of its own
    /// lines `0, 1, …`; the first `split` residue classes in stream order
    /// received `a + 1` lines, the rest `a`.
    ///
    /// Sub-cache line `k` of the class of rank `r` is line
    /// `first_line + r + g·k` here, so sub-set `s'` of that class is set
    /// `(first_line + r + g·s') mod sets` and every tag there moves by
    /// `⌊(first_line + r + g·s') / sets⌋`. Ways keep their positions and
    /// LRU stamps keep their order within each set; the clock advances by
    /// the sub-caches' events, so it counts every event of the stream and
    /// stays past every stamp.
    pub(crate) fn unfold(&mut self, first_line: u64, split: u64, short: &Cache, long: &Cache) {
        let g = self.sets() / short.sets();
        let (assoc, set_bits) = (self.assoc, self.set_bits());
        for j in 0..self.sets() {
            let src = if j % g < split { long } else { short };
            let line = first_line + j;
            let tag_shift = line >> set_bits;
            let dst = (line & self.set_mask) as usize * assoc;
            let from = (j / g) as usize * assoc;
            let dst = &mut self.lines[dst..dst + assoc];
            for (d, l) in dst.iter_mut().zip(&src.lines[from..from + assoc]) {
                *d = if l.valid {
                    Line {
                        tag: l.tag + tag_shift,
                        ..*l
                    }
                } else {
                    *l
                };
            }
        }
        self.stats.add_scaled(short.stats, g - split);
        self.stats.add_scaled(long.stats, split);
        self.clock += (g - split) * short.clock + split * long.clock;
    }

    /// Copy the full line state into `buf` (reused across snapshots).
    pub(crate) fn snapshot_into(&self, buf: &mut Vec<Line>) {
        buf.clear();
        buf.extend_from_slice(&self.lines);
    }

    /// Does the current state equal `snap` advanced by `shift_lines` line
    /// addresses? `shift_lines` must be a multiple of the set count, so the
    /// shift moves every line by a whole tag increment within its own set.
    ///
    /// Equality is up to everything future accesses cannot observe:
    /// absolute LRU stamps (replacement only compares stamps *within* a
    /// set) and the way a line happens to occupy (lookups scan all ways;
    /// the victim is picked by stamp, not position — and way assignment
    /// genuinely rotates when fills-per-period isn't a multiple of the
    /// associativity). So each set is compared as its sequence of
    /// `(valid, dirty, tag)` ordered by the victim-selection key.
    pub(crate) fn matches_shifted(
        &self,
        snap: &[Line],
        shift_lines: u64,
        rank_cur: &mut Vec<usize>,
        rank_old: &mut Vec<usize>,
    ) -> bool {
        if snap.len() != self.lines.len() {
            return false;
        }
        debug_assert!(shift_lines.is_multiple_of(self.sets()));
        let tag_shift = shift_lines / self.sets();
        for (set, old) in self.lines.chunks(self.assoc).zip(snap.chunks(self.assoc)) {
            lru_rank(set, rank_cur);
            lru_rank(old, rank_old);
            for (&wc, &wo) in rank_cur.iter().zip(rank_old.iter()) {
                let (cur, o) = (&set[wc], &old[wo]);
                if cur.valid != o.valid || cur.dirty != o.dirty {
                    return false;
                }
                if cur.valid && cur.tag != o.tag + tag_shift {
                    return false;
                }
            }
        }
        true
    }

    /// Present a whole constant-stride stream to this level alone,
    /// taking the exact fast paths of [`crate::stream`] (the cold fold and
    /// the steady-state extrapolation) when the stride is a multiple of
    /// the line size. `stats` end up bit-identical to calling
    /// [`Self::access`] per element; downstream requests are discarded
    /// either way.
    pub fn access_stream(
        &mut self,
        p: crate::stream::StreamPattern,
        cfg: crate::stream::StreamConfig,
    ) -> crate::stream::StreamOutcome {
        let mut scratch = crate::stream::MemScratch::default();
        crate::stream::run_stream(self, p, cfg, &mut scratch)
    }

    /// Diagnostic twin of `matches_shifted`: first mismatch, described.
    #[cfg(test)]
    pub(crate) fn debug_mismatch(&self, snap: &[Line], shift_lines: u64) -> Option<String> {
        let tag_shift = shift_lines / self.sets();
        let mut ra = Vec::new();
        let mut rb = Vec::new();
        let sets = self.lines.chunks(self.assoc).zip(snap.chunks(self.assoc));
        for (si, (set, old)) in sets.enumerate() {
            lru_rank(set, &mut ra);
            lru_rank(old, &mut rb);
            for (k, (&wc, &wo)) in ra.iter().zip(rb.iter()).enumerate() {
                let (cur, o) = (&set[wc], &old[wo]);
                if cur.valid != o.valid {
                    return Some(format!(
                        "set {si} rank {k}: valid {} vs {}",
                        cur.valid, o.valid
                    ));
                }
                if cur.dirty != o.dirty {
                    return Some(format!(
                        "set {si} rank {k}: dirty {} vs {}",
                        cur.dirty, o.dirty
                    ));
                }
                if cur.valid && cur.tag != o.tag + tag_shift {
                    return Some(format!(
                        "set {si} rank {k}: tag {} vs {}+{tag_shift}",
                        cur.tag, o.tag
                    ));
                }
            }
        }
        None
    }

    /// Advance every valid tag by `shift_lines / sets` tag units: the
    /// teleport that makes the post-extrapolation state identical to what
    /// per-access simulation would have produced (LRU stamps keep their
    /// order, which is all replacement and `flush` ever observe).
    pub(crate) fn shift_tags(&mut self, shift_lines: u64) {
        debug_assert!(shift_lines.is_multiple_of(self.sets()));
        let tag_shift = shift_lines / self.sets();
        for line in &mut self.lines {
            if line.valid {
                line.tag += tag_shift;
            }
        }
    }
}

/// Way indices of `lines` sorted by the victim-selection key
/// (`if valid { lru } else { 0 }`); the sort is stable, so ties among
/// invalid ways break by index exactly like the victim `min_by_key` scan.
fn lru_rank(lines: &[Line], out: &mut Vec<usize>) {
    out.clear();
    out.extend(0..lines.len());
    out.sort_by_key(|&w| if lines[w].valid { lines[w].lru } else { 0 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 8 sets × 2 ways × 64 B = 1 KiB.
        Cache::new(1024, 2, 64)
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.assoc(), 2);
        assert_eq!(c.num_sets(), 8);
        assert_eq!(c.line_bytes(), 64);
    }

    #[test]
    fn load_hit_after_fill() {
        let mut c = small();
        let d = c.access(0x1000, Access::Load);
        assert!(d.fill && !d.writeback);
        let d = c.access(0x1000, Access::Load);
        assert!(!d.fill);
        assert_eq!(c.stats.load_misses, 1);
        assert_eq!(c.stats.loads, 2);
    }

    #[test]
    fn store_miss_allocates_and_writes_back() {
        let mut c = small();
        // Store to a line → RFO fill; evicting it later → writeback.
        let d = c.access(0x0, Access::StoreFullLine);
        assert!(d.fill);
        // Two more lines in the same set (stride = sets × line = 512 B).
        let d = c.access(512, Access::StoreFullLine);
        assert!(d.fill && !d.writeback);
        let d = c.access(1024, Access::StoreFullLine);
        assert!(d.fill && d.writeback, "LRU dirty line must be written back");
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn line_claim_avoids_fill() {
        let mut c = small();
        c.line_claim = true;
        let d = c.access(0x0, Access::StoreFullLine);
        assert!(!d.fill, "claimed line must not be fetched");
        assert_eq!(c.stats.claims, 1);
        // Partial stores still fetch.
        let d = c.access(0x40, Access::StorePartial);
        assert!(d.fill);
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = small();
        c.access(0x0, Access::Load); // way A
        c.access(512, Access::Load); // way B
        c.access(0x0, Access::Load); // refresh A
        c.access(1024, Access::Load); // evicts B
        assert!(
            !c.access(0x0, Access::Load).fill,
            "A must still be resident"
        );
        assert!(c.access(512, Access::Load).fill, "B must have been evicted");
    }

    #[test]
    fn flush_counts_dirty_lines() {
        let mut c = small();
        c.access(0x0, Access::StoreFullLine);
        c.access(0x40, Access::StoreFullLine);
        c.access(0x80, Access::Load);
        assert_eq!(c.flush(), 2);
        // After flush everything misses again.
        assert!(c.access(0x0, Access::Load).fill);
    }

    #[test]
    fn streaming_store_ratio_is_two_with_wa() {
        // Write a region 4× the cache size: every line → 1 fill + 1
        // writeback → traffic ratio 2.
        let mut c = small();
        let lines = 4 * 1024 / 64;
        let mut fills = 0;
        let mut wbs = 0;
        for i in 0..lines {
            let d = c.access(i * 64, Access::StoreFullLine);
            fills += d.fill as u64;
            wbs += d.writeback as u64;
        }
        wbs += c.flush();
        assert_eq!(fills, lines);
        assert_eq!(wbs, lines);
    }

    #[test]
    fn streaming_store_ratio_is_one_with_claim() {
        let mut c = small();
        c.line_claim = true;
        let lines = 4 * 1024 / 64;
        let mut fills = 0;
        let mut wbs = 0;
        for i in 0..lines {
            let d = c.access(i * 64, Access::StoreFullLine);
            fills += d.fill as u64;
            wbs += d.writeback as u64;
        }
        wbs += c.flush();
        assert_eq!(fills, 0);
        assert_eq!(wbs, lines);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Invariants: misses ≤ accesses, writebacks ≤ store misses + claims
        /// + flush count; a second pass over a cache-resident working set
        /// never misses.
        #[test]
        fn stats_invariants(addrs in proptest::collection::vec(0u64..1 << 20, 1..500)) {
            let mut c = Cache::new(16 * 1024, 4, 64);
            for &a in &addrs {
                let kind = if a % 3 == 0 { Access::Load } else { Access::StoreFullLine };
                c.access(a, kind);
            }
            prop_assert!(c.stats.misses() <= c.stats.accesses());
            prop_assert!(c.stats.claims == 0);
        }

        #[test]
        fn resident_set_fully_hits_second_pass(start in 0u64..1024) {
            let mut c = Cache::new(16 * 1024, 4, 64);
            // 64 lines = 4 KiB ≪ 16 KiB cache.
            let base = start * 64;
            for i in 0..64u64 { c.access(base + i * 64, Access::Load); }
            let misses_before = c.stats.load_misses;
            for i in 0..64u64 { c.access(base + i * 64, Access::Load); }
            prop_assert_eq!(c.stats.load_misses, misses_before);
        }
    }
}

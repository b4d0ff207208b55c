//! Per-core cache stack (L1 → L2 → L3 slice) with a memory-traffic ledger.

use crate::cache::{Access, Cache};
use crate::stream::{self, MemScratch, StreamConfig, StreamOutcome, StreamPattern};
use uarch::Machine;

/// Bytes exchanged with main memory.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Traffic {
    pub read_bytes: u64,
    pub write_bytes: u64,
}

impl Traffic {
    pub fn total(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Add the ledger of a non-temporal store stream of `lines` lines of
    /// `line_bytes`: a write per line plus a read for every
    /// ⌈1/residual⌉-th line, counting line 0, in closed form.
    /// Bit-identical to [`Self::add_nt_store_line`] for `0..lines`; that
    /// oracle loop is retained behind `cfg.reference`.
    pub fn add_nt_store_stream(
        &mut self,
        lines: u64,
        line_bytes: u64,
        residual_wa: f64,
        cfg: StreamConfig,
    ) {
        if cfg.reference {
            for i in 0..lines {
                self.add_nt_store_line(i, line_bytes, residual_wa);
            }
            return;
        }
        self.write_bytes += lines * line_bytes;
        if residual_wa > 0.0 && lines > 0 {
            let period = (1.0 / residual_wa).round() as u64;
            if period > 0 {
                self.read_bytes += lines.div_ceil(period) * line_bytes;
            }
        }
    }

    /// Add the ledger of one non-temporal store: it bypasses the caches
    /// through the write-combining buffers; `residual_wa` ∈ \[0,1\] is the
    /// fraction of lines whose WC buffer was evicted early and which
    /// therefore still perform a read-modify-write.
    ///
    /// `index` identifies the line within the stream so that the residual
    /// is applied deterministically (every ⌈1/residual⌉-th line).
    pub fn add_nt_store_line(&mut self, index: u64, line_bytes: u64, residual_wa: f64) {
        self.write_bytes += line_bytes;
        if residual_wa > 0.0 {
            let period = (1.0 / residual_wa).round() as u64;
            if period > 0 && index.is_multiple_of(period) {
                self.read_bytes += line_bytes;
            }
        }
    }
}

/// Line size of a machine's hierarchy: its first cache level's, or 64 B.
pub(crate) fn machine_line_bytes(machine: &Machine) -> u64 {
    machine.caches.first().map_or(64, |c| c.line_bytes as u64)
}

/// A core-private view of the cache hierarchy: L1 and L2 private, plus a
/// per-core slice of the shared L3 (streaming workloads from different
/// cores use disjoint addresses, so slicing is exact for them).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    pub levels: Vec<Cache>,
    line_bytes: u64,
    /// Main-memory traffic generated so far.
    pub mem: Traffic,
}

impl Hierarchy {
    /// Build from a machine description, dividing the shared L3 by
    /// `sharers`.
    pub fn from_machine(machine: &Machine, sharers: u32) -> Hierarchy {
        let mut levels = Vec::new();
        for c in &machine.caches {
            let size = if c.shared {
                (c.size_kib * 1024) / sharers.max(1) as u64
            } else {
                c.size_kib * 1024
            };
            levels.push(Cache::new(size, c.assoc as usize, c.line_bytes as u64));
        }
        Hierarchy {
            levels,
            line_bytes: machine_line_bytes(machine),
            mem: Traffic::default(),
        }
    }

    /// Build a small synthetic hierarchy (for tests).
    pub fn synthetic(l1: u64, l2: u64, l3: u64, line: u64) -> Hierarchy {
        Hierarchy {
            levels: vec![
                Cache::new(l1, 4, line),
                Cache::new(l2, 8, line),
                Cache::new(l3, 16, line),
            ],
            line_bytes: line,
            mem: Traffic::default(),
        }
    }

    /// A cold hierarchy whose levels have `sets / g` sets each and this
    /// one's ways, line sizes and claim settings (see
    /// [`crate::stream`]'s fold).
    pub(crate) fn folded(&self, g: u64) -> Hierarchy {
        Hierarchy {
            levels: self.levels.iter().map(|l| l.folded(g)).collect(),
            line_bytes: self.line_bytes,
            mem: Traffic::default(),
        }
    }

    /// Enable automatic cache-line claim at every level (Arm-style).
    pub fn enable_line_claim(&mut self) {
        for l in &mut self.levels {
            l.line_claim = true;
        }
    }

    /// Set line-claim at every level (both directions; used when a
    /// hierarchy is pooled and reused across configurations).
    pub fn set_line_claim(&mut self, on: bool) {
        for l in &mut self.levels {
            l.line_claim = on;
        }
    }

    /// Return the hierarchy to its just-constructed state without
    /// reallocating the line arrays — the scratch/arena half of the
    /// streaming fast path: repeated `single_core_base` calls reuse one
    /// hierarchy per (machine, sharers) instead of rebuilding ~10⁵ lines.
    pub fn reset(&mut self) {
        for l in &mut self.levels {
            l.reset();
        }
        self.mem = Traffic::default();
    }

    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Present an access to the hierarchy; misses propagate downward and
    /// dirty evictions write back into the next level (allocating there
    /// without a memory read — a writeback carries the whole line), with
    /// cascades ultimately reaching main memory.
    pub fn access(&mut self, addr: u64, kind: Access) {
        let mut k = kind;
        for i in 0..self.levels.len() {
            let down = self.levels[i].access(addr, k);
            if down.writeback {
                self.writeback_into(i + 1, down.writeback_addr);
            }
            if !down.fill {
                return; // satisfied at this level
            }
            // A miss propagates as a *read* fill: only the level where the
            // store semantically happens (the first one) holds the dirty
            // data; lower levels receive clean copies. Dirty data travels
            // downward exclusively via writebacks.
            k = Access::Load;
        }
        // Missed the last level: memory read (line fill / RFO).
        self.mem.read_bytes += self.line_bytes;
    }

    /// Deposit a written-back line into level `level` (or memory), chasing
    /// any displaced dirty victims further down.
    fn writeback_into(&mut self, level: usize, addr: u64) {
        let mut level = level;
        let mut addr = addr;
        loop {
            if level >= self.levels.len() {
                self.mem.write_bytes += self.line_bytes;
                return;
            }
            match self.levels[level].writeback_insert(addr) {
                Some(victim) => {
                    addr = victim;
                    level += 1;
                }
                None => return,
            }
        }
    }

    /// Install a prefetched line into L2 (and the levels below it) without
    /// touching L1 — the standard L2-stream-prefetcher behaviour. Prefetch
    /// fills do not perturb the demand hit/miss counters. Charges a memory
    /// read if the line was not already cached anywhere below L1.
    pub fn prefetch_into_l2(&mut self, addr: u64) {
        let mut filled_from_memory = self.levels.len() > 1;
        for i in 1..self.levels.len() {
            let (present, displaced) = self.levels[i].prefetch_insert(addr);
            if let Some(victim) = displaced {
                self.writeback_into(i + 1, victim);
            }
            if present {
                filled_from_memory = false;
                break;
            }
        }
        if filled_from_memory {
            self.mem.read_bytes += self.line_bytes;
        }
    }

    /// Present a whole constant-stride stream, taking the exact fast
    /// paths of [`crate::stream`] (the cold fold and the steady-state
    /// extrapolation) when the pattern allows them. Counters and final
    /// cache state are bit-identical to issuing each access through
    /// [`Self::access`]; pass `StreamConfig { reference: true }` to force
    /// that oracle loop.
    pub fn access_stream(&mut self, p: StreamPattern, cfg: StreamConfig) -> StreamOutcome {
        let mut scratch = MemScratch::default();
        self.access_stream_with_scratch(p, cfg, &mut scratch)
    }

    /// [`Self::access_stream`] with caller-owned snapshot buffers, so
    /// sweeps that issue many streams allocate nothing per stream.
    pub fn access_stream_with_scratch(
        &mut self,
        p: StreamPattern,
        cfg: StreamConfig,
        scratch: &mut MemScratch,
    ) -> StreamOutcome {
        stream::run_stream(self, p, cfg, scratch)
    }

    /// Non-temporal store stream of `lines` lines into this hierarchy's
    /// memory ledger ([`Traffic::add_nt_store_stream`]).
    pub fn nt_store_stream(&mut self, lines: u64, residual_wa: f64, cfg: StreamConfig) {
        self.mem
            .add_nt_store_stream(lines, self.line_bytes, residual_wa, cfg);
    }

    /// Flush all levels, charging final writebacks to memory.
    pub fn flush(&mut self) {
        let mut wb = 0;
        for l in &mut self.levels {
            wb += l.flush();
        }
        self.mem.write_bytes += wb * self.line_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_stores_without_claim_read_and_write() {
        // 4 KiB L1, 16 KiB L2, 64 KiB L3; stream 1 MiB of full-line stores.
        let mut h = Hierarchy::synthetic(4 << 10, 16 << 10, 64 << 10, 64);
        let lines = (1u64 << 20) / 64;
        for i in 0..lines {
            h.access(i * 64, Access::StoreFullLine);
        }
        h.flush();
        let stored = lines * 64;
        let ratio = h.mem.total() as f64 / stored as f64;
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn streaming_stores_with_claim_write_only() {
        let mut h = Hierarchy::synthetic(4 << 10, 16 << 10, 64 << 10, 64);
        h.enable_line_claim();
        let lines = (1u64 << 20) / 64;
        for i in 0..lines {
            h.access(i * 64, Access::StoreFullLine);
        }
        h.flush();
        let stored = lines * 64;
        let ratio = h.mem.total() as f64 / stored as f64;
        assert!((ratio - 1.0).abs() < 0.05, "ratio = {ratio}");
        assert_eq!(h.mem.read_bytes, 0);
    }

    #[test]
    fn nt_stores_bypass() {
        let mut mem = Traffic::default();
        for i in 0..1000 {
            mem.add_nt_store_line(i, 64, 0.0);
        }
        assert_eq!(mem.read_bytes, 0);
        assert_eq!(mem.write_bytes, 1000 * 64);
    }

    #[test]
    fn nt_residual_charges_reads() {
        let mut mem = Traffic::default();
        for i in 0..1000 {
            mem.add_nt_store_line(i, 64, 0.10);
        }
        let ratio = mem.total() as f64 / (1000.0 * 64.0);
        assert!((ratio - 1.1).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn cache_resident_loads_hit_after_warmup() {
        let mut h = Hierarchy::synthetic(4 << 10, 16 << 10, 64 << 10, 64);
        for i in 0..32u64 {
            h.access(i * 64, Access::Load);
        }
        let reads_after_warm = h.mem.read_bytes;
        for _ in 0..10 {
            for i in 0..32u64 {
                h.access(i * 64, Access::Load);
            }
        }
        assert_eq!(h.mem.read_bytes, reads_after_warm);
    }

    #[test]
    fn from_machine_shapes() {
        let m = uarch::Machine::golden_cove();
        let h = Hierarchy::from_machine(&m, 52);
        assert_eq!(h.levels.len(), 3);
        assert_eq!(h.line_bytes(), 64);
    }
}

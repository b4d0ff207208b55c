//! Content-keyed memoization for the batch pipeline and the server.
//!
//! The corpus run decodes each distinct kernel text **once** and shares
//! the parsed [`isa::Kernel`] across every predictor (and across machines
//! that generate byte-identical assembly, e.g. two x86 models at the same
//! vector width). Imported JSON machine files are deduplicated the same
//! way. Both caches are safe to hit from the worker pool.
//!
//! Each cache entry is a `OnceLock` slot created under the map lock but
//! *filled outside it*, so two workers racing on different keys parse in
//! parallel, while workers racing on the same key block on the slot and
//! share one parse. That also makes the hit/miss counters deterministic
//! regardless of thread count: exactly one miss per distinct key (the
//! slot's creator), a hit for every other lookup — which is what lets the
//! stats ride along in the byte-identical JSON report.
//!
//! A batch `validate` run uses the default **unbounded** cache (the corpus
//! is finite and the run is one-shot), so its [`CacheStats`] and the
//! BatchReport JSON they ride in are unchanged. The long-running server
//! uses [`CorpusCache::bounded`], which adds LRU eviction on top of the
//! same slots; evictions are counted separately (and exported through
//! `obs`) rather than widening the serialized `CacheStats`.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::Error;
use crate::key::Key;
use serde::Serialize;

type Slot<T> = Arc<OnceLock<Result<Arc<T>, Error>>>;

/// Hit/miss counters, serialized into the batch report. Deliberately
/// *not* widened with eviction counts: this struct is part of the
/// versioned BatchReport schema, and batch runs never evict. Use
/// [`CorpusCache::evictions`] (or the `engine.cache.*_evictions` obs
/// counters) for the server-side eviction trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    pub kernel_hits: u64,
    pub kernel_misses: u64,
    pub machine_hits: u64,
    pub machine_misses: u64,
}

/// Eviction counters of a bounded [`CorpusCache`] (always zero for the
/// default unbounded cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionStats {
    pub kernel_evictions: u64,
    pub machine_evictions: u64,
}

/// A least-recently-used map: `get` refreshes recency, `insert` evicts
/// the stalest entries once `capacity` is exceeded. Recency is a
/// monotonic tick per touch, indexed through a `BTreeMap` so the oldest
/// key is always the first entry — deterministic for a deterministic
/// access sequence, which keeps cache behavior reproducible in tests.
///
/// Not internally synchronized: callers wrap it in a `Mutex` (see
/// [`CorpusCache`]) and the server's response cache.
#[derive(Debug, Default)]
pub struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    recency: BTreeMap<u64, K>,
    tick: u64,
    capacity: Option<usize>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An unbounded map (never evicts).
    pub fn unbounded() -> Self {
        Lru {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            capacity: None,
        }
    }

    /// A map that holds at most `capacity` entries. A capacity of zero
    /// retains nothing (every insert immediately evicts).
    pub fn bounded(capacity: usize) -> Self {
        Lru {
            capacity: Some(capacity),
            ..Lru::unbounded()
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let tick = self.next_tick();
        let (value, old) = self.map.get_mut(key)?;
        let stale = std::mem::replace(old, tick);
        let entry = self
            .recency
            .remove(&stale)
            .expect("recency index tracks every live entry");
        self.recency.insert(tick, entry);
        Some(value.clone())
    }

    /// Insert (or replace) `key`, evicting least-recently-used entries
    /// past the capacity. Returns how many entries were evicted.
    pub fn insert(&mut self, key: K, value: V) -> u64 {
        let tick = self.next_tick();
        if let Some((slot, old)) = self.map.get_mut(&key) {
            *slot = value;
            let stale = std::mem::replace(old, tick);
            let entry = self
                .recency
                .remove(&stale)
                .expect("recency index tracks every live entry");
            self.recency.insert(tick, entry);
            return 0;
        }
        self.map.insert(key.clone(), (value, tick));
        self.recency.insert(tick, key);
        let mut evicted = 0;
        if let Some(cap) = self.capacity {
            while self.map.len() > cap {
                let (&stale, _) = self
                    .recency
                    .iter()
                    .next()
                    .expect("map is non-empty, so is the recency index");
                let victim = self
                    .recency
                    .remove(&stale)
                    .expect("key just observed in the index");
                self.map.remove(&victim);
                evicted += 1;
            }
        }
        evicted
    }
}

/// A machine model with its [`Key::fingerprint`], computed on first use
/// and kept: a server resolving the same model for every request
/// serializes it once, and a run without a persistent cache never does.
pub struct KeyedMachine {
    pub machine: uarch::Machine,
    fingerprint: OnceLock<u64>,
}

impl KeyedMachine {
    pub fn new(machine: uarch::Machine) -> Self {
        KeyedMachine {
            machine,
            fingerprint: OnceLock::new(),
        }
    }

    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| Key::fingerprint(&self.machine))
    }
}

/// Thread-safe content-keyed caches for parsed kernels and imported
/// machine models. [`CorpusCache::new`] is unbounded (batch runs);
/// [`CorpusCache::bounded`] adds LRU eviction for long-running servers.
pub struct CorpusCache {
    kernels: Mutex<Lru<(isa::Isa, String), Slot<isa::Kernel>>>,
    machines: Mutex<Lru<String, Slot<KeyedMachine>>>,
    kernel_hits: AtomicU64,
    kernel_misses: AtomicU64,
    machine_hits: AtomicU64,
    machine_misses: AtomicU64,
    kernel_evictions: AtomicU64,
    machine_evictions: AtomicU64,
}

impl Default for CorpusCache {
    fn default() -> Self {
        CorpusCache::new()
    }
}

impl CorpusCache {
    pub fn new() -> Self {
        CorpusCache::with_maps(Lru::unbounded(), Lru::unbounded())
    }

    /// A cache holding at most `capacity` parsed kernels and `capacity`
    /// imported machines, with LRU eviction. Evicting a slot another
    /// worker is still filling is safe — the slot is an `Arc`, so the
    /// in-flight parse completes and is simply not shared further.
    pub fn bounded(capacity: usize) -> Self {
        CorpusCache::with_maps(Lru::bounded(capacity), Lru::bounded(capacity))
    }

    fn with_maps(
        kernels: Lru<(isa::Isa, String), Slot<isa::Kernel>>,
        machines: Lru<String, Slot<KeyedMachine>>,
    ) -> Self {
        CorpusCache {
            kernels: Mutex::new(kernels),
            machines: Mutex::new(machines),
            kernel_hits: AtomicU64::new(0),
            kernel_misses: AtomicU64::new(0),
            machine_hits: AtomicU64::new(0),
            machine_misses: AtomicU64::new(0),
            kernel_evictions: AtomicU64::new(0),
            machine_evictions: AtomicU64::new(0),
        }
    }

    /// Parse `asm` for `isa`, reusing a previous parse of identical text.
    pub fn kernel(&self, asm: &str, isa: isa::Isa) -> Result<Arc<isa::Kernel>, Error> {
        self.kernel_with_hit(asm, isa).map(|(k, _)| k)
    }

    /// Like [`CorpusCache::kernel`], also reporting whether the lookup hit
    /// a previous parse. The session uses the flag to book a hit's
    /// wall-clock under `cache_ms` instead of `parse_ms` — shared lookups
    /// must not inflate the parse figure.
    pub fn kernel_with_hit(
        &self,
        asm: &str,
        isa: isa::Isa,
    ) -> Result<(Arc<isa::Kernel>, bool), Error> {
        let key = (isa, asm.to_string());
        let mut hit = true;
        let slot = {
            let mut map = self.kernels.lock().expect("kernel cache poisoned");
            match map.get(&key) {
                Some(slot) => {
                    self.kernel_hits.fetch_add(1, Ordering::Relaxed);
                    slot
                }
                None => {
                    hit = false;
                    self.kernel_misses.fetch_add(1, Ordering::Relaxed);
                    let slot: Slot<isa::Kernel> = Arc::new(OnceLock::new());
                    let evicted = map.insert(key, slot.clone());
                    if evicted > 0 {
                        self.kernel_evictions.fetch_add(evicted, Ordering::Relaxed);
                        if obs::enabled() {
                            obs::counter("engine.cache.kernel_evictions", evicted);
                        }
                    }
                    slot
                }
            }
        };
        // A "hit" on a slot another worker is still filling blocks in
        // get_or_init below; that wait is still a hit for accounting (the
        // parse work happens — and is booked — exactly once).
        slot.get_or_init(|| {
            isa::parse_kernel(asm, isa)
                .map(Arc::new)
                .map_err(Error::from)
        })
        .clone()
        .map(|k| (k, hit))
    }

    /// Import a JSON machine file, reusing a previous import of identical
    /// text (and its fingerprint, once computed).
    pub fn machine(&self, json: &str) -> Result<Arc<KeyedMachine>, Error> {
        let slot = {
            let mut map = self.machines.lock().expect("machine cache poisoned");
            match map.get(&json.to_string()) {
                Some(slot) => {
                    self.machine_hits.fetch_add(1, Ordering::Relaxed);
                    slot
                }
                None => {
                    self.machine_misses.fetch_add(1, Ordering::Relaxed);
                    let slot: Slot<KeyedMachine> = Arc::new(OnceLock::new());
                    let evicted = map.insert(json.to_string(), slot.clone());
                    if evicted > 0 {
                        self.machine_evictions.fetch_add(evicted, Ordering::Relaxed);
                        if obs::enabled() {
                            obs::counter("engine.cache.machine_evictions", evicted);
                        }
                    }
                    slot
                }
            }
        };
        slot.get_or_init(|| {
            uarch::Machine::from_json(json)
                .map(|m| Arc::new(KeyedMachine::new(m)))
                .map_err(Error::from)
        })
        .clone()
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            kernel_hits: self.kernel_hits.load(Ordering::Relaxed),
            kernel_misses: self.kernel_misses.load(Ordering::Relaxed),
            machine_hits: self.machine_hits.load(Ordering::Relaxed),
            machine_misses: self.machine_misses.load(Ordering::Relaxed),
        }
    }

    pub fn evictions(&self) -> EvictionStats {
        EvictionStats {
            kernel_evictions: self.kernel_evictions.load(Ordering::Relaxed),
            machine_evictions: self.machine_evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_parsed_once_per_distinct_text() {
        let cache = CorpusCache::new();
        let asm = ".L1:\n addq $1, %rax\n jne .L1\n";
        let a = cache.kernel(asm, isa::Isa::X86).unwrap();
        let b = cache.kernel(asm, isa::Isa::X86).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the parse");
        let other = cache.kernel(".L1:\n subq $1, %rax\n jne .L1\n", isa::Isa::X86);
        assert!(other.is_ok());
        let s = cache.stats();
        assert_eq!(s.kernel_misses, 2);
        assert_eq!(s.kernel_hits, 1);
        assert_eq!(cache.evictions(), EvictionStats::default());
    }

    #[test]
    fn parse_failures_are_cached_too() {
        let cache = CorpusCache::new();
        let bad = "movq %bogus, %rax\n";
        let e1 = cache.kernel(bad, isa::Isa::X86).unwrap_err();
        let e2 = cache.kernel(bad, isa::Isa::X86).unwrap_err();
        assert_eq!(e1, e2);
        let s = cache.stats();
        assert_eq!((s.kernel_misses, s.kernel_hits), (1, 1));
    }

    #[test]
    fn machine_files_are_content_keyed() {
        let cache = CorpusCache::new();
        let json = uarch::Machine::zen4().to_json();
        let a = cache.machine(&json).unwrap();
        let b = cache.machine(&json).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(cache.machine("{ nope").is_err());
        let s = cache.stats();
        assert_eq!((s.machine_misses, s.machine_hits), (2, 1));
    }

    #[test]
    fn deterministic_counts_under_contention() {
        let cache = CorpusCache::new();
        let asm = ".L1:\n addq $1, %rax\n jne .L1\n";
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| cache.kernel(asm, isa::Isa::X86).unwrap());
            }
        });
        let st = cache.stats();
        assert_eq!(st.kernel_misses, 1);
        assert_eq!(st.kernel_hits, 7);
    }

    #[test]
    fn lru_evicts_stalest_entry_first() {
        let mut lru: Lru<u32, u32> = Lru::bounded(2);
        assert_eq!(lru.insert(1, 10), 0);
        assert_eq!(lru.insert(2, 20), 0);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.insert(3, 30), 1);
        assert_eq!(lru.get(&2), None, "entry 2 was the stalest");
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        assert_eq!(lru.len(), 2);
        // Replacing in place neither grows nor evicts.
        assert_eq!(lru.insert(1, 11), 0);
        assert_eq!(lru.get(&1), Some(11));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn bounded_kernel_cache_evicts_and_counts() {
        let cache = CorpusCache::bounded(2);
        let k1 = ".L1:\n addq $1, %rax\n jne .L1\n";
        let k2 = ".L1:\n subq $1, %rax\n jne .L1\n";
        let k3 = ".L1:\n addq $2, %rax\n jne .L1\n";
        cache.kernel(k1, isa::Isa::X86).unwrap();
        cache.kernel(k2, isa::Isa::X86).unwrap();
        cache.kernel(k3, isa::Isa::X86).unwrap(); // evicts k1
        assert_eq!(cache.evictions().kernel_evictions, 1);
        // k1 is gone: the lookup re-parses (a miss, not a hit).
        cache.kernel(k1, isa::Isa::X86).unwrap();
        let s = cache.stats();
        assert_eq!(s.kernel_misses, 4);
        assert_eq!(s.kernel_hits, 0);
        assert_eq!(cache.evictions().kernel_evictions, 2);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = CorpusCache::new();
        for i in 0..64 {
            let asm = format!(".L1:\n addq ${i}, %rax\n jne .L1\n");
            cache.kernel(&asm, isa::Isa::X86).unwrap();
        }
        assert_eq!(cache.evictions(), EvictionStats::default());
        assert_eq!(cache.stats().kernel_misses, 64);
    }
}

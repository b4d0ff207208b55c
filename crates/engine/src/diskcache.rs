//! Persistent content-addressed record cache under the in-memory
//! [`CorpusCache`](crate::cache::CorpusCache).
//!
//! A [`DiskCache`] is a directory of small entry files, one per evaluated
//! record, addressed by the FNV-64 digest of its [`Key`] plus the record
//! format and report schema versions. Every entry holds one payload
//! format: the *computed* part of a [`RecordReport`] in a bit-exact line
//! codec (floats as `to_bits` hex), so replay is byte-identical to
//! recompute. The descriptive labels are re-stamped by the reader, so the
//! batch pipeline and `incore-cli serve` share entries.
//!
//! Robustness properties, each pinned by a test:
//!
//! * **Versioned**: every entry starts with a format header line. An
//!   entry written by a different format version is *ignored, not read* —
//!   the lookup reports it as stale and recomputes. The address folds in
//!   the record codec and report schema versions, and the key the
//!   semantic inputs, so any other change simply misses.
//! * **Crash-safe**: writes go to a temp file in the same directory and
//!   are published with an atomic rename; a crashed writer leaves at most
//!   a `*.tmp` turd that is never read as an entry.
//! * **Corruption-tolerant**: a truncated or hand-damaged entry (length
//!   mismatch, bad header, key echo mismatch from a hash collision,
//!   undecodable record) is a miss that the subsequent recompute
//!   overwrites.
//! * **Bounded (optionally)**: with a capacity, a put that grows the
//!   cache past the bound evicts the oldest-modified entries.
//!
//! Hits, misses, writes, evictions, and the stale/corrupt breakdown are
//! counted in [`DiskStats`] and exported through the `obs` counters
//! `engine.diskcache.*` by the session (and the serve metrics snapshot).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::Error;
use crate::key::{Key, FNV_OFFSET};
use crate::report::{PredictorResult, RecordReport, SCHEMA_MINOR, SCHEMA_VERSION};
use crate::session::BlockLabels;

/// Format version of the entry *file layout*. Bumped when the header /
/// framing below changes; older entries are then ignored as stale.
const FORMAT: &str = "incore-diskcache v1";

/// Version of the record codec ([`encode_record`]). Part of every entry
/// address, so a codec change misses cleanly instead of misparsing.
const RECORD_CODEC_VERSION: &str = "rec1";

/// Counter snapshot of one [`DiskCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups with no usable entry (includes stale and corrupt).
    pub misses: u64,
    /// Entries written (published via rename).
    pub writes: u64,
    /// Entries removed by the capacity bound.
    pub evictions: u64,
    /// Misses caused by a format-version mismatch (entry left untouched).
    pub stale: u64,
    /// Misses caused by a truncated/damaged entry or key collision.
    pub corrupt: u64,
}

impl DiskStats {
    /// Hit rate over all lookups (0..1; 0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// A second, independent starting state for the verification hash (the
/// FNV offset basis with flipped halves), so an address collision is
/// caught by the key echo inside the entry.
const FNV_OFFSET_ALT: u64 = 0x8422_2325_cbf2_9ce4;

/// A directory of content-addressed entries. Cheap to share behind a
/// reference; all methods take `&self`.
pub struct DiskCache {
    dir: PathBuf,
    /// Record codec and report schema versions, folded into every address.
    versions: String,
    capacity: Option<usize>,
    /// Live entry count (maintained from the initial scan + writes);
    /// guards the eviction scan so unbounded use never touches read_dir.
    entries: AtomicU64,
    /// Serializes eviction scans (writers are otherwise lock-free).
    evict_lock: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    stale: AtomicU64,
    corrupt: AtomicU64,
}

impl DiskCache {
    /// Open (creating if needed) an unbounded cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DiskCache, Error> {
        DiskCache::open_inner(dir.into(), None)
    }

    /// Open a cache that holds at most `capacity` entries; a put past the
    /// bound evicts the oldest-modified entries.
    pub fn open_bounded(dir: impl Into<PathBuf>, capacity: usize) -> Result<DiskCache, Error> {
        DiskCache::open_inner(dir.into(), Some(capacity))
    }

    fn open_inner(dir: PathBuf, capacity: Option<usize>) -> Result<DiskCache, Error> {
        std::fs::create_dir_all(&dir).map_err(|e| Error::io(dir.display().to_string(), &e))?;
        let mut entries = 0u64;
        if capacity.is_some() {
            let listing =
                std::fs::read_dir(&dir).map_err(|e| Error::io(dir.display().to_string(), &e))?;
            for f in listing.flatten() {
                if f.path().extension().is_some_and(|x| x == "rec") {
                    entries += 1;
                }
            }
        }
        Ok(DiskCache {
            dir,
            versions: format!("{RECORD_CODEC_VERSION} s{SCHEMA_VERSION}.{SCHEMA_MINOR}"),
            capacity,
            entries: AtomicU64::new(entries),
            evict_lock: Mutex::new(()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        })
    }

    fn digest(&self, key: &Key, seed: u64) -> u64 {
        key.digest(seed, &[&self.versions])
    }

    fn entry_path(&self, key: &Key) -> PathBuf {
        self.dir
            .join(format!("{:016x}.rec", self.digest(key, FNV_OFFSET)))
    }

    /// Replay the record stored under `key`, stamped with `labels` and
    /// `chip`. Any unusable entry — missing, stale format, truncated,
    /// damaged, or an address collision — is a miss.
    pub fn get(&self, key: &Key, labels: BlockLabels<'_>, chip: &str) -> Option<RecordReport> {
        let _span = obs::enabled().then(|| obs::span("engine.diskcache.get"));
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let verify = self.digest(key, FNV_OFFSET_ALT);
        let defect = match parse_entry(&text, verify) {
            Ok(payload) => match decode_record(payload, labels, chip) {
                Some(record) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(record);
                }
                None => &self.corrupt,
            },
            Err(EntryDefect::Stale) => &self.stale,
            Err(EntryDefect::Corrupt) => &self.corrupt,
        };
        defect.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store the computed part of `record` under `key`. Failures are
    /// swallowed (a cache that cannot write degrades to a recompute, it
    /// does not fail the run); successful writes are atomic via temp-file
    /// rename.
    pub fn put(&self, key: &Key, record: &RecordReport) {
        let _span = obs::enabled().then(|| obs::span("engine.diskcache.put"));
        let path = self.entry_path(key);
        let payload = encode_record(record);
        let verify = self.digest(key, FNV_OFFSET_ALT);
        let body = format!(
            "{FORMAT}\nkey {verify:016x}\nlen {}\n{payload}",
            payload.len()
        );
        let tmp = self.dir.join(format!(
            ".{:016x}.{}.tmp",
            self.digest(key, FNV_OFFSET),
            std::process::id()
        ));
        if std::fs::write(&tmp, body).is_err() {
            return;
        }
        let existed = path.exists();
        if std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        if !existed {
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.maybe_evict();
        }
    }

    /// Evict oldest-modified entries past the capacity. Off the hot path:
    /// runs only when a put grew a bounded cache past its bound.
    fn maybe_evict(&self) {
        let Some(cap) = self.capacity else { return };
        if self.entries.load(Ordering::Relaxed) <= cap as u64 {
            return;
        }
        let _guard = self.evict_lock.lock().expect("evict lock poisoned");
        let Ok(listing) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf)> = listing
            .flatten()
            .filter(|f| f.path().extension().is_some_and(|x| x == "rec"))
            .filter_map(|f| {
                let t = f.metadata().and_then(|m| m.modified()).ok()?;
                Some((t, f.path()))
            })
            .collect();
        self.entries.store(files.len() as u64, Ordering::Relaxed);
        if files.len() <= cap {
            return;
        }
        files.sort();
        let excess = files.len() - cap;
        let mut removed = 0u64;
        for (_, path) in files.into_iter().take(excess) {
            if std::fs::remove_file(path).is_ok() {
                removed += 1;
            }
        }
        self.entries.fetch_sub(removed, Ordering::Relaxed);
        self.evictions.fetch_add(removed, Ordering::Relaxed);
    }

    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

enum EntryDefect {
    /// Different format version: left unread on principle.
    Stale,
    /// Damaged framing, truncation, or key-echo mismatch.
    Corrupt,
}

fn parse_entry(text: &str, verify: u64) -> Result<&str, EntryDefect> {
    let mut rest = text;
    let header = take_line(&mut rest).ok_or(EntryDefect::Corrupt)?;
    if header != FORMAT {
        return Err(EntryDefect::Stale);
    }
    let key_line = take_line(&mut rest).ok_or(EntryDefect::Corrupt)?;
    let echoed = key_line
        .strip_prefix("key ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or(EntryDefect::Corrupt)?;
    if echoed != verify {
        return Err(EntryDefect::Corrupt);
    }
    let len_line = take_line(&mut rest).ok_or(EntryDefect::Corrupt)?;
    let len: usize = len_line
        .strip_prefix("len ")
        .and_then(|n| n.parse().ok())
        .ok_or(EntryDefect::Corrupt)?;
    if rest.len() != len {
        return Err(EntryDefect::Corrupt);
    }
    Ok(rest)
}

fn take_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let nl = rest.find('\n')?;
    let line = &rest[..nl];
    *rest = &rest[nl + 1..];
    Some(line)
}

/// Bit-exact hex form of an `f64` (round-trips through [`bits_f64`]).
fn f64_bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn bits_f64(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Serialize the *computed* part of a record — measurement, predictions,
/// divergence codes — for a disk entry. The descriptive labels (kernel /
/// compiler / opt / chip) are deliberately not stored: they are re-stamped
/// by the reader, so two grid blocks that generate identical assembly on
/// the same machine share one entry, and so does a served request.
fn encode_record(r: &RecordReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "measured {}",
        r.measured.map(f64_bits).unwrap_or_else(|| "-".into())
    );
    let _ = writeln!(
        out,
        "divergence {}",
        if r.divergence.is_empty() {
            "-".to_string()
        } else {
            r.divergence.join(",")
        }
    );
    let _ = writeln!(out, "predictions {}", r.predictions.len());
    for p in &r.predictions {
        let _ = write!(
            out,
            "pred {} {} {}",
            f64_bits(p.cycles_per_iter),
            p.rpe.map(f64_bits).unwrap_or_else(|| "-".into()),
            f64_bits(p.uops_per_iter),
        );
        for v in &p.port_pressure {
            let _ = write!(out, " {}", f64_bits(*v));
        }
        out.push('\n');
        let _ = writeln!(out, "name {}", p.predictor);
        let _ = writeln!(out, "bn {}", p.bottleneck);
    }
    out
}

/// Inverse of [`encode_record`]: rebuild a full record by combining the
/// stored computation with the caller's labels. `None` on any mismatch —
/// a miss that recomputes.
fn decode_record(payload: &str, labels: BlockLabels<'_>, chip: &str) -> Option<RecordReport> {
    let mut lines = payload.lines();
    let measured = match lines.next()?.strip_prefix("measured ")? {
        "-" => None,
        bits => Some(bits_f64(bits)?),
    };
    let divergence = match lines.next()?.strip_prefix("divergence ")? {
        "-" => Vec::new(),
        codes => codes.split(',').map(str::to_string).collect(),
    };
    let count: usize = lines.next()?.strip_prefix("predictions ")?.parse().ok()?;
    let mut predictions = Vec::with_capacity(count);
    for _ in 0..count {
        let nums = lines.next()?.strip_prefix("pred ")?;
        let mut it = nums.split(' ');
        let cycles_per_iter = bits_f64(it.next()?)?;
        let rpe = match it.next()? {
            "-" => None,
            bits => Some(bits_f64(bits)?),
        };
        let uops_per_iter = bits_f64(it.next()?)?;
        let port_pressure = it.map(bits_f64).collect::<Option<Vec<f64>>>()?;
        let predictor = lines.next()?.strip_prefix("name ")?.to_string();
        let bottleneck = lines.next()?.strip_prefix("bn ")?.to_string();
        predictions.push(PredictorResult {
            predictor,
            cycles_per_iter,
            rpe,
            bottleneck,
            port_pressure,
            uops_per_iter,
        });
    }
    if lines.next().is_some() {
        return None;
    }
    Some(RecordReport {
        kernel: labels.kernel.to_string(),
        compiler: labels.compiler.to_string(),
        opt: labels.opt.to_string(),
        chip: chip.to_string(),
        measured,
        predictions,
        divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "incore-diskcache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(text: &str) -> Key {
        Key {
            machine: 7,
            predictors: "incore;-".into(),
            text: text.into(),
        }
    }

    const LABELS: BlockLabels<'static> = BlockLabels {
        kernel: "K",
        compiler: "gcc",
        opt: "-O3",
    };

    fn record(cycles: f64) -> RecordReport {
        RecordReport {
            kernel: "K".into(),
            compiler: "gcc".into(),
            opt: "-O3".into(),
            chip: "SPR".into(),
            measured: Some(3.7500000000000004),
            predictions: vec![PredictorResult {
                predictor: "incore".into(),
                cycles_per_iter: cycles,
                rpe: Some(-0.1),
                bottleneck: "port pressure".into(),
                port_pressure: vec![0.5, f64::MIN_POSITIVE, 2.25],
                uops_per_iter: 6.0,
            }],
            divergence: vec!["D001".into()],
        }
    }

    fn json(r: Option<RecordReport>) -> Option<String> {
        r.map(|r| serde_json::to_string(&r).unwrap())
    }

    #[test]
    fn round_trips_payloads() {
        let dir = tmpdir("rt");
        let cache = DiskCache::open(&dir).unwrap();
        let k = key("text");
        assert!(cache.get(&k, LABELS, "SPR").is_none());
        cache.put(&k, &record(1.5));
        assert_eq!(json(cache.get(&k, LABELS, "SPR")), json(Some(record(1.5))));
        // A different key misses independently.
        assert!(cache.get(&key("other"), LABELS, "SPR").is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.writes), (1, 2, 1));
        // Reopening sees the same entry (persistence).
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(
            json(reopened.get(&k, LABELS, "SPR")),
            json(Some(record(1.5)))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_version_is_ignored_not_read() {
        let dir = tmpdir("stale");
        let cache = DiskCache::open(&dir).unwrap();
        let k = key("k");
        cache.put(&k, &record(1.0));
        let path = cache.entry_path(&k);
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, body.replace(FORMAT, "incore-diskcache v0")).unwrap();
        assert!(cache.get(&k, LABELS, "SPR").is_none());
        assert_eq!(cache.stats().stale, 1);
        // The stale entry was not deleted — ignored, recompute overwrites.
        assert!(path.exists());
        cache.put(&k, &record(2.0));
        assert_eq!(json(cache.get(&k, LABELS, "SPR")), json(Some(record(2.0))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let dir = tmpdir("trunc");
        let cache = DiskCache::open(&dir).unwrap();
        let k = key("k");
        cache.put(&k, &record(1.0));
        let path = cache.entry_path(&k);
        let body = std::fs::read(&path).unwrap();
        std::fs::write(&path, &body[..body.len() - 10]).unwrap();
        assert!(cache.get(&k, LABELS, "SPR").is_none());
        assert_eq!(cache.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_cache_evicts_oldest() {
        let dir = tmpdir("evict");
        let cache = DiskCache::open_bounded(&dir, 2).unwrap();
        for text in ["a", "b", "c"] {
            cache.put(&key(text), &record(1.0));
        }
        assert_eq!(cache.stats().evictions, 1);
        let live = ["a", "b", "c"]
            .iter()
            .filter(|t| cache.get(&key(t), LABELS, "SPR").is_some())
            .count();
        assert_eq!(live, 2, "exactly one of the three entries was evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_codec_is_bit_exact() {
        let rec = record(1.0 / 3.0);
        let back = decode_record(&encode_record(&rec), LABELS, "SPR");
        assert_eq!(json(back), json(Some(rec.clone())));
        // No-measurement, no-pressure records round-trip too.
        let bare = RecordReport {
            measured: None,
            divergence: Vec::new(),
            predictions: vec![PredictorResult {
                rpe: None,
                port_pressure: Vec::new(),
                ..rec.predictions[0].clone()
            }],
            ..rec.clone()
        };
        let back = decode_record(&encode_record(&bare), LABELS, "SPR");
        assert_eq!(json(back), json(Some(bare)));
    }

    #[test]
    fn damaged_payload_decodes_to_none() {
        assert!(decode_record("measured zzz\n", LABELS, "ch").is_none());
        assert!(decode_record("", LABELS, "ch").is_none());
        assert!(decode_record("measured -\ndivergence -\npredictions 2\n", LABELS, "ch").is_none());
    }
}

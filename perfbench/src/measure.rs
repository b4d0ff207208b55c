//! Measurement primitives shared by the workloads: the seeded input
//! generator, process CPU time and peak memory, exact quantiles over raw
//! samples, and the metric table a run reports.

use std::collections::BTreeMap;
use std::time::Duration;

/// SplitMix64: a small seedable generator that yields the same stream on
/// every platform, so one seed always produces one set of inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be7c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// FNV-1a, for digests of generated op sequences.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process (the client
/// side and, for the service workload, the in-process server).
pub fn cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `struct timespec` (two
    // 64-bit fields on the 64-bit Linux targets this runs on), and
    // clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Time [`host_factor`]'s calibration work takes on the reference host, in
/// milliseconds. It sets the unit of the host-speed correction: corrected
/// figures read as if the host had run at that speed throughout.
pub const CALIBRATION_REFERENCE_MS: f64 = 25.0;

/// How slowly the host runs right now, relative to the reference: the time
/// of a fixed piece of calibration work over [`CALIBRATION_REFERENCE_MS`]
/// (1.0 at reference speed, 1.3 when the work took 30% longer).
///
/// The host is shared with other tenants, whose load changes how fast this
/// process runs by up to 2x over seconds to minutes, far more than the
/// run-to-run noise of the program. The calibration work belongs to no
/// layer of the program (sorting, hashing and ordered-map updates over a
/// working set of a few MiB, whose speed follows the program's under that
/// load), so dividing a time measured next to it by this factor removes the
/// host's drift and keeps every change to the program.
pub fn host_factor() -> f64 {
    use std::collections::{BTreeMap, HashMap};
    use std::hash::BuildHasherDefault;
    let start = std::time::Instant::now();
    let mut rng = Rng::new(1);
    let mut keys: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let mut acc = keys[keys.len() / 2];
    let mut hashed: HashMap<
        u64,
        u64,
        BuildHasherDefault<std::collections::hash_map::DefaultHasher>,
    > = HashMap::default();
    for i in 0..100_000u64 {
        let k = rng.next_u64() % 40_000;
        *hashed.entry(k).or_insert(0) += i;
        if let Some(v) = hashed.get(&(k ^ 1)) {
            acc ^= *v;
        }
    }
    let mut ordered = BTreeMap::new();
    for i in 0..60_000u64 {
        let k = rng.next_u64() % 30_000;
        ordered.insert(k, i);
        if let Some((_, v)) = ordered.range(k..).next() {
            acc ^= *v;
        }
    }
    std::hint::black_box(acc);
    ms(start.elapsed()) / CALIBRATION_REFERENCE_MS
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Quantile `q` of raw samples, linearly interpolated between order
/// statistics. Exact: no bucketing.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail quantile to report for `n` samples: 0.99 when at least ten
/// samples lie beyond it, else the highest quantile that keeps ten beyond
/// it, and the median when there are too few samples for any tail.
pub fn tail_q(n: usize) -> f64 {
    if n < 20 {
        0.5
    } else {
        (1.0 - 10.0 / n as f64).min(0.99)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One window of a timed phase: the ops it completed, the wall and process
/// CPU time it took, and the host factor measured around it.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub ops: u64,
    pub wall: Duration,
    pub cpu: Duration,
    pub host: f64,
}

impl Window {
    /// Host-corrected wall time per op, ms.
    pub fn op_ms(&self) -> f64 {
        ms(self.wall) / self.ops as f64 / self.host
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that failed, were refused, or whose output did not match
    /// the oracle.
    pub failed: u64,
    /// End-to-end metrics (tracing off).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced run). Layers this workload does not
    /// exercise are absent and reported as 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample counts, exact counts, and input digests, printed with the
    /// provenance line.
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.insert(key, value.to_string());
    }

    /// Record `ok_share` and `peak_rss_mb`, the two end-to-end metrics
    /// every workload derives the same way. The peak is read when the timed
    /// phases end, before the oracle runs.
    pub fn finish(&mut self, peak_rss_mb: f64) {
        self.e2e.insert("ok_share", self.ok_share());
        self.e2e.insert("peak_rss_mb", peak_rss_mb);
    }

    /// `ops_per_s` and `cpu_ms_per_op` as medians over windows of the
    /// timed phase, each window corrected by its host factor. The raw
    /// (uncorrected) medians and the host factor go to the notes.
    pub fn throughput(&mut self, windows: &[Window]) {
        let per = |f: &dyn Fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
        self.e2e.insert("ops_per_s", per(&|w| 1e3 / w.op_ms()));
        self.e2e
            .insert("cpu_ms_per_op", per(&|w| ms(w.cpu) / w.ops as f64 / w.host));
        self.note(
            "raw_ops_per_s",
            per(&|w| w.ops as f64 / w.wall.as_secs_f64()),
        );
        self.note("raw_cpu_ms_per_op", per(&|w| ms(w.cpu) / w.ops as f64));
        self.note("host_factor", per(&|w| w.host));
        self.note("throughput_windows", windows.len());
    }

    /// The latency pair every workload reports, from raw per-op samples in
    /// milliseconds grouped by window: each quantile is taken per window
    /// and the median over windows reported, so a few windows slowed from
    /// outside the process cannot fill the tail.
    pub fn latency(&mut self, windows: &[Vec<f64>]) {
        let smallest = windows.iter().map(Vec::len).min().unwrap_or(0);
        let q = tail_q(smallest);
        let per = |q: f64| median(&windows.iter().map(|w| quantile(w, q)).collect::<Vec<_>>());
        self.e2e.insert("latency_p50_ms", per(0.5));
        self.e2e.insert("latency_p99_ms", per(q));
        self.note(
            "latency_samples",
            windows.iter().map(Vec::len).sum::<usize>(),
        );
        self.note("latency_windows", windows.len());
        self.note("latency_tail_quantile", q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_exactly() {
        let s: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&s), 51.0);
        assert_eq!(quantile(&s, 0.99), 100.0);
        assert_eq!(quantile(&[3.0, 1.0], 0.5), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(10_000), 0.99);
        assert_eq!(tail_q(100), 0.9);
        assert_eq!(tail_q(5), 0.5);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
    }
}

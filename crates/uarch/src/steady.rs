//! Exact steady-state detection for the cycle-level loop simulators
//! (`exec`'s event engine and `mca`'s queue simulation).
//!
//! Both simulators run a loop kernel for a fixed number of iterations and
//! report numbers that depend only on a few per-iteration retire events.
//! Once the simulated machine state *relative to the current cycle and the
//! retired-iteration count* repeats, the execution is periodic: the
//! future replays the recorded past shifted by (Δ iterations, Δ cycles).
//! Every later retire event then follows by integer arithmetic instead of
//! simulation — exactly, not approximately.
//!
//! This module owns the parts that do not depend on the simulator:
//!
//! * [`SteadyState`] — the fingerprint buffers, a ring of the last
//!   `SAMPLE_WINDOW` samples, the `SAMPLE_BUDGET` per run, and the
//!   hash-then-exact match that yields a [`Period`] — on the whole state,
//!   or on a cheap key first and the rest of the state only once the key
//!   repeats;
//! * [`Period::extrapolate`] — the closed-form value of any per-iteration
//!   series (retire cycle, issued-µop count) at an iteration the
//!   simulation has not reached;
//! * [`push_issue_row`] — the shared encoding of one issue-time row,
//!   clamped once every read of it would see the value as available.
//!
//! Each simulator writes its own state into [`SteadyState::begin`]'s
//! buffer (and, for a split fingerprint, a closure that writes the rest),
//! quotiented by future-equivalence (coordinates that can no
//! longer influence a later cycle are clamped to their class), and decides
//! for itself how to use a period: close the run in closed form, shift its
//! state forward a whole number of periods, or keep simulating.
//!
//! Debug builds re-check the invariants the extrapolation rests on:
//! samples arrive in strictly increasing (iteration, cycle) order, a
//! period is never empty, and the retire-cycle history a period is applied
//! to agrees with the two samples that defined it.

use std::collections::VecDeque;

/// Samples kept live, as a ring: once the schedule is periodic the
/// matching sample is at most one period old, and pre-steady samples
/// (taken while the machine is still filling) rotate out harmlessly.
const SAMPLE_WINDOW: usize = 64;

/// Total fingerprints recorded in one run before giving up on
/// steady-state detection — a backstop so aperiodic schedules stop paying
/// for sampling.
const SAMPLE_BUDGET: usize = 768;

/// "Not issued yet" in an issue-time row.
pub const NOT_ISSUED: u64 = u64::MAX;

/// A fingerprint word for an issue-time row whose every value has issued
/// and matured: the whole row collapses to this one sentinel. Never
/// collides with the per-value words ([`FP_NOT_ISSUED`], [`FP_MATURE`],
/// or `t - now ≤ 0`), so the variable-width encoding is uniquely
/// decodable.
const FP_ROW_MATURE: i64 = i64::MAX;
/// A fingerprint word for a single matured issue time.
const FP_MATURE: i64 = i64::MAX - 1;
/// A fingerprint word for an issue-time row with no issues yet.
const FP_ROW_EMPTY: i64 = i64::MAX - 2;
/// A fingerprint word for a single value that has not issued yet.
pub const FP_NOT_ISSUED: i64 = i64::MIN;

/// Encode one row of issue times relative to `now` into `fp`.
///
/// `mature(t)` must hold exactly when every future read of issue time `t`
/// sees the result as available; such values (and rows made only of them)
/// are clamped to one class, so stale history cannot delay a match.
pub fn push_issue_row(fp: &mut Vec<i64>, row: &[u64], now: u64, mature: impl Fn(u64) -> bool) {
    if row.iter().all(|&t| t == NOT_ISSUED) {
        fp.push(FP_ROW_EMPTY);
    } else if row.iter().all(|&t| t != NOT_ISSUED && mature(t)) {
        fp.push(FP_ROW_MATURE);
    } else {
        let base = now as i64;
        fp.extend(row.iter().map(|&t| {
            if t == NOT_ISSUED {
                FP_NOT_ISSUED
            } else if mature(t) {
                FP_MATURE
            } else {
                t as i64 - base
            }
        }));
    }
}

/// A detected period: from the earlier matching sample on, every
/// `iters` retired iterations take exactly `cycles` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Period {
    /// Retired-iteration count at the earlier matching sample.
    pub retired: usize,
    /// Cycle of the earlier matching sample.
    pub cycle: u64,
    /// Iterations per period (Δk ≥ 1).
    pub iters: usize,
    /// Cycles per period (Δc ≥ 1).
    pub cycles: u64,
}

impl Period {
    /// Value at retired count `k` of a per-iteration series recorded as
    /// `series[k - 1]` for every count up to the later sample, which
    /// advances by `step` per period. `k` must not precede the period.
    pub fn extrapolate(&self, series: &[u64], k: usize, step: u64) -> u64 {
        debug_assert!(k >= self.retired, "extrapolating before the period");
        let m = k - self.retired;
        series[self.retired - 1 + m % self.iters] + (m / self.iters) as u64 * step
    }

    /// [`extrapolate`](Self::extrapolate) over the retire-cycle series
    /// (`retire_cycle[k - 1]` = the cycle on which the `k`-th iteration
    /// retired), whose step is the period's cycle count.
    pub fn retire_cycle(&self, retire_cycle: &[u64], k: usize) -> u64 {
        #[cfg(debug_assertions)]
        {
            // Both samples were taken on the cycle their iteration count
            // was reached, so the history must reproduce them.
            assert_eq!(
                retire_cycle[self.retired - 1],
                self.cycle,
                "steady: period start disagrees with the retire history"
            );
            assert_eq!(
                retire_cycle[self.retired + self.iters - 1],
                self.cycle + self.cycles,
                "steady: period end disagrees with the retire history"
            );
        }
        self.extrapolate(retire_cycle, k, self.cycles)
    }
}

#[derive(Debug)]
struct Sample {
    key_hash: u64,
    key: Vec<i64>,
    /// The rest of the state, when it was built for this sample.
    rest: Option<Vec<i64>>,
    retired: usize,
    now: u64,
}

/// Fingerprint sampling and matching for one simulation run; reusable
/// across runs (sample buffers are recycled, so steady use allocates
/// nothing).
///
/// A fingerprint comes in two parts: a *key* the simulator writes into
/// [`begin`](Self::begin)'s buffer at every sample, and a *rest* that
/// [`observe_split`](Self::observe_split) asks for only once the key has
/// repeated. Two samples match when both parts are equal. A simulator
/// whose full state is expensive to encode puts a cheap summary in the
/// key, so samples whose summary never repeats cost only the summary; the
/// price is one extra period before a match, since the first sample with
/// a repeated key has no earlier rest to compare against.
/// [`observe`](Self::observe) keys on the whole state.
#[derive(Debug, Default)]
pub struct SteadyState {
    key: Vec<i64>,
    rest: Vec<i64>,
    samples: VecDeque<Sample>,
    pool: Vec<Vec<i64>>,
    taken: usize,
    done: bool,
}

impl SteadyState {
    /// Forget every sample and re-arm detection for a new run.
    pub fn reset(&mut self) {
        for s in self.samples.drain(..) {
            recycle(&mut self.pool, s);
        }
        self.key.clear();
        self.taken = 0;
        self.done = false;
    }

    /// Whether detection is still running (no period found, budget left).
    pub fn active(&self) -> bool {
        !self.done
    }

    /// Stop sampling for the rest of the run.
    pub fn stop(&mut self) {
        self.done = true;
    }

    /// Fingerprints recorded in this run.
    pub fn samples_taken(&self) -> usize {
        self.taken
    }

    /// The cleared fingerprint (key) buffer, for the simulator to fill.
    pub fn begin(&mut self) -> &mut Vec<i64> {
        self.key.clear();
        &mut self.key
    }

    /// The fingerprint (key) last written through [`begin`](Self::begin).
    pub fn fingerprint(&self) -> &[i64] {
        &self.key
    }

    /// Match the current fingerprint, taken with `retired` iterations
    /// retired at cycle `now`, against the recorded samples. A match ends
    /// detection and returns the period; otherwise the fingerprint is
    /// recorded (or, once the budget is spent, detection ends).
    pub fn observe(&mut self, retired: usize, now: u64) -> Option<Period> {
        self.observe_with(retired, now, true, |_| {})
    }

    /// [`observe`](Self::observe) for a two-part fingerprint: the key is
    /// in [`begin`](Self::begin)'s buffer, and `rest` writes the remainder
    /// of the state — called only when an earlier sample has the same key.
    pub fn observe_split(
        &mut self,
        retired: usize,
        now: u64,
        rest: impl FnOnce(&mut Vec<i64>),
    ) -> Option<Period> {
        self.observe_with(retired, now, false, rest)
    }

    fn observe_with(
        &mut self,
        retired: usize,
        now: u64,
        eager: bool,
        rest: impl FnOnce(&mut Vec<i64>),
    ) -> Option<Period> {
        #[cfg(debug_assertions)]
        if let Some(last) = self.samples.back() {
            assert!(
                retired > last.retired && now > last.now,
                "steady: sample ({retired}, {now}) does not follow ({}, {})",
                last.retired,
                last.now
            );
        }
        let key_hash = fingerprint_hash(&self.key);
        let key = &self.key;
        let seen = self
            .samples
            .iter()
            .any(|s| s.key_hash == key_hash && s.key == *key);
        let built = seen || eager;
        if built {
            self.rest.clear();
            rest(&mut self.rest);
        }
        if seen {
            let (key, rest) = (&self.key, &self.rest);
            let prior = self
                .samples
                .iter()
                .find(|s| s.key_hash == key_hash && s.key == *key && s.rest.as_ref() == Some(rest))
                .map(|s| (s.retired, s.now));
            if let Some((p_retired, p_now)) = prior {
                self.done = true;
                return Some(Period {
                    retired: p_retired,
                    cycle: p_now,
                    iters: retired - p_retired,
                    cycles: now - p_now,
                });
            }
        }
        if self.taken >= SAMPLE_BUDGET {
            self.done = true;
            return None;
        }
        self.taken += 1;
        if self.samples.len() == SAMPLE_WINDOW {
            let old = self.samples.pop_front().expect("ring is full");
            recycle(&mut self.pool, old);
        }
        let key = pooled_copy(&mut self.pool, &self.key);
        let rest = built.then(|| pooled_copy(&mut self.pool, &self.rest));
        self.samples.push_back(Sample {
            key_hash,
            key,
            rest,
            retired,
            now,
        });
        None
    }
}

/// Return a dropped sample's buffers to `pool`.
fn recycle(pool: &mut Vec<Vec<i64>>, s: Sample) {
    pool.push(s.key);
    pool.extend(s.rest.filter(|r| r.capacity() > 0));
}

/// `src` in a buffer from `pool` (an empty `src` needs none).
fn pooled_copy(pool: &mut Vec<Vec<i64>>, src: &[i64]) -> Vec<i64> {
    if src.is_empty() {
        return Vec::new();
    }
    let mut v = pool.pop().unwrap_or_default();
    v.clear();
    v.extend_from_slice(src);
    v
}

/// FNV-1a over the fingerprint words in four interleaved lanes (so the
/// multiply chains overlap), folded together with the length — a cheap
/// pre-filter before the exact comparison (matches are confirmed, never
/// trusted from the hash).
fn fingerprint_hash(fp: &[i64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [0xcbf2_9ce4_8422_2325u64; 4];
    let chunks = fp.chunks_exact(4);
    let tail = chunks.remainder();
    for c in chunks {
        for (h, &v) in lanes.iter_mut().zip(c) {
            *h = (*h ^ v as u64).wrapping_mul(PRIME);
        }
    }
    let mut h = fp.len() as u64;
    for v in lanes.into_iter().chain(tail.iter().map(|&v| v as u64)) {
        h = (h ^ v).wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed a synthetic periodic trace: states repeat every 3 samples
    /// after 2 warm-up samples, each sample one iteration and 5 cycles on.
    #[test]
    fn finds_the_period_and_extrapolates_exactly() {
        let mut st = SteadyState::default();
        let states: [&[i64]; 8] = [&[9], &[8], &[1, 2], &[3], &[4], &[1, 2], &[3], &[4]];
        let mut retire_cycle = Vec::new();
        let mut period = None;
        for (i, s) in states.iter().enumerate() {
            let (k, now) = (i + 1, 10 + 5 * i as u64);
            retire_cycle.push(now);
            st.begin().extend_from_slice(s);
            if let Some(p) = st.observe(k, now) {
                period = Some(p);
                break;
            }
        }
        let p = period.expect("periodic trace matches");
        assert_eq!((p.retired, p.iters, p.cycles), (3, 3, 15));
        assert!(!st.active());
        // The k-th retirement of the continued trace is at 10 + 5(k-1).
        for k in 3..40 {
            assert_eq!(p.retire_cycle(&retire_cycle, k), 10 + 5 * (k as u64 - 1));
        }
        assert_eq!(p.extrapolate(&[7, 7, 7, 8, 9, 10], 9, 100), 207);
    }

    /// A split fingerprint builds the rest only for repeated keys, and
    /// matches one period later than a whole-state fingerprint would.
    #[test]
    fn split_fingerprint_builds_the_rest_only_for_repeated_keys() {
        let mut st = SteadyState::default();
        // Keys repeat every 2 samples from the start; the rest repeats
        // every 2 samples only from the third sample on.
        let keys = [1, 2, 1, 2, 1, 2, 1];
        let rests = [7, 8, 9, 10, 9, 10, 9];
        let mut built = Vec::new();
        let mut period = None;
        for (i, (&key, &rest)) in keys.iter().zip(&rests).enumerate() {
            st.begin().push(key);
            period = st.observe_split(i + 1, 10 * (i as u64 + 1), |fp| {
                built.push(i + 1);
                fp.push(rest);
            });
            if period.is_some() {
                break;
            }
        }
        // Samples 1 and 2 have new keys: no rest built. Sample 3 repeats
        // sample 1's key but sample 1 has no rest; sample 5 matches 3.
        assert_eq!(built, [3, 4, 5]);
        let p = period.expect("periodic from the third sample");
        assert_eq!((p.retired, p.iters, p.cycles), (3, 2, 20));
    }

    #[test]
    fn ring_and_budget_bound_the_work() {
        let mut st = SteadyState::default();
        for k in 1..=SAMPLE_BUDGET {
            st.begin().push(k as i64);
            assert_eq!(st.observe(k, k as u64), None);
        }
        assert!(st.active());
        assert_eq!(st.samples.len(), SAMPLE_WINDOW);
        st.begin().push(-1);
        assert_eq!(
            st.observe(SAMPLE_BUDGET + 1, SAMPLE_BUDGET as u64 + 1),
            None
        );
        assert!(!st.active(), "budget spent ends detection");
        // A reset re-arms detection for the next run.
        st.reset();
        assert!(st.active());
        assert_eq!(st.samples_taken(), 0);
    }

    #[test]
    fn issue_rows_clamp_mature_values() {
        let mut fp = Vec::new();
        let mature = |t: u64| t + 3 <= 11;
        push_issue_row(&mut fp, &[NOT_ISSUED, NOT_ISSUED], 10, mature);
        push_issue_row(&mut fp, &[1, 8], 10, mature);
        push_issue_row(&mut fp, &[1, 9, NOT_ISSUED], 10, mature);
        assert_eq!(
            fp,
            [FP_ROW_EMPTY, FP_ROW_MATURE, FP_MATURE, -1, FP_NOT_ISSUED]
        );
    }
}

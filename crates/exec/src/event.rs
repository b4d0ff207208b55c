//! Event-driven simulator engine: identical cycle semantics to
//! [`crate::reference`], minus the time spent simulating cycles in which
//! provably nothing can happen — and minus the iterations after the
//! machine state starts repeating.
//!
//! Four mechanisms, all exact:
//!
//! 1. **Event clock.** After processing a cycle the engine computes the
//!    earliest future cycle on which any phase could make progress — the
//!    head of the window completing (unblocks retirement and ROB space),
//!    dispatch fitting again, or the nearest pending-µ-op wake-up (see
//!    below) — and jumps `now` straight there. Every cycle the naive
//!    engine would have processed in between is a no-op by construction:
//!    retirement is blocked on the same head, dispatch on the same
//!    resource, and no pending µ-op is both ready and able to win a port
//!    any earlier (a failed same-cycle arbitration retry is covered by
//!    the `now + 1` floor on every candidate).
//! 2. **Wake-up queue.** Every pending window entry carries a *lower
//!    bound* on its next possible issue cycle (`InFlight::earliest`),
//!    derived only from monotone quantities — recorded producer issue
//!    times, unissued producers' own bounds (producers are older, so
//!    their bound is final when the consumer is examined), and the busy
//!    horizons of the eligible ports — and mirrored as exactly one
//!    `(earliest, key)` record in a min-heap. The issue phase examines
//!    only the entries whose record fell due (oldest first), re-arming
//!    each failure at its new bound. Because a true lower bound can be
//!    loose but never late, a wake-up can cost a no-op examination but
//!    can never delay a real issue: outcomes are untouched, only the
//!    cycles that re-examine an entry change.
//! 3. **Steady-state early exit.** At the end of any cycle in which an
//!    iteration retired, the engine fingerprints the machine state into
//!    the shared [`uarch::steady`] detector (the same one `mca` uses)
//!    *relative to `now` and the retired-iteration count*, quotiented by
//!    future-equivalence: coordinates that can no longer influence any
//!    future phase (busy horizons and completions already due, issue
//!    times mature for even the heaviest edge, the behaviourally dead
//!    `issue_last`) are clamped to their equivalence class so stale
//!    history cannot delay a match. If the fingerprint matches an
//!    earlier sample, the execution is periodic — the future repeats the
//!    recorded past shifted by (Δ iterations, Δ cycles) — so the cycle of
//!    the final retirement follows by integer arithmetic, not simulation.
//!    The closed-form extrapolation through the drain is gated to
//!    schedules where it is provably exact: no port-blocking µ-ops
//!    (`occupancy > 1` lets a *younger* instruction delay an *older* one,
//!    so the post-dispatch drain need not stay periodic). Kernels with
//!    blocking µ-ops instead *teleport* — the whole machine state is
//!    advanced a whole number of periods, which is exact while dispatch
//!    continues — and then simulate the drain for real. The warm-up
//!    boundary needs no gate: if it has not been reached yet, its retire
//!    cycle and issued-µop count are extrapolated with the same integer
//!    arithmetic, from the per-iteration history recorded up to the
//!    match.
//! 4. **Scratch arena.** Every buffer lives in [`SimScratch`]: the issue
//!    matrix is one flat `Vec<u64>`, dependence edges are a CSR built
//!    with a counting sort, and per-instance µ-op state is a 64-bit mask
//!    in `InFlight` instead of a heap `Vec` — the untraced path does no
//!    per-instruction allocation at all. Back-to-back `simulate()` calls
//!    reuse everything.

use crate::{RawOutcome, SimConfig, SimResult, TraceEvent};
use incore::depgraph::DepGraph;
use uarch::steady::{self, SteadyState};
use uarch::{InstrClass, InstrDesc, Machine};

/// Sentinel for "not yet issued" in the flat issue matrix and in
/// [`InFlight::issue_done`] / [`InFlight::completion`].
const NONE: u64 = steady::NOT_ISSUED;

/// Per-instruction-instance bookkeeping. µ-op issue state is an inline
/// bitmask + two cycle numbers, so the untraced path never allocates per
/// instance (instructions wider than 64 µ-ops fall back to the reference
/// engine before we get here).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    iter: usize,
    idx: usize,
    /// Cycle at which the instruction was dispatched.
    dispatched: u64,
    /// Bit `ui` set ⇔ µ-op `ui` has issued.
    issued_mask: u64,
    /// Latest µ-op issue cycle so far (meaningful once `issued_mask != 0`).
    issue_last: u64,
    /// Cycle at which the last µ-op issued; [`NONE`] until fully issued.
    issue_done: u64,
    /// Cycle at which the instruction may retire; [`NONE`] until known.
    completion: u64,
    /// Lower bound on the next cycle this entry could issue a µ-op — a
    /// pure cache (never affects outcomes, only which cycles re-examine
    /// the entry). Maintained from monotone quantities only: recorded
    /// producer issue times, producers' own bounds, port busy horizons,
    /// and `now + 1` after a failed attempt.
    earliest: u64,
}

/// Reusable simulation buffers. One instance per worker thread (or one
/// per caller, via [`crate::simulate_with_scratch`]) amortizes every
/// allocation the simulator needs across an arbitrary number of runs on
/// arbitrary kernels and machines.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// CSR row offsets into `in_edges`: incoming edges of instruction
    /// `i` are `in_edges[in_start[i]..in_start[i + 1]]`.
    in_start: Vec<usize>,
    /// Cursor scratch for the counting sort that fills `in_edges`.
    in_cursor: Vec<usize>,
    /// `(from, weight, wrap)` incoming dependence edges, grouped by `to`.
    in_edges: Vec<(usize, f64, bool)>,
    /// Flat `[iter][idx]` issue matrix; [`NONE`] = not yet issued.
    issue_done: Vec<u64>,
    /// Per-port busy horizon (`port_busy[p] > now` ⇔ blocked).
    port_busy: Vec<u64>,
    /// Per-port "already granted this cycle" flags.
    port_taken: Vec<bool>,
    /// In-flight window (entries before `retire_head` already retired).
    window: Vec<InFlight>,
    /// Cycle on which iteration `i` retired (filled as the run proceeds).
    retire_cycle: Vec<u64>,
    /// `issued_uops_total` at the retire event of iteration `i` — the
    /// basis for extrapolating `warmup_issued` across an early exit.
    retire_issued: Vec<u64>,
    /// Wake-up queue: one `(earliest, iter * n + idx)` record per pending
    /// (dispatched, not fully issued) window entry. The issue phase pops
    /// the records due this cycle; a failed examination re-arms the entry
    /// at its new bound. `next_event` reads the next issue candidate off
    /// the top instead of scanning the window.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    /// Keys popped from `heap` this cycle, sorted back to window order.
    wake: Vec<usize>,
    /// Steady-state detector (fingerprint ring and sample budget).
    steady: SteadyState,
}

pub(crate) fn simulate(
    machine: &Machine,
    cfg: SimConfig,
    descs: &[InstrDesc],
    graph: &DepGraph,
    s: &mut SimScratch,
    mut trace: Option<(&mut Vec<TraceEvent>, usize)>,
) -> SimResult {
    let n = descs.len();
    let total_iters = cfg.warmup + cfg.iterations;
    let np = machine.port_model.num_ports();

    // --- (Re)initialize the arena: resize + overwrite, no steady-state
    // allocations once the buffers have grown to working size.
    s.in_start.clear();
    s.in_start.resize(n + 1, 0);
    for e in &graph.edges {
        s.in_start[e.to + 1] += 1;
    }
    for i in 0..n {
        s.in_start[i + 1] += s.in_start[i];
    }
    s.in_cursor.clear();
    s.in_cursor.extend_from_slice(&s.in_start[..n]);
    s.in_edges.clear();
    s.in_edges.resize(graph.edges.len(), (0, 0.0, false));
    for e in &graph.edges {
        let slot = s.in_cursor[e.to];
        s.in_edges[slot] = (e.from, e.weight, e.wrap);
        s.in_cursor[e.to] += 1;
    }
    s.issue_done.clear();
    s.issue_done.resize(total_iters * n, NONE);
    s.port_busy.clear();
    s.port_busy.resize(np, 0);
    s.port_taken.clear();
    s.port_taken.resize(np, false);
    s.window.clear();
    s.retire_cycle.clear();
    s.retire_cycle.resize(total_iters, 0);
    s.retire_issued.clear();
    s.retire_issued.resize(total_iters, 0);
    s.heap.clear();
    // Owned for the run so the fingerprint can borrow the rest of the
    // arena; handed back (with its recycled buffers) at the end.
    let mut steady = std::mem::take(&mut s.steady);
    steady.reset();

    let sum_uops: u64 = descs.iter().map(|d| d.uop_count() as u64).sum();
    // Heaviest dependence-edge weight: once an issue time is this far in
    // the past it reads as "available" on every remaining edge.
    let wmax = graph.edges.iter().map(|e| e.weight).fold(0.0f64, f64::max);
    let extrapolatable = cfg.early_exit && total_iters > 0;
    // Closed-form extrapolation *through the drain* is exact only when no
    // µ-op holds a port across cycles: a blocking µ-op from a younger
    // instruction can delay an older one, so the schedule after the last
    // dispatch need not follow the periodic pattern. Kernels with such
    // µ-ops still skip the periodic middle — by teleporting the machine
    // state forward a whole number of periods — but then simulate the
    // drain for real.
    let blocking = descs
        .iter()
        .any(|d| d.uops.iter().any(|u| u.occupancy.ceil() as u64 > 1));
    let trace_horizon = trace.as_ref().map_or(0, |(_, m)| *m);

    // Profiling aggregates stay in locals and are emitted once at the end
    // of the run; when the recorder is off the only cost is this one load
    // plus a predictable per-site branch on the cached bool. The span
    // makes the simulator leg visible inside request trace trees.
    let profiling = obs::enabled();
    let _span = profiling.then(|| obs::span("exec:simulate"));
    let mut prof_heap_pops: u64 = 0;
    let mut prof_port_issued: Vec<u64> = if profiling { vec![0; np] } else { Vec::new() };
    let mut prof_teleport_cycles: Option<u64> = None;
    let mut prof_extrapolated_iters: u64 = 0;

    let mut next_dispatch = (0usize, 0usize); // (iter, idx)
    let mut rob_uops: u64 = 0;
    let mut sched_uops: u64 = 0;
    let mut retired_iters = 0usize;
    let mut retire_head = 0usize; // index into `window`
    let mut now: u64 = 0;
    let mut issued_uops_total: u64 = 0;
    let mut warmup_end_cycle: Option<u64> = None;
    let mut warmup_issued: u64 = 0;
    let mut early_exit_iter: Option<usize> = None;

    let max_cycles: u64 = 1_000_000 + (total_iters as u64) * 2_000;

    while retired_iters < total_iters && now < max_cycles {
        let retired_before = retired_iters;

        // --- Retire (in order). ---
        let mut retired = 0u32;
        while retire_head < s.window.len() && retired < machine.retire_width {
            let inst = s.window[retire_head];
            if inst.issue_done != NONE && inst.completion <= now {
                if let Some((ev, max_iters)) = trace.as_mut() {
                    if inst.iter < *max_iters {
                        ev.push(TraceEvent {
                            iter: inst.iter,
                            idx: inst.idx,
                            dispatched: inst.dispatched,
                            issued: inst.issue_done,
                            completed: inst.completion,
                            retired: now,
                        });
                    }
                }
                // NB: an eliminated instruction was charged one ROB slot
                // at dispatch but its uop_count() is 0 — the slot is never
                // released. The reference engine behaves the same way; the
                // asymmetry is kept for bit-identical equivalence (its only
                // other effect is that such kernels never fingerprint-match,
                // because `rob_uops` grows monotonically).
                rob_uops -= descs[inst.idx].uop_count() as u64;
                if inst.idx == n - 1 {
                    retired_iters = inst.iter + 1;
                    s.retire_cycle[inst.iter] = now;
                    s.retire_issued[inst.iter] = issued_uops_total;
                    if retired_iters == cfg.warmup && warmup_end_cycle.is_none() {
                        warmup_end_cycle = Some(now);
                        warmup_issued = issued_uops_total;
                    }
                }
                retire_head += 1;
                retired += 1;
            } else {
                break;
            }
        }
        // Compact the window occasionally.
        if retire_head > 4096 {
            s.window.drain(..retire_head);
            retire_head = 0;
        }

        // --- Dispatch (in order, limited by width / ROB / scheduler). ---
        let mut budget = machine.dispatch_width;
        while budget > 0 && next_dispatch.0 < total_iters {
            let (it, idx) = next_dispatch;
            let nu = descs[idx].uop_count() as u64;
            if nu.max(1) > budget as u64 {
                break; // instruction does not fit in this cycle's group
            }
            if rob_uops + nu.max(1) > machine.rob_size as u64
                || sched_uops + nu > machine.sched_size as u64
            {
                break;
            }
            if nu == 0 {
                // Eliminated instructions complete at dispatch.
                s.issue_done[it * n + idx] = now;
                s.window.push(InFlight {
                    iter: it,
                    idx,
                    dispatched: now,
                    issued_mask: 0,
                    issue_last: now,
                    issue_done: now,
                    completion: now,
                    earliest: now,
                });
                rob_uops += 1; // occupies a ROB slot until retired
            } else {
                s.window.push(InFlight {
                    iter: it,
                    idx,
                    dispatched: now,
                    issued_mask: 0,
                    issue_last: 0,
                    issue_done: NONE,
                    completion: NONE,
                    earliest: now,
                });
                s.heap.push(std::cmp::Reverse((now, it * n + idx)));
                rob_uops += nu;
                sched_uops += nu;
            }
            budget = budget.saturating_sub(nu.max(1) as u32);
            next_dispatch = if idx + 1 == n {
                (it + 1, 0)
            } else {
                (it, idx + 1)
            };
        }

        // --- Issue (oldest first). ---
        for t in s.port_taken.iter_mut() {
            *t = false;
        }
        // Entries from `retire_head` on are consecutive instructions in
        // dispatch order (a teleport shifts exactly this suffix), so the
        // entry for `(iter, idx)` sits at `iter * n + idx - base_key`.
        // Pending entries (including every woken key and every unissued
        // producer) are never retired, so lookups only land in this
        // suffix. Only the entries whose wake-up record fell due are
        // examined, oldest first — by the lower-bound property nothing
        // skipped could have issued this cycle.
        let base_key = s
            .window
            .get(retire_head)
            .map_or(0, |w| w.iter * n + w.idx - retire_head);
        s.wake.clear();
        while let Some(&std::cmp::Reverse((t, key))) = s.heap.peek() {
            if t > now {
                break;
            }
            s.heap.pop();
            s.wake.push(key);
        }
        s.wake.sort_unstable();
        if profiling {
            prof_heap_pops += s.wake.len() as u64;
        }
        for i in 0..s.wake.len() {
            let wi = s.wake[i] - base_key;
            let (w_iter, w_idx) = (s.window[wi].iter, s.window[wi].idx);
            // Readiness: all producers issued and their results available.
            // While checking, rebuild this entry's lower bound from the
            // unsatisfied producers: a recorded issue time gives the exact
            // maturity cycle; an unissued producer contributes its own
            // (already-final-for-this-cycle, since producers are older and
            // scanned first) bound, transitively shifted by the edge weight.
            let mut ready = true;
            let mut bound = 0u64;
            for &(from, weight, wrap) in &s.in_edges[s.in_start[w_idx]..s.in_start[w_idx + 1]] {
                let prod_iter = if wrap {
                    match w_iter.checked_sub(1) {
                        Some(pi) => pi,
                        None => continue, // first iteration: no producer
                    }
                } else {
                    w_iter
                };
                let t = s.issue_done[prod_iter * n + from];
                if t == NONE {
                    ready = false;
                    let ph = s.window[prod_iter * n + from - base_key].earliest;
                    bound = bound.max((ph as f64 + weight).ceil() as u64);
                } else if (t as f64 + weight) > now as f64 {
                    ready = false;
                    bound = bound.max((t as f64 + weight).ceil() as u64);
                }
            }
            if !ready {
                let at = bound.max(now + 1);
                s.window[wi].earliest = at;
                s.heap.push(std::cmp::Reverse((at, s.wake[i])));
                continue;
            }
            // Sanitizer S003: independently re-derive operand maturity for
            // an entry the issue phase deemed ready.
            #[cfg(debug_assertions)]
            {
                let mut ready_at = 0.0f64;
                for &(from, weight, wrap) in &s.in_edges[s.in_start[w_idx]..s.in_start[w_idx + 1]] {
                    let prod_iter = if wrap {
                        match w_iter.checked_sub(1) {
                            Some(pi) => pi,
                            None => continue,
                        }
                    } else {
                        w_iter
                    };
                    let t = s.issue_done[prod_iter * n + from];
                    ready_at = if t == NONE {
                        f64::INFINITY
                    } else {
                        ready_at.max(t as f64 + weight)
                    };
                }
                crate::sanitizer::check_wakeup(w_iter, w_idx, now, ready_at);
            }
            // Try to issue each pending µ-op on a free eligible port.
            let d = &descs[w_idx];
            let mut all_issued = true;
            let mut port_bound = u64::MAX;
            for (ui, u) in d.uops.iter().enumerate() {
                if s.window[wi].issued_mask & (1 << ui) != 0 {
                    continue;
                }
                // Pick the eligible free port with the earliest availability.
                let mut best: Option<usize> = None;
                for p in u.ports.iter() {
                    if s.port_busy[p] <= now && !s.port_taken[p] {
                        best = match best {
                            Some(b) if s.port_busy[b] <= s.port_busy[p] => Some(b),
                            _ => Some(p),
                        };
                    }
                }
                if let Some(p) = best {
                    #[cfg(debug_assertions)]
                    crate::sanitizer::check_port_grant(p, s.port_taken[p], s.port_busy[p], now);
                    s.port_taken[p] = true;
                    if profiling {
                        prof_port_issued[p] += 1;
                    }
                    // A blocking µ-op holds its port beyond this cycle.
                    let occ = u.occupancy.ceil() as u64;
                    if occ > 1 {
                        s.port_busy[p] = now + occ;
                    }
                    let w = &mut s.window[wi];
                    w.issued_mask |= 1 << ui;
                    w.issue_last = w.issue_last.max(now);
                    sched_uops -= 1;
                    issued_uops_total += 1;
                } else {
                    all_issued = false;
                    // Port busy horizons only ever grow, so the earliest of
                    // the eligible ports bounds this µ-op's next chance.
                    let free = u.ports.iter().map(|p| s.port_busy[p]).min().unwrap_or(0);
                    port_bound = port_bound.min(free);
                }
            }
            if all_issued {
                let w = &mut s.window[wi];
                let last = w.issue_last;
                w.issue_done = last;
                let lat = (d.latency as u64).max(1);
                w.completion = if d.class == InstrClass::Store {
                    last + 1
                } else {
                    last + lat
                };
                s.issue_done[w_iter * n + w_idx] = last;
            } else {
                let at = port_bound.max(now + 1);
                s.window[wi].earliest = at;
                s.heap.push(std::cmp::Reverse((at, s.wake[i])));
            }
        }

        // --- Steady-state detection. ---
        if extrapolatable
            && steady.active()
            && retired_iters > retired_before
            && retired_iters >= trace_horizon
            && retired_iters < total_iters
            && next_dispatch.0 < total_iters
        {
            fingerprint(
                steady.begin(),
                s,
                n,
                now,
                retired_iters,
                next_dispatch,
                rob_uops,
                sched_uops,
                retire_head,
                wmax,
            );
            if let Some(period) = steady.observe(retired_iters, now) {
                // Periodic: every Δk iterations cost exactly Δc cycles,
                // for as long as dispatch keeps feeding the window.
                let (dk, dc) = (period.iters, period.cycles);
                // The warm-up boundary may lie in the span being skipped:
                // its retire cycle and issued-µop count follow from the
                // same periodicity, by the same integer arithmetic the
                // reference engine would have observed.
                let warmup_at = |s: &SimScratch, upto: usize| {
                    (cfg.warmup > 0 && cfg.warmup <= upto).then(|| {
                        (
                            period.retire_cycle(&s.retire_cycle, cfg.warmup),
                            period.extrapolate(&s.retire_issued, cfg.warmup, dk as u64 * sum_uops),
                        )
                    })
                };
                if !blocking {
                    // No port-blocking µ-ops ⇒ younger instructions never
                    // delay older ones ⇒ the periodic retire pattern holds
                    // through the drain, and the final retirement is a
                    // closed-form expression.
                    let final_t = period.retire_cycle(&s.retire_cycle, total_iters);
                    if final_t < max_cycles {
                        if warmup_end_cycle.is_none() {
                            if let Some((wc, wi)) = warmup_at(s, total_iters) {
                                warmup_end_cycle = Some(wc);
                                warmup_issued = wi;
                            }
                        }
                        early_exit_iter = Some(retired_iters);
                        if profiling {
                            prof_extrapolated_iters = (total_iters - retired_iters) as u64;
                        }
                        retired_iters = total_iters;
                        // Every dispatched µ-op issues before the final
                        // retirement, so the grand total is exact.
                        issued_uops_total = total_iters as u64 * sum_uops;
                        now = final_t + 1;
                        break;
                    }
                    // The run would hit the watchdog mid-pattern; the
                    // formula above cannot describe a truncated run, so
                    // keep simulating (detection has ended).
                } else {
                    // Teleport: advance the whole machine state by `j`
                    // whole periods — exact while dispatch continues, for
                    // any kernel — then simulate the drain for real. A
                    // mid-iteration cursor needs its iteration to remain
                    // in range after the jump.
                    let j = (total_iters - next_dispatch.0 - usize::from(next_dispatch.1 > 0)) / dk;
                    let jdc = j as u64 * dc;
                    let jdk = j * dk;
                    if j >= 1 && now + jdc < max_cycles {
                        // Sanitizer S004: the detector still holds the pre-jump
                        // fingerprint; the post-jump state must reproduce
                        // it bit for bit (all coordinates are relative).
                        #[cfg(debug_assertions)]
                        let fp_pre = steady.fingerprint().to_vec();
                        if warmup_end_cycle.is_none() {
                            if let Some((wc, wi)) = warmup_at(s, retired_iters + jdk) {
                                warmup_end_cycle = Some(wc);
                                warmup_issued = wi;
                            }
                        }
                        // Issue-matrix rows still reachable after the jump
                        // (highest first: source and destination overlap).
                        let lo = retired_iters - 1;
                        let hi = next_dispatch.0.min(total_iters - 1 - jdk);
                        for it in (lo..=hi).rev() {
                            for i in 0..n {
                                let t = s.issue_done[it * n + i];
                                s.issue_done[(it + jdk) * n + i] =
                                    if t == NONE { NONE } else { t + jdc };
                            }
                        }
                        for w in &mut s.window[retire_head..] {
                            w.iter += jdk;
                            w.dispatched += jdc;
                            w.earliest += jdc;
                            if w.issued_mask != 0 || w.issue_done != NONE {
                                w.issue_last += jdc;
                            }
                            if w.issue_done != NONE {
                                w.issue_done += jdc;
                                w.completion += jdc;
                            }
                        }
                        // Horizons at or before `now` stay in the past.
                        for p in s.port_busy.iter_mut() {
                            *p += jdc;
                        }
                        // Wake-up records hold pre-jump keys and times;
                        // rebuild them from the shifted window.
                        s.heap.clear();
                        for w in &s.window[retire_head..] {
                            if w.issue_done == NONE {
                                s.heap
                                    .push(std::cmp::Reverse((w.earliest, w.iter * n + w.idx)));
                            }
                        }
                        early_exit_iter = Some(retired_iters);
                        if profiling {
                            prof_teleport_cycles = Some(jdc);
                            prof_extrapolated_iters = jdk as u64;
                        }
                        retired_iters += jdk;
                        next_dispatch.0 += jdk;
                        issued_uops_total += jdk as u64 * sum_uops;
                        now += jdc;
                        #[cfg(debug_assertions)]
                        if next_dispatch.0 < total_iters {
                            let fp_post = steady.begin();
                            fingerprint(
                                fp_post,
                                s,
                                n,
                                now,
                                retired_iters,
                                next_dispatch,
                                rob_uops,
                                sched_uops,
                                retire_head,
                                wmax,
                            );
                            crate::sanitizer::check_teleport(&fp_pre, fp_post);
                        }
                    }
                    // One jump per run: afterwards the periodic middle is
                    // gone and only the drain remains.
                }
            }
        }

        if retired_iters >= total_iters {
            now += 1; // the naive loop increments before seeing the exit
            break;
        }

        // --- Jump to the next cycle on which anything can happen. ---
        let next_now = next_event(
            s,
            machine,
            descs,
            now,
            total_iters,
            next_dispatch,
            rob_uops,
            sched_uops,
            retire_head,
        )
        .min(max_cycles);
        // Sanitizer S001: the `now + 1` floor in `next_event` plus the
        // `now < max_cycles` loop guard make this jump strictly forward.
        #[cfg(debug_assertions)]
        crate::sanitizer::check_clock_advance(now, next_now);
        now = next_now;
    }

    if profiling {
        obs::counter("sim.calls", 1);
        obs::counter("sim.cycles", now);
        obs::counter("sim.heap.pops", prof_heap_pops);
        obs::counter("sim.samples.taken", steady.samples_taken() as u64);
        obs::counter(
            if early_exit_iter.is_some() {
                "sim.steady.hit"
            } else {
                "sim.steady.miss"
            },
            1,
        );
        obs::counter("sim.iters.extrapolated", prof_extrapolated_iters);
        if let Some(jdc) = prof_teleport_cycles {
            obs::observe("sim.teleport.cycles", jdc);
        }
        for (p, &cnt) in prof_port_issued.iter().enumerate() {
            let name = machine.port_model.ports[p].name;
            obs::counter(&format!("sim.port.{name}.issued"), cnt);
            // Per-port occupancy (issue slots used per 100 cycles), one
            // observation per simulated kernel.
            if let Some(pct) = (cnt * 100).checked_div(now) {
                obs::observe(&format!("sim.port.{name}.occupancy_pct"), pct);
            }
        }
    }

    s.steady = steady;
    crate::finish(
        cfg,
        total_iters,
        RawOutcome {
            now,
            retired_iters,
            issued_uops_total,
            warmup_end_cycle,
            warmup_issued,
            early_exit_iter,
        },
    )
}

/// Earliest future cycle on which retire, dispatch or issue could make
/// progress. Returns `u64::MAX` when the machine is provably wedged (the
/// caller clamps to the watchdog limit).
#[allow(clippy::too_many_arguments)]
fn next_event(
    s: &SimScratch,
    machine: &Machine,
    descs: &[InstrDesc],
    now: u64,
    total_iters: usize,
    next_dispatch: (usize, usize),
    rob_uops: u64,
    sched_uops: u64,
    retire_head: usize,
) -> u64 {
    let floor = now + 1;
    // Dispatch: would the next instruction fit next cycle? (Mirrors the
    // dispatch-phase gates with a full-width budget.)
    if next_dispatch.0 < total_iters {
        let nu = descs[next_dispatch.1].uop_count() as u64;
        if nu.max(1) <= machine.dispatch_width as u64
            && rob_uops + nu.max(1) <= machine.rob_size as u64
            && sched_uops + nu <= machine.sched_size as u64
        {
            return floor;
        }
    }
    let mut next = u64::MAX;
    // Retirement: only the window head can unblock it.
    if let Some(head) = s.window.get(retire_head) {
        if head.issue_done != NONE {
            next = head.completion.max(floor);
            if next == floor {
                return floor;
            }
        }
    }
    // Issue: every pending entry has exactly one wake-up record holding a
    // lower bound on its next possible issue cycle ([`InFlight::earliest`]),
    // re-armed whenever the entry is examined — so the next issue event is
    // the top of the heap. A bound can be loose (the woken cycle then
    // re-arms it, at worst costing a no-op cycle) but is never late, so no
    // real issue is skipped.
    if let Some(&std::cmp::Reverse((t, _))) = s.heap.peek() {
        next = next.min(t.max(floor));
    }
    next
}

/// Record the machine state relative to (`now`, `retired`) into `fp`,
/// *quotiented by future-equivalence*: two equal fingerprints ⇒ the
/// executions from those two points are identical modulo the
/// (Δ iterations, Δ cycles) shift. Coordinates that can no longer
/// influence any future phase are clamped to their equivalence class —
/// a busy horizon or completion due by the next simulated cycle behaves
/// like any other, and an issue time mature for even the heaviest edge
/// always reads as "operand available" — so dead history cannot delay a
/// match. `InFlight::issue_last` is absent entirely: it never exceeds
/// `now`, and the µ-op issue that would read it overwrites it with its
/// own (strictly later) cycle first.
#[allow(clippy::too_many_arguments)]
fn fingerprint(
    fp: &mut Vec<i64>,
    s: &SimScratch,
    n: usize,
    now: u64,
    retired: usize,
    next_dispatch: (usize, usize),
    rob_uops: u64,
    sched_uops: u64,
    retire_head: usize,
    wmax: f64,
) {
    let base = now as i64;
    let rb = retired as i64;
    // First cycle the simulation will see again; anything available by
    // then is available at every future read.
    let horizon = now + 1;
    fp.push(next_dispatch.0 as i64 - rb);
    fp.push(next_dispatch.1 as i64);
    fp.push(rob_uops as i64);
    fp.push(sched_uops as i64);
    for &p in &s.port_busy {
        fp.push(p.max(horizon) as i64 - base);
    }
    fp.push((s.window.len() - retire_head) as i64);
    // The window is the consecutive run of instructions ending just
    // before the dispatch cursor, so every entry's (iter, idx) follows
    // from the cursor and the window length already recorded — only µ-op
    // state is pushed per entry. The unissued tail (most of the window
    // under a long dependence chain) carries no state at all; its length
    // is implied by the `live` prefix count.
    let live = s.window[retire_head..]
        .iter()
        .rposition(|w| w.issued_mask != 0 || w.issue_done != NONE)
        .map_or(0, |p| p + 1);
    fp.push(live as i64);
    for w in &s.window[retire_head..retire_head + live] {
        fp.push(w.issued_mask as i64);
        // Consumers read issue times through the matrix, so the entry's
        // own state only matters as "issued or not" (the sentinel) plus
        // the completion cycle, and that only until it falls due.
        fp.push(if w.issue_done != NONE {
            w.completion.max(horizon) as i64 - base
        } else {
            steady::FP_NOT_ISSUED
        });
    }
    // The slice of the issue matrix still reachable by future readiness
    // checks: wrap producers of the oldest unretired iteration through
    // the partially-dispatched iteration. (Rows past `next_dispatch.0`
    // are untouched; rows before `retired - 1` can never be read again.)
    let lo = retired.saturating_sub(1);
    for it in lo..=next_dispatch.0 {
        steady::push_issue_row(fp, &s.issue_done[it * n..(it + 1) * n], now, |t| {
            t as f64 + wmax <= horizon as f64
        });
    }
}

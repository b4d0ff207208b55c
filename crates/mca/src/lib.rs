//! An LLVM-MCA-style throughput predictor — the baseline the paper
//! compares its OSACA models against (Fig. 3).
//!
//! LLVM-MCA is a *simulation-based* predictor built on LLVM's scheduling
//! models. Its documented model differs from both the real hardware and
//! from OSACA's optimistic analytical bound in ways that make it
//! systematically **pessimistic** on streaming kernels (the paper: 75 % of
//! MCA's predictions are slower than the measurement):
//!
//! * **static port binding** — µ-ops are bound to one concrete port at
//!   dispatch (write-port reservation), round-robin over the eligible set,
//!   instead of dynamically picking any free port at issue;
//! * **no rename-stage optimizations** — register moves and zeroing
//!   idioms execute on real ports and carry real latencies (scheduling
//!   models encode them as ordinary instructions);
//! * **full latencies everywhere** — address-writeback updates are
//!   charged the full instruction latency, so pointer-bumping loops stall;
//! * **small per-port reservation queues** ([`PORT_QUEUE`] entries) — a
//!   dependency chain parked in one queue backs up the in-order dispatch
//!   stage, throttling independent work on other ports.
//!
//! The implementation shares the machine descriptions of [`uarch`] but
//! none of the analysis machinery of `incore`, mirroring how LLVM-MCA and
//! OSACA are independent tools reading the same scheduling facts.

#[cfg(test)]
mod corpus_tests;
pub mod timeline;

use isa::dataflow::dataflow;
use isa::Kernel;
use uarch::steady::{self, SteadyState};
use uarch::{InstrClass, InstrDesc, Machine, PortSet, Uop};

/// Prediction result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McaResult {
    /// Predicted steady-state cycles per loop iteration.
    pub cycles_per_iter: f64,
    /// Total µ-ops per iteration after MCA's decomposition.
    pub uops: usize,
    /// Iterations actually retired in simulation before the steady-state
    /// early exit extrapolated the rest (`None` = ran to completion).
    /// Bookkeeping only — never affects the numeric fields, and not part
    /// of the [`uarch::Prediction`].
    pub early_exit_iter: Option<usize>,
}

impl McaResult {
    fn empty() -> Self {
        McaResult {
            cycles_per_iter: 0.0,
            uops: 0,
            early_exit_iter: None,
        }
    }
}

/// The MCA-style baseline as a [`uarch::Predictor`] — the unified entry
/// point batch pipelines and divergence lints dispatch through.
///
/// MCA's number falls out of a queue simulation rather than a closed-form
/// bound, so the prediction carries no per-port pressure view and its
/// bottleneck is [`uarch::Bottleneck::Unattributed`].
#[derive(Debug, Clone, Copy, Default)]
pub struct McaBaseline;

impl uarch::Predictor for McaBaseline {
    fn name(&self) -> &'static str {
        "mca"
    }

    fn predict(&self, machine: &Machine, kernel: &Kernel) -> uarch::Prediction {
        self.predict_described(machine, kernel, &machine.describe_kernel(kernel))
    }

    fn predict_described(
        &self,
        machine: &Machine,
        kernel: &Kernel,
        descs: &[InstrDesc],
    ) -> uarch::Prediction {
        prediction(crate::predict_described(machine, kernel, descs))
    }
}

/// An [`McaResult`] as a [`uarch::Prediction`] (without the bookkeeping).
fn prediction(r: McaResult) -> uarch::Prediction {
    uarch::Prediction {
        cycles_per_iter: r.cycles_per_iter,
        bottleneck: uarch::Bottleneck::Unattributed,
        port_pressure: Vec::new(),
        uops_per_iter: r.uops as f64,
    }
}

/// Predict the block throughput of a kernel (cycles per iteration).
///
/// Runs the buffer-reusing fast simulation ([`fast_simulate`]); its result
/// is pinned bit-identical to [`predict_reference`] by the test suite.
pub fn predict(machine: &Machine, kernel: &Kernel) -> McaResult {
    predict_described(machine, kernel, &machine.describe_kernel(kernel))
}

/// [`predict`] from the kernel's descriptors, already looked up by the
/// caller (`descs` must equal `machine.describe_kernel(kernel)`).
fn predict_described(machine: &Machine, kernel: &Kernel, descs: &[InstrDesc]) -> McaResult {
    use std::cell::RefCell;
    let n = kernel.instructions.len();
    if n == 0 {
        return McaResult::empty();
    }
    let descs = mca_descs(machine, kernel, descs);
    let edges = mca_edges(kernel, &descs);
    thread_local! {
        static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::default());
    }
    SCRATCH.with(|s| fast_simulate(machine, &descs, &edges, 150, 30, &mut s.borrow_mut()))
}

/// The original allocation-heavy prediction loop, kept verbatim as the
/// equivalence oracle for [`predict`] and as the honest pre-optimization
/// baseline the pipeline bench measures against.
pub fn predict_reference(machine: &Machine, kernel: &Kernel) -> McaResult {
    let n = kernel.instructions.len();
    if n == 0 {
        return McaResult::empty();
    }
    let descs = mca_descs(machine, kernel, &machine.describe_kernel(kernel));
    let edges = mca_edges(kernel, &descs);
    simulate(machine, &descs, &edges, 150, 30, None)
}

/// [`McaBaseline`]'s twin that drives [`predict_reference`]. It reports the
/// same predictor name, so a report produced with it is byte-identical to
/// one produced with the fast path — which is exactly what the pipeline
/// bench uses it for.
#[derive(Debug, Clone, Copy, Default)]
pub struct McaReferenceBaseline;

impl uarch::Predictor for McaReferenceBaseline {
    fn name(&self) -> &'static str {
        "mca"
    }

    fn predict(&self, machine: &Machine, kernel: &Kernel) -> uarch::Prediction {
        prediction(predict_reference(machine, kernel))
    }
}

/// A dispatch/issue event pair for one instruction instance, recorded for
/// the timeline view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub iter: usize,
    pub idx: usize,
    pub dispatched: u64,
    pub issued: u64,
}

/// Run the MCA model and record events for the first `iters` iterations
/// (used by [`timeline::render`]).
pub fn predict_with_events(
    machine: &Machine,
    kernel: &Kernel,
    iters: usize,
) -> (McaResult, Vec<Event>) {
    let n = kernel.instructions.len();
    if n == 0 {
        return (McaResult::empty(), Vec::new());
    }
    let descs = mca_descs(machine, kernel, &machine.describe_kernel(kernel));
    let edges = mca_edges(kernel, &descs);
    let mut events = Vec::new();
    let r = simulate(machine, &descs, &edges, iters.max(1), 0, Some(&mut events));
    events.retain(|e| e.iter < iters);
    events.sort_by_key(|e| (e.iter, e.idx));
    (r, events)
}

/// MCA's view of the instruction stream (`descs` from
/// [`Machine::describe_kernel`]): no rename-stage elimination.
fn mca_descs(machine: &Machine, kernel: &Kernel, descs: &[InstrDesc]) -> Vec<InstrDesc> {
    use uarch::ports::PortCap;
    kernel
        .instructions
        .iter()
        .zip(descs)
        .map(|(inst, d)| {
            if d.class == InstrClass::Eliminated && !inst.is_nop() {
                // Schedule the move/idiom on a real unit with unit latency.
                let ports = if inst.max_vec_width() > 0 {
                    machine.port_model.with_cap(PortCap::VecAlu)
                } else {
                    machine.port_model.with_cap(PortCap::IntAlu)
                };
                InstrDesc {
                    uops: vec![Uop::new(ports)],
                    latency: 1,
                    rthroughput: 1.0 / ports.count().max(1) as f64,
                    class: InstrClass::Move,
                    from_fallback: false,
                }
            } else {
                d.clone()
            }
        })
        .collect()
}

/// Dependency edge with MCA's pessimistic latency charging: every write
/// becomes available after the producer's full latency.
#[derive(Debug, Clone, Copy)]
struct McaEdge {
    from: usize,
    to: usize,
    weight: u64,
    wrap: bool,
}

fn mca_edges(kernel: &Kernel, descs: &[InstrDesc]) -> Vec<McaEdge> {
    let n = kernel.instructions.len();
    let flows: Vec<_> = kernel.instructions.iter().map(dataflow).collect();
    let mut edges = Vec::new();
    for (j, fj) in flows.iter().enumerate() {
        for &r in &fj.reads {
            let producer = (0..j)
                .rev()
                .find(|&i| flows[i].writes.iter().any(|w| w.aliases(&r)))
                .map(|i| (i, false))
                .or_else(|| {
                    (0..n)
                        .rev()
                        .find(|&i| flows[i].writes.iter().any(|w| w.aliases(&r)))
                        .map(|i| (i, true))
                });
            if let Some((i, wrap)) = producer {
                edges.push(McaEdge {
                    from: i,
                    to: j,
                    weight: (descs[i].latency as u64).max(1),
                    wrap,
                });
            }
        }
    }
    edges
}

/// Capacity of each port's reservation queue. LLVM scheduling models use
/// small per-port buffers; a dependency chain parked in one queue backs up
/// the in-order dispatch stage — MCA's main source of pessimism on
/// latency-rich code.
const PORT_QUEUE: usize = 28;

/// Timeline simulation with static port binding, per-port reservation
/// queues, and in-order dispatch that stalls on a full queue.
fn simulate(
    machine: &Machine,
    descs: &[InstrDesc],
    edges: &[McaEdge],
    iterations: usize,
    warmup: usize,
    mut events: Option<&mut Vec<Event>>,
) -> McaResult {
    let n = descs.len();
    let np = machine.port_model.num_ports();
    let total_iters = iterations + warmup;

    // Static binding: round-robin cursor per distinct eligible port set,
    // like MCA's resource-cycle counters.
    let mut cursors: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut bind = |ports: PortSet| -> usize {
        let members: Vec<usize> = ports.iter().collect();
        let c = cursors.entry(ports.0).or_insert(0);
        let p = members[*c % members.len()];
        *c += 1;
        p
    };

    let mut incoming: Vec<Vec<McaEdge>> = vec![Vec::new(); n];
    for e in edges {
        incoming[e.to].push(*e);
    }

    let mut port_free_at = vec![0u64; np];
    // Per-port reservation queues of (iter, idx) waiting µ-ops.
    let mut queues: Vec<std::collections::VecDeque<(usize, usize)>> =
        vec![std::collections::VecDeque::new(); np];
    let mut issue_at: Vec<Vec<Option<u64>>> = vec![vec![None; n]; total_iters];
    // Remaining unissued µ-ops per instance, to detect full issue.
    let mut pending: Vec<Vec<u32>> = vec![vec![0; n]; total_iters];
    let mut last_uop_at: Vec<Vec<u64>> = vec![vec![0; n]; total_iters];
    let mut now: u64 = 0;
    let mut next = (0usize, 0usize);
    let mut warm_cycle = 0u64;
    let mut done_iters = 0usize;
    let mut total_uops = 0usize;
    // In-order completion tracking: an iteration is done only when every
    // instruction in it (and all older iterations) has fully issued.
    let mut inst_done: Vec<usize> = vec![0; total_iters];
    let mut retire_ptr = 0usize;
    let max_cycles = 1_000_000u64 + total_iters as u64 * 3_000;

    // Readiness of an instance: every producer fully issued and its result
    // propagated.
    let ready = |it: usize,
                 idx: usize,
                 issue_at: &Vec<Vec<Option<u64>>>,
                 now: u64,
                 incoming: &Vec<Vec<McaEdge>>|
     -> bool {
        incoming[idx].iter().all(|e| {
            let pit = if e.wrap {
                match it.checked_sub(1) {
                    Some(p) => p,
                    None => return true,
                }
            } else {
                it
            };
            matches!(issue_at[pit][e.from], Some(t) if t + e.weight <= now)
        })
    };

    while done_iters < total_iters && now < max_cycles {
        // Dispatch in order, bounded by width; a full target queue stalls
        // the whole dispatch group (in-order front end).
        let mut budget = machine.dispatch_width as i64;
        'dispatch: while budget > 0 && next.0 < total_iters {
            let (it, idx) = next;
            let nu = descs[idx].uop_count().max(1) as i64;
            if nu > budget && budget < machine.dispatch_width as i64 {
                break;
            }
            // All bound queues must have room.
            let bound: Vec<usize> = descs[idx].uops.iter().map(|u| bind(u.ports)).collect();
            for &p in &bound {
                if queues[p].len() >= PORT_QUEUE {
                    break 'dispatch;
                }
            }
            for &p in &bound {
                queues[p].push_back((it, idx));
            }
            if let Some(ev) = events.as_deref_mut() {
                ev.push(Event {
                    iter: it,
                    idx,
                    dispatched: now,
                    issued: u64::MAX,
                });
            }
            pending[it][idx] = descs[idx].uop_count() as u32;
            if descs[idx].uop_count() == 0 {
                // NOP-like: completes at dispatch.
                issue_at[it][idx] = Some(now);
                inst_done[it] += 1;
                if let Some(ev) = events.as_deref_mut() {
                    if let Some(e) = ev.iter_mut().rev().find(|e| e.iter == it && e.idx == idx) {
                        e.issued = now;
                    }
                }
            }
            budget -= nu;
            next = if idx + 1 == n {
                (it + 1, 0)
            } else {
                (it, idx + 1)
            };
        }

        // Issue: each port independently takes the oldest *ready* µ-op in
        // its queue (static binding: no port stealing).
        for p in 0..np {
            if port_free_at[p] > now {
                continue;
            }
            let pos = queues[p]
                .iter()
                .position(|&(it, idx)| ready(it, idx, &issue_at, now, &incoming));
            if let Some(pos) = pos {
                let (it, idx) = queues[p].remove(pos).unwrap();
                // Occupancy of the µ-op bound here: use the max occupancy of
                // the instruction's µ-ops eligible for this port.
                let occ = descs[idx]
                    .uops
                    .iter()
                    .filter(|u| u.ports.contains(p))
                    .map(|u| (u.occupancy.ceil() as u64).max(1))
                    .max()
                    .unwrap_or(1);
                port_free_at[p] = now + occ;
                total_uops += 1;
                last_uop_at[it][idx] = last_uop_at[it][idx].max(now);
                pending[it][idx] -= 1;
                if pending[it][idx] == 0 {
                    issue_at[it][idx] = Some(last_uop_at[it][idx]);
                    inst_done[it] += 1;
                    if let Some(ev) = events.as_deref_mut() {
                        if let Some(e) = ev.iter_mut().rev().find(|e| e.iter == it && e.idx == idx)
                        {
                            e.issued = last_uop_at[it][idx];
                        }
                    }
                }
            }
        }
        while retire_ptr < total_iters && inst_done[retire_ptr] == n {
            retire_ptr += 1;
            if retire_ptr == warmup {
                warm_cycle = now;
            }
        }
        done_iters = retire_ptr;
        now += 1;
    }

    let measured = (done_iters.saturating_sub(warmup)).max(1) as f64;
    McaResult {
        cycles_per_iter: (now - warm_cycle) as f64 / measured,
        uops: total_uops / total_iters.max(1),
        early_exit_iter: None,
    }
}

/// Per-port min-heap (by readiness time) of `(ready, seq, cell)` queue
/// entries whose readiness is known but still in the future.
type FutureHeap = std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32, u32)>>;
/// Per-port min-heap (by dispatch sequence id) of `(seq, cell)` entries
/// ready to issue now.
type ReadyHeap = std::collections::BinaryHeap<std::cmp::Reverse<(u32, u32)>>;

/// Reusable buffers for [`fast_simulate`]. One instance lives per thread
/// inside [`predict`]; after the first few kernels every buffer has reached
/// its high-water capacity and the simulation stops allocating entirely.
#[derive(Debug, Default)]
struct SimScratch {
    /// Concatenated port members of each distinct eligible port set.
    members: Vec<usize>,
    /// `[start, end)` range into `members` per port-set slot.
    member_ranges: Vec<(u32, u32)>,
    /// Round-robin cursor per port-set slot (replaces the cursor HashMap).
    /// Kept reduced modulo the slot's member count — only the residue is
    /// ever observable.
    cursors: Vec<usize>,
    /// Port-set slot of each µ-op, flattened over all descs.
    slot_of_uop: Vec<u16>,
    /// Start offset into `slot_of_uop` per instruction.
    uop_offsets: Vec<u32>,
    /// PortSet bits → slot, cleared (capacity kept) per call.
    set_slots: std::collections::HashMap<u32, u16>,
    /// `[start, end)` range into the edge list per consumer instruction.
    incoming_ranges: Vec<(u32, u32)>,
    /// Edge indices regrouped by producer (`from`).
    out_edge_idx: Vec<u32>,
    /// `[start, end)` range into `out_edge_idx` per producer instruction.
    out_ranges: Vec<(u32, u32)>,
    port_free_at: Vec<u64>,
    /// Per-port reservation-queue occupancy. The queue itself has no
    /// explicit representation: entry order is the per-port `seq` counter
    /// and every entry lives in exactly one of `future`/`ready`/limbo
    /// (producers unissued), so only the count is needed for the
    /// queue-full stall.
    qlen: Vec<u32>,
    /// Per-port push counters: the dispatch-order sequence id of the next
    /// entry.
    next_seq: Vec<u32>,
    /// Per-port min-heap (by readiness time) of `(ready, seq, cell)`
    /// entries whose readiness is known but still in the future.
    future: Vec<FutureHeap>,
    /// Per-port min-heap (by sequence id) of `(seq, cell)` entries ready
    /// to issue now. The top is exactly the reference's "oldest ready
    /// µ-op by queue position".
    ready: Vec<ReadyHeap>,
    /// Issue occupancy per `(instruction, port)`, flattened `idx * np + p`
    /// (max occupancy over the instruction's µ-ops eligible for the
    /// port, as the reference computes on every issue).
    occ_of: Vec<u8>,
    /// Flattened `it * n + idx` tables; `u64::MAX` encodes "not yet".
    /// An instance's issue time is the cycle its last µ-op issued.
    issue_at: Vec<u64>,
    pending: Vec<u32>,
    inst_done: Vec<u32>,
    /// Cycle on which iteration `i` retired (filled as the run proceeds).
    retire_cycle: Vec<u64>,
    /// Exact readiness time per instance, computed once when its last
    /// producer issues (`u64::MAX` = still unknown). `issue_at` entries are
    /// write-once, so the value never needs invalidation.
    ready_at: Vec<u64>,
    /// Unissued-producer count per instance; `-1` = not yet dispatched.
    prod_pending: Vec<i32>,
    /// Port each µ-op instance was bound to, indexed `it * U + off + ui`
    /// (`U` = µ-ops per iteration), or [`UOP_ISSUED`] once it issued.
    /// Written at dispatch, read at notification and by the fingerprint;
    /// never read for undispatched instances, so it is not cleared between
    /// calls.
    uop_port: Vec<u8>,
    /// Queue sequence id of each µ-op instance, same indexing as
    /// `uop_port`.
    uop_seq: Vec<u32>,
    /// Per-dispatch-attempt bound-port scratch.
    bound: Vec<usize>,
    /// Idle-skip scratch: per µ-op of the stalled instruction, its slot's
    /// `(members start, members len, cursor + occurrence, multiplicity)`.
    scan: Vec<(usize, u64, u64, u64)>,
    /// Steady-state detector (fingerprint ring and sample budget).
    steady: SteadyState,
}

/// [`SimScratch::uop_port`] marker for a µ-op instance that has issued.
const UOP_ISSUED: u8 = u8::MAX;

/// Exact readiness time of a dispatched instance all of whose producers
/// have issued: the max over incoming edges of producer issue time plus
/// edge weight (wrap edges read the previous iteration; iteration 0 has
/// no previous, so those are satisfied). Mirrors the `ready` closure in
/// [`simulate`] at the moment it would first return `true`.
fn compute_ready(
    it: usize,
    idx: usize,
    n: usize,
    edges: &[McaEdge],
    incoming_ranges: &[(u32, u32)],
    issue_at: &[u64],
) -> u64 {
    let (a, b) = incoming_ranges[idx];
    let mut at = 0u64;
    for e in &edges[a as usize..b as usize] {
        let pit = if e.wrap {
            match it.checked_sub(1) {
                Some(p) => p,
                None => continue,
            }
        } else {
            it
        };
        let t = issue_at[pit * n + e.from];
        debug_assert_ne!(t, u64::MAX, "producer not issued");
        at = at.max(t + e.weight);
    }
    at
}

/// File an instance's µ-op queue entries under their readiness time `r`:
/// already-matured entries go straight to the per-port ready heap, the
/// rest to the future heap keyed by `r`.
#[allow(clippy::too_many_arguments)]
fn schedule_uops(
    cell: usize,
    nuops: usize,
    uop_base: usize,
    r: u64,
    now: u64,
    uop_port: &[u8],
    uop_seq: &[u32],
    future: &mut [FutureHeap],
    ready: &mut [ReadyHeap],
) {
    for ui in 0..nuops {
        let p = uop_port[uop_base + ui] as usize;
        let seq = uop_seq[uop_base + ui];
        if r <= now {
            ready[p].push(std::cmp::Reverse((seq, cell as u32)));
        } else {
            future[p].push(std::cmp::Reverse((r, seq, cell as u32)));
        }
    }
}

/// Propagate an instance's issue to its consumers: decrement their
/// unissued-producer counts and, for any that hit zero, fix their
/// readiness time and file their queue entries into the issue heaps.
/// Consumers not yet dispatched (`prod_pending == -1`) are skipped — their
/// count is taken at dispatch, when this issue is already visible.
#[allow(clippy::too_many_arguments)]
fn notify_issue(
    cell: usize,
    n: usize,
    total_iters: usize,
    now: u64,
    uops_per_iter: usize,
    descs: &[InstrDesc],
    edges: &[McaEdge],
    out_edge_idx: &[u32],
    out_ranges: &[(u32, u32)],
    incoming_ranges: &[(u32, u32)],
    uop_offsets: &[u32],
    issue_at: &[u64],
    prod_pending: &mut [i32],
    ready_at: &mut [u64],
    uop_port: &[u8],
    uop_seq: &[u32],
    future: &mut [FutureHeap],
    ready: &mut [ReadyHeap],
) {
    let (it, idx) = (cell / n, cell % n);
    let (a, b) = out_ranges[idx];
    for &ei in &out_edge_idx[a as usize..b as usize] {
        let e = &edges[ei as usize];
        let cit = it + e.wrap as usize;
        if cit >= total_iters {
            continue;
        }
        let ccell = cit * n + e.to;
        if prod_pending[ccell] > 0 {
            prod_pending[ccell] -= 1;
            if prod_pending[ccell] == 0 {
                let r = compute_ready(cit, e.to, n, edges, incoming_ranges, issue_at);
                ready_at[ccell] = r;
                schedule_uops(
                    ccell,
                    descs[e.to].uops.len(),
                    cit * uops_per_iter + uop_offsets[e.to] as usize,
                    r,
                    now,
                    uop_port,
                    uop_seq,
                    future,
                    ready,
                );
            }
        }
    }
}

/// Event-driven port of [`simulate`] over reused flat buffers: no per-call
/// `Vec<Vec<_>>` tables, no per-µ-op member allocation in the binding
/// step, and — instead of every port rescanning its whole reservation
/// queue every cycle — each queue entry is filed once under its exact
/// readiness time and surfaces through two small per-port heaps (`future`
/// keyed by readiness, `ready` keyed by queue position). Idle stretches
/// are fast-forwarded in closed form. Every stateful decision —
/// round-robin cursor advancement (including on stalled dispatch
/// attempts), queue order, port priority — is preserved exactly, which the
/// equivalence tests pin with `f64::to_bits`.
fn fast_simulate(
    machine: &Machine,
    descs: &[InstrDesc],
    edges: &[McaEdge],
    iterations: usize,
    warmup: usize,
    s: &mut SimScratch,
) -> McaResult {
    let n = descs.len();
    let np = machine.port_model.num_ports();
    let total_iters = iterations + warmup;

    // Static binding tables: one slot per distinct eligible port set, in
    // first-touch order (each cursor is independent, so slot order does
    // not affect behavior — only determinism of the tables).
    s.set_slots.clear();
    s.members.clear();
    s.member_ranges.clear();
    s.cursors.clear();
    s.slot_of_uop.clear();
    s.uop_offsets.clear();
    for d in descs {
        s.uop_offsets.push(s.slot_of_uop.len() as u32);
        for u in &d.uops {
            let slot = match s.set_slots.get(&u.ports.0) {
                Some(&slot) => slot,
                None => {
                    let slot = s.member_ranges.len() as u16;
                    let start = s.members.len() as u32;
                    s.members.extend(u.ports.iter());
                    s.member_ranges.push((start, s.members.len() as u32));
                    s.cursors.push(0);
                    s.set_slots.insert(u.ports.0, slot);
                    slot
                }
            };
            s.slot_of_uop.push(slot);
        }
    }
    let uops_per_iter = s.slot_of_uop.len();

    // Occupancy lookup per (instruction, port), replacing the per-issue
    // filter/max over the instruction's µ-ops.
    s.occ_of.clear();
    s.occ_of.resize(n * np, 1);
    for (idx, d) in descs.iter().enumerate() {
        for u in &d.uops {
            let occ = (u.occupancy.ceil() as u64).max(1).min(u8::MAX as u64) as u8;
            for p in u.ports.iter() {
                let e = &mut s.occ_of[idx * np + p];
                *e = (*e).max(occ);
            }
        }
    }

    // `mca_edges` emits edges grouped by consumer in increasing order, so
    // the per-consumer edge lists are contiguous runs of the input slice.
    s.incoming_ranges.clear();
    s.incoming_ranges.resize(n, (0, 0));
    let mut k = 0usize;
    for (to, range) in s.incoming_ranges.iter_mut().enumerate() {
        let start = k;
        while k < edges.len() && edges[k].to == to {
            k += 1;
        }
        *range = (start as u32, k as u32);
    }
    debug_assert_eq!(k, edges.len(), "edges not grouped by consumer");

    // Outgoing adjacency (edge indices regrouped by producer), for issue
    // notifications.
    s.out_ranges.clear();
    s.out_ranges.resize(n, (0, 0));
    for e in edges {
        s.out_ranges[e.from].1 += 1;
    }
    let mut start = 0u32;
    for r in &mut s.out_ranges {
        let cnt = r.1;
        *r = (start, start);
        start += cnt;
    }
    s.out_edge_idx.clear();
    s.out_edge_idx.resize(edges.len(), 0);
    for (ei, e) in edges.iter().enumerate() {
        let slot = s.out_ranges[e.from].1;
        s.out_edge_idx[slot as usize] = ei as u32;
        s.out_ranges[e.from].1 += 1;
    }

    s.port_free_at.clear();
    s.port_free_at.resize(np, 0);
    if s.future.len() < np {
        s.future.resize_with(np, std::collections::BinaryHeap::new);
        s.ready.resize_with(np, std::collections::BinaryHeap::new);
    }
    for p in 0..np {
        s.future[p].clear();
        s.ready[p].clear();
    }
    s.qlen.clear();
    s.qlen.resize(np, 0);
    s.next_seq.clear();
    s.next_seq.resize(np, 0);
    let cells = total_iters * n;
    s.issue_at.clear();
    s.issue_at.resize(cells, u64::MAX);
    s.pending.clear();
    s.pending.resize(cells, 0);
    s.ready_at.clear();
    s.ready_at.resize(cells, u64::MAX);
    s.prod_pending.clear();
    s.prod_pending.resize(cells, -1);
    s.inst_done.clear();
    s.inst_done.resize(total_iters, 0);
    s.retire_cycle.clear();
    s.retire_cycle.resize(total_iters, 0);
    // `uop_port`/`uop_seq` are written at dispatch and only read for
    // dispatched instances, so stale contents from a previous call are
    // never observed — grow without clearing.
    let uop_cells = total_iters * uops_per_iter;
    if s.uop_port.len() < uop_cells {
        s.uop_port.resize(uop_cells, 0);
        s.uop_seq.resize(uop_cells, 0);
    }

    // Closed-form extrapolation through the drain is exact only when no
    // µ-op holds its port across cycles: then a port always takes its
    // oldest ready entry and a younger instruction can never delay an
    // older one, so stopping dispatch at the last iteration leaves every
    // earlier retirement where the periodic pattern puts it. A blocking
    // µ-op bound to a port can delay an older entry that becomes ready a
    // cycle later. Those kernels skip detection and simulate every
    // iteration: in the trio corpus they are the 32 π blocks (the
    // divide), only 4 of which repeat their state within the sample
    // budget, and shifting MCA's state a whole number of periods (as
    // `exec` does) would rewrite every heap entry and per-instance row.
    let blocking = s.occ_of.iter().any(|&o| o > 1);
    // Heaviest dependence-edge weight: once an issue time is this far in
    // the past it reads as "available" on every remaining edge.
    let wmax = edges.iter().map(|e| e.weight).max().unwrap_or(0);
    // Owned for the run so the fingerprint can borrow the rest of the
    // arena; handed back (with its recycled buffers) at the end.
    let mut steady = std::mem::take(&mut s.steady);
    steady.reset();
    if blocking {
        steady.stop();
    }

    let mut now: u64 = 0;
    let mut next = (0usize, 0usize);
    let mut warm_cycle = 0u64;
    let mut done_iters = 0usize;
    let mut total_uops = 0usize;
    let mut retire_ptr = 0usize;
    let mut early_exit_iter = None;
    let max_cycles = 1_000_000u64 + total_iters as u64 * 3_000;

    while done_iters < total_iters && now < max_cycles {
        // Dispatch in order, bounded by width; a full target queue stalls
        // the whole dispatch group (in-order front end). Note the cursors
        // advance even when the queue-full check then stalls the group —
        // that matches the reference loop and is load-bearing for
        // bit-identical output.
        let next_before = next;
        let mut issued_any = false;
        let mut budget = machine.dispatch_width as i64;
        'dispatch: while budget > 0 && next.0 < total_iters {
            let (it, idx) = next;
            let nu = descs[idx].uop_count().max(1) as i64;
            if nu > budget && budget < machine.dispatch_width as i64 {
                break;
            }
            s.bound.clear();
            let off = s.uop_offsets[idx] as usize;
            for ui in 0..descs[idx].uops.len() {
                let slot = s.slot_of_uop[off + ui] as usize;
                let (ms, me) = s.member_ranges[slot];
                let members = &s.members[ms as usize..me as usize];
                let c = &mut s.cursors[slot];
                let p = members[*c];
                *c += 1;
                if *c == members.len() {
                    *c = 0;
                }
                s.bound.push(p);
            }
            for &p in &s.bound {
                if s.qlen[p] as usize >= PORT_QUEUE {
                    break 'dispatch;
                }
            }
            let cell = it * n + idx;
            s.pending[cell] = descs[idx].uop_count() as u32;
            if descs[idx].uop_count() == 0 {
                // NOP-like: completes at dispatch. It holds no queue slots,
                // so its own readiness is never queried; `prod_pending`
                // stays in the undispatched state and notifications pass
                // it by.
                s.issue_at[cell] = now;
                s.inst_done[it] += 1;
                notify_issue(
                    cell,
                    n,
                    total_iters,
                    now,
                    uops_per_iter,
                    descs,
                    edges,
                    &s.out_edge_idx,
                    &s.out_ranges,
                    &s.incoming_ranges,
                    &s.uop_offsets,
                    &s.issue_at,
                    &mut s.prod_pending,
                    &mut s.ready_at,
                    &s.uop_port,
                    &s.uop_seq,
                    &mut s.future,
                    &mut s.ready,
                );
            } else {
                let uop_base = it * uops_per_iter + off;
                for (ui, &p) in s.bound.iter().enumerate() {
                    let seq = s.next_seq[p];
                    s.next_seq[p] += 1;
                    s.qlen[p] += 1;
                    s.uop_port[uop_base + ui] = p as u8;
                    s.uop_seq[uop_base + ui] = seq;
                }
                // Count producers that have not issued yet; anything that
                // issues later flows in through `notify_issue`.
                let (a, b) = s.incoming_ranges[idx];
                let mut cnt = 0i32;
                for e in &edges[a as usize..b as usize] {
                    let pit = if e.wrap {
                        match it.checked_sub(1) {
                            Some(p) => p,
                            None => continue,
                        }
                    } else {
                        it
                    };
                    if s.issue_at[pit * n + e.from] == u64::MAX {
                        cnt += 1;
                    }
                }
                s.prod_pending[cell] = cnt;
                if cnt == 0 {
                    let r = compute_ready(it, idx, n, edges, &s.incoming_ranges, &s.issue_at);
                    s.ready_at[cell] = r;
                    schedule_uops(
                        cell,
                        descs[idx].uops.len(),
                        uop_base,
                        r,
                        now,
                        &s.uop_port,
                        &s.uop_seq,
                        &mut s.future,
                        &mut s.ready,
                    );
                }
            }
            budget -= nu;
            next = if idx + 1 == n {
                (it + 1, 0)
            } else {
                (it, idx + 1)
            };
        }

        // Issue: each port independently takes the oldest *ready* µ-op in
        // its queue (static binding: no port stealing). Matured future
        // entries join the ready set first; the minimum sequence id over
        // the ready heap and the matured entries is precisely the
        // reference scan's first ready entry by queue position. The
        // oldest matured entry is held aside, so the common case — one
        // entry matures and issues at once — never touches the ready heap.
        for p in 0..np {
            if s.port_free_at[p] > now {
                continue;
            }
            let mut matured: Option<(u32, u32)> = None;
            while let Some(&std::cmp::Reverse((r, seq, cell))) = s.future[p].peek() {
                if r > now {
                    break;
                }
                s.future[p].pop();
                match matured {
                    Some(m) if m < (seq, cell) => s.ready[p].push(std::cmp::Reverse((seq, cell))),
                    Some(m) => {
                        s.ready[p].push(std::cmp::Reverse(m));
                        matured = Some((seq, cell));
                    }
                    None => matured = Some((seq, cell)),
                }
            }
            let (seq, cell) = match (matured, s.ready[p].peek()) {
                (Some(m), Some(&std::cmp::Reverse(top))) if top < m => {
                    s.ready[p].pop();
                    s.ready[p].push(std::cmp::Reverse(m));
                    top
                }
                (Some(m), _) => m,
                (None, Some(&std::cmp::Reverse(top))) => {
                    s.ready[p].pop();
                    top
                }
                (None, None) => continue,
            };
            s.qlen[p] -= 1;
            issued_any = true;
            let cell = cell as usize;
            let (it, idx) = (cell / n, cell % n);
            let occ = s.occ_of[idx * np + p] as u64;
            s.port_free_at[p] = now + occ;
            total_uops += 1;
            // Mark the µ-op instance issued: the fingerprint lists only
            // the entries still queued.
            let uop_base = it * uops_per_iter + s.uop_offsets[idx] as usize;
            let ui = (0..descs[idx].uops.len())
                .find(|&ui| s.uop_port[uop_base + ui] == p as u8 && s.uop_seq[uop_base + ui] == seq)
                .expect("issued entry belongs to its instance");
            s.uop_port[uop_base + ui] = UOP_ISSUED;
            s.pending[cell] -= 1;
            if s.pending[cell] == 0 {
                // µ-ops issue in cycle order, so the last one sets the
                // instance's issue time.
                s.issue_at[cell] = now;
                s.inst_done[it] += 1;
                notify_issue(
                    cell,
                    n,
                    total_iters,
                    now,
                    uops_per_iter,
                    descs,
                    edges,
                    &s.out_edge_idx,
                    &s.out_ranges,
                    &s.incoming_ranges,
                    &s.uop_offsets,
                    &s.issue_at,
                    &mut s.prod_pending,
                    &mut s.ready_at,
                    &s.uop_port,
                    &s.uop_seq,
                    &mut s.future,
                    &mut s.ready,
                );
            }
        }
        let retired_before = retire_ptr;
        while retire_ptr < total_iters && s.inst_done[retire_ptr] as usize == n {
            s.retire_cycle[retire_ptr] = now;
            retire_ptr += 1;
            if retire_ptr == warmup {
                warm_cycle = now;
            }
        }
        done_iters = retire_ptr;

        // Steady-state detection, at the end of every cycle in which an
        // iteration retired while dispatch still runs.
        if steady.active()
            && retire_ptr > retired_before
            && retire_ptr < total_iters
            && next.0 < total_iters
        {
            fingerprint_key(steady.begin(), s, np, now, retire_ptr, next);
            let rest = |fp: &mut Vec<i64>| fingerprint_rest(fp, s, n, now, retire_ptr, next, wmax);
            if let Some(period) = steady.observe_split(retire_ptr, now, rest) {
                let final_t = period.retire_cycle(&s.retire_cycle, total_iters);
                if final_t < max_cycles {
                    // Every later retirement follows the period; the run
                    // ends the cycle after the last one, with every µ-op
                    // of every iteration issued.
                    if warmup > retire_ptr {
                        warm_cycle = period.retire_cycle(&s.retire_cycle, warmup);
                    }
                    early_exit_iter = Some(retire_ptr);
                    done_iters = total_iters;
                    total_uops = total_iters * uops_per_iter;
                    now = final_t + 1;
                    break;
                }
                // The watchdog would truncate the run mid-pattern, which
                // the formula cannot describe: keep simulating (detection
                // has ended).
            }
        }
        now += 1;

        // Idle-cycle skip. If the cycle just simulated (T = now-1) neither
        // dispatched nor issued anything, following cycles stay idle until
        // either (a) some port can issue — queues cannot drain without
        // issues and no new readiness times can appear (a µ-op's readiness
        // is fixed once its producers issue) — or (b) the stalled bind
        // rotates onto a non-full queue: the round-robin cursors keep
        // advancing during failed binds, so the chosen ports vary
        // cycle-to-cycle. Both bounds are computed exactly; the skipped
        // cycles' only state change (the constant per-cycle cursor
        // advance) is applied in closed form, so the jump is equivalent to
        // simulating each idle cycle.
        if !issued_any && next == next_before && done_iters < total_iters && now < max_cycles {
            // (a) earliest cycle at which any port can issue. A non-empty
            // ready heap issues the moment the port is free; otherwise the
            // earliest future entry gates it. Entries in neither heap have
            // unissued producers and cannot mature while idle.
            let mut t_issue = u64::MAX;
            for p in 0..np {
                let t = if !s.ready[p].is_empty() {
                    s.port_free_at[p]
                } else if let Some(&std::cmp::Reverse((r, _, _))) = s.future[p].peek() {
                    r.max(s.port_free_at[p])
                } else {
                    continue;
                };
                t_issue = t_issue.min(t);
            }

            // (b) earliest k >= 1 such that the bind of the stalled
            // instruction at cycle T+k lands every µ-op on a non-full
            // queue. The j-th slot-s µ-op at cycle T+k picks member
            // (c_s + (k-1)*m_s + j) mod len_s, with c_s the cursor after
            // cycle T's failed bind and m_s the instruction's µ-op count
            // in that slot. The pattern is periodic, so scanning a bounded
            // window is exact for every cycle it covers. Cycles from
            // `t_issue` on never become the target, so the scan stops
            // there: a later fit, or none, leaves `t_issue` the minimum.
            const SCAN: u64 = 256;
            let mut bound_by_dispatch = now + SCAN;
            if next.0 < total_iters {
                let idx = next.1;
                let off = s.uop_offsets[idx] as usize;
                let slots = &s.slot_of_uop[off..off + descs[idx].uops.len()];
                // Per µ-op: its slot's members, the cursor plus the µ-op's
                // occurrence index `j` within this bind, and the slot's
                // multiplicity `m` — all fixed while the bind stalls.
                s.scan.clear();
                for (ui, &slot) in slots.iter().enumerate() {
                    let j = slots[..ui].iter().filter(|&&x| x == slot).count() as u64;
                    let m = slots.iter().filter(|&&x| x == slot).count() as u64;
                    let (ms, me) = s.member_ranges[slot as usize];
                    let base = s.cursors[slot as usize] as u64 + j;
                    s.scan.push((ms as usize, (me - ms) as u64, base, m));
                }
                for k in 1..=SCAN.min(t_issue.saturating_sub(now - 1)) {
                    let fits = s.scan.iter().all(|&(ms, len, base, m)| {
                        let p = s.members[ms + ((base + (k - 1) * m) % len) as usize];
                        (s.qlen[p] as usize) < PORT_QUEUE
                    });
                    if fits {
                        bound_by_dispatch = now - 1 + k;
                        break;
                    }
                }
            } else {
                bound_by_dispatch = u64::MAX;
            }

            // t_issue == MAX with no dispatch bound means deadlock: the
            // reference would spin to the cycle cap, so jump there.
            let target = t_issue.min(bound_by_dispatch).max(now).min(max_cycles);
            let skipped = target - now;
            if skipped > 0 {
                if next.0 < total_iters {
                    let idx = next.1;
                    let off = s.uop_offsets[idx] as usize;
                    for ui in 0..descs[idx].uops.len() {
                        let slot = s.slot_of_uop[off + ui] as usize;
                        let (ms, me) = s.member_ranges[slot];
                        let len = (me - ms) as usize;
                        s.cursors[slot] = (s.cursors[slot] + skipped as usize) % len;
                    }
                }
                now = target;
            }
        }
    }

    s.steady = steady;
    let measured = (done_iters.saturating_sub(warmup)).max(1) as f64;
    McaResult {
        cycles_per_iter: (now - warm_cycle) as f64 / measured,
        uops: total_uops / total_iters.max(1),
        early_exit_iter,
    }
}

/// Record MCA's state at the end of cycle `now`, relative to `now` and the
/// retired-iteration count, quotiented by future-equivalence, so equal
/// fingerprints mean the runs from those two points are identical up to
/// the (Δ iterations, Δ cycles) shift. The key, written at every sample,
/// is the cheap part:
///
/// * the dispatch cursor and every round-robin binding cursor;
/// * per port, its busy horizon (clamped at the next cycle: any horizon
///   due by then reads the same) and its queue length.
///
/// [`fingerprint_rest`] writes the rest once a key repeats.
fn fingerprint_key(
    fp: &mut Vec<i64>,
    s: &SimScratch,
    np: usize,
    now: u64,
    retired: usize,
    next: (usize, usize),
) {
    let base = now as i64;
    let horizon = now + 1;
    fp.push((next.0 - retired) as i64);
    fp.push(next.1 as i64);
    fp.extend(s.cursors.iter().map(|&c| c as i64));
    for p in 0..np {
        fp.push(s.port_free_at[p].max(horizon) as i64 - base);
        fp.push(s.qlen[p] as i64);
    }
}

/// The rest of MCA's fingerprint (see [`fingerprint_key`]):
///
/// * the issue-time rows still reachable (wrap producers of the oldest
///   unretired iteration through the dispatching one), clamped once
///   mature for the heaviest edge;
/// * the bound port of every dispatched µ-op of an unretired iteration,
///   or a marker once it issued, in dispatch order — which is each
///   port's queue order. The remaining µ-op counts follow from the
///   markers;
/// * the readiness of every unissued instance: the number of producers
///   still unissued, or the known ready cycle clamped at the next cycle.
///
/// An instance's issue time is always the cycle of its last µ-op, so no
/// per-µ-op issue history is needed, and per-port sequence numbers only
/// order entries that dispatch order already orders.
fn fingerprint_rest(
    fp: &mut Vec<i64>,
    s: &SimScratch,
    n: usize,
    now: u64,
    retired: usize,
    next: (usize, usize),
    wmax: u64,
) {
    let base = now as i64;
    let horizon = now + 1;
    let uops_per_iter = s.slot_of_uop.len();
    for it in retired - 1..=next.0 {
        steady::push_issue_row(fp, &s.issue_at[it * n..(it + 1) * n], now, |t| {
            t + wmax <= horizon
        });
    }
    // Bound ports of every dispatched µ-op from the oldest unretired
    // iteration on (issued ones marked), eight bytes to a word; the
    // count follows from the dispatch cursor.
    let uop_end = next.0 * uops_per_iter + s.uop_offsets.get(next.1).map_or(0, |&o| o as usize);
    let chunks = s.uop_port[retired * uops_per_iter..uop_end].chunks(8);
    fp.extend(chunks.map(|c| {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        i64::from_le_bytes(w)
    }));
    // Readiness of every unissued instance, in dispatch order; the rows
    // above say which instances those are.
    let cells = retired * n..next.0 * n + next.1;
    for (cell, &t) in cells.clone().zip(&s.issue_at[cells]) {
        if t == steady::NOT_ISSUED {
            fp.push(if s.prod_pending[cell] > 0 {
                -(s.prod_pending[cell] as i64)
            } else {
                s.ready_at[cell].max(horizon) as i64 - base
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{parse_kernel, Isa};
    use uarch::Machine;

    fn p(asm: &str, m: &Machine) -> f64 {
        let k = parse_kernel(asm, Isa::X86).unwrap();
        predict(m, &k).cycles_per_iter
    }

    #[test]
    fn serial_chain_bounded_by_latency() {
        let m = Machine::golden_cove();
        let c = p(
            ".L1:\n vfmadd231pd %zmm1, %zmm2, %zmm3\n subq $1, %rax\n jne .L1\n",
            &m,
        );
        assert!(c >= 4.0 - 0.1, "c={c}");
        assert!(c < 7.0, "c={c}");
    }

    #[test]
    fn mca_does_not_eliminate_moves() {
        let m = Machine::golden_cove();
        let asm = ".L1:\n vmovaps %zmm1, %zmm2\n vmovaps %zmm2, %zmm3\n subq $1, %rax\n jne .L1\n";
        let mca_c = p(asm, &m);
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let osaca = incore::analyze(&m, &k).prediction;
        assert!(mca_c > osaca, "mca={mca_c} osaca={osaca}");
    }

    #[test]
    fn mca_is_pessimistic_vs_simulator_on_streaming() {
        // The paper's central Fig. 3 relationship: MCA ≥ measurement ≥
        // OSACA for typical streaming kernels.
        let m = Machine::golden_cove();
        let asm = ".L1:\n vmovupd (%rsi,%rax), %zmm0\n vaddpd %zmm0, %zmm1, %zmm2\n vmovupd %zmm2, (%rdi,%rax)\n addq $64, %rax\n cmpq %rcx, %rax\n jne .L1\n";
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let mca_c = predict(&m, &k).cycles_per_iter;
        let meas = exec::cycles_per_iteration(&m, &k);
        let osaca = incore::analyze(&m, &k).prediction;
        assert!(osaca <= meas + 0.05, "osaca={osaca} meas={meas}");
        assert!(mca_c >= meas * 0.85, "mca={mca_c} meas={meas}");
    }

    #[test]
    fn empty_kernel() {
        let m = Machine::zen4();
        let k = Kernel {
            instructions: vec![],
            isa: Isa::X86,
            loop_label: None,
        };
        assert_eq!(predict(&m, &k).cycles_per_iter, 0.0);
    }

    #[test]
    fn aarch64_kernels_work() {
        let m = Machine::neoverse_v2();
        let k = parse_kernel(
            ".L1:\n ldr q0, [x1, x4]\n fadd v0.2d, v0.2d, v1.2d\n str q0, [x0, x4]\n add x4, x4, #16\n cmp x4, x5\n b.ne .L1\n",
            Isa::AArch64,
        )
        .unwrap();
        let r = predict(&m, &k);
        assert!(r.cycles_per_iter >= 1.0, "{}", r.cycles_per_iter);
        assert!(r.cycles_per_iter < 20.0, "{}", r.cycles_per_iter);
    }

    #[test]
    fn static_binding_creates_contention() {
        // Two µ-ops alternating over {0,5} plus one pinned to port 0:
        // dynamic picking resolves this, static round-robin collides on
        // some iterations. MCA must be ≥ the optimal analytical bound.
        let m = Machine::golden_cove();
        let asm = ".L1:\n vaddpd %zmm0, %zmm1, %zmm2\n vaddpd %zmm0, %zmm1, %zmm3\n vdivpd %ymm4, %ymm5, %ymm6\n subq $1, %rax\n jne .L1\n";
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let mca_c = predict(&m, &k).cycles_per_iter;
        let osaca = incore::analyze(&m, &k).prediction;
        assert!(mca_c >= osaca - 0.05, "mca={mca_c} osaca={osaca}");
    }

    #[test]
    fn fast_path_is_bit_identical_to_reference() {
        // The scratch-buffer simulation must reproduce the reference loop
        // exactly — not approximately — across kernels exercising NOP-like
        // zero-µ-op instructions, static-binding contention, serial chains,
        // memory traffic, and both ISAs on all three machines.
        let x86 = [
            ".L1:\n vfmadd231pd %zmm1, %zmm2, %zmm3\n subq $1, %rax\n jne .L1\n",
            ".L1:\n vmovupd (%rsi,%rax), %zmm0\n vaddpd %zmm0, %zmm1, %zmm2\n vmovupd %zmm2, (%rdi,%rax)\n addq $64, %rax\n cmpq %rcx, %rax\n jne .L1\n",
            ".L1:\n vaddpd %zmm0, %zmm1, %zmm2\n vaddpd %zmm0, %zmm1, %zmm3\n vdivpd %ymm4, %ymm5, %ymm6\n subq $1, %rax\n jne .L1\n",
            ".L1:\n nop\n addq $1, %rax\n cmpq %rcx, %rax\n jne .L1\n",
            "movq %rax, %rbx\naddq $1, %rbx\n",
        ];
        let a64 = [
            ".L1:\n ldr q0, [x1, x4]\n fadd v0.2d, v0.2d, v1.2d\n str q0, [x0, x4]\n add x4, x4, #16\n cmp x4, x5\n b.ne .L1\n",
            ".L1:\n ld1d z0.d, p0/z, [x1, x4, lsl #3]\n fmla z1.d, p0/m, z0.d, z2.d\n add x4, x4, #8\n cmp x4, x5\n b.ne .L1\n",
        ];
        for m in [
            Machine::golden_cove(),
            Machine::zen4(),
            Machine::neoverse_v2(),
        ] {
            for (isa, asm) in x86
                .iter()
                .map(|a| (Isa::X86, a))
                .chain(a64.iter().map(|a| (Isa::AArch64, a)))
            {
                let k = parse_kernel(asm, isa).unwrap();
                let fast = predict(&m, &k);
                let slow = predict_reference(&m, &k);
                assert_eq!(
                    fast.cycles_per_iter.to_bits(),
                    slow.cycles_per_iter.to_bits(),
                    "machine={} asm={asm:?} fast={} slow={}",
                    m.name,
                    fast.cycles_per_iter,
                    slow.cycles_per_iter
                );
                assert_eq!(fast.uops, slow.uops, "machine={} asm={asm:?}", m.name);
            }
        }
    }

    #[test]
    fn reference_baseline_matches_predict() {
        use uarch::Predictor;
        let m = Machine::golden_cove();
        let k = parse_kernel(
            ".L1:\n vaddpd %zmm0, %zmm1, %zmm2\n subq $1, %rax\n jne .L1\n",
            Isa::X86,
        )
        .unwrap();
        let b = McaReferenceBaseline;
        assert_eq!(b.name(), "mca");
        let pred = b.predict(&m, &k);
        assert_eq!(
            pred.cycles_per_iter.to_bits(),
            predict(&m, &k).cycles_per_iter.to_bits()
        );
    }
}

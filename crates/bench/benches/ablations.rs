//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! 1. balanced vs. optimal port assignment in the analyzer,
//! 2. the simulator's silicon quirks on vs. off,
//! 3. the SpecI2M gating threshold,
//! 4. out-of-order window (ROB/scheduler) size in the simulator.

use criterion::{criterion_group, criterion_main, Criterion};

fn corpus_kernels(m: &uarch::Machine) -> Vec<isa::Kernel> {
    kernels::variants_for(m.arch)
        .into_iter()
        .filter(|v| v.opt == kernels::OptLevel::O3)
        .map(|v| kernels::generate_kernel(&v, m))
        .collect()
}

fn ablation_port_assignment(c: &mut Criterion) {
    let m = uarch::Machine::golden_cove();
    let ks = corpus_kernels(&m);
    let mut g = c.benchmark_group("ablation_port_assignment");
    for (name, strat) in [
        ("balanced", incore::PortAssignment::Balanced),
        ("optimal", incore::PortAssignment::Optimal),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                ks.iter()
                    .map(|k| incore::analyze_with(&m, k, strat).prediction)
                    .sum::<f64>()
            })
        });
    }
    g.finish();
    // Report the prediction delta.
    let (mut worse, mut total) = (0usize, 0usize);
    for k in &ks {
        let bal = incore::analyze_with(&m, k, incore::PortAssignment::Balanced).prediction;
        let opt = incore::analyze_with(&m, k, incore::PortAssignment::Optimal).prediction;
        total += 1;
        if bal > opt + 1e-9 {
            worse += 1;
        }
    }
    eprintln!("[ablation] balanced heuristic overestimates pressure on {worse}/{total} kernels");
}

fn ablation_quirks(c: &mut Criterion) {
    // A serial FMA accumulation chain — the pattern the Neoverse V2
    // forwards at 2 cycles instead of the 4-cycle documented latency
    // (iterative solvers à la Gauss-Seidel compile to this with
    // -ffp-contract at higher optimization levels).
    let m = uarch::Machine::neoverse_v2();
    let k = isa::parse_kernel(
        ".L0:\n    fmla v0.2d, v1.2d, v2.2d\n    subs x5, x5, #1\n    b.ne .L0\n",
        isa::Isa::AArch64,
    )
    .unwrap();
    let mut g = c.benchmark_group("ablation_quirks");
    for (name, quirks) in [("on", true), ("off", false)] {
        let cfg = exec::SimConfig {
            quirks,
            ..Default::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| exec::simulate(&m, &k, cfg).cycles_per_iter)
        });
    }
    g.finish();
    let on = exec::simulate(&m, &k, exec::SimConfig::default()).cycles_per_iter;
    let off = exec::simulate(
        &m,
        &k,
        exec::SimConfig {
            quirks: false,
            ..Default::default()
        },
    )
    .cycles_per_iter;
    let model = incore::analyze(&m, &k).prediction;
    eprintln!(
        "[ablation] V2 FMA accumulation chain: quirks on {on:.2} cy/iter vs off {off:.2} (model predicts {model:.2} — the forwarding path is what OSACA over-predicts)"
    );
}

fn ablation_speci2m(c: &mut Criterion) {
    let m = uarch::Machine::golden_cove();
    let mut g = c.benchmark_group("ablation_speci2m");
    g.sample_size(10);
    g.bench_function("full_domain", |b| {
        b.iter(|| memhier::store_traffic_ratio(&m, 13, memhier::StoreKind::Standard).ratio)
    });
    g.finish();
    for n in [1, 4, 8, 10, 13] {
        let p = memhier::store_traffic_ratio(&m, n, memhier::StoreKind::Standard);
        eprintln!(
            "[ablation] SpecI2M at {n:>2} cores: ratio {:.3} (utilization {:.2})",
            p.ratio, p.utilization
        );
    }
}

fn ablation_ooo_window(c: &mut Criterion) {
    // Shrinking the ROB/scheduler hurts the measured throughput of
    // latency-rich kernels; the analytical model (infinite window) does not
    // move. This quantifies the gap the window size creates.
    let mut m = uarch::Machine::golden_cove();
    let v = kernels::Variant {
        kernel: kernels::StreamKernel::Jacobi3D27,
        compiler: kernels::Compiler::Icx,
        opt: kernels::OptLevel::O3,
        arch: m.arch,
    };
    let k = kernels::generate_kernel(&v, &m);
    let mut g = c.benchmark_group("ablation_ooo_window");
    g.sample_size(10);
    for (name, rob, sched) in [
        ("512_205", 512u32, 205u32),
        ("128_64", 128, 64),
        ("64_32", 64, 32),
    ] {
        m.rob_size = rob;
        m.sched_size = sched;
        let mm = m.clone();
        g.bench_function(name, |b| b.iter(|| exec::cycles_per_iteration(&mm, &k)));
        eprintln!(
            "[ablation] ROB {rob}/sched {sched}: {:.2} cy/iter",
            exec::cycles_per_iteration(&mm, &k)
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    ablation_port_assignment,
    ablation_quirks,
    ablation_speci2m,
    ablation_ooo_window
);
criterion_main!(benches);

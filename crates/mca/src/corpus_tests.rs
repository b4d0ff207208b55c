//! Corpus-level checks of the MCA simulation's steady-state exit.

use super::*;

/// Trio corpus blocks (`uarch::all_machines()` × `kernels::variants_for`)
/// that take the steady-state exit at the pipeline's 150 + 30 iterations.
const EXITS: usize = 210;

/// The trio corpus blocks that do not, by chip and kernel: the listed
/// compiler/flag variants, or `*` for every variant of the kernel on that
/// chip. The π kernels carry a port-blocking divide and skip detection;
/// the rest never repeat their state within the run — queue-full stalls
/// keep perturbing the round-robin port bindings.
const NO_EXIT: &[(&str, &str, &[&str])] = &[
    (
        "GCS",
        "COPY",
        &["gcc -O1", "gcc -O2", "armclang -O1", "armclang -O2"],
    ),
    ("GCS", "UPDATE", &["armclang -O1", "armclang -O2"]),
    (
        "GCS",
        "ADD",
        &[
            "gcc -O1",
            "gcc -O2",
            "armclang -O1",
            "armclang -O2",
            "armclang -O3",
            "armclang -Ofast",
        ],
    ),
    (
        "GCS",
        "STREAM triad",
        &[
            "gcc -O1",
            "gcc -O2",
            "armclang -O1",
            "armclang -O2",
            "armclang -O3",
            "armclang -Ofast",
        ],
    ),
    (
        "GCS",
        "Schoenauer triad",
        &[
            "gcc -O2",
            "armclang -O1",
            "armclang -O2",
            "armclang -O3",
            "armclang -Ofast",
        ],
    ),
    (
        "GCS",
        "Sum reduction",
        &[
            "gcc -O1",
            "gcc -O2",
            "gcc -O3",
            "gcc -Ofast",
            "armclang -Ofast",
        ],
    ),
    ("GCS", "pi by integration", &["*"]),
    ("GCS", "Gauss-Seidel 2D 5pt", &["*"]),
    ("GCS", "Jacobi 2D 5pt", &["*"]),
    (
        "GCS",
        "Jacobi 3D 7pt",
        &["gcc -O1", "gcc -O2", "armclang -O1", "armclang -O2"],
    ),
    (
        "SPR",
        "INIT",
        &["gcc -O1", "gcc -O2", "clang -O1", "clang -O2", "icx -O1"],
    ),
    (
        "SPR",
        "COPY",
        &["gcc -O1", "gcc -O2", "clang -O1", "clang -O2", "icx -O1"],
    ),
    (
        "SPR",
        "UPDATE",
        &["gcc -O1", "gcc -O2", "clang -O1", "clang -O2", "icx -O1"],
    ),
    (
        "SPR",
        "ADD",
        &["gcc -O1", "gcc -O2", "clang -O1", "clang -O2", "icx -O1"],
    ),
    (
        "SPR",
        "STREAM triad",
        &["gcc -O1", "gcc -O2", "clang -O1", "clang -O2", "icx -O1"],
    ),
    (
        "SPR",
        "Schoenauer triad",
        &["gcc -O1", "gcc -O2", "clang -O1", "clang -O2", "icx -O1"],
    ),
    (
        "SPR",
        "Sum reduction",
        &[
            "gcc -O1",
            "gcc -O2",
            "gcc -O3",
            "clang -O1",
            "clang -O2",
            "clang -O3",
            "icx -O1",
        ],
    ),
    ("SPR", "pi by integration", &["*"]),
    ("SPR", "Gauss-Seidel 2D 5pt", &["*"]),
    ("SPR", "Jacobi 2D 5pt", &["*"]),
    ("SPR", "Jacobi 3D 7pt", &["*"]),
    ("SPR", "Jacobi 3D 11pt", &["*"]),
    ("SPR", "Jacobi 3D 27pt", &["*"]),
    ("Genoa", "STREAM triad", &["gcc -O2", "clang -O2"]),
    ("Genoa", "pi by integration", &["*"]),
    (
        "Genoa",
        "Jacobi 3D 7pt",
        &[
            "gcc -O1",
            "gcc -O2",
            "gcc -O3",
            "gcc -Ofast",
            "clang -O1",
            "clang -O2",
            "clang -O3",
            "clang -Ofast",
            "icx -O1",
        ],
    ),
    (
        "Genoa",
        "Jacobi 3D 11pt",
        &[
            "gcc -O1",
            "gcc -O2",
            "gcc -O3",
            "gcc -Ofast",
            "clang -O1",
            "clang -O2",
            "clang -O3",
            "clang -Ofast",
            "icx -O1",
        ],
    ),
    (
        "Genoa",
        "Jacobi 3D 27pt",
        &[
            "gcc -O1",
            "gcc -O2",
            "gcc -O3",
            "gcc -Ofast",
            "clang -O1",
            "clang -O2",
            "clang -O3",
            "clang -Ofast",
            "icx -O1",
        ],
    ),
];

/// MCA's prediction of a corpus block with `iterations` measured
/// iterations after the pipeline's 30 warm-up iterations.
fn mca_at(machine: &Machine, kernel: &Kernel, iterations: usize) -> McaResult {
    let descs = mca_descs(machine, kernel, &machine.describe_kernel(kernel));
    let edges = mca_edges(kernel, &descs);
    fast_simulate(
        machine,
        &descs,
        &edges,
        iterations,
        30,
        &mut SimScratch::default(),
    )
}

/// Every trio corpus block with its chip, kernel name and
/// `compiler flags` label.
fn trio_corpus() -> Vec<(Machine, &'static str, &'static str, String, Kernel)> {
    let mut out = Vec::new();
    for m in uarch::all_machines() {
        for v in kernels::variants_for(m.arch) {
            let k = kernels::generate_kernel(&v, &m);
            let flags = format!("{} {}", v.compiler.name(), v.opt.name());
            out.push((m.clone(), m.chip, v.kernel.name(), flags, k));
        }
    }
    out
}

/// A silent loss (or gain) of the exit on any block fails here, naming it.
#[test]
fn steady_exit_is_pinned_on_the_trio_corpus() {
    let listed = |chip: &str, kernel: &str, flags: &str| {
        NO_EXIT
            .iter()
            .any(|&(c, k, v)| c == chip && k == kernel && (v == ["*"] || v.contains(&flags)))
    };
    let mut exits = 0;
    for (m, chip, kernel, flags, k) in trio_corpus() {
        let r = predict(&m, &k);
        assert_eq!(
            r.early_exit_iter.is_none(),
            listed(chip, kernel, &flags),
            "{kernel} / {flags} / {chip}: exit at {:?}",
            r.early_exit_iter
        );
        exits += r.early_exit_iter.is_some() as usize;
    }
    assert_eq!(exits, EXITS);
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Is Fig. 3's MCA number converged on the blocks that never exit? Their
/// `cycles_per_iter` at 150 and at 300 measured iterations, and the
/// corpus median |RPE| against the simulator with those blocks at either
/// length (EXPERIMENTS.md records the numbers; `--nocapture` prints
/// them).
#[test]
fn non_exiting_blocks_are_converged_at_150_iterations() {
    let (mut rpe150, mut rpe300) = (Vec::new(), Vec::new());
    let mut worst: f64 = 0.0;
    for (m, chip, kernel, flags, k) in trio_corpus() {
        let measured = exec::cycles_per_iteration(&m, &k);
        let abs_rpe = |cy: f64| (measured - cy).abs() / measured * 100.0;
        let short = mca_at(&m, &k, 150);
        rpe150.push(abs_rpe(short.cycles_per_iter));
        if short.early_exit_iter.is_some() {
            rpe300.push(abs_rpe(short.cycles_per_iter));
            continue;
        }
        let long = mca_at(&m, &k, 300).cycles_per_iter;
        let moved = (long - short.cycles_per_iter) / short.cycles_per_iter * 100.0;
        println!(
            "{chip} | {kernel} | {flags} | {:.4} | {long:.4} | {moved:+.2}%",
            short.cycles_per_iter
        );
        worst = worst.max(moved.abs());
        rpe300.push(abs_rpe(long));
    }
    let (m150, m300) = (median(rpe150), median(rpe300));
    println!("median |RPE|: {m150:.2}% at 150, {m300:.2}% at 300; worst block moved {worst:.2}%");
    assert!(
        worst < 3.0,
        "a non-exiting block moved {worst:.2}% at 300 iterations"
    );
    assert!(
        (m150 - m300).abs() < 0.5,
        "Fig. 3's MCA median |RPE| moved from {m150:.2}% to {m300:.2}%"
    );
}

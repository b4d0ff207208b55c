//! Oracle-ratio gate: runs every fast/oracle pair of `bench::ratios`
//! uncapped, writes `BENCH_ratios.json` at the repository root, and
//! fails on any mismatch or on any ratio below its floor.
//!
//! ```sh
//! cargo bench -p bench --bench oracle_ratios
//! ```

fn main() {
    let report = bench::ratios::run();
    for r in &report.rows {
        let floor = r
            .floor
            .map_or("no gate".to_string(), |f| format!("floor {f}x"));
        eprintln!(
            "[oracle_ratios] {:<26} fast {:>9.1} ms, oracle {:>9.1} ms: {:>6.2}x ({floor}), equivalent: {}",
            r.pair, r.fast_ms, r.oracle_ms, r.ratio, r.equivalent,
        );
    }
    eprintln!(
        "[oracle_ratios] obs overhead {:+.1}%",
        report.obs_overhead_pct
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ratios.json");
    std::fs::write(path, report.to_json()).expect("write BENCH_ratios.json");
    eprintln!("[oracle_ratios] wrote {path}");
    report.check();
}

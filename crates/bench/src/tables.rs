//! Text renderers for the paper's tables and figures.
//!
//! The heavy renders (Table I rows, the Fig. 4 write-allocate sweep) fan
//! out on the vendored rayon pool; the pool's map is order-preserving,
//! so output is byte-identical at every thread count.

use rayon::prelude::*;
use std::fmt::Write;

/// Table I — node comparison.
pub fn render_table1() -> String {
    let machines = uarch::all_machines();
    let rows: Vec<node::Table1Row> = machines.par_iter().map(node::table1_row).collect();
    let mut s = String::new();
    let _ = writeln!(s, "Table I — node comparison");
    let _ = writeln!(
        s,
        "{:<28} {:>12} {:>12} {:>12}",
        "", rows[0].chip, rows[1].chip, rows[2].chip
    );
    let line = |s: &mut String, label: &str, f: &dyn Fn(&node::Table1Row) -> String| {
        let _ = writeln!(
            s,
            "{label:<28} {:>12} {:>12} {:>12}",
            f(&rows[0]),
            f(&rows[1]),
            f(&rows[2])
        );
    };
    line(&mut s, "Cores", &|r| r.cores.to_string());
    line(&mut s, "Frequency (max/base) [GHz]", &|r| {
        format!("{:.1}/{:.2}", r.freq_max_ghz, r.freq_base_ghz)
    });
    line(&mut s, "Theor. DP peak [Tflop/s]", &|r| {
        format!("{:.2}", r.theor_peak_tflops)
    });
    line(&mut s, "Achiev. DP peak [Tflop/s]", &|r| {
        format!("{:.2}", r.achieved_peak_tflops)
    });
    line(&mut s, "TDP [W]", &|r| format!("{:.0}", r.tdp_w));
    line(&mut s, "L1/L2 [KiB], L3 [MiB]", &|r| {
        format!("{}/{}/{}", r.l1_kib, r.l2_kib, r.l3_mib)
    });
    line(&mut s, "Main memory [GB]", &|r| {
        format!("{} {}", r.mem_gb, r.mem_type)
    });
    line(&mut s, "ccNUMA domains", &|r| r.numa_domains.to_string());
    line(&mut s, "Mem BW theor. [GB/s]", &|r| {
        format!("{:.0}", r.theor_bw_gbs)
    });
    line(&mut s, "Mem BW measured [GB/s]", &|r| {
        format!("{:.0}", r.measured_bw_gbs)
    });
    s
}

/// Table II — in-core features.
pub fn render_table2() -> String {
    let rows: Vec<uarch::machine::Table2Row> = uarch::all_machines()
        .iter()
        .map(|m| m.table2_row())
        .collect();
    let mut s = String::new();
    let _ = writeln!(s, "Table II — in-core features and port models");
    let _ = writeln!(
        s,
        "{:<18} {:>14} {:>14} {:>14}",
        "", rows[0].uarch, rows[1].uarch, rows[2].uarch
    );
    let line = |s: &mut String, label: &str, f: &dyn Fn(&uarch::machine::Table2Row) -> String| {
        let _ = writeln!(
            s,
            "{label:<18} {:>14} {:>14} {:>14}",
            f(&rows[0]),
            f(&rows[1]),
            f(&rows[2])
        );
    };
    line(&mut s, "Number of ports", &|r| r.num_ports.to_string());
    line(&mut s, "SIMD width [B]", &|r| {
        r.simd_width_bytes.to_string()
    });
    line(&mut s, "Int units", &|r| r.int_units.to_string());
    line(&mut s, "FP vector units", &|r| r.fp_vec_units.to_string());
    line(&mut s, "Loads/cy", &|r| {
        format!("{}x{}B", r.loads_per_cycle, r.load_width_bits / 8)
    });
    line(&mut s, "Stores/cy", &|r| {
        format!("{}x{}B", r.stores_per_cycle, r.store_width_bits / 8)
    });
    s
}

/// Table III — instruction throughput and latency.
pub fn render_table3() -> String {
    let cells = crate::ibench::table3();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table III — DP instruction throughput [elements/cy] and latency [cy]"
    );
    let _ = writeln!(
        s,
        "{:<16} {:>10} {:>10} {:>10}   {:>8} {:>8} {:>8}",
        "", "GCS", "SPR", "Genoa", "GCS", "SPR", "Genoa"
    );
    for instr in crate::ibench::Instr::ALL {
        let name = instr.name();
        let get = |chip: &str| {
            cells
                .iter()
                .find(|c| c.instr == name && c.chip == chip)
                .unwrap()
        };
        let (g, p, z) = (get("GCS"), get("SPR"), get("Genoa"));
        let _ = writeln!(
            s,
            "{name:<16} {:>10.2} {:>10.2} {:>10.2}   {:>8.1} {:>8.1} {:>8.1}",
            g.throughput, p.throughput, z.throughput, g.latency_cy, p.latency_cy, z.latency_cy
        );
    }
    s
}

/// Fig. 1 — the port-model block diagram (for any machine).
pub fn render_fig1(machine: &uarch::Machine) -> String {
    machine.port_model.render(&format!(
        "Fig. 1 — {} port model ({})",
        machine.arch.label(),
        machine.part
    ))
}

/// Fig. 2 — sustained frequency sweep.
pub fn render_fig2() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 2 — sustained clock frequency [GHz] vs. active cores"
    );
    for m in uarch::all_machines() {
        let _ = writeln!(s, "\n{} ({} cores):", m.arch.chip(), m.cores);
        for (ext, series) in node::fig2_sweep(&m) {
            let samples: Vec<String> = [1u32, 2, 4, 8, 13, 16, 26, 32, 52, 72, 96]
                .iter()
                .filter(|&&n| n <= m.cores)
                .map(|&n| format!("{n}:{:.2}", series[(n - 1) as usize].1))
                .collect();
            let _ = writeln!(s, "  {:<8} {}", ext.label(), samples.join("  "));
        }
    }
    s
}

/// Fig. 4 — write-allocate evasion sweep. All (machine × store kind)
/// tasks run concurrently on the rayon pool via
/// [`memhier::storebench::fig4_full`].
pub fn render_fig4() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 4 — memory traffic / stored volume vs. cores (store-only, 40 GB)"
    );
    let machines = uarch::all_machines();
    let sweeps = memhier::storebench::fig4_full(&machines, memhier::StreamConfig::default());
    for sw in &sweeps {
        let _ = writeln!(s, "\n{}:", sw.chip);
        for (i, p) in sw.standard.iter().enumerate() {
            let (n, std) = (p.cores, p.ratio);
            match &sw.nt {
                Some(nt) => {
                    let ntr = nt[i].ratio;
                    let _ = writeln!(s, "  cores {n:>3}: standard {std:.3}   NT stores {ntr:.3}");
                }
                None => {
                    let _ = writeln!(s, "  cores {n:>3}: standard {std:.3}");
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn tables_render_nonempty() {
        assert!(super::render_table1().contains("GCS"));
        assert!(super::render_table2().contains("Neoverse V2"));
        let m = uarch::Machine::neoverse_v2();
        assert!(super::render_fig1(&m).contains("17 issue ports"));
        assert!(super::render_fig2().contains("AVX-512"));
    }

    #[test]
    fn fig4_renders_all_machines() {
        let s = super::render_fig4();
        assert!(s.contains("GCS") && s.contains("SPR") && s.contains("Genoa"));
        assert!(s.contains("NT stores"));
    }

    #[test]
    fn table1_is_identical_on_the_default_and_a_one_thread_pool() {
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        assert_eq!(super::render_table1(), one.install(super::render_table1));
    }
}

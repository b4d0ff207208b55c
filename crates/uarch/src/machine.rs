//! Complete machine descriptions and instruction-database lookup.

use crate::instr::{Entry, InstrClass, InstrDesc, Uop};
use crate::ports::{PortModel, PortSet};
use isa::{Instruction, Isa};
use serde::Serialize;

/// The three microarchitectures under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Arch {
    /// Arm Neoverse V2 — Nvidia Grace CPU Superchip.
    NeoverseV2,
    /// Intel Golden Cove — Xeon Platinum 8470 (Sapphire Rapids).
    GoldenCove,
    /// AMD Zen 4 — EPYC 9684X (Genoa-X).
    Zen4,
}

impl Arch {
    pub fn label(&self) -> &'static str {
        match self {
            Arch::NeoverseV2 => "Neoverse V2",
            Arch::GoldenCove => "Golden Cove",
            Arch::Zen4 => "Zen 4",
        }
    }

    /// The chip/server shorthand the paper uses.
    pub fn chip(&self) -> &'static str {
        match self {
            Arch::NeoverseV2 => "GCS",
            Arch::GoldenCove => "SPR",
            Arch::Zen4 => "Genoa",
        }
    }
}

/// One cache level of the hierarchy (Table I).
#[derive(Debug, Clone, Serialize)]
pub struct CacheLevel {
    pub name: &'static str,
    pub size_kib: u64,
    pub line_bytes: u32,
    pub assoc: u32,
    /// Shared across the chip (L3) vs. private per core (L1/L2).
    pub shared: bool,
    /// Load-to-use latency in cycles.
    pub latency_cy: u32,
}

/// Main-memory subsystem parameters (Table I).
#[derive(Debug, Clone, Serialize)]
pub struct MemorySpec {
    pub size_gb: u32,
    pub mem_type: &'static str,
    /// Theoretical peak bandwidth, GB/s per socket.
    pub theor_bw_gbs: f64,
    /// Measured sustainable fraction of the theoretical peak
    /// (paper: GCS 87 %, SPR 90 %, Genoa 78 %).
    pub efficiency: f64,
    /// Idle memory access latency in ns (used by the memory simulator).
    pub latency_ns: f64,
}

impl MemorySpec {
    /// Measured/sustained bandwidth in GB/s.
    pub fn measured_bw_gbs(&self) -> f64 {
        self.theor_bw_gbs * self.efficiency
    }
}

/// A complete machine model: identification, port model, front-end and OoO
/// resources, memory pipes, chip-level data, and the instruction database.
#[derive(Debug, Clone)]
pub struct Machine {
    pub arch: Arch,
    /// Stable registry identifier (`incore-cli machines`); equals the
    /// family name (`neoverse-v2` / `golden-cove` / `zen4`) for the three
    /// shipped models, and a derived id (`zen2-rome`, …) for variants.
    pub id: &'static str,
    /// Human-readable microarchitecture name used in report labels.
    pub name: &'static str,
    /// Chip/system shorthand used as the short report label (paper: GCS,
    /// SPR, Genoa).
    pub chip: &'static str,
    /// Marketing name of the evaluated part.
    pub part: &'static str,
    pub isa: Isa,
    /// Widest vector register (bits) the modeled ISA extensions decode;
    /// `simd_width_bits` may be narrower when wide ops are double-pumped
    /// (Zen 4 runs AVX-512 on 256-bit datapaths). The corpus generator
    /// clamps compiler vector widths to this.
    pub max_isa_vec_bits: u16,
    pub port_model: PortModel,
    /// Instruction timing database; first matching entry wins.
    pub table: Vec<Entry>,

    // Front end & out-of-order resources.
    /// µ-ops renamed/dispatched per cycle.
    pub dispatch_width: u32,
    pub retire_width: u32,
    pub rob_size: u32,
    pub sched_size: u32,
    /// Renamer eliminates register-register moves.
    pub move_elimination: bool,

    // Memory pipes.
    /// Ports that can execute a load µ-op (at native width).
    pub load_ports: PortSet,
    /// Ports usable for full-SIMD-width loads when narrower than
    /// `load_ports` (Golden Cove executes only two 512-bit loads/cy even
    /// though it has three load AGUs).
    pub load_ports_wide: PortSet,
    pub store_agu_ports: PortSet,
    pub store_data_ports: PortSet,
    /// L1 load-to-use latency (cycles).
    pub l1_load_latency: u32,
    /// Width of one load/store pipe in bits (Table II).
    pub load_width_bits: u16,
    pub store_width_bits: u16,

    // Chip-level data (Table I / II).
    pub cores: u32,
    pub base_freq_ghz: f64,
    pub max_freq_ghz: f64,
    pub simd_width_bits: u16,
    pub int_units: u32,
    pub fp_vec_units: u32,
    pub caches: Vec<CacheLevel>,
    pub memory: MemorySpec,
    pub tdp_w: f64,
    pub numa_domains: u32,
    /// DP flops/cycle from FMA pipes at full width (2 flops per lane).
    pub fma_dp_flops_per_cycle: u32,
    /// Additional DP flops/cycle from dedicated FP-ADD pipes that can run
    /// concurrently with the FMA pipes (Zen 4's F2/F3 adders).
    pub extra_add_dp_flops_per_cycle: u32,
}

impl Machine {
    /// Theoretical DP peak of the full chip in Tflop/s (Table I), computed
    /// at maximum turbo frequency counting FMA and concurrent ADD pipes.
    pub fn theor_peak_dp_tflops(&self) -> f64 {
        self.cores as f64
            * self.max_freq_ghz
            * (self.fma_dp_flops_per_cycle + self.extra_add_dp_flops_per_cycle) as f64
            / 1000.0
    }

    /// DP elements per SIMD register.
    pub fn dp_lanes(&self) -> u32 {
        (self.simd_width_bits / 64) as u32
    }

    /// Loads per cycle at full SIMD width (Table II row "Loads/cy").
    pub fn loads_per_cycle(&self) -> u32 {
        self.load_ports_wide.count()
    }

    /// Stores per cycle (Table II row "Stores/cy").
    pub fn stores_per_cycle(&self) -> u32 {
        self.store_data_ports.count()
    }

    /// Look up the timing description for an instruction.
    ///
    /// Lookup order: rename-eliminated idioms → explicit database entry →
    /// synthesized load/store recipe → heuristic fallback. Memory µ-ops are
    /// synthesized and appended for entries that match register-memory
    /// forms.
    pub fn describe(&self, inst: &Instruction) -> InstrDesc {
        if inst.is_nop() || inst.is_zero_idiom() || (self.move_elimination && inst.is_reg_move()) {
            return InstrDesc::eliminated();
        }

        let norm = inst.norm_mnemonic();
        let entry = self.table.iter().find(|e| e.matches_normalized(inst, norm));

        let mut desc = match entry {
            Some(e) => InstrDesc {
                uops: e.uops.clone(),
                latency: e.latency,
                rthroughput: e.rthroughput,
                class: e.class,
                from_fallback: false,
            },
            None => self.fallback(inst),
        };

        // Synthesize memory µ-ops. Entries with explicit µ-ops and a memory
        // class (gathers/scatters) already model their memory traffic and
        // are taken as-is; everything else gets the machine's standard
        // recipe, splitting accesses wider than one pipe into several µ-ops
        // (`ldp q,q` on V2, 512-bit accesses on Zen 4 / SPR stores).
        let explicit_mem =
            matches!(desc.class, InstrClass::Load | InstrClass::Store) && !desc.uops.is_empty();
        if !explicit_mem {
            if inst.is_load() {
                let n = self.mem_uop_count(inst, self.load_width_bits);
                let wide = inst.mem_access_bytes() * 8 >= self.load_width_bits as u32
                    && !self.load_ports_wide.is_empty()
                    && self.load_ports_wide != self.load_ports;
                let ports = if wide {
                    self.load_ports_wide
                } else {
                    self.load_ports
                };
                for _ in 0..n {
                    desc.uops.push(Uop::new(ports));
                }
                let pure =
                    matches!(desc.class, InstrClass::Load | InstrClass::Move) && !inst.is_store();
                if pure {
                    desc.class = InstrClass::Load;
                    desc.latency = self.l1_load_latency;
                    desc.rthroughput = desc.rthroughput.max(n as f64 / ports.count() as f64);
                } else {
                    // Load-op form: charge the L1 latency on the dependency
                    // path through the memory operand.
                    desc.latency += self.l1_load_latency;
                }
            }
            if inst.is_store() {
                let n = self.mem_uop_count(inst, self.store_width_bits);
                for _ in 0..n {
                    desc.uops.push(Uop::new(self.store_agu_ports));
                    desc.uops.push(Uop::new(self.store_data_ports));
                }
                if !inst.is_load()
                    && matches!(
                        desc.class,
                        InstrClass::Load | InstrClass::Store | InstrClass::Move
                    )
                {
                    desc.class = InstrClass::Store;
                    desc.latency = 0;
                    desc.rthroughput = desc
                        .rthroughput
                        .max(n as f64 / self.store_data_ports.count() as f64);
                }
            }
        }
        desc
    }

    /// Number of memory µ-ops an access needs given the pipe width.
    fn mem_uop_count(&self, inst: &Instruction, pipe_bits: u16) -> usize {
        let bits = (inst.mem_access_bytes() * 8).max(8);
        (bits as usize).div_ceil(pipe_bits as usize).max(1)
    }

    /// Heuristic default for instruction forms not in the database, in the
    /// spirit of OSACA's "form not found, assuming defaults" path.
    fn fallback(&self, inst: &Instruction) -> InstrDesc {
        use crate::ports::PortCap;
        let pm = &self.port_model;
        let (ports, latency, class) = if inst.is_branch() {
            (pm.with_cap(PortCap::Branch), 1, InstrClass::Branch)
        } else if inst.is_store() {
            // Handled by the store synthesizer; empty compute part.
            return InstrDesc {
                uops: Vec::new(),
                latency: 0,
                rthroughput: 0.0,
                class: InstrClass::Store,
                from_fallback: true,
            };
        } else if inst.is_load() {
            return InstrDesc {
                uops: Vec::new(),
                latency: 0,
                rthroughput: 0.0,
                class: InstrClass::Load,
                from_fallback: true,
            };
        } else if inst.max_vec_width() > 0 {
            (pm.with_cap(PortCap::VecAlu), 3, InstrClass::VecAlu)
        } else {
            (pm.with_cap(PortCap::IntAlu), 1, InstrClass::IntAlu)
        };
        let n512_split = self.arch == Arch::Zen4 && inst.max_vec_width() == 512;
        let mut uops = vec![Uop::new(ports)];
        if n512_split {
            uops.push(Uop::new(ports));
        }
        InstrDesc {
            rthroughput: uops.len() as f64 / ports.count().max(1) as f64,
            uops,
            latency,
            class,
            from_fallback: true,
        }
    }

    /// Describe every instruction of a kernel.
    pub fn describe_kernel(&self, kernel: &isa::Kernel) -> Vec<InstrDesc> {
        kernel
            .instructions
            .iter()
            .map(|i| self.describe(i))
            .collect()
    }

    /// Constituent data of the paper's Table II for this machine.
    pub fn table2_row(&self) -> Table2Row {
        Table2Row {
            chip: self.chip,
            uarch: self.name,
            num_ports: self.port_model.num_ports() as u32,
            simd_width_bytes: (self.simd_width_bits / 8) as u32,
            int_units: self.int_units,
            fp_vec_units: self.fp_vec_units,
            loads_per_cycle: self.loads_per_cycle(),
            load_width_bits: self.load_width_bits as u32,
            stores_per_cycle: self.stores_per_cycle(),
            store_width_bits: self.store_width_bits as u32,
        }
    }
}

/// One row of the paper's Table II.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct Table2Row {
    pub chip: &'static str,
    pub uarch: &'static str,
    pub num_ports: u32,
    pub simd_width_bytes: u32,
    pub int_units: u32,
    pub fp_vec_units: u32,
    pub loads_per_cycle: u32,
    pub load_width_bits: u32,
    pub stores_per_cycle: u32,
    pub store_width_bits: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_flops_match_table1() {
        // Table I: 3.92, 6.32, 8.52 Tflop/s.
        let gcs = Machine::neoverse_v2();
        let spr = Machine::golden_cove();
        let genoa = Machine::zen4();
        assert!(
            (gcs.theor_peak_dp_tflops() - 3.92).abs() < 0.02,
            "{}",
            gcs.theor_peak_dp_tflops()
        );
        assert!(
            (spr.theor_peak_dp_tflops() - 6.32).abs() < 0.02,
            "{}",
            spr.theor_peak_dp_tflops()
        );
        assert!(
            (genoa.theor_peak_dp_tflops() - 8.52).abs() < 0.03,
            "{}",
            genoa.theor_peak_dp_tflops()
        );
    }

    #[test]
    fn table2_counts_match_paper() {
        let gcs = Machine::neoverse_v2().table2_row();
        assert_eq!(gcs.num_ports, 17);
        assert_eq!(gcs.simd_width_bytes, 16);
        assert_eq!(gcs.int_units, 6);
        assert_eq!(gcs.fp_vec_units, 4);
        assert_eq!((gcs.loads_per_cycle, gcs.load_width_bits), (3, 128));
        assert_eq!((gcs.stores_per_cycle, gcs.store_width_bits), (2, 128));

        let spr = Machine::golden_cove().table2_row();
        assert_eq!(spr.num_ports, 12);
        assert_eq!(spr.simd_width_bytes, 64);
        assert_eq!(spr.int_units, 5);
        assert_eq!(spr.fp_vec_units, 3);
        assert_eq!((spr.loads_per_cycle, spr.load_width_bits), (2, 512));
        assert_eq!((spr.stores_per_cycle, spr.store_width_bits), (2, 256));

        let genoa = Machine::zen4().table2_row();
        assert_eq!(genoa.num_ports, 13);
        assert_eq!(genoa.simd_width_bytes, 32);
        assert_eq!(genoa.int_units, 4);
        assert_eq!(genoa.fp_vec_units, 4);
        assert_eq!((genoa.loads_per_cycle, genoa.load_width_bits), (2, 256));
        assert_eq!((genoa.stores_per_cycle, genoa.store_width_bits), (1, 256));
    }

    #[test]
    fn memory_bandwidth_matches_table1() {
        let gcs = Machine::neoverse_v2();
        assert!((gcs.memory.theor_bw_gbs - 546.0).abs() < 1.0);
        assert!((gcs.memory.measured_bw_gbs() - 467.0).abs() < 10.0);
        let spr = Machine::golden_cove();
        assert!((spr.memory.measured_bw_gbs() - 273.0).abs() < 8.0);
        let genoa = Machine::zen4();
        assert!((genoa.memory.measured_bw_gbs() - 360.0).abs() < 8.0);
    }
}

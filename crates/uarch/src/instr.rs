//! Instruction timing descriptors and the database-entry matching machinery.
//!
//! A machine's instruction table is a list of [`Entry`] patterns; looking up
//! a parsed instruction yields an [`InstrDesc`]: the µ-op decomposition with
//! eligible ports and per-port occupancy, the register-to-register latency,
//! and the documented reciprocal throughput.

use crate::ports::PortSet;
use isa::{Instruction, OpSig};

/// Coarse class of an instruction used by the analyzers and the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    IntAlu,
    IntMul,
    IntDiv,
    VecAlu,
    VecMul,
    VecFma,
    VecDiv,
    Load,
    Store,
    Branch,
    Move,
    /// Eliminated at rename: zero idioms, eliminated moves, nops.
    Eliminated,
    Other,
}

/// One micro-operation: it may issue on any port in `ports` and occupies the
/// chosen port for `occupancy` cycles (1.0 for fully pipelined units; the
/// divider holds its port for its full reciprocal throughput).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uop {
    pub ports: PortSet,
    pub occupancy: f64,
}

impl Uop {
    pub fn new(ports: PortSet) -> Self {
        Uop {
            ports,
            occupancy: 1.0,
        }
    }

    pub fn blocking(ports: PortSet, occupancy: f64) -> Self {
        Uop { ports, occupancy }
    }
}

/// Full timing description of one instruction on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrDesc {
    /// µ-ops in issue order (compute µ-ops plus any load/store µ-ops the
    /// database synthesized for memory operands).
    pub uops: Vec<Uop>,
    /// Register-to-register result latency in cycles (excluding load-to-use
    /// latency, which the memory model adds).
    pub latency: u32,
    /// Documented reciprocal throughput in cycles/instruction, assuming no
    /// other instructions compete for ports.
    pub rthroughput: f64,
    pub class: InstrClass,
    /// Whether the lookup fell back to a heuristic default (the entry was
    /// not in the database) — reported by the analyzers, mirroring OSACA's
    /// "instruction form not found" warnings.
    pub from_fallback: bool,
}

impl InstrDesc {
    /// An instruction removed at rename (zero idiom / eliminated move).
    pub fn eliminated() -> Self {
        InstrDesc {
            uops: Vec::new(),
            latency: 0,
            rthroughput: 0.0,
            class: InstrClass::Eliminated,
            from_fallback: false,
        }
    }

    /// Number of µ-ops this instruction dispatches.
    pub fn uop_count(&self) -> usize {
        self.uops.len()
    }
}

/// Width class an entry applies to, matched against the instruction's widest
/// vector register (0 = scalar / GPR-only form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthClass {
    /// Any operand shape.
    Any,
    /// No vector register present (scalar integer or FP-in-GPR form).
    Scalar,
    /// Widest vector register access is a genuine 128-bit vector (xmm /
    /// NEON `v`/`q` / SVE @128). Narrower accesses (`d`/`s` scalar-FP
    /// views) fall under [`WidthClass::ScalarFp`].
    V128,
    /// 256-bit (ymm).
    V256,
    /// 512-bit (zmm).
    V512,
    /// Scalar-FP-on-vector-register (`addsd %xmm`, `fadd d0` — width via
    /// mnemonic/register view rather than full vector width).
    ScalarFp,
}

impl WidthClass {
    fn matches(&self, inst: &Instruction) -> bool {
        let w = inst.max_vec_width();
        match self {
            WidthClass::Any => true,
            WidthClass::Scalar => w == 0,
            WidthClass::V128 => (65..=128).contains(&w),
            WidthClass::V256 => w == 256,
            WidthClass::V512 => w == 512,
            WidthClass::ScalarFp => is_scalar_fp(inst),
        }
    }
}

/// Whether an instruction is a scalar-FP operation carried on a vector
/// register (x86 `*sd`/`*ss`, AArch64 `d`/`s`-view FP math).
pub fn is_scalar_fp(inst: &Instruction) -> bool {
    match inst.isa {
        isa::Isa::X86 => {
            let m = inst.mnemonic.as_str();
            (m.ends_with("sd") || m.ends_with("ss"))
                && !m.starts_with("mov")
                && !m.starts_with("vmov")
                && inst.max_vec_width() > 0
        }
        isa::Isa::AArch64 => {
            // Scalar FP views are ≤ 64-bit vector-register accesses.
            let w = inst.max_vec_width();
            w > 0 && w <= 64
        }
    }
}

/// A database entry: a pattern over (normalized mnemonic, width class,
/// memory presence) plus the timing for matching instructions.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Normalized mnemonics this entry covers (see
    /// [`isa::Instruction::norm_mnemonic`]).
    pub mnemonics: &'static [&'static str],
    pub width: WidthClass,
    /// `Some(true)`: only register-memory forms; `Some(false)`: only
    /// register-only forms; `None`: both (memory µ-ops are synthesized).
    pub mem: Option<bool>,
    /// `Some(true)`: the memory operand's index must be a vector register
    /// (gather/scatter addressing); `Some(false)`: must not; `None`: any.
    pub vector_index: Option<bool>,
    /// Compute µ-ops (excluding any synthesized load/store µ-ops).
    pub uops: Vec<Uop>,
    pub latency: u32,
    pub rthroughput: f64,
    pub class: InstrClass,
}

impl Entry {
    /// Whether this entry matches the given instruction.
    pub fn matches(&self, inst: &Instruction) -> bool {
        self.matches_normalized(inst, inst.norm_mnemonic())
    }

    /// [`matches`](Self::matches) with the instruction's
    /// [`norm_mnemonic`](Instruction::norm_mnemonic) computed once by the
    /// caller — a table scan then normalizes each instruction once, not
    /// once per entry.
    pub fn matches_normalized(&self, inst: &Instruction, norm_mnemonic: &str) -> bool {
        if !self.mnemonics.contains(&norm_mnemonic) {
            return false;
        }
        if !self.width.matches(inst) {
            return false;
        }
        let mem_ok = match self.mem {
            Some(true) => inst.mem_position().is_some(),
            Some(false) => inst.mem_position().is_none(),
            None => true,
        };
        if !mem_ok {
            return false;
        }
        match self.vector_index {
            None => true,
            Some(want) => {
                let has_vec_index = inst
                    .mem_position()
                    .and_then(|p| inst.operands[p].as_mem())
                    .and_then(|m| m.index)
                    .is_some_and(|r| r.class == isa::RegClass::Vec);
                has_vec_index == want
            }
        }
    }
}

/// Builder-style helper for terse machine-table definitions.
pub fn entry(
    mnemonics: &'static [&'static str],
    width: WidthClass,
    uops: Vec<Uop>,
    latency: u32,
    rthroughput: f64,
    class: InstrClass,
) -> Entry {
    Entry {
        mnemonics,
        width,
        mem: None,
        vector_index: None,
        uops,
        latency,
        rthroughput,
        class,
    }
}

/// Signature-based helpers used in tests and reports.
pub fn sig_string(sigs: &[OpSig]) -> String {
    sigs.iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::parse::parse_line_x86;

    fn x86(s: &str) -> Instruction {
        parse_line_x86(s, 1).unwrap().unwrap()
    }

    #[test]
    fn width_class_matching() {
        assert!(WidthClass::V512.matches(&x86("vaddpd %zmm0, %zmm1, %zmm2")));
        assert!(!WidthClass::V512.matches(&x86("vaddpd %ymm0, %ymm1, %ymm2")));
        assert!(WidthClass::V256.matches(&x86("vaddpd %ymm0, %ymm1, %ymm2")));
        assert!(WidthClass::Scalar.matches(&x86("addq %rax, %rbx")));
        assert!(!WidthClass::Scalar.matches(&x86("addpd %xmm0, %xmm1")));
        assert!(WidthClass::Any.matches(&x86("nop")));
    }

    #[test]
    fn scalar_fp_detection() {
        assert!(is_scalar_fp(&x86("addsd %xmm0, %xmm1")));
        assert!(is_scalar_fp(&x86("vmulsd %xmm0, %xmm1, %xmm2")));
        assert!(!is_scalar_fp(&x86("addpd %xmm0, %xmm1")));
        assert!(!is_scalar_fp(&x86("movsd (%rax), %xmm0")));
        use isa::parse::parse_line_aarch64;
        let a = parse_line_aarch64("fadd d0, d1, d2", 1).unwrap().unwrap();
        assert!(is_scalar_fp(&a));
        let v = parse_line_aarch64("fadd v0.2d, v1.2d, v2.2d", 1)
            .unwrap()
            .unwrap();
        assert!(!is_scalar_fp(&v));
    }

    #[test]
    fn entry_matching_with_mem_constraint() {
        let e = Entry {
            mnemonics: &["vaddpd"],
            width: WidthClass::V512,
            mem: Some(false),
            vector_index: None,
            uops: vec![Uop::new(PortSet::of(&[0, 5]))],
            latency: 2,
            rthroughput: 0.5,
            class: InstrClass::VecAlu,
        };
        assert!(e.matches(&x86("vaddpd %zmm0, %zmm1, %zmm2")));
        assert!(!e.matches(&x86("vaddpd (%rax), %zmm1, %zmm2")));
        assert!(!e.matches(&x86("vmulpd %zmm0, %zmm1, %zmm2")));
    }

    #[test]
    fn normalized_mnemonic_matching() {
        let e = entry(
            &["add", "sub"],
            WidthClass::Scalar,
            vec![Uop::new(PortSet::of(&[0, 1, 5, 6]))],
            1,
            0.25,
            InstrClass::IntAlu,
        );
        assert!(e.matches(&x86("addq $8, %rax")));
        assert!(e.matches(&x86("subl %ecx, %edx")));
        assert!(!e.matches(&x86("imulq %rcx, %rdx")));
    }

    #[test]
    fn eliminated_desc() {
        let d = InstrDesc::eliminated();
        assert_eq!(d.uop_count(), 0);
        assert_eq!(d.class, InstrClass::Eliminated);
    }

    #[test]
    fn blocking_uop_occupancy() {
        let u = Uop::blocking(PortSet::single(0), 4.0);
        assert_eq!(u.occupancy, 4.0);
        assert_eq!(Uop::new(PortSet::single(0)).occupancy, 1.0);
    }
}

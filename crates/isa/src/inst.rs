//! Instruction representation and ISA-level semantic queries.

use crate::operand::{OpSig, Operand};
use crate::reg::Register;
use std::fmt;

/// The two instruction sets the toolchain understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// x86-64 in AT&T syntax (source, …, destination order).
    X86,
    /// AArch64 (destination-first order), including NEON and SVE.
    AArch64,
}

/// A parsed assembly instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// Canonical lower-case mnemonic, including any AT&T width suffix
    /// (`addq`) or AArch64 condition (`b.ne` is stored as `b.ne`).
    pub mnemonic: String,
    /// Operands in *source order as written* (AT&T: sources first,
    /// destination last; AArch64: destination first).
    pub operands: Vec<Operand>,
    pub isa: Isa,
    /// SVE governing predicate with merge/zero flag, e.g. `p0/m`.
    pub predicate: Option<(Register, PredMode)>,
    /// 1-based source line for diagnostics.
    pub line: usize,
    /// Original source text (trimmed).
    pub raw: String,
}

/// SVE predication mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredMode {
    /// `/m` — inactive lanes keep the destination's old value (destination
    /// is therefore also a source).
    Merge,
    /// `/z` — inactive lanes are zeroed.
    Zero,
    /// Implicit predication without a suffix (e.g. `ld1d {z0.d}, p0/z` is
    /// written with an explicit mode, but gather/scatter forms are not).
    Plain,
}

impl Instruction {
    /// Base mnemonic with AT&T width suffix and AArch64 condition stripped:
    /// `vaddpd` → `vaddpd`, `addq` → `add`, `b.ne` → `b`.
    pub fn base_mnemonic(&self) -> &str {
        let m = &self.mnemonic;
        if self.isa == Isa::AArch64 {
            return m.split('.').next().unwrap_or(m);
        }
        m
    }

    /// Whether this instruction reads memory.
    pub fn is_load(&self) -> bool {
        match self.isa {
            Isa::X86 => {
                if self.is_branch() || self.base_mnemonic() == "lea" {
                    return false;
                }
                if self.is_store_mnemonic_x86() {
                    return false;
                }
                // A memory operand anywhere except a pure-store position is a
                // load; for RMW instructions (`addq $1, (%rax)`) the memory
                // destination is both loaded and stored.
                match self.mem_position() {
                    Some(pos) => pos + 1 < self.operands.len() || self.is_rmw(),
                    None => false,
                }
            }
            Isa::AArch64 => {
                let b = self.base_mnemonic();
                b.starts_with("ld") || b == "prfm"
            }
        }
    }

    /// Whether this instruction writes memory.
    pub fn is_store(&self) -> bool {
        match self.isa {
            Isa::X86 => {
                if self.is_branch() || self.base_mnemonic() == "lea" {
                    return false;
                }
                // AT&T destination is the last operand.
                matches!(self.operands.last(), Some(Operand::Mem(_)))
                    && !matches!(self.base_x86(), "cmp" | "test" | "prefetch")
                    && !self.mnemonic.starts_with("prefetch")
            }
            Isa::AArch64 => self.base_mnemonic().starts_with("st"),
        }
    }

    /// Whether the store bypasses the cache hierarchy (non-temporal).
    pub fn is_nt_store(&self) -> bool {
        match self.isa {
            Isa::X86 => {
                matches!(
                    self.mnemonic.as_str(),
                    "movntdq" | "movntpd" | "movntps" | "movnti"
                ) || self.mnemonic.starts_with("vmovnt")
            }
            Isa::AArch64 => {
                let b = self.base_mnemonic();
                b == "stnp" || b.starts_with("stnt")
            }
        }
    }

    /// Whether this is a control-flow instruction.
    pub fn is_branch(&self) -> bool {
        let m = self.base_mnemonic();
        match self.isa {
            Isa::X86 => {
                matches!(m, "jmp" | "call" | "ret" | "jcxz" | "jecxz" | "jrcxz")
                    || (m.starts_with('j') && m.len() <= 4)
            }
            Isa::AArch64 => matches!(
                m,
                "b" | "bl" | "br" | "blr" | "ret" | "cbz" | "cbnz" | "tbz" | "tbnz"
            ),
        }
    }

    /// Whether this is a conditional branch (reads flags or a register).
    pub fn is_cond_branch(&self) -> bool {
        match self.isa {
            Isa::X86 => {
                self.is_branch()
                    && self.mnemonic != "jmp"
                    && self.mnemonic != "call"
                    && self.mnemonic != "ret"
            }
            Isa::AArch64 => {
                let b = self.base_mnemonic();
                (self.mnemonic.contains('.') && b == "b")
                    || matches!(b, "cbz" | "cbnz" | "tbz" | "tbnz")
            }
        }
    }

    /// Recognizes register-zeroing idioms that modern renamers execute with
    /// zero latency and no functional unit (e.g. `xorps %xmm0, %xmm0`,
    /// `eor x0, x0, x0`, `movi v0.2d, #0`).
    pub fn is_zero_idiom(&self) -> bool {
        let same_two_regs = |a: usize, b: usize| match (
            self.operands.get(a).and_then(Operand::as_reg),
            self.operands.get(b).and_then(Operand::as_reg),
        ) {
            (Some(x), Some(y)) => x.aliases(&y),
            _ => false,
        };
        match self.isa {
            Isa::X86 => {
                let m = self.base_x86();
                let is_xor = matches!(m, "xor" | "pxor" | "xorps" | "xorpd")
                    || matches!(
                        self.mnemonic.as_str(),
                        "vpxor" | "vpxord" | "vpxorq" | "vxorps" | "vxorpd"
                    );
                let is_sub = matches!(m, "sub" | "psubb" | "psubw" | "psubd" | "psubq");
                (is_xor || is_sub)
                    && self.operands.len() >= 2
                    && self.operands.iter().all(|o| !o.is_mem())
                    && same_two_regs(0, 1)
            }
            Isa::AArch64 => {
                let b = self.base_mnemonic();
                if b == "movi" {
                    return matches!(self.operands.get(1), Some(Operand::Imm(0)));
                }
                if b == "eor" && self.operands.len() == 3 {
                    return same_two_regs(1, 2) && same_two_regs(0, 1);
                }
                false
            }
        }
    }

    /// Whether this is a register-register move eligible for move
    /// elimination in the renamer.
    pub fn is_reg_move(&self) -> bool {
        let all_regs =
            self.operands.len() == 2 && self.operands.iter().all(|o| o.as_reg().is_some());
        if !all_regs {
            return false;
        }
        match self.isa {
            Isa::X86 => {
                matches!(
                    self.base_x86(),
                    "mov" | "movaps" | "movapd" | "movups" | "movupd" | "movdqa" | "movdqu"
                ) || matches!(
                    self.mnemonic.as_str(),
                    "vmovaps"
                        | "vmovapd"
                        | "vmovups"
                        | "vmovupd"
                        | "vmovdqa"
                        | "vmovdqu"
                        | "vmovdqa64"
                        | "vmovdqu64"
                )
            }
            Isa::AArch64 => matches!(self.base_mnemonic(), "mov" | "fmov" | "orr"),
        }
    }

    /// Whether this instruction is a no-op for modeling purposes
    /// (`vzeroupper` executes but costs nothing in a steady-state loop).
    pub fn is_nop(&self) -> bool {
        matches!(
            self.base_mnemonic(),
            "nop" | "nopw" | "nopl" | "endbr64" | "hint" | "vzeroupper" | "vzeroall" | "lfence"
        )
    }

    /// The base register updated by an addressing-mode writeback (AArch64
    /// pre-/post-index), if any. Such updates complete in one cycle on the
    /// AGU/ALU, independent of the access latency — dependency analyses use
    /// this to avoid charging the full load latency on pointer increments.
    pub fn writeback_base(&self) -> Option<crate::reg::Register> {
        let pos = self.mem_position()?;
        let mem = self.operands[pos].as_mem()?;
        if mem.writeback {
            return mem.base;
        }
        // Post-index: `[x0], #16` parses as a memory operand followed by a
        // bare immediate.
        if (self.is_load() || self.is_store())
            && matches!(self.operands.get(pos + 1), Some(Operand::Imm(_)))
        {
            return mem.base;
        }
        None
    }

    /// Position of the first memory operand, if any.
    pub fn mem_position(&self) -> Option<usize> {
        self.operands.iter().position(Operand::is_mem)
    }

    /// Number of bytes moved by this instruction's memory access, derived
    /// from register widths / mnemonic suffixes. Returns 0 for non-memory
    /// instructions.
    pub fn mem_access_bytes(&self) -> u32 {
        if self.mem_position().is_none() {
            return 0;
        }
        match self.isa {
            Isa::X86 => {
                // Width from the widest register operand, else the suffix.
                if let Some(w) = self
                    .operands
                    .iter()
                    .filter_map(Operand::as_reg)
                    .map(|r| r.width)
                    .max()
                {
                    return (w / 8) as u32;
                }
                match self.mnemonic.chars().last() {
                    Some('q') => 8,
                    Some('l') => 4,
                    Some('w') => 2,
                    Some('b') => 1,
                    _ => 8,
                }
            }
            Isa::AArch64 => {
                let b = self.base_mnemonic();
                let per_reg = self
                    .operands
                    .iter()
                    .filter_map(Operand::as_reg)
                    .filter(|r| {
                        r.class == crate::reg::RegClass::Vec || r.class == crate::reg::RegClass::Gpr
                    })
                    .map(|r| (r.width / 8) as u32)
                    .next()
                    .unwrap_or(8);
                // Pair instructions move two registers.
                if b == "ldp" || b == "stp" || b == "stnp" || b == "ldnp" {
                    2 * per_reg
                } else if b.starts_with("ld1")
                    || b.starts_with("st1")
                    || b.starts_with("ldnt1")
                    || b.starts_with("stnt1")
                {
                    // SVE full-vector structure access at VL=128.
                    16
                } else {
                    per_reg
                }
            }
        }
    }

    /// Structured form key for microarchitecture database lookups, e.g.
    /// `vfmadd231pd v512,v512,v512`.
    pub fn form_key(&self) -> String {
        use std::fmt::Write;
        let mut s = self.mnemonic.clone();
        s.push(' ');
        for (i, o) in self.operands.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}", o.sig());
        }
        s
    }

    /// Operand signature list.
    pub fn op_sigs(&self) -> Vec<OpSig> {
        self.operands.iter().map(Operand::sig).collect()
    }

    /// The widest vector register accessed, in bits (0 if none).
    pub fn max_vec_width(&self) -> u16 {
        self.operands
            .iter()
            .filter_map(Operand::as_reg)
            .filter(|r| r.class == crate::reg::RegClass::Vec)
            .map(|r| r.width)
            .max()
            .unwrap_or(0)
    }

    /// ISA-normalized mnemonic for database lookups: AT&T width suffixes are
    /// stripped from integer mnemonics (`addq` → `add`), AArch64 condition
    /// suffixes are dropped (`b.ne` → `b`). SSE/AVX mnemonics keep their full
    /// name (`vaddpd` stays `vaddpd`).
    pub fn norm_mnemonic(&self) -> &str {
        match self.isa {
            Isa::X86 => self.base_x86(),
            Isa::AArch64 => self.base_mnemonic(),
        }
    }

    fn base_x86(&self) -> &str {
        // Strip a trailing width suffix from common integer mnemonics:
        // addq→add, movl→mov. SSE/AVX mnemonics keep their full name.
        let m = self.mnemonic.as_str();
        strip_att_suffix(m)
    }

    /// Whether an x86 instruction with a memory destination also reads it
    /// (read-modify-write).
    fn is_rmw(&self) -> bool {
        self.isa == Isa::X86
            && matches!(
                self.base_x86(),
                "add" | "sub" | "and" | "or" | "xor" | "inc" | "dec" | "neg" | "not"
            )
            && matches!(self.operands.last(), Some(Operand::Mem(_)))
    }

    fn is_store_mnemonic_x86(&self) -> bool {
        // Pure stores: mov-family with memory destination and no other mem op.
        matches!(self.operands.last(), Some(Operand::Mem(_)))
            && (self.base_x86() == "mov"
                || self.mnemonic.starts_with("vmov")
                || self.mnemonic.starts_with("mov"))
            && self.operands.iter().filter(|o| o.is_mem()).count() == 1
            && !self.is_rmw()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic)?;
        for (i, o) in self.operands.iter().enumerate() {
            write!(f, "{}{}", if i == 0 { " " } else { ", " }, o)?;
        }
        Ok(())
    }
}

/// Strip an AT&T width suffix (`b`/`w`/`l`/`q`) from integer mnemonics:
/// `addq` → `add`, `cmovgq` → `cmovg`, `popcntl` → `popcnt`. SSE/AVX
/// mnemonics (`addsd`, `vmulpd`, …) are left untouched.
pub(crate) fn strip_att_suffix(m: &str) -> &str {
    const SUFFIXED: [&str; 39] = [
        "mov", "add", "sub", "and", "or", "xor", "cmp", "test", "lea", "inc", "dec", "imul",
        "idiv", "mul", "div", "neg", "not", "shl", "shr", "sar", "push", "pop", "movz", "movs",
        "adc", "sbb", "popcnt", "lzcnt", "tzcnt", "bswap", "bts", "btr", "btc", "bt", "shld",
        "shrd", "andn", "xchg", "movbe",
    ];
    // Conditional moves: strip one width character after the condition.
    if let Some(rest) = m.strip_prefix("cmov") {
        if rest.len() >= 2 {
            let (cond, tail) = rest.split_at(rest.len() - 1);
            if !cond.is_empty() && tail.chars().all(|c| "bwlq".contains(c)) {
                return &m[..4 + cond.len()];
            }
        }
        return m;
    }
    for base in SUFFIXED {
        if let Some(rest) = m.strip_prefix(base) {
            if rest.len() <= 2 && !rest.is_empty() && rest.chars().all(|c| "bwlq".contains(c)) {
                return base;
            }
            if rest.is_empty() {
                return base;
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_line_aarch64, parse_line_x86};

    fn x86(s: &str) -> Instruction {
        parse_line_x86(s, 1).unwrap().unwrap()
    }
    fn a64(s: &str) -> Instruction {
        parse_line_aarch64(s, 1).unwrap().unwrap()
    }

    #[test]
    fn x86_load_store_classification() {
        assert!(x86("vmovupd (%rax), %zmm0").is_load());
        assert!(!x86("vmovupd (%rax), %zmm0").is_store());
        assert!(x86("vmovupd %zmm0, (%rax)").is_store());
        assert!(!x86("vmovupd %zmm0, (%rax)").is_load());
        assert!(x86("vaddpd (%rax), %zmm1, %zmm2").is_load());
        assert!(!x86("lea 8(%rax), %rbx").is_load());
        assert!(!x86("addq $1, %rax").is_load());
    }

    #[test]
    fn x86_rmw_is_load_and_store() {
        let i = x86("addq $1, (%rax)");
        assert!(i.is_load() && i.is_store());
    }

    #[test]
    fn x86_nt_stores() {
        assert!(x86("vmovntpd %zmm0, (%rax)").is_nt_store());
        assert!(x86("movnti %rax, (%rbx)").is_nt_store());
        assert!(!x86("vmovupd %zmm0, (%rax)").is_nt_store());
    }

    #[test]
    fn x86_branches() {
        assert!(x86("jne .L2").is_branch());
        assert!(x86("jne .L2").is_cond_branch());
        assert!(x86("jmp .L2").is_branch());
        assert!(!x86("jmp .L2").is_cond_branch());
        assert!(!x86("addq $1, %rax").is_branch());
    }

    #[test]
    fn x86_zero_idioms() {
        assert!(x86("xorl %eax, %eax").is_zero_idiom());
        assert!(x86("vpxor %xmm0, %xmm0, %xmm0").is_zero_idiom());
        assert!(!x86("xorl %eax, %ebx").is_zero_idiom());
    }

    #[test]
    fn aarch64_load_store_classification() {
        assert!(a64("ldr q0, [x0, #16]").is_load());
        assert!(a64("str q0, [x0], #16").is_store());
        assert!(a64("ldp q0, q1, [x0]").is_load());
        assert!(a64("ld1d {z0.d}, p0/z, [x0, x1, lsl #3]").is_load());
        assert!(a64("st1d {z0.d}, p0, [x0, x1, lsl #3]").is_store());
        assert!(!a64("fadd v0.2d, v1.2d, v2.2d").is_load());
    }

    #[test]
    fn aarch64_nt_and_branch() {
        assert!(a64("stnp q0, q1, [x0]").is_nt_store());
        assert!(a64("b.ne .L2").is_cond_branch());
        assert!(a64("cbnz x3, .L2").is_cond_branch());
        assert!(a64("b .L2").is_branch());
        assert!(!a64("b .L2").is_cond_branch());
    }

    #[test]
    fn mem_bytes() {
        assert_eq!(x86("vmovupd (%rax), %zmm0").mem_access_bytes(), 64);
        assert_eq!(x86("movq (%rax), %rbx").mem_access_bytes(), 8);
        assert_eq!(a64("ldp q0, q1, [x0]").mem_access_bytes(), 32);
        assert_eq!(a64("ldr d0, [x0]").mem_access_bytes(), 8);
        assert_eq!(a64("ld1d {z0.d}, p0/z, [x0]").mem_access_bytes(), 16);
        assert_eq!(x86("addq $1, %rax").mem_access_bytes(), 0);
    }

    #[test]
    fn form_keys() {
        assert_eq!(
            x86("vaddpd %zmm0, %zmm1, %zmm2").form_key(),
            "vaddpd v512,v512,v512"
        );
        assert_eq!(
            a64("fadd v0.2d, v1.2d, v2.2d").form_key(),
            "fadd v128,v128,v128"
        );
    }

    #[test]
    fn reg_moves() {
        assert!(x86("movq %rax, %rbx").is_reg_move());
        assert!(x86("vmovaps %ymm1, %ymm2").is_reg_move());
        assert!(!x86("movq (%rax), %rbx").is_reg_move());
        assert!(a64("mov x0, x1").is_reg_move());
        assert!(a64("fmov d0, d1").is_reg_move());
    }
}

//! AArch64 assembly parser (base ISA, NEON, SVE).

use super::{parse_int, split_operands, strip_comment, ParseError};
use crate::inst::{Instruction, Isa, PredMode};
use crate::operand::{AddrMode, MemOperand, Operand};
use crate::reg::aarch64_register;

/// SVE vector length in bytes assumed for `mul vl` addressing (Neoverse V2).
const SVE_VL_BYTES: i64 = 16;

/// Parse one line of AArch64 assembly. Returns `Ok(None)` for blank lines,
/// labels, and directives.
pub fn parse_line_aarch64(line: &str, lineno: usize) -> Result<Option<Instruction>, ParseError> {
    let text = strip_comment(line, &["//", "@"]);
    if text.is_empty() || text.ends_with(':') || text.starts_with('.') {
        return Ok(None);
    }
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (text, ""),
    };
    let mnemonic = mnemonic.to_ascii_lowercase();

    let mut operands = Vec::new();
    let mut predicate = None;
    let parts = split_operands(rest);
    let mut i = 0;
    while i < parts.len() {
        let part = parts[i];
        // Shift/extend modifiers attached to the previous register operand:
        // `add x0, x1, x2, lsl #3`.
        if let Some((kind, amt)) = parse_shift_modifier(part) {
            let _ = kind;
            operands.push(Operand::Imm(amt));
            i += 1;
            continue;
        }
        match parse_operand(part, lineno, line)? {
            Parsed::Op(op) => operands.push(op),
            Parsed::Pred(r, mode) => {
                predicate = Some((r, mode));
                // Keep the predicate in the operand list too: it is read.
                operands.push(Operand::Reg(r));
            }
            Parsed::RegList(regs) => operands.extend(regs.into_iter().map(Operand::Reg)),
        }
        i += 1;
    }
    Ok(Some(Instruction {
        mnemonic,
        operands,
        isa: Isa::AArch64,
        predicate,
        line: lineno,
        raw: text.to_string(),
    }))
}

enum Parsed {
    Op(Operand),
    Pred(crate::reg::Register, PredMode),
    RegList(Vec<crate::reg::Register>),
}

fn parse_shift_modifier(s: &str) -> Option<(&str, i64)> {
    let s = s.trim();
    for kind in ["lsl", "lsr", "asr", "uxtw", "sxtw", "uxtx", "sxtx"] {
        if let Some(rest) = s.strip_prefix(kind) {
            let rest = rest.trim();
            if rest.is_empty() {
                return Some((kind, 0));
            }
            if let Some(imm) = rest.strip_prefix('#') {
                if let Some(v) = parse_int(imm) {
                    return Some((kind, v));
                }
            }
        }
    }
    None
}

fn parse_operand(s: &str, lineno: usize, raw: &str) -> Result<Parsed, ParseError> {
    let err = |m: &str| ParseError::new(lineno, m.to_string(), raw.to_string());
    let s = s.trim();

    // Register list `{v0.2d, v1.2d}` / `{z0.d}`.
    if let Some(inner) = s.strip_prefix('{') {
        let inner = inner
            .strip_suffix('}')
            .ok_or_else(|| err("unbalanced register list"))?;
        let mut regs = Vec::new();
        for piece in inner.split(',') {
            let piece = piece.trim();
            // Range form `{v0.2d - v3.2d}`.
            if let Some((a, b)) = piece.split_once('-') {
                let ra = aarch64_register(a.trim()).ok_or_else(|| err("bad register in list"))?;
                let rb = aarch64_register(b.trim()).ok_or_else(|| err("bad register in list"))?;
                for idx in ra.index..=rb.index {
                    regs.push(crate::reg::Register { index: idx, ..ra });
                }
            } else if !piece.is_empty() {
                regs.push(aarch64_register(piece).ok_or_else(|| err("bad register in list"))?);
            }
        }
        return Ok(Parsed::RegList(regs));
    }

    // Memory operand `[...]` optionally followed by `!` (pre-index) — the
    // post-index immediate arrives as a *separate* operand after the `]`,
    // e.g. `ldr q0, [x0], #16`; `split_operands` keeps `[x0]` and `#16`
    // apart, so post-index is stitched in `normalize_postindex` below via
    // the standalone immediate following a writeback-less memory operand.
    if s.starts_with('[') {
        let pre_index = s.ends_with('!');
        let body = s.trim_end_matches('!');
        let inner = body
            .strip_prefix('[')
            .and_then(|b| b.strip_suffix(']'))
            .ok_or_else(|| err("unbalanced memory operand"))?;
        let mut mem = MemOperand {
            scale: 1,
            ..Default::default()
        };
        let pieces: Vec<&str> = split_operands(inner);
        let mut piece_iter = pieces.iter().peekable();
        if let Some(first) = piece_iter.next() {
            mem.base =
                Some(aarch64_register(first.trim()).ok_or_else(|| err("bad base register"))?);
        }
        let mut mul_vl = false;
        while let Some(piece) = piece_iter.next() {
            let piece = piece.trim();
            if let Some(imm) = piece.strip_prefix('#') {
                mem.disp = parse_int(imm).ok_or_else(|| err("bad displacement"))?;
            } else if let Some((kind, amt)) = parse_shift_modifier(piece) {
                if kind == "lsl" {
                    mem.scale = 1u8 << amt.clamp(0, 3);
                }
            } else if piece == "mul vl" || piece == "mul" {
                // `[x0, #1, mul vl]` — GCC may split "mul vl" on the comma.
                mul_vl = true;
                if piece == "mul" {
                    let _ = piece_iter.peek(); // the "vl" token, if split
                }
            } else if piece == "vl" {
                mul_vl = true;
            } else if let Some(r) = aarch64_register(piece) {
                mem.index = Some(r);
            } else if let Some(v) = parse_int(piece) {
                mem.disp = v;
            } else {
                return Err(err("bad memory operand piece"));
            }
        }
        if mul_vl {
            mem.disp *= SVE_VL_BYTES;
        }
        if pre_index {
            mem.mode = AddrMode::PreIndex;
            mem.writeback = true;
        }
        return Ok(Parsed::Op(Operand::Mem(mem)));
    }

    // Immediate `#imm` or `#fp`.
    if let Some(imm) = s.strip_prefix('#') {
        if let Some(v) = parse_int(imm) {
            return Ok(Parsed::Op(Operand::Imm(v)));
        }
        if let Ok(f) = imm.parse::<f64>() {
            return Ok(Parsed::Op(Operand::FpImm(f)));
        }
        return Err(err("bad immediate"));
    }

    // Predicate with mode suffix `p0/z` or `p0/m`.
    if let Some((p, mode)) = s.split_once('/') {
        if let Some(r) = aarch64_register(p) {
            if r.class == crate::reg::RegClass::Pred {
                let mode = match mode.trim() {
                    "z" => PredMode::Zero,
                    "m" => PredMode::Merge,
                    _ => PredMode::Plain,
                };
                return Ok(Parsed::Pred(r, mode));
            }
        }
    }

    // Plain register (possibly with arrangement suffix).
    if let Some(r) = aarch64_register(s) {
        if r.class == crate::reg::RegClass::Pred {
            return Ok(Parsed::Pred(r, PredMode::Plain));
        }
        return Ok(Parsed::Op(Operand::Reg(r)));
    }

    // Bare integer (e.g. `lsl x0, x1, 3` GCC style without '#').
    if let Some(v) = parse_int(s) {
        return Ok(Parsed::Op(Operand::Imm(v)));
    }

    // Branch target / symbol.
    Ok(Parsed::Op(Operand::Label(s.to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::Operand;
    use crate::reg::{RegClass, Register};

    fn p(s: &str) -> Instruction {
        parse_line_aarch64(s, 3).unwrap().unwrap()
    }

    #[test]
    fn skip_non_instructions() {
        assert_eq!(parse_line_aarch64(".L2:", 1).unwrap(), None);
        assert_eq!(parse_line_aarch64("\t.cfi_startproc", 1).unwrap(), None);
        assert_eq!(parse_line_aarch64("// c", 1).unwrap(), None);
    }

    #[test]
    fn three_operand_fp() {
        let i = p("fadd v0.2d, v1.2d, v2.2d");
        assert_eq!(i.mnemonic, "fadd");
        assert_eq!(i.operands.len(), 3);
        assert_eq!(i.operands[0], Operand::Reg(Register::vec(0, 128)));
    }

    #[test]
    fn loads_with_offsets() {
        let i = p("ldr q0, [x0, #32]");
        let m = i.operands[1].as_mem().unwrap();
        assert_eq!(m.disp, 32);
        assert_eq!(m.base.unwrap(), Register::gpr(0, 64));

        let i = p("ldr d1, [x0, x1, lsl #3]");
        let m = i.operands[1].as_mem().unwrap();
        assert_eq!(m.index.unwrap(), Register::gpr(1, 64));
        assert_eq!(m.scale, 8);
    }

    #[test]
    fn pre_index_writeback() {
        let i = p("ldr q0, [x0, #16]!");
        let m = i.operands[1].as_mem().unwrap();
        assert_eq!(m.mode, AddrMode::PreIndex);
        assert!(m.writeback);
    }

    #[test]
    fn post_index_as_separate_imm() {
        let i = p("ldr q0, [x0], #16");
        // Post-index: memory operand plus trailing immediate.
        assert!(i.operands[1].is_mem());
        assert_eq!(i.operands[2], Operand::Imm(16));
    }

    #[test]
    fn sve_predicated_load() {
        let i = p("ld1d {z0.d}, p0/z, [x0, x1, lsl #3]");
        assert_eq!(i.operands[0], Operand::Reg(Register::vec(0, 128)));
        let (pr, mode) = i.predicate.unwrap();
        assert_eq!(pr, Register::pred(0));
        assert_eq!(mode, PredMode::Zero);
        assert!(i.is_load());
    }

    #[test]
    fn sve_mul_vl_displacement() {
        let i = p("ld1d {z1.d}, p0/z, [x0, #1, mul vl]");
        let m = i.operands.iter().find_map(|o| o.as_mem()).unwrap();
        assert_eq!(m.disp, 16);
    }

    #[test]
    fn register_lists_flatten() {
        let i = p("ld2 {v0.2d, v1.2d}, [x0]");
        assert_eq!(
            i.operands.iter().filter(|o| o.as_reg().is_some()).count(),
            2
        );
        // Range form: `{z0.d - z3.d}` names all four registers.
        let i = p("ld1d {z0.d - z3.d}, p0/z, [x0]");
        let regs: Vec<u8> = i
            .operands
            .iter()
            .filter_map(|o| o.as_reg())
            .filter(|r| r.class == RegClass::Vec)
            .map(|r| r.index)
            .collect();
        assert_eq!(regs, [0, 1, 2, 3]);
    }

    #[test]
    fn whilelo_predicates() {
        let i = p("whilelo p0.d, x3, x4");
        assert_eq!(i.operands[0].as_reg().unwrap().class, RegClass::Pred);
    }

    #[test]
    fn shift_modifier_operand() {
        let i = p("add x0, x1, x2, lsl #3");
        assert_eq!(i.operands.len(), 4);
        assert_eq!(i.operands[3], Operand::Imm(3));
    }

    #[test]
    fn fp_immediates() {
        let i = p("fmov d0, #1.0");
        assert_eq!(i.operands[1], Operand::FpImm(1.0));
    }

    #[test]
    fn zero_register() {
        let i = p("mov x0, xzr");
        assert!(i.operands[1].as_reg().unwrap().is_zero_reg());
    }

    #[test]
    fn malformed_operands_error() {
        let e = parse_line_aarch64("ldr q0, [x0, #zz]", 5).unwrap_err();
        assert_eq!(e.line, 5);
        let e = parse_line_aarch64("ld1d {zq9.d}, p0/z, [x0]", 6).unwrap_err();
        assert_eq!(e.line, 6);
    }

    #[test]
    fn conditional_branch() {
        let i = p("b.ne .L2");
        assert!(i.is_cond_branch());
        assert_eq!(i.base_mnemonic(), "b");
    }
}

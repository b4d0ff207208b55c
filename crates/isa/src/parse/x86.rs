//! AT&T-syntax x86-64 parser.

use super::{parse_int, split_operands, strip_comment, ParseError};
use crate::inst::{Instruction, Isa, PredMode};
use crate::operand::{MemOperand, Operand};
use crate::reg::x86_register;

/// Parse one line of AT&T assembly. Returns `Ok(None)` for blank lines,
/// labels, and directives.
pub fn parse_line_x86(line: &str, lineno: usize) -> Result<Option<Instruction>, ParseError> {
    let text = strip_comment(line, &["#"]);
    if text.is_empty() || text.ends_with(':') || text.starts_with('.') {
        return Ok(None);
    }
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (text, ""),
    };
    let mnemonic = mnemonic.to_ascii_lowercase();
    // `rep` string prefixes: fold prefix into the mnemonic.
    let (mnemonic, rest) = if mnemonic == "rep" || mnemonic == "repe" || mnemonic == "repne" {
        let (m2, r2) = match rest.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (rest, ""),
        };
        (format!("{mnemonic} {}", m2.to_ascii_lowercase()), r2)
    } else {
        (mnemonic, rest)
    };

    let mut predicate = None;
    let mut operands = Vec::new();
    for part in split_operands(rest) {
        let (op, mask) = parse_operand(part, lineno, line)?;
        if let Some(m) = mask {
            predicate = Some(m);
        }
        operands.push(op);
    }
    Ok(Some(Instruction {
        mnemonic,
        operands,
        isa: Isa::X86,
        predicate,
        line: lineno,
        raw: text.to_string(),
    }))
}

type MaskAnnotation = (crate::reg::Register, PredMode);

/// Parse one AT&T operand; returns the operand plus any `{%k}`/`{z}` mask
/// annotation found on it.
fn parse_operand(
    s: &str,
    lineno: usize,
    raw: &str,
) -> Result<(Operand, Option<MaskAnnotation>), ParseError> {
    let err = |m: &str| ParseError::new(lineno, m.to_string(), raw.to_string());
    let mut s = s.trim();
    // Indirect jump target `*%rax` / `*(%rax)` — strip the star.
    if let Some(rest) = s.strip_prefix('*') {
        s = rest.trim();
    }
    // EVEX masking: `%zmm0{%k1}{z}`.
    let mut mask: Option<MaskAnnotation> = None;
    if let Some(brace) = s.find('{') {
        let ann = &s[brace..];
        let zeroing = ann.contains("{z}");
        for piece in ann.split(['{', '}']) {
            if let Some(k) = piece.trim().strip_prefix('%') {
                if let Some(r) = x86_register(k) {
                    mask = Some((
                        r,
                        if zeroing {
                            PredMode::Zero
                        } else {
                            PredMode::Merge
                        },
                    ));
                }
            }
        }
        s = s[..brace].trim();
    }

    if let Some(imm) = s.strip_prefix('$') {
        let v = parse_int(imm).ok_or_else(|| err("bad immediate"))?;
        return Ok((Operand::Imm(v), mask));
    }
    if let Some(reg) = s.strip_prefix('%') {
        let r = x86_register(reg).ok_or_else(|| err("unknown register"))?;
        return Ok((Operand::Reg(r), mask));
    }
    // Memory operand `disp(base,index,scale)` — any component optional.
    if let Some(open) = s.find('(') {
        // `filter` also rejects a `)` *before* the `(` (e.g. `)(`), which
        // would otherwise panic when slicing the inner text below.
        let close = s
            .rfind(')')
            .filter(|&c| c > open)
            .ok_or_else(|| err("unbalanced memory operand"))?;
        let disp_str = &s[..open];
        let disp = if disp_str.trim().is_empty() {
            0
        } else {
            // Symbolic displacements (e.g. `arr(%rip)`) become 0.
            parse_int(disp_str).unwrap_or(0)
        };
        let inner = &s[open + 1..close];
        let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
        let get_reg = |p: &str| -> Result<Option<crate::reg::Register>, ParseError> {
            if p.is_empty() {
                return Ok(None);
            }
            let name = p
                .strip_prefix('%')
                .ok_or_else(|| err("expected register in memory operand"))?;
            Ok(Some(x86_register(name).ok_or_else(|| {
                err("unknown register in memory operand")
            })?))
        };
        let base = get_reg(parts.first().copied().unwrap_or(""))?;
        let index = get_reg(parts.get(1).copied().unwrap_or(""))?;
        let scale = match parts.get(2) {
            Some(p) if !p.is_empty() => parse_int(p)
                .filter(|s| [1, 2, 4, 8].contains(s))
                .ok_or_else(|| err("bad scale"))? as u8,
            _ => 1,
        };
        return Ok((
            Operand::Mem(MemOperand {
                base,
                index,
                scale,
                disp,
                ..Default::default()
            }),
            mask,
        ));
    }
    // Bare symbol: branch target or absolute symbolic memory reference.
    if s.chars()
        .next()
        .is_some_and(|c| c.is_ascii_digit() || c == '-')
    {
        // Absolute address used as memory (rare); treat as plain memory.
        let disp = parse_int(s).ok_or_else(|| err("bad absolute address"))?;
        return Ok((
            Operand::Mem(MemOperand {
                disp,
                scale: 1,
                ..Default::default()
            }),
            mask,
        ));
    }
    Ok((Operand::Label(s.to_string()), mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::Operand;
    use crate::reg::Register;

    fn p(s: &str) -> Instruction {
        parse_line_x86(s, 7).unwrap().unwrap()
    }

    #[test]
    fn labels_and_directives_skipped() {
        assert_eq!(parse_line_x86(".L2:", 1).unwrap(), None);
        assert_eq!(parse_line_x86(".align 16", 1).unwrap(), None);
        assert_eq!(parse_line_x86("", 1).unwrap(), None);
        assert_eq!(parse_line_x86("   # comment", 1).unwrap(), None);
    }

    #[test]
    fn simple_mov() {
        let i = p("movq %rax, %rbx");
        assert_eq!(i.mnemonic, "movq");
        assert_eq!(i.operands.len(), 2);
        assert_eq!(i.operands[0], Operand::Reg(Register::gpr(0, 64)));
        assert_eq!(i.operands[1], Operand::Reg(Register::gpr(3, 64)));
        assert_eq!(i.line, 7);
    }

    #[test]
    fn immediates() {
        let i = p("addq $-16, %rsp");
        assert_eq!(i.operands[0], Operand::Imm(-16));
        let i = p("andq $0xff, %rax");
        assert_eq!(i.operands[0], Operand::Imm(255));
    }

    #[test]
    fn full_memory_operand() {
        let i = p("vmovupd 8(%rsi,%rax,8), %zmm3");
        let m = i.operands[0].as_mem().unwrap();
        assert_eq!(m.disp, 8);
        assert_eq!(m.base, Some(Register::gpr(6, 64)));
        assert_eq!(m.index, Some(Register::gpr(0, 64)));
        assert_eq!(m.scale, 8);
    }

    #[test]
    fn partial_memory_operands() {
        let m = p("movq (%rax), %rbx");
        assert_eq!(
            m.operands[0].as_mem().unwrap().base,
            Some(Register::gpr(0, 64))
        );
        let m = p("movq (,%rax,4), %rbx");
        let mem = m.operands[0].as_mem().unwrap();
        assert_eq!(mem.base, None);
        assert_eq!(mem.index, Some(Register::gpr(0, 64)));
        let m = p("movq -24(%rbp), %rax");
        assert_eq!(m.operands[0].as_mem().unwrap().disp, -24);
    }

    #[test]
    fn rip_relative() {
        let i = p("movsd x(%rip), %xmm0");
        let m = i.operands[0].as_mem().unwrap();
        assert_eq!(m.base.unwrap().class, crate::reg::RegClass::Ip);
    }

    #[test]
    fn evex_masking() {
        let i = p("vaddpd %zmm1, %zmm2, %zmm3{%k1}{z}");
        assert_eq!(i.operands.len(), 3);
        let (k, mode) = i.predicate.unwrap();
        assert_eq!(k, Register::mask(1));
        assert_eq!(mode, PredMode::Zero);
    }

    #[test]
    fn branch_label() {
        let i = p("jne .L4");
        assert_eq!(i.operands[0], Operand::Label(".L4".into()));
        assert!(i.is_cond_branch());
    }

    #[test]
    fn indirect_jump() {
        let i = p("jmp *%rax");
        assert_eq!(i.operands[0], Operand::Reg(Register::gpr(0, 64)));
    }

    #[test]
    fn malformed_memory_operands_error_instead_of_panicking() {
        // `)` before `(` used to slice out of range.
        assert!(parse_line_x86("movq )(%rax, %rbx", 1).is_err());
        assert!(parse_line_x86("movq 8(%rax, %rbx", 1).is_err());
        let e = parse_line_x86("movq 8(%rax,%rbx,3), %rcx", 4).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (4, "bad scale"));
    }

    #[test]
    fn bad_register_errors() {
        assert!(parse_line_x86("movq %bogus, %rax", 3).is_err());
        let e = parse_line_x86("movq %bogus, %rax", 3).unwrap_err();
        assert_eq!(e.line, 3);
        // A bad immediate on a kernel's second line reports line 2.
        let asm = "vaddpd %zmm0, %zmm1, %zmm2\nmovq $zz, %rax\n";
        let e = crate::parse_kernel(asm, crate::Isa::X86).unwrap_err();
        assert_eq!(e.line, 2);
    }
}

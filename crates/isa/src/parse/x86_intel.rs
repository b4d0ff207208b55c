//! Intel-syntax x86-64 parser (the syntax llvm-mca consumes by default and
//! MSVC/objdump `-M intel` emit). Lines are normalized to the crate's
//! internal AT&T-ordered representation: operands are reversed
//! (destination-last) and memory width directives (`qword ptr`) become
//! AT&T width suffixes on integer mnemonics, so all downstream semantics
//! (dataflow, database lookup) work unchanged.

use super::{contains_ignore_ascii_case, parse_int, split_operands, strip_comment, ParseError};
use crate::inst::{Instruction, Isa};
use crate::operand::{MemOperand, Operand};
use crate::reg::x86_register;

/// Heuristic: is this x86 listing written in Intel syntax? (No `%` sigils,
/// and either `ptr [` directives or bare register names appear.)
/// Allocation-free: the case-insensitive checks scan in place.
pub fn looks_like_intel_x86(asm: &str) -> bool {
    if asm.contains('%') {
        return false;
    }
    contains_ignore_ascii_case(asm, "ptr [")
        || asm.contains('[')
        || [
            " rax", " rbx", " rcx", " rdx", " rsi", " rdi", " xmm", " ymm", " zmm",
        ]
        .iter()
        .any(|r| contains_ignore_ascii_case(asm, r))
}

/// Parse one line of Intel-syntax assembly. Returns `Ok(None)` for blank
/// lines, labels, and directives.
pub fn parse_line_x86_intel(line: &str, lineno: usize) -> Result<Option<Instruction>, ParseError> {
    let text = strip_comment(line, &["#", ";"]);
    if text.is_empty() || text.ends_with(':') || text.starts_with('.') {
        return Ok(None);
    }
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (text, ""),
    };
    let mut mnemonic = mnemonic.to_ascii_lowercase();

    let mut operands = Vec::new();
    let mut width_suffix: Option<char> = None;
    for part in split_operands(rest) {
        let (op, suffix) = parse_operand(part, lineno, line)?;
        if suffix.is_some() {
            width_suffix = suffix;
        }
        operands.push(op);
    }
    // Intel order is destination-first; the internal representation is
    // AT&T destination-last.
    operands.reverse();

    // Attach the ptr-directive width to integer mnemonics so memory-only
    // forms keep their access size (`mov qword ptr [rax], 5` → `movq`).
    if let Some(sfx) = width_suffix {
        let has_reg = operands.iter().any(|o| o.as_reg().is_some());
        let simd = mnemonic.starts_with('v')
            || mnemonic.ends_with("pd")
            || mnemonic.ends_with("ps")
            || mnemonic.ends_with("sd")
            || mnemonic.ends_with("ss");
        if !has_reg && !simd {
            mnemonic.push(sfx);
        }
    }

    Ok(Some(Instruction {
        mnemonic,
        operands,
        isa: Isa::X86,
        predicate: None,
        line: lineno,
        raw: text.to_string(),
    }))
}

/// Parse one Intel operand; returns the operand plus a width-suffix letter
/// if a `ptr` directive was seen.
fn parse_operand(s: &str, lineno: usize, raw: &str) -> Result<(Operand, Option<char>), ParseError> {
    let err = |m: &str| ParseError::new(lineno, m.to_string(), raw.to_string());
    let mut s = s.trim();
    let mut suffix = None;

    // Width directives: `qword ptr [..]`.
    for (dir, sfx) in [
        ("byte", 'b'),
        ("word", 'w'),
        ("dword", 'l'),
        ("qword", 'q'),
        ("xmmword", 'x'),
        ("ymmword", 'y'),
        ("zmmword", 'z'),
    ] {
        // Case-insensitive prefix match without lowercasing a copy; a match
        // is all-ASCII, so the byte offsets below are char boundaries.
        if s.len() >= dir.len() && s.as_bytes()[..dir.len()].eq_ignore_ascii_case(dir.as_bytes()) {
            let rest = s[dir.len()..].trim_start();
            if rest.len() >= 3 && rest.as_bytes()[..3].eq_ignore_ascii_case(b"ptr") {
                let after = &rest[3..];
                let consumed = s.len() - after.len();
                s = s[consumed..].trim_start();
                if matches!(sfx, 'b' | 'w' | 'l' | 'q') {
                    suffix = Some(sfx);
                }
                break;
            }
        }
    }

    // Memory operand `[base + index*scale + disp]`.
    if let Some(open) = s.find('[') {
        // `filter` also rejects a `]` *before* the `[` (e.g. `][`), which
        // would otherwise panic when slicing the inner text below.
        let close = s
            .rfind(']')
            .filter(|&c| c > open)
            .ok_or_else(|| err("unbalanced memory operand"))?;
        let inner = &s[open + 1..close];
        let mut mem = MemOperand {
            scale: 1,
            ..Default::default()
        };
        // Split on +/- keeping the sign with each term.
        let mut terms: Vec<(i64, String)> = Vec::new();
        let mut sign = 1i64;
        let mut cur = String::new();
        for c in inner.chars() {
            match c {
                '+' => {
                    if !cur.trim().is_empty() {
                        terms.push((sign, cur.trim().to_string()));
                    }
                    cur.clear();
                    sign = 1;
                }
                '-' => {
                    if !cur.trim().is_empty() {
                        terms.push((sign, cur.trim().to_string()));
                    }
                    cur.clear();
                    sign = -1;
                }
                _ => cur.push(c),
            }
        }
        if !cur.trim().is_empty() {
            terms.push((sign, cur.trim().to_string()));
        }
        for (sign, term) in terms {
            if let Some((r, sc)) = term.split_once('*') {
                let reg = x86_register(r.trim()).ok_or_else(|| err("bad index register"))?;
                let scale = parse_int(sc.trim())
                    .filter(|v| [1, 2, 4, 8].contains(v))
                    .ok_or_else(|| err("bad scale"))?;
                mem.index = Some(reg);
                mem.scale = scale as u8;
            } else if let Some(reg) = x86_register(&term) {
                if mem.base.is_none() {
                    mem.base = Some(reg);
                } else if mem.index.is_none() {
                    mem.index = Some(reg);
                } else {
                    return Err(err("too many registers in memory operand"));
                }
            } else if let Some(v) = parse_int(&term) {
                mem.disp += sign * v;
            } else {
                // Symbolic displacement (`[rip + sym]` keeps disp 0).
                continue;
            }
        }
        return Ok((Operand::Mem(mem), suffix));
    }

    // Register.
    if let Some(r) = x86_register(s) {
        return Ok((Operand::Reg(r), suffix));
    }
    // Immediate.
    if let Some(v) = parse_int(s) {
        return Ok((Operand::Imm(v), suffix));
    }
    // Label / symbol.
    Ok((Operand::Label(s.to_string()), suffix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Register;

    fn p(s: &str) -> Instruction {
        parse_line_x86_intel(s, 1).unwrap().unwrap()
    }

    #[test]
    fn operand_order_is_normalized_to_att() {
        // Intel: add rax, rbx → rax += rbx. Internal: dest last.
        let i = p("add rax, rbx");
        assert_eq!(i.operands[0], Operand::Reg(Register::gpr(3, 64))); // src rbx
        assert_eq!(i.operands[1], Operand::Reg(Register::gpr(0, 64))); // dst rax
        let df = crate::dataflow::dataflow(&i);
        assert!(df.writes.iter().any(|r| r.index == 0));
        assert!(df.reads.iter().any(|r| r.index == 3));
    }

    #[test]
    fn memory_operands() {
        let i = p("mov rax, qword ptr [rbx + rcx*8 + 16]");
        let m = i.operands[0].as_mem().unwrap();
        assert_eq!(m.base.unwrap(), Register::gpr(3, 64));
        assert_eq!(m.index.unwrap(), Register::gpr(1, 64));
        assert_eq!(m.scale, 8);
        assert_eq!(m.disp, 16);
        assert!(i.is_load());
    }

    #[test]
    fn negative_displacement() {
        let i = p("mov rax, qword ptr [rbp - 24]");
        assert_eq!(i.operands[0].as_mem().unwrap().disp, -24);
    }

    #[test]
    fn store_direction() {
        let i = p("vmovupd zmmword ptr [rdi + rax], zmm2");
        assert!(i.is_store());
        assert!(!i.is_load());
        assert_eq!(i.mem_access_bytes(), 64);
    }

    #[test]
    fn memory_only_form_gets_width_suffix() {
        let i = p("add qword ptr [rax], 5");
        assert_eq!(i.mnemonic, "addq");
        assert!(i.is_load() && i.is_store());
        assert_eq!(i.mem_access_bytes(), 8);
    }

    #[test]
    fn fma_normalizes_like_att() {
        let intel = p("vfmadd231pd zmm3, zmm1, zmm2");
        let att = crate::parse::parse_line_x86("vfmadd231pd %zmm2, %zmm1, %zmm3", 1)
            .unwrap()
            .unwrap();
        assert_eq!(intel.operands, att.operands);
        let df = crate::dataflow::dataflow(&intel);
        assert!(df.reads.iter().any(|r| r.index == 3), "accumulator read");
        assert!(df.writes.iter().any(|r| r.index == 3));
    }

    #[test]
    fn branches_and_immediates() {
        let i = p("jne .L2");
        assert!(i.is_cond_branch());
        let i = p("cmp rax, 0x40");
        assert_eq!(i.operands[0], Operand::Imm(64));
    }

    #[test]
    fn malformed_memory_operands_error_instead_of_panicking() {
        // `]` before `[` used to slice out of range.
        assert!(parse_line_x86_intel("mov rax, ][rbx", 1).is_err());
        assert!(parse_line_x86_intel("mov rax, [rbx", 1).is_err());
    }

    #[test]
    fn syntax_detection() {
        assert!(looks_like_intel_x86("add rax, rbx\n"));
        assert!(looks_like_intel_x86("vmovupd zmm0, zmmword ptr [rax]\n"));
        assert!(!looks_like_intel_x86("addq %rax, %rbx\n"));
        assert!(!looks_like_intel_x86(""));
        // Detected as Intel before the malformed operand is rejected.
        let asm = "mov rax, ][rbx\n";
        assert!(looks_like_intel_x86(asm));
        let e = crate::parse_kernel(asm, crate::Isa::X86).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn semicolon_comments() {
        let i = p("add rax, rbx ; comment");
        assert_eq!(i.operands.len(), 2);
    }
}

//! Kernel (loop body) extraction from an assembly listing.
//!
//! Analysis operates on the innermost loop body — the block between a label
//! and the backward branch that targets it, matching how OSACA and LLVM-MCA
//! treat their input. If no loop is found, the whole instruction sequence is
//! treated as one straight-line block.

use crate::inst::{Instruction, Isa};
use crate::operand::Operand;
use crate::parse::{parse_line_aarch64, parse_line_x86, ParseError};

/// A parsed analysis kernel: the instructions of one loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Loop-body instructions, in program order, including the back branch.
    pub instructions: Vec<Instruction>,
    pub isa: Isa,
    /// Label of the loop head, if a loop was detected.
    pub loop_label: Option<String>,
}

impl Kernel {
    /// Instructions excluding nops.
    pub fn effective_instructions(&self) -> impl Iterator<Item = &Instruction> {
        self.instructions.iter().filter(|i| !i.is_nop())
    }

    /// Number of loads / stores in the body.
    pub fn load_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.is_load()).count()
    }

    /// Number of stores in the body.
    pub fn store_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.is_store()).count()
    }

    /// Dominant ISA extension of the body.
    pub fn dominant_ext(&self) -> crate::ext::IsaExt {
        crate::ext::dominant_ext(&self.instructions)
    }
}

/// Parse an assembly listing and extract the analysis region.
///
/// If the listing contains OSACA/IACA-style markers — comment lines
/// containing `OSACA-BEGIN` and `OSACA-END` (or `IACA START`/`IACA END`) —
/// only the marked region is analyzed, exactly like OSACA's marker
/// workflow. Otherwise the innermost loop is auto-detected: of the
/// backward branches whose target label appears earlier, the one with the
/// shortest body wins (ties go to the later branch); the kernel is the
/// instructions from that label to the branch (inclusive). Without a loop
/// the whole listing is one straight-line block.
///
/// Each line goes through its ISA's dialect parser in [`crate::parse`];
/// x86 listings are checked once for Intel syntax. A [`ParseError`]
/// carries the 1-based line number within the analyzed text, i.e. within
/// the marked region when markers are present.
pub fn parse_kernel(asm: &str, isa: Isa) -> Result<Kernel, ParseError> {
    if let Some(region) = marked_region(asm) {
        return parse_kernel_unmarked(&region, isa);
    }
    parse_kernel_unmarked(asm, isa)
}

/// Extract the text between OSACA/IACA markers, if both are present in
/// order.
fn marked_region(asm: &str) -> Option<String> {
    let is_begin = |l: &str| l.contains("OSACA-BEGIN") || l.contains("IACA START");
    let is_end = |l: &str| l.contains("OSACA-END") || l.contains("IACA END");
    let lines: Vec<&str> = asm.lines().collect();
    let begin = lines.iter().position(|l| is_begin(l))?;
    let end = lines.iter().position(|l| is_end(l))?;
    (begin < end).then(|| lines[begin + 1..end].join("\n"))
}

fn parse_kernel_unmarked(asm: &str, isa: Isa) -> Result<Kernel, ParseError> {
    // x86 listings may be in AT&T or Intel syntax; detect once per block.
    let intel = isa == Isa::X86 && crate::parse::looks_like_intel_x86(asm);
    let mut items: Vec<Item> = Vec::new();
    for (idx, line) in asm.lines().enumerate() {
        let lineno = idx + 1;
        let text = match isa {
            Isa::X86 if intel => crate::parse::strip_comment(line, &["#", ";"]),
            Isa::X86 => crate::parse::strip_comment(line, &["#"]),
            Isa::AArch64 => crate::parse::strip_comment(line, &["//", "@"]),
        };
        if let Some(label) = text.strip_suffix(':') {
            let label = label.trim();
            if !label.is_empty() && !label.contains(char::is_whitespace) {
                items.push(Item::Label(label.to_string()));
                continue;
            }
        }
        let inst = match isa {
            Isa::X86 if intel => crate::parse::parse_line_x86_intel(line, lineno)?,
            Isa::X86 => parse_line_x86(line, lineno)?,
            Isa::AArch64 => parse_line_aarch64(line, lineno)?,
        };
        if let Some(i) = inst {
            items.push(Item::Inst(i));
        }
    }

    // Locate backward branches.
    let mut label_pos: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for (pos, item) in items.iter().enumerate() {
        if let Item::Label(l) = item {
            label_pos.insert(l.as_str(), pos);
        }
    }
    let mut best: Option<(usize, usize, String)> = None; // (start, end, label)
    for (pos, item) in items.iter().enumerate() {
        if let Item::Inst(inst) = item {
            if inst.is_branch() {
                if let Some(Operand::Label(target)) = inst.operands.first() {
                    if let Some(&tpos) = label_pos.get(target.as_str()) {
                        if tpos < pos {
                            // Prefer the innermost (shortest) loop body when
                            // several candidates exist; ties go to the later
                            // branch (the hot loop usually comes last).
                            let len = pos - tpos;
                            match &best {
                                Some((s, e, _)) if e - s <= len => {}
                                _ => best = Some((tpos, pos, target.clone())),
                            }
                        }
                    }
                }
            }
        }
    }

    let (instructions, loop_label) = match best {
        Some((start, end, label)) => {
            let body: Vec<Instruction> = items[start..=end]
                .iter()
                .filter_map(|it| match it {
                    Item::Inst(i) => Some(i.clone()),
                    Item::Label(_) => None,
                })
                .collect();
            (body, Some(label))
        }
        None => (
            items
                .into_iter()
                .filter_map(|it| match it {
                    Item::Inst(i) => Some(i),
                    Item::Label(_) => None,
                })
                .collect(),
            None,
        ),
    };

    Ok(Kernel {
        instructions,
        isa,
        loop_label,
    })
}

enum Item {
    Label(String),
    Inst(Instruction),
}

#[cfg(test)]
mod tests {
    use super::*;

    const X86_LOOP: &str = r#"
    .text
    .globl add_kernel
add_kernel:
    xorl %eax, %eax
.L2:
    vmovupd (%rsi,%rax), %zmm0
    vaddpd  (%rdx,%rax), %zmm0, %zmm1
    vmovupd %zmm1, (%rdi,%rax)
    addq    $64, %rax
    cmpq    %rcx, %rax
    jne     .L2
    ret
"#;

    #[test]
    fn extracts_loop_body() {
        let k = parse_kernel(X86_LOOP, Isa::X86).unwrap();
        assert_eq!(k.loop_label.as_deref(), Some(".L2"));
        assert_eq!(k.instructions.len(), 6);
        assert_eq!(k.instructions[0].mnemonic, "vmovupd");
        assert!(k.instructions[5].is_branch());
        assert_eq!(k.load_count(), 2);
        assert_eq!(k.store_count(), 1);
    }

    #[test]
    fn innermost_of_nested_loops() {
        let asm = r#"
.Louter:
    movq %r8, %r9
.Linner:
    addq $1, %r9
    cmpq %r10, %r9
    jne .Linner
    addq $1, %r8
    cmpq %r11, %r8
    jne .Louter
"#;
        let k = parse_kernel(asm, Isa::X86).unwrap();
        assert_eq!(k.loop_label.as_deref(), Some(".Linner"));
        assert_eq!(k.instructions.len(), 3);
    }

    #[test]
    fn straight_line_without_loop() {
        let asm = "movq %rax, %rbx\naddq $1, %rbx\n";
        let k = parse_kernel(asm, Isa::X86).unwrap();
        assert!(k.loop_label.is_none());
        assert_eq!(k.instructions.len(), 2);
    }

    #[test]
    fn aarch64_loop() {
        let asm = r#"
.L3:
    ldr q0, [x1, x3]
    ldr q1, [x2, x3]
    fadd v0.2d, v0.2d, v1.2d
    str q0, [x0, x3]
    add x3, x3, #16
    cmp x3, x4
    b.ne .L3
"#;
        let k = parse_kernel(asm, Isa::AArch64).unwrap();
        assert_eq!(k.instructions.len(), 7);
        assert_eq!(k.load_count(), 2);
        assert_eq!(k.store_count(), 1);
        assert_eq!(k.dominant_ext(), crate::ext::IsaExt::Neon);
    }

    #[test]
    fn osaca_markers_select_region() {
        let asm = r#"
    movq %r9, %r10          # outside
# OSACA-BEGIN
.L2:
    vaddpd %zmm0, %zmm1, %zmm2
    addq $8, %rax
    cmpq %rcx, %rax
    jne .L2
# OSACA-END
    addq $1, %r11           # outside
"#;
        let k = parse_kernel(asm, Isa::X86).unwrap();
        assert_eq!(k.instructions.len(), 4);
        assert_eq!(k.loop_label.as_deref(), Some(".L2"));
        assert!(!k
            .instructions
            .iter()
            .any(|i| i.mnemonic.starts_with("movq")));
    }

    #[test]
    fn iaca_markers_work_too() {
        let asm = "// IACA START\n    fadd d0, d1, d2\n// IACA END\n    fmul d3, d4, d5\n";
        let k = parse_kernel(asm, Isa::AArch64).unwrap();
        assert_eq!(k.instructions.len(), 1);
        assert_eq!(k.instructions[0].base_mnemonic(), "fadd");
    }

    #[test]
    fn unordered_markers_are_ignored() {
        let asm = "# OSACA-END\n addq $1, %rax\n# OSACA-BEGIN\n";
        let k = parse_kernel(asm, Isa::X86).unwrap();
        assert_eq!(k.instructions.len(), 1);
    }

    #[test]
    fn forward_branches_do_not_loop() {
        let asm = r#"
    cmpq %rax, %rbx
    je .Ldone
    addq $1, %rax
.Ldone:
    ret
"#;
        let k = parse_kernel(asm, Isa::X86).unwrap();
        assert!(k.loop_label.is_none());
        assert_eq!(k.instructions.len(), 4);
    }
}

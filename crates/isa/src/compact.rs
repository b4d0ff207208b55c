//! Compact, interned instruction representation and the zero-copy parse
//! path behind [`parse_kernel`](crate::parse_kernel).
//!
//! The legacy parse path builds one heap-heavy [`Instruction`] per line —
//! a `String` mnemonic, a `String` raw line, a `Vec` of operands, and a
//! cloned loop body. On a corpus sweep that is millions of transient
//! allocations for text the corpus repeats endlessly. This module keeps a
//! whole parsed kernel in three flat arenas instead:
//!
//! * an [`Interner`] mapping each distinct mnemonic / label / raw line to a
//!   `u32` [`Sym`],
//! * one `Vec<CompactOp>` holding every operand of every instruction
//!   (instructions address it by range), and
//! * one `Vec<CompactInst>` of fixed-size instruction records.
//!
//! A [`ParseArena`] owns the arenas and is reused across kernels: `clear()`
//! keeps capacity and the interner, so re-parsing previously seen text
//! performs **zero** heap allocations on the steady path (the
//! `parse_alloc_audit` test asserts exactly this with a counting allocator).
//!
//! The parser here is a line-for-line port of the legacy dialect parsers in
//! [`crate::parse`], including error messages and loop detection, and the
//! legacy path is kept as [`crate::kernel::parse_kernel_reference`]; the
//! equivalence suite pins both paths to identical output over the full
//! generated corpus.

use std::collections::HashMap;

use crate::inst::{mnemonic_is_branch, Instruction, Isa, PredMode};
use crate::intern::{Interner, Sym};
use crate::kernel::Kernel;
use crate::operand::{AddrMode, MemOperand, Operand};
use crate::parse::{
    contains_ignore_ascii_case, parse_int, parse_shift_modifier, split_operands_iter,
    strip_comment, ParseError,
};
use crate::reg::{aarch64_register, x86_register, RegClass, Register};

/// SVE vector length in bytes assumed for `mul vl` addressing (Neoverse V2).
/// Mirrors `parse::aarch64::SVE_VL_BYTES`.
const SVE_VL_BYTES: i64 = 16;

/// A parsed operand in compact form. Identical to [`Operand`] except that
/// symbolic labels are interned rather than owned, making the type `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompactOp {
    /// Register operand.
    Reg(Register),
    /// Integer immediate.
    Imm(i64),
    /// Floating-point immediate.
    FpImm(f64),
    /// Memory operand.
    Mem(MemOperand),
    /// Symbolic label (branch target or symbol), interned.
    Label(Sym),
}

/// A parsed instruction in compact form: fixed size, no owned heap data.
/// Operands live in the arena's shared operand table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactInst {
    /// Interned (lowercased, prefix-folded) mnemonic.
    pub mnemonic: Sym,
    /// Interned comment-stripped source text.
    pub raw: Sym,
    /// Operand range `[ops_start, ops_end)` in the arena operand table.
    ops_start: u32,
    ops_end: u32,
    /// Mask/predicate annotation (EVEX `{%k}{z}`, SVE `p0/z`).
    pub predicate: Option<(Register, PredMode)>,
    /// 1-based source line within the parsed region.
    pub line: u32,
}

/// A parsed kernel in compact form: an instruction range into the arena
/// plus the detected loop label.
#[derive(Debug, Clone, Copy)]
pub struct CompactKernel {
    inst_start: u32,
    inst_end: u32,
    /// ISA the kernel was parsed as.
    pub isa: Isa,
    /// Interned label of the loop head, if a loop was detected.
    pub loop_label: Option<Sym>,
}

impl CompactKernel {
    /// Number of instructions in the kernel body.
    pub fn len(&self) -> usize {
        (self.inst_end - self.inst_start) as usize
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.inst_start == self.inst_end
    }
}

/// What one parsed item turned out to be, in item (program) order.
#[derive(Debug, Clone, Copy)]
enum CompactItem {
    /// Index into the arena instruction table.
    Inst(u32),
    /// A label definition.
    Label(Sym),
}

/// Reusable parse state: interner plus flat instruction/operand arenas.
///
/// One arena holds one kernel at a time — [`ParseArena::parse`] clears the
/// per-kernel tables (keeping capacity and the interner) before filling
/// them, so a long-lived arena reaches a steady state where parsing
/// previously seen text does not allocate at all.
#[derive(Debug, Default)]
pub struct ParseArena {
    interner: Interner,
    ops: Vec<CompactOp>,
    insts: Vec<CompactInst>,
    items: Vec<CompactItem>,
    label_pos: HashMap<Sym, u32>,
    scratch: String,
}

impl ParseArena {
    /// Fresh, empty arena.
    pub fn new() -> Self {
        ParseArena::default()
    }

    /// Parse an assembly listing into the arena, replacing any previously
    /// parsed kernel. Marker handling, dialect detection, loop detection,
    /// and error reporting all match [`crate::kernel::parse_kernel_reference`].
    pub fn parse(&mut self, asm: &str, isa: Isa) -> Result<CompactKernel, ParseError> {
        self.ops.clear();
        self.insts.clear();
        self.items.clear();
        self.label_pos.clear();
        if let Some((begin, end)) = marked_region_bounds(asm) {
            let region = asm.lines().skip(begin + 1).take(end - begin - 1);
            return self.parse_lines(region, isa);
        }
        self.parse_lines(asm.lines(), isa)
    }

    /// Number of distinct strings interned so far. Callers holding a
    /// long-lived arena (e.g. a server) can use this to bound growth and
    /// swap in a fresh arena past a threshold.
    pub fn interned_strings(&self) -> usize {
        self.interner.len()
    }

    /// Resolve an interned symbol.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// Instructions of a parsed kernel, in program order.
    pub fn insts(&self, k: &CompactKernel) -> &[CompactInst] {
        &self.insts[k.inst_start as usize..k.inst_end as usize]
    }

    /// Operands of one instruction.
    pub fn ops(&self, inst: &CompactInst) -> &[CompactOp] {
        &self.ops[inst.ops_start as usize..inst.ops_end as usize]
    }

    /// Expand a compact kernel into the legacy heap-allocating [`Kernel`]
    /// the downstream predictors consume (the conversion shim).
    pub fn expand(&self, k: &CompactKernel) -> Kernel {
        Kernel {
            instructions: self
                .insts(k)
                .iter()
                .map(|ci| self.expand_inst(ci, k.isa))
                .collect(),
            isa: k.isa,
            loop_label: k.loop_label.map(|s| self.resolve(s).to_string()),
        }
    }

    /// Expand one compact instruction into a legacy [`Instruction`].
    pub fn expand_inst(&self, ci: &CompactInst, isa: Isa) -> Instruction {
        Instruction {
            mnemonic: self.resolve(ci.mnemonic).to_string(),
            operands: self.ops(ci).iter().map(|op| self.expand_op(op)).collect(),
            isa,
            predicate: ci.predicate,
            line: ci.line as usize,
            raw: self.resolve(ci.raw).to_string(),
        }
    }

    /// Expand one compact operand into a legacy [`Operand`].
    pub fn expand_op(&self, op: &CompactOp) -> Operand {
        match *op {
            CompactOp::Reg(r) => Operand::Reg(r),
            CompactOp::Imm(v) => Operand::Imm(v),
            CompactOp::FpImm(f) => Operand::FpImm(f),
            CompactOp::Mem(m) => Operand::Mem(m),
            CompactOp::Label(s) => Operand::Label(self.resolve(s).to_string()),
        }
    }

    fn parse_lines<'a, I>(&mut self, lines: I, isa: Isa) -> Result<CompactKernel, ParseError>
    where
        I: Iterator<Item = &'a str> + Clone,
    {
        // x86 listings may be in AT&T or Intel syntax; detect once per block.
        let intel = isa == Isa::X86 && looks_like_intel_lines(lines.clone());
        for (idx, line) in lines.enumerate() {
            let lineno = idx + 1;
            let text = match isa {
                Isa::X86 if intel => strip_comment(line, &["#", ";"]),
                Isa::X86 => strip_comment(line, &["#"]),
                Isa::AArch64 => strip_comment(line, &["//", "@"]),
            };
            if let Some(label) = text.strip_suffix(':') {
                let label = label.trim();
                if !label.is_empty() && !label.contains(char::is_whitespace) {
                    let sym = self.interner.intern(label);
                    self.items.push(CompactItem::Label(sym));
                    continue;
                }
            }
            let pushed = match isa {
                Isa::X86 if intel => self.parse_line_x86_intel(line, lineno)?,
                Isa::X86 => self.parse_line_x86(line, lineno)?,
                Isa::AArch64 => self.parse_line_aarch64(line, lineno)?,
            };
            if pushed {
                self.items
                    .push(CompactItem::Inst(self.insts.len() as u32 - 1));
            }
        }
        Ok(self.detect_loop(isa))
    }

    /// Loop detection over the parsed items: find the *last shortest*
    /// backward branch, exactly like the legacy path.
    fn detect_loop(&mut self, isa: Isa) -> CompactKernel {
        for (pos, item) in self.items.iter().enumerate() {
            if let CompactItem::Label(l) = item {
                self.label_pos.insert(*l, pos as u32);
            }
        }
        let mut best: Option<(u32, u32, Sym)> = None; // (start, end, label)
        for (pos, item) in self.items.iter().enumerate() {
            let CompactItem::Inst(ii) = *item else {
                continue;
            };
            let inst = &self.insts[ii as usize];
            if !mnemonic_is_branch(self.interner.resolve(inst.mnemonic), isa) {
                continue;
            }
            let first_op =
                (inst.ops_start < inst.ops_end).then(|| self.ops[inst.ops_start as usize]);
            let Some(CompactOp::Label(target)) = first_op else {
                continue;
            };
            let Some(&tpos) = self.label_pos.get(&target) else {
                continue;
            };
            if (tpos as usize) < pos {
                // Prefer the innermost (shortest) loop body when several
                // candidates exist; ties go to the later branch.
                let len = pos as u32 - tpos;
                match &best {
                    Some((s, e, _)) if e - s <= len => {}
                    _ => best = Some((tpos, pos as u32, target)),
                }
            }
        }
        match best {
            Some((start, end, label)) => {
                let mut first_inst = None;
                let mut last_inst = None;
                for item in &self.items[start as usize..=end as usize] {
                    if let CompactItem::Inst(i) = item {
                        if first_inst.is_none() {
                            first_inst = Some(*i);
                        }
                        last_inst = Some(*i);
                    }
                }
                match (first_inst, last_inst) {
                    (Some(f), Some(l)) => CompactKernel {
                        inst_start: f,
                        inst_end: l + 1,
                        isa,
                        loop_label: Some(label),
                    },
                    _ => CompactKernel {
                        inst_start: 0,
                        inst_end: 0,
                        isa,
                        loop_label: Some(label),
                    },
                }
            }
            None => CompactKernel {
                inst_start: 0,
                inst_end: self.insts.len() as u32,
                isa,
                loop_label: None,
            },
        }
    }

    /// Lowercase `src` into the scratch buffer (no allocation at steady
    /// capacity) and return it for interning.
    fn lower_into_scratch(&mut self, src: &str) {
        self.scratch.clear();
        for c in src.chars() {
            self.scratch.push(c.to_ascii_lowercase());
        }
    }

    /// Port of [`crate::parse::parse_line_x86`] into the arena.
    fn parse_line_x86(&mut self, line: &str, lineno: usize) -> Result<bool, ParseError> {
        let text = strip_comment(line, &["#"]);
        if text.is_empty() || text.ends_with(':') || text.starts_with('.') {
            return Ok(false);
        }
        let (mnemonic_src, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (text, ""),
        };
        self.lower_into_scratch(mnemonic_src);
        // `rep` string prefixes: fold prefix into the mnemonic.
        let rest = if self.scratch == "rep" || self.scratch == "repe" || self.scratch == "repne" {
            let (m2, r2) = match rest.split_once(char::is_whitespace) {
                Some((m, r)) => (m, r.trim()),
                None => (rest, ""),
            };
            self.scratch.push(' ');
            for c in m2.chars() {
                self.scratch.push(c.to_ascii_lowercase());
            }
            r2
        } else {
            rest
        };
        let mnemonic = self.interner.intern(&self.scratch);

        let ops_start = self.ops.len() as u32;
        let mut predicate = None;
        for part in split_operands_iter(rest) {
            let (op, mask) = parse_x86_operand(&mut self.interner, part, lineno, line)?;
            if let Some(m) = mask {
                predicate = Some(m);
            }
            self.ops.push(op);
        }
        let raw = self.interner.intern(text);
        self.insts.push(CompactInst {
            mnemonic,
            raw,
            ops_start,
            ops_end: self.ops.len() as u32,
            predicate,
            line: lineno as u32,
        });
        Ok(true)
    }

    /// Port of [`crate::parse::parse_line_aarch64`] into the arena.
    fn parse_line_aarch64(&mut self, line: &str, lineno: usize) -> Result<bool, ParseError> {
        let text = strip_comment(line, &["//", "@"]);
        if text.is_empty() || text.ends_with(':') || text.starts_with('.') {
            return Ok(false);
        }
        let (mnemonic_src, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (text, ""),
        };
        self.lower_into_scratch(mnemonic_src);
        let mnemonic = self.interner.intern(&self.scratch);

        let ops_start = self.ops.len() as u32;
        let mut predicate = None;
        for part in split_operands_iter(rest) {
            // Shift/extend modifiers attached to the previous register
            // operand: `add x0, x1, x2, lsl #3`.
            if let Some((_kind, amt)) = parse_shift_modifier(part) {
                self.ops.push(CompactOp::Imm(amt));
                continue;
            }
            parse_aarch64_operand(
                &mut self.interner,
                &mut self.ops,
                &mut predicate,
                part,
                lineno,
                line,
            )?;
        }
        let raw = self.interner.intern(text);
        self.insts.push(CompactInst {
            mnemonic,
            raw,
            ops_start,
            ops_end: self.ops.len() as u32,
            predicate,
            line: lineno as u32,
        });
        Ok(true)
    }

    /// Port of [`crate::parse::parse_line_x86_intel`] into the arena.
    fn parse_line_x86_intel(&mut self, line: &str, lineno: usize) -> Result<bool, ParseError> {
        let text = strip_comment(line, &["#", ";"]);
        if text.is_empty() || text.ends_with(':') || text.starts_with('.') {
            return Ok(false);
        }
        let (mnemonic_src, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (text, ""),
        };
        self.lower_into_scratch(mnemonic_src);

        let ops_start = self.ops.len() as u32;
        let mut width_suffix: Option<char> = None;
        for part in split_operands_iter(rest) {
            let (op, suffix) = parse_intel_operand(&mut self.interner, part, lineno, line)?;
            if suffix.is_some() {
                width_suffix = suffix;
            }
            self.ops.push(op);
        }
        // Intel order is destination-first; the internal representation is
        // AT&T destination-last.
        self.ops[ops_start as usize..].reverse();

        // Attach the ptr-directive width to integer mnemonics so
        // memory-only forms keep their access size.
        if let Some(sfx) = width_suffix {
            let has_reg = self.ops[ops_start as usize..]
                .iter()
                .any(|o| matches!(o, CompactOp::Reg(_)));
            let simd = self.scratch.starts_with('v')
                || self.scratch.ends_with("pd")
                || self.scratch.ends_with("ps")
                || self.scratch.ends_with("sd")
                || self.scratch.ends_with("ss");
            if !has_reg && !simd {
                self.scratch.push(sfx);
            }
        }
        let mnemonic = self.interner.intern(&self.scratch);
        let raw = self.interner.intern(text);
        self.insts.push(CompactInst {
            mnemonic,
            raw,
            ops_start,
            ops_end: self.ops.len() as u32,
            predicate: None,
            line: lineno as u32,
        });
        Ok(true)
    }
}

/// Bounds of the OSACA/IACA marked region, if both markers are present in
/// order. Mirrors `kernel::marked_region` without joining the lines.
fn marked_region_bounds(asm: &str) -> Option<(usize, usize)> {
    let is_begin = |l: &str| l.contains("OSACA-BEGIN") || l.contains("IACA START");
    let is_end = |l: &str| l.contains("OSACA-END") || l.contains("IACA END");
    let begin = asm.lines().position(is_begin)?;
    let end = asm.lines().position(is_end)?;
    (begin < end).then_some((begin, end))
}

/// Line-iterating, allocation-free equivalent of
/// [`crate::parse::looks_like_intel_x86`]. None of the needles contain a
/// newline, so per-line scanning matches scanning the joined text.
fn looks_like_intel_lines<'a, I>(mut lines: I) -> bool
where
    I: Iterator<Item = &'a str> + Clone,
{
    if lines.clone().any(|l| l.contains('%')) {
        return false;
    }
    lines
        .clone()
        .any(|l| contains_ignore_ascii_case(l, "ptr ["))
        || lines.clone().any(|l| l.contains('['))
        || lines.any(|l| {
            [
                " rax", " rbx", " rcx", " rdx", " rsi", " rdi", " xmm", " ymm", " zmm",
            ]
            .iter()
            .any(|r| contains_ignore_ascii_case(l, r))
        })
}

type MaskAnnotation = (Register, PredMode);

/// Port of `parse::x86::parse_operand` producing a [`CompactOp`].
fn parse_x86_operand(
    interner: &mut Interner,
    s: &str,
    lineno: usize,
    raw: &str,
) -> Result<(CompactOp, Option<MaskAnnotation>), ParseError> {
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
        return Ok((CompactOp::Imm(v), mask));
    }
    if let Some(reg) = s.strip_prefix('%') {
        let r = x86_register(reg).ok_or_else(|| err("unknown register"))?;
        return Ok((CompactOp::Reg(r), mask));
    }
    // Memory operand `disp(base,index,scale)` — any component optional.
    if let Some(open) = s.find('(') {
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
        let get_reg = |p: &str| -> Result<Option<Register>, ParseError> {
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
        let mut parts = inner.split(',').map(str::trim);
        let base = get_reg(parts.next().unwrap_or(""))?;
        let index = get_reg(parts.next().unwrap_or(""))?;
        let scale = match parts.next() {
            Some(p) if !p.is_empty() => parse_int(p)
                .filter(|s| [1, 2, 4, 8].contains(s))
                .ok_or_else(|| err("bad scale"))? as u8,
            _ => 1,
        };
        return Ok((
            CompactOp::Mem(MemOperand {
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
        let disp = parse_int(s).ok_or_else(|| err("bad absolute address"))?;
        return Ok((
            CompactOp::Mem(MemOperand {
                disp,
                scale: 1,
                ..Default::default()
            }),
            mask,
        ));
    }
    Ok((CompactOp::Label(interner.intern(s)), mask))
}

/// Port of `parse::aarch64::parse_operand` writing into the shared operand
/// table (register lists flatten in place instead of via a `Vec`).
fn parse_aarch64_operand(
    interner: &mut Interner,
    ops: &mut Vec<CompactOp>,
    predicate: &mut Option<(Register, PredMode)>,
    s: &str,
    lineno: usize,
    raw: &str,
) -> Result<(), ParseError> {
    let err = |m: &str| ParseError::new(lineno, m.to_string(), raw.to_string());
    let s = s.trim();

    // Register list `{v0.2d, v1.2d}` / `{z0.d}`.
    if let Some(inner) = s.strip_prefix('{') {
        let inner = inner
            .strip_suffix('}')
            .ok_or_else(|| err("unbalanced register list"))?;
        for piece in inner.split(',') {
            let piece = piece.trim();
            // Range form `{v0.2d - v3.2d}`.
            if let Some((a, b)) = piece.split_once('-') {
                let ra = aarch64_register(a.trim()).ok_or_else(|| err("bad register in list"))?;
                let rb = aarch64_register(b.trim()).ok_or_else(|| err("bad register in list"))?;
                for idx in ra.index..=rb.index {
                    ops.push(CompactOp::Reg(Register { index: idx, ..ra }));
                }
            } else if !piece.is_empty() {
                ops.push(CompactOp::Reg(
                    aarch64_register(piece).ok_or_else(|| err("bad register in list"))?,
                ));
            }
        }
        return Ok(());
    }

    // Memory operand `[...]` optionally followed by `!` (pre-index); the
    // post-index immediate arrives as a separate operand after the `]`.
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
        let mut piece_iter = split_operands_iter(inner);
        if let Some(first) = piece_iter.next() {
            mem.base =
                Some(aarch64_register(first.trim()).ok_or_else(|| err("bad base register"))?);
        }
        let mut mul_vl = false;
        for piece in piece_iter {
            if let Some(imm) = piece.strip_prefix('#') {
                mem.disp = parse_int(imm).ok_or_else(|| err("bad displacement"))?;
            } else if let Some((kind, amt)) = parse_shift_modifier(piece) {
                if kind == "lsl" {
                    mem.scale = 1u8 << amt.clamp(0, 3);
                }
            } else if piece == "mul vl" || piece == "mul" {
                // `[x0, #1, mul vl]` — GCC may split "mul vl" on the comma.
                mul_vl = true;
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
        ops.push(CompactOp::Mem(mem));
        return Ok(());
    }

    // Immediate `#imm` or `#fp`.
    if let Some(imm) = s.strip_prefix('#') {
        if let Some(v) = parse_int(imm) {
            ops.push(CompactOp::Imm(v));
            return Ok(());
        }
        if let Ok(f) = imm.parse::<f64>() {
            ops.push(CompactOp::FpImm(f));
            return Ok(());
        }
        return Err(err("bad immediate"));
    }

    // Predicate with mode suffix `p0/z` or `p0/m`.
    if let Some((p, mode)) = s.split_once('/') {
        if let Some(r) = aarch64_register(p) {
            if r.class == RegClass::Pred {
                let mode = match mode.trim() {
                    "z" => PredMode::Zero,
                    "m" => PredMode::Merge,
                    _ => PredMode::Plain,
                };
                *predicate = Some((r, mode));
                // Keep the predicate in the operand list too: it is read.
                ops.push(CompactOp::Reg(r));
                return Ok(());
            }
        }
    }

    // Plain register (possibly with arrangement suffix).
    if let Some(r) = aarch64_register(s) {
        if r.class == RegClass::Pred {
            *predicate = Some((r, PredMode::Plain));
        }
        ops.push(CompactOp::Reg(r));
        return Ok(());
    }

    // Bare integer (e.g. `lsl x0, x1, 3` GCC style without '#').
    if let Some(v) = parse_int(s) {
        ops.push(CompactOp::Imm(v));
        return Ok(());
    }

    // Branch target / symbol.
    ops.push(CompactOp::Label(interner.intern(s)));
    Ok(())
}

/// Port of `parse::x86_intel::parse_operand` producing a [`CompactOp`];
/// the `[base + index*scale + disp]` term scan works on slices instead of
/// accumulating `String`s.
fn parse_intel_operand(
    interner: &mut Interner,
    s: &str,
    lineno: usize,
    raw: &str,
) -> Result<(CompactOp, Option<char>), ParseError> {
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
        let close = s
            .rfind(']')
            .filter(|&c| c > open)
            .ok_or_else(|| err("unbalanced memory operand"))?;
        let inner = &s[open + 1..close];
        let mut mem = MemOperand {
            scale: 1,
            ..Default::default()
        };
        let mut handle_term = |sign: i64, term: &str| -> Result<(), ParseError> {
            if let Some((r, sc)) = term.split_once('*') {
                let reg = x86_register(r.trim()).ok_or_else(|| err("bad index register"))?;
                let scale = parse_int(sc.trim())
                    .filter(|v| [1, 2, 4, 8].contains(v))
                    .ok_or_else(|| err("bad scale"))?;
                mem.index = Some(reg);
                mem.scale = scale as u8;
            } else if let Some(reg) = x86_register(term) {
                if mem.base.is_none() {
                    mem.base = Some(reg);
                } else if mem.index.is_none() {
                    mem.index = Some(reg);
                } else {
                    return Err(err("too many registers in memory operand"));
                }
            } else if let Some(v) = parse_int(term) {
                mem.disp += sign * v;
            }
            // Symbolic displacement (`[rip + sym]` keeps disp 0).
            Ok(())
        };
        // Split on +/- keeping the sign with each term.
        let mut sign = 1i64;
        let mut start = 0usize;
        for (i, c) in inner.char_indices() {
            if c == '+' || c == '-' {
                let term = inner[start..i].trim();
                if !term.is_empty() {
                    handle_term(sign, term)?;
                }
                sign = if c == '+' { 1 } else { -1 };
                start = i + c.len_utf8();
            }
        }
        let term = inner[start..].trim();
        if !term.is_empty() {
            handle_term(sign, term)?;
        }
        return Ok((CompactOp::Mem(mem), suffix));
    }

    // Register.
    if let Some(r) = x86_register(s) {
        return Ok((CompactOp::Reg(r), suffix));
    }
    // Immediate.
    if let Some(v) = parse_int(s) {
        return Ok((CompactOp::Imm(v), suffix));
    }
    // Label / symbol.
    Ok((CompactOp::Label(interner.intern(s)), suffix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::parse_kernel_reference;

    fn both(asm: &str, isa: Isa) -> (Result<Kernel, ParseError>, Result<Kernel, ParseError>) {
        let mut arena = ParseArena::new();
        let compact = arena.parse(asm, isa).map(|k| arena.expand(&k));
        (compact, parse_kernel_reference(asm, isa))
    }

    fn assert_equivalent(asm: &str, isa: Isa) {
        let (compact, reference) = both(asm, isa);
        assert_eq!(compact, reference, "compact vs reference on:\n{asm}");
    }

    #[test]
    fn att_loop_matches_reference() {
        assert_equivalent(
            r#"
    .text
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
"#,
            Isa::X86,
        );
    }

    #[test]
    fn aarch64_loop_matches_reference() {
        assert_equivalent(
            r#"
.L3:
    ldr q0, [x1, x3]
    ld1d {z0.d - z1.d}, p0/z, [x0, x1, lsl #3]
    fadd v0.2d, v0.2d, v1.2d
    str q0, [x0, #16]!
    ldr q2, [x0], #16
    fmov d0, #1.5
    add x3, x3, #16
    cmp x3, x4
    b.ne .L3
"#,
            Isa::AArch64,
        );
    }

    #[test]
    fn intel_kernel_matches_reference() {
        assert_equivalent(
            "loop:\n  vmovupd zmm0, zmmword ptr [rax + rcx*8 + 16]\n  add qword ptr [rbx - 8], 5\n  add rcx, 64\n  cmp rcx, rdx\n  jne loop\n",
            Isa::X86,
        );
    }

    #[test]
    fn marked_regions_match_reference() {
        assert_equivalent(
            "    movq %r9, %r10\n# OSACA-BEGIN\n.L2:\n    addq $8, %rax\n    jne .L2\n# OSACA-END\n    ret\n",
            Isa::X86,
        );
        assert_equivalent(
            "// IACA START\n    fadd d0, d1, d2\n// IACA END\n    fmul d3, d4, d5\n",
            Isa::AArch64,
        );
        assert_equivalent("# OSACA-END\n addq $1, %rax\n# OSACA-BEGIN\n", Isa::X86);
    }

    #[test]
    fn nested_loops_match_reference() {
        assert_equivalent(
            ".Louter:\n movq %r8, %r9\n.Linner:\n addq $1, %r9\n cmpq %r10, %r9\n jne .Linner\n addq $1, %r8\n cmpq %r11, %r8\n jne .Louter\n",
            Isa::X86,
        );
    }

    #[test]
    fn errors_match_reference() {
        for asm in [
            "movq )(%rax, %rbx\n",
            "movq 8(%rax, %rbx\n",
            "movq %bogus, %rax\n",
            "movq 8(%rax,%rbx,3), %rcx\n",
            "vaddpd %zmm0, %zmm1, %zmm2\nmovq $zz, %rax\n",
        ] {
            let (compact, reference) = both(asm, Isa::X86);
            assert_eq!(compact, reference, "error equivalence on {asm:?}");
            assert!(reference.is_err());
        }
        for asm in ["ldr q0, [x0, #zz]\n", "ld1d {zq9.d}, p0/z, [x0]\n"] {
            let (compact, reference) = both(asm, Isa::AArch64);
            assert_eq!(compact, reference, "error equivalence on {asm:?}");
            assert!(reference.is_err());
        }
        // Intel detection must agree before the dialects even run.
        let (compact, reference) = both("mov rax, ][rbx\n", Isa::X86);
        assert_eq!(compact, reference);
        assert!(reference.is_err());
    }

    #[test]
    fn arena_reuse_preserves_results() {
        let mut arena = ParseArena::new();
        let a1 = arena
            .parse("addq $1, %rax\n", Isa::X86)
            .map(|k| arena.expand(&k))
            .unwrap();
        // Parse something else in between, then re-parse the first text.
        arena.parse("fadd d0, d1, d2\n", Isa::AArch64).unwrap();
        let a2 = arena
            .parse("addq $1, %rax\n", Isa::X86)
            .map(|k| arena.expand(&k))
            .unwrap();
        assert_eq!(a1, a2);
    }

    #[test]
    fn compact_accessors_expose_the_parse() {
        let mut arena = ParseArena::new();
        let k = arena
            .parse(".L1:\n addq $8, %rax\n jne .L1\n", Isa::X86)
            .unwrap();
        assert_eq!(k.len(), 2);
        assert!(!k.is_empty());
        let insts = arena.insts(&k);
        assert_eq!(arena.resolve(insts[0].mnemonic), "addq");
        assert_eq!(arena.ops(&insts[0]).len(), 2);
        assert_eq!(arena.resolve(k.loop_label.unwrap()), ".L1");
        assert!(arena.interned_strings() > 0);
    }
}

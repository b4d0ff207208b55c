//! Assembly text parsing for both ISAs.
//!
//! The parsers accept compiler-emitted assembly (GCC/Clang/ICX for x86 in
//! AT&T syntax, GCC/armclang for AArch64), skipping directives and comments
//! and returning one [`Instruction`](crate::Instruction) per instruction
//! line.

mod aarch64;
mod x86;
mod x86_intel;

pub use aarch64::parse_line_aarch64;
pub use x86::parse_line_x86;
pub use x86_intel::{looks_like_intel_x86, parse_line_x86_intel};

use std::fmt;

/// A parse failure with source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
    pub source_line: String,
}

impl ParseError {
    pub fn new(line: usize, message: impl Into<String>, source_line: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
            source_line: source_line.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: {} in `{}`",
            self.line, self.message, self.source_line
        )
    }
}

impl std::error::Error for ParseError {}

/// What a single source line turned out to be.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// An instruction.
    Inst(crate::Instruction),
    /// A label definition (`".L2"`).
    Label(String),
    /// Directive, comment, or blank — ignored by analysis.
    Ignored,
}

/// Strip comments (`#` for AT&T, `//` and `@` for ARM) outside of any
/// string literal, and trim.
pub(crate) fn strip_comment<'a>(line: &'a str, markers: &[&str]) -> &'a str {
    let mut cut = line.len();
    for m in markers {
        if let Some(pos) = line.find(m) {
            cut = cut.min(pos);
        }
    }
    line[..cut].trim()
}

/// Split an operand string on top-level commas (commas inside `()`, `[]`,
/// or `{}` do not separate operands).
pub(crate) fn split_operands(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(s[start..].trim());
    parts.retain(|p| !p.is_empty());
    parts
}

/// Case-insensitive ASCII substring search without allocating a lowercased
/// copy. `needle` must already be ASCII-lowercase.
pub(crate) fn contains_ignore_ascii_case(hay: &str, needle: &str) -> bool {
    let (hay, needle) = (hay.as_bytes(), needle.as_bytes());
    if needle.is_empty() {
        return true;
    }
    if hay.len() < needle.len() {
        return false;
    }
    hay.windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle))
}

/// Parse an integer that may be decimal, hex (`0x`), or negative.
pub(crate) fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, s) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        s.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_respects_brackets() {
        assert_eq!(
            split_operands("%rax, 8(%rbx,%rcx,4), %rdx"),
            vec!["%rax", "8(%rbx,%rcx,4)", "%rdx"]
        );
        assert_eq!(split_operands("q0, [x0, #16]"), vec!["q0", "[x0, #16]"]);
        assert_eq!(
            split_operands("{z0.d, z1.d}, p0/z, [x0]"),
            vec!["{z0.d, z1.d}", "p0/z", "[x0]"]
        );
        assert_eq!(split_operands(""), Vec::<&str>::new());
    }

    #[test]
    fn split_drops_empty_segments() {
        assert_eq!(split_operands("a,,b"), vec!["a", "b"]);
        assert_eq!(split_operands(",a,"), vec!["a"]);
        assert_eq!(split_operands(" , "), Vec::<&str>::new());
        assert_eq!(split_operands("a(b,c"), vec!["a(b,c"]);
    }

    #[test]
    fn case_insensitive_contains() {
        assert!(contains_ignore_ascii_case("QWORD PTR [rax]", "ptr ["));
        assert!(contains_ignore_ascii_case("ptr [", "ptr ["));
        assert!(!contains_ignore_ascii_case("ptr", "ptr ["));
        assert!(contains_ignore_ascii_case("x", ""));
    }

    #[test]
    fn int_parsing() {
        assert_eq!(parse_int("42"), Some(42));
        assert_eq!(parse_int("-8"), Some(-8));
        assert_eq!(parse_int("0x40"), Some(64));
        assert_eq!(parse_int("-0x10"), Some(-16));
        assert_eq!(parse_int("zz"), None);
    }

    #[test]
    fn comments_stripped() {
        assert_eq!(
            strip_comment("add x0, x1, x2 // hi", &["//", "@"]),
            "add x0, x1, x2"
        );
        assert_eq!(
            strip_comment("  movq %rax, %rbx # c", &["#"]),
            "movq %rax, %rbx"
        );
        assert_eq!(strip_comment("# only", &["#"]), "");
    }
}

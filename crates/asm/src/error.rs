//! Assembler error reporting. Errors carry the 1-based source line plus a
//! column/byte span; the assembler collects *all* errors in a file rather
//! than stopping at the first. [`render_errors_with_source`] points a
//! caret run at the offending token; the excerpt renderer
//! ([`source_excerpt`]) is shared with `asc-verify`'s lint output.

use std::fmt;

/// What went wrong on a particular line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmErrorKind {
    /// A character the lexer does not understand.
    BadChar(char),
    /// A malformed integer literal.
    BadInt(String),
    /// An unknown instruction mnemonic or directive.
    UnknownMnemonic(String),
    /// Operand list doesn't match the mnemonic; the message says what was
    /// expected.
    BadOperands(String),
    /// Reference to an undefined label or `.equ` symbol.
    UndefinedSymbol(String),
    /// The same label or symbol defined twice.
    DuplicateSymbol(String),
    /// An immediate or branch offset out of range for its field.
    OutOfRange {
        /// What kind of value overflowed ("immediate", "branch offset", ...).
        what: &'static str,
        /// The out-of-range value.
        value: i64,
        /// Smallest allowed value.
        min: i64,
        /// Largest allowed value.
        max: i64,
    },
}

impl fmt::Display for AsmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmErrorKind::BadChar(c) => write!(f, "unexpected character {c:?}"),
            AsmErrorKind::BadInt(s) => write!(f, "malformed integer literal `{s}`"),
            AsmErrorKind::UnknownMnemonic(s) => write!(f, "unknown mnemonic `{s}`"),
            AsmErrorKind::BadOperands(msg) => write!(f, "bad operands: {msg}"),
            AsmErrorKind::UndefinedSymbol(s) => write!(f, "undefined symbol `{s}`"),
            AsmErrorKind::DuplicateSymbol(s) => write!(f, "duplicate symbol `{s}`"),
            AsmErrorKind::OutOfRange { what, value, min, max } => {
                write!(f, "{what} {value} out of range [{min}, {max}]")
            }
        }
    }
}

/// An assembler diagnostic: kind plus source position. `col`/`len` locate
/// the offending token within the line (1-based byte column; `col == 0`
/// means the position is unknown and renderers fall back to line-only
/// output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column of the offending token (0 = unknown).
    pub col: u32,
    /// Length of the offending token in bytes.
    pub len: u32,
    /// The diagnostic.
    pub kind: AsmErrorKind,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(f, "line {}:{}: {}", self.line, self.col, self.kind)
        } else {
            write!(f, "line {}: {}", self.line, self.kind)
        }
    }
}

impl std::error::Error for AsmError {}

/// Render a batch of errors, one per line.
pub fn render_errors(errors: &[AsmError]) -> String {
    let mut out = String::new();
    for e in errors {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

/// Render a batch of errors against their source text, with a caret run
/// (`^^^`) under each offending token:
///
/// ```text
/// error: unknown mnemonic `addd`
///   |
/// 3 |         addd s1, s2, s3
///   |         ^^^^
/// ```
pub fn render_errors_with_source(src: &str, errors: &[AsmError]) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = String::new();
    for e in errors {
        out.push_str(&format!("error: {}\n", e.kind));
        match lines.get(e.line.wrapping_sub(1) as usize) {
            Some(text) if e.line > 0 => {
                out.push_str(&source_excerpt(text, e.line, e.col, e.len));
            }
            _ => out.push_str(&format!("  (line {})\n", e.line)),
        }
    }
    out
}

/// A three-line source excerpt with a caret run under the span starting
/// at 1-based byte column `col` (length `len` bytes; `col == 0` points at
/// the start of the line). The caret line counts characters, not bytes:
/// one pad character per character before the span, and one caret per
/// character of it (at least one). Tabs in the source line are preserved
/// in the caret line's padding so the carets stay aligned under any tab
/// width.
pub fn source_excerpt(line_text: &str, line_no: u32, col: u32, len: u32) -> String {
    let num = line_no.to_string();
    let gutter = " ".repeat(num.len());
    let bytes = line_text.as_bytes();
    let start = col.saturating_sub(1) as usize;
    // a UTF-8 continuation byte belongs to the character before it
    let continues = |b: &&u8| **b & 0xC0 == 0x80;
    let pad: String = bytes
        .iter()
        .take(start)
        .filter(|b| !continues(b))
        .map(|&b| if b == b'\t' { '\t' } else { ' ' })
        .collect();
    let continued = bytes.iter().skip(start).take(len as usize).filter(continues).count();
    let carets = "^".repeat((len as usize - continued).max(1));
    format!("{gutter} |\n{num} | {line_text}\n{gutter} | {pad}{carets}\n")
}

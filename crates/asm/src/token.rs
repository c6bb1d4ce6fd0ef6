//! Token model for the assembler.

use std::fmt::{self, Write as _};

/// A lexical token. Identifiers and directives borrow their text from the
/// source, so a token is a plain `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'a> {
    /// Identifier: mnemonic, register name, label, or symbol.
    Ident(&'a str),
    /// Directive, e.g. `.equ`, as written (leading dot included).
    /// Directives are case-insensitive: compare with
    /// `eq_ignore_ascii_case`; messages show the lowercase name.
    Directive(&'a str),
    /// Integer literal (decimal, `0x` hex, `0b` binary; optional leading
    /// `-`).
    Int(i64),
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `?` — introduces an activity mask.
    Question,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Directive(s) => {
                f.write_char('`')?;
                for c in s.chars() {
                    f.write_char(c.to_ascii_lowercase())?;
                }
                f.write_char('`')
            }
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Colon => f.write_str("`:`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::Question => f.write_str("`?`"),
        }
    }
}

/// A byte span within one source line: 1-based line and column plus a
/// length in bytes. `col == 0` means "position unknown" (renderers fall
/// back to line-only output). Shared by assembler diagnostics and the
/// `asc-verify` lint renderer, so both point into source the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SrcSpan {
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column of the first byte (0 = unknown).
    pub col: u32,
    /// Length of the span in bytes (0 = point/unknown; render one caret).
    pub len: u32,
}

/// A token plus its position within its source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spanned<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// 1-based byte column where the token starts.
    pub col: u32,
    /// Token length in bytes.
    pub len: u32,
}

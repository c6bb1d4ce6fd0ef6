//! Hand-written lexer, one source line at a time (one statement per
//! line); comments (`;`, `#`, `//` to end of line) are skipped. Tokens
//! borrow their text from the source, so lexing allocates nothing unless
//! it finds an error or an integer literal with `_` separators.

use crate::error::{AsmError, AsmErrorKind};
use crate::token::{Spanned, Tok};

/// Lex the source line that starts at byte `start` of `src`, line
/// `line_no` (1-based), onto `toks`, until the line ends or `toks` holds
/// `limit` tokens; lexical errors go to `errors`, and lexing resumes
/// after each. Returns where the next line starts: past the line's `\n`,
/// or at the end of the source. Lines split as [`str::lines`] splits
/// them (a `\r` before the `\n` lexes as a blank).
pub fn lex_line<'a>(
    src: &'a str,
    start: usize,
    line_no: u32,
    limit: usize,
    toks: &mut Vec<Spanned<'a>>,
    errors: &mut Vec<AsmError>,
) -> usize {
    let bytes = src.as_bytes();
    // `i` is the next unread byte, always a char boundary
    let mut i = start;
    loop {
        while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\r') {
            i += 1;
        }
        if i == bytes.len() {
            return i;
        }
        if toks.len() >= limit {
            return next_line(bytes, i);
        }
        // `at..end` is the token's byte range; columns are 1-based
        let at = i;
        let col = (at - start) as u32 + 1;
        let error =
            |end: usize, kind| AsmError { line: line_no, col, len: (end - at) as u32, kind };
        let (tok, end) = match bytes[at] {
            b'\n' => return at + 1,
            b';' | b'#' => return next_line(bytes, at),
            b'/' if bytes.get(at + 1) == Some(&b'/') => return next_line(bytes, at),
            b',' => (Tok::Comma, at + 1),
            b':' => (Tok::Colon, at + 1),
            b'(' => (Tok::LParen, at + 1),
            b')' => (Tok::RParen, at + 1),
            b'?' => (Tok::Question, at + 1),
            b'.' => {
                let end = ident_end(bytes, at + 1);
                (Tok::Directive(&src[at..end]), end)
            }
            b'-' | b'0'..=b'9' => {
                let end = ident_end(bytes, at + 1);
                let text = &src[at..end];
                i = end;
                match parse_int(text) {
                    Some(v) => (Tok::Int(v), end),
                    None => {
                        errors.push(error(end, AsmErrorKind::BadInt(text.to_string())));
                        continue;
                    }
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let end = ident_end(bytes, at + 1);
                (Tok::Ident(&src[at..end]), end)
            }
            _ => {
                // one error for the whole character, however many bytes
                // it takes
                let c = src[at..].chars().next().expect("lexing stops on char boundaries");
                i = at + c.len_utf8();
                errors.push(error(i, AsmErrorKind::BadChar(c)));
                continue;
            }
        };
        i = end;
        toks.push(Spanned { tok, col, len: (end - at) as u32 });
    }
}

/// Where the next line starts after byte `i`: past the first `\n` from
/// `i` on, or at the end of the source.
fn next_line(bytes: &[u8], i: usize) -> usize {
    bytes[i..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |n| i + n + 1)
}

/// End of the run of identifier characters (ASCII alphanumerics and `_`)
/// starting at `i`.
fn ident_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    i
}

fn parse_int(text: &str) -> Option<i64> {
    let (neg, body) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    let (digits, radix) =
        if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
            (hex, 16)
        } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
            (bin, 2)
        } else {
            (body, 10)
        };
    let v = if digits.contains('_') {
        i64::from_str_radix(&digits.replace('_', ""), radix).ok()?
    } else {
        i64::from_str_radix(digits, radix).ok()?
    };
    Some(if neg { -v } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(line: &str) -> (Vec<Spanned<'_>>, Vec<AsmError>) {
        let (mut toks, mut errors) = (Vec::new(), Vec::new());
        assert_eq!(lex_line(line, 0, 2, usize::MAX, &mut toks, &mut errors), line.len());
        (toks, errors)
    }

    fn toks(line: &str) -> Vec<Tok<'_>> {
        let (toks, errors) = lex(line);
        assert_eq!(errors, []);
        toks.into_iter().map(|t| t.tok).collect()
    }

    fn errors(line: &str) -> Vec<AsmError> {
        lex(line).1
    }

    #[test]
    fn basic_line() {
        assert_eq!(
            toks("add s1, s2, s3"),
            vec![
                Tok::Ident("add"),
                Tok::Ident("s1"),
                Tok::Comma,
                Tok::Ident("s2"),
                Tok::Comma,
                Tok::Ident("s3"),
            ]
        );
    }

    #[test]
    fn comments_and_labels() {
        assert_eq!(
            toks("loop: j loop ; forever"),
            [Tok::Ident("loop"), Tok::Colon, Tok::Ident("j"), Tok::Ident("loop")]
        );
        assert_eq!(toks("# whole-line comment"), []);
        assert_eq!(toks("  // also"), []);
    }

    #[test]
    fn integers() {
        for (text, v) in [
            ("-42", -42),
            ("0xff", 255),
            ("0XFF", 255),
            ("0b1010", 10),
            ("1_000", 1000),
            ("-0x10", -16),
        ] {
            assert_eq!(toks(text), [Tok::Int(v)], "{text}");
        }
    }

    #[test]
    fn mask_and_mem_syntax() {
        assert_eq!(
            toks("plw p1, 4(p2) ?pf3"),
            vec![
                Tok::Ident("plw"),
                Tok::Ident("p1"),
                Tok::Comma,
                Tok::Int(4),
                Tok::LParen,
                Tok::Ident("p2"),
                Tok::RParen,
                Tok::Question,
                Tok::Ident("pf3"),
            ]
        );
    }

    #[test]
    fn directive() {
        assert_eq!(
            toks(".EQU N, 16"),
            [Tok::Directive(".EQU"), Tok::Ident("N"), Tok::Comma, Tok::Int(16)]
        );
        assert_eq!(Tok::Directive(".EQU").to_string(), "`.equ`");
    }

    #[test]
    fn lines_end_at_newlines() {
        let src = "loop: j loop ; back\r\n\n  halt";
        let (mut toks, mut errors) = (Vec::new(), Vec::new());
        let next = lex_line(src, 0, 1, 2, &mut toks, &mut errors);
        assert_eq!(
            toks.iter().map(|t| t.tok).collect::<Vec<_>>(),
            [Tok::Ident("loop"), Tok::Colon]
        );
        assert_eq!(next, 21, "the first line ends past its newline");
        assert_eq!(lex_line(src, next, 2, usize::MAX, &mut toks, &mut errors), 22);
        toks.clear();
        assert_eq!(lex_line(src, 22, 3, usize::MAX, &mut toks, &mut errors), src.len());
        assert_eq!((toks[0].tok, toks[0].col, toks[0].len), (Tok::Ident("halt"), 3, 4));
        assert_eq!(errors, []);
    }

    #[test]
    fn bad_char_reported_with_line() {
        let errs = errors("add s1, s2, @");
        assert_eq!(errs.len(), 1);
        assert_eq!((errs[0].line, errs[0].col, errs[0].len), (2, 13, 1));
        assert!(matches!(errs[0].kind, AsmErrorKind::BadChar('@')));
    }

    #[test]
    fn bad_int_reported() {
        let errs = errors("li s1, 0xzz");
        assert!(matches!(errs[0].kind, AsmErrorKind::BadInt(_)));
    }
}

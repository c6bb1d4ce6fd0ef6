//! Two-pass parser: pass 1 collects labels and `.equ` constants, pass 2
//! parses instructions with the complete symbol table in scope, so forward
//! references need no fixup machinery.
//!
//! Both passes lex the source a line at a time into one reused token
//! buffer; pass 1 reads past a line's first two tokens only when the line
//! starts with a label or a directive. Tokens borrow the source, and the
//! mnemonic table is built at compile time, so assembling a program
//! without labels makes a fixed number of allocations, whatever its
//! length.

use std::collections::HashMap;

use asc_isa::{
    AluOp, CmpOp, FlagOp, FlagReduceOp, Instr, Mask, PFlag, PReg, ReduceOp, SFlag, SReg,
};

use crate::error::{AsmError, AsmErrorKind};
use crate::lexer::lex_line;
use crate::program::Program;
use crate::token::{Spanned, SrcSpan, Tok};

/// Tokens a line may hold before the reused buffer grows (`plw p1,
/// 4(p2) ?pf3` has nine).
const LINE_TOKENS: usize = 16;

/// Assemble MTASC source text into a [`Program`]. All diagnostics in the
/// file are collected and returned together; when a line fails to lex,
/// they are the lexical errors alone.
pub fn assemble(src: &str) -> Result<Program, Vec<AsmError>> {
    let mut toks = Vec::with_capacity(LINE_TOKENS);
    let mut errors = Vec::new();

    // ---- pass 1: addresses of labels, values of .equ constants ----
    // (pass-1 cursors resolve symbols through the parameter, not through
    // their own table, so they get an empty one; pass 2 reports lexical
    // errors)
    let empty: HashMap<String, i64> = HashMap::new();
    let mut symbols: HashMap<String, i64> = HashMap::new();
    let mut addr: i64 = 0;
    let mut ignored = Vec::new();
    let (mut start, mut line_no) = (0, 0);
    while start < src.len() {
        line_no += 1;
        toks.clear();
        let next = lex_line(src, start, line_no, 2, &mut toks, &mut ignored);
        match (toks.first().map(|t| t.tok), toks.get(1).map(|t| t.tok)) {
            (None, _) => {}
            (Some(Tok::Ident(_)), Some(Tok::Colon)) | (Some(Tok::Directive(_)), _) => {
                toks.clear();
                lex_line(src, start, line_no, usize::MAX, &mut toks, &mut ignored);
                let mut c = Cursor::new(&toks, line_no, &empty, &mut errors);
                c.labels_and_equ_pass1(&mut symbols, &mut addr);
            }
            _ => addr += 1,
        }
        ignored.clear();
        start = next;
    }

    // ---- pass 2: full parse ----
    // (`addr` counts every statement, so it bounds the instruction count)
    let mut instrs = Vec::with_capacity(addr as usize);
    let mut line_map = Vec::with_capacity(addr as usize);
    let mut span_map = Vec::with_capacity(addr as usize);
    let mut lex_errors = Vec::new();
    let (mut start, mut line_no) = (0, 0);
    while start < src.len() {
        line_no += 1;
        toks.clear();
        let line = &src[start..];
        start = lex_line(src, start, line_no, usize::MAX, &mut toks, &mut lex_errors);
        // after a lexical error only lexical errors are reported, so the
        // remaining lines are only lexed
        if toks.is_empty() || !lex_errors.is_empty() {
            continue;
        }
        let mut c = Cursor::new(&toks, line_no, &symbols, &mut errors);
        c.skip_labels_and_equ();
        let mspan = c.cur_srcspan();
        let instr = match (c.opt_ident(), c.peek()) {
            (Some(mnemonic), _) => {
                let before = c.errors.len();
                let i = parse_instr(mnemonic, &mut c, instrs.len() as i64);
                if i.is_some() {
                    c.end_of_operands();
                }
                // keep addresses consistent despite an error
                i.filter(|_| c.errors.len() == before).unwrap_or(Instr::Nop)
            }
            // `?`, an integer or punctuation where the mnemonic belongs:
            // pass 1 gave the statement an address, so it must not vanish
            (None, Some(_)) => {
                let text = &line[mspan.col as usize - 1..][..mspan.len as usize];
                c.err_here(AsmErrorKind::UnknownMnemonic(text.to_string()));
                Instr::Nop
            }
            (None, None) => continue,
        };
        instrs.push(instr);
        line_map.push(line_no);
        span_map.push(mspan);
    }

    if !lex_errors.is_empty() {
        Err(lex_errors)
    } else if errors.is_empty() {
        Ok(Program { instrs, symbols, lines: line_map, spans: span_map })
    } else {
        Err(errors)
    }
}

/// A parser position within the tokens of one source line.
struct Cursor<'a> {
    toks: &'a [Spanned<'a>],
    pos: usize,
    /// 1-based source line of the tokens.
    line: u32,
    symbols: &'a HashMap<String, i64>,
    errors: &'a mut Vec<AsmError>,
}

impl<'a> Cursor<'a> {
    fn new(
        toks: &'a [Spanned<'a>],
        line: u32,
        symbols: &'a HashMap<String, i64>,
        errors: &'a mut Vec<AsmError>,
    ) -> Self {
        Cursor { toks, pos: 0, line, symbols, errors }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|s| s.tok)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn srcspan(&self, t: &Spanned<'_>) -> SrcSpan {
        SrcSpan { line: self.line, col: t.col, len: t.len }
    }

    /// Span of the token at the cursor (or the last token of the line
    /// once everything is consumed).
    fn cur_srcspan(&self) -> SrcSpan {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|t| self.srcspan(t))
            .unwrap_or_default()
    }

    /// Span of the most recently consumed token — where an error raised
    /// just after a `next()` points.
    fn prev_srcspan(&self) -> SrcSpan {
        let idx = self.pos.min(self.toks.len()).saturating_sub(1);
        self.toks.get(idx).map(|t| self.srcspan(t)).unwrap_or_default()
    }

    /// Report an error at the most recently consumed token (most errors
    /// are raised right after `next()` returned something unexpected).
    fn err(&mut self, kind: AsmErrorKind) {
        let span = self.prev_srcspan();
        self.errors.push(AsmError { line: self.line, col: span.col, len: span.len, kind });
    }

    /// Report an error at the *current* (unconsumed) token.
    fn err_here(&mut self, kind: AsmErrorKind) {
        let span = self.cur_srcspan();
        self.errors.push(AsmError { line: self.line, col: span.col, len: span.len, kind });
    }

    fn bad(&mut self, msg: impl Into<String>) {
        self.err(AsmErrorKind::BadOperands(msg.into()));
    }

    /// The token after the one at the cursor.
    fn peek2(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos + 1).map(|s| s.tok)
    }

    /// Pass 1: consume leading `label:` pairs and `.equ` directives,
    /// updating the symbol table; bump `addr` if an instruction follows.
    fn labels_and_equ_pass1(&mut self, symbols: &mut HashMap<String, i64>, addr: &mut i64) {
        loop {
            match (self.peek(), self.peek2()) {
                (Some(Tok::Ident(name)), Some(Tok::Colon)) => {
                    self.pos += 2;
                    if symbols.insert(name.to_string(), *addr).is_some() {
                        self.err(AsmErrorKind::DuplicateSymbol(name.to_string()));
                    }
                }
                (Some(Tok::Directive(d)), _) if d.eq_ignore_ascii_case(".equ") => {
                    self.pos += 1;
                    let Some(Tok::Ident(name)) = self.next() else {
                        self.bad(".equ expects `.equ NAME, value`");
                        return;
                    };
                    if self.peek() == Some(Tok::Comma) {
                        self.pos += 1;
                    }
                    let value = match self.next() {
                        Some(Tok::Int(v)) => v,
                        Some(Tok::Ident(sym)) => match symbols.get(sym) {
                            Some(&v) => v,
                            None => {
                                self.err(AsmErrorKind::UndefinedSymbol(sym.to_string()));
                                0
                            }
                        },
                        _ => {
                            self.bad(".equ expects a numeric value or known symbol");
                            0
                        }
                    };
                    if symbols.insert(name.to_string(), value).is_some() {
                        self.err(AsmErrorKind::DuplicateSymbol(name.to_string()));
                    }
                    self.end_of_operands();
                    return;
                }
                (Some(Tok::Directive(d)), _) => {
                    self.err_here(AsmErrorKind::UnknownMnemonic(d.to_ascii_lowercase()));
                    return;
                }
                (Some(_), _) => {
                    *addr += 1;
                    return;
                }
                (None, _) => return,
            }
        }
    }

    /// Pass 2: skip what pass 1 consumed.
    fn skip_labels_and_equ(&mut self) {
        loop {
            match (self.peek(), self.peek2()) {
                (Some(Tok::Ident(_)), Some(Tok::Colon)) => self.pos += 2,
                (Some(Tok::Directive(_)), _) => {
                    self.pos = self.toks.len();
                    return;
                }
                _ => return,
            }
        }
    }

    fn opt_ident(&mut self) -> Option<&'a str> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Some(s)
            }
            _ => None,
        }
    }

    fn comma(&mut self) {
        match self.next() {
            Some(Tok::Comma) => {}
            other => {
                let msg = match other {
                    Some(t) => format!("expected `,`, found {t}"),
                    None => "expected `,`, found end of line".to_string(),
                };
                self.bad(msg);
            }
        }
    }

    fn reg_ident(&mut self, what: &'static str) -> Option<&'a str> {
        match self.next() {
            Some(Tok::Ident(s)) => Some(s),
            other => {
                let msg = match other {
                    Some(t) => format!("expected {what}, found {t}"),
                    None => format!("expected {what}, found end of line"),
                };
                self.bad(msg);
                None
            }
        }
    }

    fn sreg(&mut self) -> SReg {
        self.parse_reg("scalar register (s0..s15)", "s", 16)
            .map(SReg::from_index)
            .unwrap_or(SReg::R0)
    }

    fn preg(&mut self) -> PReg {
        self.parse_reg("parallel register (p0..p15)", "p", 16)
            .map(PReg::from_index)
            .unwrap_or(PReg::R0)
    }

    fn sflag(&mut self) -> SFlag {
        self.parse_reg("scalar flag (f0..f7)", "f", 8).map(SFlag::from_index).unwrap_or(SFlag::R0)
    }

    fn pflag(&mut self) -> PFlag {
        self.parse_reg("parallel flag (pf0..pf7)", "pf", 8)
            .map(PFlag::from_index)
            .unwrap_or(PFlag::R0)
    }

    fn parse_reg(&mut self, what: &'static str, prefix: &str, count: u8) -> Option<u8> {
        let name = self.reg_ident(what)?;
        let idx = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.parse::<u8>().ok())
            .filter(|&i| i < count);
        // "pf3" must not parse as p-register "f3"; require exact prefix and
        // all-digits remainder.
        if prefix == "p" && name.starts_with("pf") {
            self.bad(format!("expected {what}, found `{name}`"));
            return None;
        }
        if prefix == "f" && name.starts_with("pf") {
            self.bad(format!("expected {what}, found `{name}`"));
            return None;
        }
        match idx {
            Some(i) => Some(i),
            None => {
                self.bad(format!("expected {what}, found `{name}`"));
                None
            }
        }
    }

    /// An immediate: integer literal or symbol (label / `.equ`).
    fn imm(&mut self, what: &'static str, min: i64, max: i64) -> i64 {
        let v = match self.next() {
            Some(Tok::Int(v)) => v,
            Some(Tok::Ident(sym)) => match self.symbols.get(sym) {
                Some(&v) => v,
                None => {
                    self.err(AsmErrorKind::UndefinedSymbol(sym.to_string()));
                    return 0;
                }
            },
            other => {
                let msg = match other {
                    Some(t) => format!("expected {what}, found {t}"),
                    None => format!("expected {what}, found end of line"),
                };
                self.bad(msg);
                return 0;
            }
        };
        self.check_range(what, v, min, max)
    }

    fn check_range(&mut self, what: &'static str, v: i64, min: i64, max: i64) -> i64 {
        if v < min || v > max {
            self.err(AsmErrorKind::OutOfRange { what, value: v, min, max });
            0
        } else {
            v
        }
    }

    /// `imm16` accepts the signed range plus unsigned bit patterns up to
    /// 0xffff (stored as the same 16 bits).
    fn imm16(&mut self) -> i16 {
        self.imm("immediate", -0x8000, 0xffff) as u16 as i16
    }

    fn imm8(&mut self) -> i8 {
        self.imm("immediate", -0x80, 0xff) as u8 as i8
    }

    /// Branch target: a label (offset computed from `addr`) or an explicit
    /// integer offset.
    fn branch_off(&mut self, addr: i64) -> i16 {
        let v = match self.next() {
            Some(Tok::Int(v)) => v,
            Some(Tok::Ident(sym)) => match self.symbols.get(sym) {
                Some(&target) => target - (addr + 1),
                None => {
                    self.err(AsmErrorKind::UndefinedSymbol(sym.to_string()));
                    0
                }
            },
            other => {
                let msg = match other {
                    Some(t) => format!("expected branch target, found {t}"),
                    None => "expected branch target, found end of line".to_string(),
                };
                self.bad(msg);
                0
            }
        };
        self.check_range("branch offset", v, -0x8000, 0x7fff) as i16
    }

    fn jump_target(&mut self, max: i64) -> u32 {
        self.imm("jump target", 0, max) as u32
    }

    /// `off(reg)` memory operand; returns (offset, base).
    fn mem_s(&mut self) -> (i16, SReg) {
        let off = self.imm("offset", -0x8000, 0xffff) as u16 as i16;
        self.expect(Tok::LParen);
        let base = self.sreg();
        self.expect(Tok::RParen);
        (off, base)
    }

    fn mem_p(&mut self) -> (i8, PReg) {
        let off = self.imm("offset", -0x80, 0xff) as u8 as i8;
        self.expect(Tok::LParen);
        let base = self.preg();
        self.expect(Tok::RParen);
        (off, base)
    }

    fn expect(&mut self, want: Tok<'_>) {
        match self.next() {
            Some(t) if t == want => {}
            other => {
                let msg = match other {
                    Some(t) => format!("expected {want}, found {t}"),
                    None => format!("expected {want}, found end of line"),
                };
                self.bad(msg);
            }
        }
    }

    /// Optional trailing activity mask: `?pfN`.
    fn mask(&mut self) -> Mask {
        if self.peek() == Some(Tok::Question) {
            self.pos += 1;
            Mask::Flag(self.pflag())
        } else {
            Mask::All
        }
    }

    fn end_of_operands(&mut self) {
        if let Some(t) = self.peek() {
            let msg = format!("unexpected {t} after operands");
            self.err_here(AsmErrorKind::BadOperands(msg));
        }
    }
}

/// Operand shape of each mnemonic.
#[derive(Clone, Copy)]
enum Form {
    SAlu(AluOp),
    SAluImm(AluOp),
    SCmp(CmpOp),
    SCmpSwapped(CmpOp),
    SCmpImm(CmpOp),
    SFlag(FlagOp),
    PAlu(AluOp),
    PAluS(AluOp),
    PAluImm(AluOp),
    PCmp(CmpOp),
    PCmpSwapped(CmpOp),
    PCmpS(CmpOp),
    PCmpImm(CmpOp),
    PFlag(FlagOp),
    Reduce(ReduceOp),
    RFlag(FlagReduceOp),
    Named(Named),
}

/// Mnemonics with an operand syntax of their own (see [`parse_named`]).
#[derive(Clone, Copy)]
enum Named {
    Nop,
    Halt,
    Lw,
    Sw,
    Li,
    Lui,
    Bt,
    Bf,
    J,
    Jal,
    Jr,
    TSpawn,
    TExit,
    TJoin,
    TGet,
    TPut,
    TId,
    Plw,
    Psw,
    Pidx,
    PMovS,
    PShift,
    RCount,
    PFirst,
    RGet,
    Mov,
    PMov,
    PLi,
    Not,
    PNot,
}

/// The spelling of each [`Named`] mnemonic; `b` is another name for `j`.
const NAMED: [(&str, Named); 31] = [
    ("nop", Named::Nop),
    ("halt", Named::Halt),
    ("lw", Named::Lw),
    ("sw", Named::Sw),
    ("li", Named::Li),
    ("lui", Named::Lui),
    ("bt", Named::Bt),
    ("bf", Named::Bf),
    ("j", Named::J),
    ("b", Named::J),
    ("jal", Named::Jal),
    ("jr", Named::Jr),
    ("tspawn", Named::TSpawn),
    ("texit", Named::TExit),
    ("tjoin", Named::TJoin),
    ("tget", Named::TGet),
    ("tput", Named::TPut),
    ("tid", Named::TId),
    ("plw", Named::Plw),
    ("psw", Named::Psw),
    ("pidx", Named::Pidx),
    ("pmovs", Named::PMovS),
    ("pshift", Named::PShift),
    ("rcount", Named::RCount),
    ("pfirst", Named::PFirst),
    ("rget", Named::RGet),
    ("mov", Named::Mov),
    ("pmov", Named::PMov),
    ("pli", Named::PLi),
    ("not", Named::Not),
    ("pnot", Named::PNot),
];

/// The `gt`/`ge` pseudo-comparisons: operands swapped into `lt`/`le`.
const SWAPPED: [(&str, CmpOp); 4] =
    [("gt", CmpOp::Lt), ("ge", CmpOp::Le), ("gtu", CmpOp::LtU), ("geu", CmpOp::LeU)];

/// Slots of the mnemonic table: a power of two, over twice the number of
/// mnemonics, so a lookup probes one or two slots.
const SLOTS: usize = 512;

/// Every mnemonic with its operand shape, in an open-addressed hash table
/// keyed by [`mnemonic_key`] (key 0, no mnemonic's, marks an empty
/// slot). Built at compile time: looking a mnemonic up allocates and
/// initializes nothing, on a process's first call as on any other.
static MNEMONICS: [(u64, Form); SLOTS] = mnemonic_table();

/// The slot a key's probe starts at (Fibonacci hashing).
const fn slot(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOTS.trailing_zeros())) as usize
}

/// No mnemonic is longer, so its bytes fit one `u64` key.
const MNEMONIC_BYTES: usize = 8;

/// The key of the mnemonic spelled by `parts`: its bytes, first byte
/// most significant. No mnemonic holds a zero byte, so distinct
/// mnemonics have distinct keys.
const fn mnemonic_key(parts: &[&str]) -> u64 {
    let mut key = 0u64;
    let mut len = 0;
    let mut p = 0;
    while p < parts.len() {
        let bytes = parts[p].as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            key = key << 8 | bytes[i] as u64;
            len += 1;
            i += 1;
        }
        p += 1;
    }
    assert!(len <= MNEMONIC_BYTES, "mnemonic too long for its key");
    key
}

/// The mnemonic table under construction, holding `len` mnemonics.
struct Table {
    entries: [(u64, Form); SLOTS],
    len: usize,
}

impl Table {
    /// Add `form` under the mnemonic spelled by `parts`. A key already
    /// present would be one mnemonic with two meanings.
    const fn insert(&mut self, parts: &[&str], form: Form) {
        let key = mnemonic_key(parts);
        let mut s = slot(key);
        while self.entries[s].0 != 0 {
            assert!(self.entries[s].0 != key, "mnemonic defined twice");
            s = (s + 1) % SLOTS;
        }
        self.entries[s] = (key, form);
        self.len += 1;
    }
}

const fn mnemonic_table() -> [(u64, Form); SLOTS] {
    let mut t = Table { entries: [(0, Form::Named(Named::Nop)); SLOTS], len: 0 };
    let mut i = 0;
    while i < AluOp::ALL.len() {
        let (op, m) = (AluOp::ALL[i], AluOp::ALL[i].mnemonic());
        t.insert(&[m], Form::SAlu(op));
        t.insert(&[m, "i"], Form::SAluImm(op));
        t.insert(&["p", m], Form::PAlu(op));
        t.insert(&["p", m, "s"], Form::PAluS(op));
        t.insert(&["p", m, "i"], Form::PAluImm(op));
        i += 1;
    }
    i = 0;
    while i < CmpOp::ALL.len() {
        let (op, m) = (CmpOp::ALL[i], CmpOp::ALL[i].mnemonic());
        t.insert(&["c", m], Form::SCmp(op));
        t.insert(&["c", m, "i"], Form::SCmpImm(op));
        t.insert(&["pc", m], Form::PCmp(op));
        t.insert(&["pc", m, "s"], Form::PCmpS(op));
        t.insert(&["pc", m, "i"], Form::PCmpImm(op));
        i += 1;
    }
    i = 0;
    while i < SWAPPED.len() {
        let (m, op) = SWAPPED[i];
        t.insert(&["c", m], Form::SCmpSwapped(op));
        t.insert(&["pc", m], Form::PCmpSwapped(op));
        i += 1;
    }
    i = 0;
    while i < FlagOp::ALL.len() {
        let (op, m) = (FlagOp::ALL[i], FlagOp::ALL[i].mnemonic());
        t.insert(&[m], Form::SFlag(op));
        t.insert(&["p", m], Form::PFlag(op));
        i += 1;
    }
    i = 0;
    while i < ReduceOp::ALL.len() {
        t.insert(&[ReduceOp::ALL[i].mnemonic()], Form::Reduce(ReduceOp::ALL[i]));
        i += 1;
    }
    i = 0;
    while i < FlagReduceOp::ALL.len() {
        t.insert(&[FlagReduceOp::ALL[i].mnemonic()], Form::RFlag(FlagReduceOp::ALL[i]));
        i += 1;
    }
    i = 0;
    while i < NAMED.len() {
        let (m, named) = NAMED[i];
        t.insert(&[m], Form::Named(named));
        i += 1;
    }
    assert!(2 * t.len < SLOTS, "the mnemonic table is too full");
    t.entries
}

/// The operand shape of `mnemonic`, in any letter case.
fn lookup_mnemonic(mnemonic: &str) -> Option<Form> {
    if mnemonic.is_empty() || mnemonic.len() > MNEMONIC_BYTES {
        return None;
    }
    let key = mnemonic.bytes().fold(0u64, |k, b| k << 8 | b.to_ascii_lowercase() as u64);
    let mut s = slot(key);
    loop {
        match MNEMONICS[s] {
            (k, form) if k == key => return Some(form),
            (0, _) => return None,
            _ => s = (s + 1) % SLOTS,
        }
    }
}

/// Parse the operands of one instruction. `addr` is the instruction's own
/// address (for branch offsets).
fn parse_instr(mnemonic: &str, c: &mut Cursor<'_>, addr: i64) -> Option<Instr> {
    let form = match lookup_mnemonic(mnemonic) {
        Some(f) => f,
        None => {
            c.err(AsmErrorKind::UnknownMnemonic(mnemonic.to_string()));
            return None;
        }
    };
    let i = match form {
        Form::SAlu(op) => {
            let rd = c.sreg();
            c.comma();
            let ra = c.sreg();
            c.comma();
            let rb = c.sreg();
            Instr::SAlu { op, rd, ra, rb }
        }
        Form::SAluImm(op) => {
            let rd = c.sreg();
            c.comma();
            let ra = c.sreg();
            c.comma();
            let imm = c.imm16();
            Instr::SAluImm { op, rd, ra, imm }
        }
        Form::SCmp(op) => {
            let fd = c.sflag();
            c.comma();
            let ra = c.sreg();
            c.comma();
            let rb = c.sreg();
            Instr::SCmp { op, fd, ra, rb }
        }
        Form::SCmpSwapped(op) => {
            let fd = c.sflag();
            c.comma();
            let ra = c.sreg();
            c.comma();
            let rb = c.sreg();
            Instr::SCmp { op, fd, ra: rb, rb: ra }
        }
        Form::SCmpImm(op) => {
            let fd = c.sflag();
            c.comma();
            let ra = c.sreg();
            c.comma();
            let imm = c.imm16();
            Instr::SCmpImm { op, fd, ra, imm }
        }
        Form::SFlag(op) => {
            let fd = c.sflag();
            let mut fa = SFlag::R0;
            let mut fb = SFlag::R0;
            if op.arity() >= 1 {
                c.comma();
                fa = c.sflag();
            }
            if op.arity() >= 2 {
                c.comma();
                fb = c.sflag();
            }
            Instr::SFlagOp { op, fd, fa, fb }
        }
        Form::PAlu(op) => {
            let pd = c.preg();
            c.comma();
            let pa = c.preg();
            c.comma();
            let pb = c.preg();
            let mask = c.mask();
            Instr::PAlu { op, pd, pa, pb, mask }
        }
        Form::PAluS(op) => {
            let pd = c.preg();
            c.comma();
            let pa = c.preg();
            c.comma();
            let sb = c.sreg();
            let mask = c.mask();
            Instr::PAluS { op, pd, pa, sb, mask }
        }
        Form::PAluImm(op) => {
            let pd = c.preg();
            c.comma();
            let pa = c.preg();
            c.comma();
            let imm = c.imm8();
            let mask = c.mask();
            Instr::PAluImm { op, pd, pa, imm, mask }
        }
        Form::PCmp(op) => {
            let fd = c.pflag();
            c.comma();
            let pa = c.preg();
            c.comma();
            let pb = c.preg();
            let mask = c.mask();
            Instr::PCmp { op, fd, pa, pb, mask }
        }
        Form::PCmpSwapped(op) => {
            let fd = c.pflag();
            c.comma();
            let pa = c.preg();
            c.comma();
            let pb = c.preg();
            let mask = c.mask();
            Instr::PCmp { op, fd, pa: pb, pb: pa, mask }
        }
        Form::PCmpS(op) => {
            let fd = c.pflag();
            c.comma();
            let pa = c.preg();
            c.comma();
            let sb = c.sreg();
            let mask = c.mask();
            Instr::PCmpS { op, fd, pa, sb, mask }
        }
        Form::PCmpImm(op) => {
            let fd = c.pflag();
            c.comma();
            let pa = c.preg();
            c.comma();
            let imm = c.imm8();
            let mask = c.mask();
            Instr::PCmpImm { op, fd, pa, imm, mask }
        }
        Form::PFlag(op) => {
            let fd = c.pflag();
            let mut fa = PFlag::R0;
            let mut fb = PFlag::R0;
            if op.arity() >= 1 {
                c.comma();
                fa = c.pflag();
            }
            if op.arity() >= 2 {
                c.comma();
                fb = c.pflag();
            }
            let mask = c.mask();
            Instr::PFlagOp { op, fd, fa, fb, mask }
        }
        Form::Reduce(op) => {
            let sd = c.sreg();
            c.comma();
            let pa = c.preg();
            let mask = c.mask();
            Instr::Reduce { op, sd, pa, mask }
        }
        Form::RFlag(op) => {
            let fd = c.sflag();
            c.comma();
            let fa = c.pflag();
            let mask = c.mask();
            Instr::RFlag { op, fd, fa, mask }
        }
        Form::Named(name) => parse_named(name, c, addr),
    };
    Some(i)
}

fn parse_named(name: Named, c: &mut Cursor<'_>, addr: i64) -> Instr {
    match name {
        Named::Nop => Instr::Nop,
        Named::Halt => Instr::Halt,
        Named::Lw => {
            let rd = c.sreg();
            c.comma();
            let (off, base) = c.mem_s();
            Instr::Lw { rd, base, off }
        }
        Named::Sw => {
            let rs = c.sreg();
            c.comma();
            let (off, base) = c.mem_s();
            Instr::Sw { rs, base, off }
        }
        Named::Li => {
            let rd = c.sreg();
            c.comma();
            let imm = c.imm16();
            Instr::Li { rd, imm }
        }
        Named::Lui => {
            let rd = c.sreg();
            c.comma();
            let imm = c.imm("immediate", 0, 0xffff) as u16;
            Instr::Lui { rd, imm }
        }
        Named::Bt => {
            let fa = c.sflag();
            c.comma();
            let off = c.branch_off(addr);
            Instr::Bt { fa, off }
        }
        Named::Bf => {
            let fa = c.sflag();
            c.comma();
            let off = c.branch_off(addr);
            Instr::Bf { fa, off }
        }
        Named::J => Instr::J { target: c.jump_target(0x00ff_ffff) },
        Named::Jal => {
            let rd = c.sreg();
            c.comma();
            Instr::Jal { rd, target: c.jump_target(0x000f_ffff) }
        }
        Named::Jr => Instr::Jr { ra: c.sreg() },
        Named::TSpawn => {
            let rd = c.sreg();
            c.comma();
            let ra = c.sreg();
            Instr::TSpawn { rd, ra }
        }
        Named::TExit => Instr::TExit,
        Named::TJoin => Instr::TJoin { ra: c.sreg() },
        Named::TGet => {
            let rd = c.sreg();
            c.comma();
            let ta = c.sreg();
            c.comma();
            let src = c.sreg();
            Instr::TGet { rd, ta, src }
        }
        Named::TPut => {
            let ta = c.sreg();
            c.comma();
            let dst = c.sreg();
            c.comma();
            let rb = c.sreg();
            Instr::TPut { ta, dst, rb }
        }
        Named::TId => Instr::TId { rd: c.sreg() },
        Named::Plw => {
            let pd = c.preg();
            c.comma();
            let (off, base) = c.mem_p();
            let mask = c.mask();
            Instr::Plw { pd, base, off, mask }
        }
        Named::Psw => {
            let ps = c.preg();
            c.comma();
            let (off, base) = c.mem_p();
            let mask = c.mask();
            Instr::Psw { ps, base, off, mask }
        }
        Named::Pidx => {
            let pd = c.preg();
            let mask = c.mask();
            Instr::Pidx { pd, mask }
        }
        Named::PMovS => {
            let pd = c.preg();
            c.comma();
            let sa = c.sreg();
            let mask = c.mask();
            Instr::PMovS { pd, sa, mask }
        }
        Named::PShift => {
            let pd = c.preg();
            c.comma();
            let pa = c.preg();
            c.comma();
            let dist = c.imm8();
            let mask = c.mask();
            Instr::PShift { pd, pa, dist, mask }
        }
        Named::RCount => {
            let sd = c.sreg();
            c.comma();
            let fa = c.pflag();
            let mask = c.mask();
            Instr::RCount { sd, fa, mask }
        }
        Named::PFirst => {
            let fd = c.pflag();
            c.comma();
            let fa = c.pflag();
            let mask = c.mask();
            Instr::PFirst { fd, fa, mask }
        }
        Named::RGet => {
            let sd = c.sreg();
            c.comma();
            let pa = c.preg();
            c.comma();
            let fa = c.pflag();
            let mask = c.mask();
            Instr::RGet { sd, pa, fa, mask }
        }
        // ---- pseudo-instructions (each expands to one word) ----
        Named::Mov => {
            let rd = c.sreg();
            c.comma();
            let ra = c.sreg();
            Instr::SAlu { op: AluOp::Add, rd, ra, rb: SReg::R0 }
        }
        Named::Not => {
            let rd = c.sreg();
            c.comma();
            let ra = c.sreg();
            Instr::SAlu { op: AluOp::Nor, rd, ra, rb: SReg::R0 }
        }
        Named::PMov => {
            let pd = c.preg();
            c.comma();
            let pa = c.preg();
            let mask = c.mask();
            Instr::PAlu { op: AluOp::Add, pd, pa, pb: PReg::R0, mask }
        }
        Named::PNot => {
            let pd = c.preg();
            c.comma();
            let pa = c.preg();
            let mask = c.mask();
            Instr::PAlu { op: AluOp::Nor, pd, pa, pb: PReg::R0, mask }
        }
        Named::PLi => {
            let pd = c.preg();
            c.comma();
            let imm = c.imm8();
            let mask = c.mask();
            Instr::PAluImm { op: AluOp::Add, pd, pa: PReg::R0, imm, mask }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mnemonic_is_in_the_table_once_in_any_case() {
        let mut names: Vec<String> = Vec::new();
        for m in AluOp::ALL.iter().map(|op| op.mnemonic()) {
            names.extend([m.into(), format!("{m}i"), format!("p{m}"), format!("p{m}s")]);
            names.push(format!("p{m}i"));
        }
        for m in CmpOp::ALL.iter().map(|op| op.mnemonic()) {
            names.extend([format!("c{m}"), format!("c{m}i"), format!("pc{m}"), format!("pc{m}s")]);
            names.push(format!("pc{m}i"));
        }
        for (m, _) in SWAPPED {
            names.extend([format!("c{m}"), format!("pc{m}")]);
        }
        for m in FlagOp::ALL.iter().map(|op| op.mnemonic()) {
            names.extend([m.into(), format!("p{m}")]);
        }
        names.extend(ReduceOp::ALL.iter().map(|op| op.mnemonic().into()));
        names.extend(FlagReduceOp::ALL.iter().map(|op| op.mnemonic().into()));
        names.extend(NAMED.iter().map(|&(m, _)| m.into()));
        assert_eq!(MNEMONICS.iter().filter(|(key, _)| *key != 0).count(), names.len());
        for name in &names {
            assert!(lookup_mnemonic(name).is_some(), "{name}");
            assert!(lookup_mnemonic(&name.to_uppercase()).is_some(), "{name}");
        }
        for miss in ["", "p", "c", "addd", "paddss", "mnemonics"] {
            assert!(lookup_mnemonic(miss).is_none(), "{miss}");
        }
    }
}

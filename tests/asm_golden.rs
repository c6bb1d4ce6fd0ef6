//! Assembler golden: for every program the project ships (the kernel
//! corpus, `examples/programs/findmax.asc`, the assembly that ASCL lowers
//! `examples/programs/grade_curve.ascl` to), for seeded disassemblies of
//! random instruction programs, and for one malformed source per
//! diagnostic, the assembler's output must be exactly the text recorded
//! in `tests/fixtures/asm/golden.txt`.
//!
//! A program that assembles records its machine words, the source line
//! and span of every instruction, and its symbol table in name order. A
//! source that fails records each error's position, byte length and
//! message, and the caret excerpt `render_errors_with_source` prints. The
//! malformed sources cover every [`AsmErrorKind`], every "expected ...,
//! found ..." branch of the operand parsers, the `.equ` directive's
//! errors, out-of-range fields, trailing junk and the integer literal
//! forms. They are ASCII: non-ASCII diagnostics are pinned by the
//! assembler's own unit tests.
//!
//! After an intended change to the assembler's output, regenerate the
//! fixture with `UPDATE_ASM_GOLDEN=1 cargo test --test asm_golden` and
//! review the diff.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use asc::asm::{assemble, disassemble, render_errors_with_source, AsmError, AsmErrorKind};
use asc::isa::gen::random_instr;
use asc::kernels::harness;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/asm/golden.txt")
}

fn example(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// Programs that assemble: `(name, source)`.
fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        harness::corpus().into_iter().map(|(name, src)| (format!("corpus/{name}"), src)).collect();
    out.push(("examples/findmax.asc".into(), example("findmax.asc")));
    let lowered = asc::lang::compile(&example("grade_curve.ascl")).expect("grade_curve lowers");
    out.push(("examples/grade_curve.ascl (lowered)".into(), lowered));
    for seed in 1..=4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let text: String = (0..64).map(|_| disassemble(&random_instr(&mut rng)) + "\n").collect();
        out.push((format!("random/seed{seed}"), text));
    }
    out
}

/// Sources the assembler rejects (or accepts in an unusual spelling):
/// `(name, source)`, one diagnostic each unless the name says otherwise.
const MALFORMED: &[(&str, &str)] = &[
    // ---- lexer
    ("lex/bad-char", "nop\nadd s1, s2, @\n"),
    ("lex/single-slash", "add s1, s2, s3 / note\n"),
    ("lex/lone-question", "?\n"),
    ("lex/question-shifts-labels", "?\nx: halt\n   j x\n"),
    ("lex/int-0x", "li s1, 0x\n"),
    ("lex/int-1__0", "li s1, 1__0\n"),
    ("lex/int-dash", "li s1, -\n"),
    ("lex/int-bad-hex", "li s1, 0xzz\n"),
    ("lex/int-bad-binary", "li s1, 0b102\n"),
    ("lex/int-trailing-letters", "li s1, 12ab\n"),
    ("lex/int-overflow", "li s1, 99999999999999999999\n"),
    ("lex/int-i64-min", "li s1, -9223372036854775808\n"),
    ("lex/int-forms", "li s1, 0XfF\nli s2, 0B101\nli s3, -0x10\nli s4, 0x_f_f\nli s5, 1_000\n"),
    ("lex/only-lexical-errors-reported", "bogus s1\nli s1, 0x\nadd s1, s2, @ ; and $\n"),
    // ---- .equ and labels (pass 1)
    ("equ/no-name", ".equ\n"),
    ("equ/number-as-name", ".equ 5, 6\n"),
    ("equ/no-value", ".equ N,\n"),
    ("equ/bad-value", ".equ N, (\n"),
    ("equ/undefined-value", ".equ N, M\n"),
    ("equ/forward-reference", ".equ N, later\nlater: nop\n"),
    ("equ/duplicate", ".equ N, 1\n.equ N, 2\n"),
    ("equ/duplicates-label", "N: nop\n.equ N, 2\n"),
    ("equ/upper-case", ".EQU N, 5\n.Equ M N\n        li s1, N\n        li s2, M\n"),
    ("equ/trailing-tokens", ".equ N, 5 junk\n        li s1, N\n"),
    ("equ/after-label", "x: .equ N, 3\n        li s1, N\n        li s2, x\n"),
    ("directive/unknown-mixed-case", "        .Word 5\n"),
    ("directive/bare-dot", ".\n"),
    ("directive/after-label", "x: .Foo 1\n"),
    ("label/duplicate", "a: nop\na: nop\n"),
    ("label/stacked", "a:\nb: c: halt\n        j a\n        j c\n"),
    ("label/undefined", "j nowhere\n"),
    // ---- mnemonics
    ("mnemonic/unknown", "nop\n        addd s1, s2, s3\n"),
    ("mnemonic/unknown-mixed-case", "FrobNicate s1, s2\n"),
    (
        "mnemonic/mixed-case",
        "ADD s1, s2, s3\nHaLt\nPAddS p1, p2, s3 ?pf1\nRMaxU s1, p2\nPFandN pf1, pf2, pf3\n",
    ),
    ("mnemonic/number-first", "5 nop\n"),
    // ---- comma
    ("comma/found-ident", "add s1 s2, s3\n"),
    ("comma/found-int", "add s1 -5\n"),
    ("comma/found-colon", "add s1: s2\n"),
    ("comma/found-lparen", "add s1 (\n"),
    ("comma/found-rparen", "add s1 )\n"),
    ("comma/found-question", "add s1 ?\n"),
    ("comma/found-directive", "add s1 .Foo\n"),
    ("comma/end-of-line", "add s1\n"),
    // ---- registers
    ("sreg/found-int", "add 0xff, s2, s3\n"),
    ("sreg/found-comma", "add , s2, s3\n"),
    ("sreg/found-directive", "add .FOO, s1, s2\n"),
    ("sreg/end-of-line", "add s1, s2,\n"),
    ("sreg/index-16", "add s1, s2, s16\n"),
    ("sreg/upper-case", "add s1, s2, S3\n"),
    ("sreg/other-file", "add s1, p2, s3\n"),
    ("sreg/leading-zero", "add s01, s002, s3\n"),
    ("preg/found-int", "padd p1, 4, p3\n"),
    ("preg/end-of-line", "padd p1, p2,\n"),
    ("preg/flag-name", "padd p1, pf3, p2\n"),
    ("preg/index-16", "padd p1, p2, p16\n"),
    ("preg/scalar-name", "padd p1, s2, p3\n"),
    ("sflag/found-int", "ceq 1, s1, s2\n"),
    ("sflag/end-of-line", "ceq\n"),
    ("sflag/parallel-flag-name", "fand f1, pf3, f2\n"),
    ("sflag/index-8", "fand f8, f1, f2\n"),
    ("sflag/missing-operand", "fnot f1\n"),
    ("pflag/found-lparen", "pceq ( p1, p2\n"),
    ("pflag/end-of-line", "pceq\n"),
    ("pflag/index-8", "pfand pf1, pf8, pf2\n"),
    ("pflag/scalar-flag-name", "pfand pf1, f2, pf3\n"),
    // ---- immediates and targets
    ("imm/found-comma", "li s1, ,\n"),
    ("imm/end-of-line", "li s1,\n"),
    ("imm/undefined", "li s1, nowhere\n"),
    ("imm/too-large", "li s1, 100000\n"),
    ("imm/too-small", "li s1, -32769\n"),
    ("imm/unsigned-pattern", "li s1, 0xffff\nli s2, -32768\n"),
    ("imm/imm8-too-large", "paddi p1, p2, 300\n"),
    ("imm/imm8-too-small", "pclti pf1, p2, -129\n"),
    ("imm/lui-negative", "lui s1, -1\n"),
    ("imm/lui-too-large", "lui s1, 65536\n"),
    ("jump/negative", "j -1\n"),
    ("jump/too-large", "j 16777216\n"),
    ("jump/jal-too-large", "jal s1, 1048576\n"),
    ("jump/found-rparen", "j )\n"),
    ("jump/end-of-line", "j\n"),
    ("branch/found-comma", "bt f1, ,\n"),
    ("branch/end-of-line", "bf f1,\n"),
    ("branch/undefined", "bt f1, nowhere\n"),
    ("branch/too-far", "bt f1, 40000\n"),
    ("branch/too-far-back", "bf f1, -32769\n"),
    // ---- memory operands
    ("mem_s/offset-found-lparen", "lw s1, (s2)\n"),
    ("mem_s/offset-end-of-line", "sw s1,\n"),
    ("mem_s/offset-too-large", "lw s1, 70000(s2)\n"),
    ("mem_s/expected-lparen", "lw s1, 4 s2)\n"),
    ("mem_s/lparen-end-of-line", "lw s1, 4\n"),
    ("mem_s/base-parallel", "lw s1, 4(p2)\n"),
    ("mem_s/expected-rparen", "sw s1, 4(s2 s3\n"),
    ("mem_s/rparen-end-of-line", "lw s1, 4(s2\n"),
    ("mem_p/offset-found-lparen", "plw p1, (p2)\n"),
    ("mem_p/offset-too-large", "plw p1, 300(p2)\n"),
    ("mem_p/expected-lparen", "psw p1, 4 ?pf1\n"),
    ("mem_p/base-scalar", "plw p1, 4(s2)\n"),
    ("mem_p/base-flag", "psw p1, 4(pf2)\n"),
    ("mem_p/rparen-end-of-line", "psw p1, 4(p2\n"),
    // ---- masks and trailing junk
    ("mask/end-of-line", "padd p1, p2, p3 ?\n"),
    ("mask/parallel-register", "padd p1, p2, p3 ?p1\n"),
    ("mask/index-8", "rsum s1, p2 ?pf8\n"),
    ("trailing/second-mnemonic", "nop nop\n"),
    ("trailing/operand", "halt 5\n"),
    ("trailing/extra-register", "add s1, s2, s3, s4\n"),
    ("trailing/mask-on-scalar", "add s1, s2, s3 ?pf1\n"),
    ("trailing/rparen", "j 5 )\n"),
    // ---- several errors, layout
    ("multi/collected", "bogus1\nnop\nbogus2 s1\nli s1, 999999\n"),
    ("multi/one-line", "add s1 s2 s3\n"),
    ("layout/tabs-and-crlf", "\tadd\ts1,\ts2,\ts3\r\n\tbogus\tx\r\n"),
    ("layout/comments", "; one\n# two\n// three\nnop ; four\nhalt # five\n"),
    ("layout/empty", ""),
];

fn record_errors(out: &mut String, src: &str, errors: &[AsmError]) {
    out.push_str("errors:\n");
    for e in errors {
        let _ = writeln!(out, "  {e} (len {})", e.len);
    }
    out.push_str("render:\n");
    out.push_str(&render_errors_with_source(src, errors));
}

/// The block of the fixture that one source produces.
fn record(name: &str, src: &str, show_source: bool) -> String {
    let mut out = format!("== {name}\n");
    if show_source {
        let _ = writeln!(out, "source: {src:?}");
    }
    match assemble(src) {
        Ok(p) => {
            out.push_str("words:");
            for (i, w) in p.words().iter().enumerate() {
                out.push_str(if i % 8 == 0 { "\n " } else { "" });
                let _ = write!(out, " {w:08x}");
            }
            out.push_str("\nlines:");
            for l in &p.lines {
                let _ = write!(out, " {l}");
            }
            out.push_str("\nspans:");
            for s in &p.spans {
                let _ = write!(out, " {}:{}+{}", s.line, s.col, s.len);
            }
            let mut symbols: Vec<(&String, &i64)> = p.symbols.iter().collect();
            symbols.sort();
            out.push_str("\nsymbols:");
            for (name, v) in symbols {
                let _ = write!(out, " {name}={v}");
            }
            out.push('\n');
        }
        Err(errors) => record_errors(&mut out, src, &errors),
    }
    out
}

fn render_all() -> String {
    let mut out = String::new();
    for (name, src) in programs() {
        out.push_str(&record(&name, &src, false));
    }
    for (name, src) in MALFORMED {
        out.push_str(&record(name, src, true));
    }
    out
}

/// The name of the first block on which two renderings differ, with the
/// first differing line of each.
fn first_difference(want: &str, got: &str) -> String {
    let mut block = "(start)";
    for (w, g) in want.lines().zip(got.lines()) {
        if let Some(name) = w.strip_prefix("== ") {
            block = name;
        }
        if w != g {
            return format!("in `{block}`:\n  want: {w}\n  got:  {g}");
        }
    }
    format!("lengths differ: {} vs {} lines", want.lines().count(), got.lines().count())
}

#[test]
fn assembler_output_matches_the_golden() {
    let got = render_all();
    let path = golden_path();
    if std::env::var("UPDATE_ASM_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &got).unwrap();
        return;
    }
    let want = fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {path:?}; run with UPDATE_ASM_GOLDEN=1"));
    assert!(
        want == got,
        "assembler output diverged from {path:?} {}; regenerate with UPDATE_ASM_GOLDEN=1 only \
         after an intended change",
        first_difference(&want, &got)
    );
}

/// Every kind of diagnostic shows up in the malformed sources; a new
/// [`AsmErrorKind`] variant fails to compile here until it is listed.
#[test]
fn malformed_sources_cover_every_error_kind() {
    let mut seen = [false; 7];
    for (name, src) in MALFORMED {
        for e in assemble(src).err().unwrap_or_default() {
            let i = match e.kind {
                AsmErrorKind::BadChar(_) => 0,
                AsmErrorKind::BadInt(_) => 1,
                AsmErrorKind::UnknownMnemonic(_) => 2,
                AsmErrorKind::BadOperands(_) => 3,
                AsmErrorKind::UndefinedSymbol(_) => 4,
                AsmErrorKind::DuplicateSymbol(_) => 5,
                AsmErrorKind::OutOfRange { .. } => 6,
            };
            seen[i] = true;
            assert!(e.line > 0 && e.col > 0, "{name}: {e} has no position");
        }
    }
    assert_eq!(seen, [true; 7], "some AsmErrorKind has no malformed source");
}

//! Assembler tests: end-to-end assembly, symbol handling, and error
//! reporting. The disassembler round-trip properties live in
//! `proptests.rs` behind the `proptest` feature.

use asc_isa::{AluOp, CmpOp, Instr, Mask, PFlag, PReg, ReduceOp, SFlag, SReg};

use crate::assemble;
use crate::error::AsmErrorKind;

fn s(i: u8) -> SReg {
    SReg::from_index(i)
}
fn p(i: u8) -> PReg {
    PReg::from_index(i)
}
fn sf(i: u8) -> SFlag {
    SFlag::from_index(i)
}
fn pf(i: u8) -> PFlag {
    PFlag::from_index(i)
}

#[test]
fn assemble_basic_program() {
    let prog = assemble(
        "; compute something\n\
         start:  li      s1, 10\n\
                 addi    s2, s1, -3\n\
                 halt\n",
    )
    .unwrap();
    assert_eq!(
        prog.instrs,
        vec![
            Instr::Li { rd: s(1), imm: 10 },
            Instr::SAluImm { op: AluOp::Add, rd: s(2), ra: s(1), imm: -3 },
            Instr::Halt,
        ]
    );
    assert_eq!(prog.label("start"), Some(0));
    assert_eq!(prog.lines, vec![2, 3, 4]);
}

#[test]
fn forward_and_backward_branches() {
    let prog = assemble(
        "loop:   bt f1, done\n\
                 j loop\n\
         done:   halt\n",
    )
    .unwrap();
    // bt at addr 0, done at addr 2 → offset = 2 - (0+1) = 1
    assert_eq!(prog.instrs[0], Instr::Bt { fa: sf(1), off: 1 });
    assert_eq!(prog.instrs[1], Instr::J { target: 0 });
}

#[test]
fn equ_constants_and_label_as_immediate() {
    let prog = assemble(
        ".equ N, 16\n\
         .equ N2, N\n\
                 li s1, N\n\
                 li s2, N2\n\
         tgt:    li s3, tgt\n",
    )
    .unwrap();
    assert_eq!(prog.instrs[0], Instr::Li { rd: s(1), imm: 16 });
    assert_eq!(prog.instrs[1], Instr::Li { rd: s(2), imm: 16 });
    assert_eq!(prog.instrs[2], Instr::Li { rd: s(3), imm: 2 });
}

#[test]
fn parallel_with_mask_and_memory() {
    let prog = assemble(
        "        pidx  p1\n\
                 plw   p2, 4(p1) ?pf3\n\
                 padds p3, p2, s1 ?pf0\n\
                 psw   p3, -1(p1)\n",
    )
    .unwrap();
    assert_eq!(prog.instrs[0], Instr::Pidx { pd: p(1), mask: Mask::All });
    assert_eq!(
        prog.instrs[1],
        Instr::Plw { pd: p(2), base: p(1), off: 4, mask: Mask::Flag(pf(3)) }
    );
    assert_eq!(
        prog.instrs[2],
        Instr::PAluS { op: AluOp::Add, pd: p(3), pa: p(2), sb: s(1), mask: Mask::Flag(pf(0)) }
    );
    assert_eq!(prog.instrs[3], Instr::Psw { ps: p(3), base: p(1), off: -1, mask: Mask::All });
}

#[test]
fn reductions() {
    let prog = assemble(
        "        rmax   s1, p2\n\
                 rsum   s2, p3 ?pf1\n\
                 rcount s3, pf2\n\
                 rany   f1, pf2\n\
                 rall   f2, pf2 ?pf5\n\
                 pfirst pf4, pf2\n\
                 rget   s4, p1, pf4\n",
    )
    .unwrap();
    assert_eq!(
        prog.instrs[0],
        Instr::Reduce { op: ReduceOp::Max, sd: s(1), pa: p(2), mask: Mask::All }
    );
    assert_eq!(
        prog.instrs[1],
        Instr::Reduce { op: ReduceOp::Sum, sd: s(2), pa: p(3), mask: Mask::Flag(pf(1)) }
    );
    assert_eq!(prog.instrs[2], Instr::RCount { sd: s(3), fa: pf(2), mask: Mask::All });
    assert_eq!(prog.instrs[6], Instr::RGet { sd: s(4), pa: p(1), fa: pf(4), mask: Mask::All });
}

#[test]
fn pseudo_instructions() {
    let prog = assemble(
        "        mov  s1, s2\n\
                 not  s3, s4\n\
                 pmov p1, p2 ?pf1\n\
                 pli  p3, 7\n\
                 cgt  f1, s1, s2\n\
                 pcge pf1, p1, p2\n\
                 b    0\n",
    )
    .unwrap();
    assert_eq!(prog.instrs[0], Instr::SAlu { op: AluOp::Add, rd: s(1), ra: s(2), rb: s(0) });
    assert_eq!(prog.instrs[1], Instr::SAlu { op: AluOp::Nor, rd: s(3), ra: s(4), rb: s(0) });
    assert_eq!(
        prog.instrs[2],
        Instr::PAlu { op: AluOp::Add, pd: p(1), pa: p(2), pb: p(0), mask: Mask::Flag(pf(1)) }
    );
    assert_eq!(
        prog.instrs[3],
        Instr::PAluImm { op: AluOp::Add, pd: p(3), pa: p(0), imm: 7, mask: Mask::All }
    );
    // cgt f1, s1, s2  ==  clt f1, s2, s1
    assert_eq!(prog.instrs[4], Instr::SCmp { op: CmpOp::Lt, fd: sf(1), ra: s(2), rb: s(1) });
    assert_eq!(
        prog.instrs[5],
        Instr::PCmp { op: CmpOp::Le, fd: pf(1), pa: p(2), pb: p(1), mask: Mask::All }
    );
    assert_eq!(prog.instrs[6], Instr::J { target: 0 });
}

#[test]
fn thread_instructions() {
    let prog = assemble(
        "        li s1, worker\n\
                 tspawn s2, s1\n\
                 tjoin s2\n\
                 tget s3, s2, s7\n\
                 tput s2, s7, s3\n\
                 tid s4\n\
                 texit\n\
         worker: texit\n",
    )
    .unwrap();
    assert_eq!(prog.instrs[1], Instr::TSpawn { rd: s(2), ra: s(1) });
    assert_eq!(prog.instrs[3], Instr::TGet { rd: s(3), ta: s(2), src: s(7) });
    assert_eq!(prog.label("worker"), Some(7));
}

#[test]
fn error_unknown_mnemonic() {
    let errs = assemble("frobnicate s1, s2\n").unwrap_err();
    assert!(matches!(errs[0].kind, AsmErrorKind::UnknownMnemonic(_)));
    assert_eq!(errs[0].line, 1);
}

#[test]
fn error_undefined_symbol() {
    let errs = assemble("j nowhere\n").unwrap_err();
    assert!(matches!(errs[0].kind, AsmErrorKind::UndefinedSymbol(_)));
}

#[test]
fn error_duplicate_label() {
    let errs = assemble("a: nop\na: nop\n").unwrap_err();
    assert!(matches!(errs[0].kind, AsmErrorKind::DuplicateSymbol(_)));
    assert_eq!(errs[0].line, 2);
}

#[test]
fn error_out_of_range_immediate() {
    let errs = assemble("li s1, 100000\n").unwrap_err();
    assert!(matches!(errs[0].kind, AsmErrorKind::OutOfRange { .. }));
    let errs = assemble("paddi p1, p2, 300\n").unwrap_err();
    assert!(matches!(errs[0].kind, AsmErrorKind::OutOfRange { .. }));
}

#[test]
fn error_wrong_register_file() {
    // parallel instruction with scalar register operand
    let errs = assemble("padd p1, s2, p3\n").unwrap_err();
    assert!(matches!(errs[0].kind, AsmErrorKind::BadOperands(_)));
    // pf register where p register expected
    let errs = assemble("padd p1, pf2, p3\n").unwrap_err();
    assert!(matches!(errs[0].kind, AsmErrorKind::BadOperands(_)));
    // out-of-range register index
    let errs = assemble("add s1, s2, s16\n").unwrap_err();
    assert!(matches!(errs[0].kind, AsmErrorKind::BadOperands(_)));
}

#[test]
fn multiple_errors_collected() {
    let errs = assemble("bogus1\nnop\nbogus2 s1\nli s1, 999999\n").unwrap_err();
    assert_eq!(errs.len(), 3);
    assert_eq!(errs[0].line, 1);
    assert_eq!(errs[1].line, 3);
    assert_eq!(errs[2].line, 4);
}

#[test]
fn trailing_junk_rejected() {
    let errs = assemble("nop nop\n").unwrap_err();
    assert!(matches!(errs[0].kind, AsmErrorKind::BadOperands(_)));
}

#[test]
fn empty_and_comment_only_source() {
    assert!(assemble("").unwrap().is_empty());
    assert!(assemble("; nothing here\n\n  # or here\n").unwrap().is_empty());
}

#[test]
fn case_insensitive_mnemonics() {
    let prog = assemble("ADD s1, s2, s3\nHalt\n").unwrap();
    assert_eq!(prog.instrs[0], Instr::SAlu { op: AluOp::Add, rd: s(1), ra: s(2), rb: s(3) });
    assert_eq!(prog.instrs[1], Instr::Halt);
}

#[test]
fn words_encode_correctly() {
    let prog = assemble("nop\nhalt\n").unwrap();
    let words = prog.words();
    assert_eq!(words[0], 0x00_000000);
    assert_eq!(words[1], 0x01_000000);
}

#[test]
fn errors_carry_column_spans() {
    // `addd` starts at byte 8 → column 9, length 4.
    let errs = assemble("nop\n        addd s1, s2, s3\n").unwrap_err();
    assert_eq!(errs.len(), 1);
    assert_eq!((errs[0].line, errs[0].col, errs[0].len), (2, 9, 4));
    assert!(matches!(errs[0].kind, AsmErrorKind::UnknownMnemonic(_)));
    assert_eq!(errs[0].to_string(), "line 2:9: unknown mnemonic `addd`");

    // The out-of-range literal itself is the span.
    let errs = assemble("li s1, 99999\n").unwrap_err();
    assert_eq!((errs[0].line, errs[0].col, errs[0].len), (1, 8, 5));
}

#[test]
fn caret_excerpt_points_at_the_token() {
    let src = "nop\n        addd s1, s2, s3\n";
    let errs = assemble(src).unwrap_err();
    let text = crate::render_errors_with_source(src, &errs);
    assert_eq!(
        text,
        "error: unknown mnemonic `addd`\n\
         \x20 |\n\
         2 |         addd s1, s2, s3\n\
         \x20 |         ^^^^\n"
    );
}

#[test]
fn program_spans_cover_every_instruction() {
    let src = "start:  li s1, 10\n\
               \n\
               \taddi s2, s1, -3\n\
               halt\n";
    let prog = assemble(src).unwrap();
    assert_eq!(prog.spans.len(), prog.instrs.len());
    assert_eq!(prog.spans[0], crate::SrcSpan { line: 1, col: 9, len: 2 });
    assert_eq!(prog.spans[1], crate::SrcSpan { line: 3, col: 2, len: 4 });
    assert_eq!(prog.spans[2], crate::SrcSpan { line: 4, col: 1, len: 4 });
}

#[test]
fn non_ascii_character_is_one_error_with_its_caret() {
    // '€' is three bytes: one error spanning them, one caret under it
    let src = "add s1, s2, €\n";
    let errs = assemble(src).unwrap_err();
    assert_eq!(errs.len(), 1);
    assert_eq!((errs[0].line, errs[0].col, errs[0].len), (1, 13, 3));
    assert_eq!(errs[0].kind, AsmErrorKind::BadChar('€'));
    assert_eq!(
        crate::render_errors_with_source(src, &errs),
        "error: unexpected character '€'\n\
         \x20 |\n\
         1 | add s1, s2, €\n\
         \x20 |             ^\n"
    );
}

#[test]
fn four_byte_character_is_one_error() {
    let src = "nop\nli s1, 𝄞 ; clef\n";
    let errs = assemble(src).unwrap_err();
    assert_eq!(errs.len(), 1);
    assert_eq!((errs[0].line, errs[0].col, errs[0].len), (2, 8, 4));
    assert_eq!(errs[0].kind, AsmErrorKind::BadChar('𝄞'));
    assert!(crate::render_errors_with_source(src, &errs)
        .ends_with("2 | li s1, 𝄞 ; clef\n  |        ^\n"));
}

#[test]
fn non_ascii_label_points_at_its_character() {
    let src = "café: nop\n";
    let errs = assemble(src).unwrap_err();
    assert_eq!(errs.len(), 1);
    assert_eq!((errs[0].col, errs[0].len), (4, 2));
    assert_eq!(errs[0].kind, AsmErrorKind::BadChar('é'));
    assert!(crate::render_errors_with_source(src, &errs).ends_with("1 | café: nop\n  |    ^\n"));
    // a character after another one is padded by characters too
    let src = "li s1, é, €\n";
    let errs = assemble(src).unwrap_err();
    assert_eq!(errs.iter().map(|e| (e.col, e.len)).collect::<Vec<_>>(), [(8, 2), (12, 3)]);
    let text = crate::render_errors_with_source(src, &errs);
    assert!(text.ends_with("1 | li s1, é, €\n  |           ^\n"), "{text}");
}

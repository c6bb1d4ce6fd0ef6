//! Performance notes: a symbolic scoreboard walk that predicts where the
//! pipeline will stall (N5001/N5002), and fusion-cut diagnostics that
//! explain every block-fusion boundary (N5003).
//!
//! The stall prediction uses the machine's own [`asc_core::Timing`]
//! produce/consume offsets, so a predicted stall length is exactly what
//! the cycle-accurate simulator charges for the same back-to-back pair —
//! the same numbers `mtasc stall-summary` reports after the fact, but
//! available before running anything. Notes never affect the lint exit
//! status; they exist to explain *why* a program underperforms and where
//! the paper's multithreading would win it back.

use std::collections::HashMap;

use asc_core::config::{DividerConfig, MultiplierKind};
use asc_isa::{Instr, Operand};

use crate::diag::{Diagnostic, Severity};
use crate::flow::Input;

/// Cap on emitted stall notes, largest stalls first: the point is to name
/// the top offenders, not to annotate every instruction of a long kernel.
const MAX_STALL_NOTES: usize = 5;

struct Producer {
    pc: u32,
    issue: u64,
    produce: u64,
}

struct StallNote {
    stall: u64,
    pc: u32,
    message: String,
    note: String,
    structural: bool,
}

/// Predict RAW and structural stalls along each straight-line block of
/// the program, assuming a single thread issuing back-to-back (the
/// worst case the paper's multithreading exists to hide).
pub(crate) fn hazards(input: &Input) -> Vec<Diagnostic> {
    let timing = input.cfg.timing();
    let len = input.imem.len();
    let mut leader = vec![false; len.max(1)];
    if len > 0 {
        leader[0] = true;
    }
    for (pc, slot) in input.imem.iter().enumerate() {
        let Ok(instr) = slot else {
            if pc + 1 < len {
                leader[pc + 1] = true;
            }
            continue;
        };
        if (instr.is_branch() || matches!(instr, Instr::Halt | Instr::TExit)) && pc + 1 < len {
            leader[pc + 1] = true;
        }
        match *instr {
            Instr::J { target } | Instr::Jal { target, .. } if (target as usize) < len => {
                leader[target as usize] = true;
            }
            Instr::Bt { off, .. } | Instr::Bf { off, .. } => {
                let t = pc as i64 + 1 + off as i64;
                if (0..len as i64).contains(&t) {
                    leader[t as usize] = true;
                }
            }
            _ => {}
        }
    }

    let seq_mul = matches!(input.cfg.multiplier, MultiplierKind::Sequential { .. });
    let seq_div = matches!(input.cfg.divider, DividerConfig::Sequential { .. });

    let mut found: Vec<StallNote> = Vec::new();
    let mut pc = 0usize;
    while pc < len {
        // One straight-line block starting at a leader.
        let mut last_def: HashMap<Operand, Producer> = HashMap::new();
        let mut mul_free = 0u64;
        let mut div_free = 0u64;
        let mut prev_issue: Option<u64> = None;
        while let Ok(instr) = &input.imem[pc] {
            let earliest = prev_issue.map_or(0, |p| p + 1);
            let mut issue = earliest;

            // RAW: each source operand must wait for its in-block producer.
            let mut worst_raw: Option<(u64, &Producer, Operand)> = None;
            for op in instr.uses() {
                if let Some(prod) = last_def.get(&op) {
                    let c = timing.consume_offset(instr.class(), op.class);
                    let ready = (prod.issue + prod.produce + 1).saturating_sub(c);
                    if ready > issue {
                        issue = ready;
                    }
                    let stall = ready.saturating_sub(earliest);
                    if stall > 0 && worst_raw.as_ref().is_none_or(|(s, ..)| stall > *s) {
                        worst_raw = Some((stall, prod, op));
                    }
                }
            }
            if let Some((stall, prod, op)) = worst_raw {
                let text = disasm(instr);
                let ptext = disasm_at(input, prod.pc);
                found.push(StallNote {
                    stall,
                    pc: pc as u32,
                    message: format!(
                        "`{text}` stalls {stall} cycle{} waiting on {} from `{ptext}` (pc {})",
                        plural(stall),
                        op_name(op),
                        prod.pc
                    ),
                    note: format!(
                        "the producer's result is forwarded {} cycles after issue; with other \
                         runnable threads the scheduler fills these slots, otherwise hoist \
                         independent instructions between the pair",
                        prod.produce
                    ),
                    structural: false,
                });
            }

            // Structural: the sequential multiplier/divider is busy.
            let ex = timing.ex_start(instr.class());
            let unit_busy_until = if instr.uses_multiplier() && seq_mul {
                Some(&mut mul_free)
            } else if instr.uses_divider() && seq_div {
                Some(&mut div_free)
            } else {
                None
            };
            if let Some(free) = unit_busy_until {
                let ready = free.saturating_sub(ex);
                if ready > issue {
                    let stall = ready.saturating_sub(earliest);
                    found.push(StallNote {
                        stall,
                        pc: pc as u32,
                        message: format!(
                            "`{}` stalls {stall} cycle{} for the sequential {} unit",
                            disasm(instr),
                            plural(stall),
                            if instr.uses_multiplier() { "multiplier" } else { "divider" },
                        ),
                        note: "space out mul/div operations or configure a pipelined unit"
                            .to_string(),
                        structural: true,
                    });
                    issue = ready;
                }
                *free = issue + ex + timing.unit_latency(instr);
            }

            let produce = timing.produce_offset(instr);
            for d in instr.defs() {
                last_def.insert(d, Producer { pc: pc as u32, issue, produce });
            }
            prev_issue = Some(issue);
            pc += 1;
            if pc >= len || leader[pc] {
                break;
            }
        }
        if prev_issue.is_none() {
            // Undecodable word: step over it.
            pc += 1;
        }
    }

    found.sort_by(|a, b| b.stall.cmp(&a.stall).then(a.pc.cmp(&b.pc)));
    found.truncate(MAX_STALL_NOTES);
    found.sort_by_key(|n| n.pc);
    found
        .into_iter()
        .map(|n| {
            let code = if n.structural { "N5002" } else { "N5001" };
            Diagnostic::new(Severity::Note, code, n.pc, n.message).with_note(n.note)
        })
        .collect()
}

/// Explain every fusion boundary: where each fusible straight-line block
/// of parallel instructions ends, and why.
pub(crate) fn fusion_cuts(input: &Input) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for run in asc_core::fusible_runs(input.imem, input.cfg) {
        let end = run.start + run.len;
        match run.cut_pc {
            Some(cut) => {
                let text = disasm_at(input, cut);
                diags.push(
                    Diagnostic::new(
                        Severity::Note,
                        "N5003",
                        cut,
                        format!(
                            "`{text}` cuts a fusible block of {} parallel instructions \
                             (pc {}..{end}): {}",
                            run.len, run.start, run.cut
                        ),
                    )
                    .with_note(match run.cut {
                        asc_core::CutReason::MayFault => {
                            "a fused block never faults, so a `plw`/`psw` with a per-lane base \
                             or a row outside local memory issues on its own; an access off \
                             `p0` to a row inside local memory fuses"
                        }
                        _ => {
                            "lane-local parallel runs execute tile-by-tile with one broadcast \
                             per block; moving scalar bookkeeping out of the run lengthens it"
                        }
                    }),
                );
            }
            None => {
                diags.push(Diagnostic::new(
                    Severity::Note,
                    "N5003",
                    run.start,
                    format!(
                        "fusible block of {} parallel instructions (pc {}..{end}) runs to the \
                         end of the program",
                        run.len, run.start
                    ),
                ));
            }
        }
    }
    diags
}

fn disasm(instr: &Instr) -> String {
    asc_asm::disassemble(instr)
}

fn disasm_at(input: &Input, pc: u32) -> String {
    match &input.imem[pc as usize] {
        Ok(i) => disasm(i),
        Err(_) => "<undecodable>".to_string(),
    }
}

fn op_name(op: Operand) -> String {
    use asc_isa::RegClass;
    match op.class {
        RegClass::SGpr => format!("s{}", op.index),
        RegClass::SFlag => format!("f{}", op.index),
        RegClass::PGpr => format!("p{}", op.index),
        RegClass::PFlag => format!("pf{}", op.index),
    }
}

fn plural(n: u64) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

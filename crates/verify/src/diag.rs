//! Diagnostic representation and the stable code catalog.
//!
//! Every finding the analyzer can produce has a stable code (`Exxxx`,
//! `Wxxxx`, `Nxxxx`) so scripts can filter on them and `mtasc lint
//! --explain CODE` can print the long-form description. The numbering is
//! grouped by pass family:
//!
//! * `0xxx` — control flow and decode (off-end execution, bad targets,
//!   missing functional units, unreachable code)
//! * `1xxx` — uninitialized reads
//! * `2xxx` — memory bounds
//! * `3xxx` — thread lifecycle
//! * `4xxx` — mask emptiness and dead stores
//! * `5xxx` — performance notes (hazards, fusion cuts)

use std::fmt;

use asc_asm::SrcSpan;

/// How bad a finding is.
///
/// The severity contract is load-bearing: an [`Severity::Error`] is only
/// emitted when the analyzer can prove the instruction **will fault at
/// runtime** on every execution that reaches the end of the program — the
/// differential test-suite runs every error-flagged program on the
/// cycle-accurate machine and checks that `run()` really fails. Anything
/// the analyzer merely suspects is a [`Severity::Warning`];
/// [`Severity::Note`] is purely informational (performance diagnostics)
/// and never affects the exit status, even under `--deny warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Proven runtime fault on the path that reaches this instruction.
    Error,
    /// Suspected bug or smell; the program may still run cleanly.
    Warning,
    /// Informational performance diagnostic.
    Note,
}

impl Severity {
    /// Lower-case label used by the renderer and the JSON encoding.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding, anchored to an instruction address (and, when the program
/// came from the assembler, a source line and span).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Error / warning / note.
    pub severity: Severity,
    /// Stable catalog code (`E2001`, `W1002`, `N5003`, ...).
    pub code: &'static str,
    /// Instruction address the finding is about.
    pub pc: u32,
    /// 1-based source line, or 0 when the program has no source map.
    pub line: u32,
    /// Source span of the instruction's mnemonic (col 0 = unknown).
    pub span: SrcSpan,
    /// One-line human message.
    pub message: String,
    /// Additional context lines ("help:" / "note:" in the rendering).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Construct a diagnostic with no source info (filled in later from
    /// the program's source map) and no notes.
    pub fn new(severity: Severity, code: &'static str, pc: u32, message: String) -> Diagnostic {
        Diagnostic {
            severity,
            code,
            pc,
            line: 0,
            span: SrcSpan { line: 0, col: 0, len: 0 },
            message,
            notes: Vec::new(),
        }
    }

    /// Append a context note, builder-style.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }
}

/// Catalog entry for one diagnostic code: what it means and why it fires.
#[derive(Debug, Clone, Copy)]
pub struct CodeInfo {
    /// The stable code.
    pub code: &'static str,
    /// Severity the code is emitted at.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
    /// Long-form explanation with a minimal triggering example, shown by
    /// `mtasc lint --explain CODE`.
    pub explanation: &'static str,
}

/// The full diagnostic catalog, in code order. `docs/static-analysis.md`
/// documents the same list; a test checks the two stay in sync.
pub const CODES: &[CodeInfo] = &[
    CodeInfo {
        code: "E0001",
        severity: Severity::Error,
        summary: "execution runs off the end of the program",
        explanation: "Control definitely reaches the instruction after the last one in the \
                      program. Instruction memory holds exactly the assembled program, so the \
                      very next fetch faults with PcOutOfRange. Triggered by a program whose \
                      final reachable instruction is not `halt`, `texit`, or a jump:\n\n    \
                      li   s1, 1\n    ; no halt -- falls off the end\n\nW0001 is the \
                      maybe-variant: some path (e.g. one arm of a conditional branch) falls \
                      off the end.",
    },
    CodeInfo {
        code: "W0001",
        severity: Severity::Warning,
        summary: "execution may run off the end of the program",
        explanation: "Some path through the program falls through past the last instruction, \
                      which faults with PcOutOfRange if taken. See E0001 for the \
                      definite-variant.",
    },
    CodeInfo {
        code: "E0002",
        severity: Severity::Error,
        summary: "control-transfer target outside the program",
        explanation: "A branch or jump whose target the analyzer resolved statically points \
                      outside the assembled program, and the instruction is definitely \
                      reached and definitely taken. Fetching the target faults with \
                      PcOutOfRange:\n\n    j    99        ; program has 3 instructions\n\n\
                      W0002 is the maybe-variant (a conditional branch that might not be \
                      taken, or a site the analyzer cannot prove reached).",
    },
    CodeInfo {
        code: "W0002",
        severity: Severity::Warning,
        summary: "control-transfer target may be outside the program",
        explanation: "A statically resolved branch/jump target lies outside the program but \
                      the transfer is conditional or not provably reached. See E0002.",
    },
    CodeInfo {
        code: "E0003",
        severity: Severity::Error,
        summary: "multiply/divide instruction but the machine has no such unit",
        explanation: "The instruction needs the multiplier or divider, the machine \
                      configuration has that unit set to None (the paper's base prototype \
                      has neither), and the instruction is definitely reached. Issue faults \
                      with MissingUnit:\n\n    mul  s1, s2, s3   ; MachineConfig::prototype() \
                      has no multiplier\n\nW0003 is the maybe-variant.",
    },
    CodeInfo {
        code: "W0003",
        severity: Severity::Warning,
        summary: "multiply/divide instruction may hit a missing functional unit",
        explanation: "A mul/div instruction exists on some path but the machine has no \
                      multiplier/divider. See E0003.",
    },
    CodeInfo {
        code: "E0004",
        severity: Severity::Error,
        summary: "program does not fit in instruction memory",
        explanation: "The program is longer than the configured `imem_words`; loading it \
                      fails before the first cycle.",
    },
    CodeInfo {
        code: "E0005",
        severity: Severity::Error,
        summary: "undecodable instruction word",
        explanation: "A word in the raw instruction stream does not decode to any MTASC \
                      instruction and is definitely reached; fetch faults with \
                      IllegalInstruction. Only raw word streams can trigger this — assembled \
                      programs are well-formed by construction. W0005 is the maybe-variant.",
    },
    CodeInfo {
        code: "W0005",
        severity: Severity::Warning,
        summary: "undecodable instruction word on some path",
        explanation: "A reachable but not provably executed word fails to decode. See E0005.",
    },
    CodeInfo {
        code: "W0006",
        severity: Severity::Warning,
        summary: "unreachable instruction",
        explanation: "No path from any entry point (boot thread at pc 0, or a statically \
                      resolved tspawn target) reaches this instruction:\n\n    j    done\n    \
                    li   s1, 1     ; unreachable\n  done:\n    halt",
    },
    CodeInfo {
        code: "W1001",
        severity: Severity::Warning,
        summary: "read of a register that is never initialized",
        explanation: "No path from the thread's entry writes this register before the read. \
                      Registers are zeroed when a thread starts, so this is not a fault — \
                      the read returns 0 — but it almost always means a missing `li`/write \
                      or a typoed register number:\n\n    add  s1, s2, s3   ; s2 and s3 never \
                      written anywhere\n\nIn spawned threads, scalar GPRs are exempt: parents \
                      pass arguments by `tput` after `tspawn`, which the analyzer cannot see.",
    },
    CodeInfo {
        code: "W1002",
        severity: Severity::Warning,
        summary: "read of a possibly-uninitialized register",
        explanation: "The register is written on some paths to this read but not all — \
                      typically one arm of a branch initializes it and the other forgets:\n\n    \
                      bt   f1, skip\n    li   s1, 5\n  skip:\n    add  s2, s1, s1   ; s1 \
                      uninitialized when f1 was true\n\nSee W1001 for the never-written case.",
    },
    CodeInfo {
        code: "E2001",
        severity: Severity::Error,
        summary: "parallel local-memory access out of bounds",
        explanation: "A `plw`/`psw` whose effective address the analyzer folded to a \
                      constant (same in every PE) lies outside `lmem_words`, the instruction \
                      runs under the all-PEs mask, and it is definitely reached — so at least \
                      one PE definitely faults:\n\n    pli  p1, 100\n    plw  p2, 0(p1)   ; \
                      lmem_words = 64\n\nW2001 is the maybe-variant (masked access, or not \
                      provably reached).",
    },
    CodeInfo {
        code: "W2001",
        severity: Severity::Warning,
        summary: "parallel local-memory access may be out of bounds",
        explanation: "A statically folded plw/psw address is outside local memory, but the \
                      access is masked (no PE might participate) or the site is not provably \
                      reached. See E2001.",
    },
    CodeInfo {
        code: "E2002",
        severity: Severity::Error,
        summary: "scalar memory access out of bounds",
        explanation: "An `lw`/`sw` whose effective address folded to a constant lies outside \
                      `smem_words` and the instruction is definitely reached:\n\n    li   s1, \
                      2000\n    lw   s2, 0(s1)   ; smem_words = 1024\n\nW2002 is the \
                      maybe-variant.",
    },
    CodeInfo {
        code: "W2002",
        severity: Severity::Warning,
        summary: "scalar memory access may be out of bounds",
        explanation: "A statically folded lw/sw address is outside scalar memory on a path \
                      the analyzer cannot prove executed. See E2002.",
    },
    CodeInfo {
        code: "E3001",
        severity: Severity::Error,
        summary: "thread joins itself",
        explanation: "A `tjoin` whose thread-id operand folds to the executing thread's own \
                      id (the boot thread is id 0), definitely reached. The machine faults \
                      with InvalidThread — a thread can never observe its own exit:\n\n    \
                      tid    s1\n    tjoin  s1",
    },
    CodeInfo {
        code: "E3002",
        severity: Severity::Error,
        summary: "thread id out of range",
        explanation: "A `tjoin`/`tget`/`tput` whose thread-id operand folds to a constant \
                      >= the configured number of hardware thread contexts, definitely \
                      reached. Faults with InvalidThread:\n\n    li     s1, 99\n    tjoin  \
                      s1              ; machine has 16 contexts\n\nW3002 is the maybe-variant.",
    },
    CodeInfo {
        code: "W3002",
        severity: Severity::Warning,
        summary: "thread id may be out of range",
        explanation: "A constant thread id >= the context count on a path not provably \
                      executed. See E3002.",
    },
    CodeInfo {
        code: "W3003",
        severity: Severity::Warning,
        summary: "use of a thread handle after joining it",
        explanation: "The register still holds a handle from `tspawn`, but the thread has \
                      already been joined on this path — its context is released and the id \
                      may have been re-allocated to an unrelated thread:\n\n    tspawn s1, \
                      s2\n    tjoin  s1\n    tget   s3, s1, s4   ; s1's thread is gone",
    },
    CodeInfo {
        code: "W3004",
        severity: Severity::Warning,
        summary: "inter-thread operation but the program never spawns a thread",
        explanation: "A `tjoin`/`tget`/`tput` targets a thread id, yet no `tspawn` appears \
                      anywhere in the program — the target context was never allocated. \
                      Joining a never-allocated id silently succeeds and tget reads zeros, \
                      which is rarely what was meant.",
    },
    CodeInfo {
        code: "W3005",
        severity: Severity::Warning,
        summary: "live thread handle overwritten",
        explanation: "A register holding the only copy of a not-yet-joined spawn handle is \
                      overwritten; the thread can no longer be joined or communicated with \
                      (handle leak):\n\n    tspawn s1, s2\n    li     s1, 0    ; handle lost, \
                      thread still running\n\nCopying the handle to another register or \
                      storing it with `sw` first suppresses the warning.",
    },
    CodeInfo {
        code: "W3006",
        severity: Severity::Warning,
        summary: "tspawn entry point outside the program",
        explanation: "The spawn-target register folds to a constant address outside the \
                      program. If the spawn succeeds, the new thread's first fetch faults \
                      with PcOutOfRange. (A warning, not an error: the spawn itself can fail \
                      if no context is free, in which case no thread runs.)",
    },
    CodeInfo {
        code: "W4001",
        severity: Severity::Warning,
        summary: "activity mask is statically always false",
        explanation: "The `?pfN` mask flag is false in every PE on every path to this \
                      instruction (parallel flags start all-false and nothing set it), so \
                      the instruction is a no-op:\n\n    padds p1, p1, s1 ?pf3   ; pf3 never \
                      written\n\nReductions under an empty mask produce the operation's \
                      identity element.",
    },
    CodeInfo {
        code: "W4002",
        severity: Severity::Warning,
        summary: "flag store is dead: overwritten before any use",
        explanation: "A comparison or flag-logic result is dead: no instruction reads the \
                      flag (as an operand, branch condition, or activity mask) before the \
                      next full write to it:\n\n    pfclr pf1           ; dead — pceqs fully \
                      overwrites pf1\n    pceqs pf1, p1, s2\n\nEither the store is redundant \
                      (a leftover clear before an unmasked write is the common case) or the \
                      flag register is typoed at one of the two sites. A flag still set at \
                      `halt` is *not* reported: the host can read it as a result.",
    },
    CodeInfo {
        code: "N5001",
        severity: Severity::Note,
        summary: "read-after-write dependency stall",
        explanation: "Issuing back-to-back, this instruction waits for a result that is \
                      still in the broadcast/reduction pipeline — the exact hazard the \
                      paper's fine-grain multithreading is designed to hide. The note \
                      reports the producing pc and the stall length from the machine's own \
                      timing model. Single-threaded programs can instead hoist independent \
                      instructions between producer and consumer; multithreaded ones can \
                      rely on the scheduler filling the gap with other threads.",
    },
    CodeInfo {
        code: "N5002",
        severity: Severity::Note,
        summary: "structural stall on a sequential functional unit",
        explanation: "Two instructions competing for the sequential multiplier/divider \
                      within the unit's occupancy window; the second stalls until the unit \
                      frees. Spacing the operations or configuring a pipelined multiplier \
                      removes the stall.",
    },
    CodeInfo {
        code: "N5003",
        severity: Severity::Note,
        summary: "fusible block cut",
        explanation: "A straight-line run of lane-local parallel instructions long enough \
                      for the block-fusion engine ends here, and the note names the reason \
                      (control flow, a scalar-operand broadcast, a reduction, an inter-PE \
                      shift, a local load or store that can fault, ...). Reordering scalar \
                      bookkeeping out of a parallel block can lengthen the fused run and \
                      reduce per-instruction broadcast overhead. A fused block never faults, \
                      so a `plw`/`psw` whose base is a per-lane register, or whose row lies \
                      outside local memory, always ends one.",
    },
    CodeInfo {
        code: "E6001",
        severity: Severity::Error,
        summary: "scalar memory write race: result provably depends on the schedule",
        explanation: "Two threads that definitely run concurrently both definitely write the \
                      same scalar-memory word with different known values, and no `tjoin` \
                      orders the writes — the word's final value is decided by the schedule \
                      alone:\n\n    li     s1, child\n    tspawn s2, s1\n    li     s3, 1\n    \
                      sw     s3, 100(s0)   ; E6001 — child stores 2 to the same word\n    \
                      tjoin  s2\n    halt\n  child:\n    li     s3, 2\n    sw     s3, \
                      100(s0)\n    texit\n\nThe severity contract for this code is enforced \
                      by execution: `mtasc lint --schedules N` (and the \
                      `race_differential` test suite) runs the program under N perturbed \
                      legal schedules and demonstrates divergent architectural state. W6002 \
                      is the maybe-variant for conflicts the analysis cannot prove divergent \
                      (read/write pairs, unknown values, conditionally executed accesses, or \
                      spawn targets that do not constant-fold).",
    },
    CodeInfo {
        code: "W6002",
        severity: Severity::Warning,
        summary: "scalar memory access may race with a concurrent thread",
        explanation: "A scalar-memory access conflicts with an access to the same word from \
                      a thread that may run in parallel (per the happens-before windows \
                      delimited by constant-folded `tspawn`/`tjoin` edges), and at least one \
                      side writes:\n\n    li     s1, child\n    tspawn s2, s1\n    lw     s4, \
                      100(s0)   ; W6002 — the child may store first or second\n    tjoin  \
                      s2\n\nMove the access after the `tjoin`, or prove the addresses \
                      disjoint (the pass only compares constant-folded effective \
                      addresses). See E6001 for the provably-divergent variant.",
    },
    CodeInfo {
        code: "W6003",
        severity: Severity::Warning,
        summary: "PE-local memory access may race between thread contexts",
        explanation: "A parallel load/store (`plw`/`psw`) conflicts with a parallel access \
                      to the same local-memory word from a concurrent thread. Each PE has \
                      one local memory shared by *all* thread contexts — the paper's \
                      multithreading multiplies register planes, not local store — so \
                      concurrent threads must partition the local address space:\n\n    \
                      ; boot thread: psw p1, 0(p0)\n    ; spawned thread: psw p2, 0(p0)   \
                      ; W6003 — same word, any PE\n\nGive each thread a private window \
                      (offset by a per-thread base register) or join before reusing the \
                      region.",
    },
    CodeInfo {
        code: "W6004",
        severity: Severity::Warning,
        summary: "register transfer to/from a running thread is unordered",
        explanation: "A `tget`/`tput` addresses a scalar register of a spawned thread that \
                      is still running *and* writes that same register itself:\n\n    li     \
                      s1, child\n    tspawn s2, s1\n    tget   s3, s2, s4   ; W6004 — the \
                      child also writes s4\n    tjoin  s2\n\nTransfers are serialized at \
                      issue but impose no ordering against the target's own instructions, \
                      so the value moved depends on the schedule. Passing arguments with \
                      `tput` right after `tspawn` into registers the child only *reads* is \
                      the sanctioned idiom and stays quiet; reading results back is safe \
                      after `tjoin`.",
    },
    CodeInfo {
        code: "W6005",
        severity: Severity::Warning,
        summary: "raw thread id used while spawned threads are live",
        explanation: "A `tjoin`/`tget`/`tput` addresses a thread context by a raw constant \
                      id while at least one spawn window is open:\n\n    li     s1, child\n    \
                      tspawn s2, s1\n    li     s3, 1\n    tjoin  s3        ; W6005 — id 1 \
                      is an allocation-order guess\n\nContext ids are assigned in allocation \
                      order and reused after `texit`, so under another schedule the id may \
                      name a different thread (or none). Use the handle written by `tspawn`; \
                      W3004 covers raw-id waits in spawn-free programs and E3002/W3002 \
                      cover out-of-range ids.",
    },
];

/// Look up a code (case-insensitive) in the catalog.
pub fn explain(code: &str) -> Option<&'static CodeInfo> {
    CODES.iter().find(|c| c.code.eq_ignore_ascii_case(code))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for info in CODES {
            assert!(seen.insert(info.code), "duplicate code {}", info.code);
            let (head, num) = info.code.split_at(1);
            assert_eq!(num.len(), 4, "{}", info.code);
            assert!(num.chars().all(|c| c.is_ascii_digit()), "{}", info.code);
            let expect = match info.severity {
                Severity::Error => "E",
                Severity::Warning => "W",
                Severity::Note => "N",
            };
            assert_eq!(head, expect, "{} severity prefix mismatch", info.code);
        }
    }

    #[test]
    fn explain_is_case_insensitive() {
        assert!(explain("e2001").is_some());
        assert!(explain("W4002").is_some());
        assert!(explain("X9999").is_none());
    }
}

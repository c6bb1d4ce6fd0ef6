//! The block-fusion execution engine: tiled, cache-resident execution of
//! *fusible parallel basic blocks*.
//!
//! ## What fuses
//!
//! A fusible block is a maximal straight-line run of parallel-class
//! instructions whose lane `l` results depend only on lane `l`'s own
//! state (see [`asc_isa::Instr::is_fusible`]) and which cannot fault:
//! parallel ALU/compare with register or immediate operands, flag logic,
//! `pidx`, and local loads/stores off `p0` to a row in local memory.
//! Anything else ends a block — scalar register reads/writes (`palus`,
//! `pmovs`, …, which sample the scalar unit), network broadcast or
//! reduction operations, cross-lane shifts, control flow, inter-thread
//! transfers, and memory ops that can fault. Blocks are discovered once
//! per program load by [`FusionPlan::build`] and cached keyed by entry PC
//! (the plan *is* the per-`(program, pc)` cache; loading a new program
//! invalidates it by rebuilding).
//!
//! ## How a block executes
//!
//! Every lane-local instruction is lowered once per program load into the
//! machine's per-PC op table (`Machine::lane_ops`, see
//! [`asc_pe::LaneOp`]), and a block's chain is the table's slice for the
//! run. Unfused, each instruction runs over all `p` lanes before the next
//! (`PeArray::run_op`), so between two dependent instructions a large
//! array's register planes are evicted from cache. Fused, the same
//! executors run group-major (`PeArray::run_block`): when the *first*
//! instruction of a block issues, the whole block is applied **one
//! 4096-lane occupancy group at a time**, each instruction over the
//! group's 64 tiles before the next, and the block moves to the next group
//! after its last instruction. The group's working set (a handful of
//! 16 KiB register spans and 64 words per flag plane) stays in the core's
//! private caches across the block. Each op's mask words are latched just
//! before it runs on the group, so it sees every earlier op's writes,
//! including to its own mask flag. Lane locality makes this order
//! bit-identical to instruction-major order. A block whose work
//! (4096-lane groups × ops) passes the worker pool's gate runs its groups
//! on every host core (`asc_pe::workers`); a smaller one runs every group
//! in lane order on the calling thread.
//!
//! ## Timing is unchanged
//!
//! Only architectural effects are batched. Every instruction of the block
//! still issues one per cycle through the scheduler and scoreboard —
//! hazards, structural stalls, statistics, and trace events are computed
//! exactly as before; the issue path merely skips `execute_instr` for
//! instructions whose effects were pre-applied ("ghost issues", counted
//! down by `Machine::fused_remaining`). Cycle counts, [`crate::Stats`],
//! and traces are bit-identical with fusion on or off.
//!
//! Fusion is gated conservatively so the batching can never be observed:
//! blocks only fuse while exactly one thread is live, and only when a
//! worst-case bound on the block's issue span fits inside the run's cycle
//! budget (so a [`crate::RunError::CycleLimit`] abort cannot land between
//! a block's pre-execution and its last ghost issue).
//!
//! ## Memory faults
//!
//! A block never faults: the plan cuts out every `plw`/`psw` that can
//! ([`asc_pe::LaneOp::can_fault`]: a computed base, or a `p0` row outside
//! local memory), as [`CutReason::MayFault`]. Issued on its own, fusion on
//! or off, such an access stops at its lowest faulting active PE with the
//! lanes below it applied and nothing after it run, so the error, the
//! machine state and the statistics are the same either way.

use asc_isa::{DecodeError, Instr};
use asc_pe::{LaneOp, SimdLevel};

use crate::config::MachineConfig;
use crate::machine::Machine;

/// Shortest run worth fusing: a single instruction gains nothing from
/// group-major order (it *is* one sweep either way).
pub const MIN_BLOCK_LEN: u32 = 2;

/// Why an instruction cannot join a fusible parallel basic block — the
/// answer to "why did this block cut here?". Produced by [`cut_reason`]
/// and [`fusible_runs`]; consumed by `asc-verify`'s fusion diagnostics
/// and anything else that wants to explain a [`FusionStats`] number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutReason {
    /// Control flow: the thread's next fetch depends on this instruction.
    ControlFlow,
    /// A scalar-class instruction (control-unit datapath, including
    /// thread management): it does not run on the PE array at all.
    Scalar,
    /// A reduction-class instruction: couples all lanes through the
    /// reduction network.
    Reduction,
    /// A parallel instruction with a broadcast scalar operand
    /// (`palus`/`pcmps`/`pmovs`): samples the scalar register file at B1.
    ScalarBroadcast,
    /// The inter-PE shift network: lane `l` reads lane `l - dist`.
    CrossLaneShift,
    /// `mul`-family instruction on a machine with no multiplier — kept
    /// out of blocks so [`crate::RunError::MissingUnit`] fires at its own
    /// issue.
    MissingMultiplier,
    /// `div`/`rem` on a machine with no divider (same trap rule).
    MissingDivider,
    /// A local load or store that can fault (a per-lane base, or a row
    /// outside local memory): kept out of blocks so no block faults.
    MayFault,
    /// The word at this address does not decode; execution would fault.
    Undecodable,
    /// The run reaches the end of instruction memory.
    EndOfProgram,
}

impl std::fmt::Display for CutReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CutReason::ControlFlow => "control flow",
            CutReason::Scalar => "scalar-class instruction",
            CutReason::Reduction => "reduction-network operation",
            CutReason::ScalarBroadcast => "broadcast scalar operand",
            CutReason::CrossLaneShift => "cross-lane shift network",
            CutReason::MissingMultiplier => "multiplier absent on this machine",
            CutReason::MissingDivider => "divider absent on this machine",
            CutReason::MayFault => "local-memory access that can fault",
            CutReason::Undecodable => "undecodable word",
            CutReason::EndOfProgram => "end of program",
        })
    }
}

/// Why `i` cannot join a fusible block on a machine configured as `cfg`
/// (`None` means it fuses). This is the same predicate
/// `FusionPlan::build` applies, factored out so diagnostics can explain
/// every boundary the plan introduces.
pub fn cut_reason(i: &Instr, cfg: &MachineConfig) -> Option<CutReason> {
    cut_given(i, cfg, || can_fault(i, cfg))
}

/// Whether lane-local `i` can fault on a machine configured as `cfg`
/// ([`LaneOp::can_fault`]).
fn can_fault(i: &Instr, cfg: &MachineConfig) -> bool {
    // the SIMD tier picks kernels only: it cannot make an op fault
    let op = LaneOp::lower(i, cfg.width, SimdLevel::Scalar, cfg.lmem_words);
    op.is_some_and(|op| op.can_fault())
}

/// [`cut_reason`] with the can-fault answer supplied: `can_fault` is
/// asked only of a fusible instruction whose units are present, and a
/// machine answers it from the ops it lowered at load instead of
/// lowering the instruction again.
fn cut_given(
    i: &Instr,
    cfg: &MachineConfig,
    can_fault: impl FnOnce() -> bool,
) -> Option<CutReason> {
    use asc_isa::InstrClass;
    if i.is_fusible() {
        if i.uses_multiplier() && cfg.multiplier == asc_pe::MultiplierKind::None {
            return Some(CutReason::MissingMultiplier);
        }
        if i.uses_divider() && cfg.divider == asc_pe::DividerConfig::None {
            return Some(CutReason::MissingDivider);
        }
        return can_fault().then_some(CutReason::MayFault);
    }
    Some(match i.class() {
        InstrClass::Scalar if i.is_branch() => CutReason::ControlFlow,
        InstrClass::Scalar => CutReason::Scalar,
        InstrClass::Reduction => CutReason::Reduction,
        InstrClass::Parallel => match i {
            Instr::PAluS { .. } | Instr::PCmpS { .. } | Instr::PMovS { .. } => {
                CutReason::ScalarBroadcast
            }
            Instr::PShift { .. } => CutReason::CrossLaneShift,
            _ => CutReason::Scalar,
        },
    })
}

/// One maximal fusible run of length ≥ [`MIN_BLOCK_LEN`] and the reason
/// it ends, as reported by [`fusible_runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusibleRun {
    /// First instruction address of the run.
    pub start: u32,
    /// Number of fused instructions.
    pub len: u32,
    /// Address of the instruction that ended the run (`None` when the
    /// run ends because the program does).
    pub cut_pc: Option<u32>,
    /// Why the run ends there.
    pub cut: CutReason,
}

/// Every maximal fusible block the `FusionPlan` would build for this
/// instruction stream, each annotated with the boundary that ends it.
/// Runs shorter than [`MIN_BLOCK_LEN`] are not blocks and are skipped.
pub fn fusible_runs(imem: &[Result<Instr, DecodeError>], cfg: &MachineConfig) -> Vec<FusibleRun> {
    let instr_at = |pc: usize| imem[pc].as_ref().ok();
    let plan = FusionPlan::build(
        imem.len(),
        instr_at,
        |pc| instr_at(pc).is_some_and(|i| can_fault(i, cfg)),
        cfg,
    );
    let mut out = Vec::new();
    let mut pc = 0usize;
    while pc < imem.len() {
        let len = plan.run_len_at(pc as u32);
        if len >= MIN_BLOCK_LEN {
            let next = pc + len as usize;
            let (cut_pc, cut) = match imem.get(next) {
                None => (None, CutReason::EndOfProgram),
                Some(Err(_)) => (Some(next as u32), CutReason::Undecodable),
                Some(Ok(i)) => (
                    Some(next as u32),
                    cut_reason(i, cfg).expect("instruction after a maximal run must cut"),
                ),
            };
            out.push(FusibleRun { start: pc as u32, len, cut_pc, cut });
        }
        pc += len.max(1) as usize;
    }
    out
}

/// The fusible-block plan for a loaded program: for every PC, the length
/// of the fusible run starting there (0 or 1 where nothing fuses). A
/// block's chain is the slice of the machine's per-PC lane-op table
/// (`Machine::lane_ops`) that the run covers, so a suffix run (a jump into
/// the middle of a block) is a sub-slice of its maximal block's.
#[derive(Debug, Clone)]
pub(crate) struct FusionPlan {
    /// `run_len[pc]` = number of consecutive fusible instructions at `pc`.
    run_len: Vec<u32>,
    /// Static count of maximal blocks of length ≥ [`MIN_BLOCK_LEN`].
    static_blocks: u64,
    /// Static count of instructions covered by those blocks.
    static_fused_instrs: u64,
    /// Of those instructions, how many run a vector (SIMD) kernel.
    simd_ops: u64,
}

impl FusionPlan {
    /// Scan the decoded instruction stream of `n` words (`instr_at(pc)`
    /// is the instruction at `pc`, `None` where the word does not
    /// decode), and record every fusible run and the static statistics of
    /// its maximal blocks. `can_fault(pc)` says whether the lane-local
    /// instruction at `pc` can fault ([`LaneOp::can_fault`]).
    ///
    /// An instruction that would trap or fault on this machine (`mul`/`div`
    /// with the unit absent, a `plw`/`psw` that can fault) is excluded from
    /// fusion at plan time, so its error fires at its own issue, not a
    /// block's entry, and no block faults.
    pub(crate) fn build<'a>(
        n: usize,
        instr_at: impl Fn(usize) -> Option<&'a Instr>,
        can_fault: impl Fn(usize) -> bool,
        cfg: &MachineConfig,
    ) -> FusionPlan {
        let level = cfg.simd_level();
        let mut run_len = vec![0u32; n];
        // Backward scan: run_len[pc] = 1 + run_len[pc + 1] where fusible.
        for pc in (0..n).rev() {
            let cut = |i| cut_given(i, cfg, || can_fault(pc));
            let fusible = instr_at(pc).is_some_and(|i| cut(i).is_none());
            if fusible {
                run_len[pc] = 1 + run_len.get(pc + 1).copied().unwrap_or(0);
            }
        }
        // Walk maximal runs for the static statistics.
        let (mut static_blocks, mut static_fused_instrs, mut simd_ops) = (0, 0, 0);
        let mut pc = 0;
        while pc < n {
            let len = run_len[pc];
            if len >= MIN_BLOCK_LEN {
                static_blocks += 1;
                static_fused_instrs += len as u64;
                for k in 0..len as usize {
                    let i =
                        instr_at(pc + k).expect("fusible runs only cover decodable instructions");
                    simd_ops += u64::from(vectorizes(i, level));
                }
            }
            pc += len.max(1) as usize;
        }
        FusionPlan { run_len, static_blocks, static_fused_instrs, simd_ops }
    }

    /// Length of the fusible run starting at `pc` (0 if none).
    pub(crate) fn run_len_at(&self, pc: u32) -> u32 {
        self.run_len.get(pc as usize).copied().unwrap_or(0)
    }
}

/// Whether fusible instruction `i` runs a vector (non-scalar) kernel at
/// `level`: the `simd_ops` statistic.
fn vectorizes(i: &Instr, level: asc_pe::SimdLevel) -> bool {
    if !level.is_simd() {
        return false;
    }
    match *i {
        Instr::PAlu { op, pd, .. } | Instr::PAluImm { op, pd, .. } => {
            pd.index() != 0 && asc_pe::alu_vectorizes(op)
        }
        Instr::PCmp { .. } | Instr::PCmpImm { .. } => true,
        _ => false,
    }
}

/// Block-fusion counters, reported by [`Machine::fusion_stats`] and
/// printed by `mtasc run --fusion-stats`. Kept outside [`crate::Stats`]
/// so the statistics report stays bit-identical with fusion on or off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Fusible blocks in the loaded program (static).
    pub static_blocks: u64,
    /// Instructions covered by those blocks (static).
    pub static_fused_instrs: u64,
    /// Lowered ops the fused blocks run (static; one per instruction of
    /// every maximal block).
    pub compiled_ops: u64,
    /// Of those ops, how many run a vector (SIMD) kernel rather than the
    /// scalar reference loop (static).
    pub simd_ops: u64,
    /// Blocks executed by the tiled engine (dynamic).
    pub blocks_executed: u64,
    /// Dynamic instructions whose effects ran through the tiled engine.
    pub instrs_fused: u64,
    /// Tiles swept by the engine (dynamic: one per block × 64-lane tile
    /// swept; a block runs its chain once per 4096-lane group).
    pub tile_chains: u64,
}

impl FusionStats {
    /// Mean static block length (0 when the program has no blocks).
    pub fn mean_block_len(&self) -> f64 {
        if self.static_blocks == 0 {
            0.0
        } else {
            self.static_fused_instrs as f64 / self.static_blocks as f64
        }
    }

    /// Fraction of `issued` dynamic instructions executed fused.
    pub fn fused_fraction(&self, issued: u64) -> f64 {
        if issued == 0 {
            0.0
        } else {
            self.instrs_fused as f64 / issued as f64
        }
    }
}

impl Machine {
    /// Should the block starting at `(tid, pc)` be pre-executed now?
    /// Returns its length if every fusion gate passes.
    pub(crate) fn fusible_block_len(&self, pc: u32) -> Option<u32> {
        let plan = self.fusion_plan.as_ref()?;
        let len = plan.run_len_at(pc);
        if len < MIN_BLOCK_LEN {
            return None;
        }
        // A second live thread could issue into the middle of the block
        // and observe (or disturb) its batched effects out of order.
        if self.threads.live_count() != 1 {
            return None;
        }
        // Fuel gate: even if every remaining issue of the block stalls
        // for the worst possible hazard span, the block must finish
        // issuing inside the run's cycle budget, so a CycleLimit abort
        // can never land with a block half-credited. `fuse_horizon` is 0
        // outside `Machine::run`, so bare `step()` loops never fuse.
        let span = (len as u64).saturating_mul(self.worst_issue_gap());
        if self.cycle.saturating_add(span) > self.fuse_horizon {
            return None;
        }
        Some(len)
    }

    /// Conservative upper bound on the cycles between two consecutive
    /// issues of the same thread's straight-line code: worst RAW wait
    /// (produce depth of the slowest unit past the broadcast and
    /// reduction trees) plus slack for structural waits.
    fn worst_issue_gap(&self) -> u64 {
        let mul = match self.timing.multiplier {
            asc_pe::MultiplierKind::None => 0,
            asc_pe::MultiplierKind::Pipelined { latency } => latency,
            asc_pe::MultiplierKind::Sequential { cycles } => cycles,
        };
        let div = match self.timing.divider {
            asc_pe::DividerConfig::None => 0,
            asc_pe::DividerConfig::Sequential { cycles } => cycles,
        };
        self.timing.b + self.timing.r + 2 * (mul + div) + 8
    }

    /// Pre-execute the fusible block `[pc, pc + len)` for `tid` through
    /// its lowered ops, one occupancy group at a time. Called at the issue
    /// of the block's first instruction; the remaining `len - 1` issues are
    /// ghosts (timing only). A block cannot fault. Only blocks count in the
    /// dynamic counters: an unfused issue of the same ops leaves them alone.
    pub(crate) fn execute_block(&mut self, tid: usize, pc: u32, len: u32) {
        let ops = &self.lane_ops[pc as usize..(pc + len) as usize];
        self.array.run_block(tid, ops, &self.all);
        self.fusion_dyn.tile_chains += self.all.words().len() as u64;
        self.fusion_dyn.blocks_executed += 1;
        self.fusion_dyn.instrs_fused += len as u64;
    }

    /// Block-fusion counters for the loaded program and the run so far.
    pub fn fusion_stats(&self) -> FusionStats {
        let mut s = self.fusion_dyn;
        if let Some(plan) = &self.fusion_plan {
            s.static_blocks = plan.static_blocks;
            s.static_fused_instrs = plan.static_fused_instrs;
            s.compiled_ops = plan.static_fused_instrs;
            s.simd_ops = plan.simd_ops;
        }
        s
    }

    /// The SIMD dispatch tier this machine's plane sweeps and compiled
    /// block kernels execute at (resolved once at construction).
    pub fn simd_level(&self) -> asc_pe::SimdLevel {
        self.array.config().simd
    }
}

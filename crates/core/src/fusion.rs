//! The block-fusion execution engine: tiled, cache-resident execution of
//! *fusible parallel basic blocks*.
//!
//! ## What fuses
//!
//! A fusible block is a maximal straight-line run of parallel-class
//! instructions whose lane `l` results depend only on lane `l`'s own
//! state (see [`asc_isa::Instr::is_fusible`]): parallel ALU/compare with
//! register or immediate operands, flag logic, local loads/stores, and
//! `pidx`. Anything else ends a block — scalar register reads/writes
//! (`palus`, `pmovs`, …, which sample the scalar unit), network broadcast
//! or reduction operations, cross-lane shifts, control flow, and
//! inter-thread transfers. Blocks are discovered once per program load by
//! [`FusionPlan::build`] and cached keyed by entry PC (the plan *is* the
//! per-`(program, pc)` cache; loading a new program invalidates it by
//! rebuilding).
//!
//! ## How a block executes
//!
//! The instruction-major executor sweeps all `p` lanes once per
//! instruction, so between two dependent instructions a large array's
//! register planes are evicted from cache. The fusion engine blocks the
//! loop nest: when the *first* instruction of a block issues, the whole
//! block is applied **one 4096-lane occupancy group at a time**, op-major
//! within the group — each instruction runs over the group's 64 tiles,
//! through one [`asc_pe::TileWindow`] spanning them, before the next
//! instruction runs, and the block moves to the next group after its last
//! instruction. The group's working set (a handful of 16 KiB register
//! spans and 64 words per flag plane) stays in the core's private caches
//! across the block, and each op costs one executor call and one
//! vector span-kernel call per group instead of one per tile. Each op's
//! mask words are latched just before it runs on the group, so it sees
//! every earlier op's writes, including to its own mask flag. Lane
//! locality of fusible instructions makes this order bit-identical to
//! instruction-major order. A block whose work (4096-lane groups × ops)
//! passes the worker pool's gate runs its groups on every host core
//! (`asc_pe::workers`); a smaller one runs every group in lane order on
//! the calling thread.
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
//! A faulting `plw`/`psw` lane reports the same error identity as the
//! instruction-major executor — lowest faulting PE of the *earliest*
//! faulting instruction, at that instruction's PC, taken over every group
//! however the groups were split — but the sweep still applies all
//! non-faulting lanes of the whole block first. On the error
//! path (and only there) the partial architectural state left behind may
//! differ from the unfused executor's; successful runs are bit-identical.

use asc_isa::{DecodeError, Instr};

use crate::compile::{run_chain_tiles, CompiledOp};
use crate::config::MachineConfig;
use crate::error::RunError;
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
    /// out of blocks so [`RunError::MissingUnit`] fires at its own issue.
    MissingMultiplier,
    /// `div`/`rem` on a machine with no divider (same trap rule).
    MissingDivider,
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
    use asc_isa::InstrClass;
    if i.is_fusible() {
        if i.uses_multiplier() && cfg.multiplier == asc_pe::MultiplierKind::None {
            return Some(CutReason::MissingMultiplier);
        }
        if i.uses_divider() && cfg.divider == asc_pe::DividerConfig::None {
            return Some(CutReason::MissingDivider);
        }
        return None;
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
    let plan = FusionPlan::build(imem.len(), |pc| imem[pc].as_ref().ok(), cfg);
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
/// of the fusible run starting there (0 or 1 where nothing fuses).
#[derive(Debug, Clone)]
pub(crate) struct FusionPlan {
    /// `run_len[pc]` = number of consecutive fusible instructions at `pc`.
    run_len: Vec<u32>,
    /// Every maximal block's compiled chain, concatenated in program
    /// order. A suffix run (a jump into the middle of a block) is a
    /// sub-slice of its maximal block's chain, so one compilation covers
    /// every entry point.
    ops: Vec<CompiledOp>,
    /// Per PC: index into `ops` of this instruction's compiled form
    /// (`NO_CHAIN` where the PC is not covered by a block).
    chain_start: Vec<u32>,
    /// Static count of maximal blocks of length ≥ [`MIN_BLOCK_LEN`].
    static_blocks: u64,
    /// Static count of instructions covered by those blocks.
    static_fused_instrs: u64,
    /// Of the compiled ops, how many bound a vector (SIMD) kernel.
    simd_ops: u64,
}

/// `chain_start` sentinel: this PC has no compiled op.
const NO_CHAIN: u32 = u32::MAX;

impl FusionPlan {
    /// Scan the decoded instruction stream of `n` words (`instr_at(pc)`
    /// is the instruction at `pc`, `None` where the word does not
    /// decode), record every fusible run, and lower each maximal block to
    /// a compiled kernel chain specialized for this machine's width and
    /// SIMD tier (see [`crate::compile`]).
    ///
    /// An instruction that would trap on this machine (`mul`/`div` with
    /// the unit absent) is excluded from fusion at plan time, so the
    /// [`RunError::MissingUnit`] error still fires at that instruction's
    /// own issue, not a block's entry.
    pub(crate) fn build<'a>(
        n: usize,
        instr_at: impl Fn(usize) -> Option<&'a Instr>,
        cfg: &MachineConfig,
    ) -> FusionPlan {
        let level = cfg.simd_level();
        let mut run_len = vec![0u32; n];
        // Backward scan: run_len[pc] = 1 + run_len[pc + 1] where fusible.
        for pc in (0..n).rev() {
            let fusible = instr_at(pc).is_some_and(|i| cut_reason(i, cfg).is_none());
            if fusible {
                run_len[pc] = 1 + run_len.get(pc + 1).copied().unwrap_or(0);
            }
        }
        // Walk maximal runs: static stats, and one compiled chain per
        // block (suffix entry points share the block's chain tail).
        let mut ops = Vec::new();
        let mut chain_start = vec![NO_CHAIN; n];
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
                    chain_start[pc + k] = ops.len() as u32;
                    ops.push(CompiledOp::compile(i, cfg.width, level));
                    simd_ops += u64::from(CompiledOp::vectorizes(i, level));
                }
            }
            pc += len.max(1) as usize;
        }
        FusionPlan { run_len, ops, chain_start, static_blocks, static_fused_instrs, simd_ops }
    }

    /// Length of the fusible run starting at `pc` (0 if none).
    pub(crate) fn run_len_at(&self, pc: u32) -> u32 {
        self.run_len.get(pc as usize).copied().unwrap_or(0)
    }

    /// The compiled chain for the run `[pc, pc + len)`. Only valid for
    /// `len <= run_len_at(pc)` — the gate `Machine::fusible_block_len`
    /// checks before execution.
    pub(crate) fn chain(&self, pc: u32, len: u32) -> &[CompiledOp] {
        let s = self.chain_start[pc as usize];
        debug_assert_ne!(s, NO_CHAIN, "no compiled chain at pc {pc}");
        &self.ops[s as usize..s as usize + len as usize]
    }

    pub(crate) fn static_blocks(&self) -> u64 {
        self.static_blocks
    }

    pub(crate) fn static_fused_instrs(&self) -> u64 {
        self.static_fused_instrs
    }

    pub(crate) fn simd_ops(&self) -> u64 {
        self.simd_ops
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
    /// Compiled kernel ops materialized by the block compiler (static;
    /// one per instruction of every maximal block).
    pub compiled_ops: u64,
    /// Of the compiled ops, how many bound a vector (SIMD) kernel rather
    /// than the scalar reference loop (static).
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
    /// its compiled kernel chain, one occupancy group at a time. Called at
    /// the issue of the block's first instruction; the remaining `len - 1`
    /// issues are ghosts (timing only).
    pub(crate) fn execute_block(&mut self, tid: usize, pc: u32, len: u32) -> Result<(), RunError> {
        // The plan is moved out for the duration of the sweep so the
        // chain borrow cannot conflict with the array borrow (no
        // allocation — `Option::take`).
        let plan = self.fusion_plan.take().expect("execute_block requires a fusion plan");
        // Fusible masks are either `Mask::All` (the machine's all-active
        // mask, read in place) or a flag plane (latched per group just
        // before each op, preserving self-masking semantics).
        let chain = plan.chain(pc, len);
        // The chain writes planes through raw tile windows, bypassing the
        // array's marking mutators — commit its destinations up front.
        for op in chain {
            match op.dst() {
                crate::compile::DstKind::None => {}
                crate::compile::DstKind::Gpr(r) => self.array.note_gpr_write(tid, r as usize),
                crate::compile::DstKind::Flag(f) => self.array.note_flag_write(tid, f as usize),
                crate::compile::DstKind::LmemRow(r) => self.array.note_lmem_write(Some(r as i64)),
                crate::compile::DstKind::LmemRows => self.array.note_lmem_write(None),
            }
        }
        let fault = {
            let mut tiles = self.array.thread_tiles(tid);
            self.fusion_dyn.tile_chains += tiles.num_tiles() as u64;
            run_chain_tiles(chain, &mut tiles, &self.all)
        };
        self.fusion_dyn.blocks_executed += 1;
        self.fusion_dyn.instrs_fused += len as u64;
        self.fusion_plan = Some(plan);
        match fault {
            None => Ok(()),
            Some((k, fault)) => Err(RunError::PeMemoryFault { thread: tid, pc: pc + k, fault }),
        }
    }

    /// Block-fusion counters for the loaded program and the run so far.
    pub fn fusion_stats(&self) -> FusionStats {
        let mut s = self.fusion_dyn;
        if let Some(plan) = &self.fusion_plan {
            s.static_blocks = plan.static_blocks();
            s.static_fused_instrs = plan.static_fused_instrs();
            s.compiled_ops = plan.static_fused_instrs();
            s.simd_ops = plan.simd_ops();
        }
        s
    }

    /// The SIMD dispatch tier this machine's plane sweeps and compiled
    /// block kernels execute at (resolved once at construction).
    pub fn simd_level(&self) -> asc_pe::SimdLevel {
        self.array.config().simd
    }
}

//! The cycle-accurate machine: fetch/decode/issue with fine-grain (or
//! coarse-grain) multithreading, the split pipeline's hazard model, and the
//! functional architectural state.
//!
//! ## Model summary (see `DESIGN.md` §3 for the derivation)
//!
//! One instruction issues per cycle from the scheduler, which rotates
//! priority over threads whose next instruction has no outstanding hazard
//! (the paper's "rotating priority selection policy ... to ensure fairness
//! between threads"). Hazards are detected against the *instruction status
//! table* ([`crate::scoreboard::Scoreboard`]): each architectural register
//! records when its latest in-flight writer's value becomes forwardable.
//!
//! The scan runs every cycle over every live thread, so it never decodes:
//! [`Machine::load_words`] decodes the program once into a per-PC issue
//! table (`crate::issue`), and each check reads the entry at the thread's
//! PC — the instruction's class, its source operands with their consume
//! offsets, its destinations, its produce and retire offsets, and the
//! multiplier or divider it needs — all filled from [`crate::Timing`] and
//! the instruction's own operand and class definitions.
//!
//! Simplifications, stated: instruction fetch is ideal (per-thread buffers
//! always full; the branch-redirect bubble models the refill); write-back
//! ports are unlimited; inter-thread register transfers are serialized at
//! issue and must be synchronized by software (`tjoin`, flags), exactly as
//! the prototype required.

use std::collections::VecDeque;

use asc_asm::Program;
use asc_isa::{InstrClass, RegClass, Word};
use asc_network::{NetUnit, Network};
use asc_pe::{FlagFile, LaneOp, LocalMemory, PeArray, RegFile, SequentialUnit};

use crate::config::{FetchModel, MachineConfig, SchedPolicy};
use crate::error::RunError;
use crate::exec::Effect;
use crate::issue::{IssueEntry, IssueTable, UnitUse};
use crate::obs::profile::Profile;
use crate::obs::progress::ProgressSampler;
use crate::obs::{Observers, SinkHandle, ThreadTransition};
use crate::scoreboard::{Scoreboard, NO_PRODUCER_PC};
use crate::stats::{StallReason, Stats};
use crate::threads::{ThreadState, ThreadTable};
use crate::timing::Timing;

/// Result of a single [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An instruction issued from the given thread.
    Issued {
        /// The thread that issued.
        thread: usize,
    },
    /// No instruction could issue; the reason of the highest-priority
    /// blocked thread, and how many cycles were skipped (≥ 1 — the
    /// simulator fast-forwards through long stalls).
    Stalled {
        /// Attributed stall reason.
        reason: StallReason,
        /// Cycles consumed.
        cycles: u64,
    },
    /// The machine has halted (or every thread has exited).
    Finished,
}

/// What one scheduler cycle reports to its caller: the [`Step`] itself
/// for [`Machine::step`], nothing for the [`Machine::run`] loop, which
/// reads everything it needs from the machine. So the run loop never
/// builds a `Step`, whose result otherwise crosses a call boundary
/// through memory on every simulated cycle.
trait Outcome: Sized {
    fn issued(thread: usize) -> Self;
    fn stalled(reason: StallReason, cycles: u64) -> Self;
    fn finished() -> Self;
}

impl Outcome for Step {
    fn issued(thread: usize) -> Step {
        Step::Issued { thread }
    }
    fn stalled(reason: StallReason, cycles: u64) -> Step {
        Step::Stalled { reason, cycles }
    }
    fn finished() -> Step {
        Step::Finished
    }
}

impl Outcome for () {
    fn issued(_: usize) {}
    fn stalled(_: StallReason, _: u64) {}
    fn finished() {}
}

/// Why a specific thread could not issue this cycle (internal).
#[derive(Debug, Clone, Copy)]
struct Blocked {
    reason: StallReason,
    /// Earliest cycle at which the thread might issue (`u64::MAX` for
    /// event-driven waits like joins).
    earliest: u64,
    /// The blocked thread (profiler attribution).
    thread: usize,
    /// PC of the instruction that could not issue.
    pc: u32,
    /// PC of the in-flight producer being waited on
    /// ([`NO_PRODUCER_PC`] when the wait has no register producer).
    waiting_on: u32,
}

/// The simulated Multithreaded ASC Processor.
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) timing: Timing,
    /// The loaded program, decoded once into per-PC issue entries.
    pub(crate) table: IssueTable,
    /// The loaded program's lane-local instructions, lowered once per PC
    /// for this machine's width, SIMD tier and local memory (the op that
    /// does nothing at every other PC): what an unfused issue runs, and,
    /// sliced, a fused block's chain.
    pub(crate) lane_ops: Vec<LaneOp>,
    pub(crate) sregs: RegFile,
    pub(crate) sflags: FlagFile,
    pub(crate) smem: LocalMemory,
    pub(crate) array: PeArray,
    /// The all-active mask, built once: every unmasked instruction and
    /// every fused block runs on it.
    pub(crate) all: asc_pe::ActiveMask,
    /// Reusable packed active mask: refilled from the mask flag's plane
    /// by every `?pf` instruction at issue, so masked execution allocates
    /// nothing per instruction.
    pub(crate) amask: asc_pe::ActiveMask,
    pub(crate) net: Network,
    pub(crate) threads: ThreadTable,
    score: Scoreboard,
    /// The sequential multipliers and dividers, indexed by
    /// [`crate::obs::SeqUnit`].
    seq_units: [SequentialUnit; 4],
    pub(crate) cycle: u64,
    halted: bool,
    rotate: usize,
    current: usize,
    /// Schedule-perturbation seed (the config's, copied at construction;
    /// `0` = off).
    sched_seed: u64,
    /// Running state of the perturbation generator (splitmix64).
    sched_rng: u64,
    /// Per-thread reason for a pending `next_issue` bubble.
    bubble: Vec<StallReason>,
    /// Instructions buffered per thread (finite fetch model).
    ibuf: Vec<usize>,
    fetch_rotate: usize,
    stats: Stats,
    /// The attached observers (trace sink, profiler, progress sampler);
    /// `None` while nothing is attached, so an unobserved run pays one
    /// `Option` check per emission site.
    obs: Option<Box<Observers>>,
    /// Completion cycles of in-flight broadcast-tree operations (queue
    /// depth sampling).
    bcast_inflight: VecDeque<u64>,
    /// Completion cycles of in-flight reduction-tree operations.
    red_inflight: VecDeque<u64>,
    /// Fusible-block plan for the loaded program (`None` with fusion
    /// disabled); rebuilt — i.e. the block cache is invalidated — on every
    /// program load.
    pub(crate) fusion_plan: Option<crate::fusion::FusionPlan>,
    /// Dynamic block-fusion counters (static ones live in the plan).
    pub(crate) fusion_dyn: crate::fusion::FusionStats,
    /// Ghost issues remaining per thread: how many upcoming instructions
    /// of this thread already had their effects applied by a fused block.
    pub(crate) fused_remaining: Vec<u32>,
    /// Cycle budget of the current `run()` call; fusion's fuel gate.
    /// Zero outside `run`, so bare `step()` loops never fuse.
    pub(crate) fuse_horizon: u64,
}

impl Machine {
    /// Build a machine from a configuration. Load a program with
    /// [`Machine::load_program`] before running.
    pub fn new(cfg: MachineConfig) -> Machine {
        assert!(cfg.threads >= 1);
        let timing = cfg.timing();
        // An in-flight broadcast spans b cycles and one may start per
        // cycle; a reduction additionally spans b + 1 + r. Pre-sizing the
        // queues keeps the issue path allocation-free.
        let bcast_cap = timing.b as usize + 2;
        let red_cap = (timing.b + 1 + timing.r) as usize + 2;
        Machine {
            timing,
            table: IssueTable::default(),
            lane_ops: Vec::new(),
            sregs: RegFile::new(cfg.threads, asc_isa::NUM_GPRS),
            sflags: FlagFile::new(cfg.threads, asc_isa::NUM_FLAGS),
            smem: LocalMemory::new(cfg.smem_words),
            array: PeArray::new(cfg.array()),
            all: asc_pe::ActiveMask::all(cfg.num_pes),
            amask: asc_pe::ActiveMask::new(cfg.num_pes),
            net: Network::new(cfg.network()),
            threads: ThreadTable::new(cfg.threads),
            score: Scoreboard::new(cfg.threads),
            seq_units: Default::default(),
            cycle: 0,
            halted: false,
            rotate: 0,
            current: 0,
            sched_seed: cfg.sched_seed,
            sched_rng: cfg.sched_seed,
            bubble: vec![StallReason::BranchBubble; cfg.threads],
            ibuf: vec![0; cfg.threads],
            fetch_rotate: 0,
            stats: Stats::new(cfg.threads),
            obs: None,
            bcast_inflight: VecDeque::with_capacity(bcast_cap),
            red_inflight: VecDeque::with_capacity(red_cap),
            fusion_plan: None,
            fusion_dyn: crate::fusion::FusionStats::default(),
            fused_remaining: vec![0; cfg.threads],
            fuse_horizon: 0,
            cfg,
        }
    }

    /// Convenience: build the machine and load an assembled program.
    pub fn with_program(cfg: MachineConfig, program: &Program) -> Result<Machine, RunError> {
        let mut m = Machine::new(cfg);
        m.load_program(program)?;
        Ok(m)
    }

    /// Load an assembled program into instruction memory.
    pub fn load_program(&mut self, program: &Program) -> Result<(), RunError> {
        self.load_words(&program.words())
    }

    /// Load raw machine words into instruction memory. Words are
    /// pre-decoded into the issue table; a word that fails to decode only
    /// raises [`RunError::IllegalInstruction`] if it is ever executed.
    pub fn load_words(&mut self, words: &[u32]) -> Result<(), RunError> {
        if words.len() > self.cfg.imem_words {
            return Err(RunError::ProgramTooLarge {
                len: words.len(),
                capacity: self.cfg.imem_words,
            });
        }
        self.table.load(words, &self.timing);
        let (table, c) = (&self.table, self.array.config());
        self.lane_ops.clear();
        self.lane_ops.extend((0..table.len()).map(|pc| {
            let lower = |i| LaneOp::lower(i, c.width, c.simd, c.lmem_words);
            table.instr(pc).and_then(lower).unwrap_or_default()
        }));
        // (Re)build the fusible-block plan, which reads which ops can
        // fault from the ops just lowered, and drop any state from a
        // previous program.
        let ops = &self.lane_ops;
        self.fusion_plan = self.cfg.fusion.then(|| {
            let can_fault = |pc: usize| ops[pc].can_fault();
            crate::fusion::FusionPlan::build(
                table.len(),
                |pc| table.instr(pc),
                can_fault,
                &self.cfg,
            )
        });
        self.fusion_dyn = crate::fusion::FusionStats::default();
        self.fused_remaining.iter_mut().for_each(|r| *r = 0);
        if let Some(o) = &mut self.obs {
            o.program_load(self.cfg.threads, self.table.len());
        }
        Ok(())
    }

    /// The observer hook, created at the first attach.
    fn observers(&mut self) -> &mut Observers {
        let timing = &self.timing;
        self.obs.get_or_insert_with(|| Box::new(Observers::new(timing)))
    }

    /// Take one consumer off the hook; the hook goes with its last
    /// consumer, so a machine with nothing attached is back to one
    /// `Option` check per emission site.
    fn detach<T>(&mut self, take: impl FnOnce(&mut Observers) -> Option<T>) -> Option<T> {
        let o = self.obs.as_mut()?;
        let taken = take(o);
        if o.is_empty() {
            self.obs = None;
        }
        taken
    }

    /// Attach an observability sink; every subsequent
    /// [`crate::obs::TraceEvent`] is delivered to it. With nothing
    /// attached, instrumentation costs one `Option` check per site.
    pub fn attach_sink(&mut self, sink: SinkHandle) {
        self.observers().sink = Some(sink);
    }

    /// Detach the sink (returning it), e.g. to stop tracing mid-run.
    pub fn detach_sink(&mut self) -> Option<SinkHandle> {
        self.detach(|o| o.sink.take())
    }

    /// The attached sink, if any.
    pub fn sink(&self) -> Option<&SinkHandle> {
        self.obs.as_ref()?.sink.as_ref()
    }

    /// Attach a cycle-attribution profiler: every subsequent cycle is
    /// charged to a `(thread, pc, stall-reason)` triple (see
    /// [`crate::obs::profile`]). The row table is sized for the loaded
    /// program immediately, so the hot record path never allocates.
    pub fn attach_profiler(&mut self) {
        let profile = Profile::new(self.cfg.threads, self.table.len());
        self.observers().profiler = Some(profile);
    }

    /// The attached profiler's current attribution, if any. Finalized
    /// (drain charged, conservation exact) only after [`Machine::run`]
    /// returns.
    pub fn profile(&self) -> Option<&Profile> {
        self.obs.as_ref()?.profiler.as_ref()
    }

    /// Detach and return the profiler.
    pub fn take_profile(&mut self) -> Option<Profile> {
        self.detach(|o| o.profiler.take())
    }

    /// Attach a progress sampler: the run counters are snapshotted into
    /// the sampler's bounded ring (and streamed to its sink, if any)
    /// every `sampler.every()` cycles, plus once after the pipeline
    /// drains (the *final* sample, whose cycle equals `Stats::cycles`).
    /// With one attached but no sample due, a step costs one compare.
    pub fn attach_progress(&mut self, sampler: ProgressSampler) {
        self.observers().progress = Some(sampler);
    }

    /// The attached progress sampler, if any.
    pub fn progress(&self) -> Option<&ProgressSampler> {
        self.obs.as_ref()?.progress.as_ref()
    }

    /// Detach and return the progress sampler.
    pub fn take_progress(&mut self) -> Option<ProgressSampler> {
        self.detach(|o| o.progress.take())
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Pipeline timing parameters (b, r, unit latencies).
    pub fn timing(&self) -> Timing {
        self.timing
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Number of `thread`'s registers with an in-flight (not yet produced)
    /// writer at the current cycle.
    pub fn pending_writes(&self, thread: usize) -> usize {
        self.score.pending_writes(thread, self.cycle)
    }

    /// Host access to the PE array.
    pub fn array(&self) -> &PeArray {
        &self.array
    }

    /// Host mutable access to the PE array (data distribution).
    pub fn array_mut(&mut self) -> &mut PeArray {
        &mut self.array
    }

    /// Host read of a scalar register.
    pub fn sreg(&self, thread: usize, reg: usize) -> Word {
        self.sregs.read(thread, reg)
    }

    /// Host write of a scalar register.
    pub fn set_sreg(&mut self, thread: usize, reg: usize, v: Word) {
        self.sregs.write(thread, reg, v);
    }

    /// Host read of a scalar flag.
    pub fn sflag(&self, thread: usize, reg: usize) -> bool {
        self.sflags.read(thread, reg)
    }

    /// Host access to scalar data memory.
    pub fn smem(&self) -> &LocalMemory {
        &self.smem
    }

    /// Host mutable access to scalar data memory.
    pub fn smem_mut(&mut self) -> &mut LocalMemory {
        &mut self.smem
    }

    /// FNV-1a digest of the program-observable architectural state: the
    /// boot context's scalar and parallel registers and flags, plus the
    /// shared memories (scalar memory and every PE's local memory).
    ///
    /// Worker contexts are excluded deliberately: `tspawn` clears a
    /// context's registers at allocation, so residue left behind by an
    /// exited worker is invisible to software — but *which* physical
    /// context a worker landed in is allocation-order- and therefore
    /// schedule-dependent. On this footprint, race-free programs produce
    /// equal digests under every perturbation seed
    /// ([`MachineConfig::with_sched_seed`]); schedule-dependent programs
    /// diverge. Used by `mtasc lint --schedules N` and the
    /// `race_differential` test gate.
    pub fn arch_digest(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            v.to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for reg in 0..asc_isa::NUM_GPRS {
            h = mix(h, self.sregs.read(0, reg).0 as u64);
        }
        for flag in 0..asc_isa::NUM_FLAGS {
            h = mix(h, self.sflags.read(0, flag) as u64);
        }
        for w in self.smem.as_slice() {
            h = mix(h, w.0 as u64);
        }
        for reg in 0..asc_isa::NUM_GPRS {
            for w in self.array.gpr_plane(0, reg) {
                h = mix(h, w.0 as u64);
            }
        }
        for flag in 0..asc_isa::NUM_FLAGS {
            for w in self.array.flag_plane(0, flag) {
                h = mix(h, *w);
            }
        }
        let rows: Vec<&[Word]> = (0..self.cfg.lmem_words as u32)
            .map(|addr| self.array.lmem_row(addr).expect("in-range lmem address"))
            .collect();
        for pe in 0..self.cfg.num_pes {
            for row in &rows {
                h = mix(h, row[pe].0 as u64);
            }
        }
        h
    }

    /// True once the machine has halted or all threads have exited.
    pub fn finished(&self) -> bool {
        self.halted || !self.threads.any_live()
    }

    /// Allocate a thread context at `target` (used by `tspawn`): clears the
    /// context's registers, flags and scoreboard entries; the new thread
    /// first issues two cycles later (front-end fill).
    pub(crate) fn spawn_thread(&mut self, target: u32) -> Option<usize> {
        let tid = self.threads.alloc(target, self.cycle + 2)?;
        self.ibuf[tid] = 0;
        debug_assert_eq!(self.fused_remaining[tid], 0, "freed threads have no ghost issues");
        self.fused_remaining[tid] = 0;
        self.sregs.clear_thread(tid);
        self.sflags.clear_thread(tid);
        self.array.clear_thread(tid);
        self.score.clear_thread(tid);
        self.bubble[tid] = StallReason::BranchBubble;
        if let Some(o) = &self.obs {
            o.thread(self.cycle, tid, ThreadTransition::Spawned);
        }
        Some(tid)
    }

    /// Fetch the issue entry of the instruction at `pc` for `thread`.
    pub(crate) fn fetch(&self, thread: usize, pc: u32) -> Result<&IssueEntry, RunError> {
        match self.table.get(pc) {
            Some(Ok(e)) => Ok(e),
            Some(Err(cause)) => Err(RunError::IllegalInstruction { thread, pc, cause: *cause }),
            None => Err(RunError::PcOutOfRange { thread, pc, len: self.table.len() as u32 }),
        }
    }

    /// Stop the machine (emulator's `halt` path).
    pub(crate) fn force_halt(&mut self) {
        self.halted = true;
    }

    // ------------------------------------------------------------ stepping

    /// Advance the machine: issue one instruction if any thread is ready,
    /// otherwise consume the (possibly fast-forwarded) stall.
    pub fn step(&mut self) -> Result<Step, RunError> {
        self.advance()
    }

    /// One scheduler cycle, reporting it as an `O` (see [`Outcome`]).
    fn advance<O: Outcome>(&mut self) -> Result<O, RunError> {
        if self.finished() {
            return Ok(O::finished());
        }

        if let FetchModel::Finite { buffer_depth } = self.cfg.fetch {
            self.fetch_cycle(buffer_depth);
        }

        let step = match self.cfg.sched {
            SchedPolicy::FineGrain => self.step_fine(),
            SchedPolicy::CoarseGrain { switch_penalty } => self.step_coarse(switch_penalty),
        }?;
        if let Some(o) = &mut self.obs {
            o.step_end(self.cycle, &self.stats, self.threads.live_count());
        }
        Ok(step)
    }

    /// One cycle of the shared fetch unit: fill one instruction into the
    /// buffer of the next live thread with space (round-robin).
    fn fetch_cycle(&mut self, depth: usize) {
        let n = self.threads.len();
        let mut pick = None;
        for tid in self.threads.rotation_live(self.fetch_rotate) {
            let row = self.threads.get(tid);
            if self.ibuf[tid] >= depth {
                continue;
            }
            // don't fetch past the end of the program
            if (row.pc as usize + self.ibuf[tid]) >= self.table.len() {
                continue;
            }
            pick = Some(tid);
            break;
        }
        if let Some(tid) = pick {
            self.ibuf[tid] += 1;
            self.fetch_rotate = if tid + 1 == n { 0 } else { tid + 1 };
        }
    }

    /// Advance the schedule-perturbation generator (splitmix64). Callers
    /// guard on a non-zero seed, so seed-0 machines never touch it and
    /// stay bit-identical to builds without the hook.
    fn sched_next(&mut self) -> u64 {
        self.sched_rng = self.sched_rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.sched_rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Rotation offset after an issue by `tid`. The baseline hands
    /// priority to the next context; a non-zero seed jitters the hand-off
    /// point. Only the scan *order* among ready threads changes — the
    /// scheduler still issues the first ready thread it finds — so every
    /// perturbed run is a legal schedule of the same machine.
    /// Both wrap-arounds compare rather than divide: `tid` and `base` lie
    /// below the context count, so each sum lies below twice it.
    fn next_rotate(&mut self, tid: usize) -> usize {
        let n = self.threads.len();
        let base = if tid + 1 == n { 0 } else { tid + 1 };
        if self.sched_seed == 0 || n <= 1 {
            return base;
        }
        let to = base + self.sched_next() as usize % n;
        if to >= n {
            to - n
        } else {
            to
        }
    }

    fn step_fine<O: Outcome>(&mut self) -> Result<O, RunError> {
        let mut first_block: Option<Blocked> = None;
        let mut min_earliest = u64::MAX;
        // scan only the live contexts: a free slot can never issue, and
        // its NoThread block would contribute neither a first_block nor a
        // finite wake-up time
        let mut scan = self.threads.rotation_live(self.rotate);
        while let Some(tid) = scan.next() {
            match self.thread_ready(tid)? {
                Ok(()) => {
                    drop(scan);
                    self.issue(tid)?;
                    self.rotate = self.next_rotate(tid);
                    return Ok(O::issued(tid));
                }
                Err(b) => {
                    if b.reason != StallReason::NoThread && first_block.is_none() {
                        first_block = Some(b);
                    }
                    min_earliest = min_earliest.min(b.earliest);
                }
            }
        }
        drop(scan);
        self.consume_stall(first_block, min_earliest)
    }

    fn step_coarse<O: Outcome>(&mut self, penalty: u64) -> Result<O, RunError> {
        // Coarse-grain MT: run the current thread until it would stall
        // longer than the switch penalty, then flush and switch.
        match self.thread_ready(self.current)? {
            Ok(()) => {
                let tid = self.current;
                self.issue(tid)?;
                Ok(O::issued(tid))
            }
            Err(b) => {
                let wait = b.earliest.saturating_sub(self.cycle);
                let must_switch = matches!(b.reason, StallReason::NoThread | StallReason::WaitJoin)
                    || wait > penalty;
                if must_switch {
                    // Perturbation: jitter where the switch-target search
                    // starts and stretch the penalty by 0..=1 cycles (a
                    // front end refilling from a different buffer state).
                    // Both stay legal coarse-grain schedules.
                    let n = self.threads.len();
                    let mut start = (self.current + 1) % n;
                    let mut stretch = 0u64;
                    if self.sched_seed != 0 && n > 1 {
                        let j = self.sched_next();
                        start = (start + (j as usize >> 8) % n) % n;
                        stretch = j % 2;
                    }
                    // find another live thread to switch to
                    let current = self.current;
                    let next = self.threads.rotation(start).take(n).find(|&t| {
                        t != current && self.threads.get(t).state == ThreadState::Runnable
                    });
                    if let Some(next) = next {
                        self.current = next;
                        self.stats.thread_switches += 1;
                        let row = self.threads.get_mut(next);
                        row.next_issue = row.next_issue.max(self.cycle + penalty + stretch);
                        let next_pc = row.pc;
                        self.bubble[next] = StallReason::SwitchPenalty;
                        self.stats.record_stall(StallReason::SwitchPenalty, 1);
                        if let Some(o) = &mut self.obs {
                            // the switch cycle is the incoming thread's cost
                            let site = (next, next_pc, NO_PRODUCER_PC);
                            o.stall(self.cycle, StallReason::SwitchPenalty, 1, Some(site));
                        }
                        self.cycle += 1;
                        return Ok(O::stalled(StallReason::SwitchPenalty, 1));
                    }
                }
                // no switch possible (or stall short enough): wait in place
                let block = if b.reason == StallReason::NoThread { None } else { Some(b) };
                self.consume_stall(block, b.earliest)
            }
        }
    }

    /// Burn stall cycles (fast-forwarding long waits) and detect deadlock.
    fn consume_stall<O: Outcome>(
        &mut self,
        block: Option<Blocked>,
        min_earliest: u64,
    ) -> Result<O, RunError> {
        if min_earliest == u64::MAX {
            // Nothing will ever wake by time alone.
            if self.threads.any_live() && !self.threads.any_runnable() {
                return Err(RunError::Deadlock { cycle: self.cycle });
            }
            // All threads free — finished (handled by caller next step).
            return Ok(O::finished());
        }
        // the finite fetch model changes buffer state every cycle, so no
        // fast-forwarding there
        let delta = if matches!(self.cfg.fetch, FetchModel::Finite { .. }) {
            1
        } else {
            (min_earliest - self.cycle).max(1)
        };
        let reason = block.map(|b| b.reason).unwrap_or(StallReason::NoThread);
        self.stats.record_stall(reason, delta);
        if let Some(o) = &mut self.obs {
            let site = block.map(|b| (b.thread, b.pc, b.waiting_on));
            o.stall(self.cycle, reason, delta, site);
        }
        self.cycle += delta;
        Ok(O::stalled(reason, delta))
    }

    /// Can `tid` issue at the current cycle? Returns why not, if it
    /// cannot. Everything asked of the instruction itself is read from its
    /// issue-table entry.
    fn thread_ready(&self, tid: usize) -> Result<Result<(), Blocked>, RunError> {
        let row = *self.threads.get(tid);
        let blocked = |reason, earliest, waiting_on| Blocked {
            reason,
            earliest,
            thread: tid,
            pc: row.pc,
            waiting_on,
        };
        match row.state {
            ThreadState::Free => {
                return Ok(Err(blocked(StallReason::NoThread, u64::MAX, NO_PRODUCER_PC)))
            }
            ThreadState::WaitingJoin(_) => {
                return Ok(Err(blocked(StallReason::WaitJoin, u64::MAX, NO_PRODUCER_PC)))
            }
            ThreadState::Runnable => {}
        }
        if row.next_issue > self.cycle {
            return Ok(Err(blocked(self.bubble[tid], row.next_issue, NO_PRODUCER_PC)));
        }
        if matches!(self.cfg.fetch, FetchModel::Finite { .. }) && self.ibuf[tid] == 0 {
            return Ok(Err(blocked(StallReason::FetchEmpty, self.cycle + 1, NO_PRODUCER_PC)));
        }
        let pc = row.pc;
        let e = self.fetch(tid, pc)?;

        // Missing functional units are illegal instructions on this
        // machine.
        if let UnitUse::Missing(unit) = e.unit {
            return Err(RunError::MissingUnit { thread: tid, pc, unit });
        }

        // RAW hazards against the instruction status table: the worst
        // wait wins, and a tie keeps the earlier operand.
        let mut worst: Option<Blocked> = None;
        for (op, offset) in e.reads.into_iter().zip(e.consume) {
            // the scoreboard stores the first cycle at which a value may
            // be consumed (produce end + 1)
            let consume = self.cycle + u64::from(offset);
            let available = self.score.ready_time(tid, op);
            if available > consume {
                let producer = self.score.producer_class(tid, op);
                let reason = classify_hazard(producer, e.class, op.class);
                let earliest = self.cycle + (available - consume);
                let b = blocked(reason, earliest, self.score.producer_pc(tid, op));
                worst = Some(match worst {
                    Some(prev) if prev.earliest >= b.earliest => prev,
                    _ => b,
                });
            }
        }
        if let Some(b) = worst {
            return Ok(Err(b));
        }

        // WAW interlock: an instruction may not issue if an older, slower
        // writer of the same register would complete after it.
        let mine = self.cycle + e.avail;
        for op in e.writes {
            let pending = self.score.ready_time(tid, op);
            if pending > mine {
                return Ok(Err(blocked(
                    StallReason::DataHazard,
                    self.cycle + (pending - mine),
                    self.score.producer_pc(tid, op),
                )));
            }
        }

        // Structural hazards on the sequential multiplier/divider.
        if let UnitUse::Sequential(unit, _) = e.unit {
            let unit = &self.seq_units[unit as usize];
            let ex_start = self.timing.ex_start(e.class);
            if !unit.is_free(self.cycle + ex_start) {
                return Ok(Err(blocked(
                    StallReason::Structural,
                    // the unit frees at free_at(); our EX is `ex_start`
                    // after issue, so we could issue once free_at -
                    // ex_start arrives
                    unit.free_at().saturating_sub(ex_start).max(self.cycle + 1),
                    NO_PRODUCER_PC,
                )));
            }
        }

        Ok(Ok(()))
    }

    /// Issue the next instruction of `tid` (which [`Machine::thread_ready`]
    /// cleared): execute it functionally, record its writes in the
    /// scoreboard, and update thread/PC state.
    fn issue(&mut self, tid: usize) -> Result<(), RunError> {
        let pc = self.threads.get(tid).pc;
        // a copy, so the executor below may borrow the machine
        let e = *self.fetch(tid, pc)?;
        let (instr, class) = (e.instr, e.class);
        if let UnitUse::Sequential(unit, cycles) = e.unit {
            let ex = self.cycle + self.timing.ex_start(class);
            let claimed = self.seq_units[unit as usize].try_claim(ex, cycles);
            debug_assert!(claimed.is_some(), "structural check preceded issue");
            if let Some(o) = &self.obs {
                o.unit_busy(ex, tid, unit, cycles);
            }
        }
        if matches!(self.cfg.fetch, FetchModel::Finite { .. }) {
            debug_assert!(self.ibuf[tid] > 0);
            self.ibuf[tid] -= 1;
        }
        self.track_net_depth(class);

        // Block fusion: at the first instruction of a fusible block the
        // whole block's architectural effects are applied, one occupancy
        // group at a time;
        // the block's remaining instructions are "ghost issues" — they
        // still pass through the scheduler, scoreboard, stats and trace
        // one per cycle (timing is untouched), but skip execution. Every
        // fused instruction falls through, so the effect is always Next.
        let effect = if self.fused_remaining[tid] > 0 {
            self.fused_remaining[tid] -= 1;
            Effect::Next
        } else if let Some(len) = self.fusible_block_len(pc) {
            self.execute_block(tid, pc, len);
            self.fused_remaining[tid] = len - 1;
            Effect::Next
        } else {
            self.execute_instr(tid, pc, &instr)?
        };

        self.stats.record_issue(tid, class);

        // store "available from": the cycle after the result is produced
        let available = self.cycle + e.avail;
        for op in e.writes {
            self.score.record_write(tid, op, available, class, pc);
        }
        let retire = self.cycle + e.retire;
        self.stats.last_writeback = self.stats.last_writeback.max(retire);
        if let Some(o) = &mut self.obs {
            // retirement is resolved at issue: the retire event carries
            // the future WB cycle
            o.issue(self.cycle, tid, pc, &instr, class, retire);
        }

        let row = self.threads.get_mut(tid);
        match effect {
            Effect::Next => {
                row.pc = pc + 1;
                row.next_issue = self.cycle + 1;
            }
            Effect::Branch(target) => {
                row.pc = target;
                // branches resolve at the end of EX; the redirected fetch
                // reaches issue one cycle later than back-to-back
                row.next_issue = self.cycle + 2;
                self.bubble[tid] = StallReason::BranchBubble;
                // the buffered fall-through instructions are wrong-path
                self.ibuf[tid] = 0;
            }
            Effect::Halt => {
                row.pc = pc + 1;
                self.halted = true;
            }
            Effect::Exit => {
                let (cycle, obs) = (self.cycle, self.obs.as_deref());
                if let Some(o) = obs {
                    o.thread(cycle, tid, ThreadTransition::Exited);
                }
                self.threads.release(tid, |w| {
                    if let Some(o) = obs {
                        o.thread(cycle, w, ThreadTransition::Woken);
                    }
                });
            }
            Effect::JoinWait(target) => {
                let row = self.threads.get_mut(tid);
                row.pc = pc + 1;
                row.state = ThreadState::WaitingJoin(target);
                row.next_issue = self.cycle + 1;
                if let Some(o) = &self.obs {
                    o.thread(self.cycle, tid, ThreadTransition::JoinWait { target });
                }
            }
        }

        self.cycle += 1;
        Ok(())
    }

    /// Sample broadcast/reduction queue depths: drop completed operations,
    /// record the depth the new operation observes, then enqueue it.
    fn track_net_depth(&mut self, class: InstrClass) {
        if class == InstrClass::Scalar {
            return;
        }
        while self.bcast_inflight.front().is_some_and(|&done| done <= self.cycle) {
            self.bcast_inflight.pop_front();
        }
        self.stats.broadcast_depth.record(self.bcast_inflight.len() as u64);
        // the broadcast tree carries the instruction through B1..Bb
        self.bcast_inflight.push_back(self.cycle + self.timing.b);
        if class == InstrClass::Reduction {
            while self.red_inflight.front().is_some_and(|&done| done <= self.cycle) {
                self.red_inflight.pop_front();
            }
            self.stats.reduction_depth.record(self.red_inflight.len() as u64);
            // the reduction tree is occupied through R1..Rr, which start
            // after broadcast (b) and PE read (1)
            self.red_inflight.push_back(self.cycle + self.timing.b + 1 + self.timing.r);
        }
    }

    /// Emit a reduction-unit network event (called by the executor's
    /// reduction arms, which know which tree the operation uses).
    pub(crate) fn emit_net_reduce(&mut self, thread: usize, pc: u32, unit: NetUnit) {
        if let Some(o) = &mut self.obs {
            o.net_op(self.cycle, thread, pc, unit);
        }
    }

    /// Run until the program halts, every thread exits, or `max_cycles`
    /// elapse. Returns the final statistics.
    pub fn run(&mut self, max_cycles: u64) -> Result<Stats, RunError> {
        self.fuse_horizon = max_cycles;
        while !self.finished() {
            if self.cycle >= max_cycles {
                return Err(RunError::CycleLimit { limit: max_cycles });
            }
            self.advance::<()>()?;
        }
        // pipeline drain: cycles counted to the last writeback
        self.stats.cycles = self.stats.last_writeback.max(self.cycle) + 1;
        if let Some(o) = &mut self.obs {
            o.run_end(&self.stats, self.threads.live_count());
        }
        Ok(self.stats.clone())
    }
}

/// Classify a RAW stall by the classes of producer and consumer — the
/// taxonomy of Section 4.2.
fn classify_hazard(producer: InstrClass, consumer: InstrClass, side: RegClass) -> StallReason {
    match (producer, consumer) {
        (InstrClass::Reduction, InstrClass::Scalar) => StallReason::ReductionHazard,
        (InstrClass::Reduction, _) => StallReason::BroadcastReductionHazard,
        (InstrClass::Scalar, InstrClass::Parallel | InstrClass::Reduction)
            if matches!(side, RegClass::SGpr | RegClass::SFlag) =>
        {
            StallReason::BroadcastHazard
        }
        _ => StallReason::DataHazard,
    }
}

//! Lane-local instructions, lowered: the one executor of every parallel
//! instruction whose lane `l` reads and writes only lane `l`'s own state —
//! parallel ALU and compare operations with a register, immediate or
//! broadcast-scalar operand, `pmovs`, flag logic, local loads and stores,
//! and `pidx`.
//!
//! The machine lowers each one once, when it loads the program, into a
//! [`LaneOp`]: the resolved register indices, the pre-extended immediate,
//! the mask selector, and the executor with the [`crate::simd`] span kernel
//! it calls through, chosen for the machine's [`SimdLevel`]. A `palus`,
//! `pcmps` or `pmovs` samples the scalar register file at issue, so its
//! broadcast value is written into a copy of its op then
//! ([`LaneOp::with_scalar`]); `pmovs pd, s` is `padds pd, p0, s`, since
//! the add wraps at the width.
//!
//! Two `PeArray` entry points run the ops, and mark the commit map from
//! each op's destination before they sweep, after settling the planes it
//! touches that a reused spare left stale (`LaneOp::sources`; see
//! "Plane memory" in `array.rs`). `PeArray::run_op` runs one
//! instruction over its active set, an unfused issue: it reads the mask
//! words in place and calls the executor once per occupied 4096-lane
//! group on a window built for that group. `PeArray::run_block` runs a
//! fused block over the all-active mask, each op over a whole group before
//! the next op (see `tiles.rs`), latching each op's mask words just
//! before it runs on the group, so it sees what the block's earlier ops
//! wrote and may target its own mask flag. A sweep whose work passes the
//! worker pool's gate runs its groups on every host core (see
//! [`crate::workers`]).
//!
//! Every op reads its sources in place, as a PE reads its own register
//! file: a source that is the destination reaches the ALU kernel as
//! `None` (`TileWindow::split`), every kernel reads a tile's operands
//! before it writes that tile, and a per-lane load collects a tile's
//! values before it writes any of them, so a destination may alias its
//! sources. Writes to GPR 0 are dropped when the op is lowered, and flag
//! writes preserve the bitplane tail invariant.
//!
//! Only a `plw`/`psw` whose address is not known at load to lie inside
//! local memory can fault: one with a computed base, or one off the
//! hardwired-zero base whose row is outside `0..lmem_words`. Both lower to
//! the per-lane executors ([`LaneOp::can_fault`]), which stop at their
//! window's lowest faulting lane: the lanes below it apply, the lanes
//! above it do not. They bring no work to the pool's gate, so they run on
//! the caller, group by group in lane order, and a single instruction
//! stops at its lowest faulting active PE. Every other executor returns
//! nothing. The fusion plan admits no op that can fault, so a fused block,
//! like every sweep split across the pool, runs to completion.

use asc_isa::{AluOp, FlagOp, Instr, Mask, PFlag, PReg, Width, Word};

use crate::array::PeFault;
use crate::bitmask::{for_each_set, ActiveMask, OCC_GROUP_WORDS};
use crate::simd::{
    copy_masked, flag_span, index_span, select_alu_rr, select_alu_rs, select_cmp_rr, select_cmp_rs,
    AluRrKernel, AluRsKernel, CmpRrKernel, CmpRsKernel, SimdLevel,
};
use crate::tiles::{Plane, ThreadTiles, TileWindow, TILE_LANES};
use crate::workers::{self, GROUP_LANES};

/// A plane that a lowered op writes or reads: what the entry points mark
/// in the commit map before they sweep (`LaneOp::dst`), and what they
/// settle if a reused spare left it stale (`LaneOp::sources`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlaneRef {
    /// No plane (a write to GPR 0, or a `plw` into it; an unused source).
    None,
    /// A GPR plane of the issuing thread.
    Gpr(usize),
    /// A flag bitplane of the issuing thread.
    Flag(usize),
    /// One local-memory row, known statically and in range (a
    /// lane-uniform load or store).
    Row(usize),
    /// Per-lane-addressed local-memory rows, known only at run time: the
    /// commit map takes every row.
    Rows,
}

/// Which executor runs an op, with the span kernel or flag-logic op it
/// calls through. Each applies the op to a window of tiles under the op's
/// mask words (one per tile); the per-lane `Load` and `Store` report the
/// lowest faulting lane, if any, and are the only ones that can fault.
#[derive(Debug, Clone, Copy)]
enum Exec {
    Nop,
    AluRr(AluRrKernel),
    AluRs(AluRsKernel),
    CmpRr(CmpRrKernel),
    CmpRs(CmpRsKernel),
    Flag(FlagOp),
    Load,
    LoadUniform,
    Store,
    StoreUniform,
    Idx,
}

/// One lane-local instruction, lowered: operands resolved, immediate
/// pre-extended, mask selector kept, and the executor chosen with the
/// monomorphized span kernel it calls through. A uniform struct: each
/// executor reads only the fields it was lowered against.
#[derive(Debug, Clone, Copy)]
pub struct LaneOp {
    /// The executor.
    run: Exec,
    /// Destination register / flag index.
    d: u8,
    /// First source register / flag index.
    a: u8,
    /// Second source register / flag index.
    b: u8,
    /// The immediate, extended to the width, or the broadcast scalar.
    imm: Word,
    /// Local-memory offset, sign-extended once.
    off: i32,
    /// Mask selector.
    mask: Mask,
}

/// The do-nothing op: what writes to the zero register lower to.
const NOP: LaneOp =
    LaneOp { run: Exec::Nop, d: 0, a: 0, b: 0, imm: Word::ZERO, off: 0, mask: Mask::All };

impl Default for LaneOp {
    /// The op that does nothing.
    fn default() -> LaneOp {
        NOP
    }
}

impl LaneOp {
    /// Lower `i` for a machine of datapath width `w` at SIMD tier `level`
    /// with `lmem_words` rows of local memory (immediates are extended
    /// against `w`, and uniform rows checked against `lmem_words`, here,
    /// once), or `None` if it is not lane-local. A `palus`/`pcmps`/`pmovs`
    /// lowers with a zero scalar; the issuing machine writes the sampled
    /// one with [`LaneOp::with_scalar`].
    pub fn lower(i: &Instr, w: Width, level: SimdLevel, lmem_words: usize) -> Option<LaneOp> {
        use Instr::*;
        let (reg, flag) = (|r: PReg| r.index() as u8, |f: PFlag| f.index() as u8);
        let op = |run, d, a, b, mask| LaneOp { run, d, a, b, mask, ..NOP };
        let imm = |imm: i8| Word::from_i64(imm.into(), w);
        // the base register 0 is hardwired zero: every lane addresses one
        // row, which the uniform executors move as a contiguous slice if
        // it lies in local memory; any other access goes lane by lane and
        // can fault
        let in_row = |base: PReg, off: i8| {
            base.index() == 0 && (0..lmem_words as i64).contains(&i64::from(off))
        };
        let uniform = |base, off, one, each| if in_row(base, off) { one } else { each };
        Some(match *i {
            // writes to the zero register do nothing, nor does a load into
            // it that cannot fault
            PAlu { pd, .. }
            | PAluS { pd, .. }
            | PAluImm { pd, .. }
            | PMovS { pd, .. }
            | Pidx { pd, .. }
                if pd.index() == 0 =>
            {
                NOP
            }
            Plw { pd, base, off, .. } if pd.index() == 0 && in_row(base, off) => NOP,
            PAlu { op: o, pd, pa, pb, mask } => {
                op(Exec::AluRr(select_alu_rr(level, o)), reg(pd), reg(pa), reg(pb), mask)
            }
            PAluS { op: o, pd, pa, mask, .. } => {
                op(Exec::AluRs(select_alu_rs(level, o)), reg(pd), reg(pa), 0, mask)
            }
            PAluImm { op: o, pd, pa, imm: v, mask } => LaneOp {
                imm: imm(v),
                ..op(Exec::AluRs(select_alu_rs(level, o)), reg(pd), reg(pa), 0, mask)
            },
            PMovS { pd, mask, .. } => {
                op(Exec::AluRs(select_alu_rs(level, AluOp::Add)), reg(pd), 0, 0, mask)
            }
            PCmp { op: o, fd, pa, pb, mask } => {
                op(Exec::CmpRr(select_cmp_rr(level, o)), flag(fd), reg(pa), reg(pb), mask)
            }
            PCmpS { op: o, fd, pa, mask, .. } => {
                op(Exec::CmpRs(select_cmp_rs(level, o)), flag(fd), reg(pa), 0, mask)
            }
            PCmpImm { op: o, fd, pa, imm: v, mask } => LaneOp {
                imm: imm(v),
                ..op(Exec::CmpRs(select_cmp_rs(level, o)), flag(fd), reg(pa), 0, mask)
            },
            PFlagOp { op: o, fd, fa, fb, mask } => {
                op(Exec::Flag(o), flag(fd), flag(fa), flag(fb), mask)
            }
            Plw { pd, base, off, mask } => {
                let run = uniform(base, off, Exec::LoadUniform, Exec::Load);
                LaneOp { off: off.into(), ..op(run, reg(pd), reg(base), 0, mask) }
            }
            Psw { ps, base, off, mask } => {
                let run = uniform(base, off, Exec::StoreUniform, Exec::Store);
                LaneOp { off: off.into(), ..op(run, 0, reg(ps), reg(base), mask) }
            }
            Pidx { pd, mask } => op(Exec::Idx, reg(pd), 0, 0, mask),
            _ => return None,
        })
    }

    /// This op with `v` as its broadcast operand: the scalar a `palus`,
    /// `pcmps` or `pmovs` read from the scalar register file at issue.
    #[inline]
    pub fn with_scalar(self, v: Word) -> LaneOp {
        LaneOp { imm: v, ..self }
    }

    /// The mask selector the op runs under.
    #[inline]
    pub fn mask(&self) -> Mask {
        self.mask
    }

    /// Whether the op can fault: a `plw`/`psw` with a computed base, or off
    /// the zero base with a row outside local memory, both run by the
    /// per-lane executors. No other op can, and the fusion plan admits
    /// none that can, so a fused block never faults.
    #[inline]
    pub fn can_fault(&self) -> bool {
        matches!(self.run, Exec::Load | Exec::Store)
    }

    /// The plane this op writes.
    #[inline]
    pub(crate) fn dst(&self) -> PlaneRef {
        let (d, row) = (self.d as usize, self.off as usize);
        match self.run {
            Exec::Nop => PlaneRef::None,
            Exec::Load if self.d == 0 => PlaneRef::None,
            // off the zero base, a per-lane store's row is outside local
            // memory: it faults in its first active lane and writes nothing
            Exec::Store if self.b == 0 => PlaneRef::None,
            Exec::AluRr(_) | Exec::AluRs(_) | Exec::Load | Exec::LoadUniform | Exec::Idx => {
                PlaneRef::Gpr(d)
            }
            Exec::CmpRr(_) | Exec::CmpRs(_) | Exec::Flag(_) => PlaneRef::Flag(d),
            Exec::StoreUniform => PlaneRef::Row(row),
            Exec::Store => PlaneRef::Rows,
        }
    }

    /// The planes this op's executor reads raw, besides its mask and its
    /// destination's inactive lanes: each register or flag operand, the
    /// row of a uniform load, and every row for a per-lane load into a
    /// register, whose rows are known only at run time. Flag logic reads
    /// only the operands of its arity, so `pfclr` and `pfset` read none.
    #[inline]
    pub(crate) fn sources(&self) -> [PlaneRef; 2] {
        use PlaneRef::{Flag, Gpr, None, Row, Rows};
        let (a, b) = (self.a as usize, self.b as usize);
        match self.run {
            Exec::Nop | Exec::Idx => [None, None],
            Exec::AluRr(_) | Exec::CmpRr(_) | Exec::Store => [Gpr(a), Gpr(b)],
            Exec::AluRs(_) | Exec::CmpRs(_) | Exec::StoreUniform => [Gpr(a), None],
            Exec::Flag(f) => match f.arity() {
                0 => [None, None],
                1 => [Flag(a), None],
                _ => [Flag(a), Flag(b)],
            },
            // into GPR 0 only the addresses matter, for their faults
            Exec::Load if self.d == 0 => [Gpr(a), None],
            Exec::Load => [Gpr(a), Rows],
            Exec::LoadUniform => [Row(self.off as usize), None],
        }
    }

    /// What one instruction of this op brings to the worker pool's gate:
    /// its active lanes, flag logic its active flag words, and a per-lane
    /// load or store, which can fault and stops in lane order, nothing.
    #[inline]
    fn work(&self, active: &ActiveMask) -> usize {
        match self.run {
            Exec::Nop | Exec::Load | Exec::Store => 0,
            Exec::Flag(_) => workers::word_work(active),
            _ => workers::mask_work(active),
        }
    }

    /// Apply an op that cannot fault to `win` under `masks`, one word per
    /// tile of the window.
    #[inline(always)]
    fn exec(&self, win: &mut TileWindow<'_>, masks: &[u64]) {
        match self.run {
            Exec::Nop => {}
            Exec::AluRr(f) => k_alu_rr(self, f, win, masks),
            Exec::AluRs(f) => k_alu_rs(self, f, win, masks),
            Exec::CmpRr(f) => k_cmp_rr(self, f, win, masks),
            Exec::CmpRs(f) => k_cmp_rs(self, f, win, masks),
            Exec::Flag(f) => k_flag_op(self, f, win, masks),
            Exec::LoadUniform => k_load_uniform(self, win, masks),
            Exec::StoreUniform => k_store_uniform(self, win, masks),
            Exec::Idx => k_idx(self, win, masks),
            Exec::Load | Exec::Store => unreachable!("an op that can fault runs on the caller"),
        }
    }
}

/// Run one instruction's op over the active lanes of `active` (see
/// `PeArray::run_op`): one executor call per occupied group, on the
/// calling thread in lane order unless the sweep passes the pool's gate.
/// A per-lane load or store never passes it, and stops at the first group
/// that faults.
#[inline(always)]
pub(crate) fn run_op(
    tiles: &mut ThreadTiles<'_>,
    op: &LaneOp,
    active: &ActiveMask,
) -> Result<(), PeFault> {
    let lane_ops = op.work(active);
    if workers::splits(active.groups(), lane_ops) {
        split_op(tiles, op, active, lane_ops);
        return Ok(());
    }
    // on the caller, in lane order: one window per occupied group, built
    // directly, with the executor chosen once, outside the loop (a `for`
    // loop: `for_each` over the occupancy walk cost ~0.2 µs more per
    // sparse op at 2^20 lanes)
    #[inline(always)]
    fn each_group(
        tiles: &mut ThreadTiles<'_>,
        active: &ActiveMask,
        exec: impl Fn(&mut TileWindow<'_>, &[u64]),
    ) {
        let mut all = tiles.groups();
        for (g, masks) in active.occupied(all.groups()) {
            exec(&mut all.window(g), masks);
        }
    }
    match op.run {
        Exec::Nop => {}
        Exec::AluRr(f) => each_group(tiles, active, |w, m| k_alu_rr(op, f, w, m)),
        Exec::AluRs(f) => each_group(tiles, active, |w, m| k_alu_rs(op, f, w, m)),
        Exec::CmpRr(f) => each_group(tiles, active, |w, m| k_cmp_rr(op, f, w, m)),
        Exec::CmpRs(f) => each_group(tiles, active, |w, m| k_cmp_rs(op, f, w, m)),
        Exec::Flag(f) => each_group(tiles, active, |w, m| k_flag_op(op, f, w, m)),
        Exec::LoadUniform => each_group(tiles, active, |w, m| k_load_uniform(op, w, m)),
        Exec::StoreUniform => each_group(tiles, active, |w, m| k_store_uniform(op, w, m)),
        Exec::Idx => each_group(tiles, active, |w, m| k_idx(op, w, m)),
        // a per-lane load or store stops at the first group that faults
        Exec::Load | Exec::Store => {
            let per_lane = if let Exec::Load = op.run { k_load } else { k_store };
            let mut all = tiles.groups();
            for (g, masks) in active.occupied(all.groups()) {
                per_lane(op, &mut all.window(g), masks)?;
            }
        }
    }
    Ok(())
}

/// The split half of [`run_op`], out of line: each participant runs the
/// op, which cannot fault, over the occupied groups it claimed.
#[inline(never)]
fn split_op(tiles: &mut ThreadTiles<'_>, op: &LaneOp, active: &ActiveMask, lane_ops: usize) {
    tiles.sweep(lane_ops, |group| {
        for (g, masks) in active.occupied(group.groups()) {
            op.exec(&mut group.window(g), masks);
        }
    });
}

/// Run a fused block over every tile of `tiles`, one 4096-lane occupancy
/// group at a time, each op over the whole group before the next op (see
/// `PeArray::run_block`). A block whose work (groups × 4096 lanes × ops)
/// passes the worker pool's gate runs its groups on every host core, each
/// writing only its own tiles. No op of a block can fault.
///
/// Each op's mask words are latched just before the op runs on the group:
/// a flag mask as every earlier op of the block left it on the group, and
/// as it stood before the op's own writes. `Mask::All` reads the words of
/// `all` in place.
pub(crate) fn run_block(tiles: &mut ThreadTiles<'_>, ops: &[LaneOp], all: &ActiveMask) {
    let lane_ops = tiles.num_tiles().div_ceil(OCC_GROUP_WORDS) * GROUP_LANES * ops.len();
    // inlined into the serial call as well as into the split path
    tiles.sweep(
        lane_ops,
        #[inline(always)]
        |group| {
            let mut latch = [0u64; OCC_GROUP_WORDS];
            for (g, words) in all.occupied(group.groups()) {
                let mut win = group.window(g);
                for op in ops {
                    let masks = match op.mask {
                        Mask::All => words,
                        Mask::Flag(f) => {
                            let latched = &mut latch[..words.len()];
                            latched.copy_from_slice(win.flag_words(f.index()));
                            &*latched
                        }
                    };
                    op.exec(&mut win, masks);
                }
            }
        },
    );
}

/// Call `f(lane)` for every set bit of `word`, lowest first, with `base`
/// added to each bit index, and stop at the first `Err`, returning it.
#[inline]
fn try_each_set<E>(
    word: u64,
    base: usize,
    mut f: impl FnMut(usize) -> Result<(), E>,
) -> Result<(), E> {
    let mut m = word;
    while m != 0 {
        f(base + m.trailing_zeros() as usize)?;
        m &= m - 1;
    }
    Ok(())
}

// ------------------------------------------------------------- executors

/// The GPR plane of register index `r`.
#[inline]
fn gpr(r: u8) -> Plane {
    Plane::Gpr(r as usize)
}

#[inline(always)]
fn k_alu_rr(op: &LaneOp, f: AluRrKernel, win: &mut TileWindow<'_>, m: &[u64]) {
    let w = win.width();
    // a source that is the destination comes back `None`, and the kernel
    // reads it in place
    let (dst, [a, b]) = win.split(gpr(op.d), [gpr(op.a), gpr(op.b)]);
    f(dst, a, b, w, m);
}

#[inline(always)]
fn k_alu_rs(op: &LaneOp, f: AluRsKernel, win: &mut TileWindow<'_>, m: &[u64]) {
    let w = win.width();
    let (dst, [a]) = win.split(gpr(op.d), [gpr(op.a)]);
    f(dst, a, op.imm, w, m);
}

#[inline(always)]
fn k_cmp_rr(op: &LaneOp, f: CmpRrKernel, win: &mut TileWindow<'_>, m: &[u64]) {
    // The kernel merges into the flag words under the masks. The sources
    // are read in place: the destination is a flag plane.
    let w = win.width();
    let (fd, [], [a, b]) = win.split_flags(op.d as usize, [], [gpr(op.a), gpr(op.b)]);
    f(fd, a, b, w, m);
}

#[inline(always)]
fn k_cmp_rs(op: &LaneOp, f: CmpRsKernel, win: &mut TileWindow<'_>, m: &[u64]) {
    let w = win.width();
    let (fd, [], [a]) = win.split_flags(op.d as usize, [], [gpr(op.a)]);
    f(fd, a, op.imm, w, m);
}

#[inline(always)]
fn k_flag_op(op: &LaneOp, f: FlagOp, win: &mut TileWindow<'_>, m: &[u64]) {
    // a source that is the destination comes back `None` and is read from
    // the destination word before the write
    let (fd, [a, b], []) = win.split_flags(op.d as usize, [op.a as usize, op.b as usize], []);
    flag_span(f, fd, a, b, m);
}

/// Per-lane `plw`, stopping at the window's lowest faulting lane.
#[inline(never)]
fn k_load(op: &LaneOp, win: &mut TileWindow<'_>, masks: &[u64]) -> Result<(), PeFault> {
    // The base plane is read in place: each tile's lanes load into a
    // lane-indexed buffer, and the destination, which may be the base, is
    // written only after; a faulting lane and the lanes above it never
    // write it.
    let mut vals = [Word::ZERO; TILE_LANES];
    for (t, &mw) in masks.iter().enumerate().filter(|&(_, &mw)| mw != 0) {
        let first = t * TILE_LANES;
        let bb = win.gpr(op.a as usize);
        let mut ok = 0u64;
        let walk = try_each_set(mw, first, |lane| {
            vals[lane - first] =
                win.lmem_checked_read(bb[lane], op.off, lane).map_err(|f| (lane, f))?;
            ok |= 1 << (lane - first);
            Ok(())
        });
        if op.d != 0 && ok != 0 {
            let dst = win.gpr_mut(op.d as usize);
            for_each_set(ok, first, |lane| dst[lane] = vals[lane - first]);
        }
        walk.map_err(|(lane, fault)| PeFault { pe: win.base() + lane, fault })?;
    }
    Ok(())
}

/// `plw` with the hardwired-zero base and a row inside local memory, into
/// a register other than GPR 0 (see [`LaneOp::lower`]): every lane reads
/// the same row, so the masked lanes copy from the contiguous row slice.
#[inline(always)]
fn k_load_uniform(op: &LaneOp, win: &mut TileWindow<'_>, masks: &[u64]) {
    let (dst, [row]) = win.split(gpr(op.d), [Plane::Row(op.off as usize)]);
    copy_masked(dst, row.expect("a memory row is never a GPR plane"), masks);
}

/// Per-lane `psw`, stopping at the window's lowest faulting lane.
#[inline(never)]
fn k_store(op: &LaneOp, win: &mut TileWindow<'_>, masks: &[u64]) -> Result<(), PeFault> {
    for (t, &mw) in masks.iter().enumerate() {
        let walk = try_each_set(mw, t * TILE_LANES, |lane| {
            // a lane's value and base are read before its store, which
            // writes local memory, never a register
            let (v, b) = (win.gpr(op.a as usize)[lane], win.gpr(op.b as usize)[lane]);
            win.lmem_checked_write(b, op.off, lane, v).map_err(|f| (lane, f))
        });
        walk.map_err(|(lane, fault)| PeFault { pe: win.base() + lane, fault })?;
    }
    Ok(())
}

/// `psw` with the hardwired-zero base and a row inside local memory: the
/// masked lanes store into the contiguous row slice.
#[inline(always)]
fn k_store_uniform(op: &LaneOp, win: &mut TileWindow<'_>, masks: &[u64]) {
    let (row, [src]) = win.split(Plane::Row(op.off as usize), [gpr(op.a)]);
    copy_masked(row, src.expect("a GPR plane is never a memory row"), masks);
}

#[inline(always)]
fn k_idx(op: &LaneOp, win: &mut TileWindow<'_>, masks: &[u64]) {
    let (w, base) = (win.width(), win.base());
    index_span(win.gpr_mut(op.d as usize), base, w, masks);
}

/// Test support: lane-local instructions issued on a `PeArray` as the
/// machine issues them, lowered at the array's width and SIMD tier and run
/// through `PeArray::run_op`, one method per instruction family.
#[cfg(test)]
pub(crate) mod testing {
    use asc_isa::Mask::All;
    use asc_isa::{AluOp, CmpOp, FlagOp, Instr, PFlag, PReg, SReg, Width, Word};

    use super::LaneOp;
    use crate::array::{PeArray, PeFault};
    use crate::bitmask::ActiveMask;

    /// Second operand of an ALU or compare instruction.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Src {
        /// A parallel register (`palu`/`pcmp`).
        Reg(PReg),
        /// A broadcast scalar (`palus`/`pcmps`), written into the op at
        /// issue.
        Scalar(Word),
        /// An immediate: the reg–immediate form when the 8-bit field,
        /// sign-extended to the width, gives the value, else the broadcast
        /// form.
        Imm(Word),
    }

    /// The scalar register a broadcast form names; its value is written
    /// into the op at issue, so which one does not matter here.
    const SB: SReg = SReg::R0;

    /// `src` as the form it selects at width `w`: a register, an 8-bit
    /// immediate, or a broadcast scalar.
    fn form(src: Src, w: Width) -> Result<PReg, Result<i8, Word>> {
        match src {
            Src::Reg(r) => Ok(r),
            Src::Scalar(v) => Err(Err(v)),
            Src::Imm(v) => {
                let imm = v.to_u32() as u8 as i8;
                Err(if Word::from_i64(imm.into(), w) == v { Ok(imm) } else { Err(v) })
            }
        }
    }

    /// Issue lane-local instructions, unmasked by their own mask field,
    /// over the active set `on`.
    pub(crate) trait Issue {
        /// Lower `i`, write `scalar` into it if given (a `palus`, `pcmps`
        /// or `pmovs`), and run it for thread `t`.
        fn issue(
            &mut self,
            t: usize,
            i: Instr,
            scalar: Option<Word>,
            on: &ActiveMask,
        ) -> Result<(), PeFault>;

        /// The datapath width.
        fn width(&self) -> Width;

        /// `pd = pa op src` in the active PEs.
        fn alu(&mut self, t: usize, op: AluOp, pd: PReg, pa: PReg, src: Src, on: &ActiveMask) {
            let (i, v) = match form(src, self.width()) {
                Ok(pb) => (Instr::PAlu { op, pd, pa, pb, mask: All }, None),
                Err(Ok(imm)) => (Instr::PAluImm { op, pd, pa, imm, mask: All }, None),
                Err(Err(v)) => (Instr::PAluS { op, pd, pa, sb: SB, mask: All }, Some(v)),
            };
            self.issue(t, i, v, on).expect("an ALU op cannot fault");
        }

        /// `fd = pa cmp src` in the active PEs.
        fn cmp(&mut self, t: usize, op: CmpOp, fd: PFlag, pa: PReg, src: Src, on: &ActiveMask) {
            let (i, v) = match form(src, self.width()) {
                Ok(pb) => (Instr::PCmp { op, fd, pa, pb, mask: All }, None),
                Err(Ok(imm)) => (Instr::PCmpImm { op, fd, pa, imm, mask: All }, None),
                Err(Err(v)) => (Instr::PCmpS { op, fd, pa, sb: SB, mask: All }, Some(v)),
            };
            self.issue(t, i, v, on).expect("a compare cannot fault");
        }

        /// `pd = v` in the active PEs (`pmovs`).
        fn movs(&mut self, t: usize, pd: PReg, v: Word, on: &ActiveMask) {
            let i = Instr::PMovS { pd, sa: SB, mask: All };
            self.issue(t, i, Some(v), on).expect("pmovs cannot fault");
        }

        /// `fd = fa op fb` in the active PEs.
        fn flag_op(
            &mut self,
            t: usize,
            op: FlagOp,
            fd: PFlag,
            fa: PFlag,
            fb: PFlag,
            on: &ActiveMask,
        ) {
            let i = Instr::PFlagOp { op, fd, fa, fb, mask: All };
            self.issue(t, i, None, on).expect("flag logic cannot fault");
        }

        /// `pd = lmem[base + off]` in the active PEs.
        fn load(
            &mut self,
            t: usize,
            pd: PReg,
            base: PReg,
            off: i8,
            on: &ActiveMask,
        ) -> Result<(), PeFault> {
            self.issue(t, Instr::Plw { pd, base, off, mask: All }, None, on)
        }

        /// `lmem[base + off] = ps` in the active PEs.
        fn store(
            &mut self,
            t: usize,
            ps: PReg,
            base: PReg,
            off: i8,
            on: &ActiveMask,
        ) -> Result<(), PeFault> {
            self.issue(t, Instr::Psw { ps, base, off, mask: All }, None, on)
        }

        /// Each active PE's index into `pd`.
        fn pidx(&mut self, t: usize, pd: PReg, on: &ActiveMask) {
            self.issue(t, Instr::Pidx { pd, mask: All }, None, on).expect("pidx cannot fault");
        }
    }

    impl Issue for PeArray {
        fn issue(
            &mut self,
            t: usize,
            i: Instr,
            scalar: Option<Word>,
            on: &ActiveMask,
        ) -> Result<(), PeFault> {
            let c = self.config();
            let op =
                LaneOp::lower(&i, c.width, c.simd, c.lmem_words).expect("a lane-local instruction");
            self.run_op(t, &scalar.map_or(op, |v| op.with_scalar(v)), on)
        }

        fn width(&self) -> Width {
            self.config().width
        }
    }
}

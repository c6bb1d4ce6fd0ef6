//! Block compilation: lowering fusible basic blocks to specialized tile
//! kernels.
//!
//! The first generation of the fusion engine interpreted each block
//! instruction per tile — a full `match` over [`Instr`] with operand
//! decoding, immediate sign-extension and mask resolution repeated for
//! every (instruction, tile) pair. This module moves all of that to
//! *plan time*: when [`crate::fusion::FusionPlan::build`] discovers a
//! fusible run, each instruction is lowered once into a [`CompiledOp`] —
//! a flat record holding the resolved register indices, the pre-extended
//! immediate, the mask selector, and a monomorphized kernel function
//! pointer chosen for the machine's [`SimdLevel`]. Executing a block is
//! then a tight loop over the chain, one 4096-lane occupancy group at a
//! time and op by op within the group: one indirect call per (op, group),
//! no instruction decode, no per-op dispatch, and the dense ALU/compare
//! work runs through `asc-pe`'s span kernels (AVX2/AVX-512 when the host
//! has them, scalar otherwise), one call over the group's 64 tiles with
//! one mask word per tile. A chain large enough to pass the worker pool's
//! gate runs its groups on every host core ([`run_chain_tiles`]).
//!
//! Semantics are pinned to the instruction-major executor
//! (`Machine::execute_instr`). Every op reads its sources in place, as a
//! PE reads its own register file: a source that is the destination
//! reaches the ALU kernel as `None` ([`TileWindow::split`]), and every
//! kernel reads a tile's operands before it writes that tile, so a
//! destination may alias its sources. The runner latches an op's mask
//! words just before the op runs on a group, so the op sees what the
//! block's earlier ops wrote, and a compare or flag op may target its own
//! mask flag; a compare merges into its flag words under those masks and
//! reads its source words before it writes, and a per-lane load collects
//! a tile's values before it writes any of the tile's destination lanes,
//! so it may overwrite its own base. Writes to GPR 0 are dropped at
//! compile time, flag writes preserve the bitplane tail invariant, and
//! memory faults report the lowest faulting lane of the earliest faulting
//! instruction, over all groups, while non-faulting lanes still apply. The
//! `fusion_is_bit_identical` differential suite holds this equivalence
//! for every (fusion × SIMD) combination, and `asc_pe::simd`'s tests pin
//! the in-place reads of every kernel against a lane-by-lane oracle.

use std::sync::Mutex;

use asc_isa::{FlagOp, Instr, Mask, Width, Word};
use asc_pe::bitmask::{for_each_set, OCC_GROUP_WORDS};
use asc_pe::simd::{
    copy_masked, flag_span, index_span, select_alu_rr, select_alu_rs, select_cmp_rr, select_cmp_rs,
    AluRrKernel, AluRsKernel, CmpRrKernel, CmpRsKernel, SimdLevel,
};
use asc_pe::workers::GROUP_LANES;
use asc_pe::{ActiveMask, PeFault, Plane, ThreadTiles, TileWindow, TILE_LANES};

/// What a compiled op writes — recorded at compile time so the fusion
/// engine can mark plane commitment (lazy-materialization telemetry)
/// without decoding anything at execution time. `LmemRows` is the
/// per-lane-addressed store, whose rows are only known at runtime; the
/// commit map treats it as "whole local memory" (conservative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DstKind {
    /// No architectural plane write (nop / scalar slot).
    None,
    /// A GPR plane of the issuing thread.
    Gpr(u8),
    /// A flag bitplane of the issuing thread.
    Flag(u8),
    /// One statically known local-memory row (uniform store).
    LmemRow(i32),
    /// Per-lane-addressed local-memory rows.
    LmemRows,
}

/// Executor of one compiled op: applies the op to a window of tiles under
/// the op's mask words (one per tile, latched by the runner) and reports
/// the lowest faulting lane, if any.
pub(crate) type TileKernel = fn(&CompiledOp, &mut TileWindow<'_>, &[u64]) -> Option<PeFault>;

/// One block instruction, lowered: operands resolved, immediate
/// pre-extended, mask selector latched, and the executor (plus the dense
/// ALU/compare kernel it calls through) bound to monomorphized function
/// pointers. A uniform struct rather than an enum so the tile loop is
/// dispatch-free: `(op.run)(op, ...)` — each executor reads only the
/// fields it was compiled against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledOp {
    /// The specialized tile executor.
    run: TileKernel,
    /// Dense reg–reg ALU kernel (meaningful only to the ALU executors).
    alu_rr: AluRrKernel,
    /// Dense reg–scalar ALU kernel (broadcast/immediate form).
    alu_rs: AluRsKernel,
    /// Dense reg–reg compare kernel.
    cmp_rr: CmpRrKernel,
    /// Dense reg–scalar compare kernel.
    cmp_rs: CmpRsKernel,
    /// Flag-logic op (flag executor only).
    fop: FlagOp,
    /// Destination register / flag index.
    d: u8,
    /// First source register / flag index.
    a: u8,
    /// Second source register / flag index.
    b: u8,
    /// Resolved broadcast immediate.
    imm: Word,
    /// Local-memory offset, sign-extended once.
    off: i32,
    /// Mask selector, latched by the runner just before the op runs on a
    /// group: the op sees the words every earlier op of the block left,
    /// and an op that overwrites its own mask flag still sees the
    /// pre-write words.
    mask: Mask,
    /// The plane this op writes (commit-map telemetry).
    dst: DstKind,
}

/// Placeholder for an unused kernel slot — never invoked.
fn no_alu_rr(_: &mut [Word], _: Option<&[Word]>, _: Option<&[Word]>, _: Width, _: &[u64]) {
    unreachable!("ALU rr kernel slot unused by this compiled op");
}
fn no_alu_rs(_: &mut [Word], _: Option<&[Word]>, _: Word, _: Width, _: &[u64]) {
    unreachable!("ALU rs kernel slot unused by this compiled op");
}
fn no_cmp_rr(_: &mut [u64], _: &[Word], _: &[Word], _: Width, _: &[u64]) {
    unreachable!("compare rr kernel slot unused by this compiled op");
}
fn no_cmp_rs(_: &mut [u64], _: &[Word], _: Word, _: Width, _: &[u64]) {
    unreachable!("compare rs kernel slot unused by this compiled op");
}

/// The do-nothing op: what writes to the zero register compile to.
const NOP: CompiledOp = CompiledOp {
    run: k_nop,
    alu_rr: no_alu_rr,
    alu_rs: no_alu_rs,
    cmp_rr: no_cmp_rr,
    cmp_rs: no_cmp_rs,
    fop: FlagOp::Mov,
    d: 0,
    a: 0,
    b: 0,
    imm: Word::ZERO,
    off: 0,
    mask: Mask::All,
    dst: DstKind::None,
};

impl CompiledOp {
    /// Lower one fusible instruction for a machine at `level`. `w` is the
    /// datapath width (immediates are extended against it here, once).
    pub(crate) fn compile(i: &Instr, w: Width, level: SimdLevel) -> CompiledOp {
        use Instr::*;
        match *i {
            PAlu { op, pd, pa, pb, mask } => {
                if pd.index() == 0 {
                    return NOP;
                }
                CompiledOp {
                    run: k_alu_rr,
                    alu_rr: select_alu_rr(level, op),
                    d: pd.index() as u8,
                    a: pa.index() as u8,
                    b: pb.index() as u8,
                    mask,
                    dst: DstKind::Gpr(pd.index() as u8),
                    ..NOP
                }
            }
            PAluImm { op, pd, pa, imm, mask } => {
                if pd.index() == 0 {
                    return NOP;
                }
                CompiledOp {
                    run: k_alu_rs,
                    alu_rs: select_alu_rs(level, op),
                    d: pd.index() as u8,
                    a: pa.index() as u8,
                    imm: Word::from_i64(imm as i64, w),
                    mask,
                    dst: DstKind::Gpr(pd.index() as u8),
                    ..NOP
                }
            }
            PCmp { op, fd, pa, pb, mask } => CompiledOp {
                run: k_cmp_rr,
                cmp_rr: select_cmp_rr(level, op),
                d: fd.index() as u8,
                a: pa.index() as u8,
                b: pb.index() as u8,
                mask,
                dst: DstKind::Flag(fd.index() as u8),
                ..NOP
            },
            PCmpImm { op, fd, pa, imm, mask } => CompiledOp {
                run: k_cmp_rs,
                cmp_rs: select_cmp_rs(level, op),
                d: fd.index() as u8,
                a: pa.index() as u8,
                imm: Word::from_i64(imm as i64, w),
                mask,
                dst: DstKind::Flag(fd.index() as u8),
                ..NOP
            },
            PFlagOp { op, fd, fa, fb, mask } => CompiledOp {
                run: k_flag_op,
                fop: op,
                d: fd.index() as u8,
                a: fa.index() as u8,
                b: fb.index() as u8,
                mask,
                dst: DstKind::Flag(fd.index() as u8),
                ..NOP
            },
            Plw { pd, base, off, mask } => CompiledOp {
                // Base register 0 is hardwired zero: the whole tile reads
                // one row — compile straight to the contiguous-row kernel.
                run: if base.index() == 0 { k_load_uniform } else { k_load },
                d: pd.index() as u8,
                a: base.index() as u8,
                off: off as i32,
                mask,
                dst: if pd.index() == 0 { DstKind::None } else { DstKind::Gpr(pd.index() as u8) },
                ..NOP
            },
            Psw { ps, base, off, mask } => CompiledOp {
                run: if base.index() == 0 { k_store_uniform } else { k_store },
                a: ps.index() as u8,
                b: base.index() as u8,
                off: off as i32,
                mask,
                dst: if base.index() == 0 {
                    DstKind::LmemRow(off as i32)
                } else {
                    DstKind::LmemRows
                },
                ..NOP
            },
            Pidx { pd, mask } => {
                if pd.index() == 0 {
                    return NOP;
                }
                CompiledOp {
                    run: k_idx,
                    d: pd.index() as u8,
                    mask,
                    dst: DstKind::Gpr(pd.index() as u8),
                    ..NOP
                }
            }
            _ => unreachable!("non-fusible instruction reached the block compiler: {i:?}"),
        }
    }

    /// The plane this op writes (commit-map telemetry).
    pub(crate) fn dst(&self) -> DstKind {
        self.dst
    }

    /// Whether this instruction compiles to a vector (non-scalar) kernel
    /// at `level` — the `simd_ops` statistic.
    pub(crate) fn vectorizes(i: &Instr, level: SimdLevel) -> bool {
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
}

/// The lowest active lane of a window's mask words, as a lane index
/// within the window.
#[inline]
fn first_masked(masks: &[u64]) -> Option<usize> {
    let t = masks.iter().position(|&mw| mw != 0)?;
    Some(t * TILE_LANES + masks[t].trailing_zeros() as usize)
}

// ------------------------------------------------------------- executors

fn k_nop(_op: &CompiledOp, _win: &mut TileWindow<'_>, _masks: &[u64]) -> Option<PeFault> {
    None
}

/// The GPR plane of register index `r`.
#[inline]
fn gpr(r: u8) -> Plane {
    Plane::Gpr(r as usize)
}

fn k_alu_rr(op: &CompiledOp, win: &mut TileWindow<'_>, masks: &[u64]) -> Option<PeFault> {
    let w = win.width();
    // a source that is the destination comes back `None`, and the kernel
    // reads it in place
    let (dst, [a, b]) = win.split(gpr(op.d), [gpr(op.a), gpr(op.b)]);
    (op.alu_rr)(dst, a, b, w, masks);
    None
}

fn k_alu_rs(op: &CompiledOp, win: &mut TileWindow<'_>, masks: &[u64]) -> Option<PeFault> {
    let w = win.width();
    let (dst, [a]) = win.split(gpr(op.d), [gpr(op.a)]);
    (op.alu_rs)(dst, a, op.imm, w, masks);
    None
}

fn k_cmp_rr(op: &CompiledOp, win: &mut TileWindow<'_>, masks: &[u64]) -> Option<PeFault> {
    // The kernel merges into the flag words under the masks. The sources
    // are read in place: the destination is a flag plane.
    let w = win.width();
    let (fd, [], [a, b]) = win.split_flags(op.d as usize, [], [gpr(op.a), gpr(op.b)]);
    (op.cmp_rr)(fd, a, b, w, masks);
    None
}

fn k_cmp_rs(op: &CompiledOp, win: &mut TileWindow<'_>, masks: &[u64]) -> Option<PeFault> {
    let w = win.width();
    let (fd, [], [a]) = win.split_flags(op.d as usize, [], [gpr(op.a)]);
    (op.cmp_rs)(fd, a, op.imm, w, masks);
    None
}

fn k_flag_op(op: &CompiledOp, win: &mut TileWindow<'_>, masks: &[u64]) -> Option<PeFault> {
    // a source that is the destination comes back `None` and is read from
    // the destination word before the write
    let (fd, [a, b], []) = win.split_flags(op.d as usize, [op.a as usize, op.b as usize], []);
    flag_span(op.fop, fd, a, b, masks);
    None
}

fn k_load(op: &CompiledOp, win: &mut TileWindow<'_>, masks: &[u64]) -> Option<PeFault> {
    // The base plane is read in place: each tile's loop loads into a
    // lane-indexed buffer and writes the destination, which may be the
    // base, only after it; faulting lanes never write it.
    let mut vals = [Word::ZERO; TILE_LANES];
    let mut fault: Option<PeFault> = None;
    for (t, &mw) in masks.iter().enumerate().filter(|&(_, &mw)| mw != 0) {
        let first = t * TILE_LANES;
        let bb = win.gpr(op.a as usize);
        let mut ok = 0u64;
        for_each_set(mw, first, |lane| match win.lmem_checked_read(bb[lane], op.off, lane) {
            Ok(v) => {
                vals[lane - first] = v;
                ok |= 1 << (lane - first);
            }
            Err(f) => {
                if fault.is_none() {
                    fault = Some(PeFault { pe: win.base() + lane, fault: f });
                }
            }
        });
        if op.d != 0 && ok != 0 {
            let dst = win.gpr_mut(op.d as usize);
            for_each_set(ok, first, |lane| dst[lane] = vals[lane - first]);
        }
    }
    fault
}

/// `plw` with the hardwired-zero base: every lane reads the same row, so
/// one bounds check covers the window and the masked lanes copy from the
/// contiguous row slice. Fault identity matches the per-lane kernel: all
/// active lanes fault together, so the lowest active lane is reported.
fn k_load_uniform(op: &CompiledOp, win: &mut TileWindow<'_>, masks: &[u64]) -> Option<PeFault> {
    let first = first_masked(masks)?;
    match win.lmem_addr(Word::ZERO, op.off, false) {
        Err(f) => Some(PeFault { pe: win.base() + first, fault: f }),
        Ok(addr) => {
            if op.d != 0 {
                let (dst, [row]) = win.split(gpr(op.d), [Plane::Row(addr)]);
                copy_masked(dst, row.expect("a memory row is never a GPR plane"), masks);
            }
            None
        }
    }
}

fn k_store(op: &CompiledOp, win: &mut TileWindow<'_>, masks: &[u64]) -> Option<PeFault> {
    let mut fault: Option<PeFault> = None;
    for (t, &mw) in masks.iter().enumerate() {
        for_each_set(mw, t * TILE_LANES, |lane| {
            // a lane's value and base are read before its store, which
            // writes local memory, never a register
            let (v, b) = (win.gpr(op.a as usize)[lane], win.gpr(op.b as usize)[lane]);
            if let Err(f) = win.lmem_checked_write(b, op.off, lane, v) {
                if fault.is_none() {
                    fault = Some(PeFault { pe: win.base() + lane, fault: f });
                }
            }
        });
    }
    fault
}

/// `psw` with the hardwired-zero base: one bounds check, then the masked
/// lanes store into the contiguous row slice.
fn k_store_uniform(op: &CompiledOp, win: &mut TileWindow<'_>, masks: &[u64]) -> Option<PeFault> {
    let first = first_masked(masks)?;
    match win.lmem_addr(Word::ZERO, op.off, true) {
        Err(f) => Some(PeFault { pe: win.base() + first, fault: f }),
        Ok(addr) => {
            let (row, [src]) = win.split(Plane::Row(addr), [gpr(op.a)]);
            copy_masked(row, src.expect("a GPR plane is never a memory row"), masks);
            None
        }
    }
}

fn k_idx(op: &CompiledOp, win: &mut TileWindow<'_>, masks: &[u64]) -> Option<PeFault> {
    let (w, base) = (win.width(), win.base());
    index_span(win.gpr_mut(op.d as usize), base, w, masks);
    None
}

// ------------------------------------------------------------ execution

/// Run a compiled chain over every tile of `tiles`, one 4096-lane
/// occupancy group at a time: each op over the whole group before the
/// next op (op-major within a group), so each op is one executor call,
/// and one span-kernel call, per group. A chain whose work (groups × 4096
/// lanes × ops) passes the worker pool's gate runs its groups on every
/// host core (see [`asc_pe::workers`]), each writing only its own tiles.
///
/// Each op's mask words are latched just before the op runs on the
/// group: a flag mask as every earlier op of the block left it on the
/// group, and as it stood before the op's own writes. `Mask::All` reads
/// the all-active words of `all` (filled once per block) in place.
///
/// Returns the fault to attribute: the lowest `(op index, PE)` over all
/// groups — the same identity the instruction-major executor would have
/// stopped at. Every non-faulting lane of every op still applies.
pub(crate) fn run_chain_tiles(
    chain: &[CompiledOp],
    tiles: &mut ThreadTiles<'_>,
    all: &ActiveMask,
) -> Option<(u32, PeFault)> {
    let lane_ops = tiles.num_pes().div_ceil(GROUP_LANES) * GROUP_LANES * chain.len();
    let lowest: Mutex<Option<(u32, PeFault)>> = Mutex::new(None);
    // inlined into the serial call as well as into the split path
    tiles.for_each_group(
        lane_ops,
        #[inline(always)]
        |group| {
            let mut fault: Option<(u32, PeFault)> = None;
            let mut latch = [0u64; OCC_GROUP_WORDS];
            for span in group.groups() {
                let mut win = group.window(span.clone());
                for (k, op) in chain.iter().enumerate() {
                    let masks = match op.mask {
                        Mask::All => &all.words()[span.clone()],
                        Mask::Flag(f) => {
                            let words = &mut latch[..span.len()];
                            words.copy_from_slice(win.flag_words(f.index()));
                            &*words
                        }
                    };
                    if let Some(f) = (op.run)(op, &mut win, masks) {
                        // groups run in lane order and an op's executor
                        // reports its lowest faulting lane, so the first
                        // fault of an op here is its lowest faulting PE here
                        if fault.is_none_or(|(fk, _)| (k as u32) < fk) {
                            fault = Some((k as u32, f));
                        }
                    }
                }
            }
            if let Some((k, f)) = fault {
                let mut lowest = lowest.lock().expect("no group panics holding the fault lock");
                if lowest.is_none_or(|(lk, lf)| (k, f.pe) < (lk, lf.pe)) {
                    *lowest = Some((k, f));
                }
            }
        },
    );
    lowest.into_inner().expect("no group panics holding the fault lock")
}

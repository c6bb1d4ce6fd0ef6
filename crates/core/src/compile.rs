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
//! then a tight loop over the chain: one indirect call per (op, tile),
//! no instruction decode, no per-op dispatch, and the dense ALU/compare
//! work runs through `asc-pe`'s vector kernels (AVX2/AVX-512 when the
//! host has them, scalar otherwise). The tiles are taken one 4096-lane
//! occupancy group at a time, and a chain large enough to pass the
//! worker pool's gate runs its groups on every host core
//! ([`run_chain_tiles`]).
//!
//! Semantics are pinned to the instruction-major executor
//! (`Machine::execute_instr`): sources are latched before destinations
//! are written (so a destination may alias its sources and a compare may
//! target its own mask flag), writes to GPR 0 are dropped at compile
//! time, flag writes preserve the bitplane tail invariant, and memory
//! faults report the lowest faulting lane of the earliest faulting
//! instruction, over all groups, while non-faulting lanes still apply. The
//! `fusion_is_bit_identical` differential suite holds this equivalence
//! for every (fusion × SIMD) combination.

use std::sync::Mutex;

use asc_isa::{FlagOp, Instr, Mask, Width, Word};
use asc_pe::simd::{
    select_alu_rr, select_alu_rs, select_cmp_rr, select_cmp_rs, AluRrKernel, AluRsKernel,
    CmpRrKernel, CmpRsKernel, SimdLevel,
};
use asc_pe::workers::GROUP_LANES;
use asc_pe::{ActiveMask, PeFault, ThreadTiles, TileWindow, TILE_LANES};

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

/// Tile executor of one compiled op: applies the op to one 64-PE window
/// and reports the lowest faulting lane, if any.
pub(crate) type TileKernel = fn(&CompiledOp, &mut TileWindow<'_>, &ActiveMask) -> Option<PeFault>;

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
    /// Mask selector, resolved per tile at execution order (an op may
    /// overwrite its own mask flag; later tiles must still see the
    /// pre-write word on *their* tile, which per-tile resolution gives).
    mask: Mask,
    /// The plane this op writes (commit-map telemetry).
    dst: DstKind,
}

/// Placeholder for an unused kernel slot — never invoked.
fn no_alu_rr(_: &mut [Word], _: &[Word], _: &[Word], _: Width, _: u64) {
    unreachable!("ALU rr kernel slot unused by this compiled op");
}
fn no_alu_rs(_: &mut [Word], _: &[Word], _: Word, _: Width, _: u64) {
    unreachable!("ALU rs kernel slot unused by this compiled op");
}
fn no_cmp_rr(_: &[Word], _: &[Word], _: Width) -> u64 {
    unreachable!("compare rr kernel slot unused by this compiled op");
}
fn no_cmp_rs(_: &[Word], _: Word, _: Width) -> u64 {
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

/// The mask word governing an op on this tile, latched before the op's
/// writes (an instruction that overwrites its own mask flag must see the
/// pre-write word). `Mask::All` reads the machine's all-active
/// [`ActiveMask`] (filled once per block) through its tile-scoped view.
#[inline]
fn mask_word(mask: Mask, win: &TileWindow<'_>, all: &ActiveMask) -> u64 {
    match mask {
        Mask::All => all.tile_word(win.tile()),
        Mask::Flag(f) => win.flag_word(f.index()),
    }
}

/// Visit every masked lane in ascending order.
#[inline]
fn for_each_masked(mw: u64, mut f: impl FnMut(usize)) {
    let mut m = mw;
    while m != 0 {
        f(m.trailing_zeros() as usize);
        m &= m - 1;
    }
}

// ------------------------------------------------------------- executors

fn k_nop(_op: &CompiledOp, _win: &mut TileWindow<'_>, _all: &ActiveMask) -> Option<PeFault> {
    None
}

fn k_alu_rr(op: &CompiledOp, win: &mut TileWindow<'_>, all: &ActiveMask) -> Option<PeFault> {
    let mw = mask_word(op.mask, win, all);
    if mw != 0 {
        let w = win.width();
        let (mut a, mut b) = ([Word::ZERO; TILE_LANES], [Word::ZERO; TILE_LANES]);
        let n = win.lanes();
        win.copy_gprs(op.a as usize, &mut a);
        win.copy_gprs(op.b as usize, &mut b);
        (op.alu_rr)(win.gpr_mut(op.d as usize), &a[..n], &b[..n], w, mw);
    }
    None
}

fn k_alu_rs(op: &CompiledOp, win: &mut TileWindow<'_>, all: &ActiveMask) -> Option<PeFault> {
    let mw = mask_word(op.mask, win, all);
    if mw != 0 {
        let w = win.width();
        let mut a = [Word::ZERO; TILE_LANES];
        let n = win.lanes();
        win.copy_gprs(op.a as usize, &mut a);
        (op.alu_rs)(win.gpr_mut(op.d as usize), &a[..n], op.imm, w, mw);
    }
    None
}

fn k_cmp_rr(op: &CompiledOp, win: &mut TileWindow<'_>, all: &ActiveMask) -> Option<PeFault> {
    let mw = mask_word(op.mask, win, all);
    if mw != 0 {
        // The kernel computes all lanes (compares are side-effect free);
        // inactive lanes are dropped by the merge. The sources are read in
        // place: the destination is a flag word.
        let res = (op.cmp_rr)(win.gpr(op.a as usize), win.gpr(op.b as usize), win.width());
        let old = win.flag_word(op.d as usize);
        win.set_flag_word(op.d as usize, (old & !mw) | (res & mw));
    }
    None
}

fn k_cmp_rs(op: &CompiledOp, win: &mut TileWindow<'_>, all: &ActiveMask) -> Option<PeFault> {
    let mw = mask_word(op.mask, win, all);
    if mw != 0 {
        let res = (op.cmp_rs)(win.gpr(op.a as usize), op.imm, win.width());
        let old = win.flag_word(op.d as usize);
        win.set_flag_word(op.d as usize, (old & !mw) | (res & mw));
    }
    None
}

fn k_flag_op(op: &CompiledOp, win: &mut TileWindow<'_>, all: &ActiveMask) -> Option<PeFault> {
    let mw = mask_word(op.mask, win, all);
    if mw != 0 {
        let a = win.flag_word(op.a as usize);
        let b = win.flag_word(op.b as usize);
        let old = win.flag_word(op.d as usize);
        win.set_flag_word(op.d as usize, (old & !mw) | (op.fop.apply_word(a, b) & mw));
    }
    None
}

fn k_load(op: &CompiledOp, win: &mut TileWindow<'_>, all: &ActiveMask) -> Option<PeFault> {
    let mw = mask_word(op.mask, win, all);
    if mw == 0 {
        return None;
    }
    let mut bb = [Word::ZERO; TILE_LANES];
    win.copy_gprs(op.a as usize, &mut bb);
    // Load into a lane-indexed latch first: faulting lanes never write
    // the destination, and the destination plane may alias the base.
    let mut vals = [Word::ZERO; TILE_LANES];
    let mut ok = 0u64;
    let mut fault: Option<PeFault> = None;
    for_each_masked(mw, |j| match win.lmem_checked_read(bb[j], op.off, j) {
        Ok(v) => {
            vals[j] = v;
            ok |= 1 << j;
        }
        Err(f) => {
            if fault.is_none() {
                fault = Some(PeFault { pe: win.base() + j, fault: f });
            }
        }
    });
    if op.d != 0 && ok != 0 {
        let dst = win.gpr_mut(op.d as usize);
        for_each_masked(ok, |j| dst[j] = vals[j]);
    }
    fault
}

/// `plw` with the hardwired-zero base: every lane reads the same row, so
/// one bounds check covers the tile and the masked lanes copy from the
/// contiguous row slice. Fault identity matches the per-lane kernel: all
/// active lanes fault together, so the lowest active lane is reported.
fn k_load_uniform(op: &CompiledOp, win: &mut TileWindow<'_>, all: &ActiveMask) -> Option<PeFault> {
    let mw = mask_word(op.mask, win, all);
    if mw == 0 {
        return None;
    }
    match win.lmem_addr(Word::ZERO, op.off, false) {
        Err(f) => Some(PeFault { pe: win.base() + mw.trailing_zeros() as usize, fault: f }),
        Ok(addr) => {
            if op.d != 0 {
                let mut row = [Word::ZERO; TILE_LANES];
                let n = win.lanes();
                row[..n].copy_from_slice(win.lmem_row(addr));
                let full = win.full_word();
                let dst = win.gpr_mut(op.d as usize);
                if mw == full {
                    dst.copy_from_slice(&row[..n]);
                } else {
                    for_each_masked(mw, |j| dst[j] = row[j]);
                }
            }
            None
        }
    }
}

fn k_store(op: &CompiledOp, win: &mut TileWindow<'_>, all: &ActiveMask) -> Option<PeFault> {
    let mw = mask_word(op.mask, win, all);
    if mw == 0 {
        return None;
    }
    let (mut pv, mut bb) = ([Word::ZERO; TILE_LANES], [Word::ZERO; TILE_LANES]);
    win.copy_gprs(op.a as usize, &mut pv);
    win.copy_gprs(op.b as usize, &mut bb);
    let mut fault: Option<PeFault> = None;
    for_each_masked(mw, |j| {
        if let Err(f) = win.lmem_checked_write(bb[j], op.off, j, pv[j]) {
            if fault.is_none() {
                fault = Some(PeFault { pe: win.base() + j, fault: f });
            }
        }
    });
    fault
}

/// `psw` with the hardwired-zero base: one bounds check, then the masked
/// lanes store into the contiguous row slice.
fn k_store_uniform(op: &CompiledOp, win: &mut TileWindow<'_>, all: &ActiveMask) -> Option<PeFault> {
    let mw = mask_word(op.mask, win, all);
    if mw == 0 {
        return None;
    }
    match win.lmem_addr(Word::ZERO, op.off, true) {
        Err(f) => Some(PeFault { pe: win.base() + mw.trailing_zeros() as usize, fault: f }),
        Ok(addr) => {
            let mut src = [Word::ZERO; TILE_LANES];
            let n = win.lanes();
            win.copy_gprs(op.a as usize, &mut src);
            let full = win.full_word();
            let row = win.lmem_row_mut(addr);
            if mw == full {
                row.copy_from_slice(&src[..n]);
            } else {
                for_each_masked(mw, |j| row[j] = src[j]);
            }
            None
        }
    }
}

fn k_idx(op: &CompiledOp, win: &mut TileWindow<'_>, all: &ActiveMask) -> Option<PeFault> {
    let mw = mask_word(op.mask, win, all);
    if mw != 0 {
        let w = win.width();
        let base = win.base();
        let dst = win.gpr_mut(op.d as usize);
        for_each_masked(mw, |j| dst[j] = Word::new((base + j) as u32, w));
    }
    None
}

// ------------------------------------------------------------ execution

/// Run a compiled chain over every tile of `tiles`: the whole chain over
/// one tile before the next. Tiles run one 4096-lane occupancy group at a
/// time, in lane order within a group; a chain whose work (groups × 4096
/// lanes × ops) passes the worker pool's gate runs its groups on every
/// host core (see [`asc_pe::workers`]), each writing only its own tiles.
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
            for tile in group.tiles() {
                let mut win = group.window(tile);
                for (k, op) in chain.iter().enumerate() {
                    if let Some(f) = (op.run)(op, &mut win, all) {
                        // tiles run in lane order, so the first fault of an op
                        // in this group is its lowest faulting PE here
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

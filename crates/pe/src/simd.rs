//! Runtime-dispatched SIMD kernels for the dense inner loops.
//!
//! Every lane-local ALU and compare operation on the planes reduces to one
//! of four *span primitives*: an ALU op against a register plane or a
//! broadcast scalar, or a compare against the same two operand forms, each
//! applied to a span of whole 64-lane tiles with one mask word per tile.
//! This module provides those primitives as **monomorphized function
//! pointers** — the operation is a const generic, so selecting a kernel
//! once per instruction (or once per compiled block) hoists the op
//! dispatch entirely out of the lane loop — in three tiers:
//!
//! * **Scalar** — the portable reference loops, built on the exact
//!   [`asc_isa::Word`] semantics. Always available; the other tiers must
//!   be bit-identical to it (the `proptest` feature checks this).
//! * **AVX2** — 8 × `u32` lanes per vector. `Word` is
//!   `#[repr(transparent)]` over `u32` with all bits above the datapath
//!   width zero, so a plane span is loadable as packed 32-bit lanes;
//!   width-dependent ops mask with `Width::mask` or sign-extend via a
//!   shift pair. Masked lanes merge through `vpblendvb`.
//! * **AVX-512F** — 16 × `u32` lanes with native `__mmask16` masked
//!   stores and compares.
//!
//! `Mulh`/`Div`/`Rem` stay scalar at every tier (no 32-lane division in
//! either ISA extension); the vector kernels fall through to the scalar
//! loop for them, so the selector is total over [`AluOp`].
//!
//! A fifth primitive serves the reduction network rather than the plane
//! operations: the saturating-sum *tile* ([`SumTileKernel`]), the perfect
//! pairwise adder tree over one 64-lane tile with a clamp at every node.
//! At `W8`/`W16` a node sum fits in an `i32` lane, so each tree level is
//! one vector add plus a min/max clamp; `W32` sums can leave `i32`, so
//! the vector kernel falls back to the scalar tree there. The sum tile
//! has one vector kernel, AVX2, which the AVX-512 tier uses too.
//!
//! Two *word-span* primitives serve the responder units, on packed flag
//! words with one mask word per 64 lanes: a popcount of `flags & mask`
//! ([`PopcountKernel`], the response counter) and a first-set scan that
//! tests 8 words per step and stops at the first hit ([`FirstSetKernel`],
//! the resolver and the any/all tests). Each has one body; the scalar
//! tier compiles it for the baseline target, which has no POPCNT and
//! 128-bit vectors, and both vector tiers run it compiled with AVX2, the
//! popcount also with POPCNT (see docs/performance.md for what each build
//! costs). The callers hand them one 4096-lane occupancy group (64 words)
//! per call.
//!
//! The tier is resolved **once per machine construction** by
//! [`SimdLevel::detect`] (hardware probe + the `MTASC_NO_SIMD` escape
//! hatch) and carried in [`crate::ArrayConfig`] (and in the reduction
//! network's config, for the sum tile and the word-span kernels); nothing
//! here reads global mutable state. Building with `--cfg
//! mtasc_force_scalar` (the CI portability check) compiles the intrinsics
//! out entirely and the selectors degrade to the scalar tier.
//!
//! ### Kernel contract
//!
//! A kernel covers a *span* of `n` lanes: whole 64-lane tiles, of which
//! only the last may be ragged (a machine whose PE count is not a
//! multiple of 64). `masks` holds one word per tile (`masks.len() ==
//! n.div_ceil(64)`); bit `i` of word `t` governs lane `64t + i`, and
//! bits at or above `n` must be zero (the [`crate::ActiveMask`] tail
//! invariant). The callers hand a kernel a whole 4096-lane occupancy
//! group, so the call and its set-up are paid once per group, not once
//! per tile.
//!
//! ALU kernels write the `n` lanes of `dst` only where a mask bit is set
//! and may read all `n` lanes of the sources. Compare kernels merge their
//! results into `flags`, one word per tile: `flags[t] = (flags[t] &
//! !masks[t]) | (result & masks[t])`. The flag bits of inactive lanes, and
//! every bit of a word whose mask is zero, stay as they were, and a
//! tail-clean mask keeps a flag plane's tail invariant.
//!
//! Every vector tier runs a full tile whose mask word is non-zero as
//! unrolled, branch-free vector operations that use the word's slices as
//! store masks: AVX-512 as four 16-lane operations with masked stores,
//! AVX2 as eight 8-lane operations with blends. A zero word is skipped.
//! Only a ragged last tile runs the per-tile body with its scalar tail,
//! and the scalar tier loops the reference body over the tiles.
//!
//! An ALU source that is `None` is the destination itself, read in
//! place: a PE reads both operands from its own register file, so
//! `pd = pd op pb` needs no copy of `pd`. Every tier reads a tile's
//! operands before that tile's store (the scalar loop: a lane's operands
//! before it writes that lane), so each lane computes from its old value.
//! The array's instruction-major sweeps and [`crate::TileWindow::split`]
//! hand out sources in this form.
//!
//! Three plain span bodies take the same mask form, so the array's sweeps
//! and the compiled chains share one definition of each: [`copy_masked`]
//! moves the active lanes between two planes (loads and stores at a
//! lane-uniform address), [`flag_span`] runs flag logic word by word with
//! the compare kernels' merge, and [`index_span`] writes each active
//! lane's PE index.

use asc_isa::{AluOp, CmpOp, FlagOp, Width, Word};

use crate::bitmask::for_each_set;
use crate::tiles::TILE_LANES;

/// Is the x86 SIMD code path compiled in at all?
#[cfg(all(target_arch = "x86_64", not(mtasc_force_scalar)))]
const HAVE_X86_SIMD: bool = true;
#[cfg(not(all(target_arch = "x86_64", not(mtasc_force_scalar))))]
const HAVE_X86_SIMD: bool = false;

/// SIMD dispatch tier for the dense lane loops, resolved once at machine
/// construction and carried by value (no global mutable state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loops (the reference semantics).
    Scalar,
    /// 256-bit AVX2 kernels, 8 lanes per vector.
    Avx2,
    /// 512-bit AVX-512F kernels, 16 lanes per vector.
    Avx512,
}

/// `MTASC_NO_SIMD=1` forces the scalar tier everywhere a machine is
/// built afterwards — the blunt-instrument form of `mtasc run --no-simd`,
/// used by the differential tests and CI to time the scalar lane loops.
pub fn simd_disabled() -> bool {
    std::env::var("MTASC_NO_SIMD").is_ok_and(|v| !v.is_empty() && v != "0")
}

impl SimdLevel {
    /// Probe the host: the widest tier the CPU supports, `Scalar` when
    /// the build has no SIMD path or `MTASC_NO_SIMD` is set. The feature
    /// probe itself is cached by the standard library; the environment is
    /// read fresh on every call so tests can toggle it per machine.
    pub fn detect() -> SimdLevel {
        if simd_disabled() {
            return SimdLevel::Scalar;
        }
        Self::detect_hw()
    }

    /// The hardware tier, ignoring the environment override.
    pub fn detect_hw() -> SimdLevel {
        #[cfg(all(target_arch = "x86_64", not(mtasc_force_scalar)))]
        {
            // the AVX-512 tier also runs the AVX2 sum tile, and both
            // vector tiers the popcount span built with POPCNT
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("popcnt")
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return SimdLevel::Avx512;
                }
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    }

    /// All tiers the host can actually run, widest last (for differential
    /// tests that force each available tier).
    pub fn available() -> Vec<SimdLevel> {
        let mut tiers = vec![SimdLevel::Scalar];
        let hw = Self::detect_hw();
        if hw >= SimdLevel::Avx2 {
            tiers.push(SimdLevel::Avx2);
        }
        if hw >= SimdLevel::Avx512 {
            tiers.push(SimdLevel::Avx512);
        }
        tiers
    }

    /// Vector kernels active (anything above scalar)?
    pub fn is_simd(self) -> bool {
        self != SimdLevel::Scalar
    }

    /// Short label for fingerprints and stats (`scalar`/`avx2`/`avx512`).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// True while the build carries the x86 kernels (false under
    /// `--cfg mtasc_force_scalar` or on other architectures).
    pub const fn compiled_in() -> bool {
        HAVE_X86_SIMD
    }
}

/// ALU span primitive against a register plane: `dst = a op b` in the
/// lanes of `masks`, one word per 64-lane tile, where a `None` source is
/// `dst` itself (see the kernel contract).
pub type AluRrKernel =
    fn(dst: &mut [Word], a: Option<&[Word]>, b: Option<&[Word]>, w: Width, masks: &[u64]);
/// ALU span primitive against a broadcast scalar: `dst = a op s` in the
/// lanes of `masks`, where a `None` source is `dst` itself.
pub type AluRsKernel = fn(dst: &mut [Word], a: Option<&[Word]>, s: Word, w: Width, masks: &[u64]);
/// Compare span primitive against a register plane: merges `a[i] cmp
/// b[i]` into bit `i % 64` of `flags[i / 64]` in the lanes of `masks`.
pub type CmpRrKernel = fn(flags: &mut [u64], a: &[Word], b: &[Word], w: Width, masks: &[u64]);
/// Compare span primitive against a broadcast scalar.
pub type CmpRsKernel = fn(flags: &mut [u64], a: &[Word], s: Word, w: Width, masks: &[u64]);
/// Saturating-sum tile primitive: the perfect pairwise adder tree over one
/// 64-lane tile, saturating at every node, with the lanes whose `mw` bit
/// is clear (and lanes at or above `values.len()`) entering as zero.
pub type SumTileKernel = fn(values: &[Word], w: Width, mw: u64) -> Word;
/// Responder-count span primitive: the number of lanes set in both
/// `flags` and `masks`, one word of each per 64-lane tile.
pub type PopcountKernel = fn(flags: &[u64], masks: &[u64]) -> u64;
/// First-set span primitive: the lowest lane whose bit of `flags ^
/// invert` is set under `masks`, or `None`. An `invert` of 0 finds the
/// first responder; `u64::MAX` finds the first masked lane whose flag is
/// clear (the "all" test fails there).
pub type FirstSetKernel = fn(flags: &[u64], masks: &[u64], invert: u64) -> Option<usize>;

/// Ops the vector tiers fall through to the scalar loop for.
const fn scalar_only(op_code: u8) -> bool {
    matches!(
        op_code,
        code if code == AluOp::Mulh.code()
            || code == AluOp::Div.code()
            || code == AluOp::Rem.code()
    )
}

/// Whether `op` lowers to a vector body at the SIMD tiers. The iterative
/// ops (`mulh`/`div`/`rem`) stay on the scalar reference loop at every
/// tier; everything else vectorizes.
pub fn alu_vectorizes(op: AluOp) -> bool {
    !scalar_only(op.code())
}

#[inline(always)]
fn op_of<const OP: u8>() -> AluOp {
    AluOp::from_code(OP).expect("kernel instantiated with a valid ALU op code")
}

#[inline(always)]
fn cmp_of<const OP: u8>() -> CmpOp {
    CmpOp::from_code(OP).expect("kernel instantiated with a valid compare op code")
}

/// The dense mask of an `n`-lane tile (`n <= 64`): all `n` lanes active.
#[inline(always)]
pub fn chunk_mask(n: usize) -> u64 {
    debug_assert!(n <= 64);
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Check a span's shape: one mask word per tile of its `n` lanes, and
/// (debug-asserted) no mask bit at or above `n`, the tail invariant that
/// keeps a merged flag plane's tail clear.
///
/// # Panics
/// Panics if `masks` has another length.
#[inline(always)]
fn check_span(n: usize, masks: &[u64]) {
    assert_eq!(masks.len(), n.div_ceil(TILE_LANES), "a span takes one mask word per 64-lane tile");
    debug_assert!(
        masks.last().is_none_or(|&mw| mw & !chunk_mask(n - (masks.len() - 1) * TILE_LANES) == 0),
        "a span's last mask word sets no lane at or above its length"
    );
}

/// The lanes of tile `t` of an `n`-lane span.
#[inline(always)]
fn tile_lanes(t: usize, n: usize) -> std::ops::Range<usize> {
    t * TILE_LANES..n.min(t * TILE_LANES + TILE_LANES)
}

/// `old` with the bits of `mw` taken from `res`: the compare kernels'
/// merge.
#[inline(always)]
fn merge(old: u64, res: u64, mw: u64) -> u64 {
    (old & !mw) | (res & mw)
}

// --------------------------------------------------------------- scalar

/// Scalar ALU lanes `[from..n)` of one tile under `mw`; the reference
/// body, and the vector kernels' tail loop. `RS` selects the broadcast
/// form (`b` is ignored). A `None` source is `dst`, whose lane is read
/// before it is written.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the vector kernels' signature
fn alu_lanes<const RS: bool>(
    op: AluOp,
    dst: &mut [Word],
    a: Option<&[Word]>,
    b: Option<&[Word]>,
    s: Word,
    w: Width,
    mw: u64,
    from: usize,
) {
    let n = dst.len();
    debug_assert!(n <= 64 && a.is_none_or(|a| a.len() == n));
    debug_assert!(RS || b.is_none_or(|b| b.len() == n));
    if from >= n {
        return;
    }
    let lane = |dst: &[Word], i: usize| {
        let lhs = a.map_or(dst[i], |a| a[i]);
        let rhs = if RS { s } else { b.map_or(dst[i], |b| b[i]) };
        op.apply(lhs, rhs, w)
    };
    let rest = mw & (u64::MAX << from);
    if rest == chunk_mask(n) & (u64::MAX << from) {
        for i in from..n {
            dst[i] = lane(dst, i);
        }
    } else {
        let mut m = rest;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            dst[i] = lane(dst, i);
            m &= m - 1;
        }
    }
}

/// Scalar compare lanes `[from..)` of one tile, returning result bits
/// positioned at their lane index.
#[inline(always)]
fn cmp_lanes<const RS: bool>(
    op: CmpOp,
    a: &[Word],
    b: &[Word],
    s: Word,
    w: Width,
    from: usize,
) -> u64 {
    let mut res = 0u64;
    for i in from..a.len() {
        let rhs = if RS { s } else { b[i] };
        res |= u64::from(op.apply(a[i], rhs, w)) << i;
    }
    res
}

/// The scalar ALU span: the reference body over every tile with an
/// active lane. The vector tiers run it for the scalar-only ops.
#[inline(always)]
fn alu_span_scalar<const RS: bool>(
    op: AluOp,
    dst: &mut [Word],
    a: Option<&[Word]>,
    b: Option<&[Word]>,
    s: Word,
    w: Width,
    masks: &[u64],
) {
    let n = dst.len();
    check_span(n, masks);
    assert!(
        a.is_none_or(|a| a.len() == n) && (RS || b.is_none_or(|b| b.len() == n)),
        "ALU source and destination lengths differ"
    );
    for (t, &mw) in masks.iter().enumerate() {
        if mw != 0 {
            let lanes = tile_lanes(t, n);
            let (x, y) = (a.map(|a| &a[lanes.clone()]), b.map(|b| &b[lanes.clone()]));
            alu_lanes::<RS>(op, &mut dst[lanes], x, y, s, w, mw, 0);
        }
    }
}

/// The scalar compare span: the reference body over every tile with an
/// active lane, merged into its flag word.
#[inline(always)]
fn cmp_span_scalar<const RS: bool>(
    op: CmpOp,
    flags: &mut [u64],
    a: &[Word],
    b: &[Word],
    s: Word,
    w: Width,
    masks: &[u64],
) {
    let n = a.len();
    check_span(n, masks);
    assert_eq!(flags.len(), masks.len(), "a compare span takes one flag word per tile");
    assert!(RS || b.len() == n, "compare operand lengths differ");
    for (t, (f, &mw)) in flags.iter_mut().zip(masks).enumerate() {
        if mw != 0 {
            let lanes = tile_lanes(t, n);
            let y = if RS { &[][..] } else { &b[lanes.clone()] };
            *f = merge(*f, cmp_lanes::<RS>(op, &a[lanes], y, s, w, 0), mw);
        }
    }
}

fn alu_rr_scalar<const OP: u8>(
    dst: &mut [Word],
    a: Option<&[Word]>,
    b: Option<&[Word]>,
    w: Width,
    masks: &[u64],
) {
    alu_span_scalar::<false>(op_of::<OP>(), dst, a, b, Word::ZERO, w, masks);
}

fn alu_rs_scalar<const OP: u8>(
    dst: &mut [Word],
    a: Option<&[Word]>,
    s: Word,
    w: Width,
    masks: &[u64],
) {
    alu_span_scalar::<true>(op_of::<OP>(), dst, a, None, s, w, masks);
}

fn cmp_rr_scalar<const OP: u8>(flags: &mut [u64], a: &[Word], b: &[Word], w: Width, masks: &[u64]) {
    cmp_span_scalar::<false>(cmp_of::<OP>(), flags, a, b, Word::ZERO, w, masks);
}

fn cmp_rs_scalar<const OP: u8>(flags: &mut [u64], a: &[Word], s: Word, w: Width, masks: &[u64]) {
    cmp_span_scalar::<true>(cmp_of::<OP>(), flags, a, &[], s, w, masks);
}

/// Copy the lanes of `masks` (one word per 64-lane tile, as the span
/// kernels take them) from `src` to `dst`: each run of tiles whose word
/// sets every lane as one copy, every other tile lane by lane.
///
/// # Panics
/// Panics if the slices differ in length or `masks` is not one word per
/// tile.
pub fn copy_masked<T: Copy>(dst: &mut [T], src: &[T], masks: &[u64]) {
    let n = dst.len();
    check_span(n, masks);
    assert_eq!(src.len(), n, "copy source and destination lengths differ");
    // the first lane of the pending run of dense tiles
    let mut run = 0;
    for (t, &mw) in masks.iter().enumerate() {
        let lanes = tile_lanes(t, n);
        if mw == chunk_mask(lanes.len()) {
            continue;
        }
        if run < lanes.start {
            dst[run..lanes.start].copy_from_slice(&src[run..lanes.start]);
        }
        for_each_set(mw, lanes.start, |i| dst[i] = src[i]);
        run = lanes.end;
    }
    if run < n {
        dst[run..].copy_from_slice(&src[run..]);
    }
}

/// Flag logic over a span of tiles, one word per tile of each plane:
/// `dst = a op b` merged under `masks` as the compare kernels merge. A
/// `None` source is `dst`, whose word is read before it is written.
///
/// # Panics
/// Panics if a source or `masks` is not one word per word of `dst`.
#[inline]
pub fn flag_span(op: FlagOp, dst: &mut [u64], a: Option<&[u64]>, b: Option<&[u64]>, masks: &[u64]) {
    let n = dst.len();
    assert!(
        masks.len() == n && a.is_none_or(|a| a.len() == n) && b.is_none_or(|b| b.len() == n),
        "flag logic takes one word per tile of each plane"
    );
    for (t, (d, &mw)) in dst.iter_mut().zip(masks).enumerate() {
        let own = *d;
        let (x, y) = (a.map_or(own, |a| a[t]), b.map_or(own, |b| b[t]));
        *d = merge(own, op.apply_word(x, y), mw);
    }
}

/// Write each masked lane's PE index, truncated to `w`, into `dst`, whose
/// lane `i` is PE `first + i`; `masks` holds one word per tile.
///
/// # Panics
/// Panics if `masks` is not one word per tile of `dst`.
#[inline]
pub fn index_span(dst: &mut [Word], first: usize, w: Width, masks: &[u64]) {
    let n = dst.len();
    check_span(n, masks);
    for (t, &mw) in masks.iter().enumerate() {
        let lanes = tile_lanes(t, n);
        if mw == u64::MAX {
            for (i, d) in lanes.clone().zip(&mut dst[lanes]) {
                *d = Word::new((first + i) as u32, w);
            }
        } else {
            for_each_set(mw, lanes.start, |i| dst[i] = Word::new((first + i) as u32, w));
        }
    }
}

/// Scalar sum tile: the reference for the vector tiers, and their
/// fallback at `W32`, where a node sum can leave `i32`.
fn sum_tile_scalar(values: &[Word], w: Width, mw: u64) -> Word {
    debug_assert!(values.len() <= 64 && mw & !chunk_mask(values.len()) == 0);
    let mut node = [0i64; 64];
    let mut m = mw;
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        node[i] = values[i].to_i64(w);
        m &= m - 1;
    }
    let (lo, hi) = (w.smin(), w.smax());
    let mut len = 64;
    while len > 1 {
        len /= 2;
        for i in 0..len {
            node[i] = (node[2 * i] + node[2 * i + 1]).clamp(lo, hi);
        }
    }
    Word::from_i64(node[0], w)
}

/// Words a first-set scan tests per step before it looks for the hit.
const SCAN_STEP: usize = 8;

/// The word-span bodies of the responder kernels. The scalar tier runs
/// them compiled for the baseline target, where `count_ones` is a bit
/// trick; the vector tiers run them compiled with AVX2 and POPCNT.
#[inline(always)]
fn popcount_body(flags: &[u64], masks: &[u64]) -> u64 {
    assert_eq!(flags.len(), masks.len(), "a word span takes one mask word per flag word");
    flags.iter().zip(masks).map(|(&f, &m)| u64::from((f & m).count_ones())).sum()
}

/// See [`popcount_body`]: a step ORs [`SCAN_STEP`] masked words and only
/// a step with a hit is searched word by word.
#[inline(always)]
fn first_set_body(flags: &[u64], masks: &[u64], invert: u64) -> Option<usize> {
    assert_eq!(flags.len(), masks.len(), "a word span takes one mask word per flag word");
    let hit = |(&f, &m): (&u64, &u64)| (f ^ invert) & m;
    let first = |from: usize, f: &[u64], m: &[u64]| {
        let mut words = f.iter().zip(m).map(hit).enumerate();
        words.find(|&(_, h)| h != 0).map(|(k, h)| (from + k) * 64 + h.trailing_zeros() as usize)
    };
    let steps = flags.len() / SCAN_STEP * SCAN_STEP;
    let chunks = flags.chunks_exact(SCAN_STEP).zip(masks.chunks_exact(SCAN_STEP));
    for (s, (f, m)) in chunks.enumerate() {
        if f.iter().zip(m).map(hit).fold(0, |acc, h| acc | h) != 0 {
            return first(s * SCAN_STEP, f, m);
        }
    }
    first(steps, &flags[steps..], &masks[steps..])
}

/// Monomorphize `$f` over every [`AluOp`] code.
macro_rules! alu_table {
    ($op:expr, $f:ident) => {{
        use asc_isa::AluOp::*;
        match $op {
            Add => $f::<0>,
            Sub => $f::<1>,
            And => $f::<2>,
            Or => $f::<3>,
            Xor => $f::<4>,
            Nor => $f::<5>,
            Sll => $f::<6>,
            Srl => $f::<7>,
            Sra => $f::<8>,
            Mul => $f::<9>,
            Mulh => $f::<10>,
            Div => $f::<11>,
            Rem => $f::<12>,
            Min => $f::<13>,
            Max => $f::<14>,
            MinU => $f::<15>,
            MaxU => $f::<16>,
        }
    }};
}

/// Monomorphize `$f` over every [`CmpOp`] code.
macro_rules! cmp_table {
    ($op:expr, $f:ident) => {{
        use asc_isa::CmpOp::*;
        match $op {
            Eq => $f::<0>,
            Ne => $f::<1>,
            Lt => $f::<2>,
            Le => $f::<3>,
            LtU => $f::<4>,
            LeU => $f::<5>,
        }
    }};
}

// ------------------------------------------------------------ selectors

/// The register-register ALU kernel for a tier and op.
pub fn select_alu_rr(level: SimdLevel, op: AluOp) -> AluRrKernel {
    #[cfg(all(target_arch = "x86_64", not(mtasc_force_scalar)))]
    match level {
        SimdLevel::Avx2 => return x86::select_alu_rr_avx2(op),
        SimdLevel::Avx512 => return x86::select_alu_rr_avx512(op),
        SimdLevel::Scalar => {}
    }
    let _ = level;
    alu_table!(op, alu_rr_scalar)
}

/// The register-scalar (broadcast/immediate) ALU kernel for a tier and
/// op.
pub fn select_alu_rs(level: SimdLevel, op: AluOp) -> AluRsKernel {
    #[cfg(all(target_arch = "x86_64", not(mtasc_force_scalar)))]
    match level {
        SimdLevel::Avx2 => return x86::select_alu_rs_avx2(op),
        SimdLevel::Avx512 => return x86::select_alu_rs_avx512(op),
        SimdLevel::Scalar => {}
    }
    let _ = level;
    alu_table!(op, alu_rs_scalar)
}

/// The register-register compare kernel for a tier and op.
pub fn select_cmp_rr(level: SimdLevel, op: CmpOp) -> CmpRrKernel {
    #[cfg(all(target_arch = "x86_64", not(mtasc_force_scalar)))]
    match level {
        SimdLevel::Avx2 => return x86::select_cmp_rr_avx2(op),
        SimdLevel::Avx512 => return x86::select_cmp_rr_avx512(op),
        SimdLevel::Scalar => {}
    }
    let _ = level;
    cmp_table!(op, cmp_rr_scalar)
}

/// The register-scalar compare kernel for a tier and op.
pub fn select_cmp_rs(level: SimdLevel, op: CmpOp) -> CmpRsKernel {
    #[cfg(all(target_arch = "x86_64", not(mtasc_force_scalar)))]
    match level {
        SimdLevel::Avx2 => return x86::select_cmp_rs_avx2(op),
        SimdLevel::Avx512 => return x86::select_cmp_rs_avx512(op),
        SimdLevel::Scalar => {}
    }
    let _ = level;
    cmp_table!(op, cmp_rs_scalar)
}

/// The saturating-sum tile kernel for a tier.
pub fn select_sum_tile(level: SimdLevel) -> SumTileKernel {
    #[cfg(all(target_arch = "x86_64", not(mtasc_force_scalar)))]
    match level {
        SimdLevel::Avx2 | SimdLevel::Avx512 => return x86::sum_tile_avx2,
        SimdLevel::Scalar => {}
    }
    let _ = level;
    sum_tile_scalar
}

/// The responder-count kernel for a tier.
pub fn select_popcount(level: SimdLevel) -> PopcountKernel {
    #[cfg(all(target_arch = "x86_64", not(mtasc_force_scalar)))]
    if level.is_simd() {
        return x86::popcount_avx2;
    }
    let _ = level;
    popcount_body
}

/// The first-set scan kernel for a tier.
pub fn select_first_set(level: SimdLevel) -> FirstSetKernel {
    #[cfg(all(target_arch = "x86_64", not(mtasc_force_scalar)))]
    if level.is_simd() {
        return x86::first_set_avx2;
    }
    let _ = level;
    first_set_body
}

// ------------------------------------------------------------------ x86

#[cfg(all(target_arch = "x86_64", not(mtasc_force_scalar)))]
mod x86 {
    use std::arch::x86_64::*;

    use super::*;

    /// Word slices load as packed 32-bit lanes (`Word` is
    /// `#[repr(transparent)]` over `u32`).
    #[inline(always)]
    fn lanes_ptr(s: &[Word]) -> *const i32 {
        s.as_ptr() as *const i32
    }

    /// Where an ALU kernel reads a source's `n` lanes: the source slice,
    /// or the destination `dst` itself for `None`.
    ///
    /// # Panics
    /// Panics if a source slice is not `n` lanes long: the vector loops
    /// read it without bounds checks.
    #[inline(always)]
    fn src_lanes(src: Option<&[Word]>, dst: *mut i32, n: usize) -> *const i32 {
        match src {
            Some(s) => {
                assert_eq!(s.len(), n, "ALU source and destination lengths differ");
                lanes_ptr(s)
            }
            None => dst,
        }
    }

    /// A source's lanes from `o` on, for the ragged last tile. A plain
    /// `match`: a closure passed to `Option::map` is not inlined into the
    /// `target_feature` span kernels, and the call costs more than the
    /// tile's work.
    #[inline(always)]
    fn from_lane(src: Option<&[Word]>, o: usize) -> Option<&[Word]> {
        match src {
            Some(s) => Some(&s[o..]),
            None => None,
        }
    }

    // ------------------------------------------------------------- AVX2

    /// Sign-extend each lane from the datapath width to 32 bits.
    #[inline(always)]
    unsafe fn sext256(a: __m256i, bits: u32) -> __m256i {
        let sh = _mm_cvtsi32_si128(32 - bits as i32);
        unsafe { _mm256_sra_epi32(_mm256_sll_epi32(a, sh), sh) }
    }

    /// Flip the sign bit: maps unsigned order onto signed compare.
    #[inline(always)]
    unsafe fn uflip256(a: __m256i) -> __m256i {
        unsafe { _mm256_xor_si256(a, _mm256_set1_epi32(i32::MIN)) }
    }

    /// One vector ALU op on 8 lanes; `vm` is the width mask, `bits` the
    /// datapath width. `OP` is constant, so the match folds away at
    /// monomorphization.
    #[inline(always)]
    unsafe fn v_alu256<const OP: u8>(a: __m256i, b: __m256i, vm: __m256i, bits: u32) -> __m256i {
        unsafe {
            let shamt = || _mm256_and_si256(b, _mm256_set1_epi32(bits as i32 - 1));
            match OP {
                0 => _mm256_and_si256(_mm256_add_epi32(a, b), vm),
                1 => _mm256_and_si256(_mm256_sub_epi32(a, b), vm),
                2 => _mm256_and_si256(a, b),
                3 => _mm256_or_si256(a, b),
                4 => _mm256_xor_si256(a, b),
                // operands have no bits above the width, so NOT-in-width
                // is XOR with the width mask
                5 => _mm256_xor_si256(_mm256_or_si256(a, b), vm),
                6 => _mm256_and_si256(_mm256_sllv_epi32(a, shamt()), vm),
                7 => _mm256_srlv_epi32(a, shamt()),
                8 => _mm256_and_si256(_mm256_srav_epi32(sext256(a, bits), shamt()), vm),
                9 => _mm256_and_si256(_mm256_mullo_epi32(a, b), vm),
                // min/max pick one of the operands, so masking the
                // sign-extended winner recovers its original encoding
                13 => _mm256_and_si256(_mm256_min_epi32(sext256(a, bits), sext256(b, bits)), vm),
                14 => _mm256_and_si256(_mm256_max_epi32(sext256(a, bits), sext256(b, bits)), vm),
                15 => _mm256_min_epu32(a, b),
                16 => _mm256_max_epu32(a, b),
                _ => unreachable!("scalar-only op reached the vector path"),
            }
        }
    }

    /// Blend `new` over `keep` for the lanes set in the 8-bit group mask.
    #[inline(always)]
    unsafe fn blend256(keep: __m256i, new: __m256i, gm: u32) -> __m256i {
        unsafe {
            let sel = _mm256_set_epi32(128, 64, 32, 16, 8, 4, 2, 1);
            let hit = _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(gm as i32), sel), sel);
            _mm256_blendv_epi8(keep, new, hit)
        }
    }

    /// The per-tile body, for a ragged last tile: `n < 64` lanes under
    /// `mw`, in 8-lane groups with the scalar loop for the last `n % 8`.
    ///
    /// # Safety
    /// The CPU must support AVX2, and `OP` must vectorize.
    #[target_feature(enable = "avx2")]
    unsafe fn alu_chunk256<const OP: u8, const RS: bool>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        b: Option<&[Word]>,
        s: Word,
        w: Width,
        mw: u64,
    ) {
        let n = dst.len();
        let bits = w.bits();
        // reads and writes of `dst` all go through this one pointer
        let pd = dst.as_mut_ptr() as *mut i32;
        let pa = src_lanes(a, pd, n);
        let pb = if RS { pd } else { src_lanes(b, pd, n) };
        // SAFETY: the caller guarantees AVX2. `pd`, `pa` and `pb` each
        // point at `n` lanes (`src_lanes` checks a source's length), and
        // group `g < n / 8` touches lanes `8g..8g + 8` only. A group loads
        // both operands before its store, so a source that is `dst` is
        // read before any of its lanes in the group is written.
        unsafe {
            let vm = _mm256_set1_epi32(w.mask() as i32);
            let vs = _mm256_set1_epi32(s.to_u32() as i32);
            let groups = n / 8;
            for g in 0..groups {
                let gm = (mw >> (g * 8)) as u32 & 0xff;
                if gm == 0 {
                    continue;
                }
                let va = _mm256_loadu_si256(pa.add(g * 8) as *const __m256i);
                let vb = if RS { vs } else { _mm256_loadu_si256(pb.add(g * 8) as *const __m256i) };
                let vr = v_alu256::<OP>(va, vb, vm, bits);
                let pg = pd.add(g * 8) as *mut __m256i;
                if gm == 0xff {
                    _mm256_storeu_si256(pg, vr);
                } else {
                    _mm256_storeu_si256(pg, blend256(_mm256_loadu_si256(pg), vr, gm));
                }
            }
        }
        alu_lanes::<RS>(op_of::<OP>(), dst, a, b, s, w, mw, (n / 8) * 8);
    }

    /// One full tile as eight 8-lane operations, each blended into the
    /// old lanes under its byte of `mw`: every operand and old lane is
    /// loaded before the first store.
    ///
    /// # Safety
    /// The CPU must support AVX2, `OP` must vectorize, and `pd`, `pa` and
    /// `pb` must each point at 64 lanes (`pb` is not read when `RS`).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn alu_tile256<const OP: u8, const RS: bool>(
        pd: *mut i32,
        pa: *const i32,
        pb: *const i32,
        vs: __m256i,
        vm: __m256i,
        bits: u32,
        mw: u64,
    ) {
        unsafe {
            let ld = |p: *const i32, q: usize| _mm256_loadu_si256(p.add(8 * q) as *const __m256i);
            let (mut va, mut vb, mut old) = ([vs; 8], [vs; 8], [vs; 8]);
            for q in 0..8 {
                va[q] = ld(pa, q);
                if !RS {
                    vb[q] = ld(pb, q);
                }
                old[q] = ld(pd, q);
            }
            for q in 0..8 {
                let vr = v_alu256::<OP>(va[q], vb[q], vm, bits);
                let gm = (mw >> (8 * q)) as u32 & 0xff;
                _mm256_storeu_si256(pd.add(8 * q) as *mut __m256i, blend256(old[q], vr, gm));
            }
        }
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn alu_span256<const OP: u8, const RS: bool>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        b: Option<&[Word]>,
        s: Word,
        w: Width,
        masks: &[u64],
    ) {
        if scalar_only(OP) {
            return alu_span_scalar::<RS>(op_of::<OP>(), dst, a, b, s, w, masks);
        }
        let n = dst.len();
        check_span(n, masks);
        let full = n / TILE_LANES;
        let pd = dst.as_mut_ptr() as *mut i32;
        let pa = src_lanes(a, pd, n);
        let pb = if RS { pd } else { src_lanes(b, pd, n) };
        // SAFETY: the caller guarantees AVX2, and `OP` vectorizes. `pd`,
        // `pa` and `pb` each point at `n` lanes (`src_lanes` checks a
        // source's length), and tile `t < n / 64` touches lanes
        // `64t..64t + 64` only.
        unsafe {
            let vm = _mm256_set1_epi32(w.mask() as i32);
            let vs = _mm256_set1_epi32(s.to_u32() as i32);
            for (t, &mw) in masks[..full].iter().enumerate() {
                if mw != 0 {
                    let o = t * TILE_LANES;
                    alu_tile256::<OP, RS>(pd.add(o), pa.add(o), pb.add(o), vs, vm, w.bits(), mw);
                }
            }
        }
        if let Some(&mw @ 1..) = masks.get(full) {
            let o = full * TILE_LANES;
            let (x, y) = (from_lane(a, o), from_lane(b, o));
            // SAFETY: the caller guarantees AVX2, and `OP` vectorizes.
            unsafe { alu_chunk256::<OP, RS>(&mut dst[o..], x, y, s, w, mw) }
        }
    }

    /// One vector compare on 8 lanes, as an 8-bit result mask.
    #[inline(always)]
    unsafe fn v_cmp256<const OP: u8>(a: __m256i, b: __m256i, bits: u32) -> u32 {
        unsafe {
            let mm = |v| _mm256_movemask_ps(_mm256_castsi256_ps(v)) as u32;
            match OP {
                0 => mm(_mm256_cmpeq_epi32(a, b)),
                1 => mm(_mm256_cmpeq_epi32(a, b)) ^ 0xff,
                2 => mm(_mm256_cmpgt_epi32(sext256(b, bits), sext256(a, bits))),
                3 => mm(_mm256_cmpgt_epi32(sext256(a, bits), sext256(b, bits))) ^ 0xff,
                4 => mm(_mm256_cmpgt_epi32(uflip256(b), uflip256(a))),
                5 => mm(_mm256_cmpgt_epi32(uflip256(a), uflip256(b))) ^ 0xff,
                _ => unreachable!("invalid compare code"),
            }
        }
    }

    /// The per-tile compare body, for a ragged last tile of `n < 64`
    /// lanes: result bits at their lane index.
    ///
    /// # Safety
    /// The CPU must support AVX2, and `b` must hold `a.len()` lanes unless
    /// `RS`.
    #[target_feature(enable = "avx2")]
    unsafe fn cmp_chunk256<const OP: u8, const RS: bool>(
        a: &[Word],
        b: &[Word],
        s: Word,
        w: Width,
    ) -> u64 {
        let n = a.len();
        let bits = w.bits();
        let mut res = 0u64;
        unsafe {
            let vs = _mm256_set1_epi32(s.to_u32() as i32);
            let groups = n / 8;
            for g in 0..groups {
                let va = _mm256_loadu_si256(lanes_ptr(a).add(g * 8) as *const __m256i);
                let vb = if RS {
                    vs
                } else {
                    _mm256_loadu_si256(lanes_ptr(b).add(g * 8) as *const __m256i)
                };
                res |= (v_cmp256::<OP>(va, vb, bits) as u64) << (g * 8);
            }
            res | cmp_lanes::<RS>(cmp_of::<OP>(), a, b, s, w, groups * 8)
        }
    }

    /// One full tile's compare results, as eight 8-lane compares.
    ///
    /// # Safety
    /// The CPU must support AVX2, and `pa` and `pb` must each point at 64
    /// lanes (`pb` is not read when `RS`).
    #[inline(always)]
    unsafe fn cmp_tile256<const OP: u8, const RS: bool>(
        pa: *const i32,
        pb: *const i32,
        vs: __m256i,
        bits: u32,
    ) -> u64 {
        let mut res = 0u64;
        unsafe {
            for q in 0..8 {
                let va = _mm256_loadu_si256(pa.add(8 * q) as *const __m256i);
                let vb = if RS { vs } else { _mm256_loadu_si256(pb.add(8 * q) as *const __m256i) };
                res |= (v_cmp256::<OP>(va, vb, bits) as u64) << (8 * q);
            }
        }
        res
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn cmp_span256<const OP: u8, const RS: bool>(
        flags: &mut [u64],
        a: &[Word],
        b: &[Word],
        s: Word,
        w: Width,
        masks: &[u64],
    ) {
        let n = a.len();
        check_span(n, masks);
        assert_eq!(flags.len(), masks.len(), "a compare span takes one flag word per tile");
        assert!(RS || b.len() == n, "compare operand lengths differ");
        let full = n / TILE_LANES;
        let pa = lanes_ptr(a);
        let pb = if RS { pa } else { lanes_ptr(b) };
        // SAFETY: the caller guarantees AVX2. `pa` and `pb` each point at
        // `n` lanes (checked above), and tile `t < n / 64` reads lanes
        // `64t..64t + 64` only.
        unsafe {
            let vs = _mm256_set1_epi32(s.to_u32() as i32);
            for (t, (f, &mw)) in flags[..full].iter_mut().zip(&masks[..full]).enumerate() {
                if mw != 0 {
                    let o = t * TILE_LANES;
                    *f = merge(*f, cmp_tile256::<OP, RS>(pa.add(o), pb.add(o), vs, w.bits()), mw);
                }
            }
        }
        if let Some(&mw @ 1..) = masks.get(full) {
            let o = full * TILE_LANES;
            let y = if RS { &[][..] } else { &b[o..] };
            // SAFETY: the caller guarantees AVX2; `y` holds the tile's
            // lanes unless `RS`.
            flags[full] =
                merge(flags[full], unsafe { cmp_chunk256::<OP, RS>(&a[o..], y, s, w) }, mw);
        }
    }

    // ---------------------------------------------------------- AVX-512

    /// Sign-extend each lane from the datapath width to 32 bits.
    #[inline(always)]
    unsafe fn sext512(a: __m512i, bits: u32) -> __m512i {
        let sh = _mm_cvtsi32_si128(32 - bits as i32);
        unsafe { _mm512_sra_epi32(_mm512_sll_epi32(a, sh), sh) }
    }

    /// One vector ALU op on 16 lanes.
    #[inline(always)]
    unsafe fn v_alu512<const OP: u8>(a: __m512i, b: __m512i, vm: __m512i, bits: u32) -> __m512i {
        unsafe {
            let shamt = || _mm512_and_si512(b, _mm512_set1_epi32(bits as i32 - 1));
            match OP {
                0 => _mm512_and_si512(_mm512_add_epi32(a, b), vm),
                1 => _mm512_and_si512(_mm512_sub_epi32(a, b), vm),
                2 => _mm512_and_si512(a, b),
                3 => _mm512_or_si512(a, b),
                4 => _mm512_xor_si512(a, b),
                5 => _mm512_xor_si512(_mm512_or_si512(a, b), vm),
                6 => _mm512_and_si512(_mm512_sllv_epi32(a, shamt()), vm),
                7 => _mm512_srlv_epi32(a, shamt()),
                8 => _mm512_and_si512(_mm512_srav_epi32(sext512(a, bits), shamt()), vm),
                9 => _mm512_and_si512(_mm512_mullo_epi32(a, b), vm),
                13 => _mm512_and_si512(_mm512_min_epi32(sext512(a, bits), sext512(b, bits)), vm),
                14 => _mm512_and_si512(_mm512_max_epi32(sext512(a, bits), sext512(b, bits)), vm),
                15 => _mm512_min_epu32(a, b),
                16 => _mm512_max_epu32(a, b),
                _ => unreachable!("scalar-only op reached the vector path"),
            }
        }
    }

    /// The per-tile body, for a ragged last tile: `n < 64` lanes under
    /// `mw`, in 16-lane groups with the scalar loop for the last `n % 16`.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, and `OP` must vectorize.
    #[target_feature(enable = "avx512f")]
    unsafe fn alu_chunk512<const OP: u8, const RS: bool>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        b: Option<&[Word]>,
        s: Word,
        w: Width,
        mw: u64,
    ) {
        let n = dst.len();
        let bits = w.bits();
        // reads and writes of `dst` all go through this one pointer
        let pd = dst.as_mut_ptr() as *mut i32;
        let pa = src_lanes(a, pd, n);
        let pb = if RS { pd } else { src_lanes(b, pd, n) };
        // SAFETY: the caller guarantees AVX-512F. `pd`, `pa` and `pb` each
        // point at `n` lanes (`src_lanes` checks a source's length), and
        // group `g < n / 16` touches lanes `16g..16g + 16` only. A group
        // loads both operands before its masked store, so a source that
        // is `dst` is read before any of its lanes in the group is written.
        unsafe {
            let vm = _mm512_set1_epi32(w.mask() as i32);
            let vs = _mm512_set1_epi32(s.to_u32() as i32);
            for g in 0..n / 16 {
                let k = (mw >> (g * 16)) as u16;
                if k == 0 {
                    continue;
                }
                let va = _mm512_loadu_epi32(pa.add(g * 16));
                let vb = if RS { vs } else { _mm512_loadu_epi32(pb.add(g * 16)) };
                let vr = v_alu512::<OP>(va, vb, vm, bits);
                _mm512_mask_storeu_epi32(pd.add(g * 16), k, vr);
            }
        }
        alu_lanes::<RS>(op_of::<OP>(), dst, a, b, s, w, mw, (n / 16) * 16);
    }

    /// One full tile as four 16-lane operations, each stored under its
    /// 16 bits of `mw`: every operand is loaded before the first store.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, `OP` must vectorize, and `pd`, `pa`
    /// and `pb` must each point at 64 lanes (`pb` is not read when `RS`).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn alu_tile512<const OP: u8, const RS: bool>(
        pd: *mut i32,
        pa: *const i32,
        pb: *const i32,
        vs: __m512i,
        vm: __m512i,
        bits: u32,
        mw: u64,
    ) {
        unsafe {
            let (mut va, mut vb) = ([vs; 4], [vs; 4]);
            for q in 0..4 {
                va[q] = _mm512_loadu_epi32(pa.add(16 * q));
                if !RS {
                    vb[q] = _mm512_loadu_epi32(pb.add(16 * q));
                }
            }
            for q in 0..4 {
                let vr = v_alu512::<OP>(va[q], vb[q], vm, bits);
                _mm512_mask_storeu_epi32(pd.add(16 * q), (mw >> (16 * q)) as u16, vr);
            }
        }
    }

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn alu_span512<const OP: u8, const RS: bool>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        b: Option<&[Word]>,
        s: Word,
        w: Width,
        masks: &[u64],
    ) {
        if scalar_only(OP) {
            return alu_span_scalar::<RS>(op_of::<OP>(), dst, a, b, s, w, masks);
        }
        let n = dst.len();
        check_span(n, masks);
        let full = n / TILE_LANES;
        let pd = dst.as_mut_ptr() as *mut i32;
        let pa = src_lanes(a, pd, n);
        let pb = if RS { pd } else { src_lanes(b, pd, n) };
        // SAFETY: the caller guarantees AVX-512F, and `OP` vectorizes.
        // `pd`, `pa` and `pb` each point at `n` lanes (`src_lanes` checks a
        // source's length), and tile `t < n / 64` touches lanes
        // `64t..64t + 64` only.
        unsafe {
            let vm = _mm512_set1_epi32(w.mask() as i32);
            let vs = _mm512_set1_epi32(s.to_u32() as i32);
            for (t, &mw) in masks[..full].iter().enumerate() {
                if mw != 0 {
                    let o = t * TILE_LANES;
                    alu_tile512::<OP, RS>(pd.add(o), pa.add(o), pb.add(o), vs, vm, w.bits(), mw);
                }
            }
        }
        if let Some(&mw @ 1..) = masks.get(full) {
            let o = full * TILE_LANES;
            let (x, y) = (from_lane(a, o), from_lane(b, o));
            // SAFETY: the caller guarantees AVX-512F, and `OP` vectorizes.
            unsafe { alu_chunk512::<OP, RS>(&mut dst[o..], x, y, s, w, mw) }
        }
    }

    /// One vector compare on 16 lanes, as a 16-bit result mask.
    #[inline(always)]
    unsafe fn v_cmp512<const OP: u8>(a: __m512i, b: __m512i, bits: u32) -> u16 {
        unsafe {
            match OP {
                0 => _mm512_cmpeq_epi32_mask(a, b),
                1 => _mm512_cmpneq_epi32_mask(a, b),
                2 => _mm512_cmplt_epi32_mask(sext512(a, bits), sext512(b, bits)),
                3 => _mm512_cmple_epi32_mask(sext512(a, bits), sext512(b, bits)),
                4 => _mm512_cmplt_epu32_mask(a, b),
                5 => _mm512_cmple_epu32_mask(a, b),
                _ => unreachable!("invalid compare code"),
            }
        }
    }

    /// The per-tile compare body, for a ragged last tile of `n < 64`
    /// lanes: result bits at their lane index.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, and `b` must hold `a.len()` lanes
    /// unless `RS`.
    #[target_feature(enable = "avx512f")]
    unsafe fn cmp_chunk512<const OP: u8, const RS: bool>(
        a: &[Word],
        b: &[Word],
        s: Word,
        w: Width,
    ) -> u64 {
        let n = a.len();
        let bits = w.bits();
        let mut res = 0u64;
        unsafe {
            let vs = _mm512_set1_epi32(s.to_u32() as i32);
            let groups = n / 16;
            for g in 0..groups {
                let va = _mm512_loadu_epi32(lanes_ptr(a).add(g * 16));
                let vb = if RS { vs } else { _mm512_loadu_epi32(lanes_ptr(b).add(g * 16)) };
                res |= (v_cmp512::<OP>(va, vb, bits) as u64) << (g * 16);
            }
            res | cmp_lanes::<RS>(cmp_of::<OP>(), a, b, s, w, groups * 16)
        }
    }

    /// One full tile's compare results, as four 16-lane compares.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, and `pa` and `pb` must each point
    /// at 64 lanes (`pb` is not read when `RS`).
    #[inline(always)]
    unsafe fn cmp_tile512<const OP: u8, const RS: bool>(
        pa: *const i32,
        pb: *const i32,
        vs: __m512i,
        bits: u32,
    ) -> u64 {
        let mut res = 0u64;
        unsafe {
            for q in 0..4 {
                let va = _mm512_loadu_epi32(pa.add(16 * q));
                let vb = if RS { vs } else { _mm512_loadu_epi32(pb.add(16 * q)) };
                res |= (v_cmp512::<OP>(va, vb, bits) as u64) << (16 * q);
            }
        }
        res
    }

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn cmp_span512<const OP: u8, const RS: bool>(
        flags: &mut [u64],
        a: &[Word],
        b: &[Word],
        s: Word,
        w: Width,
        masks: &[u64],
    ) {
        let n = a.len();
        check_span(n, masks);
        assert_eq!(flags.len(), masks.len(), "a compare span takes one flag word per tile");
        assert!(RS || b.len() == n, "compare operand lengths differ");
        let full = n / TILE_LANES;
        let pa = lanes_ptr(a);
        let pb = if RS { pa } else { lanes_ptr(b) };
        // SAFETY: the caller guarantees AVX-512F. `pa` and `pb` each point
        // at `n` lanes (checked above), and tile `t < n / 64` reads lanes
        // `64t..64t + 64` only.
        unsafe {
            let vs = _mm512_set1_epi32(s.to_u32() as i32);
            for (t, (f, &mw)) in flags[..full].iter_mut().zip(&masks[..full]).enumerate() {
                if mw != 0 {
                    let o = t * TILE_LANES;
                    *f = merge(*f, cmp_tile512::<OP, RS>(pa.add(o), pb.add(o), vs, w.bits()), mw);
                }
            }
        }
        if let Some(&mw @ 1..) = masks.get(full) {
            let o = full * TILE_LANES;
            let y = if RS { &[][..] } else { &b[o..] };
            // SAFETY: the caller guarantees AVX-512F; `y` holds the tile's
            // lanes unless `RS`.
            flags[full] =
                merge(flags[full], unsafe { cmp_chunk512::<OP, RS>(&a[o..], y, s, w) }, mw);
        }
    }

    // -------------------------------------------------------- sum tiles
    //
    // W8/W16 lanes sign-extend into i32, where the sum of two saturated
    // nodes cannot overflow, so each tree level is a 32-bit add plus a
    // clamp to the width's signed range. The tree shape is fixed: every
    // level adds exactly the sibling pairs of the perfect tree, whatever
    // lane order the shuffles leave them in (the add is commutative).

    /// `values` as a full tile: the slice itself, or a zero-padded copy
    /// in `buf` for a ragged tail tile (never read past the slice).
    #[inline(always)]
    fn full_tile<'a>(values: &'a [Word], buf: &'a mut [Word; 64]) -> &'a [Word] {
        if values.len() == 64 {
            return values;
        }
        buf[..values.len()].copy_from_slice(values);
        buf
    }

    /// Clamp each lane into `[lo, hi]`: one saturating tree level.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn clamp256(v: __m256i, lo: __m256i, hi: __m256i) -> __m256i {
        unsafe { _mm256_min_epi32(_mm256_max_epi32(v, lo), hi) }
    }

    /// Lanes `8g..8g + 8` of the tile, sign-extended, inactive lanes zero.
    ///
    /// # Safety
    /// The CPU must support AVX2, and `p` must point at a tile of 64
    /// readable lanes with `g < 8`.
    #[inline(always)]
    unsafe fn sum_load256(p: *const i32, g: usize, mw: u64, bits: u32) -> __m256i {
        unsafe {
            // lane i's mask bit shifted up to the sign bit, which is the
            // per-lane enable of vpmaskmovd
            let to_sign = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
            let gm = _mm256_set1_epi32((mw >> (g * 8)) as i32 & 0xff);
            let v = _mm256_maskload_epi32(p.add(g * 8), _mm256_sllv_epi32(gm, to_sign));
            sext256(v, bits)
        }
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_tile_avx2_impl(values: &[Word], w: Width, mw: u64) -> Word {
        if w == Width::W32 {
            return sum_tile_scalar(values, w, mw);
        }
        let mut buf = [Word::ZERO; 64];
        let p = lanes_ptr(full_tile(values, &mut buf));
        let bits = w.bits();
        // SAFETY: the caller guarantees AVX2; `p` points at 64 lanes
        // (`full_tile`), and `v` loads groups 0..8 only.
        unsafe {
            let lo = _mm256_set1_epi32(w.smin() as i32);
            let hi = _mm256_set1_epi32(w.smax() as i32);
            let v = |g| sum_load256(p, g, mw, bits);
            let level = |a, b| clamp256(_mm256_hadd_epi32(a, b), lo, hi);
            // levels 1-2: vphaddd adds adjacent lanes within each 128-bit
            // half, which pairs siblings twice over; after level 2, half
            // 0 holds the first 4-lane node of every 8-lane group and
            // half 1 the second:
            // q0 = [0-3, 8-11, 16-19, 24-27 | 4-7, 12-15, 20-23, 28-31]
            let q0 = level(level(v(0), v(1)), level(v(2), v(3)));
            let q1 = level(level(v(4), v(5)), level(v(6), v(7)));
            // level 3 adds the halves: the eight 8-lane nodes, in order
            let r = clamp256(
                _mm256_add_epi32(
                    _mm256_permute2x128_si256::<0x20>(q0, q1),
                    _mm256_permute2x128_si256::<0x31>(q0, q1),
                ),
                lo,
                hi,
            );
            // levels 4-5: [0-15, 16-31, .. | 32-47, 48-63, ..], then
            // [0-31, .. | 32-63, ..]; level 6 joins the two halves
            let s = level(r, r);
            let t = level(s, s);
            let root = _mm256_cvtsi256_si32(t) as i64 + _mm256_extract_epi32::<4>(t) as i64;
            Word::from_i64(root.clamp(w.smin(), w.smax()), w)
        }
    }

    // --------------------------------------------- safe kernel entries
    //
    // SAFETY (all of these): the selectors hand out AVX2/AVX-512 entries
    // for the tier they are given, and the AVX2 sum tile and the
    // word-span kernels (AVX2, the popcount with POPCNT) at both vector
    // tiers, which `detect_hw` grants only when all of these features are
    // present. The tier reaches them through the public fields
    // `ArrayConfig::simd` and `NetworkConfig::simd` (the sum tile and the
    // responder units' kernels); the contract is that callers set those
    // only to a tier returned by [`SimdLevel::detect`],
    // [`SimdLevel::detect_hw`] or [`SimdLevel::available`], which probed
    // the features at runtime.

    fn alu_rr_avx2<const OP: u8>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        b: Option<&[Word]>,
        w: Width,
        masks: &[u64],
    ) {
        unsafe { alu_span256::<OP, false>(dst, a, b, Word::ZERO, w, masks) }
    }

    fn alu_rs_avx2<const OP: u8>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        s: Word,
        w: Width,
        masks: &[u64],
    ) {
        unsafe { alu_span256::<OP, true>(dst, a, None, s, w, masks) }
    }

    fn cmp_rr_avx2<const OP: u8>(
        flags: &mut [u64],
        a: &[Word],
        b: &[Word],
        w: Width,
        masks: &[u64],
    ) {
        unsafe { cmp_span256::<OP, false>(flags, a, b, Word::ZERO, w, masks) }
    }

    fn cmp_rs_avx2<const OP: u8>(flags: &mut [u64], a: &[Word], s: Word, w: Width, masks: &[u64]) {
        unsafe { cmp_span256::<OP, true>(flags, a, &[], s, w, masks) }
    }

    fn alu_rr_avx512<const OP: u8>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        b: Option<&[Word]>,
        w: Width,
        masks: &[u64],
    ) {
        unsafe { alu_span512::<OP, false>(dst, a, b, Word::ZERO, w, masks) }
    }

    fn alu_rs_avx512<const OP: u8>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        s: Word,
        w: Width,
        masks: &[u64],
    ) {
        unsafe { alu_span512::<OP, true>(dst, a, None, s, w, masks) }
    }

    fn cmp_rr_avx512<const OP: u8>(
        flags: &mut [u64],
        a: &[Word],
        b: &[Word],
        w: Width,
        masks: &[u64],
    ) {
        unsafe { cmp_span512::<OP, false>(flags, a, b, Word::ZERO, w, masks) }
    }

    fn cmp_rs_avx512<const OP: u8>(
        flags: &mut [u64],
        a: &[Word],
        s: Word,
        w: Width,
        masks: &[u64],
    ) {
        unsafe { cmp_span512::<OP, true>(flags, a, &[], s, w, masks) }
    }

    pub(super) fn sum_tile_avx2(values: &[Word], w: Width, mw: u64) -> Word {
        unsafe { sum_tile_avx2_impl(values, w, mw) }
    }

    /// # Safety
    /// The CPU must support AVX2 and POPCNT.
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn popcount_avx2_impl(flags: &[u64], masks: &[u64]) -> u64 {
        popcount_body(flags, masks)
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn first_set_avx2_impl(flags: &[u64], masks: &[u64], invert: u64) -> Option<usize> {
        first_set_body(flags, masks, invert)
    }

    pub(super) fn popcount_avx2(flags: &[u64], masks: &[u64]) -> u64 {
        unsafe { popcount_avx2_impl(flags, masks) }
    }

    pub(super) fn first_set_avx2(flags: &[u64], masks: &[u64], invert: u64) -> Option<usize> {
        unsafe { first_set_avx2_impl(flags, masks, invert) }
    }

    // --------------------------------------- per-tier dispatch tables

    pub(super) fn select_alu_rr_avx2(op: AluOp) -> AluRrKernel {
        alu_table!(op, alu_rr_avx2)
    }
    pub(super) fn select_alu_rs_avx2(op: AluOp) -> AluRsKernel {
        alu_table!(op, alu_rs_avx2)
    }
    pub(super) fn select_cmp_rr_avx2(op: CmpOp) -> CmpRrKernel {
        cmp_table!(op, cmp_rr_avx2)
    }
    pub(super) fn select_cmp_rs_avx2(op: CmpOp) -> CmpRsKernel {
        cmp_table!(op, cmp_rs_avx2)
    }
    pub(super) fn select_alu_rr_avx512(op: AluOp) -> AluRrKernel {
        alu_table!(op, alu_rr_avx512)
    }
    pub(super) fn select_alu_rs_avx512(op: AluOp) -> AluRsKernel {
        alu_table!(op, alu_rs_avx512)
    }
    pub(super) fn select_cmp_rr_avx512(op: CmpOp) -> CmpRrKernel {
        cmp_table!(op, cmp_rr_avx512)
    }
    pub(super) fn select_cmp_rs_avx512(op: CmpOp) -> CmpRsKernel {
        cmp_table!(op, cmp_rs_avx512)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic but irregular lane values covering sign bits, the
    /// width mask boundary, and shift-relevant low bits.
    fn sample_plane(w: Width, salt: u32, n: usize) -> Vec<Word> {
        (0..n as u32)
            .map(|i| {
                let v = i.wrapping_mul(0x9e37_79b9).wrapping_add(salt).rotate_left((i + salt) % 31);
                Word::new(v & w.mask(), w)
            })
            .collect()
    }

    /// Span lengths the kernels are checked at. Single ragged tiles: 1, 5
    /// and 37 lanes end in a scalar tail; 8, 16 and 48 are whole AVX2 or
    /// AVX-512 vectors with an empty tail. A whole tile, then multi-tile
    /// spans whose ragged last tile is 32 lanes (dense under the mixed
    /// masks), 16 lanes (a zero word under them), 37 lanes, and 48 lanes
    /// (one dense and two zero 16-lane slices under them), and a whole
    /// group and a ragged tile.
    const SPANS: [usize; 12] =
        [1, 5, 8, 16, 37, 48, 64, 64 + 32, 2 * 64 + 16, 3 * 64 + 37, 4 * 64 + 48, 4096 + 5];

    /// Mask words for an `n`-lane span: every tile dense, then a mix of
    /// sparse, dense, zero and edge-lane words. Either way the last word
    /// is clipped to the span (the tail invariant).
    fn span_masks(n: usize) -> [Vec<u64>; 2] {
        let tiles = n.div_ceil(64);
        let clip = |mut masks: Vec<u64>| {
            masks[tiles - 1] &= chunk_mask(n - (tiles - 1) * 64);
            masks
        };
        let mix =
            [0x5f3a_c6e9_1b4d_8872, u64::MAX, 0, 0x8000_0000_0000_0001, 0xffff_0000_0000_ffff];
        [clip(vec![u64::MAX; tiles]), clip((0..tiles).map(|t| mix[t % mix.len()]).collect())]
    }

    /// One irregular flag word per tile, tail bits included: a compare
    /// must keep every bit its mask leaves out.
    fn sample_flags(n: usize) -> Vec<u64> {
        (0..n.div_ceil(64) as u64)
            .map(|t| 0xa5c3_5a3c_0ff0_f00f ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect()
    }

    fn active(masks: &[u64], i: usize) -> bool {
        masks[i / 64] >> (i % 64) & 1 == 1
    }

    /// `op` applied lane by lane to copies of the inputs: `lhs op rhs(i)`
    /// in the lanes of `masks`, `old` elsewhere.
    fn lane_oracle(
        op: AluOp,
        old: &[Word],
        lhs: &[Word],
        rhs: impl Fn(usize) -> Word,
        w: Width,
        masks: &[u64],
    ) -> Vec<Word> {
        (0..old.len())
            .map(|i| if active(masks, i) { op.apply(lhs[i], rhs(i), w) } else { old[i] })
            .collect()
    }

    /// `flags` with lane `i`'s bit set to `a[i] op rhs(i)` in the lanes of
    /// `masks`, lane by lane.
    fn cmp_oracle(
        op: CmpOp,
        flags: &[u64],
        a: &[Word],
        rhs: impl Fn(usize) -> Word,
        w: Width,
        masks: &[u64],
    ) -> Vec<u64> {
        let mut out = flags.to_vec();
        for i in (0..a.len()).filter(|&i| active(masks, i)) {
            let bit = 1u64 << (i % 64);
            if op.apply(a[i], rhs(i), w) {
                out[i / 64] |= bit;
            } else {
                out[i / 64] &= !bit;
            }
        }
        out
    }

    fn check_level(level: SimdLevel) {
        for &w in &[Width::W8, Width::W16, Width::W32] {
            let s = Word::new(0x2f & w.mask(), w);
            for n in SPANS {
                let (a, b, old) =
                    (sample_plane(w, 1, n), sample_plane(w, 0x55, n), sample_plane(w, 9, n));
                let flags = sample_flags(n);
                for (m, masks) in span_masks(n).iter().enumerate() {
                    let at = format!("{level:?} {w} n={n} masks #{m}");
                    for &op in AluOp::ALL {
                        let mut got = old.clone();
                        select_alu_rr(level, op)(&mut got, Some(&a), Some(&b), w, masks);
                        assert_eq!(
                            got,
                            lane_oracle(op, &old, &a, |i| b[i], w, masks),
                            "{op} rr {at}"
                        );
                        let mut got = old.clone();
                        select_alu_rs(level, op)(&mut got, Some(&a), s, w, masks);
                        assert_eq!(got, lane_oracle(op, &old, &a, |_| s, w, masks), "{op} rs {at}");
                    }
                    for &op in CmpOp::ALL {
                        let mut got = flags.clone();
                        select_cmp_rr(level, op)(&mut got, &a, &b, w, masks);
                        assert_eq!(
                            got,
                            cmp_oracle(op, &flags, &a, |i| b[i], w, masks),
                            "{op} rr {at}"
                        );
                        let mut got = flags.clone();
                        select_cmp_rs(level, op)(&mut got, &a, s, w, masks);
                        assert_eq!(
                            got,
                            cmp_oracle(op, &flags, &a, |_| s, w, masks),
                            "{op} rs {at}"
                        );
                    }
                    // the sum tile takes one tile at a time
                    for (t, &mw) in masks.iter().enumerate() {
                        let tile = &a[t * 64..n.min(t * 64 + 64)];
                        assert_eq!(
                            select_sum_tile(level)(tile, w, mw),
                            sum_tile_scalar(tile, w, mw),
                            "sum tile {t} {at}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_available_tier_matches_the_scalar_reference() {
        for level in SimdLevel::available() {
            check_level(level);
        }
    }

    /// A destination that is also a source (`None`) reads each lane's old
    /// value, at every tier, op, span length and mask.
    #[test]
    fn in_place_sources_read_the_old_destination() {
        for level in SimdLevel::available() {
            for &w in &[Width::W8, Width::W16, Width::W32] {
                let s = Word::new(0x2f & w.mask(), w);
                for n in SPANS {
                    let (a, b) = (sample_plane(w, 1, n), sample_plane(w, 0x55, n));
                    for (m, masks) in span_masks(n).iter().enumerate() {
                        for &op in AluOp::ALL {
                            let (rr, rs) = (select_alu_rr(level, op), select_alu_rs(level, op));
                            let at = format!("{level:?} {op} {w} n={n} masks #{m}");
                            let mut d = a.clone();
                            rr(&mut d, None, Some(&b), w, masks);
                            assert_eq!(d, lane_oracle(op, &a, &a, |i| b[i], w, masks), "d=a {at}");
                            let mut d = b.clone();
                            rr(&mut d, Some(&a), None, w, masks);
                            assert_eq!(d, lane_oracle(op, &b, &a, |i| b[i], w, masks), "d=b {at}");
                            let mut d = a.clone();
                            rr(&mut d, None, None, w, masks);
                            assert_eq!(
                                d,
                                lane_oracle(op, &a, &a, |i| a[i], w, masks),
                                "d=a=b {at}"
                            );
                            let mut d = a.clone();
                            rs(&mut d, None, s, w, masks);
                            assert_eq!(d, lane_oracle(op, &a, &a, |_| s, w, masks), "rs d=a {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn copy_masked_moves_exactly_the_masked_lanes() {
        for n in SPANS {
            let (src, old) = (sample_plane(Width::W32, 3, n), sample_plane(Width::W32, 4, n));
            for masks in span_masks(n) {
                let mut got = old.clone();
                copy_masked(&mut got, &src, &masks);
                let want: Vec<Word> =
                    (0..n).map(|i| if active(&masks, i) { src[i] } else { old[i] }).collect();
                assert_eq!(got, want, "n={n}");
            }
        }
    }

    /// Flag logic and the PE-index fill write exactly the masked lanes,
    /// checked lane by lane; a `None` flag source reads the old `dst`.
    #[test]
    fn flag_and_index_spans_write_exactly_the_masked_lanes() {
        let bit = |words: &[u64], i: usize| words[i / 64] >> (i % 64) & 1 == 1;
        for n in SPANS {
            let a = sample_flags(n);
            let b: Vec<u64> = a.iter().map(|w| w.rotate_left(17)).collect();
            let old: Vec<u64> = a.iter().map(|w| !w.rotate_left(5)).collect();
            for masks in span_masks(n) {
                for &op in FlagOp::ALL {
                    for (x, y) in [(Some(&a[..]), Some(&b[..])), (None, Some(&b[..])), (None, None)]
                    {
                        let mut got = old.clone();
                        flag_span(op, &mut got, x, y, &masks);
                        for i in 0..got.len() * 64 {
                            let src = |s: Option<&[u64]>| bit(s.unwrap_or(&old), i);
                            let want = if i < n && active(&masks, i) {
                                op.apply(src(x), src(y))
                            } else {
                                bit(&old, i)
                            };
                            assert_eq!(bit(&got, i), want, "{op:?} n={n} lane {i}");
                        }
                    }
                }
                let old = sample_plane(Width::W8, 7, n);
                let mut got = old.clone();
                index_span(&mut got, 250, Width::W8, &masks);
                for (i, (&g, &o)) in got.iter().zip(&old).enumerate() {
                    let want =
                        if active(&masks, i) { Word::new((250 + i) as u32, Width::W8) } else { o };
                    assert_eq!(g, want, "index n={n} lane {i}");
                }
            }
        }
    }

    /// Word-span lengths the responder kernels are checked at: shorter
    /// than, equal to and just past one 8-word scan step, a group less a
    /// word, a whole group, and a group and a ragged step.
    const WORD_SPANS: [usize; 7] = [1, 7, 8, 9, 63, 64, 64 + 5];

    /// Mask words for an `n`-word span: all dense, all zero, sparse, a
    /// single bit in the last word, and dense with a clipped last word
    /// (the tail word of a ragged plane).
    fn word_masks(n: usize) -> [(&'static str, Vec<u64>); 5] {
        let mut last = vec![0; n];
        last[n - 1] = 1 << 37;
        let mut clipped = vec![u64::MAX; n];
        clipped[n - 1] = chunk_mask(13);
        let sparse = (0..n as u32).map(|t| (0x0100_0000_8000_0010u64 << (t % 3)).rotate_left(t));
        [
            ("dense", vec![u64::MAX; n]),
            ("zero", vec![0; n]),
            ("sparse", sparse.collect()),
            ("last bit", last),
            ("clipped", clipped),
        ]
    }

    /// The two responder kernels at every tier against a word-by-word
    /// loop, over flag planes whose set (or, inverted, clear) bits start
    /// at the first word or only in the last one, so a scan stops in its
    /// first step, in a later one, or in the ragged words after the last
    /// whole step.
    #[test]
    fn word_span_kernels_match_a_word_loop() {
        for level in SimdLevel::available() {
            let (popcount, first_set) = (select_popcount(level), select_first_set(level));
            for n in WORD_SPANS {
                let irregular = sample_flags(n * 64);
                let mut late = vec![0; n];
                late[n - 1] = irregular[n - 1] | 1 << 37;
                let clear_but_late: Vec<u64> = late.iter().map(|w| !w).collect();
                for (planes, flags) in [
                    ("irregular", &irregular),
                    ("late", &late),
                    ("clear but late", &clear_but_late),
                ] {
                    for (name, masks) in &word_masks(n) {
                        let at = format!("{level:?} n={n} {planes} flags, {name} masks");
                        let hits =
                            |invert: u64| (0..n).map(move |t| (flags[t] ^ invert) & masks[t]);
                        let count: u64 = hits(0).map(|h| u64::from(h.count_ones())).sum();
                        assert_eq!(popcount(flags, masks), count, "popcount {at}");
                        for invert in [0, u64::MAX] {
                            let mut first = hits(invert).enumerate().filter(|&(_, h)| h != 0);
                            let want =
                                first.next().map(|(t, h)| t * 64 + h.trailing_zeros() as usize);
                            assert_eq!(
                                first_set(flags, masks, invert),
                                want,
                                "first ^{invert:x} {at}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "no lane at or above its length")]
    fn a_mask_bit_past_the_span_panics() {
        let mut d = sample_plane(Width::W16, 1, 70);
        select_alu_rs(SimdLevel::detect(), AluOp::Add)(
            &mut d,
            None,
            Word::ZERO,
            Width::W16,
            &[u64::MAX, chunk_mask(7)],
        );
    }

    #[test]
    fn detect_honours_the_env_escape_hatch() {
        // detect() == hw tier unless MTASC_NO_SIMD is set in this process;
        // the env-forced path is covered end to end by ci.sh
        if !simd_disabled() {
            assert_eq!(SimdLevel::detect(), SimdLevel::detect_hw());
        } else {
            assert_eq!(SimdLevel::detect(), SimdLevel::Scalar);
        }
    }

    #[test]
    fn labels_and_order() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2 && SimdLevel::Avx2 < SimdLevel::Avx512);
        assert_eq!(SimdLevel::Scalar.label(), "scalar");
        assert_eq!(SimdLevel::Avx2.label(), "avx2");
        assert_eq!(SimdLevel::Avx512.label(), "avx512");
        assert!(!SimdLevel::Scalar.is_simd() && SimdLevel::Avx2.is_simd());
    }

    #[test]
    fn chunk_mask_tail() {
        assert_eq!(chunk_mask(64), u64::MAX);
        assert_eq!(chunk_mask(5), 0b11111);
        assert_eq!(chunk_mask(0), 0);
    }
}

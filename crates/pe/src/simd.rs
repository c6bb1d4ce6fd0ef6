//! Runtime-dispatched SIMD kernels for the dense inner loops.
//!
//! Every plane operation ultimately reduces to one of four *chunk
//! primitives* over at most 64 lanes (one [`crate::bitmask`] mask word):
//! an ALU op against a register plane or a broadcast scalar, or a compare
//! against the same two operand forms. This module provides those
//! primitives as **monomorphized function pointers** — the operation is a
//! const generic, so selecting a kernel once per instruction (or once per
//! compiled block) hoists the op dispatch entirely out of the lane loop —
//! in three tiers:
//!
//! * **Scalar** — the portable reference loops, built on the exact
//!   [`asc_isa::Word`] semantics. Always available; the other tiers must
//!   be bit-identical to it (the `proptest` feature checks this).
//! * **AVX2** — 8 × `u32` lanes per vector. `Word` is
//!   `#[repr(transparent)]` over `u32` with all bits above the datapath
//!   width zero, so a plane chunk is loadable as packed 32-bit lanes;
//!   width-dependent ops mask with `Width::mask` or sign-extend via a
//!   shift pair. Partially-masked groups blend through `vpblendvb`.
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
//! The tier is resolved **once per machine construction** by
//! [`SimdLevel::detect`] (hardware probe + the `MTASC_NO_SIMD` escape
//! hatch) and carried in [`crate::ArrayConfig`] (and in the reduction
//! network's config, for the sum tile); nothing here reads global mutable
//! state. Building with `--cfg mtasc_force_scalar` (the
//! CI portability check) compiles the intrinsics out entirely and the
//! selectors degrade to the scalar tier.
//!
//! ### Kernel contract
//!
//! All slices have equal length `n ≤ 64`; `mw` is the active-lane bitmask
//! for the chunk and its bits at or above `n` must be zero (the
//! [`crate::ActiveMask`] tail invariant). ALU kernels leave `dst` lanes
//! with a clear mask bit untouched and may read all `n` lanes of the
//! sources; compare kernels return a result bit per lane and may compute
//! inactive lanes (callers merge under `mw`).
//!
//! An ALU source that is `None` is the destination itself, read in
//! place: a PE reads both operands from its own register file, so
//! `pd = pd op pb` needs no copy of `pd`. Every tier reads a lane
//! group's operands before that group's masked store (the scalar loop: a
//! lane's operands before it writes that lane), so each lane computes
//! from its old value. `split_planes` in the array and
//! [`crate::TileWindow::split`] hand out sources in this form.

use asc_isa::{AluOp, CmpOp, Width, Word};

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
            // the AVX-512 tier also runs the AVX2 sum tile
            if std::arch::is_x86_feature_detected!("avx2") {
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

/// ALU chunk primitive against a register plane: `dst = a op b` under
/// `mw`, where a `None` source is `dst` itself (see the kernel contract).
pub type AluRrKernel =
    fn(dst: &mut [Word], a: Option<&[Word]>, b: Option<&[Word]>, w: Width, mw: u64);
/// ALU chunk primitive against a broadcast scalar: `dst = a op s` under
/// `mw`, where a `None` source is `dst` itself.
pub type AluRsKernel = fn(dst: &mut [Word], a: Option<&[Word]>, s: Word, w: Width, mw: u64);
/// Compare chunk primitive against a register plane; bit `i` of the
/// result is `a[i] cmp b[i]` (only meaningful under the caller's mask).
pub type CmpRrKernel = fn(a: &[Word], b: &[Word], w: Width) -> u64;
/// Compare chunk primitive against a broadcast scalar.
pub type CmpRsKernel = fn(a: &[Word], s: Word, w: Width) -> u64;
/// Saturating-sum tile primitive: the perfect pairwise adder tree over one
/// 64-lane tile, saturating at every node, with the lanes whose `mw` bit
/// is clear (and lanes at or above `values.len()`) entering as zero.
pub type SumTileKernel = fn(values: &[Word], w: Width, mw: u64) -> Word;

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

/// The dense-chunk mask: all `n` lanes active.
#[inline(always)]
pub fn chunk_mask(n: usize) -> u64 {
    debug_assert!(n <= 64);
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

// --------------------------------------------------------------- scalar

/// Scalar ALU lanes `[from..n)` under `mw`; the shared reference loop and
/// the vector kernels' tail/fallback. `RS` selects the broadcast form (`b`
/// is ignored). A `None` source is `dst`, whose lane is read before it is
/// written.
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

/// Scalar compare lanes `[from..)`, returning result bits positioned at
/// their lane index.
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

fn alu_rr_scalar<const OP: u8>(
    dst: &mut [Word],
    a: Option<&[Word]>,
    b: Option<&[Word]>,
    w: Width,
    mw: u64,
) {
    alu_lanes::<false>(op_of::<OP>(), dst, a, b, Word::ZERO, w, mw, 0);
}

fn alu_rs_scalar<const OP: u8>(dst: &mut [Word], a: Option<&[Word]>, s: Word, w: Width, mw: u64) {
    alu_lanes::<true>(op_of::<OP>(), dst, a, None, s, w, mw, 0);
}

fn cmp_rr_scalar<const OP: u8>(a: &[Word], b: &[Word], w: Width) -> u64 {
    cmp_lanes::<false>(cmp_of::<OP>(), a, b, Word::ZERO, w, 0)
}

fn cmp_rs_scalar<const OP: u8>(a: &[Word], s: Word, w: Width) -> u64 {
    cmp_lanes::<true>(cmp_of::<OP>(), a, &[], s, w, 0)
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

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn alu_avx2<const OP: u8, const RS: bool>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        b: Option<&[Word]>,
        s: Word,
        w: Width,
        mw: u64,
    ) {
        if scalar_only(OP) {
            return alu_lanes::<RS>(op_of::<OP>(), dst, a, b, s, w, mw, 0);
        }
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

    #[target_feature(enable = "avx2")]
    unsafe fn cmp_avx2<const OP: u8, const RS: bool>(
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

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn alu_avx512_impl<const OP: u8, const RS: bool>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        b: Option<&[Word]>,
        s: Word,
        w: Width,
        mw: u64,
    ) {
        if scalar_only(OP) {
            return alu_lanes::<RS>(op_of::<OP>(), dst, a, b, s, w, mw, 0);
        }
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

    #[target_feature(enable = "avx512f")]
    unsafe fn cmp_avx512_impl<const OP: u8, const RS: bool>(
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
    // for the tier they are given, and the AVX2 sum tile at the AVX-512
    // tier too, which `detect_hw` grants only when both are present. The
    // tier reaches them through the public fields `ArrayConfig::simd` and
    // `NetworkConfig::simd` (the sum tile); the contract is that callers
    // set those only to a tier returned by [`SimdLevel::detect`],
    // [`SimdLevel::detect_hw`] or [`SimdLevel::available`], which probed
    // the features at runtime.

    fn alu_rr_avx2<const OP: u8>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        b: Option<&[Word]>,
        w: Width,
        mw: u64,
    ) {
        unsafe { alu_avx2::<OP, false>(dst, a, b, Word::ZERO, w, mw) }
    }

    fn alu_rs_avx2<const OP: u8>(dst: &mut [Word], a: Option<&[Word]>, s: Word, w: Width, mw: u64) {
        unsafe { alu_avx2::<OP, true>(dst, a, None, s, w, mw) }
    }

    fn cmp_rr_avx2<const OP: u8>(a: &[Word], b: &[Word], w: Width) -> u64 {
        unsafe { cmp_avx2::<OP, false>(a, b, Word::ZERO, w) }
    }

    fn cmp_rs_avx2<const OP: u8>(a: &[Word], s: Word, w: Width) -> u64 {
        unsafe { cmp_avx2::<OP, true>(a, &[], s, w) }
    }

    fn alu_rr_avx512<const OP: u8>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        b: Option<&[Word]>,
        w: Width,
        mw: u64,
    ) {
        unsafe { alu_avx512_impl::<OP, false>(dst, a, b, Word::ZERO, w, mw) }
    }

    fn alu_rs_avx512<const OP: u8>(
        dst: &mut [Word],
        a: Option<&[Word]>,
        s: Word,
        w: Width,
        mw: u64,
    ) {
        unsafe { alu_avx512_impl::<OP, true>(dst, a, None, s, w, mw) }
    }

    fn cmp_rr_avx512<const OP: u8>(a: &[Word], b: &[Word], w: Width) -> u64 {
        unsafe { cmp_avx512_impl::<OP, false>(a, b, Word::ZERO, w) }
    }

    fn cmp_rs_avx512<const OP: u8>(a: &[Word], s: Word, w: Width) -> u64 {
        unsafe { cmp_avx512_impl::<OP, true>(a, &[], s, w) }
    }

    pub(super) fn sum_tile_avx2(values: &[Word], w: Width, mw: u64) -> Word {
        unsafe { sum_tile_avx2_impl(values, w, mw) }
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

    fn check_level(level: SimdLevel) {
        for &w in &[Width::W8, Width::W16, Width::W32] {
            for &n in &[64usize, 37, 8, 5, 1] {
                let a = sample_plane(w, 1, n);
                let b = sample_plane(w, 0x55, n);
                let s = Word::new(0x2f & w.mask(), w);
                // an irregular mask plus the dense mask
                for mw in [chunk_mask(n), chunk_mask(n) & 0x5f3a_c6e9_1b4d_8872] {
                    for &op in AluOp::ALL {
                        let mut want = sample_plane(w, 9, n);
                        let mut got = want.clone();
                        alu_lanes::<false>(op, &mut want, Some(&a), Some(&b), Word::ZERO, w, mw, 0);
                        select_alu_rr(level, op)(&mut got, Some(&a), Some(&b), w, mw);
                        assert_eq!(got, want, "{level:?} {op} rr {w} n={n} mw={mw:#x}");
                        let mut want_s = sample_plane(w, 9, n);
                        let mut got_s = want_s.clone();
                        alu_lanes::<true>(op, &mut want_s, Some(&a), None, s, w, mw, 0);
                        select_alu_rs(level, op)(&mut got_s, Some(&a), s, w, mw);
                        assert_eq!(got_s, want_s, "{level:?} {op} rs {w} n={n} mw={mw:#x}");
                    }
                    assert_eq!(
                        select_sum_tile(level)(&a, w, mw),
                        sum_tile_scalar(&a, w, mw),
                        "{level:?} sum tile {w} n={n} mw={mw:#x}"
                    );
                    for &op in CmpOp::ALL {
                        let want = cmp_lanes::<false>(op, &a, &b, Word::ZERO, w, 0) & mw;
                        let got = select_cmp_rr(level, op)(&a, &b, w) & mw;
                        assert_eq!(got, want, "{level:?} {op} rr {w} n={n}");
                        let want_s = cmp_lanes::<true>(op, &a, &[], s, w, 0) & mw;
                        let got_s = select_cmp_rs(level, op)(&a, s, w) & mw;
                        assert_eq!(got_s, want_s, "{level:?} {op} rs {w} n={n}");
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

    /// `op` applied lane by lane to copies of the inputs: `lhs op rhs(i)`
    /// in the lanes of `mw`, `old` elsewhere.
    fn lane_oracle(
        op: AluOp,
        old: &[Word],
        lhs: &[Word],
        rhs: impl Fn(usize) -> Word,
        w: Width,
        mw: u64,
    ) -> Vec<Word> {
        (0..old.len())
            .map(|i| if mw >> i & 1 == 1 { op.apply(lhs[i], rhs(i), w) } else { old[i] })
            .collect()
    }

    /// A destination that is also a source (`None`) reads each lane's old
    /// value, at every tier, op, tail length and mask.
    #[test]
    fn in_place_sources_read_the_old_destination() {
        for level in SimdLevel::available() {
            for &w in &[Width::W8, Width::W16, Width::W32] {
                for &n in &[64usize, 37, 8, 5, 1] {
                    let (a, b) = (sample_plane(w, 1, n), sample_plane(w, 0x55, n));
                    let s = Word::new(0x2f & w.mask(), w);
                    for mw in [chunk_mask(n), chunk_mask(n) & 0x5f3a_c6e9_1b4d_8872] {
                        for &op in AluOp::ALL {
                            let (rr, rs) = (select_alu_rr(level, op), select_alu_rs(level, op));
                            let at = format!("{level:?} {op} {w} n={n} mw={mw:#x}");
                            let mut d = a.clone();
                            rr(&mut d, None, Some(&b), w, mw);
                            assert_eq!(d, lane_oracle(op, &a, &a, |i| b[i], w, mw), "d=a {at}");
                            let mut d = b.clone();
                            rr(&mut d, Some(&a), None, w, mw);
                            assert_eq!(d, lane_oracle(op, &b, &a, |i| b[i], w, mw), "d=b {at}");
                            let mut d = a.clone();
                            rr(&mut d, None, None, w, mw);
                            assert_eq!(d, lane_oracle(op, &a, &a, |i| a[i], w, mw), "d=a=b {at}");
                            let mut d = a.clone();
                            rs(&mut d, None, s, w, mw);
                            assert_eq!(d, lane_oracle(op, &a, &a, |_| s, w, mw), "rs d=a {at}");
                        }
                    }
                }
            }
        }
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

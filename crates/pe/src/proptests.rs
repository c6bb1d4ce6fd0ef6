//! Property tests: the structure-of-arrays [`PeArray`] matches a
//! straightforward per-PE reference model (one `RegFile`/`FlagFile`/
//! `LocalMemory` per PE — the layout the pre-SoA array used) on random
//! masked operation sequences, including the invariants the ISSUE calls
//! out: inactive PEs bit-for-bit unaffected, GPR 0 reads zero / ignores
//! writes, and flag bitplanes round-tripping through `flag_column`.
//! `split_sweeps_match_per_pe_reference` holds the same model against an
//! array large enough for the lane-local sweeps to run on every host
//! worker (see `crate::workers`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use asc_isa::{AluOp, CmpOp, FlagOp, PFlag, PReg, Width, Word};

use crate::array::{ArrayConfig, PeArray, Src};
use crate::bitmask::ActiveMask;
use crate::memory::LocalMemory;
use crate::regfile::{FlagFile, RegFile};
use crate::segments::SegmentGeometry;
use crate::simd::SimdLevel;

const PES: usize = 70; // not a multiple of 64: exercises the tail word
const THREADS: usize = 2;
const LMEM: usize = 16;

fn cfg_at(width: Width, simd: SimdLevel) -> ArrayConfig {
    ArrayConfig {
        num_pes: PES,
        threads: THREADS,
        gprs: 16,
        flags: 8,
        lmem_words: LMEM,
        width,
        simd,
        // 70 PEs as two ragged segments keeps every differential run
        // crossing a segment boundary.
        segments: SegmentGeometry::new(PES, 2),
    }
}

fn cfg() -> ArrayConfig {
    cfg_at(Width::W8, SimdLevel::detect())
}

/// Per-PE reference model: the array-of-structures layout, operated on
/// lane by lane exactly as the masked-execution semantics prescribe.
struct RefArray {
    pes: Vec<(RegFile, FlagFile, LocalMemory)>,
    w: Width,
}

impl RefArray {
    fn new() -> RefArray {
        RefArray::of(&cfg())
    }

    fn of(c: &ArrayConfig) -> RefArray {
        RefArray {
            pes: (0..c.num_pes)
                .map(|_| {
                    (
                        RegFile::new(c.threads, c.gprs),
                        FlagFile::new(c.threads, c.flags),
                        LocalMemory::new(c.lmem_words),
                    )
                })
                .collect(),
            w: c.width,
        }
    }
}

/// One random masked PE-array operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Alu(AluOp, u8, u8, Src),
    Cmp(CmpOp, u8, u8, Src),
    Flag(FlagOp, u8, u8, u8),
    Load(u8, u8, i32),
    Store(u8, u8, i32),
    Pidx(u8),
    Movs(u8, Word),
    Shift(u8, u8, i32),
}

fn random_src(rng: &mut StdRng) -> Src {
    match rng.random_range(0..3) {
        0 => Src::Reg(PReg::from_index(rng.random_range(0..16))),
        1 => Src::Scalar(Word(rng.random_range(0..256))),
        _ => Src::Imm(Word(rng.random_range(0..256))),
    }
}

fn random_op(rng: &mut StdRng) -> Op {
    let reg = |rng: &mut StdRng| rng.random_range(0..16u8);
    let flag = |rng: &mut StdRng| rng.random_range(0..8u8);
    match rng.random_range(0..8) {
        0 => {
            let ops = [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::And, AluOp::Min, AluOp::Srl];
            Op::Alu(ops[rng.random_range(0..ops.len())], reg(rng), reg(rng), random_src(rng))
        }
        1 => {
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::LeU];
            Op::Cmp(ops[rng.random_range(0..ops.len())], flag(rng), reg(rng), random_src(rng))
        }
        2 => {
            let i = rng.random_range(0..FlagOp::ALL.len());
            Op::Flag(FlagOp::ALL[i], flag(rng), flag(rng), flag(rng))
        }
        // base register 0 reads zero, so offsets in 0..LMEM never fault
        3 => Op::Load(reg(rng), 0, rng.random_range(0..LMEM as i32)),
        4 => Op::Store(reg(rng), 0, rng.random_range(0..LMEM as i32)),
        5 => Op::Pidx(reg(rng)),
        6 => Op::Movs(reg(rng), Word(rng.random_range(0..256))),
        _ => Op::Shift(reg(rng), reg(rng), rng.random_range(-4..=4)),
    }
}

fn src_value(pe: &(RegFile, FlagFile, LocalMemory), thread: usize, src: Src, _w: Width) -> Word {
    match src {
        Src::Reg(r) => pe.0.read(thread, r.index()),
        Src::Scalar(v) | Src::Imm(v) => v,
    }
}

/// Apply `op` to the reference model, lane by lane over the active set.
fn apply_ref(a: &mut RefArray, thread: usize, op: Op, active: &[bool]) {
    let w = a.w;
    let pes = a.pes.len();
    if let Op::Shift(pd, pa, dist) = op {
        let col: Vec<Word> = a.pes.iter().map(|pe| pe.0.read(thread, pa as usize)).collect();
        for (i, pe) in a.pes.iter_mut().enumerate() {
            if active[i] {
                let src = i as i64 - dist as i64;
                let v = if (0..pes as i64).contains(&src) { col[src as usize] } else { Word::ZERO };
                pe.0.write(thread, pd as usize, v);
            }
        }
        return;
    }
    for (i, pe) in a.pes.iter_mut().enumerate() {
        if !active[i] {
            continue;
        }
        match op {
            Op::Alu(o, pd, pa, src) => {
                let x = pe.0.read(thread, pa as usize);
                let y = src_value(pe, thread, src, w);
                pe.0.write(thread, pd as usize, o.apply(x, y, w));
            }
            Op::Cmp(o, fd, pa, src) => {
                let x = pe.0.read(thread, pa as usize);
                let y = src_value(pe, thread, src, w);
                pe.1.write(thread, fd as usize, o.apply(x, y, w));
            }
            Op::Flag(o, fd, fa, fb) => {
                let x = pe.1.read(thread, fa as usize);
                let y = pe.1.read(thread, fb as usize);
                pe.1.write(thread, fd as usize, o.apply(x, y));
            }
            Op::Load(pd, base, off) => {
                let addr = pe.0.read(thread, base as usize).to_u32() + off as u32;
                let v = pe.2.read(addr).unwrap();
                pe.0.write(thread, pd as usize, v);
            }
            Op::Store(ps, base, off) => {
                let addr = pe.0.read(thread, base as usize).to_u32() + off as u32;
                let v = pe.0.read(thread, ps as usize);
                pe.2.write(addr, v).unwrap();
            }
            Op::Pidx(pd) => pe.0.write(thread, pd as usize, Word::new(i as u32, w)),
            Op::Movs(pd, v) => pe.0.write(thread, pd as usize, v),
            Op::Shift(..) => unreachable!("handled above"),
        }
    }
}

/// Apply `op` to the SoA array.
fn apply_soa(a: &mut PeArray, thread: usize, op: Op, active: &ActiveMask) {
    let p = PReg::from_index;
    let f = PFlag::from_index;
    match op {
        Op::Alu(o, pd, pa, src) => a.alu(thread, o, p(pd), p(pa), src, active),
        Op::Cmp(o, fd, pa, src) => a.cmp(thread, o, f(fd), p(pa), src, active),
        Op::Flag(o, fd, fa, fb) => a.flag_op(thread, o, f(fd), f(fa), f(fb), active),
        Op::Load(pd, base, off) => a.load(thread, p(pd), p(base), off, active).unwrap(),
        Op::Store(ps, base, off) => a.store(thread, p(ps), p(base), off, active).unwrap(),
        Op::Pidx(pd) => a.pidx(thread, p(pd), active),
        Op::Movs(pd, v) => a.movs(thread, p(pd), v, active),
        Op::Shift(pd, pa, dist) => a.shift(thread, p(pd), p(pa), dist, active),
    }
}

/// Compare every architectural bit of the two models.
fn assert_state_matches(soa: &PeArray, reference: &RefArray) -> TestCaseResult {
    let c = *soa.config();
    for t in 0..c.threads {
        for r in 0..c.gprs {
            let plane = soa.gpr_plane(t, r);
            for (i, pe) in reference.pes.iter().enumerate() {
                prop_assert_eq!(plane[i], pe.0.read(t, r), "thread {} p{} pe {}", t, r, i);
                prop_assert_eq!(soa.gpr(i, t, r), pe.0.read(t, r));
            }
        }
        for fr in 0..c.flags {
            let col = soa.flag_column(t, fr);
            for (i, pe) in reference.pes.iter().enumerate() {
                prop_assert_eq!(col[i], pe.1.read(t, fr), "thread {} pf{} pe {}", t, fr, i);
                prop_assert_eq!(soa.flag(i, t, fr), pe.1.read(t, fr));
            }
        }
    }
    for (i, pe) in reference.pes.iter().enumerate() {
        for addr in 0..c.lmem_words as u32 {
            prop_assert_eq!(
                soa.lmem_word(i, addr).unwrap(),
                pe.2.read(addr).unwrap(),
                "lmem pe {} addr {}",
                i,
                addr
            );
        }
    }
    Ok(())
}

/// Every lane-local sweep the worker pool splits (ALU register and
/// immediate forms, a destination that is a source, compares,
/// uniform-address loads and stores, `pidx`, `movs`) at 2¹⁸ + 70 PEs: 65
/// occupancy groups, the last two tiles long and ragged, so a one-op
/// sweep over a dense mask, or over one with an empty group, reaches the
/// gate. Flag logic with fd = fa runs between them group by group on the
/// caller: it brings its flag words to the gate, which splits it only
/// from 2²⁴ PEs, an array no test builds; split, it would take the same
/// `sweep` as the ops here. Each op runs under a dense mask, a random
/// mask with one empty occupancy group, and a sparse one, and the array
/// must match the per-PE reference lane for lane.
#[test]
fn split_sweeps_match_per_pe_reference() {
    use crate::workers::{self, GROUP_LANES, SPLIT_LANE_OPS};
    let n = (1 << 18) + 70;
    let c = ArrayConfig {
        num_pes: n,
        threads: 1,
        lmem_words: 4,
        width: Width::W16,
        segments: SegmentGeometry::new(n, 0),
        ..cfg()
    };
    let mut soa = PeArray::new(c);
    let mut reference = RefArray::of(&c);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let empty = 7;
    let dense = vec![true; n];
    let holed: Vec<bool> =
        (0..n).map(|i| i / GROUP_LANES != empty && rng.random_bool(0.6)).collect();
    let sparse: Vec<bool> = (0..n).map(|i| i % 97 == 3 || i == n - 1).collect();
    let holed_mask = ActiveMask::from_bools(&holed);
    assert_eq!(holed_mask.groups(), 65);
    assert_eq!(holed_mask.occupied_groups(), 64);
    assert!(workers::mask_work(&holed_mask) >= SPLIT_LANE_OPS, "below the gate");
    assert!(workers::word_work(&ActiveMask::all(n)) < SPLIT_LANE_OPS, "flag logic splits");
    let v = |rng: &mut StdRng| Word::new(rng.random_range(0..1 << 16), Width::W16);
    let p = |i: u8| PReg::from_index(i);
    // irregular register contents and local memory first
    let mut script = vec![Op::Pidx(1), Op::Movs(2, Word(0x1234))];
    script.extend([Op::Alu(AluOp::Mul, 3, 1, Src::Imm(Word(0x9e3))), Op::Store(3, 0, 1)]);
    script.push(Op::Alu(AluOp::Xor, 4, 3, Src::Reg(p(1))));
    for _ in 0..3 {
        script.extend([
            Op::Alu(AluOp::Add, 5, 3, Src::Reg(p(4))),
            Op::Alu(AluOp::Sub, 6, 5, Src::Scalar(v(&mut rng))),
            Op::Alu(AluOp::Min, 5, 5, Src::Reg(p(6))),
            Op::Alu(AluOp::Srl, 6, 4, Src::Reg(p(6))),
            Op::Cmp(CmpOp::Lt, 1, 5, Src::Reg(p(6))),
            Op::Cmp(CmpOp::LeU, 2, 3, Src::Imm(v(&mut rng))),
            Op::Flag(FlagOp::AndNot, 3, 1, 2),
            Op::Flag(FlagOp::Xor, 1, 1, 3),
            Op::Load(7, 0, 1),
            Op::Store(5, 0, 2),
            Op::Load(8, 0, 2),
            Op::Pidx(9),
            Op::Movs(10, v(&mut rng)),
        ]);
    }
    for op in script {
        for bools in [&dense, &holed, &sparse] {
            let mask = ActiveMask::from_bools(bools);
            apply_soa(&mut soa, 0, op, &mask);
            apply_ref(&mut reference, 0, op, bools);
        }
    }
    assert_state_matches(&soa, &reference).expect("split sweeps match the per-PE model");
}

proptest! {
    /// Random masked operation sequences leave the SoA array and the
    /// per-PE reference model in bit-identical architectural state — in
    /// particular, inactive PEs are completely unaffected and GPR 0 stays
    /// hardwired to zero.
    #[test]
    fn soa_matches_per_pe_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut soa = PeArray::new(cfg());
        let mut reference = RefArray::new();
        for _ in 0..40 {
            let thread = rng.random_range(0..THREADS);
            let bools: Vec<bool> = match rng.random_range(0..3) {
                0 => vec![true; PES],
                1 => (0..PES).map(|_| rng.random()).collect(),
                _ => vec![false; PES], // fully masked off
            };
            let mask = ActiveMask::from_bools(&bools);
            let op = random_op(&mut rng);
            apply_soa(&mut soa, thread, op, &mask);
            apply_ref(&mut reference, thread, op, &bools);
        }
        assert_state_matches(&soa, &reference)?;
    }

    /// GPR 0 semantics: every way of writing register 0 is ignored, and it
    /// always reads zero (the plane invariant behind the free reads).
    #[test]
    fn gpr0_reads_zero_writes_ignored(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = PeArray::new(cfg());
        let all = ActiveMask::all(PES);
        let p = PReg::from_index;
        for _ in 0..12 {
            match rng.random_range(0..5) {
                0 => a.movs(0, p(0), Word(rng.random_range(1..256)), &all),
                1 => a.pidx(0, p(0), &all),
                2 => a.alu(0, AluOp::Add, p(0), p(0), Src::Imm(Word(3)), &all),
                3 => a.shift(0, p(0), p(0), 1, &all),
                _ => a.set_gpr(rng.random_range(0..PES), 0, 0, Word(9)),
            }
        }
        prop_assert!(a.gpr_plane(0, 0).iter().all(|&w| w == Word::ZERO));
        // and as a source it behaves as the constant zero
        a.alu(0, AluOp::Add, p(1), p(0), Src::Imm(Word(7)), &all);
        for i in 0..PES {
            prop_assert_eq!(a.gpr(i, 0, 1), Word(7));
        }
    }

    /// SIMD ≡ scalar: the same random masked plane-op sequence leaves an
    /// array on each available vector tier in bit-identical architectural
    /// state to one forced scalar — over random ops (all ALU and compare
    /// kinds), masks and widths. This is the differential gate for the
    /// `crate::simd` kernels embedded in the array's plane loops.
    #[test]
    fn simd_tiers_match_scalar_plane_ops(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let widths = [Width::W8, Width::W16, Width::W32];
        let w = widths[rng.random_range(0..widths.len())];
        let value = |rng: &mut StdRng| Word(rng.random_range(0..=w.mask()));
        let reg = |rng: &mut StdRng| PReg::from_index(rng.random_range(0..16));
        // a script of (thread, mask, op) replayed identically per tier
        let script: Vec<(usize, Vec<bool>, Op)> = (0..32)
            .map(|_| {
                let thread = rng.random_range(0..THREADS);
                let bools: Vec<bool> = match rng.random_range(0..3) {
                    0 => vec![true; PES],
                    1 => (0..PES).map(|_| rng.random()).collect(),
                    _ => vec![false; PES],
                };
                let src = match rng.random_range(0..3) {
                    0 => Src::Reg(reg(&mut rng)),
                    1 => Src::Scalar(value(&mut rng)),
                    _ => Src::Imm(value(&mut rng)),
                };
                let op = match rng.random_range(0..4) {
                    0 => {
                        let o = AluOp::ALL[rng.random_range(0..AluOp::ALL.len())];
                        Op::Alu(o, rng.random_range(0..16), rng.random_range(0..16), src)
                    }
                    1 => {
                        let o = CmpOp::ALL[rng.random_range(0..CmpOp::ALL.len())];
                        Op::Cmp(o, rng.random_range(0..8), rng.random_range(0..16), src)
                    }
                    2 => Op::Load(rng.random_range(0..16), 0, rng.random_range(0..LMEM as i32)),
                    _ => Op::Store(rng.random_range(0..16), 0, rng.random_range(0..LMEM as i32)),
                };
                (thread, bools, op)
            })
            .collect();
        let run = |level: SimdLevel| {
            let mut a = PeArray::new(cfg_at(w, level));
            // seed every register plane with irregular values first
            let all = ActiveMask::all(PES);
            for r in 1..16u8 {
                a.pidx(0, PReg::from_index(r), &all);
                a.alu(
                    0,
                    AluOp::Mul,
                    PReg::from_index(r),
                    PReg::from_index(r),
                    Src::Imm(Word::new(0x9e3 & w.mask(), w)),
                    &all,
                );
            }
            for (thread, bools, op) in &script {
                apply_soa(&mut a, *thread, *op, &ActiveMask::from_bools(bools));
            }
            a
        };
        let scalar = run(SimdLevel::Scalar);
        for level in SimdLevel::available() {
            let vectored = run(level);
            for t in 0..THREADS {
                for r in 0..16 {
                    prop_assert_eq!(
                        scalar.gpr_plane(t, r),
                        vectored.gpr_plane(t, r),
                        "{:?} thread {} p{} {}", level, t, r, w
                    );
                }
                for fr in 0..8 {
                    prop_assert_eq!(
                        scalar.flag_plane(t, fr),
                        vectored.flag_plane(t, fr),
                        "{:?} thread {} pf{} {}", level, t, fr, w
                    );
                }
            }
            for pe in 0..PES {
                for addr in 0..LMEM as u32 {
                    prop_assert_eq!(
                        scalar.lmem_word(pe, addr).unwrap(),
                        vectored.lmem_word(pe, addr).unwrap()
                    );
                }
            }
        }
    }

    /// Flag bitplanes round-trip: an arbitrary boolean column written
    /// lane by lane via `set_flag` reads back identically through
    /// `flag_column`, `flag`, and the `?pf` active set of the same flag.
    #[test]
    fn flag_bitplane_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = PeArray::new(cfg());
        let all = ActiveMask::all(PES);
        let bools: Vec<bool> = (0..PES).map(|_| rng.random()).collect();
        let thread = rng.random_range(0..THREADS);
        for (i, &b) in bools.iter().enumerate() {
            a.set_flag(i, thread, 3, b);
        }
        prop_assert_eq!(&a.flag_column(thread, 3), &bools);
        for (i, &b) in bools.iter().enumerate() {
            prop_assert_eq!(a.flag(i, thread, 3), b);
        }
        let mut m = ActiveMask::new(PES);
        let mask = asc_isa::Mask::Flag(PFlag::from_index(3));
        prop_assert_eq!(a.active(thread, mask, &all, &mut m).to_bools(), bools);
        // tail bits beyond the last PE stay zero (the plane invariant)
        let plane = a.flag_plane(thread, 3);
        prop_assert_eq!(plane[PES / 64] >> (PES % 64), 0);
    }
}

//! Machine-level property tests: masked-execution semantics, scheduler
//! determinism, fast-forward correctness, instruction-semantics
//! equivalence against host arithmetic, and the strategy matrix, which
//! holds fusion, SIMD tier, segment count and scheduler seed
//! architecturally invisible.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use asc_isa::{AluOp, CmpOp, Instr, Width, Word};

use crate::config::MachineConfig;
use crate::machine::Machine;

fn cfg8() -> MachineConfig {
    let mut c = MachineConfig::new(8).with_width(Width::W8);
    c.lmem_words = 16;
    c
}

proptest! {
    /// Masked execution equals run-everywhere + merge: running an ALU op
    /// under mask `pf1` leaves inactive PEs' destination untouched and
    /// matches the unmasked result in active PEs.
    #[test]
    fn masked_alu_is_a_merge(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Min, AluOp::Srl];
        let op = ops[rng.random_range(0..ops.len())];
        let threshold = rng.random_range(0..8i64);
        let src = format!(
            "pidx   p1
             pli    p2, 11
             pclti  pf1, p1, {threshold}
             p{op}i p3, p1, 3 ?pf1
             halt"
        );
        let (masked, _) = crate::run_source(cfg8(), &src, 100_000).unwrap();
        let unmasked_src = format!(
            "pidx   p1
             pli    p2, 11
             p{op}i p3, p1, 3
             halt"
        );
        let (unmasked, _) = crate::run_source(cfg8(), &unmasked_src, 100_000).unwrap();
        for pe in 0..8 {
            let got = masked.array().gpr(pe, 0, 3);
            if (pe as i64) < threshold {
                prop_assert_eq!(got, unmasked.array().gpr(pe, 0, 3), "active PE {}", pe);
            } else {
                prop_assert_eq!(got, Word::ZERO, "inactive PE {} must be untouched", pe);
            }
        }
    }

    /// Scalar ALU/compare instructions compute exactly what the host
    /// arithmetic says, for every op and random operands.
    #[test]
    fn scalar_semantics_match_host(a in -128i64..128, b in -128i64..128) {
        let w = Width::W8;
        for &op in AluOp::ALL {
            let src = format!(
                "li  s1, {a}
                 li  s2, {b}
                 {op} s3, s1, s2
                 halt"
            );
            let (m, _) = crate::run_source(cfg8(), &src, 100_000).unwrap();
            let expect = op.apply(Word::from_i64(a, w), Word::from_i64(b, w), w);
            prop_assert_eq!(m.sreg(0, 3), expect, "{} {} {}", op, a, b);
        }
        for &op in CmpOp::ALL {
            let src = format!(
                "li  s1, {a}
                 li  s2, {b}
                 c{op} f1, s1, s2
                 halt"
            );
            let (m, _) = crate::run_source(cfg8(), &src, 100_000).unwrap();
            let expect = op.apply(Word::from_i64(a, w), Word::from_i64(b, w), w);
            prop_assert_eq!(m.sflag(0, 1), expect, "c{} {} {}", op, a, b);
        }
    }

    /// Reductions equal host folds over the active set, for random values
    /// and random masks.
    #[test]
    fn reductions_match_host_folds(
        vals in proptest::collection::vec(-100i64..100, 8),
        threshold in 0i64..9,
    ) {
        let w = Width::W8;
        let src = format!(
            "pidx  p1
             plw   p2, 0(p0)
             pclti pf1, p1, {threshold}
             rsum  s1, p2 ?pf1
             rmax  s2, p2 ?pf1
             rmin  s3, p2 ?pf1
             rcount s4, pf1
             halt"
        );
        let program = asc_asm::assemble(&src).unwrap();
        let mut m = Machine::with_program(cfg8(), &program).unwrap();
        let words: Vec<Word> = vals.iter().map(|&v| Word::from_i64(v, w)).collect();
        m.array_mut().scatter_column(0, &words).unwrap();
        m.run(100_000).unwrap();

        let active: Vec<i64> = vals.iter().take(threshold as usize).copied().collect();
        let sum: i64 = active.iter().sum::<i64>().clamp(w.smin(), w.smax());
        // the machine's saturating tree sum equals the clamped exact sum
        // when no intermediate node overflows; with |v| < 100 and <= 8
        // values the max partial magnitude is 800 -- may exceed 127, so
        // only check when the exact partial sums stay in range
        let abs: i64 = active.iter().map(|v| v.abs()).sum();
        if abs <= w.smax() {
            prop_assert_eq!(m.sreg(0, 1).to_i64(w), sum);
        }
        let max = active.iter().copied().max().unwrap_or(w.smin());
        let min = active.iter().copied().min().unwrap_or(w.smax());
        prop_assert_eq!(m.sreg(0, 2).to_i64(w), max);
        prop_assert_eq!(m.sreg(0, 3).to_i64(w), min);
        prop_assert_eq!(m.sreg(0, 4).to_u32() as usize, active.len());
    }

    /// `pshift` by d then by -d over-writes with zeros only at the edges;
    /// the middle returns intact (shift network round trip).
    #[test]
    fn shift_round_trip(d in 1i64..7) {
        let src = format!(
            "pidx   p1
             pshift p2, p1, {d}
             pshift p3, p2, -{d}
             halt"
        );
        let (m, _) = crate::run_source(cfg8(), &src, 100_000).unwrap();
        for pe in 0..8i64 {
            let expect = if pe + d < 8 { pe as u32 } else { 0 };
            prop_assert_eq!(m.array().gpr(pe as usize, 0, 3).to_u32(), expect);
        }
    }
}

/// `Instr::writes()` drives the scoreboard: if it under-reports, hazard
/// detection is silently wrong. Check against the executor: after one
/// random instruction, every changed register must appear in `writes()`.
#[test]
fn writes_set_bounds_executor_effects() {
    use crate::emulator::Emulator;
    use asc_isa::gen::random_straightline_instr;
    use asc_isa::{Operand, RegClass};

    let mut rng = StdRng::seed_from_u64(0x5EED);
    // lmem large enough that any 8-bit base register + small offset is in
    // range (random register state feeds the address calculation)
    let mut cfg = cfg8();
    cfg.lmem_words = 512;
    for trial in 0..400 {
        let mut i = random_straightline_instr(&mut rng);
        match &mut i {
            Instr::Lw { off, .. } | Instr::Sw { off, .. } => *off = off.rem_euclid(16),
            Instr::Plw { off, .. } | Instr::Psw { off, .. } => *off = off.rem_euclid(15),
            _ => {}
        }
        let words = [asc_isa::encode(&i), asc_isa::encode(&Instr::Halt)];
        let mut emu = Emulator::new(cfg);
        emu.machine_mut().load_words(&words).unwrap();
        // randomize initial state so effects are visible
        for r in 1..16 {
            emu.machine_mut().set_sreg(0, r, Word::new(rng.random::<u32>() & 0xff, Width::W8));
        }
        for pe in 0..8 {
            for r in 1..16 {
                emu.machine_mut().array_mut().set_gpr(
                    pe,
                    0,
                    r,
                    Word::new(rng.random::<u32>() & 0xff, Width::W8),
                );
            }
            for f in 0..8 {
                emu.machine_mut().array_mut().set_flag(pe, 0, f, rng.random());
            }
        }

        // snapshot
        let snap_s: Vec<Word> = (0..16).map(|r| emu.machine().sreg(0, r)).collect();
        let snap_f: Vec<bool> = (0..8).map(|f| emu.machine().sflag(0, f)).collect();
        let snap_p: Vec<Vec<Word>> =
            (0..8).map(|pe| (0..16).map(|r| emu.array().gpr(pe, 0, r)).collect()).collect();
        let snap_pf: Vec<Vec<bool>> =
            (0..8).map(|pe| (0..8).map(|f| emu.array().flag(pe, 0, f)).collect()).collect();

        emu.step().unwrap();

        let writes = i.writes();
        let declared = |op: Operand| writes.contains(&op);
        for r in 0..16u8 {
            if emu.machine().sreg(0, r as usize) != snap_s[r as usize] {
                assert!(
                    declared(Operand { class: RegClass::SGpr, index: r }),
                    "trial {trial}: {i:?} changed s{r} without declaring it"
                );
            }
        }
        for f in 0..8u8 {
            if emu.machine().sflag(0, f as usize) != snap_f[f as usize] {
                assert!(
                    declared(Operand { class: RegClass::SFlag, index: f }),
                    "trial {trial}: {i:?} changed f{f} without declaring it"
                );
            }
        }
        for pe in 0..8 {
            for r in 0..16u8 {
                if emu.array().gpr(pe, 0, r as usize) != snap_p[pe][r as usize] {
                    assert!(
                        declared(Operand { class: RegClass::PGpr, index: r }),
                        "trial {trial}: {i:?} changed PE{pe} p{r} without declaring it"
                    );
                }
            }
            for f in 0..8u8 {
                if emu.array().flag(pe, 0, f as usize) != snap_pf[pe][f as usize] {
                    assert!(
                        declared(Operand { class: RegClass::PFlag, index: f }),
                        "trial {trial}: {i:?} changed PE{pe} pf{f} without declaring it"
                    );
                }
            }
        }
    }
}

/// The fast-forward optimization (skipping long stalls in one step) must
/// not change any cycle count: compare against a machine stepped with the
/// same programs at different PE counts, where the final cycle counts obey
/// the closed-form b+r model.
#[test]
fn fast_forward_matches_closed_form() {
    for p in [4usize, 16, 64, 1024] {
        let mut cfg = MachineConfig::new(p).single_threaded();
        cfg.lmem_words = 8;
        let t = cfg.timing();
        let (_, stats) = crate::run_source(
            cfg,
            "rmax s1, p2
             sub  s3, s1, s1
             halt",
            1_000_000,
        )
        .unwrap();
        // issue cycles: rmax@0, sub@(b+r+1), halt@(b+r+2); halt retires at
        // +3, so total = b+r+2+3+1
        assert_eq!(stats.cycles, t.b + t.r + 6, "p = {p}");
    }
}

/// Compare every architecturally visible bit of two machines that ran the
/// same program: every context's registers and flags, scalar and PE, local
/// and scalar memory, cycle count, and the full statistics report.
fn assert_machines_identical(a: &Machine, b: &Machine, label: &str) {
    assert_eq!(a.cycle(), b.cycle(), "{label}: cycle count");
    assert_eq!(a.stats(), b.stats(), "{label}: statistics");
    let (x, y) = (a.array(), b.array());
    for t in 0..a.config().threads {
        for r in 0..asc_isa::NUM_GPRS {
            assert_eq!(a.sreg(t, r), b.sreg(t, r), "{label}: t{t} s{r}");
            assert!(x.gpr_plane(t, r) == y.gpr_plane(t, r), "{label}: t{t} p{r}");
        }
        for f in 0..asc_isa::NUM_FLAGS {
            assert_eq!(a.sflag(t, f), b.sflag(t, f), "{label}: t{t} f{f}");
            assert!(x.flag_plane(t, f) == y.flag_plane(t, f), "{label}: t{t} pf{f}");
        }
    }
    for addr in 0..a.config().lmem_words as u32 {
        assert!(x.lmem_row(addr).unwrap() == y.lmem_row(addr).unwrap(), "{label}: lmem[{addr}]");
    }
    assert!(a.smem().as_slice() == b.smem().as_slice(), "{label}: scalar memory");
}

/// The saturating tree sum is order-sensitive, so the segmented reducer
/// must reproduce the canonical flat association order exactly — pinned
/// here across a segment boundary. 130 PEs span 3 tiles; values 100+100
/// saturate to 127 inside the first segment before the -100 in the next
/// tile and the 77 in the ragged tail are combined: ((100⊕100)⊕-100)⊕77
/// = (127-100)+77 = 104, whereas the exact sum 177 would clamp to 127.
#[test]
fn saturating_sum_order_is_pinned_across_segment_boundaries() {
    let w = Width::W8;
    let mut cfg = MachineConfig::new(130).with_width(w);
    cfg.lmem_words = 8;
    let program = asc_asm::assemble(
        "plw  p2, 0(p0)
         rsum s1, p2
         halt",
    )
    .unwrap();
    let mut vals = vec![Word::ZERO; 130];
    vals[62] = Word::from_i64(100, w);
    vals[63] = Word::from_i64(100, w);
    vals[64] = Word::from_i64(-100, w);
    vals[128] = Word::from_i64(77, w);
    let mut machines: Vec<Machine> = [1usize, 2, 3]
        .iter()
        .map(|&req| {
            let mut m = Machine::with_program(cfg.with_segments(req), &program).unwrap();
            m.array_mut().scatter_column(0, &vals).unwrap();
            m.run(100_000).unwrap();
            assert_eq!(m.sreg(0, 1).to_i64(w), 104, "{req} segments");
            m
        })
        .collect();
    let mono = machines.remove(0);
    for (m, req) in machines.iter().zip([2, 3]) {
        assert_machines_identical(&mono, m, &format!("{req} segments"));
    }
}

/// `len` random straight-line instructions, three in four drawn among the
/// fusible ones so that fused blocks are common and long; about one in six
/// is then a `plw` or `psw`. Scalar-memory offsets are kept below 128, so
/// a W8 base (at most 255) stays inside the 1024-word scalar memory. With
/// `clamp`, local-memory offsets are kept below 127 too, inside a 512-word
/// local memory, and half the local-memory accesses take `p0` as base: a
/// row access that cannot fault joins a fused block, where a per-lane base
/// cuts it. Without `clamp` they stay as generated and may fault. A
/// `race_free` body has no loads and no `tid`: threads that run it from
/// cleared registers store the same values in the same order, so every
/// word ends the same under any interleaving of them.
fn random_body(rng: &mut StdRng, len: usize, clamp: bool, race_free: bool) -> Vec<Instr> {
    let mut body = Vec::with_capacity(len);
    for _ in 0..len {
        let fusible = rng.random_bool(0.75);
        let mut i = asc_isa::gen::random_straightline_instr(rng);
        while fusible && !i.is_fusible() {
            i = asc_isa::gen::random_straightline_instr(rng);
        }
        match &mut i {
            Instr::Lw { .. } | Instr::Plw { .. } | Instr::TId { .. } if race_free => i = Instr::Nop,
            Instr::Lw { off, .. } | Instr::Sw { off, .. } => *off = off.rem_euclid(128),
            Instr::Plw { base, off, .. } | Instr::Psw { base, off, .. } if clamp => {
                *off = off.rem_euclid(127);
                if rng.random_bool(0.5) {
                    *base = asc_isa::PReg::R0;
                }
            }
            _ => {}
        }
        body.push(i);
    }
    body
}

/// `body` on `threads` threads. Thread 0 spawns `threads - 1` workers
/// that run the body, joins them, spawns a second wave into the contexts
/// the first freed (so each `tspawn` clears planes the first wave wrote),
/// joins those, and then runs the body alone, where its fusible runs fuse.
fn on_threads(body: &[Instr], threads: usize) -> asc_asm::Program {
    let body: String =
        body.iter().map(|i| format!("        {}\n", asc_asm::disassemble(i))).collect();
    let mut main = String::from("        li   s1, worker\n");
    for _wave in 0..2 {
        // handles in registers, where the workers' stores cannot reach them
        for w in 2..=threads {
            main.push_str(&format!("        tspawn s{w}, s1\n"));
        }
        for w in 2..=threads {
            main.push_str(&format!("        tjoin s{w}\n"));
        }
    }
    asc_asm::assemble(&format!("{main}{body}        halt\nworker:\n{body}        texit\n")).unwrap()
}

/// The strategy cells of `cfg`: fusion {on, off} × SIMD {host widest,
/// scalar} × segments {auto, 1, `ragged`}, each resolved segment count
/// once, since requests that resolve to one count slice the array alike.
/// At 4096 PEs or fewer auto is one segment, and at one tile every
/// request is. A request of 2 or more leaves the last segment ragged on
/// most shapes with more than one tile.
fn cells(cfg: MachineConfig, ragged: usize) -> Vec<MachineConfig> {
    let count = |c: &MachineConfig| c.segment_geometry().count();
    let mut geometries: Vec<MachineConfig> = Vec::with_capacity(3);
    for segments in [0, 1, ragged] {
        let c = MachineConfig { segments, ..cfg };
        if geometries.iter().all(|g| count(g) != count(&c)) {
            geometries.push(c);
        }
    }
    let mut out = Vec::with_capacity(12);
    for fusion in [true, false] {
        for simd in [true, false] {
            out.extend(geometries.iter().map(|&g| MachineConfig { fusion, simd, ..g }));
        }
    }
    out
}

proptest! {
    /// The strategy matrix: fusion, SIMD tier and segment count are
    /// architecturally invisible, and a race-free program is schedule
    /// invariant. Each case is a random body on 1 to 8 threads with a
    /// second spawn wave ([`on_threads`]); local-memory offsets clamped,
    /// or left free to fault in 32 words; a full cycle budget or one below
    /// the reference run's cycle count; fine or coarse grain, forwarding
    /// off, or a sequential multiplier; and 1 to past 4096 PEs. In every
    /// cell of [`cells`], with a ragged segment request of 2 to 7, at
    /// scheduler seed 0 and, on more than one thread, at a drawn one, the
    /// run returns the same result (the `Stats`, or the same `RunError`)
    /// and leaves the same machine and cycle-attribution profile as the
    /// first cell, and a completed run's profile conserves its cycles. A
    /// cell without fusion fuses nothing, and a scalar cell runs no SIMD
    /// op. A multithreaded race-free body that completes at seed 0
    /// completes at the drawn seed with the same `arch_digest`; cycles
    /// may differ (docs/static-analysis.md, "Why architectural state and
    /// not cycles"). Workers that load, each in a private window, and
    /// run distinct bodies are left to
    /// [`race_free_random_programs_are_schedule_invariant`].
    #[test]
    fn strategy_matrix_is_bit_identical(seed in any::<u64>(), threads in 1usize..=8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (clamp, race_free) = (rng.random_bool(0.5), rng.random_bool(0.5));
        let program = on_threads(&random_body(&mut rng, 24, clamp, race_free), threads);
        let pes = if rng.random_bool(0.125) {
            4096 + rng.random_range(1..=128)
        } else {
            rng.random_range(1..=640)
        };
        let mut cfg = MachineConfig::new(pes).with_width(Width::W8).with_threads(threads);
        // `MTASC_NO_SIMD` would fold the SIMD axis onto the scalar tier
        prop_assert_eq!(cfg.simd_level(), asc_pe::SimdLevel::detect_hw());
        if !clamp {
            cfg.lmem_words = 32;
        }
        cfg = match rng.random_range(0..4) {
            0 => cfg,
            1 => cfg.coarse_grain(3),
            2 => cfg.without_forwarding(),
            // the divider is sequential already
            _ => MachineConfig { multiplier: asc_pe::MultiplierKind::default_sequential(8), ..cfg },
        };
        let run = |cfg: MachineConfig, budget: u64| {
            let mut m = Machine::with_program(cfg, &program).unwrap();
            m.attach_profiler();
            let result = m.run(budget);
            let profile = m.take_profile().unwrap();
            (result, m, profile)
        };
        const FULL: u64 = 10_000_000;
        let (reference_result, reference, _) = run(cfg, FULL);
        let (sched_seed, ragged) = (rng.random_range(1..=1000u64), rng.random_range(2..=7));
        // perturbation only reorders threads: one thread has one schedule
        let seeds: &[u64] = if threads > 1 { &[0, sched_seed] } else { &[0] };
        if race_free && threads > 1 && reference_result.is_ok() {
            let (result, perturbed, _) = run(cfg.with_sched_seed(sched_seed), FULL);
            prop_assert!(
                result.is_ok() && perturbed.arch_digest() == reference.arch_digest(),
                "seed {}, {} threads: race-free program diverged at sched seed {}",
                seed, threads, sched_seed
            );
        }
        // a full budget, or one that stops the run in its last 32 cycles:
        // where thread 0 runs the body alone and its blocks fuse, or
        // shortly before a fault
        let budget = if rng.random_bool(0.5) {
            FULL
        } else {
            reference.cycle().saturating_sub(rng.random_range(1..=32))
        };
        drop(reference); // its planes become the first cell's spare
        for &sched in seeds {
            let cells = cells(cfg.with_sched_seed(sched), ragged);
            let mut runs = cells.into_iter().map(|c| (c, run(c, budget)));
            let (_, (result, first, profile)) = runs.next().unwrap();
            if let Ok(stats) = &result {
                prop_assert_eq!(profile.attributed_cycles(), stats.cycles, "conservation");
            }
            for (c, (other_result, other, other_profile)) in runs {
                let label = format!(
                    "seed {seed}, {threads} threads, sched seed {sched}: fusion {} simd {} \
                     segments {}",
                    c.fusion, c.simd, c.segments
                );
                prop_assert_eq!(&other_result, &result, "{}: run result", label);
                assert_machines_identical(&first, &other, &label);
                prop_assert!(other_profile == profile, "{}: profile", label);
                prop_assert!(c.fusion || other.fusion_stats().instrs_fused == 0, "{}", label);
                prop_assert!(c.simd || other.fusion_stats().simd_ops == 0, "{}", label);
            }
        }
    }
}

/// Every plane and row of a machine shaped like `cfg` written non-zero
/// in every lane: each thread's GPRs 1 to 15 and flags, through the
/// executor's own entry point, the first 128 local-memory rows through
/// per-lane stores (a `psw` off a computed base, whose rows the commit
/// map learns only as every row), and the other rows from the host.
fn poison_every_plane(m: &mut Machine) {
    use asc_isa::{FlagOp, Mask, PFlag, PReg};
    use asc_pe::{ActiveMask, LaneOp};
    let c = *m.array().config();
    let all = ActiveMask::all(c.num_pes);
    let lower = |i| LaneOp::lower(&i, c.width, c.simd, c.lmem_words).expect("lane-local");
    let (base, value) = (PReg::from_index(1), PReg::from_index(2));
    let set =
        |pd, imm| lower(Instr::PAluImm { op: AluOp::Add, pd, pa: PReg::R0, imm, mask: Mask::All });
    m.array_mut().run_op(0, &set(base, 0), &all).unwrap();
    let stored = c.lmem_words.min(128);
    for row in 0..stored {
        m.array_mut().run_op(0, &set(value, (row * 37 % 127 + 1) as i8), &all).unwrap();
        let store = lower(Instr::Psw { ps: value, base, off: row as i8, mask: Mask::All });
        assert!(store.can_fault(), "a store off a computed base is per-lane");
        m.array_mut().run_op(0, &store, &all).unwrap();
    }
    for t in 0..c.threads {
        for r in 1..c.gprs {
            let (pd, imm) = (PReg::from_index(r as u8), (r * 16 + t) as i8 | 1);
            let op =
                lower(Instr::PAluImm { op: AluOp::Add, pd, pa: PReg::R0, imm, mask: Mask::All });
            m.array_mut().run_op(t, &op, &all).unwrap();
        }
        for f in 0..c.flags {
            let fd = PFlag::from_index(f as u8);
            let op = lower(Instr::PFlagOp { op: FlagOp::Set, fd, fa: fd, fb: fd, mask: Mask::All });
            m.array_mut().run_op(t, &op, &all).unwrap();
        }
    }
    for row in stored..c.lmem_words {
        let v = Word::new((row * 37 % 255 + 1) as u32, c.width);
        m.array_mut().scatter_column(row as u32, &vec![v; c.num_pes]).unwrap();
    }
}

proptest! {
    /// Plane reuse is invisible to every strategy: on one freshly spawned
    /// thread, program B run on planes that two machines of its shape used
    /// before it returns the same result and leaves the same machine state
    /// as B run first, when the thread held no spare. The first of the two
    /// machines writes every plane and row, more bytes than a spare zeroed
    /// at construction may hold, so the next one gets them stale. The
    /// second runs a program that touches no plane, so B is clear of the
    /// poison only if that machine's drop zeroes the planes it left stale.
    /// Then the thread is poisoned again, and B runs straight on the stale
    /// planes, which it must zero or overwrite as it goes. The poisoning
    /// machine and B each run in a cell of [`cells`], drawn apart, since
    /// a spare's commit map may be recorded at another segment count than
    /// the array that takes it. B is a clamped [`random_body`] on 1 to 4
    /// threads ([`on_threads`]), with its flag writes moved off flags 6
    /// and 7 and half of its masks moved onto them, so its `?pf6`/`?pf7`
    /// ops, fused ones among them, run under flags B never writes.
    #[test]
    fn fusion_on_reused_planes_matches_a_fresh_thread(
        seed in any::<u64>(),
        threads in 1usize..=4,
    ) {
        use asc_isa::{Mask, PFlag};
        let mut rng = StdRng::seed_from_u64(seed);
        let never_written = |f: PFlag| PFlag::from_index(6 + f.index() as u8 % 2);
        let mut body = random_body(&mut rng, 40, true, false);
        for i in &mut body {
            match i {
                Instr::PCmp { fd, .. }
                | Instr::PCmpS { fd, .. }
                | Instr::PCmpImm { fd, .. }
                | Instr::PFlagOp { fd, .. }
                | Instr::PFirst { fd, .. } => *fd = PFlag::from_index(fd.index() as u8 % 6),
                _ => {}
            }
            match i {
                Instr::PAlu { mask, .. }
                | Instr::PAluS { mask, .. }
                | Instr::PAluImm { mask, .. }
                | Instr::PCmp { mask, .. }
                | Instr::PCmpS { mask, .. }
                | Instr::PCmpImm { mask, .. }
                | Instr::PFlagOp { mask, .. }
                | Instr::Plw { mask, .. }
                | Instr::Psw { mask, .. }
                | Instr::Pidx { mask, .. }
                | Instr::PMovS { mask, .. }
                | Instr::PShift { mask, .. }
                | Instr::Reduce { mask, .. }
                | Instr::RCount { mask, .. }
                | Instr::RFlag { mask, .. }
                | Instr::PFirst { mask, .. }
                | Instr::RGet { mask, .. } => {
                    if let Mask::Flag(f) = mask {
                        if f.index() >= 4 {
                            *f = never_written(*f);
                        }
                    }
                }
                _ => {}
            }
        }
        let b = on_threads(&body, threads);
        let idle = asc_asm::assemble("li s1, 7\nhalt").unwrap();
        // 520 PEs: an 8-lane tail tile, and 4 threads x 15 GPRs plus 512
        // rows marked, past what a spare zeroed at construction holds
        let shape = MachineConfig::new(520).with_width(Width::W8).with_threads(4);
        let cells = cells(shape, rng.random_range(2..=7));
        let mut cell = || cells[rng.random_range(0..cells.len())];
        let (poison_cfg, cfg) = (cell(), cell());
        let run = move |program: &asc_asm::Program| {
            let mut m = Machine::with_program(cfg, program).unwrap();
            (m.run(10_000_000), m)
        };

        // all on one freshly spawned thread, B's reference first: nothing has
        // been dropped there yet, so it runs on fresh planes
        let outcome = std::thread::spawn(move || {
            let fresh = run(&b);
            let poison_and_drop = || {
                let mut poison = Machine::new(poison_cfg);
                poison_every_plane(&mut poison);
                assert!(poison.array().committed_bytes() > asc_pe::array::EAGER_SCRUB_BYTES);
                poison.array().gpr_plane(0, 0).as_ptr()
            };
            type Outcome = (Result<crate::Stats, crate::RunError>, Machine);
            let check = |reused: &Outcome, planes, after: &str| {
                assert_eq!(reused.1.array().gpr_plane(0, 0).as_ptr(), planes, "planes not reused");
                let label = format!("seed {seed} on {threads} threads: B {after} vs fresh planes");
                assert_machines_identical(&reused.1, &fresh.1, &label);
                assert_eq!(reused.0, fresh.0, "{label}: run result");
            };
            let planes = poison_and_drop();
            let (idle_result, idle_machine) = run(&idle);
            idle_result.unwrap();
            assert_eq!(idle_machine.array().committed_bytes(), 0, "the idle run wrote a plane");
            drop(idle_machine);
            check(&run(&b), planes, "after the poison and an idle machine");
            let planes = poison_and_drop();
            check(&run(&b), planes, "straight after the poison");
        })
        .join();
        prop_assert!(
            outcome.is_ok(),
            "seed {} on {} threads: the reused planes must run like fresh ones",
            seed,
            threads
        );
    }
}

proptest! {
    /// Race-free multithreaded programs are schedule-invariant: random
    /// straight-line worker bodies whose memory accesses are rewritten
    /// into disjoint per-worker windows (scalar and PE-local memory both
    /// partition; registers and flags are per-context planes already)
    /// must reach the *same architectural state* under every perturbed
    /// legal schedule, fine- and coarse-grain, and the cycle-attribution
    /// profiler must conserve cycles under perturbation too. Seed 0 is
    /// the unperturbed baseline. Cycle counts are deliberately excluded:
    /// with a single issue port, cycle-identical would force
    /// interleaving-identical, and the whole point is that the
    /// interleaving varies (docs/static-analysis.md, "Why architectural
    /// state and not cycles").
    #[test]
    fn race_free_random_programs_are_schedule_invariant(
        seed in any::<u64>(),
        threads in 2usize..=8,
    ) {
        use asc_isa::gen::random_straightline_instr;
        use asc_isa::reg::{PReg, SReg};
        let mut rng = StdRng::seed_from_u64(seed);
        let workers = threads - 1;
        let mut src = String::new();
        // spawn each worker at its own entry, into its own handle register
        for w in 0..workers {
            src.push_str(&format!("        li     s1, worker{w}\n"));
            src.push_str(&format!("        tspawn s{}, s1\n", w + 2));
        }
        for w in 0..workers {
            src.push_str(&format!("        tjoin  s{}\n", w + 2));
        }
        src.push_str("        halt\n");
        for w in 0..workers {
            src.push_str(&format!("worker{w}:\n"));
            for _ in 0..16 {
                let mut i = random_straightline_instr(&mut rng);
                // Rewrite every memory access into the worker's private
                // 16-word window off the hardwired-zero base register, so
                // no two threads ever touch the same word. `tid` is the
                // one straight-line instruction whose *result* is
                // schedule-dependent (context ids are allocation-order
                // dependent) — pin it to the worker number instead.
                let window = |off: i64| (w as i64 * 16 + off.rem_euclid(16)) as i16;
                match &mut i {
                    Instr::Lw { base, off, .. } | Instr::Sw { base, off, .. } => {
                        *base = SReg::R0;
                        *off = window(*off as i64);
                    }
                    Instr::Plw { base, off, .. } | Instr::Psw { base, off, .. } => {
                        *base = PReg::R0;
                        *off = window(*off as i64) as i8;
                    }
                    Instr::TId { rd } => i = Instr::Li { rd: *rd, imm: w as i16 },
                    _ => {}
                }
                src.push_str("        ");
                src.push_str(&asc_asm::disassemble(&i));
                src.push('\n');
            }
            src.push_str("        texit\n");
        }
        let program = asc_asm::assemble(&src).unwrap();
        let cfg = MachineConfig::new(8).with_width(Width::W8).with_threads(8);

        for grain in ["fine", "coarse"] {
            let cfg = if grain == "coarse" { cfg.coarse_grain(3) } else { cfg };
            let digest = |sched_seed: u64| {
                let mut m =
                    Machine::with_program(cfg.with_sched_seed(sched_seed), &program).unwrap();
                m.attach_profiler();
                m.run(10_000_000).unwrap();
                let cycles = m.stats().cycles;
                prop_assert_eq!(
                    m.take_profile().unwrap().attributed_cycles(), cycles,
                    "profiler conserves cycles ({} grain, seed {}, sched seed {})",
                    grain, seed, sched_seed
                );
                Ok(m.arch_digest())
            };
            let baseline = digest(0)?;
            for sched_seed in 1..=4u64 {
                prop_assert_eq!(
                    digest(sched_seed)?, baseline,
                    "race-free program diverged ({} grain, seed {}, sched seed {}, {} threads)",
                    grain, seed, sched_seed, threads
                );
            }
        }
    }
}

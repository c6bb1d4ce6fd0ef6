//! Differential tests pinning the block-fusion engine: every kernel must
//! produce bit-identical results, cycle counts, and statistics with
//! fusion on (the default) and off (`MachineConfig::without_fusion`), on
//! whole tiles and with a short tail tile, and memory faults must carry
//! the same identity, and leave the same machine, either way.

use asc::core::{Machine, MachineConfig, RunError};
use asc::isa::Word;
use asc::kernels::{image, mst, search, sort, string_match};

/// A machine with a short tail tile (100 PEs = one full tile + 36 lanes).
fn short_tail_cfg() -> MachineConfig {
    MachineConfig::new(100)
}

#[test]
fn kernels_bit_identical_with_and_without_fusion() {
    for cfg in [MachineConfig::new(64), short_tail_cfg()] {
        let un = cfg.without_fusion();

        let values: Vec<i64> = (0..cfg.num_pes as i64).map(|i| (i * 37 + 11) % 101 - 50).collect();
        let a = sort::run(cfg, &values).unwrap();
        let b = sort::run(un, &values).unwrap();
        assert_eq!(a.sorted, sort::reference(&values));
        assert_eq!((a.sorted, a.stats), (b.sorted, b.stats), "sort");

        let records: Vec<(i64, i64)> = (0..cfg.num_pes as i64).map(|i| (i % 7, i)).collect();
        let a = search::run(cfg, &records, 3).unwrap();
        let b = search::run(un, &records, 3).unwrap();
        assert_eq!(
            (a.matches, a.first_value, a.first_index, a.stats),
            (b.matches, b.first_value, b.first_index, b.stats),
            "search"
        );

        let pixels: Vec<i64> = (0..cfg.num_pes as i64 * 8).map(|i| (i * 13) % 100).collect();
        let a = image::run(cfg, &pixels, 40).unwrap();
        let b = image::run(un, &pixels, 40).unwrap();
        assert_eq!(
            (a.sum, a.min, a.max, a.above_threshold, a.stats),
            (b.sum, b.min, b.max, b.above_threshold, b.stats),
            "image"
        );

        let graph = mst::random_graph(24, 30, 7);
        let a = mst::run(cfg, &graph).unwrap();
        let b = mst::run(un, &graph).unwrap();
        assert_eq!(a.total_weight, mst::reference(&graph));
        assert_eq!((a.total_weight, a.stats), (b.total_weight, b.stats), "mst");

        let text: Vec<u8> = (0..cfg.num_pes).map(|i| b"abcab"[i % 5]).collect();
        let a = string_match::run(cfg, &text, b"abc").unwrap();
        let b = string_match::run(un, &text, b"abc").unwrap();
        assert_eq!((a.count, a.first, a.stats), (b.count, b.first, b.stats), "string_match");
    }
}

#[test]
fn fusion_engine_actually_fuses() {
    // The image kernel's strip loop is a fusible block (plw/padd/pmax/
    // pmin under flag masks); with one live thread it must execute fused.
    let src = "
        pidx   p1
        pclti  pf1, p1, 8
        pli    p2, 0
        pli    p3, 5
        padd   p2, p2, p3 ?pf1
        paddi  p2, p2, 1 ?pf1
        pcgt   pf2, p2, p3
        pfand  pf1, pf1, pf2
        halt
    ";
    let program = asc::asm::assemble(src).unwrap();
    let mut m = Machine::with_program(MachineConfig::new(16), &program).unwrap();
    m.run(100_000).unwrap();
    let fs = m.fusion_stats();
    assert!(fs.static_blocks >= 1, "program has a fusible block: {fs:?}");
    assert!(fs.instrs_fused >= 4, "block executed fused: {fs:?}");
    assert!(fs.blocks_executed >= 1);
    assert!(fs.mean_block_len() >= 2.0);
    assert!(fs.fused_fraction(m.stats().issued) > 0.0);

    // Same program, fusion off: engine never engages.
    let mut m = Machine::with_program(MachineConfig::new(16).without_fusion(), &program).unwrap();
    m.run(100_000).unwrap();
    assert_eq!(m.fusion_stats().instrs_fused, 0);
}

#[test]
fn memory_faults_keep_their_identity_under_fusion() {
    // A computed-base psw can fault, so it ends the fusible block before
    // it and faults at its own pc and PE. PE local memory is 256 words;
    // base 200 + offset 127 overflows for every active lane, lowest PE
    // wins. The block before it ran fused, and the machine and statistics
    // the error leaves match --no-fuse.
    let src = "
        pli    p1, 200
        paddi  p2, p1, 1
        psw    p2, 127(p1)
        halt
    ";
    let program = asc::asm::assemble(src).unwrap();
    let mut cfg = MachineConfig::new(16);
    cfg.lmem_words = 256;
    let runs: Vec<(RunError, Machine)> = [cfg, cfg.without_fusion()]
        .into_iter()
        .map(|c| {
            let mut m = Machine::with_program(c, &program).unwrap();
            (m.run(100_000).unwrap_err(), m)
        })
        .collect();
    let errs = [&runs[0].0, &runs[1].0];
    assert_eq!(errs[0], errs[1], "fused and unfused faults must agree");
    let (fused, unfused) = (&runs[0].1, &runs[1].1);
    assert_eq!(fused.fusion_stats().blocks_executed, 1, "the block before the psw ran fused");
    assert_eq!(fused.arch_digest(), unfused.arch_digest(), "state after the fault");
    assert_eq!(fused.stats(), unfused.stats(), "statistics after the fault");
    match errs[0] {
        RunError::PeMemoryFault { thread, pc, fault } => {
            assert_eq!((*thread, *pc, fault.pe), (0, 2, 0), "fault identity");
        }
        other => panic!("expected a PE memory fault, got {other:?}"),
    }
}

/// A run stopped by its cycle budget inside a fusible block leaves what
/// `--no-fuse` leaves. Under every limit from one cycle until the program
/// completes, the fused and unfused runs return the same result and leave
/// the same machine and statistics. The fuel gate is what keeps a block
/// that could outlast the budget unfused; on the full budget it fuses.
#[test]
fn cycle_limits_inside_a_block_match_no_fuse() {
    let src = "
        pidx   p1
        paddi  p1, p1, 1
        paddi  p1, p1, 2
        paddi  p1, p1, 3
        paddi  p1, p1, 4
        paddi  p1, p1, 5
        rsum   s1, p1
        halt
    ";
    let program = asc::asm::assemble(src).unwrap();
    let cfg = MachineConfig::new(16);
    let run = |cfg: MachineConfig, limit: u64| {
        let mut m = Machine::with_program(cfg, &program).unwrap();
        let result = m.run(limit);
        (result, m.arch_digest(), m.stats().clone(), m.fusion_stats().blocks_executed)
    };
    assert_eq!(run(cfg, 100_000).3, 1, "the block fuses on a full budget");
    for limit in 1.. {
        let (fused, fused_digest, fused_stats, _) = run(cfg, limit);
        let (unfused, unfused_digest, unfused_stats, _) = run(cfg.without_fusion(), limit);
        assert_eq!(fused, unfused, "limit {limit}: run result");
        assert_eq!(fused_digest, unfused_digest, "limit {limit}: state at the stop");
        assert_eq!(fused_stats, unfused_stats, "limit {limit}: statistics at the stop");
        if fused.is_ok() {
            break;
        }
    }
}

/// Per-lane `plw` and `psw` that would fault in different occupancy
/// groups at different ops, after a fused block of two uniform loads, on
/// an array large enough (2¹⁸ + 70 PEs, 65 groups) for that block's tile
/// chain to run on every host worker. A computed-base access can fault,
/// so the plan keeps both out of the block and they run unfused, on the
/// caller in lane order: the run stops at the earliest faulting op and,
/// within it, at the lowest faulting PE, as `--no-fuse` does, although a
/// later op would fault at a lower PE, and it leaves the same machine and
/// statistics as `--no-fuse`.
#[test]
fn split_block_faults_keep_their_identity() {
    const GROUP: usize = 4096;
    let n = (1 << 18) + 70;
    let src = "
        plw    p1, 0(p0)
        plw    p4, 1(p0)
        plw    p2, 2(p1)
        paddi  p3, p2, 1
        psw    p3, 3(p4)
        halt
    ";
    // row 0 bases the plw at pc 2, row 1 the psw at pc 4; lanes given an
    // out-of-range base fault there
    let (plw_x, plw_z, psw_y) = (3 * GROUP + 17, 40 * GROUP + 5, GROUP + 9);
    let program = asc::asm::assemble(src).unwrap();
    let mut cfg = MachineConfig::new(n).single_threaded();
    cfg.lmem_words = 4;
    let run = |cfg: MachineConfig| {
        let mut m = Machine::with_program(cfg, &program).unwrap();
        for (row, lanes) in [(0, [plw_x, plw_z]), (1, [psw_y, psw_y])] {
            let mut col = vec![Word::ZERO; n];
            for lane in lanes {
                col[lane] = Word(1000);
            }
            m.array_mut().scatter_column(row, &col).unwrap();
        }
        let err = m.run(100_000).unwrap_err();
        (err, m.fusion_stats().blocks_executed, m.arch_digest(), m.stats().clone())
    };
    let (fused, blocks, fused_digest, fused_stats) = run(cfg);
    let (unfused, _, unfused_digest, unfused_stats) = run(cfg.without_fusion());
    assert_eq!(blocks, 1, "the block ran fused");
    assert_eq!(fused, unfused, "fused and unfused faults must agree");
    assert_eq!(fused_digest, unfused_digest, "state after the fault");
    assert_eq!(fused_stats, unfused_stats, "statistics after the fault");
    match fused {
        RunError::PeMemoryFault { thread, pc, fault } => {
            assert_eq!((thread, pc, fault.pe, fault.fault.is_store), (0, 2, plw_x, false));
        }
        other => panic!("expected a PE memory fault, got {other:?}"),
    }
}

/// Every aliasing form in two fused blocks: reg–reg ops whose destination
/// is the first source, the second, and both; a reg–immediate op and a
/// masked op in place; a compare masked by the flag it writes, which an
/// earlier op of the same block wrote, and a later op masked by its
/// result; and stores of the aliased results. Between the blocks, a
/// per-lane `plw` over its own base, which can fault and so runs unfused.
/// The fused, `--no-fuse` and `--no-simd` runs must leave the same machine
/// and statistics, and the stored rows must equal the answer computed
/// here. A runner that latched the block's masks once, or before the
/// earlier ops had run on a group, would mask `pclt pf1, p1, p2 ?pf1` and
/// `paddi p1, p1, 1 ?pf1` by the flag as it stood before the block.
fn aliased_block_matches_host(n: usize) {
    const W: u32 = 0xffff;
    let src = "
        plw    p2, 0(p0)
        plw    p4, 1(p0)
        plw    p5, 2(p0)
        plw    p7, 3(p0)
        plw    p3, 4(p0)
        pclt   pf1, p2, p4
        padd   p4, p4, p5
        psub   p5, p4, p5
        pxor   p6, p6, p6
        psrli  p7, p7, 1
        pmin   p7, p2, p7 ?pf1
        plw    p3, 0(p3)
        plw    p1, 2(p0)
        pclt   pf1, p1, p2 ?pf1
        paddi  p1, p1, 1 ?pf1
        psw    p4, 5(p0)
        psw    p5, 6(p0)
        psw    p6, 7(p0)
        psw    p7, 8(p0)
        psw    p3, 9(p0)
        psw    p1, 10(p0)
        halt
    ";
    let program = asc::asm::assemble(src).unwrap();
    // rows 0-3: x, y, z, u over the whole 16-bit range; row 4: a per-lane
    // address into rows 0-4
    let mut seed = 0x2545_f491_4f6c_dd1du64;
    let mut rows: Vec<Vec<u32>> = (0..4)
        .map(|_| {
            (0..n)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    (seed >> 16) as u32 & W
                })
                .collect()
        })
        .collect();
    rows.push((0..n as u32).map(|pe| pe * 7 % 5).collect());
    let s16 = |v: u32| v as u16 as i16 as i64;
    let want: Vec<Vec<u32>> = {
        let (x, y, z, u, addr) = (&rows[0], &rows[1], &rows[2], &rows[3], &rows[4]);
        let p4: Vec<u32> = (0..n).map(|i| (y[i] + z[i]) & W).collect();
        let p5: Vec<u32> = (0..n).map(|i| p4[i].wrapping_sub(z[i]) & W).collect();
        let p7: Vec<u32> = (0..n)
            .map(|i| {
                let shifted = u[i] >> 1;
                let masked = s16(x[i]) < s16(y[i]);
                if masked && s16(x[i]) < s16(shifted) {
                    x[i]
                } else {
                    shifted
                }
            })
            .collect();
        let p3: Vec<u32> = (0..n).map(|i| rows[addr[i] as usize][i]).collect();
        // pf1 = x < y, then, where set, z < x; p1 = z, plus one where pf1
        let p1: Vec<u32> = (0..n)
            .map(|i| {
                let pf1 = s16(x[i]) < s16(y[i]) && s16(z[i]) < s16(x[i]);
                if pf1 {
                    (z[i] + 1) & W
                } else {
                    z[i]
                }
            })
            .collect();
        vec![p4, p5, vec![0; n], p7, p3, p1]
    };

    let mut cfg = MachineConfig::new(n).single_threaded();
    cfg.lmem_words = 11;
    let run = |cfg: MachineConfig| {
        let mut m = Machine::with_program(cfg, &program).unwrap();
        for (row, col) in rows.iter().enumerate() {
            let col: Vec<Word> = col.iter().map(|&v| Word(v)).collect();
            m.array_mut().scatter_column(row as u32, &col).unwrap();
        }
        m.run(100_000).unwrap();
        let a = m.array();
        let gprs: Vec<Vec<Word>> = (0..16).map(|r| a.gpr_plane(0, r).to_vec()).collect();
        let flags: Vec<Vec<u64>> = (0..8).map(|f| a.flag_plane(0, f).to_vec()).collect();
        let lmem: Vec<Vec<Word>> = (0..11).map(|r| a.gather_column(r).unwrap()).collect();
        (gprs, flags, lmem, m.stats().clone(), m.fusion_stats().blocks_executed)
    };
    let fused = run(cfg);
    assert_eq!(fused.4, 2, "both blocks ran fused");
    for (i, want) in want.iter().enumerate() {
        let got: Vec<u32> = fused.2[5 + i].iter().map(|w| w.to_u32()).collect();
        assert!(got == *want, "n={n}: stored row {} differs from the host answer", 5 + i);
    }
    for (other, how) in
        [(run(cfg.without_fusion()), "--no-fuse"), (run(cfg.without_simd()), "--no-simd")]
    {
        assert_eq!(other.4, if how == "--no-fuse" { 0 } else { 2 }, "{how} fused blocks");
        assert!(fused.0 == other.0, "n={n}: GPR planes differ under {how}");
        assert!(fused.1 == other.1, "n={n}: flag planes differ under {how}");
        assert!(fused.2 == other.2, "n={n}: local memory differs under {how}");
        assert_eq!(fused.3, other.3, "n={n}: statistics differ under {how}");
    }
}

/// 100 PEs: one full tile and a ragged 36-lane last tile.
#[test]
fn aliased_operands_fuse_on_a_ragged_tile() {
    aliased_block_matches_host(100);
}

/// 2¹⁸ + 70 PEs (65 occupancy groups): the block's tile chain passes the
/// worker pool's gate and runs on every host worker.
#[test]
fn aliased_operands_fuse_when_split() {
    aliased_block_matches_host((1 << 18) + 70);
}

/// A fusible run that issues while a second thread is live does not fuse:
/// its instructions run one by one through the same lane-local executors
/// as a block, and the block counters stay at zero. The machine, its
/// statistics and its answers match `--no-fuse`.
#[test]
fn unfused_issues_leave_the_block_counters_alone() {
    let src = "
main:   li     s1, worker
        tspawn s2, s1
        pidx   p1
        paddi  p2, p1, 3
        pclti  pf1, p2, 9
        pand   p3, p2, p1 ?pf1
        psw    p3, 0(p0)
        tjoin  s2
        halt
worker: li     s3, 40
wloop:  addi   s3, s3, -1
        cne    f1, s3, s0
        bt     f1, wloop
        texit
    ";
    let program = asc::asm::assemble(src).unwrap();
    let run = |cfg: MachineConfig| {
        let mut m = Machine::with_program(cfg, &program).unwrap();
        m.run(100_000).unwrap();
        m
    };
    let (fused, unfused) =
        (run(MachineConfig::new(100)), run(MachineConfig::new(100).without_fusion()));
    let fs = fused.fusion_stats();
    assert_eq!(fs.static_blocks, 1, "the program has one fusible block: {fs:?}");
    assert_eq!((fs.blocks_executed, fs.instrs_fused, fs.tile_chains), (0, 0, 0), "{fs:?}");
    assert_eq!(fused.arch_digest(), unfused.arch_digest());
    assert_eq!(fused.stats(), unfused.stats());
    let row: Vec<u32> =
        fused.array().gather_column(0).unwrap().iter().map(|w| w.to_u32()).collect();
    let want: Vec<u32> = (0..100).map(|i| if i + 3 < 9 { (i + 3) & i } else { 0 }).collect();
    assert_eq!(row, want);
}

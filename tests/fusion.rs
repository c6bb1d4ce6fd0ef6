//! Differential tests pinning the block-fusion engine: every kernel must
//! produce bit-identical results, cycle counts, and statistics with
//! fusion on (the default) and off (`MachineConfig::without_fusion`), on
//! whole tiles and with a short tail tile, and memory faults must carry
//! the same identity either way.

use asc::core::{Machine, MachineConfig, RunError};
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
    // psw inside a fusible block faults at its own pc and PE, not the
    // block entry. PE local memory is 512 words; base 200 + offset 127
    // overflows for every active lane, lowest PE wins.
    let src = "
        pli    p1, 200
        paddi  p2, p1, 1
        psw    p2, 127(p1)
        halt
    ";
    let program = asc::asm::assemble(src).unwrap();
    let mut cfg = MachineConfig::new(16);
    cfg.lmem_words = 256;
    let errs: Vec<RunError> = [cfg, cfg.without_fusion()]
        .into_iter()
        .map(|c| {
            let mut m = Machine::with_program(c, &program).unwrap();
            m.run(100_000).unwrap_err()
        })
        .collect();
    assert_eq!(errs[0], errs[1], "fused and unfused faults must agree");
    match &errs[0] {
        RunError::PeMemoryFault { thread, pc, fault } => {
            assert_eq!((*thread, *pc, fault.pe), (0, 2, 0), "fault identity");
        }
        other => panic!("expected a PE memory fault, got {other:?}"),
    }
}

//! Plane reuse is invisible to the model. A machine built on a thread
//! that has just dropped a same-shape machine takes that machine's plane
//! memory (`asc_pe::PeArray::new` zeroes the slices the old commit map
//! marks, at construction or, for a large spare, on demand), and it must
//! run exactly like the same machine built on a freshly spawned thread,
//! which holds no spare planes.

use asc::core::{FusionStats, Machine, MachineConfig, Stats};
use asc::isa::Word;
use asc::kernels::harness::corpus;

/// 4132 PEs with 16 thread contexts: the last tile has 36 lanes, and
/// automatic slicing gives two segments.
const PES: usize = 4_132;

/// One fusible 9-instruction block per iteration over local-memory rows
/// 0 to 2, then a reduction of the stored row.
const FUSED: &str = "
        li     s6, 3
loop:   plw    p1, 0(p0)
        plw    p2, 1(p0)
        padd   p3, p1, p2
        pxor   p4, p3, p1
        pclt   pf1, p1, p2
        pfxor  pf2, pf1, pf3
        paddi  p4, p4, 9 ?pf1
        pandi  p5, p4, 63
        psw    p5, 2(p0)
        rmax   s1, p5
        addi   s6, s6, -1
        ceqi   f1, s6, 0
        bf     f1, loop
        halt
";

/// Sets flag 5 in every PE, then stores through a per-lane base (p6, never
/// written, so row 3), which marks every local-memory row: the next
/// machine takes more marked bytes than a spare zeroed at construction
/// may hold, and gets these planes stale.
const POISON: &str = "
        pfset  pf5
        pidx   p1
        paddi  p2, p1, 1
        psw    p2, 3(p6)
        halt
";

/// A fusible block with an op under flag 5, which the program never
/// writes: on fresh planes the flag is clear, and the op changes nothing.
const MASKED_BY_AN_UNWRITTEN_FLAG: &str = "
        plw    p1, 0(p0)
        plw    p2, 1(p0)
        padd   p3, p1, p2
        paddi  p3, p3, 9 ?pf5
        pxor   p4, p3, p1
        psw    p4, 2(p0)
        rmax   s1, p4
        halt
";

/// The multithreaded batch-query kernel of the lint corpus: four worker
/// threads, each with its own register and flag planes.
fn batch_kernel() -> String {
    let (_, src) = corpus()
        .into_iter()
        .find(|(name, _)| name.starts_with("batch"))
        .expect("the corpus has a batch kernel");
    src
}

/// What a run leaves that the model can observe, plus the bytes its
/// array wrote.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    stats: Stats,
    digest: u64,
    /// Every thread's registers and flags (`arch_digest` covers thread 0).
    planes: u64,
    fusion: FusionStats,
    committed: usize,
}

fn planes_digest(m: &Machine) -> u64 {
    let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in 0..m.config().threads {
        for r in 0..asc::isa::NUM_GPRS {
            h = m.array().gpr_plane(t, r).iter().fold(h, |h, w| mix(h, w.0 as u64));
        }
        for f in 0..asc::isa::NUM_FLAGS {
            h = m.array().flag_plane(t, f).iter().fold(h, |h, &w| mix(h, w));
        }
    }
    h
}

/// Preload two local-memory rows and the batch kernel's queries, run
/// `src` to completion at `segments`, and return the machine with its
/// outcome.
fn run(src: &str, segments: usize) -> (Machine, Outcome) {
    let program = asc::asm::assemble(src).expect("test program assembles");
    let cfg = MachineConfig::new(PES).with_segments(segments);
    let mut m = Machine::with_program(cfg, &program).unwrap();
    let row = |f: fn(u32) -> u32| (0..PES as u32).map(|pe| Word(f(pe))).collect::<Vec<_>>();
    m.array_mut().scatter_column(0, &row(|pe| (pe * 7 + 3) % 50)).unwrap();
    m.array_mut().scatter_column(1, &row(|pe| (pe * 13) % 31)).unwrap();
    for q in 0..4 {
        m.smem_mut().write(64 + q, Word(q * 5)).unwrap();
    }
    let stats = m.run(asc::kernels::MAX_CYCLES).expect("test program runs");
    let outcome = Outcome {
        stats,
        digest: m.arch_digest(),
        planes: planes_digest(&m),
        fusion: m.fusion_stats(),
        committed: m.array().committed_bytes(),
    };
    (m, outcome)
}

/// Run `first` monolithic and drop it, then `second` at automatic
/// slicing on the reused planes; compare with `second` on a fresh thread.
fn assert_second_run_matches_fresh(first: &str, second: &str) {
    let (m, _) = run(first, 1);
    let planes = m.array().gpr_plane(0, 0).as_ptr();
    drop(m);
    let (m, reused) = run(second, 0);
    assert_eq!(m.array().gpr_plane(0, 0).as_ptr(), planes, "the planes were not reused");
    let owned = second.to_string();
    let fresh = std::thread::spawn(move || run(&owned, 0).1).join().unwrap();
    assert_eq!(reused, fresh);
}

#[test]
fn reused_planes_run_like_a_fresh_machine() {
    let batch = batch_kernel();
    let (_, fused) = run(FUSED, 0);
    assert!(fused.fusion.blocks_executed > 0, "the fused program must run fused blocks");
    assert_second_run_matches_fresh(&batch, FUSED);
    assert_second_run_matches_fresh(FUSED, &batch);
}

/// A fused block latches its `?pf` mask words straight from the flag
/// plane, so a stale flag the program never writes must read as zero
/// there too.
#[test]
fn a_block_under_a_flag_it_never_writes_runs_like_a_fresh_machine() {
    let (_, masked) = run(MASKED_BY_AN_UNWRITTEN_FLAG, 0);
    assert!(masked.fusion.blocks_executed > 0, "the masked op must run in a fused block");
    let (_, poison) = run(POISON, 0);
    assert!(
        poison.committed > asc::pe::array::EAGER_SCRUB_BYTES,
        "the poison must leave a spare that is zeroed on demand"
    );
    assert_second_run_matches_fresh(POISON, MASKED_BY_AN_UNWRITTEN_FLAG);
}

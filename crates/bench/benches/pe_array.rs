//! Criterion benchmarks of the PE-array datapath hot paths: the sort
//! kernel at 4096 PEs (masked ALU/compare + reductions every step), a
//! response-count microbench at 2¹⁴ PEs (the associative some/none test
//! issued back to back), the build-touch-drop cycle of a 2²⁰-PE machine
//! (plane construction and first-touch writes), single lane-local
//! instructions through the ALU and compare span kernels, the query
//! fleet's round-robin issue of lane-local ops over 16 threads, the
//! stencil workload's fused block at 2¹⁶ PEs, and the host preload's
//! column scatter at 2¹⁶ to 2²⁰ PEs.
//! These are the workloads the structure-of-arrays PE array is optimised
//! for; run them before and after datapath changes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use asc_core::{Machine, MachineConfig};
use asc_isa::{AluOp, CmpOp, Instr, Mask, PFlag, PReg, SReg, Word};
use asc_kernels::sort;
use asc_pe::{ActiveMask, LaneOp, PeArray};

/// Sort 256 values on a 4096-PE array: every associative step runs its
/// masked compares and reductions across all 4096 lanes.
fn bench_sort_4096(c: &mut Criterion) {
    let values: Vec<i64> = (0..256).map(|i| ((i * 37) % 199) - 99).collect();
    c.bench_function("pe_array/sort_4096", |b| {
        b.iter(|| {
            black_box(
                sort::run(MachineConfig::new(4096).single_threaded(), &values).unwrap().sorted,
            )
        })
    });
}

/// 2048 back-to-back `rcount` instructions over a 2¹⁴-PE array with half
/// the PEs responding — the response counter's instruction-issue hot path.
fn bench_rcount_16k(c: &mut Criterion) {
    let src = format!(
        "
        li     s5, 256
        li     s6, 8192
        pidx   p1
        pcles  pf1, p1, s6
loop:   {rcounts}
        addi   s5, s5, -1
        cne    f1, s5, s0
        bt     f1, loop
        halt
        ",
        rcounts = "rcount s2, pf1\n".repeat(8),
    );
    let program = asc_asm::assemble(&src).expect("rcount microbench assembles");
    let cfg = MachineConfig::new(1 << 14).single_threaded();
    c.bench_function("pe_array/rcount_16384", |b| {
        b.iter(|| {
            let mut m = Machine::with_program(cfg, &program).unwrap();
            black_box(m.run(50_000_000).unwrap().cycles)
        })
    });
}

/// Build a single-thread 2²⁰-PE machine, scatter two local-memory
/// columns, run the two-`plw` block that loads them into registers, and
/// drop the machine: the set-up and first block of a million-PE query.
/// Each iteration writes four 4 MiB planes, so it times plane
/// construction and first-touch writes, the planes layer alone.
fn bench_build_touch_1m(c: &mut Criterion) {
    const PES: usize = 1 << 20;
    let program =
        asc_asm::assemble("plw p2, 0(p0)\nplw p3, 1(p0)\nhalt\n").expect("two-plw block assembles");
    let mut cfg = MachineConfig::new(PES).single_threaded();
    cfg.lmem_words = 2;
    let keys: Vec<Word> = (0..PES as u32).map(|pe| Word(pe >> 10)).collect();
    let vals: Vec<Word> = (0..PES as u32).map(|pe| Word(pe % 32)).collect();
    c.bench_function("pe_array/build_touch_1048576", |b| {
        b.iter(|| {
            let mut m = Machine::with_program(cfg, &program).unwrap();
            m.array_mut().scatter_column(0, &keys).unwrap();
            m.array_mut().scatter_column(1, &vals).unwrap();
            black_box(m.run(10_000).unwrap().cycles)
        })
    });
}

/// One lane-local instruction under an all-active mask, lowered as the
/// machine lowers it at load and run on the array's single-instruction
/// entry point (`PeArray::run_op`): the per-op cost of the span kernels
/// and the executor around them, without the scheduler. `paddi` runs the
/// ALU kernel and `pceqs` (a compare against a broadcast scalar, written
/// into the op as at issue) the compare kernel. 256 PEs with 16 thread
/// contexts is the multithreaded fleet's array, one call over four dense
/// tiles; at 2²⁰ PEs a `pceqs` is 256 group calls, split across the host
/// workers.
fn bench_single_sweeps(c: &mut Criterion) {
    for (cfg, label) in [
        (MachineConfig::new(256), "256x16"),
        (MachineConfig::new(1 << 20).single_threaded(), "1048576"),
    ] {
        let mut a = PeArray::new(cfg.array());
        let all = ActiveMask::all(cfg.num_pes);
        let (p1, p2, pf1) = (PReg::from_index(1), PReg::from_index(2), PFlag::from_index(1));
        let (w, level, mask) = (cfg.width, a.config().simd, Mask::All);
        let lower = |i: Instr| {
            LaneOp::lower(&i, w, level, cfg.lmem_words).expect("a lane-local instruction")
        };
        a.run_op(0, &lower(Instr::Pidx { pd: p1, mask }), &all).unwrap();
        if cfg.num_pes == 256 {
            let paddi = lower(Instr::PAluImm { op: AluOp::Add, pd: p2, pa: p1, imm: 3, mask });
            c.bench_function(&format!("pe_array/paddi_{label}"), |b| {
                b.iter(|| a.run_op(0, &paddi, black_box(&all)).expect("no fault"))
            });
        }
        let sb = SReg::from_index(1);
        let pceqs = lower(Instr::PCmpS { op: CmpOp::Eq, fd: pf1, pa: p1, sb, mask });
        let pceqs = pceqs.with_scalar(Word(7));
        c.bench_function(&format!("pe_array/pceqs_{label}"), |b| {
            b.iter(|| a.run_op(0, &pceqs, black_box(&all)).expect("no fault"))
        });
        black_box(a.flag_plane(0, 1));
    }
}

/// The query fleet's issue pattern on its array (256 PEs, 16 thread
/// contexts): three lowered ops, a `paddi`, a `pceqs` with its scalar
/// and a `pxor`, issued round-robin over the 16 threads' planes, one op
/// per iteration, so consecutive calls never touch the same thread.
/// Against `paddi_256x16`, which issues one op on one thread, it shows
/// what `PeArray::run_op` spends setting up a thread's view and its
/// group window per call.
fn bench_run_op_rotating(c: &mut Criterion) {
    let cfg = MachineConfig::new(256);
    let mut a = PeArray::new(cfg.array());
    let all = ActiveMask::all(cfg.num_pes);
    let (w, level, mask) = (cfg.width, a.config().simd, Mask::All);
    let lower =
        |i: Instr| LaneOp::lower(&i, w, level, cfg.lmem_words).expect("a lane-local instruction");
    let p = PReg::from_index;
    let ops = [
        lower(Instr::PAluImm { op: AluOp::Add, pd: p(4), pa: p(3), imm: 7, mask }),
        lower(Instr::PCmpS {
            op: CmpOp::Eq,
            fd: PFlag::from_index(1),
            pa: p(2),
            sb: SReg::R0,
            mask,
        })
        .with_scalar(Word(7)),
        lower(Instr::PAlu { op: AluOp::Xor, pd: p(5), pa: p(4), pb: p(2), mask }),
    ];
    let threads = cfg.threads;
    for t in 0..threads {
        a.run_op(t, &lower(Instr::Pidx { pd: p(2), mask }), &all).unwrap();
        a.run_op(t, &lower(Instr::Pidx { pd: p(3), mask }), &all).unwrap();
    }
    let mut k = 0usize;
    c.bench_function("pe_array/run_op_256x16_rotating", |b| {
        b.iter(|| {
            let (t, op) = (k % threads, &ops[k % ops.len()]);
            k += 1;
            a.run_op(t, op, black_box(&all)).expect("no fault")
        })
    });
    black_box(a.gpr_plane(0, 5));
}

/// The 22-instruction loop body of simbench's `fused_stencil` workload,
/// the block its fusion plan runs as one, lowered as the machine lowers it
/// at load and run four times back to back through `PeArray::run_block`
/// at 2¹⁶ PEs: the tile-chain share of one stencil op (four loop
/// iterations). Its eight register planes and three local-memory rows,
/// 2.75 MiB, do not fit in one 2 MiB L2 cache but do in two, so each
/// split run rereads its groups' planes from its own core's L2 only if
/// every core sweeps the same groups every time.
fn bench_run_block_stencil(c: &mut Criterion) {
    const PES: usize = 1 << 16;
    let block = asc_asm::assemble(
        "
        plw    p1, 0(p0)
        plw    p2, 1(p0)
        plw    p3, 2(p0)
        padd   p4, p1, p2
        psrli  p4, p4, 1
        pxor   p5, p3, p1
        pandi  p5, p5, 127
        padd   p6, p4, p5
        pclt   pf1, p1, p2
        pclt   pf2, p5, p4
        pfxor  pf3, pf1, pf2
        pmax   p7, p1, p3 ?pf3
        pmin   p7, p2, p7 ?pf1
        padd   p8, p6, p7
        psrli  p8, p8, 1
        pxor   p8, p8, p5
        pfor   pf5, pf2, pf3
        paddi  p8, p8, 3 ?pf5
        pcle   pf6, p8, p1
        pfandn pf7, pf6, pf1
        paddi  p8, p8, 5 ?pf7
        psw    p8, 2(p0)
        ",
    )
    .expect("the stencil block assembles");
    let mut cfg = MachineConfig::new(PES).single_threaded();
    cfg.lmem_words = 4;
    let mut a = PeArray::new(cfg.array());
    let level = a.config().simd;
    let ops: Vec<LaneOp> = (block.instrs.iter())
        .map(|i| LaneOp::lower(i, cfg.width, level, cfg.lmem_words).expect("a lane-local op"))
        .collect();
    assert_eq!(ops.len(), 22);
    for row in 0..3u32 {
        let data: Vec<Word> =
            (0..PES as u32).map(|pe| Word((pe * 37 + row * 101) % 1024)).collect();
        a.scatter_column(row, &data).unwrap();
    }
    let all = ActiveMask::all(PES);
    c.bench_function("pe_array/run_block_stencil_65536x4", |b| {
        b.iter(|| {
            for _ in 0..4 {
                a.run_block(0, black_box(&ops), &all);
            }
        })
    });
    black_box(a.gpr_plane(0, 8));
}

/// One host `scatter_column` into a local-memory row of a single-thread
/// array at 2¹⁶, 2¹⁸ and 2²⁰ PEs: below the worker pool's gate (one copy
/// on the caller), at it and above it (a sweep split across the host
/// cores). The row is overwritten each iteration, so after the first one
/// its pages are resident.
fn bench_scatter_column(c: &mut Criterion) {
    for pes in [1usize << 16, 1 << 18, 1 << 20] {
        let mut cfg = MachineConfig::new(pes).single_threaded();
        cfg.lmem_words = 2;
        let mut a = PeArray::new(cfg.array());
        let data: Vec<Word> = (0..pes as u32).map(|pe| Word(pe.wrapping_mul(7) & 31)).collect();
        c.bench_function(&format!("pe_array/scatter_column_{pes}"), |b| {
            b.iter(|| a.scatter_column(1, black_box(&data)).unwrap())
        });
        black_box(a.lmem_row(1).unwrap());
    }
}

criterion_group!(
    benches,
    bench_sort_4096,
    bench_rcount_16k,
    bench_build_touch_1m,
    bench_scatter_column,
    bench_single_sweeps,
    bench_run_op_rotating,
    bench_run_block_stencil
);
criterion_main!(benches);

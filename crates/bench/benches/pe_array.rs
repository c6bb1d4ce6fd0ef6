//! Criterion benchmarks of the PE-array datapath hot paths: the sort
//! kernel at 4096 PEs (masked ALU/compare + reductions every step), a
//! response-count microbench at 2¹⁴ PEs (the associative some/none test
//! issued back to back), the build-touch-drop cycle of a 2²⁰-PE machine
//! (plane construction and first-touch writes), and single
//! instruction-major sweeps through the ALU and compare span kernels.
//! These are the workloads the structure-of-arrays PE array is optimised
//! for; run them before and after datapath changes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use asc_core::{Machine, MachineConfig};
use asc_isa::{AluOp, CmpOp, PFlag, PReg, Word};
use asc_kernels::sort;
use asc_pe::{ActiveMask, PeArray, Src};

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

/// One instruction-major sweep under an all-active mask, called on the
/// array directly: the per-call cost of the span kernels, without the
/// scheduler. `paddi` runs the ALU kernel and `pceqs` (a compare against
/// a broadcast scalar) the compare kernel. 256 PEs with 16 thread
/// contexts is the multithreaded fleet's array, one call over four
/// dense tiles; at 2²⁰ PEs a `pceqs` is 256 group calls, split across
/// the host workers.
fn bench_single_sweeps(c: &mut Criterion) {
    for (cfg, label) in [
        (MachineConfig::new(256), "256x16"),
        (MachineConfig::new(1 << 20).single_threaded(), "1048576"),
    ] {
        let mut a = PeArray::new(cfg.array());
        let all = ActiveMask::all(cfg.num_pes);
        let (p1, p2, pf1) = (PReg::from_index(1), PReg::from_index(2), PFlag::from_index(1));
        a.pidx(0, p1, &all);
        if cfg.num_pes == 256 {
            c.bench_function(&format!("pe_array/paddi_{label}"), |b| {
                b.iter(|| a.alu(0, AluOp::Add, p2, p1, Src::Imm(Word(3)), black_box(&all)))
            });
        }
        c.bench_function(&format!("pe_array/pceqs_{label}"), |b| {
            b.iter(|| a.cmp(0, CmpOp::Eq, pf1, p1, Src::Scalar(Word(7)), black_box(&all)))
        });
        black_box(a.flag_plane(0, 1));
    }
}

criterion_group!(
    benches,
    bench_sort_4096,
    bench_rcount_16k,
    bench_build_touch_1m,
    bench_single_sweeps
);
criterion_main!(benches);

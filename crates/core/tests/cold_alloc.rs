//! The cold `mtasc run` path outside simulation allocates a fixed amount:
//! assembling a label-free program makes the same number of heap
//! allocations at 20 lines as at 500, on the process's first call as on
//! later ones (no per-line or per-token allocation, and no table built on
//! first use), and `Stats::report` allocates at most its output string.
//!
//! A counting `#[global_allocator]` sees every thread of the process, so
//! this file runs without the test harness (`harness = false`), as
//! `issue_alloc` does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use asc_core::{StallReason, Stats};
use asc_isa::InstrClass;

/// Global allocator that counts allocations while `COUNTING` is set.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System` unchanged; the counter
// update has no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by `f`, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOC_CALLS.load(Ordering::SeqCst), out)
}

/// Twenty label-free lines over every operand shape: registers of each
/// file, immediates in every literal base, memory operands, masks,
/// comments and mixed-case mnemonics.
const BODY: [&str; 20] = [
    "        pidx    p1              ; p1 = PE index",
    "        plw     p2, 0(p0)",
    "        pmuli   p3, p1, 7",
    "        pandi   p3, p3, 0x1f",
    "        rmax    s1, p3",
    "        pceqs   pf1, p3, s1",
    "        pfirst  pf2, pf1",
    "        rget    s2, p1, pf2",
    "        RCount  s3, pf1",
    "        li      s5, -12",
    "        addi    s6, s5, 0b101",
    "        ceq     f1, s5, s6",
    "        bt      f1, 3",
    "        paddi   p4, p2, 3 ?pf1",
    "        pxor    p4, p4, p1",
    "        pclti   pf3, p4, 17",
    "        sw      s3, 64(s5)",
    "        lw      s7, 64(s5)",
    "        Add     s8, s8, s7      # accumulate",
    "        j       0",
];

fn source(lines: usize) -> String {
    (0..lines).map(|i| format!("{}\n", BODY[i % BODY.len()])).collect()
}

fn assemble_allocations(src: &str, lines: usize) -> u64 {
    let (n, program) = counted(|| asc_asm::assemble(src));
    let program = program.expect("program assembles");
    assert_eq!(program.len(), lines);
    n
}

fn main() {
    let short = source(20);
    let long = source(500);
    // the first `assemble` of the process comes first
    let first = assemble_allocations(&short, 20);
    let long_n = assemble_allocations(&long, 500);
    let again = assemble_allocations(&short, 20);
    assert!(
        first == again && again == long_n,
        "assemble allocated {first} times on the first 20-line call, {long_n} at 500 lines \
         and {again} at 20 lines again"
    );
    println!("cold_alloc: assemble makes {first} allocations at 20 and at 500 lines");

    let mut stats = Stats::new(16);
    stats.cycles = 123_456;
    for t in 0..16 {
        stats.record_issue(t, InstrClass::Parallel);
        stats.record_issue(t, InstrClass::Reduction);
    }
    for (k, reason) in StallReason::ALL.into_iter().enumerate() {
        stats.record_stall(reason, 1_000_000 + k as u64);
    }
    let (n, report) = counted(|| stats.report());
    assert!(n <= 1, "Stats::report allocated {n} times");
    assert_eq!(report.lines().count(), 1 + StallReason::ALL.len());
    let (n, _) = counted(|| Stats::default().report());
    assert!(n <= 1, "Stats::default().report() allocated {n} times");
    println!("cold_alloc: Stats::report makes {n} allocation");
}

//! The issue path allocates nothing: once a machine is built and its
//! program loaded, stepping it from the first cycle to completion makes
//! no heap allocation, with no observer attached. Checked on a
//! single-threaded program and on a 16-context spawn/compute/join
//! program, where spawning, exiting and waking joiners must not allocate
//! either.
//!
//! A counting `#[global_allocator]` sees every thread of the process, so
//! this file runs without the test harness (`harness = false`): the
//! harness's own threads allocate as tests start and finish, and here
//! only `main` runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use asc_core::{Machine, MachineConfig, Step};

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

/// One thread: a find-max with its responder index and count, then a
/// loop of lane-local work, a reduction, and a load/store per trip.
const SINGLE: &str = "
        pidx   p1
        pmuli  p2, p1, 7
        pandi  p2, p2, 31
        rmax   s1, p2
        pceqs  pf1, p2, s1
        pfirst pf2, pf1
        rget   s2, p1, pf2
        rcount s3, pf1
        li     s5, 0
        li     s6, 12
loop:   ceq    f1, s5, s6
        bt     f1, done
        paddi  p3, p2, 3
        pxor   p3, p3, p1
        pclti  pf3, p3, 17
        rcount s4, pf3
        sw     s4, 64(s5)
        lw     s7, 64(s5)
        add    s8, s8, s7
        addi   s5, s5, 1
        j      loop
done:   halt
";

/// The boot thread spawns 15 workers, so all 16 contexts are live, then
/// joins them in spawn order; each worker answers 16 queries with a
/// broadcast compare, a lane-local run, a responder count and a store,
/// and exits.
fn fleet_source() -> String {
    let stubs: String =
        (0..15).map(|k| format!("stub{k}:  li s7, {}\n        j wbody\n", k * 16)).collect();
    format!(
        "main:   li     s1, stub0
        li     s2, 0
        li     s3, 15
spawnl: ceq    f1, s2, s3
        bt     f1, joins
        tspawn s4, s1
        sw     s4, 16(s2)
        addi   s1, s1, 2
        addi   s2, s2, 1
        j      spawnl
joins:  li     s2, 0
joinl:  ceq    f1, s2, s3
        bt     f1, done
        lw     s4, 16(s2)
        tjoin  s4
        addi   s2, s2, 1
        j      joinl
done:   halt
{stubs}wbody:  pidx   p2
        pandi  p2, p2, 63
        addi   s6, s7, 16
qloop:  ceq    f1, s7, s6
        bt     f1, wdone
        lw     s2, 64(s7)
        pceqs  pf1, p2, s2
        paddi  p4, p2, 7
        pandi  p4, p4, 63
        pxor   p5, p4, p2
        psrli  p5, p5, 1
        pclti  pf2, p5, 20
        pfand  pf3, pf1, pf2
        rcount s8, pf3
        sw     s8, 512(s7)
        addi   s7, s7, 1
        j      qloop
wdone:  texit
"
    )
}

/// Build and load a machine (allocating freely), then count the
/// allocations of every `step` until it finishes. Returns the count and
/// the machine.
fn step_to_completion(cfg: MachineConfig, source: &str) -> (u64, u64, Machine) {
    let program = asc_asm::assemble(source).expect("program assembles");
    let mut m = Machine::with_program(cfg, &program).expect("program loads");
    let mut steps = 0u64;
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    loop {
        match m.step() {
            Ok(Step::Finished) => break,
            Ok(_) => steps += 1,
            Err(e) => {
                COUNTING.store(false, Ordering::SeqCst);
                panic!("run failed: {e}");
            }
        }
        if steps > 1_000_000 {
            COUNTING.store(false, Ordering::SeqCst);
            panic!("program failed to finish");
        }
    }
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOC_CALLS.load(Ordering::SeqCst), steps, m)
}

fn main() {
    let (allocs, steps, m) = step_to_completion(MachineConfig::new(64), SINGLE);
    assert_eq!(allocs, 0, "single-thread issue path allocated over {steps} steps");
    assert_eq!(m.sreg(0, 3).to_u32(), 2, "two PEs hold the maximum 31");
    println!("issue_alloc: single thread, 0 allocations over {steps} steps");

    let (allocs, steps, m) = step_to_completion(MachineConfig::new(256), &fleet_source());
    assert_eq!(allocs, 0, "16-context issue path allocated over {steps} steps");
    assert_eq!(m.stats().thread_switches, 0);
    assert!(m.stats().issued_by_thread.iter().all(|&n| n > 0), "all 16 contexts issued");
    // every query key 0 matches PEs 0, 64, 128 and 192, whose score
    // ((0 + 7) & 63 ^ 0) >> 1 = 3 is under the threshold
    assert_eq!(m.smem().read(512).unwrap().to_u32(), 4);
    println!("issue_alloc: 16 contexts, 0 allocations over {steps} steps");
}

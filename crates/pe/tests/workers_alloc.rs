//! After the first split dispatch, the host worker pool allocates
//! nothing: 1,000 more dispatches of 1–64 groups, and of per-group
//! partials, make no allocation on any thread, the helpers included.
//!
//! A counting `#[global_allocator]` sees every thread of the process, so
//! this file runs without the test harness (`harness = false`): the
//! harness's own threads allocate as tests start and finish, and here
//! only `main` and the pool's helpers run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use asc_pe::workers::{for_each_group, map_groups, SPLIT_LANE_OPS};

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

/// A few microseconds of work, so helpers wake in time to take part.
fn busy_work(g: usize) -> u64 {
    (0..200u64).fold(g as u64, |a, i| std::hint::black_box(a.wrapping_mul(31) ^ i))
}

fn main() {
    let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
    let body = |range: std::ops::Range<usize>| {
        for g in range {
            busy_work(g);
            hits[g].fetch_add(1, Ordering::Relaxed);
        }
    };
    let reduce = |part: &dyn Fn(usize) -> u64| (0..64).map(part).fold(0, u64::wrapping_add);
    // the first dispatch spawns the helpers and sizes this thread's slots
    for_each_group(64, SPLIT_LANE_OPS, body);
    let want = map_groups(64, SPLIT_LANE_OPS, busy_work, reduce);

    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut same = true;
    for i in 0..1_000 {
        for_each_group(1 + i % 64, SPLIT_LANE_OPS, body);
        same &= map_groups(64, SPLIT_LANE_OPS, busy_work, reduce) == want;
    }
    COUNTING.store(false, Ordering::SeqCst);

    assert_eq!(ALLOC_CALLS.load(Ordering::SeqCst), 0, "dispatching allocated");
    assert!(same, "split partials differ from the first dispatch's");
    let runs: u32 = hits.iter().map(|h| h.load(Ordering::Relaxed)).sum();
    assert_eq!(runs as usize, 64 + (0..1_000).map(|i| 1 + i % 64).sum::<usize>());
    println!("workers_alloc: 1000 dispatches after the first allocated nothing");
}

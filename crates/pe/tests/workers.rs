//! The host worker pool (`asc_pe::workers`): every group of a dispatch
//! runs exactly once, panics reach the caller only after every
//! participant has stopped, and concurrent and nested dispatches
//! complete. `workers_alloc.rs` checks that dispatching allocates nothing.
//!
//! The pool is process-wide, so the tests here take turns (`serial`):
//! a dispatch that finds the pool held runs on its caller, which would
//! keep a test from reaching the helpers. With one available CPU (for
//! example under `taskset -c 0`) there are no helpers and every dispatch
//! runs serially; the tests then check that path.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use asc_pe::workers::{fold_groups, for_each_group, host_workers, map_groups, SPLIT_LANE_OPS};

/// One test at a time holds the pool.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// A few microseconds of work, so helpers wake in time to take part.
fn busy_work(g: usize) -> u64 {
    (0..200u64).fold(g as u64, |a, i| std::hint::black_box(a.wrapping_mul(31) ^ i))
}

fn counters(n: usize) -> Vec<AtomicU32> {
    (0..n).map(|_| AtomicU32::new(0)).collect()
}

/// Dispatch `groups` groups at the gate and check every one ran once.
fn dispatch_once(groups: usize, hits: &[AtomicU32]) {
    for_each_group(groups, SPLIT_LANE_OPS, |range| {
        for g in range {
            busy_work(g);
            hits[g].fetch_add(1, Ordering::Relaxed);
        }
    });
    for (g, h) in hits[..groups].iter().enumerate() {
        assert_eq!(h.swap(0, Ordering::Relaxed), 1, "group {g} of {groups}");
    }
}

#[test]
fn every_group_runs_exactly_once() {
    let _turn = serial();
    let hits = counters(64);
    for i in 0..10_000 {
        dispatch_once(1 + i % 64, &hits);
    }
    // below the gate the caller runs the body once over every group
    let calls = Mutex::new(Vec::new());
    for_each_group(64, SPLIT_LANE_OPS - 1, |range| calls.lock().unwrap().push(range));
    assert_eq!(calls.into_inner().unwrap(), vec![0..64]);
}

#[test]
fn map_groups_reads_the_same_partials_split_or_not() {
    let _turn = serial();
    let fold = |lane_ops| {
        map_groups(
            37,
            lane_ops,
            |g| busy_work(g) ^ g as u64,
            |part| (0..37).map(part).fold(0u64, |a, p| a.wrapping_mul(3).wrapping_add(p)),
        )
    };
    let serial = fold(0);
    for _ in 0..1000 {
        assert_eq!(fold(SPLIT_LANE_OPS), serial);
    }
    // a fold over a range equals the in-order join of its groups
    let xor = |range: std::ops::Range<usize>| {
        range.map(|g| busy_work(g) << (g % 7)).fold(0, |a, p| a ^ p)
    };
    let whole = fold_groups(37, 0, xor, |a, b| a ^ b);
    for _ in 0..1000 {
        assert_eq!(fold_groups(37, SPLIT_LANE_OPS, xor, |a, b| a ^ b), whole);
    }
}

/// Decrements a running-participant count when its group ends, also by
/// unwinding.
struct Running<'a>(&'a AtomicUsize);

impl<'a> Running<'a> {
    fn enter(count: &'a AtomicUsize) -> Running<'a> {
        count.fetch_add(1, Ordering::SeqCst);
        Running(count)
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A panic in a group a helper runs reaches the caller once every
/// participant has stopped, and the pool keeps working afterwards.
#[test]
fn helper_panic_reaches_the_caller_after_all_stop() {
    let _turn = serial();
    if host_workers() < 2 {
        return; // no helpers: every group runs on the caller
    }
    let caller = thread::current().id();
    let (running, helper_in) = (AtomicUsize::new(0), AtomicBool::new(false));
    let hits = counters(64);
    for _ in 0..20 {
        helper_in.store(false, Ordering::SeqCst);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            for_each_group(8, SPLIT_LANE_OPS, |_| {
                let _running = Running::enter(&running);
                if thread::current().id() != caller {
                    helper_in.store(true, Ordering::SeqCst);
                    panic!("group panicked on a helper");
                }
                // the caller's group holds until a helper has joined, so
                // a helper is certain to run one of the groups
                let deadline = Instant::now() + Duration::from_secs(10);
                while !helper_in.load(Ordering::SeqCst) {
                    assert!(Instant::now() < deadline, "no helper joined the dispatch");
                    std::hint::spin_loop();
                }
            });
        }))
        .expect_err("the helper's panic must reach the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"group panicked on a helper"));
        assert_eq!(running.load(Ordering::SeqCst), 0, "a participant was still running");
        dispatch_once(64, &hits);
    }
}

/// A panic in a group the caller runs unwinds only after the helpers
/// have finished their groups.
#[test]
fn caller_panic_waits_for_the_helpers() {
    let _turn = serial();
    let running = AtomicUsize::new(0);
    let hits = counters(64);
    for _ in 0..20 {
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            for_each_group(64, SPLIT_LANE_OPS, |range| {
                let _running = Running::enter(&running);
                for g in range {
                    busy_work(g);
                    if g == 40 {
                        panic!("group 40");
                    }
                }
            });
        }));
        assert!(err.is_err());
        assert_eq!(running.load(Ordering::SeqCst), 0, "a participant was still running");
        dispatch_once(64, &hits);
    }
}

#[test]
fn concurrent_and_nested_dispatches_complete() {
    let _turn = serial();
    // two threads dispatch at once: one holds the pool, the other finds
    // it busy and runs on its own thread
    let start = Barrier::new(2);
    thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let hits = counters(64);
                start.wait();
                for i in 0..2_000 {
                    dispatch_once(1 + i % 64, &hits);
                }
            });
        }
    });
    // a dispatch from inside a group finds the pool held and runs on the
    // participant that made it
    let inner = counters(16 * 16);
    for_each_group(16, SPLIT_LANE_OPS, |outer| {
        for g in outer {
            for_each_group(16, SPLIT_LANE_OPS, |range| {
                for h in range {
                    busy_work(h);
                    inner[g * 16 + h].fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert!(inner.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

//! The host worker pool: large PE-array sweeps run on every host core.
//!
//! The simulated machine's PE array is `p` independent lanes driven by one
//! broadcast stream, so at scale the simulator's host time is the sweep
//! over those lanes. A sweep is cut into 4096-lane *occupancy groups*
//! ([`GROUP_LANES`], one occupancy bit of an [`crate::ActiveMask`]); the
//! calling thread and up to `available_parallelism() - 1` parked helper
//! threads claim groups from one atomic counter until none are left.
//!
//! ## The gate
//!
//! A sweep is split only when its work, occupied groups × [`GROUP_LANES`]
//! × ops in the sweep, reaches [`SPLIT_LANE_OPS`], and it has at least two
//! groups. A sweep over packed flag words (flag logic, the clear of the
//! resolver's one-hot write, the response count) counts one op per
//! 64-lane word instead ([`word_work`]), so at 2²⁰ PEs it stays on the
//! caller, where it finishes in a few µs, sooner than a parked helper
//! wakes. A sweep's body takes a range of groups: split, each participant
//! runs it on one group at a time; below the gate the caller runs the same
//! body once over the whole range and no helper is spawned. With one
//! available CPU (for example under `taskset -c 0`) there are no helpers
//! and every sweep runs on its caller, which makes that the single-core
//! reference.
//!
//! ## The hand-off
//!
//! Helpers are spawned by the first dispatch that passes the gate and park
//! (`thread::park`) whenever no dispatch is open, so an idle simulator
//! burns no second core. A dispatch publishes its job, unparks the
//! helpers and starts claiming groups itself. When no group is left it
//! *withdraws* the job, so a helper that has not woken yet can no longer
//! join, and waits only for helpers that are running a group. The caller
//! never waits for a sleeping helper.
//!
//! A dispatch that finds the pool held, by another thread's sweep or
//! because it was made from inside a group, runs serially on its caller.
//! A group that panics on a helper is caught there; the panic is resumed
//! on the caller once every participant has stopped, and the helper keeps
//! serving later dispatches. After the first split dispatch nothing here
//! allocates.
//!
//! Helpers live for the rest of the process and are never joined: a
//! helper never unwinds (group panics are caught), so there is no result
//! to collect.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

use crate::bitmask::{ActiveMask, BITS_PER_WORD, OCC_GROUP_WORDS};

/// Lanes in one occupancy group, the unit of work a participant claims.
pub const GROUP_LANES: usize = OCC_GROUP_WORDS * BITS_PER_WORD;

/// The work (occupied groups × [`GROUP_LANES`] × ops in the sweep) at
/// which a sweep is split across the host workers.
///
/// Measured on a 2-core x86-64 VM: a parked helper starts its first group
/// a median 21–28 µs after a dispatch that follows 200 µs of idle (at
/// most 73 µs), and 17–18 µs after one that follows the previous
/// dispatch at once. 2¹⁸ lane-ops is roughly 40–110 µs of serial work
/// there (a compare sweep at the low end; a fused 22-op block or a
/// saturating sum near the top), so a split sweep lasts several wake-ups;
/// below it a helper would mostly arrive after the caller had finished.
pub const SPLIT_LANE_OPS: usize = 1 << 18;

/// The work a one-op sweep over the active lanes of `active` brings to
/// the gate: occupied groups × [`GROUP_LANES`]. A mask of one group is
/// never split, so its groups are not counted.
#[inline]
pub fn mask_work(active: &ActiveMask) -> usize {
    if active.groups() < 2 {
        return 0;
    }
    active.occupied_groups() * GROUP_LANES
}

/// The work a one-op sweep over the flag words of `active`'s occupied
/// groups brings to the gate: one op per 64-lane word, occupied groups ×
/// [`OCC_GROUP_WORDS`]. Flag logic, the one-hot write's clear and the
/// response count go through the gate with this measure, so they split
/// only from 2²⁴ lanes; a compare, which computes every lane before it
/// packs the flag words, counts its lanes ([`mask_work`]).
#[inline]
pub fn word_work(active: &ActiveMask) -> usize {
    mask_work(active) / BITS_PER_WORD
}

/// Threads that sweep the PE array: the calling thread plus the helpers,
/// `std::thread::available_parallelism()` (1 if it cannot be read).
pub fn host_workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `body` over the groups `0..groups`, covering each exactly once.
///
/// `lane_ops` is the sweep's work (see [`SPLIT_LANE_OPS`]). At or above
/// the gate the groups are shared with the parked helpers and `body` runs
/// on one group at a time (`g..g + 1`), in no fixed order; otherwise, or
/// when the pool is busy or has no helpers, the caller runs
/// `body(0..groups)`. A panic in any group is resumed on the caller after
/// every participant has stopped.
#[inline]
pub fn for_each_group(groups: usize, lane_ops: usize, body: impl Fn(Range<usize>) + Sync) {
    if !(splits(groups, lane_ops) && split(groups, &|g| body(g..g + 1))) {
        body(0..groups);
    }
}

/// Fold the groups `0..groups`: `map` reduces a range of groups to a
/// partial, `join` combines two partials.
///
/// Split like [`for_each_group`]: at or above the gate every group's
/// partial is computed by some participant and the caller joins them in
/// group order; otherwise the caller returns `map(0..groups)`. The two
/// agree when `map` of a range equals the in-order `join` of its groups'
/// partials, as for an associative fold over the lanes.
pub fn fold_groups(
    groups: usize,
    lane_ops: usize,
    map: impl Fn(Range<usize>) -> u64 + Sync,
    join: impl Fn(u64, u64) -> u64,
) -> u64 {
    if !splits(groups, lane_ops) {
        return map(0..groups);
    }
    fold_split(groups, lane_ops, &map, &join)
}

/// The split half of [`fold_groups`], out of line so that the serial call
/// inlines into the fold.
#[inline(never)]
fn fold_split(
    groups: usize,
    lane_ops: usize,
    map: &(dyn Fn(Range<usize>) -> u64 + Sync),
    join: &dyn Fn(u64, u64) -> u64,
) -> u64 {
    map_groups(
        groups,
        lane_ops,
        |g| map(g..g + 1),
        |part| (1..groups).fold(part(0), |acc, g| join(acc, part(g))),
    )
}

/// Map every group to a partial with `map`, then hand `reduce` an
/// accessor for the partial of group `g`.
///
/// Split like [`for_each_group`]: at or above the gate the partials are
/// computed by all participants into per-group slots before `reduce`
/// runs, and the accessor reads the slots; otherwise the accessor *is*
/// `map`, called by `reduce` on demand, so the serial path computes only
/// the partials `reduce` asks for, in its order. Either way `reduce` sees
/// the same values, so any combination it makes is identical on both
/// paths. The slots are this thread's and are reused: only a larger group
/// count than this thread has seen allocates.
pub fn map_groups<R>(
    groups: usize,
    lane_ops: usize,
    map: impl Fn(usize) -> u64 + Sync,
    reduce: impl FnOnce(&dyn Fn(usize) -> u64) -> R,
) -> R {
    if !splits(groups, lane_ops) {
        return reduce(&map);
    }
    let mut slots = SLOTS.take();
    if slots.len() < groups {
        slots.resize_with(groups, || AtomicU64::new(0));
    }
    // Relaxed: the slots are published to the caller by the dispatch's
    // own Release/Acquire pairing on `Pool::state` (see `split`).
    let filled = split(groups, &|g| slots[g].store(map(g), Ordering::Relaxed));
    let out = if filled { reduce(&|g| slots[g].load(Ordering::Relaxed)) } else { reduce(&map) };
    SLOTS.set(slots);
    out
}

thread_local! {
    /// Per-group partial slots of [`map_groups`], kept between calls.
    static SLOTS: Cell<Vec<AtomicU64>> = const { Cell::new(Vec::new()) };
}

/// Does a sweep of `groups` groups and `lane_ops` work pass the gate?
#[inline]
pub(crate) fn splits(groups: usize, lane_ops: usize) -> bool {
    groups >= 2 && lane_ops >= SPLIT_LANE_OPS
}

/// `Pool::state` layout: the low 32 bits count the helpers attached to
/// the open job, bit 32 says a job is open, and the bits above it number
/// the dispatch (its epoch), so a helper joins each dispatch at most once.
const ATTACHED: u64 = (1 << 32) - 1;
const OPEN: u64 = 1 << 32;
const EPOCH: u64 = 1 << 33;

/// `Pool::next` after a dispatch stops early: past any group count.
const STOP: usize = usize::MAX / 2;

/// A dispatch's job as helpers see it.
#[derive(Clone, Copy)]
struct Job {
    /// The group body, borrowed from the dispatching caller.
    body: &'static (dyn Fn(usize) + Sync),
    groups: usize,
}

/// The process-wide pool (see the module docs).
struct Pool {
    /// Held by the dispatch in flight.
    busy: AtomicBool,
    /// Epoch, open bit and attached-helper count (see [`ATTACHED`]).
    state: AtomicU64,
    /// The next group to claim.
    next: AtomicUsize,
    /// The open dispatch's job; read by a helper only once attached.
    job: Mutex<Option<Job>>,
    /// The first panic a helper caught during the current dispatch.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The helper threads, spawned by the first split dispatch.
    helpers: OnceLock<Vec<Thread>>,
    /// Helpers that have started running.
    started: AtomicUsize,
}

static POOL: Pool = Pool {
    busy: AtomicBool::new(false),
    state: AtomicU64::new(0),
    next: AtomicUsize::new(0),
    job: Mutex::new(None),
    panic: Mutex::new(None),
    helpers: OnceLock::new(),
    started: AtomicUsize::new(0),
};

/// Lock a pool mutex. No code panics while holding one and every update
/// leaves its value valid, so a poisoned lock is still usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spawn the helpers and wait until each is running, so a thread's
/// start-up (which allocates) is part of the first split dispatch.
fn spawn_helpers() -> Vec<Thread> {
    let helpers: Vec<Thread> = (1..host_workers())
        .filter_map(|i| {
            let helper = thread::Builder::new().name(format!("asc-pe-worker-{i}"));
            helper.spawn(|| serve(&POOL)).ok().map(|h| h.thread().clone())
        })
        .collect();
    while POOL.started.load(Ordering::Acquire) < helpers.len() {
        thread::yield_now();
    }
    helpers
}

/// A helper's life: join every dispatch it finds open, park otherwise.
fn serve(pool: &'static Pool) {
    pool.started.fetch_add(1, Ordering::Release);
    let mut joined = 0;
    loop {
        let s = pool.state.load(Ordering::Acquire);
        let epoch = s & !(OPEN | ATTACHED);
        if s & OPEN != 0 && epoch != joined {
            // Acquire pairs with the dispatch's Release opening the job:
            // the job slot, the counter and everything the caller wrote
            // before it are visible from here on.
            if pool
                .state
                .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                joined = epoch;
                let job = lock(&pool.job).expect("an open dispatch has a job");
                claim(pool, job, true);
                // Release pairs with the caller's Acquire wait: this
                // helper's writes happen before the dispatch returns.
                pool.state.fetch_sub(1, Ordering::Release);
            }
            continue;
        }
        thread::park();
    }
}

/// Claim and run groups until none are left. A helper catches a group's
/// panic, keeps the first payload for the caller and stops the dispatch;
/// on the caller a panic unwinds through [`Withdraw`].
fn claim(pool: &Pool, job: Job, helper: bool) {
    loop {
        let g = pool.next.fetch_add(1, Ordering::Relaxed);
        if g >= job.groups {
            return;
        }
        if !helper {
            (job.body)(g);
        } else if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (job.body)(g))) {
            pool.next.store(STOP, Ordering::Relaxed);
            lock(&pool.panic).get_or_insert(payload);
        }
    }
}

/// Releases the pool when the dispatch ends.
struct Lease(&'static Pool);

impl Drop for Lease {
    fn drop(&mut self) {
        self.0.busy.store(false, Ordering::Release);
    }
}

/// Ends a dispatch, on return or unwind: stops further claims, withdraws
/// the job so no helper can join it, and waits for the attached helpers
/// to finish their groups.
struct Withdraw(&'static Pool);

impl Drop for Withdraw {
    fn drop(&mut self) {
        let pool = self.0;
        pool.next.store(STOP, Ordering::Relaxed);
        pool.state.fetch_and(!OPEN, Ordering::Relaxed);
        let mut spins = 0u32;
        // Acquire pairs with each helper's Release detach.
        while pool.state.load(Ordering::Acquire) & ATTACHED != 0 {
            if spins < 1 << 10 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
        *lock(&pool.job) = None;
    }
}

/// Share `groups` runs of `body` with the helpers. Returns `false`, having
/// run nothing, when there are no helpers or the pool is busy.
fn split(groups: usize, body: &(dyn Fn(usize) + Sync)) -> bool {
    let pool = &POOL;
    let helpers = pool.helpers.get_or_init(spawn_helpers);
    if helpers.is_empty()
        || pool.busy.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_err()
    {
        return false;
    }
    let _lease = Lease(pool);
    // a payload left by a dispatch whose caller unwound first
    drop(lock(&pool.panic).take());
    // SAFETY: only the lifetime is extended. A helper dereferences `body`
    // only between attaching to this dispatch (possible only while the
    // job is open) and detaching, and `_withdraw` keeps this function from
    // returning, by value or by unwinding, until the job is closed and no
    // helper is attached; the slot is cleared before that. Every use of
    // the reference therefore falls within the borrow of `body`.
    let body = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    };
    let job = Job { body, groups };
    *lock(&pool.job) = Some(job);
    pool.next.store(0, Ordering::Relaxed);
    let epoch = (pool.state.load(Ordering::Relaxed) & !(OPEN | ATTACHED)).wrapping_add(EPOCH);
    let withdraw = Withdraw(pool);
    // Release: publishes the job slot, the counter and the caller's
    // writes to the helpers that attach (their Acquire CAS).
    pool.state.store(epoch | OPEN, Ordering::Release);
    for h in helpers {
        h.unpark();
    }
    claim(pool, job, false);
    drop(withdraw);
    if let Some(payload) = lock(&pool.panic).take() {
        panic::resume_unwind(payload);
    }
    true
}

//! The host worker pool: large PE-array sweeps run on every host core.
//!
//! The simulated machine's PE array is `p` independent lanes driven by one
//! broadcast stream, so at scale the simulator's host time is the sweep
//! over those lanes. A sweep is cut into 4096-lane *occupancy groups*
//! ([`GROUP_LANES`], one occupancy bit of an [`crate::ActiveMask`]),
//! shared by the calling thread and up to `available_parallelism() - 1`
//! parked helper threads, its *participants*.
//!
//! ## Home ranges
//!
//! Each participant owns a fixed share of every split sweep: the caller is
//! participant 0 and helper `i` is participant `i`, and of `k` =
//! [`host_workers`] participants, participant `p` owns groups `p·G/k ..
//! (p+1)·G/k` of a `G`-group sweep. It claims its own range front to back
//! and only then takes groups from the back of the other participants'
//! ranges, so a helper that has not woken yet costs nothing: the others
//! run its range. While every participant keeps up, consecutive sweeps
//! over the same groups hand each core the same lanes, whose planes are
//! still in that core's cache from the sweep before (a fused block's
//! planes at 2¹⁶ PEs fit in two cores' L2 caches, but not in one).
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
//! burns no second core. A dispatch deals the home ranges, publishes its
//! job, unparks the helpers and starts claiming groups itself. When no
//! group is left it *withdraws* the job, so a helper that has not woken
//! yet can no longer join, and waits only for helpers that are running a
//! group. The caller never waits for a sleeping helper.
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
/// dispatch at once. 2¹⁸ lane-ops is roughly 35–115 µs of serial work
/// there at the AVX-512 tier (on one core, `taskset -c 0`): 35–50 µs for
/// a compare, a fused 22-op block, a max or a saturating sum whose groups
/// each hold one sign; about 80 µs for the preload's column copy; 80–115
/// µs for a saturating sum whose groups hold both signs, which runs the
/// tile tree. So a split sweep lasts several wake-ups; below the gate a
/// helper would mostly arrive after the caller had finished.
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

/// The unclaimed groups of one split dispatch: a home range per
/// participant (see the module docs), which its owner claims front to back
/// and the other participants, once their own ranges are empty, from the
/// back.
pub(crate) struct Claims {
    homes: Box<[Home]>,
}

/// One participant's unclaimed groups `front..back`, packed as `back << 32
/// | front`, so that its owner and a thief claim by a compare-and-swap of
/// the same word and never take the same group. Aligned to its own cache
/// lines: the owner writes it once per group.
#[repr(align(128))]
struct Home(AtomicU64);

impl Claims {
    /// The claim state of `participants` participants, every range empty.
    pub(crate) fn new(participants: usize) -> Claims {
        Claims { homes: (0..participants.max(1)).map(|_| Home(AtomicU64::new(0))).collect() }
    }

    /// Deal the home ranges of a dispatch of `groups` groups: participant
    /// `p` of `k` owns `p·groups/k .. (p+1)·groups/k`.
    pub(crate) fn open(&self, groups: usize) {
        assert!(groups >> 32 == 0, "{groups} groups overflow a home range");
        let k = self.homes.len() as u64;
        let edge = |p: usize| p as u64 * groups as u64 / k;
        for (p, home) in self.homes.iter().enumerate() {
            home.0.store(edge(p + 1) << 32 | edge(p), Ordering::Relaxed);
        }
    }

    /// The next group for participant `p`: the front of its own range,
    /// else the back of the first non-empty range after it (cyclically),
    /// else `None`, and `None` from then on, as ranges only shrink.
    ///
    /// Relaxed: a group is handed out by a read-modify-write of its range,
    /// so exactly once; the ranges are dealt before the job is published
    /// and the groups' effects reach the caller through `Pool::state`.
    pub(crate) fn next(&self, p: usize) -> Option<usize> {
        let k = self.homes.len();
        self.take(p, true).or_else(|| (1..k).find_map(|i| self.take((p + i) % k, false)))
    }

    /// Take the front (`front`) or back group of participant `p`'s range.
    fn take(&self, p: usize, front: bool) -> Option<usize> {
        let home = &self.homes[p].0;
        let mut range = home.load(Ordering::Relaxed);
        loop {
            let (lo, hi) = (range & u64::from(u32::MAX), range >> 32);
            if lo >= hi {
                return None;
            }
            let (g, rest) = if front { (lo, range + 1) } else { (hi - 1, range - (1 << 32)) };
            match home.compare_exchange_weak(range, rest, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Some(g as usize),
                Err(now) => range = now,
            }
        }
    }

    /// Empty every range: no participant gets another group of this
    /// dispatch.
    pub(crate) fn stop(&self) {
        for home in &*self.homes {
            home.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A dispatch's job as helpers see it.
#[derive(Clone, Copy)]
struct Job {
    /// The group body, borrowed from the dispatching caller.
    body: &'static (dyn Fn(usize) + Sync),
    /// The home ranges, dealt for this dispatch.
    claims: &'static Claims,
}

/// The process-wide pool (see the module docs).
struct Pool {
    /// Held by the dispatch in flight.
    busy: AtomicBool,
    /// Epoch, open bit and attached-helper count (see [`ATTACHED`]).
    state: AtomicU64,
    /// The open dispatch's job; read by a helper only once attached.
    job: Mutex<Option<Job>>,
    /// The first panic a helper caught during the current dispatch.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The helpers and the home ranges, made by the first split dispatch.
    crew: OnceLock<Crew>,
    /// Helpers that have started running.
    started: AtomicUsize,
}

/// The helper threads, helper `i` at index `i - 1`, and the claim state of
/// every participant, helpers that failed to spawn included.
struct Crew {
    helpers: Vec<Thread>,
    claims: Claims,
}

static POOL: Pool = Pool {
    busy: AtomicBool::new(false),
    state: AtomicU64::new(0),
    job: Mutex::new(None),
    panic: Mutex::new(None),
    crew: OnceLock::new(),
    started: AtomicUsize::new(0),
};

/// Lock a pool mutex. No code panics while holding one and every update
/// leaves its value valid, so a poisoned lock is still usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spawn helpers `1..host_workers()`, each told its participant index, and
/// wait until each is running, so a thread's start-up (which allocates) is
/// part of the first split dispatch. A helper that fails to spawn keeps
/// its home range, which the others then run, as for one that never wakes.
fn spawn_helpers() -> Crew {
    let participants = host_workers();
    let helpers: Vec<Thread> = (1..participants)
        .filter_map(|p| {
            let helper = thread::Builder::new().name(format!("asc-pe-worker-{p}"));
            helper.spawn(move || serve(&POOL, p)).ok().map(|h| h.thread().clone())
        })
        .collect();
    while POOL.started.load(Ordering::Acquire) < helpers.len() {
        thread::yield_now();
    }
    Crew { helpers, claims: Claims::new(participants) }
}

/// Helper `p`'s life: join every dispatch it finds open, park otherwise.
fn serve(pool: &'static Pool, p: usize) {
    pool.started.fetch_add(1, Ordering::Release);
    let mut joined = 0;
    loop {
        let s = pool.state.load(Ordering::Acquire);
        let epoch = s & !(OPEN | ATTACHED);
        if s & OPEN != 0 && epoch != joined {
            // Acquire pairs with the dispatch's Release opening the job:
            // the job slot, the home ranges and everything the caller
            // wrote before it are visible from here on.
            if pool
                .state
                .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                joined = epoch;
                let job = lock(&pool.job).expect("an open dispatch has a job");
                claim(pool, job, p);
                // Release pairs with the caller's Acquire wait: this
                // helper's writes happen before the dispatch returns.
                pool.state.fetch_sub(1, Ordering::Release);
            }
            continue;
        }
        thread::park();
    }
}

/// Claim and run groups as participant `p` until none are left. A helper
/// catches a group's panic, keeps the first payload for the caller and
/// stops the dispatch; on the caller a panic unwinds through [`Withdraw`].
fn claim(pool: &Pool, job: Job, p: usize) {
    while let Some(g) = job.claims.next(p) {
        if p == 0 {
            (job.body)(g);
        } else if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (job.body)(g))) {
            job.claims.stop();
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
struct Withdraw(&'static Pool, &'static Claims);

impl Drop for Withdraw {
    fn drop(&mut self) {
        let Withdraw(pool, claims) = *self;
        claims.stop();
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
    let crew = pool.crew.get_or_init(spawn_helpers);
    if crew.helpers.is_empty()
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
    let job = Job { body, claims: &crew.claims };
    *lock(&pool.job) = Some(job);
    crew.claims.open(groups);
    let epoch = (pool.state.load(Ordering::Relaxed) & !(OPEN | ATTACHED)).wrapping_add(EPOCH);
    let withdraw = Withdraw(pool, &crew.claims);
    // Release: publishes the job slot, the home ranges and the caller's
    // writes to the helpers that attach (their Acquire CAS).
    pool.state.store(epoch | OPEN, Ordering::Release);
    for h in &crew.helpers {
        h.unpark();
    }
    claim(pool, job, 0);
    drop(withdraw);
    if let Some(payload) = lock(&pool.panic).take() {
        panic::resume_unwind(payload);
    }
    true
}

#[cfg(test)]
mod tests {
    use std::ops::Range;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::Claims;

    /// Participant `p`'s home range of a `groups`-group dispatch among `k`.
    fn home(p: usize, k: usize, groups: usize) -> Range<usize> {
        p * groups / k..(p + 1) * groups / k
    }

    /// Seeded random interleavings of single claims, stopped at a random
    /// claim in half of them: every group is claimed once, an owner claims
    /// its own range front to back, a participant steals only once its own
    /// range is empty and only from the back of another, and after a stop
    /// nobody gets a group.
    #[test]
    fn claims_follow_the_home_ranges_in_any_interleaving() {
        for k in [1, 2, 3, 4, 8] {
            for groups in [1, 2, 3, 16, 65, 256] {
                let claims = Claims::new(k);
                for seed in 0..64u64 {
                    let mut rng =
                        StdRng::seed_from_u64(seed << 16 | (k as u64) << 10 | groups as u64);
                    let stop_at = (seed % 2 == 1).then(|| rng.random_range(0..=groups));
                    let case = format!("k {k}, {groups} groups, seed {seed}");
                    claims.open(groups);
                    let mut owner = vec![None; groups];
                    let (mut own, mut live) = (vec![0; k], (0..k).collect::<Vec<_>>());
                    let mut taken = 0;
                    let mut stopped = false;
                    while !live.is_empty() {
                        if stop_at == Some(taken) {
                            claims.stop();
                            stopped = true;
                            break;
                        }
                        let i = rng.random_range(0..live.len());
                        let p = live[i];
                        let Some(g) = claims.next(p) else {
                            assert_eq!(taken, groups, "{case}: participant {p} ran dry early");
                            live.swap_remove(i);
                            continue;
                        };
                        assert!(owner[g].replace(p).is_none(), "{case}: group {g} claimed twice");
                        taken += 1;
                        let mine = home(p, k, groups);
                        if mine.contains(&g) {
                            assert_eq!(g, mine.start + own[p], "{case}: owner {p} out of order");
                            own[p] += 1;
                        } else {
                            assert!(
                                mine.clone().all(|h| owner[h].is_some()),
                                "{case}: {p} stole group {g} before its own range was empty"
                            );
                            let q = (0..k).find(|&q| home(q, k, groups).contains(&g)).unwrap();
                            assert!(
                                (g + 1..home(q, k, groups).end).all(|h| owner[h].is_some()),
                                "{case}: {p} stole group {g} from inside {q}'s range"
                            );
                        }
                    }
                    if stopped {
                        for p in 0..k {
                            assert_eq!(claims.next(p), None, "{case}: a claim after the stop");
                        }
                    } else {
                        assert!(owner.iter().all(Option::is_some), "{case}: a group unclaimed");
                    }
                }
            }
        }
    }

    /// A participant alone runs its own range, then each other range from
    /// the back, starting with the next participant's.
    #[test]
    fn a_lone_participant_takes_every_range() {
        let claims = Claims::new(3);
        claims.open(7);
        let order: Vec<usize> = std::iter::from_fn(|| claims.next(1)).collect();
        assert_eq!(order, [2, 3, 6, 5, 4, 1, 0]);
        // a reopened dispatch deals fresh ranges
        claims.open(2);
        assert_eq!(claims.next(2), Some(1));
        assert_eq!(claims.next(2), Some(0));
        assert_eq!(claims.next(0), None);
    }
}

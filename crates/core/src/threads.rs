//! The thread status table: per-thread PC, run state and earliest next
//! issue cycle. "Each thread's instruction buffer, PC, and state are
//! recorded in a data structure called the thread status table, which is
//! shared between the fetch unit and the decode unit."

/// Run state of one hardware thread context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Context is unallocated.
    Free,
    /// Thread has a PC and may issue when its hazards clear.
    Runnable,
    /// Blocked in `tjoin` until the named thread's context is released.
    WaitingJoin(usize),
}

/// One row of the thread status table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thread {
    /// Run state.
    pub state: ThreadState,
    /// Program counter (instruction address).
    pub pc: u32,
    /// Earliest cycle at which this thread may issue its next instruction
    /// (branch bubbles, spawn latency, switch penalties).
    pub next_issue: u64,
}

/// The thread status table.
#[derive(Debug, Clone)]
pub struct ThreadTable {
    rows: Vec<Thread>,
    /// Ids of the non-[`ThreadState::Free`] contexts, ascending, written
    /// out twice in a row: the live contexts in rotating order from any
    /// start are then one contiguous slice. Contexts only enter and leave
    /// liveness through [`ThreadTable::alloc`] and
    /// [`ThreadTable::release`], which rebuild it; the scheduler and fetch
    /// unit scan it instead of every context slot (most of the 16 slots
    /// are free in single-threaded programs, and the scan runs every
    /// simulated cycle).
    ring: Vec<usize>,
    /// `start[from]`: where in `ring` the rotation from context `from`
    /// begins — the position of the first live id ≥ `from`, or of the
    /// second copy's first id when there is none.
    start: Vec<usize>,
}

impl ThreadTable {
    /// Create with `n` contexts; thread 0 starts runnable at PC 0, the
    /// rest are free. Sized for all `n` live, so neither spawning nor
    /// exiting allocates.
    pub fn new(n: usize) -> ThreadTable {
        assert!(n >= 1);
        let mut rows = vec![Thread { state: ThreadState::Free, pc: 0, next_issue: 0 }; n];
        rows[0].state = ThreadState::Runnable;
        let mut t = ThreadTable { rows, ring: Vec::with_capacity(2 * n), start: vec![0; n] };
        t.index_live();
        t
    }

    /// Rebuild `ring` and `start` from the rows' states.
    fn index_live(&mut self) {
        let rows = &self.rows;
        self.ring.clear();
        self.ring.extend((0..rows.len()).filter(|&t| rows[t].state != ThreadState::Free));
        let live = self.ring.len();
        self.ring.extend_from_within(..);
        let mut at = live;
        for from in (0..rows.len()).rev() {
            if rows[from].state != ThreadState::Free {
                at -= 1;
            }
            self.start[from] = at;
        }
    }

    /// Number of contexts.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Always at least one context.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Borrow one row.
    pub fn get(&self, tid: usize) -> &Thread {
        &self.rows[tid]
    }

    /// Mutably borrow one row.
    pub fn get_mut(&mut self, tid: usize) -> &mut Thread {
        &mut self.rows[tid]
    }

    /// Allocate a free context, set it runnable at `pc`, first issue no
    /// earlier than `ready_at`. Returns the thread id, or `None` if all
    /// contexts are in use. Contexts are allocated lowest-index-first
    /// (deterministic).
    pub fn alloc(&mut self, pc: u32, ready_at: u64) -> Option<usize> {
        let tid = self.rows.iter().position(|t| t.state == ThreadState::Free)?;
        self.rows[tid] = Thread { state: ThreadState::Runnable, pc, next_issue: ready_at };
        self.index_live();
        Some(tid)
    }

    /// Release a context (`texit`), waking any joiners: `woken` is called
    /// with each woken thread's id, in ascending order (so the caller can
    /// trace the wakeups without a list being built).
    pub fn release(&mut self, tid: usize, mut woken: impl FnMut(usize)) {
        self.rows[tid].state = ThreadState::Free;
        for (i, row) in self.rows.iter_mut().enumerate() {
            if row.state == ThreadState::WaitingJoin(tid) {
                row.state = ThreadState::Runnable;
                woken(i);
            }
        }
        self.index_live();
    }

    /// True if any context is runnable or waiting.
    pub fn any_live(&self) -> bool {
        self.live_count() != 0
    }

    /// Number of live (runnable or waiting) contexts. The block-fusion
    /// engine only fuses while exactly one thread is live: a second live
    /// thread could interleave issues into the middle of a block and
    /// observe (or disturb) its batched effects out of order.
    pub fn live_count(&self) -> usize {
        self.ring.len() / 2
    }

    /// True if at least one thread is runnable (not free, not join-blocked).
    pub fn any_runnable(&self) -> bool {
        self.rotation_live(0).any(|t| self.rows[t].state == ThreadState::Runnable)
    }

    /// Iterate thread ids in rotating-priority order starting at `from`.
    pub fn rotation(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        let n = self.rows.len();
        (0..n).map(move |i| (from + i) % n)
    }

    /// Iterate the *live* thread ids in rotating-priority order starting
    /// at `from` — the same ids [`ThreadTable::rotation`] would visit,
    /// minus the free slots, which can neither issue nor fetch. This is
    /// what the per-cycle scheduler/fetch scans walk: one slice, found
    /// without a search. `from` is a context id (below
    /// [`ThreadTable::len`]).
    pub fn rotation_live(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        let at = self.start[from];
        self.ring[at..at + self.live_count()].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state() {
        let t = ThreadTable::new(4);
        assert_eq!(t.get(0).state, ThreadState::Runnable);
        assert_eq!(t.get(1).state, ThreadState::Free);
        assert!(t.any_live());
        assert!(t.any_runnable());
    }

    #[test]
    fn alloc_release_cycle() {
        let mut t = ThreadTable::new(3);
        let a = t.alloc(10, 5).unwrap();
        assert_eq!(a, 1);
        assert_eq!(t.get(1).pc, 10);
        assert_eq!(t.get(1).next_issue, 5);
        let b = t.alloc(20, 0).unwrap();
        assert_eq!(b, 2);
        assert_eq!(t.alloc(30, 0), None, "exhausted");
        t.release(1, |_| {});
        assert_eq!(t.alloc(40, 0), Some(1), "reuses freed context");
    }

    fn release(t: &mut ThreadTable, tid: usize) -> Vec<usize> {
        let mut woken = Vec::new();
        t.release(tid, |w| woken.push(w));
        woken
    }

    #[test]
    fn join_wakeup() {
        let mut t = ThreadTable::new(3);
        let worker = t.alloc(5, 0).unwrap();
        t.get_mut(0).state = ThreadState::WaitingJoin(worker);
        assert!(!t.get(0).state.eq(&ThreadState::Runnable));
        let woken = release(&mut t, worker);
        assert_eq!(t.get(0).state, ThreadState::Runnable);
        assert_eq!(woken, vec![0], "joiner reported woken");
        assert_eq!(release(&mut t, 2), Vec::<usize>::new(), "no joiners, nobody woken");
    }

    #[test]
    fn rotation_order() {
        let t = ThreadTable::new(4);
        let order: Vec<usize> = t.rotation(2).collect();
        assert_eq!(order, vec![2, 3, 0, 1]);
    }

    /// The live rotation is the full rotation minus the free slots, from
    /// every start, through spawns and exits in any order.
    #[test]
    fn live_rotation_skips_free_slots_from_every_start() {
        let mut t = ThreadTable::new(6);
        let check = |t: &ThreadTable| {
            for from in 0..t.len() {
                let want: Vec<usize> =
                    t.rotation(from).filter(|&i| t.get(i).state != ThreadState::Free).collect();
                assert_eq!(t.rotation_live(from).collect::<Vec<_>>(), want, "from {from}");
                assert_eq!(t.live_count(), want.len());
            }
        };
        check(&t);
        for _ in 0..5 {
            t.alloc(0, 0).unwrap();
            check(&t);
        }
        for tid in [3, 0, 5, 1] {
            t.release(tid, |_| {});
            check(&t);
        }
        t.alloc(0, 0).unwrap();
        check(&t);
        t.release(0, |_| {});
        t.release(2, |_| {});
        t.release(4, |_| {});
        check(&t);
        assert!(!t.any_live());
        assert_eq!(t.rotation_live(3).count(), 0);
    }
}

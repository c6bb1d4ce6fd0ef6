//! The instruction status table ("maintained by the scheduler ... used by
//! the decode unit to detect hazards"): for every architectural register of
//! every thread, the first cycle at which its latest in-flight writer's
//! value can be consumed (through forwarding, or via the register file when
//! forwarding is disabled), and the pipeline class of that writer (needed
//! to classify a stall as a reduction hazard vs. an ordinary data hazard).
//!
//! The scheduler queries it for every live thread every cycle, for the
//! operands the thread's next issue-table entry lists (`crate::issue`),
//! and records an entry's destinations when it issues.

use asc_isa::{InstrClass, Operand, RegClass};

const FILES: usize = 4;
const REGS: usize = 16; // flags use the first 8 slots

fn file_index(class: RegClass) -> usize {
    match class {
        RegClass::SGpr => 0,
        RegClass::SFlag => 1,
        RegClass::PGpr => 2,
        RegClass::PFlag => 3,
    }
}

/// Sentinel "no in-flight producer" PC (cycle-0-ready entries).
pub const NO_PRODUCER_PC: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry {
    ready: u64,
    producer: InstrClass,
    /// PC of the in-flight writer (profiler "waiting on" attribution).
    producer_pc: u32,
}

impl Default for Entry {
    fn default() -> Self {
        Entry { ready: 0, producer: InstrClass::Scalar, producer_pc: NO_PRODUCER_PC }
    }
}

/// Per-thread register readiness tracking.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    entries: Vec<[[Entry; REGS]; FILES]>,
}

impl Scoreboard {
    /// Allocate for `threads` hardware threads; everything ready at cycle
    /// 0.
    pub fn new(threads: usize) -> Scoreboard {
        Scoreboard { entries: vec![[[Entry::default(); REGS]; FILES]; threads] }
    }

    /// First cycle at which `op` of `thread` may be consumed.
    pub fn ready_time(&self, thread: usize, op: Operand) -> u64 {
        self.entries[thread][file_index(op.class)][op.index as usize].ready
    }

    /// Pipeline class of the latest writer of `op`.
    pub fn producer_class(&self, thread: usize, op: Operand) -> InstrClass {
        self.entries[thread][file_index(op.class)][op.index as usize].producer
    }

    /// PC of the latest in-flight writer of `op` ([`NO_PRODUCER_PC`] when
    /// nothing has written it since the thread context was cleared).
    pub fn producer_pc(&self, thread: usize, op: Operand) -> u32 {
        self.entries[thread][file_index(op.class)][op.index as usize].producer_pc
    }

    /// Record that `op` of `thread` will be produced (forward-ready) at the
    /// end of `ready`, by an instruction of class `producer` at `pc`.
    pub fn record_write(
        &mut self,
        thread: usize,
        op: Operand,
        ready: u64,
        producer: InstrClass,
        pc: u32,
    ) {
        self.entries[thread][file_index(op.class)][op.index as usize] =
            Entry { ready, producer, producer_pc: pc };
    }

    /// Clear a thread's entries (context reallocation).
    pub fn clear_thread(&mut self, thread: usize) {
        self.entries[thread] = [[Entry::default(); REGS]; FILES];
    }

    /// Number of `thread`'s registers whose in-flight writer has not yet
    /// produced its value at cycle `now` — a per-thread measure of
    /// outstanding work, sampled by observability tooling.
    pub fn pending_writes(&self, thread: usize, now: u64) -> usize {
        self.entries[thread].iter().flat_map(|file| file.iter()).filter(|e| e.ready > now).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_isa::{PFlag, PReg, SReg};

    #[test]
    fn tracks_per_thread_per_file() {
        let mut sb = Scoreboard::new(2);
        let s1 = Operand::s(SReg::from_index(1));
        let p1 = Operand::p(PReg::from_index(1));
        sb.record_write(0, s1, 10, InstrClass::Reduction, 7);
        sb.record_write(1, s1, 20, InstrClass::Scalar, 8);
        sb.record_write(0, p1, 30, InstrClass::Parallel, 9);
        assert_eq!(sb.ready_time(0, s1), 10);
        assert_eq!(sb.producer_class(0, s1), InstrClass::Reduction);
        assert_eq!(sb.producer_pc(0, s1), 7);
        assert_eq!(sb.producer_pc(0, p1), 9);
        assert_eq!(sb.producer_pc(1, p1), NO_PRODUCER_PC);
        assert_eq!(sb.ready_time(1, s1), 20);
        assert_eq!(sb.ready_time(0, p1), 30);
        // same index, different file
        assert_eq!(sb.ready_time(0, Operand::pf(PFlag::from_index(1))), 0);
    }

    #[test]
    fn pending_writes_counts_in_flight() {
        let mut sb = Scoreboard::new(2);
        let s1 = Operand::s(SReg::from_index(1));
        let p1 = Operand::p(PReg::from_index(1));
        assert_eq!(sb.pending_writes(0, 0), 0);
        sb.record_write(0, s1, 10, InstrClass::Reduction, 7);
        sb.record_write(0, p1, 5, InstrClass::Parallel, 2);
        assert_eq!(sb.pending_writes(0, 0), 2);
        assert_eq!(sb.pending_writes(0, 5), 1, "p1 produced at end of 5");
        assert_eq!(sb.pending_writes(0, 10), 0);
        assert_eq!(sb.pending_writes(1, 0), 0, "other thread unaffected");
    }

    #[test]
    fn clear_thread_resets() {
        let mut sb = Scoreboard::new(2);
        let s1 = Operand::s(SReg::from_index(1));
        sb.record_write(0, s1, 99, InstrClass::Reduction, 3);
        sb.clear_thread(0);
        assert_eq!(sb.ready_time(0, s1), 0);
        assert_eq!(sb.producer_class(0, s1), InstrClass::Scalar);
        assert_eq!(sb.producer_pc(0, s1), NO_PRODUCER_PC);
    }
}

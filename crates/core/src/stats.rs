//! Execution statistics: issue counts by class and thread, and a stall
//! breakdown by hazard type — the quantities the paper's argument is about.
//!
//! `Stats` is the struct-of-counters view; [`Stats::to_registry`] exposes
//! the same quantities (plus derived gauges and histograms) as a named
//! [`Registry`], the canonical machine-readable form behind run reports
//! and `/metrics`. [`Stats::report`] prints the text report straight from
//! the fields; a test checks every number it prints against the registry
//! entry of the same name.

use asc_isa::InstrClass;
use std::fmt::{self, Write as _};

use crate::obs::{Histogram, Registry};

/// Inclusive upper bucket edges for stall-span histograms (how long each
/// contiguous stall lasted, in cycles).
pub const SPAN_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Inclusive upper bucket edges for network queue-depth histograms
/// (in-flight operations sampled at each issue).
pub const DEPTH_BUCKETS: [u64; 6] = [0, 1, 2, 4, 8, 16];

/// The longest [`Stats::report`]: a header of five 20-digit counters and
/// an IPC of up to 24 characters (about 190 bytes), and ten stall lines
/// of at most 59 bytes.
const REPORT_CAPACITY: usize = 192 + 60 * StallReason::ALL.len();

/// Why an issue slot went empty (or a particular thread could not issue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// Waiting on a scalar→scalar or parallel→parallel dependency (load
    /// delay, multiplier latency, WAW interlock, ...).
    DataHazard,
    /// Parallel instruction waiting on a scalar producer (only load-use
    /// variants survive the EX→B1 forwarding path).
    BroadcastHazard,
    /// Scalar instruction waiting on a reduction result — the b+r stall of
    /// Figure 2 (middle).
    ReductionHazard,
    /// Parallel instruction waiting on a reduction result — Figure 2
    /// (bottom).
    BroadcastReductionHazard,
    /// Sequential multiplier/divider busy (structural hazard).
    Structural,
    /// Branch resolution bubble.
    BranchBubble,
    /// Blocked in `tjoin`.
    WaitJoin,
    /// Thread context is unallocated or has no instruction to run.
    NoThread,
    /// Coarse-grain thread-switch penalty.
    SwitchPenalty,
    /// Instruction buffer empty (finite fetch model only).
    FetchEmpty,
}

impl StallReason {
    /// All reasons, for table rendering.
    pub const ALL: [StallReason; 10] = [
        StallReason::DataHazard,
        StallReason::BroadcastHazard,
        StallReason::ReductionHazard,
        StallReason::BroadcastReductionHazard,
        StallReason::Structural,
        StallReason::BranchBubble,
        StallReason::WaitJoin,
        StallReason::NoThread,
        StallReason::SwitchPenalty,
        StallReason::FetchEmpty,
    ];

    /// Dense index for counters.
    pub const fn index(self) -> usize {
        match self {
            StallReason::DataHazard => 0,
            StallReason::BroadcastHazard => 1,
            StallReason::ReductionHazard => 2,
            StallReason::BroadcastReductionHazard => 3,
            StallReason::Structural => 4,
            StallReason::BranchBubble => 5,
            StallReason::WaitJoin => 6,
            StallReason::NoThread => 7,
            StallReason::SwitchPenalty => 8,
            StallReason::FetchEmpty => 9,
        }
    }

    /// Human-readable label.
    pub const fn label(self) -> &'static str {
        match self {
            StallReason::DataHazard => "data hazard",
            StallReason::BroadcastHazard => "broadcast hazard",
            StallReason::ReductionHazard => "reduction hazard",
            StallReason::BroadcastReductionHazard => "broadcast-reduction hazard",
            StallReason::Structural => "structural (mul/div)",
            StallReason::BranchBubble => "branch bubble",
            StallReason::WaitJoin => "join wait",
            StallReason::NoThread => "no live thread",
            StallReason::SwitchPenalty => "thread-switch penalty",
            StallReason::FetchEmpty => "fetch buffer empty",
        }
    }
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Counters accumulated during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total cycles simulated (to the last writeback).
    pub cycles: u64,
    /// Cycles in which an instruction issued.
    pub issued: u64,
    /// Issued instructions by pipeline class (scalar/parallel/reduction).
    pub issued_by_class: [u64; 3],
    /// Issued instructions per hardware thread.
    pub issued_by_thread: Vec<u64>,
    /// Cycles in which no instruction issued.
    pub stall_cycles: u64,
    /// Stall cycles by the reason of the highest-priority blocked thread.
    pub stalls: [u64; 10],
    /// Cycle of the last writeback (pipeline drain).
    pub last_writeback: u64,
    /// Thread switches (meaningful under coarse-grain scheduling).
    pub thread_switches: u64,
    /// Distribution of contiguous stall-span lengths, one histogram per
    /// [`StallReason`] (indexed by [`StallReason::index`]).
    pub stall_spans: Vec<Histogram>,
    /// In-flight broadcast-tree operations, sampled at each issue of a
    /// parallel or reduction instruction.
    pub broadcast_depth: Histogram,
    /// In-flight reduction-tree operations, sampled at each issue of a
    /// reduction instruction.
    pub reduction_depth: Histogram,
}

impl Stats {
    /// Allocate for `threads` hardware threads.
    pub fn new(threads: usize) -> Stats {
        Stats {
            issued_by_thread: vec![0; threads],
            stall_spans: StallReason::ALL
                .iter()
                .map(|_| Histogram::from_static(&SPAN_BUCKETS))
                .collect(),
            broadcast_depth: Histogram::from_static(&DEPTH_BUCKETS),
            reduction_depth: Histogram::from_static(&DEPTH_BUCKETS),
            ..Stats::default()
        }
    }

    /// Record an issue.
    pub fn record_issue(&mut self, thread: usize, class: InstrClass) {
        self.issued += 1;
        self.issued_by_thread[thread] += 1;
        let idx = match class {
            InstrClass::Scalar => 0,
            InstrClass::Parallel => 1,
            InstrClass::Reduction => 2,
        };
        self.issued_by_class[idx] += 1;
    }

    /// Record a contiguous span of `n` stall cycles attributed to `reason`.
    pub fn record_stall(&mut self, reason: StallReason, n: u64) {
        self.stall_cycles += n;
        self.stalls[reason.index()] += n;
        if let Some(h) = self.stall_spans.get_mut(reason.index()) {
            h.record(n);
        }
    }

    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issued as f64 / self.cycles as f64
        }
    }

    /// Stall cycles attributed to a reason.
    pub fn stalls_for(&self, reason: StallReason) -> u64 {
        self.stalls[reason.index()]
    }

    /// Export every counter as a named metric, plus derived gauges
    /// (IPC, per-thread issue-slot utilization) and the span/depth
    /// histograms. The registry is the canonical machine-readable form:
    /// [`crate::obs::RunReport`] renders from it.
    pub fn to_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.counter_add("cycles", self.cycles);
        reg.counter_add("issued", self.issued);
        reg.counter_add("issued.scalar", self.issued_by_class[0]);
        reg.counter_add("issued.parallel", self.issued_by_class[1]);
        reg.counter_add("issued.reduction", self.issued_by_class[2]);
        reg.gauge_set("ipc", self.ipc());
        for (t, &n) in self.issued_by_thread.iter().enumerate() {
            reg.counter_add(&format!("issued.thread.{t}"), n);
        }
        for (t, &n) in self.issued_by_thread.iter().enumerate() {
            let util = if self.cycles == 0 { 0.0 } else { n as f64 / self.cycles as f64 };
            reg.gauge_set(&format!("util.thread.{t}"), util);
        }
        reg.counter_add("stall_cycles", self.stall_cycles);
        for reason in StallReason::ALL {
            reg.counter_add(&format!("stall.{}", reason.label()), self.stalls_for(reason));
        }
        for reason in StallReason::ALL {
            if let Some(h) = self.stall_spans.get(reason.index()) {
                reg.histogram_set(&format!("stall_span.{}", reason.label()), h.clone());
            }
        }
        reg.histogram_set("queue_depth.broadcast", self.broadcast_depth.clone());
        reg.histogram_set("queue_depth.reduction", self.reduction_depth.clone());
        reg.counter_add("last_writeback", self.last_writeback);
        reg.counter_add("thread_switches", self.thread_switches);
        reg
    }

    /// Issue-slot utilization report, one line per non-zero reason. Each
    /// number is the [`Stats::to_registry`] metric of the same name
    /// (`cycles`, `issued.*`, `ipc`, `stall.<reason>`), read from the
    /// fields directly; the one allocation is the returned string.
    pub fn report(&self) -> String {
        let mut out = String::with_capacity(REPORT_CAPACITY);
        let _ = writeln!(
            out,
            "cycles: {}  issued: {} (scalar {}, parallel {}, reduction {})  IPC: {:.3}",
            self.cycles,
            self.issued,
            self.issued_by_class[0],
            self.issued_by_class[1],
            self.issued_by_class[2],
            self.ipc()
        );
        for reason in StallReason::ALL {
            let n = self.stalls_for(reason);
            if n > 0 {
                let _ = writeln!(out, "  stalls[{}]: {n}", reason.label());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; 10];
        for r in StallReason::ALL {
            assert!(!seen[r.index()]);
            seen[r.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ipc_and_report() {
        let mut s = Stats::new(2);
        s.cycles = 10;
        s.record_issue(0, InstrClass::Scalar);
        s.record_issue(1, InstrClass::Reduction);
        s.record_stall(StallReason::ReductionHazard, 6);
        assert!((s.ipc() - 0.2).abs() < 1e-12);
        assert_eq!(s.issued_by_thread, vec![1, 1]);
        assert_eq!(s.stalls_for(StallReason::ReductionHazard), 6);
        let rep = s.report();
        assert!(rep.contains("reduction hazard"));
        assert!(rep.contains("IPC: 0.200"));
    }

    #[test]
    fn zero_cycles_ipc() {
        assert_eq!(Stats::new(1).ipc(), 0.0);
    }

    #[test]
    fn all_ordering_matches_index() {
        // `ALL[i].index() == i` for every variant — table renderers index
        // `stalls`/`stall_spans` by position in ALL, so the two orderings
        // must never drift apart.
        for (i, reason) in StallReason::ALL.iter().enumerate() {
            assert_eq!(reason.index(), i, "{reason} out of place in StallReason::ALL");
        }
        assert_eq!(StallReason::ALL.len(), 10);
    }

    #[test]
    fn registry_mirrors_counters() {
        let mut s = Stats::new(2);
        s.cycles = 10;
        s.record_issue(0, InstrClass::Scalar);
        s.record_issue(1, InstrClass::Reduction);
        s.record_stall(StallReason::ReductionHazard, 6);
        s.broadcast_depth.record(2);
        let reg = s.to_registry();
        assert_eq!(reg.counter("cycles"), 10);
        assert_eq!(reg.counter("issued"), 2);
        assert_eq!(reg.counter("issued.scalar"), 1);
        assert_eq!(reg.counter("issued.reduction"), 1);
        assert_eq!(reg.counter("issued.thread.1"), 1);
        assert_eq!(reg.counter("stall.reduction hazard"), 6);
        assert_eq!(reg.counter("stall.data hazard"), 0);
        assert_eq!(reg.gauge("ipc"), Some(0.2));
        assert_eq!(reg.gauge("util.thread.0"), Some(0.1));
        let span = reg.histogram("stall_span.reduction hazard").unwrap();
        assert_eq!((span.count(), span.sum(), span.max()), (1, 6, 6));
        assert_eq!(reg.histogram("queue_depth.broadcast").unwrap().count(), 1);
    }

    #[test]
    fn default_stats_report_is_well_formed() {
        // A Default-constructed Stats has no span histograms; report() and
        // to_registry() must still work (used by code that builds Stats
        // without knowing the thread count).
        let s = Stats::default();
        assert!(s.report().starts_with("cycles: 0"));
        assert!(s.to_registry().histogram("stall_span.data hazard").is_none());
    }
}

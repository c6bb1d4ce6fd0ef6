//! The machine's one observer hook. [`Observers`] owns the optional
//! consumers of a run — the trace sink, the cycle-attribution profiler and
//! the progress sampler — and has one method per event kind, which hands
//! the event to each consumer attached. `Machine` holds it as one
//! `Option<Box<Observers>>`: with nothing attached every emission site is
//! one `Option` check and builds nothing; with something attached the
//! [`TraceEvent`] is built here, once, only when a sink takes it.

use asc_isa::{Instr, InstrClass};
use asc_network::NetUnit;

use super::event::{SeqUnit, ThreadTransition, TraceEvent};
use super::profile::Profile;
use super::progress::{ProgressSample, ProgressSampler};
use super::trace::SinkHandle;
use crate::stats::{StallReason, Stats};
use crate::timing::Timing;

/// Where a stall span is charged: the blocked thread, the PC that could
/// not issue, and the PC of the in-flight producer it waits on
/// ([`crate::scoreboard::NO_PRODUCER_PC`] when there is none).
pub(crate) type StallSite = (usize, u32, u32);

/// The consumers attached to one machine (see the module docs). Cloning a
/// machine clones the profiler and the sampler and shares the sink.
#[derive(Debug, Clone)]
pub(crate) struct Observers {
    /// Broadcast-tree latency, stamped on broadcast network events.
    b: u64,
    /// Reduction-tree latency, stamped on reduction network events.
    r: u64,
    pub(crate) sink: Option<SinkHandle>,
    pub(crate) profiler: Option<Profile>,
    pub(crate) progress: Option<ProgressSampler>,
}

impl Observers {
    /// A hook with nothing attached, for a machine of timing `t`.
    pub(crate) fn new(t: &Timing) -> Observers {
        Observers { b: t.b, r: t.r, sink: None, profiler: None, progress: None }
    }

    /// True once every consumer is detached.
    pub(crate) fn is_empty(&self) -> bool {
        self.sink.is_none() && self.profiler.is_none() && self.progress.is_none()
    }

    /// `instr` issued from `thread` at `cycle` and retires (reaches WB)
    /// at `retire`; a parallel or reduction instruction also enters the
    /// broadcast tree. Ghost issues of fused blocks come through here
    /// too, so fused and unfused runs trace and attribute identically.
    pub(crate) fn issue(
        &mut self,
        cycle: u64,
        thread: usize,
        pc: u32,
        instr: &Instr,
        class: InstrClass,
        retire: u64,
    ) {
        let broadcast = class != InstrClass::Scalar;
        if let Some(p) = &mut self.profiler {
            p.record_issue(thread, pc);
            if broadcast {
                p.record_net(thread, pc);
            }
        }
        if let Some(sink) = &self.sink {
            let word = asc_isa::encode(instr);
            sink.emit(&TraceEvent::Issue { cycle, thread, pc, class, word });
            sink.emit(&TraceEvent::Retire { cycle: retire, thread, pc, class });
            if broadcast {
                let (unit, latency) = (NetUnit::Broadcast, self.b);
                sink.emit(&TraceEvent::NetOp { cycle, thread, unit, latency });
            }
        }
    }

    /// The issue slot went empty for `cycles` cycles from `cycle`,
    /// charged to `site`, or unattributed when no thread was blocked.
    pub(crate) fn stall(
        &mut self,
        cycle: u64,
        reason: StallReason,
        cycles: u64,
        site: Option<StallSite>,
    ) {
        if let Some(p) = &mut self.profiler {
            match site {
                Some((thread, pc, waiting_on)) => {
                    p.record_stall(thread, pc, reason, cycles, waiting_on)
                }
                None => p.record_unattributed(reason, cycles),
            }
        }
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::Stall { cycle, reason, cycles });
        }
    }

    /// A reduction by `(thread, pc)` entered `unit` at `cycle`.
    pub(crate) fn net_op(&mut self, cycle: u64, thread: usize, pc: u32, unit: NetUnit) {
        if let Some(p) = &mut self.profiler {
            p.record_net(thread, pc);
        }
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::NetOp { cycle, thread, unit, latency: self.r });
        }
    }

    /// `thread` changed run state at `cycle`.
    pub(crate) fn thread(&self, cycle: u64, thread: usize, transition: ThreadTransition) {
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::Thread { cycle, thread, transition });
        }
    }

    /// `thread` claimed a sequential `unit` from `cycle` for `busy_for`
    /// cycles.
    pub(crate) fn unit_busy(&self, cycle: u64, thread: usize, unit: SeqUnit, busy_for: u64) {
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::UnitBusy { cycle, thread, unit, busy_for });
        }
    }

    /// A scheduler step ended at `cycle`. Stall fast-forwarding can jump
    /// past the sampler's mark, so a due sample lands at the first step
    /// boundary at or after it.
    pub(crate) fn step_end(&mut self, cycle: u64, stats: &Stats, live_threads: usize) {
        if let Some(p) = &mut self.progress {
            if p.due(cycle) {
                p.push(sample(cycle, stats, live_threads, false));
            }
        }
    }

    /// A program of `prog_len` words was loaded: re-shape the profiler's
    /// rows for it (pre-sized here, so the record path never allocates).
    pub(crate) fn program_load(&mut self, threads: usize, prog_len: usize) {
        if let Some(p) = &mut self.profiler {
            *p = Profile::new(threads, prog_len);
        }
    }

    /// The run finished with `stats` (cycles counted through the drain):
    /// close the profiler's books, take the final sample and flush the
    /// sinks. Flushing is best-effort; file-backed sinks latch their own
    /// errors.
    pub(crate) fn run_end(&mut self, stats: &Stats, live_threads: usize) {
        if let Some(p) = &mut self.profiler {
            p.finalize(stats.cycles);
        }
        if let Some(p) = &mut self.progress {
            p.push(sample(stats.cycles, stats, live_threads, true));
            let _ = p.flush();
        }
        if let Some(sink) = &self.sink {
            let _ = sink.flush();
        }
    }
}

/// The run counters at `cycle`. Allocation-free: the sample is `Copy`,
/// and the sampler's ring is pre-sized.
fn sample(cycle: u64, stats: &Stats, live_threads: usize, final_sample: bool) -> ProgressSample {
    ProgressSample {
        cycle,
        issued: stats.issued,
        stall_cycles: stats.stall_cycles,
        stalls: stats.stalls,
        live_threads: live_threads as u32,
        every: 0, // stamped by the sampler on push
        final_sample,
    }
}

//! The traced run's split of `Machine::run` host time across layers,
//! measured from outside through the public `TraceSink` interface, and
//! the in-memory span log the traced rounds write out.
//!
//! The simulator emits `Issue` after it has executed the instruction and
//! `Stall` after it has scanned the blocked threads, so the host time
//! between two such events is the cost of the event that ends it. Each
//! interval goes to the class of that event: scalar and ghost issues to
//! the scheduler front end, fused-block leaders to the compiled tile
//! chains, other parallel issues to the instruction-major PE executor,
//! reductions to the network, and stalls to the front end's stall scan.

use std::rc::Rc;
use std::time::Instant;

use asc_core::obs::{Json, ThreadTransition, TraceEvent, TraceSink};
use asc_core::{fusible_runs, MachineConfig, MIN_BLOCK_LEN};
use asc_isa::InstrClass;

/// How a parallel-class issue executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelIssue {
    /// First instruction of a fused block: ran the whole block's compiled
    /// chain tile by tile.
    Leader,
    /// Later instruction of a fused block: timing only, no execution.
    Ghost,
    /// Executed on its own as one sweep over the array.
    InstrMajor,
}

/// Replays the simulator's fusion gate from the event stream: a parallel
/// issue leads a block when it starts a fusible run of at least
/// [`MIN_BLOCK_LEN`] instructions while exactly one thread is live, and
/// the block's remaining instructions are that thread's next issues. The
/// gate's cycle-budget condition always passes at the budgets used here.
pub struct FusionClassifier {
    run_len: Rc<[u32]>,
    ghosts: Vec<u32>,
    live: usize,
}

impl FusionClassifier {
    /// For every PC of `words`, the length of the fusible run starting
    /// there on a machine configured as `cfg` (all zero without fusion).
    pub fn run_lengths(words: &[u32], cfg: &MachineConfig) -> Rc<[u32]> {
        let mut run_len = vec![0u32; words.len()];
        if cfg.fusion {
            let imem: Vec<_> = words.iter().map(|&w| asc_isa::decode(w)).collect();
            for run in fusible_runs(&imem, cfg) {
                for k in 0..run.len {
                    run_len[(run.start + k) as usize] = run.len - k;
                }
            }
        }
        run_len.into()
    }

    /// A classifier for a fresh machine with `threads` contexts, of which
    /// only the boot thread is live.
    pub fn new(run_len: Rc<[u32]>, threads: usize) -> FusionClassifier {
        FusionClassifier { run_len, ghosts: vec![0; threads], live: 1 }
    }

    pub fn on_thread(&mut self, transition: ThreadTransition) {
        match transition {
            ThreadTransition::Spawned => self.live += 1,
            ThreadTransition::Exited => self.live -= 1,
            ThreadTransition::JoinWait { .. } | ThreadTransition::Woken => {}
        }
    }

    pub fn on_parallel(&mut self, thread: usize, pc: u32) -> ParallelIssue {
        if self.ghosts[thread] > 0 {
            self.ghosts[thread] -= 1;
            return ParallelIssue::Ghost;
        }
        let len = self.run_len.get(pc as usize).copied().unwrap_or(0);
        if len >= MIN_BLOCK_LEN && self.live == 1 {
            self.ghosts[thread] = len - 1;
            ParallelIssue::Leader
        } else {
            ParallelIssue::InstrMajor
        }
    }
}

/// Host seconds and event counts of one `Machine::run`, by layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunSplit {
    /// Front end: intervals ending at scalar and ghost issues.
    pub issue_s: f64,
    /// Front end: intervals ending at stall spans.
    pub stall_s: f64,
    /// PE array: instruction-major parallel issues.
    pub instr_major_s: f64,
    /// PE array: fused-block leaders (compiled tile chains).
    pub tile_chain_s: f64,
    /// Network: reduction issues.
    pub reduce_s: f64,
    pub scalar_issues: u64,
    pub ghost_issues: u64,
    pub instr_major_issues: u64,
    pub leaders: u64,
    pub reductions: u64,
    pub stall_events: u64,
}

impl RunSplit {
    pub fn attributed_s(&self) -> f64 {
        self.issue_s + self.stall_s + self.instr_major_s + self.tile_chain_s + self.reduce_s
    }

    /// Issues by class, in `Stats::issued_by_class` order.
    pub fn class_counts(&self) -> [u64; 3] {
        [
            self.scalar_issues,
            self.ghost_issues + self.leaders + self.instr_major_issues,
            self.reductions,
        ]
    }
}

/// The benchmark's trace sink: stamps the host clock at every issue and
/// stall and charges each interval to its layer.
pub struct LayerSink {
    classifier: FusionClassifier,
    last: Instant,
    pub split: RunSplit,
}

impl LayerSink {
    pub fn new(classifier: FusionClassifier) -> LayerSink {
        LayerSink { classifier, last: Instant::now(), split: RunSplit::default() }
    }

    /// Start the first interval; call immediately before `Machine::run`.
    pub fn start(&mut self) -> Instant {
        self.last = Instant::now();
        self.last
    }

    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        dt
    }
}

impl TraceSink for LayerSink {
    fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Issue { thread, pc, class, .. } => {
                let dt = self.lap();
                let s = &mut self.split;
                match class {
                    InstrClass::Scalar => {
                        s.issue_s += dt;
                        s.scalar_issues += 1;
                    }
                    InstrClass::Reduction => {
                        s.reduce_s += dt;
                        s.reductions += 1;
                    }
                    InstrClass::Parallel => match self.classifier.on_parallel(thread, pc) {
                        ParallelIssue::Ghost => {
                            s.issue_s += dt;
                            s.ghost_issues += 1;
                        }
                        ParallelIssue::Leader => {
                            s.tile_chain_s += dt;
                            s.leaders += 1;
                        }
                        ParallelIssue::InstrMajor => {
                            s.instr_major_s += dt;
                            s.instr_major_issues += 1;
                        }
                    },
                }
            }
            TraceEvent::Stall { .. } => {
                self.split.stall_s += self.lap();
                self.split.stall_events += 1;
            }
            TraceEvent::Thread { transition, .. } => self.classifier.on_thread(transition),
            _ => {}
        }
    }
}

/// Named sums over the traced ops of a round, in storage that adding a
/// key within the reserved capacity does not reallocate.
#[derive(Debug, Default, Clone)]
pub struct Tally(Vec<(&'static str, f64)>);

impl Tally {
    pub fn with_capacity(keys: usize) -> Tally {
        Tally(Vec::with_capacity(keys))
    }

    pub fn add(&mut self, key: &'static str, value: f64) {
        match self.0.iter_mut().find(|(k, _)| *k == key) {
            Some((_, sum)) => *sum += value,
            None => self.0.push((key, value)),
        }
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.iter().find(|(k, _)| *k == key).map_or(0.0, |&(_, sum)| sum)
    }

    pub fn merge(&mut self, other: &Tally) {
        for &(key, value) in &other.0 {
            self.add(key, value);
        }
    }
}

/// A span of one op, before it joins the log: `parent` indexes the op's
/// own spans.
struct PendingSpan {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    seconds: f64,
}

/// The spans of one traced op: a root span, then children.
#[derive(Default)]
pub struct OpTrace(Vec<PendingSpan>);

impl OpTrace {
    /// Record a span and return its index for children to name as parent.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        seconds: f64,
    ) -> usize {
        self.0.push(PendingSpan { name, parent, start, seconds });
        self.0.len() - 1
    }

    /// Children of `parent` that tile `[start, start + Σ seconds)` in
    /// order: layer totals aggregated over a run, which have no single
    /// start time of their own.
    pub fn aggregated(&mut self, parent: usize, start: Instant, parts: &[(&'static str, f64)]) {
        let mut at = start;
        for &(name, seconds) in parts {
            self.span(name, Some(parent), at, seconds);
            at += std::time::Duration::from_secs_f64(seconds.max(0.0));
        }
    }
}

/// Most spans one traced op records.
const MAX_SPANS_PER_OP: usize = 20;

/// A logged span: plain data, so logging one allocates nothing.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Every traced op's spans, kept in memory and written out at exit.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    ops: u64,
}

impl SpanLog {
    /// A log with room for `ops` ops' spans, so that appending them never
    /// reallocates it while ops run (see `harness::Round`).
    pub fn with_capacity(ops: usize) -> SpanLog {
        let spans = Vec::with_capacity(ops * MAX_SPANS_PER_OP);
        SpanLog { origin: Instant::now(), spans, ops: 0 }
    }

    pub fn append(&mut self, op: OpTrace) {
        let base = self.spans.len();
        let ns = |seconds: f64| (seconds.max(0.0) * 1e9).round() as u64;
        for s in op.0 {
            let start = s.start.saturating_duration_since(self.origin).as_secs_f64();
            self.spans.push(Span {
                name: s.name,
                parent: s.parent.map(|p| base + p),
                op: self.ops,
                start_ns: ns(start),
                dur_ns: ns(s.seconds),
            });
        }
        self.ops += 1;
    }

    pub fn into_json(self, header: Vec<(String, Json)>) -> Json {
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Json::Obj(vec![
                ("id".into(), Json::U64(id as u64)),
                ("parent".into(), s.parent.map_or(Json::Null, |p| Json::U64(p as u64))),
                ("op".into(), Json::U64(s.op)),
                ("name".into(), Json::str(s.name)),
                ("start_ns".into(), Json::U64(s.start_ns)),
                ("dur_ns".into(), Json::U64(s.dur_ns)),
            ])
        });
        let mut doc = header;
        doc.push(("spans".into(), Json::Arr(spans.collect())));
        Json::Obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use asc_core::obs::SinkHandle;
    use asc_core::Machine;

    use super::*;

    /// Run `src` with the layer sink attached; return the split, the
    /// stats and the fusion counters.
    fn traced(src: &str, cfg: MachineConfig) -> (RunSplit, asc_core::Stats, u64) {
        let program = asc_asm::assemble(src).expect("assembles");
        let run_len = FusionClassifier::run_lengths(&program.words(), &cfg);
        let sink =
            Rc::new(RefCell::new(LayerSink::new(FusionClassifier::new(run_len, cfg.threads))));
        let mut m = Machine::with_program(cfg, &program).expect("loads");
        m.attach_sink(SinkHandle::shared(sink.clone()));
        sink.borrow_mut().start();
        let stats = m.run(1_000_000).expect("runs");
        let split = sink.borrow().split;
        (split, stats, m.fusion_stats().blocks_executed)
    }

    const SINGLE: &str = "
        li     s1, 3
loop:   pidx   p1
        paddi  p2, p1, 5
        pxor   p3, p2, p1
        pclti  pf1, p3, 9
        rcount s2, pf1
        addi   s1, s1, -1
        cnei   f1, s1, 0
        bt     f1, loop
        halt
";

    /// The boot thread runs a fusible block while a spawned worker is
    /// live (no fusion), joins it, then runs the block alone (fused).
    const TWO_THREADS: &str = "
        li     s1, worker
        tspawn s2, s1
        pidx   p1
        paddi  p2, p1, 5
        pxor   p3, p2, p1
        tjoin  s2
        pidx   p1
        paddi  p2, p1, 5
        pxor   p3, p2, p1
        rsum   s3, p3
        halt
worker: pidx   p4
        paddi  p5, p4, 1
        pandi  p6, p5, 7
        texit
";

    #[test]
    fn leaders_match_fusion_stats_single_threaded() {
        let (split, stats, blocks) = traced(SINGLE, MachineConfig::new(64).single_threaded());
        assert_eq!(blocks, 3, "one block per loop iteration");
        assert_eq!(split.leaders, blocks);
        assert_eq!(split.ghost_issues, 3 * 3);
        assert_eq!(split.instr_major_issues, 0);
        assert_eq!(split.class_counts(), stats.issued_by_class);
    }

    #[test]
    fn leaders_match_fusion_stats_with_a_second_live_thread() {
        let (split, stats, blocks) = traced(TWO_THREADS, MachineConfig::new(64).with_threads(2));
        assert!(blocks >= 1, "the post-join block fuses");
        assert_eq!(split.leaders, blocks);
        assert!(split.instr_major_issues >= 3, "blocks overlapping the worker run unfused");
        assert_eq!(split.class_counts(), stats.issued_by_class);
    }

    #[test]
    fn without_fusion_every_parallel_issue_is_instruction_major() {
        let cfg = MachineConfig::new(64).single_threaded().without_fusion();
        let (split, stats, blocks) = traced(SINGLE, cfg);
        assert_eq!((blocks, split.leaders, split.ghost_issues), (0, 0, 0));
        assert_eq!(split.instr_major_issues, stats.issued_by_class[1]);
    }

    #[test]
    fn class_counts_sum_to_issued() {
        for (src, cfg) in [
            (SINGLE, MachineConfig::new(256).single_threaded()),
            (TWO_THREADS, MachineConfig::new(256)),
        ] {
            let (split, stats, _) = traced(src, cfg);
            assert_eq!(split.class_counts().iter().sum::<u64>(), stats.issued);
            assert_eq!(split.stall_events > 0, stats.stall_cycles > 0);
            assert!(split.attributed_s() > 0.0);
        }
    }

    #[test]
    fn aggregated_spans_tile_their_parent() {
        let t0 = Instant::now();
        let mut trace = OpTrace::default();
        let root = trace.span("run", None, t0, 3.0);
        trace.aggregated(root, t0, &[("a", 1.0), ("b", 2.0)]);
        let mut log = SpanLog { origin: t0, ..SpanLog::with_capacity(1) };
        log.append(trace);
        let doc = log.into_json(Vec::new());
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        let starts: Vec<u64> =
            spans.iter().map(|s| s.get("start_ns").and_then(Json::as_u64).unwrap()).collect();
        assert_eq!(starts, [0, 0, 1_000_000_000]);
        assert_eq!(spans[2].get("parent").and_then(Json::as_u64), Some(0));
    }
}

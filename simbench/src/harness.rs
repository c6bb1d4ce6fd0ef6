//! One workload end to end, in this process: set-up (inputs, and one
//! untimed reference run per input), a warm-up round, then measured
//! rounds of ops sent back to back by a single client (a closed loop).
//! Every op is checked against its reference; a failed check counts the
//! op as failed and the run goes on.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use asc_asm::Program;
use asc_core::obs::{
    Json, JsonLinesProgress, ProgressHandle, ProgressSampler, RunReport, SinkHandle,
};
use asc_core::{Machine, MachineConfig, Stats};
use asc_isa::Word;
use asc_obs_store::{
    config_fingerprint, program_hash, RunMeta, RunStore, HEARTBEAT_FILE, INDEX_FILE,
};

use crate::layers::{FusionClassifier, LayerSink, OpTrace, RunSplit, SpanLog, Tally};
use crate::probe::{self, Probe};
use crate::workloads::{self, InputSet, MachineWorkload, Readback, Workload};
use crate::{host, stats};

/// Cycle budget of every run (the `mtasc run` default).
const MAX_CYCLES: u64 = 100_000_000;

/// Ops per second of each workload (in [`workloads::NAMES`] order) on the
/// host the benchmark was sized on. A round's op count is its share of
/// `--seconds` at this rate, so the count, and with it the benchmark's
/// own memory, is the same on every run.
const NOMINAL_OPS_PER_S: [f64; 4] = [1800.0, 320.0, 40.0, 11000.0];

/// A round stops early, at the end of a pass over the inputs, once it
/// has taken this many times its share of `--seconds` (a host slowed by
/// its neighbours must not stretch a run without bound).
const MAX_STRETCH: f64 = 1.5;

/// Largest share of `Machine::run` the traced split may leave
/// unattributed.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// `(name, unit)` of every end-to-end metric, as listed in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("lane_ops_per_s", "lane-ops/s"),
    ("peak_rss_mb", "MiB"),
];

/// Stall-cycle metric names, in `StallReason::ALL` order.
const STALL_KEYS: [&str; 10] = [
    "sim.stall.data_hazard_cycles",
    "sim.stall.broadcast_hazard_cycles",
    "sim.stall.reduction_hazard_cycles",
    "sim.stall.broadcast_reduction_hazard_cycles",
    "sim.stall.structural_cycles",
    "sim.stall.branch_bubble_cycles",
    "sim.stall.wait_join_cycles",
    "sim.stall.no_thread_cycles",
    "sim.stall.switch_penalty_cycles",
    "sim.stall.fetch_empty_cycles",
];

/// `(name, unit)` of every per-layer metric, as listed in BENCHMARK.json.
/// Times and counts are per op.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("core.sched.issue_s", "s"),
    ("core.sched.stall_s", "s"),
    ("core.sched.scalar_issues", "count"),
    ("core.sched.ghost_issues", "count"),
    ("core.sched.stall_events", "count"),
    ("core.sched.ns_per_issue", "ns"),
    ("pe.instr_major_s", "s"),
    ("pe.instr_major_issues", "count"),
    ("pe.ns_per_lane_op", "ns"),
    ("pe.tile_chain_s", "s"),
    ("pe.blocks_executed", "count"),
    ("pe.tile_chains", "count"),
    ("pe.fused_fraction", "ratio"),
    ("pe.preload_s", "s"),
    ("pe.committed_bytes", "bytes"),
    ("network.reduce_s", "s"),
    ("network.reductions", "count"),
    ("network.ns_per_lane", "ns"),
    ("asm.assemble_s", "s"),
    ("asm.words", "count"),
    ("core.load_s", "s"),
    ("core.fusion.static_blocks", "count"),
    ("core.fusion.compiled_ops", "count"),
    ("core.fusion.simd_ops", "count"),
    ("core.run_s", "s"),
    ("core.run.unattributed_s", "s"),
    ("core.readback_s", "s"),
    ("obs.report_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("obs_store.begin_s", "s"),
    ("obs_store.finish_s", "s"),
    ("obs_store.bytes_written", "bytes"),
    ("cli.unattributed_s", "s"),
    ("sim.cycles", "cycles"),
    ("sim.issued", "count"),
    ("sim.ipc", "ratio"),
    (STALL_KEYS[0], "cycles"),
    (STALL_KEYS[1], "cycles"),
    (STALL_KEYS[2], "cycles"),
    (STALL_KEYS[3], "cycles"),
    (STALL_KEYS[4], "cycles"),
    (STALL_KEYS[5], "cycles"),
    (STALL_KEYS[6], "cycles"),
    (STALL_KEYS[7], "cycles"),
    (STALL_KEYS[8], "cycles"),
    (STALL_KEYS[9], "cycles"),
];

pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The per-round values `value` is the median of (traced runs; an
    /// untraced run measures one round).
    pub rounds: Vec<f64>,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed self-checks of the traced split.
    pub check_failures: u64,
    pub metrics: Vec<Metric>,
    pub fingerprint: Vec<(String, Json)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures == 0
    }
}

/// Where trace files and the CLI workload's programs and registries go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// How long a round runs: `ops` ops, unless `max_seconds` of wall time
/// pass first, in which case it ends with the current pass over the
/// inputs.
#[derive(Clone, Copy)]
struct Budget {
    ops: usize,
    max_seconds: f64,
}

/// A budget of `ops` ops meant to take `seconds`, raised to at least
/// `min_ops` and to whole passes over `inputs` inputs.
fn budget_of(inputs: usize, ops: f64, min_ops: usize, seconds: f64) -> Budget {
    let ops = (ops.ceil() as usize).max(min_ops);
    Budget { ops: ops.div_ceil(inputs) * inputs, max_seconds: MAX_STRETCH * seconds }
}

/// The rounds of a run, warm-up first, each with whether it is traced:
/// untraced, one measured round of `seconds`; traced, two untraced rounds
/// each followed by a traced one. Op counts are a round's share of
/// `seconds` at the nominal rate; every round but the warm-up has enough
/// ops for a p90.
fn plan(index: usize, inputs: usize, settings: &Settings) -> Vec<(Budget, bool)> {
    let s = settings.seconds;
    let rate = NOMINAL_OPS_PER_S[index];
    let round = |seconds: f64| budget_of(inputs, rate * seconds, stats::MIN_P90_SAMPLES, seconds);
    let mut plan = vec![(budget_of(inputs, rate * s / 10.0, 1, s / 10.0), false)];
    if settings.trace {
        // each untraced round is followed by a traced one an eighth its
        // size: a traced CLI op also replays the recorded registry path
        let untraced = round(s / 5.0);
        let ops = untraced.ops as f64 / 8.0;
        let traced = budget_of(inputs, ops, stats::MIN_P90_SAMPLES, s / 10.0);
        for _ in 0..2 {
            plan.extend([(untraced, false), (traced, true)]);
        }
    } else {
        plan.push((round(s), false));
    }
    plan
}

/// Run workload `name` as `settings` asks and report its metrics.
pub fn measure(name: &str, settings: &Settings) -> Result<Report, String> {
    let index = workloads::index(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let plan = plan(index, workloads::inputs(index), settings);
    // all of the run's own storage, before set-up touches the heap
    let storage: Vec<Round> = plan.iter().map(|&(b, _)| Round::with_capacity(b.ops)).collect();
    let traced_ops = plan.iter().filter(|&&(_, traced)| traced).map(|(b, _)| b.ops).sum();
    let mut spans = SpanLog::with_capacity(traced_ops);
    let mut rounds = Vec::with_capacity(plan.len());

    let mut bench = Bench::new(name, settings.seed, workloads::INPUT_SETS)?;
    for ((budget, traced), r) in plan.into_iter().zip(storage) {
        rounds.push(bench.round(budget, r, traced.then_some(&mut spans)));
    }
    let (attempted, failed) =
        rounds.iter().fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    let measured = &rounds[1..];
    let metrics = if settings.trace {
        bench.traced_metrics(measured)?
    } else {
        bench.end_to_end_metrics(&measured[0])?
    };
    let ops_per_round: Vec<u64> = measured.iter().map(|r| r.attempted).collect();
    let mut fingerprint = bench.fingerprint(settings.seed, &ops_per_round);
    let probe_s = measured.iter().map(|r| {
        let times: Vec<f64> = r.probes.iter().map(|&(_, s)| s).collect();
        Json::F64(stats::median(&times).expect("a round ends with a probe"))
    });
    fingerprint.push(("probe_s".into(), Json::Arr(probe_s.collect())));
    if settings.trace {
        let path = out_dir().join(format!("trace-{name}.json"));
        let mut header = vec![("workload".to_string(), Json::str(name))];
        header.extend(fingerprint.iter().cloned());
        std::fs::write(&path, spans.into_json(header).to_compact())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        fingerprint.push(("trace_file".into(), Json::str(path.display().to_string())));
    }
    Ok(Report { attempted, failed, check_failures: bench.check_failures, metrics, fingerprint })
}

/// One tiny untraced and one tiny traced round, for `--smoke`. Returns
/// `(attempted, failed, failed self-checks)`.
pub fn smoke(name: &str, seed: u64) -> Result<(u64, u64, u64), String> {
    let mut bench = Bench::new(name, seed, 2)?;
    let one_pass = Budget { ops: bench.inputs, max_seconds: f64::INFINITY };
    let mut spans = SpanLog::with_capacity(one_pass.ops);
    let untraced = bench.round(one_pass, Round::with_capacity(one_pass.ops), None);
    let traced = bench.round(one_pass, Round::with_capacity(one_pass.ops), Some(&mut spans));
    bench.check_unattributed(&traced);
    Ok((
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
        bench.check_failures,
    ))
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

fn lane_ops(stats: &Stats, num_pes: usize) -> u64 {
    (stats.issued_by_class[1] + stats.issued_by_class[2]) * num_pes as u64
}

/// The configuration `mtasc run` uses with no machine flags.
fn cli_config() -> MachineConfig {
    asc_cli::MachineOpts::default().config()
}

/// An untimed run of one input under the most conservative execution
/// strategy: no fusion, no SIMD, one segment.
struct Reference {
    stats: Stats,
    digest: u64,
}

fn preload(m: &mut Machine, input: &InputSet) -> Result<(), String> {
    for (row, column) in &input.columns {
        m.array_mut().scatter_column(*row, column).map_err(|e| format!("preload: {e:?}"))?;
    }
    for &(addr, value) in &input.smem {
        m.smem_mut().write(addr, value).map_err(|e| format!("preload: {e:?}"))?;
    }
    Ok(())
}

fn read_answer(m: &Machine, readback: &Readback) -> Result<Vec<Word>, String> {
    let mut answer = Vec::new();
    for addr in readback.smem.clone() {
        answer.push(m.smem().read(addr).map_err(|e| format!("readback: {e:?}"))?);
    }
    if let Some(row) = readback.column {
        answer.extend(m.array().gather_column(row).map_err(|e| format!("readback: {e:?}"))?);
    }
    Ok(answer)
}

fn reference(
    w: &MachineWorkload,
    program: &Program,
    input: &InputSet,
) -> Result<Reference, String> {
    let cfg = w.cfg.without_fusion().without_simd().with_segments(1);
    let mut m = Machine::with_program(cfg, program).map_err(|e| e.to_string())?;
    preload(&mut m, input)?;
    let stats = m.run(MAX_CYCLES).map_err(|e| format!("reference run: {e}"))?;
    Ok(Reference { stats, digest: m.arch_digest() })
}

/// One of the CLI workload's programs, written to disk, with the output
/// and statistics of its reference run.
struct CliProgram {
    source: String,
    path: String,
    output: String,
    stats: Stats,
    run_len: Rc<[u32]>,
}

impl CliProgram {
    fn new(dir: &Path, index: usize, source: String) -> Result<CliProgram, String> {
        let path = dir.join(format!("prog{index:02}.asc"));
        std::fs::write(&path, &source).map_err(|e| format!("{}: {e}", path.display()))?;
        let opts = asc_cli::MachineOpts {
            fusion: false,
            simd: false,
            segments: 1,
            ..asc_cli::MachineOpts::default()
        };
        let ref_cfg = opts.config();
        let output = asc_cli::cmd_run(&source, opts).map_err(|e| format!("reference run: {e}"))?;
        let program = asc_asm::assemble(&source).map_err(|e| asc_asm::render_errors(&e))?;
        let stats = Machine::with_program(ref_cfg, &program)
            .and_then(|mut m| m.run(MAX_CYCLES))
            .map_err(|e| format!("reference run: {e}"))?;
        let run_len = FusionClassifier::run_lengths(&program.words(), &cli_config());
        Ok(CliProgram { source, path: path.display().to_string(), output, stats, run_len })
    }
}

enum Kind {
    Machine { w: MachineWorkload, refs: Vec<Reference>, run_len: Rc<[u32]> },
    Cli { progs: Vec<CliProgram>, dir: PathBuf },
}

/// What one round measured.
///
/// Every round's storage is allocated when the run starts, before set-up,
/// and never grows. The cost of building a machine depends on the state
/// of the heap: glibc serves even large requests from free chunks before
/// it maps fresh memory. A reused chunk must be cleared, while fresh pages
/// fault in on first write. Bookkeeping that grew during the run moved
/// fleet set-up between 52 and 97 µs from one round to the next, and
/// million-PE set-up between 2.4 and 5.2 ms.
#[derive(Default)]
struct Round {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    /// Per op: simulated cycles per run-phase second.
    cycle_rate: Vec<f64>,
    /// Per op: lane operations per run-phase second.
    lane_rate: Vec<f64>,
    /// Per op: `(start, end)`, in seconds since the round began.
    spans: Vec<(f64, f64)>,
    /// Per probe: `(start, seconds)`, in seconds since the round began.
    probes: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    /// Sums over the round's traced ops.
    layers: Tally,
}

impl Round {
    fn with_capacity(ops: usize) -> Round {
        let samples = || Vec::with_capacity(ops);
        Round {
            setup_s: samples(),
            run_s: samples(),
            cycle_rate: samples(),
            lane_rate: samples(),
            spans: Vec::with_capacity(ops),
            // at most one before each op, and one at the end
            probes: Vec::with_capacity(ops + 1),
            layers: Tally::with_capacity(PER_LAYER.len() + 2),
            ..Round::default()
        }
    }
}

/// What one op measured.
#[derive(Default)]
struct Op {
    setup_s: f64,
    run_s: f64,
    failure: Option<String>,
    cycles: u64,
    lane_ops: u64,
    layers: Tally,
    checks: Vec<String>,
    trace: OpTrace,
}

impl Op {
    fn failed(mut self, why: String) -> Op {
        self.failure = Some(why);
        self
    }

    /// Record a traced `Machine::run` of a `words`-word program: its span,
    /// split into aggregated layer spans, plus the layer counters and the
    /// split's self-checks.
    fn record_run(
        &mut self,
        parent: usize,
        m: &Machine,
        words: usize,
        split: RunSplit,
        start: Instant,
        run_s: f64,
    ) {
        let stats = m.stats();
        let unattributed = run_s - split.attributed_s();
        let run = self.trace.span("core.run", Some(parent), start, run_s);
        self.trace.aggregated(
            run,
            start,
            &[
                ("core.sched.issue", split.issue_s),
                ("core.sched.stall", split.stall_s),
                ("pe.instr_major", split.instr_major_s),
                ("pe.tile_chain", split.tile_chain_s),
                ("network.reduce", split.reduce_s),
                ("core.run.unattributed", unattributed),
            ],
        );
        let fusion = m.fusion_stats();
        let counts = [
            ("core.run_s", run_s),
            ("core.run.unattributed_s", unattributed),
            ("core.sched.issue_s", split.issue_s),
            ("core.sched.stall_s", split.stall_s),
            ("pe.instr_major_s", split.instr_major_s),
            ("pe.tile_chain_s", split.tile_chain_s),
            ("network.reduce_s", split.reduce_s),
            ("core.sched.scalar_issues", split.scalar_issues as f64),
            ("core.sched.ghost_issues", split.ghost_issues as f64),
            ("core.sched.stall_events", split.stall_events as f64),
            ("pe.instr_major_issues", split.instr_major_issues as f64),
            ("network.reductions", split.reductions as f64),
            ("pe.blocks_executed", fusion.blocks_executed as f64),
            ("pe.tile_chains", fusion.tile_chains as f64),
            ("pe.instrs_fused", fusion.instrs_fused as f64),
            ("core.fusion.static_blocks", fusion.static_blocks as f64),
            ("core.fusion.compiled_ops", fusion.compiled_ops as f64),
            ("core.fusion.simd_ops", fusion.simd_ops as f64),
            ("asm.words", words as f64),
            ("pe.committed_bytes", m.array().committed_bytes() as f64),
            ("sim.cycles", stats.cycles as f64),
            ("sim.issued", stats.issued as f64),
        ];
        for (key, value) in counts {
            self.layers.add(key, value);
        }
        for (key, &cycles) in STALL_KEYS.iter().zip(&stats.stalls) {
            self.layers.add(key, cycles as f64);
        }
        if split.class_counts() != stats.issued_by_class {
            self.checks.push(format!(
                "sink class counts {:?} != Stats::issued_by_class {:?}",
                split.class_counts(),
                stats.issued_by_class
            ));
        }
        if split.leaders != fusion.blocks_executed {
            self.checks.push(format!(
                "fused leaders {} != blocks_executed {}",
                split.leaders, fusion.blocks_executed
            ));
        }
    }
}

fn attach_layer_sink(m: &mut Machine, run_len: &Rc<[u32]>) -> Rc<RefCell<LayerSink>> {
    let classifier = FusionClassifier::new(run_len.clone(), m.config().threads);
    let sink = Rc::new(RefCell::new(LayerSink::new(classifier)));
    m.attach_sink(SinkHandle::shared(sink.clone()));
    sink
}

/// Set-up through run-phase of one machine-workload op: assemble, load,
/// preload (set-up), then run and read back (run phase).
fn machine_op(
    w: &MachineWorkload,
    set: usize,
    reference: &Reference,
    trace: Option<&Rc<[u32]>>,
    check_digest: bool,
) -> Op {
    let input = &w.inputs[set];
    let op = Op::default();
    let t0 = Instant::now();
    let program = match asc_asm::assemble(&w.source) {
        Ok(p) => p,
        Err(e) => return op.failed(asc_asm::render_errors(&e)),
    };
    let t_asm = Instant::now();
    let mut m = match Machine::with_program(w.cfg, &program) {
        Ok(m) => m,
        Err(e) => return op.failed(e.to_string()),
    };
    let t_load = Instant::now();
    if let Err(e) = preload(&mut m, input) {
        return op.failed(e);
    }
    let t_pre = Instant::now();
    let sink = trace.map(|run_len| attach_layer_sink(&mut m, run_len));
    let t_run = match &sink {
        Some(s) => s.borrow_mut().start(),
        None => Instant::now(),
    };
    let result = m.run(MAX_CYCLES);
    let t_read = Instant::now();
    let answer = read_answer(&m, &w.readback);
    let t_end = Instant::now();
    black_box(&answer);

    let mut op = Op { setup_s: secs(t0, t_pre), run_s: secs(t_run, t_end), ..op };
    let stats = match result {
        Ok(s) => s,
        Err(e) => return op.failed(format!("run: {e}")),
    };
    if stats != reference.stats {
        return op.failed("Stats differ from the reference run".into());
    }
    match answer {
        Err(e) => return op.failed(e),
        Ok(a) if a != input.expected => {
            return op.failed("answer differs from the host model".into())
        }
        Ok(_) => {}
    }
    if check_digest && m.arch_digest() != reference.digest {
        return op.failed("arch_digest differs from the reference run".into());
    }
    op.cycles = stats.cycles;
    op.lane_ops = lane_ops(&stats, w.cfg.num_pes);

    if let Some(sink) = sink {
        let split = sink.borrow().split;
        let root = op.trace.span("op", None, t0, secs(t0, t_end));
        let setup = op.trace.span("setup", Some(root), t0, op.setup_s);
        let parts = [
            ("asm.assemble", "asm.assemble_s", t0, t_asm),
            ("core.load", "core.load_s", t_asm, t_load),
            ("pe.preload", "pe.preload_s", t_load, t_pre),
        ];
        for (span, key, from, to) in parts {
            op.trace.span(span, Some(setup), from, secs(from, to));
            op.layers.add(key, secs(from, to));
        }
        let words = program.words().len();
        op.record_run(root, &m, words, split, t_run, secs(t_run, t_read));
        op.trace.span("core.readback", Some(root), t_read, secs(t_read, t_end));
        op.layers.add("core.readback_s", secs(t_read, t_end));
    }
    op
}

/// One CLI-workload op: a separately timed assemble and load of the
/// source (set-up), then `mtasc run <file> --no-record` through
/// `asc_cli::dispatch` (run phase). Recording is off in the timed op
/// because creating a registry run directory costs 0.15 to 1.7 ms on
/// the host's shared disk, varying minute to minute; traced ops replay
/// the recorded path into `registry` instead, and run the program once
/// more under the layer sink.
fn cli_op(p: &CliProgram, registry: &Path, traced: bool) -> Op {
    let cfg = cli_config();
    let op = Op::default();
    let t0 = Instant::now();
    let program = match asc_asm::assemble(&p.source) {
        Ok(p) => p,
        Err(e) => return op.failed(asc_asm::render_errors(&e)),
    };
    let t_asm = Instant::now();
    let m = match Machine::with_program(cfg, &program) {
        Ok(m) => m,
        Err(e) => return op.failed(e.to_string()),
    };
    let t_load = Instant::now();
    drop(black_box(m));
    let args = vec!["run".to_string(), p.path.clone(), "--no-record".to_string()];
    let t_run = Instant::now();
    let output = asc_cli::dispatch(args);
    let t_end = Instant::now();

    let mut op = Op { setup_s: secs(t0, t_load), run_s: secs(t_run, t_end), ..op };
    match output {
        Err(e) => return op.failed(format!("dispatch: {e}")),
        Ok(text) if text != p.output => {
            return op.failed("output differs from the reference run".into())
        }
        Ok(_) => {}
    }
    op.cycles = p.stats.cycles;
    op.lane_ops = lane_ops(&p.stats, cfg.num_pes);
    if !traced {
        return op;
    }

    let root = op.trace.span("op", None, t0, secs(t0, t_end));
    let setup = op.trace.span("setup", Some(root), t0, op.setup_s);
    op.trace.span("asm.assemble", Some(setup), t0, secs(t0, t_asm));
    op.trace.span("core.load", Some(setup), t_asm, secs(t_asm, t_load));
    op.layers.add("asm.assemble_s", secs(t0, t_asm));
    op.layers.add("core.load_s", secs(t_asm, t_load));
    op.trace.span("cli.dispatch", Some(root), t_run, op.run_s);
    if let Err(e) = replay(p, registry, &mut op, root) {
        op.checks.push(format!("replay: {e}"));
    }

    let mut m = match Machine::with_program(cfg, &program) {
        Ok(m) => m,
        Err(e) => return op.failed(e.to_string()),
    };
    let sink = attach_layer_sink(&mut m, &p.run_len);
    let start = sink.borrow_mut().start();
    let result = m.run(MAX_CYCLES);
    let run_s = start.elapsed().as_secs_f64();
    match result {
        Ok(stats) if stats == p.stats => {
            let split = sink.borrow().split;
            op.record_run(root, &m, program.words().len(), split, start, run_s);
        }
        Ok(_) => return op.failed("traced run: Stats differ from the reference run".into()),
        Err(e) => return op.failed(format!("traced run: {e}")),
    }
    op
}

/// Replay, on the same source, the public calls a recorded `mtasc run`
/// makes, timing each. What the op's unrecorded `dispatch` spent beyond
/// assemble, load and run is the CLI's own share (argument parsing, file
/// read, output formatting).
fn replay(p: &CliProgram, registry: &Path, op: &mut Op, parent: usize) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let index_len = || std::fs::metadata(registry.join(INDEX_FILE)).map_or(0, |m| m.len());
    let index_before = index_len();

    let t0 = Instant::now();
    let program = asc_asm::assemble(&p.source).map_err(|e| asc_asm::render_errors(&e))?;
    let t1 = Instant::now();
    let cfg = cli_config();
    let mut m = Machine::with_program(cfg, &program).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let store = RunStore::open(registry).map_err(io)?;
    let fingerprint = config_fingerprint(&RunReport::from_machine(&m).machine);
    let meta =
        RunMeta::begin("run", &p.path, program_hash(&p.source), fingerprint, cfg.num_pes as u64);
    let mut rec = store.begin(meta).map_err(io)?;
    let heartbeat = rec.artifact_path(HEARTBEAT_FILE).display().to_string();
    let heartbeat = JsonLinesProgress::create(&heartbeat).map_err(io)?;
    // 1024 samples: the ring size `mtasc run` uses
    let sampler = ProgressSampler::new(asc_cli::DEFAULT_PROGRESS_EVERY, 1024)
        .with_sink(ProgressHandle::new(heartbeat));
    m.attach_progress(sampler);
    let t3 = Instant::now();
    let stats = m.run(MAX_CYCLES).map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    let report = RunReport::from_machine(&m).to_json().to_pretty();
    std::fs::write(rec.artifact_path("report.json"), report).map_err(io)?;
    let t5 = Instant::now();
    rec.add_artifact("report.json");
    rec.add_artifact(HEARTBEAT_FILE);
    let dir = rec.dir();
    rec.finish_ok(stats.cycles, stats.issued).map_err(io)?;
    let t6 = Instant::now();

    let mut bytes = index_len().saturating_sub(index_before);
    for entry in std::fs::read_dir(&dir).map_err(io)? {
        bytes += entry.and_then(|e| e.metadata()).map_err(io)?.len();
    }
    let dispatch_s = op.run_s;
    let replay = op.trace.span("cli.replay", Some(parent), t0, secs(t0, t6));
    let parts = [
        ("asm.assemble", None, t0, t1),
        ("core.load", None, t1, t2),
        ("obs_store.begin", Some("obs_store.begin_s"), t2, t3),
        ("core.run", Some("cli.replay_run_s"), t3, t4),
        ("obs.report", Some("obs.report_s"), t4, t5),
        ("obs_store.finish", Some("obs_store.finish_s"), t5, t6),
    ];
    for (span, key, from, to) in parts {
        op.trace.span(span, Some(replay), from, secs(from, to));
        if let Some(key) = key {
            op.layers.add(key, secs(from, to));
        }
    }
    op.layers.add("obs_store.bytes_written", bytes as f64);
    let compute_s = secs(t0, t2) + secs(t3, t4);
    op.layers.add("cli.unattributed_s", dispatch_s - compute_s);
    Ok(())
}

/// Per-op means (and ratios) of a traced round's layer sums.
fn layer_values(t: &Tally, ops: f64, num_pes: f64) -> BTreeMap<&'static str, f64> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let derived = [
        (
            "core.sched.ns_per_issue",
            ratio(
                t.get("core.sched.issue_s") * 1e9,
                t.get("core.sched.scalar_issues") + t.get("core.sched.ghost_issues"),
            ),
        ),
        (
            "pe.ns_per_lane_op",
            ratio(t.get("pe.instr_major_s") * 1e9, t.get("pe.instr_major_issues") * num_pes),
        ),
        (
            "network.ns_per_lane",
            ratio(t.get("network.reduce_s") * 1e9, t.get("network.reductions") * num_pes),
        ),
        ("pe.fused_fraction", ratio(t.get("pe.instrs_fused"), t.get("sim.issued"))),
        ("sim.ipc", ratio(t.get("sim.issued"), t.get("sim.cycles"))),
    ];
    let mut values: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|&(name, _)| (name, ratio(t.get(name), ops))).collect();
    values.extend(derived);
    values
}

/// The workload's state across rounds.
struct Bench {
    kind: Kind,
    index: usize,
    /// Inputs the ops cycle through: op `i` of a round uses input
    /// `i % inputs`.
    inputs: usize,
    cfg: MachineConfig,
    probe: Probe,
    rounds_run: usize,
    check_failures: u64,
    /// Problems printed so far (the first few are shown on stderr).
    shown: usize,
}

impl Bench {
    fn new(name: &str, seed: u64, inputs: usize) -> Result<Bench, String> {
        let index = workloads::index(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let out = out_dir();
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let (kind, cfg) = match workloads::build(name, seed, inputs).expect("known workload") {
            Workload::Machine(w) => {
                let program =
                    asc_asm::assemble(&w.source).map_err(|e| asc_asm::render_errors(&e))?;
                let refs = w
                    .inputs
                    .iter()
                    .map(|input| reference(&w, &program, input))
                    .collect::<Result<_, _>>()?;
                let run_len = FusionClassifier::run_lengths(&program.words(), &w.cfg);
                let cfg = w.cfg;
                (Kind::Machine { w, refs, run_len }, cfg)
            }
            Workload::Cli(sources) => {
                let dir = out.join(format!("cli-{}", std::process::id()));
                std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let progs = sources
                    .into_iter()
                    .enumerate()
                    .map(|(i, src)| CliProgram::new(&dir, i, src))
                    .collect::<Result<_, _>>()
                    .inspect_err(|_| {
                        let _ = std::fs::remove_dir_all(&dir);
                    })?;
                (Kind::Cli { progs, dir }, cli_config())
            }
        };
        let inputs = match &kind {
            Kind::Machine { w, .. } => w.inputs.len(),
            Kind::Cli { progs, .. } => progs.len(),
        };
        let probe = Probe::new();
        Ok(Bench { kind, index, inputs, cfg, probe, rounds_run: 0, check_failures: 0, shown: 0 })
    }

    fn problem(&mut self, what: &str, detail: &str) {
        self.shown += 1;
        if self.shown <= 5 {
            eprintln!("simbench: {} {what}: {detail}", workloads::NAMES[self.index]);
        }
    }

    /// Run ops back to back until `budget` is spent, recording into `r`;
    /// with `spans`, the ops are traced and log their spans there. One op
    /// per round also has its `arch_digest` compared, on the next input in
    /// turn: a digest sweeps every plane, which at 2²⁰ PEs costs several
    /// ops. The probe runs between ops, every [`probe::EVERY_S`], and once
    /// at the end.
    fn round(&mut self, budget: Budget, mut r: Round, mut spans: Option<&mut SpanLog>) -> Round {
        let traced = spans.is_some();
        let registry = match &self.kind {
            Kind::Cli { dir, .. } => dir.join(format!("registry-{}", self.rounds_run)),
            Kind::Machine { .. } => PathBuf::new(),
        };
        let digest_op = self.rounds_run % self.inputs;
        self.rounds_run += 1;
        let start = Instant::now();
        let mut i = 0;
        let inputs = self.inputs;
        let stop_early = |i: usize| {
            i >= stats::MIN_P90_SAMPLES
                && i.is_multiple_of(inputs)
                && start.elapsed().as_secs_f64() >= budget.max_seconds
        };
        let mut next_probe = 0.0;
        while i < budget.ops && !stop_early(i) {
            let (set, digest) = (i % self.inputs, i == digest_op);
            i += 1;
            let mut op_start = secs(start, Instant::now());
            if op_start >= next_probe {
                r.probes.push((op_start, self.probe.time()));
                next_probe = op_start + probe::EVERY_S;
                op_start = secs(start, Instant::now());
            }
            let op = match &self.kind {
                Kind::Machine { w, refs, run_len } => {
                    machine_op(w, set, &refs[set], traced.then_some(run_len), digest)
                }
                Kind::Cli { progs, .. } => cli_op(&progs[set], &registry, traced),
            };
            let op_end = secs(start, Instant::now());
            r.attempted += 1;
            if let Some(why) = &op.failure {
                r.failed += 1;
                self.problem("op failed", why);
                continue;
            }
            for check in &op.checks {
                self.check_failures += 1;
                self.problem("self-check failed", check);
            }
            r.setup_s.push(op.setup_s);
            r.run_s.push(op.run_s);
            r.cycle_rate.push(op.cycles as f64 / op.run_s);
            r.lane_rate.push(op.lane_ops as f64 / op.run_s);
            r.spans.push((op_start, op_end));
            if let Some(spans) = spans.as_deref_mut() {
                r.layers.merge(&op.layers);
                spans.append(op.trace);
            }
        }
        r.probes.push((secs(start, Instant::now()), self.probe.time()));
        if matches!(self.kind, Kind::Cli { .. }) {
            let _ = std::fs::remove_dir_all(&registry);
        }
        r
    }

    fn check_unattributed(&mut self, r: &Round) {
        let (unattributed, run) =
            (r.layers.get("core.run.unattributed_s"), r.layers.get("core.run_s"));
        if unattributed > MAX_UNATTRIBUTED * run {
            self.check_failures += 1;
            let detail = format!("unattributed {unattributed:.6} s of core.run {run:.6} s");
            self.problem("self-check failed", &detail);
        }
    }

    /// The end-to-end metrics of one measured round, in [`END_TO_END`]
    /// order. Each op's times are scaled, and its rates divided, by the
    /// probes near it (see [`probe`]), before the median or p90 over the
    /// round is taken.
    fn end_to_end_metrics(&self, r: &Round) -> Result<Vec<Metric>, String> {
        let scale = probe::scales(&r.spans, &r.probes)?;
        let times = |v: &[f64]| -> Vec<f64> { v.iter().zip(&scale).map(|(t, k)| t * k).collect() };
        let rates = |v: &[f64]| -> Vec<f64> { v.iter().zip(&scale).map(|(x, k)| x / k).collect() };
        let median = |v: Vec<f64>| stats::median(&v).ok_or_else(|| "every op failed".to_string());
        let values = [
            median(times(&r.setup_s))?,
            median(times(&r.run_s))?,
            stats::p90(&times(&r.run_s))?,
            median(rates(&r.cycle_rate))?,
            median(rates(&r.lane_rate))?,
            host::peak_rss_mb()?,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value, rounds: Vec::new() })
            .collect();
        Ok(metrics)
    }

    /// The per-layer metrics of the measured `rounds`: untraced rounds,
    /// each followed by a traced one. Per-layer values are medians over the
    /// traced rounds; the tracing overhead compares each traced round with
    /// the untraced one before it.
    fn traced_metrics(&mut self, rounds: &[Round]) -> Result<Vec<Metric>, String> {
        let mut per_round: Vec<BTreeMap<&str, f64>> = Vec::new();
        for pair in rounds.chunks(2) {
            let [untraced, traced] = pair else { unreachable!("rounds come in pairs") };
            if traced.run_s.is_empty() {
                return Err("every traced op failed".into());
            }
            self.check_unattributed(traced);
            let p50 = |r: &Round| stats::median(&r.run_s).unwrap_or(f64::NAN);
            let overhead = match self.kind {
                Kind::Machine { .. } => p50(traced) / p50(untraced) - 1.0,
                // a dispatch cannot be traced: compare the traced run with
                // the replay's untraced run of the same program
                Kind::Cli { .. } => {
                    traced.layers.get("core.run_s") / traced.layers.get("cli.replay_run_s") - 1.0
                }
            };
            let mut values =
                layer_values(&traced.layers, traced.run_s.len() as f64, self.cfg.num_pes as f64);
            values.insert("obs.trace_overhead", overhead);
            per_round.push(values);
        }
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let rounds: Vec<f64> = per_round.iter().map(|v| v[name]).collect();
                let value = stats::median(&rounds).expect("a traced round");
                Metric { name, unit, value, rounds }
            })
            .collect();
        Ok(metrics)
    }

    /// What a result must say about where it was measured.
    fn fingerprint(&self, seed: u64, ops_per_round: &[u64]) -> Vec<(String, Json)> {
        let n = |v: usize| Json::U64(v as u64);
        let ops = Json::Arr(ops_per_round.iter().map(|&o| Json::U64(o)).collect());
        vec![
            ("seed".into(), Json::U64(seed)),
            ("host_cores".into(), n(std::thread::available_parallelism().map_or(1, |c| c.get()))),
            ("simd".into(), Json::str(self.cfg.simd_level().label())),
            // the in-tree rayon stand-in runs every parallel loop serially
            ("workers".into(), n(1)),
            ("segments".into(), n(self.cfg.segment_geometry().count())),
            ("registry_fs".into(), Json::str(host::fs_type(&out_dir()))),
            ("num_pes".into(), n(self.cfg.num_pes)),
            ("threads".into(), n(self.cfg.threads)),
            ("inputs".into(), n(self.inputs)),
            ("ops_per_round".into(), ops),
        ]
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        if let Kind::Cli { dir, .. } = &self.kind {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_reference_digest_counts_as_a_failed_op() {
        let mut bench = Bench::new("mt_query_fleet", 1, 2).unwrap();
        if let Kind::Machine { refs, .. } = &mut bench.kind {
            refs[0].digest ^= 1;
        }
        let four = Budget { ops: 4, max_seconds: 0.0 };
        // the first round compares op 0's digest, on input 0
        let r = bench.round(four, Round::with_capacity(4), None);
        assert_eq!((r.attempted, r.failed), (4, 1));
        assert_eq!(r.run_s.len(), 3, "the run went on past the failure");
        // the second round compares op 1's digest, on input 1
        let r = bench.round(four, Round::with_capacity(4), None);
        assert_eq!((r.attempted, r.failed), (4, 0));
    }

    #[test]
    fn small_workloads_pass_every_check_traced_and_untraced() {
        for name in ["mt_query_fleet", "fused_stencil", "cli_cold_run"] {
            let (attempted, failed, checks) = smoke(name, 11).unwrap();
            assert!(attempted > 0);
            assert_eq!((failed, checks), (0, 0), "{name}");
        }
    }

    #[test]
    fn rounds_hold_enough_ops_for_a_p90_and_whole_passes() {
        let mut bench = Bench::new("mt_query_fleet", 1, 8).unwrap();
        // a round nominally too short for a p90, and already over its
        // time cap, still runs 100 ops rounded up to whole passes
        let budget = budget_of(8, 0.0, stats::MIN_P90_SAMPLES, 0.0);
        assert_eq!(budget.ops, 104);
        let r = bench.round(budget, Round::with_capacity(budget.ops), None);
        assert_eq!(r.attempted, 104);
        assert!(stats::p90(&r.run_s).is_ok());
    }

    #[test]
    fn plans_a_warm_up_then_one_untraced_or_alternating_traced_rounds() {
        let settings = |trace| Settings { seed: 1, seconds: 10.0, trace };
        let untraced = plan(0, 8, &settings(false));
        assert_eq!(untraced.len(), 2);
        assert!(untraced.iter().all(|&(b, traced)| !traced && b.ops % 8 == 0));
        assert_eq!(untraced[1].0.ops, 18000, "all of --seconds at the nominal rate");
        let traced = plan(0, 8, &settings(true));
        let kinds: Vec<bool> = traced.iter().map(|&(_, t)| t).collect();
        assert_eq!(kinds, [false, false, true, false, true]);
        assert_eq!(traced[2].0.ops, 456, "an eighth of 3600, in whole passes");
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let entries = doc.get(key).and_then(Json::as_arr).unwrap();
            entries
                .iter()
                .map(|e| {
                    let field = |f| e.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, workloads::NAMES);
    }
}

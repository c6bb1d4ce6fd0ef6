#![warn(missing_docs)]

//! # asc-cli — the `mtasc` command-line tool
//!
//! ```text
//! mtasc run prog.asc [--pes N] [--threads T] [--arity K] [--width W]
//!                    [--trace] [--max-cycles N] [--no-forwarding]
//! mtasc asm prog.asc              # assemble to hex words
//! mtasc disasm prog.hex           # hex words back to assembly
//! mtasc info [--pes N ...]        # machine geometry + FPGA resources
//! ```
//!
//! The library exposes the argument parsing and subcommand logic so it can
//! be unit-tested; `main.rs` is a thin wrapper.

use std::fmt::Write as _;

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use asc_core::obs::{
    chrome_trace, chrome_trace_text, diff_registries, parse_json_lines, render_diff, Json,
    JsonLinesProgress, JsonLinesSink, MemorySink, Profile, ProgressHandle, ProgressSample,
    ProgressSampler, ProgressSink, Registry, RegressionCheck, RunReport, SinkHandle,
    PROFILE_SCHEMA, PROGRESS_SCHEMA, REPORT_SCHEMA, STATS_DIFF_SCHEMA,
};
use asc_core::pipeline::{control_unit_organization, hazard_diagram, pipeline_organization};
use asc_core::{Machine, MachineConfig};
use asc_fpga::{ClockModel, Device, FpgaConfig, ResourceReport};
use asc_isa::Width;
use asc_obs_store::{
    config_fingerprint, filter_list, list_to_json, program_hash, render_list, HeartbeatTail,
    Resolve, RunHandle, RunMeta, RunStatus, RunStore, HEARTBEAT_FILE, META_FILE, RUN_META_SCHEMA,
};
use asc_serve::{install_signal_shutdown, ServeOpts, Server, HTTP_SCHEMA};

/// Errors surfaced to the user with exit code 1/2.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line (prints usage, exit 2).
    Usage(String),
    /// Runtime failure (exit 1).
    Failure(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Failure(m) => f.write_str(m),
        }
    }
}

/// Parsed machine options shared by the subcommands.
#[derive(Debug, Clone)]
pub struct MachineOpts {
    /// PE count.
    pub pes: usize,
    /// Hardware threads.
    pub threads: usize,
    /// Broadcast arity.
    pub arity: usize,
    /// Datapath width.
    pub width: Width,
    /// Forwarding enabled.
    pub forwarding: bool,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Record and print the pipeline diagram.
    pub trace: bool,
    /// Write a JSON run report to this path after `run`.
    pub report: Option<String>,
    /// Stream trace events (JSON-Lines) to this path during `run`.
    pub trace_json: Option<String>,
    /// Write a Chrome `trace_event` (Perfetto-loadable) trace to this
    /// path after `run`.
    pub trace_chrome: Option<String>,
    /// Block-fusion engine enabled (`--no-fuse` clears it).
    pub fusion: bool,
    /// SIMD dispatch enabled (`--no-simd` clears it; `MTASC_NO_SIMD`
    /// overrides either way).
    pub simd: bool,
    /// Requested segment count for the core-affine PE-array sharding
    /// (`--segments N`; 0 = automatic, 1 = monolithic; `MTASC_SEGMENTS`
    /// overrides either way). Bit-identical results at every count.
    pub segments: usize,
    /// Schedule-perturbation seed (`--sched-seed N`; 0 = the exact
    /// unperturbed rotating-priority baseline; `MTASC_SCHED_SEED`
    /// overrides either way). Race-free programs reach the same
    /// architectural state under every seed.
    pub sched_seed: u64,
    /// Print block-fusion statistics after `run`.
    pub fusion_stats: bool,
    /// Record this invocation into the run registry. Defaults to `false`
    /// for direct library construction (tests stay hermetic) and `true`
    /// on the real command line ([`MachineOpts::parse`]); `--no-record`
    /// opts out there.
    pub record: bool,
    /// Registry root override (`--runs-dir`); falls back to
    /// `$MTASC_RUNS_DIR`, then `.mtasc/runs`.
    pub runs_dir: Option<String>,
    /// Stream `mtasc.progress.v1` heartbeats to stderr every this many
    /// cycles during `run` (0 = off; `--progress` picks the default
    /// cadence, `--progress-every N` an explicit one).
    pub progress_every: u64,
    /// Display name for the registry manifest (the source path; set by
    /// `dispatch`).
    pub name: Option<String>,
}

/// Cadence of `--progress` when no explicit `--progress-every` is given,
/// and of the heartbeat artifact recorded into the registry.
pub const DEFAULT_PROGRESS_EVERY: u64 = 4096;

/// Bound on the in-memory progress ring (the heartbeat file holds the
/// full stream; the ring only feeds end-of-run summaries).
const PROGRESS_RING: usize = 1024;

impl Default for MachineOpts {
    fn default() -> Self {
        MachineOpts {
            pes: 16,
            threads: 16,
            arity: 4,
            width: Width::W16,
            forwarding: true,
            max_cycles: 100_000_000,
            trace: false,
            report: None,
            trace_json: None,
            trace_chrome: None,
            fusion: true,
            simd: true,
            segments: 0,
            sched_seed: 0,
            fusion_stats: false,
            record: false,
            runs_dir: None,
            progress_every: 0,
            name: None,
        }
    }
}

impl MachineOpts {
    /// Build the machine configuration.
    pub fn config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::new(self.pes)
            .with_threads(self.threads)
            .with_arity(self.arity)
            .with_width(self.width);
        if !self.forwarding {
            cfg = cfg.without_forwarding();
        }
        if !self.fusion {
            cfg = cfg.without_fusion();
        }
        if !self.simd {
            cfg = cfg.without_simd();
        }
        cfg.with_segments(self.segments).with_sched_seed(self.sched_seed)
    }

    /// Consume recognized flags from `args`, leaving positional arguments.
    pub fn parse(args: &mut Vec<String>) -> Result<MachineOpts, CliError> {
        // the real command line records by default; --no-record opts out
        let mut opts = MachineOpts { record: true, ..MachineOpts::default() };
        let mut rest = Vec::new();
        let mut it = args.drain(..);
        while let Some(a) = it.next() {
            let take = |it: &mut std::vec::Drain<String>| {
                it.next().ok_or_else(|| CliError::Usage(format!("{a} needs a value")))
            };
            match a.as_str() {
                "--pes" => opts.pes = parse_num(&take(&mut it)?)?,
                "--threads" => opts.threads = parse_num(&take(&mut it)?)?,
                "--arity" => opts.arity = parse_num(&take(&mut it)?)?,
                "--max-cycles" => opts.max_cycles = parse_num(&take(&mut it)?)? as u64,
                "--width" => {
                    opts.width = match take(&mut it)?.as_str() {
                        "8" => Width::W8,
                        "16" => Width::W16,
                        "32" => Width::W32,
                        other => {
                            return Err(CliError::Usage(format!(
                                "--width must be 8, 16 or 32, got {other}"
                            )))
                        }
                    }
                }
                "--no-forwarding" => opts.forwarding = false,
                "--no-record" => opts.record = false,
                "--runs-dir" => opts.runs_dir = Some(take(&mut it)?),
                "--progress" => {
                    if opts.progress_every == 0 {
                        opts.progress_every = DEFAULT_PROGRESS_EVERY;
                    }
                }
                "--progress-every" => {
                    opts.progress_every = (parse_num(&take(&mut it)?)? as u64).max(1)
                }
                "--no-fuse" => opts.fusion = false,
                "--no-simd" => opts.simd = false,
                "--segments" => opts.segments = parse_num(&take(&mut it)?)?,
                "--sched-seed" => opts.sched_seed = parse_num(&take(&mut it)?)? as u64,
                "--fusion-stats" => opts.fusion_stats = true,
                "--trace" => opts.trace = true,
                "--report" => opts.report = Some(take(&mut it)?),
                "--trace-json" => opts.trace_json = Some(take(&mut it)?),
                "--trace-chrome" => opts.trace_chrome = Some(take(&mut it)?),
                _ => rest.push(a),
            }
        }
        drop(it);
        *args = rest;
        Ok(opts)
    }
}

fn parse_num(s: &str) -> Result<usize, CliError> {
    s.parse().map_err(|_| CliError::Usage(format!("not a number: {s}")))
}

/// Usage text.
pub const USAGE: &str = "\
mtasc — Multithreaded ASC Processor toolchain

USAGE:
  mtasc run <prog.asc|.ascl> [options]  assemble/compile and simulate
  mtasc asm <prog.asc|.ascl>            assemble to hex words (stdout)
  mtasc lower <prog.ascl>               compile ASCL to assembly (stdout)
  mtasc lint <prog.asc|.ascl> [lint options]
                                        static analysis: errors, warnings,
                                        performance notes (exit 1 on findings)
  mtasc disasm <prog.hex>               disassemble hex words (stdout)
  mtasc profile <prog.asc|.ascl> [--top N] [--json F] [options]
                                        cycle-attribution profile: hot
                                        instructions, stall reasons, blocks
  mtasc trace convert <trace.jsonl> [--out F]
                                        convert a JSON-Lines trace to Chrome
                                        trace_event JSON (load in Perfetto)
  mtasc stats <report.json>             summarize a saved run report
  mtasc stats diff <a.json> <b.json> [--fail-on-regress PCT] [--all]
                                        per-metric deltas between two run
                                        reports, profiles, or benchmark
                                        tables (BENCH_*.json); `-` reads
                                        one side from stdin.
                                        exit codes: 0 ok / 1 regression
                                        (or failure) / 2 usage error
  mtasc stats validate <files...>       check saved JSON artifacts against
                                        their declared schemas
  mtasc runs list [--status S] [--program P] [--limit N] [--offset N]
                  [--json]              recorded runs, newest first
                                        (--program filters by program
                                        hash: a source path, a full
                                        fnv1a64 hash, or a hex prefix)
  mtasc runs show <id> [--top N]        one run's manifest + recorded
                                        hot-spot table (ids may be unique
                                        prefixes)
  mtasc runs diff <a> <b> [--fail-on-regress PCT] [--all]
                                        stats diff over two recorded runs
                                        (registry ids or artifact paths)
  mtasc runs watch <id> [--no-follow] [--interval-ms N]
                                        tail a run's live progress
                                        heartbeats (mtasc.progress.v1);
                                        --poll-ms is an alias
  mtasc runs gc --keep N                prune all but the newest N runs
  mtasc runs export --prometheus [--out F]
                                        registry metrics in Prometheus
                                        text exposition format
  mtasc serve [--addr HOST:PORT] [--workers N]
                                        HTTP observability daemon over the
                                        run registry: run listing & diffs
                                        (/api/v1/runs), SSE progress
                                        streams, /metrics scrape, embedded
                                        dashboard at /
                                        (default addr 127.0.0.1:7878;
                                        honours --runs-dir)
  mtasc info [options]                  machine geometry + FPGA resources
  mtasc --version                       tool version + emitted schemas

OPTIONS:
  --pes N          processing elements        (default 16)
  --threads T      hardware thread contexts   (default 16)
  --arity K        broadcast tree arity       (default 4)
  --width 8|16|32  datapath width             (default 16)
  --max-cycles N   simulation cycle budget
  --no-forwarding  disable forwarding paths (ablation)
  --no-fuse        disable the block-fusion engine (identical results,
                   instruction-major execution — for cross-checking)
  --no-simd        force the scalar reference loops instead of AVX2/AVX-512
                   kernels (identical results; MTASC_NO_SIMD=1 also works)
  --segments N     core-affine PE-array segments (0 = auto, one per 4096
                   lanes; 1 = monolithic; identical results at every
                   count; MTASC_SEGMENTS=N also works)
  --sched-seed N   perturb the thread scheduler with seed N (0 = exact
                   baseline; every seed is a legal schedule, so race-free
                   programs reach identical architectural state;
                   MTASC_SCHED_SEED=N also works)
  --fusion-stats   print block-fusion and kernel-compilation statistics
  --trace          print the stage-by-cycle pipeline diagram
  --report F       write a JSON run report to F
  --trace-json F   stream trace events (JSON-Lines) to F
  --trace-chrome F write a Chrome trace_event JSON trace to F (Perfetto)
  --progress       stream mtasc.progress.v1 heartbeats to stderr during run
  --progress-every N
                   heartbeat cadence in cycles (default 4096; implies
                   --progress)
  --no-record      do not record this invocation into the run registry
  --runs-dir DIR   registry root (default $MTASC_RUNS_DIR or .mtasc/runs)

LINT OPTIONS:
  --json           emit the mtasc.lint.v1 JSON report instead of text
  --deny warnings  treat warnings as fatal (notes never fail a program)
  --explain CODE   print the long-form explanation of a diagnostic code
                   (--explain all dumps the whole catalog)
  --kernels        lint every program in the asc-kernels corpus instead
                   of a file
  --schedules N    additionally execute the program under N perturbed
                   legal schedules (seeds 0..N) and fail if the final
                   architectural state diverges — the dynamic check
                   behind the E6001 severity contract
";

/// Dispatch a command line (without argv\[0\]); returns the text to print.
pub fn dispatch(mut args: Vec<String>) -> Result<String, CliError> {
    let mut opts = MachineOpts::parse(&mut args)?;
    let mut it = args.into_iter();
    let cmd = it.next().ok_or_else(|| CliError::Usage(USAGE.into()))?;
    match cmd.as_str() {
        "--version" | "-V" | "version" => Ok(version_text()),
        "run" => {
            let path = it.next().ok_or_else(|| CliError::Usage("run needs a file".into()))?;
            let src = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            let src = lower_if_ascl(&path, &src)?;
            opts.name = Some(path);
            cmd_run(&src, opts)
        }
        "asm" => {
            let path = it.next().ok_or_else(|| CliError::Usage("asm needs a file".into()))?;
            let src = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            let src = lower_if_ascl(&path, &src)?;
            cmd_asm(&src)
        }
        "lower" => {
            let path = it.next().ok_or_else(|| CliError::Usage("lower needs a file".into()))?;
            let src = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            asc_lang::compile(&src).map_err(|e| CliError::Failure(e.to_string()))
        }
        "disasm" => {
            let path = it.next().ok_or_else(|| CliError::Usage("disasm needs a file".into()))?;
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            cmd_disasm(&text)
        }
        "lint" => {
            let mut lint = LintOpts::default();
            let mut path = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--json" => lint.json = true,
                    "--kernels" => lint.kernels = true,
                    "--deny" => {
                        let what = it
                            .next()
                            .ok_or_else(|| CliError::Usage("--deny needs a value".into()))?;
                        if what != "warnings" {
                            return Err(CliError::Usage(format!(
                                "--deny only knows `warnings`, got `{what}`"
                            )));
                        }
                        lint.deny_warnings = true;
                    }
                    "--explain" => {
                        let code = it
                            .next()
                            .ok_or_else(|| CliError::Usage("--explain needs a code".into()))?;
                        return cmd_explain(&code);
                    }
                    "--schedules" => {
                        let n = it
                            .next()
                            .ok_or_else(|| CliError::Usage("--schedules needs a count".into()))?;
                        let n = parse_num(&n)? as u64;
                        if n < 2 {
                            return Err(CliError::Usage(
                                "--schedules needs at least 2 seeds to compare".into(),
                            ));
                        }
                        lint.schedules = Some(n);
                    }
                    other if !other.starts_with('-') && path.is_none() => {
                        path = Some(a);
                    }
                    other => return Err(CliError::Usage(format!("unknown lint option `{other}`"))),
                }
            }
            if lint.kernels {
                return cmd_lint_kernels(&opts.config(), &lint);
            }
            let path = path.ok_or_else(|| {
                CliError::Usage("lint needs a file (or --kernels / --explain CODE)".into())
            })?;
            let src = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            let src = lower_if_ascl(&path, &src)?;
            cmd_lint(&src, &path, &opts.config(), &lint)
        }
        "profile" => {
            let mut top = 10usize;
            let mut json_out = None;
            let mut path = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--top" => {
                        top = parse_num(
                            &it.next().ok_or_else(|| CliError::Usage("--top needs N".into()))?,
                        )?
                    }
                    "--json" => {
                        json_out = Some(
                            it.next()
                                .ok_or_else(|| CliError::Usage("--json needs a file".into()))?,
                        )
                    }
                    other if !other.starts_with('-') && path.is_none() => path = Some(a),
                    other => {
                        return Err(CliError::Usage(format!("unknown profile option `{other}`")))
                    }
                }
            }
            let path = path.ok_or_else(|| CliError::Usage("profile needs a file".into()))?;
            let src = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            let src = lower_if_ascl(&path, &src)?;
            opts.name = Some(path);
            cmd_profile(&src, opts, top, json_out.as_deref())
        }
        "trace" => {
            let sub = it.next().ok_or_else(|| CliError::Usage("trace needs `convert`".into()))?;
            if sub != "convert" {
                return Err(CliError::Usage(format!("unknown trace subcommand `{sub}`")));
            }
            let mut out_path = None;
            let mut path = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--out" => {
                        out_path = Some(
                            it.next()
                                .ok_or_else(|| CliError::Usage("--out needs a file".into()))?,
                        )
                    }
                    other if !other.starts_with('-') && path.is_none() => path = Some(a),
                    other => {
                        return Err(CliError::Usage(format!("unknown convert option `{other}`")))
                    }
                }
            }
            let path =
                path.ok_or_else(|| CliError::Usage("trace convert needs a .jsonl file".into()))?;
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            cmd_trace_convert(&text, &opts, out_path.as_deref())
        }
        "stats" => {
            let first = it.next().ok_or_else(|| CliError::Usage("stats needs a file".into()))?;
            match first.as_str() {
                "diff" => {
                    let mut fail_on = None;
                    let mut all = false;
                    let mut files = Vec::new();
                    while let Some(a) = it.next() {
                        match a.as_str() {
                            "--fail-on-regress" => {
                                let v = it.next().ok_or_else(|| {
                                    CliError::Usage("--fail-on-regress needs a percentage".into())
                                })?;
                                fail_on = Some(v.parse::<f64>().map_err(|_| {
                                    CliError::Usage(format!("not a percentage: {v}"))
                                })?);
                            }
                            "--all" => all = true,
                            // `-` is stdin, not an option
                            other if other == "-" || !other.starts_with('-') => {
                                files.push(a.clone())
                            }
                            other => {
                                return Err(CliError::Usage(format!(
                                    "unknown diff option `{other}`"
                                )))
                            }
                        }
                    }
                    if files.len() != 2 {
                        return Err(CliError::Usage("stats diff needs exactly two files".into()));
                    }
                    if files[0] == "-" && files[1] == "-" {
                        return Err(CliError::Usage(
                            "stats diff can read stdin (`-`) on only one side".into(),
                        ));
                    }
                    cmd_stats_diff(&files[0], &files[1], fail_on, all)
                }
                "validate" => {
                    let files: Vec<String> = it.collect();
                    if files.is_empty() {
                        return Err(CliError::Usage("stats validate needs files".into()));
                    }
                    cmd_stats_validate(&files)
                }
                _ => {
                    let text = std::fs::read_to_string(&first)
                        .map_err(|e| CliError::Failure(format!("{first}: {e}")))?;
                    cmd_stats(&text)
                }
            }
        }
        "runs" => {
            let sub = it.next().ok_or_else(|| {
                CliError::Usage("runs needs a subcommand (list/show/diff/watch/gc/export)".into())
            })?;
            // opened lazily per branch, after argument validation — a
            // usage error must not create the registry directory
            let store = || open_store(&opts);
            match sub.as_str() {
                "list" => {
                    let mut status = None;
                    let mut program = None;
                    let mut limit = None;
                    let mut offset = 0usize;
                    let mut json = false;
                    while let Some(a) = it.next() {
                        match a.as_str() {
                            "--status" => {
                                let s = it.next().ok_or_else(|| {
                                    CliError::Usage("--status needs running|ok|fault".into())
                                })?;
                                status = Some(RunStatus::from_label(&s).ok_or_else(|| {
                                    CliError::Usage(format!(
                                        "--status must be running, ok or fault, got `{s}`"
                                    ))
                                })?);
                            }
                            "--program" => {
                                let operand = it.next().ok_or_else(|| {
                                    CliError::Usage("--program needs a source path or hash".into())
                                })?;
                                program = Some(program_query(&operand)?);
                            }
                            "--limit" => {
                                limit =
                                    Some(parse_num(&it.next().ok_or_else(|| {
                                        CliError::Usage("--limit needs N".into())
                                    })?)?)
                            }
                            "--offset" => {
                                offset =
                                    parse_num(&it.next().ok_or_else(|| {
                                        CliError::Usage("--offset needs N".into())
                                    })?)?
                            }
                            "--json" => json = true,
                            other => {
                                return Err(CliError::Usage(format!(
                                    "unknown runs list option `{other}`"
                                )))
                            }
                        }
                    }
                    cmd_runs_list(&store()?, status, program.as_deref(), limit, offset, json)
                }
                "show" => {
                    let mut top = 10usize;
                    let mut id = None;
                    while let Some(a) = it.next() {
                        match a.as_str() {
                            "--top" => {
                                top = parse_num(
                                    &it.next()
                                        .ok_or_else(|| CliError::Usage("--top needs N".into()))?,
                                )?
                            }
                            other if !other.starts_with('-') && id.is_none() => id = Some(a),
                            other => {
                                return Err(CliError::Usage(format!(
                                    "unknown runs show option `{other}`"
                                )))
                            }
                        }
                    }
                    let id =
                        id.ok_or_else(|| CliError::Usage("runs show needs a run id".into()))?;
                    cmd_runs_show(&store()?, &id, top)
                }
                "diff" => {
                    let mut fail_on = None;
                    let mut all = false;
                    let mut refs = Vec::new();
                    while let Some(a) = it.next() {
                        match a.as_str() {
                            "--fail-on-regress" => {
                                let v = it.next().ok_or_else(|| {
                                    CliError::Usage("--fail-on-regress needs a percentage".into())
                                })?;
                                fail_on = Some(v.parse::<f64>().map_err(|_| {
                                    CliError::Usage(format!("not a percentage: {v}"))
                                })?);
                            }
                            "--all" => all = true,
                            other if !other.starts_with('-') => refs.push(a.clone()),
                            other => {
                                return Err(CliError::Usage(format!(
                                    "unknown runs diff option `{other}`"
                                )))
                            }
                        }
                    }
                    if refs.len() != 2 {
                        return Err(CliError::Usage(
                            "runs diff needs exactly two run ids or artifact paths".into(),
                        ));
                    }
                    let store = store()?;
                    let a = resolve_diffable(&store, &refs[0])?;
                    let b = resolve_diffable(&store, &refs[1])?;
                    cmd_stats_diff(&a, &b, fail_on, all)
                }
                "watch" => {
                    let mut follow = true;
                    let mut poll_ms = 200u64;
                    let mut id = None;
                    while let Some(a) = it.next() {
                        match a.as_str() {
                            "--no-follow" => follow = false,
                            "--interval-ms" | "--poll-ms" => {
                                poll_ms = parse_num(
                                    &it.next()
                                        .ok_or_else(|| CliError::Usage(format!("{a} needs N")))?,
                                )? as u64
                            }
                            other if !other.starts_with('-') && id.is_none() => id = Some(a),
                            other => {
                                return Err(CliError::Usage(format!(
                                    "unknown runs watch option `{other}`"
                                )))
                            }
                        }
                    }
                    let id =
                        id.ok_or_else(|| CliError::Usage("runs watch needs a run id".into()))?;
                    cmd_runs_watch(&store()?, &id, follow, poll_ms)
                }
                "gc" => {
                    let mut keep = None;
                    while let Some(a) = it.next() {
                        match a.as_str() {
                            "--keep" => {
                                keep =
                                    Some(parse_num(&it.next().ok_or_else(|| {
                                        CliError::Usage("--keep needs N".into())
                                    })?)?)
                            }
                            other => {
                                return Err(CliError::Usage(format!(
                                    "unknown runs gc option `{other}`"
                                )))
                            }
                        }
                    }
                    let keep =
                        keep.ok_or_else(|| CliError::Usage("runs gc needs --keep N".into()))?;
                    cmd_runs_gc(&store()?, keep)
                }
                "export" => {
                    let mut prometheus = false;
                    let mut out_path = None;
                    while let Some(a) = it.next() {
                        match a.as_str() {
                            "--prometheus" => prometheus = true,
                            "--out" => {
                                out_path =
                                    Some(it.next().ok_or_else(|| {
                                        CliError::Usage("--out needs a file".into())
                                    })?)
                            }
                            other => {
                                return Err(CliError::Usage(format!(
                                    "unknown runs export option `{other}`"
                                )))
                            }
                        }
                    }
                    if !prometheus {
                        return Err(CliError::Usage(
                            "runs export needs a format flag (--prometheus)".into(),
                        ));
                    }
                    cmd_runs_export_prometheus(&store()?, out_path.as_deref())
                }
                other => Err(CliError::Usage(format!("unknown runs subcommand `{other}`"))),
            }
        }
        "serve" => {
            let mut addr = "127.0.0.1:7878".to_string();
            let mut workers = 4usize;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => {
                        addr = it
                            .next()
                            .ok_or_else(|| CliError::Usage("--addr needs HOST:PORT".into()))?
                    }
                    "--workers" => {
                        workers = parse_num(
                            &it.next()
                                .ok_or_else(|| CliError::Usage("--workers needs N".into()))?,
                        )?
                    }
                    other => {
                        return Err(CliError::Usage(format!("unknown serve option `{other}`")))
                    }
                }
            }
            cmd_serve(&opts, &addr, workers)
        }
        "info" => Ok(cmd_info(opts)),
        other => Err(CliError::Usage(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

/// `mtasc --version`: crate version, every schema this tool emits, and
/// the resolved execution strategy (host SIMD tier and segment slicing,
/// both after their env overrides, and the host workers that large PE
/// sweeps are split across), so a pasted version line pins down how wall
/// times were produced.
pub fn version_text() -> String {
    let cfg = MachineConfig::new(MachineOpts::default().pes);
    let segments = match cfg.effective_segments() {
        0 => "auto".to_string(),
        n => n.to_string(),
    };
    format!(
        "mtasc {}\nschemas: {REPORT_SCHEMA}, {PROFILE_SCHEMA}, mtasc.lint.v1, \
         {RUN_META_SCHEMA}, {PROGRESS_SCHEMA}, {STATS_DIFF_SCHEMA}, {HTTP_SCHEMA}\n\
         execution: simd {} (MTASC_NO_SIMD), segments {} (MTASC_SEGMENTS), host workers {}\n",
        env!("CARGO_PKG_VERSION"),
        cfg.simd_level().label(),
        segments,
        asc_core::host_workers(),
    )
}

/// Compile `.ascl` sources down to assembly; pass `.asc` through.
fn lower_if_ascl(path: &str, src: &str) -> Result<String, CliError> {
    if path.ends_with(".ascl") {
        asc_lang::compile(src).map_err(|e| CliError::Failure(e.to_string()))
    } else {
        Ok(src.to_string())
    }
}

/// Open the run registry honouring `--runs-dir` (then `$MTASC_RUNS_DIR`,
/// then `.mtasc/runs`).
fn open_store(opts: &MachineOpts) -> Result<RunStore, CliError> {
    let root = match &opts.runs_dir {
        Some(dir) => PathBuf::from(dir),
        None => RunStore::default_root(),
    };
    RunStore::open(&root)
        .map_err(|e| CliError::Failure(format!("run registry {}: {e}", root.display())))
}

/// Record a `running` manifest for this invocation, unless recording is
/// disabled (`--no-record`, or direct library callers).
fn begin_record(
    kind: &str,
    opts: &MachineOpts,
    source: &str,
    m: &Machine,
) -> Result<Option<RunHandle>, CliError> {
    if !opts.record {
        return Ok(None);
    }
    let store = open_store(opts)?;
    let machine = RunReport::from_machine(m).machine;
    let name = opts.name.as_deref().unwrap_or("<memory>");
    let meta =
        RunMeta::begin(kind, name, program_hash(source), config_fingerprint(&machine), machine.pes);
    let handle = store.begin(meta).map_err(|e| CliError::Failure(format!("run registry: {e}")))?;
    Ok(Some(handle))
}

/// Fan one progress stream out to several sinks (heartbeat file + stderr).
struct TeeProgress(Vec<ProgressHandle>);

impl ProgressSink for TeeProgress {
    fn on_sample(&mut self, sample: &ProgressSample) {
        for h in &self.0 {
            h.emit(sample);
        }
    }

    fn flush_progress(&mut self) -> std::io::Result<()> {
        for h in &self.0 {
            h.flush()?;
        }
        Ok(())
    }
}

/// Attach a [`ProgressSampler`] when heartbeats are wanted: always when
/// recording (the registry's `progress.jsonl` artifact feeds `runs
/// watch`), and to stderr when `--progress[-every]` asks for a live
/// stream.
fn attach_progress(
    m: &mut Machine,
    opts: &MachineOpts,
    rec: Option<&RunHandle>,
) -> Result<bool, CliError> {
    let mut sinks = Vec::new();
    if let Some(rec) = rec {
        let path = rec.artifact_path(HEARTBEAT_FILE);
        let sink = JsonLinesProgress::create(&path.display().to_string())
            .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))?;
        sinks.push(ProgressHandle::new(sink));
    }
    if opts.progress_every > 0 {
        sinks.push(ProgressHandle::new(JsonLinesProgress::new(std::io::stderr())));
    }
    if sinks.is_empty() {
        return Ok(false);
    }
    let every = if opts.progress_every > 0 { opts.progress_every } else { DEFAULT_PROGRESS_EVERY };
    let handle = if sinks.len() == 1 {
        sinks.pop().expect("one sink")
    } else {
        ProgressHandle::new(TeeProgress(sinks))
    };
    m.attach_progress(ProgressSampler::new(every, PROGRESS_RING).with_sink(handle));
    Ok(true)
}

/// `mtasc run`: assemble, simulate, report.
pub fn cmd_run(source: &str, opts: MachineOpts) -> Result<String, CliError> {
    let program = asc_asm::assemble(source)
        .map_err(|errs| CliError::Failure(asc_asm::render_errors(&errs)))?;
    let cfg = opts.config();
    let mut m =
        Machine::with_program(cfg, &program).map_err(|e| CliError::Failure(e.to_string()))?;
    let mut rec = begin_record("run", &opts, source, &m)?;
    let sampled = attach_progress(&mut m, &opts, rec.as_ref())?;
    if opts.trace {
        m.enable_trace();
    }
    // --trace-chrome needs the whole event stream in memory; when it is
    // requested the JSON-Lines file (if any) is written from the same
    // buffer after the run instead of streaming.
    let mem = if opts.trace_chrome.is_some() {
        let mem = Rc::new(RefCell::new(MemorySink::new()));
        m.attach_sink(SinkHandle::shared(mem.clone()));
        Some(mem)
    } else {
        if let Some(path) = &opts.trace_json {
            let sink = JsonLinesSink::create(path)
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            m.attach_sink(SinkHandle::new(sink));
        }
        None
    };
    let stats = match m.run(opts.max_cycles) {
        Ok(stats) => stats,
        Err(e) => {
            // the manifest keeps the fault: a crashed run stays visible
            // (and diagnosable) in `mtasc runs list --status fault`
            if let Some(rec) = rec.take() {
                let _ = rec.finish_fault(&e.to_string(), m.cycle(), m.stats().issued);
            }
            return Err(CliError::Failure(e.to_string()));
        }
    };
    let mut out = String::new();
    let t = m.timing();
    let _ = writeln!(
        out,
        "machine: {} PEs, {} threads, b={}, r={}",
        cfg.num_pes, cfg.threads, t.b, t.r
    );
    out.push_str(&stats.report());
    if opts.fusion_stats {
        let fs = m.fusion_stats();
        let _ = writeln!(out, "\nblock fusion:");
        let _ = writeln!(
            out,
            "  static:  {} blocks covering {} instructions (mean length {:.2})",
            fs.static_blocks,
            fs.static_fused_instrs,
            fs.mean_block_len()
        );
        let _ = writeln!(
            out,
            "  dynamic: {} blocks executed, {} of {} issued instructions fused ({:.1}%)",
            fs.blocks_executed,
            fs.instrs_fused,
            stats.issued,
            100.0 * fs.fused_fraction(stats.issued)
        );
        let _ = writeln!(
            out,
            "  compile: {} kernel ops ({} SIMD-bound at {}), {} tile chain dispatches",
            fs.compiled_ops,
            fs.simd_ops,
            m.simd_level().label(),
            fs.tile_chains
        );
    }
    let _ = writeln!(out, "\nscalar registers (thread 0):");
    for r in 1..16 {
        let v = m.sreg(0, r);
        if v.to_u32() != 0 {
            let _ = writeln!(out, "  s{r:<2} = {:>6}  ({})", v.to_u32(), v.to_i64(cfg.width));
        }
    }
    if opts.trace {
        let _ = writeln!(out, "\npipeline diagram:");
        out.push_str(&hazard_diagram(m.trace().unwrap(), &t));
    }
    if let Some(path) = &opts.report {
        let report = RunReport::from_machine(&m);
        std::fs::write(path, report.to_json().to_pretty())
            .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
        let _ = writeln!(out, "\nrun report written to {path}");
    }
    if let Some(mem) = &mem {
        let mem = mem.borrow();
        if let Some(path) = &opts.trace_json {
            let mut text = String::new();
            for ev in mem.events() {
                text.push_str(&ev.to_json().to_compact());
                text.push('\n');
            }
            std::fs::write(path, text).map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            let _ = writeln!(out, "trace events written to {path}");
        }
        if let Some(path) = &opts.trace_chrome {
            let trace = chrome_trace(mem.events(), &t);
            std::fs::write(path, chrome_trace_text(&trace))
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            let _ = writeln!(out, "chrome trace written to {path} (load at ui.perfetto.dev)");
        }
    } else if let Some(path) = &opts.trace_json {
        // the machine flushed the sink at end of run
        let _ = writeln!(out, "trace events written to {path}");
    }
    if let Some(sink) = m.sink() {
        let (dropped, errors) = (sink.dropped_events(), sink.write_errors());
        if dropped > 0 || errors > 0 {
            let _ = writeln!(
                out,
                "warning: trace is lossy ({dropped} events dropped, {errors} write errors)"
            );
        }
    }
    if let Some(mut rec) = rec {
        let report = RunReport::from_machine(&m);
        let path = rec.artifact_path("report.json");
        std::fs::write(&path, report.to_json().to_pretty())
            .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))?;
        rec.add_artifact("report.json");
        if sampled {
            rec.add_artifact(HEARTBEAT_FILE);
        }
        let meta = rec
            .finish_ok(stats.cycles, stats.issued)
            .map_err(|e| CliError::Failure(format!("run registry: {e}")))?;
        let _ = writeln!(out, "\nrecorded run {}", meta.id);
    }
    Ok(out)
}

/// `mtasc profile`: run under the cycle-attribution profiler and render
/// the hot-spot table (optionally also writing the `mtasc.profile.v1`
/// JSON document).
pub fn cmd_profile(
    source: &str,
    opts: MachineOpts,
    top: usize,
    json_out: Option<&str>,
) -> Result<String, CliError> {
    let program = asc_asm::assemble(source)
        .map_err(|errs| CliError::Failure(asc_asm::render_errors(&errs)))?;
    let cfg = opts.config();
    let mut m =
        Machine::with_program(cfg, &program).map_err(|e| CliError::Failure(e.to_string()))?;
    let mut rec = begin_record("profile", &opts, source, &m)?;
    let sampled = attach_progress(&mut m, &opts, rec.as_ref())?;
    m.attach_profiler();
    let stats = match m.run(opts.max_cycles) {
        Ok(stats) => stats,
        Err(e) => {
            if let Some(rec) = rec.take() {
                let _ = rec.finish_fault(&e.to_string(), m.cycle(), m.stats().issued);
            }
            return Err(CliError::Failure(e.to_string()));
        }
    };
    let profile = m.take_profile().expect("profiler was attached");
    let mut out = String::new();
    let t = m.timing();
    let _ = writeln!(
        out,
        "machine: {} PEs, {} threads, b={}, r={}",
        cfg.num_pes, cfg.threads, t.b, t.r
    );
    out.push_str(&profile.render_table(Some(&program), Some(source), top));
    if let Some(path) = json_out {
        std::fs::write(path, profile.to_json().to_pretty())
            .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
        let _ = writeln!(out, "\nprofile written to {path}");
    }
    if let Some(mut rec) = rec {
        let path = rec.artifact_path("profile.json");
        std::fs::write(&path, profile.to_json().to_pretty())
            .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))?;
        rec.add_artifact("profile.json");
        if sampled {
            rec.add_artifact(HEARTBEAT_FILE);
        }
        let meta = rec
            .finish_ok(stats.cycles, stats.issued)
            .map_err(|e| CliError::Failure(format!("run registry: {e}")))?;
        let _ = writeln!(out, "\nrecorded run {}", meta.id);
    }
    Ok(out)
}

/// `mtasc trace convert`: JSON-Lines trace → Chrome `trace_event` JSON.
pub fn cmd_trace_convert(
    text: &str,
    opts: &MachineOpts,
    out_path: Option<&str>,
) -> Result<String, CliError> {
    let events = parse_json_lines(text)
        .map_err(|line| CliError::Failure(format!("malformed trace event on line {line}")))?;
    let trace = chrome_trace(&events, &opts.config().timing());
    let rendered = chrome_trace_text(&trace);
    match out_path {
        Some(path) => {
            std::fs::write(path, rendered)
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            Ok(format!("chrome trace written to {path} (load at ui.perfetto.dev)\n"))
        }
        None => Ok(rendered),
    }
}

/// Read a whole input, treating `-` as standard input.
fn read_input(path: &str) -> Result<String, CliError> {
    if path == "-" {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
            .map_err(|e| CliError::Failure(format!("<stdin>: {e}")))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| CliError::Failure(format!("{path}: {e}")))
    }
}

/// How an input path is reported in diagnostics (`-` → `<stdin>`).
fn display_name(path: &str) -> &str {
    if path == "-" {
        "<stdin>"
    } else {
        path
    }
}

/// Resolve one `runs` query to exactly one manifest, or explain why not.
fn resolve_one(store: &RunStore, query: &str) -> Result<RunMeta, CliError> {
    match store.find(query).map_err(|e| CliError::Failure(format!("run registry: {e}")))? {
        Resolve::One(meta) => Ok(*meta),
        Resolve::Ambiguous(ids) => Err(CliError::Failure(format!(
            "run id `{query}` is ambiguous; it matches: {}",
            ids.join(", ")
        ))),
        Resolve::NotFound => Err(CliError::Failure(format!(
            "no run matching `{query}` in {}",
            store.root().display()
        ))),
    }
}

/// Turn a `runs diff` operand into a diffable artifact path: existing
/// paths (and `-` for stdin) pass through, anything else resolves in the
/// registry, preferring the recorded run report over the profile.
fn resolve_diffable(store: &RunStore, operand: &str) -> Result<String, CliError> {
    if operand == "-" || Path::new(operand).is_file() {
        return Ok(operand.to_string());
    }
    let meta = resolve_one(store, operand)?;
    let dir = store.run_dir(&meta.id);
    for name in ["report.json", "profile.json"] {
        let p = dir.join(name);
        if p.is_file() {
            return Ok(p.display().to_string());
        }
    }
    Err(CliError::Failure(format!(
        "run {} recorded no diffable artifact (report.json / profile.json)",
        meta.id
    )))
}

/// `mtasc runs list`: paginated, status-filtered registry listing.
pub fn cmd_runs_list(
    store: &RunStore,
    status: Option<RunStatus>,
    program: Option<&str>,
    limit: Option<usize>,
    offset: usize,
    json: bool,
) -> Result<String, CliError> {
    let (metas, skipped) =
        store.list().map_err(|e| CliError::Failure(format!("run registry: {e}")))?;
    // the same filter/paginate pipeline backs the server's /api/v1/runs,
    // keeping the two JSON surfaces byte-for-byte interchangeable
    let (page, total) = filter_list(metas, status, program, limit, offset);
    if json {
        return Ok(list_to_json(&page).to_pretty() + "\n");
    }
    let mut out = render_list(&page);
    if page.len() < total {
        let _ = writeln!(out, "({} of {} runs shown)", page.len(), total);
    }
    if skipped > 0 {
        let _ = writeln!(out, "warning: skipped {skipped} malformed index line(s)");
    }
    Ok(out)
}

/// Resolve a `--program` operand: an existing source file is lowered
/// (if ASCL) and hashed the same way run recording hashes it; anything
/// else is taken as a literal `fnv1a64:` hash or hex prefix.
fn program_query(operand: &str) -> Result<String, CliError> {
    if Path::new(operand).is_file() {
        let src = std::fs::read_to_string(operand)
            .map_err(|e| CliError::Failure(format!("{operand}: {e}")))?;
        let src = lower_if_ascl(operand, &src)?;
        Ok(program_hash(&src))
    } else {
        Ok(operand.to_string())
    }
}

/// `mtasc runs show`: manifest plus whatever recorded tables the run has
/// (profile hot spots, or the run report's counters).
pub fn cmd_runs_show(store: &RunStore, id: &str, top: usize) -> Result<String, CliError> {
    let meta = resolve_one(store, id)?;
    let dir = store.run_dir(&meta.id);
    let mut out = meta.to_text();
    let profile_path = dir.join("profile.json");
    let report_path = dir.join("report.json");
    if profile_path.is_file() {
        let text = std::fs::read_to_string(&profile_path)
            .map_err(|e| CliError::Failure(format!("{}: {e}", profile_path.display())))?;
        let profile = Profile::parse(&text)
            .map_err(|e| CliError::Failure(format!("{}: {e}", profile_path.display())))?;
        out.push('\n');
        out.push_str(&profile.render_table(None, None, top));
    } else if report_path.is_file() {
        let text = std::fs::read_to_string(&report_path)
            .map_err(|e| CliError::Failure(format!("{}: {e}", report_path.display())))?;
        let v = Json::parse(&text)
            .map_err(|e| CliError::Failure(format!("{}: {e}", report_path.display())))?;
        let report = RunReport::from_json(&v).ok_or_else(|| {
            CliError::Failure(format!("{}: malformed run report", report_path.display()))
        })?;
        out.push('\n');
        out.push_str(&report.totals.report());
    }
    Ok(out)
}

/// `mtasc runs gc`: keep the newest N runs, prune the rest.
pub fn cmd_runs_gc(store: &RunStore, keep: usize) -> Result<String, CliError> {
    let removed = store.gc(keep).map_err(|e| CliError::Failure(format!("run registry: {e}")))?;
    if removed.is_empty() {
        return Ok(format!("nothing to prune (keeping up to {keep})\n"));
    }
    let mut out = format!("pruned {} run(s):\n", removed.len());
    for id in &removed {
        let _ = writeln!(out, "  {id}");
    }
    Ok(out)
}

/// `mtasc runs export --prometheus`: text exposition format.
pub fn cmd_runs_export_prometheus(
    store: &RunStore,
    out_path: Option<&str>,
) -> Result<String, CliError> {
    let text = store.prometheus().map_err(|e| CliError::Failure(format!("run registry: {e}")))?;
    match out_path {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            Ok(format!("prometheus metrics written to {path}\n"))
        }
        None => Ok(text),
    }
}

/// `mtasc runs watch`: render a run's recorded heartbeats; with follow
/// (the default) keep tailing the file until the final sample lands.
pub fn cmd_runs_watch(
    store: &RunStore,
    id: &str,
    follow: bool,
    poll_ms: u64,
) -> Result<String, CliError> {
    let meta = resolve_one(store, id)?;
    let dir = store.run_dir(&meta.id);
    let path = dir.join(HEARTBEAT_FILE);
    // the same torn-tail-tolerant follower backs the server's SSE streams
    let mut tail = HeartbeatTail::new(&path);
    if !follow {
        if !path.is_file() {
            return Err(CliError::Failure(format!("{}: no heartbeats recorded", path.display())));
        }
        let batch = drain_heartbeats(&mut tail)?;
        let mut out = format!("run {} ({} {})\n", meta.id, meta.kind, meta.name);
        for s in &batch {
            out.push_str(&s.render());
            out.push('\n');
        }
        return Ok(out);
    }
    println!("watching run {} ({} {})", meta.id, meta.kind, meta.name);
    let mut finished = false;
    loop {
        for s in &drain_heartbeats(&mut tail)? {
            println!("{}", s.render());
            finished |= s.final_sample;
        }
        if finished {
            break;
        }
        // a run that died without a final heartbeat still terminates the
        // watch once its manifest leaves the `running` state — after one
        // more drain so recorded-but-unread samples are not dropped
        if let Ok(text) = std::fs::read_to_string(dir.join(META_FILE)) {
            finished = RunMeta::parse(&text).is_ok_and(|m| m.status != RunStatus::Running);
        }
        if !finished {
            std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(10)));
        }
    }
    let final_meta = resolve_one(store, &meta.id)?;
    Ok(format!("run {} finished: {}\n", final_meta.id, final_meta.status))
}

/// Poll a heartbeat tail once, promoting malformed lines to errors (the
/// watcher is strict where the server merely skips).
fn drain_heartbeats(tail: &mut HeartbeatTail) -> Result<Vec<ProgressSample>, CliError> {
    let batch =
        tail.poll().map_err(|e| CliError::Failure(format!("{}: {e}", tail.path().display())))?;
    if let Some(&line) = batch.malformed.first() {
        return Err(CliError::Failure(format!(
            "{}: malformed heartbeat on line {line}",
            tail.path().display()
        )));
    }
    Ok(batch.samples)
}

/// `mtasc serve`: the HTTP observability daemon. Binds first (so an
/// ephemeral `:0` port is resolved), prints the listening line
/// immediately — scripts parse it to find the port — then blocks in the
/// accept loop until SIGINT/SIGTERM (or the shutdown flag) stops it.
pub fn cmd_serve(opts: &MachineOpts, addr: &str, workers: usize) -> Result<String, CliError> {
    let runs_dir = match &opts.runs_dir {
        Some(dir) => PathBuf::from(dir),
        None => RunStore::default_root(),
    };
    let serve_opts = ServeOpts {
        addr: addr.to_string(),
        runs_dir: Some(runs_dir),
        workers,
        ..ServeOpts::default()
    };
    let server =
        Server::bind(&serve_opts).map_err(|e| CliError::Failure(format!("bind {addr}: {e}")))?;
    install_signal_shutdown(server.shutdown_handle());
    println!(
        "mtasc serve listening on http://{} (registry {})",
        server.local_addr(),
        server.root().display()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| CliError::Failure(format!("serve: {e}")))?;
    Ok("mtasc serve stopped\n".to_string())
}

/// Load the metrics registry out of a saved JSON artifact: a
/// `mtasc.run_report.v1` document contributes its full registry, a
/// `mtasc.profile.v1` document its summary registry, and the benchmark
/// tables (`mtasc.kernels.v1` / `mtasc.pe_scaling.v1`) lower each entry
/// into per-kernel/per-size wall-time and throughput metrics. Returns the
/// artifact kind alongside so mixed-kind diffs can be rejected.
fn load_registry(path: &str) -> Result<(&'static str, Registry), CliError> {
    let text = read_input(path)?;
    let path = display_name(path);
    let v = Json::parse(&text).map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
    match v.get("schema").and_then(Json::as_str) {
        Some(REPORT_SCHEMA) => {
            let report = RunReport::from_json(&v)
                .ok_or_else(|| CliError::Failure(format!("{path}: malformed run report")))?;
            Ok(("run report", report.metrics))
        }
        Some(PROFILE_SCHEMA) => {
            let profile = Profile::from_json(&v)
                .ok_or_else(|| CliError::Failure(format!("{path}: malformed profile")))?;
            Ok(("profile", profile.summary_registry()))
        }
        Some("mtasc.kernels.v1") => {
            let reg = bench_registry(&v, "kernels", "name", "kernel")
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            Ok(("kernel bench table", reg))
        }
        Some("mtasc.pe_scaling.v1") => {
            let reg = bench_registry(&v, "points", "num_pes", "pes")
                .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
            Ok(("pe-scaling sweep", reg))
        }
        Some(other) => {
            Err(CliError::Failure(format!("{path}: schema `{other}` has no metrics to diff")))
        }
        None => Err(CliError::Failure(format!("{path}: missing `schema` field"))),
    }
}

/// Lower one benchmark table into a metrics registry: each entry of the
/// `rows` array (keyed by `key`) becomes `{prefix}.{key}.wall_ms` /
/// `.instr_per_sec` gauges (which `direction_of` knows how to gate) plus
/// neutral `.instructions` / `.cycles` counters. Kernel tables also get a
/// `geomean.wall_ms` gauge — the suite-wide speedup summary that CI's
/// `--fail-on-regress` and speedup checks key off.
fn bench_registry(v: &Json, rows: &str, key: &str, prefix: &str) -> Result<Registry, String> {
    let entries = v.get(rows).and_then(Json::as_arr).ok_or(format!("missing `{rows}` array"))?;
    let mut reg = Registry::new();
    let mut log_sum = 0.0;
    for (i, e) in entries.iter().enumerate() {
        let label = match e.get(key) {
            Some(Json::U64(n)) => n.to_string(),
            Some(k) => k.as_str().ok_or(format!("{rows}[{i}]: bad `{key}`"))?.to_string(),
            None => return Err(format!("{rows}[{i}]: missing `{key}`")),
        };
        let f64_field = |field: &str| {
            e.get(field).and_then(Json::as_f64).ok_or(format!("{rows}[{i}]: missing `{field}`"))
        };
        let wall_ms = f64_field("wall_seconds")? * 1e3;
        reg.gauge_set(&format!("{prefix}.{label}.wall_ms"), wall_ms);
        reg.gauge_set(&format!("{prefix}.{label}.instr_per_sec"), f64_field("instr_per_sec")?);
        for counter in ["instructions", "cycles"] {
            let n = e
                .get(counter)
                .and_then(Json::as_u64)
                .ok_or(format!("{rows}[{i}]: missing `{counter}`"))?;
            reg.counter_add(&format!("{prefix}.{label}.{counter}"), n);
        }
        // scale-out sweep extras, when present. `wall_ms_1seg` must NOT
        // end in `.wall_ms`: the monolithic reference is context, not a
        // gated latency, so it stays Neutral under `--fail-on-regress`.
        if let Some(w1) = e.get("wall_seconds_1seg").and_then(Json::as_f64) {
            reg.gauge_set(&format!("{prefix}.{label}.wall_ms_1seg"), w1 * 1e3);
        }
        if let Some(bpp) = e.get("bytes_per_pe").and_then(Json::as_f64) {
            reg.gauge_set(&format!("{prefix}.{label}.bytes_per_pe"), bpp);
        }
        log_sum += wall_ms.ln();
    }
    if prefix == "kernel" && !entries.is_empty() {
        reg.gauge_set("geomean.wall_ms", (log_sum / entries.len() as f64).exp());
    }
    Ok(reg)
}

/// `mtasc stats diff`: per-metric deltas between two saved artifacts,
/// with an optional `--fail-on-regress PCT` CI gate.
pub fn cmd_stats_diff(
    a_path: &str,
    b_path: &str,
    fail_on_regress: Option<f64>,
    all: bool,
) -> Result<String, CliError> {
    let (kind_a, reg_a) = load_registry(a_path)?;
    let (kind_b, reg_b) = load_registry(b_path)?;
    let (a_path, b_path) = (display_name(a_path), display_name(b_path));
    if kind_a != kind_b {
        return Err(CliError::Failure(format!(
            "cannot diff a {kind_a} ({a_path}) against a {kind_b} ({b_path})"
        )));
    }
    let entries = diff_registries(&reg_a, &reg_b);
    let mut out = format!("{kind_a} diff: {a_path} -> {b_path}\n");
    out.push_str(&render_diff(&entries, all));
    if let Some(threshold) = fail_on_regress {
        let gate = RegressionCheck { threshold_pct: threshold };
        let regressions = gate.regressions(&entries);
        if regressions.is_empty() {
            let _ = writeln!(out, "regression gate: ok (threshold {threshold}%)");
        } else {
            let _ = writeln!(
                out,
                "regression gate FAILED: {} metric(s) regressed past {threshold}%:",
                regressions.len()
            );
            for e in regressions {
                out.push_str(&e.render());
                out.push('\n');
            }
            return Err(CliError::Failure(out.trim_end().to_string()));
        }
    }
    Ok(out)
}

/// Structural check of one benchmark-table entry (used by the
/// `mtasc.kernels.v1` / `mtasc.pe_scaling.v1` validators).
fn check_bench_point(v: &Json, fields: &[&str]) -> Result<(), String> {
    for field in fields {
        let val = v.get(field).ok_or_else(|| format!("missing field `{field}`"))?;
        let ok = match *field {
            "name" => val.as_str().is_some(),
            _ => val.as_u64().is_some() || val.as_f64().is_some(),
        };
        if !ok {
            return Err(format!("field `{field}` has the wrong type"));
        }
    }
    Ok(())
}

/// `mtasc stats validate`: check saved JSON artifacts against their
/// declared schemas. Full parse for run reports and profiles, structural
/// checks for benchmark tables.
pub fn cmd_stats_validate(paths: &[String]) -> Result<String, CliError> {
    let mut out = String::new();
    let mut bad = 0usize;
    for path in paths {
        let verdict = validate_one(path);
        match verdict {
            Ok(schema) => {
                let _ = writeln!(out, "{path}: ok ({schema})");
            }
            Err(msg) => {
                bad += 1;
                let _ = writeln!(out, "{path}: FAIL ({msg})");
            }
        }
    }
    if bad == 0 {
        Ok(out)
    } else {
        let _ = write!(out, "{bad} file(s) failed validation");
        Err(CliError::Failure(out))
    }
}

fn validate_one(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let v = Json::parse(&text).map_err(|e| e.to_string())?;
    // a bare array is a run listing — the `runs list --json` document,
    // also served as `GET /api/v1/runs`: every element must be a manifest
    if let Json::Arr(items) = &v {
        for (i, item) in items.iter().enumerate() {
            let schema = item
                .get("schema")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("[{i}]: missing `schema` field"))?;
            if schema != RUN_META_SCHEMA {
                return Err(format!(
                    "[{i}]: expected {RUN_META_SCHEMA} in a run listing, got `{schema}`"
                ));
            }
            RunMeta::from_json(item).ok_or_else(|| format!("[{i}]: malformed run manifest"))?;
        }
        return Ok(format!("{RUN_META_SCHEMA} list, {} run(s)", items.len()));
    }
    let schema = v.get("schema").and_then(Json::as_str).ok_or("missing `schema` field")?;
    match schema {
        REPORT_SCHEMA => {
            RunReport::from_json(&v).ok_or("malformed run report")?;
        }
        PROFILE_SCHEMA => {
            Profile::from_json(&v).ok_or("malformed profile")?;
        }
        RUN_META_SCHEMA => {
            RunMeta::from_json(&v).ok_or("malformed run manifest")?;
        }
        "mtasc.lint.v1" => {
            v.get("program")
                .and_then(|p| p.get("len"))
                .and_then(Json::as_u64)
                .ok_or("missing `program.len`")?;
            let diags =
                v.get("diagnostics").and_then(Json::as_arr).ok_or("missing `diagnostics`")?;
            let mut counts = [0u64; 3]; // errors, warnings, notes
            for (i, d) in diags.iter().enumerate() {
                let sev = d
                    .get("severity")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("diagnostics[{i}]: missing `severity`"))?;
                let slot = match sev {
                    "error" => 0,
                    "warning" => 1,
                    "note" => 2,
                    other => return Err(format!("diagnostics[{i}]: unknown severity `{other}`")),
                };
                counts[slot] += 1;
                let code = d
                    .get("code")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("diagnostics[{i}]: missing `code`"))?;
                if asc_verify::explain(code).is_none() {
                    return Err(format!("diagnostics[{i}]: code `{code}` not in the catalog"));
                }
                d.get("pc")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("diagnostics[{i}]: missing `pc`"))?;
                d.get("message")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("diagnostics[{i}]: missing `message`"))?;
            }
            let summary = v.get("summary").ok_or("missing `summary`")?;
            for (field, expect) in ["errors", "warnings", "notes"].iter().zip(counts) {
                let got = summary
                    .get(field)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("summary: missing `{field}`"))?;
                if got != expect {
                    return Err(format!(
                        "summary: `{field}` says {got} but the report lists {expect}"
                    ));
                }
            }
        }
        "mtasc.kernels.v1" => {
            v.get("num_pes").and_then(Json::as_u64).ok_or("missing `num_pes`")?;
            let kernels = v.get("kernels").and_then(Json::as_arr).ok_or("missing `kernels`")?;
            for (i, k) in kernels.iter().enumerate() {
                check_bench_point(
                    k,
                    &["name", "instructions", "cycles", "wall_seconds", "instr_per_sec"],
                )
                .map_err(|e| format!("kernels[{i}]: {e}"))?;
            }
        }
        "mtasc.pe_scaling.v1" => {
            v.get("kernel").and_then(Json::as_str).ok_or("missing `kernel`")?;
            let points = v.get("points").and_then(Json::as_arr).ok_or("missing `points`")?;
            for (i, p) in points.iter().enumerate() {
                check_bench_point(
                    p,
                    &["num_pes", "instructions", "cycles", "wall_seconds", "instr_per_sec"],
                )
                .map_err(|e| format!("points[{i}]: {e}"))?;
                // optional fields added by the scale-out sweep: typed when
                // present, absent in pre-segmentation tables
                for field in
                    ["segments", "queries", "wall_seconds_1seg", "committed_bytes", "bytes_per_pe"]
                {
                    if let Some(val) = p.get(field) {
                        if val.as_u64().is_none() && val.as_f64().is_none() {
                            return Err(format!("points[{i}]: field `{field}` has the wrong type"));
                        }
                    }
                }
            }
        }
        other => return Err(format!("unknown schema `{other}`")),
    }
    Ok(schema.to_string())
}

/// `mtasc stats`: pretty-print a saved JSON run report.
pub fn cmd_stats(text: &str) -> Result<String, CliError> {
    let report =
        RunReport::parse(text).map_err(|e| CliError::Failure(format!("bad run report: {e}")))?;
    Ok(report.to_text())
}

/// `mtasc asm`: hex words, one per line.
pub fn cmd_asm(source: &str) -> Result<String, CliError> {
    let program = asc_asm::assemble(source)
        .map_err(|errs| CliError::Failure(asc_asm::render_errors(&errs)))?;
    let mut out = String::new();
    for w in program.words() {
        let _ = writeln!(out, "{w:08x}");
    }
    Ok(out)
}

/// `mtasc disasm`: hex words (one per line, `#` comments allowed) back to
/// text.
pub fn cmd_disasm(text: &str) -> Result<String, CliError> {
    let mut out = String::new();
    for (lineno, line) in text.lines().enumerate() {
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let word = u32::from_str_radix(body.trim_start_matches("0x"), 16)
            .map_err(|_| CliError::Failure(format!("line {}: bad hex `{body}`", lineno + 1)))?;
        match asc_isa::decode(word) {
            Ok(i) => {
                let _ = writeln!(out, "{}", asc_asm::disassemble(&i));
            }
            Err(e) => {
                let _ = writeln!(out, "; {word:08x}: {e}");
            }
        }
    }
    Ok(out)
}

/// Parsed `mtasc lint` flags.
#[derive(Debug, Clone, Default)]
pub struct LintOpts {
    /// Emit the `mtasc.lint.v1` JSON report instead of text.
    pub json: bool,
    /// Treat warnings as fatal (notes never fail a program).
    pub deny_warnings: bool,
    /// Lint the asc-kernels corpus instead of a file.
    pub kernels: bool,
    /// Additionally run the program under this many perturbed schedules
    /// (seeds `0..N`) and fail on architectural-state divergence.
    pub schedules: Option<u64>,
}

/// `mtasc lint <file>`: assemble and statically analyze one program.
/// Returns `Err(CliError::Failure)` carrying the rendered report when the
/// program is not clean, so the findings are printed *and* the exit code
/// is 1.
pub fn cmd_lint(
    source: &str,
    path: &str,
    cfg: &MachineConfig,
    opts: &LintOpts,
) -> Result<String, CliError> {
    let program = asc_asm::assemble(source)
        .map_err(|errs| CliError::Failure(asc_asm::render_errors_with_source(source, &errs)))?;
    let report = asc_verify::analyze(&program, cfg);
    let mut out = if opts.json {
        report.to_json().to_pretty() + "\n"
    } else {
        report.render(Some(source), path)
    };
    let mut diverged = false;
    if let Some(seeds) = opts.schedules {
        let (section, div) = explore_schedules(&program, cfg, seeds);
        diverged = div;
        if !opts.json {
            out.push_str(&section);
        }
    }
    if report.is_clean(opts.deny_warnings) && !diverged {
        Ok(out)
    } else {
        Err(CliError::Failure(out.trim_end().to_string()))
    }
}

/// Cycle budget for one `--schedules` exploration run; programs a lint
/// invocation looks at finish far below this, and a runaway program is
/// reported as a fault outcome rather than hanging the lint.
const SCHEDULE_BUDGET: u64 = 10_000_000;

/// Execute the program under `seeds` perturbed legal schedules (seed 0
/// is the unperturbed rotating-priority baseline) and compare the final
/// architectural state digests. Returns the rendered section and whether
/// the outcomes diverged.
fn explore_schedules(
    program: &asc_asm::Program,
    cfg: &MachineConfig,
    seeds: u64,
) -> (String, bool) {
    let mut outcomes: Vec<(u64, String)> = Vec::new();
    for seed in 0..seeds {
        let outcome = match Machine::with_program(cfg.with_sched_seed(seed), program) {
            Ok(mut m) => match m.run(SCHEDULE_BUDGET) {
                Ok(_) => format!("state digest {:#018x}", m.arch_digest()),
                Err(e) => format!("fault: {e}"),
            },
            Err(e) => format!("load error: {e}"),
        };
        outcomes.push((seed, outcome));
    }
    let distinct: BTreeSet<&String> = outcomes.iter().map(|(_, o)| o).collect();
    let diverged = distinct.len() > 1;
    let mut section = format!("schedule exploration: {seeds} seeds\n");
    for (seed, outcome) in &outcomes {
        let _ = writeln!(section, "  seed {seed:>3}: {outcome}");
    }
    if diverged {
        let _ = writeln!(
            section,
            "DIVERGENT: {} distinct outcomes — the schedule alone decides the result",
            distinct.len()
        );
    } else {
        let _ = writeln!(section, "schedule-invariant: all seeds agree");
    }
    (section, diverged)
}

/// `mtasc lint --kernels`: lint every program in the asc-kernels corpus.
/// One status line per kernel; findings (if any) printed underneath.
pub fn cmd_lint_kernels(cfg: &MachineConfig, opts: &LintOpts) -> Result<String, CliError> {
    let mut out = String::new();
    let mut dirty = 0usize;
    for (name, src) in asc_kernels::harness::corpus() {
        let program = asc_asm::assemble(&src).map_err(|errs| {
            CliError::Failure(format!(
                "kernel `{name}` failed to assemble:\n{}",
                asc_asm::render_errors_with_source(&src, &errs)
            ))
        })?;
        let report = asc_verify::analyze(&program, cfg);
        let clean = report.is_clean(opts.deny_warnings);
        let _ = writeln!(
            out,
            "{name}: {} ({} instructions, {} errors, {} warnings, {} notes)",
            if clean { "ok" } else { "FAIL" },
            report.program_len,
            report.error_count(),
            report.warning_count(),
            report.note_count()
        );
        if !clean {
            dirty += 1;
            for line in report.render(Some(&src), &name).lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
    }
    if dirty == 0 {
        Ok(out)
    } else {
        let _ = write!(out, "{dirty} kernel(s) failed lint");
        Err(CliError::Failure(out))
    }
}

/// `mtasc lint --explain CODE`: the long-form description of a
/// diagnostic code from the [`asc_verify::CODES`] catalog. `--explain
/// all` dumps the whole catalog; an unknown code fails with a
/// nearest-code hint.
pub fn cmd_explain(code: &str) -> Result<String, CliError> {
    if code.eq_ignore_ascii_case("all") {
        let mut out = String::new();
        for info in asc_verify::CODES {
            let _ = writeln!(
                out,
                "{}[{}]: {}\n\n{}\n",
                info.severity.label(),
                info.code,
                info.summary,
                info.explanation
            );
        }
        return Ok(out);
    }
    let info = asc_verify::explain(code).ok_or_else(|| {
        let nearest = asc_verify::CODES
            .iter()
            .min_by_key(|i| edit_distance(&code.to_ascii_uppercase(), i.code))
            .map(|i| i.code)
            .unwrap_or("E0001");
        CliError::Failure(format!(
            "unknown diagnostic code `{code}`; did you mean `{nearest}`? (`mtasc lint \
             --explain all` lists the whole catalog; see docs/static-analysis.md)"
        ))
    })?;
    Ok(format!(
        "{}[{}]: {}\n\n{}\n",
        info.severity.label(),
        info.code,
        info.summary,
        info.explanation
    ))
}

/// Levenshtein distance, for the `--explain` nearest-code hint. Codes
/// are 5 bytes, so the quadratic table is trivially small.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<u8>, Vec<u8>) = (a.bytes().collect(), b.bytes().collect());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cur = row[j + 1];
            row[j + 1] = (prev + usize::from(ca != cb)).min(row[j] + 1).min(cur + 1);
            prev = cur;
        }
    }
    row[b.len()]
}

/// `mtasc info`: geometry, figures, resource model.
pub fn cmd_info(opts: MachineOpts) -> String {
    let cfg = opts.config();
    let t = cfg.timing();
    let fc = FpgaConfig::from_machine(&cfg);
    let report = ResourceReport::model(&fc);
    let clock = ClockModel::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "MTASC machine: {} PEs ({}), {} threads, broadcast arity {}",
        cfg.num_pes, cfg.width, cfg.threads, cfg.broadcast_arity
    );
    let _ = writeln!(out, "latencies: broadcast b = {}, reduction r = {} cycles", t.b, t.r);
    let _ = writeln!(
        out,
        "estimated clock: {:.1} MHz pipelined ({:.1} MHz if non-pipelined)\n",
        clock.pipelined_mhz(&fc),
        clock.nonpipelined_mhz(&fc)
    );
    out.push_str(&pipeline_organization(&t));
    out.push('\n');
    out.push_str(&control_unit_organization(&cfg));
    out.push('\n');
    out.push_str(&report.render_table(&Device::ep2c35()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_options() {
        let mut args: Vec<String> =
            ["run", "--pes", "64", "x.asc", "--trace", "--width", "8", "--no-forwarding"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let opts = MachineOpts::parse(&mut args).unwrap();
        assert_eq!(opts.pes, 64);
        assert_eq!(opts.width, Width::W8);
        assert!(opts.trace);
        assert!(!opts.forwarding);
        assert_eq!(args, vec!["run", "x.asc"]);
    }

    #[test]
    fn parse_fusion_flags() {
        let mut args: Vec<String> = ["run", "x.asc", "--no-fuse", "--no-simd", "--fusion-stats"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = MachineOpts::parse(&mut args).unwrap();
        assert!(!opts.fusion);
        assert!(!opts.simd);
        assert!(opts.fusion_stats);
        assert!(!opts.config().fusion);
        assert!(!opts.config().simd);
        assert_eq!(opts.config().simd_level(), asc_core::SimdLevel::Scalar);
        assert!(MachineOpts::default().config().fusion, "fusion is the default");
        assert!(MachineOpts::default().config().simd, "SIMD dispatch is the default");
    }

    #[test]
    fn parse_segments_flag() {
        let mut args: Vec<String> =
            ["run", "x.asc", "--segments", "4"].iter().map(|s| s.to_string()).collect();
        let opts = MachineOpts::parse(&mut args).unwrap();
        assert_eq!(opts.segments, 4);
        assert_eq!(opts.config().segments, 4);
        assert_eq!(MachineOpts::default().config().segments, 0, "auto slicing is the default");
    }

    #[test]
    fn version_surfaces_execution_strategy() {
        let text = version_text();
        assert!(text.contains(REPORT_SCHEMA), "{text}");
        assert!(text.contains("execution: simd "), "{text}");
        assert!(text.contains("segments "), "{text}");
        assert!(text.contains("MTASC_SEGMENTS"), "{text}");
        let workers = format!("host workers {}", asc_core::host_workers());
        assert!(text.contains(&workers), "{text}");
        assert!(!text.contains("THRESHOLD"), "{text}");
    }

    #[test]
    fn fusion_stats_are_printed_and_identical_without_fusion() {
        let src = "pidx p1\npaddi p2, p1, 3\npclti pf1, p2, 4\nrcount s1, pf1\nhalt\n";
        let fused =
            cmd_run(src, MachineOpts { fusion_stats: true, ..MachineOpts::default() }).unwrap();
        assert!(fused.contains("block fusion:"), "{fused}");
        assert!(fused.contains("1 blocks executed"), "{fused}");
        let unfused = cmd_run(
            src,
            MachineOpts { fusion: false, fusion_stats: true, ..MachineOpts::default() },
        )
        .unwrap();
        assert!(unfused.contains("0 blocks executed"), "{unfused}");
        // identical run output apart from the fusion block
        let strip = |s: &str| {
            s.lines()
                .filter(|l| {
                    !l.contains("fusion")
                        && !l.contains("static")
                        && !l.contains("dynamic")
                        && !l.contains("compile")
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&fused), strip(&unfused));
        // and the scalar-kernel escape hatch changes nothing either
        let no_simd =
            cmd_run(src, MachineOpts { simd: false, fusion_stats: true, ..MachineOpts::default() })
                .unwrap();
        assert!(no_simd.contains("0 SIMD-bound at scalar"), "{no_simd}");
        assert_eq!(strip(&fused), strip(&no_simd));
    }

    #[test]
    fn bad_option_values() {
        let mut args: Vec<String> = ["--pes", "lots"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(MachineOpts::parse(&mut args), Err(CliError::Usage(_))));
        let mut args: Vec<String> = ["--width", "12"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(MachineOpts::parse(&mut args), Err(CliError::Usage(_))));
        let mut args: Vec<String> = vec!["--pes".to_string()];
        assert!(matches!(MachineOpts::parse(&mut args), Err(CliError::Usage(_))));
    }

    #[test]
    fn run_reports_results() {
        let out = cmd_run(
            "pidx p1\nrsum s1, p1\nhalt\n",
            MachineOpts { trace: true, ..MachineOpts::default() },
        )
        .unwrap();
        assert!(out.contains("s1"));
        assert!(out.contains("120")); // sum 0..=15
        assert!(out.contains("IPC"));
        assert!(out.contains("WB"), "trace diagram present");
    }

    #[test]
    fn report_and_trace_json_flags() {
        let dir = std::env::temp_dir().join("mtasc_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("report.json");
        let trace_path = dir.join("trace.jsonl");
        let out = cmd_run(
            "pidx p1\nrsum s1, p1\nhalt\n",
            MachineOpts {
                report: Some(report_path.to_string_lossy().into_owned()),
                trace_json: Some(trace_path.to_string_lossy().into_owned()),
                ..MachineOpts::default()
            },
        )
        .unwrap();
        assert!(out.contains("run report written to"));
        assert!(out.contains("trace events written to"));

        // the report's totals must exactly match what the text run printed
        let text = std::fs::read_to_string(&report_path).unwrap();
        let report = RunReport::parse(&text).unwrap();
        assert!(out.contains(&format!("cycles: {}", report.totals.cycles)));
        assert!(out.contains(&format!("issued: {} ", report.totals.issued)));
        let summary = cmd_stats(&text).unwrap();
        assert!(summary.starts_with("machine: 16 PEs"));
        assert!(summary.contains("IPC"));

        // the trace parses back and has one issue event per instruction
        let trace_text = std::fs::read_to_string(&trace_path).unwrap();
        let events = asc_core::obs::parse_json_lines(&trace_text).unwrap();
        let issues =
            events.iter().filter(|e| matches!(e, asc_core::obs::TraceEvent::Issue { .. })).count()
                as u64;
        assert_eq!(issues, report.totals.issued);
    }

    #[test]
    fn profile_reports_conservation_and_hot_spots() {
        let dir = std::env::temp_dir().join("mtasc_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("profile.json");
        let out = cmd_profile(
            "pidx p1\nrsum s1, p1\nadd s2, s1, s1\nhalt\n",
            MachineOpts::default(),
            5,
            Some(&json_path.to_string_lossy()),
        )
        .unwrap();
        assert!(out.contains("conservation: exact"), "{out}");
        assert!(out.contains("rsum"), "hot table shows disassembly: {out}");
        assert!(out.contains("profile written to"), "{out}");
        // the JSON document round-trips losslessly
        let text = std::fs::read_to_string(&json_path).unwrap();
        let profile = Profile::parse(&text).unwrap();
        assert_eq!(profile.to_json().to_pretty(), text);
    }

    #[test]
    fn profile_dispatch_parses_flags() {
        let dir = std::env::temp_dir().join("mtasc_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("prog.asc");
        std::fs::write(&f, "pidx p1\nrsum s1, p1\nhalt\n").unwrap();
        let path = f.to_string_lossy().into_owned();
        let out = dispatch(vec![
            "profile".into(),
            path.clone(),
            "--top".into(),
            "3".into(),
            "--no-record".into(),
        ])
        .unwrap();
        assert!(out.contains("cycles:"), "{out}");
        assert!(matches!(dispatch(vec!["profile".into()]), Err(CliError::Usage(_))));
        assert!(matches!(
            dispatch(vec!["profile".into(), path, "--bogus".into(), "--no-record".into()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn trace_chrome_writes_a_loadable_trace() {
        let dir = std::env::temp_dir().join("mtasc_chrome_test");
        std::fs::create_dir_all(&dir).unwrap();
        let chrome_path = dir.join("trace.chrome.json");
        let jsonl_path = dir.join("trace.jsonl");
        let out = cmd_run(
            "pidx p1\nrsum s1, p1\nhalt\n",
            MachineOpts {
                trace_chrome: Some(chrome_path.to_string_lossy().into_owned()),
                trace_json: Some(jsonl_path.to_string_lossy().into_owned()),
                ..MachineOpts::default()
            },
        )
        .unwrap();
        assert!(out.contains("chrome trace written to"), "{out}");
        assert!(out.contains("trace events written to"), "{out}");
        // the chrome trace is valid JSON with a traceEvents array
        let text = std::fs::read_to_string(&chrome_path).unwrap();
        let v = Json::parse(&text).unwrap();
        assert!(!v.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
        // the buffered JSON-Lines file parses back
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        assert!(!parse_json_lines(&jsonl).unwrap().is_empty());
    }

    #[test]
    fn trace_convert_round_trips_a_jsonl_trace() {
        let dir = std::env::temp_dir().join("mtasc_convert_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl_path = dir.join("conv.jsonl");
        cmd_run(
            "pidx p1\nrsum s1, p1\nhalt\n",
            MachineOpts {
                trace_json: Some(jsonl_path.to_string_lossy().into_owned()),
                ..MachineOpts::default()
            },
        )
        .unwrap();
        let out = dispatch(vec![
            "trace".into(),
            "convert".into(),
            jsonl_path.to_string_lossy().into_owned(),
        ])
        .unwrap();
        let v = Json::parse(&out).unwrap();
        assert!(!v.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
        assert!(matches!(
            dispatch(vec!["trace".into(), "frobnicate".into()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn stats_diff_and_regression_gate() {
        let dir = std::env::temp_dir().join("mtasc_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let fast = dir.join("fast.json");
        let slow = dir.join("slow.json");
        for (path, forwarding) in [(&fast, true), (&slow, false)] {
            cmd_run(
                "pidx p1\nrsum s1, p1\nadd s2, s1, s1\nhalt\n",
                MachineOpts {
                    forwarding,
                    report: Some(path.to_string_lossy().into_owned()),
                    ..MachineOpts::default()
                },
            )
            .unwrap();
        }
        let fast_s = fast.to_string_lossy().into_owned();
        let slow_s = slow.to_string_lossy().into_owned();
        let out =
            dispatch(vec!["stats".into(), "diff".into(), fast_s.clone(), fast_s.clone()]).unwrap();
        assert!(out.contains("no metric changes"), "{out}");
        // same report twice always passes the gate
        assert!(dispatch(vec![
            "stats".into(),
            "diff".into(),
            fast_s.clone(),
            fast_s.clone(),
            "--fail-on-regress".into(),
            "0".into()
        ])
        .is_ok());
        assert!(matches!(
            dispatch(vec!["stats".into(), "diff".into(), fast_s.clone()]),
            Err(CliError::Usage(_))
        ));
        let out = dispatch(vec!["stats".into(), "diff".into(), fast_s, slow_s]).unwrap();
        assert!(out.contains("metric(s) changed"), "{out}");
    }

    #[test]
    fn stats_diff_profiles_and_rejects_mixed_kinds() {
        let dir = std::env::temp_dir().join("mtasc_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prof = dir.join("p.json");
        let report = dir.join("r.json");
        let src = "pidx p1\nrsum s1, p1\nadd s2, s1, s1\nhalt\n";
        cmd_profile(src, MachineOpts::default(), 5, Some(&prof.to_string_lossy())).unwrap();
        cmd_run(
            src,
            MachineOpts {
                report: Some(report.to_string_lossy().into_owned()),
                ..MachineOpts::default()
            },
        )
        .unwrap();
        let p = prof.to_string_lossy().into_owned();
        let r = report.to_string_lossy().into_owned();
        let out = cmd_stats_diff(&p, &p, Some(0.0), false).unwrap();
        assert!(out.contains("profile diff"), "{out}");
        assert!(out.contains("regression gate: ok"), "{out}");
        let e = cmd_stats_diff(&p, &r, None, false).unwrap_err();
        assert!(e.to_string().contains("cannot diff"), "{e}");
    }

    #[test]
    fn stats_diff_gates_bench_tables() {
        let dir = std::env::temp_dir().join("mtasc_bench_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let kernels = |wall_sort: f64, wall_search: f64| {
            format!(
                r#"{{"schema":"mtasc.kernels.v1","num_pes":4096,"kernels":[
                    {{"name":"sort","instructions":100,"cycles":200,
                      "wall_seconds":{wall_sort},"instr_per_sec":{}}},
                    {{"name":"search","instructions":50,"cycles":80,
                      "wall_seconds":{wall_search},"instr_per_sec":{}}}]}}"#,
                100.0 / wall_sort,
                50.0 / wall_search
            )
        };
        let (a, b, c) = (dir.join("a.json"), dir.join("b.json"), dir.join("c.json"));
        std::fs::write(&a, kernels(0.002, 0.0001)).unwrap();
        std::fs::write(&b, kernels(0.001, 0.00008)).unwrap();
        std::fs::write(&c, kernels(0.004, 0.0001)).unwrap();
        let (a, b, c) = (
            a.to_string_lossy().into_owned(),
            b.to_string_lossy().into_owned(),
            c.to_string_lossy().into_owned(),
        );
        // a -> b is a pure speedup: the gate passes and the geomean summary
        // metric is present in the rendered table
        let out = cmd_stats_diff(&a, &b, Some(0.0), false).unwrap();
        assert!(out.contains("kernel bench table diff"), "{out}");
        assert!(out.contains("kernel.sort.wall_ms"), "{out}");
        assert!(out.contains("geomean.wall_ms"), "{out}");
        assert!(out.contains("regression gate: ok"), "{out}");
        // a -> c doubles sort's wall time: the gate must trip on it
        let e = cmd_stats_diff(&a, &c, Some(25.0), false).unwrap_err();
        assert!(e.to_string().contains("kernel.sort.wall_ms"), "{e}");
        // pe-scaling sweeps diff too, and a sweep extended with new sizes
        // must not regress (the new points have no baseline)
        let sweep = |extra: &str| {
            format!(
                r#"{{"schema":"mtasc.pe_scaling.v1","kernel":"associative_search","points":[
                    {{"num_pes":16,"instructions":10,"cycles":20,
                      "wall_seconds":0.001,"instr_per_sec":10000.0}}{extra}]}}"#
            )
        };
        let (s1, s2) = (dir.join("s1.json"), dir.join("s2.json"));
        std::fs::write(&s1, sweep("")).unwrap();
        std::fs::write(
            &s2,
            sweep(
                r#",{"num_pes":262144,"instructions":99,"cycles":120,
                   "wall_seconds":0.5,"instr_per_sec":198.0}"#,
            ),
        )
        .unwrap();
        let out =
            cmd_stats_diff(&s1.to_string_lossy(), &s2.to_string_lossy(), Some(0.0), false).unwrap();
        assert!(out.contains("pe-scaling sweep diff"), "{out}");
        assert!(out.contains("regression gate: ok"), "{out}");
        // mixed bench kinds are rejected like any other kind mismatch
        let e = cmd_stats_diff(&a, &s1.to_string_lossy(), None, false).unwrap_err();
        assert!(e.to_string().contains("cannot diff"), "{e}");
    }

    #[test]
    fn stats_validate_checks_declared_schemas() {
        let dir = std::env::temp_dir().join("mtasc_validate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("good.json");
        cmd_run(
            "pidx p1\nrsum s1, p1\nhalt\n",
            MachineOpts {
                report: Some(report.to_string_lossy().into_owned()),
                ..MachineOpts::default()
            },
        )
        .unwrap();
        let bench = dir.join("bench.json");
        std::fs::write(
            &bench,
            r#"{"schema":"mtasc.kernels.v1","num_pes":16,"kernels":[{"name":"sort",
                "instructions":10,"cycles":20,"wall_seconds":0.5,"instr_per_sec":20.0}]}"#,
        )
        .unwrap();
        let out = cmd_stats_validate(&[
            report.to_string_lossy().into_owned(),
            bench.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert!(out.contains("ok (mtasc.run_report.v1)"), "{out}");
        assert!(out.contains("ok (mtasc.kernels.v1)"), "{out}");
        // a malformed table fails with a pinpointed message
        let broken = dir.join("broken.json");
        std::fs::write(&broken, r#"{"schema":"mtasc.kernels.v1","num_pes":16,"kernels":[{}]}"#)
            .unwrap();
        let e = cmd_stats_validate(&[broken.to_string_lossy().into_owned()]).unwrap_err();
        assert!(e.to_string().contains("kernels[0]"), "{e}");
        let unknown = dir.join("unknown.json");
        std::fs::write(&unknown, r#"{"schema":"mtasc.nope.v9"}"#).unwrap();
        let e = cmd_stats_validate(&[unknown.to_string_lossy().into_owned()]).unwrap_err();
        assert!(e.to_string().contains("unknown schema"), "{e}");
        // the scale-out sweep fields are optional but typed when present
        let sweep = dir.join("sweep.json");
        std::fs::write(
            &sweep,
            r#"{"schema":"mtasc.pe_scaling.v1","kernel":"query_latency","points":[
                {"num_pes":65536,"instructions":10,"cycles":20,"wall_seconds":0.5,
                 "instr_per_sec":20.0,"segments":16,"queries":32,
                 "wall_seconds_1seg":0.7,"committed_bytes":1048576,"bytes_per_pe":16.0}]}"#,
        )
        .unwrap();
        let out = cmd_stats_validate(&[sweep.to_string_lossy().into_owned()]).unwrap();
        assert!(out.contains("ok (mtasc.pe_scaling.v1)"), "{out}");
        let bad_sweep = dir.join("bad_sweep.json");
        std::fs::write(
            &bad_sweep,
            r#"{"schema":"mtasc.pe_scaling.v1","kernel":"query_latency","points":[
                {"num_pes":65536,"instructions":10,"cycles":20,"wall_seconds":0.5,
                 "instr_per_sec":20.0,"segments":"sixteen"}]}"#,
        )
        .unwrap();
        let e = cmd_stats_validate(&[bad_sweep.to_string_lossy().into_owned()]).unwrap_err();
        assert!(e.to_string().contains("`segments` has the wrong type"), "{e}");
    }

    #[test]
    fn lossy_trace_warns_on_run() {
        // write to a JSON-Lines sink on a path whose directory is missing:
        // creation fails up front, so instead use a chrome-trace run with a
        // tiny max-cycles to keep it cheap and assert the non-lossy path
        // stays quiet
        let out = cmd_run("halt\n", MachineOpts::default()).unwrap();
        assert!(!out.contains("trace is lossy"), "{out}");
    }

    #[test]
    fn stats_rejects_garbage() {
        assert!(matches!(cmd_stats("not json"), Err(CliError::Failure(_))));
        assert!(matches!(cmd_stats("{}"), Err(CliError::Failure(_))));
    }

    #[test]
    fn empty_trace_prints_placeholder() {
        // a program whose first instruction halts still issues once, so
        // force the empty-record path directly through the library
        let t = MachineOpts::default().config().timing();
        assert_eq!(hazard_diagram(&[], &t), "(no issues recorded)\n");
    }

    #[test]
    fn run_surfaces_assembly_errors() {
        let e = cmd_run("frobnicate\n", MachineOpts::default()).unwrap_err();
        assert!(matches!(e, CliError::Failure(_)));
        assert!(e.to_string().contains("unknown mnemonic"));
    }

    #[test]
    fn asm_disasm_round_trip() {
        let hex = cmd_asm("add s1, s2, s3\nhalt\n").unwrap();
        let text = cmd_disasm(&hex).unwrap();
        assert_eq!(text, "add s1, s2, s3\nhalt\n");
    }

    #[test]
    fn disasm_flags_bad_words() {
        let out = cmd_disasm("ff000000\n").unwrap();
        assert!(out.contains("invalid opcode"));
        assert!(cmd_disasm("zzz\n").is_err());
    }

    #[test]
    fn ascl_files_are_lowered() {
        let dir = std::env::temp_dir().join("mtasc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("demo.ascl");
        std::fs::write(&f, "par x; x = index(); out(sum(x));").unwrap();
        let out =
            dispatch(vec!["run".into(), f.to_string_lossy().into_owned(), "--no-record".into()])
                .unwrap();
        assert!(out.contains("120"), "{out}"); // sum 0..=15
        let asm = dispatch(vec!["lower".into(), f.to_string_lossy().into_owned()]).unwrap();
        assert!(asm.contains("rsum"));
    }

    #[test]
    fn lint_clean_program_passes() {
        let out = cmd_lint(
            "pidx p1\nrsum s1, p1\nhalt\n",
            "x.asc",
            &MachineOpts::default().config(),
            &LintOpts::default(),
        )
        .unwrap();
        assert!(out.contains("clean: no findings"), "{out}");
    }

    #[test]
    fn lint_flags_real_bugs_with_exit_failure() {
        let e = cmd_lint(
            "li s1, 2000\nlw s2, 0(s1)\nhalt\n",
            "x.asc",
            &MachineOpts::default().config(),
            &LintOpts::default(),
        )
        .unwrap_err();
        let CliError::Failure(msg) = e else { panic!("expected failure") };
        assert!(msg.contains("error[E2002]"), "{msg}");
        assert!(msg.contains("x.asc:2"), "caret location present: {msg}");
    }

    #[test]
    fn lint_deny_warnings_promotes_warnings_to_failure() {
        let src = "add s1, s2, s3\nhalt\n"; // s2/s3 never written
        let cfg = MachineOpts::default().config();
        assert!(cmd_lint(src, "x.asc", &cfg, &LintOpts::default()).is_ok());
        let opts = LintOpts { deny_warnings: true, ..LintOpts::default() };
        let e = cmd_lint(src, "x.asc", &cfg, &opts).unwrap_err();
        assert!(e.to_string().contains("W1001"), "{e}");
    }

    #[test]
    fn lint_json_output_parses() {
        let opts = LintOpts { json: true, ..LintOpts::default() };
        let out = cmd_lint("halt\n", "x.asc", &MachineOpts::default().config(), &opts).unwrap();
        let v = asc_core::obs::Json::parse(&out).unwrap();
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("mtasc.lint.v1"));
    }

    #[test]
    fn lint_explain_and_unknown_code() {
        let out = cmd_explain("E2002").unwrap();
        assert!(out.contains("error[E2002]"), "{out}");
        let out = cmd_explain("w1001").unwrap();
        assert!(out.contains("warning[W1001]"), "case-insensitive: {out}");
        assert!(matches!(cmd_explain("Z1234"), Err(CliError::Failure(_))));
    }

    #[test]
    fn lint_kernel_corpus_is_clean_under_deny_warnings() {
        let opts = LintOpts { deny_warnings: true, ..LintOpts::default() };
        let out = cmd_lint_kernels(&MachineOpts::default().config(), &opts).unwrap();
        assert!(out.lines().count() >= 15, "whole corpus linted:\n{out}");
        assert!(!out.contains("FAIL"), "{out}");
    }

    #[test]
    fn lint_dispatch_parses_flags() {
        let dir = std::env::temp_dir().join("mtasc_lint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("clean.asc");
        std::fs::write(&f, "pidx p1\nrsum s1, p1\nhalt\n").unwrap();
        let path = f.to_string_lossy().into_owned();
        assert!(dispatch(vec!["lint".into(), path.clone()]).is_ok());
        assert!(dispatch(vec!["lint".into(), path.clone(), "--json".into()]).is_ok());
        assert!(matches!(
            dispatch(vec!["lint".into(), path.clone(), "--deny".into(), "errors".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(vec!["lint".into(), path, "--bogus".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(dispatch(vec!["lint".into()]), Err(CliError::Usage(_))));
        let out = dispatch(vec!["lint".into(), "--explain".into(), "N5003".into()]).unwrap();
        assert!(out.contains("note[N5003]"));
        assert!(matches!(
            dispatch(vec!["lint".into(), "x.asc".into(), "--schedules".into(), "1".into()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn explain_all_dumps_the_whole_catalog() {
        let out = cmd_explain("all").unwrap();
        for info in asc_verify::CODES {
            assert!(out.contains(info.code), "missing {} in --explain all", info.code);
        }
    }

    #[test]
    fn explain_unknown_code_suggests_the_nearest() {
        for typo in ["E6002", "W401", "w6001", "X9999"] {
            let e = cmd_explain(typo).unwrap_err();
            let msg = e.to_string();
            let (_, rest) = msg.split_once("did you mean `").unwrap_or_else(|| panic!("{msg}"));
            let suggested = rest.split('`').next().unwrap();
            assert!(asc_verify::explain(suggested).is_some(), "{msg}");
        }
    }

    #[test]
    fn lint_schedules_proves_divergence_and_invariance() {
        // The E6001 fixture shape: both threads definitely write word 100
        // with different values; the parent writes often enough that the
        // later-starting child's store lands first under some seeds.
        let racy = "        li      s1, child
                            tspawn  s2, s1
                            li      s3, 1
                            sw      s3, 100(s0)
                            sw      s3, 100(s0)
                            sw      s3, 100(s0)
                            sw      s3, 100(s0)
                            sw      s3, 100(s0)
                            sw      s3, 100(s0)
                            tjoin   s2
                            halt
            child:          li      s3, 2
                            sw      s3, 100(s0)
                            sw      s3, 100(s0)
                            texit
            ";
        let opts = LintOpts { schedules: Some(16), ..LintOpts::default() };
        let e = cmd_lint(racy, "racy.asc", &MachineOpts::default().config(), &opts).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("E6001"), "{msg}");
        assert!(msg.contains("DIVERGENT"), "{msg}");
        // A joined (race-free) variant is schedule-invariant.
        let clean = "        li      s1, child
                             tspawn  s2, s1
                             tjoin   s2
                             li      s3, 1
                             sw      s3, 100(s0)
                             halt
            child:           li      s3, 2
                             sw      s3, 100(s0)
                             texit
            ";
        let out = cmd_lint(clean, "clean.asc", &MachineOpts::default().config(), &opts).unwrap();
        assert!(out.contains("schedule-invariant"), "{out}");
    }

    #[test]
    fn stats_validate_knows_the_lint_schema() {
        let dir = std::env::temp_dir().join("mtasc_validate_lint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let program = asc_asm::assemble("        li s1, 2000\n        lw s2, 0(s1)\n").unwrap();
        let report = asc_verify::analyze(&program, &MachineOpts::default().config());
        let good = dir.join("lint.json");
        std::fs::write(&good, report.to_json().to_pretty()).unwrap();
        let out = cmd_stats_validate(&[good.to_string_lossy().into_owned()]).unwrap();
        assert!(out.contains("ok (mtasc.lint.v1)"), "{out}");
        // a summary that disagrees with the diagnostics list is rejected
        let bad = dir.join("bad_lint.json");
        std::fs::write(
            &bad,
            r#"{"schema":"mtasc.lint.v1","program":{"len":2},
                "diagnostics":[{"severity":"error","code":"E2002","pc":1,"message":"m","notes":[]}],
                "summary":{"errors":0,"warnings":0,"notes":0}}"#,
        )
        .unwrap();
        let e = cmd_stats_validate(&[bad.to_string_lossy().into_owned()]).unwrap_err();
        assert!(e.to_string().contains("`errors` says 0"), "{e}");
        // unknown codes are rejected so --explain always resolves
        let unknown = dir.join("unknown_code.json");
        std::fs::write(
            &unknown,
            r#"{"schema":"mtasc.lint.v1","program":{"len":2},
                "diagnostics":[{"severity":"error","code":"E9999","pc":1,"message":"m","notes":[]}],
                "summary":{"errors":1,"warnings":0,"notes":0}}"#,
        )
        .unwrap();
        let e = cmd_stats_validate(&[unknown.to_string_lossy().into_owned()]).unwrap_err();
        assert!(e.to_string().contains("not in the catalog"), "{e}");
    }

    #[test]
    fn lint_lowers_ascl_first() {
        let dir = std::env::temp_dir().join("mtasc_lint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("demo.ascl");
        std::fs::write(&f, "par x; x = index(); out(sum(x));").unwrap();
        assert!(dispatch(vec!["lint".into(), f.to_string_lossy().into_owned()]).is_ok());
    }

    #[test]
    fn info_renders() {
        let out = cmd_info(MachineOpts::default());
        assert!(out.contains("b = 2"));
        assert!(out.contains("75.0 MHz"));
        assert!(out.contains("Control Unit"));
    }

    #[test]
    fn dispatch_usage() {
        assert!(matches!(dispatch(vec![]), Err(CliError::Usage(_))));
        assert!(matches!(dispatch(vec!["bogus".into()]), Err(CliError::Usage(_))));
    }

    #[test]
    fn version_prints_crate_version_and_schemas() {
        let out = dispatch(vec!["--version".into()]).unwrap();
        assert!(out.contains(env!("CARGO_PKG_VERSION")), "{out}");
        for schema in [
            "mtasc.run_report.v1",
            "mtasc.profile.v1",
            "mtasc.lint.v1",
            "mtasc.run_meta.v1",
            "mtasc.progress.v1",
            "mtasc.stats_diff.v1",
            "mtasc.http.v1",
        ] {
            assert!(out.contains(schema), "missing {schema} in: {out}");
        }
        assert_eq!(dispatch(vec!["-V".into()]).unwrap(), out);
    }

    #[test]
    fn stats_diff_rejects_stdin_on_both_sides() {
        let e = dispatch(vec!["stats".into(), "diff".into(), "-".into(), "-".into()]);
        assert!(matches!(e, Err(CliError::Usage(_))), "{e:?}");
    }

    /// Scratch registry root for one test, removed on drop.
    struct TempRuns(std::path::PathBuf);

    impl TempRuns {
        fn new(tag: &str) -> TempRuns {
            let dir = std::env::temp_dir().join(format!("mtasc_runs_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempRuns(dir)
        }

        fn arg(&self) -> String {
            self.0.to_string_lossy().into_owned()
        }
    }

    impl Drop for TempRuns {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn record_one(tmp: &TempRuns, cmd: &str, extra: &[&str]) -> String {
        let dir = std::env::temp_dir().join("mtasc_registry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("prog.asc");
        std::fs::write(&f, "pidx p1\nrsum s1, p1\nhalt\n").unwrap();
        let mut args =
            vec![cmd.to_string(), f.to_string_lossy().into_owned(), "--runs-dir".into(), tmp.arg()];
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = dispatch(args).unwrap();
        let id = out
            .lines()
            .find_map(|l| l.strip_prefix("recorded run "))
            .unwrap_or_else(|| panic!("no recorded-run line in: {out}"));
        assert!(asc_obs_store::is_ulid(id), "{id}");
        id.to_string()
    }

    #[test]
    fn run_records_and_runs_subcommands_round_trip() {
        let tmp = TempRuns::new("e2e");
        let a = record_one(&tmp, "run", &[]);
        let b = record_one(&tmp, "profile", &[]);
        let runs = |rest: &[&str]| {
            let mut args = vec!["runs".to_string()];
            args.push(rest[0].to_string());
            args.extend(["--runs-dir".to_string(), tmp.arg()]);
            args.extend(rest[1..].iter().map(|s| s.to_string()));
            dispatch(args)
        };

        // list: both runs, newest first; pagination and status filter
        let out = runs(&["list"]).unwrap();
        assert!(out.contains(&a) && out.contains(&b), "{out}");
        assert!(out.find(&b).unwrap() < out.find(&a).unwrap(), "newest first: {out}");
        let page = runs(&["list", "--limit", "1", "--offset", "1"]).unwrap();
        assert!(page.contains(&a) && !page.contains(&b), "{page}");
        assert!(page.contains("(1 of 2 runs shown)"), "{page}");
        assert!(runs(&["list", "--status", "fault"]).unwrap().lines().count() <= 1);
        let json = runs(&["list", "--json"]).unwrap();
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 2);

        // show: profile run renders the recorded hot-spot table
        let shown = runs(&["show", &b]).unwrap();
        assert!(shown.contains("status   ok"), "{shown}");
        assert!(shown.contains("cycles"), "{shown}");
        // the shortest prefix that tells `b` from `a` resolves; the prefix
        // they share is ambiguous (runs recorded in the same millisecond
        // share the whole 10-character timestamp)
        let shared = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
        assert!(runs(&["show", &b[..shared + 1]]).unwrap().contains(&b));
        let e = runs(&["show", &b[..shared]]);
        assert!(matches!(&e, Err(CliError::Failure(m)) if m.contains("ambiguous")), "{e:?}");

        // diff: same-kind artifacts via registry ids
        let diffed = runs(&["diff", &a, &a]).unwrap();
        assert!(diffed.contains("diff"), "{diffed}");
        // mixed kinds (run report vs profile) are rejected
        assert!(matches!(runs(&["diff", &a, &b]), Err(CliError::Failure(_))));

        // export: prometheus text exposition
        let prom = runs(&["export", "--prometheus"]).unwrap();
        assert!(prom.contains("mtasc_runs_total{status=\"ok\"} 2"), "{prom}");
        assert!(prom.contains("mtasc_run_ipc"), "{prom}");

        // gc: keep newest, prune the older run
        let pruned = runs(&["gc", "--keep", "1"]).unwrap();
        assert!(pruned.contains(&a), "{pruned}");
        let left = runs(&["list"]).unwrap();
        assert!(left.contains(&b) && !left.contains(&a), "{left}");
    }

    #[test]
    fn watch_no_follow_renders_recorded_heartbeats() {
        let tmp = TempRuns::new("watch");
        let id = record_one(&tmp, "run", &["--progress-every", "1"]);
        let out = dispatch(vec![
            "runs".into(),
            "watch".into(),
            id.clone(),
            "--no-follow".into(),
            "--runs-dir".into(),
            tmp.arg(),
        ])
        .unwrap();
        assert!(out.contains(&id), "{out}");
        assert!(out.contains("cycle"), "heartbeats rendered: {out}");
    }

    #[test]
    fn faulting_run_is_recorded_with_fault_status() {
        let tmp = TempRuns::new("fault");
        let dir = std::env::temp_dir().join("mtasc_registry_fault");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("spin.asc");
        // unbounded loop + tiny cycle budget => BudgetExhausted fault
        std::fs::write(&f, "loop:\n  addi s1, s1, 1\n  b loop\n").unwrap();
        let e = dispatch(vec![
            "run".into(),
            f.to_string_lossy().into_owned(),
            "--max-cycles".into(),
            "64".into(),
            "--runs-dir".into(),
            tmp.arg(),
        ]);
        assert!(matches!(e, Err(CliError::Failure(_))), "{e:?}");
        let out = dispatch(vec![
            "runs".into(),
            "list".into(),
            "--status".into(),
            "fault".into(),
            "--runs-dir".into(),
            tmp.arg(),
        ])
        .unwrap();
        assert!(out.contains("fault"), "{out}");
    }

    #[test]
    fn stats_diff_reads_stdin_dash_only_via_paths() {
        // `-` on one side is accepted at the parse layer; reading stdin in
        // a unit test would hang, so the stdin path itself is pinned by
        // the exit-code integration test. Here: a path diffed against a
        // missing file still errors as Failure, not Usage.
        let e = cmd_stats_diff("/nonexistent/a.json", "/nonexistent/b.json", None, false);
        assert!(matches!(e, Err(CliError::Failure(_))));
    }
}

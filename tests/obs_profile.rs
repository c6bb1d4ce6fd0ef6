//! End-to-end tests for the cycle-attribution profiler and the Chrome
//! trace exporter: a golden `trace_event` fixture for a small kernel,
//! structural Perfetto-validity checks, the `mtasc.profile.v1` JSON
//! round trip, the conservation invariant over the whole kernel corpus
//! (fused and unfused), and the machine's one observer hook, which must
//! hand the sink, the profiler and the progress sampler attached together
//! what each would see attached alone.
//!
//! After an intentional exporter change, regenerate the golden with
//! `UPDATE_CHROME_GOLDEN=1 cargo test --test obs_profile` and review the
//! diff.

use std::cell::RefCell;
use std::fs;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use asc::asm::Program;
use asc::core::obs::{
    chrome_trace, chrome_trace_text, Json, MemorySink, Profile, ProgressSample, ProgressSampler,
    SinkHandle, TraceEvent,
};
use asc::core::{Machine, MachineConfig, Stats};
use asc::pe::{DividerConfig, MultiplierKind};

/// The small kernel behind the golden fixture: one loop mixing scalar,
/// parallel, and reduction work, so the trace exercises thread tracks,
/// every pipeline-stage track family, and the in-flight counters.
const KERNEL: &str = "
        li    s2, 3
        li    s3, 0
        pidx  p1
loop:   paddi p1, p1, 1
        rsum  s1, p1
        add   s4, s4, s1
        addi  s3, s3, 1
        ceq   f1, s3, s2
        bf    f1, loop
        halt
";

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/profile")
}

fn check(golden: &Path, actual: &str) {
    if std::env::var("UPDATE_CHROME_GOLDEN").is_ok() {
        fs::create_dir_all(golden.parent().unwrap()).unwrap();
        fs::write(golden, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(golden)
        .unwrap_or_else(|_| panic!("missing golden {golden:?}; run with UPDATE_CHROME_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "chrome trace for the golden kernel diverged from {golden:?}; \
         regenerate with UPDATE_CHROME_GOLDEN=1 if intentional"
    );
}

fn traced_run(cfg: MachineConfig) -> (Machine, Vec<asc::core::obs::TraceEvent>) {
    let program = asc::asm::assemble(KERNEL).unwrap();
    let mut m = Machine::with_program(cfg, &program).unwrap();
    let mem = Rc::new(RefCell::new(MemorySink::new()));
    m.attach_sink(SinkHandle::shared(mem.clone()));
    m.attach_profiler();
    m.run(100_000).unwrap();
    let events = mem.borrow().events().to_vec();
    (m, events)
}

#[test]
fn chrome_trace_matches_golden() {
    let (m, events) = traced_run(MachineConfig::new(16));
    let text = chrome_trace_text(&chrome_trace(&events, &m.timing()));
    check(&fixture_dir().join("small_kernel.chrome.json"), &text);
}

#[test]
fn chrome_trace_is_structurally_valid_for_perfetto() {
    let (m, events) = traced_run(MachineConfig::new(16));
    let text = chrome_trace_text(&chrome_trace(&events, &m.timing()));
    // the whole document is one JSON object with a traceEvents array
    let v = Json::parse(&text).expect("valid JSON");
    let trace_events = v.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(!trace_events.is_empty());
    for ev in trace_events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("every event has a phase");
        assert!(["M", "X", "i", "C"].contains(&ph), "unexpected phase {ph}");
        assert!(ev.get("pid").is_some(), "every event carries a pid");
        match ph {
            "M" => {
                assert!(ev.get("name").and_then(Json::as_str).is_some());
            }
            "X" => {
                assert!(ev.get("ts").is_some() && ev.get("dur").is_some());
            }
            "i" => {
                assert_eq!(ev.get("s").and_then(Json::as_str), Some("t"));
            }
            "C" => {
                assert!(ev.get("args").is_some(), "counter events carry their series");
            }
            _ => unreachable!(),
        }
    }
    // per-thread tracks and stage tracks are announced via metadata
    let names: Vec<&str> = trace_events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str))
        .collect();
    assert!(names.iter().any(|n| n.starts_with("thread ")), "{names:?}");
    assert!(names.iter().any(|n| n.contains("WB")), "stage tracks present: {names:?}");
}

#[test]
fn profile_json_round_trips_through_text() {
    let (mut m, _) = traced_run(MachineConfig::new(16));
    let profile = m.take_profile().expect("profiler attached");
    assert_eq!(profile.attributed_cycles(), m.stats().cycles, "conservation");
    let text = profile.to_json().to_pretty();
    let back = Profile::parse(&text).expect("parses back");
    assert_eq!(back, profile, "mtasc.profile.v1 is lossless");
    assert_eq!(back.to_json().to_pretty(), text, "re-serialization is stable");
}

#[test]
fn conservation_holds_for_every_corpus_kernel_fused_and_unfused() {
    for (name, src) in asc::kernels::harness::corpus() {
        let program = asc::asm::assemble(&src)
            .unwrap_or_else(|e| panic!("{name}: {}", asc::asm::render_errors(&e)));
        let mut profiles = Vec::new();
        for fusion in [true, false] {
            let cfg = MachineConfig::new(16);
            let cfg = if fusion { cfg } else { cfg.without_fusion() };
            let mut m = Machine::with_program(cfg, &program).unwrap();
            m.attach_profiler();
            m.run(10_000_000).unwrap_or_else(|e| panic!("{name}: {e}"));
            let p = m.take_profile().unwrap();
            assert_eq!(
                p.attributed_cycles(),
                m.stats().cycles,
                "{name} (fusion={fusion}): attributed cycles must sum to Stats::cycles"
            );
            profiles.push(p);
        }
        assert!(
            profiles[0] == profiles[1],
            "{name}: fused and unfused profiles must be bit-identical"
        );
    }
}

/// What the observers of one run saw, each `None` when not attached.
struct Seen {
    stats: Stats,
    /// Fused blocks the run executed.
    blocks: u64,
    events: Option<Vec<TraceEvent>>,
    profile: Option<Profile>,
    samples: Option<Vec<ProgressSample>>,
}

/// Run `program` with the sink, the profiler and the progress sampler
/// attached as `[sink, profiler, progress]` says.
fn observed(cfg: MachineConfig, program: &Program, attach: [bool; 3]) -> Seen {
    let mut m = Machine::with_program(cfg, program).unwrap();
    let mem = Rc::new(RefCell::new(MemorySink::new()));
    if attach[0] {
        m.attach_sink(SinkHandle::shared(mem.clone()));
    }
    if attach[1] {
        m.attach_profiler();
    }
    if attach[2] {
        m.attach_progress(ProgressSampler::new(5, 1 << 16));
    }
    let stats = m.run(1_000_000).unwrap();
    Seen {
        stats,
        blocks: m.fusion_stats().blocks_executed,
        events: attach[0].then(|| mem.borrow().events().to_vec()),
        profile: m.take_profile(),
        samples: m.take_progress().map(|p| p.samples().copied().collect()),
    }
}

/// The hook fans every event kind out to each attached consumer: a
/// 16-context fleet (spawns, joins, exits, reductions, stalls), coarse
/// grain too (switch-penalty stalls), a single-thread loop whose
/// lane-local runs fuse, and sequential multiply and divide (unit-busy
/// spans), fused and unfused. Attached together, the sink, the profiler
/// and the sampler each see exactly what they see attached alone, and
/// the run's `Stats` stay those of a run with nothing attached.
#[test]
fn observers_attached_together_see_what_each_sees_alone() {
    use asc::kernels::micro::{mixed_fleet, mixed_workload};
    let mut seq = MachineConfig::new(16);
    seq.multiplier = MultiplierKind::Sequential { cycles: 16 };
    seq.divider = DividerConfig::Sequential { cycles: 18 };
    let muldiv = "li s2, 7\nli s3, 3\nmul s1, s2, s3\ndiv s4, s1, s3\nmul s5, s4, s1\nhalt\n";
    let cases = [
        ("fleet", MachineConfig::new(16), mixed_fleet(15, 3)),
        ("fleet coarse", MachineConfig::new(16).coarse_grain(4), mixed_fleet(15, 3)),
        ("loop", MachineConfig::new(16), mixed_workload(6)),
        ("mul/div", seq, muldiv.to_string()),
    ];
    for (name, cfg, src) in cases {
        let program = asc::asm::assemble(&src).unwrap();
        for (strategy, cfg) in [("fused", cfg), ("unfused", cfg.without_fusion())] {
            let at = format!("{name} {strategy}");
            let all = observed(cfg, &program, [true; 3]);
            let bare = observed(cfg, &program, [false; 3]);
            assert_eq!(all.stats, bare.stats, "{at}: observing changed the run");
            let fuses = name == "loop" && strategy == "fused";
            assert_eq!(all.blocks > 0, fuses, "{at}: fused blocks ran");
            let switches = all.stats.thread_switches > 0;
            assert_eq!(switches, name == "fleet coarse", "{at}: switch-penalty stalls");
            let sink = observed(cfg, &program, [true, false, false]);
            assert!(all.events == sink.events, "{at}: events differ from the sink's alone");
            let profiler = observed(cfg, &program, [false, true, false]);
            assert!(all.profile == profiler.profile, "{at}: profile differs from its own");
            let progress = observed(cfg, &program, [false, false, true]);
            assert!(all.samples == progress.samples, "{at}: samples differ from their own");
            let events = all.events.as_deref().unwrap();
            let kinds = ["issue", "retire", "stall", "net_op", "thread", "unit_busy"];
            for kind in kinds {
                let emitted = events.iter().any(|e| e.kind() == kind);
                let expected = match kind {
                    "thread" => name.starts_with("fleet"),
                    "unit_busy" => name == "mul/div",
                    "net_op" => name != "mul/div",
                    _ => true,
                };
                assert_eq!(emitted, expected, "{at}: {kind} events");
            }
        }
    }
}

//! Statistics golden across the strategy matrix: every program of the
//! kernel corpus, every program under `examples/programs/`, and one
//! 16-context program of the query fleet's shape, each under four timing
//! configurations (fine grain, coarse grain, forwarding off, the finite
//! fetch model), must produce exactly the [`Stats`] recorded in
//! `tests/fixtures/stats/golden.json` — cycles, issue counts by class and
//! by thread, stall cycles by reason, the stall-span and queue-depth
//! histograms, the last writeback and the thread switches — with fusion on
//! and off, at every SIMD tier a machine can be built at on the host
//! running the test.
//!
//! The fixture holds one [`Stats::to_registry`] object per program and
//! configuration. The execution strategy must not be observable, so one
//! entry serves every strategy; a bookkeeping change in the issue loop
//! that the differential suites would miss (they compare strategies of
//! the same binary with each other) shows here as a changed counter or
//! histogram bucket.
//!
//! A machine reaches two SIMD tiers through [`MachineConfig`]: the
//! scalar loops (`without_simd`) and the widest tier the host supports.
//! On a host with AVX-512 the AVX2 tier is not reachable from a machine;
//! `asc-pe`'s kernel tests cover it against the scalar reference. Under
//! `MTASC_NO_SIMD` the widest cell would run the scalar loops under the
//! hardware tier's label, so the test fails there instead.
//!
//! After an intended timing-model change, regenerate the fixture with
//! `UPDATE_STATS_GOLDEN=1 cargo test --release --test stats_golden` and
//! review the diff.
//!
//! The same corpus checks the text report: `Stats::report` prints from
//! the `Stats` fields, and every number it prints must equal the
//! registry entry of the same name.

use std::fs;
use std::path::{Path, PathBuf};

use asc::asm::Program;
use asc::core::obs::{Json, Registry};
use asc::core::{Machine, MachineConfig, StallReason, Stats};
use asc::isa::{InstrClass, Word};
use asc::kernels::harness;
use asc::pe::SimdLevel;

const MAX_CYCLES: u64 = 5_000_000;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/stats/golden.json")
}

/// splitmix64, so the preloaded data is the same on every host.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A program with the machine size it runs at and the data preloaded
/// before each run.
struct Case {
    name: String,
    pes: usize,
    program: Program,
    /// `(local-memory row, one value per PE)`.
    columns: Vec<(u32, Vec<i64>)>,
    /// `(scalar-memory address, value)`.
    smem: Vec<(u32, i64)>,
}

/// Workers of the fleet-shaped program; with the boot thread, every one
/// of the 16 contexts is live.
const FLEET_WORKERS: usize = 15;
const FLEET_PER_WORKER: usize = 4;
const FLEET_PES: usize = 256;

/// The boot thread spawns 15 workers and joins them. Each worker answers
/// its slice of the queries with an associative compare, a lane-local
/// run on its private planes, a responder count and a store: the shape of
/// simbench's `mt_query_fleet`, where the other contexts fill every
/// count's reduction stall.
fn fleet_source() -> String {
    let stubs: String = (0..FLEET_WORKERS)
        .map(|k| format!("stub{k}:  li     s7, {}\n        j      wbody\n", k * FLEET_PER_WORKER))
        .collect();
    format!(
        "main:   li     s1, stub0
        li     s2, 0
        li     s3, {FLEET_WORKERS}
spawnl: ceq    f1, s2, s3
        bt     f1, joins
        tspawn s4, s1
        sw     s4, 16(s2)
        addi   s1, s1, 2
        addi   s2, s2, 1
        j      spawnl
joins:  li     s2, 0
joinl:  ceq    f1, s2, s3
        bt     f1, done
        lw     s4, 16(s2)
        tjoin  s4
        addi   s2, s2, 1
        j      joinl
done:   halt
{stubs}wbody:  plw    p2, 0(p0)
        plw    p3, 1(p0)
        addi   s6, s7, {FLEET_PER_WORKER}
qloop:  ceq    f1, s7, s6
        bt     f1, wdone
        lw     s2, 64(s7)
        pceqs  pf1, p2, s2
        paddi  p4, p3, 7
        pandi  p4, p4, 63
        pxor   p5, p4, p2
        psrli  p5, p5, 1
        pclti  pf2, p5, 20
        pfand  pf3, pf1, pf2
        rcount s8, pf3
        sw     s8, 512(s7)
        addi   s7, s7, 1
        j      qloop
wdone:  texit
"
    )
}

/// Small seeded values for the first eight local-memory rows of `pes`
/// PEs, so the corpus kernels branch on data rather than on zeros.
fn rows(pes: usize, seed: u64) -> Vec<(u32, Vec<i64>)> {
    (0..8u32)
        .map(|row| {
            let col = (0..pes).map(|pe| (mix(seed ^ (row as u64) << 32 ^ pe as u64) % 32) as i64);
            (row, col.collect())
        })
        .collect()
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (k, (name, src)) in harness::corpus().into_iter().enumerate() {
        let program = asc::asm::assemble(&src).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        out.push(Case { name, pes: 16, program, columns: rows(16, k as u64), smem: vec![] });
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort();
    for path in files {
        let src = fs::read_to_string(&path).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let program = match path.extension().and_then(|e| e.to_str()) {
            Some("ascl") => asc::lang::compile_program(&src).unwrap(),
            _ => asc::asm::assemble(&src).unwrap(),
        };
        out.push(Case { name, pes: 16, program, columns: rows(16, 99), smem: vec![] });
    }
    let keys: Vec<i64> = (0..FLEET_PES).map(|pe| (mix(pe as u64) % 16) as i64).collect();
    let vals: Vec<i64> =
        (0..FLEET_PES).map(|pe| (mix(1 << 20 | pe as u64) % 1024) as i64).collect();
    let queries = (0..FLEET_WORKERS * FLEET_PER_WORKER).map(|q| (64 + q as u32, q as i64 % 16));
    out.push(Case {
        name: "fleet(15 workers)".into(),
        pes: FLEET_PES,
        program: asc::asm::assemble(&fleet_source()).unwrap(),
        columns: vec![(0, keys), (1, vals)],
        smem: queries.collect(),
    });
    out
}

/// The timing configurations, each a different issue loop.
fn timings(pes: usize) -> [(&'static str, MachineConfig); 4] {
    let base = MachineConfig::new(pes);
    [
        ("fine", base),
        ("coarse", base.coarse_grain(4)),
        ("no-forwarding", base.without_forwarding()),
        ("finite-fetch", base.with_fetch_buffers(2)),
    ]
}

/// Every execution strategy of `cfg`: fusion on and off, at each SIMD
/// tier a machine can be built at here (see the module docs).
fn strategies(cfg: MachineConfig) -> Vec<(String, MachineConfig)> {
    let widest = SimdLevel::detect_hw();
    // `MTASC_NO_SIMD` would fold the two tiers into one
    assert_eq!(cfg.simd_level(), widest, "SIMD tier overridden");
    let tiers: Vec<(SimdLevel, MachineConfig)> = SimdLevel::available()
        .into_iter()
        .filter_map(|level| match level {
            SimdLevel::Scalar => Some((level, cfg.without_simd())),
            _ if level == widest => Some((level, cfg)),
            _ => None,
        })
        .collect();
    let mut out = Vec::new();
    for (level, tiered) in tiers {
        out.push((format!("fused {}", level.label()), tiered));
        out.push((format!("unfused {}", level.label()), tiered.without_fusion()));
    }
    out
}

fn run(case: &Case, cfg: MachineConfig) -> Stats {
    let w = cfg.width;
    let mut m = Machine::with_program(cfg, &case.program).unwrap();
    for (row, col) in &case.columns {
        let words: Vec<Word> = col.iter().map(|&v| Word::from_i64(v, w)).collect();
        m.array_mut().scatter_column(*row, &words).unwrap();
    }
    for &(addr, v) in &case.smem {
        m.smem_mut().write(addr, Word::from_i64(v, w)).unwrap();
    }
    m.run(MAX_CYCLES).unwrap_or_else(|e| panic!("{}: {e}", case.name))
}

/// The first metric on which two registries differ, for the message.
fn first_difference(want: &Registry, got: &Registry) -> String {
    for (name, v) in want.iter() {
        if got.get(name) != Some(v) {
            return format!("{name}: want {v:?}, got {:?}", got.get(name));
        }
    }
    match got.iter().find(|(name, _)| want.get(name).is_none()) {
        Some((name, v)) => format!("{name}: not in the golden, got {v:?}"),
        None => "metric order".into(),
    }
}

#[test]
fn stats_match_the_golden_under_every_strategy() {
    let mut golden = Vec::new();
    let mut reference = Vec::new();
    for case in cases() {
        for (timing, cfg) in timings(case.pes) {
            let key = format!("{} / {timing}", case.name);
            let mut first: Option<(String, Registry)> = None;
            for (strategy, cfg) in strategies(cfg) {
                let got = run(&case, cfg).to_registry();
                match &first {
                    None => first = Some((strategy, got)),
                    Some((s0, want)) => assert!(
                        *want == got,
                        "{key}: {strategy} differs from {s0}: {}",
                        first_difference(want, &got)
                    ),
                }
            }
            let (_, reg) = first.expect("at least the scalar tier");
            golden.push((key.clone(), reg.to_json()));
            reference.push((key, reg));
        }
    }

    let path = golden_path();
    if std::env::var("UPDATE_STATS_GOLDEN").is_ok() {
        // one line per entry, so a diff names the program and timing
        let lines: Vec<String> = golden
            .iter()
            .map(|(key, reg)| {
                format!("  {}: {}", Json::str(key.as_str()).to_compact(), reg.to_compact())
            })
            .collect();
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, format!("{{\n{}\n}}\n", lines.join(",\n"))).unwrap();
        return;
    }
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {path:?}; run with UPDATE_STATS_GOLDEN=1"));
    let fixture = Json::parse(&text).expect("the golden parses");
    let entries = fixture.as_obj().expect("an object keyed by program and timing");
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    let cases: Vec<&str> = reference.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, cases, "the golden covers other programs or timings");
    for ((key, want), (_, got)) in entries.iter().zip(&reference) {
        let want = Registry::from_json(want).unwrap_or_else(|| panic!("{key}: bad entry"));
        assert!(
            want == *got,
            "{key}: Stats diverged from {path:?}: {}; regenerate with \
             UPDATE_STATS_GOLDEN=1 only after an intended timing-model change",
            first_difference(&want, got)
        );
    }
}

/// The text report as the registry spells it: each number printed is the
/// counter or gauge of the same name, and a reason's line appears when
/// its counter is non-zero.
fn report_from_registry(reg: &Registry) -> String {
    let mut out = format!(
        "cycles: {}  issued: {} (scalar {}, parallel {}, reduction {})  IPC: {:.3}\n",
        reg.counter("cycles"),
        reg.counter("issued"),
        reg.counter("issued.scalar"),
        reg.counter("issued.parallel"),
        reg.counter("issued.reduction"),
        reg.gauge("ipc").expect("the registry has an IPC gauge")
    );
    for reason in StallReason::ALL {
        let n = reg.counter(&format!("stall.{}", reason.label()));
        if n > 0 {
            out.push_str(&format!("  stalls[{}]: {n}\n", reason.label()));
        }
    }
    out
}

#[test]
fn report_prints_the_registry() {
    let mut every_reason = Stats::new(3);
    every_reason.cycles = 1_000;
    for (k, reason) in StallReason::ALL.into_iter().enumerate() {
        every_reason.record_stall(reason, 10 + k as u64);
        every_reason.record_issue(k % 3, InstrClass::Parallel);
    }
    // distinct class counts, so no two columns can be swapped unseen
    every_reason.record_issue(0, InstrClass::Scalar);
    every_reason.record_issue(1, InstrClass::Reduction);
    every_reason.record_issue(2, InstrClass::Reduction);
    let mut huge = Stats::new(1);
    huge.cycles = 3;
    huge.issued = u64::MAX;
    huge.issued_by_class = [u64::MAX, 1, 0];
    huge.stalls = [u64::MAX; 10];
    let mut stats = vec![
        ("every reason".to_string(), every_reason),
        ("all zero".to_string(), Stats::new(16)),
        ("default".to_string(), Stats::default()),
        ("20-digit counters".to_string(), huge),
    ];
    for case in cases() {
        for (timing, cfg) in timings(case.pes) {
            stats.push((format!("{} / {timing}", case.name), run(&case, cfg)));
        }
    }
    for (name, s) in &stats {
        assert_eq!(s.report(), report_from_registry(&s.to_registry()), "{name}");
    }
}

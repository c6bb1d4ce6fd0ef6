//! PE-count scaling sweep: measure associative **query latency** on a
//! preloaded database at every power-of-two array size from 2⁴ to 2²⁰,
//! with the commit-map segmentation both enabled (the default automatic
//! slicing) and forced off (`--segments 1`), so the committed table
//! compares the two geometries point by point.
//!
//! The database holds one record per PE with keys sorted into contiguous
//! clusters (all PEs sharing a key are adjacent), the layout an
//! associative batch loader produces and the one that makes responder
//! sets segment-local. Each timed run answers a fixed batch of queries —
//! compare, count, resolve, and three masked reductions per query — on an
//! already-loaded machine; construction and scatter are outside the
//! timer, so `wall_seconds` is the per-query latency.
//!
//! Unlike the criterion benches this target writes a machine-readable
//! report, `BENCH_pe_scaling.json` at the repository root, so successive
//! PRs accumulate a perf trajectory (see `docs/performance.md` for the
//! schema). Run with `cargo bench --bench pe_scaling`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use asc_core::{Machine, MachineConfig, Stats};
use asc_isa::{Width, Word};

/// Queries per timed run: enough to amortize the three prologue sweeps,
/// few enough that every unrolled run fits the default instruction
/// memory.
const QUERIES: usize = 32;

/// One measured point of the sweep.
struct Point {
    num_pes: usize,
    /// Resolved segment count of the default (automatic) slicing.
    segments: usize,
    /// Simulated instructions issued per timed run.
    instructions: u64,
    /// Simulated cycles per timed run.
    cycles: u64,
    /// Wall-clock seconds per query, automatic segmentation (median).
    seconds: f64,
    /// Wall-clock seconds per query, forced monolithic (median).
    seconds_1seg: f64,
    /// Bytes of register/flag/local-memory backing actually committed
    /// after the run (the lazily-materialized footprint).
    committed_bytes: u64,
}

impl Point {
    fn instr_per_sec(&self) -> f64 {
        self.instructions as f64 / (self.seconds * QUERIES as f64)
    }

    fn bytes_per_pe(&self) -> f64 {
        self.committed_bytes as f64 / self.num_pes as f64
    }
}

/// Median of the collected wall times (non-empty; even counts take the
/// mean of the two middle samples).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// The clustered database: `num_pes` records, keys sorted so all records
/// sharing a key occupy adjacent PEs (at most 1024 distinct keys, so the
/// cluster width grows with the array). Returns (keys, values, queries).
fn build_db(num_pes: usize) -> (Vec<Word>, Vec<Word>, Vec<i64>) {
    let w = Width::W16;
    let cluster = (num_pes / 1024).max(1);
    let num_keys = num_pes.div_ceil(cluster);
    let keys: Vec<Word> = (0..num_pes).map(|i| Word::from_i64((i / cluster) as i64, w)).collect();
    let values: Vec<Word> = (0..num_pes).map(|i| Word::from_i64((i % 1000) as i64, w)).collect();
    // a fixed LCG spreads the query keys across the clusters
    let queries: Vec<i64> = (0..QUERIES).map(|q| ((q * 389 + 57) % num_keys) as i64).collect();
    (keys, values, queries)
}

/// The query program: keys preloaded in `lmem[0]`, values in `lmem[1]`,
/// query keys in scalar memory slots `0..QUERIES`. Each query is one
/// associative compare followed by count, resolve, first-value get, and
/// three masked reductions over the responder set.
fn build_program() -> String {
    let mut src = String::from(
        "        plw    p2, 0(p0)      ; keys
        plw    p3, 1(p0)      ; values
        pidx   p1
",
    );
    for q in 0..QUERIES {
        let _ = write!(
            src,
            "        lw     s1, {q}(s0)
        pceqs  pf1, p2, s1
        rcount s2, pf1
        pfirst pf2, pf1
        rget   s3, p3, pf2
        rsum   s4, p3 ?pf1
        rmax   s5, p3 ?pf1
        rmin   s6, p3 ?pf1
"
        );
    }
    src.push_str("        halt\n");
    src
}

struct Measured {
    stats: Stats,
    seconds_per_run: f64,
    committed_bytes: u64,
    segments: usize,
    /// Final scalar registers of the last query, for the cross-config
    /// identity check.
    finals: [Word; 5],
}

/// One timed run of the query batch at one (size, segment-count)
/// configuration. Construction and preload happen outside the timer; the
/// timed region is `Machine::run` alone.
fn run_once(
    cfg: MachineConfig,
    program: &asc_asm::Program,
    keys: &[Word],
    values: &[Word],
    queries: &[i64],
) -> Measured {
    let w = cfg.width;
    let mut m = Machine::with_program(cfg, program).expect("construct");
    m.array_mut().scatter_column(0, keys).expect("scatter keys");
    m.array_mut().scatter_column(1, values).expect("scatter values");
    for (slot, &q) in queries.iter().enumerate() {
        m.smem_mut().write(slot as u32, Word::from_i64(q, w)).expect("preload query");
    }
    let t = Instant::now();
    m.run(100_000_000).expect("run");
    let seconds_per_run = t.elapsed().as_secs_f64();
    black_box(m.sreg(0, 4));
    Measured {
        stats: m.stats().clone(),
        seconds_per_run,
        committed_bytes: m.array().committed_bytes() as u64,
        segments: cfg.segment_geometry().count(),
        finals: [m.sreg(0, 2), m.sreg(0, 3), m.sreg(0, 4), m.sreg(0, 5), m.sreg(0, 6)],
    }
}

/// Measure one sweep point: automatic segmentation and the forced
/// monolithic build, asserting the two are architecturally identical.
/// The two configurations alternate within the repeat loop (segmented
/// first on even repeats, monolithic first on odd) so clock drift and
/// cache warm-up land on both sides equally.
fn point(num_pes: usize, runs: usize) -> Point {
    let (keys, values, queries) = build_db(num_pes);
    let program = asc_asm::assemble(&build_program()).expect("assemble query program");
    let base = MachineConfig::new(num_pes).single_threaded();
    let (mut auto_s, mut mono_s) = (Vec::with_capacity(runs), Vec::with_capacity(runs));
    let mut pair = None;
    for r in 0..runs {
        let auto_first = r % 2 == 0;
        let first = run_once(
            base.with_segments(if auto_first { 0 } else { 1 }),
            &program,
            &keys,
            &values,
            &queries,
        );
        let second = run_once(
            base.with_segments(if auto_first { 1 } else { 0 }),
            &program,
            &keys,
            &values,
            &queries,
        );
        let (auto, mono) = if auto_first { (first, second) } else { (second, first) };
        auto_s.push(auto.seconds_per_run);
        mono_s.push(mono.seconds_per_run);
        assert_eq!(auto.stats, mono.stats, "segmented run diverged at {num_pes} PEs");
        assert_eq!(auto.finals, mono.finals, "segmented results diverged at {num_pes} PEs");
        pair = Some((auto, mono));
    }
    let (auto, _) = pair.expect("at least one run");
    Point {
        num_pes,
        segments: auto.segments,
        instructions: auto.stats.issued,
        cycles: auto.stats.cycles,
        seconds: median(auto_s) / QUERIES as f64,
        seconds_1seg: median(mono_s) / QUERIES as f64,
        committed_bytes: auto.committed_bytes,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        println!("pe_scaling: bench");
        return;
    }
    let smoke = args.iter().any(|a| a == "--test");
    // undocumented: `--sizes 65536,1048576` runs a subset without writing
    // the report (tuning aid)
    let subset: Option<Vec<usize>> = args
        .iter()
        .position(|a| a == "--sizes")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(|t| t.parse().expect("--sizes")).collect());
    let sizes: Vec<usize> = match &subset {
        Some(s) => s.clone(),
        None if smoke => vec![16, 8192],
        None => (4..=20).map(|e| 1usize << e).collect(),
    };

    let mut points = Vec::new();
    println!(
        "{:>8} {:>4} {:>10} {:>12} {:>12} {:>14} {:>10}",
        "num_pes", "seg", "instr/run", "query (us)", "1seg (us)", "instr/sec", "bytes/pe"
    );
    for &p in &sizes {
        // more repeats at small sizes where a single run is microseconds;
        // never fewer than 3, so the median has something to work with
        let runs = ((1 << 23) / p.max(1)).clamp(3, 256);
        let pt = point(p, runs);
        println!(
            "{:>8} {:>4} {:>10} {:>12.2} {:>12.2} {:>14.0} {:>10.1}",
            pt.num_pes,
            pt.segments,
            pt.instructions,
            pt.seconds * 1e6,
            pt.seconds_1seg * 1e6,
            pt.instr_per_sec(),
            pt.bytes_per_pe()
        );
        points.push(pt);
    }

    if smoke || subset.is_some() {
        println!("pe_scaling: ok (smoke, report not written)");
        return;
    }

    // versioned, machine-readable report at the repository root
    let mut json = String::from("{\n  \"schema\": \"mtasc.pe_scaling.v1\",\n");
    json.push_str("  \"kernel\": \"clustered_query\",\n  \"points\": [\n");
    for (i, pt) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"num_pes\": {}, \"instructions\": {}, \"cycles\": {}, \
             \"wall_seconds\": {:.9}, \"instr_per_sec\": {:.1}, \
             \"segments\": {}, \"queries\": {}, \"wall_seconds_1seg\": {:.9}, \
             \"committed_bytes\": {}, \"bytes_per_pe\": {:.2}}}{}\n",
            pt.num_pes,
            pt.instructions,
            pt.cycles,
            pt.seconds,
            pt.instr_per_sec(),
            pt.segments,
            QUERIES,
            pt.seconds_1seg,
            pt.committed_bytes,
            pt.bytes_per_pe(),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pe_scaling.json");
    std::fs::write(&out, json).expect("write BENCH_pe_scaling.json");
    println!("wrote {}", out.display());
}

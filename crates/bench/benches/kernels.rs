//! Criterion benchmarks of the associative kernel suite (experiment E12's
//! workloads): end-to-end assemble + distribute + simulate.
//!
//! Besides the criterion micro-benches, this target maintains the
//! committed wall-time baseline `BENCH_kernels.json` (schema
//! `mtasc.kernels.v1`): five representative kernels at p = 4096 PEs,
//! 64 tiles each for the fused-block sweep, in one auto-sized segment.
//!
//! - `cargo bench --bench kernels -- --save-baseline` re-measures and
//!   rewrites `BENCH_kernels.json` at the repository root.
//! - `cargo bench --bench kernels -- --compare-baseline` re-measures and
//!   fails (non-zero exit) if any kernel regressed by more than
//!   `MTASC_BENCH_TOLERANCE` percent (default 25) against the committed
//!   file. CI runs this as a smoke gate; `MTASC_BENCH_RUNS` trims the
//!   median-of-N repeat count for quick runs.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use asc_core::{MachineConfig, Stats};
use asc_kernels::{hull, image, iterate, mst, search, select, sort, string_match, tracker};

fn bench_search(c: &mut Criterion) {
    let records: Vec<(i64, i64)> = (0..256).map(|i| ((i * 7) % 32, i)).collect();
    c.bench_function("kernel_search_256", |b| {
        b.iter(|| black_box(search::run(MachineConfig::new(256), &records, 3).unwrap().matches))
    });
}

fn bench_select(c: &mut Criterion) {
    let values: Vec<i64> = (0..256).map(|i| ((i * 37) % 199) - 99).collect();
    c.bench_function("kernel_select_256", |b| {
        b.iter(|| black_box(select::run(MachineConfig::new(256), &values).unwrap().max))
    });
}

fn bench_iterate(c: &mut Criterion) {
    let recs: Vec<(i64, i64)> = (0..64).map(|i| (i % 2, i)).collect();
    c.bench_function("kernel_iterate_32", |b| {
        b.iter(|| black_box(iterate::run(MachineConfig::new(64), &recs, 1).unwrap().fold))
    });
}

fn bench_mst(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_mst");
    for n in [16usize, 48] {
        let graph = mst::random_graph(n, 100, 7);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(mst::run(MachineConfig::new(64), &graph).unwrap().total_weight))
        });
    }
    g.finish();
}

fn bench_string_match(c: &mut Criterion) {
    let text: Vec<u8> = (0..256).map(|i| b"abcab"[i % 5]).collect();
    c.bench_function("kernel_string_match_256", |b| {
        b.iter(|| {
            black_box(string_match::run(MachineConfig::new(256), &text, b"abc").unwrap().count)
        })
    });
}

fn bench_image(c: &mut Criterion) {
    let pixels: Vec<i64> = (0..1024).map(|i| (i * 13) % 31).collect();
    c.bench_function("kernel_image_1024px", |b| {
        b.iter(|| black_box(image::run(MachineConfig::new(256), &pixels, 15).unwrap().sum))
    });
}

fn bench_hull(c: &mut Criterion) {
    let pts: Vec<(i64, i64)> =
        (0..48).map(|i| (((i * 17) % 91) as i64 - 45, ((i * 29) % 83) as i64 - 41)).collect();
    c.bench_function("kernel_hull_48", |b| {
        b.iter(|| black_box(hull::run(MachineConfig::new(64), &pts).unwrap().count))
    });
}

fn bench_tracker(c: &mut Criterion) {
    let reports: Vec<(i64, i64)> =
        (0..40).map(|i| ((i * 13) % 101 - 50, (i * 7) % 99 - 49)).collect();
    c.bench_function("kernel_tracker_40", |b| {
        b.iter(|| black_box(tracker::run(MachineConfig::new(64), &reports).unwrap().dropped))
    });
}

criterion_group!(
    benches,
    bench_search,
    bench_select,
    bench_iterate,
    bench_mst,
    bench_string_match,
    bench_image,
    bench_hull,
    bench_tracker
);

// ------------------------------------------------------------- baseline

/// PE count of every baseline kernel: the paper's "large array" point, one
/// full occupancy group and auto-sized segment.
const BASELINE_PES: usize = 4096;

/// Schema tag written into (and expected from) `BENCH_kernels.json`.
const BASELINE_SCHEMA: &str = "mtasc.kernels.v1";

/// A named baseline workload: one end-to-end kernel run at p = 4096.
type Workload = (&'static str, Box<dyn Fn() -> Stats>);

/// The committed baseline report at the repository root.
fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json")
}

/// Repeats per kernel (`MTASC_BENCH_RUNS`, default 5); the reported wall
/// time is the median of the repeats, so one scheduler hiccup cannot
/// shift a baseline or trip the regression gate.
fn baseline_runs() -> usize {
    std::env::var("MTASC_BENCH_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(5).max(1)
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

/// Allowed slowdown in percent before `--compare-baseline` fails
/// (`MTASC_BENCH_TOLERANCE`, default 25).
fn baseline_tolerance() -> f64 {
    std::env::var("MTASC_BENCH_TOLERANCE").ok().and_then(|v| v.parse().ok()).unwrap_or(25.0)
}

/// The five baseline workloads, sized so every kernel spends its time in
/// the PE array (sort and mst are bounded by their O(n) scalar loops, so
/// their inputs are smaller than the full array).
fn baseline_suite() -> Vec<Workload> {
    let cfg = MachineConfig::new(BASELINE_PES);
    let values: Vec<i64> = (0..512).map(|i| (i * 37 + 11) % 1000 - 500).collect();
    let records: Vec<(i64, i64)> = (0..BASELINE_PES as i64).map(|i| ((i * 7) % 1024, i)).collect();
    let pixels: Vec<i64> = (0..BASELINE_PES as i64 * 8).map(|i| (i * 13) % 256).collect();
    let graph = mst::random_graph(192, 100, 7);
    let text: Vec<u8> = (0..BASELINE_PES).map(|i| b"abcab"[i % 5]).collect();
    vec![
        ("sort", Box::new(move || sort::run(cfg, &values).unwrap().stats)),
        ("search", Box::new(move || search::run(cfg, &records, 3).unwrap().stats)),
        ("image", Box::new(move || image::run(cfg, &pixels, 128).unwrap().stats)),
        ("mst", Box::new(move || mst::run(cfg, &graph).unwrap().stats)),
        ("string_match", Box::new(move || string_match::run(cfg, &text, b"abcab").unwrap().stats)),
    ]
}

/// One measured baseline point.
struct Measured {
    name: &'static str,
    instructions: u64,
    cycles: u64,
    /// Median wall time over the repeats.
    seconds: f64,
}

/// Run the whole suite, median-of-`runs` wall time per kernel.
fn measure_suite(runs: usize) -> Vec<Measured> {
    baseline_suite()
        .into_iter()
        .map(|(name, f)| {
            let mut samples = Vec::with_capacity(runs);
            let mut stats = Stats::default();
            for _ in 0..runs {
                let t = Instant::now();
                stats = black_box(f());
                samples.push(t.elapsed().as_secs_f64());
            }
            let med = median(samples);
            println!(
                "{name:<14} {:>10} instr {:>10} cycles {:>10.3} ms",
                stats.issued,
                stats.cycles,
                med * 1e3
            );
            Measured { name, instructions: stats.issued, cycles: stats.cycles, seconds: med }
        })
        .collect()
}

/// Rewrite `BENCH_kernels.json` from a fresh measurement.
fn save_baseline() {
    let points = measure_suite(baseline_runs());
    let mut json = format!("{{\n  \"schema\": \"{BASELINE_SCHEMA}\",\n");
    json.push_str(&format!("  \"num_pes\": {BASELINE_PES},\n  \"kernels\": [\n"));
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"instructions\": {}, \"cycles\": {}, \
             \"wall_seconds\": {:.9}, \"instr_per_sec\": {:.1}}}{}\n",
            p.name,
            p.instructions,
            p.cycles,
            p.seconds,
            p.instructions as f64 / p.seconds,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = baseline_path();
    std::fs::write(&out, json).expect("write BENCH_kernels.json");
    println!("wrote {}", out.display());
}

/// Pull `(name, wall_seconds)` pairs out of the committed baseline. The
/// file is written one kernel per line by `save_baseline`, so a line
/// scanner is enough — no JSON dependency needed.
fn parse_baseline(json: &str) -> Vec<(String, f64)> {
    assert!(json.contains(BASELINE_SCHEMA), "BENCH_kernels.json has an unexpected schema");
    json.lines()
        .filter_map(|line| {
            let name = line.split("\"name\": \"").nth(1)?.split('"').next()?.to_string();
            let secs = line.split("\"wall_seconds\": ").nth(1)?;
            let end = secs
                .find(|c: char| !(c.is_ascii_digit() || ".eE+-".contains(c)))
                .unwrap_or(secs.len());
            Some((name, secs[..end].parse().ok()?))
        })
        .collect()
}

/// Re-measure and fail loudly on any per-kernel slowdown beyond the
/// tolerance. Speedups are reported but never fail.
fn compare_baseline() {
    let path = baseline_path();
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (run --save-baseline first)", path.display()));
    let baseline = parse_baseline(&json);
    assert!(!baseline.is_empty(), "no kernels parsed from {}", path.display());

    let tolerance = baseline_tolerance();
    let points = measure_suite(baseline_runs());
    let mut failures = Vec::new();
    for p in &points {
        let Some((_, old)) = baseline.iter().find(|(n, _)| n == p.name) else {
            println!("{:<14} not in baseline (new kernel?), skipping", p.name);
            continue;
        };
        let ratio = p.seconds / old;
        let verdict = if ratio > 1.0 + tolerance / 100.0 { "REGRESSED" } else { "ok" };
        println!(
            "{:<14} baseline {:>9.3} ms, now {:>9.3} ms ({:+.1}%) {verdict}",
            p.name,
            old * 1e3,
            p.seconds * 1e3,
            (ratio - 1.0) * 100.0
        );
        if verdict == "REGRESSED" {
            failures.push(p.name);
        }
    }
    if !failures.is_empty() {
        eprintln!("kernel bench regression (>{tolerance}% slower): {failures:?}");
        std::process::exit(1);
    }
    println!("kernel baseline comparison passed (tolerance {tolerance}%)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--save-baseline") {
        save_baseline();
    } else if args.iter().any(|a| a == "--compare-baseline") {
        compare_baseline();
    } else {
        benches();
    }
}

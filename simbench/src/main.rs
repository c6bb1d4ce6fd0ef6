//! `simbench` — host-time benchmark of the MTASC simulator, end to end
//! and split by layer. See README.md for the workloads and metrics.
//!
//! ```text
//! simbench --workload NAME --seed N --seconds S --trace 0|1
//! simbench [--seed N] [--seconds S] [--trace 0|1]   every workload, each in a child process
//! simbench --smoke [--seed N]                       one tiny round per workload
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! carries the host fingerprint.

mod harness;
mod host;
mod layers;
mod probe;
mod stats;
mod workloads;

use std::process::{Command, Stdio};
use std::time::Instant;

use asc_core::obs::Json;

const USAGE: &str = "usage: simbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke]";

/// Processes an untraced run is spread over, one after another. Each sets
/// up afresh and measures one round of an equal share of `--seconds`, and
/// every metric is the median over them. What a process's heap and pages
/// happen to be moves its times in ways the probe (see `probe.rs`) does not
/// see; the median over processes outvotes that.
const SAMPLES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Measure in this process: one of a run's samples.
    sample: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        sample: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                args.smoke = true;
                continue;
            }
            "--sample" => {
                args.sample = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("simbench: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let code = if args.smoke {
        smoke(args.seed)
    } else if args.workload == "all" {
        run_all(&args)
    } else if args.trace || args.sample {
        run_here(&args)
    } else {
        run_samples(&args)
    };
    std::process::exit(code)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::U64(attempted)),
        ("failed".into(), Json::U64(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn metric_value(value: f64, unit: &str) -> Json {
    Json::Obj(vec![("value".into(), Json::F64(value)), ("unit".into(), Json::str(unit))])
}

/// Measure one workload in this process and print its lines.
fn run_here(args: &Args) -> i32 {
    let settings = harness::Settings { seed: args.seed, seconds: args.seconds, trace: args.trace };
    match harness::measure(&args.workload, &settings) {
        Ok(report) => {
            let metrics = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), metric_value(m.value, m.unit)))
                .collect();
            let rounds: Vec<(String, Json)> = report
                .metrics
                .iter()
                .filter(|m| !m.rounds.is_empty())
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::Arr(m.rounds.iter().map(|&v| Json::F64(v)).collect()),
                    )
                })
                .collect();
            let mut context = vec![
                ("workload".into(), Json::str(&args.workload)),
                ("fingerprint".into(), Json::Obj(report.fingerprint.clone())),
            ];
            if !rounds.is_empty() {
                context.push(("rounds".into(), Json::Obj(rounds)));
            }
            println!("{}", Json::Obj(context).to_compact());
            let line = result_line(report.correct(), report.attempted, report.failed, metrics);
            println!("{}", line.to_compact());
            0
        }
        Err(e) => {
            eprintln!("simbench: {}: {e}", args.workload);
            1
        }
    }
}

/// The arguments that measure `workload` as `args` asks, for `seconds`.
fn child_args(workload: &str, args: &Args, seconds: f64) -> Vec<String> {
    let trace = if args.trace { "1" } else { "0" };
    [
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        trace,
    ]
    .map(String::from)
    .to_vec()
}

/// Run this executable with `args` to the end. Returns its standard output
/// and the result on its last line.
fn child(args: &[String]) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    let result = result.ok_or("printed no result")?;
    Ok((stdout, result))
}

/// The combined result of a run's samples: `correct` only if every sample
/// was, summed op counts, and the median over the samples of each
/// end-to-end metric. Also returns each metric's per-sample values.
fn combine(samples: &[Json]) -> Result<(Json, Vec<(String, Json)>), String> {
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for s in samples {
        correct &= s.get("correct") == Some(&Json::Bool(true));
        attempted += s.get("attempted").and_then(Json::as_u64).ok_or("no attempted count")?;
        failed += s.get("failed").and_then(Json::as_u64).ok_or("no failed count")?;
    }
    let (mut metrics, mut per_sample) = (Vec::new(), Vec::new());
    for (name, unit) in harness::END_TO_END {
        let values = samples
            .iter()
            .map(|s| s.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| format!("a sample lacks {name}"))?;
        let value = stats::median(&values).ok_or("no samples")?;
        metrics.push((name.to_string(), metric_value(value, unit)));
        per_sample.push((name.to_string(), Json::Arr(values.into_iter().map(Json::F64).collect())));
    }
    Ok((result_line(correct, attempted, failed, metrics), per_sample))
}

/// Measure one workload untraced over [`SAMPLES`] child processes, one
/// after another, and print the combined result.
fn run_samples(args: &Args) -> i32 {
    let mut argv = child_args(&args.workload, args, args.seconds / SAMPLES as f64);
    argv.push("--sample".into());
    let mut samples = Vec::with_capacity(SAMPLES);
    let mut fingerprint = Json::Null;
    for k in 0..SAMPLES {
        match child(&argv) {
            Ok((stdout, result)) => {
                let context = stdout.lines().rev().nth(1).and_then(|l| Json::parse(l).ok());
                if let Some(f) = context.as_ref().and_then(|c| c.get("fingerprint")) {
                    fingerprint = f.clone();
                }
                samples.push(result);
            }
            Err(e) => {
                eprintln!("simbench: {} sample {k}: {e}", args.workload);
                return 1;
            }
        }
    }
    match combine(&samples) {
        Ok((result, per_sample)) => {
            let context = Json::Obj(vec![
                ("workload".into(), Json::str(&args.workload)),
                ("fingerprint".into(), fingerprint),
                ("samples".into(), Json::Obj(per_sample)),
            ]);
            println!("{}", context.to_compact());
            println!("{}", result.to_compact());
            0
        }
        Err(e) => {
            eprintln!("simbench: {}: {e}", args.workload);
            1
        }
    }
}

/// Run every workload in a child process of its own, one after another,
/// so each one's peak RSS is its own. Prints each child's result, then a
/// combined line whose metric names carry the workload as a prefix.
fn run_all(args: &Args) -> i32 {
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for name in workloads::NAMES {
        let (stdout, result) = match child(&child_args(name, args, args.seconds)) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("simbench: workload {name}: {e}");
                return 1;
            }
        };
        correct &= result.get("correct") == Some(&Json::Bool(true));
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        for (metric, value) in result.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
            metrics.push((format!("{name}.{metric}"), value.clone()));
        }
        for line in stdout.lines() {
            println!("{line}");
        }
    }
    println!("{}", result_line(correct, attempted, failed, metrics).to_compact());
    0
}

fn smoke(seed: u64) -> i32 {
    let start = Instant::now();
    let mut ok = true;
    for name in workloads::NAMES {
        match harness::smoke(name, seed) {
            Ok((attempted, failed, checks)) => {
                println!(
                    "smoke {name}: {attempted} ops, {failed} failed, {checks} failed self-checks"
                );
                ok &= failed == 0 && checks == 0;
            }
            Err(e) => {
                eprintln!("simbench: smoke {name}: {e}");
                ok = false;
            }
        }
    }
    let verdict = if ok { "ok" } else { "FAILED" };
    println!("smoke: {verdict} in {:.1} s", start.elapsed().as_secs_f64());
    i32::from(!ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "fused_stencil",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.sample),
            ("fused_stencil", 7, 10.0, true, false)
        );
        let again =
            args(&child_args(&a.workload, &a, 2.5).iter().map(String::as_str).collect::<Vec<_>>())
                .unwrap();
        assert_eq!((again.seed, again.seconds, again.trace), (7, 2.5, true));
        assert!(args(&["--workload", "fused_stencil", "--sample"]).unwrap().sample);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    fn sample(correct: bool, failed: u64, value: f64) -> Json {
        let metrics = harness::END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), metric_value(value, unit)))
            .collect();
        result_line(correct, 100, failed, metrics)
    }

    #[test]
    fn samples_combine_into_medians_and_summed_counts() {
        let samples = [1.0, 1.02, 2.0, 0.99, 1.01].map(|v| sample(true, 0, v));
        let (result, per_sample) = combine(&samples).unwrap();
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("attempted").and_then(Json::as_u64), Some(500));
        for (name, _) in harness::END_TO_END {
            let value = result.get("metrics").and_then(|m| m.get(name)?.get("value")?.as_f64());
            assert_eq!(value, Some(1.01), "{name}");
        }
        assert_eq!(per_sample.len(), harness::END_TO_END.len());
        assert_eq!(per_sample[0].1.as_arr().map(<[Json]>::len), Some(5));

        let samples = [sample(true, 0, 1.0), sample(false, 3, 1.0)];
        let (result, _) = combine(&samples).unwrap();
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(3));
    }
}

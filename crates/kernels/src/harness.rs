//! Shared kernel-running scaffolding.
//!
//! Set `MTASC_KERNEL_OBS=1` to attach the cycle-attribution profiler to
//! every kernel run and print a top-5 stall-reason summary (with the
//! hottest site of each) to stderr after each kernel — a quick way to see
//! where a kernel's issue slots go without modifying its code. Observed
//! runs are also recorded into the persistent run registry (honouring
//! `$MTASC_RUNS_DIR`), and the summary prints the registry run id.

use asc_asm::{assemble, render_errors, Program};
use asc_core::obs::{Profile, RunReport};
use asc_core::{Machine, MachineConfig, RunError, Stats};
use asc_isa::{Width, Word};
use asc_obs_store::{config_fingerprint, program_hash, RunHandle, RunMeta, RunStore};

use crate::MAX_CYCLES;

fn obs_enabled() -> bool {
    std::env::var("MTASC_KERNEL_OBS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Render the top-5 stall reasons of a profiled run, largest first, each
/// with its hottest (thread, pc) site (empty string if the run never
/// stalled).
pub fn stall_summary(profile: &Profile) -> String {
    let cycles = profile.total_cycles();
    let mut out = String::new();
    for s in profile.top_stalls(5) {
        let pct = if cycles == 0 { 0.0 } else { 100.0 * s.cycles as f64 / cycles as f64 };
        let site = match s.hottest {
            Some(h) => format!("  hottest t{} pc {} ({} cycles)", h.thread, h.pc, h.cycles),
            None => String::new(),
        };
        out.push_str(&format!(
            "  {:<26} {:>8} cycles ({pct:>5.1}%){site}\n",
            s.reason.label(),
            s.cycles
        ));
    }
    out
}

/// Assemble, panicking with rendered diagnostics on failure (kernel
/// sources are generated; a failure is a bug in the generator).
pub fn assemble_kernel(src: &str) -> Program {
    assemble(src).unwrap_or_else(|errs| {
        panic!("kernel failed to assemble:\n{}\nsource:\n{src}", render_errors(&errs))
    })
}

/// Build a machine, run `setup` to distribute data, execute, and return
/// the machine (for result extraction) with its statistics.
pub fn run_kernel(
    cfg: MachineConfig,
    src: &str,
    setup: impl FnOnce(&mut Machine),
) -> Result<(Machine, Stats), RunError> {
    let program = assemble_kernel(src);
    let mut m = Machine::with_program(cfg, &program)?;
    let mut rec = None;
    if obs_enabled() {
        m.attach_profiler();
        rec = begin_obs_record(src, &m);
    }
    setup(&mut m);
    let stats = match m.run(MAX_CYCLES) {
        Ok(stats) => stats,
        Err(e) => {
            if let Some(rec) = rec {
                let _ = rec.finish_fault(&e.to_string(), m.cycle(), m.stats().issued);
            }
            return Err(e);
        }
    };
    if let Some(profile) = m.profile() {
        eprintln!(
            "[kernel obs] {} cycles, {} issued, IPC {:.3}; {} attributed + {} drain (conservation: {})",
            stats.cycles,
            stats.issued,
            stats.ipc(),
            profile.attributed_cycles() - profile.drain_cycles(),
            profile.drain_cycles(),
            if profile.attributed_cycles() == stats.cycles { "exact" } else { "VIOLATED" }
        );
        let summary = stall_summary(profile);
        if summary.is_empty() {
            eprintln!("[kernel obs] no stall cycles");
        } else {
            eprintln!("[kernel obs] top stall reasons:\n{}", summary.trim_end_matches('\n'));
        }
    }
    if let Some(mut rec) = rec {
        if let Some(profile) = m.profile() {
            let path = rec.artifact_path("profile.json");
            if std::fs::write(&path, profile.to_json().to_pretty()).is_ok() {
                rec.add_artifact("profile.json");
            }
        }
        if let Ok(meta) = rec.finish_ok(stats.cycles, stats.issued) {
            eprintln!("[kernel obs] recorded run {}", meta.id);
        }
    }
    Ok((m, stats))
}

/// Record an observed kernel run into the registry (at the default,
/// `$MTASC_RUNS_DIR`-honouring root). Failures are swallowed:
/// observability must never break a kernel test run.
fn begin_obs_record(src: &str, m: &Machine) -> Option<RunHandle> {
    begin_obs_record_at(RunStore::default_root(), src, m)
}

fn begin_obs_record_at(root: std::path::PathBuf, src: &str, m: &Machine) -> Option<RunHandle> {
    let store = RunStore::open(root).ok()?;
    let machine = RunReport::from_machine(m).machine;
    let meta = RunMeta::begin(
        "kernel",
        "<kernel>",
        program_hash(src),
        config_fingerprint(&machine),
        machine.pes,
    );
    store.begin(meta).ok()
}

/// Every program this crate can emit, as `(name, source)` pairs at
/// representative sizes — the lint corpus behind `mtasc lint --kernels`
/// and the CI gate that keeps the kernel suite clean under
/// `--deny warnings`. Parameterized generators are instantiated at the
/// sizes the tests and experiments use on the 16-PE prototype.
pub fn corpus() -> Vec<(String, String)> {
    vec![
        ("search".into(), crate::search::program()),
        ("select(n=16)".into(), crate::select::program(16)),
        ("iterate".into(), crate::iterate::program()),
        ("mst(n=8)".into(), crate::mst::program(8)),
        ("string_match(n=16,m=4)".into(), crate::string_match::program(16, 4)),
        ("string_match_shift(n=16,m=4)".into(), crate::string_match::shift_program(16, 4)),
        ("image_stats(per_pe=4,valid=16)".into(), crate::image::stats_program(4, 16)),
        ("sort(n=16)".into(), crate::sort::program(16)),
        ("hull(n=16)".into(), crate::hull::program(16)),
        ("tracker".into(), crate::tracker::program()),
        ("batch(q=4,workers=4)".into(), crate::batch::program(4, 4)),
        ("prefix(n=16)".into(), crate::prefix::program(16)),
        ("stencil(n=16,passes=2)".into(), crate::stencil::program(16, 2)),
        ("micro/reduction_chain(8)".into(), crate::micro::reduction_chain(8)),
        ("micro/mt_reduction_fleet(4,8)".into(), crate::micro::mt_reduction_fleet(4, 8)),
        ("micro/unrolled_chain(8,4)".into(), crate::micro::unrolled_chain(8, 4)),
        ("micro/unrolled_fleet(4,8,4)".into(), crate::micro::unrolled_fleet(4, 8, 4)),
        ("micro/mixed_fleet(4,8)".into(), crate::micro::mixed_fleet(4, 8)),
        ("micro/independent_reductions(8)".into(), crate::micro::independent_reductions(8)),
        ("micro/mixed_workload(8)".into(), crate::micro::mixed_workload(8)),
    ]
}

/// Convert host values into machine words at the machine's width,
/// panicking if a value does not fit (kernel inputs must be
/// representable).
pub fn to_words(values: &[i64], width: Width) -> Vec<Word> {
    values
        .iter()
        .map(|&v| {
            assert!(
                v >= width.smin() && v <= width.mask() as i64,
                "value {v} does not fit {width}"
            );
            Word::from_i64(v, width)
        })
        .collect()
}

/// Pad a value list to the PE count with a filler.
pub fn pad_to(mut values: Vec<i64>, n: usize, fill: i64) -> Vec<i64> {
    assert!(values.len() <= n, "more values ({}) than PEs ({n})", values.len());
    values.resize(n, fill);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_words_checks_range() {
        let w = to_words(&[0, 255, -1], Width::W8);
        assert_eq!(w[1].to_u32(), 255);
        assert_eq!(w[2].to_u32(), 0xff);
    }

    #[test]
    #[should_panic]
    fn to_words_rejects_overflow() {
        to_words(&[300], Width::W8);
    }

    #[test]
    fn pad() {
        assert_eq!(pad_to(vec![1, 2], 4, 9), vec![1, 2, 9, 9]);
    }

    #[test]
    fn stall_summary_comes_from_the_profiler() {
        // a reduction chain stalls on every consumer; the profiled summary
        // must rank reduction hazards first and point at a hot site
        let program = assemble_kernel(&crate::micro::reduction_chain(8));
        let mut m = Machine::with_program(MachineConfig::new(16), &program).unwrap();
        m.attach_profiler();
        m.run(MAX_CYCLES).unwrap();
        let profile = m.profile().expect("profiler attached");
        assert_eq!(profile.attributed_cycles(), m.stats().cycles, "conservation");
        let text = stall_summary(profile);
        assert!(!text.is_empty());
        assert!(text.lines().count() <= 5, "top five only:\n{text}");
        assert!(text.contains("hazard"), "{text}");
        assert!(text.contains("hottest t0 pc "), "hot site attributed:\n{text}");
        // an empty profile renders nothing
        assert!(stall_summary(&Profile::new(1, 0)).is_empty());
    }

    #[test]
    #[should_panic]
    fn pad_rejects_too_many() {
        pad_to(vec![1, 2, 3], 2, 0);
    }

    #[test]
    fn observed_kernel_runs_record_into_the_registry() {
        // exercises the obs recording path directly — toggling the
        // MTASC_KERNEL_OBS / MTASC_RUNS_DIR env here would race with
        // parallel tests, so the registry root is passed explicitly
        let root = std::env::temp_dir().join(format!("mtasc_kernel_obs_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let src = crate::micro::reduction_chain(4);
        let program = assemble_kernel(&src);
        let mut m = Machine::with_program(MachineConfig::new(16), &program).unwrap();
        m.attach_profiler();
        let mut rec = begin_obs_record_at(root.clone(), &src, &m).expect("registry opens");
        let stats = m.run(MAX_CYCLES).unwrap();
        let profile = m.profile().unwrap();
        std::fs::write(rec.artifact_path("profile.json"), profile.to_json().to_pretty()).unwrap();
        rec.add_artifact("profile.json");
        let meta = rec.finish_ok(stats.cycles, stats.issued).unwrap();
        assert!(asc_obs_store::is_ulid(&meta.id));
        assert_eq!(meta.kind, "kernel");
        assert!(meta.config.contains("pes=16"), "{}", meta.config);
        let store = RunStore::open(&root).unwrap();
        let (listed, skipped) = store.list().unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].cycles, stats.cycles);
        assert_eq!(listed[0].artifacts, vec!["profile.json".to_string()]);
        let _ = std::fs::remove_dir_all(&root);
    }
}

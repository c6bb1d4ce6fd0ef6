//! Differential validation of the inter-thread race analyzer — the
//! family-6 severity contract enforced by execution:
//!
//! * every fixture under `tests/fixtures/races/` flagged `E6001`
//!   ("provably schedule-divergent") really does reach **different
//!   architectural states** under perturbed legal schedules,
//! * warning-severity race fixtures execute without faulting (family 6
//!   errors are divergence proofs, not fault proofs — the program runs
//!   fine under every single schedule, it just doesn't run *the same*),
//! * the shipped kernel corpus is race-clean under the analyzer **and**
//!   bit-identical across perturbed schedules, so the analyzer's
//!   silence on the corpus is backed by the machine itself,
//! * the one genuinely multithreaded data-parallel kernel (`batch`)
//!   produces schedule-independent results on real data.
//!
//! Schedule perturbation (seeds > 0) keeps every schedule legal — only
//! the rotation hand-off order and switch-penalty timing vary — so a
//! race-free program must reach the same registers/flags/memory no
//! matter the seed. See `docs/static-analysis.md` for why *cycle counts*
//! are excluded from this comparison.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use asc::core::{Machine, MachineConfig};
use asc::kernels::{batch, harness};

const SEEDS: u64 = 16;
const CORPUS_SEEDS: u64 = 8;
const BUDGET: u64 = 50_000_000;

fn fixtures() -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> =
        fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/races"))
            .expect("fixture dir")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "asc"))
            .collect();
    v.sort();
    assert!(!v.is_empty(), "race fixtures present");
    v
}

/// Final architectural states across perturbed schedules, plus how many
/// seeds faulted (race fixtures are built to never fault).
fn explore(program: &asc::asm::Program, cfg: MachineConfig, seeds: u64) -> (BTreeSet<u64>, usize) {
    let mut digests = BTreeSet::new();
    let mut faults = 0;
    for seed in 0..seeds {
        let mut m = Machine::with_program(cfg.with_sched_seed(seed), program).unwrap();
        match m.run(BUDGET) {
            Ok(_) => {
                digests.insert(m.arch_digest());
            }
            Err(_) => faults += 1,
        }
    }
    (digests, faults)
}

/// The teeth behind `E6001`: every fixture the analyzer flags as
/// provably schedule-divergent reaches at least two distinct final
/// states across perturbed schedules, and no fixture faults (the races
/// are data races, not crashes).
#[test]
fn error_flagged_race_fixtures_diverge_across_schedules() {
    let cfg = MachineConfig::prototype();
    let mut proven = 0usize;
    for path in fixtures() {
        let src = fs::read_to_string(&path).unwrap();
        let program = asc::asm::assemble(&src)
            .unwrap_or_else(|e| panic!("{path:?}: {}", asc::asm::render_errors(&e)));
        let report = asc::verify::analyze(&program, &cfg);
        let has_error = report.diagnostics.iter().any(|d| d.code.starts_with("E6"));
        let has_family6 = report.diagnostics.iter().any(|d| d.code.as_bytes()[1] == b'6');
        assert!(has_family6, "{path:?}: race fixture triggers no family-6 finding");
        let (digests, faults) = explore(&program, cfg, SEEDS);
        assert_eq!(faults, 0, "{path:?}: race fixtures must not fault");
        if has_error {
            proven += 1;
            assert!(
                digests.len() >= 2,
                "{path:?}: flagged E6001 but all {SEEDS} schedules agree — the severity \
                 contract says errors are *proven* divergent",
            );
        }
    }
    assert!(proven >= 2, "at least two E6001 fixtures keep the contract non-vacuous");
}

/// Warning-severity findings impose no divergence obligation, but each
/// code of the family must have a fixture demonstrating it.
#[test]
fn race_fixtures_cover_the_whole_family() {
    let cfg = MachineConfig::prototype();
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    for path in fixtures() {
        let src = fs::read_to_string(&path).unwrap();
        let program = asc::asm::assemble(&src).unwrap();
        for d in asc::verify::analyze(&program, &cfg).diagnostics {
            if d.code.as_bytes()[1] == b'6' {
                seen.insert(d.code);
            }
        }
    }
    for code in ["E6001", "W6002", "W6003", "W6004", "W6005"] {
        assert!(seen.contains(code), "no race fixture triggers {code} (have {seen:?})");
    }
}

/// The analyzer stays silent on the shipped kernel corpus, and the
/// machine agrees: every corpus program reaches the same architectural
/// state under every perturbed schedule, at the host's SIMD tier and at
/// the scalar one. The machine has 16 PEs, one tile and so one segment
/// at any request; the strategy matrix in `asc-core`'s property tests
/// covers the segment axis.
#[test]
fn kernel_corpus_is_race_clean_and_schedule_invariant() {
    // The full machine (pipelined multiplier) so every corpus kernel runs.
    let cfg = MachineConfig::new(16);
    // `MTASC_NO_SIMD` would fold the two tiers into one
    assert_eq!(cfg.simd_level(), asc::pe::SimdLevel::detect_hw(), "SIMD tier overridden");
    for (name, src) in harness::corpus() {
        let program = asc::asm::assemble(&src).unwrap();
        let report = asc::verify::analyze(&program, &cfg);
        let fam6: Vec<_> =
            report.diagnostics.iter().filter(|d| d.code.as_bytes()[1] == b'6').collect();
        assert!(fam6.is_empty(), "{name}: corpus kernel flagged by the race passes: {fam6:?}");
        let mut digests = BTreeSet::new();
        for tier in [cfg, cfg.without_simd()] {
            let (tier_digests, faults) = explore(&program, tier, CORPUS_SEEDS);
            assert_eq!(faults, 0, "{name}: corpus kernel faulted under a perturbed schedule");
            digests.extend(tier_digests);
        }
        assert_eq!(
            digests.len(),
            1,
            "{name}: corpus kernel reaches {} distinct states across {CORPUS_SEEDS} seeds \
             and two SIMD tiers",
            digests.len()
        );
    }
}

/// The batch kernel — the paper's worked multithreading example — gives
/// schedule-independent answers on real data: every seed reproduces the
/// host reference counts.
#[test]
fn batch_results_are_schedule_invariant_on_real_data() {
    let keys: Vec<i64> = (0..16).map(|i| (i * 7) % 5).collect();
    let queries: Vec<i64> = (0..8).map(|i| i % 5).collect();
    let expect = batch::reference(&keys, &queries);
    for seed in 0..CORPUS_SEEDS {
        let cfg = MachineConfig::new(16).with_sched_seed(seed);
        let r = batch::run(cfg, &keys, &queries, 4).unwrap();
        assert_eq!(r.counts, expect, "seed {seed}");
    }
}

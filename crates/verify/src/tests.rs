//! Unit tests for the analyzer: one or more per diagnostic family, plus
//! severity-contract and output-format checks. The differential tests
//! (every error-severity finding corresponds to a real `Machine::run`
//! fault) live in the workspace-root `tests/` directory, next to the
//! proptest harness.

use asc_core::MachineConfig;
use asc_isa::encode;

use crate::{analyze, analyze_words, Severity};

fn asm(src: &str) -> asc_asm::Program {
    asc_asm::assemble(src).unwrap_or_else(|e| panic!("{}", asc_asm::render_errors(&e)))
}

fn codes(report: &crate::LintReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

fn has(report: &crate::LintReport, code: &str) -> bool {
    report.diagnostics.iter().any(|d| d.code == code)
}

#[test]
fn clean_kernel_has_no_errors_or_warnings() {
    let p = asm("        pidx    p1
                         rmax    s1, p1
                         pceqs   pf1, p1, s1
                         pfirst  pf2, pf1
                         rget    s2, p1, pf2
                         sw      s2, 0(s0)
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert_eq!(r.error_count(), 0, "{}", r.render(None, "t"));
    assert_eq!(r.warning_count(), 0, "{}", r.render(None, "t"));
}

#[test]
fn falling_off_the_end_is_a_definite_error() {
    let p = asm("        li s1, 1\n");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "E0001"), "{:?}", codes(&r));
}

#[test]
fn conditional_fallthrough_off_end_is_a_warning() {
    // The branch at the end may or may not be taken; only one arm faults.
    let p = asm("start:  pidx    p1
                         rany    f1, pf1
                         bt      f1, start
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W0001"), "{:?}", codes(&r));
    assert!(!has(&r, "E0001"));
}

#[test]
fn jump_outside_program_is_an_error() {
    let p = asm("        j 99\n        halt\n");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "E0002"), "{:?}", codes(&r));
    // The halt is unreachable, too.
    assert!(has(&r, "W0006"), "{:?}", codes(&r));
}

#[test]
fn folded_branch_makes_bad_target_definite() {
    // f1 is provably true: li 5 / ceqi 5. The branch to pc 99 always fires.
    let p = asm("        li      s1, 5
                         ceqi    f1, s1, 5
                         bt      f1, 99
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "E0002"), "{:?}", codes(&r));
}

#[test]
fn missing_multiplier_is_caught_statically() {
    let p = asm("        li s1, 3\n        muli s2, s1, 4\n        halt\n");
    let r = analyze(&p, &MachineConfig::prototype()); // prototype has no multiplier
    assert!(has(&r, "E0003"), "{:?}", codes(&r));
    let r2 = analyze(&p, &MachineConfig::new(16)); // default config has one
    assert!(!has(&r2, "E0003") && !has(&r2, "W0003"));
}

#[test]
fn oversized_program_is_rejected() {
    let words: Vec<u32> = (0..4097).map(|_| encode(&asc_isa::Instr::Nop)).collect();
    let r = analyze_words(&words, &MachineConfig::prototype());
    assert_eq!(codes(&r), vec!["E0004"]);
}

#[test]
fn undecodable_word_is_flagged() {
    let r = analyze_words(&[0xffff_ffff], &MachineConfig::prototype());
    assert!(has(&r, "E0005"), "{:?}", codes(&r));
}

#[test]
fn never_initialized_read_warns() {
    let p = asm("        add s1, s2, s3\n        halt\n");
    let r = analyze(&p, &MachineConfig::prototype());
    let uninit: Vec<_> = r.diagnostics.iter().filter(|d| d.code == "W1001").collect();
    assert_eq!(uninit.len(), 2, "{:?}", codes(&r)); // s2 and s3
    assert_eq!(r.error_count(), 0); // registers read as zero: not a fault
}

#[test]
fn partially_initialized_read_warns_maybe() {
    let p = asm("        lw      s9, 0(s0)
                         cnei    f1, s9, 0
                         bt      f1, skip
                         li      s1, 5
        skip:            mov     s2, s1
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W1002"), "{:?}", codes(&r));
    assert!(!has(&r, "W1001"));
}

#[test]
fn spawned_threads_may_read_arguments_without_warning() {
    // The child reads s1, written by the parent via tput: no W1001.
    let p = asm("        li      s2, child
                         tspawn  s3, s2
                         li      s4, 42
                         tput    s3, s1, s4
                         tjoin   s3
                         halt
        child:           add     s5, s1, s1
                         texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(!has(&r, "W1001"), "{}", r.render(None, "t"));
    assert!(!has(&r, "W1002"));
}

#[test]
fn scalar_memory_bounds_fold_through_constants() {
    let p = asm("        li s1, 2000\n        lw s2, 0(s1)\n        halt\n");
    let r = analyze(&p, &MachineConfig::prototype()); // smem_words = 1024
    assert!(has(&r, "E2002"), "{:?}", codes(&r));
}

#[test]
fn local_memory_bounds_fold_through_broadcast() {
    let p = asm("        li      s1, 600
                         pmovs   p1, s1
                         plw     p2, 0(p1)
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype()); // lmem_words = 512
    assert!(has(&r, "E2001"), "{:?}", codes(&r));
}

#[test]
fn masked_oob_access_is_only_a_warning() {
    let p = asm("        li      s1, 600
                         pmovs   p1, s1
                         pidx    p2
                         pclti   pf1, p2, 3
                         plw     p3, 0(p1) ?pf1
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W2001"), "{:?}", codes(&r));
    assert!(!has(&r, "E2001"));
}

#[test]
fn self_join_is_an_error() {
    let p = asm("        tid s1\n        tjoin s1\n        halt\n");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "E3001"), "{:?}", codes(&r));
}

#[test]
fn out_of_range_thread_id_is_an_error() {
    let p = asm("        li s1, 99\n        tjoin s1\n        halt\n");
    let r = analyze(&p, &MachineConfig::prototype()); // 16 contexts
    assert!(has(&r, "E3002"), "{:?}", codes(&r));
}

#[test]
fn use_after_join_warns() {
    let p = asm("        li      s2, child
                         tspawn  s1, s2
                         tjoin   s1
                         tget    s3, s1, s4
                         halt
        child:           texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W3003"), "{:?}", codes(&r));
}

#[test]
fn join_without_any_spawn_warns() {
    let p = asm("        li s1, 2\n        tjoin s1\n        halt\n");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W3004"), "{:?}", codes(&r));
}

#[test]
fn overwriting_a_live_handle_warns() {
    let p = asm("        li      s2, child
                         tspawn  s1, s2
                         li      s1, 0
                         halt
        child:           texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W3005"), "{:?}", codes(&r));
}

#[test]
fn copied_or_joined_handles_do_not_warn() {
    let p = asm("        li      s2, child
                         tspawn  s1, s2
                         mov     s3, s1
                         li      s1, 0
                         tjoin   s3
                         halt
        child:           texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(!has(&r, "W3005"), "{:?}", codes(&r));
}

#[test]
fn always_false_mask_warns_and_suppresses_other_checks() {
    // pf3 is never set, so the store under it is a no-op — W4001, and no
    // bounds complaint even though the folded address is out of range.
    let p = asm("        li      s1, 600
                         pmovs   p1, s1
                         psw     p1, 0(p1) ?pf3
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W4001"), "{:?}", codes(&r));
    assert!(!has(&r, "E2001") && !has(&r, "W2001"));
}

#[test]
fn mask_set_on_some_path_does_not_warn() {
    let p = asm("        pidx    p1
                         pclti   pf1, p1, 3
                         paddi   p2, p1, 1 ?pf1
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(!has(&r, "W4001"), "{:?}", codes(&r));
}

#[test]
fn dead_flag_store_warns() {
    // The first pclti is fully overwritten before any use; the second is
    // consumed by rcount. A flag still live at halt is a result, not a
    // dead store.
    let p = asm("        pidx    p1
                         pclti   pf1, p1, 3
                         pclti   pf1, p1, 5
                         rcount  s1, pf1
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W4002"), "{:?}", codes(&r));
    assert_eq!(r.diagnostics.iter().filter(|d| d.code == "W4002").count(), 1);
    assert_eq!(r.diagnostics.iter().find(|d| d.code == "W4002").unwrap().pc, 1);
}

#[test]
fn flag_live_at_halt_is_a_result_not_a_dead_store() {
    let p = asm("        pidx    p1
                         pclti   pf1, p1, 3
                         rany    f2, pf1
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(!has(&r, "W4002"), "{:?}", codes(&r));
}

#[test]
fn flag_used_as_mask_is_not_dead() {
    let p = asm("        pidx    p1
                         pclti   pf1, p1, 3
                         paddi   p2, p1, 1 ?pf1
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(!has(&r, "W4002"), "{:?}", codes(&r));
}

#[test]
fn raw_hazard_chain_produces_notes() {
    let p = asm("        pidx    p1
                         rsum    s1, p1
                         padds   p2, p1, s1
                         rsum    s2, p2
                         sw      s2, 0(s0)
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "N5001"), "{:?}", codes(&r));
    // Notes never affect the verdict.
    assert!(r.is_clean(true), "{}", r.render(None, "t"));
}

#[test]
fn fusion_cut_is_explained() {
    let p = asm("        pidx    p1
                         paddi   p2, p1, 1
                         pclti   pf1, p2, 3
                         rcount  s1, pf1
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    let cut = r.diagnostics.iter().find(|d| d.code == "N5003").expect("fusion note");
    assert_eq!(cut.pc, 3, "cut at the reduction");
    assert!(cut.message.contains("reduction"), "{}", cut.message);
}

#[test]
fn fusion_cut_at_an_access_that_can_fault_is_explained() {
    // a per-lane base can fault, so the plw ends the block before it
    let p = asm("        pidx    p1
                         paddi   p2, p1, 1
                         plw     p3, 0(p2)
                         halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    let cut = r.diagnostics.iter().find(|d| d.code == "N5003").expect("fusion note");
    assert_eq!(cut.pc, 2, "cut at the per-lane load");
    assert!(cut.message.contains("can fault"), "{}", cut.message);
}

#[test]
fn unreached_fault_sites_stay_warnings() {
    // The oob load sits behind a data-dependent branch: W, not E.
    let p = asm("        pidx    p1
                         rany    f1, pf1
                         bt      f1, skip
                         li      s1, 2000
                         lw      s2, 0(s1)
        skip:            halt
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W2002"), "{:?}", codes(&r));
    assert!(!has(&r, "E2002"));
}

#[test]
fn severity_ordering_and_source_info_in_render() {
    let src = "        li      s1, 2000\n        lw      s2, 0(s1)\n";
    let p = asm(src);
    let r = analyze(&p, &MachineConfig::prototype());
    let text = r.render(Some(src), "buggy.asc");
    assert!(text.contains("error[E2002]"), "{text}");
    assert!(text.contains("buggy.asc:2"), "{text}");
    assert!(text.contains('^'), "caret excerpt expected:\n{text}");
    // Errors sort before warnings and notes.
    let sevs: Vec<Severity> = r.diagnostics.iter().map(|d| d.severity).collect();
    let mut sorted = sevs.clone();
    sorted.sort();
    assert_eq!(sevs, sorted);
}

#[test]
fn json_report_round_trips_through_the_strict_parser() {
    let p = asm("        li s1, 2000\n        lw s2, 0(s1)\n");
    let r = analyze(&p, &MachineConfig::prototype());
    let encoded = r.to_json().to_pretty();
    let parsed = asc_core::obs::Json::parse(&encoded).expect("valid JSON");
    assert_eq!(parsed.get("schema").and_then(|s| s.as_str()), Some("mtasc.lint.v1"));
    let diags = parsed.get("diagnostics").and_then(|d| d.as_arr()).unwrap();
    assert!(!diags.is_empty());
    for d in diags {
        let code = d.get("code").and_then(|c| c.as_str()).unwrap();
        assert!(crate::explain(code).is_some(), "code {code} missing from catalog");
    }
    let summary = parsed.get("summary").unwrap();
    assert_eq!(summary.get("errors").and_then(|e| e.as_u64()), Some(r.error_count() as u64));
}

#[test]
fn every_emittable_code_is_in_the_catalog() {
    // Exercise a grab-bag of buggy programs and check each emitted code
    // resolves in the catalog (so --explain always works).
    let sources = [
        "        li s1, 1\n",
        "        j 99\n        halt\n",
        "        add s1, s2, s3\n        halt\n",
        "        li s1, 2000\n        lw s2, 0(s1)\n        halt\n",
        "        tid s1\n        tjoin s1\n        halt\n",
        "        pidx p1\n        pclti pf1, p1, 3\n        halt\n",
    ];
    for src in sources {
        let r = analyze(&asm(src), &MachineConfig::prototype());
        for d in &r.diagnostics {
            assert!(crate::explain(d.code).is_some(), "{} not in catalog", d.code);
        }
    }
}

// ------------------------------------------------ family 6: inter-thread

#[test]
fn definite_write_write_race_is_an_error() {
    // Both writes are on straight-line prefixes with different folded
    // values, the spawn definitely happens, and no join intervenes.
    let p = asm("        li      s1, child
                         tspawn  s2, s1
                         li      s3, 1
                         sw      s3, 100(s0)
                         tjoin   s2
                         halt
        child:           li      s3, 2
                         sw      s3, 100(s0)
                         texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "E6001"), "{}", r.render(None, "t"));
    assert!(!has(&r, "W6002"));
}

#[test]
fn read_write_conflict_is_a_warning() {
    let p = asm("        li      s1, child
                         tspawn  s2, s1
                         lw      s4, 100(s0)
                         tjoin   s2
                         halt
        child:           li      s3, 2
                         sw      s3, 100(s0)
                         texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W6002"), "{}", r.render(None, "t"));
    assert!(!has(&r, "E6001"));
}

#[test]
fn writes_of_the_same_folded_value_are_benign() {
    let p = asm("        li      s1, child
                         tspawn  s2, s1
                         li      s3, 7
                         sw      s3, 100(s0)
                         tjoin   s2
                         halt
        child:           li      s3, 7
                         sw      s3, 100(s0)
                         texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(!has(&r, "E6001"), "{}", r.render(None, "t"));
    assert!(!has(&r, "W6002"));
}

#[test]
fn access_after_join_is_ordered_and_quiet() {
    let p = asm("        li      s1, child
                         tspawn  s2, s1
                         tjoin   s2
                         li      s3, 1
                         sw      s3, 100(s0)
                         halt
        child:           li      s3, 2
                         sw      s3, 100(s0)
                         texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(!has(&r, "E6001"), "{}", r.render(None, "t"));
    assert!(!has(&r, "W6002"));
}

#[test]
fn disjoint_addresses_are_quiet() {
    let p = asm("        li      s1, child
                         tspawn  s2, s1
                         li      s3, 1
                         sw      s3, 100(s0)
                         tjoin   s2
                         halt
        child:           li      s3, 2
                         sw      s3, 101(s0)
                         texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(!has(&r, "E6001"), "{}", r.render(None, "t"));
    assert!(!has(&r, "W6002"));
}

#[test]
fn local_memory_race_between_contexts_warns() {
    let p = asm("        li      s1, child
                         li      s4, 5
                         pmovs   p1, s4
                         tspawn  s2, s1
                         psw     p1, 0(p0)
                         tjoin   s2
                         halt
        child:           li      s5, 9
                         pmovs   p2, s5
                         psw     p2, 0(p0)
                         texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W6003"), "{}", r.render(None, "t"));
}

#[test]
fn sibling_threads_racing_each_other_warn() {
    let p = asm("        li      s1, left
                         tspawn  s2, s1
                         li      s1, right
                         tspawn  s3, s1
                         tjoin   s2
                         tjoin   s3
                         lw      s4, 50(s0)
                         halt
        left:            li      s5, 1
                         sw      s5, 50(s0)
                         texit
        right:           li      s5, 2
                         sw      s5, 50(s0)
                         texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "E6001"), "{}", r.render(None, "t"));
    // The parent's own lw sits after both joins: no main-vs-child finding.
    let e: Vec<_> = r.diagnostics.iter().filter(|d| d.code == "E6001").collect();
    assert_eq!(e.len(), 1, "{}", r.render(None, "t"));
}

#[test]
fn transfer_to_running_thread_that_writes_the_register_warns() {
    let p = asm("        li      s1, child
                         tspawn  s2, s1
                         tget    s3, s2, s4
                         tjoin   s2
                         halt
        child:           li      s4, 9
                         texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W6004"), "{}", r.render(None, "t"));
}

#[test]
fn argument_passing_idiom_stays_quiet_in_family_6() {
    // tput into a register the child only reads: the sanctioned idiom.
    let p = asm("        li      s2, child
                         tspawn  s3, s2
                         li      s4, 42
                         tput    s3, s1, s4
                         tjoin   s3
                         halt
        child:           add     s5, s1, s1
                         texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(!has(&r, "W6004"), "{}", r.render(None, "t"));
    assert!(!has(&r, "W6005"));
}

#[test]
fn raw_thread_id_under_live_spawn_warns() {
    let p = asm("        li      s1, child
                         tspawn  s2, s1
                         li      s3, 1
                         tjoin   s3
                         halt
        child:           texit
        ");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(has(&r, "W6005"), "{}", r.render(None, "t"));
}

#[test]
fn spawn_free_programs_have_no_family_6_findings() {
    let p = asm("        li s1, 1\n        sw s1, 0(s0)\n        lw s2, 0(s0)\n        halt\n");
    let r = analyze(&p, &MachineConfig::prototype());
    assert!(!codes(&r).iter().any(|c| c.starts_with("E6") || c.starts_with("W6")));
}

#[test]
fn kernel_corpus_is_race_clean() {
    // The shipped kernels must stay quiet under the race passes: the CI
    // lint gate runs with --deny warnings over the corpus.
    for (name, asm_src) in asc_kernels::harness::corpus() {
        let p = asm(&asm_src);
        let r = analyze(&p, &MachineConfig::prototype());
        let fam6: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.code.starts_with("E6") || d.code.starts_with("W6"))
            .collect();
        assert!(fam6.is_empty(), "{name}: {}", r.render(None, &name));
    }
}

#[test]
fn docs_catalog_table_matches_the_code_catalog() {
    // docs/static-analysis.md documents every code in a `| `X0000` |`
    // table row; the sets must stay in sync in both directions so
    // `--explain` and the docs never disagree.
    let docs =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/static-analysis.md");
    let text = std::fs::read_to_string(&docs).unwrap_or_else(|e| panic!("{docs:?}: {e}"));
    let mut documented = std::collections::BTreeSet::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("| `") else { continue };
        let Some((code, _)) = rest.split_once('`') else { continue };
        if code.len() == 4 + 1 && code[1..].chars().all(|c| c.is_ascii_digit()) {
            documented.insert(code.to_string());
        }
    }
    let catalog: std::collections::BTreeSet<String> =
        crate::CODES.iter().map(|i| i.code.to_string()).collect();
    assert_eq!(
        documented, catalog,
        "docs table and CODES catalog diverged (left = docs, right = catalog)"
    );
}

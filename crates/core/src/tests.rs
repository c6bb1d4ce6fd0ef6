//! End-to-end tests of the timing machine: functional semantics, the three
//! hazard classes of Figure 2 (with exact cycle counts), multithreading
//! behaviour, structural hazards, error paths, and differential testing
//! against the functional emulator.

use asc_asm::assemble;
use asc_isa::{Width, Word};
use asc_pe::{DividerConfig, MultiplierKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::baseline::run_nonpipelined;
use crate::config::MachineConfig;
use crate::emulator::Emulator;
use crate::error::RunError;
use crate::machine::Machine;
use crate::run_source;
use crate::stats::StallReason;

const MAX: u64 = 1_000_000;

fn proto() -> MachineConfig {
    MachineConfig::prototype()
}

fn full() -> MachineConfig {
    MachineConfig::new(16)
}

/// Issue cycles of a straight-line program, via the trace.
fn issue_cycles(cfg: MachineConfig, src: &str) -> Vec<u64> {
    let program = assemble(src).unwrap();
    let mut m = Machine::with_program(cfg, &program).unwrap();
    m.enable_trace();
    m.run(MAX).unwrap();
    m.trace().unwrap().iter().map(|r| r.cycle).collect()
}

// ------------------------------------------------------------ semantics

#[test]
fn scalar_arithmetic_and_memory() {
    let (m, _) = run_source(
        proto(),
        "li   s1, 100
         addi s2, s1, -58
         sw   s2, 5(s0)
         lw   s3, 5(s0)
         add  s4, s3, s3
         halt",
        MAX,
    )
    .unwrap();
    assert_eq!(m.sreg(0, 2).to_i64(Width::W16), 42);
    assert_eq!(m.sreg(0, 4).to_i64(Width::W16), 84);
    assert_eq!(m.smem().read(5).unwrap().to_u32(), 42);
}

#[test]
fn loops_and_flags() {
    // sum 1..=10 with a loop
    let (m, _) = run_source(
        proto(),
        "        li   s1, 0      ; acc
                 li   s2, 1      ; i
                 li   s3, 10
         loop:   add  s1, s1, s2
                 ceq  f1, s2, s3
                 addi s2, s2, 1
                 bf   f1, loop
                 halt",
        MAX,
    )
    .unwrap();
    assert_eq!(m.sreg(0, 1).to_u32(), 55);
}

#[test]
fn jal_and_jr() {
    let (m, _) = run_source(
        proto(),
        "        li   s2, 7
                 jal  s15, double
                 add  s3, s1, s0
                 halt
         double: add  s1, s2, s2
                 jr   s15",
        MAX,
    )
    .unwrap();
    assert_eq!(m.sreg(0, 3).to_u32(), 14);
}

#[test]
fn lui_loads_upper_half() {
    let (m, _) = run_source(proto(), "lui s1, 0xab\nhalt\n", MAX).unwrap();
    // W16: shift by 8
    assert_eq!(m.sreg(0, 1).to_u32(), 0xab00);
}

#[test]
fn associative_find_max_and_index() {
    // the canonical ASC idiom: max value, then which PE holds it
    let program = assemble(
        "        plw    p2, 0(p0)      ; load data
                 pidx   p1
                 rmax   s1, p2         ; global max
                 pceqs  pf1, p2, s1    ; search
                 rcount s3, pf1        ; how many responders?
                 pfirst pf2, pf1       ; pick one
                 rget   s2, p1, pf2    ; its index
                 halt",
    )
    .unwrap();
    let mut m = Machine::with_program(full(), &program).unwrap();
    let data = [3, 17, 9, 42, 42, 1, 0, 5, 42, 7, 2, 2, 30, 41, 40, 39];
    let words: Vec<Word> = data.iter().map(|&v| Word::new(v, Width::W16)).collect();
    m.array_mut().scatter_column(0, &words).unwrap();
    m.run(MAX).unwrap();
    assert_eq!(m.sreg(0, 1).to_u32(), 42);
    assert_eq!(m.sreg(0, 3).to_u32(), 3, "three responders hold 42");
    assert_eq!(m.sreg(0, 2).to_u32(), 3, "first responder is PE 3");
}

#[test]
fn masked_execution_leaves_inactive_pes_alone() {
    let (m, _) = run_source(
        full(),
        "        pidx   p1
                 pclei  pf1, p1, 7
                 pfnot  pf1, pf1       ; upper half responds
                 pli    p2, 1
                 paddi  p2, p2, 10 ?pf1
                 halt",
        MAX,
    )
    .unwrap();
    for pe in 0..16 {
        let expect = if pe > 7 { 11 } else { 1 };
        assert_eq!(m.array().gpr(pe, 0, 2).to_u32(), expect, "PE {pe}");
    }
}

#[test]
fn reduction_identities_on_empty_responder_set() {
    let (m, _) = run_source(
        full(),
        "        pidx  p1
                 pclei pf1, p1, 100
                 pfnot pf1, pf1       ; nobody responds
                 rsum  s1, p1 ?pf1
                 rmax  s2, p1 ?pf1
                 rcount s3, pf1
                 rany  f1, pf1
                 rget  s4, p1, pf1
                 halt",
        MAX,
    )
    .unwrap();
    assert_eq!(m.sreg(0, 1).to_u32(), 0, "empty sum");
    assert_eq!(m.sreg(0, 2).to_i64(Width::W16), Width::W16.smin(), "empty max = identity");
    assert_eq!(m.sreg(0, 3).to_u32(), 0);
    assert!(!m.sflag(0, 1));
    assert_eq!(m.sreg(0, 4).to_u32(), 0, "rget with no responders gives 0");
}

// ------------------------------------------------------------ hazard timing

#[test]
fn broadcast_hazard_is_forwarded_no_stall() {
    // Figure 2 top: SUB then dependent PADD issue back-to-back.
    let cycles = issue_cycles(
        proto(),
        "sub   s1, s2, s3
         padds p1, p2, s1
         halt",
    );
    assert_eq!(cycles[1] - cycles[0], 1, "EX->B1 forwarding");
}

#[test]
fn reduction_hazard_stalls_b_plus_r() {
    // Figure 2 middle: RMAX then a scalar consumer.
    let cfg = proto();
    let t = cfg.timing();
    let cycles = issue_cycles(
        cfg,
        "rmax s1, p2
         sub  s3, s1, s1
         halt",
    );
    assert_eq!(t.b + t.r, 6);
    assert_eq!(
        cycles[1] - cycles[0],
        t.b + t.r + 1,
        "dependent scalar stalls exactly b+r cycles beyond back-to-back"
    );
}

#[test]
fn broadcast_reduction_hazard_stalls_b_plus_r() {
    // Figure 2 bottom: RMAX then a dependent parallel instruction.
    let cfg = proto();
    let t = cfg.timing();
    let cycles = issue_cycles(
        cfg,
        "rmax  s1, p2
         padds p1, p2, s1
         halt",
    );
    assert_eq!(cycles[1] - cycles[0], t.b + t.r + 1);
}

#[test]
fn independent_instruction_after_reduction_does_not_stall() {
    let cycles = issue_cycles(
        proto(),
        "rmax s1, p2
         add  s3, s4, s5
         halt",
    );
    assert_eq!(cycles[1] - cycles[0], 1);
}

#[test]
fn reduction_initiation_rate_is_one_per_cycle() {
    // independent reductions: the pipelined network accepts one per cycle
    let cycles = issue_cycles(
        proto(),
        "rsum s1, p1
         rmax s2, p1
         rmin s3, p1
         ror  s4, p1
         halt",
    );
    assert_eq!(&cycles[..4], &[0, 1, 2, 3]);
}

#[test]
fn load_use_bubble() {
    let cycles = issue_cycles(
        proto(),
        "lw  s1, 0(s0)
         add s2, s1, s1
         halt",
    );
    assert_eq!(cycles[1] - cycles[0], 2, "one load-delay bubble");
}

#[test]
fn parallel_chain_is_fully_forwarded() {
    let cycles = issue_cycles(
        proto(),
        "paddi p1, p1, 1
         paddi p2, p1, 2
         rsum  s1, p2
         halt",
    );
    assert_eq!(&cycles[..3], &[0, 1, 2], "PE-local and network-input forwarding");
}

#[test]
fn stall_accounting_attributes_reduction_hazards() {
    let cfg = proto();
    let t = cfg.timing();
    let (_, stats) = run_source(
        cfg,
        "rmax s1, p2
         sub  s3, s1, s1
         halt",
        MAX,
    )
    .unwrap();
    assert_eq!(stats.stalls_for(StallReason::ReductionHazard), t.b + t.r);
    assert_eq!(stats.stalls_for(StallReason::BroadcastHazard), 0);
}

/// Two source operands whose producers finish in the same cycle: the stall
/// is charged to the earlier operand in `Instr::reads` order, which
/// decides both its reason and the producer the profiler says it waited
/// on.
#[test]
fn tied_raw_hazards_charge_the_earlier_operand() {
    // rsum at cycle 0 and lw at cycle 5 both make their value available
    // at cycle 8 (b = 2, r = 4); the add at cycle 6 consumes both at 7
    for (add, reason, producer_pc) in [
        ("add s3, s1, s2", StallReason::ReductionHazard, 0),
        ("add s3, s2, s1", StallReason::DataHazard, 5),
    ] {
        let src = format!("rsum s1, p1\nnop\nnop\nnop\nnop\nlw s2, 0(s0)\n{add}\nhalt\n");
        let mut m = Machine::with_program(proto(), &assemble(&src).unwrap()).unwrap();
        m.attach_profiler();
        let stats = m.run(MAX).unwrap();
        assert_eq!(stats.stall_cycles, 1, "{add}");
        assert_eq!(stats.stalls_for(reason), 1, "{add}");
        let row = m.profile().unwrap().row(0, 6);
        assert_eq!(row.stalls[reason.index()], 1, "{add}");
        assert_eq!(row.longest_wait_pc, producer_pc, "{add}");
    }
}

#[test]
fn hazard_latency_grows_with_pe_count() {
    // §5: "the latency of a reduction operation depends on the number of
    // PEs and can vary from a few cycles for a small machine to tens of
    // cycles for a larger one"
    let mut last = 0;
    for p in [4usize, 64, 1024, 16384] {
        let cfg = MachineConfig::new(p).single_threaded();
        let t = cfg.timing();
        let cycles = issue_cycles(
            cfg,
            "rmax s1, p2
             sub  s3, s1, s1
             halt",
        );
        let gap = cycles[1] - cycles[0];
        assert_eq!(gap, t.b + t.r + 1);
        assert!(gap > last);
        last = gap;
    }
}

#[test]
fn waw_interlock_preserves_write_order() {
    let cfg = proto();
    let (m, _) = run_source(
        cfg,
        "rmax s1, p2
         li   s1, 5
         halt",
        MAX,
    )
    .unwrap();
    // program order must win
    assert_eq!(m.sreg(0, 1).to_u32(), 5);
    // and the younger write was delayed (data-hazard stall recorded)
    let cycles = issue_cycles(
        cfg,
        "rmax s1, p2
         li   s1, 5
         halt",
    );
    assert!(cycles[1] - cycles[0] > 1, "WAW interlock must delay the LI");
}

#[test]
fn branch_bubble_costs_one_cycle() {
    let cycles = issue_cycles(
        proto(),
        "j    next
         nop
         next: halt",
    );
    // j at 0, halt at 2
    assert_eq!(cycles[1] - cycles[0], 2, "taken branch costs one bubble");
}

// ------------------------------------------------------------ multithreading

/// A reduction-dependency-chain worker: the worst case for a single
/// thread, the best case for fine-grain MT.
const MT_PROGRAM: &str = "
main:    li   s1, worker
         li   s2, 0          ; i
         li   s3, 7          ; workers
spawnl:  ceq  f1, s2, s3
         bt   f1, joins
         tspawn s4, s1
         sw   s4, 16(s2)
         addi s2, s2, 1
         j    spawnl
joins:   li   s2, 0
joinl:   ceq  f1, s2, s3
         bt   f1, done
         lw   s4, 16(s2)
         tjoin s4
         addi s2, s2, 1
         j    joinl
done:    halt
worker:  li   s6, 20         ; iterations
         pidx p1
wloop:   padds p2, p1, s7    ; broadcast-reduction hazard on s7
         rsum s7, p2
         addi s6, s6, -1
         ceqi f1, s6, 0
         bf   f1, wloop
         texit
";

/// The same total work on one thread (7 x 20 iterations, no spawning).
const ST_PROGRAM: &str = "
main:    li   s6, 140
         pidx p1
wloop:   padds p2, p1, s7
         rsum s7, p2
         addi s6, s6, -1
         ceqi f1, s6, 0
         bf   f1, wloop
         halt
";

#[test]
fn multithreading_hides_reduction_stalls() {
    let (_, st) = run_source(full().single_threaded(), ST_PROGRAM, MAX).unwrap();
    let (_, mt) = run_source(full(), MT_PROGRAM, MAX).unwrap();
    assert!(
        mt.cycles < st.cycles,
        "7-way MT should beat 1 thread on the same work: {} vs {}",
        mt.cycles,
        st.cycles
    );
    assert!(mt.ipc() > 1.5 * st.ipc(), "MT IPC {} should far exceed ST IPC {}", mt.ipc(), st.ipc());
    assert!(
        mt.stalls_for(StallReason::BroadcastReductionHazard)
            < st.stalls_for(StallReason::BroadcastReductionHazard),
        "stall cycles must shrink under MT"
    );
}

#[test]
fn spawned_workers_computed_correctly() {
    // every worker ends with s7 = rsum over p2 — state is per-thread
    let (m, _) = run_source(full(), MT_PROGRAM, MAX).unwrap();
    // main thread (0) halted; its s2 reached 7
    assert_eq!(m.sreg(0, 2).to_u32(), 7);
}

#[test]
fn rotating_priority_is_fair() {
    // two threads of pure independent ALU work alternate issue slots
    let src = "
main:    li   s1, worker
         tspawn s2, s1
         li   s6, 50
mloop:   addi s6, s6, -1
         ceqi f1, s6, 0
         bf   f1, mloop
         tjoin s2
         halt
worker:  li   s6, 50
wloop:   addi s6, s6, -1
         ceqi f1, s6, 0
         bf   f1, wloop
         texit
";
    let (_, stats) = run_source(full(), src, MAX).unwrap();
    let a = stats.issued_by_thread[0] as f64;
    let b = stats.issued_by_thread[1] as f64;
    assert!((a / b) < 1.6 && (b / a) < 1.6, "fair split, got {a} vs {b}");
}

#[test]
fn thread_exhaustion_returns_all_ones() {
    // 16-thread machine: main + 15 spawns succeed, the 16th fails
    let src = "
main:    li   s1, worker
         li   s2, 0
         li   s3, 16
spawnl:  ceq  f1, s2, s3
         bt   f1, done
         tspawn s4, s1
         addi s2, s2, 1
         j    spawnl
done:    halt
worker:  j worker
";
    let (m, _) = run_source(full(), src, MAX).unwrap();
    // s4 holds the last tspawn result: all-ones = failure
    assert_eq!(m.sreg(0, 4).to_u32(), Width::W16.mask());
}

#[test]
fn tget_tput_transfer_data() {
    let src = "
main:    li   s1, worker
         tspawn s2, s1
         li   s3, 99
         tput s2, s5, s3     ; worker.s5 = 99
         tjoin s2
         halt
worker:  li   s7, 0
wait:    ceqi f1, s5, 99
         bf   f1, wait
         addi s5, s5, 1      ; s5 = 100
         texit
";
    let (m, _) = run_source(full(), src, MAX).unwrap();
    // after join, read worker's register from host: thread 1 s5
    assert_eq!(m.sreg(1, 5).to_u32(), 100);
}

#[test]
fn coarse_grain_is_worse_on_frequent_short_stalls() {
    // §5's argument: reduction stalls are frequent and short, so
    // coarse-grain switching (with its flush penalty) cannot hide them.
    let fine = run_source(full(), MT_PROGRAM, MAX).unwrap().1;
    let coarse = run_source(full().coarse_grain(4), MT_PROGRAM, MAX).unwrap().1;
    assert!(
        fine.cycles < coarse.cycles,
        "fine-grain {} should beat coarse-grain {}",
        fine.cycles,
        coarse.cycles
    );
    assert!(coarse.thread_switches > 0);
}

#[test]
fn forwarding_ablation_reintroduces_stalls() {
    // with forwarding: back-to-back; without: bubbles everywhere
    let src = "sub s1, s2, s3\npadds p1, p2, s1\nhalt\n";
    let with_fwd = issue_cycles(proto(), src);
    let without = issue_cycles(proto().without_forwarding(), src);
    assert_eq!(with_fwd[1] - with_fwd[0], 1);
    assert!(
        without[1] - without[0] >= 4,
        "no forwarding: must wait for WB, gap {}",
        without[1] - without[0]
    );
    let (_, stats) = run_source(proto().without_forwarding(), src, MAX).unwrap();
    assert!(stats.stalls_for(StallReason::BroadcastHazard) > 0);
}

#[test]
fn pshift_moves_data_between_pes() {
    let (m, _) = run_source(
        full(),
        "pidx   p1
         pshift p2, p1, 1      ; p2[i] = p1[i-1]
         pshift p3, p1, -4     ; p3[i] = p1[i+4]
         padd   p4, p2, p3
         rsum   s1, p2
         halt",
        MAX,
    )
    .unwrap();
    for pe in 0..16u32 {
        let expect2 = pe.saturating_sub(1);
        let expect3 = if pe + 4 < 16 { pe + 4 } else { 0 };
        assert_eq!(m.array().gpr(pe as usize, 0, 2).to_u32(), expect2);
        assert_eq!(m.array().gpr(pe as usize, 0, 3).to_u32(), expect3);
    }
    // sum of 0..=14 = 105
    assert_eq!(m.sreg(0, 1).to_u32(), 105);
}

// ------------------------------------------------------------ structural hazards

#[test]
fn sequential_divider_is_a_structural_hazard() {
    let mut cfg = full();
    cfg.divider = DividerConfig::Sequential { cycles: 18 };
    // two *independent* divisions: the second must wait for the unit
    let cycles = issue_cycles(
        cfg,
        "divi s1, s2, 3
         divi s3, s4, 5
         halt",
    );
    assert!(
        cycles[1] - cycles[0] >= 17,
        "second div waits for the sequential unit, gap {}",
        cycles[1] - cycles[0]
    );
    let (_, stats) = run_source(
        cfg,
        "divi s1, s2, 3
         divi s3, s4, 5
         halt",
        MAX,
    )
    .unwrap();
    assert!(stats.stalls_for(StallReason::Structural) > 0);
}

#[test]
fn pipelined_multiplier_has_no_structural_hazard() {
    let cfg = full(); // pipelined multiplier
    let cycles = issue_cycles(
        cfg,
        "muli s1, s2, 3
         muli s3, s4, 5
         halt",
    );
    assert_eq!(cycles[1] - cycles[0], 1);
}

#[test]
fn scalar_and_parallel_divider_are_separate_units() {
    let mut cfg = full();
    cfg.divider = DividerConfig::Sequential { cycles: 18 };
    let cycles = issue_cycles(
        cfg,
        "divi  s1, s2, 3
         pdivi p1, p2, 5
         halt",
    );
    assert_eq!(cycles[1] - cycles[0], 1, "different datapaths, no conflict");
}

// ------------------------------------------------------------ fetch model

#[test]
fn finite_fetch_matches_ideal_for_single_thread_straightline() {
    // with one thread and no branches, one fetch per cycle keeps pace with
    // one issue per cycle: finite fetch adds at most the initial fill
    let src = "li s1, 1\naddi s1, s1, 1\naddi s1, s1, 1\naddi s1, s1, 1\nhalt\n";
    let (_, ideal) = run_source(full().single_threaded(), src, MAX).unwrap();
    let (m, finite) = run_source(full().single_threaded().with_fetch_buffers(2), src, MAX).unwrap();
    assert_eq!(m.sreg(0, 1).to_u32(), 4);
    assert!(finite.cycles <= ideal.cycles + 2, "{} vs {}", finite.cycles, ideal.cycles);
}

#[test]
fn finite_fetch_functional_results_identical() {
    let (a, _) = run_source(full(), MT_PROGRAM, MAX).unwrap();
    let (b, _) = run_source(full().with_fetch_buffers(2), MT_PROGRAM, MAX).unwrap();
    for r in 0..16 {
        assert_eq!(a.sreg(0, r), b.sreg(0, r), "s{r}");
    }
}

#[test]
fn fetch_bandwidth_limits_many_banked_threads() {
    // 8 threads of pure ALU work want 8 issues/cycle worth of fetch; the
    // single-ported fetch unit caps the machine at ~1 issue/cycle and the
    // shortfall shows up as fetch-empty stalls... with single issue the
    // bandwidths match, so IPC should stay high but fetch-empty stalls
    // appear during branch-flush refills
    let src = "
main:    li   s1, worker
         tspawn s2, s1
         tspawn s3, s1
         tspawn s4, s1
         li   s6, 40
mloop:   addi s6, s6, -1
         ceqi f1, s6, 0
         bf   f1, mloop
         halt
worker:  li   s6, 40
wloop:   addi s6, s6, -1
         ceqi f1, s6, 0
         bf   f1, wloop
         texit
";
    let (_, stats) = run_source(full().with_fetch_buffers(2), src, MAX).unwrap();
    assert!(stats.ipc() > 0.5);
    // branchy code with flushed buffers must show refill stalls
    assert!(
        stats.stalls_for(StallReason::FetchEmpty) + stats.stalls_for(StallReason::BranchBubble) > 0
    );
}

#[test]
fn local_memory_is_shared_between_threads() {
    // §6.2: "the local memory is shared between threads at the hardware
    // level" — thread 0 stores, the worker loads
    let src = "
main:    pidx p1
         pmuli p2, p1, 5
         psw  p2, 0(p1)      ; lmem[idx] = idx*5, by thread 0
         li   s1, worker
         tspawn s2, s1
         tjoin s2
         halt
worker:  pidx p1
         plw  p3, 0(p1)      ; read what thread 0 wrote
         rsum s5, p3
         texit
";
    let (m, _) = run_source(full(), src, MAX).unwrap();
    let expect: u32 = (0..16).map(|i| i * 5).sum();
    assert_eq!(m.sreg(1, 5).to_u32(), expect, "worker sees thread 0's stores");
}

#[test]
fn coarse_grain_with_finite_fetch() {
    let src = MT_PROGRAM;
    let (m, stats) = run_source(full().coarse_grain(4).with_fetch_buffers(2), src, MAX).unwrap();
    assert_eq!(m.sreg(0, 2).to_u32(), 7, "still computes correctly");
    assert!(stats.thread_switches > 0);
}

#[test]
fn emulator_error_paths() {
    use crate::emulator::Emulator;
    // illegal instruction
    let mut e = Emulator::new(proto());
    e.machine_mut().load_words(&[0xff00_0000]).unwrap();
    assert!(matches!(e.run(1000), Err(RunError::IllegalInstruction { .. })));
    // pc out of range
    let mut e = Emulator::new(proto());
    e.machine_mut().load_words(&[0x0000_0000]).unwrap(); // single nop
    assert!(matches!(e.run(1000), Err(RunError::PcOutOfRange { .. })));
    // missing units, multiplier and divider
    for (src, unit) in [("mul s1, s2, s3\n", "multiplier"), ("nop\npdiv p1, p2, p3\n", "divider")] {
        let mut e = Emulator::with_program(proto(), &assemble(src).unwrap()).unwrap();
        let pc = src.lines().count() as u32 - 1;
        assert_eq!(e.run(1000), Err(RunError::MissingUnit { thread: 0, pc, unit }));
    }
    // step limit
    let prog = assemble("loop: j loop\n").unwrap();
    let mut e = Emulator::with_program(proto(), &prog).unwrap();
    assert!(matches!(e.run(100), Err(RunError::CycleLimit { .. })));
}

// ------------------------------------------------------------ error paths

#[test]
fn missing_multiplier_is_reported() {
    let err = run_source(proto(), "mul s1, s2, s3\nhalt\n", MAX).unwrap_err();
    assert!(matches!(err, RunError::MissingUnit { unit: "multiplier", .. }));
}

#[test]
fn scalar_memory_fault() {
    let err = run_source(proto(), "li s1, 2000\nlw s2, 0(s1)\nhalt\n", MAX).unwrap_err();
    assert!(matches!(err, RunError::ScalarMemoryFault { .. }));
}

#[test]
fn pe_memory_fault_guaranteed() {
    let err = run_source(
        proto(),
        "pli  p1, 127
         pslli p1, p1, 4     ; 2032 > 511
         plw  p2, 0(p1)
         halt",
        MAX,
    )
    .unwrap_err();
    match err {
        RunError::PeMemoryFault { fault, .. } => {
            assert_eq!(fault.pe, 0);
            assert_eq!(fault.fault.addr, 2032);
        }
        other => panic!("expected PE fault, got {other}"),
    }
}

#[test]
fn illegal_instruction_word() {
    let mut m = Machine::new(proto());
    m.load_words(&[0xff00_0000]).unwrap();
    let err = m.run(MAX).unwrap_err();
    assert!(matches!(err, RunError::IllegalInstruction { pc: 0, .. }));
}

#[test]
fn pc_out_of_range_without_halt() {
    let err = run_source(proto(), "nop\nnop\n", MAX).unwrap_err();
    assert!(matches!(err, RunError::PcOutOfRange { pc: 2, .. }));
}

/// A boot thread that spawns a worker and stalls on reductions while the
/// worker runs `worker_tail` and then whatever `extra` words follow the
/// program. Returns the words and the PC just past the assembled code.
fn worker_fault_program(worker_tail: &str, extra: &[u32]) -> (Vec<u32>, u32) {
    let src = format!(
        "main:   li     s1, worker
        tspawn s2, s1
        pidx   p1
        rsum   s3, p1
        add    s4, s3, s3
        rmax   s5, p1
        add    s4, s4, s5
        tjoin  s2
        halt
worker: paddi  p2, p1, 1
        rmax   s5, p2
        addi   s6, s5, 1
        {worker_tail}
"
    );
    let mut words = assemble(&src).unwrap().words();
    let end = words.len() as u32;
    words.extend_from_slice(extra);
    (words, end)
}

/// Run `words` under fine grain and under coarse grain (penalty 2) to
/// the first error; each result is the error and the cycle it stopped at.
fn faults(cfg: MachineConfig, words: &[u32]) -> [(RunError, u64); 2] {
    [cfg, cfg.coarse_grain(2)].map(|cfg| {
        let mut m = Machine::new(cfg);
        m.load_words(words).unwrap();
        let err = m.run(MAX).unwrap_err();
        (err, m.cycle())
    })
}

/// An undecodable word raises nothing until a thread reaches it; then the
/// error names that thread and PC, at the cycle the thread would have
/// issued it, under either scheduler.
#[test]
fn undecodable_words_fault_only_when_reached() {
    let illegal = 0xff00_0000;
    let cause = asc_isa::decode(illegal).unwrap_err();
    // never reached: the word follows the worker's texit
    let (words, _) = worker_fault_program("texit", &[illegal]);
    for cfg in [proto(), proto().coarse_grain(2)] {
        let mut m = Machine::new(cfg);
        m.load_words(&words).unwrap();
        m.run(MAX).expect("an unreached undecodable word is harmless");
        assert_eq!(m.sreg(0, 3).to_u32(), (0..16).sum::<u32>());
    }
    // reached by the worker
    let (words, end) = worker_fault_program("", &[illegal]);
    let [fine, coarse] = faults(proto(), &words);
    assert_eq!(fine, (RunError::IllegalInstruction { thread: 1, pc: end, cause }, 14));
    assert_eq!(coarse, (RunError::IllegalInstruction { thread: 1, pc: end, cause }, 15));
}

#[test]
fn missing_units_fault_at_their_issue_slot() {
    let (words, end) = worker_fault_program("mul s7, s6, s6", &[]);
    let fault = RunError::MissingUnit { thread: 1, pc: end - 1, unit: "multiplier" };
    assert_eq!(faults(proto(), &words), [(fault.clone(), 14), (fault, 15)]);
    let (words, end) = worker_fault_program("pdiv p3, p2, p1", &[]);
    let fault = RunError::MissingUnit { thread: 1, pc: end - 1, unit: "divider" };
    assert_eq!(faults(proto(), &words), [(fault.clone(), 14), (fault, 15)]);
    // with both units present the same programs only fall off the end
    let mut cfg = proto();
    cfg.multiplier = MultiplierKind::Sequential { cycles: 16 };
    cfg.divider = DividerConfig::Sequential { cycles: 18 };
    let [(fine, _), (coarse, _)] = faults(cfg, &words);
    assert_eq!(fine, RunError::PcOutOfRange { thread: 1, pc: end, len: end });
    assert_eq!(coarse, fine);
}

#[test]
fn pc_out_of_range_names_the_thread_that_ran_off() {
    let (words, end) = worker_fault_program("", &[]);
    let fault = RunError::PcOutOfRange { thread: 1, pc: end, len: end };
    assert_eq!(faults(proto(), &words), [(fault.clone(), 14), (fault, 15)]);
}

#[test]
fn invalid_thread_id() {
    let err = run_source(proto(), "li s1, 200\ntjoin s1\nhalt\n", MAX).unwrap_err();
    assert!(matches!(err, RunError::InvalidThread { tid: 200, .. }));
}

#[test]
fn join_self_is_invalid() {
    let err = run_source(proto(), "tid s1\ntjoin s1\nhalt\n", MAX).unwrap_err();
    assert!(matches!(err, RunError::InvalidThread { .. }));
}

#[test]
fn join_deadlock_detected() {
    let src = "
main:    li   s1, worker
         tspawn s2, s1
         tjoin s2
         halt
worker:  li   s1, 0
         tjoin s1            ; joins main -> mutual wait
         texit
";
    let err = run_source(full(), src, MAX).unwrap_err();
    assert!(matches!(err, RunError::Deadlock { .. }), "{err}");
}

#[test]
fn cycle_limit() {
    let err = run_source(proto(), "loop: j loop\n", 1000).unwrap_err();
    assert!(matches!(err, RunError::CycleLimit { limit: 1000 }));
}

#[test]
fn program_too_large() {
    let mut m = Machine::new(proto());
    let words = vec![0u32; 5000];
    assert!(matches!(m.load_words(&words), Err(RunError::ProgramTooLarge { .. })));
}

// ------------------------------------------------------------ differential

/// Random straight-line programs (memory offsets clamped to safe ranges)
/// must produce identical architectural state on the timing machine and
/// the functional emulator.
#[test]
fn timing_machine_matches_emulator_on_random_programs() {
    use asc_isa::gen::random_straightline_instr;
    use asc_isa::Instr;

    let mut rng = StdRng::seed_from_u64(0xA5C);
    for trial in 0..30 {
        let mut cfg = MachineConfig::new(8).with_width(Width::W8).single_threaded();
        cfg.multiplier = MultiplierKind::Pipelined { latency: 3 };
        cfg.divider = DividerConfig::Sequential { cycles: 10 };
        let len = rng.random_range(5..60);
        let mut instrs: Vec<Instr> = Vec::new();
        for _ in 0..len {
            let mut i = random_straightline_instr(&mut rng);
            // clamp memory offsets so no access can fault (W8 base <= 255)
            match &mut i {
                Instr::Lw { off, .. } | Instr::Sw { off, .. } => *off = off.rem_euclid(128),
                Instr::Plw { off, .. } | Instr::Psw { off, .. } => *off = off.rem_euclid(127),
                _ => {}
            }
            instrs.push(i);
        }
        instrs.push(Instr::Halt);
        let words: Vec<u32> = instrs.iter().map(asc_isa::encode).collect();

        let mut timing = Machine::new(cfg);
        timing.load_words(&words).unwrap();
        timing.run(MAX).unwrap();

        let mut emu = Emulator::new(cfg);
        emu.machine_mut().load_words(&words).unwrap();
        emu.run(MAX).unwrap();

        for r in 0..16 {
            assert_eq!(timing.sreg(0, r), emu.sreg(0, r), "trial {trial}: scalar reg {r}");
        }
        for f in 0..8 {
            assert_eq!(timing.sflag(0, f), emu.machine().sflag(0, f), "trial {trial} flag {f}");
        }
        for pe in 0..8 {
            for r in 0..16 {
                assert_eq!(
                    timing.array().gpr(pe, 0, r),
                    emu.array().gpr(pe, 0, r),
                    "trial {trial}: PE {pe} reg {r}"
                );
            }
            for f in 0..8 {
                assert_eq!(
                    timing.array().flag(pe, 0, f),
                    emu.array().flag(pe, 0, f),
                    "trial {trial}: PE {pe} flag {f}"
                );
            }
        }
        assert_eq!(timing.smem().as_slice(), emu.machine().smem().as_slice(), "trial {trial}");
    }
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let (m, stats) = run_source(full(), MT_PROGRAM, MAX).unwrap();
        (stats.cycles, stats.issued, m.sreg(0, 2))
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------- schedule perturbation

/// Two threads write different constants to the same scalar-memory word
/// with no intervening join: the final value is decided by the
/// interleaving alone. The spawner stores more times than the (later
/// starting) child so the two write windows end neck and neck, and the
/// last writer flips with the rotation phase.
const RACY_PROGRAM: &str = "
main:    li   s1, child
         tspawn s2, s1
         li   s3, 1
         sw   s3, 100(s0)
         sw   s3, 100(s0)
         sw   s3, 100(s0)
         sw   s3, 100(s0)
         sw   s3, 100(s0)
         sw   s3, 100(s0)
         tjoin s2
         halt
child:   li   s3, 2
         sw   s3, 100(s0)
         sw   s3, 100(s0)
         texit
";

#[test]
fn sched_seed_zero_is_the_exact_baseline() {
    let (a, sa) = run_source(full(), MT_PROGRAM, MAX).unwrap();
    let (b, sb) = run_source(full().with_sched_seed(0), MT_PROGRAM, MAX).unwrap();
    assert_eq!(sa.cycles, sb.cycles);
    assert_eq!(sa.issued, sb.issued);
    assert_eq!(a.arch_digest(), b.arch_digest());
}

#[test]
fn perturbed_schedules_are_deterministic_per_seed() {
    let run = |seed| {
        let (m, stats) = run_source(full().with_sched_seed(seed), MT_PROGRAM, MAX).unwrap();
        (stats.cycles, stats.issued, m.arch_digest())
    };
    assert_eq!(run(3), run(3));
    assert_eq!(run(7), run(7));
}

#[test]
fn race_free_program_is_schedule_invariant() {
    let base = run_source(full(), MT_PROGRAM, MAX).unwrap().0.arch_digest();
    for seed in 1..=8u64 {
        let (m, _) = run_source(full().with_sched_seed(seed), MT_PROGRAM, MAX).unwrap();
        assert_eq!(m.arch_digest(), base, "seed {seed}");
    }
    // coarse-grain perturbation is equally invisible to race-free code
    let coarse = full().coarse_grain(4);
    let base = run_source(coarse, MT_PROGRAM, MAX).unwrap().0.arch_digest();
    for seed in 1..=4u64 {
        let (m, _) = run_source(coarse.with_sched_seed(seed), MT_PROGRAM, MAX).unwrap();
        assert_eq!(m.arch_digest(), base, "coarse seed {seed}");
    }
}

#[test]
fn racy_program_diverges_across_perturbed_schedules() {
    let mut values = std::collections::BTreeSet::new();
    let mut digests = std::collections::BTreeSet::new();
    for seed in 0..16u64 {
        let (m, _) = run_source(full().with_sched_seed(seed), RACY_PROGRAM, MAX).unwrap();
        values.insert(m.smem().read(100).unwrap().0);
        digests.insert(m.arch_digest());
    }
    assert!(values.len() >= 2, "the write-write race must be schedule-dependent, got {values:?}");
    assert!(digests.len() >= 2, "divergent values must show up in the digest");
}

#[test]
fn single_threaded_runs_ignore_the_seed_entirely() {
    let cfg = full().single_threaded();
    let base = run_source(cfg, ST_PROGRAM, MAX).unwrap().1;
    for seed in [1, 99u64] {
        let stats = run_source(cfg.with_sched_seed(seed), ST_PROGRAM, MAX).unwrap().1;
        assert_eq!(stats.cycles, base.cycles, "seed {seed}");
        assert_eq!(stats.issued, base.issued, "seed {seed}");
    }
}

// ------------------------------------------------------------ baseline

#[test]
fn nonpipelined_baseline_runs_same_program() {
    let prog = assemble(ST_PROGRAM).unwrap();
    let out = run_nonpipelined(MachineConfig::new(16), &prog, MAX).unwrap();
    // 140 iterations x 5 instructions + 3 setup-ish; rsum costs 16 cycles
    assert!(out.instructions > 700);
    assert!(out.cycles > out.instructions, "bit-serial reductions cost extra");
}

// ------------------------------------------------------------ diagrams

#[test]
fn hazard_diagram_renders_figure_2() {
    let cfg = proto();
    let program = assemble(
        "rmax s1, p2
         sub  s3, s1, s1
         halt",
    )
    .unwrap();
    let mut m = Machine::with_program(cfg, &program).unwrap();
    m.enable_trace();
    m.run(MAX).unwrap();
    let t = m.timing();
    let records: Vec<_> = m.trace().unwrap()[..2].to_vec();
    let diagram = crate::pipeline::hazard_diagram(&records, &t);
    // the stalled SUB must repeat ID at least b+r times
    let sub_line = diagram.lines().find(|l| l.contains("sub")).unwrap();
    let id_count = sub_line.matches(" ID").count();
    assert!(id_count >= (t.b + t.r) as usize, "{diagram}");
    assert!(diagram.contains("R4"));
    assert!(diagram.contains("WB"));
}

// ------------------------------------------------------------ observability

#[test]
fn trace_events_reconcile_with_stats_on_mt_kernel() {
    use crate::obs::{RingBufferSink, SinkHandle, ThreadTransition, TraceEvent};
    use std::cell::RefCell;
    use std::rc::Rc;

    let program = assemble(MT_PROGRAM).unwrap();
    let mut m = Machine::with_program(full(), &program).unwrap();
    let ring = Rc::new(RefCell::new(RingBufferSink::new(1 << 20)));
    m.attach_sink(SinkHandle::shared(ring.clone()));
    let stats = m.run(MAX).unwrap();

    let ring = ring.borrow();
    assert_eq!(ring.dropped(), 0, "ring sized to hold the whole run");
    let mut issues = 0u64;
    let mut issues_reduction = 0u64;
    let mut retires = 0u64;
    let mut last_retire = 0u64;
    let mut stall_cycles = 0u64;
    let mut spawned = 0u64;
    let mut exited = 0u64;
    let mut sum_ops = 0u64;
    let mut bcast_ops = 0u64;
    for ev in ring.events() {
        match *ev {
            TraceEvent::Issue { class, .. } => {
                issues += 1;
                if class == asc_isa::InstrClass::Reduction {
                    issues_reduction += 1;
                }
            }
            TraceEvent::Retire { cycle, .. } => {
                retires += 1;
                last_retire = last_retire.max(cycle);
            }
            TraceEvent::Stall { cycles, .. } => stall_cycles += cycles,
            TraceEvent::Thread { transition, .. } => match transition {
                ThreadTransition::Spawned => spawned += 1,
                ThreadTransition::Exited => exited += 1,
                _ => {}
            },
            TraceEvent::NetOp { unit, .. } => match unit {
                asc_network::NetUnit::Sum => sum_ops += 1,
                asc_network::NetUnit::Broadcast => bcast_ops += 1,
                _ => {}
            },
            TraceEvent::UnitBusy { .. } => {}
        }
    }
    assert_eq!(issues, stats.issued, "one Issue event per issued instruction");
    assert_eq!(retires, stats.issued, "one Retire event per issued instruction");
    assert_eq!(last_retire, stats.last_writeback);
    assert_eq!(stall_cycles, stats.stall_cycles, "stall spans cover every empty slot");
    assert_eq!(spawned, 7, "seven workers spawned");
    assert_eq!(exited, 7, "seven workers exited");
    assert_eq!(sum_ops, issues_reduction, "each rsum uses the sum tree once");
    assert_eq!(
        bcast_ops,
        stats.issued_by_class[1] + stats.issued_by_class[2],
        "every parallel/reduction instruction crosses the broadcast tree"
    );
}

#[test]
fn jsonl_trace_of_real_run_round_trips() {
    use crate::obs::{parse_json_lines, JsonLinesSink, RingBufferSink, SinkHandle, TraceEvent};
    use std::cell::RefCell;
    use std::rc::Rc;

    let program = assemble(MT_PROGRAM).unwrap();

    // run once into a JSON-Lines sink over a byte buffer
    let jsonl = Rc::new(RefCell::new(JsonLinesSink::new(Vec::new())));
    let mut m = Machine::with_program(full(), &program).unwrap();
    m.attach_sink(SinkHandle::shared(jsonl.clone()));
    m.run(MAX).unwrap();
    drop(m);
    let sink = Rc::try_unwrap(jsonl).expect("machine dropped").into_inner();
    assert!(sink.error().is_none());
    let written = sink.written();
    let text = String::from_utf8(sink.into_writer().unwrap()).unwrap();
    let parsed = parse_json_lines(&text).expect("every emitted event parses back");
    assert_eq!(parsed.len() as u64, written);

    // the simulator is deterministic: an identical run into a ring buffer
    // must produce the identical event stream
    let ring = Rc::new(RefCell::new(RingBufferSink::new(1 << 20)));
    let mut m = Machine::with_program(full(), &program).unwrap();
    m.attach_sink(SinkHandle::shared(ring.clone()));
    m.run(MAX).unwrap();
    let expected: Vec<TraceEvent> = ring.borrow().events().copied().collect();
    assert_eq!(parsed, expected);
}

#[test]
fn run_report_totals_match_stats_on_mt_kernel() {
    use crate::obs::RunReport;

    let (m, stats) = run_source(full(), MT_PROGRAM, MAX).unwrap();
    let report = RunReport::from_machine(&m);
    assert_eq!(&report.totals, &stats, "report totals are the legacy Stats verbatim");
    let back = RunReport::parse(&report.to_json().to_pretty()).unwrap();
    assert_eq!(back.totals.issued, stats.issued);
    assert_eq!(back.totals.stall_cycles, stats.stall_cycles);
    assert_eq!(back.totals.issued_by_thread, stats.issued_by_thread);
    assert_eq!(back.metrics.counter("cycles"), stats.cycles);
    for reason in StallReason::ALL {
        assert_eq!(
            back.metrics.counter(&format!("stall.{}", reason.label())),
            stats.stalls_for(reason),
            "{reason}"
        );
    }
}

#[test]
fn unsinked_machine_emits_nothing_and_matches_sinked_run() {
    use crate::obs::{RingBufferSink, SinkHandle};

    // attaching a sink must not perturb timing
    let (_, plain) = run_source(full(), MT_PROGRAM, MAX).unwrap();
    let program = assemble(MT_PROGRAM).unwrap();
    let mut m = Machine::with_program(full(), &program).unwrap();
    m.attach_sink(SinkHandle::new(RingBufferSink::new(64)));
    let sinked = m.run(MAX).unwrap();
    assert_eq!(plain, sinked, "tracing is observation, not intervention");
    assert!(m.sink().is_some());
    assert!(m.detach_sink().is_some());
    assert!(m.sink().is_none());
}

//! Experiment implementations E1–E20. Each returns structured data and a
//! rendered table so `tablegen`, the tests, and `EXPERIMENTS.md` share one
//! source of truth.

use std::cell::RefCell;
use std::rc::Rc;

use asc_asm::assemble;
use asc_core::baseline::run_nonpipelined;
use asc_core::obs::{MemorySink, SinkHandle, TraceEvent};
use asc_core::pipeline::{control_unit_organization, hazard_diagram, pipeline_organization};
use asc_core::{Machine, MachineConfig, StallReason, Stats};
use asc_fpga::{max_pes_on, ClockModel, Device, FpgaConfig, ResourceReport};
use asc_kernels::micro;

const MAX: u64 = 200_000_000;

/// Machine used by the micro-experiments at PE count `p`: tiny local
/// memory (microkernels don't touch it) so multi-thousand-PE arrays stay
/// cheap to allocate.
fn micro_cfg(p: usize) -> MachineConfig {
    let mut cfg = MachineConfig::new(p);
    cfg.lmem_words = 8;
    cfg
}

fn run(cfg: MachineConfig, src: &str) -> Stats {
    let program = assemble(src).unwrap_or_else(|e| panic!("{e:?}"));
    let mut m = Machine::with_program(cfg, &program).unwrap();
    m.run(MAX).unwrap()
}

/// Run `src` with a memory sink attached: the finished machine and every
/// event of the run.
fn traced(cfg: MachineConfig, src: &str) -> (Machine, Vec<TraceEvent>) {
    let program = assemble(src).unwrap_or_else(|e| panic!("{e:?}"));
    let mut m = Machine::with_program(cfg, &program).unwrap();
    let mem = Rc::new(RefCell::new(MemorySink::new()));
    m.attach_sink(SinkHandle::shared(mem.clone()));
    m.run(MAX).unwrap();
    let events = mem.borrow().events().to_vec();
    (m, events)
}

// ===================================================================== E1

/// E1 — Table 1: resource usage of the prototype on the EP2C35, from the
/// calibrated analytical model, plus the clock estimate.
pub fn table1() -> String {
    let cfg = FpgaConfig::prototype();
    let report = ResourceReport::model(&cfg);
    let clock = ClockModel::default().pipelined_mhz(&cfg);
    format!(
        "{}\nEstimated clock: {:.1} MHz (paper: ~75 MHz)\n",
        report.render_table(&Device::ep2c35()),
        clock
    )
}

// ===================================================================== E2

/// E2 — Figure 1: the split pipeline organization of the prototype
/// (two broadcast stages, four reduction stages at p=16, k=4).
pub fn fig1() -> String {
    pipeline_organization(&MachineConfig::prototype().timing())
}

// ===================================================================== E3

/// E3 — Figure 2: the three hazard cases, as stage-by-cycle diagrams of
/// real traces from the timing simulator.
pub fn fig2() -> String {
    let cases = [
        ("broadcast hazard (forwarded, no stall)", "sub s1, s2, s3\npadds p1, p2, s1\nhalt\n"),
        ("reduction hazard (stalls b+r)", "rmax s1, p2\nsub s3, s1, s1\nhalt\n"),
        ("broadcast-reduction hazard (stalls b+r)", "rmax s1, p2\npadds p1, p2, s1\nhalt\n"),
    ];
    let mut out = String::new();
    for (title, src) in cases {
        let (m, events) = traced(MachineConfig::prototype(), src);
        // the hazard's producer and consumer: the first two issues
        let issues = events.into_iter().filter(|e| matches!(e, TraceEvent::Issue { .. }));
        let pair: Vec<TraceEvent> = issues.take(2).collect();
        out.push_str(&format!("--- {title} ---\n"));
        out.push_str(&hazard_diagram(&pair, &m.timing()));
        out.push('\n');
    }
    out
}

// ===================================================================== E4

/// E4 — Figure 3: control unit organization.
pub fn fig3() -> String {
    control_unit_organization(&MachineConfig::prototype())
}

// ===================================================================== E5

/// One row of the stall-scaling experiment.
#[derive(Debug, Clone, Copy)]
pub struct StallRow {
    /// PE count.
    pub p: usize,
    /// Broadcast latency.
    pub b: u64,
    /// Reduction latency.
    pub r: u64,
    /// Measured cycles per dependent reduce/consume iteration,
    /// single-threaded.
    pub cycles_per_iter: f64,
    /// Fraction of cycles lost to reduction-class hazards.
    pub stall_fraction: f64,
}

/// E5 — reduction-hazard stalls grow with the PE count (§4/§5): a single
/// thread running dependent reductions pays ~b+r cycles each.
pub fn stall_scaling() -> Vec<StallRow> {
    [4usize, 16, 64, 256, 1024, 4096, 16384]
        .iter()
        .map(|&p| {
            let cfg = micro_cfg(p).single_threaded();
            let t = cfg.timing();
            let iters = 200;
            let stats = run(cfg, &micro::reduction_chain(iters));
            let red = stats.stalls_for(StallReason::ReductionHazard)
                + stats.stalls_for(StallReason::BroadcastReductionHazard);
            StallRow {
                p,
                b: t.b,
                r: t.r,
                cycles_per_iter: stats.cycles as f64 / iters as f64,
                stall_fraction: red as f64 / stats.cycles as f64,
            }
        })
        .collect()
}

/// Render E5.
pub fn render_stall_scaling(rows: &[StallRow]) -> String {
    let mut s = String::from("  PEs      b    r   cyc/iter   reduction-stall %\n");
    for r in rows {
        s.push_str(&format!(
            "{:>6} {:>4} {:>4} {:>9.1} {:>15.1}%\n",
            r.p,
            r.b,
            r.r,
            r.cycles_per_iter,
            100.0 * r.stall_fraction
        ));
    }
    s
}

// ===================================================================== E6

/// One row of the IPC-vs-threads experiment.
#[derive(Debug, Clone, Copy)]
pub struct IpcRow {
    /// PE count.
    pub p: usize,
    /// Hardware threads doing work.
    pub threads: usize,
    /// Issue-slot utilization (instructions per cycle).
    pub ipc: f64,
    /// Total cycles for the (fixed-total-work) run.
    pub cycles: u64,
}

/// E6 — fine-grain multithreading fills the reduction stalls: IPC rises
/// with thread count toward 1.0. Total work is held constant across
/// rows.
pub fn ipc_vs_threads() -> Vec<IpcRow> {
    let mut rows = Vec::new();
    for &p in &[16usize, 4096] {
        let total_iters = 960;
        for &t in &[1usize, 2, 4, 8, 15] {
            let cfg = micro_cfg(p);
            let stats = run(cfg, &micro::unrolled_fleet(t as u32, (total_iters / t) as u32, 8));
            rows.push(IpcRow { p, threads: t, ipc: stats.ipc(), cycles: stats.cycles });
        }
    }
    rows
}

/// Render E6.
pub fn render_ipc(rows: &[IpcRow]) -> String {
    let mut s = String::from("  PEs   threads      IPC       cycles\n");
    for r in rows {
        s.push_str(&format!("{:>6} {:>8} {:>8.3} {:>12}\n", r.p, r.threads, r.ipc, r.cycles));
    }
    s
}

// ===================================================================== E7

/// One row of the throughput-scaling comparison.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// PE count.
    pub p: usize,
    /// Non-pipelined clock (MHz).
    pub np_mhz: f64,
    /// Pipelined clock (MHz).
    pub pl_mhz: f64,
    /// Non-pipelined, single-stream: million instructions/second.
    pub np_mips: f64,
    /// Pipelined, single thread.
    pub st_mips: f64,
    /// Pipelined, fine-grain multithreaded (15 workers).
    pub mt_mips: f64,
}

/// E7 — the headline claim: pipelining + multithreading "maintain high
/// performance as the number of PEs increases". Instruction throughput =
/// IPC × clock, on the mixed associative workload.
pub fn throughput_scaling() -> Vec<ScalingRow> {
    let model = ClockModel::default();
    [16usize, 64, 256, 1024, 4096]
        .iter()
        .map(|&p| {
            let cfg = micro_cfg(p);
            let fcfg = FpgaConfig { num_pes: p as u64, ..FpgaConfig::prototype() };
            let np_mhz = model.nonpipelined_mhz(&fcfg);
            let pl_mhz = model.pipelined_mhz(&fcfg);

            let program = assemble(&micro::mixed_workload(200)).unwrap();
            let np = run_nonpipelined(cfg, &program, MAX).unwrap();
            let np_mips = np.instructions as f64 / np.cycles as f64 * np_mhz;

            let st = run(cfg.single_threaded(), &micro::mixed_workload(200));
            let st_mips = st.ipc() * pl_mhz;

            let mt = run(cfg, &micro::mixed_fleet(15, 40));
            let mt_mips = mt.ipc() * pl_mhz;

            ScalingRow { p, np_mhz, pl_mhz, np_mips, st_mips, mt_mips }
        })
        .collect()
}

/// Render E7.
pub fn render_scaling(rows: &[ScalingRow]) -> String {
    let mut s = String::from(
        "  PEs   np-clk  pl-clk | non-pipelined  pipelined-ST  pipelined-MT  (M instr/s)\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>6} {:>7.1} {:>7.1} | {:>13.1} {:>13.1} {:>13.1}\n",
            r.p, r.np_mhz, r.pl_mhz, r.np_mips, r.st_mips, r.mt_mips
        ));
    }
    s
}

// ===================================================================== E8

/// One row of the broadcast-arity sweep.
#[derive(Debug, Clone, Copy)]
pub struct ArityRow {
    /// Tree arity k.
    pub k: usize,
    /// Broadcast latency b = ⌈log_k p⌉.
    pub b: u64,
    /// Pipelined clock (MHz) — wide nodes are slower.
    pub mhz: f64,
    /// Multithreaded IPC on the reduction fleet.
    pub ipc: f64,
    /// Effective throughput (M instr/s).
    pub mips: f64,
    /// Network LEs (wider trees need fewer registers).
    pub network_les: u64,
}

/// E8 — "the arity (k) of the tree used in the broadcast network is
/// variable and is chosen so as to maximize system performance": sweep k
/// at p = 1024 and find the sweet spot between hazard length (favours
/// large k) and node fanout delay (favours small k).
pub fn arity_sweep() -> Vec<ArityRow> {
    let model = ClockModel::default();
    let p = 1024usize;
    [2usize, 4, 8, 16, 32]
        .iter()
        .map(|&k| {
            let cfg = micro_cfg(p).with_arity(k);
            let fcfg = FpgaConfig {
                num_pes: p as u64,
                broadcast_arity: k as u64,
                ..FpgaConfig::prototype()
            };
            let mhz = model.pipelined_mhz(&fcfg);
            let stats = run(cfg, &micro::unrolled_fleet(8, 60, 8));
            let les = ResourceReport::model(&fcfg).network.les;
            ArityRow {
                k,
                b: cfg.timing().b,
                mhz,
                ipc: stats.ipc(),
                mips: stats.ipc() * mhz,
                network_les: les,
            }
        })
        .collect()
}

/// Render E8.
pub fn render_arity(rows: &[ArityRow]) -> String {
    let mut s = String::from("   k    b    clock(MHz)    IPC    M instr/s   network LEs\n");
    for r in rows {
        s.push_str(&format!(
            "{:>4} {:>4} {:>11.1} {:>7.3} {:>10.1} {:>12}\n",
            r.k, r.b, r.mhz, r.ipc, r.mips, r.network_les
        ));
    }
    s
}

// ===================================================================== E9

/// E9 — the RAM-block limit (§7/§9): maximum PEs per device as a function
/// of local-memory size and flag-file sharing.
pub fn ram_limit() -> String {
    let mut s = String::from(
        "max PEs fitting each device (16 threads, 16-bit, 3 GPR-file copies)\n\
         device     | lmem=128 lmem=256 lmem=512 | lmem=512+flagshare8\n",
    );
    for d in asc_fpga::CYCLONE_II {
        let base = FpgaConfig::prototype();
        let row: Vec<u64> = [128u64, 256, 512]
            .iter()
            .map(|&l| max_pes_on(&FpgaConfig { lmem_words: l, ..base }, d))
            .collect();
        let shared = max_pes_on(&FpgaConfig { lmem_words: 512, pes_per_flag_block: 8, ..base }, d);
        s.push_str(&format!(
            "{:<10} | {:>8} {:>8} {:>8} | {:>19}\n",
            d.name, row[0], row[1], row[2], shared
        ));
    }
    s.push_str("\nAt 16 PEs on the EP2C35 the design uses 104/105 RAM blocks but only\n9,672/33,216 LEs — RAM blocks are the binding constraint, as §7 states.\n");
    s
}

// ===================================================================== E10

/// One row of the scheduling-policy comparison.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Policy label.
    pub policy: String,
    /// Total cycles on the fixed fleet workload.
    pub cycles: u64,
    /// IPC.
    pub ipc: f64,
    /// Thread switches (coarse-grain only).
    pub switches: u64,
}

/// E10 — §5's argument that coarse-grain multithreading cannot hide
/// frequent short reduction stalls: compare fine-grain against
/// coarse-grain with several switch penalties, at p = 256.
pub fn coarse_vs_fine() -> Vec<PolicyRow> {
    let p = 256;
    let src = micro::unrolled_fleet(8, 60, 8);
    let mut rows = Vec::new();
    let fine = run(micro_cfg(p), &src);
    rows.push(PolicyRow {
        policy: "fine-grain".into(),
        cycles: fine.cycles,
        ipc: fine.ipc(),
        switches: fine.thread_switches,
    });
    for penalty in [2u64, 4, 8] {
        let stats = run(micro_cfg(p).coarse_grain(penalty), &src);
        rows.push(PolicyRow {
            policy: format!("coarse (penalty {penalty})"),
            cycles: stats.cycles,
            ipc: stats.ipc(),
            switches: stats.thread_switches,
        });
    }
    let st = run(micro_cfg(p).single_threaded(), &micro::unrolled_chain(8 * 60, 8));
    rows.push(PolicyRow {
        policy: "single thread".into(),
        cycles: st.cycles,
        ipc: st.ipc(),
        switches: 0,
    });
    rows
}

/// Render E10.
pub fn render_policy(rows: &[PolicyRow]) -> String {
    let mut s = String::from("policy               cycles      IPC   switches\n");
    for r in rows {
        s.push_str(&format!(
            "{:<18} {:>8} {:>8.3} {:>10}\n",
            r.policy, r.cycles, r.ipc, r.switches
        ));
    }
    s
}

// ===================================================================== E11

/// E11 — multiplier/divider organizations (§6.2): pipelined vs sequential
/// multiplier under multithreading, and the claim that an uncommon
/// division does not suffer from the shared sequential divider.
pub fn muldiv() -> String {
    use asc_pe::{DividerConfig, MultiplierKind};
    let p = 64;
    // multiplier-heavy fleet
    let mul_fleet = "
main:   li   s1, worker
        li   s2, 0
        li   s3, 4
spawnl: ceq  f1, s2, s3
        bt   f1, joins
        tspawn s4, s1
        sw   s4, 32(s2)
        addi s2, s2, 1
        j    spawnl
joins:  li   s2, 0
joinl:  ceq  f1, s2, s3
        bt   f1, done
        lw   s4, 32(s2)
        tjoin s4
        addi s2, s2, 1
        j    joinl
done:   halt
worker: li   s6, 60
        pidx p1
wloop:  pmuli p2, p1, 3
        pmuli p3, p2, 5
        addi s6, s6, -1
        ceqi f1, s6, 0
        bf   f1, wloop
        texit
";
    let mut cfg_pipe = micro_cfg(p);
    cfg_pipe.multiplier = MultiplierKind::Pipelined { latency: 3 };
    let pipe = run(cfg_pipe, mul_fleet);
    let mut cfg_seq = micro_cfg(p);
    cfg_seq.multiplier = MultiplierKind::Sequential { cycles: 16 };
    let seq = run(cfg_seq, mul_fleet);

    // division frequency sweep on 4 threads
    let div_prog = |stride: u32| {
        format!(
            "
main:   li   s1, worker
        li   s2, 0
        li   s3, 4
spawnl: ceq  f1, s2, s3
        bt   f1, joins
        tspawn s4, s1
        sw   s4, 32(s2)
        addi s2, s2, 1
        j    spawnl
joins:  li   s2, 0
joinl:  ceq  f1, s2, s3
        bt   f1, done
        lw   s4, 32(s2)
        tjoin s4
        addi s2, s2, 1
        j    joinl
done:   halt
worker: li   s6, 40
        pidx p1
wloop:  pdivi p2, p1, 3
{filler}        addi s6, s6, -1
        ceqi f1, s6, 0
        bf   f1, wloop
        texit
",
            filler = "        paddi p3, p3, 1\n".repeat(stride as usize),
        )
    };
    let mut cfg_div = micro_cfg(p);
    cfg_div.divider = DividerConfig::Sequential { cycles: 18 };
    let rare = run(cfg_div, &div_prog(16));
    let frequent = run(cfg_div, &div_prog(0));

    format!(
        "multiplier (4 threads, mul-heavy): pipelined {} cycles (IPC {:.3}) vs sequential {} cycles (IPC {:.3})\n\
         divider contention (4 threads): rare division {:.1}% structural stalls, back-to-back division {:.1}%\n",
        pipe.cycles,
        pipe.ipc(),
        seq.cycles,
        seq.ipc(),
        100.0 * rare.stalls_for(StallReason::Structural) as f64 / rare.cycles as f64,
        100.0 * frequent.stalls_for(StallReason::Structural) as f64 / frequent.cycles as f64,
    )
}

// ===================================================================== E12

/// One row of the kernel-suite report.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name.
    pub name: &'static str,
    /// Validated against the host reference?
    pub ok: bool,
    /// Cycles.
    pub cycles: u64,
    /// IPC.
    pub ipc: f64,
    /// Fraction of cycles in reduction-class stalls.
    pub reduction_stall_pct: f64,
}

/// E12 — the application kernels (§9 future work): cycles, IPC, stall
/// profile, each validated against a host reference.
pub fn kernel_suite() -> Vec<KernelRow> {
    use asc_kernels::{image, iterate, mst, search, select, string_match};
    let mut rows = Vec::new();
    let pct = |s: &Stats| {
        100.0
            * (s.stalls_for(StallReason::ReductionHazard)
                + s.stalls_for(StallReason::BroadcastReductionHazard)) as f64
            / s.cycles as f64
    };

    let cfg = MachineConfig::new(256);
    let records: Vec<(i64, i64)> = (0..256).map(|i| ((i * 7) % 32, i)).collect();
    let r = search::run(cfg, &records, 3).unwrap();
    let (m, fv, fi) = search::reference(&records, 3);
    rows.push(KernelRow {
        name: "search (256 records)",
        ok: (r.matches, r.first_value, r.first_index) == (m, fv, fi),
        cycles: r.stats.cycles,
        ipc: r.stats.ipc(),
        reduction_stall_pct: pct(&r.stats),
    });

    let values: Vec<i64> = (0..256).map(|i| ((i * 37) % 199) - 99).collect();
    let r = select::run(cfg, &values).unwrap();
    let (mx, am, mn, an) = select::reference(&values);
    rows.push(KernelRow {
        name: "max/min select (256)",
        ok: (r.max, r.argmax, r.min, r.argmin) == (mx, am, mn, an),
        cycles: r.stats.cycles,
        ipc: r.stats.ipc(),
        reduction_stall_pct: pct(&r.stats),
    });

    let recs: Vec<(i64, i64)> = (0..64).map(|i| (i % 2, i)).collect();
    let r = iterate::run(MachineConfig::new(64), &recs, 1).unwrap();
    let (cnt, fold) = iterate::reference(&recs, 1, MachineConfig::new(64).width);
    rows.push(KernelRow {
        name: "responder iteration (32)",
        ok: (r.processed, r.fold) == (cnt, fold),
        cycles: r.stats.cycles,
        ipc: r.stats.ipc(),
        reduction_stall_pct: pct(&r.stats),
    });

    let g = mst::random_graph(48, 100, 7);
    let r = mst::run(MachineConfig::new(64), &g).unwrap();
    rows.push(KernelRow {
        name: "MST (48 vertices)",
        ok: r.total_weight == mst::reference(&g),
        cycles: r.stats.cycles,
        ipc: r.stats.ipc(),
        reduction_stall_pct: pct(&r.stats),
    });

    let text: Vec<u8> = (0..256).map(|i| b"abcab"[i % 5]).collect();
    let r = string_match::run(cfg, &text, b"abc").unwrap();
    let (c, f) = string_match::reference(&text, b"abc");
    rows.push(KernelRow {
        name: "string match (n=256,m=3)",
        ok: (r.count, r.first) == (c, f),
        cycles: r.stats.cycles,
        ipc: r.stats.ipc(),
        reduction_stall_pct: pct(&r.stats),
    });

    // pixel values kept small enough that the saturating sum stays exact
    let pixels: Vec<i64> = (0..1024).map(|i| (i * 13) % 31).collect();
    let r = image::run(cfg, &pixels, 15).unwrap();
    let (s, mn, mx, ab) = image::reference(&pixels, 15, 256);
    rows.push(KernelRow {
        name: "image stats (1024 px)",
        ok: (r.sum, r.min, r.max, r.above_threshold) == (s, mn, mx, ab),
        cycles: r.stats.cycles,
        ipc: r.stats.ipc(),
        reduction_stall_pct: pct(&r.stats),
    });

    let vals: Vec<i64> = (0..256).map(|i| (i * 31) % 64).collect();
    let (hist, stats) = image::histogram::run(cfg, &vals, 8, 64).unwrap();
    rows.push(KernelRow {
        name: "histogram (256, 8 bins)",
        ok: hist == image::histogram::reference(&vals, 8, 64),
        cycles: stats.cycles,
        ipc: stats.ipc(),
        reduction_stall_pct: pct(&stats),
    });

    use asc_kernels::{hull, sort, tracker};
    let sv: Vec<i64> = (0..128).map(|i| ((i * 73) % 251) - 125).collect();
    let r = sort::run(cfg, &sv).unwrap();
    rows.push(KernelRow {
        name: "associative sort (128)",
        ok: r.sorted == sort::reference(&sv),
        cycles: r.stats.cycles,
        ipc: r.stats.ipc(),
        reduction_stall_pct: pct(&r.stats),
    });

    let pts: Vec<(i64, i64)> =
        (0..48).map(|i| (((i * 17) % 91) as i64 - 45, ((i * 29) % 83) as i64 - 41)).collect();
    let r = hull::run(MachineConfig::new(64), &pts).unwrap();
    rows.push(KernelRow {
        name: "convex hull (48 points)",
        ok: r.on_hull == hull::reference(&pts),
        cycles: r.stats.cycles,
        ipc: r.stats.ipc(),
        reduction_stall_pct: pct(&r.stats),
    });

    let reports: Vec<(i64, i64)> =
        (0..40).map(|i| ((i * 13) % 101 - 50, (i * 7) % 99 - 49)).collect();
    let r = tracker::run(MachineConfig::new(64), &reports).unwrap();
    let (tref, dref) = tracker::reference(&reports, 64);
    rows.push(KernelRow {
        name: "ATC tracker (40 reports)",
        ok: r.tracks == tref && r.dropped == dref,
        cycles: r.stats.cycles,
        ipc: r.stats.ipc(),
        reduction_stall_pct: pct(&r.stats),
    });

    rows
}

/// Render E12.
pub fn render_kernels(rows: &[KernelRow]) -> String {
    let mut s =
        String::from("kernel                      ok     cycles      IPC   reduction-stall %\n");
    for r in rows {
        s.push_str(&format!(
            "{:<26} {:>3} {:>9} {:>8.3} {:>14.1}%\n",
            r.name,
            if r.ok { "yes" } else { "NO" },
            r.cycles,
            r.ipc,
            r.reduction_stall_pct
        ));
    }
    s
}

// ===================================================================== E13

/// E13 — forwarding ablation: how much the EX→B1 / EX→EX forwarding paths
/// buy (§4.2 presents forwarding as the fix for broadcast hazards; here
/// we quantify it by removing it).
pub fn forwarding_ablation() -> String {
    let p = 256;
    let src = micro::mixed_workload(150);
    let with_fwd = run(micro_cfg(p).single_threaded(), &src);
    let without = run(micro_cfg(p).single_threaded().without_forwarding(), &src);
    let mt_with = run(micro_cfg(p), &micro::mixed_fleet(15, 30));
    let mt_without = run(micro_cfg(p).without_forwarding(), &micro::mixed_fleet(15, 30));
    // the paper's Figure-2 (top) pair as a direct probe
    let probe = "sub s1, s2, s3\npadds p1, p2, s1\nhalt\n";
    let probe_with = run(micro_cfg(p).single_threaded(), probe);
    let probe_without = run(micro_cfg(p).single_threaded().without_forwarding(), probe);
    format!(
        "single thread: forwarding {} cycles (IPC {:.3})  |  no forwarding {} cycles (IPC {:.3})  → {:.2}x slower\n\
         16 threads:    forwarding {} cycles (IPC {:.3})  |  no forwarding {} cycles (IPC {:.3})  → {:.2}x slower\n\
         Figure-2 broadcast-hazard pair (sub; padds): {} stall cycles with forwarding, {} without\n",
        with_fwd.cycles,
        with_fwd.ipc(),
        without.cycles,
        without.ipc(),
        without.cycles as f64 / with_fwd.cycles as f64,
        mt_with.cycles,
        mt_with.ipc(),
        mt_without.cycles,
        mt_without.ipc(),
        mt_without.cycles as f64 / mt_with.cycles as f64,
        probe_with.stalls_for(StallReason::BroadcastHazard),
        probe_without.stalls_for(StallReason::BroadcastHazard),
    )
}

// ===================================================================== E14

/// E14 — the PE interconnection network extension (\[7\] in the paper's
/// lineage): kernels impossible (or memory-hungry) on the base machine.
pub fn interconnect() -> String {
    use asc_kernels::{prefix, stencil, string_match};
    let cfg = MachineConfig::new(256);

    let values: Vec<i64> = (0..256).map(|i| (i % 13) - 6).collect();
    let scan = prefix::run(cfg, &values).unwrap();
    let scan_ok = scan.sums == prefix::reference(&values);

    let samples: Vec<i64> = (0..256).map(|i| (i % 17) - 8).collect();
    let st = stencil::run(cfg, &samples, 2).unwrap();
    let st_ok = st.output == stencil::reference(&samples, 2);

    let text: Vec<u8> = (0..256).map(|i| b"abcab"[i % 5]).collect();
    let windowed = string_match::run(cfg, &text, b"abcab").unwrap();
    let shifted = string_match::run_shift(cfg, &text, b"abcab").unwrap();
    let sm_ok = (windowed.count, windowed.first) == (shifted.count, shifted.first);

    format!(
        "prefix sum (n=256):      {} in {} cycles ({} instructions — log-step scan)\n\
         3-pt stencil (n=256,x2): {} in {} cycles\n\
         string match n=256 m=5:  windowed {} cycles / {} lmem words per PE vs shifted {} cycles / 1 word per PE ({})\n",
        if scan_ok { "ok" } else { "MISMATCH" },
        scan.stats.cycles,
        scan.stats.issued,
        if st_ok { "ok" } else { "MISMATCH" },
        st.stats.cycles,
        windowed.stats.cycles,
        5,
        shifted.stats.cycles,
        if sm_ok { "agree" } else { "DISAGREE" },
    )
}

// ===================================================================== E15

/// E15 — multithreaded batch queries: end-to-end speedup on a real kernel
/// (not a microbenchmark), across worker counts.
pub fn batch_speedup() -> String {
    use asc_kernels::batch;
    let cfg = MachineConfig::new(256);
    let keys: Vec<i64> = (0..256).map(|i| (i * 13) % 32).collect();
    let queries: Vec<i64> = (0..240).map(|i| i % 32).collect();
    let base = batch::run(cfg, &keys, &queries, 0).unwrap();
    let mut s = format!(
        "240 queries over 256 records (p = 256, b+r = {}):\n  workers  cycles   speedup   IPC\n        0 {:>7}      1.00  {:.3}\n",
        cfg.timing().b + cfg.timing().r,
        base.stats.cycles,
        base.stats.ipc()
    );
    for workers in [2usize, 4, 8, 12, 15] {
        let r = batch::run(cfg, &keys, &queries, workers).unwrap();
        assert_eq!(r.counts, base.counts, "results must not depend on threading");
        s.push_str(&format!(
            "{:>9} {:>7} {:>9.2}  {:.3}\n",
            workers,
            r.stats.cycles,
            base.stats.cycles as f64 / r.stats.cycles as f64,
            r.stats.ipc()
        ));
    }
    s
}

// ===================================================================== E16

/// E16 — fetch-unit sensitivity: the explicit fetch model (Figure 3's
/// per-thread instruction buffers, one fetch per cycle) versus the ideal
/// front end, across buffer depths. Single-issue machines are fetch-issue
/// balanced, so the paper's simple fetch unit suffices — shown here.
pub fn fetch_model() -> String {
    let p = 256;
    let src = micro::unrolled_fleet(8, 40, 8);
    let ideal = run(micro_cfg(p), &src);
    let mut s = format!(
        "8-worker reduction fleet at p = 256\n  front end        cycles      IPC   fetch-empty stalls\n  ideal          {:>8} {:>8.3} {:>12}\n",
        ideal.cycles,
        ideal.ipc(),
        0
    );
    for depth in [1usize, 2, 4] {
        let st = run(micro_cfg(p).with_fetch_buffers(depth), &src);
        s.push_str(&format!(
            "  buffers({depth})     {:>8} {:>8.3} {:>12}\n",
            st.cycles,
            st.ipc(),
            st.stalls_for(StallReason::FetchEmpty)
        ));
    }
    s.push_str("\nOne fetch per cycle matches one issue per cycle, so even depth-1\nbuffers track the ideal front end closely — the architectural reason\nthe paper's fetch unit can stay simple.\n");
    s
}

// ===================================================================== E17

/// E17 — datapath width sweep: the prototype's width is ambiguous in the
/// OCR'd text (we argue 16-bit in DESIGN.md); model all three widths.
pub fn width_sweep() -> String {
    use asc_isa::Width;
    let model = ClockModel::default();
    let mut s = String::from(
        "width | LEs/PE  RAM/PE  max PEs on EP2C35 | clock (MHz) | rmax cyc (falkoff np)\n",
    );
    for width in Width::ALL {
        let fc = FpgaConfig { width, ..FpgaConfig::prototype() };
        let report = ResourceReport::model(&fc);
        let per_pe_les = report.pe_array.les / fc.num_pes;
        let per_pe_rams = (report.pe_array.rams as f64) / fc.num_pes as f64;
        let maxp = max_pes_on(&fc, &Device::ep2c35());
        let mhz = model.pipelined_mhz(&fc);
        s.push_str(&format!(
            "{:>5} | {:>6} {:>7.1} {:>18} | {:>11.1} | {:>10}\n",
            width.bits(),
            per_pe_les,
            per_pe_rams,
            maxp,
            mhz,
            width.bits(),
        ));
    }
    s.push_str("\n16-bit PEs fit Table 1's 374 LEs/PE and 6 RAM blocks/PE exactly;\n8-bit PEs could not address the 1 KB local memory (see DESIGN.md §1.8).\n");
    s
}

// ===================================================================== E18

/// E18 — ASCL compiler overhead: the same associative computation written
/// by hand in assembly vs compiled from the ASCL language (§9's
/// "implementing software for the architecture").
pub fn lang_overhead() -> String {
    let cfg = MachineConfig::new(64);

    // hand-written: max + holder + responder count
    let hand = "
        pidx   p1
        pmuli  p2, p1, 3
        premi  p2, p2, 7
        rmax   s1, p2
        pfclr  pf1
        pceqs  pf1, p2, s1
        pfirst pf2, pf1
        rget   s2, p1, pf2
        rcount s3, pf1
        halt
    ";
    let hand_stats = run(cfg, hand);

    let ascl = "
        par v;
        v = index() * 3 % 7;
        sca m = max(v);
        out(m);
        where (v == m) {
            out(first(index()));
            out(count(v == m));
        }
    ";
    let program = asc_lang::compile_program(ascl).expect("ascl compiles");
    let mut m = Machine::with_program(cfg, &program).unwrap();
    let lang_stats = m.run(MAX).unwrap();

    format!(
        "max+holder+count kernel (p = 64):\n  hand-written assembly: {:>3} instructions, {:>3} cycles\n  compiled from ASCL:    {:>3} instructions, {:>3} cycles ({:.2}x)\n\nThe compiler spends extra instructions on out() bookkeeping and\nregister moves; the associative operations themselves lower 1:1.\n",
        hand_stats.issued,
        hand_stats.cycles,
        lang_stats.issued,
        lang_stats.cycles,
        lang_stats.cycles as f64 / hand_stats.cycles as f64,
    )
}

// ===================================================================== E19

/// E19 — §6.2's configuration tradeoff: "a larger memory will reduce
/// off-chip memory traffic, but reduce the number of PEs that can fit on
/// a single FPGA." Tiled 8-pass workload over 64K words on the EP2C70.
pub fn offchip() -> String {
    use asc_fpga::{offchip_sweep, Workload};
    let base = FpgaConfig::prototype();
    let dev = asc_fpga::Device::by_name("EP2C70").unwrap();
    let w = Workload { data_words: 16_384, passes: 8, bus_words_per_cycle: 1 };
    let sizes = [64u64, 128, 256, 512, 1024, 2048, 4096];
    let costs = offchip_sweep(&base, &dev, &w, &sizes);
    let best = costs.iter().map(|c| c.total_cycles).min().unwrap();
    let mut s = String::from(
        "16K words, 8 passes, 1 word/cycle off-chip bus, EP2C70:\n lmem   PEs  resident  compute   transfer(words)   total cycles\n",
    );
    for c in &costs {
        s.push_str(&format!(
            "{:>5} {:>5} {:>9} {:>8} {:>17} {:>14}{}\n",
            c.lmem_words,
            c.pes,
            if c.resident { "yes" } else { "no" },
            c.compute_cycles,
            c.transfer_words,
            c.total_cycles,
            if c.total_cycles == best { "  <- best" } else { "" },
        ));
    }
    s.push_str("\nSmaller memories buy PEs (compute shrinks) until the working set\nspills and traffic multiplies by the pass count — §6.2's tradeoff.\n");
    s
}

// ===================================================================== E20

/// E20 — reduction-network occupancy: §6.4 pipelines every unit so
/// "threads never contend for its use". Measure how many reduction
/// operations are simultaneously in flight in the tree, single-threaded
/// vs multithreaded — the pipelining is *useless* without MT and *full*
/// with it.
pub fn occupancy() -> String {
    let mut s = String::from(
        "reduction operations in flight in the pipelined tree (p = 1024, r = 10):\n  config            avg occupancy   peak   cycles\n",
    );
    for (name, cfg, src) in [
        ("1 thread", micro_cfg(1024).single_threaded(), micro::unrolled_chain(15 * 60, 8)),
        ("15 threads", micro_cfg(1024), micro::unrolled_fleet(15, 60, 8)),
    ] {
        let (m, events) = traced(cfg, &src);
        let t = m.timing();
        // a reduction occupies the tree during its R stages:
        // cycles [issue+b+2, issue+b+r+1]
        let mut deltas: Vec<(u64, i64)> = Vec::new();
        for ev in events {
            if let TraceEvent::Issue { cycle, class: asc_isa::InstrClass::Reduction, .. } = ev {
                deltas.push((cycle + t.b + 2, 1));
                deltas.push((cycle + t.b + t.r + 2, -1));
            }
        }
        deltas.sort_unstable();
        let mut inflight = 0i64;
        let mut peak = 0i64;
        let mut area = 0i64;
        let mut last = 0u64;
        for (c, d) in deltas {
            area += inflight * (c - last) as i64;
            last = c;
            inflight += d;
            peak = peak.max(inflight);
        }
        let cycles = m.stats().cycles;
        s.push_str(&format!(
            "  {:<16} {:>13.2} {:>6} {:>8}\n",
            name,
            area as f64 / cycles as f64,
            peak,
            cycles
        ));
    }
    s.push_str("\nOne thread keeps well under one operation in the 10-stage tree; the\nfleet fills it — the structural payoff of combining pipelining with\nfine-grain multithreading.\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_paper_numbers() {
        let t = table1();
        for n in ["1897", "5984", "1791", "9672", "104", "33216", "105", "75.0 MHz"] {
            assert!(t.contains(n), "missing {n}:\n{t}");
        }
    }

    #[test]
    fn stall_scaling_monotone() {
        let rows = stall_scaling();
        for w in rows.windows(2) {
            assert!(w[1].cycles_per_iter > w[0].cycles_per_iter);
        }
        // at large p the machine is mostly stalled
        assert!(rows.last().unwrap().stall_fraction > 0.5);
    }

    #[test]
    fn ipc_rises_with_threads() {
        let rows = ipc_vs_threads();
        for chunk in rows.chunks(5) {
            assert!(chunk[4].ipc > 2.0 * chunk[0].ipc, "{chunk:?}");
            for w in chunk.windows(2) {
                assert!(w[1].ipc > w[0].ipc * 0.95, "{w:?}");
            }
        }
    }

    #[test]
    fn multithreaded_pipelined_wins_at_scale() {
        let rows = throughput_scaling();
        let last = rows.last().unwrap();
        assert!(last.mt_mips > last.st_mips);
        assert!(last.mt_mips > 3.0 * last.np_mips, "{last:?}");
        // crossover structure: the non-pipelined clock degrades with p
        assert!(rows[0].np_mhz > last.np_mhz * 1.5);
        // pipelined MT throughput holds up (within 40%) across a 256x scale-up
        assert!(last.mt_mips > 0.6 * rows[0].mt_mips);
    }

    #[test]
    fn arity_sweep_has_interior_optimum() {
        let rows = arity_sweep();
        let best = rows.iter().max_by(|a, b| a.mips.partial_cmp(&b.mips).unwrap()).unwrap();
        assert!(best.k > 2 && best.k < 32, "optimum should be interior, got k={}", best.k);
    }

    #[test]
    fn kernels_all_validate() {
        for row in kernel_suite() {
            assert!(row.ok, "{} failed validation", row.name);
        }
    }

    #[test]
    fn forwarding_matters() {
        let out = forwarding_ablation();
        assert!(out.contains("x slower"));
    }

    #[test]
    fn interconnect_kernels_validate() {
        let out = interconnect();
        assert!(out.contains("ok"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
        assert!(out.contains("agree"), "{out}");
    }

    #[test]
    fn batch_scales_with_workers() {
        let out = batch_speedup();
        assert!(out.contains("12"));
    }

    #[test]
    fn fetch_model_close_to_ideal() {
        let out = fetch_model();
        assert!(out.contains("buffers(2)"));
    }

    #[test]
    fn width_sweep_renders() {
        let out = width_sweep();
        assert!(out.contains("374"));
    }

    #[test]
    fn lang_overhead_is_bounded() {
        let out = lang_overhead();
        assert!(out.contains("compiled from ASCL"));
    }

    #[test]
    fn offchip_tradeoff_renders() {
        let out = offchip();
        assert!(out.contains("<- best"));
    }

    #[test]
    fn occupancy_rises_with_threads() {
        let out = occupancy();
        assert!(out.contains("15 threads"));
    }

    #[test]
    fn coarse_is_slower_than_fine() {
        let rows = coarse_vs_fine();
        let fine = rows[0].cycles;
        for r in &rows[1..4] {
            assert!(r.cycles > fine, "{}: {} <= {fine}", r.policy, r.cycles);
        }
        // and every MT policy beats single-thread
        let st = rows.last().unwrap().cycles;
        for r in &rows[..4] {
            assert!(r.cycles < st);
        }
    }
}

//! Cross-crate integration: assembler → machine → kernels → figures →
//! resource model, through the umbrella crate's public API only.

use asc::core::{Machine, MachineConfig};
use asc::fpga::{ClockModel, Device, FpgaConfig, ResourceReport};
use asc::isa::{Width, Word};

#[test]
fn prototype_geometry_is_consistent_across_crates() {
    // MachineConfig, NetworkConfig, Timing and FpgaConfig must agree on
    // the prototype: 16 PEs, k=4 ⇒ b=2, r=4.
    let mc = MachineConfig::prototype();
    let t = mc.timing();
    assert_eq!((t.b, t.r), (2, 4));
    let nc = mc.network();
    assert_eq!(nc.broadcast_latency(), 2);
    assert_eq!(nc.reduction_latency(), 4);
    let fc = FpgaConfig::from_machine(&mc);
    assert_eq!(fc.num_pes, 16);
    assert_eq!(fc.threads, 16);
    assert_eq!(fc.width, Width::W16);
}

#[test]
fn assembled_program_runs_and_disassembles() {
    let src = "
start:  li    s1, 5
        pmovs p2, s1
        rsum  s3, p2
        halt
";
    let program = asc::asm::assemble(src).unwrap();
    // disassemble and re-assemble every instruction
    for i in &program.instrs {
        let text = asc::asm::disassemble(i);
        let again = asc::asm::assemble(&text).unwrap();
        assert_eq!(&again.instrs[0], i);
        // and the binary round trip
        assert_eq!(asc::isa::decode(asc::isa::encode(i)), Ok(*i));
    }
    let mut m = Machine::with_program(MachineConfig::prototype(), &program).unwrap();
    m.run(10_000).unwrap();
    assert_eq!(m.sreg(0, 3).to_u32(), 5 * 16);
}

#[test]
fn network_units_agree_with_machine_reductions() {
    // the machine's reduction result equals a direct network call
    use asc::isa::ReduceOp;
    use asc::network::{Network, NetworkConfig};

    let cfg = MachineConfig::new(32);
    let program = asc::asm::assemble("plw p1, 0(p0)\nrsum s1, p1\nrmaxu s2, p1\nhalt\n").unwrap();
    let mut m = Machine::with_program(cfg, &program).unwrap();
    let data: Vec<Word> = (0..32).map(|i| Word::new(i * 3 % 40, Width::W16)).collect();
    m.array_mut().scatter_column(0, &data).unwrap();
    m.run(10_000).unwrap();

    let net = Network::new(NetworkConfig::new(32, 4));
    let active = asc::pe::ActiveMask::all(32);
    assert_eq!(m.sreg(0, 1), net.reduce(ReduceOp::Sum, &data, &active, Width::W16));
    assert_eq!(m.sreg(0, 2), net.reduce(ReduceOp::MaxU, &data, &active, Width::W16));
}

#[test]
fn figures_render_from_any_configuration() {
    for p in [4usize, 16, 100, 1024] {
        let cfg = MachineConfig::new(p);
        let f1 = asc::core::pipeline::pipeline_organization(&cfg.timing());
        assert!(f1.contains(&format!("B{}", cfg.timing().b)));
        assert!(f1.contains(&format!("R{}", cfg.timing().r)));
        let f3 = asc::core::pipeline::control_unit_organization(&cfg);
        assert!(f3.contains("scheduler (rotating priority)"));
    }
}

#[test]
fn resource_model_and_machine_share_the_prototype() {
    let report = ResourceReport::model(&FpgaConfig::prototype());
    assert_eq!(report.total().les, 9_672);
    assert_eq!(report.total().rams, 104);
    assert!(report.fits(&Device::ep2c35()));
    let clock = ClockModel::default().pipelined_mhz(&FpgaConfig::prototype());
    assert!((clock - 75.0).abs() < 1.0);
}

#[test]
fn wide_machine_runs_across_segments() {
    // 8192 PEs span two auto-sized segments (and occupancy groups)
    let mut cfg = MachineConfig::new(8192);
    cfg.lmem_words = 4;
    let program = asc::asm::assemble(
        "pidx p1
         rmaxu s1, p1
         rcount s2, pf0
         halt",
    )
    .unwrap();
    let mut m = Machine::with_program(cfg, &program).unwrap();
    m.run(100_000).unwrap();
    assert_eq!(m.sreg(0, 1).to_u32(), 8191);
}

#[test]
fn all_widths_work_end_to_end() {
    for w in Width::ALL {
        let cfg = MachineConfig::new(8).with_width(w);
        let program = asc::asm::assemble(
            "li s1, 100
             pmovs p1, s1
             paddi p1, p1, 27
             rmax s2, p1
             halt",
        )
        .unwrap();
        let mut m = Machine::with_program(cfg, &program).unwrap();
        m.run(10_000).unwrap();
        assert_eq!(m.sreg(0, 2).to_i64(w), 127, "{w}");
    }
}

#[test]
fn single_pe_machine_works() {
    // degenerate geometry: p = 1 means b = r = 0 (no tree at all)
    let cfg = MachineConfig::new(1);
    assert_eq!(cfg.timing().b, 0);
    assert_eq!(cfg.timing().r, 0);
    let program = asc::asm::assemble(
        "pidx p1
         paddi p2, p1, 5
         rsum s1, p2
         rmax s2, p2
         rcount s3, pf0
         halt",
    )
    .unwrap();
    let mut m = Machine::with_program(cfg, &program).unwrap();
    m.run(10_000).unwrap();
    assert_eq!(m.sreg(0, 1).to_u32(), 5);
    assert_eq!(m.sreg(0, 2).to_u32(), 5);
}

#[test]
fn version_constant_exists() {
    assert!(!asc::VERSION.is_empty());
}

//! The pipeline timing model (Section 4 of the paper), as pure functions.
//!
//! Stage schedule for an instruction issued at cycle `i`, with broadcast
//! latency `b` = ⌈log_k p⌉ and reduction latency `r` = ⌈log₂ p⌉:
//!
//! ```text
//! scalar:    SR@i  EX@i+1  MA@i+2  WB@i+3
//! parallel:  SR@i  B1..B_b@i+1..i+b  PR@i+b+1  EX@i+b+2  MA@i+b+3  WB@i+b+4
//! reduction: SR@i  B1..B_b@i+1..i+b  PR@i+b+1  R1..R_r@i+b+2..i+b+r+1  WB@i+b+r+2
//! ```
//!
//! Forwarding rule: a value produced at the end of cycle `t` can be
//! consumed by any stage executing at cycle `t+1` or later. The paper's
//! three hazards fall out:
//!
//! * **broadcast hazard** — parallel consumes a scalar result at B1
//!   (`i+1`); a scalar ALU result is ready at the end of EX (`i+1`), so a
//!   back-to-back pair never stalls (EX→B1 forwarding);
//! * **reduction hazard** — a scalar consumer needs the reduction result
//!   (ready end of R_r = `i+b+r+1`, forwarded from the last reduction
//!   stage) in its EX; the dependent instruction stalls **b+r** cycles;
//! * **broadcast-reduction hazard** — a parallel consumer needs it at B1;
//!   also **b+r** stall cycles.
//!
//! The scheduler does not evaluate these per cycle. Loading a program
//! fills one issue-table entry per instruction word from them
//! (`crate::issue`); the `*_of` forms take the class and unit latency the
//! fill has already derived, and the public forms derive them from the
//! instruction, so each rule is written once.

use asc_isa::{Instr, InstrClass, RegClass};
use asc_pe::{DividerConfig, MultiplierKind};

/// Broadcast/reduction latencies of the configured machine, plus
/// multiplier/divider latencies — everything the hazard model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Broadcast tree latency `b` in cycles.
    pub b: u64,
    /// Reduction tree latency `r` in cycles.
    pub r: u64,
    /// Multiplier implementation.
    pub multiplier: MultiplierKind,
    /// Divider implementation.
    pub divider: DividerConfig,
    /// EX→B1 / EX→EX forwarding paths present (the paper's design). With
    /// forwarding disabled (ablation), results are only visible through
    /// the register file after WB, and operands are consumed at the
    /// register-read stages (SR / PR).
    pub forwarding: bool,
}

impl Timing {
    /// Execution latency of the instruction's functional unit (1 for the
    /// ALU, more for multiplier/divider).
    pub fn unit_latency(&self, i: &Instr) -> u64 {
        self.unit_latency_of(i.uses_multiplier(), i.uses_divider())
    }

    /// [`Timing::unit_latency`] of an instruction that uses the multiplier
    /// (`mul`) or the divider (`div`).
    pub(crate) fn unit_latency_of(&self, mul: bool, div: bool) -> u64 {
        if mul {
            match self.multiplier {
                MultiplierKind::None => 1, // rejected earlier as illegal
                MultiplierKind::Pipelined { latency } => latency.max(1),
                MultiplierKind::Sequential { cycles } => cycles.max(1),
            }
        } else if div {
            match self.divider {
                DividerConfig::None => 1,
                DividerConfig::Sequential { cycles } => cycles.max(1),
            }
        } else {
            1
        }
    }

    /// Cycle offset (from issue) at which the instruction's EX stage
    /// starts.
    pub fn ex_start(&self, class: InstrClass) -> u64 {
        match class {
            InstrClass::Scalar => 1,
            InstrClass::Parallel => self.b + 2,
            // reductions have no EX; R1 plays that role for operand entry
            InstrClass::Reduction => self.b + 2,
        }
    }

    /// Cycle offset (from issue) at the end of which the instruction's
    /// result is available through forwarding.
    pub fn produce_offset(&self, i: &Instr) -> u64 {
        self.produce_offset_of(i, i.class(), self.unit_latency(i))
    }

    /// [`Timing::produce_offset`] of `i`, given its class and
    /// [`Timing::unit_latency`] (the issue table derives those once per
    /// instruction).
    pub(crate) fn produce_offset_of(&self, i: &Instr, class: InstrClass, lat: u64) -> u64 {
        if !self.forwarding {
            // ablation: the value only becomes visible via the register
            // file, at the end of WB
            return self.retire_offset_of(class, lat);
        }
        match class {
            InstrClass::Scalar => {
                if matches!(i, Instr::Lw { .. }) {
                    2 // end of MA
                } else {
                    lat // end of EX (1 for the ALU, more for mul/div)
                }
            }
            InstrClass::Parallel => {
                if matches!(i, Instr::Plw { .. }) {
                    self.b + 3 // end of MA
                } else {
                    self.b + 1 + lat // end of EX
                }
            }
            // forwarded out of the last reduction stage R_r
            InstrClass::Reduction => self.b + self.r + 1,
        }
    }

    /// Cycle offset (from issue) at the start of which a source operand in
    /// register file `side` is consumed by an instruction of class
    /// `class`.
    ///
    /// Scalar-side operands: scalar instructions read them in EX (`i+1`,
    /// forwarded); parallel/reduction instructions need them when entering
    /// the broadcast network at B1 (`i+1`) — the same offset, which is why
    /// EX→B1 forwarding kills broadcast hazards. Parallel-side operands:
    /// read at PR and forwarded into EX / R1 (`i+b+2`).
    pub fn consume_offset(&self, class: InstrClass, side: RegClass) -> u64 {
        if !self.forwarding {
            // ablation: operands come from the register files at the read
            // stages — SR (issue cycle) for scalar, PR for parallel
            return match side {
                RegClass::SGpr | RegClass::SFlag => 0,
                RegClass::PGpr | RegClass::PFlag => self.b + 1,
            };
        }
        match (class, side) {
            (_, RegClass::SGpr | RegClass::SFlag) => 1,
            (InstrClass::Scalar, _) => 1, // scalar instrs have no parallel reads
            (_, RegClass::PGpr | RegClass::PFlag) => self.b + 2,
        }
    }

    /// Cycle offset (from issue) at the end of which the instruction
    /// leaves the pipeline (its WB stage) — used for the final drain.
    pub fn retire_offset(&self, i: &Instr) -> u64 {
        self.retire_offset_of(i.class(), self.unit_latency(i))
    }

    /// [`Timing::retire_offset`] of an instruction of `class` whose unit
    /// latency is `lat`.
    pub(crate) fn retire_offset_of(&self, class: InstrClass, lat: u64) -> u64 {
        let extra = lat.saturating_sub(1);
        match class {
            InstrClass::Scalar => 3 + extra,
            InstrClass::Parallel => self.b + 4 + extra,
            InstrClass::Reduction => self.b + self.r + 2,
        }
    }

    /// Names of the pipeline stages an instruction of `class` traverses
    /// (after IF/ID), for the diagram renderers.
    pub fn stage_names(&self, class: InstrClass) -> Vec<String> {
        let mut v = vec!["SR".to_string()];
        match class {
            InstrClass::Scalar => v.extend(["EX".into(), "MA".into(), "WB".into()]),
            InstrClass::Parallel => {
                for k in 1..=self.b {
                    v.push(format!("B{k}"));
                }
                v.extend(["PR".into(), "EX".into(), "MA".into(), "WB".into()]);
            }
            InstrClass::Reduction => {
                for k in 1..=self.b {
                    v.push(format!("B{k}"));
                }
                v.push("PR".into());
                for k in 1..=self.r {
                    v.push(format!("R{k}"));
                }
                v.push("WB".into());
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_isa::{AluOp, Mask, PReg, ReduceOp, SReg};

    fn t() -> Timing {
        // the paper's running example: b = 2, r = 4 (p = 16, k = 4)
        Timing {
            b: 2,
            r: 4,
            multiplier: MultiplierKind::None,
            divider: DividerConfig::None,
            forwarding: true,
        }
    }

    fn sub() -> Instr {
        Instr::SAlu {
            op: AluOp::Sub,
            rd: SReg::from_index(1),
            ra: SReg::from_index(2),
            rb: SReg::from_index(3),
        }
    }

    fn padd_s() -> Instr {
        Instr::PAluS {
            op: AluOp::Add,
            pd: PReg::from_index(1),
            pa: PReg::from_index(2),
            sb: SReg::from_index(1),
            mask: Mask::All,
        }
    }

    fn rmax() -> Instr {
        Instr::Reduce {
            op: ReduceOp::Max,
            sd: SReg::from_index(1),
            pa: PReg::from_index(2),
            mask: Mask::All,
        }
    }

    /// Figure 2, top: broadcast hazard — PADD issued one cycle after the
    /// SUB that produces its scalar operand does not stall.
    #[test]
    fn broadcast_hazard_forwarded() {
        let t = t();
        let produce = t.produce_offset(&sub()); // SUB issued at 0
                                                // earliest issue of the dependent PADD: consume at j+1 must be
                                                // after produce → j >= produce
        let earliest = produce; // j + consume_offset - 1 >= produce ⇒ j >= produce - c + 1
        let c = t.consume_offset(InstrClass::Parallel, RegClass::SGpr);
        let j_min = produce.saturating_sub(c - 1);
        assert_eq!(produce, 1);
        assert_eq!(j_min, 1, "back-to-back issue, no stall");
        let _ = earliest;
    }

    /// Figure 2, middle: reduction hazard — dependent scalar stalls b+r.
    #[test]
    fn reduction_hazard_stalls_b_plus_r() {
        let t = t();
        let produce = t.produce_offset(&rmax()); // issued at 0
        assert_eq!(produce, t.b + t.r + 1);
        let c = t.consume_offset(InstrClass::Scalar, RegClass::SGpr);
        let j_min = produce - (c - 1); // = produce since c == 1
        let unconstrained = 1u64;
        assert_eq!(j_min - unconstrained, t.b + t.r, "stall is exactly b+r");
    }

    /// Figure 2, bottom: broadcast-reduction hazard — dependent parallel
    /// stalls b+r.
    #[test]
    fn broadcast_reduction_hazard_stalls_b_plus_r() {
        let t = t();
        let produce = t.produce_offset(&rmax());
        let c = t.consume_offset(InstrClass::Parallel, RegClass::SGpr);
        let j_min = produce - (c - 1);
        assert_eq!(j_min - 1, t.b + t.r);
    }

    #[test]
    fn load_use_is_one_bubble() {
        let t = t();
        let lw = Instr::Lw { rd: SReg::from_index(1), base: SReg::from_index(2), off: 0 };
        assert_eq!(t.produce_offset(&lw), 2);
        // dependent scalar: j >= 2 → one bubble after back-to-back
        let plw = Instr::Plw {
            pd: PReg::from_index(1),
            base: PReg::from_index(2),
            off: 0,
            mask: Mask::All,
        };
        assert_eq!(t.produce_offset(&plw), t.b + 3);
    }

    #[test]
    fn parallel_back_to_back_forwarded() {
        let t = t();
        let produce = t.produce_offset(&padd_s()); // b + 2
        let c = t.consume_offset(InstrClass::Parallel, RegClass::PGpr); // b + 2
        let j_min = produce - (c - 1);
        assert_eq!(j_min, 1, "PE-local EX→EX forwarding");
        // and a reduction consuming it back-to-back likewise
        let c = t.consume_offset(InstrClass::Reduction, RegClass::PGpr);
        assert_eq!(produce - (c - 1), 1);
    }

    #[test]
    fn multiplier_latencies() {
        let mut tm = t();
        tm.multiplier = MultiplierKind::Pipelined { latency: 3 };
        let mul = Instr::SAlu {
            op: AluOp::Mul,
            rd: SReg::from_index(1),
            ra: SReg::from_index(2),
            rb: SReg::from_index(3),
        };
        assert_eq!(tm.produce_offset(&mul), 3);
        tm.multiplier = MultiplierKind::Sequential { cycles: 16 };
        assert_eq!(tm.produce_offset(&mul), 16);
        tm.divider = DividerConfig::Sequential { cycles: 18 };
        let div = Instr::PAlu {
            op: AluOp::Div,
            pd: PReg::from_index(1),
            pa: PReg::from_index(2),
            pb: PReg::from_index(3),
            mask: Mask::All,
        };
        assert_eq!(tm.produce_offset(&div), tm.b + 1 + 18);
    }

    #[test]
    fn stage_names_match_figure_1() {
        let t = t();
        assert_eq!(t.stage_names(InstrClass::Scalar), ["SR", "EX", "MA", "WB"]);
        assert_eq!(t.stage_names(InstrClass::Parallel), ["SR", "B1", "B2", "PR", "EX", "MA", "WB"]);
        assert_eq!(
            t.stage_names(InstrClass::Reduction),
            ["SR", "B1", "B2", "PR", "R1", "R2", "R3", "R4", "WB"]
        );
    }

    #[test]
    fn retire_offsets() {
        let t = t();
        assert_eq!(t.retire_offset(&sub()), 3);
        assert_eq!(t.retire_offset(&padd_s()), t.b + 4);
        assert_eq!(t.retire_offset(&rmax()), t.b + t.r + 2);
    }

    /// Ablation: with forwarding off, even the broadcast hazard stalls
    /// (§4.2's motivation for the EX→B1 forwarding path).
    #[test]
    fn no_forwarding_reintroduces_broadcast_stalls() {
        let mut tm = t();
        tm.forwarding = false;
        // scalar producer visible at WB (offset 3); parallel consumer
        // reads at SR (offset 0) → three bubbles
        assert_eq!(tm.produce_offset(&sub()), 3);
        assert_eq!(tm.consume_offset(InstrClass::Parallel, RegClass::SGpr), 0);
        // reduction producer seen at WB only
        assert_eq!(tm.produce_offset(&rmax()), tm.b + tm.r + 2);
    }
}

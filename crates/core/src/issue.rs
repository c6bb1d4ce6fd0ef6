//! The issue table: the loaded program decoded once, at load, into one
//! entry per PC holding everything the scheduler asks of an instruction
//! while it decides whether the instruction can issue.
//!
//! The scheduler scans every live thread's next instruction each cycle,
//! and most scans end in a stall, so the same instruction is examined
//! many times before it issues. Each entry caches pure functions of the
//! instruction word and the machine's [`Timing`] (itself fixed at
//! `Machine::new`): the pipeline class, the source operands in
//! [`Instr::reads`] order with their consume offsets, the destinations
//! ([`Instr::writes`]), the produce and retire offsets, and the multiplier
//! or divider the instruction needs. [`IssueEntry::new`] fills them from
//! those single definitions, and nothing writes an entry during a run.

use asc_isa::{decode, DecodeError, Instr, InstrClass, OperandList};
use asc_pe::{DividerConfig, MultiplierKind};

use crate::obs::SeqUnit;
use crate::timing::Timing;

/// Most source operands an instruction reads (two registers plus a mask
/// flag, with room to spare): the capacity of an [`OperandList`].
const MAX_READS: usize = 4;

/// What an instruction asks of the multiplier or divider on this machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitUse {
    /// Nothing to claim: the ALU, or a pipelined multiplier.
    Free,
    /// The machine lacks the unit (`"multiplier"` or `"divider"`): issuing
    /// raises [`crate::RunError::MissingUnit`].
    Missing(&'static str),
    /// A sequential unit, busy for the given cycles from the
    /// instruction's EX stage (a structural hazard for the next user).
    Sequential(SeqUnit, u64),
}

/// One decodable instruction and its issue-time facts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IssueEntry {
    /// The instruction.
    pub(crate) instr: Instr,
    /// [`Instr::class`].
    pub(crate) class: InstrClass,
    /// [`Instr::reads`], in order: the order decides which operand a
    /// stall is charged to.
    pub(crate) reads: OperandList,
    /// `consume[k]`: [`Timing::consume_offset`] of `reads[k]` (at most
    /// b + 2, so it fits).
    pub(crate) consume: [u32; MAX_READS],
    /// [`Instr::writes`].
    pub(crate) writes: OperandList,
    /// Offset from issue of the first cycle the result may be consumed:
    /// [`Timing::produce_offset`] + 1, what the scoreboard records.
    pub(crate) avail: u64,
    /// [`Timing::retire_offset`].
    pub(crate) retire: u64,
    /// The multiplier or divider it uses ([`Instr::uses_multiplier`],
    /// [`Instr::uses_divider`]), as this machine provides it.
    pub(crate) unit: UnitUse,
}

impl IssueEntry {
    /// Derive the entry of `instr` on a machine with timing `t`. Inlined
    /// into the load loop: it runs once per word at every program load.
    #[inline]
    pub(crate) fn new(instr: Instr, t: &Timing) -> IssueEntry {
        let class = instr.class();
        let reads = instr.reads();
        let mut consume = [0; MAX_READS];
        for (c, op) in consume.iter_mut().zip(reads) {
            *c = u32::try_from(t.consume_offset(class, op.class))
                .expect("offsets are at most b + 2");
        }
        let (mul, div) = (instr.uses_multiplier(), instr.uses_divider());
        let lat = t.unit_latency_of(mul, div);
        let scalar = class == InstrClass::Scalar;
        // no operation uses both units
        let unit = if mul {
            match t.multiplier {
                MultiplierKind::None => UnitUse::Missing("multiplier"),
                MultiplierKind::Pipelined { .. } => UnitUse::Free,
                MultiplierKind::Sequential { cycles } => UnitUse::Sequential(
                    if scalar { SeqUnit::ScalarMul } else { SeqUnit::ParallelMul },
                    cycles,
                ),
            }
        } else if div {
            match t.divider {
                DividerConfig::None => UnitUse::Missing("divider"),
                DividerConfig::Sequential { cycles } => UnitUse::Sequential(
                    if scalar { SeqUnit::ScalarDiv } else { SeqUnit::ParallelDiv },
                    cycles,
                ),
            }
        } else {
            UnitUse::Free
        };
        IssueEntry {
            instr,
            class,
            reads,
            consume,
            writes: instr.writes(),
            avail: t.produce_offset_of(&instr, class, lat) + 1,
            retire: t.retire_offset_of(class, lat),
            unit,
        }
    }
}

/// The loaded program, one slot per PC: the entry, or why the word does
/// not decode (raised only if a thread reaches it).
#[derive(Debug, Clone, Default)]
pub(crate) struct IssueTable {
    slots: Vec<Result<IssueEntry, DecodeError>>,
}

impl IssueTable {
    /// Decode `words` and fill their entries, in one pass. The table's
    /// storage is reused across loads.
    pub(crate) fn load(&mut self, words: &[u32], t: &Timing) {
        self.slots.clear();
        self.slots.extend(words.iter().map(|&w| decode(w).map(|i| IssueEntry::new(i, t))));
    }

    /// Number of instruction words loaded.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The slot at `pc` (`None` past the end of the program).
    pub(crate) fn get(&self, pc: u32) -> Option<&Result<IssueEntry, DecodeError>> {
        self.slots.get(pc as usize)
    }

    /// The decoded instruction at `pc`, if the word there decodes.
    pub(crate) fn instr(&self, pc: usize) -> Option<&Instr> {
        self.slots[pc].as_ref().ok().map(|e| &e.instr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use asc_isa::gen::random_instr;
    use asc_isa::{encode, Mask, PFlag, SReg};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every timing variant the table caches: forwarding on and off, each
    /// multiplier and divider organization, and two machine sizes whose
    /// broadcast and reduction latencies differ.
    fn timing_variants() -> Vec<Timing> {
        let mut out = Vec::new();
        for pes in [16, 4096] {
            for forwarding in [true, false] {
                for multiplier in [
                    MultiplierKind::None,
                    MultiplierKind::Pipelined { latency: 3 },
                    MultiplierKind::Sequential { cycles: 16 },
                ] {
                    for divider in [DividerConfig::None, DividerConfig::Sequential { cycles: 18 }] {
                        let mut cfg = MachineConfig::new(pes);
                        cfg.forwarding = forwarding;
                        cfg.multiplier = multiplier;
                        cfg.divider = divider;
                        out.push(cfg.timing());
                    }
                }
            }
        }
        assert_ne!(out[0].b, out[out.len() - 1].b);
        assert_ne!(out[0].r, out[out.len() - 1].r);
        out
    }

    /// Random instructions of every form, plus the control-flow and
    /// thread forms and the mul/div operations spelled out.
    fn instrs() -> Vec<Instr> {
        let s = SReg::from_index;
        let mut v = vec![
            Instr::J { target: 3 },
            Instr::Jal { rd: s(15), target: 9 },
            Instr::Jr { ra: s(15) },
            Instr::Bt { fa: asc_isa::SFlag::from_index(1), off: -2 },
            Instr::Bf { fa: asc_isa::SFlag::from_index(2), off: 5 },
            Instr::TSpawn { rd: s(4), ra: s(1) },
            Instr::TJoin { ra: s(4) },
            Instr::TExit,
            Instr::TId { rd: s(3) },
            Instr::TGet { rd: s(2), ta: s(4), src: s(5) },
            Instr::TPut { ta: s(4), dst: s(6), rb: s(7) },
            Instr::Halt,
            Instr::Nop,
        ];
        for &op in asc_isa::AluOp::ALL.iter() {
            v.push(Instr::SAlu { op, rd: s(1), ra: s(2), rb: s(3) });
            v.push(Instr::PAlu {
                op,
                pd: asc_isa::PReg::from_index(1),
                pa: asc_isa::PReg::from_index(2),
                pb: asc_isa::PReg::from_index(3),
                mask: Mask::Flag(PFlag::from_index(4)),
            });
        }
        let mut rng = StdRng::seed_from_u64(0x155E);
        v.extend((0..4000).map(|_| random_instr(&mut rng)));
        v
    }

    #[test]
    fn entries_match_the_single_definitions() {
        for t in timing_variants() {
            for i in instrs() {
                let e = IssueEntry::new(i, &t);
                assert_eq!(e.instr, i);
                assert_eq!(e.class, i.class(), "{i:?}");
                assert_eq!(e.reads, i.reads(), "{i:?}");
                for (k, op) in i.reads().iter().enumerate() {
                    let want = t.consume_offset(i.class(), op.class);
                    assert_eq!(u64::from(e.consume[k]), want, "{i:?} {k}");
                }
                assert_eq!(e.writes, i.writes(), "{i:?}");
                assert_eq!(e.avail, t.produce_offset(&i) + 1, "{i:?} {t:?}");
                assert_eq!(e.retire, t.retire_offset(&i), "{i:?} {t:?}");
                let scalar = i.class() == InstrClass::Scalar;
                let want = match (i.uses_multiplier(), i.uses_divider()) {
                    (true, _) => match t.multiplier {
                        MultiplierKind::None => UnitUse::Missing("multiplier"),
                        MultiplierKind::Pipelined { .. } => UnitUse::Free,
                        MultiplierKind::Sequential { cycles } => {
                            let u = if scalar { SeqUnit::ScalarMul } else { SeqUnit::ParallelMul };
                            UnitUse::Sequential(u, cycles)
                        }
                    },
                    (false, true) => match t.divider {
                        DividerConfig::None => UnitUse::Missing("divider"),
                        DividerConfig::Sequential { cycles } => {
                            let u = if scalar { SeqUnit::ScalarDiv } else { SeqUnit::ParallelDiv };
                            UnitUse::Sequential(u, cycles)
                        }
                    },
                    (false, false) => UnitUse::Free,
                };
                assert_eq!(e.unit, want, "{i:?} {t:?}");
            }
        }
    }

    #[test]
    fn table_keeps_decode_errors_in_place() {
        let t = MachineConfig::prototype().timing();
        let nop = encode(&Instr::Nop);
        let mut table = IssueTable::default();
        table.load(&[nop, 0xff00_0000, encode(&Instr::Halt)], &t);
        assert_eq!(table.len(), 3);
        assert_eq!(table.instr(0), Some(&Instr::Nop));
        assert_eq!(table.get(1).unwrap().as_ref().err(), decode(0xff00_0000).err().as_ref());
        assert_eq!(table.instr(1), None);
        assert_eq!(table.instr(2), Some(&Instr::Halt));
        assert!(table.get(3).is_none());
        // a second load replaces the program
        table.load(&[nop], &t);
        assert_eq!(table.len(), 1);
    }
}

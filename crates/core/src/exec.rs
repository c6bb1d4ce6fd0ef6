//! Functional execution of one instruction. The timing core calls
//! [`Machine::execute_instr`] at issue time; because per-thread issue is in
//! program order and the scoreboard delays dependent issues until their
//! producers' results are (logically) available, executing architectural
//! effects at issue preserves exact register/memory semantics while timing
//! is accounted separately.
//!
//! This file holds the instruction-major executor (one full-array sweep
//! per instruction). Fusible basic blocks bypass it entirely: the block
//! compiler (`crate::compile`) lowers them to specialized per-tile
//! kernel chains at program load, and the fusion engine
//! (`crate::fusion`) runs those chains tile-by-tile.

use asc_isa::{Instr, Word};
use asc_pe::Src;

use crate::error::RunError;
use crate::machine::Machine;
use crate::threads::ThreadState;

/// Control effect of an executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Fall through to the next instruction.
    Next,
    /// Jump/branch to an absolute instruction address.
    Branch(u32),
    /// Stop the whole machine.
    Halt,
    /// Release this thread's context.
    Exit,
    /// Block until the given thread's context is released.
    JoinWait(usize),
}

impl Machine {
    /// Execute `i` for `thread` (whose PC is `pc`), updating architectural
    /// state, and return the control effect.
    pub(crate) fn execute_instr(
        &mut self,
        thread: usize,
        pc: u32,
        i: &Instr,
    ) -> Result<Effect, RunError> {
        let w = self.cfg.width;
        use Instr::*;
        match *i {
            Nop => Ok(Effect::Next),
            Halt => Ok(Effect::Halt),

            // ------------------------------------------------- scalar ALU
            SAlu { op, rd, ra, rb } => {
                let a = self.sregs.read(thread, ra.index());
                let b = self.sregs.read(thread, rb.index());
                self.sregs.write(thread, rd.index(), op.apply(a, b, w));
                Ok(Effect::Next)
            }
            SAluImm { op, rd, ra, imm } => {
                let a = self.sregs.read(thread, ra.index());
                let b = Word::from_i64(imm as i64, w);
                self.sregs.write(thread, rd.index(), op.apply(a, b, w));
                Ok(Effect::Next)
            }
            SCmp { op, fd, ra, rb } => {
                let a = self.sregs.read(thread, ra.index());
                let b = self.sregs.read(thread, rb.index());
                self.sflags.write(thread, fd.index(), op.apply(a, b, w));
                Ok(Effect::Next)
            }
            SCmpImm { op, fd, ra, imm } => {
                let a = self.sregs.read(thread, ra.index());
                let b = Word::from_i64(imm as i64, w);
                self.sflags.write(thread, fd.index(), op.apply(a, b, w));
                Ok(Effect::Next)
            }
            SFlagOp { op, fd, fa, fb } => {
                let a = self.sflags.read(thread, fa.index());
                let b = self.sflags.read(thread, fb.index());
                self.sflags.write(thread, fd.index(), op.apply(a, b));
                Ok(Effect::Next)
            }
            Li { rd, imm } => {
                self.sregs.write(thread, rd.index(), Word::from_i64(imm as i64, w));
                Ok(Effect::Next)
            }
            Lui { rd, imm } => {
                // load the upper half-word: imm shifted by width/2
                let sh = w.bits() / 2;
                self.sregs.write(thread, rd.index(), Word::new((imm as u32) << sh, w));
                Ok(Effect::Next)
            }

            // ------------------------------------------------- scalar memory
            Lw { rd, base, off } => {
                let addr = self.scalar_addr(thread, pc, base, off)?;
                let v = self.smem.read(addr).map_err(|_| RunError::ScalarMemoryFault {
                    thread,
                    pc,
                    addr: addr as i64,
                })?;
                self.sregs.write(thread, rd.index(), v);
                Ok(Effect::Next)
            }
            Sw { rs, base, off } => {
                let addr = self.scalar_addr(thread, pc, base, off)?;
                let v = self.sregs.read(thread, rs.index());
                self.smem.write(addr, v).map_err(|_| RunError::ScalarMemoryFault {
                    thread,
                    pc,
                    addr: addr as i64,
                })?;
                Ok(Effect::Next)
            }

            // ------------------------------------------------- control flow
            Bt { fa, off } => {
                if self.sflags.read(thread, fa.index()) {
                    Ok(Effect::Branch(rel_target(pc, off)))
                } else {
                    Ok(Effect::Next)
                }
            }
            Bf { fa, off } => {
                if !self.sflags.read(thread, fa.index()) {
                    Ok(Effect::Branch(rel_target(pc, off)))
                } else {
                    Ok(Effect::Next)
                }
            }
            J { target } => Ok(Effect::Branch(target)),
            Jal { rd, target } => {
                self.sregs.write(thread, rd.index(), Word::new(pc.wrapping_add(1), w));
                Ok(Effect::Branch(target))
            }
            Jr { ra } => {
                let t = self.sregs.read(thread, ra.index()).to_u32();
                Ok(Effect::Branch(t))
            }

            // ------------------------------------------------- threads
            TSpawn { rd, ra } => {
                let target = self.sregs.read(thread, ra.index()).to_u32();
                match self.spawn_thread(target) {
                    Some(tid) => self.sregs.write(thread, rd.index(), Word::new(tid as u32, w)),
                    None => self.sregs.write(thread, rd.index(), Word(w.mask())),
                }
                Ok(Effect::Next)
            }
            TExit => Ok(Effect::Exit),
            TJoin { ra } => {
                let tid = self.sregs.read(thread, ra.index()).to_u32();
                let tid_us = self.check_tid(thread, pc, tid)?;
                if tid_us == thread {
                    return Err(RunError::InvalidThread { thread, pc, tid });
                }
                if self.threads.get(tid_us).state == ThreadState::Free {
                    Ok(Effect::Next)
                } else {
                    Ok(Effect::JoinWait(tid_us))
                }
            }
            TGet { rd, ta, src } => {
                let tid = self.sregs.read(thread, ta.index()).to_u32();
                let tid_us = self.check_tid(thread, pc, tid)?;
                let v = self.sregs.read(tid_us, src.index());
                self.sregs.write(thread, rd.index(), v);
                Ok(Effect::Next)
            }
            TPut { ta, dst, rb } => {
                let tid = self.sregs.read(thread, ta.index()).to_u32();
                let tid_us = self.check_tid(thread, pc, tid)?;
                let v = self.sregs.read(thread, rb.index());
                self.sregs.write(tid_us, dst.index(), v);
                Ok(Effect::Next)
            }
            TId { rd } => {
                self.sregs.write(thread, rd.index(), Word::new(thread as u32, w));
                Ok(Effect::Next)
            }

            // ------------------------------------------------- parallel
            PAlu { op, pd, pa, pb, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                self.array.alu(thread, op, pd, pa, Src::Reg(pb), active);
                Ok(Effect::Next)
            }
            PAluS { op, pd, pa, sb, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                let v = self.sregs.read(thread, sb.index());
                self.array.alu(thread, op, pd, pa, Src::Scalar(v), active);
                Ok(Effect::Next)
            }
            PAluImm { op, pd, pa, imm, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                let v = Word::from_i64(imm as i64, w);
                self.array.alu(thread, op, pd, pa, Src::Imm(v), active);
                Ok(Effect::Next)
            }
            PCmp { op, fd, pa, pb, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                self.array.cmp(thread, op, fd, pa, Src::Reg(pb), active);
                Ok(Effect::Next)
            }
            PCmpS { op, fd, pa, sb, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                let v = self.sregs.read(thread, sb.index());
                self.array.cmp(thread, op, fd, pa, Src::Scalar(v), active);
                Ok(Effect::Next)
            }
            PCmpImm { op, fd, pa, imm, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                let v = Word::from_i64(imm as i64, w);
                self.array.cmp(thread, op, fd, pa, Src::Imm(v), active);
                Ok(Effect::Next)
            }
            PFlagOp { op, fd, fa, fb, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                self.array.flag_op(thread, op, fd, fa, fb, active);
                Ok(Effect::Next)
            }
            Plw { pd, base, off, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                self.array
                    .load(thread, pd, base, off as i32, active)
                    .map_err(|fault| RunError::PeMemoryFault { thread, pc, fault })?;
                Ok(Effect::Next)
            }
            Psw { ps, base, off, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                self.array
                    .store(thread, ps, base, off as i32, active)
                    .map_err(|fault| RunError::PeMemoryFault { thread, pc, fault })?;
                Ok(Effect::Next)
            }
            Pidx { pd, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                self.array.pidx(thread, pd, active);
                Ok(Effect::Next)
            }
            PMovS { pd, sa, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                let v = self.sregs.read(thread, sa.index());
                self.array.movs(thread, pd, v, active);
                Ok(Effect::Next)
            }
            PShift { pd, pa, dist, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                self.array.shift(thread, pd, pa, dist as i32, active);
                Ok(Effect::Next)
            }

            // ------------------------------------------------- reductions
            // All reduction arms read the register/flag planes in place —
            // no column snapshots, no allocation.
            Reduce { op, sd, pa, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                let values = self.array.gpr_plane(thread, pa.index());
                let v = self.net.reduce(op, values, active, w);
                self.sregs.write(thread, sd.index(), v);
                self.emit_net_reduce(thread, pc, asc_network::NetUnit::for_reduce(op));
                Ok(Effect::Next)
            }
            RCount { sd, fa, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                let flags = self.array.flag_plane(thread, fa.index());
                let v = self.net.count_responders(flags, active, w);
                self.sregs.write(thread, sd.index(), v);
                self.emit_net_reduce(thread, pc, asc_network::NetUnit::Counter);
                Ok(Effect::Next)
            }
            RFlag { op, fd, fa, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                let flags = self.array.flag_plane(thread, fa.index());
                let v = self.net.reduce_flags(op, flags, active);
                self.sflags.write(thread, fd.index(), v);
                self.emit_net_reduce(thread, pc, asc_network::NetUnit::Logic);
                Ok(Effect::Next)
            }
            PFirst { fd, fa, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                let hit =
                    self.net.first_responder(self.array.flag_plane(thread, fa.index()), active);
                self.array.write_first_responder(thread, fd, hit, active);
                self.emit_net_reduce(thread, pc, asc_network::NetUnit::Resolver);
                Ok(Effect::Next)
            }
            RGet { sd, pa, fa, mask } => {
                let active = self.array.active(thread, mask, &self.all, &mut self.amask);
                let hit =
                    self.net.first_responder(self.array.flag_plane(thread, fa.index()), active);
                let v =
                    hit.map(|i| self.array.gpr_plane(thread, pa.index())[i]).unwrap_or(Word::ZERO);
                self.sregs.write(thread, sd.index(), v);
                self.emit_net_reduce(thread, pc, asc_network::NetUnit::Resolver);
                Ok(Effect::Next)
            }
        }
    }

    fn scalar_addr(
        &self,
        thread: usize,
        pc: u32,
        base: asc_isa::SReg,
        off: i16,
    ) -> Result<u32, RunError> {
        let b = self.sregs.read(thread, base.index()).to_u32() as i64;
        let addr = b + off as i64;
        if addr < 0 || addr >= self.smem.capacity() as i64 {
            Err(RunError::ScalarMemoryFault { thread, pc, addr })
        } else {
            Ok(addr as u32)
        }
    }

    fn check_tid(&self, thread: usize, pc: u32, tid: u32) -> Result<usize, RunError> {
        if (tid as usize) < self.threads.len() {
            Ok(tid as usize)
        } else {
            Err(RunError::InvalidThread { thread, pc, tid })
        }
    }
}

/// Branch target: relative to the instruction after the branch.
fn rel_target(pc: u32, off: i16) -> u32 {
    (pc as i64 + 1 + off as i64) as u32
}

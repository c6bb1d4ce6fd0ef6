//! Fast functional emulator: executes the same architectural semantics as
//! the timing machine, one instruction per "step", round-robin over
//! runnable threads, with no hazard or pipeline modelling.
//!
//! Used for kernel development and as the reference in differential tests:
//! for programs without inter-thread communication the final architectural
//! state must match the timing machine exactly (timing only *delays*
//! instructions; it never changes what they compute).

use asc_asm::Program;
use asc_isa::{Instr, Word};
use asc_pe::PeArray;

use crate::config::MachineConfig;
use crate::error::RunError;
use crate::exec::Effect;
use crate::issue::UnitUse;
use crate::machine::Machine;
use crate::threads::ThreadState;

/// The functional emulator. Wraps the same architectural state as
/// [`Machine`]; only the stepping discipline differs.
#[derive(Debug, Clone)]
pub struct Emulator {
    m: Machine,
    rr: usize,
    executed: u64,
}

impl Emulator {
    /// Build an emulator for a configuration.
    pub fn new(cfg: MachineConfig) -> Emulator {
        Emulator { m: Machine::new(cfg), rr: 0, executed: 0 }
    }

    /// Build and load a program.
    pub fn with_program(cfg: MachineConfig, program: &Program) -> Result<Emulator, RunError> {
        let mut e = Emulator::new(cfg);
        e.m.load_program(program)?;
        Ok(e)
    }

    /// Load an assembled program.
    pub fn load_program(&mut self, program: &Program) -> Result<(), RunError> {
        self.m.load_program(program)
    }

    /// Instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// True once halted or all threads exited.
    pub fn finished(&self) -> bool {
        self.m.finished()
    }

    /// Borrow the underlying architectural state.
    pub fn machine(&self) -> &Machine {
        &self.m
    }

    /// Mutably borrow the underlying architectural state (host data
    /// distribution).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.m
    }

    /// Host read of a scalar register.
    pub fn sreg(&self, thread: usize, reg: usize) -> Word {
        self.m.sreg(thread, reg)
    }

    /// Host access to the PE array.
    pub fn array(&self) -> &PeArray {
        self.m.array()
    }

    /// Host mutable access to the PE array.
    pub fn array_mut(&mut self) -> &mut PeArray {
        self.m.array_mut()
    }

    /// Execute one instruction from the next runnable thread (round-robin).
    /// Returns `false` when the machine has finished.
    pub fn step(&mut self) -> Result<bool, RunError> {
        if self.m.finished() {
            return Ok(false);
        }
        let n = self.m.threads.len();
        let Some(tid) = self
            .m
            .threads
            .rotation(self.rr)
            .find(|&t| self.m.threads.get(t).state == ThreadState::Runnable)
        else {
            // live but nothing runnable: join deadlock
            return Err(RunError::Deadlock { cycle: self.executed });
        };
        self.rr = (tid + 1) % n;

        let pc = self.m.threads.get(tid).pc;
        let e = self.m.fetch(tid, pc)?;
        if let UnitUse::Missing(unit) = e.unit {
            return Err(RunError::MissingUnit { thread: tid, pc, unit });
        }
        let instr = e.instr;
        let effect = self.m.execute_instr(tid, pc, &instr)?;
        self.executed += 1;
        match effect {
            Effect::Next => self.m.threads.get_mut(tid).pc = pc + 1,
            Effect::Branch(t) => self.m.threads.get_mut(tid).pc = t,
            Effect::Halt => {
                self.m.threads.get_mut(tid).pc = pc + 1;
                self.m.force_halt();
            }
            Effect::Exit => self.m.threads.release(tid, |_| {}),
            Effect::JoinWait(target) => {
                let row = self.m.threads.get_mut(tid);
                row.pc = pc + 1;
                row.state = ThreadState::WaitingJoin(target);
            }
        }
        Ok(true)
    }

    /// Run to completion or `max_steps`. Returns instructions executed.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, RunError> {
        while self.step()? {
            if self.executed >= max_steps {
                return Err(RunError::CycleLimit { limit: max_steps });
            }
        }
        Ok(self.executed)
    }

    /// Run, calling `cost` for every executed instruction and summing —
    /// the per-instruction cycle-cost loop used by the non-pipelined
    /// baseline model.
    pub fn run_costed(
        &mut self,
        max_steps: u64,
        mut cost: impl FnMut(&Instr) -> u64,
    ) -> Result<u64, RunError> {
        let mut cycles = 0u64;
        while !self.m.finished() {
            if self.executed >= max_steps {
                return Err(RunError::CycleLimit { limit: max_steps });
            }
            let before = self.executed;
            let instr = self.peek_next()?;
            if !self.step()? {
                break;
            }
            debug_assert_eq!(self.executed, before + 1);
            cycles += cost(&instr);
        }
        Ok(cycles)
    }

    fn peek_next(&self) -> Result<Instr, RunError> {
        let Some(tid) = self
            .m
            .threads
            .rotation(self.rr)
            .find(|&t| self.m.threads.get(t).state == ThreadState::Runnable)
        else {
            return Err(RunError::Deadlock { cycle: self.executed });
        };
        let pc = self.m.threads.get(tid).pc;
        self.m.fetch(tid, pc).map(|e| e.instr)
    }
}

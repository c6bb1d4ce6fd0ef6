#![warn(missing_docs)]

//! # asc-core — cycle-accurate simulator of the Multithreaded ASC Processor
//!
//! The paper's primary contribution: a SIMD processor whose
//! broadcast/reduction networks are **fully pipelined** and whose control
//! unit is **fine-grain multithreaded**, so the b+r-cycle reduction
//! hazards that stall a single-threaded pipelined SIMD machine are filled
//! with instructions from other hardware threads.
//!
//! ```
//! use asc_core::{Machine, MachineConfig};
//!
//! let program = asc_asm::assemble(
//!     "        pidx  p1          ; p1 = PE index
//!              rsum  s1, p1      ; s1 = sum of indices
//!              halt
//!     ",
//! ).unwrap();
//! let mut m = Machine::with_program(MachineConfig::prototype(), &program).unwrap();
//! let stats = m.run(10_000).unwrap();
//! assert_eq!(m.sreg(0, 1).to_u32(), (0..16).sum::<u32>());
//! assert!(stats.cycles > 0);
//! ```
//!
//! Main types: [`MachineConfig`] (geometry + scheduler policy), [`Machine`]
//! (the timing simulator), [`Emulator`] (fast functional mode),
//! [`baseline`] (non-pipelined and coarse-grain comparison points),
//! [`pipeline`] (generated reproductions of the paper's figures), and
//! [`Stats`]/[`StallReason`] (the measurements the experiments report).

pub mod baseline;
pub mod config;
pub mod emulator;
pub mod error;
pub mod obs;
pub mod pipeline;
pub mod scoreboard;
pub mod stats;
pub mod threads;
pub mod timing;

mod exec;
mod fusion;
mod issue;
mod machine;

// Re-exported: `MachineConfig::simd_level` / `Machine::simd_level` return
// it, so consumers can name the tier without depending on `asc-pe`.
pub use asc_pe::workers::host_workers;
pub use asc_pe::SimdLevel;
pub use config::{FetchModel, MachineConfig, SchedPolicy};
pub use emulator::Emulator;
pub use error::RunError;
pub use fusion::{cut_reason, fusible_runs, CutReason, FusibleRun, FusionStats, MIN_BLOCK_LEN};
pub use machine::{Machine, Step};
pub use obs::{Profile, RingBufferSink, RunReport, SinkHandle, TraceEvent, TraceSink};
pub use stats::{StallReason, Stats};
pub use timing::Timing;

/// Assemble source and run it on a fresh machine; convenience for tests,
/// examples, and kernels. Returns the machine (for state inspection) and
/// the run statistics.
pub fn run_source(
    cfg: MachineConfig,
    source: &str,
    max_cycles: u64,
) -> Result<(Machine, Stats), RunError> {
    let program = asc_asm::assemble(source)
        .unwrap_or_else(|errs| panic!("assembly failed:\n{}", asc_asm::render_errors(&errs)));
    let mut m = Machine::with_program(cfg, &program)?;
    let stats = m.run(max_cycles)?;
    Ok((m, stats))
}

#[cfg(all(test, feature = "proptest"))]
mod proptests;
#[cfg(test)]
mod tests;

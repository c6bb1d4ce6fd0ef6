#![warn(missing_docs)]

//! # asc-pe — the processing element array
//!
//! Each PE of the Multithreaded ASC Processor (Section 6.2 of the paper)
//! consists of
//!
//! * a small **local memory** acting as a programmer/compiler-managed
//!   cache, shared between threads at the hardware level (1 KB in the
//!   prototype);
//! * a **general-purpose register file**, *split* between threads so a
//!   thread can only access its own registers;
//! * a **flag register file**, likewise split between threads;
//! * an **ALU** (one operation per cycle, latency one, fully forwarded);
//! * an optional **multiplier** (fast pipelined, or a slower sequential
//!   unit that only one thread can use at a time);
//! * an optional sequential **divider**.
//!
//! This crate implements the functional state and the structural occupancy
//! model of the sequential units; pipeline timing lives in `asc-core`.
//! Whole-array operations go through [`PeArray`], which stores state as
//! structure-of-arrays planes (see `array`) and drives masked execution
//! with the packed [`ActiveMask`] bitset (see `bitmask`), whose occupancy
//! summary lets every sweep skip inactive 4096-lane groups (the scaling
//! experiments run up to 2²⁰ PEs). Those groups are also the unit of work
//! of the host worker pool (see `workers`): a sweep large enough to pass
//! its gate runs on every host core, a smaller one on the calling thread.

pub mod array;
pub mod bitmask;
pub mod memory;
pub mod muldiv;
pub mod regfile;
pub mod segments;
pub mod simd;
pub mod tiles;
pub mod workers;

#[cfg(all(test, feature = "proptest"))]
mod proptests;

pub use array::{ArrayConfig, PeArray, PeFault, Src};
pub use bitmask::ActiveMask;
pub use memory::{LocalMemory, MemFault};
pub use muldiv::{DividerConfig, MultiplierKind, SequentialUnit};
pub use regfile::{FlagFile, RegFile};
pub use segments::SegmentGeometry;
pub use simd::{
    alu_vectorizes, select_alu_rr, select_alu_rs, select_cmp_rr, select_cmp_rs, select_first_set,
    select_popcount, select_sum_tile, simd_disabled, AluRrKernel, AluRsKernel, CmpRrKernel,
    CmpRsKernel, FirstSetKernel, PopcountKernel, SimdLevel, SumTileKernel,
};
pub use tiles::{GroupTiles, Plane, ThreadTiles, TileWindow, TILE_LANES};

//! # asc-bench — experiment harness
//!
//! One function per experiment in `DESIGN.md`'s index (E1–E20), each
//! returning structured rows plus a rendered table. The `tablegen` binary
//! prints them; the integration tests assert the *shapes* the paper
//! claims (who wins, how things scale); `EXPERIMENTS.md` records the
//! outputs next to the paper's numbers.

pub mod experiments;

pub use experiments::*;

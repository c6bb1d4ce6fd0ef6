//! Machine configuration.

use asc_isa::Width;
use asc_network::NetworkConfig;
use asc_pe::ArrayConfig;
// Re-exported: these are the types of `MachineConfig`'s public
// `multiplier`/`divider` fields, so consumers (e.g. `asc-verify`) can name
// them without depending on `asc-pe` directly.
pub use asc_pe::{DividerConfig, MultiplierKind};

use crate::timing::Timing;

/// Scheduler policy of the decode/issue unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Fine-grain multithreading with rotating thread priority — the
    /// paper's design. Any ready thread may issue every cycle.
    FineGrain,
    /// Coarse-grain multithreading: the current thread runs until it would
    /// stall for more than a couple of cycles; switching threads flushes
    /// the front end and costs `switch_penalty` cycles. Implemented as the
    /// baseline the paper argues against for short, frequent reduction
    /// stalls.
    CoarseGrain {
        /// Cycles lost on every thread switch.
        switch_penalty: u64,
    },
}

/// How instruction fetch is modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchModel {
    /// Per-thread buffers are always full (the branch-redirect bubble
    /// stands in for refill). The default: fast, and accurate whenever
    /// fetch bandwidth (one instruction per cycle) matches issue
    /// bandwidth.
    Ideal,
    /// Explicit model of Figure 3's fetch unit: one instruction fetched
    /// per cycle into the per-thread instruction buffers (round-robin
    /// over threads with space), issue only from a non-empty buffer,
    /// buffers flushed on taken branches.
    Finite {
        /// Instruction-buffer depth per thread.
        buffer_depth: usize,
    },
}

/// Full configuration of a simulated Multithreaded ASC Processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of processing elements.
    pub num_pes: usize,
    /// Datapath width (scalar unit and PEs).
    pub width: Width,
    /// Hardware thread contexts.
    pub threads: usize,
    /// Arity of the broadcast tree.
    pub broadcast_arity: usize,
    /// PE local memory size in words.
    pub lmem_words: usize,
    /// Scalar data memory size in words (shared by all threads).
    pub smem_words: usize,
    /// Instruction memory size in words.
    pub imem_words: usize,
    /// Multiplier implementation.
    pub multiplier: MultiplierKind,
    /// Divider implementation.
    pub divider: DividerConfig,
    /// Scheduler policy.
    pub sched: SchedPolicy,
    /// Forwarding paths enabled (disable only for the ablation study).
    pub forwarding: bool,
    /// Instruction-fetch model.
    pub fetch: FetchModel,
    /// Execute fusible parallel basic blocks group by group (the block
    /// fusion engine). Purely an execution strategy: cycle counts, stats,
    /// and architectural results are bit-identical either way. Disable
    /// (`mtasc run --no-fuse`) only to cross-check or to time the same
    /// executors in instruction-major order.
    pub fusion: bool,
    /// Use the host's vector units (AVX2/AVX-512, probed once at machine
    /// construction) for dense plane sweeps and lane-local executors.
    /// Purely an execution strategy — results, cycle counts and stats are
    /// bit-identical at every tier. Disable (`mtasc run --no-simd`, or
    /// `MTASC_NO_SIMD=1`) to cross-check or to time the scalar loops.
    pub simd: bool,
    /// Requested segment count of the PE array, the granularity at which
    /// plane writes are recorded (`0` = automatic, one segment per 4096
    /// lanes; `1` = the monolithic flat layout). Purely an execution
    /// strategy — results, cycle counts, stats and profiles are
    /// bit-identical at every count; see [`asc_pe::SegmentGeometry`].
    pub segments: usize,
    /// Schedule-perturbation seed (`0` = off, the exact baseline
    /// schedule). A non-zero seed jitters the rotating-priority scan
    /// offset (and the coarse-grain switch penalty) deterministically, so
    /// the scheduler still issues only ready threads — every perturbed run
    /// is a legal hardware schedule — but the interleaving of independent
    /// threads varies with the seed. Race-free programs produce
    /// bit-identical architectural state under every seed;
    /// schedule-dependent programs diverge. Used by `mtasc lint
    /// --schedules N`, the `tests/race_differential.rs` gate and the
    /// strategy-matrix property; see docs/static-analysis.md.
    pub sched_seed: u64,
}

impl MachineConfig {
    /// A full-featured machine: `num_pes` PEs, 16 threads, 4-ary broadcast
    /// tree, 16-bit datapath, pipelined multiplier and sequential divider.
    pub fn new(num_pes: usize) -> MachineConfig {
        let width = Width::W16;
        MachineConfig {
            num_pes,
            width,
            threads: 16,
            broadcast_arity: 4,
            lmem_words: 512,
            smem_words: 1024,
            imem_words: 4096,
            multiplier: MultiplierKind::DEFAULT_PIPELINED,
            divider: DividerConfig::default_sequential(width.bits()),
            sched: SchedPolicy::FineGrain,
            forwarding: true,
            fetch: FetchModel::Ideal,
            fusion: true,
            simd: true,
            segments: 0,
            sched_seed: 0,
        }
    }

    /// The FPGA prototype of Section 7: 16 PEs, 16 hardware threads, 1 KB
    /// of local memory per PE; multiplier, divider and inter-thread
    /// communication "still missing" (we leave mul/div out to match; the
    /// full machine uses [`MachineConfig::new`]).
    pub fn prototype() -> MachineConfig {
        MachineConfig {
            multiplier: MultiplierKind::None,
            divider: DividerConfig::None,
            ..MachineConfig::new(16)
        }
    }

    /// Same machine restricted to a single hardware thread — the
    /// pipelined-but-not-multithreaded baseline.
    pub fn single_threaded(mut self) -> MachineConfig {
        self.threads = 1;
        self
    }

    /// Switch to coarse-grain multithreading with the given switch
    /// penalty.
    pub fn coarse_grain(mut self, switch_penalty: u64) -> MachineConfig {
        self.sched = SchedPolicy::CoarseGrain { switch_penalty };
        self
    }

    /// Set the number of hardware threads.
    pub fn with_threads(mut self, threads: usize) -> MachineConfig {
        assert!(threads >= 1);
        self.threads = threads;
        self
    }

    /// Set the broadcast tree arity.
    pub fn with_arity(mut self, k: usize) -> MachineConfig {
        assert!(k >= 2);
        self.broadcast_arity = k;
        self
    }

    /// Disable the forwarding paths (ablation study: how much do the
    /// EX→B1 and EX→EX forwards buy?).
    pub fn without_forwarding(mut self) -> MachineConfig {
        self.forwarding = false;
        self
    }

    /// Model the fetch unit explicitly with per-thread instruction
    /// buffers of the given depth.
    pub fn with_fetch_buffers(mut self, buffer_depth: usize) -> MachineConfig {
        assert!(buffer_depth >= 1);
        self.fetch = FetchModel::Finite { buffer_depth };
        self
    }

    /// Disable the block-fusion engine: execute every parallel
    /// instruction as a full-array sweep at issue (the escape hatch
    /// behind `mtasc run --no-fuse`; results and timing are identical,
    /// only slower at scale).
    pub fn without_fusion(mut self) -> MachineConfig {
        self.fusion = false;
        self
    }

    /// Force the scalar reference loops: no vector kernels anywhere (the
    /// escape hatch behind `mtasc run --no-simd`; results and timing are
    /// identical, only slower on wide arrays).
    pub fn without_simd(mut self) -> MachineConfig {
        self.simd = false;
        self
    }

    /// The SIMD dispatch tier this machine will execute at: the host's
    /// best compiled-in tier, or [`asc_pe::SimdLevel::Scalar`] when vector
    /// execution is disabled by config or by `MTASC_NO_SIMD`. Resolved
    /// here once so the PE array, the sum unit and the lane-local ops
    /// lowered at program load always agree.
    pub fn simd_level(&self) -> asc_pe::SimdLevel {
        if self.simd {
            asc_pe::SimdLevel::detect()
        } else {
            asc_pe::SimdLevel::Scalar
        }
    }

    /// Set the datapath width.
    pub fn with_width(mut self, width: Width) -> MachineConfig {
        self.width = width;
        self
    }

    /// Set the requested segment count (`0` = automatic, `1` =
    /// monolithic).
    pub fn with_segments(mut self, segments: usize) -> MachineConfig {
        self.segments = segments;
        self
    }

    /// Set the schedule-perturbation seed (`0` disables perturbation).
    pub fn with_sched_seed(mut self, seed: u64) -> MachineConfig {
        self.sched_seed = seed;
        self
    }

    /// The resolved segment slicing this machine will execute with (the
    /// requested count, rounded and capped): the granularity of the PE
    /// array's commit map.
    pub fn segment_geometry(&self) -> asc_pe::SegmentGeometry {
        asc_pe::SegmentGeometry::new(self.num_pes, self.segments)
    }

    /// Network geometry for this machine.
    pub fn network(&self) -> NetworkConfig {
        NetworkConfig::new(self.num_pes, self.broadcast_arity).with_simd(self.simd_level())
    }

    /// PE array geometry for this machine.
    pub fn array(&self) -> ArrayConfig {
        ArrayConfig {
            num_pes: self.num_pes,
            threads: self.threads,
            gprs: asc_isa::NUM_GPRS,
            flags: asc_isa::NUM_FLAGS,
            lmem_words: self.lmem_words,
            width: self.width,
            simd: self.simd_level(),
            segments: self.segment_geometry(),
        }
    }

    /// Pipeline timing parameters for this machine.
    pub fn timing(&self) -> Timing {
        // the latencies depend on the PE count and arity alone, so skip
        // resolving the `--no-simd` flag
        let net = NetworkConfig::new(self.num_pes, self.broadcast_arity);
        Timing {
            b: net.broadcast_latency(),
            r: net.reduction_latency(),
            multiplier: self.multiplier,
            divider: self.divider,
            forwarding: self.forwarding,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_paper() {
        let c = MachineConfig::prototype();
        assert_eq!(c.num_pes, 16);
        assert_eq!(c.threads, 16);
        assert_eq!(c.lmem_words * (c.width.bits() as usize / 8) * 2 / 2, 1024, "1 KB local memory");
        let t = c.timing();
        assert_eq!(t.b, 2, "two broadcast stages, as in Figure 1");
        assert_eq!(t.r, 4, "four reduction stages, as in Figure 1");
        assert_eq!(c.multiplier, MultiplierKind::None);
    }

    #[test]
    fn builders() {
        let c = MachineConfig::new(64).with_threads(4).with_arity(8).single_threaded();
        assert_eq!(c.threads, 1);
        assert_eq!(c.broadcast_arity, 8);
        let c = MachineConfig::new(64).coarse_grain(5);
        assert_eq!(c.sched, SchedPolicy::CoarseGrain { switch_penalty: 5 });
    }

    #[test]
    fn timing_scales_with_pes() {
        let t = MachineConfig::new(1024).timing();
        assert_eq!(t.b, 5); // log4 1024
        assert_eq!(t.r, 10); // log2 1024
    }

    #[test]
    fn segment_geometry_is_plumbed_everywhere() {
        let c = MachineConfig::new(1 << 16).with_segments(4);
        let geo = c.segment_geometry();
        assert_eq!(geo.count(), 4);
        assert_eq!(c.array().segments, geo);
        // the SIMD tier reaches the network as it reaches the array
        assert_eq!(c.network().simd, c.array().simd);
        let scalar = c.without_simd();
        assert_eq!(scalar.network().simd, asc_pe::SimdLevel::Scalar);
        assert_eq!(scalar.array().simd, asc_pe::SimdLevel::Scalar);
        // timing is segment-invariant: same b/r as the monolithic build
        assert_eq!(c.timing(), MachineConfig::new(1 << 16).with_segments(1).timing());
        // default requests the automatic slicing
        assert_eq!(MachineConfig::new(16).segments, 0);
        assert_eq!(MachineConfig::new(16).segment_geometry().count(), 1);
    }
}

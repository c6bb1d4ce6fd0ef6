#![warn(missing_docs)]

//! # asc-network — broadcast/reduction network models
//!
//! The defining hardware of an associative SIMD processor (Section 6.4 of
//! the paper): a **broadcast unit** (pipelined k-ary tree carrying
//! instructions and scalar data from the control unit to the PE array) and
//! five **reduction units** (pipelined trees carrying data the other way):
//!
//! | unit | function | latency |
//! |------|----------|---------|
//! | broadcast | instruction/data distribution | ⌈log_k p⌉ |
//! | logic | bitwise AND/OR of integers and flags | ⌈log₂ p⌉ |
//! | max/min | signed/unsigned maximum/minimum | ⌈log₂ p⌉ |
//! | sum | saturating sum | ⌈log₂ p⌉ |
//! | response counter | exact count of responders | ⌈log₂ p⌉ |
//! | multiple response resolver | first responder (parallel result) | ⌈log₂ p⌉ |
//!
//! Every unit has an initiation rate of one operation per cycle — the
//! property that lets the fine-grain multithreaded pipeline issue a
//! reduction every cycle without structural hazards.
//!
//! This crate provides both **functional** models (what value comes out,
//! respecting the tree association order, which matters for the saturating
//! sum) and **structural** models ([`DelayLine`], [`PipelinedUnit`]) that
//! the cycle-accurate simulator uses to track occupancy and latency.

pub mod broadcast;
pub mod count;
pub mod logic;
pub mod maxmin;
pub mod resolver;
pub mod sum;
pub mod tree;
pub mod unit;

pub use broadcast::BroadcastTree;
pub use count::ResponseCounter;
pub use logic::LogicUnit;
pub use maxmin::MaxMinUnit;
pub use resolver::MultipleResponseResolver;
pub use sum::SumUnit;
pub use tree::{reduction_latency, tree_depth, DelayLine, PipelinedUnit};
pub use unit::NetUnit;

use asc_isa::{ReduceOp, Width, Word};
use asc_pe::{ActiveMask, SegmentGeometry, SimdLevel};

/// Geometry and latency of the whole broadcast/reduction network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Number of processing elements.
    pub num_pes: usize,
    /// Arity (k) of the broadcast tree — "variable and chosen so as to
    /// maximize system performance".
    pub broadcast_arity: usize,
    /// Core-affine segmentation of the PE array. When segmented, the
    /// associative reductions run as a two-level tree: a leaf reduction
    /// per segment feeding a root combiner over the segment partials. The
    /// saturating sum's tile tree already splits on tile boundaries, so
    /// it takes one path at every segment count. Results and latencies
    /// are identical to the flat tree at every segment count.
    pub segments: SegmentGeometry,
    /// SIMD tier of the sum unit's tile kernel (see
    /// [`asc_pe::SumTileKernel`]); results are identical at every tier.
    pub simd: SimdLevel,
}

impl NetworkConfig {
    /// Construct; `num_pes >= 1`, `broadcast_arity >= 2`. The segment
    /// geometry defaults to the automatic slicing (one segment per 4096
    /// lanes; see [`NetworkConfig::with_segments`]) and the SIMD tier to
    /// [`SimdLevel::detect`], as for the PE array, so `MTASC_NO_SIMD`
    /// applies here too. A machine passes its resolved tier, which also
    /// honours `--no-simd`, through [`NetworkConfig::with_simd`].
    pub fn new(num_pes: usize, broadcast_arity: usize) -> NetworkConfig {
        assert!(num_pes >= 1, "need at least one PE");
        assert!(broadcast_arity >= 2, "broadcast tree arity must be >= 2");
        NetworkConfig {
            num_pes,
            broadcast_arity,
            segments: SegmentGeometry::new(num_pes, 0),
            simd: SimdLevel::detect(),
        }
    }

    /// Replace the segment geometry (must cover the same number of PEs).
    pub fn with_segments(mut self, segments: SegmentGeometry) -> NetworkConfig {
        assert_eq!(segments.num_pes(), self.num_pes, "segment geometry covers a different array");
        self.segments = segments;
        self
    }

    /// Replace the SIMD tier.
    pub fn with_simd(mut self, simd: SimdLevel) -> NetworkConfig {
        self.simd = simd;
        self
    }

    /// Broadcast latency `b` = ⌈log_k p⌉ cycles.
    ///
    /// This flat formula stays authoritative under segmentation: a k-ary
    /// tree over the segments feeding k-ary subtrees inside each segment
    /// has depth ⌈log_k s⌉ + ⌈log_k S⌉, which equals ⌈log_k p⌉ exactly
    /// when the segment length `S` is a power of `k` and overshoots by at
    /// most one stage otherwise — the model charges the flat depth so
    /// cycle counts are segment-invariant.
    pub fn broadcast_latency(&self) -> u64 {
        tree_depth(self.num_pes, self.broadcast_arity)
    }

    /// Reduction latency `r` = ⌈log₂ p⌉ cycles (all reduction units are
    /// binary trees). Equals the sum of the two stages of
    /// [`NetworkConfig::two_level_reduction_latency`], so the segmented
    /// network charges the same latency as the flat one.
    pub fn reduction_latency(&self) -> u64 {
        reduction_latency(self.num_pes)
    }

    /// The `(leaf, root)` stage depths of the two-level reduction tree:
    /// ⌈log₂ S⌉ cycles in each segment's tree plus ⌈log₂ s⌉ in the root
    /// combiner over the `s` segment partials. Because full segments span
    /// a power-of-two number of lanes, the stages compose exactly:
    /// `leaf + root == reduction_latency()` at every segment count.
    pub fn two_level_reduction_latency(&self) -> (u64, u64) {
        let geo = self.segments;
        if !geo.is_segmented() {
            return (self.reduction_latency(), 0);
        }
        (reduction_latency(geo.lanes_per_seg()), reduction_latency(geo.count()))
    }
}

/// The full network: functional entry points used by the instruction
/// executor. Stateless (the pipelined occupancy is tracked by the timing
/// core; these units have initiation rate 1/cycle so they never reject an
/// operation).
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NetworkConfig,
    sum: SumUnit,
}

impl Network {
    /// Build the network for a given geometry.
    pub fn new(cfg: NetworkConfig) -> Network {
        Network { cfg, sum: SumUnit::new(cfg.simd) }
    }

    /// Network geometry.
    pub fn config(&self) -> NetworkConfig {
        self.cfg
    }

    /// Reduce a per-PE value (a register plane) over the active set with
    /// the given operation. Inactive PEs contribute the operation's
    /// identity element, exactly as the hardware feeds identity values into
    /// the tree leaves. Reads the plane in place; the saturating sum keeps
    /// the canonical tree association order.
    pub fn reduce(&self, op: ReduceOp, values: &[Word], active: &ActiveMask, w: Width) -> Word {
        debug_assert_eq!(values.len(), self.cfg.num_pes);
        debug_assert_eq!(active.lanes(), self.cfg.num_pes);
        match op {
            ReduceOp::Sum => self.sum.reduce(values, active, w),
            _ if self.cfg.segments.is_segmented() => self.reduce_two_level(op, values, active, w),
            ReduceOp::And | ReduceOp::Or => LogicUnit::reduce(op, values, active, w),
            ReduceOp::Max | ReduceOp::Min | ReduceOp::MaxU | ReduceOp::MinU => {
                MaxMinUnit::reduce(op, values, active, w)
            }
        }
    }

    /// The segmented two-level tree of the associative units: a leaf
    /// reduction per segment feeding a root fold over the segment
    /// partials. Segments whose lanes are all inactive — one bit test
    /// against the mask's occupancy summary — are skipped entirely, so a
    /// reduction over a responder set confined to a few segments never
    /// walks the rest of a million-lane plane.
    ///
    /// Bit-exact at every segment count: the root fold is
    /// `ReduceOp::combine` over in-order partials, and a skipped segment
    /// would have contributed the identity, which is neutral. The
    /// occupancy summary is conservative (a stale bit may mark an all-zero
    /// segment as occupied) — never wrong, because such a segment just
    /// contributes the identity.
    fn reduce_two_level(
        &self,
        op: ReduceOp,
        values: &[Word],
        active: &ActiveMask,
        w: Width,
    ) -> Word {
        let geo = self.cfg.segments;
        let mut acc = op.identity(w);
        for s in 0..geo.count() {
            let tiles = geo.seg_tile_range(s);
            if !active.range_occupied(tiles.clone()) {
                continue;
            }
            let partial = match op {
                ReduceOp::And | ReduceOp::Or => {
                    LogicUnit::reduce_tiles(op, values, active, tiles, w)
                }
                ReduceOp::Max | ReduceOp::Min | ReduceOp::MaxU | ReduceOp::MinU => {
                    MaxMinUnit::reduce_tiles(op, values, active, tiles, w)
                }
                ReduceOp::Sum => unreachable!("the sum unit takes one path at every geometry"),
            };
            acc = op.combine(acc, partial, w);
        }
        acc
    }

    /// Responder detection: OR (any) / AND (all) over a packed flag
    /// bitplane, 64 PEs per word.
    pub fn reduce_flags(
        &self,
        op: asc_isa::FlagReduceOp,
        flags: &[u64],
        active: &ActiveMask,
    ) -> bool {
        let geo = self.cfg.segments;
        if geo.is_segmented() {
            let mut acc = op.identity();
            for s in 0..geo.count() {
                let tiles = geo.seg_tile_range(s);
                if !active.range_occupied(tiles.clone()) {
                    continue; // no active lane: contributes the identity
                }
                acc = op.combine(acc, LogicUnit::reduce_flags_tiles(op, flags, active, tiles));
                // short-circuit exactly as the flat word scan does
                if acc != op.identity() {
                    return acc;
                }
            }
            return acc;
        }
        LogicUnit::reduce_flags(op, flags, active)
    }

    /// Exact responder count from the packed bitplane, saturating at the
    /// word width.
    pub fn count_responders(&self, flags: &[u64], active: &ActiveMask, w: Width) -> Word {
        let geo = self.cfg.segments;
        if geo.is_segmented() {
            // Per-segment raw counts summed in u64, saturated once at the
            // root — identical to the flat unit's width-unconstrained
            // internal adder tree.
            let total: u64 = (0..geo.count())
                .map(|s| geo.seg_tile_range(s))
                .filter(|tiles| active.range_occupied(tiles.clone()))
                .map(|tiles| ResponseCounter::count_tiles(flags, active, tiles))
                .sum();
            return Word::new(total.min(w.mask() as u64) as u32, w);
        }
        ResponseCounter::count(flags, active, w)
    }

    /// Multiple response resolution: index of the first responder, if any.
    /// (The hardware's one-hot parallel output is materialized by the PE
    /// array only when an instruction stores it to a flag plane.)
    pub fn first_responder(&self, flags: &[u64], active: &ActiveMask) -> Option<usize> {
        let geo = self.cfg.segments;
        if geo.is_segmented() {
            // Segments are scanned in ascending order, so the first
            // occupied segment with a responder holds the global winner —
            // the min-PE-index semantics of the flat resolver.
            return (0..geo.count()).map(|s| geo.seg_tile_range(s)).find_map(|tiles| {
                if !active.range_occupied(tiles.clone()) {
                    return None;
                }
                MultipleResponseResolver::first_responder_tiles(flags, active, tiles)
            });
        }
        MultipleResponseResolver::first_responder(flags, active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_paper_prototype() {
        // The paper's Figure 1 assumes two broadcast stages and four
        // reduction stages; that is exactly p = 16 with a 4-ary broadcast
        // tree and binary reduction trees.
        let cfg = NetworkConfig::new(16, 4);
        assert_eq!(cfg.broadcast_latency(), 2);
        assert_eq!(cfg.reduction_latency(), 4);
    }

    #[test]
    fn latency_scaling() {
        for (p, k, b, r) in [
            (1, 2, 0, 0),
            (2, 2, 1, 1),
            (4, 2, 2, 2),
            (50, 2, 6, 6),
            (1024, 2, 10, 10),
            (1024, 4, 5, 10),
            (1024, 16, 3, 10),
            (1000, 4, 5, 10),
        ] {
            let cfg = NetworkConfig::new(p, k);
            assert_eq!(cfg.broadcast_latency(), b, "p={p} k={k}");
            assert_eq!(cfg.reduction_latency(), r, "p={p} k={k}");
        }
    }

    #[test]
    fn two_level_latency_composes_exactly() {
        // leaf + root == flat ⌈log₂ p⌉ at every geometry: the stage split
        // re-associates the tree without adding depth, because full
        // segments span a power-of-two number of lanes.
        for p in [1usize, 16, 100, 4096, 4097, 70_000, 1 << 18, (1 << 20) - 3, 1 << 20] {
            for req in [0usize, 1, 2, 7, 64, 256] {
                let cfg = NetworkConfig::new(p, 4).with_segments(SegmentGeometry::new(p, req));
                let (leaf, root) = cfg.two_level_reduction_latency();
                assert_eq!(leaf + root, cfg.reduction_latency(), "p={p} req={req}");
            }
        }
    }

    #[test]
    fn saturating_sum_association_across_segment_boundary() {
        // 130 PEs, 1-tile segments: lanes 63|64 and 127|128 straddle
        // segment boundaries. The values are chosen so node-by-node
        // saturation is order-sensitive: the canonical tree pairs (100,
        // 100) -> 127 (saturated), then 127 + (-100) = 27 — any
        // re-association across the boundary (e.g. summing segment 0
        // fully before segment 1) would change the result.
        let w = Width::W8;
        let n = 130;
        let mut vals = vec![Word::ZERO; n];
        vals[62] = Word::from_i64(100, w);
        vals[63] = Word::from_i64(100, w); // pairs with 62 inside seg 0
        vals[64] = Word::from_i64(-100, w); // first lane of seg 1
        vals[128] = Word::from_i64(77, w); // ragged last segment
        let mut active = ActiveMask::new(n);
        for i in [62, 63, 64, 128] {
            active.set(i, true);
        }
        let flat = Network::new(NetworkConfig::new(n, 2)).reduce(ReduceOp::Sum, &vals, &active, w);
        for req in [2usize, 3, 130] {
            let cfg = NetworkConfig::new(n, 2).with_segments(SegmentGeometry::new(n, req));
            let seg = Network::new(cfg).reduce(ReduceOp::Sum, &vals, &active, w);
            assert_eq!(seg, flat, "req={req}");
        }
        // Document the actual value: ((100+100)->127) + (-100) = 27, +77 = 104.
        assert_eq!(flat.to_i64(w), 104);
    }

    #[test]
    fn segmented_network_matches_flat_on_all_ops() {
        use asc_isa::FlagReduceOp;
        let w = Width::W16;
        let n = 70_001; // many segments at 1-tile granularity, ragged tail
        let vals: Vec<Word> =
            (0..n).map(|i| Word::from_i64((i as i64 * 37 % 4001) - 2000, w)).collect();
        let mut bools = vec![false; n];
        for i in (0..n).step_by(97) {
            bools[i] = true;
        }
        bools[n - 1] = true;
        let active = ActiveMask::from_bools(&bools);
        let flags: Vec<u64> = active.words().to_vec();
        let flat = Network::new(NetworkConfig::new(n, 4));
        for req in [3usize, 16, 256] {
            let seg =
                Network::new(NetworkConfig::new(n, 4).with_segments(SegmentGeometry::new(n, req)));
            for op in [
                ReduceOp::Sum,
                ReduceOp::Max,
                ReduceOp::Min,
                ReduceOp::MaxU,
                ReduceOp::MinU,
                ReduceOp::And,
                ReduceOp::Or,
            ] {
                assert_eq!(
                    seg.reduce(op, &vals, &active, w),
                    flat.reduce(op, &vals, &active, w),
                    "req={req} op={op:?}"
                );
            }
            assert_eq!(
                seg.count_responders(&flags, &active, w),
                flat.count_responders(&flags, &active, w),
                "req={req}"
            );
            assert_eq!(
                seg.first_responder(&flags, &active),
                flat.first_responder(&flags, &active),
                "req={req}"
            );
            for op in [FlagReduceOp::Any, FlagReduceOp::All] {
                assert_eq!(
                    seg.reduce_flags(op, &flags, &active),
                    flat.reduce_flags(op, &flags, &active),
                    "req={req} op={op:?}"
                );
            }
            // empty active set: identities everywhere
            let none = ActiveMask::new(n);
            assert_eq!(seg.reduce(ReduceOp::Sum, &vals, &none, w), Word::ZERO);
            assert_eq!(seg.first_responder(&flags, &none), None);
        }
    }

    #[test]
    #[should_panic]
    fn zero_pes_rejected() {
        NetworkConfig::new(0, 2);
    }

    #[test]
    #[should_panic]
    fn unary_tree_rejected() {
        NetworkConfig::new(4, 1);
    }
}

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
//!
//! Each reduction unit has one functional path. The value reductions
//! (logic AND/OR, max/min) walk the active mask's tiles
//! ([`asc_pe::ActiveMask::active_tiles`]) and the sum unit reduces a tree
//! of 64-lane tiles. The responder units (the counter, the resolver and
//! the logic unit's any/all) work on packed flag words: each carries a
//! word-span kernel of the machine's SIMD tier ([`asc_pe::simd`]),
//! selected once at construction, and calls it once per occupied
//! 4096-lane group. Every unit skips the groups with no active lane, and
//! none depends on how the PE array is segmented. A dense value reduction
//! over enough occupied groups to pass the worker pool's gate reduces each
//! group on some host core (`asc_pe::workers`) and combines the groups'
//! partials on the calling thread in group order (the sum: in its
//! canonical tree order). The count brings its flag words, not its lanes,
//! to the gate, so it splits only from 2²⁴ PEs; a smaller reduction, the
//! resolver and the any/all tests run on the calling thread.

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

use std::ops::Range;

use asc_isa::{ReduceOp, Width, Word};
use asc_pe::bitmask::OCC_GROUP_WORDS;
use asc_pe::workers;
use asc_pe::{ActiveMask, SimdLevel};

/// The occupied groups of `active` among `groups`, lowest first, each as
/// its first word, its words of `flags` and its mask words: the walk of
/// the responder units, which hand a group's words to one kernel call.
pub(crate) fn occupied_flags<'a>(
    flags: &'a [u64],
    active: &'a ActiveMask,
    groups: Range<usize>,
) -> impl Iterator<Item = (usize, &'a [u64], &'a [u64])> + 'a {
    active.occupied(groups).map(move |(g, masks)| {
        let first = g * OCC_GROUP_WORDS;
        (first, &flags[first..first + masks.len()], masks)
    })
}

/// Fold the active lanes of `values`, lowest first, with `lane` starting
/// from `id`. A fold over enough occupied 4096-lane groups to pass the
/// worker pool's gate folds each group on some host core and `join`s the
/// groups' partials in group order ([`workers::fold_groups`]); below the
/// gate it is one pass over the active tiles. The callers' folds are
/// associative and commutative with identity `id`, so both give the same
/// word.
pub(crate) fn fold_active(
    values: &[Word],
    active: &ActiveMask,
    id: u32,
    lane: impl Fn(u32, Word) -> u32 + Sync,
    join: impl Fn(u32, u32) -> u32,
) -> u32 {
    let lane_ops = workers::mask_work(active);
    let join = |a: u64, b: u64| u64::from(join(a as u32, b as u32));
    // inlined into the serial call as well as into the split path
    let fold = workers::fold_groups(
        active.groups(),
        lane_ops,
        #[inline(always)]
        |groups| {
            let fold = active.group_tiles(groups).fold(id, |mut acc, (t, mw)| {
                let base = t * 64;
                if mw == u64::MAX {
                    acc = values[base..base + 64].iter().fold(acc, |a, &v| lane(a, v));
                } else {
                    let mut m = mw;
                    while m != 0 {
                        acc = lane(acc, values[base + m.trailing_zeros() as usize]);
                        m &= m - 1;
                    }
                }
                acc
            });
            u64::from(fold)
        },
        join,
    );
    fold as u32
}

/// Geometry and latency of the whole broadcast/reduction network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Number of processing elements.
    pub num_pes: usize,
    /// Arity (k) of the broadcast tree — "variable and chosen so as to
    /// maximize system performance".
    pub broadcast_arity: usize,
    /// SIMD tier of the sum unit's tile kernel (see
    /// [`asc_pe::SumTileKernel`]) and of the responder units' word-span
    /// kernels; results are identical at every tier.
    pub simd: SimdLevel,
}

impl NetworkConfig {
    /// Construct; `num_pes >= 1`, `broadcast_arity >= 2`. The SIMD tier
    /// defaults to [`SimdLevel::detect`], as for the PE array, so
    /// `MTASC_NO_SIMD` applies here too. A machine passes its resolved
    /// tier, which also honours `--no-simd`, through
    /// [`NetworkConfig::with_simd`].
    pub fn new(num_pes: usize, broadcast_arity: usize) -> NetworkConfig {
        assert!(num_pes >= 1, "need at least one PE");
        assert!(broadcast_arity >= 2, "broadcast tree arity must be >= 2");
        NetworkConfig { num_pes, broadcast_arity, simd: SimdLevel::detect() }
    }

    /// Replace the SIMD tier.
    pub fn with_simd(mut self, simd: SimdLevel) -> NetworkConfig {
        self.simd = simd;
        self
    }

    /// Broadcast latency `b` = ⌈log_k p⌉ cycles.
    pub fn broadcast_latency(&self) -> u64 {
        tree_depth(self.num_pes, self.broadcast_arity)
    }

    /// Reduction latency `r` = ⌈log₂ p⌉ cycles (all reduction units are
    /// binary trees).
    pub fn reduction_latency(&self) -> u64 {
        reduction_latency(self.num_pes)
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
    counter: ResponseCounter,
    resolver: MultipleResponseResolver,
    logic: LogicUnit,
}

impl Network {
    /// Build the network for a given geometry; every unit's kernel is
    /// selected here, once, at the configured SIMD tier.
    pub fn new(cfg: NetworkConfig) -> Network {
        Network {
            cfg,
            sum: SumUnit::new(cfg.simd),
            counter: ResponseCounter::new(cfg.simd),
            resolver: MultipleResponseResolver::new(cfg.simd),
            logic: LogicUnit::new(cfg.simd),
        }
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
            ReduceOp::And | ReduceOp::Or => LogicUnit::reduce(op, values, active, w),
            ReduceOp::Max | ReduceOp::Min | ReduceOp::MaxU | ReduceOp::MinU => {
                MaxMinUnit::reduce(op, values, active, w)
            }
        }
    }

    /// Responder detection: OR (any) / AND (all) over a packed flag
    /// bitplane, 64 PEs per word.
    pub fn reduce_flags(
        &self,
        op: asc_isa::FlagReduceOp,
        flags: &[u64],
        active: &ActiveMask,
    ) -> bool {
        self.logic.reduce_flags(op, flags, active)
    }

    /// Exact responder count from the packed bitplane, saturating at the
    /// word width.
    pub fn count_responders(&self, flags: &[u64], active: &ActiveMask, w: Width) -> Word {
        self.counter.count(flags, active, w)
    }

    /// Multiple response resolution: index of the first responder, if any.
    /// (The hardware's one-hot parallel output is materialized by the PE
    /// array only when an instruction stores it to a flag plane.)
    pub fn first_responder(&self, flags: &[u64], active: &ActiveMask) -> Option<usize> {
        self.resolver.first_responder(flags, active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tree_reduce;

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
    fn saturating_sum_association_across_segment_boundary() {
        // 130 PEs: lanes 63|64 and 127|128 straddle tile boundaries. The
        // values are chosen so node-by-node saturation is order-sensitive:
        // the canonical tree pairs (100, 100) -> 127 (saturated), then
        // 127 + (-100) = 27 — any re-association across the boundary
        // (e.g. summing tile 0 fully before tile 1) would change the
        // result.
        let w = Width::W8;
        let n = 130;
        let mut vals = vec![Word::ZERO; n];
        vals[62] = Word::from_i64(100, w);
        vals[63] = Word::from_i64(100, w); // pairs with 62 inside tile 0
        vals[64] = Word::from_i64(-100, w); // first lane of tile 1
        vals[128] = Word::from_i64(77, w); // ragged last tile
        let mut active = ActiveMask::new(n);
        for i in [62, 63, 64, 128] {
            active.set(i, true);
        }
        let sum = Network::new(NetworkConfig::new(n, 2)).reduce(ReduceOp::Sum, &vals, &active, w);
        // ((100+100)->127) + (-100) = 27, +77 = 104.
        assert_eq!(sum.to_i64(w), 104);
    }

    /// Every value and flag reduction against a lane-by-lane reference,
    /// on dense, sparse, clustered and empty masks and on a mask whose
    /// only occupancy bit is stale, which must give each op's identity:
    /// at 70,001 lanes (18 occupancy groups, ragged tail), and at 2¹⁸ + 70
    /// lanes (65 groups), where a value reduction over a dense or sparse
    /// mask, or one with an empty group, reaches the worker pool's gate
    /// and is split. The count brings its flag words to the gate, which no
    /// mask here reaches (`count.rs`'s `group_by_group_counts_sum_to_the_whole`
    /// checks the per-group walk of a split count, and counts past the
    /// gate at 2²⁴ + 70 lanes), and the resolver and any/all never split,
    /// so those run group by group on the calling thread at both sizes. The
    /// larger array holds full-range W8 values, so the sum's tree nodes
    /// saturate and any change of association would show.
    #[test]
    fn units_match_lane_references_at_scale() {
        use asc_isa::FlagReduceOp;
        use asc_pe::workers::{mask_work, word_work, GROUP_LANES, SPLIT_LANE_OPS};
        for (n, w) in [(70_001, Width::W16), ((1 << 18) + 70, Width::W8)] {
            let vals: Vec<Word> = (0..n)
                .map(|i| match w {
                    Width::W8 => Word::from_i64(((i as i64 * 2_654_435_761) >> 9) % 256 - 128, w),
                    _ => Word::from_i64((i as i64 * 37 % 4001) - 2000, w),
                })
                .collect();
            let sparse: Vec<bool> = (0..n).map(|i| i % 97 == 0 || i == n - 1).collect();
            let cluster: Vec<bool> = (0..n).map(|i| (40_000..41_024).contains(&i)).collect();
            let holed: Vec<bool> = (0..n).map(|i| i / GROUP_LANES != 3 && i % 5 != 1).collect();
            let mut stale = ActiveMask::new(n);
            stale.set(50_000, true);
            stale.set(50_000, false);
            let masks = [
                ("dense", ActiveMask::all(n)),
                ("sparse", ActiveMask::from_bools(&sparse)),
                ("cluster", ActiveMask::from_bools(&cluster)),
                ("holed", ActiveMask::from_bools(&holed)),
                ("empty", ActiveMask::new(n)),
                ("stale", stale),
            ];
            if n > 1 << 18 {
                for (name, active) in &masks[..4] {
                    let split = mask_work(active) >= SPLIT_LANE_OPS;
                    assert_eq!(split, *name != "cluster", "{name}: gate");
                }
            }
            for (name, active) in &masks {
                assert!(
                    word_work(active) < SPLIT_LANE_OPS,
                    "{name}: the count stays on the caller"
                );
            }
            let pattern: Vec<bool> = (0..n).map(|i| i * 7 % 5 != 0).collect();
            let net = Network::new(NetworkConfig::new(n, 4));
            for (name, active) in &masks {
                let lanes: Vec<usize> = (0..n).filter(|&i| active.is_active(i)).collect();
                let leaves: Vec<Word> = (0..n)
                    .map(|i| if active.is_active(i) { vals[i] } else { Word::ZERO })
                    .collect();
                let sum = tree_reduce(&leaves, Word::ZERO, |a, b| a.saturating_add_signed(b, w));
                assert_eq!(net.reduce(ReduceOp::Sum, &vals, active, w), sum, "{n} {name} Sum");
                for op in [
                    ReduceOp::Max,
                    ReduceOp::Min,
                    ReduceOp::MaxU,
                    ReduceOp::MinU,
                    ReduceOp::And,
                    ReduceOp::Or,
                ] {
                    let want = lanes.iter().fold(op.identity(w), |a, &i| op.combine(a, vals[i], w));
                    assert_eq!(net.reduce(op, &vals, active, w), want, "{n} {name} {op:?}");
                    if lanes.is_empty() {
                        assert_eq!(want, op.identity(w), "{n} {name} {op:?}");
                    }
                }
                // a patterned flag plane, and the mask itself (every active
                // lane responds)
                for flags in [ActiveMask::from_bools(&pattern).words(), active.words()] {
                    let set = |i: usize| flags[i / 64] >> (i % 64) & 1 == 1;
                    let responders: Vec<usize> =
                        lanes.iter().copied().filter(|&i| set(i)).collect();
                    let count = Word::new(responders.len().min(w.mask() as usize) as u32, w);
                    let wide = Word::new(responders.len() as u32, Width::W32);
                    assert_eq!(net.count_responders(flags, active, w), count, "{n} {name}");
                    assert_eq!(net.count_responders(flags, active, Width::W32), wide, "{name}");
                    assert_eq!(net.first_responder(flags, active), responders.first().copied());
                    let any = lanes.iter().any(|&i| set(i));
                    let all = lanes.iter().all(|&i| set(i));
                    assert_eq!(net.reduce_flags(FlagReduceOp::Any, flags, active), any, "{name}");
                    assert_eq!(net.reduce_flags(FlagReduceOp::All, flags, active), all, "{name}");
                }
            }
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

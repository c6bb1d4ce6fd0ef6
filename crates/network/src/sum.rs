//! The sum unit: a pipelined binary adder tree producing the sum of a data
//! word from every PE. Not required by the ASC model, but "used in a number
//! of image and video processing algorithms". If overflow occurs while
//! computing the sum, the result saturates to the largest or smallest
//! representable value — at *every* tree node, which makes the operation
//! non-associative; the result is defined by the canonical tree order of
//! [`crate::tree::tree_reduce`].
//!
//! ## The tile tree
//!
//! Zero is the identity of the saturating add and never saturates, so the
//! canonical tree over `n` leaves equals the perfect binary tree over the
//! leaves zero-padded to any power of two at or above `n` (an odd node
//! that passes through a level is the same node added to a zero), and an
//! inactive PE is just one more zero leaf. A perfect tree over `64^k`
//! lanes is made of perfect 64-leaf subtrees at every sixth level, so the
//! unit computes it as a radix-64 tree of tiles: the
//! [`asc_pe::SumTileKernel`] reduces each 64-lane tile, then the same
//! kernel reduces each run of 64 tile partials, and so on up. Subtrees
//! with no active lane are skipped on the mask's occupancy summary (4096
//! lanes per bit) and its tile words, so a masked sum costs about as many
//! kernel calls as it has occupied tiles.
//!
//! A 4096-lane occupancy group is exactly the subtree over 64 tiles, so
//! the groups' partials are whole subtrees of the canonical tree. A sum
//! over enough occupied groups to pass the worker pool's gate computes
//! them on every host core ([`asc_pe::workers::map_groups`]); the caller
//! then combines the levels above them in the same order as the serial
//! walk, which computes each group's partial where the walk reaches it.
//!
//! ## Same-sign groups
//!
//! A group whose active lanes are all non-negative, or all non-positive,
//! needs no tree: its partial is the exact sum of those lanes, clamped
//! once. Take non-negative leaves (the other case is the mirror image),
//! write `M` for the width's largest value and `S(v)` for the exact sum of
//! the leaves under node `v`. Every node is at least zero, so only the
//! upper clamp can act, and each node is `min(S(v), M)`: true of a leaf,
//! and if it holds for the children `a` and `b` of `v`, then either both
//! sums are below `M`, the children are exact and `v = min(S(a) + S(b),
//! M)`, or one child is `M`, the other at least zero, and `v = M =
//! min(S(v), M)`, as `S(v) >= M` there. Zero leaves (inactive lanes
//! included) carry either sign. The [`asc_pe::SameSignSumKernel`] of the
//! unit's tier makes one pass over a group's masked lanes, summing them
//! and tracking the least and greatest, and gives up (`None`) at the
//! first tile after which both signs have been seen; the group then runs
//! the tile tree. Either way the group's partial is the same word, so the
//! levels above the groups, which still saturate node by node, are
//! unchanged.

use std::ops::Range;

use asc_isa::{ReduceOp, Width, Word};
use asc_pe::workers::{self, GROUP_LANES};
use asc_pe::{
    select_same_sign_sum, select_sum_tile, ActiveMask, SameSignSumKernel, SimdLevel, SumTileKernel,
    TILE_LANES,
};

/// Children of one node of the tile tree (tiles, or runs of tiles): the
/// tile kernel's 64 inputs.
const RADIX: usize = TILE_LANES;

/// Tiles in one occupancy group: the subtree one participant reduces.
const GROUP_TILES: usize = GROUP_LANES / TILE_LANES;

/// Functional model of the saturating sum reduction unit, carrying the
/// tile and same-sign span kernels of the machine's SIMD tier.
#[derive(Debug, Clone, Copy)]
pub struct SumUnit {
    tile: SumTileKernel,
    same_sign: SameSignSumKernel,
}

impl SumUnit {
    /// The unit at a SIMD tier; the kernels are selected here, once.
    pub fn new(level: SimdLevel) -> SumUnit {
        SumUnit { tile: select_sum_tile(level), same_sign: select_same_sign_sum(level) }
    }

    /// Saturating signed sum over the active set (inactive PEs contribute
    /// zero), reading the register plane in place, in the canonical tree
    /// order (see the [module docs](self)).
    pub fn reduce(&self, values: &[Word], active: &ActiveMask, w: Width) -> Word {
        debug_assert_eq!(values.len(), active.lanes());
        let tiles = active.words().len();
        let group = |g: usize| {
            let start = g * GROUP_TILES;
            u64::from(self.group(values, active, start..tiles.min(start + GROUP_TILES), w).0)
        };
        let lane_ops = workers::mask_work(active);
        workers::map_groups(active.groups(), lane_ops, group, |group| {
            let group = |g| Word(group(g) as u32);
            if tiles <= GROUP_TILES {
                return group(0);
            }
            let mut span = GROUP_TILES;
            while span * RADIX < tiles {
                span *= RADIX;
            }
            self.node(active, 0..tiles, span, w, &group)
        })
    }

    /// The subtree over one occupancy group's (at most 64) tiles: the
    /// exact sum of its active lanes clamped once if they share one sign
    /// (see the [module docs](self)), else the perfect tree over the
    /// tiles' partials, inactive tiles entering as zero.
    fn group(&self, values: &[Word], active: &ActiveMask, tiles: Range<usize>, w: Width) -> Word {
        let lanes = tiles.start * TILE_LANES..values.len().min(tiles.end * TILE_LANES);
        let masks = &active.words()[tiles.clone()];
        if let Some(sum) = (self.same_sign)(&values[lanes], w, masks) {
            return Word::from_i64(sum.clamp(w.smin(), w.smax()), w);
        }
        let mut partials = [Word::ZERO; RADIX];
        let mut occupied = 0u64;
        for (i, t) in tiles.enumerate() {
            let mw = active.tile_word(t);
            if mw != 0 {
                let lanes = t * TILE_LANES..values.len().min((t + 1) * TILE_LANES);
                partials[i] = (self.tile)(&values[lanes], w, mw);
                occupied |= 1 << i;
            }
        }
        self.combine(&partials, occupied, w)
    }

    /// The node over `tiles` above the groups: the perfect tree over its
    /// (at most 64) children of `span` tiles each, missing children
    /// entering as zero, and each group-sized child's partial read from
    /// `group`.
    fn node(
        &self,
        active: &ActiveMask,
        tiles: Range<usize>,
        span: usize,
        w: Width,
        group: &dyn Fn(usize) -> Word,
    ) -> Word {
        let mut partials = [Word::ZERO; RADIX];
        let mut occupied = 0u64;
        for (i, start) in tiles.clone().step_by(span).enumerate() {
            let end = tiles.end.min(start + span);
            if !active.range_occupied(start..end) {
                continue;
            }
            partials[i] = if span == GROUP_TILES {
                group(start / GROUP_TILES)
            } else {
                self.node(active, start..end, span / RADIX, w, group)
            };
            occupied |= 1 << i;
        }
        self.combine(&partials, occupied, w)
    }

    /// One node from its children's partials (`occupied` marks those
    /// present).
    fn combine(&self, partials: &[Word; RADIX], occupied: u64, w: Width) -> Word {
        match occupied.count_ones() {
            0 => Word::ZERO,
            // every other leaf is zero, which passes the one child through
            1 => partials[occupied.trailing_zeros() as usize],
            _ => (self.tile)(partials, w, occupied),
        }
    }

    /// Reference: the exact (unbounded) signed sum, clamped once at the
    /// end. Differs from [`SumUnit::reduce`] only when intermediate nodes
    /// saturate; the tests characterize exactly when the two agree.
    pub fn exact_clamped(values: &[Word], active: &ActiveMask, w: Width) -> Word {
        let s: i64 = values
            .iter()
            .enumerate()
            .filter(|(i, _)| active.is_active(*i))
            .map(|(_, v)| v.to_i64(w))
            .sum();
        Word::from_i64(s.clamp(w.smin(), w.smax()), w)
    }

    /// Identity check helper.
    pub fn identity() -> Word {
        ReduceOp::Sum.identity(Width::W32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tree_reduce;
    use crate::{Network, NetworkConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn words(vs: &[i64], w: Width) -> Vec<Word> {
        vs.iter().map(|&v| Word::from_i64(v, w)).collect()
    }

    /// The sum at the scalar tier, checked equal at every other tier.
    fn reduce(vals: &[Word], act: &ActiveMask, w: Width) -> Word {
        let want = SumUnit::new(SimdLevel::Scalar).reduce(vals, act, w);
        for level in SimdLevel::available() {
            assert_eq!(SumUnit::new(level).reduce(vals, act, w), want, "{level:?}");
        }
        want
    }

    /// The oracle: the canonical level-order tree over every lane, the
    /// inactive ones as zero leaves.
    fn identity_padded_tree(vals: &[Word], act: &ActiveMask, w: Width) -> Word {
        let leaves: Vec<Word> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| if act.is_active(i) { v } else { Word::ZERO })
            .collect();
        tree_reduce(&leaves, Word::ZERO, |a, b| a.saturating_add_signed(b, w))
    }

    /// Full-range values, so that tree nodes saturate.
    fn full_range(rng: &mut StdRng, n: usize, w: Width) -> Vec<Word> {
        (0..n).map(|_| Word::from_i64(rng.random_range(w.smin()..=w.smax()), w)).collect()
    }

    /// `Network::reduce(Sum)` at every tier.
    fn check_every_tier(vals: &[Word], act: &ActiveMask, w: Width, want: Word) {
        let n = vals.len();
        for level in SimdLevel::available() {
            let cfg = NetworkConfig::new(n, 2).with_simd(level);
            let got = Network::new(cfg).reduce(ReduceOp::Sum, vals, act, w);
            assert_eq!(got, want, "{w} n={n} {level:?}");
        }
    }

    #[test]
    fn small_sums_are_exact() {
        let w = Width::W8;
        let vals = words(&[1, 2, 3, 4, 5], w);
        let act = ActiveMask::all(5);
        assert_eq!(reduce(&vals, &act, w).to_i64(w), 15);
        assert_eq!(SumUnit::exact_clamped(&vals, &act, w).to_i64(w), 15);
    }

    #[test]
    fn saturates_positive_and_negative() {
        let w = Width::W8;
        let all = ActiveMask::all(3);
        let vals = words(&[100, 100, 100], w);
        assert_eq!(reduce(&vals, &all, w).to_i64(w), 127);
        let vals = words(&[-100, -100, -100], w);
        assert_eq!(reduce(&vals, &all, w).to_i64(w), -128);
    }

    #[test]
    fn inactive_pes_contribute_zero() {
        let w = Width::W16;
        let vals = words(&[1000, 2000, 3000], w);
        let some = ActiveMask::from_bools(&[true, false, true]);
        assert_eq!(reduce(&vals, &some, w).to_i64(w), 4000);
        assert_eq!(reduce(&vals, &ActiveMask::new(3), w).to_i64(w), 0);
    }

    #[test]
    fn tree_saturation_is_sticky() {
        // (100 + 100) saturates to 127 at the first node; adding -100
        // afterwards gives 27, whereas the exact sum 100 would not clamp.
        // This documents the hardware's node-by-node saturation semantics.
        let w = Width::W8;
        let vals = words(&[100, 100, -100, 0], w);
        let all = ActiveMask::all(4);
        assert_eq!(reduce(&vals, &all, w).to_i64(w), 27);
        assert_eq!(SumUnit::exact_clamped(&vals, &all, w).to_i64(w), 100);
    }

    /// Past 64 tiles the unit recurses over runs of tiles and prunes on
    /// the occupancy summary, and a group whose active lanes share one sign
    /// takes the same-sign pass instead of its tile tree; the proptest
    /// below stays under one group. From just under one group to 64 groups
    /// and a lane (262,145 lanes take three radix-64 levels above the
    /// tiles), at every width and tier, under dense, sparse, single-cluster
    /// and stale masks, the unit must match the canonical tree over
    /// full-range values; over values drawn from `0..=smax` and from
    /// `smin..=0`, all zero, and a lone `smin` among zeros, each of which
    /// must also equal the exact sum clamped once; and over groups that
    /// cycle through non-negative, mixed, non-positive and mixed, so that
    /// groups summed in one pass and groups summed by the tile tree meet
    /// at the nodes above them. Dense groups of one sign sum far past
    /// `smax` or `smin`, which the pass clamps once.
    #[test]
    fn upper_tile_levels_match_the_canonical_tree() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in [4095usize, 4097, 70_001, 262_145] {
            let sparse: Vec<bool> = (0..n).map(|_| rng.random_bool(0.001)).collect();
            let cluster: Vec<bool> = (0..n).map(|i| (n / 3..n / 3 + 1024).contains(&i)).collect();
            // a cleared lane leaves its occupancy bit set: the summary is
            // conservative, and an all-zero "occupied" group must still
            // come out as zero
            let mut stale = ActiveMask::new(n);
            stale.set(0, true);
            stale.set(n - 1, true);
            stale.set(n - 1, false);
            let masks = [
                ("dense", ActiveMask::all(n)),
                ("sparse", ActiveMask::from_bools(&sparse)),
                ("cluster", ActiveMask::from_bools(&cluster)),
                ("stale", stale),
            ];
            for w in [Width::W8, Width::W16, Width::W32] {
                let (lo, hi) = (w.smin(), w.smax());
                let mut draw = |range: &dyn Fn(usize) -> (i64, i64)| -> Vec<Word> {
                    (0..n)
                        .map(|i| {
                            let (a, b) = range(i);
                            Word::from_i64(rng.random_range(a..=b), w)
                        })
                        .collect()
                };
                let mixed = draw(&|_| (lo, hi));
                let pos = draw(&|_| (0, hi));
                let neg = draw(&|_| (lo, 0));
                let meet = draw(&|i| match i / GROUP_LANES % 4 {
                    0 => (0, hi),
                    2 => (lo, 0),
                    _ => (lo, hi),
                });
                let zero = vec![Word::ZERO; n];
                let mut lone = zero.clone();
                lone[n / 3 + 5] = Word::from_i64(lo, w);
                for (name, vals) in [
                    ("full-range", &mixed),
                    ("meet", &meet),
                    ("non-negative", &pos),
                    ("non-positive", &neg),
                    ("zero", &zero),
                    ("lone smin", &lone),
                ] {
                    for (shape, act) in &masks {
                        let want = identity_padded_tree(vals, act, w);
                        check_every_tier(vals, act, w, want);
                        let at = format!("{w} n={n} {name} {shape}");
                        if !matches!(name, "full-range" | "meet") {
                            let once = SumUnit::exact_clamped(vals, act, w);
                            assert_eq!(want, once, "{at}: one sign, clamped once");
                        }
                        match (*shape, name) {
                            ("dense", "non-negative") => assert_eq!(want.to_i64(w), hi, "{at}"),
                            ("dense", "non-positive") => assert_eq!(want.to_i64(w), lo, "{at}"),
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    proptest! {
        /// When all inputs share one sign, node saturation and final
        /// clamping agree.
        #[test]
        fn same_sign_matches_exact(
            raw in proptest::collection::vec(0i64..=127, 1..64),
        ) {
            let w = Width::W8;
            let vals = words(&raw, w);
            let act = ActiveMask::all(vals.len());
            prop_assert_eq!(reduce(&vals, &act, w), SumUnit::exact_clamped(&vals, &act, w));
        }

        /// If the exact sum of absolute values fits in the width, no node
        /// can saturate, so the tree sum is exact.
        #[test]
        fn no_overflow_is_exact(
            raw in proptest::collection::vec(-40i64..=40, 1..3),
        ) {
            let w = Width::W8;
            let vals = words(&raw, w);
            let act = ActiveMask::all(vals.len());
            let abs_sum: i64 = raw.iter().map(|v| v.abs()).sum();
            prop_assume!(abs_sum <= 127);
            prop_assert_eq!(reduce(&vals, &act, w).to_i64(w), raw.iter().sum::<i64>());
        }

        /// The tile tree must match the identity-padded canonical tree at
        /// every width and SIMD tier, on dense, sparse and single-cluster
        /// masks over ragged multi-tile arrays, with
        /// full-range values whose nodes saturate — where any deviation
        /// from the canonical association order would show.
        #[test]
        fn masked_tree_matches_identity_padded_tree(
            n in 1usize..=1000,
            shape in 0u8..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let active: Vec<bool> = match shape {
                0 => vec![true; n],
                1 => (0..n).map(|_| rng.random_bool(0.05)).collect(),
                _ => {
                    let start = rng.random_range(0..n);
                    let end = rng.random_range(start + 1..=n);
                    (0..n).map(|i| (start..end).contains(&i)).collect()
                }
            };
            let act = ActiveMask::from_bools(&active);
            for w in [Width::W8, Width::W16, Width::W32] {
                let vals = full_range(&mut rng, n, w);
                check_every_tier(&vals, &act, w, identity_padded_tree(&vals, &act, w));
            }
        }
    }
}

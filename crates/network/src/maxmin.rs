//! The maximum/minimum unit. Earlier ASC processors used the bit-serial
//! Falkoff algorithm (one bit of the word per cycle); the multithreaded
//! design replaces it with a pipelined tree of comparators so multiple
//! threads can have max/min reductions in flight simultaneously. Both
//! algorithms are implemented here: the tree is the architecture's unit;
//! [`MaxMinUnit::falkoff_max`] is used by the non-pipelined baseline and as
//! a cross-check.

use asc_isa::{ReduceOp, Width, Word};
use asc_pe::ActiveMask;

/// Functional model of the max/min reduction unit.
pub struct MaxMinUnit;

impl MaxMinUnit {
    /// Tree reduction for `Max`/`Min`/`MaxU`/`MinU` over the active set,
    /// reading the register plane in place (no leaf vector), one
    /// occupancy group at a time (see the crate docs on splitting).
    ///
    /// # Panics
    /// Panics if `op` is not a max/min operation.
    pub fn reduce(op: ReduceOp, values: &[Word], active: &ActiveMask, w: Width) -> Word {
        debug_assert_eq!(values.len(), active.lanes());
        assert!(
            matches!(op, ReduceOp::Max | ReduceOp::Min | ReduceOp::MaxU | ReduceOp::MinU),
            "max/min unit got {op:?}"
        );
        // Min/max are associative *and* commutative, so the canonical tree
        // order of the hardware produces the same word as a linear fold —
        // which lets the functional model walk only the set bits of the
        // packed active mask (64 inactive lanes cost one word test)
        // instead of feeding 2n-1 tree nodes identity values.
        //
        // The fold itself runs in an order-isomorphic unsigned key domain:
        // flipping the sign bit of a w-bit word maps signed order onto
        // unsigned order, after which every variant is a plain `u32`
        // min/max — branchless, no per-element op dispatch, and the
        // full-word chunks autovectorize. Ties are exact duplicates
        // (stored words are width-truncated), so the mapped fold returns
        // the identical word `ReduceOp::combine` would.
        let signed = matches!(op, ReduceOp::Max | ReduceOp::Min);
        let maximize = matches!(op, ReduceOp::Max | ReduceOp::MaxU);
        let flip = if signed { 1u32 << (w.bits() - 1) } else { 0 };
        let join = move |acc: u32, key: u32| if maximize { acc.max(key) } else { acc.min(key) };
        let id = op.identity(w).0 ^ flip;
        Word(crate::fold_active(values, active, id, |acc, v| join(acc, v.0 ^ flip), join) ^ flip)
    }

    /// The Falkoff bit-serial maximum: examine one bit per step from the
    /// most significant down, keeping only candidates that have the bit set
    /// whenever any candidate does. Runs in `width` steps — the per-cycle
    /// behaviour of the original non-pipelined ASC processors. Operates on
    /// *unsigned* ordering (signed max is the same after flipping the sign
    /// bit, which is what [`MaxMinUnit::falkoff_max_signed`] does).
    ///
    /// Returns the maximum over active PEs, or `None` if no PE is active.
    pub fn falkoff_max(values: &[Word], active: &[bool], w: Width) -> Option<Word> {
        let mut candidates: Vec<bool> = active.to_vec();
        if !candidates.iter().any(|&c| c) {
            return None;
        }
        for bit in (0..w.bits()).rev() {
            let m = 1u32 << bit;
            let any_set = values.iter().zip(&candidates).any(|(v, &c)| c && v.to_u32() & m != 0);
            if any_set {
                for (v, c) in values.iter().zip(candidates.iter_mut()) {
                    if *c && v.to_u32() & m == 0 {
                        *c = false;
                    }
                }
            }
        }
        values.iter().zip(&candidates).find(|(_, &c)| c).map(|(&v, _)| v)
    }

    /// Falkoff maximum under *signed* ordering (flip the sign bit, take the
    /// unsigned maximum, flip back).
    pub fn falkoff_max_signed(values: &[Word], active: &[bool], w: Width) -> Option<Word> {
        let sign = 1u32 << (w.bits() - 1);
        let flipped: Vec<Word> = values.iter().map(|v| Word::new(v.to_u32() ^ sign, w)).collect();
        Self::falkoff_max(&flipped, active, w).map(|v| Word::new(v.to_u32() ^ sign, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn words(vs: &[i64], w: Width) -> Vec<Word> {
        vs.iter().map(|&v| Word::from_i64(v, w)).collect()
    }

    #[test]
    fn signed_vs_unsigned() {
        let w = Width::W8;
        let vals = words(&[-1, 3, 100, -128], w);
        let all = ActiveMask::all(4);
        assert_eq!(MaxMinUnit::reduce(ReduceOp::Max, &vals, &all, w).to_i64(w), 100);
        assert_eq!(MaxMinUnit::reduce(ReduceOp::Min, &vals, &all, w).to_i64(w), -128);
        // unsigned: -1 is 0xff, the largest
        assert_eq!(MaxMinUnit::reduce(ReduceOp::MaxU, &vals, &all, w).to_u32(), 0xff);
        assert_eq!(MaxMinUnit::reduce(ReduceOp::MinU, &vals, &all, w).to_u32(), 3);
    }

    #[test]
    fn respects_active_mask() {
        let w = Width::W8;
        let vals = words(&[100, 50, 75], w);
        let act = ActiveMask::from_bools(&[false, true, true]);
        assert_eq!(MaxMinUnit::reduce(ReduceOp::Max, &vals, &act, w).to_i64(w), 75);
    }

    #[test]
    fn empty_set_gives_identity() {
        let w = Width::W8;
        let vals = words(&[1], w);
        let none = ActiveMask::new(1);
        assert_eq!(MaxMinUnit::reduce(ReduceOp::Max, &vals, &none, w).to_i64(w), w.smin());
        assert_eq!(MaxMinUnit::reduce(ReduceOp::Min, &vals, &none, w).to_i64(w), w.smax());
    }

    #[test]
    fn falkoff_examples() {
        let w = Width::W8;
        let vals = words(&[5, 200, 13, 200], w);
        let all = [true; 4];
        assert_eq!(MaxMinUnit::falkoff_max(&vals, &all, w).unwrap().to_u32(), 200);
        assert_eq!(MaxMinUnit::falkoff_max(&vals, &[false; 4], w), None);
        let signed = words(&[-5, 3, -120], w);
        assert_eq!(MaxMinUnit::falkoff_max_signed(&signed, &[true; 3], w).unwrap().to_i64(w), 3);
    }

    proptest! {
        /// Falkoff (bit-serial) and the comparator tree agree on every
        /// input, for unsigned and signed orderings.
        #[test]
        fn falkoff_equals_tree(
            raw in proptest::collection::vec(0u32..=u32::MAX, 1..40),
            actives in proptest::collection::vec(any::<bool>(), 1..40),
        ) {
            for w in Width::ALL {
                let n = raw.len().min(actives.len());
                let vals: Vec<Word> = raw[..n].iter().map(|&v| Word::new(v, w)).collect();
                let act = &actives[..n];
                let mask = ActiveMask::from_bools(act);
                if act.iter().any(|&a| a) {
                    let tree_u = MaxMinUnit::reduce(ReduceOp::MaxU, &vals, &mask, w);
                    prop_assert_eq!(MaxMinUnit::falkoff_max(&vals, act, w), Some(tree_u));
                    let tree_s = MaxMinUnit::reduce(ReduceOp::Max, &vals, &mask, w);
                    prop_assert_eq!(MaxMinUnit::falkoff_max_signed(&vals, act, w), Some(tree_s));
                } else {
                    prop_assert_eq!(MaxMinUnit::falkoff_max(&vals, act, w), None);
                }
            }
        }

        /// The tree result equals the sequential fold (max/min are
        /// associative, so order cannot matter — this guards the identity
        /// handling).
        #[test]
        fn tree_equals_fold(
            raw in proptest::collection::vec(0u32..=u32::MAX, 1..40),
        ) {
            let w = Width::W16;
            let vals: Vec<Word> = raw.iter().map(|&v| Word::new(v, w)).collect();
            let act = ActiveMask::all(vals.len());
            let tree = MaxMinUnit::reduce(ReduceOp::Max, &vals, &act, w);
            let fold = vals.iter().fold(Word::from_i64(w.smin(), w), |a, &b| a.max_signed(b, w));
            prop_assert_eq!(tree, fold);
        }
    }
}

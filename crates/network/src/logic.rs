//! The logic unit: bitwise reduction of integers and flags, supporting AND
//! and OR. In hardware it is "a pipelined tree of OR gates with bypassable
//! inverters before and after the tree" — AND is computed as
//! `~(OR(~x))` by De Morgan. The functional model here implements both the
//! direct reduction and the De Morgan path and the tests check they agree.
//!
//! Integer reduction walks only the set bits of the packed active mask
//! (AND/OR are associative and commutative, so the fold equals the
//! hardware tree — no temporary leaf vector, no identity traffic); it
//! folds one group at a time and splits a large one across the host
//! workers (see the crate docs). Flag reduction (any/all) is a search:
//! the first-set span kernel of the machine's SIMD tier
//! ([`asc_pe::FirstSetKernel`]), selected once at construction, scans the
//! packed bitplane 8 words (512 PEs) per step, one call per occupied
//! 4096-lane group on the calling thread, and stops at the first hit.
//! Both skip every group with no active lane.

use asc_isa::{FlagReduceOp, ReduceOp, Width, Word};
use asc_pe::{select_first_set, ActiveMask, FirstSetKernel, SimdLevel};

/// Functional model of the logic reduction unit, carrying the first-set
/// kernel of the machine's SIMD tier for the flag reductions.
#[derive(Debug, Clone, Copy)]
pub struct LogicUnit {
    first_set: FirstSetKernel,
}

impl LogicUnit {
    /// The unit at a SIMD tier; the kernel is selected here, once.
    pub fn new(level: SimdLevel) -> LogicUnit {
        LogicUnit { first_set: select_first_set(level) }
    }

    /// Bitwise AND/OR over active PEs. Inactive PEs contribute the identity
    /// (all ones for AND, zero for OR).
    ///
    /// # Panics
    /// Panics if `op` is not `And` or `Or`.
    pub fn reduce(op: ReduceOp, values: &[Word], active: &ActiveMask, w: Width) -> Word {
        debug_assert_eq!(values.len(), active.lanes());
        assert!(matches!(op, ReduceOp::And | ReduceOp::Or), "logic unit only does AND/OR");
        // Bitwise AND/OR are associative and commutative, so the
        // hardware's tree order (AND being the OR tree with inverted
        // inputs and output) folds to the same word as a linear walk over
        // the set bits of the packed active mask — which skips 64
        // inactive lanes per word test instead of feeding the tree
        // identity leaves.
        // Words are width-truncated, so AND and OR stay within the width.
        // One fold per op keeps the lane loop branch-free (vectorizable).
        let id = op.identity(w).0;
        Word(match op {
            ReduceOp::Or => crate::fold_active(values, active, id, |a, v| a | v.0, |a, b| a | b),
            _ => crate::fold_active(values, active, id, |a, v| a & v.0, |a, b| a & b),
        })
    }

    /// Flag reduction: responder detection over a packed bitplane. `Any`
    /// holds when `flags & active` has a set bit; `All` fails at the first
    /// set bit of `!flags & active`, an *active* PE with the flag clear.
    /// Both are word-parallel and stop at the first hit — the tail
    /// invariant (mask bits beyond the last PE are zero) makes the partial
    /// last word fall out for free.
    pub fn reduce_flags(&self, op: FlagReduceOp, flags: &[u64], active: &ActiveMask) -> bool {
        debug_assert_eq!(flags.len(), active.words().len());
        let invert = match op {
            FlagReduceOp::Any => 0,
            FlagReduceOp::All => u64::MAX,
        };
        let hit = crate::occupied_flags(flags, active, 0..active.groups())
            .any(|(_, f, masks)| (self.first_set)(f, masks, invert).is_some());
        hit == (op == FlagReduceOp::Any)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn w8(v: u32) -> Word {
        Word::new(v, Width::W8)
    }

    fn pack(flags: &[bool]) -> Vec<u64> {
        ActiveMask::from_bools(flags).words().to_vec()
    }

    #[test]
    fn and_or_basic() {
        let vals = [w8(0b1100), w8(0b1010), w8(0b1111)];
        let all = ActiveMask::all(3);
        assert_eq!(LogicUnit::reduce(ReduceOp::And, &vals, &all, Width::W8), w8(0b1000));
        assert_eq!(LogicUnit::reduce(ReduceOp::Or, &vals, &all, Width::W8), w8(0b1111));
    }

    #[test]
    fn inactive_pes_are_transparent() {
        let vals = [w8(0x0f), w8(0xf0)];
        let first = ActiveMask::from_bools(&[true, false]);
        let second = ActiveMask::from_bools(&[false, true]);
        assert_eq!(LogicUnit::reduce(ReduceOp::And, &vals, &first, Width::W8), w8(0x0f));
        assert_eq!(LogicUnit::reduce(ReduceOp::Or, &vals, &second, Width::W8), w8(0xf0));
    }

    #[test]
    fn empty_active_set_yields_identity() {
        let vals = [w8(1), w8(2)];
        let none = ActiveMask::new(2);
        assert_eq!(LogicUnit::reduce(ReduceOp::And, &vals, &none, Width::W8), w8(0xff));
        assert_eq!(LogicUnit::reduce(ReduceOp::Or, &vals, &none, Width::W8), w8(0));
    }

    #[test]
    fn flag_reduction() {
        for u in SimdLevel::available().into_iter().map(LogicUnit::new) {
            let all3 = ActiveMask::all(3);
            assert!(u.reduce_flags(FlagReduceOp::Any, &pack(&[false, true, false]), &all3));
            let first = ActiveMask::from_bools(&[true, false]);
            assert!(!u.reduce_flags(FlagReduceOp::Any, &pack(&[false, true]), &first));
            assert!(u.reduce_flags(FlagReduceOp::All, &pack(&[true, false]), &first));
            let both = ActiveMask::all(2);
            assert!(!u.reduce_flags(FlagReduceOp::All, &pack(&[true, false]), &both));
            // empty active set
            let none = ActiveMask::new(1);
            assert!(!u.reduce_flags(FlagReduceOp::Any, &pack(&[true]), &none));
            assert!(u.reduce_flags(FlagReduceOp::All, &pack(&[false]), &none));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_logic_op() {
        LogicUnit::reduce(ReduceOp::Sum, &[], &ActiveMask::new(0), Width::W8);
    }

    proptest! {
        /// The De Morgan AND path agrees with a plain fold, and OR agrees
        /// with a plain fold, for any width.
        #[test]
        fn matches_sequential_fold(
            vals in proptest::collection::vec(0u32..=0xffff_ffff, 1..64),
            actives in proptest::collection::vec(any::<bool>(), 1..64),
        ) {
            for w in Width::ALL {
                let n = vals.len().min(actives.len());
                let words: Vec<Word> = vals[..n].iter().map(|&v| Word::new(v, w)).collect();
                let act = ActiveMask::from_bools(&actives[..n]);
                let and = LogicUnit::reduce(ReduceOp::And, &words, &act, w);
                let or = LogicUnit::reduce(ReduceOp::Or, &words, &act, w);
                let mut fand = w.mask();
                let mut for_ = 0u32;
                for i in 0..n {
                    if actives[i] {
                        fand &= words[i].to_u32();
                        for_ |= words[i].to_u32();
                    }
                }
                prop_assert_eq!(and.to_u32(), fand);
                prop_assert_eq!(or.to_u32(), for_);
            }
        }

        /// Word-parallel flag reduction equals the per-PE tree reduction it
        /// replaced.
        #[test]
        fn flags_match_sequential(
            flags in proptest::collection::vec(any::<bool>(), 0..200),
            actives in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let n = flags.len().min(actives.len());
            let mask = ActiveMask::from_bools(&actives[..n]);
            let packed = pack(&flags[..n]);
            for op in [FlagReduceOp::Any, FlagReduceOp::All] {
                let expect = (0..n)
                    .map(|i| if actives[i] { flags[i] } else { op.identity() })
                    .fold(op.identity(), |a, b| op.combine(a, b));
                for level in SimdLevel::available() {
                    prop_assert_eq!(LogicUnit::new(level).reduce_flags(op, &packed, &mask), expect);
                }
            }
        }
    }
}

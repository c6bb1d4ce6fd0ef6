//! The logic unit: bitwise reduction of integers and flags, supporting AND
//! and OR. In hardware it is "a pipelined tree of OR gates with bypassable
//! inverters before and after the tree" — AND is computed as
//! `~(OR(~x))` by De Morgan. The functional model here implements both the
//! direct reduction and the De Morgan path and the tests check they agree.
//!
//! Integer reduction walks only the set bits of the packed active mask
//! (AND/OR are associative and commutative, so the fold equals the
//! hardware tree — no temporary leaf vector, no identity traffic); flag
//! reduction operates word-parallel on packed bitplanes, 64 PEs per `u64`.
//! Both take one pass over [`ActiveMask::active_tiles`], which skips
//! every 4096-lane group with no active lane.

use asc_isa::{FlagReduceOp, ReduceOp, Width, Word};
use asc_pe::ActiveMask;

/// Functional model of the logic reduction unit.
pub struct LogicUnit;

impl LogicUnit {
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
        let id = op.identity(w);
        let combine = |a: Word, b: Word| match op {
            ReduceOp::Or => a.or(b),
            ReduceOp::And => Word::new(a.to_u32() & b.to_u32(), w),
            _ => unreachable!(),
        };
        let mut acc = id;
        for (wi, mw) in active.active_tiles() {
            let base = wi * 64;
            if mw == u64::MAX {
                for &v in &values[base..base + 64] {
                    acc = combine(acc, v);
                }
            } else {
                let mut m = mw;
                while m != 0 {
                    acc = combine(acc, values[base + m.trailing_zeros() as usize]);
                    m &= m - 1;
                }
            }
        }
        acc
    }

    /// Flag reduction: responder detection over a packed bitplane. `Any` is
    /// a nonzero test of `flags & active`; `All` asks whether any *active*
    /// PE has the flag clear. Both are word-parallel and short-circuit —
    /// the tail invariant (mask bits beyond the last PE are zero) makes
    /// the partial last word fall out for free.
    pub fn reduce_flags(op: FlagReduceOp, flags: &[u64], active: &ActiveMask) -> bool {
        debug_assert_eq!(flags.len(), active.words().len());
        let mut tiles = active.active_tiles();
        match op {
            FlagReduceOp::Any => tiles.any(|(t, a)| flags[t] & a != 0),
            FlagReduceOp::All => tiles.all(|(t, a)| !flags[t] & a == 0),
        }
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
        let all3 = ActiveMask::all(3);
        assert!(LogicUnit::reduce_flags(FlagReduceOp::Any, &pack(&[false, true, false]), &all3));
        let first = ActiveMask::from_bools(&[true, false]);
        assert!(!LogicUnit::reduce_flags(FlagReduceOp::Any, &pack(&[false, true]), &first));
        assert!(LogicUnit::reduce_flags(FlagReduceOp::All, &pack(&[true, false]), &first));
        let both = ActiveMask::all(2);
        assert!(!LogicUnit::reduce_flags(FlagReduceOp::All, &pack(&[true, false]), &both));
        // empty active set
        let none = ActiveMask::new(1);
        assert!(!LogicUnit::reduce_flags(FlagReduceOp::Any, &pack(&[true]), &none));
        assert!(LogicUnit::reduce_flags(FlagReduceOp::All, &pack(&[false]), &none));
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
                prop_assert_eq!(LogicUnit::reduce_flags(op, &packed, &mask), expect);
            }
        }
    }
}

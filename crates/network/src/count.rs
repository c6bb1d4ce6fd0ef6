//! The response counter: counts PEs whose responder bit is set. The ASC
//! model only requires a some/none test, but "due to the pipelined
//! implementation, the simpler counter would not have been any faster than
//! the exact one", so the unit produces an exact count via a pipelined
//! binary adder tree.
//!
//! With the flag file stored as packed bitplanes the functional model is a
//! population count of `flags & active`, 64 PEs per word, with no per-PE
//! loop and no allocation. The unit carries the popcount span kernel of
//! the machine's SIMD tier ([`asc_pe::PopcountKernel`], compiled with
//! AVX2 and POPCNT at the vector tiers), selected once at construction,
//! and calls it once per occupied 4096-lane group, skipping every group
//! with no active lane. The count brings its flag words, not its lanes,
//! to the worker pool's gate ([`asc_pe::workers::word_work`]), so below
//! 2²⁴ PEs it runs on the calling thread; above, each group is counted on
//! some host core and the groups' counts are summed in group order
//! ([`asc_pe::workers::fold_groups`]).

use asc_isa::{Width, Word};
use asc_pe::workers;
use asc_pe::{select_popcount, ActiveMask, PopcountKernel, SimdLevel};

/// Functional model of the response counter, carrying the popcount
/// kernel of the machine's SIMD tier.
#[derive(Debug, Clone, Copy)]
pub struct ResponseCounter {
    popcount: PopcountKernel,
}

impl ResponseCounter {
    /// The counter at a SIMD tier; the kernel is selected here, once.
    pub fn new(level: SimdLevel) -> ResponseCounter {
        ResponseCounter { popcount: select_popcount(level) }
    }

    /// Exact count of active PEs with the flag set, straight from the
    /// packed bitplane. The internal adder tree is wide enough for any PE
    /// count; the final result saturates at the machine word's unsigned
    /// maximum when it cannot be represented (documented simulator
    /// semantics — the prototype's PE counts never approach this).
    pub fn count(&self, flags: &[u64], active: &ActiveMask, w: Width) -> Word {
        debug_assert_eq!(flags.len(), active.words().len());
        // inlined into the serial call as well as into the split path
        let total = workers::fold_groups(
            active.groups(),
            workers::word_work(active),
            #[inline(always)]
            |groups| {
                crate::occupied_flags(flags, active, groups)
                    .map(|(_, f, masks)| (self.popcount)(f, masks))
                    .sum()
            },
            |a, b| a + b,
        );
        Word::new(total.min(w.mask() as u64) as u32, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicUnit;
    use asc_isa::FlagReduceOp;
    use proptest::prelude::*;

    /// Pack a boolean flag column the same way the PE array stores planes.
    fn pack(flags: &[bool]) -> Vec<u64> {
        ActiveMask::from_bools(flags).words().to_vec()
    }

    /// The counter at every tier the host can run.
    fn counters() -> Vec<ResponseCounter> {
        SimdLevel::available().into_iter().map(ResponseCounter::new).collect()
    }

    #[test]
    fn counts_exactly() {
        let flags = pack(&[true, false, true, true]);
        let active = ActiveMask::from_bools(&[true, true, true, false]);
        let any = |flags: &[u64], active| {
            LogicUnit::new(SimdLevel::detect()).reduce_flags(FlagReduceOp::Any, flags, active)
        };
        for c in counters() {
            assert_eq!(c.count(&flags, &active, Width::W16).to_u32(), 2);
        }
        assert!(any(&flags, &active));
        let none = ActiveMask::from_bools(&[true, false]);
        assert!(!any(&pack(&[false, true]), &none));
    }

    #[test]
    fn zero_responders() {
        let all = ActiveMask::all(8);
        let empty = ActiveMask::new(0);
        for c in counters() {
            assert_eq!(c.count(&pack(&[false; 8]), &all, Width::W8).to_u32(), 0);
            assert_eq!(c.count(&[], &empty, Width::W8).to_u32(), 0);
        }
    }

    #[test]
    fn saturates_at_word_max() {
        // 300 responders cannot be represented in 8 bits
        let flags = pack(&vec![true; 300]);
        let active = ActiveMask::all(300);
        for c in counters() {
            assert_eq!(c.count(&flags, &active, Width::W8).to_u32(), 255);
            assert_eq!(c.count(&flags, &active, Width::W16).to_u32(), 300);
        }
    }

    /// The walk a split count runs: each pool participant counts one group
    /// range `g..g + 1`, from any start, and the caller sums the counts.
    /// At 2¹⁸ + 70 lanes (65 groups, a ragged last one), counting every
    /// group alone sums to one pass over all of them and to a word loop,
    /// under dense, sparse, clustered and holed masks and a mask whose
    /// only occupancy bit is stale. At 2²⁴ + 70 lanes a dense count brings
    /// enough flag words to pass the gate, so it goes to the pool (which a
    /// concurrent test may hold, leaving the count to the caller).
    #[test]
    fn group_by_group_counts_sum_to_the_whole() {
        use asc_pe::workers::{word_work, GROUP_LANES, SPLIT_LANE_OPS};
        let reference = |flags: &[u64], active: &ActiveMask| -> u64 {
            flags.iter().zip(active.words()).map(|(f, m)| u64::from((f & m).count_ones())).sum()
        };
        let n: usize = (1 << 18) + 70;
        let flags = pack(&(0..n).map(|i| i * 7 % 5 != 0).collect::<Vec<_>>());
        let lanes =
            |f: fn(usize) -> bool| ActiveMask::from_bools(&(0..n).map(f).collect::<Vec<_>>());
        let mut stale = ActiveMask::new(n);
        stale.set(50_000, true);
        stale.set(50_000, false);
        let masks = [
            ("dense", ActiveMask::all(n)),
            ("sparse", lanes(|i| i % 97 == 0 || i == (1 << 18) + 69)),
            ("cluster", lanes(|i| (40_000..41_024).contains(&i))),
            ("holed", lanes(|i| i / GROUP_LANES != 3 && i % 5 != 1)),
            ("stale", stale),
        ];
        for c in counters() {
            for (name, active) in &masks {
                let walk = |groups| -> u64 {
                    crate::occupied_flags(&flags, active, groups)
                        .map(|(_, f, m)| (c.popcount)(f, m))
                        .sum()
                };
                let whole = walk(0..active.groups());
                let by_group: u64 = (0..active.groups()).map(|g| walk(g..g + 1)).sum();
                assert_eq!(by_group, whole, "{c:?} {name}");
                assert_eq!(whole, reference(&flags, active), "{c:?} {name}");
                assert_eq!(u64::from(c.count(&flags, active, Width::W32).to_u32()), whole);
            }
        }
        let n: usize = (1 << 24) + 70;
        let flags: Vec<u64> =
            (0..n.div_ceil(64) as u64).map(|t| t.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let dense = ActiveMask::all(n);
        assert!(word_work(&dense) >= SPLIT_LANE_OPS, "a 2^24-lane count reaches the gate");
        let want = reference(&flags, &dense);
        for c in counters() {
            assert_eq!(u64::from(c.count(&flags, &dense, Width::W32).to_u32()), want, "{c:?}");
        }
    }

    proptest! {
        /// The word-parallel popcount matches a sequential per-PE count.
        #[test]
        fn matches_popcount(
            flags in proptest::collection::vec(any::<bool>(), 0..200),
            active in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let n = flags.len().min(active.len());
            let expect = (0..n).filter(|&i| flags[i] && active[i]).count() as u32;
            let mask = ActiveMask::from_bools(&active[..n]);
            let packed = pack(&flags[..n]);
            for c in counters() {
                prop_assert_eq!(c.count(&packed, &mask, Width::W32).to_u32(), expect);
            }
            let logic = LogicUnit::new(SimdLevel::detect());
            prop_assert_eq!(logic.reduce_flags(FlagReduceOp::Any, &packed, &mask), expect > 0);
        }
    }
}

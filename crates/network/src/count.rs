//! The response counter: counts PEs whose responder bit is set. The ASC
//! model only requires a some/none test, but "due to the pipelined
//! implementation, the simpler counter would not have been any faster than
//! the exact one", so the unit produces an exact count via a pipelined
//! binary adder tree.
//!
//! With the flag file stored as packed bitplanes the functional model is a
//! handful of `count_ones` instructions: each `u64` word ANDs the
//! responder plane with the active mask and popcounts 64 PEs at once —
//! no per-PE loop and no allocation. The pass skips every 4096-lane group
//! with no active lane; a count over enough occupied groups to pass the
//! worker pool's gate counts each group on some host core and sums the
//! groups' counts in group order ([`asc_pe::workers::fold_groups`]).

use asc_isa::{Width, Word};
use asc_pe::workers;
use asc_pe::ActiveMask;

/// Functional model of the response counter.
pub struct ResponseCounter;

impl ResponseCounter {
    /// Exact count of active PEs with the flag set, straight from the
    /// packed bitplane. The internal adder tree is wide enough for any PE
    /// count; the final result saturates at the machine word's unsigned
    /// maximum when it cannot be represented (documented simulator
    /// semantics — the prototype's PE counts never approach this).
    pub fn count(flags: &[u64], active: &ActiveMask, w: Width) -> Word {
        debug_assert_eq!(flags.len(), active.words().len());
        let lane_ops = workers::mask_work(active);
        // inlined into the serial call as well as into the split path
        let total = workers::fold_groups(
            active.groups(),
            lane_ops,
            #[inline(always)]
            |groups| {
                active
                    .group_tiles(groups)
                    .map(|(t, a)| u64::from((flags[t] & a).count_ones()))
                    .sum()
            },
            |a, b| a + b,
        );
        Word::new(total.min(w.mask() as u64) as u32, w)
    }

    /// The some/none binary test the ASC model minimally requires: any
    /// word of the plane with a responder under the mask.
    pub fn any(flags: &[u64], active: &ActiveMask) -> bool {
        active.active_tiles().any(|(t, a)| flags[t] & a != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pack a boolean flag column the same way the PE array stores planes.
    fn pack(flags: &[bool]) -> Vec<u64> {
        ActiveMask::from_bools(flags).words().to_vec()
    }

    #[test]
    fn counts_exactly() {
        let flags = pack(&[true, false, true, true]);
        let active = ActiveMask::from_bools(&[true, true, true, false]);
        assert_eq!(ResponseCounter::count(&flags, &active, Width::W16).to_u32(), 2);
        assert!(ResponseCounter::any(&flags, &active));
        let none = ActiveMask::from_bools(&[true, false]);
        assert!(!ResponseCounter::any(&pack(&[false, true]), &none));
    }

    #[test]
    fn zero_responders() {
        let all = ActiveMask::all(8);
        assert_eq!(ResponseCounter::count(&pack(&[false; 8]), &all, Width::W8).to_u32(), 0);
        let empty = ActiveMask::new(0);
        assert_eq!(ResponseCounter::count(&[], &empty, Width::W8).to_u32(), 0);
    }

    #[test]
    fn saturates_at_word_max() {
        // 300 responders cannot be represented in 8 bits
        let flags = pack(&vec![true; 300]);
        let active = ActiveMask::all(300);
        assert_eq!(ResponseCounter::count(&flags, &active, Width::W8).to_u32(), 255);
        assert_eq!(ResponseCounter::count(&flags, &active, Width::W16).to_u32(), 300);
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
            let got = ResponseCounter::count(&packed, &mask, Width::W32);
            prop_assert_eq!(got.to_u32(), expect);
            prop_assert_eq!(ResponseCounter::any(&packed, &mask), expect > 0);
        }
    }
}

//! The multiple response resolver (MRR): identifies the *first* responder
//! in a set, implementing the sequential and single selection modes of
//! responder resolution. Unlike the other reduction units its output is a
//! **parallel** value: a one-hot flag vector marking the first active PE
//! whose input flag is set.
//!
//! In hardware the MRR is a pipelined parallel prefix network (latency
//! ⌈log₂ p⌉). Two implementations are provided: the specification
//! (`resolve_naive`: a linear scan) and the parallel-prefix network the
//! hardware actually builds (`resolve`: Kogge–Stone style inclusive
//! prefix-OR, then `out[i] = in[i] & !prefix[i-1]`). The property tests
//! prove them equivalent.
//!
//! The executor's path is [`MultipleResponseResolver::first_responder`]:
//! the first-set span kernel of the machine's SIMD tier
//! ([`asc_pe::FirstSetKernel`]), selected once at construction, scans the
//! occupied 4096-lane groups lowest first on the calling thread, 8 flag
//! words per step, and stops at the first group with a responder.

use asc_pe::{select_first_set, ActiveMask, FirstSetKernel, SimdLevel};

/// Functional model of the multiple response resolver, carrying the
/// first-set kernel of the machine's SIMD tier.
#[derive(Debug, Clone, Copy)]
pub struct MultipleResponseResolver {
    first_set: FirstSetKernel,
}

impl MultipleResponseResolver {
    /// The resolver at a SIMD tier; the kernel is selected here, once.
    pub fn new(level: SimdLevel) -> MultipleResponseResolver {
        MultipleResponseResolver { first_set: select_first_set(level) }
    }

    /// Bitplane fast path: index of the first responder under the mask,
    /// straight from the packed flag plane: the lowest set bit of `flags &
    /// active`, found group by group. This is the path the executor uses
    /// — the one-hot output vector of the hardware is reconstructed by the
    /// PE array when (and only when) an instruction stores it. Every
    /// 4096-lane group with no active lane is skipped on its occupancy
    /// bit.
    pub fn first_responder(&self, flags: &[u64], active: &ActiveMask) -> Option<usize> {
        debug_assert_eq!(flags.len(), active.words().len());
        crate::occupied_flags(flags, active, 0..active.groups())
            .find_map(|(first, f, masks)| (self.first_set)(f, masks, 0).map(|i| first * 64 + i))
    }

    /// Parallel-prefix implementation, as the hardware computes it.
    pub fn resolve(flags: &[bool], active: &[bool]) -> Vec<bool> {
        let n = flags.len();
        debug_assert_eq!(active.len(), n);
        // effective responder inputs
        let resp: Vec<bool> = (0..n).map(|i| flags[i] && active[i]).collect();
        // Kogge-Stone inclusive prefix OR
        let mut prefix = resp.clone();
        let mut dist = 1;
        while dist < n {
            let prev = prefix.clone();
            for i in dist..n {
                prefix[i] = prev[i] || prev[i - dist];
            }
            dist *= 2;
        }
        (0..n).map(|i| resp[i] && (i == 0 || !prefix[i - 1])).collect()
    }

    /// Specification: linear scan for the first responder.
    pub fn resolve_naive(flags: &[bool], active: &[bool]) -> Vec<bool> {
        let n = flags.len();
        let mut out = vec![false; n];
        for i in 0..n {
            if flags[i] && active[i] {
                out[i] = true;
                break;
            }
        }
        out
    }

    /// Index of the first responder, if any (host-side convenience).
    pub fn first_index(flags: &[bool], active: &[bool]) -> Option<usize> {
        (0..flags.len()).find(|&i| flags[i] && active[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn picks_first() {
        let flags = [false, true, true, false, true];
        let active = [true; 5];
        let out = MultipleResponseResolver::resolve(&flags, &active);
        assert_eq!(out, vec![false, true, false, false, false]);
        assert_eq!(MultipleResponseResolver::first_index(&flags, &active), Some(1));
    }

    #[test]
    fn mask_excludes_earlier_responders() {
        let flags = [true, true, true];
        let active = [false, false, true];
        let out = MultipleResponseResolver::resolve(&flags, &active);
        assert_eq!(out, vec![false, false, true]);
    }

    #[test]
    fn no_responders() {
        let out = MultipleResponseResolver::resolve(&[false; 4], &[true; 4]);
        assert_eq!(out, vec![false; 4]);
        assert_eq!(MultipleResponseResolver::first_index(&[false; 4], &[true; 4]), None);
    }

    #[test]
    fn empty_array() {
        assert!(MultipleResponseResolver::resolve(&[], &[]).is_empty());
    }

    #[test]
    fn single_pe() {
        assert_eq!(MultipleResponseResolver::resolve(&[true], &[true]), vec![true]);
        assert_eq!(MultipleResponseResolver::resolve(&[true], &[false]), vec![false]);
    }

    proptest! {
        /// The parallel-prefix network equals the linear-scan
        /// specification on all inputs.
        #[test]
        fn prefix_equals_naive(
            flags in proptest::collection::vec(any::<bool>(), 0..200),
            active in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let n = flags.len().min(active.len());
            prop_assert_eq!(
                MultipleResponseResolver::resolve(&flags[..n], &active[..n]),
                MultipleResponseResolver::resolve_naive(&flags[..n], &active[..n])
            );
        }

        /// The bitplane fast path finds the same PE as the linear-scan
        /// specification over the boolean vectors, at every tier.
        #[test]
        fn bitplane_path_equals_first_index(
            flags in proptest::collection::vec(any::<bool>(), 0..200),
            active in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let n = flags.len().min(active.len());
            let packed = ActiveMask::from_bools(&flags[..n]).words().to_vec();
            let mask = ActiveMask::from_bools(&active[..n]);
            for level in SimdLevel::available() {
                prop_assert_eq!(
                    MultipleResponseResolver::new(level).first_responder(&packed, &mask),
                    MultipleResponseResolver::first_index(&flags[..n], &active[..n])
                );
            }
        }

        /// The output is always one-hot or all-zero, and the hot bit (if
        /// any) is a responder.
        #[test]
        fn output_is_one_hot(
            flags in proptest::collection::vec(any::<bool>(), 1..200),
        ) {
            let active = vec![true; flags.len()];
            let out = MultipleResponseResolver::resolve(&flags, &active);
            let hot: Vec<usize> =
                (0..out.len()).filter(|&i| out[i]).collect();
            prop_assert!(hot.len() <= 1);
            if let Some(&i) = hot.first() {
                prop_assert!(flags[i]);
                prop_assert!(flags[..i].iter().all(|&f| !f));
            } else {
                prop_assert!(flags.iter().all(|&f| !f));
            }
        }
    }
}

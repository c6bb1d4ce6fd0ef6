//! Tree geometry and the canonical binary-tree reduction order.
//!
//! [`tree_reduce`] is the definition of the order, kept as the test oracle:
//! the sum unit computes the same tree tile by tile (see
//! [`crate::sum`]), and its tests compare the two on saturating values.

/// Depth of a k-ary tree with `leaves` leaves: ⌈log_k leaves⌉. A single
/// leaf needs no tree (depth 0).
pub fn tree_depth(leaves: usize, arity: usize) -> u64 {
    assert!(arity >= 2);
    if leaves <= 1 {
        return 0;
    }
    let mut depth = 0u64;
    let mut reach = 1usize;
    while reach < leaves {
        reach = reach.saturating_mul(arity);
        depth += 1;
    }
    depth
}

/// Latency of a binary reduction tree: ⌈log₂ p⌉ cycles.
pub fn reduction_latency(num_pes: usize) -> u64 {
    tree_depth(num_pes, 2)
}

/// Reduce a slice with a binary tree over adjacent pairs, level by level —
/// the association order of the hardware adder/comparator trees.
///
/// This matters: the saturating sum is **not associative**, so the result
/// is *defined* as the value produced by this tree shape. The root splits
/// its `n` leaves after the largest power of two below `n`, so the tree
/// equals the perfect tree over the leaves padded with the identity to
/// the next power of two — the form [`crate::SumUnit`] computes.
pub fn tree_reduce<T: Copy>(values: &[T], identity: T, combine: impl Fn(T, T) -> T) -> T {
    if values.is_empty() {
        return identity;
    }
    let mut level: Vec<T> = values.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            next.push(if pair.len() == 2 { combine(pair[0], pair[1]) } else { pair[0] });
        }
        level = next;
    }
    level[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_edge_cases() {
        assert_eq!(tree_depth(1, 2), 0);
        assert_eq!(tree_depth(2, 2), 1);
        assert_eq!(tree_depth(3, 2), 2);
        assert_eq!(tree_depth(16, 4), 2);
        assert_eq!(tree_depth(17, 4), 3);
        assert_eq!(tree_depth(65536, 2), 16);
    }

    #[test]
    fn tree_reduce_matches_fold_for_associative_op() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tree_reduce(&v, 0, |a, b| a + b), v.iter().sum());
        assert_eq!(tree_reduce(&v, u64::MAX, u64::min), 1);
        assert_eq!(tree_reduce::<u64>(&[], 7, |a, b| a + b), 7);
        assert_eq!(tree_reduce(&[42u64], 0, |a, b| a + b), 42);
    }

    #[test]
    fn tree_reduce_association_order() {
        // Non-associative combine exposes the order: pairwise adjacent,
        // level by level, odd element passes through.
        let order = tree_reduce(&["a", "b", "c"], "", |a, b| {
            Box::leak(format!("({a}{b})").into_boxed_str())
        });
        assert_eq!(order, "((ab)c)");
        let order = tree_reduce(&["a", "b", "c", "d", "e"], "", |a, b| {
            Box::leak(format!("({a}{b})").into_boxed_str())
        });
        assert_eq!(order, "(((ab)(cd))e)");
    }
}

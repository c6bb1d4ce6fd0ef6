//! Tree geometry, the canonical binary-tree reduction order, and the
//! structural pipeline primitives ([`DelayLine`], [`PipelinedUnit`]).
//!
//! [`tree_reduce`] is the definition of the order, kept as the test oracle:
//! the sum unit computes the same tree tile by tile (see
//! [`crate::sum`]), and its tests compare the two on saturating values.

use std::collections::VecDeque;

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

/// A fixed-latency, fully pipelined delay line: the structural model of a
/// pipelined tree. One value may enter per cycle ([`DelayLine::tick`]); it
/// emerges `latency` ticks later. With `latency == 0` the input appears at
/// the output in the same tick (a wire).
#[derive(Debug, Clone)]
pub struct DelayLine<T> {
    latency: u64,
    /// In-flight values with the tick at which they emerge.
    inflight: VecDeque<(u64, T)>,
    now: u64,
}

impl<T> DelayLine<T> {
    /// Create a delay line with the given latency in ticks.
    pub fn new(latency: u64) -> DelayLine<T> {
        DelayLine { latency, inflight: VecDeque::new(), now: 0 }
    }

    /// The configured latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Advance one cycle, optionally inserting a value, and return the
    /// value (if any) that emerges this cycle.
    pub fn tick(&mut self, input: Option<T>) -> Option<T> {
        if let Some(v) = input {
            self.inflight.push_back((self.now + self.latency, v));
        }
        let out = match self.inflight.front() {
            Some(&(due, _)) if due <= self.now => self.inflight.pop_front().map(|(_, v)| v),
            _ => None,
        };
        self.now += 1;
        out
    }

    /// Number of values currently in flight.
    pub fn occupancy(&self) -> usize {
        self.inflight.len()
    }

    /// True if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }
}

/// A pipelined functional unit: a [`DelayLine`] that also applies a
/// function when the value enters — the structural model of a pipelined
/// reduction tree (the combine happens *inside* the pipe; only the timing
/// is observable).
#[derive(Debug, Clone)]
pub struct PipelinedUnit<I, O> {
    line: DelayLine<O>,
    f: fn(&I) -> O,
}

impl<I, O> PipelinedUnit<I, O> {
    /// Create with a latency and the unit's function.
    pub fn new(latency: u64, f: fn(&I) -> O) -> Self {
        PipelinedUnit { line: DelayLine::new(latency), f }
    }

    /// Advance one cycle, optionally starting an operation; returns the
    /// result completing this cycle, if any.
    pub fn tick(&mut self, input: Option<&I>) -> Option<O> {
        let mapped = input.map(|i| (self.f)(i));
        self.line.tick(mapped)
    }

    /// Operations in flight.
    pub fn occupancy(&self) -> usize {
        self.line.occupancy()
    }

    /// Latency in cycles.
    pub fn latency(&self) -> u64 {
        self.line.latency()
    }
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

    #[test]
    fn delay_line_latency_and_rate() {
        let mut d: DelayLine<u32> = DelayLine::new(3);
        // one value per tick in, each emerges exactly 3 ticks later
        let mut outs = Vec::new();
        for t in 0..10u32 {
            let out = d.tick(if t < 5 { Some(t) } else { None });
            outs.push(out);
        }
        assert_eq!(
            outs,
            vec![None, None, None, Some(0), Some(1), Some(2), Some(3), Some(4), None, None]
        );
        assert!(d.is_empty());
    }

    #[test]
    fn zero_latency_is_a_wire() {
        let mut d: DelayLine<u32> = DelayLine::new(0);
        assert_eq!(d.tick(Some(9)), Some(9));
        assert_eq!(d.tick(None), None);
    }

    #[test]
    fn full_occupancy_sustained() {
        // initiation rate 1/cycle: the pipe sustains `latency` in-flight ops
        let mut d: DelayLine<u64> = DelayLine::new(8);
        for t in 0..100u64 {
            let out = d.tick(Some(t));
            if t >= 8 {
                assert_eq!(out, Some(t - 8));
                assert_eq!(d.occupancy(), 8);
            }
        }
    }

    #[test]
    fn pipelined_unit_applies_function() {
        let mut u: PipelinedUnit<Vec<u32>, u32> =
            PipelinedUnit::new(2, |v: &Vec<u32>| v.iter().sum());
        assert_eq!(u.tick(Some(&vec![1, 2, 3])), None);
        assert_eq!(u.tick(None), None);
        assert_eq!(u.tick(None), Some(6));
    }
}

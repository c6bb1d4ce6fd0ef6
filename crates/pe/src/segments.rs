//! Segmentation of the PE array: the granularity of its commit map.
//!
//! A *segment* is a contiguous run of whole 64-PE tiles. Register planes,
//! flag bitplanes and local-memory rows are committed (first touched) per
//! segment: the segment is the granularity of the array's commit map,
//! and nothing else reads it. Plane sweeps and reductions skip inactive
//! lanes on the active mask's 4096-lane occupancy groups and walk the
//! same tiles in the same order at every segment count, and which host
//! core runs which lanes is the worker pool's home ranges
//! ([`crate::workers`]), not the segments.
//!
//! Segmentation is an execution strategy only:
//!
//! * every segment except possibly the last spans `tiles_per_seg` tiles,
//!   and `tiles_per_seg` is a **power of two**;
//! * the last segment may be ragged (fewer tiles, and its last tile may
//!   cover fewer than 64 lanes).
//!
//! The segment count is capped at [`MAX_SEGMENTS`], which bounds the
//! commit map's bits per plane.

use crate::bitmask::{words_for, BITS_PER_WORD};

/// Upper bound on the number of segments of one array.
pub const MAX_SEGMENTS: usize = 256;

/// Tiles per segment when the segment count is chosen automatically:
/// 64 tiles = 4096 lanes, one occupancy group of the active mask, so a
/// commit-map bit covers the same lanes as an occupancy bit.
pub const AUTO_TILES_PER_SEG: usize = 64;

/// How the PE array is sliced into segments, the units of its commit map.
///
/// Constructed once per machine from the configured segment count and
/// carried by the array's config. Purely an execution strategy: results,
/// cycle counts, stats and profiles are bit-identical at every count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentGeometry {
    num_pes: usize,
    tiles: usize,
    tiles_per_seg: usize,
    count: usize,
}

impl SegmentGeometry {
    /// Geometry for `num_pes` lanes split into `requested` segments.
    ///
    /// `requested == 0` picks the segment size automatically
    /// ([`AUTO_TILES_PER_SEG`] tiles per segment); `requested == 1` forces
    /// the monolithic single-segment layout. Any other request is rounded
    /// so that segments span a power-of-two number of tiles and the count
    /// stays within [`MAX_SEGMENTS`]; small arrays collapse to a single
    /// segment.
    pub fn new(num_pes: usize, requested: usize) -> SegmentGeometry {
        assert!(num_pes >= 1, "a PE array needs at least one PE");
        let tiles = words_for(num_pes);
        let mut tiles_per_seg = match requested {
            0 => AUTO_TILES_PER_SEG,
            1 => tiles,
            s => tiles.div_ceil(s).next_power_of_two(),
        };
        while tiles.div_ceil(tiles_per_seg) > MAX_SEGMENTS {
            tiles_per_seg *= 2;
        }
        let count = tiles.div_ceil(tiles_per_seg).max(1);
        SegmentGeometry { num_pes, tiles, tiles_per_seg, count }
    }

    /// The single-segment (flat) layout.
    pub fn monolithic(num_pes: usize) -> SegmentGeometry {
        SegmentGeometry::new(num_pes, 1)
    }

    /// Total lanes covered.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Number of segments.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Tiles (64-lane groups / plane words) per full segment.
    pub fn tiles_per_seg(&self) -> usize {
        self.tiles_per_seg
    }

    /// Lanes per full segment.
    pub fn lanes_per_seg(&self) -> usize {
        self.tiles_per_seg * BITS_PER_WORD
    }

    /// Tile (= plane-word) index range of segment `s`; the last segment
    /// may be shorter.
    pub fn seg_tile_range(&self, s: usize) -> core::ops::Range<usize> {
        debug_assert!(s < self.count);
        let start = s * self.tiles_per_seg;
        start..self.tiles.min(start + self.tiles_per_seg)
    }

    /// Lane index range of segment `s`; the last segment may be ragged.
    pub fn seg_lane_range(&self, s: usize) -> core::ops::Range<usize> {
        debug_assert!(s < self.count);
        let start = s * self.lanes_per_seg();
        start..self.num_pes.min(start + self.lanes_per_seg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_geometry_scales() {
        let g = SegmentGeometry::new(16, 0);
        assert_eq!(g.count(), 1, "small arrays stay monolithic");

        let g = SegmentGeometry::new(1 << 20, 0);
        assert_eq!(g.count(), 256);
        assert_eq!(g.tiles_per_seg(), 64);
        assert_eq!(g.lanes_per_seg(), 4096);
        assert_eq!(g.seg_lane_range(0), 0..4096);
        assert_eq!(g.seg_lane_range(255), 255 * 4096..(1 << 20));
    }

    #[test]
    fn requested_count_rounds_to_power_of_two_tiles() {
        // 100 PEs = 2 tiles, 4 segments requested -> 1 tile per segment,
        // 2 segments, ragged last (lanes 64..100).
        let g = SegmentGeometry::new(100, 4);
        assert_eq!(g.tiles_per_seg(), 1);
        assert_eq!(g.count(), 2);
        assert_eq!(g.seg_lane_range(0), 0..64);
        assert_eq!(g.seg_lane_range(1), 64..100);

        // 3 segments over 8 tiles rounds up to 4-tile segments (power of
        // two), giving 2 segments.
        let g = SegmentGeometry::new(512, 3);
        assert_eq!(g.tiles_per_seg(), 4);
        assert_eq!(g.count(), 2);
        assert!(g.tiles_per_seg().is_power_of_two());
    }

    #[test]
    fn count_is_capped() {
        let g = SegmentGeometry::new(1 << 20, 1 << 14);
        assert!(g.count() <= MAX_SEGMENTS);
        assert!(g.tiles_per_seg().is_power_of_two());
    }

    #[test]
    fn monolithic_covers_everything() {
        let g = SegmentGeometry::monolithic(70);
        assert_eq!(g.count(), 1);
        assert_eq!(g.seg_tile_range(0), 0..2);
        assert_eq!(g.seg_lane_range(0), 0..70);
    }

    #[test]
    fn segments_partition_the_lanes() {
        for &n in &[1usize, 63, 64, 65, 4096, 4097, 70_000, (1 << 18) + 13] {
            for &req in &[0usize, 1, 2, 3, 5, 8, 64] {
                let g = SegmentGeometry::new(n, req);
                let mut next = 0;
                for s in 0..g.count() {
                    let lanes = g.seg_lane_range(s);
                    assert_eq!(lanes.start, next, "n={n} req={req} s={s}");
                    assert!(!lanes.is_empty(), "n={n} req={req} s={s}");
                    let tiles = g.seg_tile_range(s);
                    assert_eq!(tiles.start * 64, lanes.start);
                    assert_eq!(tiles.end, words_for(n).min(tiles.start + g.tiles_per_seg()));
                    next = lanes.end;
                }
                assert_eq!(next, n, "n={n} req={req}: segments must cover all lanes");
            }
        }
    }
}

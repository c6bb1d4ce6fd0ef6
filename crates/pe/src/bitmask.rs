//! Packed one-bit-per-PE planes: the representation of the flag file and
//! of the active mask in the structure-of-arrays PE array.
//!
//! A *plane* is a `[u64]` with PE `i`'s bit at `plane[i / 64] & (1 << (i %
//! 64))`. Every plane maintains the **tail invariant**: bits at lane
//! indices `>= lanes` are zero, so whole-word operations (population
//! count, any/all tests, word-parallel flag logic) need no special casing
//! of the last word.
//!
//! [`ActiveMask`] is the packed set of PEs an instruction runs on. A
//! machine keeps two: the all-active mask, built once at construction and
//! read by every unmasked instruction, and a buffer that every `?pf`
//! instruction refills from its flag plane ([`ActiveMask::copy_from_plane`])
//! — no per-instruction allocation, and no refill of the all-active
//! pattern after a masked instruction. Dense mask words (`u64::MAX`) drive
//! branch-free 64-lane loops; sparse words are walked with trailing-zeros
//! iteration, and so are the occupied 4096-PE groups, so a fully-masked-off
//! stretch of up to 64 groups costs one word test ([`ActiveMask::occupied`],
//! [`ActiveMask::active_tiles`]).

/// Lanes per plane word.
pub const BITS_PER_WORD: usize = 64;

/// Plane words summarized by one occupancy bit of an [`ActiveMask`]:
/// 64 words = 4096 lanes, one auto-sized segment tile group (see
/// [`crate::segments::AUTO_TILES_PER_SEG`]).
pub const OCC_GROUP_WORDS: usize = 64;

/// Number of `u64` words needed for a plane of `lanes` bits.
#[inline]
pub const fn words_for(lanes: usize) -> usize {
    lanes.div_ceil(BITS_PER_WORD)
}

/// Mask selecting the valid bits of the *last* word of a `lanes`-bit
/// plane (all ones when the plane ends on a word boundary).
#[inline]
pub const fn tail_mask(lanes: usize) -> u64 {
    if lanes.is_multiple_of(BITS_PER_WORD) {
        u64::MAX
    } else {
        (1u64 << (lanes % BITS_PER_WORD)) - 1
    }
}

/// Call `f(lane)` for every set bit of `word`, lowest first, with `base`
/// added to each bit index — the trailing-zeros scan used to skip
/// inactive PEs without testing them individually.
#[inline]
pub fn for_each_set(word: u64, base: usize, mut f: impl FnMut(usize)) {
    let mut m = word;
    while m != 0 {
        f(base + m.trailing_zeros() as usize);
        m &= m - 1;
    }
}

/// The lowest set bit of the bitset `bits` in `from..end`, if any: a
/// trailing-zeros scan that skips 64 clear bits per word. The one walk over
/// the occupancy summary, and over a commit map's marked planes.
#[inline]
pub(crate) fn next_set(bits: &[u64], from: usize, end: usize) -> Option<usize> {
    let mut w = from / BITS_PER_WORD;
    let mut rest = *bits.get(w)? & (u64::MAX << (from % BITS_PER_WORD));
    while rest == 0 {
        w += 1;
        if w * BITS_PER_WORD >= end {
            return None;
        }
        rest = *bits.get(w)?;
    }
    let i = w * BITS_PER_WORD + rest.trailing_zeros() as usize;
    (i < end).then_some(i)
}

/// The set of PEs participating in a masked instruction, as a packed
/// bitset; none of the fill or query operations allocate. The mask also
/// keeps a conservative *occupancy summary*: one bit per
/// [`OCC_GROUP_WORDS`]-word group, clear only when every word of the
/// group is zero. Every plane sweep and reduction walks the mask a group
/// at a time ([`ActiveMask::occupied`], [`ActiveMask::active_tiles`]),
/// visiting the set group bits by trailing zeros instead of scanning 64
/// words per group, so up to 64 fully-inactive groups cost one word test
/// at every segment count. The summary is exact after the bulk fills
/// ([`ActiveMask::set_all`], [`ActiveMask::clear_all`],
/// [`ActiveMask::copy_from_plane`] — the executor's paths) and degrades
/// conservatively (bit left set) when single lanes are cleared. A clear
/// bit is never stale, which is what lets a refill skip the groups whose
/// bit is clear.
#[derive(Debug, Clone)]
pub struct ActiveMask {
    words: Vec<u64>,
    occ: Vec<u64>,
    lanes: usize,
}

// the occupancy summary is a cache, not state: masks compare by lanes
impl PartialEq for ActiveMask {
    fn eq(&self, other: &ActiveMask) -> bool {
        self.lanes == other.lanes && self.words == other.words
    }
}

impl Eq for ActiveMask {}

/// Occupancy words needed to summarize `nwords` plane words.
fn occ_words_for(nwords: usize) -> usize {
    words_for(nwords.div_ceil(OCC_GROUP_WORDS))
}

impl ActiveMask {
    /// An all-inactive mask over `lanes` PEs.
    pub fn new(lanes: usize) -> ActiveMask {
        let nwords = words_for(lanes);
        ActiveMask { words: vec![0; nwords], occ: vec![0; occ_words_for(nwords)], lanes }
    }

    /// An all-active mask over `lanes` PEs.
    pub fn all(lanes: usize) -> ActiveMask {
        let mut m = ActiveMask::new(lanes);
        m.set_all();
        m
    }

    /// Build from a `bool` per lane (host/test convenience).
    pub fn from_bools(active: &[bool]) -> ActiveMask {
        let mut m = ActiveMask::new(active.len());
        for (i, &a) in active.iter().enumerate() {
            if a {
                m.words[i / BITS_PER_WORD] |= 1u64 << (i % BITS_PER_WORD);
            }
        }
        m.rebuild_occupancy();
        m
    }

    /// Number of lanes (PEs) the mask covers.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The packed words, one bit per lane (tail bits zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Make every lane active.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        if let Some(last) = self.words.last_mut() {
            *last &= tail_mask(self.lanes);
        }
        self.occ.fill(u64::MAX);
        let groups = self.words.len().div_ceil(OCC_GROUP_WORDS);
        if let Some(last) = self.occ.last_mut() {
            *last &= tail_mask(groups.max(1));
        }
    }

    /// Make every lane inactive.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
        self.occ.fill(0);
    }

    /// Refill from a flag plane of the same geometry (the `?pf` masked
    /// execution path: the mask *is* the flag bitplane, copied so the
    /// instruction may overwrite the flag it is masked by), in one read
    /// pass over the plane. A group with a set bit is copied and marked
    /// occupied. An empty group is zeroed only when its occupancy bit was
    /// set: a clear bit already guarantees zero words. A refill from a
    /// sparse plane therefore writes little more than the groups it keeps
    /// and the ones the previous fill kept, and the summary comes out
    /// exact.
    ///
    /// # Panics
    /// Panics if `plane` is not one word per word of the mask.
    pub fn copy_from_plane(&mut self, plane: &[u64]) {
        assert_eq!(plane.len(), self.words.len(), "a mask refills from a plane of its geometry");
        for (g, src) in plane.chunks(OCC_GROUP_WORDS).enumerate() {
            let (occ, bit) = (&mut self.occ[g / BITS_PER_WORD], 1u64 << (g % BITS_PER_WORD));
            let dst = &mut self.words[g * OCC_GROUP_WORDS..][..src.len()];
            if src.iter().fold(0, |any, &w| any | w) != 0 {
                dst.copy_from_slice(src);
                *occ |= bit;
            } else if *occ & bit != 0 {
                dst.fill(0);
                *occ &= !bit;
            }
        }
    }

    /// Recompute the occupancy summary exactly from the words.
    pub fn rebuild_occupancy(&mut self) {
        self.occ.fill(0);
        for (g, group) in self.words.chunks(OCC_GROUP_WORDS).enumerate() {
            if group.iter().any(|&w| w != 0) {
                self.occ[g / BITS_PER_WORD] |= 1u64 << (g % BITS_PER_WORD);
            }
        }
    }

    /// Set or clear one lane. Clearing leaves the occupancy summary
    /// conservative (the group bit stays set).
    pub fn set(&mut self, lane: usize, active: bool) {
        debug_assert!(lane < self.lanes);
        let (w, b) = (lane / BITS_PER_WORD, 1u64 << (lane % BITS_PER_WORD));
        if active {
            self.words[w] |= b;
            let g = w / OCC_GROUP_WORDS;
            self.occ[g / BITS_PER_WORD] |= 1u64 << (g % BITS_PER_WORD);
        } else {
            self.words[w] &= !b;
        }
    }

    /// Could any lane of plane words `range` be active? `false` is
    /// definitive (every word in the range is zero); `true` may be
    /// conservative. Resolution is [`OCC_GROUP_WORDS`] words, so ranges
    /// sharing a group with active words report `true`.
    #[inline]
    pub fn range_occupied(&self, range: core::ops::Range<usize>) -> bool {
        if range.is_empty() {
            return false;
        }
        let g0 = range.start / OCC_GROUP_WORDS;
        let g1 = (range.end - 1) / OCC_GROUP_WORDS;
        (g0..=g1).any(|g| self.occ[g / BITS_PER_WORD] >> (g % BITS_PER_WORD) & 1 == 1)
    }

    /// Every tile with an active lane, lowest first, as `(tile, mask
    /// word)` pairs. Groups whose occupancy bit is clear are skipped by the
    /// trailing-zeros walk; a stale set bit only costs a scan of zero words.
    /// This is the one walk behind every masked plane sweep and every
    /// reduction unit.
    #[inline]
    pub fn active_tiles(&self) -> ActiveTiles<'_> {
        ActiveTiles { words: &self.words, occ: &self.occ, tile: 0, end: 0, stop: self.words.len() }
    }

    /// Number of occupancy groups ([`OCC_GROUP_WORDS`] words each, the
    /// last possibly short).
    #[inline]
    pub fn groups(&self) -> usize {
        self.words.len().div_ceil(OCC_GROUP_WORDS)
    }

    /// Groups whose occupancy bit is set: the groups a sweep visits.
    #[inline]
    pub fn occupied_groups(&self) -> usize {
        self.occ.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// [`ActiveMask::active_tiles`] restricted to the occupancy groups
    /// `groups`, skipping those whose occupancy bit is clear.
    #[inline]
    pub fn group_tiles(&self, groups: core::ops::Range<usize>) -> ActiveTiles<'_> {
        let start = groups.start * OCC_GROUP_WORDS;
        let stop = self.words.len().min(groups.end * OCC_GROUP_WORDS);
        ActiveTiles { words: &self.words, occ: &self.occ, tile: start, end: start, stop }
    }

    /// The groups of `groups` whose occupancy bit is set, lowest first,
    /// each as `(group, its words)`: [`OCC_GROUP_WORDS`] mask words, fewer
    /// in a short last group. This is the walk of the sweeps that hand a
    /// whole group to one kernel call; a stale set bit yields a group of
    /// zero words.
    #[inline]
    pub fn occupied(
        &self,
        groups: core::ops::Range<usize>,
    ) -> impl Iterator<Item = (usize, &[u64])> + '_ {
        let mut from = groups.start;
        core::iter::from_fn(move || {
            let g = next_set(&self.occ, from, groups.end)?;
            from = g + 1;
            let start = g * OCC_GROUP_WORDS;
            Some((g, &self.words[start..self.words.len().min(start + OCC_GROUP_WORDS)]))
        })
    }

    /// Is every lane active?
    pub fn is_full(&self) -> bool {
        match self.words.split_last() {
            Some((&last, body)) => {
                last == tail_mask(self.lanes) && body.iter().all(|&w| w == u64::MAX)
            }
            None => true,
        }
    }

    /// Is `lane` active?
    #[inline]
    pub fn is_active(&self, lane: usize) -> bool {
        debug_assert!(lane < self.lanes);
        self.words[lane / BITS_PER_WORD] >> (lane % BITS_PER_WORD) & 1 == 1
    }

    /// Number of active lanes.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is any lane active?
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// The mask word covering one 64-lane *tile* (tile `t` = lanes
    /// `64t..64t+64`). Tail bits are zero by the plane invariant.
    #[inline]
    pub fn tile_word(&self, tile: usize) -> u64 {
        self.words[tile]
    }

    /// Iterate the active lane indices, lowest first.
    pub fn iter(&self) -> SetLanes<'_> {
        SetLanes { words: &self.words, next_word: 0, current: 0, base: 0 }
    }

    /// Expand to one `bool` per lane (host/test convenience).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.lanes).map(|i| self.is_active(i)).collect()
    }
}

/// Iterator over the non-zero words of an [`ActiveMask`] that skips clear
/// occupancy groups (see [`ActiveMask::active_tiles`]).
pub struct ActiveTiles<'a> {
    words: &'a [u64],
    occ: &'a [u64],
    /// Next tile to examine.
    tile: usize,
    /// End of the occupied group `tile` lies in (`tile == end` between
    /// groups).
    end: usize,
    /// End of the walk: the plane's end or a group boundary.
    stop: usize,
}

impl Iterator for ActiveTiles<'_> {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        let words = self.words;
        loop {
            while self.tile < self.end {
                let t = self.tile;
                self.tile += 1;
                if words[t] != 0 {
                    return Some((t, words[t]));
                }
            }
            // `end` is group-aligned here, or the end of the walk: move to
            // the next occupied group
            if self.end >= self.stop {
                return None;
            }
            let groups = self.stop.div_ceil(OCC_GROUP_WORDS);
            let start = next_set(self.occ, self.end / OCC_GROUP_WORDS, groups)? * OCC_GROUP_WORDS;
            self.tile = start;
            self.end = self.stop.min(start + OCC_GROUP_WORDS);
        }
    }
}

/// Iterator over the set lanes of an [`ActiveMask`] (trailing-zeros scan).
pub struct SetLanes<'a> {
    words: &'a [u64],
    next_word: usize,
    current: u64,
    base: usize,
}

impl Iterator for SetLanes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            if self.next_word >= self.words.len() {
                return None;
            }
            self.current = self.words[self.next_word];
            self.base = self.next_word * BITS_PER_WORD;
            self.next_word += 1;
        }
        let lane = self.base + self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(lane)
    }
}

#[cfg(test)]
mod tests {
    use std::ops::Range;

    use super::*;

    #[test]
    fn geometry() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(tail_mask(64), u64::MAX);
        assert_eq!(tail_mask(65), 1);
        assert_eq!(tail_mask(3), 0b111);
    }

    #[test]
    fn all_respects_tail_invariant() {
        let m = ActiveMask::all(70);
        assert_eq!(m.count(), 70);
        assert_eq!(m.words()[1], 0b11_1111, "bits past lane 69 must be zero");
        assert!(m.any());
        assert!(!ActiveMask::new(70).any());
    }

    #[test]
    fn from_bools_round_trip() {
        let bools: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let m = ActiveMask::from_bools(&bools);
        assert_eq!(m.to_bools(), bools);
        assert_eq!(m.count(), bools.iter().filter(|&&b| b).count());
        let lanes: Vec<usize> = m.iter().collect();
        let expect: Vec<usize> = (0..130).filter(|i| i % 3 == 0).collect();
        assert_eq!(lanes, expect);
    }

    #[test]
    fn set_and_clear() {
        let mut m = ActiveMask::new(100);
        m.set(0, true);
        m.set(99, true);
        assert!(m.is_active(0) && m.is_active(99) && !m.is_active(50));
        m.set(0, false);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![99]);
        m.clear_all();
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn for_each_set_visits_in_order() {
        let mut seen = Vec::new();
        for_each_set(0b1001_0110, 64, |i| seen.push(i));
        assert_eq!(seen, vec![65, 66, 68, 71]);
        for_each_set(0, 0, |_| panic!("no bits set"));
    }

    #[test]
    fn copy_from_plane_matches() {
        let mut m = ActiveMask::new(128);
        m.copy_from_plane(&[u64::MAX, 0b1]);
        assert_eq!(m.count(), 65);
        assert!(m.is_active(64));
        assert!(!m.is_active(65));
    }

    #[test]
    fn occupancy_tracks_bulk_fills() {
        // 3 groups of 64 words (4096 lanes each)
        let lanes = 3 * OCC_GROUP_WORDS * BITS_PER_WORD;
        let mut m = ActiveMask::new(lanes);
        assert!(!m.range_occupied(0..m.words().len()));
        let mut plane = vec![0u64; m.words().len()];
        plane[OCC_GROUP_WORDS + 5] = 0b100; // one lane in group 1
        m.copy_from_plane(&plane);
        assert!(!m.range_occupied(0..OCC_GROUP_WORDS));
        assert!(m.range_occupied(OCC_GROUP_WORDS..2 * OCC_GROUP_WORDS));
        assert!(!m.range_occupied(2 * OCC_GROUP_WORDS..3 * OCC_GROUP_WORDS));
        assert!(m.range_occupied(0..m.words().len()));
        m.set_all();
        assert!(m.range_occupied(0..OCC_GROUP_WORDS));
        m.clear_all();
        assert!(!m.range_occupied(0..m.words().len()));
    }

    /// One buffer refilled through a sequence of planes matches a fresh
    /// mask of each plane: its words, its occupied groups and every
    /// group's occupancy answer. The sequence moves the occupied groups
    /// around, empties them, starts from a buffer with a stale occupancy
    /// bit, and ends in the tail word, so a refill that skipped zeroing a
    /// group the previous fill kept, or trusted a stale bit, would leave
    /// lanes behind.
    #[test]
    fn refills_match_a_fresh_mask_of_each_plane() {
        // 3 full groups and a ragged 2-word tail group
        let lanes = 3 * OCC_GROUP_WORDS * BITS_PER_WORD + 70;
        let group = OCC_GROUP_WORDS * BITS_PER_WORD;
        let plane = |on: &dyn Fn(usize) -> bool| (0..lanes).map(on).collect::<Vec<bool>>();
        let mut stale = ActiveMask::new(lanes);
        stale.set(100, true);
        stale.set(group + 5, true);
        stale.set(group + 5, false);
        let steps = [
            ("dense", plane(&|_| true)),
            ("cluster A", plane(&|i| (100..1124).contains(&i))),
            ("cluster B", plane(&|i| (2 * group + 5..2 * group + 1029).contains(&i))),
            ("empty", plane(&|_| false)),
            ("stale", stale.to_bools()),
            ("tail", plane(&|i| i == lanes - 1)),
            ("dense again", plane(&|_| true)),
        ];
        let mut buf = ActiveMask::new(lanes);
        for (name, bools) in &steps {
            if *name == "stale" {
                // the buffer itself carries a stale bit into this refill
                buf.set(2 * group + 7, true);
                buf.set(2 * group + 7, false);
                assert_eq!((buf.count(), buf.occupied_groups()), (0, 1));
            }
            let want = ActiveMask::from_bools(bools);
            buf.copy_from_plane(want.words());
            assert_eq!(buf.words(), want.words(), "{name}: words");
            assert_eq!(buf.occupied_groups(), want.occupied_groups(), "{name}: occupied");
            for g in 0..buf.groups() {
                let range = g * OCC_GROUP_WORDS..buf.words().len().min((g + 1) * OCC_GROUP_WORDS);
                let occupied = buf.range_occupied(range.clone());
                assert_eq!(occupied, want.range_occupied(range), "{name}: group {g}");
            }
        }
    }

    #[test]
    fn active_tiles_skip_clear_groups_and_zero_words() {
        // 3 groups and a ragged tail: lanes in group 0 and the last word
        let lanes = 2 * OCC_GROUP_WORDS * BITS_PER_WORD + 70;
        let mut m = ActiveMask::new(lanes);
        assert_eq!(m.active_tiles().next(), None);
        m.set(3, true);
        m.set(lanes - 1, true);
        let last = words_for(lanes) - 1;
        assert_eq!(m.active_tiles().collect::<Vec<_>>(), vec![(0, 0b1000), (last, 1 << 5)]);
        // a stale occupancy bit yields nothing
        m.set(3, false);
        assert_eq!(m.active_tiles().collect::<Vec<_>>(), vec![(last, 1 << 5)]);
        m.set_all();
        assert_eq!(m.active_tiles().count(), words_for(lanes));
        assert_eq!(m.active_tiles().map(|(_, w)| w.count_ones() as usize).sum::<usize>(), lanes);
        assert_eq!(ActiveMask::new(0).active_tiles().next(), None);

        // a group summarized past the first occupancy word
        let mut m = ActiveMask::new(70 * OCC_GROUP_WORDS * BITS_PER_WORD);
        let lane = 66 * OCC_GROUP_WORDS * BITS_PER_WORD + 5;
        m.set(lane, true);
        assert_eq!(m.active_tiles().collect::<Vec<_>>(), vec![(lane / BITS_PER_WORD, 1 << 5)]);
    }

    #[test]
    fn group_tiles_partition_active_tiles() {
        // 3 groups and a ragged tail group of 2 words; group 1 empty
        let lanes = 3 * OCC_GROUP_WORDS * BITS_PER_WORD + 70;
        let bools: Vec<bool> =
            (0..lanes).map(|i| i / (OCC_GROUP_WORDS * BITS_PER_WORD) != 1 && i % 3 == 0).collect();
        let m = ActiveMask::from_bools(&bools);
        assert_eq!((m.groups(), m.occupied_groups()), (4, 3));
        assert_eq!(m.group_tiles(1..2).next(), None);
        let joined: Vec<_> = (0..m.groups()).flat_map(|g| m.group_tiles(g..g + 1)).collect();
        assert_eq!(joined, m.active_tiles().collect::<Vec<_>>());
        assert_eq!(m.group_tiles(0..m.groups()).collect::<Vec<_>>(), joined);
        assert_eq!(m.group_tiles(3..4).map(|(t, _)| t).collect::<Vec<_>>(), vec![192, 193]);
        assert_eq!((ActiveMask::new(0).groups(), ActiveMask::all(1).occupied_groups()), (0, 1));
        // the occupied groups carry exactly the words group_tiles walks
        let occupied: Vec<_> = m.occupied(0..m.groups()).map(|(g, w)| (g, w.len())).collect();
        assert_eq!(occupied, vec![(0, OCC_GROUP_WORDS), (2, OCC_GROUP_WORDS), (3, 2)]);
        for (g, words) in m.occupied(0..m.groups()) {
            let nonzero = words.iter().enumerate().filter(|(_, &w)| w != 0);
            let tiles: Vec<_> = nonzero.map(|(k, &w)| (g * OCC_GROUP_WORDS + k, w)).collect();
            assert_eq!(tiles, m.group_tiles(g..g + 1).collect::<Vec<_>>());
        }
        assert_eq!(m.occupied(1..2).count(), 0);
    }

    /// The occupancy walks step over whole occupancy words: groups on both
    /// sides of a word boundary (63, 64), the last group of a 2^20-lane
    /// mask (255), groups only in the last occupancy word, and a ragged
    /// last group, over the whole mask and over sub-ranges of groups.
    #[test]
    fn occupied_groups_across_occupancy_words() {
        let group = OCC_GROUP_WORDS * BITS_PER_WORD;
        for (lanes, picks) in [
            (1 << 20, vec![63, 64, 255]),
            (1 << 20, vec![0, 255]),
            (1 << 20, vec![192, 200]),
            (1 << 20, vec![255]),
            (200 * group + 70, vec![130, 200]),
        ] {
            let mut m = ActiveMask::new(lanes);
            for &g in &picks {
                m.set((g * group + 7).min(lanes - 1), true);
            }
            let walk = |m: &ActiveMask, groups: Range<usize>| -> Vec<usize> {
                m.occupied(groups).map(|(g, _)| g).collect()
            };
            assert_eq!(walk(&m, 0..m.groups()), picks, "{lanes} lanes");
            let tiles: Vec<usize> = m.active_tiles().map(|(t, _)| t / OCC_GROUP_WORDS).collect();
            assert_eq!(tiles, picks, "{lanes} lanes: active tiles");
            for groups in [0..64, 63..65, 64..m.groups(), 100..255, 255..m.groups(), 5..5] {
                let want: Vec<usize> =
                    picks.iter().copied().filter(|g| groups.contains(g)).collect();
                assert_eq!(walk(&m, groups.clone()), want, "{lanes} lanes, groups {groups:?}");
                let tiles = m.group_tiles(groups.clone()).map(|(t, _)| t / OCC_GROUP_WORDS);
                assert_eq!(tiles.collect::<Vec<_>>(), want, "{lanes} lanes, tiles of {groups:?}");
            }
        }
    }

    #[test]
    fn is_full_checks_every_word_and_the_tail() {
        for lanes in [1, 64, 70, 4096 + 70] {
            let mut m = ActiveMask::all(lanes);
            assert!(m.is_full(), "{lanes}");
            m.set(lanes - 1, false);
            assert!(!m.is_full(), "{lanes}: last lane");
            m.set_all();
            m.set(0, false);
            assert!(!m.is_full(), "{lanes}: first lane");
        }
        assert!(!ActiveMask::new(70).is_full());
    }

    #[test]
    fn occupancy_is_conservative_not_wrong() {
        let lanes = 2 * OCC_GROUP_WORDS * BITS_PER_WORD;
        let mut m = ActiveMask::new(lanes);
        m.set(7000, true);
        assert!(m.range_occupied(OCC_GROUP_WORDS..2 * OCC_GROUP_WORDS));
        m.set(7000, false);
        // conservative: the group bit may stay set after a clear...
        assert_eq!(m.count(), 0);
        // ...but a definitive "empty" answer must never be wrong
        m.rebuild_occupancy();
        assert!(!m.range_occupied(0..m.words().len()));
        // equality ignores the occupancy cache
        assert_eq!(ActiveMask::new(lanes), {
            let mut c = ActiveMask::new(lanes);
            c.set(3, true);
            c.set(3, false);
            c
        });
    }
}

//! Tile-scoped mutable views of one thread's PE state, the substrate of
//! the lane-local executors ([`crate::lane_op`]).
//!
//! A *tile* is 64 consecutive PEs — exactly one flag-bitplane word, the
//! matching 64-word slice of every GPR plane, and the 64 lane-local
//! columns of local memory. Every lane-local instruction runs over one
//! 4096-lane occupancy group (64 tiles) per executor call, through one
//! [`TileWindow`] spanning the group. A fused block runs *op-major within
//! the group*: each of the block's instructions is applied to the whole
//! group before the next one runs, and the block moves on to the next
//! group only when its last instruction is done. Two reasons:
//!
//! * The group's working set — a handful of 16 KiB register spans and 64
//!   words per flag plane — stays in the core's private caches across the
//!   whole block, instead of being evicted between every pair of dependent
//!   full-array sweeps as instruction-major order would.
//! * Each op is one call of its executor and of its [`crate::simd`] span
//!   kernel per group, and a dense tile inside the span is unrolled,
//!   branch-free vector work.
//!
//! Lane locality of those instructions makes op-major order inside a
//! group bit-identical to instruction-major order.
//!
//! Three layers, all private to this crate:
//!
//! * [`ThreadTiles`] — a safe view borrowing one thread's GPR and flag
//!   regions (plus local memory, which is shared hardware but lane-local
//!   per PE). Constructed by `PeArray::thread_tiles`, once per executor
//!   call; it holds the view's raw parts (the three buffers' base
//!   pointers and the plane counts), and the two layers below borrow
//!   them instead of copying them, so making a group or a window writes
//!   only its tile range.
//! * [`GroupTiles`] — the tiles of a range of 4096-lane occupancy groups,
//!   handed to a sweep's group body by [`ThreadTiles::sweep`]. A sweep
//!   large enough to pass the worker pool's gate (see [`crate::workers`])
//!   runs on every host core, each group on the one participant that
//!   claimed it; a smaller one runs the body once over every group on the
//!   calling thread. Tiles of different groups share no lane, flag word
//!   or local-memory column, so the split cannot be observed. A sweep
//!   runs only ops that cannot fault (and `PeArray::scatter_column`'s
//!   copy), so it always covers every group; a per-lane `plw`/`psw`,
//!   which can fault, walks its groups on the caller instead (see
//!   [`crate::lane_op`]).
//! * [`TileWindow`] — the window over one group's tiles, made by
//!   [`GroupTiles::window`], or over all of a call's tiles, made by
//!   [`GroupTiles::whole`]; both borrow the groups mutably, so one
//!   window is live at a time. Every access it offers is confined to its
//!   tiles' lanes, and every register, flag, row and lane index it is given
//!   is checked against the view's counts, so safe code cannot reach past
//!   them. [`TileWindow::split`] hands out one [`Plane`] to write with the
//!   others to read, and [`TileWindow::split_flags`] one flag plane's words
//!   to write with flag words and planes to read, so a kernel reads its
//!   sources in place.
//!
//! Writes through [`TileWindow::gpr_mut`] and [`TileWindow::split`] must
//! skip register 0, which this layer debug-asserts (the zero register's
//! plane stays all-zero). The flag-plane tail invariant is the writer's
//! duty: [`TileWindow::split_flags`] hands out flag words whole, and a
//! writer keeps the bits past the last PE clear by merging under mask
//! words whose tail bits are clear by the [`crate::ActiveMask`] and
//! flag-plane invariants, as every [`crate::simd`] kernel and
//! [`crate::simd::flag_span`] does. The span kernels debug-assert that
//! their last mask word is tail-clean. Writes through a window bypass the
//! commit map: `PeArray`'s entry points mark every destination before
//! they sweep.

use std::marker::PhantomData;
use std::ops::Range;

use asc_isa::{Width, Word};

use crate::array::ArrayConfig;
use crate::bitmask::{words_for, BITS_PER_WORD, OCC_GROUP_WORDS};
use crate::memory::MemFault;
use crate::workers;

/// Lanes per tile: one flag-bitplane word.
pub const TILE_LANES: usize = BITS_PER_WORD;

/// Mutable tile-wise view of one thread's register planes, flag
/// bitplanes, and the (shared, but lane-local) PE local memory.
#[derive(Debug)]
pub(crate) struct ThreadTiles<'a> {
    raw: RawTiles<'a>,
}

impl<'a> ThreadTiles<'a> {
    /// The view of one thread's planes in an array of geometry `cfg`:
    /// `gprs` holds its `cfg.gprs` register planes and `flags` its
    /// `cfg.flags` bitplanes, and `lmem` is the whole local memory.
    ///
    /// # Panics
    /// Panics if a buffer does not hold exactly those planes.
    #[inline]
    pub(crate) fn new(
        gprs: &'a mut [Word],
        flags: &'a mut [u64],
        lmem: &'a mut [Word],
        cfg: &ArrayConfig,
    ) -> ThreadTiles<'a> {
        // the windows check indices against these counts and address the
        // buffers unchecked below them, so each buffer must hold them all
        let n = cfg.num_pes;
        assert_eq!(gprs.len(), cfg.gprs * n, "one thread's GPR planes");
        assert_eq!(flags.len(), cfg.flags * words_for(n), "one thread's flag bitplanes");
        assert_eq!(lmem.len(), cfg.lmem_words * n, "local memory is lmem_words rows");
        ThreadTiles {
            raw: RawTiles {
                gprs: gprs.as_mut_ptr(),
                flags: flags.as_mut_ptr(),
                lmem: lmem.as_mut_ptr(),
                num_pes: n,
                gpr_planes: cfg.gprs,
                flag_planes: cfg.flags,
                lmem_words: cfg.lmem_words,
                width: cfg.width,
                _lifetime: PhantomData,
            },
        }
    }

    /// Number of 64-PE tiles (= flag plane words).
    pub(crate) fn num_tiles(&self) -> usize {
        self.raw.num_tiles()
    }

    /// The window over a range of tiles. It borrows `self` mutably, so no
    /// other access to the thread's state can coexist with it.
    ///
    /// # Panics
    /// Panics if `tiles` is empty or not a range of the view's tiles.
    #[cfg(test)]
    pub(crate) fn window(&mut self, tiles: Range<usize>) -> TileWindow<'_> {
        assert!(
            tiles.start < tiles.end && tiles.end <= self.num_tiles(),
            "tiles {tiles:?} out of range"
        );
        self.raw.window(tiles)
    }

    /// Every occupancy group of the view, to window one at a time. It
    /// borrows `self` mutably, so no other access to the thread's state
    /// can coexist with it.
    #[inline(always)]
    pub(crate) fn groups(&mut self) -> GroupTiles<'_> {
        let tiles = 0..self.num_tiles();
        GroupTiles { raw: &self.raw, tiles }
    }

    /// Run `body` over the 4096-lane occupancy groups of the view, each
    /// call with a [`GroupTiles`] that windows only the tiles of its
    /// groups.
    ///
    /// `lane_ops` is the sweep's work, occupied groups ×
    /// [`workers::GROUP_LANES`] × ops: at or above
    /// [`workers::SPLIT_LANE_OPS`] the body runs on every host worker, one
    /// group per call, in no fixed order; otherwise it runs once over all
    /// the groups on the calling thread (see [`workers::for_each_group`]).
    /// Either way each group is covered exactly once and a call writes
    /// only its own tiles, so a body whose effects are lane-local gives the
    /// same state both ways. The body cannot stop the sweep: only the
    /// lane-local ops that cannot fault, and the host's column scatter,
    /// run through it.
    #[inline(always)]
    pub(crate) fn sweep(&mut self, lane_ops: usize, body: impl Fn(&mut GroupTiles<'_>) + Sync) {
        if workers::splits(self.num_tiles().div_ceil(OCC_GROUP_WORDS), lane_ops) {
            self.split_groups(lane_ops, &body);
        } else {
            body(&mut self.groups());
        }
    }

    /// The split half of [`ThreadTiles::sweep`], out of line so that the
    /// serial call inlines into the sweep.
    #[inline(never)]
    fn split_groups(&mut self, lane_ops: usize, body: &(dyn Fn(&mut GroupTiles<'_>) + Sync)) {
        let tiles = self.num_tiles();
        let shared = Shared(&self.raw);
        workers::for_each_group(tiles.div_ceil(OCC_GROUP_WORDS), lane_ops, |groups| {
            let span = groups.start * OCC_GROUP_WORDS..tiles.min(groups.end * OCC_GROUP_WORDS);
            body(&mut GroupTiles { raw: shared.get(), tiles: span });
        });
    }
}

/// The tiles of a range of occupancy groups of a [`ThreadTiles`] view, as
/// one call of a sweep's group body sees them (see [`ThreadTiles::sweep`]).
#[derive(Debug)]
pub(crate) struct GroupTiles<'a> {
    raw: &'a RawTiles<'a>,
    tiles: Range<usize>,
}

impl GroupTiles<'_> {
    /// The occupancy groups covered, lowest first.
    #[inline]
    pub(crate) fn groups(&self) -> Range<usize> {
        self.tiles.start / OCC_GROUP_WORDS..self.tiles.end.div_ceil(OCC_GROUP_WORDS)
    }

    /// The window over the tiles of occupancy group `g` (64 tiles, fewer
    /// in a short last group); one window is live at a time.
    ///
    /// # Panics
    /// Panics if `g` is not one of [`GroupTiles::groups`].
    #[inline]
    pub(crate) fn window(&mut self, g: usize) -> TileWindow<'_> {
        let tiles = g * OCC_GROUP_WORDS..self.tiles.end.min((g + 1) * OCC_GROUP_WORDS);
        assert!(
            self.tiles.start <= tiles.start && tiles.start < tiles.end,
            "group {g} outside tiles {:?}",
            self.tiles
        );
        self.raw.window(tiles)
    }

    /// The window over every tile covered: the whole view below the
    /// pool's gate, one group of a split sweep. One window is live at a
    /// time.
    #[inline]
    pub(crate) fn whole(&mut self) -> TileWindow<'_> {
        self.raw.window(self.tiles.clone())
    }
}

/// The raw parts of a [`ThreadTiles`] view, borrowed by the participants
/// of one split sweep ([`ThreadTiles::sweep`]).
struct Shared<'a>(&'a RawTiles<'a>);

// SAFETY: a participant derives from the raw parts only the `GroupTiles`
// of the groups it was handed, which windows only those groups' tiles.
// The pool hands each group to exactly one participant
// (`workers::for_each_group`), and different groups cover disjoint lanes —
// disjoint spans of every GPR plane and local-memory row, and disjoint
// flag-plane words — so no two participants reach the same element. The
// underlying `&mut` borrow lasts for the whole sweep, so nothing else
// accesses the elements meanwhile, and they are `Send` (`Word`, `u64`), so
// any participant may write them.
unsafe impl Sync for Shared<'_> {}

impl<'a> Shared<'a> {
    #[inline]
    fn get(&self) -> &'a RawTiles<'a> {
        self.0
    }
}

/// The raw parts of a [`ThreadTiles`] borrow that every [`GroupTiles`]
/// and [`TileWindow`] of the view borrows in turn and addresses its
/// tiles through.
#[derive(Debug)]
struct RawTiles<'a> {
    gprs: *mut Word,
    flags: *mut u64,
    lmem: *mut Word,
    num_pes: usize,
    /// GPR planes in `gprs`, `num_pes` words each.
    gpr_planes: usize,
    /// Flag bitplanes in `flags`, one word per tile each.
    flag_planes: usize,
    /// Local-memory rows in `lmem`, `num_pes` words each.
    lmem_words: usize,
    width: Width,
    _lifetime: PhantomData<&'a mut Word>,
}

impl<'a> RawTiles<'a> {
    /// Number of 64-PE tiles (= flag plane words).
    fn num_tiles(&self) -> usize {
        words_for(self.num_pes)
    }

    /// The window over `tiles`, which must be a non-empty range of tiles.
    #[inline]
    fn window(&'a self, tiles: Range<usize>) -> TileWindow<'a> {
        let base = tiles.start * TILE_LANES;
        let lanes = self.num_pes.min(tiles.end * TILE_LANES) - base;
        TileWindow { raw: self, tiles, base, lanes }
    }

    /// Pointer to lane `base` of `plane`.
    ///
    /// # Panics
    /// Panics if `plane` is out of range.
    #[inline(always)]
    fn lanes_of(&self, plane: Plane, base: usize) -> *mut Word {
        let (buf, index) = match plane {
            Plane::Gpr(reg) => {
                assert!(reg < self.gpr_planes, "GPR {reg} out of range");
                (self.gprs, reg)
            }
            Plane::Row(addr) => {
                assert!(addr < self.lmem_words, "local-memory row {addr} out of range");
                (self.lmem, addr)
            }
        };
        // SAFETY: `index` is a whole plane of `buf` (checked above), and
        // `base` is a window's first lane, below `num_pes`.
        unsafe { buf.add(index * self.num_pes + base) }
    }

    /// Pointer to the word of flag bitplane `flag` at `tile`.
    ///
    /// # Panics
    /// Panics if `flag` is out of range.
    #[inline(always)]
    fn flag_at(&self, flag: usize, tile: usize) -> *mut u64 {
        assert!(flag < self.flag_planes, "flag {flag} out of range");
        // SAFETY: `flag` is a whole bitplane of `flags` (checked above),
        // and `tile` is a window's first tile, below `num_tiles`.
        unsafe { self.flags.add(flag * self.num_tiles() + tile) }
    }
}

/// A plane of one word per PE that a [`TileWindow`] reaches: a GPR plane
/// of the view's thread, or a row of local memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plane {
    /// GPR plane `reg` of the view's thread.
    Gpr(usize),
    /// Local-memory row `addr` (one word per PE, the same address in every
    /// column).
    Row(usize),
}

/// The mutable window over a range of tiles: its lanes' span of every GPR
/// plane, one word per tile of every flag bitplane, and its lanes'
/// local-memory columns. A lane-local executor gets one per occupancy
/// group.
#[derive(Debug)]
pub(crate) struct TileWindow<'a> {
    raw: &'a RawTiles<'a>,
    tiles: Range<usize>,
    base: usize,
    lanes: usize,
}

impl TileWindow<'_> {
    /// Index of the window's first lane.
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    /// Number of valid lanes (64 per tile except in a short last tile).
    #[cfg(test)]
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Datapath width.
    pub(crate) fn width(&self) -> Width {
        self.raw.width
    }

    /// The window's span of a GPR plane.
    ///
    /// # Panics
    /// Panics if `reg` is out of range.
    #[inline]
    pub(crate) fn gpr(&self, reg: usize) -> &[Word] {
        self.read(Plane::Gpr(reg))
    }

    /// Mutable span of a GPR plane. Register 0 is hardwired zero; callers
    /// must skip writes to it.
    ///
    /// # Panics
    /// Panics if `reg` is out of range.
    #[inline]
    pub(crate) fn gpr_mut(&mut self, reg: usize) -> &mut [Word] {
        self.split(Plane::Gpr(reg), []).0
    }

    /// The window's span of `dst`, to write, and of each of `srcs`, to
    /// read: `None` for a source that is `dst` itself, which the caller
    /// reads through the returned `dst` slice (the in-place form the
    /// [`crate::simd`] ALU kernels take). Register 0 is hardwired zero;
    /// callers must not write it.
    ///
    /// # Panics
    /// Panics if `dst` or any of `srcs` is out of range.
    #[inline(always)]
    pub(crate) fn split<const K: usize>(
        &mut self,
        dst: Plane,
        srcs: [Plane; K],
    ) -> (&mut [Word], [Option<&[Word]>; K]) {
        debug_assert_ne!(
            dst,
            Plane::Gpr(0),
            "writes to the zero register must be skipped by the caller"
        );
        let (raw, base, lanes) = (self.raw, self.base, self.lanes);
        let d = raw.lanes_of(dst, base);
        // SAFETY: every slice covers this window's lanes of one in-range
        // plane (`lanes_of` checks it). Distinct planes share no word: GPR
        // planes are disjoint spans of the thread's region, rows disjoint
        // spans of local memory, and the two are separate buffers. No
        // source is `dst`, so the mutable slice overlaps no shared one.
        // All of them borrow `self` mutably, so no other accessor of the
        // window runs while they live.
        unsafe {
            let mut out = [None; K];
            for (k, &p) in srcs.iter().enumerate() {
                if p != dst {
                    out[k] = Some(std::slice::from_raw_parts(raw.lanes_of(p, base), lanes));
                }
            }
            (std::slice::from_raw_parts_mut(d, lanes), out)
        }
    }

    /// This window's span of `plane`, to read.
    #[inline]
    fn read(&self, plane: Plane) -> &[Word] {
        // SAFETY: the window's lanes of one in-range plane (`lanes_of`
        // checks it); the `&self` borrow keeps every writing accessor out
        // while the slice lives.
        unsafe { std::slice::from_raw_parts(self.raw.lanes_of(plane, self.base), self.lanes) }
    }

    /// The window's words of a flag bitplane, one per tile.
    ///
    /// # Panics
    /// Panics if `flag` is out of range.
    #[inline]
    pub(crate) fn flag_words(&self, flag: usize) -> &[u64] {
        // SAFETY: one in-range word per (flag, tile), confined to this
        // window; the `&self` borrow keeps every writing accessor out.
        unsafe {
            std::slice::from_raw_parts(self.raw.flag_at(flag, self.tiles.start), self.tiles.len())
        }
    }

    /// The window's words of flag bitplane `dst`, to write, with those of
    /// each of `flags` and the window's span of each of `planes`, to read:
    /// `None` for a flag that is `dst` itself, which the caller reads
    /// through the returned words. A writer must keep the bits of lanes
    /// at or above `num_pes` clear (the plane tail invariant); merging
    /// under mask words does, since those bits of a mask word are clear.
    ///
    /// # Panics
    /// Panics if `dst` or any of `flags` or `planes` is out of range.
    #[inline(always)]
    #[allow(clippy::type_complexity)]
    pub(crate) fn split_flags<const K: usize, const J: usize>(
        &mut self,
        dst: usize,
        flags: [usize; K],
        planes: [Plane; J],
    ) -> (&mut [u64], [Option<&[u64]>; K], [&[Word]; J]) {
        let (raw, first, tiles, base, lanes) =
            (self.raw, self.tiles.start, self.tiles.len(), self.base, self.lanes);
        let d = raw.flag_at(dst, first);
        // SAFETY: every flag slice covers this window's words of one
        // in-range bitplane, and every plane slice this window's lanes of
        // one in-range plane (`flag_at` and `lanes_of` check them).
        // Distinct bitplanes share no word, no source flag is `dst`, and
        // the planes live in other buffers, so the mutable slice overlaps
        // no shared one. All of them borrow `self` mutably, so no other
        // accessor of the window runs while they live.
        unsafe {
            let mut read = [None; K];
            for (k, &f) in flags.iter().enumerate() {
                if f != dst {
                    read[k] = Some(std::slice::from_raw_parts(raw.flag_at(f, first), tiles));
                }
            }
            // a loop rather than `array::map`, whose closure call was not
            // inlined into the executors
            let mut spans: [&[Word]; J] = [&[]; J];
            for (k, &p) in planes.iter().enumerate() {
                spans[k] = std::slice::from_raw_parts(raw.lanes_of(p, base), lanes);
            }
            (std::slice::from_raw_parts_mut(d, tiles), read, spans)
        }
    }

    /// Bounds-checked load from lane `j`'s local-memory column at
    /// `base + off` (`j` is a lane index *within* the window). Address
    /// arithmetic matches the array executor: unsigned base plus
    /// sign-extended offset at full precision.
    ///
    /// # Panics
    /// Panics if `j` is not one of the window's lanes.
    #[inline]
    pub(crate) fn lmem_checked_read(
        &self,
        base: Word,
        off: i32,
        j: usize,
    ) -> Result<Word, MemFault> {
        let addr = self.lmem_addr(base, off, false)?;
        Ok(self.read(Plane::Row(addr))[j])
    }

    /// Bounds-checked store to lane `j`'s local-memory column.
    ///
    /// # Panics
    /// Panics if `j` is not one of the window's lanes.
    #[inline]
    pub(crate) fn lmem_checked_write(
        &mut self,
        base: Word,
        off: i32,
        j: usize,
        v: Word,
    ) -> Result<(), MemFault> {
        let addr = self.lmem_addr(base, off, true)?;
        self.lmem_row_mut(addr)[j] = v;
        Ok(())
    }

    /// The window's lanes of the local-memory row at `addr` (one word per
    /// lane, same address in every column), to write; resolve a guest
    /// address with [`TileWindow::lmem_addr`].
    ///
    /// # Panics
    /// Panics if `addr` is out of range.
    #[inline]
    pub(crate) fn lmem_row_mut(&mut self, addr: usize) -> &mut [Word] {
        self.split(Plane::Row(addr), []).0
    }

    /// Resolve and bounds-check one lane's effective address: unsigned
    /// base plus sign-extended offset at full precision, as the hardware
    /// address path computes it.
    #[inline]
    fn lmem_addr(&self, base: Word, off: i32, is_store: bool) -> Result<usize, MemFault> {
        let ea = base.to_u32() as i64 + off as i64;
        if (0..self.raw.lmem_words as i64).contains(&ea) {
            Ok(ea as usize)
        } else {
            Err(MemFault { addr: ea as u32, capacity: self.raw.lmem_words as u32, is_store })
        }
    }
}

#[cfg(test)]
mod tests {
    use asc_isa::{FlagOp, Width, Word};

    use super::Plane;
    use crate::array::{ArrayConfig, PeArray};
    use crate::bitmask::ActiveMask;
    use crate::simd::flag_span;

    fn array(n: usize) -> PeArray {
        PeArray::new(ArrayConfig {
            num_pes: n,
            threads: 2,
            gprs: 16,
            flags: 8,
            lmem_words: 32,
            width: Width::W16,
            simd: crate::simd::SimdLevel::detect(),
            segments: crate::segments::SegmentGeometry::new(n, 0),
        })
    }

    #[test]
    fn geometry_and_tail() {
        let mut a = array(100);
        let mut t = a.thread_tiles(1);
        assert_eq!(t.num_tiles(), 2);
        let w0 = t.window(0..1);
        assert_eq!((w0.base(), w0.lanes(), w0.flag_words(0).len()), (0, 64, 1));
        let w1 = t.window(1..2);
        assert_eq!((w1.base(), w1.lanes(), w1.flag_words(0).len()), (64, 36, 1));
        let both = t.window(0..2);
        assert_eq!((both.lanes(), both.gpr(1).len(), both.flag_words(0).len()), (100, 100, 2));
    }

    #[test]
    fn windows_alias_the_array() {
        let mut a = array(100);
        let v42 = Word::new(42, Width::W16);
        let v7 = Word::new(7, Width::W16);
        a.set_gpr(70, 1, 3, v42);
        a.set_flag(70, 1, 2, true);
        {
            let mut t = a.thread_tiles(1);
            let mut w = t.window(1..2);
            assert_eq!(w.gpr(3)[70 - 64], v42);
            assert_eq!(w.flag_words(2), &[1u64 << (70 - 64)]);
            w.gpr_mut(3)[70 - 64] = v7;
            // setting every bit, merged under the all-active mask of the
            // ragged tile, leaves the plane's tail bits clear
            let all = ActiveMask::all(100);
            let (fd, [], []) = w.split_flags(2, [], []);
            flag_span(FlagOp::Set, fd, None, None, &all.words()[1..]);
            w.lmem_checked_write(Word::new(4, Width::W16), 1, 70 - 64, v7).unwrap();
            assert!(w.lmem_checked_read(Word::new(40, Width::W16), 0, 0).is_err());
        }
        assert_eq!(a.gpr(70, 1, 3), v7);
        assert!(a.flag(99, 1, 2));
        assert_eq!(a.flag_plane(1, 2)[1], (1u64 << 36) - 1);
        assert_eq!(a.lmem_word(70, 5).unwrap(), v7);
    }

    #[test]
    fn other_threads_are_not_visible() {
        let mut a = array(64);
        a.set_gpr(0, 0, 5, Word::new(9, Width::W16));
        let mut t = a.thread_tiles(1);
        let w = t.window(0..1);
        assert_eq!(w.gpr(5)[0], Word::ZERO, "thread 1 must not see thread 0");
    }

    #[test]
    fn split_reads_other_planes_and_leaves_the_destination_to_the_caller() {
        let mut a = array(100);
        a.set_gpr(70, 0, 2, Word::new(5, Width::W16));
        a.scatter_column(7, &[Word::new(9, Width::W16); 100]).unwrap();
        let mut t = a.thread_tiles(0);
        let mut w = t.window(1..2);
        let (dst, [own, other, row]) =
            w.split(Plane::Gpr(2), [Plane::Gpr(2), Plane::Gpr(3), Plane::Row(7)]);
        assert!(own.is_none(), "the destination is read through its own slice");
        assert_eq!((dst.len(), dst[70 - 64]), (36, Word::new(5, Width::W16)));
        assert_eq!(other.unwrap(), &[Word::ZERO; 36][..]);
        assert_eq!(row.unwrap(), &[Word::new(9, Width::W16); 36][..]);
        let (row, [gpr]) = w.split(Plane::Row(7), [Plane::Gpr(2)]);
        row[0] = gpr.unwrap()[70 - 64];
        assert_eq!(
            w.lmem_checked_read(Word::new(7, Width::W16), 0, 0),
            Ok(Word::new(5, Width::W16))
        );
    }

    /// Two threads of two GPRs and one flag, four local-memory rows: an
    /// unchecked index past thread 0's planes would land in thread 1's,
    /// or past the end of a buffer.
    fn narrow() -> PeArray {
        PeArray::new(ArrayConfig {
            num_pes: 100,
            threads: 2,
            gprs: 2,
            flags: 1,
            lmem_words: 4,
            width: Width::W16,
            simd: crate::simd::SimdLevel::detect(),
            segments: crate::segments::SegmentGeometry::new(100, 0),
        })
    }

    #[test]
    #[should_panic(expected = "GPR 3 out of range")]
    fn gpr_past_the_thread_panics() {
        narrow().thread_tiles(0).window(0..1).gpr(3);
    }

    #[test]
    #[should_panic(expected = "GPR 2 out of range")]
    fn gpr_mut_past_the_thread_panics() {
        narrow().thread_tiles(0).window(0..2).gpr_mut(2);
    }

    #[test]
    #[should_panic(expected = "GPR 2 out of range")]
    fn split_source_past_the_thread_panics() {
        narrow().thread_tiles(0).window(1..2).split(Plane::Gpr(1), [Plane::Gpr(2)]);
    }

    #[test]
    #[should_panic(expected = "flag 5 out of range")]
    fn flag_words_past_the_thread_panic() {
        narrow().thread_tiles(0).window(0..1).flag_words(5);
    }

    #[test]
    #[should_panic(expected = "flag 1 out of range")]
    fn split_flags_past_the_thread_panics() {
        narrow().thread_tiles(1).window(1..2).split_flags(1, [], []);
    }

    #[test]
    #[should_panic(expected = "flag 3 out of range")]
    fn split_flags_source_past_the_thread_panics() {
        narrow().thread_tiles(1).window(0..2).split_flags(0, [0, 3], []);
    }

    #[test]
    #[should_panic(expected = "GPR 2 out of range")]
    fn split_flags_plane_past_the_thread_panics() {
        narrow().thread_tiles(0).window(0..1).split_flags(0, [], [Plane::Gpr(2)]);
    }

    #[test]
    #[should_panic(expected = "local-memory row 4 out of range")]
    fn split_row_past_the_end_panics() {
        narrow().thread_tiles(0).window(1..2).split(Plane::Gpr(1), [Plane::Row(4)]);
    }

    #[test]
    #[should_panic(expected = "local-memory row 9 out of range")]
    fn lmem_row_mut_past_the_end_panics() {
        narrow().thread_tiles(0).window(0..1).lmem_row_mut(9);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn lmem_read_past_the_tile_panics() {
        // lane 36 of the 36-lane last tile
        let _ = narrow().thread_tiles(0).window(1..2).lmem_checked_read(Word::ZERO, 0, 36);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn lmem_write_past_the_tile_panics() {
        let _ =
            narrow().thread_tiles(0).window(0..1).lmem_checked_write(Word::ZERO, 0, 64, Word::ZERO);
    }

    #[test]
    fn windows_cover_distinct_tiles() {
        let mut a = array(128);
        let mut t = a.thread_tiles(0);
        t.window(0..1).gpr_mut(1)[0] = Word::new(1, Width::W16);
        t.window(1..2).gpr_mut(1)[0] = Word::new(2, Width::W16);
        assert_eq!(a.gpr(0, 0, 1).to_u32(), 1);
        assert_eq!(a.gpr(64, 0, 1).to_u32(), 2);
        assert_eq!(a.gpr(1, 0, 1).to_u32(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn window_past_the_last_tile_panics() {
        let mut a = array(100);
        a.thread_tiles(0).window(1..3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn empty_window_panics() {
        let mut a = array(100);
        a.thread_tiles(0).window(2..2);
    }
}

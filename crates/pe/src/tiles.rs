//! Tile-scoped mutable views of one thread's PE state, the substrate of
//! the block-fusion engine in `asc-core`.
//!
//! A *tile* is 64 consecutive PEs — exactly one flag-bitplane word, the
//! matching 64-word slice of every GPR plane, and the 64 lane-local
//! columns of local memory. Fused basic blocks are executed tile-by-tile:
//! all of a block's instructions are applied to one tile before advancing
//! to the next, so a tile's working set (a handful of 64-word register
//! slices plus flag words) stays cache-resident across the whole block
//! instead of being evicted between every pair of dependent full-array
//! sweeps.
//!
//! Two layers:
//!
//! * [`ThreadTiles`] — a safe view borrowing one thread's GPR and flag
//!   regions (plus local memory, which is shared hardware but lane-local
//!   per PE). Constructed by [`crate::PeArray::thread_tiles`].
//! * [`TileWindow`] — one tile's window, made by [`ThreadTiles::window`],
//!   which borrows the view mutably, so one window is live at a time.
//!   Every access it offers is confined to that tile's 64 lanes.
//!
//! The architectural invariants are enforced at this layer: writes
//! through [`TileWindow::gpr_mut`] must skip register 0 (debug-asserted —
//! the zero register's plane stays all-zero), and
//! [`TileWindow::set_flag_word`] masks tail bits of a short last tile so
//! the flag-plane tail invariant propagates.

use std::marker::PhantomData;

use asc_isa::{Width, Word};

use crate::bitmask::{tail_mask, words_for, BITS_PER_WORD};
use crate::memory::MemFault;

/// Lanes per tile: one flag-bitplane word.
pub const TILE_LANES: usize = BITS_PER_WORD;

/// Mutable tile-wise view of one thread's register planes, flag
/// bitplanes, and the (shared, but lane-local) PE local memory.
#[derive(Debug)]
pub struct ThreadTiles<'a> {
    /// This thread's GPR region: `gprs_per_thread` planes of `num_pes`
    /// words each.
    gprs: &'a mut [Word],
    /// This thread's flag region: `flags_per_thread` bitplanes of
    /// `words_for(num_pes)` words each.
    flags: &'a mut [u64],
    /// All of local memory, column-major (`addr * num_pes + pe`).
    lmem: &'a mut [Word],
    num_pes: usize,
    lmem_words: usize,
    width: Width,
}

impl<'a> ThreadTiles<'a> {
    pub(crate) fn new(
        gprs: &'a mut [Word],
        flags: &'a mut [u64],
        lmem: &'a mut [Word],
        num_pes: usize,
        lmem_words: usize,
        width: Width,
    ) -> ThreadTiles<'a> {
        debug_assert_eq!(lmem.len(), lmem_words * num_pes);
        debug_assert_eq!(gprs.len() % num_pes, 0);
        debug_assert_eq!(flags.len() % words_for(num_pes), 0);
        ThreadTiles { gprs, flags, lmem, num_pes, lmem_words, width }
    }

    /// Number of PEs covered by the view.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Number of 64-PE tiles (= flag plane words).
    pub fn num_tiles(&self) -> usize {
        words_for(self.num_pes)
    }

    /// Datapath width.
    pub fn width(&self) -> Width {
        self.width
    }

    /// The window over one tile. It borrows `self` mutably, so no other
    /// access to the thread's state can coexist with it.
    ///
    /// # Panics
    /// Panics if `tile` is out of range.
    pub fn window(&mut self, tile: usize) -> TileWindow<'_> {
        assert!(tile < self.num_tiles(), "tile {tile} out of range");
        let base = tile * TILE_LANES;
        let raw = RawTiles {
            gprs: self.gprs.as_mut_ptr(),
            flags: self.flags.as_mut_ptr(),
            lmem: self.lmem.as_mut_ptr(),
            num_pes: self.num_pes,
            lmem_words: self.lmem_words,
            width: self.width,
            _lifetime: PhantomData,
        };
        TileWindow { raw, tile, base, lanes: TILE_LANES.min(self.num_pes - base) }
    }
}

/// The raw parts of a [`ThreadTiles`] borrow that a [`TileWindow`]
/// addresses its tile through.
#[derive(Debug)]
struct RawTiles<'a> {
    gprs: *mut Word,
    flags: *mut u64,
    lmem: *mut Word,
    num_pes: usize,
    lmem_words: usize,
    width: Width,
    _lifetime: PhantomData<&'a mut Word>,
}

impl RawTiles<'_> {
    /// Number of 64-PE tiles (= flag plane words).
    fn num_tiles(&self) -> usize {
        words_for(self.num_pes)
    }
}

/// One tile's mutable window: the tile's 64-lane span of every GPR plane,
/// one word of every flag bitplane, and the tile's local-memory columns.
#[derive(Debug)]
pub struct TileWindow<'a> {
    raw: RawTiles<'a>,
    tile: usize,
    base: usize,
    lanes: usize,
}

impl TileWindow<'_> {
    /// Tile index (= flag plane word index).
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Index of this tile's first lane.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of valid lanes (64 except for a short last tile).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Datapath width.
    pub fn width(&self) -> Width {
        self.raw.width
    }

    /// The all-active mask word for this tile: one bit per valid lane.
    pub fn full_word(&self) -> u64 {
        if self.lanes == TILE_LANES {
            u64::MAX
        } else {
            tail_mask(self.lanes)
        }
    }

    /// Latch this tile's slice of a GPR plane into a caller-owned buffer
    /// (so a destination plane may alias the source). Returns the latched
    /// slice.
    #[inline]
    pub fn copy_gprs<'b>(&self, reg: usize, out: &'b mut [Word; TILE_LANES]) -> &'b [Word] {
        // SAFETY: confined to this tile's lanes of plane `reg`.
        let src = unsafe {
            std::slice::from_raw_parts(
                self.raw.gprs.add(reg * self.raw.num_pes + self.base),
                self.lanes,
            )
        };
        out[..self.lanes].copy_from_slice(src);
        &out[..self.lanes]
    }

    /// Mutable tile slice of a GPR plane. Register 0 is hardwired zero;
    /// callers must skip writes to it.
    #[inline]
    pub fn gpr_mut(&mut self, reg: usize) -> &mut [Word] {
        debug_assert_ne!(reg, 0, "writes to the zero register must be skipped by the caller");
        // SAFETY: confined to this tile's lanes of plane `reg`; `&mut
        // self` makes this the window's only live view.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.raw.gprs.add(reg * self.raw.num_pes + self.base),
                self.lanes,
            )
        }
    }

    /// This tile's word of a flag bitplane.
    #[inline]
    pub fn flag_word(&self, flag: usize) -> u64 {
        // SAFETY: one word per (flag, tile), confined to this tile.
        unsafe { *self.raw.flags.add(flag * self.raw.num_tiles() + self.tile) }
    }

    /// Overwrite this tile's word of a flag bitplane, preserving the tail
    /// invariant (bits at lanes ≥ `num_pes` are forced to zero).
    #[inline]
    pub fn set_flag_word(&mut self, flag: usize, word: u64) {
        let clipped = word & self.full_word();
        // SAFETY: one word per (flag, tile), confined to this tile.
        unsafe { *self.raw.flags.add(flag * self.raw.num_tiles() + self.tile) = clipped }
    }

    /// Bounds-checked load from lane `j`'s local-memory column at
    /// `base + off` (`j` is a lane index *within* the tile). Address
    /// arithmetic matches the array executor: unsigned base plus
    /// sign-extended offset at full precision.
    #[inline]
    pub fn lmem_checked_read(&self, base: Word, off: i32, j: usize) -> Result<Word, MemFault> {
        let addr = self.check_addr(base, off, false)?;
        debug_assert!(j < self.lanes);
        // SAFETY: `addr` is bounds-checked; `base + j` is a valid lane.
        Ok(unsafe { *self.raw.lmem.add(addr * self.raw.num_pes + self.base + j) })
    }

    /// Bounds-checked store to lane `j`'s local-memory column.
    #[inline]
    pub fn lmem_checked_write(
        &mut self,
        base: Word,
        off: i32,
        j: usize,
        v: Word,
    ) -> Result<(), MemFault> {
        let addr = self.check_addr(base, off, true)?;
        debug_assert!(j < self.lanes);
        // SAFETY: `addr` is bounds-checked; `base + j` is a valid lane.
        unsafe { *self.raw.lmem.add(addr * self.raw.num_pes + self.base + j) = v }
        Ok(())
    }

    /// This tile's lanes of the local-memory row at `addr` (one word per
    /// lane, same address in every column). Callers must have
    /// bounds-checked `addr` via [`TileWindow::lmem_addr`].
    #[inline]
    pub fn lmem_row(&self, addr: usize) -> &[Word] {
        debug_assert!(addr < self.raw.lmem_words);
        // SAFETY: `addr` is in range and the slice is confined to this
        // tile's lanes of the row.
        unsafe {
            std::slice::from_raw_parts(
                self.raw.lmem.add(addr * self.raw.num_pes + self.base),
                self.lanes,
            )
        }
    }

    /// Mutable row access; same contract as [`TileWindow::lmem_row`].
    #[inline]
    pub fn lmem_row_mut(&mut self, addr: usize) -> &mut [Word] {
        debug_assert!(addr < self.raw.lmem_words);
        // SAFETY: `addr` is in range, the slice is confined to this
        // tile's lanes, and `&mut self` makes this the only live view.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.raw.lmem.add(addr * self.raw.num_pes + self.base),
                self.lanes,
            )
        }
    }

    /// Resolve and bounds-check a lane-uniform effective address (the
    /// whole tile reads/writes the same row). Fault identity matches the
    /// per-lane accessors: unsigned base plus sign-extended offset at
    /// full precision.
    #[inline]
    pub fn lmem_addr(&self, base: Word, off: i32, is_store: bool) -> Result<usize, MemFault> {
        self.check_addr(base, off, is_store)
    }

    #[inline]
    fn check_addr(&self, base: Word, off: i32, is_store: bool) -> Result<usize, MemFault> {
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
    use asc_isa::{Width, Word};

    use crate::array::{ArrayConfig, PeArray};

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
        let w0 = t.window(0);
        assert_eq!((w0.lanes(), w0.full_word()), (64, u64::MAX));
        let w1 = t.window(1);
        assert_eq!((w1.base(), w1.lanes()), (64, 36));
        assert_eq!(w1.full_word(), (1u64 << 36) - 1);
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
            let mut w = t.window(1);
            let mut latch = [Word::ZERO; super::TILE_LANES];
            assert_eq!(w.copy_gprs(3, &mut latch)[70 - 64], v42);
            assert_eq!(w.flag_word(2), 1u64 << (70 - 64));
            w.gpr_mut(3)[70 - 64] = v7;
            w.set_flag_word(2, u64::MAX); // tail bits must be clipped
            w.lmem_checked_write(Word::new(4, Width::W16), 1, 70 - 64, v7).unwrap();
            assert!(w.lmem_checked_read(Word::new(40, Width::W16), 0, 0).is_err());
        }
        a.note_gpr_write(1, 3);
        a.note_flag_write(1, 2);
        a.note_lmem_write(Some(5));
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
        let w = t.window(0);
        let mut latch = [Word::ZERO; super::TILE_LANES];
        assert_eq!(w.copy_gprs(5, &mut latch)[0], Word::ZERO, "thread 1 must not see thread 0");
    }

    #[test]
    fn windows_cover_distinct_tiles() {
        let mut a = array(128);
        let mut t = a.thread_tiles(0);
        t.window(0).gpr_mut(1)[0] = Word::new(1, Width::W16);
        t.window(1).gpr_mut(1)[0] = Word::new(2, Width::W16);
        a.note_gpr_write(0, 1);
        assert_eq!(a.gpr(0, 0, 1).to_u32(), 1);
        assert_eq!(a.gpr(64, 0, 1).to_u32(), 2);
        assert_eq!(a.gpr(1, 0, 1).to_u32(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn window_past_the_last_tile_panics() {
        let mut a = array(100);
        a.thread_tiles(0).window(2);
    }
}

//! The PE array: whole-array functional operations used by the instruction
//! executors in `asc-core`.
//!
//! ## Structure-of-arrays layout
//!
//! The array stores architectural state as contiguous *planes* spanning all
//! PEs rather than as one struct per PE:
//!
//! * **GPRs** — one `Vec<Word>` with the plane for `(thread, reg)` at
//!   `(thread * gprs + reg) * num_pes ..`, so a masked ALU operation is a
//!   tight loop over three contiguous slices and a reduction reads its
//!   input as a single slice ([`PeArray::gpr_plane`]).
//! * **Flags** — packed `u64` bitplanes ([`crate::bitmask`]), one bit per
//!   PE, so flag logic runs word-parallel (64 PEs per operation) and
//!   responder tests are population counts.
//! * **Local memory** — one flat buffer in *column-major* order
//!   (`addr * num_pes + pe`), so host scatter/gather of a column is a
//!   `memcpy` and uniform-address accesses stream contiguously. The
//!   trade-off is that one PE's memory is strided; host bulk loads go
//!   through [`PeArray::lmem_load_slice`].
//!
//! GPR plane 0 of every thread is kept all-zero (writes to register 0 are
//! skipped), which makes the hardwired-zero register free on the read side.
//!
//! Every parallel operation takes the issuing *thread* (register files are
//! split per thread) and an [`ActiveMask`] derived from the instruction's
//! mask flag. Inactive PEs are completely unaffected — the defining
//! semantics of associative masked execution. Every sweep walks the mask
//! one 4096-lane occupancy group at a time, and a group with no active
//! lane costs one bit test.
//!
//! The lane-local sweeps (`alu`, `cmp`, `flag_op`, `pidx`, `movs` and the
//! uniform-address `plw`/`psw`) take the occupied groups whole
//! ([`ActiveMask::occupied`]): each calls its [`crate::simd`] span body
//! (or, for `movs`, a loop) once per group with the group's mask words,
//! one per 64-lane tile, so the call and its set-up are paid per 4096
//! lanes rather than per tile. Inside a group, a dense mask word takes a
//! branch-free tile body, a sparse one a masked body or a trailing-zeros
//! scan, and a zero word one test. A fused block runs its ops the same
//! way, one op over a whole group before the next ([`crate::tiles`]), so
//! an instruction-major sweep and a one-op compiled chain are the same
//! loop: one kernel call per occupied group.
//!
//! The sweeps hand their destination plane to the worker pool one group's
//! span at a time ([`crate::tiles::for_each_group_span`]), so a sweep
//! large enough to pass the pool's gate runs on every host core (see
//! [`crate::workers`]) and a smaller one runs on the calling thread; each
//! group writes only its own lanes. Flag logic (and the clear of
//! `write_first_responder`) brings its flag words to the pool's gate
//! rather than its lanes ([`workers::word_work`]), so it runs on the
//! calling thread below 2²⁴ PEs. Commit-map marks are made before the
//! sweep. The rest always run on the calling thread, tile by tile
//! ([`ActiveMask::active_tiles`]): `shift` reads across lanes, and
//! per-lane loads and stores stop at a fault.
//!
//! A memory fault stops a per-lane load or store at the lowest faulting
//! active PE: the lanes below it have been applied, the lanes above it are
//! unchanged.
//!
//! ## Plane memory
//!
//! A fresh array's planes are allocated zeroed (`zeroed_words`); large
//! ones are untouched zero pages, so construction costs the same at any
//! size and a page is faulted in on its first write. A commit map
//! records which (plane, segment) slices have been written since
//! construction. When an array is dropped, its planes and commit map
//! become this thread's *spare*; the next array of the same shape built
//! on the thread takes them and zeroes only the slices the map marks,
//! which costs a memset of the pages the previous machine wrote instead
//! of a page fault per page (see [`PeArray::new`]). A thread holds at
//! most one spare, and keeps it until its next construction or its exit.

use std::cell::Cell;

use asc_isa::{AluOp, CmpOp, FlagOp, Mask, PFlag, PReg, Width, Word};

use crate::bitmask::{for_each_set, words_for, ActiveMask, BITS_PER_WORD, OCC_GROUP_WORDS};
use crate::memory::MemFault;
use crate::segments::SegmentGeometry;
use crate::simd::{self, SimdLevel};
use crate::tiles::for_each_group_span;
use crate::workers;

/// Geometry of the PE array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayConfig {
    /// Number of PEs.
    pub num_pes: usize,
    /// Hardware thread contexts (register files are split this many ways).
    pub threads: usize,
    /// General-purpose registers per thread (16 in this ISA).
    pub gprs: usize,
    /// Flag registers per thread (8 in this ISA).
    pub flags: usize,
    /// Local memory words per PE.
    pub lmem_words: usize,
    /// Datapath width.
    pub width: Width,
    /// SIMD tier for the dense lane loops (see [`crate::simd`]); resolved
    /// once at construction and never re-probed.
    pub simd: SimdLevel,
    /// Core-affine slicing of the array (see [`crate::segments`]): the
    /// granularity at which the commit map records plane writes. Results
    /// are bit-identical at every segment count.
    pub segments: SegmentGeometry,
}

impl ArrayConfig {
    /// The FPGA prototype's array: 16 PEs, 16 threads, 1 KB local memory
    /// (512 16-bit words).
    pub fn prototype() -> ArrayConfig {
        ArrayConfig {
            num_pes: 16,
            threads: 16,
            gprs: asc_isa::NUM_GPRS,
            flags: asc_isa::NUM_FLAGS,
            lmem_words: 512,
            width: Width::W16,
            simd: SimdLevel::detect(),
            segments: SegmentGeometry::new(16, 0),
        }
    }

    /// The fields that fix every plane buffer's length: two arrays with
    /// the same shape can trade planes whatever their segment count,
    /// SIMD tier or width.
    fn shape(&self) -> [usize; 5] {
        [self.num_pes, self.threads, self.gprs, self.flags, self.lmem_words]
    }
}

/// Second operand of a parallel ALU/compare operation: another parallel
/// register, a broadcast scalar, or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A parallel register (per-PE value).
    Reg(PReg),
    /// A broadcast scalar value (already resolved by the control unit).
    Scalar(Word),
    /// An immediate (sign-extended by the decoder).
    Imm(Word),
}

/// A memory fault attributed to a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeFault {
    /// Which PE faulted (lowest index if several).
    pub pe: usize,
    /// The fault.
    pub fault: MemFault,
}

impl std::fmt::Display for PeFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PE {}: {}", self.pe, self.fault)
    }
}

impl std::error::Error for PeFault {}

/// Split a run of `len`-element planes into plane `d`, to write, and a
/// lookup of the others, to read: `None` for `d` itself.
#[inline]
fn split_planes<'a, T>(
    region: &'a mut [T],
    d: usize,
    len: usize,
) -> (&'a mut [T], impl Fn(usize) -> Option<&'a [T]> + Copy + 'a) {
    let (below, rest) = region.split_at_mut(d * len);
    let (dst, above) = rest.split_at_mut(len);
    let (below, above) = (&*below, &*above);
    let planes = move |r: usize| match r.cmp(&d) {
        std::cmp::Ordering::Less => Some(&below[r * len..(r + 1) * len]),
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some(&above[(r - d - 1) * len..(r - d) * len]),
    };
    (dst, planes)
}

/// Run `f(tile, masks, chunk)` once for every occupancy group of `active`
/// whose occupancy bit is set, lowest first — the lane-local sweeps'
/// shared mask walk — where `masks` are the group's words of `active` (up
/// to 64, one per tile), `tile` the group's first tile, and `chunk` the
/// group's span of `plane`: `per_tile` elements per tile (64 lanes of a
/// GPR plane or local-memory row, fewer in a short last tile; one word of
/// a flag plane). A clear group costs one bit test, and each occupied one
/// one call of `f`, which hands the whole group to a span kernel or loop.
/// The walk is split across the host workers when `lane_ops`, the sweep's
/// work ([`workers::mask_work`], or [`workers::word_work`] for a sweep of
/// flag words), reaches the pool's gate
/// ([`crate::tiles::for_each_group_span`]); `f` writes only its chunk.
#[inline]
fn sweep<T: Send>(
    plane: &mut [T],
    per_tile: usize,
    lane_ops: usize,
    active: &ActiveMask,
    f: impl Fn(usize, &[u64], &mut [T]) + Sync + Copy,
) {
    let per_group = OCC_GROUP_WORDS * per_tile;
    // inlined into the serial call as well as into the split path
    for_each_group_span(
        plane,
        per_group,
        lane_ops,
        #[inline(always)]
        move |groups, span| {
            // a local copy keeps the op's operands in registers across the
            // writes through `span`
            let f = f;
            let first = groups.start * per_group;
            for (g, masks) in active.occupied(groups) {
                let base = g * per_group - first;
                let end = span.len().min(base + per_group);
                f(g * OCC_GROUP_WORDS, masks, &mut span[base..end]);
            }
        },
    );
}

/// Lowest active lane, if any.
#[inline]
fn first_active(active: &ActiveMask) -> Option<usize> {
    active.active_tiles().next().map(|(wi, w)| wi * BITS_PER_WORD + w.trailing_zeros() as usize)
}

/// Run `f` for every active lane, lowest first, and stop at the first
/// fault, attributing it to the lane (the array's fault policy).
#[inline]
fn try_for_each_lane(
    active: &ActiveMask,
    mut f: impl FnMut(usize) -> Result<(), MemFault>,
) -> Result<(), PeFault> {
    for (wi, mw) in active.active_tiles() {
        let base = wi * BITS_PER_WORD;
        let mut m = mw;
        while m != 0 {
            let lane = base + m.trailing_zeros() as usize;
            f(lane).map_err(|fault| PeFault { pe: lane, fault })?;
            m &= m - 1;
        }
    }
    Ok(())
}

/// Keep glibc's mmap threshold fixed so the multi-megabyte planes of a
/// large array stay mmap-backed. By default the threshold adapts upward
/// when a mmap'd block is freed, after which same-sized allocations come
/// from the sbrk heap — where `calloc` must memset the whole plane
/// instead of handing out untouched zero pages. Pinning it keeps a fresh
/// array's construction independent of its size; a machine-per-run loop
/// (the kernel suite, the benches) that builds the same shape again
/// reuses the previous array's planes instead (see [`PeArray::new`]), so
/// it pays a memset of the pages actually written rather than a fault
/// per page.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        const M_MMAP_THRESHOLD: i32 = -3;
        unsafe extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: mallopt is async-signal-unsafe but thread-safe; it only
        // tweaks allocator parameters.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 1 << 20);
        }
    });
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

/// Allocate `n` zero words via the `vec![0u32; n]` zero-value
/// specialization, which maps to `alloc_zeroed` — the large register and
/// local-memory planes of a fresh array come from untouched zero pages
/// instead of an explicit clearing pass. Construction is cheap at any
/// size, and each page costs a fault on its first write. Reused spare
/// planes skip this allocation (see [`PeArray::new`]).
fn zeroed_words(n: usize) -> Vec<Word> {
    let mut raw = std::mem::ManuallyDrop::new(vec![0u32; n]);
    let (ptr, len, cap) = (raw.as_mut_ptr(), raw.len(), raw.capacity());
    // SAFETY: `Word` is `#[repr(transparent)]` over `u32`, so the
    // allocation's layout, length, and capacity are identical, and the
    // all-zero bit pattern is a valid `Word` (`Word::ZERO`).
    unsafe { Vec::from_raw_parts(ptr as *mut Word, len, cap) }
}

/// Zero a slice. Out of line so the fill compiles to a `memset` call:
/// inlined into [`CommitMap::scrub`]'s walk it became a 16-byte store
/// loop, which cleared a resident 4 MiB plane about 40% slower.
#[inline(never)]
fn zero<T: Copy + Default>(s: &mut [T]) {
    s.fill(T::default());
}

/// Which (plane, segment) slices of an array have been written since it
/// was constructed.
///
/// The map is the array's record of where non-zero state can be, so it
/// must cover every plane write: every unmarked slice is zero. Three
/// things trust that:
///
/// * [`PeArray::clear_thread`] (`tspawn`) zeroes only a thread's marked
///   slices;
/// * a reused spare ([`PeArray::new`]) zeroes only the marked slices, so
///   a missed mark leaks the previous machine's state into the next;
/// * [`PeArray::committed_bytes`] reports the marked bytes, the
///   bytes-written figure the scaling bench reports per PE.
///
/// All bitsets are preallocated at construction; marking a write is a
/// couple of word ORs, so the instruction path stays allocation-free.
#[derive(Debug, Clone, Default)]
struct CommitMap {
    /// Segments per plane (the geometry's segment count).
    seg_count: usize,
    /// One bit per (gpr plane, segment): `thread * gprs + reg` major.
    gpr: Vec<u64>,
    /// One bit per (flag plane, segment): `thread * flags + flag` major.
    flag: Vec<u64>,
    /// One bit per (local-memory row, segment): row major.
    lmem: Vec<u64>,
}

impl CommitMap {
    fn new(cfg: &ArrayConfig) -> CommitMap {
        let segs = cfg.segments.count();
        CommitMap {
            seg_count: segs,
            gpr: vec![0; words_for(cfg.threads * cfg.gprs * segs)],
            flag: vec![0; words_for(cfg.threads * cfg.flags * segs)],
            lmem: vec![0; words_for(cfg.lmem_words * segs)],
        }
    }

    #[inline]
    fn mark(bits: &mut [u64], idx: usize) {
        bits[idx / BITS_PER_WORD] |= 1u64 << (idx % BITS_PER_WORD);
    }

    /// Unmark `idx`, returning whether it was marked.
    #[inline]
    fn take(bits: &mut [u64], idx: usize) -> bool {
        let (w, bit) = (idx / BITS_PER_WORD, 1u64 << (idx % BITS_PER_WORD));
        let marked = bits[w] & bit != 0;
        bits[w] &= !bit;
        marked
    }

    /// Mark every segment of one plane (dense plane-wide writes).
    fn mark_plane(bits: &mut [u64], plane: usize, seg_count: usize) {
        for s in 0..seg_count {
            Self::mark(bits, plane * seg_count + s);
        }
    }

    /// Zero and unmark the marked slices of `planes` in `buf`, where plane
    /// `p` starts at `p * plane_len` and segment `s` spans `seg(s)`
    /// within it. Each run of marked segments of a plane is cleared with
    /// one fill, and the walk skips unmarked map words, so the cost is a
    /// memset of what was written, not of the buffer or the map.
    fn scrub<T: Copy + Default>(
        bits: &mut [u64],
        seg_count: usize,
        planes: std::ops::Range<usize>,
        buf: &mut [T],
        plane_len: usize,
        seg: impl Fn(usize) -> std::ops::Range<usize>,
    ) {
        let (mut idx, hi) = (planes.start * seg_count, planes.end * seg_count);
        while idx < hi {
            let (w, b) = (idx / BITS_PER_WORD, idx % BITS_PER_WORD);
            let ahead = bits[w] >> b;
            if ahead == 0 {
                idx += BITS_PER_WORD - b;
                continue;
            }
            idx += ahead.trailing_zeros() as usize;
            if idx >= hi {
                break;
            }
            // the run of marked segments from `first` to the end of its plane
            let (first, plane) = (idx, idx / seg_count);
            while idx < (plane + 1) * seg_count && Self::take(bits, idx) {
                idx += 1;
            }
            let base = plane * plane_len;
            let (from, to) = (seg(first % seg_count).start, seg((idx - 1) % seg_count).end);
            zero(&mut buf[base + from..base + to]);
        }
    }

    /// Committed bytes of one plane kind, where segment `s` of a plane
    /// holds `seg_bytes(s)` bytes.
    fn plane_bytes(bits: &[u64], seg_count: usize, seg_bytes: impl Fn(usize) -> usize) -> usize {
        let mut total = 0;
        for (wi, &w) in bits.iter().enumerate() {
            for_each_set(w, wi * BITS_PER_WORD, |idx| total += seg_bytes(idx % seg_count));
        }
        total
    }
}

/// The PE array (structure-of-arrays storage; see the module docs).
#[derive(Debug, Clone)]
pub struct PeArray {
    cfg: ArrayConfig,
    /// One `num_pes`-word plane per (thread, reg); plane 0 of each thread
    /// is kept all-zero (hardwired zero register).
    gprs: Vec<Word>,
    /// One packed bitplane per (thread, flag), `words_per_plane` words
    /// each, tail bits always zero.
    flags: Vec<u64>,
    /// Local memory, column-major: `lmem[addr * num_pes + pe]`.
    lmem: Vec<Word>,
    /// Reusable source latch for `shift`, the one plane op that reads
    /// other lanes than it writes, so its destination may not be read in
    /// place (no per-instruction allocation). Every read of the latch
    /// follows a full-plane copy into it, so its contents never carry over
    /// and a reused spare's latch is not scrubbed.
    scratch: Vec<Word>,
    /// Which (plane, segment) slices have been written since construction
    /// (see [`CommitMap`]).
    committed: CommitMap,
}

/// The planes and commit map of a dropped array, kept for the next array
/// of the same shape built on this thread (see [`PeArray::new`]).
struct Spare {
    /// The dropped array's config; its segment geometry is the one the
    /// commit map was recorded at.
    cfg: ArrayConfig,
    gprs: Vec<Word>,
    flags: Vec<u64>,
    lmem: Vec<Word>,
    scratch: Vec<Word>,
    committed: CommitMap,
}

thread_local! {
    /// This thread's spare plane set: the planes of the last array
    /// dropped on it. Thread-local, so the drop path takes no lock,
    /// and a new thread starts with no spare.
    static SPARE: Cell<Option<Spare>> = const { Cell::new(None) };
}

impl PeArray {
    /// Build a zeroed array.
    ///
    /// If this thread holds a spare plane set (the planes of the last
    /// array dropped on it) with the same `num_pes`, `threads`, `gprs`,
    /// `flags` and `lmem_words`, the array takes it and zeroes exactly the
    /// slices the spare's commit map marks: the cost is a memset of what
    /// the previous array wrote. The segment count, SIMD tier and width
    /// may differ.
    ///
    /// Otherwise the spare is freed before the new planes are allocated,
    /// so the two never coexist, and the planes are allocated
    /// zero-page-backed: a handful of `mmap` reservations, independent of
    /// `num_pes`, with segments materializing on first write. A spare is
    /// released only here or when its thread exits: until then the thread
    /// keeps every page its last array wrote.
    ///
    /// Either way the array starts with an empty commit map.
    pub fn new(cfg: ArrayConfig) -> PeArray {
        pin_mmap_threshold();
        debug_assert_eq!(cfg.segments.num_pes(), cfg.num_pes, "segment geometry mismatch");
        if let Some(spare) = SPARE.try_with(Cell::take).ok().flatten() {
            if spare.cfg.shape() == cfg.shape() {
                return PeArray::from_spare(cfg, spare);
            }
            drop(spare);
        }
        let n = cfg.num_pes;
        PeArray {
            gprs: zeroed_words(cfg.threads * cfg.gprs * n),
            flags: vec![0; cfg.threads * cfg.flags * words_for(n)],
            lmem: zeroed_words(cfg.lmem_words * n),
            scratch: zeroed_words(n),
            committed: CommitMap::new(&cfg),
            cfg,
        }
    }

    /// Rebuild the spare's array under its old config, zero every slice
    /// its commit map marks (the walk `tspawn` trusts), then switch to
    /// `cfg` with a fresh commit map.
    fn from_spare(cfg: ArrayConfig, spare: Spare) -> PeArray {
        let mut a = PeArray {
            cfg: spare.cfg,
            gprs: spare.gprs,
            flags: spare.flags,
            lmem: spare.lmem,
            scratch: spare.scratch,
            committed: spare.committed,
        };
        for thread in 0..a.cfg.threads {
            a.clear_thread(thread);
        }
        let geo = a.cfg.segments;
        let rows = 0..a.cfg.lmem_words;
        let segs = a.committed.seg_count;
        CommitMap::scrub(&mut a.committed.lmem, segs, rows, &mut a.lmem, a.cfg.num_pes, |s| {
            geo.seg_lane_range(s)
        });
        a.committed = CommitMap::new(&cfg);
        a.cfg = cfg;
        a
    }

    /// Array geometry.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.cfg.num_pes
    }

    /// The core-affine segment slicing.
    pub fn segments(&self) -> SegmentGeometry {
        self.cfg.segments
    }

    /// Bytes of plane storage actually committed (written at least once),
    /// at segment granularity — the "only pay for what you touch" figure.
    /// A freshly constructed array reports zero no matter how large it is.
    pub fn committed_bytes(&self) -> usize {
        let geo = self.cfg.segments;
        let segs = self.committed.seg_count;
        let word = std::mem::size_of::<Word>();
        let gpr = CommitMap::plane_bytes(&self.committed.gpr, segs, |s| {
            geo.seg_lane_range(s).len() * word
        });
        let flag = CommitMap::plane_bytes(&self.committed.flag, segs, |s| {
            geo.seg_tile_range(s).len() * std::mem::size_of::<u64>()
        });
        let lmem = CommitMap::plane_bytes(&self.committed.lmem, segs, |s| {
            geo.seg_lane_range(s).len() * word
        });
        gpr + flag + lmem
    }

    /// Total reserved (virtual) plane storage in bytes — the upper bound
    /// [`PeArray::committed_bytes`] approaches as planes are touched.
    pub fn footprint_bytes(&self) -> usize {
        let word = std::mem::size_of::<Word>();
        (self.gprs.len() + self.lmem.len() + self.scratch.len()) * word
            + self.flags.len() * std::mem::size_of::<u64>()
    }

    /// Commit hook for executors that write planes through raw tile
    /// windows (the block-fusion engine): record a write of `reg`'s plane.
    ///
    /// Not telemetry alone: a plane write the commit map misses survives
    /// `tspawn`'s [`PeArray::clear_thread`], and it leaks into the next
    /// same-shape array built on this thread, which zeroes only the
    /// marked slices of the planes it reuses (see [`PeArray::new`]).
    /// Call it for every plane the executor may write.
    pub fn note_gpr_write(&mut self, thread: usize, reg: usize) {
        if reg != 0 {
            self.mark_gpr_plane(thread, reg);
        }
    }

    /// Like [`PeArray::note_gpr_write`], for a flag bitplane.
    pub fn note_flag_write(&mut self, thread: usize, flag: usize) {
        self.mark_flag_plane(thread, flag);
    }

    /// Like [`PeArray::note_gpr_write`], for local memory: a statically
    /// known row, or `None` for per-lane-addressed stores (conservatively
    /// commits every row — the rows touched are only known at runtime).
    pub fn note_lmem_write(&mut self, row: Option<i64>) {
        match row {
            Some(r) if (0..self.cfg.lmem_words as i64).contains(&r) => {
                self.mark_lmem_row(r as usize);
            }
            Some(_) => {} // out of range: the store will fault, no commit
            None => {
                for r in 0..self.cfg.lmem_words {
                    self.mark_lmem_row(r);
                }
            }
        }
    }

    #[inline]
    fn mark_gpr_plane(&mut self, thread: usize, reg: usize) {
        let plane = thread * self.cfg.gprs + reg;
        CommitMap::mark_plane(&mut self.committed.gpr, plane, self.committed.seg_count);
    }

    #[inline]
    fn mark_gpr_lane(&mut self, thread: usize, reg: usize, lane: usize) {
        let plane = thread * self.cfg.gprs + reg;
        let s = lane / self.cfg.segments.lanes_per_seg();
        CommitMap::mark(&mut self.committed.gpr, plane * self.committed.seg_count + s);
    }

    #[inline]
    fn mark_flag_plane(&mut self, thread: usize, flag: usize) {
        let plane = thread * self.cfg.flags + flag;
        CommitMap::mark_plane(&mut self.committed.flag, plane, self.committed.seg_count);
    }

    #[inline]
    fn mark_flag_lane(&mut self, thread: usize, flag: usize, lane: usize) {
        let plane = thread * self.cfg.flags + flag;
        let s = lane / self.cfg.segments.lanes_per_seg();
        CommitMap::mark(&mut self.committed.flag, plane * self.committed.seg_count + s);
    }

    #[inline]
    fn mark_lmem_row(&mut self, row: usize) {
        CommitMap::mark_plane(&mut self.committed.lmem, row, self.committed.seg_count);
    }

    #[inline]
    fn mark_lmem_word(&mut self, row: usize, lane: usize) {
        let s = lane / self.cfg.segments.lanes_per_seg();
        CommitMap::mark(&mut self.committed.lmem, row * self.committed.seg_count + s);
    }

    fn width(&self) -> Width {
        self.cfg.width
    }

    /// `u64` words per flag bitplane.
    fn words_per_plane(&self) -> usize {
        words_for(self.cfg.num_pes)
    }

    #[inline]
    fn gpr_base(&self, thread: usize, reg: usize) -> usize {
        debug_assert!(thread < self.cfg.threads && reg < self.cfg.gprs);
        (thread * self.cfg.gprs + reg) * self.cfg.num_pes
    }

    #[inline]
    fn flag_base(&self, thread: usize, flag: usize) -> usize {
        debug_assert!(thread < self.cfg.threads && flag < self.cfg.flags);
        (thread * self.cfg.flags + flag) * self.words_per_plane()
    }

    /// The active set for a thread and mask, without allocating: `all`,
    /// the caller's all-active mask, or `buf` refilled from the mask
    /// flag's plane.
    pub fn active<'m>(
        &self,
        thread: usize,
        mask: Mask,
        all: &'m ActiveMask,
        buf: &'m mut ActiveMask,
    ) -> &'m ActiveMask {
        match mask {
            Mask::All => {
                debug_assert_eq!(all.lanes(), self.cfg.num_pes);
                all
            }
            Mask::Flag(f) => {
                buf.copy_from_plane(self.flag_plane(thread, f.index()));
                buf
            }
        }
    }

    /// Parallel ALU operation: `pd = pa op src` in active PEs.
    ///
    /// The op's span kernel is selected once (monomorphized per op and
    /// SIMD tier, see [`crate::simd`]) and called once per occupied
    /// 4096-lane group. A source that is the destination plane reaches the
    /// kernel as `None` and is read in place, each tile before the kernel
    /// writes it.
    pub fn alu(
        &mut self,
        thread: usize,
        op: AluOp,
        pd: PReg,
        pa: PReg,
        src: Src,
        active: &ActiveMask,
    ) {
        let d = pd.index();
        if d == 0 {
            return; // writes to the zero register have no effect
        }
        let (w, n, level) = (self.width(), self.cfg.num_pes, self.cfg.simd);
        #[derive(Clone, Copy)]
        enum Kern<'p> {
            Rr(simd::AluRrKernel, Option<&'p [Word]>),
            Rs(simd::AluRsKernel, Word),
        }
        self.mark_gpr_plane(thread, d);
        let base = self.gpr_base(thread, 0);
        let region = &mut self.gprs[base..base + self.cfg.gprs * n];
        let (dst, planes) = split_planes(region, d, n);
        let a = planes(pa.index());
        let kern = match src {
            Src::Reg(pb) => Kern::Rr(simd::select_alu_rr(level, op), planes(pb.index())),
            Src::Scalar(v) | Src::Imm(v) => Kern::Rs(simd::select_alu_rs(level, op), v),
        };
        sweep(dst, BITS_PER_WORD, workers::mask_work(active), active, move |tile, masks, span| {
            let base = tile * BITS_PER_WORD;
            let lanes = base..base + span.len();
            let x = a.map(|p| &p[lanes.clone()]);
            match kern {
                Kern::Rr(f, b) => f(span, x, b.map(|p| &p[lanes]), w, masks),
                Kern::Rs(f, s) => f(span, x, s, w, masks),
            }
        });
    }

    /// Parallel comparison (associative search): `fd = pa cmp src` in
    /// active PEs. The span kernel merges its results into the destination
    /// bitplane word by word, one call per occupied 4096-lane group, so
    /// inactive lanes keep their bits.
    pub fn cmp(
        &mut self,
        thread: usize,
        op: CmpOp,
        fd: PFlag,
        pa: PReg,
        src: Src,
        active: &ActiveMask,
    ) {
        let w = self.width();
        let n = self.cfg.num_pes;
        let pa_base = self.gpr_base(thread, pa.index());
        let (b_base, scalar) = match src {
            Src::Reg(pb) => (Some(self.gpr_base(thread, pb.index())), Word::ZERO),
            Src::Scalar(v) | Src::Imm(v) => (None, v),
        };
        #[derive(Clone, Copy)]
        enum Kern {
            Rr(simd::CmpRrKernel),
            Rs(simd::CmpRsKernel, Word),
        }
        let kern = match b_base {
            Some(_) => Kern::Rr(simd::select_cmp_rr(self.cfg.simd, op)),
            None => Kern::Rs(simd::select_cmp_rs(self.cfg.simd, op), scalar),
        };
        self.mark_flag_plane(thread, fd.index());
        let fd_base = self.flag_base(thread, fd.index());
        let wpp = self.words_per_plane();
        let (gprs, flags) = (&self.gprs, &mut self.flags);
        let a_plane = &gprs[pa_base..pa_base + n];
        let b_plane = b_base.map(|bb| &gprs[bb..bb + n]);
        // the kernel merges under the mask words, so inactive lanes keep
        // their flag bits
        // a compare counts its lanes at the gate, not the flag words it writes
        let (dst, lane_ops) = (&mut flags[fd_base..fd_base + wpp], workers::mask_work(active));
        sweep(dst, 1, lane_ops, active, move |tile, masks, words| {
            let base = tile * BITS_PER_WORD;
            let lanes = base..n.min(base + masks.len() * BITS_PER_WORD);
            let a = &a_plane[lanes.clone()];
            match kern {
                Kern::Rr(f) => {
                    f(words, a, &b_plane.expect("rr kernel has a b plane")[lanes], w, masks)
                }
                Kern::Rs(f, s) => f(words, a, s, w, masks),
            }
        });
    }

    /// Parallel flag logic: `fd = fa op fb` in active PEs — word-parallel,
    /// 64 PEs per `u64` operation.
    pub fn flag_op(
        &mut self,
        thread: usize,
        op: FlagOp,
        fd: PFlag,
        fa: PFlag,
        fb: PFlag,
        active: &ActiveMask,
    ) {
        let (d, wpp) = (fd.index(), self.words_per_plane());
        self.mark_flag_plane(thread, d);
        let base = self.flag_base(thread, 0);
        let region = &mut self.flags[base..base + self.cfg.flags * wpp];
        // `None`: the source is fd, read from the destination word before
        // the write
        let (dst, planes) = split_planes(region, d, wpp);
        let (a, b) = (planes(fa.index()), planes(fb.index()));
        sweep(dst, 1, workers::word_work(active), active, move |tile, masks, words| {
            let span = tile..tile + words.len();
            simd::flag_span(op, words, a.map(|p| &p[span.clone()]), b.map(|p| &p[span]), masks)
        });
    }

    /// Effective address: unsigned base register plus sign-extended offset,
    /// computed at full precision (the hardware address path is wider than
    /// the data path so a 1 KB local memory stays addressable).
    fn effective_addr(base: Word, off: i32) -> i64 {
        base.to_u32() as i64 + off as i64
    }

    /// Bounds-check an effective address against local memory capacity.
    #[inline]
    fn check_addr(ea: i64, capacity: usize, is_store: bool) -> Result<usize, MemFault> {
        if (0..capacity as i64).contains(&ea) {
            Ok(ea as usize)
        } else {
            Err(MemFault { addr: ea as u32, capacity: capacity as u32, is_store })
        }
    }

    /// Parallel load: `pd = lmem[pa + off]` in active PEs. A fault stops
    /// the sweep at the lowest faulting active PE (see the module docs).
    pub fn load(
        &mut self,
        thread: usize,
        pd: PReg,
        base: PReg,
        off: i32,
        active: &ActiveMask,
    ) -> Result<(), PeFault> {
        if base.index() == 0 {
            // the base register is hardwired zero: every lane reads the
            // same address, which in the column-major buffer is one
            // contiguous row — bounds-check once, then bulk-copy
            return self.load_uniform(thread, pd, off, active);
        }
        let n = self.cfg.num_pes;
        let cap = self.cfg.lmem_words;
        let base_b = self.gpr_base(thread, base.index());

        if pd.index() == 0 {
            // the result is discarded, but faults still surface
            let gprs = &self.gprs;
            return try_for_each_lane(active, |lane| {
                let ea = Self::effective_addr(gprs[base_b + lane], off);
                Self::check_addr(ea, cap, false).map(|_| ())
            });
        }

        self.mark_gpr_plane(thread, pd.index());
        let dst_base = self.gpr_base(thread, pd.index());
        let (gprs, lmem) = (&mut self.gprs, &self.lmem);
        try_for_each_lane(active, |lane| {
            let ea = Self::effective_addr(gprs[base_b + lane], off);
            let addr = Self::check_addr(ea, cap, false)?;
            gprs[dst_base + lane] = lmem[addr * n + lane];
            Ok(())
        })
    }

    /// Parallel store: `lmem[pa + off] = ps` in active PEs. A fault stops
    /// the sweep at the lowest faulting active PE (see the module docs).
    pub fn store(
        &mut self,
        thread: usize,
        ps: PReg,
        base: PReg,
        off: i32,
        active: &ActiveMask,
    ) -> Result<(), PeFault> {
        if base.index() == 0 {
            return self.store_uniform(thread, ps, off, active);
        }
        let n = self.cfg.num_pes;
        let cap = self.cfg.lmem_words;
        let base_b = self.gpr_base(thread, base.index());
        let ps_base = self.gpr_base(thread, ps.index());
        let seg_lanes = self.cfg.segments.lanes_per_seg();
        let seg_count = self.committed.seg_count;
        let lmem_bits = &mut self.committed.lmem;
        let (gprs, lmem) = (&self.gprs, &mut self.lmem);
        try_for_each_lane(active, |lane| {
            let ea = Self::effective_addr(gprs[base_b + lane], off);
            let addr = Self::check_addr(ea, cap, true)?;
            lmem[addr * n + lane] = gprs[ps_base + lane];
            CommitMap::mark(lmem_bits, addr * seg_count + lane / seg_lanes);
            Ok(())
        })
    }

    /// Uniform-address load (`base` = the zero register): one bounds
    /// check, then a masked row copy. All active lanes fault together, so
    /// a fault reports the lowest active PE and applies no lane.
    fn load_uniform(
        &mut self,
        thread: usize,
        pd: PReg,
        off: i32,
        active: &ActiveMask,
    ) -> Result<(), PeFault> {
        let Some(first) = first_active(active) else {
            return Ok(()); // no active lane, no access, no fault
        };
        let addr = Self::check_addr(off as i64, self.cfg.lmem_words, false)
            .map_err(|fault| PeFault { pe: first, fault })?;
        if pd.index() == 0 {
            return Ok(());
        }
        self.mark_gpr_plane(thread, pd.index());
        let n = self.cfg.num_pes;
        let dst_base = self.gpr_base(thread, pd.index());
        let (lmem, gprs) = (&self.lmem, &mut self.gprs);
        let row = &lmem[addr * n..(addr + 1) * n];
        sweep(
            &mut gprs[dst_base..dst_base + n],
            BITS_PER_WORD,
            workers::mask_work(active),
            active,
            move |tile, masks, span| {
                let base = tile * BITS_PER_WORD;
                simd::copy_masked(span, &row[base..base + span.len()], masks);
            },
        );
        Ok(())
    }

    /// Uniform-address store (`base` = the zero register): one bounds
    /// check, then a masked copy into the contiguous row.
    fn store_uniform(
        &mut self,
        thread: usize,
        ps: PReg,
        off: i32,
        active: &ActiveMask,
    ) -> Result<(), PeFault> {
        let Some(first) = first_active(active) else {
            return Ok(());
        };
        let addr = Self::check_addr(off as i64, self.cfg.lmem_words, true)
            .map_err(|fault| PeFault { pe: first, fault })?;
        self.mark_lmem_row(addr);
        let n = self.cfg.num_pes;
        let ps_base = self.gpr_base(thread, ps.index());
        let (gprs, lmem) = (&self.gprs, &mut self.lmem);
        let src = &gprs[ps_base..ps_base + n];
        sweep(
            &mut lmem[addr * n..(addr + 1) * n],
            BITS_PER_WORD,
            workers::mask_work(active),
            active,
            move |tile, masks, span| {
                let base = tile * BITS_PER_WORD;
                simd::copy_masked(span, &src[base..base + span.len()], masks);
            },
        );
        Ok(())
    }

    /// Write each PE's index (truncated to the width) into `pd`.
    pub fn pidx(&mut self, thread: usize, pd: PReg, active: &ActiveMask) {
        if pd.index() == 0 {
            return;
        }
        let w = self.width();
        let n = self.cfg.num_pes;
        self.mark_gpr_plane(thread, pd.index());
        let dst_base = self.gpr_base(thread, pd.index());
        sweep(
            &mut self.gprs[dst_base..dst_base + n],
            BITS_PER_WORD,
            workers::mask_work(active),
            active,
            move |tile, masks, span| simd::index_span(span, tile * BITS_PER_WORD, w, masks),
        );
    }

    /// Inter-PE shift through the interconnection network:
    /// `pd[i] = pa[i - dist]` for active PEs, zero shifted in at the
    /// boundary. The column is latched before any write, so `pd == pa` is
    /// well defined.
    pub fn shift(&mut self, thread: usize, pd: PReg, pa: PReg, dist: i32, active: &ActiveMask) {
        if pd.index() == 0 {
            return;
        }
        let n = self.cfg.num_pes;
        let pa_base = self.gpr_base(thread, pa.index());
        self.scratch.copy_from_slice(&self.gprs[pa_base..pa_base + n]);
        self.mark_gpr_plane(thread, pd.index());
        let dst_base = self.gpr_base(thread, pd.index());
        let sa = &self.scratch;
        let dst = &mut self.gprs[dst_base..dst_base + n];
        for (wi, mw) in active.active_tiles() {
            let base = wi * BITS_PER_WORD;
            let lane_op = |lane: usize| {
                let src = lane as i64 - dist as i64;
                dst[lane] =
                    if (0..n as i64).contains(&src) { sa[src as usize] } else { Word::ZERO };
            };
            if mw == u64::MAX {
                (base..base + BITS_PER_WORD).for_each(lane_op);
            } else {
                for_each_set(mw, base, lane_op);
            }
        }
    }

    /// Broadcast a scalar into `pd` of active PEs.
    pub fn movs(&mut self, thread: usize, pd: PReg, value: Word, active: &ActiveMask) {
        if pd.index() == 0 {
            return;
        }
        let n = self.cfg.num_pes;
        self.mark_gpr_plane(thread, pd.index());
        let dst_base = self.gpr_base(thread, pd.index());
        sweep(
            &mut self.gprs[dst_base..dst_base + n],
            BITS_PER_WORD,
            workers::mask_work(active),
            active,
            move |_, masks, span| {
                for (t, &mw) in masks.iter().enumerate() {
                    let base = t * BITS_PER_WORD;
                    if mw == u64::MAX {
                        span[base..base + BITS_PER_WORD].fill(value);
                    } else {
                        for_each_set(mw, base, |j| span[j] = value);
                    }
                }
            },
        );
    }

    /// Write the multiple response resolver's one-hot result: clear `fd`
    /// in every active PE, a flag-logic sweep like [`PeArray::flag_op`]'s,
    /// then set it in the winning PE (if any). The winner must be active.
    pub fn write_first_responder(
        &mut self,
        thread: usize,
        fd: PFlag,
        winner: Option<usize>,
        active: &ActiveMask,
    ) {
        let (d_base, wpp) = (self.flag_base(thread, fd.index()), self.words_per_plane());
        self.mark_flag_plane(thread, fd.index());
        sweep(
            &mut self.flags[d_base..d_base + wpp],
            1,
            workers::word_work(active),
            active,
            |_, masks, words| simd::flag_span(FlagOp::Clr, words, None, None, masks),
        );
        if let Some(pe) = winner {
            debug_assert!(active.is_active(pe), "resolver winner must be active");
            self.flags[d_base + pe / BITS_PER_WORD] |= 1u64 << (pe % BITS_PER_WORD);
        }
    }

    /// A mutable tile-wise view of one thread's registers, flags, and
    /// local memory — the substrate of fused-block execution (see
    /// [`crate::tiles`]). Borrows only that thread's plane regions, so the
    /// view cannot observe or disturb other threads' state.
    ///
    /// Writes through the view bypass the commit map: the caller must call
    /// [`PeArray::note_gpr_write`], [`PeArray::note_flag_write`] or
    /// [`PeArray::note_lmem_write`] for every plane and row it writes, or
    /// `tspawn` leaves that state in place and the next array built on
    /// this thread's reused planes inherits it.
    #[inline]
    pub fn thread_tiles(&mut self, thread: usize) -> crate::tiles::ThreadTiles<'_> {
        let n = self.cfg.num_pes;
        let wpp = self.words_per_plane();
        let g = self.gpr_base(thread, 0);
        let f = self.flag_base(thread, 0);
        crate::tiles::ThreadTiles::new(
            &mut self.gprs[g..g + self.cfg.gprs * n],
            &mut self.flags[f..f + self.cfg.flags * wpp],
            &mut self.lmem,
            n,
            self.cfg.lmem_words,
            self.cfg.width,
        )
    }

    /// A GPR plane across all PEs, as a contiguous slice (input to the
    /// reduction network).
    pub fn gpr_plane(&self, thread: usize, reg: usize) -> &[Word] {
        let base = self.gpr_base(thread, reg);
        &self.gprs[base..base + self.cfg.num_pes]
    }

    /// A flag bitplane across all PEs (input to the responder units); one
    /// bit per PE, tail bits zero.
    pub fn flag_plane(&self, thread: usize, flag: usize) -> &[u64] {
        let base = self.flag_base(thread, flag);
        &self.flags[base..base + self.words_per_plane()]
    }

    /// Snapshot a GPR across all PEs (host/test convenience; allocates —
    /// the executor uses [`PeArray::gpr_plane`]).
    pub fn gpr_column(&self, thread: usize, reg: usize) -> Vec<Word> {
        self.gpr_plane(thread, reg).to_vec()
    }

    /// Snapshot a flag across all PEs (host/test convenience; allocates —
    /// the executor uses [`PeArray::flag_plane`]).
    pub fn flag_column(&self, thread: usize, reg: usize) -> Vec<bool> {
        let plane = self.flag_plane(thread, reg);
        (0..self.cfg.num_pes)
            .map(|i| plane[i / BITS_PER_WORD] >> (i % BITS_PER_WORD) & 1 == 1)
            .collect()
    }

    /// Clear one thread's registers and flags in every PE (thread
    /// allocation).
    pub fn clear_thread(&mut self, thread: usize) {
        // Only the committed segment slices can hold non-zero state, so a
        // `tspawn` on a sparse machine stays proportional to what was
        // actually touched, not to the reserved footprint.
        let geo = self.cfg.segments;
        let segs = self.committed.seg_count;
        let (g, f) = (self.cfg.gprs, self.cfg.flags);
        let (n, wpp) = (self.cfg.num_pes, self.words_per_plane());
        let gpr_planes = thread * g..(thread + 1) * g;
        CommitMap::scrub(&mut self.committed.gpr, segs, gpr_planes, &mut self.gprs, n, |s| {
            geo.seg_lane_range(s)
        });
        let flag_planes = thread * f..(thread + 1) * f;
        CommitMap::scrub(&mut self.committed.flag, segs, flag_planes, &mut self.flags, wpp, |s| {
            geo.seg_tile_range(s)
        });
    }

    // ---------------------------------------------------------- host API

    /// Host read of one PE's GPR.
    pub fn gpr(&self, pe: usize, thread: usize, reg: usize) -> Word {
        self.gprs[self.gpr_base(thread, reg) + pe]
    }

    /// Host write of one PE's GPR (writes to register 0 are ignored).
    pub fn set_gpr(&mut self, pe: usize, thread: usize, reg: usize, v: Word) {
        if reg != 0 {
            let base = self.gpr_base(thread, reg);
            self.gprs[base + pe] = v;
            self.mark_gpr_lane(thread, reg, pe);
        }
    }

    /// Host read of one PE's flag.
    pub fn flag(&self, pe: usize, thread: usize, reg: usize) -> bool {
        self.flag_plane(thread, reg)[pe / BITS_PER_WORD] >> (pe % BITS_PER_WORD) & 1 == 1
    }

    /// Host write of one PE's flag.
    pub fn set_flag(&mut self, pe: usize, thread: usize, reg: usize, v: bool) {
        self.mark_flag_lane(thread, reg, pe);
        let base = self.flag_base(thread, reg);
        let (w, b) = (pe / BITS_PER_WORD, 1u64 << (pe % BITS_PER_WORD));
        if v {
            self.flags[base + w] |= b;
        } else {
            self.flags[base + w] &= !b;
        }
    }

    /// Host read of one PE's local memory word.
    pub fn lmem_word(&self, pe: usize, addr: u32) -> Result<Word, PeFault> {
        Self::check_addr(addr as i64, self.cfg.lmem_words, false)
            .map(|a| self.lmem[a * self.cfg.num_pes + pe])
            .map_err(|fault| PeFault { pe, fault })
    }

    /// Host bulk load into one PE's local memory starting at `base` (data
    /// distribution — the simulator's stand-in for off-chip memory
    /// traffic). The column-major layout makes this a strided write.
    pub fn lmem_load_slice(
        &mut self,
        pe: usize,
        base: usize,
        data: &[Word],
    ) -> Result<(), PeFault> {
        let end = base + data.len();
        if end > self.cfg.lmem_words {
            return Err(PeFault {
                pe,
                fault: MemFault {
                    addr: end as u32 - 1,
                    capacity: self.cfg.lmem_words as u32,
                    is_store: true,
                },
            });
        }
        let n = self.cfg.num_pes;
        for (k, &v) in data.iter().enumerate() {
            self.lmem[(base + k) * n + pe] = v;
            self.mark_lmem_word(base + k, pe);
        }
        Ok(())
    }

    /// Distribute one value per PE into local memory at `addr` (column
    /// layout: `lmem[addr]` of PE `i` = `data[i]`). Contiguous in the
    /// column-major buffer.
    pub fn scatter_column(&mut self, addr: u32, data: &[Word]) -> Result<(), PeFault> {
        let n = self.cfg.num_pes;
        assert_eq!(data.len(), n, "one value per PE");
        let a = Self::check_addr(addr as i64, self.cfg.lmem_words, true)
            .map_err(|fault| PeFault { pe: 0, fault })?;
        self.lmem[a * n..(a + 1) * n].copy_from_slice(data);
        self.mark_lmem_row(a);
        Ok(())
    }

    /// Gather `lmem[addr]` from every PE.
    pub fn gather_column(&self, addr: u32) -> Result<Vec<Word>, PeFault> {
        let n = self.cfg.num_pes;
        let a = Self::check_addr(addr as i64, self.cfg.lmem_words, false)
            .map_err(|fault| PeFault { pe: 0, fault })?;
        Ok(self.lmem[a * n..(a + 1) * n].to_vec())
    }
}

impl Drop for PeArray {
    /// Keep the planes as this thread's spare instead of freeing them
    /// (see [`PeArray::new`]), replacing any spare the thread held. The
    /// scrub runs when the next array takes them, so its cost lands in
    /// that array's construction. A thread tearing down its locals frees
    /// the planes instead.
    fn drop(&mut self) {
        let spare = Spare {
            cfg: self.cfg,
            gprs: std::mem::take(&mut self.gprs),
            flags: std::mem::take(&mut self.flags),
            lmem: std::mem::take(&mut self.lmem),
            scratch: std::mem::take(&mut self.scratch),
            committed: std::mem::take(&mut self.committed),
        };
        let _ = SPARE.try_with(|slot| slot.set(Some(spare)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PeArray {
        PeArray::new(ArrayConfig {
            num_pes: 8,
            threads: 2,
            gprs: 16,
            flags: 8,
            lmem_words: 32,
            width: Width::W16,
            simd: SimdLevel::detect(),
            segments: SegmentGeometry::new(8, 0),
        })
    }

    fn p(i: u8) -> PReg {
        PReg::from_index(i)
    }
    fn pf(i: u8) -> PFlag {
        PFlag::from_index(i)
    }
    fn every(n: usize, f: impl Fn(usize) -> bool) -> ActiveMask {
        ActiveMask::from_bools(&(0..n).map(f).collect::<Vec<_>>())
    }

    #[test]
    fn alu_masked() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.pidx(0, p(1), &all);
        // add 10 only where index >= 4
        let active = every(8, |i| i >= 4);
        a.alu(0, AluOp::Add, p(2), p(1), Src::Imm(Word(10)), &active);
        for i in 0..8 {
            let got = a.gpr(i, 0, 2).to_u32();
            if i >= 4 {
                assert_eq!(got, i as u32 + 10);
            } else {
                assert_eq!(got, 0, "inactive PE must be untouched");
            }
        }
    }

    #[test]
    fn cmp_writes_flags() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.pidx(0, p(1), &all);
        a.cmp(0, CmpOp::Lt, pf(1), p(1), Src::Scalar(Word(3)), &all);
        assert_eq!(a.flag_column(0, 1), vec![true, true, true, false, false, false, false, false]);
    }

    #[test]
    fn threads_have_separate_registers() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.movs(0, p(5), Word(111), &all);
        a.movs(1, p(5), Word(222), &all);
        assert_eq!(a.gpr(3, 0, 5), Word(111));
        assert_eq!(a.gpr(3, 1, 5), Word(222));
    }

    #[test]
    fn zero_register_reads_zero_and_ignores_writes() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.movs(0, p(0), Word(7), &all);
        a.pidx(0, p(0), &all);
        a.alu(0, AluOp::Add, p(0), p(0), Src::Imm(Word(1)), &all);
        assert!(a.gpr_plane(0, 0).iter().all(|&w| w == Word::ZERO));
        // reading p0 as a source yields zero
        a.alu(0, AluOp::Add, p(2), p(0), Src::Imm(Word(5)), &all);
        assert_eq!(a.gpr(3, 0, 2), Word(5));
        a.set_gpr(4, 0, 0, Word(9));
        assert_eq!(a.gpr(4, 0, 0), Word::ZERO);
    }

    #[test]
    fn load_store_round_trip() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.pidx(0, p(1), &all);
        a.alu(0, AluOp::Mul, p(2), p(1), Src::Imm(Word(3)), &all);
        a.store(0, p(2), p(1), 4, &all).unwrap(); // lmem[i+4] = 3i
        a.load(0, p(3), p(1), 4, &all).unwrap();
        for i in 0..8u32 {
            assert_eq!(a.gpr(i as usize, 0, 3).to_u32(), 3 * i);
            assert_eq!(a.lmem_word(i as usize, i + 4).unwrap().to_u32(), 3 * i);
        }
    }

    #[test]
    fn store_fault_reports_lowest_pe() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.pidx(0, p(1), &all);
        // address = idx + 30 → PEs 2.. fault (capacity 32)
        let e = a.store(0, p(1), p(1), 30, &all).unwrap_err();
        assert_eq!(e.pe, 2);
        assert!(e.fault.is_store);
        assert_eq!(e.fault.addr, 32);
    }

    /// Only one middle lane faults: the sweep reports that PE, has applied
    /// every active lane below it and leaves every lane above it unchanged,
    /// for stores and loads, in one segment and with the fault in the
    /// second of two segments.
    #[test]
    fn fault_stops_at_the_faulting_lane() {
        for (n, segs, bad) in [(8usize, 1usize, 4usize), (100, 2, 70)] {
            let mut a = PeArray::new(ArrayConfig {
                num_pes: n,
                threads: 1,
                gprs: 16,
                flags: 8,
                lmem_words: 32,
                width: Width::W16,
                simd: SimdLevel::detect(),
                segments: SegmentGeometry::new(n, segs),
            });
            assert_eq!(a.segments().count(), segs);
            let all = ActiveMask::all(n);
            // base address 2 in every lane but `bad`, whose base is out of
            // range; stored values 100 + PE index
            a.movs(0, p(1), Word(2), &all);
            a.set_gpr(bad, 0, 1, Word(1000));
            a.pidx(0, p(2), &all);
            a.alu(0, AluOp::Add, p(2), p(2), Src::Imm(Word(100)), &all);

            let e = a.store(0, p(2), p(1), 3, &all).unwrap_err();
            assert_eq!((e.pe, e.fault.addr, e.fault.is_store), (bad, 1003, true), "n={n}");
            for i in 0..n {
                let want = if i < bad { 100 + i as u32 } else { 0 };
                assert_eq!(a.lmem_word(i, 5).unwrap().to_u32(), want, "n={n} store lane {i}");
            }

            let row: Vec<Word> = (0..n as u32).map(|i| Word(50 + i)).collect();
            a.scatter_column(5, &row).unwrap();
            a.movs(0, p(3), Word(9), &all);
            let e = a.load(0, p(3), p(1), 3, &all).unwrap_err();
            assert_eq!((e.pe, e.fault.addr, e.fault.is_store), (bad, 1003, false), "n={n}");
            for i in 0..n {
                let want = if i < bad { 50 + i as u32 } else { 9 };
                assert_eq!(a.gpr(i, 0, 3).to_u32(), want, "n={n} load lane {i}");
            }
        }
    }

    #[test]
    fn masked_pes_cannot_fault() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.pidx(0, p(1), &all);
        let active = every(8, |i| i < 2);
        a.store(0, p(1), p(1), 30, &active).unwrap();
    }

    #[test]
    fn load_to_zero_register_still_faults() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.pidx(0, p(1), &all);
        let e = a.load(0, p(0), p(1), 30, &all).unwrap_err();
        assert_eq!(e.pe, 2);
        assert!(!e.fault.is_store);
    }

    #[test]
    fn scatter_gather() {
        let mut a = small();
        let data: Vec<Word> = (0..8).map(|i| Word(i * i)).collect();
        a.scatter_column(7, &data).unwrap();
        assert_eq!(a.gather_column(7).unwrap(), data);
        assert!(a.scatter_column(32, &data).is_err());
    }

    #[test]
    fn lmem_load_slice_is_per_pe() {
        let mut a = small();
        a.lmem_load_slice(3, 2, &[Word(7), Word(8)]).unwrap();
        assert_eq!(a.lmem_word(3, 2).unwrap(), Word(7));
        assert_eq!(a.lmem_word(3, 3).unwrap(), Word(8));
        assert_eq!(a.lmem_word(2, 2).unwrap(), Word::ZERO, "other PEs untouched");
        assert!(a.lmem_load_slice(0, 31, &[Word(0); 2]).is_err());
        assert!(a.lmem_word(0, 32).is_err());
    }

    #[test]
    fn clear_thread_resets_state() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.movs(0, p(4), Word(9), &all);
        a.movs(1, p(4), Word(8), &all);
        a.cmp(0, CmpOp::Eq, pf(2), p(4), Src::Imm(Word(9)), &all);
        a.clear_thread(0);
        assert_eq!(a.gpr(0, 0, 4), Word::ZERO);
        assert!(!a.flag(0, 0, 2));
        assert_eq!(a.gpr(0, 1, 4), Word(8), "other threads keep their state");
        let plane = 8 * std::mem::size_of::<Word>();
        assert_eq!(a.committed_bytes(), plane, "other threads keep their marks");
    }

    #[test]
    fn shift_moves_values_between_pes() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.pidx(0, p(1), &all);
        // shift right by one: pd[i] = pa[i-1]
        a.shift(0, p(2), p(1), 1, &all);
        assert_eq!(
            a.gpr_column(0, 2).iter().map(|w| w.to_u32()).collect::<Vec<_>>(),
            vec![0, 0, 1, 2, 3, 4, 5, 6]
        );
        // shift left by two: pd[i] = pa[i+2]
        a.shift(0, p(3), p(1), -2, &all);
        assert_eq!(
            a.gpr_column(0, 3).iter().map(|w| w.to_u32()).collect::<Vec<_>>(),
            vec![2, 3, 4, 5, 6, 7, 0, 0]
        );
    }

    #[test]
    fn shift_in_place_is_well_defined() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.pidx(0, p(1), &all);
        a.shift(0, p(1), p(1), 1, &all);
        assert_eq!(
            a.gpr_column(0, 1).iter().map(|w| w.to_u32()).collect::<Vec<_>>(),
            vec![0, 0, 1, 2, 3, 4, 5, 6],
            "source column latched before writes"
        );
    }

    #[test]
    fn shift_respects_mask() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.pidx(0, p(1), &all);
        let active = every(8, |i| i % 2 == 0);
        a.shift(0, p(2), p(1), 1, &active);
        let col: Vec<u32> = a.gpr_column(0, 2).iter().map(|w| w.to_u32()).collect();
        assert_eq!(col, vec![0, 0, 1, 0, 3, 0, 5, 0]);
    }

    #[test]
    fn in_place_alu_aliasing() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.pidx(0, p(1), &all);
        a.alu(0, AluOp::Add, p(1), p(1), Src::Reg(p(1)), &all); // p1 = p1 + p1
        let col: Vec<u32> = a.gpr_column(0, 1).iter().map(|w| w.to_u32()).collect();
        assert_eq!(col, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn flag_op_word_parallel_respects_mask() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.pidx(0, p(1), &all);
        a.cmp(0, CmpOp::Lt, pf(1), p(1), Src::Scalar(Word(4)), &all); // 1111_0000 (lanes 0-3)
        a.cmp(0, CmpOp::Lt, pf(2), p(1), Src::Scalar(Word(2)), &all); // lanes 0-1
                                                                      // fd = fa andn fb only where index is even
        let active = every(8, |i| i % 2 == 0);
        a.flag_op(0, FlagOp::AndNot, pf(3), pf(1), pf(2), &active);
        assert_eq!(
            a.flag_column(0, 3),
            vec![false, false, true, false, false, false, false, false]
        );
        // in-place: fd == fa
        a.flag_op(0, FlagOp::Not, pf(1), pf(1), pf(1), &all);
        assert_eq!(a.flag_column(0, 1), vec![false, false, false, false, true, true, true, true]);
    }

    #[test]
    fn write_first_responder_is_one_hot_over_active() {
        let mut a = small();
        let all = ActiveMask::all(8);
        // start with fd set everywhere
        a.flag_op(0, FlagOp::Set, pf(4), pf(4), pf(4), &all);
        let active = every(8, |i| i >= 2);
        a.write_first_responder(0, pf(4), Some(5), &active);
        assert_eq!(
            a.flag_column(0, 4),
            vec![true, true, false, false, false, true, false, false],
            "inactive lanes keep old bits; active lanes cleared except winner"
        );
        a.write_first_responder(0, pf(4), None, &all);
        assert_eq!(a.flag_column(0, 4), vec![false; 8]);
    }

    #[test]
    fn commit_telemetry_tracks_first_touch() {
        let mut a = PeArray::new(ArrayConfig {
            num_pes: 100,
            threads: 2,
            gprs: 16,
            flags: 8,
            lmem_words: 8,
            width: Width::W16,
            simd: SimdLevel::detect(),
            segments: SegmentGeometry::new(100, 2), // 64 + 36 lanes
        });
        assert_eq!(a.committed_bytes(), 0, "a fresh array has touched nothing");
        assert!(a.footprint_bytes() > 0);

        // A host write into lane 70 commits only the ragged second
        // segment (36 lanes) of that one plane.
        a.set_gpr(70, 0, 3, Word(9));
        assert_eq!(a.committed_bytes(), 36 * std::mem::size_of::<Word>());
        // Touching the same slice again commits nothing new.
        a.set_gpr(71, 0, 3, Word(9));
        assert_eq!(a.committed_bytes(), 36 * std::mem::size_of::<Word>());

        // A plane-wide ALU op commits both segments of its destination.
        let all = ActiveMask::all(100);
        a.pidx(0, p(1), &all);
        let committed = a.committed_bytes();
        assert_eq!(committed, (36 + 100) * std::mem::size_of::<Word>());
        assert!(committed <= a.footprint_bytes());

        // Flag planes commit in 64-lane tiles (one u64 per tile).
        a.cmp(0, CmpOp::Lt, pf(2), p(1), Src::Scalar(Word(5)), &all);
        assert_eq!(a.committed_bytes(), committed + 2 * std::mem::size_of::<u64>());
    }

    #[test]
    fn sparse_million_pe_array_constructs_cheaply() {
        let t0 = std::time::Instant::now();
        let mut a = PeArray::new(ArrayConfig {
            num_pes: 1 << 20,
            threads: 1,
            gprs: 16,
            flags: 8,
            lmem_words: 16,
            width: Width::W32,
            simd: SimdLevel::detect(),
            segments: SegmentGeometry::new(1 << 20, 0),
        });
        let built = t0.elapsed();
        // Zero-page-backed planes: ~128 MB of virtual reservation must
        // construct without faulting it in. The budget is generous (CI
        // hosts vary); an eager memset of the planes costs well over it.
        assert!(
            built < std::time::Duration::from_millis(500),
            "2^20-PE construction took {built:?}"
        );
        assert_eq!(a.committed_bytes(), 0);
        assert_eq!(a.segments().count(), 256);

        // Touch one lane: exactly one 4096-lane segment slice commits.
        a.set_gpr(123_456, 0, 1, Word(1));
        assert_eq!(a.committed_bytes(), 4096 * std::mem::size_of::<Word>());
    }

    /// The reuse tests' shape: two threads, and 16 lmem rows to hold the
    /// rows `dirty_every_write_path` writes.
    fn reuse_cfg(num_pes: usize, segments: usize) -> ArrayConfig {
        ArrayConfig {
            num_pes,
            threads: 2,
            gprs: 16,
            flags: 8,
            lmem_words: 16,
            width: Width::W16,
            simd: SimdLevel::detect(),
            segments: SegmentGeometry::new(num_pes, segments),
        }
    }

    /// Write non-zero state through every path that marks the commit map,
    /// each into its own plane or rows, so a path that stops marking
    /// leaves state no other path's mark covers.
    fn dirty_every_write_path(a: &mut PeArray) {
        let n = a.num_pes();
        let all = ActiveMask::all(n);
        let odd = every(n, |i| i % 2 == 1);
        // instruction-major GPR writes, thread 0
        a.pidx(0, p(1), &all);
        a.alu(0, AluOp::Add, p(2), p(1), Src::Reg(p(1)), &all);
        a.alu(0, AluOp::Add, p(3), p(1), Src::Imm(Word(5)), &odd);
        a.shift(0, p(4), p(1), 1, &all);
        a.movs(1, p(5), Word(7), &all);
        // per-lane store and load: p6 = 4 + (lane & 3) addresses rows 4..8
        a.alu(0, AluOp::And, p(6), p(1), Src::Imm(Word(3)), &all);
        a.alu(0, AluOp::Add, p(6), p(6), Src::Imm(Word(4)), &all);
        a.store(0, p(3), p(6), 0, &all).unwrap();
        a.load(0, p(7), p(6), 0, &all).unwrap();
        // uniform-address store (row 1) and load
        a.store(0, p(4), p(0), 1, &odd).unwrap();
        a.load(0, p(8), p(0), 1, &all).unwrap();
        // flag writes
        a.cmp(0, CmpOp::Lt, pf(1), p(1), Src::Scalar(Word(1000)), &all);
        a.flag_op(0, FlagOp::Set, pf(2), pf(2), pf(2), &odd);
        a.write_first_responder(0, pf(4), Some(n - 1), &all);
        // a chain through a tile window, committed through the note_* hooks
        let row = 12;
        {
            let mut tiles = a.thread_tiles(1);
            let mut w = tiles.window(0..tiles.num_tiles());
            w.gpr_mut(9).fill(Word(3));
            w.split_flags(5, [], []).0.copy_from_slice(all.words());
            w.lmem_row_mut(row).fill(Word(6));
        }
        a.note_gpr_write(1, 9);
        a.note_flag_write(1, 5);
        a.note_lmem_write(Some(row as i64));
        // host paths
        a.set_gpr(n / 2, 0, 10, Word(11));
        a.set_flag(n - 1, 1, 6, true);
        a.scatter_column(2, &vec![Word(13); n]).unwrap();
        a.lmem_load_slice(n / 3, 10, &[Word(14), Word(15)]).unwrap();
    }

    /// Whether this thread holds a spare plane set.
    fn spare_held() -> bool {
        SPARE.with(|slot| {
            let spare = slot.take();
            let held = spare.is_some();
            slot.set(spare);
            held
        })
    }

    /// Dirty an array at segment count `from`, drop it, build the same
    /// shape at `to`: the new array must take the old planes and read
    /// zero everywhere, with nothing committed.
    fn assert_reuse_is_invisible(num_pes: usize, from: usize, to: usize) {
        let mut a = PeArray::new(reuse_cfg(num_pes, from));
        dirty_every_write_path(&mut a);
        assert!(a.committed_bytes() > 0);
        let planes = a.gpr_plane(0, 0).as_ptr();
        drop(a);
        assert!(spare_held());

        let b = PeArray::new(reuse_cfg(num_pes, to));
        assert_eq!(b.segments().count(), SegmentGeometry::new(num_pes, to).count());
        assert_eq!(b.gpr_plane(0, 0).as_ptr(), planes, "the spare planes were not reused");
        assert!(!spare_held());
        assert_eq!(b.committed_bytes(), 0);
        let cfg = *b.config();
        for t in 0..cfg.threads {
            for r in 0..cfg.gprs {
                assert!(b.gpr_plane(t, r).iter().all(|&w| w == Word::ZERO), "gpr {t}/{r}");
            }
            for f in 0..cfg.flags {
                assert!(b.flag_plane(t, f).iter().all(|&w| w == 0), "flag {t}/{f}");
            }
        }
        for row in 0..cfg.lmem_words as u32 {
            assert!(b.gather_column(row).unwrap().iter().all(|&w| w == Word::ZERO), "row {row}");
        }
    }

    #[test]
    fn reused_planes_read_zero() {
        // 313 tiles, the last one 32 lanes: auto slicing gives 5 segments
        // and a request for 3 gives 128 + 128 + 57 tiles
        let n = 20_000;
        assert_reuse_is_invisible(n, 1, 0);
        assert_reuse_is_invisible(n, 0, 3);
        // a two-tile array, one segment either way: small planes are reused too
        assert_reuse_is_invisible(100, 1, 0);
    }

    /// The million-PE shape, where the planes are largest.
    #[test]
    fn reused_planes_read_zero_at_2_20() {
        assert_reuse_is_invisible(1 << 20, 1, 0);
        assert_reuse_is_invisible(1 << 20, 0, 3);
    }

    #[test]
    fn another_shape_frees_the_spare() {
        drop(PeArray::new(reuse_cfg(20_000, 0)));
        assert!(spare_held());
        let other = PeArray::new(reuse_cfg(20_064, 0));
        assert!(!spare_held(), "a construction that misses the spare must free it");
        drop(other);
        assert!(spare_held());
        // an array of any size parks its planes, replacing the spare
        let a = small();
        assert!(!spare_held());
        drop(a);
        assert!(spare_held());
        let b = PeArray::new(reuse_cfg(20_000, 0));
        assert!(!spare_held());
        drop(b);
    }

    #[test]
    fn active_is_all_or_the_refilled_flag_plane() {
        let mut a = small();
        let all = ActiveMask::all(8);
        a.pidx(0, p(1), &all);
        a.cmp(0, CmpOp::Lt, pf(2), p(1), Src::Scalar(Word(5)), &all);
        let mut m = ActiveMask::new(8);
        assert_eq!(a.active(0, Mask::Flag(pf(2)), &all, &mut m).to_bools(), a.flag_column(0, 2));
        assert_eq!(m.to_bools(), a.flag_column(0, 2));
        assert!(std::ptr::eq(a.active(0, Mask::All, &all, &mut m), &all));
        assert_eq!(m.to_bools(), a.flag_column(0, 2), "an unmasked instruction leaves the buffer");
    }
}

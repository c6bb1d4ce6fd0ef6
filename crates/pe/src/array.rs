//! The PE array: whole-array functional operations used by the instruction
//! executor and the fusion engine in `asc-core`.
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
//! one 4096-lane occupancy group at a time, and steps over the groups
//! with no active lane by trailing zeros, 64 groups per word test.
//!
//! Every lane-local instruction (parallel ALU and compare operations,
//! `pmovs`, flag logic, local loads and stores, `pidx`) is lowered once per
//! program ([`crate::lane_op`]) and runs behind two entry points:
//! [`PeArray::run_op`] runs one instruction over its active set, and
//! [`PeArray::run_block`] a fused block over the all-active mask. The
//! resolver's one-hot write ([`PeArray::write_first_responder`]) clears
//! its flag through [`PeArray::run_op`] too. Every such sweep calls its
//! executor once per occupied 4096-lane group ([`ActiveMask::occupied`])
//! on a window of the group's tiles (`tiles.rs`) with the group's mask
//! words, one per 64-lane tile, so the call and its set-up are paid per
//! 4096 lanes, not per tile.
//! Inside a group a dense mask word takes a branch-free tile body, a
//! sparse one a masked body or a trailing-zeros scan, and a zero word one
//! test. A sweep large enough to pass the pool's gate runs on every host
//! core (see [`crate::workers`]), a smaller one on the calling thread; a
//! sweep of flag words brings its words to the gate rather than its lanes
//! ([`crate::workers::word_work`]). `shift` reads across lanes, so it always
//! runs on the calling thread, tile by tile ([`ActiveMask::active_tiles`]).
//!
//! Every writer marks the commit map before it writes; the lane-local
//! entry points mark each op's destination, and every local-memory row
//! for a per-lane store, whose rows are known only at run time. The map
//! therefore covers every write, as the reuse below requires, and may
//! cover more.
//!
//! A memory fault stops a single instruction at the lowest faulting active
//! PE: the lanes below it have been applied, the lanes above it are
//! unchanged. A fused block holds no op that can fault
//! ([`LaneOp::can_fault`]), so it never stops part way.
//!
//! ## Plane memory
//!
//! A fresh array's planes are allocated zeroed (`zeroed_words`); large
//! ones are untouched zero pages, so construction costs the same at any
//! size and a page is faulted in on its first write. A commit map
//! records which (plane, segment) slices have been written since
//! construction. When an array is dropped, its planes and commit map
//! become this thread's *spare*; the next array of the same shape built
//! on the thread takes them (see [`PeArray::new`]), which spares it a
//! page fault per page. A thread holds at most one spare, and keeps it
//! until its next construction or its exit.
//!
//! A spare that marks at most [`EAGER_SCRUB_BYTES`] is zeroed at
//! construction, straight from its commit map by the walk `tspawn` uses,
//! a memset that costs a small machine less than zeroing on demand costs
//! its run. In a larger spare the planes and rows the map marks are
//! *stale*: the map becomes the new array's stale record, and the stale
//! planes are zeroed on demand, or not at all:
//!
//! * Every reader returns zeros for a stale plane or row, through `&self`:
//!   a stale GPR plane or local-memory row reads as the thread's
//!   hardwired-zero GPR 0, and a stale flag plane as an all-zero plane
//!   kept after the flag planes.
//! * A write that covers every lane of a stale plane before anything
//!   reads it only clears the plane's record: `scatter_column`, an
//!   unfused op over every lane whose executor writes each active lane,
//!   an unmasked op of a fused block, and `pfirst`'s clear, which reads no
//!   source. The preload and a program's leading full-plane writes
//!   overwrite most of a large spare, and pay no memset for it.
//! * Anything else zeroes the plane's marked slices first: a masked op's
//!   destination, every plane an executor reads raw (a fused op's `?pf`
//!   mask flag among them), every stale row before a per-lane `plw` or
//!   `psw`, and the planes the host setters and `shift` touch.
//! * A plane still stale when the array drops holds an older array's
//!   writes, which the spare's map, fresh from this array, does not mark:
//!   the drop zeroes it, so no plane stays stale past one array.
//!
//! While nothing is stale, a lane-local op pays one test for this; while
//! something is, a bit test per plane it touches, and only a stale plane
//! reaches the out-of-line zeroing. A missed mark leaks the previous
//! machine's state into the next; so does a missed zeroing of a stale
//! plane before a raw read or a partial write.

use std::cell::Cell;

use asc_isa::{FlagOp, Instr, Mask, PFlag, PReg, Width, Word};

use crate::bitmask::{for_each_set, next_set, tail_mask, words_for, ActiveMask, BITS_PER_WORD};
use crate::lane_op::{self, LaneOp, PlaneRef};
use crate::memory::MemFault;
use crate::segments::SegmentGeometry;
use crate::simd::SimdLevel;
use crate::tiles::{Plane, ThreadTiles};

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
    /// Segment slicing of the array (see [`crate::segments`]): the
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

/// The marked bytes of a spare up to which [`PeArray::new`] zeroes its
/// stale planes at construction instead of on demand, half of a 2 MiB
/// L2. Below it the memset costs less than zeroing on demand costs the
/// run, likely because it brings the planes into cache just before the
/// run: on the 256-PE, 16-thread query fleet (63 KiB marked), zeroing on
/// demand read 7.5% slower per op (9 of 10 pairs; the p90 10 of 10).
/// Past it, the planes a run overwrites whole are never zeroed at all
/// (see "Plane memory" in the module docs).
pub const EAGER_SCRUB_BYTES: usize = 1 << 20;

/// Which (plane, segment) slices of an array have been written since it
/// was constructed.
///
/// The map is the array's record of where non-zero state can be, so it
/// must cover every plane write: every unmarked slice is zero. Three
/// things trust that:
///
/// * [`PeArray::clear_thread`] (`tspawn`) zeroes only a thread's marked
///   slices;
/// * a reused spare ([`PeArray::new`]) takes the spare's map as its stale
///   record and zeroes only the marked slices, at construction or on
///   demand: a plane the map does not mark reads its raw contents, so a
///   missed mark leaks the previous machine's state into the next;
/// * [`PeArray::committed_bytes`] reports the marked bytes, the
///   bytes-written figure the scaling bench reports per PE.
///
/// All bitsets are preallocated at construction; marking a write is a
/// few word ORs, so the instruction path stays allocation-free.
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
        CommitMap::sized(cfg, cfg.segments.count())
    }

    /// An empty map of `segs` segments per plane for the planes of `cfg`.
    fn sized(cfg: &ArrayConfig, segs: usize) -> CommitMap {
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

    #[inline]
    fn is_marked(bits: &[u64], idx: usize) -> bool {
        bits[idx / BITS_PER_WORD] >> (idx % BITS_PER_WORD) & 1 == 1
    }

    /// Unmark `idx`, returning whether it was marked.
    #[inline]
    fn take(bits: &mut [u64], idx: usize) -> bool {
        let (w, bit) = (idx / BITS_PER_WORD, 1u64 << (idx % BITS_PER_WORD));
        let marked = bits[w] & bit != 0;
        bits[w] &= !bit;
        marked
    }

    /// Mark the first `count` slices of one plane kind, every slice of
    /// it (a per-lane store's rows); the bits past them stay clear.
    fn mark_all(bits: &mut [u64], count: usize) {
        bits.fill(u64::MAX);
        if let Some(last) = bits.last_mut() {
            *last &= tail_mask(count);
        }
    }

    /// Mark every segment of one plane (dense plane-wide writes), a map
    /// word at a time.
    #[inline]
    fn mark_plane(bits: &mut [u64], plane: usize, seg_count: usize) {
        let (mut idx, end) = (plane * seg_count, (plane + 1) * seg_count);
        while idx < end {
            let (w, b) = (idx / BITS_PER_WORD, idx % BITS_PER_WORD);
            let run = (end - idx).min(BITS_PER_WORD - b);
            bits[w] |= u64::MAX >> (BITS_PER_WORD - run) << b;
            idx += run;
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

    /// Bytes of the slices the map marks, recorded at geometry `geo`.
    fn bytes(&self, geo: SegmentGeometry) -> usize {
        let (segs, word) = (self.seg_count, std::mem::size_of::<Word>());
        let gpr = Self::plane_bytes(&self.gpr, segs, |s| geo.seg_lane_range(s).len() * word);
        let flag = Self::plane_bytes(&self.flag, segs, |s| {
            geo.seg_tile_range(s).len() * std::mem::size_of::<u64>()
        });
        let lmem = Self::plane_bytes(&self.lmem, segs, |s| geo.seg_lane_range(s).len() * word);
        gpr + flag + lmem
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
    /// each, tail bits always zero, then one more plane that is never
    /// written: what a stale flag plane reads as.
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
    /// The planes of a reused spare not yet zeroed or overwritten.
    stale: Stale,
}

/// The kinds of plane the commit map and the stale record index: a
/// (thread, register) GPR plane, a (thread, flag) bitplane, a
/// local-memory row.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Gpr,
    Flag,
    Row,
}

/// The planes and rows of a reused spare that may still hold the dropped
/// array's writes (see "Plane memory" in the module docs): one bit per
/// plane and row, cleared once the array has zeroed or overwritten it,
/// and the spare's commit map, which says which slices of a stale plane
/// to zero. A fresh array has none.
#[derive(Debug, Clone)]
struct Stale {
    /// Planes and rows still stale; while zero, nothing else is read.
    planes: usize,
    /// One bit per stale plane and row: a commit map of one segment.
    whole: CommitMap,
    /// The geometry `map` was recorded at.
    geo: SegmentGeometry,
    map: CommitMap,
}

impl Stale {
    /// No stale planes.
    fn none(geo: SegmentGeometry) -> Stale {
        Stale { planes: 0, whole: CommitMap::default(), geo, map: CommitMap::default() }
    }

    /// Every plane and row that `map`, recorded by an array of config
    /// `cfg`, marks. The walk jumps from a plane's first marked slice to
    /// the next plane, so it costs a step per stale plane.
    fn of(cfg: &ArrayConfig, map: CommitMap) -> Stale {
        let (segs, mut whole) = (map.seg_count, CommitMap::sized(cfg, 1));
        for (bits, planes) in
            [(&map.gpr, &mut whole.gpr), (&map.flag, &mut whole.flag), (&map.lmem, &mut whole.lmem)]
        {
            let mut from = 0;
            while let Some(idx) = next_set(bits, from, bits.len() * BITS_PER_WORD) {
                CommitMap::mark(planes, idx / segs);
                from = (idx / segs + 1) * segs;
            }
        }
        let kinds = [&whole.gpr, &whole.flag, &whole.lmem];
        let planes = kinds.iter().flat_map(|bits| bits.iter()).map(|w| w.count_ones() as usize);
        Stale { planes: planes.sum(), whole, geo: cfg.segments, map }
    }
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

impl Spare {
    /// Zero and unmark every slice the commit map marks, one walk per
    /// plane kind (the walk `tspawn` trusts, [`CommitMap::scrub`]).
    fn scrub(&mut self) {
        let (c, geo, map) = (self.cfg, self.cfg.segments, &mut self.committed);
        let (n, segs) = (c.num_pes, map.seg_count);
        let lanes = |s| geo.seg_lane_range(s);
        let tiles = |s| geo.seg_tile_range(s);
        CommitMap::scrub(&mut map.gpr, segs, 0..c.threads * c.gprs, &mut self.gprs, n, lanes);
        let flag_planes = 0..c.threads * c.flags;
        CommitMap::scrub(&mut map.flag, segs, flag_planes, &mut self.flags, words_for(n), tiles);
        CommitMap::scrub(&mut map.lmem, segs, 0..c.lmem_words, &mut self.lmem, n, lanes);
    }
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
    /// `flags` and `lmem_words`, the array takes it. The segment count,
    /// SIMD tier and width may differ. If the slices the spare's commit
    /// map marks total at most [`EAGER_SCRUB_BYTES`], they are zeroed here,
    /// a memset of what the previous array wrote; otherwise the marked
    /// planes are stale, read as zero, and are zeroed only when something
    /// would see their contents (see "Plane memory" in the module docs).
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
            flags: vec![0; (cfg.threads * cfg.flags + 1) * words_for(n)],
            lmem: zeroed_words(cfg.lmem_words * n),
            scratch: zeroed_words(n),
            committed: CommitMap::new(&cfg),
            stale: Stale::none(cfg.segments),
            cfg,
        }
    }

    /// Take the spare's planes under `cfg` with a fresh commit map. If the
    /// spare's commit map marks at most [`EAGER_SCRUB_BYTES`], zero what it
    /// marks here, straight from the map, and keep the emptied map when
    /// its geometry is `cfg`'s; otherwise the map, at the spare's
    /// geometry, becomes the stale record.
    fn from_spare(cfg: ArrayConfig, mut spare: Spare) -> PeArray {
        let (committed, stale) = if spare.committed.bytes(spare.cfg.segments) <= EAGER_SCRUB_BYTES {
            spare.scrub();
            let same = spare.cfg.segments == cfg.segments;
            let map = if same { spare.committed } else { CommitMap::new(&cfg) };
            (map, Stale::none(cfg.segments))
        } else {
            (CommitMap::new(&cfg), Stale::of(&spare.cfg, spare.committed))
        };
        PeArray {
            gprs: spare.gprs,
            flags: spare.flags,
            lmem: spare.lmem,
            scratch: spare.scratch,
            committed,
            stale,
            cfg,
        }
    }

    /// Array geometry.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.cfg.num_pes
    }

    /// The segment slicing, the granularity of the commit map.
    pub fn segments(&self) -> SegmentGeometry {
        self.cfg.segments
    }

    /// Bytes of plane storage actually committed (written at least once),
    /// at segment granularity — the "only pay for what you touch" figure.
    /// A freshly constructed array reports zero no matter how large it is.
    pub fn committed_bytes(&self) -> usize {
        self.committed.bytes(self.cfg.segments)
    }

    /// Total reserved (virtual) plane storage in bytes — the upper bound
    /// [`PeArray::committed_bytes`] approaches as planes are touched.
    pub fn footprint_bytes(&self) -> usize {
        let word = std::mem::size_of::<Word>();
        (self.gprs.len() + self.lmem.len() + self.scratch.len()) * word
            + self.flags.len() * std::mem::size_of::<u64>()
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

    /// Whether `at`, of `thread`'s state (for rows, any thread's), is
    /// stale; for `PlaneRef::Rows`, whether any row is. One test while
    /// nothing is stale, then a bit test.
    #[inline]
    fn stale_at(&self, thread: usize, at: PlaneRef) -> bool {
        if self.stale.planes == 0 {
            return false;
        }
        let whole = &self.stale.whole;
        let (g, f) = (thread * self.cfg.gprs, thread * self.cfg.flags);
        match at {
            PlaneRef::None => false,
            PlaneRef::Gpr(r) => CommitMap::is_marked(&whole.gpr, g + r),
            PlaneRef::Flag(i) => CommitMap::is_marked(&whole.flag, f + i),
            PlaneRef::Row(r) => CommitMap::is_marked(&whole.lmem, r),
            PlaneRef::Rows => whole.lmem.iter().any(|&w| w != 0),
        }
    }

    /// If `at`, of `thread`'s state, is stale, take it off the stale
    /// record, and first zero the slices the spare's map marks unless
    /// `overwrite`: the caller writes every lane of it before anything
    /// reads it. `PlaneRef::Rows` settles every stale row.
    #[inline]
    fn settle(&mut self, thread: usize, at: PlaneRef, overwrite: bool) {
        if !self.stale_at(thread, at) {
            return;
        }
        let (g, f) = (thread * self.cfg.gprs, thread * self.cfg.flags);
        match at {
            PlaneRef::None => {}
            PlaneRef::Gpr(r) => self.settle_planes(Kind::Gpr, g + r..g + r + 1, overwrite),
            PlaneRef::Flag(i) => self.settle_planes(Kind::Flag, f + i..f + i + 1, overwrite),
            PlaneRef::Row(r) => self.settle_planes(Kind::Row, r..r + 1, overwrite),
            PlaneRef::Rows => self.settle_planes(Kind::Row, 0..self.cfg.lmem_words, overwrite),
        }
    }

    /// [`PeArray::settle`] for the stale planes among `planes` of one
    /// kind, indexed as in the commit map. Out of line: only an array built
    /// on a spare comes here, and only until nothing is stale.
    #[cold]
    #[inline(never)]
    fn settle_planes(&mut self, kind: Kind, planes: std::ops::Range<usize>, overwrite: bool) {
        #[allow(clippy::too_many_arguments)]
        fn settle<T: Copy + Default>(
            whole: &mut [u64],
            bits: &mut [u64],
            segs: usize,
            planes: std::ops::Range<usize>,
            overwrite: bool,
            buf: &mut [T],
            plane_len: usize,
            seg: impl Fn(usize) -> std::ops::Range<usize>,
        ) -> usize {
            let (mut settled, mut from) = (0, planes.start);
            while let Some(p) = next_set(whole, from, planes.end) {
                CommitMap::take(whole, p);
                if !overwrite {
                    CommitMap::scrub(bits, segs, p..p + 1, buf, plane_len, &seg);
                }
                (settled, from) = (settled + 1, p + 1);
            }
            settled
        }
        let (n, wpp) = (self.cfg.num_pes, self.words_per_plane());
        let Stale { planes: count, whole, geo, map } = &mut self.stale;
        let (geo, segs) = (*geo, map.seg_count);
        let lanes = |s| geo.seg_lane_range(s);
        *count -= match kind {
            Kind::Gpr => settle(
                &mut whole.gpr,
                &mut map.gpr,
                segs,
                planes,
                overwrite,
                &mut self.gprs,
                n,
                lanes,
            ),
            Kind::Flag => {
                let tiles = |s| geo.seg_tile_range(s);
                let (w, bits) = (&mut whole.flag, &mut map.flag);
                settle(w, bits, segs, planes, overwrite, &mut self.flags, wpp, tiles)
            }
            Kind::Row => settle(
                &mut whole.lmem,
                &mut map.lmem,
                segs,
                planes,
                overwrite,
                &mut self.lmem,
                n,
                lanes,
            ),
        };
    }

    /// Zero every plane and row still stale.
    fn zero_stale(&mut self) {
        let c = self.cfg;
        self.settle_planes(Kind::Gpr, 0..c.threads * c.gprs, false);
        self.settle_planes(Kind::Flag, 0..c.threads * c.flags, false);
        self.settle_planes(Kind::Row, 0..c.lmem_words, false);
    }

    /// Whether `op`, run for `thread`, reads or writes a stale plane: a
    /// bit test per plane, in line, so an op that touches none pays no call
    /// while other planes are stale.
    #[inline]
    fn touches_stale(&self, thread: usize, op: &LaneOp) -> bool {
        let [a, b] = op.sources();
        [a, b, op.dst()].into_iter().any(|at| self.stale_at(thread, at))
    }

    /// Settle what one unfused `op` touches before it runs for `thread`
    /// over `active`: zero every stale plane it reads, then its stale
    /// destination, unless the op writes every lane of it (an executor
    /// that writes each active lane, over every lane).
    #[cold]
    #[inline(never)]
    fn settle_op(&mut self, thread: usize, op: &LaneOp, active: &ActiveMask) {
        for src in op.sources() {
            self.settle(thread, src, false);
        }
        let dst = op.dst();
        // every op but a per-lane `plw`/`psw`, which stops at a fault and
        // whose rows vary by lane, writes each of its active lanes
        let overwrite = !op.can_fault() && self.stale_at(thread, dst) && active.is_full();
        self.settle(thread, dst, overwrite);
    }

    /// Settle what a fused block's ops touch before it runs for `thread`,
    /// op by op in block order, as the block applies them to each group:
    /// each op's stale sources and `?pf` mask flag, which the block latches
    /// raw, are zeroed, and its stale destination too unless the op is
    /// unmasked, which over the block's all-active mask writes every lane
    /// of it (an earlier op's full write is then what later ops read).
    #[cold]
    #[inline(never)]
    fn settle_block(&mut self, thread: usize, ops: &[LaneOp]) {
        for op in ops {
            for src in op.sources() {
                self.settle(thread, src, false);
            }
            let masked = match op.mask() {
                Mask::All => false,
                Mask::Flag(f) => {
                    self.settle(thread, PlaneRef::Flag(f.index()), false);
                    true
                }
            };
            // as in `settle_op`: an op that cannot fault writes each of its
            // active lanes
            self.settle(thread, op.dst(), !masked && !op.can_fault());
        }
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
    #[inline]
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

    /// Inter-PE shift through the interconnection network:
    /// `pd[i] = pa[i - dist]` for active PEs, zero shifted in at the
    /// boundary. The column is latched before any write, so `pd == pa` is
    /// well defined.
    pub fn shift(&mut self, thread: usize, pd: PReg, pa: PReg, dist: i32, active: &ActiveMask) {
        if pd.index() == 0 {
            return;
        }
        self.settle(thread, PlaneRef::Gpr(pa.index()), false);
        self.settle(thread, PlaneRef::Gpr(pd.index()), false);
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

    /// Write the multiple response resolver's one-hot result: clear `fd`
    /// in every active PE, flag logic (`pfclr`) run through
    /// [`PeArray::run_op`], then set it in the winning PE (if any). The
    /// winner must be active. The clear reads no source, so over every lane
    /// it overwrites a stale `fd` without zeroing it first.
    pub fn write_first_responder(
        &mut self,
        thread: usize,
        fd: PFlag,
        winner: Option<usize>,
        active: &ActiveMask,
    ) {
        let c = &self.cfg;
        let clear = Instr::PFlagOp { op: FlagOp::Clr, fd, fa: fd, fb: fd, mask: Mask::All };
        let clear = LaneOp::lower(&clear, c.width, c.simd, c.lmem_words).expect("lane-local");
        self.run_op(thread, &clear, active).expect("flag logic cannot fault");
        if let Some(pe) = winner {
            let d_base = self.flag_base(thread, fd.index());
            debug_assert!(active.is_active(pe), "resolver winner must be active");
            self.flags[d_base + pe / BITS_PER_WORD] |= 1u64 << (pe % BITS_PER_WORD);
        }
    }

    /// Run one lane-local instruction, lowered ([`LaneOp::lower`]), for
    /// `thread` over the active lanes of `active`: an unfused issue.
    ///
    /// The op's destination is marked in the commit map first (a per-lane
    /// store marks every local-memory row), after the stale planes it
    /// touches are settled (see "Plane memory" in the module docs), which
    /// costs one test while nothing is stale. The mask words are read in
    /// place, and the op's executor runs once per occupied 4096-lane group
    /// on a window of that group; empty groups are never visited. A
    /// sweep whose active lanes (flag logic: flag words) pass the worker
    /// pool's gate runs on every host core; a per-lane `plw`/`psw`, the
    /// one op that can fault ([`LaneOp::can_fault`]), always runs on the
    /// caller in lane order.
    ///
    /// # Errors
    /// A memory fault stops the op at the lowest faulting active PE, which
    /// the error names: the active lanes below it have been applied, the
    /// lanes above it are unchanged (see [`crate::lane_op`]).
    #[inline]
    pub fn run_op(
        &mut self,
        thread: usize,
        op: &LaneOp,
        active: &ActiveMask,
    ) -> Result<(), PeFault> {
        debug_assert_eq!(active.lanes(), self.cfg.num_pes);
        if self.stale.planes != 0 && self.touches_stale(thread, op) {
            self.settle_op(thread, op, active);
        }
        self.mark_dst(thread, op.dst());
        lane_op::run_op(&mut self.thread_tiles(thread), op, active)
    }

    /// Run a fused block of lane-local ops for `thread` over the
    /// all-active mask `all`, one 4096-lane occupancy group at a time, each
    /// op over the whole group before the next (see [`crate::lane_op`]).
    /// Every op's destination is marked in the commit map first, after the
    /// stale planes the block touches are settled. No op may
    /// be one that can fault ([`LaneOp::can_fault`]): the fusion plan
    /// admits none, so a block always runs to completion.
    pub fn run_block(&mut self, thread: usize, ops: &[LaneOp], all: &ActiveMask) {
        debug_assert_eq!(all.lanes(), self.cfg.num_pes);
        if self.stale.planes != 0 {
            self.settle_block(thread, ops);
        }
        for op in ops {
            debug_assert!(!op.can_fault(), "a fused block holds an op that can fault: {op:?}");
            self.mark_dst(thread, op.dst());
        }
        lane_op::run_block(&mut self.thread_tiles(thread), ops, all)
    }

    /// Mark what a lane-local op may write: its register or flag plane, its
    /// local-memory row, or every row for a per-lane store.
    #[inline(always)]
    fn mark_dst(&mut self, thread: usize, dst: PlaneRef) {
        match dst {
            PlaneRef::None => {}
            PlaneRef::Gpr(r) => self.mark_gpr_plane(thread, r),
            PlaneRef::Flag(f) => self.mark_flag_plane(thread, f),
            PlaneRef::Row(r) => self.mark_lmem_row(r),
            PlaneRef::Rows => {
                let rows = self.cfg.lmem_words * self.committed.seg_count;
                CommitMap::mark_all(&mut self.committed.lmem, rows);
            }
        }
    }

    /// A mutable tile-wise view of one thread's registers, flags, and
    /// local memory (see `tiles.rs`); it cannot reach other threads'
    /// state. Writes through it bypass the commit map, so the caller marks
    /// every plane and row it may write first.
    #[inline]
    pub(crate) fn thread_tiles(&mut self, thread: usize) -> ThreadTiles<'_> {
        let n = self.cfg.num_pes;
        let wpp = self.words_per_plane();
        let g = self.gpr_base(thread, 0);
        let f = self.flag_base(thread, 0);
        ThreadTiles::new(
            &mut self.gprs[g..g + self.cfg.gprs * n],
            &mut self.flags[f..f + self.cfg.flags * wpp],
            &mut self.lmem,
            &self.cfg,
        )
    }

    /// A GPR plane across all PEs, as a contiguous slice (input to the
    /// reduction network). A stale plane reads as the thread's GPR 0,
    /// which is hardwired zero.
    #[inline]
    pub fn gpr_plane(&self, thread: usize, reg: usize) -> &[Word] {
        let reg = if self.stale_at(thread, PlaneRef::Gpr(reg)) { 0 } else { reg };
        let base = self.gpr_base(thread, reg);
        &self.gprs[base..base + self.cfg.num_pes]
    }

    /// A flag bitplane across all PEs (input to the responder units); one
    /// bit per PE, tail bits zero. A stale plane reads as the all-zero
    /// plane after the flag planes.
    #[inline]
    pub fn flag_plane(&self, thread: usize, flag: usize) -> &[u64] {
        let wpp = self.words_per_plane();
        let base = if self.stale_at(thread, PlaneRef::Flag(flag)) {
            self.cfg.threads * self.cfg.flags * wpp
        } else {
            self.flag_base(thread, flag)
        };
        &self.flags[base..base + wpp]
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

    /// Bounds-check a host access's address against local memory.
    #[inline]
    fn check_addr(ea: i64, capacity: usize, is_store: bool) -> Result<usize, MemFault> {
        if (0..capacity as i64).contains(&ea) {
            Ok(ea as usize)
        } else {
            Err(MemFault { addr: ea as u32, capacity: capacity as u32, is_store })
        }
    }

    // ---------------------------------------------------------- host API

    /// Host read of one PE's GPR.
    pub fn gpr(&self, pe: usize, thread: usize, reg: usize) -> Word {
        self.gpr_plane(thread, reg)[pe]
    }

    /// Host write of one PE's GPR (writes to register 0 are ignored).
    pub fn set_gpr(&mut self, pe: usize, thread: usize, reg: usize, v: Word) {
        if reg != 0 {
            self.settle(thread, PlaneRef::Gpr(reg), false);
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
        self.settle(thread, PlaneRef::Flag(reg), false);
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
        self.lmem_row(addr)
            .map(|row| row[pe])
            .map_err(|PeFault { fault, .. }| PeFault { pe, fault })
    }

    /// Local-memory row `addr` of every PE, in place, one word per PE. A
    /// stale row reads as thread 0's GPR 0, which is hardwired zero.
    pub fn lmem_row(&self, addr: u32) -> Result<&[Word], PeFault> {
        let n = self.cfg.num_pes;
        let a = Self::check_addr(addr as i64, self.cfg.lmem_words, false)
            .map_err(|fault| PeFault { pe: 0, fault })?;
        if self.stale_at(0, PlaneRef::Row(a)) {
            return Ok(&self.gprs[..n]);
        }
        Ok(&self.lmem[a * n..(a + 1) * n])
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
        // a test per row once the first call has zeroed the rows: a
        // preload writes the same rows of every PE in turn
        if (base..end).any(|row| self.stale_at(0, PlaneRef::Row(row))) {
            self.settle_planes(Kind::Row, base..end, false);
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
    ///
    /// The copy is a sweep of `num_pes` lanes over the row's occupancy
    /// groups: past the worker pool's gate each participant copies the
    /// groups it claims, which are the groups its later sweeps over the
    /// row claim first; below it the caller copies the whole row at once.
    pub fn scatter_column(&mut self, addr: u32, data: &[Word]) -> Result<(), PeFault> {
        let n = self.cfg.num_pes;
        assert_eq!(data.len(), n, "one value per PE");
        let a = Self::check_addr(addr as i64, self.cfg.lmem_words, true)
            .map_err(|fault| PeFault { pe: 0, fault })?;
        self.settle(0, PlaneRef::Row(a), true);
        self.thread_tiles(0).sweep(n, |groups| {
            let mut win = groups.whole();
            let base = win.base();
            let (row, []) = win.split(Plane::Row(a), []);
            row.copy_from_slice(&data[base..base + row.len()]);
        });
        self.mark_lmem_row(a);
        Ok(())
    }

    /// Gather `lmem[addr]` from every PE.
    pub fn gather_column(&self, addr: u32) -> Result<Vec<Word>, PeFault> {
        self.lmem_row(addr).map(<[Word]>::to_vec)
    }
}

impl Drop for PeArray {
    /// Keep the planes as this thread's spare instead of freeing them
    /// (see [`PeArray::new`]), replacing any spare the thread held, after
    /// zeroing every plane still stale, which the spare's map does not
    /// mark. The planes the array wrote are zeroed on demand by the next
    /// array that takes them. A thread tearing down its locals frees the
    /// planes instead.
    fn drop(&mut self) {
        if self.stale.planes != 0 {
            self.zero_stale();
        }
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
    use crate::lane_op::testing::{Issue, Src};
    use asc_isa::{AluOp, CmpOp, Instr};

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

    /// A plane's segment bits, set a map word at a time, are exactly its
    /// own, also where they straddle two map words; and the stale record
    /// built from a map holds each plane with a marked slice, whole or
    /// partial, and no other.
    #[test]
    fn plane_bits_straddle_map_words() {
        let (planes, marked) = (40, [0, 12, 39]);
        for segs in [1, 3, 5, 64, 256] {
            let mut bits = vec![0u64; words_for(planes * segs)];
            for p in marked {
                CommitMap::mark_plane(&mut bits, p, segs);
            }
            for i in 0..planes * segs {
                let set = bits[i / BITS_PER_WORD] >> (i % BITS_PER_WORD) & 1 == 1;
                assert_eq!(set, marked.contains(&(i / segs)), "{segs} segments, bit {i}");
            }
        }
        for (num_pes, segments) in [(20_000, 1), (20_000, 0), (1 << 20, 0)] {
            let cfg = reuse_cfg(num_pes, segments);
            let segs = cfg.segments.count();
            let mut map = CommitMap::new(&cfg);
            CommitMap::mark_plane(&mut map.gpr, 17, segs);
            CommitMap::mark(&mut map.flag, 3 * segs + segs - 1);
            CommitMap::mark_all(&mut map.lmem, cfg.lmem_words * segs);
            let stale = Stale::of(&cfg, map);
            let label = format!("{num_pes} PEs, {segs} segments");
            assert_eq!(stale.planes, 2 + cfg.lmem_words, "{label}");
            for p in 0..cfg.threads * cfg.gprs {
                assert_eq!(CommitMap::is_marked(&stale.whole.gpr, p), p == 17, "{label}: gpr {p}");
            }
            for p in 0..cfg.threads * cfg.flags {
                assert_eq!(CommitMap::is_marked(&stale.whole.flag, p), p == 3, "{label}: flag {p}");
            }
            assert!((0..cfg.lmem_words).all(|r| CommitMap::is_marked(&stale.whole.lmem, r)));
        }
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
    /// leaves state no other path's mark covers. A per-lane store marks
    /// every local-memory row, which covers every other path's rows, so it
    /// runs only when `per_lane_store` is set.
    ///
    /// Run on an array whose planes another run of it left stale, it
    /// reads what its masked writes leave behind: p3's even lanes, which
    /// it fills only after reading them into p11, and thread 1's flag 6,
    /// which masks an op of the fused block before the host sets it.
    fn dirty_every_write_path(a: &mut PeArray, per_lane_store: bool) {
        let n = a.num_pes();
        let all = ActiveMask::all(n);
        let odd = every(n, |i| i % 2 == 1);
        // single-instruction GPR writes, thread 0
        a.pidx(0, p(1), &all);
        a.alu(0, AluOp::Add, p(2), p(1), Src::Reg(p(1)), &all);
        a.alu(0, AluOp::Add, p(3), p(1), Src::Imm(Word(5)), &odd);
        a.alu(0, AluOp::Or, p(11), p(3), Src::Reg(p(0)), &all);
        a.alu(0, AluOp::Add, p(3), p(1), Src::Imm(Word(9)), &every(n, |i| i % 2 == 0));
        a.shift(0, p(4), p(1), 1, &all);
        a.movs(1, p(5), Word(7), &all);
        // per-lane store and load: p6 = 4 + (lane & 3) addresses rows 4..8
        a.alu(0, AluOp::And, p(6), p(1), Src::Imm(Word(3)), &all);
        a.alu(0, AluOp::Add, p(6), p(6), Src::Imm(Word(4)), &all);
        if per_lane_store {
            a.store(0, p(3), p(6), 0, &all).unwrap();
        }
        a.load(0, p(7), p(6), 0, &all).unwrap();
        // uniform-address store (row 1) and load
        a.store(0, p(4), p(0), 1, &odd).unwrap();
        a.load(0, p(8), p(0), 1, &all).unwrap();
        // flag writes
        a.cmp(0, CmpOp::Lt, pf(1), p(1), Src::Scalar(Word(1000)), &all);
        a.flag_op(0, FlagOp::Set, pf(2), pf(2), pf(2), &odd);
        a.write_first_responder(0, pf(4), Some(n - 1), &all);
        // a fused block, thread 1: GPRs 9, 10 and 12, flag 5 and row 12,
        // p12 under flag 6, which only the host path below writes
        let (mask, w, level) = (Mask::All, a.config().width, a.config().simd);
        let block = [
            Instr::PAluImm { op: AluOp::Add, pd: p(9), pa: p(0), imm: 3, mask },
            Instr::PFlagOp { op: FlagOp::Set, fd: pf(5), fa: pf(5), fb: pf(5), mask },
            Instr::PAluImm { op: AluOp::Add, pd: p(10), pa: p(0), imm: 6, mask },
            Instr::PAluImm { op: AluOp::Add, pd: p(12), pa: p(9), imm: 1, mask: Mask::Flag(pf(6)) },
            Instr::Psw { ps: p(10), base: p(0), off: 12, mask },
        ]
        .map(|i| LaneOp::lower(&i, w, level, a.config().lmem_words).unwrap());
        a.run_block(1, &block, &all);
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
    /// zero everywhere, with nothing committed. Then the same writes on it
    /// and on a fresh array must leave the same state. Once with the
    /// per-lane store and once without, whose rows then rest on their own
    /// marks.
    fn assert_reuse_is_invisible(num_pes: usize, from: usize, to: usize) {
        for per_lane_store in [true, false] {
            assert_reuse_is_invisible_after(num_pes, from, to, per_lane_store);
        }
    }

    fn assert_reuse_is_invisible_after(
        num_pes: usize,
        from: usize,
        to: usize,
        per_lane_store: bool,
    ) {
        let mut a = PeArray::new(reuse_cfg(num_pes, from));
        dirty_every_write_path(&mut a, per_lane_store);
        assert!(a.committed_bytes() > 0);
        let planes = a.gpr_plane(0, 0).as_ptr();
        drop(a);
        assert!(spare_held());

        let mut b = PeArray::new(reuse_cfg(num_pes, to));
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

        let mut fresh = PeArray::new(cfg);
        assert_ne!(fresh.gpr_plane(0, 0).as_ptr(), planes, "no spare is left to reuse");
        dirty_every_write_path(&mut b, per_lane_store);
        dirty_every_write_path(&mut fresh, per_lane_store);
        let label =
            format!("{num_pes} PEs, segments {from} -> {to}, per-lane store {per_lane_store}");
        for t in 0..cfg.threads {
            for r in 0..cfg.gprs {
                assert!(b.gpr_plane(t, r) == fresh.gpr_plane(t, r), "{label}: gpr {t}/{r}");
            }
            for f in 0..cfg.flags {
                assert!(b.flag_plane(t, f) == fresh.flag_plane(t, f), "{label}: flag {t}/{f}");
            }
        }
        for row in 0..cfg.lmem_words as u32 {
            let same = b.gather_column(row).unwrap() == fresh.gather_column(row).unwrap();
            assert!(same, "{label}: row {row}");
        }
        assert_eq!(b.committed_bytes(), fresh.committed_bytes(), "{label}: committed bytes");
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

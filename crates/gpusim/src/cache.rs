//! Set-associative cache simulation and warp-divergence analysis.
//!
//! Address streams are synthesized from the access descriptors tensor ops
//! emit — including the *actual* index arrays of gathers, scatters, SpMM
//! and sorts — coalesced into per-warp line accesses, then driven through
//! an L1 → L2 hierarchy. Long streams are sampled with a recorded scale
//! factor.
//!
//! # The walk
//!
//! [`simulate_kernel`] picks one instantiation of the walker per kernel:
//! `<L1_WAYS, L2_WAYS>` for the hierarchy `GpuModel::new` builds, `<0, 0>`
//! ("ways known only at run time") for any other geometry. For the length
//! of a descriptor the walker holds each level's tag slice, set count and
//! access / hit counts in locals, probes every simulated line through the
//! one inlined routine `promote` — the same routine
//! [`CacheSim::access_line`] calls — and writes the counts back once.
//! There is no per-line call and no per-line access to a `CacheSim` field.
//!
//! # The run rule
//!
//! A `Sequential` descriptor is a run: `count` lines `first + i · step`.
//! `touch_run` needs `step ≥ 1` from its caller, and then:
//!
//! 1. the run's lines are distinct;
//! 2. their L1 set index is periodic in `i` with period
//!    `p = sets / gcd(step mod sets, sets)`, visiting `p` distinct sets once
//!    per period;
//! 3. so after `warm = ways · p` accesses every set the run touches has
//!    taken `ways` newer lines, which evicts everything older: from there on
//!    each run line misses L1 whatever the cache held before, and the last
//!    `ways` lines per touched set — the last `warm` accesses — alone decide
//!    the final L1 state.
//!
//! When `count > 2 · warm` the first `warm` lines are probed normally, the
//! middle `count − 2 · warm` go straight to L2 in order (counted as L1
//! accesses, no L1 probe, no L1 state change), and the last `warm` are
//! probed normally again; they find only first-`warm` lines in their sets,
//! miss as they would have, and leave each touched set holding its last
//! `ways` run lines in MRU order. Counts, L2 traffic and both tag arrays
//! equal the line-by-line walk's.
//!
//! # The resident-region rule
//!
//! A `Random` descriptor draws each warp's 32 lanes from a region of `R`
//! consecutive lines; the walk touches nothing else. When `R ≤ sets · ways`
//! of L1:
//!
//! 1. consecutive lines fall in consecutive sets, so each set holds at most
//!    `⌈R / sets⌉ ≤ ways` region lines;
//! 2. LRU keeps a set's `ways` most recent distinct lines, so a region line
//!    touched once in this walk stays in L1 for the rest of it;
//! 3. so once every region line has been touched, no probe can miss.
//!
//! Until then the walk runs as usual and records, per region offset, the
//! iteration that last touched it. After coverage each warp still draws its
//! 32 lanes, but it is neither sorted nor probed: its distinct lines are
//! counted (an offset whose stamp is not this iteration's is new to the
//! warp) as L1 accesses and hits, and L2 sees nothing. A hit-only stretch
//! leaves each set holding the lines it touched, most recent use first,
//! then its untouched lines in their old order, so at the end
//! `replay_last_uses` promotes just the last use of each line touched after
//! coverage, ordered by iteration and then by line (a warp probes its
//! lines in ascending order). Counts and both tag arrays equal the
//! line-by-line walk's.
//!
//! # The region walk
//!
//! Every `Random` warp before coverage — and every warp of a region larger
//! than L1, which the resident-region rule never reaches — goes through
//! `Walker::touch_region`. It yields the counts and tag arrays of
//! `Walker::touch` over the sorted, deduplicated lines, by three means:
//!
//! 1. **Order without a sort.** Up to `BITMAP_CUT` region lines, the 32
//!    drawn offsets are set in a region-sized bitmap and read back lowest
//!    bit first (`drain_bitmap`): the same distinct lines, in the same
//!    ascending order, as `sort_unstable` and `dedup_lines`. Larger
//!    regions sort.
//! 2. **Probes that do not branch on a drawn line's fate.** Its way, and
//!    whether it hits, are random, so branches on them mispredict. At 4
//!    ways `promote_select4` does `promote`'s move-to-front with four
//!    compares and three selects; other walks keep `promote`, which
//!    predicts well there. All of a warp's L1 probes run first, appending
//!    each line to a miss list whether or not it missed (the list only
//!    grows on a miss), and L2 then takes the list in order. The levels
//!    share no state, so each sees the probes, in the order, that `touch`
//!    gives it.
//! 3. **The known-L2-hit rule.** While `R ≤` the L2's set count, the
//!    region's consecutive lines fall in distinct L2 sets, and the walk
//!    touches no other line. A line this walk has already probed in L2 was
//!    put at the front of its set, and nothing since has entered that set,
//!    so probing it again is a hit at position 0 that moves nothing: it is
//!    counted as one L2 access and one hit, with no probe.
//!
//! Region offsets, and with them both set indices, come from `Rem48`'s
//! exact multiply-shift rather than a divide.

use gnnmark_tensor::AccessDesc;

use crate::device::DeviceSpec;

/// Maximum line accesses simulated per kernel (streams beyond this are
/// stride-sampled; counts are rescaled).
const SAMPLE_CAP: usize = 1 << 16;

/// The largest region, in lines, whose warps the region walk orders with a
/// bitmap (module docs, "the region walk"); larger regions sort each warp.
/// Draining the bitmap's `R / 64` words beat sorting 32 lines at 3 072
/// lines and lost at 4 096 (DESIGN.md item 5, "Region walk").
const BITMAP_CUT: usize = 3072;

/// Associativity of the L1 `GpuModel::new` builds and the walker fixes.
pub(crate) const L1_WAYS: usize = 4;
/// Associativity of the L2 `GpuModel::new` builds and the walker fixes.
pub(crate) const L2_WAYS: usize = 16;

/// A set-associative, LRU, write-allocate cache model.
///
/// Each set is one contiguous run of `ways` tags in recency order, most
/// recent first. A tag is `line + 1` and `0` marks an empty way, so a new
/// cache is an all-zero allocation that the OS backs lazily: a model of the
/// A100's 40 MB L2 owns 2.6 MB of tags but only pays for the sets a stream
/// reaches. Filling the vector with any other sentinel would touch all of
/// it in every `GpuModel::new`. Tags are as wide as line numbers: a
/// `Strided` descriptor's addresses are not wrapped, and a paper-scale
/// transpose walks lines far above `u32::MAX`.
#[derive(Debug, Clone)]
pub struct CacheSim {
    sets: u64,
    ways: usize,
    line_bytes: u64,
    /// tags[set * ways..][..ways], MRU first; empty ways trail.
    tags: Vec<u64>,
    accesses: u64,
    hits: u64,
}

/// The one probe routine: moves `tag` to the front of MRU-first set `set` of
/// `tags` and reports whether it was already resident; on a miss the last
/// (least recent or empty) way drops out. `W` is the associativity when it
/// is known at compile time (the set then unrolls in registers) and `0`
/// when only `ways` knows it. Inlined into every walk so the slice, the
/// geometry and the caller's counters stay in registers across lines.
#[inline(always)]
fn promote<const W: usize>(tags: &mut [u64], ways: usize, set: u64, tag: u64) -> bool {
    let ways = if W == 0 { ways } else { W };
    let base = set as usize * ways;
    let set = &mut tags[base..base + ways];
    let found = set.iter().position(|&t| t == tag);
    match found {
        // A fixed-length move the compiler expands in registers.
        None => set.copy_within(..ways - 1, 1),
        Some(p) => {
            for i in (0..p).rev() {
                set[i + 1] = set[i];
            }
        }
    }
    set[0] = tag;
    found.is_some()
}

/// [`promote::<4>`] with no branch on where `tag` sits: four compares and
/// three selects. Only the region walk calls it (module docs).
#[inline(always)]
fn promote_select4(tags: &mut [u64], set: u64, tag: u64) -> bool {
    let base = set as usize * 4;
    let set: &mut [u64; 4] = (&mut tags[base..base + 4]).try_into().unwrap();
    let [t0, t1, t2, t3] = *set;
    let (e0, e1, e2, e3) = (t0 == tag, t1 == tag, t2 == tag, t3 == tag);
    // `keep` picks the way's own tag (it sits past the hit), else the
    // tag in front of it shifts in.
    let pick = |keep: bool, own: u64, front: u64| {
        let m = u64::from(keep).wrapping_neg();
        (own & m) | (front & !m)
    };
    *set = [
        tag,
        pick(e0, t1, t0),
        pick(e0 | e1, t2, t1),
        pick(e0 | e1 | e2, t3, t2),
    ];
    e0 | e1 | e2 | e3
}

/// `x % d` for `x < 2⁴⁸`, by multiply and shift. With `m = ⌈2¹¹²/d⌉`,
/// `⌊x·m / 2¹¹²⌋ = ⌊x/d⌋` for every such `x` and every `d ≥ 1`, since 112
/// fraction bits cover the numerator's 48 plus the divisor's 64 (Lemire,
/// Kaser and Kurz, "Faster remainder by direct computation", 2019). `m`
/// needs up to 113 bits, so it is kept as two 64-bit halves and the
/// quotient takes two 64×64-bit products.
#[derive(Debug, Clone, Copy)]
struct Rem48 {
    d: u64,
    hi: u64,
    lo: u64,
}

impl Rem48 {
    fn new(d: u64) -> Self {
        assert!(d >= 1, "a remainder needs a divisor");
        // ⌈2¹¹²/d⌉ = ⌊(2¹¹² − 1)/d⌋ + 1.
        let m = ((1u128 << 112) - 1) / u128::from(d) + 1;
        Rem48 {
            d,
            hi: (m >> 64) as u64,
            lo: m as u64,
        }
    }

    #[inline(always)]
    fn rem(self, x: u64) -> u64 {
        debug_assert!(x < 1 << 48, "numerator {x} is wider than 48 bits");
        let x = u128::from(x);
        let q = ((x * u128::from(self.hi) + ((x * u128::from(self.lo)) >> 64)) >> 48) as u64;
        x as u64 - q * self.d
    }
}

impl CacheSim {
    /// Creates a cache of `capacity_bytes` with the given associativity.
    /// A capacity below one set (`ways` lines) is rounded up to one set.
    ///
    /// # Panics
    /// Panics if `ways` or `line_bytes` is zero.
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(ways > 0, "a cache needs at least one way");
        assert!(line_bytes > 0, "a cache line cannot be zero bytes");
        let lines = (capacity_bytes / line_bytes) as usize;
        let sets = (lines / ways).max(1);
        CacheSim {
            sets: sets as u64,
            ways,
            line_bytes,
            tags: vec![0; sets * ways],
            accesses: 0,
            hits: 0,
        }
    }

    /// Accesses a byte address; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(addr / self.line_bytes)
    }

    /// Accesses line number `line` (a byte address divided by the line
    /// size, below `u64::MAX`); returns `true` on hit. True LRU per set.
    pub fn access_line(&mut self, line: u64) -> bool {
        let (ways, set, tag) = (self.ways, line % self.sets, line + 1);
        let hit = match ways {
            L1_WAYS => promote::<L1_WAYS>(&mut self.tags, ways, set, tag),
            L2_WAYS => promote::<L2_WAYS>(&mut self.tags, ways, set, tag),
            _ => promote::<0>(&mut self.tags, ways, set, tag),
        };
        self.accesses += 1;
        self.hits += u64::from(hit);
        hit
    }

    /// Lifetime accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Resets counters (contents persist).
    pub fn reset_counters(&mut self) {
        self.accesses = 0;
        self.hits = 0;
    }

    /// The tag array, set after set, MRU first within a set.
    pub(crate) fn tags(&self) -> &[u64] {
        &self.tags
    }
}

/// The memory behavior of one kernel, measured by simulation.
#[derive(Debug, Clone, Default)]
pub struct MemoryTrace {
    /// Warp-level line accesses observed at L1 (after sampling rescale).
    pub l1_accesses: u64,
    /// L1 hits (rescaled).
    pub l1_hits: u64,
    /// L2 accesses (L1 misses, rescaled).
    pub l2_accesses: u64,
    /// L2 hits (rescaled).
    pub l2_hits: u64,
    /// DRAM bytes transferred (L2 misses × line size).
    pub dram_bytes: u64,
    /// Global load/store warp instructions that were divergent
    /// (touched >1 line), rescaled.
    pub divergent_warp_ops: u64,
    /// Total warp-level load/store instructions, rescaled.
    pub warp_ops: u64,
}

impl MemoryTrace {
    /// L1 hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.l1_accesses as f64
        }
    }

    /// L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_hits as f64 / self.l2_accesses as f64
        }
    }

    /// Fraction of warp memory instructions that were divergent.
    pub fn divergence(&self) -> f64 {
        if self.warp_ops == 0 {
            0.0
        } else {
            self.divergent_warp_ops as f64 / self.warp_ops as f64
        }
    }

    fn merge(&mut self, other: &MemoryTrace) {
        self.l1_accesses += other.l1_accesses;
        self.l1_hits += other.l1_hits;
        self.l2_accesses += other.l2_accesses;
        self.l2_hits += other.l2_hits;
        self.dram_bytes += other.dram_bytes;
        self.divergent_warp_ops += other.divergent_warp_ops;
        self.warp_ops += other.warp_ops;
    }
}

/// Simulates one kernel's access streams through the cache hierarchy.
///
/// `region_base` addresses are assigned per descriptor so distinct tensors
/// do not alias. Descriptors are in fp32 bytes; their footprints are scaled
/// to `spec.elem_bytes` here. Both caches must have `spec.line_bytes` lines:
/// they are driven by line number. Returns the rescaled memory trace.
pub fn simulate_kernel(
    spec: &DeviceSpec,
    l1: &mut CacheSim,
    l2: &mut CacheSim,
    reads: &[AccessDesc],
    writes: &[AccessDesc],
) -> MemoryTrace {
    debug_assert!(l1.line_bytes == spec.line_bytes && l2.line_bytes == spec.line_bytes);
    // One choice per kernel; every line below it runs monomorphic code.
    let drive = if walks_fixed_width(l1, l2) {
        drive_desc::<L1_WAYS, L2_WAYS>
    } else {
        drive_desc::<0, 0>
    };
    let mut trace = MemoryTrace::default();
    // Distinct address spaces per descriptor; 256 MB apart.
    let mut region = 0x1000_0000u64;
    for desc in reads.iter().chain(writes) {
        let t = drive(spec, l1, l2, desc, region);
        region += 0x1000_0000;
        trace.merge(&t);
    }
    trace
}

/// Whether [`simulate_kernel`] walks this hierarchy with both set widths
/// fixed at compile time. Any other geometry is walked exactly, by the same
/// code with run-time widths, only slower.
pub(crate) fn walks_fixed_width(l1: &CacheSim, l2: &CacheSim) -> bool {
    l1.ways == L1_WAYS && l2.ways == L2_WAYS
}

/// One cache level for the length of a walk: the tag array borrowed, the
/// geometry and the walk's own access / hit counts held by value, so the
/// per-line code touches no `CacheSim` field. Dropping it ends the walk and
/// adds the counts to the cache's lifetime counters, once.
struct Level<'a, const W: usize> {
    tags: &'a mut [u64],
    sets: u64,
    ways: usize,
    accesses: u64,
    hits: u64,
    lifetime: (&'a mut u64, &'a mut u64),
}

impl<'a, const W: usize> Level<'a, W> {
    fn of(cache: &'a mut CacheSim) -> Self {
        assert!(
            W == 0 || W == cache.ways,
            "walker width must match the cache"
        );
        Level {
            tags: &mut cache.tags,
            sets: cache.sets,
            ways: cache.ways,
            accesses: 0,
            hits: 0,
            lifetime: (&mut cache.accesses, &mut cache.hits),
        }
    }

    #[inline(always)]
    fn probe(&mut self, set: u64, tag: u64) -> bool {
        let hit = promote::<W>(self.tags, self.ways, set, tag);
        self.accesses += 1;
        self.hits += u64::from(hit);
        hit
    }
}

impl<const W: usize> Drop for Level<'_, W> {
    fn drop(&mut self) {
        *self.lifetime.0 += self.accesses;
        *self.lifetime.1 += self.hits;
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Streams warp ops (their distinct touched lines) through L1→L2, counting
/// the ops and, per level, the line accesses and hits of this walk. `W1` /
/// `W2` are the two associativities, `0` for "known only at run time".
struct Walker<'a, const W1: usize, const W2: usize> {
    l1: Level<'a, W1>,
    l2: Level<'a, W2>,
    warp_ops: u64,
    divergent_warp_ops: u64,
}

impl<'a, const W1: usize, const W2: usize> Walker<'a, W1, W2> {
    fn over(l1: &'a mut CacheSim, l2: &'a mut CacheSim) -> Self {
        Walker {
            l1: Level::of(l1),
            l2: Level::of(l2),
            warp_ops: 0,
            divergent_warp_ops: 0,
        }
    }

    /// One warp op touching `lines`.
    #[inline(always)]
    fn touch(&mut self, lines: &[u64]) {
        self.warp_ops += 1;
        if lines.len() > 1 {
            self.divergent_warp_ops += 1;
        }
        for &l in lines {
            let tag = l + 1;
            if !self.l1.probe(l % self.l1.sets, tag) {
                self.l2.probe(l % self.l2.sets, tag);
            }
        }
    }

    /// One warp op of the region walk (module docs) touching the lines of
    /// `offs`, distinct offsets into `region` in ascending order.
    /// `l2_seen[o]` marks the offsets this walk has probed in L2; it is
    /// empty where the known-L2-hit rule does not apply.
    #[inline(always)]
    fn touch_region(&mut self, region: &Region, offs: &[u64], l2_seen: &mut [bool]) {
        self.warp_ops += 1;
        self.divergent_warp_ops += u64::from(offs.len() > 1);
        self.l1.accesses += offs.len() as u64;
        // Every L1 probe first, collecting the misses with no branch on the
        // outcome; then L2 takes the misses in the same order.
        let mut missed = [0u64; 32];
        let mut n = 0;
        for &o in offs {
            let (set, tag) = (region.l1.set(o), region.first + o + 1);
            let hit = if W1 == L1_WAYS {
                promote_select4(self.l1.tags, set, tag)
            } else {
                promote::<W1>(self.l1.tags, self.l1.ways, set, tag)
            };
            self.l1.hits += u64::from(hit);
            missed[n] = o;
            n += usize::from(!hit);
        }
        for &o in &missed[..n] {
            let tag = region.first + o + 1;
            match l2_seen.get_mut(o as usize) {
                Some(seen) if *seen => {
                    self.l2.accesses += 1;
                    self.l2.hits += 1;
                }
                seen => {
                    if let Some(seen) = seen {
                        *seen = true;
                    }
                    self.l2.probe(region.l2.set(o), tag);
                }
            }
        }
    }

    /// `count` fully coalesced warp ops, one line each, `step ≥ 1` lines
    /// apart. Both set indices advance with the line, so the run divides
    /// once; the middle of a long run skips L1 (module docs, "the run rule").
    #[inline(always)]
    fn touch_run(&mut self, first: u64, step: u64, count: u64) {
        assert!(step >= 1, "a run's lines must be distinct");
        self.warp_ops += count;
        let (n1, n2) = (self.l1.sets, self.l2.sets);
        let (d1, d2) = (step % n1, step % n2);
        // gcd(0, n1) = n1: a step that is a multiple of n1 stays in one set.
        let warm = self.l1.ways as u64 * (n1 / gcd(n1, d1));
        let (edge, middle) = if count > 2 * warm {
            (warm, count - 2 * warm)
        } else {
            (count, 0)
        };
        let next = |s: u64, d: u64, n: u64| if s + d >= n { s + d - n } else { s + d };
        let (mut l, mut s1, mut s2) = (first, first % n1, first % n2);
        for (n, through_l1) in [(edge, true), (middle, false), (count - edge - middle, true)] {
            if through_l1 {
                for _ in 0..n {
                    let tag = l + 1;
                    if !self.l1.probe(s1, tag) {
                        self.l2.probe(s2, tag);
                    }
                    l += step;
                    (s1, s2) = (next(s1, d1, n1), next(s2, d2, n2));
                }
            } else {
                // Known L1 misses that leave no L1 state behind.
                self.l1.accesses += n;
                for _ in 0..n {
                    self.l2.probe(s2, l + 1);
                    l += step;
                    s2 = next(s2, d2, n2);
                }
                s1 = l % n1;
            }
        }
    }

    /// One warp op whose `lines` distinct lines are known L1 hits: counted as
    /// [`touch`](Self::touch) counts them, with no probe and no state change.
    #[inline(always)]
    fn touch_hits(&mut self, lines: u64) {
        self.warp_ops += 1;
        self.divergent_warp_ops += u64::from(lines > 1);
        self.l1.accesses += lines;
        self.l1.hits += lines;
    }

    /// Ends a resident region's hit-only stretch (module docs, "the
    /// resident-region rule"): promotes in L1, uncounted, the last use of
    /// each line `first + o` whose `stamp[o]` is above `after`, in walk order
    /// — by stamp, then by line, since a warp probes its lines in ascending
    /// order. Sets never interact, so each set's lines (`o ≡ o0 mod sets`,
    /// at most `ways` of them) are replayed on their own.
    fn replay_last_uses(&mut self, first: u64, stamp: &[u32], after: u32) {
        let sets = self.l1.sets as usize;
        for o0 in 0..sets.min(stamp.len()) {
            let mut prev = (after, usize::MAX);
            while let Some(next) = (o0..stamp.len())
                .step_by(sets)
                .map(|o| (stamp[o], o))
                .filter(|&k| k > prev)
                .min()
            {
                let l = first + next.1 as u64;
                let hit = promote::<W1>(self.l1.tags, self.l1.ways, l % self.l1.sets, l + 1);
                debug_assert!(hit, "a resident region line missed L1");
                prev = next;
            }
        }
    }

    /// A `Random` descriptor's warp ops: `accesses` lanes drawn 32 to a warp
    /// from the `region_lines` lines that start at line `first`, through
    /// the resident-region rule and the region walk (module docs); returns
    /// the exact warp count.
    fn random(&mut self, accesses: u64, region_lines: u64, first: u64) -> u64 {
        let per_warp = 32u64;
        let warps = accesses.div_ceil(per_warp).max(1);
        let step = (warps as usize / SAMPLE_CAP).max(1) as u64;
        let region = Region::new(first, self.l1.sets, self.l2.sets);
        // Deterministic LCG so runs are reproducible; an offset is below
        // 2⁴⁸ whatever the region's size.
        let mut state = 0x9e3779b97f4a7c15u64 ^ accesses;
        let offset = Rem48::new(region_lines);
        let mut draw = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            offset.rem(state >> 16)
        };
        // The resident-region rule (module docs): `stamp[o]` is the
        // iteration, from 1, that last touched offset `o`, 0 if none has.
        // `untouched` never reaches 0 when the rule does not apply.
        let resident = region_lines <= self.l1.sets * self.l1.ways as u64;
        let mut stamp = vec![0u32; if resident { region_lines as usize } else { 0 }];
        let mut untouched = if resident { region_lines } else { u64::MAX };
        // The region walk (module docs): a bitmap of `words` words that
        // orders each warp's offsets, and the offsets already probed in
        // L2 while each region line has an L2 set of its own.
        let words = if region_lines <= BITMAP_CUT as u64 {
            region_lines.div_ceil(64) as usize
        } else {
            0
        };
        let mut bits = [0u64; BITMAP_CUT / 64];
        let mut offs = [0u64; 33];
        let known_l2 = region_lines <= self.l2.sets;
        let mut l2_seen = vec![false; if known_l2 { region_lines as usize } else { 0 }];
        let mut iter = 0u32;
        let mut w = 0;
        while w < warps && self.emitted() < SAMPLE_CAP && untouched > 0 {
            iter += 1;
            let kept = if words > 0 {
                for _ in 0..per_warp {
                    let o = draw();
                    bits[(o / 64) as usize] |= 1 << (o % 64);
                }
                drain_bitmap(&mut bits[..words], &mut offs)
            } else {
                let lanes = &mut offs[..per_warp as usize];
                for slot in lanes.iter_mut() {
                    *slot = draw();
                }
                lanes.sort_unstable();
                dedup_lines(lanes)
            };
            if resident {
                for &o in &offs[..kept] {
                    let s = &mut stamp[o as usize];
                    untouched -= u64::from(*s == 0);
                    *s = iter;
                }
            }
            self.touch_region(&region, &offs[..kept], &mut l2_seen);
            w += step;
        }
        // Every region line is resident in L1: the rest only hits.
        let covered = iter;
        while w < warps && self.emitted() < SAMPLE_CAP {
            iter += 1;
            let mut kept = 0;
            for _ in 0..per_warp {
                let s = &mut stamp[draw() as usize];
                kept += u64::from(*s != iter);
                *s = iter;
            }
            self.touch_hits(kept);
            w += step;
        }
        if iter > covered {
            self.replay_last_uses(region.first, &stamp, covered);
        }
        warps
    }

    /// Warp ops emitted so far (the sampling budget).
    fn emitted(&self) -> usize {
        self.warp_ops as usize
    }
}

/// One cache level's set index of a region offset: line `first + o` falls
/// in set `(first mod n + o mod n) mod n`, with no divide.
struct RegionSets {
    first_set: u64,
    sets: Rem48,
}

impl RegionSets {
    #[inline(always)]
    fn set(&self, o: u64) -> u64 {
        let s = self.first_set + self.sets.rem(o);
        if s >= self.sets.d {
            s - self.sets.d
        } else {
            s
        }
    }
}

/// A `Random` descriptor's region of consecutive lines from `first`, as
/// the region walk addresses it: by offset, which is below 2⁴⁸.
struct Region {
    first: u64,
    l1: RegionSets,
    l2: RegionSets,
}

impl Region {
    fn new(first: u64, l1_sets: u64, l2_sets: u64) -> Self {
        let level = |n: u64| RegionSets {
            first_set: first % n,
            sets: Rem48::new(n),
        };
        Region {
            first,
            l1: level(l1_sets),
            l2: level(l2_sets),
        }
    }
}

/// Bits of each bitmap word [`drain_bitmap`] takes with no branch on the
/// word's contents.
const DRAIN_UNROLL: usize = 6;

/// Moves the set bits of `bits` to `out` as bit indices, lowest first,
/// leaving `bits` clear, and returns their count, at most 32 (one warp's
/// draws). A warp's 32 draws spread over the words, so most words hold a
/// few bits and a loop that ran until each word was empty would mispredict
/// its exit once per word. The first [`DRAIN_UNROLL`] bits of a word are
/// taken without branching instead, each step storing whether or not a bit
/// is left; such a store lands at most one slot past the last index, which
/// is what `out`'s 33rd slot is for.
#[inline(always)]
fn drain_bitmap(bits: &mut [u64], out: &mut [u64; 33]) -> usize {
    let mut kept = 0;
    for (i, word) in bits.iter_mut().enumerate() {
        let at = i as u64 * 64;
        let mut b = std::mem::take(word);
        for _ in 0..DRAIN_UNROLL {
            out[kept] = at + u64::from(b.trailing_zeros());
            kept += usize::from(b != 0);
            b &= b.wrapping_sub(1);
        }
        while b != 0 {
            out[kept] = at + u64::from(b.trailing_zeros());
            kept += 1;
            b &= b - 1;
        }
    }
    kept
}

/// Removes consecutive duplicates in place, returning the deduped length.
fn dedup_lines(buf: &mut [u64]) -> usize {
    let mut kept = 0usize;
    for i in 0..buf.len() {
        if kept == 0 || buf[kept - 1] != buf[i] {
            buf[kept] = buf[i];
            kept += 1;
        }
    }
    kept
}

/// Synthesizes a descriptor's (possibly sampled) warp ops and streams them
/// straight through L1→L2, then rescales counters to the exact totals.
///
/// Each warp op's distinct lines are built in a 32-entry stack buffer, so
/// simulation allocates nothing per op regardless of divergence.
fn drive_desc<const W1: usize, const W2: usize>(
    spec: &DeviceSpec,
    l1: &mut CacheSim,
    l2: &mut CacheSim,
    desc: &AccessDesc,
    base: u64,
) -> MemoryTrace {
    let line = spec.line_bytes;
    // Half-precision devices shrink every byte footprint (never to zero).
    let byte_scale = spec.elem_bytes as f64 / 4.0;
    let sized = |bytes: u64| {
        if spec.elem_bytes == 4 {
            bytes
        } else {
            ((bytes as f64 * byte_scale) as u64).max(1)
        }
    };
    let mut d = Walker::<W1, W2>::over(l1, l2);
    let mut buf = [0u64; 32];
    // Each arm streams its sampled ops and yields the exact op count.
    let exact_warp_ops = match desc {
        AccessDesc::Sequential { bytes } => {
            // Fully coalesced: one line per warp op.
            let total_lines = sized(*bytes).div_ceil(line);
            let step = (total_lines as usize / SAMPLE_CAP).max(1) as u64;
            let sampled = total_lines.div_ceil(step).min(SAMPLE_CAP as u64);
            d.touch_run(base / line, step, sampled);
            total_lines
        }
        AccessDesc::Strided {
            stride_bytes,
            accesses,
            ..
        } => {
            let stride_bytes = sized(*stride_bytes);
            let per_warp = 32u64;
            let warps = accesses.div_ceil(per_warp).max(1);
            let step = (warps as usize / SAMPLE_CAP).max(1) as u64;
            let mut w = 0;
            while w < warps && d.emitted() < SAMPLE_CAP {
                let lanes = per_warp.min(accesses - w * per_warp).max(1) as usize;
                for (lane, slot) in buf[..lanes].iter_mut().enumerate() {
                    *slot = (base + (w * per_warp + lane as u64) * stride_bytes) / line;
                }
                let kept = dedup_lines(&mut buf[..lanes]);
                d.touch(&buf[..kept]);
                w += step;
            }
            warps
        }
        AccessDesc::Indexed {
            indices,
            row_bytes,
            table_bytes,
        } => {
            let row_bytes = sized(*row_bytes);
            let table_lines = sized(*table_bytes) / line;
            if row_bytes >= 128 {
                // Each row is ≥1 full line; warps read within a row
                // (coalesced), consecutive warps follow the index array.
                let ops_per_row = row_bytes.div_ceil(line);
                let total = indices.len() as u64 * ops_per_row;
                let row_step = ((total as usize / SAMPLE_CAP).max(1) as u64)
                    .div_ceil(ops_per_row)
                    .max(1);
                let mut i = 0usize;
                while i < indices.len() && d.emitted() < SAMPLE_CAP {
                    let row_off = indices[i] as u64 * row_bytes;
                    for o in 0..ops_per_row {
                        if d.emitted() >= SAMPLE_CAP {
                            break;
                        }
                        // A 128-byte warp access starting mid-line spans two
                        // lines — rows whose byte width is not a multiple of
                        // the line size (e.g. Cora's 1433 features) make
                        // every access divergent, as NVBit observes.
                        let start = row_off + o * line;
                        let l0 = (start / line) % table_lines.max(1);
                        let l1 = start.div_ceil(line) % table_lines.max(1);
                        if l1 != l0 {
                            d.touch(&[base / line + l0, base / line + l1]);
                        } else {
                            d.touch(&[base / line + l0]);
                        }
                    }
                    i += row_step as usize;
                }
                total
            } else {
                // Narrow rows: one warp covers several rows → divergence
                // determined by the actual indices.
                let lanes_per_row = (row_bytes / 4).clamp(1, 32);
                let rows_per_warp = (32 / lanes_per_row).max(1) as usize;
                let warps = indices.len().div_ceil(rows_per_warp);
                let step = (warps / SAMPLE_CAP).max(1);
                let mut w = 0usize;
                while w < warps && d.emitted() < SAMPLE_CAP {
                    let start = w * rows_per_warp;
                    let end = (start + rows_per_warp).min(indices.len());
                    let lanes = end - start;
                    for (slot, &idx) in buf[..lanes].iter_mut().zip(&indices[start..end]) {
                        *slot = (base + idx as u64 * row_bytes) / line;
                    }
                    buf[..lanes].sort_unstable();
                    let kept = dedup_lines(&mut buf[..lanes]);
                    d.touch(&buf[..kept]);
                    w += step;
                }
                warps as u64
            }
        }
        AccessDesc::Random {
            accesses,
            region_bytes,
            ..
        } => d.random(*accesses, (sized(*region_bytes) / line).max(1), base / line),
    };
    // Rescale the sampled counts to the exact op count.
    let scale = if d.warp_ops == 0 {
        0.0
    } else {
        exact_warp_ops as f64 / d.warp_ops as f64
    };
    let s = |v: u64| (v as f64 * scale).round() as u64;
    MemoryTrace {
        l1_accesses: s(d.l1.accesses),
        l1_hits: s(d.l1.hits),
        l2_accesses: s(d.l2.accesses),
        l2_hits: s(d.l2.hits),
        dram_bytes: s((d.l2.accesses - d.l2.hits) * line),
        divergent_warp_ops: s(d.divergent_warp_ops),
        warp_ops: exact_warp_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn spec() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn caches(s: &DeviceSpec) -> (CacheSim, CacheSim) {
        (
            CacheSim::new(s.l1_bytes, 4, s.line_bytes),
            CacheSim::new(s.l2_bytes, 16, s.line_bytes),
        )
    }

    #[test]
    fn cache_hits_on_rereference() {
        let mut c = CacheSim::new(1024, 2, 128);
        assert!(!c.access(0));
        assert!(c.access(64)); // same line
        assert!(!c.access(128));
        assert_eq!(c.accesses(), 3);
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 sets × 2 ways of 128B lines = 512B.
        let mut c = CacheSim::new(512, 2, 128);
        // Lines 0, 2, 4 map to set 0 (even lines).
        assert!(!c.access(0));
        assert!(!c.access(2 * 128));
        assert!(!c.access(4 * 128)); // evicts line 0
        assert!(!c.access(0)); // miss again
        assert!(c.access(4 * 128)); // still resident
    }

    #[test]
    fn capacity_below_one_set_rounds_up_to_one_set() {
        let mut c = CacheSim::new(100, 4, 128);
        for l in 0..4 {
            assert!(!c.access_line(l));
        }
        for l in 0..4 {
            assert!(c.access_line(l), "one 4-way set holds four lines");
        }
        assert!(!c.access_line(4)); // evicts line 0, the least recent
        assert!(!c.access_line(0));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_is_rejected() {
        CacheSim::new(1024, 0, 128);
    }

    #[test]
    #[should_panic(expected = "zero bytes")]
    fn zero_line_bytes_is_rejected() {
        CacheSim::new(1024, 4, 0);
    }

    /// `touch_run` through a `<W1, W2>` walker.
    fn walk_run<const W1: usize, const W2: usize>(
        l1: &mut CacheSim,
        l2: &mut CacheSim,
        (first, step, count): (u64, u64, u64),
    ) {
        let mut run = Walker::<W1, W2>::over(l1, l2);
        run.touch_run(first, step, count);
        assert_eq!(run.warp_ops, count);
    }

    /// The reference: the same lines one `access_line` at a time.
    fn walk_lines(l1: &mut CacheSim, l2: &mut CacheSim, (first, step, count): (u64, u64, u64)) {
        for i in 0..count {
            let l = first + i * step;
            if !l1.access_line(l) {
                l2.access_line(l);
            }
        }
    }

    fn assert_same(run: &(CacheSim, CacheSim), by_line: &(CacheSim, CacheSim), case: &str) {
        for (level, (a, b)) in [(&run.0, &by_line.0), (&run.1, &by_line.1)]
            .iter()
            .enumerate()
        {
            assert_eq!(a.tags, b.tags, "L{} tags, {case}", level + 1);
            assert_eq!(
                (a.accesses, a.hits),
                (b.accesses, b.hits),
                "L{} (accesses, hits), {case}",
                level + 1
            );
        }
    }

    #[test]
    fn run_entry_matches_line_by_line_touches() {
        // Odd set counts, steps above and below them, runs that wrap; the
        // second pass re-hits in L1 (first case) or L2 (third case).
        for (l1_sets, l2_sets, first, step, count) in [
            (3u64, 7u64, 5u64, 1u64, 10u64),
            (3, 7, 5, 1, 200),
            (8, 3144, 1 << 21, 5, 4000),
            (3, 7, 0, 23, 300),
        ] {
            let fresh = || {
                (
                    CacheSim::new(l1_sets * 4 * 128, 4, 128),
                    CacheSim::new(l2_sets * 16 * 128, 16, 128),
                )
            };
            let (mut run, mut by_line) = (fresh(), fresh());
            for _pass in 0..2 {
                walk_run::<L1_WAYS, L2_WAYS>(&mut run.0, &mut run.1, (first, step, count));
                walk_lines(&mut by_line.0, &mut by_line.1, (first, step, count));
            }
            let case = format!("{l1_sets}/{l2_sets} sets, run {first}+{step}x{count}");
            assert_same(&run, &by_line, &case);
        }
    }

    #[test]
    fn randomized_runs_match_line_by_line_touches() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // `Scale::Small` never samples, so captured runs all have step 1 and
        // this is the only cover for strides: gcd(step, sets) > 1, steps that
        // are multiples of the set count, and counts on both sides of
        // 2 · warm, over caches that already hold lines of the run.
        let mut rng = StdRng::seed_from_u64(0x6e6e_6d61_726b);
        let mut skipped_l1 = 0;
        for case in 0..4000 {
            let fixed = case % 2 == 0;
            let (w1, w2) = if fixed {
                (L1_WAYS, L2_WAYS)
            } else {
                (rng.gen_range(1..10usize), rng.gen_range(1..10usize))
            };
            let (n1, n2) = (rng.gen_range(1..13u64), rng.gen_range(1..41u64));
            let run = (
                rng.gen_range(0..1u64 << 22),
                rng.gen_range(1..31u64),
                rng.gen_range(0..401u64),
            );
            let (first, step, count) = run;
            let fresh = || {
                (
                    CacheSim::new(n1 * w1 as u64 * 128, w1, 128),
                    CacheSim::new(n2 * w2 as u64 * 128, w2, 128),
                )
            };
            let (mut walked, mut by_line) = (fresh(), fresh());
            // Residents from inside the run, its tail, and beyond its end.
            for _ in 0..rng.gen_range(0..64u32) {
                let i = match rng.gen_range(0..3u32) {
                    0 => rng.gen_range(0..count.max(1)),
                    1 => count.saturating_sub(rng.gen_range(0..8u64)),
                    _ => count + rng.gen_range(0..64u64),
                };
                for side in [&mut walked, &mut by_line] {
                    walk_lines(&mut side.0, &mut side.1, (first + i * step, 1, 1));
                }
            }
            let warm = w1 as u64 * (n1 / gcd(n1, step % n1));
            skipped_l1 += u32::from(count > 2 * warm);
            for _pass in 0..2 {
                if fixed {
                    walk_run::<L1_WAYS, L2_WAYS>(&mut walked.0, &mut walked.1, run);
                } else {
                    walk_run::<0, 0>(&mut walked.0, &mut walked.1, run);
                }
                walk_lines(&mut by_line.0, &mut by_line.1, run);
            }
            let case =
                format!("case {case}: ways {w1}/{w2}, sets {n1}/{n2}, run {first}+{step}x{count}");
            assert_same(&walked, &by_line, &case);
        }
        assert!(
            skipped_l1 > 1000,
            "only {skipped_l1} cases took the run rule"
        );
    }

    fn trace_fields(t: &MemoryTrace) -> [u64; 7] {
        [
            t.l1_accesses,
            t.l1_hits,
            t.l2_accesses,
            t.l2_hits,
            t.dram_bytes,
            t.divergent_warp_ops,
            t.warp_ops,
        ]
    }

    /// The reference for a `Random` descriptor: the same LCG draws, each warp
    /// sorted and deduped, every line through `access_line` (L1, then L2 on a
    /// miss), and the same rescale. Also returns how many walked warps came
    /// after every region line had been touched.
    fn random_by_line(
        s: &DeviceSpec,
        (l1, l2): (&mut CacheSim, &mut CacheSim),
        (accesses, region_bytes): (u64, u64),
        base: u64,
    ) -> (MemoryTrace, u64) {
        let line = s.line_bytes;
        let sized = if s.elem_bytes == 4 {
            region_bytes
        } else {
            ((region_bytes as f64 * s.elem_bytes as f64 / 4.0) as u64).max(1)
        };
        let region_lines = (sized / line).max(1);
        let warps = accesses.div_ceil(32).max(1);
        let step = (warps / SAMPLE_CAP as u64).max(1);
        let before = (l1.accesses, l1.hits, l2.accesses, l2.hits);
        let mut state = 0x9e3779b97f4a7c15u64 ^ accesses;
        let mut seen = vec![false; region_lines as usize];
        let (mut unseen, mut after_cover) = (region_lines, 0);
        let (mut ops, mut divergent) = (0u64, 0u64);
        let mut w = 0;
        while w < warps && ops < SAMPLE_CAP as u64 {
            after_cover += u64::from(unseen == 0);
            let mut lines: Vec<u64> = (0..32)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    base / line + (state >> 16) % region_lines
                })
                .collect();
            lines.sort_unstable();
            lines.dedup();
            ops += 1;
            divergent += u64::from(lines.len() > 1);
            for &l in &lines {
                let o = (l - base / line) as usize;
                unseen -= u64::from(!seen[o]);
                seen[o] = true;
                if !l1.access_line(l) {
                    l2.access_line(l);
                }
            }
            w += step;
        }
        let scale = warps as f64 / ops as f64;
        let sc = |v: u64| (v as f64 * scale).round() as u64;
        let (a2, h2) = (l2.accesses - before.2, l2.hits - before.3);
        let trace = MemoryTrace {
            l1_accesses: sc(l1.accesses - before.0),
            l1_hits: sc(l1.hits - before.1),
            l2_accesses: sc(a2),
            l2_hits: sc(h2),
            dram_bytes: sc((a2 - h2) * line),
            divergent_warp_ops: sc(divergent),
            warp_ops: warps,
        };
        (trace, after_cover)
    }

    /// One `Random` descriptor through the `<W1, W2>` walker and through the
    /// reference, from equal pre-warmed caches; asserts equal traces, tags and
    /// lifetime counters and returns the reference's warps after coverage.
    fn random_matches_reference<const W1: usize, const W2: usize>(
        s: &DeviceSpec,
        (w1, n1): (usize, u64),
        (w2, n2): (usize, u64),
        (accesses, region_bytes): (u64, u64),
        base: u64,
        warm: &[u64],
        case: &str,
    ) -> u64 {
        let line = s.line_bytes;
        let fresh = || {
            (
                CacheSim::new(n1 * w1 as u64 * line, w1, line),
                CacheSim::new(n2 * w2 as u64 * line, w2, line),
            )
        };
        let (mut walked, mut by_line) = (fresh(), fresh());
        for side in [&mut walked, &mut by_line] {
            for &l in warm {
                if !side.0.access_line(l) {
                    side.1.access_line(l);
                }
            }
        }
        let desc = AccessDesc::Random {
            accesses,
            access_bytes: 4,
            region_bytes,
        };
        let got = drive_desc::<W1, W2>(s, &mut walked.0, &mut walked.1, &desc, base);
        let (want, after_cover) = random_by_line(
            s,
            (&mut by_line.0, &mut by_line.1),
            (accesses, region_bytes),
            base,
        );
        assert_eq!(trace_fields(&got), trace_fields(&want), "trace, {case}");
        assert_same(&walked, &by_line, case);
        after_cover
    }

    #[test]
    fn resident_region_rule_matches_line_by_line_walk() {
        // 8 sets x 4 ways = 32 L1 lines; 5 x 16 L2. Regions of 1 line, below,
        // at and one above the L1's line count, the last 96 bytes of each
        // region a partial line; fp32 and fp16 byte scales.
        let fp32 = spec();
        let fp16 = spec().with_half_precision();
        let base = 0x1000_0000u64;
        let first = base / fp32.line_bytes;
        // Region lines (both ends of the region, the middle) and lines of
        // another tensor that share their L1 sets.
        let warm: Vec<u64> = [0, 1, 7, 8, 15, 31, 32, 40]
            .iter()
            .map(|o| first + o)
            .chain([first + (1 << 20), first + (1 << 20) + 9, first - 8])
            .collect();
        let mut covered = 0;
        for (s, scale) in [(&fp32, 1u64), (&fp16, 2)] {
            for lines in [1u64, 20, 32, 33] {
                let region_bytes = (lines * 128 + 96) * scale;
                for accesses in [64u64, 5_000, 40_000] {
                    for warm in [&[][..], &warm[..]] {
                        let case = format!(
                            "elem {} B, {lines} lines, {accesses} accesses, {} warm",
                            s.elem_bytes,
                            warm.len()
                        );
                        let c = random_matches_reference::<L1_WAYS, L2_WAYS>(
                            s,
                            (4, 8),
                            (16, 5),
                            (accesses, region_bytes),
                            base,
                            warm,
                            &case,
                        );
                        let c0 = random_matches_reference::<0, 0>(
                            s,
                            (4, 8),
                            (16, 5),
                            (accesses, region_bytes),
                            base,
                            warm,
                            &format!("<0, 0>, {case}"),
                        );
                        assert_eq!(c, c0);
                        if lines > 1 && accesses == 64 {
                            assert_eq!(c, 0, "two warps cannot cover {lines} lines");
                        }
                        if accesses > 5_000 {
                            assert!(c > 1_000, "{case}: only {c} warps after coverage");
                        }
                        covered += u32::from(c > 0);
                    }
                }
            }
        }
        assert!(covered >= 28, "only {covered} cases reached coverage");

        // More warps than `SAMPLE_CAP`: every second warp is walked.
        let accesses = 32 * (2 * SAMPLE_CAP as u64 + 7);
        let c = random_matches_reference::<L1_WAYS, L2_WAYS>(
            &fp32,
            (4, 8),
            (16, 5),
            (accesses, 30 * 128),
            base,
            &warm,
            "sampled",
        );
        assert!(c > 60_000, "sampled walk: only {c} warps after coverage");
    }

    #[test]
    fn region_walk_matches_line_by_line_walk() {
        // 8 sets x 4 ways = 32 L1 lines. Regions one line above L1, on both
        // sides of `BITMAP_CUT` and past it, under L2s whose set count is
        // below all of them, exactly `BITMAP_CUT` (the known-L2-hit rule
        // switches off one line above it) and above all of them; fp32 and
        // fp16 byte scales, both walker instantiations, a sampled walk.
        let fp32 = spec();
        let fp16 = spec().with_half_precision();
        let base = 0x1000_0000u64;
        let first = base / fp32.line_bytes;
        let cut = BITMAP_CUT as u64;
        let warm: Vec<u64> = [0, 1, 31, 32, 33, cut - 1, cut, cut + 1]
            .iter()
            .map(|o| first + o)
            .chain([first + (1 << 20) + 3, first - 5])
            .collect();
        let sampled = 32 * (2 * SAMPLE_CAP as u64 + 7);
        for l2_sets in [5, cut, 3 * cut] {
            for lines in [33u64, cut - 1, cut, cut + 1, 2 * cut + 5] {
                for (s, scale) in [(&fp32, 1u64), (&fp16, 2)] {
                    let accesses = if lines == cut + 1 && scale == 1 {
                        sampled
                    } else {
                        20_000
                    };
                    let region_bytes = (lines * 128 + 96) * scale;
                    let case = format!(
                        "L2 {l2_sets} sets, elem {} B, {lines} lines, {accesses} accesses",
                        s.elem_bytes
                    );
                    let walk = (accesses, region_bytes);
                    random_matches_reference::<L1_WAYS, L2_WAYS>(
                        s,
                        (4, 8),
                        (16, l2_sets),
                        walk,
                        base,
                        &warm,
                        &case,
                    );
                    random_matches_reference::<0, 0>(
                        s,
                        (4, 8),
                        (16, l2_sets),
                        walk,
                        base,
                        &warm,
                        &format!("<0, 0>, {case}"),
                    );
                }
            }
        }
    }

    #[test]
    fn select_probe_matches_promote() {
        // Every position of the tag, a miss, and sets with empty ways.
        for set in [[5u64, 6, 7, 8], [5, 6, 0, 0], [0; 4], [9, 5, 6, 7]] {
            for tag in [5u64, 6, 7, 8, 9, 1] {
                let (mut a, mut b) = (set.to_vec(), set.to_vec());
                let hit = promote_select4(&mut a, 0, tag);
                assert_eq!(hit, promote::<4>(&mut b, 4, 0, tag), "{set:?} <- {tag}");
                assert_eq!(a, b, "{set:?} <- {tag}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn multiply_shift_remainder_is_exact(
            x in 0u64..1 << 48,
            d in 1u64..(1 << 32) + 1,
        ) {
            proptest::prop_assert_eq!(Rem48::new(d).rem(x), x % d);
        }
    }

    #[test]
    fn multiply_shift_remainder_is_exact_at_the_edges() {
        let top = (1u64 << 48) - 1;
        for d in [
            1u64,
            2,
            3,
            7,
            613,
            3144,
            1 << 32,
            (1 << 48) - 1,
            1 << 48,
            u64::MAX,
        ] {
            for x in [0, 1, d.min(top), d.saturating_sub(1).min(top), top, top - 1] {
                assert_eq!(Rem48::new(d).rem(x), x % d, "{x} % {d}");
            }
        }
    }

    #[test]
    fn randomized_random_walks_match_line_by_line_walk() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Odd geometries, regions on both sides of `sets · ways`, random
        // bases and pre-warmed lines in and beside the region.
        let s = spec();
        let mut rng = StdRng::seed_from_u64(0x7265_7369_6465);
        let mut took_rule = 0;
        for case in 0..600 {
            let fixed = case % 2 == 0;
            let (w1, w2) = if fixed {
                (L1_WAYS, L2_WAYS)
            } else {
                (rng.gen_range(1..9usize), rng.gen_range(1..9usize))
            };
            let (n1, n2) = (rng.gen_range(1..17u64), rng.gen_range(1..23u64));
            let l1_lines = n1 * w1 as u64;
            let lines = rng.gen_range(1..l1_lines + 3);
            let region_bytes = lines * 128 + rng.gen_range(0..128u64);
            let accesses = rng.gen_range(0..6_000u64);
            let first = rng.gen_range(1u64 << 20..1 << 24);
            let warm: Vec<u64> = (0..rng.gen_range(0..40u32))
                .map(|_| first + rng.gen_range(0..lines + 64) - rng.gen_range(0..2u64) * 64)
                .collect();
            let geometry = ((w1, n1), (w2, n2));
            let case = format!("case {case}: ways {w1}/{w2}, sets {n1}/{n2}, {lines} lines");
            let walk = (accesses, region_bytes);
            let c = if fixed {
                random_matches_reference::<L1_WAYS, L2_WAYS>(
                    &s,
                    geometry.0,
                    geometry.1,
                    walk,
                    first * 128,
                    &warm,
                    &case,
                )
            } else {
                random_matches_reference::<0, 0>(
                    &s,
                    geometry.0,
                    geometry.1,
                    walk,
                    first * 128,
                    &warm,
                    &case,
                )
            };
            took_rule += u32::from(c > 0 && lines <= l1_lines);
        }
        assert!(
            took_rule > 200,
            "only {took_rule} cases took the resident-region rule"
        );
    }

    #[test]
    fn lines_that_differ_only_above_bit_32_do_not_alias() {
        // 4 sets × 2 ways: both lines map to set 1 and fit side by side.
        let mut c = CacheSim::new(1024, 2, 128);
        let (low, high) = (5u64, 5 + (1u64 << 32));
        assert!(!c.access_line(low));
        assert!(
            !c.access_line(high),
            "a tag narrowed to 32 bits would hit here"
        );
        assert!(c.access_line(low));
        assert!(c.access_line(high));
    }

    #[test]
    fn paper_scale_transpose_walks_lines_above_u32() {
        // STGCN's `SpatialGcn::forward` at `Scale::Paper` with batch 64
        // transposes [64·64·10, 207]: column-major writes `m · 4` bytes
        // apart, unwrapped, so the last sampled warp op is at line ≈ 1.08e10.
        let (m, n) = (64 * 64 * 10u64, 207u64);
        let s = spec();
        assert!(m * n * m * 4 / s.line_bytes > u64::from(u32::MAX));
        let (mut l1, mut l2) = caches(&s);
        let t = simulate_kernel(
            &s,
            &mut l1,
            &mut l2,
            &[],
            &[AccessDesc::Strided {
                stride_bytes: m * 4,
                accesses: m * n,
                access_bytes: 4,
            }],
        );
        assert_eq!(t.warp_ops, (m * n).div_ceil(32));
        // Every lane its own line, none of them seen before.
        assert_eq!(t.divergent_warp_ops, t.warp_ops);
        assert_eq!(t.l1_accesses, t.warp_ops * 32);
        assert_eq!((t.l1_hits, t.l2_hits), (0, 0));
    }

    #[test]
    fn sequential_stream_has_no_reuse_or_divergence() {
        let s = spec();
        let (mut l1, mut l2) = caches(&s);
        let t = simulate_kernel(
            &s,
            &mut l1,
            &mut l2,
            &[AccessDesc::Sequential { bytes: 1 << 20 }],
            &[],
        );
        assert_eq!(t.l1_hits, 0);
        assert_eq!(t.divergent_warp_ops, 0);
        assert!(t.warp_ops > 0);
    }

    #[test]
    fn repeated_indices_hit_and_skewed_beats_uniform() {
        let s = spec();
        // Hot indices: all rows the same → high hit rate after warm-up.
        let hot: Vec<u32> = vec![7; 10_000];
        let (mut l1, mut l2) = caches(&s);
        let t_hot = simulate_kernel(
            &s,
            &mut l1,
            &mut l2,
            &[AccessDesc::Indexed {
                indices: Arc::new(hot),
                row_bytes: 256,
                table_bytes: 1 << 24,
            }],
            &[],
        );
        assert!(
            t_hot.l1_hit_rate() > 0.9,
            "hot rate {}",
            t_hot.l1_hit_rate()
        );

        // Uniform random over a table much larger than L1.
        let uniform: Vec<u32> = (0..10_000u64)
            .map(|i| ((i * 2654435761) % 60_000) as u32)
            .collect();
        let (mut l1, mut l2) = caches(&s);
        let t_uni = simulate_kernel(
            &s,
            &mut l1,
            &mut l2,
            &[AccessDesc::Indexed {
                indices: Arc::new(uniform),
                row_bytes: 256,
                table_bytes: 60_000 * 256,
            }],
            &[],
        );
        assert!(t_uni.l1_hit_rate() < t_hot.l1_hit_rate());
    }

    #[test]
    fn narrow_rows_cause_divergence() {
        let s = spec();
        let scattered: Vec<u32> = (0..4096u32).map(|i| (i * 97) % 50_000).collect();
        let (mut l1, mut l2) = caches(&s);
        let t = simulate_kernel(
            &s,
            &mut l1,
            &mut l2,
            &[AccessDesc::Indexed {
                indices: Arc::new(scattered),
                row_bytes: 4,
                table_bytes: 50_000 * 4,
            }],
            &[],
        );
        assert!(t.divergence() > 0.9, "divergence {}", t.divergence());
    }

    #[test]
    fn wide_rows_are_coalesced() {
        let s = spec();
        let idx: Vec<u32> = (0..1000u32).map(|i| (i * 13) % 5000).collect();
        let (mut l1, mut l2) = caches(&s);
        let t = simulate_kernel(
            &s,
            &mut l1,
            &mut l2,
            &[AccessDesc::Indexed {
                indices: Arc::new(idx),
                row_bytes: 512,
                table_bytes: 5000 * 512,
            }],
            &[],
        );
        assert_eq!(t.divergent_warp_ops, 0);
    }

    #[test]
    fn random_streams_are_divergent_and_low_hit() {
        let s = spec();
        let (mut l1, mut l2) = caches(&s);
        let t = simulate_kernel(
            &s,
            &mut l1,
            &mut l2,
            &[AccessDesc::Random {
                accesses: 100_000,
                access_bytes: 4,
                region_bytes: 1 << 26,
            }],
            &[],
        );
        assert!(t.divergence() > 0.95);
        assert!(t.l1_hit_rate() < 0.2);
    }

    #[test]
    fn table_fitting_in_l2_hits_l2() {
        let s = spec();
        let idx: Vec<u32> = (0..50_000u32).map(|i| (i * 7919) % 4000).collect();
        let (mut l1, mut l2) = caches(&s);
        // 4000 rows × 256 B = 1 MB table: fits L2, not L1.
        let t = simulate_kernel(
            &s,
            &mut l1,
            &mut l2,
            &[AccessDesc::Indexed {
                indices: Arc::new(idx),
                row_bytes: 256,
                table_bytes: 4000 * 256,
            }],
            &[],
        );
        assert!(
            t.l2_hit_rate() > 0.5,
            "l2 rate {} (accesses {})",
            t.l2_hit_rate(),
            t.l2_accesses
        );
    }

    #[test]
    fn hits_never_exceed_accesses() {
        let s = spec();
        let (mut l1, mut l2) = caches(&s);
        let t = simulate_kernel(
            &s,
            &mut l1,
            &mut l2,
            &[
                AccessDesc::Sequential { bytes: 4096 },
                AccessDesc::Random {
                    accesses: 1000,
                    access_bytes: 4,
                    region_bytes: 1 << 20,
                },
            ],
            &[AccessDesc::Sequential { bytes: 4096 }],
        );
        assert!(t.l1_hits <= t.l1_accesses);
        assert!(t.l2_hits <= t.l2_accesses);
        assert!(t.divergent_warp_ops <= t.warp_ops);
    }
}

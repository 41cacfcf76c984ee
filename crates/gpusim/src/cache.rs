//! Set-associative cache simulation and warp-divergence analysis.
//!
//! Address streams are synthesized from the access descriptors tensor ops
//! emit — including the *actual* index arrays of gathers, scatters, SpMM
//! and sorts — coalesced into per-warp line accesses, then driven through
//! an L1 → L2 hierarchy. Long streams are sampled with a recorded scale
//! factor.

use gnnmark_tensor::AccessDesc;

use crate::device::DeviceSpec;

/// Maximum line accesses simulated per kernel (streams beyond this are
/// stride-sampled; counts are rescaled).
const SAMPLE_CAP: usize = 1 << 16;

/// A set-associative, LRU, write-allocate cache model.
///
/// Each set is one contiguous run of `ways` tags in recency order, most
/// recent first. A tag is `line + 1` and `0` marks an empty way, so a new
/// cache is an all-zero allocation that the OS backs lazily: a model of the
/// A100's 40 MB L2 owns 2.6 MB of tags but only pays for the sets a stream
/// reaches. Filling the vector with any other sentinel would touch all of
/// it in every `GpuModel::new`.
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

/// Moves `tag` to the front of an MRU-first set and reports whether it was
/// already resident; on a miss the last (least recent or empty) way drops
/// out. Inlined per call site so a fixed-width `set` unrolls.
#[inline(always)]
fn promote(set: &mut [u64], tag: u64) -> bool {
    let found = set.iter().position(|&t| t == tag);
    match found {
        // A fixed-length move the compiler expands in registers.
        None => set.copy_within(..set.len() - 1, 1),
        Some(p) => {
            for i in (0..p).rev() {
                set[i + 1] = set[i];
            }
        }
    }
    set[0] = tag;
    found.is_some()
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
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        self.access_in(line % self.sets, line)
    }

    /// [`Self::access_line`] for a caller that already knows `line`'s set.
    #[inline]
    fn access_in(&mut self, set: u64, line: u64) -> bool {
        debug_assert_eq!(set, line % self.sets);
        let base = set as usize * self.ways;
        let tag = line + 1;
        // The two associativities `GpuModel` builds get fixed-width sets.
        let hit = match self.ways {
            4 => promote(&mut self.tags[base..base + 4], tag),
            16 => promote(&mut self.tags[base..base + 16], tag),
            ways => promote(&mut self.tags[base..base + ways], tag),
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
    let mut trace = MemoryTrace::default();
    // Distinct address spaces per descriptor; 256 MB apart.
    let mut region = 0x1000_0000u64;
    for desc in reads.iter().chain(writes) {
        let t = drive_desc(spec, l1, l2, desc, region);
        region += 0x1000_0000;
        trace.merge(&t);
    }
    trace
}

/// Streams warp ops (their distinct touched lines) through L1→L2. The
/// caches count the line accesses; this counts the ops.
struct Driver<'a> {
    l1: &'a mut CacheSim,
    l2: &'a mut CacheSim,
    warp_ops: u64,
    divergent_warp_ops: u64,
}

impl Driver<'_> {
    /// One warp op touching `lines`.
    fn touch(&mut self, lines: &[u64]) {
        self.warp_ops += 1;
        if lines.len() > 1 {
            self.divergent_warp_ops += 1;
        }
        for &l in lines {
            if !self.l1.access_line(l) {
                self.l2.access_line(l);
            }
        }
    }

    /// `count` fully coalesced warp ops, one line each, `step` lines apart.
    /// Both set indices advance with the line, so the run divides once.
    fn touch_run(&mut self, first: u64, step: u64, count: u64) {
        self.warp_ops += count;
        let (n1, n2) = (self.l1.sets, self.l2.sets);
        let (mut s1, mut s2) = (first % n1, first % n2);
        let (d1, d2) = (step % n1, step % n2);
        let mut l = first;
        for _ in 0..count {
            if !self.l1.access_in(s1, l) {
                self.l2.access_in(s2, l);
            }
            l += step;
            s1 = if s1 + d1 >= n1 { s1 + d1 - n1 } else { s1 + d1 };
            s2 = if s2 + d2 >= n2 { s2 + d2 - n2 } else { s2 + d2 };
        }
    }

    /// Warp ops emitted so far (the sampling budget).
    fn emitted(&self) -> usize {
        self.warp_ops as usize
    }
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
fn drive_desc(
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
    let (l1_accesses0, l1_hits0) = (l1.accesses, l1.hits);
    let (l2_accesses0, l2_hits0) = (l2.accesses, l2.hits);
    let mut d = Driver {
        l1,
        l2,
        warp_ops: 0,
        divergent_warp_ops: 0,
    };
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
        } => {
            let per_warp = 32u64;
            let warps = accesses.div_ceil(per_warp).max(1);
            let step = (warps as usize / SAMPLE_CAP).max(1) as u64;
            let region_lines = (sized(*region_bytes) / line).max(1);
            // Deterministic LCG so runs are reproducible.
            let mut state = 0x9e3779b97f4a7c15u64 ^ *accesses;
            let mut w = 0;
            while w < warps && d.emitted() < SAMPLE_CAP {
                for slot in buf.iter_mut() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    *slot = base / line + (state >> 16) % region_lines;
                }
                buf.sort_unstable();
                let kept = dedup_lines(&mut buf);
                d.touch(&buf[..kept]);
                w += step;
            }
            warps
        }
    };
    // Rescale the sampled counts to the exact op count.
    let scale = if d.warp_ops == 0 {
        0.0
    } else {
        exact_warp_ops as f64 / d.warp_ops as f64
    };
    let s = |v: u64| (v as f64 * scale).round() as u64;
    let l2_accesses = d.l2.accesses - l2_accesses0;
    let l2_hits = d.l2.hits - l2_hits0;
    MemoryTrace {
        l1_accesses: s(d.l1.accesses - l1_accesses0),
        l1_hits: s(d.l1.hits - l1_hits0),
        l2_accesses: s(l2_accesses),
        l2_hits: s(l2_hits),
        dram_bytes: s((l2_accesses - l2_hits) * line),
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
            let (mut run_l1, mut run_l2) = fresh();
            let (mut ref_l1, mut ref_l2) = fresh();
            for _pass in 0..2 {
                let mut run = Driver {
                    l1: &mut run_l1,
                    l2: &mut run_l2,
                    warp_ops: 0,
                    divergent_warp_ops: 0,
                };
                run.touch_run(first, step, count);
                assert_eq!(run.warp_ops, count);
                let mut by_line = Driver {
                    l1: &mut ref_l1,
                    l2: &mut ref_l2,
                    warp_ops: 0,
                    divergent_warp_ops: 0,
                };
                for i in 0..count {
                    by_line.touch(&[first + i * step]);
                }
            }
            assert_eq!(run_l1.tags, ref_l1.tags);
            assert_eq!(run_l2.tags, ref_l2.tags);
            assert_eq!((run_l1.hits, run_l2.hits), (ref_l1.hits, ref_l2.hits));
            assert_eq!(run_l2.accesses, ref_l2.accesses);
        }
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
        assert!(t_hot.l1_hit_rate() > 0.9, "hot rate {}", t_hot.l1_hit_rate());

        // Uniform random over a table much larger than L1.
        let uniform: Vec<u32> =
            (0..10_000u64).map(|i| ((i * 2654435761) % 60_000) as u32).collect();
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

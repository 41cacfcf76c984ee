//! Property-based tests for the GPU model's invariants.

use std::sync::Arc;

use gnnmark_gpusim::{
    CacheSim, DdpModel, DeviceSpec, GpuModel, KernelMetrics, PrevStep, ScalingBehavior, StallReason,
};
use gnnmark_tensor::{AccessDesc, OpClass, OpEvent};
use proptest::prelude::*;

fn arb_class() -> impl Strategy<Value = OpClass> {
    proptest::sample::select(OpClass::ALL.to_vec())
}

fn arb_event() -> impl Strategy<Value = OpEvent> {
    (
        arb_class(),
        1u64..10_000_000,  // flops
        1u64..10_000_000,  // iops
        64u64..50_000_000, // bytes read
        64u64..50_000_000, // bytes written
        1u64..5_000_000,   // threads
        proptest::collection::vec(0u32..100_000, 0..256),
        32u64..2048,
    )
        .prop_map(
            |(class, flops, iops, br, bw, threads, indices, row_bytes)| OpEvent {
                class,
                kernel: "prop",
                flops,
                iops,
                bytes_read: br,
                bytes_written: bw,
                threads,
                reads: if indices.is_empty() {
                    vec![AccessDesc::Sequential { bytes: br }]
                } else {
                    vec![
                        AccessDesc::Sequential { bytes: br / 2 },
                        AccessDesc::Indexed {
                            indices: Arc::new(indices),
                            row_bytes,
                            table_bytes: 100_000 * row_bytes,
                        },
                    ]
                },
                writes: vec![AccessDesc::Sequential { bytes: bw }],
            },
        )
}

/// A V100 with a 4 KiB L1 and a 32 KiB L2, so that steps of a few events
/// overflow both and the walk stays cheap.
fn tiny_cache_gpu() -> DeviceSpec {
    DeviceSpec {
        l1_bytes: 4 * 1024,
        l2_bytes: 32 * 1024,
        ..DeviceSpec::v100()
    }
}

/// An event touching at most `max_bytes` per descriptor, with an index
/// array of up to 64 rows.
fn arb_small_event(max_bytes: u64) -> impl Strategy<Value = OpEvent> {
    (
        arb_class(),
        1u64..1_000_000,
        128u64..max_bytes,
        0u64..3,
        proptest::collection::vec(0u32..4_096, 1..64),
        1u64..1_000_000,
    )
        .prop_map(|(class, flops, bytes, shape, indices, threads)| {
            let access = match shape {
                0 => AccessDesc::Sequential { bytes },
                1 => AccessDesc::Indexed {
                    indices: Arc::new(indices),
                    row_bytes: 16,
                    table_bytes: 4_096 * 16,
                },
                _ => AccessDesc::Random {
                    accesses: bytes / 4,
                    access_bytes: 4,
                    region_bytes: bytes,
                },
            };
            OpEvent {
                class,
                kernel: "prop",
                flops,
                iops: flops / 3,
                bytes_read: bytes,
                bytes_written: bytes / 2,
                threads,
                reads: vec![access],
                writes: vec![AccessDesc::Sequential { bytes: bytes / 2 }],
            }
        })
}

/// One thing done to a model: a pool step run as a step, or its events run
/// through bare [`GpuModel::execute`] calls.
#[derive(Debug, Clone, Copy)]
enum Run {
    Step(usize),
    Bare(usize),
}

/// Every field of every kernel, bit for bit: `Debug` prints each `f64` in
/// the shortest form that reads back to the same bits.
fn bits(kernels: &[KernelMetrics]) -> Vec<String> {
    kernels.iter().map(|k| format!("{k:?}")).collect()
}

/// The reference: every event through [`GpuModel::execute`], in order.
fn per_event(spec: &DeviceSpec, pool: &[Vec<OpEvent>], runs: &[Run]) -> (Vec<String>, u64) {
    let mut gpu = GpuModel::new(spec.clone());
    let mut out = Vec::new();
    for &(Run::Step(i) | Run::Bare(i)) in runs {
        out.extend(pool[i].iter().map(|e| gpu.execute(e)));
    }
    (bits(&out), gpu.kernels_executed())
}

/// The same runs with every `Step` through [`GpuModel::execute_step`],
/// following the last `Step` before it; returns the metrics, the kernel
/// count and the steps elided.
fn stepped(spec: &DeviceSpec, pool: &[Vec<OpEvent>], runs: &[Run]) -> (Vec<String>, u64, u64) {
    let mut gpu = GpuModel::new(spec.clone());
    let mut out: Vec<KernelMetrics> = Vec::new();
    let mut step = Vec::new();
    let mut prev: Option<(usize, std::ops::Range<usize>)> = None;
    for &run in runs {
        match run {
            Run::Step(i) => {
                let prev_step = prev.clone().map(|(p, at)| PrevStep {
                    events: &pool[p],
                    kernels: &out[at],
                });
                gpu.execute_step(&pool[i], prev_step, &mut step);
                prev = Some((i, out.len()..out.len() + step.len()));
                out.append(&mut step);
            }
            Run::Bare(i) => out.extend(pool[i].iter().map(|e| gpu.execute(e))),
        }
    }
    (bits(&out), gpu.kernels_executed(), gpu.steps_elided())
}

/// Runs both ways, asserts they agree, and returns the steps elided.
fn elided_when_equal_to_per_event(spec: &DeviceSpec, pool: &[Vec<OpEvent>], runs: &[Run]) -> u64 {
    let (want, want_count) = per_event(spec, pool, runs);
    let (got, got_count, elided) = stepped(spec, pool, runs);
    assert_eq!(got.len(), want.len(), "{runs:?}");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "kernel {i} of {runs:?}");
    }
    assert_eq!(got_count, want_count, "kernels_executed of {runs:?}");
    elided
}

/// Two small steps and a cache-flushing sweep; `fits` and `other` fit in
/// the V100's caches.
fn step_pool() -> Vec<Vec<OpEvent>> {
    let event = |kernel, reads: Vec<AccessDesc>, bytes| OpEvent {
        class: OpClass::Gather,
        kernel,
        flops: 1_000,
        iops: 5_000,
        bytes_read: bytes,
        bytes_written: 4_096,
        threads: 4_096,
        reads,
        writes: vec![AccessDesc::Sequential { bytes: 4_096 }],
    };
    let indices = Arc::new((0..2_048u32).map(|i| i * 7 % 1_000).collect());
    let fits = vec![
        event(
            "gather",
            vec![AccessDesc::Indexed {
                indices,
                row_bytes: 32,
                table_bytes: 32_000,
            }],
            65_536,
        ),
        event(
            "sweep",
            vec![AccessDesc::Sequential { bytes: 16_384 }],
            16_384,
        ),
    ];
    let other = vec![event(
        "sort",
        vec![AccessDesc::Random {
            accesses: 8_192,
            access_bytes: 4,
            region_bytes: 32_768,
        }],
        32_768,
    )];
    // Twice the V100's 6 MiB L2.
    let flush = vec![event(
        "flush",
        vec![AccessDesc::Sequential { bytes: 12 << 20 }],
        12 << 20,
    )];
    vec![fits, other, flush]
}

#[test]
fn a_third_repeat_is_elided_and_matches_per_event() {
    let pool = step_pool();
    let runs = [Run::Step(0), Run::Step(0), Run::Step(0)];
    for spec in [DeviceSpec::v100(), DeviceSpec::a100(), tiny_cache_gpu()] {
        assert_eq!(
            elided_when_equal_to_per_event(&spec, &pool, &runs),
            1,
            "{}",
            spec.name
        );
    }
}

#[test]
fn alternating_steps_are_never_elided() {
    let pool = step_pool();
    let runs = [Run::Step(0), Run::Step(1), Run::Step(0), Run::Step(1)];
    assert_eq!(
        elided_when_equal_to_per_event(&DeviceSpec::v100(), &pool, &runs),
        0
    );
}

#[test]
fn a_repeat_larger_than_l2_is_elided_exactly() {
    let pool = step_pool();
    let runs = [Run::Step(2), Run::Step(2), Run::Step(2), Run::Step(2)];
    assert_eq!(
        elided_when_equal_to_per_event(&DeviceSpec::v100(), &pool, &runs),
        2
    );
}

#[test]
fn a_repeat_after_a_bare_execute_is_simulated() {
    let pool = step_pool();
    let spec = DeviceSpec::v100();
    // The flush in between leaves the caches cold for the third `fits`, so
    // copying the second one's metrics would be wrong; the fourth finds what
    // the third left and is the first a fifth can be copied from.
    let runs = [
        Run::Step(0),
        Run::Step(0),
        Run::Bare(2),
        Run::Step(0),
        Run::Step(0),
        Run::Step(0),
    ];
    assert_eq!(elided_when_equal_to_per_event(&spec, &pool, &runs), 1);
    let (want, _) = per_event(&spec, &pool, &runs);
    assert_ne!(
        want[2..4],
        want[5..7],
        "the flush must change the repeat's metrics"
    );
}

/// One event reading table rows `rows`, 128 bytes each, in order: with
/// nothing else in the kernel, row `r` is line `2^21 + r`.
fn read_rows(rows: Vec<u32>) -> Vec<OpEvent> {
    vec![OpEvent {
        class: OpClass::Gather,
        kernel: "rows",
        flops: 0,
        iops: rows.len() as u64,
        bytes_read: 128 * rows.len() as u64,
        bytes_written: 0,
        threads: 32,
        reads: vec![AccessDesc::Indexed {
            indices: Arc::new(rows),
            row_bytes: 128,
            table_bytes: 128 * 1024,
        }],
        writes: vec![],
    }]
}

#[test]
fn a_repeat_that_moves_one_cache_level_is_not_taken_for_unchanged() {
    // The bare `evict` between two runs of `reread` leaves the third
    // `reread` to change one level only; taking that step for unchanged
    // would copy its misses into the fourth.
    //
    // L1 8 sets × 4 ways, L2 16 sets: rows 8, 24, 40 and 56 share row 0's
    // L1 set but not its L2 set. The third read of row 0 misses L1 and hits
    // L2, where row 0 is already most recent: only L1 changes.
    let only_l1 = (
        tiny_cache_gpu(),
        [read_rows(vec![0]), read_rows(vec![8, 24, 40, 56])],
    );
    // L2 12 sets: rows 0, 24, 48, 72, 96 share an L1 set they overflow,
    // so they miss L1 every time and leave it as they found it. The twelve
    // rows 12, 36, .., 276 share only their L2 set and push row 0 out of
    // it: the third read misses L2 once and changes only L2.
    let only_l2 = (
        DeviceSpec {
            l2_bytes: 24 * 1024,
            ..tiny_cache_gpu()
        },
        [
            read_rows((0..5).map(|i| 24 * i).collect()),
            read_rows((0..12).map(|i| 12 + 24 * i).collect()),
        ],
    );
    let runs = [
        Run::Step(0),
        Run::Step(0),
        Run::Bare(1),
        Run::Step(0),
        Run::Step(0),
        Run::Step(0),
    ];
    for (level, (spec, pool)) in [("L1", only_l1), ("L2", only_l2)] {
        assert_eq!(
            elided_when_equal_to_per_event(&spec, &pool, &runs),
            1,
            "{level}"
        );
        let (want, _) = per_event(&spec, &pool, &runs);
        assert_ne!(want[3], want[4], "{level}: the third read must miss more");
    }
}

/// The stamp-LRU cache model `CacheSim` used before its sets became
/// recency-ordered arrays, kept verbatim as the reference the probe routine
/// is differentially tested against. `CacheSim::access` reaches the same
/// `promote` the kernel walker inlines: ways 4 and 16 its fixed-width
/// instantiations, every other associativity the run-time-width one.
struct StampLru {
    sets: usize,
    ways: usize,
    line_bytes: u64,
    tags: Vec<u64>,
    valid: Vec<bool>,
    stamps: Vec<u64>,
    clock: u64,
    accesses: u64,
    hits: u64,
}

impl StampLru {
    fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        let lines = (capacity_bytes / line_bytes) as usize;
        let sets = (lines / ways).max(1);
        StampLru {
            sets,
            ways,
            line_bytes,
            tags: vec![0; sets * ways],
            valid: vec![false; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            accesses: 0,
            hits: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set = (line as usize) % self.sets;
        let base = set * self.ways;
        self.accesses += 1;
        self.clock += 1;
        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for w in base..base + self.ways {
            if self.valid[w] {
                if self.tags[w] == line {
                    self.stamps[w] = self.clock;
                    self.hits += 1;
                    return true;
                }
                if self.stamps[w] < victim_stamp {
                    victim_stamp = self.stamps[w];
                    victim = w;
                }
            } else if victim_stamp > 0 {
                // An invalid way beats any valid one as the victim.
                victim_stamp = 0;
                victim = w;
            }
        }
        self.tags[victim] = line;
        self.valid[victim] = true;
        self.stamps[victim] = self.clock;
        false
    }
}

/// `(ways, sets, line_bytes)` — the associativities `GpuModel` builds plus
/// degenerate and odd ones; power-of-two, odd and the V100 L2's 3144 sets.
fn arb_geometry() -> impl Strategy<Value = (usize, u64, u64)> {
    (
        proptest::sample::select(vec![1usize, 2, 3, 4, 9, 16]),
        proptest::sample::select(vec![1u64, 2, 7, 64, 3144]),
        proptest::sample::select(vec![32u64, 128]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_metrics_respect_hardware_bounds(event in arb_event()) {
        let mut gpu = GpuModel::new(DeviceSpec::v100());
        let m = gpu.execute(&event);
        prop_assert!(m.time_ns > 0.0);
        prop_assert!(m.cycles >= m.active_cycles);
        prop_assert!(m.gflops() <= gpu.spec().peak_gflops() + 1e-6);
        prop_assert!(m.ipc() <= gpu.spec().schedulers_per_sm as f64 + 1e-9);
        prop_assert!(m.sms_used >= 1 && m.sms_used <= gpu.spec().sms);
        // Memory trace invariants.
        prop_assert!(m.memory.l1_hits <= m.memory.l1_accesses);
        prop_assert!(m.memory.l2_hits <= m.memory.l2_accesses);
        prop_assert!(m.memory.l2_accesses <= m.memory.l1_accesses);
        prop_assert!(m.memory.divergent_warp_ops <= m.memory.warp_ops);
        // Stall shares form a distribution.
        let total: f64 = StallReason::ALL.iter().map(|&r| m.stalls.share(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_bytes_never_run_faster(bytes in 1u64..1_000_000, factor in 2u64..8) {
        let make = |b: u64| OpEvent {
            class: OpClass::ElementWise,
            kernel: "sweep",
            flops: b / 4,
            iops: b,
            bytes_read: b,
            bytes_written: b,
            threads: b / 4,
            reads: vec![AccessDesc::Sequential { bytes: b }],
            writes: vec![AccessDesc::Sequential { bytes: b }],
        };
        let mut gpu1 = GpuModel::new(DeviceSpec::v100());
        let mut gpu2 = GpuModel::new(DeviceSpec::v100());
        let small = gpu1.execute(&make(bytes));
        let big = gpu2.execute(&make(bytes * factor));
        prop_assert!(big.time_ns >= small.time_ns * 0.99,
            "bytes {} → {} ns, bytes {} → {} ns",
            bytes, small.time_ns, bytes * factor, big.time_ns);
    }

    #[test]
    fn cache_hits_bounded_and_capacity_monotone(
        addrs in proptest::collection::vec(0u64..1_000_000, 16..512),
    ) {
        let mut small = CacheSim::new(16 * 1024, 4, 128);
        let mut large = CacheSim::new(1024 * 1024, 4, 128);
        for &a in &addrs {
            small.access(a);
            large.access(a);
        }
        prop_assert!(small.hits() <= small.accesses());
        prop_assert!(large.hits() >= small.hits(),
            "larger cache must not hit less: {} vs {}", large.hits(), small.hits());
    }

    #[test]
    fn recency_ordered_sets_match_stamp_lru(
        (ways, sets, line_bytes) in arb_geometry(),
        ops in proptest::collection::vec((0u8..3, 0u64..1 << 20), 64..2048),
    ) {
        let capacity = sets * ways as u64 * line_bytes;
        let mut new = CacheSim::new(capacity, ways, line_bytes);
        let mut old = StampLru::new(capacity, ways, line_bytes);
        for (i, &(shape, raw)) in ops.iter().enumerate() {
            let i = i as u64;
            let line = match shape {
                // Reuse: twice a set's capacity of lines over two sets.
                0 => (raw >> 8) % sets.min(2) + raw % (2 * ways as u64) * sets,
                // Cold fill: every line new, consecutive sets.
                1 => (1 << 24) + i,
                // Conflict stride: cycle ways + 1 lines through set 0.
                _ => i % (ways as u64 + 1) * sets,
            };
            let addr = line * line_bytes + raw % line_bytes;
            prop_assert_eq!(new.access(addr), old.access(addr), "access {} (line {})", i, line);
        }
        prop_assert_eq!(new.accesses(), old.accesses);
        prop_assert_eq!(new.hits(), old.hits);
    }

    #[test]
    fn execute_step_equals_the_per_event_loop(
        pool in proptest::collection::vec(
            proptest::collection::vec(arb_small_event(64 * 1024), 1..4),
            1..4,
        ),
        picks in proptest::collection::vec((0u8..5, 0usize..3), 2..12),
        caches in 0u8..2,
    ) {
        let runs: Vec<Run> = picks
            .iter()
            .map(|&(kind, i)| {
                let i = i % pool.len();
                if kind == 0 { Run::Bare(i) } else { Run::Step(i) }
            })
            .collect();
        let spec = if caches == 0 { tiny_cache_gpu() } else { DeviceSpec::v100() };
        elided_when_equal_to_per_event(&spec, &pool, &runs);
    }

    #[test]
    fn allreduce_monotone_in_bytes_and_gpus(
        bytes in 1u64..(1 << 28),
        n in 2u32..4,
    ) {
        let ddp = DdpModel::new(DeviceSpec::v100());
        prop_assert!(ddp.allreduce_ns(bytes, n) <= ddp.allreduce_ns(bytes * 2, n));
        prop_assert!(ddp.allreduce_ns(bytes, n) <= ddp.allreduce_ns(bytes, n + 1));
    }

    #[test]
    fn data_parallel_speedup_bounded_by_gpu_count(
        epoch_ms in 1.0f64..10_000.0,
        steps in 1u64..200,
        grad_kb in 1u64..100_000,
        n in 2u32..5,
    ) {
        let ddp = DdpModel::new(DeviceSpec::v100());
        let s = ddp.speedup(
            epoch_ms * 1e6,
            steps,
            grad_kb * 1024,
            ScalingBehavior::DataParallel,
            n,
        );
        prop_assert!(s > 0.0);
        prop_assert!(s <= n as f64 + 1e-9, "superlinear speedup {s} on {n} GPUs");
    }

    #[test]
    fn half_precision_never_increases_memory_time(event in arb_event()) {
        let mut fp32 = GpuModel::new(DeviceSpec::v100());
        let mut fp16 = GpuModel::new(DeviceSpec::v100().with_half_precision());
        let m32 = fp32.execute(&event);
        let m16 = fp16.execute(&event);
        prop_assert!(m16.memory.dram_bytes <= m32.memory.dram_bytes + 256);
    }
}

//! Property-based tests for the GPU model's invariants.

use std::sync::Arc;

use gnnmark_gpusim::{CacheSim, DdpModel, DeviceSpec, GpuModel, ScalingBehavior, StallReason};
use gnnmark_tensor::{AccessDesc, OpClass, OpEvent};
use proptest::prelude::*;

fn arb_class() -> impl Strategy<Value = OpClass> {
    proptest::sample::select(OpClass::ALL.to_vec())
}

fn arb_event() -> impl Strategy<Value = OpEvent> {
    (
        arb_class(),
        1u64..10_000_000,        // flops
        1u64..10_000_000,        // iops
        64u64..50_000_000,       // bytes read
        64u64..50_000_000,       // bytes written
        1u64..5_000_000,         // threads
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

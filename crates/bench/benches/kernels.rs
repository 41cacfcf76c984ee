//! Micro-benchmarks of the substrate: tensor kernels (sequential vs
//! parallel) and the GPU model's simulation cost per kernel class.
//!
//! With `CRITERION_JSON=BENCH_kernels.json` the run writes the perf
//! baseline that CI's `bench-smoke` job regresses against (see the
//! `bench-check` binary); `CRITERION_QUICK=1` clamps sample counts for
//! smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use gnnmark_gpusim::{DeviceSpec, GpuModel};
use gnnmark_tensor::{par, record, AccessDesc, CsrMatrix, IntTensor, OpClass, OpEvent, Tensor};

fn bench_tensor_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor_ops");
    let a = Tensor::from_fn(&[256, 256], |i| (i % 17) as f32 * 0.1);
    let b = Tensor::from_fn(&[256, 256], |i| (i % 13) as f32 * 0.1);
    group.bench_function("gemm_256", |bch| {
        bch.iter(|| std::hint::black_box(a.matmul(&b).unwrap()))
    });

    let triplets: Vec<(usize, usize, f32)> = (0..8192)
        .map(|i| ((i * 37) % 1024, (i * 101) % 1024, 1.0))
        .collect();
    let sp = CsrMatrix::from_coo(1024, 1024, &triplets).unwrap();
    let x = Tensor::ones(&[1024, 64]);
    group.bench_function("spmm_1k_8knnz", |bch| {
        bch.iter(|| std::hint::black_box(sp.spmm(&x).unwrap()))
    });

    let table = Tensor::ones(&[10_000, 64]);
    let idx = IntTensor::from_vec(&[4096], (0..4096).map(|i| (i * 7) % 10_000).collect()).unwrap();
    group.bench_function("gather_4k_rows", |bch| {
        bch.iter(|| std::hint::black_box(table.gather_rows(&idx).unwrap()))
    });

    let keys = Tensor::from_fn(&[16384], |i| ((i * 2654435761) % 1_000_003) as f32);
    group.bench_function("argsort_16k", |bch| {
        bch.iter(|| std::hint::black_box(keys.argsort().unwrap()))
    });

    // GW's LSTM backward, `d_gates [24, 512] x W_hhᵀ` with `W_hh` stored
    // `[256, 512]`: transposing the right operand moves as many elements as
    // the product has MACs / 24, so this is the shape a slow pack hurts most.
    let d_gates = Tensor::from_fn(&[24, 512], |i| (i % 17) as f32 * 0.1 - 0.5);
    let w_hh = Tensor::from_fn(&[256, 512], |i| (i % 13) as f32 * 0.1 - 0.4);
    group.bench_function("gemm_nt_24x512x256", |bch| {
        bch.iter(|| std::hint::black_box(d_gates.matmul_nt(&w_hh).unwrap()))
    });

    let img = Tensor::ones(&[4, 16, 12, 64]);
    let filt = Tensor::ones(&[16, 16, 3, 1]);
    let spec = gnnmark_tensor::ops::conv::Conv2dSpec::default();
    group.bench_function("conv2d_temporal", |bch| {
        bch.iter(|| std::hint::black_box(img.conv2d(&filt, spec).unwrap()))
    });
    let dout = Tensor::ones(&[4, 16, 10, 64]);
    group.bench_function("conv2d_backward_temporal", |bch| {
        bch.iter(|| std::hint::black_box(img.conv2d_backward(&filt, spec, &dout).unwrap()))
    });

    // What one parameter read costs the training thread: GW reads a weight
    // of this size onto the tape before every LSTM-step GEMM.
    let weight = gnnmark_autograd::Param::new("w", Tensor::ones(&[256, 512]));
    group.bench_function("tape_read_512k", |bch| {
        bch.iter(|| {
            let tape = gnnmark_autograd::Tape::new();
            std::hint::black_box(tape.read(&weight));
        })
    });
    group.finish();
}

/// The same hot kernels at 1, 2 (the repo benchmark's thread count) and 4
/// threads: seven large shapes that `par` splits and two GNN-sized ones
/// (`gemm_64x128x128`, `add_8k_x32`) that its grain keeps inline. Outputs are
/// bit-identical at every thread count; only wall-clock may change. The
/// `_t1` medians are where `par::Cost`'s per-unit estimates come from, and
/// `bench-check` fails any `_tN` leg that loses to its own `_t1`.
fn bench_parallel_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_kernels");
    // Legs of one kernel are compared with each other at 15 %, so their
    // medians want more than the other groups' ten samples.
    group.sample_size(20);

    let a = Tensor::from_fn(&[384, 384], |i| (i % 17) as f32 * 0.1 - 0.5);
    let b = Tensor::from_fn(&[384, 384], |i| (i % 13) as f32 * 0.1 - 0.4);
    let triplets: Vec<(usize, usize, f32)> = (0..32_768)
        .map(|i| ((i * 37) % 4096, (i * 101) % 4096, 1.0))
        .collect();
    let sp = CsrMatrix::from_coo(4096, 4096, &triplets).unwrap();
    let x = Tensor::from_fn(&[4096, 64], |i| (i % 11) as f32 * 0.2);
    let src = Tensor::from_fn(&[32_768, 32], |i| (i % 23) as f32 * 0.1);
    let idx = IntTensor::from_vec(
        &[32_768],
        (0..32_768).map(|i| ((i * 97) % 2048) as i64).collect(),
    )
    .unwrap();
    let wide = Tensor::from_fn(&[1 << 20], |i| (i % 29) as f32 * 0.05 - 0.7);
    let small_a = Tensor::from_fn(&[64, 128], |i| (i % 17) as f32 * 0.1 - 0.5);
    let small_b = Tensor::from_fn(&[128, 128], |i| (i % 13) as f32 * 0.1 - 0.4);
    let narrow = Tensor::from_fn(&[8192], |i| (i % 29) as f32 * 0.05 - 0.7);

    // Kernel-major order: the legs `bench-check` compares with each other
    // run back to back, so drift on the box lands on all of them alike.
    let kernels: [(&str, &dyn Fn()); 9] = [
        ("gemm_384", &|| {
            drop(std::hint::black_box(a.matmul(&b).unwrap()))
        }),
        ("gemm_nt_384", &|| {
            drop(std::hint::black_box(a.matmul_nt(&b).unwrap()))
        }),
        ("gemm_tn_384", &|| {
            drop(std::hint::black_box(a.matmul_tn(&b).unwrap()))
        }),
        ("spmm_4k_32knnz", &|| {
            drop(std::hint::black_box(sp.spmm(&x).unwrap()))
        }),
        ("scatter_add_32k", &|| {
            drop(std::hint::black_box(
                src.scatter_add_rows(&idx, 2048).unwrap(),
            ))
        }),
        ("relu_1m", &|| drop(std::hint::black_box(wide.relu()))),
        ("softmax_32kx32", &|| {
            drop(std::hint::black_box(src.softmax_rows().unwrap()))
        }),
        ("gemm_64x128x128", &|| {
            drop(std::hint::black_box(small_a.matmul(&small_b).unwrap()))
        }),
        // 1.7 µs a call: 32 calls a sample, or timer noise decides the gate.
        ("add_8k_x32", &|| {
            for _ in 0..32 {
                drop(std::hint::black_box(narrow.add(&narrow).unwrap()));
            }
        }),
    ];
    for (name, kernel) in kernels {
        for t in [1usize, 2, 4] {
            par::set_threads(t);
            group.bench_function(format!("{name}_t{t}"), |bch| bch.iter(kernel));
        }
    }
    par::set_threads(1);
    group.finish();
}

/// The same kernels forced onto the scalar reference lane vs the
/// auto-detected SIMD lane (`GNNMARK_SIMD` notwithstanding — the override
/// here is thread-local and explicit). The `_lane_scalar`/`_lane_auto`
/// pairs in `BENCH_kernels.json` record the measured vectorization win on
/// the build machine. gemm is compute-bound and shows the full win;
/// Tensor-level elementwise is memory-bound, so the elementwise figure is
/// taken at the microkernel level on an L1-resident buffer.
fn bench_simd_lanes(c: &mut Criterion) {
    use gnnmark_tensor::simd::{self, SimdLevel};
    let mut group = c.benchmark_group("simd_lanes");
    group.sample_size(10);

    let a = Tensor::from_fn(&[256, 256], |i| (i % 17) as f32 * 0.1);
    let b = Tensor::from_fn(&[256, 256], |i| (i % 13) as f32 * 0.1);
    // 4k f32 = 16 KiB: resident in L1, so compute (not DRAM bandwidth)
    // is the limit and the lane difference is visible.
    let src: Vec<f32> = (0..4096).map(|i| (i % 19) as f32 * 0.01).collect();
    let mut dst = vec![0.25f32; 4096];
    let wide = Tensor::from_fn(&[1 << 20], |i| (i % 29) as f32 * 0.05 - 0.7);

    for (tag, lvl) in [("scalar", SimdLevel::Scalar), ("auto", simd::detect())] {
        group.bench_function(format!("gemm_256_lane_{tag}"), |bch| {
            bch.iter(|| simd::with_level(lvl, || std::hint::black_box(a.matmul(&b).unwrap())))
        });
        group.bench_function(format!("axpy_4k_x16_lane_{tag}"), |bch| {
            bch.iter(|| {
                for _ in 0..16 {
                    simd::axpy(lvl, &mut dst, 1.0e-4, &src);
                }
                std::hint::black_box(dst[0])
            })
        });
        group.bench_function(format!("vsum_1m_lane_{tag}"), |bch| {
            bch.iter(|| std::hint::black_box(simd::vsum(lvl, wide.as_slice())))
        });
    }
    group.finish();
}

fn bench_gpu_model(c: &mut Criterion) {
    // The GPU model's own simulation throughput per kernel class.
    record::start_recording();
    let a = Tensor::ones(&[512, 512]);
    let _ = a.matmul(&a).unwrap();
    let table = Tensor::ones(&[50_000, 64]);
    let idx = IntTensor::from_vec(&[8192], (0..8192).map(|i| (i * 97) % 50_000).collect()).unwrap();
    let _ = table.gather_rows(&idx).unwrap();
    let big = Tensor::ones(&[4_000_000]);
    let _ = big.relu();
    let events = record::stop_recording();

    let mut group = c.benchmark_group("gpu_model_simulation");
    for (i, name) in ["gemm", "gather", "elementwise"].iter().enumerate() {
        let ev = events[i].clone();
        group.bench_function(format!("simulate_{name}"), |bch| {
            bch.iter(|| {
                let mut gpu = GpuModel::new(DeviceSpec::v100());
                std::hint::black_box(gpu.execute(&ev))
            })
        });
    }
    // 32 768 lines per descriptor: past `2 · warm` of every L1 geometry the
    // sweep uses, so the middle of each run takes the cache walker's run
    // rule. The model is warm, as in the middle of a training step.
    let ev = OpEvent {
        class: OpClass::ElementWise,
        kernel: "sequential_4mb",
        flops: 1 << 20,
        iops: 0,
        bytes_read: 4 << 20,
        bytes_written: 4 << 20,
        threads: 1 << 20,
        reads: vec![AccessDesc::Sequential { bytes: 4 << 20 }],
        writes: vec![AccessDesc::Sequential { bytes: 4 << 20 }],
    };
    let mut gpu = GpuModel::new(DeviceSpec::v100());
    gpu.execute(&ev);
    group.bench_function("simulate_sequential_4mb", |bch| {
        bch.iter(|| std::hint::black_box(gpu.execute(&ev)))
    });
    // PSAGE's sort descriptor at `Scale::Small` (9 820 eight-byte keys, 14
    // levels): 613 region lines, more than a 64 KiB L1's 512, so every warp
    // takes the cache walker's region walk rather than the resident-region
    // rule. The model is warm.
    let ev = OpEvent {
        class: OpClass::Sort,
        kernel: "psage_sort",
        flops: 0,
        iops: 137_480,
        bytes_read: 78_560,
        bytes_written: 78_560,
        threads: 137_480,
        reads: vec![AccessDesc::Random {
            accesses: 137_480,
            access_bytes: 8,
            region_bytes: 78_560,
        }],
        writes: vec![],
    };
    let mut gpu = GpuModel::new(DeviceSpec::v100().with_l1_bytes(64 * 1024));
    gpu.execute(&ev);
    group.bench_function("simulate_random_l1_64k", |bch| {
        bch.iter(|| std::hint::black_box(gpu.execute(&ev)))
    });
    group.finish();
}

/// Cost of the telemetry layer itself: a disabled span must stay at
/// branch-on-a-static-flag cost (it is compiled into every workload's hot
/// loop), and an enabled span documents the price of `--trace`.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);

    gnnmark_telemetry::set_enabled(false);
    group.bench_function("span_disabled", |bch| {
        bch.iter(|| {
            let s = gnnmark_telemetry::span!("bench");
            std::hint::black_box(&s);
        })
    });

    gnnmark_telemetry::set_enabled(true);
    group.bench_function("span_enabled", |bch| {
        bch.iter(|| {
            {
                let s = gnnmark_telemetry::span!("bench");
                std::hint::black_box(&s);
            }
            // Bound sink growth so long calibration runs stay flat.
            if gnnmark_telemetry::pending_spans() >= 65_536 {
                let _ = gnnmark_telemetry::take_host_trace();
            }
        })
    });
    gnnmark_telemetry::set_enabled(false);
    let _ = gnnmark_telemetry::take_host_trace();

    group.bench_function("counter_add", |bch| {
        bch.iter(|| gnnmark_telemetry::metrics::counter_add("bench_counter_total", 1))
    });
    group.finish();
}

criterion_group!(
    kernel_benches,
    bench_tensor_ops,
    bench_parallel_kernels,
    bench_simd_lanes,
    bench_gpu_model,
    bench_telemetry_overhead
);
criterion_main!(kernel_benches);

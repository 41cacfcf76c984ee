//! Layer probes: the traced run times calls into each layer's public
//! functions on the artefacts the workload just produced. Everything here
//! measures from outside; no span lives inside the program yet.

use std::hint::black_box;
use std::time::Instant;

use gnnmark_gpusim::stream::{CapturedRun, CapturedStream};
use gnnmark_gpusim::{cache, CacheSim, DeviceSpec, GpuModel};
use gnnmark_graph::datasets::{citation, CitationKind};
use gnnmark_graph::FanoutSampler;
use gnnmark_serve::{CacheKey, StreamCache};
use gnnmark_tensor::{CsrMatrix, IntTensor, OpClass, Tensor};

use crate::common::Outcome;
use crate::span::Tracer;
use crate::stats;

const MIB: f64 = 1024.0 * 1024.0;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median seconds of `reps` calls.
fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).1).collect();
    stats::median(&samples)
}

/// The `par_kernels` shapes of `BENCH_kernels.json`, at the run's thread
/// count: median of 20 calls each.
pub fn tensor_kernels(out: &mut Outcome) {
    const REPS: usize = 20;
    let a = Tensor::from_fn(&[384, 384], |i| (i % 17) as f32 * 0.1 - 0.5);
    let b = Tensor::from_fn(&[384, 384], |i| (i % 13) as f32 * 0.1 - 0.4);
    let triplets: Vec<(usize, usize, f32)> = (0..32_768)
        .map(|i| ((i * 37) % 4096, (i * 101) % 4096, 1.0))
        .collect();
    let sp = CsrMatrix::from_coo(4096, 4096, &triplets).expect("in-range triplets");
    let x = Tensor::from_fn(&[4096, 64], |i| (i % 11) as f32 * 0.2);
    let src = Tensor::from_fn(&[32_768, 32], |i| (i % 23) as f32 * 0.1);
    let idx = IntTensor::from_vec(&[32_768], (0..32_768).map(|i| (i * 97) % 2048).collect())
        .expect("index tensor shape matches its data");
    let wide = Tensor::from_fn(&[1 << 20], |i| (i % 29) as f32 * 0.05 - 0.7);

    let ms = |s: f64| s * 1e3;
    out.set("tensor.gemm_384_ms", ms(median_of(REPS, || a.matmul(&b))));
    out.set(
        "tensor.spmm_4k_32knnz_ms",
        ms(median_of(REPS, || sp.spmm(&x))),
    );
    out.set(
        "tensor.scatter_add_32k_ms",
        ms(median_of(REPS, || src.scatter_add_rows(&idx, 2048))),
    );
    out.set("tensor.relu_1m_ms", ms(median_of(REPS, || wide.relu())));
    out.set(
        "tensor.softmax_32kx32_ms",
        ms(median_of(REPS, || src.softmax_rows())),
    );
}

/// One epoch's worth of fanout sampling the way minibatch ARGA does it:
/// every node of the Cora-like graph seeds exactly one batch of 32, two
/// levels `10,5`.
pub fn graph_sample(out: &mut Outcome, graph_scale: f64, seed: u64) -> gnnmark::Result<()> {
    let graph = citation(CitationKind::Cora, graph_scale, seed)?;
    let adj = graph.normalized_adjacency()?;
    let sampler = FanoutSampler::new(&[10, 5], seed ^ 0x5a3b)?;
    let ids: Vec<i64> = (0..graph.num_nodes() as i64).collect();
    let mut edges = 0u64;
    let t0 = Instant::now();
    for (batch_id, seeds) in ids.chunks(32).enumerate() {
        edges += black_box(sampler.sample(&adj, seeds, batch_id as u64)?).edges;
    }
    let secs = t0.elapsed().as_secs_f64();
    out.set("graph.sample_s", secs);
    out.set("graph.sample_edges", edges as f64);
    Ok(())
}

/// Buckets of `gpusim.class_s.*`, by [`class_bucket`] index.
const CLASS_BUCKETS: [&str; 6] = [
    "gpusim.class_s.gemm",
    "gpusim.class_s.spmm",
    "gpusim.class_s.elementwise",
    "gpusim.class_s.scatter_gather",
    "gpusim.class_s.reduction",
    "gpusim.class_s.other",
];

fn class_bucket(class: OpClass) -> usize {
    match class {
        OpClass::Gemm | OpClass::Gemv => 0,
        OpClass::Spmm => 1,
        OpClass::ElementWise => 2,
        OpClass::Scatter | OpClass::Gather | OpClass::IndexSelect | OpClass::Embedding => 3,
        OpClass::Reduction | OpClass::Softmax => 4,
        _ => 5,
    }
}

/// Sums that turn into the exact-repeat simulated statistics once every
/// stream of the workload has been replayed.
#[derive(Debug, Default)]
pub struct SimTotals {
    events: u64,
    modeled_ns: f64,
    l1_hits: u64,
    l1_accesses: u64,
    l2_hits: u64,
    l2_accesses: u64,
    warp_instrs: f64,
    sm_cycles: f64,
}

impl SimTotals {
    /// Writes the derived gpusim/profiler metrics; call once, after the
    /// last stream.
    pub fn finish(&self, out: &mut Outcome) {
        let get = |o: &Outcome, k: &str| o.metrics.get(k).copied().unwrap_or(0.0);
        let pct = |hits: u64, all: u64| {
            if all == 0 {
                0.0
            } else {
                hits as f64 / all as f64 * 100.0
            }
        };
        let execute = get(out, "gpusim.execute_s");
        out.set(
            "gpusim.ns_per_event",
            if self.events == 0 {
                0.0
            } else {
                execute * 1e9 / self.events as f64
            },
        );
        // Differences of two near-equal measurements: a self time below
        // zero is noise, not time given back.
        out.set(
            "gpusim.timing_s",
            (execute - get(out, "gpusim.cache_sim_s")).max(0.0),
        );
        out.set(
            "profiler.build_profile_s",
            (get(out, "profiler.replay_s") - execute).max(0.0),
        );
        out.set("gpusim.modeled_ms", self.modeled_ns / 1e6);
        out.set("gpusim.l1_hit_pct", pct(self.l1_hits, self.l1_accesses));
        out.set("gpusim.l2_hit_pct", pct(self.l2_hits, self.l2_accesses));
        out.set(
            "gpusim.ipc",
            if self.sm_cycles == 0.0 {
                0.0
            } else {
                self.warp_instrs / self.sm_cycles
            },
        );
    }
}

/// Replays one captured stream through the simulator three ways — the
/// whole model per event (bucketed by op class), the cache simulation
/// alone on fresh caches, and the profiler's replay — and returns the
/// replayed profile's total modeled time for the caller's equality check.
pub fn simulate_stream(
    out: &mut Outcome,
    totals: &mut SimTotals,
    tracer: &mut Tracer,
    op: &str,
    label: &str,
    stream: &CapturedStream,
) -> f64 {
    let spec = DeviceSpec::v100();

    let mut class_s = [0.0; CLASS_BUCKETS.len()];
    tracer.span("gpusim.execute", op, |_| {
        let mut model = GpuModel::new(spec.clone());
        for event in &stream.events {
            let (k, secs) = timed(|| model.execute(event));
            class_s[class_bucket(event.class)] += secs;
            totals.modeled_ns += k.time_ns;
            totals.l1_hits += k.memory.l1_hits;
            totals.l1_accesses += k.memory.l1_accesses;
            totals.l2_hits += k.memory.l2_hits;
            totals.l2_accesses += k.memory.l2_accesses;
            totals.warp_instrs += k.warp_instrs as f64;
            totals.sm_cycles += k.active_cycles * f64::from(k.sms_used);
        }
        totals.events += stream.events.len() as u64;
    });
    for (name, secs) in CLASS_BUCKETS.into_iter().zip(class_s) {
        out.add(name, secs);
        out.add("gpusim.execute_s", secs);
    }

    // Same geometry as `GpuModel::new`; fp32 streams need no byte scaling.
    let ((), cache_s) = tracer.span("gpusim.cache_sim", op, |_| {
        let mut l1 = CacheSim::new(spec.l1_bytes, 4, spec.line_bytes);
        let mut l2 = CacheSim::new(spec.l2_bytes, 16, spec.line_bytes);
        for event in &stream.events {
            black_box(cache::simulate_kernel(
                &spec,
                &mut l1,
                &mut l2,
                &event.reads,
                &event.writes,
            ));
        }
    });
    out.add("gpusim.cache_sim_s", cache_s);

    let (profile, replay_s) = tracer.span("profiler.replay", op, |_| {
        gnnmark_profiler::replay_profile(label, spec.clone(), stream)
    });
    out.add("profiler.replay_s", replay_s);
    profile.total_time_ns()
}

/// Encode / decode / store / load of one captured run through the serve
/// replay cache.
pub fn stream_cache(
    out: &mut Outcome,
    tracer: &mut Tracer,
    op: &str,
    cache: &StreamCache,
    key: &CacheKey,
    run: &CapturedRun,
) {
    let (bytes, secs) = tracer.span("serve.encode", op, |_| run.to_bytes());
    out.add("serve.encode_s", secs);
    out.add("serve.stream_mb", bytes.len() as f64 / MIB);
    let (decoded, secs) = tracer.span("serve.decode", op, |_| CapturedRun::from_bytes(&bytes));
    out.add("serve.decode_s", secs);
    out.check(
        decoded.is_ok_and(|d| d.stream.events.len() == run.stream.events.len()),
        || format!("{op}: captured run does not survive encode/decode"),
    );
    let (stored, secs) = tracer.span("serve.cache_store", op, |_| cache.store(key, run));
    out.add("serve.cache_store_s", secs);
    out.check(stored.is_ok(), || format!("{op}: cache store failed"));
    let (loaded, secs) = tracer.span("serve.cache_load", op, |_| cache.load(key));
    out.add("serve.cache_load_s", secs);
    out.check(loaded.is_some(), || {
        format!("{op}: cache load missed a stored key")
    });
}

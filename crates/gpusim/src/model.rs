//! The interval timing model: lowers op events onto the device.
//!
//! Calibration philosophy: the GNNMark paper's central throughput finding
//! is that GNN training kernels achieve a *tiny fraction* of V100 peak
//! (suite average ≈ 214 GFLOPS / 705 GIOPS against 14 TFLOPS peak, with
//! GEMM in the mid-300s and irregular ops near 100). The model reproduces
//! this through three mechanisms: (1) block-level SM utilization — GNN
//! kernels launch few thread blocks, idling most of the chip; (2) low
//! per-class issue efficiency for kernels with poor ILP / tiling on
//! skinny GNN shapes; (3) memory-boundedness measured by the cache
//! simulator.

use gnnmark_tensor::{OpClass, OpEvent};

use crate::cache::{self, CacheSim};
use crate::device::DeviceSpec;
use crate::kernel::{InstructionMix, KernelMetrics};
use crate::stall;

/// Average DRAM access latency, core cycles.
const DRAM_LATENCY_CYCLES: f64 = 450.0;
/// Average L2 hit latency, core cycles.
const L2_LATENCY_CYCLES: f64 = 200.0;
/// Resident warps per SM needed to saturate issue.
const WARPS_PER_SM_FOR_FULL_OCCUPANCY: u64 = 16;
/// Outstanding memory requests each resident warp can sustain.
const MISSES_IN_FLIGHT_PER_WARP: f64 = 2.0;
/// Fixed pipeline fill/drain cycles per kernel (~0.4 µs at 1.38 GHz).
const KERNEL_TAIL_CYCLES: f64 = 1500.0;

/// Per-class issue efficiency: the fraction of an SM's peak issue an
/// optimized kernel of this class sustains on *GNN-shaped* inputs.
///
/// These are deliberately far below 1.0 — they encode the tile
/// quantization, register pressure and short inner loops that make real
/// GNN kernels run at a few percent of peak (paper §V-B).
fn issue_efficiency(class: OpClass) -> f64 {
    match class {
        OpClass::Gemm => 0.65,
        OpClass::Gemv => 0.30,
        OpClass::Spmm => 0.25,
        OpClass::Conv2d => 0.40,
        OpClass::BatchNorm => 0.30,
        OpClass::Scatter | OpClass::Gather | OpClass::IndexSelect | OpClass::Embedding => 0.35,
        OpClass::Reduction => 0.25,
        OpClass::Sort => 0.30,
        OpClass::ElementWise => 0.60,
        OpClass::Softmax => 0.30,
        OpClass::DataMovement => 0.60,
    }
}

/// Work items per thread block by class (tiled classes cover many
/// elements per block; scalar kernels use 256-thread blocks).
fn elems_per_block(class: OpClass) -> u64 {
    match class {
        // 64×64 output tiles.
        OpClass::Gemm => 4096,
        OpClass::Conv2d => 1024,
        _ => 256,
    }
}

/// Whether the class's fp work is FMA-shaped (2 flops per instruction).
fn is_mac_class(class: OpClass) -> bool {
    matches!(
        class,
        OpClass::Gemm | OpClass::Gemv | OpClass::Spmm | OpClass::Conv2d
    )
}

/// The step a [`GpuModel::execute_step`] call follows: its events and the
/// metrics the model produced for them.
#[derive(Debug, Clone, Copy)]
pub struct PrevStep<'a> {
    /// The previous step's events, in order.
    pub events: &'a [OpEvent],
    /// The metrics the model produced for them, one per event.
    pub kernels: &'a [KernelMetrics],
}

/// An analytical single-GPU model with persistent cache state.
///
/// Feed it the recorded [`OpEvent`]s of a training step in order; each
/// call simulates the kernel's memory behavior through the shared cache
/// hierarchy and returns full [`KernelMetrics`]. [`GpuModel::execute_step`]
/// takes a whole step and copies the metrics of a repeated step it can
/// prove would come out the same.
#[derive(Debug)]
pub struct GpuModel {
    spec: DeviceSpec,
    l1: CacheSim,
    l2: CacheSim,
    kernels_executed: u64,
    /// `kernels_executed` at the end of the last step, when that step left
    /// both tag arrays as it found them. A bare `execute` since moves the
    /// count past it.
    fixed_point_at: Option<u64>,
    /// L1 and L2 tags as the running repeated step found them; the buffers
    /// are reused from step to step.
    snapshot: [Vec<u64>; 2],
    steps_elided: u64,
}

impl GpuModel {
    /// Creates a model for a device.
    pub fn new(spec: DeviceSpec) -> Self {
        let l1 = CacheSim::new(spec.l1_bytes, cache::L1_WAYS, spec.line_bytes);
        let l2 = CacheSim::new(spec.l2_bytes, cache::L2_WAYS, spec.line_bytes);
        GpuModel {
            spec,
            l1,
            l2,
            kernels_executed: 0,
            fixed_point_at: None,
            snapshot: [Vec::new(), Vec::new()],
            steps_elided: 0,
        }
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Kernels executed so far, elided steps' included.
    pub fn kernels_executed(&self) -> u64 {
        self.kernels_executed
    }

    /// Steps [`GpuModel::execute_step`] copied instead of simulating.
    pub fn steps_elided(&self) -> u64 {
        self.steps_elided
    }

    /// Simulates one step, appending one metric per event to `out`.
    ///
    /// `prev` is the step this model ran last, through this method, with
    /// the metrics it produced for it. [`GpuModel::execute`] is a function
    /// of the L1 and L2 tags and the event, so a step that repeats `prev`'s
    /// events from the tags `prev` started from repeats its metrics and its
    /// ending tags. When `prev` was such a repeat and was seen to leave both
    /// tag arrays as it found them, this step is *elided*: `prev`'s metrics
    /// are copied and the caches are left untouched. Any other step runs
    /// event by event; a repeat first snapshots both tag arrays and compares
    /// them afterwards, which decides whether the next repeat is elided.
    /// Either way `out` receives what the per-event loop would have
    /// produced, bit for bit.
    ///
    /// # Panics
    /// Panics if `prev` holds a different number of metrics than events.
    pub fn execute_step(
        &mut self,
        events: &[OpEvent],
        prev: Option<PrevStep<'_>>,
        out: &mut Vec<KernelMetrics>,
    ) {
        let repeat = prev.filter(|p| p.events == events);
        if let Some(p) = repeat {
            assert_eq!(p.kernels.len(), p.events.len(), "one metric per event");
            if self.fixed_point_at == Some(self.kernels_executed) {
                out.extend_from_slice(p.kernels);
                self.kernels_executed += events.len() as u64;
                self.fixed_point_at = Some(self.kernels_executed);
                self.steps_elided += 1;
                return;
            }
            for (saved, cache) in self.snapshot.iter_mut().zip([&self.l1, &self.l2]) {
                saved.clear();
                saved.extend_from_slice(cache.tags());
            }
        }
        out.reserve(events.len());
        for e in events {
            out.push(self.execute(e));
        }
        let unchanged = repeat.is_some()
            && self.snapshot[0] == self.l1.tags()
            && self.snapshot[1] == self.l2.tags();
        self.fixed_point_at = unchanged.then_some(self.kernels_executed);
    }

    /// Simulates one kernel.
    pub fn execute(&mut self, event: &OpEvent) -> KernelMetrics {
        self.kernels_executed += 1;
        let byte_scale = self.spec.elem_bytes as f64 / 4.0;
        let memory = cache::simulate_kernel(
            &self.spec,
            &mut self.l1,
            &mut self.l2,
            &event.reads,
            &event.writes,
        );

        // --- instruction accounting (thread level) ---
        let fp_instrs = if is_mac_class(event.class) {
            event.flops / 2
        } else {
            event.flops
        };
        let bytes = ((event.bytes_read + event.bytes_written) as f64 * byte_scale) as u64;
        let ldst = bytes / 4;
        let control = (fp_instrs + event.iops + ldst) / 20;
        let instr = InstructionMix {
            fp32: fp_instrs,
            int32: event.iops,
            ldst,
            control,
        };
        let warp_instrs = instr.total().div_ceil(32).max(1);

        // --- launch geometry & utilization ---
        let warps = event.threads.div_ceil(32).max(1);
        let mut blocks = event.threads.div_ceil(elems_per_block(event.class)).max(1);
        if event.class == OpClass::Gemm && event.threads > 0 {
            // cuBLAS split-K: skinny GEMMs (small m·n, large k) split the
            // reduction dimension across blocks to recover parallelism.
            let k = (event.flops / 2 / event.threads).max(1);
            let split_k = k.div_ceil(256).min(8);
            blocks *= split_k;
        }
        // A kernel cannot use more SMs than it has blocks.
        let sms_used = blocks.min(self.spec.sms as u64).max(1) as u32;
        let util = (blocks as f64 / self.spec.sms as f64).min(1.0);
        // Every block contributes at least a few warps (split-K blocks and
        // reduction helpers run threads beyond the logical output count).
        let warps = warps.max(blocks * 4);
        // Within each active SM, few resident warps → poor latency hiding.
        let warps_per_sm = warps as f64 / sms_used as f64;
        let occupancy = (warps_per_sm / WARPS_PER_SM_FOR_FULL_OCCUPANCY as f64).min(1.0);

        // --- compute-bound cycles ---
        // Peak: `schedulers` warp instructions per SM per cycle, FMA pipes
        // capped at 2 per cycle.
        let fp_warp = (fp_instrs as f64 / 32.0).max(0.0);
        let other_warp = (warp_instrs as f64 - fp_warp).max(0.0);
        let eff = issue_efficiency(event.class);
        let active = self.spec.sms as f64 * util.max(1.0 / self.spec.sms as f64);
        let fma_rate = (active * 2.0 * eff).max(1e-6);
        let issue_rate = (active * self.spec.schedulers_per_sm as f64 * eff).max(1e-6);
        let occupancy_penalty = 1.0 / (0.3 + 0.7 * occupancy.max(0.05));
        let compute_cycles = (fp_warp / fma_rate + other_warp / issue_rate) * occupancy_penalty;

        // --- memory-bound cycles ---
        let line = self.spec.line_bytes as f64;
        let dram_bw_cycles = memory.dram_bytes as f64 / self.spec.dram_bytes_per_cycle();
        let l2_bw_cycles = (memory.l2_accesses as f64 * line) / self.spec.l2_bytes_per_cycle();
        // Latency-bound term for poorly parallel kernels.
        let concurrency = (warps as f64)
            .min(sms_used as f64 * WARPS_PER_SM_FOR_FULL_OCCUPANCY as f64)
            * MISSES_IN_FLIGHT_PER_WARP;
        let dram_accesses = memory.dram_bytes as f64 / line;
        let latency_cycles = (dram_accesses * DRAM_LATENCY_CYCLES
            + memory.l2_hits as f64 * L2_LATENCY_CYCLES)
            / concurrency.max(1.0);

        let active_cycles = compute_cycles
            .max(dram_bw_cycles)
            .max(l2_bw_cycles)
            .max(latency_cycles)
            .max(1.0);
        let cycles = active_cycles + KERNEL_TAIL_CYCLES;

        let time_ns = cycles / self.spec.clock_ghz + self.spec.launch_overhead_ns;

        let stalls = stall::attribute(event.class, &memory);
        KernelMetrics {
            class: event.class,
            kernel: event.kernel,
            time_ns,
            cycles,
            active_cycles,
            flops: event.flops,
            iops: event.iops,
            instr,
            warp_instrs,
            threads: event.threads,
            sms_used,
            memory,
            stalls,
        }
    }

    /// Simulates a batch of kernels, returning all metrics.
    pub fn execute_all(&mut self, events: &[OpEvent]) -> Vec<KernelMetrics> {
        events.iter().map(|e| self.execute(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_tensor::{record, IntTensor, Tensor};

    fn run(f: impl FnOnce()) -> Vec<OpEvent> {
        record::start_recording();
        f();
        record::stop_recording()
    }

    fn model() -> GpuModel {
        GpuModel::new(DeviceSpec::v100())
    }

    #[test]
    fn gemm_lands_far_below_peak() {
        let mut gpu = model();
        // A typical GNN-shaped GEMM: many rows, narrow features. Real
        // GNN GEMMs run at a few percent to ~25 % of the V100's 14 TFLOPS
        // peak; tiny ones (checked separately below) are far slower, which
        // is what drags the paper's per-op average into the mid-300s.
        let events = run(|| {
            let a = Tensor::ones(&[2708, 256]);
            let b = Tensor::ones(&[256, 64]);
            let _ = a.matmul(&b).unwrap();
        });
        let m = gpu.execute(&events[0]);
        let g = m.gflops();
        assert!(
            (100.0..4500.0).contains(&g),
            "GNN GEMM should land well below peak, got {g}"
        );
    }

    #[test]
    fn gemm_is_faster_per_flop_than_gather() {
        let mut gpu = model();
        let events = run(|| {
            let a = Tensor::ones(&[256, 256]);
            let _ = a.matmul(&a).unwrap();
            let idx =
                IntTensor::from_vec(&[4096], (0..4096i64).map(|i| (i * 977) % 50000).collect())
                    .unwrap();
            let table = Tensor::ones(&[50000, 4]);
            let _ = table.gather_rows(&idx).unwrap();
        });
        let gemm = gpu.execute(&events[0]);
        let gather = gpu.execute(&events[1]);
        assert!(gather.giops() < gemm.gflops());
        assert!(gather.memory.divergence() > gemm.memory.divergence());
    }

    #[test]
    fn bigger_kernels_take_longer() {
        let mut gpu = model();
        let events = run(|| {
            let small = Tensor::ones(&[32, 32]);
            let _ = small.matmul(&small).unwrap();
            let big = Tensor::ones(&[512, 512]);
            let _ = big.matmul(&big).unwrap();
        });
        let m_small = gpu.execute(&events[0]);
        let m_big = gpu.execute(&events[1]);
        assert!(m_big.time_ns > m_small.time_ns);
    }

    #[test]
    fn gflops_never_exceed_peak_and_ipc_is_sane() {
        let mut gpu = model();
        let events = run(|| {
            let a = Tensor::ones(&[1024, 1024]);
            let _ = a.matmul(&a).unwrap();
        });
        let m = gpu.execute(&events[0]);
        assert!(m.gflops() <= gpu.spec().peak_gflops());
        assert!(m.ipc() <= gpu.spec().schedulers_per_sm as f64);
    }

    #[test]
    fn elementwise_is_bandwidth_bound() {
        let mut gpu = model();
        let events = run(|| {
            let a = Tensor::ones(&[4_000_000]);
            let _ = a.relu();
        });
        let m = gpu.execute(&events[0]);
        let bytes = 2.0 * 4_000_000.0 * 4.0;
        let gbps = bytes / m.time_ns;
        assert!(gbps <= 900.0, "achieved {gbps} GB/s");
        assert!(gbps > 50.0, "achieved {gbps} GB/s");
    }

    #[test]
    fn few_block_kernels_underutilize_the_gpu() {
        let mut gpu = model();
        let events = run(|| {
            // One tile's worth of GEMM → one block.
            let a = Tensor::ones(&[32, 128]);
            let b = Tensor::ones(&[128, 32]);
            let _ = a.matmul(&b).unwrap();
        });
        let m = gpu.execute(&events[0]);
        assert_eq!(m.sms_used, 1);
        assert!(m.gflops() < 100.0, "tiny GEMM {}", m.gflops());
    }

    #[test]
    fn half_precision_reduces_time_of_memory_bound_kernels() {
        let events = run(|| {
            let a = Tensor::ones(&[4_000_000]);
            let _ = a.relu();
        });
        let mut fp32 = GpuModel::new(DeviceSpec::v100());
        let mut fp16 = GpuModel::new(DeviceSpec::v100().with_half_precision());
        let t32 = fp32.execute(&events[0]).time_ns;
        let t16 = fp16.execute(&events[0]).time_ns;
        assert!(t16 < t32, "fp16 {t16} vs fp32 {t32}");
    }

    #[test]
    fn every_device_is_walked_at_fixed_width() {
        // The run-time-width walk is exact too, so nothing else would fail
        // if `GpuModel::new` and `simulate_kernel` disagreed on the ways.
        for spec in [
            DeviceSpec::v100(),
            DeviceSpec::a100(),
            DeviceSpec::v100().with_l1_bytes(64 * 1024),
            DeviceSpec::v100().with_half_precision(),
        ] {
            let gpu = GpuModel::new(spec);
            assert!(
                cache::walks_fixed_width(&gpu.l1, &gpu.l2),
                "{} fell off the fixed-width walk",
                gpu.spec.name
            );
        }
    }

    #[test]
    fn execute_all_counts_kernels() {
        let mut gpu = model();
        let events = run(|| {
            let a = Tensor::ones(&[8, 8]);
            let _ = a.relu();
            let _ = a.sigmoid();
            let _ = a.sum_all();
        });
        let ms = gpu.execute_all(&events);
        assert_eq!(ms.len(), 3);
        assert_eq!(gpu.kernels_executed(), 3);
    }
}

//! Roofline analysis of modeled kernels.
//!
//! The paper's throughput findings (§V-B) are an instance of the roofline
//! argument: GNN kernels sit far below the V100's compute roof because
//! their arithmetic intensity is low and their achieved bandwidth is
//! capped by irregular access. This module classifies each kernel
//! against the device's roofline and summarizes where a workload's time
//! actually goes.

use crate::device::DeviceSpec;
use crate::kernel::KernelMetrics;

/// Which roof bounds a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bound {
    /// Below the memory roof: DRAM bandwidth limits it.
    Memory,
    /// Under the compute roof: arithmetic throughput limits it.
    Compute,
    /// Dominated by fixed launch/tail overheads (tiny kernel).
    Overhead,
}

impl Bound {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Bound::Memory => "memory-bound",
            Bound::Compute => "compute-bound",
            Bound::Overhead => "overhead-bound",
        }
    }
}

/// Roofline coordinates of one kernel.
#[derive(Debug, Clone, Copy)]
pub struct RooflinePoint {
    /// Arithmetic intensity: (fp32 + int32) operations per DRAM byte.
    pub intensity: f64,
    /// Achieved operation rate, Gop/s (fp32 + int32 combined).
    pub achieved_gops: f64,
    /// The binding roof.
    pub bound: Bound,
}

/// The device's ridge point: the arithmetic intensity at which the memory
/// and compute roofs intersect (ops per byte).
pub fn ridge_point(spec: &DeviceSpec) -> f64 {
    spec.peak_gflops() / spec.hbm_gbps
}

/// Classifies one kernel against the device roofline.
///
/// A kernel whose fixed tail/launch time exceeds half its total time is
/// overhead-bound regardless of its intensity.
pub fn classify(spec: &DeviceSpec, k: &KernelMetrics) -> RooflinePoint {
    let ops = (k.flops + k.iops) as f64;
    let dram = (k.memory.dram_bytes.max(1)) as f64;
    let intensity = ops / dram;
    let achieved_gops = if k.time_ns > 0.0 {
        ops / k.time_ns
    } else {
        0.0
    };
    let overhead_ns = (k.cycles - k.active_cycles) / spec.clock_ghz + spec.launch_overhead_ns;
    let bound = if overhead_ns > 0.5 * k.time_ns {
        Bound::Overhead
    } else if intensity < ridge_point(spec) {
        Bound::Memory
    } else {
        Bound::Compute
    };
    RooflinePoint {
        intensity,
        achieved_gops,
        bound,
    }
}

/// Time-weighted share of each bound across a kernel list.
///
/// Returns `(memory, compute, overhead)` shares summing to 1 (or zeros
/// for an empty list).
pub fn bound_shares(spec: &DeviceSpec, kernels: &[KernelMetrics]) -> (f64, f64, f64) {
    let (mut m, mut c, mut o) = (0.0f64, 0.0, 0.0);
    for k in kernels {
        let t = k.time_ns;
        match classify(spec, k).bound {
            Bound::Memory => m += t,
            Bound::Compute => c += t,
            Bound::Overhead => o += t,
        }
    }
    let total = m + c + o;
    if total <= 0.0 {
        (0.0, 0.0, 0.0)
    } else {
        (m / total, c / total, o / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GpuModel;
    use gnnmark_tensor::{record, Tensor};

    fn metrics_for(f: impl FnOnce()) -> Vec<KernelMetrics> {
        record::start_recording();
        f();
        let events = record::stop_recording();
        let mut gpu = GpuModel::new(DeviceSpec::v100());
        gpu.execute_all(&events)
    }

    #[test]
    fn ridge_point_matches_datasheet_ratio() {
        let v = DeviceSpec::v100();
        // 14.1 TFLOPS / 900 GB/s ≈ 15.7 flops per byte.
        assert!((ridge_point(&v) - 15.7).abs() < 0.1);
    }

    #[test]
    fn streaming_elementwise_is_memory_bound() {
        let ks = metrics_for(|| {
            let a = Tensor::ones(&[8_000_000]);
            let _ = a.relu();
        });
        let p = classify(&DeviceSpec::v100(), &ks[0]);
        assert_eq!(p.bound, Bound::Memory);
        assert!(p.intensity < ridge_point(&DeviceSpec::v100()));
    }

    #[test]
    fn big_gemm_is_compute_bound() {
        let ks = metrics_for(|| {
            let a = Tensor::ones(&[512, 512]);
            let _ = a.matmul(&a).unwrap();
        });
        let p = classify(&DeviceSpec::v100(), &ks[0]);
        // 512³ MACs over ~3 MB: intensity far beyond the ridge.
        assert_eq!(p.bound, Bound::Compute);
        assert!(p.achieved_gops > 0.0);
    }

    #[test]
    fn tiny_kernels_are_overhead_bound() {
        let ks = metrics_for(|| {
            let a = Tensor::ones(&[8]);
            let _ = a.relu();
        });
        let p = classify(&DeviceSpec::v100(), &ks[0]);
        assert_eq!(p.bound, Bound::Overhead);
    }

    #[test]
    fn bound_shares_form_distribution() {
        let ks = metrics_for(|| {
            let a = Tensor::ones(&[512, 512]);
            let _ = a.matmul(&a).unwrap();
            let b = Tensor::ones(&[4_000_000]);
            let _ = b.relu();
            let _ = Tensor::ones(&[4]).relu();
        });
        let (m, c, o) = bound_shares(&DeviceSpec::v100(), &ks);
        assert!((m + c + o - 1.0).abs() < 1e-9);
        assert!(m > 0.0 && c > 0.0 && o > 0.0);
        assert_eq!(bound_shares(&DeviceSpec::v100(), &[]), (0.0, 0.0, 0.0));
    }
}

//! Multi-GPU DDP scaling model (the paper's Figure 9).
//!
//! PyTorch DistributedDataParallel splits each minibatch across GPUs,
//! overlapping backward compute with a ring all-reduce of gradients over
//! NVLink. Whether a workload scales depends on its structure:
//!
//! * compute-rich models (DGCN, STGCN, GW) scale well;
//! * TLSTM is bottlenecked by CPU-side graph batching and low GPU
//!   intensity — extra GPUs barely help;
//! * PSAGE's DGL batch sampler is incompatible with DDP: training data is
//!   replicated to every device, adding redundant compute and extra
//!   communication — performance *degrades* with more GPUs;
//! * ARGA sends the whole graph to one GPU and is excluded (as in the
//!   paper).

use crate::device::DeviceSpec;

/// How a workload's structure interacts with DDP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingBehavior {
    /// Clean data parallelism: per-GPU compute shrinks as `1/n`.
    DataParallel,
    /// Sampler replicates the dataset to every GPU: per-GPU compute does
    /// not shrink, and each replica adds `redundancy` extra coordination
    /// work per additional GPU (PSAGE's pathology).
    ReplicatedSampling {
        /// Extra fractional work added per additional GPU.
        redundancy: f64,
    },
    /// A serial host-side stage (graph batching for TLSTM) consumes
    /// `host_fraction` of the single-GPU epoch and does not parallelize.
    HostBound {
        /// Fraction of single-GPU epoch time spent on the host.
        host_fraction: f64,
    },
}

/// DDP cost model over a modeled NVLink node.
#[derive(Debug, Clone)]
pub struct DdpModel {
    spec: DeviceSpec,
    /// Fraction of the all-reduce hidden by backward overlap.
    overlap: f64,
    /// Fixed per-step DDP bookkeeping, nanoseconds.
    step_overhead_ns: f64,
}

impl DdpModel {
    /// Creates a model for a node of the given GPUs.
    pub fn new(spec: DeviceSpec) -> Self {
        DdpModel {
            spec,
            overlap: 0.5,
            step_overhead_ns: 150_000.0,
        }
    }

    /// Ring all-reduce time for `bytes` of gradients over `n` GPUs,
    /// nanoseconds.
    ///
    /// Each GPU sends `2·(n−1)/n · bytes` over its NVLink bandwidth, plus
    /// per-message latency for the `2·(n−1)` ring steps.
    pub fn allreduce_ns(&self, bytes: u64, n: u32) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let n = n as f64;
        let volume = 2.0 * (n - 1.0) / n * bytes as f64;
        let bw_time = volume / self.spec.nvlink_gbps; // bytes / (GB/s) = ns
        let latency = 2.0 * (n - 1.0) * 10_000.0; // 10 µs per ring step
        bw_time + latency
    }

    /// Epoch time on `n` GPUs.
    ///
    /// * `single_gpu_epoch_ns` — modeled compute time of one epoch on one
    ///   GPU (kernels + transfers).
    /// * `steps_per_epoch` — optimizer steps per epoch (each pays one
    ///   all-reduce).
    /// * `grad_bytes` — gradient payload per step (model size).
    pub fn epoch_time_ns(
        &self,
        single_gpu_epoch_ns: f64,
        steps_per_epoch: u64,
        grad_bytes: u64,
        behavior: ScalingBehavior,
        n: u32,
    ) -> f64 {
        let n_f = n as f64;
        let comm = if n > 1 {
            let per_step =
                self.allreduce_ns(grad_bytes, n) * (1.0 - self.overlap) + self.step_overhead_ns;
            per_step * steps_per_epoch as f64
        } else {
            0.0
        };
        match behavior {
            ScalingBehavior::DataParallel => single_gpu_epoch_ns / n_f + comm,
            ScalingBehavior::ReplicatedSampling { redundancy } => {
                // Data replicated: no compute reduction, extra redundant
                // work and communication per added GPU.
                single_gpu_epoch_ns * (1.0 + redundancy * (n_f - 1.0)) + comm * 2.0
            }
            ScalingBehavior::HostBound { host_fraction } => {
                let host = single_gpu_epoch_ns * host_fraction;
                let gpu = single_gpu_epoch_ns * (1.0 - host_fraction);
                host + gpu / n_f + comm
            }
        }
    }

    /// Weak-scaling epoch time: each GPU keeps the full single-GPU
    /// problem (total work grows with `n`), so the ideal curve is flat and
    /// any growth is communication. This is the paper's stated future-work
    /// direction (§VII).
    pub fn weak_epoch_time_ns(
        &self,
        single_gpu_epoch_ns: f64,
        steps_per_epoch: u64,
        grad_bytes: u64,
        behavior: ScalingBehavior,
        n: u32,
    ) -> f64 {
        let comm = if n > 1 {
            (self.allreduce_ns(grad_bytes, n) * (1.0 - self.overlap) + self.step_overhead_ns)
                * steps_per_epoch as f64
        } else {
            0.0
        };
        match behavior {
            ScalingBehavior::DataParallel => single_gpu_epoch_ns + comm,
            ScalingBehavior::ReplicatedSampling { redundancy } => {
                single_gpu_epoch_ns * (1.0 + redundancy * (n as f64 - 1.0)) + comm * 2.0
            }
            ScalingBehavior::HostBound { host_fraction } => {
                // The serial host stage must now feed n GPUs.
                single_gpu_epoch_ns * (1.0 + host_fraction * (n as f64 - 1.0)) + comm
            }
        }
    }

    /// Weak-scaling efficiency in `(0, 1]`: `t(1) / t(n)` at constant
    /// per-GPU work (1.0 = perfect).
    pub fn weak_efficiency(
        &self,
        single_gpu_epoch_ns: f64,
        steps_per_epoch: u64,
        grad_bytes: u64,
        behavior: ScalingBehavior,
        n: u32,
    ) -> f64 {
        let t1 = self.weak_epoch_time_ns(
            single_gpu_epoch_ns,
            steps_per_epoch,
            grad_bytes,
            behavior,
            1,
        );
        let tn = self.weak_epoch_time_ns(
            single_gpu_epoch_ns,
            steps_per_epoch,
            grad_bytes,
            behavior,
            n,
        );
        t1 / tn
    }

    /// Speedup over one GPU for a scaling curve.
    pub fn speedup(
        &self,
        single_gpu_epoch_ns: f64,
        steps_per_epoch: u64,
        grad_bytes: u64,
        behavior: ScalingBehavior,
        n: u32,
    ) -> f64 {
        let t1 = self.epoch_time_ns(
            single_gpu_epoch_ns,
            steps_per_epoch,
            grad_bytes,
            behavior,
            1,
        );
        let tn = self.epoch_time_ns(
            single_gpu_epoch_ns,
            steps_per_epoch,
            grad_bytes,
            behavior,
            n,
        );
        t1 / tn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DdpModel {
        DdpModel::new(DeviceSpec::v100())
    }

    #[test]
    fn allreduce_grows_with_size_and_gpus() {
        let m = model();
        assert_eq!(m.allreduce_ns(1 << 20, 1), 0.0);
        let t2 = m.allreduce_ns(1 << 26, 2);
        let t4 = m.allreduce_ns(1 << 26, 4);
        assert!(t4 > t2);
        assert!(m.allreduce_ns(1 << 27, 2) > t2);
    }

    #[test]
    fn data_parallel_workloads_speed_up() {
        let m = model();
        // 1 s epoch, 100 steps, 10 MB of gradients.
        let s2 = m.speedup(1e9, 100, 10 << 20, ScalingBehavior::DataParallel, 2);
        let s4 = m.speedup(1e9, 100, 10 << 20, ScalingBehavior::DataParallel, 4);
        assert!(s2 > 1.4, "s2 = {s2}");
        assert!(s4 > s2, "s4 = {s4} vs s2 = {s2}");
        assert!(s4 < 4.0, "communication must cost something");
    }

    #[test]
    fn replicated_sampling_degrades() {
        let m = model();
        let s4 = m.speedup(
            1e9,
            100,
            10 << 20,
            ScalingBehavior::ReplicatedSampling { redundancy: 0.15 },
            4,
        );
        assert!(s4 < 1.0, "PSAGE-style workloads must slow down: {s4}");
    }

    #[test]
    fn host_bound_workloads_barely_scale() {
        let m = model();
        let s4 = m.speedup(
            1e9,
            100,
            1 << 20,
            ScalingBehavior::HostBound { host_fraction: 0.7 },
            4,
        );
        assert!(s4 > 1.0);
        assert!(s4 < 1.5, "TLSTM-style workloads stay flat: {s4}");
    }

    #[test]
    fn weak_scaling_efficiency_degrades_gracefully() {
        let m = model();
        let e2 = m.weak_efficiency(1e9, 100, 10 << 20, ScalingBehavior::DataParallel, 2);
        let e4 = m.weak_efficiency(1e9, 100, 10 << 20, ScalingBehavior::DataParallel, 4);
        assert!(e2 <= 1.0 && e2 > 0.8, "e2 = {e2}");
        assert!(e4 <= e2, "e4 = {e4} vs e2 = {e2}");
        // Host-bound workloads lose weak efficiency fast.
        let host = m.weak_efficiency(
            1e9,
            100,
            10 << 20,
            ScalingBehavior::HostBound { host_fraction: 0.7 },
            4,
        );
        assert!(host < 0.5, "host-bound weak efficiency {host}");
    }

    #[test]
    fn small_models_communicate_cheaply() {
        let m = model();
        let small = m.epoch_time_ns(1e9, 100, 1 << 16, ScalingBehavior::DataParallel, 4);
        let big = m.epoch_time_ns(1e9, 100, 100 << 20, ScalingBehavior::DataParallel, 4);
        assert!(small < big);
    }
}

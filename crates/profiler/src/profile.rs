//! Aggregate workload profiles — the data behind each paper figure.

use std::collections::BTreeMap;

use gnnmark_gpusim::{
    DeviceSpec, InstructionMix, KernelMetrics, StallBreakdown, StallReason, TransferEngine,
};
use gnnmark_tensor::OpClass;

/// The operation categories of the paper's Figure 2 legend.
///
/// The raw [`OpClass`] taxonomy is finer grained; this folds it the way
/// the paper reports (GEMV with GEMM, embeddings with gathers, softmax
/// with reductions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FigureCategory {
    /// Dense matrix multiplication (GEMM + GEMV).
    Gemm,
    /// Sparse-dense multiplication.
    Spmm,
    /// 2-D convolution.
    Conv2d,
    /// Batch normalization.
    BatchNorm,
    /// Scatter.
    Scatter,
    /// Gather (incl. embedding lookups).
    Gather,
    /// Reductions (incl. softmax).
    Reduction,
    /// Index selection.
    IndexSelect,
    /// Sorting.
    Sort,
    /// Element-wise operations.
    ElementWise,
    /// Everything else (data movement / layout).
    Other,
}

impl FigureCategory {
    /// All categories in display order.
    pub const ALL: [FigureCategory; 11] = [
        FigureCategory::Gemm,
        FigureCategory::Spmm,
        FigureCategory::Conv2d,
        FigureCategory::BatchNorm,
        FigureCategory::Scatter,
        FigureCategory::Gather,
        FigureCategory::Reduction,
        FigureCategory::IndexSelect,
        FigureCategory::Sort,
        FigureCategory::ElementWise,
        FigureCategory::Other,
    ];

    /// Folds a raw op class into its figure category.
    pub fn from_class(class: OpClass) -> Self {
        match class {
            OpClass::Gemm | OpClass::Gemv => FigureCategory::Gemm,
            OpClass::Spmm => FigureCategory::Spmm,
            OpClass::Conv2d => FigureCategory::Conv2d,
            OpClass::BatchNorm => FigureCategory::BatchNorm,
            OpClass::Scatter => FigureCategory::Scatter,
            OpClass::Gather | OpClass::Embedding => FigureCategory::Gather,
            OpClass::Reduction | OpClass::Softmax => FigureCategory::Reduction,
            OpClass::IndexSelect => FigureCategory::IndexSelect,
            OpClass::Sort => FigureCategory::Sort,
            OpClass::ElementWise => FigureCategory::ElementWise,
            OpClass::DataMovement => FigureCategory::Other,
        }
    }

    /// Display label (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            FigureCategory::Gemm => "GEMM",
            FigureCategory::Spmm => "SpMM",
            FigureCategory::Conv2d => "Conv2D",
            FigureCategory::BatchNorm => "BatchNorm",
            FigureCategory::Scatter => "Scatter",
            FigureCategory::Gather => "Gather",
            FigureCategory::Reduction => "Reduction",
            FigureCategory::IndexSelect => "IndexSel",
            FigureCategory::Sort => "Sort",
            FigureCategory::ElementWise => "ElemWise",
            FigureCategory::Other => "Other",
        }
    }
}

/// Aggregated statistics of one figure category within a workload.
#[derive(Debug, Clone, Default)]
pub struct ClassStats {
    /// Kernel launches.
    pub launches: u64,
    /// Total modeled time, ns.
    pub time_ns: f64,
    /// Total cycles.
    pub cycles: f64,
    /// fp32 operations.
    pub flops: u64,
    /// int32 operations.
    pub iops: u64,
    /// L1 accesses / hits.
    pub l1_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Divergent warp memory ops.
    pub divergent_warp_ops: u64,
    /// Total warp memory ops.
    pub warp_ops: u64,
    /// Cycle-weighted stall accumulator.
    stall_acc: Vec<(StallBreakdown, f64)>,
}

impl ClassStats {
    fn add(&mut self, k: &KernelMetrics) {
        self.launches += 1;
        self.time_ns += k.time_ns;
        self.cycles += k.cycles;
        self.flops += k.flops;
        self.iops += k.iops;
        self.l1_accesses += k.memory.l1_accesses;
        self.l1_hits += k.memory.l1_hits;
        self.l2_accesses += k.memory.l2_accesses;
        self.l2_hits += k.memory.l2_hits;
        self.divergent_warp_ops += k.memory.divergent_warp_ops;
        self.warp_ops += k.memory.warp_ops;
        self.stall_acc.push((k.stalls, k.cycles));
    }

    /// Achieved GFLOPS over this category's kernel time.
    pub fn gflops(&self) -> f64 {
        if self.time_ns <= 0.0 {
            0.0
        } else {
            self.flops as f64 / self.time_ns
        }
    }

    /// Achieved GIOPS over this category's kernel time.
    pub fn giops(&self) -> f64 {
        if self.time_ns <= 0.0 {
            0.0
        } else {
            self.iops as f64 / self.time_ns
        }
    }

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

    /// Divergent fraction of warp memory instructions.
    pub fn divergence(&self) -> f64 {
        if self.warp_ops == 0 {
            0.0
        } else {
            self.divergent_warp_ops as f64 / self.warp_ops as f64
        }
    }

    /// Cycle-weighted stall breakdown.
    pub fn stalls(&self) -> StallBreakdown {
        StallBreakdown::weighted_merge(&self.stall_acc)
    }
}

/// The complete profile of one workload run — the input to every figure.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Workload name (paper abbreviation, e.g. `"PSAGE-MVL"`).
    pub name: String,
    /// Device the run was modeled on.
    pub spec: DeviceSpec,
    /// Every kernel, in execution order.
    pub kernels: Vec<KernelMetrics>,
    /// Aggregates per figure category.
    pub per_class: BTreeMap<FigureCategory, ClassStats>,
    /// Aggregate dynamic instruction mix.
    pub instr: InstructionMix,
    /// Element-weighted mean H2D sparsity.
    pub mean_sparsity: f64,
    /// Per-transfer H2D sparsity series (training order).
    pub sparsity_series: Vec<f64>,
    /// Total modeled transfer time, ns.
    pub transfer_time_ns: f64,
    /// Total host→device payload bytes (uncompressed).
    pub h2d_bytes: u64,
    /// Total host→device payload bytes under zero-value compression (the
    /// paper's proposal for exploiting transfer sparsity).
    pub h2d_compressed_bytes: u64,
    /// Training steps profiled.
    pub steps: u64,
    /// Kernel launches per training step, in step order. Indexing
    /// [`WorkloadProfile::kernels`] by these counts recovers each step's
    /// kernel slice (the basis of the report timeline panel). Empty for
    /// profiles built before per-step tracking.
    pub step_kernels: Vec<u32>,
}

impl WorkloadProfile {
    pub(crate) fn build(
        name: String,
        spec: DeviceSpec,
        kernels: Vec<KernelMetrics>,
        transfers: &TransferEngine,
        steps: u64,
        step_kernels: Vec<u32>,
    ) -> Self {
        let mut per_class: BTreeMap<FigureCategory, ClassStats> = BTreeMap::new();
        let mut instr = InstructionMix::default();
        for k in &kernels {
            per_class
                .entry(FigureCategory::from_class(k.class))
                .or_default()
                .add(k);
            instr.add(&k.instr);
        }
        WorkloadProfile {
            name,
            spec,
            kernels,
            per_class,
            instr,
            mean_sparsity: transfers.mean_h2d_sparsity(),
            sparsity_series: transfers.h2d_sparsity_series(),
            transfer_time_ns: transfers.total_time_ns(),
            h2d_bytes: transfers.total_h2d_bytes(),
            h2d_compressed_bytes: transfers.total_h2d_compressed_bytes(),
            steps,
            step_kernels,
        }
    }

    /// Each training step's kernels, in step order —
    /// [`WorkloadProfile::kernels`] sliced by [`WorkloadProfile::step_kernels`].
    /// Empty when per-step counts were not recorded.
    pub fn step_slices(&self) -> impl Iterator<Item = &[KernelMetrics]> + '_ {
        let mut off = 0usize;
        self.step_kernels.iter().map(move |&n| {
            let end = (off + n as usize).min(self.kernels.len());
            let step = &self.kernels[off..end];
            off = end;
            step
        })
    }

    /// Modeled kernel time of each training step, ns, in step order.
    pub fn step_times_ns(&self) -> Vec<f64> {
        self.step_slices()
            .map(|step| step.iter().map(|k| k.time_ns).sum())
            .collect()
    }

    /// Total modeled kernel time, ns.
    pub fn total_kernel_time_ns(&self) -> f64 {
        self.kernels.iter().map(|k| k.time_ns).sum()
    }

    /// Total epoch-equivalent time (kernels + transfers), ns.
    pub fn total_time_ns(&self) -> f64 {
        self.total_kernel_time_ns() + self.transfer_time_ns
    }

    /// Time share of a category in `[0, 1]`.
    pub fn time_share(&self, cat: FigureCategory) -> f64 {
        let total = self.total_kernel_time_ns();
        if total <= 0.0 {
            return 0.0;
        }
        self.per_class.get(&cat).map_or(0.0, |s| s.time_ns / total)
    }

    /// Workload-level achieved GFLOPS (Figure 4).
    pub fn gflops(&self) -> f64 {
        let t = self.total_kernel_time_ns();
        if t <= 0.0 {
            return 0.0;
        }
        self.kernels.iter().map(|k| k.flops).sum::<u64>() as f64 / t
    }

    /// Workload-level achieved GIOPS (Figure 4).
    pub fn giops(&self) -> f64 {
        let t = self.total_kernel_time_ns();
        if t <= 0.0 {
            return 0.0;
        }
        self.kernels.iter().map(|k| k.iops).sum::<u64>() as f64 / t
    }

    /// Aggregate per-SM IPC: warp instructions issued per active cycle per
    /// occupied SM (the basis of nvprof's `ipc`, which the paper averages
    /// to ≈ 0.55 across the suite).
    pub fn ipc(&self) -> f64 {
        let denom: f64 = self
            .kernels
            .iter()
            .map(|k| k.active_cycles * k.sms_used as f64)
            .sum();
        if denom <= 0.0 {
            return 0.0;
        }
        let instrs: f64 = self.kernels.iter().map(|k| k.warp_instrs as f64).sum();
        instrs / denom
    }

    /// Access-weighted L1 hit rate (Figure 6).
    pub fn l1_hit_rate(&self) -> f64 {
        let (mut h, mut a) = (0u64, 0u64);
        for k in &self.kernels {
            h += k.memory.l1_hits;
            a += k.memory.l1_accesses;
        }
        if a == 0 {
            0.0
        } else {
            h as f64 / a as f64
        }
    }

    /// Access-weighted L2 hit rate (Figure 6).
    pub fn l2_hit_rate(&self) -> f64 {
        let (mut h, mut a) = (0u64, 0u64);
        for k in &self.kernels {
            h += k.memory.l2_hits;
            a += k.memory.l2_accesses;
        }
        if a == 0 {
            0.0
        } else {
            h as f64 / a as f64
        }
    }

    /// Fraction of divergent warp loads (§V-C's 32.5 % average).
    pub fn divergence(&self) -> f64 {
        let (mut d, mut w) = (0u64, 0u64);
        for k in &self.kernels {
            d += k.memory.divergent_warp_ops;
            w += k.memory.warp_ops;
        }
        if w == 0 {
            0.0
        } else {
            d as f64 / w as f64
        }
    }

    /// The `n` kernel names consuming the most time, with launch counts
    /// and time shares — the "top kernels" view profilers lead with.
    pub fn top_kernels(&self, n: usize) -> Vec<(String, u64, f64)> {
        let mut by_name: std::collections::BTreeMap<&str, (u64, f64)> =
            std::collections::BTreeMap::new();
        for k in &self.kernels {
            let e = by_name.entry(k.kernel).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += k.time_ns;
        }
        let total = self.total_kernel_time_ns().max(1.0);
        let mut rows: Vec<(String, u64, f64)> = by_name
            .into_iter()
            .map(|(name, (launches, t))| (name.to_string(), launches, t / total))
            .collect();
        rows.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        rows.truncate(n);
        rows
    }

    /// Cycle-weighted stall breakdown (Figure 5).
    pub fn stalls(&self) -> StallBreakdown {
        let acc: Vec<(StallBreakdown, f64)> =
            self.kernels.iter().map(|k| (k.stalls, k.cycles)).collect();
        StallBreakdown::weighted_merge(&acc)
    }

    /// Share of one stall reason.
    pub fn stall_share(&self, reason: StallReason) -> f64 {
        self.stalls().share(reason)
    }

    /// Fraction of H2D payload removed by zero-value compression,
    /// in `[0, 1)` (0 when nothing was transferred).
    pub fn compression_savings(&self) -> f64 {
        if self.h2d_bytes == 0 {
            return 0.0;
        }
        1.0 - self.h2d_compressed_bytes as f64 / self.h2d_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ProfileSession;
    use gnnmark_tensor::{IntTensor, Tensor};

    fn profiled() -> WorkloadProfile {
        let mut s = ProfileSession::new("test", DeviceSpec::v100());
        s.begin_step();
        let a = Tensor::ones(&[64, 64]);
        let _ = a.matmul(&a).unwrap();
        let _ = a.relu();
        let idx = IntTensor::from_vec(&[128], (0..128).map(|i| i % 64).collect()).unwrap();
        let _ = a.gather_rows(&idx).unwrap();
        let _ = a.reshape(&[4096]).unwrap().argsort().unwrap();
        s.end_step();
        s.upload(&Tensor::zeros(&[100]));
        s.finish()
    }

    #[test]
    fn category_folding() {
        assert_eq!(
            FigureCategory::from_class(OpClass::Gemv),
            FigureCategory::Gemm
        );
        assert_eq!(
            FigureCategory::from_class(OpClass::Embedding),
            FigureCategory::Gather
        );
        assert_eq!(
            FigureCategory::from_class(OpClass::Softmax),
            FigureCategory::Reduction
        );
    }

    #[test]
    fn time_shares_sum_to_one() {
        let p = profiled();
        let total: f64 = FigureCategory::ALL.iter().map(|&c| p.time_share(c)).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum {total}");
        assert!(p.time_share(FigureCategory::Gemm) > 0.0);
        assert!(p.time_share(FigureCategory::Sort) > 0.0);
        assert_eq!(p.time_share(FigureCategory::Conv2d), 0.0);
    }

    #[test]
    fn aggregates_are_consistent() {
        let p = profiled();
        assert_eq!(p.kernels.len(), 4);
        assert!(p.gflops() > 0.0);
        assert!(p.giops() > 0.0);
        assert!(p.ipc() > 0.0);
        assert!(p.l1_hit_rate() >= 0.0 && p.l1_hit_rate() <= 1.0);
        assert!(p.l2_hit_rate() >= 0.0 && p.l2_hit_rate() <= 1.0);
        assert!(p.divergence() >= 0.0 && p.divergence() <= 1.0);
        let stall_total: f64 = StallReason::ALL.iter().map(|&r| p.stall_share(r)).sum();
        assert!((stall_total - 1.0).abs() < 1e-9);
        assert_eq!(p.mean_sparsity, 1.0);
    }

    #[test]
    fn top_kernels_ranked_by_time() {
        let p = profiled();
        let top = p.top_kernels(3);
        assert!(!top.is_empty() && top.len() <= 3);
        for w in top.windows(2) {
            assert!(w[0].2 >= w[1].2, "not sorted by share");
        }
        let share_sum: f64 = p.top_kernels(100).iter().map(|r| r.2).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn class_stats_track_launches() {
        let p = profiled();
        let gemm = &p.per_class[&FigureCategory::Gemm];
        assert_eq!(gemm.launches, 1);
        assert!(gemm.gflops() > 0.0);
        assert!(gemm.l1_hit_rate() <= 1.0);
        let sort = &p.per_class[&FigureCategory::Sort];
        assert_eq!(sort.flops, 0);
        assert!(sort.giops() > 0.0);
    }
}

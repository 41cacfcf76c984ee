//! Stall attribution (nvprof's `stall_*` issue-stall-reason metrics).
//!
//! The paper finds memory-dependency (34.3 %), execution-dependency
//! (29.5 %) and instruction-fetch (21.6 %) stalls dominate GNN training,
//! with scatter/gather/index-selection showing higher memory stalls than
//! GEMM. We attribute stalls per kernel from per-op-class base profiles
//! adjusted by *measured* miss rates and divergence, so the class ordering
//! the paper observes emerges from the simulated memory behavior.

use gnnmark_tensor::OpClass;

use crate::cache::MemoryTrace;

/// nvprof-style issue-stall reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallReason {
    /// Waiting on an outstanding memory load (cache miss latency).
    MemoryDependency,
    /// Waiting on a previous arithmetic result (low ILP).
    ExecutionDependency,
    /// Waiting for the next instruction to be fetched (I-cache behavior).
    InstructionFetch,
    /// Waiting at barriers (`__syncthreads`, reductions).
    Synchronization,
    /// Required functional unit busy.
    PipeBusy,
    /// Warp eligible but not selected by the scheduler, memory throttles,
    /// and everything else.
    Other,
}

impl StallReason {
    /// All reasons in display order.
    pub const ALL: [StallReason; 6] = [
        StallReason::MemoryDependency,
        StallReason::ExecutionDependency,
        StallReason::InstructionFetch,
        StallReason::Synchronization,
        StallReason::PipeBusy,
        StallReason::Other,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            StallReason::MemoryDependency => "MemDep",
            StallReason::ExecutionDependency => "ExecDep",
            StallReason::InstructionFetch => "IFetch",
            StallReason::Synchronization => "Sync",
            StallReason::PipeBusy => "PipeBusy",
            StallReason::Other => "Other",
        }
    }
}

/// Normalized stall shares of one kernel (or one aggregate); sums to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallBreakdown {
    shares: [f64; 6],
}

impl StallBreakdown {
    /// Builds a breakdown from raw weights (normalized internally).
    pub fn from_weights(weights: [f64; 6]) -> Self {
        let total: f64 = weights.iter().sum();
        let shares = if total <= 0.0 {
            [1.0 / 6.0; 6]
        } else {
            let mut s = weights;
            for v in &mut s {
                *v /= total;
            }
            s
        };
        StallBreakdown { shares }
    }

    /// Share of a reason, in `[0, 1]`.
    pub fn share(&self, reason: StallReason) -> f64 {
        let idx = StallReason::ALL
            .iter()
            .position(|r| *r == reason)
            .expect("reason in ALL");
        self.shares[idx]
    }

    /// Accumulates `other` with the given weight (e.g. kernel cycles).
    pub fn weighted_merge(breakdowns: &[(StallBreakdown, f64)]) -> StallBreakdown {
        let mut acc = [0.0f64; 6];
        for (b, w) in breakdowns {
            for (a, s) in acc.iter_mut().zip(&b.shares) {
                *a += s * w;
            }
        }
        StallBreakdown::from_weights(acc)
    }
}

/// Per-class base stall weights: (mem, exec, ifetch, sync, pipe, other).
///
/// The bases encode kernel structure (dependency chains in reductions,
/// barrier use in softmax/batch-norm, big unrolled bodies in GEMM/conv);
/// the memory term is then scaled by measured miss rate and divergence.
fn base_weights(class: OpClass) -> [f64; 6] {
    match class {
        OpClass::Gemm => [18.0, 26.0, 26.0, 9.0, 12.0, 9.0],
        OpClass::Gemv => [30.0, 26.0, 18.0, 6.0, 10.0, 10.0],
        OpClass::Spmm => [38.0, 22.0, 18.0, 6.0, 6.0, 10.0],
        OpClass::Conv2d => [22.0, 26.0, 26.0, 8.0, 10.0, 8.0],
        OpClass::BatchNorm => [30.0, 26.0, 16.0, 14.0, 5.0, 9.0],
        OpClass::Scatter => [46.0, 22.0, 16.0, 4.0, 4.0, 8.0],
        OpClass::Gather => [46.0, 22.0, 16.0, 4.0, 4.0, 8.0],
        OpClass::Reduction => [30.0, 36.0, 14.0, 9.0, 4.0, 7.0],
        OpClass::IndexSelect => [44.0, 22.0, 17.0, 4.0, 4.0, 9.0],
        OpClass::Sort => [36.0, 28.0, 16.0, 8.0, 4.0, 8.0],
        OpClass::ElementWise => [34.0, 30.0, 22.0, 2.0, 4.0, 8.0],
        OpClass::Softmax => [28.0, 32.0, 17.0, 12.0, 4.0, 7.0],
        OpClass::Embedding => [44.0, 22.0, 17.0, 4.0, 4.0, 9.0],
        OpClass::DataMovement => [40.0, 20.0, 22.0, 3.0, 5.0, 10.0],
    }
}

/// Attributes one kernel's stalls from its class and measured memory
/// behavior.
pub fn attribute(class: OpClass, trace: &MemoryTrace) -> StallBreakdown {
    let mut w = base_weights(class);
    // Memory-dependency stalls grow with L1 miss rate and divergence; a
    // perfectly cached kernel sheds most of them.
    let miss = 1.0 - trace.l1_hit_rate();
    let div = trace.divergence();
    w[0] *= 0.55 + 0.85 * miss + 0.50 * div;
    // Divergent kernels also fetch more replayed instructions.
    w[2] *= 1.0 + 0.25 * div;
    StallBreakdown::from_weights(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(l1_hit: f64, div: f64) -> MemoryTrace {
        MemoryTrace {
            l1_accesses: 1000,
            l1_hits: (1000.0 * l1_hit) as u64,
            l2_accesses: 500,
            l2_hits: 250,
            dram_bytes: 1 << 20,
            divergent_warp_ops: (1000.0 * div) as u64,
            warp_ops: 1000,
        }
    }

    #[test]
    fn shares_sum_to_one() {
        for class in OpClass::ALL {
            let b = attribute(class, &trace(0.2, 0.3));
            let total: f64 = StallReason::ALL.iter().map(|&r| b.share(r)).sum();
            assert!((total - 1.0).abs() < 1e-9, "{class:?}");
        }
    }

    #[test]
    fn gather_stalls_more_on_memory_than_gemm() {
        let t = trace(0.1, 0.5);
        let gather = attribute(OpClass::Gather, &t);
        let gemm = attribute(OpClass::Gemm, &t);
        assert!(
            gather.share(StallReason::MemoryDependency) > gemm.share(StallReason::MemoryDependency)
        );
    }

    #[test]
    fn cache_misses_increase_memory_stalls() {
        let hot = attribute(OpClass::Gather, &trace(0.95, 0.0));
        let cold = attribute(OpClass::Gather, &trace(0.02, 0.8));
        assert!(
            cold.share(StallReason::MemoryDependency)
                > hot.share(StallReason::MemoryDependency) + 0.1
        );
    }

    #[test]
    fn reductions_have_high_execution_dependency() {
        let t = trace(0.3, 0.1);
        let red = attribute(OpClass::Reduction, &t);
        assert!(red.share(StallReason::ExecutionDependency) > 0.25);
    }

    #[test]
    fn weighted_merge_respects_weights() {
        let a = StallBreakdown::from_weights([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let b = StallBreakdown::from_weights([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let m = StallBreakdown::weighted_merge(&[(a, 3.0), (b, 1.0)]);
        assert!((m.share(StallReason::MemoryDependency) - 0.75).abs() < 1e-9);
        assert!((m.share(StallReason::ExecutionDependency) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn degenerate_weights_are_uniform() {
        let b = StallBreakdown::from_weights([0.0; 6]);
        for r in StallReason::ALL {
            assert!((b.share(r) - 1.0 / 6.0).abs() < 1e-12);
        }
    }
}

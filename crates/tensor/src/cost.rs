//! Integer-instruction cost models for each operation class.
//!
//! The GNNMark paper reports the *dynamic instruction mix* of GNN training
//! (Figure 3): on a V100, 64 % of executed instructions are int32 and only
//! 28.7 % fp32 on average, because graph aggregation is dominated by index
//! arithmetic. Floating-point counts are exact (they follow from the op's
//! arithmetic definition); integer counts depend on how a CUDA kernel is
//! written, so we model them here with per-class formulas.
//!
//! The constants encode well-known kernel structures:
//!
//! * Tiled GEMM/conv kernels amortize address math across register tiles, so
//!   they execute far fewer int ops than flops.
//! * Element-wise kernels execute a handful of int ops per element (global
//!   thread-id computation, bounds check, pointer arithmetic).
//! * Irregular ops (gather/scatter/index-select/sort/SpMM row traversal)
//!   are almost entirely integer work.
//!
//! All formulas are pure and deterministic so the instruction mix is
//! reproducible run-to-run.

/// Integer ops executed per element by an element-wise kernel.
///
/// thread-id computation (~2), bounds compare (1), pointer math (~2).
pub const INT_PER_ELEMWISE_ELEM: u64 = 5;

/// Integer ops per output element of a tiled GEMM (amortized address math).
///
/// Register-tiled kernels amortize address math, but nvprof still counts
/// pointer updates, predicate math and shared-memory addressing: measured
/// `inst_integer / inst_fp32` on V100 sgemm is ≈ 0.4–0.7 for GNN shapes.
pub const INT_PER_GEMM_MAC_X1000: u64 = 550; // 0.55 int ops per MAC

/// Integer ops per nonzero processed by an SpMM kernel
/// (row-pointer walk, column-index load/decode, output address math).
pub const INT_PER_SPMM_NNZ: u64 = 10;

/// Integer ops per MAC in a direct 2-D convolution kernel.
///
/// Convolutions recompute (n,c,h,w) coordinates per tap but amortize over
/// unrolled filter loops.
pub const INT_PER_CONV_MAC_X1000: u64 = 1100;

/// Integer ops per element gathered or scattered (index load, address
/// computation, bounds checks).
pub const INT_PER_GATHER_ELEM: u64 = 14;

/// Integer ops per element for index-select (row-granular gather; slightly
/// cheaper per element than arbitrary gather since the row offset is shared).
pub const INT_PER_INDEX_SELECT_ELEM: u64 = 12;

/// Integer ops per key-comparison step of a GPU radix/bitonic sort.
pub const INT_PER_SORT_STEP: u64 = 20;

/// Integer ops per element of a reduction tree (index halving, lane math).
pub const INT_PER_REDUCE_ELEM: u64 = 6;

/// Integer ops per element of a softmax (thread indexing across 3 passes).
pub const INT_PER_SOFTMAX_ELEM: u64 = 6;

/// Integer ops per element copied by embedding lookup.
pub const INT_PER_EMBED_ELEM: u64 = 12;

/// Integer ops per element moved by transpose/concat/copy kernels
/// (coordinate remapping dominates — these kernels do no fp work).
pub const INT_PER_DATAMOVE_ELEM: u64 = 10;

/// Integer ops per element for batch-norm (indexing across N for each C).
pub const INT_PER_BATCHNORM_ELEM: u64 = 6;

/// Integer cost of a GEMM with `m`×`k` times `k`×`n` operands.
pub fn gemm_iops(m: usize, k: usize, n: usize) -> u64 {
    let macs = (m * k * n) as u64;
    macs * INT_PER_GEMM_MAC_X1000 / 1000
}

/// Integer cost of an SpMM with `nnz` nonzeros and dense width `n`.
pub fn spmm_iops(nnz: usize, n: usize) -> u64 {
    // Row walk + column decode per nonzero, plus per-output-element math.
    (nnz as u64) * INT_PER_SPMM_NNZ + (nnz * n) as u64 * 2
}

/// Integer cost of a direct conv2d with `macs` multiply-accumulates.
pub fn conv2d_iops(macs: u64) -> u64 {
    macs * INT_PER_CONV_MAC_X1000 / 1000
}

/// Integer cost of sorting `n` keys (n log2 n comparison steps).
pub fn sort_iops(n: usize) -> u64 {
    if n <= 1 {
        return 1;
    }
    let steps = (n as u64) * (usize::BITS - (n - 1).leading_zeros()) as u64;
    steps * INT_PER_SORT_STEP
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_is_fp_dominant() {
        // 2*macs flops vs gemm_iops must leave fp share > 70 %.
        let m = 256;
        let k = 256;
        let n = 256;
        let flops = 2 * (m * k * n) as u64;
        let iops = gemm_iops(m, k, n);
        let fp_share = flops as f64 / (flops + iops) as f64;
        assert!(fp_share > 0.7, "fp share {fp_share}");
    }

    #[test]
    fn sort_is_loglinear() {
        assert!(sort_iops(1024) > sort_iops(512) * 2 - sort_iops(512) / 2);
        assert_eq!(sort_iops(1), 1);
        assert_eq!(sort_iops(0), 1);
    }

    #[test]
    fn spmm_iops_scale_with_nnz() {
        assert!(spmm_iops(1000, 16) > spmm_iops(100, 16) * 9);
    }
}

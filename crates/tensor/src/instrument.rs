//! Operation-level instrumentation types.
//!
//! Each tensor operation emits one [`OpEvent`] describing the work a GPU
//! kernel implementing that operation would perform. Events capture *what
//! happened* (exact arithmetic-op counts, bytes, real index arrays); the
//! `gnnmark-gpusim` crate decides *how long it takes* on a modeled V100.

use std::sync::Arc;

/// The GNNMark operator taxonomy (paper §V-A, Figure 2).
///
/// These classes are the unit of the paper's execution-time breakdown,
/// per-operation cache analysis and stall analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Dense general matrix-matrix multiply.
    Gemm,
    /// Dense matrix-vector multiply. No kernel emits it; it keeps its
    /// place because stream files write a class as its index in
    /// [`OpClass::ALL`].
    Gemv,
    /// Sparse (CSR) × dense matrix multiply.
    Spmm,
    /// 2-D convolution (used by STGCN's temporal blocks).
    Conv2d,
    /// Batch normalization (used by DeepGCN).
    BatchNorm,
    /// Scatter / scatter-add of rows into a destination by index.
    Scatter,
    /// Gather of rows from a source by index.
    Gather,
    /// Reductions (sum / mean / max, full or per-axis).
    Reduction,
    /// Index-select style row selection (also covers masked selection).
    IndexSelect,
    /// Sorting / argsort.
    Sort,
    /// Element-wise arithmetic, activations and comparisons.
    ElementWise,
    /// Softmax (row-wise normalization; reduction + element-wise hybrid).
    Softmax,
    /// Embedding-table lookup.
    Embedding,
    /// Pure data movement: transpose, concat, split, copies.
    DataMovement,
}

impl OpClass {
    /// All operation classes, in a stable display order.
    pub const ALL: [OpClass; 14] = [
        OpClass::Gemm,
        OpClass::Gemv,
        OpClass::Spmm,
        OpClass::Conv2d,
        OpClass::BatchNorm,
        OpClass::Scatter,
        OpClass::Gather,
        OpClass::Reduction,
        OpClass::IndexSelect,
        OpClass::Sort,
        OpClass::ElementWise,
        OpClass::Softmax,
        OpClass::Embedding,
        OpClass::DataMovement,
    ];

    /// Short label used in reports (matches the paper's figure legends).
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Gemm => "GEMM",
            OpClass::Gemv => "GEMV",
            OpClass::Spmm => "SpMM",
            OpClass::Conv2d => "Conv2D",
            OpClass::BatchNorm => "BatchNorm",
            OpClass::Scatter => "Scatter",
            OpClass::Gather => "Gather",
            OpClass::Reduction => "Reduction",
            OpClass::IndexSelect => "IndexSel",
            OpClass::Sort => "Sort",
            OpClass::ElementWise => "ElemWise",
            OpClass::Softmax => "Softmax",
            OpClass::Embedding => "Embedding",
            OpClass::DataMovement => "DataMove",
        }
    }
}

impl std::fmt::Display for OpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A description of one logical memory-access stream of a kernel.
///
/// Irregular patterns carry the *actual* index arrays used by the op, so the
/// GPU model can measure true locality and warp divergence rather than
/// assuming a distribution.
///
/// Equality is structural; an `Indexed` pair sharing one index array
/// compares by pointer without reading it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessDesc {
    /// A fully coalesced sequential sweep over `bytes` bytes.
    Sequential {
        /// Total bytes touched by the sweep.
        bytes: u64,
    },
    /// A strided sweep: `accesses` accesses of `access_bytes` each,
    /// consecutive accesses `stride_bytes` apart.
    Strided {
        /// Distance between consecutive accesses, in bytes.
        stride_bytes: u64,
        /// Number of accesses.
        accesses: u64,
        /// Bytes per access.
        access_bytes: u64,
    },
    /// Row accesses into a table driven by an explicit index array
    /// (gather/scatter/embedding/SpMM column accesses).
    Indexed {
        /// The actual indices used by the operation, in issue order.
        indices: Arc<Vec<u32>>,
        /// Bytes read or written per indexed row.
        row_bytes: u64,
        /// Total size of the indexed table, in bytes.
        table_bytes: u64,
    },
    /// Data-dependent accesses with no reusable structure (sorting network
    /// traffic, hash-style probing).
    Random {
        /// Number of accesses.
        accesses: u64,
        /// Bytes per access.
        access_bytes: u64,
        /// Size of the region the accesses fall in, in bytes.
        region_bytes: u64,
    },
}

impl AccessDesc {
    /// Total bytes moved by this access stream.
    pub fn bytes(&self) -> u64 {
        match self {
            AccessDesc::Sequential { bytes } => *bytes,
            AccessDesc::Strided {
                accesses,
                access_bytes,
                ..
            } => accesses * access_bytes,
            AccessDesc::Indexed {
                indices, row_bytes, ..
            } => indices.len() as u64 * row_bytes,
            AccessDesc::Random {
                accesses,
                access_bytes,
                ..
            } => accesses * access_bytes,
        }
    }
}

/// One operation executed by the tensor engine — the unit of profiling.
///
/// `flops` counts executed fp32 arithmetic operations (an FMA counts as 2),
/// `iops` counts executed int32 arithmetic operations (index math,
/// comparisons on integer data, loop bookkeeping attributable to data
/// indexing). Load/store instruction counts are derived downstream from
/// `bytes_read`/`bytes_written`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpEvent {
    /// Operation class (the paper's taxonomy).
    pub class: OpClass,
    /// Kernel-style name for per-kernel reports, e.g. `"sgemm"`.
    pub kernel: &'static str,
    /// Executed fp32 arithmetic operations.
    pub flops: u64,
    /// Executed int32 arithmetic operations.
    pub iops: u64,
    /// Bytes read from device memory (logical; pre-cache).
    pub bytes_read: u64,
    /// Bytes written to device memory (logical; pre-cache).
    pub bytes_written: u64,
    /// Logical parallel work-items (CUDA threads) the kernel would launch.
    pub threads: u64,
    /// Read access streams.
    pub reads: Vec<AccessDesc>,
    /// Write access streams.
    pub writes: Vec<AccessDesc>,
}

impl OpEvent {
    /// Total bytes moved (read + written).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = OpClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), OpClass::ALL.len());
    }

    #[test]
    fn access_desc_bytes() {
        let d = AccessDesc::Indexed {
            indices: Arc::new(vec![0, 1, 2, 3]),
            row_bytes: 16,
            table_bytes: 1024,
        };
        assert_eq!(d.bytes(), 64);
        let s = AccessDesc::Sequential { bytes: 100 };
        assert_eq!(s.bytes(), 100);
        let st = AccessDesc::Strided {
            stride_bytes: 128,
            accesses: 10,
            access_bytes: 4,
        };
        assert_eq!(st.bytes(), 40);
    }
}

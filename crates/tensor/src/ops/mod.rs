//! Tensor operations, organized by the GNNMark operator taxonomy.
//!
//! Each submodule implements one family of operations as inherent methods on
//! [`Tensor`](crate::Tensor) / [`CsrMatrix`](crate::CsrMatrix) (plus a few
//! free functions). Every operation:
//!
//! 1. validates its arguments and returns a [`TensorError`](crate::TensorError)
//!    on misuse,
//! 2. computes its result exactly on CPU, and
//! 3. emits an [`crate::OpEvent`] describing the equivalent GPU
//!    kernel when recording is enabled.

pub mod backward_kernels;
pub mod conv;
pub mod elementwise;
pub mod embedding;
pub mod fused;
pub mod gather;
pub mod gemm;
pub mod reduce;
pub mod scatter;
pub mod softmax;
pub mod sort;
pub mod spmm;
pub mod transform;

use crate::instrument::{AccessDesc, OpClass, OpEvent};
use crate::record;

/// Emits an op event lazily (no cost when recording is disabled).
#[allow(clippy::too_many_arguments)] // mirrors the OpEvent field list
pub(crate) fn emit_op(
    class: OpClass,
    kernel: &'static str,
    flops: u64,
    iops: u64,
    bytes_read: u64,
    bytes_written: u64,
    threads: u64,
    reads: impl FnOnce() -> Vec<AccessDesc>,
    writes: impl FnOnce() -> Vec<AccessDesc>,
) {
    record::emit_with(|| OpEvent {
        class,
        kernel,
        flops,
        iops,
        bytes_read,
        bytes_written,
        threads,
        reads: reads(),
        writes: writes(),
    });
}

/// Emits an op event whose access streams are simple sequential sweeps.
pub(crate) fn emit_sequential(
    class: OpClass,
    kernel: &'static str,
    flops: u64,
    iops: u64,
    bytes_read: u64,
    bytes_written: u64,
    threads: u64,
) {
    emit_op(
        class,
        kernel,
        flops,
        iops,
        bytes_read,
        bytes_written,
        threads,
        || vec![AccessDesc::Sequential { bytes: bytes_read }],
        || {
            vec![AccessDesc::Sequential {
                bytes: bytes_written,
            }]
        },
    );
}

//! # gnnmark-tensor
//!
//! An instrumented CPU tensor engine implementing the operator taxonomy that
//! the GNNMark paper (Baruah et al., ISPASS 2021) uses to characterize GNN
//! training: GEMM, SpMM, 2-D convolution, batch normalization,
//! scatter, gather, reductions, index selection, sorting, softmax, embedding
//! lookups and element-wise operations.
//!
//! Every operation both *executes for real* on CPU and emits an [`OpEvent`]
//! describing what a GPU would have had to do: exact floating-point and
//! integer work, bytes moved, logical thread count, and the memory access
//! pattern (including the *actual* index arrays used by irregular
//! operations). The `gnnmark-gpusim` crate lowers these events onto an
//! analytical NVIDIA V100 model to reproduce the paper's architectural
//! metrics.
//!
//! ## Example
//!
//! ```
//! use gnnmark_tensor::{record, Tensor};
//!
//! record::start_recording();
//! let a = Tensor::ones(&[4, 8]);
//! let b = Tensor::ones(&[8, 2]);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.get(&[0, 0]), 8.0);
//! let events = record::stop_recording();
//! assert_eq!(events.len(), 1); // one GEMM kernel
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
mod dense;
mod error;
pub mod half;
pub mod instrument;
mod int;
pub mod ops;
pub mod par;
pub mod pool;
pub mod record;
mod shape;
pub mod simd;
mod sparse;

pub use dense::Tensor;
pub use error::TensorError;
pub use instrument::{AccessDesc, OpClass, OpEvent};
pub use int::IntTensor;
pub use shape::Shape;
pub use sparse::CsrMatrix;

/// Convenience result alias used throughout the tensor crate.
pub type Result<T> = std::result::Result<T, TensorError>;

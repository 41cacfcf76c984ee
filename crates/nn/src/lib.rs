//! # gnnmark-nn
//!
//! Neural-network and GNN layers for the GNNMark reproduction, built on
//! [`gnnmark_autograd`]: linear/MLP blocks, LSTM and child-sum Tree-LSTM
//! cells, GCN / GraphSAGE / GENConv (DeepGCN) / PinSAGE convolutions,
//! STGCN's gated temporal convolution blocks, GraphWriter-style multi-head
//! graph attention, layer normalization, and the standard loss functions.
//!
//! Every layer is a [`Module`]: it owns persistent [`Param`]s and exposes a
//! `forward` that builds instrumented ops on a per-step [`Tape`]. That
//! `forward` is the layer's only implementation: entered under a
//! [`gnnmark_autograd::NoGradGuard`] it runs the same kernels and records
//! nothing, which is how the workloads do inference.
//!
//! ## Example
//!
//! ```
//! use gnnmark_autograd::{Adam, Optimizer, Tape};
//! use gnnmark_nn::{losses, Linear, Module};
//! use gnnmark_tensor::{IntTensor, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let layer = Linear::new("clf", 4, 3, &mut rng)?;
//! let mut opt = Adam::new(1e-2);
//! let x = Tensor::uniform(&[8, 4], -1.0, 1.0, &mut rng);
//! let y = IntTensor::from_vec(&[8], vec![0, 1, 2, 0, 1, 2, 0, 1])?;
//! for _ in 0..3 {
//!     layer.params().zero_grad();
//!     let tape = Tape::new();
//!     let logits = layer.forward(&tape, &tape.constant(x.clone()))?;
//!     let loss = losses::cross_entropy(&logits, &y)?;
//!     tape.backward(&loss)?;
//!     opt.step(&layer.params())?;
//! }
//! # Ok::<(), gnnmark_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attention;
pub mod gcn;
pub mod init;
pub mod linear;
pub mod losses;
pub mod lstm;
mod module;
pub mod norm;
pub mod pinsage;
pub mod sampled;
pub mod stgcn;

pub use attention::GraphAttention;
pub use gcn::{GcnConv, GenConv, SageConv};
pub use linear::{Linear, Mlp};
pub use lstm::{LstmCell, TreeLstmCell};
pub use module::Module;
pub use norm::LayerNorm;
pub use pinsage::PinSageConv;
pub use sampled::SampledGcn;
pub use stgcn::{StConvBlock, TemporalConv};

/// Result alias re-used from the tensor crate.
pub type Result<T> = gnnmark_tensor::Result<T>;

// Re-exported for doc examples and downstream convenience.
pub use gnnmark_autograd::{Param, ParamSet, Tape, Var};

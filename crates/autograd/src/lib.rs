//! # gnnmark-autograd
//!
//! Tape-based reverse-mode automatic differentiation over
//! [`gnnmark_tensor`], plus the SGD and Adam optimizers.
//!
//! The design mirrors PyTorch's define-by-run model at minibatch
//! granularity: a [`Tape`] is created per training step, [`Var`]s are built
//! by applying operations, and [`Tape::backward`] walks the tape in reverse
//! emitting *real* tensor operations for every gradient kernel. Because
//! backward passes execute through the same instrumented tensor engine,
//! profiled GNN training includes its backward half — gathers turn into
//! scatters, GEMMs into transposed GEMMs — exactly the property the GNNMark
//! paper's training-time characterization depends on.
//!
//! A forward written against [`Var`] is also the model's inference path:
//! under a [`NoGradGuard`] the same ops run and nothing is recorded (see
//! [`nograd`]).
//!
//! ## Example
//!
//! ```
//! use gnnmark_autograd::{Param, Tape};
//! use gnnmark_tensor::Tensor;
//!
//! let w = Param::new("w", Tensor::from_vec(&[2, 1], vec![0.5, -0.5])?);
//! let tape = Tape::new();
//! let x = tape.constant(Tensor::from_vec(&[1, 2], vec![1.0, 2.0])?);
//! let y = x.matmul(&tape.read(&w))?;     // y = x·w = -0.5
//! let loss = y.square().mean_all();      // loss = 0.25
//! tape.backward(&loss)?;
//! let g = w.grad().expect("gradient populated");
//! assert!((g.get(&[0, 0]) - (2.0 * -0.5 * 1.0)).abs() < 1e-6);
//! # Ok::<(), gnnmark_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod amp;
pub mod nograd;
mod optim;
mod param;
mod tape;
mod var_ops;

pub use nograd::NoGradGuard;
pub use optim::{set_thread_grad_clip, thread_grad_clip, Adam, Optimizer, Sgd};
pub use param::{Param, ParamSet};
pub use tape::{
    activation_bytes_peak, reset_activation_peak, reset_tape_node_counter, tape_nodes_recorded,
    Tape, Var,
};

/// Result alias re-used from the tensor crate.
pub type Result<T> = gnnmark_tensor::Result<T>;

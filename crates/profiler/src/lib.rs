//! # gnnmark-profiler
//!
//! An nvprof-like profiling harness: wrap a training run in a
//! [`ProfileSession`], and every tensor operation executed inside a step is
//! captured, lowered onto the GPU model and aggregated into a
//! [`WorkloadProfile`] — the per-workload record behind every figure of the
//! GNNMark paper (execution-time breakdown, instruction mix, GFLOPS/GIOPS,
//! IPC, stall distribution, cache hit rates, divergence, transfer
//! sparsity).
//!
//! ## Example
//!
//! ```
//! use gnnmark_gpusim::DeviceSpec;
//! use gnnmark_profiler::ProfileSession;
//! use gnnmark_tensor::Tensor;
//!
//! let mut session = ProfileSession::new("demo", DeviceSpec::v100());
//! session.begin_step();
//! let x = Tensor::ones(&[128, 128]);
//! let _ = x.matmul(&x).unwrap();
//! session.end_step();
//! let profile = session.finish();
//! assert_eq!(profile.kernels.len(), 1);
//! assert!(profile.total_kernel_time_ns() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod profile;
pub mod replay;
pub mod session;
pub mod table;
pub mod trace;

pub use profile::{ClassStats, FigureCategory, WorkloadProfile};
pub use replay::{replay_profile, replay_profile_into, replay_steps};
pub use session::ProfileSession;
pub use table::Table;
pub use trace::{to_chrome_trace, to_merged_chrome_trace};

//! # gnnmark-gpusim
//!
//! An analytical performance model of an NVIDIA V100 (and a 4×V100 NVLink
//! node) that consumes the *real* operator stream emitted by
//! [`gnnmark_tensor`] and produces the architectural metrics the GNNMark
//! paper reports: per-kernel timing, GFLOPS/GIOPS, IPC, dynamic
//! instruction mix, L1/L2 hit rates from a set-associative cache
//! simulation, warp-divergence measurement over the actual index arrays,
//! stall attribution, CPU→GPU transfer sparsity and DDP multi-GPU scaling.
//!
//! The model is deliberately *not* cycle-accurate — it is an
//! interval-style model calibrated to the V100 figures the paper measures
//! (80 SMs, 14 TFLOPS fp32, 900 GB/s HBM2, 128 KB L1/SM, 6.14 MB shared
//! L2, 128 B lines) — but every input to it is measured from executed
//! computation, so relative behavior across op classes, workloads and
//! datasets is grounded.
//!
//! ## Example
//!
//! ```
//! use gnnmark_gpusim::{DeviceSpec, GpuModel};
//! use gnnmark_tensor::{record, Tensor};
//!
//! record::start_recording();
//! let a = Tensor::ones(&[64, 64]);
//! let _ = a.matmul(&a).unwrap();
//! let events = record::stop_recording();
//!
//! let mut gpu = GpuModel::new(DeviceSpec::v100());
//! let metrics = gpu.execute(&events[0]);
//! assert!(metrics.time_ns > 0.0);
//! assert!(metrics.gflops() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod device;
pub mod kernel;
pub mod model;
pub mod multigpu;
pub mod roofline;
pub mod stall;
pub mod stream;
pub mod transfer;

pub use cache::{CacheSim, MemoryTrace};
pub use device::DeviceSpec;
pub use kernel::{InstructionMix, KernelMetrics};
pub use model::{GpuModel, PrevStep};
pub use multigpu::{DdpModel, ScalingBehavior};
pub use roofline::{Bound, RooflinePoint};
pub use stall::{StallBreakdown, StallReason};
pub use stream::{CapturedRun, CapturedStream, ReplayMeta, TransferRecord};
pub use transfer::{Transfer, TransferDirection, TransferEngine};

//! # gnnmark
//!
//! The facade crate of the GNNMark reproduction: run the full benchmark
//! suite on the modeled V100, and regenerate every table and figure of
//! the paper (Baruah et al., *GNNMark: A Benchmark Suite to Characterize
//! Graph Neural Network Training on GPUs*, ISPASS 2021).
//!
//! * [`suite`] — run workloads under a profiling session.
//! * [`resilience`] — fault-isolated suite execution: deadlines, retries,
//!   numeric-anomaly guards, fault injection, and checkpoint/resume.
//! * [`cache`] — the on-disk store of captured op streams that a
//!   `--checkpoint` resume and the `gnnmark-serve` replay campaigns share.
//! * [`observability`] — post-run metrics collection and artifact export
//!   (merged Chrome trace, metrics snapshot, Prometheus dump, manifest).
//! * [`figures`] — Table I and Figures 2–9 as text tables / CSV.
//! * [`ablations`] — the design-space sweeps DESIGN.md calls out
//!   (L1 capacity, feature width, NVLink bandwidth, half precision).
//! * [`infer`] — forward-only inference characterization: batch-1 latency,
//!   batched throughput, and measured inference-vs-training contrasts.
//! * [`shutdown`] — cooperative SIGINT/SIGTERM handling so long runs
//!   flush checkpoints, metrics and manifests instead of losing them.
//!
//! ## Quick start
//!
//! ```
//! use gnnmark::suite::{run_workload_full, SuiteConfig};
//! use gnnmark::WorkloadKind;
//!
//! let cfg = SuiteConfig::test();
//! let profile = run_workload_full(WorkloadKind::ArgaCora, &cfg).unwrap().profile;
//! assert!(profile.kernels.len() > 10);
//! println!("{}", gnnmark::figures::fig4_throughput(&[profile]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod cache;
pub mod figures;
pub mod infer;
pub mod observability;
pub mod resilience;
pub mod shutdown;
pub mod suite;

pub use gnnmark_gpusim::DeviceSpec;
pub use gnnmark_profiler::{ProfileSession, Table, WorkloadProfile};
pub use gnnmark_workloads::{MinibatchConfig, Scale, TrainMode, Workload, WorkloadKind};

/// Result alias re-used from the tensor crate.
pub type Result<T> = gnnmark_tensor::Result<T>;

//! # gnnmark-telemetry
//!
//! Host-side observability for the GNNMark reproduction. The modeled GPU
//! already has a profiler (`gnnmark-profiler`); this crate observes the
//! *real* Rust training run — the host time spent generating batches,
//! running forward/backward, stepping optimizers, simulating kernels, and
//! retrying faulted workloads.
//!
//! Three layers, all off by default and dependency-free:
//!
//! * **Spans** ([`span!`], [`Span`], [`mark`]) — hierarchical RAII
//!   wall-clock regions on per-thread lanes. Disabled spans cost one
//!   relaxed atomic load.
//! * **Metrics** ([`metrics`]) — a named registry of counters, gauges and
//!   summary histograms fed from counters that already exist in the stack
//!   (tensor buffers, `par` workers, autograd tape, gpusim, resilience).
//! * **Exporters** ([`export`]) — JSON metrics snapshot, Prometheus text
//!   dump, and the run manifest. The merged host + modeled-GPU Chrome
//!   trace is assembled by `gnnmark-profiler::to_merged_chrome_trace`,
//!   which consumes this crate's [`HostTrace`].
//!
//! See `docs/OBSERVABILITY.md` for the span taxonomy and metric names.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod export;
pub mod metrics;
mod span;

pub use span::{
    enabled, lane, mark, now_ns, pending_spans, progress_enabled, set_enabled, set_progress,
    take_host_trace, HostTrace, LaneInfo, Span, SpanEvent,
};

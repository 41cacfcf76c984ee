//! # gnnmark-serve
//!
//! Benchmark-as-a-service on top of the GNNMark stack:
//!
//! * [`StreamCache`] — the content-addressed on-disk store of captured op
//!   streams (key: workload + scale + seed + epochs + code-version salt),
//!   re-exported from [`gnnmark::cache`], which the suite's `--checkpoint`
//!   shares. Training happens once per key; every device/DDP/interconnect
//!   configuration afterwards replays the stream through the gpusim
//!   timing model. An N-config ablation sweep costs 1×train + N×simulate
//!   instead of N×(train + simulate).
//! * [`campaign`] — a declarative sweep engine: a JSON spec ([`spec`])
//!   expands to a two-phase job DAG (capture phase, then replay phase)
//!   executed on a bounded worker queue with per-job retries/timeouts and
//!   deterministic fault injection from `gnnmark::resilience`. Job
//!   ordering is deterministic, so a campaign's merged result JSON is
//!   byte-identical across runs and worker counts.
//! * [`store`] — a dependency-free write-ahead-logged job store
//!   (length-prefixed, FNV-1a-checksummed records, torn-tail truncation,
//!   snapshot compaction, finished jobs beyond the newest few moved to an
//!   append-only archive file so a daemon's memory does not grow with the
//!   jobs it has served). Every submission, claim, state transition and
//!   result path is durable: a `kill -9`'d daemon restarts against the
//!   same `--store` directory, replays the log, re-queues jobs that died
//!   mid-flight, and — thanks to [`StreamCache`] — finishes them without
//!   retraining, byte-identical to an uninterrupted run.
//! * [`lease`] — lock-file-arbitrated job claims with TTL expiry and
//!   heartbeats, so N `gnnmark serve --store <dir>` processes share one
//!   queue with exactly-once completion.
//! * [`http`] — a dependency-free HTTP/1.1 daemon on
//!   `std::net::TcpListener` (`gnnmark serve --addr`): submit jobs and
//!   campaigns, poll status, fetch figure-CSV artifacts, scrape
//!   `/metrics` in Prometheus format, watch the live HTML fleet
//!   dashboard at `/dashboard`, and read per-job characterization
//!   reports at `/jobs/<id>/report` (both rendered by
//!   `gnnmark-report`). On SIGINT/SIGTERM it drains:
//!   reads keep working, new submissions get `503 Retry-After`, and the
//!   WAL is compacted on exit.
//! * [`loadtest`] — an open/closed-loop SLO load harness
//!   (`gnnmark loadtest`): p50/p95/p99 latency, saturation RPS and the
//!   error budget.
//! * [`client`] — the HTTP/1.1 client the load harness and the daemon
//!   tests send their requests with.
//!
//! The one-shot `gnnmark sweep <spec.json>` CLI path reuses [`campaign`]
//! directly, without the daemon.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod client;
mod dashboard;
pub mod http;
pub mod lease;
pub mod loadtest;
pub mod spec;
pub mod store;

pub use campaign::{run_campaign, CampaignOutcome};
pub use gnnmark::cache::{CacheKey, StreamCache};
pub use http::{serve, ServeConfig};
pub use lease::{Lease, LeaseManager};
pub use loadtest::{run_loadtest, LoadtestOptions, LoadtestReport};
pub use spec::{CampaignSpec, DeviceConfig};
pub use store::{JobState, JobStore, StoredJob};

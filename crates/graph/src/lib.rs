//! # gnnmark-graph
//!
//! Graph substrates for the GNNMark reproduction: the three graph families
//! the paper builds its suite around (homogeneous graphs, heterogeneous
//! user–item graphs, generated as their item–item projection, and
//! dynamic/spatio-temporal graphs), plus trees, block-diagonal graph
//! batching, minibatch/fanout/random-walk samplers, the k-WL graph transform used
//! by k-GNNs, and seeded synthetic dataset generators shaped like the
//! paper's datasets (MovieLens, Nowplaying, METR-LA, ogbg-molhiv, AGENDA,
//! PROTEINS, Cora/PubMed/CiteSeer, SST).
//!
//! ## Example
//!
//! ```
//! use gnnmark_graph::datasets::{citation, CitationKind};
//!
//! let g = citation(CitationKind::Cora, 0.1, 7).expect("generator");
//! assert!(g.num_nodes() > 100);
//! let adj = g.normalized_adjacency().expect("well-formed graph");
//! assert_eq!(adj.rows(), g.num_nodes());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod datasets;
pub mod dynamic;
pub mod fanout;
pub mod homo;
pub mod kwl;
pub mod sampler;
pub mod trees;

pub use batch::BatchedGraph;
pub use dynamic::SpatioTemporal;
pub use fanout::{FanoutSampler, SampledBatch, SampledBlock};
pub use homo::Graph;
pub use sampler::EpochBatches;
pub use trees::{Tree, TreeBatch};

/// Result alias re-used from the tensor crate.
pub type Result<T> = gnnmark_tensor::Result<T>;

//! # gnnmark-workloads
//!
//! The eight GNN training workloads of the GNNMark suite (Table I of the
//! paper), built end-to-end on the instrumented tensor/autograd/graph
//! stack:
//!
//! | Abbrev | Model | Graph type | Task |
//! |---|---|---|---|
//! | `PSAGE` | PinSAGE | heterogeneous (bipartite) | recommendation (MVL & NWP datasets) |
//! | `STGCN` | Spatio-Temporal GCN | dynamic / spatio-temporal | traffic forecasting |
//! | `DGCN`  | DeepGCN (GENConv residual blocks) | batched molecules | graph property prediction |
//! | `GW`    | GraphWriter | knowledge graph | graph-to-text generation |
//! | `KGNNL` | k-GNN (k = 2) | batched proteins | graph classification |
//! | `KGNNH` | hierarchical k-GNN (k = 2 + 3) | batched proteins | graph classification |
//! | `ARGA`  | Adversarially Regularized Graph Autoencoder | homogeneous citation | node clustering / embedding |
//! | `TLSTM` | child-sum Tree-LSTM | batched trees | sentiment classification |
//!
//! Each workload implements [`Workload`]: it owns its dataset, model and
//! optimizer, and `run_epoch` drives real training through a
//! [`ProfileSession`] so every kernel and transfer is captured.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arga;
pub mod dgcn;
pub mod gw;
pub mod kgnn;
pub mod psage;
pub mod stgcn;
pub mod tlstm;

use gnnmark_autograd::ParamSet;
use gnnmark_gpusim::ScalingBehavior;
use gnnmark_profiler::ProfileSession;

/// Result alias re-used from the tensor crate.
pub type Result<T> = gnnmark_tensor::Result<T>;

/// Problem size of a workload instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny — for unit tests (sub-second epochs in debug builds).
    Test,
    /// Default figure-generation size (seconds per epoch in release).
    Small,
    /// Closest to the paper's dataset scales this CPU substrate sustains.
    Paper,
}

impl Scale {
    /// Lower-case label used in CLI flags, cache keys and campaign specs.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// Parses a [`Scale::label`] string (case-insensitive; `"tiny"` is an
    /// accepted alias for `test`).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "test" | "tiny" => Some(Scale::Test),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Mini-batch sampling parameters: one fanout per GNN layer (input side
/// first, `0` = unlimited) and the seed-node batch size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinibatchConfig {
    /// Seed nodes (or items) per batch.
    pub batch_size: usize,
    /// Neighbors sampled per node per layer; `0` keeps every neighbor.
    pub fanouts: Vec<usize>,
}

impl Default for MinibatchConfig {
    fn default() -> Self {
        MinibatchConfig {
            batch_size: 32,
            fanouts: vec![10, 5],
        }
    }
}

/// Training execution mode: full-graph (the paper's setting) or
/// neighbor-sampled mini-batches (the scenario axis the paper left out).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TrainMode {
    /// Every step sees the whole graph (all workloads' historic behavior).
    #[default]
    FullGraph,
    /// Layer-wise fanout neighbor sampling over seed-node minibatches.
    Minibatch(MinibatchConfig),
}

impl TrainMode {
    /// Short mode label for CLI flags and figures.
    pub fn label(&self) -> &'static str {
        match self {
            TrainMode::FullGraph => "fullgraph",
            TrainMode::Minibatch(_) => "minibatch",
        }
    }

    /// Canonical key naming the mode *and* its parameters — used in cache
    /// keys, checkpoint fingerprints and replay metadata (e.g.
    /// `"minibatch-b32-f10x5"`).
    pub fn key(&self) -> String {
        match self {
            TrainMode::FullGraph => "fullgraph".to_string(),
            TrainMode::Minibatch(cfg) => {
                let fans: Vec<String> = cfg.fanouts.iter().map(|f| f.to_string()).collect();
                format!("minibatch-b{}-f{}", cfg.batch_size, fans.join("x"))
            }
        }
    }

    /// The minibatch parameters, if this is minibatch mode.
    pub fn minibatch(&self) -> Option<&MinibatchConfig> {
        match self {
            TrainMode::FullGraph => None,
            TrainMode::Minibatch(cfg) => Some(cfg),
        }
    }
}

/// Static description of a workload (one row of Table I).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadInfo {
    /// Paper abbreviation (e.g. `"PSAGE"`).
    pub abbrev: &'static str,
    /// Model name.
    pub model: &'static str,
    /// Framework the paper's implementation uses (`DGL` or `PyG`).
    pub framework: &'static str,
    /// Application domain.
    pub domain: &'static str,
    /// Dataset (synthetic equivalent in this reproduction).
    pub dataset: &'static str,
    /// Graph family (homogeneous / heterogeneous / dynamic / trees).
    pub graph_type: &'static str,
}

/// A trainable, profileable GNNMark workload.
pub trait Workload {
    /// Display name including the dataset (e.g. `"PSAGE-MVL"`).
    fn name(&self) -> String;

    /// Table I row for this workload.
    fn info(&self) -> WorkloadInfo;

    /// All trainable parameters (the DDP gradient payload).
    fn params(&self) -> ParamSet;

    /// Optimizer steps per epoch (each pays one DDP all-reduce).
    fn steps_per_epoch(&self) -> u64;

    /// How the workload's structure interacts with multi-GPU DDP
    /// (Figure 9); `None` means the workload is excluded, as ARGA is.
    fn scaling_behavior(&self) -> Option<ScalingBehavior>;

    /// Runs one training epoch through the session (uploads + kernels are
    /// captured) and returns the mean training loss of the epoch.
    ///
    /// # Errors
    /// Propagates tensor-engine errors (these indicate workload bugs).
    fn run_epoch(&mut self, session: &mut ProfileSession) -> Result<f64>;

    /// Evaluates a task-quality metric on held-aside/training data
    /// (accuracy, RMSE, score margin, …) without touching the optimizer.
    /// Returns `(metric name, value)`; `None` when the workload defines no
    /// quick metric.
    ///
    /// # Errors
    /// Propagates tensor-engine errors.
    fn quality(&mut self) -> Result<Option<(&'static str, f64)>> {
        Ok(None)
    }

    /// Runs one deterministic forward + backward pass over a fixed probe
    /// batch at the current parameters, accumulating gradients into
    /// [`Workload::params`] without stepping the optimizer or advancing
    /// any RNG. Repeated calls at the same parameter values must produce
    /// identical losses and gradients — the finite-difference gradient
    /// checker in `gnnmark-check` relies on this to compare analytic
    /// gradients against numerically perturbed re-evaluations. Returns
    /// the probe loss.
    ///
    /// # Errors
    /// Propagates tensor-engine errors.
    fn probe(&mut self) -> Result<f64>;

    /// Runs one forward-only inference pass over the same fixed batch as
    /// [`Workload::probe`] (for [`InferBatch::Full`]) or a single item
    /// ([`InferBatch::Single`]): the training forward — the very function
    /// `run_epoch` and `probe` call — entered under a
    /// [`gnnmark_autograd::NoGradGuard`], so no autograd tape node is
    /// allocated, no backward closure is kept and no RNG advances. The
    /// implementation installs the guard itself; a caller's own guard
    /// nests. For `InferBatch::Full` the returned loss bit-equals the
    /// forward loss of [`Workload::probe`] at fp32 and the kernel stream is
    /// the prefix of `probe`'s — `gnnmark-check`'s parity layer and
    /// `tests/infer_stream_prefix.rs` hold every workload to that.
    ///
    /// # Errors
    /// Propagates tensor-engine errors.
    fn infer(&mut self, batch: InferBatch) -> Result<f64>;

    /// Number of items (seeds, molecules, windows, documents, trees…)
    /// scored by one [`Workload::infer`] call — the denominator for
    /// batched-throughput metrics. `Single` is always `1`.
    fn infer_items(&self, batch: InferBatch) -> u64;
}

/// Batch shape of one forward-only inference call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferBatch {
    /// One item — the serving batch-1 latency case. Workloads whose
    /// forward is inherently whole-graph (ARGA in full-graph mode) score
    /// the full graph here too; their `infer_items` still reports `1`
    /// request.
    Single,
    /// The workload's full probe batch — the batched-throughput case.
    Full,
}

impl InferBatch {
    /// Lower-case label used in metrics JSON and figures.
    pub fn label(self) -> &'static str {
        match self {
            InferBatch::Single => "single",
            InferBatch::Full => "full",
        }
    }
}

/// Identifier of every workload instance used in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// PinSAGE on the MovieLens-like dataset.
    PsageMvl,
    /// PinSAGE on the Nowplaying-like dataset (10× wider item features).
    PsageNwp,
    /// Spatio-temporal GCN on traffic data.
    Stgcn,
    /// DeepGCN on molecule batches.
    Dgcn,
    /// GraphWriter on knowledge graphs.
    Gw,
    /// k-GNN, low order (k = 2).
    KgnnL,
    /// k-GNN, hierarchical higher order (k = 2 + 3).
    KgnnH,
    /// ARGA on the Cora-like citation graph.
    ArgaCora,
    /// Tree-LSTM on sentiment trees.
    Tlstm,
}

impl WorkloadKind {
    /// The workload set the paper's figures iterate over.
    pub const ALL: [WorkloadKind; 9] = [
        WorkloadKind::PsageMvl,
        WorkloadKind::PsageNwp,
        WorkloadKind::Stgcn,
        WorkloadKind::Dgcn,
        WorkloadKind::Gw,
        WorkloadKind::KgnnL,
        WorkloadKind::KgnnH,
        WorkloadKind::ArgaCora,
        WorkloadKind::Tlstm,
    ];

    /// Display name used in figures.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::PsageMvl => "PSAGE-MVL",
            WorkloadKind::PsageNwp => "PSAGE-NWP",
            WorkloadKind::Stgcn => "STGCN",
            WorkloadKind::Dgcn => "DGCN",
            WorkloadKind::Gw => "GW",
            WorkloadKind::KgnnL => "KGNNL",
            WorkloadKind::KgnnH => "KGNNH",
            WorkloadKind::ArgaCora => "ARGA",
            WorkloadKind::Tlstm => "TLSTM",
        }
    }

    /// Parses a [`WorkloadKind::label`] string (case-insensitive).
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL
            .iter()
            .copied()
            .find(|k| k.label().eq_ignore_ascii_case(s))
    }

    /// Builds the workload at a scale with a deterministic seed, in
    /// full-graph mode (the historic default).
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn build(self, scale: Scale, seed: u64) -> Result<Box<dyn Workload>> {
        self.build_mode(scale, seed, &TrainMode::FullGraph)
    }

    /// Builds the workload in an explicit [`TrainMode`].
    ///
    /// In minibatch mode, graph workloads (PSAGE, ARGA) sample their
    /// neighborhoods through the layer-wise fanout engine; the batched
    /// workloads (STGCN, DGCN, GW, KGNN, TLSTM) honor the configured
    /// batch size over their item sets (fanouts do not apply to batched
    /// small graphs/trees and are ignored there).
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn build_mode(
        self,
        scale: Scale,
        seed: u64,
        mode: &TrainMode,
    ) -> Result<Box<dyn Workload>> {
        Ok(match self {
            WorkloadKind::PsageMvl => Box::new(psage::Psage::new_with_mode(
                psage::PsageDataset::MovieLens,
                scale,
                seed,
                mode,
            )?),
            WorkloadKind::PsageNwp => Box::new(psage::Psage::new_with_mode(
                psage::PsageDataset::Nowplaying,
                scale,
                seed,
                mode,
            )?),
            WorkloadKind::Stgcn => Box::new(stgcn::Stgcn::new_with_mode(scale, seed, mode)?),
            WorkloadKind::Dgcn => Box::new(dgcn::Dgcn::new_with_mode(scale, seed, mode)?),
            WorkloadKind::Gw => Box::new(gw::GraphWriter::new_with_mode(scale, seed, mode)?),
            WorkloadKind::KgnnL => Box::new(kgnn::Kgnn::new_with_mode(
                kgnn::KgnnOrder::Low,
                scale,
                seed,
                mode,
            )?),
            WorkloadKind::KgnnH => Box::new(kgnn::Kgnn::new_with_mode(
                kgnn::KgnnOrder::High,
                scale,
                seed,
                mode,
            )?),
            WorkloadKind::ArgaCora => Box::new(arga::Arga::new_with_mode(
                gnnmark_graph::datasets::CitationKind::Cora,
                scale,
                seed,
                mode,
            )?),
            WorkloadKind::Tlstm => Box::new(tlstm::TreeLstm::new_with_mode(scale, seed, mode)?),
        })
    }
}

/// The full Table I of the paper (one row per workload).
pub fn table_one() -> Vec<WorkloadInfo> {
    vec![
        WorkloadInfo {
            abbrev: "PSAGE",
            model: "PinSAGE",
            framework: "DGL",
            domain: "Recommendation systems",
            dataset: "MovieLens-like (MVL), Nowplaying-like (NWP)",
            graph_type: "Heterogeneous (bipartite user-item)",
        },
        WorkloadInfo {
            abbrev: "STGCN",
            model: "Spatio-Temporal GCN",
            framework: "PyG",
            domain: "Traffic forecasting",
            dataset: "METR-LA-like sensor network",
            graph_type: "Dynamic / spatio-temporal",
        },
        WorkloadInfo {
            abbrev: "DGCN",
            model: "DeepGCN (GENConv + residual)",
            framework: "PyG",
            domain: "Molecular property prediction",
            dataset: "ogbg-molhiv-like molecules",
            graph_type: "Homogeneous (batched small graphs)",
        },
        WorkloadInfo {
            abbrev: "GW",
            model: "GraphWriter (graph transformer)",
            framework: "PyG",
            domain: "Knowledge-graph-to-text generation",
            dataset: "AGENDA-like documents",
            graph_type: "Heterogeneous knowledge graph",
        },
        WorkloadInfo {
            abbrev: "KGNNL",
            model: "k-GNN (k = 2)",
            framework: "PyG",
            domain: "Protein classification",
            dataset: "PROTEINS-like",
            graph_type: "Homogeneous (batched small graphs)",
        },
        WorkloadInfo {
            abbrev: "KGNNH",
            model: "Hierarchical k-GNN (k = 2 + 3)",
            framework: "PyG",
            domain: "Protein classification",
            dataset: "PROTEINS-like",
            graph_type: "Homogeneous (batched small graphs)",
        },
        WorkloadInfo {
            abbrev: "ARGA",
            model: "Adversarially Regularized Graph Autoencoder",
            framework: "PyG",
            domain: "Node clustering / graph embedding",
            dataset: "Cora/CiteSeer/PubMed-like citation graphs",
            graph_type: "Homogeneous",
        },
        WorkloadInfo {
            abbrev: "TLSTM",
            model: "Child-sum Tree-LSTM",
            framework: "DGL",
            domain: "Sentiment classification (NLP)",
            dataset: "SST-like sentiment trees",
            graph_type: "Trees (batched)",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_has_eight_models() {
        let t = table_one();
        assert_eq!(t.len(), 8);
        let abbrevs: Vec<_> = t.iter().map(|r| r.abbrev).collect();
        assert!(abbrevs.contains(&"PSAGE"));
        assert!(abbrevs.contains(&"TLSTM"));
        // Both frameworks represented, as in the paper.
        assert!(t.iter().any(|r| r.framework == "DGL"));
        assert!(t.iter().any(|r| r.framework == "PyG"));
    }

    #[test]
    fn train_mode_key_roundtrips() {
        let full = TrainMode::FullGraph;
        assert_eq!(full.key(), "fullgraph");
        let mb = TrainMode::Minibatch(MinibatchConfig {
            batch_size: 48,
            fanouts: vec![10, 5, 0],
        });
        assert_eq!(mb.key(), "minibatch-b48-f10x5x0");
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = WorkloadKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), WorkloadKind::ALL.len());
    }
}

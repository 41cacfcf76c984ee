//! KGNN: k-dimensional GNNs for protein classification
//! (Morris et al., AAAI 2019).
//!
//! The low-order variant (`KGNNL`) runs a GCN on the original graphs plus
//! a GCN on the 2-set (k = 2) graph; the hierarchical higher-order variant
//! (`KGNNH`) adds a 3-set stage whose input pools the 2-set
//! representations — so cost grows combinatorially with k, the behavior
//! GNNMark includes the pair of variants to study.

use gnnmark_autograd::{Adam, NoGradGuard, Optimizer, ParamSet, Tape, Var};
use gnnmark_gpusim::ScalingBehavior;
use gnnmark_graph::datasets::proteins_like_sized;
use gnnmark_graph::kwl::{kwl_transform, KwlConnectivity};
use gnnmark_graph::{BatchedGraph, Graph};
use gnnmark_nn::gcn::NormAdj;
use gnnmark_nn::{losses, GcnConv, Linear, Module};
use gnnmark_profiler::ProfileSession;
use gnnmark_tensor::{IntTensor, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{Result, Scale, Workload, WorkloadInfo};

/// Order of the k-GNN variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KgnnOrder {
    /// k = 2 (`KGNNL`).
    Low,
    /// k = 2 + 3 hierarchical (`KGNNH`).
    High,
}

/// One pre-transformed protein sample.
#[derive(Debug, Clone)]
struct Sample {
    base: Graph,
    two_set: Graph,
    three_set: Option<Graph>,
    label: i64,
}

/// The k-GNN workload.
pub struct Kgnn {
    order: KgnnOrder,
    samples: Vec<Sample>,
    conv1: GcnConv,
    conv2_set: GcnConv,
    conv3_set: Option<GcnConv>,
    head: Linear,
    opt: Adam,
    rng: StdRng,
    batch_size: usize,
    hidden: usize,
}

impl Kgnn {
    /// Builds a k-GNN of the given order.
    ///
    /// # Errors
    /// Propagates dataset/model/transform construction errors.
    pub fn new(order: KgnnOrder, scale: Scale, seed: u64) -> Result<Self> {
        Self::new_with_mode(order, scale, seed, &crate::TrainMode::FullGraph)
    }

    /// Builds a k-GNN in an explicit [`crate::TrainMode`]. Minibatch mode
    /// overrides the protein batch size; fanouts don't apply to batched
    /// small graphs and are ignored.
    ///
    /// # Errors
    /// Propagates dataset/model/transform construction errors.
    pub fn new_with_mode(
        order: KgnnOrder,
        scale: Scale,
        seed: u64,
        mode: &crate::TrainMode,
    ) -> Result<Self> {
        let (n_graphs, mut batch, hidden) = match scale {
            Scale::Test => (6, 3, 16),
            Scale::Small => (32, 8, 32),
            Scale::Paper => (96, 16, 64),
        };
        if let Some(cfg) = mode.minibatch() {
            batch = cfg.batch_size.clamp(1, n_graphs);
        }
        // Higher-order k-set graphs grow as C(n, 3): keep the raw graphs
        // smaller for KGNNH, exactly the trade-off real k-GNN code makes.
        let (min_n, max_n) = match order {
            KgnnOrder::Low => (8, 20),
            KgnnOrder::High => (7, 13),
        };
        let graphs = proteins_like_sized(n_graphs, min_n, max_n, seed)?;
        let samples = graphs
            .into_iter()
            .map(|g| {
                let two = kwl_transform(&g, 2, KwlConnectivity::Local)?;
                let three = match order {
                    KgnnOrder::Low => None,
                    KgnnOrder::High => Some(
                        kwl_transform(&g, 3, KwlConnectivity::Local)?
                            .graph()
                            .clone(),
                    ),
                };
                Ok(Sample {
                    label: g.graph_label().unwrap_or(0),
                    two_set: two.graph().clone(),
                    three_set: three,
                    base: g,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x169a);
        let conv1 = GcnConv::new("kgnn.base", 3, hidden, &mut rng)?;
        // 2-set features: 3 base dims + 1 isomorphism channel.
        let conv2_set = GcnConv::new("kgnn.two", 4, hidden, &mut rng)?;
        let conv3_set = match order {
            KgnnOrder::Low => None,
            KgnnOrder::High => Some(GcnConv::new("kgnn.three", 4, hidden, &mut rng)?),
        };
        let stages = match order {
            KgnnOrder::Low => 2,
            KgnnOrder::High => 3,
        };
        let head = Linear::new("kgnn.head", stages * hidden, 2, &mut rng)?;
        Ok(Kgnn {
            order,
            samples,
            conv1,
            conv2_set,
            conv3_set,
            head,
            opt: Adam::new(2e-3),
            rng,
            batch_size: batch,
            hidden,
        })
    }

    /// The k-GNN order of this instance.
    pub fn order(&self) -> KgnnOrder {
        self.order
    }

    /// Runs one GCN stage over a batch of graphs and mean-pools per graph.
    /// A training step ships the stage's merged features and adjacency to
    /// the device through `session` as it builds them.
    fn stage(
        conv: &GcnConv,
        tape: &Tape,
        graphs: &[Graph],
        session: Option<&mut ProfileSession>,
    ) -> Result<Var> {
        let batch = BatchedGraph::from_graphs(graphs)?;
        let adj = NormAdj::new_symmetric(batch.graph().normalized_adjacency()?);
        if let Some(session) = session {
            session.upload(batch.graph().features());
            session.upload_csr(adj.matrix());
        }
        let x = tape.constant(batch.graph().features().clone());
        let h = conv.forward(tape, &adj, &x)?.relu();
        let sums = h.scatter_add_rows(batch.graph_ids(), batch.num_graphs())?;
        let inv: Vec<f32> = (0..batch.num_graphs())
            .map(|i| {
                let (s, e) = batch.node_range(i);
                1.0 / (e - s).max(1) as f32
            })
            .collect();
        let n_graphs = batch.num_graphs();
        let inv = tape.constant(Tensor::from_vec(&[n_graphs], inv)?);
        sums.scale_rows(&inv)
    }

    /// The model's one forward, from a batch of samples to per-graph
    /// logits — one stage per k-set order, concatenated into the head:
    /// training, `probe`, `quality` and `infer` all run this.
    fn logits(
        &self,
        tape: &Tape,
        picked: &[Sample],
        mut session: Option<&mut ProfileSession>,
    ) -> Result<Var> {
        let base: Vec<Graph> = picked.iter().map(|s| s.base.clone()).collect();
        let two: Vec<Graph> = picked.iter().map(|s| s.two_set.clone()).collect();
        let mut pooled = vec![
            Self::stage(&self.conv1, tape, &base, session.as_deref_mut())?,
            Self::stage(&self.conv2_set, tape, &two, session.as_deref_mut())?,
        ];
        if let Some(conv3) = &self.conv3_set {
            let three: Vec<Graph> = picked
                .iter()
                .map(|s| s.three_set.clone().expect("high order has 3-sets"))
                .collect();
            pooled.push(Self::stage(conv3, tape, &three, session)?);
        }
        self.head.forward(tape, &Var::concat_cols(&pooled)?)
    }

    /// Cross-entropy of [`Kgnn::logits`] against the samples' labels.
    fn loss(
        &self,
        tape: &Tape,
        picked: &[Sample],
        session: Option<&mut ProfileSession>,
    ) -> Result<Var> {
        losses::cross_entropy(&self.logits(tape, picked, session)?, &Self::labels(picked)?)
    }

    fn labels(picked: &[Sample]) -> Result<IntTensor> {
        IntTensor::from_vec(&[picked.len()], picked.iter().map(|s| s.label).collect())
    }

    /// The fixed probe batch: the first samples in dataset order — no
    /// shuffle — as many as [`Workload::infer_items`] counts.
    fn probe_samples(&self, batch: crate::InferBatch) -> &[Sample] {
        &self.samples[..self.infer_items(batch) as usize]
    }
}

impl Workload for Kgnn {
    fn name(&self) -> String {
        match self.order {
            KgnnOrder::Low => "KGNNL".to_string(),
            KgnnOrder::High => "KGNNH".to_string(),
        }
    }

    fn info(&self) -> WorkloadInfo {
        let abbrev = match self.order {
            KgnnOrder::Low => "KGNNL",
            KgnnOrder::High => "KGNNH",
        };
        crate::table_one()
            .into_iter()
            .find(|r| r.abbrev == abbrev)
            .expect("KGNN row present")
    }

    fn params(&self) -> ParamSet {
        let mut set = self.conv1.params();
        set.extend(&self.conv2_set.params());
        if let Some(c3) = &self.conv3_set {
            set.extend(&c3.params());
        }
        set.extend(&self.head.params());
        set
    }

    fn steps_per_epoch(&self) -> u64 {
        self.samples.len().div_ceil(self.batch_size) as u64
    }

    fn scaling_behavior(&self) -> Option<ScalingBehavior> {
        // Small graphs, cheap steps: DDP helps only modestly (host-side
        // k-set batching is serial).
        Some(ScalingBehavior::HostBound {
            host_fraction: 0.35,
        })
    }

    fn quality(&mut self) -> Result<Option<(&'static str, f64)>> {
        // Accuracy over the full training set (no optimizer step).
        let logits = self.logits(&Tape::new(), &self.samples, None)?;
        let acc = losses::accuracy(&logits.value(), &Self::labels(&self.samples)?)?;
        Ok(Some(("train accuracy", acc)))
    }

    fn probe(&mut self) -> Result<f64> {
        let tape = Tape::new();
        let loss = self.loss(&tape, self.probe_samples(crate::InferBatch::Full), None)?;
        tape.backward(&loss)?;
        Ok(loss.value().item()? as f64)
    }

    fn infer(&mut self, batch: crate::InferBatch) -> Result<f64> {
        // `probe`'s batch for `Full`, the first sample alone for `Single`;
        // weights and structure are taken as already resident.
        let _no_grad = NoGradGuard::new();
        let loss = self.loss(&Tape::new(), self.probe_samples(batch), None)?;
        Ok(loss.value().item()? as f64)
    }

    fn infer_items(&self, batch: crate::InferBatch) -> u64 {
        match batch {
            crate::InferBatch::Single => 1,
            crate::InferBatch::Full => self.batch_size as u64,
        }
    }

    fn run_epoch(&mut self, session: &mut ProfileSession) -> Result<f64> {
        let mut order: Vec<usize> = (0..self.samples.len()).collect();
        order.shuffle(&mut self.rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(self.batch_size) {
            let _step = gnnmark_telemetry::span!("step");
            let picked: Vec<Sample> = chunk.iter().map(|&i| self.samples[i].clone()).collect();

            self.params().zero_grad();
            session.begin_step();
            let tape = Tape::new();
            let loss = {
                let _fwd = gnnmark_telemetry::span!("forward");
                self.loss(&tape, &picked, Some(&mut *session))?
            };
            {
                let _bwd = gnnmark_telemetry::span!("backward");
                tape.backward(&loss)?;
            }
            {
                let _opt = gnnmark_telemetry::span!("optimizer");
                self.opt.step(&self.params())?;
            }
            session.end_step();
            epoch_loss += loss.value().item()? as f64;
            batches += 1;
        }
        let _ = self.hidden;
        Ok(epoch_loss / batches.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_gpusim::DeviceSpec;

    #[test]
    fn kgnn_low_trains() {
        let mut w = Kgnn::new(KgnnOrder::Low, Scale::Test, 13).unwrap();
        let mut session = ProfileSession::new("kgnnl", DeviceSpec::v100());
        let first = w.run_epoch(&mut session).unwrap();
        let mut last = first;
        for _ in 0..6 {
            last = w.run_epoch(&mut session).unwrap();
        }
        assert!(last < first, "loss {first} → {last}");
        assert_eq!(w.name(), "KGNNL");
    }

    #[test]
    fn kgnn_high_does_more_work_per_graph() {
        let low = Kgnn::new(KgnnOrder::Low, Scale::Test, 13).unwrap();
        let high = Kgnn::new(KgnnOrder::High, Scale::Test, 13).unwrap();
        assert_eq!(high.name(), "KGNNH");
        assert!(high.conv3_set.is_some());
        assert!(low.conv3_set.is_none());
        // The high-order variant has an extra stage → more parameters.
        assert!(high.params().total_scalars() > low.params().total_scalars());
        assert_eq!(high.order(), KgnnOrder::High);
    }
}

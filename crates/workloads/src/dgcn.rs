//! DGCN: DeepGCN for molecular property prediction (Li et al., ICCV 2019).
//!
//! A stack of GENConv-style residual blocks (pre-activation batch norm +
//! message aggregation + MLP + residual) over batched molecule graphs,
//! with a mean-pool readout and a binary classification head — the model
//! whose execution the paper finds dominated by *element-wise* kernels
//! (~31 %), driven by the residual adds, batch-norm math and Adam updates.

use gnnmark_autograd::{Adam, NoGradGuard, Optimizer, ParamSet, Tape, Var};
use gnnmark_gpusim::ScalingBehavior;
use gnnmark_graph::datasets::molhiv_like;
use gnnmark_graph::{BatchedGraph, Graph};
use gnnmark_nn::gcn::EdgeList;
use gnnmark_nn::{losses, GenConv, Linear, Module};
use gnnmark_profiler::ProfileSession;
use gnnmark_tensor::{IntTensor, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{Result, Scale, Workload, WorkloadInfo};

/// The DeepGCN workload.
pub struct Dgcn {
    molecules: Vec<Graph>,
    embed: Linear,
    blocks: Vec<GenConv>,
    head: Linear,
    opt: Adam,
    rng: StdRng,
    batch_size: usize,
    hidden: usize,
}

impl Dgcn {
    /// Builds DeepGCN on molhiv-like molecules.
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn new(scale: Scale, seed: u64) -> Result<Self> {
        Self::new_with_mode(scale, seed, &crate::TrainMode::FullGraph)
    }

    /// Builds DeepGCN in an explicit [`crate::TrainMode`]. Minibatch mode
    /// overrides the molecule batch size; fanouts don't apply to batched
    /// small graphs and are ignored.
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn new_with_mode(scale: Scale, seed: u64, mode: &crate::TrainMode) -> Result<Self> {
        let (n_mols, mut batch, hidden, depth) = match scale {
            Scale::Test => (8, 4, 16, 3),
            Scale::Small => (64, 16, 72, 7),
            Scale::Paper => (192, 32, 72, 14),
        };
        if let Some(cfg) = mode.minibatch() {
            batch = cfg.batch_size.clamp(1, n_mols);
        }
        let molecules = molhiv_like(n_mols, seed)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd9c2);
        let embed = Linear::new("dgcn.embed", 9, hidden, &mut rng)?;
        let blocks = (0..depth)
            .map(|i| GenConv::new(&format!("dgcn.block{i}"), hidden, &mut rng))
            .collect::<Result<Vec<_>>>()?;
        let head = Linear::new("dgcn.head", hidden, 2, &mut rng)?;
        Ok(Dgcn {
            molecules,
            embed,
            blocks,
            head,
            opt: Adam::new(1e-3),
            rng,
            batch_size: batch,
            hidden,
        })
    }

    /// Number of residual blocks (model depth).
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The model's one forward, from a merged molecule batch to per-graph
    /// logits: training, `probe`, `quality` and `infer` all run this.
    fn logits(&self, tape: &Tape, batch: &MolBatch) -> Result<Var> {
        let graphs = &batch.graphs;
        let x = tape.constant(graphs.graph().features().clone());
        let mut h = self.embed.forward(tape, &x)?.relu();
        for block in &self.blocks {
            h = block.forward(tape, &batch.edges, &h)?;
        }
        // Mean-pool readout via scatter + per-graph rescale.
        let n_graphs = graphs.num_graphs();
        let sums = h.scatter_add_rows(graphs.graph_ids(), n_graphs)?;
        let inv_counts: Vec<f32> = (0..n_graphs)
            .map(|i| {
                let (s, e) = graphs.node_range(i);
                1.0 / (e - s).max(1) as f32
            })
            .collect();
        let inv = tape.constant(Tensor::from_vec(&[n_graphs], inv_counts)?);
        self.head.forward(tape, &sums.scale_rows(&inv)?)
    }

    /// Cross-entropy of [`Dgcn::logits`] against the batch's labels.
    fn loss(&self, tape: &Tape, batch: &MolBatch) -> Result<Var> {
        losses::cross_entropy(&self.logits(tape, batch)?, batch.labels())
    }
}

/// Molecules merged into one block-diagonal graph, with its edge list.
struct MolBatch {
    graphs: BatchedGraph,
    edges: EdgeList,
}

impl MolBatch {
    fn new(molecules: &[Graph]) -> Result<Self> {
        let graphs = BatchedGraph::from_graphs(molecules)?;
        let edges = EdgeList::from_graph(graphs.graph())?;
        Ok(MolBatch { graphs, edges })
    }

    fn labels(&self) -> &IntTensor {
        self.graphs.graph_labels().expect("molecules carry labels")
    }
}

impl Workload for Dgcn {
    fn name(&self) -> String {
        "DGCN".to_string()
    }

    fn info(&self) -> WorkloadInfo {
        crate::table_one()
            .into_iter()
            .find(|r| r.abbrev == "DGCN")
            .expect("DGCN row present")
    }

    fn params(&self) -> ParamSet {
        let mut set = self.embed.params();
        for b in &self.blocks {
            set.extend(&b.params());
        }
        set.extend(&self.head.params());
        set
    }

    fn steps_per_epoch(&self) -> u64 {
        self.molecules.len().div_ceil(self.batch_size) as u64
    }

    fn scaling_behavior(&self) -> Option<ScalingBehavior> {
        Some(ScalingBehavior::DataParallel)
    }

    fn quality(&mut self) -> Result<Option<(&'static str, f64)>> {
        // Accuracy over the full training set, one batched forward pass.
        let batch = MolBatch::new(&self.molecules)?;
        let logits = self.logits(&Tape::new(), &batch)?;
        let acc = losses::accuracy(&logits.value(), batch.labels())?;
        Ok(Some(("train accuracy", acc)))
    }

    fn probe(&mut self) -> Result<f64> {
        // Full-batch forward (as in `quality`) with a cross-entropy loss
        // and backward; no shuffling, no optimizer step.
        let batch = MolBatch::new(&self.molecules)?;
        let tape = Tape::new();
        let loss = self.loss(&tape, &batch)?;
        tape.backward(&loss)?;
        Ok(loss.value().item()? as f64)
    }

    fn infer(&mut self, batch: crate::InferBatch) -> Result<f64> {
        // `probe`'s batch for `Full`, the first molecule alone for `Single`.
        let batch = MolBatch::new(&self.molecules[..self.infer_items(batch) as usize])?;
        let _no_grad = NoGradGuard::new();
        Ok(self.loss(&Tape::new(), &batch)?.value().item()? as f64)
    }

    fn infer_items(&self, batch: crate::InferBatch) -> u64 {
        match batch {
            crate::InferBatch::Single => 1,
            crate::InferBatch::Full => self.molecules.len() as u64,
        }
    }

    fn run_epoch(&mut self, session: &mut ProfileSession) -> Result<f64> {
        let mut order: Vec<usize> = (0..self.molecules.len()).collect();
        order.shuffle(&mut self.rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(self.batch_size) {
            let _step = gnnmark_telemetry::span!("step");
            let graphs: Vec<Graph> = chunk.iter().map(|&i| self.molecules[i].clone()).collect();
            let batch = MolBatch::new(&graphs)?;
            // Per-batch device copies: features + structure.
            session.upload(batch.graphs.graph().features());
            session.upload_int(&batch.edges.src);
            session.upload_int(&batch.edges.dst);
            session.upload_int(batch.graphs.graph_ids());

            self.params().zero_grad();
            session.begin_step();
            let tape = Tape::new();
            let loss = {
                let _fwd = gnnmark_telemetry::span!("forward");
                self.loss(&tape, &batch)?
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
        Ok(epoch_loss / batches.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_gpusim::DeviceSpec;
    use gnnmark_profiler::FigureCategory;

    #[test]
    fn dgcn_trains_and_is_elementwise_heavy() {
        let mut w = Dgcn::new(Scale::Test, 9).unwrap();
        let mut session = ProfileSession::new("dgcn", DeviceSpec::v100());
        let first = w.run_epoch(&mut session).unwrap();
        let mut last = first;
        for _ in 0..7 {
            last = w.run_epoch(&mut session).unwrap();
        }
        assert!(last < first, "loss {first} → {last}");
        let p = session.finish();
        // Element-wise work must be a major category for DeepGCN.
        assert!(
            p.time_share(FigureCategory::ElementWise) > 0.10,
            "elementwise share {}",
            p.time_share(FigureCategory::ElementWise)
        );
        assert!(p.time_share(FigureCategory::BatchNorm) > 0.0);
    }

    #[test]
    fn dgcn_depth_and_scaling() {
        let w = Dgcn::new(Scale::Test, 9).unwrap();
        assert_eq!(w.depth(), 3);
        assert_eq!(w.hidden(), 16);
        assert!(matches!(
            w.scaling_behavior(),
            Some(ScalingBehavior::DataParallel)
        ));
        assert_eq!(w.steps_per_epoch(), 2);
    }
}

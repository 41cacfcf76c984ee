//! TLSTM: child-sum Tree-LSTM sentiment classification (Tai et al., 2015),
//! implemented with DGL-style batching: many trees merge into one batch and
//! evaluation proceeds level-by-level, so each tree level is a single set
//! of batched kernels. The node-state bookkeeping is gather/scatter heavy
//! and the arithmetic intensity is low — the paper measures only
//! ~74 GFLOPS for TLSTM and finds it gains nothing from multi-GPU DDP.

use gnnmark_autograd::{Adam, NoGradGuard, Optimizer, Param, ParamSet, Tape, Var};
use gnnmark_gpusim::ScalingBehavior;
use gnnmark_graph::datasets::sst_like;
use gnnmark_graph::{Tree, TreeBatch};
use gnnmark_nn::{losses, Linear, Module, TreeLstmCell};
use gnnmark_profiler::ProfileSession;
use gnnmark_tensor::{IntTensor, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{Result, Scale, Workload, WorkloadInfo};

/// The Tree-LSTM workload.
pub struct TreeLstm {
    trees: Vec<Tree>,
    embed: Param,
    cell: TreeLstmCell,
    head: Linear,
    opt: Adam,
    rng: StdRng,
    vocab: usize,
    hidden: usize,
    batch_size: usize,
}

impl TreeLstm {
    /// Builds TLSTM on SST-like sentiment trees.
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn new(scale: Scale, seed: u64) -> Result<Self> {
        Self::new_with_mode(scale, seed, &crate::TrainMode::FullGraph)
    }

    /// Builds TLSTM in an explicit [`crate::TrainMode`]. Minibatch mode
    /// overrides the tree batch size; fanouts don't apply to trees and are
    /// ignored.
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn new_with_mode(scale: Scale, seed: u64, mode: &crate::TrainMode) -> Result<Self> {
        let (n_trees, vocab, hidden, mut batch) = match scale {
            Scale::Test => (6, 64, 16, 3),
            Scale::Small => (48, 512, 60, 12),
            Scale::Paper => (160, 2048, 120, 24),
        };
        if let Some(cfg) = mode.minibatch() {
            batch = cfg.batch_size.clamp(1, n_trees);
        }
        let trees = sst_like(n_trees, vocab, seed)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7157);
        // Extra row = padding embedding for internal (wordless) nodes.
        let embed = Param::new(
            "tlstm.embed",
            gnnmark_nn::init::small_normal(&[vocab + 1, hidden], 20.0, &mut rng),
        );
        let cell = TreeLstmCell::new("tlstm.cell", hidden, hidden, &mut rng)?;
        let head = Linear::new("tlstm.head", hidden, 5, &mut rng)?;
        Ok(TreeLstm {
            trees,
            embed,
            cell,
            head,
            opt: Adam::new(2e-3),
            rng,
            vocab,
            hidden,
            batch_size: batch,
        })
    }

    /// Vocabulary size (excluding the padding row).
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// The model's one forward, from a tree batch to per-node sentiment
    /// logits, evaluated level by level: training, `probe`, `quality` and
    /// `infer` all run this. `frontier_sort` adds the two sort kernels per
    /// level with which DGL's frontier construction orders a training
    /// batch's node and child-id arrays before batching the cell kernels.
    fn logits(&self, tape: &Tape, batch: &TreeBatch, frontier_sort: bool) -> Result<Var> {
        let total = batch.total_nodes();
        let hdim = self.hidden;
        let table = tape.read(&self.embed);

        // Node embedding input: word id, or the padding row for internal
        // nodes (id -1 → vocab).
        let word_ids: Vec<i64> = batch
            .words()
            .as_slice()
            .iter()
            .map(|&w| if w < 0 { self.vocab as i64 } else { w })
            .collect();
        let word_ids = IntTensor::from_vec(&[total], word_ids)?;
        let x_all = table.embedding_lookup(&word_ids)?; // [total, h]

        // Running state tables with a zero row at index `total` so padded
        // child slots (-1) gather zeros.
        let mut h_all = tape.constant(Tensor::zeros(&[total + 1, hdim]));
        let mut c_all = tape.constant(Tensor::zeros(&[total + 1, hdim]));

        for level in batch.levels() {
            let n_level = level.nodes.numel();
            if frontier_sort {
                let (_, _) = level.nodes.sort_with_indices()?;
                let (_, _) = level.child_ids.sort_with_indices()?;
            }
            let x = x_all.gather_rows(&level.nodes)?;
            // Gather per-child states (pad → zero row).
            let mut child_h = Vec::with_capacity(level.max_children);
            let mut child_c = Vec::with_capacity(level.max_children);
            for k in 0..level.max_children {
                let ids: Vec<i64> = (0..n_level)
                    .map(|i| {
                        let v = level.child_ids.as_slice()[i * level.max_children + k];
                        if v < 0 {
                            total as i64
                        } else {
                            v
                        }
                    })
                    .collect();
                let ids = IntTensor::from_vec(&[n_level], ids)?;
                child_h.push(h_all.gather_rows(&ids)?);
                child_c.push(c_all.gather_rows(&ids)?);
            }
            let (h, c) = self.cell.step(tape, &x, &child_h, &child_c)?;
            // Scatter level results back into the state tables.
            h_all = h_all.add(&h.scatter_add_rows(&level.nodes, total + 1)?)?;
            c_all = c_all.add(&c.scatter_add_rows(&level.nodes, total + 1)?)?;
        }

        // Classify every node's sentiment (SST trains on all subtrees).
        self.head.forward(tape, &h_all.slice_rows(0, total)?)
    }

    /// Cross-entropy of [`TreeLstm::logits`] against every node's label.
    fn loss(&self, tape: &Tape, batch: &TreeBatch, frontier_sort: bool) -> Result<Var> {
        losses::cross_entropy(&self.logits(tape, batch, frontier_sort)?, batch.labels())
    }

    /// The first `count` trees in dataset order, batched — no shuffle.
    fn first_trees(&self, count: usize) -> Result<TreeBatch> {
        TreeBatch::from_trees(&self.trees[..count.min(self.trees.len())])
    }

    /// The fixed probe batch: as many first trees as
    /// [`Workload::infer_items`] counts.
    fn probe_trees(&self, batch: crate::InferBatch) -> Result<TreeBatch> {
        self.first_trees(self.infer_items(batch) as usize)
    }

    fn train_batch(&mut self, session: &mut ProfileSession, batch: &TreeBatch) -> Result<f64> {
        let _step = gnnmark_telemetry::span!("step");
        session.upload_int(batch.words());
        session.upload_int(batch.labels());

        self.params().zero_grad();
        session.begin_step();
        let tape = Tape::new();
        let loss = {
            let _fwd = gnnmark_telemetry::span!("forward");
            self.loss(&tape, batch, true)?
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
        Ok(loss.value().item()? as f64)
    }
}

impl Workload for TreeLstm {
    fn name(&self) -> String {
        "TLSTM".to_string()
    }

    fn info(&self) -> WorkloadInfo {
        crate::table_one()
            .into_iter()
            .find(|r| r.abbrev == "TLSTM")
            .expect("TLSTM row present")
    }

    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.register(self.embed.clone());
        set.extend(&self.cell.params());
        set.extend(&self.head.params());
        set
    }

    fn steps_per_epoch(&self) -> u64 {
        self.trees.len().div_ceil(self.batch_size) as u64
    }

    fn scaling_behavior(&self) -> Option<ScalingBehavior> {
        // CPU-side tree batching dominates; GPUs add little (paper: flat).
        Some(ScalingBehavior::HostBound {
            host_fraction: 0.70,
        })
    }

    fn quality(&mut self) -> Result<Option<(&'static str, f64)>> {
        // Node-level sentiment accuracy over the first few trees.
        let batch = self.first_trees(8)?;
        let logits = self.logits(&Tape::new(), &batch, false)?;
        let acc = losses::accuracy(&logits.value(), batch.labels())?;
        Ok(Some(("node sentiment accuracy", acc)))
    }

    fn probe(&mut self) -> Result<f64> {
        let batch = self.probe_trees(crate::InferBatch::Full)?;
        let tape = Tape::new();
        let loss = self.loss(&tape, &batch, false)?;
        tape.backward(&loss)?;
        Ok(loss.value().item()? as f64)
    }

    fn infer(&mut self, batch: crate::InferBatch) -> Result<f64> {
        // `probe`'s batch for `Full`, the first tree alone for `Single`.
        let batch = self.probe_trees(batch)?;
        let _no_grad = NoGradGuard::new();
        Ok(self.loss(&Tape::new(), &batch, false)?.value().item()? as f64)
    }

    fn infer_items(&self, batch: crate::InferBatch) -> u64 {
        match batch {
            crate::InferBatch::Single => 1,
            crate::InferBatch::Full => self.batch_size.min(self.trees.len()) as u64,
        }
    }

    fn run_epoch(&mut self, session: &mut ProfileSession) -> Result<f64> {
        let mut order: Vec<usize> = (0..self.trees.len()).collect();
        order.shuffle(&mut self.rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(self.batch_size) {
            let picked: Vec<Tree> = chunk.iter().map(|&i| self.trees[i].clone()).collect();
            let batch = TreeBatch::from_trees(&picked)?;
            epoch_loss += self.train_batch(session, &batch)?;
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
    fn tlstm_trains_and_is_gather_scatter_heavy() {
        let mut w = TreeLstm::new(Scale::Test, 17).unwrap();
        let mut session = ProfileSession::new("tlstm", DeviceSpec::v100());
        let first = w.run_epoch(&mut session).unwrap();
        let mut last = first;
        for _ in 0..6 {
            last = w.run_epoch(&mut session).unwrap();
        }
        assert!(last < first, "loss {first} → {last}");
        let p = session.finish();
        let irregular =
            p.time_share(FigureCategory::Gather) + p.time_share(FigureCategory::Scatter);
        assert!(irregular > 0.05, "gather+scatter share {irregular}");
    }

    #[test]
    fn tlstm_is_host_bound_for_scaling() {
        let w = TreeLstm::new(Scale::Test, 17).unwrap();
        assert!(matches!(
            w.scaling_behavior(),
            Some(ScalingBehavior::HostBound { .. })
        ));
        assert_eq!(w.name(), "TLSTM");
        assert_eq!(w.vocab(), 64);
        assert_eq!(w.steps_per_epoch(), 2);
    }
}

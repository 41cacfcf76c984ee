//! PSAGE: the PinSAGE recommendation workload (Ying et al., KDD 2018).
//!
//! Trains item embeddings on the item–item projection of a bipartite
//! user–item interaction graph with random-walk importance sampling and a
//! max-margin triplet loss, as in the DGL reference implementation the
//! paper profiles. Each step follows DGL's minibatch pipeline: random
//! walks sampled on the host, walk traces and node ids sorted/compacted on
//! the device, features of the *sampled* nodes gathered and normalized,
//! then aggregation, projection and the triplet loss.
//!
//! The two datasets (MovieLens-like and Nowplaying-like) differ mainly in
//! item feature width — 10× wider for NWP — which flips the workload's
//! operation mix from sort-heavy (MVL) toward element-wise kernels (NWP),
//! the paper's headline data-dependence observation.

use std::collections::HashMap;

use gnnmark_autograd::{Adam, NoGradGuard, Optimizer, ParamSet, Tape, Var};
use gnnmark_gpusim::ScalingBehavior;
use gnnmark_graph::datasets::{movielens_like, nowplaying_like};
use gnnmark_graph::sampler::{ImportanceNeighborhood, RandomWalkSampler};
use gnnmark_graph::{FanoutSampler, Graph};
use gnnmark_nn::{Module, PinSageConv};
use gnnmark_profiler::ProfileSession;
use gnnmark_tensor::IntTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Result, Scale, Workload, WorkloadInfo};

/// Which recommendation dataset PSAGE trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsageDataset {
    /// MovieLens-like (60-wide item features).
    MovieLens,
    /// Nowplaying-like (600-wide item features).
    Nowplaying,
}

impl PsageDataset {
    /// Short label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            PsageDataset::MovieLens => "MVL",
            PsageDataset::Nowplaying => "NWP",
        }
    }
}

/// One sampled triplet minibatch, with the global ids of every node it
/// touches plus the raw walk traces the device-side sampler sorts.
struct Minibatch {
    touched: IntTensor,
    walk_trace: IntTensor,
    seeds: Vec<ImportanceNeighborhood>,
    positives: Vec<ImportanceNeighborhood>,
    negatives: Vec<ImportanceNeighborhood>,
}

/// Reserved batch id for the deterministic probe batch; never produced by
/// the epoch counter, so probe sampling can't collide with a training
/// batch's RNG stream.
const PROBE_BATCH_ID: u64 = u64::MAX;

/// The PSAGE workload.
pub struct Psage {
    dataset: PsageDataset,
    /// Item–item co-interaction graph carrying the item features.
    item_item: Graph,
    conv: PinSageConv,
    sampler: RandomWalkSampler,
    /// In minibatch mode, the layer-wise fanout engine replaces the
    /// random-walk importance sampler for neighborhood construction.
    fanout: Option<FanoutSampler>,
    batch_counter: u64,
    opt: Adam,
    rng: StdRng,
    batch_size: usize,
    batches_per_epoch: usize,
    margin: f32,
}

impl Psage {
    /// Builds PSAGE on one of its two datasets.
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn new(dataset: PsageDataset, scale: Scale, seed: u64) -> Result<Self> {
        Self::new_with_mode(dataset, scale, seed, &crate::TrainMode::FullGraph)
    }

    /// Builds PSAGE in an explicit [`crate::TrainMode`]. In minibatch mode
    /// the configured batch size replaces the scale default and item
    /// neighborhoods come from the layer-wise [`FanoutSampler`] (first
    /// fanout level) instead of random-walk importance sampling.
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn new_with_mode(
        dataset: PsageDataset,
        scale: Scale,
        seed: u64,
        mode: &crate::TrainMode,
    ) -> Result<Self> {
        let (data_scale, mut batch_size, batches) = match scale {
            Scale::Test => (0.01, 8, 2),
            Scale::Small => (0.20, 64, 6),
            Scale::Paper => (0.50, 128, 10),
        };
        let mut fanout = None;
        if let Some(cfg) = mode.minibatch() {
            batch_size = cfg.batch_size.max(1);
            let hop = cfg.fanouts.first().copied().unwrap_or(10);
            fanout = Some(FanoutSampler::new(&[hop], seed ^ 0x9a5e)?);
        }
        let item_item = match dataset {
            PsageDataset::MovieLens => movielens_like(data_scale, seed)?,
            PsageDataset::Nowplaying => nowplaying_like(data_scale, seed)?,
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x95a6e);
        let feat_dim = item_item.feature_dim();
        let conv = PinSageConv::new("psage.conv", feat_dim, 60, &mut rng)?;
        Ok(Psage {
            dataset,
            item_item,
            conv,
            sampler: RandomWalkSampler::new(16, 3, 6),
            fanout,
            batch_counter: 0,
            opt: Adam::new(1e-3),
            rng,
            batch_size,
            batches_per_epoch: batches,
            margin: 0.4,
        })
    }

    /// Converts one fanout-sampled block row per seed into an importance
    /// neighborhood: self-loops are dropped, neighbors ordered by
    /// descending sampled weight (ties by id), and weights renormalized to
    /// sum to one. Seeds with no surviving neighbors fall back to
    /// themselves with weight one, matching the walk sampler's behavior on
    /// isolated nodes.
    fn fanout_neighborhoods(
        sampler: &FanoutSampler,
        adj: &gnnmark_tensor::CsrMatrix,
        ids: &IntTensor,
        batch_id: u64,
    ) -> Result<Vec<ImportanceNeighborhood>> {
        let batch = sampler.sample(adj, ids.as_slice(), batch_id)?;
        let block = &batch.blocks[0];
        let mut out = Vec::with_capacity(ids.numel());
        for (row, &seed) in ids.as_slice().iter().enumerate() {
            let (cols, vals) = block.adj.row(row);
            let mut pairs: Vec<(i64, f32)> = cols
                .iter()
                .zip(vals)
                .map(|(&c, &v)| (block.src_nodes[c], v))
                .filter(|&(g, _)| g != seed)
                .collect();
            pairs.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            let total: f32 = pairs.iter().map(|p| p.1).sum();
            let (neighbors, weights) = if pairs.is_empty() || total <= 0.0 {
                (vec![seed], vec![1.0])
            } else {
                (
                    pairs.iter().map(|p| p.0).collect(),
                    pairs.iter().map(|p| p.1 / total).collect(),
                )
            };
            out.push(ImportanceNeighborhood {
                seed,
                neighbors,
                weights,
            });
        }
        Ok(out)
    }

    fn num_items(&self) -> usize {
        self.item_item.num_nodes()
    }

    /// Samples one minibatch on the host (walks, positives, negatives) and
    /// compacts it, mirroring DGL's `PinSAGESampler`.
    fn sample_minibatch(&mut self, deterministic: Option<u64>) -> Result<Minibatch> {
        let n_items = self.num_items();
        let b = self.batch_size.min(n_items);
        let mut local_rng;
        let rng: &mut StdRng = match deterministic {
            Some(seed) => {
                local_rng = StdRng::seed_from_u64(seed);
                &mut local_rng
            }
            None => &mut self.rng,
        };
        let seed_ids: Vec<i64> = match deterministic {
            Some(_) => (0..b).map(|i| (i * 3 % n_items) as i64).collect(),
            None => (0..b).map(|_| rng.gen_range(0..n_items as i64)).collect(),
        };
        let seed_ids = IntTensor::from_vec(&[b], seed_ids)?;
        let batch_id = match deterministic {
            Some(_) => PROBE_BATCH_ID,
            None => {
                let id = self.batch_counter;
                self.batch_counter += 1;
                id
            }
        };
        let adj = self.item_item.adjacency();
        let seeds = match &self.fanout {
            Some(fs) => Self::fanout_neighborhoods(fs, adj, &seed_ids, batch_id)?,
            None => self.sampler.sample(&self.item_item, &seed_ids, rng),
        };
        let pos_ids: Vec<i64> = seeds.iter().map(|h| h.neighbors[0]).collect();
        let neg_ids: Vec<i64> = match deterministic {
            Some(_) => (0..b).map(|i| ((i * 7 + 5) % n_items) as i64).collect(),
            None => (0..b).map(|_| rng.gen_range(0..n_items as i64)).collect(),
        };
        let pos_ids = IntTensor::from_vec(&[b], pos_ids)?;
        let neg_ids = IntTensor::from_vec(&[b], neg_ids)?;
        let (positives, negatives) = match &self.fanout {
            Some(fs) => (
                Self::fanout_neighborhoods(fs, adj, &pos_ids, batch_id)?,
                Self::fanout_neighborhoods(fs, adj, &neg_ids, batch_id)?,
            ),
            None => (
                self.sampler.sample(&self.item_item, &pos_ids, rng),
                self.sampler.sample(&self.item_item, &neg_ids, rng),
            ),
        };

        // Walk traces: the raw visit stream the device-side sampler sorts
        // to build importance neighborhoods (DGL sorts these per batch).
        let mut trace = Vec::new();
        for h in seeds.iter().chain(&positives).chain(&negatives) {
            trace.push(h.seed);
            for (rank, &nb) in h.neighbors.iter().enumerate() {
                // Visit counts across the whole walk set (walks × length).
                let visits = (h.weights[rank]
                    * (self.sampler.num_walks * self.sampler.walk_length) as f32)
                    .ceil() as usize;
                for _ in 0..visits.max(1) {
                    trace.push(nb);
                }
            }
        }
        let trace_len = trace.len();
        let walk_trace = IntTensor::from_vec(&[trace_len], trace)?;

        let mut touched: Vec<i64> = Vec::new();
        touched.extend_from_slice(seed_ids.as_slice());
        touched.extend_from_slice(pos_ids.as_slice());
        touched.extend_from_slice(neg_ids.as_slice());
        for h in seeds.iter().chain(&positives).chain(&negatives) {
            touched.extend_from_slice(&h.neighbors);
        }
        touched.sort_unstable();
        touched.dedup();
        let m = touched.len();
        Ok(Minibatch {
            touched: IntTensor::from_vec(&[m], touched)?,
            walk_trace,
            seeds,
            positives,
            negatives,
        })
    }

    /// Remaps a neighborhood list into the batch-local id space.
    fn localize(
        hoods: &[ImportanceNeighborhood],
        remap: &HashMap<i64, i64>,
    ) -> Vec<ImportanceNeighborhood> {
        hoods
            .iter()
            .map(|h| ImportanceNeighborhood {
                seed: remap[&h.seed],
                neighbors: h.neighbors.iter().map(|n| remap[n]).collect(),
                weights: h.weights.clone(),
            })
            .collect()
    }

    /// The model's one forward: device-side computation of one minibatch,
    /// returning the margin loss. Training (`train`: with feature dropout),
    /// `probe`, `eval_loss` and `infer` all run this.
    fn batch_forward(&mut self, batch: &Minibatch, tape: &Tape, train: bool) -> Result<Var> {
        let m = batch.touched.numel();
        let remap: HashMap<i64, i64> = batch
            .touched
            .as_slice()
            .iter()
            .enumerate()
            .map(|(local, &global)| (global, local as i64))
            .collect();
        let seeds_l = Self::localize(&batch.seeds, &remap);
        let pos_l = Self::localize(&batch.positives, &remap);
        let neg_l = Self::localize(&batch.negatives, &remap);

        // Device-side sampler compaction, as DGL's PinSAGESampler does:
        // sort the visit stream by node id, re-sort the compacted counts
        // by frequency, and sort the batch's unique node ids.
        let (sorted_trace, _) = batch.walk_trace.sort_with_indices()?;
        let (_, _) = sorted_trace.sort_with_indices()?;
        let (_, _) = batch.touched.sort_with_indices()?;

        // Gather the sampled nodes' features and normalize them — the
        // element-wise stage whose cost scales with feature width.
        let all_feats = tape.constant(self.item_item.features().clone());
        let feats = all_feats.gather_rows(&batch.touched)?;
        let feats = if train {
            feats.dropout(0.1, &mut self.rng)?
        } else {
            feats
        };
        let norm = feats.square().sum_rows()?.add_scalar(1e-12).sqrt().recip();
        let feats = feats.scale_rows(&norm)?;

        let (a_s, a_s_t, i_s) = PinSageConv::build_batch(&seeds_l, m)?;
        let (a_p, a_p_t, i_p) = PinSageConv::build_batch(&pos_l, m)?;
        let (a_n, a_n_t, i_n) = PinSageConv::build_batch(&neg_l, m)?;
        let emb_s = self.conv.forward(tape, &feats, &a_s, &a_s_t, &i_s)?;
        let emb_p = self.conv.forward(tape, &feats, &a_p, &a_p_t, &i_p)?;
        let emb_n = self.conv.forward(tape, &feats, &a_n, &a_n_t, &i_n)?;

        let pos_score = emb_s.mul(&emb_p)?.sum_rows()?;
        let neg_score = emb_s.mul(&emb_n)?.sum_rows()?;
        let hinge = neg_score.sub(&pos_score)?.add_scalar(self.margin).relu();
        Ok(hinge.mean_all())
    }

    /// Margin loss on a fixed, deterministic probe batch — a noise-free
    /// progress measure for tests and convergence tracking.
    ///
    /// # Errors
    /// Propagates tensor-engine errors.
    pub fn eval_loss(&mut self) -> Result<f64> {
        let batch = self.sample_minibatch(Some(0xea71))?;
        let tape = Tape::new();
        let loss = self.batch_forward(&batch, &tape, false)?;
        Ok(loss.value().item()? as f64)
    }
}

impl Workload for Psage {
    fn name(&self) -> String {
        format!("PSAGE-{}", self.dataset.label())
    }

    fn info(&self) -> WorkloadInfo {
        crate::table_one()
            .into_iter()
            .find(|r| r.abbrev == "PSAGE")
            .expect("PSAGE row present")
    }

    fn params(&self) -> ParamSet {
        self.conv.params()
    }

    fn steps_per_epoch(&self) -> u64 {
        self.batches_per_epoch as u64
    }

    fn scaling_behavior(&self) -> Option<ScalingBehavior> {
        // DGL's PinSAGE batch sampler is incompatible with DDP: training
        // data replicates across devices, so multi-GPU runs *degrade*.
        Some(ScalingBehavior::ReplicatedSampling { redundancy: 0.18 })
    }

    fn quality(&mut self) -> Result<Option<(&'static str, f64)>> {
        Ok(Some(("probe margin loss", self.eval_loss()?)))
    }

    fn probe(&mut self) -> Result<f64> {
        let batch = self.sample_minibatch(Some(0xea71))?;
        let tape = Tape::new();
        let loss = self.batch_forward(&batch, &tape, false)?;
        tape.backward(&loss)?;
        Ok(loss.value().item()? as f64)
    }

    fn infer(&mut self, batch: crate::InferBatch) -> Result<f64> {
        // Same deterministic probe sampling (reserved batch id, local RNG
        // stream — no state advances); `Single` shrinks the seed set to one
        // item for the batch-1 latency case.
        let saved = self.batch_size;
        if batch == crate::InferBatch::Single {
            self.batch_size = 1;
        }
        let sampled = self.sample_minibatch(Some(0xea71));
        self.batch_size = saved;
        let _no_grad = NoGradGuard::new();
        let loss = self.batch_forward(&sampled?, &Tape::new(), false)?;
        Ok(loss.value().item()? as f64)
    }

    fn infer_items(&self, batch: crate::InferBatch) -> u64 {
        match batch {
            crate::InferBatch::Single => 1,
            crate::InferBatch::Full => self.batch_size.min(self.num_items()) as u64,
        }
    }

    fn run_epoch(&mut self, session: &mut ProfileSession) -> Result<f64> {
        let features = self.item_item.features().clone();
        let mut epoch_loss = 0.0f64;
        for _ in 0..self.batches_per_epoch {
            let _step = gnnmark_telemetry::span!("step");
            let batch = self.sample_minibatch(None)?;
            // The minibatch's features ship to the device (the paper's
            // sparsity instrumentation hooks exactly this copy).
            let batch_feats = features.gather_rows(&batch.touched)?;
            session.upload(&batch_feats);
            session.upload_int(&batch.touched);
            session.upload_int(&batch.walk_trace);

            self.params().zero_grad();
            session.begin_step();
            let tape = Tape::new();
            let loss = {
                let _fwd = gnnmark_telemetry::span!("forward");
                self.batch_forward(&batch, &tape, true)?
            };
            {
                let _bwd = gnnmark_telemetry::span!("backward");
                tape.backward(&loss)?;
            }
            {
                let _opt = gnnmark_telemetry::span!("optimizer");
                self.opt.step(&self.conv.params())?;
            }
            session.end_step();
            epoch_loss += loss.value().item()? as f64;
        }
        Ok(epoch_loss / self.batches_per_epoch as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_gpusim::DeviceSpec;

    #[test]
    fn psage_mvl_trains() {
        let mut w = Psage::new(PsageDataset::MovieLens, Scale::Test, 1).unwrap();
        let mut session = ProfileSession::new("psage", DeviceSpec::v100());
        let before = w.eval_loss().unwrap();
        for _ in 0..8 {
            let _ = w.run_epoch(&mut session).unwrap();
        }
        let after = w.eval_loss().unwrap();
        assert!(after < before, "probe loss {before} → {after}");
        let p = session.finish();
        // Sorting kernels present (walk bookkeeping).
        assert!(p
            .per_class
            .contains_key(&gnnmark_profiler::FigureCategory::Sort));
        assert!(p.mean_sparsity > 0.0);
    }

    #[test]
    fn psage_minibatch_mode_trains_with_fanout_sampling() {
        let mode = crate::TrainMode::Minibatch(crate::MinibatchConfig {
            batch_size: 6,
            fanouts: vec![4, 3],
        });
        let mut w = Psage::new_with_mode(PsageDataset::MovieLens, Scale::Test, 1, &mode).unwrap();
        assert!(w.fanout.is_some());
        assert_eq!(w.batch_size, 6);
        // Probe is deterministic under the reserved batch id.
        let a = w.eval_loss().unwrap();
        let b = w.eval_loss().unwrap();
        assert_eq!(a, b);
        let mut session = ProfileSession::new("psage", DeviceSpec::v100());
        let loss = w.run_epoch(&mut session).unwrap();
        assert!(loss.is_finite());
        let after = w.eval_loss().unwrap();
        assert!(after.is_finite());
    }

    #[test]
    fn nwp_features_are_10x_wider_than_mvl() {
        let mvl = Psage::new(PsageDataset::MovieLens, Scale::Test, 1).unwrap();
        let nwp = Psage::new(PsageDataset::Nowplaying, Scale::Test, 3).unwrap();
        assert_eq!(
            nwp.item_item.feature_dim(),
            10 * mvl.item_item.feature_dim()
        );
        assert!(matches!(
            mvl.scaling_behavior(),
            Some(ScalingBehavior::ReplicatedSampling { .. })
        ));
        assert_eq!(mvl.name(), "PSAGE-MVL");
        assert_eq!(nwp.name(), "PSAGE-NWP");
    }

    #[test]
    fn nwp_spends_relatively_more_time_elementwise_than_mvl() {
        use gnnmark_profiler::FigureCategory;
        // Needs realistic tensor sizes — tiny Test tensors are launch-bound
        // and hide the width effect.
        let run = |ds| {
            let mut w = Psage::new(ds, Scale::Small, 3).unwrap();
            let mut s = ProfileSession::new("psage", DeviceSpec::v100());
            let _ = w.run_epoch(&mut s).unwrap();
            s.finish()
        };
        let mvl = run(PsageDataset::MovieLens);
        let nwp = run(PsageDataset::Nowplaying);
        assert!(
            nwp.time_share(FigureCategory::ElementWise)
                > mvl.time_share(FigureCategory::ElementWise),
            "NWP {} vs MVL {}",
            nwp.time_share(FigureCategory::ElementWise),
            mvl.time_share(FigureCategory::ElementWise)
        );
    }
}

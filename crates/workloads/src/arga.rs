//! ARGA: Adversarially Regularized Graph Autoencoder (Pan et al., 2018).
//!
//! Encoder: two GCN layers with a PReLU in between (the PReLU is one of
//! the activation functions the paper credits for ARGA's high transfer
//! sparsity). Decoder: inner-product reconstruction of the adjacency.
//! A small MLP discriminator adversarially regularizes the embedding
//! toward a Gaussian prior. Training alternates discriminator and
//! encoder/generator steps with two optimizers, exactly like a GAN.
//!
//! ARGA sends the *entire graph* to the GPU every epoch, which is why the
//! paper excludes it from multi-GPU scaling (Figure 9).

use std::collections::HashMap;

use gnnmark_autograd::{Adam, NoGradGuard, Optimizer, Param, ParamSet, Tape, Var};
use gnnmark_gpusim::ScalingBehavior;
use gnnmark_graph::datasets::{citation, CitationKind};
use gnnmark_graph::sampler::MinibatchSampler;
use gnnmark_graph::{FanoutSampler, Graph, SampledBatch};
use gnnmark_nn::gcn::NormAdj;
use gnnmark_nn::linear::Activation;
use gnnmark_nn::{losses, GcnConv, Mlp, Module};
use gnnmark_profiler::ProfileSession;
use gnnmark_tensor::{IntTensor, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Result, Scale, TrainMode, Workload, WorkloadInfo};

/// Reserved batch id for [`Workload::probe`] in minibatch mode, far above
/// any counter a real run reaches.
const PROBE_BATCH_ID: u64 = u64::MAX;

/// The ARGA workload.
pub struct Arga {
    kind: CitationKind,
    graph: Graph,
    adj: NormAdj,
    /// Dense reconstruction target — only materialized in full-graph mode
    /// (minibatch mode builds per-batch `[b × b]` sub-targets instead,
    /// which is what frees ARGA from the O(n²) decoder footprint).
    adj_dense: Option<Tensor>,
    enc1: GcnConv,
    enc2: GcnConv,
    prelu_alpha: Param,
    discriminator: Mlp,
    gen_opt: Adam,
    disc_opt: Adam,
    rng: StdRng,
    embed: usize,
    mode: TrainMode,
    /// Fanout engine + seed batcher, minibatch mode only.
    sampler: Option<(FanoutSampler, MinibatchSampler)>,
    batch_counter: u64,
}

impl Arga {
    /// Builds ARGA on a citation-style graph (full-graph mode).
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn new(kind: CitationKind, scale: Scale, seed: u64) -> Result<Self> {
        Self::new_with_mode(kind, scale, seed, &TrainMode::FullGraph)
    }

    /// Builds ARGA in an explicit [`TrainMode`]. In minibatch mode the
    /// encoder runs over fanout-sampled blocks (`fanouts[0]` feeds the
    /// first GCN layer) and the inner-product decoder reconstructs only
    /// the seed-by-seed sub-adjacency.
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn new_with_mode(
        kind: CitationKind,
        scale: Scale,
        seed: u64,
        mode: &TrainMode,
    ) -> Result<Self> {
        let (graph_scale, hidden, embed) = match scale {
            Scale::Test => (0.05, 16, 8),
            Scale::Small => (0.25, 32, 16),
            Scale::Paper => (1.0, 32, 16),
        };
        let graph = citation(kind, graph_scale, seed)?;
        let adj = NormAdj::new_symmetric(graph.normalized_adjacency()?);
        let n = graph.num_nodes();
        // Binary dense adjacency (with self-loops) as reconstruction target.
        let adj_dense = if mode.minibatch().is_none() {
            let mut t = Tensor::zeros(&[n, n]);
            {
                let d = t.as_mut_slice();
                for r in 0..n {
                    d[r * n + r] = 1.0;
                    for &c in graph.neighbors(r) {
                        d[r * n + c] = 1.0;
                    }
                }
            }
            Some(t)
        } else {
            None
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa27a);
        let enc1 = GcnConv::new("arga.enc1", graph.feature_dim(), hidden, &mut rng)?;
        let enc2 = GcnConv::new("arga.enc2", hidden, embed, &mut rng)?;
        let prelu_alpha = Param::new("arga.prelu", Tensor::from_vec(&[1], vec![0.25])?);
        let discriminator = Mlp::new(
            "arga.disc",
            &[embed, 2 * embed, 1],
            Activation::Relu,
            &mut rng,
        )?;
        let sampler = match mode.minibatch() {
            None => None,
            Some(cfg) => {
                // Two encoder layers → exactly two fanout levels; a short
                // list repeats its last entry, a long one is truncated.
                let mut fanouts = if cfg.fanouts.is_empty() {
                    crate::MinibatchConfig::default().fanouts
                } else {
                    cfg.fanouts.clone()
                };
                let last = *fanouts.last().expect("non-empty by construction");
                fanouts.resize(2, last);
                let batch = cfg.batch_size.min(n).max(1);
                Some((
                    FanoutSampler::new(&fanouts, seed ^ 0x5a3b)?,
                    MinibatchSampler::new(n, batch, &mut rng)?,
                ))
            }
        };
        Ok(Arga {
            kind,
            graph,
            adj,
            adj_dense,
            enc1,
            enc2,
            prelu_alpha,
            discriminator,
            gen_opt: Adam::new(5e-3),
            disc_opt: Adam::new(5e-3),
            rng,
            embed,
            mode: mode.clone(),
            sampler,
            batch_counter: 0,
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    fn encoder_params(&self) -> ParamSet {
        let mut set = self.enc1.params();
        set.extend(&self.enc2.params());
        set.register(self.prelu_alpha.clone());
        set
    }

    fn encode(&self, tape: &Tape, x: &Var) -> Result<Var> {
        let h = self.enc1.forward(tape, &self.adj, x)?;
        let alpha = tape.read(&self.prelu_alpha);
        let h = h.prelu(&alpha)?;
        self.enc2.forward(tape, &self.adj, &h)
    }

    /// Encoder over sampled blocks: the same two GCN layers + PReLU, but
    /// aggregating through the batch's `[dst × src]` slices.
    fn encode_blocks(&self, tape: &Tape, batch: &SampledBatch, x: &Var) -> Result<Var> {
        let h = self.enc1.forward_block(tape, &batch.blocks[0], x)?;
        let alpha = tape.read(&self.prelu_alpha);
        let h = h.prelu(&alpha)?;
        self.enc2.forward_block(tape, &batch.blocks[1], &h)
    }

    /// Dense `[b × b]` reconstruction target over the seed set: self-loops
    /// plus the edges both of whose endpoints are seeds. With seeds
    /// `0..n` in order this equals the full-graph target exactly.
    fn dense_sub_target(&self, seeds: &[i64]) -> Tensor {
        let b = seeds.len();
        let pos: HashMap<usize, usize> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (s as usize, i))
            .collect();
        let mut t = Tensor::zeros(&[b, b]);
        let d = t.as_mut_slice();
        for (i, &s) in seeds.iter().enumerate() {
            d[i * b + i] = 1.0;
            for &c in self.graph.neighbors(s as usize) {
                if let Some(&j) = pos.get(&c) {
                    d[i * b + j] = 1.0;
                }
            }
        }
        t
    }

    /// One epoch of sampled mini-batches: per batch, a discriminator step
    /// and a generator step over the seed sub-problem. Returns the mean
    /// generator loss.
    fn run_epoch_minibatch(&mut self, session: &mut ProfileSession) -> Result<f64> {
        let (fanout, epoch) = {
            let (fanout, mb) = self.sampler.as_mut().expect("minibatch mode");
            let fanout = fanout.clone();
            let epoch = mb.epoch(&mut self.rng);
            (fanout, epoch)
        };
        let n = self.graph.num_nodes();
        let mut gen_losses = Vec::with_capacity(epoch.num_batches());
        for ids in epoch {
            let seeds: Vec<i64> = ids.as_slice().to_vec();
            let b = seeds.len();
            let batch = {
                let _sample = gnnmark_telemetry::span!("sample");
                let batch =
                    fanout.sample(self.adj.matrix().as_ref(), &seeds, self.batch_counter)?;
                self.batch_counter += 1;
                batch
            };
            gnnmark_telemetry::metrics::counter_add("gnnmark_sampling_edges_total", batch.edges);
            gnnmark_telemetry::metrics::counter_add("gnnmark_sampling_batches_total", 1);
            // Only the touched slice ships to the device: gathered input
            // features plus the per-layer block structures.
            let feats = self.graph.features().gather_rows(&batch.input_index()?)?;
            session.upload(&feats);
            for blk in &batch.blocks {
                session.upload_csr(&blk.adj);
            }

            // ---- discriminator step ----
            let step_d = gnnmark_telemetry::span!("step");
            self.params().zero_grad();
            session.begin_step();
            let tape = Tape::new();
            let d_loss = {
                let _fwd = gnnmark_telemetry::span!("forward");
                let x = tape.constant(feats.clone());
                let z = self.encode_blocks(&tape, &batch, &x)?;
                self.discriminator_loss(&tape, &z)?
            };
            {
                let _bwd = gnnmark_telemetry::span!("backward");
                tape.backward(&d_loss)?;
            }
            {
                let _opt = gnnmark_telemetry::span!("optimizer");
                self.disc_opt.step(&self.discriminator.params())?;
            }
            session.end_step();
            drop(step_d);

            // ---- generator / reconstruction step ----
            let _step_g = gnnmark_telemetry::span!("step");
            self.params().zero_grad();
            session.begin_step();
            let tape = Tape::new();
            let target = self.dense_sub_target(&seeds);
            let g_loss = {
                let _fwd = gnnmark_telemetry::span!("forward");
                let x = tape.constant(feats.clone());
                let z = self.encode_blocks(&tape, &batch, &x)?;
                self.generator_loss(&tape, &z, &target)?
            };
            {
                let _bwd = gnnmark_telemetry::span!("backward");
                tape.backward(&g_loss)?;
            }
            {
                let _opt = gnnmark_telemetry::span!("optimizer");
                self.gen_opt.step(&self.encoder_params())?;
            }
            // Negative-edge bookkeeping, batch-sized (sort kernels).
            let neg: Vec<i64> = (0..b.min(512))
                .map(|_| self.rng.gen_range(0..n as i64))
                .collect();
            let neg_len = neg.len();
            let _ = IntTensor::from_vec(&[neg_len], neg)?.argsort()?;
            session.end_step();
            gen_losses.push(g_loss.value().item()? as f64);
        }
        Ok(gen_losses.iter().sum::<f64>() / gen_losses.len().max(1) as f64)
    }

    /// The discriminator's objective on one batch of embeddings: tell a
    /// fresh Gaussian prior sample (real) from the detached `z` (fake).
    fn discriminator_loss(&mut self, tape: &Tape, z: &Var) -> Result<Var> {
        let b = z.dims()[0];
        let z_fake = z.detach();
        let z_real = tape.constant(Tensor::randn(&[b, self.embed], 1.0, &mut self.rng));
        let d_fake = self.discriminator.forward(tape, &z_fake)?;
        let d_real = self.discriminator.forward(tape, &z_real)?;
        let ones = Tensor::ones(&[b, 1]);
        let zeros_t = Tensor::zeros(&[b, 1]);
        losses::bce_with_logits(&d_real, &ones)?.add(&losses::bce_with_logits(&d_fake, &zeros_t)?)
    }

    /// The generator's objective on one batch of embeddings `z`: the
    /// inner-product decoder's reconstruction of the dense `target`, plus
    /// the adversarial term (fool the discriminator).
    fn generator_loss(&self, tape: &Tape, z: &Var, target: &Tensor) -> Result<Var> {
        let logits = z.matmul_nt(z)?;
        let recon = losses::bce_with_logits(&logits, target)?;
        let d_on_fake = self.discriminator.forward(tape, z)?;
        let ones = Tensor::ones(&[z.dims()[0], 1]);
        let adv = losses::bce_with_logits(&d_on_fake, &ones)?;
        recon.add(&adv.mul_scalar(0.1))
    }

    /// Nodes scored by the deterministic probe batch (its seed count in
    /// minibatch mode).
    fn probe_batch_size(&self, batch: crate::InferBatch) -> usize {
        let n = self.graph.num_nodes();
        match (batch, self.mode.minibatch()) {
            (crate::InferBatch::Single, _) => 1,
            (crate::InferBatch::Full, Some(cfg)) => cfg.batch_size.min(n).max(1),
            (crate::InferBatch::Full, None) => n,
        }
    }

    /// The generator pass `probe` differentiates and `infer` scores — the
    /// RNG-free part of the GAN loop (the discriminator step draws a fresh
    /// Gaussian prior sample every call), and it exercises every
    /// parameter: encoder + PReLU through the reconstruction,
    /// discriminator through the adversarial term.
    fn probe_loss(&self, tape: &Tape, batch: crate::InferBatch) -> Result<Var> {
        let Some((fanout, _)) = &self.sampler else {
            // Full-graph mode: the forward is inherently whole-graph, so
            // `Single` scores the same graph-sized batch as `Full`.
            let x = tape.constant(self.graph.features().clone());
            let z = self.encode(tape, &x)?;
            let target = self
                .adj_dense
                .as_ref()
                .expect("full-graph mode has dense target");
            return self.generator_loss(tape, &z, target);
        };
        // Deterministic probe batch: the first nodes in id order with a
        // reserved batch id — fanout sampling is a pure function of (seed,
        // batch id, level, node), so no RNG state advances. When
        // batch_size ≥ n this covers the whole graph, which is what the
        // parity layer exploits.
        let seeds: Vec<i64> = (0..self.probe_batch_size(batch) as i64).collect();
        let sampled = fanout.sample(self.adj.matrix().as_ref(), &seeds, PROBE_BATCH_ID)?;
        let target = self.dense_sub_target(&seeds);
        let feats = self.graph.features().gather_rows(&sampled.input_index()?)?;
        let z = self.encode_blocks(tape, &sampled, &tape.constant(feats))?;
        self.generator_loss(tape, &z, &target)
    }
}

impl Workload for Arga {
    fn name(&self) -> String {
        format!("ARGA-{}", self.kind.name())
    }

    fn info(&self) -> WorkloadInfo {
        crate::table_one()
            .into_iter()
            .find(|r| r.abbrev == "ARGA")
            .expect("ARGA row present")
    }

    fn params(&self) -> ParamSet {
        let mut set = self.encoder_params();
        set.extend(&self.discriminator.params());
        set
    }

    fn steps_per_epoch(&self) -> u64 {
        // Discriminator step + generator step, per batch (full-graph mode
        // is one batch covering everything).
        match &self.sampler {
            None => 2,
            Some((_, mb)) => 2 * mb.num_batches() as u64,
        }
    }

    fn scaling_behavior(&self) -> Option<ScalingBehavior> {
        None // full-graph training; excluded from Figure 9, as in the paper
    }

    fn quality(&mut self) -> Result<Option<(&'static str, f64)>> {
        // Mean reconstruction score on edges minus on random non-edges —
        // positive once the embedding has learned the structure.
        let n = self.graph.num_nodes();
        let tape = Tape::new();
        let x = tape.constant(self.graph.features().clone());
        let z = self.encode(&tape, &x)?.value();
        let d = z.dim(1);
        let dot = |a: usize, b: usize| -> f64 {
            let (ra, rb) = (
                &z.as_slice()[a * d..(a + 1) * d],
                &z.as_slice()[b * d..(b + 1) * d],
            );
            ra.iter().zip(rb).map(|(x, y)| (x * y) as f64).sum()
        };
        let mut pos = 0.0;
        let mut pos_n = 0usize;
        for a in 0..n {
            for &b in self.graph.neighbors(a) {
                if a < b && pos_n < 512 {
                    pos += dot(a, b);
                    pos_n += 1;
                }
            }
        }
        let mut neg = 0.0;
        for i in 0..pos_n {
            neg += dot((i * 37) % n, (i * 101 + 13) % n);
        }
        if pos_n == 0 {
            return Ok(None);
        }
        Ok(Some(("edge-score margin", (pos - neg) / pos_n as f64)))
    }

    fn probe(&mut self) -> Result<f64> {
        let tape = Tape::new();
        let g_loss = self.probe_loss(&tape, crate::InferBatch::Full)?;
        tape.backward(&g_loss)?;
        Ok(g_loss.value().item()? as f64)
    }

    fn infer(&mut self, batch: crate::InferBatch) -> Result<f64> {
        let _no_grad = NoGradGuard::new();
        Ok(self.probe_loss(&Tape::new(), batch)?.value().item()? as f64)
    }

    fn infer_items(&self, batch: crate::InferBatch) -> u64 {
        self.probe_batch_size(batch) as u64
    }

    fn run_epoch(&mut self, session: &mut ProfileSession) -> Result<f64> {
        if self.sampler.is_some() {
            return self.run_epoch_minibatch(session);
        }
        let n = self.graph.num_nodes();
        // The entire graph ships to the device every epoch.
        session.upload(self.graph.features());
        session.upload_csr(self.adj.matrix());

        // ---- discriminator step ----
        let step_d = gnnmark_telemetry::span!("step");
        self.params().zero_grad();
        session.begin_step();
        let tape = Tape::new();
        let d_loss = {
            let _fwd = gnnmark_telemetry::span!("forward");
            let x = tape.constant(self.graph.features().clone());
            let z = self.encode(&tape, &x)?;
            self.discriminator_loss(&tape, &z)?
        };
        {
            let _bwd = gnnmark_telemetry::span!("backward");
            tape.backward(&d_loss)?;
        }
        {
            let _opt = gnnmark_telemetry::span!("optimizer");
            self.disc_opt.step(&self.discriminator.params())?;
        }
        session.end_step();
        drop(step_d);

        // ---- generator / reconstruction step ----
        let _step_g = gnnmark_telemetry::span!("step");
        self.params().zero_grad();
        session.begin_step();
        let tape = Tape::new();
        let g_loss = {
            let _fwd = gnnmark_telemetry::span!("forward");
            let x = tape.constant(self.graph.features().clone());
            let z = self.encode(&tape, &x)?;
            let target = self
                .adj_dense
                .as_ref()
                .expect("full-graph epoch requires dense target");
            self.generator_loss(&tape, &z, target)?
        };
        {
            let _bwd = gnnmark_telemetry::span!("backward");
            tape.backward(&g_loss)?;
        }
        {
            let _opt = gnnmark_telemetry::span!("optimizer");
            self.gen_opt.step(&self.encoder_params())?;
        }

        // Negative-edge bookkeeping: sample node pairs and sort their ids
        // (DGL/PyG edge bookkeeping launches sort kernels here).
        let neg: Vec<i64> = (0..n.min(512))
            .map(|_| self.rng.gen_range(0..n as i64))
            .collect();
        let neg_len = neg.len();
        let _ = IntTensor::from_vec(&[neg_len], neg)?.argsort()?;
        session.end_step();

        Ok(g_loss.value().item()? as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_gpusim::DeviceSpec;

    #[test]
    fn arga_loss_decreases() {
        let mut w = Arga::new(CitationKind::Cora, Scale::Test, 3).unwrap();
        let mut session = ProfileSession::new("arga", DeviceSpec::v100());
        let mut losses = Vec::new();
        for _ in 0..6 {
            losses.push(w.run_epoch(&mut session).unwrap());
        }
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "losses {losses:?}"
        );
        let p = session.finish();
        assert!(p.kernels.len() > 50);
        // PReLU+BCE over a mostly-empty adjacency → sparse-ish transfers.
        assert!(p.mean_sparsity > 0.5, "sparsity {}", p.mean_sparsity);
    }

    #[test]
    fn arga_minibatch_trains_with_finite_losses() {
        let mode = crate::TrainMode::Minibatch(crate::MinibatchConfig {
            batch_size: 16,
            fanouts: vec![4, 3],
        });
        let mut w = Arga::new_with_mode(CitationKind::Cora, Scale::Test, 3, &mode).unwrap();
        assert!(w.steps_per_epoch() > 2, "several batches per epoch");
        let mut session = ProfileSession::new("arga-mb", DeviceSpec::v100());
        let mut losses = Vec::new();
        for _ in 0..4 {
            losses.push(w.run_epoch(&mut session).unwrap());
        }
        assert!(losses.iter().all(|l| l.is_finite()), "losses {losses:?}");
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "losses {losses:?}"
        );
        let p = session.finish();
        assert!(p.kernels.len() > 50);
    }

    #[test]
    fn arga_full_coverage_minibatch_probe_matches_fullgraph() {
        let mut full = Arga::new(CitationKind::Cora, Scale::Test, 3).unwrap();
        let n = full.graph().num_nodes();
        let cover = crate::TrainMode::Minibatch(crate::MinibatchConfig {
            batch_size: n,
            fanouts: vec![0, 0],
        });
        let mut mb = Arga::new_with_mode(CitationKind::Cora, Scale::Test, 3, &cover).unwrap();
        let lf = full.probe().unwrap();
        let lm = mb.probe().unwrap();
        assert_eq!(
            lf, lm,
            "full-coverage unlimited-fanout probe is bit-identical"
        );
    }

    #[test]
    fn arga_is_excluded_from_scaling() {
        let w = Arga::new(CitationKind::Cora, Scale::Test, 3).unwrap();
        assert!(w.scaling_behavior().is_none());
        assert_eq!(w.steps_per_epoch(), 2);
        assert!(w.name().contains("Cora"));
        assert!(w.params().total_scalars() > 0);
    }
}

//! GW: GraphWriter, knowledge-graph-to-text generation
//! (Koncel-Kedziorski et al., NAACL 2019).
//!
//! A graph-transformer encoder (multi-head attention masked to the
//! knowledge graph) encodes entity nodes per document; a batched,
//! attention-equipped LSTM decoder generates the target abstracts with
//! teacher forcing across a padded document batch — like the reference
//! implementation, which batches sequences so the per-step projections
//! are real GEMMs. The heavy vocabulary projections make GW the only
//! workload in the suite whose instruction mix is fp32-dominated, and it
//! posts the suite's highest GFLOPS (~2 TFLOPS in the paper).

use gnnmark_autograd::{Adam, NoGradGuard, Optimizer, Param, ParamSet, Tape, Var};
use gnnmark_gpusim::ScalingBehavior;
use gnnmark_graph::datasets::{agenda_like, KnowledgeDoc};
use gnnmark_nn::{GraphAttention, Linear, LstmCell, Module};
use gnnmark_profiler::ProfileSession;
use gnnmark_tensor::{IntTensor, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{Result, Scale, Workload, WorkloadInfo};

/// The GraphWriter workload.
pub struct GraphWriter {
    docs: Vec<KnowledgeDoc>,
    token_embed: Param,
    entity_proj: Linear,
    encoder: Vec<GraphAttention>,
    decoder: LstmCell,
    attn_proj: Linear,
    vocab_proj: Linear,
    opt: Adam,
    rng: StdRng,
    dim: usize,
    vocab: usize,
    batch_size: usize,
    batches_per_epoch: usize,
}

impl GraphWriter {
    /// Builds GraphWriter on AGENDA-like documents.
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn new(scale: Scale, seed: u64) -> Result<Self> {
        Self::new_with_mode(scale, seed, &crate::TrainMode::FullGraph)
    }

    /// Builds GraphWriter in an explicit [`crate::TrainMode`]. Minibatch
    /// mode overrides the document batch size; fanouts don't apply to
    /// knowledge-graph documents and are ignored.
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn new_with_mode(scale: Scale, seed: u64, mode: &crate::TrainMode) -> Result<Self> {
        let (n_docs, dim, heads, vocab, layers, mut batch, batches) = match scale {
            Scale::Test => (4, 16, 2, 64, 1, 2, 2),
            Scale::Small => (24, 128, 4, 512, 2, 8, 3),
            Scale::Paper => (64, 256, 4, 2000, 2, 32, 2),
        };
        if let Some(cfg) = mode.minibatch() {
            batch = cfg.batch_size.clamp(1, n_docs);
        }
        let docs = agenda_like(n_docs, vocab, seed)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9a11);
        let token_embed = Param::new(
            "gw.embed",
            gnnmark_nn::init::small_normal(&[vocab + 1, dim], 10.0, &mut rng),
        );
        let entity_proj = Linear::new("gw.entity", 16, dim, &mut rng)?;
        let encoder = (0..layers)
            .map(|i| GraphAttention::new(&format!("gw.enc{i}"), dim, heads, &mut rng))
            .collect::<Result<Vec<_>>>()?;
        let decoder = LstmCell::new("gw.dec", 2 * dim, dim, &mut rng)?;
        let attn_proj = Linear::new("gw.attn", dim, dim, &mut rng)?;
        let vocab_proj = Linear::new("gw.vocab", 2 * dim, vocab, &mut rng)?;
        Ok(GraphWriter {
            docs,
            token_embed,
            entity_proj,
            encoder,
            decoder,
            attn_proj,
            vocab_proj,
            opt: Adam::new(1e-3),
            rng,
            dim,
            vocab,
            batch_size: batch,
            batches_per_epoch: batches,
        })
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Encodes one document's knowledge graph into node states.
    fn encode_doc(&self, tape: &Tape, doc: &KnowledgeDoc) -> Result<Var> {
        let feats = tape.constant(doc.graph.features().clone());
        let table = tape.read(&self.token_embed);
        let ent_tok = table.embedding_lookup(&doc.entity_ids)?;
        let mut h = self.entity_proj.forward(tape, &feats)?.add(&ent_tok)?;
        let mask = GraphAttention::edge_mask(&doc.graph);
        for layer in &self.encoder {
            h = layer.forward(tape, &h, &mask)?;
        }
        Ok(h)
    }

    /// The model's one forward: encode + batched teacher-forced decode of
    /// one padded document batch, returning the mean token loss. Training,
    /// `probe` and `infer` all run this. Deterministic for fixed parameters
    /// — no RNG, no session, no optimizer.
    fn batch_loss(&self, tape: &Tape, docs: &[KnowledgeDoc]) -> Result<Var> {
        let b = docs.len();
        let d = self.dim;
        let max_n = docs.iter().map(|x| x.graph.num_nodes()).max().unwrap_or(1);
        let max_t = docs.iter().map(|x| x.target.numel()).max().unwrap_or(1);
        let table = tape.read(&self.token_embed);

        // ---- encode every document, padded to [b, max_n, d] ----
        let mut padded = Vec::with_capacity(b);
        for doc in docs {
            let enc = self.encode_doc(tape, doc)?;
            let n = doc.graph.num_nodes();
            if n < max_n {
                let pad = tape.constant(Tensor::zeros(&[max_n - n, d]));
                padded.push(Var::concat_rows(&[enc, pad])?);
            } else {
                padded.push(enc);
            }
        }
        let enc_stack = Var::concat_rows(&padded)?.reshape(&[b, max_n, d])?;
        // Additive padding mask for cross-attention: 0 on real nodes.
        let attn_mask = Tensor::from_fn(&[b, max_n], |flat| {
            let (bi, ni) = (flat / max_n, flat % max_n);
            if ni < docs[bi].graph.num_nodes() {
                0.0
            } else {
                -1e9
            }
        });
        let attn_mask = tape.constant(attn_mask);

        // ---- batched teacher-forced decoding ----
        let mut dec_h = tape.constant(Tensor::zeros(&[b, d]));
        let mut dec_c = tape.constant(Tensor::zeros(&[b, d]));
        let bos = self.vocab as i64; // padding/BOS row of the table
        let mut prev: Vec<i64> = vec![bos; b];
        let mut total_loss: Option<Var> = None;
        let mut valid_tokens = 0u64;
        for t in 0..max_t {
            let ids = IntTensor::from_vec(&[b], prev.clone())?;
            let tok = table.embedding_lookup(&ids)?; // [b, d]

            // Cross-attention over padded node encodings.
            let q = self.attn_proj.forward(tape, &dec_h)?.reshape(&[b, 1, d])?;
            let scores = q.bmm_nt(&enc_stack)?.reshape(&[b, max_n])?;
            let attn = scores.add(&attn_mask)?.softmax_rows()?;
            let ctx = attn
                .reshape(&[b, 1, max_n])?
                .bmm(&enc_stack)?
                .reshape(&[b, d])?;

            let x = Var::concat_cols(&[tok, ctx.clone()])?;
            let (h2, c2) = self.decoder.step(tape, &x, &dec_h, &dec_c)?;
            dec_h = h2;
            dec_c = c2;

            let out = Var::concat_cols(&[dec_h.clone(), ctx])?;
            let logits = self.vocab_proj.forward(tape, &out)?; // [b, vocab]
            let logp = logits.log_softmax_rows()?;

            // Masked NLL: padded documents contribute zero.
            let mut targets = Vec::with_capacity(b);
            let mut mask = Vec::with_capacity(b);
            for (bi, doc) in docs.iter().enumerate() {
                if t < doc.target.numel() {
                    targets.push(doc.target.as_slice()[t]);
                    mask.push(1.0f32);
                    valid_tokens += 1;
                    prev[bi] = doc.target.as_slice()[t];
                } else {
                    targets.push(0);
                    mask.push(0.0);
                    prev[bi] = bos;
                }
            }
            let targets = IntTensor::from_vec(&[b], targets)?;
            let mask = tape.constant(Tensor::from_vec(&[b], mask)?);
            let picked = logp.select_per_row(&targets)?.mul(&mask)?;
            let step_loss = picked.sum_all().neg();
            total_loss = Some(match total_loss {
                None => step_loss,
                Some(prev_loss) => prev_loss.add(&step_loss)?,
            });
        }
        Ok(total_loss
            .expect("at least one decode step")
            .mul_scalar(1.0 / valid_tokens.max(1) as f32))
    }

    /// The fixed probe batch: the first documents in dataset order — no
    /// shuffle — as many as [`Workload::infer_items`] counts.
    fn probe_docs(&self, batch: crate::InferBatch) -> &[KnowledgeDoc] {
        &self.docs[..self.infer_items(batch) as usize]
    }

    /// Trains one padded batch of documents; returns the mean token loss.
    fn train_batch(&mut self, session: &mut ProfileSession, docs: &[KnowledgeDoc]) -> Result<f64> {
        let _step = gnnmark_telemetry::span!("step");
        for doc in docs {
            session.upload(doc.graph.features());
            session.upload_int(&doc.target);
            session.upload_int(&doc.entity_ids);
        }
        self.params().zero_grad();
        session.begin_step();
        let tape = Tape::new();
        let loss = {
            let _fwd = gnnmark_telemetry::span!("forward");
            self.batch_loss(&tape, docs)?
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

impl Workload for GraphWriter {
    fn name(&self) -> String {
        "GW".to_string()
    }

    fn info(&self) -> WorkloadInfo {
        crate::table_one()
            .into_iter()
            .find(|r| r.abbrev == "GW")
            .expect("GW row present")
    }

    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.register(self.token_embed.clone());
        set.extend(&self.entity_proj.params());
        for l in &self.encoder {
            set.extend(&l.params());
        }
        set.extend(&self.decoder.params());
        set.extend(&self.attn_proj.params());
        set.extend(&self.vocab_proj.params());
        set
    }

    fn steps_per_epoch(&self) -> u64 {
        self.batches_per_epoch as u64
    }

    fn scaling_behavior(&self) -> Option<ScalingBehavior> {
        Some(ScalingBehavior::DataParallel)
    }

    fn probe(&mut self) -> Result<f64> {
        let tape = Tape::new();
        let loss = self.batch_loss(&tape, self.probe_docs(crate::InferBatch::Full))?;
        tape.backward(&loss)?;
        Ok(loss.value().item()? as f64)
    }

    fn infer(&mut self, batch: crate::InferBatch) -> Result<f64> {
        // `probe`'s batch for `Full`, the first document alone for `Single`.
        let _no_grad = NoGradGuard::new();
        let loss = self.batch_loss(&Tape::new(), self.probe_docs(batch))?;
        Ok(loss.value().item()? as f64)
    }

    fn infer_items(&self, batch: crate::InferBatch) -> u64 {
        match batch {
            crate::InferBatch::Single => 1,
            crate::InferBatch::Full => self.batch_size.min(self.docs.len()) as u64,
        }
    }

    fn run_epoch(&mut self, session: &mut ProfileSession) -> Result<f64> {
        let mut order: Vec<usize> = (0..self.docs.len()).collect();
        order.shuffle(&mut self.rng);
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(self.batch_size).take(self.batches_per_epoch) {
            let docs: Vec<KnowledgeDoc> = chunk.iter().map(|&i| self.docs[i].clone()).collect();
            total += self.train_batch(session, &docs)?;
            batches += 1;
        }
        Ok(total / batches.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_gpusim::DeviceSpec;

    #[test]
    fn gw_trains() {
        let mut w = GraphWriter::new(Scale::Test, 11).unwrap();
        let mut session = ProfileSession::new("gw", DeviceSpec::v100());
        let first = w.run_epoch(&mut session).unwrap();
        let mut last = first;
        for _ in 0..4 {
            last = w.run_epoch(&mut session).unwrap();
        }
        assert!(last < first, "loss {first} → {last}");
    }

    #[test]
    fn gw_is_fp_dominant_at_realistic_width() {
        // At Test width (dim 16) launch overheads swamp the math; the
        // paper's fp32 > int32 observation needs realistic widths.
        let mut w = GraphWriter::new(Scale::Small, 11).unwrap();
        let mut session = ProfileSession::new("gw", DeviceSpec::v100());
        let _ = w.run_epoch(&mut session).unwrap();
        let p = session.finish();
        assert!(
            p.instr.fp_share() > p.instr.int_share(),
            "fp {} vs int {}",
            p.instr.fp_share(),
            p.instr.int_share()
        );
    }

    #[test]
    fn gw_metadata() {
        let w = GraphWriter::new(Scale::Test, 11).unwrap();
        assert_eq!(w.name(), "GW");
        assert_eq!(w.vocab(), 64);
        assert!(w.params().total_scalars() > 1000);
        assert!(matches!(
            w.scaling_behavior(),
            Some(ScalingBehavior::DataParallel)
        ));
    }
}

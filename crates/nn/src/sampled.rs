//! Forward passes over sampled bipartite blocks (mini-batch mode).
//!
//! A [`gnnmark_graph::SampledBlock`] is a `[num_dst × num_src]` CSR slice
//! of the normalized adjacency; aggregation over it is the same SpMM
//! primitive full-graph GCN layers use, just rectangular. With
//! full-coverage seeds and unlimited fanout the block *is* the full
//! normalized adjacency, so this path reproduces full-graph forward
//! passes bit-for-bit — the property `gnnmark-check`'s parity layer
//! verifies.

use gnnmark_autograd::{ParamSet, Tape, Var};
use gnnmark_graph::SampledBlock;
use rand::Rng;

use crate::gcn::GcnConv;
use crate::{Module, Result};

/// Aggregates source features through a sampled block: `adjᵦ · x`,
/// `[num_src, d] → [num_dst, d]`.
///
/// # Errors
/// Propagates shape errors from the tensor engine.
pub fn block_aggregate(block: &SampledBlock, x: &Var) -> Result<Var> {
    Var::spmm(&block.adj, &block.adj_t, x)
}

impl GcnConv {
    /// Applies the convolution over one sampled block: aggregate the
    /// source rows into the destination rows, then transform.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn forward_block(&self, tape: &Tape, block: &SampledBlock, x: &Var) -> Result<Var> {
        let agg = block_aggregate(block, x)?;
        self.linear().forward(tape, &agg)
    }
}

/// A stack of GCN layers driven by sampled blocks — the mini-batch
/// counterpart of a full-graph multi-layer GCN, with ReLU between layers
/// and raw logits out of the last.
#[derive(Debug, Clone)]
pub struct SampledGcn {
    convs: Vec<GcnConv>,
}

impl SampledGcn {
    /// Creates a stack with the given layer widths
    /// (`dims = [in, hidden…, out]`, at least two entries).
    ///
    /// # Errors
    /// Returns an error for fewer than two dims or zero-sized dimensions.
    pub fn new<R: Rng + ?Sized>(name: &str, dims: &[usize], rng: &mut R) -> Result<Self> {
        if dims.len() < 2 {
            return Err(gnnmark_tensor::TensorError::InvalidArgument {
                op: "SampledGcn::new",
                reason: format!("need ≥2 layer widths, got {}", dims.len()),
            });
        }
        let mut convs = Vec::with_capacity(dims.len() - 1);
        for (i, w) in dims.windows(2).enumerate() {
            convs.push(GcnConv::new(&format!("{name}.l{i}"), w[0], w[1], rng)?);
        }
        Ok(SampledGcn { convs })
    }

    /// Number of GCN layers (= blocks expected per batch).
    pub fn num_layers(&self) -> usize {
        self.convs.len()
    }

    /// The layer stack, in application order — lets parity checks run
    /// the same convolutions over a full-graph adjacency.
    pub fn convs(&self) -> &[GcnConv] {
        &self.convs
    }

    /// Runs the stack over one batch's blocks. `x` holds the gathered
    /// input features (`[blocks[0].num_src(), in_dim]`); the result is
    /// `[num_seeds, out_dim]`.
    ///
    /// # Errors
    /// Returns an error if the block count differs from the layer count,
    /// or on shape errors.
    pub fn forward(&self, tape: &Tape, blocks: &[SampledBlock], x: &Var) -> Result<Var> {
        if blocks.len() != self.convs.len() {
            return Err(gnnmark_tensor::TensorError::InvalidArgument {
                op: "SampledGcn::forward",
                reason: format!(
                    "{} blocks for {} layers (fanouts must list one entry per layer)",
                    blocks.len(),
                    self.convs.len()
                ),
            });
        }
        let mut h = x.clone();
        for (i, (conv, block)) in self.convs.iter().zip(blocks).enumerate() {
            h = conv.forward_block(tape, block, &h)?;
            if i + 1 < self.convs.len() {
                h = h.relu();
            }
        }
        Ok(h)
    }
}

impl Module for SampledGcn {
    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for c in &self.convs {
            set.extend(&c.params());
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_graph::{FanoutSampler, Graph};
    use gnnmark_tensor::Tensor;
    use rand::SeedableRng;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_undirected_edges(
            n,
            &edges,
            Tensor::from_fn(&[n, 4], |i| ((i * 13) % 7) as f32 / 7.0),
        )
        .unwrap()
    }

    #[test]
    fn sampled_forward_shapes_and_grads() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = ring(10);
        let model = SampledGcn::new("sg", &[4, 6, 3], &mut rng).unwrap();
        let sampler = FanoutSampler::new(&[2, 2], 1).unwrap();
        let batch = sampler
            .sample(&g.normalized_adjacency().unwrap(), &[1, 4, 8], 0)
            .unwrap();
        let tape = Tape::new();
        let x = tape.constant(
            g.features()
                .gather_rows(&batch.input_index().unwrap())
                .unwrap(),
        );
        let y = model.forward(&tape, &batch.blocks, &x).unwrap();
        assert_eq!(y.dims(), vec![3, 3]);
        let loss = y.square().sum_all();
        tape.backward(&loss).unwrap();
        for p in &model.params() {
            assert!(p.grad().is_some(), "missing grad for {}", p.name());
        }
        // Block count must match layer count.
        assert!(model.forward(&tape, &batch.blocks[..1], &x).is_err());
    }

    #[test]
    fn full_coverage_matches_full_graph_forward() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let g = ring(8);
        let norm_adj = g.normalized_adjacency().unwrap();
        let model = SampledGcn::new("sg", &[4, 5, 2], &mut rng).unwrap();
        let sampler = FanoutSampler::new(&[0, 0], 0).unwrap();
        let seeds: Vec<i64> = (0..8).collect();
        let batch = sampler.sample(&norm_adj, &seeds, 0).unwrap();
        let tape = Tape::new();
        let x = tape.constant(g.features().clone());
        let sampled = model.forward(&tape, &batch.blocks, &x).unwrap();
        // Full-graph reference through the same layers.
        let adj = crate::gcn::NormAdj::new_symmetric(norm_adj);
        let mut h = x;
        for (i, conv) in [0usize, 1].iter().zip(model.convs.iter()) {
            h = conv.forward(&tape, &adj, &h).unwrap();
            if *i == 0 {
                h = h.relu();
            }
        }
        assert_eq!(
            sampled.value().as_slice(),
            h.value().as_slice(),
            "full-coverage unlimited-fanout sampling is bit-identical"
        );
    }
}

//! Graph-masked multi-head self-attention (GraphWriter's encoder block).
//!
//! Attention scores are computed densely and masked to the graph structure
//! before the softmax, matching the graph-transformer encoder of
//! GraphWriter (Koncel-Kedziorski et al., NAACL 2019).

use gnnmark_autograd::{ParamSet, Tape, Var};
use gnnmark_graph::Graph;
use gnnmark_tensor::Tensor;
use rand::Rng;

use crate::linear::Linear;
use crate::norm::LayerNorm;
use crate::{Module, Result};

/// Multi-head self-attention restricted to graph edges, with a residual
/// connection and layer norm.
#[derive(Debug, Clone)]
pub struct GraphAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    norm: LayerNorm,
    heads: usize,
    dim: usize,
}

impl GraphAttention {
    /// Creates an attention block of width `dim` with `heads` heads
    /// (`dim` must be divisible by `heads`).
    ///
    /// # Errors
    /// Returns an error if `dim % heads != 0` or dims are zero.
    pub fn new<R: Rng + ?Sized>(name: &str, dim: usize, heads: usize, rng: &mut R) -> Result<Self> {
        if heads == 0 || !dim.is_multiple_of(heads) {
            return Err(gnnmark_tensor::TensorError::InvalidArgument {
                op: "GraphAttention::new",
                reason: format!("dim {dim} not divisible by heads {heads}"),
            });
        }
        Ok(GraphAttention {
            wq: Linear::without_bias(&format!("{name}.wq"), dim, dim, rng)?,
            wk: Linear::without_bias(&format!("{name}.wk"), dim, dim, rng)?,
            wv: Linear::without_bias(&format!("{name}.wv"), dim, dim, rng)?,
            wo: Linear::new(&format!("{name}.wo"), dim, dim, rng)?,
            norm: LayerNorm::new(&format!("{name}.ln"), dim),
            heads,
            dim,
        })
    }

    /// Builds the additive attention mask of a graph: 0 on edges and
    /// self-loops, −1e9 elsewhere.
    pub fn edge_mask(graph: &Graph) -> Tensor {
        let n = graph.num_nodes();
        let mut mask = Tensor::full(&[n, n], -1e9);
        {
            let m = mask.as_mut_slice();
            for i in 0..n {
                m[i * n + i] = 0.0;
                for &j in graph.neighbors(i) {
                    m[i * n + j] = 0.0;
                }
            }
        }
        mask
    }

    /// Applies the block to `[n, dim]` node states with a precomputed
    /// additive mask (see [`GraphAttention::edge_mask`]).
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn forward(&self, tape: &Tape, x: &Var, mask: &Tensor) -> Result<Var> {
        let dk = self.dim / self.heads;
        let scale = 1.0 / (dk as f32).sqrt();
        let q = self.wq.forward(tape, x)?;
        let k = self.wk.forward(tape, x)?;
        let v = self.wv.forward(tape, x)?;
        let mask_var = x.constant_like(mask.clone());
        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let (lo, hi) = (h * dk, (h + 1) * dk);
            let qh = q.slice_cols(lo, hi)?;
            let kh = k.slice_cols(lo, hi)?;
            let vh = v.slice_cols(lo, hi)?;
            let scores = qh.matmul_nt(&kh)?.mul_scalar(scale).add(&mask_var)?;
            let attn = scores.softmax_rows()?;
            head_outputs.push(attn.matmul(&vh)?);
        }
        let cat = Var::concat_cols(&head_outputs)?;
        let out = self.wo.forward(tape, &cat)?;
        // Residual + layer norm.
        self.norm.forward(tape, &out.add(x)?)
    }
}

impl Module for GraphAttention {
    fn params(&self) -> ParamSet {
        let mut set = self.wq.params();
        set.extend(&self.wk.params());
        set.extend(&self.wv.params());
        set.extend(&self.wo.params());
        set.extend(&self.norm.params());
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        Graph::from_undirected_edges(n, &edges, Tensor::ones(&[n, 1])).unwrap()
    }

    #[test]
    fn mask_matches_edges() {
        let g = path(4);
        let m = GraphAttention::edge_mask(&g);
        assert_eq!(m.get(&[0, 0]), 0.0);
        assert_eq!(m.get(&[0, 1]), 0.0);
        assert_eq!(m.get(&[0, 2]), -1e9);
        assert_eq!(m.get(&[3, 2]), 0.0);
    }

    #[test]
    fn forward_shapes_and_masking() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let g = path(5);
        let att = GraphAttention::new("a", 8, 2, &mut rng).unwrap();
        let tape = Tape::new();
        let x = tape.constant(Tensor::uniform(&[5, 8], -1.0, 1.0, &mut rng));
        let mask = GraphAttention::edge_mask(&g);
        let y = att.forward(&tape, &x, &mask).unwrap();
        assert_eq!(y.dims(), vec![5, 8]);
    }

    #[test]
    fn rejects_indivisible_heads() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        assert!(GraphAttention::new("a", 10, 3, &mut rng).is_err());
        assert!(GraphAttention::new("a", 8, 0, &mut rng).is_err());
    }

    #[test]
    fn gradients_reach_all_projections() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = path(4);
        let att = GraphAttention::new("a", 4, 2, &mut rng).unwrap();
        let tape = Tape::new();
        let x = tape.constant(Tensor::uniform(&[4, 4], -1.0, 1.0, &mut rng));
        let mask = GraphAttention::edge_mask(&g);
        let y = att.forward(&tape, &x, &mask).unwrap();
        tape.backward(&y.square().sum_all()).unwrap();
        for p in &att.params() {
            assert!(p.grad().is_some(), "no grad for {}", p.name());
        }
        assert!(att.num_parameters() > 0);
    }
}

//! The PinSAGE convolution: random-walk importance-weighted aggregation
//! (Ying et al., KDD 2018).
//!
//! Mirrors DGL's reference pipeline: raw item features are projected by
//! an *embedding-bag-style* feature projector — learned per-column scales
//! followed by a segment reduction into the hidden width — rather than a
//! dense GEMM. This is why PinSAGE's feature-width dependence shows up as
//! element-wise/reduction time (the paper's MVL→NWP observation), not as
//! GEMM time. Aggregation uses visit-count weights, then a fixed-width
//! projection and L2 normalization.

use std::rc::Rc;

use gnnmark_autograd::{Param, ParamSet, Tape, Var};
use gnnmark_graph::sampler::ImportanceNeighborhood;
use gnnmark_tensor::{CsrMatrix, IntTensor, Tensor};
use rand::Rng;

use crate::linear::Linear;
use crate::{Module, Result};

/// One PinSAGE layer.
#[derive(Debug, Clone)]
pub struct PinSageConv {
    col_scale: Param,
    project: Linear,
    in_dim: usize,
    hidden: usize,
}

impl PinSageConv {
    /// Creates a layer mapping `in_dim`-wide raw features to `out_dim`
    /// embeddings (with hidden width = `out_dim`).
    ///
    /// # Errors
    /// Returns an error unless `in_dim` is a positive multiple of
    /// `out_dim` (the segment projector folds `in_dim/out_dim` consecutive
    /// features per hidden unit).
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if out_dim == 0 || in_dim == 0 || !in_dim.is_multiple_of(out_dim) {
            return Err(gnnmark_tensor::TensorError::InvalidArgument {
                op: "PinSageConv::new",
                reason: format!("in_dim {in_dim} must be a positive multiple of out_dim {out_dim}"),
            });
        }
        Ok(PinSageConv {
            col_scale: Param::new(
                format!("{name}.col_scale"),
                Tensor::uniform(&[in_dim], 0.5, 1.5, rng),
            ),
            project: Linear::new(name, 2 * out_dim, out_dim, rng)?,
            in_dim,
            hidden: out_dim,
        })
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output embedding width.
    pub fn out_dim(&self) -> usize {
        self.hidden
    }

    /// Builds the `[batch, num_nodes]` importance-weight matrix and the
    /// seed index from sampled neighborhoods.
    ///
    /// # Errors
    /// Returns an error for out-of-range neighbor ids.
    pub fn build_batch(
        hoods: &[ImportanceNeighborhood],
        num_nodes: usize,
    ) -> Result<(Rc<CsrMatrix>, Rc<CsrMatrix>, IntTensor)> {
        let mut triplets = Vec::new();
        let mut seeds = Vec::with_capacity(hoods.len());
        for (row, h) in hoods.iter().enumerate() {
            seeds.push(h.seed);
            for (&n, &w) in h.neighbors.iter().zip(&h.weights) {
                triplets.push((row, n as usize, w));
            }
        }
        let agg = CsrMatrix::from_coo(hoods.len(), num_nodes, &triplets)?;
        let agg_t = agg.transpose();
        let n_seeds = seeds.len();
        Ok((
            Rc::new(agg),
            Rc::new(agg_t),
            IntTensor::from_vec(&[n_seeds], seeds)?,
        ))
    }

    /// The embedding-bag-style feature projector: per-column learned
    /// scales, then a segment sum of `in_dim/out_dim` consecutive columns
    /// per hidden unit. Cost is element-wise + reduction work proportional
    /// to the raw feature width.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn project_features(&self, tape: &Tape, feats: &Var) -> Result<Var> {
        let dims = feats.dims();
        let m = dims[0];
        debug_assert_eq!(dims[1], self.in_dim);
        let scale = tape.read(&self.col_scale);
        let scaled = feats.scale_cols(&scale)?;
        let chunk = self.in_dim / self.hidden;
        if chunk == 1 {
            return Ok(scaled);
        }
        let folded = scaled.reshape(&[m * self.hidden, chunk])?;
        folded.sum_rows()?.reshape(&[m, self.hidden])
    }

    /// Applies the layer.
    ///
    /// * `features` — `[num_nodes, in_dim]` raw feature variable for the
    ///   compacted batch node set.
    /// * `agg`/`agg_t` — importance-weight matrix from
    ///   [`PinSageConv::build_batch`] and its transpose.
    /// * `seeds` — seed indices (one per batch row) into the node set.
    ///
    /// Returns `[batch, out_dim]` L2-normalized embeddings.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn forward(
        &self,
        tape: &Tape,
        features: &Var,
        agg: &Rc<CsrMatrix>,
        agg_t: &Rc<CsrMatrix>,
        seeds: &IntTensor,
    ) -> Result<Var> {
        let h = self.project_features(tape, features)?;
        let neigh = Var::spmm(agg, agg_t, &h)?;
        let own = h.index_select(seeds)?;
        let cat = Var::concat_cols(&[own, neigh])?;
        let proj = self.project.forward(tape, &cat)?.relu();
        // L2-normalize rows (epsilon-stabilized).
        let norm = proj.square().sum_rows()?.add_scalar(1e-12).sqrt().recip();
        proj.scale_rows(&norm)
    }
}

impl Module for PinSageConv {
    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.register(self.col_scale.clone());
        set.extend(&self.project.params());
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn hoods() -> Vec<ImportanceNeighborhood> {
        vec![
            ImportanceNeighborhood {
                seed: 0,
                neighbors: vec![1, 2],
                weights: vec![0.75, 0.25],
            },
            ImportanceNeighborhood {
                seed: 3,
                neighbors: vec![0],
                weights: vec![1.0],
            },
        ]
    }

    #[test]
    fn batch_matrix_encodes_weights() {
        let (agg, _, seeds) = PinSageConv::build_batch(&hoods(), 4).unwrap();
        assert_eq!(agg.rows(), 2);
        assert_eq!(agg.cols(), 4);
        let d = agg.to_dense();
        assert!((d.get(&[0, 1]) - 0.75).abs() < 1e-6);
        assert!((d.get(&[1, 0]) - 1.0).abs() < 1e-6);
        assert_eq!(seeds.as_slice(), &[0, 3]);
    }

    #[test]
    fn projector_folds_feature_chunks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let conv = PinSageConv::new("ps", 8, 4, &mut rng).unwrap();
        assert_eq!(conv.in_dim(), 8);
        assert_eq!(conv.out_dim(), 4);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[3, 8]));
        let h = conv.project_features(&tape, &x).unwrap();
        assert_eq!(h.dims(), vec![3, 4]);
        // Each hidden unit sums 2 scaled columns.
        let scales = conv.col_scale.value().clone();
        let expect = scales.as_slice()[0] + scales.as_slice()[1];
        assert!((h.value().get(&[0, 0]) - expect).abs() < 1e-5);
    }

    #[test]
    fn rejects_indivisible_widths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(PinSageConv::new("ps", 10, 4, &mut rng).is_err());
        assert!(PinSageConv::new("ps", 0, 4, &mut rng).is_err());
    }

    #[test]
    fn forward_produces_unit_embeddings() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let conv = PinSageConv::new("ps", 16, 8, &mut rng).unwrap();
        let (agg, agg_t, seeds) = PinSageConv::build_batch(&hoods(), 4).unwrap();
        let tape = Tape::new();
        let feats = tape.constant(Tensor::uniform(&[4, 16], -1.0, 1.0, &mut rng));
        let emb = conv.forward(&tape, &feats, &agg, &agg_t, &seeds).unwrap();
        assert_eq!(emb.dims(), vec![2, 8]);
        let v = emb.value();
        for row in v.as_slice().chunks_exact(8) {
            let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            // ReLU can zero a row entirely; otherwise it is unit length.
            assert!(norm < 1.0 + 1e-4);
        }
    }

    #[test]
    fn gradients_reach_all_params() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let conv = PinSageConv::new("ps", 8, 4, &mut rng).unwrap();
        let (agg, agg_t, seeds) = PinSageConv::build_batch(&hoods(), 4).unwrap();
        let tape = Tape::new();
        let feats = tape.constant(Tensor::uniform(&[4, 8], 0.1, 1.0, &mut rng));
        let emb = conv.forward(&tape, &feats, &agg, &agg_t, &seeds).unwrap();
        tape.backward(&emb.sum_all()).unwrap();
        for p in &conv.params() {
            assert!(p.grad().is_some(), "no grad for {}", p.name());
        }
    }
}

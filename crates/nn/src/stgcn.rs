//! STGCN building blocks (Yu et al., IJCAI 2018): gated temporal
//! convolutions sandwiching a spatial graph convolution.
//!
//! Tensors flow as `[batch, channels, time, nodes]` (NCTV). The temporal
//! convolution is a true 2-D convolution over `(time, 1)` kernels — the
//! operation that dominates STGCN in the paper's Figure 2 (~60 % of
//! execution) — and channel permutes are explicit gather kernels, as they
//! are on a real GPU.

use std::rc::Rc;

use gnnmark_autograd::{Param, ParamSet, Tape, Var};
use gnnmark_tensor::ops::conv::Conv2dSpec;
use gnnmark_tensor::{CsrMatrix, IntTensor};
use rand::Rng;

use crate::linear::Linear;
use crate::{init, Module, Result};

/// Gated temporal convolution (GLU): a Conv2D producing `2·c_out`
/// channels, split into `P ⊙ σ(Q)`.
#[derive(Debug, Clone)]
pub struct TemporalConv {
    weight: Param,
    c_in: usize,
    c_out: usize,
    kt: usize,
}

impl TemporalConv {
    /// Creates a temporal convolution with kernel `(kt, 1)`.
    ///
    /// # Errors
    /// Returns an error for zero-sized dimensions.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        c_in: usize,
        c_out: usize,
        kt: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if c_in == 0 || c_out == 0 || kt == 0 {
            return Err(gnnmark_tensor::TensorError::InvalidArgument {
                op: "TemporalConv::new",
                reason: "dimensions must be positive".to_string(),
            });
        }
        let fan_in = c_in * kt;
        let fan_out = 2 * c_out * kt;
        Ok(TemporalConv {
            weight: Param::new(
                format!("{name}.weight"),
                init::glorot_shaped(&[2 * c_out, c_in, kt, 1], fan_in, fan_out, rng),
            ),
            c_in,
            c_out,
            kt,
        })
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Time steps consumed by the kernel (`kt − 1`).
    pub fn time_shrink(&self) -> usize {
        self.kt - 1
    }

    /// Applies the gated convolution to `[b, c_in, T, n]`, returning
    /// `[b, c_out, T − kt + 1, n]`.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Result<Var> {
        let dims = x.dims();
        let (b, c, t, n) = (dims[0], dims[1], dims[2], dims[3]);
        debug_assert_eq!(c, self.c_in);
        let w = tape.read(&self.weight);
        let y = x.conv2d(&w, Conv2dSpec::default())?; // [b, 2c_out, t', n]
        let t_out = t - self.kt + 1;
        let co = self.c_out;
        // GLU split along the channel axis via row selection.
        let y2 = y.reshape(&[b * 2 * co, t_out * n])?;
        let mut p_rows = Vec::with_capacity(b * co);
        let mut q_rows = Vec::with_capacity(b * co);
        for bi in 0..b {
            for ci in 0..co {
                p_rows.push((bi * 2 * co + ci) as i64);
                q_rows.push((bi * 2 * co + co + ci) as i64);
            }
        }
        let p_idx = IntTensor::from_vec(&[b * co], p_rows)?;
        let q_idx = IntTensor::from_vec(&[b * co], q_rows)?;
        let p = y2.index_select(&p_idx)?;
        let q = y2.index_select(&q_idx)?;
        let glu = p.mul(&q.sigmoid())?;
        glu.reshape(&[b, co, t_out, n])
    }
}

impl Module for TemporalConv {
    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.register(self.weight.clone());
        set
    }
}

/// Spatial graph convolution applied at every timestep simultaneously.
#[derive(Debug, Clone)]
pub struct SpatialGcn {
    linear: Linear,
    c_in: usize,
    c_out: usize,
}

impl SpatialGcn {
    /// Creates the spatial stage mapping `c_in` to `c_out` channels.
    ///
    /// # Errors
    /// Returns an error for zero-sized dimensions.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        c_in: usize,
        c_out: usize,
        rng: &mut R,
    ) -> Result<Self> {
        Ok(SpatialGcn {
            linear: Linear::new(name, c_in, c_out, rng)?,
            c_in,
            c_out,
        })
    }

    /// Applies `Â` over the node axis and a channel projection:
    /// `[b, c_in, T, n] → [b, c_out, T, n]`.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn forward(&self, tape: &Tape, adj: &Rc<CsrMatrix>, x: &Var) -> Result<Var> {
        let dims = x.dims();
        let (b, c, t, n) = (dims[0], dims[1], dims[2], dims[3]);
        debug_assert_eq!(c, self.c_in);
        // Aggregate over nodes for all (b, c, t) at once:
        // [b·c·T, n] → ᵀ → [n, b·c·T] → Â· → ᵀ → back.
        let flat = x.reshape(&[b * c * t, n])?;
        let agg = Var::spmm_sym(adj, &flat.transpose2d()?)?.transpose2d()?;
        // Channel mixing: permute to channel-last, matmul, permute back.
        // Permutes are explicit gathers (like NCHW→NHWC transpose kernels).
        let to_cl = permutation_bctn_to_btnc(b, c, t, n)?;
        let rows = agg.reshape(&[b * c * t * n, 1])?;
        let perm = rows.gather_rows(&to_cl)?.reshape(&[b * t * n, c])?;
        let mixed = self.linear.forward(tape, &perm)?; // [b·T·n, c_out]
        let back = permutation_btnc_to_bctn(b, self.c_out, t, n)?;
        let out = mixed
            .reshape(&[b * t * n * self.c_out, 1])?
            .gather_rows(&back)?;
        out.reshape(&[b, self.c_out, t, n])
    }
}

impl Module for SpatialGcn {
    fn params(&self) -> ParamSet {
        self.linear.params()
    }
}

/// Flat index permutation taking `[b, c, T, n]` order to `[b, T, n, c]`.
fn permutation_bctn_to_btnc(b: usize, c: usize, t: usize, n: usize) -> Result<IntTensor> {
    let mut idx = Vec::with_capacity(b * c * t * n);
    for bi in 0..b {
        for ti in 0..t {
            for ni in 0..n {
                for ci in 0..c {
                    idx.push((((bi * c + ci) * t + ti) * n + ni) as i64);
                }
            }
        }
    }
    let len = idx.len();
    IntTensor::from_vec(&[len], idx)
}

/// Flat index permutation taking `[b, T, n, c]` order to `[b, c, T, n]`.
fn permutation_btnc_to_bctn(b: usize, c: usize, t: usize, n: usize) -> Result<IntTensor> {
    let mut idx = Vec::with_capacity(b * c * t * n);
    for bi in 0..b {
        for ci in 0..c {
            for ti in 0..t {
                for ni in 0..n {
                    idx.push((((bi * t + ti) * n + ni) * c + ci) as i64);
                }
            }
        }
    }
    let len = idx.len();
    IntTensor::from_vec(&[len], idx)
}

/// The ST-Conv sandwich: temporal GLU → spatial GCN (ReLU) → temporal GLU.
#[derive(Debug, Clone)]
pub struct StConvBlock {
    t1: TemporalConv,
    spatial: SpatialGcn,
    t2: TemporalConv,
}

impl StConvBlock {
    /// Creates a block with channel plan `c_in → c_hidden → c_out` and
    /// temporal kernel `kt`.
    ///
    /// # Errors
    /// Returns an error for zero-sized dimensions.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        c_in: usize,
        c_hidden: usize,
        c_out: usize,
        kt: usize,
        rng: &mut R,
    ) -> Result<Self> {
        Ok(StConvBlock {
            t1: TemporalConv::new(&format!("{name}.t1"), c_in, c_hidden, kt, rng)?,
            spatial: SpatialGcn::new(&format!("{name}.sp"), c_hidden, c_hidden, rng)?,
            t2: TemporalConv::new(&format!("{name}.t2"), c_hidden, c_out, kt, rng)?,
        })
    }

    /// Time steps consumed by the block (`2·(kt − 1)`).
    pub fn time_shrink(&self) -> usize {
        self.t1.time_shrink() + self.t2.time_shrink()
    }

    /// Applies the block to `[b, c_in, T, n]`.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn forward(&self, tape: &Tape, adj: &Rc<CsrMatrix>, x: &Var) -> Result<Var> {
        let h = self.t1.forward(tape, x)?;
        let s = self.spatial.forward(tape, adj, &h)?.relu();
        self.t2.forward(tape, &s)
    }
}

impl Module for StConvBlock {
    fn params(&self) -> ParamSet {
        let mut set = self.t1.params();
        set.extend(&self.spatial.params());
        set.extend(&self.t2.params());
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_graph::Graph;
    use gnnmark_tensor::Tensor;
    use rand::SeedableRng;

    fn ring_norm(n: usize) -> Rc<CsrMatrix> {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Graph::from_undirected_edges(n, &edges, Tensor::ones(&[n, 1])).unwrap();
        Rc::new(g.normalized_adjacency().unwrap())
    }

    #[test]
    fn temporal_conv_shrinks_time() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let tc = TemporalConv::new("t", 2, 4, 3, &mut rng).unwrap();
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 2, 8, 5]));
        let y = tc.forward(&tape, &x).unwrap();
        assert_eq!(y.dims(), vec![2, 4, 6, 5]);
        assert_eq!(tc.time_shrink(), 2);
        assert_eq!(tc.c_out(), 4);
    }

    #[test]
    fn permutations_are_inverse() {
        let fwd = permutation_bctn_to_btnc(2, 3, 4, 5).unwrap();
        let bwd = permutation_btnc_to_bctn(2, 3, 4, 5).unwrap();
        // Applying fwd then bwd yields identity.
        let mut composed = vec![0i64; fwd.numel()];
        for (i, &f) in bwd.as_slice().iter().enumerate() {
            composed[i] = fwd.as_slice()[f as usize];
        }
        assert_eq!(composed, (0..fwd.numel() as i64).collect::<Vec<_>>());
    }

    #[test]
    fn spatial_gcn_preserves_layout() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let adj = ring_norm(5);
        let sp = SpatialGcn::new("s", 3, 6, &mut rng).unwrap();
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_fn(&[2, 3, 4, 5], |i| (i % 7) as f32));
        let y = sp.forward(&tape, &adj, &x).unwrap();
        assert_eq!(y.dims(), vec![2, 6, 4, 5]);
    }

    #[test]
    fn st_block_end_to_end_with_gradients() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let adj = ring_norm(5);
        let block = StConvBlock::new("b", 1, 4, 2, 3, &mut rng).unwrap();
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_fn(&[2, 1, 12, 5], |i| (i % 5) as f32 * 0.1));
        let y = block.forward(&tape, &adj, &x).unwrap();
        assert_eq!(y.dims(), vec![2, 2, 12 - block.time_shrink(), 5]);
        tape.backward(&y.square().sum_all()).unwrap();
        for p in &block.params() {
            assert!(p.grad().is_some(), "no grad for {}", p.name());
        }
    }
}

//! Graph convolutions: GCN, GraphSAGE and GENConv (DeepGCN block).

use std::rc::Rc;

use gnnmark_autograd::{ParamSet, Tape, Var};
use gnnmark_tensor::CsrMatrix;
use rand::Rng;

use crate::linear::{Activation, Linear, Mlp};
use crate::{Module, Result};

/// A pre-normalized adjacency pair (forward and transpose) shared by GCN
/// layers; built once per graph, reused every step — as DGL/PyG do.
#[derive(Debug, Clone)]
pub struct NormAdj {
    fwd: Rc<CsrMatrix>,
    bwd: Rc<CsrMatrix>,
}

impl NormAdj {
    /// Wraps a normalized adjacency, precomputing its transpose.
    pub fn new(adj: CsrMatrix) -> Self {
        let bwd = Rc::new(adj.transpose());
        NormAdj {
            fwd: Rc::new(adj),
            bwd,
        }
    }

    /// Wraps a *symmetric* normalized adjacency (no transpose needed).
    pub fn new_symmetric(adj: CsrMatrix) -> Self {
        let fwd = Rc::new(adj);
        NormAdj {
            bwd: Rc::clone(&fwd),
            fwd,
        }
    }

    /// Aggregates node features: `Â · x`.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn aggregate(&self, x: &Var) -> Result<Var> {
        Var::spmm(&self.fwd, &self.bwd, x)
    }

    /// Number of graph nodes.
    pub fn num_nodes(&self) -> usize {
        self.fwd.rows()
    }

    /// The forward matrix.
    pub fn matrix(&self) -> &Rc<CsrMatrix> {
        &self.fwd
    }
}

/// Kipf & Welling graph convolution: `ReLU(Â · X · W + b)` (activation
/// applied by the caller).
#[derive(Debug, Clone)]
pub struct GcnConv {
    linear: Linear,
}

impl GcnConv {
    /// Creates a GCN layer.
    ///
    /// # Errors
    /// Returns an error for zero-sized dimensions.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Result<Self> {
        Ok(GcnConv {
            linear: Linear::new(name, in_dim, out_dim, rng)?,
        })
    }

    /// Applies the convolution: aggregate then transform.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn forward(&self, tape: &Tape, adj: &NormAdj, x: &Var) -> Result<Var> {
        let agg = adj.aggregate(x)?;
        self.linear.forward(tape, &agg)
    }

    /// The dense transform applied after aggregation (used by the sampled
    /// block path in [`crate::sampled`]).
    pub fn linear(&self) -> &Linear {
        &self.linear
    }
}

impl Module for GcnConv {
    fn params(&self) -> ParamSet {
        self.linear.params()
    }
}

/// GraphSAGE convolution with mean aggregation:
/// `σ(W · concat(x, mean_agg(x)))`.
#[derive(Debug, Clone)]
pub struct SageConv {
    linear: Linear,
}

impl SageConv {
    /// Creates a SAGE layer (`linear` input width is `2·in_dim`).
    ///
    /// # Errors
    /// Returns an error for zero-sized dimensions.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Result<Self> {
        Ok(SageConv {
            linear: Linear::new(name, 2 * in_dim, out_dim, rng)?,
        })
    }

    /// Applies the convolution; `adj` should be the mean-normalized
    /// adjacency.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn forward(&self, tape: &Tape, adj: &NormAdj, x: &Var) -> Result<Var> {
        let agg = adj.aggregate(x)?;
        let cat = Var::concat_cols(&[x.clone(), agg])?;
        self.linear.forward(tape, &cat)
    }
}

impl Module for SageConv {
    fn params(&self) -> ParamSet {
        self.linear.params()
    }
}

/// Per-batch edge structure for message-passing layers that operate at
/// edge granularity (PyG style), rather than through SpMM.
#[derive(Debug, Clone)]
pub struct EdgeList {
    /// Source node of each directed edge.
    pub src: gnnmark_tensor::IntTensor,
    /// Destination node of each directed edge.
    pub dst: gnnmark_tensor::IntTensor,
    /// Number of nodes the edges index into.
    pub num_nodes: usize,
}

impl EdgeList {
    /// Extracts the directed edge list of a graph.
    ///
    /// # Errors
    /// Propagates tensor construction errors.
    pub fn from_graph(graph: &gnnmark_graph::Graph) -> Result<Self> {
        let mut src = Vec::with_capacity(graph.num_edges());
        let mut dst = Vec::with_capacity(graph.num_edges());
        for r in 0..graph.num_nodes() {
            for &c in graph.neighbors(r) {
                src.push(c as i64); // message flows src → dst
                dst.push(r as i64);
            }
        }
        let e = src.len();
        Ok(EdgeList {
            src: gnnmark_tensor::IntTensor::from_vec(&[e], src)?,
            dst: gnnmark_tensor::IntTensor::from_vec(&[e], dst)?,
            num_nodes: graph.num_nodes(),
        })
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.src.numel()
    }
}

/// GENConv-style residual block from DeepGCN: pre-activation batch norm,
/// PyG-style edge-level message passing with softmax aggregation, a
/// two-layer MLP, and a residual connection — the structure that lets
/// GCNs go deep.
///
/// The aggregation follows `torch_geometric.nn.GENConv(aggr='softmax')`
/// at kernel granularity: per-edge gathers, segment max/exp/sum
/// (scatter + element-wise), and a final scatter-add — the irregular,
/// element-wise-heavy mix the paper measures for DGCN.
#[derive(Debug, Clone)]
pub struct GenConv {
    mlp: Mlp,
    gamma: gnnmark_autograd::Param,
    beta: gnnmark_autograd::Param,
}

impl GenConv {
    /// Creates a block with hidden width = `dim` (input and output widths
    /// are equal so blocks stack residually).
    ///
    /// # Errors
    /// Returns an error for zero-sized dimensions.
    pub fn new<R: Rng + ?Sized>(name: &str, dim: usize, rng: &mut R) -> Result<Self> {
        Ok(GenConv {
            mlp: Mlp::new(
                &format!("{name}.mlp"),
                &[dim, 2 * dim, dim],
                Activation::Relu,
                rng,
            )?,
            gamma: gnnmark_autograd::Param::new(
                format!("{name}.bn.gamma"),
                gnnmark_tensor::Tensor::ones(&[dim]),
            ),
            beta: gnnmark_autograd::Param::new(
                format!("{name}.bn.beta"),
                gnnmark_tensor::Tensor::zeros(&[dim]),
            ),
        })
    }

    /// Softmax-weighted neighborhood aggregation at edge granularity.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    fn softmax_aggregate(edges: &EdgeList, x: &Var) -> Result<Var> {
        let n = edges.num_nodes;
        // Messages: gather source features per edge.
        let msg = x.gather_rows(&edges.src)?; // [E, d]
                                              // Segment softmax over incoming edges of each destination:
                                              // exp(msg − max_dst) / sum_dst, all via scatter/gather kernels.
        let seg_max = msg.value().scatter_max_rows(&edges.dst, n)?;
        let max_per_edge = seg_max.gather_rows(&edges.dst)?;
        let shifted = msg.sub(&msg.constant_like(max_per_edge))?;
        let expd = shifted.exp();
        let sums = expd.scatter_add_rows(&edges.dst, n)?;
        // Gather the sums back per edge and normalize.
        let sums_per_edge = sums.gather_rows(&edges.dst)?;
        let weighted = expd.div(&sums_per_edge.add_scalar(1e-16))?;
        let contrib = weighted.mul(&msg)?;
        contrib.scatter_add_rows(&edges.dst, n)
    }

    /// Applies the residual block.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn forward(&self, tape: &Tape, edges: &EdgeList, x: &Var) -> Result<Var> {
        let g = tape.read(&self.gamma);
        let b = tape.read(&self.beta);
        let normed = x.batch_norm(&g, &b, 1e-5)?;
        let act = normed.relu();
        let agg = Self::softmax_aggregate(edges, &act)?;
        let msg = act.add(&agg)?;
        let out = self.mlp.forward(tape, &msg)?;
        out.add(x) // residual
    }
}

impl Module for GenConv {
    fn params(&self) -> ParamSet {
        let mut set = self.mlp.params();
        set.register(self.gamma.clone());
        set.register(self.beta.clone());
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_graph::Graph;
    use gnnmark_tensor::Tensor;
    use rand::SeedableRng;

    fn ring_adj(n: usize) -> (NormAdj, Graph) {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Graph::from_undirected_edges(n, &edges, Tensor::ones(&[n, 4])).unwrap();
        (NormAdj::new_symmetric(g.normalized_adjacency().unwrap()), g)
    }

    #[test]
    fn gcn_forward_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (adj, g) = ring_adj(6);
        let conv = GcnConv::new("c", 4, 8, &mut rng).unwrap();
        let tape = Tape::new();
        let x = tape.constant(g.features().clone());
        let y = conv.forward(&tape, &adj, &x).unwrap();
        assert_eq!(y.dims(), vec![6, 8]);
        assert_eq!(conv.num_parameters(), 4 * 8 + 8);
    }

    #[test]
    fn sage_concat_doubles_input() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (adj, g) = ring_adj(5);
        let conv = SageConv::new("s", 4, 3, &mut rng).unwrap();
        let tape = Tape::new();
        let x = tape.constant(g.features().clone());
        let y = conv.forward(&tape, &adj, &x).unwrap();
        assert_eq!(y.dims(), vec![5, 3]);
        assert_eq!(conv.num_parameters(), 8 * 3 + 3);
    }

    #[test]
    fn genconv_is_residual() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (_, g) = ring_adj(6);
        let edges = EdgeList::from_graph(&g).unwrap();
        assert_eq!(edges.num_edges(), g.num_edges());
        let block = GenConv::new("g", 4, &mut rng).unwrap();
        let tape = Tape::new();
        let x = tape.constant(g.features().clone());
        let y = block.forward(&tape, &edges, &x).unwrap();
        assert_eq!(y.dims(), vec![6, 4]);
        // Residual: zeroing the MLP by scaling would return x; check
        // gradient flows end-to-end instead.
        let loss = y.square().sum_all();
        tape.backward(&loss).unwrap();
        for p in &block.params() {
            assert!(p.grad().is_some(), "missing grad for {}", p.name());
        }
    }

    #[test]
    fn gcn_training_reduces_loss() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let (adj, _g) = ring_adj(8);
        let conv = GcnConv::new("c", 4, 2, &mut rng).unwrap();
        let labels =
            gnnmark_tensor::IntTensor::from_vec(&[8], (0..8).map(|i| i % 2).collect()).unwrap();
        let mut opt = gnnmark_autograd::Adam::new(0.05);
        use gnnmark_autograd::Optimizer;
        let mut first = 0.0;
        let mut last = 0.0;
        // Give the model distinguishable features.
        let feats = Tensor::from_fn(&[8, 4], |i| ((i * 7) % 5) as f32 / 5.0);
        for step in 0..40 {
            conv.params().zero_grad();
            let tape = Tape::new();
            let x = tape.constant(feats.clone());
            let logits = conv.forward(&tape, &adj, &x).unwrap();
            let loss = crate::losses::cross_entropy(&logits, &labels).unwrap();
            tape.backward(&loss).unwrap();
            opt.step(&conv.params()).unwrap();
            let l = loss.value().item().unwrap();
            if step == 0 {
                first = l;
            }
            last = l;
        }
        assert!(last < first, "loss {first} → {last}");
    }
}

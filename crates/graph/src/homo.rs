//! Homogeneous graphs: a single node type with CSR adjacency, node
//! features and (optionally) node labels.

use gnnmark_tensor::{CsrMatrix, IntTensor, Tensor, TensorError};

use crate::Result;

/// A homogeneous graph with node features.
///
/// The adjacency is stored as CSR over `f32` edge weights; citation
/// networks, social graphs and molecule graphs all use this type.
#[derive(Debug, Clone)]
pub struct Graph {
    adjacency: CsrMatrix,
    features: Tensor,
    labels: Option<IntTensor>,
    graph_label: Option<i64>,
}

impl Graph {
    /// Builds a graph from an undirected edge list (each pair is inserted
    /// in both directions) and node features.
    ///
    /// # Errors
    /// Returns an error if edges reference nodes outside the feature matrix
    /// or features are not rank 2.
    pub fn from_undirected_edges(
        num_nodes: usize,
        edges: &[(usize, usize)],
        features: Tensor,
    ) -> Result<Self> {
        let mut triplets = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            triplets.push((a, b, 1.0));
            if a != b {
                triplets.push((b, a, 1.0));
            }
        }
        Self::from_triplets(num_nodes, &triplets, features)
    }

    /// Builds a directed graph from weighted triplets `(src, dst, w)`.
    ///
    /// # Errors
    /// Returns an error on out-of-range endpoints or malformed features.
    pub fn from_triplets(
        num_nodes: usize,
        triplets: &[(usize, usize, f32)],
        features: Tensor,
    ) -> Result<Self> {
        if features.rank() != 2 || features.dim(0) != num_nodes {
            return Err(TensorError::InvalidArgument {
                op: "Graph::from_triplets",
                reason: format!(
                    "features {:?} do not match {num_nodes} nodes",
                    features.dims()
                ),
            });
        }
        let adjacency = CsrMatrix::from_coo(num_nodes, num_nodes, triplets)?;
        Ok(Graph {
            adjacency,
            features,
            labels: None,
            graph_label: None,
        })
    }

    /// Attaches per-node class labels.
    ///
    /// # Errors
    /// Returns an error if the label count differs from the node count.
    pub fn with_labels(mut self, labels: IntTensor) -> Result<Self> {
        if labels.numel() != self.num_nodes() {
            return Err(TensorError::InvalidArgument {
                op: "Graph::with_labels",
                reason: format!("{} labels for {} nodes", labels.numel(), self.num_nodes()),
            });
        }
        self.labels = Some(labels);
        Ok(self)
    }

    /// Attaches a whole-graph label (for graph classification tasks).
    pub fn with_graph_label(mut self, label: i64) -> Self {
        self.graph_label = Some(label);
        self
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.rows()
    }

    /// Number of stored directed edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.nnz()
    }

    /// Node feature width.
    pub fn feature_dim(&self) -> usize {
        self.features.dim(1)
    }

    /// The raw adjacency matrix.
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adjacency
    }

    /// The node feature matrix (`[n, d]`).
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// Replaces the node feature matrix.
    ///
    /// # Errors
    /// Returns an error if the row count changes.
    pub fn set_features(&mut self, features: Tensor) -> Result<()> {
        if features.rank() != 2 || features.dim(0) != self.num_nodes() {
            return Err(TensorError::InvalidArgument {
                op: "Graph::set_features",
                reason: "feature rows must equal node count".to_string(),
            });
        }
        self.features = features;
        Ok(())
    }

    /// Per-node class labels, if attached.
    pub fn labels(&self) -> Option<&IntTensor> {
        self.labels.as_ref()
    }

    /// Whole-graph label, if attached.
    pub fn graph_label(&self) -> Option<i64> {
        self.graph_label
    }

    /// Out-neighbors of `node` (column indices of its adjacency row).
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: usize) -> &[usize] {
        self.adjacency.row(node).0
    }

    /// Out-degree of every node.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_nodes())
            .map(|n| self.adjacency.row_nnz(n))
            .collect()
    }

    /// The GCN-normalized adjacency with self-loops:
    /// `Â = D̃^{-1/2} (A + I) D̃^{-1/2}`.
    ///
    /// # Errors
    /// Propagates sparse-construction errors (cannot occur for a valid
    /// graph).
    pub fn normalized_adjacency(&self) -> Result<CsrMatrix> {
        let n = self.num_nodes();
        let mut triplets: Vec<(usize, usize, f32)> = Vec::with_capacity(self.num_edges() + n);
        for r in 0..n {
            let (cols, vals) = self.adjacency.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                triplets.push((r, c, v));
            }
            triplets.push((r, r, 1.0));
        }
        // Degrees of A + I.
        let mut deg = vec![0.0f32; n];
        for &(r, _, v) in &triplets {
            deg[r] += v.abs();
        }
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        for t in &mut triplets {
            t.2 *= inv_sqrt[t.0] * inv_sqrt[t.1];
        }
        CsrMatrix::from_coo(n, n, &triplets)
    }

    /// Fraction of adjacency entries that are zero (graph sparsity).
    pub fn density(&self) -> f64 {
        let n = self.num_nodes();
        if n == 0 {
            return 0.0;
        }
        self.num_edges() as f64 / (n as f64 * n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> Graph {
        // 0 - 1 - 2
        Graph::from_undirected_edges(3, &[(0, 1), (1, 2)], Tensor::ones(&[3, 4])).unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let g = path_graph();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4); // both directions
        assert_eq!(g.feature_dim(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degrees(), vec![1, 2, 1]);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Graph::from_undirected_edges(2, &[(0, 5)], Tensor::ones(&[2, 1])).is_err());
        assert!(Graph::from_undirected_edges(2, &[], Tensor::ones(&[3, 1])).is_err());
        let g = path_graph();
        assert!(g
            .clone()
            .with_labels(IntTensor::from_vec(&[2], vec![0, 1]).unwrap())
            .is_err());
    }

    #[test]
    fn normalized_adjacency_rows_behave() {
        let g = path_graph();
        let a = g.normalized_adjacency().unwrap();
        // Self-loops present.
        let d = a.to_dense();
        assert!(d.get(&[0, 0]) > 0.0);
        assert!(d.get(&[1, 1]) > 0.0);
        // Symmetric for undirected input.
        assert!((d.get(&[0, 1]) - d.get(&[1, 0])).abs() < 1e-6);
        // Known value: deg̃(0)=2, deg̃(1)=3 → Â₀₁ = 1/√6.
        assert!((d.get(&[0, 1]) - 1.0 / 6.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn labels_roundtrip() {
        let g = path_graph()
            .with_labels(IntTensor::from_vec(&[3], vec![0, 1, 2]).unwrap())
            .unwrap()
            .with_graph_label(1);
        assert_eq!(g.labels().unwrap().as_slice(), &[0, 1, 2]);
        assert_eq!(g.graph_label(), Some(1));
    }

    #[test]
    fn density_of_path() {
        let g = path_graph();
        assert!((g.density() - 4.0 / 9.0).abs() < 1e-12);
    }
}

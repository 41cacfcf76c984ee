//! Block-diagonal batching of many small graphs into one large graph.
//!
//! DGL-style batching (used by Tree-LSTM, DeepGCN and k-GNN in the paper)
//! merges a list of small graphs into a single graph whose adjacency is
//! block-diagonal, so one SpMM aggregates every graph in the batch at once.

use gnnmark_tensor::{IntTensor, Tensor, TensorError};

use crate::{Graph, Result};

/// A batch of small graphs merged into one block-diagonal graph.
#[derive(Debug, Clone)]
pub struct BatchedGraph {
    merged: Graph,
    graph_ids: IntTensor,
    offsets: Vec<usize>,
    graph_labels: Option<IntTensor>,
}

impl BatchedGraph {
    /// Merges graphs into a batch.
    ///
    /// # Errors
    /// Returns an error for an empty list or mismatched feature widths.
    pub fn from_graphs(graphs: &[Graph]) -> Result<Self> {
        if graphs.is_empty() {
            return Err(TensorError::InvalidArgument {
                op: "BatchedGraph::from_graphs",
                reason: "empty graph list".to_string(),
            });
        }
        let d = graphs[0].feature_dim();
        let mut offsets = Vec::with_capacity(graphs.len() + 1);
        let mut triplets = Vec::new();
        let mut ids = Vec::new();
        let mut offset = 0usize;
        offsets.push(0);
        for (gi, g) in graphs.iter().enumerate() {
            if g.feature_dim() != d {
                return Err(TensorError::ShapeMismatch {
                    op: "BatchedGraph::from_graphs",
                    lhs: vec![graphs[0].num_nodes(), d],
                    rhs: vec![g.num_nodes(), g.feature_dim()],
                });
            }
            for r in 0..g.num_nodes() {
                let (cols, vals) = g.adjacency().row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    triplets.push((offset + r, offset + c, v));
                }
                ids.push(gi as i64);
            }
            offset += g.num_nodes();
            offsets.push(offset);
        }
        let feats: Vec<&Tensor> = graphs.iter().map(Graph::features).collect();
        let features = Tensor::concat_rows(&feats)?;
        let merged = Graph::from_triplets(offset, &triplets, features)?;
        let labels: Option<Vec<i64>> = graphs.iter().map(Graph::graph_label).collect();
        let graph_labels = match labels {
            Some(l) => Some(IntTensor::from_vec(&[graphs.len()], l)?),
            None => None,
        };
        Ok(BatchedGraph {
            merged,
            graph_ids: IntTensor::from_vec(&[offset], ids)?,
            offsets,
            graph_labels,
        })
    }

    /// The merged block-diagonal graph.
    pub fn graph(&self) -> &Graph {
        &self.merged
    }

    /// Per-node graph id (`[total_nodes]`), the scatter index for readout.
    pub fn graph_ids(&self) -> &IntTensor {
        &self.graph_ids
    }

    /// Number of member graphs.
    pub fn num_graphs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Node range `[start, end)` of member graph `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn node_range(&self, i: usize) -> (usize, usize) {
        (self.offsets[i], self.offsets[i + 1])
    }

    /// Whole-graph labels, if every member graph carries one.
    pub fn graph_labels(&self) -> Option<&IntTensor> {
        self.graph_labels.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_graphs() -> Vec<Graph> {
        let g1 = Graph::from_undirected_edges(2, &[(0, 1)], Tensor::full(&[2, 3], 1.0))
            .unwrap()
            .with_graph_label(0);
        let g2 = Graph::from_undirected_edges(3, &[(0, 1), (1, 2)], Tensor::full(&[3, 3], 2.0))
            .unwrap()
            .with_graph_label(1);
        vec![g1, g2]
    }

    #[test]
    fn batch_is_block_diagonal() {
        let b = BatchedGraph::from_graphs(&two_graphs()).unwrap();
        assert_eq!(b.num_graphs(), 2);
        assert_eq!(b.graph().num_nodes(), 5);
        assert_eq!(b.graph().num_edges(), 2 + 4);
        assert_eq!(b.node_range(0), (0, 2));
        assert_eq!(b.node_range(1), (2, 5));
        // No cross-graph edges.
        for r in 0..2 {
            for &c in b.graph().neighbors(r) {
                assert!(c < 2);
            }
        }
        for r in 2..5 {
            for &c in b.graph().neighbors(r) {
                assert!(c >= 2);
            }
        }
        assert_eq!(b.graph_ids().as_slice(), &[0, 0, 1, 1, 1]);
        assert_eq!(b.graph_labels().unwrap().as_slice(), &[0, 1]);
    }

    #[test]
    fn rejects_bad_batches() {
        assert!(BatchedGraph::from_graphs(&[]).is_err());
        let g1 = Graph::from_undirected_edges(1, &[], Tensor::ones(&[1, 2])).unwrap();
        let g2 = Graph::from_undirected_edges(1, &[], Tensor::ones(&[1, 3])).unwrap();
        assert!(BatchedGraph::from_graphs(&[g1, g2]).is_err());
    }
}

//! Heterogeneous graphs: multiple node types connected by typed relations.
//!
//! PinSAGE-style recommendation operates on a bipartite user–item graph;
//! GraphWriter operates on a knowledge graph with entity and relation
//! types. Both are instances of [`HeteroGraph`].

use std::collections::HashSet;

use gnnmark_tensor::{CsrMatrix, Tensor, TensorError};

use crate::Result;

/// Identifier of a node type within a [`HeteroGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeTypeId(pub usize);

/// A typed edge set between two node types, stored as CSR from source to
/// destination.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    src: NodeTypeId,
    dst: NodeTypeId,
    edges: CsrMatrix,
}

impl Relation {
    /// Relation name (e.g. `"rated"`, `"listened"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Source node type.
    pub fn src(&self) -> NodeTypeId {
        self.src
    }

    /// Destination node type.
    pub fn dst(&self) -> NodeTypeId {
        self.dst
    }

    /// The CSR edge structure (`[|src|, |dst|]`).
    pub fn edges(&self) -> &CsrMatrix {
        &self.edges
    }
}

/// A heterogeneous graph: named node types with features, and named typed
/// relations between them.
#[derive(Debug, Clone, Default)]
pub struct HeteroGraph {
    /// Feature matrix per node type, indexed by [`NodeTypeId`].
    node_features: Vec<Tensor>,
    relations: Vec<Relation>,
    type_names: HashSet<String>,
}

impl HeteroGraph {
    /// Creates an empty heterogeneous graph.
    pub fn new() -> Self {
        HeteroGraph::default()
    }

    /// Adds a node type with its feature matrix (`[count, dim]`).
    ///
    /// # Errors
    /// Returns an error for duplicate names or non-matrix features.
    pub fn add_node_type(
        &mut self,
        name: impl Into<String>,
        features: Tensor,
    ) -> Result<NodeTypeId> {
        let name = name.into();
        if self.type_names.contains(&name) {
            return Err(TensorError::InvalidArgument {
                op: "HeteroGraph::add_node_type",
                reason: format!("duplicate node type `{name}`"),
            });
        }
        if features.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "HeteroGraph::add_node_type",
                expected: 2,
                actual: features.rank(),
            });
        }
        self.type_names.insert(name);
        self.node_features.push(features);
        Ok(NodeTypeId(self.node_features.len() - 1))
    }

    /// Adds a typed relation from weighted `(src, dst, w)` triplets.
    ///
    /// # Errors
    /// Returns an error for unknown type ids or out-of-range endpoints.
    pub fn add_relation(
        &mut self,
        name: impl Into<String>,
        src: NodeTypeId,
        dst: NodeTypeId,
        triplets: &[(usize, usize, f32)],
    ) -> Result<usize> {
        let src_n = self.num_nodes_checked(src)?;
        let dst_n = self.num_nodes_checked(dst)?;
        let edges = CsrMatrix::from_coo(src_n, dst_n, triplets)?;
        self.relations.push(Relation {
            name: name.into(),
            src,
            dst,
            edges,
        });
        Ok(self.relations.len() - 1)
    }

    fn num_nodes_checked(&self, ty: NodeTypeId) -> Result<usize> {
        self.node_features
            .get(ty.0)
            .map(|f| f.dim(0))
            .ok_or(TensorError::IndexOutOfBounds {
                op: "HeteroGraph",
                index: ty.0,
                bound: self.node_features.len(),
            })
    }

    /// Node count of a type.
    ///
    /// # Panics
    /// Panics if the id is invalid.
    pub fn num_nodes(&self, ty: NodeTypeId) -> usize {
        self.node_features[ty.0].dim(0)
    }

    /// Total node count across all types.
    pub fn total_nodes(&self) -> usize {
        self.node_features.iter().map(|f| f.dim(0)).sum()
    }

    /// Total directed edge count across all relations.
    pub fn total_edges(&self) -> usize {
        self.relations.iter().map(|r| r.edges.nnz()).sum()
    }

    /// Feature matrix of a type.
    ///
    /// # Panics
    /// Panics if the id is invalid.
    pub fn features(&self, ty: NodeTypeId) -> &Tensor {
        &self.node_features[ty.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bipartite() -> (HeteroGraph, NodeTypeId, NodeTypeId) {
        let mut g = HeteroGraph::new();
        let users = g.add_node_type("user", Tensor::ones(&[3, 8])).unwrap();
        let items = g.add_node_type("item", Tensor::ones(&[5, 16])).unwrap();
        g.add_relation(
            "rated",
            users,
            items,
            &[(0, 1, 5.0), (1, 4, 3.0), (2, 0, 1.0)],
        )
        .unwrap();
        (g, users, items)
    }

    #[test]
    fn construction() {
        let (g, users, items) = bipartite();
        assert_eq!(g.num_nodes(users), 3);
        assert_eq!(g.num_nodes(items), 5);
        assert_eq!(g.total_nodes(), 8);
        assert_eq!(g.total_edges(), 3);
    }

    #[test]
    fn relation_lookup() {
        let (g, users, items) = bipartite();
        let r = &g.relations[0];
        assert_eq!(r.src(), users);
        assert_eq!(r.dst(), items);
        assert_eq!(r.edges().nnz(), 3);
        assert_eq!(r.name(), "rated");
    }

    #[test]
    fn rejects_duplicates_and_bad_edges() {
        let (mut g, users, _) = bipartite();
        assert!(g.add_node_type("user", Tensor::ones(&[1, 1])).is_err());
        assert!(g
            .add_relation("self", users, users, &[(0, 9, 1.0)])
            .is_err());
        assert!(g
            .add_relation("bad", NodeTypeId(9), users, &[])
            .is_err());
    }
}

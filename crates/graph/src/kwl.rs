//! k-WL graph transforms for k-GNNs (Morris et al., AAAI 2019).
//!
//! A k-GNN operates on the *k-set graph*: each vertex is a k-element subset
//! of the original vertices; two subsets are adjacent (in the *local*
//! construction) when they share exactly k−1 elements and the differing
//! pair of vertices is an edge of the original graph, or (in the *global*
//! construction) whenever they share k−1 elements. Subset features combine
//! member-node features with the isomorphism type of the induced subgraph.
//!
//! GNNMark includes a low-order (`KGNNL`, k=2) and higher-order (`KGNNH`,
//! k=3 hierarchical) variant to study how cost grows with dimension; the
//! transforms here implement both.

use gnnmark_tensor::Tensor;

use crate::{Graph, Result};

/// How k-sets are connected in the transformed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KwlConnectivity {
    /// Local construction: differing vertices must be adjacent in the
    /// original graph (sparser; scales to larger k).
    Local,
    /// Global construction: any two sets sharing k−1 vertices are adjacent.
    Global,
}

/// The result of a k-WL transform: the k-set graph plus bookkeeping to map
/// set-vertices back to their member original vertices.
#[derive(Debug, Clone)]
pub struct KSetGraph {
    graph: Graph,
    members: Vec<Vec<usize>>,
    k: usize,
}

impl KSetGraph {
    /// The transformed graph (one node per k-set).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Member original-vertex ids of set-vertex `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn members(&self, i: usize) -> &[usize] {
        &self.members[i]
    }

    /// The order `k` of the construction.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of set-vertices.
    pub fn num_sets(&self) -> usize {
        self.members.len()
    }
}

fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for v in start..n {
            // Prune when not enough vertices remain.
            if n - v < k - cur.len() {
                break;
            }
            cur.push(v);
            rec(v + 1, n, k, cur, out);
            cur.pop();
        }
    }
    rec(0, n, k, &mut cur, &mut out);
    out
}

/// Builds the k-set graph of `graph`.
///
/// Set features are the sum of member node features concatenated with a
/// one-hot-ish isomorphism-type scalar (the induced edge count among
/// members, normalized by `k·(k−1)/2`).
///
/// # Errors
/// Returns an error if `k` is 0 or exceeds the node count.
pub fn kwl_transform(graph: &Graph, k: usize, conn: KwlConnectivity) -> Result<KSetGraph> {
    let n = graph.num_nodes();
    if k == 0 || k > n {
        return Err(gnnmark_tensor::TensorError::InvalidArgument {
            op: "kwl_transform",
            reason: format!("k = {k} invalid for {n} nodes"),
        });
    }
    let sets = combinations(n, k);
    let num_sets = sets.len();
    let d = graph.feature_dim();

    // Adjacency lookup for induced-subgraph typing and local connectivity.
    let is_edge = |a: usize, b: usize| graph.neighbors(a).contains(&b);

    // Features: sum of member features ++ induced edge density.
    let src = graph.features().as_slice();
    let mut feats = vec![0.0f32; num_sets * (d + 1)];
    for (si, set) in sets.iter().enumerate() {
        for &v in set {
            for j in 0..d {
                feats[si * (d + 1) + j] += src[v * d + j];
            }
        }
        let mut edges_in = 0usize;
        for i in 0..k {
            for j in (i + 1)..k {
                if is_edge(set[i], set[j]) {
                    edges_in += 1;
                }
            }
        }
        let max_edges = (k * (k - 1) / 2).max(1);
        feats[si * (d + 1) + d] = edges_in as f32 / max_edges as f32;
    }
    let features = Tensor::from_vec(&[num_sets, d + 1], feats)?;

    // Edges between sets sharing k−1 members.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for i in 0..num_sets {
        for j in (i + 1)..num_sets {
            let a = &sets[i];
            let b = &sets[j];
            // Sorted sets: count shared members by merge.
            let mut shared = 0usize;
            let (mut x, mut y) = (0usize, 0usize);
            while x < k && y < k {
                match a[x].cmp(&b[y]) {
                    std::cmp::Ordering::Equal => {
                        shared += 1;
                        x += 1;
                        y += 1;
                    }
                    std::cmp::Ordering::Less => x += 1,
                    std::cmp::Ordering::Greater => y += 1,
                }
            }
            if shared != k - 1 {
                continue;
            }
            if conn == KwlConnectivity::Local {
                // The two differing vertices must be adjacent.
                let da = a.iter().find(|v| !b.contains(v)).copied();
                let db = b.iter().find(|v| !a.contains(v)).copied();
                match (da, db) {
                    (Some(u), Some(w)) if is_edge(u, w) => {}
                    _ => continue,
                }
            }
            edges.push((i, j));
        }
    }
    let graph2 = Graph::from_undirected_edges(num_sets, &edges, features)?;
    Ok(KSetGraph {
        graph: graph2,
        members: sets,
        k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // Triangle 0-1-2 plus tail 2-3.
        Graph::from_undirected_edges(
            4,
            &[(0, 1), (1, 2), (0, 2), (2, 3)],
            Tensor::from_fn(&[4, 2], |i| i as f32),
        )
        .unwrap()
    }

    #[test]
    fn two_set_graph_size() {
        let g = triangle_plus_tail();
        let ks = kwl_transform(&g, 2, KwlConnectivity::Global).unwrap();
        assert_eq!(ks.num_sets(), 6); // C(4,2)
        assert_eq!(ks.k(), 2);
        assert_eq!(ks.graph().feature_dim(), 3); // 2 + isomorphism scalar
        assert_eq!(ks.members(0), &[0, 1]);
    }

    #[test]
    fn local_is_subgraph_of_global() {
        let g = triangle_plus_tail();
        let local = kwl_transform(&g, 2, KwlConnectivity::Local).unwrap();
        let global = kwl_transform(&g, 2, KwlConnectivity::Global).unwrap();
        assert!(local.graph().num_edges() <= global.graph().num_edges());
        assert!(local.graph().num_edges() > 0);
    }

    #[test]
    fn isomorphism_feature_distinguishes_edge_pairs() {
        let g = triangle_plus_tail();
        let ks = kwl_transform(&g, 2, KwlConnectivity::Global).unwrap();
        // Find the set {0,1} (edge) and {1,3} (non-edge).
        let f = ks.graph().features();
        let idx_of = |pair: &[usize]| (0..ks.num_sets()).find(|&i| ks.members(i) == pair).unwrap();
        let edge_set = idx_of(&[0, 1]);
        let non_edge_set = idx_of(&[1, 3]);
        assert_eq!(f.get(&[edge_set, 2]), 1.0);
        assert_eq!(f.get(&[non_edge_set, 2]), 0.0);
    }

    #[test]
    fn three_set_graph() {
        let g = triangle_plus_tail();
        let ks = kwl_transform(&g, 3, KwlConnectivity::Global).unwrap();
        assert_eq!(ks.num_sets(), 4); // C(4,3)
                                      // {0,1,2} is the triangle: density 1.
        let tri = (0..4).find(|&i| ks.members(i) == [0, 1, 2]).unwrap();
        assert_eq!(ks.graph().features().get(&[tri, 2]), 1.0);
    }

    #[test]
    fn validates_k() {
        let g = triangle_plus_tail();
        assert!(kwl_transform(&g, 0, KwlConnectivity::Local).is_err());
        assert!(kwl_transform(&g, 5, KwlConnectivity::Local).is_err());
    }

    #[test]
    fn combinations_count() {
        assert_eq!(combinations(5, 2).len(), 10);
        assert_eq!(combinations(5, 3).len(), 10);
        assert_eq!(combinations(3, 3).len(), 1);
    }
}

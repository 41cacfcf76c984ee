//! Seeded synthetic dataset generators shaped like the GNNMark datasets.
//!
//! The paper's datasets are public but large; what its characterization
//! actually depends on are their *structural knobs*: node/edge counts,
//! feature width (PSAGE's element-wise share jumps from 36 % to 78 % when
//! features grow 10×), degree skew (drives divergence and cache behavior),
//! feature sparsity (drives transfer sparsity) and graph type. Each
//! generator here reproduces those knobs at a configurable scale and is
//! fully deterministic given a seed.

use gnnmark_tensor::{IntTensor, Tensor, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dynamic::SpatioTemporal;
use crate::trees::{Tree, TreeNode};
use crate::{Graph, Result};

/// Generates a Barabási–Albert preferential-attachment edge list:
/// power-law degree distribution like real citation/social graphs.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Vec<(usize, usize)> {
    assert!(m >= 1, "attachment count must be positive");
    let mut edges = Vec::new();
    let mut targets: Vec<usize> = Vec::new(); // node repeated per degree
    let seed_nodes = (m + 1).min(n);
    for i in 0..seed_nodes {
        for j in (i + 1)..seed_nodes {
            edges.push((i, j));
            targets.push(i);
            targets.push(j);
        }
    }
    for v in seed_nodes..n {
        // BTreeSet: deterministic iteration order (HashSet would make the
        // generated structure vary run-to-run).
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < m && chosen.len() < v {
            let t = targets[rng.gen_range(0..targets.len())];
            if t != v {
                chosen.insert(t);
            }
        }
        for &t in &chosen {
            edges.push((v, t));
            targets.push(v);
            targets.push(t);
        }
    }
    edges
}

/// Generates a `[n, d]` binary bag-of-words feature matrix with the given
/// nonzero density (citation features are ~1–2 % dense).
fn sparse_binary_features<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    density: f64,
    rng: &mut R,
) -> Tensor {
    Tensor::from_fn(&[n, d], |_| if rng.gen_bool(density) { 1.0 } else { 0.0 })
}

/// The three citation benchmarks used by ARGA (and GCN evaluation broadly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CitationKind {
    /// ~2.7 k nodes, 1433-d binary features, 7 classes.
    Cora,
    /// ~3.3 k nodes, 3703-d binary features, 6 classes.
    CiteSeer,
    /// ~19.7 k nodes, 500-d TF-IDF features, 3 classes.
    PubMed,
}

impl CitationKind {
    /// `(nodes, feature_dim, classes, feature_density)` at scale 1.0.
    pub fn profile(self) -> (usize, usize, usize, f64) {
        match self {
            CitationKind::Cora => (2708, 1433, 7, 0.0127),
            CitationKind::CiteSeer => (3327, 3703, 6, 0.0086),
            CitationKind::PubMed => (19717, 500, 3, 0.10),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CitationKind::Cora => "Cora",
            CitationKind::CiteSeer => "CiteSeer",
            CitationKind::PubMed => "PubMed",
        }
    }
}

/// Generates a citation-style homogeneous graph with class labels.
///
/// `scale` multiplies the node count (feature width is preserved — it is
/// the characterization-relevant knob).
///
/// # Errors
/// Returns an error if `scale` produces fewer than 8 nodes.
pub fn citation(kind: CitationKind, scale: f64, seed: u64) -> Result<Graph> {
    let (base_n, d, classes, density) = kind.profile();
    let n = ((base_n as f64 * scale).round() as usize).max(1);
    if n < 8 {
        return Err(TensorError::InvalidArgument {
            op: "citation",
            reason: format!("scale {scale} yields only {n} nodes"),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = barabasi_albert(n, 2, &mut rng);
    let features = sparse_binary_features(n, d, density, &mut rng);
    let labels = IntTensor::from_vec(
        &[n],
        (0..n).map(|_| rng.gen_range(0..classes as i64)).collect(),
    )?;
    // Correlate features with labels so training can actually learn:
    // each class gets a handful of "marker" words set with high probability.
    let mut g = Graph::from_undirected_edges(n, &edges, features)?;
    let mut f = g.features().clone();
    {
        let data = f.as_mut_slice();
        let markers_per_class = 8.min(d / classes.max(1)).max(1);
        for (i, &lab) in labels.as_slice().iter().enumerate() {
            for m in 0..markers_per_class {
                let col = (lab as usize * markers_per_class + m) % d;
                if rng.gen_bool(0.75) {
                    data[i * d + col] = 1.0;
                }
            }
        }
    }
    g.set_features(f)?;
    g.with_labels(labels)
}

/// A PinSAGE-style recommendation dataset: the item–item co-interaction
/// graph that random-walk sampling operates on, carrying the item features.
/// The user–item interactions it is projected from are drawn and dropped.
fn recommendation_like(
    base_users: usize,
    base_items: usize,
    item_dim: usize,
    item_zero_prob: f64,
    scale: f64,
    seed: u64,
) -> Result<Graph> {
    let users_n = ((base_users as f64 * scale).round() as usize).max(4);
    let items_n = ((base_items as f64 * scale).round() as usize).max(4);
    let mut rng = StdRng::seed_from_u64(seed);
    // The 32-wide sparse user features are never read, but their draws
    // (row-major, as `f32`) set where the item features' stream starts.
    for _ in 0..users_n * 32 {
        if rng.gen_bool(0.2) {
            let _: f32 = rng.gen_range(0.1..1.0);
        }
    }
    // Item features: dense embeddings-plus-metadata. Width is the MVL/NWP
    // differentiator (the paper's 10× observation).
    let item_feats = Tensor::from_fn(&[items_n, item_dim], |_| {
        if rng.gen_bool(item_zero_prob) {
            0.0
        } else {
            rng.gen_range(-1.0..1.0)
        }
    });

    // Zipf-ish item popularity: user interactions preferentially hit
    // popular items (drives skewed gather locality, like real logs).
    let interactions_per_user = 12usize;
    let mut per_user: Vec<Vec<usize>> = vec![Vec::new(); users_n];
    for list in &mut per_user {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..interactions_per_user {
            let r: f64 = rng.gen::<f64>();
            let item = ((items_n as f64) * r * r) as usize % items_n;
            if seen.insert(item) {
                // The interaction's rating: unread, but drawn (as `f32`)
                // to keep the stream.
                let _: f32 = rng.gen_range(1.0..5.0);
                list.push(item);
            }
        }
    }

    // Item–item projection: co-interaction within each user's list.
    let mut proj = std::collections::BTreeSet::new();
    for list in &per_user {
        for w in list.windows(2) {
            let (a, b) = (w[0].min(w[1]), w[0].max(w[1]));
            if a != b {
                proj.insert((a, b));
            }
        }
    }
    let proj_edges: Vec<(usize, usize)> = proj.into_iter().collect();
    Graph::from_undirected_edges(items_n, &proj_edges, item_feats)
}

/// Recommendation dataset with a caller-chosen item feature width — used
/// by the feature-width ablation that sweeps the paper's MVL→NWP (10×)
/// observation continuously.
///
/// # Errors
/// Propagates construction errors for degenerate scales.
pub fn recommendation_with_width(item_dim: usize, scale: f64, seed: u64) -> Result<Graph> {
    recommendation_like(6040, 3706, item_dim, 0.2, scale, seed)
}

/// MovieLens-like dataset (`MVL`): 64-wide item features.
///
/// # Errors
/// Propagates construction errors for degenerate scales.
pub fn movielens_like(scale: f64, seed: u64) -> Result<Graph> {
    // 60-wide features (240 B rows — deliberately not a multiple of the
    // 128 B line, like real metadata vectors) with ~22 % zeros, matching
    // the paper's measured MVL sparsity.
    recommendation_like(6040, 3706, 60, 0.22, scale, seed)
}

/// Nowplaying-like dataset (`NWP`): item features 10× wider than MVL,
/// reproducing the paper's element-wise blow-up observation.
///
/// # Errors
/// Propagates construction errors for degenerate scales.
pub fn nowplaying_like(scale: f64, seed: u64) -> Result<Graph> {
    // Denser features than MVL (~11 % zeros), as the paper measures.
    recommendation_like(8000, 5000, 600, 0.11, scale, seed)
}

/// METR-LA-like traffic dataset for STGCN: 207 sensors (scaled), k-nearest
/// sensor graph, and a daily-periodic speed signal with noise.
///
/// # Errors
/// Propagates construction errors for degenerate inputs.
pub fn metr_la_like(scale: f64, num_steps: usize, seed: u64) -> Result<SpatioTemporal> {
    let n = ((207.0 * scale).round() as usize).max(8);
    let mut rng = StdRng::seed_from_u64(seed);
    // Random 2-D sensor layout; connect each sensor to its 4 nearest.
    let pos: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
    let mut edges = Vec::new();
    for i in 0..n {
        let mut dists: Vec<(usize, f64)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| {
                let dx = pos[i].0 - pos[j].0;
                let dy = pos[i].1 - pos[j].1;
                (j, dx * dx + dy * dy)
            })
            .collect();
        dists.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for &(j, _) in dists.iter().take(4) {
            edges.push((i, j.max(i).min(j.max(i))));
            edges.push((i.min(j), i.max(j)));
        }
    }
    edges.dedup();
    let static_feats = Tensor::from_fn(&[n, 2], |i| {
        if i % 2 == 0 {
            pos[i / 2].0 as f32
        } else {
            pos[i / 2].1 as f32
        }
    });
    let graph = Graph::from_undirected_edges(n, &edges, static_feats)?;
    // Speed signal: per-sensor base speed + daily sinusoid + rush-hour dips.
    let base: Vec<f32> = (0..n).map(|_| rng.gen_range(40.0..70.0)).collect();
    let phase: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let signal: Vec<Tensor> = (0..num_steps)
        .map(|t| {
            let day = (t % 288) as f32 / 288.0;
            Tensor::from_fn(&[n, 1], |i| {
                let rush = (-((day - 0.35 - 0.02 * phase[i]) * 24.0).powi(2)).exp()
                    + (-((day - 0.72 - 0.02 * phase[i]) * 24.0).powi(2)).exp();
                base[i] - 25.0 * rush + rng.gen_range(-2.0..2.0)
            })
        })
        .collect();
    SpatioTemporal::new(graph, signal)
}

/// ogbg-molhiv-like molecule graphs for DeepGCN: small graphs of 9-d atom
/// features with ring-and-chain structure and a binary activity label.
///
/// # Errors
/// Propagates construction errors.
pub fn molhiv_like(num_graphs: usize, seed: u64) -> Result<Vec<Graph>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_graphs)
        .map(|_| {
            let n = rng.gen_range(10..26);
            let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
            // Add a few rings.
            for _ in 0..rng.gen_range(1..4) {
                let a = rng.gen_range(0..n);
                let len = rng.gen_range(3..6).min(n - 1);
                let b = (a + len) % n;
                if a != b {
                    edges.push((a.min(b), a.max(b)));
                }
            }
            let feats = Tensor::from_fn(&[n, 9], |flat| {
                let col = flat % 9;
                if col == 0 {
                    rng.gen_range(1.0..8.0) // atomic number bucket
                } else if rng.gen_bool(0.3) {
                    1.0
                } else {
                    0.0
                }
            });
            // Label correlated with ring count so the model can learn.
            let label = i64::from(edges.len() > n);
            Ok(Graph::from_undirected_edges(n, &edges, feats)?.with_graph_label(label))
        })
        .collect()
}

/// PROTEINS-like graphs for k-GNN: small graphs with 3-d node features, a
/// binary (enzyme / non-enzyme) label, and an explicit node-count range
/// (the higher-order k-GNN's k-set graphs grow combinatorially).
///
/// # Errors
/// Propagates construction errors.
pub fn proteins_like_sized(
    num_graphs: usize,
    min_nodes: usize,
    max_nodes: usize,
    seed: u64,
) -> Result<Vec<Graph>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_graphs)
        .map(|_| {
            let n = rng.gen_range(min_nodes..max_nodes);
            let mut edges = Vec::new();
            for i in 0..n {
                let deg = rng.gen_range(1..4);
                for _ in 0..deg {
                    let j = rng.gen_range(0..n);
                    if i != j {
                        edges.push((i.min(j), i.max(j)));
                    }
                }
            }
            edges.sort_unstable();
            edges.dedup();
            let feats = Tensor::from_fn(&[n, 3], |_| if rng.gen_bool(0.4) { 1.0 } else { 0.0 });
            let label = i64::from(edges.len() * 2 > n * 3);
            Ok(Graph::from_undirected_edges(n, &edges, feats)?.with_graph_label(label))
        })
        .collect()
}

/// One AGENDA-like document: a knowledge graph of entities plus the target
/// abstract as a token sequence (for GraphWriter).
#[derive(Debug, Clone)]
pub struct KnowledgeDoc {
    /// Entity graph; features embed entity types.
    pub graph: Graph,
    /// Target abstract tokens (indices into a shared vocabulary).
    pub target: IntTensor,
    /// Entity ids mentioned, aligned with graph nodes.
    pub entity_ids: IntTensor,
}

/// Generates AGENDA-like knowledge-graph-to-text documents.
///
/// `vocab` is the shared token vocabulary size.
///
/// # Errors
/// Propagates construction errors.
pub fn agenda_like(num_docs: usize, vocab: usize, seed: u64) -> Result<Vec<KnowledgeDoc>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_docs)
        .map(|_| {
            let n = rng.gen_range(8..20);
            let edges = barabasi_albert(n, 2, &mut rng);
            let feats = Tensor::from_fn(&[n, 16], |_| {
                if rng.gen_bool(0.25) {
                    rng.gen_range(0.1..1.0)
                } else {
                    0.0
                }
            });
            let graph = Graph::from_undirected_edges(n, &edges, feats)?;
            let len = rng.gen_range(12..30);
            let target = IntTensor::from_vec(
                &[len],
                (0..len).map(|_| rng.gen_range(0..vocab as i64)).collect(),
            )?;
            let entity_ids = IntTensor::from_vec(
                &[n],
                (0..n).map(|_| rng.gen_range(0..vocab as i64)).collect(),
            )?;
            Ok(KnowledgeDoc {
                graph,
                target,
                entity_ids,
            })
        })
        .collect()
}

/// SST-like sentiment trees for Tree-LSTM: random binarized parse trees
/// whose leaves carry word ids and every node a 5-way sentiment label.
///
/// # Errors
/// Propagates construction errors.
pub fn sst_like(num_trees: usize, vocab: usize, seed: u64) -> Result<Vec<Tree>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_trees)
        .map(|_| {
            let num_leaves = rng.gen_range(4..18);
            // Build a random binary tree bottom-up: start with leaves,
            // repeatedly merge two adjacent subtrees.
            let mut nodes: Vec<TreeNode> = Vec::new();
            let mut roots: Vec<usize> = Vec::new();
            for _ in 0..num_leaves {
                nodes.push(TreeNode {
                    children: vec![],
                    word: Some(rng.gen_range(0..vocab as i64)),
                    label: rng.gen_range(0..5),
                });
                roots.push(nodes.len() - 1);
            }
            while roots.len() > 1 {
                let i = rng.gen_range(0..roots.len() - 1);
                let (a, b) = (roots[i], roots[i + 1]);
                nodes.push(TreeNode {
                    children: vec![a, b],
                    word: None,
                    label: rng.gen_range(0..5),
                });
                let merged = nodes.len() - 1;
                roots.remove(i + 1);
                roots[i] = merged;
            }
            Tree::new(nodes, roots[0])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn citation_profiles_match_paper_scale() {
        let g = citation(CitationKind::Cora, 1.0, 7).unwrap();
        assert_eq!(g.num_nodes(), 2708);
        assert_eq!(g.feature_dim(), 1433);
        let labels = g.labels().unwrap();
        assert!(labels.as_slice().iter().all(|&l| (0..7).contains(&l)));
        // Bag-of-words features are highly sparse, like real Cora.
        assert!(g.features().sparsity() > 0.95);
    }

    #[test]
    fn citation_is_deterministic() {
        let a = citation(CitationKind::CiteSeer, 0.05, 3).unwrap();
        let b = citation(CitationKind::CiteSeer, 0.05, 3).unwrap();
        assert_eq!(a.features().as_slice(), b.features().as_slice());
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn citation_rejects_tiny_scale() {
        assert!(citation(CitationKind::Cora, 0.0001, 1).is_err());
    }

    #[test]
    fn ba_graphs_have_power_law_hubs() {
        let mut rng = StdRng::seed_from_u64(5);
        let edges = barabasi_albert(500, 2, &mut rng);
        let g = Graph::from_undirected_edges(500, &edges, Tensor::ones(&[500, 1])).unwrap();
        let degs = g.degrees();
        let max = *degs.iter().max().unwrap();
        let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!(
            max as f64 > mean * 5.0,
            "expected hub: max {max}, mean {mean}"
        );
    }

    #[test]
    fn recommendation_feature_widths_differ_10x() {
        let mvl = movielens_like(0.02, 11).unwrap();
        let nwp = nowplaying_like(0.02, 11).unwrap();
        assert_eq!(nwp.feature_dim(), mvl.feature_dim() * 10);
        assert!(mvl.num_edges() > 0);
    }

    #[test]
    fn metr_la_signal_is_periodic_and_shaped() {
        let st = metr_la_like(0.1, 64, 3).unwrap();
        assert!(st.graph().num_nodes() >= 8);
        assert_eq!(st.num_steps(), 64);
        assert_eq!(st.channels(), 1);
        // Speeds are plausible (positive, below free-flow).
        for t in 0..4 {
            for &v in st.signal(t).as_slice() {
                assert!(v > 0.0 && v < 90.0);
            }
        }
    }

    #[test]
    fn molecules_are_connected_chains_with_labels() {
        let mols = molhiv_like(10, 4).unwrap();
        assert_eq!(mols.len(), 10);
        for m in &mols {
            assert!(m.num_nodes() >= 10);
            assert!(m.graph_label().is_some());
            assert_eq!(m.feature_dim(), 9);
            // Chain backbone keeps everything connected: every node has a
            // neighbor.
            assert!(m.degrees().iter().all(|&d| d > 0));
        }
    }

    #[test]
    fn proteins_and_trees_generate() {
        let prots = proteins_like_sized(6, 8, 20, 5).unwrap();
        assert_eq!(prots.len(), 6);
        assert!(prots.iter().all(|p| p.feature_dim() == 3));

        let trees = sst_like(5, 100, 6).unwrap();
        assert_eq!(trees.len(), 5);
        for t in &trees {
            // Binary tree with L leaves has 2L-1 nodes.
            assert!(t.len() % 2 == 1);
            let leaves = t.nodes().iter().filter(|n| n.children.is_empty()).count();
            assert_eq!(t.len(), 2 * leaves - 1);
        }
    }

    #[test]
    fn agenda_docs_have_graphs_and_targets() {
        let docs = agenda_like(4, 500, 7).unwrap();
        assert_eq!(docs.len(), 4);
        for d in &docs {
            assert!(d.graph.num_nodes() >= 8);
            assert!(d.target.numel() >= 12);
            assert!(d.target.as_slice().iter().all(|&t| (0..500).contains(&t)));
            assert_eq!(d.entity_ids.numel(), d.graph.num_nodes());
        }
    }
}

//! Property-based tests for graph substrate invariants.

use gnnmark_graph::datasets::{barabasi_albert, proteins_like_sized, sst_like};
use gnnmark_graph::kwl::{kwl_transform, KwlConnectivity};
use gnnmark_graph::sampler::{MinibatchSampler, RandomWalkSampler};
use gnnmark_graph::{BatchedGraph, Graph, TreeBatch};
use gnnmark_tensor::{IntTensor, Tensor};
use proptest::prelude::*;
use rand::SeedableRng;

fn random_graph(n: usize, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let edges = barabasi_albert(n, 2, &mut rng);
    Graph::from_undirected_edges(n, &edges, Tensor::ones(&[n, 3])).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn normalized_adjacency_is_symmetric_and_bounded(n in 4usize..40, seed in any::<u64>()) {
        let g = random_graph(n, seed);
        let a = g.normalized_adjacency().unwrap().to_dense();
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (a.get(&[i, j]), a.get(&[j, i]));
                prop_assert!((x - y).abs() < 1e-5, "asymmetric at ({i},{j})");
                prop_assert!((0.0..=1.0 + 1e-6).contains(&x));
            }
            prop_assert!(a.get(&[i, i]) > 0.0, "missing self-loop at {i}");
        }
    }

    #[test]
    fn batched_graph_preserves_nodes_edges_features(
        sizes in proptest::collection::vec(2usize..10, 1..6),
        seed in any::<u64>(),
    ) {
        let graphs: Vec<Graph> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| random_graph(n, seed.wrapping_add(i as u64)))
            .collect();
        let batch = BatchedGraph::from_graphs(&graphs).unwrap();
        let total_nodes: usize = graphs.iter().map(Graph::num_nodes).sum();
        let total_edges: usize = graphs.iter().map(Graph::num_edges).sum();
        prop_assert_eq!(batch.graph().num_nodes(), total_nodes);
        prop_assert_eq!(batch.graph().num_edges(), total_edges);
        // Block-diagonal: no cross-graph edges.
        for i in 0..batch.num_graphs() {
            let (lo, hi) = batch.node_range(i);
            for node in lo..hi {
                for &nb in batch.graph().neighbors(node) {
                    prop_assert!((lo..hi).contains(&nb));
                }
            }
        }
    }

    #[test]
    fn minibatch_partitions_exactly(n in 1usize..200, batch in 1usize..32, seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s = MinibatchSampler::new(n, batch, &mut rng).unwrap();
        for _ in 0..2 {
            let epoch = s.epoch(&mut rng);
            prop_assert_eq!(epoch.len(), n.div_ceil(batch));
            let mut seen = Vec::new();
            for b in epoch {
                prop_assert!(b.numel() <= batch);
                seen.extend_from_slice(b.as_slice());
            }
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..n as i64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn random_walk_neighborhoods_are_valid(
        n in 6usize..40,
        walks in 1usize..16,
        len in 1usize..5,
        top in 1usize..8,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 1);
        let seeds = IntTensor::from_vec(&[3], vec![0, (n / 2) as i64, (n - 1) as i64]).unwrap();
        let hoods = RandomWalkSampler::new(walks, len, top).sample(&g, &seeds, &mut rng);
        for h in &hoods {
            prop_assert!(!h.neighbors.is_empty());
            prop_assert!(h.neighbors.len() <= top.max(1));
            let total: f32 = h.weights.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-4);
            for &nb in &h.neighbors {
                prop_assert!((0..n as i64).contains(&nb));
            }
        }
    }

    #[test]
    fn kwl_two_set_count_is_binomial(n in 3usize..12, seed in any::<u64>()) {
        let g = random_graph(n, seed);
        let ks = kwl_transform(&g, 2, KwlConnectivity::Global).unwrap();
        prop_assert_eq!(ks.num_sets(), n * (n - 1) / 2);
        // Every set vertex has the augmented feature width.
        prop_assert_eq!(ks.graph().feature_dim(), g.feature_dim() + 1);
        // Local edges are a subset of global edges.
        let local = kwl_transform(&g, 2, KwlConnectivity::Local).unwrap();
        prop_assert!(local.graph().num_edges() <= ks.graph().num_edges());
    }

    #[test]
    fn tree_batches_cover_every_node_once(trees in 1usize..6, seed in any::<u64>()) {
        let ts = sst_like(trees, 50, seed).unwrap();
        let batch = TreeBatch::from_trees(&ts).unwrap();
        let mut covered: Vec<i64> = batch
            .levels()
            .iter()
            .flat_map(|l| l.nodes.as_slice().to_vec())
            .collect();
        covered.sort_unstable();
        prop_assert_eq!(covered, (0..batch.total_nodes() as i64).collect::<Vec<_>>());
        // Children always live at strictly lower levels.
        let mut level_of = vec![usize::MAX; batch.total_nodes()];
        for (li, level) in batch.levels().iter().enumerate() {
            for &nd in level.nodes.as_slice() {
                level_of[nd as usize] = li;
            }
        }
        for (li, level) in batch.levels().iter().enumerate() {
            for &c in level.child_ids.as_slice() {
                if c >= 0 {
                    prop_assert!(level_of[c as usize] < li);
                }
            }
        }
    }

    #[test]
    fn proteins_generator_is_deterministic_and_labeled(n in 1usize..8, seed in any::<u64>()) {
        let a = proteins_like_sized(n, 6, 12, seed).unwrap();
        let b = proteins_like_sized(n, 6, 12, seed).unwrap();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.num_nodes(), y.num_nodes());
            prop_assert_eq!(x.num_edges(), y.num_edges());
            prop_assert_eq!(x.graph_label(), y.graph_label());
            prop_assert!(x.graph_label().is_some());
        }
    }
}

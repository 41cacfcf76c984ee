//! Property-based tests of the layer-wise fanout sampling engine.
//!
//! Four families of invariants, over random Barabási–Albert graphs and
//! random sampler configurations:
//!
//! * **Structural validity** — every block is a well-formed CSR slice:
//!   column ids in bounds, rows sorted ascending with no duplicates, no
//!   dangling source (every column referenced by the id maps exists).
//! * **Fanout bounds** — no destination row carries more sampled edges
//!   than its fanout allows (or its degree, whichever is smaller), and
//!   fanout `0` keeps the full neighborhood with unscaled weights.
//! * **Determinism** — the sampled structure is a pure function of
//!   (sampler seed, batch id, level, node): resampling reproduces it
//!   bit-for-bit, and a sampler rebuilt from the same seed agrees.
//! * **Thread-count invariance** — sampling is host-thread independent:
//!   the same batch drawn under 1 and 4 tensor-engine threads is
//!   identical (the per-node RNG never observes global iteration state).

use gnnmark_graph::datasets::barabasi_albert;
use gnnmark_graph::{FanoutSampler, Graph, SampledBatch};
use gnnmark_tensor::{CsrMatrix, Tensor};
use proptest::prelude::*;
use rand::SeedableRng;

/// The normalized adjacency of a random Barabási–Albert graph.
fn random_adjacency(n: usize, seed: u64) -> CsrMatrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let edges = barabasi_albert(n, 2, &mut rng);
    let g = Graph::from_undirected_edges(n, &edges, Tensor::ones(&[n, 3])).unwrap();
    g.normalized_adjacency().unwrap()
}

fn seed_set(n: usize, count: usize) -> Vec<i64> {
    (0..count).map(|i| ((i * 7 + 1) % n) as i64).collect()
}

/// Flattens a batch into a comparable structure: per block, the local CSR
/// triplets plus both global id maps.
#[allow(clippy::type_complexity)]
fn fingerprint(b: &SampledBatch) -> Vec<(Vec<(usize, usize, u32)>, Vec<i64>, Vec<i64>)> {
    b.blocks
        .iter()
        .map(|blk| {
            let mut trips = Vec::with_capacity(blk.num_edges());
            for r in 0..blk.num_dst() {
                let (cols, vals) = blk.adj.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    trips.push((r, c, v.to_bits()));
                }
            }
            (trips, blk.dst_nodes.clone(), blk.src_nodes.clone())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocks_are_valid_csr_slices(
        n in 8usize..60,
        gseed in any::<u64>(),
        sseed in any::<u64>(),
        fanouts in proptest::collection::vec(0usize..5, 1..4),
        batch_id in any::<u64>(),
    ) {
        let adj = random_adjacency(n, gseed);
        let sampler = FanoutSampler::new(&fanouts, sseed).unwrap();
        let batch = sampler.sample(&adj, &seed_set(n, 4), batch_id).unwrap();
        prop_assert_eq!(batch.blocks.len(), fanouts.len());
        let mut edge_total = 0u64;
        for blk in &batch.blocks {
            prop_assert_eq!(blk.dst_nodes.len(), blk.num_dst());
            prop_assert_eq!(blk.src_nodes.len(), blk.num_src());
            edge_total += blk.num_edges() as u64;
            for r in 0..blk.num_dst() {
                let (cols, vals) = blk.adj.row(r);
                prop_assert_eq!(cols.len(), vals.len());
                // Sorted ascending, no duplicates, in bounds.
                for w in cols.windows(2) {
                    prop_assert!(w[0] < w[1], "row {r} not strictly sorted");
                }
                for &c in cols {
                    prop_assert!(c < blk.num_src(), "dangling column {c}");
                    // The id map resolves every referenced source.
                    prop_assert!((blk.src_nodes[c] as usize) < n);
                }
            }
            // Global ids are real nodes.
            for &d in &blk.dst_nodes {
                prop_assert!((0..n as i64).contains(&d));
            }
        }
        prop_assert_eq!(batch.edges, edge_total);
        // Chaining: each block's sources are the next block's destinations.
        for w in batch.blocks.windows(2) {
            prop_assert_eq!(&w[0].dst_nodes, &w[1].src_nodes);
        }
        prop_assert_eq!(&batch.blocks[batch.blocks.len() - 1].dst_nodes, &batch.seeds);
    }

    #[test]
    fn fanout_bounds_hold_per_row(
        n in 8usize..60,
        gseed in any::<u64>(),
        sseed in any::<u64>(),
        fanouts in proptest::collection::vec(0usize..5, 1..4),
    ) {
        let adj = random_adjacency(n, gseed);
        let sampler = FanoutSampler::new(&fanouts, sseed).unwrap();
        let batch = sampler.sample(&adj, &seed_set(n, 3), 9).unwrap();
        for (blk, &fanout) in batch.blocks.iter().zip(&fanouts) {
            for r in 0..blk.num_dst() {
                let deg = adj.row_nnz(blk.dst_nodes[r] as usize);
                let nnz = blk.adj.row_nnz(r);
                if fanout == 0 {
                    prop_assert_eq!(nnz, deg, "unlimited fanout keeps the row");
                } else {
                    prop_assert!(nnz <= fanout.min(deg), "row {r}: {nnz} > {}", fanout.min(deg));
                }
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed_and_batch(
        n in 8usize..60,
        gseed in any::<u64>(),
        sseed in any::<u64>(),
        batch_id in any::<u64>(),
    ) {
        let adj = random_adjacency(n, gseed);
        let sampler = FanoutSampler::new(&[3, 2], sseed).unwrap();
        let seeds = seed_set(n, 5);
        let a = sampler.sample(&adj, &seeds, batch_id).unwrap();
        let b = sampler.sample(&adj, &seeds, batch_id).unwrap();
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        // A sampler rebuilt from the same config agrees bit-for-bit.
        let rebuilt = FanoutSampler::new(&[3, 2], sseed).unwrap();
        let c = rebuilt.sample(&adj, &seeds, batch_id).unwrap();
        prop_assert_eq!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn sampling_is_thread_count_invariant(
        n in 8usize..48,
        gseed in any::<u64>(),
        sseed in any::<u64>(),
    ) {
        let adj = random_adjacency(n, gseed);
        let sampler = FanoutSampler::new(&[2, 2], sseed).unwrap();
        let seeds = seed_set(n, 4);
        gnnmark_tensor::par::set_threads(1);
        let single = sampler.sample(&adj, &seeds, 1).unwrap();
        gnnmark_tensor::par::set_threads(4);
        let multi = sampler.sample(&adj, &seeds, 1).unwrap();
        gnnmark_tensor::par::set_threads(1);
        prop_assert_eq!(fingerprint(&single), fingerprint(&multi));
    }
}

//! Minibatch and random-walk samplers (the layer-wise fanout sampler is
//! [`crate::fanout`]).
//!
//! PinSAGE's defining trick (paper §III) is random-walk importance
//! sampling: instead of using all neighbors, short random walks from each
//! target node rank its neighborhood by visit count, and only the top-T
//! most-visited nodes aggregate — letting training scale beyond GPU memory.

use gnnmark_tensor::{IntTensor, TensorError};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, Result};

/// Yields shuffled minibatches of node ids.
#[derive(Debug, Clone)]
pub struct MinibatchSampler {
    order: Vec<i64>,
    batch_size: usize,
}

impl MinibatchSampler {
    /// Creates a sampler over `0..num_items` with the given batch size.
    ///
    /// # Errors
    /// Returns an error if `batch_size` is 0 or there are no items.
    pub fn new<R: Rng + ?Sized>(num_items: usize, batch_size: usize, rng: &mut R) -> Result<Self> {
        if batch_size == 0 || num_items == 0 {
            return Err(TensorError::InvalidArgument {
                op: "MinibatchSampler::new",
                reason: "batch_size and num_items must be positive".to_string(),
            });
        }
        let mut order: Vec<i64> = (0..num_items as i64).collect();
        order.shuffle(rng);
        Ok(MinibatchSampler { order, batch_size })
    }

    /// Number of batches per epoch.
    pub fn num_batches(&self) -> usize {
        self.order.len().div_ceil(self.batch_size)
    }

    /// Starts a fresh epoch: reshuffles the order and returns it as an
    /// iterator that owns its snapshot, so its length is fixed at creation
    /// and the last (possibly partial) batch ends it.
    pub fn epoch<R: Rng + ?Sized>(&mut self, rng: &mut R) -> EpochBatches {
        self.order.shuffle(rng);
        EpochBatches {
            order: self.order.clone(),
            batch_size: self.batch_size,
            cursor: 0,
        }
    }
}

/// One epoch of shuffled minibatches, snapshotted from
/// [`MinibatchSampler::epoch`]: an explicit iterator whose length is fixed
/// at creation.
#[derive(Debug, Clone)]
pub struct EpochBatches {
    order: Vec<i64>,
    batch_size: usize,
    cursor: usize,
}

impl EpochBatches {
    /// Number of batches this epoch will yield (the last may be partial).
    pub fn num_batches(&self) -> usize {
        self.order.len().div_ceil(self.batch_size)
    }

    /// Batches not yet yielded.
    pub fn remaining(&self) -> usize {
        (self.order.len() - self.cursor).div_ceil(self.batch_size)
    }
}

impl Iterator for EpochBatches {
    type Item = IntTensor;

    fn next(&mut self) -> Option<IntTensor> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let ids = self.order[self.cursor..end].to_vec();
        self.cursor = end;
        let n = ids.len();
        Some(IntTensor::from_vec(&[n], ids).expect("lengths agree"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for EpochBatches {}

/// PinSAGE random-walk importance sampling.
#[derive(Debug, Clone, Copy)]
pub struct RandomWalkSampler {
    /// Number of walks started per seed.
    pub num_walks: usize,
    /// Length of each walk.
    pub walk_length: usize,
    /// Number of top-visited neighbors kept per seed.
    pub top_t: usize,
}

/// The importance-weighted neighborhood of one seed node.
#[derive(Debug, Clone)]
pub struct ImportanceNeighborhood {
    /// Seed node id.
    pub seed: i64,
    /// Selected important neighbors (≤ `top_t`).
    pub neighbors: Vec<i64>,
    /// Normalized visit counts aligned with `neighbors` (sums to 1).
    pub weights: Vec<f32>,
}

impl RandomWalkSampler {
    /// Creates a sampler; PinSAGE defaults in the paper's DGL
    /// implementation are short walks with small `top_t`.
    pub fn new(num_walks: usize, walk_length: usize, top_t: usize) -> Self {
        RandomWalkSampler {
            num_walks,
            walk_length,
            top_t,
        }
    }

    /// Runs random walks from each seed and returns its top-T visited
    /// nodes with normalized importance weights.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        seeds: &IntTensor,
        rng: &mut R,
    ) -> Vec<ImportanceNeighborhood> {
        seeds
            .as_slice()
            .iter()
            .map(|&seed| {
                let mut visits: std::collections::HashMap<i64, u32> =
                    std::collections::HashMap::new();
                for _ in 0..self.num_walks {
                    let mut cur = seed as usize;
                    for _ in 0..self.walk_length {
                        let neigh = graph.neighbors(cur);
                        if neigh.is_empty() {
                            break;
                        }
                        cur = neigh[rng.gen_range(0..neigh.len())];
                        if cur as i64 != seed {
                            *visits.entry(cur as i64).or_insert(0) += 1;
                        }
                    }
                }
                let mut ranked: Vec<(i64, u32)> = visits.into_iter().collect();
                ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                ranked.truncate(self.top_t);
                if ranked.is_empty() {
                    ranked.push((seed, 1));
                }
                let total: u32 = ranked.iter().map(|(_, c)| *c).sum();
                ImportanceNeighborhood {
                    seed,
                    neighbors: ranked.iter().map(|(n, _)| *n).collect(),
                    weights: ranked
                        .iter()
                        .map(|(_, c)| *c as f32 / total as f32)
                        .collect(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_tensor::Tensor;
    use rand::SeedableRng;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_undirected_edges(n, &edges, Tensor::ones(&[n, 2])).unwrap()
    }

    #[test]
    fn every_epoch_covers_everything_once_with_a_partial_last_batch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        // 10 items, batch 3 → 4 batches, last of size 1.
        let mut s = MinibatchSampler::new(10, 3, &mut rng).unwrap();
        assert_eq!(s.num_batches(), 4);
        for _ in 0..3 {
            let epoch = s.epoch(&mut rng);
            assert_eq!(epoch.num_batches(), 4);
            assert_eq!(epoch.len(), 4);
            let sizes: Vec<usize> = epoch.clone().map(|b| b.numel()).collect();
            assert_eq!(sizes, vec![3, 3, 3, 1]);
            let mut seen: Vec<i64> = epoch.flat_map(|b| b.as_slice().to_vec()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..10).collect::<Vec<i64>>());
        }
    }

    #[test]
    fn minibatch_validates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert!(MinibatchSampler::new(0, 2, &mut rng).is_err());
        assert!(MinibatchSampler::new(5, 0, &mut rng).is_err());
    }

    #[test]
    fn random_walks_rank_near_nodes_higher() {
        let g = ring(20);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let seeds = IntTensor::from_vec(&[1], vec![0]).unwrap();
        let hoods = RandomWalkSampler::new(64, 3, 4).sample(&g, &seeds, &mut rng);
        assert_eq!(hoods.len(), 1);
        let h = &hoods[0];
        assert!(h.neighbors.len() <= 4);
        // Weights normalized.
        let total: f32 = h.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
        // Ring: immediate neighbors 1 and 19 are most visited.
        assert!(h.neighbors.contains(&1) || h.neighbors.contains(&19));
    }

    #[test]
    fn isolated_seed_falls_back_to_self() {
        let g = Graph::from_undirected_edges(3, &[(1, 2)], Tensor::ones(&[3, 1])).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let seeds = IntTensor::from_vec(&[1], vec![0]).unwrap();
        let hoods = RandomWalkSampler::new(4, 2, 2).sample(&g, &seeds, &mut rng);
        assert_eq!(hoods[0].neighbors, vec![0]);
    }
}

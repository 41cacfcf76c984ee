//! Layer-wise fanout neighbor sampling over a [`CsrMatrix`] adjacency —
//! the DGL/GraphSAGE "blocks" construction, generalized so every workload
//! can use it.
//!
//! Sampling proceeds from the output layer toward the input: the seed
//! nodes are the destinations of the last block; each level samples up to
//! `fanout` neighbors per destination, and the union of destinations and
//! sampled sources becomes the next level's destination frontier. A
//! fanout of `0` means *unlimited* (keep every neighbor), which is what
//! makes full-coverage parity with full-graph training exact: with seeds
//! `0..n` in order and unlimited fanout, every block is bit-identical to
//! the original normalized adjacency.
//!
//! Determinism: each (sampler seed, batch id, level, node) tuple seeds its
//! own RNG, so the sampled structure is a pure function of those inputs —
//! independent of iteration order, thread count, or how many batches were
//! drawn before this one.

use std::collections::HashMap;
use std::rc::Rc;

use gnnmark_tensor::{CsrMatrix, IntTensor, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Result;

/// One sampled bipartite block: a `[num_dst × num_src]` CSR slice of the
/// source adjacency, with global node ids for both sides.
///
/// When the destination ids are distinct, they form a prefix of
/// `src_nodes` (every destination also appears as a source, so self-loop
/// weights survive and SAGE-style `x_dst = x_src[..num_dst]` slicing
/// works).
#[derive(Debug, Clone)]
pub struct SampledBlock {
    /// Sampled adjacency slice, `[num_dst × num_src]`, local indices.
    pub adj: Rc<CsrMatrix>,
    /// Transpose of `adj` (for the backward pass of SpMM).
    pub adj_t: Rc<CsrMatrix>,
    /// Global ids of the destination nodes (one per row of `adj`).
    pub dst_nodes: Vec<i64>,
    /// Global ids of the source nodes (one per column of `adj`).
    pub src_nodes: Vec<i64>,
}

impl SampledBlock {
    /// Number of destination nodes (rows).
    pub fn num_dst(&self) -> usize {
        self.adj.rows()
    }

    /// Number of source nodes (columns).
    pub fn num_src(&self) -> usize {
        self.adj.cols()
    }

    /// Number of sampled edges.
    pub fn num_edges(&self) -> usize {
        self.adj.nnz()
    }
}

/// The blocks sampled for one minibatch, input side first: `blocks[0]`
/// consumes gathered input features, and the rows of the last block align
/// with `seeds`.
#[derive(Debug, Clone)]
pub struct SampledBatch {
    /// The seed (output) node ids, in caller order.
    pub seeds: Vec<i64>,
    /// One block per fanout level, input side first.
    pub blocks: Vec<SampledBlock>,
    /// Total edges sampled across all blocks.
    pub edges: u64,
}

impl SampledBatch {
    /// Global ids of the nodes whose input features must be gathered (the
    /// source side of the first block), as an index tensor for
    /// `gather_rows`.
    ///
    /// # Errors
    /// Propagates tensor-construction errors (cannot occur for a valid
    /// batch).
    pub fn input_index(&self) -> Result<IntTensor> {
        let ids = self.blocks[0].src_nodes.clone();
        IntTensor::from_vec(&[ids.len()], ids)
    }
}

/// SplitMix64 finalizer — mixes the per-node seed tuple into an RNG seed.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

fn node_rng(seed: u64, batch_id: u64, level: usize, node: usize) -> StdRng {
    let h = mix(seed ^ mix(batch_id ^ mix((level as u64) << 32 ^ node as u64)));
    StdRng::seed_from_u64(h)
}

/// Layer-wise fanout sampler: one fanout per GNN layer, input side first
/// (`fanouts[0]` feeds the first layer). Fanout `0` keeps every neighbor.
#[derive(Debug, Clone)]
pub struct FanoutSampler {
    fanouts: Vec<usize>,
    seed: u64,
}

impl FanoutSampler {
    /// Creates a sampler.
    ///
    /// # Errors
    /// Returns an error if `fanouts` is empty.
    pub fn new(fanouts: &[usize], seed: u64) -> Result<Self> {
        if fanouts.is_empty() {
            return Err(TensorError::InvalidArgument {
                op: "FanoutSampler::new",
                reason: "fanouts must name at least one level".to_string(),
            });
        }
        Ok(FanoutSampler {
            fanouts: fanouts.to_vec(),
            seed,
        })
    }

    /// The per-level fanouts, input side first.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// Samples the blocks for one minibatch of `seeds`. `batch_id` must be
    /// unique per batch (e.g. a running counter) so different batches draw
    /// different neighbors; repeating a `batch_id` reproduces the batch
    /// exactly.
    ///
    /// # Errors
    /// Returns an error if `adj` is not square, or on empty or out-of-range
    /// seeds.
    pub fn sample(&self, adj: &CsrMatrix, seeds: &[i64], batch_id: u64) -> Result<SampledBatch> {
        if adj.rows() != adj.cols() {
            return Err(TensorError::InvalidArgument {
                op: "FanoutSampler::sample",
                reason: format!(
                    "adjacency must be square, got {}x{}",
                    adj.rows(),
                    adj.cols()
                ),
            });
        }
        if seeds.is_empty() {
            return Err(TensorError::InvalidArgument {
                op: "FanoutSampler::sample",
                reason: "seeds must be non-empty".to_string(),
            });
        }
        let n = adj.rows();
        let mut frontier: Vec<usize> = Vec::with_capacity(seeds.len());
        for &s in seeds {
            let node = usize::try_from(s).ok().filter(|&x| x < n).ok_or_else(|| {
                TensorError::InvalidArgument {
                    op: "FanoutSampler::sample",
                    reason: format!("seed {s} out of range ({n} nodes)"),
                }
            })?;
            frontier.push(node);
        }

        let mut blocks: Vec<SampledBlock> = Vec::with_capacity(self.fanouts.len());
        let mut edges = 0u64;
        // Output side first: the last fanout applies to the seed frontier.
        for (level, &fanout) in self.fanouts.iter().enumerate().rev() {
            let num_dst = frontier.len();
            // Local ids: destinations first (first occurrence order), then
            // newly-touched sources sorted ascending for a canonical layout.
            let mut local: HashMap<usize, usize> = HashMap::with_capacity(num_dst * 2);
            let mut src_nodes: Vec<usize> = Vec::with_capacity(num_dst * 2);
            for &d in &frontier {
                let next = src_nodes.len();
                if let std::collections::hash_map::Entry::Vacant(e) = local.entry(d) {
                    e.insert(next);
                    src_nodes.push(d);
                }
            }
            let mut sampled: Vec<(usize, usize, f32)> = Vec::new(); // (row, global col, val)
            let mut extras: Vec<usize> = Vec::new();
            for (row, &d) in frontier.iter().enumerate() {
                let (row_cols, row_vals) = adj.row(d);
                let deg = row_cols.len();
                if fanout == 0 || fanout >= deg {
                    for (&c, &v) in row_cols.iter().zip(row_vals) {
                        sampled.push((row, c, v));
                    }
                } else {
                    // Without-replacement pick of `fanout` neighbors via a
                    // partial Fisher–Yates over the row positions; weights
                    // are rescaled by deg/fanout so the aggregation stays an
                    // unbiased estimate of the full-neighborhood sum.
                    let mut rng = node_rng(self.seed, batch_id, level, d);
                    let mut idx: Vec<u32> = (0..deg as u32).collect();
                    let scale = deg as f32 / fanout as f32;
                    for j in 0..fanout {
                        let pick = rng.gen_range(j..deg);
                        idx.swap(j, pick);
                        let p = idx[j] as usize;
                        sampled.push((row, row_cols[p], row_vals[p] * scale));
                    }
                }
            }
            for &(_, c, _) in &sampled {
                if let std::collections::hash_map::Entry::Vacant(e) = local.entry(c) {
                    e.insert(usize::MAX); // placeholder; fixed below
                    extras.push(c);
                }
            }
            extras.sort_unstable();
            for &c in &extras {
                let id = src_nodes.len();
                local.insert(c, id);
                src_nodes.push(c);
            }
            let num_src = src_nodes.len();
            let triplets: Vec<(usize, usize, f32)> =
                sampled.iter().map(|&(r, c, v)| (r, local[&c], v)).collect();
            let block_adj = CsrMatrix::from_coo(num_dst, num_src, &triplets)?;
            edges += block_adj.nnz() as u64;
            let adj_t = Rc::new(block_adj.transpose());
            blocks.push(SampledBlock {
                adj: Rc::new(block_adj),
                adj_t,
                dst_nodes: frontier.iter().map(|&d| d as i64).collect(),
                src_nodes: src_nodes.iter().map(|&s| s as i64).collect(),
            });
            frontier = src_nodes;
        }
        blocks.reverse();
        Ok(SampledBatch {
            seeds: seeds.to_vec(),
            blocks,
            edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;
    use gnnmark_tensor::Tensor;

    fn ring_adjacency(n: usize) -> CsrMatrix {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Graph::from_undirected_edges(n, &edges, Tensor::ones(&[n, 3])).unwrap();
        g.normalized_adjacency().unwrap()
    }

    #[test]
    fn full_coverage_unlimited_fanout_reproduces_adjacency() {
        let adj = ring_adjacency(8);
        let sampler = FanoutSampler::new(&[0, 0], 7).unwrap();
        let seeds: Vec<i64> = (0..8).collect();
        let batch = sampler.sample(&adj, &seeds, 0).unwrap();
        assert_eq!(batch.blocks.len(), 2);
        for b in &batch.blocks {
            assert_eq!(b.adj.as_ref(), &adj);
            assert_eq!(b.src_nodes, seeds);
        }
    }

    #[test]
    fn fanout_bounds_and_chaining() {
        let adj = ring_adjacency(12);
        let sampler = FanoutSampler::new(&[2, 1], 3).unwrap();
        let batch = sampler.sample(&adj, &[4, 9], 5).unwrap();
        let last = &batch.blocks[1];
        assert_eq!(last.dst_nodes, vec![4, 9]);
        for r in 0..last.num_dst() {
            assert!(last.adj.row_nnz(r) <= 1);
        }
        // Chaining: block 0's destinations are block 1's sources.
        assert_eq!(batch.blocks[0].dst_nodes, batch.blocks[1].src_nodes);
        for r in 0..batch.blocks[0].num_dst() {
            assert!(batch.blocks[0].adj.row_nnz(r) <= 2);
        }
        // Destination prefix property for distinct seeds.
        assert_eq!(&last.src_nodes[..2], &[4, 9]);
    }

    #[test]
    fn deterministic_per_batch_id() {
        let adj = ring_adjacency(16);
        let sampler = FanoutSampler::new(&[2], 11).unwrap();
        let a = sampler.sample(&adj, &[3, 7, 12], 4).unwrap();
        let b = sampler.sample(&adj, &[3, 7, 12], 4).unwrap();
        assert_eq!(a.blocks[0].adj, b.blocks[0].adj);
        assert_eq!(a.blocks[0].src_nodes, b.blocks[0].src_nodes);
        let c = sampler.sample(&adj, &[3, 7, 12], 5).unwrap();
        // Different batch id is allowed to differ (ring degree 3 > fanout 2).
        assert_eq!(c.seeds, a.seeds);
    }

    #[test]
    fn rejects_bad_inputs() {
        let adj = ring_adjacency(4);
        assert!(FanoutSampler::new(&[], 0).is_err());
        let s = FanoutSampler::new(&[2], 0).unwrap();
        assert!(s.sample(&adj, &[], 0).is_err());
        assert!(s.sample(&adj, &[99], 0).is_err());
        assert!(s.sample(&adj, &[-1], 0).is_err());
        let wide = CsrMatrix::from_coo(2, 3, &[(0, 2, 1.0)]).unwrap();
        assert!(s.sample(&wide, &[0], 0).is_err());
    }
}

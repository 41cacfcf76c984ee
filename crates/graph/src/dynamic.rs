//! Spatio-temporal graphs: [`SpatioTemporal`] is a fixed spatial graph
//! whose node *signals* evolve over time (traffic sensor networks; STGCN's
//! input), sampled as sliding windows.

use gnnmark_tensor::{Tensor, TensorError};

use crate::{Graph, Result};

/// A fixed graph with a time series of node signals.
///
/// `signal[t]` is the `[nodes, channels]` observation at timestep `t`.
#[derive(Debug, Clone)]
pub struct SpatioTemporal {
    graph: Graph,
    signal: Vec<Tensor>,
}

impl SpatioTemporal {
    /// Builds a spatio-temporal dataset.
    ///
    /// # Errors
    /// Returns an error if any timestep's signal does not match the graph's
    /// node count or if timesteps disagree on channel width.
    pub fn new(graph: Graph, signal: Vec<Tensor>) -> Result<Self> {
        let channels = signal.first().map(|t| t.dim(1));
        for (t, s) in signal.iter().enumerate() {
            if s.rank() != 2 || s.dim(0) != graph.num_nodes() || Some(s.dim(1)) != channels {
                return Err(TensorError::InvalidArgument {
                    op: "SpatioTemporal::new",
                    reason: format!("signal at t={t} has shape {:?}", s.dims()),
                });
            }
        }
        Ok(SpatioTemporal { graph, signal })
    }

    /// The (static) spatial graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of timesteps.
    pub fn num_steps(&self) -> usize {
        self.signal.len()
    }

    /// Signal channels per node.
    pub fn channels(&self) -> usize {
        self.signal.first().map_or(0, |t| t.dim(1))
    }

    /// Signal at a timestep.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    pub fn signal(&self, t: usize) -> &Tensor {
        &self.signal[t]
    }

    /// Extracts a training window: input of `history` steps and target of
    /// the following `horizon` steps, both as `[steps, nodes, channels]`
    /// stacked tensors flattened to `[steps, nodes*channels]`.
    ///
    /// # Errors
    /// Returns an error if the window does not fit the series.
    pub fn window(&self, start: usize, history: usize, horizon: usize) -> Result<(Tensor, Tensor)> {
        let end = start + history + horizon;
        if end > self.num_steps() {
            return Err(TensorError::IndexOutOfBounds {
                op: "SpatioTemporal::window",
                index: end,
                bound: self.num_steps(),
            });
        }
        let stack = |lo: usize, hi: usize| -> Result<Tensor> {
            let parts: Vec<Tensor> = (lo..hi)
                .map(|t| {
                    let s = &self.signal[t];
                    s.reshape(&[1, s.numel()])
                })
                .collect::<Result<_>>()?;
            let refs: Vec<&Tensor> = parts.iter().collect();
            Tensor::concat_rows(&refs)
        };
        Ok((stack(start, start + history)?, stack(start + history, end)?))
    }

    /// Number of distinct `(history, horizon)` windows available.
    pub fn num_windows(&self, history: usize, horizon: usize) -> usize {
        self.num_steps().saturating_sub(history + horizon) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_st() -> SpatioTemporal {
        let g = Graph::from_undirected_edges(2, &[(0, 1)], Tensor::ones(&[2, 1])).unwrap();
        let signal = (0..10).map(|t| Tensor::full(&[2, 1], t as f32)).collect();
        SpatioTemporal::new(g, signal).unwrap()
    }

    #[test]
    fn windows() {
        let st = tiny_st();
        assert_eq!(st.num_steps(), 10);
        assert_eq!(st.channels(), 1);
        let (x, y) = st.window(2, 3, 2).unwrap();
        assert_eq!(x.dims(), &[3, 2]);
        assert_eq!(y.dims(), &[2, 2]);
        assert_eq!(x.get(&[0, 0]), 2.0);
        assert_eq!(y.get(&[0, 0]), 5.0);
        assert_eq!(st.num_windows(3, 2), 6);
        assert!(st.window(8, 3, 2).is_err());
    }

    #[test]
    fn signal_shape_validated() {
        let g = Graph::from_undirected_edges(2, &[(0, 1)], Tensor::ones(&[2, 1])).unwrap();
        let bad = vec![Tensor::ones(&[3, 1])];
        assert!(SpatioTemporal::new(g.clone(), bad).is_err());
        let mixed = vec![Tensor::ones(&[2, 1]), Tensor::ones(&[2, 2])];
        assert!(SpatioTemporal::new(g, mixed).is_err());
    }
}

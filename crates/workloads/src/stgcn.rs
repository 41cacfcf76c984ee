//! STGCN: spatio-temporal graph convolutional network for traffic
//! forecasting (Yu et al., IJCAI 2018).
//!
//! Two ST-Conv blocks (temporal GLU → spatial GCN → temporal GLU) followed
//! by an output temporal convolution and a linear head, trained with MSE
//! on sliding windows of a METR-LA-like sensor signal. The 2-D
//! convolutions of the temporal stages dominate — ~60 % of STGCN's
//! execution time in the paper's Figure 2.

use std::rc::Rc;

use gnnmark_autograd::{Adam, NoGradGuard, Optimizer, ParamSet, Tape, Var};
use gnnmark_gpusim::ScalingBehavior;
use gnnmark_graph::datasets::metr_la_like;
use gnnmark_graph::SpatioTemporal;
use gnnmark_nn::{losses, Linear, Module, StConvBlock, TemporalConv};
use gnnmark_profiler::ProfileSession;
use gnnmark_tensor::{CsrMatrix, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Result, Scale, Workload, WorkloadInfo};

/// The STGCN workload.
pub struct Stgcn {
    data: SpatioTemporal,
    adj: Rc<CsrMatrix>,
    block1: StConvBlock,
    block2: StConvBlock,
    out_conv: TemporalConv,
    head: Linear,
    opt: Adam,
    rng: StdRng,
    history: usize,
    batch_size: usize,
    batches_per_epoch: usize,
}

impl Stgcn {
    /// Builds STGCN on a METR-LA-like dataset.
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn new(scale: Scale, seed: u64) -> Result<Self> {
        Self::new_with_mode(scale, seed, &crate::TrainMode::FullGraph)
    }

    /// Builds STGCN in an explicit [`crate::TrainMode`]. Minibatch mode
    /// overrides the window batch size; fanouts don't apply to the dense
    /// sensor graph and are ignored.
    ///
    /// # Errors
    /// Propagates dataset/model construction errors.
    pub fn new_with_mode(scale: Scale, seed: u64, mode: &crate::TrainMode) -> Result<Self> {
        let (graph_scale, steps, c1, c2, mut batch, batches) = match scale {
            Scale::Test => (0.06, 48, 4, 4, 2, 2),
            Scale::Small => (0.25, 160, 32, 32, 4, 6),
            Scale::Paper => (1.0, 288, 64, 64, 8, 10),
        };
        if let Some(cfg) = mode.minibatch() {
            batch = cfg.batch_size.max(1);
        }
        let data = metr_la_like(graph_scale, steps, seed)?;
        let adj = Rc::new(data.graph().normalized_adjacency()?);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5709c);
        let history = 12usize;
        // Each ST block consumes 4 timesteps (two kt=3 convolutions); the
        // output conv consumes the remaining 4 exactly: 12 → 8 → 4 → 1.
        let block1 = StConvBlock::new("stgcn.b1", 1, c1, c1, 3, &mut rng)?;
        let block2 = StConvBlock::new("stgcn.b2", c1, c2, c2, 3, &mut rng)?;
        let out_conv = TemporalConv::new("stgcn.out", c2, c2, 4, &mut rng)?;
        let head = Linear::new("stgcn.head", c2, 1, &mut rng)?;
        Ok(Stgcn {
            data,
            adj,
            block1,
            block2,
            out_conv,
            head,
            opt: Adam::new(1e-3),
            rng,
            history,
            batch_size: batch,
            batches_per_epoch: batches,
        })
    }

    /// Nodes in the sensor graph.
    pub fn num_nodes(&self) -> usize {
        self.data.graph().num_nodes()
    }

    /// Number of window start positions in the signal.
    fn max_start(&self) -> usize {
        self.data.num_windows(self.history, HORIZON)
    }

    /// Assembles the windows starting at `starts` into a standardized
    /// batch: inputs `[b, 1, history, n]` and targets `[b, n]`.
    fn windows(&self, starts: &[usize]) -> Result<(Tensor, Tensor)> {
        let (b, n) = (starts.len(), self.num_nodes());
        let mut xs = Vec::with_capacity(b * self.history * n);
        let mut ys = Vec::with_capacity(b * n);
        for &start in starts {
            let (x, y) = self.data.window(start, self.history, HORIZON)?;
            xs.extend_from_slice(x.as_slice());
            ys.extend_from_slice(y.as_slice());
        }
        // Standardize speeds so the regression is well-conditioned.
        let standardize = |t: Tensor| t.add_scalar(-50.0).mul_scalar(1.0 / 20.0);
        Ok((
            standardize(Tensor::from_vec(&[b, 1, self.history, n], xs)?),
            standardize(Tensor::from_vec(&[b, n], ys)?),
        ))
    }

    /// `count` fixed windows spread evenly over the signal, as a batch.
    fn spread_windows(&self, count: usize, of: usize) -> Result<(Tensor, Tensor)> {
        let max_start = self.max_start();
        let starts: Vec<usize> = (0..count).map(|i| i * max_start / of).collect();
        self.windows(&starts)
    }

    /// The model's one forward, from a window batch `[b, 1, history, n]`
    /// to predicted speeds `[b, n]`: training, `probe`, `quality` and
    /// `infer` all run this.
    fn predict(&self, tape: &Tape, x: Tensor) -> Result<Var> {
        let (b, n) = (x.dim(0), x.dim(3));
        let x = tape.constant(x);
        let h = self.block1.forward(tape, &self.adj, &x)?;
        let h = self.block2.forward(tape, &self.adj, &h)?;
        let h = self.out_conv.forward(tape, &h)?; // [b, c2, 1, n]
                                                  // Head: per (batch, node) channel vector → predicted speed.
        let h2 = reorder_bc1n_to_bn_c(&h, b, self.out_conv.c_out(), n)?;
        self.head.forward(tape, &h2)?.reshape(&[b, n]) // from [b·n, 1]
    }

    /// MSE of [`Stgcn::predict`] against the windows' targets.
    fn loss(&self, tape: &Tape, (x, y): (Tensor, Tensor)) -> Result<Var> {
        losses::mse(&self.predict(tape, x)?, &y)
    }
}

/// Forecast horizon, in time steps.
const HORIZON: usize = 1;

/// Windows in the fixed probe batch.
const PROBE_WINDOWS: usize = 2;

impl Workload for Stgcn {
    fn name(&self) -> String {
        "STGCN".to_string()
    }

    fn info(&self) -> WorkloadInfo {
        crate::table_one()
            .into_iter()
            .find(|r| r.abbrev == "STGCN")
            .expect("STGCN row present")
    }

    fn params(&self) -> ParamSet {
        let mut set = self.block1.params();
        set.extend(&self.block2.params());
        set.extend(&self.out_conv.params());
        set.extend(&self.head.params());
        set
    }

    fn steps_per_epoch(&self) -> u64 {
        self.batches_per_epoch as u64
    }

    fn scaling_behavior(&self) -> Option<ScalingBehavior> {
        Some(ScalingBehavior::DataParallel)
    }

    fn quality(&mut self) -> Result<Option<(&'static str, f64)>> {
        // RMSE (in standardized speed units) over fixed evaluation windows.
        let mse = self.loss(&Tape::new(), self.spread_windows(4, 4)?)?;
        let mse = mse.value().item()? as f64;
        Ok(Some(("forecast RMSE (std units)", mse.sqrt())))
    }

    fn probe(&mut self) -> Result<f64> {
        let tape = Tape::new();
        let loss = self.loss(&tape, self.spread_windows(PROBE_WINDOWS, PROBE_WINDOWS)?)?;
        tape.backward(&loss)?;
        Ok(loss.value().item()? as f64)
    }

    fn infer(&mut self, batch: crate::InferBatch) -> Result<f64> {
        // `probe`'s windows for `Full`, the first of them for `Single`.
        let windows = self.spread_windows(self.infer_items(batch) as usize, PROBE_WINDOWS)?;
        let _no_grad = NoGradGuard::new();
        Ok(self.loss(&Tape::new(), windows)?.value().item()? as f64)
    }

    fn infer_items(&self, batch: crate::InferBatch) -> u64 {
        match batch {
            crate::InferBatch::Single => 1,
            crate::InferBatch::Full => PROBE_WINDOWS as u64,
        }
    }

    fn run_epoch(&mut self, session: &mut ProfileSession) -> Result<f64> {
        let max_start = self.max_start();
        let mut epoch_loss = 0.0f64;
        for _ in 0..self.batches_per_epoch {
            let _step = gnnmark_telemetry::span!("step");
            let starts: Vec<usize> = (0..self.batch_size)
                .map(|_| self.rng.gen_range(0..max_start))
                .collect();
            let (x_batch, y_batch) = self.windows(&starts)?;
            session.upload(&x_batch);
            session.upload(&y_batch);

            self.params().zero_grad();
            session.begin_step();
            let tape = Tape::new();
            let loss = {
                let _fwd = gnnmark_telemetry::span!("forward");
                self.loss(&tape, (x_batch, y_batch))?
            };
            {
                let _bwd = gnnmark_telemetry::span!("backward");
                tape.backward(&loss)?;
            }
            {
                let _opt = gnnmark_telemetry::span!("optimizer");
                self.opt.step(&self.params())?;
            }
            session.end_step();
            epoch_loss += loss.value().item()? as f64;
        }
        Ok(epoch_loss / self.batches_per_epoch as f64)
    }
}

/// Rearranges `[b, c, 1, n]` activations into `[b·n, c]` rows for the
/// linear head (an explicit permute-gather, like a real NCHW→NHWC kernel).
fn reorder_bc1n_to_bn_c(h: &Var, b: usize, c: usize, n: usize) -> Result<Var> {
    let mut idx = Vec::with_capacity(b * n * c);
    for bi in 0..b {
        for ni in 0..n {
            for ci in 0..c {
                idx.push(((bi * c + ci) * n + ni) as i64);
            }
        }
    }
    let len = idx.len();
    let idx = gnnmark_tensor::IntTensor::from_vec(&[len], idx)?;
    h.reshape(&[b * c * n, 1])?
        .gather_rows(&idx)?
        .reshape(&[b * n, c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_gpusim::DeviceSpec;
    use gnnmark_profiler::FigureCategory;

    #[test]
    fn stgcn_trains_and_launches_convolutions() {
        let mut w = Stgcn::new(Scale::Test, 5).unwrap();
        let mut session = ProfileSession::new("stgcn", DeviceSpec::v100());
        let first = w.run_epoch(&mut session).unwrap();
        let mut last = first;
        for _ in 0..4 {
            last = w.run_epoch(&mut session).unwrap();
        }
        assert!(last < first, "loss {first} → {last}");
        let p = session.finish();
        // Conv2D kernels present in meaningful volume at every scale; the
        // ~60 % dominance check runs at Small scale in the integration
        // suite (tiny test tensors are launch-bound by design).
        assert!(p.time_share(FigureCategory::Conv2d) > 0.0);
        let conv_stats = &p.per_class[&FigureCategory::Conv2d];
        assert!(
            conv_stats.launches >= 30,
            "launches {}",
            conv_stats.launches
        );
    }

    #[test]
    fn stgcn_metadata() {
        let w = Stgcn::new(Scale::Test, 5).unwrap();
        assert_eq!(w.name(), "STGCN");
        assert!(matches!(
            w.scaling_behavior(),
            Some(ScalingBehavior::DataParallel)
        ));
        assert!(w.params().total_scalars() > 100);
        assert!(w.num_nodes() >= 8);
    }
}

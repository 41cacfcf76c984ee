//! Optimizers: plain SGD and Adam.
//!
//! Optimizer steps run through the instrumented tensor engine, so profiled
//! training includes the element-wise parameter-update kernels — Adam in
//! particular contributes a noticeable slice of the element-wise operation
//! time that Figure 2 of the paper attributes to training.

use std::cell::Cell;
use std::collections::HashMap;

use gnnmark_tensor::Tensor;

use crate::{amp, ParamSet, Result};

thread_local! {
    static GRAD_CLIP: Cell<Option<f64>> = const { Cell::new(None) };
}

/// Enables (or disables, with `None`) gradient clipping for every optimizer
/// step on the *current thread*: before updating parameters, [`Sgd::step`]
/// and [`Adam::step`] rescale gradients so their global L2 norm does not
/// exceed `max_norm` (see [`ParamSet::clip_grad_norm`]).
///
/// Thread-local on purpose: the resilient suite runner executes each
/// workload on its own worker thread and enables clipping only for the
/// fallback retry of a workload that diverged, without perturbing
/// concurrently training workloads.
pub fn set_thread_grad_clip(max_norm: Option<f64>) {
    GRAD_CLIP.with(|c| c.set(max_norm));
}

/// The current thread's gradient-clipping threshold, if any.
pub fn thread_grad_clip() -> Option<f64> {
    GRAD_CLIP.with(Cell::get)
}

/// Prepares gradients for a mixed-precision optimizer step.
///
/// With loss scaling active (see [`crate::amp`]), gradients arrive from the
/// backward pass multiplied by the loss scale. This divides the scale back
/// out, but first checks finiteness: a non-finite scaled gradient means the
/// scale overshot — the gradients are discarded, the scale halves, and the
/// step is skipped (returns `false`). Runs *before* gradient clipping so
/// the clip threshold applies to true-magnitude gradients.
///
/// A no-op returning `true` when loss scaling is inactive.
fn amp_prepare(params: &ParamSet) -> Result<bool> {
    if !amp::is_active() {
        return Ok(true);
    }
    let finite = params.iter().all(|p| {
        p.grad()
            .is_none_or(|g| g.as_slice().iter().all(|v| v.is_finite()))
    });
    if !finite {
        params.zero_grad();
        amp::on_overflow();
        return Ok(false);
    }
    let scale = amp::thread_loss_scale();
    if scale != 1.0 {
        let inv = 1.0 / scale;
        for p in params {
            if let Some(g) = p.grad() {
                p.zero_grad();
                p.accumulate_grad(g.mul_scalar(inv))?;
            }
        }
    }
    amp::on_good_step();
    Ok(true)
}

/// Common interface of parameter-updating optimizers.
pub trait Optimizer {
    /// Applies one update step using the gradients accumulated in `params`,
    /// then leaves the gradients untouched (call
    /// [`ParamSet::zero_grad`] before the next forward pass).
    ///
    /// # Errors
    /// Propagates tensor shape errors (indicating corrupted gradients).
    fn step(&mut self, params: &ParamSet) -> Result<()>;

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent: `p ← p − lr · g`.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &ParamSet) -> Result<()> {
        if !amp_prepare(params)? {
            return Ok(());
        }
        if let Some(max_norm) = thread_grad_clip() {
            params.clip_grad_norm(max_norm)?;
        }
        for p in params {
            if let Some(grad) = p.grad() {
                let new_value = p.value().sgd_step_fused(&grad, self.lr)?;
                p.set_value(new_value);
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// The Adam optimizer (Kingma & Ba, 2015) with bias correction.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: HashMap<u64, Tensor>,
    v: HashMap<u64, Tensor>,
}

impl Adam {
    /// Adam with standard hyper-parameters (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &ParamSet) -> Result<()> {
        if !amp_prepare(params)? {
            return Ok(());
        }
        if let Some(max_norm) = thread_grad_clip() {
            params.clip_grad_norm(max_norm)?;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in params {
            let Some(grad) = p.grad() else { continue };
            let mut m = self
                .m
                .remove(&p.id())
                .unwrap_or_else(|| Tensor::zeros(grad.dims()));
            let mut v = self
                .v
                .remove(&p.id())
                .unwrap_or_else(|| Tensor::zeros(grad.dims()));
            let new_value = p.value().adam_step_fused(
                &grad, &mut m, &mut v, self.lr, self.beta1, self.beta2, self.eps, bc1, bc2,
            )?;
            p.set_value(new_value);
            self.m.insert(p.id(), m);
            self.v.insert(p.id(), v);
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Param, Tape};

    /// Minimizes `(w - 3)²` and checks convergence.
    fn converges(opt: &mut dyn Optimizer) -> f32 {
        let mut set = ParamSet::new();
        let w = set.register(Param::new("w", Tensor::from_vec(&[1], vec![0.0]).unwrap()));
        for _ in 0..200 {
            set.zero_grad();
            let tape = Tape::new();
            let wv = tape.read(&w);
            let loss = wv.add_scalar(-3.0).square().sum_all();
            tape.backward(&loss).unwrap();
            opt.step(&set).unwrap();
        }
        let out = w.value().as_slice()[0];
        out
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let w = converges(&mut opt);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = converges(&mut opt);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    fn thread_grad_clip_caps_update_magnitude() {
        let run = |clip: Option<f64>| -> f32 {
            let mut set = ParamSet::new();
            let w = set.register(Param::new("w", Tensor::from_vec(&[1], vec![0.0]).unwrap()));
            let tape = Tape::new();
            let wv = tape.read(&w);
            // d(loss)/dw = 100 at w = 0: an exploding gradient.
            let loss = wv.mul_scalar(100.0).sum_all();
            tape.backward(&loss).unwrap();
            set_thread_grad_clip(clip);
            let mut opt = Sgd::new(1.0);
            opt.step(&set).unwrap();
            set_thread_grad_clip(None);
            let out = w.value().as_slice()[0];
            out
        };
        let unclipped = run(None);
        let clipped = run(Some(1.0));
        assert!((unclipped + 100.0).abs() < 1e-3, "w = {unclipped}");
        assert!((clipped + 1.0).abs() < 1e-3, "w = {clipped}");
        assert_eq!(thread_grad_clip(), None, "clip leaked out of the test");
    }

    #[test]
    fn loss_scaling_unscales_before_update() {
        use gnnmark_tensor::half::Precision;
        amp::enable(Precision::Fp16);
        let mut set = ParamSet::new();
        let w = set.register(Param::new("w", Tensor::from_vec(&[1], vec![0.0]).unwrap()));
        let tape = Tape::new();
        let wv = tape.read(&w);
        // d(loss)/dw = 2.
        let loss = wv.mul_scalar(2.0).sum_all();
        tape.backward(&loss).unwrap();
        // The raw gradient arrives amplified by the loss scale...
        let raw = w.grad().unwrap().as_slice()[0];
        assert_eq!(raw, 2.0 * amp::thread_loss_scale());
        // ...but the applied update matches the true gradient.
        let mut opt = Sgd::new(0.5);
        opt.step(&set).unwrap();
        amp::disable();
        assert!((w.value().as_slice()[0] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn overflow_skips_step_and_halves_scale() {
        use gnnmark_tensor::half::Precision;
        amp::enable(Precision::Fp16);
        let before = amp::thread_loss_scale();
        let mut set = ParamSet::new();
        let w = set.register(Param::new("w", Tensor::from_vec(&[1], vec![1.0]).unwrap()));
        w.accumulate_grad(Tensor::from_vec(&[1], vec![f32::INFINITY]).unwrap())
            .unwrap();
        let mut opt = Adam::new(0.1);
        opt.step(&set).unwrap();
        // Parameter untouched, gradient discarded, scale halved, retry
        // accounted: the NumericGuard-style skip-and-continue contract.
        assert_eq!(w.value().as_slice()[0], 1.0);
        assert!(w.grad().is_none());
        assert_eq!(amp::thread_loss_scale(), before / 2.0);
        let stats = amp::stats().unwrap();
        assert_eq!(stats.skipped_steps, 1);
        amp::disable();
    }

    #[test]
    fn fp16_training_converges_with_loss_scaling() {
        use gnnmark_tensor::half::{Precision, PrecisionGuard};
        let _g = PrecisionGuard::new(Precision::Fp16);
        amp::enable(Precision::Fp16);
        let mut opt = Sgd::new(0.1);
        let w = converges(&mut opt);
        amp::disable();
        // f16 resolution near 3.0 is 2^-10·2 ≈ 2e-3.
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn step_without_grads_is_noop() {
        let mut set = ParamSet::new();
        let w = set.register(Param::new("w", Tensor::from_vec(&[1], vec![1.0]).unwrap()));
        let mut opt = Adam::new(0.1);
        opt.step(&set).unwrap();
        assert_eq!(w.value().as_slice()[0], 1.0);
    }
}

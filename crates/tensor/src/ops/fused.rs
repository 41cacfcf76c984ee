//! Fused kernels matching the coarse-grained ops DL frameworks launch.
//!
//! PyTorch does not launch ten small element-wise kernels for a BCE loss
//! or an Adam step — `binary_cross_entropy_with_logits` is one fused
//! reduction kernel and `optim.Adam` uses fused/foreach multi-tensor
//! kernels. Modeling these as single events keeps the execution-time
//! breakdown comparable to the paper's nvprof measurements.

use super::emit_sequential;
use crate::cost::{INT_PER_ELEMWISE_ELEM, INT_PER_REDUCE_ELEM};
use crate::instrument::OpClass;
use crate::{par, Result, Tensor, TensorError};

/// Logits per block of [`Tensor::bce_with_logits_mean`]: a 256 KiB scratch
/// of f32 terms, and 2.6 grains at `Cost::EXP_ELEM`, so a block forks.
const BCE_BLOCK: usize = 64 * 1024;

impl Tensor {
    /// Fused mean binary-cross-entropy-with-logits:
    /// `mean((1−y)·z + ln(1+e^{−z}))`, numerically stable for either sign.
    ///
    /// One kernel: element-wise math fused into a tree reduction, like
    /// `torch.nn.functional.binary_cross_entropy_with_logits`.
    ///
    /// # Errors
    /// Returns a shape error if `self` and `target` differ.
    pub fn bce_with_logits_mean(&self, target: &Tensor) -> Result<Tensor> {
        self.shape()
            .require_same(target.shape(), "bce_with_logits_mean")?;
        let n = self.numel();
        let (zs, ys) = (self.as_slice(), target.as_slice());
        // The f32 terms are computed a block at a time on the pool; the
        // caller then adds each block into one f64 in index order, so the
        // sum is the sequential loop's at every thread count.
        let mut terms = vec![0.0f32; n.min(BCE_BLOCK)];
        let mut acc = 0.0f64;
        for start in (0..n).step_by(BCE_BLOCK) {
            let block = &mut terms[..BCE_BLOCK.min(n - start)];
            par::fill_chunks(block, par::Cost::EXP_ELEM, |r, chunk| {
                let r = start + r.start..start + r.end;
                for ((t, &z), &y) in chunk.iter_mut().zip(&zs[r.clone()]).zip(&ys[r]) {
                    // (1−y)z + softplus(−z), stable: softplus(−z) = max(−z,0) + ln(1+e^{−|z|})
                    let softplus_neg = (-z).max(0.0) + (-(z.abs())).exp().ln_1p();
                    *t = (1.0 - y) * z + softplus_neg;
                }
            });
            acc = block.iter().fold(acc, |acc, &t| acc + t as f64);
        }
        let out = Tensor::scalar((acc / n as f64) as f32);
        let n = n as u64;
        emit_sequential(
            OpClass::Reduction,
            "bce_with_logits_fused",
            n * 12, // exp/log + fma per element + reduction tree
            n * INT_PER_REDUCE_ELEM,
            2 * n * 4,
            4,
            n,
        );
        Ok(out)
    }

    /// Gradient of [`Tensor::bce_with_logits_mean`] w.r.t. the logits:
    /// `(σ(z) − y) / n`, one fused element-wise kernel.
    ///
    /// # Errors
    /// Returns a shape error if `self` and `target` differ.
    pub fn bce_with_logits_backward(&self, target: &Tensor) -> Result<Tensor> {
        self.shape()
            .require_same(target.shape(), "bce_with_logits_backward")?;
        let n = self.numel() as f32;
        let data = self
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&z, &y)| (1.0 / (1.0 + (-z).exp()) - y) / n)
            .collect();
        let out = Tensor::from_vec(self.dims(), data)?;
        let n = self.numel() as u64;
        emit_sequential(
            OpClass::ElementWise,
            "bce_backward_fused",
            n * 10,
            n * INT_PER_ELEMWISE_ELEM,
            2 * n * 4,
            n * 4,
            n,
        );
        Ok(out)
    }

    /// One fused Adam update over a parameter tensor, matching PyTorch's
    /// `fused=True` / foreach Adam kernels: updates `m` and `v` in place
    /// and returns the new parameter value.
    ///
    /// # Errors
    /// Returns a shape error if the tensors' shapes differ.
    #[allow(clippy::too_many_arguments)]
    pub fn adam_step_fused(
        &self, // current parameter value
        grad: &Tensor,
        m: &mut Tensor,
        v: &mut Tensor,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        bias_correction1: f32,
        bias_correction2: f32,
    ) -> Result<Tensor> {
        self.shape().require_same(grad.shape(), "adam_step_fused")?;
        self.shape().require_same(m.shape(), "adam_step_fused")?;
        self.shape().require_same(v.shape(), "adam_step_fused")?;
        if bias_correction1 <= 0.0 || bias_correction2 <= 0.0 {
            return Err(TensorError::InvalidArgument {
                op: "adam_step_fused",
                reason: "bias corrections must be positive".to_string(),
            });
        }
        let mut out = Vec::with_capacity(self.numel());
        {
            let ms = m.as_mut_slice();
            let vs = v.as_mut_slice();
            for (((&p, &g), m_i), v_i) in self
                .as_slice()
                .iter()
                .zip(grad.as_slice())
                .zip(ms.iter_mut())
                .zip(vs.iter_mut())
            {
                *m_i = beta1 * *m_i + (1.0 - beta1) * g;
                *v_i = beta2 * *v_i + (1.0 - beta2) * g * g;
                let m_hat = *m_i / bias_correction1;
                let v_hat = *v_i / bias_correction2;
                out.push(p - lr * m_hat / (v_hat.sqrt() + eps));
            }
        }
        let result = Tensor::from_vec(self.dims(), out)?;
        let n = self.numel() as u64;
        emit_sequential(
            OpClass::ElementWise,
            "adam_fused",
            n * 13, // 2 lerps + sqrt + div + fma
            n * INT_PER_ELEMWISE_ELEM,
            4 * n * 4, // p, g, m, v reads
            3 * n * 4, // p, m, v writes
            n,
        );
        Ok(result)
    }

    /// One fused plain-SGD update, `p − lr · g`; returns the new value.
    ///
    /// # Errors
    /// Returns a shape error if tensor shapes differ.
    pub fn sgd_step_fused(&self, grad: &Tensor, lr: f32) -> Result<Tensor> {
        self.shape().require_same(grad.shape(), "sgd_step_fused")?;
        let out = self
            .as_slice()
            .iter()
            .zip(grad.as_slice())
            .map(|(&p, &g)| p - lr * g)
            .collect();
        let result = Tensor::from_vec(self.dims(), out)?;
        let n = self.numel() as u64;
        emit_sequential(
            OpClass::ElementWise,
            "sgd_fused",
            n * 2, // mul + sub
            n * INT_PER_ELEMWISE_ELEM,
            2 * n * 4, // p, g reads
            n * 4,     // p write
            n,
        );
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    #[test]
    fn bce_fused_matches_reference_formula() {
        let z = Tensor::from_vec(&[2], vec![0.0, 2.0]).unwrap();
        let y = Tensor::from_vec(&[2], vec![1.0, 0.0]).unwrap();
        let loss = z.bce_with_logits_mean(&y).unwrap().item().unwrap();
        let expect = ((2.0f32 + (1.0 + (-2.0f32).exp()).ln()) + std::f32::consts::LN_2) / 2.0;
        assert!((loss - expect).abs() < 1e-6, "{loss} vs {expect}");
    }

    #[test]
    fn bce_fused_is_stable_for_large_logits() {
        let z = Tensor::from_vec(&[2], vec![100.0, -100.0]).unwrap();
        let y = Tensor::from_vec(&[2], vec![1.0, 0.0]).unwrap();
        let loss = z.bce_with_logits_mean(&y).unwrap().item().unwrap();
        assert!(loss.is_finite());
        assert!(loss.abs() < 1e-3, "near-perfect predictions: {loss}");
    }

    #[test]
    fn bce_backward_matches_finite_difference() {
        let z = Tensor::from_vec(&[3], vec![0.5, -1.0, 2.0]).unwrap();
        let y = Tensor::from_vec(&[3], vec![1.0, 0.0, 1.0]).unwrap();
        let g = z.bce_with_logits_backward(&y).unwrap();
        let eps = 1e-2f32;
        for i in 0..3 {
            let mut zp = z.clone();
            zp.as_mut_slice()[i] += eps;
            let mut zm = z.clone();
            zm.as_mut_slice()[i] -= eps;
            let fd = (zp.bce_with_logits_mean(&y).unwrap().item().unwrap()
                - zm.bce_with_logits_mean(&y).unwrap().item().unwrap())
                / (2.0 * eps);
            assert!((g.as_slice()[i] - fd).abs() < 1e-3);
        }
    }

    #[test]
    fn adam_fused_emits_one_event_and_converges() {
        let mut p = Tensor::from_vec(&[1], vec![0.0]).unwrap();
        let mut m = Tensor::zeros(&[1]);
        let mut v = Tensor::zeros(&[1]);
        record::start_recording();
        for t in 1..=200 {
            let g = Tensor::from_vec(&[1], vec![2.0 * (p.as_slice()[0] - 3.0)]).unwrap();
            let bc1 = 1.0 - 0.9f32.powi(t);
            let bc2 = 1.0 - 0.999f32.powi(t);
            p = p
                .adam_step_fused(&g, &mut m, &mut v, 0.1, 0.9, 0.999, 1e-8, bc1, bc2)
                .unwrap();
        }
        let events = record::stop_recording();
        assert_eq!(events.len(), 200); // exactly one kernel per step
        assert!((p.as_slice()[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn sgd_fused_records_the_plain_sgd_cost() {
        let p = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let g = Tensor::from_vec(&[3], vec![1.0, 1.0, -1.0]).unwrap();
        record::start_recording();
        let next = p.sgd_step_fused(&g, 0.5).unwrap();
        let events = record::stop_recording();
        assert_eq!(next.as_slice(), &[0.5, 1.5, 3.5]);
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.kernel, "sgd_fused");
        assert_eq!((e.flops, e.bytes_read, e.bytes_written), (6, 24, 12));
    }

    #[test]
    fn fused_ops_validate_shapes() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.bce_with_logits_mean(&b).is_err());
        let mut m = Tensor::zeros(&[3]);
        let mut v = Tensor::zeros(&[2]);
        assert!(a
            .adam_step_fused(&a.clone(), &mut m, &mut v, 0.1, 0.9, 0.999, 1e-8, 0.1, 0.1)
            .is_err());
    }
}

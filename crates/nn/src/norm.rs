//! Layer normalization.

use gnnmark_autograd::{Param, ParamSet, Tape, Var};
use gnnmark_tensor::Tensor;

use crate::{Module, Result};

/// Per-row layer normalization with learned affine parameters
/// (used by GraphWriter's transformer blocks).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm over the last dimension of width `dim`.
    pub fn new(name: &str, dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones(&[dim])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[dim])),
            eps: 1e-5,
        }
    }

    /// Normalizes each row of a `[n, dim]` input to zero mean / unit
    /// variance, then applies the affine transform.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Result<Var> {
        let dims = x.dims();
        let n = dims[0];
        let d = dims[1];
        let mean = x.mean_rows()?;
        let ones = x.constant_like(Tensor::ones(&[n, d]));
        let centered = x.sub(&ones.scale_rows(&mean)?)?;
        let var = centered.square().mean_rows()?;
        let inv_std = var.add_scalar(self.eps).sqrt().recip();
        let normed = centered.scale_rows(&inv_std)?;
        // Row-broadcast affine: multiply by gamma (as bias-like row vector)
        // and add beta.
        let g = tape.read(&self.gamma);
        let b = tape.read(&self.beta);
        let zeros = x.constant_like(Tensor::zeros(&[n, d]));
        let g_rows = zeros.add_bias(&g)?;
        normed.mul(&g_rows)?.add_bias(&b)
    }
}

impl Module for LayerNorm {
    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.register(self.gamma.clone());
        set.register(self.beta.clone());
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_rows() {
        let ln = LayerNorm::new("ln", 4);
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_fn(&[3, 4], |i| (i * i) as f32));
        let y = ln.forward(&tape, &x).unwrap();
        let v = y.value();
        for row in v.as_slice().chunks_exact(4) {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn gradients_flow_to_affine_params() {
        let ln = LayerNorm::new("ln", 3);
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_fn(&[2, 3], |i| i as f32));
        let y = ln.forward(&tape, &x).unwrap();
        let loss = y.square().sum_all();
        tape.backward(&loss).unwrap();
        for p in &ln.params() {
            assert!(p.grad().is_some());
        }
        assert_eq!(ln.num_parameters(), 6);
    }
}

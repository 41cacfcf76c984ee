//! Loss functions: cross-entropy, binary cross-entropy, MSE, and accuracy.

use gnnmark_autograd::Var;
use gnnmark_tensor::{IntTensor, Tensor, TensorError};

use crate::Result;

/// Mean cross-entropy of `[n, classes]` logits against integer targets.
///
/// Implemented as `-mean(log_softmax(logits)[i, target_i])`, matching the
/// fused log-softmax + NLL kernels DL frameworks launch.
///
/// # Errors
/// Returns an error if shapes or target bounds are invalid.
pub fn cross_entropy(logits: &Var, targets: &IntTensor) -> Result<Var> {
    let logp = logits.log_softmax_rows()?;
    let picked = logp.select_per_row(targets)?;
    Ok(picked.mean_all().neg())
}

/// Mean binary cross-entropy of logits against 0/1 targets, computed by
/// the fused, numerically stable kernel (`mean((1-y)·z + softplus(-z))`),
/// matching `torch.nn.functional.binary_cross_entropy_with_logits`.
///
/// # Errors
/// Returns an error if shapes mismatch.
pub fn bce_with_logits(logits: &Var, targets: &Tensor) -> Result<Var> {
    logits.bce_with_logits_mean(targets)
}

/// Mean squared error against a constant target.
///
/// # Errors
/// Returns an error if shapes mismatch.
pub fn mse(pred: &Var, target: &Tensor) -> Result<Var> {
    let t = pred.constant_like(target.clone());
    Ok(pred.sub(&t)?.square().mean_all())
}

/// Classification accuracy of `[n, classes]` logits (no gradient).
///
/// # Errors
/// Returns an error for malformed logits.
pub fn accuracy(logits: &Tensor, targets: &IntTensor) -> Result<f64> {
    if logits.rank() != 2 || logits.dim(0) != targets.numel() {
        return Err(TensorError::ShapeMismatch {
            op: "accuracy",
            lhs: logits.dims().to_vec(),
            rhs: targets.dims().to_vec(),
        });
    }
    let pred = logits.argmax_rows()?;
    let correct = pred
        .as_slice()
        .iter()
        .zip(targets.as_slice())
        .filter(|(a, b)| a == b)
        .count();
    Ok(correct as f64 / targets.numel().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_autograd::Tape;

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let tape = Tape::new();
        let good =
            tape.constant(Tensor::from_vec(&[2, 3], vec![5.0, 0.0, 0.0, 0.0, 5.0, 0.0]).unwrap());
        let bad =
            tape.constant(Tensor::from_vec(&[2, 3], vec![0.0, 5.0, 0.0, 5.0, 0.0, 0.0]).unwrap());
        let t = IntTensor::from_vec(&[2], vec![0, 1]).unwrap();
        let lg = cross_entropy(&good, &t).unwrap().value().item().unwrap();
        let lb = cross_entropy(&bad, &t).unwrap().value().item().unwrap();
        assert!(lg < lb);
        assert!(lg > 0.0);
    }

    #[test]
    fn cross_entropy_gradient_direction() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[1, 2]));
        let t = IntTensor::from_vec(&[1], vec![0]).unwrap();
        let loss = cross_entropy(&x, &t).unwrap();
        tape.backward(&loss).unwrap();
        let g = x.grad().unwrap();
        // Gradient pushes logit 0 up (negative grad) and logit 1 down.
        assert!(g.get(&[0, 0]) < 0.0);
        assert!(g.get(&[0, 1]) > 0.0);
    }

    #[test]
    fn bce_matches_manual_value() {
        let tape = Tape::new();
        let z = tape.constant(Tensor::from_vec(&[2], vec![0.0, 2.0]).unwrap());
        let y = Tensor::from_vec(&[2], vec![1.0, 0.0]).unwrap();
        let loss = bce_with_logits(&z, &y).unwrap().value().item().unwrap();
        // Manual: for (z=0,y=1): softplus(0)=ln2. For (z=2,y=0): 2+softplus(-2).
        let expect = ((2.0f32 + (1.0 + (-2.0f32).exp()).ln()) + std::f32::consts::LN_2) / 2.0;
        assert!((loss - expect).abs() < 1e-5, "{loss} vs {expect}");
    }

    #[test]
    fn mse_is_zero_at_target() {
        let tape = Tape::new();
        let t = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let x = tape.constant(t.clone());
        assert_eq!(mse(&x, &t).unwrap().value().item().unwrap(), 0.0);
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(&[2, 2], vec![0.9, 0.1, 0.2, 0.8]).unwrap();
        let t = IntTensor::from_vec(&[2], vec![0, 0]).unwrap();
        assert!((accuracy(&logits, &t).unwrap() - 0.5).abs() < 1e-12);
        assert!(accuracy(&Tensor::zeros(&[3]), &t).is_err());
    }
}

//! LSTM cells: the standard cell (GraphWriter's decoder) and the
//! child-sum Tree-LSTM cell (Tai et al., 2015) used by the TLSTM workload.

use gnnmark_autograd::{ParamSet, Tape, Var};
use rand::Rng;

use crate::linear::Linear;
use crate::{Module, Result};

/// A standard LSTM cell.
///
/// The four gates are computed as one fused `[n, 4·hidden]` projection and
/// split, matching cuDNN's fused gate kernels.
#[derive(Debug, Clone)]
pub struct LstmCell {
    input_proj: Linear,
    hidden_proj: Linear,
    hidden: usize,
}

impl LstmCell {
    /// Creates a cell mapping `in_dim` inputs to `hidden` state width.
    ///
    /// # Errors
    /// Returns an error for zero-sized dimensions.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Result<Self> {
        Ok(LstmCell {
            input_proj: Linear::new(&format!("{name}.ih"), in_dim, 4 * hidden, rng)?,
            hidden_proj: Linear::without_bias(&format!("{name}.hh"), hidden, 4 * hidden, rng)?,
            hidden,
        })
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// One step: `(x, h, c) → (h', c')`.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn step(&self, tape: &Tape, x: &Var, h: &Var, c: &Var) -> Result<(Var, Var)> {
        let gates = self
            .input_proj
            .forward(tape, x)?
            .add(&self.hidden_proj.forward(tape, h)?)?;
        let hdim = self.hidden;
        let i = gates.slice_cols(0, hdim)?.sigmoid();
        let f = gates.slice_cols(hdim, 2 * hdim)?.sigmoid();
        let g = gates.slice_cols(2 * hdim, 3 * hdim)?.tanh();
        let o = gates.slice_cols(3 * hdim, 4 * hdim)?.sigmoid();
        let c_new = f.mul(c)?.add(&i.mul(&g)?)?;
        let h_new = o.mul(&c_new.tanh())?;
        Ok((h_new, c_new))
    }
}

impl Module for LstmCell {
    fn params(&self) -> ParamSet {
        let mut set = self.input_proj.params();
        set.extend(&self.hidden_proj.params());
        set
    }
}

/// A child-sum Tree-LSTM cell processing one tree level at a time.
///
/// For each node: `h̃ = Σ_k h_k`, gates `i/o/u` from `(x, h̃)`, and a
/// separate forget gate per child.
#[derive(Debug, Clone)]
pub struct TreeLstmCell {
    iou_x: Linear,
    iou_h: Linear,
    f_x: Linear,
    f_h: Linear,
    hidden: usize,
}

impl TreeLstmCell {
    /// Creates a cell with embedding input width `in_dim` and state width
    /// `hidden`.
    ///
    /// # Errors
    /// Returns an error for zero-sized dimensions.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Result<Self> {
        Ok(TreeLstmCell {
            iou_x: Linear::new(&format!("{name}.iou_x"), in_dim, 3 * hidden, rng)?,
            iou_h: Linear::without_bias(&format!("{name}.iou_h"), hidden, 3 * hidden, rng)?,
            f_x: Linear::new(&format!("{name}.f_x"), in_dim, hidden, rng)?,
            f_h: Linear::without_bias(&format!("{name}.f_h"), hidden, hidden, rng)?,
            hidden,
        })
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Processes one level of nodes.
    ///
    /// * `x` — `[n, in_dim]` input embedding of the level's nodes.
    /// * `child_h`/`child_c` — per-child states, each a `[n, hidden]`
    ///   matrix (already gathered by the caller; zeros for absent
    ///   children).
    ///
    /// Returns `(h, c)` of shape `[n, hidden]`.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn step(
        &self,
        tape: &Tape,
        x: &Var,
        child_h: &[Var],
        child_c: &[Var],
    ) -> Result<(Var, Var)> {
        let dims = x.dims();
        let n = dims[0];
        let hdim = self.hidden;
        // h̃ = Σ_k h_k (zeros if leaf level).
        let mut h_sum = x.constant_like(gnnmark_tensor::Tensor::zeros(&[n, hdim]));
        for h in child_h {
            h_sum = h_sum.add(h)?;
        }
        let iou = self
            .iou_x
            .forward(tape, x)?
            .add(&self.iou_h.forward(tape, &h_sum)?)?;
        let i = iou.slice_cols(0, hdim)?.sigmoid();
        let o = iou.slice_cols(hdim, 2 * hdim)?.sigmoid();
        let u = iou.slice_cols(2 * hdim, 3 * hdim)?.tanh();

        let mut c_new = i.mul(&u)?;
        let fx = self.f_x.forward(tape, x)?;
        for (h_k, c_k) in child_h.iter().zip(child_c) {
            let f_k = fx.add(&self.f_h.forward(tape, h_k)?)?.sigmoid();
            c_new = c_new.add(&f_k.mul(c_k)?)?;
        }
        let h_new = o.mul(&c_new.tanh())?;
        Ok((h_new, c_new))
    }
}

impl Module for TreeLstmCell {
    fn params(&self) -> ParamSet {
        let mut set = self.iou_x.params();
        set.extend(&self.iou_h.params());
        set.extend(&self.f_x.params());
        set.extend(&self.f_h.params());
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn lstm_step_shapes_and_state_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let cell = LstmCell::new("l", 3, 5, &mut rng).unwrap();
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 3]));
        let h = tape.constant(Tensor::zeros(&[2, 5]));
        let c = tape.constant(Tensor::zeros(&[2, 5]));
        let (h1, c1) = cell.step(&tape, &x, &h, &c).unwrap();
        assert_eq!(h1.dims(), vec![2, 5]);
        assert_eq!(c1.dims(), vec![2, 5]);
        // h = o·tanh(c) ⇒ |h| < 1.
        assert!(h1.value().as_slice().iter().all(|v| v.abs() < 1.0));
        assert_eq!(cell.hidden(), 5);
    }

    #[test]
    fn lstm_remembers_across_steps() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let cell = LstmCell::new("l", 2, 4, &mut rng).unwrap();
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 2]));
        let mut h = tape.constant(Tensor::zeros(&[1, 4]));
        let mut c = tape.constant(Tensor::zeros(&[1, 4]));
        let mut sumsqs = Vec::new();
        for _ in 0..3 {
            let (h2, c2) = cell.step(&tape, &x, &h, &c).unwrap();
            h = h2;
            c = c2;
            sumsqs.push(c.value().square().sum_all().item().unwrap());
        }
        // Cell state accumulates under constant input.
        assert!(sumsqs[2] > sumsqs[0]);
    }

    #[test]
    fn lstm_gradients_flow() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let cell = LstmCell::new("l", 2, 3, &mut rng).unwrap();
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 2]));
        let h = tape.constant(Tensor::zeros(&[1, 3]));
        let c = tape.constant(Tensor::zeros(&[1, 3]));
        let (h1, _) = cell.step(&tape, &x, &h, &c).unwrap();
        tape.backward(&h1.square().sum_all()).unwrap();
        for p in &cell.params() {
            assert!(p.grad().is_some(), "no grad for {}", p.name());
        }
    }

    #[test]
    fn tree_lstm_leaf_and_internal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let cell = TreeLstmCell::new("t", 3, 4, &mut rng).unwrap();
        let tape = Tape::new();
        // Leaf level: no children.
        let x = tape.constant(Tensor::ones(&[5, 3]));
        let (h, c) = cell.step(&tape, &x, &[], &[]).unwrap();
        assert_eq!(h.dims(), vec![5, 4]);
        // Internal level with two children.
        let x2 = tape.constant(Tensor::zeros(&[2, 3]));
        let ch = vec![
            tape.constant(h.value().slice_rows(0, 2).unwrap()),
            tape.constant(h.value().slice_rows(2, 4).unwrap()),
        ];
        let cc = vec![
            tape.constant(c.value().slice_rows(0, 2).unwrap()),
            tape.constant(c.value().slice_rows(2, 4).unwrap()),
        ];
        let (h2, c2) = cell.step(&tape, &x2, &ch, &cc).unwrap();
        assert_eq!(h2.dims(), vec![2, 4]);
        assert_eq!(c2.dims(), vec![2, 4]);
        let loss = h2.square().sum_all();
        tape.backward(&loss).unwrap();
        for p in &cell.params() {
            assert!(p.grad().is_some(), "no grad for {}", p.name());
        }
    }
}

//! Element-wise operations: binary arithmetic, scalar arithmetic,
//! activations and masking.
//!
//! Element-wise kernels are a headline finding of the GNNMark paper: for
//! DeepGCN they consume ~31 % of execution time, and for PinSAGE on the
//! Nowplaying dataset (10× wider features than MovieLens) they reach 78 %.

use super::{emit_op, emit_sequential};
use crate::cost::INT_PER_ELEMWISE_ELEM;
use crate::instrument::{AccessDesc, OpClass};
use crate::simd::{self, BinOp, UnOp};
use crate::{par, pool, Result, Tensor, TensorError};

/// Cost (in modeled fp32 ops) of special-function-unit transcendentals.
const SFU_FLOPS: u64 = 8;

/// The event of an `n`-element binary kernel: two streamed reads, one write.
fn emit_binary(op: &'static str, n: u64) {
    emit_sequential(
        OpClass::ElementWise,
        op,
        n,
        n * INT_PER_ELEMWISE_ELEM,
        2 * n * 4,
        n * 4,
        n,
    );
}

impl Tensor {
    /// Shape-checked element-wise binary op dispatched through the
    /// [`crate::simd`] kernel table. The level is resolved once on the
    /// calling thread and captured into the pool closure.
    fn binary_simd(&self, other: &Tensor, op: &'static str, kop: BinOp) -> Result<Tensor> {
        self.shape().require_same(other.shape(), op)?;
        let a = self.as_slice();
        let b = other.as_slice();
        let lvl = simd::level();
        let mut data = pool::zeroed(a.len());
        par::fill_chunks(&mut data, par::Cost::ELEMENT, |r, chunk| {
            simd::binary(lvl, kop, &a[r.clone()], &b[r], chunk);
        });
        let out = Tensor::from_vec(self.dims(), data)?;
        emit_binary(op, self.numel() as u64);
        Ok(out)
    }

    fn unary(
        &self,
        op: &'static str,
        flops_per_elem: u64,
        cost: par::Cost,
        f: impl Fn(f32) -> f32 + Sync,
    ) -> Tensor {
        let src = self.as_slice();
        let mut data = pool::zeroed(src.len());
        par::fill_chunks(&mut data, cost, |r, chunk| {
            for (o, &x) in chunk.iter_mut().zip(&src[r]) {
                *o = f(x);
            }
        });
        let out = Tensor::from_vec(self.dims(), data).expect("same shape");
        let n = self.numel() as u64;
        emit_sequential(
            OpClass::ElementWise,
            op,
            n * flops_per_elem,
            n * INT_PER_ELEMWISE_ELEM,
            n * 4,
            n * 4,
            n,
        );
        out
    }

    /// Like [`Tensor::unary`] but dispatched through the [`crate::simd`]
    /// kernel table.
    fn unary_simd(&self, op: &'static str, flops_per_elem: u64, kop: UnOp) -> Tensor {
        let src = self.as_slice();
        let lvl = simd::level();
        let mut data = pool::zeroed(src.len());
        par::fill_chunks(&mut data, par::Cost::ELEMENT, |r, chunk| {
            simd::unary(lvl, kop, &src[r], chunk);
        });
        let out = Tensor::from_vec(self.dims(), data).expect("same shape");
        let n = self.numel() as u64;
        emit_sequential(
            OpClass::ElementWise,
            op,
            n * flops_per_elem,
            n * INT_PER_ELEMWISE_ELEM,
            n * 4,
            n * 4,
            n,
        );
        out
    }

    /// Element-wise addition.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.binary_simd(other, "add", BinOp::Add)
    }

    /// In-place element-wise addition, `self += other`: the values and the
    /// `add` event of [`Tensor::add`], without a fresh buffer. The sum is
    /// written where `self` lies when `self` is the only handle to its
    /// buffer; a shared buffer keeps its values for its other handles, and
    /// `self` receives the sum in a new one (copy-on-write, as for any
    /// writer of a [`Tensor`]).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.shape().require_same(other.shape(), "add")?;
        let n = self.numel() as u64;
        let Some(dst) = self.unique_mut_slice() else {
            *self = self.add(other)?;
            return Ok(());
        };
        let src = other.as_slice();
        let lvl = simd::level();
        par::fill_chunks(dst, par::Cost::ELEMENT, |r, chunk| {
            simd::accumulate(lvl, chunk, &src[r]);
        });
        emit_binary("add", n);
        Ok(())
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.binary_simd(other, "sub", BinOp::Sub)
    }

    /// Element-wise (Hadamard) multiplication.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.binary_simd(other, "mul", BinOp::Mul)
    }

    /// Element-wise division.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.binary_simd(other, "div", BinOp::Div)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.unary_simd("add_scalar", 1, UnOp::AddScalar(s))
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.unary_simd("mul_scalar", 1, UnOp::MulScalar(s))
    }

    /// Element-wise negation.
    pub fn neg(&self) -> Tensor {
        self.unary_simd("neg", 1, UnOp::Neg)
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Tensor {
        self.unary("exp", SFU_FLOPS, par::Cost::EXP_ELEM, f32::exp)
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.unary("log", SFU_FLOPS, par::Cost::EXP_ELEM, f32::ln)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        self.unary("sqrt", SFU_FLOPS, par::Cost::ELEMENT, f32::sqrt)
    }

    /// Element-wise absolute value.
    pub fn abs(&self) -> Tensor {
        self.unary("abs", 1, par::Cost::ELEMENT, f32::abs)
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        self.unary_simd("square", 1, UnOp::Square)
    }

    /// Element-wise reciprocal.
    pub fn recip(&self) -> Tensor {
        self.unary("recip", 4, par::Cost::ELEMENT, |a| 1.0 / a)
    }

    /// Rectified linear unit, `max(x, 0)`.
    ///
    /// ReLU produces exact zeros and is the main source of the activation
    /// sparsity the paper reports in Figure 7.
    pub fn relu(&self) -> Tensor {
        self.unary_simd("relu", 1, UnOp::Relu)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, alpha: f32) -> Tensor {
        self.unary("leaky_relu", 2, par::Cost::ELEMENT, move |a| {
            if a > 0.0 {
                a
            } else {
                alpha * a
            }
        })
    }

    /// Parametric ReLU with a single learned slope `alpha` (used by ARGA).
    pub fn prelu(&self, alpha: f32) -> Tensor {
        self.unary("prelu", 2, par::Cost::ELEMENT, move |a| {
            if a > 0.0 {
                a
            } else {
                alpha * a
            }
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.unary("sigmoid", SFU_FLOPS + 2, par::Cost::EXP_ELEM, |a| {
            1.0 / (1.0 + (-a).exp())
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.unary("tanh", SFU_FLOPS + 2, par::Cost::EXP_ELEM, f32::tanh)
    }

    /// Clamps all elements into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.unary("clamp", 2, par::Cost::ELEMENT, move |a| a.clamp(lo, hi))
    }

    /// Mask of elements strictly greater than zero (1.0 / 0.0).
    pub fn gt_zero_mask(&self) -> Tensor {
        self.unary("gt_zero_mask", 1, par::Cost::ELEMENT, |a| {
            if a > 0.0 {
                1.0
            } else {
                0.0
            }
        })
    }

    /// `self + alpha * other`, a fused AXPY-style update.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&self, alpha: f32, other: &Tensor) -> Result<Tensor> {
        self.binary_simd(other, "axpy", BinOp::Axpy(alpha))
    }

    /// Adds a length-`d` bias row-vector to each row of a `[n, d]` matrix.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2 and
    /// `bias` rank 1, or [`TensorError::ShapeMismatch`] if widths differ.
    pub fn add_bias(&self, bias: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "add_bias",
                expected: 2,
                actual: self.rank(),
            });
        }
        if bias.rank() != 1 || bias.dim(0) != self.dim(1) {
            return Err(TensorError::ShapeMismatch {
                op: "add_bias",
                lhs: self.dims().to_vec(),
                rhs: bias.dims().to_vec(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        let b = bias.as_slice();
        let src = self.as_slice();
        let lvl = simd::level();
        let mut data = pool::zeroed(n * d);
        let ranges = par::split(n, n * d, par::Cost::ELEMENT);
        par::for_row_ranges_mut(&mut data, d, &ranges, |_, rows, chunk| {
            let rows_src = &src[rows.start * d..rows.end * d];
            for (row, out_row) in rows_src.chunks_exact(d).zip(chunk.chunks_exact_mut(d)) {
                simd::binary(lvl, BinOp::Add, row, b, out_row);
            }
        });
        let out = Tensor::from_vec(&[n, d], data)?;
        let total = (n * d) as u64;
        emit_op(
            OpClass::ElementWise,
            "add_bias",
            total,
            total * INT_PER_ELEMWISE_ELEM,
            total * 4 + d as u64 * 4,
            total * 4,
            total,
            || {
                vec![
                    AccessDesc::Sequential { bytes: total * 4 },
                    AccessDesc::Strided {
                        stride_bytes: 4,
                        accesses: d as u64,
                        access_bytes: 4,
                    },
                ]
            },
            || vec![AccessDesc::Sequential { bytes: total * 4 }],
        );
        Ok(out)
    }

    /// Scales each row of a `[n, d]` matrix by the matching entry of a
    /// length-`n` vector (used for degree normalization).
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// on malformed inputs.
    pub fn scale_rows(&self, scales: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "scale_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        if scales.rank() != 1 || scales.dim(0) != self.dim(0) {
            return Err(TensorError::ShapeMismatch {
                op: "scale_rows",
                lhs: self.dims().to_vec(),
                rhs: scales.dims().to_vec(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        let s = scales.as_slice();
        let src = self.as_slice();
        let lvl = simd::level();
        let mut data = pool::zeroed(n * d);
        let ranges = par::split(n, n * d, par::Cost::ELEMENT);
        par::for_row_ranges_mut(&mut data, d, &ranges, |_, rows, chunk| {
            let rows_src = &src[rows.start * d..rows.end * d];
            for ((r, row), out_row) in rows
                .zip(rows_src.chunks_exact(d))
                .zip(chunk.chunks_exact_mut(d))
            {
                simd::unary(lvl, UnOp::MulScalar(s[r]), row, out_row);
            }
        });
        let out = Tensor::from_vec(&[n, d], data)?;
        let total = (n * d) as u64;
        emit_sequential(
            OpClass::ElementWise,
            "scale_rows",
            total,
            total * INT_PER_ELEMWISE_ELEM,
            total * 4 + n as u64 * 4,
            total * 4,
            total,
        );
        Ok(out)
    }

    /// Scales each column of a `[n, d]` matrix by the matching entry of a
    /// length-`d` vector (learned per-feature scales).
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// on malformed inputs.
    pub fn scale_cols(&self, scales: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "scale_cols",
                expected: 2,
                actual: self.rank(),
            });
        }
        if scales.rank() != 1 || scales.dim(0) != self.dim(1) {
            return Err(TensorError::ShapeMismatch {
                op: "scale_cols",
                lhs: self.dims().to_vec(),
                rhs: scales.dims().to_vec(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        let s = scales.as_slice();
        let src = self.as_slice();
        let lvl = simd::level();
        let mut data = pool::zeroed(n * d);
        let ranges = par::split(n, n * d, par::Cost::ELEMENT);
        par::for_row_ranges_mut(&mut data, d, &ranges, |_, rows, chunk| {
            let rows_src = &src[rows.start * d..rows.end * d];
            for (row, out_row) in rows_src.chunks_exact(d).zip(chunk.chunks_exact_mut(d)) {
                simd::binary(lvl, BinOp::Mul, row, s, out_row);
            }
        });
        let out = Tensor::from_vec(&[n, d], data)?;
        let total = (n * d) as u64;
        emit_sequential(
            OpClass::ElementWise,
            "scale_cols",
            total,
            total * INT_PER_ELEMWISE_ELEM,
            total * 4 + d as u64 * 4,
            total * 4,
            total,
        );
        Ok(out)
    }

    /// Applies a pre-computed 0/1 dropout mask and rescales by `1/(1-p)`.
    ///
    /// The mask is generated by the caller (the `nn` crate) so that dropout
    /// is reproducible under a seeded RNG.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn apply_dropout_mask(&self, mask: &Tensor, p: f32) -> Result<Tensor> {
        let scale = 1.0 / (1.0 - p);
        self.binary_simd(mask, "dropout", BinOp::MulScale(scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    #[test]
    fn binary_ops() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[6.0, 8.0, 10.0, 12.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[5.0, 12.0, 21.0, 32.0]);
        assert_eq!(b.div(&a).unwrap().as_slice(), &[5.0, 3.0, 7.0 / 3.0, 2.0]);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn activations() {
        let t = Tensor::from_vec(&[4], vec![-2.0, -0.5, 0.5, 2.0]).unwrap();
        assert_eq!(t.relu().as_slice(), &[0.0, 0.0, 0.5, 2.0]);
        let lr = t.leaky_relu(0.1);
        assert!((lr.as_slice()[0] + 0.2).abs() < 1e-6);
        let s = t.sigmoid();
        assert!((s.as_slice()[3] - 0.880797).abs() < 1e-5);
        let th = t.tanh();
        assert!((th.as_slice()[3] - 0.964027).abs() < 1e-5);
        assert_eq!(t.gt_zero_mask().as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn scalar_ops() {
        let t = Tensor::from_vec(&[2], vec![1.0, -2.0]).unwrap();
        assert_eq!(t.add_scalar(1.0).as_slice(), &[2.0, -1.0]);
        assert_eq!(t.mul_scalar(-3.0).as_slice(), &[-3.0, 6.0]);
        assert_eq!(t.neg().as_slice(), &[-1.0, 2.0]);
        assert_eq!(t.abs().as_slice(), &[1.0, 2.0]);
        assert_eq!(t.square().as_slice(), &[1.0, 4.0]);
        assert_eq!(t.clamp(-1.0, 0.5).as_slice(), &[0.5, -1.0]);
    }

    #[test]
    fn add_bias_broadcasts() {
        let x = Tensor::from_vec(&[2, 3], vec![0.0; 6]).unwrap();
        let b = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let y = x.add_bias(&b).unwrap();
        assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        assert!(x.add_bias(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn scale_rows_works() {
        let x = Tensor::ones(&[2, 2]);
        let s = Tensor::from_vec(&[2], vec![2.0, 3.0]).unwrap();
        let y = x.scale_rows(&s).unwrap();
        assert_eq!(y.as_slice(), &[2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn powf_and_recip() {
        let t = Tensor::from_vec(&[3], vec![1.0, 2.0, 4.0]).unwrap();
        let r = t.recip();
        assert_eq!(r.as_slice(), &[1.0, 0.5, 0.25]);
    }

    #[test]
    fn scale_cols_works() {
        let x = Tensor::ones(&[2, 3]);
        let s = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let y = x.scale_cols(&s).unwrap();
        assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        assert!(x.scale_cols(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn axpy_fuses() {
        let a = Tensor::ones(&[2]);
        let b = Tensor::from_vec(&[2], vec![10.0, 20.0]).unwrap();
        assert_eq!(a.axpy(0.1, &b).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn dropout_mask_scales() {
        let x = Tensor::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let m = Tensor::from_vec(&[4], vec![1.0, 0.0, 1.0, 0.0]).unwrap();
        let y = x.apply_dropout_mask(&m, 0.5).unwrap();
        assert_eq!(y.as_slice(), &[2.0, 0.0, 6.0, 0.0]);
    }

    #[test]
    fn events_are_emitted_with_correct_class() {
        record::start_recording();
        let a = Tensor::ones(&[8]);
        let _ = a.relu();
        let _ = a.add(&a).unwrap();
        let events = record::stop_recording();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.class == OpClass::ElementWise));
        assert_eq!(events[0].threads, 8);
        assert_eq!(events[1].bytes_read, 64);
    }

    use crate::instrument::OpClass;
}

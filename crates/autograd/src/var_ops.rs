//! Differentiable operations on [`Var`].
//!
//! Each operation computes its forward value through the instrumented
//! tensor engine and registers a backward closure that itself runs through
//! the tensor engine — so profiling a training step observes both halves
//! of every kernel pair (gather ↔ scatter, GEMM ↔ transposed GEMM, …).

use std::rc::Rc;

use gnnmark_tensor::ops::conv::Conv2dSpec;
use gnnmark_tensor::{CsrMatrix, IntTensor, Tensor};
use rand::Rng;

use crate::{Result, Var};

impl Var {
    // ----- element-wise binary -------------------------------------------

    /// Element-wise addition.
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn add(&self, other: &Var) -> Result<Var> {
        let value = self.with_value(|a| other.with_value(|b| a.add(b)))?;
        Ok(Var::record(
            &[self, other],
            value,
            Box::new(|up, _, _| Ok(vec![Some(up.clone()), Some(up.clone())])),
        ))
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn sub(&self, other: &Var) -> Result<Var> {
        let value = self.with_value(|a| other.with_value(|b| a.sub(b)))?;
        Ok(Var::record(
            &[self, other],
            value,
            Box::new(|up, _, _| Ok(vec![Some(up.clone()), Some(up.neg())])),
        ))
    }

    /// Element-wise multiplication.
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn mul(&self, other: &Var) -> Result<Var> {
        let value = self.with_value(|a| other.with_value(|b| a.mul(b)))?;
        Ok(Var::record(
            &[self, other],
            value,
            Box::new(|up, _, parents| {
                Ok(vec![Some(up.mul(parents[1])?), Some(up.mul(parents[0])?)])
            }),
        ))
    }

    /// Element-wise division.
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn div(&self, other: &Var) -> Result<Var> {
        let value = self.with_value(|a| other.with_value(|b| a.div(b)))?;
        Ok(Var::record(
            &[self, other],
            value,
            Box::new(|up, _, parents| {
                let da = up.div(parents[1])?;
                let db = up.mul(parents[0])?.div(&parents[1].square())?.neg();
                Ok(vec![Some(da), Some(db)])
            }),
        ))
    }

    // ----- element-wise unary --------------------------------------------

    /// Element-wise negation.
    pub fn neg(&self) -> Var {
        let value = self.with_value(Tensor::neg);
        Var::record(
            &[self],
            value,
            Box::new(|up, _, _| Ok(vec![Some(up.neg())])),
        )
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Var {
        let value = self.with_value(|t| t.add_scalar(s));
        Var::record(
            &[self],
            value,
            Box::new(|up, _, _| Ok(vec![Some(up.clone())])),
        )
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Var {
        let value = self.with_value(|t| t.mul_scalar(s));
        Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| Ok(vec![Some(up.mul_scalar(s))])),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let value = self.with_value(Tensor::relu);
        Var::record(
            &[self],
            value,
            Box::new(|up, _, parents| Ok(vec![Some(up.mul(&parents[0].gt_zero_mask())?)])),
        )
    }

    /// Leaky ReLU with fixed negative slope.
    pub fn leaky_relu(&self, alpha: f32) -> Var {
        let value = self.with_value(|t| t.leaky_relu(alpha));
        Var::record(
            &[self],
            value,
            Box::new(move |up, _, parents| {
                let m = parents[0].gt_zero_mask();
                let slope = m.mul_scalar(1.0 - alpha).add_scalar(alpha);
                Ok(vec![Some(up.mul(&slope)?)])
            }),
        )
    }

    /// Parametric ReLU; `alpha` is a (typically single-element) learned
    /// variable broadcast over all elements.
    ///
    /// # Errors
    /// Returns an error if `alpha` is not a single-element variable.
    pub fn prelu(&self, alpha: &Var) -> Result<Var> {
        let a = alpha.with_value(|t| t.item())?;
        let value = self.with_value(|t| t.prelu(a));
        Ok(Var::record(
            &[self, alpha],
            value,
            Box::new(move |up, _, parents| {
                let x = parents[0];
                let m = x.gt_zero_mask();
                let slope = m.mul_scalar(1.0 - a).add_scalar(a);
                let dx = up.mul(&slope)?;
                // dα = Σ up ⊙ x over the negative part.
                let neg_mask = m.neg().add_scalar(1.0);
                let dalpha = up.mul(x)?.mul(&neg_mask)?.sum_all();
                let dalpha = dalpha.reshape(&[1])?;
                Ok(vec![Some(dx), Some(dalpha)])
            }),
        ))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let value = self.with_value(Tensor::sigmoid);
        Var::record(
            &[self],
            value,
            Box::new(|up, y, _| {
                let one_minus = y.neg().add_scalar(1.0);
                Ok(vec![Some(up.mul(y)?.mul(&one_minus)?)])
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let value = self.with_value(Tensor::tanh);
        Var::record(
            &[self],
            value,
            Box::new(|up, y, _| {
                let one_minus_sq = y.square().neg().add_scalar(1.0);
                Ok(vec![Some(up.mul(&one_minus_sq)?)])
            }),
        )
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Var {
        let value = self.with_value(Tensor::exp);
        Var::record(
            &[self],
            value,
            Box::new(|up, y, _| Ok(vec![Some(up.mul(y)?)])),
        )
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Var {
        let value = self.with_value(Tensor::ln);
        Var::record(
            &[self],
            value,
            Box::new(|up, _, parents| Ok(vec![Some(up.div(parents[0])?)])),
        )
    }

    /// Element-wise square.
    pub fn square(&self) -> Var {
        let value = self.with_value(Tensor::square);
        Var::record(
            &[self],
            value,
            Box::new(|up, _, parents| Ok(vec![Some(up.mul(&parents[0].mul_scalar(2.0))?)])),
        )
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Var {
        let value = self.with_value(Tensor::sqrt);
        Var::record(
            &[self],
            value,
            Box::new(|up, y, _| Ok(vec![Some(up.div(y)?.mul_scalar(0.5))])),
        )
    }

    /// Element-wise reciprocal.
    pub fn recip(&self) -> Var {
        let value = self.with_value(Tensor::recip);
        Var::record(
            &[self],
            value,
            Box::new(|up, y, _| Ok(vec![Some(up.mul(&y.square())?.neg())])),
        )
    }

    /// Extracts columns `[start, end)` of a matrix.
    ///
    /// # Errors
    /// Propagates range errors from the tensor engine.
    pub fn slice_cols(&self, start: usize, end: usize) -> Result<Var> {
        let value = self.with_value(|t| t.slice_cols(start, end))?;
        let dims = self.dims();
        let (n, d) = (dims[0], dims[1]);
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| {
                let left = Tensor::zeros(&[n, start]);
                let right = Tensor::zeros(&[n, d - end]);
                let g = Tensor::concat_cols(&[&left, up, &right])?;
                Ok(vec![Some(g)])
            }),
        ))
    }

    /// Inverted dropout with keep mask drawn from `rng`.
    ///
    /// # Errors
    /// Returns an error if `p` is outside `[0, 1)`.
    pub fn dropout<R: Rng + ?Sized>(&self, p: f32, rng: &mut R) -> Result<Var> {
        if !(0.0..1.0).contains(&p) {
            return Err(gnnmark_tensor::TensorError::InvalidArgument {
                op: "dropout",
                reason: format!("p = {p} outside [0, 1)"),
            });
        }
        if p == 0.0 {
            // Identity; keep the graph shallow.
            let value = self.with_value(Clone::clone);
            return Ok(Var::record(
                &[self],
                value,
                Box::new(|up, _, _| Ok(vec![Some(up.clone())])),
            ));
        }
        let dims = self.dims();
        let mask = Tensor::from_fn(&dims, |_| if rng.gen::<f32>() < p { 0.0 } else { 1.0 });
        let value = self.with_value(|t| t.apply_dropout_mask(&mask, p))?;
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| Ok(vec![Some(up.apply_dropout_mask(&mask, p)?)])),
        ))
    }

    // ----- matrix ops ------------------------------------------------------

    /// Matrix product (`[m, k] × [k, n]`).
    ///
    /// The backward pass uses transposed-layout GEMMs (`gemm_nt` /
    /// `gemm_tn`), as cuBLAS does — no transpose kernels are launched.
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn matmul(&self, other: &Var) -> Result<Var> {
        let value = self.with_value(|a| other.with_value(|b| a.matmul(b)))?;
        Ok(Var::record(
            &[self, other],
            value,
            Box::new(|up, _, parents| {
                let da = up.matmul_nt(parents[1])?;
                let db = parents[0].matmul_tn(up)?;
                Ok(vec![Some(da), Some(db)])
            }),
        ))
    }

    /// Matrix product with transposed right operand: `self · otherᵀ`
    /// (`self` is `[m, k]`, `other` is `[n, k]`).
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn matmul_nt(&self, other: &Var) -> Result<Var> {
        let value = self.with_value(|a| other.with_value(|b| a.matmul_nt(b)))?;
        Ok(Var::record(
            &[self, other],
            value,
            Box::new(|up, _, parents| {
                // C = A·Bᵀ ⇒ dA = dC·B, dB = dCᵀ·A.
                let da = up.matmul(parents[1])?;
                let db = up.matmul_tn(parents[0])?;
                Ok(vec![Some(da), Some(db)])
            }),
        ))
    }

    /// Matrix product with transposed left operand: `selfᵀ · other`
    /// (`self` is `[k, m]`, `other` is `[k, n]`).
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn matmul_tn(&self, other: &Var) -> Result<Var> {
        let value = self.with_value(|a| other.with_value(|b| a.matmul_tn(b)))?;
        Ok(Var::record(
            &[self, other],
            value,
            Box::new(|up, _, parents| {
                // C = Aᵀ·B ⇒ dA = B·dCᵀ, dB = A·dC.
                let da = parents[1].matmul_nt(up)?;
                let db = parents[0].matmul(up)?;
                Ok(vec![Some(da), Some(db)])
            }),
        ))
    }

    /// Batched matrix product (`[b, m, k] × [b, k, n]`).
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn bmm(&self, other: &Var) -> Result<Var> {
        let value = self.with_value(|a| other.with_value(|b| a.bmm(b)))?;
        Ok(Var::record(
            &[self, other],
            value,
            Box::new(|up, _, parents| {
                let da = up.bmm_nt(parents[1])?;
                let db = parents[0].bmm_tn(up)?;
                Ok(vec![Some(da), Some(db)])
            }),
        ))
    }

    /// Batched matrix product with a transposed right operand:
    /// `self` (`[b, m, k]`) × `otherᵀ` where `other` is `[b, n, k]`.
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn bmm_nt(&self, other: &Var) -> Result<Var> {
        let value = self.with_value(|a| other.with_value(|b| a.bmm_nt(b)))?;
        Ok(Var::record(
            &[self, other],
            value,
            Box::new(|up, _, parents| {
                // C = A·Bᵀ ⇒ dA = dC·B, dB = dCᵀ·A (batched).
                let da = up.bmm(parents[1])?;
                let db = up.bmm_tn(parents[0])?;
                Ok(vec![Some(da), Some(db)])
            }),
        ))
    }

    /// Matrix transpose.
    ///
    /// # Errors
    /// Propagates rank errors from the tensor engine.
    pub fn transpose2d(&self) -> Result<Var> {
        let value = self.with_value(Tensor::transpose2d)?;
        Ok(Var::record(
            &[self],
            value,
            Box::new(|up, _, _| Ok(vec![Some(up.transpose2d()?)])),
        ))
    }

    /// Reshape to new dimensions.
    ///
    /// # Errors
    /// Propagates element-count mismatches.
    pub fn reshape(&self, dims: &[usize]) -> Result<Var> {
        let value = self.with_value(|t| t.reshape(dims))?;
        let old_dims = self.dims();
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| Ok(vec![Some(up.reshape(&old_dims)?)])),
        ))
    }

    /// Adds a bias row-vector to each row of a matrix.
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn add_bias(&self, bias: &Var) -> Result<Var> {
        let value = self.with_value(|a| bias.with_value(|b| a.add_bias(b)))?;
        Ok(Var::record(
            &[self, bias],
            value,
            Box::new(|up, _, _| Ok(vec![Some(up.clone()), Some(up.sum_cols()?)])),
        ))
    }

    /// Scales each row by the matching entry of a vector variable.
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn scale_rows(&self, scales: &Var) -> Result<Var> {
        let value = self.with_value(|a| scales.with_value(|s| a.scale_rows(s)))?;
        Ok(Var::record(
            &[self, scales],
            value,
            Box::new(|up, _, parents| {
                let dx = up.scale_rows(parents[1])?;
                let ds = up.mul(parents[0])?.sum_rows()?;
                Ok(vec![Some(dx), Some(ds)])
            }),
        ))
    }

    /// Scales each column by the matching entry of a vector variable
    /// (learned per-feature scales).
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn scale_cols(&self, scales: &Var) -> Result<Var> {
        let value = self.with_value(|a| scales.with_value(|s| a.scale_cols(s)))?;
        Ok(Var::record(
            &[self, scales],
            value,
            Box::new(|up, _, parents| {
                let dx = up.scale_cols(parents[1])?;
                let ds = up.mul(parents[0])?.sum_cols()?;
                Ok(vec![Some(dx), Some(ds)])
            }),
        ))
    }

    /// Concatenates variables along the row axis.
    ///
    /// # Errors
    /// Propagates shape mismatches; requires a non-empty list on one tape.
    ///
    /// # Panics
    /// Panics if the variables live on different tapes.
    pub fn concat_rows(parts: &[Var]) -> Result<Var> {
        assert!(!parts.is_empty(), "concat_rows requires at least one Var");
        let tensors: Vec<Tensor> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let value = Tensor::concat_rows(&refs)?;
        let row_counts: Vec<usize> = tensors.iter().map(|t| t.dim(0)).collect();
        let operands: Vec<&Var> = parts.iter().collect();
        Ok(Var::record(
            &operands,
            value,
            Box::new(move |up, _, _| {
                let mut grads = Vec::with_capacity(row_counts.len());
                let mut start = 0usize;
                for &rows in &row_counts {
                    grads.push(Some(up.slice_rows(start, start + rows)?));
                    start += rows;
                }
                Ok(grads)
            }),
        ))
    }

    /// Concatenates variables along the column axis.
    ///
    /// # Errors
    /// Propagates shape mismatches; requires a non-empty list on one tape.
    ///
    /// # Panics
    /// Panics if the variables live on different tapes.
    pub fn concat_cols(parts: &[Var]) -> Result<Var> {
        assert!(!parts.is_empty(), "concat_cols requires at least one Var");
        let tensors: Vec<Tensor> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let value = Tensor::concat_cols(&refs)?;
        let col_counts: Vec<usize> = tensors.iter().map(|t| t.dim(1)).collect();
        let operands: Vec<&Var> = parts.iter().collect();
        Ok(Var::record(
            &operands,
            value,
            Box::new(move |up, _, _| {
                let mut grads = Vec::with_capacity(col_counts.len());
                let mut start = 0usize;
                for &cols in &col_counts {
                    grads.push(Some(up.slice_cols(start, start + cols)?));
                    start += cols;
                }
                Ok(grads)
            }),
        ))
    }

    /// Extracts rows `[start, end)`.
    ///
    /// # Errors
    /// Propagates range errors from the tensor engine.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Var> {
        let value = self.with_value(|t| t.slice_rows(start, end))?;
        let n = self.dims()[0];
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| {
                let idx =
                    IntTensor::from_vec(&[end - start], (start as i64..end as i64).collect())?;
                Ok(vec![Some(up.scatter_add_rows(&idx, n)?)])
            }),
        ))
    }

    // ----- graph / irregular ops -------------------------------------------

    /// Aggregation via SpMM with a constant sparse matrix.
    ///
    /// `adj_t` must be the transpose of `adj` (precomputed once by the
    /// caller, as GNN frameworks do); it drives the backward pass.
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn spmm(adj: &Rc<CsrMatrix>, adj_t: &Rc<CsrMatrix>, x: &Var) -> Result<Var> {
        let value = x.with_value(|t| adj.spmm(t))?;
        let at = Rc::clone(adj_t);
        Ok(Var::record(
            &[x],
            value,
            Box::new(move |up, _, _| Ok(vec![Some(at.spmm(up)?)])),
        ))
    }

    /// Aggregation via SpMM with a *symmetric* constant sparse matrix
    /// (normalized undirected adjacency), avoiding a transpose.
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn spmm_sym(adj: &Rc<CsrMatrix>, x: &Var) -> Result<Var> {
        Var::spmm(adj, adj, x)
    }

    /// Gathers rows by a constant index tensor.
    ///
    /// # Errors
    /// Propagates bounds errors from the tensor engine.
    pub fn gather_rows(&self, index: &IntTensor) -> Result<Var> {
        let value = self.with_value(|t| t.gather_rows(index))?;
        let n = self.dims()[0];
        let idx = index.clone();
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| Ok(vec![Some(up.scatter_add_rows(&idx, n)?)])),
        ))
    }

    /// Index-select of rows by a constant index tensor.
    ///
    /// # Errors
    /// Propagates bounds errors from the tensor engine.
    pub fn index_select(&self, index: &IntTensor) -> Result<Var> {
        let value = self.with_value(|t| t.index_select(index))?;
        let n = self.dims()[0];
        let idx = index.clone();
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| Ok(vec![Some(up.scatter_add_rows(&idx, n)?)])),
        ))
    }

    /// Embedding lookup: `self` is the `[vocab, d]` table.
    ///
    /// # Errors
    /// Propagates bounds errors from the tensor engine.
    pub fn embedding_lookup(&self, ids: &IntTensor) -> Result<Var> {
        let value = self.with_value(|t| t.embedding_lookup(ids))?;
        let vocab = self.dims()[0];
        let idx = ids.clone();
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| Ok(vec![Some(up.scatter_add_rows(&idx, vocab)?)])),
        ))
    }

    /// Scatter-add of rows into `out_rows` destinations.
    ///
    /// # Errors
    /// Propagates bounds errors from the tensor engine.
    pub fn scatter_add_rows(&self, index: &IntTensor, out_rows: usize) -> Result<Var> {
        let value = self.with_value(|t| t.scatter_add_rows(index, out_rows))?;
        let idx = index.clone();
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| Ok(vec![Some(up.gather_rows(&idx)?)])),
        ))
    }

    /// Selects one element per row (NLL-style lookup).
    ///
    /// # Errors
    /// Propagates bounds errors from the tensor engine.
    pub fn select_per_row(&self, index: &IntTensor) -> Result<Var> {
        let value = self.with_value(|t| t.select_per_row(index))?;
        let d = self.dims()[1];
        let idx = index.clone();
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| Ok(vec![Some(up.scatter_per_row(&idx, d)?)])),
        ))
    }

    /// Fused mean binary-cross-entropy-with-logits against a constant
    /// target (one reduction kernel forward, one element-wise backward,
    /// matching PyTorch's fused loss).
    ///
    /// # Errors
    /// Propagates shape mismatches from the tensor engine.
    pub fn bce_with_logits_mean(&self, target: &Tensor) -> Result<Var> {
        let value = self.with_value(|z| z.bce_with_logits_mean(target))?;
        let y = target.clone();
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, parents| {
                let g = parents[0].bce_with_logits_backward(&y)?;
                Ok(vec![Some(g.mul_scalar(up.item()?))])
            }),
        ))
    }

    // ----- normalization / softmax ------------------------------------------

    /// Row-wise softmax.
    ///
    /// # Errors
    /// Propagates rank errors from the tensor engine.
    pub fn softmax_rows(&self) -> Result<Var> {
        let value = self.with_value(Tensor::softmax_rows)?;
        Ok(Var::record(
            &[self],
            value,
            Box::new(|up, y, _| {
                let t = up.mul(y)?;
                let s = t.sum_rows()?;
                Ok(vec![Some(t.sub(&y.scale_rows(&s)?)?)])
            }),
        ))
    }

    /// Row-wise log-softmax.
    ///
    /// # Errors
    /// Propagates rank errors from the tensor engine.
    pub fn log_softmax_rows(&self) -> Result<Var> {
        let value = self.with_value(Tensor::log_softmax_rows)?;
        Ok(Var::record(
            &[self],
            value,
            Box::new(|up, y, _| {
                let p = y.exp();
                let s = up.sum_rows()?;
                Ok(vec![Some(up.sub(&p.scale_rows(&s)?)?)])
            }),
        ))
    }

    /// Batch normalization with learned `gamma`/`beta` variables.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn batch_norm(&self, gamma: &Var, beta: &Var, eps: f32) -> Result<Var> {
        let (value, mean, var) = self
            .with_value(|x| gamma.with_value(|g| beta.with_value(|b| x.batch_norm(g, b, eps))))?;
        Ok(Var::record(
            &[self, gamma, beta],
            value,
            Box::new(move |up, _, parents| {
                let (dx, dgamma, dbeta) =
                    parents[0].batch_norm_backward(parents[1], &mean, &var, eps, up)?;
                Ok(vec![Some(dx), Some(dgamma), Some(dbeta)])
            }),
        ))
    }

    /// 2-D convolution with a learned filter variable.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn conv2d(&self, weight: &Var, spec: Conv2dSpec) -> Result<Var> {
        let value = self.with_value(|x| weight.with_value(|w| x.conv2d(w, spec)))?;
        Ok(Var::record(
            &[self, weight],
            value,
            Box::new(move |up, _, parents| {
                let (dx, dw) = parents[0].conv2d_backward(parents[1], spec, up)?;
                Ok(vec![Some(dx), Some(dw)])
            }),
        ))
    }

    // ----- reductions --------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum_all(&self) -> Var {
        let value = self.with_value(Tensor::sum_all);
        let dims = self.dims();
        Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| {
                let g = up.item()?;
                Ok(vec![Some(Tensor::full(&dims, g))])
            }),
        )
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&self) -> Var {
        let value = self.with_value(Tensor::mean_all);
        let dims = self.dims();
        let n: usize = dims.iter().product();
        Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| {
                let g = up.item()? / n as f32;
                Ok(vec![Some(Tensor::full(&dims, g))])
            }),
        )
    }

    /// Row-wise sum of a matrix (`[n, d]` → `[n]`).
    ///
    /// # Errors
    /// Propagates rank errors from the tensor engine.
    pub fn sum_rows(&self) -> Result<Var> {
        let value = self.with_value(Tensor::sum_rows)?;
        let dims = self.dims();
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| Ok(vec![Some(Tensor::ones(&dims).scale_rows(up)?)])),
        ))
    }

    /// Row-wise mean of a matrix (`[n, d]` → `[n]`).
    ///
    /// # Errors
    /// Propagates rank errors from the tensor engine.
    pub fn mean_rows(&self) -> Result<Var> {
        let value = self.with_value(Tensor::mean_rows)?;
        let dims = self.dims();
        let d = dims[1] as f32;
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| {
                Ok(vec![Some(
                    Tensor::ones(&dims).scale_rows(up)?.mul_scalar(1.0 / d),
                )])
            }),
        ))
    }

    /// Column-wise sum of a matrix (`[n, d]` → `[d]`).
    ///
    /// # Errors
    /// Propagates rank errors from the tensor engine.
    pub fn sum_cols(&self) -> Result<Var> {
        let value = self.with_value(Tensor::sum_cols)?;
        let dims = self.dims();
        Ok(Var::record(
            &[self],
            value,
            Box::new(move |up, _, _| Ok(vec![Some(Tensor::zeros(&dims).add_bias(up)?)])),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;
    use rand::SeedableRng;

    /// Finite-difference gradient check of a scalar-valued function of one
    /// leaf tensor.
    fn grad_check(dims: &[usize], build: impl Fn(&Tape, &Var) -> Var, seed: u64, tol: f32) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x0 = Tensor::uniform(dims, 0.2, 1.5, &mut rng);
        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = build(&tape, &x);
        tape.backward(&loss).unwrap();
        let analytic = x.grad().expect("leaf grad");

        let eps = 1e-2f32;
        for flat in 0..x0.numel().min(6) {
            let mut xp = x0.clone();
            xp.as_mut_slice()[flat] += eps;
            let mut xm = x0.clone();
            xm.as_mut_slice()[flat] -= eps;
            let f = |t: Tensor| -> f32 {
                let tape = Tape::new();
                let v = tape.leaf(t);
                build(&tape, &v).value().item().unwrap()
            };
            let fd = (f(xp) - f(xm)) / (2.0 * eps);
            let a = analytic.as_slice()[flat];
            assert!(
                (a - fd).abs() < tol * (1.0 + fd.abs()),
                "grad[{flat}] analytic {a} vs fd {fd}"
            );
        }
    }

    #[test]
    fn grad_elementwise_chain() {
        grad_check(
            &[2, 3],
            |_, x| x.relu().square().mul_scalar(0.5).sum_all(),
            1,
            1e-2,
        );
        grad_check(&[4], |_, x| x.sigmoid().sum_all(), 2, 1e-2);
        grad_check(&[4], |_, x| x.tanh().sum_all(), 3, 1e-2);
        grad_check(&[4], |_, x| x.exp().mean_all(), 4, 1e-2);
        grad_check(&[4], |_, x| x.ln().sum_all(), 5, 2e-2);
        grad_check(&[4], |_, x| x.sqrt().sum_all(), 6, 2e-2);
        grad_check(&[4], |_, x| x.leaky_relu(0.2).sum_all(), 7, 1e-2);
    }

    #[test]
    fn grad_binary_ops() {
        grad_check(
            &[3],
            |tape, x| {
                let c = tape.constant(Tensor::from_vec(&[3], vec![2.0, -1.0, 0.5]).unwrap());
                x.mul(&c).unwrap().sum_all()
            },
            8,
            1e-2,
        );
        grad_check(
            &[3],
            |tape, x| {
                let c = tape.constant(Tensor::from_vec(&[3], vec![2.0, 4.0, 0.5]).unwrap());
                x.div(&c).unwrap().sum_all()
            },
            9,
            1e-2,
        );
        grad_check(
            &[3],
            |_, x| {
                let y = x.mul_scalar(2.0);
                x.sub(&y).unwrap().square().sum_all()
            },
            10,
            1e-2,
        );
    }

    #[test]
    fn grad_matmul() {
        grad_check(
            &[3, 4],
            |tape, x| {
                let w = tape.constant(Tensor::from_fn(&[4, 2], |i| 0.1 * i as f32 - 0.3));
                x.matmul(&w).unwrap().square().sum_all()
            },
            11,
            1e-2,
        );
    }

    #[test]
    fn grad_bmm_nt() {
        grad_check(
            &[12],
            |tape, x| {
                let a = x.reshape(&[2, 2, 3]).unwrap();
                let b = tape.constant(Tensor::from_fn(&[2, 4, 3], |i| 0.1 * (i as f32) - 0.5));
                a.bmm_nt(&b).unwrap().square().sum_all()
            },
            42,
            2e-2,
        );
    }

    #[test]
    fn grad_matmul_nt_and_tn() {
        grad_check(
            &[3, 4],
            |tape, x| {
                let w = tape.constant(Tensor::from_fn(&[2, 4], |i| 0.1 * i as f32 - 0.3));
                x.matmul_nt(&w).unwrap().square().sum_all()
            },
            40,
            1e-2,
        );
        grad_check(
            &[4, 3],
            |tape, x| {
                let w = tape.constant(Tensor::from_fn(&[4, 2], |i| 0.1 * i as f32 - 0.3));
                x.matmul_tn(&w).unwrap().square().sum_all()
            },
            41,
            1e-2,
        );
    }

    #[test]
    fn grad_softmax_and_logsoftmax() {
        grad_check(
            &[2, 4],
            |tape, x| {
                let w = tape.constant(Tensor::from_fn(&[2, 4], |i| ((i % 3) as f32) - 1.0));
                x.softmax_rows().unwrap().mul(&w).unwrap().sum_all()
            },
            12,
            2e-2,
        );
        grad_check(
            &[2, 4],
            |tape, x| {
                let w = tape.constant(Tensor::from_fn(&[2, 4], |i| ((i % 3) as f32) - 1.0));
                x.log_softmax_rows().unwrap().mul(&w).unwrap().sum_all()
            },
            13,
            2e-2,
        );
    }

    #[test]
    fn grad_gather_scatter() {
        let idx = IntTensor::from_vec(&[3], vec![1, 0, 1]).unwrap();
        grad_check(
            &[2, 3],
            move |_, x| {
                let g = x.gather_rows(&idx).unwrap();
                g.square().sum_all()
            },
            14,
            1e-2,
        );
        let idx2 = IntTensor::from_vec(&[3], vec![0, 2, 0]).unwrap();
        grad_check(
            &[3, 2],
            move |_, x| x.scatter_add_rows(&idx2, 3).unwrap().square().sum_all(),
            15,
            1e-2,
        );
    }

    #[test]
    fn grad_spmm() {
        let adj = Rc::new(
            CsrMatrix::from_coo(3, 3, &[(0, 1, 0.5), (1, 2, 1.5), (2, 0, 1.0), (2, 2, 0.25)])
                .unwrap(),
        );
        let adj_t = Rc::new(adj.transpose());
        grad_check(
            &[3, 2],
            move |_, x| {
                let y = Var::spmm(&adj, &adj_t, x).unwrap();
                y.square().sum_all()
            },
            16,
            1e-2,
        );
    }

    #[test]
    fn grad_bias_and_reductions() {
        grad_check(
            &[3, 2],
            |tape, x| {
                let b = tape.constant(Tensor::from_vec(&[2], vec![0.5, -0.5]).unwrap());
                x.add_bias(&b).unwrap().square().sum_all()
            },
            17,
            1e-2,
        );
        grad_check(
            &[3, 2],
            |_, x| x.sum_rows().unwrap().square().sum_all(),
            18,
            1e-2,
        );
        grad_check(
            &[3, 2],
            |_, x| x.sum_cols().unwrap().square().sum_all(),
            19,
            1e-2,
        );
        grad_check(
            &[3, 2],
            |_, x| x.mean_rows().unwrap().square().sum_all(),
            20,
            1e-2,
        );
    }

    #[test]
    fn grad_scale_cols() {
        grad_check(
            &[3, 2],
            |tape, x| {
                let s = tape.constant(Tensor::from_vec(&[2], vec![2.0, -0.5]).unwrap());
                x.scale_cols(&s).unwrap().square().sum_all()
            },
            43,
            1e-2,
        );
    }

    #[test]
    fn grad_concat_and_slice() {
        grad_check(
            &[4, 2],
            |_, x| {
                let a = x.slice_rows(0, 2).unwrap();
                let b = x.slice_rows(2, 4).unwrap();
                let cat = Var::concat_cols(&[a, b]).unwrap();
                cat.square().sum_all()
            },
            21,
            1e-2,
        );
        grad_check(
            &[2, 3],
            |_, x| {
                let y = Var::concat_rows(&[x.clone(), x.mul_scalar(2.0)]).unwrap();
                y.square().sum_all()
            },
            22,
            1e-2,
        );
    }

    #[test]
    fn grad_conv2d_via_var() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let w0 = Tensor::randn(&[2, 1, 2, 2], 0.5, &mut rng);
        grad_check(
            &[8],
            move |tape, x| {
                let img = x.reshape(&[1, 1, 4, 2]).unwrap();
                let w = tape.constant(w0.clone());
                img.conv2d(&w, Conv2dSpec::default())
                    .unwrap()
                    .square()
                    .sum_all()
            },
            24,
            2e-2,
        );
    }

    #[test]
    fn grad_batch_norm_via_var() {
        grad_check(
            &[6, 2],
            |tape, x| {
                let g = tape.constant(Tensor::ones(&[2]));
                let b = tape.constant(Tensor::zeros(&[2]));
                let y = x.batch_norm(&g, &b, 1e-5).unwrap();
                let w = tape.constant(Tensor::from_fn(&[6, 2], |i| (i as f32) * 0.1));
                y.mul(&w).unwrap().sum_all()
            },
            25,
            5e-2,
        );
    }

    #[test]
    fn grad_prelu_learns_alpha() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[3], vec![-1.0, 2.0, -3.0]).unwrap());
        let alpha = tape.leaf(Tensor::from_vec(&[1], vec![0.25]).unwrap());
        let y = x.prelu(&alpha).unwrap();
        let loss = y.sum_all();
        tape.backward(&loss).unwrap();
        // dα = Σ x over negative part = -1 + -3 = -4.
        assert!((alpha.grad().unwrap().as_slice()[0] + 4.0).abs() < 1e-5);
    }

    #[test]
    fn grad_recip_and_slice_cols() {
        grad_check(&[4], |_, x| x.recip().sum_all(), 31, 2e-2);
        grad_check(
            &[2, 4],
            |_, x| x.slice_cols(1, 3).unwrap().square().sum_all(),
            32,
            1e-2,
        );
    }

    #[test]
    fn grad_select_per_row() {
        let idx = IntTensor::from_vec(&[2], vec![1, 0]).unwrap();
        grad_check(
            &[2, 3],
            move |_, x| x.select_per_row(&idx).unwrap().square().sum_all(),
            26,
            1e-2,
        );
    }

    #[test]
    fn grad_embedding() {
        let ids = IntTensor::from_vec(&[3], vec![0, 2, 0]).unwrap();
        grad_check(
            &[3, 2],
            move |_, x| x.embedding_lookup(&ids).unwrap().square().sum_all(),
            27,
            1e-2,
        );
    }

    #[test]
    fn grad_bmm() {
        grad_check(
            &[12],
            |tape, x| {
                let a = x.reshape(&[2, 2, 3]).unwrap();
                let b = tape.constant(Tensor::from_fn(&[2, 3, 2], |i| 0.1 * (i as f32) - 0.4));
                a.bmm(&b).unwrap().square().sum_all()
            },
            28,
            2e-2,
        );
    }

    #[test]
    fn dropout_zero_p_is_identity_and_differentiable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[4]));
        let y = x.dropout(0.0, &mut rng).unwrap();
        let loss = y.sum_all();
        tape.backward(&loss).unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0; 4]);
        assert!(x.dropout(1.5, &mut rng).is_err());
    }

    #[test]
    fn dropout_mask_consistent_between_passes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[64]));
        let y = x.dropout(0.5, &mut rng).unwrap();
        let loss = y.sum_all();
        tape.backward(&loss).unwrap();
        let g = x.grad().unwrap();
        let yv = y.value();
        // Gradient is nonzero exactly where the output is nonzero.
        for (gv, ov) in g.as_slice().iter().zip(yv.as_slice()) {
            assert_eq!(*gv == 0.0, *ov == 0.0);
        }
    }
}

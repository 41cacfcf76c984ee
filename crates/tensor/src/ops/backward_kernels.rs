//! Backward kernels that do not decompose cleanly into forward primitives:
//! conv2d input/weight gradients and batch-norm gradients, plus transposed
//! batched GEMM variants and per-row selection used by loss functions.
//!
//! Training-time profiles in the paper include these backward kernels; they
//! carry the same op classes as their forward counterparts (cuDNN's
//! `dgrad`/`wgrad` kernels profile as convolutions, etc.).

use std::sync::Arc;

use super::conv::{valid_taps, Conv2dSpec};
use super::gemm::{bmm_into, with_nt_pack};
use super::{emit_op, emit_sequential};
use crate::cost;
use crate::instrument::{AccessDesc, OpClass};
use crate::{par, pool, simd, IntTensor, Result, Tensor, TensorError};

/// Input channels whose wgrad reductions run side by side: enough
/// independent add chains to cover the add latency at any vector width,
/// few enough to stay in registers.
const WGRAD_CHAINS: usize = 16;

/// The loop bounds one image's wgrad taps share.
#[derive(Clone, Copy)]
struct WgradGeometry {
    spec: Conv2dSpec,
    c_in: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    kh: usize,
    kw: usize,
}

/// Adds one image's contribution to the filter gradient of `C` adjacent
/// input channels: `dw[c][ky][kx] += Σ_(oy, ox) g[oy][ox] · x_c[sy][sx]`.
/// `xt` is the image channels-last (`[h * w, c_in]`) starting at the first
/// of the `C` channels, `dw` starts at its taps. Each of the `C` sums is
/// accumulated on its own, from `0.0`, in (oy, ox) order with a separate
/// multiply and add — exactly as if `C` were 1 — so the block size changes
/// the time and nothing else.
#[inline(always)]
fn wgrad_taps<const C: usize>(geo: WgradGeometry, g_img: &[f32], xt: &[f32], dw: &mut [f32]) {
    let WgradGeometry {
        spec,
        c_in,
        h,
        w,
        oh,
        ow,
        kh,
        kw,
    } = geo;
    for ky in 0..kh {
        let oys = valid_taps(spec.stride_h, spec.pad_h, ky, h, oh);
        for kx in 0..kw {
            let oxs = valid_taps(spec.stride_w, spec.pad_w, kx, w, ow);
            let mut acc = [0.0f32; C];
            for oy in oys.clone() {
                let sy = oy * spec.stride_h + ky - spec.pad_h;
                for ox in oxs.clone() {
                    let gv = g_img[oy * ow + ox];
                    let sx = ox * spec.stride_w + kx - spec.pad_w;
                    let xs: &[f32; C] = xt[(sy * w + sx) * c_in..][..C].try_into().unwrap();
                    for (a, &xv) in acc.iter_mut().zip(xs) {
                        *a += gv * xv;
                    }
                }
            }
            for (c, a) in acc.iter().enumerate() {
                dw[c * kh * kw + ky * kw + kx] += a;
            }
        }
    }
}

impl Tensor {
    /// Batched product with a transposed right operand:
    /// `self` (`[b, m, k]`) × `otherᵀ` where `other` is `[b, n, k]`,
    /// yielding `[b, m, n]`.
    ///
    /// Like [`Tensor::matmul_nt`], inside a
    /// [`PackScope`](super::gemm::PackScope) (every autograd backward pass)
    /// each batch of a given `other` is transposed once and the pack reused
    /// by later calls on the same buffer and dims.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// on malformed operands.
    pub fn bmm_nt(&self, other: &Tensor) -> Result<Tensor> {
        if self.rank() != 3 || other.rank() != 3 {
            return Err(TensorError::RankMismatch {
                op: "bmm_nt",
                expected: 3,
                actual: if self.rank() != 3 {
                    self.rank()
                } else {
                    other.rank()
                },
            });
        }
        if self.dim(0) != other.dim(0) || self.dim(2) != other.dim(2) {
            return Err(TensorError::ShapeMismatch {
                op: "bmm_nt",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let (b, m, k) = (self.dim(0), self.dim(1), self.dim(2));
        let n = other.dim(1);
        // Transpose each batch of `other` ([n, k] → [k, n]), then reuse
        // the shared blocked kernel — same path as the forward bmm.
        let out = with_nt_pack(other, b, n, k, |packed| {
            let mut out = pool::zeroed(b * m * n);
            bmm_into(self.as_slice(), false, packed, &mut out, b, m, k, n);
            out
        });
        let result = Tensor::from_vec(&[b, m, n], out)?;
        let macs = (b * m * k * n) as u64;
        emit_sequential(
            OpClass::Gemm,
            "sgemm_nt_batched",
            2 * macs,
            cost::gemm_iops(b * m, k, n),
            (b * (m * k + n * k)) as u64 * 4,
            (b * m * n) as u64 * 4,
            (b * m * n) as u64,
        );
        Ok(result)
    }

    /// Batched product with a transposed left operand:
    /// `selfᵀ` (`self` is `[b, k, m]`) × `other` (`[b, k, n]`),
    /// yielding `[b, m, n]`.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// on malformed operands.
    pub fn bmm_tn(&self, other: &Tensor) -> Result<Tensor> {
        if self.rank() != 3 || other.rank() != 3 {
            return Err(TensorError::RankMismatch {
                op: "bmm_tn",
                expected: 3,
                actual: if self.rank() != 3 {
                    self.rank()
                } else {
                    other.rank()
                },
            });
        }
        if self.dim(0) != other.dim(0) || self.dim(1) != other.dim(1) {
            return Err(TensorError::ShapeMismatch {
                op: "bmm_tn",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let (b, k, m) = (self.dim(0), self.dim(1), self.dim(2));
        let n = other.dim(2);
        // The shared blocked kernel reads each `[k, m]` batch of `self`
        // through transposed strides; nothing is packed.
        let mut out = pool::zeroed(b * m * n);
        bmm_into(
            self.as_slice(),
            true,
            other.as_slice(),
            &mut out,
            b,
            m,
            k,
            n,
        );
        let result = Tensor::from_vec(&[b, m, n], out)?;
        let macs = (b * m * k * n) as u64;
        emit_sequential(
            OpClass::Gemm,
            "sgemm_tn_batched",
            2 * macs,
            cost::gemm_iops(b * m, k, n),
            (b * (k * m + k * n)) as u64 * 4,
            (b * m * n) as u64 * 4,
            (b * m * n) as u64,
        );
        Ok(result)
    }

    /// Selects one element per row of a `[n, d]` matrix:
    /// `out[i] = self[i, index[i]]`. Used by NLL-style losses.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// / [`TensorError::IndexOutOfBounds`] on malformed inputs.
    pub fn select_per_row(&self, index: &IntTensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "select_per_row",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        if index.numel() != n {
            return Err(TensorError::ShapeMismatch {
                op: "select_per_row",
                lhs: vec![n, d],
                rhs: index.dims().to_vec(),
            });
        }
        index.check_bounds(d, "select_per_row")?;
        let src = self.as_slice();
        let out: Vec<f32> = index
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &c)| src[i * d + c as usize])
            .collect();
        let result = Tensor::from_vec(&[n], out)?;
        // Flat element indices for the access descriptor.
        let flat: Vec<u32> = index
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &c)| (i * d) as u32 + c as u32)
            .collect();
        let table_bytes = self.byte_len();
        emit_op(
            OpClass::Gather,
            "select_per_row",
            0,
            n as u64 * cost::INT_PER_GATHER_ELEM,
            n as u64 * 12,
            n as u64 * 4,
            n as u64,
            move || {
                vec![AccessDesc::Indexed {
                    indices: Arc::new(flat),
                    row_bytes: 4,
                    table_bytes,
                }]
            },
            move || {
                vec![AccessDesc::Sequential {
                    bytes: n as u64 * 4,
                }]
            },
        );
        Ok(result)
    }

    /// Inverse of [`Tensor::select_per_row`]: scatters a length-`n` vector
    /// into a fresh `[n, d]` matrix at one column per row.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// / [`TensorError::IndexOutOfBounds`] on malformed inputs.
    pub fn scatter_per_row(&self, index: &IntTensor, d: usize) -> Result<Tensor> {
        if self.rank() != 1 {
            return Err(TensorError::RankMismatch {
                op: "scatter_per_row",
                expected: 1,
                actual: self.rank(),
            });
        }
        let n = self.dim(0);
        if index.numel() != n {
            return Err(TensorError::ShapeMismatch {
                op: "scatter_per_row",
                lhs: vec![n],
                rhs: index.dims().to_vec(),
            });
        }
        index.check_bounds(d, "scatter_per_row")?;
        let mut out = Tensor::zeros(&[n, d]);
        {
            let dst = out.as_mut_slice();
            for (i, (&v, &c)) in self.as_slice().iter().zip(index.as_slice()).enumerate() {
                dst[i * d + c as usize] = v;
            }
        }
        let flat: Vec<u32> = index
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &c)| (i * d) as u32 + c as u32)
            .collect();
        emit_op(
            OpClass::Scatter,
            "scatter_per_row",
            0,
            n as u64 * cost::INT_PER_GATHER_ELEM,
            n as u64 * 12,
            n as u64 * 4,
            n as u64,
            move || {
                vec![AccessDesc::Sequential {
                    bytes: n as u64 * 12,
                }]
            },
            move || {
                vec![AccessDesc::Indexed {
                    indices: Arc::new(flat),
                    row_bytes: 4,
                    table_bytes: (n * d * 4) as u64,
                }]
            },
        );
        Ok(out)
    }

    /// Gradient of [`Tensor::conv2d`] with respect to input and weight.
    ///
    /// `self` is the forward input `[n, c_in, h, w]`, `weight` the forward
    /// filter `[c_out, c_in, kh, kw]` and `dout` the upstream gradient
    /// `[n, c_out, h', w']`. Returns `(dx, dw)`.
    ///
    /// # Errors
    /// Returns the same errors as the forward convolution for malformed
    /// shapes.
    pub fn conv2d_backward(
        &self,
        weight: &Tensor,
        spec: Conv2dSpec,
        dout: &Tensor,
    ) -> Result<(Tensor, Tensor)> {
        if self.rank() != 4 || weight.rank() != 4 || dout.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "conv2d_backward",
                expected: 4,
                actual: self.rank().min(weight.rank()).min(dout.rank()),
            });
        }
        let (n, c_in, h, w) = (self.dim(0), self.dim(1), self.dim(2), self.dim(3));
        let (c_out, _, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
        let (oh, ow) = spec.output_size(h, w, kh, kw)?;
        if dout.dims() != [n, c_out, oh, ow] {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_backward",
                lhs: vec![n, c_out, oh, ow],
                rhs: dout.dims().to_vec(),
            });
        }
        let x = self.as_slice();
        let k = weight.as_slice();
        let g = dout.as_slice();
        let in_img = c_in * h * w;
        let in_ch = h * w;
        let out_img = c_out * oh * ow;
        let out_ch = oh * ow;
        let k_oc = c_in * kh * kw;
        let k_ic = kh * kw;
        let macs_total = n
            .saturating_mul(out_img)
            .saturating_mul(c_in)
            .saturating_mul(k_ic);
        let chunks = par::chunks(macs_total, par::Cost::CONV_GRAD_MAC);

        // dgrad: one task row per (image, input channel). Every dx element
        // is summed by exactly one task, in (oc, ky, kx, oy, ox) tap order
        // regardless of thread count; the inner loop is a contiguous axpy
        // over input columns when the stride is 1.
        let mut dx = pool::zeroed(x.len());
        let dx_ranges = par::even_ranges(n * c_in, chunks);
        par::for_row_ranges_mut(&mut dx, in_ch, &dx_ranges, |_, task_rows, chunk| {
            for (row, dx_img) in task_rows.zip(chunk.chunks_exact_mut(in_ch)) {
                let (ni, ic) = (row / c_in, row % c_in);
                for oc in 0..c_out {
                    let g_img = &g[ni * out_img + oc * out_ch..][..out_ch];
                    let k_ch = &k[oc * k_oc + ic * k_ic..][..k_ic];
                    for ky in 0..kh {
                        let oys = valid_taps(spec.stride_h, spec.pad_h, ky, h, oh);
                        for kx in 0..kw {
                            let kval = k_ch[ky * kw + kx];
                            let oxs = valid_taps(spec.stride_w, spec.pad_w, kx, w, ow);
                            for oy in oys.clone() {
                                let sy = oy * spec.stride_h + ky - spec.pad_h;
                                let dx_row = &mut dx_img[sy * w..][..w];
                                let g_row = &g_img[oy * ow..][..ow];
                                if spec.stride_w == 1 {
                                    let sx0 = oxs.start + kx - spec.pad_w;
                                    for (d, &gv) in
                                        dx_row[sx0..].iter_mut().zip(&g_row[oxs.clone()])
                                    {
                                        *d += gv * kval;
                                    }
                                } else {
                                    for ox in oxs.clone() {
                                        dx_row[ox * spec.stride_w + kx - spec.pad_w] +=
                                            g_row[ox] * kval;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        });

        // wgrad: one task row per output channel; every dw element is a
        // fixed-order reduction over (image, oy, ox), so it too is
        // thread-count invariant. Each reduction is one dependent chain of
        // adds, so `WGRAD_CHAINS` input channels' chains run side by side —
        // over a channels-last copy of the input, where their operands are
        // adjacent (a transpose of `x.len()` elements against `c_out * kh *
        // kw` MACs on each).
        let geo = WgradGeometry {
            spec,
            c_in,
            h,
            w,
            oh,
            ow,
            kh,
            kw,
        };
        let lvl = simd::level();
        let mut xt = pool::zeroed(x.len());
        for ni in 0..n {
            let img = ni * in_img..(ni + 1) * in_img;
            simd::transpose(lvl, &x[img.clone()], c_in, in_ch, 0..in_ch, &mut xt[img]);
        }
        let mut dw = pool::zeroed(k.len());
        let dw_ranges = par::even_ranges(c_out, chunks);
        par::for_row_ranges_mut(&mut dw, k_oc, &dw_ranges, |_, task_rows, chunk| {
            for (oc, dw_oc) in task_rows.zip(chunk.chunks_exact_mut(k_oc)) {
                for ni in 0..n {
                    let g_img = &g[ni * out_img + oc * out_ch..][..out_ch];
                    let xt_img = &xt[ni * in_img..][..in_img];
                    let mut blocks = dw_oc.chunks_exact_mut(WGRAD_CHAINS * k_ic);
                    let mut ic = 0;
                    for dw_block in &mut blocks {
                        wgrad_taps::<WGRAD_CHAINS>(geo, g_img, &xt_img[ic..], dw_block);
                        ic += WGRAD_CHAINS;
                    }
                    for dw_ch in blocks.into_remainder().chunks_exact_mut(k_ic) {
                        wgrad_taps::<1>(geo, g_img, &xt_img[ic..], dw_ch);
                        ic += 1;
                    }
                }
            }
        });
        let macs = (n * c_out * oh * ow * c_in * kh * kw) as u64;
        // dgrad and wgrad each redo the MAC volume of the forward pass.
        emit_sequential(
            OpClass::Conv2d,
            "conv2d_dgrad",
            2 * macs,
            cost::conv2d_iops(macs),
            (dout.numel() + weight.numel()) as u64 * 4,
            self.numel() as u64 * 4,
            self.numel() as u64,
        );
        emit_sequential(
            OpClass::Conv2d,
            "conv2d_wgrad",
            2 * macs,
            cost::conv2d_iops(macs),
            (dout.numel() + self.numel()) as u64 * 4,
            weight.numel() as u64 * 4,
            weight.numel() as u64,
        );
        Ok((
            Tensor::from_vec(self.dims(), dx)?,
            Tensor::from_vec(weight.dims(), dw)?,
        ))
    }

    /// Gradient of [`Tensor::batch_norm`].
    ///
    /// `self` is the forward input `[n, d]`; `mean`/`var` are the saved
    /// batch statistics. Returns `(dx, dgamma, dbeta)`.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// on malformed inputs.
    pub fn batch_norm_backward(
        &self,
        gamma: &Tensor,
        mean: &Tensor,
        var: &Tensor,
        eps: f32,
        dout: &Tensor,
    ) -> Result<(Tensor, Tensor, Tensor)> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "batch_norm_backward",
                expected: 2,
                actual: self.rank(),
            });
        }
        self.shape()
            .require_same(dout.shape(), "batch_norm_backward")?;
        let (n, d) = (self.dim(0), self.dim(1));
        if gamma.dims() != [d] || mean.dims() != [d] || var.dims() != [d] {
            return Err(TensorError::ShapeMismatch {
                op: "batch_norm_backward",
                lhs: vec![d],
                rhs: gamma.dims().to_vec(),
            });
        }
        let x = self.as_slice();
        let g = dout.as_slice();
        let gm = gamma.as_slice();
        let mu = mean.as_slice();
        let vr = var.as_slice();
        let inv_std: Vec<f32> = vr.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();

        let mut dgamma = vec![0.0f32; d];
        let mut dbeta = vec![0.0f32; d];
        let mut sum_g = vec![0.0f32; d];
        let mut sum_gx = vec![0.0f32; d];
        for i in 0..n {
            for j in 0..d {
                let xh = (x[i * d + j] - mu[j]) * inv_std[j];
                let gi = g[i * d + j];
                dgamma[j] += gi * xh;
                dbeta[j] += gi;
                sum_g[j] += gi;
                sum_gx[j] += gi * xh;
            }
        }
        let mut dx = vec![0.0f32; n * d];
        let nf = n as f32;
        for i in 0..n {
            for j in 0..d {
                let xh = (x[i * d + j] - mu[j]) * inv_std[j];
                dx[i * d + j] =
                    gm[j] * inv_std[j] / nf * (nf * g[i * d + j] - sum_g[j] - xh * sum_gx[j]);
            }
        }
        let total = (n * d) as u64;
        emit_sequential(
            OpClass::BatchNorm,
            "batch_norm_backward",
            total * 12,
            total * cost::INT_PER_BATCHNORM_ELEM,
            total * 4 * 3,
            total * 4,
            total,
        );
        Ok((
            Tensor::from_vec(&[n, d], dx)?,
            Tensor::from_vec(&[d], dgamma)?,
            Tensor::from_vec(&[d], dbeta)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bmm_nt_matches_explicit_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Tensor::from_fn(&[2, 3, 4], |_| rng.gen_range(-1.0..1.0));
        let b = Tensor::from_fn(&[2, 5, 4], |_| rng.gen_range(-1.0..1.0));
        let c = a.bmm_nt(&b).unwrap();
        assert_eq!(c.dims(), &[2, 3, 5]);
        // Verify one element by hand.
        let mut acc = 0.0f32;
        for kk in 0..4 {
            acc += a.get(&[1, 2, kk]) * b.get(&[1, 4, kk]);
        }
        assert!((c.get(&[1, 2, 4]) - acc).abs() < 1e-5);
    }

    #[test]
    fn bmm_tn_matches_explicit_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = Tensor::from_fn(&[2, 4, 3], |_| rng.gen_range(-1.0..1.0));
        let b = Tensor::from_fn(&[2, 4, 5], |_| rng.gen_range(-1.0..1.0));
        let c = a.bmm_tn(&b).unwrap();
        assert_eq!(c.dims(), &[2, 3, 5]);
        let mut acc = 0.0f32;
        for kk in 0..4 {
            acc += a.get(&[0, kk, 1]) * b.get(&[0, kk, 3]);
        }
        assert!((c.get(&[0, 1, 3]) - acc).abs() < 1e-5);
    }

    #[test]
    fn select_scatter_per_row_roundtrip() {
        let x = Tensor::from_fn(&[3, 4], |i| i as f32);
        let idx = IntTensor::from_vec(&[3], vec![1, 0, 3]).unwrap();
        let sel = x.select_per_row(&idx).unwrap();
        assert_eq!(sel.as_slice(), &[1.0, 4.0, 11.0]);
        let back = sel.scatter_per_row(&idx, 4).unwrap();
        assert_eq!(back.get(&[0, 1]), 1.0);
        assert_eq!(back.get(&[2, 3]), 11.0);
        assert_eq!(back.get(&[0, 0]), 0.0);
    }

    #[test]
    fn conv2d_backward_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |_| rng.gen_range(-1.0..1.0));
        let w = Tensor::from_fn(&[2, 2, 3, 3], |_| rng.gen_range(-1.0..1.0));
        let spec = Conv2dSpec {
            stride_h: 1,
            stride_w: 1,
            pad_h: 1,
            pad_w: 1,
        };
        let y = x.conv2d(&w, spec).unwrap();
        // Loss = sum(y); upstream gradient is all ones.
        let dout = Tensor::ones(y.dims());
        let (dx, dw) = x.conv2d_backward(&w, spec, &dout).unwrap();

        let eps = 1e-2f32;
        // Check a few dx entries by central differences.
        for &flat in &[0usize, 7, 13, 21] {
            let mut xp = x.clone();
            xp.as_mut_slice()[flat] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[flat] -= eps;
            let lp: f32 = xp.conv2d(&w, spec).unwrap().as_slice().iter().sum();
            let lm: f32 = xm.conv2d(&w, spec).unwrap().as_slice().iter().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[flat] - fd).abs() < 1e-2,
                "dx[{flat}] {} vs fd {fd}",
                dx.as_slice()[flat]
            );
        }
        for &flat in &[0usize, 5, 17] {
            let mut wp = w.clone();
            wp.as_mut_slice()[flat] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[flat] -= eps;
            let lp: f32 = x.conv2d(&wp, spec).unwrap().as_slice().iter().sum();
            let lm: f32 = x.conv2d(&wm, spec).unwrap().as_slice().iter().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (dw.as_slice()[flat] - fd).abs() < 1e-2,
                "dw[{flat}] {} vs fd {fd}",
                dw.as_slice()[flat]
            );
        }
    }

    #[test]
    fn wgrad_blocks_equal_one_chain_per_tap_bit_for_bit() {
        // 19 input channels: one block of `WGRAD_CHAINS` and three singles.
        // The reference is the definition — per (oc, ic, ky, kx) and image,
        // one chain from 0.0 over (oy, ox), then added to the running dw.
        let pad = Conv2dSpec {
            stride_h: 2,
            stride_w: 1,
            pad_h: 1,
            pad_w: 2,
        };
        for spec in [Conv2dSpec::default(), pad] {
            let (n, c_in, h, w, c_out, kh, kw) = (2, WGRAD_CHAINS + 3, 6, 11, 3, 3, 2);
            let x = Tensor::from_fn(&[n, c_in, h, w], |i| ((i * 7919) % 101) as f32 * 0.03 - 1.5);
            let k = Tensor::zeros(&[c_out, c_in, kh, kw]);
            let (oh, ow) = spec.output_size(h, w, kh, kw).unwrap();
            let g = Tensor::from_fn(&[n, c_out, oh, ow], |i| {
                ((i * 104729) % 37) as f32 * 0.05 - 0.9
            });
            let (_, dw) = x.conv2d_backward(&k, spec, &g).unwrap();
            for oc in 0..c_out {
                for ic in 0..c_in {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let mut want = 0.0f32;
                            for ni in 0..n {
                                let mut acc = 0.0f32;
                                for oy in 0..oh {
                                    for ox in 0..ow {
                                        let sy = (oy * spec.stride_h + ky).wrapping_sub(spec.pad_h);
                                        let sx = (ox * spec.stride_w + kx).wrapping_sub(spec.pad_w);
                                        if sy < h && sx < w {
                                            acc +=
                                                g.get(&[ni, oc, oy, ox]) * x.get(&[ni, ic, sy, sx]);
                                        }
                                    }
                                }
                                want += acc;
                            }
                            let got = dw.get(&[oc, ic, ky, kx]);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "dw[{oc},{ic},{ky},{kx}] {spec:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_norm_backward_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let x = Tensor::from_fn(&[6, 3], |_| rng.gen_range(-1.0..1.0));
        let gamma = Tensor::from_fn(&[3], |_| rng.gen_range(0.5..1.5));
        let beta = Tensor::from_fn(&[3], |_| rng.gen_range(-0.5..0.5));
        let eps = 1e-5f32;
        let (_, mean, var) = x.batch_norm(&gamma, &beta, eps).unwrap();
        let dout = Tensor::from_fn(&[6, 3], |i| ((i % 5) as f32 - 2.0) * 0.3);
        let (dx, dgamma, dbeta) = x
            .batch_norm_backward(&gamma, &mean, &var, eps, &dout)
            .unwrap();

        let loss = |xt: &Tensor, g: &Tensor, b: &Tensor| -> f32 {
            let (y, _, _) = xt.batch_norm(g, b, eps).unwrap();
            y.as_slice()
                .iter()
                .zip(dout.as_slice())
                .map(|(&a, &w)| a * w)
                .sum()
        };
        let h = 1e-2f32;
        for &flat in &[0usize, 4, 11, 17] {
            let mut xp = x.clone();
            xp.as_mut_slice()[flat] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[flat] -= h;
            let fd = (loss(&xp, &gamma, &beta) - loss(&xm, &gamma, &beta)) / (2.0 * h);
            assert!(
                (dx.as_slice()[flat] - fd).abs() < 2e-2,
                "dx[{flat}] {} vs fd {fd}",
                dx.as_slice()[flat]
            );
        }
        for j in 0..3 {
            let mut gp = gamma.clone();
            gp.as_mut_slice()[j] += h;
            let mut gm = gamma.clone();
            gm.as_mut_slice()[j] -= h;
            let fd = (loss(&x, &gp, &beta) - loss(&x, &gm, &beta)) / (2.0 * h);
            assert!((dgamma.as_slice()[j] - fd).abs() < 2e-2);

            let mut bp = beta.clone();
            bp.as_mut_slice()[j] += h;
            let mut bm = beta.clone();
            bm.as_mut_slice()[j] -= h;
            let fd = (loss(&x, &gamma, &bp) - loss(&x, &gamma, &bm)) / (2.0 * h);
            assert!((dbeta.as_slice()[j] - fd).abs() < 2e-2);
        }
    }
}

//! 2-D convolution and batch normalization.
//!
//! STGCN's temporal blocks run 2-D convolutions over `[batch, channel,
//! time, node]` tensors — the paper finds Conv2D consumes ~60 % of STGCN's
//! training time. DeepGCN uses batch normalization in every residual block.

use super::emit_sequential;
use crate::cost;
use crate::instrument::OpClass;
use crate::{par, pool, simd, Result, Tensor, TensorError};

/// Padding/stride configuration for [`Tensor::conv2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Zero-padding rows added on each vertical side.
    pub pad_h: usize,
    /// Zero-padding columns added on each horizontal side.
    pub pad_w: usize,
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Conv2dSpec {
            stride_h: 1,
            stride_w: 1,
            pad_h: 0,
            pad_w: 0,
        }
    }
}

impl Conv2dSpec {
    /// Output spatial size for an input of `(h, w)` with kernel `(kh, kw)`.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] if the kernel does not fit.
    pub fn output_size(&self, h: usize, w: usize, kh: usize, kw: usize) -> Result<(usize, usize)> {
        let h_eff = h + 2 * self.pad_h;
        let w_eff = w + 2 * self.pad_w;
        if kh > h_eff || kw > w_eff || self.stride_h == 0 || self.stride_w == 0 {
            return Err(TensorError::InvalidArgument {
                op: "conv2d",
                reason: format!("kernel {kh}×{kw} does not fit input {h}×{w} with {self:?}"),
            });
        }
        Ok((
            (h_eff - kh) / self.stride_h + 1,
            (w_eff - kw) / self.stride_w + 1,
        ))
    }
}

/// Output positions whose tap `o*stride + k` hits a real input element
/// (`pad <= o*stride + k < len + pad`), clamped to `0..out_len`.
pub(crate) fn valid_taps(
    stride: usize,
    pad: usize,
    k: usize,
    len: usize,
    out_len: usize,
) -> std::ops::Range<usize> {
    let lo = pad.saturating_sub(k).div_ceil(stride).min(out_len);
    let hi = if len + pad > k {
        ((len + pad - k - 1) / stride + 1).min(out_len)
    } else {
        0
    };
    lo..hi.max(lo)
}

impl Tensor {
    /// Direct 2-D convolution.
    ///
    /// `self` is `[n, c_in, h, w]` (NCHW); `weight` is
    /// `[c_out, c_in, kh, kw]`. Returns `[n, c_out, h', w']`.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// / [`TensorError::InvalidArgument`] on malformed inputs.
    pub fn conv2d(&self, weight: &Tensor, spec: Conv2dSpec) -> Result<Tensor> {
        if self.rank() != 4 || weight.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "conv2d",
                expected: 4,
                actual: if self.rank() != 4 {
                    self.rank()
                } else {
                    weight.rank()
                },
            });
        }
        let (n, c_in, h, w) = (self.dim(0), self.dim(1), self.dim(2), self.dim(3));
        let (c_out, wc_in, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
        if wc_in != c_in {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: self.dims().to_vec(),
                rhs: weight.dims().to_vec(),
            });
        }
        let (oh, ow) = spec.output_size(h, w, kh, kw)?;
        let x = self.as_slice();
        let k = weight.as_slice();
        let in_img = c_in * h * w;
        let in_ch = h * w;
        let out_ch = oh * ow;
        let k_oc = c_in * kh * kw;
        let k_ic = kh * kw;
        // One task row per (image, output channel). Within a row, taps fold
        // into each output element in (ic, ky, kw) order — the same order at
        // every thread count and on both paths below.
        let rows = n * c_out;
        let macs_total = rows.saturating_mul(out_ch).saturating_mul(k_oc);
        let unit = spec == Conv2dSpec::default();
        let cost = if unit {
            par::Cost::CONV_MAC
        } else {
            par::Cost::CONV_STRIDED_MAC
        };
        let mut out = pool::zeroed(rows * out_ch);
        let ranges = par::split(rows, macs_total, cost);
        if unit {
            // Stride 1, no padding (every STGCN convolution): each output
            // element is one tap sum over a window that is contiguous along
            // the row, so `simd::tap_sum` keeps a strip of outputs in
            // registers across all `c_in * kh * kw` taps instead of sweeping
            // the plane once per tap. A one-column kernel (`ow == w`) makes
            // the whole plane one such row.
            let lvl = simd::level();
            let offsets: Vec<usize> = (0..k_oc)
                .map(|t| (t / k_ic) * in_ch + (t % k_ic / kw) * w + t % kw)
                .collect();
            let strip_len = if kw == 1 { out_ch } else { ow };
            par::for_row_ranges_mut(&mut out, out_ch, &ranges, |_, task_rows, chunk| {
                for (row, out_row) in task_rows.zip(chunk.chunks_exact_mut(out_ch)) {
                    let (ni, oc) = (row / c_out, row % c_out);
                    let taps = &k[oc * k_oc..][..k_oc];
                    for (oy, strip) in out_row.chunks_exact_mut(strip_len).enumerate() {
                        simd::tap_sum(lvl, strip, taps, &offsets, &x[ni * in_img + oy * w..]);
                    }
                }
            });
        } else {
            // The innermost loop runs contiguously over output columns so
            // it vectorizes instead of branching on padding per tap.
            par::for_row_ranges_mut(&mut out, out_ch, &ranges, |_, task_rows, chunk| {
                for (row, out_row) in task_rows.zip(chunk.chunks_exact_mut(out_ch)) {
                    let (ni, oc) = (row / c_out, row % c_out);
                    for ic in 0..c_in {
                        let x_ch = &x[ni * in_img + ic * in_ch..][..in_ch];
                        let k_ch = &k[oc * k_oc + ic * k_ic..][..k_ic];
                        for ky in 0..kh {
                            let oys = valid_taps(spec.stride_h, spec.pad_h, ky, h, oh);
                            for kx in 0..kw {
                                let kval = k_ch[ky * kw + kx];
                                let oxs = valid_taps(spec.stride_w, spec.pad_w, kx, w, ow);
                                for oy in oys.clone() {
                                    let sy = oy * spec.stride_h + ky - spec.pad_h;
                                    let x_row = &x_ch[sy * w..][..w];
                                    let o_row = &mut out_row[oy * ow..][..ow];
                                    if spec.stride_w == 1 {
                                        let sx0 = oxs.start + kx - spec.pad_w;
                                        for (o, &xv) in
                                            o_row[oxs.clone()].iter_mut().zip(&x_row[sx0..])
                                        {
                                            *o += kval * xv;
                                        }
                                    } else {
                                        for ox in oxs.clone() {
                                            o_row[ox] +=
                                                kval * x_row[ox * spec.stride_w + kx - spec.pad_w];
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
        let result = Tensor::from_vec(&[n, c_out, oh, ow], out)?;
        let macs = (n * c_out * oh * ow * c_in * kh * kw) as u64;
        emit_sequential(
            OpClass::Conv2d,
            "conv2d_direct",
            2 * macs,
            cost::conv2d_iops(macs),
            (self.numel() + weight.numel()) as u64 * 4,
            (n * c_out * oh * ow) as u64 * 4,
            (n * c_out * oh * ow) as u64,
        );
        Ok(result)
    }

    /// Batch normalization over a `[n, d]` matrix: per-column standardization
    /// followed by a learned affine transform.
    ///
    /// Returns `(normalized, mean, var)` so callers can reuse the statistics
    /// in the backward pass.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// on malformed inputs.
    pub fn batch_norm(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> Result<(Tensor, Tensor, Tensor)> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "batch_norm",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        if gamma.dims() != [d] || beta.dims() != [d] {
            return Err(TensorError::ShapeMismatch {
                op: "batch_norm",
                lhs: vec![d],
                rhs: gamma.dims().to_vec(),
            });
        }
        let x = self.as_slice();
        let mut mean = vec![0.0f32; d];
        for row in x.chunks_exact(d) {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f32;
        }
        let mut var = vec![0.0f32; d];
        for row in x.chunks_exact(d) {
            for (j, &v) in row.iter().enumerate() {
                let dv = v - mean[j];
                var[j] += dv * dv;
            }
        }
        for v in &mut var {
            *v /= n as f32;
        }
        let g = gamma.as_slice();
        let b = beta.as_slice();
        let mut out = Vec::with_capacity(n * d);
        for row in x.chunks_exact(d) {
            for (j, &v) in row.iter().enumerate() {
                out.push(g[j] * (v - mean[j]) / (var[j] + eps).sqrt() + b[j]);
            }
        }
        let total = (n * d) as u64;
        // Two reduction passes + one normalize pass, ~7 flops/elem.
        emit_sequential(
            OpClass::BatchNorm,
            "batch_norm",
            total * 7,
            total * cost::INT_PER_BATCHNORM_ELEM,
            total * 4 * 3,
            total * 4,
            total,
        );
        Ok((
            Tensor::from_vec(&[n, d], out)?,
            Tensor::from_vec(&[d], mean)?,
            Tensor::from_vec(&[d], var)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    #[test]
    fn conv2d_identity_kernel() {
        let x = Tensor::from_fn(&[1, 1, 3, 3], |i| i as f32);
        let k = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]).unwrap();
        let y = x.conv2d(&k, Conv2dSpec::default()).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv2d_box_filter() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let k = Tensor::ones(&[1, 1, 2, 2]);
        let y = x.conv2d(&k, Conv2dSpec::default()).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert!(y.as_slice().iter().all(|&v| v == 4.0));
    }

    /// The definition, one output element at a time: taps folded in
    /// (ic, ky, kx) order from `0.0`, a multiply then an add per tap.
    fn conv2d_by_definition(x: &Tensor, k: &Tensor, spec: Conv2dSpec) -> Tensor {
        let (n, c_in, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (c_out, kh, kw) = (k.dim(0), k.dim(2), k.dim(3));
        let (oh, ow) = spec.output_size(h, w, kh, kw).unwrap();
        let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
        for ni in 0..n {
            for oc in 0..c_out {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ic in 0..c_in {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let sy = (oy * spec.stride_h + ky).wrapping_sub(spec.pad_h);
                                    let sx = (ox * spec.stride_w + kx).wrapping_sub(spec.pad_w);
                                    if sy < h && sx < w {
                                        acc += k.get(&[oc, ic, ky, kx]) * x.get(&[ni, ic, sy, sx]);
                                    }
                                }
                            }
                        }
                        out.set(&[ni, oc, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn both_paths_equal_the_definition_bit_for_bit_in_every_lane() {
        use crate::simd::{self, SimdLevel};
        let pad = Conv2dSpec {
            stride_h: 1,
            stride_w: 2,
            pad_h: 1,
            pad_w: 1,
        };
        // Unit spec with a one-column kernel (the plane is one strip: 3 x 23
        // = 69 outputs, two full strips and a tail), unit spec with a wide
        // kernel (one strip per output row: 35 = a strip and a tail), and
        // the general path.
        for (xd, kd, spec) in [
            ([2, 3, 5, 23], [4, 3, 3, 1], Conv2dSpec::default()),
            ([1, 2, 4, 37], [3, 2, 2, 3], Conv2dSpec::default()),
            ([1, 2, 5, 9], [3, 2, 3, 3], pad),
        ] {
            let x = Tensor::from_fn(&xd, |i| ((i * 7919) % 101) as f32 * 0.03 - 1.5);
            let k = Tensor::from_fn(&kd, |i| ((i * 104729) % 37) as f32 * 0.05 - 0.9);
            let want = conv2d_by_definition(&x, &k, spec);
            for lvl in [SimdLevel::Scalar, simd::detect()] {
                let got = simd::with_level(lvl, || x.conv2d(&k, spec).unwrap());
                assert_eq!(got.dims(), want.dims());
                for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{xd:?} {} [{i}]", lvl.as_str());
                }
            }
        }
    }

    #[test]
    fn conv2d_padding_and_stride() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let k = Tensor::ones(&[1, 1, 3, 3]);
        let spec = Conv2dSpec {
            stride_h: 2,
            stride_w: 2,
            pad_h: 1,
            pad_w: 1,
        };
        let y = x.conv2d(&k, spec).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        // Corner output sees a 2×2 patch of ones.
        assert_eq!(y.get(&[0, 0, 0, 0]), 4.0);
        // Interior sees full 3×3.
        assert_eq!(y.get(&[0, 0, 1, 1]), 9.0);
    }

    #[test]
    fn conv2d_multi_channel() {
        // 2 input channels, kernel sums both.
        let x = Tensor::from_vec(&[1, 2, 1, 2], vec![1.0, 2.0, 10.0, 20.0]).unwrap();
        let k = Tensor::from_vec(&[1, 2, 1, 1], vec![1.0, 1.0]).unwrap();
        let y = x.conv2d(&k, Conv2dSpec::default()).unwrap();
        assert_eq!(y.as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn conv2d_validates() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let k = Tensor::zeros(&[1, 2, 1, 1]); // c_in mismatch
        assert!(x.conv2d(&k, Conv2dSpec::default()).is_err());
        let too_big = Tensor::zeros(&[1, 1, 5, 5]);
        assert!(x.conv2d(&too_big, Conv2dSpec::default()).is_err());
    }

    #[test]
    fn batch_norm_standardizes() {
        let x = Tensor::from_vec(&[4, 1], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let gamma = Tensor::ones(&[1]);
        let beta = Tensor::zeros(&[1]);
        let (y, mean, var) = x.batch_norm(&gamma, &beta, 1e-5).unwrap();
        assert!((mean.as_slice()[0] - 2.5).abs() < 1e-6);
        assert!((var.as_slice()[0] - 1.25).abs() < 1e-6);
        let m: f32 = y.as_slice().iter().sum::<f32>() / 4.0;
        assert!(m.abs() < 1e-6);
    }

    #[test]
    fn conv_event_flops() {
        record::start_recording();
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let k = Tensor::ones(&[1, 1, 3, 3]);
        let _ = x.conv2d(&k, Conv2dSpec::default()).unwrap();
        let events = record::stop_recording();
        assert_eq!(events[0].class, OpClass::Conv2d);
        assert_eq!(events[0].flops, 2 * 4 * 9); // 2×2 outputs × 9 taps × 2
    }
}

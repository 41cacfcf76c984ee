//! Row-wise softmax and log-softmax.
//!
//! Softmax kernels combine a row reduction (max, sum) with element-wise
//! exponentiation; they appear in every classification head and in
//! GraphWriter's attention layers.

use super::emit_sequential;
use crate::cost::INT_PER_SOFTMAX_ELEM;
use crate::instrument::OpClass;
use crate::simd;
use crate::{par, pool, Result, Tensor, TensorError};

impl Tensor {
    fn softmax_impl(&self, log: bool, kernel: &'static str) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: kernel,
                expected: 2,
                actual: self.rank(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        let src = self.as_slice();
        let lvl = simd::level();
        let mut out = pool::filled(n * d);
        let ranges = par::split(n, n * d, par::Cost::EXP_ELEM);
        par::for_row_ranges_mut(&mut out, d, &ranges, |_, rows, chunk| {
            let rows_src = &src[rows.start * d..rows.end * d];
            for (row, out_row) in rows_src.chunks_exact(d).zip(chunk.chunks_exact_mut(d)) {
                let max = simd::vmax(lvl, row);
                // The exps land in the output row; no per-row temporary.
                // exp stays scalar: no SFU lanes in the portable layer.
                for (o, &v) in out_row.iter_mut().zip(row) {
                    *o = (v - max).exp();
                }
                let sum = simd::vsum(lvl, out_row);
                if log {
                    let lsum = sum.ln();
                    simd::sub2(lvl, row, max, lsum, out_row);
                } else {
                    simd::div_scalar(lvl, out_row, sum);
                }
            }
        });
        let total = (n * d) as u64;
        // 3 passes: max-reduce, exp+sum, normalize. ~12 flops/elem with SFU.
        emit_sequential(
            OpClass::Softmax,
            kernel,
            total * 12,
            total * INT_PER_SOFTMAX_ELEM,
            total * 4 * 2,
            total * 4,
            total,
        );
        Tensor::from_vec(&[n, d], out)
    }

    /// Row-wise softmax of a `[n, d]` matrix.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        self.softmax_impl(false, "softmax")
    }

    /// Row-wise log-softmax of a `[n, d]` matrix (numerically stable).
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2.
    pub fn log_softmax_rows(&self) -> Result<Tensor> {
        self.softmax_impl(true, "log_softmax")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    #[test]
    fn rows_sum_to_one() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let s = t.softmax_rows().unwrap();
        for row in s.as_slice().chunks_exact(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let t = Tensor::from_vec(&[1, 4], vec![0.5, 1.5, -0.5, 2.0]).unwrap();
        let s = t.softmax_rows().unwrap();
        let ls = t.log_softmax_rows().unwrap();
        for (a, b) in s.as_slice().iter().zip(ls.as_slice()) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn numerically_stable_for_large_inputs() {
        let t = Tensor::from_vec(&[1, 2], vec![1000.0, 1000.0]).unwrap();
        let s = t.softmax_rows().unwrap();
        assert!((s.as_slice()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_event_class() {
        record::start_recording();
        let _ = Tensor::ones(&[2, 2]).softmax_rows().unwrap();
        let events = record::stop_recording();
        assert_eq!(events[0].class, OpClass::Softmax);
    }
}

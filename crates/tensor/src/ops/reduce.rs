//! Reductions: full and per-axis sums, means and maxima.
//!
//! Tree reductions have long dependency chains and little data reuse — the
//! paper reports ~100 GFLOPS-class throughput and high execution-dependency
//! stalls for them.

use super::emit_sequential;
use crate::cost::INT_PER_REDUCE_ELEM;
use crate::instrument::OpClass;
use crate::simd;
use crate::{par, pool, IntTensor, Result, Tensor, TensorError};

impl Tensor {
    fn emit_reduce(&self, kernel: &'static str, out_elems: u64) {
        let n = self.numel() as u64;
        emit_sequential(
            OpClass::Reduction,
            kernel,
            n,
            n * INT_PER_REDUCE_ELEM,
            n * 4,
            out_elems * 4,
            n,
        );
    }

    /// Sum of all elements, as a scalar tensor.
    pub fn sum_all(&self) -> Tensor {
        let s = simd::vsum(simd::level(), self.as_slice());
        self.emit_reduce("reduce_sum", 1);
        Tensor::scalar(s)
    }

    /// Mean of all elements, as a scalar tensor.
    pub fn mean_all(&self) -> Tensor {
        let s = simd::vsum(simd::level(), self.as_slice());
        self.emit_reduce("reduce_mean", 1);
        Tensor::scalar(s / self.numel() as f32)
    }

    /// Row-wise sum of a `[n, d]` matrix, yielding `[n]`.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2.
    pub fn sum_rows(&self) -> Result<Tensor> {
        let lvl = simd::level();
        self.reduce_rows("reduce_sum_rows", move |row| simd::vsum(lvl, row))
    }

    /// Row-wise mean of a `[n, d]` matrix, yielding `[n]`.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2.
    pub fn mean_rows(&self) -> Result<Tensor> {
        let d = if self.rank() == 2 {
            self.dim(1) as f32
        } else {
            1.0
        };
        let lvl = simd::level();
        self.reduce_rows("reduce_mean_rows", move |row| simd::vsum(lvl, row) / d)
    }

    fn reduce_rows(
        &self,
        kernel: &'static str,
        f: impl Fn(&[f32]) -> f32 + Sync,
    ) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: kernel,
                expected: 2,
                actual: self.rank(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        let src = self.as_slice();
        let mut out = pool::zeroed(n);
        let ranges = par::split(n, n * d, par::Cost::ELEMENT);
        par::for_row_ranges_mut(&mut out, 1, &ranges, |_, rows, chunk| {
            let rows_src = &src[rows.start * d..rows.end * d];
            for (row, o) in rows_src.chunks_exact(d).zip(chunk.iter_mut()) {
                *o = f(row);
            }
        });
        self.emit_reduce(kernel, n as u64);
        Tensor::from_vec(&[n], out)
    }

    /// Column-wise sum of a `[n, d]` matrix, yielding `[d]`.
    ///
    /// This is the backward of bias broadcast and of row-broadcasting ops.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2.
    pub fn sum_cols(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "reduce_sum_cols",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        let src = self.as_slice();
        let lvl = simd::level();
        let mut out = pool::zeroed(d);
        // Partition *output columns*; every task walks all rows in order, so
        // each column accumulates exactly as in the sequential loop.
        let col_ranges = par::split(d, n * d, par::Cost::ELEMENT);
        par::for_row_ranges_mut(&mut out, 1, &col_ranges, |_, cols, chunk| {
            for row in src.chunks_exact(d) {
                simd::accumulate(lvl, chunk, &row[cols.clone()]);
            }
        });
        self.emit_reduce("reduce_sum_cols", d as u64);
        Tensor::from_vec(&[d], out)
    }

    /// Row-wise argmax of a `[n, d]` matrix, yielding `[n]` indices.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2.
    pub fn argmax_rows(&self) -> Result<IntTensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "argmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        let src = self.as_slice();
        let mut out = vec![0i64; n];
        let ranges = par::split(n, n * d, par::Cost::ELEMENT);
        par::for_row_ranges_mut(&mut out, 1, &ranges, |_, rows, chunk| {
            let rows_src = &src[rows.start * d..rows.end * d];
            for (row, o) in rows_src.chunks_exact(d).zip(chunk.iter_mut()) {
                let mut best = 0usize;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                *o = best as i64;
            }
        });
        self.emit_reduce("argmax_rows", n as u64);
        IntTensor::from_vec(&[n], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    #[test]
    fn full_reductions() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.sum_all().item().unwrap(), 10.0);
        assert_eq!(t.mean_all().item().unwrap(), 2.5);
    }

    #[test]
    fn axis_reductions() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(t.sum_rows().unwrap().as_slice(), &[6.0, 15.0]);
        assert_eq!(t.mean_rows().unwrap().as_slice(), &[2.0, 5.0]);
        assert_eq!(t.sum_cols().unwrap().as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn argmax() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5]).unwrap();
        assert_eq!(t.argmax_rows().unwrap().as_slice(), &[1, 2]);
        assert!(Tensor::zeros(&[3]).argmax_rows().is_err());
    }

    #[test]
    fn reduction_events() {
        record::start_recording();
        let t = Tensor::ones(&[100]);
        let _ = t.sum_all();
        let events = record::stop_recording();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].class, OpClass::Reduction);
        assert_eq!(events[0].flops, 100);
    }
}

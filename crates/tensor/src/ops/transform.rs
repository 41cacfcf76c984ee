//! Data-movement operations: transpose, concatenation, slicing, stacking.
//!
//! These kernels perform no floating-point work; their cost is coordinate
//! remapping (integer math) and memory traffic, contributing to the
//! integer-dominated instruction mix the paper observes.

use super::{emit_op, emit_sequential};
use crate::cost::INT_PER_DATAMOVE_ELEM;
use crate::instrument::{AccessDesc, OpClass};
use crate::{pool, Result, Tensor, TensorError};

impl Tensor {
    /// Transpose of a `[m, n]` matrix.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2.
    pub fn transpose2d(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose2d",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dim(0), self.dim(1));
        let src = self.as_slice();
        // Cache-blocked transpose (same kernel the NT/TN GEMMs pack with);
        // a pure permutation, so the result is exact.
        let mut data = pool::zeroed(m * n);
        super::gemm::transpose_pack(src, m, n, &mut data);
        let out = Tensor::from_vec(&[n, m], data)?;
        let total = (m * n) as u64;
        emit_op(
            OpClass::DataMovement,
            "transpose2d",
            0,
            total * INT_PER_DATAMOVE_ELEM,
            total * 4,
            total * 4,
            total,
            move || vec![AccessDesc::Sequential { bytes: total * 4 }],
            move || {
                // Column-major writes: strided at row length.
                vec![AccessDesc::Strided {
                    stride_bytes: (m * 4) as u64,
                    accesses: total,
                    access_bytes: 4,
                }]
            },
        );
        Ok(out)
    }

    /// Concatenates matrices along the row axis (`[n_i, d]` → `[Σn_i, d]`).
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] for an empty input list,
    /// [`TensorError::RankMismatch`] for non-rank-2 inputs, or
    /// [`TensorError::ShapeMismatch`] if widths differ.
    pub fn concat_rows(parts: &[&Tensor]) -> Result<Tensor> {
        if parts.is_empty() {
            return Err(TensorError::InvalidArgument {
                op: "concat_rows",
                reason: "empty input list".to_string(),
            });
        }
        let d = parts[0]
            .dims()
            .get(1)
            .copied()
            .ok_or(TensorError::RankMismatch {
                op: "concat_rows",
                expected: 2,
                actual: parts[0].rank(),
            })?;
        let mut data = Vec::new();
        let mut n = 0usize;
        for p in parts {
            if p.rank() != 2 {
                return Err(TensorError::RankMismatch {
                    op: "concat_rows",
                    expected: 2,
                    actual: p.rank(),
                });
            }
            if p.dim(1) != d {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_rows",
                    lhs: parts[0].dims().to_vec(),
                    rhs: p.dims().to_vec(),
                });
            }
            n += p.dim(0);
            data.extend_from_slice(p.as_slice());
        }
        let out = Tensor::from_vec(&[n, d], data)?;
        let total = (n * d) as u64;
        emit_sequential(
            OpClass::DataMovement,
            "concat_rows",
            0,
            total * INT_PER_DATAMOVE_ELEM,
            total * 4,
            total * 4,
            total,
        );
        Ok(out)
    }

    /// Concatenates matrices along the column axis (`[n, d_i]` → `[n, Σd_i]`).
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] / [`TensorError::RankMismatch`]
    /// / [`TensorError::ShapeMismatch`] on malformed inputs.
    pub fn concat_cols(parts: &[&Tensor]) -> Result<Tensor> {
        if parts.is_empty() {
            return Err(TensorError::InvalidArgument {
                op: "concat_cols",
                reason: "empty input list".to_string(),
            });
        }
        let n = parts[0].dims().first().copied().unwrap_or(0);
        for p in parts {
            if p.rank() != 2 {
                return Err(TensorError::RankMismatch {
                    op: "concat_cols",
                    expected: 2,
                    actual: p.rank(),
                });
            }
            if p.dim(0) != n {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_cols",
                    lhs: parts[0].dims().to_vec(),
                    rhs: p.dims().to_vec(),
                });
            }
        }
        let d_total: usize = parts.iter().map(|p| p.dim(1)).sum();
        let mut data = Vec::with_capacity(n * d_total);
        for r in 0..n {
            for p in parts {
                let d = p.dim(1);
                data.extend_from_slice(&p.as_slice()[r * d..(r + 1) * d]);
            }
        }
        let out = Tensor::from_vec(&[n, d_total], data)?;
        let total = (n * d_total) as u64;
        emit_sequential(
            OpClass::DataMovement,
            "concat_cols",
            0,
            total * INT_PER_DATAMOVE_ELEM,
            total * 4,
            total * 4,
            total,
        );
        Ok(out)
    }

    /// Copies rows `[start, end)` of a `[n, d]` matrix.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless rank 2, or
    /// [`TensorError::IndexOutOfBounds`] for an invalid range.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "slice_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        if start > end || end > n {
            return Err(TensorError::IndexOutOfBounds {
                op: "slice_rows",
                index: end,
                bound: n,
            });
        }
        let data = self.as_slice()[start * d..end * d].to_vec();
        let rows = end - start;
        let out = Tensor::from_vec(&[rows, d], data)?;
        let total = (rows * d) as u64;
        emit_sequential(
            OpClass::DataMovement,
            "slice_rows",
            0,
            total * INT_PER_DATAMOVE_ELEM,
            total * 4,
            total * 4,
            total,
        );
        Ok(out)
    }

    /// Copies columns `[start, end)` of a `[n, d]` matrix.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless rank 2, or
    /// [`TensorError::IndexOutOfBounds`] for an invalid range.
    pub fn slice_cols(&self, start: usize, end: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "slice_cols",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        if start > end || end > d {
            return Err(TensorError::IndexOutOfBounds {
                op: "slice_cols",
                index: end,
                bound: d,
            });
        }
        let width = end - start;
        let mut data = Vec::with_capacity(n * width);
        for row in self.as_slice().chunks_exact(d) {
            data.extend_from_slice(&row[start..end]);
        }
        let out = Tensor::from_vec(&[n, width], data)?;
        let total = (n * width) as u64;
        emit_op(
            OpClass::DataMovement,
            "slice_cols",
            0,
            total * INT_PER_DATAMOVE_ELEM,
            total * 4,
            total * 4,
            total,
            move || {
                vec![AccessDesc::Strided {
                    stride_bytes: (d * 4) as u64,
                    accesses: n as u64,
                    access_bytes: (width * 4) as u64,
                }]
            },
            move || vec![AccessDesc::Sequential { bytes: total * 4 }],
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_fn(&[2, 3], |i| i as f32);
        let tt = t.transpose2d().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.get(&[2, 1]), t.get(&[1, 2]));
        assert_eq!(tt.transpose2d().unwrap().as_slice(), t.as_slice());
    }

    #[test]
    fn concat_rows_stacks() {
        let a = Tensor::ones(&[1, 2]);
        let b = Tensor::zeros(&[2, 2]);
        let c = Tensor::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.as_slice(), &[1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        assert!(Tensor::concat_rows(&[]).is_err());
        assert!(Tensor::concat_rows(&[&a, &Tensor::zeros(&[1, 3])]).is_err());
    }

    #[test]
    fn concat_cols_widens() {
        let a = Tensor::from_vec(&[2, 1], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(&[2, 2], vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let c = Tensor::concat_cols(&[&a, &b]).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.as_slice(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn slice_rows_extracts_range() {
        let t = Tensor::from_fn(&[4, 2], |i| i as f32);
        let s = t.slice_rows(1, 3).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        assert!(t.slice_rows(3, 5).is_err());
    }

    #[test]
    fn slice_cols_extracts_range() {
        let t = Tensor::from_fn(&[2, 4], |i| i as f32);
        let s = t.slice_cols(1, 3).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 5.0, 6.0]);
        assert!(t.slice_cols(3, 5).is_err());
    }

    #[test]
    fn datamove_events_have_no_flops() {
        record::start_recording();
        let _ = Tensor::ones(&[4, 4]).transpose2d().unwrap();
        let events = record::stop_recording();
        assert_eq!(events[0].class, OpClass::DataMovement);
        assert_eq!(events[0].flops, 0);
        assert!(events[0].iops > 0);
    }
}

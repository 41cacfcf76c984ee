//! Scatter operations: index-driven writes with accumulation.
//!
//! `scatter_add` is the backward of `gather` and the message-delivery step
//! of message-passing GNNs. On a GPU it is implemented with atomics over
//! data-dependent addresses, which the paper identifies as a major source
//! of memory-dependency stalls.

use std::sync::Arc;

use super::emit_op;
use crate::cost::INT_PER_GATHER_ELEM;
use crate::instrument::{AccessDesc, OpClass};
use crate::{par, pool, IntTensor, Result, Tensor, TensorError};

/// Output-row partition for scatter kernels. Each task owns a disjoint
/// range of *output* rows and scans the whole index array in order, so
/// every output element accumulates in exactly the sequential order —
/// the deterministic alternative to GPU-style atomics.
fn scatter_ranges(n: usize, d: usize, out_rows: usize) -> Vec<std::ops::Range<usize>> {
    par::split(out_rows, n * d, par::Cost::SCATTER_ELEM)
}

impl Tensor {
    /// Scatter-adds rows of `self` (`[n, d]`) into a fresh `[out_rows, d]`
    /// tensor: `out[index[i]] += self[i]`.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2,
    /// [`TensorError::ShapeMismatch`] if `index` length ≠ `n`, or
    /// [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn scatter_add_rows(&self, index: &IntTensor, out_rows: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "scatter_add_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        if index.numel() != n {
            return Err(TensorError::ShapeMismatch {
                op: "scatter_add_rows",
                lhs: vec![n, d],
                rhs: index.dims().to_vec(),
            });
        }
        index.check_bounds(out_rows, "scatter_add_rows")?;
        let mut buf = pool::zeroed(out_rows * d);
        {
            let src = self.as_slice();
            let idx = index.as_slice();
            let ranges = scatter_ranges(n, d, out_rows);
            par::for_row_ranges_mut(&mut buf, d, &ranges, |_, rows, chunk| {
                for (i, &target) in idx.iter().enumerate() {
                    let t = target as usize;
                    if !rows.contains(&t) {
                        continue;
                    }
                    let src_row = &src[i * d..(i + 1) * d];
                    let dst_row = &mut chunk[(t - rows.start) * d..][..d];
                    for (o, &s) in dst_row.iter_mut().zip(src_row) {
                        *o += s;
                    }
                }
            });
        }
        let out = Tensor::from_vec(&[out_rows, d], buf)?;
        let total = (n * d) as u64;
        let idx = index.to_u32_vec();
        let row_bytes = (d * 4) as u64;
        let table_bytes = (out_rows * d * 4) as u64;
        emit_op(
            OpClass::Scatter,
            "scatter_add",
            total, // one fp add per scattered element
            total * INT_PER_GATHER_ELEM + n as u64 * 2,
            total * 4 + n as u64 * 8,
            total * 4,
            total,
            move || {
                vec![AccessDesc::Sequential {
                    bytes: total * 4 + idx.len() as u64 * 8,
                }]
            },
            {
                let idx2 = index.to_u32_vec();
                move || {
                    vec![AccessDesc::Indexed {
                        indices: Arc::new(idx2),
                        row_bytes,
                        table_bytes,
                    }]
                }
            },
        );
        Ok(out)
    }

    /// Scatter-max of rows: `out[index[i]] = max(out[index[i]], self[i])`,
    /// with untouched rows left at `f32::NEG_INFINITY` replaced by 0.
    ///
    /// Used by max-pooling aggregators.
    ///
    /// # Errors
    /// Same conditions as [`Tensor::scatter_add_rows`].
    pub fn scatter_max_rows(&self, index: &IntTensor, out_rows: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "scatter_max_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (n, d) = (self.dim(0), self.dim(1));
        if index.numel() != n {
            return Err(TensorError::ShapeMismatch {
                op: "scatter_max_rows",
                lhs: vec![n, d],
                rhs: index.dims().to_vec(),
            });
        }
        index.check_bounds(out_rows, "scatter_max_rows")?;
        let mut buf = pool::zeroed(out_rows * d);
        {
            let src = self.as_slice();
            let idx = index.as_slice();
            let ranges = scatter_ranges(n, d, out_rows);
            par::for_row_ranges_mut(&mut buf, d, &ranges, |_, rows, chunk| {
                chunk.fill(f32::NEG_INFINITY);
                for (i, &target) in idx.iter().enumerate() {
                    let t = target as usize;
                    if !rows.contains(&t) {
                        continue;
                    }
                    let base = (t - rows.start) * d;
                    for j in 0..d {
                        let v = src[i * d + j];
                        if v > chunk[base + j] {
                            chunk[base + j] = v;
                        }
                    }
                }
                for v in chunk.iter_mut() {
                    if *v == f32::NEG_INFINITY {
                        *v = 0.0;
                    }
                }
            });
        }
        let out = Tensor::from_vec(&[out_rows, d], buf)?;
        let total = (n * d) as u64;
        let idx = index.to_u32_vec();
        let row_bytes = (d * 4) as u64;
        let table_bytes = (out_rows * d * 4) as u64;
        emit_op(
            OpClass::Scatter,
            "scatter_max",
            total,
            total * INT_PER_GATHER_ELEM + n as u64 * 2,
            total * 4 + n as u64 * 8,
            total * 4,
            total,
            move || {
                vec![AccessDesc::Sequential {
                    bytes: total * 4 + idx.len() as u64 * 8,
                }]
            },
            {
                let idx2 = index.to_u32_vec();
                move || {
                    vec![AccessDesc::Indexed {
                        indices: Arc::new(idx2),
                        row_bytes,
                        table_bytes,
                    }]
                }
            },
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    #[test]
    fn scatter_add_accumulates() {
        let src = Tensor::from_vec(&[3, 2], vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]).unwrap();
        let idx = IntTensor::from_vec(&[3], vec![0, 1, 0]).unwrap();
        let out = src.scatter_add_rows(&idx, 2).unwrap();
        assert_eq!(out.as_slice(), &[4.0, 4.0, 2.0, 2.0]);
    }

    #[test]
    fn scatter_is_inverse_of_gather_for_permutation() {
        let t = Tensor::from_fn(&[4, 3], |i| i as f32);
        let perm = IntTensor::from_vec(&[4], vec![2, 0, 3, 1]).unwrap();
        let gathered = t.gather_rows(&perm).unwrap();
        let restored = gathered.scatter_add_rows(&perm, 4).unwrap();
        assert_eq!(restored.as_slice(), t.as_slice());
    }

    #[test]
    fn scatter_max_takes_maximum() {
        let src = Tensor::from_vec(&[3, 1], vec![5.0, -1.0, 3.0]).unwrap();
        let idx = IntTensor::from_vec(&[3], vec![0, 0, 0]).unwrap();
        let out = src.scatter_max_rows(&idx, 2).unwrap();
        assert_eq!(out.as_slice(), &[5.0, 0.0]); // untouched row zeroed
    }

    #[test]
    fn scatter_bounds_and_shape_checks() {
        let src = Tensor::zeros(&[2, 2]);
        let bad_idx = IntTensor::from_vec(&[2], vec![0, 5]).unwrap();
        assert!(src.scatter_add_rows(&bad_idx, 3).is_err());
        let wrong_len = IntTensor::from_vec(&[3], vec![0, 1, 0]).unwrap();
        assert!(src.scatter_add_rows(&wrong_len, 3).is_err());
    }

    #[test]
    fn scatter_event_writes_are_indexed() {
        let src = Tensor::ones(&[4, 2]);
        let idx = IntTensor::from_vec(&[4], vec![1, 1, 0, 3]).unwrap();
        record::start_recording();
        let _ = src.scatter_add_rows(&idx, 4).unwrap();
        let events = record::stop_recording();
        assert_eq!(events[0].class, OpClass::Scatter);
        assert!(matches!(events[0].writes[0], AccessDesc::Indexed { .. }));
    }
}

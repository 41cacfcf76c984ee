//! Gather and index-select: row extraction driven by index arrays.
//!
//! These are the canonical irregular operations of GNN aggregation — the
//! paper reports L1 hit rates below 15 % and heavy memory-dependency stalls
//! for them. Events carry the real index arrays so the cache model sees the
//! true locality (e.g. power-law-skewed neighbor ids hit more than uniform
//! ones).

use std::sync::Arc;

use super::emit_op;
use crate::cost::{INT_PER_GATHER_ELEM, INT_PER_INDEX_SELECT_ELEM};
use crate::instrument::{AccessDesc, OpClass};
use crate::{par, pool, IntTensor, Result, Tensor, TensorError};

impl Tensor {
    fn select_rows(
        &self,
        index: &IntTensor,
        op: &'static str,
        class: OpClass,
        int_per_elem: u64,
    ) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op,
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, d) = (self.dim(0), self.dim(1));
        index.check_bounds(rows, op)?;
        let n = index.numel();
        let mut data = pool::zeroed(n * d);
        let src = self.as_slice();
        let idx_s = index.as_slice();
        let out_ranges = par::split(n, n * d, par::Cost::ELEMENT);
        par::for_row_ranges_mut(&mut data, d, &out_ranges, |_, out_rows, chunk| {
            for (&i, dst_row) in idx_s[out_rows].iter().zip(chunk.chunks_exact_mut(d)) {
                let r = i as usize;
                dst_row.copy_from_slice(&src[r * d..(r + 1) * d]);
            }
        });
        let out = Tensor::from_vec(&[n, d], data)?;

        let total = (n * d) as u64;
        let table_bytes = self.byte_len();
        let row_bytes = (d * 4) as u64;
        let idx = index.to_u32_vec();
        let kernel = op;
        emit_op(
            class,
            kernel,
            0,
            total * int_per_elem + n as u64 * 2,
            total * 4 + n as u64 * 8,
            total * 4,
            total,
            move || {
                vec![
                    AccessDesc::Sequential {
                        bytes: idx.len() as u64 * 8,
                    },
                    AccessDesc::Indexed {
                        indices: Arc::new(idx),
                        row_bytes,
                        table_bytes,
                    },
                ]
            },
            move || vec![AccessDesc::Sequential { bytes: total * 4 }],
        );
        Ok(out)
    }

    /// Gathers rows of a `[rows, d]` matrix: `out[i] = self[index[i]]`.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2, or
    /// [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn gather_rows(&self, index: &IntTensor) -> Result<Tensor> {
        self.select_rows(index, "gather_rows", OpClass::Gather, INT_PER_GATHER_ELEM)
    }

    /// Index-select along the row axis (semantically identical to
    /// [`Tensor::gather_rows`] but classified as index-selection, mirroring
    /// PyTorch's distinct `index_select` kernels which the paper tracks as
    /// their own operation class).
    ///
    /// # Errors
    /// Same as [`Tensor::gather_rows`].
    pub fn index_select(&self, index: &IntTensor) -> Result<Tensor> {
        self.select_rows(
            index,
            "index_select",
            OpClass::IndexSelect,
            INT_PER_INDEX_SELECT_ELEM,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    #[test]
    fn gather_rows_extracts() {
        let t = Tensor::from_fn(&[3, 2], |i| i as f32);
        let idx = IntTensor::from_vec(&[2], vec![2, 0]).unwrap();
        let g = t.gather_rows(&idx).unwrap();
        assert_eq!(g.dims(), &[2, 2]);
        assert_eq!(g.as_slice(), &[4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn gather_rows_bounds_checked() {
        let t = Tensor::zeros(&[2, 2]);
        let idx = IntTensor::from_vec(&[1], vec![2]).unwrap();
        assert!(t.gather_rows(&idx).is_err());
    }

    #[test]
    fn index_select_same_semantics_different_class() {
        let t = Tensor::from_fn(&[4, 1], |i| i as f32);
        let idx = IntTensor::from_vec(&[2], vec![3, 1]).unwrap();
        record::start_recording();
        let a = t.gather_rows(&idx).unwrap();
        let b = t.index_select(&idx).unwrap();
        let events = record::stop_recording();
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(events[0].class, OpClass::Gather);
        assert_eq!(events[1].class, OpClass::IndexSelect);
        assert!(events.iter().all(|e| e.flops == 0), "gathers do no fp work");
    }
}

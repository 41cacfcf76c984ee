//! Sorting kernels (argsort, key-value sort).
//!
//! GNN frameworks sort constantly — neighbor lists, random-walk visit
//! counts, batching by graph size. PinSAGE on MovieLens spends 20.7 % of its
//! training time sorting. Sorting is pure integer/comparison work with
//! data-dependent access patterns.

use std::sync::Arc;

use super::emit_op;
use crate::cost;
use crate::instrument::{AccessDesc, OpClass};
use crate::{IntTensor, Result, Tensor, TensorError};

fn emit_sort(n: usize, bytes_per_key: u64, kernel: &'static str, perm: &[i64]) {
    let levels = if n > 1 {
        (usize::BITS - (n - 1).leading_zeros()) as u64
    } else {
        1
    };
    let moved = n as u64 * bytes_per_key * levels;
    let perm_u32: Vec<u32> = perm.iter().map(|&v| v.max(0) as u32).collect();
    let region = n as u64 * bytes_per_key;
    emit_op(
        OpClass::Sort,
        kernel,
        0,
        cost::sort_iops(n),
        moved,
        moved,
        n as u64,
        {
            let perm_u32 = perm_u32.clone();
            move || {
                vec![
                    AccessDesc::Random {
                        accesses: n as u64 * levels,
                        access_bytes: bytes_per_key,
                        region_bytes: region.max(1),
                    },
                    // Final permutation application uses the real ordering.
                    AccessDesc::Indexed {
                        indices: Arc::new(perm_u32),
                        row_bytes: bytes_per_key,
                        table_bytes: region.max(1),
                    },
                ]
            }
        },
        move || vec![AccessDesc::Sequential { bytes: region }],
    );
}

impl Tensor {
    /// Returns the permutation that sorts a 1-D tensor ascending.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 1.
    pub fn argsort(&self) -> Result<IntTensor> {
        if self.rank() != 1 {
            return Err(TensorError::RankMismatch {
                op: "argsort",
                expected: 1,
                actual: self.rank(),
            });
        }
        let n = self.dim(0);
        let mut perm: Vec<i64> = (0..n as i64).collect();
        let data = self.as_slice();
        perm.sort_by(|&a, &b| {
            data[a as usize]
                .partial_cmp(&data[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        emit_sort(n, 8, "argsort_f32", &perm);
        IntTensor::from_vec(&[n], perm)
    }

    /// Sorts a 1-D tensor ascending, returning values and the permutation.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 1.
    pub fn sort_with_indices(&self) -> Result<(Tensor, IntTensor)> {
        let perm = self.argsort()?;
        let data = self.as_slice();
        let sorted: Vec<f32> = perm.as_slice().iter().map(|&i| data[i as usize]).collect();
        let values = Tensor::from_vec(&[self.dim(0)], sorted)?;
        Ok((values, perm))
    }
}

impl IntTensor {
    /// Returns the permutation that sorts a 1-D integer tensor ascending.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 1.
    pub fn argsort(&self) -> Result<IntTensor> {
        if self.shape().rank() != 1 {
            return Err(TensorError::RankMismatch {
                op: "argsort_i64",
                expected: 1,
                actual: self.shape().rank(),
            });
        }
        let n = self.numel();
        let mut perm: Vec<i64> = (0..n as i64).collect();
        let data = self.as_slice();
        perm.sort_by_key(|&i| data[i as usize]);
        emit_sort(n, 8, "argsort_i64", &perm);
        IntTensor::from_vec(&[n], perm)
    }

    /// Sorts ascending, returning sorted values and the permutation.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 1.
    pub fn sort_with_indices(&self) -> Result<(IntTensor, IntTensor)> {
        let perm = self.argsort()?;
        let data = self.as_slice();
        let sorted: Vec<i64> = perm.as_slice().iter().map(|&i| data[i as usize]).collect();
        let values = IntTensor::from_vec(&[self.numel()], sorted)?;
        Ok((values, perm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    #[test]
    fn argsort_orders_ascending() {
        let t = Tensor::from_vec(&[4], vec![3.0, 1.0, 2.0, 0.5]).unwrap();
        let perm = t.argsort().unwrap();
        assert_eq!(perm.as_slice(), &[3, 1, 2, 0]);
    }

    #[test]
    fn sort_with_indices_consistent() {
        let t = Tensor::from_vec(&[5], vec![5.0, -1.0, 3.0, 3.0, 0.0]).unwrap();
        let (vals, perm) = t.sort_with_indices().unwrap();
        assert_eq!(vals.as_slice(), &[-1.0, 0.0, 3.0, 3.0, 5.0]);
        // perm is a valid permutation
        let mut seen = perm.as_slice().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn int_sort() {
        let t = IntTensor::from_vec(&[4], vec![9, 2, 7, 2]).unwrap();
        let (vals, _) = t.sort_with_indices().unwrap();
        assert_eq!(vals.as_slice(), &[2, 2, 7, 9]);
    }

    #[test]
    fn sort_emits_integer_only_event() {
        record::start_recording();
        let t = Tensor::from_vec(&[8], vec![1.0; 8]).unwrap();
        let _ = t.argsort().unwrap();
        let events = record::stop_recording();
        assert_eq!(events[0].class, OpClass::Sort);
        assert_eq!(events[0].flops, 0);
        assert!(events[0].iops > 0);
    }

    #[test]
    fn sort_rejects_matrices() {
        assert!(Tensor::zeros(&[2, 2]).argsort().is_err());
    }
}

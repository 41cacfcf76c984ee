//! Sparse × dense matrix multiplication (SpMM / SpMV).
//!
//! SpMM implements the neighbor-aggregation step of GCN-style layers:
//! `H' = Â · H` with `Â` the (normalized) adjacency in CSR. Its column
//! accesses follow the *actual* graph structure, so the emitted access
//! descriptor carries the real column-index array — this is what gives the
//! GPU model its low L1 hit rates and high divergence for aggregation.

use std::sync::Arc;

use super::emit_op;
use crate::cost;
use crate::instrument::{AccessDesc, OpClass};
use crate::simd;
use crate::{par, pool, CsrMatrix, Result, Tensor, TensorError};

/// Row-range partition of a CSR matrix balanced by per-row nnz, so one
/// hub row doesn't serialize a whole chunk on power-law graphs.
fn nnz_balanced_ranges(csr: &CsrMatrix, n: usize) -> Vec<std::ops::Range<usize>> {
    let m = csr.rows();
    let work = csr.nnz().saturating_mul(n.max(1));
    let chunks = par::chunks(work, par::Cost::SPMM_MAC).min(m.max(1));
    if chunks <= 1 {
        return par::even_ranges(m, 1);
    }
    let weights: Vec<usize> = (0..m).map(|r| csr.row(r).0.len()).collect();
    par::weighted_ranges(&weights, chunks)
}

impl CsrMatrix {
    /// Sparse-dense product `self · dense`, where `self` is `[m, k]` CSR and
    /// `dense` is `[k, n]`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if `dense` is not rank 2 with
    /// `k` rows.
    pub fn spmm(&self, dense: &Tensor) -> Result<Tensor> {
        if dense.rank() != 2 || dense.dim(0) != self.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "spmm",
                lhs: vec![self.rows(), self.cols()],
                rhs: dense.dims().to_vec(),
            });
        }
        let n = dense.dim(1);
        let m = self.rows();
        let d = dense.as_slice();
        let lvl = simd::level();
        let mut out = pool::zeroed(m * n);
        let ranges = nnz_balanced_ranges(self, n);
        par::for_row_ranges_mut(&mut out, n, &ranges, |_, rows, chunk| {
            for (r, out_row) in rows.zip(chunk.chunks_exact_mut(n)) {
                let (cols, vals) = self.row(r);
                // Per output row the neighbor rows accumulate in nnz order
                // regardless of partitioning — bit-identical at any thread
                // count within a lane.
                for (&c, &v) in cols.iter().zip(vals) {
                    simd::axpy(lvl, out_row, v, &d[c * n..(c + 1) * n]);
                }
            }
        });
        let result = Tensor::from_vec(&[m, n], out)?;

        let nnz = self.nnz();
        let row_bytes = (n * 4) as u64;
        let table_bytes = dense.byte_len();
        let col_idx: Vec<u32> = self.col_idx().iter().map(|&c| c as u32).collect();
        emit_op(
            OpClass::Spmm,
            "csr_spmm",
            2 * (nnz * n) as u64,
            cost::spmm_iops(nnz, n),
            (nnz * n * 4 + nnz * 8 + (m + 1) * 4) as u64,
            (m * n * 4) as u64,
            (m * n) as u64,
            move || {
                vec![
                    // Row-pointer + column-index walk: sequential.
                    AccessDesc::Sequential {
                        bytes: (nnz * 8 + (m + 1) * 4) as u64,
                    },
                    // Dense-row gathers driven by real graph structure.
                    AccessDesc::Indexed {
                        indices: Arc::new(col_idx),
                        row_bytes,
                        table_bytes,
                    },
                ]
            },
            || {
                vec![AccessDesc::Sequential {
                    bytes: (m * n * 4) as u64,
                }]
            },
        );
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    #[test]
    fn spmm_matches_dense_matmul() {
        let m = CsrMatrix::from_coo(3, 3, &[(0, 1, 2.0), (1, 0, 1.0), (1, 2, -1.0), (2, 2, 0.5)])
            .unwrap();
        let x = Tensor::from_fn(&[3, 2], |i| i as f32 + 1.0);
        let sparse = m.spmm(&x).unwrap();
        let dense = m.to_dense().matmul(&x).unwrap();
        for (a, b) in sparse.as_slice().iter().zip(dense.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn spmm_rejects_mismatch() {
        let m = CsrMatrix::identity(3);
        assert!(m.spmm(&Tensor::zeros(&[4, 2])).is_err());
        assert!(m.spmm(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn spmm_event_carries_real_indices() {
        let m = CsrMatrix::from_coo(2, 4, &[(0, 3, 1.0), (1, 1, 1.0)]).unwrap();
        let x = Tensor::ones(&[4, 8]);
        record::start_recording();
        let _ = m.spmm(&x).unwrap();
        let events = record::stop_recording();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].class, OpClass::Spmm);
        let indexed = events[0].reads.iter().find_map(|d| match d {
            AccessDesc::Indexed { indices, .. } => Some(indices.clone()),
            _ => None,
        });
        assert_eq!(indexed.unwrap().as_slice(), &[3, 1]);
    }
}

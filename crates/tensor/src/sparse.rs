use std::fmt;

use crate::{Result, Tensor, TensorError};

/// A sparse matrix in Compressed Sparse Row (CSR) format.
///
/// CSR is the storage format used for graph adjacency (and normalized
/// adjacency) throughout the suite; SpMM over a `CsrMatrix` is the
/// aggregation primitive of GCN-style layers.
///
/// # Example
///
/// ```
/// use gnnmark_tensor::CsrMatrix;
///
/// // 2×3 matrix [[0, 1, 0], [2, 0, 3]]
/// let m = CsrMatrix::from_coo(2, 3, &[(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0)])?;
/// assert_eq!(m.nnz(), 3);
/// assert_eq!(m.row(1), (&[0usize, 2][..], &[2.0f32, 3.0][..]));
/// # Ok::<(), gnnmark_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw components.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidSparse`] if the structure is malformed:
    /// wrong `row_ptr` length, non-monotonic row pointers, column indices out
    /// of range, or mismatched `col_idx`/`values` lengths.
    pub fn new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1 {
            return Err(TensorError::InvalidSparse {
                reason: format!("row_ptr length {} != rows+1 ({})", row_ptr.len(), rows + 1),
            });
        }
        if row_ptr[0] != 0 || row_ptr[rows] != col_idx.len() {
            return Err(TensorError::InvalidSparse {
                reason: "row_ptr must start at 0 and end at nnz".to_string(),
            });
        }
        if col_idx.len() != values.len() {
            return Err(TensorError::InvalidSparse {
                reason: format!(
                    "col_idx length {} != values length {}",
                    col_idx.len(),
                    values.len()
                ),
            });
        }
        for w in row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(TensorError::InvalidSparse {
                    reason: "row_ptr is not monotonically non-decreasing".to_string(),
                });
            }
        }
        if let Some(&bad) = col_idx.iter().find(|&&c| c >= cols) {
            return Err(TensorError::InvalidSparse {
                reason: format!("column index {bad} out of range ({cols})"),
            });
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a CSR matrix from COO triplets `(row, col, value)`.
    ///
    /// Duplicate coordinates are summed. Triplets need not be sorted.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidSparse`] if any coordinate is out of
    /// range.
    pub fn from_coo(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Result<Self> {
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(TensorError::InvalidSparse {
                    reason: format!("coordinate ({r}, {c}) out of range ({rows}×{cols})"),
                });
            }
        }
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Merge duplicates.
        let mut merged: Vec<(usize, usize, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in &merged {
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = merged.iter().map(|&(_, c, _)| c).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        CsrMatrix::new(rows, cols, row_ptr, col_idx, values)
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structural) nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row-pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column-index array (`nnz` entries).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array (`nnz` entries).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The column indices and values of row `r`.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> (&[usize], &[f32]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of nonzeros in row `r`.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Materializes the matrix as a dense [`Tensor`].
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows, self.cols]);
        let data = out.as_mut_slice();
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                data[r * self.cols + c] += v;
            }
        }
        out
    }

    /// Returns the transposed matrix (CSR of the transpose, i.e. CSC view
    /// materialized as CSR).
    pub fn transpose(&self) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                triplets.push((c, r, v));
            }
        }
        CsrMatrix::from_coo(self.cols, self.rows, &triplets)
            .expect("transpose of a valid matrix is valid")
    }

    /// Size of the structural arrays plus values, in bytes (as a GPU would
    /// store them with 4-byte indices).
    pub fn byte_len(&self) -> u64 {
        ((self.row_ptr.len() + self.col_idx.len()) * 4 + self.values.len() * 4) as u64
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix {}×{} nnz={}",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_coo_and_to_dense() {
        let m = CsrMatrix::from_coo(2, 3, &[(1, 2, 3.0), (0, 1, 1.0), (1, 0, 2.0)]).unwrap();
        let d = m.to_dense();
        assert_eq!(d.as_slice(), &[0.0, 1.0, 0.0, 2.0, 0.0, 3.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_coo(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.values(), &[3.5]);
    }

    #[test]
    fn validation_rejects_bad_structure() {
        assert!(CsrMatrix::new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        assert!(CsrMatrix::new(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        assert!(CsrMatrix::from_coo(2, 2, &[(3, 0, 1.0)]).is_err());
    }

    #[test]
    fn identity_matrix() {
        let m = CsrMatrix::identity(3);
        assert_eq!(m.nnz(), 3);
        let d = m.to_dense();
        assert_eq!(d.get(&[0, 0]), 1.0);
        assert_eq!(d.get(&[1, 1]), 1.0);
        assert_eq!(d.get(&[0, 1]), 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_coo(2, 3, &[(0, 2, 1.0), (1, 0, 2.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn row_access() {
        let m = CsrMatrix::from_coo(3, 3, &[(1, 0, 1.0), (1, 2, 2.0)]).unwrap();
        assert_eq!(m.row_nnz(0), 0);
        assert_eq!(m.row_nnz(1), 2);
        let (cols, vals) = m.row(1);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[1.0, 2.0]);
    }
}

use std::fmt;

use crate::{Result, TensorError};

/// The dimensions of a tensor, row-major.
///
/// `Shape` is a thin, validated wrapper around a `Vec<usize>` of dimension
/// extents. A rank-0 shape (`&[]`) denotes a scalar with one element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions (rank). A scalar has rank 0.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] if `index.len() != rank`, or
    /// [`TensorError::IndexOutOfBounds`] if any coordinate exceeds its extent.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.dims.len() {
            return Err(TensorError::RankMismatch {
                op: "offset",
                expected: self.dims.len(),
                actual: index.len(),
            });
        }
        let mut off = 0usize;
        let strides = self.strides();
        for (axis, (&i, &d)) in index.iter().zip(self.dims.iter()).enumerate() {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds {
                    op: "offset",
                    index: i,
                    bound: d,
                });
            }
            off += i * strides[axis];
        }
        Ok(off)
    }

    /// Checks element-wise compatibility with another shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] tagged with `op` when the
    /// shapes differ.
    pub fn require_same(&self, other: &Shape, op: &'static str) -> Result<()> {
        if self.dims != other.dims {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims.clone(),
                rhs: other.dims.clone(),
            });
        }
        Ok(())
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.offset(&[0, 0, 0]).unwrap(), 0);
    }

    #[test]
    fn offset_bounds_check() {
        let s = Shape::new(&[2, 3]);
        assert!(matches!(
            s.offset(&[2, 0]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            s.offset(&[0]),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn require_same_detects_mismatch() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[3, 2]);
        assert!(a.require_same(&a.clone(), "t").is_ok());
        assert!(a.require_same(&b, "t").is_err());
    }
}

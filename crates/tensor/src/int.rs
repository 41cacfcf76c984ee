use std::fmt;

use crate::{Result, Shape, TensorError};

/// A dense, row-major tensor of `i64` values.
///
/// Integer tensors hold indices (node ids, edge endpoints, class labels,
/// permutations) and are the inputs to the irregular operations — gather,
/// scatter, index-select, sort — whose integer-heavy behavior the GNNMark
/// paper highlights.
///
/// # Example
///
/// ```
/// use gnnmark_tensor::IntTensor;
///
/// let idx = IntTensor::from_vec(&[3], vec![2, 0, 1])?;
/// assert_eq!(idx.get(&[0]), 2);
/// # Ok::<(), gnnmark_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct IntTensor {
    data: Vec<i64>,
    shape: Shape,
}

impl IntTensor {
    /// Creates an integer tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        IntTensor {
            data: vec![0; shape.numel()],
            shape,
        }
    }

    /// Creates an integer tensor from existing data.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] if the data length does not
    /// match the shape.
    pub fn from_vec(dims: &[usize], data: Vec<i64>) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.numel() != data.len() {
            return Err(TensorError::InvalidArgument {
                op: "IntTensor::from_vec",
                reason: format!(
                    "shape {shape} implies {} elements, data has {}",
                    shape.numel(),
                    data.len()
                ),
            });
        }
        Ok(IntTensor { data, shape })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Read-only view of the underlying data.
    pub fn as_slice(&self) -> &[i64] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [i64] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if the index is out of bounds.
    pub fn get(&self, index: &[usize]) -> i64 {
        let off = self.shape.offset(index).expect("index out of bounds");
        self.data[off]
    }

    /// Validates that all values lie in `[0, bound)`, e.g. before using the
    /// tensor as a gather index.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] for the first offender.
    pub fn check_bounds(&self, bound: usize, op: &'static str) -> Result<()> {
        for &v in &self.data {
            if v < 0 || v as usize >= bound {
                return Err(TensorError::IndexOutOfBounds {
                    op,
                    index: v.max(0) as usize,
                    bound,
                });
            }
        }
        Ok(())
    }

    /// Converts values to `u32` for instrumentation access descriptors.
    ///
    /// Values are clamped into `u32` range; callers validate bounds first
    /// via [`IntTensor::check_bounds`].
    pub fn to_u32_vec(&self) -> Vec<u32> {
        self.data.iter().map(|&v| v.max(0) as u32).collect()
    }
}

impl fmt::Debug for IntTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IntTensor{} ", self.shape)?;
        if self.numel() <= 8 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{}, {}, … ; {} elems]",
                self.data[0],
                self.data[1],
                self.numel()
            )
        }
    }
}

impl Default for IntTensor {
    fn default() -> Self {
        IntTensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_checking() {
        let t = IntTensor::from_vec(&[3], vec![0, 2, 1]).unwrap();
        assert!(t.check_bounds(3, "t").is_ok());
        assert!(t.check_bounds(2, "t").is_err());
        let neg = IntTensor::from_vec(&[1], vec![-1]).unwrap();
        assert!(neg.check_bounds(10, "t").is_err());
    }

    #[test]
    fn from_vec_validates() {
        assert!(IntTensor::from_vec(&[2], vec![1]).is_err());
    }
}
